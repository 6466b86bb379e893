//! Umbrella crate for the Cycloid reproduction suite.
//!
//! Re-exports the public surface of every member crate so the examples and
//! integration tests can use a single dependency:
//!
//! * [`cycloid`] — the paper's contribution: a constant-degree DHT
//!   emulating cube-connected cycles;
//! * [`chord`], [`koorde`], [`viceroy`] — the baseline DHTs of the
//!   evaluation, plus [`pastry`] and [`can`] (the hypercube and mesh
//!   representatives of Table 1, built as extensions);
//! * [`ccc`] — the cube-connected-cycles graph substrate;
//! * [`dht_core`] — shared identifiers, traces, statistics and the
//!   [`dht_core::Overlay`] trait;
//! * [`dht_sim`] — the experiment harness regenerating every table and
//!   figure.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use can;
pub use ccc;
pub use chord;
pub use cycloid;
pub use dht_core;
pub use dht_sim;
pub use koorde;
pub use pastry;
pub use viceroy;

/// Everything a typical example needs, in one import.
pub mod prelude {
    pub use can::{CanConfig, CanNetwork};
    pub use chord::{ChordConfig, ChordNetwork};
    pub use cycloid::{CycloidConfig, CycloidId, CycloidNetwork, Dim};
    pub use dht_core::audit::{AuditReport, AuditScope, AuditViolation, StateAudit};
    pub use dht_core::hash::hash_str;
    pub use dht_core::lookup::{HopPhase, LookupOutcome, LookupTrace};
    pub use dht_core::net::{DelayModel, FaultPlan, NetConditions, NetCosts, RetryPolicy};
    pub use dht_core::overlay::{key_counts, NodeToken, Overlay, Protocol};
    pub use dht_core::sim::Refresh;
    pub use dht_core::stats::Summary;
    pub use dht_sim::{build_overlay, OverlayKind, PAPER_KINDS};
    pub use koorde::{KoordeConfig, KoordeNetwork};
    pub use pastry::{PastryConfig, PastryNetwork};
    pub use viceroy::{ViceroyConfig, ViceroyNetwork};
}
