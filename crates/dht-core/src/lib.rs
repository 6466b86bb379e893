//! Shared substrate for the Cycloid reproduction suite.
//!
//! This crate defines everything the four overlay implementations
//! (`cycloid`, `chord`, `koorde`, `viceroy`) and the experiment harness have
//! in common:
//!
//! * [`audit`] — protocol-conformance auditing: the [`audit::StateAudit`]
//!   trait each overlay implements to check its paper-specified routing
//!   invariants, and the [`audit::AuditReport`] violations land in,
//! * [`clock`] — the virtual clock: the deterministic discrete-event
//!   kernel ([`clock::EventQueue`], FIFO tie-breaking, Poisson arrival
//!   sampling) every temporal simulation in the workspace runs on,
//! * [`corrupt`] — seeded adversarial corruption of routing state
//!   ([`corrupt::CorruptionPlan`], [`corrupt::CorruptionStrategy`]): the
//!   damage half of the self-stabilization test harness,
//! * [`hash`] — the consistent-hashing primitive used to map node names and
//!   object keys onto identifier spaces,
//! * [`rng`] — deterministic, seedable randomness so every experiment is
//!   reproducible bit-for-bit,
//! * [`lookup`] — the per-lookup trace (hops, per-hop phase tags, timeouts,
//!   success) that every overlay reports and every figure of the paper is
//!   computed from,
//! * [`net`] — the deterministic unreliable-network model: a seeded
//!   [`net::FaultPlan`] (message loss / delay / duplication) plus the
//!   fixed [`net::RetryPolicy`] (its attempts and exponential backoff are
//!   constants) applied by the shared walk engine to every per-hop
//!   contact,
//! * [`obs`] — observability: the [`obs::Telemetry`] handle, zero-cost
//!   when disabled, that records trace events and per-phase costs into
//!   one record,
//! * [`inline`] — fixed-capacity inline vectors ([`inline::InlineVec`])
//!   keeping constant-degree routing tables inside the state slab,
//! * [`overlay`] — the [`overlay::Overlay`] trait: the uniform simulation
//!   interface (join / graceful leave / lookup / stabilize / query loads),
//!   and its [`overlay::Protocol`] supertrait, the operations each overlay
//!   writes once,
//! * [`store`] — the compact struct-of-arrays node store
//!   ([`store::CompactStore`]) backing million-node memberships,
//! * [`ring`] — modular-ring interval and distance arithmetic shared by the
//!   ring-based overlays,
//! * [`sim`] — the shared simulation substrate: the [`sim::Membership`]
//!   node arena, query-load accounting, and the iterative lookup walk
//!   driver behind the [`sim::SimOverlay`] per-hop routing interface,
//! * [`stats`] — mean and 1st/99th-percentile summaries exactly as the
//!   paper plots them, and log₂-bucket histograms,
//! * [`workload`] — lookup and key-placement workload generators.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod clock;
pub mod corrupt;
pub mod hash;
pub mod inline;
pub mod lookup;
pub mod net;
pub mod obs;
pub mod overlay;
pub mod ring;
pub mod rng;
pub mod sim;
pub mod stats;
pub mod store;
pub mod workload;

pub use audit::{AuditReport, AuditScope, AuditViolation, StateAudit};
pub use clock::{exp_delay, EventQueue, SimTime, SECOND};
pub use corrupt::{CorruptionPlan, CorruptionReport, CorruptionStrategy};
pub use inline::InlineVec;
pub use lookup::{HopPhase, LookupOutcome, LookupTrace};
pub use net::{DelayModel, FaultPlan, NetConditions, NetCosts, RetryPolicy};
pub use obs::{Event, Telemetry, TimeoutKind};
pub use overlay::{NodeToken, Overlay, Protocol};
pub use sim::{
    CursorStep, LookupCursor, Membership, SimOverlay, StepDecision, WalkCursor, WalkEffects,
    WalkScratch,
};
pub use stats::Summary;
pub use store::CompactStore;
