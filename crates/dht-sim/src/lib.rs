//! Discrete-event simulation harness and experiment drivers for the
//! Cycloid evaluation (§4 of the paper).
//!
//! * [`factory`] — builds any of the compared overlays (Cycloid 7/11,
//!   Viceroy, Koorde and its best-fit ablation, Chord, plus the Pastry
//!   and CAN extension baselines) at a given network size with the sizing
//!   rules the paper uses,
//! * [`churn`] — the §4.4 continuous join/leave simulation (lookups at one
//!   per second, churn at rate `R`, stabilization every 30 s) as one event
//!   loop on the virtual clock ([`dht_core::clock`]), optionally composed
//!   with a message-level [`dht_core::net::FaultPlan`]; lookups are either
//!   batched between membership events or suspended per hop
//!   ([`churn::TimeModel`]), and [`churn::run_until_clean`] drives the same
//!   stabilize/repair tick over a static population,
//! * [`experiments`] — every table and figure `repro` prints as data:
//!   grids, a cell function, layouts and a check per experiment
//!   ([`experiments::figures`]),
//! * [`report`] — fixed-width table, CSV and chart rendering of those
//!   layouts for the `repro` binary,
//! * [`chart`] — terminal line charts so the figures render as figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chart;
pub mod churn;
pub mod experiments;
pub mod factory;
pub mod report;

pub use factory::{
    build_overlay, build_overlay_spaced, OverlayKind, ALL_KINDS, EXTENDED_KINDS, PAPER_KINDS,
};
