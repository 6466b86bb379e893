//! Discrete-event simulation harness and experiment drivers for the
//! Cycloid evaluation (§4 of the paper).
//!
//! * [`factory`] — builds any of the compared overlays (Cycloid 7/11,
//!   Viceroy, Koorde, Chord) at a given network size with the sizing rules
//!   the paper uses,
//! * [`event`] — a façade over the virtual-clock kernel
//!   ([`dht_core::clock`]): the time-ordered event queue and Poisson
//!   arrival streams,
//! * [`churn`] — the §4.4 continuous join/leave simulation (lookups at one
//!   per second, churn at rate `R`, stabilization every 30 s), optionally
//!   composed with a message-level [`dht_core::net::FaultPlan`] and
//!   runnable in lockstep rounds or on the continuous virtual clock
//!   ([`churn::TimeModel`]),
//! * [`experiments`] — one driver per table/figure, returning structured
//!   rows, including the [`experiments::fault_tolerance`] loss-rate sweep,
//! * [`report`] — fixed-width table and CSV rendering for the `repro`
//!   binary,
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
