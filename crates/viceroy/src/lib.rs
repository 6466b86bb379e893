//! # Viceroy baseline
//!
//! Viceroy (Malkhi, Naor & Ratajczak, PODC 2002) approximates a
//! **butterfly network** over a `[0,1)` identifier circle: every node draws
//! a uniform identifier and a butterfly *level* `l ∈ [1, log n₀]`, and keeps
//! seven links — general-ring successor/predecessor, level-ring
//! next/previous, two *down* links to level `l+1` (one nearby, one about
//! `2^{-l}` away), and one *up* link to level `l-1`. A lookup ascends to
//! level 1, descends through the butterfly, then traverses ring and
//! level-ring pointers to the key's successor (§2.4 of the Cycloid paper).
//!
//! **Simulation note (see DESIGN.md):** the Cycloid paper's §4.3
//! observes that Viceroy repairs *all* related nodes on every join/leave
//! ("all related nodes are updated before the node departs"), so its links
//! are never stale and lookups never time out. We model that exactly by
//! resolving links lazily from the always-current membership — behaviorally
//! identical to eager full repair, at none of the bookkeeping cost. The
//! price Viceroy pays appears where the paper says it does: long paths and
//! heavy join/leave repair traffic, not timeouts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! ```
//! use viceroy::{ViceroyConfig, ViceroyNetwork};
//! use dht_core::overlay::Overlay;
//!
//! let mut net = ViceroyNetwork::with_nodes(ViceroyConfig::new(), 500, 42);
//! let src = net.node_tokens()[0];
//! let trace = net.lookup(src, 0xfeed);
//! assert!(trace.outcome.is_success());
//! assert_eq!(trace.timeouts, 0); // Viceroy never times out
//! ```

mod audit;
pub mod network;
mod repair;

pub use network::{ViceroyConfig, ViceroyNetwork, ViceroyNode};
