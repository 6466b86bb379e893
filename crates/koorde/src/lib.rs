//! # Koorde baseline
//!
//! Koorde (Kaashoek & Karger, IPTPS 2003) embeds a **de Bruijn graph** on
//! the Chord identifier circle: node `m` keeps its ring successor(s) and a
//! pointer `d` to the node immediately preceding `2m` (its "first de Bruijn
//! node"). A lookup walks down the de Bruijn graph by simulating the path
//! through the *complete* graph: an imaginary node `i` shifts in one bit of
//! the key per de Bruijn hop, and real hops pass through the immediate
//! predecessor of each imaginary node, with successor hops to fix up the
//! gaps a sparse ring introduces.
//!
//! Per the Cycloid paper's §4 setup, the simulated Koorde maintains seven
//! neighbours: one de Bruijn node, three successors, and the three
//! immediate predecessors of the de Bruijn node (its backups). A lookup
//! **fails** when the de Bruijn pointer and all of its backups are dead —
//! the effect behind the paper's Fig. 11/Table 4 failure counts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! ```
//! use koorde::{KoordeConfig, KoordeNetwork};
//! use dht_core::overlay::Overlay;
//! use dht_core::sim::SimOverlay;
//!
//! let mut ring = KoordeNetwork::with_nodes(KoordeConfig::new(11), 500, 42);
//! let src = ring.node_tokens()[0];
//! let trace = ring.lookup(src, 0xfeed);
//! assert!(trace.outcome.is_success());
//! // Seven neighbours per node: 1 de Bruijn + 3 successors + 3 backups.
//! assert!(ring.membership().store.get(src).unwrap().degree(src) <= 7);
//! ```

mod audit;
pub mod network;
pub mod node;
mod repair;

pub use network::{ImaginaryStart, KoordeConfig, KoordeNetwork};
pub use node::KoordeNode;
