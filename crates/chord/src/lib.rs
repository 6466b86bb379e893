//! # Chord baseline
//!
//! The `O(log n)`-degree reference DHT of the Cycloid evaluation (Stoica et
//! al., SIGCOMM 2001): a one-dimensional circular key space where the node
//! responsible for a key is the key's **successor**, each node keeps a
//! successor list plus a finger table of `O(log n)` exponentially spaced
//! pointers, and lookups walk greedily through closest-preceding fingers in
//! `O(log n)` hops.
//!
//! Protocol fidelity matters to the paper's §4.3/§4.4 experiments:
//! a *graceful* departure notifies only the departing node's predecessor
//! and successors (mending the ring and the nearby successor lists), while
//! **finger tables elsewhere go stale** until stabilization — each stale
//! finger contacted during a lookup is a timeout.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! ```
//! use chord::{ChordConfig, ChordNetwork};
//! use dht_core::overlay::Overlay;
//!
//! let mut ring = ChordNetwork::with_nodes(ChordConfig::new(11), 500, 42);
//! let src = ring.node_tokens()[0];
//! let trace = ring.lookup(src, 0xfeed);
//! assert!(trace.outcome.is_success());
//! assert!(trace.path_len() <= 22); // O(log n)
//! ```

mod audit;
pub mod network;
pub mod node;
mod repair;

pub use network::{ChordConfig, ChordNetwork};
pub use node::ChordNode;
