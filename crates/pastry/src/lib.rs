//! # Pastry-style prefix-routing DHT
//!
//! The hypercube-based scheme of §2.1 of the Cycloid paper (Rowstron &
//! Druschel, Middleware 2001; routing after Plaxton et al.): identifiers
//! are strings of base-`2^b` digits; each node keeps a **routing table**
//! with one row per shared-prefix length and one column per digit value —
//! "nodes that match each prefix of its own identifier but differ in the
//! next digit" — plus a **leaf set** `L` of the numerically closest nodes
//! (half smaller, half larger). Routing corrects one digit per hop, left
//! to right, resolving in `O(log n)` hops with `O(log n)`-sized state.
//! Every run here uses base-4 digits and `|L| = 8`
//! ([`PastryConfig::DIGIT_BITS`], [`PastryConfig::LEAF_SET`]); only the
//! identifier width is configured.
//!
//! Cycloid borrows exactly this left-to-right prefix correction for its
//! descending phase and the leaf-set fallback for its fault tolerance, so
//! this crate doubles as the reference implementation of the machinery
//! Cycloid specializes down to constant degree.
//!
//! The proximity-based *neighborhood set* `M` is omitted: it only affects
//! locality-aware entry selection, which none of the paper's hop-count
//! experiments exercise (noted in DESIGN.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! ```
//! use pastry::{PastryConfig, PastryNetwork};
//! use dht_core::overlay::Overlay;
//!
//! let mut net = PastryNetwork::with_nodes(PastryConfig::new(12), 500, 42);
//! let src = net.node_tokens()[0];
//! let trace = net.lookup(src, 0xfeed);
//! assert!(trace.outcome.is_success());
//! assert!(trace.path_len() <= 12); // one hop per corrected digit + slack
//! ```

mod audit;
pub mod network;
mod repair;

pub use network::{PastryConfig, PastryNetwork, PastryNode};
