//! # CAN: a Content-Addressable Network
//!
//! The mesh-based representative of §2.3 / Table 1 (Ratnasamy et al.,
//! SIGCOMM 2001): keys hash to points in a `d`-dimensional toroidal
//! coordinate space, each node *owns a zone* (an axis-aligned box) of that
//! torus, neighbours are the owners of abutting zones, and routing greedily
//! forwards towards the key's point. Nodes keep `O(d)` neighbours and
//! lookups take `O(d · n^{1/d})` hops — the other end of the
//! degree/diameter tradeoff from the constant-degree DHTs. Only `d` is
//! configured; every coordinate has [`CanConfig::BITS_PER_DIM`] = 16 bits.
//!
//! Joins split the zone containing the newcomer's random point; graceful
//! leaves hand the zone to the smallest neighbour (which may then own
//! several boxes, as in real CAN before defragmentation); crashes orphan
//! the zone until the stabilizer's takeover reassigns it.
//!
//! Each node stores its neighbour table, the `O(d)` routing entries
//! Table 1 charges CAN for, and every zone handover updates the tables of
//! the few nodes involved, so a hop reads stored tokens. A [`Zone`] is a
//! `Copy` box of one fixed binary partition, split depth plus packed lower
//! corner, and the key of the dyadic zone index, which locates points and
//! finds the neighbours of orphan zones. Zones overlap only by nesting, so
//! the `Full` audit checks the tiling exactly, with no sample.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

//! ```
//! use can::{CanConfig, CanNetwork};
//! use dht_core::audit::{AuditScope, StateAudit};
//! use dht_core::overlay::Overlay;
//!
//! let mut net = CanNetwork::with_nodes(CanConfig::new(2), 100, 42);
//! let src = net.node_tokens()[0];
//! let trace = net.lookup(src, 0xfeed);
//! assert!(trace.outcome.is_success());
//! assert!(net.audit_state(AuditScope::Full).is_clean()); // zones tile the torus exactly
//! ```

mod audit;
mod index;
pub mod network;
mod repair;
pub mod zone;

pub use network::{CanConfig, CanNetwork, CanNode};
pub use zone::{Point, Zone};
