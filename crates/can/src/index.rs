//! Dyadic zone index: constant-ish-time point location and face sweeps
//! over the CAN tiling.
//!
//! Every zone in the network is a box of one fixed binary-space
//! partition (see [`crate::zone`]), identified by `(split depth, lower
//! corner)` — which is what a [`Zone`] stores. The index keeps exactly
//! one entry per *current* zone, keyed by the zone, valued by the owning
//! token (`None` while the zone is orphaned), and answers two queries
//! without touching the membership:
//!
//! * [`ZoneIndex::locate`]: descend the partition from the root towards a
//!   point, probing each depth's box, `O(depth)` hash lookups (depth ≤
//!   `dims · CanConfig::BITS_PER_DIM`).
//! * [`ZoneIndex::face_owners`]: owners of every zone abutting a given
//!   zone, found by sweeping a one-cell-thick probe layer just outside
//!   each face (wrapping across the torus seam) and covering it with
//!   located zones via guillotine subtraction.
//!
//! Both reproduce the membership-scan formulations exactly on protocol
//! states: the index's entries tile the torus at every instant (splits
//! replace a parent with its two halves; departures only change owners),
//! so `locate` finds the unique covering zone, and the face sweep finds a
//! zone iff it touches the probed face and overlaps the zone's extent in
//! every other dimension — precisely [`Zone::abuts`]. Routing reads the
//! nodes' stored neighbour tables instead; the sweep serves orphan zones
//! (which have no owner's table) and the `Full` audit's recomputation.
//! The equivalences are pinned against the scan formulations in
//! `network.rs` tests.

use crate::zone::{Zone, MAX_DIMS};
use dht_core::hash::splitmix64;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Owner-or-orphan of one zone: the adopting token, or `None` between a
/// crash and the takeover stabilizer.
pub(crate) type Slot = Option<u64>;

/// One splitmix64 round per word written. The keys are the network's own
/// zones, split at points it draws from its own allocator, so no caller
/// can craft colliding ones; and a `locate` or an audit's ancestor walk
/// probes up to `dims · bits` of them: SipHash's cost is not worth paying.
#[derive(Default)]
pub(crate) struct ZoneHasher(u64);

impl Hasher for ZoneHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = splitmix64(self.0 ^ x);
    }
}

/// A non-wrapping box that need not be a zone of the partition: a face
/// layer, or what is left of one.
#[derive(Clone, Copy)]
struct Region {
    lo: [u64; MAX_DIMS],
    hi: [u64; MAX_DIMS],
}

/// The index: one entry per current zone of the tiling.
#[derive(Debug, Clone)]
pub(crate) struct ZoneIndex {
    root: Zone,
    boxes: HashMap<Zone, Slot, BuildHasherDefault<ZoneHasher>>,
}

impl ZoneIndex {
    /// An empty index over a `dims`-dimensional torus with side
    /// `2^bits` (the limits of [`Zone::full`]).
    pub(crate) fn new(dims: usize, bits: u32) -> Self {
        Self {
            root: Zone::full(dims, bits),
            boxes: HashMap::default(),
        }
    }

    /// Registers the founding zone (the full torus).
    pub(crate) fn insert_root(&mut self, owner: u64) {
        self.boxes.insert(self.root, Some(owner));
    }

    /// Replaces `parent` with its two halves.
    pub(crate) fn split(&mut self, parent: Zone, a: (Zone, u64), b: (Zone, u64)) {
        let removed = self.boxes.remove(&parent);
        debug_assert!(removed.is_some(), "split of an unindexed zone");
        self.boxes.insert(a.0, Some(a.1));
        self.boxes.insert(b.0, Some(b.1));
    }

    /// Reassigns a zone's owner (`None` orphans it).
    pub(crate) fn set_owner(&mut self, zone: Zone, owner: Slot) {
        let slot = self.boxes.get_mut(&zone).expect("zone is indexed");
        *slot = owner;
    }

    /// The current zone containing `p` and its owner: descend the fixed
    /// partition from the root, probing each depth's box until the entry
    /// is found. The entries always tile the torus, so this cannot miss
    /// for in-range points.
    pub(crate) fn locate(&self, p: &[u64]) -> (Zone, Slot) {
        let mut cursor = self.root;
        loop {
            if let Some(&slot) = self.boxes.get(&cursor) {
                return (cursor, slot);
            }
            // The cursor contains `p`, so only the split dimension
            // decides which half does.
            let k = cursor.split_dim();
            let (lower, upper) = cursor.split().expect("no index entry above a unit box");
            cursor = if p[k] < upper.lo(k) { lower } else { upper };
        }
    }

    /// Appends the owner of every zone abutting `zone` (in the
    /// [`Zone::abuts`] sense, torus wrap included) to `out`. Owners are
    /// *not* deduplicated, and orphaned zones contribute `None`.
    pub(crate) fn face_owners(&self, zone: &Zone, out: &mut Vec<Slot>) {
        let dims = zone.dims();
        let side = zone.side();
        let mut extent = Region {
            lo: [0; MAX_DIMS],
            hi: [0; MAX_DIMS],
        };
        for k in 0..dims {
            extent.lo[k] = zone.lo(k);
            extent.hi[k] = zone.hi(k);
        }
        for k in 0..dims {
            // One-cell-thick layers just outside the two faces of
            // dimension k, wrapped across the seam; each spans the zone's
            // own (half-open) extent in every other dimension, which is
            // exactly the plain-overlap requirement of `abuts`. When the
            // zone spans the full side, both probes land inside the zone
            // itself and contribute only its own owner, which callers
            // filter — consistent with the scan, where full-span
            // dimensions can never be the touching dimension.
            for c in [extent.hi[k] % side, (extent.lo[k] + side - 1) % side] {
                let mut layer = extent;
                layer.lo[k] = c;
                layer.hi[k] = c + 1;
                self.cover(layer, dims, out);
            }
        }
    }

    /// Covers `region` with located zones, appending each one's owner:
    /// locate the zone at the region's lower corner, then cover the
    /// guillotine remainders one axis at a time.
    fn cover(&self, mut region: Region, dims: usize, out: &mut Vec<Slot>) {
        let (zone, slot) = self.locate(&region.lo[..dims]);
        out.push(slot);
        // The located zone contains the lower corner, so its
        // intersection with the region is anchored there.
        for k in 0..dims {
            let cut = zone.hi(k).min(region.hi[k]);
            if cut < region.hi[k] {
                let mut rest = region;
                rest.lo[k] = cut;
                self.cover(rest, dims, out);
                region.hi[k] = cut;
            }
        }
    }

    /// Approximate heap footprint of the index: one slot per entry at
    /// the table's 7/8 load factor, entry size plus control bytes. The
    /// live capacity is deliberately not consulted — it depends on the
    /// map's reallocation history, while the accounting must be a pure
    /// function of the current tiling (the scale sweep's stdout table
    /// is diffed across `--jobs` values in CI).
    pub(crate) fn heap_bytes(&self) -> usize {
        let slots = (self.boxes.len() * 8).div_ceil(7);
        slots * (std::mem::size_of::<(Zone, Slot)>() + std::mem::size_of::<u64>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_descends_to_split_zones() {
        let mut idx = ZoneIndex::new(2, 4);
        idx.insert_root(7);
        let root = Zone::full(2, 4);
        let (lower, upper) = root.split().unwrap();
        idx.split(root, (lower, 7), (upper, 9));
        assert_eq!(idx.locate(&[0, 0]).1, Some(7));
        assert_eq!(idx.locate(&[8, 0]).1, Some(9));
        idx.set_owner(upper, None);
        assert_eq!(idx.locate(&[15, 15]).1, None);
    }

    #[test]
    fn face_owners_sees_both_sides_and_wrap() {
        let mut idx = ZoneIndex::new(1, 4);
        idx.insert_root(1);
        let root = Zone::full(1, 4);
        let (a, b) = root.split().unwrap();
        idx.split(root, (a, 1), (b, 2));
        let mut out = Vec::new();
        idx.face_owners(&a, &mut out);
        // b abuts a across the interior cut and across the torus seam.
        assert_eq!(out, vec![Some(2), Some(2)]);
    }
}
