//! Dyadic zone index: constant-ish-time point location and neighbour
//! enumeration over the CAN tiling.
//!
//! Every zone in the network is produced by repeatedly halving the full
//! torus ([`Zone::split`] cuts the longest dimension, ties toward the
//! lowest index), so the set of boxes that can ever exist forms one fixed
//! binary-space partition: all zones after `k` splits are congruent, and
//! a zone is uniquely identified by `(split depth, lower corner)`. The
//! index keeps exactly one entry per *current* zone — keyed by that pair,
//! valued by the owning token (`None` while the zone is crash-orphaned) —
//! and answers two queries without touching the membership:
//!
//! * [`ZoneIndex::locate`]: descend the partition from the root towards a
//!   point, probing each depth's box, `O(depth)` hash lookups (depth ≤
//!   `dims · bits_per_dim`).
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
//! every other dimension — precisely [`Zone::abuts`]. The equivalence is
//! pinned against the scan formulations in `network.rs` tests.

use crate::zone::Zone;
use std::collections::HashMap;

/// Owner-or-orphan of one zone: the adopting token, or `None` between a
/// crash and the takeover stabilizer.
type Slot = Option<u64>;

/// The index: one entry per current zone of the tiling.
#[derive(Debug, Clone)]
pub(crate) struct ZoneIndex {
    dims: usize,
    side: u64,
    bits: u32,
    /// `(split depth, packed lower corner)` → owner.
    boxes: HashMap<(u8, u128), Slot>,
}

impl ZoneIndex {
    /// An empty index over a `dims`-dimensional torus with side
    /// `2^bits`. The packed-corner key needs `dims · bits ≤ 128`.
    pub(crate) fn new(dims: usize, bits: u32) -> Self {
        assert!(
            dims as u32 * bits <= 128,
            "zone index requires dims * bits_per_dim <= 128"
        );
        Self {
            dims,
            side: 1u64 << bits,
            bits,
            boxes: HashMap::new(),
        }
    }

    /// Packs a zone's lower corner into the key (bijective because every
    /// coordinate is below `2^bits`).
    fn key(&self, depth: u8, lo: &[u64]) -> (u8, u128) {
        let mut packed = 0u128;
        for (k, &c) in lo.iter().enumerate() {
            packed |= u128::from(c) << (k as u32 * self.bits);
        }
        (depth, packed)
    }

    /// Split depth of `zone`: volume exactly halves per split, so the
    /// depth is the log of its share of the full space.
    fn depth_of(&self, zone: &Zone) -> u8 {
        let full = u128::from(self.side).pow(self.dims as u32);
        let ratio = full / zone.volume();
        debug_assert!(ratio.is_power_of_two(), "zones come from halving");
        ratio.trailing_zeros() as u8
    }

    /// Registers the founding zone (the full torus).
    pub(crate) fn insert_root(&mut self, owner: u64) {
        let root = Zone::full(self.dims, self.side);
        self.boxes.insert(self.key(0, &root.lo), Some(owner));
    }

    /// Replaces `parent` with its two halves.
    pub(crate) fn split(&mut self, parent: &Zone, a: (&Zone, u64), b: (&Zone, u64)) {
        let depth = self.depth_of(parent);
        let removed = self.boxes.remove(&self.key(depth, &parent.lo));
        debug_assert!(removed.is_some(), "split of an unindexed zone");
        self.boxes.insert(self.key(depth + 1, &a.0.lo), Some(a.1));
        self.boxes.insert(self.key(depth + 1, &b.0.lo), Some(b.1));
    }

    /// Reassigns a zone's owner (`None` orphans it).
    pub(crate) fn set_owner(&mut self, zone: &Zone, owner: Slot) {
        let key = self.key(self.depth_of(zone), &zone.lo);
        let slot = self.boxes.get_mut(&key).expect("zone is indexed");
        *slot = owner;
    }

    /// The current zone containing `p` and its owner: descend the fixed
    /// partition from the root, probing each depth's box until the entry
    /// is found. The entries always tile the torus, so this cannot miss
    /// for in-range points.
    pub(crate) fn locate(&self, p: &[u64]) -> (Zone, Slot) {
        let mut cursor = Zone::full(self.dims, self.side);
        let mut depth = 0u8;
        loop {
            if let Some(&slot) = self.boxes.get(&self.key(depth, &cursor.lo)) {
                return (cursor, slot);
            }
            // The half of `Zone::split` that contains `p`, in place: the
            // cursor contains `p`, so only the split dimension decides.
            let k = cursor.longest_dim();
            let mid = cursor.lo[k] + (cursor.hi[k] - cursor.lo[k]) / 2;
            assert!(mid > cursor.lo[k], "no index entry above a unit box");
            if p[k] < mid {
                cursor.hi[k] = mid;
            } else {
                cursor.lo[k] = mid;
            }
            depth += 1;
        }
    }

    /// Appends the owner of every zone abutting `zone` (in the
    /// [`Zone::abuts`] sense, torus wrap included) to `out`. Owners are
    /// *not* deduplicated, and orphaned zones contribute `None`.
    pub(crate) fn face_owners(&self, zone: &Zone, out: &mut Vec<Slot>) {
        for k in 0..self.dims {
            // One-cell-thick layers just outside the two faces of
            // dimension k, wrapped across the seam; each spans the zone's
            // own (half-open) extent in every other dimension, which is
            // exactly the plain-overlap requirement of `abuts`. When the
            // zone spans the full side, both probes land inside the zone
            // itself and contribute only its own owner, which callers
            // filter — consistent with the scan, where full-span
            // dimensions can never be the touching dimension.
            let coords = [
                zone.hi[k] % self.side,
                (zone.lo[k] + self.side - 1) % self.side,
            ];
            for c in coords {
                let mut region = zone.clone();
                region.lo[k] = c;
                region.hi[k] = c + 1;
                self.cover(region, out);
            }
        }
    }

    /// Covers `region` (a non-wrapping box) with located zones,
    /// appending each one's owner: locate the zone at the region's lower
    /// corner, subtract it, and recurse on the guillotine remainders.
    fn cover(&self, region: Zone, out: &mut Vec<Slot>) {
        let mut stack = vec![region];
        while let Some(mut r) = stack.pop() {
            let (zone, slot) = self.locate(&r.lo);
            out.push(slot);
            // The located zone contains r.lo, so its intersection with r
            // is anchored at r.lo; carve the remainder one axis at a
            // time.
            for k in 0..self.dims {
                let cut = zone.hi[k].min(r.hi[k]);
                if cut < r.hi[k] {
                    let mut rem = r.clone();
                    rem.lo[k] = cut;
                    stack.push(rem);
                    r.hi[k] = cut;
                }
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
        slots * (std::mem::size_of::<((u8, u128), Slot)>() + std::mem::size_of::<u64>())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn locate_descends_to_split_zones() {
        let mut idx = ZoneIndex::new(2, 4);
        idx.insert_root(7);
        let root = Zone::full(2, 16);
        let (lower, upper) = root.split().unwrap();
        idx.split(&root, (&lower, 7), (&upper, 9));
        assert_eq!(idx.locate(&[0, 0]).1, Some(7));
        assert_eq!(idx.locate(&[8, 0]).1, Some(9));
        idx.set_owner(&upper, None);
        assert_eq!(idx.locate(&[15, 15]).1, None);
    }

    #[test]
    fn face_owners_sees_both_sides_and_wrap() {
        let mut idx = ZoneIndex::new(1, 4);
        idx.insert_root(1);
        let root = Zone::full(1, 16);
        let (a, b) = root.split().unwrap();
        idx.split(&root, (&a, 1), (&b, 2));
        let mut out = Vec::new();
        idx.face_owners(&a, &mut out);
        // b abuts a across the interior cut and across the torus seam.
        assert_eq!(out, vec![Some(2), Some(2)]);
    }
}
