//! Zones of the toroidal coordinate space, and the geometry CAN routing
//! needs: containment, adjacency (shared faces), splitting, and torus
//! distance.
//!
//! Every zone arises from repeatedly halving the full torus along its
//! longest dimension (ties toward the lowest index), so the zones that
//! can ever exist form one fixed binary-space partition. A zone is
//! therefore fully described by its split depth and its lower corner:
//! after `t` splits dimension `k` has been halved `(t + d − 1 − k) / d`
//! times, and the next split cuts dimension `t mod d`. [`Zone`] stores
//! exactly that pair (plus the torus shape), so it is a small `Copy`
//! value and doubles as the zone index's key.

use dht_core::ring::ring_dist;
use std::hash::{Hash, Hasher};

/// A point of the `d`-dimensional torus: one coordinate per dimension,
/// each in `[0, side)`.
pub type Point = Vec<u64>;

/// Most dimensions a zone can have (the range [`crate::CanConfig::new`]
/// accepts).
pub(crate) const MAX_DIMS: usize = 8;

/// An axis-aligned box `∏ [lo_k, hi_k)` of the dyadic partition. Zones
/// never wrap internally; adjacency wraps across the torus seam.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Zone {
    /// Lower corner, coordinate `k` in bits `[k·bits, (k+1)·bits)`.
    corner: u128,
    /// Number of halvings from the full torus.
    depth: u8,
    dims: u8,
    bits: u8,
}

impl Zone {
    /// The full space of a `dims`-dimensional torus with side
    /// `2^bits`: `[0, side)` in every dimension.
    ///
    /// # Panics
    /// Panics unless `1 ≤ dims ≤ 8`, `1 ≤ bits < 64` and
    /// `dims · bits ≤ 128` (the packed corner's width).
    #[must_use]
    pub fn full(dims: usize, bits: u32) -> Self {
        assert!((1..=MAX_DIMS).contains(&dims), "dims must be in [1, 8]");
        assert!(
            (1..64).contains(&bits) && dims as u32 * bits <= 128,
            "zones require bits in [1, 63] and dims * bits <= 128"
        );
        Self {
            corner: 0,
            depth: 0,
            dims: dims as u8,
            bits: bits as u8,
        }
    }

    /// Number of dimensions.
    #[must_use]
    pub fn dims(&self) -> usize {
        usize::from(self.dims)
    }

    /// Side length of the torus this zone tiles.
    #[must_use]
    pub fn side(&self) -> u64 {
        1u64 << self.bits
    }

    /// Number of splits that produced this zone from the full torus.
    #[must_use]
    pub fn depth(&self) -> u32 {
        u32::from(self.depth)
    }

    /// Inclusive lower coordinate in dimension `k`.
    #[must_use]
    pub fn lo(&self, k: usize) -> u64 {
        let bits = u32::from(self.bits);
        (self.corner >> (k as u32 * bits)) as u64 & (self.side() - 1)
    }

    /// Exclusive upper coordinate in dimension `k`.
    #[must_use]
    pub fn hi(&self, k: usize) -> u64 {
        self.lo(k) + self.extent(k)
    }

    /// Side length in dimension `k`: `2^(bits − halvings of k)`.
    #[must_use]
    pub fn extent(&self, k: usize) -> u64 {
        1u64 << self.log_extent(k)
    }

    /// `log2` of [`Zone::extent`].
    pub(crate) fn log_extent(&self, k: usize) -> u32 {
        let d = u32::from(self.dims);
        u32::from(self.bits) - (self.depth() + d - 1 - k as u32) / d
    }

    /// `true` iff `p` lies inside this zone.
    #[must_use]
    pub fn contains(&self, p: &[u64]) -> bool {
        debug_assert_eq!(p.len(), self.dims());
        // The lower corner is aligned to the extent, so `x` is inside
        // iff it agrees with the corner above the extent's bits.
        p.iter().enumerate().all(|(k, &x)| {
            let shift = self.log_extent(k);
            x >> shift == self.lo(k) >> shift
        })
    }

    /// Zone volume: each split halves it.
    #[must_use]
    pub fn volume(&self) -> u128 {
        1u128 << (u32::from(self.dims) * u32::from(self.bits) - self.depth())
    }

    /// The dimension the next split cuts: the longest one, ties towards
    /// the lowest index, which keeps zones square-ish.
    #[must_use]
    pub fn split_dim(&self) -> usize {
        self.depth as usize % self.dims()
    }

    /// Splits this zone in half along [`Zone::split_dim`], returning
    /// `(lower half, upper half)`. Zones of volume 1 cannot split.
    #[must_use]
    pub fn split(&self) -> Option<(Zone, Zone)> {
        if self.depth() == u32::from(self.dims) * u32::from(self.bits) {
            return None; // a unit box
        }
        let k = self.split_dim();
        let lower = Zone {
            depth: self.depth + 1,
            ..*self
        };
        let half = u128::from(self.extent(k) / 2);
        let upper = Zone {
            corner: self.corner | half << (k as u32 * u32::from(self.bits)),
            ..lower
        };
        Some((lower, upper))
    }

    /// `true` iff the two zones share a `(d-1)`-dimensional face on the
    /// torus: abutting (or wrapping) in exactly one dimension and
    /// overlapping in all others.
    #[must_use]
    pub fn abuts(&self, other: &Zone) -> bool {
        debug_assert_eq!(self.dims(), other.dims());
        let side = self.side();
        let mut touching_dim = false;
        for k in 0..self.dims() {
            let (lo, hi) = (self.lo(k), self.hi(k));
            let (olo, ohi) = (other.lo(k), other.hi(k));
            if lo < ohi && olo < hi {
                continue;
            }
            let touches =
                hi == olo || ohi == lo || (hi == side && olo == 0) || (ohi == side && lo == 0);
            if touches && !touching_dim {
                touching_dim = true;
            } else {
                return false; // disjoint in a second dimension, or a gap
            }
        }
        touching_dim
    }

    /// Minimal L1 torus distance from this zone to point `p`: per
    /// dimension, zero if the coordinate is covered, otherwise the
    /// shorter way around to the nearest edge.
    #[must_use]
    pub fn torus_distance(&self, p: &[u64]) -> u64 {
        debug_assert_eq!(p.len(), self.dims());
        let side = self.side();
        p.iter()
            .enumerate()
            .map(|(k, &x)| {
                let (lo, hi) = (self.lo(k), self.hi(k));
                if x >= lo && x < hi {
                    0
                } else {
                    ring_dist(lo, x, side).min(ring_dist(hi - 1, x, side))
                }
            })
            .sum()
    }
}

/// Hashes the partition key, corner and depth, as two words: zones of
/// one tiling share their shape.
impl Hash for Zone {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.corner as u64);
        state.write_u64((self.corner >> 64) as u64 ^ u64::from(self.depth) << 56);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The halving of the full torus `depth` times towards `p`.
    fn zone_at(dims: usize, bits: u32, depth: u32, p: &[u64]) -> Zone {
        let mut zone = Zone::full(dims, bits);
        for _ in 0..depth {
            let (a, b) = zone.split().unwrap();
            zone = if a.contains(p) { a } else { b };
        }
        zone
    }

    #[test]
    fn full_zone_contains_everything() {
        let full = Zone::full(2, 4);
        assert!(full.contains(&[0, 0]));
        assert!(full.contains(&[15, 15]));
        assert_eq!(full.volume(), 256);
    }

    #[test]
    fn split_halves_volume_and_tiles() {
        let full = Zone::full(2, 4);
        let (a, b) = full.split().unwrap();
        assert_eq!(a.volume() + b.volume(), full.volume());
        for p in [[0u64, 0], [7, 3], [8, 3], [15, 15]] {
            assert!(
                a.contains(&p) ^ b.contains(&p),
                "exactly one half owns {p:?}"
            );
        }
    }

    #[test]
    fn repeated_splits_stay_square_ish() {
        // After 4 splits of a 16x16 square: 4x4.
        let zone = zone_at(2, 4, 4, &[0, 0]);
        assert_eq!(zone.extent(0), 4);
        assert_eq!(zone.extent(1), 4);
    }

    #[test]
    fn unit_zone_cannot_split() {
        let unit = zone_at(2, 4, 8, &[3, 3]);
        assert_eq!(
            (unit.lo(0), unit.hi(0), unit.lo(1), unit.hi(1)),
            (3, 4, 3, 4)
        );
        assert!(unit.split().is_none());
    }

    #[test]
    fn adjacency_shared_edge() {
        let a = zone_at(2, 4, 2, &[0, 0]); // [0,8) x [0,8)
        let b = zone_at(2, 4, 2, &[8, 0]); // [8,16) x [0,8)
        let c = zone_at(2, 4, 2, &[8, 8]); // [8,16) x [8,16)
        assert!(a.abuts(&b), "share the x=8 edge");
        assert!(!a.abuts(&c), "corner contact only");
        assert!(b.abuts(&c), "share the y=8 edge");
    }

    #[test]
    fn adjacency_wraps_around_torus() {
        let left = zone_at(2, 4, 3, &[0, 0]); // [0,4) x [0,8)
        let right = zone_at(2, 4, 3, &[12, 0]); // [12,16) x [0,8)
        assert!(left.abuts(&right), "wraps across the x seam");
    }

    #[test]
    fn torus_distance_basics() {
        let zone = zone_at(2, 4, 4, &[4, 4]); // [4,8) x [4,8)
        assert_eq!(zone.torus_distance(&[5, 5]), 0);
        assert_eq!(zone.torus_distance(&[10, 5]), 3); // to x edge 7
        assert_eq!(zone.torus_distance(&[15, 15]), 5 + 5); // wraps to lo corner
    }

    /// The free-form box the compact zone replaced, with its formulas
    /// verbatim: the reference the packed geometry is held to.
    #[derive(Debug, Clone, PartialEq)]
    struct RefZone {
        lo: Vec<u64>,
        hi: Vec<u64>,
    }

    impl RefZone {
        fn contains(&self, p: &[u64]) -> bool {
            p.iter()
                .zip(&self.lo)
                .zip(&self.hi)
                .all(|((&x, &lo), &hi)| x >= lo && x < hi)
        }

        fn volume(&self) -> u128 {
            self.lo
                .iter()
                .zip(&self.hi)
                .map(|(&lo, &hi)| u128::from(hi - lo))
                .product()
        }

        fn split(&self) -> Option<(RefZone, RefZone)> {
            let k = (0..self.lo.len())
                .max_by_key(|&k| (self.hi[k] - self.lo[k], std::cmp::Reverse(k)))
                .unwrap();
            let len = self.hi[k] - self.lo[k];
            if len < 2 {
                return None;
            }
            let mid = self.lo[k] + len / 2;
            let (mut lower, mut upper) = (self.clone(), self.clone());
            lower.hi[k] = mid;
            upper.lo[k] = mid;
            Some((lower, upper))
        }

        fn abuts(&self, other: &RefZone, side: u64) -> bool {
            let mut touching_dim = false;
            for k in 0..self.lo.len() {
                if self.lo[k] < other.hi[k] && other.lo[k] < self.hi[k] {
                    continue;
                }
                let touches = self.hi[k] == other.lo[k]
                    || other.hi[k] == self.lo[k]
                    || (self.hi[k] == side && other.lo[k] == 0)
                    || (other.hi[k] == side && self.lo[k] == 0);
                if touches && !touching_dim {
                    touching_dim = true;
                } else {
                    return false;
                }
            }
            touching_dim
        }

        fn torus_distance(&self, p: &[u64], side: u64) -> u64 {
            (0..self.lo.len())
                .map(|k| {
                    if p[k] >= self.lo[k] && p[k] < self.hi[k] {
                        0
                    } else {
                        ring_dist(self.lo[k], p[k], side).min(ring_dist(self.hi[k] - 1, p[k], side))
                    }
                })
                .sum()
        }
    }

    /// Every zone of the partition at every depth `0..=d·bits`, for
    /// small tori: the compact zone and the reference box, split in
    /// lockstep, agree on corners, containment and distance of every
    /// point, volume, both halves, and adjacency with every other zone.
    #[test]
    fn compact_zone_matches_the_vec_formulas() {
        for (dims, bits) in [
            (1, 1),
            (1, 4),
            (2, 1),
            (2, 2),
            (2, 3),
            (3, 1),
            (3, 2),
            (3, 3),
        ] {
            let side = 1u64 << bits;
            let points: Vec<Point> = (0..side.pow(dims as u32))
                .map(|i| (0..dims).map(|k| i / side.pow(k as u32) % side).collect())
                .collect();
            let mut zones = vec![(
                Zone::full(dims, bits),
                RefZone {
                    lo: vec![0; dims],
                    hi: vec![side; dims],
                },
            )];
            let mut next = 0;
            while next < zones.len() {
                let (zone, reference) = zones[next].clone();
                next += 1;
                for k in 0..dims {
                    assert_eq!((zone.lo(k), zone.hi(k)), (reference.lo[k], reference.hi[k]));
                }
                assert_eq!(zone.volume(), reference.volume());
                for p in &points {
                    assert_eq!(zone.contains(p), reference.contains(p), "{zone:?} {p:?}");
                    assert_eq!(zone.torus_distance(p), reference.torus_distance(p, side));
                }
                match (zone.split(), reference.split()) {
                    (Some((a, b)), Some((ra, rb))) => {
                        zones.push((a, ra));
                        zones.push((b, rb));
                    }
                    (None, None) => assert_eq!(zone.depth(), dims as u32 * bits),
                    (z, r) => panic!("split disagrees: {z:?} vs {r:?}"),
                }
            }
            assert_eq!(zones.len(), (1 << (dims as u32 * bits + 1)) - 1);
            for (a, ra) in &zones {
                for (b, rb) in &zones {
                    assert_eq!(a.abuts(b), ra.abuts(rb, side), "{a:?} {b:?}");
                }
            }
        }
    }
}
