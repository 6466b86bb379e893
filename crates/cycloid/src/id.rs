//! Cycloid identifiers and the distance metric that defines key ownership.
//!
//! A node or key identifier is a pair `(k, a_{d-1}…a_0)` of a **cyclic
//! index** `k ∈ [0, d)` and a **cubical index** `a ∈ [0, 2^d)` (§3.1).
//! Identifiers linearize to `a*d + k ∈ [0, d*2^d)`; consistent hashing maps
//! a 64-bit hash `h` onto the space so that `cyclic = h mod d` and
//! `cubical = h div d`, exactly as the paper specifies.

use dht_core::hash::{reduce, splitmix64};
use dht_core::ring::{clockwise_dist, ring_dist};

/// The dimension `d` of a Cycloid system, with the derived space sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dim(u32);

impl Dim {
    /// Creates a dimension. The paper simulates `d ∈ [3, 8]`; anything in
    /// `[1, 32]` is accepted. The cap of 32 is what lets a [`CycloidId`]
    /// store its cubical index `a < 2^d` as a `u32`, and so fit in 8 bytes.
    ///
    /// # Panics
    /// Panics if `d == 0` or `d > 32`.
    #[must_use]
    pub fn new(d: u32) -> Self {
        assert!(
            (1..=32).contains(&d),
            "Cycloid dimension must be in [1, 32], got {d}"
        );
        Self(d)
    }

    /// The raw dimension value.
    #[must_use]
    pub fn get(self) -> u32 {
        self.0
    }

    /// Number of cubical indices, `2^d` (the size of the large cycle).
    #[must_use]
    pub fn cubical_space(self) -> u64 {
        1u64 << self.0
    }

    /// Total identifier space, `d * 2^d`.
    #[must_use]
    pub fn id_space(self) -> u64 {
        u64::from(self.0) << self.0
    }
}

/// A Cycloid identifier: `(cyclic, cubical)`, 8 bytes.
///
/// Both indices fit a `u32` because [`Dim::new`] caps `d` at 32. The
/// derived order is cyclic index first, then cubical index.
///
/// `Default` is `(0, 0)` — only used as the padding value inside the
/// fixed-capacity stack lists of a lookup step, never observed as a live
/// identifier. An empty slot of a stored row is a different value: see
/// [`crate::state`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct CycloidId {
    /// Cyclic index `k ∈ [0, d)` — position on the local cycle.
    pub cyclic: u32,
    /// Cubical index `a ∈ [0, 2^d)` — which local cycle.
    pub cubical: u32,
}

impl CycloidId {
    /// Convenience constructor.
    #[must_use]
    pub fn new(cyclic: u32, cubical: u32) -> Self {
        Self { cyclic, cubical }
    }

    /// Splits a linear identifier `a*d + k` back into `(k, a)`.
    #[must_use]
    pub fn from_linear(linear: u64, dim: Dim) -> Self {
        debug_assert!(linear < dim.id_space());
        Self {
            cyclic: (linear % u64::from(dim.get())) as u32,
            cubical: (linear / u64::from(dim.get())) as u32,
        }
    }

    /// Linearizes to `cubical * d + cyclic`. This is the order in which the
    /// identifier space wraps: all of cycle `a` precedes all of cycle
    /// `a + 1`.
    #[must_use]
    pub fn linear(self, dim: Dim) -> u64 {
        debug_assert!(self.cyclic < dim.get() && u64::from(self.cubical) < dim.cubical_space());
        u64::from(self.cubical) * u64::from(dim.get()) + u64::from(self.cyclic)
    }

    /// Maps a raw 64-bit hash onto the identifier space: the hash is
    /// reduced to `[0, d*2^d)`, then `cyclic = h mod d`,
    /// `cubical = h div d` (§3.1).
    #[must_use]
    pub fn from_hash(raw: u64, dim: Dim) -> Self {
        let h = reduce(splitmix64(raw), dim.id_space());
        Self::from_linear(h, dim)
    }
}

impl std::fmt::Display for CycloidId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({},{:b})", self.cyclic, self.cubical)
    }
}

/// Most significant differing bit between two cubical indices, or `None` if
/// they are equal. `msdb = i` means bit `i` is the highest bit where the
/// two indices differ.
#[inline]
#[must_use]
pub fn msdb(a: u32, b: u32) -> Option<u32> {
    let x = a ^ b;
    if x == 0 {
        None
    } else {
        Some(31 - x.leading_zeros())
    }
}

/// Length of the common most-significant-bit prefix of two cubical indices
/// within a `d`-bit space: `d` when equal, `d - 1 - msdb` otherwise.
#[inline]
#[must_use]
pub fn prefix_len(a: u32, b: u32, dim: Dim) -> u32 {
    match msdb(a, b) {
        None => dim.get(),
        Some(m) => dim.get() - 1 - m,
    }
}

/// Distance from a node to a key under Cycloid's key-assignment rule
/// (§3.1): the key belongs to the node whose ID is *first* numerically
/// closest in cubical index and *then* numerically closest in cyclic index,
/// with exact ties resolved toward the key's successor.
///
/// Both components are ring distances doubled, plus one if the node sits on
/// the counter-clockwise (predecessor) side — this folds the paper's
/// "the key's successor will be responsible" tie-break directly into the
/// metric, making the minimum unique and the metric strictly unimodal
/// around each ring (which is what guarantees greedy leaf-set routing
/// terminates at the true owner).
///
/// `Default` is the zero distance (node == key), which also pads the
/// fixed-capacity candidate lists `plan_step` sorts on the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct KeyDistance {
    cubical_v: u64,
    cyclic_v: u64,
}

impl KeyDistance {
    /// Distance from `node` to `key` in dimension `dim`.
    #[must_use]
    pub fn between(key: CycloidId, node: CycloidId, dim: Dim) -> Self {
        let m = dim.cubical_space();
        let d = u64::from(dim.get());
        let (key_cub, node_cub) = (u64::from(key.cubical), u64::from(node.cubical));
        let cub = ring_dist(key_cub, node_cub, m);
        // "Counter-clockwise of the key" == the clockwise walk from key to
        // node is the long way around.
        let cub_ccw = u64::from(cub != 0 && clockwise_dist(key_cub, node_cub, m) != cub);
        let cyc = ring_dist(u64::from(key.cyclic), u64::from(node.cyclic), d);
        let cyc_ccw = u64::from(
            cyc != 0 && clockwise_dist(u64::from(key.cyclic), u64::from(node.cyclic), d) != cyc,
        );
        Self {
            cubical_v: 2 * cub + cub_ccw,
            cyclic_v: 2 * cyc + cyc_ccw,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn dim_space_sizes() {
        let d = Dim::new(8);
        assert_eq!(d.cubical_space(), 256);
        assert_eq!(d.id_space(), 2048);
    }

    #[test]
    fn linear_roundtrip() {
        let dim = Dim::new(5);
        for lin in 0..dim.id_space() {
            let id = CycloidId::from_linear(lin, dim);
            assert!(id.cyclic < 5);
            assert!(id.cubical < 32);
            assert_eq!(id.linear(dim), lin);
        }
    }

    #[test]
    fn from_hash_is_mod_div_split() {
        let dim = Dim::new(8);
        // Whatever the reduced value h is, the split must satisfy the
        // paper's rule: cyclic = h mod d, cubical = h div d.
        for raw in [0u64, 1, 99, u64::MAX] {
            let id = CycloidId::from_hash(raw, dim);
            let h = id.linear(dim);
            assert_eq!(u64::from(id.cyclic), h % 8);
            assert_eq!(u64::from(id.cubical), h / 8);
        }
    }

    /// The dimensions where a `u32` cubical index is tightest: one bit,
    /// and the top of the range `Dim::new` accepts.
    const EDGE_DIMS: [u32; 3] = [1, 31, 32];

    #[test]
    fn linear_roundtrip_at_the_ends_of_the_widest_spaces() {
        for d in EDGE_DIMS {
            let dim = Dim::new(d);
            let last = dim.id_space() - 1;
            assert_eq!(CycloidId::from_linear(0, dim), CycloidId::new(0, 0));
            let top = CycloidId::from_linear(last, dim);
            assert_eq!(
                (top.cyclic, u64::from(top.cubical)),
                (d - 1, dim.cubical_space() - 1)
            );
            assert_eq!(top.linear(dim), last, "d = {d}");
        }
    }

    #[test]
    fn from_hash_splits_mod_div_in_the_widest_spaces() {
        let mut rng = dht_core::rng::stream(28, "id-edges");
        for d in EDGE_DIMS {
            let dim = Dim::new(d);
            for raw in [0, 1, u64::MAX]
                .into_iter()
                .chain((0..64).map(|_| rng.next_u64()))
            {
                let id = CycloidId::from_hash(raw, dim);
                let h = reduce(splitmix64(raw), dim.id_space());
                assert_eq!(u64::from(id.cyclic), h % u64::from(d), "d = {d}");
                assert_eq!(u64::from(id.cubical), h / u64::from(d), "d = {d}");
            }
        }
    }

    #[test]
    fn order_is_cyclic_then_cubical_as_wide_pairs() {
        let mut rng = dht_core::rng::stream(28, "id-order");
        let wide = |ids: &[CycloidId]| -> Vec<(u32, u64)> {
            ids.iter()
                .map(|id| (id.cyclic, u64::from(id.cubical)))
                .collect()
        };
        for d in EDGE_DIMS {
            let dim = Dim::new(d);
            let mut ids: Vec<CycloidId> = (0..256)
                .map(|_| CycloidId::from_linear(rng.next_u64() % dim.id_space(), dim))
                .chain([CycloidId::from_linear(dim.id_space() - 1, dim)])
                .collect();
            let mut pairs = wide(&ids);
            ids.sort_unstable();
            pairs.sort_unstable();
            assert_eq!(wide(&ids), pairs, "d = {d}");
        }
    }

    #[test]
    fn key_distance_at_the_top_cubical_index_is_the_wide_formula() {
        // Both ring distances written out in u64: the shorter way round,
        // doubled, plus one when the node lies counter-clockwise.
        let wide = |key: CycloidId, node: CycloidId, dim: Dim| {
            let component = |k: u64, n: u64, m: u64| {
                let (cw, ccw) = ((n + m - k) % m, (k + m - n) % m);
                2 * cw.min(ccw) + u64::from(ccw < cw)
            };
            let m = dim.cubical_space();
            let cub = component(u64::from(key.cubical), u64::from(node.cubical), m);
            let d = u64::from(dim.get());
            let cyc = component(u64::from(key.cyclic), u64::from(node.cyclic), d);
            (cub, cyc)
        };
        for d in EDGE_DIMS {
            let dim = Dim::new(d);
            // At d = 32 the top cubical index is 2^32 - 1, u32::MAX.
            let high = u32::try_from(dim.cubical_space() - 1).unwrap();
            let cubicals = [0, 1, high / 2, high / 2 + 1, high - 1, high];
            for &a in &cubicals {
                for &b in &cubicals {
                    for (k, l) in [(0, 0), (0, d - 1), (d - 1, 0)] {
                        let (key, node) = (CycloidId::new(k, a), CycloidId::new(l, b));
                        let got = KeyDistance::between(key, node, dim);
                        let got = (got.cubical_v, got.cyclic_v);
                        assert_eq!(got, wide(key, node, dim), "{key} {node}, d = {d}");
                    }
                }
            }
        }
    }

    #[test]
    fn msdb_examples() {
        assert_eq!(msdb(0b1011, 0b1011), None);
        assert_eq!(msdb(0b1011, 0b1010), Some(0));
        assert_eq!(msdb(0b1011, 0b0011), Some(3));
        // Paper's Fig. 4 example: (0,0100) routing to (2,1111) has MSDB 3.
        assert_eq!(msdb(0b0100, 0b1111), Some(3));
    }

    #[test]
    fn prefix_len_complements_msdb() {
        let dim = Dim::new(8);
        assert_eq!(prefix_len(0b1011_0110, 0b1011_0110, dim), 8);
        assert_eq!(prefix_len(0b1011_0110, 0b1010_0110, dim), 3);
        assert_eq!(prefix_len(0b1011_0110, 0b0011_0110, dim), 0);
    }

    #[test]
    fn key_distance_prefers_cubical_then_cyclic() {
        // Paper §3.1: "(1,1101) is closer to (2,1101) than (2,1001)".
        let dim = Dim::new(4);
        let key = CycloidId::new(1, 0b1101);
        let close = KeyDistance::between(key, CycloidId::new(2, 0b1101), dim);
        let far = KeyDistance::between(key, CycloidId::new(2, 0b1001), dim);
        assert!(close < far);
    }

    #[test]
    fn key_distance_successor_tiebreak() {
        // Two nodes equidistant in cubical index: the clockwise (successor
        // side) one wins.
        let dim = Dim::new(4);
        let key = CycloidId::new(0, 8);
        let succ_side = KeyDistance::between(key, CycloidId::new(0, 9), dim);
        let pred_side = KeyDistance::between(key, CycloidId::new(0, 7), dim);
        assert!(succ_side < pred_side);
    }

    #[test]
    fn key_distance_zero_iff_same_id() {
        let dim = Dim::new(6);
        let key = CycloidId::new(3, 17);
        assert_eq!(KeyDistance::between(key, key, dim), KeyDistance::default());
        assert!(KeyDistance::between(key, CycloidId::new(4, 17), dim) > KeyDistance::default());
    }

    #[test]
    fn key_distance_unique_minimum() {
        // No two distinct nodes are equidistant from any key: the metric
        // must produce a unique owner.
        let dim = Dim::new(3);
        for key_lin in 0..dim.id_space() {
            let key = CycloidId::from_linear(key_lin, dim);
            let mut seen = std::collections::HashSet::new();
            for node_lin in 0..dim.id_space() {
                let node = CycloidId::from_linear(node_lin, dim);
                let d = KeyDistance::between(key, node, dim);
                assert!(
                    seen.insert(d),
                    "distance collision for key {key} at node {node}"
                );
            }
        }
    }

    #[test]
    fn cubical_metric_unimodal_around_ring() {
        // Walking the cubical ring away from the key in either direction
        // must strictly increase the cubical component.
        let dim = Dim::new(5);
        let key = CycloidId::new(0, 13);
        let m = dim.cubical_space();
        let v =
            |c: u64| KeyDistance::between(key, CycloidId::new(0, (c % m) as u32), dim).cubical_v;
        for step in 0..(m / 2 - 1) {
            assert!(v(13 + step) < v(13 + step + 1), "clockwise walk");
            assert!(
                v(13 + m - step) < v(13 + m - step - 1),
                "counter-clockwise walk"
            );
        }
    }

    #[test]
    fn display_formats_binary() {
        assert_eq!(CycloidId::new(4, 0b1011_0110).to_string(), "(4,10110110)");
    }
}
