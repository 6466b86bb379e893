//! Per-node routing state: the routing table and the two leaf sets.
//!
//! Table 2 of the paper shows the seven-entry state of a node in an
//! eight-dimensional Cycloid:
//!
//! | entry | example for node (4, 10110110) |
//! |---|---|
//! | cubical neighbour | (3, 1010xxxx) |
//! | cyclic neighbour (larger) | (3, 1011011x)-class first larger |
//! | cyclic neighbour (smaller) | first smaller |
//! | inside leaf set | local-cycle predecessor and successor |
//! | outside leaf set | primaries of the preceding and succeeding cycles |
//!
//! The 11-entry variant (§3.2, §4) widens each leaf set to two predecessors
//! and two successors.

use dht_core::inline::InlineVec;

use crate::id::CycloidId;

/// Fixed-capacity slot for one side of a leaf set. The paper's leaf
/// radius is 1 (7-entry state) or 2 (11-entry state); the substrate
/// accepts radii up to 4, so four inline entries always suffice — the
/// whole routing state stays inside the membership slab with no
/// per-node heap allocations.
pub type LeafSlot = InlineVec<CycloidId, 4>;

/// Routing state of one Cycloid node: 180 bytes, every entry an 8-byte
/// [`CycloidId`]. The node's own identifier is not stored here — the
/// membership store keys the row by it — so the methods that exclude
/// the node itself take it as an argument.
///
/// All entries are *outgoing* pointers (§3.3.2: "a node only has outgoing
/// connections"); they may go stale when the pointed-to node departs, which
/// is exactly what the paper's timeout experiments measure.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeState {
    /// Cubical neighbour: a node matching `(k-1, a_{d-1}…a_{k+1} ā_k x…x)`,
    /// or `None` when `k == 0` or no such node is live.
    pub cubical_neighbor: Option<CycloidId>,
    /// First *larger* cyclic neighbour: smallest cubical index `>= a`
    /// among nodes with cyclic index `k-1` differing from `a` only below
    /// bit `k`.
    pub cyclic_larger: Option<CycloidId>,
    /// First *smaller* cyclic neighbour (mirror of `cyclic_larger`).
    pub cyclic_smaller: Option<CycloidId>,
    /// Inside leaf set, predecessor side: nearest live local-cycle
    /// predecessors, nearest first. Points at self when the node is alone
    /// on its cycle.
    pub inside_left: LeafSlot,
    /// Inside leaf set, successor side: nearest live local-cycle
    /// successors, nearest first.
    pub inside_right: LeafSlot,
    /// Outside leaf set, preceding side: primaries of the nearest preceding
    /// non-empty remote cycles, nearest first.
    pub outside_left: LeafSlot,
    /// Outside leaf set, succeeding side: primaries of the nearest
    /// succeeding non-empty remote cycles, nearest first.
    pub outside_right: LeafSlot,
}

impl NodeState {
    /// All distinct routing-table entries (the three neighbours), live or
    /// stale.
    pub fn routing_entries(&self) -> impl Iterator<Item = CycloidId> + '_ {
        self.cubical_neighbor
            .into_iter()
            .chain(self.cyclic_larger)
            .chain(self.cyclic_smaller)
    }

    /// All leaf-set entries, inside first.
    pub fn leaf_entries(&self) -> impl Iterator<Item = CycloidId> + '_ {
        self.inside_left
            .iter()
            .chain(&self.inside_right)
            .chain(&self.outside_left)
            .chain(&self.outside_right)
            .copied()
    }

    /// `self.degree(id) <= bound`, not counted when the state has no more
    /// filled slots than `bound` — as on every node of the right shape.
    #[must_use]
    pub fn degree_within(&self, id: CycloidId, bound: usize) -> bool {
        self.routing_entries().count() + self.leaf_entries().count() <= bound
            || self.degree(id) <= bound
    }

    /// Every contact the node `id` knows (routing table + both leaf sets),
    /// deduplicated, excluding itself.
    #[must_use]
    pub fn known_contacts(&self, id: CycloidId) -> Vec<CycloidId> {
        let mut v: Vec<CycloidId> = self.routing_entries().chain(self.leaf_entries()).collect();
        v.sort_unstable();
        v.dedup();
        v.retain(|&c| c != id);
        v
    }

    /// Number of distinct entries other than `id` itself that the node
    /// `id` holds — its degree. Bounded by 7 (leaf radius 1) or 11 (leaf
    /// radius 2).
    #[must_use]
    pub fn degree(&self, id: CycloidId) -> usize {
        // Three routing entries plus four full leaf slots.
        let mut distinct = InlineVec::<CycloidId, 19>::new();
        for c in self.routing_entries().chain(self.leaf_entries()) {
            if c != id && !distinct.contains(&c) {
                distinct.push(c);
            }
        }
        distinct.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(k: u32, a: u32) -> CycloidId {
        CycloidId::new(k, a)
    }

    #[test]
    fn a_row_is_its_entries_and_nothing_else() {
        use std::mem::size_of;
        assert_eq!(size_of::<CycloidId>(), 8);
        // Three 12-byte optional pointers and four 36-byte leaf slots.
        assert!(size_of::<NodeState>() <= 184, "{}", size_of::<NodeState>());
    }

    #[test]
    fn fresh_state_is_empty() {
        let s = NodeState::default();
        assert_eq!(s.degree(id(4, 0b1011_0110)), 0);
        assert_eq!(s.routing_entries().count(), 0);
        assert_eq!(s.leaf_entries().count(), 0);
    }

    #[test]
    fn known_contacts_dedup_and_exclude_self() {
        let me = id(2, 5);
        let other = id(1, 5);
        let s = NodeState {
            cubical_neighbor: Some(other),
            cyclic_larger: Some(other),
            cyclic_smaller: None,
            inside_left: vec![me].into(), // alone on cycle: points at self
            inside_right: vec![me].into(),
            outside_left: vec![id(0, 4)].into(),
            outside_right: vec![id(0, 6)].into(),
        };
        let contacts = s.known_contacts(me);
        assert!(!contacts.contains(&me), "self must be excluded");
        assert_eq!(contacts.len(), 3, "duplicates must collapse: {contacts:?}");
    }

    #[test]
    fn degree_is_the_known_contact_count_on_every_shape() {
        // Duplicates across slots, self-pointers, unset routing entries
        // and over-long sides: the stack count is the sorted-and-deduped
        // list's length, and `degree_within` is the plain comparison.
        let me = id(2, 5);
        let mut s = NodeState::default();
        let mut shapes = vec![s.clone()];
        s.cubical_neighbor = Some(id(1, 7));
        s.cyclic_larger = Some(id(1, 7));
        s.inside_left = vec![me, id(3, 5)].into();
        s.inside_right = vec![id(3, 5), me].into();
        shapes.push(s.clone());
        s.cyclic_smaller = Some(id(1, 4));
        s.outside_left = (0..4).map(|c| id(4, c)).collect();
        s.outside_right = (2..6).map(|c| id(4, c)).collect();
        shapes.push(s.clone());
        s.inside_left = (8..12).map(|c| id(0, c)).collect();
        s.inside_right = (12..16).map(|c| id(0, c)).collect();
        shapes.push(s);
        let degrees: Vec<usize> = shapes.iter().map(|s| s.degree(me)).collect();
        assert_eq!(degrees, vec![0, 2, 9, 16]);
        for s in &shapes {
            assert_eq!(s.degree(me), s.known_contacts(me).len());
            for bound in 0..=20 {
                assert_eq!(
                    s.degree_within(me, bound),
                    s.degree(me) <= bound,
                    "bound {bound}"
                );
            }
        }
    }

    #[test]
    fn seven_entry_bound() {
        // Radius-1 leaf sets + 3 routing entries can never exceed 7.
        let me = id(3, 9);
        let s = NodeState {
            cubical_neighbor: Some(id(2, 1)),
            cyclic_larger: Some(id(2, 9)),
            cyclic_smaller: Some(id(2, 8)),
            inside_left: vec![id(1, 9)].into(),
            inside_right: vec![id(4, 9)].into(),
            outside_left: vec![id(7, 8)].into(),
            outside_right: vec![id(7, 10)].into(),
        };
        assert!(s.degree(me) <= 7);
        assert_eq!(s.degree(me), 7);
    }
}
