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
//!
//! A row is its entries and nothing else. Every slot is one 8-byte
//! [`CycloidId`], and an empty slot holds a sentinel that no identifier
//! can equal, so the seven-entry row is 56 bytes and the eleven-entry
//! row 88: the leaf radius is the row's type parameter `R`.

use std::fmt;
use std::ops::Deref;

use dht_core::inline::InlineVec;

use crate::id::CycloidId;

/// The empty slot. No identifier has this cyclic index: [`crate::Dim`]
/// caps `d` at 32, and every identifier has `cyclic < d`.
const EMPTY: CycloidId = CycloidId {
    cyclic: u32::MAX,
    cubical: 0,
};

/// One routing-table entry: a node or nothing, in 8 bytes where an
/// `Option<CycloidId>` takes 12. [`Link::get`] reads it as that `Option`;
/// it compares, iterates and prints as one too.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Link(CycloidId);

impl Link {
    /// The entry as an `Option`.
    #[inline]
    #[must_use]
    pub fn get(self) -> Option<CycloidId> {
        (self.0 != EMPTY).then_some(self.0)
    }

    /// `true` when the entry is unset.
    #[must_use]
    pub fn is_none(self) -> bool {
        self.0 == EMPTY
    }

    /// The node, as [`Option::expect`]: panics with `msg` when unset.
    #[track_caller]
    #[must_use]
    pub fn expect(self, msg: &str) -> CycloidId {
        self.get().expect(msg)
    }
}

impl Default for Link {
    fn default() -> Self {
        Self(EMPTY)
    }
}

impl From<Option<CycloidId>> for Link {
    #[inline]
    fn from(id: Option<CycloidId>) -> Self {
        debug_assert_ne!(id, Some(EMPTY), "the sentinel is not a node");
        Self(id.unwrap_or(EMPTY))
    }
}

impl PartialEq<Option<CycloidId>> for Link {
    fn eq(&self, other: &Option<CycloidId>) -> bool {
        self.get() == *other
    }
}

impl IntoIterator for Link {
    type Item = CycloidId;
    type IntoIter = std::option::IntoIter<CycloidId>;
    fn into_iter(self) -> Self::IntoIter {
        self.get().into_iter()
    }
}

impl fmt::Debug for Link {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.get().fmt(f)
    }
}

/// One side of a leaf set: up to `R` entries, nearest first, then empty
/// slots to the end. It derefs to the entries, so it reads as a slice.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct LeafSide<const R: usize>([CycloidId; R]);

impl<const R: usize> LeafSide<R> {
    /// An empty side.
    #[must_use]
    pub fn new() -> Self {
        Self([EMPTY; R])
    }

    /// Appends an entry. Panics if the side already holds `R`.
    pub fn push(&mut self, id: CycloidId) {
        let len = self.len();
        assert!(len < R, "leaf side overflow: radius {R}");
        self.0[len] = id;
    }

    /// Replaces each entry by `f(original index, entry)`, dropping those
    /// mapped to `None` and closing the gaps in order.
    pub fn filter_map_in_place(
        &mut self,
        mut f: impl FnMut(usize, CycloidId) -> Option<CycloidId>,
    ) {
        let mut kept = 0;
        for i in 0..self.len() {
            if let Some(id) = f(i, self.0[i]) {
                self.0[kept] = id;
                kept += 1;
            }
        }
        self.0[kept..].fill(EMPTY);
    }
}

impl<const R: usize> Default for LeafSide<R> {
    fn default() -> Self {
        Self::new()
    }
}

impl<const R: usize> Deref for LeafSide<R> {
    type Target = [CycloidId];
    #[inline]
    fn deref(&self) -> &[CycloidId] {
        let len = self.0.iter().position(|&c| c == EMPTY).unwrap_or(R);
        &self.0[..len]
    }
}

impl<const R: usize> FromIterator<CycloidId> for LeafSide<R> {
    fn from_iter<I: IntoIterator<Item = CycloidId>>(iter: I) -> Self {
        let mut side = Self::new();
        iter.into_iter().for_each(|id| side.push(id));
        side
    }
}

impl<'a, const R: usize> IntoIterator for &'a LeafSide<R> {
    type Item = &'a CycloidId;
    type IntoIter = std::slice::Iter<'a, CycloidId>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<const R: usize> PartialEq<Vec<CycloidId>> for LeafSide<R> {
    fn eq(&self, other: &Vec<CycloidId>) -> bool {
        **self == other[..]
    }
}

impl<const R: usize> fmt::Debug for LeafSide<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Routing state of one Cycloid node with leaf radius `R`: `3 + 4R`
/// slots of 8 bytes. The node's own identifier is not stored here — the
/// membership store keys the row by it — so the methods that exclude
/// the node itself take it as an argument.
///
/// All entries are *outgoing* pointers (§3.3.2: "a node only has outgoing
/// connections"); they may go stale when the pointed-to node departs, which
/// is exactly what the paper's timeout experiments measure.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NodeState<const R: usize> {
    /// Cubical neighbour: a node matching `(k-1, a_{d-1}…a_{k+1} ā_k x…x)`,
    /// unset when `k == 0` or no such node is live.
    pub cubical_neighbor: Link,
    /// First *larger* cyclic neighbour: smallest cubical index `>= a`
    /// among nodes with cyclic index `k-1` differing from `a` only below
    /// bit `k`.
    pub cyclic_larger: Link,
    /// First *smaller* cyclic neighbour (mirror of `cyclic_larger`).
    pub cyclic_smaller: Link,
    /// Inside leaf set, predecessor side: nearest live local-cycle
    /// predecessors, nearest first. Points at self when the node is alone
    /// on its cycle.
    pub inside_left: LeafSide<R>,
    /// Inside leaf set, successor side: nearest live local-cycle
    /// successors, nearest first.
    pub inside_right: LeafSide<R>,
    /// Outside leaf set, preceding side: primaries of the nearest preceding
    /// non-empty remote cycles, nearest first.
    pub outside_left: LeafSide<R>,
    /// Outside leaf set, succeeding side: primaries of the nearest
    /// succeeding non-empty remote cycles, nearest first.
    pub outside_right: LeafSide<R>,
}

impl<const R: usize> NodeState<R> {
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
    /// `id` holds — its degree. Bounded by the row's `3 + 4R` slots:
    /// 7 at leaf radius 1, 11 at radius 2.
    #[must_use]
    pub fn degree(&self, id: CycloidId) -> usize {
        // Three routing entries plus four sides of at most four.
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

    fn side<const R: usize>(ids: &[CycloidId]) -> LeafSide<R> {
        ids.iter().copied().collect()
    }

    #[test]
    fn a_row_is_its_entries_and_nothing_else() {
        use std::mem::size_of;
        assert_eq!(size_of::<CycloidId>(), 8);
        assert_eq!(size_of::<Link>(), 8);
        // Seven and eleven 8-byte slots.
        assert_eq!(size_of::<NodeState<1>>(), 56);
        assert_eq!(size_of::<NodeState<2>>(), 88);
    }

    /// The baselines' rows hold no copy of the token the store keys them
    /// by either.
    #[test]
    fn a_baseline_row_holds_no_copy_of_its_key() {
        use std::mem::size_of;
        // Predecessor, four inline successors and the finger `Vec`.
        assert_eq!(size_of::<chord::ChordNode>(), 72);
        // Predecessor, de Bruijn pointer and two four-slot ring lists.
        assert_eq!(size_of::<koorde::KoordeNode>(), 96);
        // The table `Vec` and two eight-slot leaf halves.
        assert_eq!(size_of::<pastry::PastryNode>(), 168);
        // The butterfly level alone.
        assert_eq!(size_of::<viceroy::ViceroyNode>(), 4);
        // Two boxed slices: zones and neighbour table.
        assert_eq!(size_of::<can::CanNode>(), 32);
    }

    #[test]
    fn fresh_state_is_empty() {
        let s = NodeState::<1>::default();
        assert_eq!(s.degree(id(4, 0b1011_0110)), 0);
        assert_eq!(s.routing_entries().count(), 0);
        assert_eq!(s.leaf_entries().count(), 0);
        assert_eq!(s.cubical_neighbor, None);
        assert_eq!(format!("{:?}", s.inside_left), "[]");
    }

    #[test]
    fn a_link_reads_as_an_option() {
        for held in [None, Some(id(0, 0)), Some(id(31, u32::MAX))] {
            let link = Link::from(held);
            assert_eq!(link.get(), held);
            assert_eq!(link, held);
            assert_eq!(link.is_none(), held.is_none());
            assert!(link.into_iter().eq(held));
            assert_eq!(format!("{link:?}"), format!("{held:?}"));
        }
    }

    #[test]
    fn a_side_that_shrinks_ends_at_its_last_entry() {
        // Dropping an entry closes the gap in order, and what was the
        // last entry's slot reads empty, not as a second copy.
        let mut s: LeafSide<3> = side(&[id(1, 1), id(2, 2), id(3, 3)]);
        s.filter_map_in_place(|i, c| (i != 0).then_some(c));
        assert_eq!(s, vec![id(2, 2), id(3, 3)]);
        s.filter_map_in_place(|_, c| (c.cyclic == 3).then_some(c));
        assert_eq!(s, vec![id(3, 3)]);
        assert_eq!(s, side(&[id(3, 3)]));
        s.push(id(4, 4));
        assert_eq!(s, vec![id(3, 3), id(4, 4)]);
    }

    #[test]
    fn known_contacts_dedup_and_exclude_self() {
        let me = id(2, 5);
        let other = id(1, 5);
        let s = NodeState::<1> {
            cubical_neighbor: Some(other).into(),
            cyclic_larger: Some(other).into(),
            cyclic_smaller: None.into(),
            inside_left: side(&[me]), // alone on cycle: points at self
            inside_right: side(&[me]),
            outside_left: side(&[id(0, 4)]),
            outside_right: side(&[id(0, 6)]),
        };
        let contacts = s.known_contacts(me);
        assert!(!contacts.contains(&me), "self must be excluded");
        assert_eq!(contacts.len(), 3, "duplicates must collapse: {contacts:?}");
    }

    #[test]
    fn degree_is_the_known_contact_count_on_every_shape() {
        // Duplicates across slots, self-pointers, unset routing entries
        // and full radius-4 sides: the stack count is the sorted-and-deduped
        // list's length.
        let me = id(2, 5);
        let mut s = NodeState::<4>::default();
        let mut shapes = vec![s.clone()];
        s.cubical_neighbor = Some(id(1, 7)).into();
        s.cyclic_larger = Some(id(1, 7)).into();
        s.inside_left = side(&[me, id(3, 5)]);
        s.inside_right = side(&[id(3, 5), me]);
        shapes.push(s.clone());
        s.cyclic_smaller = Some(id(1, 4)).into();
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
        }
    }

    #[test]
    fn seven_entry_bound() {
        // Radius-1 leaf sets + 3 routing entries can never exceed 7.
        let me = id(3, 9);
        let s = NodeState::<1> {
            cubical_neighbor: Some(id(2, 1)).into(),
            cyclic_larger: Some(id(2, 9)).into(),
            cyclic_smaller: Some(id(2, 8)).into(),
            inside_left: side(&[id(1, 9)]),
            inside_right: side(&[id(4, 9)]),
            outside_left: side(&[id(7, 8)]),
            outside_right: side(&[id(7, 10)]),
        };
        assert_eq!(s.degree(me), 7);
    }
}
