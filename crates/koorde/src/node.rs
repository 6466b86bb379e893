//! Per-node Koorde state.

use dht_core::inline::InlineVec;

/// Fixed-capacity ring list (successor list / de Bruijn backups). The
/// paper's seven-entry setup uses three of each; four inline slots keep
/// both lists inside the membership slab.
pub type RingList = InlineVec<u64, 4>;

/// Routing state of one Koorde node (the paper's seven-entry setup:
/// "one de Bruijn node, three successors and three immediate predecessors
/// of the de Bruijn node", §4). The row holds links only: the node's
/// own identifier is the token the membership store keys it by.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KoordeNode {
    /// Immediate predecessor on the ring.
    pub predecessor: u64,
    /// Successor list, nearest first.
    pub successors: RingList,
    /// First de Bruijn node: the node immediately preceding ring point
    /// `2 * id`.
    pub debruijn: u64,
    /// Immediate predecessors of the de Bruijn node, nearest first — the
    /// backups taken when `debruijn` has departed.
    pub debruijn_preds: RingList,
}

impl KoordeNode {
    /// The primary successor.
    #[must_use]
    pub fn successor(&self) -> u64 {
        self.successors[0]
    }

    /// `self.degree(id) <= bound`, not counted when the state has no
    /// more slots than `bound` — as on every node of the right shape.
    #[must_use]
    pub fn degree_within(&self, id: u64, bound: usize) -> bool {
        self.successors.len() + self.debruijn_preds.len() < bound || self.degree(id) <= bound
    }

    /// Distinct contacts other than node `id` itself (actual degree,
    /// bounded by 7 in the paper's configuration).
    #[must_use]
    pub fn degree(&self, id: u64) -> usize {
        let mut distinct = InlineVec::<u64, 9>::new();
        let contacts = self.successors.iter().chain(&self.debruijn_preds);
        for &c in contacts.chain([&self.debruijn]) {
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

    /// A node that knows only itself: every pointer is its own id.
    fn lone(id: u64, succ_list_len: usize, backup_len: usize) -> KoordeNode {
        KoordeNode {
            predecessor: id,
            successors: RingList::repeat(id, succ_list_len),
            debruijn: id,
            debruijn_preds: RingList::repeat(id, backup_len),
        }
    }

    #[test]
    fn lone_node_state() {
        let n = lone(9, 3, 3);
        assert_eq!(n.successor(), 9);
        assert_eq!(n.degree(9), 0);
    }

    #[test]
    fn degree_counts_distinct_non_self_contacts() {
        let mut n = lone(5, 3, 3);
        let mut shapes = vec![(n.clone(), 0)];
        n.successors = vec![6, 5, 6].into();
        n.debruijn = 10;
        n.debruijn_preds = vec![9, 6, 10].into();
        shapes.push((n.clone(), 3)); // {6, 9, 10}
        n.successors = vec![6, 7, 8, 11].into();
        shapes.push((n, 6)); // {6, 7, 8, 9, 10, 11}
        for (n, degree) in shapes {
            assert_eq!(n.degree(5), degree);
            for bound in 0..=10 {
                assert_eq!(n.degree_within(5, bound), degree <= bound, "bound {bound}");
            }
        }
    }

    #[test]
    fn degree_is_bounded_by_seven() {
        let mut n = lone(0, 3, 3);
        n.successors = vec![1, 2, 3].into();
        n.debruijn = 10;
        n.debruijn_preds = vec![9, 8, 7].into();
        assert_eq!(n.degree(0), 7);
    }
}
