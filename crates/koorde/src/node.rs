//! Per-node Koorde state.

use dht_core::inline::InlineVec;

/// Fixed-capacity ring list (successor list / de Bruijn backups). The
/// paper's seven-entry setup uses three of each; four inline slots keep
/// both lists inside the membership slab.
pub type RingList = InlineVec<u64, 4>;

/// Routing state of one Koorde node (the paper's seven-entry setup:
/// "one de Bruijn node, three successors and three immediate predecessors
/// of the de Bruijn node", §4).
#[derive(Debug, Clone, PartialEq)]
pub struct KoordeNode {
    /// This node's ring identifier.
    pub id: u64,
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
    /// Fresh state; pointers initially self-referential.
    #[must_use]
    pub fn new(id: u64, succ_list_len: usize, backup_len: usize) -> Self {
        Self {
            id,
            predecessor: id,
            successors: RingList::repeat(id, succ_list_len),
            debruijn: id,
            debruijn_preds: RingList::repeat(id, backup_len),
        }
    }

    /// The primary successor.
    #[must_use]
    pub fn successor(&self) -> u64 {
        self.successors[0]
    }

    /// Distinct non-self contacts (actual degree, bounded by 7 in the
    /// paper's configuration).
    #[must_use]
    pub fn degree(&self) -> usize {
        let mut all: Vec<u64> = self
            .successors
            .iter()
            .chain(self.debruijn_preds.iter())
            .copied()
            .chain([self.debruijn])
            .collect();
        all.sort_unstable();
        all.dedup();
        all.retain(|&x| x != self.id);
        all.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lone_node_state() {
        let n = KoordeNode::new(9, 3, 3);
        assert_eq!(n.successor(), 9);
        assert_eq!(n.degree(), 0);
    }

    #[test]
    fn degree_is_bounded_by_seven() {
        let mut n = KoordeNode::new(0, 3, 3);
        n.successors = vec![1, 2, 3].into();
        n.debruijn = 10;
        n.debruijn_preds = vec![9, 8, 7].into();
        assert_eq!(n.degree(), 7);
    }
}
