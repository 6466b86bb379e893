//! Per-node Chord state.

use dht_core::inline::InlineVec;

/// Fixed-capacity successor list. The harness runs Chord with the
/// Koorde-parity list length of 3; four inline slots keep the list
/// inside the membership slab (the O(log n) finger table stays heap
/// allocated).
pub type SuccessorList = InlineVec<u64, 4>;

/// Routing state of one Chord node: its links, not its own identifier,
/// which is the token the membership store keys the row by.
///
/// All pointers are node identifiers on the `2^bits` ring; they may be
/// stale (pointing at departed nodes) until stabilization refreshes them.
/// The `Default` row is empty and holds no heap buffer.
#[derive(Debug, PartialEq, Default)]
pub struct ChordNode {
    /// Immediate predecessor on the ring.
    pub predecessor: u64,
    /// Successor list: the `r` nodes immediately following this node,
    /// nearest first. `successors[0]` is *the* successor.
    pub successors: SuccessorList,
    /// Finger table: `fingers[i]` is `successor(id + 2^i)`.
    pub fingers: Vec<u64>,
}

/// Written out so that `clone_from` refills the finger buffer it has.
impl Clone for ChordNode {
    fn clone(&self) -> Self {
        let fingers = self.fingers.clone();
        Self { fingers, ..*self }
    }

    fn clone_from(&mut self, source: &Self) {
        let mut fingers = std::mem::take(&mut self.fingers);
        fingers.clone_from(&source.fingers);
        *self = Self { fingers, ..*source };
    }
}

impl ChordNode {
    /// The primary successor.
    #[must_use]
    pub fn successor(&self) -> u64 {
        self.successors[0]
    }

    /// Distinct entries other than node `id` itself currently held (the
    /// node's actual degree), counted on the stack: at most 63 fingers,
    /// four successors and the predecessor.
    #[must_use]
    pub fn degree(&self, id: u64) -> usize {
        let mut distinct = InlineVec::<u64, 68>::new();
        let contacts = self.successors.iter().chain(&self.fingers);
        for &c in contacts.chain([&self.predecessor]) {
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

    /// A node that knows only itself: its own successor and predecessor.
    fn lone(id: u64, bits: u32, succ_list_len: usize) -> ChordNode {
        ChordNode {
            predecessor: id,
            successors: SuccessorList::repeat(id, succ_list_len),
            fingers: vec![id; bits as usize],
        }
    }

    #[test]
    fn lone_node_points_at_itself() {
        let n = lone(5, 8, 3);
        assert_eq!(n.successor(), 5);
        assert_eq!(n.predecessor, 5);
        assert_eq!(n.degree(5), 0);
        assert_eq!(n.fingers.len(), 8);
        assert_eq!(n.successors.len(), 3);
    }

    #[test]
    fn degree_counts_distinct_contacts() {
        let mut n = lone(0, 4, 2);
        n.successors = vec![3, 7].into();
        n.fingers = vec![3, 3, 7, 9];
        n.predecessor = 12;
        assert_eq!(n.degree(0), 4); // {3, 7, 9, 12}
    }

    #[test]
    fn degree_fits_the_widest_ring() {
        // 63 bits: every finger, successor and the predecessor distinct.
        let mut n = lone(0, 63, 4);
        n.fingers = (1..=63).collect();
        n.successors = vec![100, 101, 102, 103].into();
        n.predecessor = 200;
        assert_eq!(n.degree(0), 68);
        // ... and collapsing onto the node itself and one contact.
        n.fingers = vec![0; 63];
        n.successors = vec![7; 4].into();
        n.predecessor = 7;
        assert_eq!(n.degree(0), 1);
    }
}
