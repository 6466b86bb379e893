//! Per-lookup traces: the raw material every figure in the paper is
//! computed from.
//!
//! A lookup walks node-to-node through an overlay. The overlay records one
//! [`HopPhase`] per forwarding step, a timeout count (each attempt to
//! contact a departed node, §4.3: "the number of timeouts experienced by a
//! lookup is equal to the number of departed nodes encountered"), the
//! message-level bill under the active fault plan (see [`crate::net`]),
//! and the final [`LookupOutcome`].

use crate::net::NetCosts;

/// The routing phase a single hop was taken in.
///
/// Cycloid and Viceroy both route in three phases (§3.2, §2.4); the paper's
/// Fig. 7 breaks lookup cost down by phase. Koorde hops are either de Bruijn
/// hops or successor hops (Fig. 7(c), Fig. 14). Chord hops are finger or
/// successor hops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HopPhase {
    /// Cycloid/Viceroy phase 1: raising the cyclic index / climbing levels.
    Ascending,
    /// Cycloid/Viceroy phase 2: correcting cubical bits / descending levels.
    Descending,
    /// Cycloid phase 3 / Viceroy phase 3: closing in along cycle or ring
    /// links.
    TraverseCycle,
    /// Koorde: a hop through the node's de Bruijn pointer.
    DeBruijn,
    /// Koorde/Chord: a hop to a successor (or successor-list backup).
    Successor,
    /// Chord: a hop through a finger-table entry.
    Finger,
}

impl HopPhase {
    /// Short label used in reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            HopPhase::Ascending => "ascending",
            HopPhase::Descending => "descending",
            HopPhase::TraverseCycle => "traverse",
            HopPhase::DeBruijn => "debruijn",
            HopPhase::Successor => "successor",
            HopPhase::Finger => "finger",
        }
    }
}

/// How a lookup ended. The walk engine ([`crate::sim::WalkCursor`])
/// applies one rule to every overlay: it asks the holder first, tests the
/// hop budget second, and ends a walk no live candidate answers where it
/// stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupOutcome {
    /// The walk ended at the key's owner, by the owner's decision or for
    /// want of a live candidate.
    Found,
    /// The holder ended the walk at a node that does not own the key
    /// (§4.3 counts these for Koorde as "lookup failures").
    WrongOwner,
    /// No live candidate answered short of the owner, the holder departed
    /// mid-flight, or the key has no live owner.
    Stuck,
    /// The walk took [`crate::sim::SimOverlay::hop_budget`] hops and the
    /// holder did not end it — a failure a correct overlay never produces.
    HopBudgetExhausted,
}

impl LookupOutcome {
    /// `true` iff the lookup resolved to the correct storing node.
    #[must_use]
    pub fn is_success(self) -> bool {
        matches!(self, LookupOutcome::Found)
    }
}

/// The full trace of one lookup request.
#[derive(Debug, Clone)]
pub struct LookupTrace {
    /// One phase tag per forwarding hop, in order. The paper's "path
    /// length" is `hops.len()`.
    pub hops: Vec<HopPhase>,
    /// Number of departed nodes contacted during routing (§4.3).
    pub timeouts: u32,
    /// How the lookup ended.
    pub outcome: LookupOutcome,
    /// Opaque token of the node the lookup terminated at.
    pub terminal: u64,
    /// Message-level costs under the active [`crate::net::FaultPlan`]:
    /// retries, message timeouts, duplicates, and simulated end-to-end
    /// latency. All-zero when faults are disabled and no stale entry was
    /// hit.
    pub net: NetCosts,
}

impl LookupTrace {
    /// Path length in hops (the y-axis of Figs. 5, 6, 11, 12, 13).
    #[must_use]
    pub fn path_len(&self) -> usize {
        self.hops.len()
    }

    /// Number of hops tagged with `phase` (Figs. 7, 14).
    #[must_use]
    pub fn hops_in_phase(&self, phase: HopPhase) -> usize {
        self.hops.iter().filter(|&&p| p == phase).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(hops: Vec<HopPhase>) -> LookupTrace {
        LookupTrace {
            hops,
            timeouts: 0,
            outcome: LookupOutcome::Found,
            terminal: 0,
            net: NetCosts::default(),
        }
    }

    #[test]
    fn hops_in_phase_counts() {
        let t = trace(vec![
            HopPhase::Ascending,
            HopPhase::Descending,
            HopPhase::Descending,
            HopPhase::TraverseCycle,
        ]);
        assert_eq!(t.path_len(), 4);
        assert_eq!(t.hops_in_phase(HopPhase::Descending), 2);
        assert_eq!(t.hops_in_phase(HopPhase::DeBruijn), 0);
    }

    #[test]
    fn outcome_success_classification() {
        assert!(LookupOutcome::Found.is_success());
        assert!(!LookupOutcome::WrongOwner.is_success());
        assert!(!LookupOutcome::Stuck.is_success());
        assert!(!LookupOutcome::HopBudgetExhausted.is_success());
    }

    #[test]
    fn phase_labels_distinct() {
        use std::collections::HashSet;
        let labels: HashSet<_> = [
            HopPhase::Ascending,
            HopPhase::Descending,
            HopPhase::TraverseCycle,
            HopPhase::DeBruijn,
            HopPhase::Successor,
            HopPhase::Finger,
        ]
        .iter()
        .map(|p| p.label())
        .collect();
        assert_eq!(labels.len(), 6);
    }
}
