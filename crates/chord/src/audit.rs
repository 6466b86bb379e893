//! Conformance audit: checks every node's ring pointers, successor list,
//! and finger table against the live membership.
//!
//! The graceful join/leave protocol notifies exactly the ring
//! neighbourhood, so the predecessor pointer and successor list are always
//! correct and are checked at [`AuditScope::Online`]. Fingers are only
//! repaired by stabilization, so [`AuditScope::Full`] adds
//! [`audit_lazy_links`]: would one round rewrite a finger? It refreshes
//! only the fingers, the row's lazy half, over a copy of each row. Their
//! independent definition lives in `tests/audit_sweep.rs`.

use dht_core::audit::{AuditReport, AuditScope, StateAudit};
use dht_core::corrupt::audit_lazy_links;
use dht_core::overlay::Protocol;
use dht_core::ring::ring_sides;
use dht_core::sim::SimOverlay;

use crate::network::ChordNetwork;
use crate::node::SuccessorList;

impl StateAudit for ChordNetwork {
    fn audit_state(&self, scope: AuditScope) -> AuditReport {
        let mut report = AuditReport::new(self.name(), scope);
        let r = self.config().successor_list;
        // Ring order is token order: a node's ring pointers are the
        // entries next to it in the sorted token list, wrapping at the
        // ends. No resolver is asked, so a wrong one cannot audit clean.
        let tokens = self.membership().store.tokens();
        for (i, (id, node)) in self.membership().store.iter().enumerate() {
            report.note_checked(1);

            // Ring pointers: repaired eagerly on every graceful join/leave.
            let (pred, succs): (SuccessorList, SuccessorList) =
                ring_sides(i, tokens.len(), 1, r, |j| tokens[j]);
            report.check_eq(id, "chord/predecessor", &node.predecessor, &pred[0]);
            report.check_eq(id, "chord/successor-list", &node.successors, &succs);
        }
        audit_lazy_links(self, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ChordConfig;
    use dht_core::overlay::Overlay;
    use dht_core::sim::Refresh;

    fn ring(n: usize) -> ChordNetwork {
        ChordNetwork::with_nodes(ChordConfig::new(10), n, 11)
    }

    #[test]
    fn stabilized_ring_is_fully_clean() {
        let net = ring(90);
        let report = net.audit_state(AuditScope::Full);
        assert_eq!(report.checked_nodes(), 90);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn ring_pointers_survive_graceful_churn_without_stabilization() {
        let mut net = ring(64);
        for step in 0..30 {
            if step % 3 == 0 {
                let victim = net.node_tokens()[step % net.len()];
                net.depart(victim, true);
            } else {
                net.join_random();
            }
            let report = net.audit_state(AuditScope::Online);
            assert!(report.is_clean(), "after step {step}: {report}");
        }
    }

    #[test]
    fn corrupted_finger_is_caught_by_name() {
        let mut net = ring(90);
        let id = net.node_tokens()[0];
        let wrong = (id + 1) % net.config().space();
        net.membership_mut().store.get_mut(id).unwrap().fingers[5] = wrong;
        let report = net.audit_state(AuditScope::Full);
        assert!(
            report.violated_invariants().contains(&"chord/finger-table"),
            "{report}"
        );
        // Fingers are lazily stabilized: the online audit ignores them.
        assert!(net.audit_state(AuditScope::Online).is_clean());
    }

    #[test]
    fn corrupted_successor_list_is_caught_online() {
        let mut net = ring(90);
        let id = net.node_tokens()[0];
        net.membership_mut().store.get_mut(id).unwrap().successors[0] = id;
        let report = net.audit_state(AuditScope::Online);
        assert!(
            report
                .violated_invariants()
                .contains(&"chord/successor-list"),
            "{report}"
        );
    }
}
