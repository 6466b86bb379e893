//! Conformance audit: checks every node's ring pointers and de Bruijn
//! state against the live membership.
//!
//! Ring pointers (predecessor + successor list) are repaired eagerly by
//! the graceful join/leave protocol and are checked at
//! [`AuditScope::Online`]. The de Bruijn pointer and its predecessor
//! backups are repaired by stabilization (§4.4) *and* opportunistically
//! during lookups (a querier that times out on a de Bruijn hop adopts the
//! backup it used), so only [`AuditScope::Full`] checks them, by
//! [`audit_lazy_links`]: would one stabilization round rewrite them? It
//! refreshes only those, the row's lazy half, over a copy of each row.
//! Their independent definition lives in `tests/audit_sweep.rs`.

use dht_core::audit::{AuditReport, AuditScope, StateAudit};
use dht_core::corrupt::audit_lazy_links;
use dht_core::overlay::Protocol;
use dht_core::ring::ring_sides;
use dht_core::sim::SimOverlay;

use crate::network::KoordeNetwork;
use crate::node::RingList;

impl StateAudit for KoordeNetwork {
    fn audit_state(&self, scope: AuditScope) -> AuditReport {
        let mut report = AuditReport::new(self.name(), scope);
        let config = self.config();
        let r = config.successor_list;
        // Ring order is token order: a node's ring pointers are the
        // entries next to it in the sorted token list, wrapping at the
        // ends. No resolver is asked, so a wrong one cannot audit clean.
        let tokens = self.membership().store.tokens();
        for (i, (id, node)) in self.membership().store.iter().enumerate() {
            report.note_checked(1);

            // The paper's seven-entry bound on *outgoing* contacts: one de
            // Bruijn node, `r` successors, and the de Bruijn backups (§4).
            let bound = r + config.debruijn_backups + 1;
            report.check(
                id,
                "koorde/state-size",
                node.degree_within(id, bound)
                    && node.successors.len() == r
                    && node.debruijn_preds.len() == config.debruijn_backups,
                || {
                    format!(
                        "degree {} (bound {bound}), {} successors, {} backups",
                        node.degree(id),
                        node.successors.len(),
                        node.debruijn_preds.len()
                    )
                },
            );

            // Ring pointers: repaired eagerly on every graceful join/leave.
            let (pred, succs): (RingList, RingList) =
                ring_sides(i, tokens.len(), 1, r, |j| tokens[j]);
            report.check_eq(id, "koorde/predecessor", &node.predecessor, &pred[0]);
            report.check_eq(id, "koorde/successor-list", &node.successors, &succs);
        }
        audit_lazy_links(self, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::KoordeConfig;
    use dht_core::overlay::Overlay;
    use dht_core::sim::Refresh;

    fn net(n: usize) -> KoordeNetwork {
        KoordeNetwork::with_nodes(KoordeConfig::new(10), n, 13)
    }

    #[test]
    fn stabilized_network_is_fully_clean() {
        let net = net(90);
        let report = net.audit_state(AuditScope::Full);
        assert_eq!(report.checked_nodes(), 90);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn ring_pointers_survive_graceful_churn_without_stabilization() {
        let mut net = net(64);
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
    fn corrupted_debruijn_pointer_is_caught_by_name() {
        let mut net = net(90);
        let id = net.node_tokens()[0];
        let other = net.node_tokens()[40];
        let wrong = net.membership().store.get(id).unwrap().debruijn;
        let wrong = if wrong == other { id } else { other };
        net.membership_mut().store.get_mut(id).unwrap().debruijn = wrong;
        let report = net.audit_state(AuditScope::Full);
        assert!(
            report
                .violated_invariants()
                .contains(&"koorde/debruijn-pointer"),
            "{report}"
        );
        // De Bruijn state is lazily stabilized: online audits ignore it.
        assert!(net.audit_state(AuditScope::Online).is_clean());
    }

    #[test]
    fn corrupted_predecessor_is_caught_online() {
        let mut net = net(90);
        let id = net.node_tokens()[0];
        net.membership_mut().store.get_mut(id).unwrap().predecessor = id;
        let report = net.audit_state(AuditScope::Online);
        assert!(
            report.violated_invariants().contains(&"koorde/predecessor"),
            "{report}"
        );
    }
}
