//! Conformance audit: checks every node's leaf set and prefix routing
//! table against the live membership.
//!
//! Leaf sets are repaired eagerly by the graceful join/leave protocol and
//! are checked at [`AuditScope::Online`]; table slots are only repaired by
//! stabilization, so [`AuditScope::Full`] adds [`audit_lazy_links`]: would
//! one round rewrite a slot? It refreshes only the table, the row's lazy
//! half, over a copy of each row. Their independent definition lives in
//! `tests/audit_sweep.rs`.

use dht_core::audit::{AuditReport, AuditScope, StateAudit};
use dht_core::corrupt::audit_lazy_links;
use dht_core::overlay::Protocol;
use dht_core::ring::ring_sides;
use dht_core::sim::SimOverlay;

use crate::network::{LeafHalf, PastryConfig, PastryNetwork};

impl StateAudit for PastryNetwork {
    fn audit_state(&self, scope: AuditScope) -> AuditReport {
        let mut report = AuditReport::new(self.name(), scope);
        let c = self.config();
        // Ring order is token order: a node's leaf set is the run of
        // entries either side of it in the sorted token list, wrapping at
        // the ends but never round to the node itself. No resolver is
        // asked, so a wrong one cannot audit clean.
        let tokens = self.membership().store.tokens();
        let n = tokens.len();
        let reach = (PastryConfig::LEAF_SET / 2).min(n.saturating_sub(1));
        for (i, (id, node)) in self.membership().store.iter().enumerate() {
            report.note_checked(1);

            // Structural shape: `digits × base` slots, and the slot for a
            // node's own digit in each row is always empty (the row
            // "points at" the node itself).
            let slots = (c.digits() * c.base()) as usize;
            report.check(
                id,
                "pastry/table-shape",
                node.table.len() == slots
                    && (0..c.digits()).all(|row| {
                        node.table[(row * c.base() + c.digit(id, row)) as usize].is_none()
                    }),
                || {
                    format!(
                        "{} slots (expected {slots}) or own-digit slot occupied",
                        node.table.len()
                    )
                },
            );

            // Leaf set: the true nearest smaller/larger live identifiers,
            // eagerly repaired on join/leave.
            let (smaller, larger): (LeafHalf, LeafHalf) =
                ring_sides(i, n, reach, reach, |j| tokens[j]);
            report.check_eq(id, "pastry/leaf-set", &node.leaf_smaller, &smaller);
            report.check_eq(id, "pastry/leaf-set", &node.leaf_larger, &larger);
        }
        audit_lazy_links(self, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_core::overlay::Overlay;
    use dht_core::sim::Refresh;

    fn net(n: usize) -> PastryNetwork {
        PastryNetwork::with_nodes(PastryConfig::new(10), n, 5)
    }

    #[test]
    fn stabilized_network_is_fully_clean() {
        let net = net(90);
        let report = net.audit_state(AuditScope::Full);
        assert_eq!(report.checked_nodes(), 90);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn leaf_sets_survive_graceful_churn_without_stabilization() {
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
    fn corrupted_table_entry_is_caught_by_name() {
        let mut net = net(90);
        let (id, other) = {
            let mut ids = net.membership().store.token_iter();
            (ids.next().unwrap(), ids.nth(40).unwrap())
        };
        // Overwrite a populated slot with a node that cannot belong there.
        let idx = net
            .membership()
            .store
            .get(id)
            .unwrap()
            .table
            .iter()
            .position(|e| e.is_some() && *e != Some(other))
            .unwrap();
        net.membership_mut().store.get_mut(id).unwrap().table[idx] = Some(other);
        let report = net.audit_state(AuditScope::Full);
        assert!(
            report
                .violated_invariants()
                .contains(&"pastry/prefix-table"),
            "{report}"
        );
        // The table is lazily stabilized: online audits ignore it.
        assert!(net.audit_state(AuditScope::Online).is_clean());
    }

    #[test]
    fn corrupted_leaf_set_is_caught_online() {
        let mut net = net(90);
        let id = net.node_tokens()[0];
        net.membership_mut()
            .store
            .get_mut(id)
            .unwrap()
            .leaf_larger
            .clear();
        let report = net.audit_state(AuditScope::Online);
        assert!(
            report.violated_invariants().contains(&"pastry/leaf-set"),
            "{report}"
        );
    }
}
