//! Conformance audit: checks level assignments, the per-level identifier
//! index, and butterfly link sanity.
//!
//! Viceroy's links are resolved lazily from the live membership (the
//! simulator's equivalent of the paper's eager everyone-gets-repaired
//! protocol), so *every* invariant here holds at any instant: the audit
//! checks the same set at [`AuditScope::Online`] and [`AuditScope::Full`].

use dht_core::audit::{AuditReport, AuditScope, StateAudit};
use dht_core::overlay::Protocol;

use crate::network::ViceroyNetwork;

impl StateAudit for ViceroyNetwork {
    fn audit_state(&self, scope: AuditScope) -> AuditReport {
        let mut report = AuditReport::new(self.name(), scope);
        let levels = self.level_sets();
        let store = &self.members.store;

        for (id, node) in store.iter() {
            report.note_checked(1);

            // Levels are 1-based (§2.4 draws from [1, log n₀]).
            let level = node.level;
            report.check(id, "viceroy/level-positive", level >= 1, || {
                format!("level {level} < 1")
            });

            // The node appears in the level index exactly at its own level.
            let indexed_at: Vec<u32> = (0..levels.len())
                .filter(|&l| levels[l].contains(&id))
                .map(|l| l as u32 + 1)
                .collect();
            report.check(id, "viceroy/level-index", indexed_at == [level], || {
                format!("level {level} but indexed at levels {indexed_at:?}")
            });

            // Butterfly links must land on live nodes of the right level.
            let check_link = |report: &mut AuditReport, name, link: Option<u64>, want: u32| {
                if let Some(peer) = link {
                    match store.get(peer) {
                        Some(p) => report.check(id, "viceroy/link-sanity", p.level == want, || {
                            format!("{name} link {peer} at level {}, expected {want}", p.level)
                        }),
                        None => report.record(
                            id,
                            "viceroy/link-sanity",
                            format!("{name} link {peer} is not live"),
                        ),
                    }
                }
            };
            check_link(&mut report, "up", self.up_link(id), level.saturating_sub(1));
            check_link(&mut report, "down-left", self.down_left_link(id), level + 1);
            check_link(
                &mut report,
                "down-right",
                self.down_right_link(id),
                level + 1,
            );
            check_link(&mut report, "level-next", self.level_next_link(id), level);
            check_link(&mut report, "level-prev", self.level_prev_link(id), level);
            report.check(
                id,
                "viceroy/link-sanity",
                level > 1 || self.up_link(id).is_none(),
                || "level-1 node has an up link".to_string(),
            );
        }

        // The index must hold live nodes only (the per-node pass above
        // already proves every live node is indexed exactly once).
        for (l, set) in levels.iter().enumerate() {
            for &id in set {
                report.check(id, "viceroy/level-index", store.contains(id), || {
                    format!("dead node indexed at level {}", l + 1)
                });
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ViceroyConfig;
    use dht_core::overlay::{Overlay, Protocol};
    use dht_core::rng::stream;

    fn net(n: usize) -> ViceroyNetwork {
        ViceroyNetwork::with_nodes(ViceroyConfig::new(), n, 9)
    }

    #[test]
    fn fresh_network_is_fully_clean() {
        let net = net(90);
        let report = net.audit_state(AuditScope::Full);
        assert_eq!(report.checked_nodes(), 90);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn invariants_survive_churn_without_stabilization() {
        let mut net = net(64);
        let mut rng = stream(4, "viceroy-audit-churn");
        for step in 0..30 {
            if step % 3 == 0 {
                let victim = net.node_tokens()[step % net.len()];
                net.leave(victim);
            } else {
                net.join(&mut rng);
            }
            let report = net.audit_state(AuditScope::Online);
            assert!(report.is_clean(), "after step {step}: {report}");
        }
    }

    #[test]
    fn corrupted_level_is_caught_by_name() {
        let mut net = net(90);
        // Pick a node that can move up a level without leaving the index's
        // populated range, then bump its stored level without re-indexing:
        // the partition check must flag it.
        let max = net.level_sets().len() as u32;
        let id = net
            .members
            .store
            .iter()
            .find(|(_, node)| node.level < max)
            .map(|(i, _)| i)
            .unwrap();
        net.members.store.get_mut(id).unwrap().level += 1;
        let report = net.audit_state(AuditScope::Online);
        assert!(
            report
                .violated_invariants()
                .contains(&"viceroy/level-index"),
            "{report}"
        );
    }
}
