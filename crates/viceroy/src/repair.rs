//! Corruption and self-stabilizing repair of Viceroy routing state.
//!
//! Viceroy resolves its butterfly links lazily from the per-level
//! membership index, so a node's only *private* routing state is its
//! level claim — and that claim is exactly what every strategy of the
//! shared catalogue ([`CorruptionStrategy`]) scrambles here, each with
//! its own deterministic shape. Corruption rewrites `node.level` but
//! deliberately leaves the `by_level` index alone: the index is the
//! membership's ground truth (what the level rings and the audit's
//! partition check are built from), so repair can re-synchronize the
//! claim from it, restoring the original level exactly.
//!
//! Every drawn level stays within `[1, #levels]` — the link resolvers
//! index `by_level[level - 1]` directly, so an out-of-range claim would
//! panic rather than misroute, which is outside the corruption model
//! (damaged state, not memory corruption).

use dht_core::corrupt::{CorruptionPlan, CorruptionReport, CorruptionStrategy};

use crate::network::ViceroyNetwork;

const SALT_LEVEL: u64 = 1;
const SALT_ATTACKER: u64 = 0xa77a;

impl ViceroyNetwork {
    /// Applies a seeded corruption plan (see [`dht_core::corrupt`]) to
    /// the nodes' level claims. Membership, the level index, and query
    /// loads stay untouched.
    pub fn corrupt(&mut self, plan: &CorruptionPlan) -> CorruptionReport {
        let live = self.members.store.tokens();
        let victims = plan.victims(&live);
        let levels = self.level_sets().len() as u32;
        let mut report = CorruptionReport::default();
        if levels == 0 {
            return report;
        }
        let store = &mut self.members.store;
        let attacker_level = plan
            .pick(SALT_ATTACKER, 0, &live)
            .and_then(|a| store.get(a))
            .map(|n| n.level);
        if plan.strategy == CorruptionStrategy::CrossWireLeafSets {
            // Cross-wire: consecutive victims trade level claims.
            for pair in victims.chunks(2) {
                if let [a, b] = *pair {
                    let la = store.get(a).expect("victim is live").level;
                    let lb = store.get(b).expect("victim is live").level;
                    store.get_mut(a).expect("victim is live").level = lb;
                    store.get_mut(b).expect("victim is live").level = la;
                    let mutated = u64::from(la != lb);
                    report.note(mutated);
                    report.note(mutated);
                } else {
                    report.note(0); // odd victim out: nobody to trade with
                }
            }
            return report;
        }
        for &id in &victims {
            let node = store.get_mut(id).expect("victim is live");
            let current = node.level;
            let target = match plan.strategy {
                CorruptionStrategy::RandomizeLinks | CorruptionStrategy::GhostLinks => {
                    // A seeded level other than the real one when the
                    // butterfly has more than one level ("ghost" levels
                    // do not exist for Viceroy: any in-range level is as
                    // wrong as any other).
                    let drawn = 1 + (plan.draw(id, SALT_LEVEL) % u64::from(levels)) as u32;
                    if drawn == current && levels > 1 {
                        1 + drawn % levels
                    } else {
                        drawn
                    }
                }
                CorruptionStrategy::ZeroLinks => 1,
                CorruptionStrategy::EclipseRegion => attacker_level.unwrap_or(1),
                CorruptionStrategy::CrossWireLeafSets => unreachable!("handled above"),
            };
            let mutated = u64::from(target != current);
            node.level = target;
            report.note(mutated);
        }
        report
    }

    /// One node's repair step: re-synchronize its level claim from the
    /// per-level membership index (the ground truth corruption never
    /// touches). Returns 1 if the claim was wrong, 0 on a healthy node;
    /// ignores dead tokens. Every live node is indexed at exactly one
    /// level — joins and leaves keep the index in lockstep — so the scan
    /// always finds it.
    pub fn repair_one(&mut self, id: u64) -> u64 {
        if !self.members.store.contains(id) {
            return 0;
        }
        let Some(indexed) = self
            .level_sets()
            .iter()
            .position(|set| set.contains(&id))
            .map(|p| p as u32 + 1)
        else {
            return 0;
        };
        let node = self.members.store.get_mut(id).expect("live node has state");
        if node.level == indexed {
            0
        } else {
            node.level = indexed;
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::ViceroyConfig;
    use dht_core::audit::{AuditScope, StateAudit};
    use dht_core::overlay::Overlay;

    fn net(n: usize) -> ViceroyNetwork {
        ViceroyNetwork::with_nodes(ViceroyConfig::new(), n, 42)
    }

    fn repair_sweep(net: &mut ViceroyNetwork) -> u64 {
        let ids: Vec<u64> = net.node_tokens();
        ids.into_iter().map(|id| net.repair_one(id)).sum()
    }

    #[test]
    fn repair_is_a_noop_on_a_healthy_network() {
        let mut n = net(80);
        assert!(n.audit_state(AuditScope::Full).is_clean());
        assert_eq!(repair_sweep(&mut n), 0);
    }

    #[test]
    fn every_strategy_is_detected_and_repaired() {
        for strategy in CorruptionStrategy::ALL {
            let mut n = net(80);
            let levels = |n: &ViceroyNetwork| -> Vec<u32> {
                n.members.store.states().map(|node| node.level).collect()
            };
            let before = levels(&n);
            let plan = CorruptionPlan::new(strategy, 0.5, 9);
            let report = n.corrupt(&plan);
            assert_eq!(report.targeted_nodes, 40, "{strategy:?}");
            assert!(report.corrupted_nodes > 0, "{strategy:?} did no damage");
            assert!(
                !n.audit_state(AuditScope::Full).is_clean(),
                "{strategy:?} evaded the audit"
            );
            repair_sweep(&mut n);
            assert!(
                n.audit_state(AuditScope::Full).is_clean(),
                "{strategy:?} not repaired: {}",
                n.audit_state(AuditScope::Full)
            );
            assert_eq!(
                before,
                levels(&n),
                "{strategy:?}: repair must restore levels"
            );
            assert_eq!(
                repair_sweep(&mut n),
                0,
                "{strategy:?} repair not idempotent"
            );
        }
    }

    #[test]
    fn corrupted_levels_stay_in_range() {
        for strategy in CorruptionStrategy::ALL {
            let mut n = net(60);
            let levels = n.level_sets().len() as u32;
            n.corrupt(&CorruptionPlan::new(strategy, 1.0, 5));
            for l in n.members.store.states().map(|node| node.level) {
                assert!(
                    (1..=levels).contains(&l),
                    "{strategy:?}: level {l} of {levels}"
                );
            }
        }
    }
}
