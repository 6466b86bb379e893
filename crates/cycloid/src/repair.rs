//! Self-stabilizing repair of corrupted routing state.
//!
//! Cycloid's link table for the shared skeleton in
//! [`dht_core::corrupt`]: the seven- or eleven-entry state — the three
//! routing-table pointers (cubical, two cyclics; optional, visited even
//! when unset so corruption can plant one) and the four leaf-set sides
//! (list entries: an erased entry is dropped). Corruption is
//! [`dht_core::corrupt::corrupt_links`] over this table. Repair is
//! [`dht_core::corrupt::repair_links`]: the node's stabilizer run as an
//! *audited* recompute — compute both halves of the row from live
//! membership (the network's [`dht_core::sim::RefreshInto`]) into a copy
//! of the held one, write it back if it differs, and report how many
//! entries changed. The `Full` audit refreshes only the lazy half, the
//! three routing-table pointers. On a healthy node that count is zero and nothing is written
//! — repair draws from no RNG stream — which is what lets the churn
//! engine substitute repair for stabilization without perturbing a
//! single golden byte.

use dht_core::corrupt::{LazyFamily, Links};

use crate::id::CycloidId;
use crate::state::NodeState;

// Frozen: `results/bench/BENCH_recover.json` pins the draws these key.
const SALT_CUBICAL: u64 = 1;
const SALT_CYCLIC_LARGER: u64 = 2;
const SALT_CYCLIC_SMALLER: u64 = 3;
const SALT_INSIDE_LEFT: u64 = 0x10;
const SALT_INSIDE_RIGHT: u64 = 0x20;
const SALT_OUTSIDE_LEFT: u64 = 0x30;
const SALT_OUTSIDE_RIGHT: u64 = 0x40;

impl<const R: usize> Links for NodeState<R> {
    type Id = CycloidId;

    /// The routing table (§3.3.2: "the responsibility of system
    /// stabilization"), the cyclic pair as one.
    fn lazy_family(salt: u64) -> Option<LazyFamily> {
        match salt {
            SALT_CUBICAL => Some(LazyFamily::PerEntry("cycloid/cubical-neighbor")),
            SALT_CYCLIC_LARGER | SALT_CYCLIC_SMALLER => {
                Some(LazyFamily::PerNode("cycloid/cyclic-neighbors"))
            }
            _ => None,
        }
    }

    /// No entry is mandatory, so `own` is never written.
    fn rewrite_links(
        &mut self,
        _own: u64,
        f: &mut dyn FnMut(u64, Option<CycloidId>) -> Option<CycloidId>,
    ) {
        self.cubical_neighbor = f(SALT_CUBICAL, self.cubical_neighbor.get()).into();
        self.cyclic_larger = f(SALT_CYCLIC_LARGER, self.cyclic_larger.get()).into();
        self.cyclic_smaller = f(SALT_CYCLIC_SMALLER, self.cyclic_smaller.get()).into();
        for (side, base) in [
            (&mut self.inside_left, SALT_INSIDE_LEFT),
            (&mut self.inside_right, SALT_INSIDE_RIGHT),
            (&mut self.outside_left, SALT_OUTSIDE_LEFT),
            (&mut self.outside_right, SALT_OUTSIDE_RIGHT),
        ] {
            side.filter_map_in_place(|i, entry| f(base + i as u64, Some(entry)));
        }
    }

    fn cross_wire(&mut self) {
        std::mem::swap(&mut self.inside_left, &mut self.inside_right);
        std::mem::swap(&mut self.outside_left, &mut self.outside_right);
        std::mem::swap(&mut self.cyclic_larger, &mut self.cyclic_smaller);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{CycloidConfig, CycloidNetwork};
    use dht_core::audit::{AuditScope, StateAudit};
    use dht_core::corrupt::{link_diff, CorruptionPlan, CorruptionStrategy};
    use dht_core::overlay::{Overlay, Protocol};

    fn net(n: usize) -> CycloidNetwork<1> {
        CycloidNetwork::with_nodes(CycloidConfig::seven_entry(5), n, 42)
    }

    fn repair_sweep(net: &mut CycloidNetwork<1>) -> u64 {
        let tokens = net.node_tokens();
        tokens.into_iter().map(|t| net.repair_node(t)).sum()
    }

    #[test]
    fn link_table_is_salt_ordered_and_equal_to_its_clone() {
        fn check<const R: usize>(config: CycloidConfig<R>) {
            let n = CycloidNetwork::with_nodes(config, 80, 42);
            let own = *n.node_tokens().last().unwrap();
            let mut state = n.node(n.ids().last().unwrap()).unwrap().clone();
            let mut salts = Vec::new();
            state.rewrite_links(own, &mut |salt, cur| {
                salts.push(salt);
                cur
            });
            assert_eq!(
                salts.len(),
                3 + 4 * n.leaf_radius(),
                "pointers + leaf slots"
            );
            assert!(salts.windows(2).all(|w| w[0] < w[1]), "{salts:?}");
            assert_eq!(link_diff(own, &mut state.clone(), &mut state), 0);
        }
        check(CycloidConfig::seven_entry(5));
        check(CycloidConfig::eleven_entry(5));
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
            let plan = CorruptionPlan::new(strategy, 0.5, 9);
            let report = n.corrupt_state(&plan);
            assert_eq!(report.targeted_nodes, 40, "{strategy:?}");
            assert!(report.corrupted_nodes > 0, "{strategy:?} did no damage");
            assert!(
                !n.audit_state(AuditScope::Full).is_clean(),
                "{strategy:?} evaded the audit"
            );
            let fixed = repair_sweep(&mut n);
            assert!(fixed >= report.mutated_entries / 2, "{strategy:?}");
            assert!(
                n.audit_state(AuditScope::Full).is_clean(),
                "{strategy:?} not repaired: {}",
                n.audit_state(AuditScope::Full)
            );
            assert_eq!(
                repair_sweep(&mut n),
                0,
                "{strategy:?} repair not idempotent"
            );
        }
    }

    #[test]
    fn corruption_is_deterministic() {
        let plan = CorruptionPlan::new(CorruptionStrategy::RandomizeLinks, 0.3, 77);
        let run = || {
            let mut n = net(64);
            let rep = n.corrupt_state(&plan);
            let states: Vec<String> = n
                .ids()
                .map(|id| format!("{:?}", n.node(id).unwrap()))
                .collect();
            (rep, states)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn corruption_leaves_membership_alone() {
        let mut n = net(64);
        let before: Vec<CycloidId> = n.ids().collect();
        n.corrupt_state(&CorruptionPlan::new(
            CorruptionStrategy::EclipseRegion,
            1.0,
            3,
        ));
        let after: Vec<CycloidId> = n.ids().collect();
        assert_eq!(before, after);
    }
}
