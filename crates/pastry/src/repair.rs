//! Corruption and self-stabilizing repair of Pastry routing state.
//!
//! Pastry's link table for the shared skeleton in [`dht_core::corrupt`]:
//! the two leaf-set halves (list entries: an erased entry is dropped)
//! and the *populated* slots of the prefix routing table (optional
//! pointers: an erased slot becomes `None`). Empty slots are not part of
//! the corruption surface — own-digit slots are structurally `None` and
//! stay that way, so the `pastry/table-shape` invariant keeps auditing
//! shape, not damage. Corruption is
//! [`dht_core::corrupt::corrupt_links`] over this table; repair is
//! [`dht_core::corrupt::repair_links`], an audited recompute from live
//! membership that is an exact no-op on healthy nodes and consumes no
//! RNG draws.

use dht_core::corrupt::{LazyFamily, Links};

use crate::network::PastryNode;

// Frozen: `results/bench/BENCH_recover.json` pins the draws these key.
const SALT_LEAF_SMALLER: u64 = 0x100;
const SALT_LEAF_LARGER: u64 = 0x200;
const SALT_TABLE: u64 = 0x1000;

impl Links for PastryNode {
    type Id = u64;

    /// The prefix table.
    fn lazy_family(salt: u64) -> Option<LazyFamily> {
        (salt >= SALT_TABLE).then_some(LazyFamily::PerEntry("pastry/prefix-table"))
    }

    /// No entry is mandatory, so `own` is never written.
    fn rewrite_links(&mut self, _own: u64, f: &mut dyn FnMut(u64, Option<u64>) -> Option<u64>) {
        self.leaf_smaller
            .filter_map_in_place(|i, l| f(SALT_LEAF_SMALLER + i as u64, Some(l)));
        self.leaf_larger
            .filter_map_in_place(|i, l| f(SALT_LEAF_LARGER + i as u64, Some(l)));
        for (i, slot) in self.table.iter_mut().enumerate() {
            if slot.is_some() {
                *slot = f(SALT_TABLE + i as u64, *slot);
            }
        }
    }

    /// The literal cross-wire: smaller and larger halves trade places,
    /// breaking the leaf set's ring-order invariant while every entry
    /// stays individually live.
    fn cross_wire(&mut self) {
        std::mem::swap(&mut self.leaf_smaller, &mut self.leaf_larger);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{PastryConfig, PastryNetwork};
    use dht_core::audit::{AuditScope, StateAudit};
    use dht_core::corrupt::{link_diff, CorruptionPlan, CorruptionStrategy};
    use dht_core::overlay::{Overlay, Protocol};
    use dht_core::sim::SimOverlay;

    fn net(n: usize) -> PastryNetwork {
        PastryNetwork::with_nodes(PastryConfig::new(12), n, 42)
    }

    fn repair_sweep(net: &mut PastryNetwork) -> u64 {
        let ids: Vec<u64> = net.node_tokens();
        ids.into_iter().map(|id| net.repair_node(id)).sum()
    }

    #[test]
    fn link_table_is_salt_ordered_and_equal_to_its_clone() {
        let n = net(80);
        let own = n.node_tokens()[0];
        let mut state = n.membership().store.get(own).unwrap().clone();
        let mut salts = Vec::new();
        state.rewrite_links(own, &mut |salt, cur| {
            salts.push(salt);
            cur
        });
        let populated = state.table.iter().flatten().count();
        assert_eq!(salts.len(), 8 + populated, "leaf set + populated slots");
        assert!(salts.windows(2).all(|w| w[0] < w[1]), "{salts:?}");
        assert_eq!(link_diff(own, &mut state.clone(), &mut state), 0);
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
            repair_sweep(&mut n);
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
}
