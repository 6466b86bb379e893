//! Corruption and self-stabilizing repair of Koorde routing state.
//!
//! Koorde's link table for the shared skeleton in [`dht_core::corrupt`]:
//! the seven-entry state — predecessor, de Bruijn pointer, successor
//! list and the de Bruijn pointer's backup predecessors — each a
//! mandatory pointer (an erased entry falls back to the node itself,
//! the "knows nobody" state of a fresh node). Corruption is
//! [`dht_core::corrupt::corrupt_links`] over this table; repair is
//! [`dht_core::corrupt::repair_links`], an audited recompute from live
//! membership that is an exact no-op on healthy nodes and consumes no
//! RNG draws.

use dht_core::corrupt::{LazyFamily, Links};

use crate::node::KoordeNode;

// Frozen: `results/bench/BENCH_recover.json` pins the draws these key.
const SALT_PRED: u64 = 1;
const SALT_DEBRUIJN: u64 = 2;
const SALT_SUCC: u64 = 0x100;
const SALT_BACKUP: u64 = 0x200;

impl Links for KoordeNode {
    type Id = u64;

    /// The de Bruijn pointer, and its backups as one list.
    fn lazy_family(salt: u64) -> Option<LazyFamily> {
        match salt {
            SALT_DEBRUIJN => Some(LazyFamily::PerEntry("koorde/debruijn-pointer")),
            SALT_BACKUP.. => Some(LazyFamily::PerNode("koorde/debruijn-backups")),
            _ => None,
        }
    }

    fn rewrite_links(&mut self, id: u64, f: &mut dyn FnMut(u64, Option<u64>) -> Option<u64>) {
        self.predecessor = f(SALT_PRED, Some(self.predecessor)).unwrap_or(id);
        self.debruijn = f(SALT_DEBRUIJN, Some(self.debruijn)).unwrap_or(id);
        for (i, s) in self.successors.iter_mut().enumerate() {
            *s = f(SALT_SUCC + i as u64, Some(*s)).unwrap_or(id);
        }
        for (i, p) in self.debruijn_preds.iter_mut().enumerate() {
            *p = f(SALT_BACKUP + i as u64, Some(*p)).unwrap_or(id);
        }
    }

    /// Cross the two ring neighbourhoods: the successor list against the
    /// de Bruijn backups, and the predecessor against the de Bruijn
    /// pointer.
    fn cross_wire(&mut self) {
        std::mem::swap(&mut self.successors, &mut self.debruijn_preds);
        std::mem::swap(&mut self.predecessor, &mut self.debruijn);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{KoordeConfig, KoordeNetwork};
    use dht_core::audit::{AuditScope, StateAudit};
    use dht_core::corrupt::{link_diff, CorruptionPlan, CorruptionStrategy};
    use dht_core::overlay::{Overlay, Protocol};
    use dht_core::sim::SimOverlay;

    fn net(n: usize) -> KoordeNetwork {
        KoordeNetwork::with_nodes(KoordeConfig::new(11), n, 42)
    }

    fn repair_sweep(net: &mut KoordeNetwork) -> u64 {
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
        assert_eq!(salts.len(), 8, "predecessor + the seven-entry state");
        assert!(salts.windows(2).all(|w| w[0] < w[1]), "{salts:?}");
        assert_eq!(link_diff(own, &mut state.clone(), &mut state), 0);
    }

    #[test]
    fn repair_is_a_noop_on_a_healthy_ring() {
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
