//! Corruption and self-stabilizing repair of CAN zone ownership.
//!
//! A CAN node's neighbour table follows its zone ownership: every
//! handover updates both ends of each adjacency it creates or ends. So
//! corruption still attacks ownership, not the table. Every strategy of
//! the shared catalogue maps to one damage: a node's zones become
//! ownerless orphans. That is exactly the post-crash state of
//! a failure (`Protocol::fail`), except that the node stays live and
//! zoneless, and its table empties with its zones. Strategies still
//! differ through the plan's victim selection: `EclipseRegion` orphans a
//! contiguous token range, the rest a seeded uniform sample. Scrambling
//! the table itself is left to the arbitrary-state generator of ROADMAP
//! item 3.
//!
//! Both are the `Protocol` impl's `corrupt_state` and `repair_node`, in
//! `network.rs`. Repair is per-node takeover with two extra duties the
//! global [`crate::CanNetwork::stabilize_takeover`] does not have:
//!
//! 1. A **zoneless live node** violates `can/zone-valid` and — owning no
//!    faces — can never be chosen as an adopter by the face sweep, so
//!    takeover alone would leave it broken forever. Its repair step
//!    hands it one orphan directly.
//! 2. Orphans are adopted **by chaining**: each zone this node adopts
//!    exposes new faces, which may abut further orphans. A corrupted
//!    region is thus peeled from its boundary inward, one repair step at
//!    a time, bounding rounds-to-recovery by the region's diameter.

#[cfg(test)]
mod tests {
    use crate::network::{CanConfig, CanNetwork};
    use dht_core::audit::{AuditScope, StateAudit};
    use dht_core::corrupt::{CorruptionPlan, CorruptionStrategy};
    use dht_core::overlay::Protocol;

    fn net(n: usize) -> CanNetwork {
        CanNetwork::with_nodes(CanConfig::new(2), n, 42)
    }

    fn repair_sweep(net: &mut CanNetwork) -> u64 {
        let mut total = 0;
        for token in net.members.store.tokens() {
            total += net.repair_node(token);
        }
        total
    }

    #[test]
    fn repair_is_a_noop_on_a_healthy_network() {
        let mut n = net(64);
        assert!(n.audit_state(AuditScope::Full).is_clean());
        assert_eq!(repair_sweep(&mut n), 0);
    }

    #[test]
    fn every_strategy_is_detected_and_repaired() {
        for strategy in CorruptionStrategy::ALL {
            let mut n = net(64);
            let plan = CorruptionPlan::new(strategy, 0.5, 9);
            let report = n.corrupt_state(&plan);
            assert_eq!(report.targeted_nodes, 32, "{strategy:?}");
            assert!(
                report.mutated_entries >= 32,
                "{strategy:?} orphaned too little"
            );
            assert!(
                !n.audit_state(AuditScope::Full).is_clean(),
                "{strategy:?} evaded the audit"
            );
            // Boundary peeling: a contiguous corrupted region can need
            // several sweeps before interior zones reach a live face.
            let mut sweeps = 0;
            while !n.audit_state(AuditScope::Full).is_clean() {
                assert!(sweeps < 64, "{strategy:?} did not converge");
                repair_sweep(&mut n);
                sweeps += 1;
            }
            assert_eq!(
                repair_sweep(&mut n),
                0,
                "{strategy:?} repair not idempotent"
            );
        }
    }

    #[test]
    fn zoneless_nodes_get_a_zone_back() {
        let mut n = net(48);
        n.corrupt_state(&CorruptionPlan::new(
            CorruptionStrategy::RandomizeLinks,
            0.25,
            3,
        ));
        let zoneless: Vec<u64> = n
            .members
            .store
            .tokens()
            .into_iter()
            .filter(|&t| n.members.store.get(t).unwrap().zones.is_empty())
            .collect();
        assert!(!zoneless.is_empty());
        for &t in &zoneless {
            n.repair_node(t);
            assert!(
                !n.members.store.get(t).unwrap().zones.is_empty(),
                "node {t} still zoneless"
            );
        }
    }
}
