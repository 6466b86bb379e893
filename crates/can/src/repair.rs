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
//! Repair is per-node takeover with two extra duties the global
//! [`CanNetwork::stabilize_takeover`] does not have:
//!
//! 1. A **zoneless live node** violates `can/zone-valid` and — owning no
//!    faces — can never be chosen as an adopter by the face sweep, so
//!    takeover alone would leave it broken forever. Its repair step
//!    hands it one orphan directly.
//! 2. Orphans are adopted **by chaining**: each zone this node adopts
//!    exposes new faces, which may abut further orphans. A corrupted
//!    region is thus peeled from its boundary inward, one repair step at
//!    a time, bounding rounds-to-recovery by the region's diameter.

use dht_core::corrupt::{CorruptionPlan, CorruptionReport};

use crate::network::CanNetwork;

impl CanNetwork {
    /// Applies a seeded corruption plan (see [`dht_core::corrupt`]):
    /// every victim's zones are orphaned while the victim stays live, and
    /// it leaves its neighbours' tables along with its own. Mutated
    /// entries count the zones torn from their owners.
    pub fn corrupt(&mut self, plan: &CorruptionPlan) -> CorruptionReport {
        let live = self.members.store.tokens();
        let victims = plan.victims(&live);
        let mut report = CorruptionReport::default();
        for &token in &victims {
            let node = self.members.store.get_mut(token).expect("victim is live");
            let zones = std::mem::take(&mut node.zones);
            let table = std::mem::take(&mut node.neighbors);
            for &zone in &zones {
                self.index.set_owner(zone, None);
            }
            for &y in table.iter() {
                self.members
                    .store
                    .get_mut(y)
                    .expect("neighbours are live")
                    .relink(Some(token), None);
            }
            report.note(zones.len() as u64);
            self.orphans.extend(zones);
        }
        report
    }

    /// One node's repair step: reclaim a zone if this node has none,
    /// then adopt orphans abutting its zones, chaining through the newly
    /// adopted faces. Adoption **reserves one orphan per still-zoneless
    /// live node** — without the reservation, whichever nodes repair
    /// first would swallow the whole orphan pool and leave late-firing
    /// zoneless nodes unrepairable forever (corruption guarantees the
    /// pool starts at least as large as the zoneless population, and
    /// both repair moves preserve that inequality). Returns the number
    /// of zones adopted (0 on a healthy network, which costs one
    /// membership probe); ignores dead tokens.
    pub fn repair_one(&mut self, token: u64) -> u64 {
        let Some(node) = self.members.store.get(token) else {
            return 0;
        };
        let mut adopted = 0u64;
        let mut slots = Vec::new();
        if node.zones.is_empty() {
            if let Some(zone) = self.orphans.pop() {
                self.index.face_owners(&zone, &mut slots);
                self.adopt(token, zone, &slots);
                adopted += 1;
            }
        }
        if self.orphans.is_empty() {
            return adopted;
        }
        let reserved = self
            .members
            .store
            .states()
            .filter(|n| n.zones.is_empty())
            .count();
        let mut i = 0;
        while self.orphans.len() > reserved && i < self.orphans.len() {
            let zone = self.orphans[i];
            slots.clear();
            self.index.face_owners(&zone, &mut slots);
            if slots.contains(&Some(token)) {
                self.orphans.swap_remove(i);
                self.adopt(token, zone, &slots);
                adopted += 1;
                i = 0; // new faces: earlier orphans may now abut us
            } else {
                i += 1;
            }
        }
        adopted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::CanConfig;
    use dht_core::audit::{AuditScope, StateAudit};
    use dht_core::corrupt::CorruptionStrategy;

    fn net(n: usize) -> CanNetwork {
        CanNetwork::with_nodes(CanConfig::new(2), n, 42)
    }

    fn repair_sweep(net: &mut CanNetwork) -> u64 {
        let mut total = 0;
        for token in net.members.store.tokens() {
            total += net.repair_one(token);
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
            let report = n.corrupt(&plan);
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
        n.corrupt(&CorruptionPlan::new(
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
            n.repair_one(t);
            assert!(
                !n.members.store.get(t).unwrap().zones.is_empty(),
                "node {t} still zoneless"
            );
        }
    }
}
