//! Conformance audit: checks zone geometry, volume conservation, and the
//! neighbour tables of the CAN torus tiling.
//!
//! Zone ownership and the tables that follow it are CAN's routing state,
//! and graceful joins/leaves keep both exact at every instant, so they
//! are checked at [`AuditScope::Online`]. The tables are checked against
//! zone geometry alone, without probing the zone index:
//!
//! * `can/neighbor-table`: every entry is in ascending order, live, not
//!   the node itself, owns a zone abutting one of the node's zones, and
//!   lists the node back;
//! * `can/neighbor-complete`: the one-cell layer just outside each face
//!   of each zone is covered exactly by the node's own zones, its
//!   neighbours' zones and the orphan zones. The zones tile the torus, so
//!   a layer left short holds a piece of a node the table misses.
//!
//! Crash-orphaned zones are only re-adopted by the takeover stabilizer, so
//! the no-orphans and probe-grid tiling checks run at [`AuditScope::Full`],
//! which also recomputes every table by face sweeps of the zone index
//! (`can/neighbor-sweep`).

use dht_core::audit::{AuditReport, AuditScope, StateAudit};
use dht_core::overlay::Protocol;

use crate::network::{abut, CanNetwork, CanNode};
use crate::zone::{Zone, MAX_DIMS};

impl StateAudit for CanNetwork {
    fn audit_state(&self, scope: AuditScope) -> AuditReport {
        let mut report = AuditReport::new(self.name(), scope);
        let config = self.config();
        let side = config.side();
        let n = self.members.store.len();

        let mut total: u128 = 0;
        for (token, node) in self.members.store.iter() {
            report.note_checked(1);
            report.check_eq(token, "can/token-id", &node.token, &token);

            // Every zone belongs to this torus, and a live node owns at
            // least one.
            let valid = !node.zones.is_empty()
                && node
                    .zones
                    .iter()
                    .all(|z| z.dims() == config.dims && z.side() == side);
            report.check(token, "can/zone-valid", valid, || {
                format!("invalid zone list: {:?}", node.zones)
            });
            total += node.volume();

            let table = &node.neighbors[..];
            let bad = table.iter().enumerate().find(|&(i, &y)| {
                let listed = (i == 0 || table[i - 1] < y) && y != token;
                !(listed
                    && self.members.store.get(y).is_some_and(|other| {
                        abut(&node.zones, &other.zones)
                            && other.neighbors.binary_search(&token).is_ok()
                    }))
            });
            report.check(token, "can/neighbor-table", bad.is_none(), || {
                format!(
                    "entry {:?} of {table:?} is out of order, the node itself, departed, \
                     not abutting, or not listing the node back",
                    bad.map(|(_, y)| y)
                )
            });
            report.check(
                token,
                "can/neighbor-complete",
                self.faces_covered(node),
                || {
                    format!(
                        "a face of {:?} is not covered by its own zones, the zones of {table:?} \
                         and the orphans",
                        node.zones
                    )
                },
            );

            // The tiling is connected: every node in a multi-node network
            // abuts at least one other node's zone.
            report.check(
                token,
                "can/neighbor-connectivity",
                n <= 1 || !table.is_empty(),
                || "node has no neighbours in a multi-node network".to_string(),
            );

            if scope == AuditScope::Full {
                let swept = self.sweep_neighbors(token);
                report.check(token, "can/neighbor-sweep", swept == table, || {
                    format!("stored {table:?}, face sweep {swept:?}")
                });
            }
        }

        // Live zones plus crash orphans always partition the torus, so
        // their volumes sum to `side^dims` — conservation holds through
        // every split, merge, and takeover.
        let orphaned: u128 = self.orphan_zones().iter().map(|z| z.volume()).sum();
        let space = (u128::from(side)).pow(config.dims as u32);
        report.check(
            0,
            "can/volume-conservation",
            total + orphaned == space,
            || format!("live {total} + orphaned {orphaned} != space {space}"),
        );

        if scope == AuditScope::Full {
            report.check(0, "can/no-orphans", self.orphan_zones().is_empty(), || {
                format!(
                    "{} orphaned zones await takeover",
                    self.orphan_zones().len()
                )
            });
            let probes = (2 * n).max(256);
            let holes = self.tiling_holes(probes);
            report.check(0, "can/zone-tiling", holes == 0, || {
                format!("{holes} of {probes} probe points not covered exactly once")
            });
        }
        report
    }
}

impl CanNetwork {
    /// `true` iff every face layer of `node`'s zones is covered exactly
    /// by its own zones, its table's zones and the orphans. The orphan
    /// list is read only for a zone the first two leave short.
    fn faces_covered(&self, node: &CanNode) -> bool {
        let tabled = node
            .neighbors
            .iter()
            .filter_map(|&y| self.members.store.get(y));
        node.zones.iter().all(|z| {
            let mut got = [0; 2 * MAX_DIMS];
            for w in node
                .zones
                .iter()
                .chain(tabled.clone().flat_map(|o| o.zones.iter()))
            {
                cover_faces(z, w, &mut got);
            }
            if !faces_full(z, &got) {
                for w in self.orphan_zones() {
                    cover_faces(z, w, &mut got);
                }
            }
            faces_full(z, &got)
        })
    }
}

/// Adds to `got[2k]` and `got[2k + 1]` the measure of `w`'s intersection
/// with the one-cell layers just past `z`'s upper face and just below its
/// lower face in dimension `k`, wrapped across the seam.
fn cover_faces(z: &Zone, w: &Zone, got: &mut [u128; 2 * MAX_DIMS]) {
    let side = z.side();
    for k in 0..z.dims() {
        for (f, c) in [
            (2 * k, z.hi(k) % side),
            (2 * k + 1, (z.lo(k) + side - 1) % side),
        ] {
            if (w.lo(k)..w.hi(k)).contains(&c) {
                got[f] += (0..z.dims())
                    .filter(|&j| j != k)
                    .map(|j| u128::from(z.hi(j).min(w.hi(j)).saturating_sub(z.lo(j).max(w.lo(j)))))
                    .product::<u128>();
            }
        }
    }
}

/// `true` iff every face layer of `z` is covered exactly: a layer's
/// measure is the zone's volume over its extent in the layer's dimension.
fn faces_full(z: &Zone, got: &[u128; 2 * MAX_DIMS]) -> bool {
    (0..2 * z.dims()).all(|f| got[f] == z.volume() >> z.log_extent(f / 2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::CanConfig;

    fn net(n: usize) -> CanNetwork {
        CanNetwork::with_nodes(CanConfig::new(2), n, 3)
    }

    #[test]
    fn fresh_network_is_fully_clean() {
        let net = net(70);
        let report = net.audit_state(AuditScope::Full);
        assert_eq!(report.checked_nodes(), 70);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn invariants_survive_graceful_churn_without_stabilization() {
        let mut net = net(48);
        for step in 0..30 {
            if step % 3 == 0 {
                let victim = net.members.store.tokens()[step % net.members.store.len()];
                net.leave(victim);
            } else {
                net.join_random_point();
            }
            let report = net.audit_state(AuditScope::Online);
            assert!(report.is_clean(), "after step {step}: {report}");
        }
    }

    #[test]
    fn crash_orphans_fail_full_but_not_online_audit() {
        let mut net = net(40);
        let victim = net.members.store.tokens()[7];
        net.fail(victim);
        assert!(net.audit_state(AuditScope::Online).is_clean());
        let report = net.audit_state(AuditScope::Full);
        assert!(
            report.violated_invariants().contains(&"can/no-orphans"),
            "{report}"
        );
        net.stabilize_takeover();
        assert!(net.audit_state(AuditScope::Full).is_clean());
    }

    #[test]
    fn corrupted_zone_is_caught_by_name() {
        let mut net = net(40);
        let token = net.members.store.tokens()[3];
        // Shrink one zone: geometry stays valid but volume leaks.
        let zone = net.members.store.get(token).unwrap().zones[0]
            .split()
            .unwrap()
            .0;
        net.members.store.get_mut(token).unwrap().zones[0] = zone;
        let report = net.audit_state(AuditScope::Online);
        assert!(
            report
                .violated_invariants()
                .contains(&"can/volume-conservation"),
            "{report}"
        );
    }

    #[test]
    fn a_dropped_table_entry_is_caught_at_both_ends() {
        let mut net = net(40);
        let token = net.members.store.tokens()[5];
        let gone = net.neighbors_of(token)[0];
        net.members
            .store
            .get_mut(token)
            .unwrap()
            .relink(Some(gone), None);
        let online = net.audit_state(AuditScope::Online);
        let nodes = |name: &str| -> Vec<u64> {
            online
                .violations()
                .iter()
                .filter(|v| v.invariant == name)
                .map(|v| v.node)
                .collect()
        };
        assert_eq!(nodes("can/neighbor-complete"), vec![token], "{online}");
        assert_eq!(nodes("can/neighbor-table"), vec![gone], "{online}");
        let full = net.audit_state(AuditScope::Full);
        assert!(
            full.violated_invariants().contains(&"can/neighbor-sweep"),
            "{full}"
        );
    }
}
