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
//! the no-orphans check runs at [`AuditScope::Full`], as do the face-sweep
//! recomputation of every table (`can/neighbor-sweep`) and
//! `can/zone-tiling`: no live or orphan zone repeats or lies inside
//! another. Zones are boxes of one fixed binary partition, so two overlap
//! only if one contains the other, and disjoint zones whose volumes sum to
//! the torus (`can/volume-conservation`) tile it. The check walks each
//! zone's ancestors: `O(zones · depth)` hash probes, and no sample.

use std::collections::HashSet;
use std::hash::BuildHasherDefault;

use dht_core::audit::{AuditReport, AuditScope, StateAudit};
use dht_core::overlay::Protocol;

use crate::index::ZoneHasher;
use crate::network::{abut, CanNetwork, CanNode};
use crate::zone::{Zone, MAX_DIMS};

impl StateAudit for CanNetwork {
    fn audit_state(&self, scope: AuditScope) -> AuditReport {
        let mut report = AuditReport::new(self.name(), scope);
        let config = self.config();
        let side = config.side();
        let n = self.members.store.len();

        let mut total: u128 = 0;
        let (mut slots, mut swept) = (Vec::new(), Vec::new());
        for (token, node) in self.members.store.iter() {
            report.note_checked(1);

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
                self.sweep_neighbors(token, &mut slots, &mut swept);
                report.check(token, "can/neighbor-sweep", swept == table, || {
                    format!("stored {table:?}, face sweep {swept:?}")
                });
            }
        }

        // Live zones plus crash orphans always partition the torus, so
        // their volumes sum to `side^dims` — conservation holds through
        // every split, merge, and takeover.
        let orphaned: u128 = self.orphans.iter().map(|z| z.volume()).sum();
        let space = (u128::from(side)).pow(config.dims as u32);
        report.check(
            0,
            "can/volume-conservation",
            total + orphaned == space,
            || format!("live {total} + orphaned {orphaned} != space {space}"),
        );

        if scope == AuditScope::Full {
            report.check(0, "can/no-orphans", self.orphans.is_empty(), || {
                format!("{} orphaned zones await takeover", self.orphans.len())
            });
            let nested = self.nested_zones();
            report.check(0, "can/zone-tiling", nested == 0, || {
                format!("{nested} zones repeat or lie inside another")
            });
        }
        report
    }
}

impl CanNetwork {
    /// How many live and orphan zones repeat, or lie inside another live
    /// or orphan zone: 0 iff the zones are pairwise disjoint.
    fn nested_zones(&self) -> usize {
        let live = || self.members.store.states().flat_map(|n| n.zones.iter());
        // Sized once: a set grown by doubling allocates more the larger
        // the network.
        let zones = live().count() + self.orphans.len();
        let hasher = BuildHasherDefault::<ZoneHasher>::default();
        let mut set = HashSet::with_capacity_and_hasher(zones, hasher);
        let repeats = live()
            .chain(&self.orphans)
            .filter(|&&z| !set.insert(z))
            .count();
        let inside = |z: &&Zone| ancestors(z).any(|a| set.contains(&a));
        repeats + set.iter().filter(inside).count()
    }

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
                for w in &self.orphans {
                    cover_faces(z, w, &mut got);
                }
            }
            faces_full(z, &got)
        })
    }
}

/// The boxes of the partition strictly containing `z`, from the full
/// torus down: each split keeps the half holding `z`'s lower corner.
fn ancestors(z: &Zone) -> impl Iterator<Item = Zone> + '_ {
    let root = Zone::full(z.dims(), z.side().trailing_zeros());
    std::iter::successors(Some(root), |a| {
        let k = a.split_dim();
        let (lower, upper) = a.split()?;
        Some(if z.lo(k) < upper.lo(k) { lower } else { upper })
    })
    .take(z.depth() as usize)
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

    /// The live zone of the network's fourth node.
    fn a_live_zone(net: &CanNetwork) -> (u64, Zone) {
        let token = net.members.store.tokens()[3];
        (token, net.members.store.get(token).unwrap().zones[0])
    }

    #[test]
    fn an_orphan_inside_a_live_zone_breaks_the_tiling() {
        let mut net = net(40);
        let (_, zone) = a_live_zone(&net);
        net.orphans.push(zone.split().unwrap().1);
        let report = net.audit_state(AuditScope::Full);
        assert!(
            report.violated_invariants().contains(&"can/zone-tiling"),
            "{report}"
        );
    }

    #[test]
    fn an_orphan_duplicating_a_live_zone_breaks_the_tiling() {
        // The owner keeps only the lower half, and the orphan repeats
        // it: the volumes still sum to the torus, the upper half is a
        // hole, and only the partition check sees it.
        let mut net = net(40);
        let (token, zone) = a_live_zone(&net);
        let lower = zone.split().unwrap().0;
        net.members.store.get_mut(token).unwrap().zones[0] = lower;
        net.orphans.push(lower);
        let report = net.audit_state(AuditScope::Full);
        let violated = report.violated_invariants();
        assert!(violated.contains(&"can/zone-tiling"), "{report}");
        assert!(!violated.contains(&"can/volume-conservation"), "{report}");
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
