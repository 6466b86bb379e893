//! Conformance audit: checks every node's routing state against the §2.1
//! specification (exactly seven — or eleven — outgoing entries: one cubical
//! neighbour, two cyclic neighbours, and the inside/outside leaf sets).
//!
//! The leaf sets are repaired eagerly by the graceful join/leave protocol
//! (§3.3), so they are checked at [`AuditScope::Online`]; the cubical and
//! cyclic neighbours are "the responsibility of system stabilization, as in
//! Chord" (§3.3.2), so [`AuditScope::Full`] adds [`audit_lazy_links`]:
//! would one stabilization round rewrite a neighbour? It refreshes only
//! the three neighbours, the row's lazy half, over a copy of each row. The
//! independent §3.1 definition lives in `tests/audit_sweep.rs`.

use dht_core::audit::{AuditReport, AuditScope, StateAudit};
use dht_core::corrupt::audit_lazy_links;
use dht_core::overlay::Protocol;
use dht_core::ring::ring_sides;

use crate::id::CycloidId;
use crate::network::CycloidNetwork;
use crate::state::LeafSide;

impl<const R: usize> StateAudit for CycloidNetwork<R> {
    fn audit_state(&self, scope: AuditScope) -> AuditReport {
        let mut report = AuditReport::new(self.name(), scope);
        let dim = self.dim();
        let d = u64::from(dim.get());
        let bound = 3 + 4 * R;
        // Ground truth is the sorted token list alone. A token is
        // `cubical * d + cyclic`, so each non-empty cycle is one run of
        // the list, in local-cycle order, ending at the cycle's primary;
        // `runs[x]` is the `x`-th run's cubical index and end position.
        // The leaf-set checks ask no resolver, so a wrong one cannot audit
        // clean.
        let tokens = self.members.store.tokens();
        let mut runs: Vec<(u32, usize)> =
            Vec::with_capacity(tokens.len().min(dim.cubical_space() as usize));
        for (i, &t) in tokens.iter().enumerate() {
            match runs.last_mut() {
                Some((cubical, end)) if t < (u64::from(*cubical) + 1) * d => *end = i + 1,
                _ => runs.push(((t / d) as u32, i + 1)),
            }
        }
        let q = runs.len();
        let primary = |x: usize| {
            let (cubical, end) = runs[x];
            CycloidId::new((tokens[end - 1] - u64::from(cubical) * d) as u32, cubical)
        };

        let mut states = self.members.store.iter();
        let mut start = 0;
        for (x, &(cubical, end)) in runs.iter().enumerate() {
            // Outside leaf set, shared by the whole cycle: primaries of
            // the nearest non-empty cycles either side, wrapping onto the
            // cycle's own primary when there are fewer than `R` others.
            let (out_left, out_right): (LeafSide<R>, LeafSide<R>) = ring_sides(x, q, R, R, primary);
            let (cycle, base) = (&tokens[start..end], u64::from(cubical) * d);
            let m = cycle.len();
            let member = |pos: usize| CycloidId::new((cycle[pos] - base) as u32, cubical);
            for (pos, (token, state)) in states.by_ref().take(m).enumerate() {
                report.note_checked(1);
                let id = member(pos);

                // §2.1: at most 7 (or 11) outgoing routing entries — the
                // row has no more slots — and each of the four leaf-set
                // sides holds exactly `R` entries.
                report.check(
                    token,
                    "cycloid/state-size",
                    state.inside_left.len() == R
                        && state.inside_right.len() == R
                        && state.outside_left.len() == R
                        && state.outside_right.len() == R,
                    || {
                        format!(
                            "degree {} (bound {bound}), leaf sides {}/{}/{}/{} (radius {R})",
                            state.degree(id),
                            state.inside_left.len(),
                            state.inside_right.len(),
                            state.outside_left.len(),
                            state.outside_right.len()
                        )
                    },
                );

                // A node with cyclic index 0 has no cubical or cyclic
                // neighbours (its routing table holds only leaf sets, §3.1).
                if id.cyclic == 0 {
                    report.check(
                        token,
                        "cycloid/k0-no-routing-neighbors",
                        state.cubical_neighbor.is_none()
                            && state.cyclic_smaller.is_none()
                            && state.cyclic_larger.is_none(),
                        || {
                            format!(
                                "cyclic index 0 but cubical={:?} smaller={:?} larger={:?}",
                                state.cubical_neighbor, state.cyclic_smaller, state.cyclic_larger
                            )
                        },
                    );
                }

                // Inside leaf set: the nearest live local-cycle
                // predecessors/successors — the entries either side of the
                // node in its own run, wrapping (a node alone on its cycle
                // points at itself).
                let (in_left, in_right): (LeafSide<R>, LeafSide<R>) =
                    ring_sides(pos, m, R, R, member);
                // Both leaf sets are eagerly repaired on join/leave.
                for (invariant, actual, expected) in [
                    ("cycloid/inside-leaf-set", &state.inside_left, &in_left),
                    ("cycloid/inside-leaf-set", &state.inside_right, &in_right),
                    ("cycloid/outside-leaf-set", &state.outside_left, &out_left),
                    ("cycloid/outside-leaf-set", &state.outside_right, &out_right),
                ] {
                    report.check_eq(token, invariant, actual, expected);
                }
            }
            start = end;
        }
        audit_lazy_links(self, report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::CycloidConfig;
    use crate::CycloidId;
    use dht_core::overlay::Overlay;
    use dht_core::rng::stream;

    fn net(n: usize) -> CycloidNetwork<1> {
        CycloidNetwork::with_nodes(CycloidConfig::seven_entry(5), n, 7)
    }

    #[test]
    fn stabilized_network_is_fully_clean() {
        let net = net(80);
        let report = net.audit_state(AuditScope::Full);
        assert_eq!(report.checked_nodes(), 80);
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn online_invariants_survive_graceful_churn_without_stabilization() {
        let mut net = net(60);
        let mut rng = stream(3, "cycloid-audit-churn");
        for step in 0..40 {
            if step % 3 == 0 {
                let victim = net.ids().nth(step % net.len()).unwrap();
                net.leave(victim);
            } else {
                net.join_random(&mut rng);
            }
            let report = net.audit_state(AuditScope::Online);
            assert!(report.is_clean(), "after step {step}: {report}");
        }
    }

    #[test]
    fn corrupted_cubical_neighbor_is_caught_by_name() {
        let mut net = net(80);
        let id = net.ids().find(|i| i.cyclic > 0).unwrap();
        let wrong = CycloidId::new(id.cyclic - 1, id.cubical ^ 1);
        net.node_mut(id).unwrap().cubical_neighbor = Some(wrong).into();
        let report = net.audit_state(AuditScope::Full);
        assert!(
            report
                .violated_invariants()
                .contains(&"cycloid/cubical-neighbor"),
            "{report}"
        );
        // The corruption is in lazily-stabilized state, so the online
        // audit must NOT flag it.
        assert!(net.audit_state(AuditScope::Online).is_clean());
    }

    #[test]
    fn corrupted_leaf_set_is_caught_online() {
        let mut net = net(80);
        let id = net.ids().next().unwrap();
        net.node_mut(id).unwrap().inside_right = LeafSide::new();
        let report = net.audit_state(AuditScope::Online);
        assert!(
            report
                .violated_invariants()
                .contains(&"cycloid/inside-leaf-set"),
            "{report}"
        );
    }

    #[test]
    fn short_side_is_caught_by_name() {
        // A row holds no more than `3 + 4R` entries by its type; a side
        // with fewer than `R` is what the size check can still see.
        let mut net = net(80);
        let id = net.ids().next().unwrap();
        net.node_mut(id).unwrap().outside_left = LeafSide::new();
        let report = net.audit_state(AuditScope::Online);
        assert!(
            report.violated_invariants().contains(&"cycloid/state-size"),
            "{report}"
        );
    }
}
