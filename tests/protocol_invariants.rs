//! Property-based protocol invariants: arbitrary join/leave sequences
//! must leave every overlay in a state where the notification-maintained
//! pointers are exactly correct and lookups resolve.

use cycloid::{CycloidConfig, CycloidNetwork, NodeState};
use cycloid_repro::prelude::*;
use dht_core::rng::stream;
use dht_core::sim::RefreshInto;
use dht_core::store::Hints;
use proptest::prelude::*;
use rand::Rng;

/// A churn script: for each step, `true` = a join, `false` = a leave of a
/// pseudo-randomly chosen node.
fn churn_script() -> impl Strategy<Value = Vec<bool>> {
    prop::collection::vec(any::<bool>(), 1..60)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn cycloid_leaf_sets_exact_after_any_churn(script in churn_script(), seed in 0u64..1000) {
        let mut net = CycloidNetwork::with_nodes(CycloidConfig::seven_entry(7), 80, seed);
        let mut rng = stream(seed, "churn-script");
        for &join in &script {
            if join {
                let _ = net.join_random(&mut rng);
            } else if net.len() > 4 {
                let ids: Vec<_> = net.ids().collect();
                let victim = ids[(rng.gen::<u64>() % ids.len() as u64) as usize];
                net.leave(victim);
            }
        }
        // Invariant: every node's leaf sets equal what a fresh resolution
        // over the live membership produces — the notification chains of
        // §3.3 keep them exact without global stabilization.
        for id in net.ids().collect::<Vec<_>>() {
            let state = net.node(id).unwrap().clone();
            let mut fresh = NodeState::default();
            assert!(net.refresh_into(id.linear(net.dim()), &mut Hints::default(), &mut fresh));
            let (in_l, in_r) = (fresh.inside_left, fresh.inside_right);
            let (out_l, out_r) = (fresh.outside_left, fresh.outside_right);
            prop_assert_eq!(&state.inside_left, &in_l, "inside-left of {}", id);
            prop_assert_eq!(&state.inside_right, &in_r, "inside-right of {}", id);
            prop_assert_eq!(&state.outside_left, &out_l, "outside-left of {}", id);
            prop_assert_eq!(&state.outside_right, &out_r, "outside-right of {}", id);
        }
    }

    #[test]
    fn cycloid_lookups_resolve_after_any_churn(script in churn_script(), seed in 0u64..1000) {
        let mut net = CycloidNetwork::with_nodes(CycloidConfig::seven_entry(7), 60, seed);
        let mut rng = stream(seed, "lookup-script");
        for &join in &script {
            if join {
                let _ = net.join_random(&mut rng);
            } else if net.len() > 4 {
                let ids: Vec<_> = net.ids().collect();
                let victim = ids[(rng.gen::<u64>() % ids.len() as u64) as usize];
                net.leave(victim);
            }
        }
        let ids: Vec<_> = net.ids().collect();
        for i in 0..40 {
            let src = ids[i % ids.len()];
            let raw: u64 = rng.gen();
            let t = net.route(src, raw);
            prop_assert!(t.outcome.is_success(), "lookup from {} ended {:?}", src, t.outcome);
        }
    }

    #[test]
    fn ring_overlays_keep_rings_consistent(script in churn_script(), seed in 0u64..1000) {
        for kind in [OverlayKind::Chord, OverlayKind::Koorde] {
            let mut net = build_overlay(kind, 50, seed);
            let mut rng = stream(seed, kind.label());
            for &join in &script {
                if join {
                    let _ = net.join(&mut rng);
                } else if net.len() > 4 {
                    let toks = net.node_tokens();
                    let victim = toks[(rng.gen::<u64>() % toks.len() as u64) as usize];
                    net.leave(victim);
                }
            }
            // Chord's leaf-set-free routing still always resolves: its
            // fallback is the (repaired) successor list. Koorde may
            // legitimately *fail* a lookup when a de Bruijn pointer and
            // all its backups died (§4.3) — but it must never return a
            // wrong owner, and stabilization must restore full
            // correctness.
            let toks = net.node_tokens();
            for i in 0..30 {
                let t = net.lookup(toks[i % toks.len()], rng.gen());
                match kind {
                    OverlayKind::Chord => prop_assert!(
                        t.outcome.is_success(),
                        "Chord lookup ended {:?}",
                        t.outcome
                    ),
                    _ => prop_assert!(
                        matches!(
                            t.outcome,
                            LookupOutcome::Found | LookupOutcome::Stuck
                        ),
                        "Koorde lookup ended {:?}",
                        t.outcome
                    ),
                }
            }
            net.stabilize();
            let toks = net.node_tokens();
            for i in 0..30 {
                let t = net.lookup(toks[i % toks.len()], rng.gen());
                prop_assert!(
                    t.outcome.is_success(),
                    "{} post-stabilization lookup ended {:?}",
                    kind.label(),
                    t.outcome
                );
            }
        }
    }

    #[test]
    fn cycloid_audit_stays_clean_under_any_churn(script in churn_script(), seed in 0u64..1000) {
        // The audit layer re-derives the §3 invariants from scratch; after
        // any interleaving of joins and graceful leaves the online scope
        // must hold at every step, and the full scope (which adds the
        // lazily-repaired cubical/cyclic pointers) after stabilization.
        let mut net = CycloidNetwork::with_nodes(CycloidConfig::seven_entry(7), 80, seed);
        let mut rng = stream(seed, "audit-script");
        for (step, &join) in script.iter().enumerate() {
            if join {
                let _ = net.join_random(&mut rng);
            } else if net.len() > 4 {
                let ids: Vec<_> = net.ids().collect();
                let victim = ids[(rng.gen::<u64>() % ids.len() as u64) as usize];
                net.leave(victim);
            }
            let report = net.audit_state(AuditScope::Online);
            prop_assert!(report.is_clean(), "after step {}: {}", step, report);
        }
        net.stabilize();
        let report = net.audit_state(AuditScope::Full);
        prop_assert!(report.is_clean(), "after stabilization: {}", report);
        prop_assert_eq!(report.checked_nodes(), net.len());
    }

    #[test]
    fn owner_is_stable_under_unrelated_churn(seed in 0u64..500) {
        // Adding or removing nodes far from a key must not change its
        // owner unless the owner itself is affected.
        let mut net = CycloidNetwork::with_nodes(CycloidConfig::seven_entry(8), 100, seed);
        let raw = 0xfeed_f00d_u64 ^ seed;
        let owner_before = net.owner_of_key(net.key_of(raw)).unwrap();
        let mut rng = stream(seed, "unrelated");
        // Leave a node that is not the owner.
        let victim = net
            .ids()
            .find(|&id| id != owner_before)
            .expect("network has >1 node");
        net.leave(victim);
        let owner_after = net.owner_of_key(net.key_of(raw)).unwrap();
        prop_assert_eq!(owner_before, owner_after);
        // Join someone; the owner may only change if the newcomer is
        // closer.
        if let Some(newcomer) = net.join_random(&mut rng) {
            let owner_final = net.owner_of_key(net.key_of(raw)).unwrap();
            prop_assert!(owner_final == owner_before || owner_final == newcomer);
        }
    }
}

/// Replays one recorded proptest regression (a churn script that once
/// broke the leaf-set invariant) and then drives the repair-enabled
/// path over the survivor network: every corruption strategy must be
/// repaired back to both audit-clean *and* exact leaf sets. The scripts
/// come from `protocol_invariants.proptest-regressions`; naming them
/// keeps the cases pinned even if that file is ever pruned.
fn replay_regression_through_repair(script: &[bool], seed: u64) {
    use dht_core::corrupt::{CorruptionPlan, CorruptionStrategy};

    for strategy in CorruptionStrategy::ALL {
        let mut net = CycloidNetwork::with_nodes(CycloidConfig::seven_entry(7), 80, seed);
        let mut rng = stream(seed, "churn-script");
        for &join in script {
            if join {
                let _ = net.join_random(&mut rng);
            } else if net.len() > 4 {
                let ids: Vec<_> = net.ids().collect();
                let victim = ids[(rng.gen::<u64>() % ids.len() as u64) as usize];
                net.leave(victim);
            }
        }
        net.stabilize();
        assert!(
            net.audit_state(AuditScope::Full).is_clean(),
            "{strategy:?} seed={seed}: post-churn baseline dirty"
        );

        net.corrupt_state(&CorruptionPlan::new(strategy, 0.5, seed));
        assert!(
            !net.audit_state(AuditScope::Full).is_clean(),
            "{strategy:?} seed={seed}: corruption evaded the audit"
        );
        for token in net.node_tokens() {
            net.repair_node(token);
        }
        let report = net.audit_state(AuditScope::Full);
        assert!(report.is_clean(), "{strategy:?} seed={seed}: {report}");
        // The original regression's invariant, re-proven after repair:
        // every leaf set equals a fresh resolution over the membership.
        for id in net.ids().collect::<Vec<_>>() {
            let state = net.node(id).unwrap().clone();
            let mut fresh = NodeState::default();
            assert!(net.refresh_into(id.linear(net.dim()), &mut Hints::default(), &mut fresh));
            let (in_l, in_r) = (fresh.inside_left, fresh.inside_right);
            let (out_l, out_r) = (fresh.outside_left, fresh.outside_right);
            assert_eq!(state.inside_left, in_l, "{strategy:?} inside-left of {id}");
            assert_eq!(
                state.inside_right, in_r,
                "{strategy:?} inside-right of {id}"
            );
            assert_eq!(
                state.outside_left, out_l,
                "{strategy:?} outside-left of {id}"
            );
            assert_eq!(
                state.outside_right, out_r,
                "{strategy:?} outside-right of {id}"
            );
        }
    }
}

#[test]
fn regression_seed_54_churn_script_repairs_clean() {
    replay_regression_through_repair(
        &[
            true, true, false, false, true, true, true, false, false, false, true, false, false,
            false, false, false, false, false, true, true, false, true, true, true, false, false,
            false, false, false, true, true, true, true, true, false, true, false, false, true,
            false, true, true, true, false,
        ],
        54,
    );
}

#[test]
fn regression_seed_538_churn_script_repairs_clean() {
    replay_regression_through_repair(
        &[
            false, true, false, true, true, false, false, true, false, true, false, false, false,
            true, false, true, false, true, true, true, false, true, false, false, false, true,
            true, true, true, false, true, true, false, false, false,
        ],
        538,
    );
}

#[test]
fn cycloid_join_equals_bulk_construction() {
    // Building a network by protocol joins and then stabilizing must give
    // the same routing state as bulk construction with the same member
    // set.
    let mut by_joins = CycloidNetwork::new(CycloidConfig::seven_entry(6), 99);
    let mut rng = stream(99, "bulk");
    let mut members = Vec::new();
    for _ in 0..64 {
        if let Some(id) = by_joins.join_random(&mut rng) {
            members.push(id);
        }
    }
    by_joins.stabilize();

    let mut bulk = CycloidNetwork::new(CycloidConfig::seven_entry(6), 100);
    for &id in &members {
        assert!(bulk.join_id(id));
    }
    bulk.stabilize();

    for &id in &members {
        let a = by_joins.node(id).unwrap();
        let b = bulk.node(id).unwrap();
        assert_eq!(a.cubical_neighbor, b.cubical_neighbor, "{id}");
        assert_eq!(a.cyclic_larger, b.cyclic_larger, "{id}");
        assert_eq!(a.cyclic_smaller, b.cyclic_smaller, "{id}");
        assert_eq!(a.inside_left, b.inside_left, "{id}");
        assert_eq!(a.outside_right, b.outside_right, "{id}");
    }
}
