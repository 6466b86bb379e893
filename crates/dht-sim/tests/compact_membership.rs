//! Equivalence suite for the compact membership store.
//!
//! `dht_core::sim::Membership` keeps two interchangeable backends: the
//! original `BTreeMap` formulation (`StoreKind::Legacy`) and the
//! struct-of-arrays `CompactStore` (`StoreKind::Compact`, the default).
//! Every observable behavior — lookup traces, per-node query-load
//! tables, audit reports, and the membership's own RNG draw sequence —
//! must be identical between the two, for every overlay kind, under
//! arbitrary join/leave scripts, at any worker count. These tests pin
//! that contract; the golden traces in `results/` pin it again at the
//! repository level.

use dht_core::audit::AuditScope;
use dht_core::overlay::NodeToken;
use dht_core::rng::stream;
use dht_core::sim::{set_default_store_kind, Membership, StoreKind};
use dht_sim::factory::{build_overlay, OverlayKind, ALL_KINDS};
use proptest::prelude::*;
use rand::RngCore;

/// One membership operation of a churn script.
#[derive(Debug, Clone, Copy)]
enum Op {
    Join,
    /// Leave the node at this index into the current sorted token list.
    Leave(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![Just(Op::Join), (0usize..1024).prop_map(Op::Leave),]
}

/// Everything one run observes, in comparable form.
#[derive(Debug, Clone, PartialEq)]
struct Observed {
    tokens: Vec<NodeToken>,
    traces: Vec<String>,
    loads: Vec<u64>,
    audit: String,
    audit_clean: bool,
}

/// Builds `kind` on `store`, applies `script`, routes `lookups` keys at
/// `jobs` workers, and captures every observable output.
fn run_script(
    kind: OverlayKind,
    store: StoreKind,
    n: usize,
    script: &[Op],
    lookups: usize,
    jobs: usize,
    seed: u64,
) -> Observed {
    set_default_store_kind(store);
    let mut net = build_overlay(kind, n, seed);
    set_default_store_kind(StoreKind::Compact);
    let mut rng = stream(seed, "compact-equiv");
    for &op in script {
        match op {
            Op::Join => {
                net.join(&mut rng);
            }
            Op::Leave(i) => {
                if net.len() > 8 {
                    let victim = net.node_tokens()[i % net.len()];
                    net.leave(victim);
                }
            }
        }
    }
    let reqs: Vec<(NodeToken, u64)> = (0..lookups)
        .map(|_| {
            let src = net.random_node(&mut rng).expect("populated");
            (src, rng.next_u64())
        })
        .collect();
    let traces = net
        .lookup_batch(&reqs, jobs)
        .into_iter()
        .map(|t| format!("{t:?}"))
        .collect();
    let report = net.audit_state(AuditScope::Full);
    Observed {
        tokens: net.node_tokens(),
        traces,
        loads: net.query_loads(),
        audit: report.to_string(),
        audit_clean: report.is_clean(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The tentpole contract: for every overlay kind and arbitrary
    /// join/leave scripts, the legacy and compact backends observe the
    /// same world — same tokens, same lookup traces, same query-load
    /// table, same audit report — at one worker and at four.
    #[test]
    fn backends_are_observationally_equivalent(
        script in proptest::collection::vec(op_strategy(), 0..24),
        seed in 1u64..1 << 20,
    ) {
        for kind in ALL_KINDS {
            for jobs in [1usize, 4] {
                let legacy = run_script(kind, StoreKind::Legacy, 64, &script, 48, jobs, seed);
                let compact = run_script(kind, StoreKind::Compact, 64, &script, 48, jobs, seed);
                // The contract is equality, not cleanliness: a full-scope
                // audit may legitimately be dirty mid-churn (stabilization
                // never ran), but both backends must agree on exactly how.
                prop_assert_eq!(
                    &legacy,
                    &compact,
                    "{} diverged across store backends at jobs={}",
                    kind.label(),
                    jobs
                );
            }
        }
    }
}

/// Regression: `token_at` and the dense mirror stay consistent when the
/// same token joins, leaves, and rejoins interleaved with other churn —
/// the swap-remove + index-patch path the compact store takes on every
/// removal.
#[test]
fn token_at_survives_interleaved_rejoin() {
    for store in [StoreKind::Legacy, StoreKind::Compact] {
        let mut m: Membership<u64> = Membership::with_store_kind(7, store);
        for t in (0..64u64).map(|i| i * 97) {
            m.insert(t, t);
        }
        // Interleave: remove a token, churn others, re-insert it.
        for round in 0..32u64 {
            let token = (round % 64) * 97;
            assert_eq!(m.remove(token), Some(token), "{store:?}");
            let other = ((round + 17) % 64) * 97;
            if other != token {
                m.remove(other);
                m.insert(other, other);
            }
            m.insert(token, token);
            // The dense mirror must agree with the sorted token list at
            // every position after every rejoin.
            let tokens = m.tokens();
            assert!(tokens.windows(2).all(|w| w[0] < w[1]), "{store:?}: sorted");
            for (i, &t) in tokens.iter().enumerate() {
                assert_eq!(m.token_at(i), Some(t), "{store:?} position {i}");
                assert_eq!(m.get(t), Some(&t), "{store:?} state of {t}");
            }
            assert_eq!(m.token_at(tokens.len()), None, "{store:?}");
        }
        assert_eq!(m.len(), 64, "{store:?}");
    }
}

/// Regression for the query-load rebuild: after a counted node departs,
/// the load table must forget it entirely — no ghost entries, totals
/// equal to the surviving nodes' counts — on both backends.
#[test]
fn query_loads_survive_departure_without_ghosts() {
    for store in [StoreKind::Legacy, StoreKind::Compact] {
        let mut m: Membership<()> = Membership::with_store_kind(3, store);
        for t in [10u64, 20, 30, 40, 50] {
            m.insert(t, ());
        }
        for (t, k) in [(10u64, 4u64), (20, 3), (30, 2), (40, 1)] {
            m.add_queries(t, k);
        }
        assert_eq!(m.loads_total(), 10, "{store:?}");
        m.remove(20);
        assert_eq!(m.load_of(20), 0, "{store:?}: departed node forgotten");
        assert_eq!(m.loads_total(), 7, "{store:?}: total drops with it");
        assert_eq!(m.query_loads(), vec![4, 2, 1, 0], "{store:?}");
        // A rejoin starts from zero, not the ghost of the old count.
        m.insert(20, ());
        assert_eq!(m.load_of(20), 0, "{store:?}: rejoin starts clean");
        assert_eq!(m.query_loads(), vec![4, 0, 2, 1, 0], "{store:?}");
    }
}

/// Overlay-level version of the ghost-entry check: lookups accumulate
/// loads, a node departs, and the table stays exactly the live
/// population on the compact (default) store.
#[test]
fn overlay_query_loads_track_departures() {
    let mut net = build_overlay(OverlayKind::Cycloid7, 64, 11);
    let mut rng = stream(12, "ghost");
    for _ in 0..200 {
        let src = net.random_node(&mut rng).unwrap();
        net.lookup(src, rng.next_u64());
    }
    let before: u64 = net.query_loads().iter().sum();
    assert!(before > 0, "lookups accumulated load");
    let victim = net.node_tokens()[13];
    let victim_load = net
        .node_tokens()
        .iter()
        .zip(net.query_loads())
        .find(|&(&t, _)| t == victim)
        .map(|(_, l)| l)
        .unwrap();
    assert!(net.leave(victim));
    let loads = net.query_loads();
    assert_eq!(loads.len(), net.len(), "one entry per live node");
    assert_eq!(
        loads.iter().sum::<u64>(),
        before - victim_load,
        "departed node's count left with it"
    );
}

/// CI smoke: a 10k-node Cycloid(7) on the compact store stays under the
/// documented bytes/node budget (DESIGN.md §12). Measured ~735
/// bytes/node: ~352 B of inline `NodeState` (four fixed-width leaf
/// slots), the dense token/load columns, the hash side-table, and the
/// cycle indexes — with up to 2× slack from `Vec` capacity doubling,
/// which the budget's headroom absorbs.
#[test]
fn cycloid_10k_bytes_per_node_budget() {
    let net = build_overlay(OverlayKind::Cycloid7, 10_000, 1);
    let bpn = net.bytes_per_node();
    assert!(bpn > 0.0, "accounting hooks are wired");
    assert!(
        bpn < 900.0,
        "Cycloid(7) at n=10k must stay under 900 bytes/node, got {bpn:.1}"
    );
}
