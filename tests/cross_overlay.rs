//! Cross-overlay invariants: every DHT in the suite must satisfy the same
//! contract under the `Overlay` trait, whatever its internal geometry.

use cycloid_repro::prelude::*;
use dht_core::rng::stream;
use dht_sim::EXTENDED_KINDS;
use rand::Rng;

const SIZES: [usize; 3] = [24, 160, 896];

#[test]
fn lookups_terminate_at_the_owner_everywhere() {
    for kind in PAPER_KINDS {
        for n in SIZES {
            let mut net = build_overlay(kind, n, 0xA11CE);
            let mut rng = stream(1, kind.label());
            let tokens = net.node_tokens();
            for i in 0..300 {
                let src = tokens[i % tokens.len()];
                let raw: u64 = rng.gen();
                let owner = net.owner_of(raw).expect("non-empty network");
                let t = net.lookup(src, raw);
                assert!(
                    t.outcome.is_success(),
                    "{} n={n} lookup {i}: {:?}",
                    kind.label(),
                    t.outcome
                );
                assert_eq!(t.terminal, owner, "{} n={n} lookup {i}", kind.label());
            }
        }
    }
}

#[test]
fn lookup_traces_are_deterministic() {
    for kind in PAPER_KINDS {
        let run = || {
            let mut net = build_overlay(kind, 160, 7);
            let tokens = net.node_tokens();
            let mut rng = stream(2, "det");
            (0..100)
                .map(|i| {
                    let t = net.lookup(tokens[i % tokens.len()], rng.gen());
                    (t.path_len(), t.timeouts, t.terminal)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run(), "{} must be deterministic", kind.label());
    }
}

#[test]
fn key_ownership_partitions_the_key_space() {
    // Every key has exactly one owner, and owners are live nodes.
    for kind in PAPER_KINDS {
        let net = build_overlay(kind, 384, 11);
        let tokens: std::collections::HashSet<_> = net.node_tokens().into_iter().collect();
        let mut rng = stream(3, "own");
        for _ in 0..500 {
            let raw: u64 = rng.gen();
            let owner = net.owner_of(raw).expect("non-empty");
            assert!(
                tokens.contains(&owner),
                "{}: owner {owner} is not live",
                kind.label()
            );
        }
    }
}

#[test]
fn query_load_totals_match_path_lengths() {
    // Each lookup touches 1 (source) + path_len nodes; the query-load
    // counters must account for exactly that.
    for kind in PAPER_KINDS {
        let mut net = build_overlay(kind, 160, 13);
        net.reset_query_loads();
        let tokens = net.node_tokens();
        let mut rng = stream(4, "load");
        let mut expected = 0u64;
        for i in 0..200 {
            let t = net.lookup(tokens[i % tokens.len()], rng.gen());
            expected += 1 + t.path_len() as u64;
        }
        let total: u64 = net.query_loads().iter().sum();
        assert_eq!(total, expected, "{} query accounting", kind.label());
    }
}

#[test]
fn join_then_leave_restores_lookup_correctness() {
    for kind in PAPER_KINDS {
        // 100 nodes leaves free identifier slots in every overlay's space
        // (Cycloid picks d = 5, a 160-slot space).
        let mut net = build_overlay(kind, 100, 17);
        let mut rng = stream(5, kind.label());
        let mut joined = Vec::new();
        for _ in 0..16 {
            if let Some(t) = net.join(&mut rng) {
                joined.push(t);
            }
        }
        assert_eq!(net.len(), 116, "{}", kind.label());
        for t in joined {
            assert!(net.leave(t), "{}", kind.label());
        }
        assert_eq!(net.len(), 100, "{}", kind.label());
        net.stabilize();
        let tokens = net.node_tokens();
        for i in 0..100 {
            let t = net.lookup(tokens[i % tokens.len()], rng.gen());
            assert!(t.outcome.is_success(), "{} post-churn", kind.label());
            assert_eq!(t.timeouts, 0, "{} stabilized => no timeouts", kind.label());
        }
    }
}

#[test]
fn constant_degree_dhts_report_constant_bounds() {
    for (kind, expected) in [
        (OverlayKind::Cycloid7, Some(7)),
        (OverlayKind::Cycloid11, Some(11)),
        (OverlayKind::Viceroy, Some(7)),
        (OverlayKind::Koorde, Some(7)),
        (OverlayKind::Chord, None),
    ] {
        let net = build_overlay(kind, 128, 19);
        assert_eq!(net.degree_bound(), expected, "{}", kind.label());
    }
}

#[test]
fn empty_reset_and_len_contracts() {
    for kind in EXTENDED_KINDS {
        let mut net = build_overlay(kind, 24, 23);
        assert!(!net.is_empty());
        assert_eq!(net.node_tokens().len(), net.len());
        net.reset_query_loads();
        assert!(net.query_loads().iter().all(|&q| q == 0));
        assert_eq!(net.query_loads().len(), net.len());
    }
}

#[test]
fn substrate_load_accounting_tracks_membership() {
    // The shared simulation substrate keeps one load counter per live
    // node, in lockstep with membership, for every overlay kind:
    // `query_loads()` always matches `len()`, counters conserve lookup
    // traffic until `reset_query_loads` zeroes them, and churn of other
    // nodes never disturbs the surviving nodes' tokens.
    for kind in dht_sim::ALL_KINDS {
        let mut net = build_overlay(kind, 64, 31);
        let mut rng = stream(7, kind.label());

        // Lockstep: one counter per live node, before and after traffic.
        assert_eq!(net.query_loads().len(), net.len(), "{}", kind.label());
        let tokens = net.node_tokens();
        let mut expected = 0u64;
        for i in 0..120 {
            let t = net.lookup(tokens[i % tokens.len()], rng.gen());
            expected += 1 + t.path_len() as u64;
        }
        assert_eq!(net.query_loads().len(), net.len(), "{}", kind.label());

        // Conservation: counters sum to exactly the visits made, and a
        // reset drops the total to zero without touching membership.
        assert_eq!(
            net.query_loads().iter().sum::<u64>(),
            expected,
            "{} conserves lookup visits",
            kind.label()
        );
        net.reset_query_loads();
        assert_eq!(net.query_loads().iter().sum::<u64>(), 0, "{}", kind.label());
        assert_eq!(net.query_loads().len(), net.len(), "{}", kind.label());

        // Token stability: joining and removing other nodes leaves the
        // original population's tokens intact.
        let before: std::collections::BTreeSet<_> = net.node_tokens().into_iter().collect();
        let mut joined = Vec::new();
        for _ in 0..8 {
            if let Some(t) = net.join(&mut rng) {
                joined.push(t);
            }
        }
        for t in joined {
            assert!(net.leave(t), "{}", kind.label());
        }
        let after: std::collections::BTreeSet<_> = net.node_tokens().into_iter().collect();
        assert_eq!(before, after, "{} token stability", kind.label());
        assert_eq!(net.query_loads().len(), net.len(), "{}", kind.label());
    }
}

#[test]
fn extension_baselines_honour_the_same_contract() {
    // Pastry and CAN (the Table 1 extension baselines) satisfy the same
    // Overlay contract the paper's systems do, at moderate sizes.
    for kind in [OverlayKind::Pastry, OverlayKind::Can] {
        for n in [24usize, 160] {
            let mut net = build_overlay(kind, n, 29);
            let mut rng = stream(6, kind.label());
            let tokens = net.node_tokens();
            net.reset_query_loads();
            let mut expected = 0u64;
            for i in 0..150 {
                let raw: u64 = rng.gen();
                let owner = net.owner_of(raw).expect("non-empty");
                let t = net.lookup(tokens[i % tokens.len()], raw);
                assert!(t.outcome.is_success(), "{} n={n}", kind.label());
                assert_eq!(t.terminal, owner, "{} n={n}", kind.label());
                expected += 1 + t.path_len() as u64;
            }
            assert_eq!(
                net.query_loads().iter().sum::<u64>(),
                expected,
                "{} query accounting",
                kind.label()
            );
            // Churn through the trait.
            let j = net.join(&mut rng).expect("space not full");
            assert!(net.leave(j), "{}", kind.label());
            net.stabilize();
            let tokens = net.node_tokens();
            for i in 0..50 {
                let t = net.lookup(tokens[i % tokens.len()], rng.gen());
                assert!(t.outcome.is_success(), "{} post-churn", kind.label());
            }
        }
    }
}

#[test]
fn full_round_stabilize_is_a_run_over_every_token() {
    // `stabilize()` is one full round: the same state, audit and lookups
    // as `stabilize_nodes` over every live token, after a seeded fifth of
    // the network fails without notice — and the round heals it.
    for kind in dht_sim::ALL_KINDS {
        let build = || {
            let mut net = build_overlay(kind, 512, 37);
            let mut tokens = net.node_tokens();
            let mut rng = stream(8, kind.label());
            for _ in 0..tokens.len() / 5 {
                let victim = tokens.swap_remove(rng.gen_range(0..tokens.len()));
                assert!(net.fail(victim), "{}", kind.label());
            }
            net
        };
        let (mut round, mut run) = (build(), build());
        round.stabilize();
        let tokens = run.node_tokens();
        run.stabilize_nodes(&tokens);
        let full = round.audit_state(AuditScope::Full);
        assert_eq!(
            format!("{full:?}"),
            format!("{:?}", run.audit_state(AuditScope::Full)),
            "{} full audit",
            kind.label()
        );
        assert!(full.is_clean(), "{}: {full}", kind.label());
        let mut rng = stream(9, "batch");
        let reqs: Vec<(NodeToken, u64)> = (0..200)
            .map(|i| (tokens[i % tokens.len()], rng.gen()))
            .collect();
        for net in [&mut round, &mut run] {
            net.reset_query_loads();
        }
        assert_eq!(
            format!("{:?}", round.lookup_batch(&reqs, 1)),
            format!("{:?}", run.lookup_batch(&reqs, 1)),
            "{} traces",
            kind.label()
        );
        assert_eq!(
            round.query_loads(),
            run.query_loads(),
            "{} query loads",
            kind.label()
        );
    }
}
