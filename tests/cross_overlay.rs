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

#[test]
fn a_lookup_that_ends_within_its_budget_is_found_only_at_the_owner() {
    // One rule for every kind, whichever way a walk ends: by the holder's
    // own decision or with no live candidate left. Half of each network
    // crashes without notice and nothing stabilizes, so many walks run
    // out of live candidates.
    for kind in dht_sim::ALL_KINDS {
        let mut net = build_overlay(kind, 2048, 41);
        let mut crash = stream(11, kind.label());
        for token in net.node_tokens() {
            if crash.gen_bool(0.5) {
                net.fail(token);
            }
        }
        let tokens = net.node_tokens();
        let mut rng = stream(12, kind.label());
        for i in 0..4000 {
            let raw: u64 = rng.gen();
            // CAN names no owner for a key in an orphaned zone.
            let owner = net.owner_of(raw);
            let t = net.lookup(tokens[rng.gen_range(0..tokens.len())], raw);
            if t.outcome == LookupOutcome::HopBudgetExhausted {
                continue;
            }
            assert_eq!(
                t.outcome.is_success(),
                Some(t.terminal) == owner,
                "{} lookup {i}: {:?} at {}, owner {owner:?}",
                kind.label(),
                t.outcome,
                t.terminal
            );
        }
    }
}

/// One constant per drawn build, as the build is today: `(kind, n, seed,
/// fold)`. The fold is [`drawn_build_fold`].
const DRAWN_BUILDS: [(OverlayKind, usize, u64, u64); 48] = [
    (OverlayKind::Cycloid7, 250, 3, 0xa025b49e4d9824d8),
    (OverlayKind::Cycloid7, 250, 2004, 0xeaabafb3373af516),
    (OverlayKind::Cycloid7, 1000, 3, 0xb987c3de3f044021),
    (OverlayKind::Cycloid7, 1000, 2004, 0xd83ef4fb7fe7cb8d),
    (OverlayKind::Cycloid7, 4096, 3, 0x5efefdb1547695b1),
    (OverlayKind::Cycloid7, 4096, 2004, 0xe964458c9b99820d),
    (OverlayKind::Cycloid7, 20000, 3, 0xbd46846f3586c4a0),
    (OverlayKind::Cycloid7, 20000, 2004, 0xecfc778072eb3e2d),
    (OverlayKind::Cycloid11, 250, 3, 0x3e0977c46410af90),
    (OverlayKind::Cycloid11, 250, 2004, 0xc92bcd38559badeb),
    (OverlayKind::Cycloid11, 1000, 3, 0x7b3a0836adf47830),
    (OverlayKind::Cycloid11, 1000, 2004, 0x0a7d866502ea68cd),
    (OverlayKind::Cycloid11, 4096, 3, 0xd415374b07fa9829),
    (OverlayKind::Cycloid11, 4096, 2004, 0xf222cc34fc7fb4d3),
    (OverlayKind::Cycloid11, 20000, 3, 0xf92aa545cf30c295),
    (OverlayKind::Cycloid11, 20000, 2004, 0xa973a99b3355451d),
    (OverlayKind::Koorde, 250, 3, 0x8469f5abdc9d728d),
    (OverlayKind::Koorde, 250, 2004, 0xc60be47cde333ced),
    (OverlayKind::Koorde, 1000, 3, 0xeefedb106507528c),
    (OverlayKind::Koorde, 1000, 2004, 0x253d2fc4482366ab),
    (OverlayKind::Koorde, 4096, 3, 0x0e8062a5f34d6300),
    (OverlayKind::Koorde, 4096, 2004, 0x905580d8051ac779),
    (OverlayKind::Koorde, 20000, 3, 0x3a9d89812bbab2b5),
    (OverlayKind::Koorde, 20000, 2004, 0x2696663a5d6a31bb),
    (OverlayKind::KoordeBestFit, 250, 3, 0xe69a6501376588c9),
    (OverlayKind::KoordeBestFit, 250, 2004, 0xee8bc4ed87ec6a20),
    (OverlayKind::KoordeBestFit, 1000, 3, 0x9b081dddd8654d9c),
    (OverlayKind::KoordeBestFit, 1000, 2004, 0xb6977da4739de5da),
    (OverlayKind::KoordeBestFit, 4096, 3, 0x0e8062a5f34d6300),
    (OverlayKind::KoordeBestFit, 4096, 2004, 0x905580d8051ac779),
    (OverlayKind::KoordeBestFit, 20000, 3, 0x3f5f1609d9b58f0d),
    (OverlayKind::KoordeBestFit, 20000, 2004, 0x6c462f99f994078a),
    (OverlayKind::Chord, 250, 3, 0x1fc18dd84e45effc),
    (OverlayKind::Chord, 250, 2004, 0xfeb69a68bc2beb08),
    (OverlayKind::Chord, 1000, 3, 0x2a59f6b902897740),
    (OverlayKind::Chord, 1000, 2004, 0x7a536049d3eb5db4),
    (OverlayKind::Chord, 4096, 3, 0xb45c0129651408a2),
    (OverlayKind::Chord, 4096, 2004, 0x6f99ab469df3547e),
    (OverlayKind::Chord, 20000, 3, 0xc98d1d71bd7348a5),
    (OverlayKind::Chord, 20000, 2004, 0x3a90b073f8d001be),
    (OverlayKind::Pastry, 250, 3, 0xf5cc51c2a542fd08),
    (OverlayKind::Pastry, 250, 2004, 0xbb093ea5c96244b3),
    (OverlayKind::Pastry, 1000, 3, 0x47b54406eb6a1ba0),
    (OverlayKind::Pastry, 1000, 2004, 0x579a082f31656cb9),
    (OverlayKind::Pastry, 4096, 3, 0xaf079f9d1ce431e7),
    (OverlayKind::Pastry, 4096, 2004, 0x5ddb5301cfd8247b),
    (OverlayKind::Pastry, 20000, 3, 0x93b3179e1a5da250),
    (OverlayKind::Pastry, 20000, 2004, 0xe50adc3cffe86e31),
];

/// Folds what a drawn build decides into one number: the live tokens,
/// the heap the store holds while it is one chunk (`bytes_per_node`'s
/// bits), the traces of 256 lookups, and the token the next join draws,
/// which is where the build left the identifier allocator. A build that
/// fills its space first fails every fourth node, so the join has free
/// identifiers to draw among.
fn drawn_build_fold(kind: OverlayKind, n: usize, seed: u64) -> u64 {
    let mut net = build_overlay(kind, n, seed);
    let what = format!("{} n={n} seed={seed}", kind.label());
    let audit = net.audit_state(AuditScope::Full);
    assert!(audit.is_clean(), "{what}: {audit}");
    let tokens = net.node_tokens();
    let mut fold = hash_str(&format!("{tokens:?}"));
    let mut mix = |x: u64| fold = dht_core::hash::splitmix64(fold ^ x);
    if n < dht_core::store::CHUNK_CAP {
        mix(net.bytes_per_node().to_bits());
    }
    let mut rng = stream(10, "drawn-builds");
    for i in 0..256 {
        let trace = net.lookup(tokens[(i * 37) % tokens.len()], rng.gen());
        mix(hash_str(&format!("{trace:?}")));
    }
    if net.len() as u64 == tokens.last().map_or(0, |&t| t + 1) {
        tokens.iter().step_by(4).for_each(|&t| assert!(net.fail(t)));
    }
    mix(net.join(&mut rng).expect("the space has room"));
    fold
}

#[test]
fn drawn_builds_are_pinned() {
    // Every kind whose build draws its identifiers through `Membership`
    // (CAN splits zones; Viceroy draws a level per node) builds the same
    // network, holds the same heap while it is one chunk, routes the same
    // and leaves the allocator where it was, size by size and seed by
    // seed.
    let kinds = [
        OverlayKind::Cycloid7,
        OverlayKind::Cycloid11,
        OverlayKind::Koorde,
        OverlayKind::KoordeBestFit,
        OverlayKind::Chord,
        OverlayKind::Pastry,
    ];
    let mut got = Vec::new();
    for kind in kinds {
        for n in [250, 1_000, 4_096, 20_000] {
            for seed in [3, 2004] {
                got.push((kind, n, seed, drawn_build_fold(kind, n, seed)));
            }
        }
    }
    let table: String = got
        .iter()
        .map(|(kind, n, seed, fold)| {
            format!("    (OverlayKind::{kind:?}, {n}, {seed}, {fold:#018x}),\n")
        })
        .collect();
    assert_eq!(got, DRAWN_BUILDS, "measured:\n{table}");
}
