//! The paper's headline experimental claims, verified end-to-end at
//! reduced (but meaningful) scale. Each test names the section/figure it
//! reproduces.

use cycloid_repro::prelude::*;
use dht_core::rng::stream;
use rand::{Rng, RngCore};

fn mean_path(kind: OverlayKind, n: usize, lookups: usize, seed: u64) -> f64 {
    let mut net = build_overlay(kind, n, seed);
    let tokens = net.node_tokens();
    let mut rng = stream(seed, "mp");
    let mut total = 0usize;
    for i in 0..lookups {
        let t = net.lookup(tokens[i % tokens.len()], rng.gen());
        assert!(t.outcome.is_success());
        total += t.path_len();
    }
    total as f64 / lookups as f64
}

#[test]
fn fig5_cycloid_beats_viceroy_by_2x() {
    // §4.1: "the path lengths of Viceroy are more than two times those of
    // Cycloid".
    let cyc = mean_path(OverlayKind::Cycloid7, 896, 2000, 1);
    let vic = mean_path(OverlayKind::Viceroy, 896, 2000, 1);
    assert!(
        vic > 2.0 * cyc,
        "Viceroy {vic:.2} must be > 2x Cycloid {cyc:.2}"
    );
}

#[test]
fn fig6_cycloid_shortest_constant_degree_at_equal_n() {
    // §4.1: "Cycloid leads to shorter lookup path length than Koorde in
    // networks of the same size".
    let cyc = mean_path(OverlayKind::Cycloid7, 896, 2000, 2);
    let koo = mean_path(OverlayKind::Koorde, 896, 2000, 2);
    assert!(cyc < koo, "Cycloid {cyc:.2} must beat Koorde {koo:.2}");
}

#[test]
fn fig5_path_grows_with_size_for_cycloid() {
    let small = mean_path(OverlayKind::Cycloid7, 64, 1000, 3);
    let large = mean_path(OverlayKind::Cycloid7, 2048, 1000, 3);
    assert!(large > small, "O(d) growth: {small:.2} -> {large:.2}");
    // And stays O(d): d = 8 at n = 2048.
    assert!(large < 2.0 * 8.0, "mean {large:.2} must stay below 2d");
}

#[test]
fn fig8_key_balance_cycloid_close_to_chord_viceroy_much_worse() {
    // §4.2 dense case: Cycloid ~ Koorde ~ Chord; Viceroy far worse.
    let keys: Vec<u64> = (0..50_000u64)
        .map(|i| hash_str(&format!("key{i}")))
        .collect();
    let p99 = |kind: OverlayKind| {
        let net = dht_sim::build_overlay_spaced(kind, 2000, 2048, 5);
        Summary::of_counts(&key_counts(net.as_ref(), &keys)).p99
    };
    let cyc = p99(OverlayKind::Cycloid7);
    let cho = p99(OverlayKind::Chord);
    let vic = p99(OverlayKind::Viceroy);
    assert!(
        cyc <= cho * 1.5,
        "dense Cycloid p99 {cyc} should be within 1.5x of Chord {cho}"
    );
    assert!(
        vic > cyc * 1.5,
        "Viceroy p99 {vic} should be much worse than Cycloid {cyc}"
    );
}

#[test]
fn fig9_sparse_key_balance_cycloid_beats_koorde() {
    // §4.2 sparse case (1000 nodes in a 2048 space): "Cycloid leads to a
    // more balanced key distribution than Koorde".
    let keys: Vec<u64> = (0..50_000u64)
        .map(|i| hash_str(&format!("key{i}")))
        .collect();
    let spread = |kind: OverlayKind| {
        let net = dht_sim::build_overlay_spaced(kind, 1000, 2048, 7);
        let s = Summary::of_counts(&key_counts(net.as_ref(), &keys));
        s.p99 / s.mean
    };
    let cyc = spread(OverlayKind::Cycloid7);
    let koo = spread(OverlayKind::Koorde);
    assert!(
        cyc < koo,
        "sparse Cycloid relative p99 {cyc:.2} must beat Koorde {koo:.2}"
    );
}

#[test]
fn fig10_cycloid_smallest_query_load_variation() {
    // §4.2: "Cycloid exhibits the smallest variation of the query load, in
    // comparison with other constant-degree DHTs."
    // The paper measures complete networks (64 and 2048 nodes); use the
    // 2048-node point.
    let spread = |kind: OverlayKind| {
        let mut net = build_overlay(kind, 2048, 9);
        net.reset_query_loads();
        let tokens = net.node_tokens();
        let mut rng = stream(9, kind.label());
        for &src in &tokens {
            for _ in 0..8 {
                let _ = net.lookup(src, rng.gen());
            }
        }
        let s = Summary::of_counts(&net.query_loads());
        (s.p99 - s.p01) / s.mean
    };
    let cyc = spread(OverlayKind::Cycloid7);
    let vic = spread(OverlayKind::Viceroy);
    let koo = spread(OverlayKind::Koorde);
    assert!(cyc < vic, "Cycloid {cyc:.2} must beat Viceroy {vic:.2}");
    // Against Koorde the two are comparable in our accounting (Koorde's
    // even-ID hot spots versus Cycloid's hot primaries / cold low-cyclic
    // nodes) — see EXPERIMENTS.md for the discussion of this delta from
    // the paper's "smallest variation" claim.
    assert!(
        cyc < 2.0 * koo,
        "Cycloid {cyc:.2} must stay comparable to Koorde {koo:.2}"
    );
}

#[test]
fn fig11_mass_departures_cycloid_succeeds_viceroy_shrinks_koorde_fails() {
    // §4.3, all three headline behaviours in one scenario at p = 0.5.
    let run = |kind: OverlayKind| {
        let mut net = build_overlay(kind, 2048, 11);
        let mut rng = stream(11, kind.label());
        for token in net.node_tokens() {
            if rng.gen_bool(0.5) {
                net.leave(token);
            }
        }
        let tokens = net.node_tokens();
        let mut failures = 0usize;
        let mut timeouts = 0u64;
        let mut hops = 0usize;
        let lookups = 2000;
        for i in 0..lookups {
            let t = net.lookup(tokens[i % tokens.len()], rng.gen());
            if !t.outcome.is_success() {
                failures += 1;
            }
            timeouts += u64::from(t.timeouts);
            hops += t.path_len();
        }
        (failures, timeouts, hops as f64 / lookups as f64)
    };
    let (cyc_fail, cyc_touts, _) = run(OverlayKind::Cycloid7);
    assert_eq!(cyc_fail, 0, "Cycloid resolves every lookup at p=0.5");
    assert!(cyc_touts > 0, "Cycloid must observe timeouts at p=0.5");

    let (vic_fail, vic_touts, vic_path) = run(OverlayKind::Viceroy);
    assert_eq!(vic_fail, 0);
    assert_eq!(vic_touts, 0, "Viceroy never times out");
    // §4.3: Viceroy's path shrinks towards the half-size network's.
    let vic_full = mean_path(OverlayKind::Viceroy, 2048, 1000, 13);
    assert!(
        vic_path < vic_full,
        "after p=0.5 Viceroy path {vic_path:.2} < steady {vic_full:.2}"
    );

    let (koo_fail, _, _) = run(OverlayKind::Koorde);
    assert!(koo_fail > 0, "Koorde must fail some lookups at p=0.5");
}

#[test]
fn fig13_sparsity_leaves_cycloid_unharmed_but_slows_koorde() {
    // §4.5: Cycloid keeps its location efficiency as the space empties;
    // Koorde's path length grows as participants drop (at fixed ring
    // width).
    let cyc_dense = mean_path(OverlayKind::Cycloid7, 2048, 1500, 15);
    let cyc_at = |count: usize| {
        // Sparse population of the same 2048-slot space.
        let mut net = dht_sim::build_overlay_spaced(OverlayKind::Cycloid7, count, 2048, 15);
        let tokens = net.node_tokens();
        let mut rng = stream(15, "cs");
        let mut total = 0usize;
        for i in 0..1500 {
            let t = net.lookup(tokens[i % tokens.len()], rng.gen());
            assert!(t.outcome.is_success());
            total += t.path_len();
        }
        total as f64 / 1500.0
    };
    // "the mean path length decreases slightly with the decrease of
    // network size": strictly shorter at 60% sparsity, and even at 90%
    // sparsity within a hop of the dense value (no Koorde-style blow-up).
    let cyc_mid = cyc_at(819);
    let cyc_sparse = cyc_at(205);
    assert!(
        cyc_mid < cyc_dense,
        "60%-sparse Cycloid {cyc_mid:.2} must be shorter than dense {cyc_dense:.2}"
    );
    assert!(
        cyc_sparse <= cyc_dense + 1.0,
        "90%-sparse Cycloid {cyc_sparse:.2} must stay near dense {cyc_dense:.2}"
    );

    // Koorde at fixed 2^11 ring: dense 2048 vs 60%-sparse 819 nodes.
    let koorde_at = |count: usize| {
        let mut net = KoordeNetwork::with_nodes(KoordeConfig::new(11), count, 17);
        let ids = net.node_tokens();
        let mut rng = stream(17, "ks");
        let mut total = 0usize;
        for i in 0..1500 {
            let t = net.lookup(ids[i % ids.len()], rng.gen());
            assert!(t.outcome.is_success());
            total += t.path_len();
        }
        total as f64 / 1500.0
    };
    let dense = koorde_at(2048);
    let sparse = koorde_at(819);
    assert!(
        sparse > dense,
        "sparse Koorde {sparse:.2} must exceed dense {dense:.2}"
    );
}

#[test]
fn table1_cycloid_is_the_only_o_d_constant_degree_dht() {
    let cyc = build_overlay(OverlayKind::Cycloid7, 64, 19);
    assert_eq!(cyc.degree_bound(), Some(7));
    // And it actually achieves O(d) routing in the complete network.
    let mut complete = CycloidNetwork::complete(CycloidConfig::seven_entry(6));
    let ids: Vec<CycloidId> = complete.ids().collect();
    let mut rng = stream(19, "t1");
    for _ in 0..500 {
        let s = ids[(rng.next_u64() % ids.len() as u64) as usize];
        let d = ids[(rng.next_u64() % ids.len() as u64) as usize];
        let t = complete.route_to_id(s, d);
        assert!(t.outcome.is_success());
        assert!(
            t.path_len() <= 3 * 6,
            "O(d) bound violated: {}",
            t.path_len()
        );
    }
}
