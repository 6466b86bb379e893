//! Regressions for the membership store behind every overlay.
//!
//! `dht_core::sim::Membership` keeps its nodes in one backend, its public
//! `store`, a `dht_core::store::CompactStore`; what that must answer is
//! pinned by the `BTreeMap` model test in `dht-core/src/sim/membership.rs`,
//! and what the eight overlay kinds do on top of it by the golden traces
//! and `tests/parallel_determinism.rs`. This file keeps the named
//! regressions the store has had — rejoins against the swap-remove
//! path, ghost query-load counters — and the bytes/node budget.

use dht_core::rng::stream;
use dht_core::store::CompactStore;
use dht_sim::factory::{build_overlay, OverlayKind};
use rand::RngCore;

/// Regression: `nth_token` stays consistent with the sorted token list
/// when the same token joins, leaves, and rejoins interleaved with other
/// churn — the swap-remove + index-patch path the store takes on every
/// removal.
#[test]
fn token_at_survives_interleaved_rejoin() {
    let mut m: CompactStore<u64> = CompactStore::new();
    for t in (0..64u64).map(|i| i * 97) {
        m.insert(t, t);
    }
    // Interleave: remove a token, churn others, re-insert it.
    for round in 0..32u64 {
        let token = (round % 64) * 97;
        assert_eq!(m.remove(token), Some(token));
        let other = ((round + 17) % 64) * 97;
        if other != token {
            m.remove(other);
            m.insert(other, other);
        }
        m.insert(token, token);
        let tokens = m.tokens();
        assert!(tokens.windows(2).all(|w| w[0] < w[1]), "sorted");
        for (i, &t) in tokens.iter().enumerate() {
            assert_eq!(m.nth_token(i), Some(t), "position {i}");
            assert_eq!(m.get(t), Some(&t), "state of {t}");
        }
        assert_eq!(m.nth_token(tokens.len()), None);
    }
    assert_eq!(m.len(), 64);
}

/// Regression for the query-load rebuild: after a counted node departs,
/// the load table must forget it entirely — no ghost entries, totals
/// equal to the surviving nodes' counts.
#[test]
fn query_loads_survive_departure_without_ghosts() {
    let mut m: CompactStore<()> = CompactStore::new();
    for t in [10u64, 20, 30, 40, 50] {
        m.insert(t, ());
    }
    for (t, k) in [(10u64, 4u64), (20, 3), (30, 2), (40, 1)] {
        m.add_load(t, k);
    }
    assert_eq!(m.loads_total(), 10);
    m.remove(20);
    assert_eq!(m.load_of(20), 0, "departed node forgotten");
    assert_eq!(m.loads_total(), 7, "total drops with it");
    assert_eq!(m.loads_vec(), vec![4, 2, 1, 0]);
    // A rejoin starts from zero, not the ghost of the old count.
    m.insert(20, ());
    assert_eq!(m.load_of(20), 0, "rejoin starts clean");
    assert_eq!(m.loads_vec(), vec![4, 0, 2, 1, 0]);
}

/// Overlay-level version of the ghost-entry check: lookups accumulate
/// loads, a node departs, and the table stays exactly the live
/// population.
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

/// CI smoke: a 10k-node Cycloid(7) stays under the documented
/// bytes/node budget (DESIGN.md §12). Measured 159.0 bytes/node: a
/// 56 B inline `NodeState<1>` row (seven 8-byte links), the dense
/// token/load columns and the hash side-table, with the slack `Vec`
/// capacity doubling leaves. The budget is that plus ~23 %, so a wider
/// row (the 88 B radius-2 one reads 210) or per-node heap fails it.
#[test]
fn cycloid_10k_bytes_per_node_budget() {
    let net = build_overlay(OverlayKind::Cycloid7, 10_000, 1);
    let bpn = net.bytes_per_node();
    assert!(bpn > 0.0, "accounting hooks are wired");
    assert!(
        bpn < 195.0,
        "Cycloid(7) at n=10k must stay under 195 bytes/node, got {bpn:.1}"
    );
}
