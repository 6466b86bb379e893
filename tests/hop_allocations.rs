//! A hop must not allocate: `SimOverlay::next_hop` fills a candidate
//! buffer the walk engine reuses, and Cycloid sorts its plan on the
//! stack. What a *lookup* may still allocate is a handful of growing
//! vectors (the hop-phase list, the visited nodes, the trace), so the
//! bound below is per lookup, not per hop — one allocation per hop
//! breaks it at once on Viceroy (~80 hops a lookup at this size) and
//! Koorde (~30).
//!
//! The counting allocator (`common/counting.rs`) is this test binary's
//! only; every library crate stays `#![forbid(unsafe_code)]`.

#[path = "common/counting.rs"]
mod counting;

use counting::allocations;
use dht_core::rng::stream_indexed;
use dht_sim::{build_overlay, OverlayKind, ALL_KINDS};
use rand::Rng;

const NODES: usize = 2_000;
const LOOKUPS: usize = 500;

/// Builds `kind`, fails `departed` of its nodes without stabilizing, and
/// asserts the allocation bound over one sequential batch.
fn assert_lookups_allocate_little(kind: OverlayKind, departed: f64) {
    let mut net = build_overlay(kind, NODES, 15);
    let mut rng = stream_indexed(15, "hop-allocations", kind as u64);
    for token in net.node_tokens() {
        if rng.gen_bool(departed) {
            net.fail(token);
        }
    }
    let live = net.node_tokens();
    let reqs: Vec<(u64, u64)> = (0..LOOKUPS)
        .map(|_| (live[rng.gen_range(0..live.len())], rng.gen()))
        .collect();
    let before = allocations();
    let traces = net.lookup_batch(&reqs, 1);
    let allocations = allocations() - before;
    let hops: usize = traces.iter().map(|t| t.path_len()).sum();
    let bound = 16 * LOOKUPS as u64 + 64;
    assert!(
        allocations <= bound,
        "{} ({departed} departed): {allocations} allocations over {LOOKUPS} lookups and {hops} hops \
         exceed {bound}",
        kind.label()
    );
}

#[test]
fn healthy_lookups_allocate_per_lookup_not_per_hop() {
    for kind in ALL_KINDS {
        assert_lookups_allocate_little(kind, 0.0);
    }
}

/// 30% unstabilized departures put Cycloid's walks on the fallback
/// branches of `plan_step` (stale cubical/cyclic entries, dead leaves).
#[test]
fn cycloid_fallback_hops_do_not_allocate_either() {
    for kind in [OverlayKind::Cycloid7, OverlayKind::Cycloid11] {
        assert_lookups_allocate_little(kind, 0.3);
    }
}
