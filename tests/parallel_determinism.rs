//! Jobs-invariance pins for the parallel lookup engine: for every
//! overlay kind, a fixed-seed workload must produce byte-identical
//! golden traces, equal lookup aggregates (every field, histograms
//! included), and equal per-node query-load tables at every worker
//! count. Wall clock is the only thing `--jobs` is allowed to change
//! (see `dht_core::sim::ParallelExecutor` and DESIGN.md "Parallel
//! execution").

mod common;

use dht_core::rng::stream_indexed;
use dht_core::workload::random_pairs;
use dht_sim::experiments::{run_requests_jobs, LookupAggregate};
use dht_sim::{build_overlay, OverlayKind, ALL_KINDS};
use proptest::prelude::*;

const JOBS: [usize; 3] = [1, 2, 8];

/// Batch lengths: many rounds of the executor's eight lanes per worker,
/// and a ragged one — 13 requests are one round and five refills at one
/// worker, shards shorter than the lane count at two, and fewer shards
/// (seven, the last of one request) than workers at eight.
const LOOKUPS: [usize; 2] = [300, 13];

/// One full batch at the given worker count on a freshly built overlay:
/// the aggregate plus the final query-load table.
fn run_batch(
    kind: OverlayKind,
    seed: u64,
    jobs: usize,
    lookups: usize,
) -> (LookupAggregate, Vec<u64>) {
    let mut net = build_overlay(kind, 96, seed);
    // The workload stream depends only on the seed, never on `jobs`.
    let mut rng = stream_indexed(seed, "parallel-determinism", 0);
    let reqs = random_pairs(net.as_ref(), lookups, &mut rng);
    let agg = run_requests_jobs(net.as_mut(), &reqs, jobs);
    (agg, net.query_loads())
}

#[test]
fn aggregates_and_loads_are_jobs_invariant_for_every_kind() {
    for kind in ALL_KINDS {
        for lookups in LOOKUPS {
            let (base_agg, base_loads) = run_batch(kind, 42, JOBS[0], lookups);
            for &jobs in &JOBS[1..] {
                let (agg, loads) = run_batch(kind, 42, jobs, lookups);
                let at = format!("{kind:?}, {lookups} lookups at jobs={jobs}");
                assert_eq!(base_agg, agg, "aggregate: {at}");
                assert_eq!(base_loads, loads, "query loads: {at}");
            }
        }
    }
}

#[test]
fn golden_trace_rendering_is_jobs_invariant_for_every_kind() {
    for kind in ALL_KINDS {
        let base = common::render_traces_jobs(kind, None, JOBS[0]);
        for &jobs in &JOBS[1..] {
            let got = common::render_traces_jobs(kind, None, jobs);
            assert_eq!(base, got, "{kind:?} ideal traces diverge at jobs={jobs}");
        }
    }
}

#[test]
fn lossy_golden_trace_rendering_is_jobs_invariant_for_every_kind() {
    // Under loss, every contact draws from the fault plan; the draws are
    // keyed per (lookup, target, attempt), so thread interleaving cannot
    // reorder them.
    for kind in ALL_KINDS {
        let conditions = common::lossy_conditions();
        let base = common::render_traces_jobs(kind, Some(conditions), JOBS[0]);
        for &jobs in &JOBS[1..] {
            let got = common::render_traces_jobs(kind, Some(conditions), jobs);
            assert_eq!(base, got, "{kind:?} lossy traces diverge at jobs={jobs}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any seed, any kind: one worker and eight workers agree exactly.
    #[test]
    fn any_seed_is_jobs_invariant(seed in 0u64..10_000, kind_ix in 0usize..8) {
        let kind = ALL_KINDS[kind_ix];
        let (seq_agg, seq_loads) = run_batch(kind, seed, 1, LOOKUPS[0]);
        let (par_agg, par_loads) = run_batch(kind, seed, 8, LOOKUPS[0]);
        prop_assert_eq!(seq_agg, par_agg, "{:?} seed={}", kind, seed);
        prop_assert_eq!(seq_loads, par_loads, "{:?} seed={} loads", kind, seed);
    }
}
