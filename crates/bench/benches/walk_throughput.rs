//! Lookup-engine micro-benchmarks: read-only walk cost with and
//! without reused scratch buffers, and batched lookup throughput at
//! one worker versus the machine's full worker pool. The batch numbers
//! here feed the same story as `repro throughput` (exported as
//! `BENCH_lookup_throughput.json`); this harness isolates the two
//! ingredients — per-walk allocation and sharded execution.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cycloid::{CycloidConfig, CycloidNetwork};
use dht_core::rng::stream;
use dht_core::sim::{SimOverlay, WalkCursor, WalkScratch};
use dht_core::Overlay;
use dht_sim::{build_overlay, OverlayKind};
use rand::Rng;
use std::hint::black_box;
use std::time::Duration;

/// Worker count for the sharded legs: the host's available
/// parallelism, so the bench reports what this machine can actually do.
fn pool_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Read-only walks on a Cycloid(7) network with a fifth of its nodes
/// failed (so walks actually route around dead entries and the
/// skipped-candidate lists fill), comparing a fresh `WalkScratch` per
/// walk (what `walk_from` allocates internally: the candidate buffer
/// `next_hop` fills grows once per walk) against one reused across the
/// whole run (what each executor worker does). The delta is pure
/// allocator traffic: the routes are identical.
fn bench_walk_scratch(c: &mut Criterion) {
    let mut g = c.benchmark_group("walk_scratch");
    g.measurement_time(Duration::from_secs(3));
    let mut net = CycloidNetwork::complete(CycloidConfig::seven_entry(8));
    let mut rng = stream(7, "walk_scratch");
    let all = net.node_tokens();
    for &t in all.iter().filter(|_| rng.gen_bool(0.2)) {
        net.fail(t);
    }
    let tokens = net.node_tokens();
    let keys: Vec<(dht_core::NodeToken, u64)> = (0..1024)
        .map(|_| (tokens[rng.gen_range(0..tokens.len())], rng.gen()))
        .collect();

    let walk = |i: usize, scratch: &mut WalkScratch| {
        let (src, raw_key) = keys[i];
        let state = net.begin_walk(src, raw_key);
        let (trace, fx) =
            WalkCursor::begin(&net, src, state, true, i as u64, Some(raw_key)).run(&net, scratch);
        (trace.path_len(), fx.is_empty())
    };

    let mut i = 0usize;
    g.bench_function("fresh_alloc", |b| {
        b.iter(|| {
            i = (i + 1) % keys.len();
            black_box(walk(i, &mut WalkScratch::default()))
        })
    });

    let mut scratch = WalkScratch::default();
    let mut j = 0usize;
    g.bench_function("reused_scratch", |b| {
        b.iter(|| {
            j = (j + 1) % keys.len();
            black_box(walk(j, &mut scratch))
        })
    });
    g.finish();
}

/// Batched lookups per overlay at one worker vs the full pool. On a
/// multi-core host the `jobs=N` legs should show near-linear gains;
/// the results themselves are bit-identical by construction (see
/// `dht_core::sim::ParallelExecutor`), so this measures wall clock
/// only.
fn bench_lookup_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("lookup_batch");
    g.measurement_time(Duration::from_secs(3));
    g.sample_size(20);
    let jobs = pool_jobs();
    const BATCH: usize = 512;
    for kind in [
        OverlayKind::Cycloid7,
        OverlayKind::Koorde,
        OverlayKind::Chord,
    ] {
        let mut net = build_overlay(kind, 1024, 5);
        let tokens = net.node_tokens();
        let mut rng = stream(5, kind.label());
        let reqs: Vec<(dht_core::NodeToken, u64)> = (0..BATCH)
            .map(|_| (tokens[rng.gen_range(0..tokens.len())], rng.gen()))
            .collect();
        g.bench_function(BenchmarkId::new("jobs1", kind.label()), |b| {
            b.iter(|| black_box(net.lookup_batch(&reqs, 1).len()))
        });
        g.bench_function(BenchmarkId::new(format!("pool{jobs}"), kind.label()), |b| {
            b.iter(|| black_box(net.lookup_batch(&reqs, jobs).len()))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_walk_scratch, bench_lookup_batch);
criterion_main!(benches);
