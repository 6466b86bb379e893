//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * leaf-set radius (7-entry vs 11-entry Cycloid, and wider),
//! * Koorde's imaginary-node start (basic vs best-fit),
//! * successor-list length for the ring overlays' fault tolerance.
//!
//! Each bench reports wall time; the printed `[ablation]` lines report the
//! metric the design choice actually trades (mean hops / timeouts), so a
//! single `cargo bench -p bench --bench ablations` run shows both sides.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cycloid::{CycloidConfig, CycloidNetwork};
use dht_core::rng::stream;
use dht_core::sim::Refresh;
use koorde::{KoordeConfig, KoordeNetwork};
use rand::Rng;
use std::hint::black_box;
use std::time::Duration;

fn mean_hops_cycloid(radius: usize, n: usize) -> f64 {
    let config = CycloidConfig {
        dimension: 8,
        leaf_radius: radius,
    };
    let mut net = CycloidNetwork::with_nodes(config, n, 7);
    let ids: Vec<_> = net.ids().collect();
    let mut rng = stream(7, "ablate-radius");
    let mut total = 0usize;
    for i in 0..2000 {
        total += net.route(ids[i % ids.len()], rng.gen()).path_len();
    }
    total as f64 / 2000.0
}

fn bench_leaf_radius(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_leaf_radius");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(4));
    for radius in [1usize, 2, 3] {
        let hops = mean_hops_cycloid(radius, 1024);
        println!(
            "[ablation] leaf radius {radius} (degree {}): mean path {hops:.3} hops",
            3 + 4 * radius
        );
        g.bench_function(
            BenchmarkId::new("lookups", format!("radius{radius}")),
            |b| {
                let config = CycloidConfig {
                    dimension: 8,
                    leaf_radius: radius,
                };
                let mut net = CycloidNetwork::with_nodes(config, 1024, 7);
                let ids: Vec<_> = net.ids().collect();
                let mut rng = stream(7, "bench-radius");
                let mut i = 0usize;
                b.iter(|| {
                    i = (i + 1) % ids.len();
                    black_box(net.route(ids[i], rng.gen()).path_len())
                })
            },
        );
    }
    g.finish();
}

fn bench_koorde_start(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_koorde_start");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(4));
    for (label, config) in [
        ("basic", KoordeConfig::new(14)),
        ("best_fit", KoordeConfig::with_best_fit(14)),
    ] {
        let mut net = KoordeNetwork::with_nodes(config, 1024, 9);
        let ids: Vec<_> = net.ids().collect();
        let mut rng = stream(9, label);
        let mut total = 0usize;
        for i in 0..2000 {
            total += net.route(ids[i % ids.len()], rng.gen()).path_len();
        }
        println!(
            "[ablation] koorde start {label}: mean path {:.3} hops (1024 nodes, 2^14 ring)",
            total as f64 / 2000.0
        );
        g.bench_function(BenchmarkId::new("lookups", label), |b| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % ids.len();
                black_box(net.route(ids[i], rng.gen()).path_len())
            })
        });
    }
    g.finish();
}

fn bench_successor_list(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_succlist");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(4));
    for backups in [1usize, 3, 5] {
        let config = KoordeConfig {
            bits: 11,
            successor_list: backups,
            debruijn_backups: backups,
            start: koorde::ImaginaryStart::Basic,
        };
        // Measure failure resilience at p = 0.4 departures.
        let mut net = KoordeNetwork::with_nodes(config, 2048, 11);
        let mut rng = stream(11, "ablate-succ");
        let ids: Vec<_> = net.ids().collect();
        for &id in &ids {
            if rng.gen_bool(0.4) {
                net.depart(id, true);
            }
        }
        let live: Vec<_> = net.ids().collect();
        let mut failures = 0usize;
        for i in 0..2000 {
            if !net
                .route(live[i % live.len()], rng.gen())
                .outcome
                .is_success()
            {
                failures += 1;
            }
        }
        println!("[ablation] koorde backups {backups}: {failures}/2000 failures at p=0.4");
        g.bench_function(
            BenchmarkId::new("lookups_p04", format!("backups{backups}")),
            |b| {
                let mut i = 0usize;
                b.iter(|| {
                    i = (i + 1) % live.len();
                    black_box(net.route(live[i], rng.gen()).path_len())
                })
            },
        );
    }
    g.finish();
}

fn bench_ascending_shortcut(c: &mut Criterion) {
    // The outside-leaf "primary shortcut": Cycloid's ascending phase jumps
    // straight to a primary. Quantify by comparing complete-network
    // ascending hop counts at two dimensions (the shortcut keeps it ~1
    // regardless of d).
    let mut g = c.benchmark_group("ablation_ascending");
    g.sample_size(10);
    g.measurement_time(Duration::from_secs(4));
    for d in [6u32, 8] {
        let mut net = CycloidNetwork::complete(CycloidConfig::seven_entry(d));
        let ids: Vec<_> = net.ids().collect();
        let mut rng = stream(13, "asc");
        let mut asc = 0usize;
        let mut lookups = 0usize;
        for i in 0..2000 {
            let t = net.route(ids[i % ids.len()], rng.gen());
            asc += t.hops_in_phase(dht_core::lookup::HopPhase::Ascending);
            lookups += 1;
        }
        println!(
            "[ablation] ascending hops at d={d}: {:.3} per lookup (primary shortcut keeps this ~1)",
            asc as f64 / lookups as f64
        );
        g.bench_function(BenchmarkId::new("complete_lookup", format!("d{d}")), |b| {
            let mut i = 0usize;
            b.iter(|| {
                i = (i + 1) % ids.len();
                black_box(net.route(ids[i], rng.gen()).path_len())
            })
        });
    }
    g.finish();
}

criterion_group!(
    ablations,
    bench_leaf_radius,
    bench_koorde_start,
    bench_successor_list,
    bench_ascending_shortcut
);
criterion_main!(ablations);
