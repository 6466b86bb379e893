//! The design-choice ablations EXPERIMENTS.md "Ablations" quotes:
//! leaf-set radius, Koorde's imaginary-node start, Koorde's backup-list
//! length under mass departure, and Cycloid's outside-leaf primary
//! shortcut. Every figure is seeded; each test prints its `[ablation]`
//! lines (`cargo test --release --test ablations -- --nocapture`) and
//! asserts the ordering the paragraph claims.

use cycloid::{CycloidConfig, CycloidNetwork};
use dht_core::lookup::HopPhase;
use dht_core::overlay::Overlay;
use dht_core::rng::stream;
use dht_core::sim::Refresh;
use koorde::{ImaginaryStart, KoordeConfig, KoordeNetwork};
use rand::Rng;

const LOOKUPS: usize = 2000;

/// Mean of `hops(i)` over the `LOOKUPS` lookups of one ablation cell.
fn mean_hops(hops: impl FnMut(usize) -> usize) -> f64 {
    (0..LOOKUPS).map(hops).sum::<usize>() as f64 / LOOKUPS as f64
}

/// Mean path of a 1024-node Cycloid at leaf radius `R`, printed.
fn leaf_radius_hops<const R: usize>() -> f64 {
    let radius = R;
    let config = CycloidConfig::<R> { dimension: 8 };
    let mut net = CycloidNetwork::with_nodes(config, 1024, 7);
    let ids: Vec<_> = net.ids().collect();
    let mut rng = stream(7, "ablate-radius");
    let hops = mean_hops(|i| net.route(ids[i % ids.len()], rng.gen()).path_len());
    println!(
        "[ablation] leaf radius {radius} (degree {}): mean path {hops:.3} hops",
        3 + 4 * radius
    );
    hops
}

#[test]
fn wider_leaf_sets_shorten_paths_with_diminishing_returns() {
    let hops = [
        leaf_radius_hops::<1>(),
        leaf_radius_hops::<2>(),
        leaf_radius_hops::<3>(),
    ];
    assert!(hops[0] > hops[1] && hops[1] > hops[2], "{hops:?}");
    assert!(
        hops[1] - hops[2] < hops[0] - hops[1],
        "second widening must buy less than the first: {hops:?}"
    );
}

#[test]
fn best_fit_start_beats_basic_on_an_oversized_ring() {
    let hops = [
        ("basic", KoordeConfig::new(14)),
        ("best_fit", KoordeConfig::with_best_fit(14)),
    ]
    .map(|(label, config)| {
        let mut net = KoordeNetwork::with_nodes(config, 1024, 9);
        let ids = net.node_tokens();
        let mut rng = stream(9, label);
        let hops = mean_hops(|i| net.lookup(ids[i % ids.len()], rng.gen()).path_len());
        println!(
            "[ablation] koorde start {label}: mean path {hops:.3} hops (1024 nodes, 2^14 ring)"
        );
        hops
    });
    assert!(
        hops[1] < hops[0],
        "best-fit {} vs basic {}",
        hops[1],
        hops[0]
    );
}

#[test]
fn longer_backup_lists_survive_more_departures() {
    let failures = [1usize, 2, 4].map(|backups| {
        let config = KoordeConfig {
            bits: 11,
            successor_list: backups,
            debruijn_backups: backups,
            start: ImaginaryStart::Basic,
        };
        let mut net = KoordeNetwork::with_nodes(config, 2048, 11);
        let mut rng = stream(11, "ablate-succ");
        let ids = net.node_tokens();
        for &id in &ids {
            if rng.gen_bool(0.4) {
                net.depart(id, true);
            }
        }
        let live = net.node_tokens();
        let failures = (0..LOOKUPS)
            .filter(|i| {
                !net.lookup(live[i % live.len()], rng.gen())
                    .outcome
                    .is_success()
            })
            .count();
        println!("[ablation] koorde backups {backups}: {failures}/{LOOKUPS} failures at p=0.4");
        failures
    });
    assert!(
        failures[0] > failures[1] && failures[1] > failures[2],
        "{failures:?}"
    );
}

#[test]
fn primary_shortcut_keeps_the_ascending_phase_under_one_hop() {
    for d in [6u32, 8] {
        let mut net = CycloidNetwork::complete(CycloidConfig::seven_entry(d));
        let ids: Vec<_> = net.ids().collect();
        let mut rng = stream(13, "asc");
        let per_lookup = mean_hops(|i| {
            net.route(ids[i % ids.len()], rng.gen())
                .hops_in_phase(HopPhase::Ascending)
        });
        println!(
            "[ablation] ascending hops at d={d}: {per_lookup:.3} per lookup (primary shortcut keeps this ~1)"
        );
        assert!(per_lookup < 1.0, "d={d}: {per_lookup}");
    }
}
