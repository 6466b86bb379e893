//! End-to-end smoke tests of every experiment `repro` runs: each
//! figure/table must come out of its quick grid well-formed, with the
//! shapes the paper reports. Every test runs the grid `repro --quick`
//! prints, at `repro`'s default seed. Protects the reproduction
//! deliverable itself.

use bench::export::{to_bench_json, BenchMeta};
use bench::json::{parse, Json};
use chord::ChordNetwork;
use dht_core::audit::AuditScope;
use dht_core::lookup::HopPhase;
use dht_core::obs::ALL_PHASES;
use dht_core::rng::stream;
use dht_sim::experiments::figures::EXPERIMENTS;
use dht_sim::experiments::{Cell, Experiment, Value};
use dht_sim::{build_overlay, build_overlay_spaced, OverlayKind, ALL_KINDS, PAPER_KINDS};
use koorde::KoordeNetwork;
use rand::Rng;

/// `repro`'s default seed.
const SEED: u64 = 2004;

/// The experiment exported as `BENCH_{name}.json`.
fn experiment(name: &str) -> &'static Experiment {
    EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .unwrap_or_else(|| panic!("no experiment {name:?}"))
}

/// The cells of one experiment's quick grid.
fn quick(name: &str) -> Vec<Cell> {
    experiment(name).run(true, SEED, 2)
}

/// The cell of `label` at axis value `x`.
fn at<'a>(cells: &'a [Cell], label: &str, x: f64) -> &'a Cell {
    cells
        .iter()
        .find(|c| c.label == label && c.x == x)
        .unwrap_or_else(|| panic!("no cell {label} at {x}"))
}

/// What `repro --metrics-out` exports for one experiment's cells.
fn exported(name: &str, cells: &[Cell]) -> String {
    let meta = BenchMeta {
        git_rev: String::new(),
        seed: SEED,
        quick: true,
    };
    to_bench_json(experiment(name), cells, &meta)
}

/// The entry named `name` in `section` of an exported document.
fn entry<'a>(doc: &'a Json, section: &str, name: &str) -> Option<&'a Json> {
    let entries = doc.get(section).and_then(Json::as_array)?;
    entries
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
}

/// The cells of one experiment's quick grid, after checking that they
/// export the same document at `--jobs 1` and `--jobs 4`.
fn jobs_invariant(name: &str) -> Vec<Cell> {
    let [one, four] = [1, 4].map(|jobs| experiment(name).run(true, SEED, jobs));
    assert_eq!(
        exported(name, &one),
        exported(name, &four),
        "{name}: jobs 1 and 4 differ"
    );
    four
}

/// What `repro <figure> --quick` prints for `figure`.
fn shown(name: &str, figure: &str, cells: &[Cell]) -> String {
    experiment(name)
        .layouts
        .iter()
        .filter(|(n, _)| *n == figure)
        .filter_map(|(_, layout)| layout.render(cells, false, false))
        .collect()
}

/// Builds a fresh overlay and asserts the full-scope protocol audit holds
/// on every node.
fn full_audit_clean(kind: OverlayKind, n: usize, seed: u64) {
    let net = build_overlay(kind, n, seed);
    let report = net.audit_state(AuditScope::Full);
    assert_eq!(report.checked_nodes(), net.len(), "{}", kind.label());
    assert!(report.is_clean(), "{}", report);
}

#[test]
fn static_tables_regenerate() {
    let cells = quick("static_tables");
    assert_eq!(cells.len(), 6);
    let size = |system: &str| at(&cells, system, 64.0).text("size").to_string();
    assert_eq!(size("Cycloid"), "7");
    assert_eq!(size("Koorde"), "7");
    assert_eq!(size("Viceroy"), "7");
    assert_eq!(size("Chord"), "O(log n)");
    assert_eq!(at(&cells, "Cycloid", 64.0).text("lookup"), "O(d)");
    assert!(shown("static_tables", "table1", &cells).contains("Cycloid"));

    // Paper Table 2: cubical neighbour (3, 1010xxxx) — check the fixed
    // prefix; cyclic neighbours (3, 10110111) and (3, 10110101); inside
    // leaf set (3, 10110110) and (5, 10110110); outside leaf set
    // (7, 10110101) and (7, 10110111).
    let table2 = shown("static_tables", "table2", &cells);
    let rows: Vec<&str> = table2.lines().skip(3).filter(|l| !l.is_empty()).collect();
    assert_eq!(rows.len(), 8);
    for (entry, value) in [
        ("cubical neighbor", "(3,1010"),
        ("cyclic neighbor (larger)", "(3,10110111)"),
        ("cyclic neighbor (smaller)", "(3,10110101)"),
        ("inside leaf set (pred)", "(3,10110110)"),
        ("inside leaf set (succ)", "(5,10110110)"),
        ("outside leaf set (preceding primary)", "(7,10110101)"),
        ("outside leaf set (succeeding primary)", "(7,10110111)"),
    ] {
        let row = rows.iter().find(|l| l.starts_with(&format!("{entry}  ")));
        assert!(row.is_some_and(|l| l.contains(value)), "{entry}:\n{table2}");
    }
    let table3 = shown("static_tables", "table3", &cells);
    assert_eq!(table3.lines().skip(3).filter(|l| !l.is_empty()).count(), 4);
    assert!(table3.contains("Key placement"));
}

#[test]
fn path_length_driver_fig5_6_7() {
    let cells = quick("path_length");
    // 5 systems x 6 sizes, smallest first.
    assert_eq!(cells.len(), 30);
    assert_eq!(cells[0].x, 24.0);
    assert_eq!(cells[29].x, 2048.0);
    for c in &cells {
        let agg = c.lookups("");
        assert!(agg.path.mean > 0.0, "{} at n={}", c.label, c.x);
        assert_eq!(agg.failures, 0);
        assert!(agg.path_hist.count() > 0);
    }
    // Sizes follow the paper's n = d * 2^d: Fig 6's axis reads d = 3..=8.
    let fig6 = shown("path_length", "fig6", &cells);
    let dims: Vec<&str> = fig6
        .lines()
        .skip(3)
        .filter_map(|l| l.split_whitespace().next())
        .collect();
    assert_eq!(dims, ["3", "4", "5", "6", "7", "8"]);
    // The headline Fig. 5 shape: Viceroy's paths are much longer than
    // Cycloid's at equal n.
    let cycloid = at(&cells, "Cycloid(7)", 160.0).lookups("");
    let viceroy = at(&cells, "Viceroy", 160.0).lookups("");
    assert!(
        viceroy.path.mean > cycloid.path.mean,
        "Viceroy {} should exceed Cycloid {}",
        viceroy.path.mean,
        cycloid.path.mean
    );
    // Fig. 7(a): ascending is a small share of Cycloid's path.
    let share = cycloid.phase_share(HopPhase::Ascending);
    assert!(share < 0.4, "ascending share {share} should be small");
}

/// Fig 7 reads each phase's hops off the batch's per-phase histograms and
/// the whole path off its path histogram: for every kind Fig 7 shows, at
/// every quick size, the phases' mean hops add up to the mean path and
/// their shares to 100 %.
#[test]
fn fig7_phases_add_up_to_the_whole_path() {
    const PHASES: [HopPhase; 6] = [
        HopPhase::Ascending,
        HopPhase::Descending,
        HopPhase::TraverseCycle,
        HopPhase::DeBruijn,
        HopPhase::Successor,
        HopPhase::Finger,
    ];
    let cells = quick("path_length");
    for label in ["Cycloid(7)", "Cycloid(11)", "Viceroy", "Koorde"] {
        let rows: Vec<&Cell> = cells.iter().filter(|c| c.label == label).collect();
        assert_eq!(rows.len(), 6, "{label}");
        for c in rows {
            let agg = c.lookups("");
            let hops: f64 = PHASES.iter().map(|&p| agg.phase_mean_hops(p)).sum();
            let share: f64 = PHASES.iter().map(|&p| agg.phase_share(p)).sum();
            assert!(
                (hops - agg.path.mean).abs() < 1e-9,
                "{label} at n={}: phases {hops} hops, path {}",
                c.x,
                agg.path.mean
            );
            assert!(
                (share - 1.0).abs() < 1e-9,
                "{label} at n={}: shares sum to {share}",
                c.x
            );
        }
    }
}

#[test]
fn key_distribution_driver_fig8_9() {
    for name in ["key_distribution_dense", "key_distribution_sparse"] {
        let grid = experiment(name).quick;
        let cells = quick(name);
        assert_eq!(cells.len(), grid.kinds.len() * grid.axis.len());
        for c in &cells {
            // Keys are conserved: mean * nodes == keys distributed.
            let per_node = c.summary(".keys_per_node");
            assert_eq!(per_node.n, grid.nodes);
            let total = per_node.mean * per_node.n as f64;
            assert!((total - c.x).abs() < 1.0, "{}", c.label);
        }
        // Fig. 8's shape: Viceroy's 99th percentile is far above Cycloid's.
        let p99 = |label: &str| at(&cells, label, 10_000.0).summary(".keys_per_node").p99;
        assert!(
            p99("Viceroy") > p99("Cycloid(7)"),
            "{name}: Viceroy p99 {} should exceed Cycloid p99 {}",
            p99("Viceroy"),
            p99("Cycloid(7)")
        );
    }
}

#[test]
fn key_distribution_grids_span_2048_slots() {
    // §4.2: "Assume the network ID space is of 2048 nodes." Every grid of
    // Figs 8 and 9 must build its rings that large, quick or paper.
    for name in ["key_distribution_dense", "key_distribution_sparse"] {
        let exp = experiment(name);
        for grid in [exp.quick, exp.paper] {
            for &kind in grid.kinds {
                let net = grid.build(kind, grid.nodes, SEED);
                let any = net.as_any();
                let space = match kind {
                    OverlayKind::Koorde => any
                        .downcast_ref::<KoordeNetwork>()
                        .unwrap()
                        .config()
                        .space(),
                    OverlayKind::Chord => {
                        any.downcast_ref::<ChordNetwork>().unwrap().config().space()
                    }
                    _ => continue,
                };
                assert!(space >= 2048, "{name}: {} in {space} slots", kind.label());
            }
        }
    }
}

#[test]
fn query_load_driver_fig10() {
    let cells = quick("query_load");
    assert_eq!(cells.len(), 10);
    for c in &cells {
        let load = c.summary(".load");
        assert_eq!(load.n as f64, c.x);
        assert!(load.mean >= 1.0, "{}: every node issues lookups", c.label);
        assert!(load.p99 >= load.p01);
    }
    // Fig. 10's shape: Cycloid has the smallest query-load variation
    // among the constant-degree DHTs.
    for n in [64.0, 512.0] {
        let spread = |label: &str| {
            let load = at(&cells, label, n).summary(".load");
            (load.p99 - load.p01) / load.mean
        };
        let cyc = spread("Cycloid(7)");
        let vic = spread("Viceroy");
        assert!(
            cyc < vic,
            "n={n}: Cycloid relative spread {cyc} should be below Viceroy {vic}"
        );
    }
}

#[test]
fn mass_departure_driver_fig11_table4() {
    let grid = experiment("mass_departure").quick;
    let cells = quick("mass_departure");
    for c in &cells {
        let agg = c.lookups("");
        let expected = grid.nodes as f64 * (1.0 - c.x);
        let survivors = c.num(".survivors");
        assert!(
            (survivors - expected).abs() < 60.0,
            "survivors {survivors} vs expected {expected}"
        );
        assert_eq!(agg.path.n, grid.lookups);
        // §4.3's two headline claims.
        match c.label.as_str() {
            "Viceroy" => {
                assert_eq!(agg.timeouts.max, 0.0, "Viceroy never times out");
                assert_eq!(agg.failures, 0);
            }
            "Cycloid(7)" => {
                assert_eq!(agg.failures, 0, "Cycloid must resolve all lookups");
                assert!(agg.timeouts.mean > 0.0, "Cycloid times out at p={}", c.x);
            }
            _ => {}
        }
    }
    let heavy = at(&cells, "Koorde", 0.5).lookups("");
    assert!(heavy.failures > 0, "Koorde at p=0.5 must lose some lookups");
}

#[test]
fn churn_driver_fig12_table5() {
    // §4.4: "There are no failures in all test cases."
    let grid = experiment("churn").quick;
    let cells = quick("churn");
    assert_eq!(cells.len(), grid.kinds.len() * grid.axis.len());
    for c in &cells {
        assert_eq!(c.num(".failures"), 0.0, "{} at R={}", c.label, c.x);
        assert_eq!(c.num(".lookups"), grid.lookups as f64);
        assert!(c.num(".joins") > 0.0 && c.num(".leaves") > 0.0);
        assert!(c.num(".mean_path") > 0.0);
        // Table 5's shape: with 30 s stabilization, mean timeouts stay far
        // below the unstabilized Table 4 numbers.
        let timeouts = c.num(".mean_timeouts");
        assert!(timeouts < 1.0, "{} at R={}: {timeouts}", c.label, c.x);
    }
}

#[test]
fn sparsity_driver_fig13_14() {
    // §4.5: "There are no lookup failures in each test case."
    let grid = experiment("sparsity").quick;
    let cells = quick("sparsity");
    for c in &cells {
        assert_eq!(c.lookups("").failures, 0, "{} at {}", c.label, c.x);
    }
    // The dense point uses the whole space.
    assert!(cells
        .iter()
        .any(|c| c.x == 0.0 && c.num(".nodes") == grid.space as f64));
    // Fig. 13's shape: Cycloid's path length does not grow with sparsity
    // (it shrinks slightly with network size), while Koorde's successor
    // share grows (Fig. 14). Mid-range sparsity shortens Cycloid paths;
    // even at 90% sparsity the path stays within ~1.5 hops of dense
    // (low-cyclic-index lone primaries stretch the ascending phase
    // slightly — see EXPERIMENTS.md), nothing like Koorde's degradation.
    let cyc = |s: f64| at(&cells, "Cycloid(7)", s).lookups("").path.mean;
    assert!(
        cyc(0.6) <= cyc(0.0) + 0.2,
        "Cycloid at 60% sparsity {} should not exceed dense {}",
        cyc(0.6),
        cyc(0.0)
    );
    assert!(
        cyc(0.9) <= cyc(0.0) + 1.6,
        "Cycloid at 90% sparsity {} must stay near dense {}",
        cyc(0.9),
        cyc(0.0)
    );
    let succ_share = |s: f64| {
        at(&cells, "Koorde", s)
            .lookups("")
            .phase_share(HopPhase::Successor)
    };
    assert!(
        succ_share(0.9) > succ_share(0.0),
        "Koorde successor share must grow with sparsity"
    );
}

#[test]
fn ungraceful_extension_driver() {
    let grid = experiment("ungraceful").quick;
    let cells = quick("ungraceful");
    for c in &cells {
        let after = c.lookups("/after");
        assert_eq!(after.failures, 0, "{} at p={} must recover", c.label, c.x);
        assert_eq!(after.timeouts.max, 0.0);
        let expected = grid.nodes as f64 * (1.0 - c.x);
        assert!((c.num(".survivors") - expected).abs() < 70.0);
    }
    // The §5 weakness: without leave notifications, some lookups go wrong
    // before stabilization at heavy crash rates.
    let total_failures: usize = cells
        .iter()
        .filter(|c| c.x >= 0.4)
        .map(|c| c.lookups("/before").failures)
        .sum();
    assert!(
        total_failures > 0,
        "heavy unannounced crashes must break some lookups pre-stabilization"
    );
}

#[test]
fn maintenance_extension_driver() {
    let cells = quick("maintenance");
    assert_eq!(cells.len(), 5);
    for c in &cells {
        let (out, inc) = (c.summary(".out_degree"), c.summary(".in_degree"));
        assert!(out.mean > 0.0);
        // Edge conservation: every edge has one holder and one target.
        assert!((inc.mean - out.mean).abs() < 1e-9, "{}", c.label);
    }
    let by = |label: &str, col: &str| *at(&cells, label, 256.0).summary(col);
    // Constant-degree DHTs have constant out-degree; Chord and Pastry grow
    // with n.
    assert!(by("Cycloid(7)", ".out_degree").max <= 7.0);
    assert!(by("Koorde", ".out_degree").max <= 8.0); // 7 + predecessor
    assert!(by("Viceroy", ".out_degree").max <= 7.0);
    assert!(by("Chord", ".out_degree").mean > 8.0);
    assert!(by("Pastry", ".out_degree").mean > 8.0);
    // The repair bill a departure presents: the constant-degree DHTs keep
    // even the 99th-percentile fan-in small (Cycloid's tail is its cycle
    // primaries, referenced by the adjacent cycles' outside leaf sets —
    // still O(d)), while Pastry's numerically-closest entry selection
    // concentrates references heavily.
    let cycloid_p99 = by("Cycloid(7)", ".in_degree").p99;
    assert!(cycloid_p99 <= 24.0);
    assert!(
        by("Koorde", ".in_degree").p99 <= 10.0,
        "dense de Bruijn fan-in is flat"
    );
    assert!(
        by("Pastry", ".in_degree").p99 > 2.0 * cycloid_p99,
        "Pastry's fan-in tail dwarfs the constant-degree DHTs'"
    );
}

#[test]
fn hotspot_extension_driver() {
    for c in &quick("hotspot") {
        let (uniform, zipf) = (c.summary(".uniform"), c.summary(".zipf"));
        assert!(
            zipf.max > uniform.max,
            "{}: zipf max {} should exceed uniform max {}",
            c.label,
            zipf.max,
            uniform.max
        );
        assert!(c.num(".amplification") > 1.0, "{}", c.label);
        // Means stay comparable: the volume is the same, only its
        // distribution changes.
        assert!((zipf.mean - uniform.mean).abs() < uniform.mean * 0.5);
    }
}

#[test]
fn fault_tolerance_extension_driver() {
    let grid = experiment("fault").quick;
    // The sweep is a pure function of the seed, whatever the worker count.
    let cells = jobs_invariant("fault");
    // All 8 kinds x 6 loss rates, each cell labelled by its own kind:
    // Koorde and Koorde(best-fit) share a display name, not a label.
    assert_eq!(cells.len(), grid.kinds.len() * grid.axis.len());
    assert_eq!(cells.len(), 48);
    for (c, kind) in cells.iter().zip(grid.kinds.iter().cycle()) {
        assert_eq!(c.label, kind.label(), "at {} loss", c.x);
    }
    for c in &cells {
        let agg = c.lookups("");
        assert_eq!(agg.path.n, grid.lookups, "{} at {}", c.label, c.x);
        assert!(c.num(".success_rate") > 0.9, "{} at {} loss", c.label, c.x);
        assert!(agg.latency_ms.mean > 0.0, "delay model always bills");
        if c.x == 0.0 {
            assert_eq!(agg.retries.max, 0.0, "{}", c.label);
            assert_eq!(agg.failures, 0, "{}", c.label);
            assert_eq!(c.num(".success_rate"), 1.0, "{}", c.label);
        } else {
            assert!(agg.retries.mean > 0.0, "{} at {} loss", c.label, c.x);
        }
    }
    // Cells are ordered loss-major: for every kind, the zero-loss cell
    // retries nothing and the 20%-loss cell retries plenty.
    let kinds = grid.kinds.len();
    for (k, kind) in grid.kinds.iter().enumerate() {
        let first = cells[k].lookups("");
        let last = cells[(grid.axis.len() - 1) * kinds + k].lookups("");
        assert_eq!(first.retries.mean, 0.0, "{}", kind.label());
        assert!(
            last.retries.mean > first.retries.mean,
            "{}: retries must grow with loss",
            kind.label()
        );
    }
}

#[test]
fn fault_tolerance_audit_smoke() {
    // The quick grid audits every cell in full: message faults must never
    // mutate routing state at any loss rate.
    for c in &quick("fault") {
        let audit = c.audit().expect("the quick grid audits");
        assert!(audit.checked_nodes() > 0);
        assert!(audit.is_clean(), "{} at {} loss: {audit}", c.label, c.x);
    }
}

// --- audit-enabled smoke tests: one per experiment ----------------------
//
// Each experiment regenerates a figure from networks it builds internally;
// these companions rebuild the same population shapes and run the
// protocol-invariant audit over them, so a regression in construction or
// maintenance is reported with the violated invariant's name instead of a
// skewed statistic.

#[test]
fn static_tables_audit_smoke() {
    // Table 2's degree column describes the same state the audit's
    // state-size invariants bound; check them on live networks of every
    // kind the table lists.
    for kind in ALL_KINDS {
        full_audit_clean(kind, 64, 10);
    }
}

#[test]
fn path_length_audit_smoke() {
    // Fig 5-7 populate the full id space (n = d * 2^d); audit that shape.
    for kind in PAPER_KINDS {
        full_audit_clean(kind, 160, 11);
    }
}

#[test]
fn key_distribution_audit_smoke() {
    // Figs 8/9 use a partially filled 2048-slot space.
    let net = build_overlay_spaced(OverlayKind::Cycloid7, 120, 256, 12);
    let report = net.audit_state(AuditScope::Full);
    assert_eq!(report.checked_nodes(), 120);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn query_load_audit_smoke() {
    // Fig 10 hammers the network with lookups; routing must not perturb
    // any audited state.
    let mut net = build_overlay(OverlayKind::Cycloid7, 96, 13);
    let mut rng = stream(13, "query-load-audit");
    let tokens = net.node_tokens();
    for i in 0..400 {
        let t = net.lookup(tokens[i % tokens.len()], rng.gen());
        assert!(t.outcome.is_success());
    }
    let report = net.audit_state(AuditScope::Full);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn mass_departure_audit_smoke() {
    // Fig 11 / Table 4: after a 40% crash wave the online audit names the
    // stale state, and one stabilization round restores a clean full
    // audit.
    let mut net = build_overlay(OverlayKind::Chord, 256, 14);
    let mut rng = stream(14, "mass-departure-audit");
    for token in net.node_tokens() {
        if rng.gen_bool(0.4) {
            net.fail(token);
        }
    }
    let broken = net.audit_state(AuditScope::Online);
    assert!(
        broken
            .violated_invariants()
            .contains(&"chord/successor-list"),
        "a 40% crash wave must leave stale successor lists: {broken}"
    );
    net.stabilize();
    let report = net.audit_state(AuditScope::Full);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn churn_audit_smoke() {
    // Fig 12 / Table 5: the quick grid runs the online audit during every
    // cell; every cell must come back clean.
    for c in &quick("churn") {
        let audit = c.audit().expect("the quick grid audits");
        assert!(audit.checked_nodes() > 0);
        assert!(audit.is_clean(), "{} at R={}: {audit}", c.label, c.x);
    }
}

#[test]
fn sparsity_audit_smoke() {
    // Figs 13/14 populate a fraction of a fixed id space.
    for kind in PAPER_KINDS {
        let net = build_overlay_spaced(kind, 205, 512, 16);
        let report = net.audit_state(AuditScope::Full);
        assert_eq!(report.checked_nodes(), net.len(), "{}", kind.label());
        assert!(report.is_clean(), "{report}");
    }
}

#[test]
fn ungraceful_audit_smoke() {
    // The extfail extension: crash a fraction, stabilize, audit fully.
    let mut net = build_overlay(OverlayKind::Cycloid7, 192, 17);
    let mut rng = stream(17, "ungraceful-audit");
    for token in net.node_tokens() {
        if rng.gen_bool(0.25) {
            net.fail(token);
        }
    }
    net.stabilize();
    let report = net.audit_state(AuditScope::Full);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn maintenance_audit_smoke() {
    // The extdegree extension reports degrees; the audit bounds the same
    // state sizes per node.
    for kind in dht_sim::EXTENDED_KINDS {
        full_audit_clean(kind, 96, 18);
    }
}

#[test]
fn hotspot_audit_smoke() {
    // The exthotspot extension routes many lookups to one key; repeated
    // convergent routing must leave all state intact.
    let mut net = build_overlay(OverlayKind::Cycloid7, 96, 19);
    let tokens = net.node_tokens();
    let hot_key = 0xdead_beef_u64;
    for i in 0..300 {
        let t = net.lookup(tokens[i % tokens.len()], hot_key);
        assert!(t.outcome.is_success());
    }
    let report = net.audit_state(AuditScope::Full);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn converge_extension_driver() {
    // Both shocks are audit-clean within the horizon of six periods, and
    // the cells of the sweep's middle period measure latency under load.
    let grid = experiment("converge").quick;
    let cells = jobs_invariant("converge");
    assert_eq!(cells.len(), grid.kinds.len() * grid.axis.len());
    for c in &cells {
        assert!(c.num(".join_added") > 0.0 && c.num(".leave_removed") > 0.0);
        for shock in [".join_clean_s", ".leave_clean_s"] {
            let secs = c.num(shock);
            assert!(
                (0.0..=6.0 * c.x).contains(&secs),
                "{} {shock} at T={}: {secs}",
                c.label,
                c.x
            );
        }
        assert_eq!(c.has(".load.sim_secs"), c.x == 10.0, "{}", c.label);
        if c.x == 10.0 {
            let ms = |p: &str| c.num(&format!(".load.latency_{p}_ms"));
            assert!(ms("p50") > 0.0, "{}: delays make latency nonzero", c.label);
            assert!(ms("p99") >= ms("p95") && ms("p95") >= ms("p50"));
            assert!(c.num(".load.sim_secs") > 0.0);
        }
    }
    let shown = shown("converge", "converge", &cells);
    assert_eq!(shown.matches("Cycloid(7) ").count(), 3, "{shown}");
}

#[test]
fn recover_extension_driver() {
    // Every kind recovers from every strategy, at a cost, and then routes.
    let grid = experiment("recover").quick;
    let cells = jobs_invariant("recover");
    assert_eq!(cells.len(), grid.kinds.len() * 5);
    for c in &cells {
        let targeted = c.num(".targeted");
        assert!(
            targeted >= grid.nodes as f64 / 4.0,
            "{}: {targeted}",
            c.label
        );
        assert!(c.num(".corrupted") > 0.0, "{}: no damage done", c.label);
        let secs = c.num(".clean_s");
        assert!(secs > 0.0, "{}: clean at {secs} s", c.label);
        assert!(c.num(".repair_calls") > 0.0);
        assert_eq!(c.num(".post_failures"), 0.0, "{} must route", c.label);
    }
    assert_eq!((experiment("recover").check)(&cells), Ok(()));
}

#[test]
fn scale_extension_driver() {
    let grid = experiment("scale").quick;
    let cells = jobs_invariant("scale");
    assert_eq!(cells.len(), grid.kinds.len());
    for c in &cells {
        let n = c.num(".nodes");
        assert_eq!(
            n,
            c.x + grid.nodes as f64,
            "{}: every join succeeds",
            c.label
        );
        assert!(c.num(".state_bytes") > 0.0 && c.num(".bytes_per_node") > 0.0);
        let agg = c.lookups("");
        assert_eq!(agg.path.n, grid.lookups);
        assert_eq!(agg.failures, 0, "{}: stabilized overlay", c.label);
    }
    // Metric names carry the population after the joins.
    let doc = parse(&exported("scale", &cells)).expect("valid JSON");
    let bytes = entry(&doc, "metrics", "Koorde/n=10016.bytes_per_node").unwrap();
    assert_eq!(bytes.get("type").and_then(Json::as_str), Some("gauge"));
    assert!(bytes.get("value").and_then(Json::as_f64).unwrap() > 0.0);
    assert!(entry(&doc, "metrics", "Koorde/n=10016.lookups").is_some());
}

#[test]
fn profile_extension_driver() {
    // Every kind bills every phase, and exports the phase counters, the
    // latency histogram and the telemetry series.
    let cells = quick("profile");
    assert_eq!(cells.len(), ALL_KINDS.len());
    for c in &cells {
        assert_eq!(c.num(".failures"), 0.0, "{}: lookups failed", c.label);
        for phase in ALL_PHASES {
            let msgs = c.num(&format!(".phase.{}.msgs", phase.label()));
            assert!(msgs > 0.0, "{}: no {} messages", c.label, phase.label());
        }
    }
    assert_eq!((experiment("profile").check)(&cells), Ok(()));
    let doc = parse(&exported("profile", &cells)).expect("valid JSON");
    for label in cells.iter().map(|c| &c.label) {
        let series = |name: &str| entry(&doc, "series", &format!("{label}.{name}"));
        let points = |s: &Json| s.get("points").and_then(Json::as_array).map(<[_]>::len);
        assert!(series("live_nodes").and_then(points) > Some(0), "{label}");
        assert!(series("msgs.lookup").is_some(), "{label}");
        let latency = entry(&doc, "metrics", &format!("{label}.latency_us")).unwrap();
        assert_eq!(
            latency.get("type").and_then(Json::as_str),
            Some("histogram")
        );
        assert!(
            latency.get("count").and_then(Json::as_f64) > Some(0.0),
            "{label}"
        );
    }
}

#[test]
fn failing_checks_stop_the_run_with_a_reason() {
    // `repro` prints a failed check as `[repro] error: <reason>` and exits
    // 1 before it exports anything.
    let cell = |label: &str, x: f64, cols: &[(&str, Value)]| Cell {
        label: label.into(),
        x,
        cols: cols
            .iter()
            .map(|(n, v)| (n.to_string(), v.clone()))
            .collect(),
    };
    let recover = experiment("recover").check;
    let recovered = |clean_s: f64, post_failures: u64| {
        let cols = [
            (".clean_s", Value::Gauge(clean_s)),
            (".post_failures", Value::Count(post_failures)),
        ];
        // Point 2 of the sweep: ghost links at T = 10 s.
        recover(&[cell("Chord", 2.0, &cols)])
    };
    assert_eq!(recovered(10.0, 0), Ok(()));
    assert_eq!(
        recovered(-1.0, 0),
        Err("Chord did not recover from ghost within the horizon".into())
    );
    assert_eq!(
        recovered(10.0, 3),
        Err("Chord failed 3 lookups after recovering from ghost".into())
    );

    let profile = experiment("profile").check;
    let billed = |repair: u64| {
        let cols = [
            (".phase.lookup.msgs", Value::Count(5)),
            (".phase.stabilize.msgs", Value::Count(5)),
            (".phase.repair.msgs", Value::Count(repair)),
        ];
        profile(&[cell("Viceroy", 30.0, &cols)])
    };
    assert_eq!(billed(1), Ok(()));
    assert_eq!(billed(0), Err("Viceroy billed no repair messages".into()));
}
