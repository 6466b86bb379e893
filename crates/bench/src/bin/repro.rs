//! `repro` — regenerates every table and figure of the Cycloid paper.
//!
//! ```text
//! cargo run --release -p bench --bin repro -- all
//! cargo run --release -p bench --bin repro -- fig5 fig7 --quick
//! cargo run --release -p bench --bin repro -- table4 --seed 7 --csv
//! cargo run --release -p bench --bin repro -- path --quick --metrics-out bench-out
//! cargo run --release -p bench --bin repro -- metrics --metrics-out bench-out
//! ```
//!
//! Experiments: the paper's tables and figures plus four extensions
//! ([`ALL`], also reachable as `all`), the `path` alias (figs 5–7), and
//! the subcommands of [`EXTRA`], which `all` leaves out: `metrics`
//! summarises previously written `BENCH_*.json` files; `converge`
//! measures time-to-stabilize after membership shocks and lookup latency
//! under continuous-time churn; `scale` sweeps 10⁴–10⁶ node populations
//! for memory footprint and path quality; `recover` corrupts routing
//! state through the seeded strategy catalogue and measures time and
//! repair cost to audit-clean; `profile` runs every kind under default
//! churn with the phase accountant and the telemetry sampler on.
//! Flags: `--quick` (reduced workloads), `--seed <u64>` (default 2004),
//! `--csv` (machine-readable output), `--chart` (terminal line charts
//! for the line figures), `--metrics-out <dir>` (write one versioned
//! `BENCH_<experiment>.json` per experiment group), `--quiet` (suppress
//! progress lines; `REPRO_LOG=debug|info|quiet` overrides), and
//! `--jobs <N>` (worker threads per lookup batch; default: available
//! parallelism). Everything printed to stdout or exported is seeded and
//! bit-identical for every `--jobs` value; the only wall clock `repro`
//! reads is its closing "done in" progress line.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use bench::{metrics_io, render};
use dht_core::lookup::HopPhase;
use dht_core::obs::{to_bench_json, BenchMeta, LogLevel, MetricsRegistry, Phase, Progress};
use dht_sim::experiments::{
    churn_exp, converge, fault_tolerance, hotspot, key_distribution, maintenance, mass_departure,
    path_length, profile, query_load, recover, scale, sparsity, static_tables, ungraceful,
};
use dht_sim::report::Table;

#[derive(Debug, Clone)]
struct Options {
    experiments: BTreeSet<String>,
    quick: bool,
    csv: bool,
    chart: bool,
    quiet: bool,
    metrics_out: Option<PathBuf>,
    seed: u64,
    jobs: usize,
}

const ALL: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "table4",
    "fig12",
    "table5",
    "fig13",
    "fig14",
    "extfail",
    "extpath",
    "extdegree",
    "exthotspot",
    "fault",
];

/// Subcommands `all` does not include.
const EXTRA: &[&str] = &["metrics", "converge", "scale", "recover", "profile"];

fn usage() -> ! {
    eprintln!(
        "usage: repro [EXPERIMENT...] [--quick] [--csv] [--chart] [--quiet]\n\
         \x20            [--seed N] [--metrics-out DIR]\n\
         \x20            [--jobs N]\n\
         experiments: {} all path {}",
        ALL.join(" "),
        EXTRA.join(" ")
    );
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut opts = Options {
        experiments: BTreeSet::new(),
        quick: false,
        csv: false,
        chart: false,
        quiet: false,
        metrics_out: None,
        seed: 2004, // IPPS 2004
        jobs: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    };
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => opts.quick = true,
            "--csv" => opts.csv = true,
            "--chart" => opts.chart = true,
            "--quiet" => opts.quiet = true,
            "--metrics-out" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.metrics_out = Some(PathBuf::from(v));
            }
            "--seed" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.seed = v.parse().unwrap_or_else(|_| usage());
            }
            "--jobs" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.jobs = v.parse().unwrap_or_else(|_| usage());
                if opts.jobs == 0 {
                    usage();
                }
            }
            "--help" | "-h" => usage(),
            "all" => {
                opts.experiments.extend(ALL.iter().map(|s| s.to_string()));
            }
            "path" => {
                opts.experiments
                    .extend(["fig5", "fig6", "fig7"].map(str::to_string));
            }
            name if ALL.contains(&name) || EXTRA.contains(&name) => {
                opts.experiments.insert(name.to_string());
            }
            _ => usage(),
        }
    }
    if opts.experiments.is_empty() {
        usage();
    }
    opts
}

fn emit(table: &Table, csv: bool) {
    if csv {
        print!("{}", table.render_csv());
        println!();
    } else {
        println!("{}", table.render());
    }
}

/// Summarises previously exported `BENCH_*.json` files from `dir`.
/// Exits nonzero when the directory is unreadable or any document fails
/// schema validation.
fn run_metrics(dir: &std::path::Path, csv: bool, progress: &Progress) {
    let entries = match metrics_io::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) => {
            eprintln!("[repro] error: cannot read {}: {e}", dir.display());
            std::process::exit(1);
        }
    };
    if entries.is_empty() {
        eprintln!(
            "[repro] error: no BENCH_*.json files in {} (run an experiment with --metrics-out first)",
            dir.display()
        );
        std::process::exit(1);
    }
    let mut files = Vec::new();
    let mut bad = 0usize;
    for (path, loaded) in entries {
        match loaded {
            Ok(file) => files.push(file),
            Err(e) => {
                bad += 1;
                eprintln!("[repro] error: {}: {e}", path.display());
            }
        }
    }
    progress.info(format!(
        "validated {} benchmark file(s) in {}",
        files.len(),
        dir.display()
    ));
    emit(&render::metrics_summary(&files), csv);
    if bad > 0 {
        eprintln!("[repro] error: {bad} invalid benchmark file(s)");
        std::process::exit(1);
    }
}

fn main() {
    let opts = parse_args();
    let progress = Progress::from_env(
        "repro",
        "REPRO_LOG",
        if opts.quiet {
            LogLevel::Quiet
        } else {
            LogLevel::Info
        },
    );
    let wants = |name: &str| opts.experiments.contains(name);
    let started = Instant::now();

    // Writes one versioned BENCH_<experiment>.json when --metrics-out is
    // set; a write failure is fatal (CI consumes these files).
    let write_bench = |experiment: &str, reg: &MetricsRegistry| {
        let Some(dir) = &opts.metrics_out else {
            return;
        };
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("[repro] error: cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
        let meta = BenchMeta {
            experiment: experiment.to_string(),
            git_rev: metrics_io::git_rev(),
            seed: opts.seed,
            quick: opts.quick,
        };
        let path = dir.join(format!("BENCH_{experiment}.json"));
        if let Err(e) = fs::write(&path, to_bench_json(&meta, reg)) {
            eprintln!("[repro] error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        progress.info(format!("wrote {}", path.display()));
    };

    if wants("table1") {
        emit(&render::table1(), opts.csv);
        let mut reg = MetricsRegistry::new();
        static_tables::register_metrics(&mut reg);
        write_bench("static_tables", &reg);
    }
    if wants("table2") {
        emit(&render::table2(), opts.csv);
    }
    if wants("table3") {
        emit(&render::table3(), opts.csv);
    }

    // Figs. 5/6/7 share one sweep.
    if wants("fig5") || wants("fig6") || wants("fig7") {
        progress.info("running path-length sweep (figs 5-7)...");
        let mut params = if opts.quick {
            path_length::PathLengthParams::quick(opts.seed)
        } else {
            path_length::PathLengthParams::paper(opts.seed)
        };
        params.jobs = opts.jobs;
        let rows = path_length::measure(&params);
        if wants("fig5") {
            emit(&render::fig5(&rows), opts.csv);
            if opts.chart {
                println!("{}", render::charts::fig5(&rows).render());
            }
        }
        if wants("fig6") {
            emit(&render::fig6(&rows), opts.csv);
            if opts.chart {
                println!("{}", render::charts::fig6(&rows).render());
            }
        }
        if wants("fig7") {
            let cyc_phases = [
                HopPhase::Ascending,
                HopPhase::Descending,
                HopPhase::TraverseCycle,
            ];
            emit(&render::fig7(&rows, "Cycloid(7)", &cyc_phases), opts.csv);
            emit(&render::fig7(&rows, "Cycloid(11)", &cyc_phases), opts.csv);
            emit(&render::fig7(&rows, "Viceroy", &cyc_phases), opts.csv);
            emit(
                &render::fig7(&rows, "Koorde", &[HopPhase::DeBruijn, HopPhase::Successor]),
                opts.csv,
            );
        }
        let mut reg = MetricsRegistry::new();
        path_length::register_metrics(&rows, &mut reg);
        write_bench("path_length", &reg);
    }

    if wants("fig8") {
        progress.info("running key-distribution sweep (fig 8, dense)...");
        let params = if opts.quick {
            key_distribution::KeyDistributionParams {
                nodes: 2000,
                key_counts: vec![10_000, 50_000, 100_000],
                ..key_distribution::KeyDistributionParams::quick(opts.seed)
            }
        } else {
            key_distribution::KeyDistributionParams::fig8(opts.seed)
        };
        let rows = key_distribution::measure(&params);
        emit(
            &render::fig_keys(
                &rows,
                "Fig 8: keys per node, 2000 nodes in a 2048-slot space, mean (p01, p99)",
            ),
            opts.csv,
        );
        let mut reg = MetricsRegistry::new();
        key_distribution::register_metrics(&rows, &mut reg);
        write_bench("key_distribution_dense", &reg);
    }

    if wants("fig9") {
        progress.info("running key-distribution sweep (fig 9, sparse)...");
        let params = if opts.quick {
            key_distribution::KeyDistributionParams {
                nodes: 1000,
                key_counts: vec![10_000, 50_000, 100_000],
                ..key_distribution::KeyDistributionParams::quick(opts.seed)
            }
        } else {
            key_distribution::KeyDistributionParams::fig9(opts.seed)
        };
        let rows = key_distribution::measure(&params);
        emit(
            &render::fig_keys(
                &rows,
                "Fig 9: keys per node, 1000 nodes in a 2048-slot space, mean (p01, p99)",
            ),
            opts.csv,
        );
        let mut reg = MetricsRegistry::new();
        key_distribution::register_metrics(&rows, &mut reg);
        write_bench("key_distribution_sparse", &reg);
    }

    if wants("fig10") {
        progress.info("running query-load sweep (fig 10)...");
        let mut params = if opts.quick {
            query_load::QueryLoadParams {
                sizes: vec![64, 512],
                per_node_cap: Some(16),
                ..query_load::QueryLoadParams::paper(opts.seed)
            }
        } else {
            query_load::QueryLoadParams::paper(opts.seed)
        };
        params.jobs = opts.jobs;
        let rows = query_load::measure(&params);
        emit(&render::fig10(&rows), opts.csv);
        let mut reg = MetricsRegistry::new();
        query_load::register_metrics(&rows, &mut reg);
        write_bench("query_load", &reg);
    }

    if wants("fig11") || wants("table4") {
        progress.info("running mass-departure sweep (fig 11 / table 4)...");
        let mut params = if opts.quick {
            mass_departure::MassDepartureParams {
                kinds: dht_sim::PAPER_KINDS.to_vec(),
                nodes: 2048,
                lookups: 2_000,
                ..mass_departure::MassDepartureParams::quick(opts.seed)
            }
        } else {
            mass_departure::MassDepartureParams::paper(opts.seed)
        };
        params.jobs = opts.jobs;
        let rows = mass_departure::measure(&params);
        if wants("fig11") {
            emit(&render::fig11(&rows), opts.csv);
            if opts.chart {
                println!("{}", render::charts::fig11(&rows).render());
            }
        }
        if wants("table4") {
            emit(&render::table4(&rows), opts.csv);
            emit(&render::table4_failures(&rows), opts.csv);
        }
        let mut reg = MetricsRegistry::new();
        mass_departure::register_metrics(&rows, &mut reg);
        write_bench("mass_departure", &reg);
    }

    if wants("fig12") || wants("table5") {
        progress.info("running churn sweep (fig 12 / table 5)...");
        let mut params = if opts.quick {
            churn_exp::ChurnExpParams {
                kinds: dht_sim::PAPER_KINDS.to_vec(),
                nodes: 512,
                lookups: 1_000,
                rates: vec![0.05, 0.20, 0.40],
                audit: true,
                ..churn_exp::ChurnExpParams::paper(opts.seed)
            }
        } else {
            churn_exp::ChurnExpParams::paper(opts.seed)
        };
        params.jobs = opts.jobs;
        let rows = churn_exp::measure(&params);
        if wants("fig12") {
            emit(&render::fig12(&rows), opts.csv);
            if opts.chart {
                println!("{}", render::charts::fig12(&rows).render());
            }
        }
        if wants("table5") {
            emit(&render::table5(&rows), opts.csv);
        }
        if rows.iter().any(|r| r.audit.is_some()) {
            emit(&render::churn_audit(&rows), opts.csv);
        }
        let mut reg = MetricsRegistry::new();
        churn_exp::register_metrics(&rows, &mut reg);
        write_bench("churn", &reg);
    }

    if wants("fig13") || wants("fig14") {
        progress.info("running sparsity sweep (figs 13-14)...");
        let mut params = if opts.quick {
            sparsity::SparsityParams {
                kinds: dht_sim::PAPER_KINDS.to_vec(),
                id_space: 2048,
                lookups: 2_000,
                sparsities: vec![0.0, 0.3, 0.6, 0.9],
                seed: opts.seed,
                jobs: 1,
            }
        } else {
            sparsity::SparsityParams::paper(opts.seed)
        };
        params.jobs = opts.jobs;
        let rows = sparsity::measure(&params);
        if wants("fig13") {
            emit(&render::fig13(&rows), opts.csv);
            if opts.chart {
                println!("{}", render::charts::fig13(&rows).render());
            }
        }
        if wants("fig14") {
            emit(&render::fig14(&rows), opts.csv);
        }
        let mut reg = MetricsRegistry::new();
        sparsity::register_metrics(&rows, &mut reg);
        write_bench("sparsity", &reg);
    }

    if wants("extpath") {
        progress.info("running extended path-length comparison (Pastry, CAN)...");
        let params = path_length::PathLengthParams {
            kinds: dht_sim::EXTENDED_KINDS.to_vec(),
            sizes: vec![(4, 64), (5, 160), (6, 384)],
            per_node_factor: 0.25,
            per_node_cap: Some(if opts.quick { 8 } else { 32 }),
            seed: opts.seed,
            jobs: opts.jobs,
        };
        let rows = path_length::measure(&params);
        emit(&render::ext_path(&rows), opts.csv);
        let mut reg = MetricsRegistry::new();
        path_length::register_metrics(&rows, &mut reg);
        write_bench("ext_path", &reg);
    }

    if wants("exthotspot") {
        progress.info("running hot-spot workload extension...");
        let mut params = if opts.quick {
            hotspot::HotspotParams::quick(opts.seed)
        } else {
            hotspot::HotspotParams::paper_scale(opts.seed)
        };
        params.jobs = opts.jobs;
        let rows = hotspot::measure(&params);
        emit(&render::ext_hotspot(&rows), opts.csv);
        let mut reg = MetricsRegistry::new();
        hotspot::register_metrics(&rows, &mut reg);
        write_bench("hotspot", &reg);
    }

    if wants("extdegree") {
        progress.info("measuring maintenance degrees (extension)...");
        let params = if opts.quick {
            maintenance::MaintenanceParams::quick(opts.seed)
        } else {
            maintenance::MaintenanceParams::paper_scale(opts.seed)
        };
        let rows = maintenance::measure(&params);
        emit(&render::ext_degree(&rows), opts.csv);
        let mut reg = MetricsRegistry::new();
        maintenance::register_metrics(&rows, &mut reg);
        write_bench("maintenance", &reg);
    }

    if wants("fault") {
        progress.info("running message-loss sweep (fault extension)...");
        let mut params = if opts.quick {
            fault_tolerance::FaultToleranceParams::quick(opts.seed)
        } else {
            fault_tolerance::FaultToleranceParams::paper(opts.seed)
        };
        params.jobs = opts.jobs;
        let rows = fault_tolerance::measure(&params);
        emit(&render::fault(&rows), opts.csv);
        if opts.chart {
            println!("{}", render::charts::fault(&rows).render());
        }
        if rows.iter().any(|r| r.audit.is_some()) {
            emit(&render::fault_audit(&rows), opts.csv);
        }
        let mut reg = MetricsRegistry::new();
        fault_tolerance::register_metrics(&rows, &mut reg);
        write_bench("fault", &reg);
    }

    if wants("extfail") {
        progress.info("running ungraceful-failure extension...");
        let mut params = if opts.quick {
            ungraceful::UngracefulParams::quick(opts.seed)
        } else {
            ungraceful::UngracefulParams::paper_scale(opts.seed)
        };
        params.jobs = opts.jobs;
        let rows = ungraceful::measure(&params);
        emit(&render::ext_failures(&rows), opts.csv);
        let mut reg = MetricsRegistry::new();
        ungraceful::register_metrics(&rows, &mut reg);
        write_bench("ungraceful", &reg);
    }

    if wants("converge") {
        progress.info("running stabilization-convergence sweep (virtual clock)...");
        let mut params = if opts.quick {
            converge::ConvergeParams::quick(opts.seed)
        } else {
            converge::ConvergeParams::paper(opts.seed)
        };
        params.jobs = opts.jobs;
        let rows = converge::measure(&params);
        emit(&render::converge(&rows), opts.csv);
        emit(&render::converge_latency(&rows), opts.csv);
        let mut reg = MetricsRegistry::new();
        converge::register_metrics(&rows, &mut reg);
        write_bench("converge", &reg);
    }

    if wants("recover") {
        progress.info("running corruption-recovery sweep (virtual clock)...");
        let mut params = if opts.quick {
            recover::RecoverParams::quick(opts.seed)
        } else {
            recover::RecoverParams::paper(opts.seed)
        };
        params.jobs = opts.jobs;
        let rows = recover::measure(&params);
        emit(&render::recover(&rows), opts.csv);
        if let Some(bad) = rows.iter().find(|r| r.clean_s.is_none()) {
            eprintln!(
                "[repro] error: {} did not recover from {} within the horizon",
                bad.label,
                bad.strategy.label()
            );
            std::process::exit(1);
        }
        if let Some(bad) = rows.iter().find(|r| r.post.failures > 0) {
            eprintln!(
                "[repro] error: {} failed {} lookups after recovering from {}",
                bad.label,
                bad.post.failures,
                bad.strategy.label()
            );
            std::process::exit(1);
        }
        let mut reg = MetricsRegistry::new();
        recover::register_metrics(&rows, &mut reg);
        write_bench("recover", &reg);
    }

    if wants("scale") {
        progress.info(format!(
            "running large-population scale sweep (jobs={})...",
            opts.jobs
        ));
        let mut params = if opts.quick {
            scale::ScaleParams::quick(opts.seed)
        } else {
            scale::ScaleParams::paper(opts.seed)
        };
        params.jobs = opts.jobs;
        let rows = scale::measure(&params);
        emit(&render::scale(&rows), opts.csv);
        let mut reg = MetricsRegistry::new();
        scale::register_metrics(&rows, &mut reg);
        write_bench("scale", &reg);
    }

    if wants("profile") {
        progress.info("running per-phase cost profile (all kinds, default churn)...");
        let mut params = if opts.quick {
            profile::ProfileParams::quick(opts.seed)
        } else {
            profile::ProfileParams::paper(opts.seed)
        };
        params.jobs = opts.jobs;
        let rows = profile::measure(&params);
        emit(&render::profile_messages(&rows), opts.csv);
        emit(&render::profile_calls(&rows), opts.csv);
        emit(&render::profile_latency(&rows), opts.csv);
        // The profile's contract: every kind exercises every maintenance
        // phase. A structurally-zero cell means the accounting lost a
        // billing site, so fail loudly rather than export a hole.
        for row in &rows {
            for phase in [Phase::Lookup, Phase::Stabilize, Phase::Repair] {
                if row.phases.get(phase).msgs == 0 {
                    eprintln!(
                        "[repro] error: {} billed no {} messages",
                        row.label,
                        phase.label()
                    );
                    std::process::exit(1);
                }
            }
        }
        let mut reg = MetricsRegistry::new();
        profile::register_metrics(&rows, &mut reg);
        write_bench("profile", &reg);
    }

    // Reader side, after any producers so `repro path metrics
    // --metrics-out d` summarises what this very invocation wrote.
    if wants("metrics") {
        let dir = opts
            .metrics_out
            .clone()
            .unwrap_or_else(|| PathBuf::from("bench-out"));
        run_metrics(&dir, opts.csv, &progress);
    }

    progress.info(format!(
        "done in {:.1}s (seed {}, {})",
        started.elapsed().as_secs_f64(),
        opts.seed,
        if opts.quick { "quick" } else { "paper scale" }
    ));
}
