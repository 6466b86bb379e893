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
//! churn with telemetry and the sampler on. Every name but `metrics`
//! belongs to an entry of [`EXPERIMENTS`], which one loop runs, prints,
//! checks and exports in that order: a failed check
//! prints `[repro] error: <reason>` and exits 1 before its entry writes
//! an export.
//! Flags: `--quick` (reduced workloads), `--seed <u64>` (default 2004),
//! `--csv` (machine-readable output), `--chart` (terminal line charts
//! for the line figures), `--metrics-out <dir>` (write one versioned
//! `BENCH_<experiment>.json` per experiment group), `--quiet` (suppress
//! the `[repro]` progress lines on stderr; errors still print), and
//! `--jobs <N>` (cells measured at once, and worker threads per lookup
//! batch; default: available parallelism). Everything printed to stdout
//! or exported is seeded and bit-identical for every `--jobs` value; the
//! only wall clock `repro` reads is its closing "done in" progress line.

use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::time::Instant;

use bench::export::{to_bench_json, BenchMeta};
use bench::{metrics_io, render};
use dht_sim::experiments::figures::EXPERIMENTS;
use dht_sim::experiments::{Cell, Experiment};
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

/// Every name [`EXPERIMENTS`] answers to, in the order usage lists them.
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
fn run_metrics(dir: &std::path::Path, csv: bool, progress: &dyn Fn(&str)) {
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
    progress(&format!(
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
    // Progress lines go to stderr, so stdout stays the seeded output.
    let progress = |msg: &str| {
        if !opts.quiet {
            eprintln!("[repro] {msg}");
        }
    };
    let wants = |name: &str| opts.experiments.contains(name);
    let started = Instant::now();

    // Writes one versioned BENCH_<experiment>.json when --metrics-out is
    // set; a write failure is fatal (CI consumes these files).
    let write_bench = |exp: &Experiment, cells: &[Cell]| {
        let Some(dir) = &opts.metrics_out else {
            return;
        };
        if let Err(e) = fs::create_dir_all(dir) {
            eprintln!("[repro] error: cannot create {}: {e}", dir.display());
            std::process::exit(1);
        }
        let meta = BenchMeta {
            git_rev: metrics_io::git_rev(),
            seed: opts.seed,
            quick: opts.quick,
        };
        let path = dir.join(format!("BENCH_{}.json", exp.name));
        if let Err(e) = fs::write(&path, to_bench_json(exp, cells, &meta)) {
            eprintln!("[repro] error: cannot write {}: {e}", path.display());
            std::process::exit(1);
        }
        progress(&format!("wrote {}", path.display()));
    };

    for exp in EXPERIMENTS {
        if !opts.experiments.iter().any(|name| exp.answers(name)) {
            continue;
        }
        progress(exp.what);
        let cells = exp.run(opts.quick, opts.seed, opts.jobs);
        for (name, layout) in exp.layouts {
            if name.is_empty() || wants(name) {
                if let Some(out) = layout.render(&cells, opts.csv, opts.chart) {
                    print!("{out}");
                }
            }
        }
        if let Err(e) = (exp.check)(&cells) {
            eprintln!("[repro] error: {e}");
            std::process::exit(1);
        }
        write_bench(exp, &cells);
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

    progress(&format!(
        "done in {:.1}s (seed {}, {})",
        started.elapsed().as_secs_f64(),
        opts.seed,
        if opts.quick { "quick" } else { "paper scale" }
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_names_every_figure_of_the_registry() {
        for name in ALL.iter().chain(EXTRA).filter(|&&n| n != "metrics") {
            assert!(EXPERIMENTS.iter().any(|e| e.answers(name)), "{name}");
        }
        for exp in EXPERIMENTS {
            for (name, _) in exp.layouts {
                assert!(
                    name.is_empty() || ALL.contains(name) || EXTRA.contains(name),
                    "{}: {name}",
                    exp.name
                );
            }
        }
    }
}
