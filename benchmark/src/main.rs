//! The repo benchmark: one workload per process, every metric by name.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark --list
//! benchmark --smoke
//! benchmark --repeat <k> [--workload <name>] [--seed <n>] [--seconds <s>]
//! ```
//!
//! See `README.md` beside this package for what is measured and why.

mod metrics;
mod pipeline;
mod plan;
mod probes;
mod repeat;
mod spans;
mod stats;

use std::process::{Command, ExitCode};
use std::time::Instant;

use metrics::Def;
use pipeline::{Outcome, RunConfig};
use plan::{Workload, COUNTS_PER_SECONDS, WORKLOAD_NAMES};
use spans::Recorder;

/// Thread cap of the parallel pass and of the process.
const MAX_JOBS: usize = 4;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    list: bool,
    smoke: bool,
    repeat: Option<usize>,
}

fn usage() -> String {
    format!(
        "usage: benchmark --workload <{}> --seed <n> --seconds <s> --trace <0|1>\n\
         \x20      benchmark --list | --smoke | --repeat <k> [--workload <name>] [--seed <n>] [--seconds <s>]",
        WORKLOAD_NAMES.join("|")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        list: false,
        smoke: false,
        repeat: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => {
                args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
            }
            "--repeat" => {
                let k: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if k < 2 {
                    return Err("--repeat needs at least 2 runs per set".to_owned());
                }
                args.repeat = Some(k);
            }
            "--list" => args.list = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::from(2);
        }
    };
    if args.list {
        list();
        return ExitCode::SUCCESS;
    }
    if args.smoke {
        return smoke(args.seed);
    }
    if let Some(k) = args.repeat {
        return repeat::run(k, args.workload.as_deref(), args.seed, args.seconds);
    }
    let Some(workload) = args.workload.as_deref().and_then(plan::workload) else {
        eprintln!("{}", usage());
        return ExitCode::from(2);
    };
    let scale = args.seconds / COUNTS_PER_SECONDS;
    print_header(&workload, &args, scale);
    let report = run_once(&workload.scaled(scale), args.seed, args.trace);
    report.print();
    if args.trace {
        if let Err(e) = report.write_trace(args.seed) {
            eprintln!("cannot write the trace: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", report.result_line());
    if report.outcome.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn jobs() -> usize {
    std::thread::available_parallelism()
        .map_or(1, usize::from)
        .min(MAX_JOBS)
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// First line of `program args...`, or `unknown` when it cannot run.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
}

fn print_header(w: &Workload, args: &Args, scale: f64) {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "# workload {}  seed {}  seconds {}  count scale {scale}  trace {}",
        w.name,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("# why: {}", w.why);
    println!(
        "# nproc {nproc}  thread cap {}  cpu {cpu}  {}  git {}",
        jobs(),
        first_line_of("rustc", &["-V"]),
        first_line_of("git", &["rev-parse", "--short", "HEAD"]),
    );
}

/// Everything one run produced.
struct Report {
    workload: &'static str,
    defs: Vec<Def>,
    values: Vec<(String, f64)>,
    outcome: Outcome,
    recorder: Recorder,
    wall_s: f64,
}

fn run_once(w: &Workload, seed: u64, traced: bool) -> Report {
    let cfg = RunConfig { seed, jobs: jobs() };
    let mut recorder = Recorder::new(traced);
    let started = Instant::now();
    let outcome = pipeline::run(w, &cfg, &mut recorder);
    let wall_s = started.elapsed().as_secs_f64();
    let (defs, values) = if traced {
        (
            metrics::per_layer_defs(),
            metrics::per_layer_values(&outcome, cfg.jobs),
        )
    } else {
        (
            metrics::end_to_end_defs(),
            metrics::end_to_end_values(&outcome, peak_rss_mib()),
        )
    };
    Report {
        workload: w.name,
        defs,
        values,
        outcome,
        recorder,
        wall_s,
    }
}

impl Report {
    fn print(&self) {
        self.print_kinds();
        if self.recorder.is_on() {
            self.print_layers();
        }
        println!();
        for ((name, value), def) in self.values.iter().zip(&self.defs) {
            println!(
                "{name:<34} {value:>18.6} {:<6} {} {}",
                def.unit,
                def.domain,
                def.better.label()
            );
        }
        println!();
        for e in &self.outcome.errors {
            println!("ERROR {e}");
        }
        println!(
            "operations attempted {}  failed {}  lost under churn {}  wall {:.3} s",
            self.outcome.attempted, self.outcome.failed, self.outcome.lost_under_churn, self.wall_s
        );
        println!(
            "fingerprint {} {:016x}",
            self.workload, self.outcome.fingerprint
        );
    }

    fn print_kinds(&self) {
        println!();
        println!(
            "{:<10} {:>8} {:>10} {:>10} {:>7} {:>8} {:>10} {:>11} {:>9} {:>9} {:>16} {:>8} {:>9} {:>7}",
            "kind", "build_s", "lookup/s", "par/s", "hops", "ns/hop", "cycles/s", "audit n/s",
            "sim/wall", "rounds", "p99 ms (samples)", "B/node", "attempted", "failed"
        );
        let dash = || "-".to_owned();
        for k in &self.outcome.kinds {
            let l = k.lookups.as_ref();
            let m = k.member.as_ref();
            let c = k.churn.as_ref();
            println!(
                "{:<10} {:>8.3} {:>10} {:>10} {:>7} {:>8} {:>10} {:>11} {:>9} {:>9} {:>16} {:>8.1} {:>9} {:>7}",
                k.slug,
                k.build_s,
                l.map_or_else(dash, |l| format!("{:.0}", l.per_s)),
                l.map_or_else(dash, |l| format!("{:.0}", l.par_per_s)),
                l.map_or_else(dash, |l| format!("{:.3}", l.hops_mean)),
                l.map_or_else(dash, |l| format!("{:.0}", l.ns_per_hop)),
                m.map_or_else(dash, |m| format!("{:.0}", m.cycles_per_s)),
                m.map_or_else(dash, |m| format!("{:.0}", m.audit_nodes_per_s)),
                c.map_or_else(dash, |c| format!("{:.1}", c.sim_s_per_wall_s)),
                c.map_or_else(dash, |c| format!("{:.1}", c.sim_s_per_wall_s_rounds)),
                c.map_or_else(dash, |c| format!(
                    "{:.1} ({})",
                    c.latency_ms_p99, c.latency_samples
                )),
                k.bytes_per_node,
                k.attempted,
                k.failed,
            );
        }
        if let Some(c) = self.outcome.kinds.iter().find_map(|k| k.churn.as_ref()) {
            let supported = stats::highest_supported_percentile(c.latency_samples)
                .map_or_else(|| "none".to_owned(), |q| format!("p{q}"));
            println!(
                "latency: {} samples per kind; highest percentile with 10 samples beyond it: {supported}",
                c.latency_samples
            );
        }
        for k in &self.outcome.kinds {
            if let Some(c) = k.churn.as_ref().filter(|c| c.failures > 0) {
                println!(
                    "{}: churn lost {} of {} lookups ({} stranded)",
                    k.slug, c.failures, c.lookups, c.stranded
                );
            }
        }
    }

    /// Count, busy time, self time and share of the workload's wall, per
    /// span name.
    fn print_layers(&self) {
        let root_ns = self.recorder.root_ns().max(1) as f64;
        println!();
        println!(
            "{:<34} {:>9} {:>12} {:>12} {:>7}",
            "layer.operation", "count", "busy ms", "self ms", "share"
        );
        let rows = self.recorder.table();
        // Rows under 0.05 % are folded; the trace file has every span.
        let mut folded = (0u64, 0u64);
        for row in &rows {
            let share = 100.0 * row.self_ns as f64 / root_ns;
            if share < 0.05 {
                folded = (folded.0 + row.count, folded.1 + row.self_ns);
                continue;
            }
            println!(
                "{:<34} {:>9} {:>12.3} {:>12.3} {:>6.2}%",
                row.name,
                row.count,
                row.busy_ns as f64 / 1e6,
                row.self_ns as f64 / 1e6,
                share
            );
        }
        println!(
            "{:<34} {:>9} {:>12} {:>12.3} {:>6.2}%",
            "(rows under 0.05 %)",
            folded.0,
            "",
            folded.1 as f64 / 1e6,
            100.0 * folded.1 as f64 / root_ns
        );
        println!(
            "self times above sum to the workload span: {:.3} s (measured wall {:.3} s)",
            root_ns / 1e9,
            self.wall_s
        );
    }

    fn write_trace(&self, seed: u64) -> std::io::Result<()> {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir)?;
        let path = dir.join(format!("trace-{}.json", self.workload));
        std::fs::write(&path, self.recorder.to_json(self.workload, seed))?;
        println!("trace written to {}", path.display());
        Ok(())
    }

    /// The one-line JSON result the driver reads.
    fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .values
            .iter()
            .zip(&self.defs)
            .map(|((name, value), def)| {
                format!(
                    "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    def.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.outcome.errors.is_empty(),
            self.outcome.attempted,
            self.outcome.failed,
            metrics.join(", ")
        )
    }
}

/// Names, units, directions and bounds, one metric per tab-separated line.
fn list() {
    for w in WORKLOAD_NAMES {
        let why = plan::workload(w).expect("listed workload exists").why;
        println!("workload\t{w}\t{why}");
    }
    for (section, defs) in [
        ("end_to_end", metrics::end_to_end_defs()),
        ("per_layer", metrics::per_layer_defs()),
    ] {
        for d in defs {
            let bound = d.bound.map_or_else(|| "-".to_owned(), |b| b.to_string());
            println!(
                "{section}\t{}\t{}\t{}\t{bound}\t{}\t{}",
                d.name,
                d.unit,
                d.better.label(),
                d.domain,
                d.about
            );
        }
    }
}

/// All four workloads at 250 nodes and a hundredth of the counts, untraced
/// and traced; every metric name must come out exactly once, finite.
fn smoke(seed: u64) -> ExitCode {
    let started = Instant::now();
    let mut ok = true;
    for name in WORKLOAD_NAMES {
        let w = plan::workload(name)
            .expect("listed workload exists")
            .smoke();
        let mut fingerprints = Vec::new();
        for traced in [false, true] {
            let report = run_once(&w, seed, traced);
            let mut problems: Vec<String> = report.outcome.errors.clone();
            fingerprints.push(report.outcome.fingerprint);
            if fingerprints[0] != report.outcome.fingerprint {
                problems.push("traced and untraced fingerprints differ".to_owned());
            }
            if report.outcome.failed > 0 {
                problems.push(format!("{} operations failed", report.outcome.failed));
            }
            for def in &report.defs {
                let hits: Vec<f64> = report
                    .values
                    .iter()
                    .filter(|(n, _)| *n == def.name)
                    .map(|(_, v)| *v)
                    .collect();
                if hits.len() != 1 || !hits[0].is_finite() {
                    problems.push(format!("{} emitted as {hits:?}", def.name));
                }
            }
            if report.values.len() != report.defs.len() {
                problems.push(format!(
                    "{} values for {} names",
                    report.values.len(),
                    report.defs.len()
                ));
            }
            println!(
                "smoke {name:<16} trace {}  {} metrics  fingerprint {:016x}  {}",
                u8::from(traced),
                report.values.len(),
                report.outcome.fingerprint,
                if problems.is_empty() { "ok" } else { "FAILED" }
            );
            for p in &problems {
                println!("  {p}");
            }
            ok &= problems.is_empty();
        }
    }
    let secs = started.elapsed().as_secs_f64();
    println!("smoke took {secs:.2} s");
    if secs >= 10.0 {
        println!("smoke must stay under 10 s");
        ok = false;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
