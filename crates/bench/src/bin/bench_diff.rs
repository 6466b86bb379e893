//! `bench-diff`: the CI bench-regression gate.
//!
//! Compares every `BENCH_*.json` in a fresh output directory against
//! the committed baselines under the rule of [`bench::diff`]: every
//! baseline entry must equal its fresh counterpart.
//!
//! ```text
//! bench-diff FRESH_DIR BASELINE_DIR [--update-baselines]
//! ```
//!
//! Exits 0 when every gated entry matched, 1 on any regression or
//! unreadable document, 2 on usage errors. `--update-baselines` copies
//! each fresh document over its baseline (creating new ones) instead of
//! comparing — run it after an intentional behaviour change, then
//! commit the refreshed `results/bench/`.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use bench::diff::compare_docs;
use bench::metrics_io;

struct Options {
    fresh: PathBuf,
    baseline: PathBuf,
    update: bool,
}

fn usage() -> ! {
    eprintln!("usage: bench-diff FRESH_DIR BASELINE_DIR [--update-baselines]");
    std::process::exit(2);
}

fn parse_args() -> Options {
    let mut dirs = Vec::new();
    let mut update = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--update-baselines" => update = true,
            "--help" | "-h" => usage(),
            _ if arg.starts_with('-') => usage(),
            _ => dirs.push(PathBuf::from(arg)),
        }
    }
    if dirs.len() != 2 {
        usage();
    }
    let baseline = dirs.pop().expect("two dirs");
    let fresh = dirs.pop().expect("two dirs");
    Options {
        fresh,
        baseline,
        update,
    }
}

fn load(dir: &Path) -> Result<Vec<metrics_io::BenchFile>, String> {
    let entries =
        metrics_io::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    let mut files = Vec::new();
    for (path, loaded) in entries {
        match loaded {
            Ok(file) => files.push(file),
            Err(e) => return Err(format!("{}: {e}", path.display())),
        }
    }
    Ok(files)
}

fn update_baselines(opts: &Options) -> ExitCode {
    let fresh = match load(&opts.fresh) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("[bench-diff] error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = fs::create_dir_all(&opts.baseline) {
        eprintln!(
            "[bench-diff] error: cannot create {}: {e}",
            opts.baseline.display()
        );
        return ExitCode::FAILURE;
    }
    for file in &fresh {
        let name = file.path.file_name().expect("BENCH file has a name");
        let dest = opts.baseline.join(name);
        if let Err(e) = fs::copy(&file.path, &dest) {
            eprintln!("[bench-diff] error: copying to {}: {e}", dest.display());
            return ExitCode::FAILURE;
        }
        println!("[bench-diff] updated {}", dest.display());
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let opts = parse_args();
    if opts.update {
        return update_baselines(&opts);
    }
    let (fresh, baseline) = match (load(&opts.fresh), load(&opts.baseline)) {
        (Ok(f), Ok(b)) => (f, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("[bench-diff] error: {e}");
            return ExitCode::FAILURE;
        }
    };
    if baseline.is_empty() {
        eprintln!(
            "[bench-diff] error: no BENCH_*.json baselines in {}",
            opts.baseline.display()
        );
        return ExitCode::FAILURE;
    }
    let mut regressions = 0usize;
    for base in &baseline {
        let name = base
            .path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("<unnamed>")
            .to_string();
        let Some(counterpart) = fresh
            .iter()
            .find(|f| f.path.file_name() == base.path.file_name())
        else {
            println!("[bench-diff] {name}: SKIP (not produced by this run)");
            continue;
        };
        let diff = compare_docs(&base.doc, &counterpart.doc);
        if let Some(reason) = &diff.skipped_file {
            println!("[bench-diff] {name}: SKIP ({reason})");
            continue;
        }
        if diff.passed() {
            let extra = if diff.extra > 0 {
                format!(", {} new without baselines", diff.extra)
            } else {
                String::new()
            };
            println!("[bench-diff] {name}: OK ({} gated{extra})", diff.gated);
        } else {
            regressions += diff.failures.len();
            println!(
                "[bench-diff] {name}: FAIL ({} regressions, {} gated)",
                diff.failures.len(),
                diff.gated
            );
            for failure in &diff.failures {
                println!("[bench-diff]   {failure}");
            }
        }
    }
    if regressions > 0 {
        eprintln!(
            "[bench-diff] {regressions} regression(s); if intentional, refresh with \
             bench-diff {} {} --update-baselines",
            opts.fresh.display(),
            opts.baseline.display()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
