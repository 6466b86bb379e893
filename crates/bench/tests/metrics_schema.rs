//! Schema conformance of the `BENCH_*.json` documents `repro` writes.
//!
//! The synthetic tests run everywhere. The last test is the CI leg's
//! checker: after the workflow runs `repro path --quick --metrics-out
//! results/bench`, it re-runs this suite with
//! `METRICS_OUT_DIR=results/bench` and the test validates every written
//! document end to end — schema validity plus the acceptance floor:
//! the hop histogram and a per-phase hop histogram for every overlay in
//! the sweep. A relative `METRICS_OUT_DIR` is resolved against the
//! **workspace root** (where the CI steps run), not the test binary's
//! own working directory.

use bench::export::{to_bench_json, BenchMeta};
use bench::json::Json;
use bench::metrics_io::{self, BenchFile};
use dht_core::stats::Histogram;
use dht_sim::experiments::figures::EXPERIMENTS;
use dht_sim::experiments::{Cell, Value};
use std::path::Path;

/// `cells` written as `repro --metrics-out` writes the `fault` sweep.
fn written(cells: &[Cell]) -> String {
    let fault = EXPERIMENTS.iter().find(|e| e.name == "fault").unwrap();
    let meta = BenchMeta {
        git_rev: metrics_io::git_rev(),
        seed: 2004,
        quick: true,
    };
    to_bench_json(fault, cells, &meta)
}

#[test]
fn no_cells_round_trip() {
    let doc = metrics_io::parse_and_validate(&written(&[])).expect("valid");
    assert_eq!(
        doc.get("metrics").and_then(Json::as_array).map(<[_]>::len),
        Some(0)
    );
}

#[test]
fn every_metric_kind_round_trips() {
    let mut h = Histogram::new();
    for v in [0, 1, 2, 1000, u64::MAX] {
        h.record(v);
    }
    let cell = Cell {
        label: "Chord".into(),
        x: 0.1,
        cols: vec![
            (".c".into(), Value::Count(3)),
            (".g".into(), Value::Gauge(-1.25)),
            (".h".into(), Value::Histogram(Box::new(h))),
        ],
    };
    let text = written(&[cell]);
    let doc = metrics_io::parse_and_validate(&text).expect("valid");
    let metrics = doc.get("metrics").and_then(Json::as_array).unwrap();
    assert_eq!(metrics.len(), 3);
}

#[test]
fn validator_rejects_each_missing_header_field() {
    let good = written(&[]);
    for field in ["schema_version", "experiment", "git_rev", "seed", "quick"] {
        let broken = good.replacen(&format!("\"{field}\""), "\"renamed\"", 1);
        let err = metrics_io::parse_and_validate(&broken)
            .expect_err("renamed header field must fail validation");
        assert!(err.contains(field), "{field}: {err}");
    }
}

/// CI checker: validates the documents a prior `repro ... --metrics-out`
/// invocation wrote to `$METRICS_OUT_DIR`. When a `BENCH_path_length.json`
/// is present (the `repro path` leg), additionally requires the
/// acceptance-floor metrics for every overlay in the sweep.
#[test]
fn written_bench_files_conform() {
    let Some(dir) = std::env::var_os("METRICS_OUT_DIR") else {
        eprintln!("METRICS_OUT_DIR not set; skipping on-disk validation");
        return;
    };
    // Cargo runs test binaries from the package dir (`crates/bench`);
    // CI passes a path relative to the workspace root.
    let mut dir = std::path::PathBuf::from(&dir);
    if dir.is_relative() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .ancestors()
            .nth(2)
            .expect("workspace root");
        dir = root.join(dir);
    }
    let entries = metrics_io::read_dir(&dir).expect("readable metrics dir");
    assert!(
        !entries.is_empty(),
        "no BENCH_*.json in {} — did repro run with --metrics-out?",
        dir.display()
    );
    let mut files: Vec<BenchFile> = Vec::new();
    for (path, loaded) in entries {
        files.push(loaded.unwrap_or_else(|e| panic!("{}: {e}", path.display())));
    }
    let path_length = files
        .iter()
        .find(|f| f.doc.get("experiment").and_then(Json::as_str) == Some("path_length"));
    if let Some(file) = path_length {
        let metrics = file.doc.get("metrics").and_then(Json::as_array).unwrap();
        let names: Vec<&str> = metrics
            .iter()
            .filter_map(|m| m.get("name").and_then(Json::as_str))
            .collect();
        for overlay in ["Cycloid(7)", "Cycloid(11)", "Chord", "Koorde", "Viceroy"] {
            let has = |suffix: &str| {
                names
                    .iter()
                    .any(|n| n.starts_with(&format!("{overlay}/")) && n.ends_with(suffix))
            };
            assert!(has(".hops"), "{overlay}: missing hop histogram");
            assert!(
                names
                    .iter()
                    .any(|n| n.starts_with(&format!("{overlay}/")) && n.contains(".hops.")),
                "{overlay}: missing per-phase hop histograms"
            );
        }
    }
}
