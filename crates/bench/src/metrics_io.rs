//! Reading and validating the `BENCH_*.json` documents `repro` writes
//! with [`crate::export::to_bench_json`].
//!
//! Every document is re-parsed ([`crate::json`]) and checked for every
//! field the writer promises, so a drifting writer fails the `metrics`
//! subcommand (and CI) instead of emitting documents downstream tooling
//! cannot read.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::process::Command;

use crate::export::SCHEMA_VERSION;
use crate::json::{self, Json};

/// Short git revision of the working tree, or `"unknown"` when git (or
/// the repository) is unavailable — e.g. when building from a tarball.
#[must_use]
pub fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// One loaded and schema-validated benchmark document.
#[derive(Debug, Clone)]
pub struct BenchFile {
    /// Where the document was read from.
    pub path: PathBuf,
    /// The parsed document.
    pub doc: Json,
}

fn require_str(obj: &Json, key: &str) -> Result<String, String> {
    obj.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("missing or non-string field \"{key}\""))
}

fn require_num(obj: &Json, key: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("missing or non-numeric field \"{key}\""))
}

fn validate_metric(entry: &Json) -> Result<(), String> {
    let name = require_str(entry, "name")?;
    let kind = require_str(entry, "type")?;
    let ctx = |e: String| format!("metric \"{name}\": {e}");
    match kind.as_str() {
        "counter" | "gauge" => {
            require_num(entry, "value").map_err(ctx)?;
        }
        "histogram" => {
            let count = require_num(entry, "count").map_err(ctx)?;
            require_num(entry, "sum").map_err(ctx)?;
            require_num(entry, "min").map_err(ctx)?;
            require_num(entry, "max").map_err(ctx)?;
            require_num(entry, "mean").map_err(ctx)?;
            let buckets = entry
                .get("buckets")
                .and_then(Json::as_array)
                .ok_or_else(|| ctx("missing or non-array field \"buckets\"".into()))?;
            let mut bucket_total = 0.0;
            let mut prev_le = -1.0;
            for b in buckets {
                let le = require_num(b, "le").map_err(&ctx)?;
                let c = require_num(b, "count").map_err(&ctx)?;
                if le <= prev_le {
                    return Err(ctx(format!("bucket bounds not increasing at le={le}")));
                }
                prev_le = le;
                bucket_total += c;
            }
            if bucket_total != count {
                return Err(ctx(format!(
                    "bucket counts sum to {bucket_total}, document says count={count}"
                )));
            }
        }
        other => return Err(ctx(format!("unknown metric type \"{other}\""))),
    }
    Ok(())
}

fn validate_series(entry: &Json) -> Result<(), String> {
    let name = require_str(entry, "name")?;
    let ctx = |e: String| format!("series \"{name}\": {e}");
    let points = entry
        .get("points")
        .and_then(Json::as_array)
        .ok_or_else(|| ctx("missing or non-array field \"points\"".into()))?;
    let mut prev_t = f64::NEG_INFINITY;
    for p in points {
        let t = require_num(p, "t_us").map_err(&ctx)?;
        require_num(p, "value").map_err(&ctx)?;
        if t < prev_t {
            return Err(ctx(format!("point timestamps not monotone at t_us={t}")));
        }
        prev_t = t;
    }
    Ok(())
}

/// Validates a parsed document against schema version
/// [`SCHEMA_VERSION`]: the header fields must be present with the right
/// types, every metric entry must carry its type-specific fields,
/// histogram buckets must be strictly increasing and sum to `count`,
/// and every series (schema v2) must carry name-tagged points with
/// non-decreasing virtual timestamps.
pub fn validate(doc: &Json) -> Result<(), String> {
    let version = require_num(doc, "schema_version")?;
    if version != f64::from(SCHEMA_VERSION) {
        return Err(format!(
            "unsupported schema_version {version} (expected {SCHEMA_VERSION})"
        ));
    }
    require_str(doc, "experiment")?;
    require_str(doc, "git_rev")?;
    require_num(doc, "seed")?;
    doc.get("quick")
        .and_then(Json::as_bool)
        .ok_or("missing or non-boolean field \"quick\"")?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_array)
        .ok_or("missing or non-array field \"metrics\"")?;
    for entry in metrics {
        validate_metric(entry)?;
    }
    let series = doc
        .get("series")
        .and_then(Json::as_array)
        .ok_or("missing or non-array field \"series\"")?;
    for entry in series {
        validate_series(entry)?;
    }
    Ok(())
}

/// Parses and validates one document's text.
pub fn parse_and_validate(text: &str) -> Result<Json, String> {
    let doc = json::parse(text)?;
    validate(&doc)?;
    Ok(doc)
}

/// Loads every `BENCH_*.json` in `dir`, sorted by file name. I/O errors
/// surface as `Err`; schema violations surface per file in the returned
/// `Result`s so one bad document doesn't hide the rest.
pub fn read_dir(dir: &Path) -> io::Result<Vec<(PathBuf, Result<BenchFile, String>)>> {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("BENCH_") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let loaded = fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| parse_and_validate(&text))
            .map(|doc| BenchFile {
                path: path.clone(),
                doc,
            });
        out.push((path, loaded));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::{to_bench_json, BenchMeta};
    use dht_core::stats::Histogram;
    use dht_sim::experiments::figures::EXPERIMENTS;
    use dht_sim::experiments::{Cell, Value};

    /// One cell's counter, gauge, histogram and series, under `fault`'s
    /// metric head.
    fn sample_doc() -> String {
        let mut hops = Histogram::new();
        for v in [1, 3, 9] {
            hops.record(v);
        }
        let cols = [
            (".lookups", Value::Count(10)),
            (".mean_path", Value::Gauge(123.5)),
            (".hops", Value::Histogram(Box::new(hops))),
            (".live", Value::Series(vec![(0, 19.5), (7, 21.5)])),
        ];
        let cell = Cell {
            label: "a".into(),
            x: 0.0,
            cols: cols.into_iter().map(|(n, v)| (n.into(), v)).collect(),
        };
        let fault = EXPERIMENTS.iter().find(|e| e.name == "fault").unwrap();
        let meta = BenchMeta {
            git_rev: "deadbee".into(),
            seed: 7,
            quick: true,
        };
        to_bench_json(fault, &[cell], &meta)
    }

    #[test]
    fn writer_output_validates() {
        let doc = parse_and_validate(&sample_doc()).expect("round-trip");
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("fault"));
    }

    #[test]
    fn rejects_wrong_schema_version() {
        let text = sample_doc().replacen("\"schema_version\": 3", "\"schema_version\": 99", 1);
        let err = parse_and_validate(&text).unwrap_err();
        assert!(err.contains("schema_version"), "{err}");
    }

    #[test]
    fn rejects_older_documents() {
        // Pre-series (v1) and timer-carrying (v2) documents must be
        // regenerated, not silently read.
        for old in [1, 2] {
            let text = sample_doc().replacen(
                "\"schema_version\": 3",
                &format!("\"schema_version\": {old}"),
                1,
            );
            let err = parse_and_validate(&text).unwrap_err();
            assert!(err.contains("schema_version"), "{err}");
        }
    }

    #[test]
    fn rejects_timer_entries_as_an_unknown_type() {
        let text = sample_doc().replacen(
            "\"type\": \"counter\", \"value\": 10",
            "\"type\": \"timer\", \"total_us\": 5, \"spans\": 1, \"max_us\": 5",
            1,
        );
        let err = parse_and_validate(&text).unwrap_err();
        assert!(err.contains("unknown metric type \"timer\""), "{err}");
    }

    #[test]
    fn rejects_missing_series_section() {
        let text = sample_doc().replacen("\"series\"", "\"serues\"", 1);
        let err = parse_and_validate(&text).unwrap_err();
        assert!(err.contains("series"), "{err}");
    }

    #[test]
    fn rejects_non_monotone_series_points() {
        let text = sample_doc().replacen("\"t_us\": 7", "\"t_us\": -1", 1);
        let err = parse_and_validate(&text).unwrap_err();
        assert!(err.contains("monotone"), "{err}");
    }

    #[test]
    fn rejects_series_point_missing_value() {
        let text = sample_doc().replacen("\"value\": 19.5", "\"val\": 19.5", 1);
        let err = parse_and_validate(&text).unwrap_err();
        assert!(err.contains("value"), "{err}");
    }

    #[test]
    fn rejects_missing_metric_fields() {
        let text = sample_doc().replacen("\"value\"", "\"val\"", 1);
        let err = parse_and_validate(&text).unwrap_err();
        assert!(err.contains("value"), "{err}");
    }

    #[test]
    fn rejects_inconsistent_histogram_count() {
        let text = sample_doc().replacen("\"count\": 3", "\"count\": 4", 1);
        let err = parse_and_validate(&text).unwrap_err();
        assert!(err.contains("count"), "{err}");
    }

    #[test]
    fn rejects_malformed_json() {
        assert!(parse_and_validate("{not json").is_err());
    }

    #[test]
    fn git_rev_is_nonempty() {
        assert!(!git_rev().is_empty());
    }
}
