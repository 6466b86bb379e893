//! The `BENCH_*.json` writer: an experiment's cells, rendered as the
//! versioned document `repro --metrics-out` writes and `bench-diff`
//! gates. The schema is in `EXPERIMENTS.md`; [`crate::metrics_io`]
//! validates it. Bump [`SCHEMA_VERSION`] on any incompatible change.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use dht_core::stats::Histogram;
use dht_sim::experiments::{Cell, Experiment, Value};

use crate::json::{escape, num};

/// Version stamp written into every `BENCH_*.json`. Consumers must
/// reject files with a version they do not understand. v2 added the
/// `series` array; v3 removed the wall-clock `timer` metric type.
pub const SCHEMA_VERSION: u32 = 3;

/// Provenance stamped into every `BENCH_*.json` beside the metrics.
#[derive(Debug, Clone)]
pub struct BenchMeta {
    /// Short git revision of the producing tree, or `"unknown"`.
    pub git_rev: String,
    /// Master seed the run used.
    pub seed: u64,
    /// Whether the run used `--quick` parameters.
    pub quick: bool,
}

/// Renders `cells` as `exp`'s `BENCH_{name}.json` document, entries
/// sorted by name.
///
/// Every exported column (a name that is empty or starts with `.` or
/// `/`) is written under `(exp.metric)(cell)` followed by its name. A
/// count is a counter and a gauge a gauge. A summary writes a `.samples`
/// counter and `.mean`, `.p01`, `.p99` and `.max` gauges. A lookup
/// batch writes `.lookups`, `.failures`, `.stale_timeouts`, `.retries`
/// and `.msg_timeouts` counters and `.hops`, `.hops.{phase}` and
/// `.latency_us` histograms. Audits and text are never exported.
///
/// # Panics
/// If a metric or series name is written twice, or a series' timestamps
/// decrease.
#[must_use]
pub fn to_bench_json(exp: &Experiment, cells: &[Cell], meta: &BenchMeta) -> String {
    let mut doc = Document::default();
    for cell in cells {
        let head = (exp.metric)(cell);
        for (name, value) in &cell.cols {
            if name.is_empty() || name.starts_with(['.', '/']) {
                doc.value(&format!("{head}{name}"), value);
            }
        }
    }
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");
    let _ = writeln!(out, "  \"experiment\": \"{}\",", escape(exp.name));
    let _ = writeln!(out, "  \"git_rev\": \"{}\",", escape(&meta.git_rev));
    let _ = writeln!(out, "  \"seed\": {},", meta.seed);
    let _ = writeln!(out, "  \"quick\": {},", meta.quick);
    for (key, entries, after) in [("metrics", &doc.metrics, ","), ("series", &doc.series, "")] {
        let _ = writeln!(out, "  \"{key}\": [");
        for (i, entry) in entries.values().enumerate() {
            let comma = if i + 1 < entries.len() { "," } else { "" };
            let _ = writeln!(out, "    {entry}{comma}");
        }
        let _ = writeln!(out, "  ]{after}");
    }
    out.push_str("}\n");
    out
}

/// Rendered metric and series entries, by name.
#[derive(Default)]
struct Document {
    metrics: BTreeMap<String, String>,
    series: BTreeMap<String, String>,
}

impl Document {
    fn value(&mut self, key: &str, value: &Value) {
        let at = |tail: &str| format!("{key}{tail}");
        match value {
            Value::Count(n) => self.counter(key, *n),
            Value::Gauge(v) => self.gauge(key, *v),
            Value::Summary(s) => {
                self.counter(&at(".samples"), s.n as u64);
                self.gauge(&at(".mean"), s.mean);
                self.gauge(&at(".p01"), s.p01);
                self.gauge(&at(".p99"), s.p99);
                self.gauge(&at(".max"), s.max);
            }
            Value::Lookups(agg) => {
                self.counter(&at(".lookups"), agg.path.n as u64);
                self.counter(&at(".failures"), agg.failures as u64);
                self.histogram(&at(".hops"), &agg.path_hist);
                for (phase, hist) in &agg.phase_hists {
                    self.histogram(&at(&format!(".hops.{}", phase.label())), hist);
                }
                self.counter(&at(".stale_timeouts"), agg.timeouts_total);
                self.counter(&at(".retries"), agg.retries_total);
                self.counter(&at(".msg_timeouts"), agg.msg_timeouts_total);
                self.histogram(&at(".latency_us"), &agg.latency_hist);
            }
            Value::Series(points) => {
                if let Some(w) = points.windows(2).find(|w| w[1].0 < w[0].0) {
                    panic!("{key:?}: sample at {}µs after {}µs", w[1].0, w[0].0);
                }
                let points: Vec<_> = points
                    .iter()
                    .map(|(t_us, v)| format!("{{\"t_us\": {t_us}, \"value\": {}}}", num(*v)))
                    .collect();
                let entry = format!("\"points\": [{}]", points.join(", "));
                insert(&mut self.series, key, entry);
            }
            Value::Histogram(h) => self.histogram(key, h),
            Value::Audit(_) | Value::Text(_) => {}
        }
    }

    fn counter(&mut self, name: &str, n: u64) {
        let entry = format!("\"type\": \"counter\", \"value\": {n}");
        insert(&mut self.metrics, name, entry);
    }

    fn gauge(&mut self, name: &str, v: f64) {
        let entry = format!("\"type\": \"gauge\", \"value\": {}", num(v));
        insert(&mut self.metrics, name, entry);
    }

    fn histogram(&mut self, name: &str, h: &Histogram) {
        let buckets: Vec<_> = h
            .nonzero_buckets()
            .iter()
            .map(|(le, count)| format!("{{\"le\": {le}, \"count\": {count}}}"))
            .collect();
        let (min, max) = (h.min().unwrap_or(0), h.max().unwrap_or(0));
        let entry = format!(
            "\"type\": \"histogram\", \"count\": {}, \"sum\": {}, \"min\": {min}, \"max\": {max}, \"mean\": {}, \"buckets\": [{}]",
            h.count(),
            h.sum(),
            num(h.mean()),
            buckets.join(", ")
        );
        insert(&mut self.metrics, name, entry);
    }
}

/// Adds `{"name": name, fields}` to `entries`, once per name.
fn insert(entries: &mut BTreeMap<String, String>, name: &str, fields: String) {
    let entry = format!("{{\"name\": \"{}\", {fields}}}", escape(name));
    let twice = entries.insert(name.into(), entry).is_some();
    assert!(!twice, "{name:?} is written twice");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Json};
    use dht_core::rng::stream;
    use dht_core::stats::Summary;
    use dht_core::workload::random_pairs;
    use dht_sim::experiments::figures::EXPERIMENTS;
    use dht_sim::experiments::run_requests_jobs;
    use dht_sim::{build_overlay, OverlayKind};

    /// An experiment whose metric head is `{label}/loss={x}`.
    fn fault() -> &'static Experiment {
        EXPERIMENTS.iter().find(|e| e.name == "fault").unwrap()
    }

    fn cell(label: &str, cols: Vec<(&str, Value)>) -> Cell {
        Cell {
            label: label.into(),
            x: 0.5,
            cols: cols.into_iter().map(|(n, v)| (n.into(), v)).collect(),
        }
    }

    fn write(cells: &[Cell]) -> Json {
        let meta = BenchMeta {
            git_rev: "deadbeef".into(),
            seed: 42,
            quick: true,
        };
        parse(&to_bench_json(fault(), cells, &meta)).expect("valid JSON")
    }

    /// The entry of `section` named `name`.
    fn entry<'a>(doc: &'a Json, section: &str, name: &str) -> &'a Json {
        let entries = doc.get(section).and_then(Json::as_array).unwrap();
        entries
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .unwrap_or_else(|| panic!("no {section} entry {name:?}"))
    }

    fn field(entry: &Json, key: &str) -> f64 {
        entry.get(key).and_then(Json::as_f64).unwrap()
    }

    #[test]
    fn every_value_variant_is_written_under_its_metric_name() {
        let mut net = build_overlay(OverlayKind::Cycloid7, 64, 1);
        let reqs = random_pairs(net.as_ref(), 100, &mut stream(2, "export"));
        let agg = run_requests_jobs(net.as_mut(), &reqs, 1);
        let mut hist = Histogram::new();
        hist.record(3);
        hist.record(9);
        let audit = net.audit_state(dht_core::AuditScope::Full);
        let cells = [cell(
            "Cycloid(7)",
            vec![
                ("", Value::Lookups(Box::new(agg))),
                (".count", Value::Count(7)),
                ("/gauge", Value::Gauge(123.5)),
                (".load", Value::Summary(Summary::of(&[1.0, 2.0, 6.0]))),
                (".live", Value::Series(vec![(0, 64.0), (500_000, 66.0)])),
                (".hist", Value::Histogram(Box::new(hist))),
                (".audit", Value::Audit(audit)),
                (".text", Value::Text("shown".into())),
                ("shown only", Value::Count(1)),
            ],
        )];
        let doc = write(&cells);
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_f64),
            Some(f64::from(SCHEMA_VERSION))
        );
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("fault"));
        assert_eq!(doc.get("quick").and_then(Json::as_bool), Some(true));
        let metric = |tail: &str| entry(&doc, "metrics", &format!("Cycloid(7)/loss=0.5{tail}"));
        let kind = |tail: &str| metric(tail).get("type").and_then(Json::as_str).unwrap();

        // A lookup batch: counters and histograms, one per phase used.
        assert_eq!(field(metric(".lookups"), "value"), 100.0);
        assert_eq!(kind(".failures"), "counter");
        assert_eq!(field(metric(".hops"), "count"), 100.0);
        for tail in [".stale_timeouts", ".retries", ".msg_timeouts"] {
            assert_eq!(field(metric(tail), "value"), 0.0, "{tail}");
        }
        assert_eq!(field(metric(".latency_us"), "count"), 100.0);
        let names: Vec<&str> = doc
            .get("metrics")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .filter_map(|m| m.get("name").and_then(Json::as_str))
            .collect();
        assert!(names.iter().any(|n| n.contains(".hops.ascending")));
        let mut sorted = names.clone();
        sorted.sort_unstable();
        assert_eq!(names, sorted, "entries are name-sorted");

        // Counts, gauges, summaries and histograms.
        assert_eq!(
            (kind(".count"), field(metric(".count"), "value")),
            ("counter", 7.0)
        );
        assert_eq!(
            (kind("/gauge"), field(metric("/gauge"), "value")),
            ("gauge", 123.5)
        );
        assert_eq!(field(metric(".load.samples"), "value"), 3.0);
        assert_eq!(field(metric(".load.mean"), "value"), 3.0);
        assert_eq!(field(metric(".load.p01"), "value"), 1.0);
        assert_eq!(field(metric(".load.p99"), "value"), 6.0);
        assert_eq!(field(metric(".load.max"), "value"), 6.0);
        let hist = metric(".hist");
        assert_eq!((field(hist, "count"), field(hist, "sum")), (2.0, 12.0));
        let buckets = hist.get("buckets").and_then(Json::as_array).unwrap();
        assert_eq!(buckets.len(), 2);
        assert_eq!(field(&buckets[0], "le"), 3.0);

        // Series live in their own section.
        let live = entry(&doc, "series", "Cycloid(7)/loss=0.5.live");
        let points = live.get("points").and_then(Json::as_array).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(
            (field(&points[1], "t_us"), field(&points[1], "value")),
            (500_000.0, 66.0)
        );

        // Audits, text and names without a leading `.` or `/` are shown
        // only.
        assert!(!names
            .iter()
            .any(|n| n.contains("audit") || n.contains("text")));
        assert!(!names.iter().any(|n| n.contains("shown")));
    }

    #[test]
    #[should_panic(expected = "\"Chord/loss=0.5.msgs\" is written twice")]
    fn a_name_written_twice_panics() {
        let twin = || cell("Chord", vec![(".msgs", Value::Count(1))]);
        let _ = write(&[twin(), twin()]);
    }

    #[test]
    #[should_panic(expected = "sample at 5µs after 10µs")]
    fn a_time_reversed_series_panics() {
        let _ = write(&[cell(
            "Chord",
            vec![(".live", Value::Series(vec![(10, 1.0), (5, 2.0)]))],
        )]);
    }
}
