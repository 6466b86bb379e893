//! Metrics registry: counters, gauges and log-scale histograms,
//! serialisable to the versioned `BENCH_*.json` benchmark export. Every
//! value is seeded simulation output; wall clock is measured by the repo
//! benchmark (`benchmark/`), never here.
//!
//! Experiments populate a [`MetricsRegistry`] as they run; the `repro`
//! binary serialises it with [`to_bench_json`] when `--metrics-out` is
//! given. The schema is documented in `EXPERIMENTS.md` and validated by
//! `crates/bench/tests/metrics_schema.rs`; bump [`SCHEMA_VERSION`] on
//! any incompatible change.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use super::json::{escape, num};

/// Version stamp written into every `BENCH_*.json`. Consumers must
/// reject files with a version they do not understand.
///
/// History: v1 = header + `metrics` array; v2 adds the `series` array
/// of virtual-time telemetry samples (and is otherwise identical); v3
/// removes the wall-clock `timer` metric type.
pub const SCHEMA_VERSION: u32 = 3;

/// A saturating event counter.
///
/// Increments saturate at `u64::MAX` instead of wrapping, so a
/// long-running registry degrades to a pegged value rather than a
/// nonsense small one.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counter {
    value: u64,
}

impl Counter {
    /// Adds `n` to the counter, saturating at `u64::MAX`.
    pub fn add(&mut self, n: u64) {
        self.value = self.value.saturating_add(n);
    }

    /// Increments the counter by one.
    pub fn inc(&mut self) {
        self.add(1);
    }

    /// Current count.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.value
    }
}

/// A last-write-wins instantaneous value.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Gauge {
    value: f64,
}

impl Gauge {
    /// Replaces the gauge value.
    pub fn set(&mut self, v: f64) {
        self.value = v;
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> f64 {
        self.value
    }
}

/// Number of buckets in a [`Histogram`]: bucket 0 holds exact zeros and
/// bucket `i >= 1` holds values in `[2^(i-1), 2^i)`, so 64 value buckets
/// cover the whole `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// A fixed-shape log₂-bucket histogram over `u64` observations.
///
/// The bucket layout is the same for every histogram (no configuration),
/// which makes [`Histogram::merge`] a plain element-wise add — the
/// property the per-thread experiment drivers rely on. Alongside the
/// buckets it tracks exact `count`, `sum`, `min`, and `max`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HISTOGRAM_BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Index of the bucket that would hold `value`.
    #[must_use]
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            // value in [2^(i-1), 2^i) => ilog2(value) == i-1.
            value.ilog2() as usize + 1
        }
    }

    /// Inclusive upper bound of bucket `i` (`0` for bucket 0, `2^i - 1`
    /// otherwise; bucket 64's bound is `u64::MAX`).
    #[must_use]
    pub fn bucket_upper_bound(i: usize) -> u64 {
        assert!(i < HISTOGRAM_BUCKETS, "bucket index out of range");
        if i == 0 {
            0
        } else if i == HISTOGRAM_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << i) - 1
        }
    }

    /// Records one observation.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count = self.count.saturating_add(1);
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Folds `other` into `self` (element-wise bucket add; min/max/sum
    /// combine exactly).
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations (saturating).
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest observation, or `None` if empty.
    #[must_use]
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` if empty.
    #[must_use]
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean of all observations, or `0.0` if empty.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Raw bucket counts (index by [`Histogram::bucket_index`]).
    #[must_use]
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Non-empty buckets as `(upper_bound, count)` pairs — the compact
    /// form written to the JSON export.
    #[must_use]
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (Self::bucket_upper_bound(i), c))
            .collect()
    }

    /// Estimates the `q`-quantile (`q` clamped to `[0, 1]`) by the
    /// nearest-rank rule over the log₂ buckets, or `None` if empty.
    ///
    /// **Error bound.** The rank is exact (bucket counts are exact), so
    /// the true quantile lies inside the selected bucket; the estimate
    /// is that bucket's midpoint, clamped to the exact observed
    /// `[min, max]`. A bucket spans `[2^(i-1), 2^i)`, so the estimate
    /// is always within a factor of 2 of the true quantile — and exact
    /// whenever the bucket is degenerate: an empty-range clamp (all
    /// observations equal), the zero bucket, or a quantile pinned to
    /// `min`/`max`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Nearest rank, 1-based: smallest r with r/count >= q.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        // The first and last ranks are the exact observed extremes.
        if rank == 1 {
            return Some(self.min);
        }
        if rank == self.count {
            return Some(self.max);
        }
        let mut seen = 0u64;
        let mut idx = HISTOGRAM_BUCKETS - 1;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen = seen.saturating_add(c);
            if seen >= rank {
                idx = i;
                break;
            }
        }
        let estimate = if idx == 0 {
            0
        } else {
            let low = 1u64 << (idx - 1);
            let high = Self::bucket_upper_bound(idx);
            low + (high - low) / 2
        };
        Some(estimate.clamp(self.min, self.max))
    }
}

/// One named metric in a [`MetricsRegistry`].
// The `Histogram` variant dominates the enum size (its fixed bucket
// array), but registries hold at most a few thousand entries inside a
// `BTreeMap` and are never moved in bulk, so boxing would only add an
// indirection to every record call.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum Metric {
    /// A saturating counter.
    Counter(Counter),
    /// An instantaneous value.
    Gauge(Gauge),
    /// A log₂-bucket histogram.
    Histogram(Histogram),
}

impl Metric {
    /// Schema `type` string for the JSON export.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            Metric::Counter(_) => "counter",
            Metric::Gauge(_) => "gauge",
            Metric::Histogram(_) => "histogram",
        }
    }
}

/// A named virtual-time telemetry series: `(t_us, value)` samples in
/// non-decreasing time order.
///
/// Unlike the point metrics above, a series keeps *every* sample, so a
/// `BENCH_*.json` can report the trajectory of a run (live nodes over
/// time, violations draining to zero, per-phase message totals), not
/// just its endpoint. Timestamps are virtual-clock microseconds
/// ([`crate::clock::SimTime`]).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Series {
    points: Vec<(u64, f64)>,
}

impl Series {
    /// Appends a sample.
    ///
    /// # Panics
    /// If `t_us` is earlier than the last sample — series are recorded
    /// by a single clock-driven sampler, so out-of-order pushes are a
    /// programming error.
    pub fn push(&mut self, t_us: u64, value: f64) {
        if let Some(&(last, _)) = self.points.last() {
            assert!(t_us >= last, "series sample at {t_us}µs after {last}µs");
        }
        self.points.push((t_us, value));
    }

    /// The samples, oldest first.
    #[must_use]
    pub fn points(&self) -> &[(u64, f64)] {
        &self.points
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series holds no samples.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }
}

/// A flat, name-keyed collection of metrics.
///
/// Accessors create the metric on first use and panic if an existing
/// name is re-used with a different kind — mixed kinds under one name
/// are always a programming error, never data.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, Metric>,
    series: BTreeMap<String, Series>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter named `name`, created empty on first access.
    ///
    /// # Panics
    /// If `name` already holds a non-counter metric.
    pub fn counter(&mut self, name: &str) -> &mut Counter {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c,
            other => panic!("metric '{name}' is a {}, not a counter", other.kind()),
        }
    }

    /// The gauge named `name`, created at `0.0` on first access.
    ///
    /// # Panics
    /// If `name` already holds a non-gauge metric.
    pub fn gauge(&mut self, name: &str) -> &mut Gauge {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g,
            other => panic!("metric '{name}' is a {}, not a gauge", other.kind()),
        }
    }

    /// The histogram named `name`, created empty on first access.
    ///
    /// # Panics
    /// If `name` already holds a non-histogram metric.
    pub fn histogram(&mut self, name: &str) -> &mut Histogram {
        match self
            .metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h,
            other => panic!("metric '{name}' is a {}, not a histogram", other.kind()),
        }
    }

    /// Read-only view of a metric, if present.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.get(name)
    }

    /// All metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Metric)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of registered metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the registry holds no metrics.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// The series named `name`, created empty on first access. Series
    /// share the registry's namespace conventions but live beside the
    /// point metrics — a name may hold both a metric and a series.
    pub fn series(&mut self, name: &str) -> &mut Series {
        self.series.entry(name.to_string()).or_default()
    }

    /// Read-only view of a series, if present.
    #[must_use]
    pub fn get_series(&self, name: &str) -> Option<&Series> {
        self.series.get(name)
    }

    /// All series in name order.
    pub fn series_iter(&self) -> impl Iterator<Item = (&str, &Series)> {
        self.series.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of registered series.
    #[must_use]
    pub fn series_len(&self) -> usize {
        self.series.len()
    }
}

/// Provenance stamped into every `BENCH_*.json` alongside the metrics.
#[derive(Debug, Clone)]
pub struct BenchMeta {
    /// Experiment name (also the file stem: `BENCH_<experiment>.json`).
    pub experiment: String,
    /// Short git revision of the producing tree, or `"unknown"`.
    pub git_rev: String,
    /// Master seed the run used.
    pub seed: u64,
    /// Whether the run used `--quick` parameters.
    pub quick: bool,
}

/// Serialises a registry to the versioned `BENCH_*.json` document.
///
/// Layout (schema version [`SCHEMA_VERSION`]):
///
/// ```json
/// {
///   "schema_version": 3,
///   "experiment": "path",
///   "git_rev": "abc1234",
///   "seed": 42,
///   "quick": true,
///   "metrics": [
///     {"name": "...", "type": "counter", "value": 10},
///     {"name": "...", "type": "gauge", "value": 1.5},
///     {"name": "...", "type": "histogram", "count": 3, "sum": 7,
///      "min": 1, "max": 4, "mean": 2.33,
///      "buckets": [{"le": 1, "count": 2}, {"le": 7, "count": 1}]}
///   ],
///   "series": [
///     {"name": "...", "points": [{"t_us": 0, "value": 128},
///                                {"t_us": 1000000, "value": 131}]}
///   ]
/// }
/// ```
///
/// The `series` array (schema v2) carries the virtual-time telemetry
/// samples; point timestamps are non-decreasing within each series.
#[must_use]
pub fn to_bench_json(meta: &BenchMeta, reg: &MetricsRegistry) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"schema_version\": {SCHEMA_VERSION},");
    let _ = writeln!(out, "  \"experiment\": \"{}\",", escape(&meta.experiment));
    let _ = writeln!(out, "  \"git_rev\": \"{}\",", escape(&meta.git_rev));
    let _ = writeln!(out, "  \"seed\": {},", meta.seed);
    let _ = writeln!(out, "  \"quick\": {},", meta.quick);
    out.push_str("  \"metrics\": [\n");
    let total = reg.len();
    for (i, (name, metric)) in reg.iter().enumerate() {
        let mut entry = format!(
            "    {{\"name\": \"{}\", \"type\": \"{}\"",
            escape(name),
            metric.kind()
        );
        match metric {
            Metric::Counter(c) => {
                let _ = write!(entry, ", \"value\": {}", c.get());
            }
            Metric::Gauge(g) => {
                let _ = write!(entry, ", \"value\": {}", num(g.get()));
            }
            Metric::Histogram(h) => {
                let _ = write!(
                    entry,
                    ", \"count\": {}, \"sum\": {}, \"min\": {}, \"max\": {}, \"mean\": {}",
                    h.count(),
                    h.sum(),
                    h.min().unwrap_or(0),
                    h.max().unwrap_or(0),
                    num(h.mean())
                );
                entry.push_str(", \"buckets\": [");
                for (j, (le, count)) in h.nonzero_buckets().into_iter().enumerate() {
                    if j > 0 {
                        entry.push_str(", ");
                    }
                    let _ = write!(entry, "{{\"le\": {le}, \"count\": {count}}}");
                }
                entry.push(']');
            }
        }
        entry.push('}');
        if i + 1 < total {
            entry.push(',');
        }
        let _ = writeln!(out, "{entry}");
    }
    out.push_str("  ],\n");
    out.push_str("  \"series\": [\n");
    let n_series = reg.series_len();
    for (i, (name, series)) in reg.series_iter().enumerate() {
        let mut entry = format!("    {{\"name\": \"{}\", \"points\": [", escape(name));
        for (j, (t_us, value)) in series.points().iter().enumerate() {
            if j > 0 {
                entry.push_str(", ");
            }
            let _ = write!(entry, "{{\"t_us\": {t_us}, \"value\": {}}}", num(*value));
        }
        entry.push_str("]}");
        if i + 1 < n_series {
            entry.push(',');
        }
        let _ = writeln!(out, "{entry}");
    }
    out.push_str("  ]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_saturates_at_max() {
        let mut c = Counter::default();
        c.add(u64::MAX - 1);
        c.inc();
        assert_eq!(c.get(), u64::MAX);
        c.inc();
        assert_eq!(c.get(), u64::MAX, "must saturate, not wrap");
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        // Bucket 0 is exact zeros; bucket i covers [2^(i-1), 2^i).
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(7), 3);
        assert_eq!(Histogram::bucket_index(8), 4);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
        // Upper bounds line up with the index rule: a value lands in the
        // first bucket whose bound is >= value.
        for i in 0..HISTOGRAM_BUCKETS {
            let ub = Histogram::bucket_upper_bound(i);
            assert_eq!(Histogram::bucket_index(ub), i, "bound of bucket {i}");
            if i > 0 && i < HISTOGRAM_BUCKETS - 1 {
                assert_eq!(Histogram::bucket_index(ub + 1), i + 1);
            }
        }
    }

    #[test]
    fn histogram_records_and_summarises() {
        let mut h = Histogram::new();
        for v in [0, 1, 2, 3, 8] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 14);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(8));
        assert!((h.mean() - 2.8).abs() < 1e-12);
        assert_eq!(h.buckets()[0], 1); // the zero
        assert_eq!(h.buckets()[1], 1); // 1
        assert_eq!(h.buckets()[2], 2); // 2, 3
        assert_eq!(h.buckets()[4], 1); // 8
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 1), (3, 2), (15, 1)]);
    }

    #[test]
    fn histogram_merge_is_element_wise_add() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for v in [1, 5, 9] {
            a.record(v);
            whole.record(v);
        }
        for v in [0, 5, 1000] {
            b.record(v);
            whole.record(v);
        }
        a.merge(&b);
        assert_eq!(a, whole, "merge must equal recording everything in one");
        let empty = Histogram::new();
        let mut c = whole.clone();
        c.merge(&empty);
        assert_eq!(c, whole, "merging an empty histogram is a no-op");
    }

    #[test]
    fn empty_histogram_has_no_extremes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.mean(), 0.0);
        assert!(h.nonzero_buckets().is_empty());
    }

    #[test]
    fn quantile_edge_cases() {
        // Empty: no quantile exists.
        assert_eq!(Histogram::new().quantile(0.5), None);

        // All zeros: every quantile is the zero bucket, exactly.
        let mut zeros = Histogram::new();
        for _ in 0..10 {
            zeros.record(0);
        }
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(zeros.quantile(q), Some(0), "q={q}");
        }

        // Single bucket with equal observations: the [min, max] clamp
        // collapses the bucket-midpoint error to zero.
        let mut single = Histogram::new();
        for _ in 0..5 {
            single.record(100);
        }
        assert_eq!(single.quantile(0.5), Some(100));
        assert_eq!(single.quantile(1.0), Some(100));

        // u64::MAX lands in the last bucket; q=1 clamps to the exact max.
        let mut extreme = Histogram::new();
        extreme.record(1);
        extreme.record(u64::MAX);
        assert_eq!(extreme.quantile(0.0), Some(1));
        assert_eq!(extreme.quantile(0.5), Some(1));
        assert_eq!(extreme.quantile(1.0), Some(u64::MAX));

        // Out-of-range q clamps instead of panicking.
        assert_eq!(extreme.quantile(-1.0), Some(1));
        assert_eq!(extreme.quantile(2.0), Some(u64::MAX));
    }

    #[test]
    fn quantile_within_factor_of_two() {
        // The documented bound: estimate and true quantile share a
        // log₂ bucket, so they differ by at most 2x.
        let mut h = Histogram::new();
        let values: Vec<u64> = (1..=1000).collect();
        for &v in &values {
            h.record(v);
        }
        for q in [0.1f64, 0.5, 0.9, 0.99] {
            let truth = values[((q * 1000.0).ceil() as usize).clamp(1, 1000) - 1];
            let est = h.quantile(q).unwrap();
            assert!(
                est >= truth / 2 && est <= truth.saturating_mul(2),
                "q={q}: estimate {est} vs true {truth}"
            );
        }
    }

    #[test]
    fn series_records_ordered_samples() {
        let mut reg = MetricsRegistry::new();
        reg.series("live_nodes").push(0, 128.0);
        reg.series("live_nodes").push(1_000_000, 131.0);
        reg.series("violations").push(0, 4.0);
        assert_eq!(reg.series_len(), 2);
        assert_eq!(
            reg.get_series("live_nodes").unwrap().points(),
            &[(0, 128.0), (1_000_000, 131.0)]
        );
        let names: Vec<_> = reg.series_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["live_nodes", "violations"]);
        assert!(reg.is_empty(), "series live beside the point metrics");
    }

    #[test]
    #[should_panic(expected = "series sample")]
    fn series_rejects_time_travel() {
        let mut s = Series::default();
        s.push(10, 1.0);
        s.push(5, 2.0);
    }

    #[test]
    fn registry_creates_on_first_use_and_checks_kinds() {
        let mut reg = MetricsRegistry::new();
        reg.counter("a").add(2);
        reg.counter("a").inc();
        reg.gauge("b").set(1.5);
        reg.histogram("c").record(7);
        assert_eq!(reg.len(), 3);
        match reg.get("a") {
            Some(Metric::Counter(c)) => assert_eq!(c.get(), 3),
            other => panic!("unexpected: {other:?}"),
        }
        let names: Vec<_> = reg.iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a", "b", "c"], "iteration is name-sorted");
    }

    #[test]
    #[should_panic(expected = "is a counter, not a gauge")]
    fn registry_panics_on_kind_mismatch() {
        let mut reg = MetricsRegistry::new();
        reg.counter("x").inc();
        reg.gauge("x");
    }

    #[test]
    fn bench_json_round_trips_through_parser() {
        use super::super::json::{parse, Json};
        let mut reg = MetricsRegistry::new();
        reg.counter("lookups").add(100);
        reg.gauge("mean_path").set(123.5);
        reg.histogram("hops").record(3);
        reg.histogram("hops").record(9);
        reg.series("live_nodes").push(0, 64.0);
        reg.series("live_nodes").push(500_000, 66.0);
        let meta = BenchMeta {
            experiment: "unit".to_string(),
            git_rev: "deadbeef".to_string(),
            seed: 42,
            quick: true,
        };
        let doc = parse(&to_bench_json(&meta, &reg)).expect("valid JSON");
        assert_eq!(
            doc.get("schema_version").and_then(Json::as_f64),
            Some(f64::from(SCHEMA_VERSION))
        );
        assert_eq!(doc.get("experiment").and_then(Json::as_str), Some("unit"));
        assert_eq!(doc.get("quick").and_then(Json::as_bool), Some(true));
        let metrics = doc.get("metrics").and_then(Json::as_array).unwrap();
        assert_eq!(metrics.len(), 3);
        let hops = metrics
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some("hops"))
            .unwrap();
        assert_eq!(hops.get("type").and_then(Json::as_str), Some("histogram"));
        assert_eq!(hops.get("count").and_then(Json::as_f64), Some(2.0));
        let buckets = hops.get("buckets").and_then(Json::as_array).unwrap();
        assert_eq!(buckets.len(), 2);
        assert_eq!(buckets[0].get("le").and_then(Json::as_f64), Some(3.0));
        let series = doc.get("series").and_then(Json::as_array).unwrap();
        assert_eq!(series.len(), 1);
        assert_eq!(
            series[0].get("name").and_then(Json::as_str),
            Some("live_nodes")
        );
        let points = series[0].get("points").and_then(Json::as_array).unwrap();
        assert_eq!(points.len(), 2);
        assert_eq!(
            points[1].get("t_us").and_then(Json::as_f64),
            Some(500_000.0)
        );
        assert_eq!(points[1].get("value").and_then(Json::as_f64), Some(66.0));
    }
}
