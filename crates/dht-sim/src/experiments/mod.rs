//! The evaluation of §4 as data. Each table and figure `repro` prints
//! belongs to one [`Experiment`] of [`figures::EXPERIMENTS`]: a quick and
//! a paper [`Grid`] of overlay kinds × one swept axis, a cell function
//! that measures one (axis value, kind) pair into named, typed columns
//! ([`Value`]), the [`Layout`]s that show them, and a check that can fail
//! the run. One runner ([`Experiment::run`]) fans the cells out and one
//! renderer ([`Layout::render`]) prints every table and chart; `repro
//! --metrics-out` writes every exported column under its metric name.

pub mod figures;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

use dht_core::audit::AuditReport;
use dht_core::lookup::HopPhase;
use dht_core::overlay::Overlay;
use dht_core::stats::{Histogram, Summary};
use dht_core::workload::LookupRequest;

use crate::factory::{build_overlay_spaced, OverlayKind};
use crate::report::Layout;

/// One measured value, typed by how it is exported (`bench::export`
/// expands each variant into counters, gauges, histograms or a series).
#[derive(Debug, Clone)]
pub enum Value {
    /// A counter.
    Count(u64),
    /// A gauge.
    Gauge(f64),
    /// A distribution.
    Summary(Summary),
    /// One batch of lookups.
    Lookups(Box<LookupAggregate>),
    /// A time series of `(t_us, value)` points.
    Series(Vec<(u64, f64)>),
    /// A log₂-bucket histogram.
    Histogram(Box<Histogram>),
    /// A routing-state audit; shown, never exported.
    Audit(AuditReport),
    /// Text; shown, never exported.
    Text(String),
}

/// One measured (axis value, kind) pair.
#[derive(Debug, Clone)]
pub struct Cell {
    /// The overlay's name: a table's series and a metric name's head.
    pub label: String,
    /// The axis value.
    pub x: f64,
    /// Named columns. A name that is empty or starts with `.` or `/` is
    /// the tail of the column's metric name and is exported; any other
    /// name is shown only.
    pub cols: Vec<(String, Value)>,
}

impl Cell {
    fn get(&self, name: &str) -> &Value {
        self.cols
            .iter()
            .find(|(n, _)| n == name)
            .map_or_else(|| panic!("{}: no column {name:?}", self.label), |(_, v)| v)
    }

    /// Whether the cell has a column `name`.
    #[must_use]
    pub fn has(&self, name: &str) -> bool {
        self.cols.iter().any(|(n, _)| n == name)
    }

    /// A count or gauge column.
    #[must_use]
    pub fn num(&self, name: &str) -> f64 {
        match self.get(name) {
            Value::Count(n) => *n as f64,
            Value::Gauge(v) => *v,
            v => panic!("{name:?} is not a number: {v:?}"),
        }
    }

    /// A distribution column.
    #[must_use]
    pub fn summary(&self, name: &str) -> &Summary {
        match self.get(name) {
            Value::Summary(s) => s,
            v => panic!("{name:?} is not a summary: {v:?}"),
        }
    }

    /// A lookup-batch column (`""` is a cell's only batch).
    #[must_use]
    pub fn lookups(&self, name: &str) -> &LookupAggregate {
        match self.get(name) {
            Value::Lookups(agg) => agg,
            v => panic!("{name:?} is not a lookup batch: {v:?}"),
        }
    }

    /// A histogram column.
    #[must_use]
    pub fn histogram(&self, name: &str) -> &Histogram {
        match self.get(name) {
            Value::Histogram(h) => h,
            v => panic!("{name:?} is not a histogram: {v:?}"),
        }
    }

    /// A text column.
    #[must_use]
    pub fn text(&self, name: &str) -> &str {
        match self.get(name) {
            Value::Text(t) => t,
            v => panic!("{name:?} is not text: {v:?}"),
        }
    }

    /// The cell's audit, if its grid audits.
    #[must_use]
    pub fn audit(&self) -> Option<&AuditReport> {
        self.cols.iter().find_map(|(_, v)| match v {
            Value::Audit(report) => Some(report),
            _ => None,
        })
    }
}

/// Overlay kinds × one swept axis, and the sizes every cell reads. What
/// the axis sweeps is each [`figures::EXPERIMENTS`] entry's `{x}`.
#[derive(Debug, Clone, Copy)]
pub struct Grid {
    /// Overlays, measured at every axis value.
    pub kinds: &'static [OverlayKind],
    /// The swept values.
    pub axis: &'static [f64],
    /// Network size, where the axis is not; where it is, the nodes that
    /// join each network before it is measured.
    pub nodes: usize,
    /// Identifier-space capacity; `0` sizes the space to the population.
    pub space: usize,
    /// Lookups per cell, or per node where each node issues its own.
    pub lookups: usize,
    /// Whether every cell audits its routing state.
    pub audit: bool,
}

impl Grid {
    /// Builds `kind` with `n` nodes in this grid's identifier space.
    #[must_use]
    pub fn build(&self, kind: OverlayKind, n: usize, seed: u64) -> Box<dyn Overlay> {
        build_overlay_spaced(kind, n, self.space, seed)
    }
}

/// Where a cell sits in its grid.
#[derive(Debug, Clone, Copy)]
pub struct At {
    /// The cell's overlay kind.
    pub kind: OverlayKind,
    /// The cell's axis value.
    pub x: f64,
    /// Axis-major cell index, which the cell's seeds derive from.
    pub i: usize,
    /// Index of `kind` in the grid's kinds.
    pub k: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker threads per lookup batch (results are identical for every
    /// value).
    pub jobs: usize,
}

/// A cell function's result: the cell's label and columns.
pub type Measured = (String, Vec<(String, Value)>);

/// One experiment: its grids, what it measures and how it is shown.
#[derive(Debug)]
pub struct Experiment {
    /// Export name: `repro --metrics-out` writes `BENCH_{name}.json`.
    pub name: &'static str,
    /// The progress line while the grid runs.
    pub what: &'static str,
    /// The `--quick` grid.
    pub quick: Grid,
    /// The paper-scale grid.
    pub paper: Grid,
    /// A cell's metric-name head.
    pub metric: fn(&Cell) -> String,
    /// Measures one cell.
    pub measure: fn(&Grid, At) -> Measured,
    /// The layouts, each under the `repro` name that shows it; `""`
    /// shows with any of the experiment's names.
    pub layouts: &'static [(&'static str, Layout)],
    /// Fails the run with a reason, after the layouts print and before
    /// anything is exported.
    pub check: fn(&[Cell]) -> Result<(), String>,
}

impl Experiment {
    /// Whether `repro <name>` shows part of this experiment.
    #[must_use]
    pub fn answers(&self, name: &str) -> bool {
        !name.is_empty() && self.layouts.iter().any(|(n, _)| *n == name)
    }

    /// Measures every cell of the quick or the paper grid, axis-major,
    /// on up to `jobs` threads that each take the next cell: at
    /// `--jobs 1` one cell's network is alive at a time. A cell is a
    /// function of its grid and [`At`], so the cells are identical for
    /// every `jobs`.
    #[must_use]
    pub fn run(&self, quick: bool, seed: u64, jobs: usize) -> Vec<Cell> {
        let grid = if quick { &self.quick } else { &self.paper };
        let mut at = Vec::new();
        for &x in grid.axis {
            for (k, &kind) in grid.kinds.iter().enumerate() {
                let i = at.len();
                at.push(At {
                    kind,
                    x,
                    i,
                    k,
                    seed,
                    jobs,
                });
            }
        }
        let cells: Vec<OnceLock<Cell>> = at.iter().map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..jobs.max(1).min(at.len()) {
                scope.spawn(|| {
                    while let Some(&at) = at.get(next.fetch_add(1, Ordering::Relaxed)) {
                        let (label, cols) = (self.measure)(grid, at);
                        let _ = cells[at.i].set(Cell {
                            label,
                            x: at.x,
                            cols,
                        });
                    }
                });
            }
        });
        cells.into_iter().filter_map(OnceLock::into_inner).collect()
    }
}

/// Every [`HopPhase`] variant, for phase-indexed accounting.
const ALL_PHASES: [HopPhase; 6] = [
    HopPhase::Ascending,
    HopPhase::Descending,
    HopPhase::TraverseCycle,
    HopPhase::DeBruijn,
    HopPhase::Successor,
    HopPhase::Finger,
];

/// Aggregate statistics of one batch of lookups on one overlay.
#[derive(Debug, Clone, PartialEq)]
pub struct LookupAggregate {
    /// Overlay display name.
    pub label: String,
    /// Node count when the batch started.
    pub n_start: usize,
    /// Path-length distribution.
    pub path: Summary,
    /// Per-lookup timeout distribution.
    pub timeouts: Summary,
    /// Lookups that did not terminate at the key's owner.
    pub failures: usize,
    /// Per-lookup message-retry distribution (loss-induced re-sends only;
    /// all-zero on an ideal network).
    pub retries: Summary,
    /// Per-lookup message-timeout distribution: live contacts abandoned
    /// after the retry policy's final attempt. Distinct from
    /// [`LookupAggregate::timeouts`], the §4.3 stale-entry count.
    pub msg_timeouts: Summary,
    /// Per-lookup simulated end-to-end latency in milliseconds (RTT draws
    /// plus backoff waits under the active fault plan).
    pub latency_ms: Summary,
    /// Path-length histogram (log₂ buckets) over all lookups.
    pub path_hist: Histogram,
    /// Per-phase hop-count histograms: for every routing phase the batch
    /// used at least once, the distribution of per-lookup hop counts in
    /// that phase. Keyed for export by [`HopPhase::label`].
    pub phase_hists: Vec<(HopPhase, Histogram)>,
    /// Per-lookup simulated latency histogram, in µs.
    pub latency_hist: Histogram,
    /// Total stale-entry timeouts across the batch.
    pub timeouts_total: u64,
    /// Total message retries across the batch.
    pub retries_total: u64,
    /// Total message timeouts across the batch.
    pub msg_timeouts_total: u64,
}

impl LookupAggregate {
    /// Mean hops per lookup spent in `phase` (Figs. 7, 14); 0 for a
    /// phase the batch never used.
    #[must_use]
    pub fn phase_mean_hops(&self, phase: HopPhase) -> f64 {
        self.phase_hist(phase).map_or(0.0, Histogram::mean)
    }

    /// Fraction (0..=1) of all the batch's hops spent in `phase` (Fig.
    /// 7's stacked bars).
    #[must_use]
    pub fn phase_share(&self, phase: HopPhase) -> f64 {
        let total = self.path_hist.sum();
        if total == 0 {
            return 0.0;
        }
        self.phase_hist(phase).map_or(0, Histogram::sum) as f64 / total as f64
    }

    fn phase_hist(&self, phase: HopPhase) -> Option<&Histogram> {
        self.phase_hists
            .iter()
            .find(|(p, _)| *p == phase)
            .map(|(_, h)| h)
    }
}

/// Runs a batch of lookup requests across up to `jobs` worker threads
/// (via [`Overlay::lookup_batch`]) and aggregates the traces. The
/// aggregate is bit-identical for every `jobs` value.
pub fn run_requests_jobs(
    overlay: &mut dyn Overlay,
    reqs: &[LookupRequest],
    jobs: usize,
) -> LookupAggregate {
    let n_start = overlay.len();
    let mut paths = Vec::with_capacity(reqs.len());
    let mut timeouts = Vec::with_capacity(reqs.len());
    let mut retries = Vec::with_capacity(reqs.len());
    let mut msg_timeouts = Vec::with_capacity(reqs.len());
    let mut latency_ms = Vec::with_capacity(reqs.len());
    let mut failures = 0usize;
    let mut path_hist = Histogram::new();
    let mut latency_hist = Histogram::new();
    // Per-lookup hop counts for every phase; only the phases the batch
    // actually used are kept.
    let mut phase_hists = ALL_PHASES.map(|phase| (phase, Histogram::new()));
    let pairs: Vec<(dht_core::overlay::NodeToken, u64)> =
        reqs.iter().map(|r| (r.src, r.raw_key)).collect();
    let traces = overlay.lookup_batch(&pairs, jobs);
    for trace in &traces {
        paths.push(trace.path_len());
        timeouts.push(u64::from(trace.timeouts));
        retries.push(u64::from(trace.net.retries));
        msg_timeouts.push(u64::from(trace.net.msg_timeouts));
        latency_ms.push(trace.net.latency_us as f64 / 1_000.0);
        if !trace.outcome.is_success() {
            failures += 1;
        }
        path_hist.record(trace.path_len() as u64);
        latency_hist.record(trace.net.latency_us);
        for (phase, h) in &mut phase_hists {
            h.record(trace.hops_in_phase(*phase) as u64);
        }
    }
    LookupAggregate {
        label: overlay.name(),
        n_start,
        path: Summary::of_lens(&paths),
        timeouts: Summary::of_counts(&timeouts),
        failures,
        retries: Summary::of_counts(&retries),
        msg_timeouts: Summary::of_counts(&msg_timeouts),
        latency_ms: Summary::of(&latency_ms),
        path_hist,
        phase_hists: phase_hists
            .into_iter()
            .filter(|(_, h)| h.sum() > 0)
            .collect(),
        latency_hist,
        timeouts_total: timeouts.iter().sum(),
        retries_total: retries.iter().sum(),
        msg_timeouts_total: msg_timeouts.iter().sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::{build_overlay, OverlayKind};
    use dht_core::rng::stream;
    use dht_core::workload::random_pairs;

    #[test]
    fn run_requests_aggregates() {
        let mut net = build_overlay(OverlayKind::Cycloid7, 64, 1);
        let reqs = random_pairs(net.as_ref(), 200, &mut stream(2, "agg"));
        let agg = run_requests_jobs(net.as_mut(), &reqs, 1);
        assert_eq!(agg.label, "Cycloid(7)");
        assert_eq!(agg.n_start, 64);
        assert_eq!(agg.path.n, 200);
        assert_eq!(agg.failures, 0);
        assert!(agg.path.mean > 0.0);
        assert_eq!(agg.retries.max, 0.0, "ideal network never retries");
        assert_eq!(agg.msg_timeouts.max, 0.0);
        assert_eq!(agg.latency_ms.max, 0.0, "ideal network is instantaneous");
    }

    #[test]
    fn aggregate_histograms_match_summaries() {
        let mut net = build_overlay(OverlayKind::Cycloid7, 64, 1);
        let reqs = random_pairs(net.as_ref(), 200, &mut stream(2, "hist"));
        let agg = run_requests_jobs(net.as_mut(), &reqs, 1);
        assert_eq!(agg.path_hist.count(), 200);
        assert_eq!(agg.path_hist.max(), Some(agg.path.max as u64));
        assert_eq!(agg.path_hist.min(), Some(agg.path.min as u64));
        assert!((agg.path_hist.mean() - agg.path.mean).abs() < 1e-9);
        assert_eq!(agg.latency_hist.count(), 200);
        assert!(!agg.phase_hists.is_empty(), "Cycloid routes in phases");
        // Per-phase per-lookup counts must sum to the total hop count.
        let phase_sum: u64 = agg.phase_hists.iter().map(|(_, h)| h.sum()).sum();
        assert_eq!(phase_sum, agg.path_hist.sum());
        assert_eq!(agg.timeouts_total, 0);
    }

    #[test]
    fn run_requests_bills_faults_when_enabled() {
        use dht_core::net::{FaultPlan, NetConditions, RetryPolicy};
        let mut net = build_overlay(OverlayKind::Cycloid7, 64, 1);
        net.set_net_conditions(NetConditions::new(
            FaultPlan::lossy(9, 0.10),
            RetryPolicy::standard(),
        ));
        let reqs = random_pairs(net.as_ref(), 200, &mut stream(2, "agg"));
        let agg = run_requests_jobs(net.as_mut(), &reqs, 1);
        assert!(
            agg.retries.max > 0.0,
            "10% loss over 200 lookups must retry"
        );
        assert!(agg.latency_ms.mean > 0.0, "delay model bills every hop");
        assert_eq!(agg.failures, 0, "retry policy rides out 10% loss");
    }
}
