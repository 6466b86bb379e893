//! One driver per table/figure of the paper's evaluation (§4).
//!
//! Every driver returns plain row structs so the `repro` binary and the
//! integration tests consume the same data. Each driver has paper-scale
//! defaults and a `quick()` parameter set for fast smoke runs.

pub mod churn_exp;
pub mod converge;
pub mod fault_tolerance;
pub mod hotspot;
pub mod key_distribution;
pub mod maintenance;
pub mod mass_departure;
pub mod path_length;
pub mod profile;
pub mod query_load;
pub mod recover;
pub mod scale;
pub mod sparsity;
pub mod static_tables;
pub mod ungraceful;

use crossbeam::thread;
use dht_core::lookup::{HopPhase, PhaseBreakdown};
use dht_core::obs::{Histogram, MetricsRegistry};
use dht_core::overlay::Overlay;
use dht_core::stats::Summary;
use dht_core::workload::LookupRequest;

use crate::factory::OverlayKind;

/// The `outer × kinds` grid most sweeps fan out over: one cell per
/// (sweep value, overlay kind), outer-major, so a cell's position is the
/// row index its seeds are derived from.
pub(crate) fn grid<A: Copy>(outer: &[A], kinds: &[OverlayKind]) -> Vec<(OverlayKind, A)> {
    outer
        .iter()
        .flat_map(|&a| kinds.iter().map(move |&kind| (kind, a)))
        .collect()
}

/// Measures every cell on its own scoped thread — `run(i, &cells[i])` —
/// and returns the rows in cell order, whatever order the threads
/// finish in.
pub(crate) fn run_cells<C: Sync, R: Send>(
    cells: &[C],
    run: impl Fn(usize, &C) -> R + Sync,
) -> Vec<R> {
    let run = &run;
    thread::scope(|scope| {
        let handles: Vec<_> = cells
            .iter()
            .enumerate()
            .map(|(i, cell)| scope.spawn(move |_| run(i, cell)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("measurement thread panicked"))
            .collect()
    })
    .expect("thread scope failed")
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
    /// Per-phase hop accounting.
    pub breakdown: PhaseBreakdown,
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
    let mut breakdown = PhaseBreakdown::new();
    let mut path_hist = Histogram::new();
    let mut latency_hist = Histogram::new();
    // Per-lookup hop counts for every phase; histograms are built only
    // for phases the batch actually used.
    let mut phase_counts: [Vec<u64>; 6] = Default::default();
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
        for (i, &phase) in ALL_PHASES.iter().enumerate() {
            phase_counts[i].push(trace.hops_in_phase(phase) as u64);
        }
        breakdown.record(trace);
    }
    let mut phase_hists = Vec::new();
    for (i, &phase) in ALL_PHASES.iter().enumerate() {
        if phase_counts[i].iter().any(|&c| c > 0) {
            let mut h = Histogram::new();
            for &c in &phase_counts[i] {
                h.record(c);
            }
            phase_hists.push((phase, h));
        }
    }
    LookupAggregate {
        label: overlay.name(),
        n_start,
        path: Summary::of_lens(&paths),
        timeouts: Summary::of_counts(&timeouts),
        failures,
        breakdown,
        retries: Summary::of_counts(&retries),
        msg_timeouts: Summary::of_counts(&msg_timeouts),
        latency_ms: Summary::of(&latency_ms),
        path_hist,
        phase_hists,
        latency_hist,
        timeouts_total: timeouts.iter().sum(),
        retries_total: retries.iter().sum(),
        msg_timeouts_total: msg_timeouts.iter().sum(),
    }
}

/// Registers one aggregate's metrics under `prefix` — the uniform export
/// every lookup-batch experiment shares: lookup/failure counters, the
/// path-length histogram, per-phase hop histograms keyed by
/// [`HopPhase::label`], fault counters, and the latency histogram.
pub fn register_lookup_metrics(reg: &mut MetricsRegistry, prefix: &str, agg: &LookupAggregate) {
    reg.counter(&format!("{prefix}.lookups"))
        .add(agg.path.n as u64);
    reg.counter(&format!("{prefix}.failures"))
        .add(agg.failures as u64);
    reg.histogram(&format!("{prefix}.hops"))
        .merge(&agg.path_hist);
    for (phase, hist) in &agg.phase_hists {
        reg.histogram(&format!("{prefix}.hops.{}", phase.label()))
            .merge(hist);
    }
    reg.counter(&format!("{prefix}.stale_timeouts"))
        .add(agg.timeouts_total);
    reg.counter(&format!("{prefix}.retries"))
        .add(agg.retries_total);
    reg.counter(&format!("{prefix}.msg_timeouts"))
        .add(agg.msg_timeouts_total);
    reg.histogram(&format!("{prefix}.latency_us"))
        .merge(&agg.latency_hist);
}

/// Registers a [`Summary`]'s headline statistics under `prefix`: a
/// `.samples` counter plus `.mean`, `.p01`, `.p99`, and `.max` gauges.
/// Used by the experiments whose rows carry distributions rather than
/// full lookup aggregates (query load, key distribution, degrees).
pub fn register_summary_gauges(reg: &mut MetricsRegistry, prefix: &str, s: &Summary) {
    reg.counter(&format!("{prefix}.samples")).add(s.n as u64);
    reg.gauge(&format!("{prefix}.mean")).set(s.mean);
    reg.gauge(&format!("{prefix}.p01")).set(s.p01);
    reg.gauge(&format!("{prefix}.p99")).set(s.p99);
    reg.gauge(&format!("{prefix}.max")).set(s.max);
}

/// The paper's network sizes: `n = d * 2^d` for `d = 3..=8`
/// (24, 64, 160, 384, 896, 2048 nodes).
#[must_use]
pub fn paper_sizes() -> Vec<(u32, usize)> {
    (3..=8u32)
        .map(|d| (d, (u64::from(d) << d) as usize))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::{build_overlay, OverlayKind};
    use dht_core::rng::stream;
    use dht_core::workload::random_pairs;

    #[test]
    fn paper_sizes_match_formula() {
        let sizes = paper_sizes();
        assert_eq!(
            sizes,
            vec![(3, 24), (4, 64), (5, 160), (6, 384), (7, 896), (8, 2048)]
        );
    }

    #[test]
    fn run_requests_aggregates() {
        let mut net = build_overlay(OverlayKind::Cycloid7, 64, 1);
        let reqs = random_pairs(net.as_ref(), 200, &mut stream(2, "agg"));
        let agg = run_requests_jobs(net.as_mut(), &reqs, 1);
        assert_eq!(agg.label, "Cycloid(7)");
        assert_eq!(agg.n_start, 64);
        assert_eq!(agg.path.n, 200);
        assert_eq!(agg.failures, 0);
        assert_eq!(agg.breakdown.lookups(), 200);
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
    fn register_lookup_metrics_exports_uniform_names() {
        use dht_core::obs::Metric;
        let mut net = build_overlay(OverlayKind::Cycloid7, 64, 1);
        let reqs = random_pairs(net.as_ref(), 100, &mut stream(2, "reg"));
        let agg = run_requests_jobs(net.as_mut(), &reqs, 1);
        let mut reg = MetricsRegistry::new();
        register_lookup_metrics(&mut reg, "Cycloid(7)/n=64", &agg);
        match reg.get("Cycloid(7)/n=64.lookups") {
            Some(Metric::Counter(c)) => assert_eq!(c.get(), 100),
            other => panic!("unexpected: {other:?}"),
        }
        match reg.get("Cycloid(7)/n=64.hops") {
            Some(Metric::Histogram(h)) => assert_eq!(h.count(), 100),
            other => panic!("unexpected: {other:?}"),
        }
        assert!(
            reg.iter().any(|(name, _)| name.contains(".hops.")),
            "per-phase histograms registered"
        );
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
