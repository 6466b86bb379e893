//! Figure 12 and Table 5: lookups during continuous node joins and leaves.
//!
//! §4.4: lookups arrive at one per second (Poisson); joins and voluntary
//! leaves each arrive at rate `R` ranging from 0.05 to 0.40 per second;
//! every node stabilizes once per 30 s at a uniformly distributed offset;
//! the network starts with 2048 nodes.

use dht_core::net::NetConditions;
use dht_core::obs::MetricsRegistry;
use dht_core::rng::stream_indexed;
use dht_core::stats::Summary;

use crate::churn::{run_churn, ChurnOutcome, ChurnParams};
use crate::experiments::{grid, run_cells};
use crate::factory::{build_overlay, OverlayKind};

/// Parameters of the churn experiment.
#[derive(Debug, Clone)]
pub struct ChurnExpParams {
    /// Overlays to measure.
    pub kinds: Vec<OverlayKind>,
    /// Starting network size (2048 in the paper).
    pub nodes: usize,
    /// Churn rates `R` to sweep (node joins *and* leaves per second).
    pub rates: Vec<f64>,
    /// Measured lookups per run (10,000 in the paper's setup).
    pub lookups: usize,
    /// Run the online protocol-invariant audit during every cell (see
    /// [`dht_core::audit`]).
    pub audit: bool,
    /// Network conditions lookups run under, so message loss composes
    /// with churn. Default: an ideal network (the paper's setting).
    pub conditions: NetConditions,
    /// Master seed.
    pub seed: u64,
    /// Worker-thread cap for each cell's lookup batches (results are
    /// bit-identical for every value; only wall clock varies).
    pub jobs: usize,
}

impl ChurnExpParams {
    /// Paper-scale parameters.
    #[must_use]
    pub fn paper(seed: u64) -> Self {
        Self {
            kinds: crate::factory::PAPER_KINDS.to_vec(),
            nodes: 2048,
            rates: vec![0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40],
            lookups: 10_000,
            audit: false,
            conditions: NetConditions::ideal(),
            seed,
            jobs: 1,
        }
    }

    /// Reduced workload for smoke tests.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        Self {
            kinds: vec![OverlayKind::Cycloid7, OverlayKind::Koorde],
            nodes: 256,
            rates: vec![0.10, 0.40],
            lookups: 400,
            audit: true,
            conditions: NetConditions::ideal(),
            seed,
            jobs: 1,
        }
    }
}

/// One row: one overlay at one churn rate.
#[derive(Debug, Clone)]
pub struct ChurnRow {
    /// Overlay display name.
    pub label: String,
    /// Churn rate `R`.
    pub rate: f64,
    /// Path-length distribution (Fig. 12's y-value is the mean).
    pub path: Summary,
    /// Per-lookup timeout distribution (Table 5).
    pub timeouts: Summary,
    /// Failed lookups (the paper observes none in every test case).
    pub failures: usize,
    /// Joins/leaves executed and final size, for the report.
    pub joins: usize,
    /// Leaves executed.
    pub leaves: usize,
    /// Network size at the end of the run.
    pub final_size: usize,
    /// Per-lookup message-retry distribution (all-zero under the ideal
    /// default [`ChurnExpParams::conditions`]).
    pub retries: Summary,
    /// Per-lookup simulated end-to-end latency in milliseconds.
    pub latency_ms: Summary,
    /// Accumulated online audit, when [`ChurnExpParams::audit`] was set.
    pub audit: Option<dht_core::audit::AuditReport>,
    /// Largest network size observed during the run.
    pub peak_size: usize,
    /// Per-node stabilization routines invoked (maintenance proxy).
    pub stabilize_calls: u64,
    /// Full stabilization rounds completed.
    pub stabilize_rounds: u64,
}

/// Runs the sweep; rows ordered by rate then kind.
#[must_use]
pub fn measure(params: &ChurnExpParams) -> Vec<ChurnRow> {
    let cells = grid(&params.rates, &params.kinds);
    run_cells(&cells, |i, &(kind, rate)| {
        let mut net = build_overlay(kind, params.nodes, params.seed ^ (i as u64) << 40);
        let mut rng = stream_indexed(params.seed, "churn-run", i as u64);
        let churn_params = ChurnParams {
            lookup_rate: 1.0,
            churn_rate: rate,
            stabilization_period_secs: 30,
            lookups: params.lookups,
            warmup_lookups: params.lookups / 50,
            audit: params.audit,
            conditions: params.conditions,
            sink: dht_core::obs::SinkHandle::disabled(),
            jobs: params.jobs,
            ..ChurnParams::default()
        };
        let out: ChurnOutcome = run_churn(net.as_mut(), churn_params, &mut rng);
        let latency_ms: Vec<f64> = out
            .latency_us
            .iter()
            .map(|&us| us as f64 / 1_000.0)
            .collect();
        ChurnRow {
            label: net.name(),
            rate,
            path: Summary::of_lens(&out.path_lens),
            timeouts: Summary::of_counts(&out.timeouts),
            failures: out.failures,
            joins: out.joins,
            leaves: out.leaves,
            final_size: out.final_size,
            retries: Summary::of_counts(&out.retries),
            latency_ms: Summary::of(&latency_ms),
            audit: out.audit,
            peak_size: out.peak_size,
            stabilize_calls: out.stabilize_calls,
            stabilize_rounds: out.stabilize_rounds,
        }
    })
}

/// Registers every row's lookup and maintenance metrics, keyed
/// `{overlay}/R={rate}`: membership-event and stabilization counters and
/// the peak/final size gauges.
pub fn register_metrics(rows: &[ChurnRow], reg: &mut MetricsRegistry) {
    for row in rows {
        let prefix = format!("{}/R={}", row.label, row.rate);
        reg.counter(&format!("{prefix}.lookups"))
            .add(row.path.n as u64);
        reg.counter(&format!("{prefix}.failures"))
            .add(row.failures as u64);
        reg.counter(&format!("{prefix}.joins"))
            .add(row.joins as u64);
        reg.counter(&format!("{prefix}.leaves"))
            .add(row.leaves as u64);
        reg.counter(&format!("{prefix}.stabilize_calls"))
            .add(row.stabilize_calls);
        reg.counter(&format!("{prefix}.stabilize_rounds"))
            .add(row.stabilize_rounds);
        reg.gauge(&format!("{prefix}.peak_size"))
            .set(row.peak_size as f64);
        reg.gauge(&format!("{prefix}.final_size"))
            .set(row.final_size as f64);
        reg.gauge(&format!("{prefix}.mean_path")).set(row.path.mean);
        reg.gauge(&format!("{prefix}.mean_timeouts"))
            .set(row.timeouts.mean);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn churn_sweep_completes_without_failures() {
        // §4.4: "There are no failures in all test cases."
        let rows = measure(&ChurnExpParams::quick(3));
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert_eq!(row.failures, 0, "{} at R={}", row.label, row.rate);
            assert_eq!(row.path.n, 400);
            assert!(row.joins > 0 && row.leaves > 0);
            let audit = row.audit.as_ref().expect("quick params enable auditing");
            assert!(audit.is_clean(), "{audit}");
        }
    }

    #[test]
    fn stabilization_keeps_timeouts_low() {
        // Table 5's shape: with 30 s stabilization, mean timeouts stay far
        // below the unstabilized Table 4 numbers.
        let rows = measure(&ChurnExpParams::quick(5));
        for row in &rows {
            assert!(
                row.timeouts.mean < 1.0,
                "{} at R={}: mean timeouts {} too high",
                row.label,
                row.rate,
                row.timeouts.mean
            );
        }
    }
}
