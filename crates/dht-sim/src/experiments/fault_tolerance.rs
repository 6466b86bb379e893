//! Loss-rate sweep: lookup success, retries, and latency under message
//! loss.
//!
//! The paper's churn evaluation (§4.3–4.4) counts only *node*-level
//! failures; this extension subjects every overlay to a deterministic
//! unreliable network (see [`dht_core::net`]): each per-hop contact is
//! lost with probability `loss`, retried under an exponential-backoff
//! [`RetryPolicy`], delayed by a seeded RTT draw, and occasionally
//! duplicated. The sweep compares all overlay kinds at loss rates from
//! 0 to 20%, reporting success rate, retry percentiles, and simulated
//! end-to-end latency.

use dht_core::audit::{AuditReport, AuditScope};
use dht_core::net::{DelayModel, FaultPlan, NetConditions, RetryPolicy};
use dht_core::obs::MetricsRegistry;
use dht_core::rng::stream_indexed;
use dht_core::workload::random_pairs;

use crate::experiments::{grid, run_cells, run_requests_jobs, LookupAggregate};
use crate::factory::{build_overlay, OverlayKind, ALL_KINDS};

/// Parameters of the fault-tolerance sweep.
#[derive(Debug, Clone)]
pub struct FaultToleranceParams {
    /// Overlays to measure.
    pub kinds: Vec<OverlayKind>,
    /// Network size.
    pub nodes: usize,
    /// Per-message loss probabilities to sweep.
    pub losses: Vec<f64>,
    /// Lookups per cell.
    pub lookups: usize,
    /// Retry policy applied at every per-hop contact.
    pub retry: RetryPolicy,
    /// Per-message RTT model (µs).
    pub delay: DelayModel,
    /// Per-delivery duplication probability.
    pub duplicate: f64,
    /// Audit routing state after every cell: faults must never mutate it.
    pub audit: bool,
    /// Master seed.
    pub seed: u64,
    /// Worker-thread cap for each cell's lookup batch (results are
    /// bit-identical for every value; only wall clock varies).
    pub jobs: usize,
}

impl FaultToleranceParams {
    /// Full-scale parameters: all 8 kinds, 1024 nodes, loss up to 20%.
    #[must_use]
    pub fn paper(seed: u64) -> Self {
        Self {
            kinds: ALL_KINDS.to_vec(),
            nodes: 1024,
            losses: vec![0.0, 0.01, 0.02, 0.05, 0.10, 0.20],
            lookups: 2_000,
            retry: RetryPolicy::standard(),
            delay: DelayModel::Uniform(20_000, 80_000),
            duplicate: 0.01,
            audit: false,
            seed,
            jobs: 1,
        }
    }

    /// Reduced workload for smoke tests — same 8 × 6 grid, smaller cells.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        Self {
            nodes: 128,
            lookups: 200,
            audit: true,
            ..Self::paper(seed)
        }
    }
}

/// One cell: one overlay at one loss rate.
#[derive(Debug, Clone)]
pub struct FaultToleranceRow {
    /// Overlay display name.
    pub label: String,
    /// Per-message loss probability of this cell.
    pub loss: f64,
    /// Aggregated lookup statistics (path, retries, latency, failures).
    pub agg: LookupAggregate,
    /// Post-run routing-state audit, when requested — must stay clean:
    /// message faults never touch routing tables.
    pub audit: Option<AuditReport>,
}

impl FaultToleranceRow {
    /// Fraction of lookups that resolved at the key's owner.
    #[must_use]
    pub fn success_rate(&self) -> f64 {
        if self.agg.path.n == 0 {
            return 1.0;
        }
        1.0 - self.agg.failures as f64 / self.agg.path.n as f64
    }
}

/// Runs the sweep; rows ordered by loss rate then kind.
#[must_use]
pub fn measure(params: &FaultToleranceParams) -> Vec<FaultToleranceRow> {
    let cells = grid(&params.losses, &params.kinds);
    run_cells(&cells, |i, &(kind, loss)| {
        // Same seed across the loss sweep for one kind: every
        // cell of a row sees the same network and workload, so
        // differences are attributable to loss alone.
        let kind_seed = params.seed ^ u64::from(kind as u8) << 40;
        let mut net = build_overlay(kind, params.nodes, kind_seed);
        let mut rng = stream_indexed(kind_seed, "fault-load", 0);
        let reqs = random_pairs(net.as_ref(), params.lookups, &mut rng);
        let plan = FaultPlan {
            seed: params.seed ^ (i as u64),
            loss,
            delay: params.delay,
            duplicate: params.duplicate,
        };
        net.set_net_conditions(NetConditions::new(plan, params.retry));
        let agg = run_requests_jobs(net.as_mut(), &reqs, params.jobs);
        let audit = params.audit.then(|| net.audit_state(AuditScope::Full));
        FaultToleranceRow {
            label: net.name(),
            loss,
            agg,
            audit,
        }
    })
}

/// Registers every row's lookup metrics plus a success-rate gauge, keyed
/// `{overlay}/loss={p}`.
pub fn register_metrics(rows: &[FaultToleranceRow], reg: &mut MetricsRegistry) {
    for row in rows {
        let prefix = format!("{}/loss={}", row.label, row.loss);
        super::register_lookup_metrics(reg, &prefix, &row.agg);
        reg.gauge(&format!("{prefix}.success_rate"))
            .set(row.success_rate());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(seed: u64) -> FaultToleranceParams {
        FaultToleranceParams {
            kinds: vec![OverlayKind::Cycloid7, OverlayKind::Chord],
            nodes: 64,
            losses: vec![0.0, 0.10],
            lookups: 100,
            audit: true,
            ..FaultToleranceParams::paper(seed)
        }
    }

    #[test]
    fn sweep_fills_the_grid_and_stays_audit_clean() {
        let rows = measure(&tiny(2004));
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert_eq!(row.agg.path.n, 100);
            let audit = row.audit.as_ref().expect("audit requested");
            assert!(audit.is_clean(), "{}: {audit}", row.label);
        }
    }

    #[test]
    fn zero_loss_cells_are_free_and_lossy_cells_are_billed() {
        let rows = measure(&tiny(7));
        for row in &rows {
            if row.loss == 0.0 {
                assert_eq!(row.agg.retries.max, 0.0, "{}", row.label);
                assert_eq!((row.success_rate() - 1.0).abs(), 0.0, "{}", row.label);
            } else {
                assert!(row.agg.retries.mean > 0.0, "{}", row.label);
            }
            assert!(row.agg.latency_ms.mean > 0.0, "delay model always bills");
        }
    }

    #[test]
    fn sweep_is_deterministic_per_seed() {
        let a = measure(&tiny(11));
        let b = measure(&tiny(11));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.agg.path, y.agg.path);
            assert_eq!(x.agg.retries, y.agg.retries);
            assert_eq!(x.agg.latency_ms, y.agg.latency_ms);
        }
    }
}
