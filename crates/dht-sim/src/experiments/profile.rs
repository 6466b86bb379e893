//! Per-phase cost profile: where does each overlay spend its messages?
//!
//! Every overlay kind runs the standard churn workload (§4.4's setup at
//! the default rate) with the [`PhaseAccountant`] and the virtual-time
//! sampler enabled, yielding a per-kind × per-phase cost breakdown plus
//! the run's telemetry series. This is the observability showcase: the
//! same engines as the paper experiments, with the meters switched on.

use dht_core::clock::SECOND;
use dht_core::net::{DelayModel, FaultPlan, NetConditions, RetryPolicy};
use dht_core::obs::{Histogram, MetricsRegistry, PhaseAccountant, PhaseTable, ALL_PHASES};
use dht_core::rng::stream_indexed;

use crate::churn::{run_churn, BucketIndex, ChurnParams, ChurnSample};
use crate::experiments::run_cells;
use crate::factory::{build_overlay, OverlayKind, ALL_KINDS};

/// Parameters of the profiling run.
#[derive(Debug, Clone)]
pub struct ProfileParams {
    /// Overlays to profile (default: every kind the factory knows).
    pub kinds: Vec<OverlayKind>,
    /// Starting network size.
    pub nodes: usize,
    /// Join rate == leave rate per second (the churn default, 0.05).
    pub churn_rate: f64,
    /// Measured lookups per run.
    pub lookups: usize,
    /// Telemetry sampling cadence in virtual µs.
    pub sample_every_us: u64,
    /// Master seed.
    pub seed: u64,
    /// Worker-thread cap for lookup batches (bit-identical results for
    /// every value; only wall clock varies).
    pub jobs: usize,
}

impl ProfileParams {
    /// Full-scale parameters: all kinds at n = 4096 under default churn.
    #[must_use]
    pub fn paper(seed: u64) -> Self {
        Self {
            kinds: ALL_KINDS.to_vec(),
            nodes: 4096,
            churn_rate: 0.05,
            lookups: 10_000,
            sample_every_us: 60 * SECOND,
            seed,
            jobs: 1,
        }
    }

    /// Reduced workload for smoke tests — still every kind, so the
    /// breakdown covers the full overlay matrix.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        Self {
            kinds: ALL_KINDS.to_vec(),
            nodes: 128,
            churn_rate: 0.05,
            lookups: 300,
            sample_every_us: 30 * SECOND,
            seed,
            jobs: 1,
        }
    }
}

/// One row: one overlay's full cost profile.
#[derive(Debug, Clone)]
pub struct ProfileRow {
    /// Overlay display name.
    pub label: String,
    /// Network size at the end of the run.
    pub final_size: usize,
    /// Largest network size observed during the run.
    pub peak_size: usize,
    /// Failed lookups (expected zero).
    pub failures: usize,
    /// Per-phase cost table billed by the run.
    pub phases: PhaseTable,
    /// Virtual-time telemetry snapshots.
    pub samples: Vec<ChurnSample>,
    /// Simulated end-to-end lookup latency, µs.
    pub latency: Histogram,
}

/// Runs the profile; one row per kind, in `params.kinds` order.
#[must_use]
pub fn measure(params: &ProfileParams) -> Vec<ProfileRow> {
    run_cells(&params.kinds, |i, &kind| run_cell(params, kind, i))
}

fn run_cell(params: &ProfileParams, kind: OverlayKind, cell: usize) -> ProfileRow {
    let mut net = build_overlay(kind, params.nodes, params.seed ^ ((cell as u64) << 40));
    let mut rng = stream_indexed(params.seed, "profile", cell as u64);
    let acct = PhaseAccountant::enabled();
    // Delay-only wide-area conditions: round trips land in 20–80 ms but
    // nothing is lost, so every routing decision matches the ideal
    // network while the latency histogram measures something real.
    let conditions = NetConditions::new(
        FaultPlan {
            seed: params.seed ^ ((cell as u64) << 32),
            loss: 0.0,
            delay: DelayModel::Uniform(20_000, 80_000),
            duplicate: 0.0,
        },
        RetryPolicy::standard(),
    );
    let churn = ChurnParams {
        churn_rate: params.churn_rate,
        lookups: params.lookups,
        warmup_lookups: params.lookups / 50,
        audit: true,
        conditions,
        jobs: params.jobs.max(1),
        accountant: acct.clone(),
        sample_every_us: params.sample_every_us,
        ..ChurnParams::default()
    };
    let out = run_churn(net.as_mut(), churn, &mut rng);
    // Churn repairs entries only on use (a lookup tripping over a stale
    // contact), which leaves overlays with lazily-derived links —
    // Viceroy — structurally at zero. One explicit full-network repair
    // sweep closes the profile: every kind's repair routine runs once
    // and bills its pass.
    BucketIndex::new(net.as_ref(), 1).fire(net.as_mut(), 0, true);
    let mut latency = Histogram::new();
    for &us in &out.latency_us {
        latency.record(us);
    }
    ProfileRow {
        // `kind.label()` and not `net.name()`: the Koorde ablation
        // shares the display name "Koorde", and the profile needs one
        // distinct key per kind for its metrics and series.
        label: kind.label().to_string(),
        final_size: out.final_size,
        peak_size: out.peak_size,
        failures: out.failures,
        phases: acct.snapshot().expect("accountant was enabled"),
        samples: out.samples,
        latency,
    }
}

/// Registers every row's phase counters, latency histogram, and
/// telemetry series, keyed by overlay label.
pub fn register_metrics(rows: &[ProfileRow], reg: &mut MetricsRegistry) {
    for row in rows {
        let label = &row.label;
        for (phase, costs) in row.phases.iter() {
            let p = phase.label();
            reg.counter(&format!("{label}.phase.{p}.calls"))
                .add(costs.calls);
            reg.counter(&format!("{label}.phase.{p}.msgs"))
                .add(costs.msgs);
            reg.counter(&format!("{label}.phase.{p}.retries"))
                .add(costs.retries);
            reg.counter(&format!("{label}.phase.{p}.timeouts"))
                .add(costs.timeouts);
            reg.counter(&format!("{label}.phase.{p}.repair_entries"))
                .add(costs.repair_entries);
            reg.counter(&format!("{label}.phase.{p}.time_us"))
                .add(costs.time_us);
        }
        reg.counter(&format!("{label}.failures"))
            .add(row.failures as u64);
        reg.gauge(&format!("{label}.final_size"))
            .set(row.final_size as f64);
        reg.gauge(&format!("{label}.peak_size"))
            .set(row.peak_size as f64);
        reg.histogram(&format!("{label}.latency_us"))
            .merge(&row.latency);
        if row.samples.is_empty() {
            continue;
        }
        for (idx, phase) in ALL_PHASES.iter().enumerate() {
            let series = reg.series(&format!("{label}.msgs.{}", phase.label()));
            for s in &row.samples {
                series.push(s.t_us, s.phase_msgs[idx] as f64);
            }
        }
        type SampleSignal = fn(&ChurnSample) -> f64;
        let gauges: [(&str, SampleSignal); 5] = [
            ("live_nodes", |s| s.live_nodes as f64),
            ("load_p50", |s| s.load_p50 as f64),
            ("load_p99", |s| s.load_p99 as f64),
            ("audit_violations", |s| s.audit_violations as f64),
            ("bytes_per_node", |s| s.bytes_per_node),
        ];
        for (name, value) in gauges {
            let series = reg.series(&format!("{label}.{name}"));
            for s in &row.samples {
                series.push(s.t_us, value(s));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_core::obs::Phase;

    #[test]
    fn every_kind_bills_every_maintenance_phase() {
        let mut params = ProfileParams::quick(7);
        params.nodes = 96;
        params.lookups = 200;
        let rows = measure(&params);
        assert_eq!(rows.len(), ALL_KINDS.len());
        for row in &rows {
            assert_eq!(row.failures, 0, "{}: lookups failed", row.label);
            for phase in [Phase::Lookup, Phase::Stabilize, Phase::Repair] {
                assert!(
                    row.phases.get(phase).msgs > 0,
                    "{}: no {} messages billed",
                    row.label,
                    phase.label()
                );
            }
            assert!(row.phases.get(Phase::Join).msgs > 0, "{}", row.label);
            assert!(row.phases.get(Phase::Leave).msgs > 0, "{}", row.label);
            assert!(row.phases.get(Phase::Audit).msgs > 0, "{}", row.label);
            assert!(!row.samples.is_empty(), "{}: no telemetry", row.label);
        }
    }

    #[test]
    fn metrics_cover_phases_and_series() {
        let mut params = ProfileParams::quick(11);
        params.kinds = vec![OverlayKind::Cycloid7];
        params.nodes = 64;
        params.lookups = 150;
        let rows = measure(&params);
        let mut reg = MetricsRegistry::new();
        register_metrics(&rows, &mut reg);
        let label = &rows[0].label;
        for phase in ALL_PHASES {
            assert!(reg
                .get(&format!("{label}.phase.{}.msgs", phase.label()))
                .is_some());
        }
        assert!(reg.get_series(&format!("{label}.live_nodes")).is_some());
        assert!(reg.get_series(&format!("{label}.msgs.lookup")).is_some());
        assert!(reg
            .histogram(&format!("{label}.latency_us"))
            .quantile(0.5)
            .is_some());
    }
}
