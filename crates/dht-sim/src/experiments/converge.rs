//! Stabilization convergence on the virtual clock (extension).
//!
//! The paper asserts that stabilization "handles" churn (§3.3.2, §4.4)
//! but never measures *how long* the network takes to return to a
//! provably consistent state after a membership shock. With the
//! discrete-event kernel ([`dht_core::clock`]) and the online audit
//! ([`dht_core::audit`]) both in place, that question becomes
//! measurable: apply a shock (a mass join, then an ungraceful burst
//! departure), run the per-second stabilization buckets on the virtual
//! clock, and record the first simulated second at which the overlay's
//! **full-scope** audit comes back clean — the *time to stabilize*.
//!
//! The full scope ([`dht_core::audit::AuditScope::Full`]) is the
//! convergence oracle on purpose: online invariants are kept true by the
//! graceful protocols at every instant (a violation there is a bug, not
//! staleness), so only the full scope — which includes lazily-stabilized
//! state — actually goes dirty after a shock and is then repaired by the
//! stabilizers the experiment is timing.
//!
//! The experiment sweeps the stabilization period `T` (the paper fixes
//! `T = 30 s`) to expose the convergence/maintenance-cost trade-off,
//! and, at the base period, also measures lookup-latency percentiles
//! under churn + message delays with the continuous-time churn engine
//! ([`crate::churn::TimeModel::Continuous`]), where reported latency is
//! virtual-clock elapsed time by construction.

use dht_core::clock::SECOND;
use dht_core::net::{FaultPlan, NetConditions, RetryPolicy};
use dht_core::obs::MetricsRegistry;
use dht_core::rng::stream_indexed;
use dht_core::stats::percentile_sorted;
use rand::Rng;

use crate::churn::{run_churn, run_until_clean, ChurnParams, TimeModel};
use crate::experiments::{grid, run_cells};
use crate::factory::{build_overlay_spaced, OverlayKind};

/// Parameters of the convergence experiment.
#[derive(Debug, Clone)]
pub struct ConvergeParams {
    /// Overlays to measure (all eight factory kinds by default).
    pub kinds: Vec<OverlayKind>,
    /// Starting network size before each shock.
    pub nodes: usize,
    /// Mass join: this fraction of `nodes` new nodes join at once.
    pub join_fraction: f64,
    /// Burst departure: each node vanishes with this probability (2/3
    /// by default), ungracefully ([`dht_core::overlay::Overlay::fail`]),
    /// all within one instant.
    pub leave_fraction: f64,
    /// Stabilization periods `T` (seconds) to sweep.
    pub periods: Vec<u64>,
    /// The period whose cells additionally run the latency-under-load
    /// measurement.
    pub base_period: u64,
    /// Convergence horizon, in multiples of the period: a shock that is
    /// not audit-clean within `horizon_periods * T` seconds is reported
    /// as unconverged.
    pub horizon_periods: u64,
    /// Churn rate for the latency-under-load run (joins and leaves per
    /// second each).
    pub churn_rate: f64,
    /// Measured lookups in the latency-under-load run.
    pub lookups: usize,
    /// Network conditions for the latency-under-load run (message
    /// delays make lookups genuinely span virtual time).
    pub conditions: NetConditions,
    /// Master seed.
    pub seed: u64,
    /// Worker-thread cap (a continuous-time run is single-threaded per
    /// cell; cells themselves fan out across threads).
    pub jobs: usize,
}

impl ConvergeParams {
    /// Paper-scale parameters: 1024-node networks, `T ∈ {10, 30, 60}`.
    #[must_use]
    pub fn paper(seed: u64) -> Self {
        Self {
            kinds: crate::factory::ALL_KINDS.to_vec(),
            nodes: 1024,
            join_fraction: 0.5,
            leave_fraction: 2.0 / 3.0,
            periods: vec![10, 30, 60],
            base_period: 30,
            horizon_periods: 6,
            churn_rate: 0.2,
            lookups: 2_000,
            conditions: NetConditions::new(FaultPlan::lossy(11, 0.01), RetryPolicy::standard()),
            seed,
            jobs: 1,
        }
    }

    /// Reduced workload for smoke tests and CI.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        Self {
            kinds: crate::factory::ALL_KINDS.to_vec(),
            nodes: 128,
            join_fraction: 0.5,
            leave_fraction: 2.0 / 3.0,
            periods: vec![10, 30],
            base_period: 10,
            horizon_periods: 6,
            churn_rate: 0.2,
            lookups: 300,
            conditions: NetConditions::new(FaultPlan::lossy(11, 0.01), RetryPolicy::standard()),
            seed,
            jobs: 1,
        }
    }
}

/// Lookup-latency percentiles under churn + delays (continuous time model),
/// measured only at [`ConvergeParams::base_period`].
#[derive(Debug, Clone)]
pub struct LatencyUnderLoad {
    /// Median lookup latency, ms.
    pub p50_ms: f64,
    /// 95th-percentile lookup latency, ms.
    pub p95_ms: f64,
    /// 99th-percentile lookup latency, ms.
    pub p99_ms: f64,
    /// Mean lookup latency, ms.
    pub mean_ms: f64,
    /// Mean stale-entry timeouts per lookup.
    pub timeouts_mean: f64,
    /// Lookups stranded by their holder departing mid-walk.
    pub stranded: usize,
    /// Failed lookups (stranded ones included once measured).
    pub failures: usize,
    /// Virtual time the run spanned, in seconds.
    pub sim_secs: f64,
}

/// One row: one overlay at one stabilization period.
#[derive(Debug, Clone)]
pub struct ConvergeRow {
    /// Overlay display name.
    pub label: String,
    /// Stabilization period `T`, seconds.
    pub period: u64,
    /// Nodes added by the mass join.
    pub join_added: usize,
    /// Simulated seconds until the audit came back clean after the mass
    /// join; `None` if unconverged within the horizon.
    pub join_clean_s: Option<u64>,
    /// Nodes removed by the burst leave.
    pub leave_removed: usize,
    /// Simulated seconds until the audit came back clean after the
    /// burst leave; `None` if unconverged within the horizon.
    pub leave_clean_s: Option<u64>,
    /// Open full-scope audit violations after the mass join, sampled at
    /// every simulated second as `(t_us, violations)` — the convergence
    /// trajectory behind [`ConvergeRow::join_clean_s`].
    pub join_trajectory: Vec<(u64, u64)>,
    /// The burst leave's convergence trajectory.
    pub leave_trajectory: Vec<(u64, u64)>,
    /// Latency percentiles under load (base-period rows only).
    pub load: Option<LatencyUnderLoad>,
}

/// Runs the sweep; rows ordered by period then kind.
#[must_use]
pub fn measure(params: &ConvergeParams) -> Vec<ConvergeRow> {
    let cells = grid(&params.periods, &params.kinds);
    run_cells(&cells, |i, &(kind, period)| {
        run_cell(params, kind, period, i as u64)
    })
}

fn run_cell(params: &ConvergeParams, kind: OverlayKind, period: u64, cell: u64) -> ConvergeRow {
    let horizon = params.horizon_periods.max(1) * period.max(1);
    let mut rng = stream_indexed(params.seed, "converge", cell);
    // Size the identifier space for the post-join population up front:
    // `build_overlay`'s exact-fit sizing would leave no room to join
    // into.
    let to_add = (params.nodes as f64 * params.join_fraction).round() as usize;
    let id_space = params.nodes + to_add;
    let mut net = build_overlay_spaced(kind, params.nodes, id_space, params.seed ^ (cell << 40));

    // Shock 1: mass join. Joins repair only what the join protocol
    // repairs; everything else waits for stabilization.
    let mut join_added = 0usize;
    for _ in 0..to_add {
        if net.join(&mut rng).is_some() {
            join_added += 1;
        }
    }
    let join = run_until_clean(net.as_mut(), period, horizon, false);

    // Shock 2: burst departure. Each node vanishes *ungracefully* with
    // probability `leave_fraction`, all in one instant, keeping a
    // minimum population alive. Graceful leaves repair their own
    // pointers by protocol; the fail path is what stabilization exists
    // for (§3.4 defers it, §5 flags it as the hard case).
    let mut leave_removed = 0usize;
    for token in net.node_tokens() {
        if net.len() <= 8 {
            break;
        }
        if rng.gen_bool(params.leave_fraction) && net.fail(token) {
            leave_removed += 1;
        }
    }
    let leave = run_until_clean(net.as_mut(), period, horizon, false);

    // Latency under load, at the base period only: a fresh overlay
    // under continuous-time churn with message delays.
    let load = (period == params.base_period).then(|| {
        let mut fresh =
            build_overlay_spaced(kind, params.nodes, id_space, params.seed ^ (cell << 40) ^ 1);
        let mut load_rng = stream_indexed(params.seed, "converge-load", cell);
        let churn_params = ChurnParams {
            lookup_rate: 1.0,
            churn_rate: params.churn_rate,
            stabilization_period_secs: period,
            lookups: params.lookups,
            warmup_lookups: params.lookups / 50,
            conditions: params.conditions,
            time: TimeModel::Continuous,
            ..ChurnParams::default()
        };
        let out = run_churn(fresh.as_mut(), churn_params, &mut load_rng);
        let mut ms: Vec<f64> = out
            .latency_us
            .iter()
            .map(|&us| us as f64 / 1_000.0)
            .collect();
        ms.sort_by(f64::total_cmp);
        let mean = if ms.is_empty() {
            0.0
        } else {
            ms.iter().sum::<f64>() / ms.len() as f64
        };
        let timeouts_mean = if out.timeouts.is_empty() {
            0.0
        } else {
            out.timeouts.iter().sum::<u64>() as f64 / out.timeouts.len() as f64
        };
        LatencyUnderLoad {
            p50_ms: percentile_sorted(&ms, 0.50),
            p95_ms: percentile_sorted(&ms, 0.95),
            p99_ms: percentile_sorted(&ms, 0.99),
            mean_ms: mean,
            timeouts_mean,
            stranded: out.stranded,
            failures: out.failures,
            sim_secs: out.sim_end_us as f64 / SECOND as f64,
        }
    });

    ConvergeRow {
        // `kind.label()` and not `net.name()`: the Koorde ablation shares
        // the display name "Koorde", and metric keys must be unique.
        label: kind.label().to_string(),
        period,
        join_added,
        join_clean_s: join.clean_s,
        leave_removed,
        leave_clean_s: leave.clean_s,
        join_trajectory: join.trajectory,
        leave_trajectory: leave.trajectory,
        load,
    }
}

/// Registers every row's convergence metrics, keyed `{overlay}/T={period}`.
/// Unconverged shocks export `-1` so the gauge is always present.
pub fn register_metrics(rows: &[ConvergeRow], reg: &mut MetricsRegistry) {
    let clean = |v: Option<u64>| v.map_or(-1.0, |s| s as f64);
    for row in rows {
        let prefix = format!("{}/T={}", row.label, row.period);
        reg.counter(&format!("{prefix}.join_added"))
            .add(row.join_added as u64);
        reg.counter(&format!("{prefix}.leave_removed"))
            .add(row.leave_removed as u64);
        reg.gauge(&format!("{prefix}.join_clean_s"))
            .set(clean(row.join_clean_s));
        reg.gauge(&format!("{prefix}.leave_clean_s"))
            .set(clean(row.leave_clean_s));
        for (name, trajectory) in [
            ("join_violations", &row.join_trajectory),
            ("leave_violations", &row.leave_trajectory),
        ] {
            let series = reg.series(&format!("{prefix}.{name}"));
            for &(t_us, open) in trajectory {
                series.push(t_us, open as f64);
            }
        }
        if let Some(load) = &row.load {
            reg.gauge(&format!("{prefix}.load.latency_p50_ms"))
                .set(load.p50_ms);
            reg.gauge(&format!("{prefix}.load.latency_p95_ms"))
                .set(load.p95_ms);
            reg.gauge(&format!("{prefix}.load.latency_p99_ms"))
                .set(load.p99_ms);
            reg.gauge(&format!("{prefix}.load.latency_mean_ms"))
                .set(load.mean_ms);
            reg.gauge(&format!("{prefix}.load.timeouts_mean"))
                .set(load.timeouts_mean);
            reg.counter(&format!("{prefix}.load.stranded"))
                .add(load.stranded as u64);
            reg.counter(&format!("{prefix}.load.failures"))
                .add(load.failures as u64);
            reg.gauge(&format!("{prefix}.load.sim_secs"))
                .set(load.sim_secs);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::build_overlay;

    #[test]
    fn stabilization_converges_after_both_shocks() {
        let mut params = ConvergeParams::quick(3);
        params.kinds = vec![OverlayKind::Cycloid7, OverlayKind::Chord];
        params.periods = vec![10];
        params.base_period = 10;
        params.nodes = 64;
        params.lookups = 100;
        let rows = measure(&params);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.join_added > 0);
            assert!(row.leave_removed > 0);
            let j = row
                .join_clean_s
                .unwrap_or_else(|| panic!("{} join shock unconverged", row.label));
            let l = row
                .leave_clean_s
                .unwrap_or_else(|| panic!("{} leave shock unconverged", row.label));
            assert!(j <= 60 && l <= 60, "{}: within the horizon", row.label);
            let load = row.load.as_ref().expect("base-period row measures load");
            assert!(load.p50_ms > 0.0, "delays make latency nonzero");
            assert!(load.p99_ms >= load.p95_ms && load.p95_ms >= load.p50_ms);
            assert!(load.sim_secs > 0.0);
        }
    }

    #[test]
    fn stabilize_until_clean_is_zero_on_a_clean_overlay() {
        let mut net = build_overlay(OverlayKind::Cycloid7, 64, 1);
        let run = run_until_clean(net.as_mut(), 30, 60, false);
        assert_eq!(run.clean_s, Some(0));
        assert_eq!(run.trajectory, vec![(0, 0)]);
    }

    #[test]
    fn converge_is_deterministic() {
        let run = || {
            let mut params = ConvergeParams::quick(7);
            params.kinds = vec![OverlayKind::Koorde];
            params.periods = vec![10];
            params.base_period = 10;
            params.nodes = 64;
            params.lookups = 100;
            measure(&params)
        };
        let (a, b) = (run(), run());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.join_clean_s, y.join_clean_s);
            assert_eq!(x.leave_clean_s, y.leave_clean_s);
            let (lx, ly) = (x.load.as_ref().unwrap(), y.load.as_ref().unwrap());
            assert_eq!(lx.p50_ms, ly.p50_ms);
            assert_eq!(lx.p99_ms, ly.p99_ms);
            assert_eq!(lx.stranded, ly.stranded);
        }
    }
}
