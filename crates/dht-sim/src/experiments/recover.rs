//! Self-stabilizing recovery from corrupted routing state (extension).
//!
//! The convergence experiment ([`crate::experiments::converge`]) times
//! stabilization after *membership* shocks; this one times the repair
//! protocol after *state* shocks: a seeded [`CorruptionPlan`] scrambles
//! a fraction of the nodes' routing tables through one of the named
//! [`CorruptionStrategy`]s, then the per-second repair timers
//! ([`run_until_clean`]) run on the virtual clock until the
//! **full-scope** audit ([`dht_core::audit::AuditScope::Full`]) comes
//! back clean — the audit is the recovery oracle, exactly as it is the
//! convergence oracle, and the first clean second is the *time to
//! recover*.
//!
//! Alongside time, the sweep accounts recovery *cost*: the repair
//! routines invoked (the maintenance-message proxy) and the
//! routing-state entries they rewrote. After recovery, a lookup batch
//! (sharded across `jobs` workers, bit-identical for every value)
//! confirms the repaired overlay actually routes: zero failures is part
//! of the recovery contract, not just a clean audit.

use dht_core::corrupt::{CorruptionPlan, CorruptionStrategy};
use dht_core::obs::MetricsRegistry;
use dht_core::rng::stream_indexed;
use dht_core::workload::random_pairs;

use crate::churn::run_until_clean;
use crate::experiments::{run_cells, run_requests_jobs, LookupAggregate};
use crate::factory::{build_overlay_spaced, OverlayKind};

/// Parameters of the recovery experiment.
#[derive(Debug, Clone)]
pub struct RecoverParams {
    /// Overlays to corrupt (all eight factory kinds by default).
    pub kinds: Vec<OverlayKind>,
    /// Corruption strategies to sweep (the full catalogue by default).
    pub strategies: Vec<CorruptionStrategy>,
    /// Corruption severities to sweep: each is the fraction of nodes
    /// whose routing state the plan scrambles.
    pub severities: Vec<f64>,
    /// Repair periods `T` (seconds) to sweep: each node's repair timer
    /// fires once per period, phase-hashed across the period's seconds.
    pub periods: Vec<u64>,
    /// Network size.
    pub nodes: usize,
    /// Recovery horizon, in multiples of the period: a corruption that
    /// is not audit-clean within `horizon_periods * T` seconds is
    /// reported as unrecovered.
    pub horizon_periods: u64,
    /// Post-recovery lookups verifying the repaired overlay routes.
    pub lookups: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker-thread cap for the post-recovery lookup batch (results
    /// are bit-identical for every value).
    pub jobs: usize,
}

impl RecoverParams {
    /// Paper-scale parameters: 512-node networks, every strategy, 25%
    /// and 50% severities, `T ∈ {10, 30}`.
    #[must_use]
    pub fn paper(seed: u64) -> Self {
        Self {
            kinds: crate::factory::ALL_KINDS.to_vec(),
            strategies: CorruptionStrategy::ALL.to_vec(),
            severities: vec![0.25, 0.5],
            periods: vec![10, 30],
            nodes: 512,
            horizon_periods: 8,
            lookups: 1_000,
            seed,
            jobs: 1,
        }
    }

    /// Reduced workload for smoke tests and CI.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        Self {
            kinds: crate::factory::ALL_KINDS.to_vec(),
            strategies: CorruptionStrategy::ALL.to_vec(),
            severities: vec![0.25],
            periods: vec![10],
            nodes: 96,
            horizon_periods: 8,
            lookups: 150,
            seed,
            jobs: 1,
        }
    }
}

/// One row: one overlay under one (strategy, severity, period) cell.
#[derive(Debug, Clone)]
pub struct RecoverRow {
    /// Overlay display name.
    pub label: String,
    /// Corruption strategy applied.
    pub strategy: CorruptionStrategy,
    /// Fraction of nodes the plan targeted.
    pub severity: f64,
    /// Repair period `T`, seconds.
    pub period: u64,
    /// Nodes the plan selected as victims.
    pub targeted: u64,
    /// Victims whose state actually changed.
    pub corrupted: u64,
    /// Routing-state entries the corruption rewrote.
    pub mutated_entries: u64,
    /// Simulated seconds until the full-scope audit came back clean;
    /// `None` if unrecovered within the horizon.
    pub clean_s: Option<u64>,
    /// Repair routines invoked until clean — the recovery's
    /// maintenance-message proxy.
    pub repair_calls: u64,
    /// Routing-state entries the repair routines rewrote.
    pub repaired_entries: u64,
    /// Open full-scope audit violations sampled at every simulated
    /// second of repair, as `(t_us, violations)` — the recovery
    /// trajectory behind [`RecoverRow::clean_s`].
    pub trajectory: Vec<(u64, u64)>,
    /// Post-recovery lookup batch (zero failures is part of the
    /// recovery contract).
    pub post: LookupAggregate,
}

/// Runs the sweep; rows ordered by period, then strategy, then
/// severity, then kind.
#[must_use]
pub fn measure(params: &RecoverParams) -> Vec<RecoverRow> {
    let mut cells = Vec::new();
    for &period in &params.periods {
        for &strategy in &params.strategies {
            for &severity in &params.severities {
                for &kind in &params.kinds {
                    cells.push((kind, strategy, severity, period));
                }
            }
        }
    }
    run_cells(&cells, |i, &(kind, strategy, severity, period)| {
        run_cell(params, kind, strategy, severity, period, i as u64)
    })
}

fn run_cell(
    params: &RecoverParams,
    kind: OverlayKind,
    strategy: CorruptionStrategy,
    severity: f64,
    period: u64,
    cell: u64,
) -> RecoverRow {
    let horizon = params.horizon_periods.max(1) * period.max(1);
    // Build inside a strictly larger identifier space: `build_overlay`'s
    // exact-fit sizing can saturate a power-of-two ring (512 nodes fill
    // a 2^9 Chord/Koorde space completely), and a saturated space has no
    // dead token for the ghost strategy to point a link at — corruption
    // would silently degenerate to a no-op for exactly those cells.
    let id_space = params.nodes + params.nodes / 2;
    let mut net = build_overlay_spaced(kind, params.nodes, id_space, params.seed ^ (cell << 40));
    let plan = CorruptionPlan::new(strategy, severity, params.seed ^ cell);
    let report = net.corrupt_state(&plan);
    let repair = run_until_clean(net.as_mut(), period, horizon, true);
    let mut rng = stream_indexed(params.seed, "recover", cell);
    let reqs = random_pairs(net.as_ref(), params.lookups, &mut rng);
    let post = run_requests_jobs(net.as_mut(), &reqs, params.jobs.max(1));
    RecoverRow {
        // `kind.label()` and not `net.name()`: the Koorde ablation shares
        // the display name "Koorde", and metric keys must be unique.
        label: kind.label().to_string(),
        strategy,
        severity,
        period,
        targeted: report.targeted_nodes as u64,
        corrupted: report.corrupted_nodes as u64,
        mutated_entries: report.mutated_entries,
        clean_s: repair.clean_s,
        repair_calls: repair.calls,
        repaired_entries: repair.entries,
        trajectory: repair.trajectory,
        post,
    }
}

/// Registers every row's recovery metrics, keyed
/// `{overlay}/{strategy}/s={severity}/T={period}`. Unrecovered cells
/// export `-1` so the gauge is always present.
pub fn register_metrics(rows: &[RecoverRow], reg: &mut MetricsRegistry) {
    for row in rows {
        let prefix = format!(
            "{}/{}/s={}/T={}",
            row.label,
            row.strategy.label(),
            row.severity,
            row.period
        );
        reg.counter(&format!("{prefix}.targeted")).add(row.targeted);
        reg.counter(&format!("{prefix}.corrupted"))
            .add(row.corrupted);
        reg.counter(&format!("{prefix}.mutated_entries"))
            .add(row.mutated_entries);
        reg.gauge(&format!("{prefix}.clean_s"))
            .set(row.clean_s.map_or(-1.0, |s| s as f64));
        reg.counter(&format!("{prefix}.repair_calls"))
            .add(row.repair_calls);
        reg.counter(&format!("{prefix}.repaired_entries"))
            .add(row.repaired_entries);
        reg.counter(&format!("{prefix}.post_failures"))
            .add(row.post.failures as u64);
        reg.gauge(&format!("{prefix}.post_path_mean"))
            .set(row.post.path.mean);
        let series = reg.series(&format!("{prefix}.violations"));
        for &(t_us, open) in &row.trajectory {
            series.push(t_us, open as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_cell_recovers_and_routes() {
        let mut params = RecoverParams::quick(3);
        params.kinds = vec![OverlayKind::Cycloid7, OverlayKind::Can];
        params.strategies = vec![
            CorruptionStrategy::RandomizeLinks,
            CorruptionStrategy::EclipseRegion,
        ];
        params.nodes = 64;
        params.lookups = 80;
        let rows = measure(&params);
        assert_eq!(rows.len(), 4);
        for row in &rows {
            assert!(row.targeted >= 16, "{}: 25% of 64 targeted", row.label);
            assert!(row.corrupted > 0, "{}: corruption did no damage", row.label);
            let s = row
                .clean_s
                .unwrap_or_else(|| panic!("{} {:?} unrecovered", row.label, row.strategy));
            assert!(
                s > 0,
                "{}: corrupted state cannot be clean at t=0",
                row.label
            );
            assert!(row.repair_calls > 0);
            assert_eq!(
                row.post.failures, 0,
                "{}: repaired overlay must route",
                row.label
            );
        }
    }

    #[test]
    fn repair_until_clean_is_zero_on_a_clean_overlay() {
        let mut net = crate::factory::build_overlay(OverlayKind::Cycloid7, 64, 1);
        let run = run_until_clean(net.as_mut(), 30, 60, true);
        assert_eq!(run.clean_s, Some(0));
        assert_eq!(run.calls, 0);
        assert_eq!(run.entries, 0);
    }

    #[test]
    fn recover_is_deterministic_across_jobs() {
        let run = |jobs: usize| {
            let mut params = RecoverParams::quick(7);
            params.kinds = vec![OverlayKind::Koorde];
            params.strategies = vec![CorruptionStrategy::GhostLinks];
            params.nodes = 64;
            params.lookups = 80;
            params.jobs = jobs;
            measure(&params)
        };
        let (a, b) = (run(1), run(4));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.clean_s, y.clean_s);
            assert_eq!(x.repair_calls, y.repair_calls);
            assert_eq!(x.repaired_entries, y.repaired_entries);
            assert_eq!(x.mutated_entries, y.mutated_entries);
            assert_eq!(x.post.path.mean, y.post.path.mean);
            assert_eq!(x.post.failures, y.post.failures);
        }
    }
}
