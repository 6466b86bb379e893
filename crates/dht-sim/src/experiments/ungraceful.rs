//! Extension experiment (beyond the paper's figures): **ungraceful**
//! failures.
//!
//! §3.4 assumes "nodes must notify others before leaving" and §5 names
//! unannounced departures as the common weakness of constant-degree DHTs.
//! This experiment quantifies that weakness: a fraction `p` of the nodes
//! vanish *without* notifications (so even leaf sets and ring successors
//! go stale), and we measure how many lookups still reach the correct
//! owner — before and after one stabilization round.
//!
//! Note that our Viceroy models the paper's idealized always-repaired
//! variant (zero-staleness by construction), so its "before" numbers are
//! an upper bound rather than a measurement of a real Viceroy under
//! crashes.

use dht_core::obs::MetricsRegistry;
use dht_core::rng::{stream, stream_indexed};
use dht_core::workload::random_pairs;
use rand::Rng;

use crate::experiments::{grid, run_cells, run_requests_jobs, LookupAggregate};
use crate::factory::{build_overlay, OverlayKind};

/// Parameters of the ungraceful-failure experiment.
#[derive(Debug, Clone)]
pub struct UngracefulParams {
    /// Overlays to measure.
    pub kinds: Vec<OverlayKind>,
    /// Starting network size.
    pub nodes: usize,
    /// Crash probabilities to sweep.
    pub probabilities: Vec<f64>,
    /// Lookups per phase (before and after stabilization).
    pub lookups: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker-thread cap for each cell's lookup batch (results are
    /// bit-identical for every value; only wall clock varies).
    pub jobs: usize,
}

impl UngracefulParams {
    /// Default scale: mirrors Fig. 11's setup with crashes instead of
    /// graceful departures.
    #[must_use]
    pub fn paper_scale(seed: u64) -> Self {
        Self {
            kinds: crate::factory::PAPER_KINDS.to_vec(),
            nodes: 2048,
            probabilities: vec![0.1, 0.2, 0.3, 0.4, 0.5],
            lookups: 10_000,
            seed,
            jobs: 1,
        }
    }

    /// Reduced workload for smoke tests.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        Self {
            kinds: vec![
                OverlayKind::Cycloid7,
                OverlayKind::Koorde,
                OverlayKind::Chord,
            ],
            nodes: 512,
            probabilities: vec![0.2, 0.4],
            lookups: 800,
            seed,
            jobs: 1,
        }
    }
}

/// One row: one overlay at one crash probability.
#[derive(Debug, Clone)]
pub struct UngracefulRow {
    /// Crash probability.
    pub p: f64,
    /// Survivors.
    pub survivors: usize,
    /// Lookup statistics immediately after the crash wave (stale leaf
    /// sets / rings).
    pub before_stabilize: LookupAggregate,
    /// Lookup statistics after one full stabilization round.
    pub after_stabilize: LookupAggregate,
}

/// Runs the sweep; rows ordered by probability then kind.
#[must_use]
pub fn measure(params: &UngracefulParams) -> Vec<UngracefulRow> {
    let cells = grid(&params.probabilities, &params.kinds);
    run_cells(&cells, |i, &(kind, p)| {
        let mut net = build_overlay(kind, params.nodes, params.seed ^ (i as u64) << 56);
        let mut crash_rng = stream(params.seed, &format!("crash-{p}"));
        for token in net.node_tokens() {
            if crash_rng.gen_bool(p) {
                net.fail(token);
            }
        }
        let survivors = net.len();
        let mut rng = stream_indexed(params.seed, "ungraceful", i as u64);
        let reqs = random_pairs(net.as_ref(), params.lookups, &mut rng);
        let before_stabilize = run_requests_jobs(net.as_mut(), &reqs, params.jobs);
        net.stabilize();
        let reqs = random_pairs(net.as_ref(), params.lookups, &mut rng);
        let after_stabilize = run_requests_jobs(net.as_mut(), &reqs, params.jobs);
        UngracefulRow {
            p,
            survivors,
            before_stabilize,
            after_stabilize,
        }
    })
}

/// Registers both phases' lookup metrics plus a survivor-count gauge,
/// keyed `{overlay}/p={p}/{before|after}`.
pub fn register_metrics(rows: &[UngracefulRow], reg: &mut MetricsRegistry) {
    for row in rows {
        let base = format!("{}/p={}", row.before_stabilize.label, row.p);
        super::register_lookup_metrics(reg, &format!("{base}/before"), &row.before_stabilize);
        super::register_lookup_metrics(reg, &format!("{base}/after"), &row.after_stabilize);
        reg.gauge(&format!("{base}.survivors"))
            .set(row.survivors as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stabilization_restores_every_overlay() {
        let rows = measure(&UngracefulParams::quick(3));
        for row in &rows {
            assert_eq!(
                row.after_stabilize.failures, 0,
                "{} at p={} must fully recover after stabilization",
                row.after_stabilize.label, row.p
            );
            assert_eq!(row.after_stabilize.timeouts.max, 0.0);
        }
    }

    #[test]
    fn crashes_hurt_more_than_graceful_departures() {
        // The §5 weakness: without leave notifications, some lookups go
        // wrong before stabilization at heavy crash rates.
        let rows = measure(&UngracefulParams::quick(5));
        let total_failures: usize = rows
            .iter()
            .filter(|r| r.p >= 0.4)
            .map(|r| r.before_stabilize.failures)
            .sum();
        assert!(
            total_failures > 0,
            "heavy unannounced crashes must break some lookups pre-stabilization"
        );
    }

    #[test]
    fn survivors_match_crash_rate() {
        let rows = measure(&UngracefulParams::quick(7));
        for row in &rows {
            let expected = 512.0 * (1.0 - row.p);
            assert!((row.survivors as f64 - expected).abs() < 70.0);
        }
    }
}
