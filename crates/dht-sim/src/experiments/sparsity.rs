//! Figures 13 and 14: impact of network sparsity in the ID space.
//!
//! §4.5: "We define the degree of sparsity as the percentage of
//! non-existent nodes relative to the network size... We tested a total of
//! 10,000 lookups in different DHT networks with an ID space of 2048
//! nodes." Fig. 14 breaks Koorde's lookup cost into de Bruijn and
//! successor hops as sparsity grows.

use dht_core::obs::MetricsRegistry;
use dht_core::rng::stream_indexed;
use dht_core::workload::random_pairs;

use crate::experiments::{grid, run_cells, run_requests_jobs, LookupAggregate};
use crate::factory::{build_overlay_spaced, OverlayKind};

/// Parameters of the sparsity experiment.
#[derive(Debug, Clone)]
pub struct SparsityParams {
    /// Overlays to measure.
    pub kinds: Vec<OverlayKind>,
    /// Identifier-space capacity (2048 in the paper).
    pub id_space: usize,
    /// Sparsity levels: fraction of the space left unoccupied.
    pub sparsities: Vec<f64>,
    /// Lookups per point (10,000 in the paper).
    pub lookups: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker-thread cap for each cell's lookup batch (results are
    /// bit-identical for every value; only wall clock varies).
    pub jobs: usize,
}

impl SparsityParams {
    /// Paper-scale parameters.
    #[must_use]
    pub fn paper(seed: u64) -> Self {
        Self {
            kinds: crate::factory::PAPER_KINDS.to_vec(),
            id_space: 2048,
            sparsities: vec![0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
            lookups: 10_000,
            seed,
            jobs: 1,
        }
    }

    /// Reduced workload for smoke tests.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        Self {
            kinds: vec![OverlayKind::Cycloid7, OverlayKind::Koorde],
            id_space: 512,
            sparsities: vec![0.0, 0.5, 0.8],
            lookups: 500,
            seed,
            jobs: 1,
        }
    }
}

/// One row: one overlay at one sparsity level.
#[derive(Debug, Clone)]
pub struct SparsityRow {
    /// Fraction of the identifier space left unoccupied.
    pub sparsity: f64,
    /// Number of participating nodes.
    pub n: usize,
    /// Aggregated lookup statistics (mean path = Fig. 13; the Koorde
    /// breakdown = Fig. 14).
    pub agg: LookupAggregate,
}

/// Runs the sweep; rows ordered by sparsity then kind.
#[must_use]
pub fn measure(params: &SparsityParams) -> Vec<SparsityRow> {
    let cells = grid(&params.sparsities, &params.kinds);
    run_cells(&cells, |i, &(kind, s)| {
        let n = (((params.id_space as f64) * (1.0 - s)).round() as usize).max(2);
        let mut net =
            build_overlay_spaced(kind, n, params.id_space, params.seed ^ (i as u64) << 48);
        let mut rng = stream_indexed(params.seed, "sparsity", i as u64);
        let reqs = random_pairs(net.as_ref(), params.lookups, &mut rng);
        let agg = run_requests_jobs(net.as_mut(), &reqs, params.jobs);
        SparsityRow {
            sparsity: s,
            n,
            agg,
        }
    })
}

/// Registers every row's lookup metrics plus a node-count gauge, keyed
/// `{overlay}/sparsity={s}`.
pub fn register_metrics(rows: &[SparsityRow], reg: &mut MetricsRegistry) {
    for row in rows {
        let prefix = format!("{}/sparsity={}", row.agg.label, row.sparsity);
        super::register_lookup_metrics(reg, &prefix, &row.agg);
        reg.gauge(&format!("{prefix}.nodes")).set(row.n as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_core::lookup::HopPhase;

    #[test]
    fn no_lookup_failures_at_any_sparsity() {
        // §4.5: "There are no lookup failures in each test case."
        let rows = measure(&SparsityParams::quick(3));
        for row in &rows {
            assert_eq!(
                row.agg.failures, 0,
                "{} at sparsity {}",
                row.agg.label, row.sparsity
            );
        }
    }

    #[test]
    fn cycloid_keeps_efficiency_koorde_degrades_relatively() {
        // Fig. 13's shape: Cycloid's path length does not grow with
        // sparsity (it shrinks slightly with network size), while Koorde's
        // successor share grows (Fig. 14).
        let rows = measure(&SparsityParams::quick(5));
        let cyc = |s: f64| {
            rows.iter()
                .find(|r| r.agg.label == "Cycloid(7)" && r.sparsity == s)
                .unwrap()
        };
        // Mid-range sparsity shortens Cycloid paths; even at 80% sparsity
        // the path stays within ~1.5 hops of dense (low-cyclic-index lone
        // primaries stretch the ascending phase slightly — see
        // EXPERIMENTS.md), nothing like Koorde's degradation.
        assert!(
            cyc(0.5).agg.path.mean <= cyc(0.0).agg.path.mean + 0.2,
            "Cycloid at 50% sparsity {} should not exceed dense {}",
            cyc(0.5).agg.path.mean,
            cyc(0.0).agg.path.mean
        );
        assert!(
            cyc(0.8).agg.path.mean <= cyc(0.0).agg.path.mean + 1.6,
            "Cycloid at 80% sparsity {} must stay near dense {}",
            cyc(0.8).agg.path.mean,
            cyc(0.0).agg.path.mean
        );
        let succ_share = |r: &SparsityRow| r.agg.breakdown.share(HopPhase::Successor);
        let k_dense = rows
            .iter()
            .find(|r| r.agg.label == "Koorde" && r.sparsity == 0.0)
            .unwrap();
        let k_sparse = rows
            .iter()
            .find(|r| r.agg.label == "Koorde" && r.sparsity == 0.8)
            .unwrap();
        assert!(
            succ_share(k_sparse) > succ_share(k_dense),
            "Koorde successor share must grow with sparsity"
        );
    }
}
