//! Figures 5, 6 and 7: lookup path length versus network size and
//! dimension, with the per-phase breakdown.
//!
//! §4.1: "we simulated networks with n = d·2^d nodes and varied the
//! dimension d from 3 to 8. Each node made a total of n/4 lookup requests
//! to random destinations."

use dht_core::obs::MetricsRegistry;
use dht_core::rng::stream_indexed;
use dht_core::workload::per_node_uniform;

use crate::experiments::{grid, paper_sizes, run_cells, run_requests_jobs, LookupAggregate};
use crate::factory::{build_overlay, OverlayKind};

/// Parameters for the path-length sweep.
#[derive(Debug, Clone)]
pub struct PathLengthParams {
    /// Overlays to measure.
    pub kinds: Vec<OverlayKind>,
    /// `(dimension, node count)` pairs.
    pub sizes: Vec<(u32, usize)>,
    /// Lookups issued per node, as a fraction of `n` (the paper uses 1/4,
    /// i.e. `n/4` lookups per node... per the text, *per node* n/4 —
    /// interpreted here as each node issuing `max(1, n * factor / n) =
    /// max(1, n·factor)` requests in total terms; `factor = 0.25` issues
    /// `n/4` requests from every node).
    pub per_node_factor: f64,
    /// Hard cap on lookups per node (keeps the d = 8 point tractable; the
    /// paper's 512-per-node workload at n = 2048 is reproduced with
    /// `None`).
    pub per_node_cap: Option<usize>,
    /// Master seed.
    pub seed: u64,
    /// Worker-thread cap for each cell's lookup batch (results are
    /// bit-identical for every value; only wall clock varies).
    pub jobs: usize,
}

impl PathLengthParams {
    /// Paper-scale parameters: all five systems, d = 3..=8, n/4 lookups
    /// per node.
    #[must_use]
    pub fn paper(seed: u64) -> Self {
        Self {
            kinds: crate::factory::PAPER_KINDS.to_vec(),
            sizes: paper_sizes(),
            per_node_factor: 0.25,
            per_node_cap: None,
            seed,
            jobs: 1,
        }
    }

    /// Reduced workload for smoke tests and benches.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        Self {
            per_node_cap: Some(8),
            ..Self::paper(seed)
        }
    }
}

/// One row of Fig. 5/6/7: one overlay at one size.
#[derive(Debug, Clone)]
pub struct PathLengthRow {
    /// Cycloid dimension of this size point.
    pub dimension: u32,
    /// Node count.
    pub n: usize,
    /// Aggregated lookup statistics (mean path = the Fig. 5/6 y-value;
    /// breakdown = the Fig. 7 bars).
    pub agg: LookupAggregate,
}

/// Runs the sweep; rows are ordered by size then by kind. Each
/// (kind, size) cell runs on its own thread.
#[must_use]
pub fn measure(params: &PathLengthParams) -> Vec<PathLengthRow> {
    let cells = grid(&params.sizes, &params.kinds);
    run_cells(&cells, |idx, &(kind, (d, n))| {
        let per_node = ((n as f64 * params.per_node_factor).round() as usize).max(1);
        let per_node = params
            .per_node_cap
            .map_or(per_node, |cap| per_node.min(cap));
        let mut net = build_overlay(kind, n, params.seed ^ (idx as u64) << 8);
        let mut rng = stream_indexed(params.seed, "path-length", idx as u64);
        let reqs = per_node_uniform(net.as_ref(), per_node, &mut rng);
        let agg = run_requests_jobs(net.as_mut(), &reqs, params.jobs);
        PathLengthRow {
            dimension: d,
            n,
            agg,
        }
    })
}

/// Registers every row's lookup metrics, keyed `{overlay}/n={n}`.
pub fn register_metrics(rows: &[PathLengthRow], reg: &mut MetricsRegistry) {
    for row in rows {
        let prefix = format!("{}/n={}", row.agg.label, row.n);
        super::register_lookup_metrics(reg, &prefix, &row.agg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dht_core::lookup::HopPhase;

    fn quick_rows() -> Vec<PathLengthRow> {
        let params = PathLengthParams {
            kinds: vec![
                OverlayKind::Cycloid7,
                OverlayKind::Viceroy,
                OverlayKind::Koorde,
            ],
            sizes: vec![(4, 64), (5, 160)],
            per_node_factor: 0.25,
            per_node_cap: Some(6),
            seed: 42,
            jobs: 1,
        };
        measure(&params)
    }

    #[test]
    fn sweep_covers_all_cells() {
        let rows = quick_rows();
        assert_eq!(rows.len(), 6);
        assert_eq!(rows[0].n, 64);
        assert_eq!(rows[5].n, 160);
        for row in &rows {
            assert!(row.agg.path.mean > 0.0, "{} has no hops", row.agg.label);
            assert_eq!(row.agg.failures, 0);
        }
    }

    #[test]
    fn viceroy_paths_exceed_cycloid() {
        // The headline Fig. 5 shape: Viceroy's paths are much longer than
        // Cycloid's at equal n.
        let rows = quick_rows();
        let cycloid = rows
            .iter()
            .find(|r| r.agg.label == "Cycloid(7)" && r.n == 160)
            .unwrap();
        let viceroy = rows
            .iter()
            .find(|r| r.agg.label == "Viceroy" && r.n == 160)
            .unwrap();
        assert!(
            viceroy.agg.path.mean > cycloid.agg.path.mean,
            "Viceroy {} should exceed Cycloid {}",
            viceroy.agg.path.mean,
            cycloid.agg.path.mean
        );
    }

    #[test]
    fn cycloid_ascending_share_is_small() {
        // Fig. 7(a): ascending is a small share of Cycloid's path.
        let rows = quick_rows();
        let cycloid = rows
            .iter()
            .find(|r| r.agg.label == "Cycloid(7)" && r.n == 160)
            .unwrap();
        let share = cycloid.agg.breakdown.share(HopPhase::Ascending);
        assert!(share < 0.4, "ascending share {share} should be small");
    }
}
