//! Figure 10: query-load balance.
//!
//! §4.2: "The query load is measured as the number of queries received by
//! a node for lookup requests from different nodes." The paper plots the
//! mean and the 1st/99th percentiles for networks of 64 and 2048 nodes.

use dht_core::obs::MetricsRegistry;
use dht_core::rng::stream_indexed;
use dht_core::stats::Summary;
use dht_core::workload::per_node_uniform;

use crate::experiments::{grid, run_cells};
use crate::factory::{build_overlay, OverlayKind};

/// Parameters of a query-load experiment.
#[derive(Debug, Clone)]
pub struct QueryLoadParams {
    /// Overlays to measure.
    pub kinds: Vec<OverlayKind>,
    /// Network sizes (the paper uses 64 and 2048).
    pub sizes: Vec<usize>,
    /// Lookups per node (the §4.1 workload issues n/4 per node; `None`
    /// reproduces that, `Some(cap)` bounds it for quick runs).
    pub per_node_cap: Option<usize>,
    /// Master seed.
    pub seed: u64,
    /// Worker-thread cap for each cell's lookup batch (results are
    /// bit-identical for every value; only wall clock varies).
    pub jobs: usize,
}

impl QueryLoadParams {
    /// Paper-scale parameters.
    #[must_use]
    pub fn paper(seed: u64) -> Self {
        Self {
            kinds: crate::factory::PAPER_KINDS.to_vec(),
            sizes: vec![64, 2048],
            per_node_cap: None,
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
                OverlayKind::Viceroy,
                OverlayKind::Koorde,
            ],
            sizes: vec![64],
            per_node_cap: Some(8),
            seed,
            jobs: 1,
        }
    }
}

/// One row: one overlay at one size.
#[derive(Debug, Clone)]
pub struct QueryLoadRow {
    /// Overlay display name.
    pub label: String,
    /// Node count.
    pub n: usize,
    /// Distribution of queries received per node.
    pub load: Summary,
}

/// Runs the sweep; rows ordered by size then kind.
#[must_use]
pub fn measure(params: &QueryLoadParams) -> Vec<QueryLoadRow> {
    let cells = grid(&params.sizes, &params.kinds);
    run_cells(&cells, |i, &(kind, n)| {
        let per_node = params
            .per_node_cap
            .map_or(n / 4, |cap| (n / 4).min(cap))
            .max(1);
        let mut net = build_overlay(kind, n, params.seed ^ (i as u64) << 24);
        net.reset_query_loads();
        let mut rng = stream_indexed(params.seed, "query-load", i as u64);
        let reqs: Vec<_> = per_node_uniform(net.as_ref(), per_node, &mut rng)
            .iter()
            .map(|r| (r.src, r.raw_key))
            .collect();
        let _ = net.lookup_batch(&reqs, params.jobs);
        QueryLoadRow {
            label: net.name(),
            n,
            load: Summary::of_counts(&net.query_loads()),
        }
    })
}

/// Registers every row's per-node query-load distribution, keyed
/// `{overlay}/n={n}.load`.
pub fn register_metrics(rows: &[QueryLoadRow], reg: &mut MetricsRegistry) {
    for row in rows {
        let prefix = format!("{}/n={}.load", row.label, row.n);
        super::register_summary_gauges(reg, &prefix, &row.load);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loads_are_recorded_for_every_node() {
        let rows = measure(&QueryLoadParams::quick(3));
        assert_eq!(rows.len(), 3);
        for row in &rows {
            assert_eq!(row.load.n, 64);
            assert!(
                row.load.mean >= 1.0,
                "{}: every node issues lookups",
                row.label
            );
        }
    }

    #[test]
    fn cycloid_variance_is_smallest_among_constant_degree() {
        // Fig. 10's shape: Cycloid has the smallest query-load variation
        // among the constant-degree DHTs.
        let rows = measure(&QueryLoadParams {
            per_node_cap: Some(16),
            ..QueryLoadParams::quick(5)
        });
        let spread = |label: &str| {
            let r = rows.iter().find(|r| r.label == label).unwrap();
            (r.load.p99 - r.load.p01) / r.load.mean
        };
        let cyc = spread("Cycloid(7)");
        let vic = spread("Viceroy");
        assert!(
            cyc < vic,
            "Cycloid relative spread {cyc} should be below Viceroy {vic}"
        );
    }
}
