//! Figures 8 and 9: key distribution over the nodes.
//!
//! §4.2: "we simulated different DHT networks of 2000 nodes each. We
//! varied the total number of keys to be distributed from 10^4 to 10^5 in
//! increments of 10^4... Assume the network ID space is of 2048 nodes."
//! Fig. 9 repeats the measurement with only 1000 participants (a sparse
//! population of the same 2048-slot space).

use dht_core::obs::MetricsRegistry;
use dht_core::overlay::key_counts;
use dht_core::rng::stream;
use dht_core::stats::Summary;
use dht_core::workload::key_population;

use crate::experiments::run_cells;
use crate::factory::{build_overlay_spaced, OverlayKind};

/// Parameters of a key-distribution experiment.
#[derive(Debug, Clone)]
pub struct KeyDistributionParams {
    /// Overlays to measure.
    pub kinds: Vec<OverlayKind>,
    /// Number of participating nodes (2000 for Fig. 8, 1000 for Fig. 9).
    pub nodes: usize,
    /// Identifier-space capacity ("the network ID space is of 2048
    /// nodes", §4.2).
    pub id_space: usize,
    /// Key-population sizes to sweep.
    pub key_counts: Vec<usize>,
    /// Master seed.
    pub seed: u64,
}

impl KeyDistributionParams {
    /// Fig. 8 paper parameters (dense population: 2000 of 2048 slots).
    #[must_use]
    pub fn fig8(seed: u64) -> Self {
        Self {
            kinds: crate::factory::PAPER_KINDS.to_vec(),
            nodes: 2000,
            id_space: 2048,
            key_counts: (1..=10).map(|i| i * 10_000).collect(),
            seed,
        }
    }

    /// Fig. 9 paper parameters (sparse population: 1000 of 2048 slots).
    #[must_use]
    pub fn fig9(seed: u64) -> Self {
        Self {
            nodes: 1000,
            ..Self::fig8(seed)
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
            nodes: 200,
            id_space: 512,
            key_counts: vec![5_000, 10_000],
            seed,
        }
    }
}

/// One row: one overlay at one key-population size.
#[derive(Debug, Clone)]
pub struct KeyDistributionRow {
    /// Overlay display name.
    pub label: String,
    /// Number of keys distributed.
    pub keys: usize,
    /// Distribution of keys-per-node (the paper plots mean, 1st and 99th
    /// percentiles).
    pub per_node: Summary,
}

/// Runs the sweep; rows ordered by key count then kind.
#[must_use]
pub fn measure(params: &KeyDistributionParams) -> Vec<KeyDistributionRow> {
    // One overlay per kind (the same network serves every key count).
    let per_kind = run_cells(&params.kinds, |i, &kind| {
        let net = build_overlay_spaced(
            kind,
            params.nodes,
            params.id_space,
            params.seed ^ (i as u64) << 16,
        );
        let mut out = Vec::new();
        for &count in &params.key_counts {
            let keys = key_population(count, &mut stream(params.seed, "keys"));
            let counts = key_counts(net.as_ref(), &keys);
            out.push(KeyDistributionRow {
                label: net.name(),
                keys: count,
                per_node: Summary::of_counts(&counts),
            });
        }
        out
    });
    let mut rows = Vec::new();
    for count_idx in 0..params.key_counts.len() {
        for kind_rows in &per_kind {
            rows.push(kind_rows[count_idx].clone());
        }
    }
    rows
}

/// Registers every row's keys-per-node distribution, keyed
/// `{overlay}/keys={count}.keys_per_node`.
pub fn register_metrics(rows: &[KeyDistributionRow], reg: &mut MetricsRegistry) {
    for row in rows {
        let prefix = format!("{}/keys={}.keys_per_node", row.label, row.keys);
        super::register_summary_gauges(reg, &prefix, &row.per_node);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_shapes() {
        let rows = measure(&KeyDistributionParams::quick(7));
        assert_eq!(rows.len(), 6);
        for row in &rows {
            assert_eq!(row.per_node.n, 200);
            let total_keys = row.per_node.mean * 200.0;
            assert!((total_keys - row.keys as f64).abs() < 1.0, "keys conserved");
        }
    }

    #[test]
    fn viceroy_is_less_balanced_than_cycloid() {
        // Fig. 8's shape: Viceroy's 99th percentile is far above Cycloid's.
        let rows = measure(&KeyDistributionParams::quick(11));
        let cyc = rows
            .iter()
            .find(|r| r.label == "Cycloid(7)" && r.keys == 10_000)
            .unwrap();
        let vic = rows
            .iter()
            .find(|r| r.label == "Viceroy" && r.keys == 10_000)
            .unwrap();
        assert!(
            vic.per_node.p99 > cyc.per_node.p99,
            "Viceroy p99 {} should exceed Cycloid p99 {}",
            vic.per_node.p99,
            cyc.per_node.p99
        );
    }
}
