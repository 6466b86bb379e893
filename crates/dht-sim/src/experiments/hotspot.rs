//! Extension experiment: hot spots under skewed (Zipf) key popularity.
//!
//! §2 lists among the structured DHTs' disadvantages that "hot-spots are
//! generated for too frequently accessed files". This experiment
//! quantifies it: the same lookup volume is issued once with uniformly
//! random keys and once with Zipf(1.0)-popular keys from a fixed
//! catalogue, and the per-node query-load distributions are compared.
//! The skew concentrates load both on the hot keys' owners and on the
//! routing paths converging towards them.

use dht_core::obs::MetricsRegistry;
use dht_core::rng::stream_indexed;
use dht_core::stats::Summary;
use dht_core::workload::{random_pairs, zipf_pairs, ZipfKeys};

use crate::experiments::run_cells;
use crate::factory::{build_overlay, OverlayKind};

/// Parameters of the hot-spot experiment.
#[derive(Debug, Clone)]
pub struct HotspotParams {
    /// Overlays to measure.
    pub kinds: Vec<OverlayKind>,
    /// Network size.
    pub nodes: usize,
    /// Catalogue size (distinct objects).
    pub catalogue: usize,
    /// Zipf exponent for the skewed run.
    pub exponent: f64,
    /// Lookups per run.
    pub lookups: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker-thread cap for each cell's lookup batch (results are
    /// bit-identical for every value; only wall clock varies).
    pub jobs: usize,
}

impl HotspotParams {
    /// Default scale.
    #[must_use]
    pub fn paper_scale(seed: u64) -> Self {
        Self {
            kinds: crate::factory::PAPER_KINDS.to_vec(),
            nodes: 2048,
            catalogue: 10_000,
            exponent: 1.0,
            lookups: 50_000,
            seed,
            jobs: 1,
        }
    }

    /// Reduced scale for smoke tests.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        Self {
            kinds: vec![OverlayKind::Cycloid7, OverlayKind::Chord],
            nodes: 256,
            catalogue: 2_000,
            exponent: 1.0,
            lookups: 5_000,
            seed,
            jobs: 1,
        }
    }
}

/// One row: query-load distributions under both workloads for one overlay.
#[derive(Debug, Clone)]
pub struct HotspotRow {
    /// Overlay display name.
    pub label: String,
    /// Per-node query load with uniformly random keys.
    pub uniform: Summary,
    /// Per-node query load with Zipf-popular keys.
    pub zipf: Summary,
}

impl HotspotRow {
    /// How much the skewed workload inflates the hottest nodes:
    /// `zipf.max / uniform.max`.
    #[must_use]
    pub fn amplification(&self) -> f64 {
        if self.uniform.max == 0.0 {
            0.0
        } else {
            self.zipf.max / self.uniform.max
        }
    }
}

/// Runs both workloads for each overlay.
#[must_use]
pub fn measure(params: &HotspotParams) -> Vec<HotspotRow> {
    run_cells(&params.kinds, |i, &kind| {
        let mut net = build_overlay(kind, params.nodes, params.seed ^ (i as u64) << 12);
        let mut rng = stream_indexed(params.seed, "hotspot", i as u64);
        // Uniform pass.
        net.reset_query_loads();
        let reqs: Vec<_> = random_pairs(net.as_ref(), params.lookups, &mut rng)
            .iter()
            .map(|r| (r.src, r.raw_key))
            .collect();
        let _ = net.lookup_batch(&reqs, params.jobs);
        let uniform = Summary::of_counts(&net.query_loads());
        // Zipf pass over a fixed catalogue.
        net.reset_query_loads();
        let catalogue = ZipfKeys::new(params.catalogue, params.exponent, &mut rng);
        let reqs: Vec<_> = zipf_pairs(net.as_ref(), &catalogue, params.lookups, &mut rng)
            .iter()
            .map(|r| (r.src, r.raw_key))
            .collect();
        let _ = net.lookup_batch(&reqs, params.jobs);
        let zipf = Summary::of_counts(&net.query_loads());
        HotspotRow {
            label: net.name(),
            uniform,
            zipf,
        }
    })
}

/// Registers both workloads' query-load distributions and the hot-spot
/// amplification factor, keyed `{overlay}.{uniform|zipf}`.
pub fn register_metrics(rows: &[HotspotRow], reg: &mut MetricsRegistry) {
    for row in rows {
        super::register_summary_gauges(reg, &format!("{}.uniform", row.label), &row.uniform);
        super::register_summary_gauges(reg, &format!("{}.zipf", row.label), &row.zipf);
        reg.gauge(&format!("{}.amplification", row.label))
            .set(row.amplification());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_skew_inflates_the_hottest_node() {
        let rows = measure(&HotspotParams::quick(3));
        for r in &rows {
            assert!(
                r.zipf.max > r.uniform.max,
                "{}: zipf max {} should exceed uniform max {}",
                r.label,
                r.zipf.max,
                r.uniform.max
            );
            assert!(r.amplification() > 1.0);
            // Means stay comparable: the volume is the same, only its
            // distribution changes.
            assert!((r.zipf.mean - r.uniform.mean).abs() < r.uniform.mean * 0.5);
        }
    }
}
