//! Large-population scale sweep (extension).
//!
//! The paper evaluates networks of at most 2048 nodes (§4.1); this
//! experiment pushes the same eight overlays to 10⁴–10⁶ nodes to measure
//! what the compact membership store ([`dht_core::store::CompactStore`])
//! buys at scale:
//!
//! * **bytes/node** — per-overlay memory footprint via
//!   [`Overlay::state_bytes`](dht_core::overlay::Overlay::state_bytes) / [`Overlay::bytes_per_node`](dht_core::overlay::Overlay::bytes_per_node) (the dense
//!   token array, the inline routing slots, and each overlay's auxiliary
//!   indexes), deterministic for a given build;
//! * **path quality** — hops and failures of a uniform random workload
//!   through [`run_requests_jobs`], after `joins` graceful joins each
//!   followed by the joined node's own stabilization routine (the
//!   incremental per-node scheduling unit the churn engine fires from
//!   its bucket index, instead of a full O(n) round).
//!
//! Every column is seeded, so `repro scale --jobs 1` and `--jobs 4`
//! print and export the same values. How long a build, a join or a
//! lookup takes at these sizes is the repo benchmark's to say
//! (`benchmark/README.md`).

use dht_core::obs::MetricsRegistry;
use dht_core::rng::stream_indexed;
use dht_core::workload::random_pairs;

use crate::experiments::{register_lookup_metrics, run_requests_jobs, LookupAggregate};
use crate::factory::{build_overlay_spaced, OverlayKind, ALL_KINDS};

/// Parameters of the scale sweep.
#[derive(Debug, Clone)]
pub struct ScaleParams {
    /// Overlays to measure (all eight factory kinds by default).
    pub kinds: Vec<OverlayKind>,
    /// Network sizes to sweep.
    pub sizes: Vec<usize>,
    /// Lookups per cell.
    pub lookups: usize,
    /// Graceful joins per cell before the lookups (the identifier space
    /// is sized to hold `n + joins` so every join has room).
    pub joins: usize,
    /// Worker-thread cap for the lookup batch.
    pub jobs: usize,
    /// Master seed.
    pub seed: u64,
}

impl ScaleParams {
    /// Full-scale parameters: n ∈ {10k, 100k, 1M} across all 8 kinds.
    #[must_use]
    pub fn paper(seed: u64) -> Self {
        Self {
            kinds: ALL_KINDS.to_vec(),
            sizes: vec![10_000, 100_000, 1_000_000],
            lookups: 5_000,
            joins: 64,
            jobs: 1,
            seed,
        }
    }

    /// Reduced workload for smoke tests and CI: the 10k point only.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        Self {
            sizes: vec![10_000],
            lookups: 1_000,
            joins: 16,
            ..Self::paper(seed)
        }
    }
}

/// One row: one overlay at one population.
#[derive(Debug, Clone)]
pub struct ScaleRow {
    /// Overlay display label (unique per kind, including ablations).
    pub label: String,
    /// Population when measured.
    pub n: usize,
    /// Total routing-state bytes ([`Overlay::state_bytes`](dht_core::overlay::Overlay::state_bytes)).
    pub state_bytes: usize,
    /// [`Overlay::bytes_per_node`](dht_core::overlay::Overlay::bytes_per_node) at population `n`.
    pub bytes_per_node: f64,
    /// The lookup batch (path lengths, failures).
    pub agg: LookupAggregate,
}

/// Runs the sweep; rows ordered by size then kind. Cells run strictly
/// one at a time and each overlay is dropped before the next is built,
/// so peak memory is a single million-node network.
#[must_use]
pub fn measure(params: &ScaleParams) -> Vec<ScaleRow> {
    let mut rows = Vec::new();
    let mut cell = 0u64;
    for &n in &params.sizes {
        for &kind in &params.kinds {
            let mut rng = stream_indexed(params.seed, "scale", cell);
            let build_seed = params.seed ^ (cell << 32);
            let mut net = build_overlay_spaced(kind, n, n + params.joins, build_seed);

            // One graceful join plus the joined node's own stabilization
            // routine each — the per-node repair unit, not a full round.
            for _ in 0..params.joins {
                if let Some(token) = net.join(&mut rng) {
                    net.stabilize_node(token);
                }
            }

            let reqs = random_pairs(net.as_ref(), params.lookups, &mut rng);
            let agg = run_requests_jobs(net.as_mut(), &reqs, params.jobs.max(1));

            rows.push(ScaleRow {
                label: kind.label().to_string(),
                n: net.len(),
                state_bytes: net.state_bytes(),
                bytes_per_node: net.bytes_per_node(),
                agg,
            });
            cell += 1;
        }
    }
    rows
}

/// Registers every row's scale metrics, keyed `{overlay}/n={size}`: the
/// memory gauges and the shared lookup-batch export.
pub fn register_metrics(rows: &[ScaleRow], reg: &mut MetricsRegistry) {
    for row in rows {
        let prefix = format!("{}/n={}", row.label, row.n);
        reg.counter(&format!("{prefix}.nodes")).add(row.n as u64);
        reg.gauge(&format!("{prefix}.state_bytes"))
            .set(row.state_bytes as f64);
        reg.gauge(&format!("{prefix}.bytes_per_node"))
            .set(row.bytes_per_node);
        register_lookup_metrics(reg, &prefix, &row.agg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_params() -> ScaleParams {
        ScaleParams {
            kinds: vec![OverlayKind::Cycloid7, OverlayKind::Chord],
            sizes: vec![128, 512],
            lookups: 200,
            joins: 8,
            jobs: 1,
            seed: 5,
        }
    }

    #[test]
    fn sweep_measures_every_cell() {
        let params = tiny_params();
        let rows = measure(&params);
        assert_eq!(rows.len(), 4);
        // Rows are size-major: two kinds per size.
        for (row, size) in rows.iter().zip([128, 128, 512, 512]) {
            assert_eq!(
                row.n,
                size + params.joins,
                "{}: every join succeeded",
                row.label
            );
            assert!(row.state_bytes > 0, "{}: bytes accounted", row.label);
            assert!(row.bytes_per_node > 0.0);
            assert_eq!(row.agg.path.n, 200);
            assert_eq!(row.agg.failures, 0, "{}: stabilized overlay", row.label);
        }
    }

    #[test]
    fn deterministic_columns_are_jobs_invariant() {
        // Everything the stdout table prints must be identical across
        // worker counts (the CI diff contract).
        let mut p1 = tiny_params();
        p1.sizes = vec![256];
        let mut p4 = p1.clone();
        p4.jobs = 4;
        let (a, b) = (measure(&p1), measure(&p4));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.n, y.n);
            assert_eq!(x.state_bytes, y.state_bytes);
            assert_eq!(x.bytes_per_node, y.bytes_per_node);
            assert_eq!(x.agg, y.agg);
        }
    }

    #[test]
    fn metrics_export_scale_gauges() {
        use dht_core::obs::Metric;
        let mut params = tiny_params();
        params.kinds = vec![OverlayKind::Koorde];
        params.sizes = vec![128];
        let rows = measure(&params);
        let mut reg = MetricsRegistry::new();
        register_metrics(&rows, &mut reg);
        let n = rows[0].n;
        match reg.get(&format!("Koorde/n={n}.bytes_per_node")) {
            Some(Metric::Gauge(g)) => assert!(g.get() > 0.0),
            other => panic!("unexpected: {other:?}"),
        }
        assert!(reg.get(&format!("Koorde/n={n}.lookups")).is_some());
    }
}
