//! Extension experiment: maintenance burden, the fifth of the primary DHT
//! measures the paper lists (§4: "degree, hop count, load balance, fault
//! tolerance, and **maintenance overhead**") but never quantifies.
//!
//! We measure each node's **in-degree**: how many other nodes hold a
//! pointer to it. When the node departs, exactly those pointers dangle —
//! so the in-degree distribution is the repair bill a departure presents,
//! whether it is paid eagerly (Viceroy notifies everyone: §4.3's "a
//! leaving node would induce O(log n) hops and require O(1) nodes to
//! change their states... a large amount of overhead") or lazily
//! (Cycloid/Koorde/Chord leave it to stabilization and absorb timeouts).

use chord::{ChordConfig, ChordNetwork};
use cycloid::{CycloidConfig, CycloidNetwork};
use dht_core::obs::MetricsRegistry;
use dht_core::sim::SimOverlay;
use dht_core::stats::Summary;
use koorde::{KoordeConfig, KoordeNetwork};
use pastry::{PastryConfig, PastryNetwork};
use std::collections::HashMap;
use viceroy::{ViceroyConfig, ViceroyNetwork};

use crate::factory::{cycloid_dim_for, ring_bits_for};

/// Parameters of the maintenance experiment.
#[derive(Debug, Clone)]
pub struct MaintenanceParams {
    /// Network size.
    pub nodes: usize,
    /// Master seed.
    pub seed: u64,
}

impl MaintenanceParams {
    /// Default scale.
    #[must_use]
    pub fn paper_scale(seed: u64) -> Self {
        Self { nodes: 2048, seed }
    }

    /// Reduced scale for smoke tests.
    #[must_use]
    pub fn quick(seed: u64) -> Self {
        Self { nodes: 256, seed }
    }
}

/// One row: in-degree statistics for one overlay.
#[derive(Debug, Clone)]
pub struct MaintenanceRow {
    /// Overlay display name.
    pub label: String,
    /// Network size measured.
    pub n: usize,
    /// Out-degree distribution (the routing-state size per node).
    pub out_degree: Summary,
    /// In-degree distribution (pointers dangling if the node departs).
    pub in_degree: Summary,
}

fn summarize(label: &str, n: usize, edges: &[(u64, u64)]) -> MaintenanceRow {
    let mut out: HashMap<u64, u64> = HashMap::new();
    let mut inc: HashMap<u64, u64> = HashMap::new();
    for &(from, to) in edges {
        if from != to {
            *out.entry(from).or_default() += 1;
            *inc.entry(to).or_default() += 1;
        }
    }
    let collect = |m: &HashMap<u64, u64>, nodes: &[u64]| -> Vec<u64> {
        nodes
            .iter()
            .map(|t| m.get(t).copied().unwrap_or(0))
            .collect()
    };
    let nodes: Vec<u64> = {
        let mut all: Vec<u64> = edges.iter().flat_map(|&(a, b)| [a, b]).collect();
        all.sort_unstable();
        all.dedup();
        all
    };
    MaintenanceRow {
        label: label.to_string(),
        n,
        out_degree: Summary::of_counts(&collect(&out, &nodes)),
        in_degree: Summary::of_counts(&collect(&inc, &nodes)),
    }
}

/// Measures in/out-degree distributions for every overlay at the given
/// size. Edges are deduplicated per (holder, target) pair.
#[must_use]
pub fn measure(params: &MaintenanceParams) -> Vec<MaintenanceRow> {
    let n = params.nodes;
    let seed = params.seed;
    let mut rows = Vec::new();

    // Cycloid(7): each node's known contacts.
    {
        let net =
            CycloidNetwork::with_nodes(CycloidConfig::seven_entry(cycloid_dim_for(n)), n, seed);
        let dim = net.dim();
        let mut edges = Vec::new();
        for id in net.ids() {
            for c in net.node(id).unwrap().known_contacts(id) {
                edges.push((id.linear(dim), c.linear(dim)));
            }
        }
        rows.push(summarize("Cycloid(7)", n, &edges));
    }

    // Viceroy: the seven lazily resolved links per node.
    {
        let net = ViceroyNetwork::with_nodes(ViceroyConfig::new(), n, seed);
        let mut edges = Vec::new();
        for id in net.membership().store.token_iter() {
            let links = [
                net.succ_link(id),
                net.pred_link(id),
                net.level_next_link(id),
                net.level_prev_link(id),
                net.up_link(id),
                net.down_left_link(id),
                net.down_right_link(id),
            ];
            let mut seen = Vec::new();
            for l in links.into_iter().flatten() {
                if !seen.contains(&l) {
                    seen.push(l);
                    edges.push((id, l));
                }
            }
        }
        rows.push(summarize("Viceroy", n, &edges));
    }

    // Koorde: successors + de Bruijn pointer + backups.
    {
        let net = KoordeNetwork::with_nodes(KoordeConfig::new(ring_bits_for(n)), n, seed);
        let mut edges = Vec::new();
        for (id, node) in net.membership().store.iter() {
            let mut seen = Vec::new();
            for c in node
                .successors
                .iter()
                .copied()
                .chain([node.debruijn, node.predecessor])
                .chain(node.debruijn_preds.iter().copied())
            {
                if !seen.contains(&c) {
                    seen.push(c);
                    edges.push((id, c));
                }
            }
        }
        rows.push(summarize("Koorde", n, &edges));
    }

    // Chord: fingers + successors + predecessor.
    {
        let net = ChordNetwork::with_nodes(ChordConfig::new(ring_bits_for(n)), n, seed);
        let mut edges = Vec::new();
        for (id, node) in net.membership().store.iter() {
            let mut seen = Vec::new();
            for c in node
                .fingers
                .iter()
                .chain(&node.successors)
                .copied()
                .chain([node.predecessor])
            {
                if !seen.contains(&c) {
                    seen.push(c);
                    edges.push((id, c));
                }
            }
        }
        rows.push(summarize("Chord", n, &edges));
    }

    // Pastry: routing table + leaf set.
    {
        let bits = ring_bits_for(n).div_ceil(2) * 2;
        let net = PastryNetwork::with_nodes(PastryConfig::new(bits), n, seed);
        let mut edges = Vec::new();
        for (id, node) in net.membership().store.iter() {
            let mut seen = Vec::new();
            for c in node.table.iter().flatten().copied().chain(node.leafs()) {
                if !seen.contains(&c) {
                    seen.push(c);
                    edges.push((id, c));
                }
            }
        }
        rows.push(summarize("Pastry", n, &edges));
    }

    rows
}

/// Registers every row's in/out-degree distributions, keyed
/// `{overlay}/n={n}.{in_degree|out_degree}`.
pub fn register_metrics(rows: &[MaintenanceRow], reg: &mut MetricsRegistry) {
    for row in rows {
        let prefix = format!("{}/n={}", row.label, row.n);
        crate::experiments::register_summary_gauges(
            reg,
            &format!("{prefix}.out_degree"),
            &row.out_degree,
        );
        crate::experiments::register_summary_gauges(
            reg,
            &format!("{prefix}.in_degree"),
            &row.in_degree,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_degree_dhts_have_constant_out_degree() {
        let rows = measure(&MaintenanceParams::quick(3));
        let by = |l: &str| rows.iter().find(|r| r.label == l).unwrap().clone();
        assert!(by("Cycloid(7)").out_degree.max <= 7.0);
        assert!(by("Koorde").out_degree.max <= 8.0); // 7 + predecessor
        assert!(by("Viceroy").out_degree.max <= 7.0);
        // Chord/Pastry grow with n.
        assert!(by("Chord").out_degree.mean > 8.0);
        assert!(by("Pastry").out_degree.mean > 8.0);
    }

    #[test]
    fn in_degree_mean_equals_out_degree_mean() {
        // Every edge has one holder and one target, so the means agree.
        let rows = measure(&MaintenanceParams::quick(5));
        for r in &rows {
            assert!(
                (r.in_degree.mean - r.out_degree.mean).abs() < 1e-9,
                "{}: {} vs {}",
                r.label,
                r.in_degree.mean,
                r.out_degree.mean
            );
        }
    }

    #[test]
    fn in_degree_tails_tell_the_maintenance_story() {
        // The repair bill a departure presents: the constant-degree DHTs
        // keep even the 99th-percentile fan-in small (Cycloid's tail is
        // its cycle primaries, referenced by the adjacent cycles' outside
        // leaf sets — still O(d)), while Pastry's numerically-closest
        // entry selection concentrates references heavily.
        let rows = measure(&MaintenanceParams::quick(7));
        let by = |l: &str| rows.iter().find(|r| r.label == l).unwrap().clone();
        assert!(by("Cycloid(7)").in_degree.p99 <= 24.0);
        assert!(
            by("Koorde").in_degree.p99 <= 10.0,
            "dense de Bruijn fan-in is flat"
        );
        assert!(
            by("Pastry").in_degree.p99 > 2.0 * by("Cycloid(7)").in_degree.p99,
            "Pastry's fan-in tail dwarfs the constant-degree DHTs'"
        );
    }
}
