//! Figure 11 and Table 4: massive simultaneous node departures.
//!
//! §4.3: "we simulated a network of 2048 nodes. Once the network becomes
//! stable, each node is made to fail with probability p ranging from 0.1
//! to 0.5. After a failure occurs, we performed 10,000 lookups with random
//! sources and destinations. We recorded the number of timeouts occurred
//! in each lookup, the lookup path length, and whether the lookup found
//! the key's correct storing node." Departures are graceful and no
//! stabilization runs.

use dht_core::obs::MetricsRegistry;
use dht_core::rng::{stream, stream_indexed};
use dht_core::workload::random_pairs;
use rand::Rng;

use crate::experiments::{grid, run_cells, run_requests_jobs, LookupAggregate};
use crate::factory::{build_overlay, OverlayKind};

/// Parameters of the mass-departure experiment.
#[derive(Debug, Clone)]
pub struct MassDepartureParams {
    /// Overlays to measure.
    pub kinds: Vec<OverlayKind>,
    /// Starting network size (2048 in the paper).
    pub nodes: usize,
    /// Departure probabilities to sweep (0.1..=0.5 in the paper).
    pub probabilities: Vec<f64>,
    /// Lookups after the departures (10,000 in the paper).
    pub lookups: usize,
    /// Master seed.
    pub seed: u64,
    /// Worker-thread cap for each cell's lookup batch (results are
    /// bit-identical for every value; only wall clock varies).
    pub jobs: usize,
}

impl MassDepartureParams {
    /// Paper-scale parameters.
    #[must_use]
    pub fn paper(seed: u64) -> Self {
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
                OverlayKind::Viceroy,
                OverlayKind::Koorde,
            ],
            nodes: 512,
            probabilities: vec![0.2, 0.5],
            lookups: 600,
            seed,
            jobs: 1,
        }
    }
}

/// One row: one overlay at one departure probability.
#[derive(Debug, Clone)]
pub struct MassDepartureRow {
    /// Departure probability.
    pub p: f64,
    /// Nodes remaining after the departures.
    pub survivors: usize,
    /// Aggregated lookup statistics (mean path = Fig. 11; timeout summary
    /// = Table 4; failures = the Koorde failure counts of §4.3).
    pub agg: LookupAggregate,
}

/// Runs the sweep; rows ordered by probability then kind.
#[must_use]
pub fn measure(params: &MassDepartureParams) -> Vec<MassDepartureRow> {
    let cells = grid(&params.probabilities, &params.kinds);
    run_cells(&cells, |i, &(kind, p)| {
        let mut net = build_overlay(kind, params.nodes, params.seed ^ (i as u64) << 32);
        // Same departure pattern per probability across kinds:
        // the decision stream depends on p (via the row index
        // within the probability group) but not on the overlay.
        let mut depart_rng = stream(params.seed, &format!("depart-{p}"));
        for token in net.node_tokens() {
            if depart_rng.gen_bool(p) {
                net.leave(token);
            }
        }
        let survivors = net.len();
        let mut rng = stream_indexed(params.seed, "mass-lookups", i as u64);
        let reqs = random_pairs(net.as_ref(), params.lookups, &mut rng);
        let agg = run_requests_jobs(net.as_mut(), &reqs, params.jobs);
        MassDepartureRow { p, survivors, agg }
    })
}

/// Registers every row's lookup metrics plus a survivor-count gauge,
/// keyed `{overlay}/p={p}`.
pub fn register_metrics(rows: &[MassDepartureRow], reg: &mut MetricsRegistry) {
    for row in rows {
        let prefix = format!("{}/p={}", row.agg.label, row.p);
        super::register_lookup_metrics(reg, &prefix, &row.agg);
        reg.gauge(&format!("{prefix}.survivors"))
            .set(row.survivors as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn departures_shrink_the_network() {
        let rows = measure(&MassDepartureParams::quick(3));
        for row in &rows {
            let expected = 512.0 * (1.0 - row.p);
            assert!(
                (row.survivors as f64 - expected).abs() < 60.0,
                "survivors {} vs expected {expected}",
                row.survivors
            );
        }
    }

    #[test]
    fn cycloid_never_fails_viceroy_never_times_out() {
        // §4.3's two headline claims.
        let rows = measure(&MassDepartureParams::quick(5));
        for row in &rows {
            match row.agg.label.as_str() {
                "Cycloid(7)" => {
                    assert_eq!(row.agg.failures, 0, "Cycloid must resolve all lookups");
                    if row.p >= 0.2 {
                        assert!(
                            row.agg.timeouts.mean > 0.0,
                            "Cycloid must observe timeouts at p={}",
                            row.p
                        );
                    }
                }
                "Viceroy" => {
                    assert_eq!(row.agg.timeouts.max, 0.0, "Viceroy never times out");
                    assert_eq!(row.agg.failures, 0);
                }
                _ => {}
            }
        }
    }

    #[test]
    fn koorde_fails_under_heavy_departures() {
        let rows = measure(&MassDepartureParams::quick(7));
        let heavy = rows
            .iter()
            .find(|r| r.agg.label == "Koorde" && r.p == 0.5)
            .unwrap();
        assert!(
            heavy.agg.failures > 0,
            "Koorde at p=0.5 must lose some lookups"
        );
    }
}
