//! The four workloads, as data.
//!
//! Every workload runs the same pipeline (build, lookups, membership
//! cycles, repair, audit, churn) over its own overlay kinds at its own
//! network size; what differs is where the operations go. A workload's
//! *primary* phase gets the counts the issue fixed for it, the other phases
//! get about a tenth of that, so every end-to-end metric is measured at
//! every network size without blurring what each workload is for.
//!
//! Counts are per 20 s of `--seconds`: the run scales every one of them by
//! `seconds / 20` (see [`Workload::scaled`]), so the inputs are a pure
//! function of `(seed, seconds)` and the simulated results repeat exactly.

use dht_sim::factory::OverlayKind;

/// Seconds of `--seconds` the counts below are written for.
pub const COUNTS_PER_SECONDS: f64 = 20.0;

/// Batches per measured phase; the first is a warm-up and is discarded.
pub const BATCHES: usize = 11;

/// Network size of `--smoke`. Not 256: a power of two fills the Chord and
/// Koorde rings completely and the first join would be refused.
pub const SMOKE_NODES: usize = 250;

/// The eight factory kinds, in the order tables print them.
pub const SLUGS: [(&str, OverlayKind); 8] = [
    ("cycloid7", OverlayKind::Cycloid7),
    ("cycloid11", OverlayKind::Cycloid11),
    ("viceroy", OverlayKind::Viceroy),
    ("koorde", OverlayKind::Koorde),
    ("koorde-bf", OverlayKind::KoordeBestFit),
    ("chord", OverlayKind::Chord),
    ("pastry", OverlayKind::Pastry),
    ("can", OverlayKind::Can),
];

/// Kinds that have a `K.sim_s_per_wall_s` per-layer metric: the churn
/// phase never runs the other two (CAN's online audit alone would be 90 %
/// of a churn run; best-fit Koorde shares Koorde's maintenance code).
pub const CHURN_SLUGS: [&str; 6] = [
    "cycloid7",
    "cycloid11",
    "viceroy",
    "koorde",
    "chord",
    "pastry",
];

/// Lookup arrivals per simulated second per 10^4 nodes in a churn run.
/// Rates scale with `n` so that a run costs about 17 stabilize calls per
/// lookup whatever the network size.
pub const CHURN_LOOKUPS_PER_S_PER_10K: f64 = 20.0;

/// Operation counts of one kind in one workload. A zero skips the phase
/// for that kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindPlan {
    pub slug: &'static str,
    /// Uniform random-pair lookups, issued in [`BATCHES`] equal batches.
    pub lookups: usize,
    /// join -> stabilize_node -> leave cycles, in [`BATCHES`] batches.
    pub cycles: usize,
    /// Measured lookups of each of the two churn runs.
    pub churn_lookups: usize,
}

const fn k(slug: &'static str, lookups: usize, cycles: usize, churn_lookups: usize) -> KindPlan {
    KindPlan {
        slug,
        lookups,
        cycles,
        churn_lookups,
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    /// Nodes per network.
    pub n: usize,
    /// Identifier-space hint handed to `build_overlay_spaced`.
    pub id_space: usize,
    /// Builds per kind. Set-up time is the median over them; with three,
    /// the two churn runs each get a fresh, identically seeded network.
    pub builds: usize,
    /// `repair_node` calls on random live nodes after the cycles.
    pub repairs: usize,
    /// Warm-up lookups of each churn run.
    pub churn_warmup: usize,
    /// Joins (= leaves) per simulated second per 10^4 nodes in the churn
    /// runs; lookups arrive at [`CHURN_LOOKUPS_PER_S_PER_10K`].
    pub churn_rate_per_10k: f64,
    /// Traced run audits every fresh build in `Full` scope (CAN: ~8 s).
    pub full_audit: bool,
    pub kinds: Vec<KindPlan>,
}

pub const WORKLOAD_NAMES: [&str; 4] = [
    "lookup-resident",
    "lookup-1m",
    "membership-100k",
    "churn-10k",
];

/// The workload named `name` at full size.
pub fn workload(name: &str) -> Option<Workload> {
    Some(match name {
        "lookup-resident" => Workload {
            name: "lookup-resident",
            why: "n=1e4, 8 kinds: routing state fits in cache, so next_hop compute and walk/effects \
                  bookkeeping dominate; memory-latency tricks should show no change here",
            n: 10_000,
            id_space: 10_000,
            builds: 3,
            repairs: 2_000,
            churn_warmup: 1_000,
            // No joins or leaves: a secondary churn phase is short, and with
            // stale links the p99 of its few thousand lookups hangs on
            // whether a dozen of them met a departed node. At 0.4/s one seed
            // in thirty gives one kind a 15 s tail (Pastry, seed 15), which
            // moves the geomean by 80 %. `churn-10k` is the workload with
            // joins and leaves, and has four times the samples.
            churn_rate_per_10k: 0.0,
            full_audit: true,
            kinds: vec![
                k("cycloid7", 220_000, 2_200, 11_000),
                k("cycloid11", 165_000, 2_200, 11_000),
                k("viceroy", 44_000, 22_000, 11_000),
                k("koorde", 275_000, 11_000, 11_000),
                k("koorde-bf", 275_000, 11_000, 0),
                k("chord", 385_000, 11_000, 11_000),
                k("pastry", 550_000, 11_000, 11_000),
                k("can", 4_400, 11_000, 0),
            ],
        },
        "lookup-1m" => Workload {
            name: "lookup-1m",
            why: "n=1e6, 3 kinds, 170-480 MiB each: store probes and link loads miss cache; where \
                  prefetch, interleaved cursors and the parallel executor can show; setup, RSS, bytes/node",
            n: 1_000_000,
            id_space: 1_000_000,
            builds: 1,
            repairs: 2_000,
            churn_warmup: 1_000,
            // A churn run this size can afford a few simulated seconds,
            // less than one stabilization period: with joins and leaves,
            // stale links would only pile up and the latency tail would
            // measure how far the run got. So none: the run times the event
            // kernel, the stabilize timers and the suspended cursors.
            churn_rate_per_10k: 0.0,
            full_audit: false,
            // Viceroy is left out because about half its lookups exhaust
            // the hop budget at n >= 1e5 (a known bug, not a speed);
            // Pastry and CAN for build time.
            kinds: vec![
                k("cycloid7", 110_000, 1_100, 11_000),
                k("koorde", 110_000, 2_200, 11_000),
                k("chord", 110_000, 2_200, 11_000),
            ],
        },
        "membership-100k" => Workload {
            name: "membership-100k",
            why: "n=1e5, 8 kinds, join+stabilize+leave cycles, repair, online audit: store and overlay \
                  layers used as writes; a lookup gain that costs joins or maintenance shows only here",
            n: 100_000,
            id_space: 112_500,
            builds: 1,
            repairs: 20_000,
            churn_warmup: 1_000,
            // As in `lookup-1m`.
            churn_rate_per_10k: 0.0,
            full_audit: false,
            // No Viceroy lookups or churn at this size: see `lookup-1m`.
            kinds: vec![
                k("cycloid7", 22_000, 11_000, 22_000),
                k("cycloid11", 22_000, 11_000, 22_000),
                k("viceroy", 0, 220_000, 0),
                k("koorde", 44_000, 110_000, 22_000),
                k("koorde-bf", 44_000, 110_000, 0),
                k("chord", 44_000, 110_000, 22_000),
                k("pastry", 44_000, 55_000, 22_000),
                k("can", 1_100, 55_000, 0),
            ],
        },
        "churn-10k" => Workload {
            name: "churn-10k",
            why: "n=1e4, 6 kinds, run_churn in both time models with audits: event queue, suspended \
                  cursors, ~17 stabilize calls per lookup; lookups are a minority of the work",
            n: 10_000,
            id_space: 12_500,
            builds: 3,
            repairs: 2_000,
            churn_warmup: 1_000,
            churn_rate_per_10k: 0.4,
            full_audit: false,
            kinds: vec![
                k("cycloid7", 22_000, 2_200, 40_000),
                k("cycloid11", 22_000, 2_200, 40_000),
                k("viceroy", 11_000, 11_000, 40_000),
                k("koorde", 22_000, 11_000, 40_000),
                k("chord", 22_000, 11_000, 40_000),
                k("pastry", 22_000, 11_000, 40_000),
            ],
        },
        _ => return None,
    })
}

/// `count * factor`, rounded to a whole number of batches and never below
/// one operation per batch (zero stays zero).
fn scale_count(count: usize, factor: f64) -> usize {
    if count == 0 {
        return 0;
    }
    let batches = (count as f64 * factor / BATCHES as f64).round() as usize;
    batches.max(1) * BATCHES
}

impl Workload {
    /// This workload with every count multiplied by `factor`.
    pub fn scaled(mut self, factor: f64) -> Self {
        for kind in &mut self.kinds {
            kind.lookups = scale_count(kind.lookups, factor);
            kind.cycles = scale_count(kind.cycles, factor);
            kind.churn_lookups = scale_count(kind.churn_lookups, factor);
        }
        self.repairs = scale_count(self.repairs, factor);
        self.churn_warmup = ((self.churn_warmup as f64 * factor) as usize).max(10);
        self
    }

    /// The `--smoke` variant: [`SMOKE_NODES`] nodes and a hundredth of the counts.
    pub fn smoke(mut self) -> Self {
        self.id_space = self.id_space * SMOKE_NODES / self.n;
        self.n = SMOKE_NODES;
        self.scaled(0.01)
    }
}

/// The factory kind behind a slug.
pub fn overlay_kind(slug: &str) -> OverlayKind {
    SLUGS
        .iter()
        .find(|(s, _)| *s == slug)
        .map(|(_, kind)| *kind)
        .unwrap_or_else(|| panic!("unknown kind slug {slug}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_resolves_and_uses_known_kinds() {
        for name in WORKLOAD_NAMES {
            let w = workload(name).unwrap();
            assert_eq!(w.name, name);
            assert!(w.why.len() <= 200, "{name}: why is {} chars", w.why.len());
            assert!(!w.why.contains('\n'));
            for kind in &w.kinds {
                let _ = overlay_kind(kind.slug);
                if kind.churn_lookups > 0 {
                    assert!(CHURN_SLUGS.contains(&kind.slug), "{name}/{}", kind.slug);
                }
            }
            // Churn with joins and leaves needs networks of its own: the
            // membership phase checks that the population is back at n.
            if w.churn_rate_per_10k > 0.0 {
                assert_eq!(w.builds, 3, "{name}");
            }
            // The shared-layer probes need these three in every workload.
            for needed in ["cycloid7", "koorde", "chord"] {
                assert!(w.kinds.iter().any(|k| k.slug == needed), "{name}");
            }
        }
        assert!(workload("nope").is_none());
    }

    #[test]
    fn scaling_keeps_whole_batches_and_zeroes() {
        assert_eq!(scale_count(0, 0.5), 0);
        assert_eq!(scale_count(220_000, 0.5), 110_000);
        assert_eq!(scale_count(4_400, 0.5), 2_200);
        assert_eq!(scale_count(4_400, 0.01), 44);
        assert_eq!(scale_count(1_100, 0.01), 11);
        assert_eq!(scale_count(100, 0.01), 11);
        let w = workload("membership-100k").unwrap().smoke();
        assert_eq!(w.n, SMOKE_NODES);
        assert_eq!(w.id_space, 281);
        assert!(w.kinds.iter().all(|k| k.cycles % BATCHES == 0));
        assert_eq!(w.kinds[2].lookups, 0);
    }
}
