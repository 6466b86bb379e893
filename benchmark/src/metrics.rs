//! Every metric the benchmark prints: its name, unit, direction and bound,
//! and how its value is derived from a run's [`Outcome`].
//!
//! Two kinds, named in each description: **host** metrics time the
//! simulator and are noisy; **sim** metrics describe what the modelled
//! overlay did and repeat exactly for a given `(workload, seed, seconds)`.

use crate::pipeline::{KindOutcome, Outcome};
use crate::plan::{CHURN_SLUGS, SLUGS};
use crate::stats::{geomean, median};
use dht_core::stats::percentile_sorted;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// `host` or `sim`.
    pub domain: &'static str,
    /// Share of the parent's median by which the metric may worsen;
    /// end-to-end metrics only.
    pub bound: Option<f64>,
    pub about: &'static str,
}

fn def(
    name: &str,
    unit: &'static str,
    better: Better,
    domain: &'static str,
    bound: Option<f64>,
    about: &'static str,
) -> Def {
    Def {
        name: name.to_owned(),
        unit,
        better,
        domain,
        bound,
        about,
    }
}

/// The twelve end-to-end metrics. "Geomean over kinds" is over the kinds of
/// the workload that run the phase. Bounds are set from measurement (README,
/// "Repeatability"): about three times the largest quartile spread seen over
/// ten seeds on any workload, and for host metrics at least twice the
/// largest drift seen between two sets of runs of one build (11 %: the
/// reference machine is shared). Sim bounds cover the seed-to-seed spread,
/// because the driver varies the seed.
pub fn end_to_end_defs() -> Vec<Def> {
    use Better::{Higher, Lower};
    vec![
        def("setup_s", "s", Lower, "host", Some(0.25),
            "sum over kinds of the median build wall, plus request generation"),
        def("lookups_per_s", "1/s", Higher, "host", Some(0.25),
            "geomean over kinds of owner-terminated lookups per second at jobs=1, median of 10 batches"),
        def("lookups_par_per_s", "1/s", Higher, "host", Some(0.25),
            "the same batches once more at jobs=min(nproc,4), median of 10 batches"),
        def("member_cycles_per_s", "1/s", Higher, "host", Some(0.20),
            "geomean over kinds of join+stabilize_node+leave cycles per second, median of 10 batches"),
        def("audit_nodes_per_s", "1/s", Higher, "host", Some(0.20),
            "geomean over kinds of checked_nodes over the median wall of 3 Online audit passes"),
        def("sim_s_per_wall_s", "ratio", Higher, "host", Some(0.20),
            "geomean over kinds of simulated seconds per wall second, continuous churn run"),
        def("sim_s_per_wall_s_rounds", "ratio", Higher, "host", Some(0.25),
            "the same for the rounds churn run"),
        def("peak_rss_mib", "MiB", Lower, "host", Some(0.25),
            "VmHWM of the process when the workload ends"),
        def("hops_mean", "hops", Lower, "sim", Some(0.03),
            "geomean over kinds of the mean path length of owner-terminated lookups"),
        def("sim_latency_ms_p99", "ms", Lower, "sim", Some(0.10),
            "geomean over kinds of the p99 virtual-clock lookup latency, continuous churn run"),
        def("bytes_per_node", "B", Lower, "sim", Some(0.01),
            "geomean over kinds of Overlay::bytes_per_node after the membership phase"),
        def("ok_share", "ratio", Higher, "sim", Some(0.005),
            "1 - failed_share: operations that neither failed nor were lost under churn, over attempted"),
    ]
}

const PER_KIND: [(&str, &str, Better, &str, &str); 10] = [
    (
        "lookup_ns_per_hop",
        "ns",
        Better::Lower,
        "host",
        "batch wall over hops in the batch, median of 10 batches",
    ),
    (
        "hops_mean",
        "hops",
        Better::Lower,
        "sim",
        "mean path length of owner-terminated lookups",
    ),
    (
        "build_s",
        "s",
        Better::Lower,
        "host",
        "median wall of build_overlay_spaced",
    ),
    (
        "bytes_per_node",
        "B",
        Better::Lower,
        "sim",
        "Overlay::bytes_per_node after the membership phase",
    ),
    (
        "join_us_p50",
        "us",
        Better::Lower,
        "host",
        "median Overlay::join span",
    ),
    (
        "join_us_p99",
        "us",
        Better::Lower,
        "host",
        "p99 Overlay::join span (nearest rank)",
    ),
    (
        "stabilize_node_us_p50",
        "us",
        Better::Lower,
        "host",
        "median Overlay::stabilize_node span of a fresh joiner",
    ),
    (
        "repair_node_us_p50",
        "us",
        Better::Lower,
        "host",
        "median Overlay::repair_node span on a random live node",
    ),
    (
        "audit_online_ns_per_node",
        "ns",
        Better::Lower,
        "host",
        "median Online audit pass over checked nodes",
    ),
    (
        "audit_full_ns_per_node",
        "ns",
        Better::Lower,
        "host",
        "Full audit of a fresh build over checked nodes (lookup-resident only)",
    ),
];

/// The 104 per-layer metrics. A metric a workload does not exercise (a kind
/// it does not build, a phase a kind skips) reads 0 there.
pub fn per_layer_defs() -> Vec<Def> {
    use Better::{Higher, Lower};
    let mut defs = Vec::new();
    for (slug, _) in SLUGS {
        for (suffix, unit, better, domain, about) in PER_KIND {
            defs.push(def(
                &format!("{slug}.{suffix}"),
                unit,
                better,
                domain,
                None,
                about,
            ));
        }
        if CHURN_SLUGS.contains(&slug) {
            defs.push(def(
                &format!("{slug}.sim_s_per_wall_s"),
                "ratio",
                Higher,
                "host",
                None,
                "simulated seconds per wall second, continuous churn run",
            ));
        }
    }
    defs.extend([
        def(
            "store.get_ns",
            "ns",
            Lower,
            "host",
            None,
            "CompactStore::get of a live token, median of 64 blocks of 1024",
        ),
        def(
            "store.successor_ns",
            "ns",
            Lower,
            "host",
            None,
            "CompactStore::successor_of a hashed key, median of 64 blocks of 1024",
        ),
        def(
            "store.insert_remove_ns",
            "ns",
            Lower,
            "host",
            None,
            "one remove plus one insert of a live token, median of 64 blocks of 1024",
        ),
        def(
            "sim.cursor_step_ns",
            "ns",
            Lower,
            "host",
            None,
            "geomean over kinds of the median LookupCursor::step span",
        ),
        def(
            "sim.apply_effects_ns_per_lookup",
            "ns",
            Lower,
            "host",
            None,
            "geomean over kinds of the mean apply_walk_effects span",
        ),
        def(
            "sim.cursor_overhead_ratio",
            "ratio",
            Lower,
            "host",
            None,
            "geomean over kinds of cursor-path wall over Overlay::lookup wall, same requests",
        ),
        def(
            "sim.executor_speedup",
            "ratio",
            Higher,
            "host",
            None,
            "lookups_par_per_s over lookups_per_s",
        ),
        def(
            "sim.executor_jobs",
            "count",
            Higher,
            "host",
            None,
            "worker-thread cap of the parallel pass, min(nproc,4)",
        ),
        def(
            "clock.schedule_pop_ns_d1k",
            "ns",
            Lower,
            "host",
            None,
            "EventQueue hold model (pop one, schedule one) at depth 1024",
        ),
        def(
            "clock.schedule_pop_ns_d64k",
            "ns",
            Lower,
            "host",
            None,
            "EventQueue hold model at depth 65536",
        ),
        def(
            "net.delay_plan_ratio",
            "ratio",
            Lower,
            "host",
            None,
            "cycloid7 batch wall under the churn delay plan over ideal, median of 5",
        ),
        def(
            "net.retries_per_lookup",
            "count",
            Lower,
            "sim",
            None,
            "message retries per lookup under the delay plan (0 at zero loss)",
        ),
        def(
            "churn.ops_per_s",
            "1/s",
            Higher,
            "host",
            None,
            "(hops + stabilize calls + joins + leaves) over wall, all churn runs",
        ),
        def(
            "churn.audit_wall_share",
            "ratio",
            Lower,
            "host",
            None,
            "wall inside online audit passes over wall of the churn runs",
        ),
        def(
            "churn.stranded",
            "count",
            Lower,
            "sim",
            None,
            "in-flight lookups whose holder departed, all churn runs",
        ),
        def(
            "workload.gen_ns_per_request",
            "ns",
            Lower,
            "host",
            None,
            "random_pairs wall over requests generated",
        ),
        def(
            "factory.build_ns_per_node",
            "ns",
            Lower,
            "host",
            None,
            "geomean over kinds of median build wall over n",
        ),
        def(
            "trace.overhead_ratio",
            "ratio",
            Lower,
            "host",
            None,
            "phase wall with per-call spans over the same phases without",
        ),
    ]);
    defs
}

/// Geometric mean of `f` over the kinds that have it, 0 when none does.
fn geo(out: &Outcome, f: impl Fn(&KindOutcome) -> Option<f64>) -> f64 {
    let terms: Vec<f64> = out.kinds.iter().filter_map(f).collect();
    if terms.is_empty() {
        0.0
    } else {
        geomean(&terms)
    }
}

/// `1 - failed_share`.
pub fn ok_share(out: &Outcome) -> f64 {
    1.0 - (out.failed + out.lost_under_churn) as f64 / out.attempted.max(1) as f64
}

pub fn end_to_end_values(out: &Outcome, peak_rss_mib: f64) -> Vec<(String, f64)> {
    let setup_s: f64 = out
        .kinds
        .iter()
        .map(|k| k.build_s + k.gen_ns as f64 / 1e9)
        .sum();
    let values = [
        ("setup_s", setup_s),
        (
            "lookups_per_s",
            geo(out, |k| Some(k.lookups.as_ref()?.per_s)),
        ),
        (
            "lookups_par_per_s",
            geo(out, |k| Some(k.lookups.as_ref()?.par_per_s)),
        ),
        (
            "member_cycles_per_s",
            geo(out, |k| Some(k.member.as_ref()?.cycles_per_s)),
        ),
        (
            "audit_nodes_per_s",
            geo(out, |k| Some(k.member.as_ref()?.audit_nodes_per_s)),
        ),
        (
            "sim_s_per_wall_s",
            geo(out, |k| Some(k.churn.as_ref()?.sim_s_per_wall_s)),
        ),
        (
            "sim_s_per_wall_s_rounds",
            geo(out, |k| Some(k.churn.as_ref()?.sim_s_per_wall_s_rounds)),
        ),
        ("peak_rss_mib", peak_rss_mib),
        (
            "hops_mean",
            geo(out, |k| Some(k.lookups.as_ref()?.hops_mean)),
        ),
        (
            "sim_latency_ms_p99",
            geo(out, |k| Some(k.churn.as_ref()?.latency_ms_p99)),
        ),
        ("bytes_per_node", geo(out, |k| Some(k.bytes_per_node))),
        ("ok_share", ok_share(out)),
    ];
    values.into_iter().map(|(n, v)| (n.to_owned(), v)).collect()
}

/// Median and nearest-rank p99 of per-call durations, 0 with no samples.
fn p50_p99(samples: &[f64]) -> (f64, f64) {
    if samples.is_empty() {
        return (0.0, 0.0);
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    (median(&sorted), percentile_sorted(&sorted, 0.99))
}

pub fn per_layer_values(out: &Outcome, jobs: usize) -> Vec<(String, f64)> {
    let mut values: Vec<(String, f64)> = Vec::new();
    for (slug, _) in SLUGS {
        let kind = out.kinds.iter().find(|k| k.slug == slug);
        let lookups = kind.and_then(|k| k.lookups.as_ref());
        let member = kind.and_then(|k| k.member.as_ref());
        let (join_p50, join_p99) = p50_p99(member.map_or(&[], |m| &m.join_us));
        let per_kind = [
            lookups.map_or(0.0, |l| l.ns_per_hop),
            lookups.map_or(0.0, |l| l.hops_mean),
            kind.map_or(0.0, |k| k.build_s),
            kind.map_or(0.0, |k| k.bytes_per_node),
            join_p50,
            join_p99,
            p50_p99(member.map_or(&[], |m| &m.stabilize_us)).0,
            p50_p99(member.map_or(&[], |m| &m.repair_us)).0,
            member.map_or(0.0, |m| m.audit_online_ns_per_node),
            kind.and_then(|k| k.audit_full_ns_per_node).unwrap_or(0.0),
        ];
        for ((suffix, ..), value) in PER_KIND.iter().zip(per_kind) {
            values.push((format!("{slug}.{suffix}"), value));
        }
        if CHURN_SLUGS.contains(&slug) {
            let churn = kind.and_then(|k| k.churn.as_ref());
            values.push((
                format!("{slug}.sim_s_per_wall_s"),
                churn.map_or(0.0, |c| c.sim_s_per_wall_s),
            ));
        }
    }

    let store = out.kinds.iter().find_map(|k| k.probes.store.as_ref());
    let net = out.kinds.iter().find_map(|k| k.probes.net.as_ref());
    let per_s = geo(out, |k| Some(k.lookups.as_ref()?.per_s));
    let par_per_s = geo(out, |k| Some(k.lookups.as_ref()?.par_per_s));
    let churn: Vec<_> = out.kinds.iter().filter_map(|k| k.churn.as_ref()).collect();
    let churn_wall_s = churn.iter().map(|c| c.wall_ns as f64 / 1e9).sum::<f64>();
    let requests: usize = out.kinds.iter().map(|k| k.requests).sum();
    let gen_ns: u64 = out.kinds.iter().map(|k| k.gen_ns).sum();

    // Wall of the phases both runs share, with the membership cycles
    // costed once from the batches that recorded a span per call and once
    // from the batches that did not.
    let shared_ns: f64 = out
        .kinds
        .iter()
        .map(|k| {
            k.lookups.as_ref().map_or(0.0, |l| l.wall_ns as f64)
                + k.churn.as_ref().map_or(0.0, |c| c.wall_ns as f64)
        })
        .sum();
    let cycles_ns = |f: fn(&crate::pipeline::MemberStats) -> f64| -> f64 {
        out.kinds
            .iter()
            .filter_map(|k| k.member.as_ref())
            .map(|m| f(m) * m.cycles as f64)
            .sum()
    };
    let overhead = (shared_ns + cycles_ns(|m| m.cycle_ns_spanned))
        / (shared_ns + cycles_ns(|m| m.cycle_ns_plain)).max(1.0);

    let shared = [
        ("store.get_ns", store.map_or(0.0, |s| s.get_ns)),
        ("store.successor_ns", store.map_or(0.0, |s| s.successor_ns)),
        (
            "store.insert_remove_ns",
            store.map_or(0.0, |s| s.insert_remove_ns),
        ),
        (
            "sim.cursor_step_ns",
            geo(out, |k| Some(k.probes.cursor.as_ref()?.step_ns)),
        ),
        (
            "sim.apply_effects_ns_per_lookup",
            geo(out, |k| Some(k.probes.cursor.as_ref()?.apply_ns_per_lookup)),
        ),
        (
            "sim.cursor_overhead_ratio",
            geo(out, |k| Some(k.probes.cursor.as_ref()?.overhead_ratio)),
        ),
        (
            "sim.executor_speedup",
            if per_s > 0.0 { par_per_s / per_s } else { 0.0 },
        ),
        ("sim.executor_jobs", jobs as f64),
        (
            "clock.schedule_pop_ns_d1k",
            out.clock.as_ref().map_or(0.0, |c| c.schedule_pop_ns_d1k),
        ),
        (
            "clock.schedule_pop_ns_d64k",
            out.clock.as_ref().map_or(0.0, |c| c.schedule_pop_ns_d64k),
        ),
        (
            "net.delay_plan_ratio",
            net.map_or(0.0, |p| p.delay_plan_ratio),
        ),
        (
            "net.retries_per_lookup",
            net.map_or(0.0, |p| p.retries_per_lookup),
        ),
        (
            "churn.ops_per_s",
            churn.iter().map(|c| c.ops as f64).sum::<f64>() / churn_wall_s.max(1e-9),
        ),
        (
            "churn.audit_wall_share",
            churn.iter().map(|c| c.audit_us as f64 / 1e6).sum::<f64>() / churn_wall_s.max(1e-9),
        ),
        (
            "churn.stranded",
            churn.iter().map(|c| c.stranded as f64).sum(),
        ),
        (
            "workload.gen_ns_per_request",
            gen_ns as f64 / requests.max(1) as f64,
        ),
        (
            "factory.build_ns_per_node",
            geo(out, |k| Some(k.build_s * 1e9 / k.nodes as f64)),
        ),
        ("trace.overhead_ratio", overhead),
    ];
    values.extend(shared.into_iter().map(|(n, v)| (n.to_owned(), v)));
    values
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn twelve_end_to_end_and_104_per_layer_names_all_distinct() {
        let e2e = end_to_end_defs();
        let layers = per_layer_defs();
        assert_eq!(e2e.len(), 12);
        assert_eq!(layers.len(), 104);
        let mut names: Vec<&str> = e2e.iter().chain(&layers).map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 116);
        assert!(e2e
            .iter()
            .all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(layers.iter().all(|d| d.bound.is_none()));
    }

    #[test]
    fn values_come_in_definition_order() {
        let out = Outcome::default();
        let e2e: Vec<String> = end_to_end_values(&out, 1.0)
            .into_iter()
            .map(|v| v.0)
            .collect();
        let want: Vec<String> = end_to_end_defs().into_iter().map(|d| d.name).collect();
        assert_eq!(e2e, want);
        let layers: Vec<String> = per_layer_values(&out, 2).into_iter().map(|v| v.0).collect();
        let want: Vec<String> = per_layer_defs().into_iter().map(|d| d.name).collect();
        assert_eq!(layers, want);
    }

    /// `BENCHMARK.json` is written by hand; this keeps it in step.
    #[test]
    fn benchmark_json_lists_every_metric_with_its_unit_direction_and_bound() {
        let json = include_str!("../../BENCHMARK.json");
        for d in end_to_end_defs() {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                d.better.label(),
                d.bound.unwrap()
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for d in per_layer_defs() {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                d.better.label()
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for name in crate::plan::WORKLOAD_NAMES {
            let w = crate::plan::workload(name).unwrap();
            let why: String = w.why.split_whitespace().collect::<Vec<_>>().join(" ");
            let entry = format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
    }
}
