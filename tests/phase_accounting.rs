//! Observability-equivalence pins for per-phase cost accounting and the
//! virtual-time sampler: switching the meters on must change *nothing*
//! about what the simulation computes. For every overlay kind and
//! worker count, a fixed-seed churn run with telemetry and the sampler
//! enabled must produce bit-identical lookup measurements, query-load
//! tables and audit reports to the same run with them disabled. The
//! golden workloads stay byte-identical while billed
//! (`accounted_golden_traces_stay_byte_identical`).

mod common;

use dht_core::clock::SECOND;
use dht_core::obs::{Event, Phase, PhaseCosts, Record, Telemetry, TimeoutKind};
use dht_core::rng::{stream, stream_indexed};
use dht_sim::churn::{run_churn, ChurnOutcome, ChurnParams};
use dht_sim::{build_overlay, OverlayKind, ALL_KINDS};
use proptest::prelude::*;
use rand::Rng;

const JOBS: [usize; 2] = [1, 4];

struct ChurnResult {
    outcome: ChurnOutcome,
    loads: Vec<u64>,
    record: Option<Record>,
}

/// One fixed-seed churn run; `observed` switches telemetry and the
/// sampler on. Everything else — build, workload stream — is identical
/// between the two arms.
fn run(kind: OverlayKind, seed: u64, nodes: usize, jobs: usize, observed: bool) -> ChurnResult {
    let mut net = build_overlay(kind, nodes, seed);
    let telemetry = if observed {
        Telemetry::enabled()
    } else {
        Telemetry::disabled()
    };
    let params = ChurnParams {
        lookups: 250,
        warmup_lookups: 20,
        audit: true,
        jobs,
        telemetry: telemetry.clone(),
        sample_every_us: if observed { 20 * SECOND } else { 0 },
        ..ChurnParams::default()
    };
    let mut rng = stream_indexed(seed, "phase-accounting", 0);
    let outcome = run_churn(net.as_mut(), params, &mut rng);
    ChurnResult {
        outcome,
        loads: net.query_loads(),
        record: telemetry.read(Record::clone),
    }
}

/// Every measurement of the run except wall clock (`audit_us`) and the
/// telemetry the observed arm deliberately adds (`samples`).
fn fingerprint(o: &ChurnOutcome) -> String {
    format!(
        "paths={:?} timeouts={:?} failures={} joins={} leaves={} final={} retries={:?} \
         latency={:?} audit={:?} peak={} stab_calls={} stab_rounds={} sim_end={} repairs={}",
        o.path_lens,
        o.timeouts,
        o.failures,
        o.joins,
        o.leaves,
        o.final_size,
        o.retries,
        o.latency_us,
        o.audit,
        o.peak_size,
        o.stabilize_calls,
        o.stabilize_rounds,
        o.sim_end_us,
        o.repair_entries,
    )
}

fn assert_equivalent(kind: OverlayKind, seed: u64, nodes: usize, jobs: usize) {
    let base = run(kind, seed, nodes, jobs, false);
    let observed = run(kind, seed, nodes, jobs, true);
    let ctx = format!("{kind:?} seed={seed} jobs={jobs}");
    assert_eq!(
        fingerprint(&base.outcome),
        fingerprint(&observed.outcome),
        "{ctx}: outcome diverged"
    );
    assert_eq!(base.loads, observed.loads, "{ctx}: query loads diverged");
    // The disabled arm records nothing; the observed arm must have
    // actually recorded the run it didn't perturb.
    assert!(base.record.is_none(), "{ctx}: disabled telemetry read");
    assert!(
        base.outcome.samples.is_empty(),
        "{ctx}: unsampled telemetry"
    );
    let record = observed.record.expect("enabled telemetry reads");
    let starts = record
        .events
        .iter()
        .filter(|e| matches!(e, Event::LookupStart { .. }))
        .count() as u64;
    assert_eq!(starts, record.lookups, "{ctx}: one LookupStart per lookup");
    assert_eq!(
        record.lookups,
        record.phases.get(Phase::Lookup).calls,
        "{ctx}: one Lookup bill per recorded lookup"
    );
    let table = record.phases;
    for phase in [
        Phase::Lookup,
        Phase::Stabilize,
        Phase::Join,
        Phase::Leave,
        Phase::Audit,
    ] {
        assert!(
            table.get(phase).msgs > 0,
            "{ctx}: no {} messages billed",
            phase.label()
        );
    }
    assert!(
        !observed.outcome.samples.is_empty(),
        "{ctx}: sampler produced no telemetry"
    );
    let mut prev = 0u64;
    for s in &observed.outcome.samples {
        assert!(s.t_us >= prev, "{ctx}: sample timestamps not monotone");
        prev = s.t_us;
    }
}

#[test]
fn observability_changes_nothing_for_every_kind_and_jobs() {
    for kind in ALL_KINDS {
        for &jobs in &JOBS {
            assert_equivalent(kind, 42, 96, jobs);
        }
    }
}

/// Billing under the golden workloads: with an enabled handle every
/// checked-in golden — plain, lossy and stale — is reproduced byte for
/// byte, one `Lookup` bill is charged per lookup, and the stale
/// workload bills the repairs it makes on use.
#[test]
fn accounted_golden_traces_stay_byte_identical() {
    let lossy = [
        (OverlayKind::Cycloid7, "cycloid7_lossy"),
        (OverlayKind::Chord, "chord_lossy"),
    ];
    let plain = common::GOLDEN_KINDS
        .iter()
        .map(|&(kind, stem)| (kind, stem, None));
    let lossy = lossy
        .iter()
        .map(|&(kind, stem)| (kind, stem, Some(common::lossy_conditions())));
    for (kind, stem, conditions) in plain.chain(lossy) {
        let telemetry = Telemetry::enabled();
        let accounted = common::render_traces_with(kind, conditions, telemetry.clone());
        assert_eq!(
            golden(stem),
            accounted,
            "{stem}: accounting perturbed the golden"
        );
        let calls = telemetry.read(|r| r.phases.get(Phase::Lookup).calls);
        assert_eq!(calls, Some(common::LOOKUPS as u64), "{stem}: Lookup bills");
    }
    let telemetry = Telemetry::enabled();
    assert_eq!(
        golden("stale"),
        common::render_stale(telemetry.clone()),
        "stale: accounting perturbed the golden"
    );
    let repaired = telemetry.read(|r| r.phases.get(Phase::Repair).repair_entries);
    assert!(repaired > Some(0), "the stale workload repairs on use");
}

fn golden(stem: &str) -> String {
    std::fs::read_to_string(common::golden_path(stem))
        .unwrap_or_else(|e| panic!("missing golden {stem}: {e}"))
}

/// Repair-on-use billing: a lookup that skips stale entries bills
/// `Repair` one call per hop that skipped any, and one message and one
/// repaired entry per entry evicted. The evicted entries are read off
/// the event stream: the stale `Timeout`s a lookup records before one
/// of its `Hop`s are the dead candidates that hop skipped, while stale
/// timeouts after its last hop found no live candidate and evict
/// nothing.
#[test]
fn stale_lookups_bill_repair_per_evicted_entry() {
    for kind in ALL_KINDS {
        let mut net = build_overlay(kind, 256, 5);
        let mut rng = stream(5, "repair-billing");
        for token in net.node_tokens() {
            if rng.gen_bool(0.3) {
                net.fail(token);
            }
        }
        let telemetry = Telemetry::enabled();
        net.set_telemetry(telemetry.clone());
        let live = net.node_tokens();
        for i in 0..64 {
            net.lookup(live[i % live.len()], rng.gen());
        }
        let record = telemetry.read(Record::clone).unwrap();
        let mut want = PhaseCosts::default();
        let mut skipped = 0;
        for event in &record.events {
            match event {
                Event::Timeout {
                    kind: TimeoutKind::Stale,
                    ..
                } => skipped += 1,
                Event::Hop { .. } if skipped > 0 => {
                    want.calls += 1;
                    want.msgs += skipped;
                    want.repair_entries += skipped;
                    skipped = 0;
                }
                Event::Hop { .. } | Event::LookupStart { .. } => skipped = 0,
                _ => {}
            }
        }
        assert_eq!(*record.phases.get(Phase::Repair), want, "{kind:?}");
        if kind == OverlayKind::Cycloid7 {
            assert!(want.repair_entries > 0, "no stale entry was evicted");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random seeds and kinds: the equivalence is not an artifact of one
    /// lucky workload.
    #[test]
    fn observability_equivalence_holds_for_random_workloads(
        seed in 0u64..1_000_000,
        kind_idx in 0usize..ALL_KINDS.len(),
        jobs_idx in 0usize..JOBS.len(),
    ) {
        assert_equivalent(ALL_KINDS[kind_idx], seed, 64, JOBS[jobs_idx]);
    }
}
