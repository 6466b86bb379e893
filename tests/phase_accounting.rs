//! Observability-equivalence pins for per-phase cost accounting and the
//! virtual-time sampler: switching the meters on must change *nothing*
//! about what the simulation computes. For every overlay kind and
//! worker count, a fixed-seed churn run with the accountant and sampler
//! enabled must produce bit-identical lookup measurements, query-load
//! tables, audit reports, and trace-event streams to the same run with
//! observability disabled — and the accountant-instrumented golden
//! workload must stay byte-identical to the checked-in golden files.

mod common;

use std::sync::{Arc, Mutex};

use dht_core::clock::SECOND;
use dht_core::obs::{Event, Phase, PhaseAccountant, PhaseTable, RingBufferSink, SinkHandle};
use dht_core::rng::stream_indexed;
use dht_sim::churn::{run_churn, ChurnOutcome, ChurnParams};
use dht_sim::{build_overlay, OverlayKind, ALL_KINDS};
use proptest::prelude::*;

const JOBS: [usize; 2] = [1, 4];

struct ChurnResult {
    outcome: ChurnOutcome,
    loads: Vec<u64>,
    events: Vec<Event>,
    dropped: u64,
    table: Option<PhaseTable>,
}

/// One fixed-seed churn run; `observed` switches the accountant and the
/// sampler on. Everything else — build, workload stream, sink — is
/// identical between the two arms.
fn run(kind: OverlayKind, seed: u64, nodes: usize, jobs: usize, observed: bool) -> ChurnResult {
    let mut net = build_overlay(kind, nodes, seed);
    let ring = Arc::new(Mutex::new(RingBufferSink::new(1 << 16)));
    let acct = if observed {
        PhaseAccountant::enabled()
    } else {
        PhaseAccountant::disabled()
    };
    let params = ChurnParams {
        lookups: 250,
        warmup_lookups: 20,
        audit: true,
        jobs,
        sink: SinkHandle::new(Arc::clone(&ring)),
        accountant: acct.clone(),
        sample_every_us: if observed { 20 * SECOND } else { 0 },
        ..ChurnParams::default()
    };
    let mut rng = stream_indexed(seed, "phase-accounting", 0);
    let outcome = run_churn(net.as_mut(), params, &mut rng);
    let drained = ring.lock().expect("sink lock").drain();
    ChurnResult {
        outcome,
        loads: net.query_loads(),
        events: drained.events,
        dropped: drained.dropped,
        table: acct.snapshot(),
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
    assert_eq!(base.events, observed.events, "{ctx}: trace events diverged");
    assert_eq!(base.dropped, observed.dropped, "{ctx}: sink drops diverged");
    // The disabled arm records nothing; the observed arm must have
    // actually metered the run it didn't perturb.
    assert!(base.table.is_none(), "{ctx}: disabled accountant snapshot");
    assert!(
        base.outcome.samples.is_empty(),
        "{ctx}: unsampled telemetry"
    );
    let table = observed.table.expect("enabled accountant snapshots");
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

#[test]
fn accounted_golden_traces_stay_byte_identical() {
    for (kind, stem) in common::GOLDEN_KINDS {
        let golden = std::fs::read_to_string(common::golden_path(stem))
            .unwrap_or_else(|e| panic!("missing golden {stem}: {e}"));
        let accounted = common::render_traces_accounted(kind, None, PhaseAccountant::enabled());
        assert_eq!(golden, accounted, "{kind:?}: accountant perturbed goldens");
    }
    // Only these kinds have checked-in lossy goldens (see
    // `golden_traces.rs`).
    for (kind, stem) in [
        (OverlayKind::Cycloid7, "cycloid7_lossy"),
        (OverlayKind::Chord, "chord_lossy"),
    ] {
        let golden = std::fs::read_to_string(common::golden_path(stem))
            .unwrap_or_else(|e| panic!("missing golden {stem}: {e}"));
        let accounted = common::render_traces_accounted(
            kind,
            Some(common::lossy_conditions()),
            PhaseAccountant::enabled(),
        );
        assert_eq!(
            golden, accounted,
            "{kind:?}: accountant perturbed lossy goldens"
        );
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
