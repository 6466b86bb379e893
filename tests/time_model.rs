//! Time-model pins for the churn engine: the continuous-time
//! discrete-event kernel must (a) degenerate to the classic round-based
//! semantics when message delays are zero and there is no churn, (b)
//! bill lookup latency exactly as virtual-clock elapsed time, and (c)
//! be bit-deterministic per seed, across repeated runs and across every
//! `jobs` value (see DESIGN.md "Time model").

use dht_core::net::{FaultPlan, NetConditions, RetryPolicy};
use dht_sim::churn::{run_churn, ChurnOutcome, ChurnParams, TimeModel};
use dht_sim::{build_overlay, build_overlay_spaced, OverlayKind, ALL_KINDS};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn params(time: TimeModel, churn_rate: f64) -> ChurnParams {
    ChurnParams {
        lookup_rate: 1.0,
        churn_rate,
        stabilization_period_secs: 10,
        lookups: 200,
        warmup_lookups: 10,
        jobs: 1,
        time,
        ..ChurnParams::default()
    }
}

fn run(kind: OverlayKind, seed: u64, p: ChurnParams) -> ChurnOutcome {
    // Spaced identifier space so joins under churn have room to land.
    let mut net = build_overlay_spaced(kind, 64, 96, seed);
    let mut rng = StdRng::seed_from_u64(seed);
    run_churn(net.as_mut(), p, &mut rng)
}

/// The per-lookup measurement streams — everything the experiments
/// aggregate over.
fn measurements(o: &ChurnOutcome) -> String {
    format!(
        "path={:?} timeouts={:?} retries={:?} latency={:?} failures={}",
        o.path_lens, o.timeouts, o.retries, o.latency_us, o.failures
    )
}

/// Full outcome fingerprint for determinism checks (adds the
/// continuous-only fields on top of the measurement streams).
fn fingerprint(o: &ChurnOutcome) -> String {
    format!(
        "{} joins={} leaves={} final={} peak={} stab={} elapsed={:?} end={} stranded={}",
        measurements(o),
        o.joins,
        o.leaves,
        o.final_size,
        o.peak_size,
        o.stabilize_calls,
        o.elapsed_us,
        o.sim_end_us,
        o.stranded,
    )
}

/// With zero message delays and no churn, suspending lookups on the
/// virtual clock changes nothing observable: every walk completes
/// within its arrival instant, in arrival order, so the continuous
/// engine reproduces the round-based measurement streams exactly, for
/// every overlay kind.
#[test]
fn continuous_degenerates_to_rounds_without_delays_or_churn() {
    for kind in ALL_KINDS {
        let base = run(kind, 42, params(TimeModel::Rounds, 0.0));
        let cont = run(kind, 42, params(TimeModel::Continuous, 0.0));
        assert_eq!(
            measurements(&base),
            measurements(&cont),
            "{kind:?} continuous diverges from rounds"
        );
    }
}

/// Regression for the latent `NetCosts::latency_us` inconsistency: the
/// rounds engine accumulated delay draws that never advanced any clock.
/// On the virtual clock, every microsecond billed to a lookup is a
/// microsecond the simulation actually waited — reported latency must
/// equal arrival-to-completion elapsed time, lookup by lookup, even
/// under loss, delays, retries, and churn.
#[test]
fn continuous_latency_is_virtual_clock_elapsed_time() {
    for kind in ALL_KINDS {
        let mut p = params(TimeModel::Continuous, 0.1);
        p.conditions = NetConditions::new(FaultPlan::lossy(7, 0.02), RetryPolicy::standard());
        let out = run(kind, 11, p);
        assert_eq!(out.path_lens.len(), 200, "{kind:?} measured lookups");
        assert_eq!(
            out.latency_us, out.elapsed_us,
            "{kind:?}: billed latency != virtual-clock elapsed time"
        );
        assert!(
            out.latency_us.iter().any(|&us| us > 0),
            "{kind:?}: delays should make some latency nonzero"
        );
    }
}

/// Rounds mode has no clock to elapse: the aligned stream stays empty.
#[test]
fn rounds_mode_has_no_elapsed_stream() {
    let out = run(OverlayKind::Cycloid7, 42, params(TimeModel::Rounds, 0.1));
    assert!(out.elapsed_us.is_empty());
    assert_eq!(out.path_lens.len(), 200);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Same seed ⇒ identical event order ⇒ identical outcome, for any
    /// kind, under both time models, with churn and lossy conditions.
    #[test]
    fn any_seed_is_deterministic_across_runs(seed in 0u64..10_000, kind_ix in 0usize..8) {
        let kind = ALL_KINDS[kind_ix];
        for time in [TimeModel::Rounds, TimeModel::Continuous] {
            let mut p = params(time, 0.2);
            p.lookups = 80;
            p.conditions = NetConditions::new(FaultPlan::lossy(seed ^ 5, 0.02), RetryPolicy::standard());
            let a = run(kind, seed, p.clone());
            let b = run(kind, seed, p);
            prop_assert_eq!(fingerprint(&a), fingerprint(&b), "{:?} {:?} seed={}", kind, time, seed);
        }
    }

    /// `jobs` may only change wall clock, never the outcome — in rounds
    /// mode it sizes the batch executor, in continuous mode it is
    /// ignored entirely.
    #[test]
    fn any_seed_is_jobs_invariant(seed in 0u64..10_000, kind_ix in 0usize..8) {
        let kind = ALL_KINDS[kind_ix];
        for time in [TimeModel::Rounds, TimeModel::Continuous] {
            let mut p = params(time, 0.2);
            p.lookups = 80;
            p.conditions = NetConditions::new(FaultPlan::lossy(seed ^ 9, 0.02), RetryPolicy::standard());
            let a = run(kind, seed, ChurnParams { jobs: 1, ..p.clone() });
            let b = run(kind, seed, ChurnParams { jobs: 4, ..p });
            prop_assert_eq!(fingerprint(&a), fingerprint(&b), "{:?} {:?} seed={}", kind, time, seed);
        }
    }
}

/// The degenerate configuration also leaves the long-standing golden
/// traces untouched: `tests/golden_traces.rs` pins those byte-for-byte,
/// and the walk engine they exercise is the exact code the cursor now
/// suspends. This test pins the complementary fact that an overlay
/// driven through a full continuous run still audits clean with zero
/// churn (nothing moved, nothing went stale).
#[test]
fn continuous_run_without_churn_leaves_overlay_clean() {
    use dht_core::audit::AuditScope;
    let mut net = build_overlay(OverlayKind::Cycloid7, 64, 42);
    let mut rng = StdRng::seed_from_u64(42);
    let p = params(TimeModel::Continuous, 0.0);
    let out = run_churn(net.as_mut(), p, &mut rng);
    assert_eq!(out.failures, 0);
    assert!(net.audit_state(AuditScope::Full).is_clean());
}
