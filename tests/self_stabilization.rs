//! Self-stabilizing repair proven by the audit oracle: for every
//! overlay kind and every corruption strategy, a seeded corruption of a
//! quarter or more of the nodes' routing state must (a) be *detected*
//! by the full-scope audit and (b) be *repaired* back to audit-clean by
//! the per-node repair timers within a bounded number of simulated
//! seconds — under arbitrary seeds and for every `--jobs` value.
//!
//! The flip side is pinned just as hard: repair must be a no-op on
//! healthy state. Repair-enabled churn runs on uncorrupted networks are
//! bit-identical (event traces, measurement streams, load tables, audit
//! reports) to runs without repair, and a full repair sweep before the
//! golden workload leaves every checked-in golden file byte-identical.

mod common;

use cycloid_repro::prelude::*;
use dht_core::corrupt::{CorruptionPlan, CorruptionStrategy};
use dht_core::obs::Telemetry;
use dht_core::rng::stream;
use dht_core::workload::random_pairs;
use dht_sim::churn::{run_churn, run_until_clean, ChurnParams};
use dht_sim::experiments::run_requests_jobs;
use dht_sim::{build_overlay_spaced, ALL_KINDS};
use proptest::prelude::*;
use rand::Rng;

/// Repair period driving every recovery below (seconds).
const PERIOD: u64 = 10;
/// Recovery horizon: corruption still dirty after this many simulated
/// seconds fails the test.
const HORIZON_SECS: u64 = 8 * PERIOD;

/// Corrupts a fresh overlay and drives the repair timers to audit-clean.
/// Returns `(network, seconds to clean, entries repaired)`.
fn corrupt_and_recover(
    kind: OverlayKind,
    strategy: CorruptionStrategy,
    severity: f64,
    seed: u64,
) -> (Box<dyn Overlay>, u64, u64) {
    let mut net = build_overlay(kind, 96, seed);
    let n = net.len();
    let plan = CorruptionPlan::new(strategy, severity, seed ^ 0xc0ffee);
    let report = net.corrupt_state(&plan);
    let min_targeted = (severity * n as f64).ceil() as usize;
    assert!(
        report.targeted_nodes >= min_targeted,
        "{kind:?}/{strategy:?} seed={seed}: targeted {} < {min_targeted}",
        report.targeted_nodes
    );
    let run = run_until_clean(net.as_mut(), PERIOD, HORIZON_SECS, true);
    let secs = run.clean_s.unwrap_or_else(|| {
        panic!(
            "{kind:?}/{strategy:?} seed={seed}: still dirty after {HORIZON_SECS}s: {}",
            net.audit_state(AuditScope::Full)
        )
    });
    (net, secs, run.entries)
}

#[test]
fn every_kind_recovers_from_every_strategy() {
    for kind in ALL_KINDS {
        for strategy in CorruptionStrategy::ALL {
            let mut net = build_overlay(kind, 96, 42);
            let plan = CorruptionPlan::new(strategy, 0.5, 9);
            let report = net.corrupt_state(&plan);
            assert!(report.targeted_nodes >= 48, "{kind:?}/{strategy:?}");
            assert!(
                report.mutated_entries > 0,
                "{kind:?}/{strategy:?}: corruption did no damage"
            );
            assert!(
                !net.audit_state(AuditScope::Full).is_clean(),
                "{kind:?}/{strategy:?}: corruption evaded the full audit"
            );
            let run = run_until_clean(net.as_mut(), PERIOD, HORIZON_SECS, true);
            let secs = run.clean_s.unwrap_or_else(|| {
                panic!("{kind:?}/{strategy:?}: unrecovered within {HORIZON_SECS}s")
            });
            assert!(
                secs > 0,
                "{kind:?}/{strategy:?}: dirty state cannot be clean at 0s"
            );
            assert!(
                run.entries > 0,
                "{kind:?}/{strategy:?}: repair fixed nothing"
            );
            // Idempotence: a further repair round touches nothing.
            let again = run_until_clean(net.as_mut(), PERIOD, HORIZON_SECS, true);
            assert_eq!(again.clean_s, Some(0), "{kind:?}/{strategy:?}");
            assert_eq!(
                again.entries, 0,
                "{kind:?}/{strategy:?}: repair not idempotent"
            );
        }
    }
}

/// Satellite: corruption can point links at *departed* tokens (the ghost
/// strategy draws from the whole identifier space, and the live set has
/// holes after leaves). The full audit must still detect it, and repair
/// must converge without resurrecting the departed nodes — membership
/// and the per-node load table keep their exact pre-corruption shape.
#[test]
fn ghost_links_to_departed_tokens_repair_without_resurrection() {
    for kind in ALL_KINDS {
        let mut net = build_overlay(kind, 96, 11);
        let mut rng = stream(13, "departures");
        for _ in 0..20 {
            if net.len() <= 8 {
                break;
            }
            let toks = net.node_tokens();
            let victim = toks[(rng.gen::<u64>() % toks.len() as u64) as usize];
            net.leave(victim);
        }
        net.stabilize();
        assert!(
            net.audit_state(AuditScope::Full).is_clean(),
            "{kind:?}: baseline after departures must be clean"
        );
        let members = net.node_tokens();
        let loads_len = net.query_loads().len();

        let report = net.corrupt_state(&CorruptionPlan::new(
            CorruptionStrategy::GhostLinks,
            0.5,
            17,
        ));
        assert!(
            report.mutated_entries > 0,
            "{kind:?}: ghost plan did nothing"
        );
        assert!(
            !net.audit_state(AuditScope::Full).is_clean(),
            "{kind:?}: ghost links evaded the full audit"
        );
        let run = run_until_clean(net.as_mut(), PERIOD, HORIZON_SECS, true);
        assert!(
            run.clean_s.is_some(),
            "{kind:?}: ghost corruption unrecovered"
        );
        assert_eq!(
            net.node_tokens(),
            members,
            "{kind:?}: repair resurrected or dropped members"
        );
        assert_eq!(
            net.query_loads().len(),
            loads_len,
            "{kind:?}: load table reshaped"
        );
    }
}

/// Satellite: repair-enabled churn on an uncorrupted network is
/// bit-identical to plain stabilization — same measurement streams, same
/// emitted event trace, same final load table, same accumulated audit —
/// for every overlay kind and across `jobs` values.
#[test]
fn repair_enabled_churn_is_bit_identical_on_healthy_networks() {
    let run = |kind: OverlayKind, jobs: usize, repair: bool| {
        let telemetry = Telemetry::enabled();
        let mut net = build_overlay_spaced(kind, 64, 96, 7);
        let mut rng = stream(8, "repair-noop");
        let params = ChurnParams {
            churn_rate: 0.2,
            stabilization_period_secs: PERIOD,
            lookups: 200,
            warmup_lookups: 10,
            audit: true,
            telemetry: telemetry.clone(),
            jobs,
            repair,
            ..ChurnParams::default()
        };
        let out = run_churn(net.as_mut(), params, &mut rng);
        let events = telemetry.read(|r| r.events.clone()).unwrap();
        let audit = out.audit.as_ref().expect("audit requested");
        (
            out.path_lens.clone(),
            out.timeouts.clone(),
            out.retries.clone(),
            out.latency_us.clone(),
            (
                out.joins,
                out.leaves,
                out.stabilize_calls,
                out.stabilize_rounds,
            ),
            net.query_loads(),
            format!("{audit}"),
            events,
        )
    };
    for kind in ALL_KINDS {
        let base = run(kind, 1, false);
        for jobs in [1usize, 4] {
            let with_repair = run(kind, jobs, true);
            assert_eq!(
                base, with_repair,
                "{kind:?} jobs={jobs}: repair perturbed a healthy run"
            );
        }
    }
}

/// Satellite: a full repair sweep over a freshly built (healthy) overlay
/// leaves every checked-in golden trace file byte-identical — repair
/// never perturbs state the stabilizer would not have touched either.
#[test]
fn golden_traces_are_byte_identical_after_a_repair_sweep() {
    let sweep = |net: &mut dyn Overlay| {
        let mut entries = 0;
        for token in net.node_tokens() {
            entries += net.repair_node(token);
        }
        assert_eq!(entries, 0, "{}: repair rewrote healthy state", net.name());
    };
    for (kind, name) in common::GOLDEN_KINDS {
        let golden = std::fs::read_to_string(common::golden_path(name))
            .unwrap_or_else(|e| panic!("missing golden {name}: {e}"));
        let rendered = common::render_traces_prepared(kind, None, &sweep);
        assert_eq!(
            golden, rendered,
            "{kind:?}: repair sweep changed the golden trace"
        );
    }
    for (kind, name) in [
        (OverlayKind::Cycloid7, "cycloid7_lossy"),
        (OverlayKind::Chord, "chord_lossy"),
    ] {
        let golden = std::fs::read_to_string(common::golden_path(name))
            .unwrap_or_else(|e| panic!("missing golden {name}: {e}"));
        let rendered =
            common::render_traces_prepared(kind, Some(common::lossy_conditions()), &sweep);
        assert_eq!(
            golden, rendered,
            "{kind:?}: repair sweep changed the lossy golden"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Headline property: any seed, any kind, any strategy, any severity
    /// of at least 25% — the corrupted network converges back to
    /// audit-clean within the horizon, and the recovered overlay routes
    /// identically at every worker count.
    #[test]
    fn any_corruption_converges_to_clean_under_any_jobs(
        seed in 0u64..10_000,
        kind_ix in 0usize..8,
        strategy_ix in 0usize..5,
        severity in 0.25f64..1.0,
    ) {
        let kind = ALL_KINDS[kind_ix];
        let strategy = CorruptionStrategy::ALL[strategy_ix];
        let (mut net, secs, _) = corrupt_and_recover(kind, strategy, severity, seed);
        prop_assert!(secs <= HORIZON_SECS);
        // Recovered overlays route: same fixed workload, sequential and
        // sharded, must agree exactly and never fail.
        let mut wl = stream(seed, "post-recovery");
        let reqs = random_pairs(net.as_ref(), 60, &mut wl);
        let seq = run_requests_jobs(net.as_mut(), &reqs, 1);
        prop_assert_eq!(seq.failures, 0, "{:?}/{:?} seed={}", kind, strategy, seed);
        // Fresh recovery for the sharded run: batches mutate
        // repair-on-use state, so each jobs value gets its own network.
        let (mut net4, secs4, _) = corrupt_and_recover(kind, strategy, severity, seed);
        prop_assert_eq!(secs, secs4, "recovery time must not depend on the run");
        let par = run_requests_jobs(net4.as_mut(), &reqs, 4);
        prop_assert_eq!(seq.failures, par.failures);
        prop_assert_eq!(format!("{:?}", seq.path), format!("{:?}", par.path));
        prop_assert_eq!(net.query_loads(), net4.query_loads());
    }
}
