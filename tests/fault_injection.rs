//! Message-level fault injection: the deterministic unreliable-network
//! layer (`dht_core::net`) threaded through the shared walk engine.
//!
//! Three contracts are pinned here:
//!
//! 1. **Strict superset**: with loss = 0 the fault layer reproduces
//!    today's routing exactly (hops, outcomes, terminals, stale-entry
//!    timeouts), for every overlay kind — delay and duplication models
//!    only add latency bookkeeping.
//! 2. **Exact retry budget**: at 100% loss every contact burns exactly
//!    `max_attempts` sends and the lookup fails without a single hop.
//! 3. **No state mutation**: message faults must never touch routing
//!    tables — the protocol-invariant audit stays clean after heavy loss,
//!    and message-unreachable live nodes are never fed to repair-on-use.

use cycloid_repro::prelude::*;
use dht_core::lookup::LookupOutcome;
use dht_core::net::{DelayModel, FaultPlan, NetConditions, NetCosts, RetryPolicy};
use dht_core::rng::stream;
use dht_core::workload::random_pairs;
use dht_sim::churn::{run_churn, ChurnParams};
use dht_sim::ALL_KINDS;
use proptest::prelude::*;

const NODES: usize = 64;
const LOOKUPS: usize = 60;

type TraceKey = (Vec<HopPhase>, LookupOutcome, u64, u32);

/// Replays a fixed workload under `conditions` and returns the routing
/// decisions (hops, outcome, terminal, stale timeouts) and net costs.
fn replay(
    kind: OverlayKind,
    seed: u64,
    conditions: Option<NetConditions>,
) -> (Vec<TraceKey>, Vec<NetCosts>) {
    let mut net = build_overlay(kind, NODES, seed);
    if let Some(c) = conditions {
        net.set_net_conditions(c);
    }
    let reqs = random_pairs(net.as_ref(), LOOKUPS, &mut stream(seed, "fault-workload"));
    let mut routing = Vec::with_capacity(reqs.len());
    let mut costs = Vec::with_capacity(reqs.len());
    for req in &reqs {
        let t = net.lookup(req.src, req.raw_key);
        routing.push((t.hops.clone(), t.outcome, t.terminal, t.timeouts));
        costs.push(t.net);
    }
    (routing, costs)
}

#[test]
fn zero_loss_is_a_strict_superset_of_ideal_routing() {
    // Any delay model and even aggressive duplication must leave every
    // routing decision untouched when no message is ever lost.
    let plan = FaultPlan {
        seed: 99,
        loss: 0.0,
        delay: DelayModel::Uniform(5_000, 95_000),
        duplicate: 0.25,
    };
    for kind in ALL_KINDS {
        let (ideal, ideal_costs) = replay(kind, 13, None);
        let (faulty, faulty_costs) = replay(
            kind,
            13,
            Some(NetConditions::new(plan, RetryPolicy::standard())),
        );
        assert_eq!(
            ideal,
            faulty,
            "{}: routing diverged at loss=0",
            kind.label()
        );
        for (i, c) in faulty_costs.iter().enumerate() {
            assert_eq!(c.retries, 0, "{} lookup {i}", kind.label());
            assert_eq!(c.msg_timeouts, 0, "{} lookup {i}", kind.label());
        }
        let billed: u64 = faulty_costs.iter().map(|c| c.latency_us).sum();
        let hops: usize = ideal.iter().map(|(h, ..)| h.len()).sum();
        assert!(
            billed >= hops as u64 * 5_000,
            "{}: every hop draws at least the minimum RTT",
            kind.label()
        );
        assert!(
            ideal_costs.iter().all(|c| *c == NetCosts::default()),
            "{}: ideal network bills nothing",
            kind.label()
        );
    }
}

#[test]
fn total_loss_fails_after_exactly_max_attempts_per_contact() {
    let retry = RetryPolicy::standard();
    let plan = FaultPlan {
        seed: 4,
        loss: 1.0,
        delay: DelayModel::Uniform(0, 0),
        duplicate: 0.0,
    };
    for kind in ALL_KINDS {
        let (routing, costs) = replay(kind, 17, Some(NetConditions::new(plan, retry)));
        let mut contacts_seen = 0u64;
        for (i, ((hops, outcome, _, stale), c)) in routing.iter().zip(&costs).enumerate() {
            assert!(
                hops.is_empty(),
                "{} lookup {i}: no message is ever delivered",
                kind.label()
            );
            // A source that happens to own the key legitimately succeeds
            // with zero hops; everything else must fail in place.
            if *outcome == LookupOutcome::Found {
                assert_eq!(c.msg_timeouts, 0, "{} lookup {i}", kind.label());
            }
            assert_eq!(
                *stale,
                0,
                "{} lookup {i}: lost contacts are not stale entries",
                kind.label()
            );
            // The heart of the contract: every abandoned contact burned
            // exactly max_attempts sends, i.e. max_attempts - 1 retries.
            assert_eq!(
                c.retries,
                c.msg_timeouts * (RetryPolicy::MAX_ATTEMPTS - 1),
                "{} lookup {i}",
                kind.label()
            );
            // And each cost the full backoff cycle of waiting.
            assert_eq!(
                c.latency_us,
                u64::from(c.msg_timeouts) * RetryPolicy::give_up_us(),
                "{} lookup {i}",
                kind.label()
            );
            contacts_seen += u64::from(c.msg_timeouts);
        }
        assert!(
            contacts_seen > 0,
            "{}: the workload must attempt at least one contact",
            kind.label()
        );
    }
}

#[test]
fn heavy_loss_never_mutates_routing_state() {
    // 30% loss makes whole retry cycles fail (0.3^4 per contact), which
    // skips live candidates mid-walk. Routing tables must be left exactly
    // as a fault-free run leaves them: the full-scope audit stays clean.
    let plan = FaultPlan {
        seed: 21,
        loss: 0.30,
        delay: DelayModel::Uniform(1_000, 9_000),
        duplicate: 0.05,
    };
    for kind in ALL_KINDS {
        let mut net = build_overlay(kind, NODES, 29);
        net.set_net_conditions(NetConditions::new(plan, RetryPolicy::standard()));
        let reqs = random_pairs(net.as_ref(), 150, &mut stream(29, "heavy-loss"));
        let mut timed_out_contacts = 0u64;
        for req in &reqs {
            timed_out_contacts += u64::from(net.lookup(req.src, req.raw_key).net.msg_timeouts);
        }
        let report = net.audit_state(AuditScope::Full);
        assert!(
            report.is_clean(),
            "{} after {timed_out_contacts} abandoned contacts: {report}",
            kind.label()
        );
        assert_eq!(report.checked_nodes(), NODES, "{}", kind.label());
    }
}

#[test]
fn loss_and_churn_compose_without_failures() {
    // §4.4 churn with a 5% lossy network on top: Cycloid must still
    // resolve every lookup, and the run stays deterministic.
    let conditions = NetConditions::new(FaultPlan::lossy(31, 0.05), RetryPolicy::standard());
    let run = || {
        let mut net = build_overlay(OverlayKind::Cycloid7, 128, 37);
        let mut rng = stream(41, "churn-loss");
        let params = ChurnParams {
            lookups: 400,
            warmup_lookups: 40,
            churn_rate: 0.2,
            audit: true,
            conditions,
            ..ChurnParams::default()
        };
        run_churn(net.as_mut(), params, &mut rng)
    };
    let a = run();
    let b = run();
    assert_eq!(a.failures, 0, "5% loss with retries must not fail lookups");
    assert_eq!(a.path_lens, b.path_lens);
    assert_eq!(a.retries, b.retries);
    assert_eq!(a.latency_us, b.latency_us);
    assert!(a.retries.iter().sum::<u64>() > 0);
    let audit = a.audit.expect("audit requested");
    assert!(audit.is_clean(), "{audit}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn fixed_seed_lossy_runs_are_bit_identical(
        loss in 0.0f64..0.9,
        plan_seed in 0u64..1_000,
        net_seed in 1u64..64,
    ) {
        // For any survivable fault plan, the full observable record —
        // routing decisions AND message-level bill — replays exactly.
        let plan = FaultPlan {
            seed: plan_seed,
            loss,
            delay: DelayModel::Uniform(2_000, 50_000),
            duplicate: 0.1,
        };
        let conditions = Some(NetConditions::new(plan, RetryPolicy::standard()));
        let a = replay(OverlayKind::Cycloid7, net_seed, conditions);
        let b = replay(OverlayKind::Cycloid7, net_seed, conditions);
        prop_assert_eq!(&a.0, &b.0);
        prop_assert_eq!(&a.1, &b.1);
    }

    #[test]
    fn any_delay_model_at_zero_loss_reproduces_hop_counts(
        plan_seed in 0u64..1_000,
        net_seed in 1u64..64,
        lo in 0u64..10_000,
        span in 0u64..100_000,
    ) {
        let plan = FaultPlan {
            seed: plan_seed,
            loss: 0.0,
            delay: DelayModel::Uniform(lo, lo + span),
            duplicate: 0.0,
        };
        let (ideal, _) = replay(OverlayKind::Chord, net_seed, None);
        let (faulty, costs) = replay(
            OverlayKind::Chord,
            net_seed,
            Some(NetConditions::new(plan, RetryPolicy::standard())),
        );
        prop_assert_eq!(ideal, faulty);
        prop_assert!(costs.iter().all(|c| c.retries == 0 && c.msg_timeouts == 0));
    }
}
