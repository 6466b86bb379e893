//! Lossy-network demo: run the same lookup workload on a Cycloid overlay
//! under increasingly unreliable message delivery and watch the retry,
//! timeout, and latency bill grow while routing stays correct.
//!
//! Every fault is drawn deterministically from the plan's seed, so a rerun
//! reproduces these numbers bit for bit.
//!
//! ```text
//! cargo run --release --example lossy_network
//! ```

use cycloid_repro::prelude::*;
use dht_core::rng::stream;
use dht_core::workload::random_pairs;

fn main() {
    println!(
        "retry policy: {} attempts, {} ms base timeout, x{} backoff capped at {} ms",
        RetryPolicy::MAX_ATTEMPTS,
        RetryPolicy::BASE_TIMEOUT_US / 1_000,
        RetryPolicy::BACKOFF_FACTOR,
        RetryPolicy::MAX_TIMEOUT_US / 1_000
    );
    println!("delay model: uniform 20-80 ms RTT, 1% duplication\n");
    println!(
        "{:>6}  {:>9}  {:>9}  {:>12}  {:>12}  {:>9}",
        "loss %", "success %", "mean path", "retries/look", "msg timeouts", "mean ms"
    );

    for loss in [0.0, 0.01, 0.05, 0.10, 0.20, 0.40] {
        let mut net = build_overlay(OverlayKind::Cycloid7, 512, 7);
        net.set_net_conditions(NetConditions::new(
            FaultPlan {
                seed: 2004,
                loss,
                delay: DelayModel::Uniform(20_000, 80_000),
                duplicate: 0.01,
            },
            RetryPolicy::standard(),
        ));
        let reqs = random_pairs(net.as_ref(), 2_000, &mut stream(7, "lossy-demo"));
        let mut ok = 0usize;
        let mut hops = 0usize;
        let mut retries = 0u64;
        let mut msg_timeouts = 0u64;
        let mut latency_us = 0u64;
        for req in &reqs {
            let t = net.lookup(req.src, req.raw_key);
            ok += usize::from(t.outcome.is_success());
            hops += t.path_len();
            retries += u64::from(t.net.retries);
            msg_timeouts += u64::from(t.net.msg_timeouts);
            latency_us += t.net.latency_us;
        }
        let n = reqs.len() as f64;
        println!(
            "{:>6.0}  {:>9.2}  {:>9.2}  {:>12.3}  {:>12.4}  {:>9.1}",
            100.0 * loss,
            100.0 * ok as f64 / n,
            hops as f64 / n,
            retries as f64 / n,
            msg_timeouts as f64 / n,
            latency_us as f64 / n / 1_000.0
        );
        // Faults must never touch routing tables.
        let report = net.audit_state(AuditScope::Full);
        assert!(report.is_clean(), "{report}");
    }

    println!("\nrouting state audited clean after every sweep point.");
}
