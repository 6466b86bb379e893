//! Maintenance must not allocate per node.
//!
//! A stabilization tick: the run's hints are inline, Chord's fingers and
//! Pastry's table are refilled in the buffers they have, and Cycloid reads
//! its cycle off the token order instead of copying it into a `Vec`. So a
//! run over a bucket's worth of tokens makes the same handful of
//! allocations whatever the network size — one allocation per node breaks
//! the equality between n = 500 and n = 2 000 at once. The tokens are
//! stale first (a tenth of the nodes failed), so the run rewrites entries
//! instead of confirming them. With telemetry on, the run also bills each
//! node's maintenance messages, its degree, which is counted on the stack.
//!
//! A join or graceful leave: the notification fan-out walks the token
//! order in place, so a leave allocates nothing and a join only the
//! joiner's own state buffer (Chord's fingers, Pastry's table; a Koorde
//! row is inline). Measured on 1 000 nodes — one chunk of the order —
//! after departures, so nothing the store holds has to grow.
//!
//! Viceroy and CAN are left out: their stabilizers are not refreshes.

#[path = "common/counting.rs"]
mod counting;

use counting::allocations;
use dht_core::obs::Telemetry;
use dht_core::rng::stream;
use dht_sim::{build_overlay, OverlayKind};

/// The six kinds whose maintenance is a refresh.
const REFRESH_KINDS: [OverlayKind; 6] = [
    OverlayKind::Chord,
    OverlayKind::Koorde,
    OverlayKind::KoordeBestFit,
    OverlayKind::Pastry,
    OverlayKind::Cycloid7,
    OverlayKind::Cycloid11,
];

/// Allocations of one `stabilize_nodes` run over every 7th token of a
/// `kind` network that has lost every 10th node unannounced, under
/// `telemetry`.
fn run_allocations(kind: OverlayKind, n: usize, telemetry: &Telemetry) -> u64 {
    let mut net = build_overlay(kind, n, 15);
    net.set_telemetry(telemetry.clone());
    for &victim in net.node_tokens().iter().step_by(10) {
        assert!(net.fail(victim));
    }
    let run: Vec<u64> = net.node_tokens().into_iter().step_by(7).collect();
    let before = allocations();
    net.stabilize_nodes(&run);
    allocations() - before
}

#[test]
fn a_run_allocates_per_run_not_per_node() {
    for telemetry in [Telemetry::disabled(), Telemetry::enabled()] {
        let metered = telemetry.is_enabled();
        for kind in REFRESH_KINDS {
            let small = run_allocations(kind, 500, &telemetry);
            let large = run_allocations(kind, 2_000, &telemetry);
            assert_eq!(
                small,
                large,
                "{} (metered: {metered}): {small} allocations at n = 500, {large} at n = 2 000",
                kind.label()
            );
            assert!(
                small <= 4,
                "{} (metered: {metered}): {small} allocations in one run",
                kind.label()
            );
        }
    }
}

#[test]
fn graceful_leaves_allocate_nothing_and_joins_only_the_joiners_state() {
    for kind in REFRESH_KINDS {
        let mut net = build_overlay(kind, 1_000, 15);
        let victims: Vec<u64> = net.node_tokens().into_iter().step_by(20).collect();
        assert_eq!(victims.len(), 50);
        let before = allocations();
        for &victim in &victims {
            assert!(net.leave(victim));
        }
        let leaves = allocations() - before;
        assert_eq!(leaves, 0, "{}: 50 graceful leaves", kind.label());

        // Cycloid's join routes a message and derives from the contact's
        // state; only the refresh kinds' joins are this cheap.
        let state_buffers = match kind {
            OverlayKind::Chord | OverlayKind::Pastry => 1,
            OverlayKind::Koorde | OverlayKind::KoordeBestFit => 0,
            _ => continue,
        };
        let mut rng = stream(15, "join-allocations");
        let before = allocations();
        for _ in 0..50 {
            assert!(net.join(&mut rng).is_some());
        }
        let joins = allocations() - before;
        assert_eq!(joins, 50 * state_buffers, "{}: 50 joins", kind.label());
    }
}
