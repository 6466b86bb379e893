//! A stabilization tick must not allocate per node: the run's hints are
//! inline, Chord's fingers and Pastry's table are refilled in the buffers
//! they have, and Cycloid reads its cycle off the token order instead of
//! copying it into a `Vec`. So a run over a bucket's worth of tokens
//! makes the same handful of allocations whatever the network size — one
//! allocation per node breaks the equality between n = 500 and n = 2 000
//! at once. The tokens are stale first (a tenth of the nodes failed), so
//! the run rewrites entries instead of confirming them.
//!
//! Viceroy and CAN are left out: their stabilizers are not refreshes.

#[path = "common/counting.rs"]
mod counting;

use counting::allocations;
use dht_sim::{build_overlay, OverlayKind};

/// Allocations of one `stabilize_nodes` run over every 7th token of a
/// `kind` network that has lost every 10th node unannounced.
fn run_allocations(kind: OverlayKind, n: usize) -> u64 {
    let mut net = build_overlay(kind, n, 15);
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
    for kind in [
        OverlayKind::Chord,
        OverlayKind::Koorde,
        OverlayKind::KoordeBestFit,
        OverlayKind::Pastry,
        OverlayKind::Cycloid7,
        OverlayKind::Cycloid11,
    ] {
        let small = run_allocations(kind, 500);
        let large = run_allocations(kind, 2_000);
        assert_eq!(
            small,
            large,
            "{}: {small} allocations at n = 500, {large} at n = 2 000",
            kind.label()
        );
        assert!(
            small <= 4,
            "{}: {small} allocations in one run",
            kind.label()
        );
    }
}
