//! An online audit pass must not allocate per node: the sweep takes the
//! sorted token list once (Cycloid also one list of cycle runs), derives
//! every expected pointer on the stack (`ring_sides` returns inline
//! vectors) and counts degrees without a `Vec`. So a clean pass makes the
//! same handful of allocations whatever the network size — one
//! allocation per node, or a list grown by doubling, breaks the equality
//! between n = 500 and n = 2 000 at once.
//!
//! CAN's pass is no ring sweep, but it reads each node's stored
//! neighbour table and zone geometry in place, so it is held to the same
//! bound. Viceroy is left out: its audit is not a ring sweep.

#[path = "common/counting.rs"]
mod counting;

use counting::allocations;
use dht_core::audit::AuditScope;
use dht_sim::{build_overlay, OverlayKind};

/// Allocations of one clean `Online` pass over a fresh `kind` network.
fn pass_allocations(kind: OverlayKind, n: usize) -> u64 {
    let net = build_overlay(kind, n, 15);
    let before = allocations();
    let report = net.audit_state(AuditScope::Online);
    let made = allocations() - before;
    assert_eq!(report.checked_nodes(), n, "{}", kind.label());
    assert!(report.is_clean(), "{report}");
    made
}

#[test]
fn a_clean_online_pass_allocates_per_pass_not_per_node() {
    for kind in [
        OverlayKind::Chord,
        OverlayKind::Koorde,
        OverlayKind::KoordeBestFit,
        OverlayKind::Pastry,
        OverlayKind::Cycloid7,
        OverlayKind::Cycloid11,
        OverlayKind::Can,
    ] {
        let small = pass_allocations(kind, 500);
        let large = pass_allocations(kind, 2_000);
        assert_eq!(
            small,
            large,
            "{}: {small} allocations at n = 500, {large} at n = 2 000",
            kind.label()
        );
        assert!(
            small <= 4,
            "{}: {small} allocations in one pass",
            kind.label()
        );
    }
}
