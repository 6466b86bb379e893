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
//!
//! A clean `Full` pass of a kind whose stabilizer is a refresh adds one
//! ascending pass that copies each node's row into one scratch row and
//! refreshes its lazy half there: the scratch's heap table (Chord's
//! fingers, Pastry's prefix table) is allocated once, at the first node,
//! and reused for every other, so the same equality holds. CAN's `Full`
//! pass sweeps each node's faces into two buffers the pass owns.

#[path = "common/counting.rs"]
mod counting;

use counting::allocations;
use dht_core::audit::AuditScope;
use dht_sim::{build_overlay, OverlayKind};

/// Allocations of one clean `scope` pass over a fresh `kind` network.
fn pass_allocations(kind: OverlayKind, n: usize, scope: AuditScope) -> u64 {
    let net = build_overlay(kind, n, 15);
    let before = allocations();
    let report = net.audit_state(scope);
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
        let small = pass_allocations(kind, 500, AuditScope::Online);
        let large = pass_allocations(kind, 2_000, AuditScope::Online);
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

#[test]
fn a_clean_full_pass_allocates_per_pass_not_per_node() {
    // The online pass's allocations, plus Chord's and Pastry's one
    // scratch table; CAN's, plus the face sweep's two buffers (grown to
    // the largest node's need) and the tiling check's one set.
    for (kind, bound) in [
        (OverlayKind::Chord, 3),
        (OverlayKind::Koorde, 2),
        (OverlayKind::KoordeBestFit, 2),
        (OverlayKind::Pastry, 3),
        (OverlayKind::Cycloid7, 3),
        (OverlayKind::Cycloid11, 3),
        (OverlayKind::Can, 8),
    ] {
        let small = pass_allocations(kind, 500, AuditScope::Full);
        let large = pass_allocations(kind, 2_000, AuditScope::Full);
        assert_eq!(
            small,
            large,
            "{}: {small} allocations at n = 500, {large} at n = 2 000",
            kind.label()
        );
        assert!(
            small <= bound,
            "{}: {small} allocations in one pass",
            kind.label()
        );
    }
}
