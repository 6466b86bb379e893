//! Audit regression suite: the protocol-invariant auditor must report
//! zero violations for every overlay under the default churn model and on
//! large static networks.
//!
//! These are the canary tests for maintenance regressions: a protocol
//! change that leaves any §3-style invariant stale fails here with the
//! invariant's name rather than as a drifting figure statistic.

use dht_core::audit::AuditScope;
use dht_core::rng::stream;
use dht_sim::churn::{run_churn, ChurnParams};
use dht_sim::{build_overlay, OverlayKind, ALL_KINDS};

/// The six distinct overlay protocols (Cycloid(11) shares Cycloid's code;
/// KoordeBestFit shares Koorde's).
const SIX: [OverlayKind; 6] = [
    OverlayKind::Cycloid7,
    OverlayKind::Chord,
    OverlayKind::Koorde,
    OverlayKind::Pastry,
    OverlayKind::Viceroy,
    OverlayKind::Can,
];

#[test]
fn default_churn_is_audit_clean_for_all_six_overlays() {
    // ChurnParams::default() (R = 0.05, 30 s stabilization) at reduced
    // lookup volume: the online audit runs after every stabilization
    // round and at the end, and must never flag anything.
    for kind in SIX {
        let mut net = build_overlay(kind, 128, 21);
        let mut rng = stream(22, kind.label());
        let params = ChurnParams {
            lookups: 600,
            warmup_lookups: 50,
            audit: true,
            ..ChurnParams::default()
        };
        let out = run_churn(net.as_mut(), params, &mut rng);
        let audit = out.audit.expect("audit requested");
        assert!(
            audit.checked_nodes() > 0,
            "{}: audit never ran",
            kind.label()
        );
        assert!(audit.is_clean(), "{}: {audit}", kind.label());
        // And once the run settles, the lazily-repaired state converges
        // too: a stabilization round later the full scope is clean.
        net.stabilize();
        let full = net.audit_state(AuditScope::Full);
        assert!(full.is_clean(), "{}: {full}", kind.label());
    }
}

#[test]
fn static_networks_at_1024_nodes_are_fully_clean() {
    // Bulk-built networks of every kind at n = 1024: the full-scope audit
    // checks each node and finds nothing.
    for kind in ALL_KINDS {
        let net = build_overlay(kind, 1024, 23);
        let report = net.audit_state(AuditScope::Full);
        assert_eq!(report.checked_nodes(), 1024, "{}", kind.label());
        assert!(report.is_clean(), "{}: {report}", kind.label());
    }
}

#[test]
fn churn_at_1024_nodes_is_audit_clean() {
    // The acceptance-scale run: sustained default-rate churn on a
    // 1024-node network, audited each round, for every distinct protocol.
    for kind in SIX {
        // CAN's neighbour resolution is O(n * zones); trim its workload so
        // the suite stays fast without weakening the other overlays.
        let lookups = if kind == OverlayKind::Can { 300 } else { 1_500 };
        let mut net = build_overlay(kind, 1024, 24);
        let mut rng = stream(25, kind.label());
        let params = ChurnParams {
            lookups,
            warmup_lookups: 100,
            audit: true,
            ..ChurnParams::default()
        };
        let out = run_churn(net.as_mut(), params, &mut rng);
        let audit = out.audit.expect("audit requested");
        assert!(audit.checked_nodes() >= 1024, "{}", kind.label());
        assert!(audit.is_clean(), "{}: {audit}", kind.label());
        assert_eq!(out.failures, 0, "{}", kind.label());
    }
}
