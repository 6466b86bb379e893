//! End-to-end smoke tests of every experiment driver: each figure/table
//! regenerator must produce well-formed rows at quick scale. Protects the
//! reproduction deliverable itself.

use dht_core::audit::AuditScope;
use dht_core::rng::stream;
use dht_sim::experiments::{
    churn_exp, fault_tolerance, hotspot, key_distribution, maintenance, mass_departure,
    path_length, query_load, sparsity, static_tables, ungraceful,
};
use dht_sim::{build_overlay, build_overlay_spaced, OverlayKind, ALL_KINDS, PAPER_KINDS};
use rand::Rng;

/// Builds a fresh overlay and asserts the full-scope protocol audit holds
/// on every node.
fn full_audit_clean(kind: OverlayKind, n: usize, seed: u64) {
    let net = build_overlay(kind, n, seed);
    let report = net.audit_state(AuditScope::Full);
    assert_eq!(report.checked_nodes(), net.len(), "{}", kind.label());
    assert!(report.is_clean(), "{}", report);
}

#[test]
fn static_tables_regenerate() {
    assert_eq!(static_tables::table1().len(), 6);
    assert_eq!(static_tables::table2().len(), 8);
    assert_eq!(static_tables::table3().len(), 4);
}

#[test]
fn path_length_driver_fig5_6_7() {
    let rows = path_length::measure(&path_length::PathLengthParams::quick(1));
    // 5 systems x 6 sizes.
    assert_eq!(rows.len(), 30);
    for r in &rows {
        assert!(r.agg.path.mean > 0.0, "{} at n={}", r.agg.label, r.n);
        assert_eq!(r.agg.failures, 0);
        assert!(r.agg.breakdown.lookups() > 0);
    }
    // Sizes follow the paper's n = d * 2^d.
    assert!(rows.iter().any(|r| r.n == 24 && r.dimension == 3));
    assert!(rows.iter().any(|r| r.n == 2048 && r.dimension == 8));
}

#[test]
fn key_distribution_driver_fig8_9() {
    let rows = key_distribution::measure(&key_distribution::KeyDistributionParams::quick(2));
    assert!(!rows.is_empty());
    for r in &rows {
        // Keys are conserved: mean * nodes == keys distributed.
        let total = r.per_node.mean * r.per_node.n as f64;
        assert!((total - r.keys as f64).abs() < 1.0, "{}", r.label);
    }
}

#[test]
fn query_load_driver_fig10() {
    let rows = query_load::measure(&query_load::QueryLoadParams::quick(3));
    for r in &rows {
        assert!(r.load.mean > 0.0, "{}", r.label);
        assert!(r.load.p99 >= r.load.p01);
    }
}

#[test]
fn mass_departure_driver_fig11_table4() {
    let rows = mass_departure::measure(&mass_departure::MassDepartureParams::quick(4));
    for r in &rows {
        assert!(r.survivors > 0);
        assert_eq!(r.agg.path.n, 600);
        match r.agg.label.as_str() {
            "Viceroy" => assert_eq!(r.agg.timeouts.max, 0.0),
            "Cycloid(7)" => assert_eq!(r.agg.failures, 0),
            _ => {}
        }
    }
}

#[test]
fn churn_driver_fig12_table5() {
    let rows = churn_exp::measure(&churn_exp::ChurnExpParams::quick(5));
    for r in &rows {
        assert_eq!(r.failures, 0, "{} at R={}", r.label, r.rate);
        assert!(r.joins > 0 && r.leaves > 0);
        assert!(r.path.mean > 0.0);
    }
}

#[test]
fn sparsity_driver_fig13_14() {
    let rows = sparsity::measure(&sparsity::SparsityParams::quick(6));
    for r in &rows {
        assert_eq!(r.agg.failures, 0, "{} at {}", r.agg.label, r.sparsity);
    }
    // The dense point uses (almost) the whole space.
    assert!(rows.iter().any(|r| r.sparsity == 0.0 && r.n == 512));
}

#[test]
fn ungraceful_extension_driver() {
    let rows = ungraceful::measure(&ungraceful::UngracefulParams::quick(7));
    for r in &rows {
        assert_eq!(
            r.after_stabilize.failures, 0,
            "{} must recover",
            r.after_stabilize.label
        );
    }
}

#[test]
fn maintenance_extension_driver() {
    let rows = maintenance::measure(&maintenance::MaintenanceParams::quick(8));
    assert_eq!(rows.len(), 5);
    for r in &rows {
        assert!(r.out_degree.mean > 0.0);
        // Edge conservation: mean in == mean out.
        assert!((r.in_degree.mean - r.out_degree.mean).abs() < 1e-9);
    }
}

#[test]
fn hotspot_extension_driver() {
    let rows = hotspot::measure(&hotspot::HotspotParams::quick(9));
    for r in &rows {
        assert!(r.amplification() > 1.0, "{}", r.label);
    }
}

#[test]
fn fault_tolerance_extension_driver() {
    let params = fault_tolerance::FaultToleranceParams::quick(20);
    let rows = fault_tolerance::measure(&params);
    // All 8 kinds x 6 loss rates.
    assert_eq!(rows.len(), params.kinds.len() * params.losses.len());
    assert_eq!(rows.len(), 48);
    for r in &rows {
        assert_eq!(r.agg.path.n, params.lookups, "{} at {}", r.label, r.loss);
        assert!(r.success_rate() > 0.9, "{} at {}% loss", r.label, r.loss);
        assert!(r.agg.latency_ms.mean > 0.0, "{}", r.label);
        if r.loss == 0.0 {
            assert_eq!(r.agg.retries.max, 0.0, "{}", r.label);
            assert_eq!(r.agg.failures, 0, "{}", r.label);
        }
    }
    // Rows are ordered loss-major: for every kind, the zero-loss cell
    // retries nothing and the 20%-loss cell retries plenty.
    let kinds = params.kinds.len();
    for (k, kind) in params.kinds.iter().enumerate() {
        let first = &rows[k];
        let last = &rows[(params.losses.len() - 1) * kinds + k];
        assert_eq!(first.agg.retries.mean, 0.0, "{}", kind.label());
        assert!(
            last.agg.retries.mean > first.agg.retries.mean,
            "{}: retries must grow with loss",
            kind.label()
        );
    }
}

#[test]
fn fault_tolerance_audit_smoke() {
    // Quick params run with per-cell full-scope audits: message faults
    // must never mutate routing state at any loss rate.
    let rows = fault_tolerance::measure(&fault_tolerance::FaultToleranceParams::quick(21));
    for r in &rows {
        let audit = r.audit.as_ref().expect("quick params enable auditing");
        assert!(audit.checked_nodes() > 0);
        assert!(audit.is_clean(), "{} at {}% loss: {audit}", r.label, r.loss);
    }
}

// --- audit-enabled smoke tests: one per experiments module ----------------
//
// Each driver regenerates a figure from networks it builds internally;
// these companions rebuild the same population shapes and run the
// protocol-invariant audit over them, so a regression in construction or
// maintenance is reported with the violated invariant's name instead of a
// skewed statistic.

#[test]
fn static_tables_audit_smoke() {
    // Table 2's degree column describes the same state the audit's
    // state-size invariants bound; check them on live networks of every
    // kind the table lists.
    for kind in ALL_KINDS {
        full_audit_clean(kind, 64, 10);
    }
}

#[test]
fn path_length_audit_smoke() {
    // Fig 5-7 populate the full id space (n = d * 2^d); audit that shape.
    for kind in PAPER_KINDS {
        full_audit_clean(kind, 160, 11);
    }
}

#[test]
fn key_distribution_audit_smoke() {
    // Figs 8/9 use a partially filled 2048-slot space.
    let net = build_overlay_spaced(OverlayKind::Cycloid7, 120, 256, 12);
    let report = net.audit_state(AuditScope::Full);
    assert_eq!(report.checked_nodes(), 120);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn query_load_audit_smoke() {
    // Fig 10 hammers the network with lookups; routing must not perturb
    // any audited state.
    let mut net = build_overlay(OverlayKind::Cycloid7, 96, 13);
    let mut rng = stream(13, "query-load-audit");
    let tokens = net.node_tokens();
    for i in 0..400 {
        let t = net.lookup(tokens[i % tokens.len()], rng.gen());
        assert!(t.outcome.is_success());
    }
    let report = net.audit_state(AuditScope::Full);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn mass_departure_audit_smoke() {
    // Fig 11 / Table 4: after a 40% crash wave the online audit names the
    // stale state, and one stabilization round restores a clean full
    // audit.
    let mut net = build_overlay(OverlayKind::Chord, 256, 14);
    let mut rng = stream(14, "mass-departure-audit");
    for token in net.node_tokens() {
        if rng.gen_bool(0.4) {
            net.fail(token);
        }
    }
    let broken = net.audit_state(AuditScope::Online);
    assert!(
        broken
            .violated_invariants()
            .contains(&"chord/successor-list"),
        "a 40% crash wave must leave stale successor lists: {broken}"
    );
    net.stabilize();
    let report = net.audit_state(AuditScope::Full);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn churn_audit_smoke() {
    // Fig 12 / Table 5: quick parameters run with the in-driver online
    // audit enabled; every cell must come back clean.
    let rows = churn_exp::measure(&churn_exp::ChurnExpParams::quick(15));
    for r in &rows {
        let audit = r.audit.as_ref().expect("quick params enable auditing");
        assert!(audit.checked_nodes() > 0);
        assert!(audit.is_clean(), "{} at R={}: {audit}", r.label, r.rate);
    }
}

#[test]
fn sparsity_audit_smoke() {
    // Figs 13/14 populate a fraction of a fixed id space.
    for kind in PAPER_KINDS {
        let net = build_overlay_spaced(kind, 205, 512, 16);
        let report = net.audit_state(AuditScope::Full);
        assert_eq!(report.checked_nodes(), net.len(), "{}", kind.label());
        assert!(report.is_clean(), "{report}");
    }
}

#[test]
fn ungraceful_audit_smoke() {
    // The extfail extension: crash a fraction, stabilize, audit fully.
    let mut net = build_overlay(OverlayKind::Cycloid7, 192, 17);
    let mut rng = stream(17, "ungraceful-audit");
    for token in net.node_tokens() {
        if rng.gen_bool(0.25) {
            net.fail(token);
        }
    }
    net.stabilize();
    let report = net.audit_state(AuditScope::Full);
    assert!(report.is_clean(), "{report}");
}

#[test]
fn maintenance_audit_smoke() {
    // The extdegree extension reports degrees; the audit bounds the same
    // state sizes per node.
    for kind in dht_sim::EXTENDED_KINDS {
        full_audit_clean(kind, 96, 18);
    }
}

#[test]
fn hotspot_audit_smoke() {
    // The exthotspot extension routes many lookups to one key; repeated
    // convergent routing must leave all state intact.
    let mut net = build_overlay(OverlayKind::Cycloid7, 96, 19);
    let tokens = net.node_tokens();
    let hot_key = 0xdead_beef_u64;
    for i in 0..300 {
        let t = net.lookup(tokens[i % tokens.len()], hot_key);
        assert!(t.outcome.is_success());
    }
    let report = net.audit_state(AuditScope::Full);
    assert!(report.is_clean(), "{report}");
}
