//! Pins, entry by entry, what the `Full` audit reports and what repair
//! counts on damaged networks of the six kinds whose stabilizer is a
//! refresh (Chord, Koorde, Koorde best-fit, Pastry, Cycloid(7/11)).
//!
//! `tests/audit_sweep.rs` compares (node, invariant) multisets only, so
//! it would not see a changed `detail` text or a repair that mends the
//! same nodes with different entry counts. Here each damaged state folds
//! every (node, invariant, detail) of `audit_state(Full)` in report
//! order, then every `repair_node` return in token order, into one
//! committed number. The damaged states are 10 % silent failures with no
//! stabilization, and each corruption strategy at severities 0.25 and
//! 0.5. After the repairs the full audit must be clean.

use cycloid_repro::prelude::*;
use dht_core::corrupt::{CorruptionPlan, CorruptionStrategy};
use dht_core::hash::splitmix64;

const KINDS: [OverlayKind; 6] = [
    OverlayKind::Chord,
    OverlayKind::Koorde,
    OverlayKind::KoordeBestFit,
    OverlayKind::Pastry,
    OverlayKind::Cycloid7,
    OverlayKind::Cycloid11,
];

/// Nodes per network: the spaces are sized to fit, so links collide,
/// wrap and run into empty blocks and cycles.
const N: usize = 300;

/// One damage applied to a freshly built network.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Damage {
    /// Every tenth node fails silently; nobody stabilizes.
    Failures,
    /// One corruption plan, at a severity.
    Corrupt(CorruptionStrategy, f64),
}

impl Damage {
    fn all() -> Vec<Damage> {
        let mut all = vec![Damage::Failures];
        for strategy in CorruptionStrategy::ALL {
            for severity in [0.25, 0.5] {
                all.push(Damage::Corrupt(strategy, severity));
            }
        }
        all
    }

    fn label(self) -> String {
        match self {
            Damage::Failures => "fail-10%".to_string(),
            Damage::Corrupt(strategy, severity) => format!("{}-{severity}", strategy.label()),
        }
    }
}

/// Builds `kind`, applies `damage`, and folds the full audit's
/// violations and each node's repair count.
fn damaged_fold(kind: OverlayKind, damage: Damage) -> u64 {
    let what = format!("{} {}", kind.label(), damage.label());
    let mut net = build_overlay(kind, N, 48);
    let tokens = net.node_tokens();
    match damage {
        Damage::Failures => {
            for &t in tokens.iter().step_by(10) {
                assert!(net.fail(t), "{what}");
            }
        }
        Damage::Corrupt(strategy, severity) => {
            let report = net.corrupt_state(&CorruptionPlan::new(strategy, severity, 7));
            assert!(report.corrupted_nodes > 0, "{what}: no damage done");
        }
    }
    let mut fold = hash_str(&what);
    let mut mix = |x: u64| fold = splitmix64(fold ^ x);
    let audit = net.audit_state(AuditScope::Full);
    assert!(!audit.is_clean(), "{what}: the damage audits clean");
    for v in audit.violations() {
        mix(v.node);
        mix(hash_str(v.invariant));
        mix(hash_str(&v.detail));
    }
    for t in net.node_tokens() {
        mix(t);
        mix(net.repair_node(t));
    }
    let after = net.audit_state(AuditScope::Full);
    assert!(after.is_clean(), "{what}: {after}");
    fold
}

#[test]
fn full_audits_and_repairs_are_pinned() {
    let mut got = Vec::new();
    for kind in KINDS {
        for damage in Damage::all() {
            got.push((kind, damage.label(), damaged_fold(kind, damage)));
        }
    }
    let table: String = got
        .iter()
        .map(|(kind, label, fold)| {
            format!("    (OverlayKind::{kind:?}, \"{label}\", {fold:#018x}),\n")
        })
        .collect();
    let expected: Vec<(OverlayKind, String, u64)> = PINNED
        .iter()
        .map(|&(kind, label, fold)| (kind, label.to_string(), fold))
        .collect();
    assert_eq!(got, expected, "measured:\n{table}");
}

/// `(kind, damage, fold)`, measured before the refresh was split into a
/// pure computation and its writer; unchanged since.
const PINNED: [(OverlayKind, &str, u64); 66] = [
    (OverlayKind::Chord, "fail-10%", 0xa4169a3d83e396c3),
    (OverlayKind::Chord, "randomize-0.25", 0x938d661435dc99f6),
    (OverlayKind::Chord, "randomize-0.5", 0x63222a73c0446e00),
    (OverlayKind::Chord, "ghost-0.25", 0xb7fd442b637d412d),
    (OverlayKind::Chord, "ghost-0.5", 0xce14bceb50aa028b),
    (OverlayKind::Chord, "crosswire-0.25", 0x76621063f0c86a6b),
    (OverlayKind::Chord, "crosswire-0.5", 0x6f34076925b4685b),
    (OverlayKind::Chord, "zero-0.25", 0xd1906175fbb57195),
    (OverlayKind::Chord, "zero-0.5", 0xc9db66638f1c26c3),
    (OverlayKind::Chord, "eclipse-0.25", 0xab4f0c1cf7f38b8d),
    (OverlayKind::Chord, "eclipse-0.5", 0x574f0a952bfb9ee5),
    (OverlayKind::Koorde, "fail-10%", 0x5f21c144fd9c2e2c),
    (OverlayKind::Koorde, "randomize-0.25", 0x1995e1f2e9c8b278),
    (OverlayKind::Koorde, "randomize-0.5", 0x4f414c902a3c567f),
    (OverlayKind::Koorde, "ghost-0.25", 0xeaddcb9ee1d7224e),
    (OverlayKind::Koorde, "ghost-0.5", 0x71dfac07762df9d9),
    (OverlayKind::Koorde, "crosswire-0.25", 0x69beb0e46e58e0de),
    (OverlayKind::Koorde, "crosswire-0.5", 0xce5cb7b802036dba),
    (OverlayKind::Koorde, "zero-0.25", 0xd71df7e48fd4e6a7),
    (OverlayKind::Koorde, "zero-0.5", 0x8dcdd0673bb05b1f),
    (OverlayKind::Koorde, "eclipse-0.25", 0xfe989095ce55a97a),
    (OverlayKind::Koorde, "eclipse-0.5", 0x35974d482e84a175),
    (OverlayKind::KoordeBestFit, "fail-10%", 0xad18df0b10166066),
    (
        OverlayKind::KoordeBestFit,
        "randomize-0.25",
        0x1d45e6c87d25409b,
    ),
    (
        OverlayKind::KoordeBestFit,
        "randomize-0.5",
        0xd06a8084d13620b2,
    ),
    (OverlayKind::KoordeBestFit, "ghost-0.25", 0x93b65750d17e819d),
    (OverlayKind::KoordeBestFit, "ghost-0.5", 0x769b559df42733b4),
    (
        OverlayKind::KoordeBestFit,
        "crosswire-0.25",
        0xf5b577be02330952,
    ),
    (
        OverlayKind::KoordeBestFit,
        "crosswire-0.5",
        0x3a0fd950d4237323,
    ),
    (OverlayKind::KoordeBestFit, "zero-0.25", 0x1c75def1cbea9fd1),
    (OverlayKind::KoordeBestFit, "zero-0.5", 0x8b7d95cb96d3497a),
    (
        OverlayKind::KoordeBestFit,
        "eclipse-0.25",
        0x2e6fb6fe2d11e7e0,
    ),
    (
        OverlayKind::KoordeBestFit,
        "eclipse-0.5",
        0x16a6434ba0696418,
    ),
    (OverlayKind::Pastry, "fail-10%", 0x526229b0b9aed7fb),
    (OverlayKind::Pastry, "randomize-0.25", 0x6258815a3ca7dd26),
    (OverlayKind::Pastry, "randomize-0.5", 0xfb85c39ccf7ed241),
    (OverlayKind::Pastry, "ghost-0.25", 0xae29acad61fa0aa7),
    (OverlayKind::Pastry, "ghost-0.5", 0x148714518ca58464),
    (OverlayKind::Pastry, "crosswire-0.25", 0x1c27f31a7e55a26d),
    (OverlayKind::Pastry, "crosswire-0.5", 0xc1bca20b1c823d32),
    (OverlayKind::Pastry, "zero-0.25", 0x50c305d7162aeca4),
    (OverlayKind::Pastry, "zero-0.5", 0xb4704bbcb393f55e),
    (OverlayKind::Pastry, "eclipse-0.25", 0x796f11a79de69f0b),
    (OverlayKind::Pastry, "eclipse-0.5", 0x56523ba10e87dfe8),
    (OverlayKind::Cycloid7, "fail-10%", 0x2e5c5b4fa1c44ee8),
    (OverlayKind::Cycloid7, "randomize-0.25", 0x0ccd340c731445e4),
    (OverlayKind::Cycloid7, "randomize-0.5", 0x26dacd09014a332a),
    (OverlayKind::Cycloid7, "ghost-0.25", 0x2b6968994ad2c409),
    (OverlayKind::Cycloid7, "ghost-0.5", 0x9dcf133c8175fd59),
    (OverlayKind::Cycloid7, "crosswire-0.25", 0x09b40971092ce048),
    (OverlayKind::Cycloid7, "crosswire-0.5", 0x4389534482c77d72),
    (OverlayKind::Cycloid7, "zero-0.25", 0xad695d6a424e64fc),
    (OverlayKind::Cycloid7, "zero-0.5", 0xf92c5475a6e59c7f),
    (OverlayKind::Cycloid7, "eclipse-0.25", 0x56b566254f993cfa),
    (OverlayKind::Cycloid7, "eclipse-0.5", 0x3378a1f943b98850),
    (OverlayKind::Cycloid11, "fail-10%", 0xc1bd9f9076b506cc),
    (OverlayKind::Cycloid11, "randomize-0.25", 0xcf06f8bea7df4ca9),
    (OverlayKind::Cycloid11, "randomize-0.5", 0x4737e354834efbe1),
    (OverlayKind::Cycloid11, "ghost-0.25", 0x3dfb43e7219f6d1d),
    (OverlayKind::Cycloid11, "ghost-0.5", 0x8296b34fc07b3efc),
    (OverlayKind::Cycloid11, "crosswire-0.25", 0x5523e832f66ac510),
    (OverlayKind::Cycloid11, "crosswire-0.5", 0xb3bc3ccc59b7b5ae),
    (OverlayKind::Cycloid11, "zero-0.25", 0xdc3d220d39e9de79),
    (OverlayKind::Cycloid11, "zero-0.5", 0x6d05a90acedbcc17),
    (OverlayKind::Cycloid11, "eclipse-0.25", 0xf550458e3b7dcba4),
    (OverlayKind::Cycloid11, "eclipse-0.5", 0x767fd151bfaa70b9),
];
