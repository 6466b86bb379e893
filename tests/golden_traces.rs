//! Deterministic golden-trace tests: fixed-seed lookup traces for every
//! overlay, compared line-by-line against checked-in files under
//! `tests/golden/`. The rendering harness lives in `tests/common/` and
//! is shared with `obs_traces.rs`.
//!
//! Each line records one lookup end to end — index, source token, raw key,
//! outcome, terminal token, timeout count, and the comma-joined hop-phase
//! tags — so any change to a routing decision (a different next hop, an
//! extra phase, a new terminal) shifts at least one line and fails the
//! test for that overlay.
//!
//! The `*_lossy` variants replay the same workload under a fixed
//! [`FaultPlan`](dht_core::net::FaultPlan) (10% loss, 20–80 ms RTT, 2%
//! duplication) and additionally pin each lookup's message retries and
//! simulated latency, covering the deterministic fault path end to end.
//!
//! `churn.txt` pins the churn engine instead of single lookups: one line
//! per cell of a 64-configuration grid (8 kinds × 2 time models ×
//! repair on/off × ideal/lossy network) with telemetry, the sampler,
//! and the audit on. Each line carries a `splitmix64`
//! fold over every per-lookup stream, the final load table and
//! membership, the telemetry samples, and the phase table, plus the
//! scalar counters in the clear so a diff names what moved.
//!
//! `stale.txt` pins the fallback order: every kind at n = 256 after 40%
//! of the nodes `fail` with no stabilization, 64 lookups each through
//! `lookup`, so repair-on-use runs between them. The per-lookup files
//! above never time out; here most walks meet dead candidates and take
//! the second or third entry of a plan.
//!
//! To regenerate after an *intentional* routing change:
//!
//! ```text
//! GOLDEN_REGEN=1 cargo test --test golden_traces
//! git diff tests/golden/    # review every changed line before committing
//! ```

mod common;

use std::fmt::Write as _;

use common::{golden_path, lossy_conditions, render_stale, render_traces, SEED};
use cycloid_repro::prelude::OverlayKind;
use dht_core::hash::splitmix64;
use dht_core::net::NetConditions;
use dht_core::obs::Telemetry;
use dht_core::rng::stream_indexed;
use dht_sim::churn::{run_churn, ChurnParams, TimeModel};
use dht_sim::factory::{build_overlay_spaced, ALL_KINDS};

/// Compares the replayed trace against the checked-in golden file, or
/// rewrites the file when `GOLDEN_REGEN` is set.
fn check_golden(kind: OverlayKind, name: &str) {
    check_golden_with(kind, name, None);
}

fn check_golden_with(kind: OverlayKind, name: &str, conditions: Option<NetConditions>) {
    check_golden_text(name, &render_traces(kind, conditions));
}

fn check_golden_text(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("GOLDEN_REGEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden");
        std::fs::write(&path, actual).expect("write golden file");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden file {}: {e}\n\
             regenerate with: GOLDEN_REGEN=1 cargo test --test golden_traces",
            path.display()
        )
    });
    if expected != actual {
        let mismatch = expected
            .lines()
            .zip(actual.lines())
            .enumerate()
            .find(|(_, (e, a))| e != a);
        let detail = match mismatch {
            Some((line, (e, a))) => {
                format!(
                    "first mismatch at line {}:\n  golden: {e}\n  actual: {a}",
                    line + 1
                )
            }
            None => format!(
                "line count differs: golden {} vs actual {}",
                expected.lines().count(),
                actual.lines().count()
            ),
        };
        panic!(
            "golden output for {name} diverged from {}\n{detail}\n\
             if the behaviour change is intentional, regenerate with:\n  \
             GOLDEN_REGEN=1 cargo test --test golden_traces\n\
             and review the diff under tests/golden/ before committing",
            path.display()
        );
    }
}

#[test]
fn golden_cycloid7() {
    check_golden(OverlayKind::Cycloid7, "cycloid7");
}

#[test]
fn golden_cycloid11() {
    check_golden(OverlayKind::Cycloid11, "cycloid11");
}

#[test]
fn golden_chord() {
    check_golden(OverlayKind::Chord, "chord");
}

#[test]
fn golden_koorde() {
    check_golden(OverlayKind::Koorde, "koorde");
}

#[test]
fn golden_pastry() {
    check_golden(OverlayKind::Pastry, "pastry");
}

#[test]
fn golden_viceroy() {
    check_golden(OverlayKind::Viceroy, "viceroy");
}

#[test]
fn golden_can() {
    check_golden(OverlayKind::Can, "can");
}

#[test]
fn golden_cycloid7_lossy() {
    check_golden_with(
        OverlayKind::Cycloid7,
        "cycloid7_lossy",
        Some(lossy_conditions()),
    );
}

#[test]
fn golden_chord_lossy() {
    check_golden_with(OverlayKind::Chord, "chord_lossy", Some(lossy_conditions()));
}

#[test]
fn golden_workload_is_replayable() {
    // The harness itself must be deterministic, or the files would churn
    // on every regeneration.
    assert_eq!(
        render_traces(OverlayKind::Chord, None),
        render_traces(OverlayKind::Chord, None)
    );
    assert_eq!(
        render_traces(OverlayKind::Chord, Some(lossy_conditions())),
        render_traces(OverlayKind::Chord, Some(lossy_conditions()))
    );
}

/// Renders one line per churn configuration (see the module docs).
fn render_churn_grid() -> String {
    let mut out = String::from(
        "# golden churn: n=96 id_space=160 lookups=300 lookup_rate=2 churn_rate=0.3 T=10 jobs=2 sample=7s\n\
         # line: kind time repair net hash failures joins leaves final peak \
         stabilize_calls stabilize_rounds sim_end_us stranded repair_entries\n",
    );
    for (k, &kind) in ALL_KINDS.iter().enumerate() {
        for time in [TimeModel::Rounds, TimeModel::Continuous] {
            for repair in [false, true] {
                for lossy in [false, true] {
                    let mut net = build_overlay_spaced(kind, 96, 160, SEED + k as u64);
                    let mut rng = stream_indexed(SEED, "golden-churn", k as u64);
                    let telemetry = Telemetry::enabled();
                    let params = ChurnParams {
                        lookup_rate: 2.0,
                        churn_rate: 0.3,
                        stabilization_period_secs: 10,
                        lookups: 300,
                        warmup_lookups: 10,
                        audit: true,
                        conditions: if lossy {
                            lossy_conditions()
                        } else {
                            NetConditions::ideal()
                        },
                        jobs: 2,
                        time,
                        repair,
                        telemetry: telemetry.clone(),
                        sample_every_us: 7_000_000,
                    };
                    let o = run_churn(net.as_mut(), params, &mut rng);
                    let mut h = 0u64;
                    let mut fold = |x: u64| h = splitmix64(h ^ x);
                    for stream in [&o.timeouts, &o.retries, &o.latency_us, &o.elapsed_us] {
                        fold(stream.len() as u64);
                        stream.iter().for_each(|&x| fold(x));
                    }
                    o.path_lens.iter().for_each(|&x| fold(x as u64));
                    net.query_loads().into_iter().for_each(&mut fold);
                    net.node_tokens().into_iter().for_each(&mut fold);
                    for s in &o.samples {
                        fold(s.t_us);
                        fold(s.live_nodes);
                        s.phase_msgs.iter().for_each(|&x| fold(x));
                        fold(s.load_p50);
                        fold(s.load_p99);
                        fold(s.audit_violations);
                        fold(s.bytes_per_node.to_bits());
                    }
                    let table = telemetry.read(|r| r.phases.clone()).unwrap();
                    for (_, c) in table.iter() {
                        [
                            c.calls,
                            c.msgs,
                            c.retries,
                            c.timeouts,
                            c.repair_entries,
                            c.time_us,
                        ]
                        .into_iter()
                        .for_each(&mut fold);
                    }
                    let audit = o.audit.as_ref().expect("audit requested");
                    fold(audit.checked_nodes() as u64);
                    fold(audit.violations().len() as u64);
                    writeln!(
                        out,
                        "{} {time:?} repair={repair} net={} hash={h:016x} \
                             failures={} joins={} leaves={} final={} peak={} stabilize_calls={} \
                             stabilize_rounds={} sim_end_us={} stranded={} repair_entries={}",
                        kind.label(),
                        if lossy { "lossy" } else { "ideal" },
                        o.failures,
                        o.joins,
                        o.leaves,
                        o.final_size,
                        o.peak_size,
                        o.stabilize_calls,
                        o.stabilize_rounds,
                        o.sim_end_us,
                        o.stranded,
                        o.repair_entries
                    )
                    .unwrap();
                }
            }
        }
    }
    out
}

#[test]
fn golden_churn() {
    check_golden_text("churn", &render_churn_grid());
}

#[test]
fn golden_stale() {
    check_golden_text("stale", &render_stale(Telemetry::disabled()));
}
