//! Shared golden-trace harness: replays a fixed-seed lookup workload on
//! a freshly built overlay and renders the line-per-lookup trace format
//! the files under `tests/golden/` pin. Used by `golden_traces.rs` (the
//! byte-level regression tests) and `obs_traces.rs` (which re-runs the
//! same workload with telemetry enabled to prove recording never
//! perturbs routing).
#![allow(dead_code)] // each test binary uses its own subset

use std::fmt::Write as _;
use std::path::PathBuf;

use cycloid_repro::prelude::{build_overlay, OverlayKind};
use dht_core::net::{DelayModel, FaultPlan, NetConditions, RetryPolicy};
use dht_core::obs::Telemetry;
use dht_core::rng::{stream, stream_indexed};
use dht_sim::ALL_KINDS;
use rand::Rng;

/// Network size for every golden trace.
pub const NODES: usize = 64;
/// Master seed for both the network build and the key stream.
pub const SEED: u64 = 42;
/// Lookups recorded per overlay.
pub const LOOKUPS: usize = 48;

/// Every overlay kind with a plain (fault-free) golden file, paired with
/// its file stem under `tests/golden/`.
pub const GOLDEN_KINDS: [(OverlayKind, &str); 7] = [
    (OverlayKind::Cycloid7, "cycloid7"),
    (OverlayKind::Cycloid11, "cycloid11"),
    (OverlayKind::Chord, "chord"),
    (OverlayKind::Koorde, "koorde"),
    (OverlayKind::Pastry, "pastry"),
    (OverlayKind::Viceroy, "viceroy"),
    (OverlayKind::Can, "can"),
];

/// The fixed fault plan behind every `*_lossy` golden file.
pub fn lossy_conditions() -> NetConditions {
    NetConditions::new(
        FaultPlan {
            seed: 7,
            loss: 0.10,
            delay: DelayModel::Uniform(20_000, 80_000),
            duplicate: 0.02,
        },
        RetryPolicy::standard(),
    )
}

/// Absolute path of one golden file.
pub fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"))
}

/// Replays the fixed workload on a freshly built overlay and renders the
/// trace file content with telemetry disabled. With `conditions`,
/// lookups run under that fault plan and every line additionally pins
/// retries and latency; without, the format is byte-identical to the
/// pre-fault-layer files.
pub fn render_traces(kind: OverlayKind, conditions: Option<NetConditions>) -> String {
    render_with(kind, conditions, None, None)
}

/// [`render_traces`] with `telemetry` installed before the workload
/// runs. Recording is observation, never a routing input, so the
/// rendered text must not depend on it — `obs_traces.rs` pins that
/// equivalence against the checked-in golden files.
pub fn render_traces_with(
    kind: OverlayKind,
    conditions: Option<NetConditions>,
    telemetry: Telemetry,
) -> String {
    let prepare: PrepareFn = &move |net: &mut dyn dht_core::overlay::Overlay| {
        net.set_telemetry(telemetry.clone());
    };
    render_with(kind, conditions, None, Some(prepare))
}

/// [`render_traces`] routed through `Overlay::lookup_batch` with the
/// given worker cap instead of one `lookup` call at a time. Batch
/// semantics defer repair-on-use to the end of the batch, so the output
/// is its own canonical form (not byte-equal to the golden files for
/// repairing overlays) — but it must be byte-identical for *every*
/// `jobs` value; `parallel_determinism.rs` pins that.
pub fn render_traces_jobs(
    kind: OverlayKind,
    conditions: Option<NetConditions>,
    jobs: usize,
) -> String {
    render_with(kind, conditions, Some(jobs), None)
}

/// A hook run on the freshly built overlay before the golden workload.
pub type PrepareFn<'a> = &'a dyn Fn(&mut dyn dht_core::overlay::Overlay);

/// [`render_traces`] with `prepare` run on the freshly built overlay
/// before the workload. `self_stabilization.rs` pins that a full
/// self-repair sweep over a healthy network leaves the rendered traces
/// byte-identical to the checked-in golden files.
pub fn render_traces_prepared(
    kind: OverlayKind,
    conditions: Option<NetConditions>,
    prepare: PrepareFn,
) -> String {
    render_with(kind, conditions, None, Some(prepare))
}

fn render_with(
    kind: OverlayKind,
    conditions: Option<NetConditions>,
    jobs: Option<usize>,
    prepare: Option<PrepareFn>,
) -> String {
    let mut net = build_overlay(kind, NODES, SEED);
    if let Some(prepare) = prepare {
        prepare(net.as_mut());
    }
    if let Some(c) = conditions {
        net.set_net_conditions(c);
    }
    let tokens = net.node_tokens();
    let mut keys = stream(SEED, "golden-keys");
    let mut out = String::new();
    writeln!(
        out,
        "# golden trace: {} n={NODES} seed={SEED} lookups={LOOKUPS}",
        net.name()
    )
    .unwrap();
    if let Some(c) = conditions {
        writeln!(
            out,
            "# fault plan: seed={} loss={} delay={:?} duplicate={} retry(max_attempts={} base_us={} factor={} cap_us={})",
            c.plan.seed,
            c.plan.loss,
            c.plan.delay,
            c.plan.duplicate,
            RetryPolicy::MAX_ATTEMPTS,
            RetryPolicy::BASE_TIMEOUT_US,
            RetryPolicy::BACKOFF_FACTOR,
            RetryPolicy::MAX_TIMEOUT_US
        )
        .unwrap();
        writeln!(
            out,
            "# line: index src key -> outcome @terminal timeouts retries latency_us phases"
        )
        .unwrap();
    } else {
        writeln!(
            out,
            "# line: index src key -> outcome @terminal timeouts phases"
        )
        .unwrap();
    }
    let reqs: Vec<(u64, u64)> = (0..LOOKUPS)
        .map(|i| (tokens[i % tokens.len()], keys.gen()))
        .collect();
    let traces: Vec<_> = match jobs {
        Some(n) => net.lookup_batch(&reqs, n),
        None => reqs
            .iter()
            .map(|&(src, key)| net.lookup(src, key))
            .collect(),
    };
    render_lines(&mut out, &reqs, &traces, conditions.is_some());
    out
}

/// Renders the `stale.txt` workload for all eight kinds with
/// `telemetry` installed: every kind at n = 256 after 40% of the nodes
/// `fail` with no stabilization, 64 lookups each through `lookup`, so
/// repair-on-use runs between them.
pub fn render_stale(telemetry: Telemetry) -> String {
    const NODES: usize = 256;
    const LOOKUPS: usize = 64;
    let mut out = String::new();
    for (k, &kind) in ALL_KINDS.iter().enumerate() {
        let mut net = build_overlay(kind, NODES, SEED);
        net.set_telemetry(telemetry.clone());
        let mut rng = stream_indexed(SEED, "golden-stale", k as u64);
        for token in net.node_tokens() {
            if rng.gen_bool(0.4) {
                net.fail(token);
            }
        }
        let live = net.node_tokens();
        writeln!(
            out,
            "# golden stale: {} n={NODES} seed={SEED} failed={} lookups={LOOKUPS}\n\
             # line: index src key -> outcome @terminal timeouts phases",
            kind.label(),
            NODES - live.len()
        )
        .unwrap();
        let reqs: Vec<(u64, u64)> = (0..LOOKUPS)
            .map(|i| (live[i % live.len()], rng.gen()))
            .collect();
        let traces: Vec<_> = reqs
            .iter()
            .map(|&(src, key)| net.lookup(src, key))
            .collect();
        render_lines(&mut out, &reqs, &traces, false);
    }
    out
}

/// Appends one line per lookup in the golden line format; `lossy` adds
/// the retry and latency columns.
pub fn render_lines(
    out: &mut String,
    reqs: &[(u64, u64)],
    traces: &[dht_core::lookup::LookupTrace],
    lossy: bool,
) {
    for (i, (&(src, key), trace)) in reqs.iter().zip(traces).enumerate() {
        let phases = if trace.hops.is_empty() {
            "-".to_string()
        } else {
            trace
                .hops
                .iter()
                .map(|h| h.label())
                .collect::<Vec<_>>()
                .join(",")
        };
        if lossy {
            writeln!(
                out,
                "{i:02} src={src:#x} key={key:#018x} -> {:?} @{:#x} timeouts={} retries={} latency_us={} {phases}",
                trace.outcome, trace.terminal, trace.timeouts, trace.net.retries, trace.net.latency_us
            )
            .unwrap();
        } else {
            writeln!(
                out,
                "{i:02} src={src:#x} key={key:#018x} -> {:?} @{:#x} timeouts={} {phases}",
                trace.outcome, trace.terminal, trace.timeouts
            )
            .unwrap();
        }
    }
}
