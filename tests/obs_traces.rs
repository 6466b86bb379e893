//! Observability regression tests: enabling telemetry must never change
//! routing, and what it records must agree with what the lookups
//! returned.
//!
//! The acceptance bar is that every golden trace under `tests/golden/`
//! stays **byte-identical** with an enabled [`Telemetry`] installed:
//! events and bills are recorded after the routing decisions and fault
//! draws, so what the record holds cannot feed back. `churn.txt` is
//! rendered with telemetry on already (`golden_traces.rs`); the
//! per-phase bills under the same goldens are pinned in
//! `phase_accounting.rs`.

mod common;

use common::{
    golden_path, lossy_conditions, render_stale, render_traces_with, GOLDEN_KINDS, LOOKUPS,
};
use cycloid_repro::prelude::{build_overlay, OverlayKind};
use dht_core::lookup::LookupTrace;
use dht_core::net::NetConditions;
use dht_core::obs::{Event, Telemetry, TimeoutKind};
use dht_core::rng::stream;
use proptest::prelude::*;
use rand::Rng;

fn golden(name: &str) -> String {
    std::fs::read_to_string(golden_path(name))
        .unwrap_or_else(|e| panic!("missing golden file for {name}: {e}"))
}

/// Every plain and lossy golden, with its overlay kind and fault plan.
fn goldens() -> impl Iterator<Item = (OverlayKind, &'static str, Option<NetConditions>)> {
    let plain = GOLDEN_KINDS.iter().map(|&(kind, name)| (kind, name, None));
    let lossy = [
        (OverlayKind::Cycloid7, "cycloid7_lossy"),
        (OverlayKind::Chord, "chord_lossy"),
    ]
    .into_iter()
    .map(|(kind, name)| (kind, name, Some(lossy_conditions())));
    plain.chain(lossy)
}

/// The no-op arm: with a disabled handle installed explicitly, every
/// checked-in golden — plain, lossy and stale — is reproduced byte for
/// byte, and the handle holds no record.
#[test]
fn null_sink_keeps_golden_traces_byte_identical() {
    for (kind, name, conditions) in goldens() {
        let telemetry = Telemetry::disabled();
        let rendered = render_traces_with(kind, conditions, telemetry.clone());
        assert_eq!(
            golden(name),
            rendered,
            "{name}: disabled telemetry changed the trace"
        );
        assert!(telemetry.read(|r| r.lookups).is_none(), "{name}: recorded");
    }
    let telemetry = Telemetry::disabled();
    assert_eq!(
        golden("stale"),
        render_stale(telemetry.clone()),
        "stale: disabled telemetry changed the trace"
    );
    assert!(telemetry.read(|r| r.lookups).is_none(), "stale: recorded");
}

/// The recording arm: with an enabled handle buffering every event,
/// every checked-in golden is still reproduced byte for byte, and the
/// buffer really holds the workload — one `LookupStart` and one
/// `LookupEnd` per lookup, ids running 1..=N.
#[test]
fn ring_buffer_sink_keeps_golden_traces_byte_identical() {
    for (kind, name, conditions) in goldens() {
        let telemetry = Telemetry::enabled();
        let rendered = render_traces_with(kind, conditions, telemetry.clone());
        assert_eq!(
            golden(name),
            rendered,
            "{name}: telemetry changed the trace"
        );
        let (lookups, starts, ends) = telemetry
            .read(|r| {
                let count = |f: fn(&Event) -> bool| r.events.iter().filter(|e| f(e)).count();
                (
                    r.lookups,
                    count(|e| matches!(e, Event::LookupStart { .. })),
                    count(|e| matches!(e, Event::LookupEnd { .. })),
                )
            })
            .unwrap();
        assert_eq!(lookups, LOOKUPS as u64, "{name}: lookup ids");
        assert_eq!(
            (starts, ends),
            (LOOKUPS, LOOKUPS),
            "{name}: start/end events"
        );
    }
    let telemetry = Telemetry::enabled();
    assert_eq!(
        golden("stale"),
        render_stale(telemetry.clone()),
        "stale: telemetry changed the trace"
    );
    let ends = telemetry.read(|r| {
        r.events
            .iter()
            .filter(|e| matches!(e, Event::LookupEnd { .. }))
            .count()
    });
    assert!(ends > Some(0), "stale: no lookup recorded");
}

/// The lookup id of a lookup-scoped event.
fn lookup_of(event: &Event) -> u64 {
    match event {
        Event::LookupStart { lookup, .. }
        | Event::Hop { lookup, .. }
        | Event::Retry { lookup, .. }
        | Event::Timeout { lookup, .. }
        | Event::LookupEnd { lookup, .. } => *lookup,
        other => panic!("not a lookup event: {other:?}"),
    }
}

/// Holds the recorded events to the returned traces: the events of
/// lookup `i` (workload order) are one contiguous run carrying id
/// `i + 1`, open with its `LookupStart`, hold one `Hop` per hop in order
/// and one stale `Timeout` per timeout, and close with a `LookupEnd`
/// equal to the trace.
fn assert_events_match(ctx: &str, events: &[Event], reqs: &[(u64, u64)], traces: &[LookupTrace]) {
    let runs: Vec<&[Event]> = events
        .chunk_by(|a, b| lookup_of(a) == lookup_of(b))
        .collect();
    assert_eq!(
        runs.len(),
        traces.len(),
        "{ctx}: one run of events per lookup"
    );
    for (i, ((run, &(src, key)), trace)) in runs.into_iter().zip(reqs).zip(traces).enumerate() {
        let ctx = format!("{ctx}, lookup {i}");
        assert_eq!(lookup_of(&run[0]), i as u64 + 1, "{ctx}: ids run 1..=N");
        assert_eq!(
            run[0],
            Event::LookupStart {
                lookup: i as u64 + 1,
                src,
                key: Some(key),
            },
            "{ctx}"
        );
        let hops: Vec<_> = run
            .iter()
            .filter_map(|e| match e {
                Event::Hop { index, phase, .. } => Some((*index, *phase)),
                _ => None,
            })
            .collect();
        let want: Vec<_> = (0u32..).zip(trace.hops.iter().copied()).collect();
        assert_eq!(hops, want, "{ctx}: hops");
        let stale = run
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    Event::Timeout {
                        kind: TimeoutKind::Stale,
                        ..
                    }
                )
            })
            .count();
        assert_eq!(stale, trace.timeouts as usize, "{ctx}: stale timeouts");
        assert_eq!(
            run[run.len() - 1],
            Event::LookupEnd {
                lookup: i as u64 + 1,
                outcome: trace.outcome,
                terminal: trace.terminal,
                hops: trace.hops.len() as u32,
                timeouts: trace.timeouts,
                latency_us: trace.net.latency_us,
            },
            "{ctx}: LookupEnd"
        );
    }
}

/// The recorded event stream agrees with the returned traces, lookup by
/// lookup, through `lookup` and through `lookup_batch` at jobs 1 and 4,
/// on a lossy network with unstabilized departures (so retries, both
/// timeout kinds and latency are all in play).
#[test]
fn recorded_events_match_returned_traces() {
    let lookups = 32;
    for jobs in [None, Some(1), Some(4)] {
        let mut net = build_overlay(OverlayKind::Cycloid7, 64, 42);
        net.set_net_conditions(lossy_conditions());
        for token in net.node_tokens().into_iter().step_by(5) {
            net.fail(token);
        }
        let telemetry = Telemetry::enabled();
        net.set_telemetry(telemetry.clone());
        let tokens = net.node_tokens();
        let mut keys = stream(42, "obs-events");
        let reqs: Vec<(u64, u64)> = (0..lookups)
            .map(|i| (tokens[i % tokens.len()], keys.gen()))
            .collect();
        let traces = match jobs {
            Some(jobs) => net.lookup_batch(&reqs, jobs),
            None => reqs
                .iter()
                .map(|&(src, key)| net.lookup(src, key))
                .collect(),
        };
        let events = telemetry.read(|r| r.events.clone()).unwrap();
        assert_events_match(&format!("jobs {jobs:?}"), &events, &reqs, &traces);
        assert_eq!(telemetry.read(|r| r.lookups), Some(lookups as u64));
        assert!(traces.iter().any(|t| t.timeouts > 0), "no stale entry met");
        assert!(traces.iter().any(|t| t.net.retries > 0), "no retry made");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Across seeds and overlay kinds, runs with telemetry disabled and
    /// enabled produce identical lookup traces — outcome, terminal, hop
    /// sequence, timeout count, and message costs.
    #[test]
    fn telemetry_never_perturbs_lookups(seed in 0u64..1000, kind_ix in 0usize..GOLDEN_KINDS.len()) {
        let (kind, _) = GOLDEN_KINDS[kind_ix];
        let mut silent = build_overlay(kind, 48, seed);
        let mut recorded = build_overlay(kind, 48, seed);
        recorded.set_telemetry(Telemetry::enabled());
        let tokens = silent.node_tokens();
        let mut keys = stream(seed, "obs-prop");
        for i in 0..16usize {
            let src = tokens[i % tokens.len()];
            let key: u64 = keys.gen();
            let a = silent.lookup(src, key);
            let b = recorded.lookup(src, key);
            prop_assert_eq!(&a.hops, &b.hops);
            prop_assert_eq!(a.outcome, b.outcome);
            prop_assert_eq!(a.terminal, b.terminal);
            prop_assert_eq!(a.timeouts, b.timeouts);
            prop_assert_eq!(a.net, b.net);
        }
    }
}
