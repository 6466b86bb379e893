//! Structured event tracing: a Cycloid lookup's life as JSON lines.
//!
//! Builds a 64-node Cycloid(7) network, enables [`Telemetry`] on it, runs
//! eight lookups, then prints every recorded event as one JSON object
//! per line on stdout: a `lookup_start`, a `hop` per forwarding step
//! tagged with its routing phase (ascending → descending → traverse, the
//! paper's §3.3 three-phase scheme), and a `lookup_end` with the outcome.
//! Commentary goes to stderr, so the stream stays pipeable:
//!
//! ```text
//! cargo run --release --example tracing_lookup 2>/dev/null | head
//! ```

use cycloid_repro::prelude::{build_overlay, OverlayKind};
use dht_core::obs::Telemetry;
use dht_core::rng::stream;
use rand::Rng;

fn main() {
    let mut net = build_overlay(OverlayKind::Cycloid7, 64, 42);
    eprintln!("built {} with {} nodes", net.name(), net.len());

    let telemetry = Telemetry::enabled();
    net.set_telemetry(telemetry.clone());

    let tokens = net.node_tokens();
    let mut keys = stream(42, "tracing-example");
    for i in 0..8 {
        let src = tokens[i * 7 % tokens.len()];
        let key: u64 = keys.gen();
        let trace = net.lookup(src, key);
        let phases: Vec<&str> = trace.hops.iter().map(|h| h.label()).collect();
        eprintln!(
            "lookup {i}: key {key:#018x} resolved {:?} at {:#x} in {} hops ({})",
            trace.outcome,
            trace.terminal,
            trace.hops.len(),
            if phases.is_empty() {
                "local".to_string()
            } else {
                phases.join(" -> ")
            }
        );
    }

    let events = telemetry.read(|r| r.events.clone()).expect("enabled");
    for event in &events {
        println!("{}", event.to_json_line());
    }
    eprintln!("{} events; pipe stdout to jq for analysis", events.len());
}
