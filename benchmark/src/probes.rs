//! Traced-run probes of the shared layers: `store`, `sim` (cursor and
//! effects), `net` and `clock`. Each drives the layer's public functions
//! with the workload's own networks and requests, leaves the network as it
//! found it, and draws from its own random stream, so a traced run
//! simulates exactly what an untraced one does.

use std::hint::black_box;
use std::time::Instant;

use dht_core::clock::{exp_delay, EventQueue};
use dht_core::net::NetConditions;
use dht_core::overlay::{NodeToken, Overlay};
use dht_core::rng::stream;
use dht_core::sim::CursorStep;
use dht_core::store::CompactStore;
use rand::Rng;

use crate::pipeline::delay_plan;
use crate::plan::BATCHES;
use crate::spans::Recorder;
use crate::stats::median;

/// Operations per timed block of the store and clock probes.
const BLOCK: usize = 1024;
/// Blocks per probe.
const BLOCKS: usize = 64;
/// Largest request sample the cursor and net probes replay.
const SAMPLE_CAP: usize = 4_096;

#[derive(Debug, Default, Clone)]
pub struct KindProbes {
    pub cursor: Option<CursorProbe>,
    /// Chord only: its tokens fill the probed store.
    pub store: Option<StoreProbe>,
    /// Cycloid(7) only.
    pub net: Option<NetProbe>,
}

#[derive(Debug, Clone)]
pub struct CursorProbe {
    /// Median `LookupCursor::step` span.
    pub step_ns: f64,
    /// Mean `apply_walk_effects` span.
    pub apply_ns_per_lookup: f64,
    /// begin -> step* -> finish -> apply wall over `Overlay::lookup` wall
    /// on the same requests, both without spans.
    pub overhead_ratio: f64,
}

#[derive(Debug, Clone)]
pub struct StoreProbe {
    pub get_ns: f64,
    pub successor_ns: f64,
    /// One remove plus one insert of a live token.
    pub insert_remove_ns: f64,
}

#[derive(Debug, Clone)]
pub struct NetProbe {
    /// Batch wall under the churn delay plan over the ideal network.
    pub delay_plan_ratio: f64,
    pub retries_per_lookup: f64,
}

#[derive(Debug, Clone)]
pub struct ClockProbe {
    pub schedule_pop_ns_d1k: f64,
    pub schedule_pop_ns_d64k: f64,
}

/// The probes that need `slug`'s network, run right after its lookup
/// phase on a sample of its requests.
pub fn kind_probes(
    net: &mut dyn Overlay,
    slug: &str,
    reqs: &[(NodeToken, u64)],
    seed: u64,
    rec: &mut Recorder,
) -> KindProbes {
    let sample = &reqs[..(reqs.len() / BATCHES).min(SAMPLE_CAP)];
    let probes = KindProbes {
        cursor: Some(cursor_probe(net, slug, sample, rec)),
        store: (slug == "chord").then(|| store_probe(net, reqs, seed, rec)),
        net: (slug == "cycloid7").then(|| net_probe(net, sample, seed, rec)),
    };
    net.reset_query_loads();
    probes
}

fn walk_by_cursor(net: &mut dyn Overlay, src: NodeToken, raw_key: u64) {
    let mut cursor = net.lookup_begin(src, raw_key);
    while let CursorStep::Forwarded { .. } = cursor.step(&*net) {}
    let (trace, fx) = cursor.finish();
    net.apply_walk_effects(fx);
    black_box(trace);
}

fn cursor_probe(
    net: &mut dyn Overlay,
    slug: &str,
    sample: &[(NodeToken, u64)],
    rec: &mut Recorder,
) -> CursorProbe {
    // The ratio first, with no spans in either path.
    let started = Instant::now();
    for &(src, raw_key) in sample {
        black_box(net.lookup(src, raw_key));
    }
    let direct_ns = started.elapsed().as_nanos() as f64;
    let started = Instant::now();
    for &(src, raw_key) in sample {
        walk_by_cursor(net, src, raw_key);
    }
    let cursor_ns = started.elapsed().as_nanos() as f64;

    // Then once more with one span per call under a per-lookup root.
    let root = rec.name(&format!("sim.cursor_walk_{slug}"));
    let begin = rec.name(&format!("sim.lookup_begin_{slug}"));
    let step = rec.name(&format!("sim.cursor_step_{slug}"));
    let finish = rec.name(&format!("sim.cursor_finish_{slug}"));
    let apply = rec.name(&format!("sim.apply_effects_{slug}"));
    for (i, &(src, raw_key)) in sample.iter().enumerate() {
        let request = i as u64 + 1;
        rec.span(root, request, |rec| {
            let mut cursor = rec.span(begin, request, |_| net.lookup_begin(src, raw_key));
            while let CursorStep::Forwarded { .. } = rec.span(step, request, |_| cursor.step(&*net))
            {
            }
            let (trace, fx) = rec.span(finish, request, |_| cursor.finish());
            rec.span(apply, request, |_| net.apply_walk_effects(fx));
            black_box(trace);
        });
    }
    let apply_ns = rec.durations_ns(apply);
    CursorProbe {
        step_ns: median(&rec.durations_ns(step)),
        apply_ns_per_lookup: apply_ns.iter().sum::<f64>() / apply_ns.len() as f64,
        overhead_ratio: cursor_ns / direct_ns,
    }
}

/// Median over blocks of ns per operation.
fn per_op_ns(rec: &mut Recorder, name: &str, mut block: impl FnMut(usize)) -> f64 {
    let name = rec.name(name);
    let per_op: Vec<f64> = (0..BLOCKS)
        .map(|b| {
            let ((), ns) = rec.timed(name, b as u64, |_| block(b));
            ns as f64 / BLOCK as f64
        })
        .collect();
    median(&per_op)
}

/// A `CompactStore<u64>` holding `net`'s tokens, probed with the
/// workload's request sources (`get`) and hashed keys (`successor_of`).
fn store_probe(
    net: &dyn Overlay,
    reqs: &[(NodeToken, u64)],
    seed: u64,
    rec: &mut Recorder,
) -> StoreProbe {
    let tokens = net.node_tokens();
    let mut store: CompactStore<u64> = CompactStore::new();
    for &token in &tokens {
        store.insert(token, token);
    }
    let at = |b: usize, i: usize| reqs[(b * BLOCK + i) % reqs.len()];
    let get_ns = per_op_ns(rec, "store.get", |b| {
        for i in 0..BLOCK {
            black_box(store.get(at(b, i).0));
        }
    });
    let successor_ns = per_op_ns(rec, "store.successor_of", |b| {
        for i in 0..BLOCK {
            black_box(store.successor_of(net.key_id(at(b, i).1)));
        }
    });
    let mut rng = stream(seed, "bench/probe/store");
    let insert_remove_ns = per_op_ns(rec, "store.insert_remove", |_| {
        for _ in 0..BLOCK {
            let token = tokens[rng.gen_range(0..tokens.len())];
            let state = store.remove(token).expect("probed token is live");
            store.insert(token, state);
        }
    });
    StoreProbe {
        get_ns,
        successor_ns,
        insert_remove_ns,
    }
}

/// The same batch under the ideal network and under the delay plan of the
/// continuous churn run, five times alternating.
fn net_probe(
    net: &mut dyn Overlay,
    sample: &[(NodeToken, u64)],
    seed: u64,
    rec: &mut Recorder,
) -> NetProbe {
    let ideal_name = rec.name("net.batch_ideal");
    let delay_name = rec.name("net.batch_delay_plan");
    let mut ratios = Vec::new();
    let (mut retries, mut lookups) = (0u64, 0u64);
    for round in 0..5 {
        net.set_net_conditions(NetConditions::ideal());
        let (_, ideal_ns) = rec.timed(ideal_name, round, |_| net.lookup_batch(sample, 1));
        net.set_net_conditions(delay_plan(seed));
        let (traces, delay_ns) = rec.timed(delay_name, round, |_| net.lookup_batch(sample, 1));
        ratios.push(delay_ns as f64 / ideal_ns as f64);
        retries += traces.iter().map(|t| u64::from(t.net.retries)).sum::<u64>();
        lookups += traces.len() as u64;
    }
    net.set_net_conditions(NetConditions::ideal());
    NetProbe {
        delay_plan_ratio: median(&ratios),
        retries_per_lookup: retries as f64 / lookups as f64,
    }
}

/// The hold model on `EventQueue<u64>`: pop one event, schedule one, at a
/// steady depth of 1 024 and of 65 536.
pub fn clock_probe(seed: u64, rec: &mut Recorder) -> ClockProbe {
    let mut hold = |depth: usize, name: &str| {
        let mut rng = stream(seed, "bench/probe/clock");
        let mut queue: EventQueue<u64> = EventQueue::new();
        for i in 0..depth {
            queue.schedule_in(exp_delay(1.0, &mut rng), i as u64);
        }
        per_op_ns(rec, name, |_| {
            for _ in 0..BLOCK {
                let (_, event) = queue.pop().expect("hold model keeps the queue full");
                queue.schedule_in(exp_delay(1.0, &mut rng), event);
            }
        })
    };
    ClockProbe {
        schedule_pop_ns_d1k: hold(1 << 10, "clock.hold_d1k"),
        schedule_pop_ns_d64k: hold(1 << 16, "clock.hold_d64k"),
    }
}
