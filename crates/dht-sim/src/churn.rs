//! The §4.4 continuous-churn simulation.
//!
//! "Key lookups are generated according to a Poisson process at a rate of
//! one per second. Joins and voluntary leaves are modeled by a Poisson
//! process with a mean rate of R... each node invokes the stabilization
//! protocol once every 30 s and each node's stabilization routine is at
//! intervals that are uniformly distributed in the 30 s interval. The
//! network starts with 2048 nodes."
//!
//! There is one engine: [`run_churn`] is a single event loop on the
//! virtual clock ([`dht_core::clock`]) whose join, leave, stabilization
//! tick, audit, and sampler handling is the same code whatever the
//! configuration. [`TimeModel`] is only the
//! *lookup-arrival policy*:
//!
//! * [`TimeModel::Rounds`] — batch before mutation: arrivals are buffered
//!   and routed as one instantaneous [`Overlay::lookup_batch`] right
//!   before the next membership/stabilization event. Message delays are
//!   *billed* to [`dht_core::net::NetCosts::latency_us`] but never
//!   advance the clock.
//! * [`TimeModel::Continuous`] — suspend per hop: each arrival becomes a
//!   [`dht_core::sim::LookupCursor`] whose every hop's reply schedules
//!   the walk's resumption after its simulated delay, so in-flight
//!   lookups interleave with joins, leaves, and per-node stabilization
//!   timers, and reported latency equals virtual-clock elapsed time by
//!   construction.
//!
//! Arrival draws (source, key, next gap) happen in the same order under
//! both policies, so with zero message delays and zero churn the two
//! produce identical measurement streams; with churn they differ only in
//! *when* repair-on-use lands: streaming per lookup versus after each
//! batch.
//!
//! [`run_until_clean`] is the same tick routine driven over a static
//! population until the full-scope audit is clean — the convergence and
//! recovery experiments' shared driver.

use std::collections::BTreeMap;

use dht_core::audit::{AuditReport, AuditScope};
use dht_core::clock::{exp_delay, EventQueue, SimTime, SECOND};
use dht_core::hash::splitmix64;
use dht_core::lookup::LookupTrace;
use dht_core::net::NetConditions;
use dht_core::obs::{Event as TraceEvent, Phase, PhaseCosts, Telemetry};
use dht_core::overlay::{NodeToken, Overlay};
use dht_core::sim::{CursorStep, LookupCursor};
use rand::{Rng, RngCore};

/// Which notion of time the churn engine runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TimeModel {
    /// Lockstep stabilization rounds: lookups resolve instantaneously
    /// between membership events (the engine's original semantics, and
    /// the configuration all historical goldens were recorded under).
    #[default]
    Rounds,
    /// Discrete-event virtual clock: lookups are suspended per hop and
    /// interleave with churn and stabilization timers.
    Continuous,
}

/// Parameters of one churn run.
#[derive(Debug, Clone)]
pub struct ChurnParams {
    /// Lookup arrival rate per second (the paper uses 1.0).
    pub lookup_rate: f64,
    /// Join rate per second == leave rate per second (the paper's `R`).
    pub churn_rate: f64,
    /// Stabilization period per node in seconds (the paper uses 30).
    pub stabilization_period_secs: u64,
    /// Number of lookups to observe before stopping.
    pub lookups: usize,
    /// Warm-up lookups discarded before measurement starts.
    pub warmup_lookups: usize,
    /// Run the online state audit (see [`dht_core::audit`]) after every
    /// full stabilization round and at the end of the run.
    pub audit: bool,
    /// Network conditions (fault plan + retry policy) lookups run under,
    /// so message loss and churn compose. Default: an ideal network.
    pub conditions: NetConditions,
    /// Telemetry installed on the overlay for the run. The walk engine
    /// records lookup events into it and the churn engine adds
    /// `Join`/`Leave`/`StabilizeRound`/`AuditRun`; every lookup,
    /// stabilization sweep, repair, join, leave, and audit bills its
    /// messages and virtual time to its [`Phase`]. Like every disabled
    /// handle, the default records nothing and changes no routing
    /// result. Default: disabled.
    pub telemetry: Telemetry,
    /// Worker-thread cap for lookup batches. Lookups arriving between two
    /// membership/stabilization events are independent reads, so the
    /// engine buffers them and routes each batch through
    /// [`Overlay::lookup_batch`]; results are bit-identical for every
    /// value. Under [`TimeModel::Continuous`] there is no batching (each
    /// lookup is an event-driven walk), so `jobs` is ignored and every
    /// value is trivially bit-identical. Default: 1.
    pub jobs: usize,
    /// Which notion of time the run uses. Default: [`TimeModel::Rounds`].
    pub time: TimeModel,
    /// Run each node's self-stabilizing repair routine
    /// ([`Protocol::repair_node`](dht_core::overlay::Protocol::repair_node)) on its stabilization timer *instead of*
    /// the plain stabilizer. Repair subsumes stabilization — on a healthy
    /// or merely stale network it performs exactly the refresh the
    /// stabilizer would (same state, same RNG draws), so enabling it on
    /// an uncorrupted run is bit-identical to leaving it off; the
    /// difference is that repaired entries are counted into
    /// [`ChurnOutcome::repair_entries`]. Default: false.
    pub repair: bool,
    /// Telemetry sampling cadence in virtual µs: every `sample_every_us`
    /// of simulated time, a read-only [`ChurnSample`] snapshot is pushed
    /// into [`ChurnOutcome::samples`]. The sampler draws no RNG, mutates
    /// nothing, and (in rounds mode) does not flush the pending lookup
    /// batch, so enabling it changes no measurement. 0 disables sampling
    /// (the default).
    pub sample_every_us: u64,
}

impl Default for ChurnParams {
    fn default() -> Self {
        Self {
            lookup_rate: 1.0,
            churn_rate: 0.05,
            stabilization_period_secs: 30,
            lookups: 10_000,
            warmup_lookups: 200,
            audit: false,
            conditions: NetConditions::ideal(),
            telemetry: Telemetry::disabled(),
            jobs: 1,
            time: TimeModel::default(),
            repair: false,
            sample_every_us: 0,
        }
    }
}

/// One virtual-time telemetry snapshot (see
/// [`ChurnParams::sample_every_us`]). Cumulative fields count from the
/// start of the run, so consumers can difference consecutive samples
/// into rates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChurnSample {
    /// Virtual time of the snapshot, in µs.
    pub t_us: u64,
    /// Live nodes at the snapshot instant.
    pub live_nodes: u64,
    /// Cumulative messages billed per phase, indexed in
    /// [`dht_core::obs::ALL_PHASES`] order. All-zero when the run's
    /// [`ChurnParams::telemetry`] is disabled.
    pub phase_msgs: [u64; 6],
    /// Median per-node query load (nearest rank over live nodes).
    pub load_p50: u64,
    /// 99th-percentile per-node query load.
    pub load_p99: u64,
    /// Violations found by the most recent audit pass (0 before the
    /// first pass, or when auditing is off).
    pub audit_violations: u64,
    /// Routing-state bytes per live node.
    pub bytes_per_node: f64,
}

/// Aggregate result of one churn run.
#[derive(Debug, Clone)]
pub struct ChurnOutcome {
    /// Path length of every measured lookup.
    pub path_lens: Vec<usize>,
    /// Timeout count of every measured lookup.
    pub timeouts: Vec<u64>,
    /// Lookups that did not resolve at the key's owner.
    pub failures: usize,
    /// Total joins executed.
    pub joins: usize,
    /// Total leaves executed.
    pub leaves: usize,
    /// Final network size.
    pub final_size: usize,
    /// Message retries of every measured lookup (loss-induced re-sends;
    /// all-zero under an ideal [`ChurnParams::conditions`]).
    pub retries: Vec<u64>,
    /// Simulated end-to-end latency of every measured lookup, in µs.
    pub latency_us: Vec<u64>,
    /// Accumulated online audit (one pass per stabilization round plus a
    /// final pass), when [`ChurnParams::audit`] was set.
    pub audit: Option<AuditReport>,
    /// Largest network size observed during the run (the peak
    /// `Membership` population).
    pub peak_size: usize,
    /// Per-node stabilization routines invoked — the run's maintenance
    /// message proxy.
    pub stabilize_calls: u64,
    /// Full stabilization rounds completed.
    pub stabilize_rounds: u64,
    /// Wall-clock time spent inside audit passes, in µs (zero when
    /// auditing is off).
    pub audit_us: u64,
    /// Virtual-clock elapsed time of every measured lookup (arrival to
    /// completion), in µs, aligned with [`ChurnOutcome::latency_us`].
    /// Empty under [`TimeModel::Rounds`], where lookups resolve
    /// instantaneously and nothing elapses.
    pub elapsed_us: Vec<u64>,
    /// Virtual time at which the run ended, in µs.
    pub sim_end_us: u64,
    /// In-flight lookups whose current holder departed mid-walk, leaving
    /// them unable to progress (counted into
    /// [`ChurnOutcome::failures`] when measured). Always zero under
    /// [`TimeModel::Rounds`], where lookups never span membership
    /// events.
    pub stranded: usize,
    /// Routing-state entries rewritten by repair routines, summed over
    /// every [`Protocol::repair_node`](dht_core::overlay::Protocol::repair_node) call the run fired. Always zero
    /// when [`ChurnParams::repair`] is off, and zero on a run whose
    /// network was never corrupted (repair is a no-op on healthy state).
    pub repair_entries: u64,
    /// Telemetry snapshots taken every [`ChurnParams::sample_every_us`]
    /// of virtual time, in ascending `t_us` order. Empty when sampling
    /// is off.
    pub samples: Vec<ChurnSample>,
}

/// The outcome of [`run_until_clean`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CleanRun {
    /// Simulated seconds until the full-scope audit came back clean:
    /// `Some(0)` if the overlay already was, `None` if it is still dirty
    /// after the horizon (the counters then cover the whole horizon).
    pub clean_s: Option<u64>,
    /// Per-node stabilization (or repair) routines invoked.
    pub calls: u64,
    /// Routing-state entries rewritten (always zero without `repair`).
    pub entries: u64,
    /// The full-scope audit's open-violation count at `t = 0` and after
    /// every simulated second's tick, as `(t_us, violations)` points in
    /// ascending virtual time. The last point is 0 exactly when the
    /// overlay came back clean.
    pub trajectory: Vec<(u64, u64)>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Lookup,
    Join,
    Leave,
    /// Stabilization tick for one bucket of nodes.
    StabilizeBucket(u64),
    /// Resume the suspended lookup with this id ([`TimeModel::Continuous`]
    /// only).
    Step(u64),
    /// Read-only telemetry snapshot (scheduled only when
    /// [`ChurnParams::sample_every_us`] is nonzero).
    Sample,
}

/// One timed online audit pass: merged into the accumulated report,
/// its wall clock added to `audit_us`, and, when telemetry is on,
/// recorded as an `AuditRun` event and billed to [`Phase::Audit`] — one
/// message per invariant check, no virtual time. Returns the number of
/// violations this pass found; no-op returning 0 when auditing is off.
fn audit_pass(overlay: &mut dyn Overlay, outcome: &mut ChurnOutcome) -> u64 {
    if outcome.audit.is_none() {
        return 0;
    }
    let started = std::time::Instant::now();
    let report = overlay.audit_state(AuditScope::Online);
    let wall_us = started.elapsed().as_micros() as u64;
    outcome.audit_us = outcome.audit_us.saturating_add(wall_us);
    let violations = report.violations().len() as u64;
    let telemetry = overlay.telemetry();
    telemetry.emit(|| TraceEvent::AuditRun {
        clean: report.is_clean(),
        checked: report.checked_nodes() as u64,
        violations,
    });
    telemetry.bill(Phase::Audit, || PhaseCosts {
        calls: 1,
        msgs: report.checked_nodes() as u64,
        ..PhaseCosts::default()
    });
    if let Some(acc) = outcome.audit.as_mut() {
        acc.merge(report);
    }
    violations
}

/// Pushes one read-only telemetry snapshot. Draws no RNG and mutates
/// nothing, so sampling cannot perturb the run it observes.
fn record_sample(
    overlay: &dyn Overlay,
    outcome: &mut ChurnOutcome,
    t_us: SimTime,
    audit_violations: u64,
) {
    let mut phase_msgs = [0u64; 6];
    overlay.telemetry().read(|r| {
        for (i, (_, costs)) in r.phases.iter().enumerate() {
            phase_msgs[i] = costs.msgs;
        }
    });
    // Nearest rank by selection, not a sort: O(n) per snapshot.
    let mut loads = overlay.query_loads();
    let mut rank = |q: f64| -> u64 {
        if loads.is_empty() {
            return 0;
        }
        let idx = ((q * loads.len() as f64).ceil() as usize).clamp(1, loads.len()) - 1;
        *loads.select_nth_unstable(idx).1
    };
    outcome.samples.push(ChurnSample {
        t_us,
        live_nodes: overlay.len() as u64,
        phase_msgs,
        load_p50: rank(0.5),
        load_p99: rank(0.99),
        audit_violations,
        bytes_per_node: overlay.bytes_per_node(),
    });
}

/// Records one completed lookup's measurements. `elapsed` is the
/// virtual time the walk spanned — `None` under [`TimeModel::Rounds`],
/// where lookups resolve instantaneously.
fn record_lookup(outcome: &mut ChurnOutcome, trace: &LookupTrace, elapsed: Option<SimTime>) {
    outcome.path_lens.push(trace.path_len());
    outcome.timeouts.push(u64::from(trace.timeouts));
    outcome.retries.push(u64::from(trace.net.retries));
    outcome.latency_us.push(trace.net.latency_us);
    outcome.elapsed_us.extend(elapsed);
    if !trace.outcome.is_success() {
        outcome.failures += 1;
    }
}

/// The one stabilization tick routine: maps each per-second bucket of
/// the period to the live tokens whose timer fires in it, maintained
/// incrementally at every join and leave. A tick then touches only the
/// nodes that actually fire — O(bucket) to shift per membership event
/// plus O(fired) per tick — instead of sweeping all `n` tokens every
/// simulated second. A token's bucket is its hash modulo the period —
/// the paper's "intervals uniformly distributed in the 30 s interval"
/// (§4.4). Each bucket is a sorted `Vec`, so it fires in ascending
/// token order, as the one slice [`Overlay::stabilize_nodes`] takes.
pub(crate) struct BucketIndex {
    period: u64,
    buckets: Vec<Vec<NodeToken>>,
}

impl BucketIndex {
    /// Indexes the overlay's current population: the ascending token list,
    /// partitioned, is each bucket's sorted run as it stands.
    pub(crate) fn new(overlay: &dyn Overlay, period: u64) -> Self {
        let mut idx = Self {
            period,
            buckets: vec![Vec::new(); period as usize],
        };
        for token in overlay.node_tokens() {
            let b = idx.bucket_of(token);
            idx.buckets[b].push(token);
        }
        idx
    }

    fn bucket_of(&self, token: NodeToken) -> usize {
        (splitmix64(token) % self.period) as usize
    }

    /// Adds `token` to its bucket; no-op if it is there already.
    fn insert(&mut self, token: NodeToken) {
        let b = self.bucket_of(token);
        if let Err(at) = self.buckets[b].binary_search(&token) {
            self.buckets[b].insert(at, token);
        }
    }

    /// Drops `token` from its bucket; no-op if it is not there.
    fn remove(&mut self, token: NodeToken) {
        let b = self.bucket_of(token);
        if let Ok(at) = self.buckets[b].binary_search(&token) {
            self.buckets[b].remove(at);
        }
    }

    /// Runs the stabilization (or, with `repair`, the self-stabilizing
    /// repair) routines of every node in `bucket`, in ascending token
    /// order: the stabilizers as one run, repairs node by node. Returns
    /// the number of routines invoked and the entries repaired (always
    /// zero without `repair`). When the overlay's telemetry is enabled,
    /// the tick is billed to [`Phase::Stabilize`] (or [`Phase::Repair`]) —
    /// one message per routing entry examined, via
    /// [`Protocol::maintenance_msgs`](dht_core::overlay::Protocol::maintenance_msgs).
    pub(crate) fn fire(&self, overlay: &mut dyn Overlay, bucket: u64, repair: bool) -> (u64, u64) {
        let nodes = &self.buckets[bucket as usize];
        let telemetry = overlay.telemetry();
        let (mut phase, mut msgs, mut entries) = (Phase::Stabilize, 0, 0);
        if repair {
            phase = Phase::Repair;
            for &token in nodes {
                if telemetry.is_enabled() {
                    msgs += overlay.maintenance_msgs(token);
                }
                entries += overlay.repair_node(token);
            }
        } else {
            msgs = overlay.stabilize_nodes(nodes);
        }
        let calls = nodes.len() as u64;
        telemetry.bill(phase, || PhaseCosts {
            calls,
            msgs,
            repair_entries: entries,
            ..PhaseCosts::default()
        });
        (calls, entries)
    }
}

/// Runs the per-second stabilization ticks (or, with `repair`, the
/// repair ticks) of a static population on the virtual clock until the
/// **full-scope** audit is clean, under hashed timers of the given
/// period. The audit runs at every second boundary,
/// so [`CleanRun::clean_s`] has one-second resolution: the paper's own
/// stabilization granularity. Gives up after `max_secs` simulated
/// seconds.
#[must_use]
pub fn run_until_clean(
    overlay: &mut dyn Overlay,
    period: u64,
    max_secs: u64,
    repair: bool,
) -> CleanRun {
    let period = period.max(1);
    let violations =
        |overlay: &dyn Overlay| overlay.audit_state(AuditScope::Full).violations().len() as u64;
    let start = violations(overlay);
    let mut run = CleanRun {
        clean_s: (start == 0).then_some(0),
        calls: 0,
        entries: 0,
        trajectory: vec![(0, start)],
    };
    if start == 0 {
        return run;
    }
    let index = BucketIndex::new(overlay, period);
    for sec in 1..=max_secs.max(1) {
        let (calls, entries) = index.fire(overlay, (sec - 1) % period, repair);
        run.calls += calls;
        run.entries += entries;
        let open = violations(overlay);
        run.trajectory.push((sec * SECOND, open));
        if open == 0 {
            run.clean_s = Some(sec);
            break;
        }
    }
    run
}

/// Runs the churn simulation on `overlay`, which should already contain
/// the starting population.
///
/// One event loop serves both [`TimeModel`]s; the model decides only
/// what a lookup *arrival* does. Under [`TimeModel::Rounds`] the
/// arrival is buffered, and the buffer is routed as one
/// [`Overlay::lookup_batch`] right before the next state mutation
/// (join, leave, stabilization tick), at the last arrival, and at the
/// end of the run. Under [`TimeModel::Continuous`] the arrival starts a
/// suspended [`LookupCursor`] that `Step` events resume once each hop's
/// reply delay has elapsed, and the lookup's effects are applied when
/// it completes. Sources, keys, and inter-arrival gaps are drawn at
/// arrival time in the same order either way, so with zero message
/// delays — where every walk completes within its arrival instant — the
/// two models produce identical measurement streams.
///
/// Per-node stabilization at uniformly distributed offsets is modelled by
/// splitting the period into per-second buckets: every second, the nodes
/// whose token hashes into that bucket run their stabilization routine —
/// statistically identical to each node keeping its own 30 s timer with a
/// uniform phase.
pub fn run_churn(
    overlay: &mut dyn Overlay,
    params: ChurnParams,
    rng: &mut impl RngCore,
) -> ChurnOutcome {
    assert!(overlay.len() > 1, "churn needs a populated overlay");
    overlay.set_net_conditions(params.conditions);
    overlay.set_telemetry(params.telemetry.clone());
    let mut outcome = ChurnOutcome {
        path_lens: Vec::with_capacity(params.lookups),
        timeouts: Vec::with_capacity(params.lookups),
        failures: 0,
        joins: 0,
        leaves: 0,
        final_size: 0,
        retries: Vec::with_capacity(params.lookups),
        latency_us: Vec::with_capacity(params.lookups),
        audit: params
            .audit
            .then(|| AuditReport::new(overlay.name(), AuditScope::Online)),
        peak_size: overlay.len(),
        stabilize_calls: 0,
        stabilize_rounds: 0,
        audit_us: 0,
        elapsed_us: Vec::new(),
        sim_end_us: 0,
        stranded: 0,
        repair_entries: 0,
        samples: Vec::new(),
    };

    let period = params.stabilization_period_secs.max(1);
    let mut buckets = BucketIndex::new(overlay, period);
    let mut queue: EventQueue<Event> = EventQueue::new();
    queue.schedule(exp_delay(params.lookup_rate, rng), Event::Lookup);
    if params.churn_rate > 0.0 {
        queue.schedule(exp_delay(params.churn_rate, rng), Event::Join);
        queue.schedule(exp_delay(params.churn_rate, rng), Event::Leave);
    }
    for bucket in 0..period {
        queue.schedule((bucket + 1) * SECOND, Event::StabilizeBucket(bucket));
    }
    if params.sample_every_us > 0 {
        queue.schedule(params.sample_every_us, Event::Sample);
    }

    struct InFlight {
        ordinal: usize,
        cursor: Box<dyn LookupCursor>,
        started_at: SimTime,
    }

    let telemetry = params.telemetry.clone();
    let mut last_viol = 0u64;
    let mut seen_lookups = 0usize;
    // Rounds: arrivals buffered as (arrival ordinal, source, raw key)
    // until the next `flush`. Always empty under Continuous.
    let mut pending: Vec<(usize, NodeToken, u64)> = Vec::new();
    // Continuous: suspended walks by lookup id. Always empty under Rounds.
    let mut in_flight: BTreeMap<u64, InFlight> = BTreeMap::new();
    let mut next_id: u64 = 0;

    // Routes the buffered arrivals as one batch and records the measured
    // ones (by arrival ordinal). No-op when nothing is buffered.
    let flush = |overlay: &mut dyn Overlay,
                 outcome: &mut ChurnOutcome,
                 pending: &mut Vec<(usize, NodeToken, u64)>| {
        if pending.is_empty() {
            return;
        }
        let reqs: Vec<(NodeToken, u64)> = pending.iter().map(|&(_, src, raw)| (src, raw)).collect();
        let traces = overlay.lookup_batch(&reqs, params.jobs.max(1));
        for ((ordinal, _, _), trace) in pending.drain(..).zip(traces) {
            if ordinal > params.warmup_lookups {
                record_lookup(outcome, &trace, None);
            }
        }
    };
    // Completes one suspended lookup at virtual time `end`: applies its
    // deferred effects (in completion order — the continuous model's
    // canonical stream) and records it if measured.
    let finalize =
        |overlay: &mut dyn Overlay, outcome: &mut ChurnOutcome, fl: InFlight, end: SimTime| {
            let (trace, fx) = fl.cursor.finish();
            overlay.apply_walk_effects(fx);
            if fl.ordinal > params.warmup_lookups {
                record_lookup(outcome, &trace, Some(end.saturating_sub(fl.started_at)));
            }
        };

    while let Some((now, event)) = queue.pop() {
        match event {
            Event::Lookup => {
                seen_lookups += 1;
                if let Some(src) = overlay.random_node(rng) {
                    let raw: u64 = rng.gen();
                    match params.time {
                        TimeModel::Rounds => pending.push((seen_lookups, src, raw)),
                        TimeModel::Continuous => {
                            let fl = InFlight {
                                ordinal: seen_lookups,
                                cursor: overlay.lookup_begin(src, raw),
                                started_at: now,
                            };
                            in_flight.insert(next_id, fl);
                            // First step fires at the arrival instant (FIFO
                            // after anything already scheduled for `now`).
                            queue.schedule_in(0, Event::Step(next_id));
                            next_id += 1;
                        }
                    }
                }
                if seen_lookups < params.warmup_lookups + params.lookups {
                    queue.schedule_in(exp_delay(params.lookup_rate, rng), Event::Lookup);
                } else {
                    // Last arrival: route everything still buffered so the
                    // run can stop without waiting for a membership event.
                    flush(overlay, &mut outcome, &mut pending);
                }
            }
            Event::Step(id) => {
                let Some(mut fl) = in_flight.remove(&id) else {
                    unreachable!("step for unknown lookup {id}");
                };
                if !overlay.contains(fl.cursor.current()) {
                    // The node holding the lookup departed while the walk
                    // was suspended: the lookup is stranded.
                    fl.cursor.strand();
                    outcome.stranded += 1;
                    finalize(overlay, &mut outcome, fl, now);
                } else {
                    match fl.cursor.step(&*overlay) {
                        CursorStep::Forwarded { delay_us } => {
                            queue.schedule_in(delay_us, Event::Step(id));
                            in_flight.insert(id, fl);
                        }
                        // The final reply lands `delay_us` later; bill it
                        // without scheduling another event.
                        CursorStep::Finished { delay_us } => {
                            finalize(overlay, &mut outcome, fl, now + delay_us);
                        }
                    }
                }
            }
            Event::Join => {
                flush(overlay, &mut outcome, &mut pending);
                if let Some(node) = overlay.join(rng) {
                    outcome.joins += 1;
                    outcome.peak_size = outcome.peak_size.max(overlay.len());
                    buckets.insert(node);
                    telemetry.emit(|| TraceEvent::Join { node });
                    telemetry.bill(Phase::Join, || PhaseCosts {
                        calls: 1,
                        msgs: overlay.maintenance_msgs(node),
                        ..PhaseCosts::default()
                    });
                }
                queue.schedule_in(exp_delay(params.churn_rate, rng), Event::Join);
            }
            Event::Leave => {
                flush(overlay, &mut outcome, &mut pending);
                // Keep at least a handful of nodes alive.
                if overlay.len() > 8 {
                    if let Some(node) = overlay.random_node(rng) {
                        // Teardown messages go to the links held *before*
                        // departure; computed only when telemetry is on.
                        let msgs = if telemetry.is_enabled() {
                            overlay.maintenance_msgs(node)
                        } else {
                            0
                        };
                        if overlay.leave(node) {
                            outcome.leaves += 1;
                            buckets.remove(node);
                            telemetry.emit(|| TraceEvent::Leave {
                                node,
                                graceful: true,
                            });
                            telemetry.bill(Phase::Leave, || PhaseCosts {
                                calls: 1,
                                msgs,
                                ..PhaseCosts::default()
                            });
                        }
                    }
                }
                queue.schedule_in(exp_delay(params.churn_rate, rng), Event::Leave);
            }
            Event::StabilizeBucket(bucket) => {
                flush(overlay, &mut outcome, &mut pending);
                let (calls, entries) = buckets.fire(overlay, bucket, params.repair);
                outcome.stabilize_calls += calls;
                outcome.repair_entries += entries;
                // The last bucket closes a full stabilization round:
                // every online invariant must hold right now, mid-churn.
                if bucket + 1 == period {
                    let round = outcome.stabilize_rounds;
                    outcome.stabilize_rounds += 1;
                    telemetry.emit(|| TraceEvent::StabilizeRound {
                        round,
                        nodes: overlay.len() as u64,
                    });
                    last_viol = audit_pass(overlay, &mut outcome);
                }
                queue.schedule_in(period * SECOND, Event::StabilizeBucket(bucket));
            }
            Event::Sample => {
                // Deliberately no flush: the sampler observes applied
                // state only, so enabling it cannot reorder the batch
                // stream.
                record_sample(overlay, &mut outcome, now, last_viol);
                queue.schedule_in(params.sample_every_us, Event::Sample);
            }
        }
        if outcome.path_lens.len() >= params.lookups && in_flight.is_empty() {
            break;
        }
    }
    flush(overlay, &mut outcome, &mut pending);
    outcome.sim_end_us = queue.now();

    audit_pass(overlay, &mut outcome);
    outcome.final_size = overlay.len();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factory::{build_overlay, OverlayKind};
    use dht_core::rng::stream;

    fn small_params(rate: f64) -> ChurnParams {
        ChurnParams {
            lookup_rate: 1.0,
            churn_rate: rate,
            stabilization_period_secs: 30,
            lookups: 300,
            warmup_lookups: 20,
            audit: false,
            conditions: NetConditions::ideal(),
            telemetry: Telemetry::disabled(),
            jobs: 1,
            time: TimeModel::Rounds,
            repair: false,
            sample_every_us: 0,
        }
    }

    #[test]
    fn churn_run_produces_measurements() {
        let mut net = build_overlay(OverlayKind::Cycloid7, 256, 1);
        let mut rng = stream(2, "churn-test");
        let out = run_churn(net.as_mut(), small_params(0.2), &mut rng);
        assert_eq!(out.path_lens.len(), 300);
        assert_eq!(out.timeouts.len(), 300);
        assert!(out.joins > 0, "joins should occur at R=0.2");
        assert!(out.leaves > 0, "leaves should occur at R=0.2");
        assert_eq!(out.failures, 0, "Cycloid under churn must not fail");
    }

    #[test]
    fn zero_churn_is_steady_state() {
        let mut net = build_overlay(OverlayKind::Cycloid7, 128, 3);
        let mut rng = stream(4, "steady");
        let out = run_churn(net.as_mut(), small_params(0.0), &mut rng);
        assert_eq!(out.joins, 0);
        assert_eq!(out.leaves, 0);
        assert_eq!(out.final_size, 128);
        assert!(out.timeouts.iter().all(|&t| t == 0));
    }

    #[test]
    fn churn_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let mut net = build_overlay(OverlayKind::Koorde, 128, seed);
            let mut rng = stream(seed, "det");
            run_churn(net.as_mut(), small_params(0.1), &mut rng).path_lens
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn audited_churn_reports_clean_state() {
        let mut net = build_overlay(OverlayKind::Chord, 128, 9);
        let mut rng = stream(10, "audit-churn");
        let mut params = small_params(0.2);
        params.audit = true;
        let out = run_churn(net.as_mut(), params, &mut rng);
        let audit = out.audit.expect("audit requested");
        assert!(audit.checked_nodes() > 0, "audit must run at least once");
        assert!(audit.is_clean(), "{audit}");
    }

    #[test]
    fn audit_off_reports_nothing() {
        let mut net = build_overlay(OverlayKind::Cycloid7, 64, 11);
        let mut rng = stream(12, "no-audit");
        let out = run_churn(net.as_mut(), small_params(0.1), &mut rng);
        assert!(out.audit.is_none());
    }

    #[test]
    fn lossy_churn_composes_and_stays_deterministic() {
        use dht_core::net::{FaultPlan, RetryPolicy};
        let run = || {
            let mut net = build_overlay(OverlayKind::Cycloid7, 128, 21);
            let mut rng = stream(22, "lossy-churn");
            let mut params = small_params(0.2);
            params.conditions =
                NetConditions::new(FaultPlan::lossy(5, 0.05), RetryPolicy::standard());
            run_churn(net.as_mut(), params, &mut rng)
        };
        let a = run();
        let b = run();
        assert_eq!(a.path_lens, b.path_lens);
        assert_eq!(a.retries, b.retries);
        assert_eq!(a.latency_us, b.latency_us);
        assert_eq!(a.retries.len(), 300);
        assert!(a.retries.iter().sum::<u64>() > 0, "5% loss must retry");
        // Zero-hop lookups (source owns the key) legitimately bill nothing,
        // so check the aggregate rather than every sample.
        assert!(a.latency_us.iter().sum::<u64>() > 0, "hops are billed");
    }

    #[test]
    fn churn_tracks_maintenance_counters() {
        let mut net = build_overlay(OverlayKind::Cycloid7, 256, 1);
        let mut rng = stream(2, "counters");
        let out = run_churn(net.as_mut(), small_params(0.2), &mut rng);
        assert!(out.peak_size >= 256, "peak covers at least the start size");
        assert!(out.peak_size >= out.final_size);
        assert!(out.stabilize_calls > 0, "stabilization must run");
        assert!(out.stabilize_rounds > 0, "at least one full round");
        assert_eq!(out.audit_us, 0, "no audit requested, no audit time");
    }

    #[test]
    fn repair_mode_is_bit_identical_to_stabilization_under_churn() {
        let run = |repair: bool| {
            let mut net = build_overlay(OverlayKind::Cycloid7, 256, 1);
            let mut rng = stream(2, "repair-churn");
            let mut params = small_params(0.2);
            params.audit = true;
            params.repair = repair;
            run_churn(net.as_mut(), params, &mut rng)
        };
        let plain = run(false);
        let repaired = run(true);
        // Repair subsumes stabilization: the same timers fire the same
        // state transitions, so every measurement stream matches.
        assert_eq!(plain.path_lens, repaired.path_lens);
        assert_eq!(plain.latency_us, repaired.latency_us);
        assert_eq!(plain.joins, repaired.joins);
        assert_eq!(plain.leaves, repaired.leaves);
        assert_eq!(plain.stabilize_calls, repaired.stabilize_calls);
        assert_eq!(plain.repair_entries, 0, "repair off never counts entries");
        assert!(repaired.audit.expect("audit requested").is_clean());
    }

    #[test]
    fn repair_mode_counts_nothing_on_a_steady_network() {
        let mut net = build_overlay(OverlayKind::Cycloid7, 128, 3);
        let mut rng = stream(4, "repair-steady");
        let mut params = small_params(0.0);
        params.repair = true;
        let out = run_churn(net.as_mut(), params, &mut rng);
        assert!(out.stabilize_calls > 0, "repair timers must fire");
        assert_eq!(out.repair_entries, 0, "healthy network: nothing to repair");
    }

    #[test]
    fn continuous_repair_mode_matches_plain_stabilization() {
        let run = |repair: bool| {
            let mut net = build_overlay(OverlayKind::Chord, 128, 13);
            let mut rng = stream(14, "cont-repair");
            let mut params = continuous_params(0.3);
            params.repair = repair;
            run_churn(net.as_mut(), params, &mut rng)
        };
        let plain = run(false);
        let repaired = run(true);
        assert_eq!(plain.path_lens, repaired.path_lens);
        assert_eq!(plain.elapsed_us, repaired.elapsed_us);
        assert_eq!(plain.sim_end_us, repaired.sim_end_us);
        assert_eq!(plain.stabilize_calls, repaired.stabilize_calls);
    }

    #[test]
    fn churn_emits_membership_and_round_events() {
        let telemetry = Telemetry::enabled();
        let mut net = build_overlay(OverlayKind::Chord, 128, 9);
        let mut rng = stream(10, "churn-events");
        let mut params = small_params(0.3);
        params.audit = true;
        params.telemetry = telemetry.clone();
        let out = run_churn(net.as_mut(), params, &mut rng);
        let events = telemetry.read(|r| r.events.clone()).unwrap();
        let count = |f: &dyn Fn(&TraceEvent) -> bool| events.iter().filter(|e| f(e)).count();
        assert_eq!(
            count(&|e| matches!(e, TraceEvent::Join { .. })),
            out.joins,
            "one Join event per executed join"
        );
        assert_eq!(
            count(&|e| matches!(e, TraceEvent::Leave { graceful: true, .. })),
            out.leaves
        );
        assert_eq!(
            count(&|e| matches!(e, TraceEvent::StabilizeRound { .. })) as u64,
            out.stabilize_rounds
        );
        // One audit per round plus the final pass.
        assert_eq!(
            count(&|e| matches!(e, TraceEvent::AuditRun { .. })) as u64,
            out.stabilize_rounds + 1
        );
        assert!(out.audit_us > 0, "audit passes are timed");
        assert!(
            count(&|e| matches!(e, TraceEvent::LookupStart { .. })) > 0,
            "lookup events land in the same record"
        );
    }

    #[test]
    fn viceroy_under_churn_never_times_out() {
        let mut net = build_overlay(OverlayKind::Viceroy, 256, 5);
        let mut rng = stream(6, "vchurn");
        let out = run_churn(net.as_mut(), small_params(0.4), &mut rng);
        assert!(out.timeouts.iter().all(|&t| t == 0));
        assert_eq!(out.failures, 0);
    }

    fn continuous_params(rate: f64) -> ChurnParams {
        use dht_core::net::{FaultPlan, RetryPolicy};
        let mut p = small_params(rate);
        p.time = TimeModel::Continuous;
        // `lossy` includes 20–80 ms uniform delays, so walks genuinely
        // suspend between hops.
        p.conditions = NetConditions::new(FaultPlan::lossy(5, 0.02), RetryPolicy::standard());
        p
    }

    #[test]
    fn continuous_run_measures_elapsed_time() {
        let mut net = build_overlay(OverlayKind::Cycloid7, 256, 1);
        let mut rng = stream(2, "cont");
        let out = run_churn(net.as_mut(), continuous_params(0.2), &mut rng);
        assert_eq!(out.path_lens.len(), 300);
        assert_eq!(out.elapsed_us.len(), 300, "continuous mode times lookups");
        assert!(out.sim_end_us > 0, "the virtual clock advanced");
        // Satellite invariant: reported latency IS elapsed virtual time.
        assert_eq!(out.latency_us, out.elapsed_us);
    }

    #[test]
    fn continuous_run_is_deterministic_per_seed() {
        let run = || {
            let mut net = build_overlay(OverlayKind::Chord, 128, 13);
            let mut rng = stream(14, "cont-det");
            run_churn(net.as_mut(), continuous_params(0.3), &mut rng)
        };
        let a = run();
        let b = run();
        assert_eq!(a.path_lens, b.path_lens);
        assert_eq!(a.latency_us, b.latency_us);
        assert_eq!(a.elapsed_us, b.elapsed_us);
        assert_eq!(a.sim_end_us, b.sim_end_us);
        assert_eq!(a.stranded, b.stranded);
    }

    #[test]
    fn rounds_mode_records_no_elapsed_time() {
        let mut net = build_overlay(OverlayKind::Cycloid7, 128, 3);
        let mut rng = stream(4, "rounds-elapsed");
        let out = run_churn(net.as_mut(), small_params(0.1), &mut rng);
        assert!(out.elapsed_us.is_empty());
        assert_eq!(out.stranded, 0);
        assert!(out.sim_end_us > 0);
    }

    /// Bulk-builds the index over a fresh overlay, then applies `steps`
    /// of a fixed join/leave script to both, as the engine does at every
    /// membership event — zero steps leave the bulk build as it came —
    /// and ends on a duplicate insert and an absent remove.
    fn churned_index(period: u64, steps: usize) -> (Box<dyn Overlay>, BucketIndex) {
        let mut net = build_overlay(OverlayKind::Chord, 96, 17);
        let mut rng = stream(18, "bucket-index");
        let mut idx = BucketIndex::new(net.as_ref(), period);
        for step in 0..steps {
            if step % 3 == 0 {
                let victim = net.node_tokens()[step % net.len()];
                assert!(net.leave(victim));
                idx.remove(victim);
            } else {
                let node = net.join(&mut rng).expect("join succeeds");
                idx.insert(node);
            }
        }
        // A second insert of a live token and the removal of one that is
        // not there must both leave the index as it is.
        let live = net.node_tokens()[7];
        let absent = (0..).find(|&t| !net.contains(t)).expect("ring has gaps");
        idx.insert(live);
        idx.remove(absent);
        (net, idx)
    }

    #[test]
    fn bucket_index_matches_reference_sweep() {
        // The incremental index must fire exactly the tokens a full O(n)
        // sweep of the membership would, in the same ascending order,
        // including after churn has moved tokens in and out of buckets.
        let period = 30u64;
        for steps in [0, 40] {
            let (net, idx) = churned_index(period, steps);
            for bucket in 0..period {
                let expected: Vec<_> = net
                    .node_tokens()
                    .into_iter()
                    .filter(|&t| splitmix64(t) % period == bucket)
                    .collect();
                assert_eq!(
                    idx.buckets[bucket as usize], expected,
                    "bucket {bucket} after {steps} steps"
                );
            }
        }
    }

    #[test]
    fn run_until_clean_is_zero_on_a_clean_overlay() {
        for repair in [false, true] {
            let mut net = build_overlay(OverlayKind::Cycloid7, 64, 1);
            let run = run_until_clean(net.as_mut(), 30, 60, repair);
            assert_eq!(run.clean_s, Some(0), "repair {repair}");
            assert_eq!(run.trajectory, vec![(0, 0)], "repair {repair}");
            assert_eq!((run.calls, run.entries), (0, 0), "repair {repair}");
        }
    }

    #[test]
    fn telemetry_bills_every_active_phase_in_both_time_models() {
        for time in [TimeModel::Rounds, TimeModel::Continuous] {
            let mut net = build_overlay(OverlayKind::Cycloid7, 128, 9);
            let mut rng = stream(10, "churn-billing");
            let telemetry = Telemetry::enabled();
            let mut p = small_params(0.2);
            p.time = time;
            p.audit = true;
            p.telemetry = telemetry.clone();
            let out = run_churn(net.as_mut(), p, &mut rng);
            let table = telemetry.read(|r| r.phases.clone()).unwrap();
            let ctx = format!("{time:?}");
            for phase in [
                Phase::Lookup,
                Phase::Stabilize,
                Phase::Join,
                Phase::Leave,
                Phase::Audit,
            ] {
                let costs = table.get(phase);
                assert!(costs.calls > 0, "{ctx}: no {} calls", phase.label());
                assert!(costs.msgs > 0, "{ctx}: no {} messages", phase.label());
            }
            // Lookup message counts stay tied to the engine's own path
            // measurements: at least one message per measured hop.
            let hops: u64 = out.path_lens.iter().map(|&l| l as u64).sum();
            assert!(table.get(Phase::Lookup).msgs >= hops, "{ctx}");
            // Every executed lookup bills one call; the engine also runs
            // warmup and any lookups already scheduled when measurement
            // completed, so the count is a floor, not an equality.
            assert!(
                table.get(Phase::Lookup).calls as usize >= out.path_lens.len() + 20,
                "{ctx}: fewer lookup calls than measured lookups"
            );
        }
    }

    #[test]
    fn sampler_records_monotone_cumulative_snapshots() {
        for time in [TimeModel::Rounds, TimeModel::Continuous] {
            let mut net = build_overlay(OverlayKind::Chord, 96, 11);
            let mut rng = stream(12, "churn-sampler");
            let mut p = small_params(0.1);
            p.time = time;
            p.audit = true;
            p.telemetry = Telemetry::enabled();
            p.sample_every_us = 20 * SECOND;
            let out = run_churn(net.as_mut(), p, &mut rng);
            assert!(
                out.samples.len() >= 2,
                "{time:?}: expected several samples, got {}",
                out.samples.len()
            );
            for pair in out.samples.windows(2) {
                assert!(pair[0].t_us < pair[1].t_us, "{time:?}: timestamps");
                for i in 0..pair[0].phase_msgs.len() {
                    assert!(
                        pair[0].phase_msgs[i] <= pair[1].phase_msgs[i],
                        "{time:?}: cumulative counts regressed"
                    );
                }
            }
            let last = out.samples.last().expect("samples recorded");
            assert!(last.live_nodes > 0, "{time:?}");
            assert!(last.bytes_per_node > 0.0, "{time:?}");
            assert!(last.load_p99 >= last.load_p50, "{time:?}");
        }
    }

    #[test]
    fn sampler_ranks_are_the_sorted_nearest_ranks() {
        // Selection must read exactly what the sort it replaced read: on
        // one node, on two, where n is no multiple of 100, and on the
        // tied and skewed loads that lookups leave behind.
        let mut net = build_overlay(OverlayKind::Koorde, 50, 7);
        let mut rng = stream(8, "sampler-ranks");
        let mut outcome = run_churn(net.as_mut(), small_params(0.0), &mut rng);
        for n in [1usize, 2, 3, 50, 199, 200] {
            let mut net = build_overlay(OverlayKind::Koorde, n, 7);
            let src = net.node_tokens()[0];
            for key in 0..3 * n as u64 {
                net.lookup(src, splitmix64(key));
            }
            record_sample(net.as_ref(), &mut outcome, 0, 0);
            let mut sorted = net.query_loads();
            sorted.sort_unstable();
            assert!(n == 1 || sorted[n - 1] > sorted[0], "n = {n}: no skew");
            assert!(n < 50 || sorted.windows(2).any(|w| w[0] == w[1]), "no ties");
            let rank = |q: f64| sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1];
            let sample = outcome.samples.last().unwrap();
            let ranks = (sample.load_p50, sample.load_p99);
            assert_eq!(ranks, (rank(0.5), rank(0.99)), "n = {n}");
        }
    }

    #[test]
    fn sampling_changes_no_measurement() {
        let run_with = |sample_every_us: u64| {
            let mut net = build_overlay(OverlayKind::Koorde, 96, 13);
            let mut rng = stream(14, "churn-sampler-eq");
            let mut p = small_params(0.15);
            p.audit = true;
            p.sample_every_us = sample_every_us;
            run_churn(net.as_mut(), p, &mut rng)
        };
        let base = run_with(0);
        let sampled = run_with(10 * SECOND);
        assert_eq!(base.path_lens, sampled.path_lens);
        assert_eq!(base.timeouts, sampled.timeouts);
        assert_eq!(base.latency_us, sampled.latency_us);
        assert_eq!(base.joins, sampled.joins);
        assert_eq!(base.leaves, sampled.leaves);
        assert_eq!(base.final_size, sampled.final_size);
        assert_eq!(base.stabilize_calls, sampled.stabilize_calls);
        assert!(base.samples.is_empty() && !sampled.samples.is_empty());
    }
}
