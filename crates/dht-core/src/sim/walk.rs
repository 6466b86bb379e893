//! The iterative lookup walk: [`WalkCursor`] routes one lookup hop by
//! hop against `&T` and records what a mutating walk would have done as
//! [`WalkEffects`], which [`apply_effects`] plays back against `&mut T`.

use super::SimOverlay;
use crate::lookup::{HopPhase, LookupOutcome, LookupTrace};
use crate::net::{NetConditions, NetCosts};
use crate::obs::{Event, Phase, PhaseCosts, TimeoutKind};
use crate::overlay::{NodeToken, Overlay};

/// What one node decides about a lookup it currently holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepDecision {
    /// The current node is (locally provably) where the walk stops:
    /// [`LookupOutcome::Found`] at the owner, `WrongOwner` elsewhere.
    Terminate,
    /// Forward to the first live candidate of the buffer
    /// [`SimOverlay::next_hop`] filled, in preference order; each
    /// candidate is tagged with the phase the hop would be accounted
    /// to. Dead candidates cost one timeout each (de-duplicated within
    /// the step) and are skipped.
    Forward,
}

/// One hop's deferred repair-on-use record: the walk hopped
/// `from -> to` after skipping the dead candidates in `timed_out`.
/// Replayed into [`SimOverlay::repair_on_use`] by [`apply_effects`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HopRepair {
    /// Node whose routing entry pointed at the dead candidates.
    pub from: NodeToken,
    /// Phase the taken hop was accounted to.
    pub phase: HopPhase,
    /// The live candidate that answered.
    pub to: NodeToken,
    /// Dead candidates skipped in this step, in preference order.
    pub timed_out: Vec<NodeToken>,
}

/// Everything a mutating walk would have done in place, recorded by
/// a [`WalkCursor`] for deferred application via [`apply_effects`].
///
/// The trace events carry a placeholder lookup id of 0; the real
/// stream-unique id is stamped at application time so ids are handed
/// out in canonical workload order regardless of which worker thread
/// routed the walk.
#[derive(Debug, Clone, Default)]
pub struct WalkEffects {
    /// Visited nodes in visit order (source first) — one query-load
    /// increment each. Empty when the walk did not count loads.
    pub queried: Vec<NodeToken>,
    /// Hops that skipped dead candidates, for repair-on-use.
    pub repairs: Vec<HopRepair>,
    /// Trace events in emission order (empty when telemetry is off).
    pub events: Vec<Event>,
    /// The walk's [`Phase::Lookup`] bill, recorded like `events` only
    /// when the overlay's [`crate::obs::Telemetry`] was enabled at walk
    /// start; billed at apply time so parallel walks account in
    /// canonical workload order.
    pub bill: Option<PhaseCosts>,
}

/// Reusable per-walk scratch buffers for the step loop. One instance
/// per worker (or per call site) avoids re-allocating the candidate
/// buffer [`SimOverlay::next_hop`] fills and the two skipped-candidate
/// lists on every step — `tests/hop_allocations.rs` pins that a hop
/// allocates nothing. A step sees a few dozen candidates at most, so
/// the lists are scanned linearly.
#[derive(Debug, Default)]
pub struct WalkScratch {
    candidates: Vec<(HopPhase, NodeToken)>,
    unreachable_seen: Vec<NodeToken>,
    step_dead: Vec<NodeToken>,
}

/// Performs one lookup from `src` with an already-initialized walk
/// state, walking the overlay hop by hop using only each node's private
/// routing state, and returns the full trace: a [`WalkCursor`] run to
/// completion, followed by [`apply_effects`], so query loads,
/// repair-on-use, and trace events land immediately. `raw_key` only
/// tags the `LookupStart` event (`None` for route-to-point entry points
/// whose key is pre-mapped). When `count_loads` is set, every visited
/// node's query-load counter is incremented (the §4.2 congestion
/// measure counts lookup traffic only, so control traffic passes
/// `false`).
pub fn walk_from<T: SimOverlay + ?Sized>(
    net: &mut T,
    src: NodeToken,
    state: T::Walk,
    raw_key: Option<u64>,
    count_loads: bool,
) -> LookupTrace {
    let index = net.membership_mut().net.take_lookup_index();
    let (trace, fx) = WalkCursor::begin(&*net, src, state, count_loads, index, raw_key)
        .run(&*net, &mut WalkScratch::default());
    apply_effects(net, fx);
    trace
}

/// Plays a [`WalkEffects`] record back against the overlay: query-load
/// increments, repair-on-use, the walk's bills
/// and its trace events (stamped with the next lookup id). Application
/// order across walks defines the canonical byte stream, so callers
/// must apply records in workload order.
pub fn apply_effects<T: SimOverlay + ?Sized>(net: &mut T, fx: WalkEffects) {
    let WalkEffects {
        queried,
        repairs,
        events,
        bill,
    } = fx;
    for &node in &queried {
        net.membership_mut().store.add_load(node, 1);
    }
    let telemetry = net.membership().telemetry.clone();
    // Repair-on-use costs are billed to `Repair`, not `Lookup`: the
    // lookup only *detected* the stale entries; rewriting them is
    // maintenance work (one message per evicted entry).
    if !repairs.is_empty() {
        let entries: u64 = repairs.iter().map(|r| r.timed_out.len() as u64).sum();
        telemetry.bill(Phase::Repair, || PhaseCosts {
            calls: repairs.len() as u64,
            msgs: entries,
            repair_entries: entries,
            ..PhaseCosts::default()
        });
    }
    for r in &repairs {
        net.repair_on_use(r.from, r.phase, r.to, &r.timed_out);
    }
    if let Some(costs) = bill {
        telemetry.bill(Phase::Lookup, || costs);
    }
    telemetry.record_lookup(events);
}

/// One advance of a suspended walk (see [`WalkCursor::step`]), tagged
/// with the virtual time the step consumed: stale-entry waits, retry
/// backoff, and the answering message's round trip, exactly as billed
/// to [`NetCosts::latency_us`]. A discrete-event driver schedules the
/// walk's resumption `delay_us` after the step — which is why reported
/// lookup latency and virtual-clock elapsed time agree *by
/// construction* under the continuous time model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CursorStep {
    /// The walk took one hop; it can step again once `delay_us` of
    /// simulated time has elapsed.
    Forwarded {
        /// Virtual-time cost of the step, in µs.
        delay_us: u64,
    },
    /// The walk terminated during this step (terminal reached, budget
    /// exhausted, or no live candidate answered) after `delay_us` of
    /// simulated waiting.
    Finished {
        /// Virtual-time cost of the final step, in µs.
        delay_us: u64,
    },
}

/// A lookup suspended between hops: the walk engine's loop state made
/// first-class so a discrete-event driver can interleave many walks on
/// one virtual clock, resuming each when its reply event fires.
///
/// [`WalkCursor::run`] drives this same cursor to completion in a tight
/// loop, so suspended and inline walks are one implementation —
/// byte-identical traces by construction.
#[derive(Debug)]
pub struct WalkCursor<W> {
    state: W,
    cur: NodeToken,
    hops: Vec<HopPhase>,
    timeouts: u32,
    costs: NetCosts,
    fx: WalkEffects,
    outcome: Option<LookupOutcome>,
    lookup_index: u64,
    count_loads: bool,
    record: bool,
    conditions: NetConditions,
    budget: usize,
}

impl<W> WalkCursor<W> {
    /// Starts a walk at the live node `src` with an initialized walk
    /// state. Snapshots the overlay's network conditions and telemetry
    /// enablement; `lookup_index` keys the fault draws.
    ///
    /// # Panics
    /// Panics if `src` is not live.
    pub fn begin<T: SimOverlay<Walk = W> + ?Sized>(
        net: &T,
        src: NodeToken,
        state: W,
        count_loads: bool,
        lookup_index: u64,
        raw_key: Option<u64>,
    ) -> Self {
        assert!(
            net.membership().store.contains(src),
            "lookup source {src} is not live"
        );
        // Record events and the bill only when telemetry is enabled,
        // preserving the zero-cost-when-disabled guarantee. Ids are
        // stamped at apply time.
        let record = net.membership().telemetry.is_enabled();
        let conditions = net.membership().net;
        let mut fx = WalkEffects::default();
        if record {
            fx.events.push(Event::LookupStart {
                lookup: 0,
                src,
                key: raw_key,
            });
        }
        if count_loads {
            fx.queried.push(src);
        }
        Self {
            state,
            cur: src,
            hops: Vec::new(),
            timeouts: 0,
            costs: NetCosts::default(),
            fx,
            outcome: None,
            lookup_index,
            count_loads,
            record,
            conditions,
            budget: net.hop_budget(),
        }
    }

    /// The node currently holding the lookup (the terminal, once
    /// finished).
    #[must_use]
    pub fn current(&self) -> NodeToken {
        self.cur
    }

    /// `true` once the walk has terminated.
    #[must_use]
    pub fn is_finished(&self) -> bool {
        self.outcome.is_some()
    }

    /// Strands the walk: its current holder departed mid-flight (a
    /// hazard that only exists once walks are suspended on a virtual
    /// clock), so the lookup can make no further progress and is
    /// classified [`LookupOutcome::Stuck`]. No-op if already finished.
    pub fn strand(&mut self) {
        if self.outcome.is_none() {
            self.outcome = Some(LookupOutcome::Stuck);
        }
    }

    /// Advances the walk by exactly one iteration of the lookup loop:
    /// one routing decision at the current node, skipping dead and
    /// unreachable candidates (billing their waits) until one answers.
    ///
    /// # Panics
    /// Panics if the walk already finished.
    pub fn step<T: SimOverlay<Walk = W> + ?Sized>(
        &mut self,
        net: &T,
        scratch: &mut WalkScratch,
    ) -> CursorStep {
        assert!(self.outcome.is_none(), "stepping a finished walk");
        let before = self.costs.latency_us;
        let outcome = self.step_inner(net, scratch);
        let delay_us = self.costs.latency_us - before;
        match outcome {
            Some(o) => {
                self.outcome = Some(o);
                CursorStep::Finished { delay_us }
            }
            None => CursorStep::Forwarded { delay_us },
        }
    }

    /// One loop iteration; `Some` ends the walk, by [`LookupOutcome`]'s rule.
    fn step_inner<T: SimOverlay<Walk = W> + ?Sized>(
        &mut self,
        net: &T,
        scratch: &mut WalkScratch,
    ) -> Option<LookupOutcome> {
        scratch.candidates.clear();
        let decision = net.next_hop(self.cur, &mut self.state, &mut scratch.candidates);
        if decision == StepDecision::Terminate {
            return Some(classify_terminal(self.cur, net.walk_owner(&self.state)));
        }
        if self.hops.len() >= self.budget {
            return Some(LookupOutcome::HopBudgetExhausted);
        }
        let mut next: Option<(HopPhase, NodeToken)> = None;
        // A stale entry costs one timeout; trying the same dead
        // node twice within one step does not (the querier
        // remembers who just failed to answer). The same memory
        // covers live candidates whose messages the fault plan
        // swallowed (`unreachable_seen`): one exhausted retry
        // cycle per step, never two.
        scratch.unreachable_seen.clear();
        scratch.step_dead.clear();
        for &(phase, cand) in &scratch.candidates {
            if cand == self.cur || !net.admit(&self.state, self.cur, cand) {
                continue;
            }
            if !net.membership().store.contains(cand) {
                if !scratch.step_dead.contains(&cand) {
                    self.timeouts += 1;
                    self.costs.absorb_stale(self.conditions.stale_wait_us());
                    scratch.step_dead.push(cand);
                    if self.record {
                        self.fx.events.push(Event::Timeout {
                            lookup: 0,
                            target: cand,
                            kind: TimeoutKind::Stale,
                        });
                    }
                }
                continue;
            }
            if scratch.unreachable_seen.contains(&cand) {
                continue;
            }
            // The candidate is live: contact it under the fault
            // plan, retrying per the policy. Draws are keyed by
            // (lookup_index, candidate, attempt), so the outcome
            // is independent of every other contact.
            let contact = self.conditions.contact(self.lookup_index, cand);
            self.costs.absorb(&contact);
            if self.record && contact.attempts > 1 {
                self.fx.events.push(Event::Retry {
                    lookup: 0,
                    target: cand,
                    attempts: contact.attempts,
                });
            }
            if !contact.delivered {
                // A message timeout, not a stale entry: the node
                // is alive, so it must NOT be reported through
                // `timed_out` — repair-on-use evicting it would
                // let the fault layer mutate routing state.
                if self.record {
                    self.fx.events.push(Event::Timeout {
                        lookup: 0,
                        target: cand,
                        kind: TimeoutKind::Message,
                    });
                }
                scratch.unreachable_seen.push(cand);
                continue;
            }
            next = Some((phase, cand));
            break;
        }
        match next {
            Some((phase, cand)) => {
                net.on_hop(&mut self.state, self.cur, phase, cand, &scratch.step_dead);
                if !scratch.step_dead.is_empty() {
                    self.fx.repairs.push(HopRepair {
                        from: self.cur,
                        phase,
                        to: cand,
                        timed_out: scratch.step_dead.clone(),
                    });
                }
                if self.record {
                    self.fx.events.push(Event::Hop {
                        lookup: 0,
                        index: self.hops.len() as u32,
                        from: self.cur,
                        to: cand,
                        phase,
                    });
                }
                self.hops.push(phase);
                self.cur = cand;
                if self.count_loads {
                    self.fx.queried.push(self.cur);
                }
                None
            }
            None if net.walk_owner(&self.state) == Some(self.cur) => Some(LookupOutcome::Found),
            None => Some(LookupOutcome::Stuck),
        }
    }

    /// Steps the walk to completion against one membership snapshot and
    /// finishes it: the inline (non-suspended) way to walk, read-only on
    /// the overlay. `scratch` may be reused across walks.
    pub fn run<T: SimOverlay<Walk = W> + ?Sized>(
        mut self,
        net: &T,
        scratch: &mut WalkScratch,
    ) -> (LookupTrace, WalkEffects) {
        while let CursorStep::Forwarded { .. } = self.step(net, scratch) {}
        self.finish()
    }

    /// Consumes the finished walk, emitting the `LookupEnd` event and
    /// returning the trace plus the deferred effects.
    ///
    /// # Panics
    /// Panics if the walk has not finished.
    #[must_use]
    pub fn finish(self) -> (LookupTrace, WalkEffects) {
        let Self {
            cur,
            hops,
            timeouts,
            costs,
            mut fx,
            outcome,
            record,
            ..
        } = self;
        let outcome = outcome.expect("finishing an unfinished walk");
        if record {
            fx.events.push(Event::LookupEnd {
                lookup: 0,
                outcome,
                terminal: cur,
                hops: hops.len() as u32,
                timeouts,
                latency_us: costs.latency_us,
            });
            // Message convention (see `crate::obs::phase`): one per hop
            // taken, one per extra send attempt, one per timed-out
            // contact (stale entry or exhausted retries).
            let retries = u64::from(costs.retries);
            let total_timeouts = u64::from(timeouts) + u64::from(costs.msg_timeouts);
            fx.bill = Some(PhaseCosts {
                calls: 1,
                msgs: hops.len() as u64 + retries + total_timeouts,
                retries,
                timeouts: total_timeouts,
                repair_entries: 0,
                time_us: costs.latency_us,
            });
        }
        (
            LookupTrace {
                hops,
                timeouts,
                outcome,
                terminal: cur,
                net: costs,
            },
            fx,
        )
    }
}

/// Classifies a walk that stopped at `cur` by its own decision
/// ([`StepDecision::Terminate`]), given its [`SimOverlay::walk_owner`].
#[inline]
fn classify_terminal(cur: NodeToken, owner: Option<NodeToken>) -> LookupOutcome {
    match owner {
        Some(owner) if owner == cur => LookupOutcome::Found,
        Some(_) => LookupOutcome::WrongOwner,
        None => LookupOutcome::Stuck,
    }
}

/// A suspended lookup with its overlay type erased — what
/// [`Overlay::lookup_begin`] hands to drivers that only hold a
/// `&mut dyn Overlay` (the continuous-time churn engine). Wraps a
/// [`WalkCursor`] plus its scratch buffers.
pub trait LookupCursor {
    /// The node currently holding the lookup.
    fn current(&self) -> NodeToken;
    /// `true` once the walk has terminated.
    fn is_finished(&self) -> bool;
    /// Advances the walk by one step against the overlay's *current*
    /// state (membership changes since the last step are observed,
    /// exactly as a real in-flight lookup would observe them).
    ///
    /// # Panics
    /// Panics if `net` is not the overlay that created this cursor, or
    /// if the walk already finished.
    fn step(&mut self, net: &dyn Overlay) -> CursorStep;
    /// Strands the walk (its current holder departed); see
    /// [`WalkCursor::strand`].
    fn strand(&mut self);
    /// Consumes the finished walk, returning the trace and the effects
    /// to replay via [`Overlay::apply_walk_effects`].
    fn finish(self: Box<Self>) -> (LookupTrace, WalkEffects);
}

/// The one [`LookupCursor`] implementation: a typed [`WalkCursor`]
/// that recovers its concrete overlay through [`Overlay::as_any`].
pub(super) struct TypedCursor<T: SimOverlay> {
    pub(super) cursor: WalkCursor<T::Walk>,
    pub(super) scratch: WalkScratch,
}

impl<T: SimOverlay> LookupCursor for TypedCursor<T> {
    fn current(&self) -> NodeToken {
        self.cursor.current()
    }

    fn is_finished(&self) -> bool {
        self.cursor.is_finished()
    }

    fn step(&mut self, net: &dyn Overlay) -> CursorStep {
        let net = net
            .as_any()
            .downcast_ref::<T>()
            .expect("cursor stepped against a different overlay");
        self.cursor.step(net, &mut self.scratch)
    }

    fn strand(&mut self) {
        self.cursor.strand();
    }

    fn finish(self: Box<Self>) -> (LookupTrace, WalkEffects) {
        self.cursor.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::{DelayModel, FaultPlan, RetryPolicy};
    use crate::obs::Telemetry;
    use crate::overlay::Protocol;
    use crate::sim::fixture::{walk_key, StaleRing};

    #[test]
    fn walk_reaches_owner_and_counts_loads() {
        let mut net = StaleRing::with_tokens(&[0, 16, 32, 48], 64);
        let t = walk_key(&mut net, 0, 40, true);
        assert_eq!(t.outcome, LookupOutcome::Found);
        assert_eq!(t.terminal, 48);
        assert_eq!(t.timeouts, 0);
        assert_eq!(t.hops.len(), 3);
        // Every visited node (source included) counted once.
        assert_eq!(net.members.store.loads_vec(), vec![1, 1, 1, 1]);
    }

    #[test]
    fn stale_pointers_cost_one_timeout_each_step() {
        let mut net = StaleRing::with_tokens(&[0, 16, 32, 48], 64);
        assert!(net.leave(16));
        let t = walk_key(&mut net, 0, 40, true);
        assert_eq!(t.outcome, LookupOutcome::Found);
        assert_eq!(t.terminal, 48);
        assert_eq!(t.timeouts, 1, "one stale hop through the departed 16");
    }

    #[test]
    fn quiet_walks_leave_loads_untouched() {
        let mut net = StaleRing::with_tokens(&[0, 16, 32, 48], 64);
        let t = walk_key(&mut net, 0, 40, false);
        assert_eq!(t.outcome, LookupOutcome::Found);
        assert_eq!(net.members.store.loads_total(), 0);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let mut net = StaleRing::with_tokens(&[0, 16, 32, 48], 64);
        net.budget_cap = 1;
        let t = walk_key(&mut net, 0, 40, true);
        assert_eq!(t.outcome, LookupOutcome::HopBudgetExhausted);
        assert_eq!(t.path_len(), 1, "budget of one hop");
    }

    #[test]
    fn a_walk_that_arrives_on_its_last_budgeted_hop_is_found() {
        let mut net = StaleRing::with_tokens(&[0, 16, 32, 48], 64);
        net.budget_cap = 3;
        let t = walk_key(&mut net, 0, 40, true);
        assert_eq!(t.outcome, LookupOutcome::Found);
        assert_eq!((t.terminal, t.path_len()), (48, 3), "0 -> 16 -> 32 -> 48");
    }

    #[test]
    fn a_walk_with_no_live_candidate_is_found_only_at_the_owner() {
        let mut ring = StaleRing::with_tokens(&[0, 16, 32, 48], 64);
        ring.never_terminates = true;
        let plan = FaultPlan {
            seed: 3,
            loss: 1.0,
            delay: DelayModel::Uniform(0, 0),
            duplicate: 0.0,
        };
        ring.membership_mut().net = NetConditions::new(plan, RetryPolicy::standard());
        // Every contact is lost, so each walk ends where it starts.
        for (src, outcome) in [
            (48, LookupOutcome::Found),
            (0, LookupOutcome::Stuck),
            (32, LookupOutcome::Stuck),
        ] {
            let t = walk_key(&mut ring, src, 40, false);
            assert_eq!((t.terminal, t.path_len()), (src, 0));
            assert_eq!(t.outcome, outcome, "exhausted at {src}, owner 48");
        }
    }

    #[test]
    fn walk_emits_structured_events_matching_the_trace() {
        let mut net = StaleRing::with_tokens(&[0, 16, 32, 48], 64);
        assert!(net.leave(16));
        let telemetry = Telemetry::enabled();
        net.membership_mut().telemetry = telemetry.clone();
        let trace = walk_key(&mut net, 0, 40, true);
        let events = telemetry.read(|r| r.events.clone()).unwrap();
        // Exactly one lookup: start, per-hop, one stale timeout, end.
        assert!(matches!(
            events.first(),
            Some(Event::LookupStart {
                src: 0,
                key: Some(40),
                ..
            })
        ));
        let hop_events: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::Hop {
                    index, from, to, ..
                } => Some((*index, *from, *to)),
                _ => None,
            })
            .collect();
        assert_eq!(hop_events.len(), trace.path_len());
        for (i, window) in hop_events.windows(2).enumerate() {
            assert_eq!(window[0].0 as usize, i, "hop indices are sequential");
            assert_eq!(window[0].2, window[1].1, "hops chain from -> to");
        }
        let stale = events
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
        assert_eq!(stale as u32, trace.timeouts);
        match events.last() {
            Some(Event::LookupEnd {
                outcome,
                terminal,
                hops,
                timeouts,
                ..
            }) => {
                assert_eq!(*outcome, trace.outcome);
                assert_eq!(*terminal, trace.terminal);
                assert_eq!(*hops as usize, trace.path_len());
                assert_eq!(*timeouts, trace.timeouts);
            }
            other => panic!("last event should be LookupEnd, got {other:?}"),
        }
    }

    #[test]
    fn tracing_does_not_change_routing() {
        let run = |telemetry: Telemetry| {
            let mut ring = StaleRing::with_tokens(&[0, 16, 32, 48], 64);
            assert!(ring.leave(16));
            ring.membership_mut().telemetry = telemetry;
            (0..24u64)
                .map(|key| walk_key(&mut ring, 0, key, true))
                .collect::<Vec<_>>()
        };
        let silent = run(Telemetry::disabled());
        let traced = run(Telemetry::enabled());
        for (a, b) in silent.iter().zip(&traced) {
            assert_eq!(a.hops, b.hops);
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.terminal, b.terminal);
            assert_eq!(a.timeouts, b.timeouts);
            assert_eq!(a.net, b.net);
        }
    }

    #[test]
    fn ideal_network_walk_has_zero_net_costs() {
        let mut net = StaleRing::with_tokens(&[0, 16, 32, 48], 64);
        let t = walk_key(&mut net, 0, 40, true);
        assert_eq!(t.net, NetCosts::default());
    }

    #[test]
    fn zero_loss_with_delay_keeps_hops_identical_but_bills_latency() {
        let mut ideal = StaleRing::with_tokens(&[0, 16, 32, 48], 64);
        let baseline = walk_key(&mut ideal, 0, 40, true);

        let mut delayed = StaleRing::with_tokens(&[0, 16, 32, 48], 64);
        let plan = FaultPlan {
            seed: 11,
            loss: 0.0,
            delay: DelayModel::Uniform(10_000, 30_000),
            duplicate: 0.0,
        };
        delayed.membership_mut().net = NetConditions::new(plan, RetryPolicy::standard());
        let t = walk_key(&mut delayed, 0, 40, true);
        assert_eq!(t.hops, baseline.hops, "delay must not change routing");
        assert_eq!(t.outcome, baseline.outcome);
        assert_eq!(t.net.retries, 0);
        assert_eq!(t.net.msg_timeouts, 0);
        let hops = t.path_len() as u64;
        assert!(
            t.net.latency_us >= hops * 10_000 && t.net.latency_us <= hops * 30_000,
            "one RTT draw per hop, within the delay bounds"
        );
    }

    #[test]
    fn lossy_walk_is_deterministic_and_counts_retries() {
        let run = || {
            let mut ring = StaleRing::with_tokens(&[0, 16, 32, 48], 64);
            let plan = FaultPlan {
                seed: 7,
                loss: 0.4,
                delay: DelayModel::Uniform(1_000, 1_000),
                duplicate: 0.1,
            };
            ring.membership_mut().net = NetConditions::new(plan, RetryPolicy::standard());
            let mut traces = Vec::new();
            for key in 0..32u64 {
                traces.push(walk_key(&mut ring, 0, key, false));
            }
            traces
        };
        let a = run();
        let b = run();
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.hops, y.hops);
            assert_eq!(x.net, y.net);
        }
        let retries: u32 = a.iter().map(|t| t.net.retries).sum();
        assert!(retries > 0, "40% loss over 32 walks must trigger retries");
    }

    #[test]
    fn total_loss_strands_the_source_without_mutating_state() {
        let mut ring = StaleRing::with_tokens(&[0, 16, 32, 48], 64);
        let before: Vec<u64> = ring.members.store.tokens();
        let plan = FaultPlan {
            seed: 3,
            loss: 1.0,
            delay: DelayModel::Uniform(0, 0),
            duplicate: 0.0,
        };
        let retry = RetryPolicy::standard();
        ring.membership_mut().net = NetConditions::new(plan, retry);
        let t = walk_key(&mut ring, 0, 40, true);
        assert_eq!(t.outcome, LookupOutcome::Stuck);
        assert_eq!(t.path_len(), 0, "no message ever delivered");
        assert_eq!(t.timeouts, 0, "live-node losses are not stale timeouts");
        // Each distinct candidate is tried exactly once per step, and each
        // failed contact burns exactly max_attempts sends.
        assert_eq!(
            t.net.retries,
            t.net.msg_timeouts * (RetryPolicy::MAX_ATTEMPTS - 1)
        );
        assert!(t.net.msg_timeouts > 0);
        assert_eq!(
            ring.members.store.tokens(),
            before,
            "faults never touch membership"
        );
    }

    #[test]
    fn stale_entries_bill_a_full_retry_cycle_of_latency() {
        let mut ring = StaleRing::with_tokens(&[0, 16, 32, 48], 64);
        assert!(ring.leave(16));
        let retry = RetryPolicy::standard();
        ring.membership_mut().net = NetConditions::new(
            FaultPlan {
                seed: 5,
                loss: 0.0,
                delay: DelayModel::Uniform(0, 0),
                duplicate: 0.0,
            },
            retry,
        );
        let t = walk_key(&mut ring, 0, 40, true);
        assert_eq!(t.timeouts, 1);
        assert_eq!(t.net.retries, 0, "stale contacts are not message retries");
        assert_eq!(
            t.net.latency_us,
            RetryPolicy::give_up_us(),
            "the one dead contact costs one exhausted retry cycle"
        );
    }
}
