//! The virtual clock: a deterministic discrete-event kernel.
//!
//! Every temporal claim of the paper's §4.3–§4.4 (stale-entry timeout
//! cost, lookup latency under churn, time to recover from a membership
//! shock) is reproduced by interleaving *timestamped events* — lookup
//! message round trips, retry/backoff waits, per-node stabilization
//! timers, join/leave arrivals — on one seeded, time-ordered queue:
//!
//! * [`SimTime`] — simulated microseconds, the single time unit shared
//!   by the event queue, the fault layer's delay/backoff draws
//!   ([`crate::net`]), and every latency figure.
//! * [`EventQueue`] — a min-heap of `(time, event)` pairs with strict
//!   FIFO tie-breaking: events scheduled at the same timestamp dequeue
//!   in scheduling order, so simulations are deterministic down to the
//!   byte regardless of heap internals.
//! * [`exp_delay`] — Poisson inter-arrival sampling for workload and
//!   churn streams.
//!
//! # Determinism contract
//!
//! A simulation driven by this kernel is a pure function of its seeds:
//!
//! 1. the queue itself introduces no randomness and no dependence on
//!    wall clock, thread timing, or allocation order;
//! 2. equal-timestamp ties always resolve FIFO (monotone sequence
//!    numbers), so "simultaneous" events have one canonical order —
//!    the order the simulation scheduled them in;
//! 3. all stochastic inputs (arrival gaps, fault draws) come from
//!    seeded streams ([`crate::rng`], [`crate::net::FaultPlan`]) that
//!    are consumed in event order.
//!
//! Hence the same seed reproduces the identical event sequence across
//! runs, machines, and worker counts (parallelism in this workspace
//! only ever shards *read-only* walks; see [`crate::sim`]).
//!
//! # Round-mode equivalence
//!
//! The lockstep "stabilization rounds" engine the evaluation started
//! with is the degenerate configuration of this kernel: zero message
//! delays collapse every lookup into a single instant, and the hashed
//! per-second stabilization buckets fire exactly as the round engine's
//! bucket sweep did. `dht-sim`'s churn engine keeps that configuration
//! byte-compatible (see its `TimeModel`).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use rand::RngCore;

/// Simulated time in microseconds.
pub type SimTime = u64;

/// One microsecond-resolution second.
pub const SECOND: SimTime = 1_000_000;

/// A scheduled event.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E: Eq> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap; sequence number breaks ties FIFO.
        other.time.cmp(&self.time).then(other.seq.cmp(&self.seq))
    }
}

impl<E: Eq> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered event queue. Events with equal timestamps dequeue in
/// insertion order, so simulations are deterministic.
#[derive(Debug)]
pub struct EventQueue<E: Eq> {
    heap: BinaryHeap<Scheduled<E>>,
    now: SimTime,
    seq: u64,
}

impl<E: Eq> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Eq> EventQueue<E> {
    /// An empty queue at time zero.
    #[must_use]
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            now: 0,
            seq: 0,
        }
    }

    /// Current simulated time (the timestamp of the last popped event).
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` at absolute time `at`. Scheduling in the past is
    /// a logic error.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        debug_assert!(at >= self.now, "scheduling into the past");
        self.heap.push(Scheduled {
            time: at,
            seq: self.seq,
            event,
        });
        self.seq += 1;
    }

    /// Schedules `event` `delay` after the current time.
    pub fn schedule_in(&mut self, delay: SimTime, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Pops the next event, advancing the clock.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        self.now = s.time;
        Some((s.time, s.event))
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` iff no events are pending.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Samples an exponentially distributed inter-arrival delay (in simulated
/// microseconds) for a Poisson process with `rate` events per second.
#[must_use]
pub fn exp_delay(rate_per_sec: f64, rng: &mut dyn RngCore) -> SimTime {
    assert!(rate_per_sec > 0.0, "rate must be positive");
    // Inverse-CDF sampling; 1 - u avoids ln(0).
    let u = (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
    let secs = -(1.0 - u).ln() / rate_per_sec;
    (secs * SECOND as f64).round() as SimTime
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::stream;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        q.schedule(5, "first");
        q.schedule(5, "second");
        assert_eq!(q.pop(), Some((5, "first")));
        assert_eq!(q.pop(), Some((5, "second")));
    }

    #[test]
    fn interleaved_scheduling_keeps_fifo_ties() {
        // Ties stay FIFO even when other timestamps are pushed between
        // the tied events — the sequence number is global, not per-time.
        let mut q = EventQueue::new();
        q.schedule(7, "x");
        q.schedule(3, "early");
        q.schedule(7, "y");
        q.schedule(9, "late");
        q.schedule(7, "z");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["early", "x", "y", "z", "late"]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(100, ());
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 100);
        q.schedule_in(50, ());
        assert_eq!(q.pop(), Some((150, ())));
    }

    #[test]
    fn exp_delay_mean_is_close_to_inverse_rate() {
        let mut rng = stream(1, "exp");
        let rate = 4.0; // four per second -> mean 0.25 s
        let n = 20_000;
        let total: u64 = (0..n).map(|_| exp_delay(rate, &mut rng)).sum();
        let mean_secs = total as f64 / n as f64 / SECOND as f64;
        assert!(
            (mean_secs - 0.25).abs() < 0.01,
            "empirical mean {mean_secs} should be ~0.25"
        );
    }

    #[test]
    fn exp_delay_is_deterministic_per_stream() {
        let a: Vec<SimTime> = {
            let mut r = stream(2, "exp");
            (0..10).map(|_| exp_delay(1.0, &mut r)).collect()
        };
        let b: Vec<SimTime> = {
            let mut r = stream(2, "exp");
            (0..10).map(|_| exp_delay(1.0, &mut r)).collect()
        };
        assert_eq!(a, b);
    }
}
