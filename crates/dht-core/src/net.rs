//! Deterministic message-level fault injection and retry policy.
//!
//! The paper's churn evaluation (§4.3–§4.4) counts only *node*-level
//! failures: a "timeout" is an attempt to contact a departed node
//! through a stale routing-table entry. Real deployments also lose,
//! delay, and duplicate individual messages, and the querier responds
//! with retries and exponential backoff. This module models that layer
//! for the shared walk engine ([`crate::sim::WalkCursor`]):
//!
//! * [`FaultPlan`] — a seeded per-message fault model: loss
//!   probability, round-trip delay distribution in simulated
//!   microseconds, and optional duplication of delivered messages.
//! * [`RetryPolicy`] — what the querier does about it: a bounded number
//!   of attempts per contact, a base timeout, and exponential backoff
//!   with a cap. One querier is modelled, so these are constants.
//! * [`NetConditions`] — the live session: the plan plus a monotone
//!   *lookup-index* counter, owned by every
//!   [`crate::sim::Membership`]. All fault draws are pure functions of
//!   `(plan seed, lookup index, target, attempt)`, so a fixed-seed run
//!   is bit-identical across executions, independent of the overlay's
//!   own RNG streams — and, crucially, independent of the *order* the
//!   contacts are made in. Order-independence is what lets the
//!   parallel executor ([`crate::sim::ParallelExecutor`]) walk lookups
//!   concurrently and still reproduce the sequential byte stream: a
//!   walk's draws depend only on its own index, not on how many
//!   messages other walks sent first.
//! * [`NetCosts`] — the per-lookup bill: retries, message-level
//!   timeouts, duplicate deliveries, and end-to-end simulated latency.
//!
//! # Two kinds of timeout
//!
//! The engine distinguishes the §4.3 *stale-entry* timeout (the
//! contacted node has departed; no retry can help; reported in
//! [`crate::lookup::LookupTrace::timeouts`]) from the *message* timeout
//! introduced here (the node is live but every one of the
//! [`RetryPolicy::MAX_ATTEMPTS`] sends was lost; reported in
//! [`NetCosts::msg_timeouts`]). Both cost the querier the full retry
//! cycle of waiting — it cannot tell the cases apart on the wire — but
//! only the former may feed repair-on-use, because the latter's target
//! is still alive and evicting it would let the fault layer mutate
//! routing state.
//!
//! # Zero-cost when disabled
//!
//! With [`FaultPlan::none`] every send is delivered on the first
//! attempt with zero delay and no fault draw: no retries, no message
//! timeouts, no added latency, and — critically — no change to any
//! routing decision, so every fixed-seed trace is bit-identical to the
//! engine without this layer. With `loss = 0.0` and a non-zero delay model, hop counts are
//! still exactly those of the fault-free engine; only
//! [`NetCosts::latency_us`] changes.

use crate::hash::splitmix64;

/// Simulated time in microseconds (matches the discrete-event engine's
/// clock resolution).
pub type SimMicros = u64;

/// Round-trip delay distribution for one delivered message.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayModel {
    /// Round trips drawn uniformly from `[lo, hi]` µs (inclusive);
    /// `Uniform(x, x)` is a constant `x`.
    Uniform(SimMicros, SimMicros),
}

impl DelayModel {
    /// The round trip for a message whose fault draw is `r`.
    #[must_use]
    fn sample(self, r: u64) -> SimMicros {
        let DelayModel::Uniform(lo, hi) = self;
        let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
        let span = hi - lo;
        if span == 0 {
            return lo;
        }
        // Lemire reduction onto [0, span] (span < 2^64, so +1 fits in u128).
        lo + ((u128::from(r) * (u128::from(span) + 1)) >> 64) as u64
    }
}

/// A deterministic, seeded per-message fault model.
///
/// The loss/delay/duplication draws for every message the walk engine
/// sends are pure functions of `(seed, lookup index, target, attempt)`
/// — no shared counter, so draws are independent of the order contacts
/// happen to be made in.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    /// Seed of the fault draw stream (independent of every overlay RNG).
    pub seed: u64,
    /// Probability in `[0, 1]` that any single message is lost.
    pub loss: f64,
    /// Round-trip delay of delivered messages.
    pub delay: DelayModel,
    /// Probability in `[0, 1]` that a delivered message is duplicated.
    /// Duplicates are idempotent: they are counted
    /// ([`NetCosts::duplicates`]) but never alter routing.
    pub duplicate: f64,
}

impl FaultPlan {
    /// The ideal network: nothing is lost, delayed, or duplicated.
    #[must_use]
    pub fn none() -> Self {
        Self {
            seed: 0,
            loss: 0.0,
            delay: DelayModel::Uniform(0, 0),
            duplicate: 0.0,
        }
    }

    /// A lossy wide-area profile: the given loss rate, 20–80 ms round
    /// trips, and 1% duplication.
    #[must_use]
    pub fn lossy(seed: u64, loss: f64) -> Self {
        Self {
            seed,
            loss,
            delay: DelayModel::Uniform(20_000, 80_000),
            duplicate: 0.01,
        }
    }
}

impl Default for FaultPlan {
    fn default() -> Self {
        Self::none()
    }
}

/// Retry/backoff behaviour of the querier for one contact: 4 attempts,
/// a 250 ms base timeout, doubling backoff capped at 2 s. Every run uses
/// these numbers, so they are constants and the type carries no state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RetryPolicy;

impl RetryPolicy {
    /// Total sends per contact, first attempt included.
    pub const MAX_ATTEMPTS: u32 = 4;
    /// Timeout the querier waits before the first retry, in µs.
    pub const BASE_TIMEOUT_US: SimMicros = 250_000;
    /// Multiplier applied to the timeout after every failed attempt.
    pub const BACKOFF_FACTOR: u32 = 2;
    /// Upper bound on any single backoff wait, in µs.
    pub const MAX_TIMEOUT_US: SimMicros = 2_000_000;

    /// The querier every run uses.
    #[must_use]
    pub fn standard() -> Self {
        Self
    }

    /// The timeout waited after the `attempt`-th send (1-based) goes
    /// unanswered: `base * factor^(attempt-1)`, capped.
    ///
    /// # Panics
    /// Panics if `attempt` is zero (attempts are 1-based).
    #[must_use]
    pub fn timeout_us(attempt: u32) -> SimMicros {
        assert!(attempt >= 1, "attempts are 1-based");
        let factor = u64::from(Self::BACKOFF_FACTOR).saturating_pow(attempt - 1);
        Self::BASE_TIMEOUT_US
            .saturating_mul(factor)
            .min(Self::MAX_TIMEOUT_US)
    }

    /// Total time spent declaring one contact unreachable: the sum of
    /// all [`RetryPolicy::MAX_ATTEMPTS`] timeouts.
    #[must_use]
    pub fn give_up_us() -> SimMicros {
        (1..=Self::MAX_ATTEMPTS)
            .map(Self::timeout_us)
            .fold(0, SimMicros::saturating_add)
    }
}

/// Outcome of one contact (one candidate, up to
/// [`RetryPolicy::MAX_ATTEMPTS`] sends) under the fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ContactOutcome {
    /// `true` iff some send was answered within the attempt budget.
    pub delivered: bool,
    /// Sends consumed (1 when the first attempt got through).
    pub attempts: u32,
    /// Wall-clock cost of the contact: backoff waits for every lost
    /// send, plus the round trip of the delivered one.
    pub latency_us: SimMicros,
    /// `true` iff the delivered message was duplicated in flight.
    pub duplicated: bool,
}

/// The live network conditions of one simulated overlay: the fault
/// plan and the monotone lookup-index counter that keys the
/// deterministic draws. The querier follows [`RetryPolicy`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetConditions {
    /// Per-message fault model.
    pub plan: FaultPlan,
    /// Next workload lookup index (monotone across all walks; each
    /// sequential walk takes one, the parallel executor reserves a
    /// contiguous range per batch).
    next_lookup: u64,
}

impl NetConditions {
    /// Conditions under `plan` with the [`RetryPolicy`] querier,
    /// starting at lookup index zero.
    #[must_use]
    pub fn new(plan: FaultPlan, _retry: RetryPolicy) -> Self {
        Self {
            plan,
            next_lookup: 0,
        }
    }

    /// The ideal network with the standard retry policy — the default
    /// of every [`crate::sim::Membership`].
    #[must_use]
    pub fn ideal() -> Self {
        Self::new(FaultPlan::none(), RetryPolicy::standard())
    }

    /// Takes the next lookup index — the walk engine calls this once
    /// per sequential walk.
    pub fn take_lookup_index(&mut self) -> u64 {
        let index = self.next_lookup;
        self.next_lookup += 1;
        index
    }

    /// Reserves `count` consecutive lookup indices for a batch of
    /// walks, returning the first. The parallel executor assigns
    /// `base + i` to the `i`-th request in canonical workload order, so
    /// the draw streams are identical no matter how the batch is
    /// sharded.
    pub fn reserve_lookup_indices(&mut self, count: u64) -> u64 {
        let base = self.next_lookup;
        self.next_lookup += count;
        base
    }

    /// The fault word for the `attempt`-th send (1-based) of `lookup`'s
    /// contact with `target` — a pure function of the plan seed and the
    /// key, independent of every other draw.
    fn draw(&self, lookup: u64, target: u64, attempt: u32) -> u64 {
        let lane = splitmix64(lookup ^ 0x006d_6573_7361_6765)
            ^ splitmix64(target ^ 0x7461_7267_6574)
            ^ splitmix64(u64::from(attempt) ^ 0x6174_746d_7074);
        splitmix64(self.plan.seed ^ splitmix64(lane))
    }

    /// Contacts a *live* node on behalf of the `lookup`-indexed walk:
    /// sends until a message gets through or the attempt budget is
    /// spent, accumulating backoff waits and the final round trip.
    ///
    /// The outcome is a pure function of `(plan, lookup, target)` —
    /// contacting the same target twice within one lookup yields the
    /// same outcome (the network's disposition toward that pair is fixed
    /// for the lookup's duration), and contacts from different lookups
    /// never perturb each other. On a plan that can neither lose, delay
    /// nor duplicate, every send is delivered at once and no draw is made.
    #[must_use]
    pub fn contact(&self, lookup: u64, target: u64) -> ContactOutcome {
        let plan = &self.plan;
        if plan.loss <= 0.0 && plan.duplicate <= 0.0 && plan.delay == DelayModel::Uniform(0, 0) {
            return ContactOutcome {
                delivered: true,
                attempts: 1,
                latency_us: 0,
                duplicated: false,
            };
        }
        let mut latency: SimMicros = 0;
        for attempt in 1..=RetryPolicy::MAX_ATTEMPTS {
            let r = self.draw(lookup, target, attempt);
            if !roll(r, self.plan.loss) {
                latency =
                    latency.saturating_add(self.plan.delay.sample(splitmix64(r ^ 0x0072_7474)));
                return ContactOutcome {
                    delivered: true,
                    attempts: attempt,
                    latency_us: latency,
                    duplicated: roll(splitmix64(r ^ 0x0064_7570), self.plan.duplicate),
                };
            }
            latency = latency.saturating_add(RetryPolicy::timeout_us(attempt));
        }
        ContactOutcome {
            delivered: false,
            attempts: RetryPolicy::MAX_ATTEMPTS,
            latency_us: latency,
            duplicated: false,
        }
    }

    /// Wall-clock cost of contacting a *departed* node (the §4.3
    /// stale-entry timeout): no send can be answered, so the querier
    /// burns the full retry cycle before giving up. Consumes no fault
    /// draws — a dead node answers nothing whether or not the network
    /// also lost the request.
    #[must_use]
    pub fn stale_wait_us(&self) -> SimMicros {
        RetryPolicy::give_up_us()
    }
}

impl Default for NetConditions {
    fn default() -> Self {
        Self::ideal()
    }
}

/// Converts a fault word into a Bernoulli outcome with probability `p`.
fn roll(r: u64, p: f64) -> bool {
    if p <= 0.0 {
        return false;
    }
    if p >= 1.0 {
        return true;
    }
    ((r >> 11) as f64) * (1.0 / (1u64 << 53) as f64) < p
}

/// The message-level bill of one lookup, accumulated by the walk engine
/// alongside the hop trace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetCosts {
    /// Re-sends forced by message loss (attempts beyond the first, over
    /// all contacts of the walk). Stale-entry detection is *not*
    /// counted here — see the module docs.
    pub retries: u32,
    /// Contacts of live nodes abandoned because every send was lost.
    pub msg_timeouts: u32,
    /// Delivered messages that were duplicated in flight (idempotent).
    pub duplicates: u32,
    /// Simulated end-to-end latency: per-hop round trips, backoff waits
    /// for lost sends, and full retry cycles for stale entries and
    /// unreachable contacts.
    pub latency_us: SimMicros,
}

impl NetCosts {
    /// Folds one contact outcome into the bill.
    pub fn absorb(&mut self, outcome: &ContactOutcome) {
        self.retries += outcome.attempts.saturating_sub(1);
        if !outcome.delivered {
            self.msg_timeouts += 1;
        }
        if outcome.duplicated {
            self.duplicates += 1;
        }
        self.latency_us = self.latency_us.saturating_add(outcome.latency_us);
    }

    /// Adds the cost of one stale-entry (departed node) detection.
    pub fn absorb_stale(&mut self, wait_us: SimMicros) {
        self.latency_us = self.latency_us.saturating_add(wait_us);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_contact_is_free_and_instant() {
        let net = NetConditions::ideal();
        for lookup in 0..100 {
            let c = net.contact(lookup, 7);
            assert!(c.delivered);
            assert_eq!(c.attempts, 1);
            assert_eq!(c.latency_us, 0);
            assert!(!c.duplicated);
        }
    }

    #[test]
    fn lookup_indices_are_monotone_and_reservable() {
        let mut net = NetConditions::ideal();
        assert_eq!(net.take_lookup_index(), 0);
        assert_eq!(net.take_lookup_index(), 1);
        assert_eq!(net.reserve_lookup_indices(10), 2, "batch starts after");
        assert_eq!(net.take_lookup_index(), 12, "batch advances the counter");
        assert_eq!(net.take_lookup_index(), 13);
    }

    #[test]
    fn total_loss_exhausts_exactly_max_attempts() {
        let plan = FaultPlan {
            seed: 3,
            loss: 1.0,
            delay: DelayModel::Uniform(5_000, 5_000),
            duplicate: 0.0,
        };
        let net = NetConditions::new(plan, RetryPolicy::standard());
        let c = net.contact(0, 1);
        assert!(!c.delivered);
        assert_eq!(c.attempts, 4);
        assert_eq!(c.latency_us, 250_000 + 500_000 + 1_000_000 + 2_000_000);
    }

    #[test]
    fn backoff_caps_at_max_timeout() {
        assert_eq!(RetryPolicy::timeout_us(1), 250_000);
        assert_eq!(RetryPolicy::timeout_us(2), 500_000);
        assert_eq!(RetryPolicy::timeout_us(3), 1_000_000);
        assert_eq!(RetryPolicy::timeout_us(4), 2_000_000);
        assert_eq!(RetryPolicy::timeout_us(5), 2_000_000, "capped");
        assert_eq!(
            RetryPolicy::timeout_us(100),
            2_000_000,
            "saturates without overflow"
        );
        assert_eq!(
            RetryPolicy::give_up_us(),
            250_000 + 500_000 + 1_000_000 + 2_000_000,
            "give-up time sums every capped wait"
        );
    }

    #[test]
    fn delay_models_stay_in_bounds() {
        for r in [0u64, 1, u64::MAX, 0x8000_0000_0000_0000, 12345] {
            let d = DelayModel::Uniform(10, 20).sample(r);
            assert!((10..=20).contains(&d), "draw {d} outside [10, 20]");
        }
        // Reversed and degenerate bounds are tolerated.
        assert!((10..=20).contains(&DelayModel::Uniform(20, 10).sample(99)));
        assert_eq!(DelayModel::Uniform(5, 5).sample(42), 5);
    }

    #[test]
    fn draws_are_deterministic_per_seed_and_key() {
        let plan = FaultPlan::lossy(11, 0.5);
        let run = || {
            let net = NetConditions::new(plan, RetryPolicy::standard());
            (0..50)
                .map(|i| net.contact(i, i * 3 + 1))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(), run());
        // A different seed yields a different outcome sequence.
        let other = NetConditions::new(FaultPlan::lossy(12, 0.5), RetryPolicy::standard());
        let theirs: Vec<ContactOutcome> = (0..50).map(|i| other.contact(i, i * 3 + 1)).collect();
        assert_ne!(run(), theirs);
    }

    #[test]
    fn draws_are_independent_of_contact_order() {
        // The fault word depends only on (lookup, target, attempt):
        // interleaving contacts from many lookups in any order — the
        // situation the parallel executor creates — yields outcomes
        // identical to the canonical sequential order.
        let plan = FaultPlan::lossy(11, 0.5);
        let net = NetConditions::new(plan, RetryPolicy::standard());
        let keys: Vec<(u64, u64)> = (0..64).map(|i| (i / 4, splitmix64(i))).collect();
        let forward: Vec<ContactOutcome> = keys.iter().map(|&(l, t)| net.contact(l, t)).collect();
        let reversed: Vec<ContactOutcome> =
            keys.iter().rev().map(|&(l, t)| net.contact(l, t)).collect();
        let mut reversed = reversed;
        reversed.reverse();
        assert_eq!(forward, reversed);
        // Distinct lookups draw distinct fault words for the same target.
        let a: Vec<bool> = (0..200).map(|l| net.contact(l, 9).delivered).collect();
        let b: Vec<bool> = (0..200).map(|l| net.contact(l, 10).delivered).collect();
        assert_ne!(a, b, "targets get independent lanes");
    }

    #[test]
    fn loss_rate_is_roughly_honoured() {
        let plan = FaultPlan {
            seed: 5,
            loss: 0.2,
            delay: DelayModel::Uniform(0, 0),
            duplicate: 0.0,
        };
        // The first attempt of every contact is one Bernoulli draw.
        let net = NetConditions::new(plan, RetryPolicy::standard());
        let first_try = (0..10_000)
            .filter(|&i| net.contact(i, 1).attempts == 1)
            .count();
        assert!(
            (7_700..=8_300).contains(&first_try),
            "{first_try}/10000 delivered first time, should be ~8000"
        );
    }

    #[test]
    fn net_costs_absorb_contacts() {
        let mut costs = NetCosts::default();
        costs.absorb(&ContactOutcome {
            delivered: true,
            attempts: 3,
            latency_us: 900,
            duplicated: true,
        });
        costs.absorb(&ContactOutcome {
            delivered: false,
            attempts: 4,
            latency_us: 1_500,
            duplicated: false,
        });
        costs.absorb_stale(2_000);
        assert_eq!(costs.retries, 2 + 3);
        assert_eq!(costs.msg_timeouts, 1);
        assert_eq!(costs.duplicates, 1);
        assert_eq!(costs.latency_us, 900 + 1_500 + 2_000);
    }

    #[test]
    fn repeated_contact_within_a_lookup_is_fixed() {
        // Same (lookup, target) pair, same disposition — the walk engine
        // relies on this when a candidate recurs across steps.
        let plan = FaultPlan::lossy(3, 0.5);
        let net = NetConditions::new(plan, RetryPolicy::standard());
        for lookup in 0..20 {
            for target in 0..20 {
                assert_eq!(net.contact(lookup, target), net.contact(lookup, target));
            }
        }
    }

    #[test]
    fn stale_wait_matches_give_up_cycle() {
        let net = NetConditions::ideal();
        assert_eq!(net.stale_wait_us(), RetryPolicy::give_up_us());
    }
}
