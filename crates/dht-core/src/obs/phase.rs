//! Per-phase cost accounting.
//!
//! Aggregate counters answer "how many messages did this run send" but
//! not "who sent them": the paper's maintenance-cost tradeoff (§5)
//! needs lookup traffic separated from the stabilization, repair, and
//! membership traffic that pays for it. This module adds that
//! dimension: every message, retry, timeout, repair entry, and
//! microsecond of virtual time is attributed to the [`Phase`] that
//! caused it.
//!
//! Costs are billed through [`crate::obs::Telemetry::bill`] into the
//! [`PhaseTable`] of the handle's record: a disabled handle constructs
//! no bill, and an enabled one changes no routing decision — the walk
//! engine reads state through the same paths either way (pinned by
//! `tests/phase_accounting.rs`).
//!
//! # Message-count conventions
//!
//! The simulator does not exchange wire messages, so message counts are
//! *derived* from the same quantities the traces record. The
//! conventions (documented here once, used everywhere):
//!
//! * **Lookup**: one message per hop taken, plus one per extra send
//!   attempt (retries), plus one per timed-out contact (stale entries
//!   and exhausted retries each burn at least one probe). Virtual time
//!   is the lookup's end-to-end simulated latency.
//! * **Stabilize / Repair (timer-driven)**: one message per routing
//!   entry examined — a maintenance pass probes each link once — as
//!   reported by [`crate::overlay::Protocol::maintenance_msgs`].
//! * **Repair (on use)**: one message per routing entry rewritten when
//!   a lookup stumbles on a stale entry (§4.3's repair-on-use); billed
//!   to `Repair`, not `Lookup`, so the two costs stay separable.
//! * **Join / Leave**: one message per routing link the affected node
//!   must (un)announce, again via `maintenance_msgs`; an ungraceful
//!   failure sends nothing.
//! * **Audit**: one message per invariant check (the auditor reads each
//!   node's state once per check), and no time — the audit is a
//!   measurement-side activity with no virtual cost.

use std::fmt;

/// The activity a cost is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Application lookups routed by the walk engine.
    Lookup,
    /// Timer-driven stabilization sweeps.
    Stabilize,
    /// Repair work: `repair_node` sweeps and repair-on-use entries.
    Repair,
    /// Node arrivals (link establishment).
    Join,
    /// Graceful departures (link teardown); crashes cost nothing.
    Leave,
    /// Protocol-invariant audits.
    Audit,
}

/// Every phase, in display order.
pub const ALL_PHASES: [Phase; 6] = [
    Phase::Lookup,
    Phase::Stabilize,
    Phase::Repair,
    Phase::Join,
    Phase::Leave,
    Phase::Audit,
];

impl Phase {
    /// Short lower-case label used in metric names and series keys.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Phase::Lookup => "lookup",
            Phase::Stabilize => "stabilize",
            Phase::Repair => "repair",
            Phase::Join => "join",
            Phase::Leave => "leave",
            Phase::Audit => "audit",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Lookup => 0,
            Phase::Stabilize => 1,
            Phase::Repair => 2,
            Phase::Join => 3,
            Phase::Leave => 4,
            Phase::Audit => 5,
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Costs attributed to one phase (see the module docs for the
/// message-count conventions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCosts {
    /// Operations billed (lookups, stabilize calls, repairs, …).
    pub calls: u64,
    /// Messages sent (derived; see module docs).
    pub msgs: u64,
    /// Extra send attempts beyond the first.
    pub retries: u64,
    /// Timed-out contacts (stale entries + exhausted retries).
    pub timeouts: u64,
    /// Routing entries rewritten.
    pub repair_entries: u64,
    /// Virtual time attributed to the phase, in microseconds (a
    /// lookup's simulated latency; zero for every other phase, whose
    /// events are instantaneous on the virtual clock).
    pub time_us: u64,
}

impl PhaseCosts {
    /// Adds `other` into `self` (saturating).
    pub fn absorb(&mut self, other: &PhaseCosts) {
        self.calls = self.calls.saturating_add(other.calls);
        self.msgs = self.msgs.saturating_add(other.msgs);
        self.retries = self.retries.saturating_add(other.retries);
        self.timeouts = self.timeouts.saturating_add(other.timeouts);
        self.repair_entries = self.repair_entries.saturating_add(other.repair_entries);
        self.time_us = self.time_us.saturating_add(other.time_us);
    }

    /// Whether every field is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        *self == PhaseCosts::default()
    }
}

/// Costs for all six phases of one run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PhaseTable {
    costs: [PhaseCosts; 6],
}

impl PhaseTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The costs billed to `phase`.
    #[must_use]
    pub fn get(&self, phase: Phase) -> &PhaseCosts {
        &self.costs[phase.index()]
    }

    /// Mutable access to the costs billed to `phase`.
    pub fn get_mut(&mut self, phase: Phase) -> &mut PhaseCosts {
        &mut self.costs[phase.index()]
    }

    /// Iterates phases in display order with their costs.
    pub fn iter(&self) -> impl Iterator<Item = (Phase, &PhaseCosts)> {
        ALL_PHASES.iter().map(move |&p| (p, self.get(p)))
    }

    /// The sum over all phases.
    #[must_use]
    pub fn total(&self) -> PhaseCosts {
        let mut sum = PhaseCosts::default();
        for c in &self.costs {
            sum.absorb(c);
        }
        sum
    }

    /// Adds every cell of `other` into `self`.
    pub fn merge(&mut self, other: &PhaseTable) {
        for (mine, theirs) in self.costs.iter_mut().zip(&other.costs) {
            mine.absorb(theirs);
        }
    }

    /// Whether nothing has been billed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.costs.iter().all(PhaseCosts::is_zero)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_adds_every_cell() {
        let mut table = PhaseTable::new();
        table.get_mut(Phase::Stabilize).absorb(&PhaseCosts {
            calls: 4,
            msgs: 40,
            ..PhaseCosts::default()
        });
        let mut merged = PhaseTable::new();
        merged.merge(&table);
        merged.merge(&table);
        assert_eq!(merged.get(Phase::Stabilize).msgs, 80);
        assert_eq!(merged.get(Phase::Stabilize).calls, 8);
        assert!(!merged.is_empty());
        assert!(PhaseTable::new().is_empty());
    }

    #[test]
    fn saturating_absorb() {
        let mut costs = PhaseCosts {
            msgs: u64::MAX - 1,
            ..PhaseCosts::default()
        };
        costs.absorb(&PhaseCosts {
            msgs: 5,
            ..PhaseCosts::default()
        });
        assert_eq!(costs.msgs, u64::MAX);
    }

    #[test]
    fn labels_unique_and_ordered() {
        use std::collections::HashSet;
        let labels: HashSet<_> = ALL_PHASES.iter().map(|p| p.label()).collect();
        assert_eq!(labels.len(), ALL_PHASES.len());
        for (i, p) in ALL_PHASES.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
    }
}
