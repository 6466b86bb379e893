//! Observability: one telemetry recorder.
//!
//! A [`Telemetry`] handle is installed on an overlay
//! ([`crate::overlay::Overlay::set_telemetry`], kept in
//! [`crate::sim::Membership`]) or on a churn run. An enabled handle
//! keeps one [`Record`]: the typed [`Event`]s the walk engine
//! ([`crate::sim`]) and the churn engine emit, in apply order, and the
//! [`PhaseTable`] every lookup, stabilization pass, repair, membership
//! change and audit bills its costs into ([`phase`]). Because emission
//! and billing happen in the shared engines, every overlay inherits
//! them without overlay-local changes.
//!
//! The handle is **zero-cost when disabled**: the default
//! [`Telemetry::disabled`] is an `Option::None`, [`Telemetry::emit`] and
//! [`Telemetry::bill`] take closures that are never called, and cloning
//! copies the `None`. Enabled or not, the handle never feeds back into
//! routing: `tests/obs_traces.rs` pins every golden byte-identical with
//! it enabled. [`Event::to_json_line`] renders a recorded event as one
//! JSON line (see `examples/tracing_lookup.rs`).

pub mod phase;

pub use phase::{Phase, PhaseCosts, PhaseTable, ALL_PHASES};

use std::fmt;
use std::sync::{Arc, Mutex};

use crate::lookup::{HopPhase, LookupOutcome};

impl LookupOutcome {
    /// Short label used in event streams and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            LookupOutcome::Found => "found",
            LookupOutcome::WrongOwner => "wrong_owner",
            LookupOutcome::Stuck => "stuck",
            LookupOutcome::HopBudgetExhausted => "budget_exhausted",
        }
    }
}

/// Which kind of timeout a [`Event::Timeout`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutKind {
    /// A stale routing entry: the contacted node had departed (§4.3's
    /// per-lookup timeout count).
    Stale,
    /// A live node whose message was lost on every attempt the
    /// [`crate::net::RetryPolicy`] allowed.
    Message,
}

impl TimeoutKind {
    /// Short label used in event streams.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            TimeoutKind::Stale => "stale",
            TimeoutKind::Message => "message",
        }
    }
}

/// A structured trace event.
///
/// Lookup-scoped events carry the `lookup` id [`Telemetry`] stamps as
/// it records them (1, 2, … in apply order), so interleaved lookups
/// (e.g. under churn) can be demultiplexed from one stream. Node
/// identifiers are the same opaque tokens the
/// [`crate::overlay::Overlay`] API uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A lookup entered the walk engine.
    LookupStart {
        /// Stream-unique lookup id.
        lookup: u64,
        /// Source node token.
        src: u64,
        /// Raw (pre-hash) key, when the caller supplied one.
        key: Option<u64>,
    },
    /// The walk forwarded to the next node.
    Hop {
        /// Stream-unique lookup id.
        lookup: u64,
        /// Zero-based hop index within the lookup.
        index: u32,
        /// Node the hop left from.
        from: u64,
        /// Node the hop arrived at.
        to: u64,
        /// Routing phase of this hop.
        phase: HopPhase,
    },
    /// A message to `target` needed more than one send attempt.
    Retry {
        /// Stream-unique lookup id.
        lookup: u64,
        /// Node being contacted.
        target: u64,
        /// Total attempts used (>= 2).
        attempts: u32,
    },
    /// A contact timed out (stale entry or exhausted retries).
    Timeout {
        /// Stream-unique lookup id.
        lookup: u64,
        /// Node whose contact timed out.
        target: u64,
        /// Stale-entry vs message-loss timeout.
        kind: TimeoutKind,
    },
    /// The walk terminated.
    LookupEnd {
        /// Stream-unique lookup id.
        lookup: u64,
        /// How the lookup ended.
        outcome: LookupOutcome,
        /// Node the lookup terminated at.
        terminal: u64,
        /// Path length in hops.
        hops: u32,
        /// Stale-entry timeouts encountered (§4.3).
        timeouts: u32,
        /// Simulated end-to-end latency in microseconds.
        latency_us: u64,
    },
    /// A node joined the overlay (churn engine).
    Join {
        /// Token of the new node.
        node: u64,
    },
    /// A node left the overlay (churn engine).
    Leave {
        /// Token of the departed node.
        node: u64,
        /// `true` for a graceful leave, `false` for a crash.
        graceful: bool,
    },
    /// One full stabilization round completed (churn engine).
    StabilizeRound {
        /// Zero-based round index.
        round: u64,
        /// Node count after the round.
        nodes: u64,
    },
    /// A protocol audit ran (churn engine / experiments).
    AuditRun {
        /// `true` iff no violations were found.
        clean: bool,
        /// Invariant checks performed.
        checked: u64,
        /// Violations found.
        violations: u64,
    },
}

impl Event {
    /// Sets the lookup id on lookup-scoped events (no-op otherwise).
    /// Deferred walks record events with a placeholder id of 0, which
    /// [`Telemetry::record_lookup`] replaces.
    fn set_lookup_id(&mut self, id: u64) {
        match self {
            Event::LookupStart { lookup, .. }
            | Event::Hop { lookup, .. }
            | Event::Retry { lookup, .. }
            | Event::Timeout { lookup, .. }
            | Event::LookupEnd { lookup, .. } => *lookup = id,
            _ => {}
        }
    }

    /// Renders the event as a single-line JSON object (no trailing
    /// newline).
    #[must_use]
    pub fn to_json_line(&self) -> String {
        match self {
            Event::LookupStart { lookup, src, key } => {
                let key = match key {
                    Some(k) => k.to_string(),
                    None => "null".to_string(),
                };
                format!("{{\"ev\":\"lookup_start\",\"lookup\":{lookup},\"src\":{src},\"key\":{key}}}")
            }
            Event::Hop {
                lookup,
                index,
                from,
                to,
                phase,
            } => format!(
                "{{\"ev\":\"hop\",\"lookup\":{lookup},\"index\":{index},\"from\":{from},\"to\":{to},\"phase\":\"{}\"}}",
                phase.label()
            ),
            Event::Retry {
                lookup,
                target,
                attempts,
            } => format!(
                "{{\"ev\":\"retry\",\"lookup\":{lookup},\"target\":{target},\"attempts\":{attempts}}}"
            ),
            Event::Timeout {
                lookup,
                target,
                kind,
            } => format!(
                "{{\"ev\":\"timeout\",\"lookup\":{lookup},\"target\":{target},\"kind\":\"{}\"}}",
                kind.label()
            ),
            Event::LookupEnd {
                lookup,
                outcome,
                terminal,
                hops,
                timeouts,
                latency_us,
            } => format!(
                "{{\"ev\":\"lookup_end\",\"lookup\":{lookup},\"outcome\":\"{}\",\"terminal\":{terminal},\"hops\":{hops},\"timeouts\":{timeouts},\"latency_us\":{latency_us}}}",
                outcome.label()
            ),
            Event::Join { node } => format!("{{\"ev\":\"join\",\"node\":{node}}}"),
            Event::Leave { node, graceful } => {
                format!("{{\"ev\":\"leave\",\"node\":{node},\"graceful\":{graceful}}}")
            }
            Event::StabilizeRound { round, nodes } => {
                format!("{{\"ev\":\"stabilize_round\",\"round\":{round},\"nodes\":{nodes}}}")
            }
            Event::AuditRun {
                clean,
                checked,
                violations,
            } => format!(
                "{{\"ev\":\"audit_run\",\"clean\":{clean},\"checked\":{checked},\"violations\":{violations}}}"
            ),
        }
    }
}

const POISONED: &str = "telemetry poisoned";

/// What an enabled [`Telemetry`] handle has recorded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Record {
    /// Trace events in apply order.
    pub events: Vec<Event>,
    /// Costs billed per phase.
    pub phases: PhaseTable,
    /// Lookups recorded, which is also the last lookup id handed out.
    pub lookups: u64,
}

/// A cheaply clonable, possibly-disabled handle to one shared
/// [`Record`].
///
/// This is what instrumented code holds. The default (disabled) handle
/// is an `Option::None`: cloning it, checking it, emitting and billing
/// through it are all no-ops, which is the zero-cost-when-disabled
/// guarantee. All clones of an enabled handle share one record.
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Mutex<Record>>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// The disabled handle: every operation is a no-op.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A handle recording into a fresh shared [`Record`].
    ///
    /// ```
    /// use dht_core::obs::{Event, Telemetry};
    ///
    /// let telemetry = Telemetry::enabled();
    /// telemetry.clone().emit(|| Event::Join { node: 7 });
    /// assert_eq!(telemetry.read(|r| r.events.len()), Some(1));
    /// ```
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::default()),
        }
    }

    /// Whether anything is being recorded.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records `make()`, constructing the event only when enabled.
    pub fn emit(&self, make: impl FnOnce() -> Event) {
        if let Some(record) = &self.inner {
            let event = make();
            record.lock().expect(POISONED).events.push(event);
        }
    }

    /// Bills `make()` to `phase`, constructing the costs only when
    /// enabled.
    pub fn bill(&self, phase: Phase, make: impl FnOnce() -> PhaseCosts) {
        if let Some(record) = &self.inner {
            let costs = make();
            let mut record = record.lock().expect(POISONED);
            record.phases.get_mut(phase).absorb(&costs);
        }
    }

    /// Records one lookup's events under the next lookup id.
    pub(crate) fn record_lookup(&self, events: Vec<Event>) {
        if let Some(record) = &self.inner {
            let mut record = record.lock().expect(POISONED);
            record.lookups += 1;
            let id = record.lookups;
            record.events.extend(events.into_iter().map(|mut event| {
                event.set_lookup_id(id);
                event
            }));
        }
    }

    /// Reads the record, or `None` when disabled.
    pub fn read<R>(&self, f: impl FnOnce(&Record) -> R) -> Option<R> {
        self.inner
            .as_ref()
            .map(|record| f(&record.lock().expect(POISONED)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<Event> {
        vec![
            Event::LookupStart {
                lookup: 1,
                src: 10,
                key: Some(99),
            },
            Event::Hop {
                lookup: 1,
                index: 0,
                from: 10,
                to: 11,
                phase: HopPhase::Ascending,
            },
            Event::Retry {
                lookup: 1,
                target: 11,
                attempts: 2,
            },
            Event::Timeout {
                lookup: 1,
                target: 12,
                kind: TimeoutKind::Stale,
            },
            Event::LookupEnd {
                lookup: 1,
                outcome: LookupOutcome::Found,
                terminal: 11,
                hops: 1,
                timeouts: 1,
                latency_us: 42,
            },
            Event::Join { node: 20 },
            Event::Leave {
                node: 20,
                graceful: false,
            },
            Event::StabilizeRound {
                round: 3,
                nodes: 64,
            },
            Event::AuditRun {
                clean: true,
                checked: 100,
                violations: 0,
            },
        ]
    }

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        assert!(!Telemetry::default().is_enabled());
        let mut constructed = false;
        t.emit(|| {
            constructed = true;
            Event::Join { node: 1 }
        });
        t.bill(Phase::Lookup, || {
            constructed = true;
            PhaseCosts::default()
        });
        t.record_lookup(sample_events());
        assert!(
            !constructed,
            "disabled handle must not build events or bills"
        );
        assert_eq!(t.read(|r| r.lookups), None);
        // Clones of a disabled handle are independent no-ops too.
        assert!(!t.clone().is_enabled());
    }

    #[test]
    fn clones_share_one_record() {
        let t = Telemetry::enabled();
        let t2 = t.clone();
        t.emit(|| Event::Join { node: 1 });
        t2.emit(|| Event::Join { node: 2 });
        t.bill(Phase::Lookup, || PhaseCosts {
            calls: 1,
            msgs: 3,
            ..PhaseCosts::default()
        });
        t2.bill(Phase::Repair, || PhaseCosts {
            repair_entries: 2,
            msgs: 2,
            ..PhaseCosts::default()
        });
        let record = t.read(Record::clone).expect("enabled");
        assert_eq!(
            record.events,
            vec![Event::Join { node: 1 }, Event::Join { node: 2 }]
        );
        assert_eq!(record.phases.get(Phase::Lookup).msgs, 3);
        assert_eq!(record.phases.get(Phase::Repair).repair_entries, 2);
        assert_eq!(record.phases.total().msgs, 5);
    }

    #[test]
    fn record_lookup_stamps_one_id_per_lookup_on_lookup_events_only() {
        let t = Telemetry::enabled();
        let zeroed: Vec<Event> = sample_events()
            .into_iter()
            .map(|mut e| {
                e.set_lookup_id(0);
                e
            })
            .collect();
        t.record_lookup(zeroed.clone());
        t.clone().record_lookup(zeroed);
        let record = t.read(Record::clone).expect("enabled");
        assert_eq!(record.lookups, 2, "clones share one id sequence");
        let (first, second) = record.events.split_at(sample_events().len());
        assert_eq!(first, sample_events(), "lookup events carry id 1");
        for (got, want) in second.iter().zip(sample_events()) {
            let mut want = want;
            want.set_lookup_id(2);
            assert_eq!(*got, want);
        }
    }

    #[test]
    fn outcome_labels_distinct() {
        use std::collections::HashSet;
        let labels: HashSet<_> = [
            LookupOutcome::Found,
            LookupOutcome::WrongOwner,
            LookupOutcome::Stuck,
            LookupOutcome::HopBudgetExhausted,
        ]
        .iter()
        .map(|o| o.label())
        .collect();
        assert_eq!(labels.len(), 4);
    }
}
