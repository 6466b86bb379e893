//! Observability: structured event tracing, a metrics registry, and a
//! leveled progress logger.
//!
//! # Tracing
//!
//! The simulation substrate ([`crate::sim`]), the retry loop
//! ([`crate::net`]), and the churn engine emit typed [`Event`]s through a
//! [`SinkHandle`] installed on the [`crate::sim::Membership`]. Because
//! emission happens in the shared walk engine, every overlay inherits
//! instrumentation without overlay-local changes.
//!
//! The handle is **zero-cost when disabled**: the default
//! [`SinkHandle::disabled`] holds no sink, [`SinkHandle::emit`] takes the
//! event as a closure that is never called, and cloning the handle copies
//! an `Option<Arc<_>>` that is `None`. Disabled-handle runs are therefore
//! byte-identical to pre-observability runs — the golden-trace suite pins
//! this (`tests/obs_traces.rs` additionally pins that an *enabled*
//! [`NullSink`] changes nothing either).
//!
//! Three sinks ship with the crate:
//!
//! * [`NullSink`] — receives and discards; for measuring emission
//!   overhead and for tests that only need "enabled" semantics,
//! * [`RingBufferSink`] — keeps the last `capacity` events in memory and
//!   counts what it dropped; for tests and interactive debugging,
//! * [`JsonlSink`] — writes one JSON object per event to any
//!   [`std::io::Write`]; for offline analysis
//!   (see `examples/tracing_lookup.rs`).
//!
//! # Metrics
//!
//! [`metrics`] provides [`Counter`], [`Gauge`] and log₂-bucket
//! [`Histogram`] primitives under a name-keyed [`MetricsRegistry`],
//! serialisable to the versioned `BENCH_*.json` export via
//! [`metrics::to_bench_json`].

pub mod json;
pub mod metrics;
pub mod phase;

pub use metrics::{
    to_bench_json, BenchMeta, Counter, Gauge, Histogram, Metric, MetricsRegistry, SCHEMA_VERSION,
};
pub use phase::{Phase, PhaseAccountant, PhaseCosts, PhaseTable, ALL_PHASES};

use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
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
/// Lookup-scoped events carry the `lookup` id handed out by
/// [`SinkHandle::next_lookup_id`], so interleaved lookups (e.g. under
/// churn) can be demultiplexed from one stream. Node identifiers are the
/// same opaque tokens the [`crate::overlay::Overlay`] API uses.
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
    /// The lookup id, for lookup-scoped events.
    #[must_use]
    pub fn lookup_id(&self) -> Option<u64> {
        match self {
            Event::LookupStart { lookup, .. }
            | Event::Hop { lookup, .. }
            | Event::Retry { lookup, .. }
            | Event::Timeout { lookup, .. }
            | Event::LookupEnd { lookup, .. } => Some(*lookup),
            _ => None,
        }
    }

    /// Sets the lookup id on lookup-scoped events (no-op otherwise).
    /// Deferred walks record events with a placeholder id of 0 and
    /// stamp the stream-unique id at effect-apply time.
    pub fn set_lookup_id(&mut self, id: u64) {
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
    /// newline), the format [`JsonlSink`] writes.
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

/// Receives structured trace events.
///
/// Implementations must be cheap: the walk engine calls
/// [`TraceSink::record`] inline on the lookup hot path whenever a sink is
/// installed.
pub trait TraceSink {
    /// Receives one event.
    fn record(&mut self, event: &Event);
}

/// A sink that discards every event.
///
/// Useful for measuring the cost of event *construction* in isolation and
/// for tests that need "a sink is installed" semantics without storage.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn record(&mut self, _event: &Event) {}
}

/// A bounded in-memory sink keeping the most recent events.
///
/// When full, the oldest event is evicted and counted in
/// [`RingBufferSink::dropped`].
#[derive(Debug, Clone)]
pub struct RingBufferSink {
    capacity: usize,
    events: std::collections::VecDeque<Event>,
    dropped: u64,
}

impl RingBufferSink {
    /// A ring buffer holding at most `capacity` events (at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            events: std::collections::VecDeque::new(),
            dropped: 0,
        }
    }

    /// The retained events, oldest first.
    #[must_use]
    pub fn snapshot(&self) -> Vec<Event> {
        self.events.iter().cloned().collect()
    }

    /// Events evicted because the buffer was full.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are retained.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Takes the retained events *together with* the number evicted
    /// before them, leaving the sink empty.
    ///
    /// This is the read path consumers should prefer over
    /// [`RingBufferSink::snapshot`]: a full buffer silently sheds its
    /// oldest events, so any reader that only sees the retained suffix
    /// can mistake a truncated trace for a complete one. The drain
    /// couples the events with the drop count so truncation is always
    /// visible ([`DrainedTrace::is_complete`]).
    pub fn drain(&mut self) -> DrainedTrace {
        let drained = DrainedTrace {
            events: self.events.drain(..).collect(),
            dropped: self.dropped,
        };
        self.dropped = 0;
        drained
    }
}

/// The output of [`RingBufferSink::drain`]: the retained events plus
/// how many older events were evicted before them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainedTrace {
    /// The retained events, oldest first.
    pub events: Vec<Event>,
    /// Events evicted because the buffer was full; `0` means `events`
    /// is the complete stream.
    pub dropped: u64,
}

impl DrainedTrace {
    /// Whether the trace is the complete stream (nothing was evicted).
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.dropped == 0
    }
}

impl TraceSink for RingBufferSink {
    fn record(&mut self, event: &Event) {
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back(event.clone());
    }
}

/// A sink writing one JSON object per line to a [`Write`] target.
///
/// I/O errors are counted, not propagated — the walk engine cannot
/// surface them mid-lookup.
#[derive(Debug)]
pub struct JsonlSink<W: Write> {
    writer: W,
    errors: u64,
}

impl<W: Write> JsonlSink<W> {
    /// Wraps `writer`.
    pub fn new(writer: W) -> Self {
        Self { writer, errors: 0 }
    }

    /// Write errors swallowed so far.
    #[must_use]
    pub fn errors(&self) -> u64 {
        self.errors
    }

    /// Flushes and returns the underlying writer.
    pub fn into_inner(mut self) -> W {
        let _ = self.writer.flush();
        self.writer
    }
}

impl<W: Write> TraceSink for JsonlSink<W> {
    fn record(&mut self, event: &Event) {
        if writeln!(self.writer, "{}", event.to_json_line()).is_err() {
            self.errors += 1;
        }
    }
}

/// Lets a caller install a sink it keeps shared access to:
/// `SinkHandle::new` takes the sink by value, so shared inspection goes
/// through an `Arc<Mutex<_>>` the caller clones first.
impl<S: TraceSink> TraceSink for Arc<Mutex<S>> {
    fn record(&mut self, event: &Event) {
        self.lock().expect("sink poisoned").record(event);
    }
}

struct SinkShared {
    sink: Mutex<Box<dyn TraceSink + Send>>,
    next_lookup: AtomicU64,
}

/// A cheaply clonable, possibly-disabled handle to a [`TraceSink`].
///
/// This is what instrumented code holds. The default (disabled) handle
/// is an `Option::None` — cloning it, checking it, and "emitting" through
/// it are all no-ops, which is the zero-cost-when-disabled guarantee.
/// All clones of an enabled handle share one sink and one lookup-id
/// sequence.
#[derive(Clone, Default)]
pub struct SinkHandle {
    inner: Option<Arc<SinkShared>>,
}

impl fmt::Debug for SinkHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SinkHandle")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl SinkHandle {
    /// The disabled handle: every operation is a no-op.
    #[must_use]
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A handle delivering events to `sink`.
    ///
    /// To keep inspecting the sink after installing it, wrap it in
    /// `Arc<Mutex<_>>` first and hand the handle a clone:
    ///
    /// ```
    /// use std::sync::{Arc, Mutex};
    /// use dht_core::obs::{Event, RingBufferSink, SinkHandle};
    ///
    /// let ring = Arc::new(Mutex::new(RingBufferSink::new(16)));
    /// let handle = SinkHandle::new(Arc::clone(&ring));
    /// handle.emit(|| Event::Join { node: 7 });
    /// assert_eq!(ring.lock().unwrap().len(), 1);
    /// ```
    #[must_use]
    pub fn new<S: TraceSink + Send + 'static>(sink: S) -> Self {
        Self {
            inner: Some(Arc::new(SinkShared {
                sink: Mutex::new(Box::new(sink)),
                next_lookup: AtomicU64::new(1),
            })),
        }
    }

    /// Whether a sink is installed.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Delivers `make()` to the sink, constructing the event only when a
    /// sink is installed.
    pub fn emit(&self, make: impl FnOnce() -> Event) {
        if let Some(shared) = &self.inner {
            let event = make();
            shared.sink.lock().expect("sink poisoned").record(&event);
        }
    }

    /// Hands out the next stream-unique lookup id, or `0` when disabled
    /// (disabled runs never emit, so the id is never observed).
    #[must_use]
    pub fn next_lookup_id(&self) -> u64 {
        match &self.inner {
            Some(shared) => shared.next_lookup.fetch_add(1, Ordering::Relaxed),
            None => 0,
        }
    }
}

/// Verbosity of the [`Progress`] logger.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Print nothing.
    Quiet,
    /// Print per-experiment progress (the default).
    Info,
    /// Print additional detail.
    Debug,
}

impl LogLevel {
    /// Parses `"quiet"` / `"info"` / `"debug"` (case-insensitive).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.to_ascii_lowercase().as_str() {
            "quiet" | "off" => Some(LogLevel::Quiet),
            "info" => Some(LogLevel::Info),
            "debug" => Some(LogLevel::Debug),
            _ => None,
        }
    }
}

/// A leveled stderr progress logger with a fixed line prefix.
///
/// Replaces ad-hoc `eprintln!("[repro] ...")` lines: messages below the
/// configured level are skipped, and the level can come from a CLI flag
/// or an environment variable (see [`Progress::from_env`]).
#[derive(Debug, Clone)]
pub struct Progress {
    prefix: &'static str,
    level: LogLevel,
}

impl Progress {
    /// A logger printing `[prefix] message` for messages at or below
    /// `level`.
    #[must_use]
    pub fn new(prefix: &'static str, level: LogLevel) -> Self {
        Self { prefix, level }
    }

    /// Like [`Progress::new`], but `env_var` (e.g. `REPRO_LOG`) overrides
    /// `default` when set to a recognised level name. Unrecognised values
    /// are ignored.
    #[must_use]
    pub fn from_env(prefix: &'static str, env_var: &str, default: LogLevel) -> Self {
        let level = std::env::var(env_var)
            .ok()
            .and_then(|v| LogLevel::parse(&v))
            .unwrap_or(default);
        Self::new(prefix, level)
    }

    /// The active level.
    #[must_use]
    pub fn level(&self) -> LogLevel {
        self.level
    }

    /// Whether `level` messages would print.
    #[must_use]
    pub fn enabled(&self, level: LogLevel) -> bool {
        level != LogLevel::Quiet && level <= self.level
    }

    /// Prints an info-level progress line to stderr.
    pub fn info(&self, msg: impl fmt::Display) {
        if self.enabled(LogLevel::Info) {
            eprintln!("[{}] {msg}", self.prefix);
        }
    }

    /// Prints a debug-level progress line to stderr.
    pub fn debug(&self, msg: impl fmt::Display) {
        if self.enabled(LogLevel::Debug) {
            eprintln!("[{}] {msg}", self.prefix);
        }
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
        let h = SinkHandle::disabled();
        assert!(!h.is_enabled());
        assert_eq!(h.next_lookup_id(), 0);
        assert_eq!(h.next_lookup_id(), 0);
        let mut constructed = false;
        h.emit(|| {
            constructed = true;
            Event::Join { node: 1 }
        });
        assert!(!constructed, "disabled handle must not build events");
        // Clones of a disabled handle are independent no-ops too.
        let h2 = h.clone();
        assert!(!h2.is_enabled());
    }

    #[test]
    fn default_handle_is_disabled() {
        assert!(!SinkHandle::default().is_enabled());
    }

    #[test]
    fn clones_share_sink_and_id_sequence() {
        let ring = Arc::new(Mutex::new(RingBufferSink::new(8)));
        let h = SinkHandle::new(Arc::clone(&ring));
        let h2 = h.clone();
        assert_eq!(h.next_lookup_id(), 1);
        assert_eq!(h2.next_lookup_id(), 2, "clones share one sequence");
        h.emit(|| Event::Join { node: 1 });
        h2.emit(|| Event::Join { node: 2 });
        let events = ring.lock().unwrap().snapshot();
        assert_eq!(
            events,
            vec![Event::Join { node: 1 }, Event::Join { node: 2 }]
        );
    }

    #[test]
    fn ring_buffer_evicts_oldest_and_counts_drops() {
        let mut ring = RingBufferSink::new(2);
        for node in 0..5u64 {
            ring.record(&Event::Join { node });
        }
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.dropped(), 3);
        assert_eq!(
            ring.snapshot(),
            vec![Event::Join { node: 3 }, Event::Join { node: 4 }]
        );
    }

    #[test]
    fn ring_buffer_drain_surfaces_drops_at_capacity_boundary() {
        // Exactly at capacity: nothing dropped, trace complete.
        let mut ring = RingBufferSink::new(3);
        for node in 0..3u64 {
            ring.record(&Event::Join { node });
        }
        let full = ring.drain();
        assert!(full.is_complete());
        assert_eq!(full.dropped, 0);
        assert_eq!(full.events.len(), 3);
        assert!(ring.is_empty(), "drain empties the sink");

        // One past capacity: the eviction must be visible in the drain.
        for node in 0..4u64 {
            ring.record(&Event::Join { node });
        }
        let truncated = ring.drain();
        assert!(!truncated.is_complete());
        assert_eq!(truncated.dropped, 1);
        assert_eq!(
            truncated.events,
            vec![
                Event::Join { node: 1 },
                Event::Join { node: 2 },
                Event::Join { node: 3 }
            ]
        );
        // The drain resets the drop counter for the next window.
        ring.record(&Event::Join { node: 9 });
        assert!(ring.drain().is_complete());
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        for e in sample_events() {
            sink.record(&e);
        }
        assert_eq!(sink.errors(), 0);
        let bytes = sink.into_inner();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), sample_events().len());
        for line in &lines {
            let doc = json::parse(line).expect("every event line is valid JSON");
            assert!(
                doc.get("ev").and_then(json::Json::as_str).is_some(),
                "every line carries an 'ev' tag: {line}"
            );
        }
        assert!(lines[0].contains("\"ev\":\"lookup_start\""));
        assert!(lines[1].contains("\"phase\":\"ascending\""));
        assert!(lines[3].contains("\"kind\":\"stale\""));
        assert!(lines[4].contains("\"outcome\":\"found\""));
    }

    #[test]
    fn lookup_id_scoping() {
        for e in sample_events() {
            match e {
                Event::Join { .. }
                | Event::Leave { .. }
                | Event::StabilizeRound { .. }
                | Event::AuditRun { .. } => assert_eq!(e.lookup_id(), None),
                _ => assert_eq!(e.lookup_id(), Some(1)),
            }
        }
    }

    #[test]
    fn log_level_parse_and_order() {
        assert_eq!(LogLevel::parse("quiet"), Some(LogLevel::Quiet));
        assert_eq!(LogLevel::parse("INFO"), Some(LogLevel::Info));
        assert_eq!(LogLevel::parse("Debug"), Some(LogLevel::Debug));
        assert_eq!(LogLevel::parse("nope"), None);
        assert!(LogLevel::Quiet < LogLevel::Info);
        assert!(LogLevel::Info < LogLevel::Debug);
    }

    #[test]
    fn progress_levels_gate_output() {
        let quiet = Progress::new("t", LogLevel::Quiet);
        assert!(!quiet.enabled(LogLevel::Info));
        assert!(!quiet.enabled(LogLevel::Quiet), "quiet never prints");
        let info = Progress::new("t", LogLevel::Info);
        assert!(info.enabled(LogLevel::Info));
        assert!(!info.enabled(LogLevel::Debug));
        let debug = Progress::new("t", LogLevel::Debug);
        assert!(debug.enabled(LogLevel::Info));
        assert!(debug.enabled(LogLevel::Debug));
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
