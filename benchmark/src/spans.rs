//! Spans recorded by the harness around each call into a layer.
//!
//! The program under test is not instrumented: a span here is the wall
//! time between the harness calling a public function of a layer and that
//! function returning. Spans nest (the harness is single-threaded), are
//! kept in memory, and are written out once at exit.

use std::fmt::Write as _;
use std::time::Instant;

/// Index of an interned span name (`layer.operation`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NameId(u32);

/// Parent id of a root span.
const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: NameId,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    /// Identifier shared by the spans of one request (a lookup's index in
    /// its request list, a membership cycle's ordinal); 0 for spans that
    /// serve a whole batch.
    request: u64,
}

/// One row of the per-layer table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerRow {
    pub name: String,
    pub count: u64,
    pub busy_ns: u64,
    pub self_ns: u64,
}

/// In-memory span store. When off, `span` only runs its closure.
pub struct Recorder {
    on: bool,
    origin: Instant,
    names: Vec<String>,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Recorder {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            origin: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Interns `name`; the first dot separates layer from operation.
    pub fn name(&mut self, name: &str) -> NameId {
        let idx = match self.names.iter().position(|n| n == name) {
            Some(idx) => idx,
            None => {
                self.names.push(name.to_owned());
                self.names.len() - 1
            }
        };
        NameId(u32::try_from(idx).expect("fewer than 2^32 span names"))
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` through
    /// the recorder it is handed become children.
    pub fn span<T>(&mut self, name: NameId, request: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    /// Runs `f` inside a span and always returns its wall time in ns,
    /// recorded or not: the one timer both the traced and the untraced
    /// run read their batch times from.
    pub fn timed<T>(
        &mut self,
        name: NameId,
        request: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> (T, u64) {
        let started = Instant::now();
        let out = self.span(name, request, f);
        (out, started.elapsed().as_nanos() as u64)
    }

    /// Durations in ns of every finished span named `name`.
    pub fn durations_ns(&self, name: NameId) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Per-name count, busy time (sum of durations) and self time (busy
    /// minus the part covered by direct children), largest self time
    /// first.
    pub fn table(&self) -> Vec<LayerRow> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut rows: Vec<LayerRow> = self
            .names
            .iter()
            .map(|n| LayerRow {
                name: n.clone(),
                count: 0,
                busy_ns: 0,
                self_ns: 0,
            })
            .collect();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            let row = &mut rows[s.name.0 as usize];
            let busy = s.end_ns - s.start_ns;
            row.count += 1;
            row.busy_ns += busy;
            row.self_ns += busy.saturating_sub(covered);
        }
        rows.retain(|r| r.count > 0);
        rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));
        rows
    }

    /// Total wall covered by root spans.
    pub fn root_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(|s| s.end_ns - s.start_ns)
            .sum()
    }

    /// The whole trace as JSON: a name table and one
    /// `[name, start_ns, end_ns, parent, request]` row per span
    /// (`parent` is a row index, -1 for a root).
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 40);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"request\"],\"names\":["
        );
        for (i, n) in self.names.iter().enumerate() {
            let _ = write!(out, "{}\"{n}\"", if i == 0 { "" } else { "," });
        }
        out.push_str("],\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = writeln!(
                out,
                "[{},{},{},{},{}]{}",
                s.name.0,
                s.start_ns,
                s.end_ns,
                parent,
                s.request,
                if i + 1 == self.spans.len() { "" } else { "," }
            );
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_recorder_runs_closures_and_keeps_nothing() {
        let mut rec = Recorder::new(false);
        let a = rec.name("a.x");
        let (v, ns) = rec.timed(a, 0, |r| r.span(a, 1, |_| 7));
        assert_eq!(v, 7);
        assert!(ns < 1_000_000_000);
        assert!(rec.table().is_empty());
        assert_eq!(rec.root_ns(), 0);
    }

    #[test]
    fn self_time_is_busy_minus_direct_children() {
        let mut rec = Recorder::new(true);
        let (root, mid, leaf) = (rec.name("h.root"), rec.name("m.mid"), rec.name("l.leaf"));
        rec.span(root, 0, |r| {
            for i in 0..3 {
                r.span(mid, i, |r| {
                    r.span(leaf, i, |_| std::hint::black_box((0..1000).sum::<u64>()));
                });
            }
        });
        let rows = rec.table();
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        assert_eq!(get("h.root").count, 1);
        assert_eq!(get("m.mid").count, 3);
        assert_eq!(get("l.leaf").self_ns, get("l.leaf").busy_ns);
        assert_eq!(
            get("m.mid").self_ns,
            get("m.mid").busy_ns - get("l.leaf").busy_ns
        );
        // Self times partition the root's wall exactly.
        let total: u64 = rows.iter().map(|r| r.self_ns).sum();
        assert_eq!(total, rec.root_ns());
        assert_eq!(rec.durations_ns(leaf).len(), 3);
    }

    #[test]
    fn json_lists_every_span_with_its_parent() {
        let mut rec = Recorder::new(true);
        let (a, b) = (rec.name("a.x"), rec.name("b.y"));
        rec.span(a, 0, |r| r.span(b, 9, |_| ()));
        let json = rec.to_json("w", 5);
        assert!(json.starts_with("{\"workload\":\"w\",\"seed\":5,"));
        assert!(json.contains("\"names\":[\"a.x\",\"b.y\"]"));
        let rows: Vec<&str> = json.lines().filter(|l| l.starts_with('[')).collect();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].ends_with(",-1,0],"));
        assert!(rows[1].ends_with(",0,9]"));
    }
}
