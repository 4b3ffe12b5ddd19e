//! The traced run's span recorder and the arithmetic over its spans.
//!
//! Spans are recorded by the benchmark around its calls into each layer's
//! public functions; the program itself is not instrumented. Every span
//! names its parent explicitly (0 = none), so a span opened on another
//! thread — a fleet worker's handler, the query server's handler — still
//! hangs under the operation that caused it. Spans stay in memory until
//! the run ends.
//!
//! [`ProgramTrace`] arms the program's own stage tracer around an
//! operation, so the stages the program already emits (`archive_*`,
//! `sweep`, `reduce_*`, …) show how much of that operation they cover.

use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use txstat_telemetry::TraceEvent;

/// One finished span; times are milliseconds since the tracer's origin.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRec {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
}

impl SpanRec {
    pub fn dur(&self) -> f64 {
        self.end - self.start
    }
}

pub struct Tracer {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

/// An open span, recorded when dropped. An inert span (id 0) reads no
/// clock and records nothing, and so do all spans opened under it.
pub struct Span<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: u64,
    name: &'static str,
    start: Option<Instant>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn open(&self, name: &'static str, parent: u64, on: bool, start: Instant) -> Span<'_> {
        if !on {
            return Span {
                tracer: self,
                id: 0,
                parent,
                name,
                start: None,
            };
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        Span {
            tracer: self,
            id,
            parent,
            name,
            start: Some(start),
        }
    }

    /// A root span starting now, inert unless `on`.
    pub fn root(&self, name: &'static str, on: bool) -> Span<'_> {
        self.open(name, 0, on, Instant::now())
    }

    /// A root span that started at `start` (an open-loop operation starts
    /// when it was due, not when it was sent).
    pub fn root_at(&self, name: &'static str, on: bool, start: Instant) -> Span<'_> {
        self.open(name, 0, on, start)
    }

    /// A span under the span `parent` (possibly opened on another thread);
    /// inert when `parent` is 0.
    pub fn under(&self, parent: u64, name: &'static str) -> Span<'_> {
        self.open(name, parent, parent != 0, Instant::now())
    }

    /// Record an already finished interval under `parent` (nothing when
    /// `parent` is 0).
    pub fn record(&self, parent: u64, name: &'static str, start: Instant, end: Instant) {
        if parent == 0 {
            return;
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        self.push(SpanRec {
            id,
            parent,
            name,
            start: self.ms(start),
            end: self.ms(end),
        });
    }

    fn ms(&self, t: Instant) -> f64 {
        // `saturating_duration_since`: a due time may precede the origin.
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e3
    }

    fn push(&self, rec: SpanRec) {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking thread")
            .push(rec);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.spans
            .lock()
            .expect("span store poisoned by a panicking thread")
            .clone()
    }
}

impl Span<'_> {
    /// This span's id, for linking spans opened elsewhere; 0 when inert.
    pub fn id(&self) -> u64 {
        self.id
    }

    pub fn child(&self, name: &'static str) -> Span<'_> {
        self.tracer.under(self.id, name)
    }
}

impl Drop for Span<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            let end = Instant::now();
            let t = self.tracer;
            t.push(SpanRec {
                id: self.id,
                parent: self.parent,
                name: self.name,
                start: t.ms(start),
                end: t.ms(end),
            });
        }
    }
}

/// Length of `[lo, hi)` covered by the union of `parts`, each clipped to
/// `[lo, hi)`.
pub fn covered(lo: f64, hi: f64, parts: &[(f64, f64)]) -> f64 {
    let mut clipped: Vec<(f64, f64)> = parts
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut total = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (a, b) in clipped {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0.0, |(a, b)| b - a)
}

/// The program's process-global stage tracer with an in-memory NDJSON
/// sink. It stays disabled except inside [`ProgramTrace::around`].
pub struct ProgramTrace {
    sink: Arc<Mutex<Vec<u8>>>,
}

struct SharedSink(Arc<Mutex<Vec<u8>>>);

impl Write for SharedSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0
            .lock()
            .expect("trace sink poisoned by a panicking thread")
            .extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl ProgramTrace {
    pub fn arm() -> Self {
        let sink = Arc::new(Mutex::new(Vec::new()));
        let t = txstat_telemetry::tracer();
        t.set_sink(Box::new(SharedSink(Arc::clone(&sink))));
        t.disable();
        ProgramTrace { sink }
    }

    /// Run `op` with the program's tracer enabled, inside a stage `root`
    /// of its own that marks the operation's interval on the same clock.
    pub fn around<T>(&self, root: &'static str, op: impl FnOnce() -> T) -> T {
        let t = txstat_telemetry::tracer();
        t.enable();
        let out = {
            let _root = txstat_telemetry::Span::enter(root, "");
            op()
        };
        t.disable();
        out
    }

    /// Every stage recorded so far.
    pub fn events(&self) -> Result<Vec<TraceEvent>, String> {
        let bytes = self
            .sink
            .lock()
            .expect("trace sink poisoned by a panicking thread");
        String::from_utf8_lossy(&bytes)
            .lines()
            .map(|l| serde_json::from_str(l).map_err(|e| format!("trace event {l:?}: {e}")))
            .collect()
    }
}

/// Percentage of the summed duration of the `root` stages that no other
/// stage covers. Only one operation runs at a time, so every stage inside
/// a root's interval, on any thread, belongs to that operation.
pub fn uncovered_pct(events: &[TraceEvent], root: &str) -> f64 {
    let interval = |e: &TraceEvent| (e.start_us as f64, (e.start_us + e.dur_us) as f64);
    let parts: Vec<(f64, f64)> = events
        .iter()
        .filter(|e| e.stage != root)
        .map(interval)
        .collect();
    let (mut wall, mut gap) = (0.0, 0.0);
    for (lo, hi) in events.iter().filter(|e| e.stage == root).map(interval) {
        wall += hi - lo;
        gap += hi - lo - covered(lo, hi, &parts);
    }
    if wall > 0.0 {
        100.0 * gap / wall
    } else {
        0.0
    }
}

/// Span analysis: parent links resolved once.
pub struct Analysis<'a> {
    spans: &'a [SpanRec],
    by_id: HashMap<u64, usize>,
    children: HashMap<u64, Vec<usize>>,
}

impl<'a> Analysis<'a> {
    pub fn new(spans: &'a [SpanRec]) -> Self {
        let mut by_id = HashMap::new();
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        for (i, s) in spans.iter().enumerate() {
            by_id.insert(s.id, i);
            if s.parent != 0 {
                children.entry(s.parent).or_default().push(i);
            }
        }
        Analysis {
            spans,
            by_id,
            children,
        }
    }

    fn child_intervals(&self, id: u64) -> Vec<(f64, f64)> {
        self.children
            .get(&id)
            .map(|c| {
                c.iter()
                    .map(|&i| (self.spans[i].start, self.spans[i].end))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// A span's duration minus the part of it its children cover.
    pub fn self_time(&self, s: &SpanRec) -> f64 {
        s.dur() - covered(s.start, s.end, &self.child_intervals(s.id))
    }

    /// The root above a span (itself for a root). A span whose parent was
    /// never recorded counts as its own root.
    fn root_of(&self, s: &SpanRec) -> u64 {
        let mut cur = s;
        while let Some(&i) = self.by_id.get(&cur.parent) {
            cur = &self.spans[i];
        }
        cur.id
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::dur)
            .collect()
    }

    /// Self times of every span called `name`.
    pub fn self_times(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| self.self_time(s))
            .collect()
    }

    /// For each root operation whose tree holds spans called `name`, the
    /// summed duration of those spans, in root order.
    pub fn per_root(&self, name: &str) -> Vec<f64> {
        let mut totals: Vec<(u64, f64)> = Vec::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            let root = self.root_of(s);
            match totals.iter_mut().find(|(r, _)| *r == root) {
                Some((_, t)) => *t += s.dur(),
                None => totals.push((root, s.dur())),
            }
        }
        totals.sort_by_key(|(r, _)| *r);
        totals.into_iter().map(|(_, t)| t).collect()
    }

    /// Percentage of the summed duration of the root spans named in
    /// `roots` that none of their direct children covers.
    pub fn unaccounted_pct(&self, roots: &[&str]) -> f64 {
        let (mut wall, mut gap) = (0.0, 0.0);
        for s in self
            .spans
            .iter()
            .filter(|s| s.parent == 0 && roots.contains(&s.name))
        {
            wall += s.dur();
            gap += self.self_time(s);
        }
        if wall > 0.0 {
            100.0 * gap / wall
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, start: f64, end: f64) -> SpanRec {
        SpanRec {
            id,
            parent,
            name,
            start,
            end,
        }
    }

    #[test]
    fn union_of_overlapping_and_clipped_parts() {
        assert_eq!(covered(0.0, 10.0, &[]), 0.0);
        assert_eq!(
            covered(0.0, 10.0, &[(1.0, 4.0), (3.0, 6.0), (8.0, 9.0)]),
            6.0
        );
        // Parts reaching outside the interval count only inside it.
        assert_eq!(covered(2.0, 5.0, &[(0.0, 3.0), (4.0, 9.0)]), 2.0);
        assert_eq!(covered(0.0, 10.0, &[(11.0, 12.0)]), 0.0);
    }

    #[test]
    fn self_time_subtracts_children_over_nested_spans() {
        let spans = [
            rec(1, 0, "op", 0.0, 10.0),
            rec(2, 1, "a", 1.0, 4.0),
            rec(3, 1, "b", 3.0, 6.0), // overlaps a: another thread
            rec(4, 2, "a.inner", 2.0, 3.5),
            rec(5, 4, "a.inner.leaf", 2.0, 3.0),
            rec(6, 0, "op", 20.0, 24.0),
            rec(7, 6, "a", 20.0, 24.0),
        ];
        let an = Analysis::new(&spans);
        // The root loses the union [1, 6) of its children, not their sum.
        assert_eq!(an.self_time(&spans[0]), 5.0);
        // Grandchildren count against their own parent only.
        assert_eq!(an.self_time(&spans[1]), 1.5);
        assert_eq!(an.self_time(&spans[3]), 0.5);
        assert_eq!(an.self_time(&spans[4]), 1.0);
        assert_eq!(an.self_times("a"), vec![1.5, 4.0]);
        // Per root: op 1 spent 3 ms in `a`, op 6 spent 4 ms.
        assert_eq!(an.per_root("a"), vec![3.0, 4.0]);
        assert_eq!(an.per_root("a.inner.leaf"), vec![1.0]);
        // 5 of 14 root milliseconds lie outside every top-level child.
        assert!((an.unaccounted_pct(&["op"]) - 100.0 * 5.0 / 14.0).abs() < 1e-12);
        assert_eq!(an.unaccounted_pct(&["nothing"]), 0.0);
    }

    fn event(stage: &str, depth: u64, start_us: u64, dur_us: u64) -> TraceEvent {
        TraceEvent {
            stage: stage.to_owned(),
            label: String::new(),
            depth,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn program_stages_cover_their_operation() {
        let events = [
            event("op", 0, 0, 100),
            event("archive_open", 1, 0, 10),
            event("archive_verify", 2, 2, 5), // inside archive_open
            event("sweep", 0, 20, 30),        // another thread
            event("sweep", 0, 40, 20),        // overlaps the first sweep
            event("op", 0, 200, 50),
            event("sweep", 0, 240, 30), // reaches past the operation
            event("sweep", 0, 500, 10), // between operations
        ];
        // Op 1 is covered over [0, 10) and [20, 60): 50 of 100 us. Op 2
        // over [240, 250): 10 of 50 us.
        let pct = uncovered_pct(&events, "op");
        assert!((pct - 100.0 * 90.0 / 150.0).abs() < 1e-12, "{pct}");
        assert_eq!(uncovered_pct(&events, "nothing"), 0.0);
    }

    #[test]
    fn inert_spans_record_nothing_and_links_cross_threads() {
        let t = Tracer::new();
        {
            let off = t.root("op", false);
            assert_eq!(off.id(), 0);
            let _c = off.child("a");
        }
        assert!(t.spans().is_empty());
        let root = t.root("op", true);
        let parent = root.id();
        std::thread::scope(|s| {
            s.spawn(|| drop(t.under(parent, "remote")));
        });
        drop(root);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let remote = spans.iter().find(|s| s.name == "remote").unwrap();
        assert_eq!(remote.parent, parent);
        assert_eq!(Analysis::new(&spans).per_root("remote").len(), 1);
    }
}
