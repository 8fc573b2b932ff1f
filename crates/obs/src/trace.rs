//! Hierarchical span recording assembled into per-request traces.
//!
//! A [`Tracer`] decides per request (every `sample_every`-th) whether to
//! record. When it does, [`Tracer::begin`] installs a thread-local span
//! stack for the handling thread; instrumentation hooks sprinkled through
//! the lower layers — [`span`], [`count`], [`note`] — attach to whatever
//! trace is active on their thread, and compile to a thread-local check
//! plus a branch when none is. Dropping the [`RequestGuard`] closes the
//! root span and assembles the recorded spans into an immutable [`Trace`]
//! pushed into a bounded ring buffer; requests over the slow threshold are
//! additionally retained in a slow-query ring so their full span trees
//! survive long after the main ring has rotated.
//!
//! Spans carry a static name, a depth (nesting level), a monotonic elapsed
//! time, and optional counters ([`count`]) and string notes ([`note`]).
//! [`Trace::render_line`] renders the whole tree on a single line — the
//! wire protocol is line-delimited — with depth shown as leading dots;
//! [`Trace::structure`] is the same rendering with every timing replaced by
//! `_`, which is what the determinism tests compare.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Configuration of a [`Tracer`].
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// Record every Nth request: `1` traces everything (the default), `0`
    /// disables tracing entirely.
    pub sample_every: u64,
    /// Requests whose total latency is at least this many microseconds are
    /// retained in the slow-query ring. `0` retains every traced request.
    pub slow_us: u64,
    /// Capacity of the main trace ring buffer.
    pub ring_capacity: usize,
    /// Capacity of the slow-query ring buffer.
    pub slowlog_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            sample_every: 1,
            slow_us: 100_000,
            ring_capacity: 128,
            slowlog_capacity: 64,
        }
    }
}

/// One closed span of a finished [`Trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Static span name (a stage like `parse` or `evaluate`).
    pub name: &'static str,
    /// Nesting depth: the root request span is 0.
    pub depth: u16,
    /// Monotonic elapsed time of the span in microseconds.
    pub elapsed_us: u64,
    /// Counters attached via [`count`], in first-attachment order.
    pub counts: Vec<(&'static str, u64)>,
    /// Notes attached via [`note`], in first-attachment order.
    pub notes: Vec<(&'static str, String)>,
}

/// A finished per-request trace: identity, the request line, total latency
/// and the closed span tree in start order.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Monotonically increasing request ID (1-based, per tracer).
    pub id: u64,
    /// Protocol verb of the request (`SELECT`, `HIST`, … or `?` when the
    /// request failed to parse).
    pub verb: String,
    /// The request line, with tabs flattened to spaces.
    pub request: String,
    /// Total wall-clock latency of the request in microseconds.
    pub total_us: u64,
    /// Closed spans in start order; `spans[0]` is the root request span.
    pub spans: Vec<SpanRecord>,
}

fn render_span(out: &mut String, s: &SpanRecord, timings: bool) {
    for _ in 0..s.depth {
        out.push('.');
    }
    out.push_str(s.name);
    if timings {
        let _ = write!(out, " {}us", s.elapsed_us);
    } else {
        out.push_str(" _");
    }
    for (k, v) in &s.counts {
        let _ = write!(out, " {k}={v}");
    }
    for (k, v) in &s.notes {
        let _ = write!(out, " {k}={v}");
    }
}

impl Trace {
    /// Render the span tree on one line: spans in start order joined by
    /// `"; "`, nesting depth shown as leading dots, counters and notes as
    /// `key=value` suffixes. Example:
    ///
    /// `request 1234us; .parse 12us; .plan 3us hit=1; .evaluate 1100us; .serialize 30us`
    pub fn render_line(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str("; ");
            }
            render_span(&mut out, s, true);
        }
        out
    }

    /// [`Trace::render_line`] with every timing replaced by `_`: the
    /// deterministic skeleton of the trace, stable across replays of the
    /// same request against the same warm state.
    pub fn structure(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str("; ");
            }
            render_span(&mut out, s, false);
        }
        out
    }

    /// Find the first span with `name`, if any.
    pub fn span(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name == name)
    }
}

/// An open span while a trace is being recorded on this thread.
struct OpenSpan {
    name: &'static str,
    depth: u16,
    start: Instant,
    elapsed_us: u64,
    closed: bool,
    counts: Vec<(&'static str, u64)>,
    notes: Vec<(&'static str, String)>,
}

/// The thread-local recording state of one in-flight traced request.
struct ActiveTrace {
    spans: Vec<OpenSpan>,
    stack: Vec<usize>,
}

thread_local! {
    static ACTIVE: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

/// Whether a trace is being recorded on the current thread.
pub fn is_active() -> bool {
    ACTIVE.with(|a| a.borrow().is_some())
}

/// RAII guard of one span. Created by [`span`]; closing happens on drop.
/// When no trace is active on the thread the guard is inert.
#[must_use = "a span measures the scope it is alive in"]
pub struct SpanGuard {
    armed: bool,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        ACTIVE.with(|a| {
            if let Some(trace) = a.borrow_mut().as_mut() {
                if let Some(idx) = trace.stack.pop() {
                    let s = &mut trace.spans[idx];
                    s.elapsed_us = s.start.elapsed().as_micros() as u64;
                    s.closed = true;
                }
            }
        });
    }
}

/// Open a span named `name` nested under the innermost open span of the
/// current thread's trace. Returns an inert guard (one thread-local check,
/// no allocation) when no trace is active.
pub fn span(name: &'static str) -> SpanGuard {
    ACTIVE.with(|a| {
        let mut borrow = a.borrow_mut();
        match borrow.as_mut() {
            None => SpanGuard { armed: false },
            Some(trace) => {
                let depth = trace.stack.len() as u16;
                trace.spans.push(OpenSpan {
                    name,
                    depth,
                    start: Instant::now(),
                    elapsed_us: 0,
                    closed: false,
                    counts: Vec::new(),
                    notes: Vec::new(),
                });
                trace.stack.push(trace.spans.len() - 1);
                SpanGuard { armed: true }
            }
        }
    })
}

/// Record an already closed span of `elapsed` under the innermost open span:
/// for a stage whose time was summed over interleaved steps (read a section,
/// verify it, decode it, next section) and so has no single scope a
/// [`SpanGuard`] could cover. No-op when no trace is active on this thread.
pub fn record(name: &'static str, elapsed: std::time::Duration) {
    ACTIVE.with(|a| {
        if let Some(trace) = a.borrow_mut().as_mut() {
            trace.spans.push(OpenSpan {
                name,
                depth: trace.stack.len() as u16,
                start: Instant::now(),
                elapsed_us: elapsed.as_micros() as u64,
                closed: true,
                counts: Vec::new(),
                notes: Vec::new(),
            });
        }
    });
}

/// Add `v` to the counter `name` of the innermost open span. No-op when no
/// trace is active on this thread.
pub fn count(name: &'static str, v: u64) {
    ACTIVE.with(|a| {
        if let Some(trace) = a.borrow_mut().as_mut() {
            if let Some(&idx) = trace.stack.last() {
                let counts = &mut trace.spans[idx].counts;
                match counts.iter_mut().find(|(k, _)| *k == name) {
                    Some((_, total)) => *total += v,
                    None => counts.push((name, v)),
                }
            }
        }
    });
}

/// Attach a string note to the innermost open span. The value closure runs
/// only when a trace is active, so callers pay no formatting or allocation
/// cost otherwise. A repeated note name overwrites the previous value.
pub fn note(name: &'static str, value: impl FnOnce() -> String) {
    ACTIVE.with(|a| {
        if let Some(trace) = a.borrow_mut().as_mut() {
            if let Some(&idx) = trace.stack.last() {
                let v = value();
                let notes = &mut trace.spans[idx].notes;
                match notes.iter_mut().find(|(k, _)| *k == name) {
                    Some((_, slot)) => *slot = v,
                    None => notes.push((name, v)),
                }
            }
        }
    });
}

/// The per-request sampler, trace ring and slow-query ring.
#[derive(Debug)]
pub struct Tracer {
    config: TraceConfig,
    seq: AtomicU64,
    next_id: AtomicU64,
    recorded: AtomicU64,
    ring: Mutex<VecDeque<Arc<Trace>>>,
    slow: Mutex<VecDeque<Arc<Trace>>>,
}

impl Tracer {
    /// A tracer with the given configuration.
    pub fn new(config: TraceConfig) -> Self {
        Self {
            config,
            seq: AtomicU64::new(0),
            next_id: AtomicU64::new(0),
            recorded: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::new()),
            slow: Mutex::new(VecDeque::new()),
        }
    }

    /// This tracer's configuration.
    pub fn config(&self) -> &TraceConfig {
        &self.config
    }

    /// Begin handling `request` on the current thread. Applies the sampling
    /// decision; when the request is sampled (and no other trace is already
    /// active on this thread) a recording span stack is installed until the
    /// returned guard drops. Call [`RequestGuard::set_verb`] once the verb
    /// is known.
    pub fn begin(&self, request: &str) -> RequestGuard<'_> {
        let sampled = self.config.sample_every > 0
            && self
                .seq
                .fetch_add(1, Ordering::Relaxed)
                .is_multiple_of(self.config.sample_every);
        let armed = sampled
            && ACTIVE.with(|a| {
                let mut borrow = a.borrow_mut();
                if borrow.is_some() {
                    return false;
                }
                *borrow = Some(ActiveTrace {
                    spans: vec![OpenSpan {
                        name: "request",
                        depth: 0,
                        start: Instant::now(),
                        elapsed_us: 0,
                        closed: false,
                        counts: Vec::new(),
                        notes: Vec::new(),
                    }],
                    stack: vec![0],
                });
                true
            });
        RequestGuard {
            tracer: self,
            armed,
            verb: std::cell::Cell::new("?"),
            request: if armed {
                request.replace(['\t', '\n', '\r'], " ")
            } else {
                String::new()
            },
        }
    }

    /// Number of traces recorded over the tracer's lifetime.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// The most recently recorded trace.
    pub fn last(&self) -> Option<Arc<Trace>> {
        self.ring
            .lock()
            .expect("trace ring poisoned")
            .back()
            .cloned()
    }

    /// Look up a trace by request ID, searching the main ring first and the
    /// slow-query ring second (slow traces outlive the main ring).
    pub fn get(&self, id: u64) -> Option<Arc<Trace>> {
        let from_ring = self
            .ring
            .lock()
            .expect("trace ring poisoned")
            .iter()
            .find(|t| t.id == id)
            .cloned();
        from_ring.or_else(|| {
            self.slow
                .lock()
                .expect("slowlog poisoned")
                .iter()
                .find(|t| t.id == id)
                .cloned()
        })
    }

    /// The most recent `n` slow-query entries, newest first.
    pub fn slowlog(&self, n: usize) -> Vec<Arc<Trace>> {
        self.slow
            .lock()
            .expect("slowlog poisoned")
            .iter()
            .rev()
            .take(n)
            .cloned()
            .collect()
    }

    /// Number of traces currently held in the main ring.
    pub fn ring_len(&self) -> usize {
        self.ring.lock().expect("trace ring poisoned").len()
    }

    /// Number of entries currently held in the slow-query ring.
    pub fn slowlog_len(&self) -> usize {
        self.slow.lock().expect("slowlog poisoned").len()
    }

    fn finish(&self, verb: &'static str, request: String) {
        let Some(active) = ACTIVE.with(|a| a.borrow_mut().take()) else {
            return;
        };
        let mut spans: Vec<SpanRecord> = active
            .spans
            .into_iter()
            .map(|s| SpanRecord {
                name: s.name,
                depth: s.depth,
                // A span still open when the trace ends (the root, or a
                // mismatched guard) closes at trace end.
                elapsed_us: if s.closed {
                    s.elapsed_us
                } else {
                    s.start.elapsed().as_micros() as u64
                },
                counts: s.counts,
                notes: s.notes,
            })
            .collect();
        // The root span closes here, after every child.
        if let Some(root) = spans.first_mut() {
            root.name = "request";
        }
        let total_us = spans.first().map(|s| s.elapsed_us).unwrap_or(0);
        let trace = Arc::new(Trace {
            id: self.next_id.fetch_add(1, Ordering::Relaxed) + 1,
            verb: verb.to_string(),
            request,
            total_us,
            spans,
        });
        self.recorded.fetch_add(1, Ordering::Relaxed);
        {
            let mut ring = self.ring.lock().expect("trace ring poisoned");
            if ring.len() >= self.config.ring_capacity.max(1) {
                ring.pop_front();
            }
            ring.push_back(trace.clone());
        }
        if total_us >= self.config.slow_us {
            let mut slow = self.slow.lock().expect("slowlog poisoned");
            if slow.len() >= self.config.slowlog_capacity.max(1) {
                slow.pop_front();
            }
            slow.push_back(trace);
        }
    }
}

/// RAII guard of one traced request, returned by [`Tracer::begin`]. While
/// alive (and armed), instrumentation hooks on this thread record into the
/// request's trace; dropping it assembles and stores the [`Trace`].
#[must_use = "the request guard delimits the traced request"]
pub struct RequestGuard<'a> {
    tracer: &'a Tracer,
    armed: bool,
    verb: std::cell::Cell<&'static str>,
    request: String,
}

impl RequestGuard<'_> {
    /// Record the protocol verb of this request once parsing has
    /// established it.
    pub fn set_verb(&self, verb: &'static str) {
        self.verb.set(verb);
    }

    /// Whether this request is actually being recorded.
    pub fn armed(&self) -> bool {
        self.armed
    }

    /// Drop this request's trace unrecorded and hand its sampling turn
    /// back, as if [`Tracer::begin`] had never been called: for a handler
    /// that looked at a request and passed it on to one that will begin its
    /// own trace, so the request is recorded (or not) exactly once.
    pub fn discard(mut self) {
        if self.armed {
            ACTIVE.with(|a| a.borrow_mut().take());
            self.armed = false;
        }
        if self.tracer.config.sample_every > 0 {
            self.tracer.seq.fetch_sub(1, Ordering::Relaxed);
        }
    }
}

impl Drop for RequestGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.tracer
                .finish(self.verb.get(), std::mem::take(&mut self.request));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn all_tracer() -> Tracer {
        Tracer::new(TraceConfig {
            sample_every: 1,
            slow_us: u64::MAX,
            ring_capacity: 4,
            slowlog_capacity: 2,
        })
    }

    #[test]
    fn spans_nest_and_record_counts_and_notes() {
        let tracer = all_tracer();
        {
            let guard = tracer.begin("SELECT\tds\tpx > 0");
            guard.set_verb("SELECT");
            {
                let _parse = span("parse");
            }
            {
                let _eval = span("evaluate");
                count("chunks", 3);
                count("chunks", 2);
                {
                    let _slot = span("slot");
                    note("source", || "index".to_string());
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        let t = tracer.last().expect("trace recorded");
        assert_eq!(t.verb, "SELECT");
        assert_eq!(t.request, "SELECT ds px > 0", "tabs flatten to spaces");
        assert_eq!(t.id, 1);
        let names: Vec<_> = t.spans.iter().map(|s| (s.name, s.depth)).collect();
        assert_eq!(
            names,
            vec![("request", 0), ("parse", 1), ("evaluate", 1), ("slot", 2)]
        );
        let eval = t.span("evaluate").unwrap();
        assert_eq!(eval.counts, vec![("chunks", 5)], "counts accumulate");
        assert!(eval.elapsed_us >= 1000, "evaluate slept 1ms");
        assert!(t.total_us >= eval.elapsed_us, "root covers children");
        let slot = t.span("slot").unwrap();
        assert_eq!(slot.notes, vec![("source", "index".to_string())]);
    }

    #[test]
    fn recorded_spans_nest_under_the_open_span_without_opening() {
        let tracer = all_tracer();
        {
            let _g = tracer.begin("SELECT x");
            let _load = span("load");
            record("read", Duration::from_micros(40));
            record("decode", Duration::from_micros(7));
            // A recorded span is closed: notes still land on `load`.
            note("bytes", || "12".to_string());
        }
        let t = tracer.last().unwrap();
        assert_eq!(
            t.structure(),
            "request _; .load _ bytes=12; ..read _; ..decode _"
        );
        assert_eq!(t.span("read").unwrap().elapsed_us, 40);
        assert_eq!(t.span("decode").unwrap().elapsed_us, 7);
    }

    #[test]
    fn hooks_are_inert_without_an_active_trace() {
        assert!(!is_active());
        let _s = span("orphan");
        count("ignored", 1);
        record("ignored", Duration::from_micros(1));
        note("ignored", || {
            panic!("note closure must not run when inactive")
        });
        assert!(!is_active());
    }

    #[test]
    fn sampling_records_every_nth_request() {
        let tracer = Tracer::new(TraceConfig {
            sample_every: 3,
            ..TraceConfig::default()
        });
        for i in 0..9 {
            let guard = tracer.begin(&format!("PING {i}"));
            assert_eq!(guard.armed(), i % 3 == 0, "request {i}");
        }
        assert_eq!(tracer.recorded(), 3);
        let disabled = Tracer::new(TraceConfig {
            sample_every: 0,
            ..TraceConfig::default()
        });
        let g = disabled.begin("PING");
        assert!(!g.armed());
        drop(g);
        assert_eq!(disabled.recorded(), 0);
    }

    #[test]
    fn discard_records_nothing_and_returns_the_sampling_turn() {
        let tracer = Tracer::new(TraceConfig {
            sample_every: 2,
            ..TraceConfig::default()
        });
        let looked = tracer.begin("SELECT\t0\tpx > 0");
        assert!(looked.armed());
        {
            let _parse = span("parse");
        }
        looked.discard();
        assert!(!is_active(), "the discarded trace left the thread");
        assert_eq!(tracer.recorded(), 0);
        // The handler the request was passed on to gets the same turn.
        let served = tracer.begin("SELECT\t0\tpx > 0");
        assert!(served.armed());
        drop(served);
        assert_eq!(tracer.recorded(), 1);
        assert_eq!(tracer.last().unwrap().structure(), "request _");
        let unsampled = tracer.begin("PING");
        assert!(!unsampled.armed());
        unsampled.discard();
        assert!(!tracer.begin("PING").armed(), "still the unsampled turn");
    }

    #[test]
    fn ring_is_bounded_and_ids_are_monotonic() {
        let tracer = all_tracer();
        for i in 0..10 {
            let g = tracer.begin(&format!("PING {i}"));
            g.set_verb("PING");
        }
        assert_eq!(tracer.ring_len(), 4, "ring capacity enforced");
        assert_eq!(tracer.recorded(), 10);
        let last = tracer.last().unwrap();
        assert_eq!(last.id, 10);
        assert!(tracer.get(10).is_some());
        assert!(tracer.get(1).is_none(), "rotated out of the ring");
    }

    #[test]
    fn slowlog_retains_over_threshold_requests() {
        let tracer = Tracer::new(TraceConfig {
            sample_every: 1,
            slow_us: 0, // everything is "slow"
            ring_capacity: 2,
            slowlog_capacity: 3,
        });
        for i in 0..5 {
            let g = tracer.begin(&format!("SELECT {i}"));
            g.set_verb("SELECT");
        }
        assert_eq!(tracer.slowlog_len(), 3, "slowlog capacity enforced");
        let entries = tracer.slowlog(10);
        let ids: Vec<_> = entries.iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![5, 4, 3], "newest first");
        assert_eq!(tracer.slowlog(1).len(), 1);
        // Slow traces outlive the main ring for TRACE <id> lookups.
        assert!(tracer.get(3).is_some(), "found via the slowlog");
        let fast = Tracer::new(TraceConfig {
            sample_every: 1,
            slow_us: u64::MAX,
            ring_capacity: 2,
            slowlog_capacity: 3,
        });
        let g = fast.begin("PING");
        drop(g);
        assert_eq!(fast.slowlog_len(), 0, "fast requests stay out");
    }

    #[test]
    fn render_line_and_structure_share_a_skeleton() {
        let tracer = all_tracer();
        {
            let g = tracer.begin("SELECT\tds\tpx > 0");
            g.set_verb("SELECT");
            let _parse = span("parse");
            drop(_parse);
            let _eval = span("evaluate");
            count("chunks", 4);
        }
        let t = tracer.last().unwrap();
        let line = t.render_line();
        assert!(line.starts_with("request "), "{line}");
        assert!(line.contains("; .parse "), "{line}");
        assert!(line.contains("; .evaluate "), "{line}");
        assert!(line.contains("chunks=4"), "{line}");
        assert!(!line.contains('\n'), "single line");
        assert_eq!(
            t.structure(),
            "request _; .parse _; .evaluate _ chunks=4",
            "timings normalize to underscores"
        );
    }

    #[test]
    fn nested_begin_does_not_clobber_the_active_trace() {
        let tracer = all_tracer();
        let outer = tracer.begin("SELECT outer");
        outer.set_verb("SELECT");
        let inner = tracer.begin("PING inner");
        assert!(!inner.armed(), "a thread records one trace at a time");
        drop(inner);
        assert!(is_active(), "outer trace still recording");
        drop(outer);
        assert_eq!(tracer.recorded(), 1);
        assert_eq!(tracer.last().unwrap().verb, "SELECT");
    }
}
