//! In-memory span recorder for the traced run.
//!
//! Spans are recorded only in the benchmark's own code, around each call
//! it makes into a layer of the stack. Each span carries a name (whose
//! prefix before the first `.` is the layer), start and end, the span it
//! ran under, and an operation id shared by every span of one operation.
//! Spans stay in memory until the run ends; then they are reduced to
//! per-layer self time and exported as a Chrome trace.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Id of the enclosing span, 0 for a root span.
    pub parent: u64,
    pub op: u64,
    pub name: String,
    pub tid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }

    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Open spans on this thread, innermost last.
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static TID: Cell<u64> = const { Cell::new(0) };
}

fn tid() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// The innermost open span on this thread (0 if none) — pass it to
    /// [`Tracer::span_under`] from worker threads.
    pub fn current(&self) -> u64 {
        STACK.with(|s| s.borrow().last().copied().unwrap_or(0))
    }

    /// Runs `f` inside a span under the innermost open span of this thread.
    pub fn span<T>(&self, name: &str, op: u64, f: impl FnOnce() -> T) -> T {
        self.span_under(self.current(), name, op, f)
    }

    /// Runs `f` inside a span with an explicit parent (for work that a
    /// span on another thread fanned out).
    pub fn span_under<T>(&self, parent: u64, name: &str, op: u64, f: impl FnOnce() -> T) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        STACK.with(|s| s.borrow_mut().push(id));
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        STACK.with(|s| s.borrow_mut().pop());
        self.spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .push(Span {
                id,
                parent,
                op,
                name: name.to_string(),
                tid: tid(),
                start_ns,
                end_ns,
            });
        out
    }

    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("span list poisoned by a panicking thread")
            .clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }
}

/// Runs `f`, inside a span when a tracer is given.
pub fn maybe<T>(tr: Option<&Tracer>, name: &str, op: u64, f: impl FnOnce() -> T) -> T {
    match tr {
        Some(t) => t.span(name, op, f),
        None => f(),
    }
}

/// Self time of every span: its duration minus the part of it covered
/// by its children (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cur: Option<(u64, u64)> = None;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(s.start_ns), b.min(s.end_ns));
                    if a >= b {
                        continue;
                    }
                    match cur {
                        Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                        Some((ca, cb)) => {
                            covered += cb - ca;
                            cur = Some((a, b));
                        }
                        None => cur = Some((a, b)),
                    }
                }
                if let Some((ca, cb)) = cur {
                    covered += cb - ca;
                }
            }
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Per-layer rows: (layer, spans, total self time in ns).
pub fn layer_table(spans: &[Span]) -> Vec<(String, usize, u64)> {
    let selfs = self_times(spans);
    let mut by_layer: BTreeMap<String, (usize, u64)> = BTreeMap::new();
    for s in spans {
        let e = by_layer.entry(s.layer().to_string()).or_default();
        e.0 += 1;
        e.1 += selfs[&s.id];
    }
    by_layer.into_iter().map(|(l, (n, t))| (l, n, t)).collect()
}

/// Total duration (ns) and count of spans named exactly `name`.
pub fn total(spans: &[Span], name: &str) -> (u64, usize) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(t, n), s| (t + s.dur_ns(), n + 1))
}

/// Durations (ns) of spans named exactly `name`, in start order.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::dur_ns)
        .collect()
}

/// Chrome trace-event JSON (complete `X` events, `ts`/`dur` in µs,
/// sorted by start time).
pub fn chrome_json(spans: &[Span]) -> String {
    let mut out = String::from("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\
             \"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"op\":{}}}}}",
            s.name,
            s.layer(),
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.parent,
            s.op
        ));
    }
    out.push_str("]}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: format!("l{id}.x"),
            tid: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 50),  // overlaps span 2
            span(4, 1, 90, 120), // runs past its parent
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 30);
    }

    #[test]
    fn nested_spans_record_their_parent() {
        let tr = Tracer::new();
        tr.span("a.outer", 7, || tr.span("b.inner", 7, || ()));
        let spans = tr.spans();
        let outer = spans.iter().find(|s| s.name == "a.outer").unwrap();
        let inner = spans.iter().find(|s| s.name == "b.inner").unwrap();
        assert_eq!(inner.parent, outer.id);
        assert_eq!(outer.parent, 0);
        assert_eq!(inner.op, 7);
    }
}
