//! Spans around every call `gbench` makes into a layer.
//!
//! A [`Tracer`] is either off — [`Tracer::span`] is then a plain call
//! with no timestamp, lock or allocation, which is how every end-to-end
//! number is measured — or on, keeping `(name, start, end, parent, unit)`
//! records in memory until the run ends. A top-level span is one unit of
//! work (a query, a batch, a request, an ingest round); spans opened
//! inside it on the same thread become its children and share its unit
//! id. A layer's self time is its span minus what its children cover.

use crate::json::quote;
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// The top-level span this one belongs to (its own id at top level).
    pub unit: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub tid: u64,
}

/// Per-name totals over a finished trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotals {
    pub count: u64,
    pub total_s: f64,
    /// `total_s` minus the time covered by child spans.
    pub self_s: f64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

thread_local! {
    /// `(span id, unit id)` of the innermost open span on this thread.
    static CURRENT: Cell<Option<(u64, u64)>> = const { Cell::new(None) };
    static TID: Cell<u64> = const { Cell::new(0) };
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

fn thread_id() -> u64 {
    TID.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` inside a span named `name`. Off: just calls `f`.
    #[inline]
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let outer = CURRENT.with(|c| c.get());
        let unit = outer.map_or(id, |(_, unit)| unit);
        CURRENT.with(|c| c.set(Some((id, unit))));
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f();
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        CURRENT.with(|c| c.set(outer));
        self.spans
            .lock()
            .expect("a span body panicked while recording")
            .push(Span {
                id,
                parent: outer.map(|(parent, _)| parent),
                unit,
                name,
                start_ns,
                end_ns,
                tid: thread_id(),
            });
        out
    }

    /// Every span recorded so far, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("a span body panicked while recording")
            .clone()
    }

    /// Durations in seconds of every span named `name`.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
            .collect()
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let spans = self.spans();
        let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &spans {
            if let Some(p) = s.parent {
                *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for s in &spans {
            let dur = s.end_ns - s.start_ns;
            let children = child_ns.get(&s.id).copied().unwrap_or(0);
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_s += dur as f64 / 1e9;
            t.self_s += dur.saturating_sub(children) as f64 / 1e9;
        }
        out
    }

    /// The trace in Chrome's `traceEvents` form (open it in
    /// `chrome://tracing` or <https://ui.perfetto.dev>).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "{{\"name\":{},\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"unit\":{}}}}}",
                quote(s.name),
                s.tid,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.unit,
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("a", || t.span("b", || 7)), 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn children_inherit_the_unit_and_reduce_self_time() {
        let t = Tracer::new(true);
        t.span("unit", || {
            t.span("child", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        t.span("unit", || {});
        let spans = t.spans();
        let child = spans.iter().find(|s| s.name == "child").unwrap();
        let unit = spans.iter().find(|s| s.id == child.unit).unwrap();
        assert_eq!(child.parent, Some(unit.id));
        assert_eq!(unit.parent, None);
        let totals = t.totals();
        assert_eq!(totals["unit"].count, 2);
        assert!(totals["unit"].self_s < totals["unit"].total_s);
        assert!(totals["child"].total_s >= 0.005);
        let doc = crate::json::parse(&t.chrome_json()).unwrap();
        assert_eq!(doc.get("traceEvents").unwrap().as_arr().unwrap().len(), 3);
    }

    #[test]
    fn spans_on_other_threads_are_their_own_units() {
        let t = Tracer::new(true);
        t.span("main", || {
            std::thread::scope(|s| {
                s.spawn(|| t.span("worker", || {}));
            });
        });
        let spans = t.spans();
        let worker = spans.iter().find(|s| s.name == "worker").unwrap();
        assert_eq!(worker.parent, None);
        assert_eq!(worker.unit, worker.id);
    }
}
