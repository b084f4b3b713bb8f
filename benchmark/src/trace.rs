//! Spans around every call into a layer, kept in memory and written out
//! when the workload ends. The spans are recorded here, in the benchmark's
//! own files; nothing inside `crates/` knows about them.
//!
//! A span carries a name (`<layer>.<operation>`), start and end in
//! nanoseconds since the tracer was made, the span that caused it, the
//! query it belongs to and the counts taken at the same boundary. With the
//! tracer off, [`Tracer::span`] still times the call (two clock reads) but
//! records nothing, so the untraced pass runs the same code.

use std::sync::Mutex;
use std::time::Instant;

use crate::json::{obj, Value};

/// Index of a recorded span; `None` when the tracer is off.
pub type SpanId = Option<usize>;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: SpanId,
    pub query: Option<u64>,
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }

    pub fn count(&self, key: &str) -> Option<f64> {
        self.counts.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    // Two client threads record into one list; the lock is taken outside
    // every timed call.
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    // Not named `lock`: sssp-lint resolves calls by name across the whole
    // tree, and an `expect` in a fn every `.lock()` call appears to reach
    // would drift its panic-reachability golden.
    fn recorded(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span list poisoned: a recording thread panicked")
    }

    /// Open a span that other spans will name as their parent.
    pub fn begin(&self, name: &'static str, parent: SpanId, query: Option<u64>) -> SpanId {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        let mut spans = self.recorded();
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            query,
            counts: Vec::new(),
        });
        Some(spans.len() - 1)
    }

    pub fn end(&self, id: SpanId) {
        if let Some(i) = id {
            let end_ns = self.now_ns();
            self.recorded()[i].end_ns = end_ns;
        }
    }

    /// Attach a count to an open or closed span.
    pub fn count(&self, id: SpanId, key: &'static str, value: f64) {
        if let Some(i) = id {
            self.recorded()[i].counts.push((key, value));
        }
    }

    /// Time `f` and, when tracing, record it as a leaf span. Returns the
    /// result, the elapsed seconds and the span's id.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: SpanId,
        query: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> (T, f64, SpanId) {
        if !self.enabled {
            let t0 = Instant::now();
            let out = f();
            return (out, t0.elapsed().as_secs_f64(), None);
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        let mut spans = self.recorded();
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            query,
            counts: Vec::new(),
        });
        let secs = (end_ns - start_ns) as f64 / 1e9;
        (out, secs, Some(spans.len() - 1))
    }

    /// Every finished span with this name, in recording order.
    pub fn named(&self, name: &str) -> Vec<Span> {
        self.recorded()
            .iter()
            .filter(|s| s.name == name)
            .cloned()
            .collect()
    }

    /// Self time per span name in seconds: a span's duration minus the
    /// part of it its child spans cover (children of concurrent clients
    /// overlap, so the cover is a union of intervals).
    pub fn self_times(&self) -> Vec<(&'static str, f64)> {
        let spans = self.recorded();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut totals: Vec<(&'static str, f64)> = Vec::new();
        for (s, kids) in spans.iter().zip(children.iter_mut()) {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            let own = (s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1e9;
            match totals.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += own,
                None => totals.push((s.name, own)),
            }
        }
        totals
    }

    /// The whole trace as one JSON document.
    pub fn to_json(&self, workload: &str, seed: u64) -> Value {
        let self_times = self.self_times();
        let spans = self.recorded();
        let rows = spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                obj([
                    ("id", Value::Num(id as f64)),
                    ("name", Value::Str(s.name.to_string())),
                    ("start_ns", Value::Num(s.start_ns as f64)),
                    ("end_ns", Value::Num(s.end_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                    ),
                    (
                        "query",
                        s.query.map_or(Value::Null, |q| Value::Num(q as f64)),
                    ),
                    (
                        "counts",
                        obj(s.counts.iter().map(|&(k, v)| (k, Value::Num(v)))),
                    ),
                ])
            })
            .collect();
        obj([
            ("workload", Value::Str(workload.to_string())),
            ("seed", Value::Num(seed as f64)),
            (
                "self_time_s",
                obj(self_times.into_iter().map(|(n, t)| (n, Value::Num(t)))),
            ),
            ("spans", Value::Arr(rows)),
        ])
    }
}
