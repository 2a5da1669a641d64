//! An in-memory span recorder for the traced run.
//!
//! The benchmark calls the public layer functions itself and wraps each call
//! in a span (name, start, end, parent, job id, thread). Spans nest per
//! thread; work handed to the worker pool names its parent explicitly. At the
//! end the spans are folded into per-layer self times and written out.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub job: u64,
    pub thread: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next_id: AtomicU64,
    job: AtomicU64,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static THREAD: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            job: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
        }
    }
}

/// An open span; it closes (and is recorded) when dropped.
pub struct Guard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start_ns: u64,
}

impl Tracer {
    /// A tracer that records nothing: the untraced twin of a traced job.
    pub fn off() -> Tracer {
        Tracer {
            enabled: false,
            ..Tracer::default()
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts the next job: later spans carry its id.
    pub fn begin_job(&self) {
        self.job.fetch_add(1, Ordering::Relaxed);
    }

    /// The innermost open span of the calling thread.
    pub fn current(&self) -> Option<u64> {
        STACK.with(|stack| stack.borrow().last().copied())
    }

    /// Opens a span nested in the calling thread's innermost open span.
    pub fn span(&self, name: &'static str) -> Guard<'_> {
        self.span_under(name, self.current())
    }

    /// Opens a span under an explicit parent: work running on a pool worker
    /// whose logical parent lives on the submitting thread.
    pub fn span_under(&self, name: &'static str, parent: Option<u64>) -> Guard<'_> {
        if !self.enabled {
            return Guard {
                tracer: self,
                id: 0,
                parent,
                name,
                start_ns: 0,
            };
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        STACK.with(|stack| stack.borrow_mut().push(id));
        Guard {
            tracer: self,
            id,
            parent,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Adds `value` to the named counter.
    pub fn add(&self, name: &'static str, value: f64) {
        if !self.enabled {
            return;
        }
        *self
            .counters
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .entry(name)
            .or_insert(0.0) += value;
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .get(name)
            .copied()
            .unwrap_or(0.0)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// Self time per span name, in milliseconds: each span's duration minus
    /// the durations of its children that ran on the same thread (children
    /// on pool workers overlap their parent instead of nesting in it).
    pub fn self_ms(&self) -> BTreeMap<&'static str, f64> {
        let spans = self.spans();
        let mut nested: BTreeMap<u64, u64> = BTreeMap::new();
        let by_id: BTreeMap<u64, &Span> = spans.iter().map(|span| (span.id, span)).collect();
        for span in &spans {
            if let Some(parent) = span.parent.and_then(|id| by_id.get(&id)) {
                if parent.thread == span.thread {
                    *nested.entry(parent.id).or_default() += span.end_ns - span.start_ns;
                }
            }
        }
        let mut totals = BTreeMap::new();
        for span in &spans {
            let own = (span.end_ns - span.start_ns)
                .saturating_sub(nested.get(&span.id).copied().unwrap_or(0));
            *totals.entry(span.name).or_insert(0.0) += own as f64 / 1e6;
        }
        totals
    }

    /// Total (inclusive) time per span name, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.spans()
            .iter()
            .filter(|span| span.name == name)
            .map(Span::ms)
            .sum()
    }

    /// The spans as JSON lines.
    pub fn dump(&self) -> String {
        let mut out = String::new();
        for span in self.spans() {
            let parent = span.parent.map_or("null".to_string(), |id| id.to_string());
            let _ = writeln!(
                out,
                r#"{{"id": {}, "parent": {parent}, "name": "{}", "start_ns": {}, "end_ns": {}, "job": {}, "thread": {}}}"#,
                span.id, span.name, span.start_ns, span.end_ns, span.job, span.thread
            );
        }
        out
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if !self.tracer.enabled {
            return;
        }
        STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            if let Some(position) = stack.iter().rposition(|&id| id == self.id) {
                stack.remove(position);
            }
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            name: self.name,
            start_ns: self.start_ns,
            end_ns: self.tracer.now_ns(),
            job: self.tracer.job.load(Ordering::Relaxed),
            thread: THREAD.with(|thread| *thread),
        };
        self.tracer
            .spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(span);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_same_thread_children_only() {
        let tracer = Tracer::default();
        {
            let _outer = tracer.span("outer");
            std::thread::sleep(std::time::Duration::from_millis(5));
            {
                let _inner = tracer.span("inner");
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            let parent = tracer.current();
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    let _worker = tracer.span_under("worker", parent);
                    std::thread::sleep(std::time::Duration::from_millis(10));
                });
            });
        }
        let spans = tracer.spans();
        let inner = spans.iter().find(|s| s.name == "inner").unwrap();
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        let own = tracer.self_ms();
        // The worker's 10 ms overlap `outer` and stay in its self time; the
        // inner span's 20 ms do not.
        assert!(own["outer"] >= 14.0 && own["outer"] < outer.ms() - 19.0);
        assert!(own["inner"] >= 20.0);
        assert!(own["worker"] >= 10.0);
    }
}
