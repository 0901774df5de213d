//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files only, around calls into
//! each crate's public functions; nothing inside the program is
//! instrumented. Because every scheduler is generic over its evaluator,
//! [`TracedModel`] wraps the evaluator and records a span around each
//! query — that is how estimator busy time *inside* a decision is seen
//! from outside.
//!
//! Spans stay in memory and are written out once, as Chrome
//! `trace_event` JSON, when the run ends.

use omniboost_hw::{HwError, Mapping, ThroughputModel, ThroughputReport, Workload};
use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRec {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Identifier shared by every span of one operation.
    pub op_id: u64,
    pub tid: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

const NO_OP: usize = usize::MAX;

struct Inner {
    epoch: Instant,
    spans: Mutex<Vec<SpanRec>>,
    /// The operation in flight, for spans opened on threads that did not
    /// open it (daemon workers, rayon). Only meaningful with one
    /// operation in flight, which is how the ledger pass runs.
    current_op: AtomicUsize,
    current_op_id: AtomicU64,
}

/// Cheaply clonable handle; the default is off and records nothing.
#[derive(Clone, Default)]
pub struct Recorder {
    inner: Option<Arc<Inner>>,
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    /// Spans open on this thread, innermost last.
    static OPEN: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
}

impl Recorder {
    pub fn off() -> Self {
        Self::default()
    }

    pub fn on() -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                spans: Mutex::new(Vec::new()),
                current_op: AtomicUsize::new(NO_OP),
                current_op_id: AtomicU64::new(0),
            })),
        }
    }

    /// Opens the root span of operation `op_id` (a decision, a request,
    /// a replay) and makes it the parent of spans other threads open
    /// until it closes.
    pub fn op(&self, name: &'static str, op_id: u64) -> SpanGuard {
        let mut guard = self.open(name, None, op_id);
        if let Some((inner, index)) = &guard.open {
            inner.current_op.store(*index, Ordering::SeqCst);
            inner.current_op_id.store(op_id, Ordering::SeqCst);
            guard.is_op = true;
        }
        guard
    }

    /// Opens a span under the innermost span open on this thread, or
    /// under the operation in flight when this thread has none.
    pub fn child(&self, name: &'static str) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard::inert();
        };
        let local = OPEN.with(|open| open.borrow().last().copied());
        let parent = local.or_else(|| {
            let op = inner.current_op.load(Ordering::SeqCst);
            (op != NO_OP).then_some(op)
        });
        let op_id = inner.current_op_id.load(Ordering::SeqCst);
        self.open(name, parent, op_id)
    }

    fn open(&self, name: &'static str, parent: Option<usize>, op_id: u64) -> SpanGuard {
        let Some(inner) = &self.inner else {
            return SpanGuard::inert();
        };
        let mut spans = inner.spans.lock().unwrap_or_else(PoisonError::into_inner);
        let index = spans.len();
        let start_ns = inner.epoch.elapsed().as_nanos() as u64;
        spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            op_id,
            tid: TID.with(|t| *t),
        });
        drop(spans);
        OPEN.with(|open| open.borrow_mut().push(index));
        SpanGuard {
            open: Some((Arc::clone(inner), index)),
            is_op: false,
        }
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<SpanRec> {
        self.inner.as_ref().map_or_else(Vec::new, |inner| {
            inner
                .spans
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .clone()
        })
    }
}

/// Closes its span when dropped.
#[must_use = "a span measures the scope it is alive for"]
pub struct SpanGuard {
    /// The recorder and the span's index; `None` when recording is off.
    open: Option<(Arc<Inner>, usize)>,
    is_op: bool,
}

impl SpanGuard {
    fn inert() -> Self {
        Self {
            open: None,
            is_op: false,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some((inner, index)) = &self.open else {
            return;
        };
        let index = *index;
        let end_ns = inner.epoch.elapsed().as_nanos() as u64;
        inner.spans.lock().unwrap_or_else(PoisonError::into_inner)[index].end_ns = end_ns;
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if open.last() == Some(&index) {
                open.pop();
            }
        });
        if self.is_op {
            inner.current_op.store(NO_OP, Ordering::SeqCst);
        }
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent
/// and overlapping children (parallel threads) are counted once.
pub fn self_times_ns(spans: &[SpanRec]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.max(p.start_ns);
            let end = span.end_ns.min(p.end_ns);
            if end > start {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = span.start_ns;
            for &(start, end) in kids.iter() {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.dur_ns() - covered
        })
        .collect()
}

/// Chrome `trace_event` JSON (loadable in Perfetto / `about://tracing`).
pub fn chrome_trace_json(spans: &[SpanRec]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 120);
    out.push_str("{\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or(-1, |p| p as i64);
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"span\":{i},\"parent\":{parent},\"op_id\":{}}}}}",
            s.name,
            s.tid,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.op_id,
        ));
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Query counters of a [`TracedModel`], shared by every clone handed to
/// a fleet's boards.
#[derive(Debug, Default)]
pub struct EvalCounters {
    pub calls: AtomicU64,
    pub mappings: AtomicU64,
}

/// An evaluator that records a span around every query it answers.
pub struct TracedModel<M> {
    inner: M,
    recorder: Recorder,
    counters: Arc<EvalCounters>,
}

impl<M> TracedModel<M> {
    pub fn new(inner: M, recorder: Recorder, counters: Arc<EvalCounters>) -> Self {
        Self {
            inner,
            recorder,
            counters,
        }
    }
}

impl<M: ThroughputModel> ThroughputModel for TracedModel<M> {
    fn evaluate(
        &self,
        workload: &Workload,
        mapping: &Mapping,
    ) -> Result<ThroughputReport, HwError> {
        let _span = self.recorder.child("evaluator.evaluate");
        self.counters.calls.fetch_add(1, Ordering::Relaxed);
        self.counters.mappings.fetch_add(1, Ordering::Relaxed);
        self.inner.evaluate(workload, mapping)
    }

    fn evaluate_batch(
        &self,
        workload: &Workload,
        mappings: &[Mapping],
    ) -> Vec<Result<ThroughputReport, HwError>> {
        let _span = self.recorder.child("evaluator.evaluate_batch");
        self.counters.calls.fetch_add(1, Ordering::Relaxed);
        self.counters
            .mappings
            .fetch_add(mappings.len() as u64, Ordering::Relaxed);
        self.inner.evaluate_batch(workload, mappings)
    }

    fn model_name(&self) -> &str {
        self.inner.model_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> SpanRec {
        SpanRec {
            name: "s",
            start_ns,
            end_ns,
            parent,
            op_id: 0,
            tid: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span(0, 100, None),     // root
            span(10, 30, Some(0)),  // child
            span(30, 50, Some(0)),  // adjacent sibling
            span(12, 20, Some(1)),  // grandchild: only its parent pays
            span(45, 70, Some(0)),  // overlaps the sibling by 5
            span(90, 120, Some(0)), // outlives the root: clipped to 10
        ];
        let own = self_times_ns(&spans);
        // Children cover [10,70) and [90,100): 70 of the root's 100.
        assert_eq!(own[0], 30);
        assert_eq!(own[1], 12);
        assert_eq!(own[2], 20);
        assert_eq!(own[3], 8);
        assert_eq!(own[4], 25);
        assert_eq!(own[5], 30);
    }

    #[test]
    fn recorder_links_children_on_this_thread_and_across_threads() {
        let rec = Recorder::on();
        {
            let _op = rec.op("op", 7);
            {
                let _outer = rec.child("outer");
                let _inner = rec.child("inner");
            }
            // A worker thread has no open span of its own: it attaches
            // to the operation in flight.
            std::thread::scope(|scope| {
                scope.spawn(|| drop(rec.child("worker")));
            });
        }
        drop(rec.child("orphan"));
        let spans = rec.spans();
        let by_name = |n: &str| spans.iter().position(|s| s.name == n).unwrap();
        assert_eq!(spans[by_name("outer")].parent, Some(by_name("op")));
        assert_eq!(spans[by_name("inner")].parent, Some(by_name("outer")));
        assert_eq!(spans[by_name("worker")].parent, Some(by_name("op")));
        assert_eq!(spans[by_name("worker")].op_id, 7);
        assert_eq!(spans[by_name("orphan")].parent, None);
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }

    #[test]
    fn off_recorder_records_nothing() {
        let rec = Recorder::off();
        drop(rec.op("op", 1));
        drop(rec.child("c"));
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_well_formed() {
        let json = chrome_trace_json(&[span(1_000, 3_500, None), span(1_500, 2_000, Some(0))]);
        assert!(json.starts_with("{\"traceEvents\":[{"));
        assert!(json.contains("\"ts\":1.000,\"dur\":2.500"));
        assert!(json.contains("\"parent\":0"));
        assert!(omniboost_rpc::json::parse(json.as_bytes()).is_ok());
    }
}
