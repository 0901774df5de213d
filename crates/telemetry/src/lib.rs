//! Observability layer for the OmniBoost stack: mergeable
//! log-bucketed histograms, scoped RAII spans over a monotonic clock,
//! a bounded flight recorder, and export to Prometheus text and
//! Chrome `trace_event` JSON.
//!
//! The central type is [`Telemetry`], a cheaply-clonable handle that
//! is either **recording** (backed by a shared registry, span buffer
//! and flight recorder) or a **no-op** (the default — every operation
//! is a branch on a `None`). Sims and engines accept the handle via
//! `set_telemetry` setters, so replay digests never see it: telemetry
//! observes decisions, it never feeds them.
//!
//! Naming convention: span and event names are dot-separated with the
//! owning crate as the first segment (`core.decide.search`,
//! `serve.tick.flush`, `orchestrator.rebalance`, `rpc.submit`). The
//! Prometheus exporter rewrites dots to underscores and prefixes
//! `omniboost_span_` for span-duration histograms.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod export;
mod flight;
mod histogram;
mod registry;

pub use flight::{FlightEvent, FlightRecorder};
pub use histogram::{LogHistogram, BUCKETS, SUB_BUCKETS};
pub use registry::Registry;

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Default flight-recorder capacity (events).
pub const DEFAULT_FLIGHT_CAPACITY: usize = 1024;
/// Default completed-span buffer capacity.
pub const DEFAULT_SPAN_CAPACITY: usize = 8192;

/// A finished span: name, logical thread, and microsecond start/
/// duration relative to the owning [`Telemetry`]'s epoch.
#[derive(Debug, Clone)]
pub struct CompletedSpan {
    /// Dot-separated span name, crate prefix first
    /// (e.g. `"core.decide.search"`).
    pub name: &'static str,
    /// Small dense logical thread id (per OS thread).
    pub tid: u64,
    /// Start, microseconds since the telemetry epoch.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
}

#[derive(Debug)]
struct SpanBuffer {
    ring: VecDeque<CompletedSpan>,
    capacity: usize,
    dropped: u64,
}

impl SpanBuffer {
    fn push(&mut self, span: CompletedSpan) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(span);
    }
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    registry: Registry,
    spans: Mutex<SpanBuffer>,
    flight: Mutex<FlightRecorder>,
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry").finish_non_exhaustive()
    }
}

// Small dense per-OS-thread ids for trace rendering. Global (not per
// handle): ids only need to distinguish threads, not handles.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static LOGICAL_TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn logical_tid() -> u64 {
    LOGICAL_TID.with(|t| *t)
}

/// Handle to the telemetry pipeline. `Clone` is an `Arc` bump; the
/// [`Default`]/[`Telemetry::noop`] form makes every operation a cheap
/// early return, which is what sims embed so replay stays free.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl Telemetry {
    /// The disabled handle: all operations are no-ops.
    pub fn noop() -> Self {
        Self::default()
    }

    /// A recording handle with default buffer capacities.
    pub fn recording() -> Self {
        Self::recording_with_capacity(DEFAULT_FLIGHT_CAPACITY, DEFAULT_SPAN_CAPACITY)
    }

    /// A recording handle retaining at most `flight_capacity` events
    /// and `span_capacity` completed spans.
    pub fn recording_with_capacity(flight_capacity: usize, span_capacity: usize) -> Self {
        Self {
            inner: Some(Arc::new(Inner {
                epoch: Instant::now(),
                registry: Registry::new(),
                spans: Mutex::new(SpanBuffer {
                    ring: VecDeque::with_capacity(span_capacity.min(4096)),
                    capacity: span_capacity.max(1),
                    dropped: 0,
                }),
                flight: Mutex::new(FlightRecorder::new(flight_capacity)),
            })),
        }
    }

    /// Whether this handle records anything.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }

    /// Adds `by` to counter `name`.
    pub fn incr(&self, name: &'static str, by: u64) {
        if let Some(inner) = &self.inner {
            inner.registry.incr(name, by);
        }
    }

    /// Sets gauge `name` to `value`.
    pub fn gauge(&self, name: &'static str, value: f64) {
        if let Some(inner) = &self.inner {
            inner.registry.gauge(name, value);
        }
    }

    /// Appends a structured event to the flight recorder. Callers on
    /// hot paths should gate `format!`-built details behind
    /// [`Telemetry::is_recording`]; the events this records (fleet
    /// events, rejected rebalance proposals, drain transitions) are
    /// rare by construction.
    pub fn event(&self, kind: &'static str, detail: String) {
        if let Some(inner) = &self.inner {
            let at_us = inner.epoch.elapsed().as_micros() as u64;
            let mut flight = inner.flight.lock().unwrap_or_else(|e| e.into_inner());
            flight.push(FlightEvent {
                at_us,
                kind,
                detail,
            });
        }
    }

    /// Opens a scoped span; the returned RAII guard records a
    /// [`CompletedSpan`] (and a duration sample into the
    /// `span.<name>` histogram) when dropped. On a no-op handle this
    /// is two branch instructions.
    pub fn span(&self, name: &'static str) -> Span {
        Span {
            ctx: self
                .inner
                .as_ref()
                .map(|inner| (Arc::clone(inner), name, Instant::now())),
        }
    }

    /// Counter snapshot, name-sorted.
    pub fn counters(&self) -> Vec<(&'static str, u64)> {
        self.inner
            .as_ref()
            .map(|i| i.registry.counters())
            .unwrap_or_default()
    }

    /// Gauge snapshot, name-sorted.
    pub fn gauges(&self) -> Vec<(&'static str, f64)> {
        self.inner
            .as_ref()
            .map(|i| i.registry.gauges())
            .unwrap_or_default()
    }

    /// Histogram snapshots, name-sorted.
    pub fn histograms(&self) -> Vec<(&'static str, LogHistogram)> {
        self.inner
            .as_ref()
            .map(|i| i.registry.histograms())
            .unwrap_or_default()
    }

    /// One histogram's snapshot, if it exists.
    pub fn histogram(&self, name: &str) -> Option<LogHistogram> {
        self.inner.as_ref().and_then(|i| i.registry.histogram(name))
    }

    /// One counter's current value (0 when absent or no-op).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.inner
            .as_ref()
            .map(|i| i.registry.counter_value(name))
            .unwrap_or(0)
    }

    /// Completed spans currently retained, oldest first.
    pub fn spans(&self) -> Vec<CompletedSpan> {
        match &self.inner {
            Some(inner) => {
                let buf = inner.spans.lock().unwrap_or_else(|e| e.into_inner());
                buf.ring.iter().cloned().collect()
            }
            None => Vec::new(),
        }
    }

    /// Flight-recorder events currently retained, oldest first.
    pub fn flight_events(&self) -> Vec<FlightEvent> {
        match &self.inner {
            Some(inner) => {
                let flight = inner.flight.lock().unwrap_or_else(|e| e.into_inner());
                flight.events().cloned().collect()
            }
            None => Vec::new(),
        }
    }

    /// `(spans_dropped, flight_events_dropped)` to capacity eviction.
    pub fn dropped(&self) -> (u64, u64) {
        match &self.inner {
            Some(inner) => {
                let spans = inner.spans.lock().unwrap_or_else(|e| e.into_inner());
                let flight = inner.flight.lock().unwrap_or_else(|e| e.into_inner());
                (spans.dropped, flight.dropped())
            }
            None => (0, 0),
        }
    }

    /// Renders retained spans + flight events as Chrome `trace_event`
    /// JSON (see [`export::chrome_trace_json`]). Empty-but-valid JSON
    /// for a no-op handle.
    pub fn trace_json(&self) -> String {
        export::chrome_trace_json(&self.spans(), &self.flight_events())
    }
}

/// RAII span guard returned by [`Telemetry::span`]. Records the span
/// on drop.
#[must_use = "a span measures the scope it is alive for"]
#[derive(Debug)]
pub struct Span {
    ctx: Option<(Arc<Inner>, &'static str, Instant)>,
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((inner, name, started)) = self.ctx.take() {
            let dur_us = started.elapsed().as_micros() as u64;
            let end_us = inner.epoch.elapsed().as_micros() as u64;
            let span = CompletedSpan {
                name,
                tid: logical_tid(),
                start_us: end_us.saturating_sub(dur_us),
                dur_us,
            };
            inner.registry.observe(name, dur_us as f64 / 1_000.0);
            let mut buf = inner.spans.lock().unwrap_or_else(|e| e.into_inner());
            buf.push(span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noop_handle_is_inert() {
        let t = Telemetry::noop();
        t.incr("c", 1);
        t.event("e", "detail".into());
        drop(t.span("s"));
        assert!(!t.is_recording());
        assert!(t.counters().is_empty());
        assert!(t.spans().is_empty());
        assert_eq!(
            t.trace_json(),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}"
        );
    }

    #[test]
    fn spans_record_and_feed_histograms() {
        let t = Telemetry::recording();
        {
            let _s = t.span("core.decide.search");
        }
        {
            let _s = t.span("serve.tick.flush");
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert!(t.histogram("core.decide.search").is_some());
        let json = t.trace_json();
        assert!(json.contains("\"cat\":\"core\""));
        assert!(json.contains("\"cat\":\"serve\""));
    }

    #[test]
    fn counters_and_events_round_trip() {
        let t = Telemetry::recording_with_capacity(2, 8);
        t.incr("orchestrator.degrades", 1);
        t.incr("orchestrator.degrades", 2);
        assert_eq!(t.counter_value("orchestrator.degrades"), 3);
        for i in 0..3 {
            t.event("chaos.degrade", format!("board {i}"));
        }
        assert_eq!(t.flight_events().len(), 2, "flight ring bounded");
        assert_eq!(t.dropped().1, 1);
    }
}
