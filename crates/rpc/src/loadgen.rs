//! A seeded closed-loop load generator: the same [`ArrivalTrace`]
//! generators that drive the in-process sims, replayed **over the
//! wire** against a live daemon.
//!
//! Closed-loop means one outstanding request: each trace event is sent
//! and its reply awaited before the next goes out, so the measured
//! per-request round-trip is pure admission latency (framing + parse +
//! engine tick), not queueing behind the generator itself. Stamps
//! travel in **virtual time** (the trace's `at_ms`) by default, which
//! is what makes the daemon-side run digest-identical to replaying the
//! same trace through `ServingSim` — the parity pin in
//! `tests/daemon.rs`.

use crate::api::{DepartRequest, SubmitRequest};
use crate::client::{RpcClient, RpcError};
use omniboost_models::{ArrivalTrace, JobEvent, SloClass};
use omniboost_serve::{LatencyStats, LogHistogram};
use std::time::Instant;

/// How a replay stamps its requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StampMode {
    /// Carry the trace's virtual `at_ms` stamps — deterministic,
    /// digest-reproducible runs.
    Virtual,
    /// Omit stamps; the daemon stamps its own wall clock — the
    /// realistic-latency mode the bench's sustained-throughput rows
    /// use.
    WallClock,
}

/// What a replay measured.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Requests issued (submits + departs).
    pub requests: usize,
    /// Submit requests among them.
    pub submits: usize,
    /// Depart requests among them.
    pub departs: usize,
    /// Submits answered `placed`.
    pub placed: usize,
    /// Submits answered `queued`.
    pub queued: usize,
    /// Submits refused with `admission-rejected`.
    pub rejected: usize,
    /// Wall time the replay took.
    pub elapsed_ms: f64,
    /// Sustained request rate (`requests / elapsed`).
    pub sustained_rps: f64,
    /// Per-request round-trip latency (admission latency for submits,
    /// wire + tick for departs), in milliseconds.
    pub rtt: LatencyStats,
}

/// Replays `trace` through `client`, one event per request, in trace
/// order. Admission rejections are part of the measured workload, not
/// errors; any other API or transport failure aborts the replay.
///
/// # Errors
///
/// The first non-rejection [`RpcError`].
pub fn replay_trace(
    client: &mut RpcClient,
    trace: &ArrivalTrace,
    mode: StampMode,
) -> Result<LoadgenReport, RpcError> {
    let mut report = LoadgenReport {
        requests: 0,
        submits: 0,
        departs: 0,
        placed: 0,
        queued: 0,
        rejected: 0,
        elapsed_ms: 0.0,
        sustained_rps: 0.0,
        rtt: LatencyStats::default(),
    };
    let mut rtt = LogHistogram::new();
    let started = Instant::now();
    for event in trace.events() {
        let at_ms = match mode {
            StampMode::Virtual => Some(event.at_ms),
            StampMode::WallClock => None,
        };
        let sent = Instant::now();
        match event.event {
            JobEvent::Arrive(job) => {
                report.submits += 1;
                let request = SubmitRequest {
                    model: job.model,
                    tenant: job.tenant,
                    min_tps: match job.slo {
                        SloClass::Guaranteed { min_tps } => Some(min_tps),
                        SloClass::BestEffort => None,
                    },
                    id: Some(job.id),
                    at_ms,
                };
                match client.submit(&request) {
                    Ok(reply) if reply.outcome == "placed" => report.placed += 1,
                    Ok(_) => report.queued += 1,
                    Err(e) if e.is_code("admission-rejected") => report.rejected += 1,
                    Err(e) => return Err(e),
                }
            }
            JobEvent::Depart { job_id } => {
                report.departs += 1;
                client.depart(&DepartRequest { id: job_id, at_ms })?;
            }
        }
        rtt.record(sent.elapsed().as_secs_f64() * 1e3);
        report.requests += 1;
    }
    report.elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
    report.sustained_rps = if report.elapsed_ms > 0.0 {
        report.requests as f64 / (report.elapsed_ms / 1e3)
    } else {
        0.0
    };
    report.rtt = LatencyStats::from_histogram(&rtt);
    Ok(report)
}
