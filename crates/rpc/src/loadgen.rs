//! A seeded closed-loop load generator: the same [`ArrivalTrace`]
//! generators that drive the in-process sims, replayed **over the
//! wire** against a live daemon.
//!
//! Closed-loop means one outstanding request: each trace event is sent
//! and its reply awaited before the next goes out. Stamps travel in
//! **virtual time** (the trace's `at_ms`), which is what makes the
//! daemon-side run digest-identical to replaying the same trace through
//! `ServingSim` — the parity pin in `tests/daemon.rs`. Latency is not
//! measured here; perfbench's daemon workloads own it.

use crate::api::{DepartRequest, SubmitRequest};
use crate::client::{RpcClient, RpcError};
use omniboost_models::{ArrivalTrace, JobEvent, SloClass};

/// What a replay sent and how the daemon answered.
#[derive(Debug, Clone, Default)]
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
}

/// Replays `trace` through `client`, one event per request, in trace
/// order, each stamped with its event's `at_ms`. Admission rejections
/// are counted outcomes, not errors; any other API or transport failure
/// aborts the replay.
///
/// # Errors
///
/// The first non-rejection [`RpcError`].
pub fn replay_trace(
    client: &mut RpcClient,
    trace: &ArrivalTrace,
) -> Result<LoadgenReport, RpcError> {
    let mut report = LoadgenReport::default();
    for event in trace.events() {
        let at_ms = Some(event.at_ms);
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
        report.requests += 1;
    }
    Ok(report)
}
