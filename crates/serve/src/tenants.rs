//! Per-tenant serving metrics: throughput, placement and queue-wait
//! aggregation keyed on [`JobSpec::tenant`].
//!
//! The trace machinery has carried a tenant tag since the serving PR,
//! but nothing read it — so multi-tenant fairness was invisible. This
//! module is the measurement half of the fairness story (the policy
//! half is [`crate::PlacementPolicy::FairShare`]): both the serving sim
//! and the orchestrator feed one [`TenantAccumulator`] per run and
//! report a [`TenantSummary`] per tenant.

use crate::fleet::BoardSlot;
use crate::sim::LatencyStats;
use omniboost_hw::ThroughputModel;
use omniboost_models::JobSpec;
use omniboost_telemetry::LogHistogram;

/// One tenant's aggregates over a serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSummary {
    /// The tenant id ([`JobSpec::tenant`]).
    pub tenant: u32,
    /// Jobs this tenant submitted.
    pub arrivals: usize,
    /// Successful placements (first placement per job; queue drains and
    /// evacuation re-placements count once more each time the job lands
    /// on a board).
    pub placements: usize,
    /// Time-weighted mean inferences/s attained across the tenant's
    /// resident jobs over the horizon.
    pub mean_tps: f64,
    /// Queue-wait statistics in **simulated milliseconds** (time from
    /// entering the FIFO queue to landing on a board). Jobs that never
    /// queued contribute a 0 ms sample on placement, so the mean is per
    /// placement, not per unlucky job.
    pub queue_wait: LatencyStats,
    /// Jobs still waiting in the queue when the trace ended.
    pub left_in_queue: usize,
}

/// Streaming accumulator producing [`TenantSummary`] rows. `Clone`
/// supports mid-run metric snapshots (the RPC daemon's `/metrics`
/// scrape finalizes a clone without disturbing the live run).
#[derive(Debug, Default, Clone)]
pub struct TenantAccumulator {
    /// (tenant, arrivals, placements, tps·ms integral, wait histogram,
    /// still queued) — tenant count is tiny (single digits), so linear
    /// probing beats a map.
    rows: Vec<TenantRow>,
}

#[derive(Debug, Clone)]
struct TenantRow {
    tenant: u32,
    arrivals: usize,
    placements: usize,
    tps_integral: f64,
    /// Queue waits as a bounded log-bucketed histogram — a long-lived
    /// daemon must not buffer one sample per placement forever.
    waits: LogHistogram,
    left_in_queue: usize,
}

impl TenantAccumulator {
    /// A fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    fn row(&mut self, tenant: u32) -> &mut TenantRow {
        if let Some(i) = self.rows.iter().position(|r| r.tenant == tenant) {
            return &mut self.rows[i];
        }
        self.rows.push(TenantRow {
            tenant,
            arrivals: 0,
            placements: 0,
            tps_integral: 0.0,
            waits: LogHistogram::new(),
            left_in_queue: 0,
        });
        self.rows.last_mut().expect("just pushed")
    }

    /// Records a job arrival.
    pub fn arrival(&mut self, job: &JobSpec) {
        self.row(job.tenant).arrivals += 1;
    }

    /// Records a placement with the time the job waited in the queue
    /// (0 for jobs placed on arrival).
    pub fn placement(&mut self, job: &JobSpec, wait_ms: u64) {
        let row = self.row(job.tenant);
        row.placements += 1;
        row.waits.record(wait_ms as f64);
    }

    /// Integrates every deployed job's measured throughput over `dt_ms`
    /// of simulated time — call once per inter-event interval with the
    /// deployments that served it.
    pub fn integrate<M: ThroughputModel>(&mut self, slots: &[BoardSlot<M>], dt_ms: u64) {
        if dt_ms == 0 {
            return;
        }
        for slot in slots {
            if let Some(report) = &slot.report {
                for (job, tps) in slot.deployed_jobs.iter().zip(&report.per_dnn) {
                    self.row(job.tenant).tps_integral += tps * dt_ms as f64;
                }
            }
        }
    }

    /// Finalizes: one summary per tenant seen, sorted by tenant id.
    /// `still_queued` are the jobs left in the FIFO queue at the end of
    /// the horizon.
    pub fn finish(mut self, horizon_ms: u64, still_queued: &[JobSpec]) -> Vec<TenantSummary> {
        for job in still_queued {
            self.row(job.tenant).left_in_queue += 1;
        }
        let horizon = horizon_ms.max(1) as f64;
        let mut out: Vec<TenantSummary> = self
            .rows
            .into_iter()
            .map(|r| TenantSummary {
                tenant: r.tenant,
                arrivals: r.arrivals,
                placements: r.placements,
                mean_tps: r.tps_integral / horizon,
                queue_wait: LatencyStats::from_histogram(&r.waits),
                left_in_queue: r.left_in_queue,
            })
            .collect();
        out.sort_by_key(|t| t.tenant);
        out
    }
}

/// The fairness headline number: the ratio between the best- and
/// worst-served tenant's time-weighted mean throughput, over tenants
/// that actually had at least one job placed. `1.0` is perfectly fair;
/// [`f64::INFINITY`] means some placed tenant attained nothing at all;
/// `0.0` (vacuous) when fewer than two tenants had placements.
pub fn tenant_tps_ratio(tenants: &[TenantSummary]) -> f64 {
    let served: Vec<f64> = tenants
        .iter()
        .filter(|t| t.placements > 0)
        .map(|t| t.mean_tps)
        .collect();
    if served.len() < 2 {
        return 0.0;
    }
    let max = served.iter().fold(f64::MIN, |a, b| a.max(*b));
    let min = served.iter().fold(f64::MAX, |a, b| a.min(*b));
    if min <= 0.0 {
        f64::INFINITY
    } else {
        max / min
    }
}
