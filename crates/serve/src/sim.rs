//! The trace-replay serving runtime: replay an [`ArrivalTrace`] against
//! a fleet, rescheduling per event and recording serving metrics.
//!
//! The tick loop itself lives in [`crate::ServingEngine`] — the one
//! caller-clocked core that this replayer, the orchestrator's
//! trace + script replayer and the `omniboost-rpc` daemon all drive.
//! This module keeps the report/summary types and the [`ServingSim`]
//! driver that replays a whole trace through the engine.

use crate::engine::ServingEngine;
use crate::fleet::PlacementPolicy;
use crate::mempool::{AdmissionPolicy, MempoolStats};
use crate::scheduler::{DecisionKind, OnlineConfig, ReschedulePolicy};
use crate::slo::SloSummary;
use crate::tenants::TenantSummary;
use omniboost_hw::{Board, EvalCacheStats, Fnv1a, ThroughputModel};
use omniboost_models::{ArrivalTrace, JobEvent};
use omniboost_telemetry::LogHistogram;
use std::hash::Hasher;

/// Full serving-runtime configuration.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Rescheduling policy (the cold/warm A/B axis).
    pub policy: ReschedulePolicy,
    /// Job placement policy across boards.
    pub placement: PlacementPolicy,
    /// Per-board online scheduler knobs.
    pub online: OnlineConfig,
    /// Whether per-board runtimes memoize decisions per workload mix
    /// (the "unchanged mix answers instantly" serving behaviour).
    pub use_memo: bool,
    /// Admission-mempool knobs (validation, quotas, TTL, backoff,
    /// drain order). The default is the historical permissive FIFO.
    pub admission: AdmissionPolicy,
}

impl ServingConfig {
    /// The production configuration: warm starts, decision memo,
    /// least-loaded placement.
    pub fn warm() -> Self {
        Self {
            policy: ReschedulePolicy::WarmStart,
            placement: PlacementPolicy::LeastLoaded,
            online: OnlineConfig::default(),
            use_memo: true,
            admission: AdmissionPolicy::default(),
        }
    }

    /// The baseline: every event pays a full cold search, no memo.
    pub fn cold() -> Self {
        Self {
            policy: ReschedulePolicy::ColdRestart,
            use_memo: false,
            ..Self::warm()
        }
    }
}

/// One board's rescheduling outcome within a tick.
#[derive(Debug, Clone)]
pub struct BoardDecision {
    /// Board index.
    pub board: usize,
    /// How the decision was produced.
    pub kind: DecisionKind,
    /// Wall-clock decision latency in milliseconds (memo hits report
    /// the near-zero lookup time — that is the point).
    pub decision_ms: f64,
    /// Whether this reschedule was triggered by a single-job delta
    /// (exactly one arrival or one departure since the last deployment)
    /// — the event class the warm-vs-cold comparison is defined on.
    pub single_job_delta: bool,
    /// Layers whose device changed vs the previous deployment.
    pub migrated_layers: usize,
    /// Evaluator queries that actually ran (0 for memo hits).
    pub evaluations: usize,
    /// Jobs resident after the decision.
    pub jobs: usize,
    /// Board throughput after the decision (sum of per-job inf/s).
    pub throughput: f64,
}

/// Everything that happened at one trace timestamp.
#[derive(Debug, Clone)]
pub struct TickRecord {
    /// Timestamp (ms since trace start).
    pub at_ms: u64,
    /// Trace events processed at this stamp.
    pub events: Vec<JobEvent>,
    /// `(job id, board)` placements this tick (fresh arrivals and jobs
    /// drained from the queue).
    pub placements: Vec<(u64, usize)>,
    /// Job ids that had to queue (no board could admit them).
    pub queued: Vec<u64>,
    /// Job ids the mempool rejected at submit (validation or tenant
    /// quota — empty under the default permissive policy).
    pub rejected: Vec<u64>,
    /// Queued job ids the mempool TTL-evicted this tick (empty when no
    /// TTL is configured).
    pub expired: Vec<u64>,
    /// Per-board rescheduling outcomes.
    pub decisions: Vec<BoardDecision>,
    /// Waiting jobs after the tick.
    pub queue_depth: usize,
    /// Jobs resident per board after the tick.
    pub board_jobs: Vec<usize>,
    /// Fleet throughput after the tick (sum of per-job inf/s).
    pub aggregate_tps: f64,
}

/// Order statistics over a set of decision latencies.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyStats {
    /// Sample count.
    pub count: usize,
    /// Median milliseconds (0 when empty).
    pub median_ms: f64,
    /// Mean milliseconds (0 when empty).
    pub mean_ms: f64,
    /// 99th-percentile milliseconds (nearest-rank; 0 when empty).
    pub p99_ms: f64,
    /// Maximum milliseconds (0 when empty).
    pub max_ms: f64,
}

impl LatencyStats {
    /// Order statistics off a [`LogHistogram`]: count, mean and max are
    /// exact; median and p99 are nearest-rank values quantized to the
    /// histogram's log buckets (within one bucket width, ≲6%, of the
    /// exact sample statistics) — which is what lets long-lived runs
    /// drop the unbounded per-sample buffers.
    pub fn from_histogram(h: &LogHistogram) -> Self {
        if h.is_empty() {
            return Self::default();
        }
        let n = h.count();
        Self {
            count: n as usize,
            // Rank n/2 + 1 is the upper median: index `len / 2` of the
            // sorted samples.
            median_ms: h.rank_value(n / 2 + 1),
            mean_ms: h.mean(),
            p99_ms: h.rank_value(((n as f64 * 0.99).ceil() as u64).max(1)),
            max_ms: h.max(),
        }
    }
}

/// Aggregates over a whole serving run.
#[derive(Debug, Clone)]
pub struct ServingSummary {
    /// Trace events replayed.
    pub events: usize,
    /// Arrivals / departures among them.
    pub arrivals: usize,
    /// Departure events.
    pub departures: usize,
    /// Successful placements (including drained queue entries).
    pub placements: usize,
    /// Deepest the queue ever got.
    pub peak_queue_depth: usize,
    /// Jobs still waiting when the trace ended.
    pub left_in_queue: usize,
    /// Jobs the mempool rejected at submit (validation + tenant quota).
    pub rejected: usize,
    /// Queued jobs the mempool TTL-evicted before they ever placed.
    pub expired: usize,
    /// The admission pool's full lifetime counters (submits, requeues,
    /// placements, rejects, TTL evictions, queued departures and drain
    /// retries) — surfaced here so exporters like the RPC daemon's
    /// `/metrics` endpoint never reach into `serve::mempool` internals.
    pub pool: MempoolStats,
    /// Per-SLO-class attainment (guaranteed floors, best-effort
    /// starvation).
    pub slo: SloSummary,
    /// Rescheduling decisions made (all boards).
    pub decisions: usize,
    /// Decision latency of cold decisions.
    pub cold: LatencyStats,
    /// Decision latency of warm decisions (arrival + departure kinds).
    pub warm: LatencyStats,
    /// Decision latency of memo-answered decisions.
    pub memo: LatencyStats,
    /// Decision latency over **single-job-delta events only** — the
    /// bench's warm-vs-cold comparison axis.
    pub single_job_delta: LatencyStats,
    /// Wall-clock latency of every placement attempt routed through the
    /// pool (arrivals, queue drains, evacuee re-placements — including
    /// attempts that ended in the queue). Wall-clock, so excluded from
    /// the digests.
    pub placement: LatencyStats,
    /// Total migration churn (layers moved across all decisions).
    pub migrated_layers: usize,
    /// Time-weighted mean fleet throughput over the horizon.
    pub mean_aggregate_tps: f64,
    /// Fraction of the horizon each board served at least one job.
    pub board_utilization: Vec<f64>,
    /// Merged evaluation-cache counters across boards.
    pub eval_cache: EvalCacheStats,
    /// Per-tenant throughput / placement / queue-wait aggregates,
    /// sorted by tenant id — the measurement side of multi-tenant
    /// fairness (see [`crate::tenant_tps_ratio`]).
    pub tenants: Vec<TenantSummary>,
    /// **Evacuation latency** in simulated milliseconds: from an
    /// evacuee's [`ServingEngine::requeue`] to its landing on a new
    /// board (same-tick relocations contribute 0 ms). Evacuees still
    /// queued are not samples; see
    /// [`ServingSummary::evacuees_still_queued`]. Empty unless a driver
    /// evacuates boards.
    pub evacuation_wait: LatencyStats,
    /// Evacuees still waiting in the pool.
    pub evacuees_still_queued: usize,
    /// Jobs admitted and neither departed nor expired that are neither
    /// resident nor queued — the conservation invariant demands
    /// **zero**, and the orchestrator proptests pin it there.
    pub lost_jobs: usize,
}

/// The record of one serving run: per-tick detail plus the summary.
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// Per-timestamp records, in replay order.
    pub ticks: Vec<TickRecord>,
    /// Aggregates.
    pub summary: ServingSummary,
}

impl ServingReport {
    /// Deterministic digest of everything **except wall-clock latency**:
    /// replaying the same seeded trace through the same configuration
    /// must reproduce this bit-for-bit (mappings, migrations, queue
    /// dynamics and measured throughputs are all deterministic; only
    /// decision timing varies run to run).
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::default();
        let f = |h: &mut Fnv1a, v: f64| h.write(&v.to_bits().to_le_bytes());
        for tick in &self.ticks {
            h.write(&tick.at_ms.to_le_bytes());
            for e in &tick.events {
                match e {
                    JobEvent::Arrive(j) => {
                        h.write(&[1]);
                        h.write(&j.id.to_le_bytes());
                        h.write(&(j.model.index() as u64).to_le_bytes());
                        h.write(&j.tenant.to_le_bytes());
                    }
                    JobEvent::Depart { job_id } => {
                        h.write(&[2]);
                        h.write(&job_id.to_le_bytes());
                    }
                }
            }
            for (id, board) in &tick.placements {
                h.write(&id.to_le_bytes());
                h.write(&(*board as u64).to_le_bytes());
            }
            for id in &tick.queued {
                h.write(&id.to_le_bytes());
            }
            // Rejections/expiries hash per id: empty vectors write no
            // bytes, so pre-mempool digests are preserved verbatim.
            for id in &tick.rejected {
                h.write(&[3]);
                h.write(&id.to_le_bytes());
            }
            for id in &tick.expired {
                h.write(&[4]);
                h.write(&id.to_le_bytes());
            }
            for d in &tick.decisions {
                h.write(&(d.board as u64).to_le_bytes());
                h.write(d.kind.label().as_bytes());
                h.write(&[u8::from(d.single_job_delta)]);
                h.write(&(d.migrated_layers as u64).to_le_bytes());
                // `evaluations` is deliberately excluded: it counts the
                // queries the evaluation cache missed, and within one
                // process a cache hit returns the report the evaluator
                // would, so the cache's size moves this count and no
                // decision (`serving_digest_does_not_depend_on_the_eval_cache`).
                h.write(&(d.jobs as u64).to_le_bytes());
                f(&mut h, d.throughput);
            }
            h.write(&(tick.queue_depth as u64).to_le_bytes());
            for j in &tick.board_jobs {
                h.write(&(*j as u64).to_le_bytes());
            }
            f(&mut h, tick.aggregate_tps);
        }
        f(&mut h, self.summary.mean_aggregate_tps);
        h.write(&(self.summary.migrated_layers as u64).to_le_bytes());
        h.finish()
    }
}

/// The trace replayer: a [`ServingEngine`] fed one [`ArrivalTrace`] per
/// run at virtual time.
///
/// ```no_run
/// use omniboost_hw::{AnalyticModel, Board};
/// use omniboost_models::{ArrivalProcess, ArrivalTrace, TraceConfig};
/// use omniboost_serve::{ServingConfig, ServingSim};
///
/// let trace = ArrivalTrace::generate(
///     ArrivalProcess::Poisson { rate_per_s: 0.4 },
///     &TraceConfig::default(),
///     7,
/// );
/// let boards = vec![Board::hikey970(); 4];
/// let mut sim = ServingSim::new(boards, ServingConfig::warm(), AnalyticModel::new);
/// let report = sim.run(&trace, 60_000);
/// println!(
///     "warm median {:.1} ms, {:.1} inf/s served",
///     report.summary.single_job_delta.median_ms,
///     report.summary.mean_aggregate_tps,
/// );
/// ```
pub struct ServingSim<M> {
    engine: ServingEngine<M>,
}

impl<M: ThroughputModel> ServingSim<M> {
    /// Builds a fleet of `boards` with one evaluator per board (the
    /// factory receives each board, so board-calibrated evaluators like
    /// [`omniboost_hw::AnalyticModel`] fit naturally).
    pub fn new(
        boards: Vec<Board>,
        config: ServingConfig,
        make_evaluator: impl FnMut(Board) -> M,
    ) -> Self {
        Self {
            engine: ServingEngine::new(boards, config, make_evaluator),
        }
    }

    /// Number of boards in the fleet.
    pub fn num_boards(&self) -> usize {
        self.engine.num_boards()
    }

    /// Attaches a telemetry handle (spans, counters, flight recorder)
    /// to the underlying engine. The default is the no-op handle;
    /// replay digests are identical either way, because telemetry only
    /// observes decisions.
    pub fn set_telemetry(&mut self, telemetry: omniboost_telemetry::Telemetry) {
        self.engine.set_telemetry(telemetry);
    }

    /// The tick-able engine under the replay driver — the same core the
    /// RPC daemon drives by wall clock.
    pub fn engine(&self) -> &ServingEngine<M> {
        &self.engine
    }

    /// Replays `trace` to completion and reports. `horizon_ms` bounds
    /// the throughput/utilization time integrals (use the trace config's
    /// horizon).
    ///
    /// Each call starts from an empty fleet and queue (a prior run's
    /// resident jobs must not leak into the next trace — job ids restart
    /// per trace); evaluation caches, decision memos and scheduler
    /// counters stay warm across calls, so replaying is a warm reboot.
    pub fn run(&mut self, trace: &ArrivalTrace, horizon_ms: u64) -> ServingReport {
        self.engine.begin_run();
        for event in trace.events() {
            match event.event {
                JobEvent::Arrive(job) => {
                    self.engine.submit(job, event.at_ms);
                }
                JobEvent::Depart { job_id } => {
                    self.engine.depart(job_id, event.at_ms);
                }
            }
        }
        self.engine.finish(horizon_ms)
    }
}
