//! The serving engine: the one tick loop of the stack.
//!
//! Every driver — [`crate::ServingSim`] replaying an arrival trace,
//! `omniboost-orchestrator` replaying a trace merged with a fleet
//! script and rebalance stamps, and the `omniboost-rpc` daemon fed by
//! wall-clocked requests — feeds stamped inputs to a [`ServingEngine`]
//! and reads the same [`TickRecord`]s and [`ServingSummary`] back. The
//! engine owns the fleet, the admission [`Mempool`], the time integrals,
//! the evacuation and conservation bookkeeping; drivers own only where
//! their inputs come from.
//!
//! **The tick.** Inputs sharing a timestamp accumulate into one open
//! tick. Opening it integrates throughput/utilization over the interval
//! since the previous stamp (with the deployment that actually served
//! it) and sweeps TTL-expired pool entries. Inputs then land in it:
//! [`ServingEngine::submit`] / [`ServingEngine::depart`] for jobs, and
//! the structural fleet operations ([`ServingEngine::deactivate`],
//! [`ServingEngine::swap_board`], [`ServingEngine::add_board`],
//! [`ServingEngine::requeue`]) an orchestrator applies before the
//! stamp's job events. A newer stamp, [`ServingEngine::advance_to`],
//! [`ServingEngine::finish`] or an explicit
//! [`ServingEngine::close_tick`] closes it: freed capacity is offered
//! to the pool, dirty boards reschedule, the caller's post-flush stage
//! runs (the orchestrator's rebalancers; nothing for the other
//! drivers), and the [`TickRecord`] is pushed.
//!
//! Stamps are clamped monotonic — a stale stamp (wall-clocked callers
//! race) joins the current tick — so the engine is a pure function of
//! its stamped inputs, which is what the pinned replay digests and the
//! wire-vs-in-process parity test hold it to.

use crate::fleet::Fleet;
use crate::mempool::{Mempool, MempoolStats, SubmitOutcome};
use crate::scheduler::{DecisionKind, OnlineScheduler};
use crate::sim::{BoardDecision, LatencyStats, ServingConfig, ServingReport, ServingSummary};
use crate::slo::SloAccumulator;
use crate::tenants::TenantAccumulator;
use crate::TickRecord;
use omniboost_hw::{Board, EvalCacheStats, ThroughputModel};
use omniboost_models::{JobEvent, JobSpec};
use omniboost_telemetry::{LogHistogram, Telemetry};
use std::collections::HashSet;

/// Inputs of the in-progress tick (the newest timestamp seen), not yet
/// drained / rescheduled / recorded. Handed to each input by
/// [`ServingEngine::in_tick`], so no input path has to assert that a
/// tick is open.
#[derive(Debug, Default)]
struct OpenTick {
    at_ms: u64,
    events: Vec<JobEvent>,
    placed: Vec<(u64, usize)>,
    queued: Vec<u64>,
    rejected: Vec<u64>,
    expired: Vec<u64>,
    capacity_freed: bool,
}

/// The run's clock and everything integrated over it. Cloned by
/// [`ServingEngine::snapshot`] so a mid-run (or end-of-run) summary
/// integrates out to its stamp without disturbing the run.
#[derive(Debug, Clone, Default)]
struct Accumulators {
    last_t: u64,
    tps_integral: f64,
    busy_ms: Vec<u64>,
    tenant_acc: TenantAccumulator,
    slo_acc: SloAccumulator,
}

impl Accumulators {
    /// Integrates the interval `[last_t, t)` under the still-current
    /// deployment. `busy_ms` grows with the fleet (joined boards).
    fn advance_to<M: ThroughputModel>(&mut self, fleet: &Fleet<M>, t: u64) {
        self.busy_ms.resize(fleet.len(), 0);
        let dt = t.saturating_sub(self.last_t);
        if dt > 0 {
            self.tps_integral += fleet.aggregate_throughput() * dt as f64;
            self.tenant_acc.integrate(fleet.slots(), dt);
            self.slo_acc.integrate(fleet.slots(), dt);
            for (busy, slot) in self.busy_ms.iter_mut().zip(fleet.slots()) {
                if !slot.jobs.is_empty() {
                    *busy += dt;
                }
            }
        }
        self.last_t = t;
    }
}

/// Per-run state (reset by [`ServingEngine::begin_run`]).
#[derive(Debug, Default)]
struct RunState {
    ticks: Vec<TickRecord>,
    open: Option<OpenTick>,
    acc: Accumulators,
    peak_queue: usize,
    arrivals: usize,
    departures: usize,
    placements: usize,
    /// Running totals over every flushed decision, so summaries never
    /// re-walk the tick records (status cost must not grow with
    /// uptime).
    decisions: usize,
    migrated_layers: usize,
    /// Conservation audit: ids admitted (placed or queued) and neither
    /// departed nor TTL-expired since. Each must be resident or queued.
    live: HashSet<u64>,
    /// Evacuees waiting in the pool: job id → the stamp their
    /// evacuation latency counts from.
    evac_pending: Vec<(u64, u64)>,
    evac_waits: LogHistogram,
    /// Decision-latency histograms fed per flush: bounded memory for a
    /// long-lived daemon, O(1) per decision. Always on — these are
    /// plain structs, not telemetry-gated.
    cold_hist: LogHistogram,
    warm_hist: LogHistogram,
    memo_hist: LogHistogram,
    delta_hist: LogHistogram,
}

impl RunState {
    fn record_placement(&mut self, open: &mut OpenTick, job: &JobSpec, board: usize, wait_ms: u64) {
        self.placements += 1;
        open.placed.push((job.id, board));
        self.acc.tenant_acc.placement(job, wait_ms);
    }

    /// Drops a departed or expired id from the audit and the evacuee
    /// ledger.
    fn forget(&mut self, job_id: u64) {
        self.live.remove(&job_id);
        self.evac_pending.retain(|(id, _)| *id != job_id);
    }
}

/// The serving core: a fleet, the admission mempool, and the tick state
/// machine. See the module docs for the contract; [`crate::ServingSim`],
/// `omniboost-orchestrator` and `omniboost-rpc` are its drivers.
pub struct ServingEngine<M> {
    fleet: Fleet<M>,
    config: ServingConfig,
    pool: Mempool,
    run: RunState,
    telemetry: Telemetry,
}

impl<M: ThroughputModel> ServingEngine<M> {
    /// Builds a fleet of `boards` with one evaluator per board; every
    /// board's evaluation cache starts empty.
    pub fn new(
        boards: Vec<Board>,
        config: ServingConfig,
        mut make_evaluator: impl FnMut(Board) -> M,
    ) -> Self {
        assert!(!boards.is_empty(), "a fleet needs at least one board");
        let policy = config.policy;
        let online = config.online;
        let fleet = Fleet::new(boards, config.placement, config.use_memo, |board| {
            OnlineScheduler::new(make_evaluator(board.clone()), policy, online)
        });
        let pool = Mempool::new(config.admission);
        Self {
            fleet,
            config,
            pool,
            run: RunState::default(),
            telemetry: Telemetry::noop(),
        }
    }

    /// Attaches a telemetry handle: engine phases (submit, depart,
    /// queue drain, tick flush) emit scoped spans, and the fleet
    /// propagates the handle into every board runtime so decision
    /// phases are covered too. Telemetry is observational only — the
    /// replay digest is bit-for-bit identical whether the handle
    /// records or not.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
        self.fleet.set_telemetry(self.telemetry.clone());
    }

    /// The engine's telemetry handle (no-op unless
    /// [`ServingEngine::set_telemetry`] was called).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The fleet, read-only: structure changes go through the engine's
    /// own operations so they land in the open tick.
    pub fn fleet(&self) -> &Fleet<M> {
        &self.fleet
    }

    /// Number of boards in the fleet.
    pub fn num_boards(&self) -> usize {
        self.fleet.len()
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServingConfig {
        &self.config
    }

    /// Jobs resident per board, in slot order.
    pub fn board_jobs(&self) -> Vec<usize> {
        self.fleet.board_jobs()
    }

    /// Jobs resident across the fleet.
    pub fn resident_jobs(&self) -> usize {
        self.fleet.board_jobs().iter().sum()
    }

    /// Waiting entries in the admission pool.
    pub fn queue_depth(&self) -> usize {
        self.pool.len()
    }

    /// Fleet throughput under the current deployment (sum of per-job
    /// inferences/s).
    pub fn aggregate_throughput(&self) -> f64 {
        self.fleet.aggregate_throughput()
    }

    /// Borrowed snapshots of the run's decision-latency histograms in
    /// export order: cold, warm, memo, single-job delta. The RPC
    /// daemon's `/metrics` renders these as Prometheus histogram
    /// series.
    pub fn decision_histograms(&self) -> [(&'static str, &LogHistogram); 4] {
        [
            ("decision_cold_ms", &self.run.cold_hist),
            ("decision_warm_ms", &self.run.warm_hist),
            ("decision_memo_ms", &self.run.memo_hist),
            ("decision_single_job_delta_ms", &self.run.delta_hist),
        ]
    }

    /// Lifetime intake counters of the admission pool.
    pub fn pool_stats(&self) -> MempoolStats {
        self.pool.stats()
    }

    /// Arrivals submitted this run.
    pub fn arrivals(&self) -> usize {
        self.run.arrivals
    }

    /// Placements this run (immediate, queue-drained and evacuee
    /// re-placements).
    pub fn placements(&self) -> usize {
        self.run.placements
    }

    /// The newest timestamp the engine has seen this run (an open tick
    /// always sits at it).
    pub fn now(&self) -> u64 {
        self.run.acc.last_t
    }

    /// The board currently serving `job_id`, if any.
    pub fn board_of(&self, job_id: u64) -> Option<usize> {
        self.fleet.board_of(job_id)
    }

    /// Starts a fresh run: empty fleet and queue, zeroed accumulators.
    /// Evaluation caches, decision memos and scheduler counters stay
    /// warm — beginning a run on a live engine is a warm reboot.
    pub fn begin_run(&mut self) {
        self.fleet.reset_jobs();
        self.pool.reset();
        self.run = RunState::default();
    }

    /// Takes the tick at `at_ms` out of the run, opening it first:
    /// an older open tick closes, the interval since the previous stamp
    /// integrates, and the TTL sweep runs (before any input — an entry
    /// that outlived its TTL must not grab capacity this tick frees).
    /// Time never runs backwards: a stale stamp re-enters the open
    /// tick.
    fn take_tick(&mut self, at_ms: u64) -> OpenTick {
        let t = at_ms.max(self.now());
        match self.run.open.take() {
            Some(open) if open.at_ms == t => return open,
            Some(older) => self.close(older, |_, _| false),
            None => {}
        }
        self.run.acc.advance_to(&self.fleet, t);
        let expired = self.pool.expire(t);
        for id in &expired {
            self.run.forget(*id);
        }
        OpenTick {
            at_ms: t,
            expired,
            ..OpenTick::default()
        }
    }

    /// Applies one input inside the tick at `at_ms`: the tick is held
    /// by value while `input` runs (it needs the pool and the fleet
    /// mutably next to it) and put back here, in one place.
    fn in_tick<R>(&mut self, at_ms: u64, input: impl FnOnce(&mut Self, &mut OpenTick) -> R) -> R {
        let mut open = self.take_tick(at_ms);
        let result = input(self, &mut open);
        self.run.open = Some(open);
        result
    }

    /// Offers capacity to the waiting pool entries (guaranteed class
    /// first, then the configured order, visiting only entries some
    /// board can actually admit — no head-of-line blocking). Drained
    /// evacuees close their evacuation-latency sample.
    fn drain_pool(&mut self, open: &mut OpenTick) {
        if self.pool.is_empty() {
            return;
        }
        let _span = self.telemetry.span("serve.pool.drain");
        let t = open.at_ms;
        for d in self
            .pool
            .drain(&mut self.fleet, t, &self.run.acc.tenant_acc)
        {
            self.run
                .record_placement(open, &d.job, d.board, t - d.queued_at);
            if let Some(p) = self
                .run
                .evac_pending
                .iter()
                .position(|(id, _)| *id == d.job.id)
            {
                let (_, since) = self.run.evac_pending.remove(p);
                self.run.evac_waits.record((t - since) as f64);
            }
        }
    }

    /// Reschedules every board whose job set changed (one board after
    /// another) and feeds the run's decision counters and histograms.
    fn flush(&mut self) -> Vec<BoardDecision> {
        let span = self.telemetry.span("serve.tick.flush");
        let decisions = self.fleet.flush_dirty();
        drop(span);
        for d in &decisions {
            self.run.decisions += 1;
            self.run.migrated_layers += d.migrated_layers;
            match d.kind {
                DecisionKind::Cold => self.run.cold_hist.record(d.decision_ms),
                DecisionKind::WarmArrival | DecisionKind::WarmDepart => {
                    self.run.warm_hist.record(d.decision_ms)
                }
                DecisionKind::Memo => self.run.memo_hist.record(d.decision_ms),
            }
            if d.single_job_delta {
                self.run.delta_hist.record(d.decision_ms);
            }
        }
        decisions
    }

    /// Closes `open`: drain on freed capacity, flush, the post-flush
    /// stage, record.
    fn close(&mut self, mut open: OpenTick, post_flush: impl FnOnce(&mut Fleet<M>, u64) -> bool) {
        // Capacity only grows when a resident job departs or a board
        // joins/recovers, so the pool is drained exactly then;
        // re-probing every board for every waiting job on arrival-only
        // ticks would be pure waste.
        if open.capacity_freed {
            self.drain_pool(&mut open);
        }
        self.run.peak_queue = self.run.peak_queue.max(self.pool.len());
        let mut decisions = self.flush();
        // The stage prices moves against the fresh deployments; a move
        // it accepts can free admission headroom on the donor, so
        // waiting jobs get it now rather than at the next departure.
        if post_flush(&mut self.fleet, open.at_ms) && !self.pool.is_empty() {
            self.drain_pool(&mut open);
            decisions.extend(self.flush());
        }
        if !open.expired.is_empty() && self.telemetry.is_recording() {
            self.telemetry
                .incr("serve.pool.expired", open.expired.len() as u64);
            self.telemetry.event(
                "serve.pool.expire",
                format!(
                    "{} queued entries TTL-evicted at t={}ms",
                    open.expired.len(),
                    open.at_ms
                ),
            );
        }
        self.run.ticks.push(TickRecord {
            at_ms: open.at_ms,
            events: open.events,
            placements: open.placed,
            queued: open.queued,
            rejected: open.rejected,
            expired: open.expired,
            decisions,
            queue_depth: self.pool.len(),
            board_jobs: self.fleet.board_jobs(),
            aggregate_tps: self.fleet.aggregate_throughput(),
        });
    }

    /// Submits one job at `at_ms` through the admission mempool,
    /// returning what happened to it ([`SubmitOutcome`]). Stamps are
    /// clamped monotonic: a stamp older than the newest seen joins the
    /// current tick.
    pub fn submit(&mut self, job: JobSpec, at_ms: u64) -> SubmitOutcome {
        let _span = self.telemetry.span("serve.submit");
        self.in_tick(at_ms, |engine, open| {
            let run = &mut engine.run;
            run.arrivals += 1;
            run.acc.tenant_acc.arrival(&job);
            run.acc.slo_acc.arrival(&job);
            let outcome = engine.pool.submit(&mut engine.fleet, job, open.at_ms);
            open.events.push(JobEvent::Arrive(job));
            // Rejected jobs never enter the system, so they stay out of
            // the conservation audit's live set (accounted, not lost).
            match outcome {
                SubmitOutcome::Placed(board) => {
                    run.live.insert(job.id);
                    run.record_placement(open, &job, board, 0);
                }
                SubmitOutcome::Queued => {
                    run.live.insert(job.id);
                    open.queued.push(job.id);
                }
                SubmitOutcome::Rejected(_) => open.rejected.push(job.id),
            }
            outcome
        })
    }

    /// Departs the job with `job_id` at `at_ms` (clamped monotonic).
    /// Returns whether the job was known — waiting in the pool or
    /// resident on a board. Unknown ids are recorded as events (the
    /// trace-replay contract) but change nothing.
    pub fn depart(&mut self, job_id: u64, at_ms: u64) -> bool {
        let _span = self.telemetry.span("serve.depart");
        self.in_tick(at_ms, |engine, open| {
            engine.run.departures += 1;
            open.events.push(JobEvent::Depart { job_id });
            engine.run.forget(job_id);
            // A job may depart while still queued — an O(log n)
            // id-index removal, not a queue walk.
            if engine.pool.depart(job_id) {
                true
            } else if let Some(board) = engine.fleet.board_of(job_id) {
                engine.fleet.remove_job(board, job_id);
                open.capacity_freed = true;
                true
            } else {
                false
            }
        })
    }

    /// Takes board `board` out of rotation at `at_ms` (failed or
    /// drained) and returns its residents in arrival order; the caller
    /// hands them back through [`ServingEngine::requeue`] in whatever
    /// order its policy picks.
    pub fn deactivate(&mut self, board: usize, at_ms: u64) -> Vec<JobSpec> {
        self.in_tick(at_ms, |engine, _| engine.fleet.deactivate(board))
    }

    /// Swaps board `board`'s hardware in place at `at_ms`
    /// ([`Fleet::swap_board`]) and returns the residents the new
    /// profile no longer admits, for [`ServingEngine::requeue`], next
    /// to the scheduler the swap tore down.
    pub fn swap_board(
        &mut self,
        board: usize,
        hardware: Board,
        scheduler: OnlineScheduler<M>,
        at_ms: u64,
    ) -> (Vec<JobSpec>, OnlineScheduler<M>) {
        self.in_tick(at_ms, |engine, _| {
            engine.fleet.swap_board(board, hardware, scheduler)
        })
    }

    /// Joins a board at `at_ms` and returns its slot index. Fresh
    /// capacity: the tick's close drains the pool onto it.
    pub fn add_board(
        &mut self,
        hardware: Board,
        scheduler: OnlineScheduler<M>,
        at_ms: u64,
    ) -> usize {
        self.mark_capacity_freed(at_ms);
        self.fleet.add_board(hardware, scheduler)
    }

    /// Records that capacity grew at `at_ms` by means the engine cannot
    /// see (a degraded board recovering its hardware), so the tick's
    /// close drains the pool.
    pub fn mark_capacity_freed(&mut self, at_ms: u64) {
        self.in_tick(at_ms, |_, open| open.capacity_freed = true);
    }

    /// Re-places `evacuees`, in the order given, through the
    /// admission-gated pool path at `at_ms`: each lands on a board now
    /// or queues — an admitted job is never bounced by validation or
    /// quota, and never dropped. Returns how many relocated within the
    /// tick and how many queued; queued evacuees' waits are sampled
    /// into [`ServingSummary::evacuation_wait`] when they drain.
    pub fn requeue(&mut self, evacuees: Vec<JobSpec>, at_ms: u64) -> (usize, usize) {
        self.in_tick(at_ms, |engine, open| {
            let (mut relocated, mut queued) = (0, 0);
            for job in evacuees {
                match engine.pool.requeue(&mut engine.fleet, job, open.at_ms) {
                    SubmitOutcome::Placed(board) => {
                        relocated += 1;
                        engine.run.record_placement(open, &job, board, 0);
                        engine.run.evac_waits.record(0.0);
                    }
                    _ => {
                        queued += 1;
                        open.queued.push(job.id);
                        engine.run.evac_pending.push((job.id, open.at_ms));
                    }
                }
            }
            (relocated, queued)
        })
    }

    /// Closes the tick at `at_ms` now (opening it first when no input
    /// has — a rebalance stamp is a tick with no events) instead of
    /// waiting for a newer stamp, running `post_flush` between the
    /// flush and the record. The stage gets the fleet with every
    /// deployment fresh and returns whether it committed moves that may
    /// have freed admission headroom; if so the pool drains and dirty
    /// boards flush once more before the tick records.
    pub fn close_tick(&mut self, at_ms: u64, post_flush: impl FnOnce(&mut Fleet<M>, u64) -> bool) {
        let open = self.take_tick(at_ms);
        self.close(open, post_flush);
    }

    /// Advances the engine's clock to `at_ms` with no event: closes any
    /// older open tick and integrates the idle interval. A no-op when
    /// `at_ms` is not newer than the engine's clock.
    pub fn advance_to(&mut self, at_ms: u64) {
        if at_ms <= self.now() {
            return;
        }
        if let Some(open) = self.run.open.take() {
            self.close(open, |_, _| false);
        }
        self.run.acc.advance_to(&self.fleet, at_ms);
    }

    /// Ends the run: closes the open tick and returns the full
    /// [`ServingReport`], its summary integrated out to `horizon_ms`.
    /// The engine survives — [`ServingEngine::begin_run`] starts the
    /// next run warm.
    pub fn finish(&mut self, horizon_ms: u64) -> ServingReport {
        if let Some(open) = self.run.open.take() {
            self.close(open, |_, _| false);
        }
        let summary = self.snapshot(horizon_ms);
        let run = std::mem::take(&mut self.run);
        ServingReport {
            ticks: run.ticks,
            summary,
        }
    }

    /// The summary as of `at_ms`, without disturbing the run:
    /// accumulators are cloned and integrated out to the stamp locally
    /// (the tail past the last input), latency stats and decision
    /// counters cover closed ticks. This is what a live `/metrics`
    /// scrape exports and what [`ServingEngine::finish`] reports; it
    /// reads running counters only, so its cost does not grow with the
    /// number of ticks served.
    pub fn snapshot(&self, at_ms: u64) -> ServingSummary {
        let run = &self.run;
        let mut acc = run.acc.clone();
        acc.advance_to(&self.fleet, at_ms.max(self.now()));
        let horizon_ms = acc.last_t.max(1);
        let horizon = horizon_ms as f64;
        let eval_cache = self
            .fleet
            .slots()
            .iter()
            .map(|s| s.scheduler.eval_cache().stats())
            .fold(EvalCacheStats::default(), EvalCacheStats::merge);
        let pool_stats = self.pool.stats();
        ServingSummary {
            events: run.arrivals + run.departures,
            arrivals: run.arrivals,
            departures: run.departures,
            placements: run.placements,
            peak_queue_depth: run.peak_queue.max(self.pool.len()),
            left_in_queue: self.pool.len(),
            rejected: pool_stats.rejected,
            expired: pool_stats.expired,
            pool: pool_stats,
            slo: acc.slo_acc.finish(),
            decisions: run.decisions,
            cold: LatencyStats::from_histogram(&run.cold_hist),
            warm: LatencyStats::from_histogram(&run.warm_hist),
            memo: LatencyStats::from_histogram(&run.memo_hist),
            single_job_delta: LatencyStats::from_histogram(&run.delta_hist),
            placement: LatencyStats::from_histogram(self.pool.place_histogram()),
            migrated_layers: run.migrated_layers,
            mean_aggregate_tps: acc.tps_integral / horizon,
            board_utilization: acc.busy_ms.iter().map(|ms| *ms as f64 / horizon).collect(),
            eval_cache,
            tenants: acc.tenant_acc.finish(horizon_ms, &self.pool.queued_jobs()),
            evacuation_wait: LatencyStats::from_histogram(&run.evac_waits),
            evacuees_still_queued: run.evac_pending.len(),
            lost_jobs: run
                .live
                .len()
                .saturating_sub(self.resident_jobs() + self.pool.len()),
        }
    }
}
