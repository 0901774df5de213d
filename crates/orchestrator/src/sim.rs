//! The orchestrator's replay driver and fleet-event policy.
//!
//! The tick loop is [`omniboost_serve::ServingEngine`]'s — the same one
//! `ServingSim` and the RPC daemon drive. [`OrchestratorSim::run`] only
//! merges three stamped streams (the arrival trace, the
//! [`FleetScript`] and the periodic rebalance stamps) and feeds them to
//! the engine; what this module owns is policy:
//!
//! * what each [`FleetEvent`] does to the fleet — evacuation on
//!   fail/drain (heaviest model first), the in-place hardware swap of
//!   degrade/recover, and joins. A board that comes up boots with an
//!   empty evaluation cache, as every board does at t = 0;
//! * the post-flush stage of every tick — targeted relief for boards
//!   degraded this tick, then the periodic whole-fleet rebalance pass;
//! * the report: engine tick records joined with the fleet events and
//!   rebalance moves of the same stamp.

use crate::rebalance::{self, balance_slice, receivers, RebalanceConfig, RebalanceMove};
use crate::spec::FleetSpec;
use omniboost_hw::{Board, EvalCacheStats, Fnv1a, ThroughputModel};
use omniboost_models::{zoo, ArrivalTrace, FleetEvent, FleetScript, JobEvent, JobSpec};
use omniboost_serve::{
    BoardDecision, Fleet, LatencyStats, OnlineConfig, OnlineScheduler, PlacementPolicy,
    ReschedulePolicy, ServingConfig, ServingEngine, SloSummary, TenantSummary,
};
use omniboost_telemetry::{LogHistogram, Telemetry};
use std::collections::HashMap;
use std::hash::Hasher;

/// Full orchestrator configuration.
#[derive(Debug, Clone)]
pub struct OrchestratorConfig {
    /// Rescheduling policy of every board's scheduler.
    pub policy: ReschedulePolicy,
    /// Job placement policy across boards.
    pub placement: PlacementPolicy,
    /// Per-board online scheduler knobs.
    pub online: OnlineConfig,
    /// Periodic migration-costed rebalancing (`None` disables — the
    /// PR-4 behaviour where jobs stay pinned to their admission board).
    pub rebalance: Option<RebalanceConfig>,
}

impl OrchestratorConfig {
    /// The production configuration: warm starts (which bring the
    /// per-board decision memo), fair-share placement, rebalancing on.
    pub fn warm() -> Self {
        Self {
            policy: ReschedulePolicy::WarmStart,
            placement: PlacementPolicy::FairShare,
            online: OnlineConfig::default(),
            rebalance: Some(RebalanceConfig::default()),
        }
    }

    /// The engine's share of the configuration.
    fn serving(&self) -> ServingConfig {
        ServingConfig {
            policy: self.policy,
            placement: self.placement,
            online: self.online,
        }
    }
}

/// What one fleet-lifecycle event did to the fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetEventRecord {
    /// The event as scripted.
    pub event: FleetEvent,
    /// Slot index affected (the failed/drained board, or the joined
    /// board's fresh index). `None` when the event was a no-op (dead
    /// target, empty join pool).
    pub slot: Option<usize>,
    /// Jobs evacuated off the board, in re-placement order.
    pub evacuated: Vec<u64>,
    /// How many evacuees found a new board in the same tick.
    pub relocated: usize,
    /// How many evacuees had to queue.
    pub queued: usize,
}

impl FleetEventRecord {
    /// The record of an event that changed nothing (dead target, empty
    /// profile pool, recovery of a board that was never degraded).
    fn noop(event: FleetEvent) -> Self {
        Self {
            event,
            slot: None,
            evacuated: Vec::new(),
            relocated: 0,
            queued: 0,
        }
    }
}

/// Everything that happened at one orchestrated timestamp.
#[derive(Debug, Clone)]
pub struct OrchestratorTick {
    /// Timestamp (ms since trace start).
    pub at_ms: u64,
    /// Fleet-lifecycle events applied this tick (before job events).
    pub fleet_events: Vec<FleetEventRecord>,
    /// Trace job events processed this tick.
    pub events: Vec<JobEvent>,
    /// `(job id, board)` placements this tick (fresh arrivals, queue
    /// drains and evacuation re-placements).
    pub placements: Vec<(u64, usize)>,
    /// Job ids that had to queue.
    pub queued: Vec<u64>,
    /// Job ids the mempool rejected at submit as unservable.
    pub rejected: Vec<u64>,
    /// Per-board rescheduling outcomes.
    pub decisions: Vec<BoardDecision>,
    /// Rebalance moves accepted this tick.
    pub rebalances: Vec<RebalanceMove>,
    /// Waiting jobs after the tick.
    pub queue_depth: usize,
    /// Jobs resident per slot after the tick (deactivated slots stay in
    /// the vector at 0 — indices are stable).
    pub board_jobs: Vec<usize>,
    /// Boards in rotation after the tick.
    pub active_boards: usize,
    /// Fleet throughput after the tick (sum of per-job inf/s).
    pub aggregate_tps: f64,
}

/// Aggregates over a whole orchestrated run.
#[derive(Debug, Clone)]
pub struct OrchestratorSummary {
    /// Trace job events replayed.
    pub events: usize,
    /// Arrivals among them.
    pub arrivals: usize,
    /// Departures among them.
    pub departures: usize,
    /// Successful placements (arrivals, queue drains and evacuation
    /// re-placements all count).
    pub placements: usize,
    /// Board failures applied.
    pub board_failures: usize,
    /// Board drains applied.
    pub board_drains: usize,
    /// Boards joined.
    pub board_joins: usize,
    /// Boards degraded in place (profile swapped to a weaker one).
    pub board_degrades: usize,
    /// Degraded boards restored to their original profile.
    pub board_recovers: usize,
    /// Always 0: every board boots with an empty evaluation cache.
    /// Kept because the benchmark harness still reads it.
    pub warm_boots: usize,
    /// Always 0: no boot preloads evaluation-cache entries. Kept
    /// because the benchmark harness still reads it.
    pub warm_boot_entries: usize,
    /// Jobs evicted off degraded boards because the weakened profile no
    /// longer admitted them (requeued through the evacuation path, so
    /// they also count toward [`OrchestratorSummary::evacuated_jobs`]).
    pub degrade_evictions: usize,
    /// Jobs evacuated off failing/draining/degrading boards.
    pub evacuated_jobs: usize,
    /// Evacuees re-placed within their failure tick.
    pub evacuees_relocated_same_tick: usize,
    /// Evacuees that had to queue.
    pub evacuees_queued: usize,
    /// **Evacuation latency** in simulated milliseconds: time from the
    /// board failure/drain to the evacuee landing on a new board
    /// (same-tick relocations contribute 0 ms). Evacuees still queued
    /// at the horizon are not samples; see
    /// [`OrchestratorSummary::evacuees_still_queued`].
    pub evacuation_wait: LatencyStats,
    /// Evacuees still waiting when the trace ended.
    pub evacuees_still_queued: usize,
    /// Jobs neither resident, nor queued, nor departed at the end —
    /// the conservation invariant demands **zero**, and the orchestrator
    /// proptests pin it there.
    pub lost_jobs: usize,
    /// Rebalance ticks evaluated.
    pub rebalance_ticks: usize,
    /// Moves accepted by the migration-cost gate.
    pub rebalance_moves: usize,
    /// Proposals scored and rejected by the gate.
    pub rebalance_rejected: usize,
    /// Total fleet-level throughput gain the accepted moves priced in.
    pub rebalance_gain_tps: f64,
    /// Layers migrated by accepted moves (including moved jobs' own).
    pub rebalance_migrated_layers: usize,
    /// Rescheduling decisions made (all boards, flush path).
    pub decisions: usize,
    /// Wall-clock decision latency over all flush decisions.
    pub decision: LatencyStats,
    /// Wall-clock latency of every placement *decision* (arrivals,
    /// queue drains, evacuation re-placements — including attempts that
    /// ended in the queue). Wall-clock, so excluded from
    /// [`OrchestratorReport::digest`]; the fleet-scale bench's p99 bar
    /// reads this.
    pub placement: LatencyStats,
    /// Migration churn of the flush path (layers moved).
    pub migrated_layers: usize,
    /// Deepest the queue ever got.
    pub peak_queue_depth: usize,
    /// Jobs still waiting when the trace ended.
    pub left_in_queue: usize,
    /// Jobs the mempool rejected at submit as unservable. Rejected jobs
    /// are accounted — not lost — so they do not count toward
    /// [`OrchestratorSummary::lost_jobs`].
    pub rejected: usize,
    /// Per-SLO-class attainment (guaranteed floors, best-effort
    /// starvation).
    pub slo: SloSummary,
    /// Time-weighted mean fleet throughput over the horizon.
    pub mean_aggregate_tps: f64,
    /// Fraction of the horizon each slot served at least one job.
    pub board_utilization: Vec<f64>,
    /// Per-tenant aggregates, sorted by tenant id.
    pub tenants: Vec<TenantSummary>,
    /// Merged evaluation-cache counters across boards.
    pub eval_cache: EvalCacheStats,
}

/// The record of one orchestrated run: per-tick detail plus aggregates.
#[derive(Debug, Clone)]
pub struct OrchestratorReport {
    /// Per-timestamp records, in replay order.
    pub ticks: Vec<OrchestratorTick>,
    /// Aggregates.
    pub summary: OrchestratorSummary,
}

impl OrchestratorReport {
    /// Deterministic digest of everything **except wall-clock decision
    /// latency**: replaying the same seeded trace + script through the
    /// same configuration must reproduce this bit-for-bit.
    pub fn digest(&self) -> u64 {
        let mut h = Fnv1a::default();
        let f = |h: &mut Fnv1a, v: f64| h.write(&v.to_bits().to_le_bytes());
        for tick in &self.ticks {
            h.write(&tick.at_ms.to_le_bytes());
            for fe in &tick.fleet_events {
                // Tag bytes 1–3 and their operand encoding predate the
                // chaos events and must not change: scripts without
                // degrade/recover events replay their pinned digests
                // verbatim. Degrade hashes a second operand (the
                // brown-out profile index).
                match fe.event {
                    FleetEvent::BoardFail { board } => {
                        h.write(&[1]);
                        h.write(&(board as u64).to_le_bytes());
                    }
                    FleetEvent::BoardDrain { board } => {
                        h.write(&[2]);
                        h.write(&(board as u64).to_le_bytes());
                    }
                    FleetEvent::BoardJoin { profile } => {
                        h.write(&[3]);
                        h.write(&(profile as u64).to_le_bytes());
                    }
                    FleetEvent::BoardDegrade { board, profile } => {
                        h.write(&[4]);
                        h.write(&(board as u64).to_le_bytes());
                        h.write(&(profile as u64).to_le_bytes());
                    }
                    FleetEvent::BoardRecover { board } => {
                        h.write(&[5]);
                        h.write(&(board as u64).to_le_bytes());
                    }
                }
                h.write(&(fe.slot.map_or(u64::MAX, |s| s as u64)).to_le_bytes());
                for id in &fe.evacuated {
                    h.write(&id.to_le_bytes());
                }
                h.write(&(fe.relocated as u64).to_le_bytes());
                h.write(&(fe.queued as u64).to_le_bytes());
            }
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
            // Rejections hash per id: an empty vector writes no bytes,
            // so pre-mempool digests are preserved verbatim.
            for id in &tick.rejected {
                h.write(&[3]);
                h.write(&id.to_le_bytes());
            }
            for d in &tick.decisions {
                h.write(&(d.board as u64).to_le_bytes());
                h.write(d.kind.label().as_bytes());
                h.write(&(d.migrated_layers as u64).to_le_bytes());
                h.write(&(d.jobs as u64).to_le_bytes());
                f(&mut h, d.throughput);
            }
            for mv in &tick.rebalances {
                h.write(&(mv.from as u64).to_le_bytes());
                h.write(&(mv.to as u64).to_le_bytes());
                h.write(&mv.job_id.to_le_bytes());
                h.write(&(mv.migrated_layers as u64).to_le_bytes());
                f(&mut h, mv.gain_tps);
            }
            h.write(&(tick.queue_depth as u64).to_le_bytes());
            for j in &tick.board_jobs {
                h.write(&(*j as u64).to_le_bytes());
            }
            h.write(&(tick.active_boards as u64).to_le_bytes());
            f(&mut h, tick.aggregate_tps);
        }
        f(&mut h, self.summary.mean_aggregate_tps);
        h.write(&(self.summary.lost_jobs as u64).to_le_bytes());
        h.write(&(self.summary.rebalance_moves as u64).to_le_bytes());
        h.finish()
    }
}

/// The orchestration control plane: a fleet built from a [`FleetSpec`],
/// replayed through a [`ServingEngine`] under a trace, a fleet script
/// and periodic rebalancing.
///
/// Each [`OrchestratorSim::run`] rebuilds the engine (and so the fleet)
/// from the spec — lifecycle events mutate fleet structure, so replays
/// always start from the scripted initial fleet, every evaluation cache
/// cold.
pub struct OrchestratorSim<M, F> {
    spec: FleetSpec,
    config: OrchestratorConfig,
    make_evaluator: F,
    /// Observability handle: propagated to the run's engine (and through
    /// it to every board runtime). No-op by default; never consulted by
    /// any scheduling decision, so replay digests are unchanged by it.
    telemetry: Telemetry,
    _marker: std::marker::PhantomData<M>,
}

/// Fleet-event state of one run.
#[derive(Default)]
struct ChaosState {
    /// Degraded slots' pre-brown-out hardware, for recovery. First
    /// degrade of a slot captures the healthy board; stacked degrades
    /// keep it; fail/drain forgets it (that board is gone for good).
    original_boards: HashMap<usize, Board>,
    /// Slots degraded in the tick being assembled — the donors of its
    /// targeted relief pass.
    degraded: Vec<usize>,
}

/// Rebalancing state of one run: its configuration, the periodic
/// passes still to skip after an accepted move set, the next stamp and
/// tallies.
struct Rebalancing {
    config: RebalanceConfig,
    cooldown: u32,
    next_ms: u64,
    ticks: usize,
    rejected: usize,
}

impl Rebalancing {
    fn new(config: &OrchestratorConfig) -> Option<Self> {
        let config = config.rebalance.clone()?;
        Some(Self {
            next_ms: config.period_ms.max(1),
            config,
            cooldown: 0,
            ticks: 0,
            rejected: 0,
        })
    }

    /// The engine's post-flush stage at stamp `t`: accepted moves land
    /// in `moves`; returns whether the periodic pass committed any (the
    /// engine then offers the freed headroom to the pool).
    fn after_flush<M: ThroughputModel>(
        &mut self,
        fleet: &mut Fleet<M>,
        t: u64,
        degraded: &[usize],
        telemetry: &Telemetry,
        moves: &mut Vec<RebalanceMove>,
    ) -> bool {
        // Targeted relief for boards degraded this tick: jobs that
        // stayed resident through the swap re-priced on the weaker
        // profile; a migration happens only when its priced gain clears
        // the same bar the periodic rebalancer enforces
        // (`min_gain_per_layer`), so a mild brown-out degrades in place
        // instead of stampeding.
        if !degraded.is_empty() {
            let _span = telemetry.span("orchestrator.rebalance.relief");
            let config = &self.config;
            for &donor in degraded {
                let slot = &fleet.slots()[donor];
                if !slot.active || slot.jobs.is_empty() {
                    continue;
                }
                let donors = [(donor, slot.load_score())];
                let receivers = receivers(fleet.slots(), config.top_k_boards, &[donor]);
                let out = balance_slice(fleet.slots_mut(), &donors, &receivers, config, t);
                self.rejected += out.rejected;
                telemetry.incr("orchestrator.rebalance_rejected", out.rejected as u64);
                moves.extend(out.moves);
            }
        }
        // Periodic rebalance — priced against the fresh deployments,
        // after the tick's events settled.
        if self.next_ms != t {
            return false;
        }
        self.ticks += 1;
        self.next_ms = t + self.config.period_ms.max(1);
        if self.cooldown > 0 {
            self.cooldown -= 1;
            return false;
        }
        let span = telemetry.span("orchestrator.rebalance");
        let outcome = rebalance::tick(fleet, &self.config, t);
        drop(span);
        self.rejected += outcome.rejected;
        if outcome.rejected > 0 {
            telemetry.incr("orchestrator.rebalance_rejected", outcome.rejected as u64);
            if telemetry.is_recording() {
                telemetry.event(
                    "orchestrator.rebalance_rejected",
                    format!(
                        "t_ms={t} rejected={} accepted={}",
                        outcome.rejected,
                        outcome.moves.len()
                    ),
                );
            }
        }
        let accepted = !outcome.moves.is_empty();
        if accepted {
            self.cooldown = self.config.cooldown_periods;
        }
        moves.extend(outcome.moves);
        accepted
    }
}

/// Whether `board` names a slot still in rotation.
fn alive<M: ThroughputModel>(engine: &ServingEngine<M>, board: usize) -> bool {
    engine.fleet().slots().get(board).is_some_and(|s| s.active)
}

impl<M, F> OrchestratorSim<M, F>
where
    M: ThroughputModel,
    F: FnMut(Board) -> M,
{
    /// Builds the control plane for a fleet spec. The factory receives
    /// each board (so board-calibrated evaluators fit naturally) and is
    /// re-invoked for every joined board.
    pub fn new(spec: FleetSpec, config: OrchestratorConfig, make_evaluator: F) -> Self {
        assert!(
            !spec.initial.is_empty(),
            "an orchestrated fleet needs at least one initial board"
        );
        Self {
            spec,
            config,
            make_evaluator,
            telemetry: Telemetry::noop(),
            _marker: std::marker::PhantomData,
        }
    }

    /// Injects a telemetry handle. Chaos incidents (every applied fleet
    /// event, rejected rebalance proposals) land in its flight
    /// recorder, rebalance/evacuation phases open spans next to the
    /// engine's own, and the chaos counters mirror into its registry.
    /// The next [`OrchestratorSim::run`] propagates the handle to the
    /// engine and every board runtime it builds.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The injected telemetry handle (no-op unless
    /// [`OrchestratorSim::set_telemetry`] was called).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Builds the scheduler of a board coming up, its evaluation cache
    /// empty.
    fn boot(&mut self, board: &Board) -> OnlineScheduler<M> {
        OnlineScheduler::new(
            (self.make_evaluator)(board.clone()),
            self.config.policy,
            self.config.online,
        )
    }

    /// Finishes an applied fleet event: re-places `evacuees` heaviest
    /// model first (per-inference FLOPs, ties on the lower job id — a
    /// light job fits almost anywhere, a VGG-19 may only fit on the
    /// emptiest board) through the engine's admission-gated path, and
    /// records the incident.
    fn settle(
        &self,
        engine: &mut ServingEngine<M>,
        event: FleetEvent,
        slot: usize,
        mut evacuees: Vec<JobSpec>,
        t: u64,
    ) -> FleetEventRecord {
        evacuees.sort_by(|a, b| {
            zoo::total_flops(b.model)
                .cmp(&zoo::total_flops(a.model))
                .then(a.id.cmp(&b.id))
        });
        let evacuated: Vec<u64> = evacuees.iter().map(|j| j.id).collect();
        let (relocated, queued) = engine.requeue(evacuees, t);
        self.telemetry
            .incr("orchestrator.evacuated_jobs", evacuated.len() as u64);
        if self.telemetry.is_recording() {
            let kind = match event {
                FleetEvent::BoardFail { .. } => "orchestrator.board_fail",
                FleetEvent::BoardDrain { .. } => "orchestrator.board_drain",
                FleetEvent::BoardJoin { .. } => "orchestrator.board_join",
                FleetEvent::BoardDegrade { .. } => "orchestrator.board_degrade",
                FleetEvent::BoardRecover { .. } => "orchestrator.board_recover",
            };
            self.telemetry.event(
                kind,
                format!(
                    "t_ms={t} board={slot} evacuated={} relocated={relocated} \
                     queued={queued}",
                    evacuated.len()
                ),
            );
        }
        FleetEventRecord {
            event,
            slot: Some(slot),
            evacuated,
            relocated,
            queued,
        }
    }

    /// Applies one fleet-lifecycle event at stamp `t`, inside the
    /// engine's open tick.
    fn apply(
        &mut self,
        engine: &mut ServingEngine<M>,
        chaos: &mut ChaosState,
        event: FleetEvent,
        t: u64,
    ) -> FleetEventRecord {
        match event {
            FleetEvent::BoardFail { board } | FleetEvent::BoardDrain { board } => {
                if !alive(engine, board) {
                    return FleetEventRecord::noop(event);
                }
                let _span = self.telemetry.span("orchestrator.evacuate");
                // The board is gone for good: forget any pre-degrade
                // original.
                chaos.original_boards.remove(&board);
                let evacuees = engine.deactivate(board, t);
                self.settle(engine, event, board, evacuees, t)
            }
            FleetEvent::BoardDegrade { board, profile } => {
                let pool = &self.spec.degrade_profiles;
                if !alive(engine, board) || pool.is_empty() {
                    return FleetEventRecord::noop(event);
                }
                let hardware = pool[profile % pool.len()].board.clone();
                let _span = self.telemetry.span("orchestrator.chaos.degrade");
                self.telemetry.incr("orchestrator.degrades", 1);
                // First degrade of this slot captures the healthy
                // hardware for a later recovery.
                chaos
                    .original_boards
                    .entry(board)
                    .or_insert_with(|| engine.fleet().slots()[board].board.clone());
                // Swap the weakened board in place: only what it no
                // longer admits evicts.
                let scheduler = self.boot(&hardware);
                let evicted = engine.swap_board(board, hardware, scheduler, t);
                self.telemetry
                    .incr("orchestrator.degrade_evictions", evicted.len() as u64);
                chaos.degraded.push(board);
                self.settle(engine, event, board, evicted, t)
            }
            FleetEvent::BoardRecover { board } => {
                let original = alive(engine, board)
                    .then(|| chaos.original_boards.remove(&board))
                    .flatten();
                let Some(hardware) = original else {
                    return FleetEventRecord::noop(event);
                };
                let _span = self.telemetry.span("orchestrator.chaos.recover");
                self.telemetry.incr("orchestrator.recovers", 1);
                let scheduler = self.boot(&hardware);
                let evicted = engine.swap_board(board, hardware, scheduler, t);
                // Restored capacity: waiting jobs may fit again.
                // (Eviction on recovery only happens when a
                // misconfigured degrade pool is *stronger* than the
                // original board; jobs still conserve.)
                engine.mark_capacity_freed(t);
                self.settle(engine, event, board, evicted, t)
            }
            FleetEvent::BoardJoin { profile } => {
                // Profile indices wrap around the spec's pool: a script
                // generated against a larger pool must still add a
                // board, or every later scripted board index would
                // silently target the wrong slot (the generator tracks
                // joins in its alive set). Only an empty pool makes
                // joins no-ops.
                let pool = &self.spec.join_profiles;
                if pool.is_empty() {
                    return FleetEventRecord::noop(event);
                }
                let hardware = pool[profile % pool.len()].board.clone();
                let scheduler = self.boot(&hardware);
                let slot = engine.add_board(hardware, scheduler, t);
                self.settle(engine, event, slot, Vec::new(), t)
            }
        }
    }

    /// Replays `trace` interleaved with `script` to completion.
    /// `horizon_ms` bounds the throughput/utilization time integrals
    /// and the rebalance stamps.
    pub fn run(
        &mut self,
        trace: &ArrivalTrace,
        script: &FleetScript,
        horizon_ms: u64,
    ) -> OrchestratorReport {
        let boards = self.spec.initial.iter().map(|p| p.board.clone()).collect();
        let mut engine =
            ServingEngine::new(boards, self.config.serving(), &mut self.make_evaluator);
        engine.set_telemetry(self.telemetry.clone());
        let mut chaos = ChaosState::default();
        let mut rebalancing = Rebalancing::new(&self.config);
        // What each tick did beyond its engine record: fleet events,
        // accepted moves, boards in rotation afterwards.
        let mut extras: Vec<(Vec<FleetEventRecord>, Vec<RebalanceMove>, usize)> = Vec::new();

        let mut job_events = trace.events().iter().peekable();
        let mut fleet_events = script.events().iter().peekable();
        loop {
            // The next stamp across the three merged streams.
            let rebalance_due = rebalancing
                .as_ref()
                .map(|r| r.next_ms)
                .filter(|r| *r < horizon_ms);
            let stamps = [
                job_events.peek().map(|e| e.at_ms),
                fleet_events.peek().map(|e| e.at_ms),
                rebalance_due,
            ];
            let Some(t) = stamps.into_iter().flatten().min() else {
                break;
            };
            // Fleet events before job events: a board failing at `t`
            // never receives the arrival stamped `t`.
            let mut records = Vec::new();
            while let Some(e) = fleet_events.next_if(|e| e.at_ms == t) {
                records.push(self.apply(&mut engine, &mut chaos, e.event, t));
            }
            // The trace orders departures before arrivals at equal
            // stamps.
            while let Some(e) = job_events.next_if(|e| e.at_ms == t) {
                match e.event {
                    JobEvent::Arrive(job) => {
                        engine.submit(job, t);
                    }
                    JobEvent::Depart { job_id } => {
                        engine.depart(job_id, t);
                    }
                }
            }
            let mut moves = Vec::new();
            let degraded = std::mem::take(&mut chaos.degraded);
            engine.close_tick(t, |fleet, t| {
                rebalancing.as_mut().is_some_and(|r| {
                    r.after_flush(fleet, t, &degraded, &self.telemetry, &mut moves)
                })
            });
            extras.push((records, moves, engine.fleet().active_boards()));
        }

        let mut decision_hist = LogHistogram::new();
        for (_, hist) in &engine.decision_histograms()[..3] {
            decision_hist.merge(hist);
        }
        let report = engine.finish(horizon_ms);
        debug_assert_eq!(report.ticks.len(), extras.len());
        let ticks = report
            .ticks
            .into_iter()
            .zip(extras)
            .map(
                |(tick, (fleet_events, rebalances, active_boards))| OrchestratorTick {
                    at_ms: tick.at_ms,
                    fleet_events,
                    events: tick.events,
                    placements: tick.placements,
                    queued: tick.queued,
                    rejected: tick.rejected,
                    decisions: tick.decisions,
                    rebalances,
                    queue_depth: tick.queue_depth,
                    board_jobs: tick.board_jobs,
                    active_boards,
                    aggregate_tps: tick.aggregate_tps,
                },
            )
            .collect();
        self.summarize(ticks, report.summary, rebalancing.as_ref(), &decision_hist)
    }

    /// Joins the engine's summary with the run's fleet-event and
    /// rebalance tallies.
    fn summarize(
        &self,
        ticks: Vec<OrchestratorTick>,
        s: omniboost_serve::ServingSummary,
        rebalancing: Option<&Rebalancing>,
        decision_hist: &LogHistogram,
    ) -> OrchestratorReport {
        // Mirror the run's chaos tallies into the registry so a scrape
        // sees them even when every increment-site counter stayed 0.
        self.telemetry
            .incr("orchestrator.lost_jobs", s.lost_jobs as u64);
        self.telemetry.incr("orchestrator.evacuated_jobs", 0);

        let mut summary = OrchestratorSummary {
            events: s.events,
            arrivals: s.arrivals,
            departures: s.departures,
            placements: s.placements,
            board_failures: 0,
            board_drains: 0,
            board_joins: 0,
            board_degrades: 0,
            board_recovers: 0,
            warm_boots: 0,
            warm_boot_entries: 0,
            degrade_evictions: 0,
            evacuated_jobs: 0,
            evacuees_relocated_same_tick: 0,
            evacuees_queued: 0,
            evacuation_wait: s.evacuation_wait,
            evacuees_still_queued: s.evacuees_still_queued,
            lost_jobs: s.lost_jobs,
            rebalance_ticks: rebalancing.map_or(0, |r| r.ticks),
            rebalance_moves: 0,
            rebalance_rejected: rebalancing.map_or(0, |r| r.rejected),
            rebalance_gain_tps: 0.0,
            rebalance_migrated_layers: 0,
            decisions: s.decisions,
            decision: LatencyStats::from_histogram(decision_hist),
            placement: s.placement,
            migrated_layers: s.migrated_layers,
            peak_queue_depth: s.peak_queue_depth,
            left_in_queue: s.left_in_queue,
            rejected: s.rejected,
            slo: s.slo,
            mean_aggregate_tps: s.mean_aggregate_tps,
            board_utilization: s.board_utilization,
            tenants: s.tenants,
            eval_cache: s.eval_cache,
        };
        // Applied events (a no-op's record carries no slot) and accepted
        // moves, tallied off the tick records.
        for tick in &ticks {
            for fe in tick.fleet_events.iter().filter(|fe| fe.slot.is_some()) {
                match fe.event {
                    FleetEvent::BoardFail { .. } => summary.board_failures += 1,
                    FleetEvent::BoardDrain { .. } => summary.board_drains += 1,
                    FleetEvent::BoardJoin { .. } => summary.board_joins += 1,
                    FleetEvent::BoardRecover { .. } => summary.board_recovers += 1,
                    FleetEvent::BoardDegrade { .. } => {
                        summary.board_degrades += 1;
                        summary.degrade_evictions += fe.evacuated.len();
                    }
                }
                summary.evacuated_jobs += fe.evacuated.len();
                summary.evacuees_relocated_same_tick += fe.relocated;
                summary.evacuees_queued += fe.queued;
            }
            for mv in &tick.rebalances {
                summary.rebalance_moves += 1;
                summary.rebalance_gain_tps += mv.gain_tps;
                summary.rebalance_migrated_layers += mv.migrated_layers;
            }
        }
        OrchestratorReport { ticks, summary }
    }
}
