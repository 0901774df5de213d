//! The fleet layer: N boards, a placement policy, per-board runtimes.
//!
//! PR 5 opened this up as the substrate of the orchestration control
//! plane (`omniboost-orchestrator`): slots carry an **active** flag
//! (failed/drained boards deactivate in place so indices stay stable),
//! boards can join a running fleet, resident jobs can be evacuated or
//! moved between boards, and the per-slot reschedule step
//! ([`BoardSlot::flush`]) is a public method shared by the serving sim
//! and the orchestrator.
//!
//! **Evaluation caches and the fleet.** Each slot's scheduler owns its
//! cache for as long as the scheduler lives. A failed or drained slot
//! keeps both (so the run's cache statistics keep its counters);
//! [`Fleet::swap_board`] is the only operation that tears a scheduler
//! down, and its cache goes with it. No cache outlives its scheduler.

use crate::scheduler::{DecisionKind, OnlineScheduler, ReschedulePolicy, WarmHint};
use crate::sim::BoardDecision;
use omniboost::{PreviousDeployment, Runtime};
use omniboost_hw::{Board, Mapping, ThroughputModel, ThroughputReport, Workload};
use omniboost_models::{zoo, DnnModel, JobSpec};
use omniboost_telemetry::Telemetry;

/// How arriving jobs are assigned to boards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// Cycle through boards in index order, skipping boards that cannot
    /// admit the job — the no-information baseline.
    RoundRobin,
    /// Pick the admissible board with the most estimated throughput
    /// headroom: the lowest [`Board::load_score`] once the job is added
    /// (aggregate model FLOPs normalized by the board's peak compute, so
    /// heterogeneous boards compare fairly). Ties break on the lowest
    /// index, keeping placement deterministic.
    LeastLoaded,
    /// [`PlacementPolicy::LeastLoaded`] with a tenant-fairness reserve:
    /// the emptiest admissible board is **reserved for tenants running
    /// below their fair share** of attained throughput. A tenant already
    /// above its fair share (total attained inferences/s divided by the
    /// number of tenants with resident jobs, plus a small tolerance
    /// band) places on the least-loaded board *excluding* the reserved
    /// one, so minority tenants keep finding premium headroom while the
    /// majority's placement quality degrades only marginally. Tenants
    /// at/below fair share — including tenants with nothing resident —
    /// place exactly like least-loaded.
    FairShare,
}

/// Attained-throughput tolerance above the exact fair share before a
/// tenant counts as over-served (keeps the reserve from flapping on
/// measurement noise around the boundary).
const FAIR_SHARE_TOLERANCE: f64 = 1.05;

impl std::fmt::Display for PlacementPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlacementPolicy::RoundRobin => f.write_str("round-robin"),
            PlacementPolicy::LeastLoaded => f.write_str("least-loaded"),
            PlacementPolicy::FairShare => f.write_str("fair-share"),
        }
    }
}

/// One board of the fleet: its runtime (simulator + decision memo), its
/// online scheduler, the jobs currently resident, and the last
/// deployment (jobs + mapping + measured report) for warm starts and
/// migration accounting.
pub struct BoardSlot<M> {
    /// Stable slot index (never reused, even after a board fails).
    pub index: usize,
    /// The hardware profile this slot runs.
    pub board: Board,
    /// Decide → deploy → measure driver (owns the decision memo).
    pub runtime: Runtime,
    /// The slot's online scheduler.
    pub scheduler: OnlineScheduler<M>,
    /// Whether the board is in rotation. Failed/drained boards flip to
    /// `false` and stop receiving placements; the slot (index, caches)
    /// stays so a later join never aliases a dead board's identity.
    pub active: bool,
    /// Jobs currently assigned (arrival order preserved; departures
    /// remove in place, so surviving jobs keep their relative order —
    /// the invariant warm hints rely on).
    pub jobs: Vec<JobSpec>,
    /// Built models, parallel to `jobs`.
    pub models: Vec<DnnModel>,
    /// Jobs of the last deployment, pairing `mapping`'s rows.
    pub deployed_jobs: Vec<JobSpec>,
    /// Mapping currently deployed (None while the board is idle).
    pub mapping: Option<Mapping>,
    /// Measured throughput of the current deployment.
    pub report: Option<ThroughputReport>,
    /// Whether jobs changed since the last deployment.
    pub dirty: bool,
    /// Running totals over resident jobs, maintained on every add and
    /// remove so placement can probe admission and load without
    /// materializing hypothetical workloads (or cloning models).
    resident_flops: u64,
    resident_weight_bytes: u64,
}

impl<M> BoardSlot<M> {
    /// The board's current workload.
    pub fn workload(&self) -> Workload {
        Workload::new(self.models.clone())
    }

    /// Total inferences/s the board currently serves (sum over resident
    /// jobs; 0 while idle).
    pub fn throughput(&self) -> f64 {
        self.report.as_ref().map_or(0.0, |r| r.per_dnn.iter().sum())
    }

    /// Aggregate FLOPs of one inference of every resident job.
    pub fn resident_flops(&self) -> u64 {
        self.resident_flops
    }

    /// Aggregate weight bytes of every resident job's model — the
    /// memory half of the admission check, exposed so planners can
    /// project admission without materializing workloads.
    pub fn resident_weight_bytes(&self) -> u64 {
        self.resident_weight_bytes
    }

    /// The slot's load score: seconds of its own peak compute one
    /// inference of every resident job costs (the placement metric).
    pub fn load_score(&self) -> f64 {
        self.board.load_score_flops(self.resident_flops)
    }

    /// Whether the board admits its residents plus one extra `model`.
    pub fn admits(&self, model: &DnnModel) -> bool {
        self.admits_weight(model.total_weight_bytes())
    }

    /// Whether the board admits its residents plus one extra job of
    /// `job_weight` bytes.
    fn admits_weight(&self, job_weight: u64) -> bool {
        self.board
            .admit_totals(self.jobs.len() + 1, self.resident_weight_bytes + job_weight)
            .is_ok()
    }

    /// Appends a job (the caller picked this slot; admission is checked
    /// by every placement/rebalance path before calling).
    pub fn push_job(&mut self, job: JobSpec, model: DnnModel) {
        self.resident_flops += model.total_flops();
        self.resident_weight_bytes += model.total_weight_bytes();
        self.jobs.push(job);
        self.models.push(model);
        self.dirty = true;
    }

    /// Removes the job with `job_id`, keeping both vectors aligned.
    /// Returns whether it was resident.
    pub fn remove_job(&mut self, job_id: u64) -> bool {
        self.take_job(job_id).is_some()
    }

    /// Removes and returns the job with `job_id` and its built model —
    /// the donor half of a between-board move.
    pub fn take_job(&mut self, job_id: u64) -> Option<(JobSpec, DnnModel)> {
        let i = self.jobs.iter().position(|j| j.id == job_id)?;
        let job = self.jobs.remove(i);
        let model = self.models.remove(i);
        self.resident_flops -= model.total_flops();
        self.resident_weight_bytes -= model.total_weight_bytes();
        self.dirty = true;
        Some((job, model))
    }

    /// Clears every resident job and the deployment, returning the jobs
    /// in arrival order — the evacuation half of a board failure or
    /// drain. The caller re-places them (or queues what no longer fits);
    /// conservation is on the caller, and proptested at the orchestrator
    /// level.
    pub fn evacuate(&mut self) -> Vec<JobSpec> {
        let jobs = std::mem::take(&mut self.jobs);
        self.models.clear();
        self.deployed_jobs.clear();
        self.mapping = None;
        self.report = None;
        self.dirty = false;
        self.resident_flops = 0;
        self.resident_weight_bytes = 0;
        jobs
    }

    /// Installs a deployment decided *outside* the flush path — the
    /// commit half of an accepted rebalance move, whose mapping and
    /// measured report came from the speculative scoring pass
    /// ([`omniboost::Runtime::run_speculative`]). Clears the dirty flag:
    /// the installed deployment covers the current job set.
    pub fn install_deployment(&mut self, mapping: Mapping, report: ThroughputReport) {
        self.deployed_jobs = self.jobs.clone();
        self.mapping = Some(mapping);
        self.report = Some(report);
        self.dirty = false;
    }
}

impl<M: ThroughputModel> BoardSlot<M> {
    /// Reschedules the slot if its job set changed since the last
    /// deployment: builds the warm hint and migration pairing from the
    /// previous deployment, runs the decision through the runtime (memo
    /// first), and updates the deployment state. `None` when the slot
    /// was clean (or is now idle).
    pub fn flush(&mut self) -> Option<BoardDecision> {
        if !self.dirty {
            return None;
        }
        self.dirty = false;
        if self.jobs.is_empty() {
            // Idle board: nothing deployed, nothing to decide.
            self.deployed_jobs.clear();
            self.mapping = None;
            self.report = None;
            return None;
        }
        let workload = self.workload();
        // Arm the jobs' SLO floors so the mapping search will not trade
        // a guaranteed job's floor away for aggregate throughput. An
        // all-floorless vector is dropped scheduler-side, keeping
        // pre-SLO workloads' decisions (and replay digests) bit-for-bit.
        self.scheduler.set_floors(
            self.jobs
                .iter()
                .map(|job| job.slo.min_tps().unwrap_or(0.0))
                .collect(),
        );
        // Pair each current job with its row in the previous deployment.
        let pairing: Vec<Option<usize>> = self
            .jobs
            .iter()
            .map(|job| self.deployed_jobs.iter().position(|p| p.id == job.id))
            .collect();
        let carried = pairing.iter().filter(|p| p.is_some()).count();
        // Single-job delta: exactly one departure (all current jobs
        // carried, one previous row dropped) or exactly one arrival (all
        // but the appended last job carried). Warm starts are defined on
        // exactly this event class; anything wider falls back to a cold
        // search.
        let one_departure = carried == self.jobs.len() && self.deployed_jobs.len() == carried + 1;
        let one_arrival = carried + 1 == self.jobs.len()
            && pairing.last() == Some(&None)
            && self.deployed_jobs.len() == carried;
        let single_job_delta = self.mapping.is_some() && (one_departure || one_arrival);
        // Warm hint: the carried device paths from the previous mapping,
        // reordered to the new workload's prefix.
        if let Some(prev) = &self.mapping {
            if single_job_delta {
                let decided = if one_departure {
                    self.jobs.len()
                } else {
                    self.jobs.len() - 1
                };
                let rows: Vec<Vec<_>> = pairing[..decided]
                    .iter()
                    .map(|p| prev.assignments()[p.expect("carried row")].clone())
                    .collect();
                // On arrivals, flag the worst-placed carried job — the
                // one attaining the smallest share of its compute demand
                // under the last measured deployment — for release into
                // the warm search space next to the arriving DNN.
                // (With fewer than two carried jobs the release root
                // degenerates into the global challenger already raced.)
                // Candidates rank **SLO-class first**: a guaranteed job
                // whose measured rate has fallen below its floor is the
                // most urgent release (its placement is already broken),
                // then best-effort jobs, and only last a guaranteed job
                // currently honoring its floor — releasing a satisfied
                // floor risks trading it away for aggregate throughput.
                // Within a class, "worst-placed" = the lowest attained
                // compute rate (measured inf/s × the model's
                // per-inference FLOPs). This is deliberately *absolute*,
                // which skews toward small models — they convert board
                // capacity into FLOPs less efficiently even when
                // perfectly placed — but it benchmarked ahead of the
                // self-normalized alternative (current tps over the
                // job's own peak on this board), which lost the serving
                // bench's ≥99%-of-cold throughput bar on one cell; see
                // the ROADMAP follow-up. All-best-effort slots rank
                // identically to the historical rule.
                let release = if one_arrival && decided >= 2 {
                    self.report.as_ref().and_then(|report| {
                        (0..decided)
                            .map(|i| {
                                let prev_row = pairing[i].expect("carried row");
                                let measured = report.per_dnn[prev_row];
                                let class = match self.jobs[i].slo.min_tps() {
                                    Some(floor) if measured < floor => 0u8,
                                    None => 1,
                                    Some(_) => 2,
                                };
                                let attained = measured * self.models[i].total_flops() as f64;
                                (i, class, attained)
                            })
                            .min_by(|a, b| {
                                a.1.cmp(&b.1).then(a.2.total_cmp(&b.2)).then(a.0.cmp(&b.0))
                            })
                            .map(|(i, _, _)| i)
                    })
                } else {
                    None
                };
                self.scheduler.set_warm_hint(WarmHint {
                    carried: Mapping::new(rows),
                    decided,
                    release,
                });
            }
        }
        let previous = self.mapping.clone();
        let context = previous.as_ref().map(|mapping| PreviousDeployment {
            mapping,
            pairing: &pairing,
        });
        // When the scheduler's periodic cold refresh is due, bypass the
        // decision memo and overwrite its entry — a memoized mix must
        // not shield drift from the refresh. Floored workloads go
        // through the memo like any other mix: the scheduler's
        // `memo_salt` folds the armed floor vector into the memo key,
        // so a hit can only replay a mapping decided under the exact
        // same floors — a floorless mapping can never be served to a
        // floored mix (or vice versa).
        let outcome = if self.scheduler.refresh_due() {
            self.runtime
                .run_refreshed(&mut self.scheduler, &workload, context)
        } else {
            self.runtime
                .run_rescheduled(&mut self.scheduler, &workload, context)
        }
        .expect("placement guarantees admission");
        // A memo hit never reaches the scheduler; drop any armed hint so
        // it cannot leak into a later, unrelated decision.
        self.scheduler.clear_hint();
        let kind = if outcome.memo_hit {
            DecisionKind::Memo
        } else {
            self.scheduler.last_kind()
        };
        self.deployed_jobs = self.jobs.clone();
        self.mapping = Some(outcome.mapping);
        let throughput: f64 = outcome.report.per_dnn.iter().sum();
        self.report = Some(outcome.report);
        Some(BoardDecision {
            board: self.index,
            kind,
            decision_ms: outcome.decision_time.as_secs_f64() * 1e3,
            single_job_delta,
            migrated_layers: outcome.migrated_layers.unwrap_or(0),
            evaluations: if outcome.memo_hit {
                0
            } else {
                self.scheduler.last_evaluations()
            },
            jobs: self.jobs.len(),
            throughput,
        })
    }
}

/// A fleet of boards sharing a placement policy.
pub struct Fleet<M> {
    slots: Vec<BoardSlot<M>>,
    policy: PlacementPolicy,
    rr_cursor: usize,
    /// Observability handle, propagated into every slot's runtime (and
    /// into runtimes built later by joins and profile swaps). No-op by
    /// default; never consulted for decisions, so digests are unchanged
    /// whether it records or not.
    telemetry: Telemetry,
}

impl<M: ThroughputModel> Fleet<M> {
    /// Builds the fleet: one runtime and one scheduler per board.
    pub fn new(
        boards: Vec<Board>,
        policy: PlacementPolicy,
        mut make_scheduler: impl FnMut(&Board) -> OnlineScheduler<M>,
    ) -> Self {
        let mut fleet = Self {
            slots: Vec::new(),
            policy,
            rr_cursor: 0,
            telemetry: Telemetry::noop(),
        };
        for board in boards {
            let scheduler = make_scheduler(&board);
            fleet.add_board(board, scheduler);
        }
        fleet
    }

    /// Appends a freshly joined board as a new active slot and returns
    /// its (stable) index.
    pub fn add_board(&mut self, board: Board, scheduler: OnlineScheduler<M>) -> usize {
        let index = self.slots.len();
        let runtime = self.runtime_for(&board, &scheduler);
        self.slots.push(BoardSlot {
            index,
            scheduler,
            board,
            runtime,
            active: true,
            jobs: Vec::new(),
            models: Vec::new(),
            deployed_jobs: Vec::new(),
            mapping: None,
            report: None,
            dirty: false,
            resident_flops: 0,
            resident_weight_bytes: 0,
        });
        index
    }

    /// A fresh runtime for `board`, carrying the fleet's telemetry. Warm
    /// starts memoize decisions per workload mix (an unchanged mix
    /// answers instantly); cold restarts pay a full search every time.
    fn runtime_for(&self, board: &Board, scheduler: &OnlineScheduler<M>) -> Runtime {
        let mut runtime = Runtime::new(board.clone());
        if scheduler.policy() == ReschedulePolicy::WarmStart {
            runtime = runtime.with_memo();
        }
        runtime.set_telemetry(self.telemetry.clone());
        runtime
    }

    /// Attaches a telemetry handle and propagates it into every slot's
    /// runtime; boards joined or profile-swapped later inherit it too.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
        for slot in &mut self.slots {
            slot.runtime.set_telemetry(self.telemetry.clone());
        }
    }

    /// The fleet's telemetry handle (no-op unless
    /// [`Fleet::set_telemetry`] was called).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Number of slots (including deactivated ones — indices are
    /// stable).
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the fleet has no boards.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Number of boards currently in rotation.
    pub fn active_boards(&self) -> usize {
        self.slots.iter().filter(|s| s.active).count()
    }

    /// The slots, in stable index order.
    pub fn slots(&self) -> &[BoardSlot<M>] {
        &self.slots
    }

    /// Mutable slot access — the orchestrator's rebalance/evacuation
    /// surgery. Invariants (job/model alignment, resident totals) are
    /// maintained by [`BoardSlot`]'s methods; mutate through those. The
    /// fleet keeps no state beside its slots, so nothing needs telling.
    pub fn slots_mut(&mut self) -> &mut [BoardSlot<M>] {
        &mut self.slots
    }

    /// Removes `job_id` from `board` (a departure). Returns whether the
    /// job was resident.
    pub fn remove_job(&mut self, board: usize, job_id: u64) -> bool {
        self.slots[board].remove_job(job_id)
    }

    /// Jobs resident per board.
    pub fn board_jobs(&self) -> Vec<usize> {
        self.slots.iter().map(|s| s.jobs.len()).collect()
    }

    /// Aggregate fleet throughput (sum of per-job inf/s across boards).
    pub fn aggregate_throughput(&self) -> f64 {
        self.slots.iter().map(BoardSlot::throughput).sum()
    }

    /// Deactivates a slot (board failed or drained) and returns its
    /// evacuated jobs in arrival order. The caller re-places them.
    pub fn deactivate(&mut self, index: usize) -> Vec<JobSpec> {
        let slot = &mut self.slots[index];
        slot.active = false;
        slot.evacuate()
    }

    /// Swaps slot `index`'s hardware profile **in place** — the
    /// degrade/recover half of the partial-failure chaos engine. The
    /// slot keeps its stable index and as many resident jobs as the new
    /// profile still admits; jobs evicted to satisfy the new admission
    /// limits come back newest-first for the caller to requeue.
    ///
    /// The runtime and scheduler are rebuilt (both are calibrated
    /// against a specific board: the runtime owns the board's oracle
    /// simulator, the scheduler its evaluator), so the decision memo
    /// and the evaluation cache both restart with the incoming
    /// scheduler; the replaced one is dropped with the old profile's
    /// reports. The previous deployment is dropped rather than carried:
    /// it was priced on the old profile, and surviving jobs must
    /// re-price on the new one (the next [`BoardSlot::flush`] runs a
    /// cold decision).
    pub fn swap_board(
        &mut self,
        index: usize,
        board: Board,
        scheduler: OnlineScheduler<M>,
    ) -> Vec<JobSpec> {
        let runtime = self.runtime_for(&board, &scheduler);
        let slot = &mut self.slots[index];
        slot.runtime = runtime;
        slot.board = board;
        slot.scheduler = scheduler;
        slot.deployed_jobs.clear();
        slot.mapping = None;
        slot.report = None;
        let mut evicted = Vec::new();
        while !slot.jobs.is_empty()
            && slot
                .board
                .admit_totals(slot.jobs.len(), slot.resident_weight_bytes)
                .is_err()
        {
            let job = slot.jobs.pop().expect("non-empty job set");
            let model = slot.models.pop().expect("models parallel jobs");
            slot.resident_flops -= model.total_flops();
            slot.resident_weight_bytes -= model.total_weight_bytes();
            evicted.push(job);
        }
        slot.dirty = !slot.jobs.is_empty();
        evicted
    }

    /// Attained inferences/s per tenant under the current deployments,
    /// plus the number of tenants with at least one resident job — the
    /// inputs of the fair-share placement rule.
    fn tenant_attained(&self) -> (Vec<(u32, f64)>, usize) {
        let mut attained: Vec<(u32, f64)> = Vec::new();
        let mut add = |tenant: u32, tps: f64| match attained.iter_mut().find(|(t, _)| *t == tenant)
        {
            Some(slot) => slot.1 += tps,
            None => attained.push((tenant, tps)),
        };
        for slot in &self.slots {
            if let Some(report) = &slot.report {
                for (job, tps) in slot.deployed_jobs.iter().zip(&report.per_dnn) {
                    add(job.tenant, *tps);
                }
            }
        }
        let mut resident: Vec<u32> = self
            .slots
            .iter()
            .flat_map(|s| s.jobs.iter().map(|j| j.tenant))
            .collect();
        resident.sort_unstable();
        resident.dedup();
        (attained, resident.len())
    }

    /// Whether `tenant` currently attains more than its fair share of
    /// the fleet's throughput (see [`PlacementPolicy::FairShare`]).
    fn over_fair_share(&self, tenant: u32) -> bool {
        let (attained, active_tenants) = self.tenant_attained();
        if active_tenants < 2 {
            return false;
        }
        let total: f64 = attained.iter().map(|(_, tps)| tps).sum();
        let fair = total / active_tenants as f64;
        let mine = attained
            .iter()
            .find(|(t, _)| *t == tenant)
            .map_or(0.0, |(_, tps)| *tps);
        mine > fair * FAIR_SHARE_TOLERANCE
    }

    /// Candidate ordering: post-placement load score, then current load
    /// score, then slot index — a total order, so placement is
    /// deterministic even when two different current loads round to the
    /// same post-placement `f64`.
    fn by_load(a: &(f64, u64, usize), b: &(f64, u64, usize)) -> std::cmp::Ordering {
        a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2))
    }

    /// Whether **some** active board could admit one more job of
    /// `job_weight` bytes right now — the mempool's per-model-bucket
    /// drain probe. The predicate is exactly "[`Fleet::place`] would
    /// succeed" (every policy places iff an admissible board exists),
    /// which is what makes bucket-skipping in the mempool
    /// behaviour-preserving.
    pub fn can_admit(&self, job_weight: u64) -> bool {
        self.slots
            .iter()
            .any(|slot| slot.active && slot.admits_weight(job_weight))
    }

    /// Picks a board for `job` under the placement policy and assigns
    /// it, or returns `None` when no active board can admit the job (the
    /// caller queues it). **Admission is a hard gate for every policy**:
    /// a board whose limits (concurrent-DNN cap, memory budget) the job
    /// would break is never chosen, and neither is a deactivated board.
    /// Admission and load are probed off the slots' running totals — no
    /// hypothetical workload (and no model clone) per candidate.
    ///
    /// **Guaranteed-class jobs** ([`omniboost_models::SloClass`])
    /// additionally get a floor check: when the least-loaded admissible
    /// board's *projected* load score stays within `1 / min_tps`
    /// seconds per round — the speculative placement honors the floor —
    /// that board wins regardless of policy, so a round-robin cursor or
    /// a fair-share reserve never pushes a guaranteed job onto a board
    /// that cannot carry it. Best-effort jobs take the historical path
    /// untouched (pre-SLO traces replay bit-for-bit).
    pub fn place(&mut self, job: JobSpec) -> Option<usize> {
        let model = zoo::build(job.model);
        let (job_flops, job_weight) = (model.total_flops(), model.total_weight_bytes());
        let candidates = || {
            self.slots
                .iter()
                .filter(|slot| slot.active && slot.admits_weight(job_weight))
                .map(|slot| {
                    (
                        slot.board.load_score_flops(slot.resident_flops + job_flops),
                        slot.load_score().to_bits(),
                        slot.index,
                    )
                })
        };
        let floor_chosen = job.slo.min_tps().and_then(|min_tps| {
            candidates()
                .min_by(Self::by_load)
                .filter(|best| best.0 <= 1.0 / min_tps)
                .map(|best| best.2)
        });
        let chosen = floor_chosen.or_else(|| match self.policy {
            PlacementPolicy::RoundRobin => {
                let n = self.slots.len();
                (0..n)
                    .map(|k| (self.rr_cursor + k) % n)
                    .find(|&i| self.slots[i].active && self.slots[i].admits_weight(job_weight))
            }
            PlacementPolicy::LeastLoaded => candidates().min_by(Self::by_load).map(|c| c.2),
            PlacementPolicy::FairShare => {
                // Reserve the emptiest admissible board for tenants at
                // or below fair share; an over-served tenant takes the
                // next-best board when one exists.
                let mut ranked: Vec<(f64, u64, usize)> = candidates().collect();
                ranked.sort_by(Self::by_load);
                let skip_reserved = ranked.len() >= 2 && self.over_fair_share(job.tenant);
                ranked.get(usize::from(skip_reserved)).map(|c| c.2)
            }
        });
        let index = chosen?;
        if self.policy == PlacementPolicy::RoundRobin {
            self.rr_cursor = (index + 1) % self.slots.len();
        }
        self.slots[index].push_job(job, model);
        Some(index)
    }

    /// Finds the board hosting `job_id`.
    pub fn board_of(&self, job_id: u64) -> Option<usize> {
        self.slots
            .iter()
            .position(|s| s.jobs.iter().any(|j| j.id == job_id))
    }

    /// Reschedules every dirty board, one after another, and returns the
    /// decisions in slot order.
    pub fn flush_dirty(&mut self) -> Vec<BoardDecision> {
        let dirty = self.slots.iter().filter(|slot| slot.dirty).count();
        let mut decisions = Vec::with_capacity(dirty);
        decisions.extend(self.slots.iter_mut().filter_map(BoardSlot::flush));
        // Exactly sized: every tick record keeps this vector for the rest
        // of the run (an idle dirty board decides nothing).
        decisions.shrink_to_fit();
        decisions
    }

    /// Returns every board to its empty pre-trace state: resident jobs,
    /// deployments and placement cursor cleared. Evaluation caches,
    /// decision memos, scheduler counters and the active flags
    /// deliberately survive — replaying another trace on the same fleet
    /// is a warm reboot, not a new process.
    pub fn reset_jobs(&mut self) {
        for slot in &mut self.slots {
            slot.evacuate();
        }
        self.rr_cursor = 0;
    }
}
