//! The online scheduler: cold search, warm-started rescheduling, and the
//! policy knob between them.

use omniboost_estimator::{BoardScopedCache, EvalCache};
use omniboost_hw::{
    Board, EvalCacheStats, HwError, Mapping, Scheduler, SearchEffort, ThroughputModel, Workload,
};
use omniboost_mcts::{Environment as _, Mcts, SchedState, SchedulingEnv, SearchBudget};

/// How the scheduler reacts to a workload delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReschedulePolicy {
    /// Re-run the full search from scratch on every event — the
    /// one-shot behaviour of the paper's evaluation, replayed per event.
    /// The baseline the serving bench measures warm starts against.
    ColdRestart,
    /// Serve like a production system: unchanged mixes answer from the
    /// runtime's decision memo, single-job deltas seed the search from
    /// the previous mapping's surviving device paths
    /// ([`SchedState::from_partial_mapping`]) under the smaller warm
    /// budget, and everything else falls back to a cold search.
    WarmStart,
}

impl std::fmt::Display for ReschedulePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReschedulePolicy::ColdRestart => f.write_str("cold"),
            ReschedulePolicy::WarmStart => f.write_str("warm"),
        }
    }
}

/// What kind of decision the scheduler (or runtime) produced for an
/// event — the axis serving latency stats are grouped on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecisionKind {
    /// Full-budget search from scratch.
    Cold,
    /// Warm search from a partial root: carried paths frozen, only the
    /// arriving DNN's decisions explored.
    WarmArrival,
    /// Departure: the carried mapping scored as a candidate against a
    /// warm-budget refinement search, best of the two deployed.
    WarmDepart,
    /// Answered from the runtime's decision memo without any search.
    Memo,
}

impl DecisionKind {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            DecisionKind::Cold => "cold",
            DecisionKind::WarmArrival => "warm-arrival",
            DecisionKind::WarmDepart => "warm-depart",
            DecisionKind::Memo => "memo",
        }
    }
}

/// Warm-start context for the next `decide` call: the previous mapping's
/// rows reordered to pair positionally with the new workload's carried
/// prefix. `decided == workload.len()` means a pure departure (the
/// carried mapping is complete); `decided == workload.len() - 1` means
/// the last DNN just arrived.
#[derive(Debug, Clone)]
pub struct WarmHint {
    /// Carried per-DNN device paths, one row per already-decided DNN.
    pub carried: Mapping,
    /// How many leading DNNs of the new workload the rows cover.
    pub decided: usize,
    /// Index (into the carried prefix) of a DNN to **release** back into
    /// the warm search space alongside the arriving one. The serving
    /// runtime points this at the worst-placed carried job — the one
    /// with the lowest attained compute rate (measured inf/s × model
    /// FLOPs) under the current deployment — so a warm arrival can
    /// repair the single most starved path without paying for a cold
    /// search
    /// ([`omniboost_mcts::SchedState::from_frozen_subset`] keeps every
    /// other carried path pinned). `None` keeps the pure prefix freeze.
    pub release: Option<usize>,
}

/// Search budgets and knobs of the online scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OnlineConfig {
    /// Budget of a cold (from-scratch) decision.
    pub cold_budget: SearchBudget,
    /// Budget of a warm decision (partial-root search on arrivals,
    /// refinement search on departures). Smaller by design: the warm
    /// search space is the new DNN's decisions only.
    pub warm_budget: SearchBudget,
    /// Stage cap of the losing rule (the paper: device count).
    pub stage_cap: usize,
    /// Search seed (decisions stay deterministic per workload).
    pub seed: u64,
    /// Cross-decision evaluation cache bound (0 disables).
    pub eval_cache_capacity: usize,
    /// Every `refresh_period`-th decision runs the full cold search even
    /// when a warm hint is armed (0 disables). Warm starts freeze
    /// carried paths, so back-to-back deltas accumulate layout drift a
    /// purely incremental scheduler never repairs; a deterministic
    /// periodic refresh bounds that drift while leaving the median
    /// single-delta decision on the warm fast path.
    pub refresh_period: usize,
}

impl Default for OnlineConfig {
    /// Paper-scale cold budget (500 iterations), a quarter-budget warm
    /// search, cap 3, cache on, cold refresh every 3rd decision.
    fn default() -> Self {
        Self {
            cold_budget: SearchBudget::default(),
            warm_budget: SearchBudget::with_iterations(125),
            stage_cap: 3,
            seed: 0x5E17E,
            eval_cache_capacity: 8192,
            refresh_period: 3,
        }
    }
}

/// A [`Scheduler`] driving the MCTS explorer under an online policy.
///
/// Generic over the evaluator guiding the search (the CNN estimator in
/// production, [`omniboost_hw::AnalyticModel`] or the simulator-oracle
/// in tests and benches); every query flows through a board-scoped
/// cross-decision [`EvalCache`], which across *events* is where most of
/// the warm-path work disappears — recurring mixes revisit mappings the
/// previous decisions already scored.
pub struct OnlineScheduler<M> {
    evaluator: M,
    config: OnlineConfig,
    policy: ReschedulePolicy,
    cache: BoardScopedCache,
    hint: Option<WarmHint>,
    /// Per-DNN throughput floors for the **next** decision (armed by
    /// the board slot from its jobs' SLO classes; empty = no floors).
    floors: Vec<f64>,
    last_kind: DecisionKind,
    last_evaluations: usize,
    last_effort: SearchEffort,
    /// Decisions taken so far (drives the periodic cold refresh).
    decisions: u64,
    /// Armed by [`OnlineScheduler::speculate_next`]: the next decision
    /// is a rebalance-proposal scoring pass, not a deployment.
    speculative: bool,
}

impl<M: ThroughputModel> OnlineScheduler<M> {
    /// Creates a scheduler with the given policy.
    pub fn new(evaluator: M, policy: ReschedulePolicy, config: OnlineConfig) -> Self {
        Self {
            evaluator,
            policy,
            cache: BoardScopedCache::new(config.eval_cache_capacity),
            config,
            hint: None,
            floors: Vec::new(),
            last_kind: DecisionKind::Cold,
            last_evaluations: 0,
            last_effort: SearchEffort::default(),
            decisions: 0,
            speculative: false,
        }
    }

    /// The policy.
    pub fn policy(&self) -> ReschedulePolicy {
        self.policy
    }

    /// The configuration.
    pub fn config(&self) -> &OnlineConfig {
        &self.config
    }

    /// The cross-decision evaluation cache.
    pub fn eval_cache(&self) -> &EvalCache {
        self.cache.cache()
    }

    /// Arms the next `decide` call with warm-start context. Consumed by
    /// the next decision (whatever kind it ends up being); call
    /// [`OnlineScheduler::clear_hint`] if the decision was answered
    /// elsewhere (runtime memo) so stale context can't leak forward.
    pub fn set_warm_hint(&mut self, hint: WarmHint) {
        self.hint = Some(hint);
    }

    /// Drops any armed warm-start context (and any armed floors — a
    /// memo-answered decision never reaches `decide`, so both must not
    /// leak into a later, unrelated one).
    pub fn clear_hint(&mut self) {
        self.hint = None;
        self.floors.clear();
    }

    /// Arms per-DNN throughput floors (inferences/s, aligned with the
    /// next `decide` call's workload order; `0.0` = no floor) for the
    /// next decision. The floors steer the mapping search away from
    /// starving guaranteed-class jobs — see
    /// [`omniboost_mcts::SchedulingEnv::with_floors`].
    pub fn set_floors(&mut self, floors: Vec<f64>) {
        self.floors = floors;
    }

    /// Marks the **next** `decide` call as speculative (a rebalance
    /// proposal being priced, not a deployment): it neither advances the
    /// decision counter nor takes the periodic cold-refresh path, so
    /// proposal scoring can never consume — or pay the full cold budget
    /// of — a refresh that belongs to real deployments. Consumed by the
    /// next decision.
    pub fn speculate_next(&mut self) {
        self.speculative = true;
    }

    /// Whether the **next** decision this scheduler runs will take the
    /// periodic cold-refresh path. Drivers holding a decision memo in
    /// front of the scheduler (the serving runtime) check this to
    /// bypass-and-overwrite the memo on refresh decisions — otherwise a
    /// memoized mix would replay a possibly drift-affected mapping
    /// forever and the refresh could never repair it.
    pub fn refresh_due(&self) -> bool {
        self.config.refresh_period > 0
            && (self.decisions + 1).is_multiple_of(self.config.refresh_period as u64)
    }

    /// Kind of the last decision this scheduler itself produced.
    pub fn last_kind(&self) -> DecisionKind {
        self.last_kind
    }

    /// Evaluator queries that actually ran in the last decision.
    pub fn last_evaluations(&self) -> usize {
        self.last_evaluations
    }
}

/// Scores the **carried-candidate floor** of an armed hint: the previous
/// mapping restricted to the surviving jobs, with an arriving DNN (if
/// any) placed whole on each device in turn. These are the mappings a
/// zero-search incremental scheduler would deploy; any decision holding
/// a hint takes the max against them, so warm serving can never do
/// worse than "keep everything, put the new job on its best device".
/// Returns the best floor mapping, its reward, and the evaluator
/// queries spent (usually cache hits — the carried rows were scored by
/// earlier decisions).
fn carried_floor<E: ThroughputModel>(
    env: &SchedulingEnv<'_, E>,
    workload: &Workload,
    hint: &WarmHint,
) -> Option<(Mapping, f64, usize)> {
    let mut candidates = Vec::new();
    if hint.decided == workload.len() {
        let state = SchedState::from_partial_mapping(env, &hint.carried, hint.decided).ok()?;
        if !state.is_dead() {
            candidates.push(state);
        }
    } else {
        let layers = workload.dnn(workload.len() - 1).num_layers();
        for device in omniboost_hw::Device::ALL {
            let mut rows = hint.carried.assignments().to_vec();
            rows.push(vec![device; layers]);
            let full = Mapping::new(rows);
            if let Ok(state) = SchedState::from_partial_mapping(env, &full, workload.len()) {
                if !state.is_dead() {
                    candidates.push(state);
                }
            }
        }
    }
    if candidates.is_empty() {
        return None;
    }
    let (rewards, queries) = env.reward_batch_counted(&candidates);
    let (best, reward) = candidates
        .iter()
        .zip(&rewards)
        .max_by(|a, b| a.1.total_cmp(b.1))?;
    (*reward > 0.0).then(|| (env.mapping_of(best), *reward, queries))
}

/// The warm path for an armed hint, or `None` when the hint does not
/// apply (shape drift, dead root, fruitless warm search) and the
/// decision must fall back to cold.
fn try_warm<E: ThroughputModel>(
    config: &OnlineConfig,
    env: &SchedulingEnv<'_, E>,
    workload: &Workload,
    hint: &WarmHint,
) -> Option<(Mapping, DecisionKind, usize, SearchEffort)> {
    if hint.decided + 1 < workload.len() || hint.decided > workload.len() {
        return None; // multi-job delta: cold restart is the answer
    }
    let root = SchedState::from_partial_mapping(env, &hint.carried, hint.decided).ok()?;
    if root.is_dead() {
        return None;
    }
    let mcts = Mcts::new(config.warm_budget);
    let mut effort = SearchEffort::default();
    let (kind, mut best_mapping, mut best_reward, mut evaluations) =
        if hint.decided == workload.len() {
            // Departure: the carried mapping is complete — score it (one
            // query, usually a cache hit) and let a warm-budget
            // refinement search try to consolidate the freed capacity;
            // the better of the two deploys.
            let carried = mcts.search_from(env, root, config.seed);
            let refine = mcts.run(env, config.seed);
            effort.add(carried.iterations, carried.stopped_on_plateau);
            effort.add(refine.iterations, refine.stopped_on_plateau);
            let evaluations = carried.evaluations + refine.evaluations;
            let best = if refine.best_reward > carried.best_reward {
                refine
            } else {
                carried
            };
            (
                DecisionKind::WarmDepart,
                env.mapping_of(&best.best_state),
                best.best_reward,
                evaluations,
            )
        } else {
            // Arrival: explore the new DNN's decisions from the carried
            // root, raced against a warm-budget global challenger — the
            // focused search wins on sample efficiency, the challenger
            // keeps accumulated prefix drift from compounding (its
            // queries mostly hit the cross-decision cache, so it is far
            // cheaper than its iteration count suggests). When the
            // runtime flagged a worst-placed carried DNN for release,
            // the challenger's budget is **split** with a third racer
            // that freezes every carried path *except* the released one
            // and re-decides it together with the arrival
            // ([`SchedState::from_frozen_subset`]) — the finer drift
            // repair prefix freezing cannot express, at no extra total
            // search cost (the warm path must stay cheaper than cold).
            let release_root = hint.release.filter(|r| *r < hint.decided).and_then(|r| {
                let mut frozen = vec![true; hint.decided];
                frozen[r] = false;
                SchedState::from_frozen_subset(env, &hint.carried, &frozen)
                    .ok()
                    .filter(|root| !root.is_dead())
            });
            let side_budget = if release_root.is_some() {
                let mut half = config.warm_budget;
                half.iterations = (half.iterations / 2).max(1);
                Mcts::new(half)
            } else {
                Mcts::new(config.warm_budget)
            };
            let warm = mcts.search_from(env, root, config.seed);
            let challenger = side_budget.run(env, config.seed);
            effort.add(warm.iterations, warm.stopped_on_plateau);
            effort.add(challenger.iterations, challenger.stopped_on_plateau);
            let mut evaluations = warm.evaluations + challenger.evaluations;
            let mut best = if challenger.best_reward > warm.best_reward {
                challenger
            } else {
                warm
            };
            if let Some(root) = release_root {
                let release = side_budget.search_from(env, root, config.seed);
                effort.add(release.iterations, release.stopped_on_plateau);
                evaluations += release.evaluations;
                if release.best_reward > best.best_reward {
                    best = release;
                }
            }
            (
                DecisionKind::WarmArrival,
                env.mapping_of(&best.best_state),
                best.best_reward,
                evaluations,
            )
        };
    // Floor only the arrival kind: on departures the terminal-root
    // search above already scored the (single) carried candidate, so a
    // floor pass would just re-query the same mapping.
    if kind == DecisionKind::WarmArrival {
        if let Some((mapping, reward, queries)) = carried_floor(env, workload, hint) {
            evaluations += queries;
            if reward > best_reward {
                best_mapping = mapping;
                best_reward = reward;
            }
        }
    }
    (best_reward > 0.0).then_some((best_mapping, kind, evaluations, effort))
}

impl<M: ThroughputModel> Scheduler for OnlineScheduler<M> {
    /// Policy-qualified so a runtime memo never mixes decisions across
    /// policies.
    fn name(&self) -> &str {
        match self.policy {
            ReschedulePolicy::ColdRestart => "online-cold",
            ReschedulePolicy::WarmStart => "online-warm",
        }
    }

    fn decide(&mut self, board: &Board, workload: &Workload) -> Result<Mapping, HwError> {
        board.admit(workload)?;
        let hint = self.hint.take();
        let scope = self.cache.begin(board);
        let cached = scope.wrap(&self.evaluator);
        let floors = std::mem::take(&mut self.floors);
        let env = SchedulingEnv::new(workload, &cached, self.config.stage_cap)?;
        let env = if floors.len() == workload.len() {
            env.with_floors(floors)
        } else {
            env
        };

        let config = self.config;
        // Speculative (rebalance-scoring) decisions stand outside the
        // refresh cadence: they don't count and never pay a refresh.
        let speculative = std::mem::take(&mut self.speculative);
        if !speculative {
            self.decisions += 1;
        }
        // Periodic drift repair: every Nth decision takes the cold path
        // even when warm-eligible (but keeps the carried floor below).
        let refresh = !speculative
            && config.refresh_period > 0
            && self.decisions.is_multiple_of(config.refresh_period as u64);
        let warm = match (&self.policy, &hint, refresh) {
            (ReschedulePolicy::WarmStart, Some(hint), false) => {
                try_warm(&config, &env, workload, hint)
            }
            _ => None,
        };
        let (mapping, kind, evaluations, effort) = match warm {
            Some(found) => found,
            None => {
                let result = Mcts::new(config.cold_budget).run(&env, config.seed);
                let mut effort = SearchEffort::default();
                effort.add(result.iterations, result.stopped_on_plateau);
                let mut mapping = env.mapping_of(&result.best_state);
                let mut evaluations = result.evaluations;
                // Under the warm policy even cold decisions (refresh or
                // fallback) never deploy below the carried floor: a full
                // redeploy must *earn* its migration churn.
                if self.policy == ReschedulePolicy::WarmStart {
                    if let Some(hint) = &hint {
                        if let Some((m, r, q)) = carried_floor(&env, workload, hint) {
                            evaluations += q;
                            if r > result.best_reward {
                                mapping = m;
                            }
                        }
                    }
                }
                (mapping, DecisionKind::Cold, evaluations, effort)
            }
        };
        self.last_kind = kind;
        self.last_effort = effort;
        self.last_evaluations = scope.fresh_evaluations(env.reference_queries() + evaluations);
        mapping.validate(workload)?;
        Ok(mapping)
    }

    fn eval_cache_stats(&self) -> Option<EvalCacheStats> {
        self.cache.stats_if_enabled()
    }

    fn last_search_effort(&self) -> Option<SearchEffort> {
        Some(self.last_effort)
    }

    /// Digest of the armed floor vector, so the runtime's decision memo
    /// keys floored mixes apart from floorless ones (and from mixes
    /// floored differently) instead of the slot bypassing the memo for
    /// every guaranteed mix. All-zero floors — the pre-SLO case — salt
    /// to `0`, keeping historical memo keys (and seeded replays)
    /// bit-for-bit intact.
    fn memo_salt(&self) -> u64 {
        if self.floors.iter().all(|f| *f == 0.0) {
            return 0;
        }
        use std::hash::Hasher;
        let mut h = omniboost_hw::Fnv1a::default();
        for f in &self.floors {
            h.write(&f.to_bits().to_le_bytes());
        }
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omniboost_hw::{AnalyticModel, Device};
    use omniboost_models::ModelId;

    fn quick_config() -> OnlineConfig {
        OnlineConfig {
            cold_budget: SearchBudget::with_iterations(120),
            warm_budget: SearchBudget::with_iterations(40),
            ..OnlineConfig::default()
        }
    }

    fn scheduler(policy: ReschedulePolicy) -> OnlineScheduler<AnalyticModel> {
        OnlineScheduler::new(
            AnalyticModel::new(Board::hikey970()),
            policy,
            quick_config(),
        )
    }

    #[test]
    fn cold_policy_ignores_hints() {
        let board = Board::hikey970();
        let mut sched = scheduler(ReschedulePolicy::ColdRestart);
        let w1 = Workload::from_ids([ModelId::AlexNet]);
        let m1 = sched.decide(&board, &w1).unwrap();
        let w2 = Workload::from_ids([ModelId::AlexNet, ModelId::SqueezeNet]);
        sched.set_warm_hint(WarmHint {
            carried: m1,
            decided: 1,
            release: None,
        });
        let m2 = sched.decide(&board, &w2).unwrap();
        assert_eq!(sched.last_kind(), DecisionKind::Cold);
        m2.validate(&w2).unwrap();
    }

    #[test]
    fn warm_arrival_freezes_carried_paths_and_is_cheaper() {
        let board = Board::hikey970();
        let mut sched = scheduler(ReschedulePolicy::WarmStart);
        let w1 = Workload::from_ids([ModelId::Vgg19, ModelId::ResNet50]);
        let m1 = sched.decide(&board, &w1).unwrap();
        assert_eq!(sched.last_kind(), DecisionKind::Cold);

        let w2 = Workload::from_ids([ModelId::Vgg19, ModelId::ResNet50, ModelId::AlexNet]);
        sched.set_warm_hint(WarmHint {
            carried: m1.clone(),
            decided: 2,
            release: None,
        });
        let m2 = sched.decide(&board, &w2).unwrap();
        assert_eq!(sched.last_kind(), DecisionKind::WarmArrival);
        m2.validate(&w2).unwrap();
        assert!(m2.max_stages() <= 3);
        // Carried DNNs keep their exact paths: zero migration for them.
        assert_eq!(m2.migrated_layers(&m1, &[Some(0), Some(1), None]), 0);
    }

    #[test]
    fn warm_depart_returns_live_mapping_and_memoizes_evaluator_work() {
        let board = Board::hikey970();
        let mut sched = scheduler(ReschedulePolicy::WarmStart);
        let w2 = Workload::from_ids([ModelId::Vgg16, ModelId::MobileNet]);
        let m2 = sched.decide(&board, &w2).unwrap();

        // MobileNet departs: carried = row 0 only.
        let w1 = Workload::from_ids([ModelId::Vgg16]);
        let carried = Mapping::new(vec![m2.assignments()[0].clone()]);
        sched.set_warm_hint(WarmHint {
            carried,
            decided: 1,
            release: None,
        });
        let m1 = sched.decide(&board, &w1).unwrap();
        assert_eq!(sched.last_kind(), DecisionKind::WarmDepart);
        m1.validate(&w1).unwrap();
        assert!(m1.max_stages() <= 3);
    }

    #[test]
    fn dead_or_misshapen_hints_fall_back_to_cold() {
        let board = Board::hikey970();
        let mut sched = scheduler(ReschedulePolicy::WarmStart);
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::SqueezeNet]);
        // Shape mismatch: 3 layers claimed for an 11-layer DNN.
        sched.set_warm_hint(WarmHint {
            carried: Mapping::new(vec![vec![Device::Gpu; 3]]),
            decided: 1,
            release: None,
        });
        let m = sched.decide(&board, &w).unwrap();
        assert_eq!(sched.last_kind(), DecisionKind::Cold);
        m.validate(&w).unwrap();

        // A carried path violating the stage cap (e.g. decided under a
        // looser cap) must also fall back, not search from a dead root.
        let mut overcap = Mapping::all_on(&w, Device::Gpu);
        for (i, l) in [2usize, 4, 6, 8].iter().enumerate() {
            overcap.assign(
                0,
                *l,
                if i % 2 == 0 {
                    Device::BigCpu
                } else {
                    Device::LittleCpu
                },
            );
        }
        assert!(overcap.stage_count(0) > 3);
        sched.set_warm_hint(WarmHint {
            carried: overcap,
            decided: 1,
            release: None,
        });
        let m = sched.decide(&board, &w).unwrap();
        assert_eq!(sched.last_kind(), DecisionKind::Cold);
        m.validate(&w).unwrap();
        assert!(m.max_stages() <= 3);
    }

    #[test]
    fn hints_are_consumed_per_decision() {
        let board = Board::hikey970();
        let mut sched = scheduler(ReschedulePolicy::WarmStart);
        let w1 = Workload::from_ids([ModelId::AlexNet]);
        let m1 = sched.decide(&board, &w1).unwrap();
        let w2 = Workload::from_ids([ModelId::AlexNet, ModelId::SqueezeNet]);
        sched.set_warm_hint(WarmHint {
            carried: m1,
            decided: 1,
            release: None,
        });
        sched.decide(&board, &w2).unwrap();
        assert_eq!(sched.last_kind(), DecisionKind::WarmArrival);
        // No hint armed now: the same query decides cold.
        sched.decide(&board, &w2).unwrap();
        assert_eq!(sched.last_kind(), DecisionKind::Cold);
    }
}
