//! The OmniBoost scheduler: estimator-guided MCTS.

use crate::config::OmniBoostConfig;
use omniboost_estimator::{BoardScopedCache, CnnEstimator, EvalCache, TrainHistory};
use omniboost_hw::{Board, EvalCacheStats, HwError, Mapping, Scheduler, SearchEffort, Workload};
use omniboost_mcts::{Mcts, SchedulingEnv, SearchBudget};

/// The OmniBoost multi-DNN manager (§IV).
///
/// Built once at design time ([`OmniBoost::design_time`]), it answers any
/// number of scheduling queries *without retraining* — the paper's key
/// run-time property ("OmniBoost is the first framework that addresses
/// the multi-DNN scheduling problem without retraining").
///
/// See the crate docs for an end-to-end example.
pub struct OmniBoost {
    estimator: CnnEstimator,
    config: OmniBoostConfig,
    /// Cross-decision evaluation cache: estimator reports computed while
    /// deciding one workload are reused by later decisions (recurring
    /// traffic re-visits the same mappings — starting with the GPU-only
    /// normalization baseline every `decide` call queries). Outlives the
    /// per-decision reward memo inside the scheduling environment;
    /// board-scoped, so deciding against different hardware flushes.
    eval_cache: BoardScopedCache,
    last_evaluations: usize,
    last_effort: SearchEffort,
}

impl OmniBoost {
    /// Runs the full design-time flow on a board: profile the model zoo,
    /// generate random workloads, measure them, train the CNN estimator.
    ///
    /// This is the expensive, once-per-platform step (Fig. 2, steps 1–3);
    /// with default settings it takes on the order of a minute, matching
    /// the paper's "training took under a minute" on an NVIDIA 1660 Ti.
    pub fn design_time(board: &Board, config: OmniBoostConfig) -> (Self, TrainHistory) {
        let dataset = config.dataset.generate(board);
        let (estimator, history) = CnnEstimator::train(board, &dataset, &config.training);
        (Self::from_estimator(estimator, config), history)
    }

    /// Wraps an already-trained estimator.
    pub fn from_estimator(estimator: CnnEstimator, config: OmniBoostConfig) -> Self {
        let eval_cache = BoardScopedCache::new(config.eval_cache_capacity);
        Self {
            estimator,
            config,
            eval_cache,
            last_evaluations: 0,
            last_effort: SearchEffort::default(),
        }
    }

    /// The trained estimator.
    pub fn estimator(&self) -> &CnnEstimator {
        &self.estimator
    }

    /// The cross-decision evaluation cache (disabled when the config's
    /// `eval_cache_capacity` is 0).
    pub fn eval_cache(&self) -> &EvalCache {
        self.eval_cache.cache()
    }

    /// The configuration.
    pub fn config(&self) -> &OmniBoostConfig {
        &self.config
    }

    /// Replaces the run-time search budget without retraining — budget is
    /// the paper's run-time flexibility knob (§V-B), so sweeping it must
    /// not cost another design-time pass.
    pub fn set_budget(&mut self, budget: omniboost_mcts::SearchBudget) {
        self.config.budget = budget;
    }

    /// Estimator queries the last decision actually ran (the paper
    /// reports 500 queries dominating its ~30 s decision latency, §V-B).
    /// Queries answered by the cross-decision cache are not estimator
    /// work and are excluded — a fully-warm repeat decision reports 0.
    pub fn last_evaluations(&self) -> usize {
        self.last_evaluations
    }
}

impl Scheduler for OmniBoost {
    fn name(&self) -> &str {
        "omniboost"
    }

    fn decide(&mut self, board: &Board, workload: &Workload) -> Result<Mapping, HwError> {
        board.admit(workload)?;
        // Every estimator query of this decision flows through the
        // board-scoped cross-decision cache (a no-op wrapper when
        // capacity is 0), so recurring workloads amortize evaluations
        // across `decide` calls; the scope also handles flush-on-board-
        // change and the fresh-query accounting below.
        let scope = self.eval_cache.begin(board);
        let cached = scope.wrap(&self.estimator);
        let env = SchedulingEnv::new(workload, &cached, self.config.stage_cap)?;
        let result = Mcts::new(self.config.budget).run(&env, self.config.seed);
        // `result.evaluations` counts queries that reached the *cached*
        // evaluator; with the cache enabled, only its misses actually ran
        // a CNN forward — report those so "evaluations per decision"
        // stays truthful on the recurring-traffic path too.
        self.last_evaluations = scope.fresh_evaluations(result.evaluations);
        self.last_effort = SearchEffort::default();
        self.last_effort
            .add(result.iterations, result.stopped_on_plateau);
        let mapping = env.mapping_of(&result.best_state);
        mapping.validate(workload)?;
        Ok(mapping)
    }

    fn eval_cache_stats(&self) -> Option<EvalCacheStats> {
        self.eval_cache.stats_if_enabled()
    }

    fn last_search_effort(&self) -> Option<SearchEffort> {
        Some(self.last_effort)
    }
}

/// Ablation variant: the same MCTS explorer guided by a *perfect* oracle
/// (the board simulator itself) instead of the CNN estimator.
///
/// Comparing [`OmniBoost`] against this quantifies how much throughput
/// the estimator's approximation error costs — one of the design-choice
/// ablations listed in `DESIGN.md`.
///
/// Oracle queries flow through the same cross-decision [`EvalCache`] as
/// the estimator path (capacity matches [`OmniBoostConfig`]'s default;
/// 0 disables), so decision-latency comparisons between the two are
/// cache-for-cache fair. Cached reports are valid for exactly one
/// board; deciding against a different board flushes the cache.
pub struct OracleOmniBoost {
    budget: SearchBudget,
    stage_cap: usize,
    seed: u64,
    eval_cache: BoardScopedCache,
}

impl OracleOmniBoost {
    /// Creates the oracle-guided scheduler.
    pub fn new(budget: SearchBudget, stage_cap: usize, seed: u64) -> Self {
        Self {
            budget,
            stage_cap,
            seed,
            eval_cache: BoardScopedCache::new(OmniBoostConfig::default().eval_cache_capacity),
        }
    }

    /// Replaces the cross-decision cache capacity (0 disables; any
    /// cached reports are dropped).
    #[must_use]
    pub fn with_eval_cache_capacity(mut self, capacity: usize) -> Self {
        self.eval_cache = BoardScopedCache::new(capacity);
        self
    }

    /// The cross-decision evaluation cache.
    pub fn eval_cache(&self) -> &EvalCache {
        self.eval_cache.cache()
    }
}

impl Scheduler for OracleOmniBoost {
    fn name(&self) -> &str {
        "omniboost-oracle"
    }

    fn decide(&mut self, board: &Board, workload: &Workload) -> Result<Mapping, HwError> {
        board.admit(workload)?;
        // The scope flushes on board change (cache keys carry no board
        // identity, so reports are valid for exactly one board).
        let scope = self.eval_cache.begin(board);
        let oracle = scope.wrap(board.simulator());
        let env = SchedulingEnv::new(workload, &oracle, self.stage_cap)?;
        let result = Mcts::new(self.budget).run(&env, self.seed);
        let mapping = env.mapping_of(&result.best_state);
        mapping.validate(workload)?;
        Ok(mapping)
    }

    fn eval_cache_stats(&self) -> Option<EvalCacheStats> {
        self.eval_cache.stats_if_enabled()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omniboost_hw::{Device, ThroughputModel as _};
    use omniboost_models::ModelId;
    use std::sync::OnceLock;

    /// [`OmniBoost::design_time`] on the HiKey970 under
    /// [`OmniBoostConfig::quick`], trained once per test binary and
    /// rebuilt from the estimator's blob for each caller's `config`.
    /// Only the dataset and training halves of a config reach training,
    /// and every caller keeps `quick()`'s.
    fn quick_design_time(config: OmniBoostConfig) -> (OmniBoost, TrainHistory) {
        static TRAINED: OnceLock<(Vec<u8>, TrainHistory)> = OnceLock::new();
        let (blob, history) = TRAINED.get_or_init(|| {
            let (sched, history) =
                OmniBoost::design_time(&Board::hikey970(), OmniBoostConfig::quick());
            (sched.estimator().to_bytes().to_vec(), history)
        });
        let estimator = CnnEstimator::from_bytes(blob.clone().into()).expect("own blob loads");
        (
            OmniBoost::from_estimator(estimator, config),
            history.clone(),
        )
    }

    #[test]
    fn oracle_omniboost_beats_baseline_on_heavy_mix() {
        let board = Board::hikey970();
        let mut sched = OracleOmniBoost::new(SearchBudget::with_iterations(200), 3, 42);
        let w = Workload::from_ids([
            ModelId::Vgg19,
            ModelId::ResNet50,
            ModelId::InceptionV3,
            ModelId::Vgg16,
        ]);
        let sim = board.simulator();
        let mapping = sched.decide(&board, &w).unwrap();
        let ours = sim.evaluate(&w, &mapping).unwrap().average;
        let base = sim
            .evaluate(&w, &Mapping::all_on(&w, Device::Gpu))
            .unwrap()
            .average;
        assert!(ours > base * 1.5, "oracle {ours} vs baseline {base}");
        assert!(mapping.max_stages() <= 3);
    }

    #[test]
    fn estimator_omniboost_end_to_end_quick() {
        let board = Board::hikey970();
        let (mut sched, history) = quick_design_time(OmniBoostConfig::quick());
        assert!(history.final_train_loss().is_finite());
        let w = Workload::from_ids([ModelId::Vgg19, ModelId::ResNet50, ModelId::AlexNet]);
        let mapping = sched.decide(&board, &w).unwrap();
        mapping.validate(&w).unwrap();
        assert!(mapping.max_stages() <= 3);
        assert!(sched.last_evaluations() > 0);
        // The budget is a ceiling; the decision says what it performed.
        let effort = sched.last_search_effort().expect("omniboost searches");
        assert!((1..=sched.config().budget.iterations).contains(&effort.iterations));
        assert_eq!(
            effort.plateau_stops,
            usize::from(effort.iterations < sched.config().budget.iterations)
        );
        // Re-query with a different workload without retraining.
        let w2 = Workload::from_ids([ModelId::MobileNet, ModelId::SqueezeNet]);
        let mapping2 = sched.decide(&board, &w2).unwrap();
        mapping2.validate(&w2).unwrap();
    }

    #[test]
    fn repeat_decisions_amortize_through_the_eval_cache() {
        let board = Board::hikey970();
        let (mut sched, _) = quick_design_time(OmniBoostConfig::quick());
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::SqueezeNet]);

        sched.decide(&board, &w).unwrap();
        let cold = sched.eval_cache_stats().expect("cache enabled by default");
        assert!(cold.misses > 0, "first decision must populate the cache");
        let cold_evals = sched.last_evaluations();

        // Same workload again: the search is deterministic per seed, so
        // it revisits the same mappings — almost everything hits.
        sched.decide(&board, &w).unwrap();
        let warm = sched.eval_cache_stats().unwrap();
        assert!(
            warm.hits >= cold_evals as u64,
            "warm decision should replay the cold decision's {cold_evals} queries \
             from cache, stats: {warm:?}"
        );
        assert_eq!(
            warm.misses, cold.misses,
            "no new estimator work on a recurring workload"
        );
        assert_eq!(
            sched.last_evaluations(),
            0,
            "a fully-warm decision ran no CNN forwards"
        );
    }

    #[test]
    fn zero_capacity_disables_the_eval_cache() {
        let board = Board::hikey970();
        let (mut sched, _) =
            quick_design_time(OmniBoostConfig::quick().with_eval_cache_capacity(0));
        let w = Workload::from_ids([ModelId::AlexNet]);
        sched.decide(&board, &w).unwrap();
        assert_eq!(sched.eval_cache_stats(), None);
        assert!(sched.eval_cache().is_disabled());
    }

    /// Oracle decisions amortize through the same cross-decision cache
    /// as estimator decisions — the fairness fix for latency A/Bs.
    #[test]
    fn oracle_recurring_decisions_amortize() {
        let board = Board::hikey970();
        let mut sched = OracleOmniBoost::new(SearchBudget::with_iterations(60), 3, 9);
        let w = Workload::from_ids([ModelId::AlexNet, ModelId::SqueezeNet]);
        let m1 = sched.decide(&board, &w).unwrap();
        let cold = sched.eval_cache_stats().expect("cache enabled by default");
        assert!(cold.misses > 0);
        let m2 = sched.decide(&board, &w).unwrap();
        assert_eq!(m1, m2, "search is deterministic per seed");
        let warm = sched.eval_cache_stats().unwrap();
        assert_eq!(warm.misses, cold.misses, "warm decision ran no oracle");
        assert!(warm.hits > cold.hits);
        // Opting out still works.
        let mut uncached = OracleOmniBoost::new(SearchBudget::with_iterations(10), 3, 9)
            .with_eval_cache_capacity(0);
        uncached.decide(&board, &w).unwrap();
        assert_eq!(uncached.eval_cache_stats(), None);
    }

    /// Cached oracle reports are valid for exactly one board: deciding
    /// against different hardware must flush (via the board scope),
    /// never replay stale throughputs.
    #[test]
    fn oracle_board_change_flushes_the_eval_cache() {
        let board_a = Board::hikey970();
        let mut board_b = Board::hikey970();
        board_b.max_concurrent_dnns += 1;
        let mut sched = OracleOmniBoost::new(SearchBudget::with_iterations(40), 3, 9);
        let w = Workload::from_ids([ModelId::AlexNet]);
        sched.decide(&board_a, &w).unwrap();
        let warm = sched.eval_cache_stats().unwrap();
        sched.decide(&board_b, &w).unwrap();
        let after = sched.eval_cache_stats().unwrap();
        assert!(
            after.misses > warm.misses,
            "different board must re-measure: {warm:?} -> {after:?}"
        );
    }
}
