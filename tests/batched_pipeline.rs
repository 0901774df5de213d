//! Integration tests for the batched throughput-evaluation pipeline:
//! batched-vs-scalar equivalence across the stack, the reward memo and
//! the runtime decision memo.

use omniboost::mcts::{Mcts, SchedulingEnv, SearchBudget};
use omniboost::{OracleOmniBoost, Runtime};
use omniboost_hw::{AnalyticModel, Board, Device, Mapping, ThroughputModel, Workload};
use omniboost_models::ModelId;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn heavy_mix() -> Workload {
    Workload::from_ids([
        ModelId::Vgg19,
        ModelId::ResNet50,
        ModelId::InceptionV3,
        ModelId::Vgg16,
    ])
}

/// The batched pipeline with `batch_size == 1` IS the scalar pipeline —
/// one query per iteration — and replays exactly on a fresh environment:
/// same RNG stream, same tree, same mapping, same reward.
#[test]
fn batch_size_one_equals_scalar_search_exactly() {
    let board = Board::hikey970();
    let w = heavy_mix();
    let ev = AnalyticModel::new(board);
    let scalar = Mcts::new(SearchBudget::with_iterations(200).with_batch_size(1));
    for seed in [0u64, 42, 0x0B00575] {
        // Fresh environments so the runs are independent: `evaluations`
        // counts actual evaluator queries, and a shared reward memo
        // would answer the second run for free.
        let env_a = SchedulingEnv::new(&w, &ev, 3).unwrap();
        let a = scalar.run(&env_a, seed);
        let env_b = SchedulingEnv::new(&w, &ev, 3).unwrap();
        let b = scalar.run(&env_b, seed);
        assert_eq!(a.best_reward, b.best_reward, "seed {seed}");
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.rounds, a.iterations, "one scoring round per iteration");
        assert_eq!(
            env_a.mapping_of(&a.best_state),
            env_b.mapping_of(&b.best_state)
        );
    }
}

/// Batching at width > 1 must not degrade search quality: across seeds,
/// the batched pipeline's best reward stays within a few percent of the
/// scalar pipeline's (virtual-loss diversification usually *helps*).
#[test]
fn batched_search_quality_tracks_scalar() {
    let board = Board::hikey970();
    let w = heavy_mix();
    let ev = AnalyticModel::new(board);
    let mut scalar_sum = 0.0f64;
    let mut batched_sum = 0.0f64;
    for seed in [7u64, 11, 42, 99, 123] {
        let env = SchedulingEnv::new(&w, &ev, 3).unwrap();
        scalar_sum += Mcts::new(SearchBudget::with_iterations(300).with_batch_size(1))
            .run(&env, seed)
            .best_reward;
        batched_sum += Mcts::new(SearchBudget::with_iterations(300).with_batch_size(16))
            .run(&env, seed)
            .best_reward;
    }
    assert!(
        batched_sum >= scalar_sum * 0.9,
        "batched quality collapsed: {batched_sum} vs scalar {scalar_sum}"
    );
}

/// The environment-level reward memo answers repeated evaluations of the
/// same completed assignment without extra evaluator calls.
#[test]
fn reward_memo_dedupes_repeat_assignments() {
    let board = Board::hikey970();
    let w = Workload::from_ids([ModelId::AlexNet, ModelId::SqueezeNet]);
    let ev = AnalyticModel::new(board);
    let env = SchedulingEnv::new(&w, &ev, 3).unwrap();
    // Build one completed (all-GPU) state and score it repeatedly.
    let mut s = env.initial();
    use omniboost::mcts::Environment;
    while !env.is_terminal(&s) {
        s = env.apply(&s, Device::Gpu.index());
    }
    let batch = vec![s.clone(), s.clone(), s.clone()];
    let r1 = env.reward_batch(&batch);
    assert!((r1[0] - r1[1]).abs() < 1e-12 && (r1[1] - r1[2]).abs() < 1e-12);
    assert_eq!(env.memo_misses(), 1, "three copies, one evaluator call");
    // Same-round duplicates are dedup hits, not memo hits — the two
    // counters answer different questions about cache effectiveness.
    assert_eq!(env.batch_dedup_hits(), 2);
    assert_eq!(env.memo_hits(), 0);
    let r2 = env.reward_batch(&[s.clone()]);
    assert_eq!(r2[0], r1[0]);
    assert_eq!(env.memo_misses(), 1);
    assert_eq!(env.memo_hits(), 1, "cross-round repeat is a true memo hit");
    assert_eq!(env.batch_dedup_hits(), 2);
    // Memoized value equals the scalar reward.
    assert!((env.reward(&s) - r1[0]).abs() < 1e-12);
}

/// End-to-end: the runtime decision memo short-circuits a repeated
/// workload for a full MCTS scheduler — the second decision costs a map
/// lookup, not a search.
#[test]
fn runtime_memo_skips_repeat_searches_end_to_end() {
    let board = Board::hikey970();
    let runtime = Runtime::new(board).with_memo();
    let w = heavy_mix();
    let mut sched = OracleOmniBoost::new(SearchBudget::with_iterations(60), 3, 42);
    let first = runtime.run(&mut sched, &w).unwrap();
    assert!(!first.memo_hit);
    let second = runtime.run(&mut sched, &w).unwrap();
    assert!(second.memo_hit);
    assert_eq!(first.mapping, second.mapping);
    assert_eq!(second.memo.hits, 1);
    assert_eq!(second.memo.misses, 1);
    assert!(
        second.decision_time <= first.decision_time,
        "memo hit should not be slower than the search it skips"
    );
}

/// The cross-decision evaluation cache: a recurring workload's second
/// decision replays the first decision's estimator queries from cache —
/// zero new evaluator work, identical result.
#[test]
fn cross_decision_cache_amortizes_recurring_traffic() {
    use omniboost::estimator::{CachedEstimator, EvalCache};
    let board = Board::hikey970();
    let w = heavy_mix();
    let ev = AnalyticModel::new(board);
    let cache = EvalCache::new(4096);
    let budget = SearchBudget::with_iterations(200).with_batch_size(16);

    let cached = CachedEstimator::new(&ev, &cache);
    let env = SchedulingEnv::new(&w, &cached, 3).unwrap();
    let first = Mcts::new(budget).run(&env, 42);
    let cold = cache.stats();
    assert!(cold.misses > 0, "cold decision must populate the cache");

    let cached = CachedEstimator::new(&ev, &cache);
    let env = SchedulingEnv::new(&w, &cached, 3).unwrap();
    let second = Mcts::new(budget).run(&env, 42);
    let warm = cache.stats();
    assert_eq!(
        warm.misses, cold.misses,
        "recurring decision must add no estimator work"
    );
    assert!(warm.hits > cold.hits);
    assert_eq!(first.best_reward, second.best_reward);
    assert_eq!(
        env.mapping_of(&first.best_state),
        env.mapping_of(&second.best_state)
    );
}

/// The tentpole acceptance bar: budget-aware playouts fill the batch on
/// the heavy mix (≥450/500 live terminals) and never return dead states.
#[test]
fn budget_aware_policy_fills_the_batch_on_heavy_mix() {
    let board = Board::hikey970();
    let w = Workload::from_ids([
        ModelId::Vgg19,
        ModelId::ResNet50,
        ModelId::InceptionV3,
        ModelId::AlexNet,
    ]);
    let ev = AnalyticModel::new(board);
    let env = SchedulingEnv::new(&w, &ev, 3).unwrap();
    let budget = SearchBudget::with_iterations(500).with_batch_size(16);
    let result = Mcts::new(budget).run(&env, 42);
    assert!(
        result.iterations >= budget.patience,
        "stopped before a plateau could form"
    );
    assert!(
        result.live_terminal_rollouts * 10 >= result.iterations * 9,
        "live-terminal yield {}/{}",
        result.live_terminal_rollouts,
        result.iterations
    );
    assert!(result.best_reward > 1.1, "must beat the GPU-only baseline");
    assert!(!result.best_state.is_dead());
}

/// Cross-model batch equivalence at the trait level, driven through the
/// same call the search makes.
#[test]
fn evaluate_batch_equals_scalar_for_both_model_families() {
    let board = Board::hikey970();
    let w = Workload::from_ids([ModelId::Vgg16, ModelId::MobileNet, ModelId::ResNet34]);
    let mut rng = StdRng::seed_from_u64(3);
    let mappings: Vec<Mapping> = (0..6).map(|_| Mapping::random(&w, 3, &mut rng)).collect();
    let analytic = AnalyticModel::new(board.clone());
    let des = board.simulator();
    for (name, batch) in [
        ("analytic", analytic.evaluate_batch(&w, &mappings)),
        ("des", des.evaluate_batch(&w, &mappings)),
    ] {
        for (m, b) in mappings.iter().zip(batch) {
            let scalar = match name {
                "analytic" => analytic.evaluate(&w, m).unwrap(),
                _ => des.evaluate(&w, m).unwrap(),
            };
            let batched = b.unwrap();
            assert!(
                (scalar.average - batched.average).abs() < 1e-9,
                "{name}: {} vs {}",
                scalar.average,
                batched.average
            );
        }
    }
}
