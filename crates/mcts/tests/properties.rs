//! Property-based tests over the tree search and scheduling environment.

use omniboost_hw::{AnalyticModel, Board, Device, Mapping, Workload};
use omniboost_mcts::{Environment, Mcts, SchedState, SchedulingEnv, SearchBudget};
use omniboost_models::ModelId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cell::RefCell;

/// Binary decisions of fixed depth scored by the fraction of 1-bits,
/// logging the best reward of every scoring round — the record the
/// plateau rule is checked against.
struct LoggedOnes {
    depth: usize,
    round_best: RefCell<Vec<f64>>,
}

impl LoggedOnes {
    fn new(depth: usize) -> Self {
        Self {
            depth,
            round_best: RefCell::new(Vec::new()),
        }
    }
}

impl Environment for LoggedOnes {
    type State = Vec<usize>;

    fn initial(&self) -> Vec<usize> {
        Vec::new()
    }

    fn num_actions(&self) -> usize {
        2
    }

    fn apply(&self, state: &Vec<usize>, action: usize) -> Vec<usize> {
        let mut next = state.clone();
        next.push(action);
        next
    }

    fn is_terminal(&self, state: &Vec<usize>) -> bool {
        state.len() >= self.depth
    }

    fn reward(&self, state: &Vec<usize>) -> f64 {
        state.iter().sum::<usize>() as f64 / self.depth as f64
    }

    fn reward_batch(&self, states: &[Vec<usize>]) -> Vec<f64> {
        let rewards: Vec<f64> = states.iter().map(|s| self.reward(s)).collect();
        let best = rewards.iter().copied().fold(0.0, f64::max);
        self.round_best.borrow_mut().push(best);
        rewards
    }
}

/// The heavy 4-DNN mix of the batched-pipeline tests.
fn heavy_mix() -> Workload {
    Workload::from_ids([
        ModelId::Vgg19,
        ModelId::ResNet50,
        ModelId::InceptionV3,
        ModelId::AlexNet,
    ])
}

/// Prefix property: ending on a plateau only cuts the search short — a
/// patient search that performed `n` iterations is, draw for draw, the
/// impatient search whose ceiling is `n`.
#[test]
fn a_plateau_stop_is_a_prefix_of_the_exhaustive_search() {
    let evaluator = AnalyticModel::new(Board::hikey970());
    let workload = heavy_mix();
    let mut stopped_early = 0;
    for batch in [1usize, 16] {
        for seed in [0u64, 7, 42, 0x0B00575] {
            let patient = SearchBudget::default().with_batch_size(batch);
            let env = SchedulingEnv::new(&workload, &evaluator, 3).unwrap();
            let a = Mcts::new(patient).run(&env, seed);
            stopped_early += usize::from(a.stopped_on_plateau);
            let exhaustive = SearchBudget {
                iterations: a.iterations,
                patience: usize::MAX,
                ..patient
            };
            let env = SchedulingEnv::new(&workload, &evaluator, 3).unwrap();
            let b = Mcts::new(exhaustive).run(&env, seed);
            assert!(!b.stopped_on_plateau);
            assert_eq!(b.iterations, a.iterations, "batch {batch} seed {seed}");
            assert_eq!(a.best_state, b.best_state, "batch {batch} seed {seed}");
            assert_eq!(a.best_reward, b.best_reward);
            assert_eq!(a.evaluations, b.evaluations);
            assert_eq!(a.rounds, b.rounds);
        }
    }
    assert!(stopped_early > 0, "no search ended on a plateau");
}

/// A ceiling within the patience, and any ceiling with `patience:
/// usize::MAX`, replays the search as it was before the plateau rule
/// existed: `(best_reward bits, evaluations)` captured at PR 21 on the
/// heavy mix, seed 42, batch 16.
#[test]
fn searches_the_plateau_rule_cannot_touch_replay_the_fixed_budget_search() {
    let evaluator = AnalyticModel::new(Board::hikey970());
    let workload = heavy_mix();
    let exhaustive_500 = SearchBudget {
        patience: usize::MAX,
        ..SearchBudget::default()
    };
    for (budget, bits, evaluations) in [
        (SearchBudget::with_iterations(60), 0x3ffb_ff84_1bab_11ca, 60),
        (exhaustive_500, 0x4002_0990_150f_a467, 500),
    ] {
        let env = SchedulingEnv::new(&workload, &evaluator, 3).unwrap();
        let result = Mcts::new(budget).run(&env, 42);
        assert_eq!(result.iterations, budget.iterations);
        assert!(!result.stopped_on_plateau);
        assert_eq!(result.best_reward.to_bits(), bits, "{budget:?}");
        assert_eq!(result.evaluations, evaluations, "{budget:?}");
    }
}

fn arb_mix() -> impl Strategy<Value = Vec<ModelId>> {
    proptest::sample::subsequence(ModelId::ALL.to_vec(), 1..=3)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any sequence of legal actions drives the environment to a terminal
    /// state in exactly `num_decisions` steps (unless the losing rule
    /// fires earlier), and the resulting mapping is always well-formed.
    #[test]
    fn action_sequences_terminate_with_valid_mappings(
        mix in arb_mix(),
        actions in proptest::collection::vec(0usize..3, 150),
    ) {
        let board = Board::hikey970();
        let evaluator = AnalyticModel::new(board);
        let workload = Workload::from_ids(mix);
        let env = SchedulingEnv::new(&workload, &evaluator, 3).unwrap();
        let mut state = env.initial();
        let mut steps = 0usize;
        for a in &actions {
            if env.is_terminal(&state) {
                break;
            }
            state = env.apply(&state, *a);
            steps += 1;
        }
        prop_assert!(env.is_terminal(&state) || steps == actions.len());
        let mapping = env.mapping_of(&state);
        mapping.validate(&workload).unwrap();
        if env.is_terminal(&state) && !state.is_dead() {
            prop_assert!(mapping.max_stages() <= 3);
            prop_assert!(env.reward(&state) > 0.0);
            prop_assert_eq!(steps, env.num_decisions());
        }
    }

    /// The search never returns a dead (stage-cap-violating) state as its
    /// best solution, for any seed.
    #[test]
    fn search_never_returns_losing_states(seed in 0u64..200) {
        let board = Board::hikey970();
        let evaluator = AnalyticModel::new(board);
        let workload = Workload::from_ids([ModelId::AlexNet, ModelId::MobileNet]);
        let env = SchedulingEnv::new(&workload, &evaluator, 3).unwrap();
        let result = Mcts::new(SearchBudget::with_iterations(60)).run(&env, seed);
        prop_assert!(!result.best_state.is_dead());
        let mapping = env.mapping_of(&result.best_state);
        prop_assert!(mapping.max_stages() <= 3);
    }

    /// Rewards are scale-consistent: the GPU-only mapping scores its
    /// win bonus + 1 (it IS the normalization reference).
    #[test]
    fn gpu_only_reward_is_unity_plus_bonus(mix in arb_mix()) {
        let board = Board::hikey970();
        let evaluator = AnalyticModel::new(board);
        let workload = Workload::from_ids(mix);
        let env = SchedulingEnv::new(&workload, &evaluator, 3).unwrap();
        let mut s = env.initial();
        while !env.is_terminal(&s) {
            s = env.apply(&s, Device::Gpu.index());
        }
        let r = env.reward(&s);
        prop_assert!((r - 1.1).abs() < 1e-6, "reward = {r}");
    }

    /// Search rewards are monotone in budget on average (smoke-level:
    /// a 150-iteration search is at least as good as the best of its own
    /// first 25 iterations would imply — we check it's >= a 25-iteration
    /// run with the same seed).
    #[test]
    fn budget_monotonicity_same_seed(seed in 0u64..50) {
        let board = Board::hikey970();
        let evaluator = AnalyticModel::new(board);
        let workload = Workload::from_ids([ModelId::SqueezeNet, ModelId::AlexNet]);
        let env = SchedulingEnv::new(&workload, &evaluator, 3).unwrap();
        let small = Mcts::new(SearchBudget::with_iterations(25)).run(&env, seed);
        let large = Mcts::new(SearchBudget::with_iterations(150)).run(&env, seed);
        prop_assert!(large.best_reward >= small.best_reward - 1e-9);
    }

    /// Budget-aware playouts from ANY reachable live state never die on
    /// the stage cap: drive the environment to a random live state with
    /// arbitrary (death-avoiding) actions, then roll out to a terminal
    /// with the environment's own policy.
    #[test]
    fn budget_aware_rollouts_from_reachable_live_states_never_die(
        mix in arb_mix(),
        prefix_frac in 0.0f64..1.0,
        seed in 0u64..1000,
    ) {
        let board = Board::hikey970();
        let evaluator = AnalyticModel::new(board);
        let workload = Workload::from_ids(mix);
        let env = SchedulingEnv::new(&workload, &evaluator, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        // Random reachable live prefix (retry draws that would kill).
        let target = (prefix_frac * env.num_decisions() as f64) as usize;
        let mut state = env.initial();
        while state.decisions_taken() < target {
            let next = env.apply(&state, rng.gen_range(0..Device::COUNT));
            if !next.is_dead() {
                state = next;
            }
        }
        prop_assert!(!env.is_terminal(&state) || !state.is_dead());
        // Policy rollout to the end.
        while !env.is_terminal(&state) {
            let action = env.rollout_action(&state, &mut rng);
            state = env.apply(&state, action);
        }
        prop_assert!(!state.is_dead(), "budget-aware playout died");
        prop_assert!(env.reward(&state) > 0.0);
        prop_assert!(env.mapping_of(&state).max_stages() <= 3);
    }

    /// Batched search under the budget-aware policy is deterministic per
    /// seed, and every rollout of the heavy regime reaches a live
    /// terminal (the batch actually fills).
    #[test]
    fn batched_budget_aware_search_is_deterministic_and_full_yield(
        mix in arb_mix(),
        seed in 0u64..500,
    ) {
        let board = Board::hikey970();
        let evaluator = AnalyticModel::new(board);
        let workload = Workload::from_ids(mix);
        let mcts = Mcts::new(SearchBudget::with_iterations(60).with_batch_size(8));
        let env_a = SchedulingEnv::new(&workload, &evaluator, 3).unwrap();
        let a = mcts.run(&env_a, seed);
        let env_b = SchedulingEnv::new(&workload, &evaluator, 3).unwrap();
        let b = mcts.run(&env_b, seed);
        prop_assert_eq!(&a.best_state, &b.best_state);
        prop_assert_eq!(a.best_reward, b.best_reward);
        prop_assert_eq!(a.evaluations, b.evaluations);
        prop_assert_eq!(a.live_terminal_rollouts, b.live_terminal_rollouts);
        // Small mixes fit the depth cap, so full yield is guaranteed.
        prop_assert_eq!(a.live_terminal_rollouts, a.iterations);
        prop_assert_eq!(a.terminal_rollouts, a.iterations);
    }

    /// Warm-started search seeded from any valid previous mapping's
    /// carried device paths never returns a losing mapping: a live
    /// completion always exists (carry the prefix, put the new DNN
    /// anywhere whole), so the search must return one — and it must
    /// preserve the carried prefix exactly.
    #[test]
    fn warm_started_search_never_returns_losing_mappings(
        mix in arb_mix(),
        new_model in proptest::sample::select(ModelId::ALL.to_vec()),
        seed in 0u64..300,
    ) {
        let board = Board::hikey970();
        let evaluator = AnalyticModel::new(board);
        let mut ids = mix;
        ids.push(new_model); // the arriving job, appended last
        let workload = Workload::from_ids(ids);
        let mut rng = StdRng::seed_from_u64(seed);
        let previous = Mapping::random(&workload, 3, &mut rng);
        let env = SchedulingEnv::new(&workload, &evaluator, 3).unwrap();
        let carried = workload.len() - 1;
        let root = SchedState::from_partial_mapping(&env, &previous, carried).unwrap();
        prop_assert!(!root.is_dead(), "valid previous mapping cannot seed a dead root");
        let result = Mcts::new(SearchBudget::with_iterations(40)).search_from(&env, root, seed);
        prop_assert!(result.best_reward > 0.0, "warm search returned no live mapping");
        prop_assert!(!result.best_state.is_dead());
        let mapping = env.mapping_of(&result.best_state);
        mapping.validate(&workload).unwrap();
        prop_assert!(mapping.max_stages() <= 3);
        for di in 0..carried {
            prop_assert_eq!(&mapping.assignments()[di], &previous.assignments()[di]);
        }
    }

    /// Warm liveness over **arbitrary freeze shapes**: freeze any subset
    /// of the DNNs (not just a prefix) to a valid previous mapping's
    /// device paths and the search must still return a live mapping that
    /// preserves every frozen row exactly — a live completion always
    /// exists (place every open DNN whole on one device).
    #[test]
    fn subset_frozen_search_never_returns_losing_mappings(
        mix in proptest::sample::subsequence(ModelId::ALL.to_vec(), 2..=4),
        mask_bits in 0usize..15,
        seed in 0u64..300,
    ) {
        let board = Board::hikey970();
        let evaluator = AnalyticModel::new(board);
        let workload = Workload::from_ids(mix);
        let frozen: Vec<bool> = (0..workload.len()).map(|di| mask_bits >> di & 1 == 1).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let previous = Mapping::random(&workload, 3, &mut rng);
        let env = SchedulingEnv::new(&workload, &evaluator, 3).unwrap();
        let root = SchedState::from_frozen_subset(&env, &previous, &frozen).unwrap();
        prop_assert!(!root.is_dead(), "valid previous mapping cannot seed a dead root");
        let result = Mcts::new(SearchBudget::with_iterations(40)).search_from(&env, root, seed);
        prop_assert!(result.best_reward > 0.0, "frozen-subset search returned no live mapping");
        prop_assert!(!result.best_state.is_dead());
        let mapping = env.mapping_of(&result.best_state);
        mapping.validate(&workload).unwrap();
        prop_assert!(mapping.max_stages() <= 3);
        for (di, frozen) in frozen.iter().enumerate() {
            if *frozen {
                prop_assert_eq!(&mapping.assignments()[di], &previous.assignments()[di]);
            }
        }
    }

    /// `batch_size == 1` under the budget-aware policy is the scalar
    /// one-query-per-iteration loop (one scoring round per iteration)
    /// and replays draw-for-draw on a fresh environment.
    #[test]
    fn batch_size_one_still_matches_scalar_loop(seed in 0u64..200) {
        let board = Board::hikey970();
        let evaluator = AnalyticModel::new(board);
        let workload = Workload::from_ids([ModelId::AlexNet, ModelId::MobileNet]);
        let scalar = Mcts::new(SearchBudget::with_iterations(50).with_batch_size(1));
        let env_a = SchedulingEnv::new(&workload, &evaluator, 3).unwrap();
        let a = scalar.run(&env_a, seed);
        let env_b = SchedulingEnv::new(&workload, &evaluator, 3).unwrap();
        let b = scalar.run(&env_b, seed);
        prop_assert_eq!(a.rounds, 50);
        prop_assert_eq!(&a.best_state, &b.best_state);
        prop_assert_eq!(a.best_reward, b.best_reward);
        prop_assert_eq!(a.evaluations, b.evaluations);
    }

    /// The plateau rule, checked against the environment's own record
    /// of each round's best reward: the search never exceeds its
    /// ceiling, passes every round boundary at which the rule does not
    /// hold — none holds before something has scored — and stops short
    /// of the ceiling only on a round boundary with an incumbent whose
    /// last improvement is at least `patience` iterations back.
    #[test]
    fn plateau_stops_only_where_the_rule_says(
        seed in 0u64..1000,
        patience in 1usize..120,
        batch in proptest::sample::select(vec![1usize, 4, 16]),
        ceiling in 1usize..300,
    ) {
        let env = LoggedOnes::new(10);
        let budget = SearchBudget { iterations: ceiling, patience, ..SearchBudget::default() }
            .with_batch_size(batch);
        let result = Mcts::new(budget).run(&env, seed);
        prop_assert!(result.iterations <= ceiling);
        prop_assert_eq!(result.stopped_on_plateau, result.iterations < ceiling);
        let round_best = env.round_best.borrow();
        prop_assert_eq!(result.rounds, round_best.len());
        let (mut incumbent, mut improved_at, mut done) = (0.0f64, 0usize, 0usize);
        for (round, best) in round_best.iter().enumerate() {
            done = (done + batch).min(ceiling);
            if *best > incumbent {
                incumbent = *best;
                improved_at = done;
            }
            let plateau = incumbent > 0.0 && done - improved_at >= patience;
            if round + 1 < round_best.len() {
                prop_assert!(!plateau, "searched past a plateau at {done}");
            } else if result.stopped_on_plateau {
                prop_assert!(plateau, "stopped at {done}, improved at {improved_at}");
                prop_assert_eq!(done % batch, 0);
            }
        }
        prop_assert_eq!(result.iterations, done);
        prop_assert_eq!(result.best_reward, incumbent);
    }

    /// Nothing ever scores when every rollout overruns the depth cap. A
    /// search with no incumbent has nothing to stop on — and nothing to
    /// return — so it runs its ceiling out, whatever the patience, at no
    /// evaluator query, and hands back the root.
    #[test]
    fn a_search_that_never_scores_is_never_cut_short(
        seed in 0u64..1000,
        patience in 1usize..120,
        batch in proptest::sample::select(vec![1usize, 4, 16]),
        ceiling in 1usize..300,
    ) {
        let env = LoggedOnes::new(50);
        let budget = SearchBudget { iterations: ceiling, patience, max_depth: 5, ..SearchBudget::default() }
            .with_batch_size(batch);
        let result = Mcts::new(budget).run(&env, seed);
        prop_assert_eq!(result.iterations, ceiling);
        prop_assert!(!result.stopped_on_plateau);
        prop_assert_eq!(result.best_state, env.initial());
        prop_assert_eq!(result.best_reward, 0.0);
        prop_assert_eq!(result.evaluations, 0);
        prop_assert!(env.round_best.borrow().is_empty());
    }
}
