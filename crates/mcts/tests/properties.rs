//! Property-based tests over the tree search and scheduling environment.

use omniboost_hw::{AnalyticModel, Board, Device, Mapping, Workload};
use omniboost_mcts::{Environment, Mcts, SchedState, SchedulingEnv, SearchBudget};
use omniboost_models::ModelId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
}
