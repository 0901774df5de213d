//! The environment abstraction the tree search explores.

use rand::{Rng, RngCore};

/// Terminal status of a state.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Status {
    /// More decisions remain.
    Ongoing,
    /// The episode ended; the payload is the reward.
    Terminal {
        /// Reward of the terminal state (higher is better; losing states
        /// receive 0).
        reward: f64,
    },
}

/// A deterministic, fixed-branching decision process.
///
/// States are cheap to clone; `apply` is pure (no interior mutation of
/// the environment), which lets the search replay and branch freely.
pub trait Environment {
    /// State type.
    type State: Clone;

    /// The initial (empty-assignment) state.
    fn initial(&self) -> Self::State;

    /// Number of actions available at every decision point (the device
    /// count for scheduling).
    fn num_actions(&self) -> usize;

    /// Applies an action, producing the successor state.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `action >= num_actions()` or if the
    /// state is terminal.
    fn apply(&self, state: &Self::State, action: usize) -> Self::State;

    /// Applies an action **in place**: afterwards `state` equals
    /// `self.apply(&before, action)`. Simulation rollouts walk one state
    /// forward and never look back, so environments whose states own
    /// heap data override this to skip the per-step clone; the default
    /// goes through [`Environment::apply`].
    ///
    /// # Panics
    ///
    /// As [`Environment::apply`].
    fn advance(&self, state: &mut Self::State, action: usize) {
        *state = self.apply(state, action);
    }

    /// Whether the state is terminal (win or loss).
    fn is_terminal(&self, state: &Self::State) -> bool;

    /// Whether the state is a **known loss**: terminal with reward 0,
    /// decidable without consulting the evaluator (for scheduling, the
    /// §IV-C stage-cap rule).
    ///
    /// The search prunes losing children at expansion time — their value
    /// is exact, so spending iterations on them is pure waste, and
    /// pruning is sound because a loss can never score above any live
    /// terminal. Environments without cheap loss detection keep the
    /// default `false` (nothing is pruned).
    ///
    /// Implementations must guarantee `is_losing(s) ⇒ is_terminal(s) &&
    /// reward(s) == 0`.
    fn is_losing(&self, state: &Self::State) -> bool {
        let _ = state;
        false
    }

    /// Reward of a terminal state. Calling this is the expensive step —
    /// for scheduling it invokes the throughput estimator — so the search
    /// counts these calls against its budget.
    ///
    /// # Panics
    ///
    /// Implementations may panic on non-terminal states.
    fn reward(&self, state: &Self::State) -> f64;

    /// Rewards a batch of terminal states in one call.
    ///
    /// The batched search hands every pending leaf rollout of a round to
    /// this hook. The default loops over [`Environment::reward`];
    /// environments whose evaluator has a cheap batch path (the CNN
    /// estimator's minibatched forward, the simulator's parallel batch)
    /// override it. Element `i` must equal `self.reward(&states[i])`.
    fn reward_batch(&self, states: &[Self::State]) -> Vec<f64> {
        states.iter().map(|s| self.reward(s)).collect()
    }

    /// Like [`Environment::reward_batch`], but also reports how many of
    /// the rewards actually **queried the evaluator** (as opposed to
    /// being answered by a memo, a within-batch duplicate, or a dead
    /// state's constant 0).
    ///
    /// The search uses this to account estimator work truthfully: a
    /// terminal rollout is not an evaluation if no evaluator ran for it.
    /// The default assumes every state costs one query, matching the
    /// default `reward_batch` loop; environments with memoization or
    /// free-scoring states override it alongside `reward_batch`.
    fn reward_batch_counted(&self, states: &[Self::State]) -> (Vec<f64>, usize) {
        (self.reward_batch(states), states.len())
    }

    /// Draws the next action during a *simulation rollout*.
    ///
    /// Defaults to uniform random. Environments with sparse winning
    /// regions (like stage-capped scheduling, where uniformly random
    /// device choices alternate pipeline stages into the losing rule
    /// almost surely) override this with heavier playout policies (the
    /// scheduling environment's stage-budget-aware rule); tree
    /// *expansion* still enumerates every action, so optimality pressure
    /// is unaffected.
    fn rollout_action(&self, state: &Self::State, rng: &mut dyn RngCore) -> usize {
        let _ = state;
        rng.gen_range(0..self.num_actions())
    }

    /// Status helper combining the two queries.
    fn status(&self, state: &Self::State) -> Status {
        if self.is_terminal(state) {
            Status::Terminal {
                reward: self.reward(state),
            }
        } else {
            Status::Ongoing
        }
    }
}

#[cfg(test)]
pub(crate) mod test_env {
    use super::*;

    /// A toy environment: binary decisions of fixed depth; reward is the
    /// fraction of 1-bits, so the optimum is all-ones.
    pub struct CountOnes {
        pub depth: usize,
    }

    impl Environment for CountOnes {
        type State = Vec<usize>;

        fn initial(&self) -> Vec<usize> {
            Vec::new()
        }

        fn num_actions(&self) -> usize {
            2
        }

        fn apply(&self, state: &Vec<usize>, action: usize) -> Vec<usize> {
            assert!(action < 2);
            let mut s = state.clone();
            s.push(action);
            s
        }

        fn is_terminal(&self, state: &Vec<usize>) -> bool {
            state.len() >= self.depth
        }

        fn reward(&self, state: &Vec<usize>) -> f64 {
            assert!(self.is_terminal(state));
            state.iter().sum::<usize>() as f64 / self.depth as f64
        }
    }

    #[test]
    fn default_counted_batch_charges_every_state() {
        let env = CountOnes { depth: 2 };
        let t = env.apply(&env.apply(&env.initial(), 1), 0);
        let (rewards, queries) = env.reward_batch_counted(&[t.clone(), t]);
        assert_eq!(queries, 2, "default accounting is one query per state");
        assert_eq!(rewards.len(), 2);
    }

    #[test]
    fn toy_env_contract() {
        let env = CountOnes { depth: 3 };
        let s0 = env.initial();
        assert!(!env.is_terminal(&s0));
        let s = env.apply(&env.apply(&env.apply(&s0, 1), 1), 0);
        assert!(env.is_terminal(&s));
        assert!((env.reward(&s) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(env.status(&s0), Status::Ongoing);
    }
}
