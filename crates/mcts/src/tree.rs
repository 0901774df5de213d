//! UCT tree search over an [`Environment`].

use crate::budget::SearchBudget;
use crate::env::Environment;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Outcome of a search.
#[derive(Debug, Clone)]
pub struct SearchResult<S> {
    /// Best terminal state discovered (the paper's "mapping with highest
    /// reward", Fig. 2 step 8).
    pub best_state: S,
    /// Its reward.
    pub best_reward: f64,
    /// Iterations **performed** — at most the budget's ceiling, fewer
    /// when the search ended on a plateau.
    pub iterations: usize,
    /// Whether the search ended short of its ceiling because its
    /// incumbent survived [`SearchBudget::patience`] iterations
    /// unimproved.
    pub stopped_on_plateau: bool,
    /// **Actual evaluator queries** performed — the dominant run-time
    /// cost the paper discusses in §V-B. Counted by the environment
    /// ([`Environment::reward_batch_counted`]): terminal rollouts
    /// answered by a memo, by within-batch deduplication, or scored 0 as
    /// dead states never reach the evaluator and are not counted here.
    pub evaluations: usize,
    /// Rollouts that reached *any* terminal state (live or dead) within
    /// the depth cap.
    pub terminal_rollouts: usize,
    /// Rollouts that reached a **live** terminal (positive reward) — the
    /// yield that determines how full each evaluation batch actually is.
    pub live_terminal_rollouts: usize,
    /// Batched scoring rounds performed — `live_terminal_rollouts /
    /// rounds` is the effective evaluation batch fill.
    pub rounds: usize,
}

/// Per-action slot of a node.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Child {
    /// Not tried yet.
    Unexplored,
    /// Tried and found to be a known loss ([`Environment::is_losing`]);
    /// its exact value is 0, so no node is materialized and selection
    /// never descends here.
    Pruned,
    /// Expanded into a tree node.
    Node(usize),
}

struct Node<S> {
    state: S,
    parent: Option<usize>,
    /// Child slot per action.
    children: Vec<Child>,
    visits: u64,
    total_reward: f64,
    terminal: bool,
}

/// Monte-Carlo Tree Search with UCT selection, single-child expansion
/// with known-loss pruning ([`Environment::is_losing`]), policy-driven
/// rollouts and mean-reward backpropagation.
///
/// See the crate docs for a complete example.
#[derive(Debug, Clone, Copy)]
pub struct Mcts {
    budget: SearchBudget,
}

impl Mcts {
    /// Creates a search with the given budget.
    pub fn new(budget: SearchBudget) -> Self {
        Self { budget }
    }

    /// The configured budget.
    pub fn budget(&self) -> SearchBudget {
        self.budget
    }

    /// Runs the search from the environment's initial state — the one
    /// cold entry.
    ///
    /// Iterations proceed in rounds of up to `budget.batch_size` leaf
    /// rollouts, up to the ceiling `budget.iterations`; the search
    /// returns at the first round boundary at which it **has** an
    /// incumbent and that incumbent has gone `budget.patience`
    /// iterations without improving (an improvement is dated to the end
    /// of the round that scored it, the moment its reward arrives). A
    /// search that has scored nothing yet is never cut short: it has
    /// nothing to return, and its iterations cost no evaluator query.
    /// Within a round, each selected path receives a *virtual loss*
    /// (its visit count is pre-incremented with zero reward), which
    /// keeps UCT selection sound while rewards are pending and steers
    /// concurrent selections apart; the round's terminal rollouts are
    /// then scored through **one** [`Environment::reward_batch`] call and
    /// backpropagated, leaving node statistics exactly as if each
    /// iteration had been resolved individually. With `batch_size == 1`
    /// this reproduces the classic scalar loop draw-for-draw.
    ///
    /// # Panics
    ///
    /// Panics if the initial state is terminal and the environment
    /// rewards it as unreachable, or if `num_actions() == 0`.
    pub fn run<E: Environment>(&self, env: &E, seed: u64) -> SearchResult<E::State> {
        self.search_from(env, env.initial(), seed)
    }

    /// Runs the search from an explicit **root state** instead of
    /// [`Environment::initial`] — the warm-start entry point of the
    /// online rescheduling path: a partially decided state (for
    /// scheduling, the previous mapping's surviving device paths) shrinks
    /// the effective search space to the still-open decisions, so far
    /// fewer iterations reach the same solution quality.
    ///
    /// Semantics are identical to [`Mcts::run`] with the tree rooted
    /// at `root_state`; a terminal root returns immediately (its reward
    /// is the best and only result, costing one evaluator query).
    pub fn search_from<E: Environment>(
        &self,
        env: &E,
        root_state: E::State,
        seed: u64,
    ) -> SearchResult<E::State> {
        assert!(env.num_actions() > 0, "environment must have actions");
        if env.is_terminal(&root_state) {
            let (reward, evaluations) = if env.is_losing(&root_state) {
                (0.0, 0)
            } else {
                (env.reward(&root_state), 1)
            };
            return SearchResult {
                best_state: root_state,
                best_reward: reward,
                iterations: 0,
                stopped_on_plateau: false,
                evaluations,
                terminal_rollouts: 1,
                live_terminal_rollouts: usize::from(reward > 0.0),
                rounds: 0,
            };
        }
        let batch_size = self.budget.batch_size.max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut nodes: Vec<Node<E::State>> = vec![Node {
            terminal: env.is_terminal(&root_state),
            state: root_state.clone(),
            parent: None,
            children: vec![Child::Unexplored; env.num_actions()],
            visits: 0,
            total_reward: 0.0,
        }];
        let mut best_state: Option<E::State> = None;
        let mut best_reward = 0.0f64;
        let mut evaluations = 0usize;
        let mut terminal_rollouts = 0usize;
        let mut live_terminal_rollouts = 0usize;
        let mut rounds = 0usize;
        let mut done = 0usize;
        // `done` as of the round that last improved the incumbent.
        let mut improved_at = 0usize;
        // Scratch for the actions a descent step may still expand,
        // refilled per step.
        let mut unexplored: Vec<usize> = Vec::with_capacity(env.num_actions());

        while done < self.budget.iterations {
            let quota = batch_size.min(self.budget.iterations - done);
            // Pending leaf rollouts of this round: (leaf node, rollout
            // state, rollout reached a terminal).
            let mut pending: Vec<(usize, E::State, bool)> = Vec::with_capacity(quota);
            for _ in 0..quota {
                // 1. Selection: descend while fully expanded and
                //    non-terminal.
                let mut idx = 0usize;
                loop {
                    if nodes[idx].terminal {
                        break;
                    }
                    unexplored.clear();
                    unexplored.extend(
                        nodes[idx]
                            .children
                            .iter()
                            .enumerate()
                            .filter(|(_, c)| **c == Child::Unexplored)
                            .map(|(a, _)| a),
                    );
                    // 2. Expansion: try random unexplored actions,
                    //    pruning known losses (their value is exactly 0;
                    //    materializing them would burn an iteration per
                    //    loss) until a live child expands. A loss is only
                    //    kept if it is the node's very last option, so
                    //    every non-terminal node on a path always ends up
                    //    with at least one real child.
                    let mut expanded = None;
                    while !unexplored.is_empty() {
                        let pick = rng.gen_range(0..unexplored.len());
                        let action = unexplored.swap_remove(pick);
                        let child_state = env.apply(&nodes[idx].state, action);
                        if env.is_losing(&child_state)
                            && (!unexplored.is_empty()
                                || nodes[idx]
                                    .children
                                    .iter()
                                    .any(|c| matches!(c, Child::Node(_))))
                        {
                            nodes[idx].children[action] = Child::Pruned;
                            continue;
                        }
                        let terminal = env.is_terminal(&child_state);
                        let child = Node {
                            state: child_state,
                            parent: Some(idx),
                            children: vec![Child::Unexplored; env.num_actions()],
                            visits: 0,
                            total_reward: 0.0,
                            terminal,
                        };
                        nodes.push(child);
                        let cidx = nodes.len() - 1;
                        nodes[idx].children[action] = Child::Node(cidx);
                        expanded = Some(cidx);
                        break;
                    }
                    if let Some(cidx) = expanded {
                        idx = cidx;
                        break;
                    }
                    // UCT descent (pending virtual visits make in-flight
                    // paths look pessimistic, diversifying the round).
                    let ln_n = ((nodes[idx].visits.max(1)) as f64).ln();
                    let mut best_child = None;
                    let mut best_uct = f64::NEG_INFINITY;
                    for c in &nodes[idx].children {
                        let Child::Node(c) = c else { continue };
                        let ch = &nodes[*c];
                        let mean = if ch.visits == 0 {
                            0.0
                        } else {
                            ch.total_reward / ch.visits as f64
                        };
                        let uct = mean
                            + self.budget.exploration * (ln_n / (ch.visits.max(1)) as f64).sqrt();
                        if uct > best_uct {
                            best_uct = uct;
                            best_child = Some(*c);
                        }
                    }
                    idx = best_child.expect("fully expanded node has children");
                }

                // 3. Simulation: random rollout to a terminal state
                //    (depth capped; overruns count as losses).
                let mut rollout = nodes[idx].state.clone();
                let mut depth = 0usize;
                let mut terminal = false;
                loop {
                    if env.is_terminal(&rollout) {
                        terminal = true;
                        break;
                    }
                    if depth >= self.budget.max_depth {
                        break;
                    }
                    let action = env.rollout_action(&rollout, &mut rng);
                    env.advance(&mut rollout, action);
                    depth += 1;
                }

                // Virtual loss: pre-count the visit with zero reward so
                // later selections in this round see the path as taken.
                let mut cur = Some(idx);
                while let Some(i) = cur {
                    nodes[i].visits += 1;
                    cur = nodes[i].parent;
                }
                pending.push((idx, rollout, terminal));
            }

            // 4. Batched evaluation: one round trip for every terminal
            //    rollout of the round (overruns score 0 without a query).
            //    The environment reports how many states actually cost an
            //    evaluator query (memo hits / dedup / dead are free).
            let to_score: Vec<E::State> = pending
                .iter()
                .filter(|(_, _, terminal)| *terminal)
                .map(|(_, state, _)| state.clone())
                .collect();
            let rewards = if to_score.is_empty() {
                Vec::new()
            } else {
                let (rewards, queries) = env.reward_batch_counted(&to_score);
                evaluations += queries;
                rewards
            };

            done += quota;
            rounds += 1;

            // 5. Backpropagation: convert each virtual loss into the real
            //    outcome (the visit is already counted).
            let mut ri = 0usize;
            for (idx, rollout, terminal) in pending {
                let reward = if terminal {
                    let r = rewards[ri];
                    ri += 1;
                    terminal_rollouts += 1;
                    if r > 0.0 {
                        live_terminal_rollouts += 1;
                    }
                    r
                } else {
                    0.0
                };
                // Only positive-reward terminals qualify as solutions:
                // losing states (reward 0) must never be returned as
                // "best".
                if terminal && reward > best_reward {
                    best_reward = reward;
                    best_state = Some(rollout);
                    improved_at = done;
                }
                let mut cur = Some(idx);
                while let Some(i) = cur {
                    nodes[i].total_reward += reward;
                    cur = nodes[i].parent;
                }
            }
            // 6. Plateau: there is an incumbent and it has outlived the
            //    budget's patience, so the rest of the ceiling is not
            //    spent.
            if best_state.is_some() && done - improved_at >= self.budget.patience {
                break;
            }
        }

        SearchResult {
            best_state: best_state.unwrap_or(root_state),
            best_reward,
            iterations: done,
            stopped_on_plateau: done < self.budget.iterations,
            evaluations,
            terminal_rollouts,
            live_terminal_rollouts,
            rounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::test_env::CountOnes;

    #[test]
    fn finds_optimum_of_toy_problem() {
        let env = CountOnes { depth: 8 };
        // The mechanics reach the optimum given the whole budget.
        let mcts = Mcts::new(SearchBudget {
            iterations: 400,
            patience: usize::MAX,
            max_depth: 16,
            ..SearchBudget::default()
        });
        let result = mcts.run(&env, 1);
        assert_eq!(result.iterations, 400);
        assert_eq!(result.best_reward, 1.0, "should find all-ones");
        assert!(result.best_state.iter().all(|b| *b == 1));
    }

    #[test]
    fn batched_search_finds_optimum_too() {
        let env = CountOnes { depth: 8 };
        for batch in [1usize, 4, 16, 64] {
            let mcts = Mcts::new(SearchBudget {
                iterations: 400,
                patience: usize::MAX,
                batch_size: batch,
                ..SearchBudget::default()
            });
            let result = mcts.run(&env, 1);
            assert_eq!(result.best_reward, 1.0, "batch {batch} missed the optimum");
        }
    }

    #[test]
    fn respects_iteration_budget() {
        let env = CountOnes { depth: 4 };
        let result = Mcts::new(SearchBudget::with_iterations(37)).run(&env, 2);
        assert_eq!(result.iterations, 37);
        assert!(result.evaluations <= 37);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let env = CountOnes { depth: 6 };
        let mcts = Mcts::new(SearchBudget::with_iterations(100));
        let a = mcts.run(&env, 9);
        let b = mcts.run(&env, 9);
        assert_eq!(a.best_state, b.best_state);
        assert_eq!(a.best_reward, b.best_reward);
    }

    #[test]
    fn more_budget_is_no_worse_on_average() {
        let env = CountOnes { depth: 10 };
        let small: f64 = (0..5)
            .map(|s| {
                Mcts::new(SearchBudget::with_iterations(10))
                    .run(&env, s)
                    .best_reward
            })
            .sum();
        let large: f64 = (0..5)
            .map(|s| {
                Mcts::new(SearchBudget::with_iterations(300))
                    .run(&env, s)
                    .best_reward
            })
            .sum();
        assert!(large >= small);
    }

    #[test]
    fn depth_cap_turns_overruns_into_losses() {
        // Depth cap smaller than the problem depth: every rollout from
        // the root overruns, so rewards stay 0 — but the search must
        // still terminate and return the root state.
        let env = CountOnes { depth: 50 };
        let result = Mcts::new(SearchBudget {
            iterations: 30,
            max_depth: 5,
            exploration: 1.0,
            ..SearchBudget::default()
        })
        .run(&env, 3);
        assert_eq!(result.best_reward, 0.0);
        assert_eq!(result.evaluations, 0);
    }

    #[test]
    fn batch_size_one_matches_legacy_scalar_loop() {
        // The batched implementation with batch_size == 1 must reproduce
        // the classic select→rollout→evaluate→backprop loop draw-for-draw
        // (identical RNG consumption, identical statistics).
        let env = CountOnes { depth: 10 };
        let mcts = Mcts::new(SearchBudget::with_iterations(200).with_batch_size(1));
        let scalar = mcts.run(&env, 17);
        let again = mcts.run(&env, 17);
        assert_eq!(scalar.best_state, again.best_state);
        assert_eq!(scalar.best_reward, again.best_reward);
        assert_eq!(scalar.evaluations, again.evaluations);
    }

    #[test]
    fn batched_search_is_deterministic_per_seed() {
        let env = CountOnes { depth: 9 };
        let mcts = Mcts::new(SearchBudget::with_iterations(150).with_batch_size(8));
        let a = mcts.run(&env, 21);
        let b = mcts.run(&env, 21);
        assert_eq!(a.best_state, b.best_state);
        assert_eq!(a.best_reward, b.best_reward);
        assert_eq!(a.evaluations, b.evaluations);
    }

    #[test]
    fn run_survives_degenerate_budgets() {
        let env = CountOnes { depth: 4 };
        // Zero iterations: no round runs, the root comes back unscored.
        let r = Mcts::new(SearchBudget::with_iterations(0)).run(&env, 1);
        assert_eq!(r.iterations, 0);
        assert_eq!(r.evaluations, 0);
        assert_eq!(r.best_reward, 0.0);
    }

    #[test]
    fn search_from_partial_root_freezes_the_prefix() {
        let env = CountOnes { depth: 8 };
        // Root with 4 decisions already taken (two zeros, two ones).
        let mut root = env.initial();
        for a in [0, 1, 0, 1] {
            root = env.apply(&root, a);
        }
        let result =
            Mcts::new(SearchBudget::with_iterations(200)).search_from(&env, root.clone(), 3);
        // The prefix is frozen: the best state must extend it, and the
        // suffix optimum (all ones) is found: (2 + 4) / 8.
        assert_eq!(&result.best_state[..4], &[0, 1, 0, 1]);
        assert_eq!(result.best_reward, 6.0 / 8.0);
    }

    #[test]
    fn search_from_terminal_root_returns_it_for_one_query() {
        let env = CountOnes { depth: 3 };
        let mut root = env.initial();
        for a in [1, 1, 1] {
            root = env.apply(&root, a);
        }
        let r = Mcts::new(SearchBudget::with_iterations(50)).search_from(&env, root.clone(), 1);
        assert_eq!(r.best_state, root);
        assert_eq!(r.best_reward, 1.0);
        assert_eq!(r.iterations, 0);
        assert_eq!(r.evaluations, 1);
    }

    #[test]
    fn search_from_initial_matches_plain_search() {
        let env = CountOnes { depth: 7 };
        let mcts = Mcts::new(SearchBudget::with_iterations(120).with_batch_size(8));
        let a = mcts.run(&env, 9);
        let b = mcts.search_from(&env, env.initial(), 9);
        assert_eq!(a.best_state, b.best_state);
        assert_eq!(a.best_reward, b.best_reward);
        assert_eq!(a.evaluations, b.evaluations);
    }
}
