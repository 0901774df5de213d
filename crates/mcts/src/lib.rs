//! # omniboost-mcts
//!
//! Budgeted Monte-Carlo Tree Search and the multi-DNN scheduling
//! environment of OmniBoost (§IV-C of the DAC 2023 paper).
//!
//! The paper frames layer-to-device assignment as a game tree:
//!
//! * **Actions** — one per computing component (3 on the HiKey970).
//! * **Decision order** — the first decision for each DNN places the
//!   *whole* network on a device; subsequent decisions re-place layers
//!   2..n one at a time; DNNs are scheduled one after another (their
//!   order is irrelevant since they ultimately run concurrently).
//! * **Winning state** — every layer of every DNN assigned.
//! * **Losing state** — a pipeline with more stages than the device count
//!   `x` (redundant stages mean extra transfers and delay). The search
//!   prunes such children at expansion time ([`Environment::is_losing`]):
//!   their reward is exactly 0 without consulting the evaluator, and a
//!   decided prefix's stages can never merge again, so pruning is sound.
//! * **Evaluation** — completed mappings are scored by a throughput
//!   estimator; the search is budgeted (the paper uses 500 iterations,
//!   depth 100). [`SearchResult::evaluations`] counts the queries that
//!   actually reached the evaluator (memo hits, within-batch duplicates
//!   and dead states are free).
//! * **Budget** — [`SearchBudget::iterations`] is a **ceiling**, not a
//!   target: the search ends at the first round boundary at which it has
//!   an incumbent that has survived [`SearchBudget::patience`]
//!   iterations unimproved, because past that point the evaluator's
//!   reward still creeps up while the measured throughput of the chosen
//!   mapping barely does. A search that has scored nothing yet always
//!   runs on. [`SearchResult::iterations`] reports what was performed
//!   and [`SearchResult::stopped_on_plateau`] why the search ended;
//!   `patience: usize::MAX` reproduces the paper's fixed budget.
//! * **Rollouts** — simulation playouts use the stage-budget-aware
//!   policy, which provably reaches a live terminal from any live state,
//!   so the batched pipeline's evaluation batches actually fill. (The
//!   historical 90%-sticky A/B baseline was removed once nothing
//!   benchmarked against it.)
//! * **One tree, two entries** — [`Mcts::run`] searches cold from
//!   [`Environment::initial`]; [`Mcts::search_from`] roots the same tree
//!   at an explicit state (the warm start):
//!   [`SchedState::from_partial_mapping`] builds that root from a
//!   previous decision's surviving device paths, so online rescheduling
//!   after a single-job workload delta explores only the new DNN's
//!   decisions instead of searching cold.
//!
//! The search ([`Mcts`]) is generic over an [`Environment`], and the
//! scheduling environment ([`SchedulingEnv`]) is generic over any
//! [`omniboost_hw::ThroughputModel`], so the same code runs with the CNN
//! estimator (the paper's configuration) or with the simulator as an
//! oracle (the estimator-vs-oracle ablation).
//!
//! ```
//! use omniboost_hw::{AnalyticModel, Board, Workload};
//! use omniboost_mcts::{Mcts, SchedulingEnv, SearchBudget};
//! use omniboost_models::ModelId;
//!
//! let board = Board::hikey970();
//! let workload = Workload::from_ids([ModelId::AlexNet, ModelId::SqueezeNet]);
//! let evaluator = AnalyticModel::new(board);
//! let env = SchedulingEnv::new(&workload, &evaluator, 3)?;
//! let result = Mcts::new(SearchBudget::default()).run(&env, 77);
//! let mapping = env.mapping_of(&result.best_state);
//! assert!(mapping.validate(&workload).is_ok());
//! # Ok::<(), omniboost_hw::HwError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod budget;
mod env;
mod sched_env;
mod tree;

pub use budget::SearchBudget;
pub use env::{Environment, Status};
pub use sched_env::{SchedState, SchedulingEnv};
pub use tree::{Mcts, SearchResult};
