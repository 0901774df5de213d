//! # omniboost-estimator
//!
//! The throughput-estimation stack of OmniBoost (DAC 2023): the
//! distributed embeddings tensor (§IV-A), workload mask tensors, the
//! lightweight ResNet9-style CNN with ~20k trainable parameters and GELU
//! activations (§IV-B), plus dataset generation and the training loop
//! that reproduces Fig. 4.
//!
//! ## Data flow (Fig. 3 of the paper)
//!
//! 1. The [`EmbeddingTensor`] holds the normalized execution time of every
//!    layer of every dataset model on every computing component — built
//!    once at design time from kernel profiling.
//! 2. A queried workload mapping is turned into a [`MaskTensor`]; its
//!    element-wise product with the embedding tensor is the CNN input.
//! 3. The [`EstimatorNet`] CNN maps that masked tensor to three outputs —
//!    the normalized per-component throughput attribution, whose sum is
//!    the paper's average-throughput objective `T`.
//!
//! `EstimatorNet` is the training graph. A [`CnnEstimator`] lowers it
//! once, at construction, into an [`InferencePlan`] — fused
//! channel-major kernels, plan-owned buffers, no allocation once warm,
//! outputs `==` the graph's — and that plan is the only code its
//! `predict`/`evaluate` calls (scalar or batched) run: steps 2 and 3
//! become "write the masked cells straight into the plan's input, one
//! fused forward".
//!
//! For serving recurring traffic, [`EvalCache`]/[`CachedEstimator`]
//! (module [`cache`]) add a bounded, cross-decision LRU over
//! evaluator reports keyed on `(workload fingerprint, mapping)`, so
//! repeat queries skip the CNN forward entirely.
//!
//! ## Output attribution convention
//!
//! The paper trains the three outputs as "the average throughput for each
//! computing component". We make that precise: each DNN's measured
//! throughput is attributed to devices proportionally to the fraction of
//! its layers they host, then divided by the DNN count. With this
//! convention the three targets **sum exactly to `T`**, so a single
//! forward pass predicts both the per-component breakdown and the scalar
//! objective the MCTS maximizes.
//!
//! ```no_run
//! use omniboost_estimator::{CnnEstimator, DatasetConfig, TrainConfig};
//! use omniboost_hw::Board;
//!
//! let board = Board::hikey970();
//! let dataset = DatasetConfig::default().generate(&board);
//! let (estimator, history) = CnnEstimator::train(&board, &dataset, &TrainConfig::default());
//! assert!(history.final_validation_loss() < history.validation[0]);
//! # let _ = estimator;
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod board_cache;
pub mod bound;
pub mod cache;
mod dataset;
mod embedding;
mod estimator;
pub mod io;
mod mask;
mod metrics;
mod model;
mod plan;
mod preprocess;
mod train;

pub use board_cache::{BoardScopedCache, DecisionScope};
pub use bound::FeasibilityBound;
pub use cache::{CachedEstimator, EvalCache};
pub use dataset::{Dataset, DatasetConfig, Sample};
pub use embedding::EmbeddingTensor;
pub use estimator::CnnEstimator;
pub use io::LoadError;
pub use mask::{MaskTensor, UnknownModelError};
pub use metrics::{mean_absolute_error, mean_absolute_percentage_error, r_squared};
pub use model::{ActivationKind, EstimatorNet};
pub use omniboost_hw::EvalCacheStats;
pub use plan::InferencePlan;
pub use preprocess::TargetTransform;
pub use train::{LossKind, TrainConfig, TrainHistory};
