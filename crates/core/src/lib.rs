//! # omniboost
//!
//! A Rust reproduction of **OmniBoost: Boosting Throughput of
//! Heterogeneous Embedded Devices under Multi-DNN Workload**
//! (Karatzas & Anagnostopoulos, DAC 2023).
//!
//! OmniBoost is a lightweight, extensible multi-DNN manager: given a set
//! of networks to run concurrently on a heterogeneous embedded board
//! (GPU + big CPU + LITTLE CPU), it partitions each network's layers into
//! pipeline stages across the computing components so that *average
//! system throughput* is maximized. Two pieces cooperate (§IV):
//!
//! * a **throughput estimator** — a ~20k-parameter CNN over masked
//!   distributed-embedding tensors ([`omniboost_estimator`]);
//! * a **Monte-Carlo Tree Search** explorer over the assignment space,
//!   budgeted at 500 iterations / depth 100 ([`omniboost_mcts`]).
//!
//! This crate is the user-facing assembly: [`OmniBoost`] runs the
//! design-time flow (profile → generate dataset → train estimator) once,
//! then answers scheduling queries without retraining — the property the
//! paper highlights against the per-workload-retrained GA.
//!
//! The physical HiKey970 of the paper is replaced by a calibrated
//! simulator ([`omniboost_hw`]).
//!
//! ```no_run
//! use omniboost::{OmniBoost, OmniBoostConfig, Runtime};
//! use omniboost_hw::{Board, Scheduler, Workload};
//! use omniboost_models::ModelId;
//!
//! let board = Board::hikey970();
//! // Design time (once): profile, generate workloads, train the CNN.
//! let (mut scheduler, history) = OmniBoost::design_time(&board, OmniBoostConfig::default());
//! println!("estimator validation L1: {:.3}", history.final_validation_loss());
//!
//! // Run time (per query): explore with MCTS, deploy, measure.
//! let workload = Workload::from_ids([ModelId::Vgg19, ModelId::MobileNet, ModelId::ResNet50]);
//! let runtime = Runtime::new(board);
//! let outcome = runtime.run(&mut scheduler, &workload)?;
//! println!("T = {:.2} inf/s with mapping\n{}", outcome.report.average, outcome.mapping);
//! # Ok::<(), omniboost_hw::HwError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod config;
mod report;
mod runtime;
mod scheduler;

pub use config::OmniBoostConfig;
pub use omniboost_hw::EvalCacheStats;
pub use report::{format_comparison, ComparisonRow};
pub use runtime::{MemoStats, PreviousDeployment, RunOutcome, Runtime};
pub use scheduler::{OmniBoost, OracleOmniBoost};

// Re-export the component crates so downstream users need one dependency.
pub use omniboost_baselines as baselines;
pub use omniboost_estimator as estimator;
pub use omniboost_hw as hw;
pub use omniboost_mcts as mcts;
pub use omniboost_models as models;
pub use omniboost_telemetry as telemetry;
pub use omniboost_tensor as tensor;
