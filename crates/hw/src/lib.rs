//! # omniboost-hw
//!
//! Heterogeneous embedded board model for the OmniBoost (DAC 2023)
//! reproduction — the stand-in for the paper's HiKey970 development board.
//!
//! The paper evaluates on physical silicon (Mali-G72 MP12 GPU + quad
//! Cortex-A73 + quad Cortex-A53) running DNN layers through OpenCL and the
//! ARM Compute Library. We do not have that board, so this crate provides
//! a **calibrated simulator** that reproduces the two observables the
//! scheduler interacts with:
//!
//! 1. *Design-time*: per-layer execution time on each computing component
//!    (`B_l^α` of Eq. 1), via a roofline kernel cost model
//!    ([`cost`], [`profile`]).
//! 2. *Run-time*: achieved throughput of a concurrently executing
//!    multi-DNN pipeline mapping, via a processor-sharing discrete-event
//!    simulator ([`des`]) and a fast analytic fixed-point solver
//!    ([`analytic`]) that stops iterating, exactly, once its answer is
//!    fixed ([`fixed_point`]).
//!
//! Crucially, the simulator reproduces the phenomena the paper's results
//! hinge on: **GPU saturation** under co-located DNNs (the source of the
//! ×4.6 speedup in Fig. 5b), **inter-stage transfer costs** (the reason
//! pipelines with more stages than devices are "losing" states), and the
//! board becoming **unresponsive beyond five concurrent DNNs** (§V-A).
//!
//! ```
//! use omniboost_hw::{Board, Device, Mapping, ThroughputModel, Workload};
//! use omniboost_models::ModelId;
//!
//! let board = Board::hikey970();
//! let workload = Workload::from_ids([ModelId::AlexNet, ModelId::MobileNet]);
//! let mapping = Mapping::all_on(&workload, Device::Gpu);
//! let report = board.simulator().evaluate(&workload, &mapping)?;
//! assert!(report.average > 0.0);
//! # Ok::<(), omniboost_hw::HwError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
mod board;
pub mod cost;
pub mod des;
mod device;
mod error;
pub mod fixed_point;
mod fnv;
mod mapping;
mod noise;
pub mod profile;
mod scheduler;
mod workload;

pub use analytic::AnalyticModel;
pub use board::{Board, BusSpec, SaturationModel};
pub use des::{DesConfig, DesSimulator, UtilizationReport};
pub use device::{Device, DeviceKind, DeviceSpec};
pub use error::HwError;
pub use fnv::Fnv1a;
pub use mapping::{Mapping, Segment};
pub use noise::NoiseModel;
pub use profile::LayerTimeTable;
pub use scheduler::{EvalCacheStats, Scheduler, SearchEffort, ThroughputModel, ThroughputReport};
pub use workload::Workload;
