//! # omniboost-serve
//!
//! The online serving subsystem: everything the one-shot evaluation of
//! the paper leaves out of a production multi-DNN manager.
//!
//! The paper (and `omniboost::Runtime`) schedules a *fixed* mix once and
//! measures it. A deployed system faces **changing traffic**: DNN jobs
//! arrive and depart over time, across more than one board. This crate
//! layers an event-driven scheduling runtime on top of `omniboost`:
//!
//! * **One tick loop** ([`ServingEngine`]) — stamped inputs accumulate
//!   into an open tick; closing it drains freed capacity, reschedules
//!   dirty boards and records the tick. Trace replay ([`ServingSim`]),
//!   the orchestrator's trace + fleet-script replay and the RPC daemon
//!   are drivers of this one machine, so they share every admission
//!   and accounting behaviour by construction.
//! * **Arrival traces** — seeded, reproducible event sequences from
//!   Poisson / bursty / diurnal-ramp generators
//!   ([`omniboost_models::scenarios`]), replayed by a deterministic
//!   discrete-time driver ([`ServingSim`]).
//! * **Warm-started rescheduling** ([`ReschedulePolicy::WarmStart`]) —
//!   unchanged mixes answer from the runtime's decision memo; a
//!   single-job delta seeds the MCTS root from the previous mapping's
//!   surviving device paths (`SchedState::from_partial_mapping`) so the
//!   search explores only the open decisions under a fraction of the
//!   cold budget; *migration cost* (layers whose device changed) is
//!   tracked next to throughput, exposing the latency/stability
//!   frontier.
//! * **A fleet** ([`PlacementPolicy`]) — N boards behind a placement
//!   policy (least-loaded by estimated throughput headroom, or
//!   round-robin), per-board schedulers: a tick's dirty boards
//!   reschedule one after another, in slot order.
//! * **An admission mempool** ([`Mempool`]) — the one intake path
//!   shared with the orchestrator, a fixed queue with no options:
//!   rejects unservable jobs on submit, drains [`SloClass::Guaranteed`]
//!   work first and then arrival order, and probes admissibility once
//!   per model bucket instead of walking the queue linearly.
//! * **Serving metrics** ([`ServingReport`]) — per-event decision
//!   latency by kind, queue depth, migration churn, per-board
//!   utilization and time-weighted aggregate throughput.
//! * **Evaluation caches** — each board's scheduler memoizes evaluator
//!   answers per mapping across decisions for as long as it lives. No
//!   cache outlives the process: what persists is the trained estimator
//!   (`CnnEstimator::save`), and a restarted daemon boots cold.
//!
//! See `examples/serving_sim.rs` for a runnable walkthrough and
//! `crates/bench/benches/serving.rs` for the cold-vs-warm measurement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod fleet;
mod mempool;
mod scheduler;
mod sim;
mod slo;
mod tenants;

pub use engine::ServingEngine;
pub use fleet::{BoardSlot, Fleet, PlacementPolicy};
pub use mempool::{Drained, Mempool, MempoolStats, SubmitOutcome};
pub use scheduler::{DecisionKind, OnlineConfig, OnlineScheduler, ReschedulePolicy, WarmHint};
pub use sim::{
    BoardDecision, LatencyStats, ServingConfig, ServingReport, ServingSim, ServingSummary,
    TickRecord,
};
pub use slo::{SloAccumulator, SloSummary};
pub use tenants::{tenant_tps_ratio, TenantAccumulator, TenantSummary};

// Re-exported so serving users reach the observability handle without
// a separate dependency edge.
pub use omniboost_telemetry::{LogHistogram, Telemetry};

// Re-export the trace machinery (and the budget type OnlineConfig is
// built from) so serving users need one import path.
pub use omniboost_mcts::SearchBudget;
pub use omniboost_models::{
    ArrivalProcess, ArrivalTrace, JobEvent, JobSpec, SloClass, TraceConfig,
};
