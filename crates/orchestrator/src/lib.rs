//! # omniboost-orchestrator
//!
//! The fleet-orchestration control plane above `omniboost-serve`: where
//! the serving runtime schedules jobs **within** a fixed fleet, this
//! crate owns the fleet itself.
//!
//! There is one tick loop in the stack and it is not here:
//! [`OrchestratorSim`] is a replay driver over
//! [`omniboost_serve::ServingEngine`], the same engine `ServingSim` and
//! the RPC daemon drive. The orchestrator merges an arrival trace, a
//! fleet script and periodic rebalance stamps into that loop and
//! contributes policy — what each fleet event does, and what runs after
//! a tick's boards have rescheduled:
//!
//! * **Heterogeneous fleets** ([`FleetSpec`], [`BoardProfile`]) — mix
//!   full and degraded board profiles (e.g. [`omniboost_hw::Board::hikey970`]
//!   next to [`omniboost_hw::Board::hikey970_lite`]); placement compares
//!   true throughput headroom because load scores normalize by each
//!   board's own peak compute, and evaluation caches are keyed **per
//!   profile** (a cache is flushed when its board's fingerprint
//!   changes).
//! * **Lifecycle events** ([`omniboost_models::FleetEvent`]) — seeded
//!   scripts of board failures, graceful drains and joins interleave
//!   with the arrival trace. On fail/drain every resident job is
//!   **evacuated** heaviest model first through the engine's
//!   admission-gated placement path (re-placed now or queued — never
//!   silently lost; the conservation invariant is proptested), and
//!   evacuation latency is a first-class metric. Joined boards
//!   immediately serve placements, queue drains and rebalancing.
//! * **Partial failures** — `BoardDegrade` swaps a board to a weaker
//!   profile from [`FleetSpec::degrade_profiles`] **in place**:
//!   residents the weaker profile still admits stay put and re-price on
//!   the new hardware (migrating only when the priced gain clears the
//!   rebalancer's bar), only the overflow evicts. `BoardRecover`
//!   restores the original hardware. A board that comes up (join,
//!   flap rejoin, degrade or recover) gets a fresh scheduler with an
//!   empty evaluation cache, as every board does at t = 0.
//! * **Migration-costed rebalancing** ([`RebalanceConfig`]) — a
//!   periodic step proposes moving the newest job from the most-loaded
//!   board to the least-loaded one, prices both sides with warm-started
//!   speculative rescheduling ([`omniboost::Runtime::run_speculative`] —
//!   the decision memo is never polluted by rejected proposals), and
//!   commits only when the fleet-level throughput gain exceeds a
//!   configurable multiple of the migrated-layer count. Imbalance
//!   thresholds and a post-move cooldown keep the fleet from thrashing.
//! * **Tenant fairness** — per-tenant throughput/queue-wait aggregation
//!   ([`omniboost_serve::TenantSummary`]) plus the
//!   [`omniboost_serve::PlacementPolicy::FairShare`] policy, which
//!   reserves the emptiest board for tenants below their fair share of
//!   attained throughput.
//!
//! See `examples/fleet_orchestration.rs` for a walkthrough and
//! `crates/bench/benches/fleet.rs` for the measured acceptance bars
//! (rebalance recovery, zero-loss failure handling, fairness ratio).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod rebalance;
mod sim;
mod spec;

pub use rebalance::{RebalanceConfig, RebalanceMove};
pub use sim::{
    FleetEventRecord, OrchestratorConfig, OrchestratorReport, OrchestratorSim, OrchestratorSummary,
    OrchestratorTick,
};
pub use spec::{BoardProfile, FleetSpec};

// One import path for orchestrated-serving users.
pub use omniboost_models::{
    ArrivalProcess, ArrivalTrace, FleetEvent, FleetScript, FleetScriptConfig, FleetTraceEvent,
    TraceConfig,
};
pub use omniboost_serve::{
    tenant_tps_ratio, Mempool, OnlineConfig, PlacementPolicy, ReschedulePolicy, SloClass,
    SloSummary, TenantSummary,
};
// Observability handle, re-exported so orchestrator users can inject a
// recorder ([`OrchestratorSim::set_telemetry`]) without a direct
// dependency edge on the telemetry crate.
pub use omniboost_telemetry::{LogHistogram, Telemetry};
