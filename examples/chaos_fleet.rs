//! Chaos walkthrough: a fleet surviving partial failures — an in-place
//! board degrade (GPU brown-out), a recovery, and a fail→rejoin flap.
//!
//! Builds a homogeneous 3-board fleet, scripts a `BoardDegrade` that
//! swaps board 0 to the GPU-masked profile mid-trace (residents the
//! weaker profile still admits stay put, re-priced in place), a
//! `BoardRecover` that restores the healthy hardware, and a flap on
//! board 1 whose evacuees re-place or queue and whose rejoin takes
//! placements again. Asserts that no job is lost.
//!
//! Run with:
//! ```sh
//! cargo run --release --example chaos_fleet
//! ```

use omniboost_hw::AnalyticModel;
use omniboost_models::JobEvent;
use omniboost_orchestrator::{
    ArrivalProcess, ArrivalTrace, BoardProfile, FleetEvent, FleetScript, FleetSpec,
    FleetTraceEvent, OnlineConfig, OrchestratorConfig, OrchestratorReport, OrchestratorSim,
    RebalanceConfig, TraceConfig,
};
use omniboost_serve::SearchBudget;

const HORIZON_MS: u64 = 45_000;

fn chaos_script() -> FleetScript {
    FleetScript::new(vec![
        // Board 0 browns out: GPU masked, concurrency cap tightens.
        FleetTraceEvent {
            at_ms: 12_000,
            event: FleetEvent::BoardDegrade {
                board: 0,
                profile: 1,
            },
        },
        // Board 1 flaps: hard failure, same profile rejoins 4 s later.
        FleetTraceEvent {
            at_ms: 20_000,
            event: FleetEvent::BoardFail { board: 1 },
        },
        FleetTraceEvent {
            at_ms: 24_000,
            event: FleetEvent::BoardJoin { profile: 0 },
        },
        // Board 0's healthy hardware comes back.
        FleetTraceEvent {
            at_ms: 32_000,
            event: FleetEvent::BoardRecover { board: 0 },
        },
    ])
}

fn orchestrate(trace: &ArrivalTrace) -> OrchestratorReport {
    let config = OrchestratorConfig {
        online: OnlineConfig {
            cold_budget: SearchBudget::with_iterations(300),
            warm_budget: SearchBudget::with_iterations(100),
            ..OnlineConfig::default()
        },
        rebalance: Some(RebalanceConfig::default()),
        ..OrchestratorConfig::warm()
    };
    let mut sim = OrchestratorSim::new(
        FleetSpec::homogeneous(3, BoardProfile::hikey970()),
        config,
        AnalyticModel::new,
    );
    sim.run(trace, &chaos_script(), HORIZON_MS)
}

fn print_story(report: &OrchestratorReport) {
    for tick in &report.ticks {
        for fe in &tick.fleet_events {
            let what = match fe.event {
                FleetEvent::BoardFail { board } => format!("board {board} FAILED"),
                FleetEvent::BoardDrain { board } => format!("board {board} draining"),
                FleetEvent::BoardJoin { .. } => {
                    format!("board rejoined as slot {}", fe.slot.unwrap_or(usize::MAX))
                }
                FleetEvent::BoardDegrade { board, .. } => {
                    format!("board {board} DEGRADED in place (GPU down)")
                }
                FleetEvent::BoardRecover { board } => format!("board {board} recovered"),
            };
            println!(
                "  t={:>6}ms  ! {what} — {} evacuated ({} re-placed, {} queued)",
                tick.at_ms,
                fe.evacuated.len(),
                fe.relocated,
                fe.queued
            );
        }
        for e in &tick.events {
            match e {
                JobEvent::Arrive(j) => println!(
                    "  t={:>6}ms  + job {} ({}, tenant {})",
                    tick.at_ms, j.id, j.model, j.tenant
                ),
                JobEvent::Depart { job_id } => {
                    println!("  t={:>6}ms  - job {job_id}", tick.at_ms)
                }
            }
        }
        for mv in &tick.rebalances {
            println!(
                "  t={:>6}ms  ~ rebalance: job {} board {} -> {} (+{:.1} inf/s for {} layers)",
                tick.at_ms, mv.job_id, mv.from, mv.to, mv.gain_tps, mv.migrated_layers
            );
        }
    }
}

fn print_summary(report: &OrchestratorReport) {
    let s = &report.summary;
    println!(
        "  {} degrades / {} recovers / {} failures / {} joins; {} evacuated \
         ({} by degrade), {} lost",
        s.board_degrades,
        s.board_recovers,
        s.board_failures,
        s.board_joins,
        s.evacuated_jobs,
        s.degrade_evictions,
        s.lost_jobs,
    );
    println!(
        "  fleet throughput {:.2} inf/s (time-weighted), evacuation wait mean {:.0} ms",
        s.mean_aggregate_tps, s.evacuation_wait.mean_ms,
    );
}

fn main() {
    // A busy fleet: boards sit near their admission caps when the
    // degrade lands, so evacuation headroom is scarce — the regime the
    // in-place policy is built for.
    let trace = ArrivalTrace::generate(
        ArrivalProcess::Poisson { rate_per_s: 1.4 },
        &TraceConfig {
            horizon_ms: HORIZON_MS,
            mean_lifetime_ms: 30_000.0,
            ..TraceConfig::default()
        },
        11,
    );
    println!(
        "trace: {} events ({} arrivals) over {}s; degrade @12s, flap @20s->24s, recover @32s\n",
        trace.len(),
        trace.arrivals(),
        HORIZON_MS / 1000,
    );

    let report = orchestrate(&trace);

    println!("chaos event story:");
    print_story(&report);
    println!();
    print_summary(&report);

    assert_eq!(report.summary.lost_jobs, 0, "chaos never loses jobs");
}
