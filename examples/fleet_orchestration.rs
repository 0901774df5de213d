//! Fleet orchestration walkthrough: a heterogeneous fleet surviving a
//! board failure mid-trace, recovering through rebalancing, and serving
//! four tenants fairly.
//!
//! Builds a 3-board fleet (two full HiKey970s plus a degraded "lite"
//! board), generates a skewed-tenant Poisson trace and a fleet script
//! that kills board 0 mid-trace and joins a replacement later, then
//! replays it twice — jobs pinned to their admission board vs
//! migration-costed rebalancing — and prints the event story, the
//! evacuation accounting and the per-tenant summary table.
//!
//! Run with:
//! ```sh
//! cargo run --release --example fleet_orchestration
//! ```

use omniboost_hw::AnalyticModel;
use omniboost_models::JobEvent;
use omniboost_orchestrator::{
    tenant_tps_ratio, ArrivalProcess, ArrivalTrace, BoardProfile, FleetEvent, FleetScript,
    FleetSpec, FleetTraceEvent, OnlineConfig, OrchestratorConfig, OrchestratorReport,
    OrchestratorSim, PlacementPolicy, RebalanceConfig, TraceConfig,
};
use omniboost_serve::SearchBudget;

const HORIZON_MS: u64 = 45_000;

fn orchestrate(
    trace: &ArrivalTrace,
    script: &FleetScript,
    rebalance: Option<RebalanceConfig>,
) -> OrchestratorReport {
    // Two full boards + one thermally capped "lite" board: placement
    // compares true headroom (load normalized by each board's own peak
    // compute), and each profile keeps its own evaluation cache.
    let spec = FleetSpec::heterogeneous(vec![
        BoardProfile::hikey970(),
        BoardProfile::hikey970(),
        BoardProfile::hikey970_lite(),
    ]);
    let config = OrchestratorConfig {
        placement: PlacementPolicy::FairShare,
        online: OnlineConfig {
            cold_budget: SearchBudget::with_iterations(300),
            warm_budget: SearchBudget::with_iterations(100),
            ..OnlineConfig::default()
        },
        rebalance,
        ..OrchestratorConfig::warm()
    };
    let mut sim = OrchestratorSim::new(spec, config, AnalyticModel::new);
    sim.run(trace, script, HORIZON_MS)
}

fn print_story(report: &OrchestratorReport) {
    for tick in &report.ticks {
        for fe in &tick.fleet_events {
            let what = match fe.event {
                FleetEvent::BoardFail { board } => format!("board {board} FAILED"),
                FleetEvent::BoardDrain { board } => format!("board {board} draining"),
                FleetEvent::BoardJoin { .. } => {
                    format!("board joined as slot {}", fe.slot.unwrap_or(usize::MAX))
                }
                FleetEvent::BoardDegrade { board, .. } => format!("board {board} DEGRADED"),
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

fn print_summary(name: &str, report: &OrchestratorReport) {
    let s = &report.summary;
    println!("--- {name} ---");
    println!(
        "  {} events, {} placements, {} failures / {} joins, peak queue {}",
        s.events, s.placements, s.board_failures, s.board_joins, s.peak_queue_depth
    );
    println!(
        "  evacuation: {} jobs, {} lost, wait mean {:.0} ms (max {:.0} ms)",
        s.evacuated_jobs, s.lost_jobs, s.evacuation_wait.mean_ms, s.evacuation_wait.max_ms
    );
    println!(
        "  rebalancing: {} moves of {} proposals, {} layers migrated, priced gain {:.1} inf/s",
        s.rebalance_moves,
        s.rebalance_moves + s.rebalance_rejected,
        s.rebalance_migrated_layers,
        s.rebalance_gain_tps
    );
    println!(
        "  fleet throughput {:.2} inf/s (time-weighted), utilization {:?}",
        s.mean_aggregate_tps,
        s.board_utilization
            .iter()
            .map(|u| format!("{:.0}%", u * 100.0))
            .collect::<Vec<_>>()
    );
    println!("  per-tenant:  tenant  arrivals  placed  mean inf/s  queue-wait ms");
    for t in &s.tenants {
        println!(
            "               {:>6}  {:>8}  {:>6}  {:>10.2}  {:>13.0}",
            t.tenant, t.arrivals, t.placements, t.mean_tps, t.queue_wait.mean_ms
        );
    }
    println!(
        "  tenant max/min throughput ratio {:.2}",
        tenant_tps_ratio(&s.tenants)
    );
}

fn main() {
    // Skewed tenants: tenant 0 submits 70% of the jobs.
    let trace = ArrivalTrace::generate(
        ArrivalProcess::Poisson { rate_per_s: 0.8 },
        &TraceConfig {
            horizon_ms: HORIZON_MS,
            mean_lifetime_ms: 14_000.0,
            tenant_weights: vec![7.0, 1.0, 1.0, 1.0],
            ..TraceConfig::default()
        },
        11,
    );
    // The fleet script: board 0 dies a third in; a replacement (full
    // profile, pool index 0) joins at two thirds.
    let script = FleetScript::new(vec![
        FleetTraceEvent {
            at_ms: HORIZON_MS / 3,
            event: FleetEvent::BoardFail { board: 0 },
        },
        FleetTraceEvent {
            at_ms: 2 * HORIZON_MS / 3,
            event: FleetEvent::BoardJoin { profile: 0 },
        },
    ]);
    println!(
        "trace: {} events ({} arrivals) over {}s; board 0 fails at {}s, a spare joins at {}s\n",
        trace.len(),
        trace.arrivals(),
        HORIZON_MS / 1000,
        HORIZON_MS / 3000,
        2 * HORIZON_MS / 3000,
    );

    let pinned = orchestrate(&trace, &script, None);
    let rebalanced = orchestrate(&trace, &script, Some(RebalanceConfig::default()));

    println!("orchestrated event story (rebalancing on):");
    print_story(&rebalanced);
    println!();
    print_summary("jobs pinned to their admission board", &pinned);
    print_summary("migration-costed rebalancing", &rebalanced);

    assert_eq!(pinned.summary.lost_jobs, 0, "evacuation never loses jobs");
    assert_eq!(rebalanced.summary.lost_jobs, 0);
    println!(
        "\nrebalancing served {:+.1}% aggregate throughput vs pinned jobs, at {} extra migrated \
         layers",
        (rebalanced.summary.mean_aggregate_tps / pinned.summary.mean_aggregate_tps - 1.0) * 100.0,
        rebalanced.summary.rebalance_migrated_layers,
    );
}
