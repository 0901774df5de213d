//! Fleet-scale bench: orchestrator overhead as the fleet grows.
//!
//! The bars: with placement scanning the slots' running totals,
//! batched rebalancing and sharded cells, **orchestrator overhead per
//! board per tick at 256 boards stays within 2× of the 16-board
//! figure** (near-flat), and no job is ever lost under scripted
//! fail/drain/join events. Both are asserted, so a run that breaks one
//! fails: the lost-jobs bar in every mode (`make perf-smoke` included),
//! the 2× bar in the full run only.
//!
//! Each cell runs a ~2000-job Poisson trace against {16, 64, 256}
//! boards (3:1 hikey970 : hikey970-lite). The arrival rate is fixed so
//! every cell replays the same traffic; the mean job lifetime scales
//! with the board count so steady-state pressure is ~3.5 resident jobs
//! per board in every cell — the overhead comparison then isolates the
//! control plane, not queue blowup at the small end.
//!
//! Overhead is wall-clock run time minus time spent inside per-board
//! rescheduling searches (the intrinsic work that exists at any fleet
//! size), divided by ticks × boards. Placement latency p99 comes from
//! the per-decision wall clock the orchestrator records.
//!
//! Writes `BENCH_fleet_scale.json`. `SMOKE=1` (the CI mode) shrinks
//! board counts and the trace and **does not** rewrite the snapshot.

use omniboost_bench::{config_digest, trace_config_pairs};
use omniboost_hw::AnalyticModel;
use omniboost_models::{
    ArrivalProcess, ArrivalTrace, FleetEvent, FleetScript, FleetTraceEvent, TraceConfig,
};
use omniboost_orchestrator::{
    BoardProfile, CellConfig, FleetSpec, OrchestratorConfig, OrchestratorReport, OrchestratorSim,
    PlacementPolicy, RebalanceConfig,
};
use omniboost_serve::{OnlineConfig, SearchBudget};

struct BenchScale {
    horizon_ms: u64,
    rate_per_s: f64,
    board_counts: &'static [usize],
    cell_size: usize,
    cold_iterations: usize,
    warm_iterations: usize,
}

impl BenchScale {
    fn full() -> Self {
        Self {
            horizon_ms: 120_000,
            rate_per_s: 16.7, // ~2000 arrivals over the horizon
            board_counts: &[16, 64, 256],
            cell_size: 16,
            cold_iterations: 120,
            warm_iterations: 40,
        }
    }

    fn smoke() -> Self {
        Self {
            horizon_ms: 30_000,
            rate_per_s: 5.0, // ~150 arrivals
            board_counts: &[4, 8, 16],
            cell_size: 4,
            cold_iterations: 40,
            warm_iterations: 16,
        }
    }
}

/// 3:1 full : lite board mix, `n` boards.
fn fleet_spec(n: usize) -> FleetSpec {
    let profiles = (0..n)
        .map(|i| {
            if i % 4 == 3 {
                BoardProfile::hikey970_lite()
            } else {
                BoardProfile::hikey970()
            }
        })
        .collect();
    FleetSpec::heterogeneous(profiles)
}

/// Deterministic lifecycle script: one failure, one drain and two
/// joins spread over the middle of the horizon.
fn script(scale: &BenchScale) -> FleetScript {
    let h = scale.horizon_ms;
    FleetScript::new(vec![
        FleetTraceEvent {
            at_ms: h * 2 / 5,
            event: FleetEvent::BoardFail { board: 1 },
        },
        FleetTraceEvent {
            at_ms: h * 11 / 20,
            event: FleetEvent::BoardDrain { board: 2 },
        },
        FleetTraceEvent {
            at_ms: h * 7 / 10,
            event: FleetEvent::BoardJoin { profile: 0 },
        },
        FleetTraceEvent {
            at_ms: h * 7 / 10,
            event: FleetEvent::BoardJoin { profile: 0 },
        },
    ])
}

/// The cell's trace config — steady state ~3.5 resident jobs per board
/// at every fleet size. Shared with the Drive-As-Code digest so the
/// stamped provenance is exactly what drove the run.
fn cell_trace_cfg(scale: &BenchScale, boards: usize) -> TraceConfig {
    TraceConfig {
        horizon_ms: scale.horizon_ms,
        mean_lifetime_ms: boards as f64 * 3.5 / scale.rate_per_s * 1000.0,
        ..TraceConfig::default()
    }
}

/// Drive-As-Code digest over the declarative configs that shape one
/// cell: trace, fleet size and the orchestrator knobs that vary here.
fn cell_digest(scale: &BenchScale, boards: usize) -> u64 {
    let mut drive = trace_config_pairs(&cell_trace_cfg(scale, boards));
    drive.push(("boards", boards.to_string()));
    drive.push(("cell_size", scale.cell_size.to_string()));
    drive.push(("cold_iterations", scale.cold_iterations.to_string()));
    drive.push(("rate_per_s", format!("{:?}", scale.rate_per_s)));
    drive.push(("warm_iterations", scale.warm_iterations.to_string()));
    config_digest(&drive)
}

fn run_cell(scale: &BenchScale, boards: usize) -> (OrchestratorReport, f64) {
    let trace = ArrivalTrace::generate(
        ArrivalProcess::Poisson {
            rate_per_s: scale.rate_per_s,
        },
        &cell_trace_cfg(scale, boards),
        42,
    );
    let config = OrchestratorConfig {
        placement: PlacementPolicy::LeastLoaded,
        online: OnlineConfig {
            cold_budget: SearchBudget::with_iterations(scale.cold_iterations),
            warm_budget: SearchBudget::with_iterations(scale.warm_iterations),
            ..OnlineConfig::default()
        },
        rebalance: Some(RebalanceConfig {
            period_ms: 2_000,
            top_k_boards: 8,
            max_moves_per_tick: 8,
            ..RebalanceConfig::default()
        }),
        cells: Some(CellConfig {
            cell_size: scale.cell_size,
            ..CellConfig::default()
        }),
        ..OrchestratorConfig::warm()
    };
    let mut sim = OrchestratorSim::new(fleet_spec(boards), config, AnalyticModel::new);
    let start = std::time::Instant::now();
    let report = sim.run(&trace, &script(scale), scale.horizon_ms);
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    (report, wall_ms)
}

fn main() {
    let smoke = omniboost_bench::smoke();
    let scale = if smoke {
        BenchScale::smoke()
    } else {
        BenchScale::full()
    };

    let mut rows = Vec::new();
    let mut overheads = Vec::new();
    let mut lossy_cells = Vec::new();
    for &boards in scale.board_counts {
        let (report, wall_ms) = run_cell(&scale, boards);
        let s = &report.summary;
        let ticks = report.ticks.len().max(1);
        let decision_ms = s.decision.mean_ms * s.decision.count as f64;
        let overhead_us_per_board_tick =
            (wall_ms - decision_ms).max(0.0) * 1000.0 / (ticks * boards) as f64;
        overheads.push(overhead_us_per_board_tick);
        let pass = s.lost_jobs == 0;
        if !pass {
            lossy_cells.push(boards);
        }
        println!(
            "{boards} boards: {} jobs, {ticks} ticks, wall {wall_ms:.0} ms \
             ({decision_ms:.0} ms in searches), overhead {overhead_us_per_board_tick:.2} \
             us/board/tick, placement p99 {:.3} ms, agg {:.1} inf/s, {} moves, {} lost [{}]",
            s.arrivals,
            s.placement.p99_ms,
            s.mean_aggregate_tps,
            s.rebalance_moves,
            s.lost_jobs,
            if pass { "pass" } else { "FAIL" },
        );
        rows.push(format!(
            concat!(
                "    {{\"boards\": {}, \"config_digest\": \"{:#018x}\", ",
                "\"arrivals\": {}, \"ticks\": {}, ",
                "\"wall_ms\": {:.1}, \"decision_ms\": {:.1}, ",
                "\"overhead_us_per_board_tick\": {:.3}, ",
                "\"placement_p99_ms\": {:.4}, \"placement_count\": {}, ",
                "\"mean_aggregate_tps\": {:.2}, \"peak_queue_depth\": {}, ",
                "\"rebalance_moves\": {}, \"evacuated_jobs\": {}, \"lost_jobs\": {}, ",
                "\"pass\": {}}}"
            ),
            boards,
            cell_digest(&scale, boards),
            s.arrivals,
            ticks,
            wall_ms,
            decision_ms,
            overhead_us_per_board_tick,
            s.placement.p99_ms,
            s.placement.count,
            s.mean_aggregate_tps,
            s.peak_queue_depth,
            s.rebalance_moves,
            s.evacuated_jobs,
            s.lost_jobs,
            pass,
        ));
    }

    // The near-flat bar: largest fleet's per-board-per-tick overhead
    // within 2x of the smallest's. The smoke run exercises the pipeline
    // at toy scale, so its verdict is informational only.
    let ratio = overheads.last().unwrap() / overheads.first().unwrap().max(1e-9);
    let scaling_pass = ratio <= 2.0 || smoke;
    let all_pass = lossy_cells.is_empty() && scaling_pass;
    println!(
        "scaling: overhead ratio {}x boards = {ratio:.2}x (bar <= 2.0) [{}]",
        scale.board_counts.last().unwrap() / scale.board_counts.first().unwrap(),
        if scaling_pass { "pass" } else { "FAIL" },
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"fleet_scale\",\n",
            "  \"horizon_ms\": {},\n",
            "  \"rate_per_s\": {},\n",
            "  \"cell_size\": {},\n",
            "  \"cold_iterations\": {},\n",
            "  \"warm_iterations\": {},\n",
            "  \"note\": \"Orchestrated fleets at {{16, 64, 256}} boards (3:1 hikey970 : ",
            "hikey970-lite) replaying a ~2000-job Poisson trace with lifetimes scaled so every ",
            "cell holds ~3.5 resident jobs per board; scripted fail/drain/join events ",
            "mid-trace. LeastLoaded placement scanning every slot's running totals, ",
            "batched top-k rebalancing priced speculatively as a set, sharded cells with a ",
            "hysteresis cross-cell balancer. overhead_us_per_board_tick = (wall clock - time ",
            "inside per-board rescheduling searches) / (ticks x boards); scaling_pass = ",
            "largest cell within 2x of the smallest. lost_jobs must be 0 in every cell. Cells ",
            "run one after another; each bounds a rebalance decision to a constant-size ",
            "neighbourhood, which is what keeps the per-board figure flat.\",\n",
            "  \"all_pass\": {},\n",
            "  \"overhead_ratio_largest_vs_smallest\": {:.3},\n",
            "  \"scaling_pass\": {},\n",
            "  \"rows\": [\n{}\n  ]\n",
            "}}\n"
        ),
        scale.horizon_ms,
        scale.rate_per_s,
        scale.cell_size,
        scale.cold_iterations,
        scale.warm_iterations,
        all_pass,
        ratio,
        scaling_pass,
        rows.join(",\n"),
    );
    assert!(
        lossy_cells.is_empty(),
        "cells with {lossy_cells:?} boards lost jobs"
    );
    assert!(
        scaling_pass,
        "overhead per board per tick grew {ratio:.2}x from the smallest cell to the largest (bar <= 2.0x)"
    );
    omniboost_bench::write_snapshot("fleet_scale", &json);
}
