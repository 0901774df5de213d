//! `fleet_chaos_replay`: the orchestrator replaying a seeded arrival
//! trace interleaved with a seeded chaos script, in process.
//!
//! The evaluator is `AnalyticModel` (an evaluation costs microseconds),
//! so the `mcts` tree, `serve`'s fleet and mempool and the
//! `orchestrator` loop and rebalancer own the wall time, and the replay
//! is bit-deterministic. `rpc`, `estimator` and `tensor` do nothing
//! here: the prediction for a change to any of them is no movement.

use crate::canon::{self, Preset, SplitMix, TraceShape};
use crate::paper::design_metrics;
use crate::report::Outcome;
use crate::spans::{self, EvalCounters, Recorder, TracedModel};
use crate::stats::{fastest, fastest_per_op, median_of, Samples};
use crate::{layers, Run};
use omniboost_hw::{AnalyticModel, Board, ThroughputModel};
use omniboost_models::scenarios::{FleetEvent, FleetTraceEvent};
use omniboost_models::{ArrivalTrace, FleetScript};
use omniboost_orchestrator::{
    BoardProfile, FleetSpec, OrchestratorConfig, OrchestratorReport, OrchestratorSim,
};
use omniboost_serve::DecisionKind;
use std::sync::Arc;
use std::time::Instant;

const FULL_BOARDS: usize = 12;
const LITE_BOARDS: usize = 4;
/// Trace seconds replayed per second of the run: sized so that the
/// replay takes about `--seconds` at the speed recorded as the baseline.
const TRACE_S_PER_S: f64 = 8.0;
/// Replays of the same inputs in a timed run.
const REPLAYS: usize = 3;
/// Trace seconds of the warm-up replay each set-up pass runs, so that
/// page faults, allocator growth and the thread pool's start are paid
/// before the timed replay.
const WARMUP_TRACE_S: f64 = 3.0;

/// Twelve full boards and four binned ones; brown-outs draw from the
/// spec's default degrade pool (the lite and the GPU-masked profile).
fn fleet() -> FleetSpec {
    let mut initial = vec![BoardProfile::hikey970(); FULL_BOARDS];
    initial.extend(vec![BoardProfile::hikey970_lite(); LITE_BOARDS]);
    FleetSpec::heterogeneous(initial)
}

/// Spacing of each chaos class in trace milliseconds: the roadmap's
/// drill (a failure and a join a minute, a brown-out every 20 s, a flap
/// every 30 s) compressed three-fold, so that a replay a few trace
/// seconds long still meets every class.
const FAIL_EVERY_MS: u64 = 20_000;
const JOIN_EVERY_MS: u64 = 20_000;
const DEGRADE_EVERY_MS: u64 = 6_000;
/// A browned-out board recovers this long after it degraded.
const BROWNOUT_MS: u64 = 4_000;
const FLAP_EVERY_MS: u64 = 10_000;
/// A flapping board rejoins this long after it failed.
const FLAP_DOWN_MS: u64 = 2_000;

#[derive(Debug, Clone, Copy)]
enum Chaos {
    Fail,
    Join,
    Degrade,
    Flap,
    Recover { board: usize },
}

/// A seeded chaos script with the same number of events of every class
/// under every seed.
///
/// `FleetScript::generate` draws each class as a Poisson process; over a
/// replay that expects one or two failures, one seed draws none and the
/// next draws three, and the replay's work differs by a quarter. Here
/// each class fires exactly once in each of its periods, at a seeded
/// instant within it and on a seeded healthy board; a brown-out is
/// followed by its recovery and a flap by its rejoin.
fn balanced_script(horizon_ms: u64, initial_boards: usize, seed: u64) -> FleetScript {
    let mut rng = SplitMix(seed);
    let mut due: Vec<(u64, Chaos)> = Vec::new();
    for (class, every_ms) in [
        (Chaos::Fail, FAIL_EVERY_MS),
        (Chaos::Join, JOIN_EVERY_MS),
        (Chaos::Degrade, DEGRADE_EVERY_MS),
        (Chaos::Flap, FLAP_EVERY_MS),
    ] {
        for period in 0..horizon_ms / every_ms {
            due.push((period * every_ms + rng.next_u64() % every_ms, class));
        }
    }
    // Latest first, so the next event is popped off the end.
    due.sort_by_key(|(at_ms, _)| std::cmp::Reverse(*at_ms));
    let insert = |due: &mut Vec<(u64, Chaos)>, at_ms: u64, class: Chaos| {
        if at_ms < horizon_ms {
            let position = due.partition_point(|(other, _)| *other > at_ms);
            due.insert(position, (at_ms, class));
        }
    };
    // Boards that are up and not browned out; indices are never reused.
    let mut healthy: Vec<usize> = (0..initial_boards).collect();
    let mut next_board = initial_boards;
    let mut events = Vec::new();
    while let Some((at_ms, class)) = due.pop() {
        let event = match class {
            Chaos::Join => {
                healthy.push(next_board);
                next_board += 1;
                FleetEvent::BoardJoin {
                    profile: (rng.next_u64() % 2) as usize,
                }
            }
            Chaos::Recover { board } => {
                healthy.push(board);
                FleetEvent::BoardRecover { board }
            }
            Chaos::Fail | Chaos::Flap | Chaos::Degrade => {
                // Sixteen boards and at most a handful down or browned
                // out at once: a healthy one is always there.
                let pick = (rng.next_u64() % healthy.len() as u64) as usize;
                let board = healthy.swap_remove(pick);
                match class {
                    Chaos::Degrade => {
                        insert(&mut due, at_ms + BROWNOUT_MS, Chaos::Recover { board });
                        FleetEvent::BoardDegrade {
                            board,
                            profile: (rng.next_u64() % 2) as usize,
                        }
                    }
                    Chaos::Flap => {
                        insert(&mut due, at_ms + FLAP_DOWN_MS, Chaos::Join);
                        FleetEvent::BoardFail { board }
                    }
                    _ => FleetEvent::BoardFail { board },
                }
            }
        };
        events.push(FleetTraceEvent { at_ms, event });
    }
    FleetScript::new(events)
}

/// The replay's inputs, all drawn from `seed`.
struct Inputs {
    trace: ArrivalTrace,
    script: FleetScript,
    horizon_ms: u64,
}

fn inputs(trace_seconds: f64, seed: u64) -> Inputs {
    let horizon_ms = (trace_seconds * 1e3) as u64;
    // 4.8 jobs/s living 10 s on average, three in ten with a floor of
    // 0.5 inferences/s.
    let shape = TraceShape {
        rate_per_s: 4.8,
        mean_lifetime_ms: 10_000.0,
        models: &canon::POOL,
        guaranteed_share: 0.3,
        guaranteed_min_tps: 0.5,
    };
    Inputs {
        trace: canon::seeded_trace(shape, horizon_ms, seed),
        script: balanced_script(horizon_ms, FULL_BOARDS + LITE_BOARDS, seed ^ 0xC4A05),
        horizon_ms,
    }
}

fn config(preset: &Preset) -> OrchestratorConfig {
    OrchestratorConfig {
        online: preset.online(),
        ..OrchestratorConfig::warm()
    }
}

/// One replay and how long it took.
struct Replay {
    report: OrchestratorReport,
    wall_s: f64,
}

fn replay<M: ThroughputModel + Send + Sync>(
    preset: &Preset,
    inputs: &Inputs,
    make_evaluator: impl FnMut(Board) -> M,
) -> Replay {
    let mut sim = OrchestratorSim::new(fleet(), config(preset), make_evaluator);
    let t = Instant::now();
    let report = sim.run(&inputs.trace, &inputs.script, inputs.horizon_ms);
    Replay {
        report,
        wall_s: t.elapsed().as_secs_f64(),
    }
}

/// Decision latencies of a replay by kind: `(cold, warm, memo count)`.
fn decision_ms(report: &OrchestratorReport) -> (Vec<f64>, Vec<f64>, usize) {
    let (mut cold, mut warm, mut memo) = (Vec::new(), Vec::new(), 0);
    for decision in report.ticks.iter().flat_map(|t| &t.decisions) {
        match decision.kind {
            DecisionKind::Cold => cold.push(decision.decision_ms),
            DecisionKind::WarmArrival | DecisionKind::WarmDepart => {
                warm.push(decision.decision_ms);
            }
            DecisionKind::Memo => memo += 1,
        }
    }
    (cold, warm, memo)
}

/// Output checks on one replay: no job lost, every trace event replayed.
fn check(outcome: &mut Outcome, phase: &str, replay: &Replay, inputs: &Inputs) {
    let lost = replay.report.summary.lost_jobs;
    outcome.check(lost == 0, || format!("{phase}: {lost} jobs lost"));
    let (replayed, traced) = (replay.report.summary.events, inputs.trace.len());
    outcome.check(replayed == traced, || {
        format!("{phase}: the trace has {traced} job events, {replayed} were replayed")
    });
    outcome.phase(phase, traced + inputs.script.len(), lost);
}

pub fn run(run: &Run) -> Outcome {
    if run.trace {
        return traced(run);
    }
    let mut outcome = Outcome::default();
    // Set-up here is generating the inputs and a short warm-up replay;
    // repeated like the design-time passes of the other workloads.
    let mut setup_seconds = Vec::new();
    let mut built = None;
    for _ in 0..run.preset.setup_passes.max(1) {
        let t = Instant::now();
        let generated = inputs(run.seconds * TRACE_S_PER_S / REPLAYS as f64, run.seed);
        let warmup = inputs(WARMUP_TRACE_S, run.seed ^ 0x3A);
        let warmed = replay(&run.preset, &warmup, AnalyticModel::new);
        check(&mut outcome, "warmup", &warmed, &warmup);
        setup_seconds.push(t.elapsed().as_secs_f64());
        built = Some(generated);
    }
    let inputs = built.expect("at least one pass");
    let events = inputs.trace.len() + inputs.script.len();
    // The same inputs replayed several times: the replay is
    // deterministic, so every reading below is the fastest of repeats
    // of identical work (see `fastest_per_op`).
    let replays: Vec<Replay> = (0..REPLAYS)
        .map(|_| replay(&run.preset, &inputs, AnalyticModel::new))
        .collect();
    for replayed in &replays {
        check(&mut outcome, "replay", replayed, &inputs);
    }
    let digest = replays[0].report.digest();
    outcome.check(replays.iter().all(|r| r.report.digest() == digest), || {
        "replays of the same inputs disagree on the run digest".to_string()
    });

    // Every replay makes the same decisions in the same order, so the
    // replays are repeats of the same operations.
    let timings: Vec<_> = replays.iter().map(|r| decision_ms(&r.report)).collect();
    let cold: Vec<Vec<f64>> = timings.iter().map(|t| t.0.clone()).collect();
    let warm: Vec<Vec<f64>> = timings.iter().map(|t| t.1.clone()).collect();
    let memo = timings[0].2;
    let cold = Samples::new(fastest_per_op(&cold));
    let warm = Samples::new(fastest_per_op(&warm));
    let summary = &replays[0].report.summary;
    let events_per_s = events as f64 / fastest(replays.iter().map(|r| r.wall_s));
    let m = &mut outcome.metrics;
    m.set("setup_s", median_of(&setup_seconds), setup_seconds.len());
    m.set("op_ms_p50", cold.median(), cold.len() * REPLAYS);
    m.set("op_ms_p90", cold.percentile(0.9), cold.len() * REPLAYS);
    m.set("light_ms_p50", warm.median(), warm.len() * REPLAYS);
    m.set("ops_per_s", events_per_s, events * REPLAYS);
    m.set("mapped_tps", summary.mean_aggregate_tps, summary.events);
    m.set("peak_rss_mb", canon::peak_rss_mb(), 1);
    outcome.note(format!(
        "replay_events_per_s {events_per_s:.3} ({} trace + {} script events, {REPLAYS} replays); \
         fleet_tps_mean {:.6}; slo_attainment {:.6}; decisions cold {} warm {} memo {memo}; \
         digest {digest:#018x} on every replay",
        inputs.trace.len(),
        inputs.script.len(),
        summary.mean_aggregate_tps,
        summary.slo.guaranteed_attainment,
        cold.len(),
        warm.len(),
    ));
    outcome
}

fn traced(run: &Run) -> Outcome {
    let mut outcome = Outcome::default();
    let design = canon::design_time(&run.preset);
    outcome
        .metrics
        .extend(layers::micro(&run.preset, &design.estimator));
    design_metrics(&mut outcome.metrics, &run.preset, &design);

    // The same inputs twice, half the window each: plain, then traced.
    let inputs = inputs(run.seconds * TRACE_S_PER_S / 2.0, run.seed);
    let events = inputs.trace.len() + inputs.script.len();
    let plain = replay(&run.preset, &inputs, AnalyticModel::new);
    check(&mut outcome, "replay", &plain, &inputs);
    let recorder = Recorder::on();
    let counters = Arc::new(EvalCounters::default());
    let traced = {
        let _op = recorder.op("orchestrator.run", 1);
        replay(&run.preset, &inputs, |board| {
            TracedModel::new(
                AnalyticModel::new(board),
                recorder.clone(),
                counters.clone(),
            )
        })
    };
    check(&mut outcome, "replay_traced", &traced, &inputs);
    let (plain_digest, traced_digest) = (plain.report.digest(), traced.report.digest());
    outcome.check(plain_digest == traced_digest, || {
        format!("replay digests differ: {plain_digest:#018x} plain, {traced_digest:#018x} traced")
    });
    outcome.note(format!("digest {plain_digest:#018x} on both replays"));

    let spans = recorder.spans();
    let own = spans::self_times_ns(&spans);
    let evaluator_s = spans
        .first()
        .map_or(0.0, |op| (op.dur_ns() - own[0]) as f64 / 1e9);
    let (cold, warm, memo) = decision_ms(&traced.report);
    let decisions_s = (cold.iter().sum::<f64>() + warm.iter().sum::<f64>()) / 1e3;
    let decisions = cold.len() + warm.len() + memo;
    let summary = &traced.report.summary;
    let ticks = traced.report.ticks.len();
    let boards = FULL_BOARDS + LITE_BOARDS;
    let m = &mut outcome.metrics;
    m.set(
        "orchestrator.run.overhead_us_per_board_tick",
        (traced.wall_s - decisions_s) * 1e6 / (ticks * boards).max(1) as f64,
        ticks,
    );
    m.set(
        "orchestrator.run.decision_share",
        decisions_s / traced.wall_s,
        decisions,
    );
    m.set(
        "orchestrator.rebalance.moves",
        summary.rebalance_moves as f64,
        summary.rebalance_ticks,
    );
    m.set(
        "orchestrator.rebalance.rejected",
        summary.rebalance_rejected as f64,
        summary.rebalance_ticks,
    );
    let proposals = summary.rebalance_moves + summary.rebalance_rejected;
    m.set(
        "orchestrator.rebalance.accept_ratio",
        summary.rebalance_moves as f64 / proposals.max(1) as f64,
        proposals,
    );
    m.set(
        "orchestrator.evac.wait_ms_p50",
        summary.evacuation_wait.median_ms,
        summary.evacuation_wait.count,
    );
    m.set(
        "orchestrator.evac.same_tick_share",
        summary.evacuees_relocated_same_tick as f64 / summary.evacuated_jobs.max(1) as f64,
        summary.evacuated_jobs,
    );
    m.set(
        "orchestrator.warm_boot.entries",
        summary.warm_boot_entries as f64,
        summary.warm_boots,
    );
    m.set("orchestrator.lost_jobs", summary.lost_jobs as f64, 1);
    m.set(
        "orchestrator.slo.guaranteed_attainment",
        summary.slo.guaranteed_attainment,
        summary.slo.guaranteed_jobs,
    );
    m.set(
        "estimator.forward.busy_share",
        evaluator_s / traced.wall_s,
        decisions,
    );
    m.set(
        "mcts.search.self_share",
        (decisions_s - evaluator_s) / traced.wall_s,
        decisions,
    );
    let total = decisions.max(1) as f64;
    m.set(
        "core.decide.kind_share.cold",
        cold.len() as f64 / total,
        decisions,
    );
    m.set(
        "core.decide.kind_share.warm",
        warm.len() as f64 / total,
        decisions,
    );
    m.set(
        "core.decide.kind_share.memo",
        memo as f64 / total,
        decisions,
    );
    m.set(
        "estimator.evalcache.hit_rate.live",
        summary.eval_cache.hit_rate(),
        (summary.eval_cache.hits + summary.eval_cache.misses) as usize,
    );
    m.set(
        "telemetry.trace.overhead_pct",
        (traced.wall_s / plain.wall_s - 1.0) * 100.0,
        events,
    );
    crate::write_trace(run, &mut outcome, &spans);
    outcome
}
