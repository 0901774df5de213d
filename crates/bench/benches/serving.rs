//! Online serving bench: cold-restart vs warm-started rescheduling
//! under live arrival traffic, on 1-board and 4-board fleets, across
//! the three trace scenarios (Poisson, bursty on/off, diurnal ramp).
//!
//! Writes `BENCH_serving.json`. The acceptance bar of the serving PR:
//! on **single-job-delta events** the warm policy must show lower
//! median decision latency at equal or better achieved (time-weighted
//! aggregate) throughput, for every scenario on both fleet sizes.
//!
//! `SMOKE=1` (the CI mode) shrinks traces and budgets so the whole
//! bench runs in seconds and **does not** rewrite the JSON snapshot.
//! The bar is asserted outside `SMOKE=1` only; a smoke cell with fewer
//! than [`SMOKE_MIN_DELTAS`] single-delta decisions in either arm is
//! `n/a` (two samples compare nothing).

use omniboost_bench::{config_digest, trace_config_pairs};
use omniboost_hw::{AnalyticModel, Board};
use omniboost_models::{ArrivalProcess, ArrivalTrace, TraceConfig};
use omniboost_serve::{
    LatencyStats, OnlineConfig, PlacementPolicy, ReschedulePolicy, SearchBudget, ServingConfig,
    ServingReport, ServingSim,
};

/// Single-delta decisions each arm of a smoke cell needs before its
/// verdict means anything.
const SMOKE_MIN_DELTAS: usize = 10;

struct BenchScale {
    horizon_ms: u64,
    cold_iterations: usize,
    warm_iterations: usize,
    /// Trace seeds each cell averages over: a single trace's achieved
    /// throughput swings a few percent either way on saturation
    /// nonlinearities, so cold-vs-warm is judged on the mean across
    /// seeds, not one draw.
    trace_seeds: &'static [u64],
}

impl BenchScale {
    fn full() -> Self {
        Self {
            horizon_ms: 120_000,
            cold_iterations: 300,
            warm_iterations: 100,
            trace_seeds: &[42, 1042, 2042],
        }
    }

    fn smoke() -> Self {
        Self {
            horizon_ms: 10_000,
            cold_iterations: 60,
            warm_iterations: 24,
            trace_seeds: &[42],
        }
    }
}

/// The three trace scenarios, scaled to the fleet size so each board
/// sees comparable pressure: with the trace's mean lifetime this keeps
/// steady-state load around 3-4 jobs per board — heavily loaded, with
/// bursts that saturate and queue, but not pinned at the admission cap
/// where throughput becomes hypersensitive to mapping noise.
fn scenarios(boards: usize, scale: &BenchScale) -> Vec<(&'static str, ArrivalProcess)> {
    let base = 0.25 * boards as f64;
    vec![
        ("poisson", ArrivalProcess::Poisson { rate_per_s: base }),
        (
            "bursty",
            ArrivalProcess::Bursty {
                on_rate_per_s: 2.5 * base,
                on_ms: scale.horizon_ms / 9,
                off_ms: scale.horizon_ms / 6,
            },
        ),
        (
            "diurnal",
            ArrivalProcess::DiurnalRamp {
                peak_rate_per_s: 2.0 * base,
                period_ms: scale.horizon_ms,
            },
        ),
    ]
}

fn trace_cfg(scale: &BenchScale) -> TraceConfig {
    TraceConfig {
        horizon_ms: scale.horizon_ms,
        mean_lifetime_ms: scale.horizon_ms as f64 / 8.0,
        ..TraceConfig::default()
    }
}

fn run(
    process: ArrivalProcess,
    policy: ReschedulePolicy,
    boards: usize,
    scale: &BenchScale,
    seed: u64,
) -> ServingReport {
    let trace = ArrivalTrace::generate(process, &trace_cfg(scale), seed);
    let online = OnlineConfig {
        cold_budget: SearchBudget::with_iterations(scale.cold_iterations),
        warm_budget: SearchBudget::with_iterations(scale.warm_iterations),
        ..OnlineConfig::default()
    };
    let config = ServingConfig {
        policy,
        placement: PlacementPolicy::LeastLoaded,
        online,
    };
    let mut sim = ServingSim::new(vec![Board::hikey970(); boards], config, AnalyticModel::new);
    sim.run(&trace, scale.horizon_ms)
}

fn latency_json(l: &LatencyStats) -> String {
    format!(
        "{{\"count\": {}, \"median_ms\": {:.3}, \"mean_ms\": {:.3}, \"max_ms\": {:.3}}}",
        l.count, l.median_ms, l.mean_ms, l.max_ms
    )
}

fn main() {
    let smoke = omniboost_bench::smoke();
    let scale = if smoke {
        BenchScale::smoke()
    } else {
        BenchScale::full()
    };

    let mut rows = Vec::new();
    let mut all_pass = true;
    for boards in [1usize, 4] {
        for (name, process) in scenarios(boards, &scale) {
            // One cold and one warm run per trace seed; the cell is
            // judged on means across seeds (pooling the per-seed
            // medians), so one lucky or unlucky trace cannot decide it.
            let colds: Vec<ServingReport> = scale
                .trace_seeds
                .iter()
                .map(|s| run(process, ReschedulePolicy::ColdRestart, boards, &scale, *s))
                .collect();
            let warms: Vec<ServingReport> = scale
                .trace_seeds
                .iter()
                .map(|s| run(process, ReschedulePolicy::WarmStart, boards, &scale, *s))
                .collect();
            let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len() as f64;
            let pool = |rs: &[ServingReport], pick: &dyn Fn(&ServingReport) -> LatencyStats| {
                let stats: Vec<LatencyStats> = rs.iter().map(pick).collect();
                let count: usize = stats.iter().map(|s| s.count).sum();
                let with: Vec<&LatencyStats> = stats.iter().filter(|s| s.count > 0).collect();
                if with.is_empty() {
                    LatencyStats::default()
                } else {
                    LatencyStats {
                        count,
                        median_ms: mean(&with.iter().map(|s| s.median_ms).collect::<Vec<_>>()),
                        mean_ms: mean(&with.iter().map(|s| s.mean_ms).collect::<Vec<_>>()),
                        p99_ms: mean(&with.iter().map(|s| s.p99_ms).collect::<Vec<_>>()),
                        max_ms: with.iter().map(|s| s.max_ms).fold(0.0, f64::max),
                    }
                }
            };
            let cold_delta = pool(&colds, &|r| r.summary.single_job_delta);
            let warm_delta = pool(&warms, &|r| r.summary.single_job_delta);
            let cold_tps = mean(
                &colds
                    .iter()
                    .map(|r| r.summary.mean_aggregate_tps)
                    .collect::<Vec<_>>(),
            );
            let warm_tps = mean(
                &warms
                    .iter()
                    .map(|r| r.summary.mean_aggregate_tps)
                    .collect::<Vec<_>>(),
            );
            let warm_migrated: usize = warms.iter().map(|r| r.summary.migrated_layers).sum();
            let cold_migrated: usize = colds.iter().map(|r| r.summary.migrated_layers).sum();
            let comparable = cold_delta.count > 0 && warm_delta.count > 0;
            let min_deltas = if smoke { SMOKE_MIN_DELTAS } else { 1 };
            let judged = cold_delta.count >= min_deltas && warm_delta.count >= min_deltas;
            let speedup = if comparable {
                cold_delta.median_ms / warm_delta.median_ms.max(1e-9)
            } else {
                0.0
            };
            // The acceptance bar, evaluated inline so a regression is
            // visible in the snapshot itself (vacuously true when the
            // traces produced too few single-job-delta events to compare
            // on — only happens at smoke scale).
            let pass = !judged
                || (warm_delta.median_ms < cold_delta.median_ms && warm_tps >= cold_tps * 0.99);
            all_pass &= pass;
            println!(
                "{name} x{boards}: single-delta median cold {:.1} ms -> warm {:.1} ms \
                 ({speedup:.1}x), agg tps cold {cold_tps:.2} -> warm {warm_tps:.2}, \
                 warm migration {warm_migrated} layers [{}]",
                cold_delta.median_ms,
                warm_delta.median_ms,
                match (judged, pass) {
                    (false, _) => "n/a",
                    (true, true) => "pass",
                    (true, false) => "FAIL",
                },
            );
            let sum = |f: &dyn Fn(&ServingReport) -> usize, rs: &[ServingReport]| -> usize {
                rs.iter().map(f).sum()
            };
            // Drive-As-Code provenance for the cell: trace + arrival
            // process + fleet size + search budgets.
            let mut drive = trace_config_pairs(&trace_cfg(&scale));
            drive.push(("boards", boards.to_string()));
            drive.push(("cold_iterations", scale.cold_iterations.to_string()));
            drive.push(("process", format!("{process:?}")));
            drive.push(("warm_iterations", scale.warm_iterations.to_string()));
            let digest = config_digest(&drive);
            rows.push(format!(
                concat!(
                    "    {{\"scenario\": \"{}\", \"boards\": {}, ",
                    "\"config_digest\": \"{:#018x}\", \"trace_seeds\": {}, ",
                    "\"events\": {}, \"arrivals\": {}, \"departures\": {}, ",
                    "\"peak_queue_depth\": {}, ",
                    "\"cold\": {{\"decisions\": {}, \"single_job_delta\": {}, ",
                    "\"all\": {}, \"mean_aggregate_tps\": {:.4}, \"migrated_layers\": {}}}, ",
                    "\"warm\": {{\"decisions\": {}, \"single_job_delta\": {}, ",
                    "\"warm_only\": {}, \"memo_decisions\": {}, \"mean_aggregate_tps\": {:.4}, ",
                    "\"migrated_layers\": {}, \"eval_cache_hit_rate\": {:.3}}}, ",
                    "\"single_delta_median_speedup\": {:.2}, \"pass\": {}}}"
                ),
                name,
                boards,
                digest,
                scale.trace_seeds.len(),
                sum(&|r| r.summary.events, &colds),
                sum(&|r| r.summary.arrivals, &colds),
                sum(&|r| r.summary.departures, &colds),
                warms
                    .iter()
                    .map(|r| r.summary.peak_queue_depth)
                    .max()
                    .unwrap_or(0),
                sum(&|r| r.summary.decisions, &colds),
                latency_json(&cold_delta),
                latency_json(&pool(&colds, &|r| r.summary.cold)),
                cold_tps,
                cold_migrated,
                sum(&|r| r.summary.decisions, &warms),
                latency_json(&warm_delta),
                latency_json(&pool(&warms, &|r| r.summary.warm)),
                sum(&|r| r.summary.memo.count, &warms),
                warm_tps,
                warm_migrated,
                mean(
                    &warms
                        .iter()
                        .map(|r| r.summary.eval_cache.hit_rate())
                        .collect::<Vec<_>>()
                ),
                speedup,
                pass,
            ));
        }
    }

    let threads = omniboost_bench::host_threads();
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"serving\",\n",
            "  \"trace_seeds\": {:?},\n",
            "  \"horizon_ms\": {},\n",
            "  \"cold_iterations\": {},\n",
            "  \"warm_iterations\": {},\n",
            "  \"host_threads\": {},\n",
            "  \"note\": \"cold = ColdRestart policy (full search every event, no memo); ",
            "warm = WarmStart policy (decision memo for unchanged mixes; on single-job ",
            "deltas a partial-root warm search raced against a warm-budget global ",
            "challenger, floored at the carried candidates; periodic memo-bypassing ",
            "cold refresh). single_job_delta rows compare decision latency on exactly the ",
            "events where warm starts are defined; mean_aggregate_tps is the ",
            "time-weighted fleet throughput actually achieved over the trace, measured ",
            "by the DES board stand-in. The evaluator guiding the search is the ",
            "analytic model on every row, so the comparison is evaluator-for-evaluator ",
            "fair; migration churn is reported for the warm policy (cold redeploys from ",
            "scratch, so its churn is structurally high and uninteresting). Every cell ",
            "averages one cold and one warm run per trace seed. pass = warm pooled ",
            "median single-delta latency strictly below cold's at >= 99% of cold's ",
            "mean aggregate throughput\",\n",
            "  \"all_pass\": {},\n",
            "  \"rows\": [\n{}\n  ]\n",
            "}}\n"
        ),
        scale.trace_seeds,
        scale.horizon_ms,
        scale.cold_iterations,
        scale.warm_iterations,
        threads,
        all_pass,
        rows.join(",\n"),
    );
    assert!(
        smoke || all_pass,
        "warm rescheduling missed the serving bar"
    );
    omniboost_bench::write_snapshot("serving", &json);
}
