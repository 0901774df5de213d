//! Fleet-orchestration bench: the three acceptance bars of the
//! orchestration PR, measured end to end and written to
//! `BENCH_fleet.json`.
//!
//! 1. **Skewed departures** — a deterministic mass departure leaves one
//!    board saturated while three idle; migration-costed rebalancing
//!    must recover ≥ 10% mean aggregate throughput over the
//!    jobs-stay-pinned baseline.
//! 2. **Board failure** — a board dies mid-trace; every resident job
//!    must be evacuated (zero lost jobs) and evacuation latency is
//!    reported, with and without rebalancing.
//! 3. **Tenant fairness** — on a 70/10/10/10 skewed-tenant trace the
//!    `FairShare` placement policy must reduce the max/min per-tenant
//!    throughput ratio vs `LeastLoaded` without losing more than 2% of
//!    aggregate throughput.
//!
//! `SMOKE=1` (the CI mode) shrinks horizons and budgets so the whole
//! bench runs in seconds and **does not** rewrite the JSON snapshot.

use omniboost_bench::{config_digest, trace_config_pairs};
use omniboost_hw::AnalyticModel;
use omniboost_models::{
    ArrivalProcess, ArrivalTrace, FleetEvent, FleetScript, FleetTraceEvent, JobEvent, JobSpec,
    ModelId, TraceConfig, TraceEvent,
};
use omniboost_orchestrator::{
    tenant_tps_ratio, BoardProfile, FleetSpec, OrchestratorConfig, OrchestratorReport,
    OrchestratorSim, PlacementPolicy, RebalanceConfig,
};
use omniboost_serve::{LatencyStats, OnlineConfig, SearchBudget};

struct BenchScale {
    horizon_ms: u64,
    cold_iterations: usize,
    warm_iterations: usize,
    rebalance_period_ms: u64,
    trace_seeds: &'static [u64],
}

impl BenchScale {
    fn full() -> Self {
        Self {
            horizon_ms: 60_000,
            cold_iterations: 300,
            warm_iterations: 100,
            rebalance_period_ms: 2_000,
            trace_seeds: &[42, 1042, 2042],
        }
    }

    fn smoke() -> Self {
        Self {
            horizon_ms: 12_000,
            cold_iterations: 60,
            warm_iterations: 24,
            rebalance_period_ms: 1_000,
            trace_seeds: &[42],
        }
    }
}

fn online(scale: &BenchScale) -> OnlineConfig {
    OnlineConfig {
        cold_budget: SearchBudget::with_iterations(scale.cold_iterations),
        warm_budget: SearchBudget::with_iterations(scale.warm_iterations),
        ..OnlineConfig::default()
    }
}

fn rebalance(scale: &BenchScale) -> RebalanceConfig {
    RebalanceConfig {
        period_ms: scale.rebalance_period_ms,
        ..RebalanceConfig::default()
    }
}

/// The scale knobs every cell shares, rendered for [`config_digest`].
fn scale_pairs(scale: &BenchScale) -> Vec<(&'static str, String)> {
    vec![
        ("scale.cold_iterations", scale.cold_iterations.to_string()),
        ("scale.horizon_ms", scale.horizon_ms.to_string()),
        (
            "scale.rebalance_period_ms",
            scale.rebalance_period_ms.to_string(),
        ),
        ("scale.warm_iterations", scale.warm_iterations.to_string()),
    ]
}

fn config(scale: &BenchScale, placement: PlacementPolicy, rebalancing: bool) -> OrchestratorConfig {
    OrchestratorConfig {
        placement,
        online: online(scale),
        rebalance: rebalancing.then(|| rebalance(scale)),
        ..OrchestratorConfig::warm()
    }
}

/// The deterministic skewed-departure trace: 16 identical jobs fill a
/// 4-board fleet evenly (equal FLOPs → least-loaded round-robins them),
/// then at one third of the horizon a mass departure removes 11 jobs —
/// exactly the ones NOT on board 0 (ids ≡ 1 mod 4 land on board 0) plus
/// all but one of the rest — leaving board 0 with its 4 jobs, board 1
/// with one, boards 2 and 3 idle. Without rebalancing that pile-up
/// persists to the horizon.
fn skewed_departure_trace(scale: &BenchScale) -> ArrivalTrace {
    let mut events = Vec::new();
    for id in 1..=16u64 {
        events.push(TraceEvent {
            at_ms: id * 100,
            event: JobEvent::Arrive(JobSpec::new(id, ModelId::ResNet34, (id % 4) as u32)),
        });
    }
    let skew_at = scale.horizon_ms / 3;
    // Keep board 0's jobs {1, 5, 9, 13} and board 1's job 2.
    for id in (1..=16u64).filter(|id| id % 4 != 1 && *id != 2) {
        events.push(TraceEvent {
            at_ms: skew_at,
            event: JobEvent::Depart { job_id: id },
        });
    }
    ArrivalTrace::from_events(events)
}

fn run_skewed_departure(scale: &BenchScale, rebalancing: bool) -> OrchestratorReport {
    let trace = skewed_departure_trace(scale);
    let mut sim = OrchestratorSim::new(
        FleetSpec::homogeneous(4, BoardProfile::hikey970()),
        config(scale, PlacementPolicy::LeastLoaded, rebalancing),
        AnalyticModel::new,
    );
    sim.run(&trace, &FleetScript::none(), scale.horizon_ms)
}

/// The Poisson sections' trace config — shared with the Drive-As-Code
/// digest so the stamped provenance is exactly what drove the run.
fn poisson_trace_cfg(scale: &BenchScale, weights: Vec<f64>) -> TraceConfig {
    TraceConfig {
        horizon_ms: scale.horizon_ms,
        mean_lifetime_ms: scale.horizon_ms as f64 / 8.0,
        tenant_weights: weights,
        ..TraceConfig::default()
    }
}

fn poisson_trace(scale: &BenchScale, seed: u64, weights: Vec<f64>) -> ArrivalTrace {
    ArrivalTrace::generate(
        ArrivalProcess::Poisson { rate_per_s: 1.0 },
        &poisson_trace_cfg(scale, weights),
        seed,
    )
}

fn run_board_failure(scale: &BenchScale, seed: u64, rebalancing: bool) -> OrchestratorReport {
    let trace = poisson_trace(scale, seed, Vec::new());
    let script = FleetScript::new(vec![FleetTraceEvent {
        at_ms: scale.horizon_ms / 2,
        event: FleetEvent::BoardFail { board: 0 },
    }]);
    let mut sim = OrchestratorSim::new(
        FleetSpec::heterogeneous(vec![
            BoardProfile::hikey970(),
            BoardProfile::hikey970(),
            BoardProfile::hikey970(),
            BoardProfile::hikey970_lite(),
        ]),
        config(scale, PlacementPolicy::LeastLoaded, rebalancing),
        AnalyticModel::new,
    );
    sim.run(&trace, &script, scale.horizon_ms)
}

fn run_fairness(scale: &BenchScale, seed: u64, placement: PlacementPolicy) -> OrchestratorReport {
    let trace = poisson_trace(scale, seed, vec![7.0, 1.0, 1.0, 1.0]);
    let mut sim = OrchestratorSim::new(
        FleetSpec::homogeneous(4, BoardProfile::hikey970()),
        config(scale, placement, false),
        AnalyticModel::new,
    );
    sim.run(&trace, &FleetScript::none(), scale.horizon_ms)
}

fn latency_json(l: &LatencyStats) -> String {
    format!(
        "{{\"count\": {}, \"median_ms\": {:.3}, \"mean_ms\": {:.3}, \"max_ms\": {:.3}}}",
        l.count, l.median_ms, l.mean_ms, l.max_ms
    )
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

fn main() {
    let smoke = omniboost_bench::smoke();
    let scale = if smoke {
        BenchScale::smoke()
    } else {
        BenchScale::full()
    };
    let mut all_pass = true;

    // ---- 1. Skewed departures: rebalance on vs off -------------------
    let pinned = run_skewed_departure(&scale, false);
    let rebalanced = run_skewed_departure(&scale, true);
    let gain_pct =
        (rebalanced.summary.mean_aggregate_tps / pinned.summary.mean_aggregate_tps - 1.0) * 100.0;
    let skew_pass =
        gain_pct >= 10.0 && pinned.summary.lost_jobs == 0 && rebalanced.summary.lost_jobs == 0;
    all_pass &= skew_pass;
    println!(
        "skewed-departure: pinned {:.2} inf/s -> rebalanced {:.2} inf/s (+{gain_pct:.1}%), \
         {} moves / {} layers migrated [{}]",
        pinned.summary.mean_aggregate_tps,
        rebalanced.summary.mean_aggregate_tps,
        rebalanced.summary.rebalance_moves,
        rebalanced.summary.rebalance_migrated_layers,
        if skew_pass { "pass" } else { "FAIL" },
    );
    let mut skew_drive = scale_pairs(&scale);
    skew_drive.push(("boards", "4".into()));
    skew_drive.push(("section", "skewed_departure".into()));
    let skew_json = format!(
        concat!(
            "  \"skewed_departure\": {{\n",
            "    \"config_digest\": \"{:#018x}\",\n",
            "    \"pinned\": {{\"mean_aggregate_tps\": {:.4}, \"migrated_layers\": {}}},\n",
            "    \"rebalanced\": {{\"mean_aggregate_tps\": {:.4}, \"migrated_layers\": {}, ",
            "\"moves\": {}, \"rejected_proposals\": {}, \"rebalance_migrated_layers\": {}, ",
            "\"priced_gain_tps\": {:.3}}},\n",
            "    \"gain_pct\": {:.2}, \"pass\": {}\n",
            "  }}"
        ),
        config_digest(&skew_drive),
        pinned.summary.mean_aggregate_tps,
        pinned.summary.migrated_layers,
        rebalanced.summary.mean_aggregate_tps,
        rebalanced.summary.migrated_layers,
        rebalanced.summary.rebalance_moves,
        rebalanced.summary.rebalance_rejected,
        rebalanced.summary.rebalance_migrated_layers,
        rebalanced.summary.rebalance_gain_tps,
        gain_pct,
        skew_pass,
    );

    // ---- 2. Board failure: zero lost jobs + evacuation latency -------
    // Two arms: without and with rebalancing.
    let mut failure_rows = Vec::new();
    for rebalancing in [false, true] {
        let (mut lost, mut evacuated, mut relocated) = (0usize, 0usize, 0usize);
        let mut waits: Vec<LatencyStats> = Vec::new();
        let mut tps = Vec::new();
        for seed in scale.trace_seeds {
            let r = run_board_failure(&scale, *seed, rebalancing);
            lost += r.summary.lost_jobs;
            evacuated += r.summary.evacuated_jobs;
            relocated += r.summary.evacuees_relocated_same_tick;
            waits.push(r.summary.evacuation_wait);
            tps.push(r.summary.mean_aggregate_tps);
        }
        let pass = lost == 0 && evacuated > 0;
        all_pass &= pass;
        // Pool the per-seed wait stats over the seeds that had samples.
        let with: Vec<&LatencyStats> = waits.iter().filter(|w| w.count > 0).collect();
        let wait = if with.is_empty() {
            LatencyStats::default()
        } else {
            LatencyStats {
                count: waits.iter().map(|w| w.count).sum(),
                median_ms: mean(&with.iter().map(|w| w.median_ms).collect::<Vec<_>>()),
                mean_ms: mean(&with.iter().map(|w| w.mean_ms).collect::<Vec<_>>()),
                p99_ms: mean(&with.iter().map(|w| w.p99_ms).collect::<Vec<_>>()),
                max_ms: with.iter().map(|w| w.max_ms).fold(0.0, f64::max),
            }
        };
        println!(
            "board-failure (rebalance {}): {} evacuated ({} same tick), {} lost, \
             evacuation wait mean {:.0} ms, agg {:.2} inf/s [{}]",
            rebalancing,
            evacuated,
            relocated,
            lost,
            wait.mean_ms,
            mean(&tps),
            if pass { "pass" } else { "FAIL" },
        );
        let mut drive = trace_config_pairs(&poisson_trace_cfg(&scale, Vec::new()));
        drive.extend(scale_pairs(&scale));
        drive.push(("boards", "3+1lite".into()));
        drive.push(("rebalance", rebalancing.to_string()));
        failure_rows.push(format!(
            concat!(
                "    {{\"rebalance\": {}, ",
                "\"config_digest\": \"{:#018x}\", \"trace_seeds\": {}, ",
                "\"evacuated_jobs\": {}, ",
                "\"relocated_same_tick\": {}, \"lost_jobs\": {}, \"evacuation_wait_ms\": {}, ",
                "\"mean_aggregate_tps\": {:.4}, \"pass\": {}}}"
            ),
            rebalancing,
            config_digest(&drive),
            scale.trace_seeds.len(),
            evacuated,
            relocated,
            lost,
            latency_json(&wait),
            mean(&tps),
            pass,
        ));
    }
    // ---- 3. Tenant fairness: FairShare vs LeastLoaded ----------------
    let mut ratios = (Vec::new(), Vec::new());
    let mut tpss = (Vec::new(), Vec::new());
    for seed in scale.trace_seeds {
        let ll = run_fairness(&scale, *seed, PlacementPolicy::LeastLoaded);
        let fs = run_fairness(&scale, *seed, PlacementPolicy::FairShare);
        ratios.0.push(tenant_tps_ratio(&ll.summary.tenants));
        ratios.1.push(tenant_tps_ratio(&fs.summary.tenants));
        tpss.0.push(ll.summary.mean_aggregate_tps);
        tpss.1.push(fs.summary.mean_aggregate_tps);
    }
    let (ll_ratio, fs_ratio) = (mean(&ratios.0), mean(&ratios.1));
    let (ll_tps, fs_tps) = (mean(&tpss.0), mean(&tpss.1));
    // The ratio comparison needs the multi-seed average to be
    // meaningful; the single-seed smoke run exercises the pipeline but
    // is too noisy to judge, so its verdict is informational only.
    let fair_pass = (fs_ratio < ll_ratio && fs_tps >= ll_tps * 0.98) || smoke;
    all_pass &= fair_pass;
    println!(
        "tenant-fairness: max/min tps ratio least-loaded {ll_ratio:.2} -> fair-share \
         {fs_ratio:.2}, agg {ll_tps:.2} -> {fs_tps:.2} inf/s ({:+.2}%) [{}]",
        (fs_tps / ll_tps - 1.0) * 100.0,
        if fair_pass { "pass" } else { "FAIL" },
    );
    let mut fair_drive = trace_config_pairs(&poisson_trace_cfg(&scale, vec![7.0, 1.0, 1.0, 1.0]));
    fair_drive.extend(scale_pairs(&scale));
    fair_drive.push(("boards", "4".into()));
    fair_drive.push(("section", "tenant_fairness".into()));
    let fairness_json = format!(
        concat!(
            "  \"tenant_fairness\": {{\n",
            "    \"config_digest\": \"{:#018x}\",\n",
            "    \"trace_seeds\": {}, \"tenant_weights\": [7, 1, 1, 1],\n",
            "    \"least_loaded\": {{\"tenant_tps_ratio\": {:.4}, \"mean_aggregate_tps\": {:.4}}},\n",
            "    \"fair_share\": {{\"tenant_tps_ratio\": {:.4}, \"mean_aggregate_tps\": {:.4}}},\n",
            "    \"ratio_reduction_pct\": {:.2}, \"aggregate_delta_pct\": {:.2}, \"pass\": {}\n",
            "  }}"
        ),
        config_digest(&fair_drive),
        scale.trace_seeds.len(),
        ll_ratio,
        ll_tps,
        fs_ratio,
        fs_tps,
        (1.0 - fs_ratio / ll_ratio) * 100.0,
        (fs_tps / ll_tps - 1.0) * 100.0,
        fair_pass,
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"fleet\",\n",
            "  \"horizon_ms\": {},\n",
            "  \"cold_iterations\": {},\n",
            "  \"warm_iterations\": {},\n",
            "  \"rebalance_period_ms\": {},\n",
            "  \"host_threads\": {},\n",
            "  \"note\": \"Orchestrated fleets driven by omniboost-orchestrator over the DES ",
            "board stand-in with the analytic model guiding every search. skewed_departure: ",
            "deterministic mass departure leaves 4 jobs piled on board 0 while 3 boards idle; ",
            "the rebalanced arm may move jobs (each move priced by warm-started speculative ",
            "rescheduling against migrated layers), the pinned arm may not. board_failure: ",
            "board 0 dies mid-trace on a heterogeneous 3+1-lite fleet; every resident job must ",
            "re-place or queue (lost_jobs == 0) and evacuation latency is simulated ms from ",
            "failure to landing on a new board (evacuees re-place heaviest model first). ",
            "tenant_fairness: Poisson traffic with one ",
            "tenant submitting 70% of jobs; fair-share placement reserves the emptiest board ",
            "for tenants below fair share, judged on the max/min per-tenant mean-throughput ",
            "ratio at <= 2% aggregate cost.\",\n",
            "  \"all_pass\": {},\n",
            "{},\n",
            "  \"board_failure\": [\n{}\n  ],\n",
            "{}\n",
            "}}\n"
        ),
        scale.horizon_ms,
        scale.cold_iterations,
        scale.warm_iterations,
        scale.rebalance_period_ms,
        omniboost_bench::host_threads(),
        all_pass,
        skew_json,
        failure_rows.join(",\n"),
        fairness_json,
    );
    omniboost_bench::write_snapshot("fleet", &json);
}
