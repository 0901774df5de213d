//! Partial-failure chaos bench: seeded chaos scripts (failures, joins,
//! in-place degrades, recoveries and fail→rejoin flaps) replayed
//! against the orchestrated fleet at three intensities, judged against
//! a chaos-free oracle run of the same traffic.
//!
//! Writes `BENCH_chaos.json`. The acceptance bars of the chaos PR,
//! evaluated inline:
//!
//! * **no losses** — `lost_jobs == 0` in every cell, chaos or not;
//! * **warm reboots engage** — flapped/recovered boards preload a
//!   nonzero number of evaluation-cache entries over the sweep (the
//!   warm-pool boot path actually fires).
//!
//! Every row stamps a Drive-As-Code `config_digest` over the trace +
//! chaos-script + orchestrator knobs that drove it.
//!
//! `SMOKE=1` (the CI mode) shrinks horizons and budgets so the whole
//! bench runs in seconds and **does not** rewrite the JSON snapshot.

use omniboost_bench::{config_digest, fleet_script_pairs, trace_config_pairs};
use omniboost_hw::AnalyticModel;
use omniboost_models::{ArrivalProcess, ArrivalTrace, FleetScript, FleetScriptConfig, TraceConfig};
use omniboost_orchestrator::{
    BoardProfile, FleetSpec, OrchestratorConfig, OrchestratorReport, OrchestratorSim,
    RebalanceConfig,
};
use omniboost_serve::{OnlineConfig, SearchBudget};

const BOARDS: usize = 4;

struct BenchScale {
    horizon_ms: u64,
    cold_iterations: usize,
    warm_iterations: usize,
    trace_seeds: &'static [u64],
}

impl BenchScale {
    fn full() -> Self {
        Self {
            horizon_ms: 60_000,
            cold_iterations: 300,
            warm_iterations: 100,
            trace_seeds: &[42, 1042, 2042],
        }
    }

    fn smoke() -> Self {
        Self {
            horizon_ms: 15_000,
            cold_iterations: 60,
            warm_iterations: 24,
            trace_seeds: &[42],
        }
    }
}

/// One chaos intensity: every channel's mean interval is the horizon
/// divided by its expected event count, so the pressure scales with
/// the run length and the smoke run still fires events.
fn script_config(scale: &BenchScale, intensity: f64) -> FleetScriptConfig {
    let h = scale.horizon_ms as f64;
    FleetScriptConfig {
        horizon_ms: scale.horizon_ms,
        initial_boards: BOARDS,
        join_profiles: 1,
        mean_fail_interval_ms: h / (0.5 * intensity),
        mean_drain_interval_ms: 0.0,
        mean_join_interval_ms: h / (0.5 * intensity),
        mean_degrade_interval_ms: h / (1.5 * intensity),
        mean_recover_interval_ms: h / (2.0 * intensity),
        degrade_profiles: 2,
        mean_flap_interval_ms: h / (1.0 * intensity),
        flap_down_ms: scale.horizon_ms / 12,
    }
}

fn trace_cfg(scale: &BenchScale) -> TraceConfig {
    TraceConfig {
        horizon_ms: scale.horizon_ms,
        mean_lifetime_ms: scale.horizon_ms as f64 / 6.0,
        // 30% guaranteed-class arrivals with a modest floor: chaos is
        // judged on how much guaranteed attainment it costs.
        guaranteed_share: 0.3,
        guaranteed_min_tps: 0.5,
        ..TraceConfig::default()
    }
}

fn config(scale: &BenchScale) -> OrchestratorConfig {
    OrchestratorConfig {
        online: OnlineConfig {
            cold_budget: SearchBudget::with_iterations(scale.cold_iterations),
            warm_budget: SearchBudget::with_iterations(scale.warm_iterations),
            ..OnlineConfig::default()
        },
        rebalance: Some(RebalanceConfig::default()),
        ..OrchestratorConfig::warm()
    }
}

fn run(scale: &BenchScale, seed: u64, script: &FleetScript) -> OrchestratorReport {
    let trace = ArrivalTrace::generate(
        ArrivalProcess::Poisson {
            rate_per_s: 0.3 * BOARDS as f64,
        },
        &trace_cfg(scale),
        seed,
    );
    let mut sim = OrchestratorSim::new(
        FleetSpec::homogeneous(BOARDS, BoardProfile::hikey970()),
        config(scale),
        AnalyticModel::new,
    );
    sim.run(&trace, script, scale.horizon_ms)
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

struct Cell {
    tps: f64,
    oracle_tps: f64,
    attainment: f64,
    oracle_attainment: f64,
    lost_jobs: usize,
    evacuated: usize,
    degrade_evictions: usize,
    degrades: usize,
    recovers: usize,
    failures: usize,
    joins: usize,
    warm_boots: usize,
    warm_boot_entries: usize,
}

/// Averages one chaos arm over the trace seeds, pairing each chaos run
/// with its chaos-free oracle on the same traffic.
fn cell(scale: &BenchScale, intensity: f64) -> Cell {
    let cfg = script_config(scale, intensity);
    let (mut tps, mut otps) = (Vec::new(), Vec::new());
    let (mut att, mut oatt) = (Vec::new(), Vec::new());
    let mut c = Cell {
        tps: 0.0,
        oracle_tps: 0.0,
        attainment: 0.0,
        oracle_attainment: 0.0,
        lost_jobs: 0,
        evacuated: 0,
        degrade_evictions: 0,
        degrades: 0,
        recovers: 0,
        failures: 0,
        joins: 0,
        warm_boots: 0,
        warm_boot_entries: 0,
    };
    for seed in scale.trace_seeds {
        let script = FleetScript::generate(&cfg, seed ^ 0xC4A05);
        let chaos = run(scale, *seed, &script);
        let oracle = run(scale, *seed, &FleetScript::none());
        tps.push(chaos.summary.mean_aggregate_tps);
        otps.push(oracle.summary.mean_aggregate_tps);
        att.push(chaos.summary.slo.guaranteed_attainment);
        oatt.push(oracle.summary.slo.guaranteed_attainment);
        c.lost_jobs += chaos.summary.lost_jobs + oracle.summary.lost_jobs;
        c.evacuated += chaos.summary.evacuated_jobs;
        c.degrade_evictions += chaos.summary.degrade_evictions;
        c.degrades += chaos.summary.board_degrades;
        c.recovers += chaos.summary.board_recovers;
        c.failures += chaos.summary.board_failures;
        c.joins += chaos.summary.board_joins;
        c.warm_boots += chaos.summary.warm_boots;
        c.warm_boot_entries += chaos.summary.warm_boot_entries;
    }
    c.tps = mean(&tps);
    c.oracle_tps = mean(&otps);
    c.attainment = mean(&att);
    c.oracle_attainment = mean(&oatt);
    c
}

fn main() {
    let smoke = omniboost_bench::smoke();
    let scale = if smoke {
        BenchScale::smoke()
    } else {
        BenchScale::full()
    };
    let intensities = [("low", 1.0), ("medium", 2.0), ("high", 4.0)];

    let mut rows = Vec::new();
    let mut all_pass = true;
    let mut total_warm_boots = 0usize;
    for (name, intensity) in intensities {
        let c = cell(&scale, intensity);
        total_warm_boots += c.warm_boots;
        let lost_pct = (1.0 - c.tps / c.oracle_tps.max(1e-12)) * 100.0;
        // Every join, recovery and in-place degrade is a chance to
        // preload a retired cache (degrades preload too: a repeat
        // brown-out to a profile the run has seen boots warm).
        let rejoins = c.joins + c.recovers + c.degrades;
        let warm_rate = if rejoins == 0 {
            0.0
        } else {
            c.warm_boots as f64 / rejoins as f64
        };
        let pass = c.lost_jobs == 0;
        all_pass &= pass;
        let mut drive = trace_config_pairs(&trace_cfg(&scale));
        drive.extend(fleet_script_pairs(&script_config(&scale, intensity)));
        drive.push(("boards", BOARDS.to_string()));
        drive.push(("intensity", format!("{intensity:?}")));
        let digest = config_digest(&drive);
        println!(
            "chaos {name} (x{intensity}): {} degrades / {} recovers / {} failures / {} joins, \
             agg {:.2} inf/s vs oracle {:.2} ({lost_pct:.1}% lost), guaranteed attainment \
             {:.1}% (oracle {:.1}%), warm boots {}/{rejoins} rejoins ({} entries) [{}]",
            c.degrades,
            c.recovers,
            c.failures,
            c.joins,
            c.tps,
            c.oracle_tps,
            c.attainment * 100.0,
            c.oracle_attainment * 100.0,
            c.warm_boots,
            c.warm_boot_entries,
            if pass { "pass" } else { "FAIL" },
        );
        rows.push(format!(
            concat!(
                "    {{\"intensity\": \"{}\", \"factor\": {}, \"config_digest\": \"{:#018x}\", ",
                "\"trace_seeds\": {}, ",
                "\"board_degrades\": {}, \"board_recovers\": {}, \"board_failures\": {}, ",
                "\"board_joins\": {}, \"evacuated_jobs\": {}, \"degrade_evictions\": {}, ",
                "\"lost_jobs\": {}, \"mean_aggregate_tps\": {:.4}, \"oracle_tps\": {:.4}, ",
                "\"lost_throughput_pct\": {:.2}, ",
                "\"guaranteed_attainment\": {:.4}, \"oracle_guaranteed_attainment\": {:.4}, ",
                "\"warm_boots\": {}, \"warm_boot_entries\": {}, \"warm_boot_rate\": {:.3}, ",
                "\"pass\": {}}}"
            ),
            name,
            intensity,
            digest,
            scale.trace_seeds.len(),
            c.degrades,
            c.recovers,
            c.failures,
            c.joins,
            c.evacuated,
            c.degrade_evictions,
            c.lost_jobs,
            c.tps,
            c.oracle_tps,
            lost_pct,
            c.attainment,
            c.oracle_attainment,
            c.warm_boots,
            c.warm_boot_entries,
            warm_rate,
            pass,
        ));
    }

    // Warm reboots must actually engage somewhere in the sweep.
    let warm_pass = total_warm_boots > 0;
    all_pass &= warm_pass;
    println!(
        "warm-reboot engagement: {total_warm_boots} warm boots across the sweep [{}]",
        if warm_pass { "pass" } else { "FAIL" },
    );

    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"chaos\",\n",
            "  \"trace_seeds\": {:?},\n",
            "  \"horizon_ms\": {},\n",
            "  \"boards\": {},\n",
            "  \"host_threads\": {},\n",
            "  \"note\": \"Seeded chaos scripts (failures, joins, in-place degrades to a ",
            "weaker profile pool, recoveries, fail->rejoin flaps) replayed against a ",
            "{}-board orchestrated fleet under Poisson traffic with 30% guaranteed-class ",
            "arrivals. oracle_tps is the same traffic replayed with no chaos script, so ",
            "lost_throughput_pct prices the chaos itself. Degraded boards keep every ",
            "resident the weaker profile still admits (re-priced in place; migrations ",
            "must clear the rebalancer's priced gain bar); flapped and recovered boards ",
            "warm-boot by copying, in memory, the cache their hardware fingerprint last ",
            "retired (or a live peer's). ",
            "config_digest is the FNV-1a hash of the declarative trace + chaos-script + ",
            "orchestrator knobs that drove the row. pass = zero lost jobs everywhere and ",
            "nonzero warm boots across the sweep\",\n",
            "  \"all_pass\": {},\n",
            "  \"warm_boots_total\": {},\n",
            "  \"rows\": [\n{}\n  ]\n",
            "}}\n"
        ),
        scale.trace_seeds,
        scale.horizon_ms,
        BOARDS,
        omniboost_bench::host_threads(),
        BOARDS,
        all_pass,
        total_warm_boots,
        rows.join(",\n"),
    );
    omniboost_bench::write_snapshot("chaos", &json);
}
