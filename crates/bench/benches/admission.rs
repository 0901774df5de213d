//! Admission-control bench: the shared mempool under overload.
//!
//! Drives the serving runtime at 2× and 5× of the fleet's sustainable
//! arrival rate with a 70/10/10/10 tenant skew and a mixed SLO-class
//! workload (30% guaranteed), comparing two admission arms:
//!
//! * **fifo** — [`AdmissionPolicy::default`]: the permissive historical
//!   queue (FIFO, no quota, no TTL, no backoff).
//! * **mempool** — the strict overload posture: deficit-weighted drain,
//!   per-tenant in-queue quotas, TTL eviction and retry backoff.
//!
//! Writes `BENCH_admission.json`. The acceptance bars of the admission
//! PR, evaluated inline per cell:
//!
//! * at 2× overload the mempool arm keeps guaranteed-class attainment
//!   at **≥ 95%**, and
//! * best-effort work is never starved to zero in any cell (the class
//!   priority must not become a denial of service).
//!
//! Every cell stamps a Drive-As-Code `config_digest` — the FNV-1a hash
//! of the declarative trace + admission configs that produced it — so
//! snapshot rows are traceable to their exact drive.
//!
//! `SMOKE=1` (the CI mode) shrinks the horizon and **does not** rewrite
//! the JSON snapshot.

use omniboost_bench::{admission_policy_pairs, config_digest, trace_config_pairs};
use omniboost_hw::{AnalyticModel, Board};
use omniboost_models::{ArrivalProcess, ArrivalTrace, TraceConfig};
use omniboost_serve::{
    AdmissionPolicy, OnlineConfig, QueueOrder, SearchBudget, ServingConfig, ServingReport,
    ServingSim,
};

const BOARDS: usize = 2;
/// Sustainable arrival rate per board (jobs/s) at the trace's mean
/// lifetime — the 1× anchor the overload factors multiply.
const BASE_RATE_PER_BOARD: f64 = 0.25;

struct BenchScale {
    horizon_ms: u64,
    trace_seeds: &'static [u64],
}

impl BenchScale {
    fn full() -> Self {
        Self {
            horizon_ms: 60_000,
            trace_seeds: &[42, 1042, 2042],
        }
    }

    fn smoke() -> Self {
        Self {
            horizon_ms: 10_000,
            trace_seeds: &[42],
        }
    }
}

fn strict_policy(scale: &BenchScale) -> AdmissionPolicy {
    AdmissionPolicy {
        order: QueueOrder::TenantDeficit,
        validate: true,
        tenant_queue_quota: Some(4),
        ttl_ms: Some(scale.horizon_ms / 6),
        retry_backoff_ms: Some(250),
        max_backoff_ms: 4_000,
    }
}

fn trace_cfg(scale: &BenchScale) -> TraceConfig {
    TraceConfig {
        horizon_ms: scale.horizon_ms,
        mean_lifetime_ms: scale.horizon_ms as f64 / 8.0,
        // 70/10/10/10: tenant 0 sends seventy percent of the traffic.
        tenant_weights: vec![7.0, 1.0, 1.0, 1.0],
        guaranteed_share: 0.3,
        guaranteed_min_tps: 0.5,
        ..TraceConfig::default()
    }
}

fn run(overload: f64, admission: AdmissionPolicy, scale: &BenchScale, seed: u64) -> ServingReport {
    let trace = ArrivalTrace::generate(
        ArrivalProcess::Poisson {
            rate_per_s: overload * BASE_RATE_PER_BOARD * BOARDS as f64,
        },
        &trace_cfg(scale),
        seed,
    );
    let config = ServingConfig {
        online: OnlineConfig {
            cold_budget: SearchBudget::with_iterations(60),
            warm_budget: SearchBudget::with_iterations(24),
            ..OnlineConfig::default()
        },
        admission,
        ..ServingConfig::warm()
    };
    let mut sim = ServingSim::new(vec![Board::hikey970(); BOARDS], config, AnalyticModel::new);
    sim.run(&trace, scale.horizon_ms)
}

fn main() {
    let smoke = omniboost_bench::smoke();
    let scale = if smoke {
        BenchScale::smoke()
    } else {
        BenchScale::full()
    };

    let arms: [(&str, AdmissionPolicy); 2] = [
        ("fifo", AdmissionPolicy::default()),
        ("mempool", strict_policy(&scale)),
    ];
    let mut rows = Vec::new();
    let mut all_pass = true;
    for overload in [2.0f64, 5.0] {
        for (arm, admission) in &arms {
            let reports: Vec<ServingReport> = scale
                .trace_seeds
                .iter()
                .map(|s| run(overload, *admission, &scale, *s))
                .collect();
            let sum =
                |f: &dyn Fn(&ServingReport) -> usize| -> usize { reports.iter().map(f).sum() };
            let mean = |f: &dyn Fn(&ServingReport) -> f64| -> f64 {
                reports.iter().map(f).sum::<f64>() / reports.len() as f64
            };
            let arrivals = sum(&|r| r.summary.arrivals);
            let placements = sum(&|r| r.summary.placements);
            let rejected = sum(&|r| r.summary.rejected);
            let expired = sum(&|r| r.summary.expired);
            let left_in_queue = sum(&|r| r.summary.left_in_queue);
            let peak_queue = reports
                .iter()
                .map(|r| r.summary.peak_queue_depth)
                .max()
                .unwrap_or(0);
            let gtd_jobs = sum(&|r| r.summary.slo.guaranteed_jobs);
            let gtd_met = sum(&|r| r.summary.slo.guaranteed_met);
            let gtd_attainment = if gtd_jobs > 0 {
                gtd_met as f64 / gtd_jobs as f64
            } else {
                1.0
            };
            let be_jobs = sum(&|r| r.summary.slo.best_effort_jobs);
            let be_served = sum(&|r| r.summary.slo.best_effort_served);
            let be_tps = mean(&|r| r.summary.slo.best_effort_mean_tps);
            let agg_tps = mean(&|r| r.summary.mean_aggregate_tps);
            // The acceptance bars. Guaranteed attainment is gated on the
            // strict arm at 2× (5× is reported, not gated: at five times
            // capacity *some* floors must give); best-effort starvation
            // is gated everywhere.
            let gate_attainment = *arm == "mempool" && (overload - 2.0).abs() < f64::EPSILON;
            let pass =
                (!gate_attainment || gtd_attainment >= 0.95) && (be_jobs == 0 || be_served > 0);
            all_pass &= pass;
            let mut drive = trace_config_pairs(&trace_cfg(&scale));
            drive.extend(admission_policy_pairs(admission));
            drive.push(("overload", format!("{overload:?}")));
            drive.push(("boards", BOARDS.to_string()));
            let digest = config_digest(&drive);
            println!(
                "{overload:.0}x {arm}: {arrivals} arrivals -> {placements} placed, \
                 {rejected} rejected, {expired} expired, peak queue {peak_queue}; \
                 guaranteed {gtd_met}/{gtd_jobs} ({:.1}%), best-effort served \
                 {be_served}/{be_jobs} at {be_tps:.2} tps [{}]",
                gtd_attainment * 100.0,
                if pass { "pass" } else { "FAIL" },
            );
            rows.push(format!(
                concat!(
                    "    {{\"overload\": {}, \"arm\": \"{}\", \"config_digest\": \"{:#018x}\", ",
                    "\"trace_seeds\": {}, \"arrivals\": {}, \"placements\": {}, ",
                    "\"rejected\": {}, \"expired\": {}, \"left_in_queue\": {}, ",
                    "\"peak_queue_depth\": {}, ",
                    "\"guaranteed\": {{\"jobs\": {}, \"met\": {}, \"attainment\": {:.4}}}, ",
                    "\"best_effort\": {{\"jobs\": {}, \"served\": {}, \"mean_tps\": {:.4}}}, ",
                    "\"mean_aggregate_tps\": {:.4}, \"pass\": {}}}"
                ),
                overload,
                arm,
                digest,
                scale.trace_seeds.len(),
                arrivals,
                placements,
                rejected,
                expired,
                left_in_queue,
                peak_queue,
                gtd_jobs,
                gtd_met,
                gtd_attainment,
                be_jobs,
                be_served,
                be_tps,
                agg_tps,
                pass,
            ));
        }
    }

    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"admission\",\n",
            "  \"trace_seeds\": {:?},\n",
            "  \"horizon_ms\": {},\n",
            "  \"boards\": {},\n",
            "  \"base_rate_per_board_s\": {},\n",
            "  \"note\": \"fifo = AdmissionPolicy::default() (the permissive historical ",
            "queue: FIFO drain, no quota, no TTL, no backoff); mempool = strict posture ",
            "(TenantDeficit drain, per-tenant in-queue quota, TTL eviction, exponential ",
            "retry backoff). Traffic is Poisson at overload x the sustainable rate with ",
            "a 70/10/10/10 tenant skew and 30% guaranteed-class arrivals (0.5 inf/s ",
            "floor). Guaranteed-class queue-jumping and floor-honoring placement apply ",
            "to both arms (they are properties of the shared mempool drain, not the ",
            "policy). config_digest is the FNV-1a hash of the declarative trace + ",
            "admission configs that drove the cell (Drive-As-Code provenance). pass = ",
            "guaranteed attainment >= 95% on the mempool arm at 2x overload, and ",
            "best-effort work never starved to zero in any cell\",\n",
            "  \"all_pass\": {},\n",
            "  \"rows\": [\n{}\n  ]\n",
            "}}\n"
        ),
        scale.trace_seeds,
        scale.horizon_ms,
        BOARDS,
        BASE_RATE_PER_BOARD,
        all_pass,
        rows.join(",\n"),
    );
    omniboost_bench::write_snapshot("admission", &json);
}
