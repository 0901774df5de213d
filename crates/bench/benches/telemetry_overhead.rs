//! A/B overhead of recording vs no-op telemetry on the serving path.
//!
//! Replays the **same seeded trace** through two otherwise identical
//! `ServingSim`s — one with the default `Telemetry::noop()` handle, one
//! with `Telemetry::recording()` attached — and compares the decision
//! latency the simulator actually measured (the span-instrumented
//! search/memo path is exactly where the recording handle spends its
//! atomics). Arms are interleaved per repeat so thermal and cache
//! drift hit both equally, and each (arm, seed) cell keeps its
//! best-of-N repeat, so the comparison is floor-vs-floor rather than
//! noise-vs-noise.
//!
//! Writes `BENCH_telemetry_overhead.json`. The acceptance bar of the
//! telemetry PR: mean decision latency with a recording handle stays
//! within **3%** of the no-op arm (full mode only — smoke traces are
//! too short for the ratio to mean anything, and smoke never rewrites
//! the snapshot). The run also cross-checks that both arms produce the
//! **same report digest**: observability must never perturb decisions.
//!
//! `SMOKE=1` shrinks the trace and repeat count so CI finishes in
//! seconds.

use omniboost_bench::{config_digest, trace_config_pairs};
use omniboost_hw::{AnalyticModel, Board};
use omniboost_models::{ArrivalProcess, ArrivalTrace, TraceConfig};
use omniboost_serve::{
    LatencyStats, OnlineConfig, SearchBudget, ServingConfig, ServingSim, Telemetry,
};

/// The overhead bar: recording-arm mean decision latency may exceed
/// the no-op arm's by at most this fraction.
const MAX_OVERHEAD: f64 = 0.03;

struct BenchScale {
    horizon_ms: u64,
    cold_iterations: usize,
    warm_iterations: usize,
    repeats: usize,
    trace_seeds: &'static [u64],
}

impl BenchScale {
    fn full() -> Self {
        Self {
            horizon_ms: 60_000,
            cold_iterations: 300,
            warm_iterations: 100,
            repeats: 5,
            trace_seeds: &[7, 1007, 2007],
        }
    }

    fn smoke() -> Self {
        Self {
            horizon_ms: 8_000,
            cold_iterations: 60,
            warm_iterations: 24,
            repeats: 2,
            trace_seeds: &[7],
        }
    }
}

fn trace_cfg(scale: &BenchScale) -> TraceConfig {
    TraceConfig {
        horizon_ms: scale.horizon_ms,
        mean_lifetime_ms: scale.horizon_ms as f64 / 8.0,
        ..TraceConfig::default()
    }
}

fn process(scale: &BenchScale) -> ArrivalProcess {
    // Bursty keeps both warm and cold decision kinds exercised: bursts
    // force fresh placements (cold) and the steady tail reschedules
    // around departures (warm + memo).
    ArrivalProcess::Bursty {
        on_rate_per_s: 1.0,
        on_ms: scale.horizon_ms / 9,
        off_ms: scale.horizon_ms / 6,
    }
}

/// One run of one arm. Returns (report digest, decisions, pooled mean
/// decision latency in ms, spans retained by the handle).
fn run_arm(
    trace: &ArrivalTrace,
    scale: &BenchScale,
    telemetry: &Telemetry,
) -> (u64, usize, f64, usize) {
    let config = ServingConfig {
        online: OnlineConfig {
            cold_budget: SearchBudget::with_iterations(scale.cold_iterations),
            warm_budget: SearchBudget::with_iterations(scale.warm_iterations),
            ..OnlineConfig::default()
        },
        ..ServingConfig::warm()
    };
    let mut sim = ServingSim::new(vec![Board::hikey970(); 2], config, AnalyticModel::new);
    sim.set_telemetry(telemetry.clone());
    let report = sim.run(trace, scale.horizon_ms);
    let s = &report.summary;
    // Pooled mean across every decision kind, weighted by count — the
    // per-kind LatencyStats are histogram-backed, but count and mean
    // are exact, so the weighted mean is too.
    let pooled = |stats: &[&LatencyStats]| -> f64 {
        let n: usize = stats.iter().map(|l| l.count).sum();
        if n == 0 {
            return 0.0;
        }
        stats
            .iter()
            .map(|l| l.mean_ms * l.count as f64)
            .sum::<f64>()
            / n as f64
    };
    let mean_ms = pooled(&[&s.cold, &s.warm, &s.memo]);
    (
        report.digest(),
        s.decisions,
        mean_ms,
        telemetry.spans().len(),
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
    for &seed in scale.trace_seeds {
        let trace = ArrivalTrace::generate(process(&scale), &trace_cfg(&scale), seed);

        // Interleaved repeats; keep the fastest mean per arm.
        let mut noop_best = f64::INFINITY;
        let mut rec_best = f64::INFINITY;
        let mut noop_digest = 0u64;
        let mut rec_digest = 0u64;
        let mut decisions = 0usize;
        let mut spans_retained = 0usize;
        for _ in 0..scale.repeats {
            let (d, n, mean_ms, _) = run_arm(&trace, &scale, &Telemetry::noop());
            noop_digest = d;
            decisions = n;
            noop_best = noop_best.min(mean_ms);

            let recording = Telemetry::recording();
            let (d, _, mean_ms, spans) = run_arm(&trace, &scale, &recording);
            rec_digest = d;
            spans_retained = spans;
            rec_best = rec_best.min(mean_ms);
        }
        assert_eq!(
            noop_digest, rec_digest,
            "recording telemetry perturbed the replay digest (seed {seed})"
        );

        let overhead = if noop_best > 0.0 {
            rec_best / noop_best - 1.0
        } else {
            0.0
        };
        // The bar only binds in full mode: smoke decisions are so few
        // and so fast that the ratio is pure scheduler noise.
        let pass = smoke || overhead <= MAX_OVERHEAD;
        all_pass &= pass;

        let mut drive = trace_config_pairs(&trace_cfg(&scale));
        drive.push(("boards", "2".to_string()));
        drive.push(("cold_iterations", scale.cold_iterations.to_string()));
        drive.push(("process", format!("{:?}", process(&scale))));
        drive.push(("repeats", scale.repeats.to_string()));
        drive.push(("seed", seed.to_string()));
        drive.push(("warm_iterations", scale.warm_iterations.to_string()));
        let digest = config_digest(&drive);

        println!(
            "seed {seed}: mean decision noop {noop_best:.4} ms -> recording {rec_best:.4} ms \
             ({:+.2}%), {decisions} decisions, {spans_retained} spans retained, \
             replay digest {noop_digest:#018x} [{}]",
            overhead * 100.0,
            if pass { "pass" } else { "FAIL" },
        );
        rows.push(format!(
            concat!(
                "    {{\"seed\": {}, \"config_digest\": \"{:#018x}\", ",
                "\"decisions\": {}, \"spans_retained\": {}, ",
                "\"noop_mean_decision_ms\": {:.5}, ",
                "\"recording_mean_decision_ms\": {:.5}, ",
                "\"overhead_frac\": {:.5}, ",
                "\"replay_digest\": \"{:#018x}\", \"pass\": {}}}"
            ),
            seed,
            digest,
            decisions,
            spans_retained,
            noop_best,
            rec_best,
            overhead,
            noop_digest,
            pass,
        ));
    }

    let threads = omniboost_bench::host_threads();
    let json = format!(
        concat!(
            "{{\n",
            "  \"benchmark\": \"telemetry_overhead\",\n",
            "  \"trace_seeds\": {:?},\n",
            "  \"horizon_ms\": {},\n",
            "  \"repeats\": {},\n",
            "  \"max_overhead_frac\": {},\n",
            "  \"host_threads\": {},\n",
            "  \"note\": \"Same seeded bursty trace replayed through identical ServingSims, ",
            "one with Telemetry::noop() and one with Telemetry::recording(); arms ",
            "interleaved per repeat, best-of-N mean decision latency per arm ",
            "(pooled over cold/warm/memo kinds, count-weighted). pass = recording ",
            "mean within max_overhead_frac of noop mean; both arms must produce ",
            "the same replay digest\",\n",
            "  \"all_pass\": {},\n",
            "  \"rows\": [\n{}\n  ]\n",
            "}}\n"
        ),
        scale.trace_seeds,
        scale.horizon_ms,
        scale.repeats,
        MAX_OVERHEAD,
        threads,
        all_pass,
        rows.join(",\n"),
    );
    assert!(
        all_pass,
        "recording telemetry exceeded the {:.0}% decision-latency overhead bar",
        MAX_OVERHEAD * 100.0
    );
    omniboost_bench::write_snapshot("telemetry_overhead", &json);
}
