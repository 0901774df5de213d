//! `paper_mixes_decide`: the paper's decision path, in process.
//!
//! Rounds over the 15 evaluation mixes of Fig. 5. For each mix the
//! cross-decision evaluation cache is cleared and the mix decided
//! (cold: 500 estimator-guided MCTS iterations, then one measurement on
//! the board simulator), then decided again (repeat: the search replays
//! against a warm evaluation cache). `estimator` and `tensor` do most
//! of the work and `mcts` the rest; `serve`, `rpc` and `orchestrator`
//! do none, so a decision-path gain shows here and must not show on
//! `daemon_recurring_reads`.

use crate::canon::{self, ms_since, Preset, SplitMix};
use crate::report::{Metrics, Outcome};
use crate::spans::{self, EvalCounters, Recorder, SpanRec, TracedModel};
use crate::stats::{fastest, fastest_per_op, median_of, Samples};
use crate::{layers, Run};
use omniboost::{OmniBoost, OmniBoostConfig, Runtime};
use omniboost_estimator::{BoardScopedCache, CnnEstimator};
use omniboost_hw::{Board, Device, HwError, Mapping, ThroughputReport, Workload};
use omniboost_mcts::{Mcts, SchedulingEnv};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Design-time passes for `setup_s`: the estimator of the last pass and
/// the wall seconds of each.
pub fn design_passes(preset: &Preset) -> (canon::DesignTime, Vec<f64>) {
    let mut seconds = Vec::with_capacity(preset.setup_passes);
    let mut last = None;
    for _ in 0..preset.setup_passes.max(1) {
        let t = Instant::now();
        last = Some(canon::design_time(preset));
        seconds.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one pass"), seconds)
}

/// Design-time layer metrics every traced run reports.
pub fn design_metrics(metrics: &mut Metrics, preset: &Preset, design: &canon::DesignTime) {
    metrics.set("estimator.dataset.generate_ms", design.dataset_ms, 1);
    metrics.set(
        "estimator.train.ms_per_epoch",
        design.train_ms / preset.train_epochs as f64,
        preset.train_epochs,
    );
    metrics.set("estimator.train.val_loss", design.val_loss, 1);
}

fn geomean(values: &[f64]) -> f64 {
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// What the rounds over the mixes measured.
#[derive(Default)]
struct Rounds {
    /// Per round: the cold and the repeat latency of every mix, indexed
    /// by mix, and the round's wall seconds.
    cold_ms: Vec<Vec<f64>>,
    repeat_ms: Vec<Vec<f64>>,
    round_s: Vec<f64>,
    /// Decided mapping and its measured throughput per mix, from the
    /// first round; later rounds must reproduce both bit for bit.
    decided: Vec<Option<(Mapping, f64)>>,
    attempted: usize,
    failed: usize,
}

/// Latencies over the mixes, each mix at the fastest of its rounds:
/// every round decides the same mixes, so the rounds are repeats of the
/// same operations (see [`fastest_per_op`]).
fn over_mixes(rounds: &[Vec<f64>]) -> Samples {
    Samples::new(fastest_per_op(rounds))
}

impl Rounds {
    /// Checks one decision against the mix's first and counts it.
    fn admit(
        &mut self,
        outcome: &mut Outcome,
        mix: usize,
        workload: &Workload,
        result: Result<(Mapping, ThroughputReport), HwError>,
    ) {
        self.attempted += 1;
        let ok = match result {
            Err(e) => {
                outcome.check(false, || format!("mix {mix}: decision failed: {e}"));
                false
            }
            Ok((mapping, report)) => {
                let valid = mapping.validate(workload).is_ok();
                outcome.check(valid, || format!("mix {mix}: invalid mapping"));
                let same = match &self.decided[mix] {
                    None => {
                        self.decided[mix] = Some((mapping, report.average));
                        true
                    }
                    Some((first, tps)) => {
                        *first == mapping && tps.to_bits() == report.average.to_bits()
                    }
                };
                outcome.check(same, || {
                    format!("mix {mix}: decision or throughput differs from the first")
                });
                valid && same
            }
        };
        self.failed += usize::from(!ok);
    }

    /// Geometric means over the mixes of the decided mappings' measured
    /// throughput: in inf/s, and as a multiple of the GPU-only mapping.
    fn quality(&self, runtime: &Runtime, workloads: &[Workload]) -> Option<(f64, f64)> {
        let mut tps = Vec::new();
        let mut norm = Vec::new();
        for (decided, workload) in self.decided.iter().zip(workloads) {
            let (_, average) = decided.as_ref()?;
            let baseline = runtime
                .measure(workload, &Mapping::all_on(workload, Device::Gpu))
                .ok()?;
            tps.push(*average);
            norm.push(average / baseline.average);
        }
        Some((geomean(&tps), geomean(&norm)))
    }
}

/// Runs rounds until `seconds` have passed (at least one). `decide`
/// makes one decision for a mix; it is called twice per mix and round,
/// first with `cold = true` right after the cache was cleared.
fn rounds(
    run: &Run,
    seconds: f64,
    outcome: &mut Outcome,
    workloads: &[Workload],
    mut decide: impl FnMut(usize, bool) -> Result<(Mapping, ThroughputReport), HwError>,
) -> Rounds {
    let mut out = Rounds {
        decided: vec![None; workloads.len()],
        ..Rounds::default()
    };
    let mut rng = SplitMix(run.seed);
    let mut order: Vec<usize> = (0..workloads.len()).collect();
    let started = Instant::now();
    loop {
        rng.shuffle(&mut order);
        let round = Instant::now();
        let mut cold_ms = vec![0.0; workloads.len()];
        let mut repeat_ms = vec![0.0; workloads.len()];
        for &mix in &order {
            for cold in [true, false] {
                let t = Instant::now();
                let result = decide(mix, cold);
                let ms = if cold { &mut cold_ms } else { &mut repeat_ms };
                ms[mix] = ms_since(t);
                out.admit(outcome, mix, &workloads[mix], result);
            }
        }
        out.cold_ms.push(cold_ms);
        out.repeat_ms.push(repeat_ms);
        out.round_s.push(round.elapsed().as_secs_f64());
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    out
}

fn workloads() -> Vec<Workload> {
    canon::paper_mixes()
        .into_iter()
        .map(Workload::from_ids)
        .collect()
}

/// The untimed-by-tracing decision: exactly what a user calls.
fn decide_plain(
    runtime: &Runtime,
    scheduler: &mut OmniBoost,
    workload: &Workload,
    cold: bool,
) -> Result<(Mapping, ThroughputReport), HwError> {
    if cold {
        scheduler.eval_cache().clear();
    }
    let outcome = runtime.run(scheduler, workload)?;
    Ok((outcome.mapping, outcome.report))
}

pub fn run(run: &Run) -> Outcome {
    if run.trace {
        traced(run)
    } else {
        timed(run)
    }
}

fn timed(run: &Run) -> Outcome {
    let mut outcome = Outcome::default();
    let (design, pass_seconds) = design_passes(&run.preset);
    let mut scheduler = OmniBoost::from_estimator(design.estimator, run.preset.omniboost());
    let runtime = Runtime::new(canon::board());
    let workloads = workloads();
    let measured = rounds(run, run.seconds, &mut outcome, &workloads, |mix, cold| {
        decide_plain(&runtime, &mut scheduler, &workloads[mix], cold)
    });
    outcome.phase("decide", measured.attempted, measured.failed);

    let samples = measured.attempted / 2;
    let cold = over_mixes(&measured.cold_ms);
    let (cold_p50, cold_p90) = (cold.median(), cold.percentile(0.9));
    let repeat_p50 = over_mixes(&measured.repeat_ms).median();
    let per_round = 2.0 * workloads.len() as f64;
    let m = &mut outcome.metrics;
    m.set("setup_s", median_of(&pass_seconds), pass_seconds.len());
    m.set("op_ms_p50", cold_p50, samples);
    m.set("op_ms_p90", cold_p90, samples);
    m.set("light_ms_p50", repeat_p50, samples);
    m.set(
        "ops_per_s",
        per_round / fastest(measured.round_s.iter().copied()),
        measured.attempted,
    );
    if let Some((tps, norm)) = measured.quality(&runtime, &workloads) {
        m.set("mapped_tps", tps, workloads.len());
        // The bounded percentiles are taken across the mixes; the same
        // percentile pooled over every cold decision is noted beside
        // them with the sample-count rule applied to it.
        let pooled = Samples::new(measured.cold_ms.concat());
        outcome.note(format!(
            "{} rounds, each of the {} mixes at the fastest of its rounds: decide_cold_ms p50 \
             {cold_p50:.3} p90 {cold_p90:.3}; pooled over {} cold decisions p90 {:.3} (supported: \
             {}); decide_repeat_ms p50 {repeat_p50:.3}; norm_tps_geomean {norm:.6} x GPU-only",
            measured.round_s.len(),
            workloads.len(),
            pooled.len(),
            pooled.percentile(0.9),
            pooled.supports(0.9),
        ));
    }
    outcome.metrics.set("peak_rss_mb", canon::peak_rss_mb(), 1);
    outcome
}

/// Counts the traced decision path reports per decision.
#[derive(Default)]
struct SearchTotals {
    decisions: usize,
    iterations: usize,
    rounds: usize,
    live_rollouts: usize,
    memo_hits: usize,
    dedup_hits: usize,
    best_reward: f64,
}

/// `OmniBoost::decide` + `Runtime::run`, rebuilt from the same public
/// pieces so that the evaluator can be wrapped: admit, scope the
/// evaluation cache to the board, search, convert, measure.
struct TracedDecider<'a> {
    recorder: Recorder,
    board: Board,
    runtime: Runtime,
    config: OmniBoostConfig,
    cache: BoardScopedCache,
    evaluator: TracedModel<&'a CnnEstimator>,
    cold: SearchTotals,
    next_op: u64,
}

impl TracedDecider<'_> {
    fn decide(
        &mut self,
        workload: &Workload,
        cold: bool,
    ) -> Result<(Mapping, ThroughputReport), HwError> {
        if cold {
            self.cache.clear();
        }
        // Even ids are cold decisions, odd ids repeats.
        self.next_op += 2;
        let _op = self.recorder.op(
            if cold {
                "decision.cold"
            } else {
                "decision.repeat"
            },
            self.next_op + u64::from(!cold),
        );
        self.board.admit(workload)?;
        let scope = self.cache.begin(&self.board);
        let cached = scope.wrap(&self.evaluator);
        let env = {
            let _span = self.recorder.child("mcts.env.new");
            SchedulingEnv::new(workload, &cached, self.config.stage_cap)?
        };
        let result = {
            let _span = self.recorder.child("mcts.run");
            Mcts::new(self.config.budget).run(&env, self.config.seed)
        };
        let mapping = env.mapping_of(&result.best_state);
        if cold {
            let t = &mut self.cold;
            t.decisions += 1;
            t.iterations += result.iterations;
            t.rounds += result.rounds;
            t.live_rollouts += result.live_terminal_rollouts;
            t.memo_hits += env.memo_hits();
            t.dedup_hits += env.batch_dedup_hits();
            t.best_reward += result.best_reward;
        }
        let report = {
            let _span = self.recorder.child("hw.des.evaluate");
            self.runtime.measure(workload, &mapping)?
        };
        Ok((mapping, report))
    }
}

fn is_cold(span: &SpanRec) -> bool {
    span.op_id.is_multiple_of(2)
}

fn traced(run: &Run) -> Outcome {
    let mut outcome = Outcome::default();
    let design = canon::design_time(&run.preset);
    outcome
        .metrics
        .extend(layers::micro(&run.preset, &design.estimator));
    design_metrics(&mut outcome.metrics, &run.preset, &design);

    let config = run.preset.omniboost();
    let mut scheduler = OmniBoost::from_estimator(design.estimator, config.clone());
    let runtime = Runtime::new(canon::board());
    let workloads = workloads();

    // Half the time untraced, through the scheduler a user calls: the
    // reference for tracing overhead and for the rebuilt path's output.
    let plain = rounds(
        run,
        run.seconds / 2.0,
        &mut outcome,
        &workloads,
        |mix, cold| decide_plain(&runtime, &mut scheduler, &workloads[mix], cold),
    );
    outcome.phase("decide", plain.attempted, plain.failed);

    let recorder = Recorder::on();
    let counters = Arc::new(EvalCounters::default());
    let mut decider = TracedDecider {
        recorder: recorder.clone(),
        board: canon::board(),
        runtime: runtime.clone(),
        config: config.clone(),
        cache: BoardScopedCache::new(config.eval_cache_capacity),
        evaluator: TracedModel::new(scheduler.estimator(), recorder.clone(), counters.clone()),
        cold: SearchTotals::default(),
        next_op: 0,
    };
    let mut repeat_cache = (0u64, 0u64);
    let traced = rounds(
        run,
        run.seconds / 2.0,
        &mut outcome,
        &workloads,
        |mix, cold| {
            let before = decider.cache.stats();
            let result = decider.decide(&workloads[mix], cold);
            if !cold {
                let after = decider.cache.stats();
                repeat_cache.0 += after.hits - before.hits;
                repeat_cache.1 += after.misses - before.misses;
            }
            result
        },
    );
    outcome.phase("decide_traced", traced.attempted, traced.failed);
    for (mix, (a, b)) in plain.decided.iter().zip(&traced.decided).enumerate() {
        outcome.check(a.is_some() && a == b, || {
            format!("mix {mix}: the traced decision path decided differently")
        });
    }

    let spans = recorder.spans();
    let own = spans::self_times_ns(&spans);
    let sum = |pred: &dyn Fn(&SpanRec) -> bool, own_only: bool| -> f64 {
        spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| is_cold(s) && pred(s))
            .map(|(s, own)| if own_only { *own } else { s.dur_ns() } as f64)
            .sum()
    };
    let decision_ns = sum(&|s| s.name == "decision.cold", false);
    let evaluator_ns = sum(&|s| s.name.starts_with("evaluator."), false);
    let search_self_ns = sum(&|s| s.name.starts_with("mcts."), true);
    let totals = &decider.cold;
    let decisions = totals.decisions.max(1) as f64;
    let n = totals.decisions;
    let m = &mut outcome.metrics;
    m.set(
        "estimator.forward.busy_share",
        evaluator_ns / decision_ns,
        n,
    );
    m.set("mcts.search.self_share", search_self_ns / decision_ns, n);
    // Every evaluator query of a repeat hits the cache, so the counters
    // hold cold-decision work only.
    m.set(
        "estimator.forward.calls_per_decision",
        counters.calls.load(Ordering::Relaxed) as f64 / decisions,
        n,
    );
    m.set(
        "estimator.forward.mappings_per_decision",
        counters.mappings.load(Ordering::Relaxed) as f64 / decisions,
        n,
    );
    m.set(
        "estimator.evalcache.hit_rate.repeat",
        repeat_cache.0 as f64 / (repeat_cache.0 + repeat_cache.1).max(1) as f64,
        n,
    );
    m.set(
        "mcts.search.rounds_per_decision",
        totals.rounds as f64 / decisions,
        n,
    );
    m.set(
        "mcts.search.live_yield",
        totals.live_rollouts as f64 / totals.iterations.max(1) as f64,
        n,
    );
    m.set(
        "mcts.env.memo_hits_per_decision",
        totals.memo_hits as f64 / decisions,
        n,
    );
    m.set(
        "mcts.env.dedup_hits_per_decision",
        totals.dedup_hits as f64 / decisions,
        n,
    );
    m.set(
        "mcts.search.best_reward_mean",
        totals.best_reward / decisions,
        n,
    );
    if let Some((_, norm)) = traced.quality(&runtime, &workloads) {
        m.set("core.quality.norm_tps_geomean", norm, workloads.len());
    }
    let overhead = over_mixes(&traced.cold_ms).median() / over_mixes(&plain.cold_ms).median();
    m.set(
        "telemetry.trace.overhead_pct",
        (overhead - 1.0) * 100.0,
        traced.attempted / 2,
    );
    crate::write_trace(run, &mut outcome, &spans);
    outcome
}
