//! The two daemon workloads: the real `RpcServer` on loopback with the
//! trained CNN estimator on the serving path, driven over HTTP by the
//! benchmark's load generator.
//!
//! * `daemon_open_loop` — requests become due on the trace's own clock,
//!   sharded over two connections, so every layer from framing down to
//!   the GEMM is on the path and requests queue behind the engine lock.
//! * `daemon_recurring_reads` — a two-model pool makes the same mixes
//!   come back, so almost every decision is a memo hit and framing,
//!   JSON, the lock, the mempool and tick bookkeeping dominate; a second
//!   connection polls `/v1/status` meanwhile. The prediction for any
//!   search or estimator change is *no movement* here.

use crate::canon::{self, ms_since, Preset, DAEMON_BOARDS};
use crate::loadgen::{self, Call, Sample, Stamps};
use crate::paper::{design_metrics, design_passes};
use crate::report::{Metrics, Outcome};
use crate::spans::{self, EvalCounters, Recorder, TracedModel};
use crate::stats::{fastest, fastest_per_op, median_of, Samples};
use crate::{layers, Run};
use omniboost_estimator::CnnEstimator;
use omniboost_hw::{Board, ThroughputModel};
use omniboost_models::{ArrivalTrace, JobEvent};
use omniboost_rpc::api::ShutdownRequest;
use omniboost_rpc::client::{ClientConfig, RpcClient};
use omniboost_rpc::servers::{RpcServer, ServerConfig};
use omniboost_serve::{DecisionKind, ServingEngine, ServingReport};
use std::sync::Arc;
use std::time::Instant;

/// The trained estimator, leaked so that the daemon's `'static` worker
/// threads can share it by reference.
type Estimator = &'static CnnEstimator;

fn leak(estimator: CnnEstimator) -> Estimator {
    Box::leak(Box::new(estimator))
}

/// A booted daemon.
struct Daemon<M> {
    server: RpcServer<M>,
    addr: String,
}

/// What a finished daemon run left behind.
struct Finished {
    report: ServingReport,
    /// `POST /v1/drain` through the `POST /v1/shutdown` reply.
    drain_ms: f64,
}

impl<M: ThroughputModel + Send + Sync + 'static> Daemon<M> {
    fn boot(preset: &Preset, make_evaluator: impl FnMut(Board) -> M) -> Self {
        let config = ServerConfig {
            // The daemon closes keep-alive connections idle longer than
            // its read timeout and `RpcClient` then fails the next call
            // ("connection closed mid-response") instead of redialling;
            // a paced phase must never trip that.
            read_timeout_ms: 600_000,
            ..ServerConfig::default()
        };
        let server = RpcServer::start(
            config,
            vec![canon::board(); DAEMON_BOARDS],
            preset.serving(),
            make_evaluator,
        )
        .expect("bind a loopback port");
        let addr = server.addr().to_string();
        Self { server, addr }
    }

    fn connect(&self) -> RpcClient {
        RpcClient::connect(ClientConfig::new(self.addr.clone())).expect("dial the daemon")
    }

    /// Drains, shuts down and joins the daemon, then checks the joined
    /// report: the mempool conserved every job and the engine saw
    /// exactly the writes that were sent.
    fn finish(
        self,
        outcome: &mut Outcome,
        phase: &str,
        horizon_ms: Option<u64>,
        writes_sent: usize,
    ) -> Option<Finished> {
        let mut control = self.connect();
        let t = Instant::now();
        let stopped = control
            .drain()
            .and_then(|_| control.shutdown(&ShutdownRequest { horizon_ms }));
        let drain_ms = ms_since(t);
        if let Err(e) = &stopped {
            self.server.stop();
            outcome.check(false, || format!("{phase}: drain/shutdown failed: {e}"));
        }
        let report = self.server.join();
        outcome.check(report.is_some() || stopped.is_err(), || {
            format!("{phase}: the daemon joined without a report")
        });
        let report = report?;
        let s = &report.summary;
        let taken = s.pool.submitted + s.pool.requeued;
        let accounted = s.pool.placed
            + s.pool.rejected
            + s.pool.expired
            + s.pool.departed_queued
            + s.left_in_queue;
        outcome.check(taken == accounted, || {
            format!("{phase}: mempool took {taken} jobs but accounts for {accounted}")
        });
        outcome.check(s.events == writes_sent, || {
            format!(
                "{phase}: {writes_sent} writes sent, engine saw {}",
                s.events
            )
        });
        Some(Finished { report, drain_ms })
    }
}

/// Records a phase's operations and returns its samples merged over
/// its connections.
fn merge(
    outcome: &mut Outcome,
    phase: &str,
    per_connection: Vec<Vec<Sample>>,
    first_error: Option<String>,
) -> Vec<Sample> {
    let samples: Vec<Sample> = per_connection.into_iter().flatten().collect();
    let failed = samples.iter().filter(|s| !s.ok).count();
    outcome.phase(phase, samples.len(), failed);
    if let Some(e) = first_error {
        outcome.check(false, || format!("{phase}: first failed request: {e}"));
    }
    samples
}

fn writes(samples: &[Sample]) -> usize {
    samples.iter().filter(|s| s.write).count()
}

fn last_stamp(trace: &ArrivalTrace, samples: &[Sample]) -> u64 {
    samples
        .iter()
        .filter(|s| s.write)
        .map(|s| trace.events()[s.event].at_ms)
        .max()
        .unwrap_or(0)
}

fn elapsed_s(samples: &[Sample]) -> f64 {
    samples.iter().map(|s| s.done_ns).max().unwrap_or(0) as f64 / 1e9
}

/// How a phase offers its trace.
#[derive(Clone, Copy)]
struct Shape {
    connections: usize,
    /// Trace seconds per wall second; `None` sends closed-loop.
    speedup: Option<f64>,
    /// Cut a closed loop off after this many seconds.
    stop_s: Option<f64>,
    stamps: Stamps,
    /// Follow every write with a `/v1/status` read on its connection.
    status_after_write: bool,
}

struct PhaseResult {
    /// The requests after the steady-state prefill.
    samples: Vec<Sample>,
    finished: Finished,
}

/// Requests at the head of every open-loop trace that only put the
/// steady state's resident jobs in place; they are sent and checked but
/// are not samples.
fn prefill() -> usize {
    canon::OPEN_LOOP.resident_jobs()
}

/// One phase against a fresh daemon: plan `trace`, run it, finish.
fn trace_phase<M: ThroughputModel + Send + Sync + 'static>(
    outcome: &mut Outcome,
    preset: &Preset,
    phase: &str,
    trace: &ArrivalTrace,
    shape: Shape,
    make_evaluator: impl FnMut(Board) -> M,
) -> Option<PhaseResult> {
    let daemon = Daemon::boot(preset, make_evaluator);
    let mut schedules = loadgen::plan(trace, shape.speedup, shape.connections, shape.stamps);
    if shape.status_after_write {
        schedules = schedules.into_iter().map(loadgen::with_status).collect();
    }
    let clients = schedules.iter().map(|_| daemon.connect()).collect();
    let stop_ns = shape.stop_s.map(|s| (s * 1e9) as u64);
    let (per_connection, first_error) = loadgen::run_connections(clients, &schedules, stop_ns);
    let samples = merge(outcome, phase, per_connection, first_error);
    // Trace-stamped runs integrate to the last stamp that went out;
    // daemon-stamped ones to the daemon's own clock.
    let horizon_ms = (shape.stamps == Stamps::Trace).then(|| last_stamp(trace, &samples));
    let finished = daemon.finish(outcome, phase, horizon_ms, writes(&samples))?;
    let samples = samples
        .into_iter()
        .filter(|s| s.event >= prefill())
        .collect();
    Some(PhaseResult { samples, finished })
}

fn latencies(samples: &[Sample]) -> Samples {
    Samples::new(samples.iter().map(Sample::latency_ms).collect())
}

fn lateness(samples: &[Sample]) -> Samples {
    Samples::new(samples.iter().map(Sample::late_ms).collect())
}

/// Notes a paced phase's readings, flagging it when the generator ran
/// late by more than a quarter of the median latency it measured.
fn note_paced(outcome: &mut Outcome, phase: &str, samples: &[Sample]) {
    let latency = latencies(samples);
    let late = lateness(samples);
    let late_p95 = late.percentile(0.95);
    let flag = if late_p95 > 0.25 * latency.median() {
        " LATE: generator lateness p95 exceeds a quarter of the median latency"
    } else {
        ""
    };
    outcome.note(format!(
        "{phase}: n={} latency-from-due p50 {:.3} p90 {:.3} p95 {:.3} ms (p90 supported: {}, \
         p95: {}); rpc.loadgen.late_ms_p95 {late_p95:.3}{flag}",
        latency.len(),
        latency.median(),
        latency.percentile(0.9),
        latency.percentile(0.95),
        latency.supports(0.9),
        latency.supports(0.95),
    ));
}

/// Trace seconds per wall second in the paced phase: 0.8 jobs per trace
/// second is ~1.6 requests per trace second, so this offers ~12
/// requests/s, about half of what the daemon answers back-to-back.
const PACED_SPEEDUP: f64 = 7.5;

/// Independent clients: two connections sharded by job id, requests due
/// on the trace's clock and stamped by the daemon on arrival.
const PACED_TWO: Shape = Shape {
    connections: 2,
    speedup: Some(PACED_SPEEDUP),
    stop_s: None,
    stamps: Stamps::Daemon,
    status_after_write: false,
};

/// One connection, one request in flight, the trace's own stamps: the
/// daemon does the same work in every run of a seed. Each write is
/// followed by a `/v1/status` read on the same connection. `cap_s` only
/// bounds a pass on a machine far slower than the one it was sized on.
fn closed_loop(cap_s: f64) -> Shape {
    Shape {
        connections: 1,
        speedup: None,
        stop_s: Some(cap_s),
        stamps: Stamps::Trace,
        status_after_write: true,
    }
}

fn paced_trace(seconds: f64, seed: u64) -> ArrivalTrace {
    // Never shorter than a few arrivals, however small `--seconds` is.
    let horizon_ms = ((seconds * PACED_SPEEDUP * 1e3) as u64).max(10_000);
    canon::seeded_trace(canon::OPEN_LOOP, horizon_ms, seed)
}

/// A trace that outlasts `seconds` of closed-loop sending.
fn closed_loop_trace(seconds: f64, seed: u64) -> ArrivalTrace {
    let horizon_ms = ((seconds * 80.0 * 1e3) as u64).max(10_000);
    canon::seeded_trace(canon::OPEN_LOOP, horizon_ms, seed)
}

/// Passes of the closed loop in a timed run, each against a fresh daemon.
const CLOSED_PASSES: usize = 2;
/// Writes per pass and second of `--seconds`: sized so that the passes
/// together take about `--seconds` at the speed recorded as the
/// baseline (~21 writes/s). The work is fixed, not the time, so that a
/// seed means the same requests on every machine and commit.
const CLOSED_WRITES_PER_S: f64 = 14.0;

/// The first `writes` events after the prefill of a seed's trace.
fn closed_pass_trace(writes: usize, seed: u64) -> ArrivalTrace {
    let events = prefill() + writes.max(20);
    // ~1.6 events per trace second; generate twice what is needed.
    let horizon_ms = (events as u64 * 1_000 * 2 * 10) / 16;
    let full = canon::seeded_trace(canon::OPEN_LOOP, horizon_ms, seed);
    let kept = full.events()[..events.min(full.len())].to_vec();
    ArrivalTrace::from_events(kept)
}

/// The bounded end-to-end readings of `daemon_open_loop` come from a
/// **closed** loop on one connection, because that is the only view of
/// the daemon that repeats: the work is the same in every run of a seed
/// and the daemon stays hot. The open loop the workload is named after
/// — two racing connections on a due-time schedule — runs in the traced
/// pass and is reported there without a bound: racing connections
/// reorder events, the reordering changes which searches run, every
/// request after an idle gap pays a cold-start penalty that varies by
/// half its service time, and at ~100 requests a phase the latency
/// median then moves by a quarter between runs of one seed.
pub fn open_loop(run: &Run) -> Outcome {
    if run.trace {
        return open_loop_traced(run);
    }
    let mut outcome = Outcome::default();
    let (design, pass_seconds) = design_passes(&run.preset);
    let estimator = leak(design.estimator);
    let writes = (run.seconds * CLOSED_WRITES_PER_S) as usize;
    let trace = closed_pass_trace(writes, run.seed);
    let shape = closed_loop(run.seconds * 2.0);
    // The same requests against a fresh daemon each time: the passes
    // are repeats of the same operations.
    let passes: Vec<PhaseResult> = (0..CLOSED_PASSES)
        .filter_map(|_| {
            trace_phase(&mut outcome, &run.preset, "closed", &trace, shape, |_| {
                estimator
            })
        })
        .collect();
    outcome
        .metrics
        .set("setup_s", median_of(&pass_seconds), pass_seconds.len());
    if let Some(first) = passes.first() {
        let digest = first.finished.report.digest();
        let same = passes.iter().all(|p| p.finished.report.digest() == digest);
        outcome.check(same && passes.len() == CLOSED_PASSES, || {
            "closed-loop passes of the same requests disagree on the run digest".to_string()
        });
        let rtts_of = |write: bool| -> Samples {
            let per_pass: Vec<Vec<f64>> = passes
                .iter()
                .map(|p| {
                    let of_kind = p.samples.iter().filter(|s| s.write == write);
                    of_kind.map(Sample::rtt_ms).collect()
                })
                .collect();
            Samples::new(fastest_per_op(&per_pass))
        };
        let (write, read) = (rtts_of(true), rtts_of(false));
        let rps = write.len() as f64 / fastest(passes.iter().map(|p| elapsed_s(&p.samples)));
        let sent = write.len() * passes.len();
        let summary = &first.finished.report.summary;
        let m = &mut outcome.metrics;
        m.set("op_ms_p50", write.median(), sent);
        m.set("op_ms_p90", write.percentile(0.9), sent);
        m.set("light_ms_p50", read.median(), read.len() * passes.len());
        m.set("ops_per_s", rps, sent);
        m.set("mapped_tps", summary.mean_aggregate_tps, summary.events);
        let (cold, warm, memo, decisions) = kind_shares(&first.finished.report);
        outcome.note(format!(
            "closed loop, {} passes of {} writes: write rtt p50 {:.3} p90 {:.3} p95 {:.3} ms (p90 \
             supported: {}), status rtt p50 {:.4} ms, {rps:.3} writes/s in the fastest pass; \
             decisions {decisions}: cold {cold:.3} warm {warm:.3} memo {memo:.3}; rpc.drain.ms \
             {:.3}; run digest {digest:#018x} on every pass",
            passes.len(),
            write.len(),
            write.median(),
            write.percentile(0.9),
            write.percentile(0.95),
            write.supports(0.9),
            read.median(),
            first.finished.drain_ms,
        ));
    }
    outcome.metrics.set("peak_rss_mb", canon::peak_rss_mb(), 1);
    outcome
}

/// Events of warm-up before the recurring phase is timed: enough for
/// the decision memo to have seen the mixes that recur.
const RECURRING_WARMUP: usize = 1_000;
/// Read cadence of the polling connection.
const READ_EVERY_NS: u64 = 5_000_000;
const METRICS_EVERY: usize = 100;
/// Trace seconds generated per timed second: at ~2 events per trace
/// second this is ~16k writes per timed second, several times what the
/// daemon answers today, so the trace outlasts the window.
const RECURRING_TRACE_S_PER_S: f64 = 8_000.0;

struct Recurring {
    writes: Vec<Sample>,
    reads: Vec<Sample>,
    finished: Finished,
    /// Boot plus warm-up.
    warmup_s: f64,
}

/// The recurring phase against a fresh daemon: warm up closed-loop,
/// then `seconds` of closed-loop writes on one connection while another
/// polls status on a fixed cadence.
fn recurring_phase<M: ThroughputModel + Send + Sync + 'static>(
    outcome: &mut Outcome,
    run: &Run,
    seconds: f64,
    make_evaluator: impl FnMut(Board) -> M,
) -> Option<Recurring> {
    let warmup = if run.preset.quick {
        100
    } else {
        RECURRING_WARMUP
    };
    let horizon_ms = ((seconds * RECURRING_TRACE_S_PER_S) as u64 + warmup as u64) * 1_000;
    let trace = canon::seeded_trace(canon::RECURRING, horizon_ms, run.seed);
    let t = Instant::now();
    let daemon = Daemon::boot(&run.preset, make_evaluator);
    let mut schedule = loadgen::plan(&trace, None, 1, Stamps::Trace).remove(0);
    let timed = schedule.split_off(warmup.min(schedule.len()));
    let mut writer = daemon.connect();
    let clock = loadgen::WallClock(Instant::now());
    let warm = loadgen::drive(&clock, &schedule, None, |call| {
        loadgen::send(&mut writer, call).is_ok()
    });
    let warm = merge(outcome, "warmup", vec![warm], None);
    let warmup_s = t.elapsed().as_secs_f64();

    let reads = loadgen::plan_reads(READ_EVERY_NS, (seconds * 1e9) as u64, METRICS_EVERY);
    let schedules = [timed, reads];
    let clients = vec![writer, daemon.connect()];
    let stop_ns = Some((seconds * 1e9) as u64);
    let (mut per_connection, first_error) = loadgen::run_connections(clients, &schedules, stop_ns);
    let read_samples = per_connection.pop().expect("two connections");
    let write_samples = per_connection.pop().expect("two connections");
    let reads = merge(outcome, "reads", vec![read_samples], None);
    let writes_timed = merge(outcome, "writes", vec![write_samples], first_error);
    let sent = warm.len() + writes_timed.len();
    let horizon_ms = last_stamp(&trace, &writes_timed).max(last_stamp(&trace, &warm));
    let finished = daemon.finish(outcome, "recurring", Some(horizon_ms), sent)?;
    Some(Recurring {
        writes: writes_timed,
        reads,
        finished,
        warmup_s,
    })
}

fn rtts(samples: &[Sample]) -> Samples {
    Samples::new(samples.iter().map(Sample::rtt_ms).collect())
}

/// Time blocks a long phase is cut into for [`over_blocks`].
const BLOCKS: u64 = 10;

/// The quartile over equal time blocks of a per-block statistic: the
/// first quartile when `lower`, the third otherwise. With thousands of
/// like requests per block the statistic is precise within each; across
/// blocks only the machine differs, and other tenants' bursts only ever
/// slow a block down, so the quartile on the undisturbed side is what
/// the program itself does (the phase cannot be repeated request by
/// request the way `fastest_per_op` needs: it is cut off by time).
fn over_blocks(
    samples: &[Sample],
    seconds: f64,
    lower: bool,
    stat: impl Fn(&[Sample]) -> f64,
) -> f64 {
    let block_ns = ((seconds * 1e9) as u64 / BLOCKS).max(1);
    let mut blocks: Vec<Vec<Sample>> = vec![Vec::new(); BLOCKS as usize];
    for sample in samples {
        let block = (sample.sent_ns / block_ns).min(BLOCKS - 1) as usize;
        blocks[block].push(*sample);
    }
    let per_block: Vec<f64> = blocks
        .iter()
        .filter(|block| !block.is_empty())
        .map(|block| stat(block))
        .collect();
    Samples::new(per_block).percentile(if lower { 0.25 } else { 0.75 })
}

/// Share of decisions by kind over a report: `(cold, warm, memo)`.
fn kind_shares(report: &ServingReport) -> (f64, f64, f64, usize) {
    let (mut cold, mut warm, mut memo) = (0usize, 0usize, 0usize);
    for decision in report.ticks.iter().flat_map(|t| &t.decisions) {
        match decision.kind {
            DecisionKind::Cold => cold += 1,
            DecisionKind::WarmArrival | DecisionKind::WarmDepart => warm += 1,
            DecisionKind::Memo => memo += 1,
        }
    }
    let total = (cold + warm + memo).max(1) as f64;
    (
        cold as f64 / total,
        warm as f64 / total,
        memo as f64 / total,
        cold + warm + memo,
    )
}

pub fn recurring_reads(run: &Run) -> Outcome {
    if run.trace {
        return recurring_reads_traced(run);
    }
    let mut outcome = Outcome::default();
    let (design, pass_seconds) = design_passes(&run.preset);
    let estimator = leak(design.estimator);
    let phase = recurring_phase(&mut outcome, run, run.seconds, |_| estimator);
    if let Some(phase) = &phase {
        let write = rtts(&phase.writes);
        let read = latencies(&phase.reads);
        let (cold, warm, memo, decisions) = kind_shares(&phase.finished.report);
        let m = &mut outcome.metrics;
        // Boot and warm-up are paid once per run, on top of the median
        // design-time pass.
        m.set(
            "setup_s",
            median_of(&pass_seconds) + phase.warmup_s,
            pass_seconds.len(),
        );
        let blocks = |samples: &[Sample], lower: bool, stat: &dyn Fn(&[Sample]) -> f64| {
            over_blocks(samples, run.seconds, lower, stat)
        };
        let write_p50 = blocks(&phase.writes, true, &|b| rtts(b).median());
        let write_p90 = blocks(&phase.writes, true, &|b| rtts(b).percentile(0.9));
        let read_p50 = blocks(&phase.reads, true, &|b| latencies(b).median());
        let block_s = run.seconds / BLOCKS as f64;
        let write_rps = blocks(&phase.writes, false, &|b| b.len() as f64 / block_s);
        m.set("op_ms_p50", write_p50, write.len());
        m.set("op_ms_p90", write_p90, write.len());
        m.set("light_ms_p50", read_p50, read.len());
        m.set("ops_per_s", write_rps, phase.writes.len());
        m.set(
            "mapped_tps",
            phase.finished.report.summary.mean_aggregate_tps,
            phase.finished.report.summary.events,
        );
        outcome.note(format!(
            "pooled over the window: write_rtt_ms p50 {:.4} p99 {:.4} (n={}); read \
             latency-from-due p50 {:.4} p99 {:.4} (n={}, p99 supported: {}); \
             rpc.loadgen.late_ms_p95 {:.4}; decisions {decisions}: cold {cold:.4} warm {warm:.4} \
             memo {memo:.4}; warm-up {:.3} s",
            write.median(),
            write.percentile(0.99),
            write.len(),
            read.median(),
            read.percentile(0.99),
            read.len(),
            read.supports(0.99),
            lateness(&phase.reads).percentile(0.95),
            phase.warmup_s,
        ));
    }
    outcome.metrics.set("peak_rss_mb", canon::peak_rss_mb(), 1);
    outcome
}

// ---------------------------------------------------------------------
// Traced runs: per-layer metrics and the outside-in ledger.
// ---------------------------------------------------------------------

/// The trace replayed in process through `ServingEngine`, each call
/// timed: what the serving layer costs with no wire in front of it.
struct EnginePass {
    /// Milliseconds per engine call, by trace position.
    call_ms: Vec<f64>,
    submit_ms: Vec<f64>,
    depart_ms: Vec<f64>,
    snapshot_us: f64,
    finish_ms: f64,
    report: ServingReport,
}

fn engine_pass<M: ThroughputModel + Send + Sync>(
    preset: &Preset,
    trace: &ArrivalTrace,
    cap_s: f64,
    recorder: &Recorder,
    make_evaluator: impl FnMut(Board) -> M,
) -> EnginePass {
    let mut engine = ServingEngine::new(
        vec![canon::board(); DAEMON_BOARDS],
        preset.serving(),
        make_evaluator,
    );
    engine.begin_run();
    let (mut call_ms, mut submit_ms, mut depart_ms) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let mut last_ms = 0;
    for (position, stamped) in trace.events().iter().enumerate() {
        if started.elapsed().as_secs_f64() >= cap_s {
            break;
        }
        last_ms = stamped.at_ms;
        let t = Instant::now();
        match stamped.event {
            JobEvent::Arrive(job) => {
                let op = recorder.op("serve.engine.submit", position as u64);
                engine.submit(job, stamped.at_ms);
                drop(op);
                submit_ms.push(ms_since(t));
            }
            JobEvent::Depart { job_id } => {
                let op = recorder.op("serve.engine.depart", position as u64);
                engine.depart(job_id, stamped.at_ms);
                drop(op);
                depart_ms.push(ms_since(t));
            }
        }
        call_ms.push(ms_since(t));
    }
    let snapshot_us = crate::stats::time_ns(200, || {
        std::hint::black_box(engine.snapshot(last_ms));
    }) / 1e3;
    let t = Instant::now();
    let report = engine.finish(last_ms);
    EnginePass {
        call_ms,
        submit_ms,
        depart_ms,
        snapshot_us,
        finish_ms: ms_since(t),
        report,
    }
}

fn decision_ms_total(report: &ServingReport) -> f64 {
    report
        .ticks
        .iter()
        .flat_map(|t| &t.decisions)
        .map(|d| d.decision_ms)
        .sum()
}

/// The trace replayed over the wire, one connection, one request in
/// flight, an operation span around each request.
struct WirePass {
    samples: Vec<Sample>,
    finished: Finished,
    /// Round trips of `/v1/status` against the idle daemon: wire,
    /// framing and the uncontended lock, nothing else.
    status_rtt_us: Samples,
    scrape_ms: f64,
    scrape_bytes: usize,
}

fn wire_pass<M: ThroughputModel + Send + Sync + 'static>(
    outcome: &mut Outcome,
    preset: &Preset,
    phase: &str,
    trace: &ArrivalTrace,
    max_events: usize,
    recorder: &Recorder,
    make_evaluator: impl FnMut(Board) -> M,
) -> Option<WirePass> {
    let daemon = Daemon::boot(preset, make_evaluator);
    let mut client = daemon.connect();
    let status_calls = if preset.quick { 20 } else { 200 };
    let status_rtt_us = Samples::new(
        (0..status_calls)
            .map(|_| {
                let t = Instant::now();
                let ok = client.status().is_ok();
                outcome.check(ok, || format!("{phase}: idle status call failed"));
                t.elapsed().as_nanos() as f64 / 1e3
            })
            .collect(),
    );
    let mut schedule = loadgen::plan(trace, None, 1, Stamps::Trace).remove(0);
    schedule.truncate(max_events);
    let clock = loadgen::WallClock(Instant::now());
    let mut position = 0u64;
    let mut first_error = None;
    let samples = loadgen::drive(&clock, &schedule, None, |call: &Call| {
        let _op = recorder.op("rpc.request", position);
        position += 1;
        match loadgen::send(&mut client, call) {
            Ok(()) => true,
            Err(e) => {
                first_error.get_or_insert_with(|| e.to_string());
                false
            }
        }
    });
    let samples = merge(outcome, phase, vec![samples], first_error);
    let scrapes: Vec<(f64, usize)> = (0..20)
        .filter_map(|_| {
            let t = Instant::now();
            let text = client.metrics().ok()?;
            Some((ms_since(t), text.len()))
        })
        .collect();
    outcome.check(scrapes.len() == 20, || {
        format!("{phase}: a /metrics scrape failed")
    });
    let scrape_ms = median_of(&scrapes.iter().map(|(ms, _)| *ms).collect::<Vec<_>>());
    let scrape_bytes = scrapes.last().map_or(0, |(_, bytes)| *bytes);
    // A worker serves a connection until its peer closes it: an open
    // idle client would hold the daemon's join for the read timeout.
    drop(client);
    let horizon_ms = last_stamp(trace, &samples);
    let finished = daemon.finish(outcome, phase, Some(horizon_ms), writes(&samples))?;
    Some(WirePass {
        samples,
        finished,
        status_rtt_us,
        scrape_ms,
        scrape_bytes,
    })
}

/// Serving-layer metrics off the in-process pass.
fn serve_metrics(m: &mut Metrics, pass: &EnginePass) {
    let submit = Samples::new(pass.submit_ms.clone());
    let depart = Samples::new(pass.depart_ms.clone());
    m.set("serve.engine.submit_ms_p50", submit.median(), submit.len());
    m.set(
        "serve.engine.submit_ms_p95",
        submit.percentile(0.95),
        submit.len(),
    );
    m.set("serve.engine.depart_ms_p50", depart.median(), depart.len());
    m.set(
        "serve.engine.depart_ms_p95",
        depart.percentile(0.95),
        depart.len(),
    );
    m.set("serve.engine.finish_ms", pass.finish_ms, 1);
    m.set("serve.engine.snapshot_us", pass.snapshot_us, 200);
    let s = &pass.report.summary;
    let queued: usize = pass.report.ticks.iter().map(|t| t.queued.len()).sum();
    m.set("serve.pool.placed", s.pool.placed as f64, 1);
    m.set("serve.pool.queued", queued as f64, 1);
    m.set("serve.pool.rejected", s.pool.rejected as f64, 1);
    m.set("serve.pool.retries", s.pool.retries as f64, 1);
    m.set(
        "serve.decisions_per_event",
        s.decisions as f64 / s.events.max(1) as f64,
        s.events,
    );
    m.set(
        "serve.migrated_layers_per_decision",
        s.migrated_layers as f64 / s.decisions.max(1) as f64,
        s.decisions,
    );
    m.set("serve.peak_queue_depth", s.peak_queue_depth as f64, 1);
    let (cold, warm, memo, decisions) = kind_shares(&pass.report);
    m.set("core.decide.kind_share.cold", cold, decisions);
    m.set("core.decide.kind_share.warm", warm, decisions);
    m.set("core.decide.kind_share.memo", memo, decisions);
}

/// The ledger and the wire metrics: the same events replayed traced in
/// process, traced over the wire and untraced over the wire, each for at
/// most `cap_s`. With one request in flight the evaluator spans recorded
/// on the daemon's threads nest under the request that caused them.
///
/// Returns the untraced wire pass's round trips, the closed-loop
/// reference that queueing is measured against.
fn ledger(
    outcome: &mut Outcome,
    run: &Run,
    trace: &ArrivalTrace,
    cap_s: f64,
    estimator: Estimator,
    recorder: &Recorder,
) -> Option<Samples> {
    let counters = Arc::new(EvalCounters::default());
    let traced = |_: Board| TracedModel::new(estimator, recorder.clone(), counters.clone());
    let preset = &run.preset;

    let engine = engine_pass(preset, trace, cap_s, recorder, traced);
    serve_metrics(&mut outcome.metrics, &engine);
    let events = engine.call_ms.len();

    let wire = wire_pass(
        outcome,
        preset,
        "wire_traced",
        trace,
        events,
        recorder,
        traced,
    )?;
    let plain = wire_pass(
        outcome,
        preset,
        "wire_plain",
        trace,
        events,
        &Recorder::off(),
        |_| estimator,
    )?;

    // Everything an operation span's children cover is evaluator time:
    // the wrapper is the only thing that opens spans beneath it.
    let spans = recorder.spans();
    let own = spans::self_times_ns(&spans);
    let estimator_ms: f64 = spans
        .iter()
        .zip(&own)
        .filter(|(span, _)| span.name == "rpc.request")
        .map(|(span, own)| (span.dur_ns() - own) as f64 / 1e6)
        .sum();
    let total_ms: f64 = wire.samples.iter().map(Sample::rtt_ms).sum();
    let wire_decisions_ms = decision_ms_total(&wire.finished.report);
    let engine_total_ms: f64 = engine.call_ms.iter().sum();
    let serve_self_ms = engine_total_ms - decision_ms_total(&engine.report);
    let floor_ms = wire.status_rtt_us.median() / 1e3 * wire.samples.len() as f64;
    let n = wire.samples.len();
    let m = &mut outcome.metrics;
    m.set("ledger.estimator_share", estimator_ms / total_ms, n);
    m.set(
        "ledger.search_self_share",
        (wire_decisions_ms - estimator_ms) / total_ms,
        n,
    );
    m.set("ledger.serve_self_share", serve_self_ms / total_ms, n);
    m.set("ledger.rpc_share", floor_ms / total_ms, n);
    m.set(
        "ledger.residual_share",
        (total_ms - wire_decisions_ms - serve_self_ms - floor_ms) / total_ms,
        n,
    );
    m.set("estimator.forward.busy_share", estimator_ms / total_ms, n);
    m.set(
        "mcts.search.self_share",
        (wire_decisions_ms - estimator_ms) / total_ms,
        n,
    );

    let overhead: Vec<f64> = wire
        .samples
        .iter()
        .map(|s| s.rtt_ms() - engine.call_ms[s.event])
        .collect();
    let overhead = Samples::new(overhead);
    m.set(
        "rpc.wire.overhead_ms_p50",
        overhead.median(),
        overhead.len(),
    );
    m.set(
        "rpc.wire.status_rtt_us_p50",
        plain.status_rtt_us.median(),
        plain.status_rtt_us.len(),
    );
    m.set("rpc.metrics.scrape_ms", plain.scrape_ms, 20);
    m.set("rpc.metrics.bytes", plain.scrape_bytes as f64, 1);
    m.set("rpc.drain.ms", plain.finished.drain_ms, 1);
    let plain_ms: f64 = plain.samples.iter().map(Sample::rtt_ms).sum();
    m.set(
        "telemetry.trace.overhead_pct",
        (total_ms / plain_ms - 1.0) * 100.0,
        n,
    );
    outcome.check(
        wire.finished.report.digest() == plain.finished.report.digest()
            && plain.finished.report.digest() == engine.report.digest(),
        || "the in-process, traced-wire and plain-wire replays disagree on the run digest".into(),
    );
    outcome.note(format!(
        "ledger over {n} requests, {total_ms:.1} ms: estimator {estimator_ms:.1}, decisions \
         {wire_decisions_ms:.1}, serve self {serve_self_ms:.1}, wire floor {floor_ms:.1}; run \
         digest {:#018x}",
        plain.finished.report.digest(),
    ));
    Some(rtts(&plain.samples))
}

fn traced_prelude(run: &Run, outcome: &mut Outcome) -> Estimator {
    let design = canon::design_time(&run.preset);
    outcome
        .metrics
        .extend(layers::micro(&run.preset, &design.estimator));
    design_metrics(&mut outcome.metrics, &run.preset, &design);
    leak(design.estimator)
}

fn live_hit_rate(m: &mut Metrics, report: &ServingReport) {
    let cache = report.summary.eval_cache;
    m.set(
        "estimator.evalcache.hit_rate.live",
        cache.hit_rate(),
        (cache.hits + cache.misses) as usize,
    );
}

/// Shares of the traced window: the paced open loop and the
/// two-connection saturation burst; the ledger's three passes split the
/// rest.
const OPEN_SHARE: f64 = 0.5;
const SAT_SHARE: f64 = 0.15;

fn open_loop_traced(run: &Run) -> Outcome {
    let mut outcome = Outcome::default();
    let estimator = traced_prelude(run, &mut outcome);
    let recorder = Recorder::on();
    let open_s = run.seconds * OPEN_SHARE;
    let sat_s = run.seconds * SAT_SHARE;
    let trace = paced_trace(open_s, run.seed);
    let cap_s = (run.seconds - open_s - sat_s) / 3.0;
    let closed = ledger(&mut outcome, run, &trace, cap_s, estimator, &recorder);
    // The open loop, untraced: independent clients on a due-time
    // schedule. What a request waits on top of the closed-loop round
    // trip is time spent queued for its connection, a worker or the
    // engine lock.
    let paced = trace_phase(&mut outcome, &run.preset, "open", &trace, PACED_TWO, |_| {
        estimator
    });
    // Saturation with both connections closed-loop.
    let sat_trace = closed_loop_trace(sat_s, run.seed ^ 0x5a7);
    let sat = Shape {
        speedup: None,
        stop_s: Some(sat_s),
        ..PACED_TWO
    };
    let sat = trace_phase(&mut outcome, &run.preset, "sat", &sat_trace, sat, |_| {
        estimator
    });
    if let (Some(closed), Some(paced), Some(sat)) = (&closed, &paced, &sat) {
        let open = latencies(&paced.samples);
        let m = &mut outcome.metrics;
        m.set("rpc.wire.open_rtt_ms_p50", open.median(), open.len());
        m.set("rpc.wire.open_rtt_ms_p90", open.percentile(0.9), open.len());
        m.set(
            "rpc.wire.queue_ms_p50",
            open.median() - closed.median(),
            open.len(),
        );
        m.set(
            "rpc.wire.queue_ms_p95",
            open.percentile(0.95) - closed.percentile(0.95),
            open.len(),
        );
        m.set(
            "rpc.loadgen.late_ms_p95",
            lateness(&paced.samples).percentile(0.95),
            open.len(),
        );
        m.set(
            "rpc.wire.saturation_rps",
            sat.samples.len() as f64 / elapsed_s(&sat.samples),
            sat.samples.len(),
        );
        live_hit_rate(m, &paced.finished.report);
        note_paced(&mut outcome, "open", &paced.samples);
    }
    crate::write_trace(run, &mut outcome, &recorder.spans());
    outcome
}

fn recurring_reads_traced(run: &Run) -> Outcome {
    let mut outcome = Outcome::default();
    let estimator = traced_prelude(run, &mut outcome);
    let recorder = Recorder::on();
    let cap_s = run.seconds / 4.0;
    let horizon_ms = (cap_s * RECURRING_TRACE_S_PER_S) as u64 * 1_000;
    let trace = canon::seeded_trace(canon::RECURRING, horizon_ms, run.seed);
    ledger(&mut outcome, run, &trace, cap_s, estimator, &recorder);
    let phase = recurring_phase(&mut outcome, run, cap_s, |_| estimator);
    if let Some(phase) = &phase {
        let write = rtts(&phase.writes);
        let read = latencies(&phase.reads);
        let m = &mut outcome.metrics;
        m.set(
            "rpc.wire.write_rtt_ms_p99",
            write.percentile(0.99),
            write.len(),
        );
        m.set(
            "rpc.wire.read_rtt_ms_p99",
            read.percentile(0.99),
            read.len(),
        );
        m.set(
            "rpc.loadgen.late_ms_p95",
            lateness(&phase.reads).percentile(0.95),
            read.len(),
        );
        live_hit_rate(m, &phase.finished.report);
    }
    crate::write_trace(run, &mut outcome, &recorder.spans());
    outcome
}
