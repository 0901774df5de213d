//! The daemon: a blocking worker-pool HTTP/1.1 server over one shared
//! [`ServingEngine`].
//!
//! `workers` threads accept on a shared listener (`TcpListener` clones);
//! each connection is served to completion by one worker with keep-alive
//! and per-read socket timeouts, so a stalled or truncated peer is
//! bounded in time as well as memory ([`FrameLimits`]). All state lives
//! in one [`Shared`] block: the engine behind a mutex (cross-request
//! serialization is the determinism contract; a submit's searches run
//! under it, one board after another, so reads wait behind them), plus
//! lock-free drain/stop flags the hot submit path checks first.
//!
//! ## Lifecycle
//!
//! * **Run** — `submit`/`depart` tick the engine exactly as trace replay
//!   would; stamps default to the daemon wall clock (ms since boot) and
//!   callers may override with virtual `at_ms` stamps for reproducible
//!   replays.
//! * **Drain** — `POST /v1/drain` flips the admission gate: new submits
//!   answer `503 {"code": "draining"}` while residents keep serving,
//!   departures still land, and freed capacity still drains the queue.
//! * **Shutdown** — `POST /v1/shutdown` drains, finishes the run
//!   ([`ServingEngine::finish`]), replies with the run digest, and stops
//!   the pool — parked accept calls are woken by loopback connections.

use crate::api::{
    ApiError, DepartReply, DepartRequest, DrainReply, ErrorCode, ShutdownReply, ShutdownRequest,
    StatusReply, SubmitReply, SubmitRequest,
};
use crate::http::{render_response, FrameDecoder, FrameLimits, Request};
use crate::json;
use omniboost_hw::{Board, ThroughputModel};
use omniboost_serve::{
    LatencyStats, ServingConfig, ServingEngine, ServingReport, ServingSummary, SubmitOutcome,
};
use omniboost_telemetry::{export, LogHistogram, Telemetry};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Knobs of the network front door (the serving behaviour itself is
/// [`ServingConfig`], passed to [`RpcServer::start`] alongside).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address. Port 0 picks a free port ([`RpcServer::addr`]
    /// reports the bound one).
    pub addr: String,
    /// Accept/serve worker threads.
    pub workers: usize,
    /// Per-read socket timeout — the time bound on truncated requests.
    pub read_timeout_ms: u64,
    /// Request framing size caps.
    pub limits: FrameLimits,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            read_timeout_ms: 2_000,
            limits: FrameLimits::default(),
        }
    }
}

/// Everything the workers share.
struct Shared<M> {
    /// Bound address + pool size, for shutdown to wake parked accepts.
    addr: SocketAddr,
    workers: usize,
    engine: Mutex<ServingEngine<M>>,
    /// Admission gate: set → submits answer 503 `draining`.
    draining: AtomicBool,
    /// Pool stop flag: set → workers exit their accept loops.
    stopping: AtomicBool,
    /// Daemon-assigned job ids (kept above every caller-chosen id).
    next_id: AtomicU64,
    started: Instant,
    /// The daemon's recording telemetry: injected into the engine (and
    /// through it into every board runtime), scraped by `/metrics` and
    /// `GET /v1/trace`. Observational only — replay digests never see
    /// it.
    telemetry: Telemetry,
    /// The finished run, parked for [`RpcServer::join`].
    final_report: Mutex<Option<ServingReport>>,
    /// The shutdown reply, replayed verbatim to repeat shutdowns.
    final_reply: Mutex<Option<ShutdownReply>>,
}

impl<M> Shared<M> {
    fn wall_ms(&self) -> u64 {
        self.started.elapsed().as_millis() as u64
    }

    fn engine(&self) -> std::sync::MutexGuard<'_, ServingEngine<M>> {
        // A panicking handler must not wedge the daemon: recover the
        // engine and keep serving.
        self.engine.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A running daemon. Dropping the handle does **not** stop it — call
/// [`RpcServer::join`] (after a client-side shutdown) or
/// [`RpcServer::stop`].
pub struct RpcServer<M> {
    addr: SocketAddr,
    workers: Vec<JoinHandle<()>>,
    shared: Arc<Shared<M>>,
}

impl<M: ThroughputModel + Send + 'static> RpcServer<M> {
    /// Boots the daemon: builds the engine (every evaluation cache cold),
    /// binds, and spawns the worker pool. The engine starts with a fresh
    /// run already open.
    ///
    /// # Errors
    ///
    /// Propagates bind/clone I/O errors.
    pub fn start(
        server: ServerConfig,
        boards: Vec<Board>,
        serving: ServingConfig,
        make_evaluator: impl FnMut(Board) -> M,
    ) -> std::io::Result<Self> {
        let mut engine = ServingEngine::new(boards, serving, make_evaluator);
        let telemetry = Telemetry::recording();
        engine.set_telemetry(telemetry.clone());
        engine.begin_run();
        let listener = TcpListener::bind(&server.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared {
            addr,
            workers: server.workers.max(1),
            engine: Mutex::new(engine),
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            started: Instant::now(),
            telemetry,
            final_report: Mutex::new(None),
            final_reply: Mutex::new(None),
        });
        let read_timeout = Duration::from_millis(server.read_timeout_ms.max(1));
        let mut workers = Vec::with_capacity(server.workers.max(1));
        for _ in 0..server.workers.max(1) {
            let listener = listener.try_clone()?;
            let shared = Arc::clone(&shared);
            let limits = server.limits;
            workers.push(std::thread::spawn(move || {
                worker_loop(&shared, &listener, limits, read_timeout);
            }));
        }
        Ok(Self {
            addr,
            workers,
            shared,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the worker pool **without** finishing the run (no report)
    /// — the abrupt-kill path. Prefer a client `POST /v1/shutdown` for a
    /// graceful exit.
    pub fn stop(&self) {
        self.shared.draining.store(true, Ordering::SeqCst);
        self.shared.stopping.store(true, Ordering::SeqCst);
        wake_workers(self.addr, self.workers.len());
    }

    /// Waits for the worker pool to exit and returns the finished run's
    /// report (`None` after [`RpcServer::stop`] — only a client
    /// shutdown finishes the run).
    pub fn join(self) -> Option<ServingReport> {
        for worker in self.workers {
            let _ = worker.join();
        }
        self.shared
            .final_report
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take()
    }
}

/// One worker: accept until the stop flag, serve each connection to
/// completion.
fn worker_loop<M: ThroughputModel + Send>(
    shared: &Arc<Shared<M>>,
    listener: &TcpListener,
    limits: FrameLimits,
    read_timeout: Duration,
) {
    loop {
        if shared.stopping.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.stopping.load(Ordering::SeqCst) {
                    return;
                }
                serve_conn(shared, stream, limits, read_timeout);
            }
            Err(_) => {
                if shared.stopping.load(Ordering::SeqCst) {
                    return;
                }
            }
        }
    }
}

/// Unblocks workers parked in `accept` by handing each a throwaway
/// connection.
fn wake_workers(addr: SocketAddr, workers: usize) {
    for _ in 0..workers {
        let _ = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
    }
}

/// Serves one connection: decode → route → respond, keep-alive until
/// the peer closes, errors, times out, or asks to close. Framing errors
/// answer with their mapped status and close — the stream cannot
/// resynchronize.
fn serve_conn<M: ThroughputModel + Send>(
    shared: &Arc<Shared<M>>,
    mut stream: TcpStream,
    limits: FrameLimits,
    read_timeout: Duration,
) {
    let _ = stream.set_read_timeout(Some(read_timeout));
    let _ = stream.set_nodelay(true);
    let mut decoder = FrameDecoder::new(limits);
    let mut buf = [0u8; 8 * 1024];
    loop {
        loop {
            match decoder.next_request() {
                Ok(Some(request)) => {
                    let keep_alive = !request.wants_close();
                    let (status, body, content_type) = route(shared, &request);
                    let bytes = render_response(status, content_type, body.as_bytes(), keep_alive);
                    if stream.write_all(&bytes).is_err() {
                        return;
                    }
                    if !keep_alive || shared.stopping.load(Ordering::SeqCst) {
                        return;
                    }
                }
                Ok(None) => break,
                Err(frame) => {
                    let body = format!(
                        "{{\"error\": {{\"code\": {}, \"message\": {}}}}}",
                        json::quote(frame.code()),
                        json::quote(&frame.to_string()),
                    );
                    let bytes =
                        render_response(frame.status(), "application/json", body.as_bytes(), false);
                    let _ = stream.write_all(&bytes);
                    return;
                }
            }
        }
        match stream.read(&mut buf) {
            Ok(0) => return,
            Ok(n) => decoder.feed(&buf[..n]),
            // Timeouts land here too: a truncated request is dropped
            // after `read_timeout` instead of parking the worker.
            Err(_) => return,
        }
    }
}

/// Routes one request to its handler, folding [`ApiError`]s into their
/// wire form.
fn route<M: ThroughputModel + Send>(
    shared: &Shared<M>,
    request: &Request,
) -> (u16, String, &'static str) {
    let path = request.target.split('?').next().unwrap_or("");
    // Per-endpoint request-phase span: covers parse + handler + body
    // render (socket I/O happens outside, in the connection loop).
    let _span = endpoint_span(shared, request.method.as_str(), path);
    let result = match (request.method.as_str(), path) {
        ("POST", "/v1/submit") => handle_submit(shared, &request.body),
        ("POST", "/v1/depart") => handle_depart(shared, &request.body),
        ("GET", "/v1/status") => Ok(status_reply(shared).to_json()),
        ("GET", "/v1/summary") => Ok(summary_json(&snapshot(shared))),
        ("GET", "/metrics") => {
            return (200, metrics_text(shared), "text/plain; charset=utf-8");
        }
        ("GET", "/v1/trace") => {
            return (200, shared.telemetry.trace_json(), "application/json");
        }
        ("POST", "/v1/drain") => Ok(handle_drain(shared).to_json()),
        ("POST", "/v1/shutdown") => handle_shutdown(shared, &request.body),
        (
            _,
            "/v1/submit" | "/v1/depart" | "/v1/status" | "/v1/summary" | "/metrics" | "/v1/trace"
            | "/v1/drain" | "/v1/shutdown",
        ) => Err(ApiError::new(
            ErrorCode::MethodNotAllowed,
            format!("{} does not accept {}", path, request.method),
        )),
        _ => Err(ApiError::new(
            ErrorCode::NotFound,
            format!("no route {path}"),
        )),
    };
    match result {
        Ok(body) => (200, body, "application/json"),
        Err(e) => (e.code.status(), e.to_json(), "application/json"),
    }
}

/// Opens the request-phase span for a known endpoint. Unroutable paths
/// get no span — one junk request must not mint one histogram series
/// each in the registry.
fn endpoint_span<M>(
    shared: &Shared<M>,
    method: &str,
    path: &str,
) -> Option<omniboost_telemetry::Span> {
    let name = match (method, path) {
        ("POST", "/v1/submit") => "rpc.submit",
        ("POST", "/v1/depart") => "rpc.depart",
        ("GET", "/v1/status") => "rpc.status",
        ("GET", "/v1/summary") => "rpc.summary",
        ("GET", "/metrics") => "rpc.metrics",
        ("GET", "/v1/trace") => "rpc.trace",
        ("POST", "/v1/drain") => "rpc.drain",
        ("POST", "/v1/shutdown") => "rpc.shutdown",
        _ => return None,
    };
    Some(shared.telemetry.span(name))
}

fn handle_submit<M: ThroughputModel + Send>(
    shared: &Shared<M>,
    body: &[u8],
) -> Result<String, ApiError> {
    // Gate before parsing: a draining daemon refuses even malformed
    // submits with the drain code, the signal clients key on.
    if shared.draining.load(Ordering::SeqCst) {
        return Err(ApiError::new(
            ErrorCode::Draining,
            "daemon is draining; new admissions are refused",
        ));
    }
    let request = SubmitRequest::from_json(body)?;
    let id = match request.id {
        Some(id) => {
            // Keep daemon-assigned ids clear of caller-chosen ones.
            shared.next_id.fetch_max(id + 1, Ordering::SeqCst);
            id
        }
        None => shared.next_id.fetch_add(1, Ordering::SeqCst),
    };
    let at_ms = request.at_ms.unwrap_or_else(|| shared.wall_ms());
    let mut engine = shared.engine();
    match engine.submit(request.job(id), at_ms) {
        SubmitOutcome::Placed(board) => Ok(SubmitReply {
            id,
            outcome: "placed".to_string(),
            board: Some(board),
            queue_depth: engine.queue_depth(),
        }
        .to_json()),
        SubmitOutcome::Queued => Ok(SubmitReply {
            id,
            outcome: "queued".to_string(),
            board: None,
            queue_depth: engine.queue_depth(),
        }
        .to_json()),
        SubmitOutcome::Rejected => Err(ApiError::new(
            ErrorCode::AdmissionRejected,
            "unservable: no profile in the fleet admits this model",
        )),
    }
}

fn handle_depart<M: ThroughputModel + Send>(
    shared: &Shared<M>,
    body: &[u8],
) -> Result<String, ApiError> {
    let request = DepartRequest::from_json(body)?;
    let at_ms = request.at_ms.unwrap_or_else(|| shared.wall_ms());
    let known = shared.engine().depart(request.id, at_ms);
    Ok(DepartReply {
        id: request.id,
        known,
    }
    .to_json())
}

fn handle_drain<M: ThroughputModel + Send>(shared: &Shared<M>) -> DrainReply {
    let was_draining = shared.draining.swap(true, Ordering::SeqCst);
    let engine = shared.engine();
    let reply = DrainReply {
        draining: true,
        resident_jobs: engine.resident_jobs(),
        queue_depth: engine.queue_depth(),
    };
    drop(engine);
    // Only the open→closed transition is an incident; repeated drains
    // are idempotent no-ops and would spam the flight ring.
    if !was_draining {
        shared.telemetry.event(
            "rpc.drain",
            format!(
                "admission gate closed; resident={} queue_depth={}",
                reply.resident_jobs, reply.queue_depth
            ),
        );
    }
    reply
}

fn handle_shutdown<M: ThroughputModel + Send>(
    shared: &Shared<M>,
    body: &[u8],
) -> Result<String, ApiError> {
    let request = ShutdownRequest::from_json(body)?;
    shared.draining.store(true, Ordering::SeqCst);
    {
        // Replay the stored reply to repeat shutdowns instead of
        // finishing an already-finished run.
        let replay = shared
            .final_reply
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(reply) = replay.as_ref() {
            shared.stopping.store(true, Ordering::SeqCst);
            wake_workers(shared.addr, shared.workers);
            return Ok(reply.to_json());
        }
    }
    let mut engine = shared.engine();
    let horizon_ms = request
        .horizon_ms
        .unwrap_or_else(|| engine.now().max(shared.wall_ms()));
    shared.telemetry.event(
        "rpc.shutdown",
        format!("finishing run at horizon_ms={horizon_ms}"),
    );
    let report = engine.finish(horizon_ms);
    let reply = ShutdownReply {
        digest: report.digest(),
        events: report.summary.events,
        placements: report.summary.placements,
        left_in_queue: report.summary.left_in_queue,
        mean_aggregate_tps: report.summary.mean_aggregate_tps,
    };
    *shared
        .final_report
        .lock()
        .unwrap_or_else(PoisonError::into_inner) = Some(report);
    *shared
        .final_reply
        .lock()
        .unwrap_or_else(PoisonError::into_inner) = Some(reply.clone());
    shared.stopping.store(true, Ordering::SeqCst);
    // Workers parked in accept() never observe the flag on their own.
    wake_workers(shared.addr, shared.workers);
    Ok(reply.to_json())
}

fn status_reply<M: ThroughputModel + Send>(shared: &Shared<M>) -> StatusReply {
    let engine = shared.engine();
    StatusReply {
        clock_ms: engine.now().max(shared.wall_ms()),
        boards: engine.num_boards(),
        resident_jobs: engine.resident_jobs(),
        queue_depth: engine.queue_depth(),
        draining: shared.draining.load(Ordering::SeqCst),
        arrivals: engine.arrivals(),
        placements: engine.placements(),
    }
}

fn snapshot<M: ThroughputModel + Send>(shared: &Shared<M>) -> ServingSummary {
    let engine = shared.engine();
    let at = engine.now().max(shared.wall_ms());
    engine.snapshot(at)
}

/// Renders a [`ServingSummary`] as the `/v1/summary` JSON body.
pub(crate) fn summary_json(s: &ServingSummary) -> String {
    let latency = |l: &LatencyStats| {
        format!(
            "{{\"count\": {}, \"median_ms\": {:?}, \"mean_ms\": {:?}, \"p99_ms\": {:?}, \
             \"max_ms\": {:?}}}",
            l.count, l.median_ms, l.mean_ms, l.p99_ms, l.max_ms
        )
    };
    let tenants: Vec<String> = s
        .tenants
        .iter()
        .map(|t| {
            format!(
                "{{\"tenant\": {}, \"arrivals\": {}, \"placements\": {}, \"mean_tps\": {:?}, \
                 \"queue_wait\": {}, \"left_in_queue\": {}}}",
                t.tenant,
                t.arrivals,
                t.placements,
                t.mean_tps,
                latency(&t.queue_wait),
                t.left_in_queue
            )
        })
        .collect();
    let utilization: Vec<String> = s
        .board_utilization
        .iter()
        .map(|u| format!("{u:?}"))
        .collect();
    format!(
        "{{\"events\": {}, \"arrivals\": {}, \"departures\": {}, \"placements\": {}, \
         \"peak_queue_depth\": {}, \"left_in_queue\": {}, \"rejected\": {}, \
         \"pool\": {{\"submitted\": {}, \"requeued\": {}, \"placed\": {}, \"rejected\": {}, \
         \"departed_queued\": {}, \"retries\": {}}}, \
         \"slo\": {{\"guaranteed_jobs\": {}, \"guaranteed_met\": {}, \
         \"guaranteed_attainment\": {:?}, \"best_effort_jobs\": {}, \"best_effort_served\": {}, \
         \"best_effort_mean_tps\": {:?}}}, \
         \"decisions\": {}, \"cold\": {}, \"warm\": {}, \"memo\": {}, \"single_job_delta\": {}, \
         \"migrated_layers\": {}, \"mean_aggregate_tps\": {:?}, \"board_utilization\": [{}], \
         \"eval_cache\": {{\"hits\": {}, \"misses\": {}, \"evictions\": {}}}, \
         \"tenants\": [{}]}}",
        s.events,
        s.arrivals,
        s.departures,
        s.placements,
        s.peak_queue_depth,
        s.left_in_queue,
        s.rejected,
        s.pool.submitted,
        s.pool.requeued,
        s.pool.placed,
        s.pool.rejected,
        s.pool.departed_queued,
        s.pool.retries,
        s.slo.guaranteed_jobs,
        s.slo.guaranteed_met,
        s.slo.guaranteed_attainment,
        s.slo.best_effort_jobs,
        s.slo.best_effort_served,
        s.slo.best_effort_mean_tps,
        s.decisions,
        latency(&s.cold),
        latency(&s.warm),
        latency(&s.memo),
        latency(&s.single_job_delta),
        s.migrated_layers,
        s.mean_aggregate_tps,
        utilization.join(", "),
        s.eval_cache.hits,
        s.eval_cache.misses,
        s.eval_cache.evictions,
        tenants.join(", "),
    )
}

/// Renders the `/metrics` flat-text exposition: one `omniboost_<name>
/// <value>` line per counter, labelled lines for per-board and
/// per-tenant series. Everything comes off a [`ServingEngine::snapshot`]
/// — the scrape never disturbs the run.
fn metrics_text<M: ThroughputModel + Send>(shared: &Shared<M>) -> String {
    let engine = shared.engine();
    let clock_ms = engine.now().max(shared.wall_ms());
    let s = engine.snapshot(clock_ms);
    let queue_depth = engine.queue_depth();
    let resident = engine.resident_jobs();
    let aggregate_tps = engine.aggregate_throughput();
    let decision_hists: Vec<(&'static str, LogHistogram)> = engine
        .decision_histograms()
        .iter()
        .map(|(name, h)| (*name, (*h).clone()))
        .collect();
    drop(engine);
    let draining = u8::from(shared.draining.load(Ordering::SeqCst));
    let mut out = String::with_capacity(2048);
    let mut line = |name: &str, value: String| {
        out.push_str("omniboost_");
        out.push_str(name);
        out.push(' ');
        out.push_str(&value);
        out.push('\n');
    };
    line("clock_ms", clock_ms.to_string());
    line("draining", draining.to_string());
    line("boards", s.board_utilization.len().to_string());
    line("resident_jobs", resident.to_string());
    line("queue_depth", queue_depth.to_string());
    line("aggregate_tps", format!("{aggregate_tps:?}"));
    line("events", s.events.to_string());
    line("arrivals", s.arrivals.to_string());
    line("departures", s.departures.to_string());
    line("placements", s.placements.to_string());
    line("peak_queue_depth", s.peak_queue_depth.to_string());
    line("rejected", s.rejected.to_string());
    line("pool_submitted", s.pool.submitted.to_string());
    line("pool_requeued", s.pool.requeued.to_string());
    line("pool_placed", s.pool.placed.to_string());
    line("pool_rejected", s.pool.rejected.to_string());
    line("pool_departed_queued", s.pool.departed_queued.to_string());
    line("pool_retries", s.pool.retries.to_string());
    line("decisions", s.decisions.to_string());
    line("decision_cold_count", s.cold.count.to_string());
    line("decision_cold_p99_ms", format!("{:?}", s.cold.p99_ms));
    line("decision_warm_count", s.warm.count.to_string());
    line("decision_warm_p99_ms", format!("{:?}", s.warm.p99_ms));
    line("decision_memo_count", s.memo.count.to_string());
    line("decision_memo_p99_ms", format!("{:?}", s.memo.p99_ms));
    line("migrated_layers", s.migrated_layers.to_string());
    line("mean_aggregate_tps", format!("{:?}", s.mean_aggregate_tps));
    line("eval_cache_hits", s.eval_cache.hits.to_string());
    line("eval_cache_misses", s.eval_cache.misses.to_string());
    line("eval_cache_evictions", s.eval_cache.evictions.to_string());
    line("slo_guaranteed_jobs", s.slo.guaranteed_jobs.to_string());
    line("slo_guaranteed_met", s.slo.guaranteed_met.to_string());
    line(
        "slo_guaranteed_attainment",
        format!("{:?}", s.slo.guaranteed_attainment),
    );
    line("slo_best_effort_jobs", s.slo.best_effort_jobs.to_string());
    line(
        "slo_best_effort_served",
        s.slo.best_effort_served.to_string(),
    );
    line(
        "slo_best_effort_mean_tps",
        format!("{:?}", s.slo.best_effort_mean_tps),
    );
    for (board, utilization) in s.board_utilization.iter().enumerate() {
        line(
            &format!("board_utilization{{board=\"{board}\"}}"),
            format!("{utilization:?}"),
        );
    }
    for tenant in &s.tenants {
        let t = tenant.tenant;
        line(
            &format!("tenant_arrivals{{tenant=\"{t}\"}}"),
            tenant.arrivals.to_string(),
        );
        line(
            &format!("tenant_placements{{tenant=\"{t}\"}}"),
            tenant.placements.to_string(),
        );
        line(
            &format!("tenant_mean_tps{{tenant=\"{t}\"}}"),
            format!("{:?}", tenant.mean_tps),
        );
        line(
            &format!("tenant_left_in_queue{{tenant=\"{t}\"}}"),
            tenant.left_in_queue.to_string(),
        );
    }
    // Histogram families (`# HELP`/`# TYPE` + cumulative `_bucket`,
    // `_sum`, `_count`). The flat lines above predate these and stay
    // byte-identical for existing scrapers; the families only append.
    for (name, h) in &decision_hists {
        export::render_histogram(
            &mut out,
            &format!("omniboost_{name}"),
            "Decision latency in milliseconds (log-bucketed, mergeable).",
            h,
        );
    }
    for (name, h) in shared.telemetry.histograms() {
        export::render_histogram(
            &mut out,
            &format!("omniboost_span_{}", export::sanitize_metric_name(name)),
            "Span duration in milliseconds (log-bucketed, mergeable).",
            &h,
        );
    }
    for (name, value) in shared.telemetry.counters() {
        export::render_counter(
            &mut out,
            &format!("omniboost_{}", export::sanitize_metric_name(name)),
            "Telemetry counter.",
            value,
        );
    }
    out
}
