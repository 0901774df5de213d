//! Loopback integration tests over a live daemon: drain semantics,
//! graceful shutdown, and the wire-vs-in-process digest parity pin.

use omniboost_estimator::CnnEstimator;
use omniboost_hw::{AnalyticModel, Board};
use omniboost_models::{ArrivalProcess, ArrivalTrace, ModelId, TraceConfig};
use omniboost_rpc::api::{DepartRequest, ShutdownRequest, SubmitRequest};
use omniboost_rpc::client::{ClientConfig, RpcClient};
use omniboost_rpc::loadgen::replay_trace;
use omniboost_rpc::servers::{RpcServer, ServerConfig};
use omniboost_serve::{OnlineConfig, SearchBudget, ServingConfig, ServingEngine, ServingSim};

const HORIZON_MS: u64 = 30_000;

fn quick_online() -> OnlineConfig {
    OnlineConfig {
        cold_budget: SearchBudget::with_iterations(60),
        warm_budget: SearchBudget::with_iterations(24),
        ..OnlineConfig::default()
    }
}

fn serving_config() -> ServingConfig {
    ServingConfig {
        online: quick_online(),
        ..ServingConfig::warm()
    }
}

fn boot(boards: usize) -> (RpcServer<AnalyticModel>, RpcClient) {
    let server = RpcServer::start(
        ServerConfig::default(),
        vec![Board::hikey970(); boards],
        serving_config(),
        AnalyticModel::new,
    )
    .expect("bind loopback");
    let client =
        RpcClient::connect(ClientConfig::new(server.addr().to_string())).expect("dial daemon");
    (server, client)
}

fn assert_send<T: Send>() {}
fn assert_sync<T: Sync>() {}

/// The threading contract a daemon over the CNN estimator needs, checked
/// at compile time: every board scores through one estimator shared by
/// reference, so the estimator must be `Sync` (its plan lock is what
/// makes it so), and the engine holding those references moves between
/// worker threads, so it must be `Send`. The caches and memos the
/// engine owns are single-owner (`RefCell`, `!Sync`), which `Send`
/// allows. The tests below boot the daemon over `AnalyticModel` only;
/// this keeps the CNN daemon's bounds inside the workspace build.
#[test]
fn the_cnn_estimator_can_serve_a_daemon() {
    assert_send::<CnnEstimator>();
    assert_sync::<CnnEstimator>();
    assert_send::<ServingEngine<&'static CnnEstimator>>();
}

/// The daemon closes a keep-alive connection that idles past its read
/// timeout; the client's next call dials again instead of failing.
#[test]
fn client_redials_a_connection_the_daemon_closed_while_idle() {
    let server = RpcServer::start(
        ServerConfig {
            read_timeout_ms: 30,
            ..ServerConfig::default()
        },
        vec![Board::hikey970()],
        serving_config(),
        AnalyticModel::new,
    )
    .expect("bind loopback");
    let mut client =
        RpcClient::connect(ClientConfig::new(server.addr().to_string())).expect("dial daemon");
    client.status().expect("first call");
    std::thread::sleep(std::time::Duration::from_millis(200));
    client.status().expect("call after the idle close");
    // And the redialed connection keeps working.
    client.status().expect("call on the new connection");
    server.stop();
    server.join();
}

/// Drain mode refuses new submits with the distinct `draining` code
/// while in-flight jobs keep completing; graceful shutdown reports the
/// finished run.
#[test]
fn drain_refuses_submits_then_shutdown_reports_the_run() {
    let (server, mut client) = boot(1);

    // Two residents, virtual-stamped so the run is deterministic.
    for (id, at_ms) in [(1u64, 0u64), (2, 100)] {
        let reply = client
            .submit(&SubmitRequest {
                model: ModelId::AlexNet,
                tenant: 0,
                min_tps: None,
                id: Some(id),
                at_ms: Some(at_ms),
            })
            .expect("admitted");
        assert_eq!(reply.outcome, "placed");
    }
    let status = client.status().expect("status");
    assert_eq!(status.resident_jobs, 2);
    assert!(!status.draining);

    // Close the gate.
    let drained = client.drain().expect("drain");
    assert!(drained.draining);
    assert_eq!(drained.resident_jobs, 2);

    // New admissions now answer 503 with the distinct drain code...
    let refused = client
        .submit(&SubmitRequest::simple(ModelId::MobileNet))
        .expect_err("gate closed");
    assert!(refused.is_code("draining"), "got {refused}");
    match refused {
        omniboost_rpc::RpcError::Api { status, .. } => assert_eq!(status, 503),
        other => panic!("expected api error, got {other}"),
    }

    // ...while in-flight jobs still complete.
    let depart = client
        .depart(&DepartRequest {
            id: 1,
            at_ms: Some(5_000),
        })
        .expect("depart during drain");
    assert!(depart.known);
    let status = client.status().expect("status during drain");
    assert_eq!(status.resident_jobs, 1);
    assert!(status.draining);

    // Metrics stay scrapeable mid-drain and carry the pool counters.
    let metrics = client.metrics().expect("metrics");
    assert!(metrics.contains("omniboost_draining 1"));
    assert!(metrics.contains("omniboost_pool_submitted 2"));
    assert!(metrics.contains("omniboost_pool_retries 0"));

    // Graceful shutdown: the remaining resident counts as left running;
    // nothing was lost (arrivals == placements, nothing queued).
    let reply = client
        .shutdown(&ShutdownRequest {
            horizon_ms: Some(HORIZON_MS),
        })
        .expect("shutdown");
    assert_eq!(reply.events, 3, "2 submits + 1 depart");
    assert_eq!(reply.placements, 2);
    assert_eq!(reply.left_in_queue, 0);

    let report = server.join().expect("finished run parked for join");
    assert_eq!(report.digest(), reply.digest);
}

/// The same seeded trace produces the **same digest** through the
/// daemon (wire path, virtual stamps) as through the in-process
/// `ServingSim` — the wall clock never leaks into serving decisions.
#[test]
fn wire_replay_matches_in_process_digest() {
    let trace = ArrivalTrace::generate(
        ArrivalProcess::Poisson { rate_per_s: 0.8 },
        &TraceConfig {
            horizon_ms: HORIZON_MS,
            mean_lifetime_ms: 8_000.0,
            ..TraceConfig::default()
        },
        7,
    );

    // In-process reference.
    let mut sim = ServingSim::new(
        vec![Board::hikey970(); 2],
        serving_config(),
        AnalyticModel::new,
    );
    let reference = sim.run(&trace, HORIZON_MS);

    // Wire path: same trace, virtual stamps, same horizon.
    let (server, mut client) = boot(2);
    let loadgen = replay_trace(&mut client, &trace).expect("replay");
    assert_eq!(loadgen.requests, trace.len());
    assert_eq!(
        loadgen.placed + loadgen.queued + loadgen.rejected,
        trace.arrivals(),
        "every arrival got a definite outcome over the wire"
    );
    let reply = client
        .shutdown(&ShutdownRequest {
            horizon_ms: Some(HORIZON_MS),
        })
        .expect("shutdown");
    let report = server.join().expect("daemon report");

    assert_eq!(
        reply.digest,
        reference.digest(),
        "wire and in-process replays must be bit-for-bit identical"
    );
    assert_eq!(report.digest(), reference.digest());
    assert_eq!(report.ticks.len(), reference.ticks.len());
    assert_eq!(report.summary.placements, reference.summary.placements);
    assert_eq!(
        reply.mean_aggregate_tps,
        reference.summary.mean_aggregate_tps
    );
}

/// The `/metrics` exposition carries full Prometheus histogram
/// families (`# TYPE … histogram`, cumulative `_bucket` series, `_sum`,
/// `_count`) on top of the flat lines, and `GET /v1/trace` returns
/// Chrome `trace_event` JSON whose rows are time-sorted and span at
/// least the core, serve and rpc layers.
#[test]
fn metrics_histograms_and_trace_export() {
    let (server, mut client) = boot(1);

    // Enough virtual-stamped traffic that decisions actually happen
    // (the second submit closes the first tick and flushes the board).
    for (id, at_ms) in [(1u64, 0u64), (2, 100), (3, 200)] {
        client
            .submit(&SubmitRequest {
                model: ModelId::AlexNet,
                tenant: 0,
                min_tps: None,
                id: Some(id),
                at_ms: Some(at_ms),
            })
            .expect("admitted");
    }

    let metrics = client.metrics().expect("metrics");
    // The pre-histogram flat lines survive byte-identically.
    assert!(metrics.contains("omniboost_pool_submitted 3"));
    // Why searches ended rides along with how long decisions took:
    // iterations performed and plateau stops, counters beside the
    // searched-decision count (mean iterations = sum / memo misses).
    assert!(metrics.contains("# TYPE omniboost_core_decide_iterations counter"));
    assert!(metrics.contains("# TYPE omniboost_core_decide_plateau_stops counter"));
    // At least three histogram families, each with the mandatory +Inf
    // bucket, _sum and _count samples.
    let families: Vec<&str> = metrics
        .lines()
        .filter(|l| l.starts_with("# TYPE ") && l.ends_with(" histogram"))
        .map(|l| l.split_whitespace().nth(2).expect("family name"))
        .collect();
    assert!(
        families.len() >= 3,
        "want >=3 histogram families, got {families:?}"
    );
    for family in &families {
        assert!(
            metrics.contains(&format!("{family}_bucket{{le=\"+Inf\"}}")),
            "{family} missing +Inf bucket"
        );
        assert!(metrics.contains(&format!("{family}_sum")));
        assert!(metrics.contains(&format!("{family}_count")));
        // Cumulative bucket counts never decrease.
        let mut last = 0u64;
        for line in metrics
            .lines()
            .filter(|l| l.starts_with(&format!("{family}_bucket{{")))
        {
            let n: u64 = line
                .rsplit(' ')
                .next()
                .and_then(|v| v.parse().ok())
                .expect("bucket count");
            assert!(n >= last, "cumulative counts decreased in {family}");
            last = n;
        }
    }

    // The trace export parses as JSON, is stamped monotonically, and
    // covers the rpc, serve and core layers.
    let trace = client.trace().expect("trace");
    let parsed = omniboost_rpc::json::parse(trace.as_bytes()).expect("trace is valid JSON");
    let events = match parsed.get("traceEvents") {
        Some(omniboost_rpc::Json::Arr(rows)) => rows.clone(),
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    assert!(!events.is_empty(), "spans were recorded");
    let mut last_ts = 0.0f64;
    let mut cats = std::collections::BTreeSet::new();
    for row in &events {
        let ts = row
            .get("ts")
            .and_then(|v| v.as_f64())
            .expect("every row has ts");
        assert!(ts >= last_ts, "rows sorted by ts");
        last_ts = ts;
        if let Some(cat) = row.get("cat").and_then(|v| v.as_str()) {
            cats.insert(cat.to_string());
        }
    }
    for layer in ["core", "serve", "rpc"] {
        assert!(cats.contains(layer), "no {layer} spans in {cats:?}");
    }

    client
        .shutdown(&ShutdownRequest::default())
        .expect("shutdown");
    server.join();
}

/// Unknown routes, wrong methods and malformed bodies answer typed
/// errors without disturbing the daemon.
#[test]
fn error_paths_answer_typed_codes() {
    let (server, mut client) = boot(1);

    let err = client
        .submit(&SubmitRequest {
            model: ModelId::AlexNet,
            tenant: 0,
            min_tps: None,
            id: None,
            at_ms: None,
        })
        .expect("daemon up");
    assert_eq!(err.outcome, "placed");

    // The daemon survives a malformed body on the same connection.
    let summary = client.summary().expect("summary");
    assert_eq!(summary.get("arrivals").and_then(|v| v.as_u64()), Some(1));

    client
        .shutdown(&ShutdownRequest::default())
        .expect("shutdown");
    server.join();
}
