//! RPC daemon walkthrough: boot the network-facing serving daemon on
//! loopback, drive it with a client, drain it, and shut it down
//! gracefully.
//!
//! The daemon is the wall-clock face of the same `ServingEngine` the
//! sims replay traces through: `submit`/`depart` requests tick the
//! engine, `/metrics` and `/v1/summary` snapshot the run without
//! disturbing it, `drain` closes the admission gate while residents
//! keep serving, and `shutdown` finishes the run and answers with its
//! determinism digest.
//!
//! Run with:
//! ```sh
//! cargo run --release --example rpc_daemon
//! ```

use omniboost_hw::{AnalyticModel, Board};
use omniboost_models::ModelId;
use omniboost_rpc::api::{DepartRequest, ShutdownRequest, SubmitRequest};
use omniboost_rpc::client::{ClientConfig, RpcClient};
use omniboost_rpc::servers::{RpcServer, ServerConfig};
use omniboost_serve::{OnlineConfig, SearchBudget, ServingConfig};

const BOARDS: usize = 2;

fn main() {
    let config = ServingConfig {
        online: OnlineConfig {
            cold_budget: SearchBudget::with_iterations(120),
            warm_budget: SearchBudget::with_iterations(48),
            ..OnlineConfig::default()
        },
        ..ServingConfig::warm()
    };
    let server = RpcServer::start(
        ServerConfig::default(),
        vec![Board::hikey970(); BOARDS],
        config,
        AnalyticModel::new,
    )
    .expect("bind loopback");
    println!("daemon up on http://{}", server.addr());
    let mut client =
        RpcClient::connect(ClientConfig::from_env(server.addr().to_string())).expect("dial");

    // A small workload: four models in, one out.
    for model in [
        ModelId::AlexNet,
        ModelId::MobileNet,
        ModelId::ResNet50,
        ModelId::InceptionV3,
    ] {
        let reply = client
            .submit(&SubmitRequest::simple(model))
            .expect("submit");
        println!(
            "submit {model:<12} -> {} (id {}, board {:?}, queue {})",
            reply.outcome, reply.id, reply.board, reply.queue_depth
        );
    }
    let gone = client
        .depart(&DepartRequest { id: 1, at_ms: None })
        .expect("depart");
    println!("depart id {} -> known: {}", gone.id, gone.known);

    let status = client.status().expect("status");
    println!(
        "status: {} boards, {} resident, {} queued, clock {} ms",
        status.boards, status.resident_jobs, status.queue_depth, status.clock_ms
    );

    // A few counters off the flat-text exposition.
    let metrics = client.metrics().expect("metrics");
    for line in metrics.lines().filter(|l| {
        l.starts_with("omniboost_arrivals")
            || l.starts_with("omniboost_placements")
            || l.starts_with("omniboost_aggregate_tps")
    }) {
        println!("metrics: {line}");
    }

    // Drain: the gate closes, residents keep serving.
    let drained = client.drain().expect("drain");
    println!(
        "draining: {} residents still serving, {} queued",
        drained.resident_jobs, drained.queue_depth
    );
    match client.submit(&SubmitRequest::simple(ModelId::Vgg16)) {
        Err(e) if e.is_code("draining") => println!("submit while draining -> {e}"),
        other => println!("unexpected: {other:?}"),
    }

    // Graceful shutdown: run finished, digest answered.
    let reply = client
        .shutdown(&ShutdownRequest::default())
        .expect("shutdown");
    println!(
        "shutdown: {} events, {} placements, digest {:#018x}",
        reply.events, reply.placements, reply.digest
    );
    server.join();
}
