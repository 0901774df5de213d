//! # omniboost-rpc
//!
//! The network front door: a serving **daemon** over the shared
//! [`omniboost_serve::ServingEngine`], plus the client, wire types and
//! load generator that drive it.
//!
//! Everything below is hand-rolled on `std::net` — the build is fully
//! offline (no tokio, no hyper, no serde_json), so the crate carries
//! its own minimal HTTP/1.1 framing ([`http`]) and total JSON
//! reader/writer ([`json`]), both property-tested against hostile
//! input in `tests/properties.rs`.
//!
//! * [`api`] — the typed request/reply contract and stable error codes.
//! * [`servers`] — the worker-pool daemon: `submit`/`depart` tick the
//!   engine exactly as trace replay would, `status`/`summary`/`metrics`
//!   are non-disturbing snapshots, `drain` closes the admission gate
//!   (submits answer `503 draining` while residents finish), `shutdown`
//!   finishes the run, archives evaluation caches by board fingerprint
//!   and reports the run digest.
//! * [`client`] — a blocking keep-alive client with layered config
//!   (code defaults < environment) and typed errors.
//! * [`loadgen`] — seeded closed-loop trace replay over the wire,
//!   stamped in virtual time, so the daemon-side digest equals the
//!   in-process [`omniboost_serve::ServingSim`] digest for the same
//!   trace.
//!
//! See `examples/rpc_daemon.rs` for a boot-drive-drain walkthrough; the
//! daemon's latency is measured by the `daemon_open_loop` and
//! `daemon_recurring_reads` workloads of `perfbench/` (`op_ms_*`,
//! `ops_per_s`, `rpc.wire.*`, `rpc.drain.ms`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod client;
pub mod http;
pub mod json;
pub mod loadgen;
pub mod servers;

pub use api::{
    ApiError, DepartReply, DepartRequest, DrainReply, ErrorCode, ShutdownReply, ShutdownRequest,
    StatusReply, SubmitReply, SubmitRequest,
};
pub use client::{ClientConfig, RpcClient, RpcError};
pub use http::{FrameDecoder, FrameError, FrameLimits, Request, Response};
pub use json::{Json, JsonError};
pub use loadgen::{replay_trace, LoadgenReport};
pub use servers::{RpcServer, ServerConfig};
