//! The RPC API surface: request/response types and their wire
//! encoding.
//!
//! Follows the kakarot-rpc shape — `api` holds the typed
//! request/response contract, `servers` the connection/worker loop,
//! `client` the caller side with layered config and typed errors. The
//! wire bytes are produced/consumed by the hand-rolled [`crate::json`]
//! module.
//!
//! | method | path | body | reply |
//! |---|---|---|---|
//! | POST | `/v1/submit` | [`SubmitRequest`] | [`SubmitReply`] |
//! | POST | `/v1/depart` | [`DepartRequest`] | [`DepartReply`] |
//! | GET | `/v1/status` | — | [`StatusReply`] |
//! | GET | `/v1/summary` | — | mid-run summary snapshot (JSON) |
//! | GET | `/metrics` | — | Prometheus text: flat counters + histogram families |
//! | GET | `/v1/trace` | — | Chrome `trace_event` JSON (spans + flight events) |
//! | POST | `/v1/drain` | — | [`DrainReply`] |
//! | POST | `/v1/shutdown` | [`ShutdownRequest`] | [`ShutdownReply`] |

use crate::json::{self, Json};
use omniboost_models::{JobSpec, ModelId, SloClass};
use std::fmt;

/// Stable machine-readable error codes carried by every non-2xx reply
/// body (`{"error": {"code": ..., "message": ...}}`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The body is not valid JSON.
    MalformedJson,
    /// The body parsed but misses/mistypes a required field.
    BadRequest,
    /// `model` names no model in the zoo.
    UnknownModel,
    /// The daemon is draining: new admissions are refused, residents
    /// keep running. The **distinct drain code** clients key on.
    Draining,
    /// The admission mempool rejected the job (validation/quota); the
    /// message carries the reason.
    AdmissionRejected,
    /// No such route.
    NotFound,
    /// Route exists, method does not.
    MethodNotAllowed,
    /// The framing layer refused the request (size caps, malformed
    /// head).
    BadFrame,
    /// Anything unexpected server-side.
    Internal,
}

impl ErrorCode {
    /// The wire spelling (kebab-case).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::MalformedJson => "malformed-json",
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::UnknownModel => "unknown-model",
            ErrorCode::Draining => "draining",
            ErrorCode::AdmissionRejected => "admission-rejected",
            ErrorCode::NotFound => "not-found",
            ErrorCode::MethodNotAllowed => "method-not-allowed",
            ErrorCode::BadFrame => "bad-frame",
            ErrorCode::Internal => "internal",
        }
    }

    /// The HTTP status the code travels under.
    pub fn status(self) -> u16 {
        match self {
            ErrorCode::MalformedJson | ErrorCode::BadRequest | ErrorCode::BadFrame => 400,
            ErrorCode::UnknownModel => 422,
            ErrorCode::Draining => 503,
            ErrorCode::AdmissionRejected => 409,
            ErrorCode::NotFound => 404,
            ErrorCode::MethodNotAllowed => 405,
            ErrorCode::Internal => 500,
        }
    }
}

impl fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A typed API error (the decoded form of an error reply body).
#[derive(Debug, Clone, PartialEq)]
pub struct ApiError {
    /// Machine-readable code.
    pub code: ErrorCode,
    /// Human-readable detail.
    pub message: String,
}

impl ApiError {
    /// Constructs an error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }

    /// The reply body for this error.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"error\": {{\"code\": {}, \"message\": {}}}}}",
            json::quote(self.code.as_str()),
            json::quote(&self.message),
        )
    }
}

impl fmt::Display for ApiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.code, self.message)
    }
}

impl std::error::Error for ApiError {}

/// `POST /v1/submit` — submit one job for serving.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// Model to serve (zoo name, e.g. `"resnet50"`).
    pub model: ModelId,
    /// Submitting tenant (default 0).
    pub tenant: u32,
    /// Guaranteed-class throughput floor in inferences/s; absent =
    /// best-effort.
    pub min_tps: Option<f64>,
    /// Caller-chosen job id. Absent = the daemon assigns the next id —
    /// trace replays pass their own ids so departures can reference
    /// them.
    pub id: Option<u64>,
    /// Virtual timestamp in ms. Absent = the daemon stamps its wall
    /// clock (ms since boot). Replays pass trace stamps, which is what
    /// makes the wire path digest-identical to in-process replay.
    pub at_ms: Option<u64>,
}

impl SubmitRequest {
    /// A best-effort submit of `model` under tenant 0, daemon-stamped.
    pub fn simple(model: ModelId) -> Self {
        Self {
            model,
            tenant: 0,
            min_tps: None,
            id: None,
            at_ms: None,
        }
    }

    /// The wire body.
    pub fn to_json(&self) -> String {
        let mut fields = vec![
            format!("\"model\": {}", json::quote(&self.model.to_string())),
            format!("\"tenant\": {}", self.tenant),
        ];
        if let Some(floor) = self.min_tps {
            fields.push(format!("\"min_tps\": {floor:?}"));
        }
        if let Some(id) = self.id {
            fields.push(format!("\"id\": {id}"));
        }
        if let Some(at) = self.at_ms {
            fields.push(format!("\"at_ms\": {at}"));
        }
        format!("{{{}}}", fields.join(", "))
    }

    /// Decodes a request body.
    ///
    /// # Errors
    ///
    /// [`ApiError`] with [`ErrorCode::MalformedJson`],
    /// [`ErrorCode::BadRequest`] or [`ErrorCode::UnknownModel`].
    pub fn from_json(body: &[u8]) -> Result<Self, ApiError> {
        let value = parse_body(body)?;
        let model_name = value
            .get("model")
            .and_then(Json::as_str)
            .ok_or_else(|| ApiError::new(ErrorCode::BadRequest, "missing string field `model`"))?;
        let model: ModelId = model_name.parse().map_err(|_| {
            ApiError::new(
                ErrorCode::UnknownModel,
                format!("unknown model `{model_name}`"),
            )
        })?;
        let tenant = match value.get("tenant") {
            None => 0,
            Some(v) => v
                .as_u64()
                .filter(|t| *t <= u64::from(u32::MAX))
                .ok_or_else(|| ApiError::new(ErrorCode::BadRequest, "`tenant` must be a u32"))?
                as u32,
        };
        let min_tps = match value.get("min_tps") {
            None | Some(Json::Null) => None,
            Some(v) => Some(v.as_f64().filter(|f| *f >= 0.0).ok_or_else(|| {
                ApiError::new(
                    ErrorCode::BadRequest,
                    "`min_tps` must be a non-negative number",
                )
            })?),
        };
        let id = opt_u64(&value, "id")?;
        let at_ms = opt_u64(&value, "at_ms")?;
        Ok(Self {
            model,
            tenant,
            min_tps,
            id,
            at_ms,
        })
    }

    /// The [`JobSpec`] this request describes, under the assigned `id`.
    pub fn job(&self, id: u64) -> JobSpec {
        JobSpec {
            id,
            model: self.model,
            tenant: self.tenant,
            slo: match self.min_tps {
                Some(min_tps) => SloClass::Guaranteed { min_tps },
                None => SloClass::BestEffort,
            },
        }
    }
}

/// `POST /v1/depart` — a served job leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepartRequest {
    /// The job id from its submit.
    pub id: u64,
    /// Virtual timestamp, like [`SubmitRequest::at_ms`].
    pub at_ms: Option<u64>,
}

impl DepartRequest {
    /// The wire body.
    pub fn to_json(&self) -> String {
        match self.at_ms {
            Some(at) => format!("{{\"id\": {}, \"at_ms\": {at}}}", self.id),
            None => format!("{{\"id\": {}}}", self.id),
        }
    }

    /// Decodes a request body.
    ///
    /// # Errors
    ///
    /// [`ApiError`] on malformed JSON or a missing/mistyped `id`.
    pub fn from_json(body: &[u8]) -> Result<Self, ApiError> {
        let value = parse_body(body)?;
        let id = value
            .get("id")
            .and_then(Json::as_u64)
            .ok_or_else(|| ApiError::new(ErrorCode::BadRequest, "missing u64 field `id`"))?;
        Ok(Self {
            id,
            at_ms: opt_u64(&value, "at_ms")?,
        })
    }
}

/// What happened to a submitted job.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitReply {
    /// The job's id (caller-chosen or daemon-assigned).
    pub id: u64,
    /// `"placed"` | `"queued"` (rejections travel as [`ApiError`] with
    /// [`ErrorCode::AdmissionRejected`]).
    pub outcome: String,
    /// The board the job landed on (placed only).
    pub board: Option<usize>,
    /// Waiting entries after this submit.
    pub queue_depth: usize,
}

impl SubmitReply {
    /// The wire body.
    pub fn to_json(&self) -> String {
        let board = match self.board {
            Some(b) => b.to_string(),
            None => "null".into(),
        };
        format!(
            "{{\"id\": {}, \"outcome\": {}, \"board\": {board}, \"queue_depth\": {}}}",
            self.id,
            json::quote(&self.outcome),
            self.queue_depth,
        )
    }

    /// Decodes a reply body.
    ///
    /// # Errors
    ///
    /// [`ApiError`] on malformed or incomplete replies.
    pub fn from_json(body: &[u8]) -> Result<Self, ApiError> {
        let value = parse_body(body)?;
        Ok(Self {
            id: require_u64(&value, "id")?,
            outcome: value
                .get("outcome")
                .and_then(Json::as_str)
                .ok_or_else(|| ApiError::new(ErrorCode::BadRequest, "missing `outcome`"))?
                .to_string(),
            board: value
                .get("board")
                .and_then(Json::as_u64)
                .map(|b| b as usize),
            queue_depth: require_u64(&value, "queue_depth")? as usize,
        })
    }
}

/// Whether a departed id was known.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepartReply {
    /// The departed job id.
    pub id: u64,
    /// Whether the job was resident or queued when the depart arrived.
    pub known: bool,
}

impl DepartReply {
    /// The wire body.
    pub fn to_json(&self) -> String {
        format!("{{\"id\": {}, \"known\": {}}}", self.id, self.known)
    }

    /// Decodes a reply body.
    ///
    /// # Errors
    ///
    /// [`ApiError`] on malformed or incomplete replies.
    pub fn from_json(body: &[u8]) -> Result<Self, ApiError> {
        let value = parse_body(body)?;
        Ok(Self {
            id: require_u64(&value, "id")?,
            known: value
                .get("known")
                .and_then(Json::as_bool)
                .ok_or_else(|| ApiError::new(ErrorCode::BadRequest, "missing `known`"))?,
        })
    }
}

/// `GET /v1/status` — cheap daemon liveness/state probe.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusReply {
    /// Daemon clock in ms (wall ms since boot, or the newest virtual
    /// stamp if that is ahead).
    pub clock_ms: u64,
    /// Boards in the fleet.
    pub boards: usize,
    /// Jobs resident across the fleet.
    pub resident_jobs: usize,
    /// Waiting entries in the admission pool.
    pub queue_depth: usize,
    /// Whether the daemon refuses new admissions.
    pub draining: bool,
    /// Arrivals accepted this run.
    pub arrivals: usize,
    /// Placements this run.
    pub placements: usize,
}

impl StatusReply {
    /// The wire body.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"clock_ms\": {}, \"boards\": {}, \"resident_jobs\": {}, \
             \"queue_depth\": {}, \"draining\": {}, \"arrivals\": {}, \
             \"placements\": {}}}",
            self.clock_ms,
            self.boards,
            self.resident_jobs,
            self.queue_depth,
            self.draining,
            self.arrivals,
            self.placements,
        )
    }

    /// Decodes a reply body.
    ///
    /// # Errors
    ///
    /// [`ApiError`] on malformed or incomplete replies.
    pub fn from_json(body: &[u8]) -> Result<Self, ApiError> {
        let value = parse_body(body)?;
        Ok(Self {
            clock_ms: require_u64(&value, "clock_ms")?,
            boards: require_u64(&value, "boards")? as usize,
            resident_jobs: require_u64(&value, "resident_jobs")? as usize,
            queue_depth: require_u64(&value, "queue_depth")? as usize,
            draining: value
                .get("draining")
                .and_then(Json::as_bool)
                .ok_or_else(|| ApiError::new(ErrorCode::BadRequest, "missing `draining`"))?,
            arrivals: require_u64(&value, "arrivals")? as usize,
            placements: require_u64(&value, "placements")? as usize,
        })
    }
}

/// `POST /v1/drain` — the daemon entered drain mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReply {
    /// Always true after the call (idempotent).
    pub draining: bool,
    /// Jobs still resident (they keep running to completion).
    pub resident_jobs: usize,
    /// Entries still waiting (they may still drain onto boards as
    /// residents depart).
    pub queue_depth: usize,
}

impl DrainReply {
    /// The wire body.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"draining\": {}, \"resident_jobs\": {}, \"queue_depth\": {}}}",
            self.draining, self.resident_jobs, self.queue_depth
        )
    }

    /// Decodes a reply body.
    ///
    /// # Errors
    ///
    /// [`ApiError`] on malformed or incomplete replies.
    pub fn from_json(body: &[u8]) -> Result<Self, ApiError> {
        let value = parse_body(body)?;
        Ok(Self {
            draining: value
                .get("draining")
                .and_then(Json::as_bool)
                .ok_or_else(|| ApiError::new(ErrorCode::BadRequest, "missing `draining`"))?,
            resident_jobs: require_u64(&value, "resident_jobs")? as usize,
            queue_depth: require_u64(&value, "queue_depth")? as usize,
        })
    }
}

/// `POST /v1/shutdown` — finish the run and stop the daemon.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShutdownRequest {
    /// Horizon the run's time integrals extend to (ms). Absent = the
    /// daemon's clock at shutdown.
    pub horizon_ms: Option<u64>,
}

impl ShutdownRequest {
    /// The wire body.
    pub fn to_json(&self) -> String {
        match self.horizon_ms {
            Some(h) => format!("{{\"horizon_ms\": {h}}}"),
            None => "{}".into(),
        }
    }

    /// Decodes a request body (an empty body is a default shutdown).
    ///
    /// # Errors
    ///
    /// [`ApiError`] on malformed JSON or a mistyped `horizon_ms`.
    pub fn from_json(body: &[u8]) -> Result<Self, ApiError> {
        if body.iter().all(|b| b.is_ascii_whitespace()) {
            return Ok(Self::default());
        }
        let value = parse_body(body)?;
        Ok(Self {
            horizon_ms: opt_u64(&value, "horizon_ms")?,
        })
    }
}

/// The daemon's parting words: the finished run, digested.
#[derive(Debug, Clone, PartialEq)]
pub struct ShutdownReply {
    /// [`omniboost_serve::ServingReport::digest`] of the finished run —
    /// the latency-free determinism fingerprint the parity test pins
    /// against in-process replay.
    pub digest: u64,
    /// Events processed (arrivals + departures).
    pub events: usize,
    /// Placements over the run.
    pub placements: usize,
    /// Jobs left waiting at shutdown.
    pub left_in_queue: usize,
    /// Time-weighted mean fleet throughput over the horizon.
    pub mean_aggregate_tps: f64,
}

impl ShutdownReply {
    /// The wire body. The digest travels as a hex string: JSON numbers
    /// are f64 and would silently round u64 digests.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"digest\": {}, \"events\": {}, \"placements\": {}, \
             \"left_in_queue\": {}, \"mean_aggregate_tps\": {:?}}}",
            json::quote(&format!("{:#018x}", self.digest)),
            self.events,
            self.placements,
            self.left_in_queue,
            self.mean_aggregate_tps,
        )
    }

    /// Decodes a reply body.
    ///
    /// # Errors
    ///
    /// [`ApiError`] on malformed or incomplete replies.
    pub fn from_json(body: &[u8]) -> Result<Self, ApiError> {
        let value = parse_body(body)?;
        let digest_hex = value
            .get("digest")
            .and_then(Json::as_str)
            .ok_or_else(|| ApiError::new(ErrorCode::BadRequest, "missing `digest`"))?;
        let digest = u64::from_str_radix(digest_hex.trim_start_matches("0x"), 16)
            .map_err(|_| ApiError::new(ErrorCode::BadRequest, "malformed `digest`"))?;
        Ok(Self {
            digest,
            events: require_u64(&value, "events")? as usize,
            placements: require_u64(&value, "placements")? as usize,
            left_in_queue: require_u64(&value, "left_in_queue")? as usize,
            mean_aggregate_tps: value
                .get("mean_aggregate_tps")
                .and_then(Json::as_f64)
                .ok_or_else(|| {
                    ApiError::new(ErrorCode::BadRequest, "missing `mean_aggregate_tps`")
                })?,
        })
    }
}

fn parse_body(body: &[u8]) -> Result<Json, ApiError> {
    json::parse(body).map_err(|e| ApiError::new(ErrorCode::MalformedJson, e.to_string()))
}

fn opt_u64(value: &Json, key: &str) -> Result<Option<u64>, ApiError> {
    match value.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => v
            .as_u64()
            .map(Some)
            .ok_or_else(|| ApiError::new(ErrorCode::BadRequest, format!("`{key}` must be a u64"))),
    }
}

fn require_u64(value: &Json, key: &str) -> Result<u64, ApiError> {
    value
        .get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ApiError::new(ErrorCode::BadRequest, format!("missing u64 field `{key}`")))
}
