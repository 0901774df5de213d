//! The caller half: a blocking keep-alive client with layered
//! configuration and typed errors.
//!
//! One [`RpcClient`] owns one TCP connection, reused across calls
//! (HTTP/1.1 keep-alive). A kept-alive connection the daemon closed
//! while it sat idle — the write fails, or the stream ends before the
//! first response byte — is re-dialed and the request resent once; a
//! connection lost *inside* a response surfaces as an error instead —
//! the daemon applied the submit, and silently retrying would
//! double-apply it.

use crate::api::{
    DepartReply, DepartRequest, DrainReply, ShutdownReply, ShutdownRequest, StatusReply,
    SubmitReply, SubmitRequest,
};
use crate::http::{decode_response, FrameError, FrameLimits, Response};
use crate::json::{self, Json};
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Where and how to reach a daemon. Layered: [`ClientConfig::new`]
/// gives code defaults, [`ClientConfig::from_env`] lets the environment
/// override them (`OMNIBOOST_RPC_ADDR`, `OMNIBOOST_RPC_CONNECT_TIMEOUT_MS`,
/// `OMNIBOOST_RPC_IO_TIMEOUT_MS`) — flags > env > defaults, the usual
/// order, with flags being whatever the caller mutates afterwards.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Daemon address (`host:port`).
    pub addr: String,
    /// Dial timeout.
    pub connect_timeout_ms: u64,
    /// Per-read/write socket timeout.
    pub io_timeout_ms: u64,
    /// Response framing caps (mirror of the server's).
    pub limits: FrameLimits,
}

impl ClientConfig {
    /// Code defaults against `addr`.
    pub fn new(addr: impl Into<String>) -> Self {
        Self {
            addr: addr.into(),
            connect_timeout_ms: 2_000,
            io_timeout_ms: 10_000,
            limits: FrameLimits::default(),
        }
    }

    /// [`ClientConfig::new`] with environment overrides applied.
    pub fn from_env(default_addr: impl Into<String>) -> Self {
        let mut config = Self::new(default_addr);
        if let Ok(addr) = std::env::var("OMNIBOOST_RPC_ADDR") {
            if !addr.is_empty() {
                config.addr = addr;
            }
        }
        if let Some(ms) = env_ms("OMNIBOOST_RPC_CONNECT_TIMEOUT_MS") {
            config.connect_timeout_ms = ms;
        }
        if let Some(ms) = env_ms("OMNIBOOST_RPC_IO_TIMEOUT_MS") {
            config.io_timeout_ms = ms;
        }
        config
    }
}

fn env_ms(name: &str) -> Option<u64> {
    std::env::var(name).ok()?.parse().ok()
}

/// Why a call failed.
#[derive(Debug)]
pub enum RpcError {
    /// Transport failure (dial, read, write, timeout).
    Io(std::io::Error),
    /// The daemon's bytes did not frame as an HTTP response.
    Frame(FrameError),
    /// The response framed but its body was not the expected shape.
    Protocol(String),
    /// The daemon answered with an error reply. `code` is the stable
    /// machine code (e.g. `"draining"` while the admission gate is
    /// closed — see [`crate::api::ErrorCode`]).
    Api {
        /// HTTP status.
        status: u16,
        /// Machine-readable code from the error body.
        code: String,
        /// Human-readable message from the error body.
        message: String,
    },
}

impl RpcError {
    /// Whether this is an API error carrying `code`.
    pub fn is_code(&self, code: &str) -> bool {
        matches!(self, RpcError::Api { code: c, .. } if c == code)
    }
}

impl fmt::Display for RpcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpcError::Io(e) => write!(f, "transport: {e}"),
            RpcError::Frame(e) => write!(f, "framing: {e}"),
            RpcError::Protocol(m) => write!(f, "protocol: {m}"),
            RpcError::Api {
                status,
                code,
                message,
            } => write!(f, "api {status} [{code}]: {message}"),
        }
    }
}

impl std::error::Error for RpcError {}

impl From<std::io::Error> for RpcError {
    fn from(e: std::io::Error) -> Self {
        RpcError::Io(e)
    }
}

impl From<FrameError> for RpcError {
    fn from(e: FrameError) -> Self {
        RpcError::Frame(e)
    }
}

impl From<crate::api::ApiError> for RpcError {
    fn from(e: crate::api::ApiError) -> Self {
        RpcError::Protocol(e.to_string())
    }
}

/// A blocking daemon client over one keep-alive connection.
pub struct RpcClient {
    config: ClientConfig,
    conn: Option<TcpStream>,
}

impl RpcClient {
    /// Dials the daemon eagerly so configuration errors surface here,
    /// not on the first call.
    ///
    /// # Errors
    ///
    /// [`RpcError::Io`] when the daemon is unreachable.
    pub fn connect(config: ClientConfig) -> Result<Self, RpcError> {
        let mut client = Self { config, conn: None };
        client.redial()?;
        Ok(client)
    }

    /// The configuration in effect.
    pub fn config(&self) -> &ClientConfig {
        &self.config
    }

    fn redial(&mut self) -> Result<(), RpcError> {
        let addr: SocketAddr =
            self.config.addr.to_socket_addrs()?.next().ok_or_else(|| {
                RpcError::Protocol(format!("unresolvable addr {}", self.config.addr))
            })?;
        let stream = TcpStream::connect_timeout(
            &addr,
            Duration::from_millis(self.config.connect_timeout_ms),
        )?;
        let io = Duration::from_millis(self.config.io_timeout_ms.max(1));
        stream.set_read_timeout(Some(io))?;
        stream.set_write_timeout(Some(io))?;
        stream.set_nodelay(true)?;
        self.conn = Some(stream);
        Ok(())
    }

    /// One request/response exchange. A kept-alive connection may have
    /// been closed by the daemon while it sat idle; that shows either as
    /// a failed write or — the request having landed in the buffer of a
    /// socket the peer already closed — as the stream ending before any
    /// response byte. Either way the daemon never read the request, so
    /// the client dials again and resends it, once. A stream that ends
    /// *inside* a response is an error: the daemon acted on the request.
    fn exchange(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Response, RpcError> {
        let request = {
            let body = body.unwrap_or("");
            format!(
                "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                self.config.addr,
                body.len(),
            )
        };
        if self.conn.is_some() {
            if let Some(response) = self.attempt(request.as_bytes())? {
                return Ok(response);
            }
        }
        self.redial()?;
        self.attempt(request.as_bytes())?
            .ok_or_else(|| RpcError::Protocol("connection closed before any response".to_string()))
    }

    /// Sends `request` on the current connection and reads one response.
    /// `Ok(None)`, with the connection dropped, when the peer had closed
    /// it before sending a single response byte.
    fn attempt(&mut self, request: &[u8]) -> Result<Option<Response>, RpcError> {
        let mut stream = self.conn.take().expect("dialed by exchange");
        if stream.write_all(request).is_err() {
            return Ok(None);
        }
        let mut buf = Vec::with_capacity(4096);
        let mut chunk = [0u8; 4096];
        loop {
            if let Some((response, consumed)) = decode_response(&buf, self.config.limits)? {
                debug_assert_eq!(consumed, buf.len(), "client never pipelines");
                self.conn = Some(stream);
                return Ok(Some(response));
            }
            let n = match stream.read(&mut chunk) {
                Ok(n) => n,
                // A write into a closed socket is answered with a reset.
                Err(e) if buf.is_empty() && e.kind() == ErrorKind::ConnectionReset => 0,
                Err(e) => return Err(e.into()),
            };
            if n == 0 {
                if buf.is_empty() {
                    return Ok(None);
                }
                return Err(RpcError::Protocol(
                    "connection closed mid-response".to_string(),
                ));
            }
            buf.extend_from_slice(&chunk[..n]);
        }
    }

    /// Exchange + error-body decoding: non-2xx replies become
    /// [`RpcError::Api`].
    fn call(&mut self, method: &str, path: &str, body: Option<&str>) -> Result<Vec<u8>, RpcError> {
        let response = self.exchange(method, path, body)?;
        if (200..300).contains(&response.status) {
            return Ok(response.body);
        }
        let (code, message) = match json::parse(&response.body) {
            Ok(value) => {
                let error = value.get("error").cloned().unwrap_or(Json::Null);
                (
                    error
                        .get("code")
                        .and_then(Json::as_str)
                        .unwrap_or("unknown")
                        .to_string(),
                    error
                        .get("message")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                )
            }
            Err(_) => (
                "unknown".to_string(),
                String::from_utf8_lossy(&response.body).into_owned(),
            ),
        };
        Err(RpcError::Api {
            status: response.status,
            code,
            message,
        })
    }

    /// `POST /v1/submit`.
    ///
    /// # Errors
    ///
    /// [`RpcError::Api`] with code `admission-rejected` on mempool
    /// refusal, `draining` while the gate is closed; transport and
    /// protocol errors otherwise.
    pub fn submit(&mut self, request: &SubmitRequest) -> Result<SubmitReply, RpcError> {
        let body = self.call("POST", "/v1/submit", Some(&request.to_json()))?;
        Ok(SubmitReply::from_json(&body)?)
    }

    /// `POST /v1/depart`.
    ///
    /// # Errors
    ///
    /// Transport, framing and API errors.
    pub fn depart(&mut self, request: &DepartRequest) -> Result<DepartReply, RpcError> {
        let body = self.call("POST", "/v1/depart", Some(&request.to_json()))?;
        Ok(DepartReply::from_json(&body)?)
    }

    /// `GET /v1/status`.
    ///
    /// # Errors
    ///
    /// Transport, framing and API errors.
    pub fn status(&mut self) -> Result<StatusReply, RpcError> {
        let body = self.call("GET", "/v1/status", None)?;
        Ok(StatusReply::from_json(&body)?)
    }

    /// `GET /v1/summary` — the mid-run [`ServingSummary`] snapshot as
    /// parsed JSON.
    ///
    /// [`ServingSummary`]: omniboost_serve::ServingSummary
    ///
    /// # Errors
    ///
    /// Transport, framing and API errors.
    pub fn summary(&mut self) -> Result<Json, RpcError> {
        let body = self.call("GET", "/v1/summary", None)?;
        json::parse(&body).map_err(|e| RpcError::Protocol(e.to_string()))
    }

    /// `GET /metrics` — the flat-text exposition.
    ///
    /// # Errors
    ///
    /// Transport, framing and API errors.
    pub fn metrics(&mut self) -> Result<String, RpcError> {
        let body = self.call("GET", "/metrics", None)?;
        String::from_utf8(body).map_err(|_| RpcError::Protocol("metrics not UTF-8".to_string()))
    }

    /// `GET /v1/trace` — the daemon's retained spans + flight-recorder
    /// events as Chrome `trace_event` JSON (loadable in
    /// `about://tracing` or Perfetto), returned verbatim.
    ///
    /// # Errors
    ///
    /// Transport, framing and API errors.
    pub fn trace(&mut self) -> Result<String, RpcError> {
        let body = self.call("GET", "/v1/trace", None)?;
        String::from_utf8(body).map_err(|_| RpcError::Protocol("trace not UTF-8".to_string()))
    }

    /// `POST /v1/drain` — close the admission gate.
    ///
    /// # Errors
    ///
    /// Transport, framing and API errors.
    pub fn drain(&mut self) -> Result<DrainReply, RpcError> {
        let body = self.call("POST", "/v1/drain", Some("{}"))?;
        Ok(DrainReply::from_json(&body)?)
    }

    /// `POST /v1/shutdown` — finish the run and stop the daemon.
    ///
    /// # Errors
    ///
    /// Transport, framing and API errors.
    pub fn shutdown(&mut self, request: &ShutdownRequest) -> Result<ShutdownReply, RpcError> {
        let body = self.call("POST", "/v1/shutdown", Some(&request.to_json()))?;
        Ok(ShutdownReply::from_json(&body)?)
    }
}
