//! HTTP/1.1, the service's one wire format: framing, routing, the
//! observability plane, and the admin plane — all standard library, no
//! async runtime.
//!
//! The subsystem is layered:
//!
//! * `request` — incremental request parsing with strict limits (8 KiB
//!   head, 1 MiB body, `Content-Length` or chunked bodies);
//! * `response` — response construction and serialization, each message
//!   in one write, and the [`WireError`] body of every error;
//! * `router` — `(method, path)` dispatch onto the service (`/v1/*`),
//!   metrics/health (`/metrics`, `/healthz`), and admin (`/admin/*`)
//!   handlers. A summary whose result is resident in memory is answered
//!   on the connection thread; everything else computes on the pool;
//! * `server` — [`HttpServer`]: the node's routes on the connection layer
//!   it shares with the cluster router (`listener.rs`: accept, keep-alive
//!   loop, parse-error statuses, audit line, connection counters,
//!   shutdown), with every summary computation on the bounded worker pool
//!   (`503` when the queue is full, `504` on timeout).

pub(crate) mod fanout;
pub(crate) mod request;
pub(crate) mod response;
pub(crate) mod router;
mod server;

pub use crate::signals::HttpServerStats;
pub use server::HttpServer;

use serde::{Deserialize, Serialize};
use std::time::Duration;

/// Tuning knobs for [`HttpServer`].
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// Worker threads executing summarize requests.
    pub workers: usize,
    /// Bound on requests waiting for a worker; beyond it requests are
    /// answered `503 overloaded` instead of buffering without bound.
    pub queue_capacity: usize,
    /// Concurrent connection cap; further connections get one `503` and
    /// are closed.
    pub max_connections: usize,
    /// Per-request wall-clock budget; slower answers become `504`.
    pub request_timeout: Duration,
    /// Emit a one-line audit record per request (method, target, status,
    /// latency) on stderr.
    pub log_requests: bool,
    /// Peer node addresses (`host:port`) for cross-node invalidation:
    /// locally initiated `POST /admin/evict` and `POST /admin/refresh`
    /// are re-broadcast to each peer after applying locally. Empty in
    /// single-node deployments.
    pub peers: Vec<String>,
}

impl Default for HttpConfig {
    fn default() -> Self {
        HttpConfig {
            workers: 4,
            queue_capacity: 64,
            max_connections: 64,
            request_timeout: Duration::from_secs(10),
            log_requests: false,
            peers: Vec::new(),
        }
    }
}

/// A structured request failure, the body of every error response
/// (`{"error":{"kind":...,"message":...}}`): a stable machine-readable
/// `kind` (`overloaded`, `timeout`, `malformed`, `bad_request`,
/// `unknown_schema`, `unknown_fingerprint`, `algo`, `internal`, ...) plus
/// a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireError {
    /// Machine-readable error class.
    pub kind: String,
    /// Human-readable detail.
    pub message: String,
}
