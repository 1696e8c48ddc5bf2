//! HTTP/1.1, the service's one wire format: framing, routing, the
//! observability plane, and the admin plane — all standard library, no
//! async runtime.
//!
//! The subsystem is layered:
//!
//! * [`request`](self::request) — incremental request parsing with strict
//!   limits (8 KiB head, 1 MiB body, `Content-Length` or chunked bodies);
//! * [`response`](self::response) — response construction/serialization
//!   and the [`WireError`] body of every error;
//! * [`router`](self::router) — `(method, path)` dispatch onto the
//!   service (`/v1/*`), metrics/health (`/metrics`, `/healthz`), and
//!   admin (`/admin/*`) handlers;
//! * [`metrics`](self::metrics) — Prometheus text exposition of the
//!   cache, store, catalog, and server counters;
//! * [`server`](self::server) — [`HttpServer`]: the node's routes on the
//!   connection layer it shares with the cluster router (`listener.rs`:
//!   accept, keep-alive loop, parse-error statuses, audit line,
//!   connection counters, shutdown), with every summary computation on
//!   the bounded worker pool (`503` when the queue is full, `504` on
//!   timeout).

pub(crate) mod fanout;
pub(crate) mod metrics;
pub(crate) mod request;
pub(crate) mod response;
pub(crate) mod router;
mod server;

pub use server::HttpServer;

use serde::{Deserialize, Serialize};
use std::fmt;
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

/// Point-in-time HTTP server counters, alongside
/// [`CacheStats`](crate::CacheStats) for the cache underneath.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HttpServerStats {
    /// TCP connections accepted (including ones shed by the connection
    /// cap).
    pub accepted: u64,
    /// HTTP requests answered, whatever the status.
    pub served: u64,
    /// Requests and connections shed by the queue bound or connection
    /// cap.
    pub shed: u64,
    /// Requests that exceeded the per-request timeout.
    pub timed_out: u64,
    /// Connections currently open.
    pub active_connections: usize,
    /// Admin broadcasts delivered to peers (2xx or 404).
    pub fanout_sent: u64,
    /// Admin broadcasts that failed to reach a peer.
    pub fanout_failed: u64,
}

impl fmt::Display for HttpServerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accepted, {} served, {} shed, {} timed out, {} active, {} fanned out",
            self.accepted,
            self.served,
            self.shed,
            self.timed_out,
            self.active_connections,
            self.fanout_sent
        )
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
