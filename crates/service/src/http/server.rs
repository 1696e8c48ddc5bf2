//! The node's HTTP front-end: the routes of [`router`](super::router)
//! on the shared connection layer (`listener.rs`). A summary whose result
//! is resident in memory is answered on the connection thread; every
//! summary computation runs on the bounded worker pool (`503` when its
//! queue is full, `504` past the request budget).

use crate::http::fanout::Fanout;
use crate::http::request::HttpRequest;
use crate::http::response::HttpResponse;
use crate::http::router::route;
use crate::http::{HttpConfig, HttpServerStats};
use crate::listener::{Connections, Frontend, Listener};
use crate::pool::WorkerPool;
use crate::service::{ServiceError, SummaryService};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

/// What a node answers with: the service, its worker pool, and counters.
pub(crate) struct Node {
    pub service: Arc<SummaryService>,
    pool: WorkerPool,
    request_timeout: Duration,
    connections: Arc<Connections>,
    timed_out: AtomicU64,
    /// Peer broadcaster for admin mutations; `None` without `--peer`s.
    pub fanout: Option<Fanout>,
}

impl Node {
    pub fn stats(&self) -> HttpServerStats {
        HttpServerStats {
            accepted: self.connections.accepted(),
            served: self.connections.served(),
            shed: self.connections.shed(),
            timed_out: self.timed_out.load(Ordering::Relaxed),
            active_connections: self.connections.active(),
            fanout_sent: self.fanout.as_ref().map_or(0, Fanout::sent),
            fanout_failed: self.fanout.as_ref().map_or(0, Fanout::failed),
        }
    }

    /// Run `job` on the worker pool, waiting up to the request budget.
    /// A full queue, a timeout (the job keeps running and warms the cache
    /// for the next attempt), a dropped job and a service error come back
    /// as the response to send. The summary routes come here only for a
    /// result not resident in memory; a resident one is answered on the
    /// connection thread first, so it is never shed or timed out.
    pub fn execute<T: Send + 'static>(
        &self,
        job: impl FnOnce(&SummaryService) -> Result<T, ServiceError> + Send + 'static,
    ) -> Result<T, HttpResponse> {
        let (tx, rx) = mpsc::channel();
        let service = Arc::clone(&self.service);
        let admitted = self.pool.try_execute(move || {
            let _ = tx.send(job(&service));
        });
        if admitted.is_err() {
            self.connections.count_shed();
            return Err(HttpResponse::error(
                503,
                "overloaded",
                "request queue is full",
            ));
        }
        match rx.recv_timeout(self.request_timeout) {
            Ok(result) => result.map_err(|e| HttpResponse::service_error(&e)),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                self.timed_out.fetch_add(1, Ordering::Relaxed);
                Err(HttpResponse::error(
                    504,
                    "timeout",
                    format!("request exceeded {:?}", self.request_timeout),
                ))
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(HttpResponse::error(
                500,
                "internal",
                "worker dropped the request",
            )),
        }
    }
}

impl Frontend for Node {
    const ROLE: &'static str = "http";

    fn respond(&self, request: &HttpRequest) -> HttpResponse {
        route(self, request)
    }

    fn stop(&self) {
        self.pool.shutdown();
    }
}

/// A running HTTP/1.1 front-end over a shared [`SummaryService`].
///
/// Bind with [`HttpServer::bind`], point any HTTP client at
/// [`HttpServer::local_addr`], and stop with [`HttpServer::shutdown`]
/// (or drop the server, which shuts down too).
pub struct HttpServer {
    listener: Listener<Node>,
}

impl HttpServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving `service` over HTTP.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<SummaryService>,
        config: HttpConfig,
    ) -> std::io::Result<HttpServer> {
        let listener = Listener::bind(
            addr,
            config.max_connections,
            config.log_requests,
            |connections| Node {
                service,
                pool: WorkerPool::new(config.workers, config.queue_capacity),
                request_timeout: config.request_timeout,
                connections,
                timed_out: AtomicU64::new(0),
                fanout: (!config.peers.is_empty())
                    .then(|| Fanout::new(config.peers, config.request_timeout)),
            },
        )?;
        Ok(HttpServer { listener })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Current server counters.
    pub fn stats(&self) -> HttpServerStats {
        self.listener.frontend().stats()
    }

    /// The service this server fronts.
    pub fn service(&self) -> &Arc<SummaryService> {
        &self.listener.frontend().service
    }

    /// Block on the accept loop (which runs until shutdown or a listener
    /// failure). Used by the CLI's `serve --http`; connections keep being
    /// served while this blocks.
    pub fn wait(self) {
        self.listener.wait();
    }

    /// Graceful shutdown: stop accepting, answer every request already
    /// read from open connections, drain the worker queue, join all
    /// threads. Returns the final counters.
    pub fn shutdown(mut self) -> HttpServerStats {
        self.listener.shutdown();
        self.stats()
    }
}
