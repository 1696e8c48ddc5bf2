//! The cluster router: a std-only HTTP/1.1 proxy process that owns no
//! schemas and computes no summaries — it maps each request's schema
//! identity onto its rendezvous owner and forwards the request there.
//!
//! The router runs on the node's connection layer (`listener.rs`), so it
//! accepts, caps, keeps alive, audits and drains connections exactly as
//! a node does, and answers an unparseable request with the node's
//! `400`/`413`/`431`/`505`. What it adds is `Frontend::respond`:
//!
//! 1. `/healthz` and `/metrics` answer locally (the router's own role
//!    and counters);
//! 2. everything under `/v1/*` and `/admin/*` extracts a **routing
//!    key** — the schema name or fingerprint carried by the request
//!    (`schema`/`fingerprint`/`old` body fields, or the export path
//!    segment) — and walks the rendezvous ranking for that key:
//!    healthy nodes first in rank order, then ejected ones as a last
//!    resort, up to `1 + retries` attempts with a linear backoff
//!    between them;
//! 3. a connect/transport failure or a `503` moves to the next-ranked
//!    node (these requests are read-only computations or idempotent
//!    admin operations, so re-sending is safe); any other status is the
//!    answer and is relayed untouched.
//!
//! Keying on the *identifier string* keeps the router stateless: it
//! never resolves names to fingerprints (only nodes hold the catalog),
//! it just needs every request for the same identifier to land on the
//! same node so that node's cache tiers do their job.

use crate::cluster::client::{ClientResponse, NodeClient};
use crate::cluster::probe::{HealthProbe, HealthState, ProbeConfig};
use crate::cluster::ring::RendezvousRing;
use crate::http::request::HttpRequest;
use crate::http::response::HttpResponse;
use crate::listener::{Connections, Frontend, Listener};
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Router construction parameters.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Node base addresses (`host:port` or `http://host:port`), the
    /// static rendezvous membership.
    pub nodes: Vec<String>,
    /// Concurrent client connection cap.
    pub max_connections: usize,
    /// Extra nodes tried after the owner fails (each on the next-ranked
    /// node). `0` disables failover.
    pub retries: usize,
    /// Backoff before retry `n` is `n * retry_backoff`.
    pub retry_backoff: Duration,
    /// Connect/read/write budget per proxied hop.
    pub request_timeout: Duration,
    /// Health-probe cadence and ejection threshold.
    pub probe: ProbeConfig,
    /// One audit line per proxied request on stderr.
    pub log_requests: bool,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            nodes: Vec::new(),
            max_connections: 64,
            retries: 2,
            retry_backoff: Duration::from_millis(20),
            request_timeout: Duration::from_secs(10),
            probe: ProbeConfig::default(),
            log_requests: false,
        }
    }
}

/// Point-in-time router counters.
#[derive(Debug, Clone)]
pub struct RouterStats {
    /// TCP connections accepted.
    pub accepted: u64,
    /// Requests answered (proxied or local).
    pub served: u64,
    /// Connections shed by the connection cap.
    pub shed: u64,
    /// Requests successfully answered per node, in node order.
    pub routed: Vec<u64>,
    /// Failover attempts (a request moving past a failed node).
    pub retries: u64,
    /// Proxy hops that ended in a transport error.
    pub proxy_errors: u64,
    /// Nodes currently considered healthy.
    pub nodes_healthy: usize,
    /// Total configured nodes.
    pub nodes_total: usize,
    /// Nodes ejected so far.
    pub ejections: u64,
    /// Nodes re-admitted so far.
    pub readmissions: u64,
}

struct RouterInner {
    config: RouterConfig,
    ring: RendezvousRing,
    client: NodeClient,
    health: Arc<HealthState>,
    connections: Arc<Connections>,
    routed: Vec<AtomicU64>,
    retries: AtomicU64,
    proxy_errors: AtomicU64,
}

impl RouterInner {
    fn stats(&self) -> RouterStats {
        RouterStats {
            accepted: self.connections.accepted(),
            served: self.connections.served(),
            shed: self.connections.shed(),
            routed: self
                .routed
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            retries: self.retries.load(Ordering::Relaxed),
            proxy_errors: self.proxy_errors.load(Ordering::Relaxed),
            nodes_healthy: self.health.healthy_count(),
            nodes_total: self.ring.len(),
            ejections: self.health.ejections(),
            readmissions: self.health.readmissions(),
        }
    }

    /// The node order for one request: healthy nodes in rendezvous rank
    /// order, then ejected ones (still in rank order) so a fully-dark
    /// health view degrades to plain rendezvous routing instead of
    /// refusing everything.
    fn candidates(&self, key: &str) -> Vec<usize> {
        let ranked = self.ring.rank(key);
        let (healthy, ejected): (Vec<usize>, Vec<usize>) =
            ranked.into_iter().partition(|&i| self.health.is_healthy(i));
        healthy.into_iter().chain(ejected).collect()
    }

    /// Forward one request along the ranking until a node answers.
    fn proxy(&self, req: &HttpRequest) -> HttpResponse {
        let key = routing_key(req);
        let candidates = self.candidates(&key);
        if candidates.is_empty() {
            return HttpResponse::error(503, "no_nodes", "router has no nodes configured");
        }
        let attempts = candidates.len().min(self.config.retries + 1);
        let content_type = req.header("content-type");
        let mut last_status: Option<ClientResponse> = None;
        for (attempt, &node_index) in candidates.iter().take(attempts).enumerate() {
            if attempt > 0 {
                self.retries.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(self.config.retry_backoff * attempt as u32);
            }
            let node = &self.ring.nodes()[node_index];
            match self
                .client
                .request(node, &req.method, &req.target, content_type, &[], &req.body)
            {
                Ok(resp) if resp.status == 503 => {
                    // Overloaded or shedding: the next-ranked node may
                    // have room. Remember the answer in case no one does.
                    self.health.note_failure(node_index);
                    last_status = Some(resp);
                }
                Ok(resp) => {
                    self.health.note_success(node_index);
                    self.routed[node_index].fetch_add(1, Ordering::Relaxed);
                    return relay(resp);
                }
                Err(_) => {
                    self.proxy_errors.fetch_add(1, Ordering::Relaxed);
                    self.health.note_failure(node_index);
                }
            }
        }
        match last_status {
            Some(resp) => relay(resp),
            None => HttpResponse::error(
                502,
                "bad_gateway",
                format!("no node answered after {attempts} attempts"),
            ),
        }
    }

    fn render_metrics(&self) -> String {
        use crate::http::metrics::{family, labeled};
        let stats = self.stats();
        let mut out = String::new();
        let samples: Vec<(&str, &str, u64)> = self
            .ring
            .nodes()
            .iter()
            .zip(&stats.routed)
            .map(|(node, &count)| ("node", node.as_str(), count))
            .collect();
        labeled(
            &mut out,
            "schema_summary_router_routed_total",
            "counter",
            "Requests answered per node.",
            &samples,
        );
        family(
            &mut out,
            "schema_summary_router_retries_total",
            "counter",
            "Failover attempts past a failed or overloaded node.",
            stats.retries,
        );
        family(
            &mut out,
            "schema_summary_router_proxy_errors_total",
            "counter",
            "Proxied hops that ended in a transport error.",
            stats.proxy_errors,
        );
        family(
            &mut out,
            "schema_summary_router_nodes_healthy",
            "gauge",
            "Nodes currently passing health probes.",
            stats.nodes_healthy as u64,
        );
        family(
            &mut out,
            "schema_summary_router_nodes",
            "gauge",
            "Nodes configured in the rendezvous ring.",
            stats.nodes_total as u64,
        );
        family(
            &mut out,
            "schema_summary_router_ejections_total",
            "counter",
            "Nodes ejected after consecutive failures.",
            stats.ejections,
        );
        family(
            &mut out,
            "schema_summary_router_readmissions_total",
            "counter",
            "Ejected nodes re-admitted by a successful probe.",
            stats.readmissions,
        );
        family(
            &mut out,
            "schema_summary_router_http_accepted_total",
            "counter",
            "TCP connections accepted by the router.",
            stats.accepted,
        );
        family(
            &mut out,
            "schema_summary_router_http_served_total",
            "counter",
            "Requests answered by the router (any status).",
            stats.served,
        );
        family(
            &mut out,
            "schema_summary_router_http_shed_total",
            "counter",
            "Connections shed by the router's connection cap.",
            stats.shed,
        );
        out
    }
}

/// Map a node's response onto the client-facing response, preserving
/// status, body, and (known) content type.
fn relay(resp: ClientResponse) -> HttpResponse {
    let content_type: &'static str = match resp.content_type.as_str() {
        "application/json" => "application/json",
        "text/plain; charset=utf-8" => "text/plain; charset=utf-8",
        "text/markdown; charset=utf-8" => "text/markdown; charset=utf-8",
        _ => "application/octet-stream",
    };
    HttpResponse {
        status: resp.status,
        content_type,
        body: resp.body,
        close: false,
        allow: None,
    }
}

/// Extract the routing key: the schema identifier the request is about.
/// Requests that name nothing (e.g. a defaulted summary against a
/// single-schema deployment) key on the empty string, which still maps
/// them all to one consistent owner.
fn routing_key(req: &HttpRequest) -> String {
    let path = req.path();
    if let Some(target) = path.strip_prefix("/v1/export/") {
        return target.to_string();
    }
    if req.body.is_empty() {
        return String::new();
    }
    let Ok(text) = std::str::from_utf8(&req.body) else {
        return String::new();
    };
    let Ok(value) = serde_json::from_str::<serde_json::Value>(text) else {
        return String::new();
    };
    for field in ["schema", "fingerprint", "old"] {
        if let Some(s) = value.get(field).and_then(|v| v.as_str()) {
            return s.to_string();
        }
    }
    String::new()
}

impl Frontend for RouterInner {
    const ROLE: &'static str = "router";

    fn respond(&self, req: &HttpRequest) -> HttpResponse {
        let path = req.path();
        match (req.method.as_str(), path) {
            ("GET", "/healthz") => HttpResponse::text(
                200,
                format!(
                    "ok role=router nodes={} healthy={}\n",
                    self.ring.len(),
                    self.health.healthy_count()
                ),
            ),
            ("GET", "/metrics") => HttpResponse::text(200, self.render_metrics()),
            (_, "/healthz" | "/metrics") => {
                let mut resp = HttpResponse::error(
                    405,
                    "method_not_allowed",
                    format!("{} {path}", req.method),
                );
                resp.allow = Some("GET");
                resp
            }
            _ if path.starts_with("/v1/") || path.starts_with("/admin/") => self.proxy(req),
            _ => HttpResponse::error(404, "not_found", format!("no route for {path}")),
        }
    }
}

/// A running cluster router.
///
/// Bind with [`ClusterRouter::bind`], point clients at
/// [`ClusterRouter::local_addr`], stop with [`ClusterRouter::shutdown`]
/// (or drop).
pub struct ClusterRouter {
    listener: Listener<RouterInner>,
    // Declared after `listener`, so a dropped router stops the probe
    // thread only once every connection has been joined.
    probe: HealthProbe,
}

impl ClusterRouter {
    /// Bind `addr` and start routing over `config.nodes`.
    pub fn bind(addr: impl ToSocketAddrs, config: RouterConfig) -> std::io::Result<ClusterRouter> {
        if config.nodes.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "router needs at least one node",
            ));
        }
        let health = Arc::new(HealthState::new(
            config.nodes.clone(),
            config.probe.eject_after,
        ));
        let probe_config = config.probe.clone();
        let listener = Listener::bind(
            addr,
            config.max_connections,
            config.log_requests,
            |connections| RouterInner {
                client: NodeClient::new(config.request_timeout, config.request_timeout),
                ring: RendezvousRing::new(config.nodes.clone()),
                health: Arc::clone(&health),
                connections,
                routed: config.nodes.iter().map(|_| AtomicU64::new(0)).collect(),
                retries: AtomicU64::new(0),
                proxy_errors: AtomicU64::new(0),
                config,
            },
        )?;
        let probe = HealthProbe::start(health, probe_config);
        Ok(ClusterRouter { listener, probe })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr()
    }

    /// Current router counters.
    pub fn stats(&self) -> RouterStats {
        self.listener.frontend().stats()
    }

    /// The configured node list, in ring order.
    pub fn nodes(&self) -> &[String] {
        self.listener.frontend().ring.nodes()
    }

    /// Block on the accept loop (used by `schema-summary route`).
    pub fn wait(self) {
        self.listener.wait();
    }

    /// Graceful shutdown: stop accepting, drain connections, stop the
    /// probe. Returns the final counters.
    pub fn shutdown(mut self) -> RouterStats {
        self.listener.shutdown();
        drop(self.probe);
        self.listener.frontend().stats()
    }
}
