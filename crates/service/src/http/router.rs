//! Request routing: maps `(method, path)` onto the service, the
//! observability plane, and the admin plane.
//!
//! | route | handler |
//! |---|---|
//! | `POST /v1/summary` | flat summary (resident inline, else the worker pool) |
//! | `POST /v1/levels` | multi-level summary (resident inline, else the worker pool) |
//! | `POST /v1/expand` | drill-down (resident inline, else the worker pool) |
//! | `GET /v1/export/:schema` | condensed summary export (JSON/markdown) via the worker pool |
//! | `GET /metrics` | Prometheus text exposition |
//! | `GET /healthz` | liveness probe |
//! | `GET /admin/cache` | resident cache entries + stats |
//! | `POST /admin/evict` | drop one fingerprint's cached results |
//! | `POST /admin/refresh` | diff two schemas, refresh warm where possible |
//!
//! A summary request whose result is resident in memory is answered on
//! the connection thread that parsed it
//! ([`SummaryService::handle_resident`]). Such an answer is never shed
//! (`503`) or timed out (`504`); the connection cap bounds that work.
//! Everything else — a miss, a disk rehydration, a wait on another
//! request's computation, and every export — computes through the node's
//! one pooled hook ([`Node::execute`]) as before: `503` when the queue is
//! full, `504` past the per-request budget. Inspection endpoints answer
//! inline — they read counters, not matrices — and so do the admin
//! mutations.

use crate::http::fanout::{Fanout, FANOUT_HEADER};
use crate::http::request::HttpRequest;
use crate::http::response::HttpResponse;
use crate::http::server::Node;
use crate::service::{ServedReply, SummaryRequest, SummaryService};
use crate::signals::node_page;
use schema_summary_algo::Algorithm;
use schema_summary_core::SchemaFingerprint;

/// Re-broadcast a locally applied admin mutation to the peers — unless
/// this request *was* a broadcast (the marker header stops loops) or
/// the local application failed (propagating a rejected mutation would
/// desynchronize peers from their own error handling).
fn propagate(node: &Node, req: &HttpRequest, response: &HttpResponse) {
    if response.status == 200 && req.header(FANOUT_HEADER).is_none() {
        if let Some(fanout) = &node.fanout {
            fanout.broadcast(req.path(), &req.body);
        }
    }
}

pub(crate) fn reply_json(reply: &ServedReply) -> String {
    match reply {
        ServedReply::Flat(flat) => {
            serde_json::to_string(flat.result.as_ref()).expect("result serializes")
        }
        ServedReply::MultiLevel(ml) => {
            serde_json::to_string(&ml.result.view).expect("view serializes")
        }
        ServedReply::Expansion(exp) => {
            serde_json::to_string(&exp.result).expect("expansion serializes")
        }
    }
}

/// Decode a JSON body (strictly UTF-8) into a request type.
fn decode_body<T: serde::Deserialize>(body: &[u8], what: &str) -> Result<T, HttpResponse> {
    let text = std::str::from_utf8(body)
        .map_err(|_| HttpResponse::error(400, "malformed", format!("{what} is not UTF-8")))?;
    serde_json::from_str(text)
        .map_err(|e| HttpResponse::error(400, "malformed", format!("{what}: {e}")))
}

/// Decode and shape-check the body of one of the three summary routes.
fn summary_body(path: &str, body: &[u8]) -> Result<SummaryRequest, HttpResponse> {
    let request: SummaryRequest = decode_body(body, "body is not a summary request")?;
    let shape_error = match path {
        "/v1/summary" if request.levels.is_some() || request.expand.is_some() => {
            Some("a flat summary request must not carry levels or expand")
        }
        "/v1/levels" if request.levels.is_none() => Some("a levels request must carry levels"),
        "/v1/levels" if request.expand.is_some() => {
            Some("a levels request must not carry expand (use /v1/expand)")
        }
        "/v1/expand" if request.levels.is_none() || request.expand.is_none() => {
            Some("an expand request must carry both levels and expand")
        }
        _ => None,
    };
    match shape_error {
        Some(msg) => Err(HttpResponse::error(400, "bad_request", msg)),
        None => Ok(request),
    }
}

/// Resolve an export target: a 32-hex-digit fingerprint, or a registered
/// schema name.
fn resolve_export_target(
    service: &SummaryService,
    target: &str,
) -> Result<SchemaFingerprint, HttpResponse> {
    if let Some(fp) = SchemaFingerprint::from_hex(target) {
        return Ok(fp);
    }
    service.fingerprint_of(target).ok_or_else(|| {
        HttpResponse::error(
            404,
            "unknown_schema",
            format!("unknown schema or fingerprint '{target}'"),
        )
    })
}

fn query_params(query: Option<&str>) -> Vec<(String, String)> {
    query
        .unwrap_or("")
        .split('&')
        .filter(|p| !p.is_empty())
        .map(|p| match p.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (p.to_string(), String::new()),
        })
        .collect()
}

fn export(node: &Node, req: &HttpRequest) -> HttpResponse {
    let target = req.path().trim_start_matches("/v1/export/");
    if target.is_empty() || target.contains('/') {
        return HttpResponse::error(404, "not_found", "export target missing");
    }
    let fingerprint = match resolve_export_target(&node.service, target) {
        Ok(fp) => fp,
        Err(resp) => return resp,
    };
    let params = query_params(req.query());
    let get = |name: &str| {
        params
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    };
    let algorithm: Algorithm = match get("algorithm").unwrap_or("balance").parse() {
        Ok(a) => a,
        Err(e) => return HttpResponse::error(400, "bad_request", e),
    };
    let k: usize = match get("k").unwrap_or("5").parse() {
        Ok(k) => k,
        Err(_) => return HttpResponse::error(400, "bad_request", "k must be a positive integer"),
    };
    let markdown = match get("format").unwrap_or("json") {
        "json" => false,
        "markdown" | "md" => true,
        other => {
            return HttpResponse::error(400, "bad_request", format!("unknown format '{other}'"))
        }
    };
    let export =
        match node.execute(move |service| service.export_summary(fingerprint, algorithm, k)) {
            Ok(export) => export,
            Err(resp) => return resp,
        };
    if markdown {
        let mut resp = HttpResponse::text(200, export.to_markdown());
        resp.content_type = "text/markdown; charset=utf-8";
        resp
    } else {
        HttpResponse::json(200, export.to_json())
    }
}

fn admin_cache(service: &SummaryService) -> HttpResponse {
    #[derive(serde::Serialize)]
    struct AdminCacheView {
        stats: crate::service::CacheStats,
        entries: Vec<crate::service::CacheEntryInfo>,
    }
    let view = AdminCacheView {
        stats: service.cache_stats(),
        entries: service.cached_entries(),
    };
    HttpResponse::json(
        200,
        serde_json::to_string(&view).expect("cache view serializes"),
    )
}

fn admin_evict(service: &SummaryService, body: &[u8]) -> HttpResponse {
    #[derive(serde::Deserialize)]
    struct EvictRequest {
        fingerprint: Option<String>,
        schema: Option<String>,
    }
    let request: EvictRequest = match decode_body(body, "body is not an evict request") {
        Ok(r) => r,
        Err(resp) => return resp,
    };
    let fingerprint = match (&request.fingerprint, &request.schema) {
        (Some(hex), _) => match SchemaFingerprint::from_hex(hex) {
            Some(fp) => fp,
            None => {
                return HttpResponse::error(400, "bad_request", "fingerprint is not 32 hex digits")
            }
        },
        (None, Some(name)) => match service.fingerprint_of(name) {
            Some(fp) => fp,
            None => {
                return HttpResponse::error(
                    404,
                    "unknown_schema",
                    format!("unknown schema '{name}'"),
                )
            }
        },
        (None, None) => {
            return HttpResponse::error(400, "bad_request", "name a fingerprint or a schema")
        }
    };
    let evicted = service.evict_fingerprint(fingerprint);
    #[derive(serde::Serialize)]
    struct EvictReply {
        fingerprint: String,
        evicted: usize,
    }
    let reply = EvictReply {
        fingerprint: fingerprint.to_hex(),
        evicted,
    };
    HttpResponse::json(
        200,
        serde_json::to_string(&reply).expect("evict reply serializes"),
    )
}

/// Resolve a refresh operand: a 32-hex-digit fingerprint, or a
/// registered schema name.
fn resolve_refresh_target(
    service: &SummaryService,
    target: &str,
    role: &str,
) -> Result<SchemaFingerprint, HttpResponse> {
    if let Some(fp) = SchemaFingerprint::from_hex(target) {
        return Ok(fp);
    }
    service.fingerprint_of(target).ok_or_else(|| {
        HttpResponse::error(
            404,
            "unknown_schema",
            format!("unknown {role} schema or fingerprint '{target}'"),
        )
    })
}

fn admin_refresh(service: &SummaryService, body: &[u8]) -> HttpResponse {
    #[derive(serde::Deserialize)]
    struct RefreshRequest {
        old: Option<String>,
        new: Option<String>,
    }
    let request: RefreshRequest = match decode_body(body, "body is not a refresh request") {
        Ok(r) => r,
        Err(resp) => return resp,
    };
    let (Some(old), Some(new)) = (&request.old, &request.new) else {
        return HttpResponse::error(400, "bad_request", "name both old and new schemas");
    };
    let old_fp = match resolve_refresh_target(service, old, "old") {
        Ok(fp) => fp,
        Err(resp) => return resp,
    };
    let new_fp = match resolve_refresh_target(service, new, "new") {
        Ok(fp) => fp,
        Err(resp) => return resp,
    };
    let (delta, outcome) = match service.refresh_between(old_fp, new_fp) {
        Ok(refreshed) => refreshed,
        Err(e) => return HttpResponse::service_error(&e),
    };
    #[derive(serde::Serialize)]
    struct RefreshReply {
        old: String,
        new: String,
        empty: bool,
        /// The diff classification (`rescale`, `edge_touch`,
        /// `additive_structural`, `destructive`) — what the warm path
        /// was *asked* to do; `warm` says whether it succeeded.
        class: String,
        warm: bool,
        rows_recomputed: u64,
    }
    let reply = RefreshReply {
        old: old_fp.to_hex(),
        new: new_fp.to_hex(),
        empty: delta.is_empty(),
        class: delta.class.as_str().to_string(),
        warm: outcome.warm,
        rows_recomputed: outcome.rows_recomputed,
    };
    HttpResponse::json(
        200,
        serde_json::to_string(&reply).expect("refresh reply serializes"),
    )
}

/// Route one parsed request.
pub(crate) fn route(node: &Node, req: &HttpRequest) -> HttpResponse {
    let path = req.path();
    match (req.method.as_str(), path) {
        ("POST", "/v1/summary" | "/v1/levels" | "/v1/expand") => {
            // A result resident in memory is answered here, on the
            // connection thread; everything else computes on the pool.
            let reply = summary_body(path, &req.body).and_then(|request| {
                match node.service.handle_resident(&request) {
                    Some(resident) => resident.map_err(|e| HttpResponse::service_error(&e)),
                    None => node.execute(move |service| service.handle_request(&request)),
                }
            });
            match reply {
                Ok(reply) => HttpResponse::json(200, reply_json(&reply)),
                Err(resp) => resp,
            }
        }
        ("GET", "/healthz") => HttpResponse::text(
            200,
            format!(
                "ok role=node peers={}\n",
                node.fanout.as_ref().map_or(0, Fanout::peer_count)
            ),
        ),
        ("GET", "/metrics") => HttpResponse::text(
            200,
            node_page(
                &node.service.cache_stats(),
                &node.service.catalog_stats(),
                &node.stats(),
            ),
        ),
        ("GET", p) if p.starts_with("/v1/export/") => export(node, req),
        ("GET", "/admin/cache") => admin_cache(&node.service),
        ("POST", "/admin/evict") => {
            let response = admin_evict(&node.service, &req.body);
            propagate(node, req, &response);
            response
        }
        ("POST", "/admin/refresh") => {
            let response = admin_refresh(&node.service, &req.body);
            propagate(node, req, &response);
            response
        }
        // Known paths with the wrong method are 405 with an `Allow`
        // header naming the method that would work; everything else 404.
        (_, "/v1/summary" | "/v1/levels" | "/v1/expand" | "/admin/evict" | "/admin/refresh") => {
            method_not_allowed(req, "POST")
        }
        (_, "/healthz" | "/metrics" | "/admin/cache") => method_not_allowed(req, "GET"),
        (m, p) if p.starts_with("/v1/export/") && m != "GET" => method_not_allowed(req, "GET"),
        _ => HttpResponse::error(404, "not_found", format!("no route for {path}")),
    }
}

/// A `405` naming the method the path supports, per RFC 9110 §10.2.1.
fn method_not_allowed(req: &HttpRequest, allow: &'static str) -> HttpResponse {
    let mut resp = HttpResponse::error(
        405,
        "method_not_allowed",
        format!("{} {}", req.method, req.path()),
    );
    resp.allow = Some(allow);
    resp
}
