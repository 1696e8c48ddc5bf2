//! Loopback integration tests for the HTTP/1.1 front-end: routing,
//! framing limits, keep-alive reuse, the Prometheus metrics plane, and
//! the admin evict round-trip.

mod common;

use common::{assert_refuses_connections, build_service, Client};
use schema_summary_datasets::xmark;
use schema_summary_service::{HttpConfig, HttpServer, SummaryRequest, SummaryService};
use std::net::TcpStream;
use std::sync::{Arc, Barrier};
use std::time::Duration;

fn bind(config: HttpConfig) -> HttpServer {
    HttpServer::bind("127.0.0.1:0", build_service(), config).unwrap()
}

fn default_config() -> HttpConfig {
    HttpConfig {
        workers: 2,
        queue_capacity: 64,
        max_connections: 16,
        request_timeout: Duration::from_secs(60),
        log_requests: false,
        peers: Vec::new(),
    }
}

/// Pull one metric value out of a Prometheus text exposition.
fn metric(text: &str, name: &str) -> f64 {
    text.lines()
        .find(|l| l.starts_with(name) && l[name.len()..].starts_with(' '))
        .unwrap_or_else(|| panic!("metric {name} missing from:\n{text}"))
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap()
}

#[test]
fn routes_summary_levels_expand_export_health_on_one_connection() {
    let server = bind(default_config());
    let mut client = Client::connect(server.local_addr());

    // Flat summary: must match what the service answers directly.
    let reply = client.post("/v1/summary", "{\"schema\":\"xmark\",\"k\":3}");
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("content-type"), Some("application/json"));
    let request: SummaryRequest = serde_json::from_str("{\"schema\":\"xmark\",\"k\":3}").unwrap();
    let direct = server.service().handle(&request).unwrap();
    let expected = serde_json::to_string(direct.result.as_ref()).unwrap();
    assert_eq!(
        reply.text(),
        expected,
        "HTTP body must equal the service's own answer"
    );

    // Multi-level and drill-down ride the same connection.
    let reply = client.post("/v1/levels", "{\"schema\":\"xmark\",\"levels\":[6,3]}");
    assert_eq!(reply.status, 200);
    assert!(reply.text().contains("\"levels\""));
    let reply = client.post(
        "/v1/expand",
        "{\"schema\":\"xmark\",\"levels\":[6,3],\"expand\":{\"level\":1,\"group\":0}}",
    );
    assert_eq!(reply.status, 200);

    // Export: JSON by default, markdown on demand.
    let reply = client.get("/v1/export/xmark?k=3");
    assert_eq!(reply.status, 200);
    assert!(reply.text().contains("\"fingerprint\""));
    assert!(reply.text().contains("\"elements\""));
    let reply = client.get("/v1/export/xmark?k=3&format=md");
    assert_eq!(reply.status, 200);
    assert_eq!(
        reply.header("content-type"),
        Some("text/markdown; charset=utf-8")
    );
    assert!(reply.text().starts_with("# Schema summary"));

    // Health, unknown paths, wrong methods, bad shapes.
    let reply = client.get("/healthz");
    assert_eq!(
        (reply.status, reply.text()),
        (200, "ok role=node peers=0\n")
    );
    assert_eq!(client.get("/nope").status, 404);
    // Wrong method on a known path: 405 with an Allow header naming the
    // method that would have worked (RFC 9110 §10.2.1).
    let reply = client.get("/v1/summary");
    assert_eq!(reply.status, 405);
    assert_eq!(reply.header("allow"), Some("POST"));
    let reply = client.post("/metrics", "{}");
    assert_eq!(reply.status, 405);
    assert_eq!(reply.header("allow"), Some("GET"));
    let reply = client.post("/v1/export/xmark", "{}");
    assert_eq!(reply.status, 405);
    assert_eq!(reply.header("allow"), Some("GET"));
    assert!(client.get("/nope").header("allow").is_none());
    assert_eq!(
        client
            .post("/v1/summary", "{\"schema\":\"nope\",\"k\":3}")
            .status,
        404
    );
    assert_eq!(
        client
            .post(
                "/v1/summary",
                "{\"schema\":\"xmark\",\"k\":3,\"levels\":[4,2]}"
            )
            .status,
        400,
        "a flat request must not carry levels"
    );
    assert_eq!(
        client
            .post("/v1/levels", "{\"schema\":\"xmark\",\"k\":3}")
            .status,
        400
    );
    assert_eq!(client.post("/v1/summary", "not json").status, 400);

    let stats = server.shutdown();
    assert_eq!(stats.accepted, 1, "every request rode one connection");
    assert!(stats.served >= 12);
}

#[test]
fn keep_alive_reuses_the_connection_and_close_ends_it() {
    let server = bind(default_config());
    let mut client = Client::connect(server.local_addr());

    for _ in 0..3 {
        let reply = client.get("/healthz");
        assert_eq!(reply.status, 200);
        assert_eq!(reply.header("connection"), Some("keep-alive"));
    }
    assert_eq!(server.stats().accepted, 1);
    assert_eq!(server.stats().served, 3);

    // `Connection: close` is honored and the socket actually closes.
    let reply = client.request("GET", "/healthz", "Connection: close\r\n", None);
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("connection"), Some("close"));
    client.assert_eof();

    // HTTP/1.0 defaults to close.
    let mut old = Client::connect(server.local_addr());
    old.send_raw(b"GET /healthz HTTP/1.0\r\n\r\n");
    let reply = old.read_response();
    assert_eq!(reply.status, 200);
    assert_eq!(reply.header("connection"), Some("close"));
    old.assert_eof();

    server.shutdown();
}

#[test]
fn malformed_requests_get_400_and_a_terminal_close() {
    let server = bind(default_config());

    // Lowercase method: not a token this server admits.
    let mut client = Client::connect(server.local_addr());
    client.send_raw(b"get /healthz HTTP/1.1\r\n\r\n");
    let reply = client.read_response();
    assert_eq!(reply.status, 400);
    assert_eq!(reply.header("connection"), Some("close"));
    assert!(reply.text().contains("\"malformed\""));
    client.assert_eof();

    // Garbled request line.
    let mut client = Client::connect(server.local_addr());
    client.send_raw(b"GET\r\n\r\n");
    assert_eq!(client.read_response().status, 400);
    client.assert_eof();

    // Unsupported version.
    let mut client = Client::connect(server.local_addr());
    client.send_raw(b"GET / HTTP/2.0\r\n\r\n");
    assert_eq!(client.read_response().status, 505);
    client.assert_eof();

    server.shutdown();
}

#[test]
fn oversized_head_gets_431_and_oversized_body_413() {
    let server = bind(default_config());

    let mut client = Client::connect(server.local_addr());
    let huge = "x".repeat(9 * 1024);
    client.send_raw(format!("GET /healthz HTTP/1.1\r\nX-Padding: {huge}\r\n\r\n").as_bytes());
    let reply = client.read_response();
    assert_eq!(reply.status, 431);
    assert_eq!(reply.header("connection"), Some("close"));
    client.assert_eof();

    let mut client = Client::connect(server.local_addr());
    client.send_raw(b"POST /v1/summary HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n");
    let reply = client.read_response();
    assert_eq!(reply.status, 413);
    client.assert_eof();

    server.shutdown();
}

#[test]
fn chunked_bodies_are_decoded() {
    let server = bind(default_config());
    let mut client = Client::connect(server.local_addr());

    let body = "{\"schema\":\"tpch\",\"k\":2}";
    let raw = format!(
        "POST /v1/summary HTTP/1.1\r\nHost: test\r\nTransfer-Encoding: chunked\r\n\r\n{:x}\r\n{body}\r\n0\r\n\r\n",
        body.len()
    );
    client.send_raw(raw.as_bytes());
    let reply = client.read_response();
    assert_eq!(reply.status, 200);
    assert!(reply.text().contains("\"k\":2"));

    server.shutdown();
}

#[test]
fn connection_cap_sheds_with_a_503_and_closes() {
    let mut config = default_config();
    config.max_connections = 1;
    let server = bind(config);

    // One idle connection occupies the cap; the next gets a structured
    // 503 and EOF without ever sending a request.
    let _holder = TcpStream::connect(server.local_addr()).unwrap();
    std::thread::sleep(Duration::from_millis(50));
    let mut shed = Client::connect(server.local_addr());
    let reply = shed.read_response();
    assert_eq!(reply.status, 503);
    assert!(reply.text().contains("\"overloaded\""));
    shed.assert_eof();

    assert!(server.shutdown().shed >= 1);
}

#[test]
fn metrics_expose_cache_and_server_counters_after_a_cold_warm_pair() {
    let server = bind(default_config());
    let mut client = Client::connect(server.local_addr());

    let body = "{\"schema\":\"xmark\",\"k\":4}";
    assert_eq!(client.post("/v1/summary", body).status, 200); // cold
    assert_eq!(client.post("/v1/summary", body).status, 200); // warm

    let reply = client.get("/metrics");
    assert_eq!(reply.status, 200);
    let text = reply.text();
    assert!(text.contains("# TYPE schema_summary_cache_hits_total counter"));
    assert!(metric(text, "schema_summary_cache_hits_total") >= 1.0);
    assert!(metric(text, "schema_summary_cache_misses_total") >= 1.0);
    assert!(metric(text, "schema_summary_cache_entries") >= 1.0);
    assert_eq!(metric(text, "schema_summary_schemas"), 2.0);
    assert!(metric(text, "schema_summary_compute_micros_total") > 0.0);
    assert!(metric(text, "schema_summary_matrices_computed_total") >= 1.0);
    // The /metrics request itself is in flight: served counts the two
    // summaries, active is this connection.
    assert!(metric(text, "schema_summary_http_accepted_total") >= 1.0);
    assert!(metric(text, "schema_summary_http_served_total") >= 2.0);
    assert_eq!(metric(text, "schema_summary_http_active_connections"), 1.0);

    // Per-shard catalog occupancy: one labelled gauge sample per shard,
    // summing to the registered-schema gauge.
    assert!(text.contains("# TYPE schema_summary_catalog_shard_entries gauge"));
    let shard_sum = |name: &str| -> f64 {
        text.lines()
            .filter(|l| l.starts_with(&format!("{name}{{shard=\"")))
            .map(|l| l.rsplit(' ').next().unwrap().parse::<f64>().unwrap())
            .sum()
    };
    let catalog_shards = text
        .lines()
        .filter(|l| l.starts_with("schema_summary_catalog_shard_entries{shard=\""))
        .count();
    assert!(catalog_shards >= 1, "at least one catalog shard sample");
    assert_eq!(
        shard_sum("schema_summary_catalog_shard_entries"),
        metric(text, "schema_summary_schemas")
    );
    assert_eq!(
        shard_sum("schema_summary_result_shard_entries"),
        metric(text, "schema_summary_cache_entries")
    );

    // Cluster families exist (and are zero) on a single-node deployment.
    assert_eq!(metric(text, "schema_summary_catalog_rehydrated_total"), 0.0);
    assert_eq!(metric(text, "schema_summary_fanout_sent_total"), 0.0);
    assert_eq!(metric(text, "schema_summary_fanout_failed_total"), 0.0);

    server.shutdown();
}

#[test]
fn admin_evict_round_trip_forces_the_next_request_cold() {
    let server = bind(default_config());
    let mut client = Client::connect(server.local_addr());
    let body = "{\"schema\":\"xmark\",\"k\":5}";

    // Cold, then warm: one miss, one hit, one memoized matrix build.
    assert_eq!(client.post("/v1/summary", body).status, 200);
    assert_eq!(client.post("/v1/summary", body).status, 200);
    let before = server.service().cache_stats();
    assert_eq!((before.hits, before.misses), (1, 1));

    // The admin plane sees the resident entry.
    let reply = client.get("/admin/cache");
    assert_eq!(reply.status, 200);
    assert!(
        reply.text().contains("flat/balance/k=5"),
        "{}",
        reply.text()
    );

    // Evict by schema name; the reply names the fingerprint and count.
    let reply = client.post("/admin/evict", "{\"schema\":\"xmark\"}");
    assert_eq!(reply.status, 200);
    assert!(reply.text().contains("\"evicted\":1"), "{}", reply.text());
    let fingerprint = server.service().fingerprint_of("xmark").unwrap().to_hex();
    assert!(reply.text().contains(&fingerprint));

    // The same request is now a miss again — the cold path recomputes
    // the selection (compute time grows) but not the memoized matrices.
    assert_eq!(client.post("/v1/summary", body).status, 200);
    let after = server.service().cache_stats();
    assert_eq!(after.hits, before.hits, "no hit may be served post-evict");
    assert_eq!(after.misses, before.misses + 1, "evicted key must miss");
    assert!(
        after.compute_micros > before.compute_micros,
        "the selection must actually be recomputed"
    );
    assert_eq!(
        after.matrices_computed, before.matrices_computed,
        "eviction drops results, not memoized matrices"
    );
    assert_eq!(after.admin_evictions, 1);

    // Evicting garbage is a clean client error.
    assert_eq!(
        client
            .post("/admin/evict", "{\"fingerprint\":\"xyz\"}")
            .status,
        400
    );
    assert_eq!(
        client.post("/admin/evict", "{\"schema\":\"nope\"}").status,
        404
    );
    assert_eq!(client.post("/admin/evict", "{}").status, 400);

    server.shutdown();
}

/// Pull one labelled metric sample out of a Prometheus text exposition.
fn labeled_metric(text: &str, name: &str, label: &str, value: &str) -> f64 {
    let prefix = format!("{name}{{{label}=\"{value}\"}} ");
    text.lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("sample {prefix}missing from:\n{text}"))
        .rsplit(' ')
        .next()
        .unwrap()
        .parse()
        .unwrap()
}

#[test]
fn admin_refresh_routes_deltas_and_drop_accounting_reconciles() {
    let server = bind(default_config());
    let mut client = Client::connect(server.local_addr());
    let body = "{\"schema\":\"xmark\",\"k\":5}";
    assert_eq!(client.post("/v1/summary", body).status, 200);

    // Register the same schema with doubled cardinalities under a second
    // name: a genuine delta that leaves every RC bit-identical, so the
    // refresh rides the warm pure-rescale path (zero rows re-explored).
    let (xg, xs, _) = xmark::schema(1.0);
    let scaled = Arc::new(xs.scaled(2.0));
    server
        .service()
        .register_named("xmark-v2", Arc::new(xg), scaled);

    // Diff the two registered versions through the admin plane.
    let reply = client.post("/admin/refresh", "{\"old\":\"xmark\",\"new\":\"xmark-v2\"}");
    assert_eq!(reply.status, 200);
    assert!(reply.text().contains("\"empty\":false"), "{}", reply.text());
    assert!(
        reply.text().contains("\"class\":\"rescale\""),
        "{}",
        reply.text()
    );
    assert!(reply.text().contains("\"warm\":true"), "{}", reply.text());
    assert!(
        reply.text().contains("\"rows_recomputed\":0"),
        "{}",
        reply.text()
    );

    // Malformed and unknown operands are clean client errors; the wrong
    // method is 405, not 404.
    assert_eq!(client.post("/admin/refresh", "{}").status, 400);
    assert_eq!(
        client
            .post("/admin/refresh", "{\"old\":\"nope\",\"new\":\"xmark-v2\"}")
            .status,
        404
    );
    assert_eq!(client.get("/admin/refresh").status, 405);

    // The delta counters are exposed, and every dropped result is
    // accounted under exactly one cause: the labelled family sums to the
    // three cause counters.
    let text_reply = client.get("/metrics");
    let text = text_reply.text();
    assert_eq!(
        metric(text, "schema_summary_delta_fallback_cold_total"),
        0.0
    );
    assert!(metric(text, "schema_summary_delta_refreshes_total") >= 1.0);
    // The class-labelled family reconciles: the three warm classes sum
    // to the refresh total, and this rescale landed under `rescale`.
    let by_class = |class: &str| {
        labeled_metric(
            text,
            "schema_summary_delta_refreshes_by_class_total",
            "class",
            class,
        )
    };
    assert_eq!(by_class("rescale"), 1.0);
    assert_eq!(by_class("cold"), 0.0);
    assert_eq!(
        by_class("rescale") + by_class("splice") + by_class("structural"),
        metric(text, "schema_summary_delta_refreshes_total")
    );
    let by_cause =
        |cause: &str| labeled_metric(text, "schema_summary_results_dropped_total", "cause", cause);
    assert_eq!(
        by_cause("capacity"),
        metric(text, "schema_summary_cache_evictions_total")
    );
    assert_eq!(
        by_cause("invalidation"),
        metric(text, "schema_summary_cache_invalidations_total")
    );
    assert_eq!(
        by_cause("admin"),
        metric(text, "schema_summary_cache_admin_evictions_total")
    );
    assert!(
        by_cause("invalidation") >= 1.0,
        "the refresh dropped a result"
    );

    server.shutdown();
}

#[test]
fn admin_refresh_splices_structural_growth_and_labels_the_class() {
    use schema_summary_core::stats::LinkCount;
    use schema_summary_core::{SchemaGraph, SchemaGraphBuilder, SchemaStats, SchemaType};
    use schema_summary_service::ServiceConfig;

    // A tiny site schema, optionally grown in place by appending a
    // `wishlist` set under `person` — an additive structural delta.
    fn site(grown: bool) -> (Arc<SchemaGraph>, Arc<SchemaStats>) {
        let mut b = SchemaGraphBuilder::new("site");
        let people = b.add_child(b.root(), "people", SchemaType::rcd()).unwrap();
        let person = b
            .add_child(people, "person", SchemaType::set_of_rcd())
            .unwrap();
        b.add_child(person, "name", SchemaType::simple_str())
            .unwrap();
        if grown {
            b.add_child(person, "wishlist", SchemaType::set_of_rcd())
                .unwrap();
        }
        let g = b.build().unwrap();
        let find = |l: &str| g.find_unique(l).unwrap();
        let mut cards = vec![1u64; g.len()];
        cards[find("person").index()] = 200;
        cards[find("name").index()] = 200;
        let mut links = vec![
            LinkCount {
                from: g.root(),
                to: find("people"),
                count: 1,
            },
            LinkCount {
                from: find("people"),
                to: find("person"),
                count: 200,
            },
            LinkCount {
                from: find("person"),
                to: find("name"),
                count: 200,
            },
        ];
        if grown {
            cards[find("wishlist").index()] = 300;
            links.push(LinkCount {
                from: find("person"),
                to: find("wishlist"),
                count: 300,
            });
        }
        let s = SchemaStats::from_link_counts(&g, &cards, &links).unwrap();
        (Arc::new(g), Arc::new(s))
    }

    // The tiny graph is well inside any BFS horizon, so open the
    // fraction guard for the warm path to accept the grown footprint.
    let service = Arc::new(SummaryService::new(ServiceConfig {
        delta_max_fraction: 1.0,
        ..Default::default()
    }));
    let (g, s) = site(false);
    service.register_named("site", g, s);
    let (g2, s2) = site(true);
    let new_fp = service.register(g2, s2);
    let server = HttpServer::bind("127.0.0.1:0", Arc::clone(&service), default_config()).unwrap();
    let mut client = Client::connect(server.local_addr());

    // Warm the old fingerprint so there are matrices to splice and a
    // cached result to re-derive.
    assert_eq!(
        client
            .post("/v1/summary", "{\"schema\":\"site\",\"k\":2}")
            .status,
        200
    );

    let body = format!("{{\"old\":\"site\",\"new\":\"{}\"}}", new_fp.to_hex());
    let reply = client.post("/admin/refresh", &body);
    assert_eq!(reply.status, 200);
    assert!(
        reply.text().contains("\"class\":\"additive_structural\""),
        "{}",
        reply.text()
    );
    assert!(reply.text().contains("\"warm\":true"), "{}", reply.text());

    let stats = service.cache_stats();
    assert_eq!(stats.delta_refreshes_structural, 1);
    assert_eq!(stats.delta_fallback_cold, 0);
    assert_eq!(
        stats.importance_seeded, 1,
        "the grown fixpoint restarts from the rebased seed"
    );

    let text_reply = client.get("/metrics");
    let text = text_reply.text();
    let by_class = |class: &str| {
        labeled_metric(
            text,
            "schema_summary_delta_refreshes_by_class_total",
            "class",
            class,
        )
    };
    assert_eq!(by_class("structural"), 1.0);
    assert_eq!(by_class("cold"), 0.0);
    assert_eq!(
        by_class("rescale") + by_class("splice") + by_class("structural"),
        metric(text, "schema_summary_delta_refreshes_total")
    );

    server.shutdown();
}

#[test]
fn graceful_shutdown_answers_buffered_requests_and_refuses_new_ones() {
    let server = bind(default_config());
    let addr = server.local_addr();
    let mut client = Client::connect(addr);
    client.send_raw(
        b"POST /v1/summary HTTP/1.1\r\nHost: t\r\nContent-Length: 23\r\n\r\n{\"schema\":\"tpch\",\"k\":3}",
    );
    // Give the connection thread time to buffer the request, then shut
    // down: the answer must still go out.
    std::thread::sleep(Duration::from_millis(100));
    let shutdown = std::thread::spawn(move || server.shutdown());
    let reply = client.read_response();
    assert_eq!(reply.status, 200);
    let stats = shutdown.join().unwrap();
    assert_eq!(stats.active_connections, 0);
    assert_refuses_connections(addr);
}

/// One worker, a one-deep queue: an export is a summary computation, so
/// it waits for the pool like the summary routes, and past the budget
/// it answers `504` while the worker finishes it.
fn starved_config(request_timeout: Duration) -> HttpConfig {
    HttpConfig {
        workers: 1,
        queue_capacity: 1,
        max_connections: 64,
        request_timeout,
        ..default_config()
    }
}

#[test]
fn cold_export_past_the_budget_answers_504() {
    let server = bind(starved_config(Duration::from_millis(1)));
    let mut client = Client::connect(server.local_addr());

    let reply = client.get("/v1/export/xmark?algorithm=coverage&k=5");
    assert_eq!(reply.status, 504, "{}", reply.text());
    assert_eq!(reply.error().kind, "timeout");
    assert!(server.stats().timed_out >= 1);

    // The worker kept computing and warmed the cache, so a retry
    // eventually answers within the same budget.
    let served = (0..100).any(|_| {
        std::thread::sleep(Duration::from_millis(50));
        client.get("/v1/export/xmark?algorithm=coverage&k=5").status == 200
    });
    assert!(served, "the timed-out export must finish and serve warm");
    server.shutdown();
}

#[test]
fn concurrent_cold_exports_beyond_the_queue_are_shed_with_503() {
    let server = bind(starved_config(Duration::from_secs(60)));
    let addr = server.local_addr();

    // Distinct k per client: distinct cache keys, so single-flight cannot
    // collapse them, and the barrier sends them all at once.
    const CLIENTS: usize = 16;
    let start = Arc::new(Barrier::new(CLIENTS));
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let start = Arc::clone(&start);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                start.wait();
                let reply = client.get(&format!("/v1/export/xmark?algorithm=coverage&k={}", c + 1));
                match reply.status {
                    200 => false,
                    503 => {
                        assert_eq!(reply.error().kind, "overloaded");
                        true
                    }
                    other => panic!("unexpected {other}: {}", reply.text()),
                }
            })
        })
        .collect();
    let shed_replies = handles
        .into_iter()
        .map(|h| h.join().expect("client panicked"))
        .filter(|&was_shed| was_shed)
        .count();

    let stats = server.shutdown();
    assert!(
        shed_replies >= 1 && stats.shed as usize == shed_replies,
        "{CLIENTS} simultaneous cold exports through a 1-deep queue must shed \
         (clients saw {shed_replies}, server counted {})",
        stats.shed
    );
}
