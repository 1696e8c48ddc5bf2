//! Loopback tests of the HTTP front-end under concurrency: pipelined
//! keep-alive clients, load shedding, per-request timeouts, the
//! connection cap, and graceful shutdown.

mod common;

use common::{assert_refuses_connections, build_service, Client};
use schema_summary_service::{HttpConfig, HttpServer, ServedReply, SummaryRequest, SummaryResult};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

fn bind(
    workers: usize,
    queue_capacity: usize,
    max_connections: usize,
    timeout: Duration,
) -> HttpServer {
    HttpServer::bind(
        "127.0.0.1:0",
        build_service(),
        HttpConfig {
            workers,
            queue_capacity,
            max_connections,
            request_timeout: timeout,
            ..HttpConfig::default()
        },
    )
    .unwrap()
}

/// The exploration session every client pipelines: flat summaries under
/// every algorithm on both schemas, then a level stack and a drill-down.
fn session() -> Vec<(&'static str, String)> {
    let mut posts: Vec<(&'static str, String)> = (1..=4)
        .map(|k| {
            (
                "/v1/summary",
                format!("{{\"schema\":\"xmark\",\"algorithm\":\"balance\",\"k\":{k}}}"),
            )
        })
        .collect();
    posts.extend([
        (
            "/v1/summary",
            "{\"schema\":\"xmark\",\"algorithm\":\"importance\",\"k\":3}".to_string(),
        ),
        (
            "/v1/summary",
            "{\"schema\":\"tpch\",\"algorithm\":\"coverage\",\"k\":3}".to_string(),
        ),
        ("/v1/summary", "{\"schema\":\"tpch\",\"k\":2}".to_string()),
        (
            "/v1/levels",
            "{\"schema\":\"xmark\",\"levels\":[6,3]}".to_string(),
        ),
        (
            "/v1/expand",
            "{\"schema\":\"xmark\",\"levels\":[6,3],\"expand\":{\"level\":1,\"group\":0}}"
                .to_string(),
        ),
    ]);
    posts
}

/// One cold request: the summary status and the error kind, if any.
fn summary_status(addr: SocketAddr, body: &str) -> (u16, Option<String>) {
    let reply = Client::connect(addr).post("/v1/summary", body);
    let kind = (reply.status != 200).then(|| reply.error().kind);
    (reply.status, kind)
}

/// What a single-threaded service answers for `session()`, in the exact
/// bytes the server puts in each reply body.
fn expected_bodies() -> Vec<Vec<u8>> {
    let reference = build_service();
    session()
        .iter()
        .map(|(_, body)| {
            let request: SummaryRequest = serde_json::from_str(body).unwrap();
            let json = match reference.handle_request(&request).unwrap() {
                ServedReply::Flat(flat) => serde_json::to_string(flat.result.as_ref()),
                ServedReply::MultiLevel(ml) => serde_json::to_string(&ml.result.view),
                ServedReply::Expansion(exp) => serde_json::to_string(&exp.result),
            };
            json.unwrap().into_bytes()
        })
        .collect()
}

#[test]
fn concurrent_pipelined_clients_match_single_threaded_answers() {
    let expected = Arc::new(expected_bodies());

    // One sequential client on its own server gets exactly those bodies,
    // request by request.
    let reference = bind(1, 64, 4, Duration::from_secs(60));
    let mut sequential = Client::connect(reference.local_addr());
    for ((path, body), want) in session().iter().zip(expected.iter()) {
        let reply = sequential.post(path, body);
        assert_eq!(reply.status, 200, "{}", reply.text());
        assert_eq!(
            &reply.body, want,
            "sequential reply to {path} must be byte-identical to the single-threaded service"
        );
    }
    reference.shutdown();

    let server = bind(4, 256, 32, Duration::from_secs(60));
    let addr = server.local_addr();
    const CLIENTS: usize = 10;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let replies = Client::connect(addr).pipeline(&session());
                let bodies: Vec<Vec<u8>> = replies.into_iter().map(|r| r.body).collect();
                assert_eq!(
                    bodies, *expected,
                    "pipelined replies must be byte-identical to the single-threaded service"
                );
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client panicked");
    }

    let stats = server.shutdown();
    assert_eq!(stats.accepted, CLIENTS as u64);
    assert_eq!(stats.served, (CLIENTS * expected.len()) as u64);
    assert_eq!(stats.shed, 0);
    assert_eq!(stats.timed_out, 0);
    assert_eq!(stats.active_connections, 0);
}

#[test]
fn queue_overflow_sheds_with_structured_overloaded_error() {
    // One worker, queue bound 1: simultaneous cold requests on distinct
    // keys cannot all be buffered — the excess must be answered with a
    // `503 overloaded`, keeping server memory bounded.
    let server = bind(1, 1, 64, Duration::from_secs(60));
    let addr = server.local_addr();

    const CLIENTS: usize = 16;
    let handles: Vec<_> = (0..CLIENTS)
        .map(|c| {
            std::thread::spawn(move || {
                // Distinct k per client: distinct cache keys, so
                // single-flight cannot collapse the stampede.
                let body = format!(
                    "{{\"schema\":\"xmark\",\"algorithm\":\"coverage\",\"k\":{}}}",
                    c + 1
                );
                match summary_status(addr, &body) {
                    (200, _) => false,
                    (503, Some(kind)) if kind == "overloaded" => true,
                    other => panic!("reply must be 200 or 503 overloaded, got {other:?}"),
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
        "16 simultaneous cold requests through a 1-deep queue must shed \
         (clients saw {shed_replies}, server counted {})",
        stats.shed
    );
    assert_eq!(stats.accepted, CLIENTS as u64);
}

#[test]
fn slow_request_trips_the_timeout_and_later_completes_from_cache() {
    // Far below any cold computation: the first attempt must time out
    // while the worker keeps computing and warms the cache.
    let server = bind(1, 16, 8, Duration::from_millis(1));
    let addr = server.local_addr();

    let body = "{\"schema\":\"xmark\",\"algorithm\":\"coverage\",\"k\":5}";
    assert_eq!(
        summary_status(addr, body),
        (504, Some("timeout".to_string())),
        "a cold request must exceed a 1ms budget"
    );
    assert!(server.stats().timed_out >= 1);

    // The computation was not abandoned: it finishes on the worker and
    // lands in the cache, so a retry eventually answers within the same
    // 1ms budget.
    let mut served = None;
    for _ in 0..100 {
        std::thread::sleep(Duration::from_millis(50));
        let reply = Client::connect(addr).post("/v1/summary", body);
        if reply.status == 200 {
            served = Some(reply);
            break;
        }
    }
    let reply = served.expect("timed-out computation must eventually serve from cache");
    let result: SummaryResult = reply.json();
    assert_eq!(result.k, 5);
    server.shutdown();
}

#[test]
fn connection_cap_sheds_with_structured_error() {
    let server = bind(1, 4, 2, Duration::from_secs(10));
    let addr = server.local_addr();

    // Two idle connections occupy the cap (accepted in connect order).
    let _c1 = TcpStream::connect(addr).unwrap();
    let _c2 = TcpStream::connect(addr).unwrap();
    let mut c3 = Client::connect(addr);
    let reply = c3.read_response();
    assert_eq!(reply.status, 503, "third connection must be shed");
    assert_eq!(reply.error().kind, "overloaded");
    assert_eq!(reply.header("connection"), Some("close"));
    // The capped connection is closed after the error.
    c3.assert_eof();

    let stats = server.shutdown();
    assert!(stats.shed >= 1);
    assert_eq!(stats.active_connections, 0);
}

#[test]
fn graceful_shutdown_drains_inflight_requests_and_joins() {
    let server = bind(2, 16, 8, Duration::from_secs(60));
    let addr = server.local_addr();

    // A client with a slow cold request in flight when shutdown begins.
    let mut client = Client::connect(addr);
    let body = "{\"schema\":\"xmark\",\"algorithm\":\"coverage\",\"k\":6}";
    client.send_raw(
        format!(
            "POST /v1/summary HTTP/1.1\r\nHost: t\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    );
    // Give the connection thread time to read the request; shutdown must
    // then wait for the answer to go out rather than cutting it off.
    std::thread::sleep(Duration::from_millis(100));

    let shutdown = std::thread::spawn(move || server.shutdown());
    let reply = client.read_response();
    assert_eq!(
        reply.status,
        200,
        "in-flight request must be answered during graceful shutdown: {}",
        reply.text()
    );
    let result: SummaryResult = reply.json();
    assert_eq!(result.k, 6);

    let stats = shutdown.join().expect("shutdown panicked");
    assert_eq!(stats.served, 1);
    assert_eq!(stats.active_connections, 0);
    assert_refuses_connections(addr);
}
