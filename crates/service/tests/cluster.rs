//! Cluster-tier integration tests: rendezvous routing through a real
//! `ClusterRouter` over two live node processes-worth of state, failover
//! when the owner dies, catalog rehydration after a node restart, and
//! cross-node invalidation fan-out with loop prevention.

mod common;

use common::{build_service, Client};
use proptest::prelude::*;
use schema_summary_algo::Algorithm;
use schema_summary_datasets::{tpch, xmark};
use schema_summary_service::{
    ClusterRouter, HttpConfig, HttpServer, ProbeConfig, RendezvousRing, RouterConfig,
    ServiceConfig, SummaryService,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

// ------------------------------------------------------------ test plumbing

/// A fresh, empty directory under the system temp dir, unique per call.
fn fresh_store_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "schema-summary-cluster-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn node_config() -> HttpConfig {
    HttpConfig {
        workers: 2,
        queue_capacity: 64,
        max_connections: 16,
        request_timeout: Duration::from_secs(60),
        log_requests: false,
        peers: Vec::new(),
    }
}

/// Bind a node on an ephemeral port, returning the server and its
/// `host:port` address string (the ring's node identity).
fn bind_node(service: Arc<SummaryService>, config: HttpConfig) -> (HttpServer, String) {
    let server = HttpServer::bind("127.0.0.1:0", service, config).unwrap();
    let addr = server.local_addr().to_string();
    (server, addr)
}

fn router_over(nodes: Vec<String>) -> ClusterRouter {
    ClusterRouter::bind(
        "127.0.0.1:0",
        RouterConfig {
            nodes,
            retries: 2,
            retry_backoff: Duration::from_millis(5),
            request_timeout: Duration::from_secs(10),
            probe: ProbeConfig {
                interval: Duration::from_millis(50),
                eject_after: 3,
                timeout: Duration::from_millis(250),
            },
            ..Default::default()
        },
    )
    .unwrap()
}

// -------------------------------------------------- rendezvous properties

/// Rank a ring by node *name* so rankings over different configuration
/// orders (hence different indices) compare directly.
fn rank_names(ring: &RendezvousRing, key: &str) -> Vec<String> {
    ring.rank(key)
        .into_iter()
        .map(|i| ring.nodes()[i].clone())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// HRW's minimal-disruption contract, both halves: removing a node
    /// that does not own a key leaves the key's owner untouched, and
    /// removing the owner re-homes the key to exactly the old
    /// second-ranked node. Nothing else in the ranking moves either way.
    #[test]
    fn removing_a_node_rehomes_only_the_keys_it_owned(
        node_count in 3usize..=6, subnet in 0usize..64, key_seed in 0u64..1_000_000,
    ) {
        let nodes: Vec<String> = (0..node_count)
            .map(|i| format!("10.0.{subnet}.{i}:7000"))
            .collect();
        let full = RendezvousRing::new(nodes.clone());
        let keys: Vec<String> = (0..10).map(|j| format!("schema-{key_seed}-{j}")).collect();

        for removed in 0..node_count {
            let survivors: Vec<String> = nodes
                .iter()
                .enumerate()
                .filter(|(i, _)| *i != removed)
                .map(|(_, n)| n.clone())
                .collect();
            let shrunk = RendezvousRing::new(survivors);
            for key in &keys {
                let before = rank_names(&full, key);
                let after = rank_names(&shrunk, key);
                // The survivor ranking is the old ranking with the
                // removed node deleted — per-pair score independence.
                let expected: Vec<String> = before
                    .iter()
                    .filter(|n| **n != nodes[removed])
                    .cloned()
                    .collect();
                prop_assert_eq!(&after, &expected, "key {}", key);
                if before[0] == nodes[removed] {
                    // Owner removed: the old runner-up takes over.
                    prop_assert_eq!(&after[0], &before[1], "key {}", key);
                } else {
                    // Non-owner removed: ownership does not move.
                    prop_assert_eq!(&after[0], &before[0], "key {}", key);
                }
            }
        }
    }

    /// The ranking is a pure function of the node-name set: any
    /// configuration order — as two independently started routers would
    /// have — yields the same by-name ranking for every key.
    #[test]
    fn ranking_is_deterministic_across_configurations(
        node_count in 2usize..=6, rotation in 1usize..6, key_seed in 0u64..1_000_000,
    ) {
        let nodes: Vec<String> = (0..node_count)
            .map(|i| format!("node-{i}.cluster:7000"))
            .collect();
        let mut rotated = nodes.clone();
        rotated.rotate_left(rotation % node_count);
        let a = RendezvousRing::new(nodes);
        let b = RendezvousRing::new(rotated);
        for j in 0..10 {
            let key = format!("schema-{key_seed}-{j}");
            prop_assert_eq!(rank_names(&a, &key), rank_names(&b, &key), "key {}", key);
        }
    }
}

// --------------------------------------------------- router over live nodes

/// Every request carrying a schema identifier lands on that identifier's
/// rendezvous owner, visible in the router's per-node counters.
#[test]
fn requests_land_on_the_rendezvous_owner() {
    let (node_a, addr_a) = bind_node(build_service(), node_config());
    let (node_b, addr_b) = bind_node(build_service(), node_config());
    let nodes = vec![addr_a, addr_b];
    let ring = RendezvousRing::new(nodes.clone());
    let router = router_over(nodes);
    let mut client = Client::connect(router.local_addr());

    let health = client.get("/healthz");
    assert_eq!(health.status, 200);
    assert_eq!(health.text(), "ok role=router nodes=2 healthy=2\n");

    let mut expected = vec![0u64; 2];
    for (key, repeats) in [("xmark", 3u64), ("tpch", 2u64)] {
        let owner = ring.owner(key).unwrap();
        expected[owner] += repeats + 1;
        for _ in 0..repeats {
            let body = format!("{{\"schema\":\"{key}\",\"k\":3}}");
            assert_eq!(client.post("/v1/summary", &body).status, 200, "key {key}");
        }
        // Export keys on the path segment, not the body.
        assert_eq!(client.get(&format!("/v1/export/{key}?k=3")).status, 200);
    }

    let stats = router.stats();
    assert_eq!(stats.routed, expected, "per-node routed counters");
    assert_eq!(stats.retries, 0);
    assert_eq!(stats.proxy_errors, 0);

    // The router's own metrics plane exposes the same counters.
    let metrics = client.get("/metrics");
    assert_eq!(metrics.status, 200);
    let text = metrics.text();
    for (node, count) in router.nodes().iter().zip(&expected) {
        let line = format!("schema_summary_router_routed_total{{node=\"{node}\"}} {count}");
        assert!(text.contains(&line), "missing {line} in:\n{text}");
    }

    // Each node really served its routed share (health probes add
    // `/healthz` hits on top, so this is a floor, not an equality).
    assert!(node_a.stats().served >= expected[0]);
    assert!(node_b.stats().served >= expected[1]);
    router.shutdown();
    node_a.shutdown();
    node_b.shutdown();
}

/// Killing the owner node yields zero client-visible 5xx: the router
/// retries onto the next-ranked survivor, which answers.
#[test]
fn killing_the_owner_fails_over_without_client_visible_errors() {
    let (node_a, addr_a) = bind_node(build_service(), node_config());
    let (node_b, addr_b) = bind_node(build_service(), node_config());
    let nodes = vec![addr_a, addr_b];
    let ring = RendezvousRing::new(nodes.clone());
    let router = router_over(nodes);
    let mut client = Client::connect(router.local_addr());

    let owner = ring.owner("xmark").unwrap();
    let survivor = 1 - owner;
    let body = "{\"schema\":\"xmark\",\"k\":3}";
    assert_eq!(client.post("/v1/summary", body).status, 200);
    assert_eq!(router.stats().routed[owner], 1);

    // Kill the owner. Both nodes carry the catalog, so the survivor can
    // answer anything the owner could.
    let mut servers = [Some(node_a), Some(node_b)];
    servers[owner].take().unwrap().shutdown();

    for _ in 0..3 {
        let resp = client.post("/v1/summary", body);
        assert_eq!(resp.status, 200, "failover must hide the dead owner");
    }
    let stats = router.stats();
    assert!(stats.retries >= 1, "failover goes through the retry path");
    assert!(stats.proxy_errors >= 1, "the dead owner shows as an error");
    assert_eq!(stats.routed[survivor], 3);

    router.shutdown();
    servers[survivor].take().unwrap().shutdown();
}

/// A request the router cannot parse gets the status a node would give
/// it, with `Connection: close`: both run the same connection layer.
#[test]
fn router_maps_unparseable_requests_like_a_node() {
    let (node, addr) = bind_node(build_service(), node_config());
    let router = router_over(vec![addr]);
    let padding = "x".repeat(9 * 1024);
    let cases: [(String, u16, &str); 3] = [
        (
            format!("GET /healthz HTTP/1.1\r\nX-Padding: {padding}\r\n\r\n"),
            431,
            "headers_too_large",
        ),
        (
            "POST /v1/summary HTTP/1.1\r\nContent-Length: 2000000\r\n\r\n".to_string(),
            413,
            "body_too_large",
        ),
        (
            "GET /healthz HTTP/2.0\r\n\r\n".to_string(),
            505,
            "unsupported_version",
        ),
    ];
    for (raw, status, kind) in cases {
        let mut client = Client::connect(router.local_addr());
        client.send_raw(raw.as_bytes());
        let reply = client.read_response();
        assert_eq!(reply.status, status, "{}", reply.text());
        assert_eq!(reply.error().kind, kind);
        assert_eq!(reply.header("connection"), Some("close"));
        client.assert_eof();
    }
    let stats = router.shutdown();
    assert_eq!(stats.served, 3);
    assert_eq!(stats.routed, vec![0]);
    node.shutdown();
}

// ----------------------------------------------------- catalog persistence

/// A restarted node rehydrates its registered schema graphs from the
/// catalog journal and serves them with no re-registration.
#[test]
fn restarted_node_serves_schemas_from_the_rehydrated_catalog() {
    let dir = fresh_store_dir("rehydrate");
    let (graph, stats, _) = xmark::schema(1.0);
    let (graph, stats) = (Arc::new(graph), Arc::new(stats));

    let first = SummaryService::try_new(ServiceConfig {
        store_dir: Some(dir.clone()),
        ..Default::default()
    })
    .unwrap();
    let fp = first.register_named("xmark", Arc::clone(&graph), Arc::clone(&stats));
    assert_eq!(first.cache_stats().catalog_rehydrated, 0);
    drop(first);

    // "Restart": a fresh service over the same directory, no register.
    let second = SummaryService::try_new(ServiceConfig {
        store_dir: Some(dir.clone()),
        ..Default::default()
    })
    .unwrap();
    assert_eq!(second.cache_stats().catalog_rehydrated, 1);
    assert_eq!(second.fingerprint_of("xmark"), Some(fp));
    let reply = second.summarize(fp, Algorithm::Balance, 5).unwrap();
    assert!(!reply.result.selection.is_empty());

    // And over HTTP: the restarted node answers by name.
    let server = HttpServer::bind("127.0.0.1:0", Arc::new(second), node_config()).unwrap();
    let mut client = Client::connect(server.local_addr());
    assert_eq!(client.get("/v1/export/xmark?k=3").status, 200);
    assert_eq!(
        client
            .post("/v1/summary", "{\"schema\":\"xmark\",\"k\":3}")
            .status,
        200
    );
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Registering the same named schema again after a rehydrating restart
/// is a no-op for the journal: replay stays bounded instead of growing
/// by one record per restart.
#[test]
fn reregistration_after_rehydration_does_not_regrow_the_journal() {
    let dir = fresh_store_dir("dedupe");
    let (graph, stats, _) = tpch::schema(1.0);
    let (graph, stats) = (Arc::new(graph), Arc::new(stats));

    let first = SummaryService::try_new(ServiceConfig {
        store_dir: Some(dir.clone()),
        ..Default::default()
    })
    .unwrap();
    first.register_named("tpch", Arc::clone(&graph), Arc::clone(&stats));
    drop(first);
    let journal = dir.join("catalog.journal");
    let bytes_after_first = std::fs::metadata(&journal).unwrap().len();

    for _ in 0..3 {
        let service = SummaryService::try_new(ServiceConfig {
            store_dir: Some(dir.clone()),
            ..Default::default()
        })
        .unwrap();
        // The idiomatic node startup: register what you serve. Already
        // journaled, so the journal must not grow.
        service.register_named("tpch", Arc::clone(&graph), Arc::clone(&stats));
        drop(service);
    }
    assert_eq!(
        std::fs::metadata(&journal).unwrap().len(),
        bytes_after_first
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ------------------------------------------------- cross-node invalidation

/// Admin mutations applied on one node fan out to its peers, marked
/// requests do not re-propagate (loop prevention), and a peer that does
/// not know the schema still counts as delivered (idempotent target).
#[test]
fn admin_mutations_fan_out_to_peers_without_looping() {
    // B is a plain node; A lists B as a peer. Only A knows "tpch".
    let service_b = Arc::new({
        let s = SummaryService::default();
        let (xg, xs, _) = xmark::schema(1.0);
        s.register_named("xmark", Arc::new(xg), Arc::new(xs));
        s
    });
    let (node_b, addr_b) = bind_node(Arc::clone(&service_b), node_config());
    let service_a = build_service();
    let mut config_a = node_config();
    config_a.peers = vec![format!("http://{addr_b}")];
    let (node_a, _) = bind_node(Arc::clone(&service_a), config_a);

    let mut to_a = Client::connect(node_a.local_addr());
    let mut to_b = Client::connect(node_b.local_addr());
    assert_eq!(to_a.get("/healthz").text(), "ok role=node peers=1\n");
    assert_eq!(to_b.get("/healthz").text(), "ok role=node peers=0\n");

    // Warm both caches for xmark.
    let body = "{\"schema\":\"xmark\",\"k\":3}";
    assert_eq!(to_a.post("/v1/summary", body).status, 200);
    assert_eq!(to_b.post("/v1/summary", body).status, 200);
    assert_eq!(service_b.cached_entries().len(), 1);

    // Evict via A: both nodes drop the entry before the 200 returns
    // (fan-out is synchronous with the admin request).
    let evict = "{\"schema\":\"xmark\"}";
    assert_eq!(to_a.post("/admin/evict", evict).status, 200);
    assert_eq!(service_a.cached_entries().len(), 0);
    assert_eq!(service_b.cached_entries().len(), 0);
    assert_eq!(node_a.stats().fanout_sent, 1);
    assert_eq!(node_a.stats().fanout_failed, 0);
    assert_eq!(node_b.stats().fanout_sent, 0, "B has no peers to tell");

    // A marked request applies locally but must not re-propagate: that
    // is what keeps two nodes peered at each other from ping-ponging.
    assert_eq!(to_a.post("/v1/summary", body).status, 200);
    assert_eq!(to_b.post("/v1/summary", body).status, 200);
    let marked = to_a.request(
        "POST",
        "/admin/evict",
        "X-Schema-Summary-Fanout: 1\r\n",
        Some(evict),
    );
    assert_eq!(marked.status, 200);
    assert_eq!(service_a.cached_entries().len(), 0, "applied locally");
    assert_eq!(service_b.cached_entries().len(), 1, "not re-propagated");
    assert_eq!(node_a.stats().fanout_sent, 1, "no new broadcast");

    // A schema only A knows: B answers 404, which counts as delivered —
    // the mutation is moot there, not lost.
    assert_eq!(
        to_a.post("/admin/evict", "{\"schema\":\"tpch\"}").status,
        200
    );
    assert_eq!(node_a.stats().fanout_sent, 2);
    assert_eq!(node_a.stats().fanout_failed, 0);

    // A failed local mutation never propagates.
    assert_eq!(
        to_a.post("/admin/evict", "{\"schema\":\"nope\"}").status,
        404
    );
    assert_eq!(node_a.stats().fanout_sent, 2);

    node_a.shutdown();
    node_b.shutdown();
}
