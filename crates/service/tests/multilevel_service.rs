//! Multi-level summaries and drill-down over the wire: a pipelined HTTP
//! session that builds a stack and expands its groups must return exactly
//! the levels `build_multi_level` produces, and once the stack is cached a
//! drill-down sequence never recomputes the all-pairs matrices.

mod common;

use common::Client;
use schema_summary_algo::multilevel::build_multi_level;
use schema_summary_algo::{Algorithm, Summarizer, SummarizerConfig};
use schema_summary_datasets::xmark;
use schema_summary_service::{
    ExpandResult, HttpConfig, HttpServer, MultiLevelResult, SummaryService,
};
use std::sync::Arc;
use std::time::Duration;

const SIZES: [usize; 3] = [12, 6, 3];

fn build_server() -> HttpServer {
    let service = SummaryService::default();
    let (g, s, _) = xmark::schema(1.0);
    service.register_named("xmark", Arc::new(g), Arc::new(s));
    HttpServer::bind(
        "127.0.0.1:0",
        Arc::new(service),
        HttpConfig {
            workers: 4,
            queue_capacity: 64,
            max_connections: 16,
            request_timeout: Duration::from_secs(60),
            ..HttpConfig::default()
        },
    )
    .unwrap()
}

fn levels_body() -> String {
    format!(
        "{{\"schema\":\"xmark\",\"levels\":[{},{},{}]}}",
        SIZES[0], SIZES[1], SIZES[2]
    )
}

fn expand_body(level: usize, group: usize) -> String {
    format!(
        "{{\"schema\":\"xmark\",\"levels\":[{},{},{}],\"expand\":{{\"level\":{level},\"group\":{group}}}}}",
        SIZES[0], SIZES[1], SIZES[2]
    )
}

#[test]
fn pipelined_drill_down_matches_direct_build_multi_level() {
    let server = build_server();
    let addr = server.local_addr();

    // One pipelined exploration session: build the stack, then drill into
    // every coarsest group, then open one finest group down to elements.
    let mut posts = vec![("/v1/levels", levels_body())];
    for group in 0..SIZES[2] {
        posts.push(("/v1/expand", expand_body(2, group)));
    }
    posts.push(("/v1/expand", expand_body(0, 0)));
    let replies = Client::connect(addr).pipeline(&posts);

    // The reference stack, computed directly from the algorithm crate.
    let (g, s, _) = xmark::schema(1.0);
    let mut facade = Summarizer::with_config(&g, &s, SummarizerConfig::default());
    let expected = facade.multi_level(&SIZES, Algorithm::Balance).unwrap();
    // Sanity-check the reference against a from-parts build so the wire
    // comparison really pins down the whole pipeline.
    let direct = {
        let selection = facade.select(SIZES[0], Algorithm::Balance).unwrap();
        build_multi_level(&g, facade.matrices(), &selection, &SIZES[1..]).unwrap()
    };
    assert_eq!(expected, direct);

    // Reply 0: the multi-level view mirrors the direct stack level by
    // level — sizes, group count, and each group's representative label.
    let view: MultiLevelResult = replies[0].json();
    assert_eq!(view.sizes, SIZES.to_vec());
    assert_eq!(view.levels.len(), expected.depth());
    for (wire_level, direct_level) in view.levels.iter().zip(expected.levels()) {
        assert_eq!(wire_level.size, direct_level.size());
        for (wire_group, direct_group) in wire_level.groups.iter().zip(direct_level.abstracts()) {
            assert_eq!(
                wire_group.representative,
                g.label_path(direct_group.representative)
            );
            assert_eq!(wire_group.size, direct_group.members.len());
        }
    }

    // Replies 1..=3: expanding the coarsest level partitions the middle
    // level — every middle-level group appears under exactly one parent.
    let mut seen_children = Vec::new();
    for reply in &replies[1..=SIZES[2]] {
        let exp: ExpandResult = reply.json();
        assert_eq!(exp.level, 2);
        assert!(exp.elements.is_empty());
        assert!(!exp.children.is_empty());
        seen_children.extend(exp.children.iter().map(|c| c.group));
    }
    seen_children.sort_unstable();
    assert_eq!(
        seen_children,
        (0..SIZES[1]).collect::<Vec<_>>(),
        "coarsest groups must partition the middle level"
    );

    // Last reply: a finest-level expansion lists raw schema elements.
    let leaf: ExpandResult = replies.last().unwrap().json();
    assert_eq!(leaf.level, 0);
    assert!(leaf.children.is_empty());
    assert!(!leaf.elements.is_empty());
    assert_eq!(
        leaf.elements.len(),
        expected.level(0).abstracts()[0].members.len()
    );

    // The whole session computed the matrices exactly once, and only the
    // first request ran an algorithm; every expand walked the cached stack.
    let stats = server.service().cache_stats();
    assert_eq!(stats.matrices_computed, 1);
    assert_eq!(stats.misses, 1);
    assert_eq!(stats.hits as usize, SIZES[2] + 1);
    server.shutdown();
}

#[test]
fn warm_expand_never_recomputes_matrices() {
    let server = build_server();
    let addr = server.local_addr();

    // Warm the stack.
    let warm = Client::connect(addr).post("/v1/levels", &levels_body());
    let _: MultiLevelResult = warm.json();
    let warm_stats = server.service().cache_stats();
    assert_eq!(warm_stats.matrices_computed, 1);
    assert_eq!(warm_stats.misses, 1);

    // A storm of concurrent drill-downs over every level and group.
    let handles: Vec<_> = (0..4)
        .map(|client| {
            std::thread::spawn(move || {
                let posts: Vec<(&str, String)> = (0..SIZES[2])
                    .map(|group| ("/v1/expand", expand_body(client % 3, group)))
                    .collect();
                for reply in Client::connect(addr).pipeline(&posts) {
                    let _: ExpandResult = reply.json();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client panicked");
    }

    // Every drill-down was served from the cached stack: no new matrix
    // computation, no new algorithm run.
    let stats = server.service().cache_stats();
    assert_eq!(
        stats.matrices_computed, 1,
        "warm expand recomputed matrices"
    );
    assert_eq!(stats.misses, 1, "warm expand recomputed a summary");
    assert_eq!(stats.hits, 4 * SIZES[2] as u64);

    // Malformed drill-downs fail cleanly without disturbing the cache.
    let bad = "{\"schema\":\"xmark\",\"expand\":{\"level\":0,\"group\":0}}";
    let reply = Client::connect(addr).post("/v1/expand", bad);
    assert_eq!(reply.status, 400, "expand without levels is rejected");
    assert_eq!(reply.error().kind, "bad_request");
    assert_eq!(server.service().cache_stats().misses, 1);
    server.shutdown();
}
