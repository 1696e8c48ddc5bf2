//! Concurrency guarantees: N threads issuing mixed summarize requests
//! against one service instance get results identical to a single-threaded
//! run, and the cache counters account for every request.

use schema_summary_algo::Algorithm;
use schema_summary_datasets::{tpch, xmark};
use schema_summary_service::{ServiceConfig, SummaryService};
use std::sync::Arc;

const ALGORITHMS: [Algorithm; 3] = [
    Algorithm::MaxImportance,
    Algorithm::MaxCoverage,
    Algorithm::Balance,
];

fn build_service() -> (SummaryService, Vec<schema_summary_core::SchemaFingerprint>) {
    let service = SummaryService::default();
    let (xg, xs, _) = xmark::schema(1.0);
    let (tg, ts, _) = tpch::schema(1.0);
    let fps = vec![
        service.register_named("xmark", Arc::new(xg), Arc::new(xs)),
        service.register_named("tpch", Arc::new(tg), Arc::new(ts)),
    ];
    (service, fps)
}

#[test]
fn concurrent_mixed_requests_match_single_threaded() {
    let (reference, fps) = build_service();

    // The full mixed workload: every (schema, algorithm, k) combination.
    let requests: Vec<(schema_summary_core::SchemaFingerprint, Algorithm, usize)> = fps
        .iter()
        .flat_map(|&fp| {
            ALGORITHMS
                .iter()
                .flat_map(move |&alg| (1..=6).map(move |k| (fp, alg, k)))
        })
        .collect();

    // Single-threaded reference answers.
    let expected: Vec<Vec<schema_summary_core::ElementId>> = requests
        .iter()
        .map(|&(fp, alg, k)| {
            reference
                .summarize(fp, alg, k)
                .unwrap()
                .result
                .selection
                .clone()
        })
        .collect();

    // Fresh service, hammered by N threads, each running the whole
    // workload rotated to a different starting offset so cold computations
    // race on every key.
    let (service, _) = build_service();
    let service = Arc::new(service);
    let requests = Arc::new(requests);
    let expected = Arc::new(expected);
    const THREADS: usize = 8;
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let service = Arc::clone(&service);
            let requests = Arc::clone(&requests);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                let n = requests.len();
                for i in 0..n {
                    let idx = (i + t * n / THREADS) % n;
                    let (fp, alg, k) = requests[idx];
                    let served = service.summarize(fp, alg, k).unwrap();
                    assert_eq!(
                        served.result.selection, expected[idx],
                        "thread {t}: {alg:?} k={k} diverged from single-threaded run"
                    );
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker panicked");
    }

    let stats = service.cache_stats();
    let total = (THREADS * requests.len()) as u64;
    // Every request is either a hit or a miss — nothing lost, nothing
    // double-counted.
    assert_eq!(stats.hits + stats.misses, total);
    // Single-flight: each distinct key is computed exactly once, no
    // matter how many threads race on it cold.
    assert_eq!(stats.misses, requests.len() as u64);
    // Capacity (default 1024) is far above the working set: no evictions,
    // and every distinct key stays resident.
    assert_eq!(stats.evictions, 0);
    assert_eq!(stats.entries, requests.len() as u64);
    assert_eq!(stats.schemas, 2);
}

#[test]
fn identical_cold_requests_are_computed_exactly_once() {
    // N threads released simultaneously onto the same cold key: the
    // single-flight leader computes, everyone else waits and shares the
    // answer — exactly one miss, N-1 hits, one shared allocation.
    let (service, fps) = build_service();
    let service = Arc::new(service);
    let fp = fps[0];
    const THREADS: usize = 8;
    let barrier = Arc::new(std::sync::Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let service = Arc::clone(&service);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                service.summarize(fp, Algorithm::Balance, 4).unwrap().result
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
    for r in &results[1..] {
        assert!(Arc::ptr_eq(&results[0], r), "all threads share one result");
    }
    let stats = service.cache_stats();
    assert_eq!(stats.misses, 1, "stampede: cold key computed more than once");
    assert_eq!(stats.hits, (THREADS - 1) as u64);
    assert_eq!(stats.entries, 1);
}

#[test]
fn concurrent_requests_under_eviction_pressure_stay_correct() {
    // A cache that can hold almost nothing still must serve correct
    // answers — only slower.
    let (reference, fps) = build_service();
    let requests: Vec<(schema_summary_core::SchemaFingerprint, Algorithm, usize)> = fps
        .iter()
        .flat_map(|&fp| (1..=5).map(move |k| (fp, Algorithm::Balance, k)))
        .collect();
    let expected: Vec<_> = requests
        .iter()
        .map(|&(fp, alg, k)| {
            reference
                .summarize(fp, alg, k)
                .unwrap()
                .result
                .selection
                .clone()
        })
        .collect();

    let service = SummaryService::new(ServiceConfig {
        cache_capacity: 2,
        cache_shards: 1,
        ..Default::default()
    });
    let (xg, xs, _) = xmark::schema(1.0);
    let (tg, ts, _) = tpch::schema(1.0);
    service.register_named("xmark", Arc::new(xg), Arc::new(xs));
    service.register_named("tpch", Arc::new(tg), Arc::new(ts));

    let service = Arc::new(service);
    let requests = Arc::new(requests);
    let expected = Arc::new(expected);
    let handles: Vec<_> = (0..4)
        .map(|t| {
            let service = Arc::clone(&service);
            let requests = Arc::clone(&requests);
            let expected = Arc::clone(&expected);
            std::thread::spawn(move || {
                for round in 0..3 {
                    for (idx, &(fp, alg, k)) in requests.iter().enumerate() {
                        let served = service.summarize(fp, alg, k).unwrap();
                        assert_eq!(
                            served.result.selection, expected[idx],
                            "thread {t} round {round}: {alg:?} k={k}"
                        );
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("worker panicked");
    }
    let stats = service.cache_stats();
    assert_eq!(stats.hits + stats.misses, (4 * 3 * 10) as u64);
    assert!(stats.evictions > 0, "capacity 2 must evict under 10 keys");
    assert!(stats.entries <= 2);
}
