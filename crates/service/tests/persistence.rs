//! The disk tier's contract, end to end: everything a service spills under
//! `store_dir` rehydrates into an equal artifact in a fresh process-worth
//! of state (a new `SummaryService` over the same directory), and a
//! damaged store degrades to recomputation — never to a wrong answer or a
//! crash.

use proptest::prelude::*;
use schema_summary_algo::Algorithm;
use schema_summary_datasets::xmark;
use schema_summary_service::{ServiceConfig, SummaryService};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A fresh, empty directory under the system temp dir, unique per call so
/// parallel tests never share a store.
fn fresh_store_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "schema-summary-persistence-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn service_over(dir: &std::path::Path) -> SummaryService {
    SummaryService::try_new(ServiceConfig {
        store_dir: Some(dir.to_path_buf()),
        ..Default::default()
    })
    .expect("temp store dir opens")
}

fn algorithm_from(index: u8) -> Algorithm {
    match index % 3 {
        0 => Algorithm::MaxImportance,
        1 => Algorithm::MaxCoverage,
        _ => Algorithm::Balance,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Round trip: any flat summary computed into the disk tier is
    /// answered by a restarted service from rehydrated bytes — equal
    /// result, zero algorithm runs, zero matrix computations.
    #[test]
    fn flat_results_rehydrate_equal_without_recomputing(
        alg_index in 0u8..3, k in 2usize..12,
    ) {
        let (graph, stats, _) = xmark::schema(0.25);
        let (graph, stats) = (Arc::new(graph), Arc::new(stats));
        let algorithm = algorithm_from(alg_index);
        let dir = fresh_store_dir("flat");

        let first = service_over(&dir);
        let fp = first.register(Arc::clone(&graph), Arc::clone(&stats));
        let cold = first.summarize(fp, algorithm, k).unwrap();
        prop_assert!(!cold.from_cache);
        first.flush_store();
        prop_assert!(first.cache_stats().disk_writes >= 1);
        drop(first);

        let second = service_over(&dir);
        let fp2 = second.register(Arc::clone(&graph), Arc::clone(&stats));
        prop_assert_eq!(fp2, fp);
        let warm = second.summarize(fp, algorithm, k).unwrap();
        prop_assert!(warm.from_cache, "restart must answer from the disk tier");
        prop_assert_eq!(&*warm.result, &*cold.result);

        let stats_after = second.cache_stats();
        prop_assert_eq!(stats_after.misses, 0);
        prop_assert_eq!(stats_after.disk_hits, 1);
        prop_assert_eq!(stats_after.matrices_computed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Round trip for whole drill-down stacks: the rehydrated
    /// `MultiLevelArtifact` (summary levels, parent maps, and wire view)
    /// compares equal to the one originally computed.
    #[test]
    fn multilevel_stacks_rehydrate_equal_without_recomputing(
        alg_index in 0u8..3, coarse in 2usize..5,
    ) {
        let (graph, stats, _) = xmark::schema(0.25);
        let (graph, stats) = (Arc::new(graph), Arc::new(stats));
        let algorithm = algorithm_from(alg_index);
        let sizes = [coarse * 3, coarse];
        let dir = fresh_store_dir("mls");

        let first = service_over(&dir);
        let fp = first.register(Arc::clone(&graph), Arc::clone(&stats));
        let cold = first.multi_level(fp, algorithm, &sizes).unwrap();
        prop_assert!(!cold.from_cache);
        drop(first);

        let second = service_over(&dir);
        second.register(Arc::clone(&graph), Arc::clone(&stats));
        let warm = second.multi_level(fp, algorithm, &sizes).unwrap();
        prop_assert!(warm.from_cache);
        prop_assert_eq!(&*warm.result, &*cold.result);
        prop_assert_eq!(second.cache_stats().matrices_computed, 0);

        // Drill-down over the rehydrated stack works and stays warm.
        let exp = second.expand(fp, algorithm, &sizes, 1, 0).unwrap();
        prop_assert!(exp.from_cache);
        prop_assert_eq!(second.cache_stats().matrices_computed, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A store whose files were truncated or replaced with garbage answers
/// every request by recomputing — same results, a logged-and-counted
/// corruption, no panic.
#[test]
fn corrupt_store_files_degrade_to_recompute() {
    let (graph, stats, _) = xmark::schema(0.25);
    let (graph, stats) = (Arc::new(graph), Arc::new(stats));
    let dir = fresh_store_dir("corrupt");

    let first = service_over(&dir);
    let fp = first.register(Arc::clone(&graph), Arc::clone(&stats));
    let cold = first.summarize(fp, Algorithm::Balance, 8).unwrap();
    drop(first);

    // Damage every spilled artifact: truncate one, fill the rest with
    // garbage that still carries a plausible length.
    let mut damaged = 0usize;
    for (i, entry) in std::fs::read_dir(&dir).unwrap().enumerate() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|e| e == "art") {
            if i % 2 == 0 {
                let bytes = std::fs::read(&path).unwrap();
                std::fs::write(&path, &bytes[..bytes.len() / 3]).unwrap();
            } else {
                std::fs::write(&path, b"not an artifact at all").unwrap();
            }
            damaged += 1;
        }
    }
    assert!(
        damaged >= 2,
        "expected matrices + result spills, saw {damaged}"
    );

    let second = service_over(&dir);
    second.register(Arc::clone(&graph), Arc::clone(&stats));
    let recomputed = second.summarize(fp, Algorithm::Balance, 8).unwrap();
    assert!(
        !recomputed.from_cache,
        "corrupt files must not count as hits"
    );
    assert_eq!(*recomputed.result, *cold.result);

    let after = second.cache_stats();
    assert_eq!(after.misses, 1);
    assert_eq!(after.disk_hits, 0);
    assert!(after.disk_corrupt >= 1, "corruption must be counted");
    assert_eq!(
        after.matrices_computed, 1,
        "matrices recomputed from scratch"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Invalidation purges every tier: after a schema delta evicts a
/// fingerprint, its spilled artifacts are gone from disk too —
/// `disk_bytes` drops and no stale file can rehydrate under a dead
/// fingerprint.
#[test]
fn invalidation_purges_the_disk_tier() {
    let (graph, stats, _) = xmark::schema(0.25);
    let (graph, stats) = (Arc::new(graph), Arc::new(stats));
    let dir = fresh_store_dir("purge");

    let service = service_over(&dir);
    let name = "xmark";
    let fp = service.register_named(name, Arc::clone(&graph), Arc::clone(&stats));
    service.summarize(fp, Algorithm::Balance, 8).unwrap();
    service
        .multi_level(fp, Algorithm::Balance, &[6, 3])
        .unwrap();
    service.flush_store();
    let before = service.cache_stats();
    assert!(before.disk_bytes > 0, "artifacts must have spilled");
    assert!(before.disk_writes >= 3, "matrices + two results spill");

    // Swapping in schema-driven statistics moves every RC, so the plan
    // wants every row — an oversized delta: the refresh falls back cold
    // and must drop the old fingerprint from memory AND disk.
    let uniform = Arc::new(schema_summary_core::SchemaStats::uniform(&graph));
    let delta = service
        .update_named(name, Arc::clone(&graph), uniform)
        .unwrap();
    assert!(!delta.is_empty());

    service.flush_store();
    let after = service.cache_stats();
    assert_eq!(after.entries, 0, "in-memory results must be gone");
    assert!(
        after.disk_bytes < before.disk_bytes,
        "disk_bytes must drop on invalidation ({} -> {})",
        before.disk_bytes,
        after.disk_bytes
    );
    assert_eq!(
        after.disk_bytes, 0,
        "the only spilled fingerprint was purged"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The restart acceptance bar: a restarted server over the same store
/// answers the first repeated request without recomputing anything —
/// no algorithm run, no matrix computation.
#[test]
fn restarted_service_answers_first_request_from_the_store() {
    let (graph, stats, _) = xmark::schema(1.0);
    let (graph, stats) = (Arc::new(graph), Arc::new(stats));
    let dir = fresh_store_dir("restart");

    let first = service_over(&dir);
    let fp = first.register(Arc::clone(&graph), Arc::clone(&stats));
    let flat = first.summarize(fp, Algorithm::Balance, 10).unwrap();
    let ml = first
        .multi_level(fp, Algorithm::Balance, &[12, 6, 3])
        .unwrap();
    assert_eq!(first.cache_stats().matrices_computed, 1);
    drop(first);

    let second = service_over(&dir);
    second.register(Arc::clone(&graph), Arc::clone(&stats));
    let warm_flat = second.summarize(fp, Algorithm::Balance, 10).unwrap();
    let warm_ml = second
        .multi_level(fp, Algorithm::Balance, &[12, 6, 3])
        .unwrap();
    assert!(warm_flat.from_cache && warm_ml.from_cache);
    assert_eq!(*warm_flat.result, *flat.result);
    assert_eq!(*warm_ml.result, *ml.result);

    let after = second.cache_stats();
    assert_eq!(after.misses, 0, "nothing may be recomputed after restart");
    assert_eq!(after.matrices_computed, 0);
    assert_eq!(after.disk_hits, 2);
    let _ = std::fs::remove_dir_all(&dir);
}
