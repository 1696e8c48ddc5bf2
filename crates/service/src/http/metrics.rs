//! Prometheus text exposition (`GET /metrics`).
//!
//! Version 0.0.4 text format: `# HELP` / `# TYPE` preamble per family,
//! one sample per line. Counter families end in `_total`; point-in-time
//! values are gauges. Per-shard occupancy is labelled
//! `{shard="<index>"}`.

use crate::http::HttpServerStats;
use crate::service::{CacheStats, CatalogStats};
use std::fmt::Write as _;

pub(crate) fn family(out: &mut String, name: &str, kind: &str, help: &str, value: u64) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    let _ = writeln!(out, "{name} {value}");
}

pub(crate) fn labeled(
    out: &mut String,
    name: &str,
    kind: &str,
    help: &str,
    samples: &[(&str, &str, u64)],
) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    for (label, value, sample) in samples {
        let _ = writeln!(out, "{name}{{{label}=\"{value}\"}} {sample}");
    }
}

fn sharded(out: &mut String, name: &str, help: &str, entries: &[usize]) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} gauge");
    for (shard, len) in entries.iter().enumerate() {
        let _ = writeln!(out, "{name}{{shard=\"{shard}\"}} {len}");
    }
}

/// Render every counter the service exposes as one Prometheus text page.
pub(crate) fn render(cache: &CacheStats, catalog: &CatalogStats, http: &HttpServerStats) -> String {
    let mut out = String::new();

    // Result-cache tiers.
    family(
        &mut out,
        "schema_summary_cache_hits_total",
        "counter",
        "Requests answered from the in-memory result cache.",
        cache.hits,
    );
    family(
        &mut out,
        "schema_summary_cache_misses_total",
        "counter",
        "Requests that ran a summarization algorithm.",
        cache.misses,
    );
    family(
        &mut out,
        "schema_summary_cache_disk_hits_total",
        "counter",
        "Requests answered by rehydrating a spilled result.",
        cache.disk_hits,
    );
    family(
        &mut out,
        "schema_summary_cache_evictions_total",
        "counter",
        "Entries displaced by LRU capacity pressure.",
        cache.evictions,
    );
    family(
        &mut out,
        "schema_summary_cache_invalidations_total",
        "counter",
        "Entries dropped by delta-driven invalidation.",
        cache.invalidations,
    );
    family(
        &mut out,
        "schema_summary_cache_admin_evictions_total",
        "counter",
        "Entries dropped through the admin evict endpoint.",
        cache.admin_evictions,
    );
    // Drop-accounting reconciliation: every cached result that leaves the
    // in-memory tier is counted exactly once under its cause, so the sum
    // of this family equals evictions + invalidations + admin_evictions.
    labeled(
        &mut out,
        "schema_summary_results_dropped_total",
        "counter",
        "Cached results dropped from the in-memory tier, by cause.",
        &[
            ("cause", "capacity", cache.evictions),
            ("cause", "invalidation", cache.invalidations),
            ("cause", "admin", cache.admin_evictions),
        ],
    );
    family(
        &mut out,
        "schema_summary_cache_entries",
        "gauge",
        "Results currently cached in memory.",
        cache.entries as u64,
    );
    family(
        &mut out,
        "schema_summary_schemas",
        "gauge",
        "Schemas currently registered in the catalog.",
        cache.schemas as u64,
    );

    // Compute accounting.
    family(
        &mut out,
        "schema_summary_compute_micros_total",
        "counter",
        "Wall time spent computing cold results, microseconds.",
        cache.compute_micros,
    );
    family(
        &mut out,
        "schema_summary_cached_compute_micros",
        "gauge",
        "Recomputation cost of the resident cache entries, microseconds.",
        cache.cached_compute_micros,
    );
    family(
        &mut out,
        "schema_summary_evicted_compute_micros_total",
        "counter",
        "Recomputation cost displaced by capacity eviction, microseconds.",
        cache.evicted_compute_micros,
    );
    family(
        &mut out,
        "schema_summary_matrices_computed_total",
        "counter",
        "All-pairs matrix computations actually run.",
        cache.matrices_computed,
    );
    family(
        &mut out,
        "schema_summary_matrices_rehydrated_total",
        "counter",
        "All-pairs matrix computations avoided by disk rehydration.",
        cache.matrices_rehydrated,
    );

    // Warm-path delta maintenance.
    family(
        &mut out,
        "schema_summary_delta_refreshes_total",
        "counter",
        "Schema deltas served warm by splicing matrices across fingerprints.",
        cache.delta_refreshes,
    );
    // Refresh-accounting reconciliation: every delta routed through the
    // refresh path lands in exactly one class — the three warm classes
    // sum to delta_refreshes, and `cold` mirrors delta_fallback_cold.
    labeled(
        &mut out,
        "schema_summary_delta_refreshes_by_class_total",
        "counter",
        "Schema deltas routed through the refresh path, by outcome class.",
        &[
            ("class", "rescale", cache.delta_refreshes_rescale),
            ("class", "splice", cache.delta_refreshes_splice),
            ("class", "structural", cache.delta_refreshes_structural),
            ("class", "cold", cache.delta_fallback_cold),
        ],
    );
    family(
        &mut out,
        "schema_summary_delta_rows_recomputed_total",
        "counter",
        "Matrix rows recomputed by warm delta refreshes.",
        cache.delta_rows_recomputed,
    );
    family(
        &mut out,
        "schema_summary_delta_fallback_cold_total",
        "counter",
        "Schema deltas that fell back to cold invalidation.",
        cache.delta_fallback_cold,
    );
    family(
        &mut out,
        "schema_summary_importance_seeded_total",
        "counter",
        "Importance fixpoints restarted from a previous version's vector.",
        cache.importance_seeded,
    );
    family(
        &mut out,
        "schema_summary_importance_iterations_saved_total",
        "counter",
        "Fixpoint iterations seeded restarts stopped short of their cold baseline.",
        cache.importance_iterations_saved,
    );

    // Catalog durability.
    family(
        &mut out,
        "schema_summary_catalog_rehydrated_total",
        "counter",
        "Named registrations replayed from the catalog journal at startup.",
        cache.catalog_rehydrated,
    );

    // Disk tier.
    family(
        &mut out,
        "schema_summary_store_disk_writes_total",
        "counter",
        "Artifact files spilled to the disk tier.",
        cache.disk_writes,
    );
    family(
        &mut out,
        "schema_summary_store_disk_corrupt_total",
        "counter",
        "Disk-tier files discarded as corrupt.",
        cache.disk_corrupt,
    );
    family(
        &mut out,
        "schema_summary_store_bytes_on_disk",
        "gauge",
        "Bytes currently spilled under the store directory.",
        cache.disk_bytes,
    );
    family(
        &mut out,
        "schema_summary_store_quota_evictions_total",
        "counter",
        "Spilled artifacts evicted to enforce the disk byte quota.",
        cache.quota_evictions,
    );
    family(
        &mut out,
        "schema_summary_store_spills_dropped_total",
        "counter",
        "Disk-tier spills dropped because the spiller's queue was full.",
        cache.disk_spills_dropped,
    );

    // Shard occupancy.
    sharded(
        &mut out,
        "schema_summary_catalog_shard_entries",
        "Registered schemas per catalog shard.",
        &catalog.catalog_shard_entries,
    );
    sharded(
        &mut out,
        "schema_summary_result_shard_entries",
        "Cached results per LRU shard.",
        &catalog.result_shard_entries,
    );

    // HTTP front-end.
    family(
        &mut out,
        "schema_summary_http_accepted_total",
        "counter",
        "TCP connections accepted by the HTTP listener.",
        http.accepted,
    );
    family(
        &mut out,
        "schema_summary_http_served_total",
        "counter",
        "HTTP requests answered (any status).",
        http.served,
    );
    family(
        &mut out,
        "schema_summary_http_shed_total",
        "counter",
        "HTTP requests or connections shed by admission bounds.",
        http.shed,
    );
    family(
        &mut out,
        "schema_summary_http_timed_out_total",
        "counter",
        "HTTP requests that exceeded the per-request timeout.",
        http.timed_out,
    );
    family(
        &mut out,
        "schema_summary_http_active_connections",
        "gauge",
        "HTTP connections currently open.",
        http.active_connections as u64,
    );

    // Cross-node invalidation.
    family(
        &mut out,
        "schema_summary_fanout_sent_total",
        "counter",
        "Admin broadcasts delivered to peers (2xx or 404).",
        http.fanout_sent,
    );
    family(
        &mut out,
        "schema_summary_fanout_failed_total",
        "counter",
        "Admin broadcasts that failed to reach a peer.",
        http.fanout_failed,
    );
    family(
        &mut out,
        "schema_summary_worker_panics_total",
        "counter",
        "Pooled jobs that panicked; each was answered 500.",
        http.worker_panics,
    );
    out
}
