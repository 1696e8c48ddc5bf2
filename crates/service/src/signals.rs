//! Every exported signal, declared once, and both `/metrics` pages.
//!
//! A `signals!` table has one line per signal: the snapshot field, the
//! Prometheus kind, the family name and the help text. From a table the
//! macro generates the public snapshot struct (one `u64` field per line,
//! documented by its help text), the atomic cells behind it and the
//! snapshot's families on its `/metrics` page. Adding a signal costs its
//! table line plus its increment site,
//! `cells.<field>.fetch_add(n, Ordering::Relaxed)`.
//!
//! A table has up to three sections, each in page order:
//!
//! * the stored lines: one relaxed `AtomicU64` each in the cells struct,
//!   which is shared by `Arc` with every owner that moves it;
//! * `samples`: stored like the lines above, but exported only as
//!   samples of a labeled family written out beside the tables;
//! * `read`: point-in-time values with no cell. The owner reads them
//!   when it takes a snapshot, as `Stats { field, ..cells.snapshot() }`.
//!
//! The labeled families (`{cause}`, `{class}`, `{shard}` and `{node}`)
//! are written out below the tables. Text exposition is version 0.0.4:
//! `# HELP` and `# TYPE` before each family's samples, counters end in
//! `_total`, point-in-time values are gauges.

use crate::service::CatalogStats;
use serde::{Deserialize, Serialize};
use std::fmt::{Display, Write as _};
use std::sync::atomic::{AtomicU64, Ordering};

/// One declared family: its name, Prometheus type and help text.
pub(crate) struct Family {
    pub name: &'static str,
    pub kind: &'static str,
    pub help: &'static str,
}

impl Family {
    fn head(&self, out: &mut String) {
        let _ = writeln!(out, "# HELP {} {}", self.name, self.help);
        let _ = writeln!(out, "# TYPE {} {}", self.name, self.kind);
    }

    /// The family with its one unlabeled sample.
    fn write(&self, out: &mut String, value: u64) {
        self.head(out);
        let _ = writeln!(out, "{} {value}", self.name);
    }

    /// The family with one sample per value of `label`.
    fn labeled<V: Display>(
        &self,
        out: &mut String,
        label: &str,
        samples: impl IntoIterator<Item = (V, u64)>,
    ) {
        self.head(out);
        for (value, sample) in samples {
            let _ = writeln!(out, "{}{{{label}=\"{value}\"}} {sample}", self.name);
        }
    }
}

/// Generates a snapshot struct, its cells and its families from one
/// table; see the module docs for the sections. `extra` adds snapshot
/// fields that no line declares (the router's per-node counts).
macro_rules! signals {
    (
        $(#[$attr:meta])*
        pub struct $snapshot:ident in $cells:ident {
            $($field:ident: $kind:ident $name:literal $help:literal,)*
        }
        $(samples {
            $($sfield:ident $shelp:literal,)*
        })?
        read {
            $($rfield:ident: $rkind:ident $rname:literal $rhelp:literal,)*
        }
        $(extra {
            $($(#[$xattr:meta])* $xfield:ident: $xty:ty,)*
        })?
    ) => {
        $(#[$attr])*
        pub struct $snapshot {
            $(#[doc = $help] pub $field: u64,)*
            $($(#[doc = $shelp] pub $sfield: u64,)*)?
            $(#[doc = $rhelp] pub $rfield: u64,)*
            $($($(#[$xattr])* pub $xfield: $xty,)*)?
        }

        #[doc = concat!("The stored fields of [`", stringify!($snapshot), "`].")]
        #[derive(Default)]
        pub(crate) struct $cells {
            $(pub $field: AtomicU64,)*
            $($(pub $sfield: AtomicU64,)*)?
        }

        impl $cells {
            /// Every stored field now; the read fields are left at zero.
            pub fn snapshot(&self) -> $snapshot {
                $snapshot {
                    $($field: self.$field.load(Ordering::Relaxed),)*
                    $($($sfield: self.$sfield.load(Ordering::Relaxed),)*)?
                    ..Default::default()
                }
            }
        }

        impl $snapshot {
            /// The families of the stored and read lines, in page order.
            pub(crate) const FAMILIES: &'static [Family] = &[
                $(Family { name: $name, kind: stringify!($kind), help: $help },)*
                $(Family { name: $rname, kind: stringify!($rkind), help: $rhelp },)*
            ];

            fn render(&self, out: &mut String) {
                let values = [$(self.$field,)* $(self.$rfield,)*];
                for (family, value) in Self::FAMILIES.iter().zip(values) {
                    family.write(out, value);
                }
            }
        }
    };
}

signals! {
    /// Point-in-time cache, store and catalog statistics of one service.
    ///
    /// `hits` include single-flight followers served by a concurrent
    /// leader, and at most one request per in-flight key is a `miss`.
    /// `disk_hits` count in neither `hits` nor `misses`, and
    /// `admin_evictions` in neither `evictions` nor `invalidations`. The
    /// three `delta_refreshes_*` classes sum to `delta_refreshes`; a
    /// seeded importance restart is ε-close to a cold run, not
    /// bit-identical (DESIGN.md §3.19).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct CacheStats in CacheCells {
        hits: counter "schema_summary_cache_hits_total" "Requests answered from the in-memory result cache.",
        misses: counter "schema_summary_cache_misses_total" "Requests that ran a summarization algorithm.",
        disk_hits: counter "schema_summary_cache_disk_hits_total" "Requests answered by rehydrating a spilled result.",
        evictions: counter "schema_summary_cache_evictions_total" "Entries displaced by LRU capacity pressure.",
        invalidations: counter "schema_summary_cache_invalidations_total" "Entries dropped by delta-driven invalidation.",
        admin_evictions: counter "schema_summary_cache_admin_evictions_total" "Entries dropped through the admin evict endpoint.",
        compute_micros: counter "schema_summary_compute_micros_total" "Wall time spent computing cold results, microseconds.",
        evicted_compute_micros: counter "schema_summary_evicted_compute_micros_total" "Recomputation cost displaced by capacity eviction, microseconds.",
        matrices_computed: counter "schema_summary_matrices_computed_total" "All-pairs matrix computations actually run.",
        matrices_rehydrated: counter "schema_summary_matrices_rehydrated_total" "All-pairs matrix computations avoided by disk rehydration.",
        delta_refreshes: counter "schema_summary_delta_refreshes_total" "Schema deltas served warm by splicing matrices across fingerprints.",
        delta_rows_recomputed: counter "schema_summary_delta_rows_recomputed_total" "Matrix rows recomputed by warm delta refreshes.",
        delta_fallback_cold: counter "schema_summary_delta_fallback_cold_total" "Schema deltas that fell back to cold invalidation.",
        importance_seeded: counter "schema_summary_importance_seeded_total" "Importance fixpoints restarted from a previous version's vector.",
        importance_iterations_saved: counter "schema_summary_importance_iterations_saved_total" "Fixpoint iterations seeded restarts stopped short of their cold baseline.",
        catalog_rehydrated: counter "schema_summary_catalog_rehydrated_total" "Named registrations replayed from the catalog journal at startup.",
        catalog_journal_damaged: counter "schema_summary_catalog_journal_damaged_total" "Damaged catalog journal records cut off by the startup replay.",
        disk_writes: counter "schema_summary_store_disk_writes_total" "Artifact files spilled to the disk tier.",
        disk_corrupt: counter "schema_summary_store_disk_corrupt_total" "Disk-tier files discarded as corrupt.",
        disk_bytes: gauge "schema_summary_store_bytes_on_disk" "Bytes currently spilled under the store directory.",
        quota_evictions: counter "schema_summary_store_quota_evictions_total" "Spilled artifacts evicted to enforce the disk byte quota.",
        disk_spills_dropped: counter "schema_summary_store_spills_dropped_total" "Disk-tier spills dropped because the spiller's queue was full.",
    }
    samples {
        delta_refreshes_rescale "Warm refreshes whose delta only rescaled cardinalities.",
        delta_refreshes_splice "Warm refreshes whose delta touched edge weights in place.",
        delta_refreshes_structural "Warm refreshes whose delta was additive structural growth.",
    }
    read {
        entries: gauge "schema_summary_cache_entries" "Results currently cached in memory.",
        schemas: gauge "schema_summary_schemas" "Schemas currently registered in the catalog.",
        cached_compute_micros: gauge "schema_summary_cached_compute_micros" "Recomputation cost of the resident cache entries, microseconds.",
    }
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 when nothing was requested yet.
    /// Disk hits are excluded on both sides: the rate measures the
    /// memory tier.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

signals! {
    /// Point-in-time HTTP server counters, alongside
    /// [`CacheStats`] for the cache underneath.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
    pub struct HttpServerStats in HttpCells {
        timed_out: counter "schema_summary_http_timed_out_total" "HTTP requests that exceeded the per-request timeout.",
        fanout_sent: counter "schema_summary_fanout_sent_total" "Admin broadcasts delivered to peers (2xx or 404).",
        fanout_failed: counter "schema_summary_fanout_failed_total" "Admin broadcasts that failed to reach a peer.",
        worker_panics: counter "schema_summary_worker_panics_total" "Pooled jobs that panicked; each was answered 500.",
    }
    read {
        accepted: counter "schema_summary_http_accepted_total" "TCP connections accepted by the HTTP listener.",
        served: counter "schema_summary_http_served_total" "HTTP requests answered (any status).",
        shed: counter "schema_summary_http_shed_total" "HTTP requests or connections shed by admission bounds.",
        active_connections: gauge "schema_summary_http_active_connections" "HTTP connections currently open.",
    }
}

signals! {
    /// Point-in-time router counters.
    #[derive(Debug, Clone, Default)]
    pub struct RouterStats in RouterCells {
        retries: counter "schema_summary_router_retries_total" "Failover attempts past a failed or overloaded node.",
        proxy_errors: counter "schema_summary_router_proxy_errors_total" "Proxied hops that ended in a transport error.",
        ejections: counter "schema_summary_router_ejections_total" "Nodes ejected after consecutive failures.",
        readmissions: counter "schema_summary_router_readmissions_total" "Ejected nodes re-admitted by a successful probe.",
    }
    read {
        nodes_healthy: gauge "schema_summary_router_nodes_healthy" "Nodes currently passing health probes.",
        nodes_total: gauge "schema_summary_router_nodes" "Nodes configured in the rendezvous ring.",
        accepted: counter "schema_summary_router_http_accepted_total" "TCP connections accepted by the router.",
        served: counter "schema_summary_router_http_served_total" "Requests answered by the router (any status).",
        shed: counter "schema_summary_router_http_shed_total" "Connections shed by the router's connection cap.",
    }
    extra {
        /// Requests successfully answered per node, in node order.
        routed: Vec<u64>,
    }
}

/// Every cached result that leaves the in-memory tier is counted once
/// under its cause, so the family sums to `evictions + invalidations +
/// admin_evictions`.
const RESULTS_DROPPED: Family = Family {
    name: "schema_summary_results_dropped_total",
    kind: "counter",
    help: "Cached results dropped from the in-memory tier, by cause.",
};

/// Every delta routed through the refresh path lands in one class: the
/// three warm classes sum to `delta_refreshes`, and `cold` mirrors
/// `delta_fallback_cold`.
const REFRESHES_BY_CLASS: Family = Family {
    name: "schema_summary_delta_refreshes_by_class_total",
    kind: "counter",
    help: "Schema deltas routed through the refresh path, by outcome class.",
};

const CATALOG_SHARDS: Family = Family {
    name: "schema_summary_catalog_shard_entries",
    kind: "gauge",
    help: "Registered schemas per catalog shard.",
};

const RESULT_SHARDS: Family = Family {
    name: "schema_summary_result_shard_entries",
    kind: "gauge",
    help: "Cached results per LRU shard.",
};

const ROUTED: Family = Family {
    name: "schema_summary_router_routed_total",
    kind: "counter",
    help: "Requests answered per node.",
};

/// A node's `/metrics` page.
pub(crate) fn node_page(
    cache: &CacheStats,
    catalog: &CatalogStats,
    http: &HttpServerStats,
) -> String {
    let mut out = String::new();
    cache.render(&mut out);
    RESULTS_DROPPED.labeled(
        &mut out,
        "cause",
        [
            ("capacity", cache.evictions),
            ("invalidation", cache.invalidations),
            ("admin", cache.admin_evictions),
        ],
    );
    REFRESHES_BY_CLASS.labeled(
        &mut out,
        "class",
        [
            ("rescale", cache.delta_refreshes_rescale),
            ("splice", cache.delta_refreshes_splice),
            ("structural", cache.delta_refreshes_structural),
            ("cold", cache.delta_fallback_cold),
        ],
    );
    for (family, shards) in [
        (&CATALOG_SHARDS, &catalog.catalog_shard_entries),
        (&RESULT_SHARDS, &catalog.result_shard_entries),
    ] {
        family.labeled(
            &mut out,
            "shard",
            shards.iter().map(|&n| n as u64).enumerate(),
        );
    }
    http.render(&mut out);
    out
}

/// The router's `/metrics` page; `nodes` label `stats.routed`.
pub(crate) fn router_page(stats: &RouterStats, nodes: &[String]) -> String {
    let mut out = String::new();
    ROUTED.labeled(
        &mut out,
        "node",
        nodes.iter().zip(stats.routed.iter().copied()),
    );
    stats.render(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;
    use std::collections::HashSet;

    // The golden files hold both pages and both snapshots as the
    // hand-written renderers produced them at 7377e82, before these
    // tables: every snapshot field carries a distinct value, the node has
    // two catalog and two result shards, and the router two nodes.
    const CACHE_STATS: &str = include_str!("../tests/golden/cache_stats.json");
    const HTTP_STATS: &str = include_str!("../tests/golden/http_stats.json");
    const NODE_PAGE: &str = include_str!("../tests/golden/node_metrics.txt");
    const ROUTER_PAGE: &str = include_str!("../tests/golden/router_metrics.txt");

    /// Fields and families declared after the golden files were taken,
    /// with the value the tests give them.
    const ADDED: &[(&str, &str, u64)] = &[(
        "catalog_journal_damaged",
        "schema_summary_catalog_journal_damaged_total",
        128,
    )];

    /// The golden `CacheStats` object with the added fields.
    fn cache_json() -> Vec<(String, Value)> {
        let Ok(Value::Object(mut fields)) = serde_json::parse(CACHE_STATS) else {
            panic!("the golden cache stats are a JSON object");
        };
        for &(field, _, value) in ADDED {
            fields.push((field.to_string(), Value::UInt(value)));
        }
        fields
    }

    fn cache() -> CacheStats {
        let json = serde_json::to_string(&Value::Object(cache_json())).unwrap();
        serde_json::from_str(&json).unwrap()
    }

    /// A page cut into its family blocks (a `# HELP` line and every line
    /// up to the next one), sorted: block order is not part of the page.
    fn blocks(page: &str) -> Vec<String> {
        let mut blocks: Vec<String> = Vec::new();
        for line in page.lines() {
            match blocks.last_mut() {
                Some(block) if !line.starts_with("# HELP ") => block.push_str(line),
                _ => blocks.push(line.to_string()),
            }
            blocks.last_mut().unwrap().push('\n');
        }
        blocks.sort();
        blocks
    }

    /// `page` holds exactly the `expected` blocks, in any order.
    fn assert_same_blocks(page: &str, mut expected: Vec<String>) {
        let blocks = blocks(page);
        let missing: Vec<_> = expected.iter().filter(|b| !blocks.contains(b)).collect();
        let extra: Vec<_> = blocks.iter().filter(|b| !expected.contains(b)).collect();
        assert!(
            missing.is_empty() && extra.is_empty(),
            "missing from the page:\n{missing:#?}\nnot in the golden page:\n{extra:#?}"
        );
        expected.sort();
        assert_eq!(blocks, expected, "a block appears twice");
    }

    /// The block a page holds for `name`.
    fn block_of(page: &str, name: &str) -> String {
        let head = format!("# HELP {name} ");
        blocks(page)
            .into_iter()
            .find(|block| block.starts_with(&head))
            .unwrap_or_else(|| panic!("no {name} on the page"))
    }

    #[test]
    fn node_page_golden() {
        let catalog = CatalogStats {
            schemas: 2,
            catalog_shard_entries: vec![401, 402],
            result_shard_entries: vec![403, 404],
        };
        let http: HttpServerStats = serde_json::from_str(HTTP_STATS).unwrap();
        let page = node_page(&cache(), &catalog, &http);
        let mut expected = blocks(NODE_PAGE);
        for &(_, name, value) in ADDED {
            let block = block_of(&page, name);
            assert!(block.ends_with(&format!("\n{name} {value}\n")), "{block}");
            expected.push(block);
        }
        assert_same_blocks(&page, expected);
    }

    #[test]
    fn router_page_golden() {
        let stats = RouterStats {
            accepted: 301,
            served: 302,
            shed: 303,
            routed: vec![304, 305],
            retries: 306,
            proxy_errors: 307,
            ejections: 308,
            readmissions: 309,
            nodes_healthy: 1,
            nodes_total: 2,
        };
        let nodes = ["10.0.0.1:7001".to_string(), "10.0.0.2:7002".to_string()];
        assert_same_blocks(&router_page(&stats, &nodes), blocks(ROUTER_PAGE));
    }

    /// `GET /admin/cache` serializes the snapshot as its `stats`.
    #[test]
    fn admin_cache_stats_golden() {
        let Ok(Value::Object(mut served)) =
            serde_json::parse(&serde_json::to_string(&cache()).unwrap())
        else {
            panic!("the stats serialize as a JSON object");
        };
        let mut expected = cache_json();
        served.sort_by(|a, b| a.0.cmp(&b.0));
        expected.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(served, expected);
    }

    /// The Prometheus exposition rules, checked on every family either
    /// page declares.
    #[test]
    fn declarations_follow_the_exposition_rules() {
        let node = CacheStats::FAMILIES
            .iter()
            .chain(HttpServerStats::FAMILIES)
            .chain([
                &RESULTS_DROPPED,
                &REFRESHES_BY_CLASS,
                &CATALOG_SHARDS,
                &RESULT_SHARDS,
            ]);
        let router = RouterStats::FAMILIES.iter().chain([&ROUTED]);
        for page in [node.collect::<Vec<_>>(), router.collect()] {
            let mut names = HashSet::new();
            for Family { name, kind, help } in page {
                assert!(names.insert(name), "{name} is declared twice on one page");
                let tail = name.strip_prefix("schema_summary_").unwrap_or_default();
                assert!(
                    !tail.is_empty()
                        && tail
                            .bytes()
                            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_'),
                    "{name} does not match ^schema_summary_[a-z0-9_]+$"
                );
                assert!(matches!(*kind, "counter" | "gauge"), "{name} is a {kind}");
                assert_eq!(
                    name.ends_with("_total"),
                    *kind == "counter",
                    "{name}: only a counter's name ends in _total"
                );
                assert!(
                    !help.is_empty() && !help.contains(['\n', '\r', '\\', '"']),
                    "{name}: help must be one nonempty line without \\ or \": {help:?}"
                );
            }
        }
    }
}
