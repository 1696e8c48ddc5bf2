//! Concurrent summary-serving layer for schema summarization.
//!
//! The paper's use case is interactive (Section 5): users explore an
//! unfamiliar schema by repeatedly requesting summaries at different sizes
//! and with different algorithms over a mostly-static database. The
//! one-shot pipeline recomputes cardinality annotations, the importance
//! fixpoint, and the all-pairs affinity matrices on every call; this crate
//! turns it into an embeddable, thread-safe service that pays those costs
//! once per schema:
//!
//! * [`SchemaCatalog`] registers annotated schema graphs under a
//!   content [`SchemaFingerprint`](schema_summary_core::SchemaFingerprint)
//!   — structurally identical registrations share one entry;
//! * each catalog entry memoizes the importance vector, the all-pairs
//!   affinity/coverage matrices, and the dominance set once per
//!   configuration, shared across requests via `Arc`;
//! * [`SummaryService`] answers `MaxImportance` / `MaxCoverage` /
//!   `BalanceSummary` requests through a tiered `ArtifactStore`: a sharded
//!   LRU result cache keyed by `(fingerprint, shape, options)` — where a
//!   shape is a flat size `k` or a multi-level size stack — plus an
//!   optional disk tier ([`ServiceConfig::store_dir`]) that spills
//!   serialized matrices and results from a background thread and
//!   rehydrates them across restarts, tolerating corrupt files by
//!   recomputing;
//! * multi-level summaries are first-class requests: `levels` builds and
//!   caches a whole drill-down stack once, and `expand` opens one group a
//!   level down by walking the cached stack — a warm expand never
//!   recomputes matrices;
//! * invalidation consumes [`SchemaDelta`](schema_summary_core::SchemaDelta)s
//!   to evict exactly the affected fingerprint — from every tier,
//!   including spilled files — instead of flushing the world;
//! * cold computations are deduplicated per key (single-flight): N
//!   threads missing on the same key run the algorithm exactly once;
//! * HTTP/1.1 is the one wire format. [`HttpServer`] fronts a node's
//!   service and [`ClusterRouter`] proxies a cluster of nodes; both run
//!   on one connection layer (keep-alive with request pipelining, the
//!   node's `400`/`413`/`431`/`505` for unparseable requests, a
//!   connection cap, graceful shutdown), and a node computes every
//!   summary on a bounded worker queue that sheds load with `503
//!   overloaded` and answers `504` past its per-request timeout
//!   (standard library only, no async runtime).
//!
//! # Example
//!
//! ```
//! use std::sync::Arc;
//! use schema_summary_core::{SchemaGraphBuilder, SchemaType, SchemaStats};
//! use schema_summary_algo::Algorithm;
//! use schema_summary_service::SummaryService;
//!
//! let mut b = SchemaGraphBuilder::new("db");
//! let people = b.add_child(b.root(), "people", SchemaType::rcd()).unwrap();
//! let person = b.add_child(people, "person", SchemaType::set_of_rcd()).unwrap();
//! b.add_child(person, "name", SchemaType::simple_str()).unwrap();
//! let graph = Arc::new(b.build().unwrap());
//! let stats = Arc::new(SchemaStats::uniform(&graph));
//!
//! let service = SummaryService::default();
//! let fp = service.register(graph, stats);
//! let cold = service.summarize(fp, Algorithm::Balance, 1).unwrap();
//! let warm = service.summarize(fp, Algorithm::Balance, 1).unwrap();
//! assert!(!cold.from_cache && warm.from_cache);
//! assert_eq!(cold.result.selection, warm.result.selection);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod catalog;
pub mod cluster;
mod disk;
pub mod export;
pub mod http;
mod listener;
mod lru;
mod pool;
pub mod service;
mod store;

pub use catalog::{Artifacts, CatalogEntry, SchemaCatalog};
pub use cluster::{ClusterRouter, ProbeConfig, RendezvousRing, RouterConfig, RouterStats};
pub use export::{ExportElement, SummaryExport};
pub use http::{HttpConfig, HttpServer, HttpServerStats, WireError};
pub use service::{
    CacheEntryInfo, CacheStats, CatalogStats, ExpandResult, ExpandSpec, GroupView, LevelView,
    MultiLevelArtifact, MultiLevelResult, ServedExpansion, ServedMultiLevel, ServedReply,
    ServedSummary, ServiceConfig, ServiceError, SummaryRequest, SummaryResult, SummaryService,
};
