//! The concurrent summary service: a tiered artifact store (sharded
//! catalog + memoized artifacts + sharded LRU results + optional disk
//! spill) behind flat, multi-level, and drill-down requests, with
//! delta-driven invalidation.

use crate::catalog::SchemaCatalog;
use crate::cluster::journal::{CatalogJournal, JournalEntry};
use crate::disk::DiskTier;
use crate::export::{ExportElement, SummaryExport};
use crate::signals::CacheCells;
pub use crate::signals::CacheStats;
use crate::store::{ArtifactStore, CachedArtifact, RefreshOutcome, ResultKey, ResultShape};
use schema_summary_algo::algorithms::{balance_summary, max_coverage, max_importance};
use schema_summary_algo::assignment::{assign_elements, summary_coverage, summary_importance};
use schema_summary_algo::multilevel::{build_multi_level, refresh_multi_level, MultiLevelSummary};
use schema_summary_algo::{Algorithm, SummarizerConfig};
use schema_summary_core::diff::SchemaDelta;
use schema_summary_core::{
    AbstractId, ElementId, SchemaError, SchemaFingerprint, SchemaGraph, SchemaStats,
};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, RwLock};

/// Service construction parameters.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Total result-cache capacity (entries across all shards).
    pub cache_capacity: usize,
    /// Number of independent LRU shards (locks).
    pub cache_shards: usize,
    /// Number of independent schema-catalog shards (locks).
    pub catalog_shards: usize,
    /// Directory for the persistent artifact tier. When set, computed
    /// matrices and results are spilled there by a background thread
    /// (see [`SummaryService::flush_store`]) and rehydrated on restart;
    /// when `None` the store is memory-only.
    pub store_dir: Option<PathBuf>,
    /// Byte quota for the persistent tier. When set, spilling past it
    /// evicts the oldest artifacts first; `None` grows without bound.
    /// Ignored when `store_dir` is `None`.
    pub store_max_bytes: Option<u64>,
    /// Largest schema-delta footprint served warm, as a fraction of the
    /// schema's elements: a delta whose recompute set exceeds this falls
    /// back to a cold invalidate-and-recompute (past that point the
    /// splice saves little over the parallel cold path). Values outside
    /// `(0, 1]` disable the guard.
    pub delta_max_fraction: f64,
    /// Default algorithm configuration used when a request does not
    /// override it.
    pub summarizer: SummarizerConfig,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            cache_capacity: 1024,
            cache_shards: 8,
            catalog_shards: crate::catalog::DEFAULT_CATALOG_SHARDS,
            store_dir: None,
            store_max_bytes: None,
            delta_max_fraction: 0.25,
            summarizer: SummarizerConfig::default(),
        }
    }
}

/// One drill-down step in a [`SummaryRequest`]: expand group `group` of
/// level `level` of the multi-level summary named by the request's
/// `levels`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExpandSpec {
    /// Which level the expanded group lives in (0 = finest).
    pub level: usize,
    /// Group index within that level.
    pub group: usize,
}

/// A request as carried by the JSONL batch driver and the TCP server. All
/// fields are optional; the service fills in defaults (the sole
/// registered schema, the `balance` algorithm, `k = 5`). `levels` asks
/// for a multi-level summary; `expand` (which requires `levels`) drills
/// one group of it down a level.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SummaryRequest {
    /// Name of a registered schema (defaults to the only one registered).
    pub schema: Option<String>,
    /// Algorithm name: `balance`, `importance`, or `coverage`.
    pub algorithm: Option<String>,
    /// Summary size (flat requests).
    pub k: Option<usize>,
    /// Multi-level summary sizes, finest first, strictly decreasing
    /// (e.g. `[12, 6, 3]`).
    pub levels: Option<Vec<usize>>,
    /// Drill one group of the `levels` stack down a level.
    pub expand: Option<ExpandSpec>,
}

/// A computed (and cacheable) summary answer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SummaryResult {
    /// Fingerprint of the annotated schema that was summarized.
    pub fingerprint: SchemaFingerprint,
    /// Algorithm that produced the selection.
    pub algorithm: Algorithm,
    /// Requested summary size.
    pub k: usize,
    /// Selected elements, in algorithm order.
    pub selection: Vec<ElementId>,
    /// Root label paths of the selected elements, in the same order.
    pub labels: Vec<String>,
    /// Summary importance `R_SS` (Definition 3).
    pub importance: f64,
    /// Summary coverage `C_SS` (Definition 4).
    pub coverage: f64,
}

/// One abstract element of one level, as put on the wire.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupView {
    /// Group index within its level.
    pub group: usize,
    /// Root label path of the group's representative element.
    pub representative: String,
    /// Number of schema elements the group contains.
    pub size: usize,
}

/// One level of a multi-level summary, as put on the wire.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct LevelView {
    /// Number of groups in this level.
    pub size: usize,
    /// The level's groups, in group order.
    pub groups: Vec<GroupView>,
}

/// The wire answer to a `multilevel` request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultiLevelResult {
    /// Fingerprint of the annotated schema that was summarized.
    pub fingerprint: SchemaFingerprint,
    /// Algorithm that selected the finest level.
    pub algorithm: Algorithm,
    /// Level sizes, finest first.
    pub sizes: Vec<usize>,
    /// The levels, finest first.
    pub levels: Vec<LevelView>,
}

/// The wire answer to an `expand` request: one group opened one level
/// down.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExpandResult {
    /// Fingerprint of the annotated schema that was summarized.
    pub fingerprint: SchemaFingerprint,
    /// Algorithm that selected the finest level.
    pub algorithm: Algorithm,
    /// Level sizes of the underlying stack, finest first.
    pub sizes: Vec<usize>,
    /// The expanded group's level (0 = finest).
    pub level: usize,
    /// The expanded group's index within its level.
    pub group: usize,
    /// Root label path of the expanded group's representative.
    pub representative: String,
    /// The finer-level groups inside the expanded group (empty when
    /// `level` is 0 — there is no finer level of groups).
    pub children: Vec<GroupView>,
    /// The schema elements inside the expanded group (only populated when
    /// `level` is 0, where drilling down reveals raw elements).
    pub elements: Vec<String>,
}

/// A cached multi-level summary: the full level stack (for drill-down)
/// plus its precomputed wire view. Built once per
/// `(fingerprint, algorithm, sizes, options)` and shared via `Arc`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiLevelArtifact {
    /// The nested level stack, finest first.
    pub summary: MultiLevelSummary,
    /// The wire view served for `multilevel` requests.
    pub view: MultiLevelResult,
}

/// A service answer: the (shared) result plus whether it came from the
/// cache.
#[derive(Debug, Clone)]
pub struct ServedSummary {
    /// The summary, shared with the cache.
    pub result: Arc<SummaryResult>,
    /// `true` if the result was served from a cache tier without running
    /// any algorithm.
    pub from_cache: bool,
}

/// A served multi-level summary (the whole stack plus its wire view).
#[derive(Debug, Clone)]
pub struct ServedMultiLevel {
    /// The artifact, shared with the cache.
    pub result: Arc<MultiLevelArtifact>,
    /// `true` if the stack was served from a cache tier without running
    /// any algorithm.
    pub from_cache: bool,
}

/// A served drill-down expansion.
#[derive(Debug, Clone)]
pub struct ServedExpansion {
    /// The expansion (small: built by walking the cached level stack).
    pub result: ExpandResult,
    /// `true` if the underlying stack came from a cache tier — a warm
    /// expand never touches the matrices.
    pub from_cache: bool,
}

/// Any service answer, for callers (the TCP server, the batch driver)
/// that route whole [`SummaryRequest`]s.
#[derive(Debug, Clone)]
pub enum ServedReply {
    /// A flat summary.
    Flat(ServedSummary),
    /// A multi-level summary.
    MultiLevel(ServedMultiLevel),
    /// A drill-down expansion.
    Expansion(ServedExpansion),
}

/// Why a request could not be answered.
#[derive(Debug)]
pub enum ServiceError {
    /// The request named a schema that is not registered.
    UnknownSchema(String),
    /// The request carried a fingerprint that is not in the catalog.
    UnknownFingerprint(SchemaFingerprint),
    /// The request was ambiguous or malformed (e.g. no schema named while
    /// several are registered).
    BadRequest(String),
    /// The selection algorithm rejected the request.
    Algo(SchemaError),
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::UnknownSchema(name) => write!(f, "unknown schema '{name}'"),
            ServiceError::UnknownFingerprint(fp) => write!(f, "unknown fingerprint {fp}"),
            ServiceError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServiceError::Algo(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<SchemaError> for ServiceError {
    fn from(e: SchemaError) -> Self {
        ServiceError::Algo(e)
    }
}

/// What [`SummaryService::apply_delta`] did with one schema delta: this
/// refresh's own outcome, unaffected by refreshes running beside it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaOutcome {
    /// Cached results dropped with the old fingerprint.
    pub dropped: usize,
    /// Whether the new fingerprint's matrices were spliced warm from the
    /// old fingerprint's.
    pub warm: bool,
    /// Matrix rows the warm splice re-explored (0 when cold).
    pub rows_recomputed: u64,
}

/// One resident result-cache entry, as reported by the admin plane
/// ([`SummaryService::cached_entries`]).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CacheEntryInfo {
    /// Fingerprint (hex) of the schema the result was computed from.
    pub fingerprint: String,
    /// Human-readable result shape, e.g. `flat/balance/k=5` or
    /// `multilevel/balance/12,6,3`.
    pub shape: String,
    /// Recomputation cost (µs) the entry was admitted with.
    pub cost_micros: u64,
}

/// Per-shard occupancy of the sharded tiers, for contention
/// investigations ([`SummaryService::catalog_stats`]).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CatalogStats {
    /// Schemas currently registered (sum of `catalog_shard_entries`).
    pub schemas: usize,
    /// Registered schemas per catalog shard, in shard order.
    pub catalog_shard_entries: Vec<usize>,
    /// Cached results per LRU shard, in shard order.
    pub result_shard_entries: Vec<usize>,
}

/// A thread-safe, embeddable summary-serving layer.
///
/// All methods take `&self`; one `SummaryService` (typically inside an
/// `Arc`) serves any number of threads. Heavy intermediates are computed
/// once per `(schema fingerprint, configuration)` and full answers once
/// per `(fingerprint, shape, configuration)`, where a shape is a flat
/// size `k` or a multi-level size stack.
pub struct SummaryService {
    config: ServiceConfig,
    names: RwLock<HashMap<String, SchemaFingerprint>>,
    store: ArtifactStore,
    /// Append-only catalog journal (store-dir deployments only), replayed
    /// at startup so names and graphs survive restarts.
    journal: Option<CatalogJournal>,
}

impl Default for SummaryService {
    fn default() -> Self {
        Self::new(ServiceConfig::default())
    }
}

impl SummaryService {
    /// Create a service with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics when `config.store_dir` is set but cannot be created or
    /// opened; use [`SummaryService::try_new`] to handle that error.
    pub fn new(config: ServiceConfig) -> Self {
        Self::try_new(config).expect("store directory must be creatable")
    }

    /// Create a service, propagating a failure to open the persistent
    /// store directory instead of panicking.
    pub fn try_new(config: ServiceConfig) -> std::io::Result<Self> {
        let cells = Arc::new(CacheCells::default());
        let disk = match &config.store_dir {
            Some(dir) => Some(Arc::new(DiskTier::open_with_quota(
                dir,
                config.store_max_bytes,
                Arc::clone(&cells),
            )?)),
            None => None,
        };
        let store = ArtifactStore::new(
            config.cache_capacity,
            config.cache_shards,
            config.catalog_shards,
            disk,
            cells,
        );
        let mut service = SummaryService {
            config,
            names: RwLock::new(HashMap::new()),
            store,
            journal: None,
        };
        if let Some(dir) = service.config.store_dir.clone() {
            // Replay before installing the journal, so rehydration does
            // not re-append what it reads.
            let replay = CatalogJournal::replay(&dir);
            let cells = Arc::clone(&service.store.cells);
            cells
                .catalog_journal_damaged
                .fetch_add(replay.damaged, Ordering::Relaxed);
            for entry in replay.entries {
                match entry {
                    JournalEntry::Register { name, graph, stats } => {
                        service.register_named_inner(name, Arc::new(*graph), Arc::new(*stats), false);
                        cells.catalog_rehydrated.fetch_add(1, Ordering::Relaxed);
                    }
                    JournalEntry::Retire(fingerprint) => {
                        service.store.invalidate(fingerprint);
                    }
                }
            }
            service.journal = Some(CatalogJournal::open(&dir, replay.verified)?);
        }
        Ok(service)
    }

    /// The catalog backing this service.
    pub fn catalog(&self) -> &SchemaCatalog {
        self.store.catalog()
    }

    /// Register an annotated schema; returns its content fingerprint.
    /// Content-identical registrations are deduplicated.
    pub fn register(&self, graph: Arc<SchemaGraph>, stats: Arc<SchemaStats>) -> SchemaFingerprint {
        self.store.catalog().register(graph, stats).0
    }

    /// Register an annotated schema under a name for use in requests.
    /// Re-registering a name points it at the new content (the old content
    /// stays registered until invalidated).
    pub fn register_named(
        &self,
        name: impl Into<String>,
        graph: Arc<SchemaGraph>,
        stats: Arc<SchemaStats>,
    ) -> SchemaFingerprint {
        self.register_named_inner(name.into(), graph, stats, true)
    }

    /// Shared body of [`SummaryService::register_named`] and journal
    /// replay: `journal: false` suppresses the append (replay must not
    /// re-write what it reads), and a name that already maps to the same
    /// content appends nothing (an embedder re-registering after a
    /// restart would otherwise grow the journal by one record per boot).
    fn register_named_inner(
        &self,
        name: String,
        graph: Arc<SchemaGraph>,
        stats: Arc<SchemaStats>,
        journal: bool,
    ) -> SchemaFingerprint {
        let fp = self.register(Arc::clone(&graph), Arc::clone(&stats));
        let prior = self
            .names
            .write()
            .expect("names poisoned")
            .insert(name.clone(), fp);
        if journal && prior != Some(fp) {
            if let Some(journal) = &self.journal {
                journal.append_register(&name, &graph, &stats);
            }
        }
        fp
    }

    /// Resolve a registered name to its fingerprint.
    pub fn fingerprint_of(&self, name: &str) -> Option<SchemaFingerprint> {
        self.names
            .read()
            .expect("names poisoned")
            .get(name)
            .copied()
    }

    /// Answer a summarize request against a registered fingerprint, using
    /// the service's default algorithm configuration.
    pub fn summarize(
        &self,
        fingerprint: SchemaFingerprint,
        algorithm: Algorithm,
        k: usize,
    ) -> Result<ServedSummary, ServiceError> {
        let config = self.config.summarizer.clone();
        self.summarize_with(fingerprint, algorithm, k, &config)
    }

    /// Answer a summarize request with an explicit algorithm
    /// configuration; results are cached per configuration.
    ///
    /// Cold computations are deduplicated per key (single-flight): when N
    /// threads miss on the same key concurrently, exactly one runs the
    /// algorithm; the others block until it publishes and are counted as
    /// hits (they were served without computing).
    pub fn summarize_with(
        &self,
        fingerprint: SchemaFingerprint,
        algorithm: Algorithm,
        k: usize,
        config: &SummarizerConfig,
    ) -> Result<ServedSummary, ServiceError> {
        let key = Self::flat_key(fingerprint, algorithm, k, config);
        let (artifact, from_cache) = self.serve_key(&key)?;
        match artifact {
            CachedArtifact::Flat(result) => Ok(ServedSummary { result, from_cache }),
            CachedArtifact::MultiLevel(_) => {
                unreachable!("a flat key only ever stores a flat artifact")
            }
        }
    }

    /// Build (or serve from a cache tier) a multi-level summary for the
    /// given level sizes (finest first, strictly decreasing), using the
    /// service's default algorithm configuration.
    pub fn multi_level(
        &self,
        fingerprint: SchemaFingerprint,
        algorithm: Algorithm,
        sizes: &[usize],
    ) -> Result<ServedMultiLevel, ServiceError> {
        let config = self.config.summarizer.clone();
        self.multi_level_with(fingerprint, algorithm, sizes, &config)
    }

    /// Build (or serve from a cache tier) a multi-level summary with an
    /// explicit algorithm configuration. The whole stack is one cache
    /// entry, so every later drill-down reuses it.
    pub fn multi_level_with(
        &self,
        fingerprint: SchemaFingerprint,
        algorithm: Algorithm,
        sizes: &[usize],
        config: &SummarizerConfig,
    ) -> Result<ServedMultiLevel, ServiceError> {
        let key = Self::multi_level_key(fingerprint, algorithm, sizes, config)?;
        let (artifact, from_cache) = self.serve_key(&key)?;
        match artifact {
            CachedArtifact::MultiLevel(result) => Ok(ServedMultiLevel { result, from_cache }),
            CachedArtifact::Flat(_) => {
                unreachable!("a multi-level key only ever stores a multi-level artifact")
            }
        }
    }

    /// Drill one group of a multi-level summary down a level, using the
    /// service's default algorithm configuration. The underlying stack is
    /// built (and cached) on first use; a warm expand only walks the
    /// cached stack — it never recomputes matrices or selections.
    pub fn expand(
        &self,
        fingerprint: SchemaFingerprint,
        algorithm: Algorithm,
        sizes: &[usize],
        level: usize,
        group: usize,
    ) -> Result<ServedExpansion, ServiceError> {
        let config = self.config.summarizer.clone();
        self.expand_with(fingerprint, algorithm, sizes, level, group, &config)
    }

    /// Drill-down with an explicit algorithm configuration.
    pub fn expand_with(
        &self,
        fingerprint: SchemaFingerprint,
        algorithm: Algorithm,
        sizes: &[usize],
        level: usize,
        group: usize,
        config: &SummarizerConfig,
    ) -> Result<ServedExpansion, ServiceError> {
        let served = self.multi_level_with(fingerprint, algorithm, sizes, config)?;
        let result = self.expansion(fingerprint, algorithm, &served.result, level, group)?;
        Ok(ServedExpansion {
            result,
            from_cache: served.from_cache,
        })
    }

    /// Walk a level stack to one group's drill-down: the finer groups
    /// inside it, or its raw elements at level 0. Never computes.
    fn expansion(
        &self,
        fingerprint: SchemaFingerprint,
        algorithm: Algorithm,
        stack: &MultiLevelArtifact,
        level: usize,
        group: usize,
    ) -> Result<ExpandResult, ServiceError> {
        let ml = &stack.summary;
        if level >= ml.depth() {
            return Err(ServiceError::BadRequest(format!(
                "level {level} out of range (stack depth {})",
                ml.depth()
            )));
        }
        let level_summary = ml.level(level);
        let Some(expanded) = level_summary.abstracts().get(group) else {
            return Err(ServiceError::BadRequest(format!(
                "group {group} out of range at level {level} (size {})",
                level_summary.size()
            )));
        };
        let entry = self
            .store
            .catalog()
            .get(fingerprint)
            .ok_or(ServiceError::UnknownFingerprint(fingerprint))?;
        let graph = entry.graph();
        let (children, elements) = if level == 0 {
            let elements = expanded
                .members
                .iter()
                .map(|&e| graph.label_path(e))
                .collect();
            (Vec::new(), elements)
        } else {
            let fine = ml.level(level - 1);
            let children = ml
                .child_groups(level - 1, AbstractId(group as u32))
                .into_iter()
                .map(|cg| {
                    let child = &fine.abstracts()[cg.index()];
                    GroupView {
                        group: cg.index(),
                        representative: graph.label_path(child.representative),
                        size: child.members.len(),
                    }
                })
                .collect();
            (children, Vec::new())
        };
        Ok(ExpandResult {
            fingerprint,
            algorithm,
            sizes: ml.sizes(),
            level,
            group,
            representative: graph.label_path(expanded.representative),
            children,
            elements,
        })
    }

    /// The result key of a flat summary.
    fn flat_key(
        fingerprint: SchemaFingerprint,
        algorithm: Algorithm,
        k: usize,
        config: &SummarizerConfig,
    ) -> ResultKey {
        ResultKey {
            fingerprint,
            shape: ResultShape::Flat { algorithm, k },
            options: config.clone(),
        }
    }

    /// The result key of a multi-level stack; a stack needs at least one
    /// level.
    fn multi_level_key(
        fingerprint: SchemaFingerprint,
        algorithm: Algorithm,
        sizes: &[usize],
        config: &SummarizerConfig,
    ) -> Result<ResultKey, ServiceError> {
        if sizes.is_empty() {
            return Err(ServiceError::BadRequest(
                "levels must name at least one size".into(),
            ));
        }
        Ok(ResultKey {
            fingerprint,
            shape: ResultShape::MultiLevel {
                algorithm,
                sizes: sizes.to_vec(),
            },
            options: config.clone(),
        })
    }

    /// Serve `key` through every tier, computing it on a miss.
    fn serve_key(&self, key: &ResultKey) -> Result<(CachedArtifact, bool), ServiceError> {
        self.store.serve(key, &|| self.compute(key))
    }

    /// Compute `key`'s artifact cold (called by a single-flight leader).
    fn compute(&self, key: &ResultKey) -> Result<CachedArtifact, ServiceError> {
        match &key.shape {
            ResultShape::Flat { algorithm, k } => self
                .compute_flat(key.fingerprint, *algorithm, *k, &key.options)
                .map(CachedArtifact::Flat),
            ResultShape::MultiLevel { algorithm, sizes } => self
                .compute_multi_level(key.fingerprint, *algorithm, sizes, &key.options)
                .map(CachedArtifact::MultiLevel),
        }
    }

    /// Run the selection algorithm shared by flat and multi-level
    /// requests.
    fn select_elements(
        &self,
        entry: &crate::catalog::CatalogEntry,
        algorithm: Algorithm,
        k: usize,
        config: &SummarizerConfig,
    ) -> Result<Vec<ElementId>, ServiceError> {
        let graph = entry.graph();
        let stats = entry.stats();
        let artifacts = entry.artifacts(config);
        let selection = match algorithm {
            Algorithm::MaxImportance => max_importance(graph, artifacts.importance(), k)?,
            Algorithm::MaxCoverage => max_coverage(
                graph,
                stats,
                artifacts.matrices(),
                artifacts.dominance(),
                k,
                config.search,
            )?,
            Algorithm::Balance => {
                balance_summary(graph, artifacts.importance(), artifacts.dominance(), k)?
            }
        };
        Ok(selection)
    }

    /// Compute a cold flat summary (called by a single-flight leader).
    fn compute_flat(
        &self,
        fingerprint: SchemaFingerprint,
        algorithm: Algorithm,
        k: usize,
        config: &SummarizerConfig,
    ) -> Result<Arc<SummaryResult>, ServiceError> {
        let entry = self
            .store
            .catalog()
            .get(fingerprint)
            .ok_or(ServiceError::UnknownFingerprint(fingerprint))?;
        let selection = self.select_elements(&entry, algorithm, k, config)?;
        let graph = entry.graph();
        let stats = entry.stats();
        let artifacts = entry.artifacts(config);
        let matrices = artifacts.matrices();
        let assignment = assign_elements(graph, matrices, &selection);
        let importance = summary_importance(graph, artifacts.importance(), &selection);
        let coverage = summary_coverage(graph, stats, matrices, &selection, &assignment);
        let labels = selection.iter().map(|&e| graph.label_path(e)).collect();
        Ok(Arc::new(SummaryResult {
            fingerprint,
            algorithm,
            k,
            selection,
            labels,
            importance,
            coverage,
        }))
    }

    /// Compute a cold multi-level stack (called by a single-flight
    /// leader): select the finest level, then derive the coarser levels
    /// from the memoized matrices.
    fn compute_multi_level(
        &self,
        fingerprint: SchemaFingerprint,
        algorithm: Algorithm,
        sizes: &[usize],
        config: &SummarizerConfig,
    ) -> Result<Arc<MultiLevelArtifact>, ServiceError> {
        let entry = self
            .store
            .catalog()
            .get(fingerprint)
            .ok_or(ServiceError::UnknownFingerprint(fingerprint))?;
        let selection = self.select_elements(&entry, algorithm, sizes[0], config)?;
        let graph = entry.graph();
        let artifacts = entry.artifacts(config);
        let summary = build_multi_level(graph, artifacts.matrices(), &selection, &sizes[1..])?;
        let view = Self::view_of(graph, fingerprint, algorithm, &summary);
        Ok(Arc::new(MultiLevelArtifact { summary, view }))
    }

    /// Project a level stack onto its wire view.
    fn view_of(
        graph: &SchemaGraph,
        fingerprint: SchemaFingerprint,
        algorithm: Algorithm,
        summary: &MultiLevelSummary,
    ) -> MultiLevelResult {
        let levels = summary
            .levels()
            .iter()
            .map(|level| LevelView {
                size: level.size(),
                groups: level
                    .abstracts()
                    .iter()
                    .enumerate()
                    .map(|(i, a)| GroupView {
                        group: i,
                        representative: graph.label_path(a.representative),
                        size: a.members.len(),
                    })
                    .collect(),
            })
            .collect();
        MultiLevelResult {
            fingerprint,
            algorithm,
            sizes: summary.sizes(),
            levels,
        }
    }

    /// Resolve a request's schema name (defaulting to the sole registered
    /// schema) and algorithm.
    fn resolve(
        &self,
        request: &SummaryRequest,
    ) -> Result<(SchemaFingerprint, Algorithm), ServiceError> {
        let fingerprint = match &request.schema {
            Some(name) => self
                .fingerprint_of(name)
                .ok_or_else(|| ServiceError::UnknownSchema(name.clone()))?,
            None => {
                let names = self.names.read().expect("names poisoned");
                match names.len() {
                    0 => return Err(ServiceError::BadRequest("no schema registered".into())),
                    1 => *names.values().next().expect("len checked"),
                    n => {
                        return Err(ServiceError::BadRequest(format!(
                            "request names no schema but {n} are registered"
                        )))
                    }
                }
            }
        };
        let algorithm = match request.algorithm.as_deref() {
            None => Algorithm::Balance,
            Some(name) => name.parse().map_err(ServiceError::BadRequest)?,
        };
        Ok((fingerprint, algorithm))
    }

    /// Resolve a [`SummaryRequest`] to the key of the one artifact it
    /// reads, plus the drill-down step its reply takes from that artifact.
    fn plan<'r>(
        &self,
        request: &'r SummaryRequest,
    ) -> Result<(ResultKey, Option<&'r ExpandSpec>), ServiceError> {
        let (fingerprint, algorithm) = self.resolve(request)?;
        let config = &self.config.summarizer;
        match (&request.levels, &request.expand) {
            (None, Some(_)) => Err(ServiceError::BadRequest(
                "expand requires levels (the stack to drill into)".into(),
            )),
            (Some(sizes), expand) => Ok((
                Self::multi_level_key(fingerprint, algorithm, sizes, config)?,
                expand.as_ref(),
            )),
            (None, None) => Ok((
                Self::flat_key(fingerprint, algorithm, request.k.unwrap_or(5), config),
                None,
            )),
        }
    }

    /// Shape a served artifact into the reply [`plan`](Self::plan) asked
    /// for.
    fn reply(
        &self,
        key: &ResultKey,
        expand: Option<&ExpandSpec>,
        artifact: CachedArtifact,
        from_cache: bool,
    ) -> Result<ServedReply, ServiceError> {
        match (artifact, expand) {
            (CachedArtifact::Flat(result), None) => {
                Ok(ServedReply::Flat(ServedSummary { result, from_cache }))
            }
            (CachedArtifact::MultiLevel(result), None) => {
                Ok(ServedReply::MultiLevel(ServedMultiLevel { result, from_cache }))
            }
            (CachedArtifact::MultiLevel(stack), Some(spec)) => self
                .expansion(
                    key.fingerprint,
                    key.shape.algorithm(),
                    &stack,
                    spec.level,
                    spec.group,
                )
                .map(|result| ServedReply::Expansion(ServedExpansion { result, from_cache })),
            (CachedArtifact::Flat(_), Some(_)) => {
                unreachable!("a drill-down is only planned on a multi-level key")
            }
        }
    }

    /// Answer any [`SummaryRequest`]: `expand` (requires `levels`) drills
    /// a cached stack, `levels` builds/serves a multi-level summary, and
    /// otherwise a flat summary with `k = 5` by default.
    pub fn handle_request(&self, request: &SummaryRequest) -> Result<ServedReply, ServiceError> {
        let (key, expand) = self.plan(request)?;
        let (artifact, from_cache) = self.serve_key(&key)?;
        self.reply(&key, expand, artifact, from_cache)
    }

    /// Answer a [`SummaryRequest`] from the memory tier alone, exactly as
    /// [`handle_request`](Self::handle_request) would — same reply, same
    /// error for an out-of-range drill-down, same hit counted — when the
    /// artifact it reads is resident. `None` otherwise, with nothing
    /// counted: the artifact is on disk, being computed, or absent, or the
    /// request does not resolve; `handle_request` then serves it. Never
    /// reads disk, computes or blocks on another request's computation,
    /// so a caller may run it where blocking is not allowed.
    pub fn handle_resident(
        &self,
        request: &SummaryRequest,
    ) -> Option<Result<ServedReply, ServiceError>> {
        let (key, expand) = self.plan(request).ok()?;
        let artifact = self.store.lookup(&key)?;
        Some(self.reply(&key, expand, artifact, true))
    }

    /// Answer a flat [`SummaryRequest`] (compatibility entry point for
    /// embedders; multi-level requests go through
    /// [`SummaryService::handle_request`]).
    pub fn handle(&self, request: &SummaryRequest) -> Result<ServedSummary, ServiceError> {
        match self.handle_request(request)? {
            ServedReply::Flat(served) => Ok(served),
            _ => Err(ServiceError::BadRequest(
                "multi-level request answered through handle(); use handle_request()".into(),
            )),
        }
    }

    /// Evict one fingerprint from every tier: its catalog entry (with all
    /// memoized artifacts), every cached result computed from it, and its
    /// spilled files. Returns the number of cached results dropped.
    pub fn invalidate(&self, fingerprint: SchemaFingerprint) -> usize {
        let dropped = self.store.invalidate(fingerprint);
        if let Some(journal) = &self.journal {
            journal.append_retire(fingerprint);
        }
        dropped
    }

    /// Maintenance hook for schema deltas (`schema_summary_core::diff`).
    ///
    /// An empty delta (content unchanged) touches nothing. A non-empty
    /// delta routes through `ArtifactStore::refresh`: when the new
    /// fingerprint is registered and the delta qualifies (same graph,
    /// footprint within [`ServiceConfig::delta_max_fraction`] of the
    /// elements), the new fingerprint's matrices are spliced from the old
    /// fingerprint's — bit-identical to cold recomputes — the old
    /// importance vectors are staged as ε-close fixpoint restart seeds
    /// (DESIGN.md §3.19), and the old cached results are re-derived warm
    /// under the new fingerprint. Matrices and coverage stay bit-exact;
    /// reported importance mass is ε-close, and selections agree with a
    /// cold service whenever the importance ranking is stable under that
    /// ε perturbation (scores within ε of each other may order
    /// differently). Otherwise the old fingerprint is simply
    /// invalidated, as before. Returns what this refresh did: the cached
    /// results dropped, whether it ran warm, and the rows it recomputed.
    pub fn apply_delta(&self, delta: &SchemaDelta) -> DeltaOutcome {
        match self.store.refresh(
            delta.old_fingerprint,
            delta.new_fingerprint,
            delta,
            self.config.delta_max_fraction,
        ) {
            RefreshOutcome::Noop => DeltaOutcome::default(),
            RefreshOutcome::Cold(dropped) => {
                if let Some(journal) = &self.journal {
                    journal.append_retire(delta.old_fingerprint);
                }
                DeltaOutcome {
                    dropped,
                    ..DeltaOutcome::default()
                }
            }
            RefreshOutcome::Warm {
                dropped,
                rows,
                derive,
            } => {
                if let Some(journal) = &self.journal {
                    journal.append_retire(delta.old_fingerprint);
                }
                for (old_key, old_artifact, row_changed) in derive {
                    self.derive_result(
                        &old_key,
                        delta.new_fingerprint,
                        &old_artifact,
                        &row_changed,
                    );
                }
                DeltaOutcome {
                    dropped,
                    warm: true,
                    rows_recomputed: rows,
                }
            }
        }
    }

    /// Rebuild one old cached result under the new fingerprint, through
    /// the normal single-flight `serve` so concurrent requests share the
    /// work. Multi-level stacks are patched from the old stack where the
    /// delta plan allows; flat summaries recompute their (cheap)
    /// selection against the seeded matrices. Failures are dropped — the
    /// result then simply computes cold on next request.
    fn derive_result(
        &self,
        old_key: &ResultKey,
        new_fp: SchemaFingerprint,
        old_artifact: &CachedArtifact,
        row_changed: &[bool],
    ) {
        let new_key = ResultKey {
            fingerprint: new_fp,
            shape: old_key.shape.clone(),
            options: old_key.options.clone(),
        };
        let _ = self
            .store
            .serve(&new_key, &|| match (&new_key.shape, old_artifact) {
                (
                    ResultShape::MultiLevel { algorithm, sizes },
                    CachedArtifact::MultiLevel(prev),
                ) => self
                    .refresh_multi_level_artifact(
                        new_fp,
                        *algorithm,
                        sizes,
                        &new_key.options,
                        prev,
                        row_changed,
                    )
                    .map(CachedArtifact::MultiLevel),
                _ => self.compute(&new_key),
            });
    }

    /// Derive a multi-level stack for `fingerprint` by patching a cached
    /// previous stack: re-select the finest level (cheap against the
    /// seeded matrices), then let `refresh_multi_level` re-assign only
    /// the rows the delta touched — falling back to a full rebuild
    /// internally when the cached stack does not match. Bit-identical to
    /// [`SummaryService::compute_multi_level`] either way.
    fn refresh_multi_level_artifact(
        &self,
        fingerprint: SchemaFingerprint,
        algorithm: Algorithm,
        sizes: &[usize],
        config: &SummarizerConfig,
        previous: &MultiLevelArtifact,
        row_changed: &[bool],
    ) -> Result<Arc<MultiLevelArtifact>, ServiceError> {
        let entry = self
            .store
            .catalog()
            .get(fingerprint)
            .ok_or(ServiceError::UnknownFingerprint(fingerprint))?;
        let selection = self.select_elements(&entry, algorithm, sizes[0], config)?;
        let graph = entry.graph();
        let artifacts = entry.artifacts(config);
        let (summary, _patched) = refresh_multi_level(
            graph,
            artifacts.matrices(),
            &selection,
            &sizes[1..],
            &previous.summary,
            row_changed,
        )?;
        let view = Self::view_of(graph, fingerprint, algorithm, &summary);
        Ok(Arc::new(MultiLevelArtifact { summary, view }))
    }

    /// Admin entry point (`POST /admin/refresh`): diff two registered
    /// fingerprints and route the delta through the warm refresh path,
    /// exactly as [`SummaryService::update_named`] does on re-register.
    /// Returns the delta and what this refresh did with it.
    pub fn refresh_between(
        &self,
        old_fp: SchemaFingerprint,
        new_fp: SchemaFingerprint,
    ) -> Result<(SchemaDelta, DeltaOutcome), ServiceError> {
        let old = self
            .store
            .catalog()
            .get(old_fp)
            .ok_or(ServiceError::UnknownFingerprint(old_fp))?;
        if old_fp == new_fp {
            // A refresh of a fingerprint onto itself is a retry of an
            // already-applied update: identical content, nothing to diff.
            // Short-circuit without touching the store so no cached
            // result is purged and no delta counter moves.
            let delta = SchemaDelta::between(
                old_fp,
                old.graph(),
                old.stats(),
                old_fp,
                old.graph(),
                old.stats(),
            );
            return Ok((delta, DeltaOutcome::default()));
        }
        let new = self
            .store
            .catalog()
            .get(new_fp)
            .ok_or(ServiceError::UnknownFingerprint(new_fp))?;
        // The catalog keys each entry by its content's fingerprint, so the
        // diff need not hash either schema again.
        let delta = SchemaDelta::between(
            old_fp,
            old.graph(),
            old.stats(),
            new_fp,
            new.graph(),
            new.stats(),
        );
        let outcome = self.apply_delta(&delta);
        Ok((delta, outcome))
    }

    /// Re-register a named schema with fresh content: registers the new
    /// content under the name, computes the [`SchemaDelta`] against the
    /// previously registered content, and applies it — refreshing the
    /// new fingerprint's artifacts warm from the old ones when the delta
    /// qualifies, evicting the stale fingerprint either way. Returns the
    /// delta. (The new content is registered *before* the delta is
    /// computed, so the diff reuses both catalog fingerprints and the
    /// warm path has a destination to seed.)
    pub fn update_named(
        &self,
        name: &str,
        graph: Arc<SchemaGraph>,
        stats: Arc<SchemaStats>,
    ) -> Result<SchemaDelta, ServiceError> {
        let old_fp = self
            .fingerprint_of(name)
            .ok_or_else(|| ServiceError::UnknownSchema(name.to_string()))?;
        let old = self
            .store
            .catalog()
            .get(old_fp)
            .ok_or(ServiceError::UnknownFingerprint(old_fp))?;
        let new_fp = self.register_named(name, Arc::clone(&graph), Arc::clone(&stats));
        let delta = SchemaDelta::between(old_fp, old.graph(), old.stats(), new_fp, &graph, &stats);
        self.apply_delta(&delta);
        Ok(delta)
    }

    /// Wait until every disk-tier write and purge queued before this call
    /// has run, so its files are visible in the store directory (not
    /// fsynced). Spills are asynchronous: read the disk counters or the
    /// directory after this. A no-op without a store directory.
    pub fn flush_store(&self) {
        if let Some(disk) = self.store.disk() {
            disk.flush();
        }
    }

    /// Current cache statistics.
    pub fn cache_stats(&self) -> CacheStats {
        self.store.stats()
    }

    /// Snapshot the resident result-cache entries (the admin inspection
    /// view), sorted by fingerprint then shape for deterministic output.
    pub fn cached_entries(&self) -> Vec<CacheEntryInfo> {
        let mut entries: Vec<CacheEntryInfo> = self
            .store
            .result_entries()
            .into_iter()
            .map(|(key, cost)| CacheEntryInfo {
                fingerprint: key.fingerprint.to_hex(),
                shape: match &key.shape {
                    ResultShape::Flat { algorithm, k } => format!("flat/{algorithm}/k={k}"),
                    ResultShape::MultiLevel { algorithm, sizes } => {
                        let sizes = sizes
                            .iter()
                            .map(|s| s.to_string())
                            .collect::<Vec<_>>()
                            .join(",");
                        format!("multilevel/{algorithm}/{sizes}")
                    }
                },
                cost_micros: cost,
            })
            .collect();
        entries.sort();
        entries
    }

    /// Evict one fingerprint's cached *results* — the in-memory entries
    /// and the spilled flat/multi-level summaries — while keeping the
    /// schema registered and its memoized matrices. The next identical
    /// request is a cache miss that recomputes only the selection; a
    /// full teardown is [`SummaryService::invalidate`]. Returns the
    /// number of in-memory results dropped.
    pub fn evict_fingerprint(&self, fingerprint: SchemaFingerprint) -> usize {
        self.store.evict_results(fingerprint)
    }

    /// Build a condensed machine-readable export of a flat summary: the
    /// selection (served through the cache tiers like any request) joined
    /// with each element's importance score and cardinality.
    pub fn export_summary(
        &self,
        fingerprint: SchemaFingerprint,
        algorithm: Algorithm,
        k: usize,
    ) -> Result<SummaryExport, ServiceError> {
        let served = self.summarize(fingerprint, algorithm, k)?;
        let entry = self
            .store
            .catalog()
            .get(fingerprint)
            .ok_or(ServiceError::UnknownFingerprint(fingerprint))?;
        let stats = entry.stats();
        let config = self.config.summarizer.clone();
        let artifacts = entry.artifacts(&config);
        let importance = artifacts.importance();
        let elements = served
            .result
            .selection
            .iter()
            .zip(&served.result.labels)
            .map(|(&e, label)| ExportElement {
                label: label.clone(),
                importance: importance.score(e),
                cardinality: stats.card(e),
            })
            .collect();
        let schema = self
            .names
            .read()
            .expect("names poisoned")
            .iter()
            .find(|(_, &fp)| fp == fingerprint)
            .map(|(name, _)| name.clone());
        Ok(SummaryExport {
            schema,
            fingerprint: fingerprint.to_hex(),
            algorithm: algorithm.to_string(),
            k: served.result.k,
            schema_elements: stats.len(),
            importance: served.result.importance,
            coverage: served.result.coverage,
            elements,
        })
    }

    /// Per-shard occupancy of the catalog and result tiers.
    pub fn catalog_stats(&self) -> CatalogStats {
        let catalog_shard_entries = self.store.catalog().shard_lens();
        CatalogStats {
            schemas: catalog_shard_entries.iter().sum(),
            catalog_shard_entries,
            result_shard_entries: self.store.result_shard_lens(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema_summary_core::stats::LinkCount;
    use schema_summary_core::{DeltaClass, SchemaGraphBuilder, SchemaType};

    fn fixture() -> (Arc<SchemaGraph>, Arc<SchemaStats>) {
        fixture_with_cards(200, 200)
    }

    /// Fixture with a bumpable leaf (`name`, all RCs ≤ 1: a card change is
    /// a pure coverage rescale) and a bumpable hub (`person`, whose
    /// `RC(person→bidder) = 600/card` factor is unclamped: a card change
    /// re-explores every row that reads it).
    fn fixture_with_name_card(name_card: u64) -> (Arc<SchemaGraph>, Arc<SchemaStats>) {
        fixture_with_cards(name_card, 200)
    }

    fn fixture_with_cards(
        name_card: u64,
        person_card: u64,
    ) -> (Arc<SchemaGraph>, Arc<SchemaStats>) {
        let mut b = SchemaGraphBuilder::new("site");
        let people = b.add_child(b.root(), "people", SchemaType::rcd()).unwrap();
        let person = b
            .add_child(people, "person", SchemaType::set_of_rcd())
            .unwrap();
        b.add_child(person, "name", SchemaType::simple_str())
            .unwrap();
        let auctions = b
            .add_child(b.root(), "auctions", SchemaType::rcd())
            .unwrap();
        let auction = b
            .add_child(auctions, "auction", SchemaType::set_of_rcd())
            .unwrap();
        let bidder = b
            .add_child(auction, "bidder", SchemaType::set_of_rcd())
            .unwrap();
        b.add_value_link(bidder, person).unwrap();
        let g = b.build().unwrap();
        let find = |l: &str| g.find_unique(l).unwrap();
        let mut cards = vec![1u64; g.len()];
        for (label, c) in [
            ("person", person_card),
            ("name", name_card),
            ("auction", 100),
            ("bidder", 600),
        ] {
            cards[find(label).index()] = c;
        }
        let links = vec![
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
            LinkCount {
                from: g.root(),
                to: find("auctions"),
                count: 1,
            },
            LinkCount {
                from: find("auctions"),
                to: find("auction"),
                count: 100,
            },
            LinkCount {
                from: find("auction"),
                to: find("bidder"),
                count: 600,
            },
            LinkCount {
                from: find("bidder"),
                to: find("person"),
                count: 600,
            },
        ];
        let s = SchemaStats::from_link_counts(&g, &cards, &links).unwrap();
        (Arc::new(g), Arc::new(s))
    }

    /// The base fixture grown in place: identical declarations in the
    /// same order plus an appended `wishlist` set under `person` — an
    /// additive structural delta whose identity prefix matches the base
    /// fixture, so the warm path can resize instead of falling cold.
    fn grown_fixture() -> (Arc<SchemaGraph>, Arc<SchemaStats>) {
        let mut b = SchemaGraphBuilder::new("site");
        let people = b.add_child(b.root(), "people", SchemaType::rcd()).unwrap();
        let person = b
            .add_child(people, "person", SchemaType::set_of_rcd())
            .unwrap();
        b.add_child(person, "name", SchemaType::simple_str())
            .unwrap();
        let auctions = b
            .add_child(b.root(), "auctions", SchemaType::rcd())
            .unwrap();
        let auction = b
            .add_child(auctions, "auction", SchemaType::set_of_rcd())
            .unwrap();
        let bidder = b
            .add_child(auction, "bidder", SchemaType::set_of_rcd())
            .unwrap();
        b.add_value_link(bidder, person).unwrap();
        b.add_child(person, "wishlist", SchemaType::set_of_rcd())
            .unwrap();
        let g = b.build().unwrap();
        let find = |l: &str| g.find_unique(l).unwrap();
        let mut cards = vec![1u64; g.len()];
        for (label, c) in [
            ("person", 200),
            ("name", 200),
            ("auction", 100),
            ("bidder", 600),
            ("wishlist", 300),
        ] {
            cards[find(label).index()] = c;
        }
        let links = vec![
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
            LinkCount {
                from: g.root(),
                to: find("auctions"),
                count: 1,
            },
            LinkCount {
                from: find("auctions"),
                to: find("auction"),
                count: 100,
            },
            LinkCount {
                from: find("auction"),
                to: find("bidder"),
                count: 600,
            },
            LinkCount {
                from: find("bidder"),
                to: find("person"),
                count: 600,
            },
            LinkCount {
                from: find("person"),
                to: find("wishlist"),
                count: 300,
            },
        ];
        let s = SchemaStats::from_link_counts(&g, &cards, &links).unwrap();
        (Arc::new(g), Arc::new(s))
    }

    #[test]
    fn second_identical_request_hits_the_cache() {
        let service = SummaryService::default();
        let (g, s) = fixture();
        let fp = service.register(g, s);
        let first = service.summarize(fp, Algorithm::Balance, 2).unwrap();
        assert!(!first.from_cache);
        let second = service.summarize(fp, Algorithm::Balance, 2).unwrap();
        assert!(second.from_cache);
        assert!(Arc::ptr_eq(&first.result, &second.result));
        let stats = service.cache_stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.entries, 1);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn results_match_the_summarizer_facade() {
        let service = SummaryService::default();
        let (g, s) = fixture();
        let fp = service.register(Arc::clone(&g), Arc::clone(&s));
        for algorithm in [
            Algorithm::MaxImportance,
            Algorithm::MaxCoverage,
            Algorithm::Balance,
        ] {
            for k in [1, 2, 3] {
                let served = service.summarize(fp, algorithm, k).unwrap();
                let mut facade = schema_summary_algo::Summarizer::new(&g, &s);
                let expected = facade.select(k, algorithm).unwrap();
                assert_eq!(served.result.selection, expected, "{algorithm:?} k={k}");
                assert_eq!(served.result.labels.len(), k);
            }
        }
    }

    #[test]
    fn named_requests_and_defaults() {
        let service = SummaryService::default();
        let (g, s) = fixture();
        service.register_named("site", g, s);
        let served = service.handle(&SummaryRequest::default()).unwrap();
        assert_eq!(served.result.k, 5);
        assert_eq!(served.result.algorithm, Algorithm::Balance);
        let named = service
            .handle(&SummaryRequest {
                schema: Some("site".into()),
                algorithm: Some("importance".into()),
                k: Some(2),
                ..Default::default()
            })
            .unwrap();
        assert_eq!(named.result.algorithm, Algorithm::MaxImportance);
        assert!(matches!(
            service.handle(&SummaryRequest {
                schema: Some("nope".into()),
                ..Default::default()
            }),
            Err(ServiceError::UnknownSchema(_))
        ));
        assert!(matches!(
            service.handle(&SummaryRequest {
                algorithm: Some("bogus".into()),
                ..Default::default()
            }),
            Err(ServiceError::BadRequest(_))
        ));
    }

    #[test]
    fn invalidation_evicts_exactly_the_stale_fingerprint() {
        let service = SummaryService::default();
        let (g, s) = fixture();
        let fp_old = service.register_named("site", Arc::clone(&g), Arc::clone(&s));
        service.summarize(fp_old, Algorithm::Balance, 2).unwrap();
        service
            .summarize(fp_old, Algorithm::MaxImportance, 2)
            .unwrap();

        // Same structure, doubled cardinalities: a genuine delta. Every RC
        // is unchanged bit-for-bit, so this rides the warm pure-rescale
        // path — which must still evict the stale fingerprint completely.
        let s2 = Arc::new(s.scaled(2.0));
        let delta = service
            .update_named("site", Arc::clone(&g), Arc::clone(&s2))
            .unwrap();
        assert!(!delta.is_empty());
        assert_eq!(delta.old_fingerprint, fp_old);

        // The old fingerprint no longer resolves; its results were dropped
        // (and re-derived under the new fingerprint by the warm refresh).
        assert!(matches!(
            service.summarize(fp_old, Algorithm::Balance, 2),
            Err(ServiceError::UnknownFingerprint(_))
        ));
        assert_eq!(service.cache_stats().invalidations, 2);
        assert_eq!(service.cache_stats().delta_refreshes, 1);
        assert_eq!(service.cache_stats().entries, 2);
        // The name now serves the new content.
        let served = service.handle(&SummaryRequest::default()).unwrap();
        assert_eq!(served.result.fingerprint, delta.new_fingerprint);
    }

    #[test]
    fn no_op_update_keeps_cache_warm() {
        let service = SummaryService::default();
        let (g, s) = fixture();
        let fp = service.register_named("site", Arc::clone(&g), Arc::clone(&s));
        service.summarize(fp, Algorithm::Balance, 2).unwrap();
        // Re-registering identical content produces an empty delta and
        // must not evict anything.
        let delta = service.update_named("site", g, s).unwrap();
        assert!(delta.is_empty());
        assert_eq!(service.cache_stats().entries, 1);
        assert!(
            service
                .summarize(fp, Algorithm::Balance, 2)
                .unwrap()
                .from_cache
        );
    }

    #[test]
    fn small_delta_refreshes_results_warm_within_tolerance() {
        // The tiny fixture graph is well inside any BFS horizon, so the
        // fraction guard must be open for the warm path to engage.
        let service = SummaryService::new(ServiceConfig {
            delta_max_fraction: 1.0,
            ..Default::default()
        });
        let (g, s) = fixture();
        let fp_old = service.register_named("site", Arc::clone(&g), Arc::clone(&s));
        let sizes = [4usize, 2];
        service.summarize(fp_old, Algorithm::Balance, 2).unwrap();
        service
            .multi_level(fp_old, Algorithm::Balance, &sizes)
            .unwrap();
        let computed_before = service.cache_stats().matrices_computed;
        assert_eq!(computed_before, 1);

        // Bump one leaf cardinality: a small, structure-preserving delta.
        let (g2, s2) = fixture_with_name_card(220);
        let delta = service.update_named("site", Arc::clone(&g2), s2).unwrap();
        assert!(!delta.is_empty());
        assert_eq!(delta.changed_cardinalities.len(), 1);

        assert_eq!(delta.class, DeltaClass::Rescale);

        let stats = service.cache_stats();
        assert_eq!(stats.delta_refreshes, 1, "the delta must be served warm");
        assert_eq!(stats.delta_refreshes_rescale, 1);
        assert_eq!(stats.delta_refreshes_splice, 0);
        assert_eq!(stats.delta_refreshes_structural, 0);
        assert_eq!(stats.delta_fallback_cold, 0);
        // A leaf growing keeps every rc_factor clamped and every w_back
        // count ratio: no row re-explores, the splice rescales coverage.
        assert_eq!(stats.delta_rows_recomputed, 0);
        assert_eq!(
            stats.matrices_computed, computed_before,
            "the new fingerprint's matrices must be spliced, not recomputed"
        );

        // The re-derived results are already cached under the new
        // fingerprint...
        let warm_flat = service
            .summarize(delta.new_fingerprint, Algorithm::Balance, 2)
            .unwrap();
        assert!(warm_flat.from_cache);
        let warm_ml = service
            .multi_level(delta.new_fingerprint, Algorithm::Balance, &sizes)
            .unwrap();
        assert!(warm_ml.from_cache);
        // ...and no matrix computation happened along the way.
        assert_eq!(service.cache_stats().matrices_computed, computed_before);

        // The warm re-derivation forced the new fingerprint's importance
        // through the seeded restart.
        let stats = service.cache_stats();
        assert_eq!(stats.importance_seeded, 1);

        // The warm answers obey the documented tolerance contract against
        // a cold service over the same new content: selection, labels,
        // and coverage bit-identical (they come from the spliced, bit-
        // exact matrices), summary importance ε-close (the seeded restart
        // stops at a different point of the same convergence ball).
        let cold = SummaryService::default();
        let (g3, s3) = fixture_with_name_card(220);
        let fp_cold = cold.register(g3, s3);
        assert_eq!(fp_cold, delta.new_fingerprint);
        let cold_flat = cold.summarize(fp_cold, Algorithm::Balance, 2).unwrap();
        let cold_ml = cold
            .multi_level(fp_cold, Algorithm::Balance, &sizes)
            .unwrap();
        assert_eq!(warm_flat.result.selection, cold_flat.result.selection);
        assert_eq!(warm_flat.result.labels, cold_flat.result.labels);
        assert_eq!(
            warm_flat.result.coverage.to_bits(),
            cold_flat.result.coverage.to_bits()
        );
        let (warm_i, cold_i) = (warm_flat.result.importance, cold_flat.result.importance);
        assert!(
            (warm_i - cold_i).abs() <= 10.0 * 0.001 * cold_i.abs(),
            "summary importance must be ε-close: warm {warm_i} vs cold {cold_i}"
        );
        // The stack is selection + matrices only — bit-identical.
        assert_eq!(*warm_ml.result, *cold_ml.result);
    }

    #[test]
    fn oversized_delta_falls_back_cold() {
        // Default fraction (0.25): doubling person's cardinality moves its
        // unclamped RC(person→bidder) factor, every source's trace reads
        // person on this connected fixture, so the plan wants all rows —
        // the refresh must fall back to plain invalidation.
        let service = SummaryService::default();
        let (g, s) = fixture();
        let fp_old = service.register_named("site", Arc::clone(&g), Arc::clone(&s));
        service.summarize(fp_old, Algorithm::Balance, 2).unwrap();
        let (g2, s2) = fixture_with_cards(200, 400);
        let delta = service.update_named("site", g2, s2).unwrap();
        assert!(!delta.is_empty());
        assert_eq!(delta.class, DeltaClass::EdgeTouch);
        let stats = service.cache_stats();
        assert_eq!(stats.delta_refreshes, 0);
        assert_eq!(stats.delta_refreshes_splice, 0, "fallbacks count in no class");
        assert_eq!(stats.delta_fallback_cold, 1);
        assert_eq!(stats.entries, 0, "cold fallback drops the old results");
    }

    #[test]
    fn structural_growth_refreshes_warm_and_counts_by_class() {
        let service = SummaryService::new(ServiceConfig {
            delta_max_fraction: 1.0,
            ..Default::default()
        });
        let (g, s) = fixture();
        let fp_old = service.register_named("site", Arc::clone(&g), Arc::clone(&s));
        service.summarize(fp_old, Algorithm::Balance, 2).unwrap();
        let computed_before = service.cache_stats().matrices_computed;
        assert_eq!(computed_before, 1);

        let (g2, s2) = grown_fixture();
        let delta = service.update_named("site", g2, s2).unwrap();
        assert_eq!(delta.class, DeltaClass::AdditiveStructural);
        assert_eq!(delta.added_elements.len(), 1);

        let stats = service.cache_stats();
        assert_eq!(stats.delta_refreshes, 1, "growth must be served warm");
        assert_eq!(stats.delta_refreshes_structural, 1);
        assert_eq!(stats.delta_refreshes_rescale, 0);
        assert_eq!(stats.delta_refreshes_splice, 0);
        assert_eq!(stats.delta_fallback_cold, 0);
        assert_eq!(
            stats.matrices_computed, computed_before,
            "the grown fingerprint's matrices must be resized and spliced, not recomputed"
        );
        assert_eq!(
            stats.importance_seeded, 1,
            "the grown fixpoint restarts from the rebased seed"
        );

        // The re-derived result is already cached under the new
        // fingerprint and bit-consistent with a cold service over the
        // same grown content (importance ε-close per the seeded-restart
        // contract).
        let warm = service
            .summarize(delta.new_fingerprint, Algorithm::Balance, 2)
            .unwrap();
        assert!(warm.from_cache);
        let cold = SummaryService::default();
        let (g3, s3) = grown_fixture();
        let fp_cold = cold.register(g3, s3);
        assert_eq!(fp_cold, delta.new_fingerprint);
        let cold_flat = cold.summarize(fp_cold, Algorithm::Balance, 2).unwrap();
        assert_eq!(warm.result.selection, cold_flat.result.selection);
        assert_eq!(warm.result.labels, cold_flat.result.labels);
        assert_eq!(
            warm.result.coverage.to_bits(),
            cold_flat.result.coverage.to_bits()
        );
        let (warm_i, cold_i) = (warm.result.importance, cold_flat.result.importance);
        assert!(
            (warm_i - cold_i).abs() <= 10.0 * 0.001 * cold_i.abs(),
            "summary importance must be ε-close: warm {warm_i} vs cold {cold_i}"
        );
    }

    #[test]
    fn concurrent_refreshes_each_report_their_own_outcome() {
        // Edge-touch pairs: bumping `person` re-explores rows warm. Each
        // pair differs in `name`'s cardinality, so fingerprints are distinct.
        let pair = |i: u64| {
            (
                fixture_with_cards(201 + i, 200),
                fixture_with_cards(201 + i, 300),
            )
        };
        let register_pair = |service: &SummaryService, (old, new): &(_, _)| {
            let (og, os): &(Arc<SchemaGraph>, Arc<SchemaStats>) = old;
            let (ng, ns): &(Arc<SchemaGraph>, Arc<SchemaStats>) = new;
            let old_fp = service.register(Arc::clone(og), Arc::clone(os));
            let new_fp = service.register(Arc::clone(ng), Arc::clone(ns));
            (old_fp, new_fp)
        };
        // What each warm refresh recomputes when it runs alone.
        let expected: Vec<u64> = (0..6)
            .map(|i| {
                let service = SummaryService::new(ServiceConfig {
                    delta_max_fraction: 1.0,
                    ..ServiceConfig::default()
                });
                let (old_fp, new_fp) = register_pair(&service, &pair(i));
                service
                    .summarize(old_fp, Algorithm::MaxCoverage, 2)
                    .unwrap();
                let (_, outcome) = service.refresh_between(old_fp, new_fp).unwrap();
                assert!(outcome.warm && outcome.rows_recomputed > 0);
                outcome.rows_recomputed
            })
            .collect();
        for _round in 0..20 {
            let service = SummaryService::new(ServiceConfig {
                delta_max_fraction: 1.0,
                ..ServiceConfig::default()
            });
            let warm: Vec<_> = (0..6).map(|i| register_pair(&service, &pair(i))).collect();
            let destructive = register_pair(&service, &(grown_fixture(), fixture()));
            for &(old_fp, _) in warm.iter().chain([&destructive]) {
                service
                    .summarize(old_fp, Algorithm::MaxCoverage, 2)
                    .unwrap();
            }
            let start = std::sync::Barrier::new(warm.len() + 1);
            std::thread::scope(|scope| {
                let cold = scope.spawn(|| {
                    start.wait();
                    service
                        .refresh_between(destructive.0, destructive.1)
                        .unwrap()
                });
                let warm_runs: Vec<_> = warm
                    .iter()
                    .map(|&(old_fp, new_fp)| {
                        let start = &start;
                        let service = &service;
                        scope.spawn(move || {
                            start.wait();
                            service.refresh_between(old_fp, new_fp).unwrap()
                        })
                    })
                    .collect();
                let (delta, outcome) = cold.join().unwrap();
                assert_eq!(delta.class, DeltaClass::Destructive);
                assert!(!outcome.warm && outcome.rows_recomputed == 0, "{outcome:?}");
                for (run, rows) in warm_runs.into_iter().zip(&expected) {
                    let (delta, outcome) = run.join().unwrap();
                    assert_eq!(delta.class, DeltaClass::EdgeTouch);
                    assert!(
                        outcome.warm && outcome.rows_recomputed == *rows,
                        "{outcome:?}"
                    );
                }
            });
        }
    }

    #[test]
    fn self_refresh_between_short_circuits_without_purging() {
        let service = SummaryService::default();
        let (g, s) = fixture();
        let fp = service.register_named("site", g, s);
        service.summarize(fp, Algorithm::Balance, 2).unwrap();
        let before = service.cache_stats();

        // Refreshing a fingerprint onto itself is a retry of an already-
        // applied update: it must answer with the empty delta and leave
        // every counter and cached result untouched.
        let (delta, outcome) = service.refresh_between(fp, fp).unwrap();
        assert_eq!(outcome, DeltaOutcome::default());
        assert!(delta.is_empty());
        assert_eq!(delta.class, DeltaClass::Rescale);
        assert_eq!(delta.old_fingerprint, fp);
        assert_eq!(delta.new_fingerprint, fp);

        let after = service.cache_stats();
        assert_eq!(after.invalidations, before.invalidations);
        assert_eq!(after.delta_refreshes, before.delta_refreshes);
        assert_eq!(after.delta_fallback_cold, before.delta_fallback_cold);
        assert_eq!(after.entries, before.entries);
        assert!(
            service
                .summarize(fp, Algorithm::Balance, 2)
                .unwrap()
                .from_cache,
            "the self-refresh must not evict the cached result"
        );

        // An unregistered fingerprint still errors, even against itself.
        let (g2, s2) = grown_fixture();
        let stranger = SchemaFingerprint::of_annotated(&g2, &s2);
        assert!(matches!(
            service.refresh_between(stranger, stranger),
            Err(ServiceError::UnknownFingerprint(_))
        ));
    }

    #[test]
    fn capacity_pressure_counts_evictions() {
        let service = SummaryService::new(ServiceConfig {
            cache_capacity: 2,
            cache_shards: 1,
            ..Default::default()
        });
        let (g, s) = fixture();
        let fp = service.register(g, s);
        for k in 1..=4 {
            service.summarize(fp, Algorithm::Balance, k).unwrap();
        }
        let stats = service.cache_stats();
        assert_eq!(stats.misses, 4);
        assert_eq!(stats.evictions, 2);
        assert_eq!(stats.entries, 2);
    }

    #[test]
    fn compute_cost_is_conserved_across_eviction() {
        let service = SummaryService::new(ServiceConfig {
            cache_capacity: 2,
            cache_shards: 1,
            ..Default::default()
        });
        let (g, s) = fixture();
        let fp = service.register(g, s);
        for k in 1..=2 {
            service.summarize(fp, Algorithm::Balance, k).unwrap();
        }
        let stats = service.cache_stats();
        assert!(stats.compute_micros >= 2, "every entry costs at least 1µs");
        assert_eq!(stats.cached_compute_micros, stats.compute_micros);
        assert_eq!(stats.evicted_compute_micros, 0);
        // Overflowing capacity moves cost from resident to evicted; the
        // two buckets always partition the total.
        for k in 3..=4 {
            service.summarize(fp, Algorithm::Balance, k).unwrap();
        }
        let stats = service.cache_stats();
        assert_eq!(
            stats.cached_compute_micros + stats.evicted_compute_micros,
            stats.compute_micros
        );
        assert!(stats.evicted_compute_micros >= 2);
        assert!(stats.cached_compute_micros >= 2);
    }

    #[test]
    fn multilevel_is_cached_and_matches_direct_build() {
        let service = SummaryService::default();
        let (g, s) = fixture();
        let fp = service.register(Arc::clone(&g), Arc::clone(&s));
        let sizes = [4usize, 2];
        let cold = service.multi_level(fp, Algorithm::Balance, &sizes).unwrap();
        assert!(!cold.from_cache);
        let warm = service.multi_level(fp, Algorithm::Balance, &sizes).unwrap();
        assert!(warm.from_cache);
        assert!(Arc::ptr_eq(&cold.result, &warm.result));

        let mut facade = schema_summary_algo::Summarizer::new(&g, &s);
        let expected = facade.multi_level(&sizes, Algorithm::Balance).unwrap();
        assert_eq!(cold.result.summary, expected);
        assert_eq!(cold.result.view.sizes, vec![4, 2]);
        assert_eq!(cold.result.view.levels.len(), 2);
        assert_eq!(cold.result.view.levels[0].groups.len(), 4);
    }

    #[test]
    fn expand_drills_one_level_and_is_warm_after_the_stack_exists() {
        let service = SummaryService::default();
        let (g, s) = fixture();
        let fp = service.register(Arc::clone(&g), Arc::clone(&s));
        let sizes = [4usize, 2];
        // The first expand builds (and caches) the stack.
        let exp = service
            .expand(fp, Algorithm::Balance, &sizes, 1, 0)
            .unwrap();
        assert!(!exp.from_cache);
        assert!(!exp.result.children.is_empty());
        let computed_before = service.cache_stats().matrices_computed;

        // Level-1 expansion lists the level-0 child groups.
        let exp = service
            .expand(fp, Algorithm::Balance, &sizes, 1, 1)
            .unwrap();
        assert!(exp.from_cache);
        assert!(!exp.result.children.is_empty());
        assert!(exp.result.elements.is_empty());
        let total_children: usize = (0..2)
            .map(|grp| {
                service
                    .expand(fp, Algorithm::Balance, &sizes, 1, grp)
                    .unwrap()
                    .result
                    .children
                    .len()
            })
            .sum();
        assert_eq!(
            total_children, 4,
            "level-1 groups partition the 4 finer groups"
        );

        // Level-0 expansion lists raw schema elements.
        let exp = service
            .expand(fp, Algorithm::Balance, &sizes, 0, 0)
            .unwrap();
        assert!(exp.result.children.is_empty());
        assert!(!exp.result.elements.is_empty());

        // None of the warm expands recomputed matrices.
        assert_eq!(service.cache_stats().matrices_computed, computed_before);

        // Out-of-range requests are BadRequest, not panics.
        assert!(matches!(
            service.expand(fp, Algorithm::Balance, &sizes, 2, 0),
            Err(ServiceError::BadRequest(_))
        ));
        assert!(matches!(
            service.expand(fp, Algorithm::Balance, &sizes, 1, 9),
            Err(ServiceError::BadRequest(_))
        ));
    }

    #[test]
    fn handle_request_routes_all_three_shapes() {
        let service = SummaryService::default();
        let (g, s) = fixture();
        service.register_named("site", g, s);
        let flat = service.handle_request(&SummaryRequest::default()).unwrap();
        assert!(matches!(flat, ServedReply::Flat(_)));
        let ml = service
            .handle_request(&SummaryRequest {
                levels: Some(vec![4, 2]),
                ..Default::default()
            })
            .unwrap();
        let ServedReply::MultiLevel(ml) = ml else {
            panic!("levels must produce a multi-level reply");
        };
        assert_eq!(ml.result.view.sizes, vec![4, 2]);
        let exp = service
            .handle_request(&SummaryRequest {
                levels: Some(vec![4, 2]),
                expand: Some(ExpandSpec { level: 1, group: 0 }),
                ..Default::default()
            })
            .unwrap();
        let ServedReply::Expansion(exp) = exp else {
            panic!("expand must produce an expansion reply");
        };
        assert!(
            exp.from_cache,
            "the stack was cached by the previous request"
        );
        // expand without levels is rejected.
        assert!(matches!(
            service.handle_request(&SummaryRequest {
                expand: Some(ExpandSpec { level: 0, group: 0 }),
                ..Default::default()
            }),
            Err(ServiceError::BadRequest(_))
        ));
    }

    /// A reply as the HTTP routes put it on the wire: the JSON body of an
    /// answer, or the text of an error.
    fn wire(reply: Result<ServedReply, ServiceError>) -> String {
        match reply {
            Ok(reply) => crate::http::router::reply_json(&reply),
            Err(e) => format!("error: {e}"),
        }
    }

    #[test]
    fn resident_answers_match_handle_request_and_never_compute() {
        let dir =
            std::env::temp_dir().join(format!("schema-summary-resident-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || {
            SummaryService::new(ServiceConfig {
                store_dir: Some(dir.clone()),
                ..Default::default()
            })
        };
        let service = open();
        let (g, s) = fixture();
        service.register_named("site", g, s);
        let flat = SummaryRequest {
            k: Some(3),
            ..Default::default()
        };
        let levels = SummaryRequest {
            levels: Some(vec![4, 2]),
            ..Default::default()
        };
        let expand = |level, group| SummaryRequest {
            expand: Some(ExpandSpec { level, group }),
            ..levels.clone()
        };
        let counters = |service: &SummaryService| {
            let stats = service.cache_stats();
            (stats.hits, stats.misses, stats.disk_hits, stats.compute_micros)
        };

        // Nothing is resident yet: no answer, and nothing counted.
        for request in [&flat, &levels, &expand(1, 0)] {
            assert!(service.handle_resident(request).is_none());
        }
        assert_eq!(counters(&service), (0, 0, 0, 0));

        service.handle_request(&flat).unwrap();
        service.handle_request(&levels).unwrap();
        let (hits, misses, disk_hits, compute) = counters(&service);
        let requests = [
            flat.clone(),
            levels.clone(),
            expand(1, 0),
            expand(1, 1),
            expand(0, 0),
            // Out of range: the same error either way.
            expand(2, 0),
            expand(1, 9),
        ];
        for request in &requests {
            let resident = service
                .handle_resident(request)
                .expect("the artifact is resident");
            if let Ok(reply) = &resident {
                let from_cache = match reply {
                    ServedReply::Flat(r) => r.from_cache,
                    ServedReply::MultiLevel(r) => r.from_cache,
                    ServedReply::Expansion(r) => r.from_cache,
                };
                assert!(from_cache);
            }
            assert_eq!(wire(resident), wire(service.handle_request(request)));
        }
        let hits = hits + 2 * requests.len() as u64;
        assert_eq!(counters(&service), (hits, misses, disk_hits, compute));

        // Keys that are not resident yield nothing, and count nothing.
        let other_k = SummaryRequest {
            k: Some(4),
            ..Default::default()
        };
        let other_levels = SummaryRequest {
            levels: Some(vec![6, 3]),
            expand: Some(ExpandSpec { level: 0, group: 0 }),
            ..Default::default()
        };
        let unknown = SummaryRequest {
            schema: Some("nope".into()),
            ..Default::default()
        };
        for request in [&other_k, &other_levels, &unknown] {
            assert!(service.handle_resident(request).is_none());
        }
        assert_eq!(counters(&service), (hits, misses, disk_hits, compute));

        // After a restart the results are on disk only: the resident path
        // does not read them, and `handle_request` does.
        service.flush_store();
        drop(service);
        let restarted = open();
        for request in &requests {
            assert!(restarted.handle_resident(request).is_none());
        }
        assert_eq!(counters(&restarted), (0, 0, 0, 0));
        restarted.handle_request(&flat).unwrap();
        assert_eq!(counters(&restarted), (0, 0, 1, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn catalog_stats_expose_shard_occupancy() {
        let service = SummaryService::new(ServiceConfig {
            catalog_shards: 4,
            cache_shards: 2,
            ..Default::default()
        });
        let (g, s) = fixture();
        let fp = service.register(g, s);
        service.summarize(fp, Algorithm::Balance, 2).unwrap();
        let stats = service.catalog_stats();
        assert_eq!(stats.schemas, 1);
        assert_eq!(stats.catalog_shard_entries.len(), 4);
        assert_eq!(stats.catalog_shard_entries.iter().sum::<usize>(), 1);
        assert_eq!(stats.result_shard_entries.len(), 2);
        assert_eq!(stats.result_shard_entries.iter().sum::<usize>(), 1);
    }

    /// A spilled envelope whose checksum holds but whose payload does not
    /// decode is counted as corrupt and deleted, and the request is
    /// answered cold: once under a real result key, once under a real
    /// matrices key.
    #[test]
    fn undecodable_spilled_payloads_count_as_corrupt() {
        use crate::catalog::matrices_meta;
        use crate::disk::{SpillSource, KIND_MATRICES};

        let (graph, stats, _) = schema_summary_datasets::xmark::schema(0.25);
        let (graph, stats) = (Arc::new(graph), Arc::new(stats));
        let reference = SummaryService::default();
        let fp = reference.register(Arc::clone(&graph), Arc::clone(&stats));
        let dir =
            std::env::temp_dir().join(format!("schema-summary-undecodable-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open = || {
            let service = SummaryService::new(ServiceConfig {
                store_dir: Some(dir.clone()),
                ..Default::default()
            });
            service.register(Arc::clone(&graph), Arc::clone(&stats));
            service
        };
        let plant = |service: &SummaryService, kind: u8, meta: String, payload: &[u8]| {
            let disk = service.store.disk().expect("store dir configured");
            disk.spill(fp, kind, meta, 1, SpillSource::Bytes(payload.to_vec()));
            service.flush_store();
        };
        let config = SummarizerConfig::default();

        // A result file that is not JSON.
        let first = open();
        let key = ResultKey {
            fingerprint: fp,
            shape: ResultShape::Flat {
                algorithm: Algorithm::Balance,
                k: 8,
            },
            options: config.clone(),
        };
        plant(&first, key.kind(), key.meta(), b"{\"not\": \"a summary\"");
        let served = first.summarize(fp, Algorithm::Balance, 8).unwrap();
        assert!(!served.from_cache);
        let cold = reference.summarize(fp, Algorithm::Balance, 8).unwrap();
        assert_eq!(*served.result, *cold.result);
        let after = first.cache_stats();
        assert_eq!(
            (after.disk_corrupt, after.disk_hits, after.misses),
            (1, 0, 1)
        );
        drop(first);

        // A matrices file that is not a matrices encoding.
        let second = open();
        plant(
            &second,
            KIND_MATRICES,
            matrices_meta(fp, &config),
            &[7u8; 64],
        );
        let served = second.summarize(fp, Algorithm::Balance, 6).unwrap();
        assert!(!served.from_cache);
        let cold = reference.summarize(fp, Algorithm::Balance, 6).unwrap();
        assert_eq!(*served.result, *cold.result);
        let after = second.cache_stats();
        assert_eq!(after.disk_corrupt, 1);
        assert_eq!((after.matrices_computed, after.matrices_rehydrated), (1, 0));
        drop(second);

        // Both files were replaced by good spills of the recomputation.
        let third = open();
        assert!(
            third
                .summarize(fp, Algorithm::Balance, 8)
                .unwrap()
                .from_cache
        );
        assert!(third.summarize(fp, Algorithm::Balance, 4).is_ok());
        let after = third.cache_stats();
        assert_eq!(after.disk_corrupt, 0);
        assert_eq!((after.matrices_computed, after.matrices_rehydrated), (0, 1));
        drop(third);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
