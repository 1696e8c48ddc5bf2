//! The schema catalog: annotated graphs registered under their content
//! fingerprint, each carrying lazily memoized algorithm artifacts.
//!
//! Registering the same annotated schema twice (even from different
//! processes or rebuilt object graphs) lands on the same
//! [`SchemaFingerprint`] and therefore shares one [`CatalogEntry`] — and
//! with it one importance fixpoint, one all-pairs matrix computation, and
//! one dominance set per algorithm configuration, no matter how many
//! concurrent requests arrive.
//!
//! The registry itself is sharded: fingerprints hash onto a fixed set of
//! independent `RwLock`ed maps, so registrations and lookups of different
//! schemas never contend on one lock. [`SchemaCatalog::shard_lens`]
//! exposes the per-shard entry counts so load balance is observable.
//!
//! When the owning store has a disk tier, the all-pairs matrices — the
//! most expensive artifact — are spilled there in their bit-exact binary
//! form and rehydrated on the next process's first request instead of
//! recomputed. `SchemaCatalog::compute_counters` tells the two apart.

use crate::disk::{DiskTier, SpillSource, KIND_MATRICES};
use schema_summary_algo::importance::{compute_importance, compute_importance_rebased};
use schema_summary_algo::{DominanceSet, ImportanceResult, PairMatrices, SummarizerConfig};
use schema_summary_core::{SchemaFingerprint, SchemaGraph, SchemaStats};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};
use std::time::Instant;

/// Default number of catalog shards (independent registry locks).
pub const DEFAULT_CATALOG_SHARDS: usize = 8;

/// How matrices were obtained, cumulatively: actually computed vs
/// rehydrated from the disk tier. Shared by every [`Artifacts`] of one
/// catalog.
#[derive(Default)]
pub(crate) struct ComputeCounters {
    matrices_computed: AtomicU64,
    matrices_rehydrated: AtomicU64,
    importance_seeded: AtomicU64,
    importance_iterations_saved: AtomicU64,
}

impl ComputeCounters {
    pub fn matrices_computed(&self) -> u64 {
        self.matrices_computed.load(Ordering::Relaxed)
    }

    pub fn matrices_rehydrated(&self) -> u64 {
        self.matrices_rehydrated.load(Ordering::Relaxed)
    }

    /// Importance fixpoints started from a previous version's vector
    /// instead of the cold cardinality init.
    pub fn importance_seeded(&self) -> u64 {
        self.importance_seeded.load(Ordering::Relaxed)
    }

    /// Cumulative iterations the seeded restarts stopped short of their
    /// cold baseline (the iteration count of the chain's original cold
    /// run, carried forward across versions).
    pub fn importance_iterations_saved(&self) -> u64 {
        self.importance_iterations_saved.load(Ordering::Relaxed)
    }
}

/// Canonical disk-tier key-meta for one schema's matrices under one
/// configuration.
pub(crate) fn matrices_meta(fingerprint: SchemaFingerprint, config: &SummarizerConfig) -> String {
    let options = serde_json::to_string(config).expect("config serializes");
    format!("mat|{}|{options}", fingerprint.to_hex())
}

/// A staged fixpoint restart: the previous version's importance result,
/// its statistics (for the cardinality rebase), and the chain's cold
/// baseline iteration count.
type ImportanceSeed = (Arc<ImportanceResult>, Arc<SchemaStats>, u64);

/// Heavy per-schema intermediates, computed at most once per
/// `(fingerprint, configuration)` and shared across requests via `Arc`.
///
/// All three artifacts are lazy: a service that only ever answers
/// `MaxImportance` requests never pays for the all-pairs matrices.
pub struct Artifacts {
    fingerprint: SchemaFingerprint,
    graph: Arc<SchemaGraph>,
    stats: Arc<SchemaStats>,
    config: SummarizerConfig,
    disk: Option<Arc<DiskTier>>,
    counters: Arc<ComputeCounters>,
    importance: OnceLock<Arc<ImportanceResult>>,
    /// A previous version's importance vector staged by the warm refresh
    /// path, consumed (at most once) by the first [`Artifacts::importance`]
    /// call: the fixpoint restarts from it instead of the cold cardinality
    /// init. Carries the previous version's statistics (for the
    /// per-element cardinality rebase) and the cold-baseline iteration
    /// count (see [`Artifacts::importance_baseline_iters`]).
    importance_seed: Mutex<Option<ImportanceSeed>>,
    /// Iterations a *cold* run of this schema's importance is known to
    /// take: the actual count when computed cold, or the baseline carried
    /// forward from the seeding version's chain when seeded. 0 until the
    /// importance has been forced.
    importance_baseline: AtomicU64,
    matrices: OnceLock<Arc<PairMatrices>>,
    /// Wall time the matrices took to compute, in microseconds (floored at
    /// 1 once computed, so 0 means "not computed yet"). This is the
    /// recomputation cost a cache eviction policy should weigh; a
    /// rehydrated matrix restores the cost its original computation
    /// reported.
    matrices_micros: AtomicU64,
    dominance: OnceLock<Arc<DominanceSet>>,
}

impl Artifacts {
    fn new(
        fingerprint: SchemaFingerprint,
        graph: Arc<SchemaGraph>,
        stats: Arc<SchemaStats>,
        config: SummarizerConfig,
        disk: Option<Arc<DiskTier>>,
        counters: Arc<ComputeCounters>,
    ) -> Self {
        Artifacts {
            fingerprint,
            graph,
            stats,
            config,
            disk,
            counters,
            importance: OnceLock::new(),
            importance_seed: Mutex::new(None),
            importance_baseline: AtomicU64::new(0),
            matrices: OnceLock::new(),
            matrices_micros: AtomicU64::new(0),
            dominance: OnceLock::new(),
        }
    }

    /// Importance scores (Formula 1), computed on first use.
    ///
    /// When the warm refresh path staged a previous version's vector via
    /// `Artifacts::seed_importance`, the fixpoint restarts from it
    /// (rebased per element by its cardinality ratio, then rescaled to
    /// the new total mass) instead of the cold cardinality init — the
    /// paper's §3.3 maintenance restart. Seeded scores are
    /// **ε-close** to a cold run's, not bit-identical: both runs stop
    /// inside the same `ImportanceConfig::epsilon` convergence ball of
    /// the unique fixed point, but generally at different points in it
    /// (DESIGN.md §3.19). Mass is conserved exactly either way.
    pub fn importance(&self) -> &ImportanceResult {
        self.importance.get_or_init(|| {
            let seed = self
                .importance_seed
                .lock()
                .expect("importance seed poisoned")
                .take();
            match seed {
                Some((previous, previous_stats, baseline)) => {
                    let result = compute_importance_rebased(
                        &self.graph,
                        &self.stats,
                        previous.scores(),
                        &previous_stats,
                        &self.config.importance,
                    );
                    // The baseline anchors "iterations saved" to the
                    // chain's original cold run, so chained seeds don't
                    // compare against each other's already-short restarts.
                    let baseline = baseline.max(previous.iterations as u64);
                    self.importance_baseline.store(baseline, Ordering::Relaxed);
                    self.counters.importance_seeded.fetch_add(1, Ordering::Relaxed);
                    self.counters.importance_iterations_saved.fetch_add(
                        baseline.saturating_sub(result.iterations as u64),
                        Ordering::Relaxed,
                    );
                    Arc::new(result)
                }
                None => {
                    let result = compute_importance(&self.graph, &self.stats, &self.config.importance);
                    self.importance_baseline
                        .store(result.iterations as u64, Ordering::Relaxed);
                    Arc::new(result)
                }
            }
        })
    }

    /// The importance result if some caller already forced it — never
    /// computes. The delta-refresh path uses this to find seed vectors
    /// without paying for configurations nobody asked about.
    pub(crate) fn importance_if_computed(&self) -> Option<Arc<ImportanceResult>> {
        self.importance.get().cloned()
    }

    /// Iterations a cold importance run of this schema is known to take
    /// (see the field doc); 0 until the importance has been forced.
    pub(crate) fn importance_baseline_iters(&self) -> u64 {
        self.importance_baseline.load(Ordering::Relaxed)
    }

    /// Stage a previous version's importance result as the restart seed
    /// for this holder's (not yet forced) fixpoint. `previous_stats` are
    /// the seeding version's statistics, used to rebase the seed by each
    /// element's cardinality ratio; `baseline_iters` is the seeding
    /// chain's cold-run iteration count, carried forward for the
    /// `importance_iterations_saved` counter. A no-op once the importance
    /// has been computed (a concurrent request won the race).
    pub(crate) fn seed_importance(
        &self,
        previous: Arc<ImportanceResult>,
        previous_stats: Arc<SchemaStats>,
        baseline_iters: u64,
    ) {
        if self.importance.get().is_some() {
            return;
        }
        *self
            .importance_seed
            .lock()
            .expect("importance seed poisoned") = Some((previous, previous_stats, baseline_iters));
    }

    /// All-pairs affinity/coverage matrices (Formulas 2–3), obtained on
    /// first use: rehydrated bit-exactly from the disk tier when a
    /// previous process spilled them there, computed otherwise (and
    /// queued for the tier's spiller, which writes them off the request
    /// path). The recomputation cost is recorded for
    /// [`Artifacts::matrices_cost_micros`] either way.
    pub fn matrices(&self) -> &PairMatrices {
        self.matrices.get_or_init(|| {
            if let Some(disk) = &self.disk {
                let meta = matrices_meta(self.fingerprint, &self.config);
                // A payload that does not decode is discarded as corrupt
                // by the tier and recomputed below.
                if let Some((matrices, cost)) = disk.load(
                    self.fingerprint,
                    KIND_MATRICES,
                    &meta,
                    PairMatrices::from_bytes,
                ) {
                    self.counters
                        .matrices_rehydrated
                        .fetch_add(1, Ordering::Relaxed);
                    self.matrices_micros.store(cost.max(1), Ordering::Relaxed);
                    return Arc::new(matrices);
                }
            }
            let start = Instant::now();
            let matrices = Arc::new(PairMatrices::compute(&self.stats, &self.config.paths));
            let micros = (start.elapsed().as_micros() as u64).max(1);
            self.matrices_micros.store(micros, Ordering::Relaxed);
            self.counters
                .matrices_computed
                .fetch_add(1, Ordering::Relaxed);
            self.spill(&matrices, micros);
            matrices
        })
    }

    /// Queue `matrices` for the disk tier, if there is one.
    fn spill(&self, matrices: &Arc<PairMatrices>, micros: u64) {
        if let Some(disk) = &self.disk {
            disk.spill(
                self.fingerprint,
                KIND_MATRICES,
                matrices_meta(self.fingerprint, &self.config),
                micros,
                SpillSource::Matrices(Arc::clone(matrices)),
            );
        }
    }

    /// Wall time (microseconds, ≥ 1) the all-pairs matrices took to
    /// compute, or 0 if they have not been forced yet.
    pub fn matrices_cost_micros(&self) -> u64 {
        self.matrices_micros.load(Ordering::Relaxed)
    }

    /// The matrices if some caller already forced (or seeded) them —
    /// never computes. The delta-refresh path uses this to find splice
    /// bases without paying for configurations nobody asked about.
    pub(crate) fn matrices_if_computed(&self) -> Option<Arc<PairMatrices>> {
        self.matrices.get().cloned()
    }

    /// Adopt matrices derived outside this holder — the delta-refresh
    /// splice — as this `(fingerprint, config)`'s memoized matrices,
    /// queueing them for the disk tier like a computed set. `cost_micros`
    /// is the recomputation cost the cache tiers should weigh (a spliced
    /// set would cost a full cold compute to rebuild, so callers pass the
    /// old set's cost forward). Returns `false` when the matrices were
    /// already present (a concurrent request won the race); the seed is
    /// then dropped.
    pub(crate) fn seed_matrices(&self, matrices: Arc<PairMatrices>, cost_micros: u64) -> bool {
        let mut seeded = false;
        self.matrices.get_or_init(|| {
            seeded = true;
            Arc::clone(&matrices)
        });
        if seeded {
            let micros = cost_micros.max(1);
            self.matrices_micros.store(micros, Ordering::Relaxed);
            self.spill(&matrices, micros);
        }
        seeded
    }

    /// Dominance pairs (Theorem 1), computed on first use (forces the
    /// matrices).
    pub fn dominance(&self) -> &DominanceSet {
        self.dominance.get_or_init(|| {
            Arc::new(DominanceSet::compute(
                &self.graph,
                &self.stats,
                self.matrices(),
            ))
        })
    }
}

/// One registered annotated schema plus its memoized artifacts.
pub struct CatalogEntry {
    fingerprint: SchemaFingerprint,
    graph: Arc<SchemaGraph>,
    stats: Arc<SchemaStats>,
    disk: Option<Arc<DiskTier>>,
    counters: Arc<ComputeCounters>,
    /// Artifacts keyed by the summarizer configuration that produced them.
    memo: Mutex<HashMap<SummarizerConfig, Arc<Artifacts>>>,
}

impl CatalogEntry {
    /// The entry's content fingerprint.
    pub fn fingerprint(&self) -> SchemaFingerprint {
        self.fingerprint
    }

    /// The registered schema graph.
    pub fn graph(&self) -> &Arc<SchemaGraph> {
        &self.graph
    }

    /// The registered statistics.
    pub fn stats(&self) -> &Arc<SchemaStats> {
        &self.stats
    }

    /// Snapshot of every configuration that has an artifact holder, with
    /// the holders. The delta-refresh path walks this to find old
    /// matrices to splice from.
    pub(crate) fn memoized(&self) -> Vec<(SummarizerConfig, Arc<Artifacts>)> {
        self.memo
            .lock()
            .expect("catalog memo poisoned")
            .iter()
            .map(|(config, artifacts)| (config.clone(), Arc::clone(artifacts)))
            .collect()
    }

    /// Shared artifacts for `config`, creating the (lazy) holder on first
    /// request for that configuration.
    pub fn artifacts(&self, config: &SummarizerConfig) -> Arc<Artifacts> {
        let mut memo = self.memo.lock().expect("catalog memo poisoned");
        memo.entry(config.clone())
            .or_insert_with(|| {
                Arc::new(Artifacts::new(
                    self.fingerprint,
                    Arc::clone(&self.graph),
                    Arc::clone(&self.stats),
                    config.clone(),
                    self.disk.clone(),
                    Arc::clone(&self.counters),
                ))
            })
            .clone()
    }
}

/// Thread-safe, sharded registry of annotated schemas keyed by content
/// fingerprint.
pub struct SchemaCatalog {
    shards: Vec<RwLock<HashMap<SchemaFingerprint, Arc<CatalogEntry>>>>,
    disk: Option<Arc<DiskTier>>,
    counters: Arc<ComputeCounters>,
}

impl Default for SchemaCatalog {
    fn default() -> Self {
        Self::with_tiers(DEFAULT_CATALOG_SHARDS, None)
    }
}

impl SchemaCatalog {
    /// Create an empty catalog with the default shard count and no disk
    /// tier.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an empty catalog with `shards` registry locks and an
    /// optional disk tier for matrix spill/rehydration.
    pub(crate) fn with_tiers(shards: usize, disk: Option<Arc<DiskTier>>) -> Self {
        SchemaCatalog {
            shards: (0..shards.max(1))
                .map(|_| RwLock::new(HashMap::new()))
                .collect(),
            disk,
            counters: Arc::new(ComputeCounters::default()),
        }
    }

    fn shard(
        &self,
        fingerprint: SchemaFingerprint,
    ) -> &RwLock<HashMap<SchemaFingerprint, Arc<CatalogEntry>>> {
        let mut h = DefaultHasher::new();
        fingerprint.hash(&mut h);
        &self.shards[(h.finish() as usize) % self.shards.len()]
    }

    pub(crate) fn compute_counters(&self) -> &ComputeCounters {
        &self.counters
    }

    /// Register an annotated schema, returning its fingerprint and entry.
    /// Registering content that is already present returns the existing
    /// entry (and keeps its memoized artifacts).
    pub fn register(
        &self,
        graph: Arc<SchemaGraph>,
        stats: Arc<SchemaStats>,
    ) -> (SchemaFingerprint, Arc<CatalogEntry>) {
        let fingerprint = SchemaFingerprint::of_annotated(&graph, &stats);
        let mut entries = self.shard(fingerprint).write().expect("catalog poisoned");
        let entry = entries
            .entry(fingerprint)
            .or_insert_with(|| {
                Arc::new(CatalogEntry {
                    fingerprint,
                    graph,
                    stats,
                    disk: self.disk.clone(),
                    counters: Arc::clone(&self.counters),
                    memo: Mutex::new(HashMap::new()),
                })
            })
            .clone();
        (fingerprint, entry)
    }

    /// Look up a registered schema.
    pub fn get(&self, fingerprint: SchemaFingerprint) -> Option<Arc<CatalogEntry>> {
        self.shard(fingerprint)
            .read()
            .expect("catalog poisoned")
            .get(&fingerprint)
            .cloned()
    }

    /// Remove a registered schema, dropping its memoized artifacts.
    /// Returns whether an entry was present.
    pub fn remove(&self, fingerprint: SchemaFingerprint) -> bool {
        self.shard(fingerprint)
            .write()
            .expect("catalog poisoned")
            .remove(&fingerprint)
            .is_some()
    }

    /// Number of registered schemas.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.read().expect("catalog poisoned").len())
            .sum()
    }

    /// Whether no schemas are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Per-shard entry counts, in shard order — how evenly the registered
    /// schemas spread over the registry locks.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.read().expect("catalog poisoned").len())
            .collect()
    }

    /// All registered fingerprints, sorted (deterministic listing order).
    pub fn fingerprints(&self) -> Vec<SchemaFingerprint> {
        let mut fps: Vec<SchemaFingerprint> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.read()
                    .expect("catalog poisoned")
                    .keys()
                    .copied()
                    .collect::<Vec<_>>()
            })
            .collect();
        fps.sort_unstable();
        fps
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema_summary_core::{SchemaGraphBuilder, SchemaType};

    fn fixture() -> (Arc<SchemaGraph>, Arc<SchemaStats>) {
        let mut b = SchemaGraphBuilder::new("db");
        let a = b
            .add_child(b.root(), "a", SchemaType::set_of_rcd())
            .unwrap();
        b.add_child(a, "a1", SchemaType::simple_str()).unwrap();
        b.add_child(b.root(), "c", SchemaType::set_of_rcd())
            .unwrap();
        let g = Arc::new(b.build().unwrap());
        let s = Arc::new(SchemaStats::uniform(&g));
        (g, s)
    }

    #[test]
    fn register_is_idempotent_by_content() {
        let catalog = SchemaCatalog::new();
        let (g, s) = fixture();
        let (fp1, e1) = catalog.register(Arc::clone(&g), Arc::clone(&s));
        // A rebuilt but identical graph must land on the same entry.
        let (g2, s2) = fixture();
        let (fp2, e2) = catalog.register(g2, s2);
        assert_eq!(fp1, fp2);
        assert!(Arc::ptr_eq(&e1, &e2));
        assert_eq!(catalog.len(), 1);
    }

    #[test]
    fn artifacts_shared_per_config() {
        let catalog = SchemaCatalog::new();
        let (g, s) = fixture();
        let (_, entry) = catalog.register(g, s);
        let cfg = SummarizerConfig::default();
        let a1 = entry.artifacts(&cfg);
        let a2 = entry.artifacts(&cfg);
        assert!(Arc::ptr_eq(&a1, &a2));
        // Same underlying computation regardless of which handle forces it.
        let i1 = a1.importance().iterations;
        let i2 = a2.importance().iterations;
        assert_eq!(i1, i2);
        assert!(!a1.matrices().is_empty());
        let _ = a1.dominance();
        assert_eq!(catalog.compute_counters().matrices_computed(), 1);
        assert_eq!(catalog.compute_counters().matrices_rehydrated(), 0);
    }

    #[test]
    fn matrices_cost_is_zero_until_forced() {
        let catalog = SchemaCatalog::new();
        let (g, s) = fixture();
        let (_, entry) = catalog.register(g, s);
        let a = entry.artifacts(&SummarizerConfig::default());
        assert_eq!(a.matrices_cost_micros(), 0);
        let _ = a.matrices();
        assert!(a.matrices_cost_micros() >= 1);
    }

    #[test]
    fn remove_forgets_the_entry() {
        let catalog = SchemaCatalog::new();
        let (g, s) = fixture();
        let (fp, _) = catalog.register(g, s);
        assert!(catalog.get(fp).is_some());
        assert!(catalog.remove(fp));
        assert!(!catalog.remove(fp));
        assert!(catalog.get(fp).is_none());
        assert!(catalog.is_empty());
    }

    #[test]
    fn fingerprints_listing_is_sorted() {
        let catalog = SchemaCatalog::new();
        let (g, s) = fixture();
        catalog.register(g, Arc::clone(&s));
        let mut b = SchemaGraphBuilder::new("other");
        b.add_child(b.root(), "x", SchemaType::simple_str())
            .unwrap();
        let g2 = Arc::new(b.build().unwrap());
        let s2 = Arc::new(SchemaStats::uniform(&g2));
        catalog.register(g2, s2);
        let fps = catalog.fingerprints();
        assert_eq!(fps.len(), 2);
        assert!(fps[0] < fps[1]);
    }

    #[test]
    fn shard_lens_sum_to_len() {
        let catalog = SchemaCatalog::with_tiers(4, None);
        let (g, s) = fixture();
        catalog.register(g, Arc::clone(&s));
        let mut b = SchemaGraphBuilder::new("other");
        b.add_child(b.root(), "x", SchemaType::simple_str())
            .unwrap();
        let g2 = Arc::new(b.build().unwrap());
        let s2 = Arc::new(SchemaStats::uniform(&g2));
        catalog.register(g2, s2);
        let lens = catalog.shard_lens();
        assert_eq!(lens.len(), 4);
        assert_eq!(lens.iter().sum::<usize>(), catalog.len());
    }

    #[test]
    fn matrices_rehydrate_bit_exactly_across_catalogs() {
        let dir = std::env::temp_dir().join(format!(
            "schema-summary-catalog-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let disk = Arc::new(DiskTier::open(&dir).unwrap());
        let (g, s) = fixture();
        let cfg = SummarizerConfig::default();

        // First catalog computes and spills.
        let first = SchemaCatalog::with_tiers(2, Some(Arc::clone(&disk)));
        let (_, entry) = first.register(Arc::clone(&g), Arc::clone(&s));
        let computed = entry.artifacts(&cfg);
        let reference = computed.matrices().clone();
        assert_eq!(first.compute_counters().matrices_computed(), 1);
        disk.flush();
        assert!(disk.writes() >= 1);

        // A fresh catalog on the same directory rehydrates, not recomputes.
        let second = SchemaCatalog::with_tiers(2, Some(Arc::clone(&disk)));
        let (_, entry) = second.register(Arc::clone(&g), Arc::clone(&s));
        let rehydrated = entry.artifacts(&cfg);
        let matrices = rehydrated.matrices();
        assert_eq!(second.compute_counters().matrices_computed(), 0);
        assert_eq!(second.compute_counters().matrices_rehydrated(), 1);
        assert!(rehydrated.matrices_cost_micros() >= 1);
        for a in g.element_ids() {
            for b in g.element_ids() {
                assert_eq!(
                    matrices.affinity(a, b).to_bits(),
                    reference.affinity(a, b).to_bits()
                );
                assert_eq!(
                    matrices.coverage(a, b).to_bits(),
                    reference.coverage(a, b).to_bits()
                );
            }
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}
