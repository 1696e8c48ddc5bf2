//! The unified artifact store: one keyed-entry interface over the schema
//! catalog, the sharded LRU result tier, and the optional disk tier.
//!
//! Every servable artifact — a flat summary or a multi-level stack — is
//! addressed by a [`ResultKey`]: the schema's content fingerprint, the
//! result *shape* (algorithm plus `k` or level sizes), and the full
//! summarizer configuration. The store serves a key through three tiers:
//!
//! 1. **memory** — the sharded, cost-weighted LRU (`hits`);
//! 2. **disk** — the optional spill directory, rehydrated with its
//!    original recomputation cost and promoted back into memory
//!    (`disk_hits`);
//! 3. **compute** — the caller-supplied closure, run under per-key
//!    single-flight so N concurrent misses on one key compute once
//!    (`misses`), then spilled to disk and inserted into memory.
//!
//! [`ArtifactStore::lookup`] reads the memory tier alone, for callers that
//! must not block on disk, compute or another request's single-flight.
//!
//! Invalidation drops a fingerprint from all three tiers at once.

use crate::catalog::SchemaCatalog;
use crate::disk::{DiskTier, SpillSource, KIND_FLAT, KIND_MULTILEVEL};
use crate::lru::ShardedLru;
use crate::service::{MultiLevelArtifact, ServiceError, SummaryResult};
use schema_summary_algo::{plan_delta, Algorithm, SummarizerConfig};
use schema_summary_core::{DeltaClass, SchemaDelta, SchemaFingerprint};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// What kind of answer a key names (and the request parameters that shape
/// it). Part of [`ResultKey`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) enum ResultShape {
    /// A flat summary of size `k`.
    Flat { algorithm: Algorithm, k: usize },
    /// A multi-level stack with the given level sizes, finest first.
    MultiLevel {
        algorithm: Algorithm,
        sizes: Vec<usize>,
    },
}

impl ResultShape {
    /// The algorithm that selects the result.
    pub fn algorithm(&self) -> Algorithm {
        match self {
            ResultShape::Flat { algorithm, .. } | ResultShape::MultiLevel { algorithm, .. } => {
                *algorithm
            }
        }
    }
}

/// The store's unit of addressing: schema content + result shape + full
/// summarizer configuration (`SummarizerConfig` is `Hash + Eq` with
/// bit-stable float comparison).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct ResultKey {
    pub fingerprint: SchemaFingerprint,
    pub shape: ResultShape,
    pub options: SummarizerConfig,
}

impl ResultKey {
    /// Disk-tier kind byte for this key's shape.
    pub fn kind(&self) -> u8 {
        match self.shape {
            ResultShape::Flat { .. } => KIND_FLAT,
            ResultShape::MultiLevel { .. } => KIND_MULTILEVEL,
        }
    }

    /// Canonical key-meta string for the disk tier: stable across
    /// processes, verified byte-for-byte on load.
    pub fn meta(&self) -> String {
        let options = serde_json::to_string(&self.options).expect("config serializes");
        match &self.shape {
            ResultShape::Flat { algorithm, k } => {
                format!(
                    "flat|{}|{algorithm}|{k}|{options}",
                    self.fingerprint.to_hex()
                )
            }
            ResultShape::MultiLevel { algorithm, sizes } => {
                let sizes = sizes
                    .iter()
                    .map(|s| s.to_string())
                    .collect::<Vec<_>>()
                    .join(",");
                format!(
                    "mls|{}|{algorithm}|{sizes}|{options}",
                    self.fingerprint.to_hex()
                )
            }
        }
    }
}

/// A cached answer, shared with every requester via `Arc`.
#[derive(Debug, Clone)]
pub(crate) enum CachedArtifact {
    Flat(Arc<SummaryResult>),
    MultiLevel(Arc<MultiLevelArtifact>),
}

impl CachedArtifact {
    /// The disk tier's JSON payload, encoded on the spiller thread.
    pub(crate) fn to_payload(&self) -> Option<Vec<u8>> {
        match self {
            CachedArtifact::Flat(result) => serde_json::to_string(result.as_ref()),
            CachedArtifact::MultiLevel(artifact) => serde_json::to_string(artifact.as_ref()),
        }
        .ok()
        .map(String::into_bytes)
    }

    fn from_payload(kind: u8, payload: &[u8]) -> Option<Self> {
        let text = std::str::from_utf8(payload).ok()?;
        match kind {
            KIND_FLAT => {
                let result: SummaryResult = serde_json::from_str(text).ok()?;
                Some(CachedArtifact::Flat(Arc::new(result)))
            }
            KIND_MULTILEVEL => {
                let artifact: MultiLevelArtifact = serde_json::from_str(text).ok()?;
                Some(CachedArtifact::MultiLevel(Arc::new(artifact)))
            }
            _ => None,
        }
    }
}

/// One in-flight cold computation (single-flight): the first thread to
/// miss on a key becomes the leader and computes; followers block here
/// until the leader publishes, then serve the shared result without ever
/// running the algorithm themselves.
struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

enum FlightState {
    Pending,
    /// `Some` carries the leader's answer; `None` means the leader failed
    /// (or panicked) and followers must compute for themselves.
    Done(Option<CachedArtifact>),
}

impl Flight {
    fn new() -> Self {
        Flight {
            state: Mutex::new(FlightState::Pending),
            cv: Condvar::new(),
        }
    }

    fn wait(&self) -> Option<CachedArtifact> {
        let guard = self.state.lock().expect("flight poisoned");
        let guard = self
            .cv
            .wait_while(guard, |s| matches!(s, FlightState::Pending))
            .expect("flight poisoned");
        match &*guard {
            FlightState::Done(result) => result.clone(),
            FlightState::Pending => unreachable!("wait_while admits only Done"),
        }
    }
}

/// Publishes the leader's outcome on drop — including during a panic
/// unwind — so followers are never stranded on a vanished leader. The
/// in-flight entry is removed *after* the memory insert, so late arrivals
/// find the cached result.
struct FlightPublisher<'a> {
    store: &'a ArtifactStore,
    key: ResultKey,
    flight: Arc<Flight>,
    result: Option<CachedArtifact>,
}

impl Drop for FlightPublisher<'_> {
    fn drop(&mut self) {
        self.store
            .in_flight
            .lock()
            .expect("in-flight map poisoned")
            .remove(&self.key);
        *self.flight.state.lock().expect("flight poisoned") = FlightState::Done(self.result.take());
        self.flight.cv.notify_all();
    }
}

/// The tiered store itself. Owned by
/// [`SummaryService`](crate::SummaryService); all methods take `&self`.
pub(crate) struct ArtifactStore {
    catalog: SchemaCatalog,
    results: ShardedLru<ResultKey, CachedArtifact>,
    in_flight: Mutex<HashMap<ResultKey, Arc<Flight>>>,
    disk: Option<Arc<DiskTier>>,
    hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    admin_evictions: AtomicU64,
    compute_micros: AtomicU64,
    evicted_compute_micros: AtomicU64,
    delta_refreshes: AtomicU64,
    delta_rows_recomputed: AtomicU64,
    delta_fallback_cold: AtomicU64,
    /// Warm refreshes split by delta class (`delta_refreshes` stays the
    /// class-agnostic total): pure cardinality rescales, same-graph edge
    /// splices, and additive structural (grown) splices. Cold fallbacks
    /// keep their own counter above.
    delta_refreshes_rescale: AtomicU64,
    delta_refreshes_splice: AtomicU64,
    delta_refreshes_structural: AtomicU64,
}

/// What [`ArtifactStore::refresh`] did with a schema delta.
pub(crate) enum RefreshOutcome {
    /// Empty delta — nothing touched.
    Noop,
    /// The delta could not be served warm (structural change, oversized
    /// footprint, missing catalog entries, or no spliceable matrices);
    /// the old fingerprint was invalidated cold. Carries the number of
    /// cached results dropped.
    Cold(usize),
    /// Matrices were spliced onto the new fingerprint and the old
    /// fingerprint fully invalidated.
    Warm {
        /// Cached results dropped with the old fingerprint.
        dropped: usize,
        /// Old result keys whose artifacts can be re-derived warm: the
        /// key, the old cached artifact, and the recompute mask of the
        /// key's configuration.
        derive: Vec<(ResultKey, CachedArtifact, Arc<Vec<bool>>)>,
    },
}

impl ArtifactStore {
    pub fn new(
        cache_capacity: usize,
        cache_shards: usize,
        catalog_shards: usize,
        disk: Option<Arc<DiskTier>>,
    ) -> Self {
        ArtifactStore {
            catalog: SchemaCatalog::with_tiers(catalog_shards, disk.clone()),
            results: ShardedLru::new(cache_capacity, cache_shards),
            in_flight: Mutex::new(HashMap::new()),
            disk,
            hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            admin_evictions: AtomicU64::new(0),
            compute_micros: AtomicU64::new(0),
            evicted_compute_micros: AtomicU64::new(0),
            delta_refreshes: AtomicU64::new(0),
            delta_rows_recomputed: AtomicU64::new(0),
            delta_fallback_cold: AtomicU64::new(0),
            delta_refreshes_rescale: AtomicU64::new(0),
            delta_refreshes_splice: AtomicU64::new(0),
            delta_refreshes_structural: AtomicU64::new(0),
        }
    }

    pub fn catalog(&self) -> &SchemaCatalog {
        &self.catalog
    }

    pub fn disk(&self) -> Option<&Arc<DiskTier>> {
        self.disk.as_ref()
    }

    /// Serve `key` from the memory tier alone: a resident artifact counts
    /// a hit; anything else returns `None` and counts nothing. Never reads
    /// disk, never computes, and never waits on another request's
    /// single-flight, so it is safe to call where blocking is not.
    pub fn lookup(&self, key: &ResultKey) -> Option<CachedArtifact> {
        let artifact = self.results.get(key)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(artifact)
    }

    /// Serve `key` through the tiers. Returns the artifact and whether it
    /// came from a cache tier (memory or disk) rather than `compute`.
    ///
    /// `compute` may run more than once only if a leader fails and a
    /// follower retries — never concurrently for one key.
    pub fn serve(
        &self,
        key: &ResultKey,
        compute: &dyn Fn() -> Result<CachedArtifact, ServiceError>,
    ) -> Result<(CachedArtifact, bool), ServiceError> {
        loop {
            if let Some(artifact) = self.lookup(key) {
                return Ok((artifact, true));
            }
            let (flight, leader) = {
                let mut in_flight = self.in_flight.lock().expect("in-flight map poisoned");
                match in_flight.get(key) {
                    Some(flight) => (Arc::clone(flight), false),
                    None => {
                        // A leader may have published since the lookup
                        // above: it inserts into memory before it removes
                        // its flight, so a second look under the lock
                        // finds its result rather than computing it again.
                        if let Some(artifact) = self.lookup(key) {
                            return Ok((artifact, true));
                        }
                        let flight = Arc::new(Flight::new());
                        in_flight.insert(key.clone(), Arc::clone(&flight));
                        (Arc::clone(&flight), true)
                    }
                }
            };
            if leader {
                let mut publisher = FlightPublisher {
                    store: self,
                    key: key.clone(),
                    flight,
                    result: None,
                };
                // Disk before compute: a rehydrated artifact keeps its
                // original recomputation cost for the eviction policy. A
                // payload that does not decode is discarded as corrupt by
                // the tier and recomputed below.
                let kind = key.kind();
                let tier = self.disk.as_ref().map(|disk| (disk, key.meta()));
                if let Some((disk, meta)) = &tier {
                    if let Some((artifact, cost)) =
                        disk.load(key.fingerprint, kind, meta, |payload| {
                            CachedArtifact::from_payload(kind, payload)
                        })
                    {
                        self.disk_hits.fetch_add(1, Ordering::Relaxed);
                        self.insert(key, artifact.clone(), cost.max(1));
                        publisher.result = Some(artifact.clone());
                        return Ok((artifact, true));
                    }
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                let started = Instant::now();
                let artifact = compute()?;
                // Floored at 1µs so even trivially fast entries carry a
                // nonzero cost (a zero would make them permanent eviction
                // victims for the wrong reason: "free", not "cheap").
                let cost = (started.elapsed().as_micros() as u64).max(1);
                self.compute_micros.fetch_add(cost, Ordering::Relaxed);
                if let Some((disk, meta)) = tier {
                    disk.spill(
                        key.fingerprint,
                        kind,
                        meta,
                        cost,
                        SpillSource::Result(artifact.clone()),
                    );
                }
                self.insert(key, artifact.clone(), cost);
                publisher.result = Some(artifact.clone());
                return Ok((artifact, false));
            }
            match flight.wait() {
                Some(artifact) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok((artifact, true));
                }
                // The leader failed; retry from the top (most likely
                // becoming the new leader and reporting the same error).
                None => continue,
            }
        }
    }

    fn insert(&self, key: &ResultKey, artifact: CachedArtifact, cost: u64) {
        if let Some((_, _, evicted_cost)) = self.results.insert(key.clone(), artifact, cost) {
            self.evictions.fetch_add(1, Ordering::Relaxed);
            self.evicted_compute_micros
                .fetch_add(evicted_cost, Ordering::Relaxed);
        }
    }

    /// Route a schema delta through the warm path: derive the new
    /// fingerprint's artifacts from the old fingerprint's where the delta
    /// provably allows it, then drop the old fingerprint from every tier.
    ///
    /// For every configuration whose matrices the old catalog entry had
    /// materialized, [`plan_delta`] computes the exact set of matrix rows
    /// the delta can influence; when it qualifies (same graph, footprint
    /// within `max_fraction` of the elements), those rows are re-explored
    /// and spliced into the old matrices, and the result is seeded into
    /// the new entry's artifact holder — bit-identical to a cold compute,
    /// at a fraction of the cost. Old cached results whose configuration
    /// was spliced are returned for warm re-derivation by the caller
    /// (under the normal single-flight `serve`).
    ///
    /// On the same warm path, every old importance vector is staged as a
    /// fixpoint restart seed on the new entry
    /// ([`crate::catalog::Artifacts::seed_importance`]): the restart
    /// conserves mass exactly and converges into the same
    /// `ImportanceConfig::epsilon` ball as a cold run in a fraction of
    /// the iterations, but stops at an ε-close — not bit-identical —
    /// point. Matrices stay bit-exact; importance carries the documented
    /// ε tolerance (DESIGN.md §3.19).
    ///
    /// Falls back to a plain cold [`invalidate`](Self::invalidate) — and
    /// counts `delta_fallback_cold` — when the delta is structural or
    /// oversized, either fingerprint is not registered, or no old
    /// matrices exist to splice from.
    pub fn refresh(
        &self,
        old_fp: SchemaFingerprint,
        new_fp: SchemaFingerprint,
        delta: &SchemaDelta,
        max_fraction: f64,
    ) -> RefreshOutcome {
        if delta.is_empty() {
            return RefreshOutcome::Noop;
        }
        let (Some(old_entry), Some(new_entry)) =
            (self.catalog.get(old_fp), self.catalog.get(new_fp))
        else {
            self.delta_fallback_cold.fetch_add(1, Ordering::Relaxed);
            return RefreshOutcome::Cold(self.invalidate(old_fp));
        };
        let mut spliced: Vec<(SummarizerConfig, Arc<Vec<bool>>)> = Vec::new();
        let mut rows_total = 0u64;
        // Importance seeds, staged alongside the matrix splices: any
        // configuration whose importance the old entry had forced can
        // hand its vector to the new entry as a fixpoint restart seed
        // (ε-close, mass-conserving — see `Artifacts::importance`), even
        // when that configuration's matrices were never materialized.
        let mut importance_seeds = Vec::new();
        for (config, artifacts) in old_entry.memoized() {
            if let Some(previous) = artifacts.importance_if_computed() {
                importance_seeds.push((
                    config.clone(),
                    previous,
                    old_entry.stats().clone(),
                    artifacts.importance_baseline_iters(),
                ));
            }
            let Some(old_matrices) = artifacts.matrices_if_computed() else {
                continue;
            };
            let Some(plan) = plan_delta(
                delta,
                old_entry.graph(),
                old_entry.stats(),
                new_entry.graph(),
                new_entry.stats(),
                &old_matrices,
                &config.paths,
                max_fraction,
            ) else {
                continue;
            };
            let started = Instant::now();
            let Some(new_matrices) =
                old_matrices.splice(new_entry.stats(), &config.paths, &plan.recompute)
            else {
                continue;
            };
            // The seeded set's recomputation cost is a full cold compute,
            // not the splice time: attribute the old cost forward so the
            // disk tier's quota eviction does not treat it as nearly free.
            let splice_micros = (started.elapsed().as_micros() as u64).max(1);
            let cost = artifacts.matrices_cost_micros().max(splice_micros);
            new_entry
                .artifacts(&config)
                .seed_matrices(Arc::new(new_matrices), cost);
            rows_total += plan.rows as u64;
            // The mask handed to warm re-derivation marks rows whose matrix
            // *values* may differ from the old ones. Re-explored rows
            // always qualify; under a cardinality rescale every coverage
            // row was rewritten, so downstream row-reuse (multi-level
            // patching) must treat all rows as changed.
            let row_changed = if plan.rescaled {
                vec![true; plan.recompute.len()]
            } else {
                plan.recompute
            };
            spliced.push((config, Arc::new(row_changed)));
        }
        if spliced.is_empty() {
            self.delta_fallback_cold.fetch_add(1, Ordering::Relaxed);
            return RefreshOutcome::Cold(self.invalidate(old_fp));
        }
        // The refresh qualifies as warm: stage the old importance vectors
        // so the new entry's first `importance()` call restarts the
        // fixpoint from them instead of a cold cardinality init.
        for (config, previous, previous_stats, baseline_iters) in importance_seeds {
            new_entry
                .artifacts(&config)
                .seed_importance(previous, previous_stats, baseline_iters);
        }
        // Snapshot the old fingerprint's cached results for the spliced
        // configurations before the invalidation below drops them; the
        // caller re-derives each under the new fingerprint.
        let derive: Vec<(ResultKey, CachedArtifact, Arc<Vec<bool>>)> = self
            .results
            .entries()
            .into_iter()
            .filter(|(key, _)| key.fingerprint == old_fp)
            .filter_map(|(key, _)| {
                let mask = spliced
                    .iter()
                    .find(|(config, _)| *config == key.options)
                    .map(|(_, mask)| Arc::clone(mask))?;
                let artifact = self.results.get(&key)?;
                Some((key, artifact, mask))
            })
            .collect();
        self.delta_refreshes.fetch_add(1, Ordering::Relaxed);
        // Split the warm total by the delta's class: a pure rescale spliced
        // zero rows, an edge touch re-explored in place, an additive
        // structural delta grew the matrices. (Destructive deltas never
        // plan warm, so they only ever land on `delta_fallback_cold`.)
        match delta.class {
            DeltaClass::Rescale => &self.delta_refreshes_rescale,
            DeltaClass::EdgeTouch => &self.delta_refreshes_splice,
            DeltaClass::AdditiveStructural => &self.delta_refreshes_structural,
            DeltaClass::Destructive => &self.delta_fallback_cold,
        }
        .fetch_add(1, Ordering::Relaxed);
        self.delta_rows_recomputed
            .fetch_add(rows_total, Ordering::Relaxed);
        let dropped = self.invalidate(old_fp);
        RefreshOutcome::Warm { dropped, derive }
    }

    /// Drop one fingerprint from every tier: catalog entry (with memoized
    /// artifacts), cached results, and spilled files. Returns the number
    /// of cached results dropped.
    pub fn invalidate(&self, fingerprint: SchemaFingerprint) -> usize {
        self.catalog.remove(fingerprint);
        if let Some(disk) = &self.disk {
            disk.purge(fingerprint);
        }
        let dropped = self.results.retain(|key| key.fingerprint != fingerprint);
        self.invalidations
            .fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Admin eviction: drop one fingerprint's cached *results* (memory and
    /// spilled summaries), keeping the catalog entry and memoized matrices
    /// so the schema stays registered and the next request recomputes only
    /// the selection. Returns the number of in-memory results dropped.
    pub fn evict_results(&self, fingerprint: SchemaFingerprint) -> usize {
        if let Some(disk) = &self.disk {
            disk.purge_results(fingerprint);
        }
        let dropped = self.results.retain(|key| key.fingerprint != fingerprint);
        self.admin_evictions
            .fetch_add(dropped as u64, Ordering::Relaxed);
        dropped
    }

    /// Snapshot the resident result keys with their recomputation costs
    /// (the `GET /admin/cache` view).
    pub fn result_entries(&self) -> Vec<(ResultKey, u64)> {
        self.results.entries()
    }

    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    pub fn disk_hits(&self) -> u64 {
        self.disk_hits.load(Ordering::Relaxed)
    }

    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    pub fn invalidations(&self) -> u64 {
        self.invalidations.load(Ordering::Relaxed)
    }

    pub fn admin_evictions(&self) -> u64 {
        self.admin_evictions.load(Ordering::Relaxed)
    }

    pub fn delta_refreshes(&self) -> u64 {
        self.delta_refreshes.load(Ordering::Relaxed)
    }

    pub fn delta_rows_recomputed(&self) -> u64 {
        self.delta_rows_recomputed.load(Ordering::Relaxed)
    }

    pub fn delta_fallback_cold(&self) -> u64 {
        self.delta_fallback_cold.load(Ordering::Relaxed)
    }

    pub fn delta_refreshes_rescale(&self) -> u64 {
        self.delta_refreshes_rescale.load(Ordering::Relaxed)
    }

    pub fn delta_refreshes_splice(&self) -> u64 {
        self.delta_refreshes_splice.load(Ordering::Relaxed)
    }

    pub fn delta_refreshes_structural(&self) -> u64 {
        self.delta_refreshes_structural.load(Ordering::Relaxed)
    }

    pub fn compute_micros(&self) -> u64 {
        self.compute_micros.load(Ordering::Relaxed)
    }

    pub fn evicted_compute_micros(&self) -> u64 {
        self.evicted_compute_micros.load(Ordering::Relaxed)
    }

    pub fn entries(&self) -> usize {
        self.results.len()
    }

    pub fn cached_compute_micros(&self) -> u64 {
        self.results.total_cost()
    }

    pub fn result_shard_lens(&self) -> Vec<usize> {
        self.results.shard_lens()
    }
}
