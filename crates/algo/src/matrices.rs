//! All-pairs element affinity (Formula 2) and coverage (Formula 3).
//!
//! [`PairMatrices`] materializes `A(a → b)` and `C(a → b)` for every ordered
//! element pair by running one path exploration per source element. For the
//! paper's datasets (70–327 elements) this is a few hundred kilobytes and
//! milliseconds; both `MaxCoverage` and summary construction consume the
//! matrices repeatedly, so computing them once up front dominates
//! recomputation.
//!
//! Per-source explorations are fully independent, so the cold pass scales by
//! fanning sources out to scoped worker threads. Sources are handed out
//! through a shared atomic counter (work stealing) rather than static
//! chunks: exploration cost varies wildly per source — a source inside a
//! densely value-linked region can cost orders of magnitude more than a
//! leaf — and static chunking strands every other worker behind the
//! unluckiest chunk. Workers send finished rows over a channel and the
//! calling thread assembles the matrices, keeping the crate free of
//! `unsafe` row aliasing.
//!
//! When the configuration resolves to the layered kernel, the counter hands
//! out source *batches* of [`DEFAULT_SOURCE_BATCH`] instead of single
//! sources: each worker advances its whole batch through one
//! [`Explorer::explore_batch`] frontier sweep per layer, streaming the CSR
//! edge lanes once per layer for the batch rather than once per source.
//! DFS-resolving configurations keep single-source handout (the DFS kernel
//! has no cross-source sharing to exploit, and finer granularity steals
//! better).

use crate::paths::{Explorer, PathConfig, PathKernel, SourceResult};
use schema_summary_core::{ElementId, SchemaStats};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Sources per work-stealing handout when the layered kernel resolves.
/// The batched kernel's win scales with *lane density* — how many of a
/// batch's sources have overlapping frontiers at each relaxed node — and
/// with the arena working set staying cache-resident; 16 lanes measured
/// fastest across the bench schemas on both axes (BENCH_matrices.json),
/// ahead of 8 (metadata amortized over too few lanes) and 32+ (arenas
/// spill L2 on thousand-element schemas).
pub const DEFAULT_SOURCE_BATCH: usize = 16;

/// Source handout order for batched computes: breadth-first from each
/// unvisited node over traversable edges. Sources batched together should
/// have *overlapping* frontiers — every node they share per layer is one
/// relaxation serving many lanes — and BFS rank groups graph neighbors,
/// whereas raw id order reflects schema construction order, which scatters
/// a batch across the graph (measured ~2× slower on the synthetic bench
/// schemas, whose ids are assigned in random-parent insertion order).
/// Pure driver policy: rows are written per source id, so handout order
/// never changes any bit of the result.
fn locality_order(stats: &SchemaStats) -> Vec<ElementId> {
    let n = stats.len();
    let mut seen = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for start in 0..n {
        if seen[start] {
            continue;
        }
        seen[start] = true;
        let mut head = order.len();
        order.push(ElementId(start as u32));
        while head < order.len() {
            let u = order[head];
            head += 1;
            for (nb, &rc) in stats
                .edge_neighbors(u)
                .iter()
                .zip(stats.edge_rcs(u))
            {
                if rc > 0.0 && !seen[nb.index()] {
                    seen[nb.index()] = true;
                    order.push(*nb);
                }
            }
        }
    }
    order
}

/// Per-source exploration metadata, kept alongside the dense matrices so a
/// row-level splice ([`PairMatrices::splice`]) can rebuild the run-wide
/// flags and expansion count as the exact fold a from-scratch compute would
/// produce. Absent only on matrices decoded from the legacy disk format.
#[derive(Debug, Clone)]
struct SourceMeta {
    truncated: Vec<bool>,
    floored: Vec<bool>,
    expansions: Vec<u64>,
    /// Per-source read sets (sorted element ids): exactly the elements
    /// whose stats records source `a`'s exploration consulted (see
    /// [`SourceResult::reads`](crate::paths::SourceResult)). A row is
    /// invariant under any delta that leaves all of its read records
    /// bit-identical — the row-selection predicate of
    /// [`rows_reading`](PairMatrices::rows_reading).
    visited: Vec<Vec<u32>>,
    /// The raw per-row path products (`SourceResult::best_cov_product`,
    /// row-major `n × n`). Exploration never reads cardinalities — they
    /// enter exactly once, when the coverage row is written as
    /// `Card(b) · product` — so keeping the products lets
    /// [`splice`](PairMatrices::splice) redo that final multiply under
    /// *new* cardinalities for rows it did not re-explore, bit-identically
    /// to a cold pass.
    cov_product: Vec<f64>,
}

impl SourceMeta {
    fn zeroed(n: usize) -> Self {
        SourceMeta {
            truncated: vec![false; n],
            floored: vec![false; n],
            expansions: vec![0; n],
            visited: vec![Vec::new(); n],
            cov_product: vec![0.0; n * n],
        }
    }
}

/// Dense all-pairs affinity and coverage matrices.
#[derive(Debug, Clone)]
pub struct PairMatrices {
    n: usize,
    affinity: Vec<f64>,
    coverage: Vec<f64>,
    truncated: bool,
    floored: bool,
    expansions: u64,
    per_source: Option<SourceMeta>,
}

impl PairMatrices {
    /// Compute both matrices for `stats` under `config`, parallelizing
    /// across source elements when the schema reaches
    /// [`PathConfig::parallel_threshold`] and more than one CPU is
    /// available.
    pub fn compute(stats: &SchemaStats, config: &PathConfig) -> Self {
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Self::compute_with_threads(stats, config, threads)
    }

    /// [`compute`](Self::compute) with an explicit worker-thread count
    /// (primarily for tests and benchmarks that need the parallel path on
    /// machines where `available_parallelism` would fall back to serial).
    /// Layered-resolving configurations run the batched kernel with
    /// [`DEFAULT_SOURCE_BATCH`] sources per handout; DFS keeps single-source
    /// handout. Results are bit-identical either way.
    pub fn compute_with_threads(stats: &SchemaStats, config: &PathConfig, threads: usize) -> Self {
        let batch = match config.effective_kernel(stats) {
            PathKernel::Layered => DEFAULT_SOURCE_BATCH,
            _ => 1,
        };
        Self::compute_with_threads_batched(stats, config, threads, batch)
    }

    /// The work-stealing driver with an explicit source-batch size: the
    /// shared counter hands each worker `batch` consecutive sources, which
    /// advance through one [`Explorer::explore_batch`] call. `batch ≤ 1`
    /// reproduces the single-source driver exactly (per-source
    /// [`Explorer::explore`], the bitwise reference); batches above
    /// [`crate::paths::MAX_BATCH_LANES`] are chunked by the kernel. Exposed
    /// for benchmarks that sweep batch sizes; output is bit-identical to
    /// [`compute_serial`](Self::compute_serial) for every batch size.
    pub fn compute_with_threads_batched(
        stats: &SchemaStats,
        config: &PathConfig,
        threads: usize,
        batch: usize,
    ) -> Self {
        let n = stats.len();
        let batch = batch.max(1);
        if n < config.parallel_threshold || threads < 2 {
            return Self::compute_serial_batched(stats, config, batch);
        }
        let mut out = Self::zeroed(n);
        let order = if batch > 1 {
            locality_order(stats)
        } else {
            Vec::new()
        };
        let next_source = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(Vec<ElementId>, Vec<SourceResult>)>();
        std::thread::scope(|scope| {
            for _ in 0..threads.min(n) {
                let tx = tx.clone();
                let next_source = &next_source;
                let order = &order;
                scope.spawn(move || {
                    let mut explorer = Explorer::new(n);
                    loop {
                        let start = next_source.fetch_add(batch, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        let end = (start + batch).min(n);
                        let (sources, results) = if batch == 1 {
                            let src = ElementId(start as u32);
                            (vec![src], vec![explorer.explore(src, stats, config)])
                        } else {
                            let chunk = order[start..end].to_vec();
                            let results = explorer.explore_batch(&chunk, stats, config);
                            (chunk, results)
                        };
                        if tx.send((sources, results)).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);
            while let Ok((sources, results)) = rx.recv() {
                for (src, res) in sources.iter().zip(&results) {
                    out.write_source_row(src.index(), res, stats);
                }
            }
        });
        out
    }

    /// Single-threaded reference implementation (also used below the
    /// parallel threshold, where thread spawn overhead dominates). The
    /// parallel and batched paths run the exact same per-source kernels, so
    /// their output is bit-identical to this one.
    pub fn compute_serial(stats: &SchemaStats, config: &PathConfig) -> Self {
        let n = stats.len();
        let mut out = Self::zeroed(n);
        let mut explorer = Explorer::new(n);
        for a in 0..n {
            let res = explorer.explore(ElementId(a as u32), stats, config);
            out.write_source_row(a, &res, stats);
        }
        out
    }

    /// Single-threaded batched pass: sources advance in consecutive chunks
    /// of `batch` through [`Explorer::explore_batch`]. `batch ≤ 1` is
    /// exactly [`compute_serial`](Self::compute_serial). Exposed for
    /// benchmarks isolating the kernel speedup from thread scaling.
    pub fn compute_serial_batched(stats: &SchemaStats, config: &PathConfig, batch: usize) -> Self {
        if batch <= 1 {
            return Self::compute_serial(stats, config);
        }
        let n = stats.len();
        let mut out = Self::zeroed(n);
        let mut explorer = Explorer::new(n);
        let order = locality_order(stats);
        for chunk in order.chunks(batch) {
            let results = explorer.explore_batch(chunk, stats, config);
            for (src, res) in chunk.iter().zip(&results) {
                out.write_source_row(src.index(), res, stats);
            }
        }
        out
    }

    fn zeroed(n: usize) -> Self {
        PairMatrices {
            n,
            affinity: vec![0.0; n * n],
            coverage: vec![0.0; n * n],
            truncated: false,
            floored: false,
            expansions: 0,
            per_source: Some(SourceMeta::zeroed(n)),
        }
    }

    /// The shared per-source kernel: fold one exploration result into row
    /// `a` of both matrices and the run-wide flags.
    fn write_source_row(&mut self, a: usize, res: &SourceResult, stats: &SchemaStats) {
        let n = self.n;
        let row = a * n;
        self.affinity[row..row + n].copy_from_slice(&res.best_affinity);
        for b in 0..n {
            // Formula 3: C(a→b) = Card_b · max path product; the special
            // case C(a→a) = Card_a falls out since the product is 1.
            self.coverage[row + b] = stats.card(ElementId(b as u32)) * res.best_cov_product[b];
        }
        self.truncated |= res.truncated;
        self.floored |= res.floored;
        self.expansions += res.expansions;
        if let Some(meta) = self.per_source.as_mut() {
            meta.truncated[a] = res.truncated;
            meta.floored[a] = res.floored;
            meta.expansions[a] = res.expansions;
            meta.visited[a] = res.reads.clone();
            meta.cov_product[row..row + n].copy_from_slice(&res.best_cov_product);
        }
    }

    /// Derive the matrices of a *changed* statistics annotation by
    /// re-exploring only the sources marked in `recompute` and carrying
    /// every other row over from `self`: affinity, flags, expansion counts,
    /// and metadata are copied verbatim (exploration never reads
    /// cardinalities, so an un-marked row's trace — and its products — are
    /// bit-identical under the new stats), while the coverage row is
    /// rewritten from the stored path products as `Card(b) · product`,
    /// the exact multiply [`write_source_row`](Self::write_source_row)
    /// performs. A cardinality-only delta therefore splices with *zero*
    /// re-exploration, at one multiply per matrix cell.
    ///
    /// The caller is responsible for the soundness of `recompute` (see
    /// `incremental::plan_delta`): a carried-over row is bit-identical to a
    /// cold recompute only when none of the exploration-relevant records
    /// its trace read changed. Given a sound plan, the spliced matrices —
    /// entries, flags, and expansion counts — are indistinguishable from
    /// [`compute`](Self::compute) on the new statistics.
    ///
    /// **Resizing**: `stats` may cover *more* elements than `self` (an
    /// additive structural delta appended elements). The splice then grows
    /// the matrices in place: every appended source row must be marked in
    /// `recompute` (there is no old row to carry), and carried-over old
    /// rows are re-strided into the wider layout with their new columns
    /// left at `+0.0` — exactly what a cold pass writes there, because a
    /// sound plan guarantees an unmarked row's trace never reaches an
    /// appended element, so its path product for those targets is zero and
    /// `Card · 0.0 = +0.0`.
    ///
    /// Returns `None` when the shapes disagree (including a *shrinking*
    /// `stats`, or an appended row left unmarked) or `self` lacks
    /// per-source metadata (matrices rehydrated from the legacy disk
    /// format), in which case the caller must fall back to a cold compute.
    pub fn splice(
        &self,
        stats: &SchemaStats,
        config: &PathConfig,
        recompute: &[bool],
    ) -> Option<Self> {
        let n_old = self.n;
        let n = stats.len();
        if n < n_old || recompute.len() != n {
            return None;
        }
        if recompute[n_old..].iter().any(|&redo| !redo) {
            return None;
        }
        let per = self.per_source.as_ref()?;
        let mut out = Self::zeroed(n);
        // Carried-over rows first, then the re-explored rows in batches:
        // rows are disjoint and the run-wide folds (`|=` flags, `u64` sum)
        // are order-independent, so the two-pass order changes no bits.
        // Only old rows (`a < n_old`) can be unmarked, checked above.
        for (a, &redo) in recompute.iter().enumerate() {
            if !redo {
                let src = a * n_old;
                let dst = a * n;
                out.affinity[dst..dst + n_old]
                    .copy_from_slice(&self.affinity[src..src + n_old]);
                // Redo only the final card multiply over the unchanged
                // products — bitwise what a cold write of this row does.
                // Appended columns keep the `0.0` product `zeroed` laid
                // down, and their coverage stays `+0.0 = Card · 0.0`.
                let products = &per.cov_product[src..src + n_old];
                for (b, product) in products.iter().enumerate() {
                    out.coverage[dst + b] = stats.card(ElementId(b as u32)) * product;
                }
                out.truncated |= per.truncated[a];
                out.floored |= per.floored[a];
                out.expansions += per.expansions[a];
                let meta = out.per_source.as_mut().expect("zeroed carries metadata");
                meta.truncated[a] = per.truncated[a];
                meta.floored[a] = per.floored[a];
                meta.expansions[a] = per.expansions[a];
                // A carried-over row's trace is unchanged, so its read set
                // and products are too.
                meta.visited[a] = per.visited[a].clone();
                meta.cov_product[dst..dst + n_old].copy_from_slice(products);
            }
        }
        let mut redo_rows: Vec<ElementId> = recompute
            .iter()
            .enumerate()
            .filter(|&(_, &redo)| redo)
            .map(|(a, _)| ElementId(a as u32))
            .collect();
        if redo_rows.len() > 1 {
            // Same locality policy as the cold driver: batches of
            // graph-neighboring sources share frontier relaxations.
            let mut rank = vec![0u32; n];
            for (pos, e) in locality_order(stats).into_iter().enumerate() {
                rank[e.index()] = pos as u32;
            }
            redo_rows.sort_unstable_by_key(|e| rank[e.index()]);
        }
        let mut explorer = Explorer::new(n);
        for chunk in redo_rows.chunks(DEFAULT_SOURCE_BATCH) {
            let results = explorer.explore_batch(chunk, stats, config);
            for (src, res) in chunk.iter().zip(&results) {
                out.write_source_row(src.index(), res, stats);
            }
        }
        Some(out)
    }

    /// Whether these matrices carry per-source metadata and can therefore
    /// serve as the base of a [`splice`](Self::splice).
    #[inline]
    pub fn has_source_meta(&self) -> bool {
        self.per_source.is_some()
    }

    /// The rows whose recorded read set intersects `touched` — exactly the
    /// sources whose exploration consulted a changed stats record and must
    /// be re-explored; every other row is bitwise invariant. Returns `None`
    /// when the metadata is absent (legacy decode) or the shape disagrees.
    pub fn rows_reading(&self, touched: &[bool]) -> Option<Vec<bool>> {
        let per = self.per_source.as_ref()?;
        if touched.len() != self.n {
            return None;
        }
        Some(
            per.visited
                .iter()
                .map(|reads| {
                    reads
                        .iter()
                        .any(|&u| touched.get(u as usize) == Some(&true))
                })
                .collect(),
        )
    }

    /// Bitwise equality of entries, flags, and expansion counts — the
    /// equivalence the incremental-maintenance proptests assert between a
    /// spliced refresh and a cold recompute. Per-source metadata presence
    /// is intentionally ignored (legacy-decoded matrices lack it).
    pub fn bitwise_eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.truncated == other.truncated
            && self.floored == other.floored
            && self.expansions == other.expansions
            && self
                .affinity
                .iter()
                .zip(&other.affinity)
                .all(|(a, b)| a.to_bits() == b.to_bits())
            && self
                .coverage
                .iter()
                .zip(&other.coverage)
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Number of elements covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the matrices are empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Element affinity `A(a → b)` (Formula 2).
    #[inline]
    pub fn affinity(&self, a: ElementId, b: ElementId) -> f64 {
        self.affinity[a.index() * self.n + b.index()]
    }

    /// Element coverage `C(a → b)` (Formula 3).
    #[inline]
    pub fn coverage(&self, a: ElementId, b: ElementId) -> f64 {
        self.coverage[a.index() * self.n + b.index()]
    }

    /// Row `a` of the coverage matrix: `C(a → b)` for every `b` in id order.
    #[inline]
    pub(crate) fn coverage_row(&self, a: ElementId) -> &[f64] {
        &self.coverage[a.index() * self.n..][..self.n]
    }

    /// Whether any per-source exploration exhausted its budget (entries are
    /// then lower bounds).
    #[inline]
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Whether any exploration cut branches at the
    /// [`PathConfig::min_product`] floor (entries are then lower bounds).
    #[inline]
    pub fn floored(&self) -> bool {
        self.floored
    }

    /// Total edge expansions across all sources — the cold pass's unit of
    /// work, comparable across configurations to measure pruning.
    #[inline]
    pub fn expansions(&self) -> u64 {
        self.expansions
    }

    /// Serialize to a compact binary form that round-trips bit-exactly:
    /// every `f64` is stored as its IEEE-754 bit pattern, so
    /// [`from_bytes`](Self::from_bytes) rebuilds matrices indistinguishable
    /// from the originals. This is the persistence format of the serving
    /// layer's disk tier.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.n;
        let mut out = Vec::with_capacity(8 + 2 + 8 + 16 * n * n);
        out.extend_from_slice(&(n as u64).to_le_bytes());
        out.push(u8::from(self.truncated));
        out.push(u8::from(self.floored));
        out.extend_from_slice(&self.expansions.to_le_bytes());
        for &v in &self.affinity {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        for &v in &self.coverage {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        // Per-source metadata rides as a trailing section so pre-existing
        // readers of the original layout still see a well-formed prefix and
        // legacy files (no section) decode with `per_source: None`.
        if let Some(meta) = &self.per_source {
            for a in 0..n {
                out.push(u8::from(meta.truncated[a]));
            }
            for a in 0..n {
                out.push(u8::from(meta.floored[a]));
            }
            for a in 0..n {
                out.extend_from_slice(&meta.expansions[a].to_le_bytes());
            }
            for a in 0..n {
                out.extend_from_slice(&(meta.visited[a].len() as u32).to_le_bytes());
                for &u in &meta.visited[a] {
                    out.extend_from_slice(&u.to_le_bytes());
                }
            }
            for &v in &meta.cov_product {
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        out
    }

    /// Rebuild matrices from [`to_bytes`](Self::to_bytes) output. Returns
    /// `None` on any malformed input (short, long, or inconsistent) —
    /// callers treat that as a cache miss and recompute.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, len: usize| -> Option<&[u8]> {
            let end = pos.checked_add(len)?;
            let slice = bytes.get(*pos..end)?;
            *pos = end;
            Some(slice)
        };
        let n = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?) as usize;
        // Reject sizes whose matrix byte count cannot even be addressed.
        let cells = n.checked_mul(n)?;
        let truncated = match take(&mut pos, 1)?[0] {
            0 => false,
            1 => true,
            _ => return None,
        };
        let floored = match take(&mut pos, 1)?[0] {
            0 => false,
            1 => true,
            _ => return None,
        };
        let expansions = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
        let read_matrix = |pos: &mut usize| -> Option<Vec<f64>> {
            let raw = take(pos, cells.checked_mul(8)?)?;
            Some(
                raw.chunks_exact(8)
                    .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
                    .collect(),
            )
        };
        let affinity = read_matrix(&mut pos)?;
        let coverage = read_matrix(&mut pos)?;
        // Legacy files end here; current files carry the per-source section.
        let per_source = if pos == bytes.len() {
            None
        } else {
            let read_flags = |pos: &mut usize| -> Option<Vec<bool>> {
                take(pos, n)?
                    .iter()
                    .map(|&b| match b {
                        0 => Some(false),
                        1 => Some(true),
                        _ => None,
                    })
                    .collect()
            };
            let src_truncated = read_flags(&mut pos)?;
            let src_floored = read_flags(&mut pos)?;
            let src_expansions: Vec<u64> = take(&mut pos, n.checked_mul(8)?)?
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                .collect();
            let mut visited = Vec::with_capacity(n);
            for _ in 0..n {
                let len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
                if len > n {
                    return None;
                }
                let reads: Vec<u32> = take(&mut pos, len.checked_mul(4)?)?
                    .chunks_exact(4)
                    .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
                    .collect();
                // Read sets are sorted element ids within the matrix shape.
                if reads.iter().any(|&u| u as usize >= n) || reads.windows(2).any(|w| w[0] >= w[1])
                {
                    return None;
                }
                visited.push(reads);
            }
            let cov_product = read_matrix(&mut pos)?;
            // The section must be internally consistent with the aggregates.
            if src_truncated.iter().any(|&t| t) != truncated
                || src_floored.iter().any(|&f| f) != floored
                || src_expansions.iter().sum::<u64>() != expansions
            {
                return None;
            }
            Some(SourceMeta {
                truncated: src_truncated,
                floored: src_floored,
                expansions: src_expansions,
                visited,
                cov_product,
            })
        };
        if pos != bytes.len() {
            return None;
        }
        Some(PairMatrices {
            n,
            affinity,
            coverage,
            truncated,
            floored,
            expansions,
            per_source,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema_summary_core::graph::SchemaGraphBuilder;
    use schema_summary_core::stats::LinkCount;
    use schema_summary_core::types::SchemaType;

    fn chain_stats() -> (schema_summary_core::SchemaGraph, SchemaStats) {
        let mut b = SchemaGraphBuilder::new("r");
        let a = b
            .add_child(b.root(), "a", SchemaType::set_of_rcd())
            .unwrap();
        let c = b.add_child(a, "c", SchemaType::set_of_rcd()).unwrap();
        let g = b.build().unwrap();
        let s = SchemaStats::from_link_counts(
            &g,
            &[1, 10, 40],
            &[
                LinkCount {
                    from: g.root(),
                    to: a,
                    count: 10,
                },
                LinkCount {
                    from: a,
                    to: c,
                    count: 40,
                },
            ],
        )
        .unwrap();
        (g, s)
    }

    #[test]
    fn diagonal_entries() {
        let (g, s) = chain_stats();
        let m = PairMatrices::compute(&s, &PathConfig::default());
        for e in g.element_ids() {
            assert_eq!(m.affinity(e, e), 1.0);
            assert_eq!(m.coverage(e, e), s.card(e));
        }
    }

    #[test]
    fn child_has_higher_affinity_to_parent_than_vice_versa() {
        let (g, s) = chain_stats();
        let m = PairMatrices::compute(&s, &PathConfig::default());
        let a = g.find_unique("a").unwrap();
        let c = g.find_unique("c").unwrap();
        // RC(a→c)=4, RC(c→a)=1: each c belongs to one a, each a has 4 c's.
        assert!(m.affinity(c, a) > m.affinity(a, c));
        assert!((m.affinity(c, a) - 1.0).abs() < 1e-9);
        assert!((m.affinity(a, c) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn coverage_values_hand_checked() {
        let (g, s) = chain_stats();
        let m = PairMatrices::compute(&s, &PathConfig::default());
        let a = g.find_unique("a").unwrap();
        let c = g.find_unique("c").unwrap();
        // C(a→c) = card_c · A(a→c) · W(c→a). c's only neighbor is a, so
        // W(c→a) = 1. A(a→c) = 1/4. => 40 · 0.25 = 10.
        assert!((m.coverage(a, c) - 10.0).abs() < 1e-9);
        // C(c→a) = card_a · A(c→a) · W(a→c).
        // W(a→c) = RC(a→c)/(RC(a→r)+RC(a→c)) = 4/(1+4).
        assert!((m.coverage(c, a) - 10.0 * 1.0 * 0.8).abs() < 1e-9);
    }

    #[test]
    fn asymmetry_is_preserved() {
        let (g, s) = chain_stats();
        let m = PairMatrices::compute(&s, &PathConfig::default());
        let a = g.find_unique("a").unwrap();
        let c = g.find_unique("c").unwrap();
        assert_ne!(m.affinity(a, c), m.affinity(c, a));
        assert_ne!(m.coverage(a, c), m.coverage(c, a));
        assert!(!m.truncated());
    }

    #[test]
    fn forced_parallel_matches_serial_bitwise() {
        let (g, s) = chain_stats();
        // parallel_threshold 0 forces the work-stealing path even for this
        // tiny schema; 4 workers on any machine.
        let cfg = PathConfig {
            parallel_threshold: 0,
            ..Default::default()
        };
        let par = PairMatrices::compute_with_threads(&s, &cfg, 4);
        let ser = PairMatrices::compute_serial(&s, &cfg);
        for a in g.element_ids() {
            for b in g.element_ids() {
                assert_eq!(par.affinity(a, b).to_bits(), ser.affinity(a, b).to_bits());
                assert_eq!(par.coverage(a, b).to_bits(), ser.coverage(a, b).to_bits());
            }
        }
        assert_eq!(par.truncated(), ser.truncated());
        assert_eq!(par.floored(), ser.floored());
        assert_eq!(par.expansions(), ser.expansions());
    }

    #[test]
    fn batched_drivers_match_serial_bitwise() {
        let (_, s) = chain_stats();
        let cfg = PathConfig {
            kernel: PathKernel::Layered,
            parallel_threshold: 0,
            ..Default::default()
        };
        let reference = PairMatrices::compute_serial(&s, &cfg);
        for batch in [1usize, 2, 3, DEFAULT_SOURCE_BATCH, 100] {
            let serial = PairMatrices::compute_serial_batched(&s, &cfg, batch);
            assert!(serial.bitwise_eq(&reference), "serial batch={batch}");
            let parallel = PairMatrices::compute_with_threads_batched(&s, &cfg, 4, batch);
            assert!(parallel.bitwise_eq(&reference), "parallel batch={batch}");
        }
        // The default entry point routes layered configs through the batched
        // driver; it too must be indistinguishable.
        let default_path = PairMatrices::compute_with_threads(&s, &cfg, 4);
        assert!(default_path.bitwise_eq(&reference));
    }

    #[test]
    fn expansions_are_reported() {
        let (_, s) = chain_stats();
        let m = PairMatrices::compute_serial(&s, &PathConfig::default());
        assert!(m.expansions() > 0);
        assert!(!m.floored());
    }

    #[test]
    fn byte_codec_roundtrips_bitwise() {
        let (g, s) = chain_stats();
        let m = PairMatrices::compute(&s, &PathConfig::default());
        let bytes = m.to_bytes();
        let back = PairMatrices::from_bytes(&bytes).unwrap();
        for a in g.element_ids() {
            for b in g.element_ids() {
                assert_eq!(m.affinity(a, b).to_bits(), back.affinity(a, b).to_bits());
                assert_eq!(m.coverage(a, b).to_bits(), back.coverage(a, b).to_bits());
            }
        }
        assert_eq!(m.truncated(), back.truncated());
        assert_eq!(m.floored(), back.floored());
        assert_eq!(m.expansions(), back.expansions());
    }

    #[test]
    fn byte_codec_rejects_malformed_input() {
        let (_, s) = chain_stats();
        let m = PairMatrices::compute(&s, &PathConfig::default());
        let bytes = m.to_bytes();
        assert!(PairMatrices::from_bytes(&[]).is_none());
        assert!(PairMatrices::from_bytes(&bytes[..bytes.len() - 1]).is_none());
        let mut long = bytes.clone();
        long.push(0);
        assert!(PairMatrices::from_bytes(&long).is_none());
        let mut bad_flag = bytes;
        bad_flag[8] = 7; // truncated flag must be 0 or 1
        assert!(PairMatrices::from_bytes(&bad_flag).is_none());
    }
}
