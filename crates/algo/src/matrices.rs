//! All-pairs element affinity (Formula 2) and coverage (Formula 3).
//!
//! [`PairMatrices`] materializes `A(a → b)` and `C(a → b)` for every ordered
//! element pair by running one path exploration per source element. For the
//! paper's datasets (70–327 elements) this is a few hundred kilobytes and
//! milliseconds; both `MaxCoverage` and summary construction consume the
//! matrices repeatedly, so computing them once up front dominates
//! recomputation.
//!
//! One loop builds every matrix. It hands sources out in batches of
//! [`DEFAULT_SOURCE_BATCH`], taken in BFS locality order, and each batch
//! advances through one [`Explorer::explore_batch`] frontier pass per
//! layer, streaming the CSR edge lanes once per layer for the whole batch
//! rather than once per source. The kernel writes each source's results
//! straight into its rows: the matrices are split once into disjoint
//! per-row slices (`chunks_exact_mut`), so the crate needs no `unsafe` row
//! aliasing and no result is copied twice. Per-source explorations are
//! independent, so on more than one thread the batches are handed out
//! from a shared queue (work stealing) rather than in static chunks:
//! exploration cost varies wildly per source — a source inside a densely
//! value-linked region can cost orders of magnitude more than a leaf —
//! and static chunking strands every other worker behind the unluckiest
//! chunk. The calling thread works as one of the workers.

use crate::paths::{Explorer, PathConfig, SourceRow};
use schema_summary_core::{ElementId, SchemaStats};
use std::sync::{Mutex, OnceLock};

/// Sources per work-stealing handout. The batched kernel's win scales with
/// *lane density* — how many of a batch's sources have overlapping
/// frontiers at each relaxed node — and with the arena working set staying
/// cache-resident; 16 lanes measured fastest across the bench schemas on
/// both axes (BENCH_matrices.json), ahead of 8 (metadata amortized over too
/// few lanes) and 32+ (arenas spill L2 on thousand-element schemas).
pub const DEFAULT_SOURCE_BATCH: usize = 16;

/// A row pass that explores fewer than this many sources runs on the
/// calling thread: thread spawn overhead outweighs the per-source work.
const PARALLEL_THRESHOLD: usize = 64;

/// The CPUs this process may use, read once: the query reads cgroup
/// files, which costs more than a small schema's whole pass.
fn cpu_count() -> usize {
    static CPUS: OnceLock<usize> = OnceLock::new();
    *CPUS
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}

/// The one thread rule for a row pass over `rows` sources, cold
/// ([`PairMatrices::compute`]) or spliced ([`PairMatrices::splice`]): the
/// calling thread alone below [`PARALLEL_THRESHOLD`], every CPU otherwise.
fn threads_for(rows: usize) -> usize {
    if rows < PARALLEL_THRESHOLD {
        1
    } else {
        cpu_count()
    }
}

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
/// flag and expansion count as the exact fold a from-scratch compute would
/// produce.
#[derive(Debug, Clone)]
struct SourceMeta {
    truncated: Vec<bool>,
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
    expansions: u64,
    per_source: SourceMeta,
}

impl PairMatrices {
    /// Compute both matrices for `stats` under `config`, parallelizing
    /// across source elements once the schema is large enough to repay
    /// the thread spawns and more than one CPU is available.
    pub fn compute(stats: &SchemaStats, config: &PathConfig) -> Self {
        Self::compute_with_threads(stats, config, threads_for(stats.len()))
    }

    /// [`compute`](Self::compute) on exactly `threads` worker threads,
    /// whatever the schema size (`threads ≤ 1` runs on the calling
    /// thread). The output is bit-identical for every thread count; tests
    /// and benchmarks use this to pin the parallel or the serial path.
    pub fn compute_with_threads(stats: &SchemaStats, config: &PathConfig, threads: usize) -> Self {
        let mut out = Self::zeroed(stats.len());
        out.explore_rows(&locality_order(stats), stats, config, threads);
        out
    }

    fn zeroed(n: usize) -> Self {
        PairMatrices {
            n,
            affinity: vec![0.0; n * n],
            coverage: vec![0.0; n * n],
            truncated: false,
            expansions: 0,
            per_source: SourceMeta::zeroed(n),
        }
    }

    /// The one row loop: explore `sources` in handouts of
    /// [`DEFAULT_SOURCE_BATCH`] through [`Explorer::explore_batch`], which
    /// writes each source's results straight into its (zeroed) rows, then
    /// fold the run-wide flag and count over every row. The rows are split
    /// once into disjoint slices, and the calling thread and up to
    /// `threads - 1` scoped helpers take handouts from a shared queue
    /// (`threads ≤ 1` runs on the calling thread alone). Rows are disjoint and the run-wide folds (`any`, `u64`
    /// sum) are order-independent, so neither the thread count nor the
    /// order of `sources` changes any bit.
    fn explore_rows(
        &mut self,
        sources: &[ElementId],
        stats: &SchemaStats,
        config: &PathConfig,
        threads: usize,
    ) {
        let n = self.n;
        let meta = &mut self.per_source;
        if !sources.is_empty() {
            let mut slots: Vec<_> = self
                .affinity
                .chunks_exact_mut(n)
                .zip(self.coverage.chunks_exact_mut(n))
                .zip(meta.cov_product.chunks_exact_mut(n))
                .map(Some)
                .collect();
            let mut rows: Vec<SourceRow> = sources
                .iter()
                .map(|&source| {
                    let ((affinity, coverage), cov_product) = slots[source.index()]
                        .take()
                        .expect("each source is explored once");
                    SourceRow::new(source, affinity, coverage, cov_product)
                })
                .collect();
            let handouts = Mutex::new(rows.chunks_mut(DEFAULT_SOURCE_BATCH));
            let work = || {
                let mut explorer = Explorer::new(n);
                loop {
                    // Hold the lock only to take a handout.
                    let batch = handouts
                        .lock()
                        .expect("no thread panics while taking a handout")
                        .next();
                    let Some(batch) = batch else { break };
                    explorer.explore_batch(batch, stats, config);
                }
            };
            // The calling thread works too, so `threads ≤ 1` spawns nothing.
            let workers = threads.min(sources.len().div_ceil(DEFAULT_SOURCE_BATCH));
            std::thread::scope(|scope| {
                for _ in 1..workers {
                    scope.spawn(work);
                }
                work();
            });
            for row in rows {
                let a = row.source.index();
                meta.truncated[a] = row.truncated;
                meta.expansions[a] = row.expansions;
                meta.visited[a] = row.reads;
            }
        }
        self.truncated = meta.truncated.iter().any(|&t| t);
        self.expansions = meta.expansions.iter().sum();
    }

    /// Derive the matrices of a *changed* statistics annotation by
    /// re-exploring only the sources marked in `recompute` and carrying
    /// every other row over from `self`: affinity, flags, expansion counts,
    /// and metadata are copied verbatim (exploration never reads
    /// cardinalities, so an un-marked row's trace — and its products — are
    /// bit-identical under the new stats), while the coverage row is
    /// rewritten from the stored path products as `Card(b) · product`,
    /// the exact multiply the batched kernel performs when it writes a
    /// row. A cardinality-only delta therefore splices with *zero*
    /// re-exploration, at one multiply per matrix cell.
    ///
    /// The caller is responsible for the soundness of `recompute` (see
    /// `incremental::plan_delta`): a carried-over row is bit-identical to a
    /// cold recompute only when none of the exploration-relevant records
    /// its trace read changed. Given a sound plan, the spliced matrices —
    /// entries, flags, and expansion counts — are indistinguishable from
    /// [`compute`](Self::compute) on the new statistics.
    ///
    /// The re-explored rows go through the same row loop as a cold pass,
    /// under the same thread rule: on the calling thread below 64 rows,
    /// on every CPU from there.
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
    /// `stats`, or an appended row left unmarked), in which case the
    /// caller must fall back to a cold compute.
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
        let per = &self.per_source;
        let mut out = Self::zeroed(n);
        // Carried-over rows first, then the re-explored rows, then the
        // run-wide fold over both: rows are disjoint and the fold is
        // order-independent, so the two-pass order changes no bits. Only
        // old rows (`a < n_old`) can be unmarked, checked above.
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
                let meta = &mut out.per_source;
                meta.truncated[a] = per.truncated[a];
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
        out.explore_rows(&redo_rows, stats, config, threads_for(redo_rows.len()));
        Some(out)
    }

    /// The rows whose recorded read set intersects `touched` — exactly the
    /// sources whose exploration consulted a changed stats record and must
    /// be re-explored; every other row is bitwise invariant. Read ids
    /// beyond `touched` count as untouched.
    pub fn rows_reading(&self, touched: &[bool]) -> Vec<bool> {
        self.per_source
            .visited
            .iter()
            .map(|reads| {
                reads
                    .iter()
                    .any(|&u| touched.get(u as usize) == Some(&true))
            })
            .collect()
    }

    /// Bitwise equality of entries, flags, and expansion counts — the
    /// equivalence the incremental-maintenance proptests assert between a
    /// spliced refresh and a cold recompute.
    pub fn bitwise_eq(&self, other: &Self) -> bool {
        self.n == other.n
            && self.truncated == other.truncated
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

    /// Total edge expansions across all sources — the cold pass's unit of
    /// work.
    #[inline]
    pub fn expansions(&self) -> u64 {
        self.expansions
    }

    /// Serialize to a compact binary form that round-trips bit-exactly:
    /// every `f64` is stored as its IEEE-754 bit pattern, so
    /// [`from_bytes`](Self::from_bytes) rebuilds matrices indistinguishable
    /// from the originals. This is the persistence format of the serving
    /// layer's disk tier. Layout (little-endian): `n: u64`,
    /// `truncated: u8`, `expansions: u64`, the affinity and coverage
    /// matrices (`n²` `f64` each), then per source `truncated: u8`, per
    /// source `expansions: u64`, per source a read set (`len: u32` then
    /// `len` ids as `u32`), and the `n²` coverage path products.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n = self.n;
        let meta = &self.per_source;
        let reads: usize = meta.visited.iter().map(Vec::len).sum();
        let mut out = Vec::with_capacity(min_encoded_len(n).unwrap_or(0) + 4 * reads);
        out.extend_from_slice(&(n as u64).to_le_bytes());
        out.push(u8::from(self.truncated));
        out.extend_from_slice(&self.expansions.to_le_bytes());
        for &v in &self.affinity {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        for &v in &self.coverage {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        out.extend(meta.truncated.iter().map(|&t| u8::from(t)));
        for &e in &meta.expansions {
            out.extend_from_slice(&e.to_le_bytes());
        }
        for visited in &meta.visited {
            out.extend_from_slice(&(visited.len() as u32).to_le_bytes());
            for &u in visited {
                out.extend_from_slice(&u.to_le_bytes());
            }
        }
        for &v in &meta.cov_product {
            out.extend_from_slice(&v.to_bits().to_le_bytes());
        }
        out
    }

    /// Rebuild matrices from [`to_bytes`](Self::to_bytes) output. Returns
    /// `None` on any malformed input (short, long, or inconsistent) —
    /// callers treat that as a cache miss and recompute. Every accepted
    /// input is canonical (`to_bytes` of the result reproduces it), and
    /// the size the header claims is checked against the input length
    /// before anything is allocated.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, len: usize| -> Option<&[u8]> {
            let end = pos.checked_add(len)?;
            let slice = bytes.get(*pos..end)?;
            *pos = end;
            Some(slice)
        };
        let n = usize::try_from(u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?)).ok()?;
        if bytes.len() < min_encoded_len(n)? {
            return None;
        }
        let cells = n * n;
        let read_flag = |pos: &mut usize| -> Option<bool> {
            match take(pos, 1)?[0] {
                0 => Some(false),
                1 => Some(true),
                _ => None,
            }
        };
        let read_u64s = |pos: &mut usize, count: usize| -> Option<Vec<u64>> {
            Some(
                take(pos, count * 8)?
                    .chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("8 bytes")))
                    .collect(),
            )
        };
        let read_f64s = |pos: &mut usize, count: usize| -> Option<Vec<f64>> {
            Some(
                take(pos, count * 8)?
                    .chunks_exact(8)
                    .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().expect("8 bytes"))))
                    .collect(),
            )
        };
        let truncated = read_flag(&mut pos)?;
        let expansions = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
        let affinity = read_f64s(&mut pos, cells)?;
        let coverage = read_f64s(&mut pos, cells)?;
        let src_truncated = (0..n)
            .map(|_| read_flag(&mut pos))
            .collect::<Option<Vec<bool>>>()?;
        let src_expansions = read_u64s(&mut pos, n)?;
        let mut visited = Vec::with_capacity(n);
        for _ in 0..n {
            let len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
            if len > n {
                return None;
            }
            let reads: Vec<u32> = take(&mut pos, len * 4)?
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect();
            // Read sets are sorted element ids within the matrix shape.
            if reads.iter().any(|&u| u as usize >= n) || reads.windows(2).any(|w| w[0] >= w[1]) {
                return None;
            }
            visited.push(reads);
        }
        let cov_product = read_f64s(&mut pos, cells)?;
        // The section must be internally consistent with the aggregates.
        let expansion_sum = src_expansions
            .iter()
            .try_fold(0u64, |sum, &e| sum.checked_add(e))?;
        if pos != bytes.len()
            || src_truncated.iter().any(|&t| t) != truncated
            || expansion_sum != expansions
        {
            return None;
        }
        Some(PairMatrices {
            n,
            affinity,
            coverage,
            truncated,
            expansions,
            per_source: SourceMeta {
                truncated: src_truncated,
                expansions: src_expansions,
                visited,
                cov_product,
            },
        })
    }
}

/// Bytes [`PairMatrices::to_bytes`] writes for `n` elements with every
/// read set empty; `None` when that size overflows `usize`.
fn min_encoded_len(n: usize) -> Option<usize> {
    // Header (17), three f64 matrices, per source a flag, an expansion
    // count, and a read-set length.
    n.checked_mul(n)?
        .checked_mul(24)?
        .checked_add(n.checked_mul(1 + 8 + 4)?)?
        .checked_add(17)
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
        // An explicit thread count runs the work-stealing path even for
        // this tiny schema, on any machine.
        let cfg = PathConfig::default();
        let par = PairMatrices::compute_with_threads(&s, &cfg, 4);
        let ser = PairMatrices::compute_with_threads(&s, &cfg, 1);
        for a in g.element_ids() {
            for b in g.element_ids() {
                assert_eq!(par.affinity(a, b).to_bits(), ser.affinity(a, b).to_bits());
                assert_eq!(par.coverage(a, b).to_bits(), ser.coverage(a, b).to_bits());
            }
        }
        assert_eq!(par.truncated(), ser.truncated());
        assert_eq!(par.expansions(), ser.expansions());
        assert!(PairMatrices::compute(&s, &cfg).bitwise_eq(&ser));
    }

    #[test]
    fn compute_matches_single_source_explorations() {
        let (g, s) = chain_stats();
        let cfg = PathConfig::default();
        let m = PairMatrices::compute_with_threads(&s, &cfg, 1);
        let mut explorer = Explorer::new(s.len());
        let mut expansions = 0;
        for a in g.element_ids() {
            let res = explorer.explore(a, &s, &cfg);
            expansions += res.expansions;
            for b in g.element_ids() {
                let i = b.index();
                assert_eq!(m.affinity(a, b).to_bits(), res.best_affinity[i].to_bits());
                let cov = s.card(b) * res.best_cov_product[i];
                assert_eq!(m.coverage(a, b).to_bits(), cov.to_bits());
            }
        }
        assert_eq!(m.expansions(), expansions);
    }

    #[test]
    fn expansions_are_reported() {
        let (_, s) = chain_stats();
        let m = PairMatrices::compute(&s, &PathConfig::default());
        assert!(m.expansions() > 0);
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
        assert_eq!(m.expansions(), back.expansions());
        assert_eq!(back.to_bytes(), bytes);
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
        // The matrices alone, without the per-source section.
        let prefix_only = 17 + 16 * m.len() * m.len();
        assert!(PairMatrices::from_bytes(&bytes[..prefix_only]).is_none());
        let mut bad_flag = bytes;
        bad_flag[8] = 7; // truncated flag must be 0 or 1
        assert!(PairMatrices::from_bytes(&bad_flag).is_none());
    }
}
