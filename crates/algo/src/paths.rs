//! Path maxima underlying affinity and coverage.
//!
//! Formulas 2 and 3 maximize per-path products over "all possible paths"
//! between two elements. We read that as **simple paths** (no repeated
//! elements): walks that revisit elements could pump the products without
//! bound whenever an edge has `RC < 1` (optional children), so simple paths
//! are the only sound reading (see DESIGN.md §3.2).
//!
//! Every per-edge factor is clamped to `[0, 1]` (DESIGN.md §3.9), and that
//! makes enumeration unnecessary: removing a cycle from a walk divides its
//! product by factors ≤ 1 (the product can only grow) and shortens it (the
//! affinity denominator can only shrink), so the best walk to each target
//! is attained on a simple path. The kernel here is therefore a layered
//! relaxation over walks — Bellman–Ford on the `(max, ×)` semiring,
//! `O(max_edges · |edges|)` per source — that reproduces the simple-path
//! maxima bit for bit (DESIGN.md §3.14; `path_kernel_matches_dfs_oracle`
//! checks it against brute-force enumeration). It walks the struct-of-arrays
//! CSR lanes of [`SchemaStats`], and one relaxation per layer yields, for
//! every target:
//!
//! * the **affinity product** `Π 1/RC(e_{j-1} → e_j)` (Formula 2), and
//! * the **coverage product**
//!   `Π A(e_{j-1} → e_j) · W(e_j → e_{j-1})` (Formula 3).
//!
//! The two maxima may be achieved on *different* paths, which is why both
//! products are relaxed rather than derived from one another.
//!
//! [`Explorer::explore_batch`] advances up to [`MAX_BATCH_LANES`] sources
//! per frontier pass, writes their results straight into the caller's
//! matrix rows ([`SourceRow`]), and is what
//! [`PairMatrices`](crate::PairMatrices) runs; [`Explorer::explore`] is the
//! single-source form it falls back to for the one order-dependent case, a
//! budget exhausted mid-layer, and its test oracle.

use schema_summary_core::{ElementId, SchemaStats};
use serde::{Deserialize, Serialize};

/// How path length `n_i` is counted when dividing the affinity product.
///
/// The paper's Formula 2 text indexes path *elements*, but its worked
/// example (`A(b→o) ≈ 1.0` for a direct edge with `RC(b→o) = 1`) is only
/// consistent with counting *edges*. We follow the worked example by
/// default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum PathLength {
    /// `n_i` = number of edges (matches the paper's worked example).
    #[default]
    Edges,
    /// `n_i` = number of elements on the path (the literal formula text).
    Nodes,
}

/// Configuration for path exploration. Configurations key memoized
/// artifacts and cached results, so every field is exact (no floats).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PathConfig {
    /// Maximum number of edges on a path. Longer paths carry a `1/n`
    /// penalty and per-edge products ≤ 1 in the common case, so they
    /// contribute negligibly; 10 comfortably exceeds the diameter of the
    /// paper's schemas.
    pub max_edges: usize,
    /// Budget on edge traversals per source; exploration stops (and the
    /// result is flagged truncated) if exceeded. Guards against pathological
    /// densely-linked schemas.
    pub max_expansions: usize,
    /// Path-length convention for the affinity denominator.
    pub path_length: PathLength,
}

impl Default for PathConfig {
    fn default() -> Self {
        PathConfig {
            max_edges: 10,
            max_expansions: 4_000_000,
            path_length: PathLength::Edges,
        }
    }
}

impl PathConfig {
    /// The `1/RC` factor of one edge, clamped at 1.
    ///
    /// Formula 2 divides by the relative cardinality along each step, which
    /// exceeds 1 whenever `RC < 1` (optional children, references split
    /// across several referee elements). Taken literally that makes *rarer*
    /// relationships count as *closer* and lets paths pump affinity through
    /// low-RC links without bound — contradicting the paper's own framing
    /// ("the affinities will be close to 1.0 and 0.5") where affinity tops
    /// out at 1 for a perfect 1:1 step. We therefore clamp the per-edge
    /// factor at 1 (DESIGN.md §3.9); all of the paper's worked examples
    /// have `RC ≥ 1` and are unaffected. The same clamped factor is
    /// precomputed per edge in the statistics' CSR records
    /// (`EdgeRec::rc_factor`), which is what the exploration consumes.
    #[inline]
    pub fn rc_factor(&self, rc: f64) -> f64 {
        (1.0 / rc).min(1.0)
    }

    /// The affinity of a single edge `u → v` under this convention: the
    /// value of Formula 2 for the one-edge path.
    #[inline]
    pub fn edge_affinity(&self, rc: f64) -> f64 {
        match self.path_length {
            PathLength::Edges => self.rc_factor(rc),
            PathLength::Nodes => 0.5 * self.rc_factor(rc),
        }
    }

    /// The constant the clamped `rc_factor` is scaled by when it enters the
    /// coverage product: 1 under the `Edges` convention, 0.5 under `Nodes`
    /// (every edge affinity halves, cf. [`PathConfig::edge_affinity`]).
    #[inline]
    fn affinity_scale(&self) -> f64 {
        match self.path_length {
            PathLength::Edges => 1.0,
            PathLength::Nodes => 0.5,
        }
    }

    fn length_denominator(&self, edges: usize) -> f64 {
        match self.path_length {
            PathLength::Edges => edges as f64,
            PathLength::Nodes => (edges + 1) as f64,
        }
    }
}

/// Per-source exploration result of the scalar kernel
/// ([`Explorer::explore`]).
#[derive(Debug, Clone)]
pub struct SourceResult {
    /// `best_affinity[b]` = `A(source → b)` (Formula 2); 1 for the source
    /// itself, 0 for unreachable targets.
    pub best_affinity: Vec<f64>,
    /// `best_cov_product[b]` = the path maximum of Formula 3's product
    /// (excluding the `Card` factor); 1 for the source itself.
    pub best_cov_product: Vec<f64>,
    /// Whether the expansion budget was exhausted (maxima become lower
    /// bounds).
    pub truncated: bool,
    /// Edge traversals actually performed for this source.
    pub expansions: u64,
    /// Sorted ids of every element this exploration *read*: elements whose
    /// edge records the kernel scanned (or may scan next layer), plus every
    /// target with a nonzero product (whose cardinality scales the coverage
    /// row). The result — values, flags, and expansion count — is a
    /// deterministic function of exactly these elements' stats records, the
    /// foundation of incremental maintenance (`incremental::plan_delta`).
    pub reads: Vec<u32>,
}

/// One source's slots in the caller's matrices, which
/// [`Explorer::explore_batch`] fills in place: the source's row of the
/// affinity matrix, of the coverage matrix (`Card(b) · product`,
/// Formula 3) and of the raw coverage path products, plus the fields of
/// [`SourceResult`] that are not rows.
///
/// The rows must arrive zeroed. The kernel writes only the targets a
/// source reaches; an unreached target keeps the `+0.0` a full write
/// would store there (`Card(b) · 0.0`, cardinalities being finite and
/// non-negative).
#[derive(Debug)]
pub struct SourceRow<'a> {
    /// The source element whose row this is.
    pub source: ElementId,
    /// `A(source → b)` for every `b` in id order.
    pub affinity: &'a mut [f64],
    /// `C(source → b)` for every `b` in id order.
    pub coverage: &'a mut [f64],
    /// The path maximum of Formula 3's product for every `b`
    /// ([`SourceResult::best_cov_product`]).
    pub cov_product: &'a mut [f64],
    /// As [`SourceResult::truncated`].
    pub truncated: bool,
    /// As [`SourceResult::expansions`].
    pub expansions: u64,
    /// As [`SourceResult::reads`]; must arrive empty.
    pub reads: Vec<u32>,
}

impl<'a> SourceRow<'a> {
    /// Slots for `source` over three zeroed rows of the schema's width.
    pub fn new(
        source: ElementId,
        affinity: &'a mut [f64],
        coverage: &'a mut [f64],
        cov_product: &'a mut [f64],
    ) -> Self {
        SourceRow {
            source,
            affinity,
            coverage,
            cov_product,
            truncated: false,
            expansions: 0,
            reads: Vec::new(),
        }
    }

    /// Copy a scalar exploration of this row's source into the slots.
    fn fill(&mut self, res: SourceResult, stats: &SchemaStats) {
        self.affinity.copy_from_slice(&res.best_affinity);
        self.cov_product.copy_from_slice(&res.best_cov_product);
        for (b, (slot, &product)) in self
            .coverage
            .iter_mut()
            .zip(&res.best_cov_product)
            .enumerate()
        {
            *slot = stats.card(ElementId(b as u32)) * product;
        }
        self.truncated = res.truncated;
        self.expansions = res.expansions;
        self.reads = res.reads;
    }
}

/// Upper bound on sources advanced per batched frontier sweep: per-node
/// lane membership is a `u64` bitmask, one bit per source lane.
pub const MAX_BATCH_LANES: usize = 64;

/// One layer of the batched kernel's lane arenas: every per-source array
/// of the scalar kernel flattened into one `n × stride` allocation indexed
/// `[node * stride + lane]`, with per-node frontier membership as a `u64`
/// bitmask (bit `l` ⇔ lane `l`).
#[derive(Debug, Default)]
struct LaneLayer {
    /// Max walk products at this layer's edge count.
    aff: Vec<f64>,
    cov: Vec<f64>,
    /// Bit `l` set ⇔ the node is in lane `l`'s frontier at this layer.
    mask: Vec<u64>,
}

/// Arena scratch for the batched layered kernel
/// ([`Explorer::explore_batch`]). Every arena is all-zero between batches,
/// like the scalar scratch: a node's layer cells and mask are zeroed as the
/// node leaves the frontier, and its running maxima and read mask as they
/// are transposed into the output rows, so a sparse batch costs
/// O(touched · stride), not O(n).
#[derive(Debug, Default)]
struct BatchScratch {
    /// The layer being relaxed and the layer it reaches.
    cur: LaneLayer,
    next: LaneLayer,
    /// Per-target running maxima over the layers folded so far.
    best_aff: Vec<f64>,
    best_cov: Vec<f64>,
    /// Bit `l` set ⇔ the node was in lane `l`'s frontier at some layer,
    /// i.e. is in lane `l`'s read set.
    read_mask: Vec<u64>,
    /// Union frontiers across lanes (insertion-ordered, deduped by mask).
    frontier: Vec<u32>,
    next_frontier: Vec<u32>,
    /// Every node with a nonzero `read_mask`.
    touched: Vec<u32>,
}

impl BatchScratch {
    /// Grow the arenas to cover `nodes × stride` cells. Growth appends
    /// zeros, and the all-zero invariant keeps existing cells zero, so
    /// re-sizing between batches of different shapes is sound without a
    /// wipe.
    fn ensure(&mut self, nodes: usize, stride: usize) {
        let cells = nodes * stride;
        if self.best_aff.len() < cells {
            for arena in [
                &mut self.cur.aff,
                &mut self.cur.cov,
                &mut self.next.aff,
                &mut self.next.cov,
                &mut self.best_aff,
                &mut self.best_cov,
            ] {
                arena.resize(cells, 0.0);
            }
        }
        if self.read_mask.len() < nodes {
            self.cur.mask.resize(nodes, 0);
            self.next.mask.resize(nodes, 0);
            self.read_mask.resize(nodes, 0);
        }
    }

    /// Take frontier node `u` out of the current layer, whose walks have
    /// `edges` edges: stage its value cells in `aff`/`cov` and zero them,
    /// fold them into the running maxima under that layer's denominator
    /// (the sources' own layer, `edges = 0`, is not folded: source
    /// entries are pinned instead), and mark the node read by its member
    /// lanes. Returns the member-lane mask.
    #[inline]
    fn retire(
        &mut self,
        u: usize,
        stride: usize,
        dense: impl Fn(u64) -> bool,
        denom: Option<f64>,
        aff: &mut [f64; MAX_BATCH_LANES],
        cov: &mut [f64; MAX_BATCH_LANES],
    ) -> u64 {
        let m = std::mem::take(&mut self.cur.mask[u]);
        if self.read_mask[u] == 0 {
            self.touched.push(u as u32);
        }
        self.read_mask[u] |= m;
        let bu = u * stride;
        let cur_aff = &mut self.cur.aff[bu..][..stride];
        let cur_cov = &mut self.cur.cov[bu..][..stride];
        aff[..stride].copy_from_slice(cur_aff);
        cov[..stride].copy_from_slice(cur_cov);
        cur_aff.fill(0.0);
        cur_cov.fill(0.0);
        let Some(denom) = denom else { return m };
        // The scalar fold, `if a > 0 { max(best, a / denom) }` and
        // `if c > 0 { max(best, c) }`: every value and every maximum is
        // ≥ +0.0, so a zero never beats the stored maximum and the `> 0`
        // guards drop out. Keep the division: a reciprocal multiply
        // changes bits for every denominator that is not a power of two.
        let best_aff = &mut self.best_aff[bu..][..stride];
        let best_cov = &mut self.best_cov[bu..][..stride];
        if dense(m) {
            for l in 0..stride {
                let val = aff[l] / denom;
                best_aff[l] = if val > best_aff[l] { val } else { best_aff[l] };
                best_cov[l] = if cov[l] > best_cov[l] {
                    cov[l]
                } else {
                    best_cov[l]
                };
            }
        } else {
            let mut bits = m;
            while bits != 0 {
                let l = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let val = aff[l] / denom;
                if val > best_aff[l] {
                    best_aff[l] = val;
                }
                if cov[l] > best_cov[l] {
                    best_cov[l] = cov[l];
                }
            }
        }
        m
    }
}

/// Reusable per-thread scratch for path exploration.
///
/// One `Explorer` serves any number of sources over schemas of up to the
/// constructed element count; [`PairMatrices::compute`](crate::PairMatrices)
/// keeps one per worker thread so the cold all-pairs pass performs no
/// per-source allocation beyond its output rows.
#[derive(Debug)]
pub struct Explorer {
    /// Per-node max walk products at the current and next edge count
    /// (affinity and coverage relax independently — the two maxima may be
    /// achieved on different paths). The value arrays are kept all-zero
    /// between sources; only entries listed in the frontier are live, so
    /// sparse layers cost O(frontier), not O(n).
    cur_aff: Vec<f64>,
    cur_cov: Vec<f64>,
    next_aff: Vec<f64>,
    next_cov: Vec<f64>,
    frontier: Vec<u32>,
    next_frontier: Vec<u32>,
    in_next: Vec<bool>,
    /// Dedup flags for the per-source read set ([`SourceResult::reads`]);
    /// restored to all-false between sources.
    read_flag: Vec<bool>,
    /// Lane arenas for [`explore_batch`](Self::explore_batch); allocated
    /// on the first batched call.
    batch: Option<Box<BatchScratch>>,
}

impl Explorer {
    /// Scratch sized for schemas of `n` elements.
    pub fn new(n: usize) -> Self {
        Explorer {
            cur_aff: vec![0.0; n],
            cur_cov: vec![0.0; n],
            next_aff: vec![0.0; n],
            next_cov: vec![0.0; n],
            frontier: Vec::with_capacity(n),
            next_frontier: Vec::with_capacity(n),
            in_next: vec![false; n],
            read_flag: vec![false; n],
            batch: None,
        }
    }

    /// Record `u` into the read set exactly once.
    #[inline]
    fn record_read(flag: &mut [bool], reads: &mut Vec<u32>, u: u32) {
        if !flag[u as usize] {
            flag[u as usize] = true;
            reads.push(u);
        }
    }

    /// Close out the read set: fold in every target with a nonzero product
    /// (its cardinality is read when the coverage row is written), restore
    /// the dedup scratch, and sort into canonical order.
    fn finish_reads(&mut self, n: usize, result: &mut SourceResult) {
        for b in 0..n {
            if result.best_affinity[b] > 0.0 || result.best_cov_product[b] > 0.0 {
                Self::record_read(&mut self.read_flag, &mut result.reads, b as u32);
            }
        }
        for &u in &result.reads {
            self.read_flag[u as usize] = false;
        }
        result.reads.sort_unstable();
    }

    /// Compute, for every target, the maxima of the affinity and coverage
    /// path products from `source`: the single-source layered kernel.
    ///
    /// `cur_*[v]` holds the maximum product over *walks* of exactly
    /// `edges_used - 1` edges from the source to `v`; each layer relaxes
    /// every traversable edge of the frontier once and folds the new
    /// layer's values into the per-target maxima, which are the
    /// simple-path maxima of Formulas 2 and 3 (see the module docs).
    ///
    /// Edges with `RC(u → v) = 0` (no data instances on the `u` side) are
    /// not traversable: affinity through them is undefined (the formula
    /// divides by RC) and semantically there is no data connectivity.
    ///
    /// The budget is charged one edge at a time, so an exhausted budget
    /// stops part way through a layer, at a point that depends on frontier
    /// order. The partial layer is still folded in and the result is
    /// flagged truncated: its maxima are then lower bounds.
    pub fn explore(
        &mut self,
        source: ElementId,
        stats: &SchemaStats,
        config: &PathConfig,
    ) -> SourceResult {
        let n = stats.len();
        assert!(
            self.read_flag.len() >= n,
            "explorer sized for {} elements, got {}",
            self.read_flag.len(),
            n
        );
        let mut result = SourceResult {
            best_affinity: vec![0.0; n],
            best_cov_product: vec![0.0; n],
            truncated: false,
            expansions: 0,
            reads: Vec::new(),
        };
        result.best_affinity[source.index()] = 1.0;
        result.best_cov_product[source.index()] = 1.0;
        if config.max_edges == 0 {
            self.finish_reads(n, &mut result);
            return result;
        }

        let aff_scale = config.affinity_scale();
        let neighbors = stats.neighbor_lane();
        let rcs = stats.rc_lane();
        let rc_factors = stats.rc_factor_lane();
        let w_backs = stats.w_back_lane();
        let mut budget = config.max_expansions;
        // Invariant: the value arrays are all-zero on entry (enforced by
        // zeroing exactly the frontier entries before returning), so a
        // sparse layer touches O(frontier · degree) entries, not O(n).
        self.frontier.clear();
        self.frontier.push(source.0);
        // Frontier members have their edge lists scanned (the final
        // frontier's scan is cut by the depth limit; including it is a
        // harmless over-approximation of the read set).
        Self::record_read(&mut self.read_flag, &mut result.reads, source.0);
        self.cur_aff[source.index()] = 1.0;
        self.cur_cov[source.index()] = 1.0;
        for edges_used in 1..=config.max_edges {
            self.next_frontier.clear();
            let mut exhausted = false;
            'relax: for &u in &self.frontier {
                let a = self.cur_aff[u as usize];
                let c = self.cur_cov[u as usize];
                for idx in stats.edge_range(ElementId(u)) {
                    if rcs[idx] <= 0.0 {
                        continue;
                    }
                    if budget == 0 {
                        exhausted = true;
                        break 'relax;
                    }
                    budget -= 1;
                    result.expansions += 1;
                    let i = neighbors[idx].index();
                    let na = a * rc_factors[idx];
                    let nc = c * (aff_scale * rc_factors[idx]) * w_backs[idx];
                    if self.in_next[i] {
                        if na > self.next_aff[i] {
                            self.next_aff[i] = na;
                        }
                        if nc > self.next_cov[i] {
                            self.next_cov[i] = nc;
                        }
                    } else {
                        self.in_next[i] = true;
                        Self::record_read(&mut self.read_flag, &mut result.reads, neighbors[idx].0);
                        self.next_frontier.push(neighbors[idx].0);
                        self.next_aff[i] = na;
                        self.next_cov[i] = nc;
                    }
                }
            }
            // Fold this layer (possibly partial, if the budget ran out) into
            // the per-target maxima; partial layers are lower bounds, which
            // is exactly what `truncated` signals.
            let denom = config.length_denominator(edges_used);
            for &v in &self.next_frontier {
                let v = v as usize;
                self.in_next[v] = false;
                let a = self.next_aff[v];
                if a > 0.0 {
                    let val = a / denom;
                    if val > result.best_affinity[v] {
                        result.best_affinity[v] = val;
                    }
                }
                let cv = self.next_cov[v];
                if cv > 0.0 && cv > result.best_cov_product[v] {
                    result.best_cov_product[v] = cv;
                }
            }
            // Re-zero the consumed layer, then promote the next one.
            for &u in &self.frontier {
                self.cur_aff[u as usize] = 0.0;
                self.cur_cov[u as usize] = 0.0;
            }
            std::mem::swap(&mut self.cur_aff, &mut self.next_aff);
            std::mem::swap(&mut self.cur_cov, &mut self.next_cov);
            std::mem::swap(&mut self.frontier, &mut self.next_frontier);
            if exhausted {
                result.truncated = true;
                break;
            }
            if self.frontier.is_empty() {
                break;
            }
        }
        // Restore the all-zero invariant for the next source.
        for &u in &self.frontier {
            self.cur_aff[u as usize] = 0.0;
            self.cur_cov[u as usize] = 0.0;
        }
        self.frontier.clear();
        self.finish_reads(n, &mut result);
        result
    }

    /// Explore many sources per frontier sweep, writing each source's
    /// results straight into its [`SourceRow`]: the **batched layered
    /// kernel**. One pass over each union-frontier vertex's CSR edge row
    /// advances every source lane at once — the inner loop is a
    /// branch-light multiply-max over the contiguous lane arenas — so the
    /// edge lanes are streamed once per layer for the whole batch instead
    /// of once per source.
    ///
    /// Each layer is one pass over the frontier. For each frontier node
    /// it folds the layer just reached into the per-lane maxima, marks
    /// the node read, adds its traversable degree to each member lane's
    /// budget count, stages its value cells (zeroing them) and relaxes
    /// its edges. After the last layer the frontier it produced is folded
    /// and marked read, and the lane arenas are transposed into each
    /// source's rows; every lane's read set is built, already sorted,
    /// from the read masks.
    ///
    /// **Bit-for-bit identical to per-source [`explore`](Self::explore)**,
    /// including read sets, expansion counts, and flags:
    ///
    /// * values: the scalar kernel's per-target max is order-independent
    ///   (max over non-negative products), and the batch preserves the
    ///   exact multiply chains and the fold's division, each value folded
    ///   under the denominator of its own layer, so each lane's maxima
    ///   carry the same bits; blind relaxation of non-member lanes is a
    ///   no-op because their values are zero and every product is ≥ 0;
    /// * membership travels in the `u64` masks, never derived from values
    ///   (a lane's product can underflow to zero while its frontier
    ///   membership — and its read set — must keep growing). A lane's read
    ///   set is the union of its frontier masks over every layer; the
    ///   scalar kernel's extra scan for nonzero targets adds nothing,
    ///   since a value is nonzero only in a member lane;
    /// * expansions: a lane's per-layer count is the sum of traversable
    ///   degrees over its frontier members — order-independent, summed
    ///   from the precomputed
    ///   [`traversable_degree`](SchemaStats::traversable_degree) lane;
    /// * budget exhaustion is the one order-*dependent* part of the scalar
    ///   semantics (a mid-layer cut depends on frontier iteration order),
    ///   so a lane whose layer overruns its remaining budget is evicted
    ///   once the sweep ends and re-run through the scalar kernel; its
    ///   batch state, that layer included, is discarded.
    ///
    /// Batches larger than [`MAX_BATCH_LANES`] are processed in chunks.
    pub fn explore_batch(
        &mut self,
        rows: &mut [SourceRow<'_>],
        stats: &SchemaStats,
        config: &PathConfig,
    ) {
        for chunk in rows.chunks_mut(MAX_BATCH_LANES) {
            self.explore_lanes(chunk, stats, config);
        }
    }

    /// One ≤ [`MAX_BATCH_LANES`]-lane sweep of the batched layered kernel.
    fn explore_lanes(
        &mut self,
        rows: &mut [SourceRow<'_>],
        stats: &SchemaStats,
        config: &PathConfig,
    ) {
        let n = stats.len();
        let lanes = rows.len();
        debug_assert!(lanes <= MAX_BATCH_LANES);
        // Lane stride rounded up to the pad width so the hot multiply-max
        // loop runs whole vector widths.
        let stride = lanes.next_multiple_of(schema_summary_core::stats::LANE_PAD);
        // Lane occupancy decides each node's loop shape: a saturated mask
        // runs the full-stride loop (a straight SIMD stream over the
        // padded row), a sparse one iterates only its set bits, so the
        // flop and byte traffic track *active* lanes, not the batch width.
        // Inactive lanes hold zeros, so both shapes produce identical bits.
        let dense = |m: u64| (m.count_ones() as usize) * 4 >= lanes;
        let mut s = self.batch.take().unwrap_or_default();
        s.ensure(n, stride);

        let mut remaining = [0u64; MAX_BATCH_LANES];
        let mut expansions = [0u64; MAX_BATCH_LANES];
        let mut layer_exp = [0u64; MAX_BATCH_LANES];
        // Bit `l` set: lane `l` overran its budget; its batch state is
        // abandoned and the source re-runs scalar.
        let mut evicted = 0u64;

        for (l, row) in rows.iter().enumerate() {
            debug_assert!(
                row.reads.is_empty()
                    && [
                        row.affinity.len(),
                        row.coverage.len(),
                        row.cov_product.len()
                    ] == [n; 3],
                "rows must arrive empty and {n} wide"
            );
            remaining[l] = config.max_expansions as u64;
            let i = row.source.index();
            if s.cur.mask[i] == 0 {
                s.frontier.push(row.source.0);
            }
            s.cur.mask[i] |= 1 << l;
            s.cur.aff[i * stride + l] = 1.0;
            s.cur.cov[i * stride + l] = 1.0;
        }

        let aff_scale = config.affinity_scale();
        let neighbors = stats.neighbor_lane();
        let rcs = stats.rc_lane();
        let rc_factors = stats.rc_factor_lane();
        let w_backs = stats.w_back_lane();
        // The staged value rows of the node being relaxed: loop-invariant
        // across its edges, so stack copies pin them in L1 and free the
        // inner loop from re-reading through the arena borrows after every
        // store.
        let mut src_aff = [0.0f64; MAX_BATCH_LANES];
        let mut src_cov = [0.0f64; MAX_BATCH_LANES];
        // `cur` holds walks of exactly `edges` edges.
        let mut edges = 0;
        while edges < config.max_edges && !s.frontier.is_empty() {
            let denom = (edges > 0).then(|| config.length_denominator(edges));
            edges += 1;
            layer_exp[..lanes].fill(0);
            for fi in 0..s.frontier.len() {
                let u = s.frontier[fi] as usize;
                let m = s.retire(u, stride, dense, denom, &mut src_aff, &mut src_cov);
                let d = u64::from(stats.traversable_degree(ElementId(u as u32)));
                let dense_u = dense(m);
                if dense_u {
                    for (l, exp) in layer_exp[..lanes].iter_mut().enumerate() {
                        *exp += d * ((m >> l) & 1);
                    }
                } else if d != 0 {
                    let mut bits = m;
                    while bits != 0 {
                        layer_exp[bits.trailing_zeros() as usize] += d;
                        bits &= bits - 1;
                    }
                }
                for idx in stats.edge_range(ElementId(u as u32)) {
                    if rcs[idx] <= 0.0 {
                        continue;
                    }
                    let vi = neighbors[idx].index();
                    let rf = rc_factors[idx];
                    let cf = aff_scale * rf;
                    let wb = w_backs[idx];
                    if s.next.mask[vi] == 0 {
                        s.next_frontier.push(neighbors[idx].0);
                    }
                    s.next.mask[vi] |= m;
                    let bv = vi * stride;
                    if dense_u {
                        let next_aff = &mut s.next.aff[bv..][..stride];
                        let next_cov = &mut s.next.cov[bv..][..stride];
                        // Same multiply chains as the single-source kernel; the
                        // branchless select is bitwise the scalar compare-
                        // and-store (ties keep the stored value; no value is
                        // NaN or −0.0).
                        for l in 0..stride {
                            let na = src_aff[l] * rf;
                            let nc = (src_cov[l] * cf) * wb;
                            next_aff[l] = if na > next_aff[l] { na } else { next_aff[l] };
                            next_cov[l] = if nc > next_cov[l] { nc } else { next_cov[l] };
                        }
                    } else {
                        let mut bits = m;
                        while bits != 0 {
                            let l = bits.trailing_zeros() as usize;
                            bits &= bits - 1;
                            let na = src_aff[l] * rf;
                            let nc = (src_cov[l] * cf) * wb;
                            let slot = &mut s.next.aff[bv + l];
                            if na > *slot {
                                *slot = na;
                            }
                            let slot = &mut s.next.cov[bv + l];
                            if nc > *slot {
                                *slot = nc;
                            }
                        }
                    }
                }
            }
            // Whole-layer budget accounting: a lane's count is independent
            // of sweep order, and a lane that cannot afford its full layer
            // is evicted (mid-layer truncation is order-dependent).
            for (l, &exp) in layer_exp.iter().enumerate().take(lanes) {
                if evicted & (1 << l) != 0 {
                    continue;
                }
                if exp > remaining[l] {
                    evicted |= 1 << l;
                } else {
                    remaining[l] -= exp;
                    expansions[l] += exp;
                }
            }
            std::mem::swap(&mut s.cur, &mut s.next);
            std::mem::swap(&mut s.frontier, &mut s.next_frontier);
            s.next_frontier.clear();
        }
        // The last frontier produced still has to be folded and marked
        // read (a loop that stopped on an empty frontier left none).
        let denom = (edges > 0).then(|| config.length_denominator(edges));
        for fi in 0..s.frontier.len() {
            let u = s.frontier[fi] as usize;
            s.retire(u, stride, dense, denom, &mut src_aff, &mut src_cov);
        }
        s.frontier.clear();

        // Transpose the maxima into the rows in ascending node order, so
        // each lane's read set comes out sorted; sized first, so each is
        // allocated once and exactly. Only member lanes can hold a nonzero
        // maximum, and every other entry of a row is already zero.
        let live = !evicted & (u64::MAX >> (MAX_BATCH_LANES - lanes));
        s.touched.sort_unstable();
        let mut read_counts = [0usize; MAX_BATCH_LANES];
        for &v in &s.touched {
            let mut bits = s.read_mask[v as usize] & live;
            while bits != 0 {
                read_counts[bits.trailing_zeros() as usize] += 1;
                bits &= bits - 1;
            }
        }
        for (row, &count) in rows.iter_mut().zip(&read_counts) {
            row.reads.reserve_exact(count);
        }
        for &v in &s.touched {
            let vi = v as usize;
            let bv = vi * stride;
            let card = stats.card(ElementId(v));
            let mut bits = std::mem::take(&mut s.read_mask[vi]) & live;
            while bits != 0 {
                let l = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let row = &mut rows[l];
                let product = s.best_cov[bv + l];
                row.affinity[vi] = s.best_aff[bv + l];
                row.cov_product[vi] = product;
                // Formula 3: C(a→b) = Card_b · max path product.
                row.coverage[vi] = card * product;
                row.reads.push(v);
            }
            s.best_aff[bv..][..stride].fill(0.0);
            s.best_cov[bv..][..stride].fill(0.0);
        }
        s.touched.clear();
        self.batch = Some(s);

        for (l, row) in rows.iter_mut().enumerate() {
            if evicted & (1 << l) != 0 {
                let res = self.explore(row.source, stats, config);
                row.fill(res, stats);
                continue;
            }
            // The source's own entries are pinned at 1 (clamped factors
            // keep every walk product ≤ 1, so the scalar fold never
            // improves them either), and C(a→a) = Card_a · 1.
            let src = row.source.index();
            row.affinity[src] = 1.0;
            row.cov_product[src] = 1.0;
            row.coverage[src] = stats.card(row.source);
            row.truncated = false;
            row.expansions = expansions[l];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema_summary_core::graph::SchemaGraphBuilder;
    use schema_summary_core::stats::LinkCount;
    use schema_summary_core::types::SchemaType;
    use schema_summary_core::SchemaGraph;

    /// One source, explored with a fresh `Explorer`.
    fn explore_one(source: ElementId, stats: &SchemaStats, config: &PathConfig) -> SourceResult {
        Explorer::new(stats.len()).explore(source, stats, config)
    }

    /// The paper's Section 3.2 worked example: o with child b
    /// (RC(o→b)=2, RC(b→o)=1) plus 10 other children with RC 1 each way.
    fn paper_example() -> (SchemaGraph, ElementId, ElementId, SchemaStats) {
        let mut builder = SchemaGraphBuilder::new("o");
        let b = builder
            .add_child(builder.root(), "b", SchemaType::set_of_rcd())
            .unwrap();
        let mut others = Vec::new();
        for i in 0..10 {
            others.push(
                builder
                    .add_child(builder.root(), format!("c{i}"), SchemaType::rcd())
                    .unwrap(),
            );
        }
        let g = builder.build().unwrap();
        // card(o)=100, card(b)=200 (2 per o), card(c_i)=100 (1 per o).
        let mut cards = vec![100u64, 200];
        cards.extend(std::iter::repeat_n(100, 10));
        let mut links = vec![LinkCount {
            from: g.root(),
            to: b,
            count: 200,
        }];
        for &c in &others {
            links.push(LinkCount {
                from: g.root(),
                to: c,
                count: 100,
            });
        }
        let s = SchemaStats::from_link_counts(&g, &cards, &links).unwrap();
        let root = g.root();
        (g, root, b, s)
    }

    #[test]
    fn paper_affinity_example() {
        let (_, o, b, s) = paper_example();
        let cfg = PathConfig::default();
        let from_b = explore_one(b, &s, &cfg);
        let from_o = explore_one(o, &s, &cfg);
        // A(b→o) = 1/RC(b→o) = 1.0; A(o→b) = 1/RC(o→b) = 0.5.
        assert!((from_b.best_affinity[o.index()] - 1.0).abs() < 1e-9);
        assert!((from_o.best_affinity[b.index()] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn paper_coverage_example() {
        let (_, o, b, s) = paper_example();
        let cfg = PathConfig::default();
        // C(o→b)/card_b = A(o→b) · W(b→o) = 0.5 · 1 = 0.5.
        let from_o = explore_one(o, &s, &cfg);
        assert!((from_o.best_cov_product[b.index()] - 0.5).abs() < 1e-9);
        // C(b→o)/card_o = A(b→o) · W(o→b) = 1.0 · 2/12 ≈ 0.1667.
        let from_b = explore_one(b, &s, &cfg);
        assert!((from_b.best_cov_product[o.index()] - 2.0 / 12.0).abs() < 1e-9);
    }

    #[test]
    fn nodes_convention_halves_direct_edges() {
        let (_, o, b, s) = paper_example();
        let cfg = PathConfig {
            path_length: PathLength::Nodes,
            ..Default::default()
        };
        let from_b = explore_one(b, &s, &cfg);
        assert!((from_b.best_affinity[o.index()] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn longer_paths_are_penalized() {
        // Chain r - a - b, all RC 1. A(r→a) = 1/1 = 1; A(r→b) = 1/2.
        let mut builder = SchemaGraphBuilder::new("r");
        let a = builder
            .add_child(builder.root(), "a", SchemaType::rcd())
            .unwrap();
        let b = builder.add_child(a, "b", SchemaType::rcd()).unwrap();
        let g = builder.build().unwrap();
        let s = SchemaStats::uniform(&g);
        let res = explore_one(g.root(), &s, &PathConfig::default());
        assert!((res.best_affinity[a.index()] - 1.0).abs() < 1e-9);
        assert!((res.best_affinity[b.index()] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn multiple_paths_take_the_max() {
        // Diamond: r has children a (RC 1) and b (RC 10); both value-link to
        // t. Path through a: product 1/1 · 1/rc(a→t); through b: 1/10 · ...
        let mut builder = SchemaGraphBuilder::new("r");
        let a = builder
            .add_child(builder.root(), "a", SchemaType::rcd())
            .unwrap();
        let b = builder
            .add_child(builder.root(), "b", SchemaType::set_of_rcd())
            .unwrap();
        let t = builder
            .add_child(builder.root(), "t", SchemaType::rcd())
            .unwrap();
        builder.add_value_link(a, t).unwrap();
        builder.add_value_link(b, t).unwrap();
        let g = builder.build().unwrap();
        let cards = vec![1u64, 1, 10, 1];
        let links = vec![
            LinkCount {
                from: g.root(),
                to: a,
                count: 1,
            },
            LinkCount {
                from: g.root(),
                to: b,
                count: 10,
            },
            LinkCount {
                from: g.root(),
                to: t,
                count: 1,
            },
            LinkCount {
                from: a,
                to: t,
                count: 1,
            },
            LinkCount {
                from: b,
                to: t,
                count: 10,
            },
        ];
        let s = SchemaStats::from_link_counts(&g, &cards, &links).unwrap();
        let res = explore_one(g.root(), &s, &PathConfig::default());
        // Direct edge r→t: affinity 1/RC(r→t) = 1.
        assert!((res.best_affinity[t.index()] - 1.0).abs() < 1e-9);
        // Through a: (1/1 · 1/1)/2 = 0.5 < 1, so the direct edge wins —
        // verify by removing it: recompute on a graph without r→t.
        let mut builder2 = SchemaGraphBuilder::new("r");
        let a2 = builder2
            .add_child(builder2.root(), "a", SchemaType::rcd())
            .unwrap();
        let b2 = builder2
            .add_child(builder2.root(), "b", SchemaType::set_of_rcd())
            .unwrap();
        let t2 = builder2.add_child(a2, "t", SchemaType::rcd()).unwrap();
        builder2.add_value_link(b2, t2).unwrap();
        let g2 = builder2.build().unwrap();
        let cards2 = vec![1u64, 1, 10, 1];
        let links2 = vec![
            LinkCount {
                from: g2.root(),
                to: a2,
                count: 1,
            },
            LinkCount {
                from: g2.root(),
                to: b2,
                count: 10,
            },
            LinkCount {
                from: a2,
                to: t2,
                count: 1,
            },
            LinkCount {
                from: b2,
                to: t2,
                count: 10,
            },
        ];
        let s2 = SchemaStats::from_link_counts(&g2, &cards2, &links2).unwrap();
        let res2 = explore_one(g2.root(), &s2, &PathConfig::default());
        // Two paths to t2: r→a→t (product 1, len 2 → 0.5) and
        // r→b→t (product (1/10)·(1/1), len 2 → 0.05). Max = 0.5.
        assert!((res2.best_affinity[t2.index()] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn depth_limit_cuts_long_chains() {
        let mut builder = SchemaGraphBuilder::new("r");
        let mut prev = builder.root();
        let mut ids = vec![prev];
        for i in 0..15 {
            prev = builder
                .add_child(prev, format!("n{i}"), SchemaType::rcd())
                .unwrap();
            ids.push(prev);
        }
        let g = builder.build().unwrap();
        let s = SchemaStats::uniform(&g);
        let cfg = PathConfig {
            max_edges: 5,
            ..Default::default()
        };
        let res = explore_one(g.root(), &s, &cfg);
        assert!(res.best_affinity[ids[5].index()] > 0.0);
        assert_eq!(res.best_affinity[ids[6].index()], 0.0);
    }

    #[test]
    fn budget_truncation_is_flagged() {
        let (_, o, _, s) = paper_example();
        let cfg = PathConfig {
            max_expansions: 3,
            ..Default::default()
        };
        let res = explore_one(o, &s, &cfg);
        assert!(res.truncated);
        assert_eq!(res.expansions, 3);
        // The cut layer still counts: the source plus the three children
        // reached before the budget ran out.
        assert_eq!(res.best_affinity.iter().filter(|&&a| a > 0.0).count(), 4);
    }

    #[test]
    fn zero_rc_edges_are_not_traversable() {
        let mut builder = SchemaGraphBuilder::new("r");
        let a = builder
            .add_child(builder.root(), "a", SchemaType::rcd())
            .unwrap();
        let g = builder.build().unwrap();
        // a has zero cardinality: no data connectivity at all.
        let s = SchemaStats::from_link_counts(&g, &[1, 0], &[]).unwrap();
        let res = explore_one(g.root(), &s, &PathConfig::default());
        assert_eq!(res.best_affinity[a.index()], 0.0);
    }

    #[test]
    fn self_affinity_is_one() {
        let (_, o, b, s) = paper_example();
        let res = explore_one(b, &s, &PathConfig::default());
        assert_eq!(res.best_affinity[b.index()], 1.0);
        assert_eq!(res.best_cov_product[b.index()], 1.0);
        let _ = o;
    }

    /// A diamond-rich graph where many paths reach each target: a 3-level
    /// tree with cross value links.
    fn braided() -> (SchemaGraph, SchemaStats) {
        let mut b = SchemaGraphBuilder::new("r");
        let mut level1 = Vec::new();
        let mut level2 = Vec::new();
        for i in 0..4 {
            let s1 = b
                .add_child(b.root(), format!("a{i}"), SchemaType::set_of_rcd())
                .unwrap();
            level1.push(s1);
            for j in 0..3 {
                level2.push(
                    b.add_child(s1, format!("a{i}b{j}"), SchemaType::set_of_rcd())
                        .unwrap(),
                );
            }
        }
        for (i, &f) in level2.iter().enumerate() {
            let t = level2[(i + 5) % level2.len()];
            let _ = b.add_value_link(f, t);
        }
        let g = b.build().unwrap();
        let mut cards = vec![1u64; g.len()];
        for (i, c) in cards.iter_mut().enumerate().skip(1) {
            *c = 1 + (i as u64 * 7) % 13;
        }
        let mut links = Vec::new();
        for (p, c) in g.structural_links().collect::<Vec<_>>() {
            links.push(LinkCount {
                from: p,
                to: c,
                count: cards[c.index()],
            });
        }
        for (f, t) in g.value_links().collect::<Vec<_>>() {
            links.push(LinkCount {
                from: f,
                to: t,
                count: cards[f.index()].min(cards[t.index()]),
            });
        }
        let s = SchemaStats::from_link_counts(&g, &cards, &links).unwrap();
        (g, s)
    }

    #[test]
    fn explorer_scratch_is_reusable_across_sources() {
        let (g, s) = braided();
        let mut explorer = Explorer::new(s.len());
        let cfg = PathConfig::default();
        for e in g.element_ids() {
            let reused = explorer.explore(e, &s, &cfg);
            let fresh = explore_one(e, &s, &cfg);
            assert_eq!(reused.best_affinity, fresh.best_affinity, "source {e}");
            assert_eq!(
                reused.best_cov_product, fresh.best_cov_product,
                "source {e}"
            );
            assert_eq!(reused.expansions, fresh.expansions);
        }
    }

    #[test]
    fn truncated_exploration_leaves_scratch_clean() {
        let (g, s) = braided();
        let mut explorer = Explorer::new(s.len());
        let tight = PathConfig {
            max_expansions: 5,
            ..Default::default()
        };
        let res = explorer.explore(g.root(), &s, &tight);
        assert!(res.truncated);
        // A subsequent full exploration on the same scratch must be
        // correct.
        let full = PathConfig::default();
        let after = explorer.explore(g.root(), &s, &full);
        let fresh = explore_one(g.root(), &s, &full);
        assert_eq!(after.best_affinity, fresh.best_affinity);
        assert_eq!(after.best_cov_product, fresh.best_cov_product);
    }

    /// The whole per-source contract, bit-for-bit: a batched row against
    /// a scalar result — values, the `Card · product` coverage row, flags,
    /// expansion counts, and read sets.
    fn assert_row_bits_eq(
        row: &SourceRow<'_>,
        want: &SourceResult,
        stats: &SchemaStats,
        ctx: &str,
    ) {
        assert_eq!(row.truncated, want.truncated, "{ctx}: truncated");
        assert_eq!(row.expansions, want.expansions, "{ctx}: expansions");
        assert_eq!(row.reads, want.reads, "{ctx}: reads");
        for i in 0..want.best_affinity.len() {
            assert_eq!(
                row.affinity[i].to_bits(),
                want.best_affinity[i].to_bits(),
                "{ctx}: affinity[{i}]"
            );
            assert_eq!(
                row.cov_product[i].to_bits(),
                want.best_cov_product[i].to_bits(),
                "{ctx}: coverage product[{i}]"
            );
            let coverage = stats.card(ElementId(i as u32)) * want.best_cov_product[i];
            assert_eq!(
                row.coverage[i].to_bits(),
                coverage.to_bits(),
                "{ctx}: coverage[{i}]"
            );
        }
    }

    /// Run `sources` through [`Explorer::explore_batch`] into fresh zeroed
    /// rows and assert every row bit for bit against a scalar exploration.
    /// Returns whether any scalar exploration truncated.
    fn assert_batch_matches_scalar(
        batched: &mut Explorer,
        sources: &[ElementId],
        stats: &SchemaStats,
        config: &PathConfig,
        ctx: &str,
    ) -> bool {
        let n = stats.len();
        let [mut aff, mut cov, mut prod] = std::array::from_fn(|_| vec![0.0; sources.len() * n]);
        let mut rows: Vec<SourceRow> = sources
            .iter()
            .zip(aff.chunks_exact_mut(n))
            .zip(cov.chunks_exact_mut(n))
            .zip(prod.chunks_exact_mut(n))
            .map(|(((&src, a), c), p)| SourceRow::new(src, a, c, p))
            .collect();
        batched.explore_batch(&mut rows, stats, config);
        let mut scalar = Explorer::new(n);
        let mut any_truncated = false;
        for row in &rows {
            let want = scalar.explore(row.source, stats, config);
            any_truncated |= want.truncated;
            assert_row_bits_eq(row, &want, stats, &format!("{ctx} src={}", row.source));
        }
        any_truncated
    }

    #[test]
    fn batched_kernel_matches_single_source_bitwise() {
        let (g, s) = braided();
        let cfg = PathConfig::default();
        let sources: Vec<_> = g.element_ids().collect();
        for batch in [1usize, 2, 3, 7, sources.len()] {
            let mut batched = Explorer::new(s.len());
            for chunk in sources.chunks(batch) {
                assert_batch_matches_scalar(
                    &mut batched,
                    chunk,
                    &s,
                    &cfg,
                    &format!("batch={batch}"),
                );
            }
        }
    }

    #[test]
    fn batched_kernel_evicts_budget_lanes_to_scalar() {
        let (g, s) = braided();
        // Budgets chosen to exhaust mid-layer on the braided graph, the one
        // order-dependent case: those lanes must be re-run scalar.
        for max_expansions in [0usize, 1, 3, 5, 17, 40] {
            let cfg = PathConfig {
                max_expansions,
                ..Default::default()
            };
            let sources: Vec<_> = g.element_ids().collect();
            let mut batched = Explorer::new(s.len());
            let ctx = format!("budget={max_expansions}");
            let any_truncated = assert_batch_matches_scalar(&mut batched, &sources, &s, &cfg, &ctx);
            if max_expansions > 0 && max_expansions < 17 {
                assert!(any_truncated, "budget {max_expansions} truncated nothing");
            }
        }
    }

    #[test]
    fn batch_scratch_is_reusable_across_batches() {
        let (g, s) = braided();
        let cfg = PathConfig::default();
        let sources: Vec<_> = g.element_ids().collect();
        let mut explorer = Explorer::new(s.len());
        assert_batch_matches_scalar(&mut explorer, &sources, &s, &cfg, "first");
        // Interleave a truncating batch to dirty the arenas, then repeat:
        // both full batches must still equal the scalar kernel, and so
        // each other.
        let tight = PathConfig {
            max_expansions: 5,
            ..Default::default()
        };
        assert_batch_matches_scalar(&mut explorer, &sources, &s, &tight, "tight");
        assert_batch_matches_scalar(&mut explorer, &sources, &s, &cfg, "second");
    }
}
