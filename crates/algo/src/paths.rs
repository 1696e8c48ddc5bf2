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
//! per frontier sweep and is what [`PairMatrices`](crate::PairMatrices)
//! runs; [`Explorer::explore`] is the single-source form it falls back to
//! for the one order-dependent case, a budget exhausted mid-layer.

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

/// Per-source exploration result.
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

/// Upper bound on sources advanced per batched frontier sweep: per-node
/// lane membership is a `u64` bitmask, one bit per source lane.
pub const MAX_BATCH_LANES: usize = 64;

/// Arena scratch for the multi-source batched layered kernel
/// ([`Explorer::explore_batch`]): every per-source array of the scalar
/// kernel is flattened into one `n × stride` allocation indexed
/// `[node * stride + lane]`, and the per-node frontier membership flags
/// become `u64` bitmasks (bit `l` ⇔ lane `l`). The arenas hold the same
/// all-zero-between-batches invariant as the scalar scratch, restored via
/// the `touched` list so sparse batches cost O(touched · stride), not O(n).
#[derive(Debug, Default)]
struct BatchScratch {
    /// Max-product value arenas at the current and next edge count.
    cur_aff: Vec<f64>,
    cur_cov: Vec<f64>,
    next_aff: Vec<f64>,
    next_cov: Vec<f64>,
    /// Per-target running maxima (the scalar kernel folds these into the
    /// result row directly; the batch keeps them lane-major until
    /// extraction).
    best_aff: Vec<f64>,
    best_cov: Vec<f64>,
    /// Bit `l` set ⇔ the node is in lane `l`'s current/next frontier.
    cur_mask: Vec<u64>,
    next_mask: Vec<u64>,
    /// Bit `l` set ⇔ lane `l` has recorded the node in its read set.
    read_mask: Vec<u64>,
    /// Union frontiers across lanes (insertion-ordered, deduped by mask).
    frontier: Vec<u32>,
    next_frontier: Vec<u32>,
    /// Every node with a nonzero `read_mask` — the cleanup list that
    /// restores the all-zero arena invariant after a batch.
    touched: Vec<u32>,
    /// Per-lane read lists (unsorted; closed out by `finish_reads`).
    reads: Vec<Vec<u32>>,
}

impl BatchScratch {
    /// Grow the arenas to cover `nodes × stride` cells and `lanes` lanes.
    /// Growth appends zeros, and the all-zero invariant keeps existing
    /// cells zero, so re-sizing between batches of different shapes is
    /// sound without a wipe.
    fn ensure(&mut self, nodes: usize, stride: usize, lanes: usize) {
        let cells = nodes * stride;
        if self.cur_aff.len() < cells {
            self.cur_aff.resize(cells, 0.0);
            self.cur_cov.resize(cells, 0.0);
            self.next_aff.resize(cells, 0.0);
            self.next_cov.resize(cells, 0.0);
            self.best_aff.resize(cells, 0.0);
            self.best_cov.resize(cells, 0.0);
        }
        if self.cur_mask.len() < nodes {
            self.cur_mask.resize(nodes, 0);
            self.next_mask.resize(nodes, 0);
            self.read_mask.resize(nodes, 0);
        }
        if self.reads.len() < lanes {
            self.reads.resize(lanes, Vec::new());
        }
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
    /// Lane arenas for [`explore_batch`](Self::explore_batch); allocated on
    /// first batched call so single-source users pay nothing.
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

    /// Explore many sources per frontier sweep: the **batched layered
    /// kernel**. One pass over each union-frontier vertex's CSR edge row
    /// advances every source lane at once — the inner loop is a
    /// branch-light multiply-max over the contiguous lane arenas — so the
    /// edge lanes are streamed once per layer for the whole batch instead
    /// of once per source.
    ///
    /// **Bit-for-bit identical to per-source [`explore`](Self::explore)**,
    /// including read sets, expansion counts, and flags:
    ///
    /// * values: the scalar kernel's per-target max is order-independent
    ///   (max over non-negative products), and the batch preserves the
    ///   exact multiply chains, so each lane's maxima carry the same bits;
    ///   blind relaxation of non-member lanes is a no-op because their
    ///   values are zero and every product is ≥ 0;
    /// * membership travels in the `u64` masks, never derived from values
    ///   (a lane's product can underflow to zero while its frontier
    ///   membership — and its read set — must keep growing);
    /// * expansions: a lane's per-layer count is the sum of traversable
    ///   degrees over its frontier members — order-independent, summed
    ///   from the precomputed
    ///   [`traversable_degree`](SchemaStats::traversable_degree) lane;
    /// * budget exhaustion is the one order-*dependent* part of the scalar
    ///   semantics (a mid-layer cut depends on frontier iteration order),
    ///   so a lane whose next layer would overrun its remaining budget is
    ///   evicted from the batch and re-run through the scalar kernel.
    ///
    /// Batches larger than [`MAX_BATCH_LANES`] are processed in chunks.
    pub fn explore_batch(
        &mut self,
        sources: &[ElementId],
        stats: &SchemaStats,
        config: &PathConfig,
    ) -> Vec<SourceResult> {
        let mut out = Vec::with_capacity(sources.len());
        if config.max_edges == 0 {
            out.extend(sources.iter().map(|&s| self.explore(s, stats, config)));
            return out;
        }
        for chunk in sources.chunks(MAX_BATCH_LANES) {
            self.explore_batch_chunk(chunk, stats, config, &mut out);
        }
        out
    }

    /// One ≤ [`MAX_BATCH_LANES`]-lane sweep of the batched layered kernel;
    /// appends `sources.len()` results to `out` in source order.
    fn explore_batch_chunk(
        &mut self,
        sources: &[ElementId],
        stats: &SchemaStats,
        config: &PathConfig,
        out: &mut Vec<SourceResult>,
    ) {
        let n = stats.len();
        let lanes = sources.len();
        debug_assert!(lanes <= MAX_BATCH_LANES);
        // Lane stride rounded up to the pad width so the hot multiply-max
        // loop runs whole vector widths.
        let stride = lanes.next_multiple_of(schema_summary_core::stats::LANE_PAD);
        let mut scratch = self.batch.take().unwrap_or_default();
        scratch.ensure(n, stride, lanes);

        let mut remaining = [0u64; MAX_BATCH_LANES];
        let mut expansions = [0u64; MAX_BATCH_LANES];
        let mut layer_exp = [0u64; MAX_BATCH_LANES];
        // Bit `l` set: lane `l` would have exhausted its budget mid-layer;
        // its batch state is abandoned and the source re-runs scalar.
        let mut needs_scalar = 0u64;

        for (l, &src) in sources.iter().enumerate() {
            remaining[l] = config.max_expansions as u64;
            let i = src.index();
            if scratch.read_mask[i] == 0 {
                scratch.touched.push(src.0);
            }
            if scratch.cur_mask[i] == 0 {
                scratch.frontier.push(src.0);
            }
            scratch.cur_mask[i] |= 1 << l;
            scratch.read_mask[i] |= 1 << l;
            scratch.reads[l].push(src.0);
            scratch.cur_aff[i * stride + l] = 1.0;
            scratch.cur_cov[i * stride + l] = 1.0;
        }

        let aff_scale = config.affinity_scale();
        let neighbors = stats.neighbor_lane();
        let rcs = stats.rc_lane();
        let rc_factors = stats.rc_factor_lane();
        let w_backs = stats.w_back_lane();
        for edges_used in 1..=config.max_edges {
            if scratch.frontier.is_empty() {
                break;
            }
            // Whole-layer budget accounting up front: a layer's expansion
            // count per lane is Σ traversable-degree over the lane's
            // frontier members, independent of sweep order. Lanes that
            // cannot afford their full layer are evicted *before* any of
            // it runs (mid-layer truncation is order-dependent).
            layer_exp[..lanes].fill(0);
            for &u in &scratch.frontier {
                let d = u64::from(stats.traversable_degree(ElementId(u)));
                if d == 0 {
                    continue;
                }
                let mut m = scratch.cur_mask[u as usize] & !needs_scalar;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    layer_exp[l] += d;
                    m &= m - 1;
                }
            }
            for (l, &exp) in layer_exp.iter().enumerate().take(lanes) {
                if needs_scalar & (1 << l) != 0 {
                    continue;
                }
                if exp > remaining[l] {
                    needs_scalar |= 1 << l;
                } else {
                    remaining[l] -= exp;
                    expansions[l] += exp;
                }
            }
            // Relaxation sweep: one pass over the union frontier's edge
            // rows updates all lanes. Mask propagation is branchless;
            // non-member lanes carry zeros, so the blind multiply-max is a
            // per-lane no-op for them.
            for &u in &scratch.frontier {
                let ui = u as usize;
                let m = scratch.cur_mask[ui];
                let bu = ui * stride;
                // Lane occupancy decides the sweep shape per *node*: a
                // saturated mask runs the full-stride multiply-max (a
                // straight SIMD stream over the padded row), a sparse one
                // iterates only its set bits — the flop and byte traffic
                // then tracks *active* lanes, not the batch width. Both
                // shapes relax identical values (inactive lanes hold zeros
                // and every product is ≥ 0, so blind relaxation of them is
                // a no-op), so the choice never changes bits.
                let dense = (m.count_ones() as usize) * 4 >= lanes;
                // The source node's value rows are loop-invariant across
                // its edges; staging them in stack buffers pins them in L1
                // and frees the inner loop from re-reading through the
                // arena borrows after every store.
                let mut src_aff = [0.0f64; MAX_BATCH_LANES];
                let mut src_cov = [0.0f64; MAX_BATCH_LANES];
                src_aff[..stride].copy_from_slice(&scratch.cur_aff[bu..][..stride]);
                src_cov[..stride].copy_from_slice(&scratch.cur_cov[bu..][..stride]);
                for idx in stats.edge_range(ElementId(u)) {
                    if rcs[idx] <= 0.0 {
                        continue;
                    }
                    let vi = neighbors[idx].index();
                    let rf = rc_factors[idx];
                    let cf = aff_scale * rf;
                    let wb = w_backs[idx];
                    if scratch.next_mask[vi] == 0 {
                        scratch.next_frontier.push(neighbors[idx].0);
                    }
                    scratch.next_mask[vi] |= m;
                    let bv = vi * stride;
                    if dense {
                        let next_aff = &mut scratch.next_aff[bv..][..stride];
                        let next_cov = &mut scratch.next_cov[bv..][..stride];
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
                            let slot = &mut scratch.next_aff[bv + l];
                            if na > *slot {
                                *slot = na;
                            }
                            let slot = &mut scratch.next_cov[bv + l];
                            if nc > *slot {
                                *slot = nc;
                            }
                        }
                    }
                }
            }
            // Fold the layer into the per-lane maxima and read sets.
            let denom = config.length_denominator(edges_used);
            for &v in &scratch.next_frontier {
                let vi = v as usize;
                let vm = scratch.next_mask[vi];
                let mut new_bits = vm & !scratch.read_mask[vi];
                if scratch.read_mask[vi] == 0 {
                    scratch.touched.push(v);
                }
                scratch.read_mask[vi] |= vm;
                while new_bits != 0 {
                    let l = new_bits.trailing_zeros() as usize;
                    scratch.reads[l].push(v);
                    new_bits &= new_bits - 1;
                }
                // Fold only member lanes (same dense/sparse split as the
                // sweep): non-member lanes hold zeros, which the scalar
                // fold skips via its `> 0` guards anyway.
                let bv = vi * stride;
                if (vm.count_ones() as usize) * 4 >= lanes {
                    let next_aff = &scratch.next_aff[bv..][..stride];
                    let next_cov = &scratch.next_cov[bv..][..stride];
                    let best_aff = &mut scratch.best_aff[bv..][..stride];
                    let best_cov = &mut scratch.best_cov[bv..][..stride];
                    for l in 0..stride {
                        let a = next_aff[l];
                        if a > 0.0 {
                            let val = a / denom;
                            if val > best_aff[l] {
                                best_aff[l] = val;
                            }
                        }
                        let cv = next_cov[l];
                        if cv > 0.0 && cv > best_cov[l] {
                            best_cov[l] = cv;
                        }
                    }
                } else {
                    let mut bits = vm;
                    while bits != 0 {
                        let l = bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        let a = scratch.next_aff[bv + l];
                        if a > 0.0 {
                            let val = a / denom;
                            if val > scratch.best_aff[bv + l] {
                                scratch.best_aff[bv + l] = val;
                            }
                        }
                        let cv = scratch.next_cov[bv + l];
                        if cv > 0.0 && cv > scratch.best_cov[bv + l] {
                            scratch.best_cov[bv + l] = cv;
                        }
                    }
                }
            }
            // Re-zero the consumed layer, then promote the next one.
            for &u in &scratch.frontier {
                let ui = u as usize;
                let bu = ui * stride;
                scratch.cur_aff[bu..bu + stride].fill(0.0);
                scratch.cur_cov[bu..bu + stride].fill(0.0);
                scratch.cur_mask[ui] = 0;
            }
            std::mem::swap(&mut scratch.cur_aff, &mut scratch.next_aff);
            std::mem::swap(&mut scratch.cur_cov, &mut scratch.next_cov);
            std::mem::swap(&mut scratch.cur_mask, &mut scratch.next_mask);
            std::mem::swap(&mut scratch.frontier, &mut scratch.next_frontier);
            scratch.next_frontier.clear();
        }

        // Extract per-lane results (evicted lanes get a placeholder and a
        // scalar re-run once the arenas are parked again).
        let results_start = out.len();
        for (l, &src) in sources.iter().enumerate() {
            let mut result = SourceResult {
                best_affinity: vec![0.0; n],
                best_cov_product: vec![0.0; n],
                truncated: false,
                expansions: expansions[l],
                reads: Vec::new(),
            };
            if needs_scalar & (1 << l) != 0 {
                out.push(result);
                continue;
            }
            for &v in &scratch.touched {
                let vi = v as usize;
                result.best_affinity[vi] = scratch.best_aff[vi * stride + l];
                result.best_cov_product[vi] = scratch.best_cov[vi * stride + l];
            }
            // The source's own entries are pinned at 1 (clamped factors
            // keep every walk product ≤ 1, so the scalar fold never
            // improves them either).
            result.best_affinity[src.index()] = 1.0;
            result.best_cov_product[src.index()] = 1.0;
            result.reads = std::mem::take(&mut scratch.reads[l]);
            for &u in &result.reads {
                self.read_flag[u as usize] = true;
            }
            self.finish_reads(n, &mut result);
            out.push(result);
        }

        // Restore the all-zero arena invariant and park the scratch.
        for &v in &scratch.touched {
            let bv = v as usize * stride;
            scratch.cur_aff[bv..bv + stride].fill(0.0);
            scratch.cur_cov[bv..bv + stride].fill(0.0);
            scratch.next_aff[bv..bv + stride].fill(0.0);
            scratch.next_cov[bv..bv + stride].fill(0.0);
            scratch.best_aff[bv..bv + stride].fill(0.0);
            scratch.best_cov[bv..bv + stride].fill(0.0);
            scratch.cur_mask[v as usize] = 0;
            scratch.next_mask[v as usize] = 0;
            scratch.read_mask[v as usize] = 0;
        }
        scratch.touched.clear();
        scratch.frontier.clear();
        scratch.next_frontier.clear();
        for lane_reads in &mut scratch.reads {
            lane_reads.clear();
        }
        self.batch = Some(scratch);

        if needs_scalar != 0 {
            for (l, &src) in sources.iter().enumerate() {
                if needs_scalar & (1 << l) != 0 {
                    out[results_start + l] = self.explore(src, stats, config);
                }
            }
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

    /// The whole per-source contract, bit-for-bit: values, flags,
    /// expansion counts, and read sets.
    fn assert_result_bits_eq(a: &SourceResult, b: &SourceResult, ctx: &str) {
        assert_eq!(a.truncated, b.truncated, "{ctx}: truncated");
        assert_eq!(a.expansions, b.expansions, "{ctx}: expansions");
        assert_eq!(a.reads, b.reads, "{ctx}: reads");
        for i in 0..a.best_affinity.len() {
            assert_eq!(
                a.best_affinity[i].to_bits(),
                b.best_affinity[i].to_bits(),
                "{ctx}: affinity[{i}]"
            );
            assert_eq!(
                a.best_cov_product[i].to_bits(),
                b.best_cov_product[i].to_bits(),
                "{ctx}: coverage[{i}]"
            );
        }
    }

    #[test]
    fn batched_kernel_matches_single_source_bitwise() {
        let (g, s) = braided();
        let cfg = PathConfig::default();
        let sources: Vec<_> = g.element_ids().collect();
        for batch in [1usize, 2, 3, 7, sources.len()] {
            let mut batched = Explorer::new(s.len());
            let mut scalar = Explorer::new(s.len());
            for chunk in sources.chunks(batch) {
                let results = batched.explore_batch(chunk, &s, &cfg);
                assert_eq!(results.len(), chunk.len());
                for (src, got) in chunk.iter().zip(&results) {
                    let want = scalar.explore(*src, &s, &cfg);
                    assert_result_bits_eq(got, &want, &format!("batch={batch} src={src}"));
                }
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
            let mut scalar = Explorer::new(s.len());
            let results = batched.explore_batch(&sources, &s, &cfg);
            let mut any_truncated = false;
            for (src, got) in sources.iter().zip(&results) {
                let want = scalar.explore(*src, &s, &cfg);
                any_truncated |= want.truncated;
                assert_result_bits_eq(got, &want, &format!("budget={max_expansions} src={src}"));
            }
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
        let first = explorer.explore_batch(&sources, &s, &cfg);
        // Interleave a truncating batch to dirty the arenas, then repeat.
        let tight = PathConfig {
            max_expansions: 5,
            ..Default::default()
        };
        let _ = explorer.explore_batch(&sources, &s, &tight);
        let second = explorer.explore_batch(&sources, &s, &cfg);
        for (i, (a, b)) in first.iter().zip(&second).enumerate() {
            assert_result_bits_eq(a, b, &format!("reuse src index {i}"));
        }
    }
}
