//! Cardinality statistics over a schema graph (Section 4.1).
//!
//! Every formula in the paper consumes two statistics derived from the
//! database:
//!
//! * the **cardinality** `Card(e)` of each element — how many data nodes of
//!   that element the database contains; and
//! * the **relative cardinality** `RC(e1 → e2)` of each directed link
//!   endpoint — the average number of `e2` data nodes connected to each `e1`
//!   data node.
//!
//! [`SchemaStats`] packages both. It can be produced by the faithful
//! depth-first annotation pass over a materialized database
//! (`schema-summary-instance`), or constructed directly from closed-form
//! counts via [`SchemaStats::from_link_counts`] (used by the synthetic
//! dataset profiles, which is sound because the paper's algorithms observe
//! the database *only* through these statistics).

use crate::error::SchemaError;
use crate::graph::SchemaGraph;
use crate::ids::ElementId;
use serde::{Deserialize, Serialize};

/// Instance count for one schema link: `count` is the number of link
/// instances in the database (child data nodes for a structural link,
/// resolved references for a value link).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkCount {
    /// Source of the schema link (parent / referrer element).
    pub from: ElementId,
    /// Target of the schema link (child / referee element).
    pub to: ElementId,
    /// Number of instances of this link in the database.
    pub count: u64,
}

/// One record of the flat CSR adjacency: everything the path-exploration
/// and importance kernels need about an edge `u → neighbor`, precomputed so
/// the innermost loops never scan an adjacency list.
///
/// Since the struct-of-arrays overhaul (DESIGN.md §3.19) this is a *view*
/// assembled on the fly from the four parallel CSR lanes — the storage
/// itself keeps each field in its own contiguous array so the hot kernels
/// stream plain `f64` lanes. [`SchemaStats::edges`] yields these by value;
/// lane-slice accessors ([`SchemaStats::edge_rc_factors`] etc.) expose the
/// raw lanes for the data-parallel kernels.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct EdgeRec {
    /// The other endpoint.
    pub neighbor: ElementId,
    /// `RC(u → neighbor)`, aggregated over parallel links.
    pub rc: f64,
    /// `min(1, 1/rc)` — the clamped per-edge affinity factor of Formula 2
    /// (see `PathConfig::rc_factor`); 0 when the edge is not traversable
    /// (`rc == 0`).
    pub rc_factor: f64,
    /// `W(neighbor → u)` — the *backward* neighbor weight of Formula 1,
    /// i.e. the weight the coverage product (Formula 3) multiplies in when
    /// a path crosses this edge forward. When the statistics are built via
    /// [`SchemaStats::from_link_counts`] this ratio is computed directly
    /// from the raw link counts (the cardinality denominators cancel
    /// algebraically), so its bits are invariant under cardinality-only
    /// changes — a property the incremental maintenance planner relies on.
    pub w_back: f64,
}

/// Number of trailing padding slots the CSR lanes are rounded up to. Four
/// `f64`s fill a 256-bit vector register, so kernels that stream a lane in
/// width-4 chunks never need a scalar tail guard against the allocation
/// edge; the padding carries zeros (`rc = 0` marks it non-traversable).
pub const LANE_PAD: usize = 4;

/// Cardinality and relative-cardinality annotations for a schema graph.
///
/// The adjacency is stored in compressed-sparse-row form as a
/// **struct of arrays**: `adj_off[e] .. adj_off[e+1]` indexes element `e`'s
/// edges in four parallel lanes (`adj_neighbor`, `adj_rc`, `adj_rc_factor`,
/// `adj_w_back`). Splitting the per-edge record into contiguous same-typed
/// lanes (rather than an array of `EdgeRec` structs) lets the layered
/// relaxation and importance kernels in `schema-summary-algo` stream the
/// `f64` factor lanes branch-light and autovectorized; each lane's tail is
/// padded to a multiple of [`LANE_PAD`] with non-traversable zeros.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SchemaStats {
    card: Vec<f64>,
    /// CSR row offsets: element `e`'s edges live at lane positions
    /// `adj_off[e] .. adj_off[e + 1]`.
    adj_off: Vec<u32>,
    /// Lane: the other endpoint of each edge, aggregated over parallel
    /// links between the same pair.
    adj_neighbor: Vec<ElementId>,
    /// Lane: `RC(u → neighbor)` per edge.
    adj_rc: Vec<f64>,
    /// Lane: clamped affinity factor `min(1, 1/rc)` per edge (0 when not
    /// traversable).
    adj_rc_factor: Vec<f64>,
    /// Lane: backward neighbor weight `W(neighbor → u)` per edge.
    adj_w_back: Vec<f64>,
    /// Per element: number of traversable (`rc > 0`) edges in its row —
    /// exactly the expansions one frontier visit of the element costs, so
    /// the batched layered kernel can account budgets per source lane
    /// without re-scanning the rc lane.
    trav_deg: Vec<u32>,
    /// Per element: sum of outgoing RCs (denominator of the neighbor weight
    /// in Formula 1).
    rc_sum: Vec<f64>,
    total: f64,
}

impl SchemaStats {
    /// Build statistics from per-element cardinalities and per-link instance
    /// counts.
    ///
    /// `RC(e1 → e2) = count / Card(e1)` and `RC(e2 → e1) = count / Card(e2)`
    /// for each link `(e1 → e2)` with `count` instances (Figure 3, line 15).
    /// Elements with zero cardinality get zero RCs on their side.
    ///
    /// Every `(from, to)` pair must be a structural or value link of `graph`;
    /// links not mentioned get zero counts.
    pub fn from_link_counts(
        graph: &SchemaGraph,
        element_card: &[u64],
        link_counts: &[LinkCount],
    ) -> Result<Self, SchemaError> {
        if element_card.len() != graph.len() {
            return Err(SchemaError::StatsShape {
                expected: graph.len(),
                actual: element_card.len(),
            });
        }
        let card: Vec<f64> = element_card.iter().map(|&c| c as f64).collect();
        let (rc_adj, cnt_adj) = Self::count_adjacency(graph, &card, link_counts)?;
        let total = card.iter().sum();
        Ok(Self::from_adjacency_weighted(card, rc_adj, &cnt_adj, total))
    }

    /// Build the nested RC and raw-count adjacencies from per-link instance
    /// counts — the shared front half of [`from_link_counts`](Self::
    /// from_link_counts) and [`grow_from`](Self::grow_from), so a grown
    /// annotation accumulates its rows in exactly the order a cold build
    /// does (bitwise identity depends on the fold order).
    #[allow(clippy::type_complexity)]
    fn count_adjacency(
        graph: &SchemaGraph,
        card: &[f64],
        link_counts: &[LinkCount],
    ) -> Result<(Vec<Vec<(ElementId, f64)>>, Vec<Vec<(ElementId, f64)>>), SchemaError> {
        let n = graph.len();
        // Collect the set of schema links so we can validate inputs and
        // default unmentioned links to zero.
        let mut counts: Vec<(ElementId, ElementId, f64)> = Vec::new();
        let mut seen = std::collections::HashMap::<(ElementId, ElementId), usize>::new();
        for (p, c) in graph.structural_links() {
            seen.insert((p, c), counts.len());
            counts.push((p, c, 0.0));
        }
        for (f, t) in graph.value_links() {
            seen.insert((f, t), counts.len());
            counts.push((f, t, 0.0));
        }
        for lc in link_counts {
            match seen.get(&(lc.from, lc.to)) {
                Some(&i) => counts[i].2 += lc.count as f64,
                None => {
                    return Err(SchemaError::Invalid(format!(
                        "link count given for non-link {} -> {}",
                        lc.from, lc.to
                    )))
                }
            }
        }

        let mut rc_adj: Vec<Vec<(ElementId, f64)>> = vec![Vec::new(); n];
        // Raw-count adjacency, kept alongside the RC one: the neighbor
        // weight `W(e → ·)` is a ratio of RCs sharing the same cardinality
        // denominator, so it equals the ratio of raw counts. Computing it
        // from the counts keeps `w_back` bitwise independent of the
        // cardinalities (see `EdgeRec::w_back`).
        let mut cnt_adj: Vec<Vec<(ElementId, f64)>> = vec![Vec::new(); n];
        for &(e1, e2, cnt) in &counts {
            let rc_fwd = if card[e1.index()] > 0.0 {
                cnt / card[e1.index()]
            } else {
                0.0
            };
            let rc_bwd = if card[e2.index()] > 0.0 {
                cnt / card[e2.index()]
            } else {
                0.0
            };
            accumulate(&mut rc_adj[e1.index()], e2, rc_fwd);
            accumulate(&mut rc_adj[e2.index()], e1, rc_bwd);
            accumulate(&mut cnt_adj[e1.index()], e2, cnt);
            accumulate(&mut cnt_adj[e2.index()], e1, cnt);
        }
        Ok((rc_adj, cnt_adj))
    }

    /// Finalize statistics from per-element cardinalities and a nested
    /// outgoing-RC adjacency: flattens to CSR and precomputes the per-edge
    /// factors (`rc_factor`, `w_back`) consumed by the exploration and
    /// importance kernels.
    fn from_adjacency(card: Vec<f64>, rc_adj: Vec<Vec<(ElementId, f64)>>, total: f64) -> Self {
        let wsrc = rc_adj.clone();
        Self::from_adjacency_weighted(card, rc_adj, &wsrc, total)
    }

    /// [`from_adjacency`](Self::from_adjacency) with an explicit weight
    /// source for the backward neighbor weights: `w_back` is computed as a
    /// ratio within `wsrc`'s rows instead of `rc_adj`'s. The two are
    /// mathematically interchangeable whenever `wsrc` rows are a per-row
    /// positive rescaling of `rc_adj` rows (e.g. raw link counts, which are
    /// RCs times the row's cardinality) — but the choice fixes which inputs
    /// the ratio's *bits* depend on.
    fn from_adjacency_weighted(
        card: Vec<f64>,
        rc_adj: Vec<Vec<(ElementId, f64)>>,
        wsrc: &[Vec<(ElementId, f64)>],
        total: f64,
    ) -> Self {
        let n = card.len();
        let rc_sum: Vec<f64> = rc_adj
            .iter()
            .map(|adj| adj.iter().map(|&(_, rc)| rc).sum())
            .collect();
        let wsrc_sum: Vec<f64> = wsrc
            .iter()
            .map(|adj| adj.iter().map(|&(_, w)| w).sum())
            .collect();
        let edge_count: usize = rc_adj.iter().map(Vec::len).sum();
        let padded = edge_count.next_multiple_of(LANE_PAD);
        let mut adj_off = Vec::with_capacity(n + 1);
        adj_off.push(0u32);
        let mut adj_neighbor = Vec::with_capacity(padded);
        let mut adj_rc = Vec::with_capacity(padded);
        let mut adj_rc_factor = Vec::with_capacity(padded);
        let mut adj_w_back = Vec::with_capacity(padded);
        let mut trav_deg = Vec::with_capacity(n);
        for (u, out) in rc_adj.iter().enumerate() {
            let traversable = push_row(
                out,
                u,
                wsrc,
                &rc_sum,
                &wsrc_sum,
                &mut adj_neighbor,
                &mut adj_rc,
                &mut adj_rc_factor,
                &mut adj_w_back,
            );
            trav_deg.push(traversable);
            adj_off.push(adj_neighbor.len() as u32);
        }
        // Tail padding: zero-RC slots past the last row, outside every
        // `adj_off` range, so width-aligned lane sweeps stay in bounds.
        while adj_neighbor.len() < padded {
            adj_neighbor.push(ElementId(0));
            adj_rc.push(0.0);
            adj_rc_factor.push(0.0);
            adj_w_back.push(0.0);
        }
        SchemaStats {
            card,
            adj_off,
            adj_neighbor,
            adj_rc,
            adj_rc_factor,
            adj_w_back,
            trav_deg,
            rc_sum,
            total,
        }
    }

    /// Schema-driven statistics (Section 5.4's "Full Schema Driven" mode):
    /// every cardinality is 1 and every relative cardinality is 1, so only
    /// connectivity matters.
    pub fn uniform(graph: &SchemaGraph) -> Self {
        let n = graph.len();
        let card = vec![1.0; n];
        let mut rc_adj: Vec<Vec<(ElementId, f64)>> = vec![Vec::new(); n];
        for (p, c) in graph.structural_links() {
            accumulate(&mut rc_adj[p.index()], c, 1.0);
            accumulate(&mut rc_adj[c.index()], p, 1.0);
        }
        for (f, t) in graph.value_links() {
            accumulate(&mut rc_adj[f.index()], t, 1.0);
            accumulate(&mut rc_adj[t.index()], f, 1.0);
        }
        Self::from_adjacency(card, rc_adj, n as f64)
    }

    /// A copy of these statistics with every relative cardinality forced to
    /// 1 but cardinalities retained. Combined with uniform initial
    /// importance this realizes the paper's fully-schema-driven ablation.
    pub fn with_unit_rc(&self) -> Self {
        let rc_adj: Vec<Vec<(ElementId, f64)>> = (0..self.card.len())
            .map(|u| {
                self.edge_neighbors(ElementId(u as u32))
                    .iter()
                    .map(|&nb| (nb, 1.0))
                    .collect()
            })
            .collect();
        Self::from_adjacency(self.card.clone(), rc_adj, self.total)
    }

    /// Number of elements covered by these statistics.
    #[inline]
    pub fn len(&self) -> usize {
        self.card.len()
    }

    /// Whether the statistics cover zero elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.card.is_empty()
    }

    /// Cardinality of `e` in the database.
    #[inline]
    pub fn card(&self, e: ElementId) -> f64 {
        self.card[e.index()]
    }

    /// Sum of all element cardinalities — the paper's "number of data
    /// elements" (Table 1) and the conserved total importance mass.
    #[inline]
    pub fn total_card(&self) -> f64 {
        self.total
    }

    /// Relative cardinality `RC(from → to)`: average number of `to` data
    /// nodes connected to each `from` data node. Zero if the two elements
    /// are not linked.
    pub fn rc(&self, from: ElementId, to: ElementId) -> f64 {
        self.edges(from)
            .find(|e| e.neighbor == to)
            .map(|e| e.rc)
            .unwrap_or(0.0)
    }

    /// The lane positions of element `e`'s CSR row; index the whole-lane
    /// accessors ([`rc_factor_lane`](Self::rc_factor_lane) etc.) with it.
    #[inline]
    pub fn edge_range(&self, e: ElementId) -> std::ops::Range<usize> {
        self.adj_off[e.index()] as usize..self.adj_off[e.index() + 1] as usize
    }

    /// Number of CSR edge records in `e`'s row.
    #[inline]
    pub fn degree(&self, e: ElementId) -> usize {
        (self.adj_off[e.index() + 1] - self.adj_off[e.index()]) as usize
    }

    /// Number of traversable (`rc > 0`) edges in `e`'s row — the edge
    /// expansions one frontier visit of `e` costs a path kernel.
    #[inline]
    pub fn traversable_degree(&self, e: ElementId) -> u32 {
        self.trav_deg[e.index()]
    }

    /// The CSR edge records of `e`, assembled from the four lanes:
    /// neighbors with their outgoing RCs and the precomputed per-edge
    /// factors, aggregated over parallel links.
    #[inline]
    pub fn edges(&self, e: ElementId) -> impl ExactSizeIterator<Item = EdgeRec> + '_ {
        let r = self.edge_range(e);
        self.adj_neighbor[r.clone()]
            .iter()
            .zip(&self.adj_rc[r.clone()])
            .zip(&self.adj_rc_factor[r.clone()])
            .zip(&self.adj_w_back[r])
            .map(|(((&neighbor, &rc), &rc_factor), &w_back)| EdgeRec {
                neighbor,
                rc,
                rc_factor,
                w_back,
            })
    }

    /// Neighbor lane of `e`'s row.
    #[inline]
    pub fn edge_neighbors(&self, e: ElementId) -> &[ElementId] {
        &self.adj_neighbor[self.edge_range(e)]
    }

    /// RC lane of `e`'s row (`rc > 0` is the traversability predicate).
    #[inline]
    pub fn edge_rcs(&self, e: ElementId) -> &[f64] {
        &self.adj_rc[self.edge_range(e)]
    }

    /// Clamped affinity-factor lane of `e`'s row.
    #[inline]
    pub fn edge_rc_factors(&self, e: ElementId) -> &[f64] {
        &self.adj_rc_factor[self.edge_range(e)]
    }

    /// Backward neighbor-weight lane of `e`'s row.
    #[inline]
    pub fn edge_w_backs(&self, e: ElementId) -> &[f64] {
        &self.adj_w_back[self.edge_range(e)]
    }

    /// The full neighbor lane (all rows concatenated, tail-padded); index
    /// with [`edge_range`](Self::edge_range).
    #[inline]
    pub fn neighbor_lane(&self) -> &[ElementId] {
        &self.adj_neighbor
    }

    /// The full RC lane.
    #[inline]
    pub fn rc_lane(&self) -> &[f64] {
        &self.adj_rc
    }

    /// The full clamped affinity-factor lane.
    #[inline]
    pub fn rc_factor_lane(&self) -> &[f64] {
        &self.adj_rc_factor
    }

    /// The full backward neighbor-weight lane.
    #[inline]
    pub fn w_back_lane(&self) -> &[f64] {
        &self.adj_w_back
    }

    /// All neighbors of `e` with their outgoing RCs, aggregated over
    /// parallel links.
    #[inline]
    pub fn rc_neighbors(&self, e: ElementId) -> impl Iterator<Item = (ElementId, f64)> + '_ {
        let r = self.edge_range(e);
        self.adj_neighbor[r.clone()]
            .iter()
            .zip(&self.adj_rc[r])
            .map(|(&nb, &rc)| (nb, rc))
    }

    /// `Σ_k RC(e → e_k)` over all neighbors — the neighbor-weight
    /// denominator in Formula 1.
    #[inline]
    pub fn rc_sum(&self, e: ElementId) -> f64 {
        self.rc_sum[e.index()]
    }

    /// Neighbor weight `W(from → to) = RC(from → to) / Σ_k RC(from → e_k)`
    /// (Formula 1). Zero when `from` has no outgoing RC mass.
    pub fn neighbor_weight(&self, from: ElementId, to: ElementId) -> f64 {
        let s = self.rc_sum(from);
        if s > 0.0 {
            self.rc(from, to) / s
        } else {
            0.0
        }
    }

    /// Whether element `e`'s CSR row carries bit-identical
    /// **exploration-relevant** record bits in `self` and `other`: the
    /// edge-list shape, each edge's traversability (`rc > 0` — the path
    /// kernel never reads the RC value itself), and the
    /// `rc_factor`/`w_back` bits that enter the path products.
    /// Cardinality bits are deliberately excluded — exploration reads
    /// them exactly once, after the trace, when the coverage row is
    /// written. This is the row-invariance predicate of delta
    /// classification and the incremental maintenance planner; `e` must
    /// be in range for both annotations.
    pub fn exploration_bits_eq(&self, other: &SchemaStats, e: ElementId) -> bool {
        self.degree(e) == other.degree(e)
            && self.edge_neighbors(e) == other.edge_neighbors(e)
            && self
                .edge_rcs(e)
                .iter()
                .zip(other.edge_rcs(e))
                .all(|(a, b)| (*a > 0.0) == (*b > 0.0))
            && lane_bits_eq(self.edge_rc_factors(e), other.edge_rc_factors(e))
            && lane_bits_eq(self.edge_w_backs(e), other.edge_w_backs(e))
    }

    /// Like [`exploration_bits_eq`](Self::exploration_bits_eq), but
    /// tolerating **dormant growth**: `other`'s row may interleave extra
    /// edges with `rc == 0` (a link declared in the schema before any
    /// instance exists). Every path kernel skips non-traversable edges
    /// before touching its budget, expansion count, or read set, so a row
    /// passing this predicate replays bit-identically on `other` — same
    /// products, flags, and reads — even though its record shape changed.
    /// The surviving edges must match `self`'s in order and bits, exactly
    /// as the strict predicate demands; `e` must be in range for both.
    pub fn replay_bits_eq(&self, other: &SchemaStats, e: ElementId) -> bool {
        let (an, arc) = (self.edge_neighbors(e), self.edge_rcs(e));
        let (af, aw) = (self.edge_rc_factors(e), self.edge_w_backs(e));
        let (bn, brc) = (other.edge_neighbors(e), other.edge_rcs(e));
        let (bf, bw) = (other.edge_rc_factors(e), other.edge_w_backs(e));
        let mut i = 0;
        for j in 0..bn.len() {
            let matches = i < an.len()
                && an[i] == bn[j]
                && (arc[i] > 0.0) == (brc[j] > 0.0)
                && af[i].to_bits() == bf[j].to_bits()
                && aw[i].to_bits() == bw[j].to_bits();
            if matches {
                i += 1;
            } else if brc[j] > 0.0 {
                // An unmatched traversable edge: the replay would expand
                // through it and diverge.
                return false;
            }
            // An unmatched rc == 0 edge is invisible to the path kernel.
        }
        i == an.len()
    }

    /// Grow these statistics into a larger schema version without
    /// rebuilding untouched rows: `graph` is the grown graph (the base
    /// elements keep their ids as an identity prefix — the append-only
    /// builder guarantees this when the new schema re-adds the old
    /// elements first), and `element_card`/`link_counts` annotate the
    /// *whole* grown schema, exactly as
    /// [`from_link_counts`](Self::from_link_counts) would receive them.
    ///
    /// Growth must be additive: every base element keeps its cardinality
    /// and every base link its instance count (new elements and links are
    /// free). Changed base cardinalities are rejected; the result is
    /// **bitwise identical** to a cold `from_link_counts` over the grown
    /// inputs.
    ///
    /// Only the rows a new or changed link can influence are recomputed:
    /// a row is rebuilt when its own outgoing adjacency moved (a new
    /// incident link adds a neighbor; new elements are all new rows) or
    /// when a *neighbor's* adjacency moved — `w_back` on edge `u → v`
    /// divides by `v`'s total outgoing count mass, so a link landing on
    /// `v` rewrites the `w_back` bits in every row adjacent to `v`.
    /// Every other row's lane slices are copied verbatim from the base.
    pub fn grow_from(
        &self,
        graph: &SchemaGraph,
        element_card: &[u64],
        link_counts: &[LinkCount],
    ) -> Result<Self, SchemaError> {
        let n_old = self.len();
        let n = graph.len();
        if element_card.len() != n {
            return Err(SchemaError::StatsShape {
                expected: n,
                actual: element_card.len(),
            });
        }
        if n < n_old {
            return Err(SchemaError::Invalid(format!(
                "grow_from: graph has {n} elements but the base statistics cover {n_old}"
            )));
        }
        let card: Vec<f64> = element_card.iter().map(|&c| c as f64).collect();
        for (i, c) in card.iter().enumerate().take(n_old) {
            if c.to_bits() != self.card[i].to_bits() {
                return Err(SchemaError::Invalid(format!(
                    "grow_from: cardinality of existing element e{i} changed; growth must be additive"
                )));
            }
        }
        let (rc_adj, cnt_adj) = Self::count_adjacency(graph, &card, link_counts)?;

        // Endpoints: base rows whose outgoing adjacency (neighbor list or
        // RC bits) differs from the base annotation — every new or
        // changed link incident to a base element surfaces here, because
        // a new link adds a neighbor entry and a changed count moves the
        // RC bits. New elements count as endpoints by definition. (A
        // changed count on a zero-cardinality element escapes the RC
        // comparison, but its RC row is all zero either way, so the
        // `rc_sum` guard zeroes every `w_back` it could influence.)
        let mut endpoint = vec![true; n];
        for (u, flag) in endpoint.iter_mut().enumerate().take(n_old) {
            let e = ElementId(u as u32);
            let base_nb = self.edge_neighbors(e);
            let base_rc = self.edge_rcs(e);
            let row = &rc_adj[u];
            *flag = !(row.len() == base_nb.len()
                && row.iter().zip(base_nb).all(|(&(nb, _), &b)| nb == b)
                && row
                    .iter()
                    .zip(base_rc)
                    .all(|(&(_, rc), &b)| rc.to_bits() == b.to_bits()));
        }
        // A row is rebuilt when it is an endpoint or adjacent to one (the
        // w_back denominator argument above); everything else copies.
        let mut rebuild = endpoint.clone();
        for u in 0..n {
            if endpoint[u] {
                for &(nb, _) in &rc_adj[u] {
                    rebuild[nb.index()] = true;
                }
            }
        }

        let rc_sum: Vec<f64> = rc_adj
            .iter()
            .map(|adj| adj.iter().map(|&(_, rc)| rc).sum())
            .collect();
        let wsrc_sum: Vec<f64> = cnt_adj
            .iter()
            .map(|adj| adj.iter().map(|&(_, w)| w).sum())
            .collect();
        let edge_count: usize = rc_adj.iter().map(Vec::len).sum();
        let padded = edge_count.next_multiple_of(LANE_PAD);
        let mut adj_off = Vec::with_capacity(n + 1);
        adj_off.push(0u32);
        let mut adj_neighbor = Vec::with_capacity(padded);
        let mut adj_rc = Vec::with_capacity(padded);
        let mut adj_rc_factor = Vec::with_capacity(padded);
        let mut adj_w_back = Vec::with_capacity(padded);
        let mut trav_deg = Vec::with_capacity(n);
        for (u, redo) in rebuild.iter().enumerate() {
            if *redo {
                let traversable = push_row(
                    &rc_adj[u],
                    u,
                    &cnt_adj,
                    &rc_sum,
                    &wsrc_sum,
                    &mut adj_neighbor,
                    &mut adj_rc,
                    &mut adj_rc_factor,
                    &mut adj_w_back,
                );
                trav_deg.push(traversable);
            } else {
                // Untouched row with untouched neighbors: every lane bit
                // (including the cross-row w_back ratios) is invariant.
                let r = self.edge_range(ElementId(u as u32));
                adj_neighbor.extend_from_slice(&self.adj_neighbor[r.clone()]);
                adj_rc.extend_from_slice(&self.adj_rc[r.clone()]);
                adj_rc_factor.extend_from_slice(&self.adj_rc_factor[r.clone()]);
                adj_w_back.extend_from_slice(&self.adj_w_back[r]);
                trav_deg.push(self.trav_deg[u]);
            }
            adj_off.push(adj_neighbor.len() as u32);
        }
        // Tail padding, re-derived for the grown edge count (the base
        // padding is never copied).
        while adj_neighbor.len() < padded {
            adj_neighbor.push(ElementId(0));
            adj_rc.push(0.0);
            adj_rc_factor.push(0.0);
            adj_w_back.push(0.0);
        }
        let total = card.iter().sum();
        Ok(SchemaStats {
            card,
            adj_off,
            adj_neighbor,
            adj_rc,
            adj_rc_factor,
            adj_w_back,
            trav_deg,
            rc_sum,
            total,
        })
    }

    /// A copy of these statistics with every cardinality multiplied by
    /// `factor` (relative cardinalities are ratios and do not change).
    /// Models proportional database growth — the paper's footnote 8
    /// scale-factor argument and the Table 5 growth-without-distribution-
    /// change scenario.
    pub fn scaled(&self, factor: f64) -> Self {
        SchemaStats {
            card: self.card.iter().map(|&c| c * factor).collect(),
            adj_off: self.adj_off.clone(),
            adj_neighbor: self.adj_neighbor.clone(),
            adj_rc: self.adj_rc.clone(),
            adj_rc_factor: self.adj_rc_factor.clone(),
            adj_w_back: self.adj_w_back.clone(),
            trav_deg: self.trav_deg.clone(),
            rc_sum: self.rc_sum.clone(),
            total: self.total * factor,
        }
    }

    /// Ids of elements adjacent to `e` (via either link kind).
    pub fn neighbor_ids(&self, e: ElementId) -> impl Iterator<Item = ElementId> + '_ {
        self.edge_neighbors(e).iter().copied()
    }
}

fn accumulate(adj: &mut Vec<(ElementId, f64)>, nb: ElementId, rc: f64) {
    match adj.iter_mut().find(|(e, _)| *e == nb) {
        Some((_, existing)) => *existing += rc,
        None => adj.push((nb, rc)),
    }
}

/// Append element `u`'s CSR row to the four lanes, computing the derived
/// per-edge factors. Shared by the full build
/// (`from_adjacency_weighted`) and the growth constructor
/// ([`SchemaStats::grow_from`]) so a recomputed row's bits cannot drift
/// from a cold build's. Returns the row's traversable degree.
#[allow(clippy::too_many_arguments)]
fn push_row(
    row: &[(ElementId, f64)],
    u: usize,
    wsrc: &[Vec<(ElementId, f64)>],
    rc_sum: &[f64],
    wsrc_sum: &[f64],
    adj_neighbor: &mut Vec<ElementId>,
    adj_rc: &mut Vec<f64>,
    adj_rc_factor: &mut Vec<f64>,
    adj_w_back: &mut Vec<f64>,
) -> u32 {
    let mut traversable = 0u32;
    for &(nb, rc) in row {
        let rc_factor = if rc > 0.0 { (1.0 / rc).min(1.0) } else { 0.0 };
        // W(nb → u): the reverse edge always exists because the
        // adjacency is built symmetrically, but its RC (and the
        // neighbor's whole RC mass) may be zero. The `rc_sum` guard
        // keeps zero-cardinality neighbors (whose RCs are all zero
        // while their raw counts may not be) weightless either way.
        let w_src_back = wsrc[nb.index()]
            .iter()
            .find(|&&(e, _)| e.index() == u)
            .map(|&(_, w)| w)
            .unwrap_or(0.0);
        let w_back = if rc_sum[nb.index()] > 0.0 && wsrc_sum[nb.index()] > 0.0 {
            w_src_back / wsrc_sum[nb.index()]
        } else {
            0.0
        };
        adj_neighbor.push(nb);
        adj_rc.push(rc);
        adj_rc_factor.push(rc_factor);
        adj_w_back.push(w_back);
        traversable += u32::from(rc > 0.0);
    }
    traversable
}

/// Bit-pattern equality over two `f64` lane slices of equal length.
fn lane_bits_eq(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SchemaGraphBuilder;
    use crate::types::SchemaType;

    /// site -> open_auctions -> open_auction* -> {bidder*, seller},
    /// people -> person*; bidder ->V person, seller ->V person.
    fn graph() -> (SchemaGraph, [ElementId; 6]) {
        let mut b = SchemaGraphBuilder::new("site");
        let oas = b
            .add_child(b.root(), "open_auctions", SchemaType::rcd())
            .unwrap();
        let oa = b
            .add_child(oas, "open_auction", SchemaType::set_of_rcd())
            .unwrap();
        let bidder = b.add_child(oa, "bidder", SchemaType::set_of_rcd()).unwrap();
        let seller = b.add_child(oa, "seller", SchemaType::rcd()).unwrap();
        let people = b.add_child(b.root(), "people", SchemaType::rcd()).unwrap();
        let person = b
            .add_child(people, "person", SchemaType::set_of_rcd())
            .unwrap();
        b.add_value_link(bidder, person).unwrap();
        b.add_value_link(seller, person).unwrap();
        let g = b.build().unwrap();
        (g, [oas, oa, bidder, seller, people, person])
    }

    fn stats() -> (SchemaGraph, [ElementId; 6], SchemaStats) {
        let (g, ids) = graph();
        let [oas, oa, bidder, seller, people, person] = ids;
        // 1 site, 1 open_auctions, 100 auctions, 500 bidders, 100 sellers,
        // 1 people, 200 persons.
        let card = vec![1, 1, 100, 500, 100, 1, 200];
        let links = vec![
            LinkCount {
                from: ElementId(0),
                to: oas,
                count: 1,
            },
            LinkCount {
                from: oas,
                to: oa,
                count: 100,
            },
            LinkCount {
                from: oa,
                to: bidder,
                count: 500,
            },
            LinkCount {
                from: oa,
                to: seller,
                count: 100,
            },
            LinkCount {
                from: ElementId(0),
                to: people,
                count: 1,
            },
            LinkCount {
                from: people,
                to: person,
                count: 200,
            },
            LinkCount {
                from: bidder,
                to: person,
                count: 500,
            },
            LinkCount {
                from: seller,
                to: person,
                count: 100,
            },
        ];
        let s = SchemaStats::from_link_counts(&g, &card, &links).unwrap();
        (g, ids, s)
    }

    #[test]
    fn relative_cardinalities_follow_figure3() {
        let (_, ids, s) = stats();
        let [_, oa, bidder, _, _, person] = ids;
        // Average 5 bidders per auction; each bidder tied to 1 auction.
        assert!((s.rc(oa, bidder) - 5.0).abs() < 1e-12);
        assert!((s.rc(bidder, oa) - 1.0).abs() < 1e-12);
        // 500 bids over 200 persons = 2.5 bids per person.
        assert!((s.rc(person, bidder) - 2.5).abs() < 1e-12);
        assert!((s.rc(bidder, person) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn totals_and_cards() {
        let (_, ids, s) = stats();
        assert_eq!(s.total_card(), 903.0);
        assert_eq!(s.card(ids[2]), 500.0);
        assert_eq!(s.len(), 7);
    }

    #[test]
    fn neighbor_weights_normalize() {
        let (g, _, s) = stats();
        for e in g.element_ids() {
            let total: f64 = s.neighbor_ids(e).map(|nb| s.neighbor_weight(e, nb)).sum();
            if s.rc_sum(e) > 0.0 {
                assert!((total - 1.0).abs() < 1e-9, "weights of {e} sum to {total}");
            }
        }
    }

    #[test]
    fn unlinked_pairs_have_zero_rc() {
        let (_, ids, s) = stats();
        let [_, oa, _, _, _, person] = ids;
        assert_eq!(s.rc(oa, person), 0.0);
        assert_eq!(s.neighbor_weight(oa, person), 0.0);
    }

    #[test]
    fn uniform_stats() {
        let (g, _) = graph();
        let s = SchemaStats::uniform(&g);
        assert_eq!(s.total_card(), g.len() as f64);
        for (p, c) in g.structural_links() {
            assert_eq!(s.rc(p, c), 1.0);
            assert_eq!(s.rc(c, p), 1.0);
        }
        for (f, t) in g.value_links() {
            assert_eq!(s.rc(f, t), 1.0);
        }
    }

    #[test]
    fn with_unit_rc_keeps_cards() {
        let (_, ids, s) = stats();
        let u = s.with_unit_rc();
        assert_eq!(u.card(ids[2]), 500.0);
        assert_eq!(u.rc(ids[1], ids[2]), 1.0);
        assert_eq!(u.total_card(), s.total_card());
    }

    #[test]
    fn shape_mismatch_rejected() {
        let (g, _) = graph();
        let err = SchemaStats::from_link_counts(&g, &[1, 2], &[]).unwrap_err();
        assert!(matches!(err, SchemaError::StatsShape { .. }));
    }

    #[test]
    fn non_link_count_rejected() {
        let (g, ids) = graph();
        let card = vec![1; g.len()];
        let bad = vec![LinkCount {
            from: ids[1],
            to: ids[5], // oa -> person is not a schema link
            count: 5,
        }];
        assert!(SchemaStats::from_link_counts(&g, &card, &bad).is_err());
    }

    #[test]
    fn zero_cardinality_element_yields_zero_rc() {
        let (g, ids) = graph();
        let mut card = vec![1u64; g.len()];
        card[ids[2].index()] = 0; // no bidders at all
        let s = SchemaStats::from_link_counts(&g, &card, &[]).unwrap();
        assert_eq!(s.rc(ids[2], ids[1]), 0.0);
        assert_eq!(s.rc(ids[1], ids[2]), 0.0);
    }

    #[test]
    fn scaled_preserves_ratios() {
        let (_, ids, s) = stats();
        let s2 = s.scaled(3.0);
        assert_eq!(s2.total_card(), s.total_card() * 3.0);
        assert_eq!(s2.card(ids[2]), s.card(ids[2]) * 3.0);
        // RCs are ratios: unchanged.
        for e in [ids[1], ids[2], ids[5]] {
            for nb in [ids[1], ids[2], ids[5]] {
                assert_eq!(s2.rc(e, nb), s.rc(e, nb));
            }
        }
    }

    /// Assert two annotations agree bit-for-bit on every stored lane and
    /// aggregate — stronger than `PartialEq` (which compares floats by
    /// value, not bits).
    fn assert_bitwise_eq(a: &SchemaStats, b: &SchemaStats) {
        assert_eq!(a.card.len(), b.card.len());
        assert!(a
            .card
            .iter()
            .zip(&b.card)
            .all(|(x, y)| x.to_bits() == y.to_bits()));
        assert_eq!(a.adj_off, b.adj_off);
        assert_eq!(a.adj_neighbor, b.adj_neighbor);
        for (la, lb) in [
            (&a.adj_rc, &b.adj_rc),
            (&a.adj_rc_factor, &b.adj_rc_factor),
            (&a.adj_w_back, &b.adj_w_back),
            (&a.rc_sum, &b.rc_sum),
        ] {
            assert_eq!(la.len(), lb.len());
            assert!(la.iter().zip(lb).all(|(x, y)| x.to_bits() == y.to_bits()));
        }
        assert_eq!(a.trav_deg, b.trav_deg);
        assert_eq!(a.total.to_bits(), b.total.to_bits());
    }

    /// Rebuild the `graph()` fixture with optional growth appended after
    /// the base elements (preserving the id prefix), plus the grown
    /// annotation.
    fn grown_fixture(grow: bool) -> (SchemaGraph, Vec<u64>, Vec<LinkCount>) {
        let mut b = SchemaGraphBuilder::new("site");
        let oas = b
            .add_child(b.root(), "open_auctions", SchemaType::rcd())
            .unwrap();
        let oa = b
            .add_child(oas, "open_auction", SchemaType::set_of_rcd())
            .unwrap();
        let bidder = b.add_child(oa, "bidder", SchemaType::set_of_rcd()).unwrap();
        let seller = b.add_child(oa, "seller", SchemaType::rcd()).unwrap();
        let people = b.add_child(b.root(), "people", SchemaType::rcd()).unwrap();
        let person = b
            .add_child(people, "person", SchemaType::set_of_rcd())
            .unwrap();
        b.add_value_link(bidder, person).unwrap();
        b.add_value_link(seller, person).unwrap();
        let mut cards = vec![1u64, 1, 100, 500, 100, 1, 200];
        let lc = |from, to, count| LinkCount { from, to, count };
        let mut links = vec![
            lc(ElementId(0), oas, 1),
            lc(oas, oa, 100),
            lc(oa, bidder, 500),
            lc(oa, seller, 100),
            lc(ElementId(0), people, 1),
            lc(people, person, 200),
            lc(bidder, person, 500),
            lc(seller, person, 100),
        ];
        if grow {
            let watches = b
                .add_child(person, "watches", SchemaType::set_of_rcd())
                .unwrap();
            b.add_value_link(watches, oa).unwrap();
            cards.push(340);
            links.push(lc(person, watches, 340));
            links.push(lc(watches, oa, 340));
        }
        (b.build().unwrap(), cards, links)
    }

    #[test]
    fn grow_from_matches_cold_build_bitwise() {
        let (base_g, base_cards, base_links) = grown_fixture(false);
        let base = SchemaStats::from_link_counts(&base_g, &base_cards, &base_links).unwrap();
        let (new_g, new_cards, new_links) = grown_fixture(true);
        let grown = base.grow_from(&new_g, &new_cards, &new_links).unwrap();
        let cold = SchemaStats::from_link_counts(&new_g, &new_cards, &new_links).unwrap();
        assert_bitwise_eq(&grown, &cold);
        assert_eq!(grown.len(), base.len() + 1);
    }

    #[test]
    fn grow_from_identity_is_bitwise_stable() {
        let (g, cards, links) = grown_fixture(false);
        let base = SchemaStats::from_link_counts(&g, &cards, &links).unwrap();
        let regrown = base.grow_from(&g, &cards, &links).unwrap();
        assert_bitwise_eq(&regrown, &base);
    }

    #[test]
    fn grow_from_rejects_changed_base_cardinality() {
        let (base_g, base_cards, base_links) = grown_fixture(false);
        let base = SchemaStats::from_link_counts(&base_g, &base_cards, &base_links).unwrap();
        let (new_g, mut new_cards, new_links) = grown_fixture(true);
        new_cards[3] += 1; // bidder count moved: not additive growth
        assert!(base.grow_from(&new_g, &new_cards, &new_links).is_err());
    }

    #[test]
    fn grow_from_rejects_shrunk_graph() {
        let (base_g, base_cards, base_links) = grown_fixture(false);
        let (new_g, new_cards, new_links) = grown_fixture(true);
        let grown = SchemaStats::from_link_counts(&new_g, &new_cards, &new_links).unwrap();
        assert!(grown.grow_from(&base_g, &base_cards, &base_links).is_err());
    }

    #[test]
    fn exploration_bits_survive_pure_rescale_but_not_fanout_change() {
        let (g, ids, s) = stats();
        let rescaled = s.scaled(2.0);
        for e in g.element_ids() {
            assert!(s.exploration_bits_eq(&rescaled, e));
        }
        // Push RC(oa→bidder) from 5 to 6: an unclamped factor moves.
        let (g2, cards, mut links) = {
            let (g2, ids2) = graph();
            let card = vec![1u64, 1, 100, 500, 100, 1, 200];
            let [oas, oa, bidder, seller, people, person] = ids2;
            let lc = |from, to, count| LinkCount { from, to, count };
            let links = vec![
                lc(ElementId(0), oas, 1),
                lc(oas, oa, 100),
                lc(oa, bidder, 500),
                lc(oa, seller, 100),
                lc(ElementId(0), people, 1),
                lc(people, person, 200),
                lc(bidder, person, 500),
                lc(seller, person, 100),
            ];
            (g2, card, links)
        };
        links[2].count = 600;
        let moved = SchemaStats::from_link_counts(&g2, &cards, &links).unwrap();
        assert!(!s.exploration_bits_eq(&moved, ids[1]));
    }

    #[test]
    fn replay_bits_tolerate_dormant_growth_only() {
        let (base_g, base_cards, base_links) = grown_fixture(false);
        let base = SchemaStats::from_link_counts(&base_g, &base_cards, &base_links).unwrap();

        // Identity: replay equivalence subsumes exploration equivalence.
        for e in base_g.element_ids() {
            assert!(base.replay_bits_eq(&base, e));
        }

        // Dormant growth: `watches` exists structurally but its links
        // carry no instances, so every new edge has rc == 0 and the old
        // rows replay identically over the grown stats.
        let (new_g, mut new_cards, _) = grown_fixture(true);
        new_cards[7] = 0; // watches has no instances yet
        let dormant = SchemaStats::from_link_counts(&new_g, &new_cards, &base_links).unwrap();
        for e in base_g.element_ids() {
            assert!(
                base.replay_bits_eq(&dormant, e),
                "dormant growth must leave element {e:?} replayable"
            );
        }
        // ...even though exploration bits do differ where edges appended.
        let person = ElementId(6);
        assert!(!base.exploration_bits_eq(&dormant, person));

        // Populated growth: the same edges with live counts make the
        // carrier rows non-replayable.
        let (_, new_cards, new_links) = grown_fixture(true);
        let populated = SchemaStats::from_link_counts(&new_g, &new_cards, &new_links).unwrap();
        assert!(!base.replay_bits_eq(&populated, person));

        // A changed factor on a pre-existing edge is never tolerated.
        let mut moved_links = base_links.clone();
        moved_links[2].count = 600;
        let moved = SchemaStats::from_link_counts(&base_g, &base_cards, &moved_links).unwrap();
        assert!(!base.replay_bits_eq(&moved, ElementId(2)));
    }

    #[test]
    fn parallel_links_aggregate() {
        // a is both structural parent of b and value-linked to b.
        let mut b = SchemaGraphBuilder::new("r");
        let a = b.add_child(b.root(), "a", SchemaType::rcd()).unwrap();
        let c = b.add_child(a, "c", SchemaType::set_of_rcd()).unwrap();
        b.add_value_link(a, c).unwrap();
        let g = b.build().unwrap();
        let card = vec![1, 10, 30];
        let links = vec![
            LinkCount {
                from: a,
                to: c,
                count: 30,
            }, // structural: 3 per a
            LinkCount {
                from: a,
                to: c,
                count: 10,
            }, // value: 1 per a
        ];
        let s = SchemaStats::from_link_counts(&g, &card, &links).unwrap();
        // Parallel RCs add: 4 per a. (But note from_link_counts merges the
        // two LinkCount entries into the *same* schema link here since both
        // structural and value links exist; count sums to 40.)
        assert!(s.rc(a, c) > 0.0);
        assert_eq!(s.rc_neighbors(a).count(), 2); // root + c
    }
}
