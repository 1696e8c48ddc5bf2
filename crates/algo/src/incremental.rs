//! Incremental maintenance planning for schema deltas (paper §3.3).
//!
//! A [`SchemaDelta`] tells us *what* changed
//! between two schema versions; this module turns that into a *plan*: the
//! exact set of [`PairMatrices`] source rows whose
//! exploration could possibly observe the change. Everything outside that set
//! is bitwise-unaffected and can be spliced over from the old matrices via
//! [`PairMatrices::splice`](crate::PairMatrices::splice).
//!
//! # Exactness argument
//!
//! Path exploration from a source `a` is a deterministic trace: a sequence
//! of stats-record reads whose every step is a function of the records
//! read so far. Crucially, the trace consumes only a *slice* of each
//! record: the edge-list shape, each edge's traversability (`rc > 0` —
//! the RC value itself is never multiplied), and the `rc_factor`/`w_back`
//! bits that enter the path products. Cardinalities are read exactly once
//! per row, *after* exploration, when the coverage row is written as
//! `Card(b) · product`. The kernel records the exact set of elements each
//! source's trace consulted
//! ([`SourceResult::reads`](crate::paths::SourceResult::reads)), and the
//! matrices persist it per row together with the raw path products. So:
//!
//! * if every element in row `a`'s recorded read set carries bit-identical
//!   *exploration-relevant* bits in the old and new versions, the new
//!   trace reads the same bits at every step and is identical end to end —
//!   products, expansion counts, truncation flags, and the read set
//!   itself;
//! * the coverage row-write is then redone by the splice for *every* row
//!   from the stored products under the new cardinalities — the exact
//!   multiply a cold pass performs — so cardinality bits never force a
//!   re-exploration at all.
//!
//! The plan therefore marks exactly the rows whose read set intersects the
//! set of elements whose exploration-relevant bits differ ("touched"). A
//! cardinality-only delta in which every affected `rc_factor` stays
//! clamped at 1 (the common data-growth case: RC ≤ 1 edges get *less*
//! selective as the element grows) and `w_back` — a count ratio, computed
//! count-natively by `SchemaStats::from_link_counts` — is unchanged marks
//! *zero* rows: the splice is then a pure rescale.
//!
//! The plan applies to two shapes of delta, routed by
//! [`DeltaClass`]:
//!
//! * **same-graph deltas** (`Rescale` / `EdgeTouch`): both versions share the
//!   [`SchemaGraph`], and the plan marks
//!   the rows whose traces read a changed record;
//! * **additive structural deltas** (`AdditiveStructural`): the new graph
//!   strictly *extends* the old one — every old element keeps its id, label,
//!   type, and parent, and new elements/links only append. New source rows
//!   are always recomputed (there is no old row to splice), and old rows
//!   re-explore exactly when their recorded read set touches a growth point
//!   (an element whose edge slice gained a neighbor). Everything else copies
//!   over bitwise: an untouched old row's trace never visits a new element,
//!   so its affinity/coverage in the new columns is exactly the `+0.0` a
//!   cold pass writes for unreached targets.
//!
//! `Destructive` deltas (removed/retyped elements, removed links) renumber
//! or rewire the element space and always fall back to a cold recompute, as
//! does a delta touching more than `max_fraction` of the elements (past that
//! point the splice saves little and the cold path's parallelism wins).

use schema_summary_core::{DeltaClass, SchemaDelta, SchemaGraph, SchemaStats};

use crate::matrices::PairMatrices;
use crate::paths::PathConfig;

/// The outcome of [`plan_delta`]: which matrix rows a warm refresh must
/// recompute, and how big the delta footprint was.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaPlan {
    /// `recompute[e]` is true iff source row `e` must be re-explored.
    pub recompute: Vec<bool>,
    /// Number of elements whose exploration-relevant record bits differ
    /// between versions.
    pub touched: usize,
    /// Number of rows marked for re-exploration (popcount of `recompute`).
    pub rows: usize,
    /// Whether any element's cardinality bits changed. The splice rebuilds
    /// every copied row's coverage from the stored path products, so this
    /// costs no re-exploration — but it does mean copied rows' coverage
    /// *values* may differ from the old matrices, which downstream
    /// row-reuse (e.g. multi-level patching) must treat as changed.
    pub rescaled: bool,
    /// Number of elements appended by an additive structural delta
    /// (`new_len - old_len`). Zero for same-graph plans and for link-only
    /// growth; when non-zero the splice *resizes* the matrices, computing
    /// the appended source rows fresh.
    pub grown: usize,
}

impl DeltaPlan {
    /// True when the spliced matrices are guaranteed bitwise equal to the
    /// old ones (nothing to re-explore *and* no cardinality moved — the
    /// delta was a no-op at the bit level, e.g. a re-registration of
    /// identical stats).
    pub fn is_noop(&self) -> bool {
        self.rows == 0 && !self.rescaled
    }
}

/// Plan a warm matrix refresh for `delta`, or return `None` when the delta
/// cannot be served warm and the caller must recompute cold.
///
/// Warm eligibility requires all of:
///
/// * the delta has no structural changes (`old_graph == new_graph` and the
///   delta lists no added/removed/retyped elements or changed value links);
/// * both stats cover the same element space as the graph, and so does
///   `old_matrices` (the matrices computed over `old_stats`, whose rows
///   the splice will reuse);
/// * the re-exploration set covers at most `max_fraction` of all elements
///   (`max_fraction` outside `(0, 1]` disables that guard). Pure-rescale
///   plans (zero rows) always qualify: their splice costs one multiply per
///   matrix cell, no matter how many cardinalities moved.
///
/// An empty delta yields a zero-row plan (see [`DeltaPlan::is_noop`]).
/// The plan reads only the read sets recorded in `old_matrices`, so it
/// does not depend on the path configuration they were computed under.
// Two (graph, stats) versions plus the old matrices and knobs: the arity
// is the problem's, and bundling would just move the names into a struct
// every caller builds inline.
#[allow(clippy::too_many_arguments)]
pub fn plan_delta(
    delta: &SchemaDelta,
    old_graph: &SchemaGraph,
    old_stats: &SchemaStats,
    new_graph: &SchemaGraph,
    new_stats: &SchemaStats,
    old_matrices: &PairMatrices,
    _config: &PathConfig,
    max_fraction: f64,
) -> Option<DeltaPlan> {
    let n = new_graph.len();
    if delta.is_empty() {
        return Some(DeltaPlan {
            recompute: vec![false; n],
            touched: 0,
            rows: 0,
            rescaled: false,
            grown: 0,
        });
    }
    match delta.class {
        DeltaClass::Destructive => return None,
        DeltaClass::AdditiveStructural => {
            return plan_grown(
                old_graph,
                old_stats,
                new_graph,
                new_stats,
                old_matrices,
                max_fraction,
            );
        }
        DeltaClass::Rescale | DeltaClass::EdgeTouch => {}
    }
    if old_graph != new_graph {
        return None;
    }
    if old_stats.len() != n || new_stats.len() != n || old_matrices.len() != n {
        return None;
    }

    // Touched = elements whose *exploration-relevant* record bits differ:
    // edge-list shape, per-edge traversability (the kernel reads `rc` only
    // through `rc > 0` gates), and the `rc_factor`/`w_back` bits the path
    // products multiply — exactly the slice `SchemaStats::
    // exploration_bits_eq` compares. Comparing bits (not ==) keeps the
    // exactness argument airtight: equal-but-for-NaN or signed-zero
    // differences still force a recompute of affected rows. Cardinality
    // bits (and the RC-value drift they induce at unchanged positivity,
    // e.g. under a clamped `rc_factor`) are deliberately excluded — the
    // splice redoes every coverage row-write from the stored path
    // products, which is the only place cardinalities are read.
    let mut touched_set = vec![false; n];
    let mut touched = 0usize;
    let mut rescaled = false;
    for e in new_graph.element_ids() {
        if !old_stats.exploration_bits_eq(new_stats, e) {
            touched_set[e.index()] = true;
            touched += 1;
        }
        rescaled |= old_stats.card(e).to_bits() != new_stats.card(e).to_bits();
    }

    // Recompute set: the rows whose recorded read trace consulted a touched
    // element. Note this is much tighter than "within max_edges hops of a
    // touched element": a far-away fan-out change leaves every row that
    // never read it untouched, even in a graph whose diameter is inside the
    // exploration horizon — and a pure cardinality delta touches no rows at
    // all.
    let recompute = old_matrices.rows_reading(&touched_set);
    let rows = recompute.iter().filter(|&&b| b).count();
    if max_fraction > 0.0 && max_fraction <= 1.0 && (rows as f64) > max_fraction * (n as f64) {
        return None;
    }
    Some(DeltaPlan {
        recompute,
        touched,
        rows,
        rescaled,
        grown: 0,
    })
}

/// Plan a warm refresh for an *additive structural* delta.
///
/// Requires the new graph to be an **identity-prefix extension** of the old
/// one: `new_len ≥ old_len` and every old element keeps its id, label, type,
/// and parent (the builder assigns ids append-only, so re-declaring the old
/// schema first and appending the new elements/links after produces exactly
/// this shape). Old rows are diffed on exploration bits against the new
/// stats — a row adjacent to a growth point sees its edge slice change and
/// is naturally touched — and the recompute set is their recorded readers
/// plus every appended row. The `max_fraction` guard counts grown rows.
///
/// Returns `None` (cold fallback) when the extension is not identity-prefix
/// (renumbered or reordered old elements), when shapes disagree, or when
/// the guard trips.
fn plan_grown(
    old_graph: &SchemaGraph,
    old_stats: &SchemaStats,
    new_graph: &SchemaGraph,
    new_stats: &SchemaStats,
    old_matrices: &PairMatrices,
    max_fraction: f64,
) -> Option<DeltaPlan> {
    let n = new_graph.len();
    let n_old = old_graph.len();
    if n < n_old || old_stats.len() != n_old || new_stats.len() != n || old_matrices.len() != n_old
    {
        return None;
    }
    // Identity-prefix check: the old element space must embed unchanged at
    // ids `0..n_old`. Labels/types/parents pin each old element in place;
    // link growth is visible through the stats diff below.
    let prefix_intact = old_graph.element_ids().all(|e| {
        old_graph.label(e) == new_graph.label(e)
            && old_graph.ty(e) == new_graph.ty(e)
            && old_graph.parent(e) == new_graph.parent(e)
    });
    if !prefix_intact {
        return None;
    }

    // Diff old rows on replay bits. A row whose edge slice gained a
    // *traversable* neighbor (a populated growth endpoint) diverges; a row
    // whose `w_back` bits moved because a neighbor's in-weight sum changed
    // differs in lane bits. Dormant growth — new edges with no instances
    // yet (`rc == 0`) — leaves a row replayable: the kernel skips
    // non-traversable edges before its budget, expansion count, or read
    // set, so the row's trace is bitwise invariant. Rows passing the
    // comparison never reach a new element — traversable edges into the
    // new suffix exist only in touched rows.
    let mut touched_old = vec![false; n_old];
    let mut touched = 0usize;
    let mut rescaled = false;
    for e in old_graph.element_ids() {
        if !old_stats.replay_bits_eq(new_stats, e) {
            touched_old[e.index()] = true;
            touched += 1;
        }
        rescaled |= old_stats.card(e).to_bits() != new_stats.card(e).to_bits();
    }

    let mut recompute = old_matrices.rows_reading(&touched_old);
    recompute.resize(n, true); // every appended source row computes fresh
    let rows = recompute.iter().filter(|&&b| b).count();
    if max_fraction > 0.0 && max_fraction <= 1.0 && (rows as f64) > max_fraction * (n as f64) {
        return None;
    }
    Some(DeltaPlan {
        recompute,
        touched,
        rows,
        rescaled,
        grown: n - n_old,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrices::PairMatrices;
    use schema_summary_core::stats::LinkCount;
    use schema_summary_core::{SchemaGraphBuilder, SchemaType};

    /// Fully-connected fixture: every structural link carries instance
    /// counts, so every source's trace reads the whole 5-element graph.
    /// Element ids: root=0, A=1, x=2, B=3, y=4.
    fn fixture() -> (SchemaGraph, Vec<u64>, Vec<LinkCount>) {
        let mut b = SchemaGraphBuilder::new("db");
        let a = b
            .add_child(b.root(), "A", SchemaType::set_of_rcd())
            .unwrap();
        let x = b.add_child(a, "x", SchemaType::simple_str()).unwrap();
        let bb = b
            .add_child(b.root(), "B", SchemaType::set_of_rcd())
            .unwrap();
        let y = b.add_child(bb, "y", SchemaType::simple_str()).unwrap();
        b.add_value_link(x, y).unwrap();
        let g = b.build().unwrap();
        let root = g.root();
        let cards = vec![1, 10, 30, 8, 24];
        let lc = |from, to, count| LinkCount { from, to, count };
        let links = vec![
            lc(root, a, 10),
            lc(a, x, 30),
            lc(root, bb, 8),
            lc(bb, y, 24),
            lc(x, y, 8),
        ];
        (g, cards, links)
    }

    /// Sparse fixture: structural links carry zero instances, so only the
    /// value link `x ↔ y` (count 60, `RC(x→y) = 2` — an *unclamped*
    /// `rc_factor`) is traversable. Sources root/A/B read nothing beyond
    /// themselves.
    fn sparse_fixture() -> (SchemaGraph, Vec<u64>, Vec<LinkCount>) {
        let mut b = SchemaGraphBuilder::new("db");
        let a = b
            .add_child(b.root(), "A", SchemaType::set_of_rcd())
            .unwrap();
        let x = b.add_child(a, "x", SchemaType::simple_str()).unwrap();
        let bb = b
            .add_child(b.root(), "B", SchemaType::set_of_rcd())
            .unwrap();
        let y = b.add_child(bb, "y", SchemaType::simple_str()).unwrap();
        b.add_value_link(x, y).unwrap();
        let g = b.build().unwrap();
        let cards = vec![1, 10, 30, 8, 24];
        let links = vec![LinkCount {
            from: x,
            to: y,
            count: 60,
        }];
        (g, cards, links)
    }

    fn delta_for(g: &SchemaGraph, old: &SchemaStats, new: &SchemaStats) -> SchemaDelta {
        SchemaDelta::compute(g, old, g, new)
    }

    #[test]
    fn empty_delta_is_a_noop_plan() {
        let (g, cards, links) = fixture();
        let s = SchemaStats::from_link_counts(&g, &cards, &links).unwrap();
        let config = PathConfig::default();
        let m = PairMatrices::compute(&s, &config);
        let d = delta_for(&g, &s, &s);
        let plan = plan_delta(&d, &g, &s, &g, &s, &m, &config, 0.25).unwrap();
        assert!(plan.is_noop());
        assert!(!plan.rescaled);
        assert_eq!(plan.recompute, vec![false; g.len()]);
    }

    #[test]
    fn cardinality_growth_re_explores_nothing() {
        let (g, cards, links) = fixture();
        let old = SchemaStats::from_link_counts(&g, &cards, &links).unwrap();
        let mut new_cards = cards.clone();
        new_cards[4] = 48; // y grows; its outgoing RCs (≤ 1) stay clamped
        let new = SchemaStats::from_link_counts(&g, &new_cards, &links).unwrap();
        let d = delta_for(&g, &old, &new);
        assert!(!d.is_empty());
        let config = PathConfig::default();
        let old_m = PairMatrices::compute(&old, &config);
        let plan = plan_delta(&d, &g, &old, &g, &new, &old_m, &config, 1.0).unwrap();
        // No exploration record moved: the clamp absorbs the RC drift and
        // w_back is a count ratio. The splice is a pure coverage rescale.
        assert_eq!(plan.rows, 0);
        assert_eq!(plan.touched, 0);
        assert!(plan.rescaled);
        assert!(!plan.is_noop());
        let warm = old_m.splice(&new, &config, &plan.recompute).unwrap();
        let cold = PairMatrices::compute(&new, &config);
        assert!(warm.bitwise_eq(&cold));
        // The rescale is not a copy: y's coverage column actually moved.
        assert!(!warm.bitwise_eq(&old_m));
    }

    #[test]
    fn fanout_delta_marks_exactly_the_reading_rows() {
        let (g, cards, links) = sparse_fixture();
        let old = SchemaStats::from_link_counts(&g, &cards, &links).unwrap();
        let mut new_links = links.clone();
        new_links[0].count = 90; // RC(x→y): 2 → 3, an unclamped factor
        let new = SchemaStats::from_link_counts(&g, &cards, &new_links).unwrap();
        let d = delta_for(&g, &old, &new);
        assert!(!d.is_empty());
        let config = PathConfig::default();
        let old_m = PairMatrices::compute(&old, &config);
        let plan = plan_delta(&d, &g, &old, &g, &new, &old_m, &config, 1.0).unwrap();
        // Both ends of the value link see an unclamped rc_factor move
        // (RC(y→x) = 2.5 → 3.75 as well), and only the x and y traces read
        // either: root, A, and B sit behind zero-count structural links
        // and keep their rows.
        assert_eq!(plan.touched, 2);
        assert_eq!(plan.recompute, vec![false, false, true, false, true]);
        assert_eq!(plan.rows, 2);
        let warm = old_m.splice(&new, &config, &plan.recompute).unwrap();
        let cold = PairMatrices::compute(&new, &config);
        assert!(warm.bitwise_eq(&cold));
    }

    #[test]
    fn oversized_delta_falls_back() {
        let (g, cards, links) = sparse_fixture();
        let old = SchemaStats::from_link_counts(&g, &cards, &links).unwrap();
        let mut new_links = links.clone();
        new_links[0].count = 90;
        let new = SchemaStats::from_link_counts(&g, &cards, &new_links).unwrap();
        let d = delta_for(&g, &old, &new);
        let config = PathConfig::default();
        let old_m = PairMatrices::compute(&old, &config);
        // 2 of 5 rows re-explore; a 25% budget refuses, a disabled guard
        // accepts.
        assert!(plan_delta(&d, &g, &old, &g, &new, &old_m, &config, 0.25).is_none());
        assert!(plan_delta(&d, &g, &old, &g, &new, &old_m, &config, 0.0).is_some());
    }

    #[test]
    fn pure_rescale_bypasses_the_fraction_guard() {
        let (g, cards, links) = fixture();
        let old = SchemaStats::from_link_counts(&g, &cards, &links).unwrap();
        let new = old.scaled(2.0);
        let d = delta_for(&g, &old, &new);
        let config = PathConfig::default();
        let old_m = PairMatrices::compute(&old, &config);
        // Proportional growth leaves every RC (and thus every exploration
        // record) bit-identical: zero rows, so even the tightest guard
        // admits it.
        let plan = plan_delta(&d, &g, &old, &g, &new, &old_m, &config, 0.01).unwrap();
        assert_eq!(plan.rows, 0);
        assert!(plan.rescaled);
        let warm = old_m.splice(&new, &config, &plan.recompute).unwrap();
        let cold = PairMatrices::compute(&new, &config);
        assert!(warm.bitwise_eq(&cold));
    }

    #[test]
    fn structural_delta_falls_back() {
        let (g, cards, links) = fixture();
        let old = SchemaStats::from_link_counts(&g, &cards, &links).unwrap();
        let config = PathConfig::default();
        let old_m = PairMatrices::compute(&old, &config);
        let mut b = SchemaGraphBuilder::new("db");
        let a = b
            .add_child(b.root(), "A", SchemaType::set_of_rcd())
            .unwrap();
        b.add_child(a, "x", SchemaType::simple_str()).unwrap();
        let g2 = b.build().unwrap();
        let s2 = SchemaStats::uniform(&g2);
        let d = SchemaDelta::compute(&g, &old, &g2, &s2);
        // Dropping elements is destructive: no warm plan exists.
        assert_eq!(d.class, DeltaClass::Destructive);
        assert!(plan_delta(&d, &g, &old, &g2, &s2, &old_m, &config, 1.0).is_none());
    }

    /// The fixture graph extended identity-prefix style: the same five
    /// elements re-declared in order, plus a new element `z` under `B` and
    /// a value link `z → x`. Ids: root=0, A=1, x=2, B=3, y=4, z=5.
    fn grown_fixture() -> (SchemaGraph, Vec<u64>, Vec<LinkCount>) {
        let mut b = SchemaGraphBuilder::new("db");
        let a = b
            .add_child(b.root(), "A", SchemaType::set_of_rcd())
            .unwrap();
        let x = b.add_child(a, "x", SchemaType::simple_str()).unwrap();
        let bb = b
            .add_child(b.root(), "B", SchemaType::set_of_rcd())
            .unwrap();
        let y = b.add_child(bb, "y", SchemaType::simple_str()).unwrap();
        let z = b.add_child(bb, "z", SchemaType::simple_str()).unwrap();
        b.add_value_link(x, y).unwrap();
        b.add_value_link(z, x).unwrap();
        let g = b.build().unwrap();
        let root = g.root();
        let cards = vec![1, 10, 30, 8, 24, 16];
        let lc = |from, to, count| LinkCount { from, to, count };
        let links = vec![
            lc(root, a, 10),
            lc(a, x, 30),
            lc(root, bb, 8),
            lc(bb, y, 24),
            lc(x, y, 8),
            lc(bb, z, 16),
            lc(z, x, 16),
        ];
        (g, cards, links)
    }

    #[test]
    fn grown_plan_splices_bitwise_to_cold() {
        let (g, cards, links) = fixture();
        let old = SchemaStats::from_link_counts(&g, &cards, &links).unwrap();
        let (g2, new_cards, new_links) = grown_fixture();
        let new = SchemaStats::from_link_counts(&g2, &new_cards, &new_links).unwrap();
        let d = SchemaDelta::compute(&g, &old, &g2, &new);
        assert_eq!(d.class, DeltaClass::AdditiveStructural);
        let config = PathConfig::default();
        let old_m = PairMatrices::compute(&old, &config);
        let plan = plan_delta(&d, &g, &old, &g2, &new, &old_m, &config, 1.0).unwrap();
        assert_eq!(plan.grown, 1);
        // The appended row is always recomputed, plus the rows reading the
        // growth endpoints (B gained a child, x gained a referrer).
        assert!(plan.rows >= 1);
        assert!(plan.recompute[5]);
        assert!(!plan.rescaled); // old cardinalities untouched
        let warm = old_m.splice(&new, &config, &plan.recompute).unwrap();
        let cold = PairMatrices::compute(&new, &config);
        assert!(warm.bitwise_eq(&cold));
    }

    #[test]
    fn grown_plan_carries_rows_outside_the_growth_readers() {
        // Sparse base: zero-count structural links, so sources root/A/x/y
        // read nothing beyond their own traversable component. Growth adds
        // `w` under B behind a populated link: only B's edge slice gains a
        // traversable edge, only B's own trace read it, so root/A/x/y
        // carry over.
        let (g, cards, links) = sparse_fixture();
        let old = SchemaStats::from_link_counts(&g, &cards, &links).unwrap();
        let mut b = SchemaGraphBuilder::new("db");
        let a = b
            .add_child(b.root(), "A", SchemaType::set_of_rcd())
            .unwrap();
        let x = b.add_child(a, "x", SchemaType::simple_str()).unwrap();
        let bb = b
            .add_child(b.root(), "B", SchemaType::set_of_rcd())
            .unwrap();
        let y = b.add_child(bb, "y", SchemaType::simple_str()).unwrap();
        let w = b.add_child(bb, "w", SchemaType::simple_str()).unwrap();
        b.add_value_link(x, y).unwrap();
        let g2 = b.build().unwrap();
        let mut new_cards = cards.clone();
        new_cards.push(12);
        let mut new_links = links.clone();
        new_links.push(LinkCount {
            from: bb,
            to: w,
            count: 6,
        });
        let new = SchemaStats::from_link_counts(&g2, &new_cards, &new_links).unwrap();
        let d = SchemaDelta::compute(&g, &old, &g2, &new);
        assert_eq!(d.class, DeltaClass::AdditiveStructural);
        let config = PathConfig::default();
        let old_m = PairMatrices::compute(&old, &config);
        let plan = plan_delta(&d, &g, &old, &g2, &new, &old_m, &config, 1.0).unwrap();
        assert_eq!(plan.grown, 1);
        assert_eq!(plan.touched, 1); // B only
        assert_eq!(
            plan.recompute,
            vec![false, false, false, true, false, true]
        );
        let warm = old_m.splice(&new, &config, &plan.recompute).unwrap();
        let cold = PairMatrices::compute(&new, &config);
        assert!(warm.bitwise_eq(&cold));
    }

    #[test]
    fn dormant_growth_recomputes_only_the_appended_rows() {
        // DDL before data: `w` lands under B with no instances, so the
        // B→w edge has count 0 and no kernel will ever traverse it. B's
        // row replays bit-for-bit over the grown stats, so the plan
        // recomputes nothing but the appended row itself.
        let (g, cards, links) = sparse_fixture();
        let old = SchemaStats::from_link_counts(&g, &cards, &links).unwrap();
        let mut b = SchemaGraphBuilder::new("db");
        let a = b
            .add_child(b.root(), "A", SchemaType::set_of_rcd())
            .unwrap();
        let x = b.add_child(a, "x", SchemaType::simple_str()).unwrap();
        let bb = b
            .add_child(b.root(), "B", SchemaType::set_of_rcd())
            .unwrap();
        let y = b.add_child(bb, "y", SchemaType::simple_str()).unwrap();
        b.add_child(bb, "w", SchemaType::simple_str()).unwrap();
        b.add_value_link(x, y).unwrap();
        let g2 = b.build().unwrap();
        let mut new_cards = cards.clone();
        new_cards.push(12);
        let new = SchemaStats::from_link_counts(&g2, &new_cards, &links).unwrap();
        let d = SchemaDelta::compute(&g, &old, &g2, &new);
        assert_eq!(d.class, DeltaClass::AdditiveStructural);
        let config = PathConfig::default();
        let old_m = PairMatrices::compute(&old, &config);
        let plan = plan_delta(&d, &g, &old, &g2, &new, &old_m, &config, 1.0).unwrap();
        assert_eq!(plan.grown, 1);
        assert_eq!(plan.touched, 0);
        assert_eq!(plan.rows, 1);
        assert_eq!(
            plan.recompute,
            vec![false, false, false, false, false, true]
        );
        let warm = old_m.splice(&new, &config, &plan.recompute).unwrap();
        let cold = PairMatrices::compute(&new, &config);
        assert!(warm.bitwise_eq(&cold));
    }

    /// A populated tree of 47 elements: the root, six sections and 40
    /// leaves, every link carrying instances. With `dormant`, one leaf is
    /// appended under the first section with no instances on its link.
    fn tree_47(dormant: bool) -> (SchemaGraph, Vec<u64>, Vec<LinkCount>) {
        let mut b = SchemaGraphBuilder::new("db");
        let root = b.root();
        let mut cards = vec![1u64];
        let mut links = Vec::new();
        let mut first_section = root;
        for (i, leaves) in [7u64, 7, 7, 7, 6, 6].into_iter().enumerate() {
            let card = 10 * (i as u64 + 1);
            let sec = b
                .add_child(root, format!("s{i}"), SchemaType::set_of_rcd())
                .unwrap();
            if i == 0 {
                first_section = sec;
            }
            cards.push(card);
            links.push(LinkCount {
                from: root,
                to: sec,
                count: card,
            });
            for j in 0..leaves {
                let leaf = b
                    .add_child(sec, format!("s{i}l{j}"), SchemaType::set_of_rcd())
                    .unwrap();
                cards.push(card * (j + 1));
                links.push(LinkCount {
                    from: sec,
                    to: leaf,
                    count: card * (j + 1),
                });
            }
        }
        if dormant {
            b.add_child(first_section, "w", SchemaType::set_of_rcd())
                .unwrap();
            cards.push(12);
        }
        (b.build().unwrap(), cards, links)
    }

    #[test]
    fn dormant_growth_past_47_elements_recomputes_one_row() {
        // Growth keeps every old row's trace at any schema size, so a
        // dormant element appended to 47 elements costs exactly its own
        // row (DESIGN.md §3.19 says why 47 is the size to check).
        let (g, cards, links) = tree_47(false);
        assert_eq!(g.len(), 47);
        let old = SchemaStats::from_link_counts(&g, &cards, &links).unwrap();
        let (g2, new_cards, new_links) = tree_47(true);
        let new = SchemaStats::from_link_counts(&g2, &new_cards, &new_links).unwrap();
        let d = SchemaDelta::compute(&g, &old, &g2, &new);
        assert_eq!(d.class, DeltaClass::AdditiveStructural);
        let config = PathConfig::default();
        let old_m = PairMatrices::compute(&old, &config);
        let plan = plan_delta(&d, &g, &old, &g2, &new, &old_m, &config, 1.0)
            .expect("dormant growth plans warm");
        let mut only_appended = vec![false; 48];
        only_appended[47] = true;
        assert_eq!(plan.recompute, only_appended);
        assert_eq!(plan.rows, 1);
        let warm = old_m.splice(&new, &config, &plan.recompute).unwrap();
        assert!(warm.bitwise_eq(&PairMatrices::compute(&new, &config)));
    }

    #[test]
    fn link_only_growth_plans_without_resize() {
        // Same element space, one appended value link y → A: class is
        // additive-structural but nothing grows, so the splice keeps its
        // shape and re-explores the link endpoints' readers only.
        let (g, cards, links) = sparse_fixture();
        let old = SchemaStats::from_link_counts(&g, &cards, &links).unwrap();
        let mut b = SchemaGraphBuilder::new("db");
        let a = b
            .add_child(b.root(), "A", SchemaType::set_of_rcd())
            .unwrap();
        let x = b.add_child(a, "x", SchemaType::simple_str()).unwrap();
        let bb = b
            .add_child(b.root(), "B", SchemaType::set_of_rcd())
            .unwrap();
        let y = b.add_child(bb, "y", SchemaType::simple_str()).unwrap();
        b.add_value_link(x, y).unwrap();
        b.add_value_link(y, a).unwrap();
        let g2 = b.build().unwrap();
        let mut new_links = links.clone();
        new_links.push(LinkCount {
            from: y,
            to: a,
            count: 48,
        });
        let new = SchemaStats::from_link_counts(&g2, &cards, &new_links).unwrap();
        let d = SchemaDelta::compute(&g, &old, &g2, &new);
        assert_eq!(d.class, DeltaClass::AdditiveStructural);
        let config = PathConfig::default();
        let old_m = PairMatrices::compute(&old, &config);
        let plan = plan_delta(&d, &g, &old, &g2, &new, &old_m, &config, 1.0).unwrap();
        assert_eq!(plan.grown, 0);
        assert!(plan.rows >= 2); // at least the endpoints' own traces
        let warm = old_m.splice(&new, &config, &plan.recompute).unwrap();
        let cold = PairMatrices::compute(&new, &config);
        assert!(warm.bitwise_eq(&cold));
    }

    #[test]
    fn grown_plan_counts_appended_rows_against_the_fraction_guard() {
        let (g, cards, links) = fixture();
        let old = SchemaStats::from_link_counts(&g, &cards, &links).unwrap();
        let (g2, new_cards, new_links) = grown_fixture();
        let new = SchemaStats::from_link_counts(&g2, &new_cards, &new_links).unwrap();
        let d = SchemaDelta::compute(&g, &old, &g2, &new);
        let config = PathConfig::default();
        let old_m = PairMatrices::compute(&old, &config);
        let plan = plan_delta(&d, &g, &old, &g2, &new, &old_m, &config, 1.0).unwrap();
        let fraction = plan.rows as f64 / g2.len() as f64;
        // A guard just under the actual footprint refuses the plan.
        assert!(
            plan_delta(&d, &g, &old, &g2, &new, &old_m, &config, fraction - 0.05).is_none()
        );
        // Disabled guard accepts.
        assert!(plan_delta(&d, &g, &old, &g2, &new, &old_m, &config, 0.0).is_some());
    }

    #[test]
    fn spliced_plan_matches_cold_bitwise() {
        let (g, cards, links) = fixture();
        let old = SchemaStats::from_link_counts(&g, &cards, &links).unwrap();
        let mut new_cards = cards.clone();
        // Shrinking A pushes RC(A→x) = 3 to 6: its unclamped rc_factor
        // moves, so this delta mixes re-explored rows with rescaled ones.
        new_cards[1] = 5;
        let new = SchemaStats::from_link_counts(&g, &new_cards, &links).unwrap();
        let d = delta_for(&g, &old, &new);
        let config = PathConfig::default();
        let old_m = PairMatrices::compute(&old, &config);
        let plan = plan_delta(&d, &g, &old, &g, &new, &old_m, &config, 1.0).unwrap();
        assert!(plan.rows >= 1);
        assert!(plan.rescaled);
        let warm = old_m.splice(&new, &config, &plan.recompute).unwrap();
        let cold = PairMatrices::compute(&new, &config);
        assert!(warm.bitwise_eq(&cold));
    }
}
