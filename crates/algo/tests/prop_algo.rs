//! Property-based tests specific to the algorithm crate: invariants of the
//! formulas under controlled perturbations of the statistics.

use proptest::prelude::*;
use schema_summary_algo::assignment::{assign_elements, summary_coverage};
use schema_summary_algo::importance::{compute_importance, compute_importance_rebased};
use schema_summary_algo::paths::SourceResult;
use schema_summary_algo::{
    build_multi_level, max_coverage, plan_delta, refresh_multi_level, Algorithm, DominanceSet,
    Explorer, ImportanceConfig, PairMatrices, PathConfig, PathLength, SetSearch, Summarizer,
};
use schema_summary_core::stats::LinkCount;
use schema_summary_core::{
    DeltaClass, ElementId, SchemaDelta, SchemaGraph, SchemaGraphBuilder, SchemaStats, SchemaType,
};
use std::collections::HashSet;

/// A two-section schema whose link counts are driven by the inputs:
/// root -> {a* -> {x, y*}, b* -> {z*}}, b ->V a.
fn build(
    a_card: u64,
    y_per_a: u64,
    b_card: u64,
    z_per_b: u64,
) -> (SchemaGraph, SchemaStats, [ElementId; 5]) {
    let mut builder = SchemaGraphBuilder::new("root");
    let a = builder
        .add_child(builder.root(), "a", SchemaType::set_of_rcd())
        .unwrap();
    let x = builder.add_child(a, "x", SchemaType::simple_str()).unwrap();
    let y = builder.add_child(a, "y", SchemaType::set_of_rcd()).unwrap();
    let b = builder
        .add_child(builder.root(), "b", SchemaType::set_of_rcd())
        .unwrap();
    let z = builder.add_child(b, "z", SchemaType::set_of_rcd()).unwrap();
    builder.add_value_link(b, a).unwrap();
    let g = builder.build().unwrap();
    let cards = vec![
        1,
        a_card,
        a_card, // x: one per a
        a_card * y_per_a,
        b_card,
        b_card * z_per_b,
    ];
    let links = vec![
        LinkCount {
            from: g.root(),
            to: a,
            count: a_card,
        },
        LinkCount {
            from: a,
            to: x,
            count: a_card,
        },
        LinkCount {
            from: a,
            to: y,
            count: a_card * y_per_a,
        },
        LinkCount {
            from: g.root(),
            to: b,
            count: b_card,
        },
        LinkCount {
            from: b,
            to: z,
            count: b_card * z_per_b,
        },
        LinkCount {
            from: b,
            to: a,
            count: b_card,
        },
    ];
    let s = SchemaStats::from_link_counts(&g, &cards, &links).unwrap();
    (g, s, [a, x, y, b, z])
}

/// A randomized tree-with-value-links schema: one section per entry of
/// `secs` (card, leaf fan-out), leaves under each section, plus value links
/// picked by index pairs (invalid or duplicate picks are skipped). Value
/// links create diamonds and cycles, which is exactly the regime where the
/// path kernel and the enumeration oracle disagree if either is wrong.
fn linked_schema(
    secs: &[(u64, usize)],
    link_picks: &[(usize, usize)],
) -> (SchemaGraph, SchemaStats) {
    let mut builder = SchemaGraphBuilder::new("root");
    let mut all = vec![builder.root()];
    for (i, &(_, fan)) in secs.iter().enumerate() {
        let sec = builder
            .add_child(builder.root(), format!("s{i}"), SchemaType::set_of_rcd())
            .unwrap();
        all.push(sec);
        for j in 0..fan {
            all.push(
                builder
                    .add_child(sec, format!("s{i}f{j}"), SchemaType::set_of_rcd())
                    .unwrap(),
            );
        }
    }
    let mut value_links = Vec::new();
    for &(f, t) in link_picks {
        let from = all[f % all.len()];
        let to = all[t % all.len()];
        if from != to && builder.add_value_link(from, to).is_ok() {
            value_links.push((from, to));
        }
    }
    let g = builder.build().unwrap();
    // Cardinalities: root 1; section i its given card; each leaf a distinct
    // multiple of its section's card so RCs vary per edge.
    let mut cards = vec![0u64; g.len()];
    cards[g.root().index()] = 1;
    let mut links = Vec::new();
    let mut cursor = 1;
    for &(card, fan) in secs {
        let sec = all[cursor];
        cursor += 1;
        cards[sec.index()] = card;
        links.push(LinkCount {
            from: g.root(),
            to: sec,
            count: card,
        });
        for j in 0..fan {
            let leaf = all[cursor];
            cursor += 1;
            let leaf_card = card * (j as u64 + 1);
            cards[leaf.index()] = leaf_card;
            links.push(LinkCount {
                from: sec,
                to: leaf,
                count: leaf_card,
            });
        }
    }
    for (from, to) in value_links {
        let count = cards[from.index()].min(cards[to.index()]);
        links.push(LinkCount { from, to, count });
    }
    let s = SchemaStats::from_link_counts(&g, &cards, &links).unwrap();
    (g, s)
}

/// [`linked_schema`] extended identity-prefix style: the same sections,
/// leaves, and value links are declared first (so old element ids, old link
/// lists, and old cardinalities are exactly the ungrown declaration's), then
/// growth appends — extra leaves on existing sections, an optional extra
/// section with its own leaves, and extra value links that may touch both
/// old and new elements. Returns the raw (graph, cards, link counts) so
/// callers can drive both `from_link_counts` and `grow_from`.
fn grown_linked_schema(
    secs: &[(u64, usize)],
    link_picks: &[(usize, usize)],
    extra_leaves: &[(usize, u64)],
    extra_section: Option<(u64, usize)>,
    extra_picks: &[(usize, usize)],
) -> (SchemaGraph, Vec<u64>, Vec<LinkCount>) {
    let mut builder = SchemaGraphBuilder::new("root");
    let mut all = vec![builder.root()];
    let mut sec_ids = Vec::new();
    for (i, &(_, fan)) in secs.iter().enumerate() {
        let sec = builder
            .add_child(builder.root(), format!("s{i}"), SchemaType::set_of_rcd())
            .unwrap();
        sec_ids.push(sec);
        all.push(sec);
        for j in 0..fan {
            all.push(
                builder
                    .add_child(sec, format!("s{i}f{j}"), SchemaType::set_of_rcd())
                    .unwrap(),
            );
        }
    }
    let n_old_all = all.len();
    // Old value links first, resolved over the old id space in the original
    // pick order, so every old element's link list is a prefix of its grown
    // one.
    let mut value_links = Vec::new();
    for &(f, t) in link_picks {
        let from = all[f % n_old_all];
        let to = all[t % n_old_all];
        if from != to && builder.add_value_link(from, to).is_ok() {
            value_links.push((from, to));
        }
    }
    // Growth: appended leaves on existing sections, then an appended
    // section, then the new value links (which may land on new elements).
    let mut extra_elems: Vec<(ElementId, u64)> = Vec::new();
    for (k, &(pick, card)) in extra_leaves.iter().enumerate() {
        let sec = sec_ids[pick % sec_ids.len()];
        let id = builder
            .add_child(sec, format!("g{k}"), SchemaType::set_of_rcd())
            .unwrap();
        all.push(id);
        extra_elems.push((id, card));
    }
    if let Some((card, fan)) = extra_section {
        let sec = builder
            .add_child(builder.root(), "gsec", SchemaType::set_of_rcd())
            .unwrap();
        all.push(sec);
        extra_elems.push((sec, card));
        for j in 0..fan {
            let id = builder
                .add_child(sec, format!("gsecf{j}"), SchemaType::set_of_rcd())
                .unwrap();
            all.push(id);
            extra_elems.push((id, card * (j as u64 + 1)));
        }
    }
    for &(f, t) in extra_picks {
        let from = all[f % all.len()];
        let to = all[t % all.len()];
        if from != to && builder.add_value_link(from, to).is_ok() {
            value_links.push((from, to));
        }
    }
    let g = builder.build().unwrap();
    let mut cards = vec![0u64; g.len()];
    cards[g.root().index()] = 1;
    let mut links = Vec::new();
    let mut cursor = 1;
    for &(card, fan) in secs {
        let sec = all[cursor];
        cursor += 1;
        cards[sec.index()] = card;
        links.push(LinkCount {
            from: g.root(),
            to: sec,
            count: card,
        });
        for j in 0..fan {
            let leaf = all[cursor];
            cursor += 1;
            let leaf_card = card * (j as u64 + 1);
            cards[leaf.index()] = leaf_card;
            links.push(LinkCount {
                from: sec,
                to: leaf,
                count: leaf_card,
            });
        }
    }
    for (id, card) in extra_elems {
        cards[id.index()] = card;
        links.push(LinkCount {
            from: g.parent(id).expect("growth elements are never the root"),
            to: id,
            count: card,
        });
    }
    for (from, to) in value_links {
        let count = cards[from.index()].min(cards[to.index()]);
        links.push(LinkCount { from, to, count });
    }
    (g, cards, links)
}

/// Formulas 2 and 3 by brute force: enumerate every simple path of at most
/// `max_edges` traversable (`rc > 0`) edges from `source`, and keep each
/// target's largest affinity (product over the length denominator) and
/// coverage product. No pruning of any kind. The products multiply in the
/// kernel's order, so agreement is expected bit for bit.
fn dfs_oracle(stats: &SchemaStats, source: ElementId, config: &PathConfig) -> (Vec<f64>, Vec<f64>) {
    let n = stats.len();
    let mut oracle = DfsOracle {
        stats,
        config,
        on_path: vec![false; n],
        aff: vec![0.0; n],
        cov: vec![0.0; n],
    };
    oracle.on_path[source.index()] = true;
    oracle.aff[source.index()] = 1.0;
    oracle.cov[source.index()] = 1.0;
    oracle.extend(source, 1.0, 1.0, 0);
    (oracle.aff, oracle.cov)
}

/// The state of [`dfs_oracle`]'s recursion: the elements on the current
/// path and the best values recorded so far.
struct DfsOracle<'a> {
    stats: &'a SchemaStats,
    config: &'a PathConfig,
    on_path: Vec<bool>,
    aff: Vec<f64>,
    cov: Vec<f64>,
}

impl DfsOracle<'_> {
    /// Extend a path of `edges` edges ending at `u`, whose affinity and
    /// coverage products are `a` and `c`, by every edge that keeps it
    /// simple.
    fn extend(&mut self, u: ElementId, a: f64, c: f64, edges: usize) {
        if edges == self.config.max_edges {
            return;
        }
        let (scale, denom) = match self.config.path_length {
            PathLength::Edges => (1.0, (edges + 1) as f64),
            PathLength::Nodes => (0.5, (edges + 2) as f64),
        };
        let stats = self.stats;
        for e in stats.edges(u) {
            let v = e.neighbor.index();
            if e.rc <= 0.0 || self.on_path[v] {
                continue;
            }
            let na = a * e.rc_factor;
            let nc = c * (scale * e.rc_factor) * e.w_back;
            self.aff[v] = self.aff[v].max(na / denom);
            self.cov[v] = self.cov[v].max(nc);
            self.on_path[v] = true;
            self.extend(e.neighbor, na, nc, edges + 1);
            self.on_path[v] = false;
        }
    }
}

/// Greedy `MaxCoverage` scored from scratch: every candidate of every
/// round gets a full `assign_elements` + `summary_coverage` of the
/// selection plus the candidate, and the best is taken out of `remaining`
/// by `swap_remove`. The candidates are `max_coverage`'s: the
/// non-dominated elements, topped up with dominated ones by descending
/// cardinality when fewer than `k` remain. The shipped greedy, which keeps
/// owners across rounds, must return exactly this selection.
fn greedy_coverage_oracle(
    g: &SchemaGraph,
    s: &SchemaStats,
    m: &PairMatrices,
    ds: &DominanceSet,
    k: usize,
) -> Vec<ElementId> {
    let mut remaining = ds.non_dominated(g);
    if remaining.len() < k {
        let mut rest: Vec<ElementId> = g
            .element_ids()
            .filter(|&e| e != g.root() && ds.is_dominated(e))
            .collect();
        rest.sort_by(|&a, &b| {
            s.card(b)
                .partial_cmp(&s.card(a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        let missing = k - remaining.len();
        remaining.extend(rest.into_iter().take(missing));
    }
    let mut selected: Vec<ElementId> = Vec::with_capacity(k);
    while selected.len() < k && !remaining.is_empty() {
        let mut best: Option<(usize, f64)> = None;
        for (i, &c) in remaining.iter().enumerate() {
            selected.push(c);
            let score = summary_coverage(g, s, m, &selected, &assign_elements(g, m, &selected));
            selected.pop();
            if best.is_none_or(|(_, b)| score > b) {
                best = Some((i, score));
            }
        }
        let (i, _) = best.expect("remaining is non-empty");
        selected.push(remaining.swap_remove(i));
    }
    selected.sort_unstable();
    selected
}

/// Asserts that greedy `max_coverage` returns the oracle's selection, with
/// bit-identical summary coverage, at every summary size 1..n-1. Returns
/// how many of those sizes re-admitted dominated candidates.
fn assert_greedy_matches_oracle(g: &SchemaGraph, s: &SchemaStats, config: &PathConfig) -> usize {
    let m = PairMatrices::compute(s, config);
    let ds = DominanceSet::compute(g, s, &m);
    let non_dominated = ds.non_dominated(g).len();
    for k in 1..g.len() {
        let fast = max_coverage(g, s, &m, &ds, k, SetSearch::Greedy).unwrap();
        let oracle = greedy_coverage_oracle(g, s, &m, &ds, k);
        assert_eq!(fast, oracle, "k={k}");
        let cov = |sel: &[ElementId]| summary_coverage(g, s, &m, sel, &assign_elements(g, &m, sel));
        assert_eq!(cov(&fast).to_bits(), cov(&oracle).to_bits(), "k={k}");
    }
    g.len() - 1 - non_dominated
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Importance is approximately scale-equivariant for non-root elements:
    /// multiplying the data volume by a constant multiplies their scores by
    /// it (the paper's footnote 8 relies on this to justify its choice of
    /// scale factors). The root is excluded — its cardinality is pinned at
    /// 1 while everything around it scales, so its share genuinely shrinks.
    #[test]
    fn importance_is_scale_equivariant(
        a in 2u64..50, y in 1u64..8, b in 2u64..50, z in 1u64..8, m in 2u64..5,
    ) {
        let (g1, s1, _) = build(a, y, b, z);
        let (_, s2, _) = build(a * m, y, b * m, z);
        let r1 = compute_importance(&g1, &s1, &ImportanceConfig::default());
        let r2 = compute_importance(&g1, &s2, &ImportanceConfig::default());
        for e in g1.element_ids() {
            if e == g1.root() {
                continue;
            }
            let lhs = r2.score(e);
            let rhs = r1.score(e) * m as f64;
            prop_assert!(
                (lhs - rhs).abs() <= rhs.abs().max(1.0) * 0.05,
                "{e}: {lhs} vs {rhs}"
            );
        }
    }

    /// Scale invariance extends to the selection itself: the summary of the
    /// scaled database equals the summary of the original (footnote 8).
    #[test]
    fn selection_is_scale_invariant(
        a in 2u64..50, y in 1u64..8, b in 2u64..50, z in 1u64..8, m in 2u64..6,
    ) {
        let (g, s1, _) = build(a, y, b, z);
        let (_, s2, _) = build(a * m, y, b * m, z);
        let mut sum1 = Summarizer::new(&g, &s1);
        let mut sum2 = Summarizer::new(&g, &s2);
        for k in 1..=2 {
            prop_assert_eq!(
                sum1.select(k, Algorithm::Balance).unwrap(),
                sum2.select(k, Algorithm::Balance).unwrap()
            );
        }
    }

    /// Raising RC(parent → child) never increases the child's affinity to
    /// the parent's *other* children beyond 1, and the parent-to-child
    /// affinity is monotonically non-increasing in RC.
    #[test]
    fn affinity_monotone_in_rc(a in 2u64..60, y1 in 1u64..10, y2 in 1u64..10) {
        prop_assume!(y1 < y2);
        let (_g, s1, ids) = build(a, y1, 10, 1);
        let (_, s2, _) = build(a, y2, 10, 1);
        let m1 = PairMatrices::compute(&s1, &PathConfig::default());
        let m2 = PairMatrices::compute(&s2, &PathConfig::default());
        let [a_el, _, y_el, _, _] = ids;
        // More y's per a → each y is "further" from a.
        prop_assert!(m2.affinity(a_el, y_el) <= m1.affinity(a_el, y_el) + 1e-12);
        // The child's affinity toward its parent is unaffected (RC(y→a)=1).
        prop_assert!((m2.affinity(y_el, a_el) - m1.affinity(y_el, a_el)).abs() < 1e-12);
    }

    /// The Nodes path-length convention never yields a higher affinity than
    /// Edges (its denominator is one larger on every path).
    #[test]
    fn nodes_convention_is_dominated(a in 2u64..40, y in 1u64..8, b in 2u64..40, z in 1u64..8) {
        let (g, s, _) = build(a, y, b, z);
        let edges = PairMatrices::compute(&s, &PathConfig::default());
        let nodes = PairMatrices::compute(
            &s,
            &PathConfig { path_length: PathLength::Nodes, ..Default::default() },
        );
        for x in g.element_ids() {
            for t in g.element_ids() {
                if x != t {
                    prop_assert!(nodes.affinity(x, t) <= edges.affinity(x, t) + 1e-12);
                }
            }
        }
    }

    /// Dominance is irreflexive and the dominated set matches the pair set.
    #[test]
    fn dominance_is_consistent(a in 2u64..60, y in 1u64..10, b in 2u64..60, z in 1u64..10) {
        let (g, s, _) = build(a, y, b, z);
        let m = PairMatrices::compute(&s, &PathConfig::default());
        let ds = DominanceSet::compute(&g, &s, &m);
        for e in g.element_ids() {
            prop_assert!(!ds.dominates(e, e), "{e} dominates itself");
        }
        for (x, t) in ds.pairs() {
            prop_assert!(ds.is_dominated(t), "pair ({x},{t}) not in dominated set");
        }
        let kept = ds.non_dominated(&g);
        for &e in &kept {
            prop_assert!(!ds.is_dominated(e));
        }
    }

    /// Work stealing on four threads and the inline pass on one thread
    /// agree bit for bit on randomized value-linked graphs, with and
    /// without a budget that truncates some rows. An explicit thread count
    /// runs the parallel path even on single-core machines and small
    /// schemas.
    #[test]
    fn parallel_matrices_match_serial(
        secs in prop::collection::vec((1u64..40, 1usize..5), 3..6),
        picks in prop::collection::vec((0usize..64, 0usize..64), 1..8),
        budget in 2usize..200,
    ) {
        let (g, s) = linked_schema(&secs, &picks);
        let truncating = PathConfig { max_expansions: budget, ..Default::default() };
        for cfg in [PathConfig::default(), truncating] {
            let par = PairMatrices::compute_with_threads(&s, &cfg, 4);
            let ser = PairMatrices::compute_with_threads(&s, &cfg, 1);
            for x in g.element_ids() {
                for t in g.element_ids() {
                    prop_assert_eq!(par.affinity(x, t).to_bits(), ser.affinity(x, t).to_bits());
                    prop_assert_eq!(par.coverage(x, t).to_bits(), ser.coverage(x, t).to_bits());
                }
            }
            prop_assert_eq!(par.truncated(), ser.truncated());
            prop_assert_eq!(par.expansions(), ser.expansions());
        }
    }

    /// The layered kernel reproduces brute-force simple-path enumeration
    /// bit for bit, under both path-length conventions — the empirical
    /// counterpart of the walks-equal-paths argument (DESIGN.md §3.14).
    /// Zero-cardinality sections put untraversable (`rc = 0`) edges in
    /// the graph.
    #[test]
    fn path_kernel_matches_dfs_oracle(
        secs in prop::collection::vec((0u64..40, 1usize..5), 3..6),
        picks in prop::collection::vec((0usize..64, 0usize..64), 1..8),
    ) {
        let (g, s) = linked_schema(&secs, &picks);
        for path_length in [PathLength::Edges, PathLength::Nodes] {
            let cfg = PathConfig { path_length, ..Default::default() };
            let computed = PairMatrices::compute(&s, &cfg);
            let serial = PairMatrices::compute_with_threads(&s, &cfg, 1);
            // The oracle has no budget; a truncated kernel run is only a
            // lower bound.
            prop_assume!(!computed.truncated());
            for x in g.element_ids() {
                let (aff, cov) = dfs_oracle(&s, x, &cfg);
                for t in g.element_ids() {
                    let want_aff = aff[t.index()].to_bits();
                    let want_cov = (s.card(t) * cov[t.index()]).to_bits();
                    for m in [&computed, &serial] {
                        prop_assert_eq!(m.affinity(x, t).to_bits(), want_aff, "aff {}→{}", x, t);
                        prop_assert_eq!(m.coverage(x, t).to_bits(), want_cov, "cov {}→{}", x, t);
                    }
                }
            }
        }
    }

    /// A warm matrix refresh — `plan_delta` over a cardinality delta, then
    /// `PairMatrices::splice` of the recompute set into the old matrices —
    /// is bit-identical to a cold recompute on the new statistics,
    /// including the truncation flag and expansion counts.
    #[test]
    fn incremental_splice_matches_cold(
        secs in prop::collection::vec((1u64..40, 1usize..5), 3..6),
        picks in prop::collection::vec((0usize..64, 0usize..64), 1..8),
        bump_idx in 0usize..8, bump in 2u64..5,
    ) {
        let (g, old) = linked_schema(&secs, &picks);
        // Perturb one section's cardinality; the graph is unchanged (same
        // labels, fans, and links), which is the warm-eligible regime.
        let mut secs2 = secs.clone();
        let i = bump_idx % secs2.len();
        secs2[i].0 *= bump;
        let (g2, new) = linked_schema(&secs2, &picks);
        prop_assert_eq!(&g, &g2);
        let delta = SchemaDelta::compute(&g, &old, &g2, &new);
        prop_assert!(!delta.is_empty());
        let config = PathConfig::default();
        let old_m = PairMatrices::compute(&old, &config);
        let plan = plan_delta(&delta, &g, &old, &g2, &new, &old_m, &config, 1.0).unwrap();
        // A real delta either re-explores rows or rescales coverage.
        prop_assert!(plan.rows >= 1 || plan.rescaled);
        let warm = old_m.splice(&new, &config, &plan.recompute).unwrap();
        let cold = PairMatrices::compute(&new, &config);
        prop_assert!(warm.bitwise_eq(&cold));
    }

    /// Incrementally refreshing a cached multi-level stack after a delta —
    /// patching only the rows the delta plan marked — yields exactly the
    /// stack a from-scratch `build_multi_level` produces on the new
    /// matrices, whether the patch path fires or falls back.
    #[test]
    fn incremental_multilevel_matches_cold(
        secs in prop::collection::vec((2u64..40, 2usize..5), 3..6),
        picks in prop::collection::vec((0usize..64, 0usize..64), 1..8),
        bump_idx in 0usize..8, bump in 2u64..5,
    ) {
        let (g, old) = linked_schema(&secs, &picks);
        let mut secs2 = secs.clone();
        let i = bump_idx % secs2.len();
        secs2[i].0 *= bump;
        let (_, new) = linked_schema(&secs2, &picks);
        let config = PathConfig::default();
        let delta = SchemaDelta::compute(&g, &old, &g, &new);
        let old_m = PairMatrices::compute(&old, &config);
        let plan = plan_delta(&delta, &g, &old, &g, &new, &old_m, &config, 1.0).unwrap();
        let new_m = old_m.splice(&new, &config, &plan.recompute).unwrap();
        // Rows whose *values* may differ from the cached stack's matrices:
        // under a cardinality rescale every coverage row was rewritten.
        let row_changed = if plan.rescaled {
            vec![true; g.len()]
        } else {
            plan.recompute.clone()
        };
        let old_sel = Summarizer::new(&g, &old).select(4, Algorithm::Balance).unwrap();
        let new_sel = Summarizer::new(&g, &new).select(4, Algorithm::Balance).unwrap();
        let previous = build_multi_level(&g, &old_m, &old_sel, &[2]).unwrap();
        let (warm, _reused) =
            refresh_multi_level(&g, &new_m, &new_sel, &[2], &previous, &row_changed).unwrap();
        let cold = build_multi_level(&g, &new_m, &new_sel, &[2]).unwrap();
        prop_assert_eq!(warm, cold);
    }

    /// Warm refresh across randomized *additive structural* deltas —
    /// element-only, link-only, and mixed growth, depending on which extra
    /// inputs survive generation — is bit-identical to a cold recompute:
    /// the grown plan marks the appended rows plus the readers of every
    /// touched old record, and the resizing splice carries the rest.
    #[test]
    fn structural_growth_splice_matches_cold(
        secs in prop::collection::vec((1u64..40, 1usize..5), 3..6),
        picks in prop::collection::vec((0usize..64, 0usize..64), 1..8),
        extra_leaves in prop::collection::vec((0usize..8, 1u64..30), 0..3),
        extra_sec in (0u64..30, 1usize..4),
        extra_picks in prop::collection::vec((0usize..80, 0usize..80), 0..4),
    ) {
        let (g, old) = linked_schema(&secs, &picks);
        let (g2, cards2, links2) =
            grown_linked_schema(
                &secs,
                &picks,
                &extra_leaves,
                // Card 0 encodes "no extra section" (the shimmed proptest
                // has no Option strategy).
                (extra_sec.0 > 0).then_some(extra_sec),
                &extra_picks,
            );
        let new = SchemaStats::from_link_counts(&g2, &cards2, &links2).unwrap();
        let delta = SchemaDelta::compute(&g, &old, &g2, &new);
        // All growth inputs can degenerate (duplicate/self link picks):
        // skip the no-op draws, everything else must classify additive.
        prop_assume!(!delta.is_empty());
        prop_assert_eq!(delta.class, DeltaClass::AdditiveStructural);
        let config = PathConfig::default();
        let old_m = PairMatrices::compute(&old, &config);
        let plan = plan_delta(&delta, &g, &old, &g2, &new, &old_m, &config, 1.0)
            .expect("additive growth must plan warm");
        prop_assert_eq!(plan.grown, g2.len() - g.len());
        let warm = old_m.splice(&new, &config, &plan.recompute).unwrap();
        let cold = PairMatrices::compute(&new, &config);
        prop_assert!(warm.bitwise_eq(&cold));
    }

    /// Dormant growth — DDL before data. Appended elements whose links
    /// all carry zero counts are invisible to the path kernel, so each
    /// old row replays bit-for-bit over the grown statistics: the plan
    /// recomputes nothing but the appended rows themselves and the
    /// splice is still bit-identical to a cold recompute.
    #[test]
    fn dormant_growth_recomputes_only_appended_rows(
        secs in prop::collection::vec((1u64..40, 1usize..5), 3..6),
        picks in prop::collection::vec((0usize..64, 0usize..64), 1..8),
        extra_leaves in prop::collection::vec((0usize..8, 1u64..30), 1..3),
        extra_sec in (0u64..30, 1usize..4),
    ) {
        let (g, old) = linked_schema(&secs, &picks);
        let (g2, cards2, mut links2) = grown_linked_schema(
            &secs,
            &picks,
            &extra_leaves,
            // Card 0 encodes "no extra section" (the shimmed proptest
            // has no Option strategy).
            (extra_sec.0 > 0).then_some(extra_sec),
            &[],
        );
        let n_old = g.len();
        prop_assert!(g2.len() > n_old);
        // Declare the growth without instances: every link incident to
        // an appended element drops to count 0.
        for l in links2.iter_mut() {
            if l.from.index() >= n_old || l.to.index() >= n_old {
                l.count = 0;
            }
        }
        let new = SchemaStats::from_link_counts(&g2, &cards2, &links2).unwrap();
        let delta = SchemaDelta::compute(&g, &old, &g2, &new);
        prop_assert_eq!(delta.class, DeltaClass::AdditiveStructural);
        let config = PathConfig::default();
        let old_m = PairMatrices::compute(&old, &config);
        let plan = plan_delta(&delta, &g, &old, &g2, &new, &old_m, &config, 1.0)
            .expect("dormant growth must plan warm");
        prop_assert_eq!(plan.grown, g2.len() - n_old);
        prop_assert_eq!(plan.touched, 0);
        prop_assert_eq!(plan.rows, plan.grown);
        let warm = old_m.splice(&new, &config, &plan.recompute).unwrap();
        let cold = PairMatrices::compute(&new, &config);
        prop_assert!(warm.bitwise_eq(&cold));
    }

    /// `SchemaStats::grow_from` appends CSR rows and edge lanes without
    /// rebuilding untouched rows, bit-identical to a from-scratch
    /// `from_link_counts` over the grown declaration.
    #[test]
    fn structural_grow_from_matches_cold_stats(
        secs in prop::collection::vec((1u64..40, 1usize..5), 3..6),
        picks in prop::collection::vec((0usize..64, 0usize..64), 1..8),
        extra_leaves in prop::collection::vec((0usize..8, 1u64..30), 0..3),
        extra_sec in (0u64..30, 1usize..4),
        extra_picks in prop::collection::vec((0usize..80, 0usize..80), 0..4),
    ) {
        let (_, old) = linked_schema(&secs, &picks);
        let (g2, cards2, links2) =
            grown_linked_schema(
                &secs,
                &picks,
                &extra_leaves,
                // Card 0 encodes "no extra section" (the shimmed proptest
                // has no Option strategy).
                (extra_sec.0 > 0).then_some(extra_sec),
                &extra_picks,
            );
        let cold = SchemaStats::from_link_counts(&g2, &cards2, &links2).unwrap();
        let warm = old.grow_from(&g2, &cards2, &links2).unwrap();
        prop_assert_eq!(warm.len(), cold.len());
        prop_assert_eq!(warm.total_card().to_bits(), cold.total_card().to_bits());
        for e in g2.element_ids() {
            prop_assert_eq!(warm.card(e).to_bits(), cold.card(e).to_bits(), "card {}", e);
            prop_assert!(warm.exploration_bits_eq(&cold, e), "exploration bits {}", e);
            prop_assert!(
                warm.edge_rcs(e)
                    .iter()
                    .zip(cold.edge_rcs(e))
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "rc lane {}", e
            );
        }
    }

    /// The reverse direction — dropping the grown elements — classifies
    /// destructive and refuses to plan: the cold fallback is the only path.
    #[test]
    fn destructive_delta_classifies_and_falls_back(
        secs in prop::collection::vec((1u64..40, 1usize..5), 3..6),
        picks in prop::collection::vec((0usize..64, 0usize..64), 1..8),
        extra_leaves in prop::collection::vec((0usize..8, 1u64..30), 1..3),
    ) {
        let (g, base) = linked_schema(&secs, &picks);
        let (g2, cards2, links2) =
            grown_linked_schema(&secs, &picks, &extra_leaves, None, &[]);
        let grown = SchemaStats::from_link_counts(&g2, &cards2, &links2).unwrap();
        let delta = SchemaDelta::compute(&g2, &grown, &g, &base);
        prop_assert_eq!(delta.class, DeltaClass::Destructive);
        let config = PathConfig::default();
        let old_m = PairMatrices::compute(&grown, &config);
        prop_assert!(
            plan_delta(&delta, &g2, &grown, &g, &base, &old_m, &config, 1.0).is_none()
        );
    }

    /// The multi-source batched layered kernel is bit-identical to
    /// single-source exploration at every chunk size — one lane, partial
    /// last chunks (2, 7), a full 64-lane chunk, and all sources at once —
    /// including expansion counts, truncation and read sets, with and
    /// without a budget that evicts lanes to the single-source kernel.
    /// Zero-cardinality sections put untraversable edges in the graph.
    #[test]
    fn batched_layered_matches_single_source(
        secs in prop::collection::vec((0u64..40, 1usize..5), 3..6),
        picks in prop::collection::vec((0usize..64, 0usize..64), 1..8),
        budget in 2usize..200,
    ) {
        let (g, s) = linked_schema(&secs, &picks);
        let sources: Vec<ElementId> = g.element_ids().collect();
        let truncating = PathConfig { max_expansions: budget, ..Default::default() };
        for cfg in [PathConfig::default(), truncating] {
            let mut single = Explorer::new(s.len());
            let want: Vec<SourceResult> =
                sources.iter().map(|&x| single.explore(x, &s, &cfg)).collect();
            for chunk in [1usize, 2, 7, 64, s.len()] {
                let mut batched = Explorer::new(s.len());
                let got: Vec<SourceResult> = sources
                    .chunks(chunk)
                    .flat_map(|c| batched.explore_batch(c, &s, &cfg))
                    .collect();
                prop_assert_eq!(got.len(), want.len());
                for (x, (a, b)) in sources.iter().zip(got.iter().zip(&want)) {
                    prop_assert_eq!(a.truncated, b.truncated, "truncated {} at {}", x, chunk);
                    prop_assert_eq!(a.expansions, b.expansions, "expansions {} at {}", x, chunk);
                    prop_assert_eq!(&a.reads, &b.reads, "reads {} at {}", x, chunk);
                    for t in 0..s.len() {
                        prop_assert_eq!(
                            a.best_affinity[t].to_bits(),
                            b.best_affinity[t].to_bits(),
                            "aff {}→{} at {}", x, t, chunk
                        );
                        prop_assert_eq!(
                            a.best_cov_product[t].to_bits(),
                            b.best_cov_product[t].to_bits(),
                            "cov {}→{} at {}", x, t, chunk
                        );
                    }
                }
            }
        }
    }

    /// The warm path's seeded importance restart obeys its tolerance
    /// contract on randomized statistic perturbations: mass conserved to
    /// rounding, never more iterations than cold, and the seeded stop
    /// lands inside the same stopping-rule resolution band as the cold
    /// stop. Both runs exit when the per-step change drops below ε, which
    /// leaves them a *resolution* (not ε) away from the true fixed point —
    /// so the contract bounds the seeded answer's distance from a tightly
    /// converged reference by the cold answer's own distance, within a
    /// small factor (DESIGN.md §3.19).
    #[test]
    fn seeded_fixpoint_conserves_mass_and_stays_close(
        a in 2u64..50, y in 1u64..8, b in 2u64..50, z in 1u64..8,
        ma in 1u64..6, mb in 1u64..6,
    ) {
        let (g, s_old, _) = build(a, y, b, z);
        // Non-uniform data growth: the two sections scale by different
        // factors, which is exactly the regime where a plain mass rescale
        // of the old vector is a poor seed and the cardinality rebase
        // matters (DESIGN.md §3.19).
        let (_, s_new, _) = build(a * ma, y, b * mb, z);
        let config = ImportanceConfig::default();
        let previous = compute_importance(&g, &s_old, &config);
        let cold = compute_importance(&g, &s_new, &config);
        let seeded = compute_importance_rebased(&g, &s_new, previous.scores(), &s_old, &config);
        prop_assert!(cold.converged && seeded.converged);
        // On tiny fast-mixing graphs an Aitken cycle can overshoot cold by
        // an iteration or two; the restart must never be materially worse.
        prop_assert!(
            seeded.iterations <= cold.iterations + 4,
            "seeded {} vs cold {}", seeded.iterations, cold.iterations
        );
        let mass: f64 = seeded.scores().iter().sum();
        prop_assert!(
            (mass - s_new.total_card()).abs() <= 1e-9 * s_new.total_card(),
            "mass {} vs total {}", mass, s_new.total_card()
        );
        // Tightly converged reference: the best answer the iteration can
        // produce, far inside both runs' stopping balls.
        let tight = compute_importance(
            &g,
            &s_new,
            &ImportanceConfig { epsilon: 1e-10, max_iterations: 2_000_000, ..config },
        );
        prop_assert!(tight.converged);
        let rel_dev = |r: &[f64]| {
            tight
                .scores()
                .iter()
                .zip(r)
                .map(|(t, v)| ((v - t) / t.abs().max(1e-12)).abs())
                .fold(0.0f64, f64::max)
        };
        let cold_dev = rel_dev(cold.scores());
        let seeded_dev = rel_dev(seeded.scores());
        prop_assert!(
            seeded_dev <= 2.0 * cold_dev + 10.0 * config.epsilon,
            "seeded {seeded_dev:e} from fixpoint vs cold {cold_dev:e}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Greedy `MaxCoverage` with maintained owners selects exactly what
    /// per-candidate re-evaluation selects, on randomized value-linked
    /// graphs at every summary size. Section cardinalities are drawn from
    /// a few multiples of 7, so sibling sections often mirror each other:
    /// their candidates then tie in exact arithmetic, and the pick turns on
    /// the last bit of each rounded sum. Zero-cardinality sections give
    /// elements with no positive affinity to anything. A small exploration
    /// budget truncates some matrix rows, so an element can be covered by
    /// a candidate it has no affinity to, and its hop-nearest owner then
    /// moves the score.
    #[test]
    fn greedy_coverage_matches_oracle(
        secs in prop::collection::vec((0u64..4, 1usize..4), 3..7),
        picks in prop::collection::vec((0usize..64, 0usize..64), 1..8),
        budget in 2usize..40,
    ) {
        let secs: Vec<(u64, usize)> = secs.iter().map(|&(c, fan)| (7 * c, fan)).collect();
        let (g, s) = linked_schema(&secs, &picks);
        assert_greedy_matches_oracle(&g, &s, &PathConfig::default());
        let truncated = PathConfig { max_expansions: budget, ..Default::default() };
        assert_greedy_matches_oracle(&g, &s, &truncated);
    }

    /// With every cardinality zero the total is zero, every score is 0,
    /// and the first remaining candidate wins each round: the tie order
    /// alone decides the selection.
    #[test]
    fn greedy_coverage_all_zero_cardinality(
        secs in prop::collection::vec((1u64..40, 1usize..5), 3..6),
        picks in prop::collection::vec((0usize..64, 0usize..64), 1..8),
    ) {
        let (g, _) = linked_schema(&secs, &picks);
        let s = SchemaStats::from_link_counts(&g, &vec![0; g.len()], &[]).unwrap();
        prop_assert_eq!(s.total_card(), 0.0);
        assert_greedy_matches_oracle(&g, &s, &PathConfig::default());
    }
}

/// When fewer non-dominated candidates remain than the summary size, the
/// greedy searches the re-admitted dominated elements too, still in the
/// oracle's order.
#[test]
fn greedy_coverage_readmits_dominated_candidates() {
    let (g, s, _) = build(30, 3, 20, 2);
    let readmitted = assert_greedy_matches_oracle(&g, &s, &PathConfig::default());
    assert!(readmitted > 0, "no element is dominated");
}

/// Two candidates whose covered sums differ in the last bit but whose
/// ratios to the total round to the same value: the greedy compares
/// `covered / total`, so the earlier candidate keeps the pick. Found by
/// `greedy_coverage_matches_oracle` beyond the cases it runs.
#[test]
fn greedy_coverage_ties_on_the_ratio() {
    let secs = [(21, 1), (21, 3), (21, 2), (21, 3), (21, 3), (7, 3)];
    let (g, s) = linked_schema(&secs, &[(40, 54), (6, 50)]);
    assert_greedy_matches_oracle(&g, &s, &PathConfig::default());
}

/// Elements reachable from `e` by repeatedly moving to the structural
/// parent or to a value-link referee (footnote 6), excluding `e` itself.
fn extended_ancestors(graph: &SchemaGraph, e: ElementId) -> Vec<ElementId> {
    let mut out = Vec::new();
    let mut seen = HashSet::new();
    seen.insert(e);
    let mut stack: Vec<ElementId> = Vec::new();
    let push_parents = |of: ElementId, stack: &mut Vec<ElementId>| {
        if let Some(p) = graph.parent(of) {
            stack.push(p);
        }
        for &r in graph.value_links_from(of) {
            stack.push(r);
        }
    };
    push_parents(e, &mut stack);
    while let Some(a) = stack.pop() {
        if !seen.insert(a) {
            continue;
        }
        out.push(a);
        push_parents(a, &mut stack);
    }
    out
}

/// Theorem 1 for the ordered pair "`e1` dominates `e2`", with its own
/// pass over the coverage rows: `E` is the elements covered strictly
/// better by `e2` than by `e1`.
fn theorem1_dominates(
    e1: ElementId,
    e2: ElementId,
    graph: &SchemaGraph,
    stats: &SchemaStats,
    matrices: &PairMatrices,
    best_coverer: &[Option<(ElementId, f64)>],
) -> bool {
    let mut c1 = 0.0;
    let mut c2 = 0.0;
    for e in graph.element_ids() {
        let by2 = matrices.coverage(e2, e);
        let by1 = matrices.coverage(e1, e);
        if by2 > by1 {
            c1 += by1;
            c2 += by2;
        }
    }
    let diff = c2 - c1;
    let card1 = stats.card(e1);
    if diff > card1 - matrices.coverage(e2, e1) {
        return false;
    }
    if let Some((ec, cov_ec)) = best_coverer[e1.index()] {
        if ec != e2 && diff > card1 - cov_ec {
            return false;
        }
    }
    true
}

/// Dominance evaluated one ordered pair at a time: a column-by-column
/// best-coverer scan, then [`theorem1_dominates`] for both orders of every
/// (descendant, extended ancestor) visit. Returns the pairs, the dominated
/// flags and the number of ordered pairs checked.
fn dominance_oracle(
    graph: &SchemaGraph,
    stats: &SchemaStats,
    matrices: &PairMatrices,
) -> (HashSet<(ElementId, ElementId)>, Vec<bool>, usize) {
    let n = graph.len();
    let best_coverer: Vec<Option<(ElementId, f64)>> = (0..n as u32)
        .map(|t| {
            let target = ElementId(t);
            let mut best: Option<(ElementId, f64)> = None;
            for s in 0..n as u32 {
                let src = ElementId(s);
                if src == target {
                    continue;
                }
                let c = matrices.coverage(src, target);
                if best.is_none_or(|(_, bc)| c > bc) {
                    best = Some((src, c));
                }
            }
            best
        })
        .collect();
    let mut pairs = HashSet::new();
    let mut dominated = vec![false; n];
    let mut checked = 0;
    for desc in graph.element_ids() {
        for anc in extended_ancestors(graph, desc) {
            for (e1, e2) in [(anc, desc), (desc, anc)] {
                checked += 1;
                if theorem1_dominates(e1, e2, graph, stats, matrices, &best_coverer) {
                    pairs.insert((e1, e2));
                    dominated[e2.index()] = true;
                }
            }
        }
    }
    (pairs, dominated, checked)
}

/// Asserts that the lane kernel finds exactly the oracle's dominance:
/// the same pairs, dominated flags, pair count and checked pairs.
/// Returns the largest ancestor set seen, so callers can confirm that
/// several sweeps per element ran.
fn assert_dominance_matches_oracle(g: &SchemaGraph, s: &SchemaStats, config: &PathConfig) -> usize {
    let m = PairMatrices::compute(s, config);
    let ds = DominanceSet::compute(g, s, &m);
    let (pairs, dominated, checked) = dominance_oracle(g, s, &m);
    assert_eq!(ds.pairs().collect::<HashSet<_>>(), pairs);
    assert_eq!(ds.len(), pairs.len());
    assert_eq!(ds.checked_pairs, checked);
    for e in g.element_ids() {
        assert_eq!(ds.is_dominated(e), dominated[e.index()], "{}", g.label(e));
    }
    g.element_ids()
        .map(|e| extended_ancestors(g, e).len())
        .max()
        .unwrap_or(0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The lane kernel scores both directions of up to eight ancestor
    /// pairs per sweep; the oracle runs one pass per ordered pair. They
    /// must agree exactly on randomized value-linked graphs. Value-link
    /// cycles make two elements each other's ancestors, so such a pair is
    /// visited from both ends. Section cardinalities are multiples of 7,
    /// so mirrored sections give exact ties `C(anc → e) == C(desc → e)`,
    /// and zero-cardinality sections give many `0 == 0` ties. A small
    /// exploration budget truncates some rows.
    #[test]
    fn dominance_kernel_matches_oracle(
        secs in prop::collection::vec((0u64..4, 1usize..5), 3..9),
        picks in prop::collection::vec((0usize..64, 0usize..64), 1..24),
        budget in 2usize..40,
    ) {
        let secs: Vec<(u64, usize)> = secs.iter().map(|&(c, fan)| (7 * c, fan)).collect();
        let (g, s) = linked_schema(&secs, &picks);
        assert_dominance_matches_oracle(&g, &s, &PathConfig::default());
        let truncated = PathConfig { max_expansions: budget, ..Default::default() };
        assert_dominance_matches_oracle(&g, &s, &truncated);
    }

    /// With every cardinality zero, every coverage entry is +0.0: every
    /// element ties in every pair, no `E` has a member, and the bounds
    /// alone decide.
    #[test]
    fn dominance_kernel_all_zero_cardinality(
        secs in prop::collection::vec((1u64..40, 1usize..5), 3..6),
        picks in prop::collection::vec((0usize..64, 0usize..64), 1..16),
    ) {
        let (g, _) = linked_schema(&secs, &picks);
        let s = SchemaStats::from_link_counts(&g, &vec![0; g.len()], &[]).unwrap();
        assert_dominance_matches_oracle(&g, &s, &PathConfig::default());
    }
}

/// A fixed, densely value-linked case, with cycles, in which some
/// elements have more than `2 · 8` ancestors and so take three sweeps:
/// the kernel must still match the oracle there.
#[test]
fn dominance_kernel_runs_several_sweeps_per_element() {
    let secs = [(7, 4), (14, 4), (0, 3), (21, 4), (7, 2), (14, 4)];
    let picks: Vec<(usize, usize)> = (0..24).map(|i| (3 * i + 2, 5 * i + 7)).collect();
    let (g, s) = linked_schema(&secs, &picks);
    let widest = assert_dominance_matches_oracle(&g, &s, &PathConfig::default());
    assert!(widest > 16, "widest ancestor set {widest}");
}

/// A valid `PairMatrices` encoding of a small randomized schema, computed
/// under a budget so some draws carry truncated rows.
fn encoded_matrices(secs: &[(u64, usize)], picks: &[(usize, usize)], budget: usize) -> Vec<u8> {
    let (_, s) = linked_schema(secs, picks);
    let cfg = PathConfig {
        max_expansions: budget,
        ..Default::default()
    };
    PairMatrices::compute(&s, &cfg).to_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `PairMatrices::from_bytes` parses bytes read back from disk:
    /// arbitrary input must come back `None`, without panicking.
    #[test]
    fn matrices_codec_rejects_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..512),
    ) {
        prop_assert!(PairMatrices::from_bytes(&bytes).is_none());
    }

    /// A header claiming a huge matrix over a short body is rejected from
    /// the length check, before anything is allocated for it.
    #[test]
    fn matrices_codec_rejects_oversized_headers(
        n in 256u64..u64::MAX,
        body in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        let mut bytes = n.to_le_bytes().to_vec();
        bytes.extend_from_slice(&body);
        prop_assert!(PairMatrices::from_bytes(&bytes).is_none());
    }

    /// Every strict prefix of a valid encoding is rejected.
    #[test]
    fn matrices_codec_rejects_every_truncation(
        secs in prop::collection::vec((1u64..40, 1usize..3), 1..3),
        picks in prop::collection::vec((0usize..64, 0usize..64), 0..3),
        budget in 2usize..200,
    ) {
        let bytes = encoded_matrices(&secs, &picks, budget);
        prop_assert!(PairMatrices::from_bytes(&bytes).is_some());
        for len in 0..bytes.len() {
            prop_assert!(PairMatrices::from_bytes(&bytes[..len]).is_none(), "prefix {}", len);
        }
    }

    /// Overwriting any single byte of a valid encoding either gets the
    /// input rejected or decodes to matrices that re-encode to exactly
    /// the mutated bytes: every accepted encoding is canonical.
    #[test]
    fn matrices_codec_single_byte_overwrites_reject_or_roundtrip(
        secs in prop::collection::vec((1u64..40, 1usize..3), 1..3),
        picks in prop::collection::vec((0usize..64, 0usize..64), 0..3),
        budget in 2usize..200,
        flip in 1u8..=255,
    ) {
        let bytes = encoded_matrices(&secs, &picks, budget);
        for pos in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[pos] ^= flip;
            if let Some(m) = PairMatrices::from_bytes(&mutated) {
                prop_assert_eq!(m.to_bytes(), mutated, "overwrite at {}", pos);
            }
        }
    }
}

/// A header claiming `n = 2^31` over a 100-byte body: `n²` cells would
/// need 2^65 bytes per matrix, so the decoder must refuse without trying.
#[test]
fn matrices_codec_rejects_a_2_pow_31_header() {
    let mut bytes = vec![0u8; 100];
    bytes[..8].copy_from_slice(&(1u64 << 31).to_le_bytes());
    assert!(PairMatrices::from_bytes(&bytes).is_none());
}
