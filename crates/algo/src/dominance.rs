//! Coverage dominance (Theorem 1) and the candidate-pruning heuristic.
//!
//! Element `e1` **dominates** `e2` when any summary containing `e2` (but not
//! `e1`) gets strictly better summary coverage by swapping `e2` for `e1`.
//! Theorem 1 gives a sufficient condition: with `E` the set of elements
//! covered better by `e2` than by `e1`, `C1/C2` the respective coverage
//! sums over `E`, and `e_c` the best coverer of `e1` other than itself,
//!
//! ```text
//! C2 - C1 ≤ Card(e1) - C(e2 → e1)          and, if e_c ≠ e2,
//! C2 - C1 ≤ Card(e1) - C(e_c → e1)
//! ```
//!
//! We evaluate the theorem's conditions exactly from the all-pairs coverage
//! matrix. Following Section 4.3's heuristic, only pairs in an
//! ancestor–descendant relationship are examined (both directions), where
//! value-link referees count as parents (footnote 6). Dominance found this
//! way is sound; pairs the heuristic skips merely leave some dominated
//! elements unpruned.
//!
//! One sweep over a descendant's coverage row scores both directions for
//! up to `LANES` of its ancestors at once (DESIGN.md §3 item 22).

use crate::matrices::PairMatrices;
use schema_summary_core::{ElementId, SchemaGraph, SchemaStats};
use std::collections::HashSet;

/// Ancestor rows compared with one descendant row per sweep. Every lane
/// keeps its own sums, so the width moves speed only, never results.
const LANES: usize = 8;

/// The set of discovered dominance pairs.
#[derive(Debug, Clone)]
pub struct DominanceSet {
    pairs: HashSet<(u32, u32)>,
    dominated: Vec<bool>,
    /// Number of ordered pairs whose Theorem-1 conditions were evaluated
    /// (reported by the dominance-pruning ablation bench).
    pub checked_pairs: usize,
}

impl DominanceSet {
    /// Discover dominance pairs among ancestor–descendant element pairs.
    pub fn compute(graph: &SchemaGraph, stats: &SchemaStats, matrices: &PairMatrices) -> Self {
        let n = graph.len();
        assert_eq!(matrices.len(), n, "matrices of another schema");
        let best_coverer = best_coverers(matrices);
        let mut pairs = HashSet::new();
        let mut dominated = vec![false; n];
        let mut checked = 0usize;
        let mut walk = AncestorWalk::new(n);
        for desc in graph.element_ids() {
            let ancestors = walk.ancestors(graph, desc);
            // Both orders of every visited pair count, including a pair
            // visited again from its other end through a value-link cycle.
            checked += 2 * ancestors.len();
            let desc_row = matrices.coverage_row(desc);
            for chunk in ancestors.chunks(LANES) {
                // A short chunk pads with the descendant's own row, whose
                // lanes never count an element; their sums are discarded.
                let rows = std::array::from_fn(|l| {
                    chunk
                        .get(l)
                        .map_or(desc_row, |&anc| matrices.coverage_row(anc))
                });
                let (anc_over_desc, desc_over_anc) = sweep(desc_row, &rows);
                for (l, &anc) in chunk.iter().enumerate() {
                    for (e1, e2, diff) in
                        [(anc, desc, anc_over_desc[l]), (desc, anc, desc_over_anc[l])]
                    {
                        if theorem1_holds(e1, e2, diff, stats, matrices, &best_coverer) {
                            pairs.insert((e1.0, e2.0));
                            dominated[e2.index()] = true;
                        }
                    }
                }
            }
        }
        DominanceSet {
            pairs,
            dominated,
            checked_pairs: checked,
        }
    }

    /// Whether `a` dominates `b`.
    #[inline]
    pub fn dominates(&self, a: ElementId, b: ElementId) -> bool {
        self.pairs.contains(&(a.0, b.0))
    }

    /// Whether any element dominates `e`.
    #[inline]
    pub fn is_dominated(&self, e: ElementId) -> bool {
        self.dominated[e.index()]
    }

    /// Non-root elements not dominated by anyone — `MaxCoverage`'s pruned
    /// candidate set `CS`.
    pub fn non_dominated(&self, graph: &SchemaGraph) -> Vec<ElementId> {
        graph
            .element_ids()
            .filter(|&e| e != graph.root() && !self.is_dominated(e))
            .collect()
    }

    /// All discovered `(dominator, dominated)` pairs.
    pub fn pairs(&self) -> impl Iterator<Item = (ElementId, ElementId)> + '_ {
        self.pairs
            .iter()
            .map(|&(a, b)| (ElementId(a), ElementId(b)))
    }

    /// Number of discovered pairs.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// Whether no dominance was discovered.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// For every element `t`, its best coverer other than itself:
/// `e_c = argmax_{s ≠ t} C(s → t)`, the first strict maximum in source
/// order. Sources are the outer loop, so the matrix is read row by row,
/// and each target still sees them in ascending order.
fn best_coverers(matrices: &PairMatrices) -> Vec<Option<(ElementId, f64)>> {
    let mut best: Vec<Option<(ElementId, f64)>> = vec![None; matrices.len()];
    for s in 0..matrices.len() {
        let src = ElementId(s as u32);
        for (t, (slot, &c)) in best.iter_mut().zip(matrices.coverage_row(src)).enumerate() {
            if t != s && slot.is_none_or(|(_, bc)| c > bc) {
                *slot = Some((src, c));
            }
        }
    }
    best
}

/// Theorem 1's `C2 − C1` for the pairs of one descendant with up to
/// [`LANES`] ancestors, in both directions, from a single pass over the
/// rows. With `a = C(anc → e)` and `d = C(desc → e)`, element `e` is in
/// `E` for "anc dominates desc" when `d > a` (adding `a` to `C1` and `d`
/// to `C2`), and for "desc dominates anc" when `a > d` (adding `d` and
/// `a`); on a tie, or with a NaN, it is in neither. Terms outside `E` add
/// `+0.0`, which leaves every sum bit for bit as a branch would: a sum
/// that starts at `+0.0` never becomes `−0.0`, and `x + 0.0 == x` for
/// every other `x`. Each lane gets its terms in element-id order.
///
/// Returns `(anc_over_desc, desc_over_anc)`, indexed by lane.
fn sweep(desc_row: &[f64], anc_rows: &[&[f64]; LANES]) -> ([f64; LANES], [f64; LANES]) {
    // Rows of one known length let the compiler drop the bounds checks
    // inside the loop and keep the lanes in vector registers.
    let n = desc_row.len();
    let anc_rows: [&[f64]; LANES] = std::array::from_fn(|l| &anc_rows[l][..n]);
    // C1 and C2 of "anc dominates desc" (down) and "desc dominates anc" (up).
    let (mut down1, mut down2) = ([0.0; LANES], [0.0; LANES]);
    let (mut up1, mut up2) = ([0.0; LANES], [0.0; LANES]);
    for (e, &d) in desc_row.iter().enumerate() {
        for l in 0..LANES {
            let a = anc_rows[l][e];
            down1[l] += if d > a { a } else { 0.0 };
            down2[l] += if d > a { d } else { 0.0 };
            up1[l] += if a > d { d } else { 0.0 };
            up2[l] += if a > d { a } else { 0.0 };
        }
    }
    (
        std::array::from_fn(|l| down2[l] - down1[l]),
        std::array::from_fn(|l| up2[l] - up1[l]),
    )
}

/// Theorem 1's two bounds for "`e1` dominates `e2`", given `diff = C2 − C1`.
fn theorem1_holds(
    e1: ElementId,
    e2: ElementId,
    diff: f64,
    stats: &SchemaStats,
    matrices: &PairMatrices,
    best_coverer: &[Option<(ElementId, f64)>],
) -> bool {
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

/// The upward walk from an element to its "ancestors" per footnote 6:
/// every element reachable by repeatedly moving to the structural parent
/// or to a value-link referee, excluding the start. One walker serves a
/// whole [`DominanceSet::compute`], reusing its buffers across elements.
struct AncestorWalk {
    /// `seen[e] == walks` when `e` was reached by the current walk.
    seen: Vec<u32>,
    walks: u32,
    stack: Vec<ElementId>,
    out: Vec<ElementId>,
}

impl AncestorWalk {
    fn new(n: usize) -> Self {
        AncestorWalk {
            seen: vec![0; n],
            walks: 0,
            stack: Vec::new(),
            out: Vec::new(),
        }
    }

    /// `e`'s extended ancestors, in depth-first order.
    fn ancestors(&mut self, graph: &SchemaGraph, e: ElementId) -> &[ElementId] {
        self.walks += 1;
        let walk = self.walks;
        self.out.clear();
        self.seen[e.index()] = walk;
        let push_parents = |of: ElementId, stack: &mut Vec<ElementId>| {
            stack.extend(graph.parent(of));
            stack.extend_from_slice(graph.value_links_from(of));
        };
        push_parents(e, &mut self.stack);
        while let Some(a) = self.stack.pop() {
            if self.seen[a.index()] == walk {
                continue;
            }
            self.seen[a.index()] = walk;
            self.out.push(a);
            push_parents(a, &mut self.stack);
        }
        &self.out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::PathConfig;
    use schema_summary_core::graph::SchemaGraphBuilder;
    use schema_summary_core::stats::LinkCount;
    use schema_summary_core::types::SchemaType;
    use schema_summary_core::SchemaGraph;

    /// The paper's Figure 5 fragment: person -> profile -> {interest*,
    /// education}; interest -> @category. RC(profile→interest) = 4 > 1,
    /// everything else 1.
    fn figure5() -> (SchemaGraph, SchemaStats) {
        let mut b = SchemaGraphBuilder::new("people");
        let person = b
            .add_child(b.root(), "person", SchemaType::set_of_rcd())
            .unwrap();
        let profile = b.add_child(person, "profile", SchemaType::rcd()).unwrap();
        let interest = b
            .add_child(profile, "interest", SchemaType::set_of_rcd())
            .unwrap();
        b.add_child(interest, "@category", SchemaType::simple_idref())
            .unwrap();
        b.add_child(profile, "education", SchemaType::simple_str())
            .unwrap();
        let g = b.build().unwrap();
        let person_e = g.find_unique("person").unwrap();
        let profile_e = g.find_unique("profile").unwrap();
        let interest_e = g.find_unique("interest").unwrap();
        let cat = g.find_unique("@category").unwrap();
        let edu = g.find_unique("education").unwrap();
        let cards = {
            let mut c = vec![0u64; g.len()];
            c[g.root().index()] = 1;
            c[person_e.index()] = 100;
            c[profile_e.index()] = 100;
            c[interest_e.index()] = 400;
            c[cat.index()] = 400;
            c[edu.index()] = 100;
            c
        };
        let links = vec![
            LinkCount {
                from: g.root(),
                to: person_e,
                count: 100,
            },
            LinkCount {
                from: person_e,
                to: profile_e,
                count: 100,
            },
            LinkCount {
                from: profile_e,
                to: interest_e,
                count: 400,
            },
            LinkCount {
                from: interest_e,
                to: cat,
                count: 400,
            },
            LinkCount {
                from: profile_e,
                to: edu,
                count: 100,
            },
        ];
        let s = SchemaStats::from_link_counts(&g, &cards, &links).unwrap();
        (g, s)
    }

    #[test]
    fn interest_dominates_its_category_attribute() {
        let (g, s) = figure5();
        let m = PairMatrices::compute(&s, &PathConfig::default());
        let ds = DominanceSet::compute(&g, &s, &m);
        let interest = g.find_unique("interest").unwrap();
        let cat = g.find_unique("@category").unwrap();
        assert!(ds.dominates(interest, cat), "paper's Section 4.3 example");
        assert!(ds.is_dominated(cat));
        // And never the other way around.
        assert!(!ds.dominates(cat, interest));
    }

    #[test]
    fn pruning_reduces_candidates() {
        let (g, s) = figure5();
        let m = PairMatrices::compute(&s, &PathConfig::default());
        let ds = DominanceSet::compute(&g, &s, &m);
        let cs = ds.non_dominated(&g);
        assert!(cs.len() < g.len() - 1, "no pruning happened");
        assert!(!cs.is_empty());
        assert!(ds.checked_pairs > 0);
    }

    #[test]
    fn extended_ancestors_follow_value_links() {
        // a -> b; c (sibling of a); b ->V c: c is an extended ancestor of b.
        let mut builder = SchemaGraphBuilder::new("r");
        let a = builder
            .add_child(builder.root(), "a", SchemaType::rcd())
            .unwrap();
        let b = builder.add_child(a, "b", SchemaType::rcd()).unwrap();
        let c = builder
            .add_child(builder.root(), "c", SchemaType::rcd())
            .unwrap();
        builder.add_value_link(b, c).unwrap();
        let g = builder.build().unwrap();
        let anc = AncestorWalk::new(g.len()).ancestors(&g, b).to_vec();
        assert!(anc.contains(&a));
        assert!(anc.contains(&c));
        assert!(anc.contains(&g.root()));
        assert!(!anc.contains(&b));
    }

    /// r -> {a, b}; a ->V b, b ->V a: each of a and b is the other's
    /// extended ancestor.
    fn mutual_links() -> (SchemaGraph, ElementId, ElementId) {
        let mut builder = SchemaGraphBuilder::new("r");
        let a = builder
            .add_child(builder.root(), "a", SchemaType::rcd())
            .unwrap();
        let b = builder
            .add_child(builder.root(), "b", SchemaType::rcd())
            .unwrap();
        builder.add_value_link(a, b).unwrap();
        builder.add_value_link(b, a).unwrap();
        (builder.build().unwrap(), a, b)
    }

    #[test]
    fn extended_ancestors_handle_value_cycles() {
        // The upward walk must terminate.
        let (g, a, b) = mutual_links();
        let anc = AncestorWalk::new(g.len()).ancestors(&g, a).to_vec();
        assert!(anc.contains(&b));
        assert!(anc.contains(&g.root()));
    }

    #[test]
    fn checked_pairs_count_both_visits_of_a_mutual_pair() {
        let (g, a, b) = mutual_links();
        let links = [
            (g.root(), a, 100),
            (g.root(), b, 10),
            (a, b, 10),
            (b, a, 10),
        ];
        let links = links.map(|(from, to, count)| LinkCount { from, to, count });
        let s = SchemaStats::from_link_counts(&g, &[1, 100, 10], &links).unwrap();
        let m = PairMatrices::compute(&s, &PathConfig::default());
        let ds = DominanceSet::compute(&g, &s, &m);
        // Visits: (a, r), (a, b), (b, r), (b, a); {a, b} is visited from
        // both ends, and each visit checks both orders.
        assert_eq!(ds.checked_pairs, 8);
        assert_matches_reference(&g, &s, &m);
        let mut pairs: Vec<_> = ds.pairs().collect();
        assert!(pairs.contains(&(a, b)) || pairs.contains(&(b, a)));
        pairs.sort_unstable();
        pairs.dedup();
        assert_eq!(pairs.len(), ds.len(), "a pair was yielded twice");
    }

    /// `C2 − C1` for "`by1`'s element dominates `by2`'s", one branchy
    /// scalar sum over the rows in element order.
    fn scalar_diff(by1: &[f64], by2: &[f64]) -> f64 {
        let (mut c1, mut c2) = (0.0, 0.0);
        for (&p, &q) in by1.iter().zip(by2) {
            if q > p {
                c1 += p;
                c2 += q;
            }
        }
        c2 - c1
    }

    /// Theorem 1 evaluated one ordered pair at a time, with one scalar sum
    /// per pair and a column-by-column best-coverer scan: the reference
    /// the lane kernel must match bit for bit.
    fn per_pair_reference(
        g: &SchemaGraph,
        s: &SchemaStats,
        m: &PairMatrices,
    ) -> (HashSet<(u32, u32)>, usize) {
        let best: Vec<Option<(ElementId, f64)>> = g
            .element_ids()
            .map(|t| {
                g.element_ids()
                    .filter(|&src| src != t)
                    .fold(None, |best, src| {
                        let c = m.coverage(src, t);
                        if best.is_none_or(|(_, bc)| c > bc) {
                            Some((src, c))
                        } else {
                            best
                        }
                    })
            })
            .collect();
        let mut walk = AncestorWalk::new(g.len());
        let (mut pairs, mut checked) = (HashSet::new(), 0);
        for desc in g.element_ids() {
            for &anc in walk.ancestors(g, desc) {
                for (e1, e2) in [(anc, desc), (desc, anc)] {
                    checked += 1;
                    let diff = scalar_diff(m.coverage_row(e1), m.coverage_row(e2));
                    if theorem1_holds(e1, e2, diff, s, m, &best) {
                        pairs.insert((e1.0, e2.0));
                    }
                }
            }
        }
        (pairs, checked)
    }

    fn assert_matches_reference(g: &SchemaGraph, s: &SchemaStats, m: &PairMatrices) {
        let ds = DominanceSet::compute(g, s, m);
        let (pairs, checked) = per_pair_reference(g, s, m);
        assert_eq!(ds.pairs, pairs);
        assert_eq!(ds.checked_pairs, checked);
        for e in g.element_ids() {
            let dominated = pairs.iter().any(|&(_, d)| d == e.0);
            assert_eq!(ds.is_dominated(e), dominated, "{}", g.label(e));
        }
    }

    /// A comb: the spine r = s0 -> s1 -> ... -> s(2·LANES + 1), with one
    /// leaf under each spine element. Spine element `k` has `k` ancestors
    /// and its leaf `k + 1`, so the sweep runs with every chunk size and
    /// every padding width. Cardinalities cycle through 0, 7, 14 and 21,
    /// so coverage rows tie often, at zero and above.
    fn comb() -> (SchemaGraph, SchemaStats) {
        let mut b = SchemaGraphBuilder::new("s0");
        let mut spine = vec![b.root()];
        for k in 1..=2 * LANES + 1 {
            let s = b
                .add_child(spine[k - 1], format!("s{k}"), SchemaType::set_of_rcd())
                .unwrap();
            spine.push(s);
        }
        for (k, &s) in spine.iter().enumerate() {
            b.add_child(s, format!("t{k}"), SchemaType::set_of_rcd())
                .unwrap();
        }
        let g = b.build().unwrap();
        let mut cards: Vec<u64> = (0..g.len() as u64).map(|i| 7 * (i * 5 % 4)).collect();
        cards[g.root().index()] = 1;
        let links: Vec<LinkCount> = g
            .element_ids()
            .filter_map(|e| {
                let from = g.parent(e)?;
                let count = cards[e.index()].max(cards[from.index()]);
                Some(LinkCount { from, to: e, count })
            })
            .collect();
        let s = SchemaStats::from_link_counts(&g, &cards, &links).unwrap();
        (g, s)
    }

    #[test]
    fn sweep_matches_per_pair_reference_at_every_chunk_size() {
        let (g, s) = comb();
        let mut walk = AncestorWalk::new(g.len());
        let counts: HashSet<usize> = g
            .element_ids()
            .map(|e| walk.ancestors(&g, e).len())
            .collect();
        assert!((0..=2 * LANES + 1).all(|c| counts.contains(&c)));
        for budget in [PathConfig::default().max_expansions, 40, 5] {
            let config = PathConfig {
                max_expansions: budget,
                ..Default::default()
            };
            let m = PairMatrices::compute(&s, &config);
            assert!(!DominanceSet::compute(&g, &s, &m).is_empty());
            assert_matches_reference(&g, &s, &m);
        }
    }

    #[test]
    fn sweep_sums_match_scalar_sums_bit_for_bit() {
        // Rows mixing magnitudes, so the sums round and their order shows
        // in the last bits, with exact ties, zeros and a NaN.
        let values = [0.0, 0.1, 1.0 / 3.0, 7.0, 1e-3, 2.5e5, f64::NAN];
        let mut x = 1u64;
        let mut next = || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as usize
        };
        let rows: Vec<Vec<f64>> = (0..=LANES)
            .map(|_| {
                (0..37)
                    .map(|_| values[next() % values.len()] * (1.0 + (next() % 3) as f64 / 7.0))
                    .collect()
            })
            .collect();
        let desc = &rows[LANES];
        for width in 1..=LANES {
            let lanes = std::array::from_fn(|l| &rows[if l < width { l } else { LANES }][..]);
            let (down, up) = sweep(desc, &lanes);
            for l in 0..width {
                assert_eq!(down[l].to_bits(), scalar_diff(&rows[l], desc).to_bits());
                assert_eq!(up[l].to_bits(), scalar_diff(desc, &rows[l]).to_bits());
            }
            // Padding lanes compare the descendant's row with itself.
            assert!(down[width..].iter().chain(&up[width..]).all(|&s| s == 0.0));
        }
    }

    #[test]
    fn dominance_swap_never_hurts_coverage() {
        // Empirical check of Theorem 1's guarantee on the Figure 5 fixture:
        // replacing a dominated element by its dominator in a singleton
        // summary never lowers summary coverage.
        use crate::assignment::{assign_elements, summary_coverage};
        let (g, s) = figure5();
        let m = PairMatrices::compute(&s, &PathConfig::default());
        let ds = DominanceSet::compute(&g, &s, &m);
        for (dominator, dominated) in ds.pairs() {
            if dominator == g.root() {
                continue;
            }
            let with_dominated = vec![dominated];
            let with_dominator = vec![dominator];
            let a1 = assign_elements(&g, &m, &with_dominated);
            let a2 = assign_elements(&g, &m, &with_dominator);
            let c1 = summary_coverage(&g, &s, &m, &with_dominated, &a1);
            let c2 = summary_coverage(&g, &s, &m, &with_dominator, &a2);
            assert!(
                c2 >= c1 - 1e-9,
                "swapping {} for {} lowered coverage {c1} -> {c2}",
                g.label(dominated),
                g.label(dominator)
            );
        }
    }
}
