//! The three selection algorithms: `MaxImportance` (Figure 4),
//! `MaxCoverage` (Figure 6), and `BalanceSummary` (Figure 7).
//!
//! Each algorithm selects `K` schema elements to become the abstract
//! elements of a summary; [`crate::builder::build_summary`] then materializes
//! the selection into a validated summary.

use crate::assignment::{assign_elements, summary_coverage, Claim, OwnerRule};
use crate::dominance::DominanceSet;
use crate::importance::ImportanceResult;
use crate::matrices::PairMatrices;
use schema_summary_core::{ElementId, SchemaError, SchemaGraph, SchemaStats};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Strategy for `MaxCoverage`'s search over candidate K-subsets.
///
/// The paper's exhaustive `O(C(N', K))` enumeration is intractable at the
/// reported dataset sizes (DESIGN.md §3.3), so greedy marginal-gain
/// selection is the default; exhaustive search remains available for small
/// inputs and is used by tests to confirm the greedy result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum SetSearch {
    /// Enumerate every K-subset of the pruned candidates (errors out when
    /// more than the given number of subsets would be examined).
    Exhaustive {
        /// Upper bound on the number of subsets to evaluate.
        max_sets: u64,
    },
    /// Greedy marginal-gain selection (default).
    #[default]
    Greedy,
    /// Beam search keeping the best `width` partial sets per round.
    Beam {
        /// Number of partial sets retained per round.
        width: usize,
    },
}

/// `MaxImportance` (Figure 4): the `K` elements with the highest importance
/// scores (root excluded; it is always kept).
pub fn max_importance(
    graph: &SchemaGraph,
    importance: &ImportanceResult,
    k: usize,
) -> Result<Vec<ElementId>, SchemaError> {
    check_k(graph, k)?;
    Ok(importance.top_k(graph, k))
}

/// `MaxCoverage` (Figure 6): prune dominated candidates, then search for the
/// K-subset with the highest summary coverage (Definition 4).
///
/// If fewer than `K` non-dominated candidates remain, dominated elements are
/// re-admitted in descending self-coverage (cardinality) order — the paper
/// leaves this case unspecified; re-admission keeps large requested sizes
/// (e.g. the Figure 8 sweep) well-defined.
pub fn max_coverage(
    graph: &SchemaGraph,
    stats: &SchemaStats,
    matrices: &PairMatrices,
    dominance: &DominanceSet,
    k: usize,
    search: SetSearch,
) -> Result<Vec<ElementId>, SchemaError> {
    check_k(graph, k)?;
    let mut candidates = dominance.non_dominated(graph);
    if candidates.len() < k {
        let mut rest: Vec<ElementId> = graph
            .element_ids()
            .filter(|&e| e != graph.root() && dominance.is_dominated(e))
            .collect();
        rest.sort_by(|&a, &b| {
            stats
                .card(b)
                .partial_cmp(&stats.card(a))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        candidates.extend(rest.into_iter().take(k - candidates.len()));
    }

    let eval = |set: &[ElementId]| {
        let assignment = assign_elements(graph, matrices, set);
        summary_coverage(graph, stats, matrices, set, &assignment)
    };

    match search {
        SetSearch::Greedy => Ok(greedy(graph, stats, matrices, &candidates, k)),
        SetSearch::Beam { width } => Ok(beam(&candidates, k, width.max(1), eval)),
        SetSearch::Exhaustive { max_sets } => exhaustive(&candidates, k, max_sets, eval),
    }
}

/// Greedy marginal-gain selection: each round adds the candidate whose
/// addition scores the highest summary coverage, the earliest in
/// `remaining` on ties.
///
/// A score equals `summary_coverage` over `assign_elements` of the
/// selection plus the candidate, bit for bit, without building either
/// (DESIGN.md §3 item 21). Between rounds every element keeps its owner
/// under the selection `S`. A candidate `c`, selected last, takes an
/// element either by beating its affinity owner under [`OwnerRule`], or,
/// when neither `S` nor `c` has positive affinity from it, by being
/// strictly nearer in undirected hops than every element of `S`: the
/// assignment's BFS fallback gives each element its nearest selected
/// element, the earliest selected on ties. One pass over the elements in
/// id order then adds each element's term to every candidate's sum, so
/// each sum gets the terms `summary_coverage` adds, in its order.
fn greedy(
    graph: &SchemaGraph,
    stats: &SchemaStats,
    matrices: &PairMatrices,
    candidates: &[ElementId],
    k: usize,
) -> Vec<ElementId> {
    let n = graph.len();
    let rule = OwnerRule::new(graph, matrices);
    // Hop counts from a source element, computed on first use.
    let mut hops: Vec<Option<Vec<u32>>> = vec![None; n];
    let total = stats.total_card();
    // Per element, under the selection so far: whether it is left out of
    // the assignment (the root and selected elements), its affinity owner's
    // claim, its owner's coverage of it, and its hop count to the nearest
    // selected element.
    let mut excluded = vec![false; n];
    excluded[graph.root().index()] = true;
    let mut claim: Vec<Option<Claim>> = vec![None; n];
    let mut owner_cov = vec![0.0f64; n];
    let mut near_hop = vec![u32::MAX; n];
    // `summary_coverage`'s leading terms: the root's card, then the
    // selected cards in selection order.
    let mut base = stats.card(graph.root());

    let mut selected: Vec<ElementId> = Vec::with_capacity(k);
    let mut remaining: Vec<ElementId> = candidates.to_vec();
    let mut covered: Vec<f64> = Vec::with_capacity(remaining.len());
    while selected.len() < k && !remaining.is_empty() {
        covered.clear();
        covered.extend(remaining.iter().map(|&c| base + stats.card(c)));
        for e in graph.element_ids() {
            let x = e.index();
            if excluded[x] {
                continue;
            }
            let held = claim[x].as_ref();
            for (sum, &c) in covered.iter_mut().zip(&remaining) {
                if c == e {
                    continue;
                }
                *sum += if rule.beats(e, c, held) {
                    matrices.coverage(c, e)
                } else if held.is_some() {
                    owner_cov[x]
                } else {
                    // No affinity owner: `c` takes `e` when strictly nearer
                    // than every selected element, as it always is while
                    // none is. A coverage equal to the owner's bit for bit
                    // adds the same term either way, so the hops are
                    // consulted only when the owner matters.
                    let cov = matrices.coverage(c, e);
                    if cov.to_bits() != owner_cov[x].to_bits()
                        && (selected.is_empty()
                            || hops[x].get_or_insert_with(|| hops_from(graph, e))[c.index()]
                                < near_hop[x])
                    {
                        cov
                    } else {
                        owner_cov[x]
                    }
                };
            }
        }
        let mut best: Option<(usize, f64)> = None;
        for (i, &sum) in covered.iter().enumerate() {
            let score = if total <= 0.0 { 0.0 } else { sum / total };
            if best.is_none_or(|(_, b)| score > b) {
                best = Some((i, score));
            }
        }
        let (i, _) = best.expect("remaining is non-empty");
        let c = remaining.swap_remove(i);
        excluded[c.index()] = true;
        let hop = hops[c.index()].get_or_insert_with(|| hops_from(graph, c));
        for e in graph.element_ids() {
            let x = e.index();
            if excluded[x] {
                continue;
            }
            if rule.beats(e, c, claim[x].as_ref()) {
                claim[x] = Some(rule.claim(e, c));
                owner_cov[x] = matrices.coverage(c, e);
            } else if claim[x].is_none() && hop[x] < near_hop[x] {
                owner_cov[x] = matrices.coverage(c, e);
            }
            near_hop[x] = near_hop[x].min(hop[x]);
        }
        base += stats.card(c);
        selected.push(c);
    }
    selected.sort_unstable();
    selected
}

/// Undirected hop counts over all links from `source` to every element.
/// Every count is finite, since the structural links alone connect the
/// graph.
fn hops_from(graph: &SchemaGraph, source: ElementId) -> Vec<u32> {
    let mut hops = vec![u32::MAX; graph.len()];
    hops[source.index()] = 0;
    let mut queue = VecDeque::from([source]);
    while let Some(u) = queue.pop_front() {
        let next = hops[u.index()] + 1;
        let linked = graph
            .parent(u)
            .into_iter()
            .chain(graph.children(u).iter().copied())
            .chain(graph.value_links_from(u).iter().copied())
            .chain(graph.value_links_to(u).iter().copied());
        for v in linked {
            if hops[v.index()] == u32::MAX {
                hops[v.index()] = next;
                queue.push_back(v);
            }
        }
    }
    hops
}

fn beam(
    candidates: &[ElementId],
    k: usize,
    width: usize,
    eval: impl Fn(&[ElementId]) -> f64,
) -> Vec<ElementId> {
    let mut beams: Vec<(Vec<ElementId>, f64)> = vec![(Vec::new(), 0.0)];
    for _ in 0..k.min(candidates.len()) {
        let mut next: Vec<(Vec<ElementId>, f64)> = Vec::new();
        for (set, _) in &beams {
            for &c in candidates {
                if set.contains(&c) {
                    continue;
                }
                let mut extended = set.clone();
                extended.push(c);
                extended.sort_unstable();
                if next.iter().any(|(s, _)| *s == extended) {
                    continue;
                }
                let score = eval(&extended);
                next.push((extended, score));
            }
        }
        next.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        next.truncate(width);
        if next.is_empty() {
            break;
        }
        beams = next;
    }
    beams.into_iter().next().map(|(s, _)| s).unwrap_or_default()
}

fn exhaustive(
    candidates: &[ElementId],
    k: usize,
    max_sets: u64,
    eval: impl Fn(&[ElementId]) -> f64,
) -> Result<Vec<ElementId>, SchemaError> {
    let n = candidates.len();
    let k = k.min(n);
    if binomial(n as u64, k as u64) > max_sets {
        return Err(SchemaError::Invalid(format!(
            "exhaustive search over C({n},{k}) subsets exceeds the {max_sets}-set budget; \
             use SetSearch::Greedy or SetSearch::Beam"
        )));
    }
    let mut best: Option<(Vec<ElementId>, f64)> = None;
    let mut current: Vec<ElementId> = Vec::with_capacity(k);
    fn rec(
        candidates: &[ElementId],
        start: usize,
        k: usize,
        current: &mut Vec<ElementId>,
        best: &mut Option<(Vec<ElementId>, f64)>,
        eval: &impl Fn(&[ElementId]) -> f64,
    ) {
        if current.len() == k {
            let score = eval(current);
            if best.as_ref().is_none_or(|(_, b)| score > *b) {
                *best = Some((current.clone(), score));
            }
            return;
        }
        let needed = k - current.len();
        for i in start..=candidates.len().saturating_sub(needed) {
            current.push(candidates[i]);
            rec(candidates, i + 1, k, current, best, eval);
            current.pop();
        }
    }
    rec(candidates, 0, k, &mut current, &mut best, &eval);
    Ok(best.map(|(s, _)| s).unwrap_or_default())
}

/// Saturating binomial coefficient used for the exhaustive-search guard.
fn binomial(n: u64, k: u64) -> u64 {
    if k > n {
        return 0;
    }
    let k = k.min(n - k);
    // C(n, i) · (n - i) = C(n, i + 1) · (i + 1), so every step divides
    // exactly, and the product fits a u128 while C(n, i) fits a u64. The
    // steps never decrease (i < k <= n / 2), so once past u64::MAX the
    // result stays there.
    let mut result: u128 = 1;
    for i in 0..k {
        result = result * u128::from(n - i) / u128::from(i + 1);
        if result > u128::from(u64::MAX) {
            return u64::MAX;
        }
    }
    result as u64
}

/// `BalanceSummary` (Figure 7): walk elements in descending importance,
/// skipping any element dominated by an already-selected one, and evicting
/// selected elements dominated by a newcomer (re-admitting the elements
/// whose skipping they caused).
///
/// If the importance-ordered walk exhausts before `K` elements are selected
/// (every remaining element dominated), the highest-importance unselected
/// elements fill the remaining slots — the paper leaves this case
/// unspecified.
pub fn balance_summary(
    graph: &SchemaGraph,
    importance: &ImportanceResult,
    dominance: &DominanceSet,
    k: usize,
) -> Result<Vec<ElementId>, SchemaError> {
    check_k(graph, k)?;
    let ranked = importance.ranked(graph);
    let rank_of = {
        let mut v = vec![usize::MAX; graph.len()];
        for (i, &e) in ranked.iter().enumerate() {
            v[e.index()] = i;
        }
        v
    };

    // Queue ordered by importance rank; re-admitted elements are merged back
    // by rank. A BTreeSet of ranks gives O(log n) pops in rank order.
    let mut queue: std::collections::BTreeSet<usize> = (0..ranked.len()).collect();
    let mut selected: Vec<ElementId> = Vec::with_capacity(k);
    // For each selected element, the elements skipped because it dominated
    // them (Figure 7 line: "add all elements skipped due to e' back to I").
    let mut skipped_due_to: Vec<Vec<usize>> = Vec::new();

    let mut steps = 0usize;
    let step_cap = 50 * graph.len() + 1_000;
    while selected.len() < k && steps < step_cap {
        let Some(&rank) = queue.iter().next() else {
            break;
        };
        queue.remove(&rank);
        steps += 1;
        let e = ranked[rank];

        if let Some(pos) = selected.iter().position(|&s| dominance.dominates(s, e)) {
            skipped_due_to[pos].push(rank);
            continue;
        }
        // Evict selected elements the newcomer dominates, re-admitting
        // everything skipped on their account.
        let mut i = 0;
        while i < selected.len() {
            if dominance.dominates(e, selected[i]) {
                let evicted = selected.remove(i);
                let readmitted = skipped_due_to.remove(i);
                queue.insert(rank_of[evicted.index()]);
                for r in readmitted {
                    queue.insert(r);
                }
            } else {
                i += 1;
            }
        }
        selected.push(e);
        skipped_due_to.push(Vec::new());
    }

    // Fill any shortfall with the best-ranked unselected elements.
    if selected.len() < k {
        for &e in &ranked {
            if selected.len() == k {
                break;
            }
            if !selected.contains(&e) {
                selected.push(e);
            }
        }
    }
    selected.truncate(k);
    selected.sort_unstable();
    Ok(selected)
}

/// Uniform-random selection of `k` non-root elements — the sanity floor
/// baseline for the ablation benches (any informed algorithm must beat
/// it). Deterministic in `seed`; no RNG dependency (xorshift).
pub fn random_select(
    graph: &SchemaGraph,
    k: usize,
    seed: u64,
) -> Result<Vec<ElementId>, SchemaError> {
    check_k(graph, k)?;
    let mut pool: Vec<ElementId> = graph.element_ids().filter(|&e| e != graph.root()).collect();
    // Splitmix-style seed scrambling so nearby seeds diverge.
    let mut state = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(0x1234_5678_9ABC_DEF1);
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    // Partial Fisher-Yates.
    for i in 0..k {
        let j = i + (next() as usize) % (pool.len() - i);
        pool.swap(i, j);
    }
    let mut out = pool[..k].to_vec();
    out.sort_unstable();
    Ok(out)
}

fn check_k(graph: &SchemaGraph, k: usize) -> Result<(), SchemaError> {
    let available = graph.len().saturating_sub(1);
    if k == 0 || k > available {
        return Err(SchemaError::BadSummarySize {
            requested: k,
            available,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::importance::{compute_importance, ImportanceConfig};
    use crate::paths::PathConfig;
    use schema_summary_core::graph::SchemaGraphBuilder;
    use schema_summary_core::stats::LinkCount;
    use schema_summary_core::types::SchemaType;

    /// An auction-flavored fixture where person/auction/item dominate their
    /// attribute children.
    fn fixture() -> (SchemaGraph, SchemaStats) {
        let mut b = SchemaGraphBuilder::new("site");
        let people = b.add_child(b.root(), "people", SchemaType::rcd()).unwrap();
        let person = b
            .add_child(people, "person", SchemaType::set_of_rcd())
            .unwrap();
        b.add_child(person, "name", SchemaType::simple_str())
            .unwrap();
        b.add_child(person, "email", SchemaType::simple_str())
            .unwrap();
        let items = b.add_child(b.root(), "items", SchemaType::rcd()).unwrap();
        let item = b
            .add_child(items, "item", SchemaType::set_of_rcd())
            .unwrap();
        b.add_child(item, "descr", SchemaType::simple_str())
            .unwrap();
        let auctions = b
            .add_child(b.root(), "auctions", SchemaType::rcd())
            .unwrap();
        let auction = b
            .add_child(auctions, "auction", SchemaType::set_of_rcd())
            .unwrap();
        let bidder = b
            .add_child(auction, "bidder", SchemaType::set_of_rcd())
            .unwrap();
        b.add_value_link(bidder, person).unwrap();
        b.add_value_link(auction, item).unwrap();
        let g = b.build().unwrap();
        let find = |l: &str| g.find_unique(l).unwrap();
        let (person, name, email) = (find("person"), find("name"), find("email"));
        let (item, descr) = (find("item"), find("descr"));
        let (auction, bidder) = (find("auction"), find("bidder"));
        let (people, items_e, auctions_e) = (find("people"), find("items"), find("auctions"));
        let mut cards = vec![0u64; g.len()];
        for (e, c) in [
            (g.root(), 1),
            (people, 1),
            (person, 500),
            (name, 500),
            (email, 450),
            (items_e, 1),
            (item, 400),
            (descr, 400),
            (auctions_e, 1),
            (auction, 300),
            (bidder, 1500),
        ] {
            cards[e.index()] = c;
        }
        let links = vec![
            LinkCount {
                from: g.root(),
                to: people,
                count: 1,
            },
            LinkCount {
                from: people,
                to: person,
                count: 500,
            },
            LinkCount {
                from: person,
                to: name,
                count: 500,
            },
            LinkCount {
                from: person,
                to: email,
                count: 450,
            },
            LinkCount {
                from: g.root(),
                to: items_e,
                count: 1,
            },
            LinkCount {
                from: items_e,
                to: item,
                count: 400,
            },
            LinkCount {
                from: item,
                to: descr,
                count: 400,
            },
            LinkCount {
                from: g.root(),
                to: auctions_e,
                count: 1,
            },
            LinkCount {
                from: auctions_e,
                to: auction,
                count: 300,
            },
            LinkCount {
                from: auction,
                to: bidder,
                count: 1500,
            },
            LinkCount {
                from: bidder,
                to: person,
                count: 1500,
            },
            LinkCount {
                from: auction,
                to: item,
                count: 300,
            },
        ];
        let s = SchemaStats::from_link_counts(&g, &cards, &links).unwrap();
        (g, s)
    }

    #[test]
    fn max_importance_picks_heavy_elements() {
        let (g, s) = fixture();
        let imp = compute_importance(&g, &s, &ImportanceConfig::default());
        let top = max_importance(&g, &imp, 3).unwrap();
        let labels: Vec<_> = top.iter().map(|&e| g.label(e)).collect();
        assert!(labels.contains(&"bidder"), "{labels:?}");
        assert!(labels.contains(&"person"), "{labels:?}");
    }

    #[test]
    fn greedy_matches_exhaustive_on_small_input() {
        let (g, s) = fixture();
        let m = PairMatrices::compute(&s, &PathConfig::default());
        let ds = DominanceSet::compute(&g, &s, &m);
        for k in 1..=3 {
            let greedy = max_coverage(&g, &s, &m, &ds, k, SetSearch::Greedy).unwrap();
            let exact = max_coverage(
                &g,
                &s,
                &m,
                &ds,
                k,
                SetSearch::Exhaustive {
                    max_sets: 1_000_000,
                },
            )
            .unwrap();
            let eval = |set: &[ElementId]| {
                let a = assign_elements(&g, &m, set);
                summary_coverage(&g, &s, &m, set, &a)
            };
            assert!(
                eval(&greedy) >= eval(&exact) - 1e-9,
                "k={k}: greedy {greedy:?} < exhaustive {exact:?}"
            );
        }
    }

    #[test]
    fn beam_is_at_least_greedy_quality() {
        let (g, s) = fixture();
        let m = PairMatrices::compute(&s, &PathConfig::default());
        let ds = DominanceSet::compute(&g, &s, &m);
        let eval = |set: &[ElementId]| {
            let a = assign_elements(&g, &m, set);
            summary_coverage(&g, &s, &m, set, &a)
        };
        let greedy = max_coverage(&g, &s, &m, &ds, 3, SetSearch::Greedy).unwrap();
        let beam = max_coverage(&g, &s, &m, &ds, 3, SetSearch::Beam { width: 8 }).unwrap();
        assert!(eval(&beam) >= eval(&greedy) - 1e-9);
    }

    #[test]
    fn exhaustive_guard_rejects_blowup() {
        let (g, s) = fixture();
        let m = PairMatrices::compute(&s, &PathConfig::default());
        let ds = DominanceSet::compute(&g, &s, &m);
        let err = max_coverage(&g, &s, &m, &ds, 2, SetSearch::Exhaustive { max_sets: 0 });
        assert!(err.is_err());
    }

    #[test]
    fn balance_skips_dominated_elements() {
        let (g, s) = fixture();
        let imp = compute_importance(&g, &s, &ImportanceConfig::default());
        let m = PairMatrices::compute(&s, &PathConfig::default());
        let ds = DominanceSet::compute(&g, &s, &m);
        let sel = balance_summary(&g, &imp, &ds, 3).unwrap();
        assert_eq!(sel.len(), 3);
        // No selected element dominates another selected element.
        for &a in &sel {
            for &b in &sel {
                if a != b {
                    assert!(
                        !ds.dominates(a, b),
                        "{} dominates {}",
                        g.label(a),
                        g.label(b)
                    );
                }
            }
        }
    }

    #[test]
    fn balance_produces_requested_size_even_when_walk_exhausts() {
        let (g, s) = fixture();
        let imp = compute_importance(&g, &s, &ImportanceConfig::default());
        let m = PairMatrices::compute(&s, &PathConfig::default());
        let ds = DominanceSet::compute(&g, &s, &m);
        let k = g.len() - 1; // every non-root element
        let sel = balance_summary(&g, &imp, &ds, k).unwrap();
        assert_eq!(sel.len(), k);
    }

    #[test]
    fn size_bounds_are_enforced() {
        let (g, s) = fixture();
        let imp = compute_importance(&g, &s, &ImportanceConfig::default());
        assert!(max_importance(&g, &imp, 0).is_err());
        assert!(max_importance(&g, &imp, g.len()).is_err());
    }

    #[test]
    fn random_select_is_deterministic_and_valid() {
        let (g, _) = fixture();
        let a = random_select(&g, 3, 42).unwrap();
        let b = random_select(&g, 3, 42).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 3);
        assert!(!a.contains(&g.root()));
        let mut d = a.clone();
        d.dedup();
        assert_eq!(d.len(), 3);
        let c = random_select(&g, 3, 43).unwrap();
        // Different seeds usually differ (not guaranteed, but for this
        // fixture they do).
        assert_ne!(a, c);
        assert!(random_select(&g, 0, 1).is_err());
    }

    #[test]
    fn binomial_sanity() {
        assert_eq!(binomial(5, 2), 10);
        assert_eq!(binomial(10, 0), 1);
        assert_eq!(binomial(3, 5), 0);
        assert_eq!(binomial(60, 30), binomial(60, 30));
        assert!(binomial(163, 10) > 1_000_000_000);
        assert_eq!(binomial(64, 32), 1_832_624_140_942_590_534);
        assert_eq!(binomial(200, 100), u64::MAX);
    }

    use crate::assignment::{assign_elements, summary_coverage};
    use schema_summary_core::SchemaGraph;
}
