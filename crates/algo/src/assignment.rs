//! Grouping elements under summary elements, and summary-level metrics.
//!
//! Once a set of summary elements is selected, "each remaining schema
//! element \[is\] assigned to the summary element toward which it has the
//! highest affinity" (Section 3.2). Summary coverage (Definition 4) then
//! sums each summary element's coverage of the elements it represents,
//! normalized by the total cardinality; summary importance (Definition 3)
//! sums the importance of the summary elements, normalized by the total
//! importance mass.

use crate::matrices::PairMatrices;
use schema_summary_core::{ElementId, SchemaGraph, SchemaStats};
use std::collections::VecDeque;

/// For each element, the index (into `selected`) of the summary element it
/// is assigned to; `None` for the root and for selected elements themselves.
pub type Assignment = Vec<Option<usize>>;

/// Assign every non-root, non-selected element to the selected element
/// toward which it has the highest affinity. Affinity ties — common, since
/// per-edge affinities clamp at 1 — break first toward the *structurally
/// closer* selected element (containment is the user's mental model of
/// where an element "lives"), then toward the selected element with the
/// higher *coverage* of the element (Formula 3), then toward selection
/// order. Elements with zero affinity to every selected element fall back
/// to the nearest selected element by undirected link distance (then
/// selection order) so that the resulting summary always represents every
/// element, as Definition 2 requires.
pub fn assign_elements(
    graph: &SchemaGraph,
    matrices: &PairMatrices,
    selected: &[ElementId],
) -> Assignment {
    let assigner = ElementAssigner::new(graph, matrices, selected);
    graph.element_ids().map(|e| assigner.assign(e)).collect()
}

/// The assignment rule of [`assign_elements`], factored so callers can
/// evaluate single elements. Each element's owner depends only on its own
/// matrix row, the selected elements' rows, and the graph structure — never
/// on other elements' assignments — so evaluating a subset of elements
/// yields exactly the entries a full pass would produce. The incremental
/// re-clustering path (`refresh_multi_level`) leans on this to recompute
/// only the elements a delta touched.
pub struct ElementAssigner<'a> {
    rule: OwnerRule<'a>,
    selected: &'a [ElementId],
    is_selected: Vec<bool>,
    /// Fallback owners: multi-source BFS from the selected set over all
    /// links (structural + value, undirected).
    nearest: Vec<Option<usize>>,
}

impl<'a> ElementAssigner<'a> {
    /// Precompute the shared state (selection bitmap, BFS fallback owners,
    /// structural depths) one full pass needs.
    pub fn new(
        graph: &'a SchemaGraph,
        matrices: &'a PairMatrices,
        selected: &'a [ElementId],
    ) -> Self {
        let n = graph.len();
        let is_selected = {
            let mut v = vec![false; n];
            for &s in selected {
                v[s.index()] = true;
            }
            v
        };

        let mut nearest: Vec<Option<usize>> = vec![None; n];
        let mut queue = VecDeque::new();
        for (idx, &s) in selected.iter().enumerate() {
            nearest[s.index()] = Some(idx);
            queue.push_back(s);
        }
        while let Some(cur) = queue.pop_front() {
            let owner = nearest[cur.index()];
            for (nb, _) in graph.neighbors(cur) {
                if nearest[nb.index()].is_none() {
                    nearest[nb.index()] = owner;
                    queue.push_back(nb);
                }
            }
        }

        ElementAssigner {
            rule: OwnerRule::new(graph, matrices),
            selected,
            is_selected,
            nearest,
        }
    }

    /// The owner of `e`: the entry a full [`assign_elements`] pass would
    /// put at `e`'s index.
    pub fn assign(&self, e: ElementId) -> Option<usize> {
        if e == self.rule.graph.root() || self.is_selected[e.index()] {
            return None;
        }
        let mut best: Option<(usize, Claim)> = None;
        for (idx, &s) in self.selected.iter().enumerate() {
            if self.rule.beats(e, s, best.as_ref().map(|(_, claim)| claim)) {
                best = Some((idx, self.rule.claim(e, s)));
            }
        }
        match best {
            Some((idx, _)) => Some(idx),
            None => self.nearest[e.index()].or(if self.selected.is_empty() {
                None
            } else {
                Some(0)
            }),
        }
    }
}

/// What an affinity owner holds an element by: the element's affinity
/// toward the owner, their structural tree distance, and the owner's
/// coverage of the element.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Claim {
    affinity: f64,
    dist: usize,
    coverage: f64,
}

/// The pairwise comparison behind [`assign_elements`]: whether a selected
/// element takes an element from the owner that earlier-selected elements
/// left it with. Folding it over the selection in order yields the
/// affinity owner; greedy `MaxCoverage` applies it once per candidate to
/// owners it maintains across rounds (DESIGN.md §3 item 21).
pub(crate) struct OwnerRule<'a> {
    graph: &'a SchemaGraph,
    matrices: &'a PairMatrices,
    depth: Vec<usize>,
}

impl<'a> OwnerRule<'a> {
    pub(crate) fn new(graph: &'a SchemaGraph, matrices: &'a PairMatrices) -> Self {
        let depth = graph.element_ids().map(|e| graph.depth(e)).collect();
        OwnerRule {
            graph,
            matrices,
            depth,
        }
    }

    /// Whether `s` takes `e` from the owner holding `incumbent`, an element
    /// selected before `s` (`None`: no earlier-selected element has
    /// positive affinity from `e`). `s` needs positive affinity from `e`,
    /// then wins on higher affinity, then on shorter tree distance, then on
    /// higher coverage; a full tie keeps the earlier-selected owner. The
    /// tree distance is walked only when the affinities tie.
    #[inline]
    pub(crate) fn beats(&self, e: ElementId, s: ElementId, incumbent: Option<&Claim>) -> bool {
        let a = self.matrices.affinity(e, s);
        if a <= 0.0 {
            return false;
        }
        let Some(held) = incumbent else {
            return true;
        };
        a > held.affinity
            || (a == held.affinity && {
                let dist = self.tree_dist(e, s);
                dist < held.dist
                    || (dist == held.dist && self.matrices.coverage(s, e) > held.coverage)
            })
    }

    /// The claim `s` holds `e` by once [`OwnerRule::beats`] has given it `e`.
    pub(crate) fn claim(&self, e: ElementId, s: ElementId) -> Claim {
        Claim {
            affinity: self.matrices.affinity(e, s),
            dist: self.tree_dist(e, s),
            coverage: self.matrices.coverage(s, e),
        }
    }

    fn tree_dist(&self, a: ElementId, b: ElementId) -> usize {
        // Distance in the structural tree via the lowest common ancestor.
        let (mut x, mut y) = (a, b);
        let mut d = 0usize;
        while self.depth[x.index()] > self.depth[y.index()] {
            x = self.graph.parent(x).expect("deeper node has a parent");
            d += 1;
        }
        while self.depth[y.index()] > self.depth[x.index()] {
            y = self.graph.parent(y).expect("deeper node has a parent");
            d += 1;
        }
        while x != y {
            x = self.graph.parent(x).expect("non-root nodes have parents");
            y = self.graph.parent(y).expect("non-root nodes have parents");
            d += 2;
        }
        d
    }
}

/// Summary coverage (Definition 4): the coverage each summary element has of
/// the elements it represents (plus itself), over the total cardinality.
/// The root, always kept as an original element, covers itself.
pub fn summary_coverage(
    graph: &SchemaGraph,
    stats: &SchemaStats,
    matrices: &PairMatrices,
    selected: &[ElementId],
    assignment: &Assignment,
) -> f64 {
    let total = stats.total_card();
    if total <= 0.0 {
        return 0.0;
    }
    let mut covered = stats.card(graph.root());
    for &s in selected {
        covered += stats.card(s); // C(s→s) = Card_s
    }
    for e in graph.element_ids() {
        if let Some(idx) = assignment[e.index()] {
            covered += matrices.coverage(selected[idx], e);
        }
    }
    covered / total
}

/// Summary importance (Definition 3): total importance of the summary
/// elements (the root plus the selected representatives) over the total
/// importance mass.
pub fn summary_importance(
    graph: &SchemaGraph,
    importance: &crate::importance::ImportanceResult,
    selected: &[ElementId],
) -> f64 {
    let total = importance.total();
    if total <= 0.0 {
        return 0.0;
    }
    let mut sum = importance.score(graph.root());
    for &s in selected {
        sum += importance.score(s);
    }
    sum / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::importance::{compute_importance, ImportanceConfig};
    use crate::paths::PathConfig;
    use schema_summary_core::graph::SchemaGraphBuilder;
    use schema_summary_core::stats::LinkCount;
    use schema_summary_core::types::SchemaType;
    use schema_summary_core::SchemaGraph;

    /// site -> {people -> person* -> {name, address},
    ///          auctions -> auction* -> bidder*}; bidder ->V person.
    fn fixture() -> (SchemaGraph, SchemaStats) {
        let mut b = SchemaGraphBuilder::new("site");
        let people = b.add_child(b.root(), "people", SchemaType::rcd()).unwrap();
        let person = b
            .add_child(people, "person", SchemaType::set_of_rcd())
            .unwrap();
        b.add_child(person, "name", SchemaType::simple_str())
            .unwrap();
        b.add_child(person, "address", SchemaType::rcd()).unwrap();
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
        let g = b.build().unwrap();
        let person_e = g.find_unique("person").unwrap();
        let name = g.find_unique("name").unwrap();
        let address = g.find_unique("address").unwrap();
        let auction_e = g.find_unique("auction").unwrap();
        let bidder_e = g.find_unique("bidder").unwrap();
        let people_e = g.find_unique("people").unwrap();
        let auctions_e = g.find_unique("auctions").unwrap();
        let cards = {
            let mut c = vec![0u64; g.len()];
            c[g.root().index()] = 1;
            c[people_e.index()] = 1;
            c[person_e.index()] = 100;
            c[name.index()] = 100;
            c[address.index()] = 100;
            c[auctions_e.index()] = 1;
            c[auction_e.index()] = 50;
            c[bidder_e.index()] = 250;
            c
        };
        let links = vec![
            LinkCount {
                from: g.root(),
                to: people_e,
                count: 1,
            },
            LinkCount {
                from: people_e,
                to: person_e,
                count: 100,
            },
            LinkCount {
                from: person_e,
                to: name,
                count: 100,
            },
            LinkCount {
                from: person_e,
                to: address,
                count: 100,
            },
            LinkCount {
                from: g.root(),
                to: auctions_e,
                count: 1,
            },
            LinkCount {
                from: auctions_e,
                to: auction_e,
                count: 50,
            },
            LinkCount {
                from: auction_e,
                to: bidder_e,
                count: 250,
            },
            LinkCount {
                from: bidder_e,
                to: person_e,
                count: 250,
            },
        ];
        let s = SchemaStats::from_link_counts(&g, &cards, &links).unwrap();
        (g, s)
    }

    #[test]
    fn elements_go_to_highest_affinity_owner() {
        let (g, s) = fixture();
        let m = PairMatrices::compute(&s, &PathConfig::default());
        let person = g.find_unique("person").unwrap();
        let auction = g.find_unique("auction").unwrap();
        let selected = vec![person, auction];
        let a = assign_elements(&g, &m, &selected);
        // name and address belong with person. bidder ties at affinity 1.0
        // toward both person (value link, RC 1 each way) and auction
        // (structural, RC(bidder→auction) = 1); the structural-distance
        // tie-break puts it under its parent auction, matching the paper's
        // Figure 2 where bidder sits inside the open_auction component.
        let name = g.find_unique("name").unwrap();
        let address = g.find_unique("address").unwrap();
        let bidder = g.find_unique("bidder").unwrap();
        assert_eq!(a[name.index()], Some(0));
        assert_eq!(a[address.index()], Some(0));
        assert_eq!(a[bidder.index()], Some(1));
        // Selected elements and root are unassigned.
        assert_eq!(a[person.index()], None);
        assert_eq!(a[g.root().index()], None);
    }

    #[test]
    fn summary_coverage_bounds() {
        let (g, s) = fixture();
        let m = PairMatrices::compute(&s, &PathConfig::default());
        let person = g.find_unique("person").unwrap();
        let auction = g.find_unique("auction").unwrap();
        let selected = vec![person, auction];
        let a = assign_elements(&g, &m, &selected);
        let cov = summary_coverage(&g, &s, &m, &selected, &a);
        assert!(cov > 0.0 && cov <= 1.0, "coverage {cov}");
    }

    // Note: summary coverage is not monotone in the selection in general
    // (an added element can steal members by affinity while covering them
    // worse); on this fixture the supersets happen to cover more, which is
    // the typical case the paper's Figure 8 basin relies on.
    #[test]
    fn typical_supersets_cover_more_on_this_fixture() {
        let (g, s) = fixture();
        let m = PairMatrices::compute(&s, &PathConfig::default());
        let person = g.find_unique("person").unwrap();
        let auction = g.find_unique("auction").unwrap();
        let bidder = g.find_unique("bidder").unwrap();
        let small = vec![person];
        let a_small = assign_elements(&g, &m, &small);
        let large = vec![person, auction, bidder];
        let a_large = assign_elements(&g, &m, &large);
        let c_small = summary_coverage(&g, &s, &m, &small, &a_small);
        let c_large = summary_coverage(&g, &s, &m, &large, &a_large);
        assert!(c_large >= c_small);
    }

    #[test]
    fn full_selection_reaches_total_coverage() {
        let (g, s) = fixture();
        let m = PairMatrices::compute(&s, &PathConfig::default());
        let selected: Vec<_> = g.element_ids().filter(|&e| e != g.root()).collect();
        let a = assign_elements(&g, &m, &selected);
        let cov = summary_coverage(&g, &s, &m, &selected, &a);
        assert!((cov - 1.0).abs() < 1e-9);
    }

    #[test]
    fn summary_importance_definition3() {
        let (g, s) = fixture();
        let imp = compute_importance(&g, &s, &ImportanceConfig::default());
        let person = g.find_unique("person").unwrap();
        let r1 = summary_importance(&g, &imp, &[person]);
        assert!(r1 > 0.0 && r1 < 1.0);
        let all: Vec<_> = g.element_ids().filter(|&e| e != g.root()).collect();
        let rall = summary_importance(&g, &imp, &all);
        assert!((rall - 1.0).abs() < 1e-9);
        // Monotone in the selected set.
        let auction = g.find_unique("auction").unwrap();
        let r2 = summary_importance(&g, &imp, &[person, auction]);
        assert!(r2 > r1);
    }

    #[test]
    fn unreachable_elements_fall_back_to_nearest() {
        // Disconnected-ish: element with zero cardinality has zero RC edges,
        // hence zero affinity everywhere; fallback must still assign it.
        let mut b = SchemaGraphBuilder::new("r");
        let a = b
            .add_child(b.root(), "a", SchemaType::set_of_rcd())
            .unwrap();
        let dead = b.add_child(b.root(), "dead", SchemaType::rcd()).unwrap();
        let g = b.build().unwrap();
        let s = SchemaStats::from_link_counts(
            &g,
            &[1, 10, 0],
            &[LinkCount {
                from: g.root(),
                to: a,
                count: 10,
            }],
        )
        .unwrap();
        let m = PairMatrices::compute(&s, &PathConfig::default());
        let selected = vec![a];
        let asg = assign_elements(&g, &m, &selected);
        assert_eq!(asg[dead.index()], Some(0));
    }
}
