//! Structured diffs between summaries and between annotated schemas.
//!
//! The data-evolution story (Section 3.3, Table 5) needs more than an
//! agreement percentage: when a refreshed summary changes, operators want
//! to know *what* changed — which abstract elements appeared or vanished,
//! and which schema elements moved between groups. [`SummaryDiff`] reports
//! exactly that. [`SchemaDelta`] diffs two *annotated schemas* (graph +
//! statistics) and is what the serving layer consumes to invalidate
//! exactly the affected catalog entries.
//!
//! All reported change lists are sorted, so diff output is deterministic
//! and order-stable regardless of construction order — tests and cache
//! invalidation can compare reports structurally.

use crate::fingerprint::SchemaFingerprint;
use crate::ids::ElementId;
use crate::stats::SchemaStats;
use crate::summary::SchemaSummary;
use crate::SchemaGraph;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A structured difference between two summaries over the same graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SummaryDiff {
    /// Representatives present only in the newer summary.
    pub added_groups: Vec<ElementId>,
    /// Representatives present only in the older summary.
    pub removed_groups: Vec<ElementId>,
    /// Elements whose owning representative changed (excluding elements of
    /// added/removed groups whose move is implied), as
    /// `(element, old representative, new representative)`.
    pub moved: Vec<(ElementId, ElementId, ElementId)>,
    /// Number of elements whose group membership is unchanged.
    pub stable: usize,
}

impl SummaryDiff {
    /// Compare `old` and `new`. Both must summarize the same schema graph.
    pub fn compute(graph: &SchemaGraph, old: &SchemaSummary, new: &SchemaSummary) -> Self {
        // Representative of each element in each summary (the root and kept
        // originals map to themselves).
        let rep_of = |s: &SchemaSummary, e: ElementId| -> ElementId {
            match s.node_of(e) {
                crate::summary::SummaryNode::Original(o) => o,
                crate::summary::SummaryNode::Abstract(a) => s.abstracts()[a.index()].representative,
            }
        };
        let old_reps: Vec<ElementId> = old.abstracts().iter().map(|a| a.representative).collect();
        let new_reps: Vec<ElementId> = new.abstracts().iter().map(|a| a.representative).collect();
        let mut added_groups: Vec<ElementId> = new_reps
            .iter()
            .copied()
            .filter(|r| !old_reps.contains(r))
            .collect();
        let mut removed_groups: Vec<ElementId> = old_reps
            .iter()
            .copied()
            .filter(|r| !new_reps.contains(r))
            .collect();
        // Sort every change list: summaries enumerate groups in selection
        // order, which depends on algorithm tie-breaking, and downstream
        // consumers (invalidation, golden tests) need order-stable reports.
        added_groups.sort_unstable();
        removed_groups.sort_unstable();
        let mut moved = Vec::new();
        let mut stable = 0usize;
        for e in graph.element_ids() {
            let o = rep_of(old, e);
            let n = rep_of(new, e);
            if o == n {
                stable += 1;
            } else {
                moved.push((e, o, n));
            }
        }
        moved.sort_unstable();
        SummaryDiff {
            added_groups,
            removed_groups,
            moved,
            stable,
        }
    }

    /// Whether the two summaries are identical in grouping.
    pub fn is_empty(&self) -> bool {
        self.added_groups.is_empty() && self.removed_groups.is_empty() && self.moved.is_empty()
    }

    /// Fraction of elements whose group membership is unchanged.
    pub fn stability(&self) -> f64 {
        let total = self.stable + self.moved.len();
        if total == 0 {
            1.0
        } else {
            self.stable as f64 / total as f64
        }
    }

    /// Render a short human-readable change report.
    pub fn render(&self, graph: &SchemaGraph) -> String {
        if self.is_empty() {
            return "no change".to_string();
        }
        let mut out = String::new();
        if !self.added_groups.is_empty() {
            out.push_str("added groups: ");
            out.push_str(
                &self
                    .added_groups
                    .iter()
                    .map(|&e| graph.label(e))
                    .collect::<Vec<_>>()
                    .join(", "),
            );
            out.push('\n');
        }
        if !self.removed_groups.is_empty() {
            out.push_str("removed groups: ");
            out.push_str(
                &self
                    .removed_groups
                    .iter()
                    .map(|&e| graph.label(e))
                    .collect::<Vec<_>>()
                    .join(", "),
            );
            out.push('\n');
        }
        out.push_str(&format!(
            "{} elements regrouped, {} stable ({:.0}% stability)\n",
            self.moved.len(),
            self.stable,
            self.stability() * 100.0
        ));
        out
    }
}

/// How a [`SchemaDelta`] relates two annotated schemas, ordered by how
/// much of the old version's derived artifacts survive:
///
/// * [`Rescale`](DeltaClass::Rescale) — only cardinality bits moved;
///   every exploration-relevant edge record
///   ([`SchemaStats::exploration_bits_eq`]) is bit-identical, so path
///   explorations replay unchanged and only coverage rows need
///   rewriting.
/// * [`EdgeTouch`](DeltaClass::EdgeTouch) — the element set and link set
///   are unchanged but some edge records moved (fan-out shifts on
///   existing links); rows whose traces read them must re-explore.
/// * [`AdditiveStructural`](DeltaClass::AdditiveStructural) — the new
///   schema adds elements and/or value links and removes nothing; the
///   old element space embeds as a prefix of the new one, so artifacts
///   can be *grown* in place.
/// * [`Destructive`](DeltaClass::Destructive) — elements or links were
///   removed or retyped; the old element space does not embed and
///   derived artifacts must be rebuilt cold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeltaClass {
    /// Cardinality-only change (includes the empty delta).
    Rescale,
    /// In-place change to existing edge records.
    EdgeTouch,
    /// Pure growth: added elements/links, nothing removed or retyped.
    AdditiveStructural,
    /// Removals or retypes; no warm path exists.
    Destructive,
}

impl DeltaClass {
    /// Stable lowercase token for metrics labels and admin JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            DeltaClass::Rescale => "rescale",
            DeltaClass::EdgeTouch => "edge_touch",
            DeltaClass::AdditiveStructural => "additive_structural",
            DeltaClass::Destructive => "destructive",
        }
    }
}

impl std::fmt::Display for DeltaClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A structured difference between two *annotated schemas* — (graph,
/// statistics) pairs that may differ in structure, links, or
/// cardinalities.
///
/// Elements are matched across the two graphs by their root label path
/// (element ids are graph-local and not comparable across builds), and
/// every change list is sorted lexicographically, so equal inputs always
/// produce byte-identical reports. The serving layer feeds deltas to its
/// invalidation hook: a non-empty delta means `old_fingerprint` is stale
/// and exactly that catalog entry (and its cached results) must go.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SchemaDelta {
    /// Fingerprint of the old annotated schema.
    pub old_fingerprint: SchemaFingerprint,
    /// Fingerprint of the new annotated schema.
    pub new_fingerprint: SchemaFingerprint,
    /// Label paths present only in the new schema, sorted.
    pub added_elements: Vec<String>,
    /// Label paths present only in the old schema, sorted.
    pub removed_elements: Vec<String>,
    /// Label paths present in both schemas whose type changed, sorted.
    pub retyped_elements: Vec<String>,
    /// Value links `(referrer path, referee path)` present only in the new
    /// schema, sorted.
    pub added_value_links: Vec<(String, String)>,
    /// Value links present only in the old schema, sorted.
    pub removed_value_links: Vec<(String, String)>,
    /// Label paths present in both schemas whose cardinality or outgoing
    /// relative cardinalities changed, sorted.
    pub changed_cardinalities: Vec<String>,
    /// Coarse classification of the whole delta (see [`DeltaClass`]):
    /// what kind of refresh the serving layer can attempt.
    pub class: DeltaClass,
}

impl SchemaDelta {
    /// Diff two annotated schemas, fingerprinting both first. Callers that
    /// already hold the fingerprints (the serving catalog keys its entries
    /// by them) call [`between`](Self::between) instead.
    pub fn compute(
        old_graph: &SchemaGraph,
        old_stats: &SchemaStats,
        new_graph: &SchemaGraph,
        new_stats: &SchemaStats,
    ) -> Self {
        Self::between(
            SchemaFingerprint::of_annotated(old_graph, old_stats),
            old_graph,
            old_stats,
            SchemaFingerprint::of_annotated(new_graph, new_stats),
            new_graph,
            new_stats,
        )
    }

    /// Diff two annotated schemas whose fingerprints are known. Each
    /// fingerprint must be [`SchemaFingerprint::of_annotated`] of its
    /// graph and statistics (checked in debug builds).
    ///
    /// Every label path is built once, extending its parent's, and
    /// interned into an id shared by both graphs; the element, neighbour
    /// and value-link comparisons run on those ids, and strings are
    /// copied out only for reported entries. Where several elements of
    /// one graph share a path (siblings with one label), the last one by
    /// id stands for the path, as does the last of several neighbours
    /// sharing a path.
    pub fn between(
        old_fingerprint: SchemaFingerprint,
        old_graph: &SchemaGraph,
        old_stats: &SchemaStats,
        new_fingerprint: SchemaFingerprint,
        new_graph: &SchemaGraph,
        new_stats: &SchemaStats,
    ) -> Self {
        debug_assert_eq!(
            old_fingerprint,
            SchemaFingerprint::of_annotated(old_graph, old_stats),
            "old fingerprint does not match its content"
        );
        debug_assert_eq!(
            new_fingerprint,
            SchemaFingerprint::of_annotated(new_graph, new_stats),
            "new fingerprint does not match its content"
        );
        let paths = SharedPaths::new(old_graph, new_graph);

        let mut added_elements = Vec::new();
        let mut removed_elements = Vec::new();
        let mut retyped_elements = Vec::new();
        let mut changed_cardinalities = Vec::new();
        let (mut old_nbs, mut new_nbs) = (Vec::new(), Vec::new());
        for (&oe, &ne) in paths.old_at.iter().zip(&paths.new_at) {
            if oe == ABSENT {
                added_elements.push(paths.new.path(ne));
                continue;
            }
            if ne == ABSENT {
                removed_elements.push(paths.old.path(oe));
                continue;
            }
            let (oe, ne) = (ElementId(oe), ElementId(ne));
            if old_graph.ty(oe) != new_graph.ty(ne) {
                retyped_elements.push(paths.old.path(oe.0));
            }
            let changed = old_stats.card(oe) != new_stats.card(ne) || {
                neighbours(old_stats, oe, &paths.old_ids, &mut old_nbs);
                neighbours(new_stats, ne, &paths.new_ids, &mut new_nbs);
                old_nbs.len() != new_nbs.len()
                    || old_nbs
                        .iter()
                        .zip(&new_nbs)
                        .any(|(o, n)| o.0 != n.0 || o.1 != n.1)
            };
            if changed {
                changed_cardinalities.push(paths.old.path(oe.0));
            }
        }

        let old_links = link_ids(old_graph, &paths.old_ids);
        let new_links = link_ids(new_graph, &paths.new_ids);
        let only_in = |links: &[(u32, u32)], other: &[(u32, u32)]| -> Vec<(String, String)> {
            let mut only: Vec<(String, String)> = links
                .iter()
                .filter(|link| other.binary_search(link).is_err())
                .map(|&(from, to)| (paths.string(from), paths.string(to)))
                .collect();
            only.sort_unstable();
            only
        };
        let added_value_links = only_in(&new_links, &old_links);
        let removed_value_links = only_in(&old_links, &new_links);

        let class = if !removed_elements.is_empty()
            || !retyped_elements.is_empty()
            || !removed_value_links.is_empty()
        {
            DeltaClass::Destructive
        } else if !added_elements.is_empty() || !added_value_links.is_empty() {
            DeltaClass::AdditiveStructural
        } else {
            // Same element and link sets. A pure rescale additionally
            // requires every exploration-relevant edge record to be
            // bit-identical — compared by id, which is meaningful only
            // when the graphs agree element-for-element (equal-but-
            // permuted builds classify conservatively as EdgeTouch).
            let pure_rescale = old_graph == new_graph
                && old_stats.len() == old_graph.len()
                && new_stats.len() == new_graph.len()
                && old_graph
                    .element_ids()
                    .all(|e| old_stats.exploration_bits_eq(new_stats, e));
            if pure_rescale {
                DeltaClass::Rescale
            } else {
                DeltaClass::EdgeTouch
            }
        };

        SchemaDelta {
            old_fingerprint,
            new_fingerprint,
            added_elements: sorted_strings(added_elements),
            removed_elements: sorted_strings(removed_elements),
            retyped_elements: sorted_strings(retyped_elements),
            added_value_links,
            removed_value_links,
            changed_cardinalities: sorted_strings(changed_cardinalities),
            class,
        }
    }

    /// Whether the two annotated schemas are observably identical (the
    /// fingerprints agree and no change list has entries).
    pub fn is_empty(&self) -> bool {
        self.old_fingerprint == self.new_fingerprint
            && self.added_elements.is_empty()
            && self.removed_elements.is_empty()
            && self.retyped_elements.is_empty()
            && self.added_value_links.is_empty()
            && self.removed_value_links.is_empty()
            && self.changed_cardinalities.is_empty()
    }

    /// Render a short human-readable change report (sorted, stable).
    pub fn render(&self) -> String {
        if self.is_empty() {
            return "no change".to_string();
        }
        let mut out = String::new();
        let mut section = |title: &str, items: &[String]| {
            if !items.is_empty() {
                out.push_str(title);
                out.push_str(": ");
                out.push_str(&items.join(", "));
                out.push('\n');
            }
        };
        section("added elements", &self.added_elements);
        section("removed elements", &self.removed_elements);
        section("retyped elements", &self.retyped_elements);
        let fmt_links = |ls: &[(String, String)]| -> Vec<String> {
            ls.iter().map(|(f, t)| format!("{f} -> {t}")).collect()
        };
        section("added value links", &fmt_links(&self.added_value_links));
        section("removed value links", &fmt_links(&self.removed_value_links));
        section("changed cardinalities", &self.changed_cardinalities);
        out
    }
}

/// Marks a path id that names no element of one graph.
const ABSENT: u32 = u32::MAX;

/// One graph's label paths, built once in id order: each path is its
/// parent's path, a `/` and its own label, stored back to back in one
/// buffer. The bytes are whole UTF-8 labels and `/`s, so every path is
/// valid UTF-8.
struct LabelPaths {
    bytes: Vec<u8>,
    /// Element `e`'s path is `bytes[bounds[e]..bounds[e + 1]]`.
    bounds: Vec<usize>,
}

impl LabelPaths {
    fn of(graph: &SchemaGraph) -> Self {
        let mut bounds = Vec::with_capacity(graph.len() + 1);
        bounds.push(0);
        let mut paths = LabelPaths {
            bytes: Vec::new(),
            bounds,
        };
        for e in graph.element_ids() {
            match graph.parent(e) {
                None => paths.bytes.extend_from_slice(graph.label(e).as_bytes()),
                Some(p) if p < e => {
                    let parent = paths.span(p.0);
                    paths.bytes.extend_from_within(parent);
                    paths.bytes.push(b'/');
                    paths.bytes.extend_from_slice(graph.label(e).as_bytes());
                }
                // A deserialized graph may place a parent after its child.
                Some(_) => paths
                    .bytes
                    .extend_from_slice(graph.label_path(e).as_bytes()),
            }
            paths.bounds.push(paths.bytes.len());
        }
        paths
    }

    fn len(&self) -> usize {
        self.bounds.len() - 1
    }

    fn span(&self, e: u32) -> std::ops::Range<usize> {
        self.bounds[e as usize]..self.bounds[e as usize + 1]
    }

    fn path(&self, e: u32) -> &[u8] {
        &self.bytes[self.span(e)]
    }

    /// Each element's path id in `index`, which numbers paths in the
    /// order they are first seen.
    fn intern<'a>(&'a self, index: &mut HashMap<&'a [u8], u32>) -> Vec<u32> {
        (0..self.len() as u32)
            .map(|e| {
                let next = index.len() as u32;
                *index.entry(self.path(e)).or_insert(next)
            })
            .collect()
    }
}

/// Both graphs' label paths, interned into path ids they share: two
/// elements have the same path id exactly when their label paths are
/// equal strings.
struct SharedPaths {
    old: LabelPaths,
    new: LabelPaths,
    /// The path id of each element, per graph.
    old_ids: Vec<u32>,
    new_ids: Vec<u32>,
    /// Per path id, the last element (by id) with that path in each
    /// graph, or [`ABSENT`].
    old_at: Vec<u32>,
    new_at: Vec<u32>,
}

impl SharedPaths {
    fn new(old_graph: &SchemaGraph, new_graph: &SchemaGraph) -> Self {
        let old = LabelPaths::of(old_graph);
        let new = LabelPaths::of(new_graph);
        let mut index = HashMap::with_capacity(old.len());
        let old_ids = old.intern(&mut index);
        let new_ids = new.intern(&mut index);
        let count = index.len();
        let last_at = |ids: &[u32]| -> Vec<u32> {
            let mut at = vec![ABSENT; count];
            for (e, &id) in ids.iter().enumerate() {
                at[id as usize] = e as u32;
            }
            at
        };
        SharedPaths {
            old_at: last_at(&old_ids),
            new_at: last_at(&new_ids),
            old,
            new,
            old_ids,
            new_ids,
        }
    }

    /// The label path of path id `id`.
    fn string(&self, id: u32) -> String {
        let id = id as usize;
        let path = match self.old_at[id] {
            ABSENT => self.new.path(self.new_at[id]),
            e => self.old.path(e),
        };
        path_string(path)
    }
}

fn path_string(path: &[u8]) -> String {
    String::from_utf8(path.to_vec()).expect("label paths are built from whole UTF-8 labels")
}

/// Reported paths in `String` order (byte order, which is `[u8]` order).
fn sorted_strings(mut paths: Vec<&[u8]>) -> Vec<String> {
    paths.sort_unstable();
    paths.into_iter().map(path_string).collect()
}

/// `e`'s outgoing relative cardinalities keyed by neighbour path id,
/// sorted by id, into `out`. Neighbours that share a path keep the last
/// one's value, as inserting them into a map in order would.
fn neighbours(stats: &SchemaStats, e: ElementId, ids: &[u32], out: &mut Vec<(u32, f64)>) {
    out.clear();
    out.extend(stats.rc_neighbors(e).map(|(nb, rc)| (ids[nb.index()], rc)));
    // Stable, so equal ids stay in neighbour order.
    out.sort_by_key(|&(id, _)| id);
    out.dedup_by(|later, kept| {
        let same = later.0 == kept.0;
        if same {
            kept.1 = later.1;
        }
        same
    });
}

/// The graph's value links as `(referrer, referee)` path-id pairs,
/// sorted and de-duplicated.
fn link_ids(graph: &SchemaGraph, ids: &[u32]) -> Vec<(u32, u32)> {
    let mut links: Vec<(u32, u32)> = graph
        .value_links()
        .map(|(from, to)| (ids[from.index()], ids[to.index()]))
        .collect();
    links.sort_unstable();
    links.dedup();
    links
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SchemaGraphBuilder;
    use crate::types::SchemaType;

    fn graph() -> SchemaGraph {
        let mut b = SchemaGraphBuilder::new("db");
        let a = b
            .add_child(b.root(), "a", SchemaType::set_of_rcd())
            .unwrap();
        b.add_child(a, "a1", SchemaType::simple_str()).unwrap();
        let c = b
            .add_child(b.root(), "c", SchemaType::set_of_rcd())
            .unwrap();
        b.add_child(c, "c1", SchemaType::simple_str()).unwrap();
        b.build().unwrap()
    }

    fn summary(g: &SchemaGraph, groups: Vec<(&str, Vec<&str>)>) -> SchemaSummary {
        let f = |l: &str| g.find_unique(l).unwrap();
        SchemaSummary::from_grouping(
            g,
            groups
                .into_iter()
                .map(|(rep, members)| (f(rep), members.into_iter().map(f).collect()))
                .collect(),
            vec![],
        )
        .unwrap()
    }

    #[test]
    fn identical_summaries_diff_empty() {
        let g = graph();
        let s = summary(&g, vec![("a", vec!["a", "a1"]), ("c", vec!["c", "c1"])]);
        let d = SummaryDiff::compute(&g, &s, &s);
        assert!(d.is_empty());
        assert_eq!(d.stability(), 1.0);
        assert_eq!(d.render(&g), "no change");
    }

    #[test]
    fn group_swap_is_reported() {
        let g = graph();
        let old = summary(&g, vec![("a", vec!["a", "a1"]), ("c", vec!["c", "c1"])]);
        let new = summary(&g, vec![("a", vec!["a", "a1", "c", "c1"])]);
        let d = SummaryDiff::compute(&g, &old, &new);
        assert!(d.added_groups.is_empty());
        assert_eq!(d.removed_groups.len(), 1);
        // c and c1 moved from c's group to a's.
        assert_eq!(d.moved.len(), 2);
        assert!(d.stability() < 1.0);
        let text = d.render(&g);
        assert!(text.contains("removed groups: c"));
        assert!(text.contains("2 elements regrouped"));
    }

    #[test]
    fn member_movement_without_group_change() {
        let g = graph();
        let old = summary(&g, vec![("a", vec!["a", "a1", "c1"]), ("c", vec!["c"])]);
        let new = summary(&g, vec![("a", vec!["a", "a1"]), ("c", vec!["c", "c1"])]);
        let d = SummaryDiff::compute(&g, &old, &new);
        assert!(d.added_groups.is_empty());
        assert!(d.removed_groups.is_empty());
        assert_eq!(d.moved.len(), 1);
        let (e, o, n) = d.moved[0];
        assert_eq!(g.label(e), "c1");
        assert_eq!(g.label(o), "a");
        assert_eq!(g.label(n), "c");
    }

    #[test]
    fn serde_roundtrip() {
        let g = graph();
        let old = summary(&g, vec![("a", vec!["a", "a1"]), ("c", vec!["c", "c1"])]);
        let new = summary(&g, vec![("a", vec!["a", "a1", "c", "c1"])]);
        let d = SummaryDiff::compute(&g, &old, &new);
        let json = serde_json::to_string(&d).unwrap();
        let back: SummaryDiff = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }

    fn delta_graph(with_extra: bool, with_link: bool) -> SchemaGraph {
        let mut b = SchemaGraphBuilder::new("db");
        let a = b
            .add_child(b.root(), "a", SchemaType::set_of_rcd())
            .unwrap();
        b.add_child(a, "a1", SchemaType::simple_str()).unwrap();
        let c = b
            .add_child(b.root(), "c", SchemaType::set_of_rcd())
            .unwrap();
        if with_extra {
            b.add_child(c, "c1", SchemaType::simple_str()).unwrap();
        }
        if with_link {
            b.add_value_link(c, a).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn schema_delta_empty_for_identical_inputs() {
        let g = delta_graph(true, true);
        let s = SchemaStats::uniform(&g);
        let d = SchemaDelta::compute(&g, &s, &g, &s);
        assert!(d.is_empty());
        assert_eq!(d.old_fingerprint, d.new_fingerprint);
        assert_eq!(d.render(), "no change");
    }

    #[test]
    fn schema_delta_reports_sorted_changes() {
        let old = delta_graph(false, false);
        let new = delta_graph(true, true);
        let d = SchemaDelta::compute(
            &old,
            &SchemaStats::uniform(&old),
            &new,
            &SchemaStats::uniform(&new),
        );
        assert_ne!(d.old_fingerprint, d.new_fingerprint);
        assert_eq!(d.added_elements, vec!["db/c/c1".to_string()]);
        assert!(d.removed_elements.is_empty());
        assert_eq!(
            d.added_value_links,
            vec![("db/c".to_string(), "db/a".to_string())]
        );
        // Adding the link/child changes RC adjacency of existing elements;
        // the affected paths come back sorted.
        let mut sorted = d.changed_cardinalities.clone();
        sorted.sort();
        assert_eq!(d.changed_cardinalities, sorted);
        let text = d.render();
        assert!(text.contains("added elements: db/c/c1"));
        assert!(text.contains("added value links: db/c -> db/a"));
    }

    #[test]
    fn schema_delta_detects_pure_cardinality_change() {
        let g = delta_graph(true, false);
        let s1 = SchemaStats::uniform(&g);
        let s2 = s1.scaled(2.0);
        let d = SchemaDelta::compute(&g, &s1, &g, &s2);
        assert!(!d.is_empty());
        assert!(d.added_elements.is_empty());
        assert!(d.removed_elements.is_empty());
        assert!(!d.changed_cardinalities.is_empty());
        assert_ne!(d.old_fingerprint, d.new_fingerprint);
    }

    #[test]
    fn schema_delta_classifies_pure_rescale() {
        let g = delta_graph(true, false);
        let s1 = SchemaStats::uniform(&g);
        let s2 = s1.scaled(2.0);
        let d = SchemaDelta::compute(&g, &s1, &g, &s2);
        assert_eq!(d.class, DeltaClass::Rescale);
        // The empty delta is a (degenerate) rescale too.
        assert_eq!(SchemaDelta::compute(&g, &s1, &g, &s1).class, DeltaClass::Rescale);
    }

    #[test]
    fn schema_delta_classifies_edge_touch() {
        let g = delta_graph(true, true);
        let s1 = SchemaStats::uniform(&g);
        // Same graph, same cardinalities, but unit RCs forced: existing
        // edge records move without any structural change.
        let s2 = SchemaStats::from_link_counts(
            &g,
            &vec![1u64; g.len()],
            &g.structural_links()
                .chain(g.value_links())
                .map(|(f, t)| crate::stats::LinkCount { from: f, to: t, count: 2 })
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let d = SchemaDelta::compute(&g, &s1, &g, &s2);
        assert!(d.added_elements.is_empty() && d.removed_elements.is_empty());
        assert_eq!(d.class, DeltaClass::EdgeTouch);
    }

    #[test]
    fn schema_delta_classifies_growth_and_destruction() {
        let old = delta_graph(false, false);
        let new = delta_graph(true, true);
        let grown = SchemaDelta::compute(
            &old,
            &SchemaStats::uniform(&old),
            &new,
            &SchemaStats::uniform(&new),
        );
        assert_eq!(grown.class, DeltaClass::AdditiveStructural);
        let shrunk = SchemaDelta::compute(
            &new,
            &SchemaStats::uniform(&new),
            &old,
            &SchemaStats::uniform(&old),
        );
        assert_eq!(shrunk.class, DeltaClass::Destructive);
        // A delta that both adds and removes is destructive: the old
        // element space does not embed in the new one.
        let sideways = SchemaDelta::compute(
            &delta_graph(true, false),
            &SchemaStats::uniform(&delta_graph(true, false)),
            &delta_graph(false, true),
            &SchemaStats::uniform(&delta_graph(false, true)),
        );
        assert_eq!(sideways.class, DeltaClass::Destructive);
    }

    #[test]
    fn schema_delta_serde_roundtrip() {
        let old = delta_graph(false, false);
        let new = delta_graph(true, true);
        let d = SchemaDelta::compute(
            &old,
            &SchemaStats::uniform(&old),
            &new,
            &SchemaStats::uniform(&new),
        );
        let json = serde_json::to_string(&d).unwrap();
        let back: SchemaDelta = serde_json::from_str(&json).unwrap();
        assert_eq!(d, back);
    }
}
