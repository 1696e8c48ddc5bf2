//! `SchemaDelta::compute` against the string-keyed classifier it replaced.
//!
//! The shipped classifier interns label paths into ids shared by both
//! graphs and diffs through those ids. The reference below builds every
//! label path as a `String`, keys `BTreeMap`s and `BTreeSet`s by them, and
//! compares neighbour maps with `BTreeMap` equality. The two must agree on
//! the whole `SchemaDelta`, in both directions, over random version pairs:
//! rescales, link counts doubled or halved, appended elements (dormant
//! and populated, with value links), leaf drops that shift ids, retypes,
//! value links added and removed, siblings that share a label, the same
//! schema built in another id order, and relative cardinalities of `-0.0`
//! and NaN.

use proptest::prelude::*;
use schema_summary_core::stats::LinkCount;
use schema_summary_core::{
    DeltaClass, ElementId, SchemaDelta, SchemaFingerprint, SchemaGraph, SchemaGraphBuilder,
    SchemaStats, SchemaType,
};
use serde::{Deserialize, Serialize, Value};
use std::collections::{BTreeMap, BTreeSet, HashSet};

/// The classifier as it was written over label-path strings.
fn oracle(
    old_graph: &SchemaGraph,
    old_stats: &SchemaStats,
    new_graph: &SchemaGraph,
    new_stats: &SchemaStats,
) -> SchemaDelta {
    let paths_of = |g: &SchemaGraph| -> BTreeMap<String, ElementId> {
        g.element_ids().map(|e| (g.label_path(e), e)).collect()
    };
    let old_paths = paths_of(old_graph);
    let new_paths = paths_of(new_graph);
    let added_elements: Vec<String> = new_paths
        .keys()
        .filter(|p| !old_paths.contains_key(*p))
        .cloned()
        .collect();
    let removed_elements: Vec<String> = old_paths
        .keys()
        .filter(|p| !new_paths.contains_key(*p))
        .cloned()
        .collect();
    let mut retyped_elements = Vec::new();
    let mut changed_cardinalities = Vec::new();
    for (path, &oe) in &old_paths {
        let Some(&ne) = new_paths.get(path) else {
            continue;
        };
        if old_graph.ty(oe) != new_graph.ty(ne) {
            retyped_elements.push(path.clone());
        }
        if stats_differ(old_graph, old_stats, oe, new_graph, new_stats, ne) {
            changed_cardinalities.push(path.clone());
        }
    }
    let links_of = |g: &SchemaGraph| -> BTreeSet<(String, String)> {
        g.value_links()
            .map(|(f, t)| (g.label_path(f), g.label_path(t)))
            .collect()
    };
    let old_links = links_of(old_graph);
    let new_links = links_of(new_graph);
    let added_value_links: Vec<(String, String)> =
        new_links.difference(&old_links).cloned().collect();
    let removed_value_links: Vec<(String, String)> =
        old_links.difference(&new_links).cloned().collect();
    let class = if !removed_elements.is_empty()
        || !retyped_elements.is_empty()
        || !removed_value_links.is_empty()
    {
        DeltaClass::Destructive
    } else if !added_elements.is_empty() || !added_value_links.is_empty() {
        DeltaClass::AdditiveStructural
    } else {
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
        old_fingerprint: SchemaFingerprint::of_annotated(old_graph, old_stats),
        new_fingerprint: SchemaFingerprint::of_annotated(new_graph, new_stats),
        added_elements,
        removed_elements,
        retyped_elements,
        added_value_links,
        removed_value_links,
        changed_cardinalities,
        class,
    }
}

fn stats_differ(
    old_graph: &SchemaGraph,
    old_stats: &SchemaStats,
    oe: ElementId,
    new_graph: &SchemaGraph,
    new_stats: &SchemaStats,
    ne: ElementId,
) -> bool {
    if old_stats.card(oe) != new_stats.card(ne) {
        return true;
    }
    let adj = |g: &SchemaGraph, s: &SchemaStats, e: ElementId| -> BTreeMap<String, f64> {
        s.rc_neighbors(e)
            .map(|(nb, rc)| (g.label_path(nb), rc))
            .collect()
    };
    adj(old_graph, old_stats, oe) != adj(new_graph, new_stats, ne)
}

/// Splitmix64 over one drawn seed: every version pair below derives from
/// it, so a failing case reproduces from the seed in the assert message.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound.max(1) as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }
}

/// Few, overlapping labels, so siblings often share a path; `b/c` makes a
/// path that a different parent and label also spell.
const LABELS: [&str; 5] = ["a", "b", "ab", "c", "b/c"];

/// Leaf types; an element with children takes one of the composite ones
/// (index 2 or 3).
fn schema_type(ty: u8) -> SchemaType {
    match ty {
        0 => SchemaType::simple_str(),
        1 => SchemaType::simple_int(),
        2 => SchemaType::rcd(),
        _ => SchemaType::set_of_rcd(),
    }
}

#[derive(Clone, Debug)]
struct Node {
    /// Index of the parent in `Spec::nodes` (`None` for the root only).
    parent: Option<usize>,
    label: &'static str,
    ty: u8,
    card: u64,
    /// Instances of the structural link from the parent.
    count: u64,
}

/// One version of an annotated schema, before ids are assigned.
#[derive(Clone, Debug)]
struct Spec {
    nodes: Vec<Node>,
    /// Value links `(referrer, referee, instances)` by node index; pairs
    /// the builder rejects (self links, repeats) are skipped at build.
    links: Vec<(usize, usize, u64)>,
}

impl Spec {
    fn random(rng: &mut Rng) -> Self {
        let n = 5 + rng.below(30);
        let mut nodes = vec![Node {
            parent: None,
            label: "db",
            ty: 3,
            card: 1,
            count: 0,
        }];
        for _ in 1..n {
            let parent = rng.below(nodes.len());
            nodes[parent].ty = 2 + rng.below(2) as u8;
            nodes.push(Self::node(rng, parent));
        }
        let mut spec = Spec {
            nodes,
            links: Vec::new(),
        };
        for _ in 0..rng.below(n / 2 + 2) {
            spec.add_link(rng, 0);
        }
        spec
    }

    /// A new leaf under `parent`, dormant (no instances) one time in four.
    fn node(rng: &mut Rng, parent: usize) -> Node {
        let card = if rng.one_in(4) {
            0
        } else {
            1 + rng.below(60) as u64
        };
        Node {
            parent: Some(parent),
            label: LABELS[rng.below(LABELS.len())],
            ty: rng.below(4) as u8,
            card,
            count: card * rng.below(3) as u64,
        }
    }

    /// A value link from a node at index `from_min` or later.
    fn add_link(&mut self, rng: &mut Rng, from_min: usize) {
        let n = self.nodes.len();
        let from = from_min + rng.below(n - from_min);
        let to = rng.below(n);
        let count = self.nodes[from].card.min(self.nodes[to].card) * rng.below(3) as u64;
        self.links.push((from, to, count));
    }

    fn has_children(&self, i: usize) -> bool {
        self.nodes.iter().any(|node| node.parent == Some(i))
    }

    /// Apply one random change of the kinds a schema version can make.
    fn mutate(&mut self, rng: &mut Rng) {
        let n = self.nodes.len();
        match rng.below(10) {
            // Proportional growth: every cardinality and count scaled.
            0 => {
                let m = 2 + rng.below(2) as u64;
                for node in &mut self.nodes[1..] {
                    node.card *= m;
                    node.count *= m;
                }
                for link in &mut self.links {
                    link.2 *= m;
                }
            }
            // One cardinality rescaled.
            1 => self.nodes[rng.below(n)].card += 1 + rng.below(9) as u64,
            // One structural link count doubled or halved.
            2 => {
                let node = &mut self.nodes[1 + rng.below(n - 1)];
                node.count = if rng.one_in(2) {
                    node.count * 2
                } else {
                    node.count / 2
                };
            }
            // One value link count doubled or halved.
            3 if !self.links.is_empty() => {
                let i = rng.below(self.links.len());
                let link = &mut self.links[i];
                link.2 = if rng.one_in(2) {
                    link.2 * 2
                } else {
                    link.2 / 2
                };
            }
            // Appended elements, with value links that may touch them.
            4 => {
                for _ in 0..1 + rng.below(3) {
                    let parent = rng.below(self.nodes.len());
                    if self.nodes[parent].ty < 2 {
                        self.nodes[parent].ty = 2;
                    }
                    let node = Self::node(rng, parent);
                    self.nodes.push(node);
                }
                for _ in 0..rng.below(3) {
                    self.add_link(rng, n);
                }
            }
            // A leaf dropped: every later node's id shifts down.
            5 => {
                let leaves: Vec<usize> = (1..n).filter(|&i| !self.has_children(i)).collect();
                let gone = leaves[rng.below(leaves.len())];
                self.nodes.remove(gone);
                let shift = |i: usize| if i > gone { i - 1 } else { i };
                for node in &mut self.nodes {
                    node.parent = node.parent.map(shift);
                }
                self.links
                    .retain(|&(from, to, _)| from != gone && to != gone);
                for link in &mut self.links {
                    link.0 = shift(link.0);
                    link.1 = shift(link.1);
                }
            }
            // A retype; an element with children stays composite.
            6 => {
                let i = 1 + rng.below(n - 1);
                let ty = self.nodes[i].ty;
                self.nodes[i].ty = if self.has_children(i) {
                    5 - ty
                } else {
                    (ty + 1 + rng.below(3) as u8) % 4
                };
            }
            // A value link added.
            7 => self.add_link(rng, 0),
            // A twin appended beside an element, both linking to one
            // referee: two value links with one path pair.
            8 => {
                let twin = 1 + rng.below(n - 1);
                let to = rng.below(n);
                let node = Node {
                    card: 1 + rng.below(60) as u64,
                    ..self.nodes[twin].clone()
                };
                self.nodes.push(node);
                self.links.push((twin, to, self.nodes[to].card));
                self.links.push((n, to, self.nodes[to].card));
            }
            // A value link removed.
            _ if !self.links.is_empty() => {
                let i = rng.below(self.links.len());
                self.links.remove(i);
            }
            _ => {}
        }
    }

    /// A build order: parents before children, the root first. The
    /// identity unless `shuffle`.
    fn order(&self, rng: &mut Rng, shuffle: bool) -> Vec<usize> {
        if !shuffle {
            return (0..self.nodes.len()).collect();
        }
        let mut order = vec![0];
        let mut placed = vec![false; self.nodes.len()];
        placed[0] = true;
        while order.len() < self.nodes.len() {
            let ready: Vec<usize> = (0..self.nodes.len())
                .filter(|&i| !placed[i] && self.nodes[i].parent.is_some_and(|p| placed[p]))
                .collect();
            let next = ready[rng.below(ready.len())];
            placed[next] = true;
            order.push(next);
        }
        order
    }

    fn build(&self, order: &[usize]) -> (SchemaGraph, SchemaStats) {
        let root = &self.nodes[0];
        let mut builder = SchemaGraphBuilder::with_root_type(root.label, schema_type(root.ty));
        let mut id = vec![builder.root(); self.nodes.len()];
        for &i in &order[1..] {
            let node = &self.nodes[i];
            let parent = id[node.parent.expect("only the root has no parent")];
            id[i] = builder
                .add_child(parent, node.label, schema_type(node.ty))
                .unwrap();
        }
        let mut counts: Vec<LinkCount> = (1..self.nodes.len())
            .map(|i| LinkCount {
                from: id[self.nodes[i].parent.unwrap()],
                to: id[i],
                count: self.nodes[i].count,
            })
            .collect();
        for &(from, to, count) in &self.links {
            if builder.add_value_link(id[from], id[to]).is_ok() {
                counts.push(LinkCount {
                    from: id[from],
                    to: id[to],
                    count,
                });
            }
        }
        let graph = builder.build().unwrap();
        let mut cards = vec![0; self.nodes.len()];
        for (i, node) in self.nodes.iter().enumerate() {
            cards[id[i].index()] = node.card;
        }
        let stats = SchemaStats::from_link_counts(&graph, &cards, &counts).unwrap();
        (graph, stats)
    }
}

/// `stats` with each relative cardinality `rc` at lane position `i`
/// replaced by `edit(i, rc)`, through the serialized form (no constructor
/// makes `-0.0` or NaN relative cardinalities).
fn edit_rcs(stats: &SchemaStats, edit: impl Fn(usize, f64) -> f64) -> SchemaStats {
    let mut value = stats.to_value();
    let Value::Object(fields) = &mut value else {
        panic!("statistics serialize as an object")
    };
    let (_, Value::Array(lane)) = fields
        .iter_mut()
        .find(|(name, _)| name == "adj_rc")
        .expect("statistics carry an rc lane")
    else {
        panic!("the rc lane is an array")
    };
    for (i, rc) in lane.iter_mut().enumerate() {
        if let Value::Float(x) = rc {
            *x = edit(i, *x);
        }
    }
    SchemaStats::from_value(&value).unwrap()
}

/// One random version pair: a base schema, a copy with up to three
/// changes, each built in identity or shuffled id order, and sometimes
/// relative cardinalities edited to `-0.0` or NaN.
fn version_pair(seed: u64) -> [(SchemaGraph, SchemaStats); 2] {
    let mut rng = Rng(seed);
    let old = Spec::random(&mut rng);
    let mut new = old.clone();
    for _ in 0..rng.below(4) {
        new.mutate(&mut rng);
    }
    let shuffle = [rng.one_in(4), rng.one_in(3)];
    let old_order = old.order(&mut rng, shuffle[0]);
    let new_order = new.order(&mut rng, shuffle[1]);
    let (old_graph, mut old_stats) = old.build(&old_order);
    let (new_graph, mut new_stats) = new.build(&new_order);
    match rng.below(4) {
        // Every zero relative cardinality of the new version turns
        // negative: equal under `!=`, unequal bit for bit.
        0 => new_stats = edit_rcs(&new_stats, |_, rc| if rc == 0.0 { -0.0 } else { rc }),
        // One element id's relative cardinalities turn NaN in both
        // versions: unequal under `!=`, equal bit for bit.
        1 => {
            let e = ElementId(rng.below(old_graph.len().min(new_graph.len())) as u32);
            let (old_lanes, new_lanes) = (old_stats.edge_range(e), new_stats.edge_range(e));
            old_stats = edit_rcs(&old_stats, |i, rc| {
                if old_lanes.contains(&i) {
                    f64::NAN
                } else {
                    rc
                }
            });
            new_stats = edit_rcs(&new_stats, |i, rc| {
                if new_lanes.contains(&i) {
                    f64::NAN
                } else {
                    rc
                }
            });
        }
        _ => {}
    }
    [(old_graph, old_stats), (new_graph, new_stats)]
}

fn assert_matches_oracle(
    seed: u64,
    from: &(SchemaGraph, SchemaStats),
    to: &(SchemaGraph, SchemaStats),
) {
    let want = oracle(&from.0, &from.1, &to.0, &to.1);
    let got = SchemaDelta::compute(&from.0, &from.1, &to.0, &to.1);
    assert_eq!(got, want, "seed {seed}");
    let given = SchemaDelta::between(
        want.old_fingerprint,
        &from.0,
        &from.1,
        want.new_fingerprint,
        &to.0,
        &to.1,
    );
    assert_eq!(given, want, "seed {seed}, fingerprints given");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The interned classifier equals the string-keyed one, field for
    /// field, in both directions and against itself.
    #[test]
    fn delta_classify_matches_string_keyed_oracle(seed in any::<u64>()) {
        let [old, new] = version_pair(seed);
        assert_matches_oracle(seed, &old, &new);
        assert_matches_oracle(seed, &new, &old);
        assert_matches_oracle(seed, &old, &old);
    }
}

/// The generator reaches every case the property is meant to cover, so
/// the property cannot pass by never meeting them.
#[test]
fn delta_classify_generator_covers_every_case() {
    let mut classes = HashSet::new();
    let (mut shared_sibling_paths, mut repeated_link_paths) = (0, 0);
    let (mut signed_zeros, mut nans, mut permuted) = (0, 0, 0);
    let paths =
        |g: &SchemaGraph| -> Vec<String> { g.element_ids().map(|e| g.label_path(e)).collect() };
    for seed in 0..512 {
        let [(og, os), (ng, ns)] = version_pair(seed);
        classes.insert(SchemaDelta::compute(&og, &os, &ng, &ns).class);
        for g in [&og, &ng] {
            let paths = paths(g);
            if paths.iter().collect::<BTreeSet<_>>().len() < paths.len() {
                shared_sibling_paths += 1;
            }
            let links: Vec<(String, String)> = g
                .value_links()
                .map(|(f, t)| (g.label_path(f), g.label_path(t)))
                .collect();
            if links.iter().collect::<BTreeSet<_>>().len() < links.len() {
                repeated_link_paths += 1;
            }
        }
        let rcs = |s: &SchemaStats| -> Vec<f64> {
            (0..s.len() as u32)
                .flat_map(|e| {
                    s.rc_neighbors(ElementId(e))
                        .map(|(_, rc)| rc)
                        .collect::<Vec<_>>()
                })
                .collect()
        };
        if rcs(&ns)
            .iter()
            .any(|rc| *rc == 0.0 && rc.is_sign_negative())
        {
            signed_zeros += 1;
        }
        if rcs(&os).iter().any(|rc| rc.is_nan()) {
            nans += 1;
        }
        // The same paths in another id order.
        let (old_paths, new_paths) = (paths(&og), paths(&ng));
        let sorted = |mut paths: Vec<String>| {
            paths.sort();
            paths
        };
        if old_paths != new_paths && sorted(old_paths) == sorted(new_paths) {
            permuted += 1;
        }
    }
    assert_eq!(classes.len(), 4, "classes seen: {classes:?}");
    for (what, count) in [
        ("siblings sharing a path", shared_sibling_paths),
        ("value links sharing a path pair", repeated_link_paths),
        ("-0.0 relative cardinalities", signed_zeros),
        ("NaN relative cardinalities", nans),
        ("one schema in two id orders", permuted),
    ] {
        assert!(count >= 16, "{what}: only {count} of 512 pairs");
    }
}
