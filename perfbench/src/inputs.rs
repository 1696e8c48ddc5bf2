//! Seeded input generation. The server only ever sees what these functions
//! build from `--seed`: the same seed gives the same schemas, versions and
//! request sequences.

use crate::stats::Rng;
use schema_summary_bench::synthetic::random_schema;
use schema_summary_core::stats::LinkCount;
use schema_summary_core::{ElementId, SchemaGraph, SchemaGraphBuilder, SchemaStats, SchemaType};
use schema_summary_datasets::{mimi, tpch, xmark};
use std::sync::Arc;

/// One annotated schema as registered with the service.
#[derive(Clone)]
pub struct Schema {
    pub name: String,
    pub graph: Arc<SchemaGraph>,
    pub stats: Arc<SchemaStats>,
}

impl Schema {
    fn new(name: String, graph: SchemaGraph, stats: SchemaStats) -> Self {
        Schema {
            name,
            graph: Arc::new(graph),
            stats: Arc::new(stats),
        }
    }
}

/// Schema `index` of the `cold_catalog` stream. Slots cycle through a
/// fixed mix, so every run sees the same proportions: XMark, TPC-H, MiMI
/// and five synthetic schemas at link densities 0.05 and 0.2 whose sizes
/// sweep 100–400 elements with the index. Sizes follow the index, not the
/// seed, because cold cost grows steeply with size and a seeded size mix
/// would move the figures from run to run. The seed picks structures and
/// scale factors, so every fingerprint is new.
pub fn cold_schema(seed: u64, index: u64) -> Schema {
    let mut rng = Rng::new(seed, 1_000_000 + index);
    let (g, s) = match index % 8 {
        0 => {
            let (g, s, _) = xmark::schema(0.25 + 3.75 * rng.unit());
            (g, s)
        }
        1 => {
            let (g, s, _) = tpch::schema(0.01 + 9.99 * rng.unit());
            (g, s)
        }
        2 => {
            let version = mimi::Version::ALL[(index / 8 % 3) as usize];
            let (g, s, _) = mimi::schema(version);
            (g, s.scaled(0.5 + 1.5 * rng.unit()))
        }
        slot => {
            let density = if slot % 2 == 0 { 0.05 } else { 0.2 };
            let n = 100 + (index as usize * 37) % 301;
            random_schema(n, density, rng.next())
        }
    };
    Schema::new(format!("cold{index}"), g, s)
}

/// The fixed `warm_drilldown` catalog: the three paper datasets plus two
/// synthetic schemas, at seeded scales.
pub fn warm_catalog(seed: u64) -> Vec<Schema> {
    let mut rng = Rng::new(seed, 2);
    let (xg, xs, _) = xmark::schema(0.5 + rng.unit());
    let (tg, ts, _) = tpch::schema(0.05 + rng.unit());
    let (mg, ms, _) = mimi::schema(mimi::Version::Jan06);
    let (ag, as_) = random_schema(300, 0.05, rng.next());
    let (bg, bs) = random_schema(200, 0.2, rng.next());
    vec![
        Schema::new("xmark".into(), xg, xs),
        Schema::new("tpch".into(), tg, ts),
        Schema::new("mimi".into(), mg, ms),
        Schema::new("synth_sparse".into(), ag, as_),
        Schema::new("synth_dense".into(), bg, bs),
    ]
}

/// How each `evolving_schemas` track moves from one version to the next.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Evolution {
    /// XMark at a new scale factor.
    XmarkScale,
    /// The MiMI archive versions, Apr04 → Jan05 → Jan06 and around again.
    MimiChain,
    /// Every cardinality multiplied by one factor.
    Rescale,
    /// One existing link's count changed.
    EdgeTouch,
    /// A new element declared before any data arrives (zero count).
    DormantGrowth,
    /// A new populated element with a value link.
    PopulatedGrowth,
    /// Alternately drop a leaf (destructive) and add one back (growth).
    DropAndRestore,
}

pub const TRACKS: [Evolution; 7] = [
    Evolution::XmarkScale,
    Evolution::MimiChain,
    Evolution::Rescale,
    Evolution::EdgeTouch,
    Evolution::DormantGrowth,
    Evolution::PopulatedGrowth,
    Evolution::DropAndRestore,
];

/// The version chain of one track: `versions[0]` is registered during
/// set-up, each later version replaces its predecessor via a refresh.
pub fn track_versions(seed: u64, track: usize, count: usize) -> Vec<Schema> {
    let mut rng = Rng::new(seed, 3_000 + track as u64);
    let evolution = TRACKS[track];
    let name = |v: usize| format!("t{track}v{v}");
    let mut versions = Vec::with_capacity(count);
    match evolution {
        Evolution::XmarkScale => {
            for v in 0..count {
                let (g, s, _) = xmark::schema(0.25 + 3.75 * rng.unit());
                versions.push(Schema::new(name(v), g, s));
            }
        }
        Evolution::MimiChain => {
            for v in 0..count {
                let (g, s, _) = mimi::schema(mimi::Version::ALL[v % 3]);
                versions.push(Schema::new(name(v), g, s));
            }
        }
        _ => {
            let (g, s) = random_schema(rng.range(100, 180), 0.05, rng.next());
            let mut draft = Draft::of(&g, &s);
            versions.push(Schema::new(name(0), g, s));
            for v in 1..count {
                let (g, s) = match evolution {
                    Evolution::Rescale => {
                        let prev = &versions[v - 1];
                        let factor = 0.8 + 0.45 * rng.unit();
                        ((*prev.graph).clone(), prev.stats.scaled(factor))
                    }
                    Evolution::EdgeTouch => {
                        draft.touch_edge(&mut rng);
                        draft.build()
                    }
                    Evolution::DormantGrowth => {
                        draft.grow(&mut rng, v, false);
                        draft.build()
                    }
                    Evolution::PopulatedGrowth => {
                        draft.grow(&mut rng, v, true);
                        draft.build()
                    }
                    Evolution::DropAndRestore if v % 2 == 1 => {
                        draft.drop_leaf(&mut rng);
                        draft.build()
                    }
                    _ => {
                        draft.grow(&mut rng, v, true);
                        draft.build()
                    }
                };
                versions.push(Schema::new(name(v), g, s));
            }
        }
    }
    versions
}

/// An editable copy of an annotated schema: elements in id order with
/// integer cardinalities and per-link counts, rebuilt through the same
/// constructor (`SchemaStats::from_link_counts`) every version.
struct Draft {
    root: String,
    /// `(parent index, label, type)` for every non-root element, in id order.
    elements: Vec<(usize, String, SchemaType)>,
    cards: Vec<u64>,
    /// Structural links are implied by `elements`; their counts live here
    /// keyed by child index.
    child_counts: Vec<u64>,
    /// `(from, to, count)` value links.
    value_links: Vec<(usize, usize, u64)>,
}

impl Draft {
    fn of(graph: &SchemaGraph, stats: &SchemaStats) -> Self {
        let count = |from: ElementId, to: ElementId| {
            (stats.rc(from, to) * stats.card(from)).round() as u64
        };
        let elements = graph
            .element_ids()
            .skip(1)
            .map(|e| {
                let parent = graph.parent(e).expect("non-root has a parent");
                (parent.index(), graph.label(e).to_string(), graph.ty(e).clone())
            })
            .collect();
        let mut child_counts = vec![0; graph.len()];
        for (p, c) in graph.structural_links() {
            child_counts[c.index()] = count(p, c);
        }
        Draft {
            root: graph.label(graph.root()).to_string(),
            elements,
            cards: graph
                .element_ids()
                .map(|e| stats.card(e).round() as u64)
                .collect(),
            child_counts,
            value_links: graph
                .value_links()
                .map(|(f, t)| (f.index(), t.index(), count(f, t)))
                .collect(),
        }
    }

    fn build(&self) -> (SchemaGraph, SchemaStats) {
        let mut b = SchemaGraphBuilder::new(self.root.clone());
        for (parent, label, ty) in &self.elements {
            b.add_child(ElementId(*parent as u32), label.clone(), ty.clone())
                .expect("draft elements re-declare a valid tree");
        }
        let mut links: Vec<LinkCount> = self
            .elements
            .iter()
            .enumerate()
            .map(|(i, (parent, _, _))| LinkCount {
                from: ElementId(*parent as u32),
                to: ElementId(i as u32 + 1),
                count: self.child_counts[i + 1],
            })
            .collect();
        for &(from, to, count) in &self.value_links {
            let (from, to) = (ElementId(from as u32), ElementId(to as u32));
            b.add_value_link(from, to).expect("draft value links are valid");
            links.push(LinkCount { from, to, count });
        }
        let g = b.build().expect("draft builds");
        let s = SchemaStats::from_link_counts(&g, &self.cards, &links).expect("draft stats build");
        (g, s)
    }

    fn composites(&self) -> Vec<usize> {
        std::iter::once(0)
            .chain(
                self.elements
                    .iter()
                    .enumerate()
                    .filter(|(_, (_, _, ty))| ty.is_composite())
                    .map(|(i, _)| i + 1),
            )
            .collect()
    }

    /// Double or halve one element's population under its parent, which
    /// moves that structural link's relative cardinality in place. A count
    /// of 1 always doubles, so every version differs from the previous.
    fn touch_edge(&mut self, rng: &mut Rng) {
        let child = rng.range(1, self.cards.len());
        let count = self.child_counts[child];
        let new = if count > 1 && rng.unit() < 0.5 { count / 2 } else { count * 2 };
        self.child_counts[child] = new;
        self.cards[child] = new;
    }

    /// Append one set element under a random composite; `populated` gives
    /// it instances and a value link.
    fn grow(&mut self, rng: &mut Rng, version: usize, populated: bool) {
        let composites = self.composites();
        let parent = composites[rng.range(0, composites.len())];
        let id = self.cards.len();
        let card = if populated { 1 + self.cards[parent] * 2 } else { 0 };
        self.elements
            .push((parent, format!("grown{version}"), SchemaType::set_of_rcd()));
        self.cards.push(card);
        self.child_counts.push(card);
        // Growth never brings two existing elements closer in link
        // distance. The multi-level assignment falls back on that distance
        // for elements with no affinity to the selection, and a warm stack
        // refresh re-assigns only elements whose matrix row changed: with
        // dormant value links between distant composites the warm stack
        // diverges from a cold build. A populated element links to its
        // grandparent, one link from its parent already.
        if populated && parent > 0 {
            let grandparent = self.elements[parent - 1].0;
            self.value_links.push((id, grandparent, card));
        }
    }

    /// Remove one leaf element (no children, no value links): a
    /// destructive change. Element ids after it shift down by one.
    fn drop_leaf(&mut self, rng: &mut Rng) {
        let n = self.cards.len();
        let mut has_child = vec![false; n];
        for (parent, _, _) in &self.elements {
            has_child[*parent] = true;
        }
        let linked = |i: usize| self.value_links.iter().any(|&(f, t, _)| f == i || t == i);
        let leaves: Vec<usize> = (1..n).filter(|&i| !has_child[i] && !linked(i)).collect();
        let gone = leaves[rng.range(0, leaves.len())];
        let remap = |i: usize| if i > gone { i - 1 } else { i };
        self.elements.remove(gone - 1);
        for (parent, _, _) in &mut self.elements {
            *parent = remap(*parent);
        }
        self.cards.remove(gone);
        self.child_counts.remove(gone);
        for (f, t, _) in &mut self.value_links {
            *f = remap(*f);
            *t = remap(*t);
        }
    }
}
