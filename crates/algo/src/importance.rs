//! Schema element importance (Formula 1, Algorithm MaxImportance part 1).
//!
//! The importance of an element combines its **cardinality** in the database
//! (initial value) with its **connectivity** in the schema (the iteration
//! redistributes importance across links, weighted by relative
//! cardinalities):
//!
//! ```text
//! I_e^r = p · I_e^{r-1} + (1 - p) · Σ_j W(e_j → e) · I_{e_j}^{r-1}
//! W(e_j → e) = RC(e_j → e) / Σ_k RC(e_j → e_k)
//! ```
//!
//! Because each element donates exactly its `(1 - p)` share across
//! neighbors whose weights sum to one, the total importance mass equals the
//! total cardinality at every iteration (the paper notes this invariant;
//! our property tests enforce it). Isolated elements retain their mass.

use schema_summary_core::{ElementId, SchemaGraph, SchemaStats};
use serde::{Deserialize, Serialize};

/// Which inputs drive the importance computation (Section 5.4's ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum ImportanceMode {
    /// Both schema structure and data distribution (the paper's default).
    #[default]
    DataAndSchema,
    /// Fully data driven (`p = 1`): importance equals cardinality.
    DataOnly,
    /// Fully schema driven (`RC ≡ 1`, `I⁰ ≡ 1`): only connectivity matters.
    SchemaOnly,
}

/// Configuration for the importance iteration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ImportanceConfig {
    /// Neighborhood factor `p` (Formula 1); the paper recommends 0.5.
    pub p: f64,
    /// Per-element relative convergence threshold `c` (Figure 4 uses 0.1%).
    pub epsilon: f64,
    /// Iteration cap (Figure 4 notes "a limit on the # iterations can also
    /// be set"); the paper observes convergence within several hundred
    /// iterations at `p = 0.5`.
    pub max_iterations: usize,
    /// Input ablation mode.
    pub mode: ImportanceMode,
}

impl Default for ImportanceConfig {
    fn default() -> Self {
        ImportanceConfig {
            p: 0.5,
            epsilon: 0.001,
            max_iterations: 5_000,
            mode: ImportanceMode::DataAndSchema,
        }
    }
}

// Configurations key memoized artifacts and cached results, so equality
// and hashing must be total and bit-stable. Comparing the floats by bit
// pattern gives exactly that: two configs hash alike iff they serialize
// alike (NaN configs are degenerate but still consistent).
impl PartialEq for ImportanceConfig {
    fn eq(&self, other: &Self) -> bool {
        self.p.to_bits() == other.p.to_bits()
            && self.epsilon.to_bits() == other.epsilon.to_bits()
            && self.max_iterations == other.max_iterations
            && self.mode == other.mode
    }
}

impl Eq for ImportanceConfig {}

impl std::hash::Hash for ImportanceConfig {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.p.to_bits().hash(state);
        self.epsilon.to_bits().hash(state);
        self.max_iterations.hash(state);
        self.mode.hash(state);
    }
}

impl ImportanceConfig {
    /// Builder-style setter for `p`.
    pub fn with_p(mut self, p: f64) -> Self {
        self.p = p;
        self
    }

    /// Builder-style setter for the mode.
    pub fn with_mode(mut self, mode: ImportanceMode) -> Self {
        self.mode = mode;
        self
    }
}

/// Result of the importance computation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ImportanceResult {
    scores: Vec<f64>,
    /// Number of iterations executed.
    pub iterations: usize,
    /// Whether the per-element convergence criterion was met within the
    /// iteration cap.
    pub converged: bool,
}

impl ImportanceResult {
    /// Importance score of `e`.
    #[inline]
    pub fn score(&self, e: ElementId) -> f64 {
        self.scores[e.index()]
    }

    /// All scores, indexed by element id.
    #[inline]
    pub fn scores(&self) -> &[f64] {
        &self.scores
    }

    /// Total importance mass (invariant: equals the total cardinality).
    pub fn total(&self) -> f64 {
        self.scores.iter().sum()
    }

    /// Element ids sorted by descending importance, ties broken by id.
    /// The root is **excluded**: it is always kept in a summary and never a
    /// candidate representative.
    pub fn ranked(&self, graph: &SchemaGraph) -> Vec<ElementId> {
        let mut ids: Vec<ElementId> = graph.element_ids().filter(|&e| e != graph.root()).collect();
        ids.sort_by(|&a, &b| {
            self.scores[b.index()]
                .partial_cmp(&self.scores[a.index()])
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        ids
    }

    /// The `k` most important non-root elements.
    pub fn top_k(&self, graph: &SchemaGraph, k: usize) -> Vec<ElementId> {
        let mut r = self.ranked(graph);
        r.truncate(k);
        r
    }
}

/// Compute element importance over `graph` annotated with `stats`.
pub fn compute_importance(
    graph: &SchemaGraph,
    stats: &SchemaStats,
    config: &ImportanceConfig,
) -> ImportanceResult {
    match config.mode {
        ImportanceMode::DataOnly => {
            // p = 1: the iteration is the identity, importance = cardinality.
            let scores = graph.element_ids().map(|e| stats.card(e)).collect();
            ImportanceResult {
                scores,
                iterations: 0,
                converged: true,
            }
        }
        ImportanceMode::SchemaOnly => {
            let unit = stats.with_unit_rc();
            let init = vec![1.0; graph.len()];
            iterate(graph, &unit, init, config)
        }
        ImportanceMode::DataAndSchema => {
            let init = graph.element_ids().map(|e| stats.card(e)).collect();
            iterate(graph, stats, init, config)
        }
    }
}

/// Compute element importance seeded from a previous fixpoint — the
/// paper's §3.3 maintenance restart. When the statistics change little,
/// the previous scores are already near the new fixed point and the
/// iteration stops after a handful of rounds instead of the hundreds a
/// cold start needs.
///
/// The seed is rescaled so its mass equals the new total cardinality
/// (Formula 1 conserves mass, so any fixed point must carry exactly that
/// total). With a degenerate seed (zero or non-finite mass) this falls
/// back to [`compute_importance`].
///
/// Note the trade-off: the seeded restart converges to the *same ε-ball*
/// as a cold run but generally stops at a *different point inside it*
/// (the stopping rule sees different iterates), so the scores are
/// epsilon-close, not bit-identical. The serving layer's warm delta path
/// accepts exactly that contract: it seeds each new schema version's
/// fixpoint from the previous version's vector (mass conserved exactly,
/// scores within the `ImportanceConfig::epsilon` ball, a fraction of the
/// cold iterations) while keeping matrices and coverage bit-exact.
///
/// Seeded restarts run the Aitken-accelerated iteration (see
/// `iterate_accelerated`): the exit condition is unchanged — only the
/// trajectory toward it is shortened.
pub fn compute_importance_from(
    graph: &SchemaGraph,
    stats: &SchemaStats,
    previous: &[f64],
    config: &ImportanceConfig,
) -> ImportanceResult {
    if previous.len() != graph.len() || config.mode != ImportanceMode::DataAndSchema {
        return compute_importance(graph, stats, config);
    }
    let prev_total: f64 = previous.iter().sum();
    if !(prev_total.is_finite() && prev_total > 0.0) {
        return compute_importance(graph, stats, config);
    }
    let scale = stats.total_card() / prev_total;
    let init: Vec<f64> = previous.iter().map(|&v| v * scale).collect();
    iterate_accelerated(graph, stats, init, config)
}

/// Seeded restart across a *data* delta, rebasing the previous fixpoint by
/// each element's cardinality ratio before iterating.
///
/// A uniformly rescaled old vector is a poor seed when the delta grows
/// elements non-uniformly: Formula 1's mixing is slow (the transition
/// matrix's second eigenvalue is close to 1), so the iteration takes a
/// long time to move mass between regions whose relative volume shifted.
/// Rebasing each element by `card_new / card_old` applies that shift
/// directly — the iteration then only has to smooth out the local
/// redistribution, which the per-step stopping rule accepts within a few
/// rounds. Elements the old statistics had at zero cardinality fall back
/// to their cold init (`card_new`), and the whole seed is rescaled so its
/// mass equals the new total cardinality exactly.
///
/// **Grown schemas**: when `stats` covers *more* elements than
/// `previous_stats` (an additive structural delta appended elements at the
/// tail of the id space), the old prefix still rebases element-wise and
/// each appended element seeds at its cold init, `card_new` — mass
/// proportional to its cardinality, which is where Formula 1's fixed point
/// puts an element before link mixing redistributes it. The full seed is
/// then mass-rescaled as usual. A *shrunk* `previous_stats` (or any other
/// mismatch) falls back to [`compute_importance_from`], with the same
/// degenerate-seed guards otherwise.
pub fn compute_importance_rebased(
    graph: &SchemaGraph,
    stats: &SchemaStats,
    previous: &[f64],
    previous_stats: &SchemaStats,
    config: &ImportanceConfig,
) -> ImportanceResult {
    if previous_stats.len() > stats.len() || previous.len() != previous_stats.len() {
        return compute_importance_from(graph, stats, previous, config);
    }
    if config.mode != ImportanceMode::DataAndSchema || stats.len() != graph.len() {
        return compute_importance(graph, stats, config);
    }
    let mut init: Vec<f64> = (0..graph.len())
        .map(|i| {
            let e = ElementId(i as u32);
            if i >= previous_stats.len() {
                // Appended element: no previous mass to rebase.
                return stats.card(e);
            }
            let old_card = previous_stats.card(e);
            if old_card > 0.0 {
                previous[i] * (stats.card(e) / old_card)
            } else {
                stats.card(e)
            }
        })
        .collect();
    let total: f64 = init.iter().sum();
    if !(total.is_finite() && total > 0.0) {
        return compute_importance(graph, stats, config);
    }
    let scale = stats.total_card() / total;
    for v in &mut init {
        *v *= scale;
    }
    iterate_accelerated(graph, stats, init, config)
}

/// Run the Formula-1 iteration from an explicit initial mass vector
/// (crate-internal: used by the query-history extension).
pub(crate) fn iterate_from(
    graph: &SchemaGraph,
    stats: &SchemaStats,
    init: Vec<f64>,
    config: &ImportanceConfig,
) -> ImportanceResult {
    iterate(graph, stats, init, config)
}

/// Loop-invariant state of the Formula-1 iteration: the donor masses and
/// the precomputed per-edge weight lane, built once and reused by every
/// round of the plain and accelerated drivers.
struct IterKernel<'a> {
    stats: &'a SchemaStats,
    /// `rc_sum(j)` for donors, 0 for isolated elements (which keep all
    /// their mass).
    rc_mass: Vec<f64>,
    /// Precomputed weight lane, parallel to the CSR edge lanes:
    /// `weight[idx] = rc / rc_mass(row)` is loop-invariant across
    /// iterations, so hoisting it replaces the per-edge division in the
    /// hot pass with a multiply (`share · (rc / mass)` and
    /// `share · weight` produce identical bits — the quotient is computed
    /// once either way).
    weights: Vec<f64>,
    p: f64,
    epsilon: f64,
    /// Relative-change floor so zero-mass elements don't divide by zero.
    tiny: f64,
    n: usize,
}

impl<'a> IterKernel<'a> {
    fn new(graph: &SchemaGraph, stats: &'a SchemaStats, init: &[f64], config: &ImportanceConfig) -> Self {
        let n = graph.len();
        // The iteration consumes the statistics' CSR adjacency directly:
        // W(j → nb) = rc / rc_sum(j) per Formula 1, computed from the flat
        // edge lanes instead of materializing a nested weight table. An
        // element donates only when it has neighbors and positive RC mass;
        // otherwise it keeps everything (isolated elements retain their
        // mass).
        let rc_mass: Vec<f64> = (0..n as u32)
            .map(|j| {
                let j = ElementId(j);
                if stats.degree(j) == 0 {
                    0.0
                } else {
                    stats.rc_sum(j)
                }
            })
            .collect();
        let mut weights = vec![0.0; stats.rc_lane().len()];
        for (j, &mass) in rc_mass.iter().enumerate() {
            if mass <= 0.0 {
                continue;
            }
            let row = stats.edge_range(ElementId(j as u32));
            let rcs = &stats.rc_lane()[row.clone()];
            for (slot, &rc) in weights[row].iter_mut().zip(rcs) {
                *slot = rc / mass;
            }
        }
        let tiny = (init.iter().sum::<f64>() / n.max(1) as f64).max(1.0) * 1e-12;
        IterKernel {
            stats,
            rc_mass,
            weights,
            p: config.p.clamp(0.0, 1.0),
            epsilon: config.epsilon,
            tiny,
            n,
        }
    }

    /// One Formula-1 round: `new = M · cur`. Returns whether the per-step
    /// stopping rule is satisfied (every element's relative change is
    /// within epsilon).
    fn step(&self, cur: &[f64], new: &mut [f64]) -> bool {
        let n = self.n;
        let neighbors = self.stats.neighbor_lane();
        // Fused retain + donate pass: one sweep over the donors writes each
        // element's retained share and scatters its `(1 - p)` donation
        // along the precomputed weight lane. (Relative to the historical
        // two-pass form this reassociates the per-target sums, which is
        // fine: the fixpoint is defined up to the convergence epsilon, and
        // every in-process consumer compares under that contract.)
        new[..n].fill(0.0);
        for (j, &mass) in self.rc_mass.iter().enumerate() {
            let cj = cur[j];
            if mass <= 0.0 {
                // Donates nothing: keeps everything.
                new[j] += cj;
                continue;
            }
            new[j] += self.p * cj;
            let share = (1.0 - self.p) * cj;
            let row = self.stats.edge_range(ElementId(j as u32));
            for idx in row {
                new[neighbors[idx].index()] += share * self.weights[idx];
            }
        }
        for i in 0..n {
            let denom = cur[i].max(self.tiny);
            if (new[i] - cur[i]).abs() / denom > self.epsilon {
                return false;
            }
        }
        true
    }
}

fn iterate(
    graph: &SchemaGraph,
    stats: &SchemaStats,
    init: Vec<f64>,
    config: &ImportanceConfig,
) -> ImportanceResult {
    let kernel = IterKernel::new(graph, stats, &init, config);
    let mut cur = init;
    let mut new = vec![0.0; kernel.n];
    let mut iterations = 0;
    let mut converged = false;
    while iterations < config.max_iterations {
        iterations += 1;
        let done = kernel.step(&cur, &mut new);
        std::mem::swap(&mut cur, &mut new);
        if done {
            converged = true;
            break;
        }
    }
    ImportanceResult {
        scores: cur,
        iterations,
        converged,
    }
}

/// Formula-1 iteration with Aitken Δ² acceleration, used by the seeded
/// restarts.
///
/// A good seed lands close to the fixed point but in the iteration's
/// slow-mixing directions, where plain rounds contract by a factor near 1
/// and the per-step stopping rule takes dozens of rounds to trigger.
/// Because those directions shrink almost geometrically, three adjacent
/// iterates predict their own limit: after a two-round burn-in, every
/// cycle takes two plain rounds and then extrapolates each element through
/// `x₂ + d₂·r/(1−r)` with `r = d₂/d₁` (Aitken's Δ² on the adjacent
/// triple `x₀, x₁, x₂`).
///
/// Safety of the shortcut:
/// - an element is only extrapolated when its ratio is cleanly geometric
///   (`r ∈ (0, 0.995)`) and the extrapolated value is finite and
///   positive — otherwise it keeps its plain iterate;
/// - the whole vector is rescaled to the seed's exact mass after every
///   extrapolation, so Formula 1's mass conservation holds bit-exactly;
/// - the loop exits **only** through the standard per-step criterion
///   inside [`IterKernel::step`] — extrapolation shortens the trajectory
///   but never substitutes for convergence, so any result returned here
///   is a valid answer under the same stopping rule as a cold run.
fn iterate_accelerated(
    graph: &SchemaGraph,
    stats: &SchemaStats,
    init: Vec<f64>,
    config: &ImportanceConfig,
) -> ImportanceResult {
    const BURN_IN: usize = 2;
    let kernel = IterKernel::new(graph, stats, &init, config);
    let n = kernel.n;
    let target_mass: f64 = init.iter().sum();
    let mut cur = init;
    let mut new = vec![0.0; n];
    let mut x0 = vec![0.0; n];
    let mut x1 = vec![0.0; n];
    let mut iterations = 0;
    let mut converged = false;
    'drive: {
        macro_rules! round {
            () => {{
                if iterations >= config.max_iterations {
                    break 'drive;
                }
                iterations += 1;
                let done = kernel.step(&cur, &mut new);
                std::mem::swap(&mut cur, &mut new);
                if done {
                    converged = true;
                    break 'drive;
                }
            }};
        }
        for _ in 0..BURN_IN {
            round!();
        }
        loop {
            x0.copy_from_slice(&cur);
            round!();
            x1.copy_from_slice(&cur);
            round!();
            // Per-element Aitken on the adjacent triple (x0, x1, cur).
            for i in 0..n {
                let d1 = x1[i] - x0[i];
                let d2 = cur[i] - x1[i];
                if d1.abs() > 1e-300 {
                    let r = d2 / d1;
                    if r > 0.0 && r < 0.995 {
                        let extrapolated = cur[i] + d2 * r / (1.0 - r);
                        if extrapolated.is_finite() && extrapolated > 0.0 {
                            cur[i] = extrapolated;
                        }
                    }
                }
            }
            let mass: f64 = cur.iter().sum();
            if mass.is_finite() && mass > 0.0 {
                let scale = target_mass / mass;
                for v in &mut cur {
                    *v *= scale;
                }
            }
        }
    }
    ImportanceResult {
        scores: cur,
        iterations,
        converged,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use schema_summary_core::graph::SchemaGraphBuilder;
    use schema_summary_core::stats::LinkCount;
    use schema_summary_core::types::SchemaType;

    /// a -> b (structural) with RC(a→b)=2, RC(b→a)=1; cards 10, 20.
    fn two_node() -> (SchemaGraph, SchemaStats) {
        let mut b = SchemaGraphBuilder::new("a");
        let bid = b
            .add_child(b.root(), "b", SchemaType::set_of_rcd())
            .unwrap();
        let g = b.build().unwrap();
        let s = SchemaStats::from_link_counts(
            &g,
            &[10, 20],
            &[LinkCount {
                from: g.root(),
                to: bid,
                count: 20,
            }],
        )
        .unwrap();
        (g, s)
    }

    #[test]
    fn two_node_fixed_point() {
        let (g, s) = two_node();
        let r = compute_importance(&g, &s, &ImportanceConfig::default());
        assert!(r.converged);
        // Each node's only neighbor is the other, so W = 1 both ways and the
        // fixed point is the average: 15 each.
        assert!((r.score(ElementId(0)) - 15.0).abs() < 0.1);
        assert!((r.score(ElementId(1)) - 15.0).abs() < 0.1);
    }

    #[test]
    fn mass_is_conserved() {
        let (g, s) = two_node();
        for p in [0.1, 0.5, 0.9] {
            let r = compute_importance(&g, &s, &ImportanceConfig::default().with_p(p));
            assert!((r.total() - s.total_card()).abs() < 1e-6, "p={p}");
        }
    }

    #[test]
    fn data_only_returns_cardinalities() {
        let (g, s) = two_node();
        let r = compute_importance(
            &g,
            &s,
            &ImportanceConfig::default().with_mode(ImportanceMode::DataOnly),
        );
        assert_eq!(r.score(ElementId(0)), 10.0);
        assert_eq!(r.score(ElementId(1)), 20.0);
        assert_eq!(r.iterations, 0);
    }

    #[test]
    fn schema_only_favors_connectivity() {
        // Star: hub with 4 leaves vs a chain node; hub must win even though
        // all cardinalities are ignored.
        let mut b = SchemaGraphBuilder::new("root");
        let hub = b.add_child(b.root(), "hub", SchemaType::rcd()).unwrap();
        for i in 0..4 {
            b.add_child(hub, format!("leaf{i}"), SchemaType::simple_str())
                .unwrap();
        }
        let lonely = b
            .add_child(b.root(), "lonely", SchemaType::simple_str())
            .unwrap();
        let g = b.build().unwrap();
        let card = vec![1u64; g.len()];
        let s = SchemaStats::from_link_counts(&g, &card, &[]).unwrap();
        let r = compute_importance(
            &g,
            &s,
            &ImportanceConfig::default().with_mode(ImportanceMode::SchemaOnly),
        );
        assert!(r.score(hub) > r.score(lonely));
    }

    #[test]
    fn high_rc_attracts_importance() {
        // root -> {popular*, niche*}: 100 popular instances, 1 niche.
        let mut b = SchemaGraphBuilder::new("root");
        let popular = b
            .add_child(b.root(), "popular", SchemaType::set_of_rcd())
            .unwrap();
        let niche = b
            .add_child(b.root(), "niche", SchemaType::set_of_rcd())
            .unwrap();
        let g = b.build().unwrap();
        let s = SchemaStats::from_link_counts(
            &g,
            &[1, 100, 1],
            &[
                LinkCount {
                    from: g.root(),
                    to: popular,
                    count: 100,
                },
                LinkCount {
                    from: g.root(),
                    to: niche,
                    count: 1,
                },
            ],
        )
        .unwrap();
        let r = compute_importance(&g, &s, &ImportanceConfig::default());
        assert!(r.score(popular) > 10.0 * r.score(niche));
    }

    #[test]
    fn ranking_excludes_root() {
        let (g, s) = two_node();
        let r = compute_importance(&g, &s, &ImportanceConfig::default());
        let ranked = r.ranked(&g);
        assert!(!ranked.contains(&g.root()));
        assert_eq!(ranked.len(), g.len() - 1);
        assert_eq!(r.top_k(&g, 1).len(), 1);
    }

    #[test]
    fn rebased_seed_covers_grown_schemas() {
        let (g, s) = two_node();
        let cfg = ImportanceConfig::default();
        let prev = compute_importance(&g, &s, &cfg);
        // Identity-prefix growth: re-declare a → b, append c under b.
        let mut b = SchemaGraphBuilder::new("a");
        let bid = b
            .add_child(b.root(), "b", SchemaType::set_of_rcd())
            .unwrap();
        let c = b.add_child(bid, "c", SchemaType::set_of_rcd()).unwrap();
        let g2 = b.build().unwrap();
        let s2 = SchemaStats::from_link_counts(
            &g2,
            &[10, 20, 40],
            &[
                LinkCount {
                    from: g2.root(),
                    to: bid,
                    count: 20,
                },
                LinkCount {
                    from: bid,
                    to: c,
                    count: 40,
                },
            ],
        )
        .unwrap();
        let cold = compute_importance(&g2, &s2, &cfg);
        let warm = compute_importance_rebased(&g2, &s2, prev.scores(), &s, &cfg);
        assert!(warm.converged);
        // Mass lands exactly on the new total (the seed is rescaled), and
        // the seeded run stops in the same ε-ball as the cold one.
        assert!((warm.total() - s2.total_card()).abs() < 1e-6);
        for i in 0..g2.len() {
            let e = ElementId(i as u32);
            assert!(
                (warm.score(e) - cold.score(e)).abs() <= 10.0 * cfg.epsilon,
                "element {i}: warm {} vs cold {}",
                warm.score(e),
                cold.score(e)
            );
        }
        assert!(warm.iterations <= cold.iterations);
    }

    #[test]
    fn rebased_seed_falls_back_on_shrunk_schemas() {
        // previous_stats wider than stats: no element-wise rebase exists;
        // the uniform-rescale fallback (or cold) must take over without
        // panicking on the length mismatch.
        let (g, s) = two_node();
        let cfg = ImportanceConfig::default();
        let mut b = SchemaGraphBuilder::new("a");
        let bid = b
            .add_child(b.root(), "b", SchemaType::set_of_rcd())
            .unwrap();
        let c = b.add_child(bid, "c", SchemaType::set_of_rcd()).unwrap();
        let g2 = b.build().unwrap();
        let s2 = SchemaStats::from_link_counts(
            &g2,
            &[10, 20, 40],
            &[
                LinkCount {
                    from: g2.root(),
                    to: bid,
                    count: 20,
                },
                LinkCount {
                    from: bid,
                    to: c,
                    count: 40,
                },
            ],
        )
        .unwrap();
        let wide = compute_importance(&g2, &s2, &cfg);
        let shrunk = compute_importance_rebased(&g, &s, wide.scores(), &s2, &cfg);
        assert!(shrunk.converged);
        assert!((shrunk.total() - s.total_card()).abs() < 1e-6);
    }

    #[test]
    fn isolated_elements_keep_mass() {
        // Graph with a single root and nothing else: no neighbors at all.
        let b = SchemaGraphBuilder::new("only");
        let g = b.build().unwrap();
        let s = SchemaStats::from_link_counts(&g, &[7], &[]).unwrap();
        let r = compute_importance(&g, &s, &ImportanceConfig::default());
        assert_eq!(r.score(g.root()), 7.0);
        assert!(r.converged);
    }

    #[test]
    fn seeded_restart_converges_faster_and_close() {
        let (g, s) = two_node();
        let cfg = ImportanceConfig::default();
        let cold = compute_importance(&g, &s, &cfg);
        // Perturb the statistics slightly (pure growth keeps RCs) and
        // restart from the old vector.
        let s2 = s.scaled(1.02);
        let cold2 = compute_importance(&g, &s2, &cfg);
        let warm2 = compute_importance_from(&g, &s2, cold.scores(), &cfg);
        assert!(warm2.converged);
        assert!(
            warm2.iterations <= cold2.iterations,
            "seeded {} vs cold {}",
            warm2.iterations,
            cold2.iterations
        );
        // Mass is conserved and the scores land in the same epsilon-ball.
        assert!((warm2.total() - s2.total_card()).abs() < 1e-6);
        for e in g.element_ids() {
            let (w, c) = (warm2.score(e), cold2.score(e));
            assert!((w - c).abs() <= c.abs().max(1.0) * 0.01, "{e}: {w} vs {c}");
        }
    }

    #[test]
    fn seeded_restart_with_degenerate_seed_falls_back_cold() {
        let (g, s) = two_node();
        let cfg = ImportanceConfig::default();
        let cold = compute_importance(&g, &s, &cfg);
        let zeroed = compute_importance_from(&g, &s, &vec![0.0; g.len()], &cfg);
        let short = compute_importance_from(&g, &s, &[1.0], &cfg);
        for e in g.element_ids() {
            assert_eq!(zeroed.score(e).to_bits(), cold.score(e).to_bits());
            assert_eq!(short.score(e).to_bits(), cold.score(e).to_bits());
        }
    }

    #[test]
    fn smaller_p_converges_slower() {
        // The paper observes slow convergence for p near 0.
        let (g, s) = two_node();
        let fast = compute_importance(&g, &s, &ImportanceConfig::default().with_p(0.9));
        let slow = compute_importance(&g, &s, &ImportanceConfig::default().with_p(0.05));
        assert!(slow.iterations >= fast.iterations);
    }
}
