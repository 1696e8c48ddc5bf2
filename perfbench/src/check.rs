//! Output checks: every sampled HTTP reply is compared with the answer the
//! public algorithm API computes cold on the same graph and statistics.
//! In the traced run the same calls carry the per-layer spans.

use crate::inputs::Schema;
use crate::net::{Op, LEVELS};
use crate::trace::Trace;
use schema_summary_algo::assignment::{assign_elements, summary_coverage, summary_importance};
use schema_summary_algo::importance::compute_importance;
use schema_summary_algo::{
    balance_summary, build_multi_level, max_coverage, max_importance, DominanceSet,
    ImportanceResult, MultiLevelSummary, PairMatrices, SummarizerConfig,
};
use schema_summary_core::{AbstractId, ElementId, SchemaGraph, SchemaStats};
use schema_summary_service::{ExpandResult, MultiLevelResult, SummaryResult};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Relative tolerance on a flat reply's summary importance. A warm
/// refresh restarts the importance fixpoint from the previous version's
/// vector and stops inside the same convergence ball as a cold run, not at
/// the same point (ten times the default `ImportanceConfig::epsilon`).
const IMPORTANCE_TOLERANCE: f64 = 1e-2;

/// The cold artifacts of one schema, computed through the public API.
pub struct Reference {
    pub graph: Arc<SchemaGraph>,
    pub stats: Arc<SchemaStats>,
    pub importance: ImportanceResult,
    pub matrices: PairMatrices,
    pub dominance: DominanceSet,
    /// Multi-level stacks already built, by algorithm: every expand of one
    /// stack is checked against one build.
    stacks: RefCell<HashMap<&'static str, Rc<MultiLevelSummary>>>,
}

impl Reference {
    pub fn new(schema: &Schema, t: Trace) -> Self {
        let config = SummarizerConfig::default();
        let (graph, stats) = (&schema.graph, &schema.stats);
        let importance = t.span("importance.cold", || {
            compute_importance(graph, stats, &config.importance)
        });
        let matrices = t.span("matrices.compute", || {
            PairMatrices::compute(stats, &config.paths)
        });
        let dominance = t.span("dominance.compute", || {
            DominanceSet::compute(graph, stats, &matrices)
        });
        Reference {
            graph: Arc::clone(graph),
            stats: Arc::clone(stats),
            importance,
            matrices,
            dominance,
            stacks: RefCell::default(),
        }
    }

    /// Check against `importance` in place of the cold vector: the vector
    /// the service holds after a warm refresh.
    pub fn set_importance(&mut self, importance: ImportanceResult) {
        self.importance = importance;
        self.stacks.borrow_mut().clear();
    }

    pub fn select(&self, algorithm: &str, k: usize, t: Trace) -> Vec<ElementId> {
        let g = &self.graph;
        match algorithm {
            "balance" => t.span("select.balance", || {
                balance_summary(g, &self.importance, &self.dominance, k)
            }),
            "coverage" => t.span("select.coverage", || {
                let search = SummarizerConfig::default().search;
                max_coverage(g, &self.stats, &self.matrices, &self.dominance, k, search)
            }),
            _ => t.span("select.importance", || max_importance(g, &self.importance, k)),
        }
        .expect("reference selection succeeds on a valid k")
    }

    pub fn stack(&self, algorithm: &'static str, t: Trace) -> Rc<MultiLevelSummary> {
        if let Some(stack) = self.stacks.borrow().get(algorithm) {
            return Rc::clone(stack);
        }
        let selection = self.select(algorithm, LEVELS[0], t);
        let stack = t
            .span("multilevel.build", || {
                build_multi_level(&self.graph, &self.matrices, &selection, &LEVELS[1..])
            })
            .expect("reference stack builds");
        let stack = Rc::new(stack);
        self.stacks.borrow_mut().insert(algorithm, Rc::clone(&stack));
        stack
    }

    /// Compare one reply body with the cold answer to `op`.
    pub fn check(&self, op: &Op, body: &[u8], t: Trace) -> Result<(), String> {
        let text = std::str::from_utf8(body).map_err(|_| "reply is not UTF-8".to_string())?;
        let g = &self.graph;
        let label = |e: ElementId| g.label_path(e);
        match op {
            Op::Summary { algorithm, k, .. } => {
                let reply: SummaryResult =
                    serde_json::from_str(text).map_err(|e| format!("summary reply: {e}"))?;
                let selection = self.select(algorithm, *k, t);
                let assignment = t.span("assign.elements", || {
                    assign_elements(g, &self.matrices, &selection)
                });
                let (coverage, importance) = t.span("assign.coverage", || {
                    (
                        summary_coverage(g, &self.stats, &self.matrices, &selection, &assignment),
                        summary_importance(g, &self.importance, &selection),
                    )
                });
                let labels: Vec<String> = selection.iter().map(|&e| label(e)).collect();
                if reply.labels != labels {
                    return Err(format!("{op:?}: labels {:?} != {labels:?}", reply.labels));
                }
                if reply.coverage.to_bits() != coverage.to_bits() {
                    return Err(format!("{op:?}: coverage {} != {coverage}", reply.coverage));
                }
                if (reply.importance - importance).abs() > IMPORTANCE_TOLERANCE * importance.abs()
                {
                    return Err(format!(
                        "{op:?}: importance {} != {importance}",
                        reply.importance
                    ));
                }
            }
            Op::Levels { algorithm, .. } => {
                let reply: MultiLevelResult =
                    serde_json::from_str(text).map_err(|e| format!("levels reply: {e}"))?;
                let stack = self.stack(algorithm, t);
                let expected: Vec<Vec<(String, usize)>> = stack
                    .levels()
                    .iter()
                    .map(|level| {
                        level
                            .abstracts()
                            .iter()
                            .map(|a| (label(a.representative), a.members.len()))
                            .collect()
                    })
                    .collect();
                let got: Vec<Vec<(String, usize)>> = reply
                    .levels
                    .iter()
                    .map(|level| {
                        level
                            .groups
                            .iter()
                            .map(|g| (g.representative.clone(), g.size))
                            .collect()
                    })
                    .collect();
                if got != expected {
                    return Err(format!("{op:?}: levels {got:?} != {expected:?}"));
                }
            }
            Op::Expand {
                algorithm,
                level,
                group,
                ..
            } => {
                let reply: ExpandResult =
                    serde_json::from_str(text).map_err(|e| format!("expand reply: {e}"))?;
                let stack = self.stack(algorithm, t);
                let expanded = &stack.level(*level).abstracts()[*group];
                let (children, elements): (Vec<(String, usize)>, Vec<String>) = if *level == 0 {
                    (Vec::new(), expanded.members.iter().map(|&e| label(e)).collect())
                } else {
                    let fine = stack.level(level - 1);
                    let children = stack
                        .child_groups(level - 1, AbstractId(*group as u32))
                        .into_iter()
                        .map(|c| {
                            let child = &fine.abstracts()[c.index()];
                            (label(child.representative), child.members.len())
                        })
                        .collect();
                    (children, Vec::new())
                };
                let got_children: Vec<(String, usize)> = reply
                    .children
                    .iter()
                    .map(|c| (c.representative.clone(), c.size))
                    .collect();
                if reply.representative != label(expanded.representative)
                    || got_children != children
                    || reply.elements != elements
                {
                    return Err(format!("{op:?}: expansion differs from the cold stack"));
                }
            }
        }
        Ok(())
    }
}
