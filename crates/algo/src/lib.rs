//! Summarization algorithms (Sections 3 and 4 of the paper).
//!
//! This crate implements every formula and algorithm of *Schema
//! Summarization*:
//!
//! * [`importance`] — schema element importance (Formula 1), the
//!   PageRank-style iteration seeded with database cardinalities;
//! * [`paths`] — the simple-path engine underlying affinity and coverage;
//! * [`matrices`] — all-pairs element affinity (Formula 2) and element
//!   coverage (Formula 3);
//! * [`assignment`] — grouping of schema elements under summary elements by
//!   maximum affinity, and summary coverage (Definition 4);
//! * [`dominance`] — coverage dominance (Theorem 1) with the paper's
//!   ancestor–descendant pruning heuristic;
//! * [`algorithms`] — `MaxImportance` (Figure 4), `MaxCoverage` (Figure 6),
//!   and `BalanceSummary` (Figure 7);
//! * [`builder`] — materializing a selected element set into a validated
//!   [`schema_summary_core::SchemaSummary`];
//! * [`summarizer`] — a caching facade tying everything together.
//!
//! # Quick start
//!
//! ```
//! use schema_summary_core::{SchemaGraphBuilder, SchemaType, SchemaStats};
//! use schema_summary_algo::{Summarizer, Algorithm};
//!
//! let mut b = SchemaGraphBuilder::new("db");
//! let people = b.add_child(b.root(), "people", SchemaType::rcd()).unwrap();
//! let person = b.add_child(people, "person", SchemaType::set_of_rcd()).unwrap();
//! let name = b.add_child(person, "name", SchemaType::simple_str()).unwrap();
//! let graph = b.build().unwrap();
//! let stats = SchemaStats::uniform(&graph);
//!
//! let mut s = Summarizer::new(&graph, &stats);
//! let summary = s.summarize(1, Algorithm::Balance).unwrap();
//! assert_eq!(summary.size(), 1);
//! summary.validate(&graph).unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod algorithms;
pub mod assignment;
pub mod builder;
pub mod dominance;
pub mod explain;
pub mod history;
pub mod importance;
pub mod incremental;
pub mod matrices;
pub mod monitor;
pub mod multilevel;
pub mod paths;
pub mod summarizer;

pub use algorithms::{balance_summary, max_coverage, max_importance, random_select, SetSearch};
pub use dominance::DominanceSet;
pub use explain::{explain, Explanation};
pub use history::{compute_importance_with_history, QueryHistory};
pub use importance::{ImportanceConfig, ImportanceMode, ImportanceResult};
pub use incremental::{plan_delta, DeltaPlan};
pub use matrices::{PairMatrices, DEFAULT_SOURCE_BATCH};
pub use monitor::{RefreshReport, SummaryMonitor};
pub use multilevel::{build_multi_level, refresh_multi_level, MultiLevelSummary};
pub use paths::{Explorer, PathConfig, PathLength};
pub use summarizer::{Algorithm, Summarizer, SummarizerConfig};
