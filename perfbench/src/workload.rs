//! What every workload provides to the driver in `main.rs`.

use crate::inputs::Schema;
use crate::net::{Node, Op, LEVELS};
use crate::report::Metrics;
use crate::stats::{Rng, Samples};
use crate::trace::Tracer;
use schema_summary_algo::ImportanceResult;
use schema_summary_service::{CacheStats, HttpServerStats};
use std::time::{Duration, Instant};

/// When a measured phase ends.
#[derive(Clone, Copy)]
pub enum Limit {
    /// After this much wall time (the `--seconds` runs).
    Time(Duration),
    /// After this many operations (the traced run's phases, so that their
    /// counts repeat exactly).
    Count(u64),
}

impl Limit {
    pub fn done(&self, started: Instant, count: u64) -> bool {
        match *self {
            Limit::Time(d) => started.elapsed() >= d,
            Limit::Count(n) => count >= n,
        }
    }
}

/// Replies to check against the public-API answers for one schema
/// version. `previous` is the version it replaced, when it arrived by a
/// refresh; `served_importance` is the importance vector the service then
/// holds when that refresh was warm (see `evolve::served_importance`).
pub struct CheckGroup {
    pub schema: Schema,
    pub previous: Option<Schema>,
    pub served_importance: Option<ImportanceResult>,
    pub replies: Vec<(Op, Vec<u8>)>,
}

/// What one measured phase produced.
pub struct PhaseOut {
    /// The end-to-end metrics every workload reports (`setup_s` and
    /// `peak_rss_mb` are added by the driver).
    pub e2e: Metrics,
    /// The workload's own end-to-end figures, printed but not compared.
    pub extra: Metrics,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub lag_us: Samples,
    pub checks: Vec<CheckGroup>,
    pub cache: CacheStats,
    pub http: HttpServerStats,
}

impl PhaseOut {
    /// Record one failed operation; keep the first few messages.
    pub fn fail(&mut self, error: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(error);
        }
    }

    /// An empty result; `node`'s counters are taken again by
    /// [`PhaseOut::finish`].
    pub fn new(node: &Node) -> Self {
        PhaseOut {
            e2e: Metrics::default(),
            extra: Metrics::default(),
            attempted: 0,
            failed: 0,
            errors: Vec::new(),
            lag_us: Samples::default(),
            checks: Vec::new(),
            cache: node.service.cache_stats(),
            http: node.server.stats(),
        }
    }

    /// Take the service and server counters at the end of the phase.
    pub fn finish(mut self, node: &Node) -> Self {
        self.cache = node.service.cache_stats();
        self.http = node.server.stats();
        self
    }
}

pub trait Workload {
    /// Run one measured phase. With a tracer, the phase records client
    /// spans and probes warm requests in-process.
    fn run(&self, limit: Limit, tracer: Option<&Tracer>) -> PhaseOut;
}

/// One request of the interactive drill-down mix: mostly `expand`, some
/// `levels` and flat summaries, across `algorithms`.
pub fn drill_op(rng: &mut Rng, schema: &str, algorithms: &[&'static str]) -> Op {
    let algorithm = algorithms[rng.range(0, algorithms.len())];
    let schema = schema.to_string();
    let x = rng.unit();
    if x < 0.7 {
        let level = rng.range(0, LEVELS.len());
        Op::Expand {
            schema,
            algorithm,
            level,
            group: rng.range(0, LEVELS[level]),
        }
    } else if x < 0.85 {
        Op::Levels { schema, algorithm }
    } else {
        Op::Summary {
            schema,
            algorithm,
            k: [5, 10][rng.range(0, 2)],
        }
    }
}

/// Microseconds since `t`.
pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}
