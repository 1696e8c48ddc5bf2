//! `warm_drilldown`: a fixed catalog, pre-warmed during set-up, answers a
//! Zipf-skewed drill-down mix on `nproc` closed-loop connections. Every
//! request is a cache hit, so this measures the HTTP front-end and the
//! store's hit path; nothing in `algo` runs.

use crate::inputs::{warm_catalog, Schema};
use crate::layers::inproc_probe;
use crate::net::{nproc, Node, Op};
use crate::stats::{Rng, Samples, Windowed};
use crate::trace::{Trace, Tracer};
use crate::workload::{drill_op, us_since, CheckGroup, Limit, PhaseOut, Workload};
use schema_summary_service::ServiceConfig;
use std::sync::Mutex;
use std::time::Instant;

/// Untimed warm-up requests per connection.
const WARMUP_REQUESTS: u64 = 2_000;
/// One reply in this many is kept for the output check.
const CHECK_EVERY: u64 = 64;
/// One request in this many is also answered in-process when traced.
const PROBE_EVERY: u64 = 32;
/// The drill-down mix spans all three algorithms.
const ALGORITHMS: [&str; 3] = ["balance", "importance", "coverage"];
/// Zipf exponent of the schema popularity.
const ZIPF_S: f64 = 1.1;
/// Requests per connection per second of `--seconds` in each traced-run
/// phase.
pub const TRACED_REQUESTS_PER_S: f64 = 2_000.0;

pub struct Warm {
    node: Node,
    seed: u64,
    catalog: Vec<Schema>,
    /// The set-up's pre-warm replies, per catalog schema, balance summary
    /// first.
    prewarm: Vec<Vec<(Op, Vec<u8>)>>,
}

impl Warm {
    pub fn setup(seed: u64) -> Self {
        let node = Node::start(ServiceConfig::default());
        let catalog = warm_catalog(seed);
        let client = node.client();
        let mut prewarm = Vec::new();
        for schema in &catalog {
            node.service.register_named(
                schema.name.clone(),
                schema.graph.clone(),
                schema.stats.clone(),
            );
            let mut replies = Vec::new();
            for algorithm in ["balance", "coverage", "importance"] {
                let schema = schema.name.clone();
                let ops = [5, 10]
                    .map(|k| Op::Summary {
                        schema: schema.clone(),
                        algorithm,
                        k,
                    })
                    .into_iter()
                    .rev()
                    .chain([Op::Levels { schema, algorithm }]);
                for op in ops {
                    let body = client.send(&op).expect("pre-warm request succeeds");
                    replies.push((op, body));
                }
            }
            prewarm.push(replies);
        }
        let warm = Warm {
            node,
            seed,
            catalog,
            prewarm,
        };
        warm.serve(u64::MAX / 2, Limit::Count(WARMUP_REQUESTS), None);
        warm
    }

    /// Drive every connection until `limit` (per connection for a count).
    fn serve(&self, stream: u64, limit: Limit, tracer: Option<&Tracer>) -> PhaseOut {
        let out = Mutex::new(PhaseOut::new(&self.node));
        let latency = Mutex::new(Windowed::default());
        let levels = Mutex::new(Windowed::default());
        let sampled = Mutex::new(vec![Vec::new(); self.catalog.len()]);
        let started = Instant::now();
        std::thread::scope(|s| {
            for connection in 0..nproc() as u64 {
                let (out, latency, levels, sampled) = (&out, &latency, &levels, &sampled);
                s.spawn(move || {
                    let client = self.node.client();
                    let mut rng = Rng::new(self.seed, stream + connection);
                    let mut mine = Windowed::default();
                    let mut mine_levels = Windowed::default();
                    let mut lag = Samples::default();
                    let mut kept = Vec::new();
                    let mut failures = Vec::new();
                    let mut last_end = Instant::now();
                    let mut sent_count = 0u64;
                    while !limit.done(started, sent_count) {
                        let which = rng.zipf(self.catalog.len(), ZIPF_S);
                        let op = drill_op(&mut rng, &self.catalog[which].name, &ALGORITHMS);
                        let keep = rng.next() % CHECK_EVERY == 0;
                        let t = Trace::new(tracer, (connection << 40) | sent_count);
                        lag.push(us_since(last_end));
                        let sent = Instant::now();
                        let result = t.span("http.warm", || client.send(&op));
                        let at_s = (sent - started).as_secs_f64();
                        match result {
                            Ok(body) => {
                                let us = us_since(sent);
                                mine.push(at_s, us);
                                if matches!(op, Op::Levels { .. }) {
                                    mine_levels.push(at_s, us);
                                }
                                if keep {
                                    kept.push((which, op.clone(), body));
                                }
                            }
                            Err(e) => {
                                mine.push(at_s, f64::INFINITY);
                                failures.push(e);
                            }
                        }
                        if tracer.is_some() && sent_count % PROBE_EVERY == 0 {
                            if let Err(e) = inproc_probe(&self.node.service, &op, t) {
                                failures.push(e);
                            }
                        }
                        sent_count += 1;
                        last_end = Instant::now();
                    }
                    let mut out = out.lock().expect("phase result poisoned");
                    out.attempted += sent_count;
                    out.lag_us.extend(&lag);
                    for e in failures {
                        out.fail(e);
                    }
                    latency.lock().expect("latency poisoned").merge(mine);
                    levels.lock().expect("latency poisoned").merge(mine_levels);
                    let mut sampled = sampled.lock().expect("samples poisoned");
                    for (which, op, body) in kept {
                        sampled[which].push((op, body));
                    }
                });
            }
        });
        let elapsed = started.elapsed().as_secs_f64();
        let mut out = out.into_inner().expect("phase result poisoned");
        let latency = latency.into_inner().expect("latency poisoned");
        let levels = levels.into_inner().expect("latency poisoned");
        let n = out.attempted as usize;
        let rps = latency.quiet_rate(elapsed);
        let e = &mut out.e2e;
        e.add("p50_us", latency.quiet_quantile(elapsed, 0.5), "us", n);
        e.add("tail_us", latency.quiet_quantile(elapsed, 0.99), "us", n);
        e.add("second_p50_us", levels.quiet_quantile(elapsed, 0.5), "us", levels.all().len());
        e.add("ops_per_s", rps, "1/s", n);
        let all = latency.all();
        let x = &mut out.extra;
        x.add("warm_rps", rps, "1/s", n);
        x.quantile("warm_p50_us", &all, 0.5, "us");
        x.quantile("warm_p99_us", &all, 0.99, "us");
        let sampled = sampled.into_inner().expect("samples poisoned");
        for ((schema, prewarm), sampled) in self.catalog.iter().zip(&self.prewarm).zip(sampled) {
            out.checks.push(CheckGroup {
                schema: schema.clone(),
                previous: None,
                served_importance: None,
                replies: prewarm.iter().cloned().chain(sampled).collect(),
            });
        }
        out.finish(&self.node)
    }
}

impl Workload for Warm {
    fn run(&self, limit: Limit, tracer: Option<&Tracer>) -> PhaseOut {
        self.serve(0, limit, tracer)
    }
}
