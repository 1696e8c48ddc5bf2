//! `cold_catalog`: a closed loop on one connection streams distinct new
//! schemas. Each is registered in-process, then asked for a balance
//! summary (fully cold), a level stack (cold result on memoized matrices)
//! and a coverage summary (cold result on memoized matrices and
//! dominance). Nearly all the time is in the `algo` layers.

use crate::inputs::{cold_schema, Schema};
use crate::layers::warm_probe;
use crate::net::{Node, Op};
use crate::stats::{Rng, Windowed};
use crate::trace::{Trace, Tracer};
use crate::workload::{us_since, CheckGroup, Limit, PhaseOut, Workload};
use schema_summary_service::ServiceConfig;
use std::time::Instant;

/// First stream index of the untimed warm-up, far from the measured
/// indices so the warm-up never shares a schema with them.
const WARMUP_BASE: u64 = 1 << 40;
const WARMUP_SCHEMAS: u64 = 8;
/// One schema in this many has its replies checked in an untraced phase.
const CHECK_EVERY: u64 = 8;
/// Warm re-sends per schema in the traced phase, cycling through its
/// three requests: enough for a p99 of the warm round trip.
const WARM_PROBES: usize = 9;
/// Schemas per second of `--seconds` in each traced-run phase.
pub const TRACED_SCHEMAS_PER_S: f64 = 8.0;

pub struct Cold {
    node: Node,
    seed: u64,
}

impl Cold {
    pub fn setup(seed: u64) -> Self {
        let cold = Cold {
            node: Node::start(ServiceConfig::default()),
            seed,
        };
        cold.serve(WARMUP_BASE, Limit::Count(WARMUP_SCHEMAS), None);
        cold
    }

    fn ops(schema: &Schema) -> [Op; 3] {
        let name = || schema.name.clone();
        [
            Op::Summary {
                schema: name(),
                algorithm: "balance",
                k: 10,
            },
            Op::Levels {
                schema: name(),
                algorithm: "balance",
            },
            Op::Summary {
                schema: name(),
                algorithm: "coverage",
                k: 5,
            },
        ]
    }

    /// Serve stream schemas `first..` until `limit`.
    fn serve(&self, first: u64, limit: Limit, tracer: Option<&Tracer>) -> PhaseOut {
        let client = self.node.client();
        let service = &self.node.service;
        let mut out = PhaseOut::new(&self.node);
        let mut latency = [Windowed::default(), Windowed::default(), Windowed::default()];
        let mut served_at = Windowed::default();
        let mut sampler = Rng::new(self.seed, 4);
        let started = Instant::now();
        let mut last_end = started;
        let mut served = 0u64;
        while !limit.done(started, served) {
            let index = first + served;
            let schema = cold_schema(self.seed, index);
            let check = tracer.is_some() || sampler.next() % CHECK_EVERY == 0;
            let ops = Self::ops(&schema);
            let t = Trace::new(tracer, index);
            out.lag_us.push(us_since(last_end));
            let fp = service.register_named(
                schema.name.clone(),
                schema.graph.clone(),
                schema.stats.clone(),
            );
            let mut replies = Vec::new();
            for (op, samples) in ops.iter().zip(&mut latency) {
                out.attempted += 1;
                let sent = Instant::now();
                let at_s = (sent - started).as_secs_f64();
                match t.span("http.request", || client.send(op)) {
                    Ok(body) => {
                        samples.push(at_s, us_since(sent));
                        if check {
                            replies.push((op.clone(), body));
                        }
                    }
                    Err(e) => {
                        samples.push(at_s, f64::INFINITY);
                        out.fail(e);
                    }
                }
            }
            if tracer.is_some() {
                for op in ops.iter().cycle().take(WARM_PROBES) {
                    if let Err(e) = warm_probe(&client, service, op, t) {
                        out.fail(e);
                    }
                }
            }
            // Retire the schema from the catalog (its matrices are the
            // bulk of the memory); its results stay cached until evicted.
            service.catalog().remove(fp);
            if check {
                out.checks.push(CheckGroup {
                    schema,
                    previous: None,
                served_importance: None,
                    replies,
                });
            }
            served += 1;
            last_end = Instant::now();
            served_at.push((last_end - started).as_secs_f64(), 1.0);
        }
        let elapsed = started.elapsed().as_secs_f64();
        let [summary, levels, coverage] = latency.map(|w| (w.all(), w));
        let n = served as usize;
        let e = &mut out.e2e;
        e.add("p50_us", summary.1.quiet_quantile(elapsed, 0.5), "us", n);
        e.quantile("tail_us", &summary.0, 0.95, "us");
        e.add("second_p50_us", coverage.1.quiet_quantile(elapsed, 0.5), "us", n);
        e.add("ops_per_s", served_at.quiet_rate(elapsed), "1/s", n);
        let (summary, levels, coverage) = (&summary.0, &levels.0, &coverage.0);
        let x = &mut out.extra;
        x.add("cold_summary_p50_ms", summary.p50() / 1e3, "ms", summary.len());
        x.add("cold_summary_p95_ms", summary.quantile(0.95) / 1e3, "ms", summary.len());
        x.add("cold_levels_p50_ms", levels.p50() / 1e3, "ms", levels.len());
        x.add("cold_coverage_p50_ms", coverage.p50() / 1e3, "ms", coverage.len());
        x.add("cold_schemas_per_s", served as f64 / elapsed, "1/s", served as usize);
        out.finish(&self.node)
    }
}

impl Workload for Cold {
    fn run(&self, limit: Limit, tracer: Option<&Tracer>) -> PhaseOut {
        self.serve(0, limit, tracer)
    }
}
