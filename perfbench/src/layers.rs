//! The traced run's layer probes. Spans wrap the benchmark's own calls
//! into each layer's public functions, from outside the program:
//! `service::http` (client round trips), `service` / `store` / `catalog`
//! (in-process `handle_request`, `register_named`), `core` (fingerprint,
//! diff) and `algo` (importance, matrices, dominance, selection,
//! assignment, multi-level, incremental splice).

use crate::check::Reference;
use crate::inputs::Schema;
use crate::workload::CheckGroup;
use crate::net::{Client, Op, LEVELS};
use crate::report::Metrics;
use crate::stats::Samples;
use crate::trace::{Trace, Tracer};
use schema_summary_algo::importance::{compute_importance, compute_importance_rebased};
use schema_summary_algo::{
    balance_summary, plan_delta, refresh_multi_level, DominanceSet, SummarizerConfig,
};
use schema_summary_core::{SchemaDelta, SchemaFingerprint};
use schema_summary_service::{CacheStats, HttpServerStats, ServedReply, SummaryService};
use std::collections::HashSet;
use std::sync::Arc;

/// Work counts of the traced sweep. They depend only on the seeded inputs,
/// so they repeat exactly across runs with the same seed.
#[derive(Default)]
pub struct SweepCounts {
    pub importance_iterations: u64,
    pub expansions: u64,
    pub dominance_pairs: u64,
    pub rows_recomputed: u64,
    pub rows_total: u64,
    pub seeded_iterations: u64,
    pub cold_iterations: u64,
}

/// The outcome of checking one [`CheckGroup`].
pub struct Verified {
    /// The public-API artifacts the replies were checked against.
    pub reference: Reference,
    /// Replies that differ from what the service should have answered.
    pub mismatches: Vec<String>,
    /// For a version reached by a warm refresh: replies that differ from a
    /// fresh cold computation (reported, not failed; see
    /// `evolve::served_importance`).
    pub diverged_from_cold: usize,
}

/// Check a group's replies (the first a flat request) against the public
/// API. Traced, it also times the service's own cold path for the first
/// request on a fresh in-process service, and wraps the layer calls that
/// answer that request in one `pipeline` span so their sum can be set
/// against `service.handle_cold`.
pub fn verify(group: &CheckGroup, t: Trace, counts: &mut SweepCounts) -> Verified {
    let (schema, replies) = (&group.schema, &group.replies);
    if t.tracer.is_some() {
        t.span("core.fingerprint", || {
            SchemaFingerprint::of_annotated(&schema.graph, &schema.stats)
        });
        let service = SummaryService::default();
        t.span("catalog.register", || {
            service.register_named(
                schema.name.clone(),
                Arc::clone(&schema.graph),
                Arc::clone(&schema.stats),
            )
        });
        if let Some((op, _)) = replies.first() {
            let request = op.request();
            t.span("service.handle_cold", || service.handle_request(&request))
                .expect("in-process cold request succeeds");
        }
    }
    // A reply identical to one already checked for the same request needs
    // no second comparison.
    let mut seen: HashSet<(String, &[u8])> = HashSet::new();
    let distinct: Vec<&(Op, Vec<u8>)> = replies
        .iter()
        .filter(|(op, body)| seen.insert((format!("{op:?}"), body.as_slice())))
        .collect();
    let (mut reference, first) = t.nest("pipeline", |t| {
        let reference = Reference::new(schema, t);
        let first = distinct.first().map(|(op, body)| reference.check(op, body, t));
        (reference, first)
    });
    let mut cold: Vec<Result<(), String>> = first.into_iter().collect();
    cold.extend(distinct.iter().skip(1).map(|(op, body)| reference.check(op, body, t)));
    let has_coverage = replies
        .iter()
        .any(|(op, _)| matches!(op, Op::Summary { algorithm: "coverage", .. }));
    if t.tracer.is_some() && !has_coverage {
        // Every swept schema times the coverage selection once.
        reference.select("coverage", 5, t);
    }
    if t.tracer.is_some() {
        counts.importance_iterations += reference.importance.iterations as u64;
        counts.expansions += reference.matrices.expansions();
        counts.dominance_pairs += reference.dominance.checked_pairs as u64;
    }
    let mut diverged_from_cold = 0;
    let results = match &group.served_importance {
        None => cold,
        Some(served) => {
            diverged_from_cold = cold.iter().filter(|r| r.is_err()).count();
            reference.set_importance(served.clone());
            distinct
                .iter()
                .map(|(op, body)| reference.check(op, body, Trace::OFF))
                .collect()
        }
    };
    let mismatches = results
        .into_iter()
        .filter_map(Result::err)
        .map(|e| format!("{}: {e}", schema.name))
        .collect();
    Verified {
        reference,
        mismatches,
        diverged_from_cold,
    }
}

/// Walk the warm refresh path for `old → new` through the public API:
/// classify the delta, plan it against the old matrices, splice, restart
/// the importance fixpoint from the old vector, and patch the multi-level
/// stack. A delta that does not plan (destructive) stops after the plan,
/// as the service falls back cold there.
pub fn refresh_probe(
    old: &Schema,
    new: &Schema,
    old_ref: &Reference,
    t: Trace,
    counts: &mut SweepCounts,
) {
    let config = SummarizerConfig::default();
    let delta = t.span("diff.classify", || {
        SchemaDelta::compute(&old.graph, &old.stats, &new.graph, &new.stats)
    });
    let plan = t.span("incremental.plan", || {
        plan_delta(
            &delta,
            &old.graph,
            &old.stats,
            &new.graph,
            &new.stats,
            &old_ref.matrices,
            &config.paths,
            1.0,
        )
    });
    let seeded = t.span("importance.seeded", || {
        compute_importance_rebased(
            &new.graph,
            &new.stats,
            old_ref.importance.scores(),
            &old.stats,
            &config.importance,
        )
    });
    counts.seeded_iterations += seeded.iterations as u64;
    counts.cold_iterations +=
        compute_importance(&new.graph, &new.stats, &config.importance).iterations as u64;
    let Some(plan) = plan else { return };
    counts.rows_recomputed += plan.rows as u64;
    counts.rows_total += new.graph.len() as u64;
    let Some(matrices) = t.span("incremental.splice", || {
        old_ref
            .matrices
            .splice(&new.stats, &config.paths, &plan.recompute)
    }) else {
        return;
    };
    let previous = old_ref.stack("balance", Trace::OFF);
    let dominance = DominanceSet::compute(&new.graph, &new.stats, &matrices);
    let selection = balance_summary(&new.graph, &seeded, &dominance, LEVELS[0])
        .expect("selection on a refreshed schema succeeds");
    let changed = if plan.rescaled {
        vec![true; plan.recompute.len()]
    } else {
        plan.recompute
    };
    t.span("multilevel.refresh", || {
        refresh_multi_level(
            &new.graph,
            &matrices,
            &selection,
            &LEVELS[1..],
            &previous,
            &changed,
        )
    })
    .expect("stack refresh succeeds");
}

/// The reply body the HTTP front-end encodes for `reply`.
fn encode(reply: &ServedReply) -> String {
    match reply {
        ServedReply::Flat(flat) => serde_json::to_string(flat.result.as_ref()),
        ServedReply::MultiLevel(ml) => serde_json::to_string(&ml.result.view),
        ServedReply::Expansion(exp) => serde_json::to_string(&exp.result),
    }
    .expect("replies serialize")
}

/// Re-send `op`, just answered, over HTTP (a guaranteed warm hit), then
/// answer it in-process on the same service: the difference is the
/// front-end's share of a warm request.
pub fn warm_probe(client: &Client, service: &SummaryService, op: &Op, t: Trace) -> Result<(), String> {
    t.span("http.warm", || client.send(op))?;
    inproc_probe(service, op, t)
}

/// Answer `op` in-process (a warm hit) and encode the reply as the front-end
/// would.
pub fn inproc_probe(service: &SummaryService, op: &Op, t: Trace) -> Result<(), String> {
    let request = op.request();
    let reply = t
        .span("service.handle_warm", || service.handle_request(&request))
        .map_err(|e| format!("in-process warm request failed: {e}"))?;
    t.span("http.encode", || encode(&reply));
    Ok(())
}

/// Everything the traced run reports, by layer.
pub struct LayerInputs<'a> {
    pub tracer: &'a Tracer,
    pub counts: &'a SweepCounts,
    pub cache: &'a CacheStats,
    pub http: &'a HttpServerStats,
    pub lag_us: &'a Samples,
    /// Headline p50 of the traced phase over that of the untraced phase,
    /// minus one.
    pub overhead_frac: f64,
}

pub fn layer_metrics(x: &LayerInputs) -> Metrics {
    let us = |name| x.tracer.durations(name, 1e6);
    let ms = |name| x.tracer.durations(name, 1e3);
    let c = x.counts;
    let mut m = Metrics::default();

    let rtt = us("http.warm");
    let warm = us("service.handle_warm");
    m.quantile("http.rtt_us.p50", &rtt, 0.5, "us");
    m.quantile("http.rtt_us.p99", &rtt, 0.99, "us");
    m.add("http.overhead_us", rtt.p50() - warm.p50(), "us", rtt.len());
    m.quantile("http.encode_us", &us("http.encode"), 0.5, "us");
    m.count("http.served", x.http.served);
    m.count("http.shed", x.http.shed);
    m.count("http.timed_out", x.http.timed_out);

    m.quantile("service.handle_warm_us", &warm, 0.5, "us");
    let cold = ms("service.handle_cold");
    m.quantile("service.handle_cold_ms", &cold, 0.5, "ms");
    let lookups = x.cache.hits + x.cache.misses;
    m.count("store.hits", x.cache.hits);
    m.count("store.misses", x.cache.misses);
    m.count("store.lookups", lookups);
    m.add("store.hit_ratio", x.cache.hit_rate(), "frac", lookups as usize);
    m.count("store.evictions", x.cache.evictions);
    m.quantile("catalog.register_us", &us("catalog.register"), 0.5, "us");
    m.quantile("core.fingerprint_us", &us("core.fingerprint"), 0.5, "us");
    m.count("catalog.matrices_computed", x.cache.matrices_computed);

    m.quantile("importance.cold_us", &us("importance.cold"), 0.5, "us");
    m.count("importance.iterations", c.importance_iterations);
    let matrices = ms("matrices.compute");
    m.quantile("matrices.compute_ms", &matrices, 0.5, "ms");
    m.quantile("matrices.compute_ms.p95", &matrices, 0.95, "ms");
    m.count("matrices.expansions", c.expansions);
    m.quantile("dominance.compute_ms", &ms("dominance.compute"), 0.5, "ms");
    m.count("dominance.pairs", c.dominance_pairs);
    m.quantile("select.balance_us", &us("select.balance"), 0.5, "us");
    m.quantile("select.coverage_ms", &ms("select.coverage"), 0.5, "ms");
    m.quantile("assign.elements_us", &us("assign.elements"), 0.5, "us");
    m.quantile("assign.coverage_us", &us("assign.coverage"), 0.5, "us");
    m.quantile("multilevel.build_us", &us("multilevel.build"), 0.5, "us");

    m.quantile("diff.classify_us", &us("diff.classify"), 0.5, "us");
    m.quantile("incremental.plan_us", &us("incremental.plan"), 0.5, "us");
    m.quantile("incremental.splice_ms", &ms("incremental.splice"), 0.5, "ms");
    m.add(
        "incremental.rows_recomputed_frac",
        c.rows_recomputed as f64 / c.rows_total.max(1) as f64,
        "frac",
        c.rows_total as usize,
    );
    m.count("incremental.rows_total", c.rows_total);
    m.quantile("importance.seeded_us", &us("importance.seeded"), 0.5, "us");
    m.add(
        "importance.seeded_iter_ratio",
        c.seeded_iterations as f64 / c.cold_iterations.max(1) as f64,
        "frac",
        c.cold_iterations as usize,
    );
    m.quantile("multilevel.refresh_us", &us("multilevel.refresh"), 0.5, "us");
    m.count("store.delta_warm.rescale", x.cache.delta_refreshes_rescale);
    m.count("store.delta_warm.splice", x.cache.delta_refreshes_splice);
    m.count("store.delta_warm.structural", x.cache.delta_refreshes_structural);
    m.count("store.delta_fallback_cold", x.cache.delta_fallback_cold);
    m.count("disk.writes", x.cache.disk_writes);
    m.add("disk.bytes", x.cache.disk_bytes as f64, "bytes", 1);

    m.quantile("gen.lag_us.p99", x.lag_us, 0.99, "us");
    let pipeline_ms: f64 = ms("pipeline").sum();
    let pipeline_self_ms = x
        .tracer
        .self_times()
        .get("pipeline")
        .map_or(0.0, |&(_, s)| s * 1e3);
    let covered = pipeline_ms - pipeline_self_ms;
    m.add(
        "trace.unattributed_frac",
        1.0 - covered / cold.sum(),
        "frac",
        cold.len(),
    );
    m.add("trace.overhead_frac", x.overhead_frac, "frac", 2);
    m
}
