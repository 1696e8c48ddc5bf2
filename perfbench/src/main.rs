//! The repository's benchmark: seeded workloads against an `HttpServer`
//! over a `SummaryService` on loopback, with output checks against the
//! public algorithm API.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--repeat <runs>]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics for `--seconds`. `--trace 1`
//! runs the workload twice on fresh services for a fixed operation count,
//! untraced then traced, and reports the per-layer metrics from spans the
//! benchmark records around its own calls into each layer. `--repeat`
//! runs the untraced measurement that many times in fresh processes, one
//! seed after another, and prints each metric's median and quartiles.
//! The last line of a measurement is one JSON object; METRICS.md maps
//! every metric to its layer and workload.

mod check;
mod cold;
mod evolve;
mod inputs;
mod layers;
mod net;
mod report;
mod stats;
mod trace;
mod warm;
mod workload;

use check::Reference;
use inputs::Schema;
use layers::{layer_metrics, refresh_probe, verify, LayerInputs, SweepCounts};
use report::{json_line, Metrics};
use stats::{peak_rss_mb, Samples};
use std::process::{exit, Command};
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Trace, Tracer};
use workload::{CheckGroup, Limit, PhaseOut, Workload};

const WORKLOADS: [&str; 3] = ["cold_catalog", "warm_drilldown", "evolving_schemas"];
/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// A run whose generator ran later than this at p99 is flagged by
/// `--repeat` instead of counted.
const LAG_LIMIT_US: f64 = 2_000.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        repeat: None,
    };
    let mut i = 0;
    while i < argv.len() {
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("{} needs a value", argv[i]))?;
        let bad = |what: &str| format!("{what}: cannot parse '{value}'");
        match argv[i].as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("--seed"))?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad("--seconds"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("--trace")),
                }
            }
            "--repeat" => args.repeat = Some(value.parse().map_err(|_| bad("--repeat"))?),
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 2;
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, not '{}'",
            args.workload
        ));
    }
    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(args)
}

/// Operations in each phase of a traced run: sized so each phase takes
/// roughly half of `--seconds` on a 2-core x86-64 host at the time the
/// benchmark was defined, but fixed, so counts repeat exactly.
fn traced_ops(args: &Args) -> u64 {
    let per_second = match args.workload.as_str() {
        "cold_catalog" => cold::TRACED_SCHEMAS_PER_S,
        "warm_drilldown" => warm::TRACED_REQUESTS_PER_S,
        _ => evolve::REFRESH_RATE / 2.0,
    };
    (per_second * args.seconds).ceil() as u64
}

/// Set up the named workload: generate its inputs, start its service,
/// register and pre-warm, and run its untimed warm-up.
fn setup(args: &Args) -> Box<dyn Workload> {
    match args.workload.as_str() {
        "cold_catalog" => Box::new(cold::Cold::setup(args.seed)),
        "warm_drilldown" => Box::new(warm::Warm::setup(args.seed)),
        _ => Box::new(evolve::Evolve::setup(args.seed, args.seconds)),
    }
}

/// Check every group's replies untraced; returns the mismatches and how
/// many replies after a warm refresh differ from a fresh cold service.
fn verify_all(checks: &[CheckGroup]) -> (Vec<String>, usize) {
    let mut counts = SweepCounts::default();
    let mut mismatches = Vec::new();
    let mut diverged = 0;
    for group in checks {
        let verified = verify(group, Trace::OFF, &mut counts);
        mismatches.extend(verified.mismatches);
        diverged += verified.diverged_from_cold;
    }
    (mismatches, diverged)
}

fn print_outcome(args: &Args, out: &PhaseOut, mismatches: &[String], diverged: usize) {
    let checked: usize = out.checks.iter().map(|g| g.replies.len()).sum();
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    println!(
        "operations: {} attempted, {} failed, {} check mismatches over {} checked replies",
        out.attempted,
        out.failed,
        mismatches.len(),
        checked
    );
    println!(
        "failed_frac {:.6} (n={})",
        (out.failed + mismatches.len() as u64) as f64 / out.attempted.max(1) as f64,
        out.attempted
    );
    if out.checks.iter().any(|g| g.served_importance.is_some()) {
        println!(
            "checked replies after a warm refresh that differ from a fresh cold service: {diverged} \
             (the refreshed importance fixpoint restarts from the previous version's vector)"
        );
    }
    for e in out.errors.iter().chain(mismatches.iter().take(5)) {
        println!("  error: {e}");
    }
    // Only the open-loop generator has a schedule to fall behind.
    let lag = out.lag_us.quantile(0.99);
    println!(
        "validity: gen_lag_p99_us={lag:.1} behind={}",
        args.workload == "evolving_schemas" && lag > LAG_LIMIT_US
    );
    out.extra.print("workload figures:");
}

/// Print the JSON line and return whether the run was correct.
fn finish(out: &PhaseOut, mismatches: &[String], metrics: &Metrics) -> bool {
    let correct = mismatches.is_empty() && out.failed == 0;
    let failed = out.failed + mismatches.len() as u64;
    println!("{}", json_line(correct, out.attempted, failed, metrics));
    correct
}

fn measured(args: &Args) -> bool {
    let mut setup_s = Samples::default();
    let mut workload = None;
    for _ in 0..SETUPS {
        // Tear the previous set-up down before timing the next one.
        drop(workload.take());
        let started = Instant::now();
        workload = Some(setup(args));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let workload = workload.expect("at least one set-up");
    let mut out = workload.run(Limit::Time(Duration::from_secs_f64(args.seconds)), None);
    let (mismatches, diverged) = verify_all(&out.checks);
    print_outcome(args, &out, &mismatches, diverged);
    let mut metrics = Metrics::default();
    metrics.add("setup_s", setup_s.p50(), "s", SETUPS);
    metrics.0.extend(out.e2e.0.drain(..));
    metrics.print("end-to-end:");
    // Peak memory moves by a third from run to run with the allocator's
    // per-thread arenas, so it is printed but not compared.
    println!("peak_rss_mb {:.1} MB", peak_rss_mb());
    finish(&out, &mismatches, &metrics)
}

fn traced(args: &Args) -> bool {
    let ops = traced_ops(args);
    let untraced = setup(args).run(Limit::Count(ops), None);
    let tracer = Tracer::new();
    let workload = setup(args);
    let out = workload.run(Limit::Count(ops), Some(&tracer));
    drop(workload);
    let mut counts = SweepCounts::default();
    let mut mismatches = Vec::new();
    let mut diverged = 0;
    for (i, group) in out.checks.iter().enumerate() {
        let t = Trace::new(Some(&tracer), (2 << 40) | i as u64);
        let verified = verify(group, t, &mut counts);
        mismatches.extend(verified.mismatches);
        diverged += verified.diverged_from_cold;
        match &group.previous {
            Some(previous) => {
                let previous_ref = Reference::new(previous, t);
                refresh_probe(previous, &group.schema, &previous_ref, t, &mut counts);
            }
            None => {
                // No refresh in this workload: probe the refresh layers
                // with a uniform 1.1x growth of the same schema.
                let grown = Schema {
                    name: group.schema.name.clone(),
                    graph: Arc::clone(&group.schema.graph),
                    stats: Arc::new(group.schema.stats.scaled(1.1)),
                };
                refresh_probe(&group.schema, &grown, &verified.reference, t, &mut counts);
            }
        }
    }
    print_outcome(args, &out, &mismatches, diverged);
    untraced.e2e.print("end-to-end, untraced phase:");
    out.e2e.print("end-to-end, traced phase:");
    let overhead_frac = out.e2e.get("p50_us") / untraced.e2e.get("p50_us") - 1.0;
    let metrics = layer_metrics(&LayerInputs {
        tracer: &tracer,
        counts: &counts,
        cache: &out.cache,
        http: &out.http,
        lag_us: &out.lag_us,
        overhead_frac,
    });
    println!("self time by span (count, total s, share):");
    let self_times = tracer.self_times();
    let total: f64 = self_times.values().map(|(_, s)| s).sum();
    for (name, (n, s)) in &self_times {
        println!("  {name:<22} {n:>8} {s:>10.4} {:>7.2}%", 100.0 * s / total);
    }
    let path = std::path::Path::new(".bench_out").join(format!(
        "trace-{}-{}.jsonl",
        args.workload, args.seed
    ));
    match tracer.write(&path) {
        Ok(()) => println!("spans written to {}", path.display()),
        Err(e) => println!("spans not written: {e}"),
    }
    metrics.print("per-layer:");
    finish(&out, &mismatches, &metrics)
}

/// Python's `statistics.quantiles(values, n=4)` (exclusive method).
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let ld = sorted.len();
    let m = ld + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

/// Run the untraced measurement `runs` times in fresh processes with
/// consecutive seeds; print each end-to-end metric's median, quartiles and
/// spread. Runs whose generator fell behind are listed and left out.
fn repeat(args: &Args, runs: u64) -> bool {
    let exe = std::env::current_exe().expect("own executable path");
    let mut values: Vec<(String, Vec<f64>)> = Vec::new();
    let mut ok = true;
    for i in 0..runs {
        let seed = args.seed + i;
        let output = Command::new(&exe)
            .args(["--workload", &args.workload, "--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string(), "--trace", "0"])
            .output()
            .expect("benchmark re-runs itself");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let lag = stdout
            .lines()
            .find_map(|l| l.strip_prefix("validity: "))
            .unwrap_or("?");
        let last = stdout.lines().last().unwrap_or("");
        let parsed = serde_json::parse(last).ok();
        let metrics = parsed.as_ref().and_then(|p| p.get("metrics"));
        let correct = parsed
            .as_ref()
            .and_then(|p| p.get("correct"))
            .and_then(|c| c.as_bool());
        println!("seed {seed}: exit {} correct {correct:?} {lag}", output.status);
        if !output.status.success() || correct != Some(true) {
            ok = false;
            continue;
        }
        if lag.contains("behind=true") {
            println!("  flagged: the generator fell behind; not counted");
            continue;
        }
        if let Some(metrics) = metrics {
            for (name, v) in object_entries(metrics) {
                let value = v.get("value").and_then(|x| x.as_f64()).unwrap_or(f64::NAN);
                match values.iter_mut().find(|(n, _)| *n == name) {
                    Some((_, vs)) => vs.push(value),
                    None => values.push((name, vec![value])),
                }
            }
        }
    }
    println!(
        "{:<16} {:>14} {:>14} {:>14} {:>8}",
        "metric", "median", "q1", "q3", "spread"
    );
    for (name, mut vs) in values {
        vs.sort_by(f64::total_cmp);
        if vs.len() < 2 {
            continue;
        }
        let [q1, median, q3] = quartiles(&vs);
        println!(
            "{name:<16} {median:>14.4} {q1:>14.4} {q3:>14.4} {:>8.4}",
            (q3 - q1) / median
        );
    }
    ok
}

fn object_entries(value: &serde_json::Value) -> Vec<(String, serde_json::Value)> {
    match value {
        serde_json::Value::Object(entries) => entries.clone(),
        _ => Vec::new(),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--repeat <runs>]"
            );
            exit(2);
        }
    };
    let _ = std::fs::create_dir_all(".bench_out");
    let ok = match args.repeat {
        Some(runs) => repeat(&args, runs),
        None if args.trace => traced(&args),
        None => measured(&args),
    };
    exit(if ok { 0 } else { 1 });
}
