//! `schema-summary` — summarize a schema from the command line.
//!
//! ```text
//! schema-summary inspect   (--xsd FILE | --ddl FILE) [--xml FILE]
//! schema-summary summarize (--xsd FILE | --ddl FILE) [--xml FILE] [-k N]
//!                          [--algorithm balance|importance|coverage]
//!                          [--levels N,M,...] [--dot OUT] [--json OUT]
//! schema-summary discover  (--xsd FILE | --ddl FILE) [--xml FILE] [-k N]
//!                          --query label1,label2,...
//! schema-summary export    (--xsd FILE | --ddl FILE) [--xml FILE] [-k N]
//!                          [--algorithm A] [--format json|md] [--out FILE]
//! schema-summary serve     (--xsd FILE | --ddl FILE) [--xml FILE]
//!                          [--requests FILE] [--cache N] [--store-dir DIR]
//!                          [--store-max-bytes N] [--delta-max-fraction F]
//!                          [--http ADDR] [--peer URL]...
//!                          [--workers N] [--queue N] [--max-conns N]
//!                          [--timeout-ms N] [--log-requests true]
//! schema-summary route     --http ADDR --node URL [--node URL]...
//!                          [--retries N] [--retry-backoff-ms N]
//!                          [--probe-interval-ms N] [--eject-after N]
//!                          [--max-conns N] [--timeout-ms N]
//!                          [--log-requests true]
//! ```
//!
//! Schemas come from an XSD subset or SQL DDL; statistics come from an XML
//! instance (`--xml`) when given, and default to uniform (schema-driven)
//! otherwise. `summarize` prints the summary outline and can export
//! Graphviz DOT and JSON; `discover` compares query-discovery costs with
//! and without the summary; `export` emits the condensed machine-readable
//! summary (the same shape `GET /v1/export/:schema` serves); `serve`
//! answers a JSONL request stream from the caching service layer and
//! reports per-request latency plus cache statistics — or, with
//! `--http`, serves HTTP/1.1 with a worker pool, bounded-queue load
//! shedding, per-request timeouts, and a connection cap. `--store-dir` adds a
//! persistent artifact tier: computed matrices and summaries are spilled
//! to disk and rehydrated on restart; `--store-max-bytes` caps it with
//! oldest-first eviction. Requests may be flat
//! (`{"k":10}`), multi-level (`{"levels":[12,6,3]}`), or drill-downs
//! (`{"levels":[12,6,3],"expand":{"level":1,"group":0}}`).

use schema_summary::prelude::*;
use schema_summary_io::{
    parse_ddl, parse_xml_instance, parse_xsd, schema_to_dot, schema_to_xsd, summary_to_dot,
    summary_to_markdown,
};
use schema_summary_service::{
    ClusterRouter, HttpConfig, HttpServer, ProbeConfig, RouterConfig, ServedReply, ServiceConfig,
    SummaryRequest, SummaryService,
};
use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

fn main() -> ExitCode {
    // Piping output into `head` closes stdout early; treat the resulting
    // broken pipe as a normal exit instead of a panic (Rust has no default
    // SIGPIPE handling).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let is_pipe = info
            .payload()
            .downcast_ref::<String>()
            .is_some_and(|s| s.contains("Broken pipe"));
        if is_pipe {
            std::process::exit(0);
        }
        default_hook(info);
    }));
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    let mut args = std::env::args().skip(1);
    let command = args.next().unwrap_or_else(|| "help".into());
    let opts = parse_opts(args)?;
    match command.as_str() {
        "inspect" => inspect(&opts),
        "summarize" => summarize(&opts),
        "discover" => discover(&opts),
        "export" => export(&opts),
        "serve" => serve(&opts),
        "route" => route(&opts),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!(
            "unknown command '{other}'; try 'schema-summary help'"
        )),
    }
}

const USAGE: &str = "\
schema-summary — automatic schema summarization (Yu & Jagadish, VLDB 2006)

USAGE:
  schema-summary inspect   (--xsd FILE | --ddl FILE) [--xml FILE]
  schema-summary summarize (--xsd FILE | --ddl FILE) [--xml FILE] [-k N]
                           [--algorithm balance|importance|coverage]
                           [--levels N,M,...] [--dot OUT] [--json OUT]
  schema-summary discover  (--xsd FILE | --ddl FILE) [--xml FILE] [-k N]
                           --query label1,label2,...
  schema-summary export    (--xsd FILE | --ddl FILE) [--xml FILE] [-k N]
                           [--algorithm A] [--format json|md] [--out FILE]
  schema-summary serve     (--xsd FILE | --ddl FILE) [--xml FILE]
                           [--ddl-next FILE]
                           [--requests FILE] [--cache N] [--store-dir DIR]
                           [--store-max-bytes N] [--delta-max-fraction F]
                           [--http ADDR] [--peer URL]...
                           [--workers N] [--queue N] [--max-conns N]
                           [--timeout-ms N] [--log-requests true]
  schema-summary route     --http ADDR --node URL [--node URL]...
                           [--retries N] [--retry-backoff-ms N]
                           [--probe-interval-ms N] [--eject-after N]
                           [--max-conns N] [--timeout-ms N]
                           [--log-requests true]

OPTIONS:
  --xsd FILE        schema from an XML-Schema subset
  --ddl FILE        schema from SQL CREATE TABLE statements
  --xml FILE        database instance (XML) for cardinality statistics
  -k N              summary size (default 5)
  --algorithm A     balance (default) | importance | coverage
  --levels N,M,...  build a multi-level summary with these level sizes
  --explain true    print per-element evidence (ranks, groups, dominance)
  --dot FILE        write the summary as Graphviz DOT
  --md FILE         write the summary as Markdown documentation
  --json FILE       write the summary as JSON
  --query LABELS    comma-separated element labels the user seeks
  --format F        (export) json (default) | md — condensed summary with
                    per-element importance and cardinality, the same shape
                    served at GET /v1/export/:schema
  --out FILE        (export) write to FILE instead of stdout
  --xsd-out FILE    (inspect) export the schema back to the XSD subset
  --requests FILE   (serve) JSONL request stream, one object per line:
                    {\"algorithm\":\"balance\",\"k\":10} for a flat summary,
                    {\"levels\":[12,6,3]} for a multi-level one, or
                    {\"levels\":[12,6,3],\"expand\":{\"level\":1,\"group\":0}}
                    to drill one group down a level; default stdin
  --cache N         (serve) result-cache capacity (default 1024)
  --store-dir DIR   (serve) persistent artifact tier: spill computed
                    matrices and summaries to DIR and rehydrate them on
                    restart (corrupt files are recomputed, never fatal)
  --store-max-bytes N
                    (serve) cap the artifact tier at N bytes; over the
                    quota, the oldest artifacts are evicted first
  --delta-max-fraction F
                    (serve) warm-refresh schema deltas that touch at most
                    this fraction of the elements; larger deltas fall back
                    to cold invalidation (default 0.25; must be in (0, 1])
  --ddl-next FILE   (serve) register an evolved version of the schema
                    (SQL DDL) under '<name>-next', so POST /admin/refresh
                    {\"old\":\"<name>\",\"new\":\"<name>-next\"} can migrate
                    cached results between the two versions warm
  --http ADDR       (serve) serve the HTTP/1.1 API on ADDR (e.g.
                    127.0.0.1:8080) instead of a batch stream:
                    POST /v1/summary|/v1/levels|/v1/expand,
                    GET /v1/export/:schema, /metrics, /healthz,
                    /admin/cache, POST /admin/evict|/admin/refresh
  --workers N       (serve --http) worker threads (default 4)
  --queue N         (serve --http) pending-request bound; excess requests
                    get a structured 503 'overloaded' (default 64)
  --max-conns N     (serve --http, route) concurrent connection cap
                    (default 64)
  --timeout-ms N    (serve --http, route) per-request wall-clock budget in
                    milliseconds (default 10000)
  --log-requests true
                    (serve --http, route) one-line audit record per
                    request on stderr: peer, method, target, status,
                    latency
  --peer URL        (serve --http) peer node for cross-node invalidation:
                    locally initiated POST /admin/evict and /admin/refresh
                    are re-broadcast to each peer; repeatable
  --node URL        (route) cluster node behind the router; repeatable,
                    same list (any order) on every router
  --retries N       (route) extra nodes tried after the rendezvous owner
                    fails or sheds, next-ranked first (default 2)
  --retry-backoff-ms N
                    (route) backoff before the n-th failover attempt is
                    n * this many milliseconds (default 20)
  --probe-interval-ms N
                    (route) health-probe cadence per node (default 1000)
  --eject-after N   (route) consecutive failures before a node leaves the
                    rotation until a probe readmits it (default 3)
";

fn parse_opts(args: impl Iterator<Item = String>) -> Result<HashMap<String, String>, String> {
    let mut opts: HashMap<String, String> = HashMap::new();
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        if !flag.starts_with('-') {
            return Err(format!("unexpected argument '{flag}'"));
        }
        let key = flag.trim_start_matches('-').to_string();
        let value = args
            .next()
            .ok_or_else(|| format!("flag '{flag}' needs a value"))?;
        // Repeatable flags (--node, --peer) accumulate comma-separated;
        // consumers that only admit one value parse the joined string and
        // fail loudly rather than silently dropping earlier occurrences.
        match opts.entry(key) {
            std::collections::hash_map::Entry::Occupied(mut prior) => {
                let joined = prior.get_mut();
                joined.push(',');
                joined.push_str(&value);
            }
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(value);
            }
        }
    }
    Ok(opts)
}

/// Reject a flag `command` does not read, naming it, so that a typo or a
/// retired flag fails instead of being ignored (`-k` is stored as `k`).
fn expect_flags(
    command: &str,
    opts: &HashMap<String, String>,
    known: &[&str],
) -> Result<(), String> {
    match opts
        .keys()
        .filter(|key| !known.contains(&key.as_str()))
        .min()
    {
        None => Ok(()),
        Some(key) => {
            let dashes = if key.len() == 1 { "-" } else { "--" };
            Err(format!(
                "'{command}' does not take {dashes}{key}; try 'schema-summary help'"
            ))
        }
    }
}

/// Split a repeatable flag's accumulated value (`a,b,c`) into its items.
fn split_list(value: &str) -> Vec<String> {
    value
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(String::from)
        .collect()
}

/// Parse and validate `--delta-max-fraction`: the warm-refresh guard is a
/// fraction of the schema's elements, so NaN and anything outside
/// `(0, 1]` is a configuration mistake, rejected at startup rather than
/// silently disabling the guard at request time.
fn delta_fraction_of(opts: &HashMap<String, String>) -> Result<f64, String> {
    match opts.get("delta-max-fraction") {
        None => Ok(ServiceConfig::default().delta_max_fraction),
        Some(v) => {
            let f = v
                .parse::<f64>()
                .map_err(|_| format!("invalid --delta-max-fraction value '{v}'"))?;
            // `f > 0.0` is false for NaN, so this also rejects NaN.
            if f > 0.0 && f <= 1.0 {
                Ok(f)
            } else {
                Err(format!(
                    "--delta-max-fraction must be in (0, 1], got '{v}'"
                ))
            }
        }
    }
}

fn load_schema(opts: &HashMap<String, String>) -> Result<SchemaGraph, String> {
    match (opts.get("xsd"), opts.get("ddl")) {
        (Some(path), None) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            parse_xsd(&text).map_err(|e| format!("{path}: {e}"))
        }
        (None, Some(path)) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            parse_ddl(&text, "db").map_err(|e| format!("{path}: {e}"))
        }
        _ => Err("exactly one of --xsd or --ddl is required".into()),
    }
}

fn load_stats(graph: &SchemaGraph, opts: &HashMap<String, String>) -> Result<SchemaStats, String> {
    match opts.get("xml") {
        None => Ok(SchemaStats::uniform(graph)),
        Some(path) => {
            let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let data = parse_xml_instance(graph, &text).map_err(|e| format!("{path}: {e}"))?;
            let violations = check_conformance(graph, &data);
            if !violations.is_empty() {
                return Err(format!(
                    "{path}: instance does not conform ({} violations; first: {})",
                    violations.len(),
                    violations[0]
                ));
            }
            annotate_schema(graph, &data).map_err(|e| e.to_string())
        }
    }
}

fn algorithm_of(opts: &HashMap<String, String>) -> Result<Algorithm, String> {
    match opts.get("algorithm").map(String::as_str) {
        None | Some("balance") => Ok(Algorithm::Balance),
        Some("importance") => Ok(Algorithm::MaxImportance),
        Some("coverage") => Ok(Algorithm::MaxCoverage),
        Some(other) => Err(format!("unknown algorithm '{other}'")),
    }
}

fn size_of(opts: &HashMap<String, String>) -> Result<usize, String> {
    match opts.get("k") {
        None => Ok(5),
        Some(v) => v.parse().map_err(|_| format!("invalid -k value '{v}'")),
    }
}

fn inspect(opts: &HashMap<String, String>) -> Result<(), String> {
    expect_flags("inspect", opts, &["xsd", "ddl", "xml", "xsd-out"])?;
    let graph = load_schema(opts)?;
    let stats = load_stats(&graph, opts)?;
    let metrics = schema_summary::core::GraphMetrics::compute(&graph);
    println!("{metrics}");
    println!("{:.0} data elements", stats.total_card());
    print!("{}", graph.outline());
    if let Some(path) = opts.get("xsd-out") {
        std::fs::write(path, schema_to_xsd(&graph)).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    let mut s = Summarizer::new(&graph, &stats);
    let imp = s.importance().clone();
    println!("\ntop elements by importance:");
    for &e in imp.ranked(&graph).iter().take(10) {
        println!("  {:<40} {:>12.1}", graph.label_path(e), imp.score(e));
    }
    Ok(())
}

fn summarize(opts: &HashMap<String, String>) -> Result<(), String> {
    expect_flags(
        "summarize",
        opts,
        &[
            "xsd",
            "ddl",
            "xml",
            "k",
            "algorithm",
            "levels",
            "explain",
            "dot",
            "md",
            "json",
        ],
    )?;
    let graph = load_schema(opts)?;
    let stats = load_stats(&graph, opts)?;
    let k = size_of(opts)?;
    let algorithm = algorithm_of(opts)?;
    let mut s = Summarizer::new(&graph, &stats);

    if let Some(levels) = opts.get("levels") {
        let sizes: Vec<usize> = levels
            .split(',')
            .map(|v| {
                v.trim()
                    .parse()
                    .map_err(|_| format!("bad level size '{v}'"))
            })
            .collect::<Result<_, _>>()?;
        let ml = s
            .multi_level(&sizes, algorithm)
            .map_err(|e| e.to_string())?;
        for (i, level) in ml.levels().iter().enumerate() {
            println!("--- level {i} (size {}) ---", level.size());
            print!("{}", level.outline(&graph));
        }
        return Ok(());
    }

    let summary = s.summarize(k, algorithm).map_err(|e| e.to_string())?;
    print!("{}", summary.outline(&graph));
    println!(
        "importance R = {:.3}, coverage C = {:.3}",
        s.selection_importance(&summary.visible_elements()),
        s.selection_coverage(&summary.visible_elements())
    );
    if opts.get("explain").map(String::as_str) == Some("true") {
        print!("{}", s.explain(&summary).render());
    }
    if let Some(path) = opts.get("dot") {
        std::fs::write(path, summary_to_dot(&graph, &summary))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(path) = opts.get("md") {
        std::fs::write(path, summary_to_markdown(&graph, &summary))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    if let Some(path) = opts.get("json") {
        let json = schema_summary_io::export::to_json(&summary).map_err(|e| e.to_string())?;
        std::fs::write(path, json).map_err(|e| format!("{path}: {e}"))?;
        println!("wrote {path}");
    }
    // Also offer the full-schema DOT for side-by-side rendering.
    if opts.get("dot").is_some() {
        let _ = schema_to_dot(&graph); // validated render path
    }
    Ok(())
}

fn discover(opts: &HashMap<String, String>) -> Result<(), String> {
    expect_flags("discover", opts, &["xsd", "ddl", "xml", "k", "query"])?;
    let graph = load_schema(opts)?;
    let stats = load_stats(&graph, opts)?;
    let k = size_of(opts)?;
    let labels: Vec<&str> = opts
        .get("query")
        .ok_or("discover requires --query label1,label2,...")?
        .split(',')
        .map(str::trim)
        .collect();
    let q = QueryIntention::from_labels(&graph, "cli", &labels).map_err(|e| e.to_string())?;

    let mut s = Summarizer::new(&graph, &stats);
    let summary = s
        .summarize(k, Algorithm::Balance)
        .map_err(|e| e.to_string())?;
    let lin = schema_summary::discovery::linear_scan_cost(&graph, &q);
    let df = depth_first_cost(&graph, &q);
    let bf = breadth_first_cost(&graph, &q);
    let best = best_first_cost(&graph, &q, CostModel::SiblingScan);
    let with = summary_cost(&graph, &summary, &q, CostModel::SiblingScan);
    println!("query {:?}", labels);
    println!("  linear scan    {:>5}", lin.cost);
    println!("  depth-first    {:>5}", df.cost);
    println!("  breadth-first  {:>5}", bf.cost);
    println!("  best-first     {:>5}", best.cost);
    println!("  with summary   {:>5}  (size {k})", with.cost);
    if best.cost > 0 {
        println!(
            "  saving         {:>4.0}%",
            (1.0 - with.cost as f64 / best.cost as f64) * 100.0
        );
    }
    Ok(())
}

/// Batch driver for the serving layer: load one schema, register it with
/// a [`SummaryService`], then answer a JSONL request stream (file or
/// stdin), printing per-request latency, cache disposition, and final
/// cache statistics.
fn serve(opts: &HashMap<String, String>) -> Result<(), String> {
    // The batch driver reads `--requests`; the server flags apply only
    // with `--http`.
    let (command, mode_flags): (&str, &[&str]) = if opts.contains_key("http") {
        (
            "serve --http",
            &[
                "http",
                "peer",
                "workers",
                "queue",
                "max-conns",
                "timeout-ms",
                "log-requests",
            ],
        )
    } else {
        ("serve", &["requests"])
    };
    let common = [
        "xsd",
        "ddl",
        "xml",
        "ddl-next",
        "cache",
        "store-dir",
        "store-max-bytes",
        "delta-max-fraction",
    ];
    expect_flags(command, opts, &[&common[..], mode_flags].concat())?;
    let graph = Arc::new(load_schema(opts)?);
    let stats = Arc::new(load_stats(&graph, opts)?);
    let capacity = match opts.get("cache") {
        None => 1024,
        Some(v) => v
            .parse()
            .map_err(|_| format!("invalid --cache value '{v}'"))?,
    };
    let store_dir = opts.get("store-dir").map(std::path::PathBuf::from);
    let store_max_bytes = match opts.get("store-max-bytes") {
        None => None,
        Some(v) => Some(
            v.parse::<u64>()
                .map_err(|_| format!("invalid --store-max-bytes value '{v}'"))?,
        ),
    };
    if store_max_bytes.is_some() && store_dir.is_none() {
        return Err("--store-max-bytes requires --store-dir".into());
    }
    let delta_max_fraction = delta_fraction_of(opts)?;
    let service = SummaryService::try_new(ServiceConfig {
        cache_capacity: capacity,
        store_dir: store_dir.clone(),
        store_max_bytes,
        delta_max_fraction,
        ..Default::default()
    })
    .map_err(|e| format!("--store-dir: {e}"))?;
    let name = graph.label(graph.root()).to_string();
    let fingerprint = service.register_named(&name, Arc::clone(&graph), stats);
    match &store_dir {
        Some(dir) => println!(
            "serving schema '{name}' (fingerprint {fingerprint}, cache capacity {capacity}, store {})",
            dir.display()
        ),
        None => println!(
            "serving schema '{name}' (fingerprint {fingerprint}, cache capacity {capacity})"
        ),
    }
    if let Some(path) = opts.get("ddl-next") {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let next = Arc::new(parse_ddl(&text, "db").map_err(|e| format!("{path}: {e}"))?);
        let next_stats = Arc::new(SchemaStats::uniform(&next));
        let next_name = format!("{name}-next");
        let next_fp = service.register_named(&next_name, Arc::clone(&next), next_stats);
        println!("registered evolved schema '{next_name}' (fingerprint {next_fp})");
    }

    if let Some(addr) = opts.get("http") {
        return serve_http(Arc::new(service), addr, opts);
    }

    let input = match opts.get("requests") {
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?,
        None => {
            let mut buf = String::new();
            std::io::Read::read_to_string(&mut std::io::stdin(), &mut buf)
                .map_err(|e| format!("stdin: {e}"))?;
            buf
        }
    };

    // One batch entry per request line; a bad line reports its error and
    // the batch keeps going, so the driver always reaches the stats line.
    let mut served = 0usize;
    let mut failed = 0usize;
    for (lineno, line) in input.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let n = served + failed + 1;
        let request: SummaryRequest = match serde_json::from_str(line) {
            Ok(r) => r,
            Err(e) => {
                failed += 1;
                println!("#{n} error: request line {}: {e}", lineno + 1);
                continue;
            }
        };
        let started = Instant::now();
        match service.handle_request(&request) {
            Ok(ServedReply::Flat(answer)) => {
                let elapsed = started.elapsed();
                served += 1;
                println!(
                    "#{n} alg={} k={} {} {:>9.1?}  {}",
                    answer.result.algorithm,
                    answer.result.k,
                    if answer.from_cache { "hit " } else { "miss" },
                    elapsed,
                    answer.result.labels.join(", ")
                );
            }
            Ok(ServedReply::MultiLevel(answer)) => {
                let elapsed = started.elapsed();
                served += 1;
                let view = &answer.result.view;
                let sizes: Vec<String> = view.sizes.iter().map(|s| s.to_string()).collect();
                println!(
                    "#{n} alg={} levels={} {} {:>9.1?}  {}",
                    view.algorithm,
                    sizes.join(","),
                    if answer.from_cache { "hit " } else { "miss" },
                    elapsed,
                    view.levels
                        .last()
                        .map(|coarsest| {
                            coarsest
                                .groups
                                .iter()
                                .map(|g| g.representative.as_str())
                                .collect::<Vec<_>>()
                                .join(", ")
                        })
                        .unwrap_or_default()
                );
            }
            Ok(ServedReply::Expansion(answer)) => {
                let elapsed = started.elapsed();
                served += 1;
                let exp = &answer.result;
                let contents: Vec<&str> = if exp.level == 0 {
                    exp.elements.iter().map(|e| e.as_str()).collect()
                } else {
                    exp.children
                        .iter()
                        .map(|g| g.representative.as_str())
                        .collect()
                };
                println!(
                    "#{n} alg={} expand l{}g{} {} {:>9.1?}  {} -> {}",
                    exp.algorithm,
                    exp.level,
                    exp.group,
                    if answer.from_cache { "hit " } else { "miss" },
                    elapsed,
                    exp.representative,
                    contents.join(", ")
                );
            }
            Err(e) => {
                failed += 1;
                println!("#{n} error: {e}");
            }
        }
    }

    // Spills run on a background thread: wait for them so `written`
    // counts everything this run spilled.
    service.flush_store();
    let cache = service.cache_stats();
    println!(
        "\n{served} served, {failed} failed; cache: {} hits, {} misses ({:.0}% hit rate), {} evictions, {} entries",
        cache.hits,
        cache.misses,
        cache.hit_rate() * 100.0,
        cache.evictions,
        cache.entries
    );
    if store_dir.is_some() {
        println!(
            "store: {} rehydrated, {} written, {} corrupt, {} matrices rebuilt",
            cache.disk_hits + cache.matrices_rehydrated,
            cache.disk_writes,
            cache.disk_corrupt,
            cache.matrices_computed
        );
    }
    Ok(())
}

/// HTTP mode: front the service with the HTTP/1.1 server and block
/// until the process is killed. Overload is shed with `503 overloaded`;
/// slow requests are answered `504` while the computation finishes and
/// warms the cache.
fn serve_http(
    service: Arc<SummaryService>,
    addr: &str,
    opts: &HashMap<String, String>,
) -> Result<(), String> {
    let parse_usize = |key: &str, default: usize| -> Result<usize, String> {
        match opts.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid --{key} value '{v}'")),
        }
    };
    let defaults = HttpConfig::default();
    let timeout_ms = parse_usize("timeout-ms", defaults.request_timeout.as_millis() as usize)?;
    let workers = parse_usize("workers", defaults.workers)?;
    let queue_capacity = parse_usize("queue", defaults.queue_capacity)?;
    let max_connections = parse_usize("max-conns", defaults.max_connections)?;
    let config = HttpConfig {
        workers,
        queue_capacity,
        max_connections,
        request_timeout: std::time::Duration::from_millis(timeout_ms as u64),
        log_requests: opts.get("log-requests").map(String::as_str) == Some("true"),
        peers: opts.get("peer").map(|v| split_list(v)).unwrap_or_default(),
    };
    let server = HttpServer::bind(addr, service, config).map_err(|e| format!("{addr}: {e}"))?;
    println!(
        "http on {} ({workers} workers, queue {queue_capacity}, {max_connections} connections max, {timeout_ms}ms timeout)",
        server.local_addr()
    );
    server.wait();
    Ok(())
}

/// Cluster router mode: no schema is loaded and nothing is computed —
/// the process maps each request's schema identity onto its rendezvous
/// owner among the `--node`s and proxies it there, with rank-ordered
/// failover and background health probing. Blocks until killed.
fn route(opts: &HashMap<String, String>) -> Result<(), String> {
    expect_flags(
        "route",
        opts,
        &[
            "http",
            "node",
            "retries",
            "retry-backoff-ms",
            "probe-interval-ms",
            "eject-after",
            "max-conns",
            "timeout-ms",
            "log-requests",
        ],
    )?;
    let addr = opts
        .get("http")
        .ok_or("route requires --http ADDR (e.g. --http 127.0.0.1:8000)")?;
    let nodes = opts
        .get("node")
        .map(|v| split_list(v))
        .unwrap_or_default();
    if nodes.is_empty() {
        return Err("route requires at least one --node URL".into());
    }
    let parse_u64 = |key: &str, default: u64| -> Result<u64, String> {
        match opts.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid --{key} value '{v}'")),
        }
    };
    let defaults = RouterConfig::default();
    let probe_defaults = ProbeConfig::default();
    let config = RouterConfig {
        nodes: nodes.clone(),
        max_connections: parse_u64("max-conns", defaults.max_connections as u64)? as usize,
        retries: parse_u64("retries", defaults.retries as u64)? as usize,
        retry_backoff: std::time::Duration::from_millis(parse_u64(
            "retry-backoff-ms",
            defaults.retry_backoff.as_millis() as u64,
        )?),
        request_timeout: std::time::Duration::from_millis(parse_u64(
            "timeout-ms",
            defaults.request_timeout.as_millis() as u64,
        )?),
        probe: ProbeConfig {
            interval: std::time::Duration::from_millis(parse_u64(
                "probe-interval-ms",
                probe_defaults.interval.as_millis() as u64,
            )?),
            eject_after: parse_u64("eject-after", u64::from(probe_defaults.eject_after))? as u32,
            timeout: probe_defaults.timeout,
        },
        log_requests: opts.get("log-requests").map(String::as_str) == Some("true"),
    };
    let retries = config.retries;
    let router = ClusterRouter::bind(addr.as_str(), config).map_err(|e| format!("{addr}: {e}"))?;
    println!(
        "routing on {} over {} nodes ({} retries): {}",
        router.local_addr(),
        nodes.len(),
        retries,
        nodes.join(", ")
    );
    router.wait();
    Ok(())
}

/// Emit the condensed machine-readable summary — schema name,
/// fingerprint, provenance, and per-element importance/cardinality — as
/// JSON (default) or markdown; the same shape `GET /v1/export/:schema`
/// serves.
fn export(opts: &HashMap<String, String>) -> Result<(), String> {
    expect_flags(
        "export",
        opts,
        &["xsd", "ddl", "xml", "k", "algorithm", "format", "out"],
    )?;
    let graph = Arc::new(load_schema(opts)?);
    let stats = Arc::new(load_stats(&graph, opts)?);
    let k = size_of(opts)?;
    let algorithm = algorithm_of(opts)?;
    let service = SummaryService::try_new(ServiceConfig::default()).map_err(|e| e.to_string())?;
    let name = graph.label(graph.root()).to_string();
    let fingerprint = service.register_named(&name, Arc::clone(&graph), stats);
    let summary = service
        .export_summary(fingerprint, algorithm, k)
        .map_err(|e| e.to_string())?;
    let text = match opts.get("format").map(String::as_str) {
        None | Some("json") => summary.to_json(),
        Some("md") | Some("markdown") => summary.to_markdown(),
        Some(other) => return Err(format!("unknown --format '{other}' (json or md)")),
    };
    match opts.get("out") {
        Some(path) => {
            std::fs::write(path, &text).map_err(|e| format!("{path}: {e}"))?;
            println!("wrote {path}");
        }
        None => println!("{text}"),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn opts(pairs: &[(&str, &str)]) -> HashMap<String, String> {
        pairs
            .iter()
            .map(|&(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn parse_opts_pairs_flags_with_values() {
        let parsed =
            parse_opts(["--xsd", "a.xsd", "-k", "7"].iter().map(|s| s.to_string())).unwrap();
        assert_eq!(parsed["xsd"], "a.xsd");
        assert_eq!(parsed["k"], "7");
    }

    #[test]
    fn parse_opts_rejects_bare_arguments_and_dangling_flags() {
        assert!(parse_opts(["stray"].iter().map(|s| s.to_string())).is_err());
        assert!(parse_opts(["--xsd"].iter().map(|s| s.to_string())).is_err());
    }

    #[test]
    fn parse_opts_accumulates_repeated_flags() {
        let parsed = parse_opts(
            ["--node", "a:1", "--node", "b:2", "--node", "c:3"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(parsed["node"], "a:1,b:2,c:3");
        assert_eq!(split_list(&parsed["node"]), vec!["a:1", "b:2", "c:3"]);
        assert_eq!(split_list(" a:1 , , b:2 "), vec!["a:1", "b:2"]);
    }

    #[test]
    fn delta_fraction_accepts_only_the_half_open_unit_interval() {
        assert_eq!(
            delta_fraction_of(&opts(&[])).unwrap(),
            ServiceConfig::default().delta_max_fraction
        );
        assert_eq!(
            delta_fraction_of(&opts(&[("delta-max-fraction", "0.5")])).unwrap(),
            0.5
        );
        assert_eq!(
            delta_fraction_of(&opts(&[("delta-max-fraction", "1")])).unwrap(),
            1.0
        );
        for bad in ["0", "-0.25", "1.5", "NaN", "inf", "-inf", "pumpkin"] {
            assert!(
                delta_fraction_of(&opts(&[("delta-max-fraction", bad)])).is_err(),
                "'{bad}' must be rejected"
            );
        }
    }

    #[test]
    fn algorithm_names_resolve() {
        assert_eq!(algorithm_of(&opts(&[])).unwrap(), Algorithm::Balance);
        assert_eq!(
            algorithm_of(&opts(&[("algorithm", "importance")])).unwrap(),
            Algorithm::MaxImportance
        );
        assert_eq!(
            algorithm_of(&opts(&[("algorithm", "coverage")])).unwrap(),
            Algorithm::MaxCoverage
        );
        assert!(algorithm_of(&opts(&[("algorithm", "bogus")])).is_err());
    }

    #[test]
    fn size_parses_with_default() {
        assert_eq!(size_of(&opts(&[])).unwrap(), 5);
        assert_eq!(size_of(&opts(&[("k", "12")])).unwrap(), 12);
        assert!(size_of(&opts(&[("k", "x")])).is_err());
    }

    #[test]
    fn schema_loading_demands_exactly_one_source() {
        assert!(load_schema(&opts(&[])).is_err());
        assert!(load_schema(&opts(&[("xsd", "a"), ("ddl", "b")])).is_err());
        assert!(load_schema(&opts(&[("xsd", "/nonexistent/x.xsd")])).is_err());
    }
}
