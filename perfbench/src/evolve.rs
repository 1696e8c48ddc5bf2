//! `evolving_schemas`: schemas change while they are read. A writer on an
//! open-loop schedule registers pre-built next versions in-process, asks
//! `POST /admin/refresh` to move each track from its old version to the
//! new one, and pre-warms the new version. A reader on a second
//! connection sends the drill-down mix at a fixed rate against the current
//! versions, each request timed from when it was due, so a stall a refresh
//! causes shows as reader latency. The service spills to a disk tier.

use crate::inputs::{track_versions, Schema, TRACKS};
use crate::layers::warm_probe;
use crate::net::{Node, Op};
use crate::stats::{Rng, Samples, Windowed};
use crate::trace::{Trace, Tracer};
use crate::workload::{drill_op, us_since, CheckGroup, Limit, PhaseOut, Workload};
use schema_summary_algo::importance::{compute_importance, compute_importance_rebased};
use schema_summary_algo::{ImportanceResult, SummarizerConfig};
use schema_summary_service::ServiceConfig;
use std::collections::{BTreeMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;
use std::time::{Duration, Instant};

/// Refreshes per second on the writer's schedule.
pub const REFRESH_RATE: f64 = 8.0;
/// Reads per second on the reader's schedule: well below what the warm
/// path sustains, so the reader alone builds no queue.
const READ_RATE: f64 = 1_000.0;
/// One refresh step in this many has its replies checked (all when traced).
const CHECK_STEP_EVERY: usize = 4;
/// One read in this many is kept for the output check or, traced, probed.
const SAMPLE_READ_EVERY: u64 = 16;
const WARMUP_READS: u64 = 500;
/// Zipf exponent of the reader's track popularity.
const ZIPF_S: f64 = 0.8;
/// The reader drills with the importance-driven algorithms. A refresh
/// re-derives every cached answer of the old version, so a cached coverage
/// answer would make each refresh re-run `max_coverage` and the refresh
/// figure would measure that selection (`cold_catalog` measures it).
const ALGORITHMS: [&str; 2] = ["balance", "importance"];

/// Removes the service's store directory once the service is gone.
struct StoreDir(PathBuf);

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub struct Evolve {
    node: Node,
    seed: u64,
    /// Every version of every track, built during set-up.
    tracks: Vec<Vec<Schema>>,
    /// The version each track's readers use; the writer holds it
    /// exclusively while it replaces the version.
    current: Vec<RwLock<usize>>,
    /// Pre-warm replies of each track's first version.
    first: Vec<Vec<(Op, Vec<u8>)>>,
    // Declared after `node` so the directory goes after the service.
    _store: StoreDir,
}

fn prewarm_ops(name: &str) -> [Op; 3] {
    [
        Op::Summary {
            schema: name.to_string(),
            algorithm: "balance",
            k: 10,
        },
        Op::Summary {
            schema: name.to_string(),
            algorithm: "importance",
            k: 10,
        },
        Op::Levels {
            schema: name.to_string(),
            algorithm: "balance",
        },
    ]
}

/// The importance vector the service holds for each version reached by a
/// warm refresh (`None` for the others, which hold the cold vector). A warm
/// refresh restarts the fixpoint from the previous version's vector,
/// rebased to the new cardinalities (`Artifacts::importance`), and stops
/// inside the convergence threshold: a fresh cold service may stop
/// elsewhere, with a different ranking. Replies after a warm refresh are
/// therefore checked against this chain.
fn served_importance(
    versions: &[Schema],
    reached_warm: impl Fn(usize) -> bool,
) -> Vec<Option<ImportanceResult>> {
    let config = SummarizerConfig::default().importance;
    let mut previous = compute_importance(&versions[0].graph, &versions[0].stats, &config);
    let mut chain = vec![None];
    for v in 1..versions.len() {
        let (old, new) = (&versions[v - 1], &versions[v]);
        let warm = reached_warm(v);
        previous = if warm {
            compute_importance_rebased(&new.graph, &new.stats, previous.scores(), &old.stats, &config)
        } else {
            compute_importance(&new.graph, &new.stats, &config)
        };
        chain.push(warm.then(|| previous.clone()));
    }
    chain
}

/// Sleep until `due` (no-op when it has passed).
fn sleep_until(due: Instant) {
    let now = Instant::now();
    if due > now {
        std::thread::sleep(due - now);
    }
}

impl Evolve {
    /// Set up for phases of at most `seconds`.
    pub fn setup(seed: u64, seconds: f64) -> Self {
        static STORES: AtomicU64 = AtomicU64::new(0);
        let dir = PathBuf::from(".bench_out").join(format!(
            "store-{}-{}",
            std::process::id(),
            STORES.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let store = StoreDir(dir.clone());
        let node = Node::start(ServiceConfig {
            store_dir: Some(dir),
            // Warm refresh for every delta that plans: MiMI's deltas touch
            // every element's volume.
            delta_max_fraction: 1.0,
            ..ServiceConfig::default()
        });
        let steps = (REFRESH_RATE * seconds).ceil() as usize;
        let per_track = steps / TRACKS.len() + 2;
        let tracks: Vec<Vec<Schema>> = (0..TRACKS.len())
            .map(|t| track_versions(seed, t, per_track))
            .collect();
        let client = node.client();
        let mut first = Vec::new();
        for versions in &tracks {
            let v0 = &versions[0];
            node.service
                .register_named(v0.name.clone(), v0.graph.clone(), v0.stats.clone());
            let replies = prewarm_ops(&v0.name)
                .into_iter()
                .map(|op| {
                    let body = client.send(&op).expect("pre-warm request succeeds");
                    (op, body)
                })
                .collect();
            first.push(replies);
        }
        let evolve = Evolve {
            node,
            seed,
            current: tracks.iter().map(|_| RwLock::new(0)).collect(),
            tracks,
            first,
            _store: store,
        };
        let mut rng = Rng::new(seed, 5);
        for _ in 0..WARMUP_READS {
            let track = rng.zipf(TRACKS.len(), ZIPF_S);
            let _ = client.send(&drill_op(&mut rng, &evolve.tracks[track][0].name, &ALGORITHMS));
        }
        evolve
    }

    /// The writer: `steps` refreshes, one every `1 / REFRESH_RATE` from `t0`.
    fn write(&self, steps: usize, t0: Instant, tracer: Option<&Tracer>) -> Writer {
        let client = self.node.client();
        let mut w = Writer::default();
        let mut order: Vec<usize> = Vec::new();
        let mut rng = Rng::new(self.seed, 6);
        let interval = Duration::from_secs_f64(1.0 / REFRESH_RATE);
        for step in 0..steps {
            if order.is_empty() {
                order = (0..self.tracks.len()).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.range(0, i + 1));
                }
            }
            let track = order.pop().expect("refilled above");
            let due = t0 + interval * step as u32;
            sleep_until(due);
            w.lag_us.push(us_since(due));
            let mut slot = self.current[track].write().expect("track lock poisoned");
            let (old, new) = (&self.tracks[track][*slot], &self.tracks[track][*slot + 1]);
            let t = Trace::new(tracer, (1 << 40) | step as u64);
            self.node
                .service
                .register_named(new.name.clone(), new.graph.clone(), new.stats.clone());
            let body = format!("{{\"old\": \"{}\", \"new\": \"{}\"}}", old.name, new.name);
            let sent = Instant::now();
            match t.span("http.request", || client.post("/admin/refresh", &body)) {
                Ok(reply) => {
                    let us = us_since(sent);
                    w.refresh_us.push(us);
                    let round = step / self.tracks.len();
                    if w.round_us.len() <= round {
                        w.round_us.push(Samples::default());
                    }
                    w.round_us[round].push(us);
                    let reply = serde_json::parse(&String::from_utf8_lossy(&reply)).ok();
                    let field = |name| reply.as_ref().and_then(|r| r.get(name));
                    let class = field("class").and_then(|c| c.as_str()).unwrap_or("?");
                    let warm = field("warm").and_then(|w| w.as_bool()).unwrap_or(false);
                    *w.classes.entry((class.to_string(), warm)).or_default() += 1;
                    w.warm.push(((track, *slot + 1), warm));
                }
                Err(e) => {
                    w.refresh_us.push(f64::INFINITY);
                    w.failures.push(e);
                }
            }
            let check = tracer.is_some() || step % CHECK_STEP_EVERY == 0;
            let mut replies = Vec::new();
            for op in prewarm_ops(&new.name) {
                match client.send(&op) {
                    Ok(body) if check => replies.push((op, body)),
                    Ok(_) => {}
                    Err(e) => w.failures.push(e),
                }
            }
            w.attempted += 4;
            *slot += 1;
            if check {
                w.checks.push((
                    (track, *slot),
                    CheckGroup {
                        schema: new.clone(),
                        previous: Some(old.clone()),
                        served_importance: None,
                        replies,
                    },
                ));
            }
            drop(slot);
        }
        w.elapsed_s = t0.elapsed().as_secs_f64();
        w
    }

    /// The reader: `reads` requests, one every `1 / READ_RATE` from `t0`,
    /// each timed from when it was due.
    fn read(&self, reads: u64, t0: Instant, tracer: Option<&Tracer>) -> Reader {
        let client = self.node.client();
        let mut r = Reader::default();
        let mut rng = Rng::new(self.seed, 7);
        let interval = Duration::from_secs_f64(1.0 / READ_RATE);
        let mut previous_end = t0;
        for i in 0..reads {
            let due = t0 + interval.mul_f64(i as f64);
            sleep_until(due);
            // The generator's own lateness: time past the later of the due
            // time and the previous reply.
            r.lag_us.push(us_since(due.max(previous_end)));
            let track = rng.zipf(self.tracks.len(), ZIPF_S);
            let guard = (0..self.tracks.len())
                .map(|d| (track + d) % self.tracks.len())
                .find_map(|t| self.current[t].try_read().ok().map(|g| (t, g)));
            let (track, version) = guard.expect("one writer locks at most one track");
            let schema = &self.tracks[track][*version];
            let op = drill_op(&mut rng, &schema.name, &ALGORITHMS);
            let t = Trace::new(tracer, i);
            r.attempted += 1;
            match t.span("http.request", || client.send(&op)) {
                Ok(body) => {
                    r.latency_us.push((due - t0).as_secs_f64(), us_since(due));
                    if i % SAMPLE_READ_EVERY == 0 {
                        match tracer {
                            Some(_) => {
                                if let Err(e) = warm_probe(&client, &self.node.service, &op, t) {
                                    r.failures.push(e);
                                }
                            }
                            None => r.kept.push(((track, *version), op, body)),
                        }
                    }
                }
                Err(e) => {
                    r.latency_us.push((due - t0).as_secs_f64(), f64::INFINITY);
                    r.failures.push(e);
                }
            }
            drop(version);
            previous_end = Instant::now();
        }
        r
    }
}

#[derive(Default)]
struct Writer {
    attempted: u64,
    refresh_us: Samples,
    /// Refresh latencies by round: each round refreshes every track once.
    round_us: Vec<Samples>,
    lag_us: Samples,
    failures: Vec<String>,
    classes: BTreeMap<(String, bool), u64>,
    /// Whether the refresh that reached each `(track, version)` was warm.
    warm: Vec<((usize, usize), bool)>,
    checks: Vec<((usize, usize), CheckGroup)>,
    elapsed_s: f64,
}

#[derive(Default)]
struct Reader {
    attempted: u64,
    /// Read latency from the due time, by the window of the due time.
    latency_us: Windowed,
    lag_us: Samples,
    failures: Vec<String>,
    kept: Vec<((usize, usize), Op, Vec<u8>)>,
}

impl Workload for Evolve {
    fn run(&self, limit: Limit, tracer: Option<&Tracer>) -> PhaseOut {
        let steps = match limit {
            Limit::Time(d) => (REFRESH_RATE * d.as_secs_f64()).ceil() as u64,
            Limit::Count(n) => n,
        };
        let reads = (steps as f64 * READ_RATE / REFRESH_RATE) as u64;
        let mut out = PhaseOut::new(&self.node);
        let t0 = Instant::now() + Duration::from_millis(10);
        let (w, r) = std::thread::scope(|s| {
            let writer = s.spawn(|| self.write(steps as usize, t0, tracer));
            let r = self.read(reads, t0, tracer);
            (writer.join().expect("writer thread panicked"), r)
        });
        out.attempted = w.attempted + r.attempted;
        for e in w.failures.into_iter().chain(r.failures) {
            out.fail(e);
        }
        out.lag_us.extend(&w.lag_us);
        out.lag_us.extend(&r.lag_us);
        let refreshes_per_s = steps as f64 / w.elapsed_s;
        let duration = reads as f64 / READ_RATE;
        let reads_all = r.latency_us.all();
        let e = &mut out.e2e;
        e.add("p50_us", r.latency_us.quiet_quantile(duration, 0.5), "us", reads_all.len());
        e.add("tail_us", r.latency_us.quiet_quantile(duration, 0.9), "us", reads_all.len());
        // Tracks differ several-fold in refresh cost, so the median of
        // single refreshes jumps between tracks from run to run; the
        // median over rounds of each round's mean does not.
        let mut round_means = Samples::default();
        for round in w.round_us.iter().filter(|r| r.len() == self.tracks.len()) {
            round_means.push(round.sum() / round.len() as f64);
        }
        e.add("second_p50_us", round_means.p50(), "us", w.refresh_us.len());
        e.add("ops_per_s", refreshes_per_s, "1/s", w.refresh_us.len());
        let x = &mut out.extra;
        x.add("refresh_p50_ms", w.refresh_us.p50() / 1e3, "ms", w.refresh_us.len());
        x.add("refresh_p95_ms", w.refresh_us.quantile(0.95) / 1e3, "ms", w.refresh_us.len());
        x.quantile("evolve_read_p50_us", &reads_all, 0.5, "us");
        x.quantile("evolve_read_p95_us", &reads_all, 0.95, "us");
        x.quantile("evolve_read_p99_us", &reads_all, 0.99, "us");
        x.quantile("writer_lag_us.p99", &w.lag_us, 0.99, "us");
        x.quantile("reader_lag_us.p99", &r.lag_us, 0.99, "us");
        for ((class, warm), n) in &w.classes {
            println!("refresh class {class:<20} warm={warm:<5} {n}");
        }
        let mut groups: Vec<((usize, usize), CheckGroup)> = self
            .first
            .iter()
            .enumerate()
            .map(|(track, replies)| {
                let schema = self.tracks[track][0].clone();
                let replies = replies.clone();
                let group = CheckGroup {
                    schema,
                    previous: None,
                    served_importance: None,
                    replies,
                };
                ((track, 0), group)
            })
            .collect();
        groups.extend(w.checks);
        for (key, op, body) in r.kept {
            if let Some((_, group)) = groups.iter_mut().find(|(k, _)| *k == key) {
                group.replies.push((op, body));
            }
        }
        let warm: HashSet<(usize, usize)> =
            w.warm.iter().filter(|(_, warm)| *warm).map(|(k, _)| *k).collect();
        let mut chains: Vec<Vec<Option<ImportanceResult>>> = Vec::new();
        for (track, versions) in self.tracks.iter().enumerate() {
            let reached = *self.current[track].read().expect("track lock poisoned");
            chains.push(served_importance(&versions[..=reached], |v| {
                warm.contains(&(track, v))
            }));
        }
        for ((track, version), group) in &mut groups {
            group.served_importance = chains[*track][*version].take();
        }
        out.checks = groups.into_iter().map(|(_, g)| g).collect();
        out.finish(&self.node)
    }
}
