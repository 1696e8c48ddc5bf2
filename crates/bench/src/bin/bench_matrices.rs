//! Harness target emitting `BENCH_matrices.json`: wall time of the cold
//! all-pairs matrix pass.
//!
//! Three rows per dataset: [`PairMatrices::compute`] as shipped (batched
//! layered kernel, thread count chosen from the schema size), the same
//! pass pinned to one thread, and a one-thread loop of single-source
//! [`Explorer::explore`] calls — the kernel without batching — whose ratio
//! to the one-thread batched row isolates the win of the multi-source
//! frontier sweep. The XMark SF 1.0 row is the headline measurement; the synthetic
//! rows show scaling in element count and value-link density, down to the
//! small sizes (n = 25 and 47) that DESIGN.md §3.19 quotes.
//!
//! Run with `cargo run --release -p schema-summary-bench --bin
//! bench_matrices`. Pass `--quick` for a single-repetition smoke run (CI):
//! same datasets and rows, no timing stability.

use schema_summary_algo::{Explorer, PairMatrices, PathConfig};
use schema_summary_bench::synthetic::random_schema;
use schema_summary_core::{ElementId, SchemaStats};
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct KernelRow {
    kernel: String,
    /// Minimum wall time over the repetitions. The bench hosts are noisy
    /// shared VMs where individual runs swing ±50%; the minimum is the run
    /// least perturbed by neighbors and is stable across invocations.
    min_ms: f64,
    expansions: u64,
    truncated: bool,
}

#[derive(Serialize)]
struct DatasetRows {
    dataset: String,
    elements: usize,
    kernels: Vec<KernelRow>,
    /// The single-source loop vs the one-thread batched row — the
    /// isolated win of the multi-source frontier sweep.
    speedup_batched_vs_single_source: f64,
}

#[derive(Serialize)]
struct Report {
    description: String,
    config: String,
    datasets: Vec<DatasetRows>,
}

/// One timed cold pass; returns its expansion count and truncation flag.
type Pass<'a> = &'a mut dyn FnMut() -> (u64, bool);

/// Time every row: one untimed warm-up each, then `reps` rounds that run
/// the rows back to back, keeping each row's minimum. Interleaving the
/// rows exposes them to the same stretches of host noise.
fn time_rows(reps: usize, rows: &mut [(&str, Pass)]) -> Vec<KernelRow> {
    let mut out: Vec<KernelRow> = rows
        .iter_mut()
        .map(|(name, run)| {
            let (expansions, truncated) = run();
            KernelRow {
                kernel: (*name).into(),
                min_ms: f64::INFINITY,
                expansions,
                truncated,
            }
        })
        .collect();
    for _ in 0..reps {
        for ((_, run), row) in rows.iter_mut().zip(&mut out) {
            let start = Instant::now();
            std::hint::black_box(run());
            row.min_ms = row.min_ms.min(start.elapsed().as_secs_f64() * 1e3);
        }
    }
    out
}

/// One source at a time through [`Explorer::explore`], writing the rows
/// into dense affinity and coverage matrices as `PairMatrices` does.
fn single_source_pass(stats: &SchemaStats, cfg: &PathConfig) -> (u64, bool) {
    let n = stats.len();
    let mut affinity = vec![0.0; n * n];
    let mut coverage = vec![0.0; n * n];
    let mut explorer = Explorer::new(n);
    let (mut expansions, mut truncated) = (0, false);
    for a in 0..n {
        let res = explorer.explore(ElementId(a as u32), stats, cfg);
        affinity[a * n..][..n].copy_from_slice(&res.best_affinity);
        for (b, slot) in coverage[a * n..][..n].iter_mut().enumerate() {
            *slot = stats.card(ElementId(b as u32)) * res.best_cov_product[b];
        }
        expansions += res.expansions;
        truncated |= res.truncated;
    }
    std::hint::black_box((affinity, coverage));
    (expansions, truncated)
}

fn measure(dataset: String, stats: &SchemaStats, quick: bool) -> DatasetRows {
    // Sub-millisecond passes get enough repetitions for a stable minimum.
    let reps = match (quick, stats.len() < 100) {
        (true, _) => 1,
        (false, true) => 400,
        (false, false) => 9,
    };
    let cfg = PathConfig {
        max_expansions: 50_000_000,
        ..Default::default()
    };
    let summary = |m: PairMatrices| (m.expansions(), m.truncated());
    let kernels = time_rows(
        reps,
        &mut [
            (
                "PairMatrices::compute (batched, default threads)",
                &mut || summary(PairMatrices::compute(stats, &cfg)),
            ),
            ("compute_with_threads(1) (batched, one thread)", &mut || {
                summary(PairMatrices::compute_with_threads(stats, &cfg, 1))
            }),
            ("Explorer::explore per source (one thread)", &mut || {
                single_source_pass(stats, &cfg)
            }),
        ],
    );
    DatasetRows {
        dataset,
        elements: stats.len(),
        speedup_batched_vs_single_source: kernels[2].min_ms / kernels[1].min_ms,
        kernels,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let mut datasets = Vec::new();

    let (g, s, _) = schema_summary_datasets::xmark::schema(1.0);
    datasets.push(measure(format!("XMark SF 1.0 (n={})", g.len()), &s, quick));

    for (n, density) in [
        (25usize, 0.05),
        (47, 0.05),
        (100, 0.05),
        (500, 0.05),
        (2000, 0.05),
        (500, 0.20),
    ] {
        let (_, s) = random_schema(n, density, 42);
        datasets.push(measure(
            format!("synthetic n={n} density={density}"),
            &s,
            quick,
        ));
    }

    let report = Report {
        description: "Cold PairMatrices::compute wall time: as shipped, the same on one \
                      thread, and a one-thread single-source Explorer::explore loop (no \
                      batching)"
            .into(),
        config: "PathConfig::default() except max_expansions=50000000 (max_edges=10)".into(),
        datasets,
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_matrices.json", &json).expect("write BENCH_matrices.json");
    println!("{json}");
}
