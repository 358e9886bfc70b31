//! Per-configuration analysis vs capture-once / replay-many on the kernels
//! workload.
//!
//! The scenario is the paper's design-space sweep: measure reuse at two
//! granularities (cache line + page) and score four candidate cache
//! hierarchies. Three pipelines are compared:
//!
//! * `per_config_online` — the pre-buffer flow: [`evaluate_program`] per
//!   hierarchy, so the program is re-interpreted and re-analyzed for every
//!   configuration.
//! * `shared_online` — one [`analyze_program_with`] run, then the four
//!   configurations scored sequentially from the shared profiles.
//! * `capture_parallel` — the capture-once engine: one interpretation into
//!   a compact [`TraceBuffer`](reuselens::trace::TraceBuffer), one replay
//!   thread per grain, one scoring thread per configuration.
//!
//! Run with `cargo bench -p reuselens-bench --bench replay`. The final
//! line prints the measured end-to-end speedup of `capture_parallel` over
//! `per_config_online` for the 2-grain + 4-config sweep; on a multi-core
//! host the parallel replay adds to the capture-once amortization.

use reuselens::cache::{evaluate_program, evaluate_sweep, MemoryHierarchy};
use reuselens::core::{
    analyze_buffer_with, analyze_program_with, capture_program, AnalysisResult, AnalyzeOptions,
};
use reuselens::workloads::kernels::random_gather;
use reuselens::workloads::BuiltWorkload;
use reuselens_bench::harness::{Criterion, Throughput};
use reuselens_bench::{criterion_group, criterion_main};
use std::time::{Duration, Instant};

/// Cache-line + page granularity of the Itanium2 hierarchy presets.
const GRAINS: [u64; 2] = [128, 16 * 1024];

fn hierarchies() -> Vec<MemoryHierarchy> {
    [4u64, 8, 16, 32].map(MemoryHierarchy::itanium2_scaled).into()
}

fn workload() -> BuiltWorkload {
    // Large enough that analysis dominates interpretation, with the tree
    // churn of an irregular access stream.
    random_gather(1 << 14, 1 << 16, 2, 7)
}

/// Pre-buffer flow: every configuration re-executes and re-analyzes.
fn per_config_online(w: &BuiltWorkload, hs: &[MemoryHierarchy]) -> f64 {
    hs.iter()
        .map(|h| {
            let (report, _) = evaluate_program(&w.program, h, w.index_arrays.clone()).unwrap();
            report.timing.total()
        })
        .sum()
}

/// One analysis, configurations scored sequentially from it.
fn shared_online(w: &BuiltWorkload, hs: &[MemoryHierarchy]) -> f64 {
    let opts = AnalyzeOptions::default();
    let analysis =
        analyze_program_with(&w.program, &GRAINS, w.index_arrays.clone(), &opts).unwrap();
    hs.iter()
        .map(|h| reuselens::cache::report_from_analysis(&analysis, h).timing.total())
        .sum()
}

/// Capture + parallel replay: one interpretation into the buffer, one
/// replay thread per grain, one scoring thread per configuration.
fn capture_parallel(w: &BuiltWorkload, hs: &[MemoryHierarchy]) -> f64 {
    let (buffer, report) = capture_program(&w.program, w.index_arrays.clone()).unwrap();
    let (profiles, _timings) =
        analyze_buffer_with(&w.program, &buffer, &GRAINS, &AnalyzeOptions::default())
            .into_strict()
            .unwrap();
    let analysis = AnalysisResult {
        profiles,
        exec: report,
    };
    let (reports, _timings) = evaluate_sweep(&analysis, hs).unwrap();
    reports.iter().map(|r| r.timing.total()).sum()
}

fn bench_replay(c: &mut Criterion) {
    let w = workload();
    let hs = hierarchies();
    let accesses = 2 * (1u64 << 16) * GRAINS.len() as u64;
    let mut g = c.benchmark_group("replay");
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(4));
    g.sample_size(10);
    g.throughput(Throughput::Elements(accesses));
    g.bench_function("per_config_online_2grain_4config", |b| {
        b.iter(|| per_config_online(&w, &hs))
    });
    g.bench_function("shared_online_2grain_4config", |b| b.iter(|| shared_online(&w, &hs)));
    g.bench_function("capture_parallel_2grain_4config", |b| {
        b.iter(|| capture_parallel(&w, &hs))
    });
    g.finish();

    // Direct apples-to-apples speedup measurement over a few repetitions.
    let reps = 3;
    let t0 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(per_config_online(&w, &hs));
    }
    let online_wall = t0.elapsed();
    let t1 = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(capture_parallel(&w, &hs));
    }
    let parallel_wall = t1.elapsed();
    let speedup = online_wall.as_secs_f64() / parallel_wall.as_secs_f64();
    println!(
        "replay/speedup: {speedup:.2}x (per-config online {:.1} ms vs capture+parallel {:.1} ms, \
         2 grains x 4 configs)",
        online_wall.as_secs_f64() * 1e3 / reps as f64,
        parallel_wall.as_secs_f64() * 1e3 / reps as f64,
    );
}

criterion_group!(benches, bench_replay);
criterion_main!(benches);
