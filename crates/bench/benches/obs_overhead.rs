//! Overhead of the observability layer on the replay hot path.
//!
//! The obs design promise is "zero cost when disabled, bounded cost when
//! enabled": instrumentation reports bulk deltas (per grain / per buffer),
//! never per event, so an installed recorder should cost a handful of
//! atomic operations per replay. This bench measures the multi-grain
//! replay of a captured gather trace with no recorder installed and with
//! a `MetricsRecorder` installed, and prints the ratio. The target is
//! enabled ≤ 1.10x disabled; the figure is printed, not gated, because a
//! loaded CI host can wobble any wall-clock ratio.
//!
//! Run with `cargo bench -p reuselens-bench --bench obs_overhead`.

use reuselens::core::{analyze_buffer_with, capture_program, AnalyzeOptions};
use reuselens::obs::{self, MetricsRecorder};
use reuselens::workloads::kernels::random_gather;
use reuselens_bench::harness::Criterion;
use reuselens_bench::{criterion_group, criterion_main};
use std::sync::Arc;
use std::time::{Duration, Instant};

const GRAINS: [u64; 2] = [128, 16 * 1024];

/// One strict multi-grain replay with default options.
fn replay(program: &reuselens::ir::Program, buffer: &reuselens::trace::TraceBuffer) {
    let opts = AnalyzeOptions::default();
    let result = analyze_buffer_with(program, buffer, &GRAINS, &opts).into_strict();
    std::hint::black_box(result.unwrap());
}

/// Best-of-`reps` wall time of a full multi-grain replay.
fn best_replay_wall(
    program: &reuselens::ir::Program,
    buffer: &reuselens::trace::TraceBuffer,
    reps: usize,
) -> Duration {
    (0..reps)
        .map(|_| {
            let t = Instant::now();
            replay(program, buffer);
            t.elapsed()
        })
        .min()
        .unwrap_or(Duration::ZERO)
}

fn bench_obs_overhead(c: &mut Criterion) {
    let w = random_gather(1 << 13, 1 << 15, 2, 7);
    let (buffer, _) = capture_program(&w.program, w.index_arrays.clone()).unwrap();

    let mut g = c.benchmark_group("obs_overhead");
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(3));
    g.sample_size(10);
    g.bench_function("replay_2grain_disabled", |b| {
        b.iter(|| replay(&w.program, &buffer))
    });
    let recorder = Arc::new(MetricsRecorder::new());
    obs::install(recorder.clone());
    g.bench_function("replay_2grain_enabled", |b| {
        b.iter(|| replay(&w.program, &buffer))
    });
    obs::uninstall();
    g.finish();

    // Direct best-of comparison for the printed overhead figure: best-of
    // minimizes scheduler noise, which matters more than the mean when the
    // expected delta is a few atomic ops per grain.
    let reps = 5;
    let disabled = best_replay_wall(&w.program, &buffer, reps);
    obs::install(Arc::new(MetricsRecorder::new()));
    let enabled = best_replay_wall(&w.program, &buffer, reps);
    obs::uninstall();
    let ratio = enabled.as_secs_f64() / disabled.as_secs_f64().max(f64::MIN_POSITIVE);
    println!(
        "obs_overhead/ratio: {ratio:.3}x (disabled {:.2} ms, enabled {:.2} ms; target <= 1.10x, \
         informational)",
        disabled.as_secs_f64() * 1e3,
        enabled.as_secs_f64() * 1e3,
    );

    // Track the figure across PRs: merge it into BENCH_reuselens.json
    // (repo root, or $BENCH_JSON) instead of leaving it stdout-only.
    let bench_json = std::env::var("BENCH_JSON").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_reuselens.json").to_string()
    });
    match reuselens_bench::report::record_overhead_ratio(std::path::Path::new(&bench_json), ratio)
    {
        Ok(()) => println!("obs_overhead/ratio recorded in {bench_json}"),
        Err(e) => eprintln!("obs_overhead/ratio not recorded ({bench_json}: {e})"),
    }
}

criterion_group!(benches, bench_obs_overhead);
criterion_main!(benches);
