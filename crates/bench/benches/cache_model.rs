//! Cache-model benchmarks: probabilistic set-associative prediction from a
//! measured profile versus the brute-force LRU simulator on the same
//! trace.

use std::time::Duration;
use reuselens_bench::harness::{Criterion, Throughput};
use reuselens_bench::{criterion_group, criterion_main};
use reuselens::cache::{predict_level, CacheSim, MemoryHierarchy};
use reuselens::core::{analyze_program_with, AnalyzeOptions};
use reuselens::trace::Executor;
use reuselens::workloads::kernels::streaming;

fn bench_predict_vs_simulate(c: &mut Criterion) {
    let w = streaming(1 << 15, 4);
    let h = MemoryHierarchy::itanium2();
    let analysis =
        analyze_program_with(&w.program, &[128], vec![], &AnalyzeOptions::default()).unwrap();
    let profile = analysis.profile_at(128).unwrap();

    let mut g = c.benchmark_group("cache_model");
    g.warm_up_time(Duration::from_secs(1));
    g.measurement_time(Duration::from_secs(2));
    g.sample_size(20);
    g.bench_function("predict_from_profile", |b| {
        b.iter(|| {
            let l2 = predict_level(profile, &h.levels[0]);
            let l3 = predict_level(profile, &h.levels[1]);
            l2.total + l3.total
        })
    });
    g.sample_size(10);
    g.throughput(Throughput::Elements(4 << 15));
    g.bench_function("simulate_full_trace", |b| {
        b.iter(|| {
            let mut sim = CacheSim::new(&h.levels[0], w.program.references().len());
            Executor::new(&w.program).run(&mut sim).unwrap();
            sim.misses()
        })
    });
    g.finish();
}

criterion_group!(benches, bench_predict_vs_simulate);
criterion_main!(benches);
