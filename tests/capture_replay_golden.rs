//! Golden equivalence between the analysis pipelines on the paper's real
//! workload models, at multiple block granularities:
//!
//! * the capture-once / replay-many pipeline must produce
//!   **bit-identical** reuse profiles to direct execution, which runs one
//!   executor per grain straight into its analyzer;
//! * the end-to-end pipeline must produce the same profiles, executor
//!   report and miss predictions as capture → replay → attribution, exact
//!   and sampled, and fail with the same executor error.
//!
//! This pins the trace buffer's encode/decode round trip and the
//! threaded replay against the reference pipeline — any divergence in
//! event order, clock arithmetic, or scope bookkeeping shows up as a
//! profile mismatch here.

use reuselens::cache::MemoryHierarchy;
use reuselens::core::{
    analyze_buffer_with, analyze_program_with, capture_program, AnalysisResult, AnalyzeOptions,
    SamplingConfig,
};
use reuselens::ir::ProgramBuilder;
use reuselens::metrics::{attribute_analysis, run_locality_analysis_opts};
use reuselens::workloads::gtc::{build as build_gtc, GtcConfig};
use reuselens::workloads::kernels::random_gather;
use reuselens::workloads::sweep3d::{build as build_sweep, SweepConfig};
use reuselens::workloads::BuiltWorkload;
use reuselens::ReuseLensError;

/// Line + page granularity: the paper's cache and TLB studies in one run.
const GRAINS: [u64; 2] = [64, 4096];

fn assert_pipelines_identical(w: &BuiltWorkload, grains: &[u64]) {
    let opts = AnalyzeOptions::default();
    let direct = analyze_program_with(&w.program, grains, w.index_arrays.clone(), &opts).unwrap();
    let (buffer, exec) = capture_program(&w.program, w.index_arrays.clone()).unwrap();
    let (profiles, replays) = analyze_buffer_with(&w.program, &buffer, grains, &opts)
        .into_strict()
        .unwrap();
    let par = AnalysisResult { profiles, exec };
    let stats = buffer.stats();
    assert_eq!(
        direct.profiles, par.profiles,
        "replayed profiles diverged from direct execution"
    );
    assert_eq!(direct.exec, par.exec);
    assert_eq!(stats.accesses, direct.exec.accesses);
    assert_eq!(replays.len(), grains.len());
    // The columnar encoding must actually compress the event stream.
    assert!(stats.compression_ratio() > 1.0, "buffer stats: {stats}");
    for p in &par.profiles {
        assert!(p.accesses_balance());
    }
}

#[test]
fn sweep3d_capture_replay_is_bit_identical() {
    assert_pipelines_identical(&build_sweep(&SweepConfig::new(8)), &GRAINS);
}

#[test]
fn sweep3d_transformed_capture_replay_is_bit_identical() {
    // Exercise a transformed variant too: blocking changes the scope tree
    // and the reuse carriers, not just the address stream.
    let cfg = SweepConfig::new(8).with_mi_block(2).with_dim_interchange();
    assert_pipelines_identical(&build_sweep(&cfg), &GRAINS);
}

#[test]
fn gtc_capture_replay_is_bit_identical() {
    // GTC's gather/scatter goes through index arrays, covering the
    // indirect-access path of the executor during capture.
    assert_pipelines_identical(&build_gtc(&GtcConfig::new(64, 8)), &GRAINS);
}

#[test]
fn gtc_capture_replay_at_extra_grains() {
    // A third, intermediate granularity on the irregular workload.
    assert_pipelines_identical(&build_gtc(&GtcConfig::new(32, 4)), &[64, 256, 4096]);
}

/// Exact, fixed-rate and adaptive sampling; the adaptive budget is small
/// enough that every input below drops its rate at least once.
fn samplings() -> [SamplingConfig; 3] {
    [
        SamplingConfig::Exact,
        SamplingConfig::fixed(0.25),
        SamplingConfig::adaptive(16),
    ]
}

/// Runs the end-to-end pipeline (direct execution per grain) and the
/// capture → replay → attribution pipeline by public calls, and requires
/// equal profiles, executor reports and miss predictions.
fn assert_direct_matches_replay(w: &BuiltWorkload) {
    let h = MemoryHierarchy::itanium2_scaled(16);
    let grains = h.required_granularities();
    for sampling in samplings() {
        let opts = AnalyzeOptions {
            sampling,
            ..AnalyzeOptions::default()
        };
        let direct =
            run_locality_analysis_opts(&w.program, &h, w.index_arrays.clone(), &opts).unwrap();
        let (buffer, exec) = capture_program(&w.program, w.index_arrays.clone()).unwrap();
        let (profiles, _) = analyze_buffer_with(&w.program, &buffer, &grains, &opts)
            .into_strict()
            .unwrap();
        let replayed = attribute_analysis(&w.program, &h, AnalysisResult { profiles, exec });
        assert_eq!(
            direct.analysis.profiles, replayed.analysis.profiles,
            "{sampling:?}: direct profiles diverged from capture + replay"
        );
        assert_eq!(direct.analysis.exec, replayed.analysis.exec, "{sampling:?}");
        assert_eq!(direct.report, replayed.report, "{sampling:?}");
        if let SamplingConfig::Adaptive { .. } = sampling {
            assert!(
                direct
                    .analysis
                    .profiles
                    .iter()
                    .any(|p| p.sampling.is_some_and(|s| s.rate_drops > 0)),
                "the adaptive run never dropped its rate"
            );
        }
    }
}

#[test]
fn sweep3d_direct_execution_matches_replay() {
    for mesh in [4, 8, 12] {
        assert_direct_matches_replay(&build_sweep(&SweepConfig::new(mesh)));
    }
    let blocked = SweepConfig::new(8).with_mi_block(2).with_dim_interchange();
    assert_direct_matches_replay(&build_sweep(&blocked));
}

#[test]
fn gtc_direct_execution_matches_replay() {
    for seed in [1, 2] {
        let mut cfg = GtcConfig::new(64, 8);
        cfg.seed = seed;
        assert_direct_matches_replay(&build_gtc(&cfg));
    }
}

#[test]
fn random_gather_direct_execution_matches_replay() {
    assert_direct_matches_replay(&random_gather(1 << 10, 1 << 12, 2, 7));
}

#[test]
fn direct_execution_fails_with_the_capture_error() {
    let mut p = ProgramBuilder::new("oob");
    let a = p.array("a", 8, &[16]);
    p.routine("main", |r| {
        r.for_("i", 0, 31, |r, i| {
            r.load(a, vec![i.into()]);
        });
    });
    let prog = p.finish();
    let h = MemoryHierarchy::itanium2_scaled(16);
    let captured = capture_program(&prog, vec![]).unwrap_err();
    for sampling in samplings() {
        let opts = AnalyzeOptions {
            sampling,
            ..AnalyzeOptions::default()
        };
        let direct = run_locality_analysis_opts(&prog, &h, vec![], &opts).unwrap_err();
        assert_eq!(direct, ReuseLensError::Exec(captured.clone()));
    }
}
