//! Cross-granularity invariants of the analyzer, checked on seeded random
//! traces: the properties the paper relies on when it measures cache
//! (line) and TLB (page) behaviour from one program.

use reuselens_core::{
    analyze_buffer_with, analyze_program_with, capture_program, AnalysisResult, AnalyzeOptions,
};
use reuselens_ir::{ArrayId, Expr, Program, ProgramBuilder};
use reuselens_prng::SplitMix64;

/// Index arrays seeding a program's executor.
type IndexArrays = Vec<(ArrayId, Vec<i64>)>;

/// A gather `a[ix[i]]` over every entry of `indices`, repeated `sweeps`
/// times, on an array of `elems` 8-byte elements: the random access
/// stream of each case, as a program.
fn gather(indices: &[i64], elems: u64, sweeps: i64) -> (Program, IndexArrays) {
    let n = indices.len() as u64;
    let mut p = ProgramBuilder::new("gather");
    let ix = p.index_array("ix", &[n]);
    let a = p.array("a", 8, &[elems]);
    p.routine("main", |r| {
        r.for_("t", 0, sweeps - 1, |r, _| {
            r.for_("i", 0, (n - 1) as i64, |r, i| {
                r.load(a, vec![Expr::load(ix, vec![i.into()])]);
            });
        });
    });
    (p.finish(), vec![(ix, indices.to_vec())])
}

fn random_indices(rng: &mut SplitMix64, len: std::ops::Range<u64>, elems: u64) -> Vec<i64> {
    rng.vec_u64(len, 0..elems).into_iter().map(|k| k as i64).collect()
}

fn analyze(program: &Program, grains: &[u64], index_arrays: IndexArrays) -> AnalysisResult {
    analyze_program_with(program, grains, index_arrays, &AnalyzeOptions::default()).unwrap()
}

/// Coarser blocks can only merge lines: fewer (or equal) distinct
/// blocks, identical access totals, fewer (or equal) cold misses.
#[test]
fn coarser_granularity_merges_blocks() {
    let mut rng = SplitMix64::seed_from_u64(0x6a41_0001);
    for _case in 0..48 {
        let (prog, index_arrays) = gather(&random_indices(&mut rng, 1..400, 1 << 13), 1 << 13, 1);
        let profiles = analyze(&prog, &[64, 4096], index_arrays).profiles;
        let (fine, coarse) = (&profiles[0], &profiles[1]);
        assert_eq!(fine.total_accesses, coarse.total_accesses);
        assert!(coarse.distinct_blocks <= fine.distinct_blocks);
        assert!(coarse.total_cold() <= fine.total_cold());
        assert!(fine.accesses_balance());
        assert!(coarse.accesses_balance());
    }
}

/// At any granularity, a reuse distance never exceeds the number of
/// other distinct blocks in the whole run.
#[test]
fn distances_bounded_by_footprint() {
    let mut rng = SplitMix64::seed_from_u64(0x6a41_0003);
    for _case in 0..48 {
        let (prog, index_arrays) = gather(&random_indices(&mut rng, 1..300, 1 << 9), 1 << 9, 1);
        let profile = analyze(&prog, &[64], index_arrays).profiles.remove(0);
        let bound = profile.distinct_blocks; // self excluded => strict
        for pat in &profile.patterns {
            if let Some(max) = pat.histogram.max_distance() {
                assert!(
                    max < bound.max(1) * 2,
                    "distance {max} vs {bound} distinct blocks"
                );
            }
            // exact check on the histogram's mass at or above the bound
            assert_eq!(pat.histogram.count_ge(bound), 0.0);
        }
    }
}

/// Capture + parallel replay is bit-identical to direct execution on a
/// random indirect-access trace, at every granularity.
#[test]
fn parallel_replay_equals_direct_on_random_gather() {
    let mut rng = SplitMix64::seed_from_u64(0x6a41_0004);
    for _case in 0..8 {
        let n = rng.gen_range(16..128);
        let idx: Vec<i64> = (0..n).map(|_| rng.gen_range(0..8192) as i64).collect();
        let (prog, index_arrays) = gather(&idx, 8192, 3);
        let direct = analyze(&prog, &[64, 4096], index_arrays.clone());
        let (buffer, exec) = capture_program(&prog, index_arrays).unwrap();
        let (profiles, _) =
            analyze_buffer_with(&prog, &buffer, &[64, 4096], &AnalyzeOptions::default())
                .into_strict()
                .unwrap();
        assert_eq!(direct.profiles, profiles);
        assert_eq!(buffer.stats().accesses, direct.exec.accesses);
        assert_eq!(exec, direct.exec);
    }
}

/// Determinism: the same program analyzed twice produces identical
/// profiles (the repro harnesses depend on this).
#[test]
fn analysis_is_deterministic() {
    let idx: Vec<i64> = (0..256).map(|k| (k * 37) % 4096).collect();
    let (prog, index_arrays) = gather(&idx, 4096, 3);
    let r1 = analyze(&prog, &[64, 4096], index_arrays.clone());
    let r2 = analyze(&prog, &[64, 4096], index_arrays);
    assert_eq!(r1.profiles, r2.profiles);
    assert_eq!(r1.exec, r2.exec);
}
