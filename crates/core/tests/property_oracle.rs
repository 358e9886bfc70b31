//! Randomized differential suite: the tree-based analyzer versus the
//! brute-force LRU-stack oracle.
//!
//! Every case generates an address trace from a seeded [`SplitMix64`]
//! stream (strided, pointer-chasing, or clustered — the three access
//! shapes the paper's workloads exhibit), replays it through
//! [`ReuseAnalyzer`] at grains 1/64/4096, and checks, access by access,
//! that the analyzer's measured distance equals
//! [`oracle::stack_distances`]. The finished profile's merged histogram
//! and cold count must match the oracle's aggregates too.
//!
//! Failures are deterministic: the panic message carries the case index,
//! seed, grain, and the smallest failing prefix length (found by a
//! fixed-seed shrink loop), so any failure reproduces exactly.

use reuselens_core::oracle;
use reuselens_core::{Histogram, ReuseAnalyzer};
use reuselens_ir::{AccessKind, Program, ProgramBuilder, RefId};
use reuselens_prng::SplitMix64;
use reuselens_trace::TraceSink;

const GRAINS: [u64; 3] = [1, 64, 4096];
const CASES_PER_SHAPE: usize = 72;
const BASE_SEED: u64 = 0x0b5e_7e57_0000;

/// A one-reference program so the analyzer has a sink to attribute to;
/// the property suite drives the [`TraceSink`] interface directly.
fn one_ref_program() -> Program {
    let mut p = ProgramBuilder::new("property_oracle");
    let a = p.array("a", 8, &[1]);
    p.routine("main", |r| {
        r.for_("i", 0, 0, |r, i| {
            r.load(a, vec![i.into()]);
        });
    });
    p.finish()
}

#[derive(Clone, Copy, Debug)]
enum Shape {
    /// Constant stride over a wrapped footprint (unit and non-unit).
    Strided,
    /// Uniform random addresses — worst case for any locality shortcut.
    PointerChasing,
    /// Bursts of nearby addresses with occasional far jumps.
    Clustered,
}

const SHAPES: [Shape; 3] = [Shape::Strided, Shape::PointerChasing, Shape::Clustered];

/// Generates one deterministic address trace for (shape, seed).
fn gen_trace(shape: Shape, seed: u64) -> Vec<u64> {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let len = rng.gen_range(50..400) as usize;
    match shape {
        Shape::Strided => {
            // Strides straddle the test grains: sub-block, exactly one
            // block, and block-misaligned.
            let strides = [1u64, 8, 64, 136, 4096, 4104];
            let stride = strides[rng.gen_range(0..strides.len() as u64) as usize];
            let footprint = stride * rng.gen_range(8..64);
            let base = rng.gen_range(0..1 << 20);
            (0..len as u64)
                .map(|i| base + (i * stride) % footprint)
                .collect()
        }
        Shape::PointerChasing => {
            let span = rng.gen_range(1 << 8..1 << 16);
            (0..len).map(|_| rng.gen_range(0..span)).collect()
        }
        Shape::Clustered => {
            let mut addrs = Vec::with_capacity(len);
            let mut cluster = rng.gen_range(0..1 << 20);
            for _ in 0..len {
                if rng.gen_f64() < 0.1 {
                    cluster = rng.gen_range(0..1 << 20);
                }
                addrs.push(cluster + rng.gen_range(0..256));
            }
            addrs
        }
    }
}

/// Replays `addrs` through a fresh analyzer at `grain` and diffs it
/// against the oracle, per access and in aggregate. Returns a mismatch
/// description, or `None` when everything agrees.
fn check(program: &Program, addrs: &[u64], grain: u64) -> Option<String> {
    let expected = oracle::stack_distances(addrs, grain);
    let mut analyzer = ReuseAnalyzer::new(program, grain);
    let mut want_hist = Histogram::new();
    let mut want_cold = 0u64;
    for (i, (&addr, want)) in addrs.iter().zip(&expected).enumerate() {
        analyzer.access(RefId(0), addr, 8, AccessKind::Load);
        let got = analyzer.last_distance();
        if got != *want {
            return Some(format!(
                "access {i} (addr {addr:#x}): analyzer says {got:?}, oracle says {want:?}"
            ));
        }
        match want {
            Some(d) => want_hist.add(*d),
            None => want_cold += 1,
        }
    }
    let profile = analyzer.finish();
    let mut got_hist = Histogram::new();
    for p in &profile.patterns {
        got_hist.merge(&p.histogram);
    }
    if got_hist != want_hist {
        return Some(format!(
            "merged histogram mismatch: {} reuses measured, {} expected",
            got_hist.total(),
            want_hist.total()
        ));
    }
    if profile.total_cold() != want_cold {
        return Some(format!(
            "cold mismatch: {} measured, {want_cold} expected",
            profile.total_cold()
        ));
    }
    if profile.total_accesses != addrs.len() as u64 {
        return Some(format!(
            "access count mismatch: {} measured, {} expected",
            profile.total_accesses,
            addrs.len()
        ));
    }
    None
}

/// Finds the smallest failing prefix of `addrs` — the shrunk repro. The
/// trace is fixed (same seed), so the search is deterministic.
fn shrink(program: &Program, addrs: &[u64], grain: u64) -> (usize, String) {
    for plen in 1..=addrs.len() {
        if let Some(msg) = check(program, &addrs[..plen], grain) {
            return (plen, msg);
        }
    }
    unreachable!("shrink called on a passing trace");
}

#[test]
fn analyzer_matches_oracle_on_random_traces() {
    let program = one_ref_program();
    let mut case = 0usize;
    for shape in SHAPES {
        for _ in 0..CASES_PER_SHAPE {
            let seed = BASE_SEED ^ (case as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let addrs = gen_trace(shape, seed);
            for grain in GRAINS {
                if check(&program, &addrs, grain).is_some() {
                    let (plen, msg) = shrink(&program, &addrs, grain);
                    panic!(
                        "case {case} ({shape:?}, seed {seed:#x}, grain {grain}): \
                         smallest failing prefix {plen}/{}: {msg}\n\
                         prefix: {:?}",
                        addrs.len(),
                        &addrs[..plen],
                    );
                }
            }
            case += 1;
        }
    }
    assert_eq!(case, SHAPES.len() * CASES_PER_SHAPE);
}
