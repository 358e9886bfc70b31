//! The paper's Figure 1 as an integration test: the analyzer attributes
//! the spatial reuse of the row-order nest to the outer loop, the advisor
//! recommends interchange, and the interchanged nest removes the misses.

use reuselens::advisor::{Advisor, Transformation};
use reuselens::cache::MemoryHierarchy;
use reuselens::core::{analyze_program_with, AnalyzeOptions};
use reuselens::metrics::run_locality_analysis;
use reuselens::workloads::kernels::{fig1_interchange, Fig1Variant};

const N: u64 = 512;
const M: u64 = 2048;

#[test]
fn outer_loop_carries_the_reuse() {
    let w = fig1_interchange(N, M, Fig1Variant::RowOrder);
    let la = run_locality_analysis(&w.program, &MemoryHierarchy::itanium2(), vec![]).unwrap();
    let l2 = la.level("L2").unwrap();
    let i = w.program.scope_by_name("i").unwrap();
    // The I loop (outermost) carries nearly all the spatial-reuse misses.
    assert_eq!(l2.top_carriers()[0].0, i);
    assert!(l2.carried[i.index()] / l2.total_misses > 0.8);
}

#[test]
fn advisor_recommends_interchange_of_the_carrier() {
    let w = fig1_interchange(N, M, Fig1Variant::RowOrder);
    let la = run_locality_analysis(&w.program, &MemoryHierarchy::itanium2(), vec![]).unwrap();
    let recs = Advisor::new(&w.program).advise(la.level("L2").unwrap());
    let i = w.program.scope_by_name("i").unwrap();
    assert!(matches!(
        recs[0].transformation,
        Transformation::LoopInterchange { carrier } if carrier == i
    ));
}

#[test]
fn interchange_removes_the_misses() {
    let h = MemoryHierarchy::itanium2();
    let before = fig1_interchange(N, M, Fig1Variant::RowOrder);
    let after = fig1_interchange(N, M, Fig1Variant::Interchanged);
    let la_b = run_locality_analysis(&before.program, &h, vec![]).unwrap();
    let la_a = run_locality_analysis(&after.program, &h, vec![]).unwrap();
    let l2_b = la_b.level("L2").unwrap().total_misses;
    let l2_a = la_a.level("L2").unwrap().total_misses;
    // After interchange only the compulsory misses remain.
    let lines = (N * M * 8).div_ceil(128) * 2; // two arrays
    assert!(l2_a < lines as f64 * 1.05);
    assert!(
        l2_b / l2_a > 5.0,
        "interchange gain {:.1}x should be large",
        l2_b / l2_a
    );
}

#[test]
fn both_variants_touch_identical_footprints() {
    let a = fig1_interchange(N, M, Fig1Variant::RowOrder);
    let b = fig1_interchange(N, M, Fig1Variant::Interchanged);
    let opts = AnalyzeOptions::default();
    let ra = analyze_program_with(&a.program, &[128], vec![], &opts).unwrap();
    let rb = analyze_program_with(&b.program, &[128], vec![], &opts).unwrap();
    assert_eq!(ra.exec.accesses, rb.exec.accesses);
    assert_eq!(
        ra.profiles[0].distinct_blocks,
        rb.profiles[0].distinct_blocks
    );
}
