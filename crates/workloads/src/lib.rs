//! # reuselens-workloads — the paper's evaluation codes, as IR models
//!
//! Faithful loop-structure models of the two applications the paper tunes,
//! with every transformation variant the evaluation measures:
//!
//! * [`sweep3d`] — the ASCI Sweep3D wavefront neutron-transport kernel:
//!   octant sweeps over diagonal planes of the `(j, k, mi)` iteration space
//!   (paper Fig. 3/4), with the `mi`-blocking and dimension-interchange
//!   transformations of §V-A (Fig. 7);
//! * [`gtc`] — the Gyrokinetic Toroidal Code particle-in-cell kernel:
//!   `chargei` / `poisson` / `smooth` / `spcpft` / `pushi`+`gcmotion`
//!   phases, the `zion` array of seven-field particle records, and the six
//!   cumulative transformations of §V-B (Fig. 11);
//! * [`kernels`] — the paper's pedagogical loops (Fig. 1 interchange,
//!   Fig. 2 fragmentation) and synthetic generators used by tests and
//!   benches.
//!
//! Each builder returns a [`BuiltWorkload`]: the program, the contents of
//! its index arrays (particle→grid maps, solver stencils), and the
//! normalizers the paper's figures divide by (cells or particles-per-cell,
//! and time steps).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod gtc;
pub mod kernels;
pub mod sweep3d;

use reuselens_ir::{ArrayId, Program};

/// A workload model ready to execute: program plus index-array contents
/// plus the figure normalizers.
#[derive(Debug, Clone)]
pub struct BuiltWorkload {
    /// The program to analyze.
    pub program: Program,
    /// Contents for every index array the program reads.
    pub index_arrays: Vec<(ArrayId, Vec<i64>)>,
    /// The per-figure normalizer (mesh cells for Sweep3D, particles per
    /// cell for GTC).
    pub normalizer: f64,
    /// Simulated time steps (figures normalize per time step).
    pub timesteps: u64,
}

impl BuiltWorkload {
    /// Divides a raw metric by `normalizer × timesteps`, the
    /// per-cell-per-time-step units of the paper's figures.
    pub fn normalize(&self, raw: f64) -> f64 {
        raw / (self.normalizer * self.timesteps as f64)
    }
}

/// Line-grain (64 B) reuse analysis of a workload with default options,
/// as the crate's unit tests measure it.
#[cfg(test)]
fn analyze_lines(w: &BuiltWorkload) -> reuselens_core::AnalysisResult {
    let opts = reuselens_core::AnalyzeOptions::default();
    reuselens_core::analyze_program_with(&w.program, &[64], w.index_arrays.clone(), &opts)
        .unwrap()
}
