//! # reuselens-core — online reuse-distance analysis
//!
//! The primary contribution of the reproduced paper: measuring memory reuse
//! distance *per reuse pattern*. A reuse pattern is the triple
//! *(sink reference, source scope, carrying scope)*:
//!
//! * the **sink** is the reference at the destination end of a reuse arc;
//! * the **source scope** is where the block was last accessed before;
//! * the **carrying scope** is the innermost dynamic scope active across
//!   the whole reuse interval — the loop that *drives* the reuse, and the
//!   one a transformation must target to shorten the distance.
//!
//! The machinery follows the paper:
//!
//! * a logical **access clock** incremented per memory operation;
//! * a [three-level hierarchical block table](BlockTable) mapping each
//!   block to its last access time and last accessor;
//! * a distance structure that counts the distinct blocks accessed since
//!   any past time. The paper uses a balanced order-statistic tree; the
//!   exact [`ReuseAnalyzer`] puts a small recent-access window in front of
//!   a [`TimeBits`] popcount bitmap over the dense access clock instead,
//!   with identical distances. The [`OrderStatTree`] still serves the
//!   sampled, context and reference analyzers and the partitioned
//!   replay's cross-segment pass, where times are sparse;
//! * a [dynamic scope stack](ScopeStack) searched for the carrying scope;
//! * per-pattern [histograms](Histogram) with logarithmic bins.
//!
//! Start with [`analyze_program_with`]: it measures every requested block
//! granularity under [`AnalyzeOptions`] and picks the cheapest event
//! source the options allow. To keep a trace, interpret the program once
//! with [`capture_program`] and replay the buffer with
//! [`analyze_buffer_with`], or with [`analyze_buffer_checkpointed`] for
//! crash-safe snapshots — all with bit-identical profiles. Or drive a
//! [`ReuseAnalyzer`] through [`reuselens_trace::Executor`] yourself.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]

mod analyze;
mod analyzer;
mod blocktable;
mod budget;
mod context;
mod histogram;
pub mod oracle;
mod ostree;
mod partition;
mod patterns;
mod reference;
mod sampling;
mod scopestack;
mod serialize;
mod snapshot;
mod spatial;
mod timebits;

pub use analyze::{
    analyze_buffer_checkpointed, analyze_buffer_with, analyze_program_with, capture_program,
    AnalysisError, AnalysisResult, AnalyzeOptions, CheckpointOptions, FailureReport, GrainError,
    PartialAnalysis, ReplayTiming,
};
pub use analyzer::ReuseAnalyzer;
pub use partition::ReplayThreads;
pub use reference::ReferenceAnalyzer;
pub use budget::{AnalysisBudget, BudgetExceeded, BudgetLimit, BudgetProgress};
pub use blocktable::{BlockEntry, BlockTable, MAX_BLOCKS};
pub use context::{ContextAnalyzer, ContextId, ContextProfile, CtxPattern, CtxPatternKey};
pub use histogram::Histogram;
pub use ostree::OrderStatTree;
pub use patterns::{PatternKey, ReusePattern, ReuseProfile};
pub use sampling::{SampledAnalyzer, SamplingConfig, SamplingInfo};
pub use scopestack::ScopeStack;
pub use snapshot::{snapshot_file_name, snapshot_meta, SnapshotError, SnapshotMeta, SNAPSHOT_VERSION};
pub use timebits::TimeBits;
pub use serialize::{read_profiles, write_profiles, ReadError, SavedProfiles};
pub use spatial::{measure_spatial, ArraySpatial, SpatialProfile, SpatialSink};
