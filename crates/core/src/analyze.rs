//! Program analysis: execute a program, measure reuse at several
//! granularities.
//!
//! Four public functions cover every pipeline, and every path through
//! them produces bit-identical profiles:
//!
//! * [`analyze_program_with`] — the entry point for callers that hold a
//!   program. It picks the cheapest event source the [`AnalyzeOptions`]
//!   allow (see below) and returns the strict [`AnalysisResult`].
//! * [`capture_program`] — interprets the program exactly once into a
//!   compact [`TraceBuffer`], the unit the daemon, the trace store and
//!   checkpointed replay work on. [`TraceBuffer::stats`] reports its size.
//! * [`analyze_buffer_with`] — the entry point for callers that hold a
//!   buffer. Each grain decodes it on its own thread; the result is a
//!   [`PartialAnalysis`], and [`PartialAnalysis::into_strict`] turns the
//!   first grain failure into an [`AnalysisError`].
//! * [`analyze_buffer_checkpointed`] — [`analyze_buffer_with`] with
//!   crash-safe snapshots and resume.
//!
//! Interpreting the lowered program costs about as much per event as
//! encoding it: on Sweep3D (mesh 32, 8.9 M events, 2-core Xeon) executing
//! into a no-op sink takes ≈9–17 ns per event, encoding into the buffer
//! another ≈16–24 ns, and each grain's decode ≈7–11 ns. Re-executing per
//! grain is therefore cheaper than capturing once and decoding per grain,
//! and [`analyze_program_with`] runs one [`Executor`] per grain straight
//! into that grain's analyzer unless the options need a buffer:
//! partitioned replay ([`AnalyzeOptions::replay_threads`] resolving to
//! more than one thread) cuts the buffer in time, and a limited
//! [`AnalyzeOptions::budget`] or [`AnalyzeOptions::validate`] runs the
//! checking decoder. Then it captures once and calls
//! [`analyze_buffer_with`].
//!
//! Every grain can run through the constant-space [`SampledAnalyzer`]
//! instead of the exact analyzer: set [`AnalyzeOptions::sampling`]. Exact
//! mode stays the default and its output is bit-identical to a build
//! without the knob.
//!
//! ## Fault tolerance
//!
//! The grain engine is built to run unattended over full application
//! executions, so a failing grain must not take the run down with it:
//!
//! * every grain runs under `catch_unwind` — a panic in one grain's
//!   analyzer never aborts the process or discards sibling grains;
//! * [`analyze_buffer_with`] degrades gracefully: failed grains come back
//!   as per-grain [`FailureReport`]s inside a [`PartialAnalysis`], after a
//!   sequential single-grain retry pass (transient panics get one more
//!   chance on an otherwise idle machine before the grain is declared
//!   dead);
//! * [`AnalyzeOptions`] can route replay through the validating decoder
//!   ([`TraceBuffer::try_replay`]) and enforce an [`AnalysisBudget`], so
//!   corrupted captures surface as [`DecodeError`]s and runaway traces
//!   stop with [`BudgetExceeded`] — both carrying diagnostics, neither
//!   panicking;
//! * [`analyze_program_with`] returns `Result` and maps the first grain
//!   failure into an [`AnalysisError`].
//!
//! The buffer, direct and checkpointed sources share one panic-isolated
//! grain wrapper: the span, the progress counter, `catch_unwind`, the
//! failure mapping and the profile counters exist once, and the
//! sources differ only in the code that feeds the grain's analyzer.

use crate::analyzer::ReuseAnalyzer;
use crate::budget::{AnalysisBudget, BudgetExceeded, BudgetProgress};
use crate::partition::{replay_partitioned, ReplayThreads};
use crate::patterns::ReuseProfile;
use crate::sampling::{SampledAnalyzer, SamplingConfig};
use crate::snapshot::{
    decode_snapshot, encode_snapshot, list_snapshots, read_snapshot_bytes, write_snapshot_file,
    Dec, Enc, SnapshotError, SnapshotHeader,
};
use reuselens_ir::{AccessKind, ArrayId, Program, RefId, ScopeId};
use reuselens_obs as obs;
use reuselens_trace::{
    AccessRecord, DecodeError, Event, ExecError, ExecReport, Executor, SegmentState,
    SoaBatch, TraceBuffer, TraceSink,
};
use std::error::Error;
use std::fmt;
use std::convert::Infallible;
use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Events per batch on the guarded (validated / budgeted) replay path;
/// matches the trace buffer's internal batching.
const GUARDED_BATCH: usize = 256;

/// Why one grain's replay failed. Deterministic failures (decode, budget)
/// are not retried; panics get one sequential retry before the grain is
/// declared dead.
#[derive(Debug, Clone, PartialEq)]
pub enum GrainError {
    /// The grain's replay thread panicked; the payload's message, or
    /// `"unknown panic payload"` when the payload was not a string.
    Panicked(String),
    /// The validating decoder rejected the buffer.
    Decode(DecodeError),
    /// The grain crossed its resource budget.
    Budget(BudgetExceeded),
    /// The grain's own executor failed (direct execution only). Every
    /// grain runs the same deterministic program, so every grain reports
    /// the same error.
    Exec(ExecError),
}

impl fmt::Display for GrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GrainError::Panicked(msg) => write!(f, "replay thread panicked: {msg}"),
            GrainError::Decode(e) => write!(f, "trace decode failed: {e}"),
            GrainError::Budget(e) => e.fmt(f),
            GrainError::Exec(e) => e.fmt(f),
        }
    }
}

impl Error for GrainError {}

/// Error from the strict analysis entry points.
#[derive(Debug, Clone, PartialEq)]
pub enum AnalysisError {
    /// The executor failed, during capture or a grain's direct execution.
    Exec(ExecError),
    /// The validating decoder rejected the trace buffer.
    Decode(DecodeError),
    /// A grain crossed its resource budget.
    Budget(BudgetExceeded),
    /// A grain's replay thread panicked (after the retry pass).
    GrainPanicked {
        /// Block size of the failed grain.
        block_size: u64,
        /// Panic message, or `"unknown panic payload"`.
        message: String,
    },
}

impl fmt::Display for AnalysisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalysisError::Exec(e) => e.fmt(f),
            AnalysisError::Decode(e) => write!(f, "trace decode failed: {e}"),
            AnalysisError::Budget(e) => e.fmt(f),
            AnalysisError::GrainPanicked {
                block_size,
                message,
            } => write!(f, "replay thread for grain {block_size} panicked: {message}"),
        }
    }
}

impl Error for AnalysisError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            AnalysisError::Exec(e) => Some(e),
            AnalysisError::Decode(e) => Some(e),
            AnalysisError::Budget(e) => Some(e),
            AnalysisError::GrainPanicked { .. } => None,
        }
    }
}

impl From<ExecError> for AnalysisError {
    fn from(e: ExecError) -> AnalysisError {
        AnalysisError::Exec(e)
    }
}

impl From<DecodeError> for AnalysisError {
    fn from(e: DecodeError) -> AnalysisError {
        AnalysisError::Decode(e)
    }
}

impl From<BudgetExceeded> for AnalysisError {
    fn from(e: BudgetExceeded) -> AnalysisError {
        AnalysisError::Budget(e)
    }
}

/// The result of [`analyze_program_with`]: reuse profiles (one per
/// granularity, in request order) plus the executor's dynamic statistics
/// (loop trip counts, access totals).
#[derive(Debug, Clone, PartialEq)]
pub struct AnalysisResult {
    /// One profile per requested block size.
    pub profiles: Vec<ReuseProfile>,
    /// Dynamic execution statistics.
    pub exec: ExecReport,
}

impl AnalysisResult {
    /// The profile measured at the given block size.
    pub fn profile_at(&self, block_size: u64) -> Option<&ReuseProfile> {
        self.profiles.iter().find(|p| p.block_size == block_size)
    }
}

/// Wall time one grain's replay thread took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayTiming {
    /// The grain (block size in bytes) this thread analyzed.
    pub block_size: u64,
    /// Time spent feeding that grain's analyzer: replaying the buffer, or
    /// executing the program on a direct run.
    pub wall: Duration,
}

/// Interprets `program` exactly once and returns the captured trace plus
/// the executor's report. The buffer can then be replayed any number of
/// times — per grain, per experiment — without re-interpreting.
///
/// The buffer is checked with the O(1) [`TraceBuffer::seal`], which on an
/// in-process capture returns exactly what [`TraceBuffer::validate`]
/// would, so callers need no validating decode before replay.
///
/// # Errors
///
/// Propagates any [`ExecError`] from the executor.
///
/// # Panics
///
/// Panics if the captured stream fails its seal (unbalanced scopes),
/// which only a ReuseLens bug can cause.
pub fn capture_program(
    program: &Program,
    index_arrays: Vec<(ArrayId, Vec<i64>)>,
) -> Result<(TraceBuffer, ExecReport), ExecError> {
    let mut buffer = TraceBuffer::new();
    let mut exec = Executor::new(program);
    for (arr, data) in index_arrays {
        exec.set_index_array(arr, data);
    }
    let report = {
        let _span = obs::span(obs::Stage::Capture);
        exec.run(&mut buffer)?
    };
    // Only a ReuseLens bug can fail the seal, so it panics rather than
    // widening the error type.
    buffer
        .seal()
        .unwrap_or_else(|e| panic!("in-process capture failed its seal: {e}"));
    let stats = buffer.stats();
    obs::add(obs::Counter::EventsCaptured, stats.events);
    obs::add(obs::Counter::AccessesCaptured, stats.accesses);
    obs::add(obs::Counter::BytesEncoded, stats.encoded_bytes);
    Ok((buffer, report))
}

/// Knobs for every analysis entry point: [`analyze_program_with`],
/// [`analyze_buffer_with`] and [`analyze_buffer_checkpointed`]. The
/// defaults measure exactly, serially per grain, on trusted input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalyzeOptions {
    /// Resource caps per grain; unlimited by default.
    pub budget: AnalysisBudget,
    /// Route replay through the validating decoder even with an unlimited
    /// budget (budgeted replay always validates). Off by default: buffers
    /// captured in-process are trusted and take the unchecked fast path.
    pub validate: bool,
    /// Retry a *panicked* grain once, sequentially, before declaring it
    /// dead. Deterministic failures (decode, budget) are never retried.
    /// On by default.
    pub retry: bool,
    /// How to sample the block stream. [`SamplingConfig::Exact`] (the
    /// default) runs the exact analyzer and produces output bit-identical
    /// to a pipeline without this knob; any other setting replays through
    /// the constant-space [`SampledAnalyzer`] and marks each profile with
    /// its [`SamplingInfo`](crate::SamplingInfo).
    pub sampling: SamplingConfig,
    /// How many threads one grain's replay may split across
    /// ([`ReplayThreads::Serial`] by default). When this resolves to more
    /// than one partition, exact and fixed-rate-sampled replays run the
    /// time-partitioned engine (see [`crate::ReplayThreads`]) with
    /// bit-identical output; adaptive sampling is inherently sequential
    /// and falls back to serial replay.
    pub replay_threads: ReplayThreads,
    /// Daemon job this replay runs on behalf of, threaded verbatim into
    /// every [`FailureReport`] and `grain_failed` telemetry event so a
    /// multi-tenant daemon can attribute failures to the request that
    /// caused them. `None` — every non-daemon run — renders nothing.
    pub job: Option<String>,
}

impl Default for AnalyzeOptions {
    fn default() -> AnalyzeOptions {
        AnalyzeOptions {
            budget: AnalysisBudget::unlimited(),
            validate: false,
            retry: true,
            sampling: SamplingConfig::Exact,
            replay_threads: ReplayThreads::Serial,
            job: None,
        }
    }
}

/// One grain's failure, reported inside a [`PartialAnalysis`].
#[derive(Debug, Clone, PartialEq)]
pub struct FailureReport {
    /// Block size of the grain that failed.
    pub block_size: u64,
    /// Why it failed (the error from the final attempt).
    pub error: GrainError,
    /// Whether a sequential retry was attempted before declaring the
    /// grain dead.
    pub retried: bool,
    /// Trace events the grain had processed when the final attempt
    /// failed — how far the replay got before dying, so degraded and
    /// resumed runs can report exact progress instead of discarding it.
    /// Counted at batch granularity on the fast path.
    pub events: u64,
    /// Daemon job the grain was replayed for ([`AnalyzeOptions::job`]);
    /// `None` outside the daemon. Carried through the degradation path so
    /// failure attribution survives retry and fold-in.
    pub job: Option<String>,
}

impl fmt::Display for FailureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "grain {}: {}{}",
            self.block_size,
            self.error,
            if self.retried { " (after retry)" } else { "" }
        )
    }
}

/// The degraded result of a fault-tolerant replay: profiles for every
/// grain that survived, and a [`FailureReport`] for every grain that did
/// not. Healthy grains are never discarded because a sibling failed.
///
/// A `PartialAnalysis` promises:
///
/// * `profiles` and `replays` are index-aligned and keep request order
///   (failed grains are simply absent);
/// * every requested grain appears **exactly once** — either in
///   `profiles` or in `failures`;
/// * each surviving profile is bit-identical to what a fully healthy run
///   would have produced for that grain (replays share nothing).
#[derive(Debug, Clone, PartialEq)]
pub struct PartialAnalysis {
    /// Profiles of the grains that completed, in request order.
    pub profiles: Vec<ReuseProfile>,
    /// Replay timings for the completed grains, index-aligned with
    /// `profiles`.
    pub replays: Vec<ReplayTiming>,
    /// One report per failed grain, in request order.
    pub failures: Vec<FailureReport>,
}

impl PartialAnalysis {
    /// True when every requested grain completed.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// The surviving profile at the given block size.
    pub fn profile_at(&self, block_size: u64) -> Option<&ReuseProfile> {
        self.profiles.iter().find(|p| p.block_size == block_size)
    }

    /// The failure report for the given block size, if that grain died.
    pub fn failure_at(&self, block_size: u64) -> Option<&FailureReport> {
        self.failures.iter().find(|f| f.block_size == block_size)
    }

    /// Converts to the strict shape, failing on the first dead grain.
    ///
    /// # Errors
    ///
    /// Returns the first failure as an [`AnalysisError`].
    pub fn into_strict(self) -> Result<(Vec<ReuseProfile>, Vec<ReplayTiming>), AnalysisError> {
        match self.failures.into_iter().next() {
            None => Ok((self.profiles, self.replays)),
            Some(f) => Err(match f.error {
                GrainError::Decode(e) => AnalysisError::Decode(e),
                GrainError::Budget(e) => AnalysisError::Budget(e),
                GrainError::Exec(e) => AnalysisError::Exec(e),
                GrainError::Panicked(message) => AnalysisError::GrainPanicked {
                    block_size: f.block_size,
                    message,
                },
            }),
        }
    }
}

/// Extracts a human-readable message from a panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "unknown panic payload".to_string()
    }
}

/// One grain's measurement engine: the exact analyzer or its
/// constant-space sampled counterpart, behind one [`TraceSink`] surface so
/// the fast and guarded replay paths serve both modes.
enum GrainAnalyzer {
    Exact(ReuseAnalyzer),
    Sampled(SampledAnalyzer),
}

impl GrainAnalyzer {
    fn new(program: &Program, block_size: u64, sampling: SamplingConfig) -> GrainAnalyzer {
        if sampling.is_exact() {
            GrainAnalyzer::Exact(ReuseAnalyzer::new(program, block_size))
        } else {
            GrainAnalyzer::Sampled(SampledAnalyzer::new(program, block_size, sampling))
        }
    }

    /// Live tracked-block count — the quantity a memory budget bounds.
    /// For the sampled engine this is the *tracked* set, not the scaled
    /// footprint estimate: sampling exists to keep this number small.
    fn tracked_blocks(&self) -> u64 {
        match self {
            GrainAnalyzer::Exact(a) => a.distinct_blocks(),
            GrainAnalyzer::Sampled(a) => a.tracked_blocks(),
        }
    }

    fn tree_nodes(&self) -> usize {
        match self {
            GrainAnalyzer::Exact(a) => a.tree_nodes(),
            GrainAnalyzer::Sampled(a) => a.tree_nodes(),
        }
    }

    fn finish(self) -> ReuseProfile {
        match self {
            GrainAnalyzer::Exact(a) => a.finish(),
            GrainAnalyzer::Sampled(a) => a.finish(),
        }
    }

    /// Serializes the engine's full mid-stream state into `e`.
    fn snapshot_encode(&self, e: &mut Enc) {
        match self {
            GrainAnalyzer::Exact(a) => a.snapshot_encode(e),
            GrainAnalyzer::Sampled(a) => a.snapshot_encode(e),
        }
    }

    /// Rebuilds an engine from a snapshot's state frame. `sampled` comes
    /// from the validated snapshot header and selects the engine.
    fn snapshot_decode(
        program: &Program,
        block_size: u64,
        sampled: bool,
        d: &mut Dec<'_>,
    ) -> Result<GrainAnalyzer, SnapshotError> {
        if sampled {
            SampledAnalyzer::snapshot_decode(program, block_size, d).map(GrainAnalyzer::Sampled)
        } else {
            ReuseAnalyzer::snapshot_decode(program, block_size, d).map(GrainAnalyzer::Exact)
        }
    }
}

/// One grain's failure before it is folded into a [`FailureReport`]: the
/// error plus how many trace events the grain had processed when it died.
struct GrainFailure {
    error: GrainError,
    events: u64,
}

/// One grain's completed measurement, before it is folded into a
/// [`PartialAnalysis`].
struct GrainDone {
    profile: ReuseProfile,
    timing: ReplayTiming,
    /// Live entries of the grain's distance structure when it finished:
    /// [`TimeBits`](crate::TimeBits) times plus recent-window entries for
    /// the exact analyzer, order-statistic tree nodes for the sampled one.
    /// The exact structure only grows during a replay, so this is also its
    /// peak; a sampled tree shrinks on eviction, so this is its final
    /// *tracked* count.
    tree_nodes: u64,
    /// Events the grain's analyzer observed.
    events: u64,
    /// The executor's report, when the grain ran its own executor.
    exec: Option<ExecReport>,
}

/// Where one grain's events come from.
#[derive(Clone, Copy)]
enum Source<'a> {
    /// Decoding a sealed or imported capture.
    Buffer(&'a TraceBuffer),
    /// Running the program on the grain's own [`Executor`], seeded with
    /// these index arrays.
    Execute(&'a [(ArrayId, Vec<i64>)]),
}

/// Forwards an event stream to a grain's analyzer while counting events
/// locally, publishing the count into `published` every [`GUARDED_BATCH`]
/// events and when dropped. Progress stays readable after the analyzer
/// panics mid-stream, at batch granularity, without an atomic
/// read-modify-write per event.
struct CountingSink<'a, S> {
    inner: &'a mut S,
    events: u64,
    published: &'a AtomicU64,
}

impl<'a, S> CountingSink<'a, S> {
    fn new(inner: &'a mut S, published: &'a AtomicU64) -> CountingSink<'a, S> {
        CountingSink {
            inner,
            events: 0,
            published,
        }
    }

    #[inline]
    fn count(&mut self, n: u64) {
        let before = self.events;
        self.events += n;
        if before / GUARDED_BATCH as u64 != self.events / GUARDED_BATCH as u64 {
            self.published.store(self.events, Ordering::Relaxed);
        }
    }
}

impl<S> Drop for CountingSink<'_, S> {
    fn drop(&mut self) {
        self.published.store(self.events, Ordering::Relaxed);
    }
}

impl<S: TraceSink> TraceSink for CountingSink<'_, S> {
    fn access(&mut self, r: RefId, addr: u64, size: u32, kind: AccessKind) {
        self.count(1);
        self.inner.access(r, addr, size, kind);
    }
    fn enter(&mut self, scope: ScopeId) {
        self.count(1);
        self.inner.enter(scope);
    }
    fn exit(&mut self, scope: ScopeId) {
        self.count(1);
        self.inner.exit(scope);
    }
    fn access_batch(&mut self, batch: &[AccessRecord]) {
        self.count(batch.len() as u64);
        self.inner.access_batch(batch);
    }
    fn access_soa(&mut self, batch: &SoaBatch) {
        self.count(batch.len() as u64);
        self.inner.access_soa(batch);
    }
}

impl TraceSink for GrainAnalyzer {
    fn access(&mut self, r: RefId, addr: u64, size: u32, kind: AccessKind) {
        match self {
            GrainAnalyzer::Exact(a) => a.access(r, addr, size, kind),
            GrainAnalyzer::Sampled(a) => a.access(r, addr, size, kind),
        }
    }
    fn enter(&mut self, scope: ScopeId) {
        match self {
            GrainAnalyzer::Exact(a) => a.enter(scope),
            GrainAnalyzer::Sampled(a) => a.enter(scope),
        }
    }
    fn exit(&mut self, scope: ScopeId) {
        match self {
            GrainAnalyzer::Exact(a) => a.exit(scope),
            GrainAnalyzer::Sampled(a) => a.exit(scope),
        }
    }
    fn access_batch(&mut self, batch: &[AccessRecord]) {
        // One match per batch, not per event.
        match self {
            GrainAnalyzer::Exact(a) => a.access_batch(batch),
            GrainAnalyzer::Sampled(a) => a.access_batch(batch),
        }
    }
}

/// Forwards the executor's stream to a grain's analyzer, holding back
/// every exit that does not close the innermost open scope. The executor
/// emits such exits only on its fault path — it closes the routines on the
/// call stack but not the loops the fault left open — and a capture
/// latches the same mismatch in [`TraceBuffer::exit`]. The analyzer never
/// sees them, so the run ends with the executor's error, not a panic.
struct Balanced<S> {
    inner: S,
    open: Vec<ScopeId>,
    unbalanced: bool,
}

impl<S: TraceSink> TraceSink for Balanced<S> {
    fn access(&mut self, r: RefId, addr: u64, size: u32, kind: AccessKind) {
        self.inner.access(r, addr, size, kind);
    }
    fn enter(&mut self, scope: ScopeId) {
        self.open.push(scope);
        self.inner.enter(scope);
    }
    fn exit(&mut self, scope: ScopeId) {
        if self.open.last() == Some(&scope) {
            self.open.pop();
            self.inner.exit(scope);
        } else {
            self.unbalanced = true;
        }
    }
}

/// Runs `program` on a fresh executor straight into `sink`, counting
/// events into `progress`.
///
/// # Panics
///
/// Panics if a run that succeeded emitted an unbalanced exit, which only a
/// ReuseLens bug can cause (the counterpart of a failed
/// [`TraceBuffer::seal`] in [`capture_program`]).
fn execute_into<S: TraceSink>(
    program: &Program,
    index_arrays: &[(ArrayId, Vec<i64>)],
    sink: &mut S,
    progress: &AtomicU64,
) -> Result<ExecReport, GrainError> {
    let mut exec = Executor::new(program);
    for (arr, data) in index_arrays {
        exec.set_index_array(*arr, data.clone());
    }
    let mut balanced = Balanced {
        inner: CountingSink::new(sink, progress),
        open: Vec::new(),
        unbalanced: false,
    };
    let report = exec.run(&mut balanced).map_err(GrainError::Exec)?;
    assert!(
        !balanced.unbalanced,
        "in-process execution emitted an unbalanced scope exit"
    );
    Ok(report)
}

/// Replays `buffer` through `analyzer` on the validating decoder,
/// checking the budget once per batch. Publishes decoded-event progress
/// into `progress` so a failure still reports how far the grain got.
fn replay_guarded(
    buffer: &TraceBuffer,
    analyzer: &mut GrainAnalyzer,
    budget: &AnalysisBudget,
    progress: &AtomicU64,
) -> Result<(), GrainError> {
    let mut batch: Vec<AccessRecord> = Vec::with_capacity(GUARDED_BATCH);
    let mut events = 0u64;
    let mut accesses = 0u64;
    let check = |analyzer: &GrainAnalyzer, events: u64| {
        let progress = BudgetProgress {
            events,
            distinct_blocks: analyzer.tracked_blocks(),
            tree_nodes: analyzer.tree_nodes() as u64,
        };
        obs::set_gauge(obs::Gauge::BudgetEvents, progress.events);
        obs::set_gauge(obs::Gauge::BudgetDistinctBlocks, progress.distinct_blocks);
        obs::set_gauge(obs::Gauge::BudgetTreeNodes, progress.tree_nodes);
        budget.check(progress).map_err(GrainError::Budget)
    };
    for event in buffer.try_iter() {
        events += 1;
        progress.store(events, Ordering::Relaxed);
        match event.map_err(GrainError::Decode)? {
            Event::Access { r, addr, size, kind } => {
                accesses += 1;
                batch.push(AccessRecord { r, addr, size, kind });
                if batch.len() == GUARDED_BATCH {
                    analyzer.access_batch(&batch);
                    batch.clear();
                    check(analyzer, events)?;
                }
            }
            Event::Enter(scope) => {
                if !batch.is_empty() {
                    analyzer.access_batch(&batch);
                    batch.clear();
                }
                analyzer.enter(scope);
            }
            Event::Exit(scope) => {
                if !batch.is_empty() {
                    analyzer.access_batch(&batch);
                    batch.clear();
                }
                analyzer.exit(scope);
            }
        }
    }
    if !batch.is_empty() {
        analyzer.access_batch(&batch);
    }
    obs::add(obs::Counter::EventsDecoded, events);
    obs::add(obs::Counter::AccessesDecoded, accesses);
    check(analyzer, events)
}

/// Counts a finished profile's analyzer work on the recorder.
fn record_profile(block_size: u64, profile: &ReuseProfile) {
    match profile.sampling {
        None => {
            obs::add(obs::Counter::BlocksTracked, profile.distinct_blocks);
            // Every measured (non-cold) reuse re-keys its block's node on
            // the order-statistic tree with one fused reinsert.
            obs::add(
                obs::Counter::TreeReinserts,
                profile.total_accesses - profile.total_cold(),
            );
        }
        Some(info) => {
            obs::add(obs::Counter::BlocksSampled, info.blocks_sampled);
            obs::add(obs::Counter::BlocksEvicted, info.blocks_evicted);
            obs::add(obs::Counter::SampleRateDrops, info.rate_drops);
            obs::set_gauge(obs::Gauge::SamplingInvRate, info.inv);
            if info.rate_drops > 0 {
                obs::emit(obs::EventKind::SampleRateDropped {
                    grain: block_size,
                    inv_rate: info.inv,
                    evicted: info.blocks_evicted,
                });
            }
        }
    }
}

/// What feeding one grain produces: the finished profile, the final
/// distance-structure size (see [`GrainDone::tree_nodes`]), and the
/// executor's report when the grain ran its own executor.
type Fed = (ReuseProfile, u64, Option<ExecReport>);

/// The panic-isolated wrapper every grain runs in, whatever its source.
/// Opens the grain's replay span, announces the grain, runs `feed` under
/// `catch_unwind` with a progress counter that outlives a panic, and maps
/// the outcome to a [`GrainDone`] (its profile counted on the recorder)
/// or a [`GrainFailure`]. `feed` returns `Err` only for an error that
/// fails the whole call rather than one grain.
fn isolate_grain<E>(
    block_size: u64,
    feed: impl FnOnce(&AtomicU64) -> Result<Result<Fed, GrainError>, E>,
) -> Result<Result<GrainDone, GrainFailure>, E> {
    let mut span = obs::span_with(obs::Stage::Replay, || obs::TimelineArgs {
        grain: Some(block_size),
        ..obs::TimelineArgs::default()
    });
    obs::emit(obs::EventKind::GrainStarted { grain: block_size });
    let start = Instant::now();
    // Progress lives outside the unwind boundary so a panicking analyzer
    // still leaves behind how many events it had processed.
    let progress = AtomicU64::new(0);
    let outcome = panic::catch_unwind(AssertUnwindSafe(|| feed(&progress)));
    let events = progress.load(Ordering::Relaxed);
    Ok(match outcome {
        Ok(Ok(Ok((profile, tree_nodes, exec)))) => {
            record_profile(block_size, &profile);
            span.record(|args| {
                args.events = Some(events);
                args.distinct_blocks = Some(profile.distinct_blocks);
                args.tree_nodes = Some(tree_nodes);
                args.sample_inv = profile.sampling.map(|s| s.inv);
            });
            Ok(GrainDone {
                profile,
                timing: ReplayTiming {
                    block_size,
                    wall: start.elapsed(),
                },
                tree_nodes,
                events,
                exec,
            })
        }
        Ok(Ok(Err(error))) => Err(GrainFailure { error, events }),
        Ok(Err(fatal)) => return Err(fatal),
        Err(payload) => Err(GrainFailure {
            error: GrainError::Panicked(panic_message(payload.as_ref())),
            events,
        }),
    })
}

/// One grain's measurement from `source`, panic-isolated. Runs on the
/// grain's own thread in the parallel phase and on the caller's thread in
/// the retry pass.
fn replay_grain(
    program: &Program,
    source: Source<'_>,
    block_size: u64,
    opts: &AnalyzeOptions,
) -> Result<GrainDone, GrainFailure> {
    let outcome = isolate_grain(block_size, |progress| {
        Ok::<_, Infallible>(feed_grain(program, source, block_size, opts, progress))
    });
    match outcome {
        Ok(outcome) => outcome,
        Err(never) => match never {},
    }
}

/// Feeds one grain's analyzer from `source`, publishing progress into
/// `progress`.
fn feed_grain(
    program: &Program,
    source: Source<'_>,
    block_size: u64,
    opts: &AnalyzeOptions,
    progress: &AtomicU64,
) -> Result<Fed, GrainError> {
    if let Source::Buffer(buffer) = source {
        let parts = opts.replay_threads.resolve();
        if parts > 1 && !matches!(opts.sampling, SamplingConfig::Adaptive { .. }) {
            // Validate-first: the partitioned engine replays segments on
            // the unchecked fast path, so an explicit validation request
            // runs the checking decoder over the whole buffer up front and
            // surfaces the same `Decode` errors.
            if opts.validate {
                buffer.validate().map_err(GrainError::Decode)?;
            }
            let (profile, tree_nodes) = replay_partitioned(
                program,
                buffer,
                block_size,
                parts,
                opts.sampling,
                &opts.budget,
            )?;
            progress.store(buffer.events(), Ordering::Relaxed);
            return Ok((profile, tree_nodes, None));
        }
    }
    let mut analyzer = GrainAnalyzer::new(program, block_size, opts.sampling);
    let exec = match source {
        Source::Buffer(buffer) if opts.validate || !opts.budget.is_unlimited() => {
            replay_guarded(buffer, &mut analyzer, &opts.budget, progress)?;
            None
        }
        Source::Buffer(buffer) => {
            buffer.replay(&mut CountingSink::new(&mut analyzer, progress));
            None
        }
        // One dispatch on the engine per grain, not per event.
        Source::Execute(index_arrays) => Some(match &mut analyzer {
            GrainAnalyzer::Exact(a) => execute_into(program, index_arrays, a, progress),
            GrainAnalyzer::Sampled(a) => execute_into(program, index_arrays, a, progress),
        }?),
    };
    // Measured before `finish` consumes the analyzer.
    let tree_nodes = analyzer.tree_nodes() as u64;
    Ok((analyzer.finish(), tree_nodes, exec))
}

/// Folds one grain's final outcome into `partial` with its completion or
/// failure telemetry. Returns the executor report a directly executed
/// grain carries.
fn fold_grain(
    partial: &mut PartialAnalysis,
    block_size: u64,
    outcome: Result<GrainDone, GrainFailure>,
    retried: bool,
    opts: &AnalyzeOptions,
) -> Option<ExecReport> {
    match outcome {
        Ok(done) => {
            let profile = &done.profile;
            obs::add(obs::Counter::GrainsCompleted, 1);
            obs::emit(obs::EventKind::GrainCompleted {
                grain: block_size,
                events: done.events,
                distinct_blocks: profile.distinct_blocks,
                wall_ns: done.timing.wall.as_nanos() as u64,
            });
            obs::record_grain(&obs::GrainProfile {
                block_size,
                wall: done.timing.wall,
                events: done.events,
                distinct_blocks: profile.distinct_blocks,
                tree_nodes: done.tree_nodes,
                status: if retried {
                    obs::GrainStatus::Retried
                } else {
                    obs::GrainStatus::Completed
                },
                blocks_sampled: profile.sampling.map_or(0, |s| s.blocks_sampled),
                blocks_evicted: profile.sampling.map_or(0, |s| s.blocks_evicted),
                sample_inv: profile.sampling.map_or(0, |s| s.inv),
            });
            partial.profiles.push(done.profile);
            partial.replays.push(done.timing);
            done.exec
        }
        Err(failure) => {
            obs::add(obs::Counter::GrainsFailed, 1);
            obs::emit(obs::EventKind::GrainFailed {
                grain: block_size,
                reason: failure.error.to_string(),
                job: opts.job.clone(),
            });
            obs::record_grain(&obs::GrainProfile {
                block_size,
                wall: Duration::ZERO,
                events: failure.events,
                distinct_blocks: 0,
                tree_nodes: 0,
                status: obs::GrainStatus::Failed,
                blocks_sampled: 0,
                blocks_evicted: 0,
                sample_inv: 0,
            });
            partial.failures.push(FailureReport {
                block_size,
                error: failure.error,
                retried,
                events: failure.events,
                job: opts.job.clone(),
            });
            None
        }
    }
}

/// The fault-tolerant grain engine behind [`analyze_buffer_with`] and
/// [`analyze_program_with`]: one fresh analyzer per block size, each fed
/// from `source` on its own thread under panic isolation, then one
/// sequential retry per panicked grain (when [`AnalyzeOptions::retry`] is
/// set). Also returns the first executor report a grain produced.
fn analyze_grains(
    program: &Program,
    source: Source<'_>,
    block_sizes: &[u64],
    opts: &AnalyzeOptions,
) -> (PartialAnalysis, Option<ExecReport>) {
    obs::add(obs::Counter::GrainsRequested, block_sizes.len() as u64);
    let outcomes: Vec<Result<GrainDone, GrainFailure>> = std::thread::scope(|s| {
        let handles: Vec<_> = block_sizes
            .iter()
            .map(|&block_size| s.spawn(move || replay_grain(program, source, block_size, opts)))
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(outcome) => outcome,
                // `replay_grain` catches panics itself; this arm is a
                // backstop for panics outside the catch (e.g. in the
                // timing code).
                Err(payload) => Err(GrainFailure {
                    error: GrainError::Panicked(panic_message(payload.as_ref())),
                    events: 0,
                }),
            })
            .collect()
    });
    let mut partial = PartialAnalysis {
        profiles: Vec::new(),
        replays: Vec::new(),
        failures: Vec::new(),
    };
    let mut exec = None;
    for (&block_size, outcome) in block_sizes.iter().zip(outcomes) {
        let (outcome, retried) = match outcome {
            // A panicked grain gets one sequential retry on an otherwise
            // idle machine; other failures are deterministic, so retrying
            // them would only repeat the work.
            Err(GrainFailure {
                error: GrainError::Panicked(_),
                ..
            }) if opts.retry => {
                obs::add(obs::Counter::GrainsRetried, 1);
                obs::emit(obs::EventKind::GrainRetried { grain: block_size });
                (replay_grain(program, source, block_size, opts), true)
            }
            other => (other, false),
        };
        let report = fold_grain(&mut partial, block_size, outcome, retried, opts);
        exec = exec.or(report);
    }
    (partial, exec)
}

/// The fault-tolerant replay engine, and the entry point for every caller
/// that holds a buffer: one fresh [`ReuseAnalyzer`] per block size, each
/// replaying the shared buffer on its own thread **under panic
/// isolation**. Grains that fail — by panic, decode rejection, or budget
/// exhaustion — are reported in the returned [`PartialAnalysis`] without
/// disturbing their siblings; panicked grains get one sequential retry
/// first (when [`AnalyzeOptions::retry`] is set). Call
/// [`PartialAnalysis::into_strict`] to fail on the first dead grain
/// instead.
///
/// With default options the replay takes the same unchecked fast path as
/// [`TraceBuffer::replay`]; setting a budget or
/// [`AnalyzeOptions::validate`] routes it through the validating decoder.
pub fn analyze_buffer_with(
    program: &Program,
    buffer: &TraceBuffer,
    block_sizes: &[u64],
    opts: &AnalyzeOptions,
) -> PartialAnalysis {
    analyze_grains(program, Source::Buffer(buffer), block_sizes, opts).0
}

/// Measures reuse at every block size under `opts`, choosing the cheapest
/// event source the options allow — the entry point for every caller that
/// holds a program.
///
/// With a serial [`AnalyzeOptions::replay_threads`], an unlimited budget
/// and no [`AnalyzeOptions::validate`], each grain's thread runs its own
/// [`Executor`] straight into its analyzer: no trace is encoded or
/// decoded. Otherwise the program is captured once ([`capture_program`])
/// and replayed per grain ([`analyze_buffer_with`]), because partitioned
/// replay, budget checks and validation work on a buffer. Both sources
/// produce bit-identical profiles and the same [`ExecReport`].
///
/// # Errors
///
/// Returns the executor's error as [`AnalysisError::Exec`], exactly as a
/// capture would, and the first grain failure otherwise.
///
/// # Examples
///
/// ```
/// use reuselens_core::{analyze_buffer_with, analyze_program_with, capture_program, AnalyzeOptions};
/// use reuselens_ir::ProgramBuilder;
///
/// let mut p = ProgramBuilder::new("demo");
/// let a = p.array("a", 8, &[256]);
/// p.routine("main", |r| {
///     r.for_("t", 0, 2, |r, _| {
///         r.for_("i", 0, 255, |r, i| {
///             r.load(a, vec![i.into()]);
///         });
///     });
/// });
/// let prog = p.finish();
/// let opts = AnalyzeOptions::default();
/// let direct = analyze_program_with(&prog, &[64, 4096], vec![], &opts)?;
/// assert_eq!(direct.profiles.len(), 2);
/// assert_eq!(direct.exec.accesses, 3 * 256);
///
/// // The same measurement from a captured buffer, replayed per grain.
/// let (buffer, exec) = capture_program(&prog, vec![])?;
/// let (replayed, timings) = analyze_buffer_with(&prog, &buffer, &[64, 4096], &opts).into_strict()?;
/// assert_eq!(direct.profiles, replayed);
/// assert_eq!(direct.exec, exec);
/// assert_eq!(timings.len(), 2);
/// assert!(buffer.stats().encoded_bytes < buffer.stats().raw_bytes);
/// # Ok::<(), reuselens_core::AnalysisError>(())
/// ```
pub fn analyze_program_with(
    program: &Program,
    block_sizes: &[u64],
    index_arrays: Vec<(ArrayId, Vec<i64>)>,
    opts: &AnalyzeOptions,
) -> Result<AnalysisResult, AnalysisError> {
    let needs_buffer =
        opts.replay_threads.resolve() > 1 || !opts.budget.is_unlimited() || opts.validate;
    if !needs_buffer {
        let (partial, exec) =
            analyze_grains(program, Source::Execute(&index_arrays), block_sizes, opts);
        let (profiles, _) = partial.into_strict()?;
        // Every grain ran the executor; only an empty grain list leaves no
        // report, and the capture below produces it.
        if let Some(exec) = exec {
            return Ok(AnalysisResult { profiles, exec });
        }
    }
    let (buffer, exec) = capture_program(program, index_arrays)?;
    let (profiles, _) = analyze_buffer_with(program, &buffer, block_sizes, opts).into_strict()?;
    Ok(AnalysisResult { profiles, exec })
}

/// Where and how often [`analyze_buffer_checkpointed`] snapshots its
/// progress, and whether it looks for earlier snapshots to resume from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointOptions {
    /// Directory holding the snapshot files. Created if missing; one file
    /// per grain and checkpoint boundary, named by
    /// [`snapshot_file_name`](crate::snapshot_file_name).
    pub dir: PathBuf,
    /// Trace events between checkpoints. Values below 1 behave as 1. Each
    /// interior multiple of this interval writes one snapshot per grain;
    /// a finished grain writes none (its profile is the result).
    pub every: u64,
    /// Scan `dir` for this analysis's snapshots before replaying and
    /// resume from the newest one that validates end to end. Corrupted,
    /// torn, version-skewed, or mismatched files are rejected (counted on
    /// [`obs::Counter::CheckpointsRejected`]) and the scan falls back to
    /// the next-newest; with no valid snapshot the grain starts from the
    /// beginning.
    pub resume: bool,
}

/// Scans the checkpoint directory for this grain's snapshots, newest
/// first, and rebuilds the analyzer from the first one that passes every
/// check: intact framing and CRCs, matching grain/engine/program shape,
/// and agreement with the trace (the snapshot's access clock must equal
/// the buffer's at the recorded event). Rejected files only advance the
/// scan — recovery from a torn newest checkpoint is falling back to the
/// one before it.
///
/// Only I/O on the directory listing itself is fatal; every per-file
/// failure is counted and skipped.
fn resume_grain(
    program: &Program,
    buffer: &TraceBuffer,
    block_size: u64,
    sampled: bool,
    dir: &std::path::Path,
) -> Result<Option<(GrainAnalyzer, SegmentState)>, SnapshotError> {
    let nrefs = program.references().len() as u32;
    for (events, path) in list_snapshots(dir, block_size)? {
        let resumed = (|| -> Result<(GrainAnalyzer, SegmentState), SnapshotError> {
            let bytes = read_snapshot_bytes(&path)?;
            let (header, mut dec) = decode_snapshot(&bytes)?;
            if header.block_size != block_size {
                return Err(SnapshotError::Mismatch {
                    what: format!(
                        "snapshot is for grain {}, expected {block_size}",
                        header.block_size
                    ),
                });
            }
            if header.sampled != sampled {
                return Err(SnapshotError::Mismatch {
                    what: format!(
                        "snapshot was taken by the {} engine, this run uses the {} engine",
                        if header.sampled { "sampled" } else { "exact" },
                        if sampled { "sampled" } else { "exact" },
                    ),
                });
            }
            if header.nrefs != nrefs {
                return Err(SnapshotError::Mismatch {
                    what: format!(
                        "snapshot program has {} references, this program has {nrefs}",
                        header.nrefs
                    ),
                });
            }
            if header.events_replayed != events {
                return Err(SnapshotError::Mismatch {
                    what: format!(
                        "file name claims event {events}, header records {}",
                        header.events_replayed
                    ),
                });
            }
            if header.events_replayed > buffer.events() {
                return Err(SnapshotError::Mismatch {
                    what: format!(
                        "snapshot is at event {} but the trace has only {}",
                        header.events_replayed,
                        buffer.events()
                    ),
                });
            }
            let state = buffer.state_at(header.events_replayed);
            if state.accesses != header.accesses_replayed {
                return Err(SnapshotError::Mismatch {
                    what: format!(
                        "snapshot records {} accesses at event {}, the trace has {}",
                        header.accesses_replayed, header.events_replayed, state.accesses
                    ),
                });
            }
            let analyzer =
                GrainAnalyzer::snapshot_decode(program, block_size, header.sampled, &mut dec)?;
            dec.finish()?;
            Ok((analyzer, state))
        })();
        match resumed {
            Ok(ok) => {
                obs::add(obs::Counter::CheckpointsResumed, 1);
                obs::emit(obs::EventKind::CheckpointResumed {
                    grain: block_size,
                    events_replayed: ok.1.event,
                });
                return Ok(Some(ok));
            }
            Err(e) => {
                obs::add(obs::Counter::CheckpointsRejected, 1);
                obs::emit(obs::EventKind::CheckpointRejected {
                    path: path.display().to_string(),
                    reason: e.to_string(),
                });
            }
        }
    }
    Ok(None)
}

/// Feeds one grain's analyzer from `buffer` with checkpoints: resume
/// (optionally), then alternate chunks of [`TraceBuffer::replay_advance`]
/// with snapshot writes at each interior `every`-event boundary. Returns
/// `Err` only for a checkpoint-infrastructure failure.
fn feed_checkpointed(
    program: &Program,
    buffer: &TraceBuffer,
    block_size: u64,
    opts: &AnalyzeOptions,
    ckpt: &CheckpointOptions,
    progress: &AtomicU64,
) -> Result<Result<Fed, GrainError>, SnapshotError> {
    // The streaming loop decodes on the unchecked fast path, so an
    // explicit validation request checks the whole buffer up front, as the
    // partitioned engine does.
    if opts.validate {
        if let Err(e) = buffer.validate() {
            return Ok(Err(GrainError::Decode(e)));
        }
    }
    let every = ckpt.every.max(1);
    let sampled = !opts.sampling.is_exact();
    let resumed = if ckpt.resume {
        resume_grain(program, buffer, block_size, sampled, &ckpt.dir)?
    } else {
        None
    };
    let (mut analyzer, mut state) = match resumed {
        Some(from) => from,
        None => (
            GrainAnalyzer::new(program, block_size, opts.sampling),
            SegmentState::default(),
        ),
    };
    progress.store(state.event, Ordering::Relaxed);
    let nrefs = program.references().len() as u32;
    while state.event < buffer.events() {
        let target = state.event.saturating_add(every).min(buffer.events());
        buffer.replay_advance(&mut state, target, &mut analyzer);
        progress.store(state.event, Ordering::Relaxed);
        if !opts.budget.is_unlimited() {
            let p = BudgetProgress {
                events: state.event,
                distinct_blocks: analyzer.tracked_blocks(),
                tree_nodes: analyzer.tree_nodes() as u64,
            };
            obs::set_gauge(obs::Gauge::BudgetEvents, p.events);
            obs::set_gauge(obs::Gauge::BudgetDistinctBlocks, p.distinct_blocks);
            obs::set_gauge(obs::Gauge::BudgetTreeNodes, p.tree_nodes);
            if let Err(e) = opts.budget.check(p) {
                return Ok(Err(GrainError::Budget(e)));
            }
        }
        if state.event < buffer.events() {
            let _ckpt_span = obs::span(obs::Stage::Checkpoint);
            let mut enc = Enc::new();
            analyzer.snapshot_encode(&mut enc);
            let header = SnapshotHeader {
                block_size,
                sampled,
                events_replayed: state.event,
                accesses_replayed: state.accesses,
                nrefs,
            };
            let image = encode_snapshot(&header, &enc.buf);
            write_snapshot_file(&ckpt.dir, block_size, state.event, &image)?;
            obs::add(obs::Counter::CheckpointsWritten, 1);
            obs::set_gauge(obs::Gauge::SnapshotBytes, image.len() as u64);
            obs::emit(obs::EventKind::CheckpointWritten {
                grain: block_size,
                events_replayed: state.event,
                bytes: image.len() as u64,
            });
        }
    }
    let tree_nodes = analyzer.tree_nodes() as u64;
    Ok(Ok((analyzer.finish(), tree_nodes, None)))
}

/// Crash-safe streaming form of [`analyze_buffer_with`]: each grain
/// replays the buffer in chunks of [`CheckpointOptions::every`] events and
/// serializes its **complete analyzer state** to
/// [`CheckpointOptions::dir`] at every interior boundary, so a run killed
/// at any point — including mid-write — can be rerun with
/// [`CheckpointOptions::resume`] set and continue from the newest intact
/// snapshot instead of the beginning.
///
/// Guarantees:
///
/// * **Bit-identical recovery** — a resumed run's profiles are equal, bit
///   for bit, to an uninterrupted run's, for the exact and the sampled
///   engine alike. (The streaming loop itself is serial and deterministic;
///   [`AnalyzeOptions::replay_threads`] is ignored here, and serial exact
///   profiles are bit-identical to partitioned ones anyway.)
/// * **Hostile-input recovery** — a snapshot is only resumed from after
///   full validation: framing, CRCs, version, and agreement with this
///   program and trace. Anything torn, truncated, bit-flipped, or
///   version-skewed is rejected with a typed [`SnapshotError`] internally,
///   counted, and skipped in favor of the next-newest file.
/// * The usual [`PartialAnalysis`] degradation: panicking or over-budget
///   grains become [`FailureReport`]s, siblings survive.
///
/// Grains run sequentially (the point of checkpointing is surviving long
/// unattended runs, not peak parallel throughput — use
/// [`analyze_buffer_with`] when crash-safety is not needed).
///
/// # Errors
///
/// Only checkpoint-*infrastructure* failures fail the call: an unreadable
/// checkpoint directory or an error while writing a snapshot (disk full,
/// permissions). Corrupted snapshot *files* never do — they are fallback
/// material, not errors.
pub fn analyze_buffer_checkpointed(
    program: &Program,
    buffer: &TraceBuffer,
    block_sizes: &[u64],
    opts: &AnalyzeOptions,
    ckpt: &CheckpointOptions,
) -> Result<PartialAnalysis, SnapshotError> {
    fs::create_dir_all(&ckpt.dir).map_err(|e| SnapshotError::Io {
        op: "create checkpoint directory",
        path: ckpt.dir.clone(),
        message: e.to_string(),
    })?;
    obs::add(obs::Counter::GrainsRequested, block_sizes.len() as u64);
    let mut partial = PartialAnalysis {
        profiles: Vec::new(),
        replays: Vec::new(),
        failures: Vec::new(),
    };
    for &block_size in block_sizes {
        let replay = || {
            isolate_grain(block_size, |progress| {
                feed_checkpointed(program, buffer, block_size, opts, ckpt, progress)
            })
        };
        let outcome = replay()?;
        let (outcome, retried) = match outcome {
            Err(GrainFailure {
                error: GrainError::Panicked(_),
                ..
            }) if opts.retry => {
                obs::add(obs::Counter::GrainsRetried, 1);
                obs::emit(obs::EventKind::GrainRetried { grain: block_size });
                (replay()?, true)
            }
            other => (other, false),
        };
        fold_grain(&mut partial, block_size, outcome, retried, opts);
    }
    Ok(partial)
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuselens_ir::{Expr, ProgramBuilder};

    fn analyze(
        program: &Program,
        block_sizes: &[u64],
        index_arrays: Vec<(ArrayId, Vec<i64>)>,
    ) -> Result<AnalysisResult, AnalysisError> {
        analyze_program_with(program, block_sizes, index_arrays, &AnalyzeOptions::default())
    }

    /// Capture + strict replay with default options.
    fn capture_and_replay(
        program: &Program,
        block_sizes: &[u64],
        index_arrays: Vec<(ArrayId, Vec<i64>)>,
    ) -> (AnalysisResult, TraceBuffer, Vec<ReplayTiming>) {
        let (buffer, exec) = capture_program(program, index_arrays).unwrap();
        let (profiles, timings) =
            analyze_buffer_with(program, &buffer, block_sizes, &AnalyzeOptions::default())
                .into_strict()
                .unwrap();
        (AnalysisResult { profiles, exec }, buffer, timings)
    }

    #[test]
    fn analyze_program_with_index_arrays() {
        let mut p = ProgramBuilder::new("gather");
        let ix = p.index_array("ix", &[8]);
        let a = p.array("a", 8, &[64]);
        p.routine("main", |r| {
            r.for_("i", 0, 7, |r, i| {
                r.load(a, vec![Expr::load(ix, vec![i.into()])]);
            });
        });
        let prog = p.finish();
        let idx: Vec<i64> = (0..8).map(|i| (i * 7) % 64).collect();
        let result = analyze(&prog, &[64], vec![(ix, idx)]).unwrap();
        assert_eq!(result.profiles[0].total_accesses, 8);
        assert!(result.profile_at(64).is_some());
        assert!(result.profile_at(128).is_none());
    }

    #[test]
    fn replay_pipeline_matches_direct_bit_for_bit() {
        let mut p = ProgramBuilder::new("tiled");
        let a = p.array("a", 8, &[64, 64]);
        let b = p.array("b", 8, &[64, 64]);
        p.routine("main", |r| {
            r.for_("t", 0, 1, |r, _| {
                r.for_("j", 0, 63, |r, j| {
                    r.for_("i", 0, 63, |r, i| {
                        r.load(a, vec![i.into(), j.into()]);
                        r.store(b, vec![j.into(), i.into()]);
                    });
                });
            });
        });
        let prog = p.finish();
        let grains = [64u64, 256, 4096];
        let direct = analyze(&prog, &grains, vec![]).unwrap();
        let (par, buffer, replays) = capture_and_replay(&prog, &grains, vec![]);
        assert_eq!(direct.profiles, par.profiles);
        assert_eq!(direct.exec, par.exec);
        assert_eq!(replays.len(), grains.len());
        for (timing, &g) in replays.iter().zip(&grains) {
            assert_eq!(timing.block_size, g);
        }
        assert_eq!(buffer.stats().accesses, direct.exec.accesses);
        assert!(buffer.stats().compression_ratio() > 1.0);
    }

    #[test]
    fn replay_pipeline_with_index_arrays() {
        let mut p = ProgramBuilder::new("gather");
        let ix = p.index_array("ix", &[32]);
        let a = p.array("a", 8, &[512]);
        p.routine("main", |r| {
            r.for_("t", 0, 3, |r, _| {
                r.for_("i", 0, 31, |r, i| {
                    r.load(a, vec![Expr::load(ix, vec![i.into()])]);
                });
            });
        });
        let prog = p.finish();
        let idx: Vec<i64> = (0..32).map(|i| (i * 37) % 512).collect();
        let direct = analyze(&prog, &[64], vec![(ix, idx.clone())]).unwrap();
        let (par, _, _) = capture_and_replay(&prog, &[64], vec![(ix, idx)]);
        assert_eq!(direct.profiles, par.profiles);
    }

    #[test]
    fn capture_then_replay_by_hand_matches_direct() {
        let mut p = ProgramBuilder::new("sweep");
        let a = p.array("a", 8, &[2048]);
        p.routine("main", |r| {
            r.for_("t", 0, 2, |r, _| {
                r.for_("i", 0, 2047, |r, i| {
                    r.load(a, vec![i.into()]);
                });
            });
        });
        let prog = p.finish();
        let (buffer, report) = capture_program(&prog, vec![]).unwrap();
        assert_eq!(buffer.accesses(), report.accesses);
        let (profiles, timings) =
            analyze_buffer_with(&prog, &buffer, &[64, 4096], &AnalyzeOptions::default())
                .into_strict()
                .unwrap();
        let direct = analyze(&prog, &[64, 4096], vec![]).unwrap();
        assert_eq!(profiles, direct.profiles);
        assert_eq!(timings.len(), 2);
    }

    #[test]
    fn missing_index_array_surfaces_error() {
        let mut p = ProgramBuilder::new("gather");
        let ix = p.index_array("ix", &[8]);
        let a = p.array("a", 8, &[64]);
        p.routine("main", |r| {
            r.load(a, vec![Expr::load(ix, vec![Expr::c(0)])]);
        });
        let prog = p.finish();
        assert!(analyze(&prog, &[64], vec![]).is_err());
    }

    /// With no grains there is no grain executor to report; the capture
    /// fallback still returns the program's `ExecReport`, from the direct
    /// and the buffer paths alike.
    #[test]
    fn empty_grain_list_still_reports_the_execution() {
        let mut p = ProgramBuilder::new("gather");
        let ix = p.index_array("ix", &[16]);
        let a = p.array("a", 8, &[256]);
        p.routine("main", |r| {
            r.for_("t", 0, 1, |r, _| {
                r.for_("i", 0, 15, |r, i| {
                    r.load(a, vec![Expr::load(ix, vec![i.into()])]);
                });
            });
        });
        let prog = p.finish();
        let idx: Vec<i64> = (0..16).map(|i| (i * 13) % 256).collect();
        let (_, captured) = capture_program(&prog, vec![(ix, idx.clone())]).unwrap();
        let validated = AnalyzeOptions {
            validate: true,
            ..AnalyzeOptions::default()
        };
        for opts in [AnalyzeOptions::default(), validated] {
            let result =
                analyze_program_with(&prog, &[], vec![(ix, idx.clone())], &opts).unwrap();
            assert!(result.profiles.is_empty());
            assert_eq!(result.exec, captured);
        }
    }

    #[test]
    fn guarded_replay_matches_fast_path_bit_for_bit() {
        let mut p = ProgramBuilder::new("guarded");
        let a = p.array("a", 8, &[512]);
        p.routine("main", |r| {
            r.for_("t", 0, 2, |r, _| {
                r.for_("i", 0, 511, |r, i| {
                    r.load(a, vec![i.into()]);
                });
            });
        });
        let prog = p.finish();
        let (buffer, _) = capture_program(&prog, vec![]).unwrap();
        let fast = analyze_buffer_with(&prog, &buffer, &[64, 4096], &AnalyzeOptions::default())
            .into_strict()
            .unwrap()
            .0;
        let validated = analyze_buffer_with(
            &prog,
            &buffer,
            &[64, 4096],
            &AnalyzeOptions {
                validate: true,
                ..AnalyzeOptions::default()
            },
        );
        assert!(validated.is_complete());
        assert_eq!(validated.profiles, fast);
    }
}
