//! The two case-study workloads: one full locality analysis (capture,
//! replay at every grain, miss prediction, attribution) per operation.
//!
//! Untraced, each operation is one `run_locality_analysis_opts` call. The
//! traced run rotates three arms: the same pipeline split into its public
//! calls with a span around each, the untraced call, and the untraced call
//! with a `MetricsRecorder` installed. Their medians give the tracing and
//! recorder overheads.

use crate::probe::{self, Layers, Subject, GRAINS};
use crate::reference::{self, Expected, Outputs};
use crate::{metric, stats, Ctx, Metric, Outcome};
use reuselens::cache::MemoryHierarchy;
use reuselens::core::{analyze_buffer_with, capture_program, AnalysisResult, AnalyzeOptions};
use reuselens::metrics::{attribute_analysis, run_locality_analysis_opts};
use reuselens::obs::{self, MetricsRecorder};
use reuselens::workloads::gtc::{self, GtcConfig};
use reuselens::workloads::sweep3d::{self, SweepConfig};
use reuselens::workloads::BuiltWorkload;
use std::sync::Arc;
use std::time::Instant;

/// Workload builds before the warm-up and before each timed analysis;
/// `setup_s` is the median of all of them. A build takes tens of
/// microseconds to a millisecond, so builds taken only at start-up would
/// read whatever speed the host ran at in those milliseconds; spread over
/// the run, they see the same host as the analyses.
const BUILDS_PER_ANALYSIS: usize = 20;
/// Fewest timed analyses per run, however short `--seconds` is.
const MIN_OPS: usize = 3;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Case {
    /// Sweep3D, mesh 32, one timestep: dense and affine.
    Sweep3d,
    /// GTC, mgrid 4096, micell 32, one timestep: indirect scatter.
    Gtc,
}

impl Case {
    fn build(self, seed: u64) -> BuiltWorkload {
        match self {
            Case::Sweep3d => sweep3d::build(&SweepConfig::new(32).with_timesteps(1)),
            Case::Gtc => {
                let mut cfg = GtcConfig::new(4096, 32).with_timesteps(1);
                cfg.seed = seed;
                gtc::build(&cfg)
            }
        }
    }

    /// Names the input: the seed only matters where it changes the trace.
    fn key(self, seed: u64) -> String {
        match self {
            Case::Sweep3d => "sweep3d-m32-t1".into(),
            Case::Gtc => format!("gtc-g4096-m32-t1-seed{seed}"),
        }
    }

    /// The daemon's spec string for the same program.
    fn spec(self) -> &'static str {
        match self {
            Case::Sweep3d => "sweep3d mesh=32",
            Case::Gtc => "gtc mgrid=4096 micell=32",
        }
    }
}

/// The Itanium2 hierarchy with every capacity divided by 16: grains
/// 128 B (cache line) and 16 KiB (page).
pub fn hierarchy() -> MemoryHierarchy {
    MemoryHierarchy::itanium2_scaled(16)
}

/// The traced run's rotation; the discriminant indexes the walls.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    Dark,
    Traced,
    Recorder,
}

/// What one analysis produced: its outputs and, where the trace is
/// visible, its event count. Checked after the timed loop.
type Produced = Result<(Outputs, Option<u64>), String>;

/// One untraced analysis.
fn dark_analysis(w: &BuiltWorkload, h: &MemoryHierarchy) -> (f64, Produced) {
    let index = w.index_arrays.clone();
    let start = Instant::now();
    let la = run_locality_analysis_opts(&w.program, h, index, &AnalyzeOptions::default());
    let secs = start.elapsed().as_secs_f64();
    let produced = la
        .map(|la| (reference::outputs(&la.analysis.profiles, &la.report), None))
        .map_err(|e| e.to_string());
    (secs, produced)
}

/// The pipeline `run_locality_analysis_opts` runs, call by call, each
/// inside a span under one root span per analysis.
fn traced_analysis(
    ctx: &Ctx,
    subject: &str,
    i: usize,
    w: &BuiltWorkload,
    h: &MemoryHierarchy,
    layers: &mut Layers,
) -> (f64, Produced) {
    let t = &ctx.tracer;
    let run = format!("{subject}/run-{i}");
    let index = w.index_arrays.clone();
    let (produced, secs) = t.time("metrics.pipeline", None, &run, |root| {
        let (captured, capture_s) = t.time("trace.capture", Some(root), &run, |_| {
            capture_program(&w.program, index)
        });
        let (buffer, exec) = captured.map_err(|e| e.to_string())?;
        let (valid, validate_s) = t.time("trace.validate", Some(root), &run, |_| buffer.validate());
        valid.map_err(|e| e.to_string())?;
        let grains = h.required_granularities();
        let (partial, _) = t.time("core.replay", Some(root), &run, |_| {
            analyze_buffer_with(&w.program, &buffer, &grains, &AnalyzeOptions::default())
        });
        let (profiles, timings) = partial.into_strict().map_err(|e| e.to_string())?;
        let slowest = timings
            .iter()
            .map(|t| t.wall.as_secs_f64())
            .fold(0.0, f64::max);
        for timing in &timings {
            let name = format!("core.grain_replay_s.g{}", timing.block_size);
            layers.add(&name, subject, timing.wall.as_secs_f64());
        }
        let analysis = AnalysisResult { profiles, exec };
        let (la, attribute_s) = t.time("metrics.attribute", Some(root), &run, |_| {
            attribute_analysis(&w.program, h, analysis)
        });
        layers.add("trace.capture_events", subject, buffer.events() as f64);
        let outputs = reference::outputs(&la.analysis.profiles, &la.report);
        Ok((
            (outputs, Some(buffer.events())),
            capture_s + validate_s + slowest + attribute_s,
        ))
    });
    // The blocking steps' share of the whole analysis.
    let produced = produced.map(|(produced, blocking)| {
        layers.add("bench.accounted", subject, blocking / secs);
        produced
    });
    (secs, produced)
}

/// Times [`BUILDS_PER_ANALYSIS`] builds into `setup`, each in a span.
fn time_builds(ctx: &Ctx, subject: &str, build: &dyn Fn() -> BuiltWorkload, setup: &mut Vec<f64>) {
    let run = format!("{subject}/setup");
    for _ in 0..BUILDS_PER_ANALYSIS {
        let (w, secs) = ctx.tracer.time("workloads.build", None, &run, |_| build());
        std::hint::black_box(w);
        setup.push(secs);
    }
}

/// What the timed loop measured, in seconds.
#[derive(Debug, Default)]
struct Walls {
    /// Per arm, indexed by [`Arm`].
    analyses: [Vec<f64>; 3],
    builds: Vec<f64>,
}

/// Runs analyses for `ctx.seconds` (at least [`MIN_OPS`] untraced), with
/// workload builds between them. Returns the walls and what every
/// analysis produced.
fn timed_loop(
    ctx: &Ctx,
    subject: &str,
    build: &dyn Fn() -> BuiltWorkload,
    w: &BuiltWorkload,
    h: &MemoryHierarchy,
    layers: &mut Layers,
) -> (Walls, Vec<Produced>) {
    let arms: &[Arm] = if ctx.traced() {
        &[Arm::Traced, Arm::Dark, Arm::Recorder]
    } else {
        &[Arm::Dark]
    };
    let mut walls = Walls::default();
    let mut produced = Vec::new();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < ctx.seconds
        || walls.analyses[Arm::Dark as usize].len() < MIN_OPS
    {
        time_builds(ctx, subject, build, &mut walls.builds);
        let arm = arms[i % arms.len()];
        let (secs, p) = match arm {
            Arm::Dark => dark_analysis(w, h),
            Arm::Recorder => {
                obs::install(Arc::new(MetricsRecorder::new()));
                let r = dark_analysis(w, h);
                obs::uninstall();
                r
            }
            Arm::Traced => traced_analysis(ctx, subject, i, w, h, layers),
        };
        walls.analyses[arm as usize].push(secs);
        produced.push(p);
        i += 1;
    }
    (walls, produced)
}

/// Checks everything the analyses produced against the reference.
fn check_all(produced: Vec<Produced>, e: &Expected, outcome: &mut Outcome) {
    for p in produced {
        outcome.record(p.and_then(|(outputs, events)| match events {
            Some(n) if n != e.events => Err(format!("{n} events captured, reference {}", e.events)),
            _ => reference::check(&outputs, e),
        }));
    }
}

pub fn run(ctx: &Ctx, case: Case) -> std::io::Result<Outcome> {
    let t = &ctx.tracer;
    let subject = case.key(ctx.seed);
    let mut outcome = Outcome::default();
    let mut layers = Layers::default();

    let build = || case.build(ctx.seed);
    let mut setup = Vec::new();
    time_builds(ctx, &subject, &build, &mut setup);
    let w = build();
    let h = hierarchy();

    // Warm-up: lets allocator pools and page tables settle before timing.
    let (_, warm) = dark_analysis(&w, &h);
    crate::sys::reset_peak_rss()?;
    let (walls, mut produced) = timed_loop(ctx, &subject, &build, &w, &h, &mut layers);
    let [dark, traced, recorded] = walls.analyses;
    setup.extend(walls.builds);
    let peak = crate::sys::peak_rss_mib()?;
    // The reference comes after the peak is read, so deriving it cannot
    // raise the baseline the peak is measured from.
    let expected = reference::load_or_derive(&ctx.work_dir, &subject, &w, &h)?;
    produced.push(warm);
    check_all(produced, &expected, &mut outcome);
    outcome.series = vec![
        ("setup".into(), setup.clone()),
        ("dark".into(), dark.clone()),
        ("traced".into(), traced.clone()),
        ("recorder".into(), recorded.clone()),
    ];

    if !ctx.traced() {
        let analysis_s = stats::median(&dark);
        let total: f64 = dark.iter().sum();
        outcome.metrics = vec![
            metric("setup_s", stats::median(&setup), "s"),
            metric("analysis_s", analysis_s, "s"),
            metric("events_per_s", expected.events as f64 / analysis_s, "1/s"),
            metric("peak_rss_mib", peak, "MiB"),
            metric("jobs_per_s", dark.len() as f64 / total, "1/s"),
            metric("job_p50_ms", analysis_s * 1e3, "ms"),
            metric("job_p90_ms", stats::quantile(&dark, 0.9) * 1e3, "ms"),
        ];
        outcome.samples = vec![
            ("setup_s".into(), setup.len()),
            ("analysis_s".into(), dark.len()),
            ("job_p90_ms".into(), dark.len()),
        ];
        return Ok(outcome);
    }

    // Traced: probe the layers the loop does not call, on this input.
    let (buffer, exec) =
        capture_program(&w.program, w.index_arrays.clone()).map_err(std::io::Error::other)?;
    let subjects = [Subject {
        name: subject.clone(),
        w,
        buffer,
        exec,
        spec: case.spec().to_string(),
    }];
    let store_dir = probe::layers(ctx, &subjects, &h, false, &mut layers, &mut outcome)?;
    let serve = crate::daemon::serve_probe(&store_dir, &subjects, &mut outcome);
    probe::remove_dir(&store_dir);
    let serve = serve?;
    outcome.spans = t.take();
    layers.add_spans(&outcome.spans);
    let serve = crate::daemon::serve_metrics(&serve, &layers);

    // Each arm's wall over the untraced wall of the same rotation, so
    // drift in host speed cancels.
    let paired = |arm: &[f64]| {
        let ratios: Vec<f64> = arm.iter().zip(&dark).map(|(a, d)| a / d).collect();
        stats::median(&ratios)
    };
    let mut m = layer_metrics(&layers);
    m.extend(serve);
    m.extend([
        metric("obs.recorder_overhead_ratio", paired(&recorded), "ratio"),
        metric(
            "bench.accounted_ratio",
            layers.total("bench.accounted"),
            "ratio",
        ),
        metric("bench.trace_overhead_ratio", paired(&traced), "ratio"),
    ]);
    outcome.samples = vec![
        ("dark_analysis".into(), dark.len()),
        ("traced_analysis".into(), traced.len()),
        ("recorder_analysis".into(), recorded.len()),
        ("accounted_ratio".into(), layers.count("bench.accounted")),
        ("probe_reps".into(), probe::REPS),
    ];
    outcome.metrics = m;
    Ok(outcome)
}

/// The per-layer metrics every workload reports from its [`Layers`]
/// (the serve, overhead and accounting metrics come from the caller).
pub fn layer_metrics(l: &Layers) -> Vec<Metric> {
    let events = l.total("trace.events");
    let ns_per_event = |name: &str| l.total(name) * 1e9 / events;
    let g128 = format!("core.grain_replay_s.g{}", GRAINS[0]);
    let g16k = format!("core.grain_replay_s.g{}", GRAINS[1]);
    let mut m = vec![
        metric("workloads.build_s", l.total("workloads.build"), "s"),
        metric("trace.capture_s", l.total("trace.capture"), "s"),
        metric(
            "trace.capture_ns_per_event",
            l.total("trace.capture") * 1e9 / l.total("trace.capture_events"),
            "ns",
        ),
        metric(
            "trace.bytes_per_event",
            l.total("trace.encoded_bytes") / events,
            "B",
        ),
        metric("trace.validate_s", l.total("trace.validate"), "s"),
        metric(
            "trace.decode_ns_per_event",
            ns_per_event("trace.decode"),
            "ns",
        ),
        metric("core.replay_s", l.total("core.replay"), "s"),
        metric("core.grain_replay_s.g128", l.total(&g128), "s"),
        metric("core.grain_replay_s.g16384", l.total(&g16k), "s"),
        metric("core.replay_ns_per_event.g128", ns_per_event(&g128), "ns"),
        metric(
            "core.distinct_blocks.g128",
            l.total("core.distinct_blocks.g128"),
            "count",
        ),
    ];
    m.extend(probe::ladder_metrics(l));
    m.extend([
        metric(
            "core.sampled_ns_per_event.g128",
            ns_per_event("core.sampled_s.g128"),
            "ns",
        ),
        metric("cache.report_s", l.total("cache.report"), "s"),
        metric("metrics.attribute_s", l.total("metrics.attribute"), "s"),
        metric("static.estimate_s", l.total("static.estimate"), "s"),
        metric("store.get_s", l.total("store.get"), "s"),
        metric(
            "store.get_mib_per_s",
            l.total("store.image_mib") / l.total("store.get"),
            "MiB/s",
        ),
        metric("store.put_s", l.total("store.put"), "s"),
    ]);
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Tracer;
    use std::process::ExitCode;

    fn ctx() -> Ctx {
        Ctx {
            seed: 1,
            seconds: 0.01,
            tracer: Arc::new(Tracer::new(false)),
            work_dir: std::env::temp_dir(),
        }
    }

    #[test]
    fn a_wrong_reference_digest_fails_every_analysis_and_the_command() {
        let w = sweep3d::build(&SweepConfig::new(6));
        let h = hierarchy();
        let good = reference::derive(&w, &h);
        let outcome_with = |e: &Expected| {
            let build = || w.clone();
            let (_, produced) = timed_loop(&ctx(), "t", &build, &w, &h, &mut Layers::default());
            let mut outcome = Outcome::default();
            check_all(produced, e, &mut outcome);
            outcome
        };
        let outcome = outcome_with(&good);
        assert_eq!(outcome.error_rate(), 0.0);
        assert_eq!(crate::exit_status(&outcome), ExitCode::SUCCESS);

        let mut wrong = good.clone();
        wrong.outputs.digests[0].1 ^= 1;
        let outcome = outcome_with(&wrong);
        assert!(outcome.attempted >= MIN_OPS as u64);
        assert_eq!(outcome.error_rate(), 1.0);
        assert_eq!(crate::exit_status(&outcome), ExitCode::FAILURE);

        let mut wrong = good;
        wrong.outputs.misses[0].1 += 1.0;
        assert_eq!(outcome_with(&wrong).error_rate(), 1.0);
    }
}
