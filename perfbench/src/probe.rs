//! The traced run's layer probe: after the timed part of a traced run,
//! each layer the workload uses is called directly on the workload's own
//! traces, a few times, each call inside a span.

use crate::ladder::{Ladder, Noop};
use crate::spans::Span;
use crate::{stats, Ctx, Outcome};
use reuselens::cache::{report_from_analysis, MemoryHierarchy};
use reuselens::core::{analyze_buffer_with, AnalysisResult, AnalyzeOptions, SamplingConfig};
use reuselens::metrics::attribute_analysis;
use reuselens::obs::{self, MetricsRecorder};
use reuselens::serve::WorkloadSpec;
use reuselens::statics::estimate_profiles;
use reuselens::store::{TraceMeta, TraceStore};
use reuselens::trace::{ExecReport, TraceBuffer};
use reuselens::workloads::BuiltWorkload;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;

/// Calls per layer and subject; the metric is their median.
pub const REPS: usize = 3;

/// Calls per ladder rung and subject.
const LADDER_REPS: usize = 7;

/// Grains of the Itanium2/16 hierarchy: the 128 B line and the 16 KiB page.
pub const GRAINS: [u64; 2] = [128, 16384];

/// The sampling rate of the sampled replay jobs and probe.
pub const SAMPLE_RATE: f64 = 0.01;

/// One captured input the probe works on.
#[derive(Debug)]
pub struct Subject {
    /// Names the subject in span run ids (`<name>/<run>`).
    pub name: String,
    pub w: BuiltWorkload,
    pub buffer: TraceBuffer,
    pub exec: ExecReport,
    /// The daemon's spec string for the workload.
    pub spec: String,
}

/// Per-layer samples: layer name → subject → samples.
#[derive(Debug, Default)]
pub struct Layers {
    map: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
}

impl Layers {
    pub fn add(&mut self, name: &str, subject: &str, value: f64) {
        self.map
            .entry(name.to_string())
            .or_default()
            .entry(subject.to_string())
            .or_default()
            .push(value);
    }

    /// Adds every span's self time under its name and the subject that
    /// prefixes its run id.
    pub fn add_spans(&mut self, spans: &[Span]) {
        let selfs = crate::spans::self_times(spans);
        for s in spans {
            let subject = s.run.split('/').next().unwrap_or("");
            self.add(&s.name, subject, selfs[&s.id]);
        }
    }

    /// Sum over subjects of each subject's median; `NaN` when absent.
    pub fn total(&self, name: &str) -> f64 {
        match self.map.get(name) {
            Some(by_subject) if !by_subject.is_empty() => {
                by_subject.values().map(|v| stats::median(v)).sum()
            }
            _ => f64::NAN,
        }
    }

    /// Median of one subject's samples under `name`; `NaN` when absent.
    pub fn median(&self, name: &str, subject: &str) -> f64 {
        self.map
            .get(name)
            .and_then(|m| m.get(subject))
            .map_or(f64::NAN, |v| stats::median(v))
    }

    /// Samples under `name`, over all subjects.
    pub fn count(&self, name: &str) -> usize {
        self.map
            .get(name)
            .map_or(0, |m| m.values().map(Vec::len).sum())
    }

    /// Subjects with samples under `name`.
    pub fn subjects(&self, name: &str) -> usize {
        self.map.get(name).map_or(0, BTreeMap::len)
    }
}

/// Replays every subject through the decode-only sink and the ladder
/// rungs, the sampled engine, the cache model, the static estimator and
/// the store. With `full` set it also times validation, exact replay and
/// attribution, which the pipeline workloads time in their own loop.
/// Returns the scratch store directory, holding each subject's trace under
/// its name.
pub fn layers(
    ctx: &Ctx,
    subjects: &[Subject],
    hierarchy: &MemoryHierarchy,
    full: bool,
    layers: &mut Layers,
    outcome: &mut Outcome,
) -> std::io::Result<std::path::PathBuf> {
    let t = &ctx.tracer;
    let store_dir = ctx
        .work_dir
        .join(format!("probe-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let mut store = TraceStore::open(&store_dir).map_err(std::io::Error::other)?;
    for s in subjects {
        let run = format!("{}/probe", s.name);
        let (program, buffer) = (&s.w.program, &s.buffer);
        let nrefs = program.references().len();
        layers.add("trace.events", &s.name, buffer.events() as f64);
        layers.add("trace.accesses", &s.name, buffer.accesses() as f64);
        layers.add(
            "trace.encoded_bytes",
            &s.name,
            buffer.encoded_bytes() as f64,
        );
        // The ladder's rungs differ by a few ns per event, so they get more
        // calls, interleaved so that drift in host speed hits every rung.
        for _ in 0..LADDER_REPS {
            let (noop, _) = t.time("trace.decode", None, &run, |_| {
                let mut sink = Noop::default();
                buffer.replay(&mut sink);
                sink
            });
            outcome.record(if noop.accesses + noop.scopes == buffer.events() {
                Ok(())
            } else {
                Err(format!("{}: decode saw {} accesses", s.name, noop.accesses))
            });
            ladder_rung::<1>(t, &run, "core.ladder.rung1", buffer, nrefs);
            ladder_rung::<2>(t, &run, "core.ladder.rung2", buffer, nrefs);
            ladder_rung::<3>(t, &run, "core.ladder.rung3", buffer, nrefs);
            ladder_rung::<4>(t, &run, "core.ladder.rung4", buffer, nrefs);
        }
        let opts = AnalyzeOptions::default();
        let mut exact = None;
        for _ in 0..REPS {
            if full {
                let (valid, _) = t.time("trace.validate", None, &run, |_| buffer.validate());
                outcome.record(valid.map_err(|e| format!("{}: validate: {e}", s.name)));
                let (partial, _) = t.time("core.replay", None, &run, |_| {
                    analyze_buffer_with(program, buffer, &GRAINS, &opts)
                });
                for timing in &partial.replays {
                    let name = format!("core.grain_replay_s.g{}", timing.block_size);
                    layers.add(&name, &s.name, timing.wall.as_secs_f64());
                }
                exact = Some(partial);
            }
            let sampled_opts = AnalyzeOptions {
                sampling: SamplingConfig::fixed(SAMPLE_RATE),
                ..AnalyzeOptions::default()
            };
            let sampled = analyze_buffer_with(program, buffer, &[GRAINS[0]], &sampled_opts);
            match sampled.replays.first() {
                Some(timing) if sampled.is_complete() => {
                    layers.add("core.sampled_s.g128", &s.name, timing.wall.as_secs_f64())
                }
                _ => outcome.record(Err(format!("{}: sampled replay failed", s.name))),
            }
            let (est, _) = t.time("static.estimate", None, &run, |_| {
                estimate_profiles(program, &s.w.index_arrays, &GRAINS)
            });
            outcome.record(if est.profiles.len() == GRAINS.len() {
                Ok(())
            } else {
                Err(format!(
                    "{}: estimator returned {} profiles",
                    s.name,
                    est.profiles.len()
                ))
            });
            let (built, _) = t.time("serve.build", None, &run, |_| {
                WorkloadSpec::from_spec_string(&s.spec).and_then(|spec| spec.build())
            });
            outcome.record(
                built
                    .map(|_| ())
                    .map_err(|e| format!("{}: spec build: {e}", s.name)),
            );
        }
        let exact = exact.unwrap_or_else(|| analyze_buffer_with(program, buffer, &GRAINS, &opts));
        let profiles = match exact.into_strict() {
            Ok((profiles, _)) => profiles,
            Err(e) => {
                outcome.record(Err(format!("{}: replay: {e}", s.name)));
                continue;
            }
        };
        let distinct = profiles
            .iter()
            .find(|p| p.block_size == GRAINS[0])
            .map_or(0, |p| p.distinct_blocks);
        layers.add("core.distinct_blocks.g128", &s.name, distinct as f64);
        let analysis = AnalysisResult {
            profiles,
            exec: s.exec.clone(),
        };
        for _ in 0..REPS {
            t.time("cache.report", None, &run, |_| {
                report_from_analysis(&analysis, hierarchy)
            });
            if full {
                t.time("metrics.attribute", None, &run, |_| {
                    attribute_analysis(program, hierarchy, analysis.clone())
                });
            }
        }
        // Store last: the put is the one a capture job makes, the get the
        // one every replay job makes.
        let meta = TraceMeta {
            workload: s.spec.clone(),
            grains: GRAINS.to_vec(),
        };
        let (put, _) = t.time("store.put", None, &run, |_| {
            store.put(&s.name, buffer, meta).map(|e| e.image_len)
        });
        let image_len = put.map_err(std::io::Error::other)?;
        layers.add(
            "store.image_mib",
            &s.name,
            image_len as f64 / (1024.0 * 1024.0),
        );
        for _ in 0..REPS {
            let (got, _) = t.time("store.get", None, &run, |_| store.get(&s.name));
            outcome.record(match got {
                Ok(b) if b.events() == buffer.events() && b.accesses() == buffer.accesses() => {
                    Ok(())
                }
                Ok(_) => Err(format!("{}: stored trace changed its event count", s.name)),
                Err(e) => Err(format!("{}: store get: {e}", s.name)),
            });
        }
    }
    Ok(store_dir)
}

fn ladder_rung<const RUNG: u8>(
    t: &crate::spans::Tracer,
    run: &str,
    name: &str,
    buffer: &TraceBuffer,
    nrefs: usize,
) {
    let (sink, _) = t.time(name, None, run, |_| {
        let mut sink = Ladder::<RUNG>::new(GRAINS[0], nrefs);
        buffer.replay(&mut sink);
        sink
    });
    std::hint::black_box(sink.checksum());
}

/// Per-layer metrics of the ladder: the cost each rung adds, per event
/// (scope stack) or per access (the rest).
pub fn ladder_metrics(l: &Layers) -> Vec<crate::Metric> {
    let (events, accesses) = (l.total("trace.events"), l.total("trace.accesses"));
    let rung = |k: u8| l.total(&format!("core.ladder.rung{k}"));
    let ns = |delta: f64, per: f64| delta * 1e9 / per;
    vec![
        crate::metric(
            "core.ladder.scopestack_ns_per_event",
            ns(rung(1) - l.total("trace.decode"), events),
            "ns",
        ),
        crate::metric(
            "core.ladder.blocktable_ns_per_access",
            ns(rung(2) - rung(1), accesses),
            "ns",
        ),
        crate::metric(
            "core.ladder.timebits_ns_per_access",
            ns(rung(3) - rung(2), accesses),
            "ns",
        ),
        crate::metric(
            "core.ladder.histogram_ns_per_access",
            ns(rung(4) - rung(3), accesses),
            "ns",
        ),
    ]
}

/// Median wall of an exact two-grain replay with a [`MetricsRecorder`]
/// installed, over the same replay with none, summed over subjects. Runs
/// alternate so drift hits both sides alike.
pub fn recorder_ratio(subjects: &[Subject]) -> f64 {
    let opts = AnalyzeOptions::default();
    let (mut dark, mut lit) = (0.0, 0.0);
    for s in subjects {
        let mut d = Vec::new();
        let mut r = Vec::new();
        for i in 0..2 * REPS {
            let recorder = i % 2 == 1;
            if recorder {
                obs::install(Arc::new(MetricsRecorder::new()));
            }
            let start = std::time::Instant::now();
            let partial = analyze_buffer_with(&s.w.program, &s.buffer, &GRAINS, &opts);
            let secs = start.elapsed().as_secs_f64();
            if recorder {
                obs::uninstall();
                r.push(secs);
            } else {
                d.push(secs);
            }
            std::hint::black_box(partial);
        }
        dark += stats::median(&d);
        lit += stats::median(&r);
    }
    lit / dark
}

/// Removes a scratch directory the probe or a session made.
pub fn remove_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}
