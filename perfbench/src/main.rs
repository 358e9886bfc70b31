//! End-to-end and per-layer benchmark of ReuseLens.
//!
//! ```text
//! perfbench --workload <sweep3d-analyze|gtc-analyze|daemon-mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with no spans
//! recorded; with `--trace 1` it records spans around every call into the
//! crates and reports per-layer metrics. The last line of standard output
//! is the result object; the lines before it are a readable table, the
//! provenance record and (traced) the self-time table. See `README.md`.

mod daemon;
mod ladder;
mod pipeline;
mod probe;
mod reference;
mod spans;
mod stats;
mod sys;

use reuselens_bench::json::Json;
use spans::{Span, Tracer};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

/// Seed used when `--seed` is absent. The README names the seed held
/// out from tuning.
pub const DEFAULT_SEED: u64 = 1;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 3] = ["sweep3d-analyze", "gtc-analyze", "daemon-mixed"];

/// Where cached references, daemon stores and span files go, relative to
/// the directory the benchmark runs from.
pub const WORK_DIR: &str = ".perfbench";

/// Everything one run needs to know.
#[derive(Debug)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub tracer: Arc<Tracer>,
    pub work_dir: PathBuf,
}

impl Ctx {
    pub fn traced(&self) -> bool {
        self.tracer.enabled()
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What a workload run hands back for printing.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// First few failure descriptions, for the log.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Sample count behind each median or percentile, by metric name.
    pub samples: Vec<(String, usize)>,
    /// Raw timing series (seconds) behind the medians, for the record file.
    pub series: Vec<(String, Vec<f64>)>,
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Counts one checked operation.
    pub fn record(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.failed += 1;
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload} (want one of {})",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The result object the last line of standard output carries.
fn result_json(outcome: &Outcome) -> Json {
    Json::Obj(vec![
        ("correct".into(), Json::Bool(outcome.failed == 0)),
        ("attempted".into(), Json::Num(outcome.attempted as f64)),
        ("failed".into(), Json::Num(outcome.failed as f64)),
        (
            "metrics".into(),
            Json::Obj(
                outcome
                    .metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.clone(),
                            Json::Obj(vec![
                                ("value".into(), Json::Num(m.value)),
                                ("unit".into(), Json::Str(m.unit.into())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Exit status for a finished run: any failed or wrong output fails the
/// command.
fn exit_status(outcome: &Outcome) -> ExitCode {
    if outcome.failed == 0 && outcome.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn self_time_table(spans: &[Span]) -> String {
    let mut out = String::from("self time by span (median ms, total ms, count):\n");
    let by_name: BTreeMap<String, Vec<f64>> = spans::self_times_by_name(spans);
    for (name, v) in by_name {
        out.push_str(&format!(
            "  {name:<32} {:>12.3} {:>12.3} {:>6}\n",
            stats::median(&v) * 1e3,
            v.iter().sum::<f64>() * 1e3,
            v.len()
        ));
    }
    out
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        tracer: Arc::new(Tracer::new(args.trace)),
        work_dir: PathBuf::from(WORK_DIR),
    };
    let run = match args.workload.as_str() {
        "sweep3d-analyze" => pipeline::run(&ctx, pipeline::Case::Sweep3d),
        "gtc-analyze" => pipeline::run(&ctx, pipeline::Case::Gtc),
        _ => daemon::run(&ctx),
    };
    let outcome = match run {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    for e in &outcome.errors {
        eprintln!("perfbench: wrong output: {e}");
    }
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        eprintln!("perfbench: {} measured no value ({})", m.name, m.value);
        return ExitCode::FAILURE;
    }
    let mut provenance = sys::provenance(&args.workload, args.seed, args.trace);
    if let Json::Obj(fields) = &mut provenance {
        fields.push((
            "samples".into(),
            Json::Obj(
                outcome
                    .samples
                    .iter()
                    .map(|(k, n)| (k.clone(), Json::Num(*n as f64)))
                    .collect(),
            ),
        ));
    }
    let series = Json::Obj(
        outcome
            .series
            .iter()
            .map(|(k, v)| {
                (
                    k.clone(),
                    Json::Arr(v.iter().map(|&x| Json::Num(x)).collect()),
                )
            })
            .collect(),
    );
    let record = Json::Obj(vec![
        ("provenance".into(), provenance.clone()),
        ("series".into(), series),
        ("result".into(), result_json(&outcome)),
    ]);
    let out_dir = ctx.work_dir.join("out");
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let written = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(out_dir.join(format!("{stem}.json")), record.render_pretty()))
        .and_then(|()| {
            if args.trace {
                std::fs::write(
                    out_dir.join(format!("{stem}.spans.jsonl")),
                    spans::to_jsonl(&outcome.spans),
                )
            } else {
                Ok(())
            }
        });
    if let Err(e) = written {
        eprintln!("perfbench: cannot write {}: {e}", out_dir.display());
    }
    println!(
        "{} seed={} trace={}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    for m in &outcome.metrics {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "  {:<40} {:>16.6} ratio",
        "error_rate",
        outcome.error_rate()
    );
    if args.trace {
        print!("{}", self_time_table(&outcome.spans));
        println!(
            "spans: {}",
            out_dir.join(format!("{stem}.spans.jsonl")).display()
        );
    }
    println!("provenance {}", provenance.render());
    println!("{}", result_json(&outcome).render());
    exit_status(&outcome)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = parse_args(&strings(&[
            "--workload",
            "gtc-analyze",
            "--seed",
            "7",
            "--seconds",
            "2.5",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "gtc-analyze".into(),
                seed: 7,
                seconds: 2.5,
                trace: true
            }
        );
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--workload", "gtc-analyze", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--seed", "1"])).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut o = Outcome::default();
        o.record(Ok(()));
        o.metrics.push(metric("setup_s", 0.25, "s"));
        let j = result_json(&o);
        let Json::Obj(pairs) = &j else { panic!() };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(
            j.render(),
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"setup_s":{"value":0.25,"unit":"s"}}}"#
        );
        assert_eq!(exit_status(&o), ExitCode::SUCCESS);
        o.record(Err("wrong".into()));
        assert_eq!(exit_status(&o), ExitCode::FAILURE);
        assert_eq!(o.error_rate(), 0.5);
    }
}
