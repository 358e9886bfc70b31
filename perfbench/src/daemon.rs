//! The `daemon-mixed` workload: an in-process `serve::Daemon` (2 workers)
//! reached over TCP loopback by 2 closed-loop clients, each sending its
//! next request only after reading the previous response. Also the short
//! scripted session the pipeline workloads' traced runs use to time the
//! serve layer on their own trace.

use crate::probe::{self, Layers, Subject, GRAINS, SAMPLE_RATE};
use crate::spans::Tracer;
use crate::{metric, stats, Ctx, Metric, Outcome};
use reuselens::cache::MemoryHierarchy;
use reuselens::core::{
    analyze_buffer_with, capture_program, write_profiles, AnalyzeOptions, SamplingConfig,
    SavedProfiles,
};
use reuselens::metrics::run_locality_estimate;
use reuselens::serve::{Daemon, DaemonConfig, JobRecord, WorkloadSpec};
use reuselens::store::crc32;
use reuselens::trace::TraceBuffer;
use reuselens::workloads::BuiltWorkload;
use reuselens_bench::json::{self, Json};
use reuselens_prng::SplitMix64;
use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Pings after the session, for `serve.ping_ms_p50`.
const PINGS: usize = 20;
/// Window over which the session's peak RSS is taken.
const RSS_WINDOW: Duration = Duration::from_secs(1);

/// The traces the store is seeded with: id, capture request fields, and
/// the spec string the daemon records for them.
const STORED: [(&str, &str, &str); 2] = [
    (
        "sweep3d-m16",
        r#""workload":"sweep3d","mesh":16"#,
        "sweep3d mesh=16",
    ),
    (
        "gtc-g1024-m16",
        r#""workload":"gtc","mgrid":1024,"micell":16"#,
        "gtc mgrid=1024 micell=16",
    ),
];

/// The small workload capture jobs capture afresh.
const FRESH: (&str, &str) = (r#""workload":"sweep3d","mesh":8"#, "sweep3d mesh=8");

/// A job kind as the mix draws it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Exact replay at the 128 B grain.
    Replay128,
    /// Exact replay at both grains.
    Replay2,
    /// 1/100-sampled replay at the 128 B grain.
    Sampled,
    /// Static estimate of a stored trace's workload.
    Estimate,
    /// Capture of a fresh small trace (always followed by its evict).
    Capture,
    Evict,
    Ping,
}

impl Kind {
    /// The name the serve-layer metrics use.
    fn exec_name(self) -> &'static str {
        match self {
            Kind::Replay128 | Kind::Replay2 => "replay",
            Kind::Sampled => "replay_sampled",
            Kind::Estimate => "estimate",
            Kind::Capture => "capture",
            Kind::Evict => "evict",
            Kind::Ping => "ping",
        }
    }
}

/// Every kind a session sends, captures before their evicts.
const KINDS: [Kind; 6] = [
    Kind::Replay128,
    Kind::Replay2,
    Kind::Sampled,
    Kind::Estimate,
    Kind::Capture,
    Kind::Evict,
];

/// Draws per hundred: 55% exact 128 B replays, 15% exact two-grain
/// replays, 12% sampled replays, 8% estimates, 10% capture + evict.
const MIX: [(Kind, usize); 5] = [
    (Kind::Replay128, 55),
    (Kind::Replay2, 15),
    (Kind::Sampled, 12),
    (Kind::Estimate, 8),
    (Kind::Capture, 10),
];

/// One client's seeded sequence of (kind, stored-trace index): every
/// hundred draws hold the mix exactly, with each kind's draws alternating
/// over the traces, shuffled by SplitMix64. Exact shares keep a run's mix
/// (and so its throughput) from depending on sampling luck.
pub fn deck(seed: u64, client: usize, traces: usize) -> Vec<(Kind, usize)> {
    let mut deck: Vec<(Kind, usize)> = MIX
        .iter()
        .flat_map(|&(kind, n)| (0..n).map(move |i| (kind, i % traces)))
        .collect();
    let mut rng =
        SplitMix64::seed_from_u64(seed ^ (client as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    for i in (1..deck.len()).rev() {
        let j = rng.gen_range(0..i as u64 + 1) as usize;
        deck.swap(i, j);
    }
    deck
}

/// A response line with the instants the request was written and the
/// response fully read.
#[derive(Debug)]
pub struct Reply {
    pub line: String,
    pub sent: Instant,
    pub received: Instant,
}

impl Reply {
    pub fn latency_s(&self) -> f64 {
        (self.received - self.sent).as_secs_f64()
    }
}

/// One protocol connection.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    /// Sends one request line and reads its response line. The latency
    /// clock starts immediately before the write, so time the request
    /// spends in socket buffers and the daemon's queue is counted.
    pub fn request(&mut self, line: &str) -> io::Result<Reply> {
        let mut bytes = Vec::with_capacity(line.len() + 1);
        bytes.extend_from_slice(line.as_bytes());
        bytes.push(b'\n');
        let sent = Instant::now();
        self.stream.write_all(&bytes)?;
        let mut response = String::new();
        if self.reader.read_line(&mut response)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "daemon closed the connection",
            ));
        }
        let received = Instant::now();
        Ok(Reply {
            line: response.trim_end().to_string(),
            sent,
            received,
        })
    }
}

/// What a correct daemon answers for one stored trace.
#[derive(Debug, Clone)]
pub struct TraceExpect {
    pub id: String,
    pub events: u64,
    /// `profiles_crc` of the exact 128 B, exact two-grain and sampled
    /// replays, from an in-process `analyze_buffer_with` with the same
    /// options.
    crc: [u32; 3],
    /// `covered`, `fallback` and per grain (grain, accesses, distinct
    /// blocks) of the estimate.
    estimate: (usize, usize, Vec<(u64, u64, u64)>),
}

/// The daemon's `profiles_crc`: CRC-32 of the saved-profiles file.
fn profiles_crc(
    program: &reuselens::ir::Program,
    buffer: &TraceBuffer,
    grains: &[u64],
    sampling: SamplingConfig,
) -> u32 {
    let opts = AnalyzeOptions {
        sampling,
        ..AnalyzeOptions::default()
    };
    let (profiles, _) = analyze_buffer_with(program, buffer, grains, &opts)
        .into_strict()
        .expect("in-process replay of a fresh capture succeeds");
    let saved = SavedProfiles {
        name: program.name().to_string(),
        size: 0.0,
        profiles,
    };
    let mut bytes = Vec::new();
    write_profiles(&saved, &mut bytes).expect("writing to a Vec cannot fail");
    crc32(&bytes)
}

/// Builds a workload from the daemon's spec string, as its jobs do.
fn build_spec(spec: &str) -> io::Result<BuiltWorkload> {
    WorkloadSpec::from_spec_string(spec)
        .and_then(|s| s.build())
        .map_err(|e| io::Error::other(format!("{spec}: {e}")))
}

/// Derives every answer the daemon should give for `s`, stored under
/// `s.name`. Runs outside the timed session.
pub fn expect_trace(s: &Subject, scale: u64) -> io::Result<TraceExpect> {
    let (p, b) = (&s.w.program, &s.buffer);
    // Estimates rebuild the program from the stored spec, index arrays
    // included, so the expectation does too.
    let spec_w = build_spec(&s.spec)?;
    let est = run_locality_estimate(
        &spec_w.program,
        &MemoryHierarchy::itanium2_scaled(scale),
        &spec_w.index_arrays,
    );
    Ok(TraceExpect {
        id: s.name.clone(),
        events: b.events(),
        crc: [
            profiles_crc(p, b, &GRAINS[..1], SamplingConfig::Exact),
            profiles_crc(p, b, &GRAINS, SamplingConfig::Exact),
            profiles_crc(p, b, &GRAINS[..1], SamplingConfig::fixed(SAMPLE_RATE)),
        ],
        estimate: (
            est.covered.len(),
            est.fallback.len(),
            est.analysis
                .analysis
                .profiles
                .iter()
                .map(|p| (p.block_size, p.total_accesses, p.distinct_blocks))
                .collect(),
        ),
    })
}

fn capture_line(id: &str, fields: &str) -> String {
    format!(r#"{{"kind":"capture","id":"{id}",{fields},"grains":[128,16384]}}"#)
}

fn request_line(kind: Kind, trace: &str, fresh_id: &str) -> String {
    match kind {
        Kind::Replay128 => format!(r#"{{"kind":"replay","id":"{trace}","grains":[128]}}"#),
        Kind::Replay2 => format!(r#"{{"kind":"replay","id":"{trace}","grains":[128,16384]}}"#),
        Kind::Sampled => format!(
            r#"{{"kind":"replay","id":"{trace}","grains":[128],"sample_rate":{SAMPLE_RATE}}}"#
        ),
        Kind::Estimate => format!(r#"{{"kind":"estimate","id":"{trace}"}}"#),
        Kind::Capture => capture_line(fresh_id, FRESH.0),
        Kind::Evict => format!(r#"{{"kind":"evict","id":"{fresh_id}"}}"#),
        Kind::Ping => r#"{"kind":"ping"}"#.to_string(),
    }
}

fn num(j: &Json, key: &str) -> Result<f64, String> {
    j.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("response has no numeric {key}"))
}

/// Checks one parsed response; returns the trace events a replay
/// consumed (0 for other kinds).
fn check_reply(
    kind: Kind,
    j: &Json,
    trace: &TraceExpect,
    fresh: (u64, u64),
    fresh_id: &str,
) -> Result<u64, String> {
    if j.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!("{kind:?}: {}", j.render()));
    }
    let variant = match kind {
        Kind::Replay128 => 0,
        Kind::Replay2 => 1,
        Kind::Sampled => 2,
        Kind::Estimate => {
            let (covered, fallback, grains) = &trace.estimate;
            let got: Option<Vec<(u64, u64, u64)>> =
                j.get("grains").and_then(Json::as_arr).map(|a| {
                    a.iter()
                        .filter_map(|g| {
                            Some((
                                g.get("grain")?.as_f64()? as u64,
                                g.get("accesses")?.as_f64()? as u64,
                                g.get("distinct_blocks")?.as_f64()? as u64,
                            ))
                        })
                        .collect()
                });
            return if num(j, "covered")? as usize == *covered
                && num(j, "fallback")? as usize == *fallback
                && got.as_ref() == Some(grains)
            {
                Ok(0)
            } else {
                Err(format!("estimate of {} differs: {}", trace.id, j.render()))
            };
        }
        Kind::Capture => {
            let got = (num(j, "events")? as u64, num(j, "accesses")? as u64);
            return if got == fresh {
                Ok(0)
            } else {
                Err(format!("capture recorded {got:?}, expected {fresh:?}"))
            };
        }
        Kind::Evict => {
            return if j.get("evicted").and_then(Json::as_str) == Some(fresh_id) {
                Ok(0)
            } else {
                Err(format!("evict answered {}", j.render()))
            }
        }
        Kind::Ping => {
            return if j.get("pong") == Some(&Json::Bool(true)) {
                Ok(0)
            } else {
                Err(format!("ping answered {}", j.render()))
            }
        }
    };
    let crc = num(j, "profiles_crc")? as u32;
    let events = num(j, "events")? as u64;
    if crc != trace.crc[variant] || events != trace.events {
        return Err(format!(
            "{kind:?} of {}: profiles_crc {crc}, in-process {}",
            trace.id, trace.crc[variant]
        ));
    }
    Ok(events)
}

/// One answered request as the client saw it. Replies are checked after
/// the session, so that deriving the expected answers in process neither
/// competes with the daemon nor raises the memory baseline.
#[derive(Debug, Clone)]
pub struct Op {
    pub kind: Kind,
    pub trace: usize,
    pub fresh_id: String,
    pub job: String,
    pub latency_s: f64,
    pub reply: Result<Json, String>,
    /// Whether a span was recorded around the request.
    pub traced: bool,
    /// Set by [`check_ops`]: whether the reply was right, and the trace
    /// events a replay consumed.
    pub ok: bool,
    pub events: u64,
}

/// Everything the replies are checked against.
pub struct Expect {
    pub traces: Vec<TraceExpect>,
    /// (events, accesses) of a fresh capture.
    pub fresh: (u64, u64),
}

/// Sends one request of `kind` about stored trace `ids[trace]`. With a
/// tracer, a span tagged with the daemon's job id covers the request.
fn exchange(
    client: &mut Client,
    kind: Kind,
    trace: usize,
    ids: &[&str],
    fresh_id: &str,
    tracer: Option<&Tracer>,
) -> io::Result<Op> {
    let line = request_line(kind, ids[trace], fresh_id);
    let open = tracer.map(|t| t.open(&format!("client.{}", kind.exec_name()), None, ""));
    let reply = client.request(&line)?;
    let parsed = json::parse(&reply.line).map_err(|e| format!("{e}: {}", reply.line));
    let job = parsed
        .as_ref()
        .ok()
        .and_then(|j| j.get("job").and_then(Json::as_str))
        .unwrap_or("?")
        .to_string();
    if let (Some(t), Some(mut open)) = (tracer, open) {
        open.run = format!("daemon-mixed/{job}");
        t.close(open);
    }
    Ok(Op {
        kind,
        trace,
        fresh_id: fresh_id.to_string(),
        job,
        latency_s: reply.latency_s(),
        reply: parsed,
        traced: tracer.is_some(),
        ok: false,
        events: 0,
    })
}

/// Checks every reply against the expectation.
fn check_ops(ops: &mut [Op], expect: &Expect, outcome: &mut Outcome) {
    for op in ops {
        let checked = op.reply.as_ref().map_err(Clone::clone).and_then(|j| {
            check_reply(
                op.kind,
                j,
                &expect.traces[op.trace],
                expect.fresh,
                &op.fresh_id,
            )
        });
        op.ok = checked.is_ok();
        op.events = *checked.as_ref().unwrap_or(&0);
        outcome.record(checked.map(|_| ()));
    }
}

/// One closed-loop client: works through its deck until `deadline`,
/// finishing the request in flight (and the evict after a capture).
fn client_loop(
    ctx: &Ctx,
    client_idx: usize,
    addr: SocketAddr,
    ids: &[&str],
    deadline: Instant,
) -> io::Result<Vec<Op>> {
    let mut client = Client::connect(addr)?;
    let deck = deck(ctx.seed, client_idx, ids.len());
    let mut ops = Vec::new();
    let mut n = 0usize;
    while Instant::now() < deadline {
        let (kind, trace) = deck[n % deck.len()];
        let fresh_id = format!("fresh-c{client_idx}-{n}");
        // Spans on every other request, so the traced run can compare
        // latency with and without them.
        let tracer = (ctx.traced() && n.is_multiple_of(2)).then_some(&*ctx.tracer);
        ops.push(exchange(&mut client, kind, trace, ids, &fresh_id, tracer)?);
        if kind == Kind::Capture {
            ops.push(exchange(
                &mut client,
                Kind::Evict,
                trace,
                ids,
                &fresh_id,
                tracer,
            )?);
        }
        n += 1;
    }
    Ok(ops)
}

/// Starts a daemon on `dir` listening on a free loopback port.
fn start(dir: &Path) -> io::Result<(Arc<Daemon>, SocketAddr)> {
    let mut cfg = DaemonConfig::new(dir);
    cfg.workers = WORKERS;
    let daemon = Arc::new(Daemon::start(cfg).map_err(io::Error::other)?);
    let addr = daemon.serve("127.0.0.1:0")?;
    Ok((daemon, addr))
}

fn scale() -> u64 {
    DaemonConfig::new("").scale
}

/// Captures a spec's workload in process: the subject the probe and the
/// expectations work on.
fn subject(ctx: &Ctx, name: &str, spec: &str) -> io::Result<Subject> {
    let (w, _) = ctx
        .tracer
        .time("workloads.build", None, &format!("{name}/setup"), |_| {
            build_spec(spec)
        });
    let w = w?;
    let (buffer, exec) =
        capture_program(&w.program, w.index_arrays.clone()).map_err(io::Error::other)?;
    Ok(Subject {
        name: name.to_string(),
        w,
        buffer,
        exec,
        spec: spec.to_string(),
    })
}

fn fresh_expect() -> io::Result<(u64, u64)> {
    let w = build_spec(FRESH.1)?;
    let (b, _) = capture_program(&w.program, w.index_arrays).map_err(io::Error::other)?;
    Ok((b.events(), b.accesses()))
}

/// Serve-layer metrics from the ops clients saw, the daemon's job table
/// and ping latencies.
pub fn serve_metrics(log: &ServeLog, l: &Layers) -> Vec<Metric> {
    let (ops, pings) = (&log.ops, &log.pings);
    let exec: HashMap<&str, f64> = log
        .records
        .iter()
        .map(|r| (r.job.as_str(), r.wall.as_secs_f64() * 1e3))
        .collect();
    let exec_p50 = |name: &str| {
        let v: Vec<f64> = ops
            .iter()
            .filter(|o| o.kind.exec_name() == name)
            .filter_map(|o| exec.get(o.job.as_str()).copied())
            .collect();
        stats::median(&v)
    };
    let waits: Vec<f64> = ops
        .iter()
        .filter_map(|o| exec.get(o.job.as_str()).map(|e| o.latency_s * 1e3 - e))
        .collect();
    let mut m: Vec<Metric> = ["replay", "replay_sampled", "estimate", "capture", "evict"]
        .iter()
        .map(|k| metric(format!("serve.exec_ms_p50.{k}"), exec_p50(k), "ms"))
        .collect();
    m.extend([
        metric("serve.queue_wait_ms_p50", stats::median(&waits), "ms"),
        metric(
            "serve.queue_wait_ms_p90",
            stats::quantile(&waits, 0.9),
            "ms",
        ),
        metric(
            "serve.build_ms",
            l.total("serve.build") * 1e3 / l.subjects("serve.build") as f64,
            "ms",
        ),
        metric("serve.ping_ms_p50", stats::median(pings) * 1e3, "ms"),
    ]);
    m
}

fn ping_latencies(client: &mut Client, outcome: &mut Outcome) -> io::Result<Vec<f64>> {
    let mut pings = Vec::new();
    for _ in 0..PINGS {
        let reply = client.request(&request_line(Kind::Ping, "", ""))?;
        pings.push(reply.latency_s());
        outcome.record(if reply.line.contains(r#""pong":true"#) {
            Ok(())
        } else {
            Err(format!("ping answered {}", reply.line))
        });
    }
    Ok(pings)
}

/// What a serve session leaves for [`serve_metrics`].
#[derive(Debug)]
pub struct ServeLog {
    pub ops: Vec<Op>,
    pub records: Vec<JobRecord>,
    pub pings: Vec<f64>,
}

/// The pipeline workloads' serve-layer timing: a daemon over `store_dir`
/// (which holds each subject's trace under its name) answers a short
/// scripted session of every job kind from one client.
pub fn serve_probe(
    store_dir: &Path,
    subjects: &[Subject],
    outcome: &mut Outcome,
) -> io::Result<ServeLog> {
    let ids: Vec<&str> = subjects.iter().map(|s| s.name.as_str()).collect();
    let (daemon, addr) = start(store_dir)?;
    let session = (|| {
        let mut client = Client::connect(addr)?;
        let mut ops = Vec::new();
        for trace in 0..ids.len() {
            for i in 0..probe::REPS {
                let fresh_id = format!("probe-{trace}-{i}");
                for kind in KINDS {
                    ops.push(exchange(&mut client, kind, trace, &ids, &fresh_id, None)?);
                }
            }
        }
        let pings = ping_latencies(&mut client, outcome)?;
        Ok::<_, io::Error>((ops, pings))
    })();
    let records = daemon.job_records();
    daemon.shutdown();
    let (mut ops, pings) = session?;
    check_ops(&mut ops, &expect(subjects)?, outcome);
    Ok(ServeLog {
        ops,
        records,
        pings,
    })
}

/// The expected answers for `subjects`, each stored under its name.
fn expect(subjects: &[Subject]) -> io::Result<Expect> {
    Ok(Expect {
        traces: subjects
            .iter()
            .map(|s| expect_trace(s, scale()))
            .collect::<io::Result<_>>()?,
        fresh: fresh_expect()?,
    })
}

pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let mut outcome = Outcome::default();
    let pid = std::process::id();

    // Set-up: a fresh store, the daemon and its listener, and the store
    // seeded through capture jobs. Repeated; the last one stays up.
    let mut setup = Vec::new();
    let mut live = None;
    for rep in 0..SETUP_REPS {
        let dir = ctx.work_dir.join(format!("daemon-store-{pid}-{rep}"));
        probe::remove_dir(&dir);
        let started = Instant::now();
        let (daemon, addr) = start(&dir)?;
        let seeded = (|| {
            let mut client = Client::connect(addr)?;
            for (id, fields, _) in STORED {
                let reply = client.request(&capture_line(id, fields))?;
                if !reply.line.contains(r#""ok":true"#) {
                    return Err(io::Error::other(format!("seeding {id}: {}", reply.line)));
                }
            }
            Ok(())
        })();
        setup.push(started.elapsed().as_secs_f64());
        if seeded.is_err() || rep + 1 < SETUP_REPS {
            daemon.shutdown();
            probe::remove_dir(&dir);
            seeded?;
        } else {
            live = Some((daemon, addr, dir));
        }
    }
    let (daemon, addr, dir) = live.expect("SETUP_REPS > 0");
    let result = session(ctx, &daemon, addr, &mut outcome);
    daemon.shutdown();
    probe::remove_dir(&dir);
    let (log, wall, rss_windows, subjects) = result?;
    report(
        ctx,
        &mut outcome,
        &setup,
        &log,
        wall,
        &rss_windows,
        &subjects,
    )?;
    Ok(outcome)
}

/// The session's peak RSS, window by window: reads and resets `VmHWM`
/// every [`RSS_WINDOW`] until `done`. A whole-session peak varied by up
/// to a third from run to run, with chance overlaps of large short-lived
/// buffers and with allocator arena state; the median window peak varies
/// far less.
fn rss_windows(done: &AtomicBool) -> io::Result<Vec<f64>> {
    let mut peaks = Vec::new();
    let mut window = Instant::now();
    loop {
        let finished = done.load(Ordering::Acquire);
        if finished || window.elapsed() >= RSS_WINDOW {
            peaks.push(crate::sys::peak_rss_mib()?);
            crate::sys::reset_peak_rss()?;
            window = Instant::now();
        }
        if finished {
            return Ok(peaks);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Warm-up and the timed session against a running daemon, then the
/// checks. Returns the session's log, wall seconds and per-window peak
/// RSS, and the stored traces as in-process subjects.
fn session(
    ctx: &Ctx,
    daemon: &Arc<Daemon>,
    addr: SocketAddr,
    outcome: &mut Outcome,
) -> io::Result<(ServeLog, f64, Vec<f64>, Vec<Subject>)> {
    let ids: Vec<&str> = STORED.iter().map(|(id, _, _)| *id).collect();

    // Warm-up: every kind on every trace from all clients in lockstep, so
    // the page cache is filled and the allocator has made its per-thread
    // arenas for the most jobs that can run at once before timing starts.
    let barrier = std::sync::Barrier::new(CLIENTS);
    let warm: Vec<io::Result<Vec<Op>>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (ids, barrier) = (&ids, &barrier);
                s.spawn(move || {
                    let mut client = Client::connect(addr)?;
                    let fresh_id = format!("warm-up-c{c}");
                    let mut ops = Vec::new();
                    for trace in 0..ids.len() {
                        for kind in KINDS {
                            barrier.wait();
                            ops.push(exchange(&mut client, kind, trace, ids, &fresh_id, None)?);
                        }
                    }
                    Ok(ops)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("warm-up client panicked"))
            .collect()
    });
    let mut warm_ops = Vec::new();
    for ops in warm {
        warm_ops.extend(ops?);
    }

    crate::sys::reset_peak_rss()?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    let done = AtomicBool::new(false);
    let (logs, windows) = std::thread::scope(|s| {
        let monitor = s.spawn(|| rss_windows(&done));
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let ids = &ids;
                s.spawn(move || client_loop(ctx, c, addr, ids, deadline))
            })
            .collect();
        let logs: Vec<io::Result<Vec<Op>>> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        done.store(true, Ordering::Release);
        (logs, monitor.join().expect("memory monitor panicked"))
    });
    let wall = start.elapsed().as_secs_f64();
    let windows = windows?;
    let mut ops = Vec::new();
    for log in logs {
        ops.extend(log?);
    }
    let pings = if ctx.traced() {
        ping_latencies(&mut Client::connect(addr)?, outcome)?
    } else {
        Vec::new()
    };
    let records = daemon.job_records();

    let subjects: Vec<Subject> = STORED
        .iter()
        .map(|(id, _, spec)| subject(ctx, id, spec))
        .collect::<io::Result<_>>()?;
    let expect = expect(&subjects)?;
    check_ops(&mut warm_ops, &expect, outcome);
    check_ops(&mut ops, &expect, outcome);
    let log = ServeLog {
        ops,
        records,
        pings,
    };
    Ok((log, wall, windows, subjects))
}

fn report(
    ctx: &Ctx,
    outcome: &mut Outcome,
    setup: &[f64],
    log: &ServeLog,
    wall: f64,
    rss_windows: &[f64],
    subjects: &[Subject],
) -> io::Result<()> {
    let ops = &log.ops;
    let latency = |pred: &dyn Fn(&Op) -> bool| -> Vec<f64> {
        ops.iter()
            .filter(|o| pred(o))
            .map(|o| o.latency_s)
            .collect()
    };
    let all = latency(&|_| true);
    let analyses = latency(&|o| o.kind == Kind::Replay128);
    outcome.series = vec![
        ("setup".into(), setup.to_vec()),
        ("rss_windows_mib".into(), rss_windows.to_vec()),
    ];
    for kind in KINDS {
        for (i, s) in subjects.iter().enumerate() {
            let v = latency(&|o| o.kind == kind && o.trace == i);
            outcome
                .series
                .push((format!("latency.{kind:?}.{}", s.name), v));
        }
    }
    if !ctx.traced() {
        let good = ops.iter().filter(|o| o.ok).count();
        let events: u64 = ops.iter().filter(|o| o.ok).map(|o| o.events).sum();
        outcome.metrics = vec![
            metric("setup_s", stats::median(setup), "s"),
            metric("analysis_s", stats::median(&analyses), "s"),
            metric("events_per_s", events as f64 / wall, "1/s"),
            metric("peak_rss_mib", stats::median(rss_windows), "MiB"),
            metric("jobs_per_s", good as f64 / wall, "1/s"),
            metric("job_p50_ms", stats::median(&all) * 1e3, "ms"),
            metric("job_p90_ms", stats::quantile(&all, 0.9) * 1e3, "ms"),
        ];
        outcome.samples = vec![
            ("setup_s".into(), setup.len()),
            ("analysis_s".into(), analyses.len()),
            ("peak_rss_mib".into(), rss_windows.len()),
            ("job_p50_ms".into(), all.len()),
            ("job_p90_ms".into(), all.len()),
        ];
        return Ok(());
    }

    // Traced: capture as capture jobs do it, then probe the stored traces.
    let t = &ctx.tracer;
    let mut layers = Layers::default();
    let fresh = build_spec(FRESH.1)?;
    let fresh_name = "sweep3d-m8";
    for i in 0..probe::REPS {
        let (captured, _) = t.time(
            "trace.capture",
            None,
            &format!("{fresh_name}/capture-{i}"),
            |_| capture_program(&fresh.program, fresh.index_arrays.clone()),
        );
        let (b, _) = captured.map_err(io::Error::other)?;
        layers.add("trace.capture_events", fresh_name, b.events() as f64);
    }
    let h = crate::pipeline::hierarchy();
    let store_dir = probe::layers(ctx, subjects, &h, true, &mut layers, outcome)?;
    probe::remove_dir(&store_dir);
    let recorder = probe::recorder_ratio(subjects);
    let spans = t.take();
    layers.add_spans(&spans);

    // What a 128 B replay job does, timed from outside (load, rebuild the
    // program, replay), over the daemon's median execution time of one.
    let exec: HashMap<&str, f64> = log
        .records
        .iter()
        .map(|r| (r.job.as_str(), r.wall.as_secs_f64()))
        .collect();
    let (mut outside, mut inside) = (0.0, 0.0);
    for (i, s) in subjects.iter().enumerate() {
        let v: Vec<f64> = ops
            .iter()
            .filter(|o| o.kind == Kind::Replay128 && o.trace == i)
            .filter_map(|o| exec.get(o.job.as_str()).copied())
            .collect();
        inside += stats::median(&v);
        outside += layers.median("store.get", &s.name)
            + layers.median("serve.build", &s.name)
            + layers.median("core.grain_replay_s.g128", &s.name);
    }
    // Per trace, since the two traces' replays differ several-fold.
    let (mut traced, mut dark, mut n_traced, mut n_dark) = (0.0, 0.0, 0, 0);
    for i in 0..subjects.len() {
        let with = latency(&|o| o.kind == Kind::Replay128 && o.trace == i && o.traced);
        let without = latency(&|o| o.kind == Kind::Replay128 && o.trace == i && !o.traced);
        traced += stats::median(&with);
        dark += stats::median(&without);
        n_traced += with.len();
        n_dark += without.len();
    }

    let mut m = crate::pipeline::layer_metrics(&layers);
    m.extend(serve_metrics(log, &layers));
    m.push(metric("obs.recorder_overhead_ratio", recorder, "ratio"));
    m.push(metric("bench.accounted_ratio", outside / inside, "ratio"));
    m.push(metric("bench.trace_overhead_ratio", traced / dark, "ratio"));
    outcome.samples = vec![
        ("ops".into(), ops.len()),
        ("replay128_traced".into(), n_traced),
        ("replay128_dark".into(), n_dark),
        ("pings".into(), log.pings.len()),
        ("probe_reps".into(), probe::REPS),
    ];
    outcome.metrics = m;
    outcome.spans = spans;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn deck_holds_the_mix_exactly_and_follows_the_seed() {
        let d = deck(1, 0, 2);
        assert_eq!(d.len(), 100);
        for (kind, n) in MIX {
            assert_eq!(d.iter().filter(|(k, _)| *k == kind).count(), n);
        }
        assert_eq!(d.iter().filter(|(_, t)| *t == 0).count(), 51);
        assert_eq!(deck(1, 0, 2), d);
        assert_ne!(deck(2, 0, 2), d);
        assert_ne!(deck(1, 1, 2), d);
    }

    #[test]
    fn latency_clock_starts_at_request_write() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let seen = Instant::now();
            std::thread::sleep(Duration::from_millis(20));
            let replied = Instant::now();
            (&stream).write_all(b"{\"ok\":true}\n").unwrap();
            (line, seen, replied)
        });
        let mut client = Client::connect(addr).unwrap();
        // Time between connecting and sending is not the request's.
        std::thread::sleep(Duration::from_millis(30));
        let before = Instant::now();
        let reply = client.request(r#"{"kind":"ping"}"#).unwrap();
        let (line, seen, replied) = server.join().unwrap();
        assert_eq!(line, "{\"kind\":\"ping\"}\n");
        assert_eq!(reply.line, r#"{"ok":true}"#);
        assert!(before <= reply.sent && reply.sent <= seen);
        assert!(reply.received >= replied);
        assert!(reply.latency_s() >= 0.020);
    }
}
