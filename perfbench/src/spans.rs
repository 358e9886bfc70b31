//! Outside-in spans: the benchmark opens one around each call it makes
//! into a crate's public functions, keeps them in memory, and writes them
//! out when the run ends. A layer's self time is its span's duration minus
//! the part of that interval its child spans cover.

use reuselens_bench::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: String,
    /// The run (pipeline iteration) or daemon job the span belongs to.
    pub run: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An open span; close it with [`Tracer::close`].
#[derive(Debug)]
pub struct Open {
    pub id: u64,
    parent: Option<u64>,
    name: String,
    /// May be rewritten before closing, e.g. once a daemon names the job.
    pub run: String,
    start_ns: u64,
}

/// In-memory span collector. A disabled tracer records nothing, so the
/// untraced runs pay one branch per call site.
#[derive(Debug)]
pub struct Tracer {
    on: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    pub fn open(&self, name: &str, parent: Option<u64>, run: &str) -> Open {
        Open {
            id: self.next.fetch_add(1, Ordering::Relaxed),
            parent,
            name: name.to_string(),
            run: run.to_string(),
            start_ns: self.now_ns(),
        }
    }

    /// Closes `open` and returns its duration in seconds.
    pub fn close(&self, open: Open) -> f64 {
        let end_ns = self.now_ns();
        let secs = (end_ns - open.start_ns) as f64 * 1e-9;
        if self.on {
            self.spans
                .lock()
                .expect("span list poisoned by a panic")
                .push(Span {
                    id: open.id,
                    parent: open.parent,
                    name: open.name,
                    run: open.run,
                    start_ns: open.start_ns,
                    end_ns,
                });
        }
        secs
    }

    /// Runs `f` inside a span; `f` receives the span id for its children.
    pub fn time<T>(
        &self,
        name: &str,
        parent: Option<u64>,
        run: &str,
        f: impl FnOnce(u64) -> T,
    ) -> (T, f64) {
        let open = self.open(name, parent, run);
        let out = f(open.id);
        (out, self.close(open))
    }

    pub fn take(&self) -> Vec<Span> {
        let mut spans =
            std::mem::take(&mut *self.spans.lock().expect("span list poisoned by a panic"));
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Self time of every span, in seconds, keyed by span id: its duration
/// minus the union of its children's intervals clipped to its own.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, f64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|v| {
                    v.iter()
                        .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.id, (s.end_ns - s.start_ns - covered) as f64 * 1e-9)
        })
        .collect()
}

/// Self times grouped by span name, in seconds, in span start order.
pub fn self_times_by_name(spans: &[Span]) -> BTreeMap<String, Vec<f64>> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for s in spans {
        out.entry(s.name.clone()).or_default().push(selfs[&s.id]);
    }
    out
}

/// The spans as JSON lines, one object per span with its self time.
pub fn to_jsonl(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    for s in spans {
        let line = Json::Obj(vec![
            ("id".into(), Json::Num(s.id as f64)),
            (
                "parent".into(),
                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("name".into(), Json::Str(s.name.clone())),
            ("run".into(), Json::Str(s.run.clone())),
            ("start_ns".into(), Json::Num(s.start_ns as f64)),
            ("end_ns".into(), Json::Num(s.end_ns as f64)),
            ("self_s".into(), Json::Num(selfs[&s.id])),
        ]);
        out.push_str(&line.render());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            run: "run-0".into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // root [0,100): children overlap on [30,40) (two threads) and one
        // leaks past the parent's end, so the covered part is [10,70) ∪
        // [90,100) = 70 ns and the root keeps 30 ns.
        let spans = vec![
            span(1, None, "root", 0, 100),
            span(2, Some(1), "a", 10, 40),
            span(3, Some(1), "b", 30, 70),
            span(4, Some(1), "c", 90, 120),
            span(5, Some(2), "a.inner", 15, 25),
            span(6, None, "other", 200, 260),
        ];
        let selfs = self_times(&spans);
        let ns = |id: u64| (selfs[&id] * 1e9).round() as u64;
        assert_eq!(ns(1), 30);
        assert_eq!(ns(2), 20);
        assert_eq!(ns(3), 40);
        assert_eq!(ns(4), 30);
        assert_eq!(ns(5), 10);
        assert_eq!(ns(6), 60);
        let by_name = self_times_by_name(&spans);
        assert_eq!(by_name.len(), 6);
        assert_eq!((by_name["root"][0] * 1e9).round() as u64, 30);
    }

    #[test]
    fn disabled_tracer_keeps_nothing_but_still_times() {
        let t = Tracer::new(false);
        let ((), secs) = t.time("x", None, "run-0", |_| {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        assert!(secs >= 0.002);
        assert!(t.take().is_empty());
        let t = Tracer::new(true);
        let (_, _) = t.time("outer", None, "run-0", |id| {
            t.time("inner", Some(id), "run-0", |_| ())
        });
        let spans = t.take();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(to_jsonl(&spans).lines().count(), 2);
    }
}
