//! Expected outputs of the pipeline workloads. They are derived once per
//! input with the frozen [`ReferenceAnalyzer`], outside every timed
//! region, and cached on disk under the input's key.

use reuselens::cache::{report_from_analysis, HierarchyReport, MemoryHierarchy};
use reuselens::core::{
    capture_program, write_profiles, AnalysisResult, ReferenceAnalyzer, ReuseProfile, SavedProfiles,
};
use reuselens::store::crc32;
use reuselens::workloads::BuiltWorkload;
use reuselens_bench::json::{self, Json};
use std::path::Path;

/// Bumped whenever the digest or the cached layout changes.
const FORMAT: &str = "perfbench-reference/v1";

/// An analysis reduced to what the checks compare.
#[derive(Debug, Clone, PartialEq)]
pub struct Outputs {
    /// Per grain, the CRC-32 of the profile's canonical serialization.
    pub digests: Vec<(u64, u32)>,
    /// Per level (caches, then TLB), total predicted misses.
    pub misses: Vec<(String, f64)>,
}

/// What a correct analysis of one input must produce.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    /// Trace events the input captures.
    pub events: u64,
    pub outputs: Outputs,
}

/// CRC-32 of one profile in the `reuselens-profiles v1` text format.
pub fn profile_digest(p: &ReuseProfile) -> u32 {
    let saved = SavedProfiles {
        name: String::new(),
        size: 0.0,
        profiles: vec![p.clone()],
    };
    let mut bytes = Vec::new();
    write_profiles(&saved, &mut bytes).expect("writing to a Vec cannot fail");
    crc32(&bytes)
}

pub fn outputs(profiles: &[ReuseProfile], report: &HierarchyReport) -> Outputs {
    Outputs {
        digests: profiles
            .iter()
            .map(|p| (p.block_size, profile_digest(p)))
            .collect(),
        misses: report
            .levels
            .iter()
            .chain(std::iter::once(&report.tlb))
            .map(|l| (l.level.clone(), l.total))
            .collect(),
    }
}

/// Captures the input and replays it through one [`ReferenceAnalyzer`]
/// per grain (grains in parallel).
pub fn derive(w: &BuiltWorkload, h: &MemoryHierarchy) -> Expected {
    let (buffer, exec) =
        capture_program(&w.program, w.index_arrays.clone()).expect("workload captures");
    let grains = h.required_granularities();
    let profiles: Vec<ReuseProfile> = std::thread::scope(|s| {
        let handles: Vec<_> = grains
            .iter()
            .map(|&g| {
                let (program, buffer) = (&w.program, &buffer);
                s.spawn(move || {
                    let mut analyzer = ReferenceAnalyzer::new(program, g);
                    buffer.replay(&mut analyzer);
                    analyzer.finish()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference replay panicked"))
            .collect()
    });
    let analysis = AnalysisResult { profiles, exec };
    Expected {
        events: buffer.events(),
        outputs: outputs(&analysis.profiles, &report_from_analysis(&analysis, h)),
    }
}

fn to_json(e: &Expected) -> Json {
    Json::Obj(vec![
        ("format".into(), Json::Str(FORMAT.into())),
        ("events".into(), Json::Num(e.events as f64)),
        (
            "digests".into(),
            Json::Arr(
                e.outputs
                    .digests
                    .iter()
                    .map(|&(g, crc)| {
                        Json::Obj(vec![
                            ("grain".into(), Json::Num(g as f64)),
                            ("crc".into(), Json::Num(f64::from(crc))),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "misses".into(),
            Json::Arr(
                e.outputs
                    .misses
                    .iter()
                    .map(|(level, total)| {
                        Json::Obj(vec![
                            ("level".into(), Json::Str(level.clone())),
                            ("total".into(), Json::Num(*total)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn from_json(j: &Json) -> Option<Expected> {
    if j.get("format")?.as_str()? != FORMAT {
        return None;
    }
    let digests = j
        .get("digests")?
        .as_arr()?
        .iter()
        .map(|d| {
            Some((
                d.get("grain")?.as_f64()? as u64,
                d.get("crc")?.as_f64()? as u32,
            ))
        })
        .collect::<Option<Vec<_>>>()?;
    let misses = j
        .get("misses")?
        .as_arr()?
        .iter()
        .map(|m| {
            Some((
                m.get("level")?.as_str()?.to_string(),
                m.get("total")?.as_f64()?,
            ))
        })
        .collect::<Option<Vec<_>>>()?;
    Some(Expected {
        events: j.get("events")?.as_f64()? as u64,
        outputs: Outputs { digests, misses },
    })
}

/// The cached expectation for `key` under `dir`, deriving and caching it
/// on a miss (or when the cached file is unreadable or stale).
pub fn load_or_derive(
    dir: &Path,
    key: &str,
    w: &BuiltWorkload,
    h: &MemoryHierarchy,
) -> std::io::Result<Expected> {
    let path = dir.join(format!("reference-{key}.json"));
    if let Some(e) = std::fs::read_to_string(&path)
        .ok()
        .and_then(|s| json::parse(&s).ok())
        .and_then(|j| from_json(&j))
    {
        return Ok(e);
    }
    let e = derive(w, h);
    std::fs::create_dir_all(dir)?;
    let tmp = dir.join(format!(".reference-{key}.{}.tmp", std::process::id()));
    std::fs::write(&tmp, to_json(&e).render_pretty())?;
    std::fs::rename(&tmp, &path)?;
    Ok(e)
}

/// Compares an analysis's outputs with the expectation.
pub fn check(got: &Outputs, e: &Expected) -> Result<(), String> {
    let want = &e.outputs;
    for &(grain, want) in &want.digests {
        match got.digests.iter().find(|(g, _)| *g == grain) {
            None => return Err(format!("no profile at grain {grain}")),
            Some(&(_, crc)) if crc != want => {
                return Err(format!(
                    "grain {grain}: profile digest {crc:08x}, reference {want:08x}"
                ))
            }
            Some(_) => {}
        }
    }
    if got.misses.len() != want.misses.len() {
        return Err(format!(
            "{} levels predicted, {} expected",
            got.misses.len(),
            want.misses.len()
        ));
    }
    for ((level, total), (want_level, want)) in got.misses.iter().zip(&want.misses) {
        if level != want_level || total.to_bits() != want.to_bits() {
            return Err(format!(
                "{level}: {total} predicted misses, reference {want_level} {want}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expectation_round_trips_through_its_cache_file() {
        let e = Expected {
            events: 123_456_789,
            outputs: Outputs {
                digests: vec![(128, 0xdead_beef), (16384, 7)],
                misses: vec![("L2".into(), 1_234.567_890_123), ("TLB".into(), 0.1 + 0.2)],
            },
        };
        let back = from_json(&json::parse(&to_json(&e).render()).unwrap()).unwrap();
        assert_eq!(back, e);
        assert_eq!(back.outputs.misses[1].1.to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(check(&back.outputs, &e), Ok(()));
    }
}
