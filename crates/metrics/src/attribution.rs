//! Attribution of predicted misses to scopes, arrays, and reuse patterns.
//!
//! For every memory level the paper computes, per scope: traditional
//! (exclusive/inclusive) miss counts, the number of misses *carried* by the
//! scope, and breakdowns by the reuse source scope; per array: total misses,
//! fragmentation misses, and irregular misses.

use reuselens_cache::LevelPrediction;
use reuselens_core::{PatternKey, ReuseProfile};
use reuselens_ir::{ArrayId, Program, RefId, ScopeId};
use reuselens_static::StaticAnalysis;

/// One row of the flat reuse-pattern database: a pattern with its predicted
/// misses and static classification.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternRow {
    /// The pattern identity (sink, source scope, carrier).
    pub key: PatternKey,
    /// Number of reuse arcs measured.
    pub count: u64,
    /// Predicted misses at this level.
    pub misses: f64,
    /// Misses attributed to cache-line fragmentation (`misses ×
    /// fragmentation factor` of the sink's related group).
    pub frag_misses: f64,
    /// True when the carrying scope drives the sink with an irregular or
    /// indirect stride.
    pub irregular: bool,
    /// Constant byte stride of the sink with respect to the carrying loop
    /// (`Some(0)` = the sink re-touches identical locations each carrier
    /// iteration; `None` = the carrier is not an enclosing loop or the
    /// stride is not constant).
    pub carrier_stride: Option<i64>,
    /// The array the sink accesses.
    pub array: ArrayId,
}

/// All attribution metrics for one memory level.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelMetrics {
    /// Level name (`"L2"`, `"L3"`, `"TLB"`).
    pub level: String,
    /// Total predicted misses (cold included).
    pub total_misses: f64,
    /// Compulsory misses.
    pub cold_misses: u64,
    /// Exclusive misses per scope (sink-scope attribution), indexed by
    /// [`ScopeId`]. Cold misses count toward their reference's scope.
    pub exclusive: Vec<f64>,
    /// Inclusive misses per scope (exclusive summed over the static
    /// subtree).
    pub inclusive: Vec<f64>,
    /// Misses *carried* per scope (patterns whose carrying scope is this
    /// scope; cold misses are not carried by anything).
    pub carried: Vec<f64>,
    /// Misses per array (cold included).
    pub by_array: Vec<f64>,
    /// Fragmentation misses per array.
    pub frag_by_array: Vec<f64>,
    /// Irregular-pattern misses per array.
    pub irregular_by_array: Vec<f64>,
    /// The flat pattern database, sorted by misses, descending.
    pub patterns: Vec<PatternRow>,
}

impl LevelMetrics {
    /// Computes every metric for one level from the profile it was
    /// predicted on plus the static analysis.
    ///
    /// # Panics
    ///
    /// Panics if `prediction` and `profile` disagree on pattern count
    /// (they must come from the same analysis).
    pub fn compute(
        program: &Program,
        prediction: &LevelPrediction,
        profile: &ReuseProfile,
        sa: &StaticAnalysis,
    ) -> LevelMetrics {
        assert_eq!(
            prediction.per_pattern.len(),
            profile.patterns.len(),
            "prediction and profile must come from the same analysis"
        );
        let nscopes = program.scopes().len();
        let narrays = program.arrays().len();
        let mut exclusive = vec![0.0; nscopes];
        let mut carried = vec![0.0; nscopes];
        let mut by_array = vec![0.0; narrays];
        let mut frag_by_array = vec![0.0; narrays];
        let mut irregular_by_array = vec![0.0; narrays];
        let mut patterns = Vec::with_capacity(profile.patterns.len());

        // Cold misses: attributed to the sink's scope and array. A cold
        // miss on a fragmented line still fetched mostly-unused bytes, so
        // it contributes to the array's fragmentation misses too.
        for (idx, &cold) in profile.cold.iter().enumerate() {
            if cold == 0 {
                continue;
            }
            let rid = RefId(idx as u32);
            let r = program.reference(rid);
            exclusive[r.scope().index()] += cold as f64;
            by_array[r.array().index()] += cold as f64;
            if let Some(f) = sa.fragmentation_of(rid) {
                frag_by_array[r.array().index()] += cold as f64 * f;
            }
        }

        for ((key, misses), pat) in prediction.per_pattern.iter().zip(&profile.patterns) {
            debug_assert_eq!(*key, pat.key);
            let sink = program.reference(key.sink);
            let array = sink.array();
            exclusive[sink.scope().index()] += misses;
            carried[key.carrier.index()] += misses;
            by_array[array.index()] += misses;
            let frag = sa
                .fragmentation_of(key.sink)
                .map(|f| misses * f)
                .unwrap_or(0.0);
            frag_by_array[array.index()] += frag;
            let irregular = sa.is_irregular_pattern(key.sink, key.carrier);
            if irregular {
                irregular_by_array[array.index()] += misses;
            }
            let carrier_stride = sa.formulas[key.sink.index()]
                .stride_at(key.carrier)
                .and_then(reuselens_ir::Stride::constant);
            patterns.push(PatternRow {
                key: *key,
                count: pat.count(),
                misses: *misses,
                frag_misses: frag,
                irregular,
                carrier_stride,
                array,
            });
        }

        patterns.sort_by(|a, b| b.misses.total_cmp(&a.misses));

        // Inclusive = exclusive summed over the static subtree.
        let mut inclusive = vec![0.0; nscopes];
        for scope in program.scopes() {
            let x = exclusive[scope.id().index()];
            if x == 0.0 {
                continue;
            }
            for anc in program.ancestors(scope.id()) {
                inclusive[anc.index()] += x;
            }
        }

        LevelMetrics {
            level: prediction.level.clone(),
            total_misses: prediction.total,
            cold_misses: prediction.cold,
            exclusive,
            inclusive,
            carried,
            by_array,
            frag_by_array,
            irregular_by_array,
            patterns,
        }
    }

    /// Scopes sorted by carried misses, descending, with their share of all
    /// misses (the paper's Fig. 5 / Fig. 10 view).
    pub fn top_carriers(&self) -> Vec<(ScopeId, f64, f64)> {
        let mut rows: Vec<(ScopeId, f64, f64)> = self
            .carried
            .iter()
            .enumerate()
            .filter(|(_, &m)| m > 0.0)
            .map(|(i, &m)| {
                (
                    ScopeId(i as u32),
                    m,
                    if self.total_misses > 0.0 {
                        m / self.total_misses
                    } else {
                        0.0
                    },
                )
            })
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }

    /// Arrays sorted by fragmentation misses, descending (Fig. 9 view):
    /// `(array, fragmentation misses, total misses on that array)`.
    pub fn top_fragmented_arrays(&self) -> Vec<(ArrayId, f64, f64)> {
        let mut rows: Vec<(ArrayId, f64, f64)> = self
            .frag_by_array
            .iter()
            .enumerate()
            .filter(|(_, &m)| m > 0.0)
            .map(|(i, &m)| (ArrayId(i as u32), m, self.by_array[i]))
            .collect();
        rows.sort_by(|a, b| b.1.total_cmp(&a.1));
        rows
    }

    /// Breakdown of one array's misses by `(source scope, carrier)`
    /// (Table II view), sorted by misses descending. Cold misses are
    /// reported separately by [`Self::cold_misses`].
    pub fn array_breakdown(&self, array: ArrayId) -> Vec<(ScopeId, ScopeId, f64)> {
        let mut rows: Vec<(ScopeId, ScopeId, f64)> = self
            .patterns
            .iter()
            .filter(|p| p.array == array)
            .map(|p| (p.key.source_scope, p.key.carrier, p.misses))
            .collect();
        rows.sort_by(|a, b| b.2.total_cmp(&a.2));
        rows
    }

    /// Total misses attributed to irregular patterns.
    pub fn total_irregular(&self) -> f64 {
        self.irregular_by_array.iter().sum()
    }

    /// Total fragmentation misses.
    pub fn total_fragmentation(&self) -> f64 {
        self.frag_by_array.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use reuselens_cache::{predict_level, Assoc, CacheConfig};
    use reuselens_core::{analyze_program_with, AnalyzeOptions};
    use reuselens_ir::ProgramBuilder;
    use reuselens_trace::{Executor, NullSink};

    /// Two sweeps over an array bigger than a tiny cache: the repeat loop
    /// carries all capacity misses.
    fn setup() -> (reuselens_ir::Program, LevelMetrics) {
        let n = 4096u64;
        let mut p = ProgramBuilder::new("t");
        let a = p.array("a", 8, &[n]);
        p.routine("main", |r| {
            r.for_("t", 0, 1, |r, _| {
                r.for_("i", 0, (n - 1) as i64, |r, i| {
                    r.load(a, vec![i.into()]);
                });
            });
        });
        let prog = p.finish();
        let analysis =
            analyze_program_with(&prog, &[64], vec![], &AnalyzeOptions::default()).unwrap();
        let cfg = CacheConfig::new("L2", 64 * 64, 64, Assoc::Full);
        let pred = predict_level(analysis.profile_at(64).unwrap(), &cfg);
        let exec = Executor::new(&prog).run(&mut NullSink).unwrap();
        let sa = StaticAnalysis::analyze(&prog, &exec);
        let metrics = LevelMetrics::compute(&prog, &pred, analysis.profile_at(64).unwrap(), &sa);
        (prog, metrics)
    }

    #[test]
    fn carried_misses_attribute_to_the_repeat_loop() {
        let (prog, m) = setup();
        let t = prog.scope_by_name("t").unwrap();
        let lines = 4096 * 8 / 64;
        // Sweep 2 misses every line; those reuses are carried by t.
        assert!((m.carried[t.index()] - lines as f64).abs() < 1.0);
        let top = m.top_carriers();
        assert_eq!(top[0].0, t);
        assert!(top[0].2 > 0.4 && top[0].2 < 0.6); // ~half of all misses
    }

    #[test]
    fn exclusive_and_inclusive_nest() {
        let (prog, m) = setup();
        let i = prog.scope_by_name("i").unwrap();
        let t = prog.scope_by_name("t").unwrap();
        let main_scope = prog.routine(prog.entry()).scope();
        // All sinks are in the i loop.
        assert!(m.exclusive[i.index()] > 0.0);
        assert_eq!(m.exclusive[t.index()], 0.0);
        // Inclusive propagates upward.
        assert!((m.inclusive[t.index()] - m.exclusive[i.index()]).abs() < 1e-9);
        assert!((m.inclusive[main_scope.index()] - m.inclusive[t.index()]).abs() < 1e-9);
        assert!(
            (m.inclusive[ScopeId::ROOT.index()] - m.total_misses).abs() < 1e-9,
            "root inclusive {} != total {}",
            m.inclusive[ScopeId::ROOT.index()],
            m.total_misses
        );
    }

    #[test]
    fn unit_stride_sweep_has_no_fragmentation_or_irregular_misses() {
        let (_, m) = setup();
        assert_eq!(m.total_fragmentation(), 0.0);
        assert_eq!(m.total_irregular(), 0.0);
        assert!(m.top_fragmented_arrays().is_empty());
    }

    #[test]
    fn by_array_accounts_for_every_miss() {
        let (_, m) = setup();
        let sum: f64 = m.by_array.iter().sum();
        assert!((sum - m.total_misses).abs() < 1e-9);
        let rows = m.array_breakdown(ArrayId(0));
        let pattern_sum: f64 = rows.iter().map(|r| r.2).sum();
        assert!((pattern_sum + m.cold_misses as f64 - m.total_misses).abs() < 1e-9);
    }
}
