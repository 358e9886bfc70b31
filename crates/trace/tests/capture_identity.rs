//! Lowered capture against a tree-walking reference.
//!
//! [`Executor::run`] lowers each program into a flat plan of affine forms
//! and interpreted leaves before running it. This suite keeps a copy of
//! the tree-walking interpreter that plan replaced ([`Oracle`], test-local
//! on purpose: the library has one execution path) and requires, on seeded
//! random programs and on every workload model, byte-equal exported
//! traces, equal [`ExecReport`]s and equal [`ExecError`]s, including the
//! events emitted before a fault. Every capture must also pass
//! [`TraceBuffer::validate`], and the encoder-side [`TraceBuffer::seal`]
//! must agree with it.

use reuselens_ir::{
    ArrayId, ArrayKind, BodyBuilder, EvalCtx, Expr, Layout, Pred, Program, ProgramBuilder, RefId,
    RoutineId, ScopeId, Stmt, VarId,
};
use reuselens_prng::SplitMix64;
use reuselens_trace::{
    DecodeError, ExecError, ExecReport, Executor, LoopStats, TraceBuffer, TraceSink,
};
use reuselens_workloads::gtc::{self, GtcConfig, GtcTransforms};
use reuselens_workloads::sweep3d::{self, SweepConfig};
use reuselens_workloads::BuiltWorkload;
use std::cell::RefCell;

const MAX_CALL_DEPTH: usize = 64;

/// The tree-walking executor: every subscript, bound, assignment and
/// predicate is evaluated by walking its [`Expr`] tree each time it runs.
struct Oracle<'p> {
    program: &'p Program,
    vars: Vec<i64>,
    index_data: Vec<Option<Vec<i64>>>,
}

struct Ctx<'a> {
    vars: &'a [i64],
    index_data: &'a [Option<Vec<i64>>],
    program: &'a Program,
    fault: RefCell<Option<ExecError>>,
}

impl EvalCtx for Ctx<'_> {
    fn var(&self, v: VarId) -> i64 {
        self.vars[v.index()]
    }

    fn load_index(&self, array: ArrayId, indices: &[i64]) -> i64 {
        let decl = self.program.array(array);
        let Some(data) = &self.index_data[array.index()] else {
            self.latch(ExecError::MissingIndexData(array));
            return 0;
        };
        match decl.flat_index(indices) {
            Some(flat) => data[flat as usize],
            None => {
                self.latch(ExecError::IndexOutOfBounds(array, indices.to_vec()));
                0
            }
        }
    }
}

impl Ctx<'_> {
    fn latch(&self, e: ExecError) {
        let mut slot = self.fault.borrow_mut();
        if slot.is_none() {
            *slot = Some(e);
        }
    }

    fn take_fault(&self) -> Result<(), ExecError> {
        match self.fault.borrow_mut().take() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }
}

impl<'p> Oracle<'p> {
    fn new(program: &'p Program, index: &[(ArrayId, Vec<i64>)]) -> Oracle<'p> {
        let mut index_data = vec![None; program.arrays().len()];
        for (a, data) in index {
            index_data[a.index()] = Some(data.clone());
        }
        Oracle {
            program,
            vars: vec![0; program.var_count()],
            index_data,
        }
    }

    fn run<S: TraceSink>(&mut self, sink: &mut S) -> Result<ExecReport, ExecError> {
        let mut report = ExecReport {
            loop_stats: vec![LoopStats::default(); self.program.scopes().len()],
            ..ExecReport::default()
        };
        self.run_routine(self.program.entry(), sink, &mut report, 0)?;
        Ok(report)
    }

    fn run_routine<S: TraceSink>(
        &mut self,
        id: RoutineId,
        sink: &mut S,
        report: &mut ExecReport,
        depth: usize,
    ) -> Result<(), ExecError> {
        if depth >= MAX_CALL_DEPTH {
            return Err(ExecError::CallDepthExceeded(id));
        }
        let rtn = self.program.routine(id);
        let scope = rtn.scope();
        sink.enter(scope);
        report.loop_stats[scope.index()].entries += 1;
        let result = self.run_body(rtn.body(), sink, report, depth);
        sink.exit(scope);
        result
    }

    fn run_body<S: TraceSink>(
        &mut self,
        body: &[Stmt],
        sink: &mut S,
        report: &mut ExecReport,
        depth: usize,
    ) -> Result<(), ExecError> {
        for stmt in body {
            match stmt {
                Stmt::Access(rid) => self.run_access(*rid, sink, report)?,
                Stmt::Assign { var, value } => {
                    let v = self.eval(value)?;
                    self.vars[var.index()] = v;
                }
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let taken = {
                        let ctx = self.ctx();
                        let t = cond.eval(&ctx);
                        ctx.take_fault()?;
                        t
                    };
                    if taken {
                        self.run_body(then_body, sink, report, depth)?;
                    } else {
                        self.run_body(else_body, sink, report, depth)?;
                    }
                }
                Stmt::Call(target) => self.run_routine(*target, sink, report, depth + 1)?,
                Stmt::Loop(l) => {
                    let lower = self.eval(l.lower())?;
                    let upper = self.eval(l.upper())?;
                    let step = l.step();
                    let scope = l.scope();
                    sink.enter(scope);
                    report.loop_stats[scope.index()].entries += 1;
                    let mut v = lower;
                    while (step > 0 && v <= upper) || (step < 0 && v >= upper) {
                        self.vars[l.var().index()] = v;
                        report.loop_stats[scope.index()].iterations += 1;
                        self.run_body(l.body(), sink, report, depth)?;
                        v += step;
                    }
                    sink.exit(scope);
                }
            }
        }
        Ok(())
    }

    fn run_access<S: TraceSink>(
        &mut self,
        rid: RefId,
        sink: &mut S,
        report: &mut ExecReport,
    ) -> Result<(), ExecError> {
        let r = self.program.reference(rid);
        let decl = self.program.array(r.array());
        let mut indices = Vec::with_capacity(r.indices().len());
        {
            let ctx = self.ctx();
            for e in r.indices() {
                indices.push(e.eval(&ctx));
            }
            ctx.take_fault()?;
        }
        let Some(addr) = decl.address(&indices) else {
            return Err(ExecError::OutOfBounds {
                r: rid,
                indices,
                array: decl.name().to_string(),
            });
        };
        report.accesses += 1;
        match r.kind() {
            reuselens_ir::AccessKind::Load => report.loads += 1,
            reuselens_ir::AccessKind::Store => report.stores += 1,
        }
        sink.access(rid, addr, decl.elem_size(), r.kind());
        Ok(())
    }

    fn eval(&self, e: &Expr) -> Result<i64, ExecError> {
        let ctx = self.ctx();
        let v = e.eval(&ctx);
        ctx.take_fault()?;
        Ok(v)
    }

    fn ctx(&self) -> Ctx<'_> {
        Ctx {
            vars: &self.vars,
            index_data: &self.index_data,
            program: self.program,
            fault: RefCell::new(None),
        }
    }
}

/// Runs `program` through the oracle and the executor twice each (the
/// second run starts from the scalar state the first left, as a reused
/// executor does), and requires identical results and byte-identical
/// exported traces, plus a seal that agrees with `validate` on every
/// capture. Returns the executor's first result.
fn assert_identical(
    name: &str,
    program: &Program,
    index: &[(ArrayId, Vec<i64>)],
) -> Result<ExecReport, ExecError> {
    let mut oracle = Oracle::new(program, index);
    let mut exec = Executor::new(program);
    for (a, data) in index {
        exec.set_index_array(*a, data.clone());
    }
    let mut first = None;
    for round in 0..2 {
        let mut want_buf = TraceBuffer::new();
        let want = oracle.run(&mut want_buf);
        let mut got_buf = TraceBuffer::new();
        let got = exec.run(&mut got_buf);
        assert_eq!(got, want, "{name} round {round}: result differs");
        assert!(
            got_buf.export() == want_buf.export(),
            "{name} round {round}: exported trace differs"
        );
        let validated = got_buf.validate();
        if got.is_ok() {
            assert_eq!(
                validated,
                Ok(()),
                "{name} round {round}: capture fails validate"
            );
        }
        assert_eq!(
            got_buf.seal(),
            validated,
            "{name} round {round}: seal disagrees with validate"
        );
        first.get_or_insert(got);
    }
    first.unwrap()
}

/// Every loop variable and scalar the generator creates stays in `0..N`;
/// data-array extents are at least `2 * N`, so the subscript shapes below
/// are in bounds by construction unless a fault is injected on purpose.
const N: i64 = 6;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fault {
    None,
    OutOfBounds,
    IndexOutOfBounds,
    MissingIndexData,
    CallDepth,
}

struct Gen {
    rng: SplitMix64,
    fault: Fault,
    data: Vec<(ArrayId, usize)>,
    /// Rank-1 index array of length `N` holding values in `0..N`.
    ix_small: ArrayId,
    /// `N × 2` index array holding values in `0..2N`.
    ix_wide: ArrayId,
    /// Index array whose contents are never provided.
    ix_missing: ArrayId,
    routines: Vec<RoutineId>,
}

impl Gen {
    fn below(&mut self, n: u64) -> u64 {
        self.rng.gen_range(0..n)
    }

    fn chance(&mut self, one_in: u64) -> bool {
        self.below(one_in) == 0
    }

    fn pick(&mut self, vars: &[VarId]) -> Expr {
        if vars.is_empty() {
            Expr::c(self.below(N as u64) as i64)
        } else {
            Expr::var(vars[self.below(vars.len() as u64) as usize])
        }
    }

    /// An expression whose value is in `0..N`.
    fn small(&mut self, vars: &[VarId]) -> Expr {
        let v = self.pick(vars);
        let w = self.pick(vars);
        match self.below(12) {
            0 => Expr::c(self.below(N as u64) as i64),
            1 | 2 => v,
            3 => Expr::c(N - 1) - v,
            4 => (v + w).div(2),
            5 => v.min(w),
            6 => v.max(w),
            7 => (v * 3 + self.below(5) as i64).rem(N),
            8 => (v * 2 + w).rem(N),
            9 => self.load_small(vars),
            // Constant folds (with cancelling terms) that lower to `v`.
            10 => Expr::c(4 * N).div(4) - Expr::c(N) + v,
            _ => Expr::c(N + 1).rem(N) * v + Expr::c(-3).max(0) + (w.clone() - w),
        }
    }

    fn load_small(&mut self, vars: &[VarId]) -> Expr {
        let mut sub = self.pick(vars);
        if self.fault == Fault::IndexOutOfBounds && self.chance(4) {
            sub = sub + N;
        }
        if self.fault == Fault::MissingIndexData && self.chance(4) {
            return Expr::load(self.ix_missing, vec![sub]);
        }
        Expr::load(self.ix_small, vec![sub])
    }

    /// A subscript in `0..2N` for a data array.
    fn subscript(&mut self, vars: &[VarId]) -> Expr {
        let e = match self.below(8) {
            0 | 1 => self.pick(vars),
            2 => self.pick(vars) + self.pick(vars),
            3 => self.pick(vars) * 2 + 1,
            4 => self.pick(vars) + self.below(N as u64 + 1) as i64,
            5 => {
                let row = self.small(vars);
                let col = Expr::c(self.below(2) as i64);
                Expr::load(self.ix_wide, vec![row, col])
            }
            _ => self.small(vars),
        };
        if !self.chance(10) {
            return e;
        }
        match self.fault {
            Fault::OutOfBounds => e + 2 * N,
            // The faulting load yields 0, so only the fault can fail it.
            Fault::IndexOutOfBounds => e + Expr::load(self.ix_small, vec![self.pick(vars) + N]),
            Fault::MissingIndexData => e + Expr::load(self.ix_missing, vec![self.pick(vars)]),
            _ => e,
        }
    }

    fn pred(&mut self, vars: &[VarId], depth: usize) -> Pred {
        let (a, b) = (self.small(vars), self.small(vars));
        match self.below(if depth > 1 { 6 } else { 10 }) {
            0 => Pred::Le(a, b),
            1 => Pred::Lt(a, b),
            2 => Pred::Ge(a, b),
            3 => Pred::Gt(a, b),
            4 => Pred::Eq(a, b),
            5 => Pred::Ne(a, b),
            6 => self.pred(vars, depth + 1).and(self.pred(vars, depth + 1)),
            7 => self.pred(vars, depth + 1).or(self.pred(vars, depth + 1)),
            8 => Pred::Not(Box::new(self.pred(vars, depth + 1))),
            _ => Pred::True,
        }
    }

    fn access(&mut self, r: &mut BodyBuilder<'_>, vars: &[VarId]) {
        let k = self.below(self.data.len() as u64) as usize;
        let (array, rank) = self.data[k];
        let mut subs: Vec<Expr> = (0..rank).map(|_| self.subscript(vars)).collect();
        if self.fault == Fault::OutOfBounds && self.chance(30) {
            // A subscript count that differs from the rank is out of
            // bounds on every execution.
            if self.chance(2) {
                subs.pop();
            } else {
                subs.push(Expr::c(0));
            }
        }
        if self.chance(3) {
            r.store(array, subs);
        } else {
            r.load(array, subs);
        }
    }

    /// One statement list; `loops_left` bounds the nest depth below here.
    fn body(
        &mut self,
        r: &mut BodyBuilder<'_>,
        vars: &mut Vec<VarId>,
        me: usize,
        loops_left: usize,
    ) {
        let scoped = vars.len();
        for _ in 0..2 + self.below(5) {
            match self.below(20) {
                0..=6 => self.access(r, vars),
                7..=12 if loops_left > 0 => {
                    let (lower, upper, step) = match self.below(5) {
                        0 => (self.small(vars), Expr::c(N - 1), 1),
                        1 => (Expr::c(0), self.small(vars), 2),
                        2 => (Expr::c(N - 1), self.small(vars), -1),
                        3 => (self.small(vars), Expr::c(0), -2),
                        // Often empty: lower above upper.
                        _ => (self.small(vars), self.small(vars), 1),
                    };
                    let name = format!("l{}", vars.len());
                    r.for_step(&name, lower, upper, step, |r, v| {
                        vars.push(v);
                        self.body(r, vars, me, loops_left - 1);
                        vars.pop();
                    });
                }
                13 | 14 => {
                    let cond = self.pred(vars, 0);
                    if self.chance(2) {
                        r.if_(cond, |r| {
                            self.body(r, vars, me, loops_left.saturating_sub(1))
                        });
                    } else {
                        // Both branch closures exist at once, so they
                        // share the generator through a cell.
                        let shared = RefCell::new((&mut *self, &mut *vars));
                        let branch = |r: &mut BodyBuilder<'_>| {
                            let (g, vars) = &mut *shared.borrow_mut();
                            g.body(r, vars, me, loops_left.saturating_sub(1));
                        };
                        r.if_else(cond, branch, branch);
                    }
                }
                15 | 16 => {
                    let value = self.small(vars);
                    if !vars.is_empty() && self.chance(3) {
                        // Reassigning a loop variable inside its own body
                        // must not disturb the loop's own counter.
                        let target = vars[self.below(vars.len() as u64) as usize];
                        r.set(target, value);
                    } else {
                        let v = r.let_("t", value);
                        vars.push(v);
                    }
                }
                17 if me + 1 < self.routines.len() => {
                    let callee =
                        me + 1 + self.below((self.routines.len() - me - 1) as u64) as usize;
                    r.call(self.routines[callee]);
                }
                18 => {
                    // A constant divide-by-zero in code that never runs: it
                    // must neither be folded at lowering nor trap.
                    let array = self.data[0].0;
                    let rank = self.data[0].1;
                    let mut subs = vec![Expr::c(1).div(0)];
                    subs.extend((1..rank).map(|_| Expr::c(0)));
                    r.if_(Pred::Lt(Expr::c(1), Expr::c(0)), |r| {
                        let z = r.let_("z", Expr::c(5).rem(0));
                        r.load(array, subs);
                        r.store(array, vec![Expr::var(z); rank]);
                    });
                }
                _ => self.access(r, vars),
            }
        }
        if self.fault == Fault::CallDepth && self.chance(4) {
            r.call(self.routines[me]);
        }
        vars.truncate(scoped);
    }
}

fn random_program(seed: u64) -> (Program, Vec<(ArrayId, Vec<i64>)>, Fault) {
    let mut rng = SplitMix64::seed_from_u64(seed);
    let fault = match rng.gen_range(0..10) {
        0 => Fault::OutOfBounds,
        1 => Fault::IndexOutOfBounds,
        2 => Fault::MissingIndexData,
        3 => Fault::CallDepth,
        _ => Fault::None,
    };
    let mut p = ProgramBuilder::new(format!("random{seed}"));
    let layout = |rng: &mut SplitMix64| {
        if rng.gen_range(0..2) == 0 {
            Layout::ColumnMajor
        } else {
            Layout::RowMajor
        }
    };
    let mut data = Vec::new();
    for k in 0..=rng.gen_range(0..3) {
        let rank = 1 + rng.gen_range(0..3) as usize;
        let dims: Vec<u64> = (0..rank)
            .map(|_| 2 * N as u64 + rng.gen_range(0..4))
            .collect();
        let elem = [4, 8, 16][rng.gen_range(0..3) as usize];
        let l = layout(&mut rng);
        data.push((
            p.array_with(format!("a{k}"), elem, &dims, l, ArrayKind::Data),
            rank,
        ));
    }
    let ix_small = p.index_array("ix_small", &[N as u64]);
    let l = layout(&mut rng);
    let ix_wide = p.array_with("ix_wide", 8, &[N as u64, 2], l, ArrayKind::Index);
    let ix_missing = p.index_array("ix_missing", &[N as u64]);
    let index = vec![
        (
            ix_small,
            (0..N).map(|_| rng.gen_range(0..N as u64) as i64).collect(),
        ),
        (
            ix_wide,
            (0..2 * N)
                .map(|_| rng.gen_range(0..2 * N as u64) as i64)
                .collect(),
        ),
    ];
    let routines: Vec<RoutineId> = (0..=rng.gen_range(0..3))
        .map(|k| p.declare_routine(format!("r{k}")))
        .collect();
    let mut g = Gen {
        rng,
        fault,
        data,
        ix_small,
        ix_wide,
        ix_missing,
        routines: routines.clone(),
    };
    for (k, &rtn) in routines.iter().enumerate() {
        // The entry nests loops three deep, callees two deep, so a chain
        // of calls inside loops stays at thousands of events.
        let loops = if k == 0 { 3 } else { 2 };
        p.define_routine(rtn, |r| g.body(r, &mut Vec::new(), k, loops));
    }
    p.set_entry(routines[0]);
    (p.finish(), index, fault)
}

#[test]
fn lowered_executor_matches_the_tree_walk_on_random_programs() {
    let mut outcomes = [0usize; 5];
    let mut events = 0u64;
    for seed in 0..400 {
        let (program, index, planned) = random_program(seed);
        let outcome = assert_identical(program.name(), &program, &index);
        let kind = match &outcome {
            Ok(report) => {
                events += report.accesses;
                0
            }
            Err(ExecError::OutOfBounds { .. }) => 1,
            Err(ExecError::IndexOutOfBounds(..)) => 2,
            Err(ExecError::MissingIndexData(_)) => 3,
            Err(ExecError::CallDepthExceeded(_)) => 4,
        };
        if kind != 0 {
            assert_ne!(
                planned,
                Fault::None,
                "seed {seed}: unplanned fault {outcome:?}"
            );
        }
        outcomes[kind] += 1;
    }
    // The generator must reach every outcome, and most programs must run
    // to completion so the comparison covers real traces.
    assert!(outcomes.iter().all(|&n| n > 0), "outcomes {outcomes:?}");
    assert!(outcomes[0] >= 200, "outcomes {outcomes:?}");
    assert!(events > 100_000, "only {events} accesses compared");
    eprintln!("outcomes {outcomes:?}, {events} accesses");
}

#[test]
fn lowered_executor_matches_the_tree_walk_on_sweep3d_variants() {
    let variants = [
        ("base", SweepConfig::new(8)),
        ("mi_block", SweepConfig::new(8).with_mi_block(3)),
        (
            "dim_interchange",
            SweepConfig::new(8).with_dim_interchange(),
        ),
        (
            "mi_block+dim_interchange",
            SweepConfig::new(6).with_mi_block(2).with_dim_interchange(),
        ),
        ("octant_inner", SweepConfig::new(8).with_octant_inner()),
    ];
    for (name, cfg) in variants {
        let w = sweep3d::build(&cfg.with_octants(8));
        let report = assert_identical(name, &w.program, &w.index_arrays)
            .unwrap_or_else(|e| panic!("sweep3d {name}: {e}"));
        assert!(report.accesses > 0);
    }
}

#[test]
fn lowered_executor_matches_the_tree_walk_on_gtc() {
    let mut runs: Vec<(String, BuiltWorkload)> = (0..=6)
        .map(|n| {
            let cfg = GtcConfig::new(64, 4).with_transforms(GtcTransforms::cumulative(n));
            (format!("gtc cumulative({n})"), gtc::build(&cfg))
        })
        .collect();
    let mut seeded = GtcConfig::new(128, 8).with_timesteps(2);
    seeded.seed = 90210;
    runs.push(("gtc seed 90210".into(), gtc::build(&seeded)));
    for (name, w) in runs {
        let report = assert_identical(&name, &w.program, &w.index_arrays)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(report.accesses > 0);
    }
}

#[test]
fn seal_trips_on_a_mismatched_exit() {
    let mut buf = TraceBuffer::new();
    buf.enter(ScopeId(1));
    buf.enter(ScopeId(2));
    buf.exit(ScopeId(1));
    buf.exit(ScopeId(2));
    let want = Err(DecodeError::UnbalancedExit {
        event: 2,
        scope: 1,
        expected: Some(2),
    });
    assert_eq!(buf.seal(), want);
    assert_eq!(buf.validate(), want);

    // An exit with nothing open is latched too, and later balanced
    // traffic does not clear the first mismatch.
    let mut buf = TraceBuffer::new();
    buf.exit(ScopeId(3));
    buf.enter(ScopeId(1));
    buf.exit(ScopeId(1));
    let want = Err(DecodeError::UnbalancedExit {
        event: 0,
        scope: 3,
        expected: None,
    });
    assert_eq!(buf.seal(), want);
    assert_eq!(buf.validate(), want);
}

#[test]
fn seal_trips_on_an_unclosed_scope() {
    let mut buf = TraceBuffer::new();
    buf.enter(ScopeId(1));
    buf.enter(ScopeId(2));
    buf.exit(ScopeId(2));
    let want = Err(DecodeError::UnclosedScopes { depth: 1 });
    assert_eq!(buf.seal(), want);
    assert_eq!(buf.validate(), want);
    buf.exit(ScopeId(1));
    assert_eq!(buf.seal(), Ok(()));
    assert_eq!(buf.validate(), Ok(()));
    // An imported image was validated whole; its seal is clean.
    let imported = TraceBuffer::import(buf.export()).expect("valid image");
    assert_eq!(imported.seal(), Ok(()));
}
