//! The trace executor: lowers a [`Program`] into a flat plan and runs it,
//! emitting instrumentation events.
//!
//! Lowering happens once per [`Executor::run`]. Every subscript, loop
//! bound, assignment and predicate operand whose tree is affine becomes
//! `constant + Σ coeff·vars[slot]` (via [`affine_form`]); the rest stay
//! interpreted leaves evaluated by [`Expr::eval`]. Each reference carries
//! its array's extents, byte strides, base and element size, so a bounds
//! check and an address need no allocation and no table lookups.

use crate::event::TraceSink;
use reuselens_ir::{
    affine_form, AccessKind, ArrayId, ArrayKind, EvalCtx, Expr, Pred, Program, RefId, RoutineId,
    ScopeId, Stmt, VarId,
};
use std::cell::OnceCell;
use std::error::Error;
use std::fmt;

/// Maximum dynamic call depth; exceeded depth indicates runaway recursion
/// in a workload model.
const MAX_CALL_DEPTH: usize = 64;

/// Error produced while executing a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecError {
    /// A reference computed subscripts outside its array's extents.
    OutOfBounds {
        /// The offending reference.
        r: RefId,
        /// The evaluated subscripts.
        indices: Vec<i64>,
        /// The array's name.
        array: String,
    },
    /// An indirect load read from an index array whose contents were never
    /// provided via [`Executor::set_index_array`].
    MissingIndexData(ArrayId),
    /// An indirect load's subscripts fell outside the index array.
    IndexOutOfBounds(ArrayId, Vec<i64>),
    /// Dynamic call nesting exceeded the executor's depth limit (64).
    CallDepthExceeded(RoutineId),
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::OutOfBounds { r, indices, array } => {
                write!(f, "{r} accessed {array}{indices:?} out of bounds")
            }
            ExecError::MissingIndexData(a) => {
                write!(f, "index array {a} has no contents; call set_index_array")
            }
            ExecError::IndexOutOfBounds(a, idx) => {
                write!(f, "indirect load from {a}{idx:?} out of bounds")
            }
            ExecError::CallDepthExceeded(r) => {
                write!(f, "call depth exceeded while calling {r}")
            }
        }
    }
}

impl Error for ExecError {}

/// Dynamic per-loop statistics gathered during execution. The paper's
/// static analysis consumes the *average iteration count* of each loop
/// (its step 2 compares reuse-group spans against it).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LoopStats {
    /// How many times the loop was entered.
    pub entries: u64,
    /// Total iterations summed over all entries.
    pub iterations: u64,
}

impl LoopStats {
    /// Average iterations per entry (zero when never entered).
    pub fn average_trip(&self) -> f64 {
        if self.entries == 0 {
            0.0
        } else {
            self.iterations as f64 / self.entries as f64
        }
    }
}

/// Summary returned by [`Executor::run`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExecReport {
    /// Total memory accesses (loads + stores).
    pub accesses: u64,
    /// Loads only.
    pub loads: u64,
    /// Stores only.
    pub stores: u64,
    /// Per-scope loop statistics, indexed by [`ScopeId`]; non-loop scopes
    /// keep entry counts with zero iterations.
    pub loop_stats: Vec<LoopStats>,
}

impl ExecReport {
    /// Stats for one scope.
    pub fn scope_stats(&self, s: ScopeId) -> LoopStats {
        self.loop_stats.get(s.index()).copied().unwrap_or_default()
    }

    /// Average trip count of a loop scope.
    pub fn average_trip(&self, s: ScopeId) -> f64 {
        self.scope_stats(s).average_trip()
    }
}

/// Interprets a [`Program`], emitting one event per memory access and per
/// scope transition into a [`TraceSink`].
///
/// The executor tracks only *integer* state: scalar variables and the
/// contents of index arrays (for indirect addressing). Data arrays exist
/// purely as address ranges.
///
/// # Examples
///
/// ```
/// use reuselens_ir::ProgramBuilder;
/// use reuselens_trace::{Executor, VecSink};
///
/// let mut p = ProgramBuilder::new("stream");
/// let a = p.array("a", 8, &[4]);
/// p.routine("main", |r| {
///     r.for_("i", 0, 3, |r, i| {
///         r.load(a, vec![i.into()]);
///     });
/// });
/// let prog = p.finish();
/// let mut sink = VecSink::new();
/// let report = Executor::new(&prog).run(&mut sink)?;
/// assert_eq!(report.accesses, 4);
/// let base = prog.arrays()[0].base();
/// assert_eq!(sink.addresses(), vec![base, base + 8, base + 16, base + 24]);
/// # Ok::<(), reuselens_trace::ExecError>(())
/// ```
#[derive(Debug)]
pub struct Executor<'p> {
    program: &'p Program,
    vars: Vec<i64>,
    index_data: Vec<Option<Vec<i64>>>,
}

impl<'p> Executor<'p> {
    /// Creates an executor for a program. Index arrays default to all-zero
    /// contents only after [`set_index_array`](Self::set_index_array) or
    /// [`fill_index_array`](Self::fill_index_array); reading an unset index
    /// array is an error, which catches forgotten workload initialization.
    pub fn new(program: &'p Program) -> Executor<'p> {
        Executor {
            program,
            vars: vec![0; program.var_count()],
            index_data: vec![None; program.arrays().len()],
        }
    }

    /// Provides the contents of an index array (flat, layout order).
    ///
    /// # Panics
    ///
    /// Panics if `array` is not an [`ArrayKind::Index`] array or `data` has
    /// the wrong length.
    pub fn set_index_array(&mut self, array: ArrayId, data: Vec<i64>) -> &mut Self {
        let decl = self.program.array(array);
        assert_eq!(
            decl.kind(),
            ArrayKind::Index,
            "{} is not an index array",
            decl.name()
        );
        assert_eq!(
            data.len() as u64,
            decl.len(),
            "index data length mismatch for {}",
            decl.name()
        );
        self.index_data[array.index()] = Some(data);
        self
    }

    /// Fills an index array by evaluating `f(flat_offset)`.
    pub fn fill_index_array(
        &mut self,
        array: ArrayId,
        f: impl FnMut(u64) -> i64,
    ) -> &mut Self {
        let len = self.program.array(array).len();
        let mut f = f;
        self.set_index_array(array, (0..len).map(&mut f).collect())
    }

    /// Runs the program's entry routine to completion.
    ///
    /// # Errors
    ///
    /// Returns the first [`ExecError`] encountered (out-of-bounds access,
    /// missing index data, runaway recursion).
    pub fn run<S: TraceSink>(&mut self, sink: &mut S) -> Result<ExecReport, ExecError> {
        let plan = Plan::lower(self.program);
        let mut report = ExecReport {
            loop_stats: vec![LoopStats::default(); self.program.scopes().len()],
            ..ExecReport::default()
        };
        let mut machine = Machine {
            plan: &plan,
            program: self.program,
            vars: &mut self.vars,
            index_data: &self.index_data,
            fault: OnceCell::new(),
            sink,
            report: &mut report,
        };
        machine.routine(self.program.entry(), 0)?;
        Ok(report)
    }
}

/// A lowered integer expression.
#[derive(Debug)]
enum Val<'p> {
    /// `constant + Σ coeff·vars[slot]`, evaluated with wrapping arithmetic
    /// like [`Expr::eval`].
    Affine {
        constant: i64,
        terms: Box<[(usize, i64)]>,
    },
    /// A tree [`affine_form`] declines (indirect loads, non-constant
    /// division/remainder/min/max, folds that would trap or overflow),
    /// evaluated by walking it.
    Interp(&'p Expr),
}

impl<'p> Val<'p> {
    fn lower(e: &'p Expr) -> Val<'p> {
        match affine_form(e) {
            Some(form) => Val::Affine {
                constant: form.constant,
                terms: form.terms.iter().map(|&(v, c)| (v.index(), c)).collect(),
            },
            None => Val::Interp(e),
        }
    }
}

/// A lowered predicate: the [`Pred`] shape with lowered operands.
#[derive(Debug)]
enum Test<'p> {
    True,
    Cmp(Cmp, Val<'p>, Val<'p>),
    And(Box<Test<'p>>, Box<Test<'p>>),
    Or(Box<Test<'p>>, Box<Test<'p>>),
    Not(Box<Test<'p>>),
}

#[derive(Debug, Clone, Copy)]
enum Cmp {
    Le,
    Lt,
    Ge,
    Gt,
    Eq,
    Ne,
}

impl<'p> Test<'p> {
    fn lower(p: &'p Pred) -> Test<'p> {
        let boxed = |p| Box::new(Test::lower(p));
        let (cmp, a, b) = match p {
            Pred::True => return Test::True,
            Pred::And(a, b) => return Test::And(boxed(a), boxed(b)),
            Pred::Or(a, b) => return Test::Or(boxed(a), boxed(b)),
            Pred::Not(a) => return Test::Not(boxed(a)),
            Pred::Le(a, b) => (Cmp::Le, a, b),
            Pred::Lt(a, b) => (Cmp::Lt, a, b),
            Pred::Ge(a, b) => (Cmp::Ge, a, b),
            Pred::Gt(a, b) => (Cmp::Gt, a, b),
            Pred::Eq(a, b) => (Cmp::Eq, a, b),
            Pred::Ne(a, b) => (Cmp::Ne, a, b),
        };
        Test::Cmp(cmp, Val::lower(a), Val::lower(b))
    }
}

/// A lowered reference: everything its bounds check and address need.
#[derive(Debug)]
struct Access<'p> {
    id: RefId,
    kind: AccessKind,
    elem_size: u32,
    base: u64,
    dims: Box<[Dim<'p>]>,
    /// Subscript count equals the array's rank; when it does not, every
    /// execution is out of bounds, as [`reuselens_ir::ArrayDecl::address`]
    /// would report.
    rank_ok: bool,
}

/// One lowered subscript.
#[derive(Debug)]
struct Dim<'p> {
    sub: Val<'p>,
    extent: u64,
    /// Bytes one unit of this subscript moves the address (layout-aware).
    stride: u64,
}

/// One instruction of the flat plan.
#[derive(Debug)]
enum Op<'p> {
    /// Emits the reference at this index of `Plan::accesses`.
    Access(usize),
    Assign {
        var: usize,
        value: Val<'p>,
    },
    /// Runs ops `pc + 1 .. else_at` when the test holds, else
    /// `else_at .. end`, then continues at `end`.
    If {
        test: Test<'p>,
        else_at: usize,
        end: usize,
    },
    /// Runs ops `pc + 1 .. end` once per iteration, then continues at
    /// `end`.
    Loop {
        scope: ScopeId,
        var: usize,
        step: i64,
        lower: Val<'p>,
        upper: Val<'p>,
        end: usize,
    },
    Call(RoutineId),
}

/// A program lowered for one run: one op array holding every routine
/// body, plus the references the ops emit.
#[derive(Debug)]
struct Plan<'p> {
    ops: Vec<Op<'p>>,
    /// Op range of each routine body, indexed by [`RoutineId`].
    routines: Vec<(usize, usize)>,
    /// Indexed by [`RefId`].
    accesses: Vec<Access<'p>>,
}

impl<'p> Plan<'p> {
    fn lower(program: &'p Program) -> Plan<'p> {
        let accesses = program
            .references()
            .iter()
            .map(|r| {
                let decl = program.array(r.array());
                let dims = r
                    .indices()
                    .iter()
                    .enumerate()
                    .map(|(d, e)| {
                        let (extent, stride) = match decl.dims().get(d) {
                            Some(&extent) => (extent, decl.byte_stride_of_dim(d)),
                            None => (0, 0),
                        };
                        Dim {
                            sub: Val::lower(e),
                            extent,
                            stride,
                        }
                    })
                    .collect();
                Access {
                    id: r.id(),
                    kind: r.kind(),
                    elem_size: decl.elem_size(),
                    base: decl.base(),
                    dims,
                    rank_ok: r.indices().len() == decl.dims().len(),
                }
            })
            .collect();
        let mut plan = Plan {
            ops: Vec::new(),
            routines: Vec::with_capacity(program.routines().len()),
            accesses,
        };
        for rtn in program.routines() {
            let start = plan.ops.len();
            plan.body(rtn.body());
            plan.routines.push((start, plan.ops.len()));
        }
        plan
    }

    fn body(&mut self, body: &'p [Stmt]) {
        for stmt in body {
            match stmt {
                Stmt::Access(r) => self.ops.push(Op::Access(r.index())),
                Stmt::Assign { var, value } => self.ops.push(Op::Assign {
                    var: var.index(),
                    value: Val::lower(value),
                }),
                Stmt::If {
                    cond,
                    then_body,
                    else_body,
                } => {
                    let head = self.ops.len();
                    self.ops.push(Op::If {
                        test: Test::lower(cond),
                        else_at: 0,
                        end: 0,
                    });
                    self.body(then_body);
                    let here = self.ops.len();
                    self.body(else_body);
                    let there = self.ops.len();
                    if let Op::If { else_at, end, .. } = &mut self.ops[head] {
                        (*else_at, *end) = (here, there);
                    }
                }
                Stmt::Call(target) => self.ops.push(Op::Call(*target)),
                Stmt::Loop(l) => {
                    let head = self.ops.len();
                    self.ops.push(Op::Loop {
                        scope: l.scope(),
                        var: l.var().index(),
                        step: l.step(),
                        lower: Val::lower(l.lower()),
                        upper: Val::lower(l.upper()),
                        end: 0,
                    });
                    self.body(l.body());
                    let there = self.ops.len();
                    if let Op::Loop { end, .. } = &mut self.ops[head] {
                        *end = there;
                    }
                }
            }
        }
    }
}

/// The state of one run over a [`Plan`].
///
/// Fault semantics match a tree walk exactly: an indirect-load fault is
/// latched (the load yields 0) and evaluation continues to the end of the
/// statement's expressions, so a later trap still traps; the first
/// latched fault is then returned before the statement has any effect.
/// Every fault ends the run, so the latch is never cleared.
struct Machine<'r, 'p, S> {
    plan: &'r Plan<'p>,
    program: &'p Program,
    vars: &'r mut [i64],
    index_data: &'r [Option<Vec<i64>>],
    /// The first indirect-load fault; later ones are dropped.
    fault: OnceCell<ExecError>,
    sink: &'r mut S,
    report: &'r mut ExecReport,
}

impl<S> EvalCtx for Machine<'_, '_, S> {
    fn var(&self, v: VarId) -> i64 {
        self.vars[v.index()]
    }

    fn load_index(&self, array: ArrayId, indices: &[i64]) -> i64 {
        let decl = self.program.array(array);
        let Some(data) = &self.index_data[array.index()] else {
            let _ = self.fault.set(ExecError::MissingIndexData(array));
            return 0;
        };
        match decl.flat_index(indices) {
            Some(flat) => data[flat as usize],
            None => {
                let _ = self
                    .fault
                    .set(ExecError::IndexOutOfBounds(array, indices.to_vec()));
                0
            }
        }
    }
}

impl<S: TraceSink> Machine<'_, '_, S> {
    fn routine(&mut self, id: RoutineId, depth: usize) -> Result<(), ExecError> {
        if depth >= MAX_CALL_DEPTH {
            return Err(ExecError::CallDepthExceeded(id));
        }
        let scope = self.program.routine(id).scope();
        self.sink.enter(scope);
        self.report.loop_stats[scope.index()].entries += 1;
        let (start, end) = self.plan.routines[id.index()];
        let result = self.ops(start, end, depth);
        self.sink.exit(scope);
        result
    }

    fn ops(&mut self, start: usize, end: usize, depth: usize) -> Result<(), ExecError> {
        let plan = self.plan;
        let mut pc = start;
        while pc < end {
            pc = match &plan.ops[pc] {
                Op::Access(r) => {
                    self.access(&plan.accesses[*r])?;
                    pc + 1
                }
                Op::Assign { var, value } => {
                    let v = self.val(value);
                    self.check_fault()?;
                    self.vars[*var] = v;
                    pc + 1
                }
                Op::If { test, else_at, end } => {
                    let taken = self.test(test);
                    self.check_fault()?;
                    if taken {
                        self.ops(pc + 1, *else_at, depth)?;
                    } else {
                        self.ops(*else_at, *end, depth)?;
                    }
                    *end
                }
                Op::Loop {
                    scope,
                    var,
                    step,
                    lower,
                    upper,
                    end,
                } => {
                    let lower = self.val(lower);
                    self.check_fault()?;
                    let upper = self.val(upper);
                    self.check_fault()?;
                    self.sink.enter(*scope);
                    self.report.loop_stats[scope.index()].entries += 1;
                    let mut v = lower;
                    while (*step > 0 && v <= upper) || (*step < 0 && v >= upper) {
                        self.vars[*var] = v;
                        self.report.loop_stats[scope.index()].iterations += 1;
                        self.ops(pc + 1, *end, depth)?;
                        v += step;
                    }
                    self.sink.exit(*scope);
                    *end
                }
                Op::Call(target) => {
                    self.routine(*target, depth + 1)?;
                    pc + 1
                }
            };
        }
        Ok(())
    }

    #[inline]
    fn access(&mut self, a: &Access<'_>) -> Result<(), ExecError> {
        let mut addr = a.base;
        let mut in_bounds = a.rank_ok;
        // Every subscript is evaluated before any check, as a tree walk
        // evaluates the whole subscript list first.
        for d in a.dims.iter() {
            let idx = self.val(&d.sub);
            in_bounds &= idx >= 0 && (idx as u64) < d.extent;
            addr = addr.wrapping_add((idx as u64).wrapping_mul(d.stride));
        }
        self.check_fault()?;
        if !in_bounds {
            return Err(self.out_of_bounds(a));
        }
        self.report.accesses += 1;
        match a.kind {
            AccessKind::Load => self.report.loads += 1,
            AccessKind::Store => self.report.stores += 1,
        }
        self.sink.access(a.id, addr, a.elem_size, a.kind);
        Ok(())
    }

    /// Re-evaluates the subscripts for the error. Evaluation has no side
    /// effects once it ran fault-free, so the values are the ones that
    /// failed the check.
    #[cold]
    fn out_of_bounds(&self, a: &Access<'_>) -> ExecError {
        let r = self.program.reference(a.id);
        ExecError::OutOfBounds {
            r: a.id,
            indices: a.dims.iter().map(|d| self.val(&d.sub)).collect(),
            array: self.program.array(r.array()).name().to_string(),
        }
    }

    #[inline]
    fn check_fault(&self) -> Result<(), ExecError> {
        match self.fault.get() {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    #[inline]
    fn val(&self, v: &Val<'_>) -> i64 {
        match v {
            Val::Affine { constant, terms } => terms.iter().fold(*constant, |acc, &(slot, c)| {
                acc.wrapping_add(c.wrapping_mul(self.vars[slot]))
            }),
            Val::Interp(e) => e.eval(self),
        }
    }

    fn test(&self, t: &Test<'_>) -> bool {
        match t {
            Test::True => true,
            Test::Cmp(cmp, a, b) => {
                let (a, b) = (self.val(a), self.val(b));
                match cmp {
                    Cmp::Le => a <= b,
                    Cmp::Lt => a < b,
                    Cmp::Ge => a >= b,
                    Cmp::Gt => a > b,
                    Cmp::Eq => a == b,
                    Cmp::Ne => a != b,
                }
            }
            Test::And(a, b) => self.test(a) && self.test(b),
            Test::Or(a, b) => self.test(a) || self.test(b),
            Test::Not(a) => !self.test(a),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, VecSink};
    use reuselens_ir::{Pred, ProgramBuilder};

    #[test]
    fn column_major_inner_loop_is_contiguous() {
        let mut p = ProgramBuilder::new("t");
        let a = p.array("a", 8, &[4, 2]);
        p.routine("main", |r| {
            r.for_("j", 0, 1, |r, j| {
                r.for_("i", 0, 3, |r, i| {
                    r.load(a, vec![i.into(), j.into()]);
                });
            });
        });
        let prog = p.finish();
        let mut sink = VecSink::new();
        let report = Executor::new(&prog).run(&mut sink).unwrap();
        assert_eq!(report.accesses, 8);
        let base = prog.arrays()[0].base();
        let expected: Vec<u64> = (0..8).map(|k| base + k * 8).collect();
        assert_eq!(sink.addresses(), expected);
    }

    #[test]
    fn negative_step_iterates_downward() {
        let mut p = ProgramBuilder::new("t");
        let a = p.array("a", 8, &[4]);
        p.routine("main", |r| {
            r.for_step("i", 3, 0, -1, |r, i| {
                r.load(a, vec![i.into()]);
            });
        });
        let prog = p.finish();
        let mut sink = VecSink::new();
        Executor::new(&prog).run(&mut sink).unwrap();
        let base = prog.arrays()[0].base();
        assert_eq!(
            sink.addresses(),
            vec![base + 24, base + 16, base + 8, base]
        );
    }

    #[test]
    fn scope_events_nest_and_loops_reenter() {
        let mut p = ProgramBuilder::new("t");
        let a = p.array("a", 8, &[4]);
        p.routine("main", |r| {
            r.for_("o", 0, 1, |r, _| {
                r.for_("i", 0, 1, |r, i| {
                    r.load(a, vec![i.into()]);
                });
            });
        });
        let prog = p.finish();
        let mut sink = VecSink::new();
        let report = Executor::new(&prog).run(&mut sink).unwrap();
        let inner = prog.scope_by_name("i").unwrap();
        let enters = sink
            .events
            .iter()
            .filter(|e| matches!(e, Event::Enter(s) if *s == inner))
            .count();
        // Inner loop is entered once per outer iteration.
        assert_eq!(enters, 2);
        assert_eq!(report.scope_stats(inner).entries, 2);
        assert_eq!(report.scope_stats(inner).iterations, 4);
        assert_eq!(report.average_trip(inner), 2.0);
        // Events balance.
        let mut depth = 0i64;
        for e in &sink.events {
            match e {
                Event::Enter(_) => depth += 1,
                Event::Exit(_) => depth -= 1,
                _ => {}
            }
            assert!(depth >= 0);
        }
        assert_eq!(depth, 0);
    }

    #[test]
    fn guards_skip_out_of_range_work() {
        let mut p = ProgramBuilder::new("t");
        let a = p.array("a", 8, &[10]);
        p.routine("main", |r| {
            r.for_("i", 0, 9, |r, i| {
                r.if_(Pred::Lt(Expr::var(i), Expr::c(3)), |r| {
                    r.load(a, vec![i.into()]);
                });
            });
        });
        let prog = p.finish();
        let mut sink = VecSink::new();
        let report = Executor::new(&prog).run(&mut sink).unwrap();
        assert_eq!(report.accesses, 3);
    }

    #[test]
    fn assigned_scalars_feed_subscripts() {
        let mut p = ProgramBuilder::new("t");
        let a = p.array("a", 8, &[16]);
        p.routine("main", |r| {
            r.for_("d", 0, 3, |r, d| {
                let jj = r.let_("jj", Expr::var(d) * 2 + 1);
                r.load(a, vec![jj.into()]);
            });
        });
        let prog = p.finish();
        let mut sink = VecSink::new();
        Executor::new(&prog).run(&mut sink).unwrap();
        let base = prog.arrays()[0].base();
        assert_eq!(
            sink.addresses(),
            vec![base + 8, base + 24, base + 40, base + 56]
        );
    }

    #[test]
    fn indirect_loads_read_index_data() {
        let mut p = ProgramBuilder::new("t");
        let ix = p.index_array("ix", &[4]);
        let a = p.array("a", 8, &[100]);
        p.routine("main", |r| {
            r.for_("i", 0, 3, |r, i| {
                r.load(a, vec![Expr::load(ix, vec![i.into()])]);
            });
        });
        let prog = p.finish();
        let mut exec = Executor::new(&prog);
        exec.set_index_array(ix, vec![7, 3, 99, 0]);
        let mut sink = VecSink::new();
        exec.run(&mut sink).unwrap();
        let base = prog.array(a).base();
        assert_eq!(
            sink.addresses(),
            vec![base + 7 * 8, base + 3 * 8, base + 99 * 8, base]
        );
    }

    #[test]
    fn missing_index_data_errors() {
        let mut p = ProgramBuilder::new("t");
        let ix = p.index_array("ix", &[4]);
        let a = p.array("a", 8, &[100]);
        p.routine("main", |r| {
            r.load(a, vec![Expr::load(ix, vec![Expr::c(0)])]);
        });
        let prog = p.finish();
        let err = Executor::new(&prog).run(&mut VecSink::new()).unwrap_err();
        assert!(matches!(err, ExecError::MissingIndexData(_)));
    }

    #[test]
    fn out_of_bounds_is_reported_with_indices() {
        let mut p = ProgramBuilder::new("t");
        let a = p.array("a", 8, &[4]);
        p.routine("main", |r| {
            r.load(a, vec![Expr::c(4)]);
        });
        let prog = p.finish();
        let err = Executor::new(&prog).run(&mut VecSink::new()).unwrap_err();
        match err {
            ExecError::OutOfBounds { indices, array, .. } => {
                assert_eq!(indices, vec![4]);
                assert_eq!(array, "a");
            }
            other => panic!("unexpected error {other}"),
        }
    }

    #[test]
    fn calls_enter_callee_scope() {
        let mut p = ProgramBuilder::new("t");
        let a = p.array("a", 8, &[4]);
        let callee = p.declare_routine("callee");
        let main = p.routine("main", |r| {
            r.for_("t", 0, 1, |r, _| {
                r.call(callee);
            });
        });
        p.define_routine(callee, |r| {
            r.load(a, vec![Expr::c(0)]);
        });
        p.set_entry(main);
        let prog = p.finish();
        let mut sink = VecSink::new();
        Executor::new(&prog).run(&mut sink).unwrap();
        let callee_scope = prog.routine(callee).scope();
        let enters = sink
            .events
            .iter()
            .filter(|e| matches!(e, Event::Enter(s) if *s == callee_scope))
            .count();
        assert_eq!(enters, 2);
    }

    #[test]
    fn runaway_recursion_is_caught() {
        let mut p = ProgramBuilder::new("t");
        let rec = p.declare_routine("rec");
        p.define_routine(rec, |r| {
            r.call(rec);
        });
        p.set_entry(rec);
        let prog = p.finish();
        let err = Executor::new(&prog).run(&mut VecSink::new()).unwrap_err();
        assert!(matches!(err, ExecError::CallDepthExceeded(_)));
    }

    #[test]
    fn empty_range_loop_body_never_runs() {
        let mut p = ProgramBuilder::new("t");
        let a = p.array("a", 8, &[4]);
        p.routine("main", |r| {
            r.for_("i", 5, 2, |r, i| {
                r.load(a, vec![Expr::var(i)]);
            });
        });
        let prog = p.finish();
        let mut sink = VecSink::new();
        let report = Executor::new(&prog).run(&mut sink).unwrap();
        assert_eq!(report.accesses, 0);
        let scope = prog.scope_by_name("i").unwrap();
        assert_eq!(report.scope_stats(scope).entries, 1);
        assert_eq!(report.scope_stats(scope).iterations, 0);
    }
}
