//! Plan interpreter: executes an enumeration-based plan against real
//! formats through the dynamic cursor API.
//!
//! This gives every synthesized plan an executable semantics without
//! compiling generated source — the integration tests compare it against
//! the dense reference executor. [`crate::emit`] produces the
//! statically-specialized rendering of the same level descriptions the
//! cursors walk (`bernoulli_formats::level`).

use crate::plan::{
    Atom, Dir, ExecStmt, Guard, LevelRef, PExpr, Plan, SearchPart, Step, StepKind, ValueSource,
};
use bernoulli_formats::{Position, SparseView};
use bernoulli_ir::expr::SlotExpr;
use bernoulli_ir::{AffineExpr, LhsRef};
use std::collections::HashMap;

/// Runtime error during plan execution.
#[derive(Clone, Debug, PartialEq)]
pub struct PlanError(pub String);

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "plan execution error: {}", self.0)
    }
}

impl std::error::Error for PlanError {}

/// Execution environment for plans: parameters, dense vectors (owned) and
/// sparse matrices (borrowed through the dynamic low-level API).
#[derive(Default)]
pub struct ExecEnv<'m> {
    pub params: HashMap<String, i64>,
    pub vectors: HashMap<String, Vec<f64>>,
    pub sparse: HashMap<String, &'m dyn SparseView>,
}

impl<'m> ExecEnv<'m> {
    /// Creates an empty environment.
    pub fn new() -> ExecEnv<'m> {
        ExecEnv::default()
    }

    /// Binds a size parameter.
    pub fn set_param(&mut self, name: &str, v: i64) -> &mut Self {
        self.params.insert(name.to_string(), v);
        self
    }

    /// Binds (moves in) a dense vector.
    pub fn bind_vec(&mut self, name: &str, v: Vec<f64>) -> &mut Self {
        self.vectors.insert(name.to_string(), v);
        self
    }

    /// Binds a sparse matrix by reference.
    pub fn bind_sparse(&mut self, name: &str, m: &'m dyn SparseView) -> &mut Self {
        self.sparse.insert(name.to_string(), m);
        self
    }

    /// Removes and returns a vector (typically the output).
    ///
    /// # Panics
    /// Panics if the vector was never bound (or already taken); use
    /// [`ExecEnv::try_take_vec`] to recover instead.
    pub fn take_vec(&mut self, name: &str) -> Vec<f64> {
        match self.try_take_vec(name) {
            Ok(v) => v,
            Err(e) => panic!("{e}"),
        }
    }

    /// Removes and returns a vector, reporting an unbound name as a
    /// [`PlanError`] instead of panicking.
    pub fn try_take_vec(&mut self, name: &str) -> Result<Vec<f64>, PlanError> {
        self.vectors
            .remove(name)
            .ok_or_else(|| PlanError(format!("vector {name:?} not bound")))
    }
}

/// Counters accumulated during interpretation (used by the cost-model
/// validation experiment).
#[derive(Default, Debug, Clone, PartialEq, Eq)]
pub struct RunStats {
    /// Loop iterations across all steps.
    pub iterations: u64,
    /// Searches performed.
    pub searches: u64,
    /// Statement instances executed.
    pub executions: u64,
    /// Guard evaluations that failed.
    pub guard_misses: u64,
}

/// Runs a plan to completion against the environment.
///
/// Names are resolved once, before the first iteration: step slots,
/// parameters and statement bindings are slots of one integer frame,
/// vectors are indices into a table of the bound ones, every reference
/// has its view at hand, tracked positions live in a table indexed by
/// (reference, level). So an unbound name, a reference of the wrong
/// arity or a write to a sparse operand is an error even when the
/// statement would never execute; an index out of range is an error
/// from the statement instance that computes it.
pub fn run_plan(plan: &Plan, env: &mut ExecEnv) -> Result<RunStats, PlanError> {
    let (params, values): (Vec<&str>, Vec<i64>) =
        env.params.iter().map(|(n, v)| (n.as_str(), *v)).unzip();
    let (vector_names, vectors): (Vec<&str>, Vec<&mut [f64]>) = env
        .vectors
        .iter_mut()
        .map(|(n, v)| (n.as_str(), v.as_mut_slice()))
        .unzip();
    let names = Names {
        plan,
        params,
        vectors: vector_names,
        sparse: &env.sparse,
        stride: plan.refs.iter().map(|r| r.levels).max().unwrap_or(0),
    };
    let views = plan.refs.iter().map(|r| names.view(&r.matrix));
    let views = views.collect::<Result<_, _>>()?;
    let code = names.code()?;

    // The frame: the plan's slots, the parameters, then the bindings of
    // whichever statement is executing.
    let mut frame = vec![0; plan.nslots];
    frame.extend(values);
    let bindings = frame.len();
    let most = plan.execs.iter().map(|e| e.bindings.len()).max();
    frame.resize(bindings + most.unwrap_or(0), 0);
    let most = code.steps.iter().flat_map(|s| &s.keys).map(Vec::len).max();
    let mut rt = Runtime {
        plan,
        frame,
        bindings,
        vectors,
        views,
        pos: vec![None; plan.refs.len() * names.stride],
        stride: names.stride,
        missing_at: vec![None; plan.refs.len()],
        keys: Vec::with_capacity(most.unwrap_or(0)),
        stats: RunStats::default(),
    };
    rt.run_step(&code, 0)?;
    Ok(rt.stats)
}

/// The last binding of a name wins.
fn position(names: &[&str], name: &str) -> Option<usize> {
    names.iter().rposition(|n| *n == name)
}

/// The expressions of a plan, resolved against the frame.
struct Code<'a> {
    /// Per step.
    steps: Vec<StepCode>,
    /// Per statement.
    execs: Vec<ExecCode<'a>>,
}

struct StepCode {
    /// `lo` and `hi` of an interval step (0 and 0 of any other).
    bounds: (SlotExpr, SlotExpr),
    /// The key expressions of each of the step's searches.
    keys: Vec<Vec<SlotExpr>>,
}

struct ExecCode<'a> {
    /// The expression of each of the statement's bindings; binding `k`
    /// lands in frame slot `bindings + k`.
    bindings: Vec<SlotExpr>,
    /// The expression of each of its guards.
    guards: Vec<SlotExpr>,
    /// `vectors[to][at] = rhs`, the reads of `rhs` being `reads` in
    /// evaluation order.
    to: usize,
    at: SlotExpr,
    reads: Vec<Read<'a>>,
}

/// A read that knows its source and, by its shape, its arity.
enum Read<'a> {
    /// The stored value at the position tracked in cell `cell`.
    Position {
        view: &'a dyn SparseView,
        chain: usize,
        cell: usize,
    },
    /// Access through the high-level API at (row, column), and what an
    /// error calls it: the "random access" of a sparse reference the
    /// plan does not enumerate, or the "matrix read" of a matrix the
    /// statement reads densely. One index reads column 0.
    Matrix(&'a dyn SparseView, SlotExpr, SlotExpr, &'static str),
    Vector(usize, SlotExpr),
}

/// What names mean while a plan is being resolved.
struct Names<'a> {
    plan: &'a Plan,
    /// Frame slot `plan.nslots + k` holds parameter `k`.
    params: Vec<&'a str>,
    vectors: Vec<&'a str>,
    sparse: &'a HashMap<String, &'a dyn SparseView>,
    /// Cells per reference in the position table: the deepest chain.
    stride: usize,
}

impl<'a> Names<'a> {
    /// `scope` is the parameters, then the statement's bindings so far.
    fn pexpr(&self, scope: &[&str], e: &PExpr) -> Result<SlotExpr, PlanError> {
        e.resolve(|a| match a {
            Atom::Slot(i) if *i < self.plan.nslots => Ok(*i),
            Atom::Slot(i) => Err(PlanError(format!("slot v{i} is not one of the plan's"))),
            Atom::Var(v) => self.var(scope, v),
        })
    }

    fn affine(&self, scope: &[&str], e: &AffineExpr) -> Result<SlotExpr, PlanError> {
        e.resolve(|v| self.var(scope, v))
    }

    fn var(&self, scope: &[&str], v: &str) -> Result<usize, PlanError> {
        position(scope, v)
            .map(|k| self.plan.nslots + k)
            .ok_or_else(|| PlanError(format!("variable {v:?} not bound")))
    }

    fn view(&self, matrix: &str) -> Result<&'a dyn SparseView, PlanError> {
        let view = self.sparse.get(matrix).copied();
        view.ok_or_else(|| PlanError(format!("matrix {matrix:?} not bound")))
    }

    fn code(&self) -> Result<Code<'a>, PlanError> {
        let step = |s: &Step| {
            let key = |(e, _): &(PExpr, _)| self.pexpr(&self.params, e);
            let keys = |sp: &SearchPart| sp.keys.iter().map(key).collect();
            let bounds = match &s.kind {
                StepKind::Interval { lo, hi } => {
                    (self.pexpr(&self.params, lo)?, self.pexpr(&self.params, hi)?)
                }
                _ => Default::default(),
            };
            Ok(StepCode {
                bounds,
                keys: s.searches.iter().map(keys).collect::<Result<_, _>>()?,
            })
        };
        Ok(Code {
            steps: self.plan.steps.iter().map(step).collect::<Result<_, _>>()?,
            execs: (self.plan.execs.iter().map(|e| self.exec(e))).collect::<Result<_, _>>()?,
        })
    }

    fn exec(&self, exec: &'a ExecStmt) -> Result<ExecCode<'a>, PlanError> {
        let mut scope = self.params.clone();
        let mut bindings = Vec::with_capacity(exec.bindings.len());
        for (v, e, _) in &exec.bindings {
            bindings.push(self.pexpr(&scope, e)?);
            scope.push(v);
        }
        let guard = |g: &Guard| match g {
            Guard::Eq(e) | Guard::Ge(e) | Guard::Divides(e, _) => self.pexpr(&scope, e),
        };
        let lhs = &exec.body.lhs;
        let (to, at) = match (exec.sources.first(), lhs.idxs.as_slice()) {
            (Some(Some(_)), _) => {
                return Err(PlanError(
                    "writes to sparse matrices are not supported by the interpreter".to_string(),
                ))
            }
            (_, [i]) => {
                let to = position(&self.vectors, &lhs.array)
                    .ok_or_else(|| PlanError(format!("vector {:?} not bound", lhs.array)))?;
                (to, self.affine(&scope, i)?)
            }
            _ => return Err(PlanError(format!("lhs write {lhs} needs 1 index"))),
        };
        // Accesses are numbered in evaluation order, the write first.
        let reads = exec.body.rhs.reads().into_iter().zip(1..);
        let read = |(r, k): (&LhsRef, usize)| {
            self.read(&scope, r, exec.sources.get(k).and_then(|s| s.as_ref()))
        };
        Ok(ExecCode {
            bindings,
            guards: exec.guards.iter().map(guard).collect::<Result<_, _>>()?,
            to,
            at,
            reads: reads.map(read).collect::<Result<_, _>>()?,
        })
    }

    fn read(
        &self,
        scope: &[&str],
        r: &LhsRef,
        source: Option<&ValueSource>,
    ) -> Result<Read<'a>, PlanError> {
        let matrix = |view, what| match r.idxs.as_slice() {
            [i] => Ok(Read::Matrix(
                view,
                self.affine(scope, i)?,
                SlotExpr::default(),
                what,
            )),
            [i, j] => Ok(Read::Matrix(
                view,
                self.affine(scope, i)?,
                self.affine(scope, j)?,
                what,
            )),
            _ => Err(PlanError(format!("matrix read {r} needs 1 or 2 indices"))),
        };
        let meta = |rid: &usize| {
            let meta = self.plan.refs.get(*rid);
            meta.ok_or_else(|| PlanError(format!("reference {rid} is not one of the plan's")))
        };
        match source {
            Some(ValueSource::Position { ref_id }) => {
                let meta = meta(ref_id)?;
                let Some(innermost) = meta.levels.checked_sub(1) else {
                    return Err(PlanError(format!("reference {ref_id} has no levels")));
                };
                Ok(Read::Position {
                    view: self.view(&meta.matrix)?,
                    chain: meta.chain,
                    cell: ref_id * self.stride + innermost,
                })
            }
            Some(ValueSource::Random { ref_id }) => {
                matrix(self.view(&meta(ref_id)?.matrix)?, "random access")
            }
            // Dense access: a vector, or a matrix no view was bound to.
            None => match (position(&self.vectors, &r.array), r.idxs.as_slice()) {
                (Some(k), [i]) => Ok(Read::Vector(k, self.affine(scope, i)?)),
                (Some(_), _) => Err(PlanError(format!("vector read {r} needs 1 index"))),
                (None, _) => match self.sparse.get(&r.array) {
                    Some(view) => matrix(*view, "matrix read"),
                    None => Err(PlanError(format!("array {:?} not bound", r.array))),
                },
            },
        }
    }
}

struct Runtime<'a> {
    plan: &'a Plan,
    frame: Vec<i64>,
    /// Frame slot of an executing statement's first binding.
    bindings: usize,
    vectors: Vec<&'a mut [f64]>,
    /// The view of each of the plan's references (a `LevelRef` names
    /// the matrix of the reference it is a level of).
    views: Vec<&'a dyn SparseView>,
    /// Cell `ref * stride + level`: the position tracked there.
    pos: Vec<Option<Position>>,
    stride: usize,
    /// per ref: the step index at which its position went missing, if any
    /// (scoped: re-running a step's searches clears misses recorded at
    /// that step or deeper).
    missing_at: Vec<Option<usize>>,
    /// The keys of the search under way (sized for the longest).
    keys: Vec<i64>,
    stats: RunStats,
}

impl Runtime<'_> {
    fn cell(&self, rid: usize, level: usize) -> usize {
        assert!(level < self.stride, "reference {rid} has no level {level}");
        rid * self.stride + level
    }

    /// The position `l` is enumerated or searched beneath.
    fn parent(&self, l: &LevelRef) -> Option<Position> {
        match l.level {
            0 => Some(0),
            _ => self.pos[self.cell(l.ref_id, l.level - 1)],
        }
    }

    fn track(&mut self, (rid, level): (usize, usize), pos: Position) {
        let cell = self.cell(rid, level);
        self.pos[cell] = Some(pos);
    }

    /// Binds a step's slot (never a parameter's or a binding's).
    fn bind(&mut self, slot: usize, v: i64) {
        self.frame[..self.plan.nslots][slot] = v;
    }

    fn run_step(&mut self, code: &Code, si: usize) -> Result<(), PlanError> {
        let plan = self.plan;
        let Some(step) = plan.steps.get(si) else {
            return self.run_execs_at(code, si, true);
        };
        // Misses recorded at this step or deeper are stale leftovers from
        // a previous sibling subtree; only outer-scope misses persist.
        for m in self.missing_at.iter_mut() {
            if matches!(*m, Some(d) if d >= si) {
                *m = None;
            }
        }
        // Hoisted statements placed *before* the deeper enumeration.
        self.run_execs_at(code, si, false)?;
        let rev = step.dir == Dir::Rev;
        match &step.kind {
            StepKind::Interval { .. } => {
                let (lo, hi) = &code.steps[si].bounds;
                let bound = |e| self.eval(e, || format!("a bound of step {si}"));
                let mut range = bound(lo)?..bound(hi)?;
                while let Some(v) = if rev { range.next_back() } else { range.next() } {
                    self.stats.iterations += 1;
                    self.bind(step.first_slot, v);
                    self.do_searches(code, si)?;
                    self.run_step(code, si + 1)?;
                }
            }
            StepKind::Level { primary, perms } => {
                let Some(parent) = self.parent(primary) else {
                    return Err(PlanError(format!(
                        "primary {primary} has no parent position"
                    )));
                };
                if self.missing_at[primary.ref_id].is_some() {
                    // Lowering guarantees this is only reachable when every
                    // statement requires the primary; skipping is sound.
                    return Ok(());
                }
                let view = self.views[primary.ref_id];
                let mut cur = view.cursor(primary.chain, primary.level, parent, rev);
                while view.advance(&mut cur) {
                    self.stats.iterations += 1;
                    for (s, perm) in perms.iter().enumerate() {
                        let raw = cur.keys[s];
                        let value = match perm {
                            Some(_) => view.perm_apply(raw),
                            None => raw,
                        };
                        self.bind(step.first_slot + s, value);
                    }
                    self.track((primary.ref_id, primary.level), cur.pos);
                    for &sharer in &step.sharers {
                        self.track(sharer, cur.pos);
                    }
                    self.do_searches(code, si)?;
                    self.run_step(code, si + 1)?;
                }
            }
            StepKind::MergeJoin { a, b } => {
                let orphan = |l: &LevelRef| PlanError(format!("{l} has no parent position"));
                let pa = self.parent(a).ok_or_else(|| orphan(a))?;
                let pb = self.parent(b).ok_or_else(|| orphan(b))?;
                let (va, vb) = (self.views[a.ref_id], self.views[b.ref_id]);
                let mut ca = va.cursor(a.chain, a.level, pa, false);
                let mut cb = vb.cursor(b.chain, b.level, pb, false);
                let mut have_a = va.advance(&mut ca);
                let mut have_b = vb.advance(&mut cb);
                while have_a && have_b {
                    self.stats.iterations += 1;
                    let ka = ca.keys[0];
                    let kb = cb.keys[0];
                    match ka.cmp(&kb) {
                        std::cmp::Ordering::Less => have_a = va.advance(&mut ca),
                        std::cmp::Ordering::Greater => have_b = vb.advance(&mut cb),
                        std::cmp::Ordering::Equal => {
                            self.bind(step.first_slot, ka);
                            self.track((a.ref_id, a.level), ca.pos);
                            self.track((b.ref_id, b.level), cb.pos);
                            self.do_searches(code, si)?;
                            self.run_step(code, si + 1)?;
                            have_a = va.advance(&mut ca);
                            have_b = vb.advance(&mut cb);
                        }
                    }
                }
            }
        }
        // Hoisted statements placed *after* the deeper enumeration.
        self.run_execs_at(code, si, true)
    }

    fn do_searches(&mut self, code: &Code, si: usize) -> Result<(), PlanError> {
        let plan = self.plan;
        for (sp, keys) in plan.steps[si].searches.iter().zip(&code.steps[si].keys) {
            let rid = sp.target.ref_id;
            // Clear misses recorded at this step or deeper (stale from the
            // previous iteration); keep outer-scope misses.
            if matches!(self.missing_at[rid], Some(m) if m >= si) {
                self.missing_at[rid] = None;
            }
            if self.missing_at[rid].is_some() {
                for &(r2, _) in &sp.sharers {
                    if self.missing_at[r2].is_none() {
                        self.missing_at[r2] = self.missing_at[rid];
                    }
                }
                continue; // missing at an outer step: stays missing
            }
            let Some(parent) = self.parent(&sp.target) else {
                self.missing_at[rid] = Some(si);
                continue;
            };
            let view = self.views[rid];
            self.keys.clear();
            for (e, (_, perm)) in keys.iter().zip(&sp.keys) {
                let v = self.eval(e, || format!("a search key of step {si}"))?;
                self.keys.push(match perm {
                    Some(_) => {
                        if v < 0 || v >= view.nrows() as i64 {
                            self.missing_at[rid] = Some(si);
                            break;
                        }
                        view.perm_unapply(v)
                    }
                    None => v,
                });
            }
            if self.keys.len() != sp.keys.len() {
                continue; // perm range miss already flagged
            }
            self.stats.searches += 1;
            match view.search(sp.target.chain, sp.target.level, parent, &self.keys) {
                Some(p) => {
                    self.track((rid, sp.target.level), p);
                    for &(r2, l2) in &sp.sharers {
                        self.track((r2, l2), p);
                        if matches!(self.missing_at[r2], Some(m) if m >= si) {
                            self.missing_at[r2] = None;
                        }
                    }
                }
                None => {
                    self.missing_at[rid] = Some(si);
                    for &(r2, _) in &sp.sharers {
                        self.missing_at[r2] = Some(si);
                    }
                }
            }
        }
        Ok(())
    }

    /// Runs the statements placed at `depth` with the given after-flag
    /// (full-depth statements run with `after == true` at the innermost
    /// point, where the flag is meaningless).
    fn run_execs_at(&mut self, code: &Code, depth: usize, after: bool) -> Result<(), PlanError> {
        let plan = self.plan;
        for (e, resolved) in plan.execs.iter().zip(&code.execs) {
            if e.depth == depth && (e.after == after || depth == plan.steps.len()) {
                self.run_exec(e, resolved)?;
            }
        }
        Ok(())
    }

    fn run_exec(&mut self, e: &ExecStmt, code: &ExecCode) -> Result<(), PlanError> {
        // Required refs present?
        if e.required_refs
            .iter()
            .any(|&r| self.missing_at[r].is_some())
        {
            return Ok(());
        }
        // Bindings.
        for (k, ((v, _, div), expr)) in e.bindings.iter().zip(&code.bindings).enumerate() {
            let raw = self.eval(expr, || {
                format!("binding {v} of the write to {}", e.body.lhs)
            })?;
            if raw % div != 0 {
                return Ok(());
            }
            self.frame[self.bindings + k] = raw / div;
        }
        // Guards.
        for (g, x) in e.guards.iter().zip(&code.guards) {
            let x = self.eval(x, || format!("a guard of the write to {}", e.body.lhs))?;
            let pass = match g {
                Guard::Eq(_) => x == 0,
                Guard::Ge(_) => x >= 0,
                Guard::Divides(_, d) => x % d == 0,
            };
            if !pass {
                self.stats.guard_misses += 1;
                return Ok(());
            }
        }
        self.stats.executions += 1;

        let mut next = 0;
        let value = e.body.rhs.eval_with(&mut |r| {
            next += 1;
            self.read(r, &code.reads[next - 1])
        })?;
        let lhs = &e.body.lhs;
        let i = self.eval(&code.at, || format!("lhs write {lhs}"))?;
        let v = &mut self.vectors[code.to];
        if i < 0 || i as usize >= v.len() {
            return Err(PlanError(format!("lhs write {lhs} out of range at [{i}]")));
        }
        v[i as usize] = value;
        Ok(())
    }

    /// `e` at the current frame; arithmetic that overflows `i64` is an
    /// error of `what`.
    fn eval(&self, e: &SlotExpr, what: impl FnOnce() -> String) -> Result<i64, PlanError> {
        let overflow = || PlanError(format!("{} overflows", what()));
        e.eval(&self.frame).ok_or_else(overflow)
    }

    fn read(&self, r: &LhsRef, read: &Read) -> Result<f64, PlanError> {
        match read {
            Read::Position { view, chain, cell } => match self.pos[*cell] {
                Some(pos) => Ok(view.value_at(*chain, pos)),
                None => Err(PlanError(format!(
                    "reference {} has no innermost position (read {r})",
                    cell / self.stride
                ))),
            },
            Read::Matrix(m, row, col, what) => {
                let index = |e| self.eval(e, || format!("{what} {r}"));
                let (rr, cc) = (index(row)?, index(col)?);
                if rr < 0 || cc < 0 || rr as usize >= m.nrows() || cc as usize >= m.ncols() {
                    return Err(PlanError(format!("{what} {r} out of range at ({rr},{cc})")));
                }
                Ok(m.get(rr as usize, cc as usize))
            }
            Read::Vector(k, i) => {
                let i = self.eval(i, || format!("vector read {r}"))?;
                let v = &self.vectors[*k];
                if i < 0 || i as usize >= v.len() {
                    return Err(PlanError(format!("vector read {r} out of range at [{i}]")));
                }
                Ok(v[i as usize])
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::best_plan;
    use bernoulli_ir::parse_program;

    /// Affine index arithmetic is checked: past `i64::MAX` it is an
    /// error, not a wrapped (here: empty) loop or a debug-build panic.
    #[test]
    fn index_arithmetic_that_overflows_is_an_error() -> Result<(), crate::SynthError> {
        let run = |src: &str, m: i64| {
            let plan = best_plan(&parse_program(src)?, &[])?;
            let mut env = ExecEnv::new();
            env.set_param("N", i64::MAX - 1).set_param("M", m);
            env.bind_vec("s", vec![0.0]);
            let result = run_plan(&plan, &mut env).map(|_| ()).map_err(|e| e.0);
            Ok::<_, crate::SynthError>((result, env.take_vec("s")))
        };
        let count = "program p(N, M) { inout vector s[1]; for i in N..N + M { s[0] = s[0] + 1; } }";
        let error = |words: &str| Err(words.to_string());
        assert_eq!(run(count, 1)?, (Ok(()), vec![1.0]));
        let m = run(count, 5)?;
        assert_eq!(m, (error("a bound of step 0 overflows"), vec![0.0]));
        let read = count.replace("s[0] + 1", "s[i - N] + s[i + 2]");
        let m = run(&read, 1)?;
        assert_eq!(m, (error("vector read s[i + 2] overflows"), vec![0.0]));
        let write = count.replace("s[0] =", "s[i + 2] =");
        let m = run(&write, 1)?;
        assert_eq!(m, (error("lhs write s[i + 2] overflows"), vec![0.0]));
        Ok(())
    }
}
