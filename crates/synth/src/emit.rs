//! Rust source emission: specializing a plan for concrete formats.
//!
//! This is the analogue of the paper's compiler-instantiated C++
//! (Fig. 9): the plan's enumerations become loops over the format
//! structs' public fields, searches become calls to the formats' `find`
//! helpers or inline binary searches, and statement bodies become plain
//! scalar Rust. The generated functions are monomorphic — the moral
//! equivalent of the paper's Barton–Nackman compile-time dispatch — and
//! are what the benchmark harness measures.
//!
//! The one emitted dialect has no panic path: a function returns
//! `Option<()>` and every checked index is `*a.get(i)?`, so an operand
//! whose index arrays point outside another operand makes it return
//! `None` early — which is what lets the kernel crate of
//! [`crate::compiled`] be `#![no_std]` and link no panic runtime.
//!
//! The emitted text depends only on the plan and the program, so
//! generated kernels can be committed (see `bernoulli-blas`'s `synth`
//! module) and checked against regeneration in CI.

use crate::plan::{
    Atom, Dir, Edge, ExecStmt, Guard, LevelRef, OffEdge, PExpr, Plan, StepKind, ValueSource,
};
use bernoulli_formats::layout::{levels_of_view, Block, Elem};
use bernoulli_formats::level::{Args, Arr, Base, Bound, Dim, Kind, Level, Levels, Locate, SlotAt};
use bernoulli_formats::view::{FormatView, Order};
use bernoulli_ir::{ArrayKind, LhsRef, Program, Role, ValueExpr};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// Emission failure: the plan uses a runtime feature with no static
/// template (fall back to the interpreter).
#[derive(Clone, Debug, PartialEq)]
pub struct EmitError(pub String);

impl std::fmt::Display for EmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "emission failed: {}", self.0)
    }
}

impl std::error::Error for EmitError {}

/// How the view of this name is walked (`bernoulli_formats::level`),
/// and the block shape the name carries: everything the emitter knows
/// about a format.
fn described(view_name: &str) -> Result<(&'static Levels, Option<Block>), EmitError> {
    levels_of_view(view_name)
        .ok_or_else(|| EmitError(format!("no level description for view {view_name:?}")))
}

/// The Rust type of a view's operand.
fn rust_type(view_name: &str) -> Result<String, EmitError> {
    Ok(format!("{}<f64>", described(view_name)?.0.type_name))
}

/// One level of a bound operand, as the templates read it: the
/// operand's local, its description, and the position above.
struct Site {
    m: String,
    levels: &'static Levels,
    block: Option<Block>,
    level: &'static Level,
    parent: String,
}

impl Site {
    fn dim(&self, d: Dim) -> String {
        format!("{}.{}", self.m, self.levels.dim(d))
    }

    fn array(&self, a: Arr) -> String {
        format!("{}.{}", self.m, self.levels.array(a))
    }

    /// The checked read of entry `i` of an array.
    fn get(&self, a: Arr, i: &str) -> String {
        format!("*{}.get({i})?", self.array(a))
    }

    /// A read of an index array as a key: `usize` arrays are cast.
    fn key(&self, a: Arr, read: String) -> String {
        match self.levels.elem(a) {
            Elem::Usize => format!("{read} as i64"),
            Elem::I64 | Elem::F64 => read,
        }
    }

    /// An interval level's two ends as `i64` expressions, and the
    /// position of `key` within it; `at(name, array)` is the array's
    /// entry at the parent, however the caller reads it. `None` for
    /// ends no format has.
    fn interval(
        &self,
        (lo, hi, base): (Bound, Bound, Base),
        key: &str,
        mut at: impl FnMut(&str, Arr) -> String,
    ) -> Option<(String, String, String)> {
        let parent = &self.parent;
        let (lo, offset) = match lo {
            Bound::Zero => ("0".to_string(), format!("{key} as usize")),
            Bound::At(a) => {
                let lo = at("lo__", a);
                let offset = match self.levels.elem(a) {
                    Elem::I64 => format!("({key} - {lo}) as usize"),
                    _ => format!("({key} as usize - {lo})"),
                };
                (self.key(a, lo), offset)
            }
            Bound::Extent(_) | Bound::Next => return None,
        };
        let hi = match hi {
            Bound::Extent(d) => format!("{} as i64", self.dim(d)),
            Bound::At(a) => self.key(a, at("hi__", a)),
            Bound::Next => format!("{parent} as i64 + 1"),
            Bound::Zero => return None,
        };
        let pos = match base {
            Base::Identity => offset,
            Base::Stride(d) => format!("{parent} * {} + {offset}", self.dim(d)),
            Base::Ptr(a) => format!("{} + {offset}", at("base__", a)),
        };
        Some((lo, hi, pos))
    }
}

struct Emitter<'a> {
    p: &'a Program,
    plan: &'a Plan,
    views: &'a HashMap<String, FormatView>,
    /// matrix name -> local variable name in the generated fn
    mat_var: HashMap<String, String>,
    out: String,
    indent: usize,
    /// Scalar replacement: a dense-vector element promoted to a register
    /// across the innermost step (array, index expr, register name).
    promotion: Option<Promotion>,
    /// Edge splitting of the innermost enumeration, when proved.
    split: Option<Rc<EdgeSplit>>,
    /// Set while the split's main loop body is being emitted.
    in_main: bool,
    /// Set when the body used the `ix` unchecked-read helper, so the
    /// helper definition is spliced into the function prologue.
    uses_ix: std::cell::Cell<bool>,
    /// Emit the outermost row enumeration over `row_lo__..row_hi__`
    /// parameters instead of `0..nrows` (the range-splittable entry the
    /// parallel lane dispatches chunks through).
    ranged: bool,
}

/// The unchecked-read helper spliced into functions that index
/// format-owned arrays on the hot path: the indices are in bounds by
/// format validity (checked in debug builds), and removing the release
/// bounds checks is what lets LLVM vectorize the ELL/DIA inner loops.
///
/// It is the one read the `?` dialect does not check, so a kernel is
/// memory-safe only on valid instances of its formats (`values` as long
/// as `colind`, …); reads and writes of the other operands (`x`, `y`)
/// are checked. Checking these too was measured on `stream_small`:
/// +2–38 % per call (mvm/csc 12.1 → 16.7 µs). Validating operands once,
/// where they enter, is ROADMAP item 4 and still open.
const IX_HELPER: &str = "    /// Read of a format-owned array: in bounds by format validity\n    /// (debug-checked), branch-free in release so inner loops vectorize.\n    #[inline(always)]\n    fn ix<T: Copy>(s: &[T], i: usize) -> T {\n        debug_assert!(i < s.len());\n        unsafe { *s.get_unchecked(i) }\n    }\n";

/// A proved-safe register promotion of `vec[idx]` across the innermost
/// enumeration (the classical scalar replacement the hand-written NIST
/// kernels perform with a temporary accumulator).
#[derive(Clone, Debug)]
struct Promotion {
    array: String,
    /// Index expression over outer-step slots and parameters.
    idx: PExpr,
    reg: String,
    /// Deferred pivot division: the exec index whose `acc = acc / X` is
    /// moved after the inner loop (capturing `X` in a register at its
    /// original firing point). Sound because its `Eq` guard fires at most
    /// once per inner enumeration (strictly increasing slot) and every
    /// other statement is proved to fire strictly earlier.
    deferred_div: Option<usize>,
}

/// Substitutes an exec's (divisor-free) bindings into an affine index,
/// yielding a PExpr over slots and parameters, or `None` when a variable
/// is unbound or divisor-bound.
fn subst_index(e: &ExecStmt, idx: &bernoulli_ir::AffineExpr, params: &[String]) -> Option<PExpr> {
    let mut out = PExpr::constant(idx.cst());
    for (v, c) in idx.terms() {
        if params.iter().any(|q| q == v) {
            out.add_term(Atom::Var(v.to_string()), c);
            continue;
        }
        let (pe, d) = e
            .bindings
            .iter()
            .find(|(bv, _, _)| bv == v)
            .map(|(_, pe, d)| (pe, d))?;
        if *d != 1 {
            return None;
        }
        for (a, cc) in &pe.terms {
            out.add_term(a.clone(), c * cc);
        }
        out.cst += c * pe.cst;
    }
    Some(out)
}

/// Does one of the exec's guards prove `diff != 0`? True when a `Ge`
/// guard states `diff - k >= 0` with `k >= 1`, or `-diff - k >= 0` with
/// `k >= 1` (i.e. `diff <= -1` or `diff >= 1`).
fn guards_prove_nonzero(e: &ExecStmt, diff: &PExpr) -> bool {
    e.guards.iter().any(|g| {
        let Guard::Ge(x) = g else { return false };
        // x == diff + c with c <= -1  (diff >= -c >= 1)
        let mut d1 = x.minus(diff);
        d1.cst = 0;
        let matches_pos = d1.terms.is_empty() && (x.cst - diff.cst) <= -1;
        // x == -diff + c with c <= -1 (diff <= c <= -1)
        let nd = diff.negated();
        let mut d2 = x.minus(&nd);
        d2.cst = 0;
        let matches_neg = d2.terms.is_empty() && (x.cst - nd.cst) <= -1;
        matches_pos || matches_neg
    })
}

/// Are two guards provably disjoint (at most one can hold)?
/// Recognizes the `Eq(a)` vs `Ge(-a-1)` / `Ge(a-1)` patterns and the
/// `Ge(a)` vs `Ge(-a-1)` pattern produced by complementary regions.
fn guards_disjoint(g1: &Guard, g2: &Guard) -> bool {
    let neg_minus1 = |x: &PExpr| {
        let mut n = x.negated();
        n.cst -= 1;
        n
    };
    let minus1 = |x: &PExpr| {
        let mut n = x.clone();
        n.cst -= 1;
        n
    };
    match (g1, g2) {
        (Guard::Eq(a), Guard::Ge(b)) | (Guard::Ge(b), Guard::Eq(a)) => {
            b.same_as(&neg_minus1(a)) || b.same_as(&minus1(a))
        }
        (Guard::Ge(a), Guard::Ge(b)) => b.same_as(&neg_minus1(a)),
        _ => false,
    }
}

/// Looks for a safe promotion across the innermost step.
fn find_promotion(p: &Program, plan: &Plan) -> Option<Promotion> {
    let nsteps = plan.steps.len();
    if nsteps == 0 {
        return None;
    }
    let last = &plan.steps[nsteps - 1];
    let last_slots: Vec<usize> = (last.first_slot..last.first_slot + last.nslots).collect();
    let inner: Vec<&ExecStmt> = plan.execs.iter().filter(|e| e.depth == nsteps).collect();
    if inner.is_empty() || inner.len() != plan.execs.len() {
        // Hoisted statements might touch the same element; stay
        // conservative.
        return None;
    }
    // All inner execs must write the same dense vector at the same index.
    let mut target: Option<(String, PExpr)> = None;
    for e in &inner {
        if e.sources[0].is_some() {
            return None; // sparse write
        }
        if e.bindings.iter().any(|(_, _, d)| *d != 1)
            || e.guards
                .iter()
                .find(|g| matches!(g, Guard::Divides(..)))
                .is_some()
        {
            return None;
        }
        let idx = subst_index(e, &e.body.lhs.idxs[0], &p.params)?;
        if idx
            .terms
            .iter()
            .any(|(a, _)| matches!(a, Atom::Slot(sl) if last_slots.contains(sl)))
        {
            return None; // write target varies across the inner loop
        }
        match &target {
            None => target = Some((e.body.lhs.array.clone(), idx)),
            Some((arr, prev)) => {
                if *arr != e.body.lhs.array || !prev.same_as(&idx) {
                    return None;
                }
            }
        }
    }
    let (array, idx) = target?;
    // Every read of the target array must be the same element or provably
    // different.
    for e in &inner {
        for r in e.body.rhs.reads() {
            if r.array != array {
                continue;
            }
            let ridx = subst_index(e, &r.idxs[0], &p.params)?;
            if ridx.same_as(&idx) {
                continue;
            }
            let diff = ridx.minus(&idx);
            if !guards_prove_nonzero(e, &diff) {
                return None;
            }
        }
    }
    let deferred_div = find_deferred_div(plan, &inner, &array, &idx, p);
    Some(Promotion {
        array,
        idx,
        reg: "acc__".to_string(),
        deferred_div,
    })
}

/// Finds a division statement `acc = acc / X` whose execution can be
/// deferred past the inner loop (the pivot-capture transformation the
/// hand-written triangular solves perform):
///
/// - its only guard is `Eq(g)` where `g` has a ±1 coefficient on exactly
///   one slot of the innermost step (so, with increasing enumeration, it
///   fires at most once per inner loop);
/// - every other full-depth statement carries a `Ge` guard placing it
///   strictly on the "earlier" side of that firing point;
/// - `X` does not read the promoted element.
fn find_deferred_div(
    plan: &Plan,
    inner: &[&ExecStmt],
    array: &str,
    idx: &PExpr,
    p: &Program,
) -> Option<usize> {
    let nsteps = plan.steps.len();
    let last = &plan.steps[nsteps - 1];
    if !last.ordered {
        return None;
    }
    let last_slots: Vec<usize> = (last.first_slot..last.first_slot + last.nslots).collect();

    // Identify the division candidate.
    let mut div_at: Option<(usize, PExpr)> = None; // (exec idx in plan order, normalized g)
    for e in inner.iter() {
        let is_div = matches!(&e.body.rhs, ValueExpr::Div(a, _)
            if matches!(a.as_ref(), ValueExpr::Read(r)
                if r.array == array
                   && subst_index(e, &r.idxs[0], &p.params).is_some_and(|ri| ri.same_as(idx))));
        if !is_div {
            continue;
        }
        if e.guards.len() != 1 {
            return None;
        }
        let Guard::Eq(g) = &e.guards[0] else {
            return None;
        };
        // The divisor must not read the promoted element.
        if let ValueExpr::Div(_, b) = &e.body.rhs {
            for r in b.reads() {
                if r.array == array {
                    if let Some(ri) = subst_index(e, &r.idxs[0], &p.params) {
                        if ri.same_as(idx) {
                            return None;
                        }
                    } else {
                        return None;
                    }
                }
            }
        }
        // Exactly one inner slot with coefficient ±1; normalize to +1.
        let inner_terms: Vec<(&Atom, i64)> = g
            .terms
            .iter()
            .filter(|(a, _)| matches!(a, Atom::Slot(sl) if last_slots.contains(sl)))
            .map(|(a, c)| (a, *c))
            .collect();
        if inner_terms.len() != 1 || inner_terms[0].1.abs() != 1 {
            return None;
        }
        let gn = if inner_terms[0].1 == -1 {
            g.negated()
        } else {
            g.clone()
        };
        if div_at.is_some() {
            return None; // at most one division statement
        }
        let pos = plan
            .execs
            .iter()
            .position(|x| x.stmt == e.stmt)
            .unwrap_or(usize::MAX);
        div_at = Some((pos, gn));
    }
    let (div_idx, gn) = div_at?;

    // Every other inner exec fires strictly before the division's point:
    // it must carry the guard `-g - 1 >= 0` (value < firing point).
    let before = {
        let mut b = gn.negated();
        b.cst -= 1;
        b
    };
    for (k, e) in plan.execs.iter().enumerate() {
        if k == div_idx || e.depth != nsteps {
            continue;
        }
        if !e
            .guards
            .iter()
            .any(|g| matches!(g, Guard::Ge(h) if h.same_as(&before)))
        {
            return None;
        }
    }
    Some(div_idx)
}

/// Edge splitting of an ordered innermost enumeration under a proved
/// [`EdgeBound`](crate::plan::EdgeBound): every position but the edge
/// one lies strictly beyond the pivot, so there the guards the bound
/// decides need no evaluation. The enumeration is emitted as a *main*
/// loop over all positions but the edge one — `slot == pivot` statements
/// absent, strict guards dropped — plus the edge position with the
/// unsplit body. Same statements on the same entries in the same order,
/// so results are bitwise those of the unsplit loop (which the
/// interpreter keeps executing).
#[derive(Clone, Debug)]
struct EdgeSplit {
    edge: Edge,
    /// The full-depth statements of the main loop, decided guards
    /// removed.
    main: Vec<ExecStmt>,
    /// Reads of a vector the main loop writes, at an index the inner
    /// slot does not move and the dropped guards prove different from
    /// every write: bound once before the main loop.
    invariants: Vec<InvariantRead>,
}

#[derive(Clone, Debug)]
struct InvariantRead {
    stmt: usize,
    /// Access index of the read within its statement.
    access: usize,
    array: String,
    idx: PExpr,
}

/// Was (ref, level) positioned by a search (may miss) rather than an
/// enumeration?
fn level_searched(plan: &Plan, rid: usize, lev: usize) -> bool {
    plan.steps.iter().flat_map(|s| &s.searches).any(|sp| {
        (sp.target.ref_id == rid && sp.target.level == lev) || sp.sharers.contains(&(rid, lev))
    })
}

/// The searched levels of a statement's required refs: it executes only
/// where all of them were found (enumerated levels cannot miss).
fn presence_levels(plan: &Plan, e: &ExecStmt) -> Vec<(usize, usize)> {
    e.required_refs
        .iter()
        .flat_map(|&rid| (0..plan.refs[rid].levels).map(move |lev| (rid, lev)))
        .filter(|&(rid, lev)| level_searched(plan, rid, lev))
        .collect()
}

/// Looks for an edge split of the innermost step: lowering proved the
/// step's bound (`edge_bound`), and every full-depth statement carries a
/// guard the bound decides.
fn find_edge_split(p: &Program, plan: &Plan) -> Option<EdgeSplit> {
    let nsteps = plan.steps.len();
    let last = plan.steps.last()?;
    let bound = last.edge_bound.as_ref()?;
    let slot = last.first_slot;
    // The main loop's statements: as emitted there, and as lowered.
    let (mut main, mut lowered): (Vec<ExecStmt>, Vec<&ExecStmt>) = (Vec::new(), Vec::new());
    for e in plan.execs.iter().filter(|e| e.depth == nsteps) {
        let decided = |g: &Guard| bound.off_edge(slot, g);
        if e.guards.iter().any(|g| decided(g) == Some(OffEdge::Fails)) {
            continue;
        }
        let mut kept = e.clone();
        kept.guards.retain(|g| decided(g).is_none());
        if kept.guards.len() == e.guards.len() {
            return None;
        }
        main.push(kept);
        lowered.push(e);
    }
    if main.is_empty() {
        return None;
    }

    // Invariant reads. Only in a statement the main loop runs at every
    // position (no presence condition, no guard left, no divisor
    // binding), so that the hoisted checked read fails exactly when the
    // loop's first iteration would.
    let write_idx = |e: &ExecStmt| subst_index(e, e.body.lhs.idxs.first()?, &p.params);
    let mut invariants = Vec::new();
    for e in &main {
        if !e.guards.is_empty()
            || e.bindings.iter().any(|(_, _, d)| *d != 1)
            || !presence_levels(plan, e).is_empty()
        {
            continue;
        }
        for (k, r) in e.body.rhs.reads().into_iter().enumerate() {
            let access = k + 1;
            if e.sources.get(access).is_some_and(|s| s.is_some()) || r.idxs.len() != 1 {
                continue;
            }
            let Some(idx) = subst_index(e, &r.idxs[0], &p.params) else {
                continue;
            };
            if idx.terms.iter().any(|(a, _)| *a == Atom::Slot(slot)) {
                continue;
            }
            // Every main-loop write to the array must be provably
            // elsewhere — by the writer's guards as lowered, the dropped
            // one included: it holds at every main position. (An array
            // the loop does not write is the optimizer's to hoist.)
            let mut writers = lowered
                .iter()
                .filter(|w| w.body.lhs.array == r.array)
                .peekable();
            let disjoint = writers.peek().is_some()
                && writers.all(|w| {
                    w.sources[0].is_none()
                        && write_idx(w)
                            .is_some_and(|widx| guards_prove_nonzero(w, &idx.minus(&widx)))
                });
            if disjoint {
                invariants.push(InvariantRead {
                    stmt: e.stmt,
                    access,
                    array: r.array.clone(),
                    idx,
                });
            }
        }
    }
    Some(EdgeSplit {
        edge: bound.edge,
        main,
        invariants,
    })
}

/// Emits a standalone Rust function implementing the plan.
///
/// Signature: parameters (`i64`) in program order, then arrays in
/// declaration order — matrices by shared reference to their concrete
/// format type, vectors as `&[f64]` (role `in`) or `&mut [f64]`.
pub fn emit_rust(
    p: &Program,
    plan: &Plan,
    views: &HashMap<String, FormatView>,
    fn_name: &str,
) -> Result<String, EmitError> {
    emit_rust_inner(p, plan, views, fn_name, false)
}

/// Like [`emit_rust`], but the outermost row enumeration runs over two
/// extra trailing parameters `row_lo__, row_hi__: i64` instead of
/// `0..nrows`, so callers can restrict a call to a row band (the
/// parallel lane dispatches nnz-balanced chunks through this entry).
/// Returns `Ok(None)` when the plan's outermost step is not a
/// row-primary level enumeration (no sound way to split it by rows).
pub fn emit_rust_ranged(
    p: &Program,
    plan: &Plan,
    views: &HashMap<String, FormatView>,
    fn_name: &str,
) -> Result<Option<String>, EmitError> {
    if !range_splittable(p, plan, views) {
        return Ok(None);
    }
    emit_rust_inner(p, plan, views, fn_name, true).map(Some)
}

/// True when restricting the plan to a row band enumerates exactly that
/// band's instances *and* bands are independent, so disjoint bands may
/// run concurrently (the parallel lane's contract). Two conditions:
///
/// 1. the outermost step enumerates, forward, the outermost level of a
///    view that opens with the dense interval over its rows
///    ([`Levels::rows_outermost`]), and
/// 2. no statement reads an output (`out`/`inout`) array anywhere but
///    at the element its own write touches — a cross-row read (e.g. the
///    triangular solve's `b[j]` with `j < i`) makes later rows depend
///    on earlier ones, which a split into concurrently-run bands would
///    violate even though the *sequential* blocked traversal is fine.
pub fn range_splittable(p: &Program, plan: &Plan, views: &HashMap<String, FormatView>) -> bool {
    let Some(step) = plan.steps.first() else {
        return false;
    };
    let StepKind::Level { primary, .. } = &step.kind else {
        return false;
    };
    let Some(view) = views.get(&primary.matrix) else {
        return false;
    };
    if step.dir != Dir::Fwd
        || primary.level != 0
        || primary.chain != 0
        || !levels_of_view(&view.name).is_some_and(|(levels, _)| levels.rows_outermost())
    {
        return false;
    }
    // Cross-row dependence check (condition 2): every read of a written
    // array must be the accumulator self-read of its own statement.
    for s in p.statements() {
        for r in s.stmt.rhs.reads() {
            let written = p
                .array(&r.array)
                .is_some_and(|a| matches!(a.role, Role::Out | Role::InOut));
            if written && (r.array != s.stmt.lhs.array || r.idxs != s.stmt.lhs.idxs) {
                return false;
            }
        }
    }
    true
}

fn emit_rust_inner(
    p: &Program,
    plan: &Plan,
    views: &HashMap<String, FormatView>,
    fn_name: &str,
    ranged: bool,
) -> Result<String, EmitError> {
    let mut mat_var = HashMap::new();
    for a in &p.arrays {
        mat_var.insert(a.name.clone(), format!("{}_", a.name.to_lowercase()));
    }
    let promotion = find_promotion(p, plan);
    let mut e = Emitter {
        p,
        plan,
        views,
        mat_var,
        out: String::new(),
        indent: 0,
        promotion,
        split: find_edge_split(p, plan).map(Rc::new),
        in_main: false,
        uses_ix: std::cell::Cell::new(false),
        ranged,
    };
    e.function(fn_name)?;
    Ok(e.out)
}

/// A level enumeration's loop head as its template yields it, in
/// order: the loops, and the lines around and inside them.
#[derive(Default)]
struct LoopHead(Vec<HeadItem>);

enum HeadItem {
    Line(String),
    /// `for {var} in {range} {`
    For {
        var: String,
        range: String,
    },
}

impl LoopHead {
    fn open(&mut self, var: &str, range: String) {
        self.0.push(HeadItem::For {
            var: var.to_string(),
            range,
        });
    }

    fn line(&mut self, line: String) {
        self.0.push(HeadItem::Line(line));
    }

    /// The index of the head's loop, when it opens exactly one.
    fn only_loop(&self) -> Option<usize> {
        let mut loops = (0..self.0.len()).filter(|&i| matches!(self.0[i], HeadItem::For { .. }));
        loops.next().filter(|_| loops.next().is_none())
    }
}

impl Emitter<'_> {
    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }

    fn mat(&self, name: &str) -> &str {
        &self.mat_var[name]
    }

    fn function(&mut self, fn_name: &str) -> Result<(), EmitError> {
        // Header.
        let mut sig = format!("{FN_OPEN}{fn_name}(");
        let mut first = true;
        for q in &self.p.params {
            if !first {
                sig.push_str(", ");
            }
            first = false;
            let _ = write!(sig, "{}_: i64", q.to_lowercase());
        }
        for a in &self.p.arrays {
            if !first {
                sig.push_str(", ");
            }
            first = false;
            // Any array with a bound view is passed as its format type;
            // view-less matrices are not emit-able, view-less vectors are
            // plain slices.
            if let Some(view) = self.views.get(&a.name) {
                let ty = rust_type(&view.name)?;
                let _ = write!(sig, "{}: &{ty}", self.mat_var[&a.name]);
            } else {
                match a.kind {
                    ArrayKind::Matrix => {
                        return Err(EmitError(format!("no view bound for {:?}", a.name)));
                    }
                    ArrayKind::Vector => {
                        let m = match a.role {
                            Role::In => "",
                            Role::Out | Role::InOut => "mut ",
                        };
                        let _ = write!(sig, "{}: &{m}[f64]", self.mat_var[&a.name]);
                    }
                }
            }
        }
        if self.ranged {
            if first {
                return Err(EmitError("ranged emission of a nullary function".into()));
            }
            sig.push_str(", row_lo__: i64, row_hi__: i64");
        }
        sig.push_str(") -> Option<()> {");
        self.line(&sig);
        self.indent += 1;
        let helper_at = self.out.len();
        // Silence possibly-unused parameter warnings deterministically.
        for q in &self.p.params.clone() {
            self.line(&format!("let _ = {}_;", q.to_lowercase()));
        }

        if !self.bsr_tiled_nest()? && !self.vbr_tiled_nest()? {
            self.nest(0)?;
        }

        self.line("Some(())");
        self.indent -= 1;
        self.line("}");
        if self.uses_ix.get() {
            self.out.insert_str(helper_at, IX_HELPER);
        }
        Ok(())
    }

    /// Register-tiled emission of the blocked gather pattern: a
    /// two-step plan `rows (bsr level 0) → blocks (bsr level 1)` whose
    /// single full-depth statement reduces into a promoted
    /// row-invariant element (the MVM shape). The generic nest walks
    /// each block row `R` times — once per logical row — with a single
    /// serial accumulator chain; this template walks it once with `R`
    /// independent accumulators, one per row of the block row. Each
    /// row's reduction order is unchanged (blocks ascending, then
    /// within-block columns ascending), so results stay bitwise
    /// identical to the generic nest and the interpreter; the win is
    /// that the `R` dependency chains now retire in parallel, which is
    /// exactly where the hand-written micro-kernels get their
    /// throughput. Rows outside the leading/trailing block boundary
    /// (reachable only through the ranged entry) run the generic
    /// scalar per-row body.
    ///
    /// Returns `Ok(false)` — emit nothing — when the plan is not this
    /// shape.
    fn bsr_tiled_nest(&mut self) -> Result<bool, EmitError> {
        let Some((m, [v0, v1, pv0, pv1], e, pr, site)) = self.blocked_gather() else {
            return Ok(false);
        };
        let (Kind::Blocks { ptr, crd, .. }, Some((rb, cb))) = (site.level.kind, site.block) else {
            return Ok(false);
        };
        if rb < 2 {
            return Ok(false);
        }

        if self.ranged {
            self.line("let mut r0__ = row_lo__;");
            self.line("let rend__ = row_hi__;");
        } else {
            self.line("let mut r0__ = 0i64;");
            self.line(&format!("let rend__ = {m}.nrows as i64;"));
        }
        // Scalar rows up to the first block-row boundary (a no-op from
        // the full entry: row 0 is always aligned).
        let scalar_row = |this: &mut Self| -> Result<(), EmitError> {
            this.line(&format!("let {v0} = r0__;"));
            this.line(&format!("let {pv0} = {v0} as usize;"));
            this.nest(1)?;
            this.line("r0__ += 1;");
            Ok(())
        };
        self.line(&format!(
            "while r0__ < rend__ && !(r0__ as usize).is_multiple_of({rb}) {{"
        ));
        self.indent += 1;
        scalar_row(self)?;
        self.indent -= 1;
        self.line("}");

        // Full block rows, one walk, R register accumulators.
        let (blo, bhi, bcol) = (
            self.read(&site, ptr, "br__"),
            self.read(&site, ptr, "br__ + 1"),
            self.read(&site, crd, "b__"),
        );
        self.line(&format!("while r0__ + {rb} <= rend__ {{"));
        self.indent += 1;
        self.line(&format!("let br__ = (r0__ as usize) / {rb};"));
        for k in 0..rb {
            self.line(&format!("let {v0} = r0__ + {k};"));
            let idx = self.pexpr(&pr.idx);
            let y = self.elem("get", &pr.array, &idx);
            self.line(&format!("let mut acc{k}t__ = {y};"));
        }
        self.line(&format!("for b__ in {blo}..{bhi} {{"));
        self.indent += 1;
        self.line(&format!("let base__ = b__ * {};", rb * cb));
        self.line(&format!("let c0__ = {bcol} * {cb};"));
        self.line(&format!("for s__ in 0..{cb} {{"));
        self.indent += 1;
        self.line(&format!("let {v1} = (c0__ + s__) as i64;"));
        self.line(&format!("let _ = {v1};"));
        for k in 0..rb {
            self.line(&format!("let {v0} = r0__ + {k};"));
            self.line(&format!("let _ = {v0};"));
            self.line(&format!("let {pv1} = base__ + {} + s__;", k * cb));
            self.line(&format!("let _ = {pv1};"));
            if let Some(p) = self.promotion.as_mut() {
                p.reg = format!("acc{k}t__");
            }
            self.exec(&e)?;
        }
        self.promotion = Some(pr.clone());
        self.indent -= 1;
        self.line("}");
        self.indent -= 1;
        self.line("}");
        for k in 0..rb {
            self.line(&format!("let {v0} = r0__ + {k};"));
            let idx = self.pexpr(&pr.idx);
            let y = self.elem("get_mut", &pr.array, &idx);
            self.line(&format!("{y} = acc{k}t__;"));
        }
        self.line(&format!("r0__ += {rb};"));
        self.indent -= 1;
        self.line("}");

        // Scalar rows after the last full block row (ranged entries
        // whose band ends mid-block).
        self.line("while r0__ < rend__ {");
        self.indent += 1;
        scalar_row(self)?;
        self.indent -= 1;
        self.line("}");
        Ok(true)
    }

    /// Strip-tiled emission of the VBR gather pattern: the same
    /// two-step blocked-MVM shape as [`Self::bsr_tiled_nest`], but the
    /// strip extents are runtime data (`rpntr`/`cpntr`), so the tile
    /// height is the strip height read at run time instead of a
    /// compile-time literal. Each full strip walks its stored blocks
    /// once with one accumulator per strip row — the row's output
    /// element itself between blocks (the emitted code allocates
    /// nothing), a register inside each block — where the generic nest
    /// walks the strip's blocks once per row.
    /// Each row's reduction order (blocks ascending, then within-block
    /// columns ascending) is unchanged, so results stay bitwise
    /// identical to the generic nest and the interpreter. Rows whose
    /// strip extends outside the entry's row range (reachable only
    /// through the ranged entry; the partitioner is strip-aligned) run
    /// the generic scalar per-row body.
    ///
    /// Returns `Ok(false)` — emit nothing — when the plan is not this
    /// shape.
    fn vbr_tiled_nest(&mut self) -> Result<bool, EmitError> {
        let Some((m, [v0, v1, pv0, pv1], e, pr, site)) = self.blocked_gather() else {
            return Ok(false);
        };
        let Kind::Strips(t) = site.level.kind else {
            return Ok(false);
        };

        if self.ranged {
            self.line("let mut r0__ = row_lo__;");
            self.line("let rend__ = row_hi__;");
        } else {
            self.line("let mut r0__ = 0i64;");
            self.line(&format!("let rend__ = {m}.nrows as i64;"));
        }
        let rowblk = self.read(&site, t.strip_of, "r0__ as usize");
        let (rp0, rp1) = (
            self.read(&site, t.start, "br__"),
            self.read(&site, t.start, "br__ + 1"),
        );
        self.line("while r0__ < rend__ {");
        self.indent += 1;
        self.line(&format!("let br__ = {rowblk};"));
        self.line(&format!("let s0__ = {rp0} as i64;"));
        self.line(&format!("let s1__ = {rp1} as i64;"));
        self.line("if r0__ == s0__ && s1__ <= rend__ {");
        self.indent += 1;
        // Full strip: one block walk, each row's partial sum carried
        // from block to block in its output element.
        self.line("let h__ = (s1__ - s0__) as usize;");
        let (blo, bhi) = (
            self.read(&site, t.begin, "br__"),
            self.read(&site, t.end, "br__"),
        );
        let bcol = self.read(&site, t.crd, "b__");
        let (cj0, cj1) = (
            self.read(&site, t.cuts, "bc__"),
            self.read(&site, t.cuts, "bc__ + 1"),
        );
        let base = self.read(&site, t.base, "b__");
        self.line(&format!("for b__ in {blo}..{bhi} {{"));
        self.indent += 1;
        self.line(&format!("let bc__ = {bcol};"));
        self.line(&format!("let cj0__ = {cj0};"));
        self.line(&format!("let w__ = {cj1} - cj0__;"));
        self.line(&format!("let bbase__ = {base};"));
        self.line("for k__ in 0..h__ {");
        self.indent += 1;
        self.line(&format!("let {v0} = s0__ + k__ as i64;"));
        let idx = self.pexpr(&pr.idx);
        let y = self.elem("get", &pr.array, &idx);
        self.line(&format!("let mut acct__ = {y};"));
        self.line("for s__ in 0..w__ {");
        self.indent += 1;
        self.line(&format!("let {v1} = (cj0__ + s__) as i64;"));
        self.line(&format!("let _ = {v1};"));
        self.line(&format!("let {pv1} = bbase__ + k__ * w__ + s__;"));
        self.line(&format!("let _ = {pv1};"));
        if let Some(p) = self.promotion.as_mut() {
            p.reg = "acct__".into();
        }
        self.exec(&e)?;
        self.promotion = Some(pr.clone());
        self.indent -= 1;
        self.line("}");
        let y = self.elem("get_mut", &pr.array, &idx);
        self.line(&format!("{y} = acct__;"));
        self.indent -= 1;
        self.line("}");
        self.indent -= 1;
        self.line("}");
        self.line("r0__ = s1__;");
        self.indent -= 1;
        self.line("} else {");
        self.indent += 1;
        // A strip cut by the entry's row range: generic per-row body.
        self.line(&format!("let {v0} = r0__;"));
        self.line(&format!("let {pv0} = {v0} as usize;"));
        self.nest(1)?;
        self.line("r0__ += 1;");
        self.indent -= 1;
        self.line("}");
        self.indent -= 1;
        self.line("}");
        Ok(true)
    }

    /// The shape both tiled nests specialize: a two-step plan `rows
    /// (level 0) → row's entries (level 1)` of one reference's chain 0,
    /// forward, without searches or sharers, whose single full-depth
    /// statement reduces into a promoted row-invariant element (the MVM
    /// shape). Yields the operand's local, the two slot and the two
    /// position variables, the statement, the promotion, and the
    /// description of level 1.
    fn blocked_gather(&self) -> Option<(String, [String; 4], ExecStmt, Promotion, Site)> {
        let [s0, s1] = self.plan.steps.as_slice() else {
            return None;
        };
        let (StepKind::Level { primary: p0, .. }, StepKind::Level { primary: p1, .. }) =
            (&s0.kind, &s1.kind)
        else {
            return None;
        };
        let [e] = self.plan.execs.as_slice() else {
            return None;
        };
        let pr = self.promotion.clone()?;
        let plain = |s: &crate::plan::Step| {
            s.dir == Dir::Fwd && s.nslots == 1 && s.searches.is_empty() && s.sharers.is_empty()
        };
        if !plain(s0)
            || !plain(s1)
            || (p0.chain, p0.level) != (0, 0)
            || (p1.chain, p1.level) != (0, 1)
            || p0.ref_id != p1.ref_id
            || e.depth != 2
            || pr.deferred_div.is_some()
        {
            return None;
        }
        let site = self.site(p1).ok()?;
        let names = [
            slot_var(s0.first_slot),
            slot_var(s1.first_slot),
            pos_var(p0.ref_id, 0),
            pos_var(p1.ref_id, 1),
        ];
        Some((site.m.clone(), names, e.clone(), pr, site))
    }

    /// The description of the level `l` names, as the templates read it.
    fn site(&self, l: &LevelRef) -> Result<Site, EmitError> {
        let view = self.views.get(&l.matrix);
        let view = &view
            .ok_or_else(|| EmitError(format!("no view bound for {:?}", l.matrix)))?
            .name;
        let (levels, block) = described(view)?;
        let level = levels.level(l.chain, l.level).ok_or_else(|| {
            EmitError(format!(
                "view {view} has no level {} of chain {}",
                l.level, l.chain
            ))
        })?;
        let parent = match l.level {
            0 => "0usize".to_string(),
            _ => pos_var(l.ref_id, l.level - 1),
        };
        Ok(Site {
            m: self.mat(&l.matrix).to_string(),
            levels,
            block,
            level,
            parent,
        })
    }

    /// A read of one of the format's own arrays in a level's loop head:
    /// `ix` where the level says unchecked, `*a.get(i)?` otherwise.
    fn read(&self, site: &Site, a: Arr, i: &str) -> String {
        if site.level.unchecked {
            self.ix(&site.array(a), i)
        } else {
            site.get(a, i)
        }
    }

    /// `ix(&arr, i)` — the unchecked-in-release read of a format-owned
    /// array (marks the helper for inclusion in the prologue).
    fn ix(&self, arr: &str, i: &str) -> String {
        self.uses_ix.set(true);
        format!("ix(&{arr}, {i})")
    }

    /// A dense-vector element as a place: `get` to read it, `get_mut`
    /// to assign it.
    fn elem(&self, get: &str, array: &str, idx: &str) -> String {
        format!("*{}.{get}(({idx}) as usize)?", self.mat(array))
    }

    /// Emits step `si`'s loop and its subtree.
    fn nest(&mut self, si: usize) -> Result<(), EmitError> {
        let plan = self.plan;
        if si == plan.steps.len() {
            let split = self.split.clone().filter(|_| self.in_main);
            let inner: Vec<&ExecStmt> = match &split {
                Some(split) => split.main.iter().collect(),
                None => plan.execs.iter().filter(|e| e.depth == si).collect(),
            };
            // Provably-disjoint single guards fuse into an if/else-if
            // chain (one comparison on the hot path), matching the
            // hand-written kernels' structure. Put the Ge-guarded (dense)
            // case first.
            let slot_only = |g: &Guard| {
                let e = match g {
                    Guard::Eq(x) | Guard::Ge(x) | Guard::Divides(x, _) => x,
                };
                e.terms.iter().all(|(a, _)| matches!(a, Atom::Slot(_)))
            };
            if inner.len() == 2
                && inner
                    .iter()
                    .all(|e| e.guards.len() == 1 && slot_only(&e.guards[0]))
                && inner
                    .iter()
                    .all(|e| e.bindings.iter().all(|(_, _, d)| *d == 1))
                && guards_disjoint(&inner[0].guards[0], &inner[1].guards[0])
            {
                let (first, second) = if matches!(inner[0].guards[0], Guard::Ge(_)) {
                    (inner[0], inner[1])
                } else {
                    (inner[1], inner[0])
                };
                self.exec_chained(first, second)?;
                return Ok(());
            }
            for e in inner {
                self.exec(e)?;
            }
            return Ok(());
        }
        // Hoisted-before statements.
        for e in &plan.execs {
            if e.depth == si && !e.after {
                self.exec(e)?;
            }
        }
        let promotion_here = if si + 1 == plan.steps.len() {
            self.promotion.clone()
        } else {
            None
        };
        if let Some(pr) = &promotion_here {
            let y = self.elem("get", &pr.array, &self.pexpr(&pr.idx));
            self.line(&format!("let mut {} = {y};", pr.reg));
            if pr.deferred_div.is_some() {
                self.line("let mut pivot__ = 0.0f64;");
                self.line("let mut has_pivot__ = false;");
            }
        }
        let step = &plan.steps[si];
        match &step.kind {
            StepKind::Interval { lo, hi } => {
                let lo = self.pexpr(lo);
                let hi = self.pexpr(hi);
                let v = slot_var(step.first_slot);
                match step.dir {
                    Dir::Fwd => self.line(&format!("for {v} in ({lo})..({hi}) {{")),
                    Dir::Rev => self.line(&format!("for {v} in (({lo})..({hi})).rev() {{")),
                }
                self.indent += 1;
                self.step_tail(si, step)?;
                self.indent -= 1;
                self.line("}");
            }
            StepKind::Level { primary, perms } => {
                self.level_loop(si, step, primary, perms)?;
            }
            StepKind::MergeJoin { a, b } => {
                self.merge_join(si, step, a, b)?;
            }
        }
        if let Some(pr) = &promotion_here {
            if pr.deferred_div.is_some() {
                self.line(&format!(
                    "if has_pivot__ {{ {} = {} / pivot__; }}",
                    pr.reg, pr.reg
                ));
            }
            let y = self.elem("get_mut", &pr.array, &self.pexpr(&pr.idx));
            self.line(&format!("{y} = {};", pr.reg));
        }
        // Hoisted-after statements.
        for e in &plan.execs {
            if e.depth == si && e.after {
                self.exec(e)?;
            }
        }
        Ok(())
    }

    /// Sharer aliases, searches, then the deeper subtree.
    fn step_tail(&mut self, si: usize, step: &crate::plan::Step) -> Result<(), EmitError> {
        for &(rid, lev) in &step.sharers {
            let primary = match &step.kind {
                StepKind::Level { primary, .. } => primary,
                _ => return Err(EmitError("sharers on a non-level step".into())),
            };
            self.line(&format!(
                "let {} = {};",
                pos_var(rid, lev),
                pos_var(primary.ref_id, primary.level)
            ));
            self.line(&format!("let _ = {};", pos_var(rid, lev)));
        }
        for sp in &step.searches {
            self.search(sp)?;
        }
        self.nest(si + 1)
    }

    /// The loop head of a level enumeration: the rendering of the level's
    /// description (`bernoulli_formats::level`) as Rust text.
    fn level_head(
        &self,
        si: usize,
        step: &crate::plan::Step,
        primary: &LevelRef,
        perms: &[Option<String>],
    ) -> Result<LoopHead, EmitError> {
        let site = self.site(primary)?;
        let parent = &site.parent;
        let pv = pos_var(primary.ref_id, primary.level);
        let v0 = slot_var(step.first_slot);
        if step.dir == Dir::Rev {
            return Err(EmitError("reverse level enumeration not templated".into()));
        }
        let unsupported = || EmitError(format!("no loop head for {:?}", site.level.kind));
        // Entry `i` of one of the level's arrays, and the same as a key.
        let rd = |a: Arr, i: &str| self.read(&site, a, i);
        let key = |a: Arr, i: &str| site.key(a, rd(a, i));
        // A key the view's permutation maps is stored as `rr__`.
        let permuted_key = |v: &str| match (&perms[0], site.levels.perm) {
            (Some(_), Some(perm)) => {
                let mapped = site.key(perm.apply, site.get(perm.apply, "rr__"));
                Ok(format!("let {v} = {mapped};"))
            }
            (Some(_), None) => Err(unsupported()),
            (None, _) => Ok(format!("let {v} = rr__ as i64;")),
        };
        // Most levels open a single loop; the two-level blocked formats
        // open a block loop plus a within-block loop.
        let mut head = LoopHead::default();
        match site.level.kind {
            Kind::Interval {
                lo: Bound::Zero,
                hi: Bound::Extent(d),
                base: Base::Identity,
            } if site.level.permuted => {
                head.open("rr__", format!("0..{}", site.dim(d)));
                head.line(format!("let {pv} = rr__;"));
                head.line(permuted_key(&v0)?);
            }
            Kind::Interval { lo, hi, base } => {
                // Unchecked: the per-parent bounds and base are bound
                // once, so that the body runs at a fixed stride with no
                // structure reads in it (which is what lets it
                // autovectorize). Checked: read in place.
                let bind = |name: &str, a: Arr| {
                    if site.level.unchecked {
                        head.line(format!("let {name} = {};", rd(a, parent)));
                        name.to_string()
                    } else {
                        site.get(a, parent)
                    }
                };
                let ends = site.interval((lo, hi, base), &v0, bind);
                let (lo, hi, pos) = ends.ok_or_else(unsupported)?;
                // The range-splittable entry replaces the outermost row
                // enumeration's bounds with its two parameters.
                let range = if self.ranged && si == 0 {
                    "row_lo__..row_hi__".to_string()
                } else {
                    format!("{lo}..{hi}")
                };
                head.open(&v0, range);
                head.line(format!("let {pv} = {pos};"));
            }
            Kind::Compressed { ptr, crd } => {
                let next = format!("{parent} + 1");
                head.open(&pv, format!("{}..{}", rd(ptr, parent), rd(ptr, &next)));
                head.line(format!("let {v0} = {};", key(crd, &pv)));
            }
            Kind::Coords { len, crd } => {
                head.open(&pv, format!("0..{}.len()", site.array(len)));
                for (k, &a) in crd.iter().enumerate() {
                    let v = slot_var(step.first_slot + k);
                    head.line(format!("let {v} = {};", key(a, &pv)));
                }
            }
            Kind::Slots { count, at, crd } => {
                let count = rd(count, parent);
                match at {
                    // Fixed-stride slot walk: the row base is hoisted.
                    SlotAt::RowMajor(width) => {
                        head.line(format!("let base__ = {parent} * {};", site.dim(width)));
                        head.open("s__", format!("0..{count}"));
                        head.line(format!("let {pv} = base__ + s__;"));
                    }
                    SlotAt::Table(table) => {
                        head.open("d__", format!("0..{count}"));
                        head.line(format!("let {pv} = {} + {parent};", rd(table, "d__")));
                    }
                }
                head.line(format!("let {v0} = {};", key(crd, &pv)));
            }
            Kind::Jagged { ptr, crd } => {
                // Flat perspective: walk the jagged diagonals.
                let values = site.array(site.levels.chains[primary.chain].values);
                head.line("let mut d__ = 0usize;".to_string());
                head.open(&pv, format!("0..{values}.len()"));
                let next = rd(ptr, "d__ + 1");
                head.line(format!("while {pv} >= {next} {{ d__ += 1; }}"));
                head.line(format!("let rr__ = {pv} - {};", rd(ptr, "d__")));
                head.line(permuted_key(&v0)?);
                let v1 = slot_var(step.first_slot + 1);
                head.line(format!("let {v1} = {};", key(crd, &pv)));
            }
            Kind::Blocks { ptr, crd, .. } => {
                // Blocked row walk: the outer loop runs over the stored
                // blocks of the parent row's block row, the inner over
                // the row's contiguous slice of each block. The block
                // shape is a compile-time literal (from the view name),
                // so LLVM fully unrolls the inner loop.
                let (rb, cb) = site.block.ok_or_else(unsupported)?;
                let (blo, bhi, bcol) = (rd(ptr, "br__"), rd(ptr, "br__ + 1"), rd(crd, "b__"));
                head.line(format!("let br__ = {parent} / {rb};"));
                head.line(format!("let rr__ = {parent} % {rb};"));
                head.open("b__", format!("{blo}..{bhi}"));
                head.line(format!("let base__ = (b__ * {rb} + rr__) * {cb};"));
                head.line(format!("let c0__ = {bcol} * {cb};"));
                head.open("s__", format!("0..{cb}"));
                head.line(format!("let {pv} = base__ + s__;"));
                head.line(format!("let {v0} = (c0__ + s__) as i64;"));
            }
            Kind::Strips(t) => {
                // Variable block strips: block extents are runtime data,
                // so the within-block trip count is hoisted per block;
                // the inner loop is a fixed-stride slice walk that
                // autovectorizes.
                let (rowblk, rp) = (rd(t.strip_of, parent), rd(t.start, "br__"));
                let (blo, bhi, bcol) = (rd(t.begin, "br__"), rd(t.end, "br__"), rd(t.crd, "b__"));
                let (cj0, cj1) = (rd(t.cuts, "bc__"), rd(t.cuts, "bc__ + 1"));
                let base = rd(t.base, "b__");
                head.line(format!("let br__ = {rowblk};"));
                head.line(format!("let rr__ = {parent} - {rp};"));
                head.open("b__", format!("{blo}..{bhi}"));
                head.line(format!("let bc__ = {bcol};"));
                head.line(format!("let cj0__ = {cj0};"));
                head.line(format!("let w__ = {cj1} - cj0__;"));
                head.line(format!("let base__ = {base} + rr__ * w__;"));
                head.open("s__", "0..w__".to_string());
                head.line(format!("let {pv} = base__ + s__;"));
                head.line(format!("let {v0} = (cj0__ + s__) as i64;"));
            }
        }
        Ok(head)
    }

    fn level_loop(
        &mut self,
        si: usize,
        step: &crate::plan::Step,
        primary: &LevelRef,
        perms: &[Option<String>],
    ) -> Result<(), EmitError> {
        let head = self.level_head(si, step, primary, perms)?;
        if si + 1 == self.plan.steps.len() {
            if let (Some(split), Some(at)) = (self.split.clone(), head.only_loop()) {
                return self.split_loop(si, step, &head, at, &split);
            }
        }
        let mut opened = 0usize;
        for item in &head.0 {
            match item {
                HeadItem::Line(l) => self.line(l),
                HeadItem::For { var, range } => {
                    self.line(&format!("for {var} in {range} {{"));
                    self.indent += 1;
                    opened += 1;
                }
            }
        }
        self.step_tail(si, step)?;
        for _ in 0..opened {
            self.indent -= 1;
            self.line("}");
        }
        Ok(())
    }

    /// The innermost enumeration under an [`EdgeSplit`]: the main loop
    /// over every position but the edge one, and the edge position with
    /// the unsplit body, in enumeration order. `at` indexes the head's
    /// one loop; the lines before it run once, those after it per
    /// position.
    fn split_loop(
        &mut self,
        si: usize,
        step: &crate::plan::Step,
        head: &LoopHead,
        at: usize,
        split: &EdgeSplit,
    ) -> Result<(), EmitError> {
        let HeadItem::For { var, range } = &head.0[at] else {
            return Err(EmitError("split of a loop head without a loop".into()));
        };
        let lines = |this: &mut Self, items: &[HeadItem]| {
            for item in items {
                if let HeadItem::Line(l) = item {
                    this.line(l);
                }
            }
        };
        lines(self, &head.0[..at]);
        self.line(&format!("let span__ = {range};"));
        self.line("if span__.start < span__.end {");
        self.indent += 1;
        let (edge_at, main_range) = match split.edge {
            Edge::First => ("span__.start", "span__.start + 1..span__.end"),
            Edge::Last => ("span__.end - 1", "span__.start..span__.end - 1"),
        };
        let edge = |this: &mut Self| -> Result<(), EmitError> {
            this.line("{");
            this.indent += 1;
            this.line(&format!("let {var} = {edge_at};"));
            lines(this, &head.0[at + 1..]);
            this.step_tail(si, step)?;
            this.indent -= 1;
            this.line("}");
            Ok(())
        };
        let main = |this: &mut Self| -> Result<(), EmitError> {
            // Invariant reads are bound only when the main loop runs, so
            // a checked read fails where its first iteration would.
            let hoisting = !split.invariants.is_empty();
            if hoisting {
                this.line("if span__.end - span__.start > 1 {");
                this.indent += 1;
                for (k, inv) in split.invariants.iter().enumerate() {
                    let read = this.elem("get", &inv.array, &this.pexpr(&inv.idx));
                    this.line(&format!("let {} = {read};", invariant_var(k)));
                }
            }
            this.line(&format!("for {var} in {main_range} {{"));
            this.indent += 1;
            lines(this, &head.0[at + 1..]);
            this.in_main = true;
            let tail = this.step_tail(si, step);
            this.in_main = false;
            tail?;
            for _ in 0..1 + usize::from(hoisting) {
                this.indent -= 1;
                this.line("}");
            }
            Ok(())
        };
        match split.edge {
            Edge::First => {
                edge(self)?;
                main(self)?;
            }
            Edge::Last => {
                main(self)?;
                edge(self)?;
            }
        }
        self.indent -= 1;
        self.line("}");
        Ok(())
    }

    fn merge_join(
        &mut self,
        si: usize,
        step: &crate::plan::Step,
        a: &LevelRef,
        b: &LevelRef,
    ) -> Result<(), EmitError> {
        // Templated for two ordered coordinate lists: one key array each,
        // walked in step.
        let list = |l: &LevelRef| -> Result<String, EmitError> {
            let site = self.site(l)?;
            let ordered = self.views[&l.matrix]
                .alternatives()
                .iter()
                .flatten()
                .find(|c| c.id == l.chain)
                .and_then(|c| c.levels.get(l.level))
                .is_some_and(|flat| flat.order == Order::Increasing);
            match site.level.kind {
                Kind::Coords { crd: &[ind], .. } if ordered && l.level == 0 => Ok(site.array(ind)),
                _ => Err(EmitError(format!(
                    "merge join templated only for sorted vectors, got {l}"
                ))),
            }
        };
        let (ia, ib) = (list(a)?, list(b)?);
        let (pa, pb) = (pos_var(a.ref_id, 0), pos_var(b.ref_id, 0));
        let v0 = slot_var(step.first_slot);
        self.line(&format!("let mut {pa} = 0usize;"));
        self.line(&format!("let mut {pb} = 0usize;"));
        self.line(&format!("while {pa} < {ia}.len() && {pb} < {ib}.len() {{"));
        self.indent += 1;
        self.line(&format!("let ka__ = *{ia}.get({pa})?;"));
        self.line(&format!("let kb__ = *{ib}.get({pb})?;"));
        self.line("if ka__ < kb__ {");
        self.indent += 1;
        self.line(&format!("{pa} += 1;"));
        self.indent -= 1;
        self.line("} else if kb__ < ka__ {");
        self.indent += 1;
        self.line(&format!("{pb} += 1;"));
        self.indent -= 1;
        self.line("} else {");
        self.indent += 1;
        self.line(&format!("let {v0} = ka__ as i64;"));
        self.line(&format!("let _ = {v0};"));
        self.step_tail(si, step)?;
        self.line(&format!("{pa} += 1;"));
        self.line(&format!("{pb} += 1;"));
        self.indent -= 1;
        self.line("}");
        self.indent -= 1;
        self.line("}");
        Ok(())
    }

    fn search(&mut self, sp: &crate::plan::SearchPart) -> Result<(), EmitError> {
        let site = self.site(&sp.target)?;
        let (m, parent) = (&site.m, &site.parent);
        let rid = sp.target.ref_id;
        let lev = sp.target.level;
        let pv = pos_var(rid, lev);
        let ok = ok_var(rid, lev);
        let parent_ok = if lev == 0 || !level_searched(self.plan, rid, lev - 1) {
            "true".to_string()
        } else {
            ok_var(rid, lev - 1)
        };
        // Key expressions (apply inverse perms).
        // A permuted key is a lookup: bound once, used by name.
        let mut keys = Vec::new();
        for (i, (e, perm)) in sp.keys.iter().enumerate() {
            let raw = self.pexpr(e);
            match perm {
                Some(_) => {
                    let Some(perm) = site.levels.perm else {
                        return Err(EmitError(format!("{} has no permutation", sp.target)));
                    };
                    let inverse = site.array(perm.unapply);
                    let key = if sp.keys.len() == 1 {
                        "key__".to_string()
                    } else {
                        format!("key{i}__")
                    };
                    self.line(&format!(
                        "let {key} = if ({raw}) >= 0 {{ {inverse}.get(({raw}) as usize).map_or(-1, |&r__| r__ as i64) }} else {{ -1 }};"
                    ));
                    keys.push(key);
                }
                None => keys.push(raw),
            }
        }
        let k0 = keys[0].clone();

        // The rendering of the level's `locate`.
        let unsupported = || EmitError(format!("no search template for {}", sp.target));
        let method = format!("{m}.{}", site.levels.finder);
        let find = match (site.level.locate, site.level.kind) {
            (Locate::Bounds, Kind::Interval { lo, hi, base }) => {
                let key = format!("({k0})");
                let ends = site.interval((lo, hi, base), &key, |_, a| site.get(a, parent));
                let (lo, hi, pos) = ends.ok_or_else(unsupported)?;
                format!("if {key} >= {lo} && {key} < {hi} {{ Some({pos}) }} else {{ None }}")
            }
            (Locate::BinarySearch, Kind::Coords { crd: &[a], .. }) => {
                let sorted = site.array(a);
                match site.levels.elem(a) {
                    Elem::I64 => format!("{sorted}.binary_search(&({k0})).ok()"),
                    _ => format!(
                        "if ({k0}) >= 0 {{ {sorted}.binary_search(&(({k0}) as usize)).ok() }} else {{ None }}"
                    ),
                }
            }
            (Locate::Find(Args::ParentKey), _) => {
                format!("if ({k0}) >= 0 {{ {method}({parent}, ({k0}) as usize) }} else {{ None }}")
            }
            (Locate::Find(Args::KeyParent), _) => {
                format!("if ({k0}) >= 0 {{ {method}(({k0}) as usize, {parent}) }} else {{ None }}")
            }
            (Locate::Find(Args::Keys), _) => {
                let k1 = keys.get(1).ok_or_else(unsupported)?;
                format!(
                    "if ({k0}) >= 0 && ({k1}) >= 0 {{ {method}(({k0}) as usize, ({k1}) as usize) }} else {{ None }}"
                )
            }
            (Locate::Find(Args::Key), _) => {
                format!("if ({k0}) >= 0 {{ {method}(({k0}) as usize) }} else {{ None }}")
            }
            (Locate::Hash(map), _) => format!(
                "if ({k0}) >= 0 {{ {m}.{map}.get(&(({k0}) as usize)).copied() }} else {{ None }}"
            ),
            (Locate::None | Locate::Bounds | Locate::BinarySearch, _) => return Err(unsupported()),
        };

        self.line(&format!(
            "let ({ok}, {pv}) = if {parent_ok} {{ match {find} {{ Some(p__) => (true, p__), None => (false, 0usize) }} }} else {{ (false, 0usize) }};"
        ));
        self.line(&format!("let _ = ({ok}, {pv});"));
        for &(r2, l2) in &sp.sharers {
            self.line(&format!(
                "let ({}, {}) = ({ok}, {pv});",
                ok_var(r2, l2),
                pos_var(r2, l2)
            ));
            self.line(&format!(
                "let _ = ({}, {});",
                ok_var(r2, l2),
                pos_var(r2, l2)
            ));
        }
        Ok(())
    }

    fn exec(&mut self, e: &ExecStmt) -> Result<(), EmitError> {
        // Deferred pivot division: capture the divisor at the firing
        // point; the division itself runs after the inner loop.
        if let Some(pr) = self.promotion.clone() {
            if let Some(div_idx) = pr.deferred_div {
                if self.plan.execs[div_idx].stmt == e.stmt {
                    return self.exec_capture_pivot(e);
                }
            }
        }
        self.line("{");
        self.indent += 1;
        let conds = self.presence_conds(e);
        let mut opened = 0usize;
        if !conds.is_empty() {
            self.line(&format!("if {} {{", conds.join(" && ")));
            self.indent += 1;
            opened += 1;
        }
        for (v, expr, div) in &e.bindings {
            let ex = self.pexpr(expr);
            if *div == 1 {
                self.line(&format!("let {}_ = {ex};", v.to_lowercase()));
            } else {
                self.line(&format!("if ({ex}).rem_euclid({div}) == 0 {{"));
                self.indent += 1;
                opened += 1;
                self.line(&format!(
                    "let {}_ = ({ex}).div_euclid({div});",
                    v.to_lowercase()
                ));
            }
            self.line(&format!("let _ = {}_;", v.to_lowercase()));
        }
        // Guards.
        let gs: Vec<String> = e.guards.iter().map(|g| self.guard_cond(g)).collect();
        if !gs.is_empty() {
            self.line(&format!("if {} {{", gs.join(" && ")));
            self.indent += 1;
            opened += 1;
        }
        // The statement itself.
        let mut next_access = 1usize;
        let rhs = self.value_expr(e, &e.body.rhs, &mut next_access)?;
        let lhs = self.lhs(e, &e.body.lhs)?;
        self.line(&format!("{lhs} = {rhs};"));
        for _ in 0..opened {
            self.indent -= 1;
            self.line("}");
        }
        self.indent -= 1;
        self.line("}");
        Ok(())
    }

    /// Emits two guard-disjoint statements as an if/else-if chain.
    fn exec_chained(&mut self, first: &ExecStmt, second: &ExecStmt) -> Result<(), EmitError> {
        self.exec_one(first, true)?;
        self.line("else {");
        self.indent += 1;
        self.exec(second)?;
        self.indent -= 1;
        self.line("}");
        Ok(())
    }

    /// Emits one statement; with `open_chain` the trailing brace of its
    /// guard `if` is left ready for an `else` continuation (guards are
    /// emitted as the outermost condition).
    fn exec_one(&mut self, e: &ExecStmt, open_chain: bool) -> Result<(), EmitError> {
        // Guard first (single guard, no divisor bindings assumed checked
        // by the caller via guards_disjoint preconditions).
        let mut conds = self.presence_conds(e);
        for g in &e.guards {
            conds.push(self.guard_cond(g));
        }
        self.line(&format!("if {} {{", conds.join(" && ")));
        self.indent += 1;
        for (v, expr, div) in &e.bindings {
            let ex = self.pexpr(expr);
            if *div != 1 {
                return Err(EmitError("divisor binding in chained exec".into()));
            }
            self.line(&format!("let {}_ = {ex};", v.to_lowercase()));
            self.line(&format!("let _ = {}_;", v.to_lowercase()));
        }
        let is_deferred = self
            .promotion
            .as_ref()
            .and_then(|pr| pr.deferred_div)
            .is_some_and(|di| self.plan.execs[di].stmt == e.stmt);
        if is_deferred {
            let ValueExpr::Div(_, divisor) = &e.body.rhs else {
                return Err(EmitError("deferred division lost its shape".into()));
            };
            let mut next_access = 2usize;
            let dsrc = self.value_expr(e, divisor, &mut next_access)?;
            self.line(&format!("pivot__ = {dsrc};"));
            self.line("has_pivot__ = true;");
        } else {
            let mut next_access = 1usize;
            let rhs = self.value_expr(e, &e.body.rhs, &mut next_access)?;
            let lhs = self.lhs(e, &e.body.lhs)?;
            self.line(&format!("{lhs} = {rhs};"));
        }
        self.indent -= 1;
        // With `open_chain` the caller appends `else { ... }` right after
        // this closing brace (`}` followed by `else` on the next line is
        // valid Rust).
        self.line("}");
        let _ = open_chain;
        Ok(())
    }

    /// Emits the pivot-capture form of a deferred division statement:
    /// same guards and bindings, but the body stores the divisor.
    fn exec_capture_pivot(&mut self, e: &ExecStmt) -> Result<(), EmitError> {
        self.line("{");
        self.indent += 1;
        let conds = self.presence_conds(e);
        let mut opened = 0usize;
        if !conds.is_empty() {
            self.line(&format!("if {} {{", conds.join(" && ")));
            self.indent += 1;
            opened += 1;
        }
        for (v, expr, div) in &e.bindings {
            let ex = self.pexpr(expr);
            debug_assert_eq!(*div, 1);
            self.line(&format!("let {}_ = {ex};", v.to_lowercase()));
            self.line(&format!("let _ = {}_;", v.to_lowercase()));
        }
        let gs: Vec<String> = e.guards.iter().map(|g| self.guard_cond(g)).collect();
        if !gs.is_empty() {
            self.line(&format!("if {} {{", gs.join(" && ")));
            self.indent += 1;
            opened += 1;
        }
        let ValueExpr::Div(_, divisor) = &e.body.rhs else {
            return Err(EmitError("deferred division lost its shape".into()));
        };
        let mut next_access = 1usize;
        // Skip the accumulator read's access slot (it is the Div's lhs).
        next_access += 1;
        let dsrc = self.value_expr(e, divisor, &mut next_access)?;
        self.line(&format!("pivot__ = {dsrc};"));
        self.line("has_pivot__ = true;");
        for _ in 0..opened {
            self.indent -= 1;
            self.line("}");
        }
        self.indent -= 1;
        self.line("}");
        Ok(())
    }

    /// Required-refs presence: the ok flags of every searched level of
    /// the statement's required refs.
    fn presence_conds(&self, e: &ExecStmt) -> Vec<String> {
        presence_levels(self.plan, e)
            .into_iter()
            .map(|(rid, lev)| ok_var(rid, lev))
            .collect()
    }

    fn lhs(&mut self, e: &ExecStmt, r: &LhsRef) -> Result<String, EmitError> {
        match &e.sources[0] {
            None => {
                if let Some(reg) = self.promoted_elem(e, r) {
                    return Ok(reg);
                }
                Ok(self.elem("get_mut", &r.array, &self.affine(&r.idxs[0])))
            }
            Some(_) => Err(EmitError(
                "sparse writes are not supported by the emitter".into(),
            )),
        }
    }

    /// If `r` is the promoted element for this (full-depth) exec, the
    /// register name.
    fn promoted_elem(&self, e: &ExecStmt, r: &LhsRef) -> Option<String> {
        let pr = self.promotion.as_ref()?;
        if e.depth != self.plan.steps.len() || r.array != pr.array {
            return None;
        }
        let ridx = subst_index(e, &r.idxs[0], &self.p.params)?;
        ridx.same_as(&pr.idx).then(|| pr.reg.clone())
    }

    /// In the split's main loop: is access `access` of `e` one of the
    /// reads bound before the loop, and which?
    fn invariant_read(&self, e: &ExecStmt, access: usize) -> Option<usize> {
        let split = self.split.as_ref().filter(|_| self.in_main)?;
        split
            .invariants
            .iter()
            .position(|inv| inv.stmt == e.stmt && inv.access == access)
    }

    fn value_expr(
        &mut self,
        e: &ExecStmt,
        v: &ValueExpr,
        next_access: &mut usize,
    ) -> Result<String, EmitError> {
        Ok(match v {
            ValueExpr::Const(c) => {
                if c.fract() == 0.0 && c.abs() < 1e15 {
                    format!("{:.1}", c)
                } else {
                    format!("{c:?}")
                }
            }
            ValueExpr::Read(r) => {
                let access = *next_access;
                *next_access += 1;
                match e.sources.get(access).and_then(|s| s.as_ref()) {
                    Some(ValueSource::Position { ref_id }) => {
                        let meta = &self.plan.refs[*ref_id];
                        let pv = pos_var(*ref_id, meta.levels - 1);
                        self.value_at(&meta.matrix.clone(), *ref_id, &pv)?
                    }
                    Some(ValueSource::Random { ref_id }) => {
                        let meta = &self.plan.refs[*ref_id];
                        let m = self.mat(&meta.matrix).to_string();
                        let rr = self.affine(&r.idxs[0]);
                        let cc = if r.idxs.len() > 1 {
                            self.affine(&r.idxs[1])
                        } else {
                            "0".to_string()
                        };
                        format!("{m}.get(({rr}) as usize, ({cc}) as usize)")
                    }
                    None => {
                        if let Some(reg) = self.promoted_elem(e, r) {
                            reg
                        } else if let Some(k) = self.invariant_read(e, access) {
                            invariant_var(k)
                        } else {
                            self.elem("get", &r.array, &self.affine(&r.idxs[0]))
                        }
                    }
                }
            }
            ValueExpr::Add(a, b) => format!(
                "({} + {})",
                self.value_expr(e, a, next_access)?,
                self.value_expr(e, b, next_access)?
            ),
            ValueExpr::Sub(a, b) => format!(
                "({} - {})",
                self.value_expr(e, a, next_access)?,
                self.value_expr(e, b, next_access)?
            ),
            ValueExpr::Mul(a, b) => format!(
                "({} * {})",
                self.value_expr(e, a, next_access)?,
                self.value_expr(e, b, next_access)?
            ),
            ValueExpr::Div(a, b) => format!(
                "({} / {})",
                self.value_expr(e, a, next_access)?,
                self.value_expr(e, b, next_access)?
            ),
            ValueExpr::Neg(a) => format!("(-{})", self.value_expr(e, a, next_access)?),
        })
    }

    /// The value expression at a position of a ref's chain.
    fn value_at(&self, matrix: &str, rid: usize, pv: &str) -> Result<String, EmitError> {
        let (levels, _) = described(&self.views[matrix].name)?;
        let chain = levels.chains.get(self.plan.refs[rid].chain);
        let chain = chain.ok_or_else(|| EmitError(format!("reference {rid} is of no chain")))?;
        let values = format!("{}.{}", self.mat(matrix), levels.array(chain.values));
        Ok(self.ix(&values, pv))
    }

    /// PExpr → Rust i64 expression.
    /// A guard as a Rust boolean expression, printed in *two-sided*
    /// comparison form: `v0 > v1` rather than `(v0 - v1 - 1) >= 0`.
    ///
    /// The single-sided form forces a wrapped i64 subtraction chain the
    /// optimizer must keep (signed `a - b` may wrap, so `a - b - 1 >= 0`
    /// cannot legally be folded to `a > b` after the fact); moving the
    /// negative terms across the comparison here is sound because every
    /// atom is a loop index or size parameter derived from an in-memory
    /// array extent, far below the i64 overflow boundary. Measured ~20%
    /// on the triangular-solve inner loop, whose lower/diagonal split is
    /// guard-driven.
    fn guard_cond(&self, g: &Guard) -> String {
        let (op, x) = match g {
            Guard::Eq(x) => ("==", x),
            Guard::Ge(x) => (">=", x),
            Guard::Divides(x, d) => {
                return format!("({}).rem_euclid({d}) == 0", self.pexpr(x));
            }
        };
        let mut lhs = PExpr {
            terms: Vec::new(),
            cst: 0,
        };
        let mut rhs = PExpr {
            terms: Vec::new(),
            cst: 0,
        };
        for (a, c) in &x.terms {
            if *c > 0 {
                lhs.terms.push((a.clone(), *c));
            } else {
                rhs.terms.push((a.clone(), -*c));
            }
        }
        // `lhs - rhs - 1 >= 0` is exactly `lhs > rhs`.
        let op = if op == ">=" && x.cst == -1 && !lhs.terms.is_empty() {
            ">"
        } else {
            if x.cst > 0 {
                lhs.cst = x.cst;
            } else {
                rhs.cst = -x.cst;
            }
            op
        };
        format!("{} {op} {}", self.pexpr(&lhs), self.pexpr(&rhs))
    }

    fn pexpr(&self, e: &PExpr) -> String {
        let mut parts: Vec<String> = Vec::new();
        for (a, c) in &e.terms {
            let name = match a {
                Atom::Slot(i) => slot_var(*i),
                Atom::Var(n) => format!("{}_", n.to_lowercase()),
            };
            match *c {
                1 => parts.push(name),
                -1 => parts.push(format!("-{name}")),
                c => parts.push(format!("{c} * {name}")),
            }
        }
        if e.cst != 0 || parts.is_empty() {
            parts.push(format!("{}", e.cst));
        }
        parts.join(" + ").replace("+ -", "- ")
    }

    /// AffineExpr (over loop vars / params) → Rust i64 expression.
    fn affine(&self, e: &bernoulli_ir::AffineExpr) -> String {
        let mut parts: Vec<String> = Vec::new();
        for (v, c) in e.terms() {
            let name = format!("{}_", v.to_lowercase());
            match c {
                1 => parts.push(name),
                -1 => parts.push(format!("-{name}")),
                c => parts.push(format!("{c} * {name}")),
            }
        }
        if e.cst() != 0 || parts.is_empty() {
            parts.push(format!("{}", e.cst()));
        }
        parts.join(" + ").replace("+ -", "- ")
    }
}

fn slot_var(i: usize) -> String {
    format!("v{i}")
}

fn pos_var(rid: usize, lev: usize) -> String {
    format!("p{rid}_{lev}")
}

fn ok_var(rid: usize, lev: usize) -> String {
    format!("ok{rid}_{lev}")
}

fn invariant_var(k: usize) -> String {
    format!("inv{k}__")
}

/// How every emitted function opens; its name follows, and occurs
/// nowhere else in the text.
const FN_OPEN: &str = "pub fn ";

/// An emitted module with the function's name left open: the text up to
/// the name and the text after it.
#[derive(Clone, Debug)]
pub(crate) struct ModuleText {
    head: String,
    tail: String,
}

impl ModuleText {
    /// The module with its function called `fn_name`.
    pub(crate) fn named(&self, fn_name: &str) -> String {
        let mut out = String::with_capacity(self.head.len() + fn_name.len() + self.tail.len());
        out.push_str(&self.head);
        out.push_str(fn_name);
        out.push_str(&self.tail);
        out
    }
}

/// Emits a complete module: header comment, imports, and one function.
pub fn emit_module(
    p: &Program,
    plan: &Plan,
    views: &HashMap<String, FormatView>,
    fn_name: &str,
) -> Result<String, EmitError> {
    Ok(emit_module_open(p, plan, views)?.named(fn_name))
}

/// [`emit_module`] for every name at once.
pub(crate) fn emit_module_open(
    p: &Program,
    plan: &Plan,
    views: &HashMap<String, FormatView>,
) -> Result<ModuleText, EmitError> {
    let body = emit_rust(p, plan, views, "")?;
    let tail = body
        .strip_prefix(FN_OPEN)
        .ok_or_else(|| EmitError(format!("an emitted function opens with {FN_OPEN:?}")))?;
    let needs_random = plan.execs.iter().any(|e| {
        e.sources
            .iter()
            .any(|s| matches!(s, Some(ValueSource::Random { .. })))
    });
    let mut used_types: Vec<String> = Vec::new();
    for a in &p.arrays {
        if let Some(v) = views.get(&a.name) {
            let ty = rust_type(&v.name)?;
            let base = ty.split('<').next().unwrap_or(&ty).to_string();
            if !used_types.contains(&base) {
                used_types.push(base);
            }
        }
    }
    let mut head = String::new();
    head.push_str("// GENERATED by bernoulli-synth — do not edit by hand.\n");
    head.push_str("// Regenerated and checked by the kernel fidelity tests in bernoulli-blas.\n");
    if !used_types.is_empty() {
        let _ = writeln!(
            head,
            "use bernoulli_formats::{{{}}};",
            used_types.join(", ")
        );
    }
    if needs_random {
        head.push_str("#[allow(unused_imports)]\nuse bernoulli_formats::SparseMatrix as _;\n");
    }
    head.push('\n');
    head.push_str(FN_OPEN);
    Ok(ModuleText {
        head,
        tail: tail.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Session;
    use bernoulli_formats::formats::{bsr, coo, csc, csr, dia, ell, jad, sky, vbr};
    use bernoulli_formats::view::{Bound, StoredGuarantee};
    use bernoulli_ir::parse_program;

    const TS: &str = "program ts(N) { in matrix L[N][N]; inout vector b[N];
        for j in 0..N { b[j] = b[j] / L[j][j];
          for i in j+1..N { b[i] = b[i] - L[i][j] * b[j]; } } }";
    const MVM: &str = "program mvm(M, N) { in matrix A[M][N]; in vector x[N]; inout vector y[M];
        for i in 0..M { for j in 0..N { y[i] = y[i] + A[i][j] * x[j]; } } }";
    /// `y += strictly-lower(A)·x`: one statement, guarded `j < i`.
    const STRICT_LOWER: &str =
        "program sl(N) { in matrix A[N][N]; in vector x[N]; inout vector y[N];
        for i in 0..N { for j in 0..i { y[i] = y[i] + A[i][j] * x[j]; } } }";

    type Outcome<T> = Result<T, Box<dyn std::error::Error>>;

    fn lower_triangular(mut v: FormatView) -> FormatView {
        v.bounds.push(Bound::attr_ge("r", "c"));
        v.guarantees.push(StoredGuarantee::FullDiagonal);
        v
    }

    /// A program, its best plan with `matrix` stored as `view`, and the
    /// view map `emit_rust` takes.
    struct Case {
        p: Program,
        plan: Plan,
        views: HashMap<String, FormatView>,
    }

    impl Case {
        fn of(src: &str, matrix: &str, view: FormatView) -> Outcome<Case> {
            let p = parse_program(src)?;
            let session = Session::new();
            let bound = session.bind(&p, &[(matrix, view.clone())])?;
            let plan = session.compile(&bound)?.plan().clone();
            let views = HashMap::from([(matrix.to_string(), view)]);
            Ok(Case { p, plan, views })
        }

        fn emit(&self, plan: &Plan) -> Outcome<String> {
            Ok(emit_rust(&self.p, plan, &self.views, "k")?)
        }

        fn split(&self) -> Option<EdgeSplit> {
            find_edge_split(&self.p, &self.plan)
        }

        /// No split, and the text of the same plan without a proof.
        fn assert_unsplit(&self, what: &str) -> Outcome<()> {
            assert!(self.split().is_none(), "{what}");
            let text = self.emit(&self.plan)?;
            assert!(!text.contains("span__"), "{what}:\n{text}");
            assert_eq!(text, self.emit(&unproved(&self.plan))?, "{what}");
            Ok(())
        }
    }

    /// The same plan as lowering leaves it without a proof.
    fn unproved(plan: &Plan) -> Plan {
        let mut plan = plan.clone();
        for s in &mut plan.steps {
            s.edge_bound = None;
        }
        plan
    }

    #[test]
    fn edge_split_fires_on_the_triangular_solves() -> Outcome<()> {
        for (name, view, edge, main_loop) in [
            (
                "csr",
                csr::csr_format_view(),
                Edge::Last,
                "for p0_1 in span__.start..span__.end - 1 {",
            ),
            (
                "csc",
                csc::csc_format_view(),
                Edge::First,
                "for p0_1 in span__.start + 1..span__.end {",
            ),
            (
                "jad",
                jad::jad_format_view(),
                Edge::Last,
                "for d__ in span__.start..span__.end - 1 {",
            ),
            (
                "sky",
                sky::sky_format_view(),
                Edge::Last,
                "for v1 in span__.start..span__.end - 1 {",
            ),
        ] {
            let case = Case::of(TS, "L", lower_triangular(view))?;
            let bound = case.plan.steps.last().and_then(|s| s.edge_bound.as_ref());
            assert_eq!(
                bound.map(|b| b.edge),
                Some(edge),
                "ts/{name}:\n{}",
                case.plan
            );
            let split = case.split().ok_or_else(|| format!("ts/{name}: no split"))?;
            // The pivot statement stays at the edge; the other loses
            // its guard.
            assert_eq!(split.main.len(), 1, "ts/{name}");
            assert!(split.main[0].guards.is_empty(), "ts/{name}");
            assert_eq!(
                split.invariants.len(),
                usize::from(name == "csc"),
                "ts/{name}"
            );
            let text = case.emit(&case.plan)?;
            assert!(text.contains(main_loop), "ts/{name}:\n{text}");
            // Both guards appear once: at the edge position.
            let strict = if edge == Edge::First {
                "v1 > v0"
            } else {
                "v0 > v1"
            };
            for guard in ["if v1 == v0 {", strict] {
                assert_eq!(
                    text.matches(guard).count(),
                    1,
                    "ts/{name}, {guard}:\n{text}"
                );
            }
        }
        Ok(())
    }

    #[test]
    fn edge_split_fires_on_a_strictly_lower_product() -> Outcome<()> {
        let case = Case::of(STRICT_LOWER, "A", lower_triangular(csr::csr_format_view()))?;
        let split = case.split().ok_or("no split")?;
        assert_eq!(split.edge, Edge::Last);
        let text = case.emit(&case.plan)?;
        assert!(
            text.contains("for p0_1 in span__.start..span__.end - 1 {"),
            "{text}"
        );
        assert_eq!(text.matches("if v0 > v1 {").count(), 1, "{text}");
        // Without the view's bound nothing proves where the diagonal is.
        Case::of(STRICT_LOWER, "A", csr::csr_format_view())?.assert_unsplit("no bound")
    }

    #[test]
    fn edge_split_refuses_what_it_cannot_prove() -> Outcome<()> {
        for (name, view) in [
            ("csr", csr::csr_format_view()),
            ("csc", csc::csc_format_view()),
            ("coo", coo::coo_format_view()),
            ("dia", dia::dia_format_view()),
            ("ell", ell::ell_format_view()),
            ("jad", jad::jad_format_view()),
            ("sky", sky::sky_format_view()),
            ("bsr2x2", bsr::bsr_format_view(2, 2)),
            ("vbr", vbr::vbr_format_view()),
        ] {
            let case = Case::of(MVM, "A", view)?;
            assert!(
                case.plan.steps.iter().all(|s| s.edge_bound.is_none()),
                "mvm/{name}"
            );
            case.assert_unsplit(&format!("mvm/{name}"))?;
        }

        // An unordered level.
        Case::of(TS, "L", lower_triangular(coo::coo_format_view()))?.assert_unsplit("ts/coo")?;

        // No bound on the view: same plan, same text as ever.
        let mut diagonal_only = csr::csr_format_view();
        diagonal_only.guarantees.push(StoredGuarantee::FullDiagonal);
        let stripped = Case::of(TS, "L", diagonal_only)?;
        stripped.assert_unsplit("ts/csr without its bound")?;
        let proved = Case::of(TS, "L", lower_triangular(csr::csr_format_view()))?;
        assert_eq!(
            stripped.emit(&stripped.plan)?,
            proved.emit(&unproved(&proved.plan))?
        );

        // A recorded bound does not decide a guard with another
        // coefficient on the slot.
        let mut doubled = proved;
        for e in &mut doubled.plan.execs {
            for g in &mut e.guards {
                if let Guard::Ge(x) = g {
                    for (_, c) in &mut x.terms {
                        *c *= 2;
                    }
                }
            }
        }
        assert!(doubled
            .plan
            .steps
            .last()
            .is_some_and(|s| s.edge_bound.is_some()));
        doubled.assert_unsplit("coefficient 2")?;

        // Nor does lowering record one where the strict guard is over
        // a divisor-bound variable (`2j == c`), not the slot.
        let strided = STRICT_LOWER.replace("y[i] + A[i][j] * x[j]", "y[i] + A[i][2*j] * x[j]");
        Case::of(&strided, "A", lower_triangular(csr::csr_format_view()))?
            .assert_unsplit("a strided column")
    }
}
