//! Codegen decisions: what the emitter does to a plan beyond printing it.
//!
//! The paper's §4 code reaches the hand-written NIST kernels (Fig. 9,
//! Fig. 12) through a few transformations of the plan's loops: scalar
//! replacement of the innermost step's accumulator; edge splitting of
//! an ordered innermost enumeration whose bound lowering proved;
//! register tiling of blocked row walks; and a row-band entry, through
//! which a loaded kernel's `run` splits a large operand's rows over the
//! worker pool and the cache-blocked CSR walk steps. [`Codegen::of`]
//! makes each of these decisions once, from the plan, the program and
//! the views, and never fails: a transformation that does not apply is
//! absent from the record. [`crate::emit`] prints from the record and
//! decides nothing; the driver's `compiled` module reads its kernel
//! crate's entry points from it.
//!
//! A transformation stays only while turning it off alone shows an
//! effect (EXPERIMENTS.md, PR 48, has the number of each; the strip
//! tiling's is mixed, a gain on full strips and a loss at partial
//! fill). Two showed none there and went: the triangular solves' pivot
//! division deferred past the inner loop, and the fusion of two
//! guard-disjoint statements into one `if`/`else`. Each acts only at
//! the edge split's one position per row, where the statements are the
//! same and run in the same order either way.
//!
//! The record is derived: nothing persists it, and the interpreter does
//! not read it. A plan-cache entry derives its best plan's record at
//! most once, on the first emission or load, and shares it between its
//! module text and its kernel crate.

use crate::plan::{Atom, Dir, Edge, ExecStmt, Guard, OffEdge, PExpr, Plan, StepKind, ValueSource};
use bernoulli_formats::layout::levels_of_view;
use bernoulli_formats::level::Kind;
use bernoulli_formats::view::FormatView;
use bernoulli_ir::{AffineExpr, Program, Role};
use std::collections::HashMap;

/// Every codegen decision for one plan (see the module docs).
#[derive(Clone, Debug, Default)]
pub struct Codegen {
    promotion: Option<Promotion>,
    split: Option<EdgeSplit>,
    tiling: Option<Tiling>,
    ranged: Option<Ranged>,
    random_access: bool,
}

impl Codegen {
    /// The decisions for `plan`, a plan of `p` over `views`.
    pub fn of(p: &Program, plan: &Plan, views: &HashMap<String, FormatView>) -> Codegen {
        let promotion = find_promotion(p, plan);
        Codegen {
            tiling: promotion.as_ref().and_then(|_| tiling(plan, views)),
            promotion,
            split: find_edge_split(p, plan),
            ranged: ranged(p, plan, views),
            random_access: plan
                .execs
                .iter()
                .flat_map(|e| &e.sources)
                .any(|s| matches!(s, Some(ValueSource::Random { .. }))),
        }
    }

    /// The innermost step's accumulator, held in a register.
    pub fn promotion(&self) -> Option<&Promotion> {
        self.promotion.as_ref()
    }

    /// The edge split of the innermost enumeration.
    pub fn edge_split(&self) -> Option<&EdgeSplit> {
        self.split.as_ref()
    }

    /// The register tiling of a blocked row walk.
    pub fn tiling(&self) -> Option<Tiling> {
        self.tiling
    }

    /// The row-band entry, when bands of rows may run independently:
    /// each statement writes only the row its band enumerates.
    pub fn ranged(&self) -> Option<&Ranged> {
        self.ranged.as_ref()
    }

    /// True when a statement reads a sparse operand by random access
    /// (`SparseMatrix::get`), which the kernel crate cannot express.
    pub fn random_access(&self) -> bool {
        self.random_access
    }
}

/// A proved-safe register promotion of `vec[idx]` across the innermost
/// enumeration (the classical scalar replacement the hand-written NIST
/// kernels perform with a temporary accumulator).
#[derive(Clone, Debug)]
pub struct Promotion {
    pub(crate) array: String,
    /// Index expression over outer-step slots and parameters.
    pub(crate) idx: PExpr,
}

impl Promotion {
    /// Is `array[idx]`, read or written by `e`, the promoted element?
    pub(crate) fn holds(&self, p: &Program, e: &ExecStmt, array: &str, idx: &AffineExpr) -> bool {
        array == self.array && subst_index(e, idx, &p.params).is_some_and(|i| i.same_as(&self.idx))
    }
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
pub struct EdgeSplit {
    pub(crate) edge: Edge,
    /// The full-depth statements of the main loop, decided guards
    /// removed.
    pub(crate) main: Vec<ExecStmt>,
    /// Reads of a vector the main loop writes, at an index the inner
    /// slot does not move and the dropped guards prove different from
    /// every write: bound once before the main loop.
    pub(crate) invariants: Vec<InvariantRead>,
}

impl EdgeSplit {
    /// Which end of the enumeration is the edge position.
    pub fn edge(&self) -> Edge {
        self.edge
    }
}

#[derive(Clone, Debug)]
pub(crate) struct InvariantRead {
    pub(crate) stmt: usize,
    /// Access index of the read within its statement.
    pub(crate) access: usize,
    pub(crate) array: String,
    pub(crate) idx: PExpr,
}

/// The register tiling of a two-step blocked row walk, named by the kind
/// of the level walked within a row.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Tiling {
    /// A `Kind::Blocks` level of `r × c` blocks, `r >= 2`: one walk of a
    /// block row with `r` register accumulators.
    Blocks { r: usize, c: usize },
    /// A `Kind::Strips` level: strip heights are runtime data, so one
    /// walk of a strip's blocks with one accumulator per strip row.
    Strips,
}

/// The row-band entry of a plan: `row_lo__..row_hi__` replaces the
/// outermost row enumeration's bounds, and every write stays in the
/// band, so disjoint bands may run at once.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Ranged {
    pub(crate) outer: String,
    pub(crate) row_blocked: bool,
}

impl Ranged {
    /// The matrix whose rows the outermost step enumerates.
    pub fn outer(&self) -> &str {
        &self.outer
    }

    /// True when the rows below the band are stored compressed, so the
    /// kernel crate's full-range entry walks them in blocks of
    /// `CSR_ROW_BLOCK` rows through the ranged body.
    pub fn row_blocked(&self) -> bool {
        self.row_blocked
    }
}

/// Substitutes an exec's (divisor-free) bindings into an affine index,
/// yielding a PExpr over slots and parameters, or `None` when a variable
/// is unbound or divisor-bound.
fn subst_index(e: &ExecStmt, idx: &AffineExpr, params: &[String]) -> Option<PExpr> {
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

/// Looks for a safe promotion across the innermost step.
fn find_promotion(p: &Program, plan: &Plan) -> Option<Promotion> {
    let nsteps = plan.steps.len();
    let last = plan.steps.last()?;
    let last_slots = last.first_slot..last.first_slot + last.nslots;
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
            || e.guards.iter().any(|g| matches!(g, Guard::Divides(..)))
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
            if !ridx.same_as(&idx) && !guards_prove_nonzero(e, &ridx.minus(&idx)) {
                return None;
            }
        }
    }
    Some(Promotion { array, idx })
}

/// Was (ref, level) positioned by a search (may miss) rather than an
/// enumeration?
pub(crate) fn level_searched(plan: &Plan, rid: usize, lev: usize) -> bool {
    plan.steps.iter().flat_map(|s| &s.searches).any(|sp| {
        (sp.target.ref_id == rid && sp.target.level == lev) || sp.sharers.contains(&(rid, lev))
    })
}

/// The searched levels of a statement's required refs: it executes only
/// where all of them were found (enumerated levels cannot miss).
pub(crate) fn presence_levels(plan: &Plan, e: &ExecStmt) -> Vec<(usize, usize)> {
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

/// The tiling of a two-step plan `rows (level 0) → row's entries (level
/// 1)` of one reference's chain 0, forward, without searches or sharers,
/// whose single full-depth statement reduces into a promoted
/// row-invariant element (the MVM shape).
fn tiling(plan: &Plan, views: &HashMap<String, FormatView>) -> Option<Tiling> {
    let ([s0, s1], [e]) = (plan.steps.as_slice(), plan.execs.as_slice()) else {
        return None;
    };
    let (StepKind::Level { primary: p0, .. }, StepKind::Level { primary: p1, .. }) =
        (&s0.kind, &s1.kind)
    else {
        return None;
    };
    let plain = |s: &crate::plan::Step| {
        s.dir == Dir::Fwd && s.nslots == 1 && s.searches.is_empty() && s.sharers.is_empty()
    };
    if !plain(s0)
        || !plain(s1)
        || (p0.chain, p0.level) != (0, 0)
        || (p1.chain, p1.level) != (0, 1)
        || p0.ref_id != p1.ref_id
        || e.depth != 2
    {
        return None;
    }
    let (levels, block) = levels_of_view(&views.get(&p1.matrix)?.name)?;
    match (levels.level(p1.chain, p1.level)?.kind, block) {
        (Kind::Blocks { .. }, Some((r, c))) if r >= 2 => Some(Tiling::Blocks { r, c }),
        (Kind::Strips(_), _) => Some(Tiling::Strips),
        _ => None,
    }
}

/// The row-band entry, when restricting the plan to a row band
/// enumerates exactly that band's instances *and* writes stay in the
/// band, so the outer row loop carries no dependence (flow, anti or
/// output) and disjoint bands may run concurrently. Three conditions:
///
/// 1. the outermost step enumerates, forward, the outermost level of a
///    view that opens with the dense interval over its rows
///    ([`Levels::rows_outermost`](bernoulli_formats::level::Levels::rows_outermost)),
/// 2. every statement runs inside that step and writes a dense vector
///    at the row it enumerates — mvmᵀ's `y[j]` lands in every band, so
///    two bands would write one element (an output dependence), and
/// 3. no statement reads an output (`out`/`inout`) array anywhere but
///    at the element its own write touches — a cross-row read (e.g. the
///    triangular solve's `b[j]` with `j < i`) makes later rows depend
///    on earlier ones (a flow or anti dependence between bands).
fn ranged(p: &Program, plan: &Plan, views: &HashMap<String, FormatView>) -> Option<Ranged> {
    let step = plan.steps.first()?;
    let StepKind::Level { primary, .. } = &step.kind else {
        return None;
    };
    let (levels, _) = levels_of_view(&views.get(&primary.matrix)?.name)?;
    if step.dir != Dir::Fwd || primary.level != 0 || primary.chain != 0 || !levels.rows_outermost()
    {
        return None;
    }
    // Condition 2: each write is at the band's own row.
    let row = PExpr::slot(step.first_slot);
    let in_band = |e: &ExecStmt| {
        e.depth >= 1
            && e.sources.first().is_some_and(Option::is_none)
            && matches!(&e.body.lhs.idxs[..], [idx]
                if subst_index(e, idx, &p.params).is_some_and(|w| w.same_as(&row)))
    };
    if !plan.execs.iter().all(in_band) {
        return None;
    }
    // Condition 3: every read of a written array must be the
    // accumulator self-read of its own statement.
    for s in p.statements() {
        for r in s.stmt.rhs.reads() {
            let written = p
                .array(&r.array)
                .is_some_and(|a| matches!(a.role, Role::Out | Role::InOut));
            if written && (r.array != s.stmt.lhs.array || r.idxs != s.stmt.lhs.idxs) {
                return None;
            }
        }
    }
    let below = levels.level(0, 1);
    Some(Ranged {
        outer: primary.matrix.clone(),
        row_blocked: below.is_some_and(|l| matches!(l.kind, Kind::Compressed { .. })),
    })
}
