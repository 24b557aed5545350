//! Lowering: from (space, embedding, groups, directions) to an
//! enumeration-based [`Plan`] (paper §4.1).
//!
//! Each stepped group is given an *enumeration source*:
//!
//! - **Level**: enumerate a participating reference's chain level
//!   (data-centric); references on the same matrix with identical
//!   position provenance share the cursor (the trivial common
//!   enumeration), references on other matrices are located by
//!   per-value searches (index/hash join);
//! - **MergeJoin**: co-enumerate two sorted levels (merge join);
//! - **Interval**: enumerate the dense value range and search every
//!   participating level — the Fig. 9 pattern (`search(...unmap(r))`)
//!   that triangular solve on JAD requires.
//!
//! After the steps are fixed, every statement copy gets its
//! loop-variable bindings (by incremental solution of its match
//! equations), residual guards (simplified away when the polyhedral
//! context implies them), and value sources for its sparse accesses.

use crate::config::Config;
use crate::embed::Embedding;
use crate::groups::GroupInfo;
use crate::plan::{
    Atom, Dir, Edge, EdgeBound, ExecStmt, Guard, LevelRef, PExpr, Plan, PlanRef, SearchPart, Step,
    StepKind, ValueSource,
};
use crate::spaces::{DimKind, Space};
use bernoulli_formats::view::{FormatView, Order, SearchKind};
use bernoulli_ir::{AffineExpr, ArrayKind, Program};
use bernoulli_polyhedra::{Constraint, LinExpr, System};
use std::collections::HashMap;

/// How many source combinations to explore per candidate.
const MAX_SOURCE_COMBOS: usize = 24;

/// One match equation of a statement copy.
#[derive(Clone, Debug)]
struct EqItem {
    /// Affine expression over the statement's loop variables and params.
    expr: AffineExpr,
    /// `Some(slot)`: `expr == slot value`; `None`: `expr == 0` (a chain
    /// constraint).
    slot: Option<usize>,
    /// Step that bound the slot (`usize::MAX` for chain constraints).
    step: usize,
    /// Real equations come from groups containing a dimension the
    /// statement owns (or from chain constraints); rider equations are
    /// artifacts of the embedding's ride-along expressions and are
    /// dropped — the statement is hoisted out of those steps instead.
    real: bool,
    /// The statement owns a data dimension in the equation's group (its
    /// stored entries drive the enumeration there).
    owns_data: bool,
}

#[derive(Clone)]
struct LState {
    /// dim index -> slot index (for dims bound at runtime).
    dim_slot: HashMap<usize, usize>,
    /// (ref, level) -> positioned?
    positioned: HashMap<(usize, usize), bool>,
    /// per ref: provenance token per level (for sharing decisions).
    prov: HashMap<(usize, usize), u64>,
    /// per ref: may its position be missing at runtime (searched a
    /// compressed level)?
    may_miss: HashMap<usize, bool>,
    /// per ref: restricted to stored entries (any compressed level
    /// positioned)?
    restricted: HashMap<usize, bool>,
    /// pending level bindings: (ref, level) -> per-slot value exprs
    /// (filled as groups bind attrs; searched when complete).
    pending: HashMap<(usize, usize), Vec<Option<(PExpr, Option<String>)>>>,
    steps: Vec<Step>,
    nslots: usize,
    notes: Vec<String>,
    /// searches scheduled during the current step (attached to it after
    /// the step is pushed).
    sched: Vec<SearchPart>,
    /// accumulated match equations per statement copy.
    eqs: Vec<Vec<EqItem>>,
    /// known constraints over slots+params (for guard simplification).
    known: KnownSys,
    /// Pattern facts valid only when a particular (searched, fallible)
    /// reference is present: `(ref_id, expr >= 0)`. Applied per-exec for
    /// statements that require the reference.
    ref_facts: Vec<(usize, PExpr)>,
}

/// A growing polyhedral context over slot values and parameters.
#[derive(Clone)]
struct KnownSys {
    /// variable names: "s0", "s1", ... then parameter names.
    sys: System,
    nslots: usize,
    params: Vec<String>,
}

impl KnownSys {
    fn new(params: &[String]) -> KnownSys {
        let mut names: Vec<String> = Vec::new();
        for p in params {
            names.push(p.clone());
        }
        KnownSys {
            sys: System::new(names),
            nslots: 0,
            params: params.to_vec(),
        }
    }

    fn add_slot(&mut self) -> usize {
        let s = self.nslots;
        self.nslots += 1;
        self.sys.add_var(format!("s{s}"));
        s
    }

    fn pexpr_to_lin(&self, e: &PExpr) -> Option<LinExpr> {
        let n = self.sys.num_vars();
        let mut le = LinExpr::zero(n);
        for (a, c) in &e.terms {
            let idx = match a {
                Atom::Slot(i) => self.params.len() + *i,
                Atom::Var(v) => self.sys.var_index(v)?,
            };
            le.coeffs[idx] += bernoulli_numeric::Rational::int(*c as i128);
        }
        le.cst = bernoulli_numeric::Rational::int(e.cst as i128);
        Some(le)
    }

    /// Records `lo <= slot < hi` (ignored if bounds reference unknowns).
    fn add_interval(&mut self, slot: usize, lo: &PExpr, hi: &PExpr) {
        let sv = {
            let n = self.sys.num_vars();
            LinExpr::var(n, self.params.len() + slot)
        };
        if let Some(l) = self.pexpr_to_lin(lo) {
            self.sys.add(Constraint::ge0(&sv - &l));
        }
        if let Some(h) = self.pexpr_to_lin(hi) {
            let n = self.sys.num_vars();
            let one = LinExpr::constant(n, 1);
            self.sys.add(Constraint::ge0(&(&h - &sv) - &one));
        }
    }

    /// Records a general `e >= 0` fact.
    fn add_ge(&mut self, e: &PExpr) {
        if let Some(l) = self.pexpr_to_lin(e) {
            self.sys.add(Constraint::ge0(l));
        }
    }

    /// Is `g` implied by the known context?
    fn implies(&self, g: &Guard) -> bool {
        match g {
            Guard::Eq(e) => self
                .pexpr_to_lin(e)
                .is_some_and(|l| self.sys.implies(&Constraint::eq0(l))),
            Guard::Ge(e) => self
                .pexpr_to_lin(e)
                .is_some_and(|l| self.sys.implies(&Constraint::ge0(l))),
            Guard::Divides(..) => false,
        }
    }

    /// Is `g` unsatisfiable under the known context?
    fn refutes(&self, g: &Guard) -> bool {
        match g {
            Guard::Eq(e) => self.pexpr_to_lin(e).is_some_and(|l| {
                let mut s = self.sys.clone();
                s.add(Constraint::eq0(l));
                s.is_empty()
            }),
            Guard::Ge(e) => self.pexpr_to_lin(e).is_some_and(|l| {
                let mut s = self.sys.clone();
                s.add(Constraint::ge0(l));
                s.is_empty()
            }),
            Guard::Divides(..) => false,
        }
    }
}

/// Lowers a legal candidate into a bounded number of alternative plans
/// (one per feasible enumeration-source combination).
#[allow(clippy::too_many_arguments, clippy::only_used_in_recursion)]
pub fn lower_plans(
    p: &Program,
    cfg: &Config,
    space: &Space,
    emb: &Embedding,
    groups: &GroupInfo,
    must_increase: &[bool],
    views: &HashMap<String, FormatView>,
    deps: &[bernoulli_ir::DepClass],
    relaxable: &[bool],
    relax_reductions: bool,
) -> Vec<Plan> {
    let params = p.params.clone();
    let stepped = groups.stepped_groups();
    let init = LState {
        dim_slot: HashMap::new(),
        positioned: HashMap::new(),
        prov: HashMap::new(),
        may_miss: HashMap::new(),
        restricted: HashMap::new(),
        pending: HashMap::new(),
        steps: Vec::new(),
        nslots: 0,
        notes: Vec::new(),
        sched: Vec::new(),
        eqs: cfg
            .stmts
            .iter()
            .map(|sc| {
                sc.refs
                    .iter()
                    .flat_map(|&rid| cfg.refs[rid].constraints.iter())
                    .map(|(lhs, rhs)| EqItem {
                        expr: lhs - rhs,
                        slot: None,
                        step: usize::MAX,
                        real: true,
                        owns_data: false,
                    })
                    .collect()
            })
            .collect(),
        known: KnownSys::new(&params),
        ref_facts: Vec::new(),
    };
    let mut done: Vec<LState> = Vec::new();
    explore(
        p,
        cfg,
        space,
        emb,
        groups,
        must_increase,
        views,
        &stepped,
        0,
        init,
        &mut done,
    );
    done.into_iter()
        .filter_map(|st| {
            finish_plan(
                p,
                cfg,
                space,
                emb,
                groups,
                views,
                deps,
                relaxable,
                relax_reductions,
                st,
            )
        })
        .collect()
}

/// DFS over source choices group by group.
#[allow(clippy::too_many_arguments, clippy::only_used_in_recursion)]
fn explore(
    p: &Program,
    cfg: &Config,
    space: &Space,
    emb: &Embedding,
    groups: &GroupInfo,
    must_increase: &[bool],
    views: &HashMap<String, FormatView>,
    stepped: &[usize],
    gi: usize,
    st: LState,
    done: &mut Vec<LState>,
) {
    if done.len() >= MAX_SOURCE_COMBOS {
        return;
    }
    if gi == stepped.len() {
        done.push(st);
        return;
    }
    let g = stepped[gi];
    let dims = &groups.groups[g];
    // Gather the data-dim participants of this and all same-value dims.
    let mut participants: Vec<(usize, usize, usize, usize)> = Vec::new(); // (ref, level, slot_in_level, dim_idx)
    let mut has_iter = false;
    for &d in dims {
        match space.dims[d].kind {
            DimKind::Data { ref_id, dim_idx } => {
                let rd = &cfg.refs[ref_id].dims[dim_idx];
                participants.push((ref_id, rd.level, rd.slot, dim_idx));
            }
            DimKind::Iter { .. } => has_iter = true,
        }
    }

    // Option A: Level enumeration with each eligible participant as
    // primary.
    let mut tried_any = false;
    let mut primaries: Vec<(usize, usize)> = Vec::new();
    for &(r, l, slot, _) in &participants {
        if slot != 0 {
            continue;
        }
        if primaries.contains(&(r, l)) {
            continue;
        }
        primaries.push((r, l));
    }
    for &(r, l) in &primaries {
        if let Some(next) = try_level_source(
            cfg,
            space,
            emb,
            groups,
            must_increase,
            stepped,
            gi,
            &st,
            r,
            l,
        ) {
            tried_any = true;
            let consumed = consumed_groups(cfg, space, groups, stepped, gi, r, l);
            explore(
                p,
                cfg,
                space,
                emb,
                groups,
                must_increase,
                views,
                stepped,
                gi + consumed,
                next,
                done,
            );
        }
    }

    // Option B: merge join between two sorted single-attr levels on
    // different matrices.
    for a in 0..primaries.len() {
        for b in (a + 1)..primaries.len() {
            let (ra, la) = primaries[a];
            let (rb, lb) = primaries[b];
            if cfg.refs[ra].matrix == cfg.refs[rb].matrix {
                continue;
            }
            if let Some(next) = try_merge_source(
                cfg,
                space,
                emb,
                groups,
                must_increase,
                stepped,
                gi,
                &st,
                (ra, la),
                (rb, lb),
            ) {
                tried_any = true;
                explore(
                    p,
                    cfg,
                    space,
                    emb,
                    groups,
                    must_increase,
                    views,
                    stepped,
                    gi + 1,
                    next,
                    done,
                );
            }
        }
    }

    // Option C: interval enumeration + searches.
    if let Some(next) = try_interval_source(
        p,
        cfg,
        space,
        emb,
        groups,
        stepped,
        gi,
        &st,
        &participants,
        has_iter,
    ) {
        tried_any = true;
        explore(
            p,
            cfg,
            space,
            emb,
            groups,
            must_increase,
            views,
            stepped,
            gi + 1,
            next,
            done,
        );
    }

    let _ = tried_any; // exhausted: no feasible source -> dead branch
}

/// How many stepped groups a Level step on `(r, l)` consumes (1 per
/// attribute of the level that leads its own group).
fn consumed_groups(
    cfg: &Config,
    space: &Space,
    groups: &GroupInfo,
    stepped: &[usize],
    gi: usize,
    r: usize,
    l: usize,
) -> usize {
    let nattrs = cfg.refs[r].chain.levels[l].attrs.len();
    if nattrs == 1 {
        return 1;
    }
    // The following stepped groups must contain the remaining slots of
    // the same level (checked by try_level_source); consume them.
    let mut consumed = 1;
    for s in 1..nattrs {
        let expect = gi + s;
        if expect >= stepped.len() {
            break;
        }
        let g = stepped[expect];
        let has = groups.groups[g].iter().any(|&d| {
            matches!(space.dims[d].kind, DimKind::Data { ref_id, dim_idx }
                if ref_id == r && cfg.refs[r].dims[dim_idx].level == l
                   && cfg.refs[r].dims[dim_idx].slot == s)
        });
        if has {
            consumed += 1;
        } else {
            break;
        }
    }
    consumed
}

/// Attempts a Level-enumeration step with `(r, l)` as primary.
#[allow(clippy::too_many_arguments)]
fn try_level_source(
    cfg: &Config,
    space: &Space,
    emb: &Embedding,
    groups: &GroupInfo,
    must_increase: &[bool],
    stepped: &[usize],
    gi: usize,
    st: &LState,
    r: usize,
    l: usize,
) -> Option<LState> {
    let rinst = &cfg.refs[r];
    let level = &rinst.chain.levels[l];
    let nattrs = level.attrs.len();

    // Prerequisite: r's outer levels positioned, and r itself cannot be
    // missing (a missing primary would silently skip foreign statements).
    for ll in 0..l {
        if !st.positioned.get(&(r, ll)).copied().unwrap_or(false) {
            return None;
        }
    }
    if st.may_miss.get(&r).copied().unwrap_or(false) {
        // Allowed only if every statement requires r; conservatively
        // reject (the Interval source remains available).
        return None;
    }

    // The consumed groups must cover exactly r's slots 0..nattrs of level
    // l, in order.
    let consumed = consumed_groups(cfg, space, groups, stepped, gi, r, l);
    if consumed != nattrs {
        return None;
    }

    // Direction requirements: every must-increase dim bound here needs
    // the level's value order to be Increasing.
    for s in 0..consumed {
        let g = stepped[gi + s];
        for &d in &groups.groups[g] {
            if must_increase[d] {
                // The per-dim value order of the primary's dims.
                let prim_dim = rinst.dims.iter().find(|rd| rd.level == l && rd.slot == s)?;
                if prim_dim.order != Order::Increasing {
                    return None;
                }
            }
        }
    }

    let mut next = st.clone();
    let first_slot = next.nslots;
    let mut binds = Vec::new();
    let mut perms: Vec<Option<String>> = Vec::new();
    for s in 0..consumed {
        let g = stepped[gi + s];
        let slot = next.known.add_slot();
        next.nslots += 1;
        for &d in &groups.groups[g] {
            next.dim_slot.insert(d, slot);
            binds.push(space.dims[d].name.clone());
        }
        let prim_dim = rinst.dims.iter().find(|rd| rd.level == l && rd.slot == s)?;
        perms.push(prim_dim.perm.clone());
    }

    // Position the primary; mark restriction if the level is compressed.
    position_ref(
        &mut next,
        r,
        l,
        hash2(1, r as u64 * 31 + l as u64),
        !level.interval,
    );

    // Other participants of the consumed groups.
    let mut sharers: Vec<(usize, usize)> = Vec::new();
    let mut search_levels: Vec<(usize, usize)> = Vec::new();
    for s in 0..consumed {
        let g = stepped[gi + s];
        for &d in &groups.groups[g] {
            if let DimKind::Data { ref_id, dim_idx } = space.dims[d].kind {
                if ref_id == r {
                    continue;
                }
                let rd = &cfg.refs[ref_id].dims[dim_idx];
                // Record this attr's value for the pending level binding.
                let slot = next.dim_slot[&d];
                record_pending(
                    &mut next,
                    cfg,
                    ref_id,
                    rd.level,
                    rd.slot,
                    PExpr::slot(slot),
                    rd.perm.clone(),
                );
                // Sharing: same matrix, same chain, same provenance above.
                let other = &cfg.refs[ref_id];
                let can_share = other.matrix == rinst.matrix
                    && other.chain.id == rinst.chain.id
                    && rd.level == l
                    && rd.slot == s
                    && prov_equal(st, ref_id, r, l);
                if can_share {
                    if !sharers.contains(&(ref_id, rd.level)) {
                        sharers.push((ref_id, rd.level));
                    }
                } else if !search_levels.contains(&(ref_id, rd.level)) {
                    search_levels.push((ref_id, rd.level));
                }
            }
        }
    }
    for &(ref_id, lev) in &sharers {
        // Sharers adopt the primary's provenance.
        position_ref(
            &mut next,
            ref_id,
            lev,
            hash2(1, r as u64 * 31 + l as u64),
            !level.interval,
        );
        // Their pending entry is resolved by sharing.
        next.pending.remove(&(ref_id, lev));
    }

    // Record equations for all consumed groups. An *outermost* interval
    // level visits every value of the dense extent (a permuted interval
    // level still visits every value, in scrambled order), so any
    // statement's matching equation is realizable there. Inner interval
    // levels (e.g. DIA's per-diagonal offset range) only span a
    // sub-range and do not qualify.
    let visits_all = level.interval && l == 0;
    record_equations(
        cfg, space, emb, groups, stepped, gi, consumed, &mut next, visits_all,
    );

    // Flush any completed pending searches.
    flush_pending(cfg, &mut next);

    let step = Step {
        kind: StepKind::Level {
            primary: LevelRef {
                matrix: rinst.matrix.clone(),
                ref_id: r,
                chain: rinst.chain.id,
                level: l,
            },
            perms,
        },
        dir: Dir::Fwd,
        ordered: false,   // set by finish_plan
        edge_bound: None, // set by finish_plan
        first_slot,
        nslots: consumed,
        sharers,
        searches: Vec::new(),
        binds,
    };
    next.steps.push(step);
    // Attach searches scheduled during this step to it.
    attach_scheduled_searches(cfg, &mut next);
    Some(next)
}

/// Attempts a merge join between two single-attribute sorted levels.
#[allow(clippy::too_many_arguments)]
fn try_merge_source(
    cfg: &Config,
    space: &Space,
    emb: &Embedding,
    groups: &GroupInfo,
    must_increase: &[bool],
    stepped: &[usize],
    gi: usize,
    st: &LState,
    (ra, la): (usize, usize),
    (rb, lb): (usize, usize),
) -> Option<LState> {
    let a = &cfg.refs[ra];
    let b = &cfg.refs[rb];
    if a.chain.levels[la].attrs.len() != 1 || b.chain.levels[lb].attrs.len() != 1 {
        return None;
    }
    let da = a.dims.iter().find(|d| d.level == la && d.slot == 0)?;
    let db = b.dims.iter().find(|d| d.level == lb && d.slot == 0)?;
    if da.order != Order::Increasing || db.order != Order::Increasing {
        return None;
    }
    if da.perm.is_some() || db.perm.is_some() {
        return None;
    }
    for ll in 0..la {
        if !st.positioned.get(&(ra, ll)).copied().unwrap_or(false) {
            return None;
        }
    }
    for ll in 0..lb {
        if !st.positioned.get(&(rb, ll)).copied().unwrap_or(false) {
            return None;
        }
    }
    if st.may_miss.get(&ra).copied().unwrap_or(false)
        || st.may_miss.get(&rb).copied().unwrap_or(false)
    {
        return None;
    }

    let g = stepped[gi];
    // Direction requirements are satisfied: merge join yields increasing
    // keys.
    let _ = must_increase;

    let mut next = st.clone();
    let first_slot = next.nslots;
    let slot = next.known.add_slot();
    next.nslots += 1;
    let mut binds = Vec::new();
    for &d in &groups.groups[g] {
        next.dim_slot.insert(d, slot);
        binds.push(space.dims[d].name.clone());
    }
    position_ref(&mut next, ra, la, hash2(2, (ra * 31 + la) as u64), true);
    position_ref(&mut next, rb, lb, hash2(3, (rb * 31 + lb) as u64), true);

    // Other participants (neither a nor b) are searched.
    for &d in &groups.groups[g] {
        if let DimKind::Data { ref_id, dim_idx } = space.dims[d].kind {
            if ref_id == ra || ref_id == rb {
                continue;
            }
            let rd = &cfg.refs[ref_id].dims[dim_idx];
            record_pending(
                &mut next,
                cfg,
                ref_id,
                rd.level,
                rd.slot,
                PExpr::slot(slot),
                rd.perm.clone(),
            );
        }
    }
    record_equations(cfg, space, emb, groups, stepped, gi, 1, &mut next, false);
    flush_pending(cfg, &mut next);

    next.steps.push(Step {
        ordered: false,   // set by finish_plan
        edge_bound: None, // set by finish_plan
        kind: StepKind::MergeJoin {
            a: LevelRef {
                matrix: a.matrix.clone(),
                ref_id: ra,
                chain: a.chain.id,
                level: la,
            },
            b: LevelRef {
                matrix: b.matrix.clone(),
                ref_id: rb,
                chain: b.chain.id,
                level: lb,
            },
        },
        dir: Dir::Fwd,
        first_slot,
        nslots: 1,
        sharers: Vec::new(),
        searches: Vec::new(),
        binds,
    });
    attach_scheduled_searches(cfg, &mut next);
    Some(next)
}

/// Attempts interval enumeration of the group's common value.
#[allow(clippy::too_many_arguments)]
fn try_interval_source(
    p: &Program,
    cfg: &Config,
    space: &Space,
    emb: &Embedding,
    groups: &GroupInfo,
    stepped: &[usize],
    gi: usize,
    st: &LState,
    participants: &[(usize, usize, usize, usize)],
    has_iter: bool,
) -> Option<LState> {
    let g = stepped[gi];
    // Determine bounds.
    let bounds: Option<(PExpr, PExpr)> = if let Some(&(r, _l, _s, dim_idx)) = participants.first() {
        // Data-led: the range of the dimension's dense image (e.g. the
        // column extent for DIA's offset `o = c`, `[-(N-1), M)` for its
        // diagonal `d = r - c`).
        extent_range(p, cfg, r, dim_idx)
    } else if has_iter {
        // Iteration-led: the loop bounds, with outer variables
        // substituted through the statement's current bindings.
        let &d0 = groups.groups[g].first()?;
        let DimKind::Iter { stmt, loop_idx } = space.dims[d0].kind else {
            return None;
        };
        let (_, lo, hi) = &cfg.stmts[stmt].info.loops[loop_idx];
        let subst = solve_bindings(cfg, stmt, &st.eqs[stmt]);
        let lo = affine_to_pexpr(lo, p, &subst)?;
        let hi = affine_to_pexpr(hi, p, &subst)?;
        Some((lo, hi))
    } else {
        None
    };
    let (lo, hi) = bounds?;

    // Every participating (ref, level) attr gets a pending value; levels
    // that complete will be searched — which requires search support.
    // Parents need not be positioned yet: the pending mechanism holds the
    // key until the ancestor levels are bound by later steps (e.g. the
    // column-first TS/DIA plan binds the offset before the diagonal).
    for &(r, l, _s, _) in participants {
        if cfg.refs[r].chain.levels[l].search == SearchKind::None {
            return None;
        }
    }

    let mut next = st.clone();
    let first_slot = next.nslots;
    let slot = next.known.add_slot();
    next.nslots += 1;
    let mut binds = Vec::new();
    for &d in &groups.groups[g] {
        next.dim_slot.insert(d, slot);
        binds.push(space.dims[d].name.clone());
    }
    next.known.add_interval(slot, &lo, &hi);

    for &(r, l, s, dim_idx) in participants {
        let rd = &cfg.refs[r].dims[dim_idx];
        let _ = s;
        record_pending(
            &mut next,
            cfg,
            r,
            l,
            rd.slot,
            PExpr::slot(slot),
            rd.perm.clone(),
        );
    }
    record_equations(cfg, space, emb, groups, stepped, gi, 1, &mut next, true);
    flush_pending(cfg, &mut next);

    next.steps.push(Step {
        kind: StepKind::Interval { lo, hi },
        dir: Dir::Fwd,
        ordered: false,   // set by finish_plan
        edge_bound: None, // set by finish_plan

        first_slot,
        nslots: 1,
        sharers: Vec::new(),
        searches: Vec::new(),
        binds,
    });
    attach_scheduled_searches(cfg, &mut next);
    Some(next)
}

// ---------------------------------------------------------------------
// Shared helpers
// ---------------------------------------------------------------------

fn hash2(tag: u64, x: u64) -> u64 {
    tag.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(x)
}

fn prov_equal(st: &LState, a: usize, b: usize, upto_level: usize) -> bool {
    (0..upto_level).all(|l| st.prov.get(&(a, l)).copied() == st.prov.get(&(b, l)).copied())
}

fn position_ref(st: &mut LState, r: usize, l: usize, prov: u64, compressed: bool) {
    st.positioned.insert((r, l), true);
    st.prov.insert((r, l), prov);
    if compressed {
        st.restricted.insert(r, true);
    }
}

fn record_pending(
    st: &mut LState,
    cfg: &Config,
    r: usize,
    l: usize,
    slot_in_level: usize,
    value: PExpr,
    perm: Option<String>,
) {
    let nattrs = cfg.refs[r].chain.levels[l].attrs.len();
    let entry = st
        .pending
        .entry((r, l))
        .or_insert_with(|| vec![None; nattrs]);
    entry[slot_in_level] = Some((value, perm));
}

/// Searches every pending level that is complete and whose parents are
/// positioned; records the scheduled searches in a side list consumed by
/// `attach_scheduled_searches`.
fn flush_pending(cfg: &Config, st: &mut LState) {
    loop {
        let mut ready: Vec<(usize, usize)> = st
            .pending
            .iter()
            .filter(|((r, l), v)| {
                v.iter().all(|x| x.is_some())
                    && (0..*l).all(|ll| st.positioned.get(&(*r, ll)).copied().unwrap_or(false))
                    && !st.positioned.get(&(*r, *l)).copied().unwrap_or(false)
            })
            .map(|(&k, _)| k)
            .collect();
        ready.sort_unstable();
        if ready.is_empty() {
            return;
        }
        // Group ready searches by content: same matrix, chain, level and
        // key expressions locate the same position, so later refs share
        // the first ref's search (and its provenance, enabling cursor
        // sharing at deeper levels).
        let mut by_content: Vec<(String, Vec<(usize, usize)>)> = Vec::new();
        for (r, l) in ready {
            // Completeness is the `ready` filter's invariant.
            let Some(keys) = st.pending.get(&(r, l)) else {
                continue;
            };
            let rinst = &cfg.refs[r];
            let content = format!("{}#{}@{l}:{:?}", rinst.matrix, rinst.chain.id, keys);
            match by_content.iter_mut().find(|(c, _)| *c == content) {
                Some((_, v)) => v.push((r, l)),
                None => by_content.push((content, vec![(r, l)])),
            }
        }
        for (content, members) in by_content {
            let prov = {
                let mut h = 0xcbf29ce484222325u64;
                for b in content.bytes() {
                    h = (h ^ b as u64).wrapping_mul(0x100000001b3);
                }
                h
            };
            let (r0, l0) = members[0];
            let Some(keys) = st.pending.remove(&(r0, l0)) else {
                continue;
            };
            // Every slot is Some by the `ready` filter above.
            let keys: Vec<(PExpr, Option<String>)> = keys.into_iter().flatten().collect();
            let rinst = &cfg.refs[r0];
            let compressed = !rinst.chain.levels[l0].interval;
            // A search of the *outermost* interval level with permutation
            // keys cannot miss: the inverse permutation is a bijection on
            // the full extent (the paper's `unmap(r)` in Fig. 9 always
            // lands on a row). Every other search may miss at runtime —
            // compressed levels reject absent keys, and inner interval
            // levels (DIA offsets, skyline strips) reject keys outside
            // their per-parent sub-range.
            let infallible = l0 == 0
                && rinst.chain.levels[l0].interval
                && keys.iter().all(|(_, perm)| perm.is_some());
            st.scheduled_searches_push(SearchPart {
                target: LevelRef {
                    matrix: rinst.matrix.clone(),
                    ref_id: r0,
                    chain: rinst.chain.id,
                    level: l0,
                },
                keys,
                sharers: members[1..].to_vec(),
            });
            for &(r, l) in &members {
                st.pending.remove(&(r, l));
                position_ref(st, r, l, prov, !infallible);
                if !infallible {
                    st.may_miss.insert(r, true);
                }
            }
            let _ = compressed;
        }
    }
}

impl LState {
    fn scheduled_searches_push(&mut self, sp: SearchPart) {
        self.sched.push(sp);
    }
}

fn attach_scheduled_searches(cfg: &Config, st: &mut LState) {
    let _ = cfg;
    let sched = std::mem::take(&mut st.sched);
    if let Some(last) = st.steps.last_mut() {
        last.searches.extend(sched);
    }
}

#[allow(clippy::too_many_arguments)]
fn record_equations(
    cfg: &Config,
    space: &Space,
    emb: &Embedding,
    groups: &GroupInfo,
    stepped: &[usize],
    gi: usize,
    consumed: usize,
    st: &mut LState,
    all_values_visited: bool,
) {
    let step = st.steps.len(); // the step about to be pushed
    for s in 0..consumed {
        let g = stepped[gi + s];
        let leader = groups.groups[g][0];
        let slot = st.dim_slot[&leader];
        for k in 0..cfg.stmts.len() {
            // Real iff the step actually realizes this copy's instances
            // at the equation's value: the copy owns a data dimension of
            // the group (its stored entries drive or join the
            // enumeration), or the source visits *every* value of the
            // range (interval enumeration — dense steps realize any
            // statement's matching equation).
            let owns_data = groups.groups[g].iter().any(|&d| {
                matches!(space.dims[d].kind, DimKind::Data { ref_id, .. }
                    if cfg.refs[ref_id].stmt == k)
            });
            let real = owns_data || all_values_visited;
            st.eqs[k].push(EqItem {
                expr: emb.at(k, leader).clone(),
                slot: Some(slot),
                step,
                real,
                owns_data,
            });
        }
    }
}

fn dense_attr(attr: &str) -> bool {
    matches!(attr, "r" | "c" | "i")
}

/// The extent (exclusive upper bound) of a dense attribute of a matrix,
/// from the program declaration.
fn extent_expr(p: &Program, matrix: &str, attr: &str) -> Option<PExpr> {
    let decl = p.array(matrix)?;
    let dim = match (decl.kind, attr) {
        (ArrayKind::Matrix, "r") => &decl.dims[0],
        (ArrayKind::Matrix, "c") => &decl.dims[1],
        (ArrayKind::Vector, "i") | (ArrayKind::Matrix, "i") => &decl.dims[0],
        _ => return None,
    };
    affine_to_pexpr_params(dim)
}

/// The half-open value range `[lo, hi)` of a reference dimension,
/// computed from its dense image: each dense attribute ranges over
/// `[0, extent)`, so an affine image `Σ c·a + k` ranges over the interval
/// obtained by extremizing each term.
fn extent_range(
    p: &Program,
    cfg: &Config,
    ref_id: usize,
    dim_idx: usize,
) -> Option<(PExpr, PExpr)> {
    let rinst = &cfg.refs[ref_id];
    let image = crate::config::dim_value_in_dense(rinst, dim_idx)?;
    let mut lo = PExpr::constant(image.cst());
    let mut hi = PExpr::constant(image.cst());
    for (a, c) in image.terms() {
        let ext = extent_expr(p, &rinst.matrix, a)?; // exclusive bound
                                                     // max attr value is ext - 1.
        if c > 0 {
            for (at, cc) in &ext.terms {
                hi.add_term(at.clone(), c * cc);
            }
            hi.cst += c * (ext.cst - 1);
        } else {
            for (at, cc) in &ext.terms {
                lo.add_term(at.clone(), c * cc);
            }
            lo.cst += c * (ext.cst - 1);
        }
    }
    hi.cst += 1; // exclusive
    Some((lo, hi))
}

/// Converts an affine expression over parameters only.
fn affine_to_pexpr_params(e: &AffineExpr) -> Option<PExpr> {
    let mut out = PExpr::constant(e.cst());
    for (v, c) in e.terms() {
        out.add_term(Atom::Var(v.to_string()), c);
    }
    Some(out)
}

/// Converts an affine expression over loop vars + params to a PExpr over
/// slots + params, given variable bindings. Fails if a loop variable is
/// unbound or bound with a divisor.
fn affine_to_pexpr(
    e: &AffineExpr,
    p: &Program,
    subst: &HashMap<String, (PExpr, i64)>,
) -> Option<PExpr> {
    let mut out = PExpr::constant(e.cst());
    for (v, c) in e.terms() {
        if p.params.iter().any(|q| q == v) {
            out.add_term(Atom::Var(v.to_string()), c);
        } else {
            let (pe, div) = subst.get(v)?;
            if *div != 1 {
                return None;
            }
            for (a, cc) in &pe.terms {
                out.add_term(a.clone(), c * cc);
            }
            out.cst += c * pe.cst;
        }
    }
    Some(out)
}

/// Greedy multi-pass solution of a statement's match equations:
/// `var -> (expr over slots/params, divisor)`. Only *real* equations
/// participate.
fn solve_bindings(cfg: &Config, stmt: usize, eqs: &[EqItem]) -> HashMap<String, (PExpr, i64)> {
    let loops: Vec<String> = cfg.stmts[stmt]
        .info
        .loops
        .iter()
        .map(|(v, _, _)| v.clone())
        .collect();
    let mut subst: HashMap<String, (PExpr, i64)> = HashMap::new();
    loop {
        let mut progressed = false;
        for item in eqs {
            if !item.real {
                continue;
            }
            let e = &item.expr;
            // residual = slot - e, with bound (div=1) vars substituted.
            let mut rest = match item.slot {
                Some(slot) => PExpr::slot(slot),
                None => PExpr::constant(0),
            };
            rest.cst -= e.cst();
            let mut unknowns: Vec<(String, i64)> = Vec::new();
            let mut divisor_blocked = false;
            for (v, c) in e.terms() {
                if !loops.iter().any(|l| l == v) {
                    rest.add_term(Atom::Var(v.to_string()), -c); // parameter
                } else if let Some((pe, div)) = subst.get(v) {
                    if *div != 1 {
                        divisor_blocked = true;
                        break;
                    }
                    for (a, cc) in &pe.terms {
                        rest.add_term(a.clone(), -c * cc);
                    }
                    rest.cst -= c * pe.cst;
                } else {
                    unknowns.push((v.to_string(), c));
                }
            }
            if divisor_blocked || unknowns.len() != 1 {
                continue;
            }
            let Some((v, c)) = unknowns.pop() else {
                continue;
            };
            // c * v = rest  =>  v = rest / c
            let (num, den) = if c < 0 {
                let mut neg = PExpr::constant(-rest.cst);
                for (a, cc) in &rest.terms {
                    neg.add_term(a.clone(), -cc);
                }
                (neg, -c)
            } else {
                (rest, c)
            };
            subst.insert(v, (num, den));
            progressed = true;
        }
        if !progressed {
            return subst;
        }
    }
}

/// Builds the final plan: execs with bindings, guards, sources.
#[allow(clippy::too_many_arguments)]
fn finish_plan(
    p: &Program,
    cfg: &Config,
    space: &Space,
    emb: &Embedding,
    groups: &GroupInfo,
    views: &HashMap<String, FormatView>,
    deps: &[bernoulli_ir::DepClass],
    relaxable: &[bool],
    relax_reductions: bool,
    mut st: LState,
) -> Option<Plan> {
    let _ = (emb, groups);
    // Extend known context with array extents for slots bound to dense
    // attrs through Level steps (interval steps recorded their bounds
    // already).
    for step in &st.steps {
        if let StepKind::Level { primary, .. } = &step.kind {
            for s in 0..step.nslots {
                let slot = step.first_slot + s;
                let rinst = &cfg.refs[primary.ref_id];
                if let Some(rd) = rinst
                    .dims
                    .iter()
                    .find(|rd| rd.level == primary.level && rd.slot == s)
                {
                    if dense_attr(&rd.attr) {
                        if let Some(hi) = extent_expr(p, &rinst.matrix, &rd.attr) {
                            st.known.add_interval(slot, &PExpr::constant(0), &hi);
                        }
                    }
                }
            }
        }
    }
    // Format bounds (e.g. r >= c for a lower-triangular matrix) over any
    // ref whose attr dims all have slots.
    for rid in 0..cfg.refs.len() {
        if let Some(view) = views.get(&cfg.refs[rid].matrix) {
            add_view_bound_knowledge(cfg, space, &st.dim_slot.clone(), &mut st, rid, view);
        }
    }
    // Stored-entry range knowledge: a reference whose every level is
    // positioned by enumeration (never by a fallible search) only ever
    // presents *stored* entries, whose dense coordinates lie inside the
    // declared array extents — e.g. DIA's `(d + o, o)` is always a valid
    // `(r, c)`, so the loop-bound guards on mapped coordinates vanish.
    for rid in 0..cfg.refs.len() {
        add_stored_entry_knowledge(p, cfg, space, &st.dim_slot.clone(), &mut st, rid);
    }

    let nsteps = st.steps.len();
    let mut execs = Vec::new();
    // Each exec's knowledge context, kept for the edge-bound proof.
    let mut exec_contexts: Vec<KnownSys> = Vec::new();
    'stmt: for (k, scopy) in cfg.stmts.iter().enumerate() {
        // Prune copies whose domain (loop bounds ∧ chain constraints) is
        // empty — e.g. the diagonal-chain copy of a strictly-lower-
        // triangle statement.
        if copy_domain_empty(p, cfg, k) {
            st.notes
                .push(format!("S{}.{k} pruned: empty domain", scopy.orig + 1));
            continue 'stmt;
        }

        // Completeness: demote real equations whose required values the
        // enumeration cannot be proven to visit (the statement hoists out
        // of those steps instead of silently losing instances).
        demote_incomplete_eqs(p, cfg, &mut st, k);

        // Hoisting depth: the leading run of steps that are *real* for
        // this copy. Real steps beyond a rider step cannot be expressed
        // as a single nest — reject the candidate.
        // A step is real for this copy only when *every* equation it
        // contributes there is real (multi-slot steps must be all-real to
        // recover consistent coordinates).
        let mut real_step = vec![true; nsteps];
        let mut has_eq = vec![false; nsteps];
        for item in &st.eqs[k] {
            if item.step != usize::MAX {
                has_eq[item.step] = true;
                real_step[item.step] &= item.real;
            }
        }
        for (r, h) in real_step.iter_mut().zip(&has_eq) {
            *r &= *h;
        }
        let depth = real_step.iter().take_while(|&&r| r).count();
        if real_step[depth..].iter().any(|&r| r) {
            return None; // non-prefix real set: needs loop distribution
        }

        let subst = solve_bindings(cfg, k, &st.eqs[k]);
        // All loop variables must be recoverable.
        for (v, _, _) in &scopy.info.loops {
            if !subst.contains_key(v) {
                return None; // infeasible candidate
            }
        }

        // Value sources first: the set of required (restricting) refs
        // decides which pattern facts may simplify this copy's guards. A
        // hoisted copy only trusts positions established at steps it
        // actually iterates (its prefix).
        let naccesses = scopy.info.accesses().len();
        let mut sources: Vec<Option<ValueSource>> = vec![None; naccesses];
        let mut required = Vec::new();
        let n_copies = cfg.stmts.iter().filter(|s2| s2.orig == scopy.orig).count();
        for &rid in &scopy.refs {
            let rinst = &cfg.refs[rid];
            let nlevels = rinst.chain.levels.len();
            let full = (0..nlevels).all(|l| st.positioned.get(&(rid, l)).copied().unwrap_or(false));
            // An aggregation (∪) copy covers exactly its chain's stored
            // entries; it must reach them *through the chain* (full
            // positioning), or a random-access fallback would re-read
            // entries owned by sibling copies and double-count.
            if !full && n_copies > 1 {
                return None;
            }
            sources[rinst.access_idx] = Some(if full {
                ValueSource::Position { ref_id: rid }
            } else {
                ValueSource::Random { ref_id: rid }
            });
            if st.restricted.get(&rid).copied().unwrap_or(false) {
                required.push(rid);
            }
        }

        // Knowledge context for THIS copy: global facts plus the pattern
        // facts of references whose presence gates the copy's execution.
        let exec_known = {
            let mut kn = st.known.clone();
            for (rid, e) in &st.ref_facts {
                if required.contains(rid) {
                    kn.add_ge(e);
                }
            }
            kn
        };
        // Bindings in dependency order: div=1 first (they may appear in
        // guards), then divisor bindings.
        let mut bindings: Vec<(String, PExpr, i64)> = Vec::new();
        for (v, _, _) in &scopy.info.loops {
            let (pe, d) = subst[v].clone();
            bindings.push((v.clone(), pe, d));
        }
        let mut guards: Vec<Guard> = Vec::new();
        {
            let mut names: Vec<&String> = subst.keys().collect();
            names.sort();
            for v in names {
                let (num, den) = &subst[v];
                if *den != 1 {
                    guards.push(Guard::Divides(num.clone(), *den));
                }
            }
        }

        // Residual match equations (real only; riders are hoisted away).
        for item in &st.eqs[k] {
            if !item.real {
                continue;
            }
            let e = &item.expr;
            // substitute ALL vars (guards run after bindings, so Var
            // atoms referring to loop vars are fine).
            let mut g = match item.slot {
                Some(slot) => PExpr::slot(slot),
                None => PExpr::constant(0),
            };
            g.cst -= e.cst();
            let mut trivially_bound = true;
            for (v, c) in e.terms() {
                if p.params.iter().any(|q| q == v) {
                    g.add_term(Atom::Var(v.to_string()), -c);
                } else if let Some((pe, d)) = subst.get(v) {
                    if *d == 1 {
                        for (a, cc) in &pe.terms {
                            g.add_term(a.clone(), -c * cc);
                        }
                        g.cst -= c * pe.cst;
                    } else {
                        g.add_term(Atom::Var(v.to_string()), -c);
                        trivially_bound = false;
                    }
                } else {
                    g.add_term(Atom::Var(v.to_string()), -c);
                    trivially_bound = false;
                }
            }
            if g.terms.is_empty() && g.cst == 0 {
                continue; // identically satisfied
            }
            if g.terms.is_empty() && g.cst != 0 {
                // The statement (with a non-empty domain) would never
                // execute: the plan loses instances — reject it.
                return None;
            }
            let guard = Guard::Eq(g);
            if trivially_bound && exec_known.implies(&guard) {
                st.notes.push(format!(
                    "S{}.{k}: dropped implied guard {guard}",
                    scopy.orig + 1
                ));
                continue;
            }
            guards.push(guard);
        }

        // Loop-bound guards.
        for (v, lo, hi) in &scopy.info.loops {
            // v - lo >= 0 and hi - 1 - v >= 0
            let ge1 = bound_guard(p, &subst, v, lo, false);
            let ge2 = bound_guard(p, &subst, v, hi, true);
            for g in [ge1, ge2].into_iter().flatten() {
                if exec_known.refutes(&g) {
                    // A refuted bound on a non-empty domain means lost
                    // instances: reject the candidate (for a required-ref
                    // context the refutation means the statement never
                    // meets a stored entry, which annihilation/coverage
                    // must sanction — conservatively reject here too; the
                    // empty-domain prune above already handled the sound
                    // cases).
                    return None;
                }
                if exec_known.implies(&g) {
                    st.notes.push(format!(
                        "S{}.{k}: dropped implied bound {g}",
                        scopy.orig + 1
                    ));
                } else {
                    guards.push(g);
                }
            }
        }

        execs.push(ExecStmt {
            stmt: k,
            orig: scopy.orig,
            body: scopy.info.stmt.clone(),
            bindings,
            guards,
            sources,
            required_refs: required,
            depth,
            after: true,
        });
        exec_contexts.push(exec_known);
    }

    // Placement search + authoritative execution-order verification.
    let hoisted: Vec<usize> = execs
        .iter()
        .enumerate()
        .filter(|(_, e)| e.depth < nsteps)
        .map(|(i, _)| i)
        .collect();
    let step_ordered: Vec<bool> = st.steps.iter().map(step_ordered_increasing(cfg)).collect();
    for (step, &ord) in st.steps.iter_mut().zip(&step_ordered) {
        step.ordered = ord;
    }
    let ncombos = 1usize << hoisted.len().min(4);
    let mut verified = false;
    for m in 0..ncombos {
        for (bit, &ei) in hoisted.iter().enumerate() {
            execs[ei].after = (m >> bit) & 1 == 0; // all-after first
        }
        if verify_exec_order(
            cfg,
            deps,
            relaxable,
            relax_reductions,
            &execs,
            &st.eqs,
            &st.steps,
            &step_ordered,
        )
        .is_ok()
        {
            verified = true;
            break;
        }
    }
    if !verified {
        return None;
    }
    for &ei in &hoisted {
        st.notes.push(format!(
            "S{}.{} hoisted to depth {} ({})",
            execs[ei].orig + 1,
            execs[ei].stmt,
            execs[ei].depth,
            if execs[ei].after { "after" } else { "before" }
        ));
    }
    let edge_bound = prove_edge_bound(&st.steps, &execs, &exec_contexts);
    if let (Some(bound), Some(last)) = (edge_bound, st.steps.last_mut()) {
        st.notes.push(format!(
            "innermost step: {} >= 0 at every position, > 0 at all but the {}",
            bound.margin(last.first_slot),
            match bound.edge {
                Edge::First => "first",
                Edge::Last => "last",
            }
        ));
        last.edge_bound = Some(bound);
    }

    if execs.is_empty() {
        return None;
    }

    let refs = cfg
        .refs
        .iter()
        .map(|r| PlanRef {
            matrix: r.matrix.clone(),
            chain: r.chain.id,
            levels: r.chain.levels.len(),
            access: r
                .access
                .iter()
                .map(|e| {
                    let mut pe = PExpr::constant(e.cst());
                    for (v, c) in e.terms() {
                        pe.add_term(Atom::Var(v.to_string()), c);
                    }
                    pe
                })
                .collect(),
        })
        .collect();

    Some(Plan {
        steps: st.steps,
        execs,
        refs,
        space_desc: space.describe(),
        nslots: st.nslots,
        notes: st.notes,
    })
}

/// The [`EdgeBound`] of the innermost step, when there is one to prove.
///
/// Asked only of an ordered, forward, single-slot level enumeration
/// whose full-depth statements are all guarded against one pivot — by
/// `slot` strictly beyond it, all on one side, or by `slot == pivot`.
/// The proof is one implication per such statement, in that statement's
/// own context (facts of a fallible reference hold only where the
/// reference is present) — which is loop-invariant because the step
/// locates nothing by search, so the bound holds at the edge position
/// whenever the statement runs at any other.
fn prove_edge_bound(
    steps: &[Step],
    execs: &[ExecStmt],
    contexts: &[KnownSys],
) -> Option<EdgeBound> {
    let last = steps.last()?;
    if !last.ordered
        || last.dir != Dir::Fwd
        || last.nslots != 1
        || !last.searches.is_empty()
        || !matches!(last.kind, StepKind::Level { .. })
    {
        return None;
    }
    let slot = last.first_slot;
    let inner = || {
        execs
            .iter()
            .zip(contexts)
            .filter(|(e, _)| e.depth == steps.len())
    };
    // Candidates: a strict guard `margin - 1 >= 0` with a unit
    // coefficient on the slot names its side and, solved for the slot,
    // its pivot.
    let candidate = |g: &Guard| {
        let Guard::Ge(x) = g else { return None };
        let (_, c) = x.terms.iter().find(|(a, _)| *a == Atom::Slot(slot))?;
        let mut margin = x.clone();
        margin.cst += 1;
        match c {
            1 => Some(EdgeBound {
                edge: Edge::First,
                pivot: PExpr::slot(slot).minus(&margin),
            }),
            -1 => {
                margin.add_term(Atom::Slot(slot), 1);
                Some(EdgeBound {
                    edge: Edge::Last,
                    pivot: margin,
                })
            }
            _ => None,
        }
    };
    inner()
        .flat_map(|(e, _)| e.guards.iter().filter_map(candidate))
        .find(|bound| {
            inner().all(|(e, _)| e.guards.iter().any(|g| bound.off_edge(slot, g).is_some()))
                && inner().all(|(_, known)| known.implies(&Guard::Ge(bound.margin(slot))))
        })
}

fn bound_guard(
    p: &Program,
    subst: &HashMap<String, (PExpr, i64)>,
    v: &str,
    bound: &AffineExpr,
    upper: bool,
) -> Option<Guard> {
    // lower: v - bound >= 0;  upper: bound - 1 - v >= 0
    let to_pe = |e: &AffineExpr| -> PExpr {
        let mut out = PExpr::constant(e.cst());
        for (x, c) in e.terms() {
            if p.params.iter().any(|q| q == x) {
                out.add_term(Atom::Var(x.to_string()), c);
            } else if let Some((pe, d)) = subst.get(x) {
                if *d == 1 {
                    for (a, cc) in &pe.terms {
                        out.add_term(a.clone(), c * cc);
                    }
                    out.cst += c * pe.cst;
                } else {
                    out.add_term(Atom::Var(x.to_string()), c);
                }
            } else {
                out.add_term(Atom::Var(x.to_string()), c);
            }
        }
        out
    };
    let vv = to_pe(&AffineExpr::var(v));
    let b = to_pe(bound);
    let mut g = PExpr::constant(0);
    if upper {
        for (a, c) in &b.terms {
            g.add_term(a.clone(), *c);
        }
        g.cst += b.cst - 1;
        for (a, c) in &vv.terms {
            g.add_term(a.clone(), -c);
        }
        g.cst -= vv.cst;
    } else {
        for (a, c) in &vv.terms {
            g.add_term(a.clone(), *c);
        }
        g.cst += vv.cst;
        for (a, c) in &b.terms {
            g.add_term(a.clone(), -c);
        }
        g.cst -= b.cst;
    }
    if g.terms.is_empty() && g.cst >= 0 {
        return None; // trivially true
    }
    Some(Guard::Ge(g))
}

/// If every level of `ref_id` is enumerated (positioned and not
/// may-miss) and every dim has a slot, adds `0 <= dense coord < extent`
/// facts for each affinely-mapped dense attribute.
fn add_stored_entry_knowledge(
    p: &Program,
    cfg: &Config,
    space: &Space,
    dim_slot: &HashMap<usize, usize>,
    st: &mut LState,
    rid: usize,
) {
    let rinst = &cfg.refs[rid];
    let nlevels = rinst.chain.levels.len();
    let fully = (0..nlevels).all(|l| st.positioned.get(&(rid, l)).copied().unwrap_or(false));
    if !fully || st.may_miss.get(&rid).copied().unwrap_or(false) {
        return;
    }
    // stored attr -> slot
    let slot_of_attr = |attr: &str| -> Option<usize> {
        rinst
            .chain
            .levels
            .iter()
            .enumerate()
            .flat_map(|(l, lev)| lev.attrs.iter().enumerate().map(move |(sl, a)| (l, sl, a)))
            .find(|(_, _, a)| a.as_str() == attr)
            .and_then(|(l, sl, _)| rinst.dims.iter().position(|d| d.level == l && d.slot == sl))
            .and_then(|di| {
                space.dims.iter().position(|sd| {
                    matches!(sd.kind, DimKind::Data { ref_id: r2, dim_idx }
                        if r2 == rid && dim_idx == di)
                })
            })
            .and_then(|sdi| dim_slot.get(&sdi).copied())
    };
    for t in &rinst.chain.fwd {
        let bernoulli_formats::view::Transform::Affine { out, terms, cst } = t else {
            continue;
        };
        let Some(pos) = rinst.dense_attrs.iter().position(|a| a == out) else {
            continue;
        };
        let mut e = PExpr::constant(*cst);
        let mut ok = true;
        for (a, c) in terms {
            match slot_of_attr(a) {
                Some(sl) => e.add_term(Atom::Slot(sl), *c),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if !ok {
            continue;
        }
        // 0 <= e and e <= extent - 1
        st.known.add_ge(&e);
        let attr = rinst.dense_attrs[pos].clone();
        if let Some(hi) = extent_expr(p, &rinst.matrix, &attr) {
            let mut ub = hi;
            ub.cst -= 1;
            for (a, c) in &e.terms {
                ub.add_term(a.clone(), -c);
            }
            ub.cst -= e.cst;
            st.known.add_ge(&ub);
        }
    }
}

/// Adds a reference's view bounds (over dense attrs) to the known
/// context, when the corresponding dims have slots.
fn add_view_bound_knowledge(
    cfg: &Config,
    space: &Space,
    dim_slot: &HashMap<usize, usize>,
    st: &mut LState,
    ref_id: usize,
    view: &FormatView,
) {
    let rinst = &cfg.refs[ref_id];
    // Facts from a reference that may be missing at runtime (some level
    // located by a fallible search) hold only where the reference is
    // present — record them per-ref; statements requiring the reference
    // get them, others must not.
    let fallible = st.may_miss.get(&ref_id).copied().unwrap_or(false);
    for b in &view.bounds {
        // Bound over dense attrs: translate each attr to the slot of the
        // ref dim with that value attribute (must exist and be slotted).
        let mut e = PExpr::constant(b.cst);
        let mut ok = true;
        for (attr, c) in &b.terms {
            let slot = rinst
                .dims
                .iter()
                .position(|d| &d.attr == attr)
                .and_then(|di| {
                    space.dims.iter().position(|sd| {
                        matches!(sd.kind, DimKind::Data { ref_id: r2, dim_idx }
                            if r2 == ref_id && dim_idx == di)
                    })
                })
                .and_then(|sdi| dim_slot.get(&sdi).copied());
            match slot {
                Some(s) => e.add_term(Atom::Slot(s), *c),
                None => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            if fallible {
                st.ref_facts.push((ref_id, e));
            } else {
                st.known.add_ge(&e);
            }
        }
    }
}

/// The copy's iteration domain (loop bounds ∧ chain constraints) as a
/// polyhedron over `[loop vars..., params...]`, with the name→index map.
fn copy_domain(p: &Program, cfg: &Config, k: usize) -> (System, HashMap<String, usize>) {
    let scopy = &cfg.stmts[k];
    let mut names: Vec<String> = scopy.info.loops.iter().map(|(v, _, _)| v.clone()).collect();
    for q in &p.params {
        names.push(q.clone());
    }
    let n = names.len();
    let index: HashMap<String, usize> = names
        .iter()
        .enumerate()
        .map(|(i, s)| (s.clone(), i))
        .collect();
    let mut sys = System::new(names);
    for (v, lo, hi) in &scopy.info.loops {
        let vv = LinExpr::var(n, index[v]);
        sys.add_ge(&vv, &lo.to_linexpr(n, &index));
        let hi_e = hi.to_linexpr(n, &index);
        let one = LinExpr::constant(n, 1);
        sys.add(Constraint::ge0(&(&hi_e - &vv) - &one));
    }
    for &rid in &scopy.refs {
        for (lhs, rhs) in &cfg.refs[rid].constraints {
            let diff = lhs - rhs;
            sys.add(Constraint::eq0(diff.to_linexpr(n, &index)));
        }
    }
    (sys, index)
}

/// Is the copy's iteration domain empty? Used to prune, e.g., the
/// diagonal-chain copy of a strictly sub-diagonal statement.
fn copy_domain_empty(p: &Program, cfg: &Config, k: usize) -> bool {
    copy_domain(p, cfg, k).0.is_empty()
}

/// Completeness: a *real* equation at an all-values-visited step promises
/// that every domain instance's required value is actually enumerated.
/// Equations whose required values can escape the enumerated range are
/// demoted to riders (the statement hoists out of that step instead);
/// demotion cascades because interval bounds may reference other slots.
fn demote_incomplete_eqs(p: &Program, cfg: &Config, st: &mut LState, k: usize) {
    let (domain, index) = copy_domain(p, cfg, k);
    if domain.is_empty() {
        return;
    }
    let nvars = domain.num_vars();
    loop {
        let mut demote: Option<usize> = None;
        'eqs: for (ei, item) in st.eqs[k].iter().enumerate() {
            if !item.real || item.step == usize::MAX || item.owns_data {
                continue;
            }
            let step = &st.steps[item.step];
            // Range of the enumerated values, as affine exprs over the
            // statement's variables and parameters.
            let range: Option<(AffineExpr, AffineExpr)> = match &step.kind {
                StepKind::Interval { lo, hi } => {
                    let subst = |pe: &PExpr| -> Option<AffineExpr> {
                        let mut out = AffineExpr::constant(pe.cst);
                        for (a, c) in &pe.terms {
                            match a {
                                Atom::Var(v) => out.add_term(v, *c),
                                Atom::Slot(sl) => {
                                    let other = st.eqs[k]
                                        .iter()
                                        .find(|it| it.real && it.slot == Some(*sl))?;
                                    for (v2, c2) in other.expr.terms() {
                                        out.add_term(v2, c * c2);
                                    }
                                    let add = other.expr.cst() * c;
                                    out.set_cst(out.cst() + add);
                                }
                            }
                        }
                        Some(out)
                    };
                    match (subst(lo), subst(hi)) {
                        (Some(l), Some(h)) => Some((l, h)),
                        _ => {
                            demote = Some(ei);
                            break 'eqs;
                        }
                    }
                }
                StepKind::Level { primary, .. } => {
                    // visits-all level (outermost interval): range is the
                    // dense extent of the primary dim's value attribute.
                    let rinst = &cfg.refs[primary.ref_id];
                    let di = rinst
                        .dims
                        .iter()
                        .position(|d| d.level == primary.level && d.slot == 0);
                    match di.and_then(|di| extent_range_affine(p, cfg, primary.ref_id, di)) {
                        Some(r) => Some(r),
                        None => {
                            demote = Some(ei);
                            break 'eqs;
                        }
                    }
                }
                StepKind::MergeJoin { .. } => None, // owns_data-only realness
            };
            let Some((lo, hi)) = range else { continue };
            // domain ⊨ lo <= expr  and  expr <= hi - 1 ?
            let e = item.expr.to_linexpr(nvars, &index);
            let lo_e = lo.to_linexpr(nvars, &index);
            let hi_e = hi.to_linexpr(nvars, &index);
            let one = LinExpr::constant(nvars, 1);
            let c1 = Constraint::ge0(&e - &lo_e);
            let c2 = Constraint::ge0(&(&hi_e - &e) - &one);
            if !domain.implies(&c1) || !domain.implies(&c2) {
                demote = Some(ei);
                break 'eqs;
            }
        }
        match demote {
            Some(ei) => {
                st.eqs[k][ei].real = false;
            }
            None => return,
        }
    }
}

/// Like [`extent_range`] but producing affine expressions over parameter
/// names (for implication checks in statement-variable space).
fn extent_range_affine(
    p: &Program,
    cfg: &Config,
    ref_id: usize,
    dim_idx: usize,
) -> Option<(AffineExpr, AffineExpr)> {
    let (lo, hi) = extent_range(p, cfg, ref_id, dim_idx)?;
    let conv = |pe: &PExpr| -> Option<AffineExpr> {
        let mut out = AffineExpr::constant(pe.cst);
        for (a, c) in &pe.terms {
            match a {
                Atom::Var(v) => out.add_term(v, *c),
                Atom::Slot(_) => return None,
            }
        }
        Some(out)
    };
    Some((conv(&lo)?, conv(&hi)?))
}

/// Does a step enumerate its slot values in increasing order?
fn step_ordered_increasing(cfg: &Config) -> impl Fn(&Step) -> bool + '_ {
    move |step: &Step| match &step.kind {
        StepKind::Interval { .. } => step.dir == Dir::Fwd,
        StepKind::MergeJoin { .. } => true,
        StepKind::Level { primary, perms } => {
            if perms.iter().any(|p| p.is_some()) {
                return false; // permutation scrambles values
            }
            let rinst = &cfg.refs[primary.ref_id];
            (0..step.nslots).all(|s| {
                rinst
                    .dims
                    .iter()
                    .find(|rd| rd.level == primary.level && rd.slot == s)
                    .is_some_and(|rd| rd.order == Order::Increasing)
            })
        }
    }
}

/// Extended value for the step-order walk: finite affine, or the
/// ±∞ placement codes of a hoisted statement.
enum Ext {
    Fin(LinExpr),
    Neg,
    Pos,
}

/// Authoritative verification that the lowered plan executes every
/// dependence class source before its destination, under the actual
/// semantics (hoisted statements run before/after the deeper subtree,
/// rider equations dropped).
#[allow(clippy::too_many_arguments)]
fn verify_exec_order(
    cfg: &Config,
    deps: &[bernoulli_ir::DepClass],
    relaxable: &[bool],
    relax_reductions: bool,
    execs: &[ExecStmt],
    eqs: &[Vec<EqItem>],
    steps: &[Step],
    step_ordered: &[bool],
) -> Result<(), String> {
    for (ci, class) in deps.iter().enumerate() {
        if relax_reductions && relaxable[ci] {
            continue;
        }
        for (sei, se) in execs.iter().enumerate() {
            if se.orig != class.src {
                continue;
            }
            for (dei, de) in execs.iter().enumerate() {
                if de.orig != class.dst {
                    continue;
                }
                verify_pair(cfg, class, se, de, sei, dei, eqs, steps, step_ordered)?;
            }
        }
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn verify_pair(
    _cfg: &Config,
    class: &bernoulli_ir::DepClass,
    se: &ExecStmt,
    de: &ExecStmt,
    sei: usize,
    dei: usize,
    eqs: &[Vec<EqItem>],
    steps: &[Step],
    step_ordered: &[bool],
) -> Result<(), String> {
    let mut sys = class.sys.clone();
    let n = sys.num_vars();
    let index: HashMap<String, usize> = sys
        .vars()
        .iter()
        .enumerate()
        .map(|(i, v)| (v.clone(), i))
        .collect();

    let value_of = |e: &ExecStmt, si: usize, slot: usize, suffix: &str| -> Ext {
        if si >= e.depth {
            return if e.after { Ext::Pos } else { Ext::Neg };
        }
        let item = eqs[e.stmt]
            .iter()
            .find(|it| it.real && it.slot == Some(slot))
            .expect("real equation exists for every step within depth");
        let renamed = item.expr.rename(|v| {
            if index.contains_key(v) {
                v.to_string()
            } else {
                format!("{v}{suffix}")
            }
        });
        Ext::Fin(renamed.to_linexpr(n, &index))
    };

    for (si, step) in steps.iter().enumerate() {
        for s in 0..step.nslots {
            if sys.is_empty() {
                return Ok(());
            }
            let slot = step.first_slot + s;
            let sv = value_of(se, si, slot, "@s");
            let dv = value_of(de, si, slot, "@d");
            match (sv, dv) {
                (Ext::Fin(a), Ext::Fin(b)) => {
                    let d = &b - &a;
                    if sys.forces_zero(&d) {
                        continue;
                    }
                    if !step_ordered[si] {
                        return Err(format!(
                            "unordered step {si} must carry part of {}",
                            class.describe()
                        ));
                    }
                    if !sys.implies(&Constraint::ge0(d.clone())) {
                        return Err(format!(
                            "step {si} can run destination before source for {}",
                            class.describe()
                        ));
                    }
                    sys.add(Constraint::eq0(d));
                }
                // Destination placed after everything at this level.
                (Ext::Fin(_), Ext::Pos) | (Ext::Neg, Ext::Fin(_)) | (Ext::Neg, Ext::Pos) => {
                    return Ok(());
                }
                // Destination placed before the source at this level.
                (Ext::Fin(_), Ext::Neg) | (Ext::Pos, Ext::Fin(_)) | (Ext::Pos, Ext::Neg) => {
                    return Err(format!(
                        "placement runs destination before source for {}",
                        class.describe()
                    ));
                }
                (Ext::Pos, Ext::Pos) | (Ext::Neg, Ext::Neg) => continue,
            }
        }
    }
    if sys.is_empty() {
        return Ok(());
    }
    // Identical points: emission order must put the source first.
    if sei < dei {
        Ok(())
    } else {
        Err(format!(
            "dependent instances at identical points, emission order violates {}",
            class.describe()
        ))
    }
}
