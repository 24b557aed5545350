//! The enumeration-based plan: executable "pseudocode" (paper Figs. 5/8).
//!
//! A [`Plan`] is a linear nest of [`Step`]s — one per common-enumeration
//! group of non-redundant product-space dimensions — with the statement
//! instances executed at the innermost point ([`ExecStmt`]), guarded by
//! whatever match conditions were not absorbed by the enumeration. Plans
//! are both *interpreted* against real formats ([`crate::interp`]) and
//! *emitted* as specialized Rust ([`crate::emit`]).

use bernoulli_ir::expr::SlotExpr;
use bernoulli_ir::Statement;
use std::fmt;

/// Enumeration direction of a step.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Dir {
    /// Increasing values / storage order.
    Fwd,
    /// Decreasing values (interval and reversible levels only).
    Rev,
}

/// An atom of a plan expression.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Atom {
    /// The value bound by step slot `i`.
    Slot(usize),
    /// A named program parameter or (in guards evaluated after variable
    /// binding) a statement loop variable.
    Var(String),
}

/// Affine expression over step slots, parameters and loop variables.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct PExpr {
    pub terms: Vec<(Atom, i64)>,
    pub cst: i64,
}

impl PExpr {
    pub fn constant(c: i64) -> PExpr {
        PExpr {
            terms: Vec::new(),
            cst: c,
        }
    }

    pub fn slot(i: usize) -> PExpr {
        PExpr {
            terms: vec![(Atom::Slot(i), 1)],
            cst: 0,
        }
    }

    pub fn var(name: &str) -> PExpr {
        PExpr {
            terms: vec![(Atom::Var(name.to_string()), 1)],
            cst: 0,
        }
    }

    pub fn add_term(&mut self, a: Atom, c: i64) {
        if c == 0 {
            return;
        }
        if let Some(t) = self.terms.iter_mut().find(|(x, _)| *x == a) {
            t.1 += c;
            if t.1 == 0 {
                self.terms.retain(|(_, c)| *c != 0);
            }
        } else {
            self.terms.push((a, c));
        }
    }

    /// Resolves every atom to a frame slot through `slot_of`, whose
    /// error (an unbound variable, a slot the plan does not have) is
    /// returned as is.
    pub fn resolve<E>(
        &self,
        slot_of: impl FnMut(&Atom) -> Result<usize, E>,
    ) -> Result<SlotExpr, E> {
        SlotExpr::resolve(self.cst, self.terms.iter().map(|(a, c)| (a, *c)), slot_of)
    }

    /// True if the expression references no slots or variables.
    pub fn is_constant(&self) -> bool {
        self.terms.is_empty()
    }

    /// Equality up to term order.
    pub fn same_as(&self, other: &PExpr) -> bool {
        self.cst == other.cst
            && self.terms.len() == other.terms.len()
            && self.terms.iter().all(|t| other.terms.contains(t))
    }

    /// `self - other`.
    pub fn minus(&self, other: &PExpr) -> PExpr {
        let mut out = self.clone();
        for (t, c) in &other.terms {
            out.add_term(t.clone(), -c);
        }
        out.cst -= other.cst;
        out
    }

    /// `-self`.
    pub fn negated(&self) -> PExpr {
        PExpr::constant(0).minus(self)
    }
}

impl fmt::Display for PExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (a, c) in &self.terms {
            let name = match a {
                Atom::Slot(i) => format!("v{i}"),
                Atom::Var(n) => n.clone(),
            };
            if first {
                match c {
                    1 => write!(f, "{name}")?,
                    -1 => write!(f, "-{name}")?,
                    c => write!(f, "{c}*{name}")?,
                }
                first = false;
            } else if *c > 0 {
                if *c == 1 {
                    write!(f, " + {name}")?;
                } else {
                    write!(f, " + {c}*{name}")?;
                }
            } else if *c == -1 {
                write!(f, " - {name}")?;
            } else {
                write!(f, " - {}*{name}", -c)?;
            }
        }
        if first {
            write!(f, "{}", self.cst)?;
        } else if self.cst > 0 {
            write!(f, " + {}", self.cst)?;
        } else if self.cst < 0 {
            write!(f, " - {}", -self.cst)?;
        }
        Ok(())
    }
}

/// A reference to one level of one sparse reference's chain.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct LevelRef {
    pub matrix: String,
    /// Global reference id (indexes [`crate::Config::refs`]).
    pub ref_id: usize,
    /// Chain id within the matrix's view.
    pub chain: usize,
    /// Level within the chain.
    pub level: usize,
}

impl fmt::Display for LevelRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}#{}[chain {} level {}]",
            self.matrix, self.ref_id, self.chain, self.level
        )
    }
}

/// Locating a reference's position at the current point by searching its
/// level.
#[derive(Clone, Debug)]
pub struct SearchPart {
    pub target: LevelRef,
    /// One key per attribute of the target level: the value expression
    /// and, when the level sits under a `perm`, the table whose inverse
    /// translates the value to the stored key.
    pub keys: Vec<(PExpr, Option<String>)>,
    /// Other `(ref, level)` pairs on the same matrix/chain searched with
    /// identical keys: they adopt this search's position and outcome
    /// instead of repeating it.
    pub sharers: Vec<(usize, usize)>,
}

/// How a step binds its slots.
#[derive(Clone, Debug)]
pub enum StepKind {
    /// `for v in lo..hi` (or reversed).
    Interval { lo: PExpr, hi: PExpr },
    /// Enumerate a level of the primary reference's chain. Binds one slot
    /// per level attribute; `perms[slot]` translates stored keys to
    /// values.
    Level {
        primary: LevelRef,
        perms: Vec<Option<String>>,
    },
    /// Co-enumerate two sorted single-attribute levels, binding one slot
    /// with their common keys (merge join).
    MergeJoin { a: LevelRef, b: LevelRef },
}

/// Which end of an ordered enumeration touches its [`EdgeBound`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Edge {
    /// `slot >= pivot` everywhere: only the first position can equal it.
    First,
    /// `slot <= pivot` everywhere: only the last position can equal it.
    Last,
}

/// A proved one-sided bound on every value an ordered step enumerates:
/// `slot >= pivot` ([`Edge::First`]) or `slot <= pivot` ([`Edge::Last`]),
/// `pivot` affine over outer slots and parameters. Because the values
/// strictly increase, every position but the edge one is *strictly*
/// beyond `pivot`, which decides guards of the shapes `slot == pivot`
/// and `slot < pivot` / `slot > pivot` without evaluating them.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct EdgeBound {
    pub edge: Edge,
    pub pivot: PExpr,
}

/// What an [`EdgeBound`] decides about a guard at every position but
/// the edge one.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum OffEdge {
    /// `slot == pivot`: fails.
    Fails,
    /// `slot` strictly beyond `pivot`, on the bound's side: holds.
    Holds,
}

impl EdgeBound {
    /// The quantity the bound keeps non-negative at every position of
    /// `slot`'s enumeration, and positive at every position but the
    /// edge one.
    pub fn margin(&self, slot: usize) -> PExpr {
        let s = PExpr::slot(slot);
        match self.edge {
            Edge::First => s.minus(&self.pivot),
            Edge::Last => self.pivot.minus(&s),
        }
    }

    /// Classifies a guard over `slot` against the bound, or `None` when
    /// the bound does not decide it.
    pub fn off_edge(&self, slot: usize, g: &Guard) -> Option<OffEdge> {
        let margin = self.margin(slot);
        match g {
            Guard::Eq(e) if e.same_as(&margin) || e.same_as(&margin.negated()) => {
                Some(OffEdge::Fails)
            }
            Guard::Ge(e) if e.same_as(&margin.minus(&PExpr::constant(1))) => Some(OffEdge::Holds),
            _ => None,
        }
    }
}

/// One enumeration step.
#[derive(Clone, Debug)]
pub struct Step {
    pub kind: StepKind,
    pub dir: Dir,
    /// Does the step enumerate its slot values in increasing order? Set
    /// by lowering; used where a proof needs the firing order (the
    /// edge bound below).
    pub ordered: bool,
    /// Set by lowering on an ordered innermost step whose full-depth
    /// statements are all guarded against one pivot, when the known
    /// context (view bounds included) proves the bound at every
    /// enumerated position; used by the emitter's edge splitting.
    pub edge_bound: Option<EdgeBound>,
    /// First value slot bound by this step (slots are consecutive).
    pub first_slot: usize,
    /// Number of slots bound.
    pub nslots: usize,
    /// References that reuse the primary cursor's position (same matrix,
    /// same chain, shared ancestors): `(ref_id, level)`.
    pub sharers: Vec<(usize, usize)>,
    /// References located by searching once the slot values are known.
    pub searches: Vec<SearchPart>,
    /// Names of the product-space dimensions bound here (diagnostics).
    pub binds: Vec<String>,
}

/// A guard evaluated before executing a statement instance.
#[derive(Clone, Debug)]
pub enum Guard {
    /// `expr == 0`
    Eq(PExpr),
    /// `expr >= 0`
    Ge(PExpr),
    /// `expr % div == 0`
    Divides(PExpr, i64),
}

impl fmt::Display for Guard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Guard::Eq(e) => write!(f, "{e} == 0"),
            Guard::Ge(e) => write!(f, "{e} >= 0"),
            Guard::Divides(e, d) => write!(f, "({e}) % {d} == 0"),
        }
    }
}

/// Where a statement's sparse access gets its value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ValueSource {
    /// The innermost tracked position of the reference.
    Position { ref_id: usize },
    /// Random access through the high-level API (dense coordinates).
    Random { ref_id: usize },
}

/// One statement instance executed at the innermost point.
#[derive(Clone, Debug)]
pub struct ExecStmt {
    /// Statement copy index (into the configuration).
    pub stmt: usize,
    /// Original statement id.
    pub orig: usize,
    /// The statement body (lhs and rhs), carried so plans are
    /// self-contained at execution time.
    pub body: Statement,
    /// Loop-variable bindings in evaluation order:
    /// `(var, expr, divisor)` meaning `var = expr / divisor` guarded by
    /// `expr % divisor == 0`.
    pub bindings: Vec<(String, PExpr, i64)>,
    /// Residual guards (over slots, params and bound variables).
    pub guards: Vec<Guard>,
    /// Per access index of the statement (0 = write): value source for
    /// sparse accesses; `None` entries are dense accesses.
    pub sources: Vec<Option<ValueSource>>,
    /// Sparse refs whose located position is required for this statement
    /// to execute (restriction to stored entries).
    pub required_refs: Vec<usize>,
    /// Nesting depth: the statement executes once per point of the first
    /// `depth` steps (hoisted out of deeper enumerations).
    pub depth: usize,
    /// Placement of a hoisted statement relative to the deeper steps at
    /// each point of its prefix: after (`true`) or before (`false`).
    pub after: bool,
}

/// Runtime metadata about one sparse reference.
#[derive(Clone, Debug)]
pub struct PlanRef {
    pub matrix: String,
    /// Chain id within the matrix's view.
    pub chain: usize,
    /// Number of levels of the chain.
    pub levels: usize,
    /// Dense access expressions (for random-access fallback), one PExpr
    /// per dense attribute, over the statement's loop variables.
    pub access: Vec<PExpr>,
}

/// A complete synthesized plan.
#[derive(Clone, Debug)]
pub struct Plan {
    pub steps: Vec<Step>,
    pub execs: Vec<ExecStmt>,
    /// Per global reference id: runtime metadata.
    pub refs: Vec<PlanRef>,
    /// Product-space description (diagnostics).
    pub space_desc: String,
    /// Total number of value slots.
    pub nslots: usize,
    /// Free-form notes accumulated during lowering (restrictions proven
    /// safe, guards dropped as implied, ...).
    pub notes: Vec<String>,
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "// product space: {}", self.space_desc)?;
        let mut depth = 0;
        for s in &self.steps {
            let pad = "  ".repeat(depth);
            let dir = match s.dir {
                Dir::Fwd => "increasing",
                Dir::Rev => "decreasing",
            };
            let slots: Vec<String> = (s.first_slot..s.first_slot + s.nslots)
                .map(|i| format!("v{i}"))
                .collect();
            let slots = slots.join(", ");
            match &s.kind {
                StepKind::Interval { lo, hi } => {
                    writeln!(
                        f,
                        "{pad}for {slots} = enumerate [{lo}, {hi}) {dir} {{  // binds {}",
                        s.binds.join(", ")
                    )?;
                }
                StepKind::Level { primary, perms } => {
                    let perm_note = if perms.iter().any(|p| p.is_some()) {
                        " via perm"
                    } else {
                        ""
                    };
                    writeln!(
                        f,
                        "{pad}for {slots} = enumerate {primary}{perm_note} {dir} {{  // binds {}",
                        s.binds.join(", ")
                    )?;
                }
                StepKind::MergeJoin { a, b } => {
                    writeln!(
                        f,
                        "{pad}for {slots} = merge-join {a} with {b} {{  // binds {}",
                        s.binds.join(", ")
                    )?;
                }
            }
            for sp in &s.searches {
                let keys: Vec<String> = sp
                    .keys
                    .iter()
                    .map(|(e, p)| match p {
                        Some(t) => format!("{t}^-1[{e}]"),
                        None => format!("{e}"),
                    })
                    .collect();
                writeln!(
                    f,
                    "{pad}  locate {} at key ({}) else skip dependents",
                    sp.target,
                    keys.join(", ")
                )?;
            }
            depth += 1;
        }
        let pad = "  ".repeat(depth);
        for e in &self.execs {
            let guards: Vec<String> = e.guards.iter().map(|g| g.to_string()).collect();
            let binds: Vec<String> = e
                .bindings
                .iter()
                .map(|(v, ex, d)| {
                    if *d == 1 {
                        format!("{v} = {ex}")
                    } else {
                        format!("{v} = ({ex})/{d}")
                    }
                })
                .collect();
            write!(f, "{pad}S{}.{}: ", e.orig + 1, e.stmt)?;
            if e.depth < self.steps.len() {
                write!(
                    f,
                    "[hoisted to depth {} {}] ",
                    e.depth,
                    if e.after { "after" } else { "before" }
                )?;
            }
            if !binds.is_empty() {
                write!(f, "let {}; ", binds.join(", "))?;
            }
            if !guards.is_empty() {
                write!(f, "if {} ", guards.join(" && "))?;
            }
            writeln!(f, "exec")?;
        }
        for _ in 0..self.steps.len() {
            depth -= 1;
            writeln!(f, "{}}}", "  ".repeat(depth))?;
        }
        for n in &self.notes {
            writeln!(f, "// note: {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pexpr_eval_and_display() {
        let mut e = PExpr::slot(0);
        e.add_term(Atom::Var("N".into()), -1);
        e.cst = 3;
        // One frame: the slot, then `N`.
        let slot_of = |a: &Atom| match a {
            Atom::Slot(i) => Ok(*i),
            Atom::Var(v) if v == "N" => Ok(1),
            Atom::Var(v) => Err(v.clone()),
        };
        assert_eq!(e.resolve(slot_of).map(|e| e.eval(&[7, 10])), Ok(Some(0)));
        assert_eq!(PExpr::var("K").resolve(slot_of), Err("K".to_string()));
        assert_eq!(e.to_string(), "v0 - N + 3");
        assert!(!e.is_constant());
        assert!(PExpr::constant(4).is_constant());
    }

    #[test]
    fn pexpr_term_merging() {
        let mut e = PExpr::slot(1);
        e.add_term(Atom::Slot(1), -1);
        assert!(e.is_constant());
        e.add_term(Atom::Slot(2), 0);
        assert!(e.terms.is_empty());
    }

    #[test]
    fn guard_display() {
        let g = Guard::Eq(PExpr::slot(0));
        assert_eq!(g.to_string(), "v0 == 0");
        let g2 = Guard::Divides(PExpr::var("x"), 2);
        assert_eq!(g2.to_string(), "(x) % 2 == 0");
    }

    #[test]
    fn plan_display_smoke() {
        let plan = Plan {
            steps: vec![Step {
                kind: StepKind::Interval {
                    lo: PExpr::constant(0),
                    hi: PExpr::var("N"),
                },
                dir: Dir::Fwd,
                ordered: true,
                edge_bound: None,
                first_slot: 0,
                nslots: 1,
                sharers: vec![],
                searches: vec![],
                binds: vec!["L0.r".into()],
            }],
            execs: vec![ExecStmt {
                stmt: 0,
                orig: 0,
                body: Statement {
                    lhs: bernoulli_ir::LhsRef {
                        array: "x".into(),
                        idxs: vec![bernoulli_ir::AffineExpr::var("j")],
                    },
                    rhs: bernoulli_ir::ValueExpr::Const(0.0),
                },
                bindings: vec![("j".into(), PExpr::slot(0), 1)],
                guards: vec![Guard::Ge(PExpr::slot(0))],
                sources: vec![None],
                required_refs: vec![],
                depth: 1,
                after: true,
            }],
            refs: vec![],
            space_desc: "L0.r".into(),
            nslots: 1,
            notes: vec!["test".into()],
        };
        let s = plan.to_string();
        assert!(s.contains("for v0 = enumerate [0, N) increasing"));
        assert!(s.contains("let j = v0"));
        assert!(s.contains("if v0 >= 0"));
        assert!(s.contains("// note: test"));
    }
}
