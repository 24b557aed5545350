//! Systems of affine constraints (polyhedra) over named integer variables.

use crate::fm::eliminate_core;
use crate::{LinExpr, PolyError};
use bernoulli_govern::{Budget, BudgetError};
use bernoulli_numeric::Rational;
use std::fmt;

/// The sense of a [`Constraint`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum ConstraintKind {
    /// `expr ≥ 0`
    Ge,
    /// `expr = 0`
    Eq,
}

/// A single affine constraint `expr ≥ 0` or `expr = 0`.
#[derive(Clone, PartialEq, Eq, Debug, Hash)]
pub struct Constraint {
    pub expr: LinExpr,
    pub kind: ConstraintKind,
}

impl Constraint {
    /// `expr ≥ 0`
    pub fn ge0(expr: LinExpr) -> Constraint {
        Constraint {
            expr,
            kind: ConstraintKind::Ge,
        }
    }

    /// `expr = 0`
    pub fn eq0(expr: LinExpr) -> Constraint {
        Constraint {
            expr,
            kind: ConstraintKind::Eq,
        }
    }

    /// True iff the constraint holds at the integer point.
    pub fn holds_int(&self, point: &[i128]) -> bool {
        let v = self.expr.eval_int(point);
        match self.kind {
            ConstraintKind::Ge => !v.is_negative(),
            ConstraintKind::Eq => v.is_zero(),
        }
    }
}

/// A conjunction of affine constraints over an ordered list of named
/// integer variables.
///
/// Variable order matters: Fourier–Motzkin and the Farkas machinery refer
/// to variables by index, and clients (dependence analysis, legality
/// checks) keep parallel bookkeeping about which index is which.
#[derive(Clone, PartialEq, Eq)]
pub struct System {
    vars: Vec<String>,
    cons: Vec<Constraint>,
}

impl System {
    /// Creates a system with the given variable names and no constraints
    /// (the universe).
    pub fn new(vars: Vec<String>) -> System {
        System {
            vars,
            cons: Vec::new(),
        }
    }

    /// Number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Variable names, in index order.
    pub fn vars(&self) -> &[String] {
        &self.vars
    }

    /// Index of a variable by name.
    pub fn var_index(&self, name: &str) -> Option<usize> {
        self.vars.iter().position(|v| v == name)
    }

    /// Appends a fresh variable, returning its index. Existing constraints
    /// are widened with a zero coefficient.
    pub fn add_var(&mut self, name: impl Into<String>) -> usize {
        self.vars.push(name.into());
        let n = self.vars.len();
        for c in &mut self.cons {
            c.expr = c.expr.widened(n);
        }
        n - 1
    }

    /// The constraints of the system.
    pub fn constraints(&self) -> &[Constraint] {
        &self.cons
    }

    /// Adds a constraint, normalizing it to a primitive integer row and
    /// tightening `≥` constants by integer rounding (valid because all
    /// variables are integral). Trivially-true rows are dropped.
    pub fn add(&mut self, mut c: Constraint) {
        assert_eq!(c.expr.num_vars(), self.num_vars(), "dimension mismatch");
        c.expr.normalize_primitive();
        if c.kind == ConstraintKind::Ge && !c.expr.is_constant() {
            // With integer variables, a·x + c ≥ 0 where g = gcd(a) can be
            // tightened to (a/g)·x + ⌊c/g⌋ ≥ 0.
            let g = c
                .expr
                .coeffs
                .iter()
                .fold(0i128, |acc, &x| bernoulli_numeric::gcd(acc, x.numer()));
            if g > 1 {
                let inv = Rational::new(1, g);
                for x in c.expr.coeffs.iter_mut() {
                    *x *= inv;
                }
                c.expr.cst = Rational::int((c.expr.cst * inv).floor());
            } else {
                c.expr.cst = Rational::int(c.expr.cst.floor());
            }
        }
        if c.expr.is_constant() {
            let ok = match c.kind {
                ConstraintKind::Ge => !c.expr.cst.is_negative(),
                ConstraintKind::Eq => c.expr.cst.is_zero(),
            };
            if ok {
                return; // trivially true; keep the system small
            }
            // Trivially false: record it so emptiness is immediate.
        }
        if !self.cons.contains(&c) {
            self.cons.push(c);
        }
    }

    /// Convenience: adds `lhs ≥ rhs`.
    pub fn add_ge(&mut self, lhs: &LinExpr, rhs: &LinExpr) {
        self.add(Constraint::ge0(lhs - rhs));
    }

    /// Convenience: adds `lhs = rhs`.
    pub fn add_eq(&mut self, lhs: &LinExpr, rhs: &LinExpr) {
        self.add(Constraint::eq0(lhs - rhs));
    }

    /// Convenience: adds `lo ≤ var ≤ hi` for integer literals.
    pub fn add_bounds(&mut self, var: usize, lo: i128, hi: i128) {
        let n = self.num_vars();
        let v = LinExpr::var(n, var);
        self.add_ge(&v, &LinExpr::constant(n, lo));
        self.add_ge(&LinExpr::constant(n, hi), &v);
    }

    /// True iff the integer point satisfies every constraint.
    pub fn contains_int(&self, point: &[i128]) -> bool {
        self.cons.iter().all(|c| c.holds_int(point))
    }

    /// True iff the system has an obviously-false constant constraint.
    pub fn has_contradiction(&self) -> bool {
        self.cons.iter().any(|c| {
            c.expr.is_constant()
                && match c.kind {
                    ConstraintKind::Ge => c.expr.cst.is_negative(),
                    ConstraintKind::Eq => !c.expr.cst.is_zero(),
                }
        })
    }

    /// Decides emptiness by eliminating every variable with
    /// Fourier–Motzkin.
    ///
    /// Exact over the rationals; the integer tightening applied by [`Self::add`]
    /// makes it exact for the integer polyhedra produced by the loop nests
    /// we handle. `true` means *definitely empty*.
    ///
    /// Results are memoized process-wide by [`Self::canonical_key`] (see
    /// [`crate::cache`]): repeated queries on structurally identical
    /// systems — regardless of constraint order, scaling, or variable
    /// names — skip the elimination entirely.
    ///
    /// If the installed compute budget runs out mid-decision this
    /// degrades **conservatively** to `false` ("possibly nonempty"),
    /// which only ever makes a client reject a legal candidate, never
    /// accept an illegal one; use [`Self::try_is_empty`] to observe the
    /// exhaustion as a typed error instead.
    pub fn is_empty(&self) -> bool {
        self.try_is_empty().unwrap_or(false)
    }

    /// [`Self::is_empty`] with budget exhaustion reported as
    /// [`PolyError::BudgetExhausted`] instead of the conservative
    /// fallback. Memoized answers are still served for free after a
    /// budget has tripped; budget-truncated decisions are never stored.
    pub fn try_is_empty(&self) -> Result<bool, PolyError> {
        if self.has_contradiction() {
            return Ok(true);
        }
        if self.cons.is_empty() {
            return Ok(false); // the universe; not worth a cache entry
        }
        let key = crate::cache::canonical_key(self);
        if let Some(v) = crate::cache::empty_lookup(&key) {
            return Ok(v);
        }
        let budget = bernoulli_govern::current();
        let v = self.is_empty_uncached(budget.as_deref())?;
        crate::cache::empty_store(key, v);
        Ok(v)
    }

    /// The full Fourier–Motzkin emptiness decision, bypassing the memo
    /// cache (the per-step [`eliminate_core`] calls still use the FM
    /// memo, which is keyed exactly and reproduces identical rows).
    fn is_empty_uncached(&self, budget: Option<&Budget>) -> Result<bool, BudgetError> {
        let mut cur = self.clone();
        // Eliminate variables one at a time, preferring variables that
        // appear in few constraints (cheap heuristic against FM blowup).
        while cur.num_vars() > 0 {
            if cur.has_contradiction() {
                return Ok(true);
            }
            if let Some(b) = budget {
                b.charge(cur.cons.len() as u64 + 1)?;
            }
            let n = cur.num_vars();
            let best = (0..n)
                .min_by_key(|&j| {
                    let (mut lo, mut hi) = (0usize, 0usize);
                    for c in &cur.cons {
                        let s = c.expr.coeffs[j].signum();
                        if s > 0 {
                            lo += 1;
                        } else if s < 0 {
                            hi += 1;
                        }
                    }
                    lo * hi
                })
                // `num_vars() > 0` keeps the range nonempty; column 0
                // is an arbitrary (unreachable) fallback, not a panic.
                .unwrap_or(0);
            cur = eliminate_core(&cur, best, budget)?;
        }
        Ok(cur.has_contradiction())
    }

    /// The canonical, name-free memo-cache key of this system:
    /// constraints as gcd-normalized integer rows, equalities
    /// sign-canonicalized, sorted and deduplicated. Equal keys ⟹ equal
    /// integer point sets up to variable renaming; permuting or
    /// (positively) rescaling constraints never changes the key.
    pub fn canonical_key(&self) -> crate::cache::CanonicalKey {
        crate::cache::canonical_key(self)
    }

    /// True iff `c` holds at every integer point of the system.
    ///
    /// Implemented as emptiness of `self ∧ ¬c`; for a `≥` constraint over
    /// integer points, `¬(e ≥ 0)` is `-e - 1 ≥ 0`.
    ///
    /// On budget exhaustion this degrades conservatively to `false`
    /// ("not provably implied"); see [`Self::is_empty`] and use
    /// [`Self::try_implies`] for the typed error.
    pub fn implies(&self, c: &Constraint) -> bool {
        self.try_implies(c).unwrap_or(false)
    }

    /// [`Self::implies`] with budget exhaustion reported as
    /// [`PolyError::BudgetExhausted`].
    pub fn try_implies(&self, c: &Constraint) -> Result<bool, PolyError> {
        match c.kind {
            ConstraintKind::Ge => {
                let mut neg = self.clone();
                let e = &(-&c.expr) - &LinExpr::constant(self.num_vars(), 1);
                neg.add(Constraint::ge0(e));
                neg.try_is_empty()
            }
            ConstraintKind::Eq => Ok(self.try_implies(&Constraint::ge0(c.expr.clone()))?
                && self.try_implies(&Constraint::ge0(-&c.expr))?),
        }
    }

    /// True iff `expr` is identically zero over the system (i.e. the system
    /// implies `expr = 0`).
    pub fn forces_zero(&self, expr: &LinExpr) -> bool {
        self.implies(&Constraint::eq0(expr.clone()))
    }

    /// Projects the system onto the variables *not* listed in `drop`
    /// (eliminating the listed ones), renumbering the survivors in order.
    /// Runs to completion regardless of any installed budget; use
    /// [`Self::try_project_out`] for the budgeted variant.
    pub fn project_out(&self, drop: &[usize]) -> System {
        match self.project_out_inner(drop, None) {
            Ok(s) => s,
            Err(_) => unreachable!("unbudgeted projection cannot be cut short"),
        }
    }

    /// [`Self::project_out`] observing the installed compute budget,
    /// with exhaustion reported as [`PolyError::BudgetExhausted`].
    pub fn try_project_out(&self, drop: &[usize]) -> Result<System, PolyError> {
        let budget = bernoulli_govern::current();
        Ok(self.project_out_inner(drop, budget.as_deref())?)
    }

    fn project_out_inner(
        &self,
        drop: &[usize],
        budget: Option<&Budget>,
    ) -> Result<System, BudgetError> {
        let mut cur = self.clone();
        // Eliminate from the highest index down so indices stay valid.
        let mut sorted: Vec<usize> = drop.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for &j in sorted.iter().rev() {
            cur = eliminate_core(&cur, j, budget)?;
        }
        Ok(cur)
    }

    /// Removes a variable index from the variable list and every
    /// constraint, *assuming* its coefficient is zero everywhere.
    /// Used by [`crate::eliminate_var`] after combination.
    pub(crate) fn drop_var_column(&mut self, j: usize) {
        for c in &mut self.cons {
            debug_assert!(c.expr.coeffs[j].is_zero());
            c.expr.coeffs.remove(j);
        }
        self.vars.remove(j);
    }

    pub(crate) fn raw_push(&mut self, c: Constraint) {
        self.cons.push(c);
    }

    pub(crate) fn from_parts(vars: Vec<String>, cons: Vec<Constraint>) -> System {
        System { vars, cons }
    }
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "System over [{}] {{", self.vars.join(", "))?;
        for c in &self.cons {
            let op = match c.kind {
                ConstraintKind::Ge => ">= 0",
                ConstraintKind::Eq => "= 0",
            };
            writeln!(f, "  {} {}", c.expr.display_with(&self.vars), op)?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn contains_and_bounds() {
        let mut s = System::new(names(&["i", "j"]));
        s.add_bounds(0, 0, 10);
        s.add_bounds(1, 0, 10);
        // i < j  <=>  j - i - 1 >= 0
        let e = &(&LinExpr::var(2, 1) - &LinExpr::var(2, 0)) + &LinExpr::constant(2, -1);
        s.add(Constraint::ge0(e));
        assert!(s.contains_int(&[2, 5]));
        assert!(!s.contains_int(&[5, 2]));
        assert!(!s.contains_int(&[5, 5]));
        assert!(!s.is_empty());
    }

    #[test]
    fn empty_by_contradiction() {
        let mut s = System::new(names(&["i"]));
        s.add_bounds(0, 0, 10);
        s.add_bounds(0, 20, 30);
        assert!(s.is_empty());
    }

    #[test]
    fn empty_via_equalities() {
        let mut s = System::new(names(&["i", "j"]));
        // i = j, i >= j + 1 : empty
        s.add(Constraint::eq0(&LinExpr::var(2, 0) - &LinExpr::var(2, 1)));
        let e = &(&LinExpr::var(2, 0) - &LinExpr::var(2, 1)) + &LinExpr::constant(2, -1);
        s.add(Constraint::ge0(e));
        assert!(s.is_empty());
    }

    #[test]
    fn integer_tightening() {
        // 2i >= 1 and 2i <= 1 has the rational point i = 1/2 but no integer
        // point; tightening must detect emptiness.
        let mut s = System::new(names(&["i"]));
        let two_i = &LinExpr::var(1, 0) * bernoulli_numeric::Rational::int(2);
        s.add(Constraint::ge0(&two_i - &LinExpr::constant(1, 1)));
        s.add(Constraint::ge0(&LinExpr::constant(1, 1) - &two_i));
        assert!(s.is_empty());
    }

    #[test]
    fn implies_simple() {
        let mut s = System::new(names(&["i"]));
        s.add_bounds(0, 5, 10);
        // i >= 5 implies i >= 3
        let c = Constraint::ge0(&LinExpr::var(1, 0) - &LinExpr::constant(1, 3));
        assert!(s.implies(&c));
        // but not i >= 7
        let c2 = Constraint::ge0(&LinExpr::var(1, 0) - &LinExpr::constant(1, 7));
        assert!(!s.implies(&c2));
    }

    #[test]
    fn forces_zero() {
        let mut s = System::new(names(&["i", "j"]));
        s.add(Constraint::eq0(&LinExpr::var(2, 0) - &LinExpr::var(2, 1)));
        s.add_bounds(0, 0, 100);
        let diff = &LinExpr::var(2, 0) - &LinExpr::var(2, 1);
        assert!(s.forces_zero(&diff));
        assert!(!s.forces_zero(&LinExpr::var(2, 0)));
    }

    #[test]
    fn project_out_keeps_shadow() {
        // {(i,j) : 0<=i<=3, i<=j<=i+1} projected onto j gives 0<=j<=4.
        let mut s = System::new(names(&["i", "j"]));
        s.add_bounds(0, 0, 3);
        let (i, j) = (LinExpr::var(2, 0), LinExpr::var(2, 1));
        s.add_ge(&j, &i);
        s.add_ge(&(&i + &LinExpr::constant(2, 1)), &j);
        let p = s.project_out(&[0]);
        assert_eq!(p.num_vars(), 1);
        for jv in 0..=4 {
            assert!(p.contains_int(&[jv]), "j={jv} should be in projection");
        }
        assert!(!p.contains_int(&[5]));
        assert!(!p.contains_int(&[-1]));
    }

    #[test]
    fn add_var_widens() {
        let mut s = System::new(names(&["i"]));
        s.add_bounds(0, 0, 5);
        let j = s.add_var("j");
        assert_eq!(j, 1);
        assert_eq!(s.num_vars(), 2);
        assert!(s.contains_int(&[3, 999]));
        assert_eq!(s.var_index("j"), Some(1));
    }

    #[test]
    fn trivially_true_dropped() {
        let mut s = System::new(names(&["i"]));
        s.add(Constraint::ge0(LinExpr::constant(1, 5)));
        assert!(s.constraints().is_empty());
        s.add(Constraint::eq0(LinExpr::constant(1, 0)));
        assert!(s.constraints().is_empty());
    }

    #[test]
    fn universe_nonempty() {
        let s = System::new(names(&["a", "b", "c"]));
        assert!(!s.is_empty());
    }
}
