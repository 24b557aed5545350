//! Farkas' lemma: characterizing affine functions non-negative over a
//! polyhedron.
//!
//! The affine form of Farkas' lemma states: an affine function
//! `ψ(x) = c·x + d` is non-negative at every point of a non-empty
//! polyhedron `P = { x : aᵢ·x + bᵢ ≥ 0, i = 1..m }` **iff** there exist
//! multipliers `λ₀, λᵢ ≥ 0` with
//!
//! ```text
//!   ψ(x) ≡ λ₀ + Σᵢ λᵢ (aᵢ·x + bᵢ)      (identically in x)
//! ```
//!
//! The paper (§3.1, problem 2, following Feautrier) uses this to compute
//! the set of all legal embedding functions: the per-dimension differences
//! `F_d(i_d) − F_s(i_s)` have coefficients that are affine in the unknown
//! embedding parameters `u`, and requiring them non-negative over a
//! dependence polyhedron becomes — after matching coefficients of each `x`
//! and eliminating the `λ`s with Fourier–Motzkin — a plain linear system
//! over `u`.

use crate::{Constraint, ConstraintKind, LinExpr, System};
use bernoulli_numeric::Rational;

/// Computes the conditions on unknowns `u` under which the symbolic affine
/// function
///
/// ```text
///   ψ(x) = Σⱼ coeff_in_u[j](u) · xⱼ  +  cst_in_u(u)
/// ```
///
/// is non-negative at every point of the polyhedron `p` (over variables
/// `x`). The result is a [`System`] over the `u` variables.
///
/// `coeff_in_u` must have one entry per variable of `p`; each entry and
/// `cst_in_u` are affine expressions over a common `u` variable list
/// (`u_names`).
///
/// Equalities of `p` are handled by splitting into two inequalities, which
/// corresponds to an unconstrained-sign multiplier.
///
/// If the installed compute budget runs out during multiplier
/// elimination this degrades **conservatively**, returning a
/// contradictory system over `u` (no embedding accepted — the caller
/// rejects the candidate rather than accepting an unproven one); use
/// [`try_farkas_nonneg_conditions`] to observe the exhaustion as a
/// typed error instead.
pub fn farkas_nonneg_conditions(
    p: &System,
    coeff_in_u: &[LinExpr],
    cst_in_u: &LinExpr,
    u_names: &[String],
) -> System {
    try_farkas_nonneg_conditions(p, coeff_in_u, cst_in_u, u_names).unwrap_or_else(|_| {
        // Conservative: a single false row over u — empty condition set.
        let mut none = System::new(u_names.to_vec());
        none.add(Constraint::ge0(LinExpr::constant(u_names.len(), -1)));
        none
    })
}

/// [`farkas_nonneg_conditions`] with budget exhaustion reported as
/// [`PolyError`](crate::PolyError) instead of the conservative
/// contradiction fallback.
pub fn try_farkas_nonneg_conditions(
    p: &System,
    coeff_in_u: &[LinExpr],
    cst_in_u: &LinExpr,
    u_names: &[String],
) -> Result<System, crate::PolyError> {
    bernoulli_govern::faults::hit("polyhedra.farkas");
    let nx = p.num_vars();
    assert_eq!(coeff_in_u.len(), nx, "one ψ coefficient per x variable");
    let nu = u_names.len();
    for e in coeff_in_u.iter().chain(std::iter::once(cst_in_u)) {
        assert_eq!(e.num_vars(), nu, "ψ coefficients must range over u");
    }

    // Split equalities into pairs of inequalities so every multiplier is
    // sign-constrained.
    let mut rows: Vec<LinExpr> = Vec::new();
    for c in p.constraints() {
        match c.kind {
            ConstraintKind::Ge => rows.push(c.expr.clone()),
            ConstraintKind::Eq => {
                rows.push(c.expr.clone());
                rows.push(-&c.expr);
            }
        }
    }
    let m = rows.len();

    // Combined variable space: [u_0..u_{nu-1}, λ_0, λ_1..λ_m].
    let mut vars: Vec<String> = u_names.to_vec();
    vars.push("lam0".to_string());
    for i in 0..m {
        vars.push(format!("lam{}", i + 1));
    }
    let total = nu + 1 + m;
    let mut sys = System::new(vars);

    let lam0 = nu;
    let lam = |i: usize| nu + 1 + i;

    // λ ≥ 0.
    sys.add(Constraint::ge0(LinExpr::var(total, lam0)));
    for i in 0..m {
        sys.add(Constraint::ge0(LinExpr::var(total, lam(i))));
    }

    // Coefficient matching per x variable: coeff_in_u[j](u) = Σᵢ λᵢ aᵢⱼ.
    for j in 0..nx {
        let mut e = coeff_in_u[j].widened(total);
        for (i, row) in rows.iter().enumerate() {
            let a = row.coeffs[j];
            if !a.is_zero() {
                e.add_scaled(&LinExpr::var(total, lam(i)), -a);
            }
        }
        sys.add(Constraint::eq0(e));
    }
    // Constant matching: cst_in_u(u) = λ₀ + Σᵢ λᵢ bᵢ.
    {
        let mut e = cst_in_u.widened(total);
        e.add_scaled(&LinExpr::var(total, lam0), -Rational::ONE);
        for (i, row) in rows.iter().enumerate() {
            if !row.cst.is_zero() {
                e.add_scaled(&LinExpr::var(total, lam(i)), -row.cst);
            }
        }
        sys.add(Constraint::eq0(e));
    }

    // Eliminate all multipliers, leaving conditions over u alone — the
    // budget-heavy step: one projection per multiplier.
    let drop: Vec<usize> = (nu..total).collect();
    sys.try_project_out(&drop)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    /// ψ(x) = u0·x + u1 over P = {0 ≤ x ≤ 10}: ψ ≥ 0 on P iff
    /// u1 ≥ 0 and 10·u0 + u1 ≥ 0 (non-negativity at both vertices).
    #[test]
    fn interval_conditions() {
        let mut p = System::new(names(&["x"]));
        p.add_bounds(0, 0, 10);
        let u = names(&["u0", "u1"]);
        let coeff = vec![LinExpr::var(2, 0)];
        let cst = LinExpr::var(2, 1);
        let cond = farkas_nonneg_conditions(&p, &coeff, &cst, &u);
        // Check a few points of u-space against ground truth.
        let truth = |u0: i128, u1: i128| (0..=10).all(|x| u0 * x + u1 >= 0);
        for u0 in -3..=3 {
            for u1 in -3..=30 {
                let sat = cond.contains_int(&[u0, u1]);
                assert_eq!(sat, truth(u0, u1), "u0={u0} u1={u1}\n{cond:?}");
            }
        }
    }

    /// Over P = {x = y}, ψ(x,y) = u0·x − u0·y is identically zero, hence
    /// non-negative for every u0.
    #[test]
    fn equality_polyhedron() {
        let mut p = System::new(names(&["x", "y"]));
        p.add_eq(&LinExpr::var(2, 0), &LinExpr::var(2, 1));
        let u = names(&["u0"]);
        let coeff = vec![LinExpr::var(1, 0), -&LinExpr::var(1, 0)];
        let cst = LinExpr::zero(1);
        let cond = farkas_nonneg_conditions(&p, &coeff, &cst, &u);
        for u0 in -5..=5 {
            assert!(cond.contains_int(&[u0]), "u0={u0}");
        }
    }

    /// Feautrier's classic: over the dependence polyhedron
    /// {1 ≤ j ≤ N, j = j'} of the triangular-solve example, the schedule
    /// difference must be representable; here we simply check that a
    /// strictly violated function is excluded.
    #[test]
    fn violation_excluded() {
        // P = {x >= 1}; ψ(x) = u0 - x can never be >= 0 on all of P for any
        // finite u0... but Farkas over rationals with unbounded P: there is
        // no λ with -1 = λ·1 and λ >= 0, so the condition system is empty.
        let mut p = System::new(names(&["x"]));
        p.add_ge(&LinExpr::var(1, 0), &LinExpr::constant(1, 1));
        let u = names(&["u0"]);
        let coeff = vec![LinExpr::constant(1, -1)]; // coefficient of x is -1
        let cst = LinExpr::var(1, 0); // constant is u0
        let cond = farkas_nonneg_conditions(&p, &coeff, &cst, &u);
        assert!(cond.is_empty(), "{cond:?}");
    }

    /// ψ independent of u: constant 1 over any P is accepted; constant -1
    /// is rejected.
    #[test]
    fn constant_functions() {
        let mut p = System::new(names(&["x"]));
        p.add_bounds(0, 0, 3);
        let u: Vec<String> = vec![];
        let ok = farkas_nonneg_conditions(&p, &[LinExpr::zero(0)], &LinExpr::constant(0, 1), &u);
        assert!(!ok.is_empty());
        let bad = farkas_nonneg_conditions(&p, &[LinExpr::zero(0)], &LinExpr::constant(0, -1), &u);
        assert!(bad.is_empty());
    }
}
