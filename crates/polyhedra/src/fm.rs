//! Fourier–Motzkin elimination.

use crate::{Constraint, ConstraintKind, LinExpr, System};
use bernoulli_govern::{Budget, BudgetError};

/// Eliminates variable `j` from the system, returning a system over the
/// remaining variables (renumbered; variable names preserved).
///
/// The projection is exact over the rationals. An equality involving `j`
/// is used for exact Gaussian substitution when available, which both
/// avoids the quadratic lower×upper combination and keeps the result
/// tight for integers whenever the equality has a ±1 coefficient on `j`.
/// Memoized wrapper over the raw elimination: results are cached
/// process-wide under an *exact* `(rows-in-order, column)` key — not the
/// canonical one — because the row order of the projection feeds
/// downstream guard simplification and must be byte-identical to an
/// uncached run. Rows carry no variable names, so structurally identical
/// systems over different index names share one entry; the survivor
/// names are re-attached from `sys` on a hit.
pub fn eliminate_var(sys: &System, j: usize) -> System {
    match try_eliminate_var(sys, j) {
        Ok(s) => s,
        // Internal invariant: synthesis-built systems only ever eliminate
        // columns they created; a caller-supplied index goes through
        // `try_eliminate_var`.
        Err(e) => panic!("eliminate_var: {e}"),
    }
}

/// [`eliminate_var`] with the out-of-range column reported as a
/// [`PolyError`](crate::PolyError) instead of a panic — the entry point
/// for callers whose column index is not statically known to be valid.
/// Also observes the installed compute budget
/// ([`bernoulli_govern::current`]), reporting exhaustion as
/// [`PolyError::BudgetExhausted`](crate::PolyError::BudgetExhausted).
pub fn try_eliminate_var(sys: &System, j: usize) -> Result<System, crate::PolyError> {
    if j >= sys.num_vars() {
        return Err(crate::PolyError::VarOutOfRange {
            index: j,
            nvars: sys.num_vars(),
        });
    }
    let budget = bernoulli_govern::current();
    Ok(eliminate_core(sys, j, budget.as_deref())?)
}

/// The memoized elimination step: cache hits are free (and still served
/// after a budget has tripped — a memoized proof costs nothing); misses
/// charge the budget in proportion to the combination work. Results are
/// stored only on fully-completed eliminations, so a budget-truncated
/// run never pollutes the memo.
pub(crate) fn eliminate_core(
    sys: &System,
    j: usize,
    budget: Option<&Budget>,
) -> Result<System, BudgetError> {
    bernoulli_govern::faults::hit("polyhedra.fm");
    let key = crate::cache::fm_key(sys, j);
    if let Some(rows) = crate::cache::fm_lookup(&key) {
        let mut vars = sys.vars().to_vec();
        vars.remove(j);
        return Ok(System::from_parts(vars, rows));
    }
    let out = eliminate_var_uncached(sys, j, budget)?;
    crate::cache::fm_store(key, out.constraints().to_vec());
    Ok(out)
}

fn eliminate_var_uncached(
    sys: &System,
    j: usize,
    budget: Option<&Budget>,
) -> Result<System, BudgetError> {
    if let Some(b) = budget {
        // One explicit deadline/cancel check per elimination: `charge`
        // only consults the clock at stride crossings, which a small
        // decision may never reach, but cancellation must still be
        // prompt.
        b.check()?;
        b.charge(sys.constraints().len() as u64 + 1)?;
    }
    // Prefer substitution through an equality with the smallest |coeff|.
    let eq_idx = sys
        .constraints()
        .iter()
        .enumerate()
        .filter(|(_, c)| c.kind == ConstraintKind::Eq && !c.expr.coeffs[j].is_zero())
        .min_by_key(|(_, c)| c.expr.coeffs[j].abs())
        .map(|(i, _)| i);

    let mut out = System::from_parts(sys.vars().to_vec(), Vec::new());

    if let Some(ei) = eq_idx {
        let eq = &sys.constraints()[ei];
        let a = eq.expr.coeffs[j];
        // From eq: x_j = -(rest)/a.  Substitute into every other row:
        // row' = row - (row_j / a) * eq.
        for (i, c) in sys.constraints().iter().enumerate() {
            if i == ei {
                continue;
            }
            let cj = c.expr.coeffs[j];
            let mut e = c.expr.clone();
            if !cj.is_zero() {
                e.add_scaled(&eq.expr, -(cj / a));
            }
            debug_assert!(e.coeffs[j].is_zero());
            out.add(Constraint {
                expr: e,
                kind: c.kind,
            });
        }
        out.drop_var_column(j);
        return Ok(out);
    }

    // Pure inequality case: combine each lower bound with each upper bound.
    let mut lowers: Vec<&LinExpr> = Vec::new(); // coeff_j > 0: a_j x_j >= -(rest)
    let mut uppers: Vec<&LinExpr> = Vec::new(); // coeff_j < 0
    for c in sys.constraints() {
        debug_assert!(c.kind == ConstraintKind::Ge || c.expr.coeffs[j].is_zero());
        let s = c.expr.coeffs[j].signum();
        if s == 0 {
            out.add(c.clone());
        } else if s > 0 {
            lowers.push(&c.expr);
        } else {
            uppers.push(&c.expr);
        }
    }
    // The quadratic lower×upper combination is where Fourier–Motzkin
    // blows up; charge its full output size before doing the work.
    if let Some(b) = budget {
        b.charge((lowers.len() * uppers.len()) as u64)?;
    }
    for lo in &lowers {
        for up in &uppers {
            // lo: a x_j + L >= 0 (a>0)  =>  x_j >= -L/a
            // up: -b x_j + U >= 0 (b>0) =>  x_j <= U/b
            // combine: b*L + a*U >= 0
            let a = lo.coeffs[j];
            let b = -up.coeffs[j];
            let mut e = LinExpr::zero(sys.num_vars());
            e.add_scaled(lo, b);
            e.add_scaled(up, a);
            debug_assert!(e.coeffs[j].is_zero());
            out.add(Constraint::ge0(e));
        }
    }
    out.drop_var_column(j);

    // Cheap redundancy pruning: drop ≥-rows strictly dominated by another
    // row with identical variable coefficients but a larger constant.
    prune_dominated(&mut out);
    Ok(out)
}

/// Removes `e ≥ 0` rows made redundant by another row with the same
/// variable coefficients and a weaker constant.
fn prune_dominated(sys: &mut System) {
    let cons = sys.constraints().to_vec();
    let mut keep: Vec<bool> = vec![true; cons.len()];
    for (i, a) in cons.iter().enumerate() {
        if a.kind != ConstraintKind::Ge {
            continue;
        }
        for (k, b) in cons.iter().enumerate() {
            if i == k || !keep[i] || b.kind != ConstraintKind::Ge {
                continue;
            }
            if a.expr.coeffs == b.expr.coeffs {
                // Same normal vector: the row with the *larger* constant is
                // weaker. Keep the tighter one; break ties by index.
                let redundant =
                    a.expr.cst > b.expr.cst || (a.expr.cst == b.expr.cst && i > k && keep[k]);
                if redundant {
                    keep[i] = false;
                }
            }
        }
    }
    let filtered: Vec<Constraint> = cons
        .into_iter()
        .zip(&keep)
        .filter_map(|(c, &k)| k.then_some(c))
        .collect();
    *sys = System::from_parts(sys.vars().to_vec(), Vec::new());
    for c in filtered {
        sys.raw_push(c);
    }
}

/// Computes exact integer bounds of variable `j` over the system by
/// projecting away every other variable. Returns `(lo, hi)` where either
/// side is `None` when unbounded. Returns `None` overall when the system
/// is empty.
pub fn variable_bounds(sys: &System, j: usize) -> Option<(Option<i128>, Option<i128>)> {
    if sys.is_empty() {
        return None;
    }
    let drop: Vec<usize> = (0..sys.num_vars()).filter(|&k| k != j).collect();
    let proj = sys.project_out(&drop);
    debug_assert_eq!(proj.num_vars(), 1);
    let mut lo: Option<i128> = None;
    let mut hi: Option<i128> = None;
    for c in proj.constraints() {
        let a = c.expr.coeffs[0];
        let b = c.expr.cst;
        match c.kind {
            ConstraintKind::Ge => {
                if a.is_positive() {
                    // a x + b >= 0 => x >= -b/a
                    let bound = (-b / a).ceil();
                    lo = Some(lo.map_or(bound, |l: i128| l.max(bound)));
                } else if a.is_negative() {
                    let bound = (-b / a).floor();
                    hi = Some(hi.map_or(bound, |h: i128| h.min(bound)));
                }
            }
            ConstraintKind::Eq => {
                if !a.is_zero() {
                    let v = -b / a;
                    if v.is_integer() {
                        lo = Some(lo.map_or(v.numer(), |l: i128| l.max(v.numer())));
                        hi = Some(hi.map_or(v.numer(), |h: i128| h.min(v.numer())));
                    }
                }
            }
        }
    }
    Some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn eliminate_middle_var() {
        // 0 <= i <= 4, i <= k <= i + 2, k == j  — eliminate k.
        let mut s = System::new(names(&["i", "k", "j"]));
        let (i, k, j) = (LinExpr::var(3, 0), LinExpr::var(3, 1), LinExpr::var(3, 2));
        s.add_bounds(0, 0, 4);
        s.add_ge(&k, &i);
        s.add_ge(&(&i + &LinExpr::constant(3, 2)), &k);
        s.add_eq(&k, &j);
        let p = eliminate_var(&s, 1);
        assert_eq!(p.vars(), &["i".to_string(), "j".to_string()]);
        assert!(p.contains_int(&[0, 0]));
        assert!(p.contains_int(&[0, 2]));
        assert!(!p.contains_int(&[0, 3]));
        assert!(!p.contains_int(&[-1, 0]));
    }

    #[test]
    fn elimination_with_inequalities_only() {
        // x <= y, y <= z; eliminating y gives x <= z.
        let mut s = System::new(names(&["x", "y", "z"]));
        let (x, y, z) = (LinExpr::var(3, 0), LinExpr::var(3, 1), LinExpr::var(3, 2));
        s.add_ge(&y, &x);
        s.add_ge(&z, &y);
        let p = eliminate_var(&s, 1);
        assert!(p.contains_int(&[1, 5]));
        assert!(!p.contains_int(&[5, 1]));
    }

    #[test]
    fn bounds_extraction() {
        let mut s = System::new(names(&["i", "j"]));
        s.add_bounds(0, 2, 9);
        let (i, j) = (LinExpr::var(2, 0), LinExpr::var(2, 1));
        s.add_ge(&j, &i); // j >= i >= 2
        s.add_ge(&LinExpr::constant(2, 20), &j);
        let (lo, hi) = variable_bounds(&s, 1).unwrap();
        assert_eq!(lo, Some(2));
        assert_eq!(hi, Some(20));
        let (lo_i, hi_i) = variable_bounds(&s, 0).unwrap();
        assert_eq!((lo_i, hi_i), (Some(2), Some(9)));
    }

    #[test]
    fn bounds_of_empty_system() {
        let mut s = System::new(names(&["i"]));
        s.add_bounds(0, 5, 3);
        assert!(variable_bounds(&s, 0).is_none());
    }

    #[test]
    fn unbounded_side() {
        let mut s = System::new(names(&["i"]));
        let i = LinExpr::var(1, 0);
        s.add_ge(&i, &LinExpr::constant(1, 3));
        let (lo, hi) = variable_bounds(&s, 0).unwrap();
        assert_eq!(lo, Some(3));
        assert_eq!(hi, None);
    }
}
