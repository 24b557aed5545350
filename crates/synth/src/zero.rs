//! Zero safety: restricting execution to stored entries must preserve
//! semantics.
//!
//! Data-centric code only executes statement instances at *stored*
//! positions of the sparse matrices it enumerates or searches. That is
//! correct when, for every restricted reference of a statement, either
//!
//! - **annihilation**: the statement is a no-op when the reference reads
//!   zero — its right-hand side is `lhs ⊕ t₁ ⊕ …` where every `tᵢ` has
//!   the reference as a multiplicative factor (so unstored zeros
//!   contribute nothing); or
//! - **coverage**: the format *guarantees* storage over the statement's
//!   entire execution domain (e.g. the full-diagonal guarantee covers the
//!   `b[j] = b[j] / L[j][j]` division of triangular solve).
//!
//! The paper assumes this reasoning implicitly for the no-fill BLAS
//! (§1, §4); here it is an explicit, checkable pass: candidates that fail
//! are rejected.

use crate::config::Config;
use crate::plan::Plan;
use bernoulli_formats::view::FormatView;
use bernoulli_ir::{AffineExpr, LhsRef, Program, Statement, ValueExpr};
use bernoulli_polyhedra::{Constraint, Cx, LinExpr, System};
use std::collections::HashMap;

/// Checks every restricted (statement, reference) pair of a plan,
/// deciding coverage under `cx`: the safety notes of the pairs, or the
/// `zero-safety violation: …` of the first pair the restriction is not
/// provably semantics-preserving for.
pub fn check_zero_safety(
    cx: Cx,
    p: &Program,
    cfg: &Config,
    plan: &Plan,
    views: &HashMap<String, FormatView>,
) -> Result<Vec<String>, String> {
    let violation = |why: String| format!("zero-safety violation: {why}");
    let mut notes = Vec::new();
    for e in &plan.execs {
        let scopy = &cfg.stmts[e.stmt];
        for &rid in &e.required_refs {
            let rinst = &cfg.refs[rid];
            let view = views
                .get(&rinst.matrix)
                .ok_or_else(|| violation(format!("no view for matrix {:?}", rinst.matrix)))?;
            if rinst.access_idx == 0 {
                // Restricted sparse *write*: only coverage can justify it.
                if covered_by_guarantee(cx, p, scopy, rinst.access.as_slice(), view) {
                    notes.push(format!(
                        "S{}.{}: write to {:?} covered by storage guarantee",
                        e.orig + 1,
                        e.stmt,
                        rinst.matrix
                    ));
                    continue;
                }
                return Err(violation(format!(
                    "statement S{} writes {:?} at possibly-unstored positions",
                    e.orig + 1,
                    rinst.matrix
                )));
            }
            if annihilated_by(&e.body, rinst.access_idx) {
                notes.push(format!(
                    "S{}.{}: annihilated by zeros of {:?}",
                    e.orig + 1,
                    e.stmt,
                    rinst.matrix
                ));
                continue;
            }
            if covered_by_guarantee(cx, p, scopy, rinst.access.as_slice(), view) {
                notes.push(format!(
                    "S{}.{}: domain covered by {:?} storage guarantee",
                    e.orig + 1,
                    e.stmt,
                    rinst.matrix
                ));
                continue;
            }
            return Err(violation(format!(
                "statement S{} is neither annihilated by nor covered for {:?}",
                e.orig + 1,
                rinst.matrix
            )));
        }
    }
    Ok(notes)
}

/// True iff the statement is a no-op whenever the read at `access_idx`
/// (1-based within the access list; 0 is the write) evaluates to zero.
pub fn annihilated_by(stmt: &Statement, access_idx: usize) -> bool {
    // Flatten the rhs into additive terms.
    let mut terms: Vec<(&ValueExpr, bool)> = Vec::new();
    flatten_sum(&stmt.rhs, false, &mut terms);
    // Number the reads in evaluation order to locate the target.
    // A term is either the bare accumulator Read(lhs) (allowed, exactly
    // once, positive) or must contain the target read as a multiplicative
    // factor.
    let mut counter = 1usize; // access 0 is the write
    let mut acc_seen = false;
    // NOTE: reads are numbered across the whole rhs in evaluation order,
    // which coincides with a left-to-right walk of the flattened terms.
    for (t, neg) in &terms {
        let nreads = t.reads().len();
        let range = counter..counter + nreads;
        counter += nreads;
        if let ValueExpr::Read(r) = t {
            if same_ref(r, &stmt.lhs) && !neg {
                if acc_seen {
                    return false;
                }
                acc_seen = true;
                if range.contains(&access_idx) {
                    // The target IS the accumulator: zeroing it changes
                    // the result; not annihilating.
                    return false;
                }
                continue;
            }
        }
        if range.contains(&access_idx) {
            if !is_multiplicative_factor(t, access_idx - range.start) {
                return false;
            }
        } else {
            // A term without the target must vanish... no: it only needs
            // to vanish if the STATEMENT must be a no-op; terms without
            // the target would still contribute. They make the statement
            // non-annihilated.
            return false;
        }
    }
    acc_seen
}

/// Is the `k`-th read (0-based within this term) a multiplicative factor
/// of the term (every path node above it is Mul/Neg, never a divisor)?
fn is_multiplicative_factor(term: &ValueExpr, k: usize) -> bool {
    fn walk(e: &ValueExpr, k: usize, offset: usize) -> Option<bool> {
        // Returns Some(is_factor) when the k-th read (global numbering
        // from `offset`) is inside e.
        match e {
            ValueExpr::Const(_) => None,
            ValueExpr::Read(_) => {
                if offset == k {
                    Some(true)
                } else {
                    None
                }
            }
            ValueExpr::Neg(a) => walk(a, k, offset),
            ValueExpr::Mul(a, b) => {
                let na = a.reads().len();
                walk(a, k, offset).or_else(|| walk(b, k, offset + na))
            }
            ValueExpr::Div(a, b) => {
                let na = a.reads().len();
                match walk(a, k, offset) {
                    Some(f) => Some(f),
                    // In the divisor: zero does NOT annihilate.
                    None => walk(b, k, offset + na).map(|_| false),
                }
            }
            ValueExpr::Add(a, b) | ValueExpr::Sub(a, b) => {
                // An additive subterm: the factor property fails unless
                // BOTH sides vanish — conservatively reject.
                let na = a.reads().len();
                walk(a, k, offset)
                    .or_else(|| walk(b, k, offset + na))
                    .map(|_| false)
            }
        }
    }
    walk(term, k, 0).unwrap_or(false)
}

fn same_ref(a: &LhsRef, b: &LhsRef) -> bool {
    a.array == b.array && a.idxs == b.idxs
}

fn flatten_sum<'a>(e: &'a ValueExpr, neg: bool, out: &mut Vec<(&'a ValueExpr, bool)>) {
    match e {
        ValueExpr::Add(a, b) => {
            flatten_sum(a, neg, out);
            flatten_sum(b, neg, out);
        }
        ValueExpr::Sub(a, b) => {
            flatten_sum(a, neg, out);
            flatten_sum(b, !neg, out);
        }
        other => out.push((other, neg)),
    }
}

/// True iff the statement's whole execution domain lies within a region
/// the view guarantees stored.
fn covered_by_guarantee(
    cx: Cx,
    p: &Program,
    scopy: &crate::config::StmtCopy,
    access: &[AffineExpr],
    view: &FormatView,
) -> bool {
    use bernoulli_formats::view::StoredGuarantee;
    if view
        .guarantees
        .iter()
        .any(|g| matches!(g, StoredGuarantee::AllPositions))
    {
        return true;
    }
    if !view
        .guarantees
        .iter()
        .any(|g| matches!(g, StoredGuarantee::FullDiagonal))
        || access.len() != 2
    {
        return false;
    }
    // Build the statement's iteration domain and check it forces
    // access_r == access_c.
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
    let diff = &access[0] - &access[1];
    sys.forces_zero(cx, &diff.to_linexpr(n, &index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use bernoulli_ir::parse_program;

    fn stmt_of(src: &str, k: usize) -> Statement {
        parse_program(src).unwrap().statements()[k].stmt.clone()
    }

    #[test]
    fn mvm_update_annihilated_by_matrix() {
        let s = stmt_of(
            r#"program mvm(M, N) {
                 in matrix A[M][N]; in vector x[N]; inout vector y[M];
                 for i in 0..M { for j in 0..N {
                   y[i] = y[i] + A[i][j] * x[j];
                 } }
               }"#,
            0,
        );
        // accesses: 0 = write y[i]; 1 = read y[i]; 2 = A[i][j]; 3 = x[j]
        assert!(annihilated_by(&s, 2), "zero A entries contribute nothing");
        assert!(annihilated_by(&s, 3), "zero x entries contribute nothing");
        assert!(
            !annihilated_by(&s, 1),
            "the accumulator itself is not a factor"
        );
    }

    #[test]
    fn ts_update_annihilated_but_division_not() {
        let src = r#"program ts(N) {
             in matrix L[N][N]; inout vector b[N];
             for j in 0..N {
               b[j] = b[j] / L[j][j];
               for i in j+1..N {
                 b[i] = b[i] - L[i][j] * b[j];
               }
             }
           }"#;
        let s1 = stmt_of(src, 0);
        // S1 accesses: 0=w b[j], 1=r b[j], 2=r L[j][j]
        assert!(!annihilated_by(&s1, 2), "division is not annihilated");
        let s2 = stmt_of(src, 1);
        // S2 accesses: 0=w b[i], 1=r b[i], 2=r L[i][j], 3=r b[j]
        assert!(annihilated_by(&s2, 2));
        assert!(annihilated_by(&s2, 3));
    }

    #[test]
    fn divisor_position_rejected() {
        let s = stmt_of(
            r#"program p(N) {
                 in matrix A[N][N]; inout vector x[N];
                 for i in 0..N { x[i] = x[i] + 1 / A[i][i]; }
               }"#,
            0,
        );
        // A in the divisor: 1/0 is not zero.
        assert!(!annihilated_by(&s, 2));
    }

    #[test]
    fn extra_term_without_ref_rejected() {
        let s = stmt_of(
            r#"program p(N) {
                 in matrix A[N][N]; inout vector x[N];
                 for i in 0..N { x[i] = x[i] + A[i][i] + 1; }
               }"#,
            0,
        );
        // the "+ 1" term fires even when A is unstored.
        assert!(!annihilated_by(&s, 2));
    }

    #[test]
    fn negated_products_ok() {
        let s = stmt_of(
            r#"program p(N) {
                 in matrix A[N][N]; in vector y[N]; inout vector x[N];
                 for i in 0..N { x[i] = x[i] - A[i][i] * y[i]; }
               }"#,
            0,
        );
        assert!(annihilated_by(&s, 2));
    }
}
