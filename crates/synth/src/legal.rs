//! Legality verification and enumeration-direction inference (paper §3.1
//! problem 2 and §4.1).
//!
//! One recursive procedure per dependence class does both jobs. Walking
//! the product-space dimensions outermost-first with the class polyhedron
//! `D` in hand:
//!
//! - if the per-dimension schedule difference `δ_p = F_d(i_d) − F_s(i_s)`
//!   is identically zero on `D`, the dimension is neutral — continue;
//! - otherwise `δ_p ≥ 0` must hold everywhere on `D` (else the candidate
//!   is illegal), the dimension **must be enumerated in increasing
//!   order** (it carries part of the class), and the walk continues on
//!   `D ∧ δ_p = 0` — the part of the class not yet satisfied;
//! - if `D` is exhausted (empty), the class is satisfied;
//! - if dimensions run out with `D` non-empty, the dependent instances
//!   land on identical points and original statement order must break the
//!   tie.
//!
//! Associative-reduction self-dependences (`s = s ⊕ term`) may be
//! *relaxed* — floating-point reassociation is accepted, as every sparse
//! BLAS does — making formats with unordered enumeration (COO, JAD's flat
//! perspective) usable for MVM-style kernels.

use crate::config::Config;
use crate::embed::Embedding;
use crate::spaces::Space;
use bernoulli_ir::{DepClass, LhsRef, Program, Statement, ValueExpr};
use bernoulli_polyhedra::{Constraint, Cx, LinExpr};
use std::collections::HashMap;

/// Result of legality checking for one candidate.
#[derive(Clone, Debug)]
pub struct Legality {
    pub ok: bool,
    /// Per product-space dimension: must it be enumerated in increasing
    /// order of values?
    pub must_increase: Vec<bool>,
    /// First violation found, for diagnostics.
    pub violation: Option<String>,
}

/// Determines which dependence classes are relaxable associative
/// reductions.
pub fn relaxable_classes(p: &Program, deps: &[DepClass]) -> Vec<bool> {
    let stmts = p.statements();
    deps.iter()
        .map(|c| {
            if c.src != c.dst {
                return false;
            }
            let stmt = &stmts[c.src].stmt;
            let Some(lhs_read_idx) = assoc_update_lhs_read(stmt) else {
                return false;
            };
            // Both accesses must be the write (index 0) or the top-level
            // read of the accumulator.
            let ok_access = |a: usize| a == 0 || a == lhs_read_idx;
            ok_access(c.src_access) && ok_access(c.dst_access)
        })
        .collect()
}

/// If `stmt` is an associative update `lhs = lhs ⊕ t1 ⊕ t2 ...` (⊕ being
/// + or -) where no `tᵢ` reads the lhs array, returns the index of the
/// accumulator read within the statement's access list.
#[allow(clippy::doc_lazy_continuation)]
pub fn assoc_update_lhs_read(stmt: &Statement) -> Option<usize> {
    let mut terms: Vec<(&ValueExpr, bool)> = Vec::new();
    flatten_sum(&stmt.rhs, false, &mut terms);
    // Exactly one positive term that is literally the lhs reference.
    let mut acc_count = 0;
    for (t, neg) in &terms {
        if let ValueExpr::Read(r) = t {
            if same_ref(r, &stmt.lhs) {
                if *neg {
                    return None;
                }
                acc_count += 1;
                continue;
            }
        }
        // Any other term must not read the lhs array at all.
        if reads_array(t, &stmt.lhs.array) {
            return None;
        }
    }
    if acc_count != 1 {
        return None;
    }
    // Locate the accumulator read in access order: accesses() is
    // [write, reads in evaluation order]; find the first read equal to
    // the lhs.
    let reads = stmt.rhs.reads();
    reads
        .iter()
        .position(|r| same_ref(r, &stmt.lhs))
        .map(|k| k + 1)
}

fn same_ref(a: &LhsRef, b: &LhsRef) -> bool {
    a.array == b.array && a.idxs == b.idxs
}

fn reads_array(e: &ValueExpr, array: &str) -> bool {
    e.reads().iter().any(|r| r.array == array)
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

/// Checks legality of `(space, embedding)` against the program's
/// dependence classes and infers required enumeration directions,
/// deciding under `cx`.
pub fn check_legality(
    cx: Cx,
    cfg: &Config,
    space: &Space,
    emb: &Embedding,
    deps: &[DepClass],
    relaxable: &[bool],
    relax_reductions: bool,
) -> Legality {
    let ndims = space.len();
    let mut must_increase = vec![false; ndims];

    for (ci, class) in deps.iter().enumerate() {
        if relax_reductions && relaxable[ci] {
            continue;
        }
        // All (source copy, destination copy) pairs of the class.
        for (sk, scopy) in cfg.stmts.iter().enumerate() {
            if scopy.orig != class.src {
                continue;
            }
            for (dk, dcopy) in cfg.stmts.iter().enumerate() {
                if dcopy.orig != class.dst {
                    continue;
                }
                if let Some(v) = walk_class(cx, space, emb, class, sk, dk, &mut must_increase) {
                    return Legality {
                        ok: false,
                        must_increase,
                        violation: Some(format!("{}: {v}", class.describe())),
                    };
                }
            }
        }
    }
    Legality {
        ok: true,
        must_increase,
        violation: None,
    }
}

/// Walks one class for one copy pair. Returns `Some(reason)` on a
/// violation; updates `must_increase` on success.
fn walk_class(
    cx: Cx,
    space: &Space,
    emb: &Embedding,
    class: &DepClass,
    sk: usize,
    dk: usize,
    must_increase: &mut [bool],
) -> Option<String> {
    let sys0 = class.sys.clone();
    let n = sys0.num_vars();
    let index: HashMap<String, usize> = sys0
        .vars()
        .iter()
        .enumerate()
        .map(|(i, v)| (v.clone(), i))
        .collect();

    // δ_p as LinExpr over the class variables.
    let delta = |p: usize| -> LinExpr {
        let src = emb.at(sk, p).rename(|v| {
            if index.contains_key(v) {
                v.to_string() // parameter
            } else {
                format!("{v}@s")
            }
        });
        let dst = emb.at(dk, p).rename(|v| {
            if index.contains_key(v) {
                v.to_string()
            } else {
                format!("{v}@d")
            }
        });
        let se = src.to_linexpr(n, &index);
        let de = dst.to_linexpr(n, &index);
        &de - &se
    };

    let mut cur = sys0;
    for p in 0..space.len() {
        if cur.is_empty(cx) {
            return None; // satisfied
        }
        let d = delta(p);
        if cur.forces_zero(cx, &d) {
            continue;
        }
        // δ_p must be non-negative on the remaining class.
        if !cur.implies(cx, &Constraint::ge0(d.clone())) {
            return Some(format!(
                "dimension {} ({}) can run backwards for copies S{}/S{}",
                p, space.dims[p].name, sk, dk
            ));
        }
        must_increase[p] = true;
        cur.add(Constraint::eq0(d));
    }
    if cur.is_empty(cx) {
        return None;
    }
    // Identical embeddings on a non-empty residue: statement order must
    // break the tie, i.e. the source copy must be emitted first.
    if sk < dk {
        None
    } else {
        Some(format!(
            "dependent instances land on identical points but source copy S{sk} is not emitted before S{dk}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::enumerate_configs;
    use crate::embed::base_embedding;
    use crate::spaces::candidate_spaces;
    use bernoulli_formats::formats::csc::csc_format_view;
    use bernoulli_formats::formats::csr::csr_format_view;
    use bernoulli_ir::{analyze, parse_program};
    use bernoulli_polyhedra::PolyCaches;
    use std::collections::HashMap;

    const TS: &str = r#"
        program ts(N) {
          in matrix L[N][N];
          inout vector b[N];
          for j in 0..N {
            b[j] = b[j] / L[j][j];
            for i in j+1..N {
              b[i] = b[i] - L[i][j] * b[j];
            }
          }
        }
    "#;

    const MVM: &str = r#"
        program mvm(M, N) {
          in matrix A[M][N];
          in vector x[N];
          inout vector y[M];
          for i in 0..M {
            for j in 0..N {
              y[i] = y[i] + A[i][j] * x[j];
            }
          }
        }
    "#;

    #[test]
    fn ts_csr_row_plan_is_legal_with_directions() {
        let p = parse_program(TS).unwrap();
        let memo = PolyCaches::new();
        let cx = Cx::new(&memo);
        let deps = analyze(&p, cx);
        let relax = relaxable_classes(&p, &deps);
        let mut views = HashMap::new();
        views.insert("L".to_string(), csr_format_view());
        let cfg = enumerate_configs(&p, &views).unwrap().remove(0);
        let space = candidate_spaces(&cfg, 4, false).remove(0);
        let emb = base_embedding(&cfg, &space);
        let leg = check_legality(cx, &cfg, &space, &emb, &deps, &relax, true);
        assert!(leg.ok, "{:?}", leg.violation);
        // The row group (dims 0-1) and the column group (dims 2-3) must
        // run in increasing order — exactly the paper's conclusion that
        // l1r and l1c must be enumerated in increasing order.
        assert!(leg.must_increase[0] || leg.must_increase[1]);
        assert!(leg.must_increase[2] || leg.must_increase[3]);
        // Iteration dims carry nothing (they are redundant).
        assert!(!leg.must_increase[4] && !leg.must_increase[5] && !leg.must_increase[6]);
    }

    #[test]
    fn ts_csc_column_plan_is_legal() {
        // CSC enumerates columns first: the original (column) TS order.
        let p = parse_program(TS).unwrap();
        let memo = PolyCaches::new();
        let cx = Cx::new(&memo);
        let deps = analyze(&p, cx);
        let relax = relaxable_classes(&p, &deps);
        let mut views = HashMap::new();
        views.insert("L".to_string(), csc_format_view());
        let cfg = enumerate_configs(&p, &views).unwrap().remove(0);
        let space = candidate_spaces(&cfg, 4, false).remove(0);
        let emb = base_embedding(&cfg, &space);
        let leg = check_legality(cx, &cfg, &space, &emb, &deps, &relax, true);
        assert!(leg.ok, "{:?}", leg.violation);
    }

    #[test]
    fn mvm_reductions_relax() {
        let p = parse_program(MVM).unwrap();
        let memo = PolyCaches::new();
        let cx = Cx::new(&memo);
        let deps = analyze(&p, cx);
        let relax = relaxable_classes(&p, &deps);
        assert!(!deps.is_empty());
        assert!(relax.iter().all(|&r| r), "all MVM deps are reductions");
        let mut views = HashMap::new();
        views.insert("A".to_string(), csr_format_view());
        let cfg = enumerate_configs(&p, &views).unwrap().remove(0);
        let space = candidate_spaces(&cfg, 4, false).remove(0);
        let emb = base_embedding(&cfg, &space);
        // With relaxation: no direction requirements at all.
        let leg = check_legality(cx, &cfg, &space, &emb, &deps, &relax, true);
        assert!(leg.ok);
        assert!(leg.must_increase.iter().all(|&m| !m));
        // Without relaxation: still legal for CSR (increasing enumeration
        // required on the column group).
        let leg2 = check_legality(cx, &cfg, &space, &emb, &deps, &relax, false);
        assert!(leg2.ok, "{:?}", leg2.violation);
        assert!(leg2.must_increase.iter().any(|&m| m));
    }

    #[test]
    fn assoc_update_detection() {
        let p = parse_program(MVM).unwrap();
        let stmts = p.statements();
        assert_eq!(assoc_update_lhs_read(&stmts[0].stmt), Some(1));
        let p2 = parse_program(TS).unwrap();
        let stmts2 = p2.statements();
        // S1: b[j] = b[j] / L[j][j] — not an associative update.
        assert_eq!(assoc_update_lhs_read(&stmts2[0].stmt), None);
        // S2: b[i] = b[i] - L[i][j]*b[j] — associative (accumulating a
        // negated product; the term reads b[j], which *is* the lhs array,
        // so it must NOT be considered relaxable).
        assert_eq!(assoc_update_lhs_read(&stmts2[1].stmt), None);
    }

    #[test]
    fn illegal_embedding_rejected() {
        // A sum-prefix program: s[i] depends on s[i-1]; embedding that
        // reverses i is illegal.
        let src = r#"
            program prefix(N) {
              inout vector s[N];
              for i in 1..N {
                s[i] = s[i] + s[i-1];
              }
            }
        "#;
        let p = parse_program(src).unwrap();
        let memo = PolyCaches::new();
        let cx = Cx::new(&memo);
        let deps = analyze(&p, cx);
        assert!(!deps.is_empty());
        let relax = relaxable_classes(&p, &deps);
        // s[i] += s[i-1] reads the lhs array in the term: not relaxable.
        assert!(relax.iter().all(|&r| !r));
        let cfg = enumerate_configs(&p, &HashMap::new()).unwrap().remove(0);
        let space = candidate_spaces(&cfg, 4, false).remove(0);
        // Legal with identity embedding:
        let emb = base_embedding(&cfg, &space);
        let leg = check_legality(cx, &cfg, &space, &emb, &deps, &relax, true);
        assert!(leg.ok);
        assert!(leg.must_increase[0], "i must increase");
        // Reverse the embedding (i -> -i): illegal.
        let mut emb2 = emb.clone();
        emb2.maps[0][0] =
            &(-&bernoulli_ir::AffineExpr::var("i")) + &bernoulli_ir::AffineExpr::constant(0);
        let leg2 = check_legality(cx, &cfg, &space, &emb2, &deps, &relax, true);
        assert!(!leg2.ok);
    }
}
