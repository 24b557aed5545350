//! Dependence analysis: flow, anti and output dependence classes as
//! systems of affine inequalities (paper §3).
//!
//! A *dependence class* `D : D(i_s, i_d)ᵀ + d ≥ 0` collects all pairs of
//! statement instances `(i_s, i_d)` such that the source instance executes
//! before the destination in the original program, both touch the same
//! array element, and at least one access is a write. One class is
//! produced per (statement pair, access pair, ordering level); classes
//! whose polyhedron is empty are pruned.

use crate::ast::{Program, StmtInfo};
use crate::expr::AffineExpr;
use bernoulli_polyhedra::{Constraint, Cx, LinExpr, System};
use std::collections::HashMap;

/// The kind of a dependence (by the access pair that causes it).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DepKind {
    /// write → read
    Flow,
    /// read → write
    Anti,
    /// write → write
    Output,
}

/// One dependence class.
#[derive(Clone, Debug)]
pub struct DepClass {
    /// Source statement id.
    pub src: usize,
    /// Destination statement id.
    pub dst: usize,
    pub kind: DepKind,
    /// The array through which the dependence flows.
    pub array: String,
    /// `Some(l)`: carried by shared loop level `l` (source iteration
    /// strictly smaller at `l`, equal above). `None`: loop-independent
    /// (all shared loops equal; source precedes destination textually).
    pub level: Option<usize>,
    /// Polyhedron over `[src loop vars "@s", dst loop vars "@d", params]`.
    pub sys: System,
    /// Indices of the source loop variables within `sys`.
    pub src_vars: Vec<usize>,
    /// Indices of the destination loop variables within `sys`.
    pub dst_vars: Vec<usize>,
    /// Indices of the parameters within `sys`.
    pub params: Vec<usize>,
    /// Index of the source access within the source statement's access
    /// list (0 = the write).
    pub src_access: usize,
    /// Index of the destination access within its statement's list.
    pub dst_access: usize,
}

impl DepClass {
    /// Human-readable one-line summary.
    pub fn describe(&self) -> String {
        format!(
            "S{} -> S{} ({:?} on {:?}, {})",
            self.src + 1,
            self.dst + 1,
            self.kind,
            self.array,
            match self.level {
                Some(l) => format!("carried at level {l}"),
                None => "loop-independent".to_string(),
            }
        )
    }
}

/// Computes all (non-empty) dependence classes of the program, deciding
/// emptiness under `cx`.
pub fn analyze(p: &Program, cx: Cx) -> Vec<DepClass> {
    let stmts = p.statements();
    let mut out = Vec::new();
    for s in &stmts {
        for d in &stmts {
            for (sai, (sa, s_write)) in s.accesses().iter().enumerate() {
                for (dai, (da, d_write)) in d.accesses().iter().enumerate() {
                    if sa.array != da.array || (!s_write && !d_write) {
                        continue;
                    }
                    let kind = match (s_write, d_write) {
                        (true, true) => DepKind::Output,
                        (true, false) => DepKind::Flow,
                        (false, true) => DepKind::Anti,
                        (false, false) => unreachable!(),
                    };
                    out.extend(classes_for_pair(
                        p, cx, s, d, &sa.idxs, &da.idxs, kind, &sa.array, sai, dai,
                    ));
                }
            }
        }
    }
    out
}

/// Builds the dependence classes for one (src stmt, dst stmt, access pair).
#[allow(clippy::too_many_arguments)]
fn classes_for_pair(
    p: &Program,
    cx: Cx,
    s: &StmtInfo,
    d: &StmtInfo,
    s_idx: &[AffineExpr],
    d_idx: &[AffineExpr],
    kind: DepKind,
    array: &str,
    src_access: usize,
    dst_access: usize,
) -> Vec<DepClass> {
    let shared = s.shared_loops(d);
    let mut out = Vec::new();
    // One class per carrying level, plus the loop-independent case when
    // the source precedes the destination textually.
    for level in 0..shared {
        if let Some(mut c) = build_class(p, cx, s, d, s_idx, d_idx, kind, array, Some(level)) {
            c.src_access = src_access;
            c.dst_access = dst_access;
            out.push(c);
        }
    }
    if s.before(d) {
        if let Some(mut c) = build_class(p, cx, s, d, s_idx, d_idx, kind, array, None) {
            c.src_access = src_access;
            c.dst_access = dst_access;
            out.push(c);
        }
    }
    out
}

#[allow(clippy::too_many_arguments)]
fn build_class(
    p: &Program,
    cx: Cx,
    s: &StmtInfo,
    d: &StmtInfo,
    s_idx: &[AffineExpr],
    d_idx: &[AffineExpr],
    kind: DepKind,
    array: &str,
    level: Option<usize>,
) -> Option<DepClass> {
    // Variable layout: src loops "@s", dst loops "@d", params.
    let mut names: Vec<String> = Vec::new();
    let src_vars: Vec<usize> = s
        .loops
        .iter()
        .map(|(v, _, _)| {
            names.push(format!("{v}@s"));
            names.len() - 1
        })
        .collect();
    let dst_vars: Vec<usize> = d
        .loops
        .iter()
        .map(|(v, _, _)| {
            names.push(format!("{v}@d"));
            names.len() - 1
        })
        .collect();
    let params: Vec<usize> = p
        .params
        .iter()
        .map(|v| {
            names.push(v.clone());
            names.len() - 1
        })
        .collect();
    let n = names.len();
    let index: HashMap<String, usize> = names
        .iter()
        .enumerate()
        .map(|(i, s)| (s.clone(), i))
        .collect();
    let mut sys = System::new(names);

    // Bound constraints for both instances. Bounds may reference outer
    // loop variables of the same instance and parameters.
    let suffix_s = |e: &AffineExpr| rename_instance(e, p, s, "@s");
    let suffix_d = |e: &AffineExpr| rename_instance(e, p, d, "@d");
    for (k, (v, lo, hi)) in s.loops.iter().enumerate() {
        let var = LinExpr::var(n, src_vars[k]);
        let _ = v;
        sys.add_ge(&var, &suffix_s(lo).to_linexpr(n, &index));
        let hi_e = suffix_s(hi).to_linexpr(n, &index);
        let one = LinExpr::constant(n, 1);
        sys.add(Constraint::ge0(&(&hi_e - &var) - &one)); // var <= hi - 1
    }
    for (k, (v, lo, hi)) in d.loops.iter().enumerate() {
        let var = LinExpr::var(n, dst_vars[k]);
        let _ = v;
        sys.add_ge(&var, &suffix_d(lo).to_linexpr(n, &index));
        let hi_e = suffix_d(hi).to_linexpr(n, &index);
        let one = LinExpr::constant(n, 1);
        sys.add(Constraint::ge0(&(&hi_e - &var) - &one));
    }

    // Access equality per dimension.
    debug_assert_eq!(s_idx.len(), d_idx.len());
    for (se, de) in s_idx.iter().zip(d_idx) {
        sys.add_eq(
            &suffix_s(se).to_linexpr(n, &index),
            &suffix_d(de).to_linexpr(n, &index),
        );
    }

    // Ordering constraints.
    match level {
        Some(l) => {
            for k in 0..l {
                sys.add_eq(&LinExpr::var(n, src_vars[k]), &LinExpr::var(n, dst_vars[k]));
            }
            // src_l + 1 <= dst_l
            let lhs = &LinExpr::var(n, dst_vars[l]) - &LinExpr::var(n, src_vars[l]);
            sys.add(Constraint::ge0(&lhs - &LinExpr::constant(n, 1)));
        }
        None => {
            let shared = s.shared_loops(d);
            for k in 0..shared {
                sys.add_eq(&LinExpr::var(n, src_vars[k]), &LinExpr::var(n, dst_vars[k]));
            }
        }
    }

    if sys.is_empty(cx) {
        return None;
    }
    Some(DepClass {
        src: s.id,
        dst: d.id,
        kind,
        array: array.to_string(),
        level,
        sys,
        src_vars,
        dst_vars,
        params,
        src_access: 0,
        dst_access: 0,
    })
}

/// Renames the loop variables of an expression with an instance suffix,
/// leaving parameters untouched.
fn rename_instance(e: &AffineExpr, p: &Program, stmt: &StmtInfo, suffix: &str) -> AffineExpr {
    e.rename(|v| {
        if p.params.iter().any(|q| q == v) {
            v.to_string()
        } else {
            debug_assert!(
                stmt.loops.iter().any(|(lv, _, _)| lv == v),
                "variable {v} is neither a loop var nor a parameter"
            );
            format!("{v}{suffix}")
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use bernoulli_polyhedra::PolyCaches;

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

    #[test]
    fn ts_has_the_papers_dependences() {
        let p = parse_program(TS).unwrap();
        let classes = analyze(&p, Cx::new(&PolyCaches::new()));
        assert!(!classes.is_empty());

        // D1 (paper): S1 writes b[j], S2 reads b[j]: flow S1 -> S2 with
        // j1 = j2 (loop-independent: same j iteration, S1 textually first).
        let d1 = classes
            .iter()
            .find(|c| c.src == 0 && c.dst == 1 && c.kind == DepKind::Flow && c.level.is_none());
        assert!(d1.is_some(), "missing D1 among {:?}", summaries(&classes));
        // Its polyhedron must contain (j@s, j@d, i@d, N) = (1, 1, 2, 5)
        // and exclude j@s != j@d.
        let d1 = d1.unwrap();
        assert!(d1.sys.contains_int(&[1, 1, 2, 5]));
        assert!(!d1.sys.contains_int(&[1, 2, 3, 5]));

        // D2 (paper): S2 writes b[i], S1 reads b[j] with j1 = i2, carried
        // by the outer j loop (j2 < j1): here the *source* is S2.
        let d2 = classes
            .iter()
            .find(|c| c.src == 1 && c.dst == 0 && c.kind == DepKind::Flow && c.level == Some(0));
        assert!(d2.is_some(), "missing D2 among {:?}", summaries(&classes));
        // vars: [j@s, i@s, j@d, N]; point j@s=0, i@s=2, j@d=2, N=5 is in D2.
        let d2 = d2.unwrap();
        assert!(d2.sys.contains_int(&[0, 2, 2, 5]));
        // i@s must equal j@d:
        assert!(!d2.sys.contains_int(&[0, 2, 1, 5]));
    }

    fn summaries(cs: &[DepClass]) -> Vec<String> {
        cs.iter().map(|c| c.describe()).collect()
    }

    #[test]
    fn empty_classes_pruned() {
        // A program with no loop-carried dependences: x[i] = x[i] * 2.
        let p = parse_program(
            "program scale(N) { inout vector x[N]; for i in 0..N { x[i] = x[i] * 2; } }",
        )
        .unwrap();
        let classes = analyze(&p, Cx::new(&PolyCaches::new()));
        // Flow/anti/output within the same instance require src before dst
        // or a carrying level; x[i] accesses in different iterations touch
        // different elements, so nothing survives.
        assert!(classes.is_empty(), "{:?}", summaries(&classes));
    }

    #[test]
    fn reduction_has_carried_dependences() {
        let p = parse_program(
            "program acc(N) { inout vector s[1]; for i in 0..N { s[0] = s[0] + 1; } }",
        )
        .unwrap();
        let classes = analyze(&p, Cx::new(&PolyCaches::new()));
        // s[0] written and read every iteration: flow, anti and output all
        // carried at level 0.
        assert!(classes
            .iter()
            .any(|c| c.kind == DepKind::Flow && c.level == Some(0)));
        assert!(classes
            .iter()
            .any(|c| c.kind == DepKind::Anti && c.level == Some(0)));
        assert!(classes
            .iter()
            .any(|c| c.kind == DepKind::Output && c.level == Some(0)));
    }

    #[test]
    fn mvm_reduction_only_on_y() {
        let p = parse_program(
            r#"program mvm(M, N) {
                 in matrix A[M][N];
                 in vector x[N];
                 inout vector y[M];
                 for i in 0..M { for j in 0..N {
                   y[i] = y[i] + A[i][j] * x[j];
                 } }
               }"#,
        )
        .unwrap();
        let classes = analyze(&p, Cx::new(&PolyCaches::new()));
        assert!(classes.iter().all(|c| c.array == "y"));
        // Carried at the inner level only (same i, different j).
        assert!(classes.iter().any(|c| c.level == Some(1)));
        assert!(classes.iter().all(|c| c.level.is_some()));
        // No dependence carried by i alone (different i → different y[i])
        assert!(classes.iter().all(|c| c.level != Some(0)));
    }

    #[test]
    fn descriptions_render() {
        let p = parse_program(TS).unwrap();
        let classes = analyze(&p, Cx::new(&PolyCaches::new()));
        for c in &classes {
            let s = c.describe();
            assert!(s.contains("->"));
        }
    }
}
