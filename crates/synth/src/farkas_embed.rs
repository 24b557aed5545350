//! The general characterization of legal embeddings via Farkas' lemma
//! (paper §3.1, problem 2, following Feautrier \[9\]).
//!
//! For a dependence class `D` and a product-space dimension `p`, the
//! legality condition is `δ_p(i_s, i_d) = F_d,p(i_d) − F_s,p(i_s) ≥ 0`
//! over `D` (given equality at the outer dimensions). Writing the unknown
//! embedding components as
//!
//! ```text
//!   F_s,p(i_s) = Σ_j u_s[j]·i_s[j] + u_s[m_s]        (and likewise F_d,p)
//! ```
//!
//! `δ_p`'s coefficients are affine in the unknowns `u`, so Farkas' lemma
//! turns "non-negative over D" into a linear system over `u` and the
//! multipliers, and Fourier–Motzkin eliminates the multipliers — yielding
//! the *entire space of legal embedding coefficients* for that dimension
//! and class.
//!
//! The production search uses the cheaper matching heuristic of §4.3 and
//! verifies candidates directly; this module provides the complete
//! characterization the paper describes, and the test suite uses it to
//! certify that the heuristic's choices always lie inside the legal
//! space.

use bernoulli_ir::DepClass;
use bernoulli_polyhedra::{farkas_nonneg_conditions, Cx, LinExpr, System};

/// The legal space of `(u_s, u_d)` embedding coefficients for one
/// dimension against one dependence class.
///
/// Variable order of the returned system:
/// `[u_s_0 .. u_s_{m_s-1}, u_s_const, u_d_0 .. u_d_{m_d-1}, u_d_const]`,
/// where `m_s`/`m_d` are the numbers of source/destination loop
/// variables of the class. Embeddings may not reference symbolic
/// parameters (their coefficients are pinned to zero), matching the
/// embeddings the search constructs. The multipliers are projected out
/// under `cx`.
pub fn legal_embedding_space(cx: Cx, class: &DepClass) -> System {
    let m_s = class.src_vars.len();
    let m_d = class.dst_vars.len();
    let nu = m_s + 1 + m_d + 1;
    let u_names: Vec<String> = (0..m_s)
        .map(|j| format!("us{j}"))
        .chain(std::iter::once("usc".to_string()))
        .chain((0..m_d).map(|j| format!("ud{j}")))
        .chain(std::iter::once("udc".to_string()))
        .collect();

    // δ_p coefficients per class variable, affine over u.
    let nx = class.sys.num_vars();
    let mut coeff_in_u: Vec<LinExpr> = vec![LinExpr::zero(nu); nx];
    for (j, &xi) in class.src_vars.iter().enumerate() {
        // coefficient of src var = -u_s[j]
        coeff_in_u[xi] = -&LinExpr::var(nu, j);
    }
    for (j, &xi) in class.dst_vars.iter().enumerate() {
        coeff_in_u[xi] = LinExpr::var(nu, m_s + 1 + j);
    }
    // Parameter coefficients stay identically zero (embeddings are over
    // loop variables and constants only).
    let mut cst_in_u = LinExpr::var(nu, m_s + 1 + m_d); // +udc
    cst_in_u.add_scaled(&LinExpr::var(nu, m_s), -bernoulli_numeric::Rational::ONE); // -usc

    farkas_nonneg_conditions(cx, &class.sys, &coeff_in_u, &cst_in_u, &u_names)
}

/// Packs concrete embedding expressions into the `u` layout of
/// [`legal_embedding_space`]: source expr over the source statement's
/// loop vars, destination expr over the destination's.
pub fn pack_u(
    class: &DepClass,
    src_loop_vars: &[&str],
    src_expr: &bernoulli_ir::AffineExpr,
    dst_loop_vars: &[&str],
    dst_expr: &bernoulli_ir::AffineExpr,
) -> Vec<i64> {
    let mut u = Vec::with_capacity(class.src_vars.len() + class.dst_vars.len() + 2);
    for v in src_loop_vars {
        u.push(src_expr.coeff(v));
    }
    u.push(src_expr.cst());
    for v in dst_loop_vars {
        u.push(dst_expr.coeff(v));
    }
    u.push(dst_expr.cst());
    u
}

#[cfg(test)]
mod tests {
    use super::*;
    use bernoulli_ir::{analyze, parse_program, AffineExpr};
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

    /// The paper's D2 class (S2 → S1, flow through b with j1 = i2): the
    /// row dimension embedding F_1 = j (for S1) / F_2 = i (for S2) must
    /// satisfy δ = j_d − i_s ≥ 0 over D2 — and it does, because the class
    /// forces j_d = i_s. The Farkas space must contain that choice and
    /// exclude the reversed one.
    #[test]
    fn ts_row_embedding_lies_in_legal_space() {
        let p = parse_program(TS).unwrap();
        let memo = PolyCaches::new();
        let cx = Cx::new(&memo);
        let deps = analyze(&p, cx);
        // D2: src = S2 (index 1), dst = S1 (index 0), flow on b, carried.
        let d2 = deps
            .iter()
            .find(|c| c.src == 1 && c.dst == 0 && c.level == Some(0))
            .expect("D2 exists");
        let space = legal_embedding_space(cx, d2);

        // Heuristic choice at the row dimension: F_s (S2) = i, F_d (S1) = j.
        let u = pack_u(
            d2,
            &["j", "i"],
            &AffineExpr::var("i"),
            &["j"],
            &AffineExpr::var("j"),
        );
        let point: Vec<i128> = u.iter().map(|&x| x as i128).collect();
        assert!(
            space.contains_int(&point),
            "heuristic row embedding must be legal: {space:?}"
        );

        // Reversed destination (F_d = -j): illegal (δ = -j_d - i_s < 0
        // somewhere on D2).
        let bad = pack_u(
            d2,
            &["j", "i"],
            &AffineExpr::var("i"),
            &["j"],
            &(-&AffineExpr::var("j")),
        );
        let bad_point: Vec<i128> = bad.iter().map(|&x| x as i128).collect();
        assert!(
            !space.contains_int(&bad_point),
            "reversed embedding must be excluded"
        );
    }

    /// D1 (S1 → S2, loop-independent, j1 = j2): the column dimension
    /// embedding (both = j) is legal; shifting the destination down by
    /// one (F_d = j − 1 < F_s) is not.
    #[test]
    fn ts_column_offsets() {
        let p = parse_program(TS).unwrap();
        let memo = PolyCaches::new();
        let cx = Cx::new(&memo);
        let deps = analyze(&p, cx);
        let d1 = deps
            .iter()
            .find(|c| c.src == 0 && c.dst == 1 && c.level.is_none())
            .expect("D1 exists");
        let space = legal_embedding_space(cx, d1);

        let j = AffineExpr::var("j");
        let ok = pack_u(d1, &["j"], &j, &["j", "i"], &j);
        assert!(space.contains_int(&ok.iter().map(|&x| x as i128).collect::<Vec<_>>()));

        // "after" placement (+1 on the destination) is also legal ...
        let after = pack_u(
            d1,
            &["j"],
            &j,
            &["j", "i"],
            &(&j + &AffineExpr::constant(1)),
        );
        assert!(space.contains_int(&after.iter().map(|&x| x as i128).collect::<Vec<_>>()));

        // ... but "before" (-1) would run the read before the write.
        let before = pack_u(
            d1,
            &["j"],
            &j,
            &["j", "i"],
            &(&j - &AffineExpr::constant(1)),
        );
        assert!(!space.contains_int(&before.iter().map(|&x| x as i128).collect::<Vec<_>>()));
    }

    /// Every row/column embedding the production search actually chose
    /// for TS/CSR is certified legal by the Farkas space of every
    /// dependence class.
    #[test]
    fn search_choices_certified_by_farkas() {
        use crate::config::enumerate_configs;
        use crate::embed::base_embedding;
        use crate::spaces::candidate_spaces;
        use bernoulli_formats::formats::csr::csr_format_view;
        use std::collections::HashMap;

        let p = parse_program(TS).unwrap();
        let memo = PolyCaches::new();
        let cx = Cx::new(&memo);
        let deps = analyze(&p, cx);
        let mut views = HashMap::new();
        views.insert("L".to_string(), csr_format_view());
        let cfg = enumerate_configs(&p, &views).unwrap().remove(0);
        let space = candidate_spaces(&cfg, 4, false).remove(0);
        let emb = base_embedding(&cfg, &space);

        // Check dimension 0 (the row group leader) against every class
        // that is *carried or decided* there — i.e. classes for which
        // δ_0 is not identically zero. Classes resolved by later
        // dimensions (δ_0 ≡ 0 on the class) impose equality, which the
        // Farkas ≥-space also contains.
        for class in &deps {
            let s_vars: Vec<&str> = cfg.stmts[class.src].info.loop_vars();
            let d_vars: Vec<&str> = cfg.stmts[class.dst].info.loop_vars();
            let space_u = legal_embedding_space(cx, class);
            let u = pack_u(
                class,
                &s_vars,
                emb.at(class.src, 0),
                &d_vars,
                emb.at(class.dst, 0),
            );
            let point: Vec<i128> = u.iter().map(|&x| x as i128).collect();
            assert!(
                space_u.contains_int(&point),
                "dim 0 embedding illegal for {}",
                class.describe()
            );
        }
    }
}
