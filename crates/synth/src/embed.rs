//! Embedding functions `F_k : S_k → P` (paper §3.1, problem 2).
//!
//! Every statement copy gets, for each product-space dimension, an affine
//! expression over its own loop variables (and parameters) giving the
//! coordinate at which its instances execute. Dimensions the statement
//! *owns* (its data dims and loop dims) use their defining expression;
//! foreign dimensions are filled by the **common-enumeration heuristic**
//! (§4.3): align with the matching dimension of another statement when
//! possible, else reuse the expression of the nearest preceding dimension
//! (so the statement rides along), optionally nudged by ±1 offsets to
//! place it before/after the matching enumeration when plain alignment is
//! illegal.

use crate::config::Config;
use crate::spaces::{DimKind, Space};
use bernoulli_ir::AffineExpr;

/// A set of embedding functions: `maps[k][p]` is `F_k` at dimension `p`,
/// an affine expression over statement copy `k`'s loop variables and the
/// program parameters.
#[derive(Clone, Debug)]
pub struct Embedding {
    pub maps: Vec<Vec<AffineExpr>>,
}

impl Embedding {
    /// The expression of statement copy `k` at dimension `p`.
    pub fn at(&self, k: usize, p: usize) -> &AffineExpr {
        &self.maps[k][p]
    }
}

/// Builds the base (zero-offset) embedding by pedigree matching.
pub fn base_embedding(cfg: &Config, space: &Space) -> Embedding {
    let nstmts = cfg.stmts.len();
    let mut maps: Vec<Vec<AffineExpr>> = Vec::with_capacity(nstmts);
    for k in 0..nstmts {
        let mut row: Vec<AffineExpr> = Vec::with_capacity(space.len());
        for dim in &space.dims {
            let e = match dim.kind {
                DimKind::Data { ref_id, dim_idx } => {
                    let r = &cfg.refs[ref_id];
                    if r.stmt == k {
                        // Own data dimension.
                        r.dims[dim_idx].value.clone()
                    } else {
                        foreign_expr(cfg, k, &row, ref_id, dim_idx)
                    }
                }
                DimKind::Iter { stmt, loop_idx } => {
                    if stmt == k {
                        AffineExpr::var(&cfg.stmts[k].info.loops[loop_idx].0)
                    } else {
                        iter_foreign_expr(cfg, k, &row, stmt, loop_idx)
                    }
                }
            };
            row.push(e);
        }
        maps.push(row);
    }
    Embedding { maps }
}

/// Foreign data dimension: align with this statement's own reference to
/// the same matrix — by value attribute when the chains agree, else
/// through the dense-coordinate correspondence (a diagonal chain's `i`
/// dimension matches any reference's row access, a DIA `d` dimension
/// matches `access_r - access_c`, ...). Falls back to riding along with
/// the previous dimension.
fn foreign_expr(
    cfg: &Config,
    k: usize,
    row_so_far: &[AffineExpr],
    ref_id: usize,
    dim_idx: usize,
) -> AffineExpr {
    let target = &cfg.refs[ref_id];
    let attr = &target.dims[dim_idx].attr;
    for &rid in &cfg.stmts[k].refs {
        let own = &cfg.refs[rid];
        if own.matrix == target.matrix {
            if let Some(d) = own.dims.iter().find(|d| &d.attr == attr) {
                return d.value.clone();
            }
        }
    }
    // Dense-coordinate correspondence.
    if let Some(dense_form) = crate::config::dim_value_in_dense(target, dim_idx) {
        for &rid in &cfg.stmts[k].refs {
            let own = &cfg.refs[rid];
            if own.matrix == target.matrix {
                let mut e = dense_form.clone();
                for (a, acc) in own.dense_attrs.iter().zip(&own.access) {
                    e = e.substitute(a, acc);
                }
                return e;
            }
        }
    }
    // No reference on that matrix at all: ride the owning statement's
    // expression when its loop variables are all loops shared with this
    // statement (e.g. the initialization `r[i] = b[i]` rides the row
    // dimension the accumulation binds through the shared `i` loop).
    {
        let owner = cfg.refs[ref_id].stmt;
        let expr = &cfg.refs[ref_id].dims[dim_idx].value;
        let shared = cfg.stmts[k].info.shared_loops(&cfg.stmts[owner].info);
        let shared_vars: Vec<&str> = cfg.stmts[owner].info.loops
            [..shared.min(cfg.stmts[owner].info.loops.len())]
            .iter()
            .map(|(v, _, _)| v.as_str())
            .collect();
        let all_shared = expr.vars().iter().all(|v| {
            shared_vars.contains(v) || !cfg.stmts[owner].info.loops.iter().any(|(lv, _, _)| lv == v)
        });
        if all_shared {
            return expr.clone();
        }
    }
    previous_or_zero(row_so_far)
}

/// Foreign iteration dimension: if the loop is literally shared (same
/// loop node encloses both statements), use the own variable; else ride
/// along.
fn iter_foreign_expr(
    cfg: &Config,
    k: usize,
    row_so_far: &[AffineExpr],
    stmt: usize,
    loop_idx: usize,
) -> AffineExpr {
    let own = &cfg.stmts[k].info;
    let other = &cfg.stmts[stmt].info;
    let shared = own.shared_loops(&cfg.stmts[stmt].info);
    if loop_idx < shared {
        // Same loop node: same variable name.
        return AffineExpr::var(&other.loops[loop_idx].0);
    }
    previous_or_zero(row_so_far)
}

fn previous_or_zero(row_so_far: &[AffineExpr]) -> AffineExpr {
    row_so_far
        .last()
        .cloned()
        .unwrap_or_else(|| AffineExpr::constant(0))
}

/// Yields embedding variants: the base embedding first, then single-dim
/// ±1 offset repairs of foreign dimensions (the "before or after the
/// matching enumeration" choice of §4.3), up to `max` variants.
pub fn embedding_variants(cfg: &Config, space: &Space, max: usize) -> Vec<Embedding> {
    let base = base_embedding(cfg, space);
    let mut out = vec![base.clone()];
    'outer: for k in 0..cfg.stmts.len() {
        for p in 0..space.len() {
            let owns = match space.dims[p].kind {
                DimKind::Data { ref_id, .. } => cfg.refs[ref_id].stmt == k,
                DimKind::Iter { stmt, .. } => stmt == k,
            };
            if owns {
                continue;
            }
            for off in [-1i64, 1] {
                if out.len() >= max {
                    break 'outer;
                }
                let mut v = base.clone();
                v.maps[k][p] = &v.maps[k][p] + &AffineExpr::constant(off);
                out.push(v);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::enumerate_configs;
    use crate::spaces::candidate_spaces;
    use bernoulli_formats::formats::csr::csr_format_view;
    use bernoulli_ir::parse_program;
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

    #[test]
    fn ts_base_embedding_matches_paper() {
        let p = parse_program(TS).unwrap();
        let mut views = HashMap::new();
        views.insert("L".to_string(), csr_format_view());
        let cfg = enumerate_configs(&p, &views).unwrap().remove(0);
        let space = candidate_spaces(&cfg, 4, false).remove(0);
        // Order: L0.r, L1.r, L0.c, L1.c, j@0, j@1, i@1.
        let emb = base_embedding(&cfg, &space);
        let j = AffineExpr::var("j");
        let i = AffineExpr::var("i");
        // S1 (k = 0): everything is j — the paper's
        // F1 = (l1r, l1r, l1c, l1c, j1, j1, j1) with l1r = l1c = j1.
        assert_eq!(emb.maps[0], vec![j.clone(); 7]);
        // S2 (k = 1): (i, i, j, j, j, j, i) — the paper's
        // F2 = (l2r, l2r, l2c, l2c, j2, j2, i2).
        assert_eq!(
            emb.maps[1],
            vec![
                i.clone(),
                i.clone(),
                j.clone(),
                j.clone(),
                j.clone(),
                j.clone(),
                i.clone()
            ]
        );
    }

    #[test]
    fn variants_include_offsets() {
        let p = parse_program(TS).unwrap();
        let mut views = HashMap::new();
        views.insert("L".to_string(), csr_format_view());
        let cfg = enumerate_configs(&p, &views).unwrap().remove(0);
        let space = candidate_spaces(&cfg, 4, false).remove(0);
        let vars = embedding_variants(&cfg, &space, 10);
        assert_eq!(vars.len(), 10);
        // First is the base; some later variant differs by ±1 somewhere.
        assert_ne!(vars[0].maps, vars[1].maps);
        let base = &vars[0];
        let v = &vars[1];
        let mut diffs = 0;
        for k in 0..2 {
            for p in 0..7 {
                if base.maps[k][p] != v.maps[k][p] {
                    diffs += 1;
                }
            }
        }
        assert_eq!(diffs, 1);
    }
}
