//! Redundant dimensions and common-enumeration groups (paper §4.1).
//!
//! A dimension is *redundant* when its row of the `G` matrix — the linear
//! parts of all embedding functions side by side (Fig. 7), here extended
//! with per-statement parameter and constant columns so affine parts are
//! handled too — is a linear combination of the rows of the dimensions
//! enumerated before it. Redundant dimensions need no runtime value:
//! their match conditions are implied by the preceding ones.
//!
//! Dimensions with *identical* embedding expressions for every statement
//! always hold the same value; consecutive runs of such dimensions form a
//! **group** enumerated by a single loop — the trivial common enumeration
//! (e.g. `l1r` and `l2r` of the paper's example). Groups whose leader is
//! redundant are skipped entirely.

use crate::config::Config;
use crate::embed::Embedding;
use crate::spaces::Space;
use bernoulli_numeric::{Rational, RowSpace};

/// Group structure of an ordered, embedded product space.
#[derive(Clone, Debug)]
pub struct GroupInfo {
    /// Per dimension: is it redundant (determined by earlier dims)?
    pub redundant: Vec<bool>,
    /// Same-value groups in dimension order; each is a list of dimension
    /// indices, leader (first, lowest index) first.
    pub groups: Vec<Vec<usize>>,
    /// Per dimension: index of its group in `groups`.
    pub group_of: Vec<usize>,
}

impl GroupInfo {
    /// Groups that require a runtime enumeration step (leader
    /// non-redundant), in order.
    pub fn stepped_groups(&self) -> Vec<usize> {
        self.groups
            .iter()
            .enumerate()
            .filter(|(_, g)| !self.redundant[g[0]])
            .map(|(i, _)| i)
            .collect()
    }
}

/// Computes redundancy flags and same-value groups.
pub fn compute_groups(cfg: &Config, space: &Space, emb: &Embedding) -> GroupInfo {
    let nstmts = cfg.stmts.len();
    // Column layout: for each statement copy k: [its loop vars..., the
    // program params..., 1].  Parameters are duplicated per statement so
    // that a shared multiplier λ must match every statement's affine part
    // independently.
    let params: Vec<String> = collect_params(cfg);
    let mut col_offset = Vec::with_capacity(nstmts);
    let mut total = 0usize;
    for s in &cfg.stmts {
        col_offset.push(total);
        total += s.info.loops.len() + params.len() + 1;
    }

    let row_of = |p: usize| -> Vec<Rational> {
        let mut row = vec![Rational::ZERO; total];
        for (k, s) in cfg.stmts.iter().enumerate() {
            let e = emb.at(k, p);
            let base = col_offset[k];
            for (li, (v, _, _)) in s.info.loops.iter().enumerate() {
                row[base + li] = Rational::int(e.coeff(v) as i128);
            }
            for (pi, pn) in params.iter().enumerate() {
                row[base + s.info.loops.len() + pi] = Rational::int(e.coeff(pn) as i128);
            }
            row[base + s.info.loops.len() + params.len()] = Rational::int(e.cst() as i128);
        }
        row
    };

    let ndims = space.len();
    let mut redundant = vec![false; ndims];
    let mut rs = RowSpace::new(total);
    for p in 0..ndims {
        redundant[p] = !rs.insert(&row_of(p));
    }

    // Same-value groups: maximal consecutive runs with identical
    // embedding expressions across all statements.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut group_of = vec![0usize; ndims];
    for p in 0..ndims {
        let ngroups = groups.len();
        match groups.last_mut() {
            Some(g) if (0..nstmts).all(|k| emb.at(k, p) == emb.at(k, g[0])) => {
                group_of[p] = ngroups - 1;
                g.push(p);
            }
            _ => {
                group_of[p] = ngroups;
                groups.push(vec![p]);
            }
        }
    }

    GroupInfo {
        redundant,
        groups,
        group_of,
    }
}

fn collect_params(cfg: &Config) -> Vec<String> {
    // Parameters are whatever variables appear in embeddings that are not
    // loop variables; gather from the loop bound expressions instead — we
    // simply take the union of non-loop variables across bounds and
    // access expressions.
    let mut params: Vec<String> = Vec::new();
    let mut push = |v: &str, loops: &[String]| {
        if !loops.iter().any(|l| l == v) && !params.iter().any(|p| p == v) {
            params.push(v.to_string());
        }
    };
    for s in &cfg.stmts {
        let loops: Vec<String> = s.info.loops.iter().map(|(v, _, _)| v.clone()).collect();
        for (_, lo, hi) in &s.info.loops {
            for (v, _) in lo.terms().chain(hi.terms()) {
                push(v, &loops);
            }
        }
    }
    for r in &cfg.refs {
        let loops: Vec<String> = cfg.stmts[r.stmt]
            .info
            .loops
            .iter()
            .map(|(v, _, _)| v.clone())
            .collect();
        for d in &r.dims {
            for (v, _) in d.value.terms() {
                push(v, &loops);
            }
        }
    }
    params
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::enumerate_configs;
    use crate::embed::base_embedding;
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
    fn ts_redundancy_matches_paper() {
        // The paper (§4.1): with this order and embedding, only the first
        // row dimension and the first column dimension are non-redundant.
        let p = parse_program(TS).unwrap();
        let mut views = HashMap::new();
        views.insert("L".to_string(), csr_format_view());
        let cfg = enumerate_configs(&p, &views).unwrap().remove(0);
        let space = candidate_spaces(&cfg, 4, false).remove(0);
        // dims: L0.r, L1.r, L0.c, L1.c, j@0, j@1, i@1
        let emb = base_embedding(&cfg, &space);
        let g = compute_groups(&cfg, &space, &emb);
        assert_eq!(
            g.redundant,
            vec![false, true, false, true, true, true, true]
        );
        // Groups: {L0.r, L1.r}, {L0.c, L1.c, j@0, j@1}, {i@1}.
        assert_eq!(g.groups.len(), 3);
        assert_eq!(g.groups[0], vec![0, 1]);
        assert_eq!(g.groups[1], vec![2, 3, 4, 5]);
        assert_eq!(g.groups[2], vec![6]);
        // Steps: the two leader groups; i@1's group leader is redundant.
        assert_eq!(g.stepped_groups(), vec![0, 1]);
    }

    #[test]
    fn dense_loop_program_groups() {
        let p = parse_program(
            "program scale(N) { inout vector x[N]; for i in 0..N { x[i] = x[i] * 2; } }",
        )
        .unwrap();
        let cfg = enumerate_configs(&p, &HashMap::new()).unwrap().remove(0);
        let space = candidate_spaces(&cfg, 4, false).remove(0);
        let emb = base_embedding(&cfg, &space);
        let g = compute_groups(&cfg, &space, &emb);
        assert_eq!(g.redundant, vec![false]);
        assert_eq!(g.stepped_groups(), vec![0]);
    }
}
