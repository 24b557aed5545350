//! Dense specifications of the BLAS kernels (the high-level API).
//!
//! These are the programs an algorithm designer writes "as if dense"
//! (paper Figs. 3–4); the synthesizer instantiates them for any format.

use bernoulli_ir::{parse_program, Program};

/// Parses a spec source.
fn spec(src: &str, what: &str) -> Program {
    parse_program(src).unwrap_or_else(|e| panic!("{what} spec parses: {e}"))
}

/// Matrix–vector multiplication `y += A·x` (paper Fig. 3).
pub fn mvm() -> Program {
    spec(
        r#"
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
        "#,
        "mvm",
    )
}

/// Transposed matrix–vector multiplication `y += Aᵀ·x`.
pub fn mvm_transposed() -> Program {
    spec(
        r#"
        program mvmt(M, N) {
          in matrix A[M][N];
          in vector x[M];
          inout vector y[N];
          for i in 0..M {
            for j in 0..N {
              y[j] = y[j] + A[i][j] * x[i];
            }
          }
        }
        "#,
        "mvmt",
    )
}

/// Lower triangular solve `L·b' = b`, result overwriting `b`
/// (paper Fig. 4, the running example).
pub fn ts() -> Program {
    spec(
        r#"
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
        "#,
        "ts",
    )
}

/// Sparse dot product `s += Σ x[i]·y[i]` of two sparse vectors — the
/// common-enumeration (join) showcase of §4.1. `x` and `y` are declared
/// as vectors; binding sparse-vector views to them turns the dense loop
/// into a merge or hash join.
pub fn spdot() -> Program {
    spec(
        r#"
        program spdot(N) {
          in vector x[N];
          in vector y[N];
          inout vector s[1];
          for i in 0..N {
            s[0] = s[0] + x[i] * y[i];
          }
        }
        "#,
        "spdot",
    )
}

/// Row sums `r[i] += Σ_j A[i][j]` — a second reduction exercising the
/// framework on a different output shape.
pub fn row_sums() -> Program {
    spec(
        r#"
        program rowsums(M, N) {
          in matrix A[M][N];
          inout vector r[M];
          for i in 0..M {
            for j in 0..N {
              r[i] = r[i] + A[i][j];
            }
          }
        }
        "#,
        "rowsums",
    )
}

/// Scaled matrix accumulation into a dense vector of the diagonal:
/// `d[i] += alpha·A[i][i]` modeled with alpha folded to 1 (diagonal
/// extraction) — exercises guard simplification against triangular
/// bounds.
pub fn diag_extract() -> Program {
    spec(
        r#"
        program diagx(N) {
          in matrix A[N][N];
          inout vector d[N];
          for i in 0..N {
            d[i] = d[i] + A[i][i];
          }
        }
        "#,
        "diagx",
    )
}

/// Residual `r = b − A·x` — an imperfectly-nested two-statement kernel
/// (initialize, then accumulate) whose first statement must be hoisted
/// out of the nonzero enumeration.
pub fn residual() -> Program {
    spec(
        r#"
        program residual(M, N) {
          in matrix A[M][N];
          in vector x[N];
          in vector b[M];
          inout vector r[M];
          for i in 0..M {
            r[i] = b[i];
            for j in 0..N {
              r[i] = r[i] - A[i][j] * x[j];
            }
          }
        }
        "#,
        "residual",
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_specs_parse_and_have_expected_shape() {
        assert_eq!(mvm().statements().len(), 1);
        assert_eq!(ts().statements().len(), 2);
        assert_eq!(mvm_transposed().params, vec!["M", "N"]);
        assert_eq!(spdot().statements()[0].loop_vars(), vec!["i"]);
        assert_eq!(row_sums().arrays.len(), 2);
        assert_eq!(diag_extract().statements()[0].accesses().len(), 3);
    }

    #[test]
    fn specs_have_sparse_candidates() {
        for p in [
            mvm(),
            mvm_transposed(),
            ts(),
            row_sums(),
            diag_extract(),
            residual(),
        ] {
            assert!(!p.matrices().is_empty(), "{}", p.name);
        }
    }

    #[test]
    fn residual_is_imperfectly_nested() {
        let p = residual();
        let stmts = p.statements();
        assert_eq!(stmts.len(), 2);
        assert_eq!(stmts[0].loop_vars(), vec!["i"]);
        assert_eq!(stmts[1].loop_vars(), vec!["i", "j"]);
    }
}
