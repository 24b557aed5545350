//! Less-specialized multi-right-hand-side kernels — the NIST Fortran
//! library stand-in (paper §5).
//!
//! The paper observes: "The NIST Fortran codes are less specialized
//! (e.g., there is single code for a single or multiple right-hand
//! sides), so they perform worse than both our code and the NIST C
//! code." These kernels reproduce that design: one code path handles
//! `k` right-hand sides stored column-major (`b[i + k_idx*n]`), paying
//! the extra indexing and the inner RHS loop even when `k == 1` — which
//! is how the benchmarks invoke them.

use bernoulli_formats::{Csc, Csr, Jad, Scalar};

/// `Y += A·X` for `k` RHS columns (column-major `x`, `y`).
pub fn mvm_csr_multi<T: Scalar>(a: &Csr<T>, x: &[T], y: &mut [T], k: usize) {
    assert_eq!(x.len(), a.ncols * k, "x size");
    assert_eq!(y.len(), a.nrows * k, "y size");
    for i in 0..a.nrows {
        for p in a.row_range(i) {
            let c = a.colind[p] as usize;
            let v = a.values[p];
            for rhs in 0..k {
                y[i + rhs * a.nrows] += v * x[c + rhs * a.ncols];
            }
        }
    }
}

/// `Y += A·X` for `k` RHS columns, CSC.
pub fn mvm_csc_multi<T: Scalar>(a: &Csc<T>, x: &[T], y: &mut [T], k: usize) {
    assert_eq!(x.len(), a.ncols * k, "x size");
    assert_eq!(y.len(), a.nrows * k, "y size");
    for j in 0..a.ncols {
        for p in a.col_range(j) {
            let r = a.rowind[p] as usize;
            let v = a.values[p];
            for rhs in 0..k {
                y[r + rhs * a.nrows] += v * x[j + rhs * a.ncols];
            }
        }
    }
}

/// `Y += A·X` for `k` RHS columns, JAD.
pub fn mvm_jad_multi<T: Scalar>(a: &Jad<T>, x: &[T], y: &mut [T], k: usize) {
    assert_eq!(x.len(), a.ncols * k, "x size");
    assert_eq!(y.len(), a.nrows * k, "y size");
    for d in 0..a.ndiags() {
        let lo = a.dptr[d] as usize;
        for jj in lo..a.dptr[d + 1] as usize {
            let rr = jj - lo;
            let r = a.iperm[rr] as usize;
            let c = a.colind[jj] as usize;
            let v = a.values[jj];
            for rhs in 0..k {
                y[r + rhs * a.nrows] += v * x[c + rhs * a.ncols];
            }
        }
    }
}

/// Lower triangular solve for `k` RHS columns, CSR.
pub fn ts_csr_multi<T: Scalar>(l: &Csr<T>, b: &mut [T], k: usize) {
    let n = l.nrows;
    assert_eq!(l.nrows, l.ncols, "square");
    assert_eq!(b.len(), n * k, "b size");
    for i in 0..n {
        for rhs in 0..k {
            let mut acc = b[i + rhs * n];
            let mut diag = T::ZERO;
            for p in l.row_range(i) {
                let c = l.colind[p] as usize;
                if c < i {
                    acc -= l.values[p] * b[c + rhs * n];
                } else if c == i {
                    diag = l.values[p];
                }
            }
            b[i + rhs * n] = acc / diag;
        }
    }
}

/// Lower triangular solve for `k` RHS columns, CSC.
pub fn ts_csc_multi<T: Scalar>(l: &Csc<T>, b: &mut [T], k: usize) {
    let n = l.nrows;
    assert_eq!(l.nrows, l.ncols, "square");
    assert_eq!(b.len(), n * k, "b size");
    for j in 0..n {
        let rng = l.col_range(j);
        let mut diag = T::ZERO;
        for p in rng.clone() {
            if l.rowind[p] as usize == j {
                diag = l.values[p];
            }
        }
        for rhs in 0..k {
            b[j + rhs * n] = b[j + rhs * n] / diag;
            let bj = b[j + rhs * n];
            for p in rng.clone() {
                let r = l.rowind[p] as usize;
                if r > j {
                    b[r + rhs * n] -= l.values[p] * bj;
                }
            }
        }
    }
}

/// Lower triangular solve for `k` RHS columns, JAD.
pub fn ts_jad_multi<T: Scalar>(l: &Jad<T>, b: &mut [T], k: usize) {
    let n = l.nrows;
    assert_eq!(l.nrows, l.ncols, "square");
    assert_eq!(b.len(), n * k, "b size");
    for r in 0..n {
        let rr = l.iperm_inv[r] as usize;
        for rhs in 0..k {
            let mut acc = b[r + rhs * n];
            let mut diag = T::ZERO;
            for d in 0..l.rowlen[rr] as usize {
                let jj = l.dptr[d] as usize + rr;
                let c = l.colind[jj] as usize;
                if c < r {
                    acc -= l.values[jj] * b[c + rhs * n];
                } else if c == r {
                    diag = l.values[jj];
                }
            }
            b[r + rhs * n] = acc / diag;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handwritten::testutil::*;
    use crate::handwritten::{mvm_csr, ts_csr};
    use bernoulli_formats::{Csc, Csr, Jad};

    #[test]
    fn single_rhs_matches_specialized() {
        let (t, x) = workload();
        let a = Csr::from_triplets(&t);
        let mut y1 = vec![0.0; t.nrows()];
        mvm_csr(&a, &x, &mut y1);
        let mut y2 = vec![0.0; t.nrows()];
        mvm_csr_multi(&a, &x, &mut y2, 1);
        assert_close(&y1, &y2);
    }

    #[test]
    fn multi_rhs_is_columnwise() {
        let (t, x) = workload();
        let n = t.nrows();
        let a = Csr::from_triplets(&t);
        // Two RHS: x and 2x.
        let mut xs = x.clone();
        xs.extend(x.iter().map(|v| 2.0 * v));
        let mut ys = vec![0.0; 2 * n];
        mvm_csr_multi(&a, &xs, &mut ys, 2);
        let r = ref_mvm(&t, &x);
        assert_close(&ys[..n], &r);
        let r2: Vec<f64> = r.iter().map(|v| 2.0 * v).collect();
        assert_close(&ys[n..], &r2);
    }

    #[test]
    fn ts_multi_matches_reference() {
        let (t, b0) = tri_workload();
        let n = t.nrows();
        let expect = ref_ts(&t, &b0);
        for fmt in 0..3 {
            let mut b = b0.clone();
            match fmt {
                0 => ts_csr_multi(&Csr::from_triplets(&t), &mut b, 1),
                1 => ts_csc_multi(&Csc::from_triplets(&t), &mut b, 1),
                _ => ts_jad_multi(&Jad::from_triplets(&t), &mut b, 1),
            }
            assert_close(&b[..n], &expect);
        }
    }

    #[test]
    fn ts_multi_k2() {
        let (t, b0) = tri_workload();
        let n = t.nrows();
        let mut bs = b0.clone();
        bs.extend(b0.iter().map(|v| 3.0 * v));
        ts_csr_multi(&Csr::from_triplets(&t), &mut bs, 2);
        let r = ref_ts(&t, &b0);
        assert_close(&bs[..n], &r);
        let r3: Vec<f64> = r.iter().map(|v| 3.0 * v).collect();
        assert_close(&bs[n..], &r3);
    }

    #[test]
    fn single_rhs_csr_ts_same_as_specialized() {
        let (t, b0) = tri_workload();
        let l = Csr::from_triplets(&t);
        let mut b1 = b0.clone();
        ts_csr(&l, &mut b1);
        let mut b2 = b0.clone();
        ts_csr_multi(&l, &mut b2, 1);
        assert_close(&b1, &b2);
    }

    #[test]
    fn jad_mvm_multi() {
        let (t, x) = workload();
        let a = Jad::from_triplets(&t);
        let mut y = vec![0.0; t.nrows()];
        mvm_jad_multi(&a, &x, &mut y, 1);
        assert_close(&y, &ref_mvm(&t, &x));
    }

    #[test]
    fn csc_mvm_multi() {
        let (t, x) = workload();
        let a = Csc::from_triplets(&t);
        let mut y = vec![0.0; t.nrows()];
        mvm_csc_multi(&a, &x, &mut y, 1);
        assert_close(&y, &ref_mvm(&t, &x));
    }
}
