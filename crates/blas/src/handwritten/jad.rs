//! JAD kernels (paper Appendix A).

use bernoulli_formats::{Jad, Scalar};

/// `y += A·x` walking the jagged diagonals — the access pattern JAD is
/// designed for (long inner loops, unit stride through `values`).
pub fn mvm_jad<T: Scalar>(a: &Jad<T>, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), a.ncols, "x length");
    assert_eq!(y.len(), a.nrows, "y length");
    for d in 0..a.ndiags() {
        let lo = a.dptr[d] as usize;
        let hi = a.dptr[d + 1] as usize;
        for jj in lo..hi {
            let rr = jj - lo;
            y[a.iperm[rr] as usize] += a.values[jj] * x[a.colind[jj] as usize];
        }
    }
}

/// `y += Aᵀ·x` walking the jagged diagonals (scatter; `x` is gathered
/// through the row permutation).
pub fn mvmt_jad<T: Scalar>(a: &Jad<T>, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), a.nrows, "x length");
    assert_eq!(y.len(), a.ncols, "y length");
    for d in 0..a.ndiags() {
        let lo = a.dptr[d] as usize;
        let hi = a.dptr[d + 1] as usize;
        for jj in lo..hi {
            let rr = jj - lo;
            y[a.colind[jj] as usize] += a.values[jj] * x[a.iperm[rr] as usize];
        }
    }
}

/// Lower triangular solve through the row-indexed perspective
/// (structurally the paper's Fig. 9 code, with the O(1) inverse
/// permutation instead of the paper's linear `unmap` scan).
pub fn ts_jad<T: Scalar>(l: &Jad<T>, b: &mut [T]) {
    assert_eq!(l.nrows, l.ncols, "square");
    assert_eq!(b.len(), l.nrows, "b length");
    for r in 0..l.nrows {
        let rr = l.iperm_inv[r] as usize;
        let mut acc = b[r];
        let mut diag = T::ZERO;
        for d in 0..l.rowlen[rr] as usize {
            let jj = l.dptr[d] as usize + rr;
            let c = l.colind[jj] as usize;
            if c < r {
                acc -= l.values[jj] * b[c];
            } else if c == r {
                diag = l.values[jj];
            }
        }
        b[r] = acc / diag;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handwritten::testutil::*;

    #[test]
    fn mvm_matches_reference() {
        let (t, x) = workload();
        let a = Jad::from_triplets(&t);
        let mut y = vec![0.0; t.nrows()];
        mvm_jad(&a, &x, &mut y);
        assert_close(&y, &ref_mvm(&t, &x));
    }

    #[test]
    fn mvmt_matches_reference() {
        let (t, x) = workload();
        let a = Jad::from_triplets(&t);
        let mut y = vec![0.0; t.ncols()];
        mvmt_jad(&a, &x, &mut y);
        assert_close(&y, &ref_mvmt(&t, &x));
    }

    #[test]
    fn ts_matches_reference() {
        let (t, b0) = tri_workload();
        let l = Jad::from_triplets(&t);
        let mut b = b0.clone();
        ts_jad(&l, &mut b);
        assert_close(&b, &ref_ts(&t, &b0));
    }

    #[test]
    fn ts_identity() {
        let n = 10;
        let mut t = bernoulli_formats::Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0);
        }
        t.normalize();
        let l = Jad::from_triplets(&t);
        let mut b = vec![4.0; n];
        ts_jad(&l, &mut b);
        assert!(b.iter().all(|&v| v == 2.0));
    }
}
