//! ELL kernels: fixed-width slot loops.

use bernoulli_formats::{Ell, Scalar};

/// `y += A·x`.
pub fn mvm_ell<T: Scalar>(a: &Ell<T>, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), a.ncols, "x length");
    assert_eq!(y.len(), a.nrows, "y length");
    for i in 0..a.nrows {
        let mut acc = T::ZERO;
        let base = i * a.width;
        for s in 0..a.rowlen[i] as usize {
            acc += a.values[base + s] * x[a.colind[base + s] as usize];
        }
        y[i] += acc;
    }
}

/// `y += Aᵀ·x` (scatter along the filled slots of each row).
pub fn mvmt_ell<T: Scalar>(a: &Ell<T>, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), a.nrows, "x length");
    assert_eq!(y.len(), a.ncols, "y length");
    for i in 0..a.nrows {
        let xi = x[i];
        let base = i * a.width;
        for s in 0..a.rowlen[i] as usize {
            y[a.colind[base + s] as usize] += a.values[base + s] * xi;
        }
    }
}

/// Lower triangular solve (row-oriented; full diagonal required).
pub fn ts_ell<T: Scalar>(l: &Ell<T>, b: &mut [T]) {
    assert_eq!(l.nrows, l.ncols, "square");
    assert_eq!(b.len(), l.nrows, "b length");
    for i in 0..l.nrows {
        let base = i * l.width;
        let mut acc = b[i];
        let mut diag = T::ZERO;
        for s in 0..l.rowlen[i] as usize {
            let c = l.colind[base + s] as usize;
            if c < i {
                acc -= l.values[base + s] * b[c];
            } else if c == i {
                diag = l.values[base + s];
            }
        }
        b[i] = acc / diag;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handwritten::testutil::*;

    #[test]
    fn mvm_matches_reference() {
        let (t, x) = workload();
        let a = Ell::from_triplets(&t);
        let mut y = vec![0.0; t.nrows()];
        mvm_ell(&a, &x, &mut y);
        assert_close(&y, &ref_mvm(&t, &x));
    }

    #[test]
    fn mvmt_matches_reference() {
        let (t, x) = workload();
        let a = Ell::from_triplets(&t);
        let mut y = vec![0.0; t.ncols()];
        mvmt_ell(&a, &x, &mut y);
        assert_close(&y, &ref_mvmt(&t, &x));
    }

    #[test]
    fn ts_matches_reference() {
        let (t, b0) = tri_workload();
        let l = Ell::from_triplets(&t);
        let mut b = b0.clone();
        ts_ell(&l, &mut b);
        assert_close(&b, &ref_ts(&t, &b0));
    }
}
