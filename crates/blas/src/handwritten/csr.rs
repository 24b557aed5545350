//! CSR kernels (the NIST reference loop structures).

use bernoulli_formats::{Csr, Scalar};

/// `y += A·x`, row-major accumulation.
pub fn mvm_csr<T: Scalar>(a: &Csr<T>, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), a.ncols, "x length");
    assert_eq!(y.len(), a.nrows, "y length");
    for i in 0..a.nrows {
        let mut acc = T::ZERO;
        for p in a.row_range(i) {
            acc += a.values[p] * x[a.colind[p] as usize];
        }
        y[i] += acc;
    }
}

/// `y += Aᵀ·x` (scatter along rows).
pub fn mvmt_csr<T: Scalar>(a: &Csr<T>, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), a.nrows, "x length");
    assert_eq!(y.len(), a.ncols, "y length");
    for i in 0..a.nrows {
        let xi = x[i];
        for p in a.row_range(i) {
            y[a.colind[p] as usize] += a.values[p] * xi;
        }
    }
}

/// Lower triangular solve `L·b' = b` in place; `L` must store its full
/// diagonal and only lower-triangle entries.
pub fn ts_csr<T: Scalar>(l: &Csr<T>, b: &mut [T]) {
    assert_eq!(l.nrows, l.ncols, "square");
    assert_eq!(b.len(), l.nrows, "b length");
    for i in 0..l.nrows {
        let mut acc = b[i];
        let mut diag = T::ZERO;
        for p in l.row_range(i) {
            let c = l.colind[p] as usize;
            if c < i {
                acc -= l.values[p] * b[c];
            } else if c == i {
                diag = l.values[p];
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
        let a = Csr::from_triplets(&t);
        let mut y = vec![0.0; t.nrows()];
        mvm_csr(&a, &x, &mut y);
        assert_close(&y, &ref_mvm(&t, &x));
    }

    #[test]
    fn mvmt_matches_reference() {
        let (t, x) = workload();
        let a = Csr::from_triplets(&t);
        let mut y = vec![0.0; t.ncols()];
        mvmt_csr(&a, &x, &mut y);
        assert_close(&y, &ref_mvmt(&t, &x));
    }

    #[test]
    fn ts_matches_reference() {
        let (t, b0) = tri_workload();
        let l = Csr::from_triplets(&t);
        let mut b = b0.clone();
        ts_csr(&l, &mut b);
        assert_close(&b, &ref_ts(&t, &b0));
    }

    #[test]
    fn mvm_accumulates() {
        let (t, x) = workload();
        let a = Csr::from_triplets(&t);
        let mut y = vec![1.0; t.nrows()];
        mvm_csr(&a, &x, &mut y);
        let expect: Vec<f64> = ref_mvm(&t, &x).iter().map(|v| v + 1.0).collect();
        assert_close(&y, &expect);
    }
}
