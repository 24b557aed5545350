//! CSC kernels.

use bernoulli_formats::{Csc, Scalar};

/// `y += A·x` (scatter along columns).
pub fn mvm_csc<T: Scalar>(a: &Csc<T>, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), a.ncols, "x length");
    assert_eq!(y.len(), a.nrows, "y length");
    for j in 0..a.ncols {
        let xj = x[j];
        for p in a.col_range(j) {
            y[a.rowind[p] as usize] += a.values[p] * xj;
        }
    }
}

/// `y += Aᵀ·x` (gather along columns).
pub fn mvmt_csc<T: Scalar>(a: &Csc<T>, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), a.nrows, "x length");
    assert_eq!(y.len(), a.ncols, "y length");
    for j in 0..a.ncols {
        let mut acc = T::ZERO;
        for p in a.col_range(j) {
            acc += a.values[p] * x[a.rowind[p] as usize];
        }
        y[j] += acc;
    }
}

/// Lower triangular solve, column-oriented (the natural CSC order —
/// exactly the paper's Fig. 5 pseudocode).
pub fn ts_csc<T: Scalar>(l: &Csc<T>, b: &mut [T]) {
    assert_eq!(l.nrows, l.ncols, "square");
    assert_eq!(b.len(), l.nrows, "b length");
    for j in 0..l.ncols {
        // Diagonal first (rows sorted: the first entry at or after row j).
        let rng = l.col_range(j);
        let mut diag = T::ZERO;
        for p in rng.clone() {
            if l.rowind[p] as usize == j {
                diag = l.values[p];
                break;
            }
        }
        b[j] = b[j] / diag;
        let bj = b[j];
        for p in rng {
            let r = l.rowind[p] as usize;
            if r > j {
                b[r] -= l.values[p] * bj;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handwritten::testutil::*;

    #[test]
    fn mvm_matches_reference() {
        let (t, x) = workload();
        let a = Csc::from_triplets(&t);
        let mut y = vec![0.0; t.nrows()];
        mvm_csc(&a, &x, &mut y);
        assert_close(&y, &ref_mvm(&t, &x));
    }

    #[test]
    fn mvmt_matches_reference() {
        let (t, x) = workload();
        let a = Csc::from_triplets(&t);
        let mut y = vec![0.0; t.ncols()];
        mvmt_csc(&a, &x, &mut y);
        assert_close(&y, &ref_mvmt(&t, &x));
    }

    #[test]
    fn ts_matches_reference() {
        let (t, b0) = tri_workload();
        let l = Csc::from_triplets(&t);
        let mut b = b0.clone();
        ts_csc(&l, &mut b);
        assert_close(&b, &ref_ts(&t, &b0));
    }
}
