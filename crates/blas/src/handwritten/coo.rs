//! COO kernels: single pass over the triplet arrays.

use bernoulli_formats::{Coo, Scalar};

/// `y += A·x`.
pub fn mvm_coo<T: Scalar>(a: &Coo<T>, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), a.ncols, "x length");
    assert_eq!(y.len(), a.nrows, "y length");
    for k in 0..a.values.len() {
        y[a.rows[k] as usize] += a.values[k] * x[a.cols[k] as usize];
    }
}

/// `y += Aᵀ·x`.
pub fn mvmt_coo<T: Scalar>(a: &Coo<T>, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), a.nrows, "x length");
    assert_eq!(y.len(), a.ncols, "y length");
    for k in 0..a.values.len() {
        y[a.cols[k] as usize] += a.values[k] * x[a.rows[k] as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handwritten::testutil::*;

    #[test]
    fn mvm_matches_reference() {
        let (t, x) = workload();
        let a = Coo::from_triplets_shuffled(&t, 99);
        let mut y = vec![0.0; t.nrows()];
        mvm_coo(&a, &x, &mut y);
        assert_close(&y, &ref_mvm(&t, &x));
    }

    #[test]
    fn mvmt_matches_reference() {
        let (t, x) = workload();
        let a = Coo::from_triplets_shuffled(&t, 3);
        let mut y = vec![0.0; t.ncols()];
        mvmt_coo(&a, &x, &mut y);
        assert_close(&y, &ref_mvmt(&t, &x));
    }
}
