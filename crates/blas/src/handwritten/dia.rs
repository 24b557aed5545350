//! DIA kernels: strip-mined loops along stored diagonals.

use bernoulli_formats::{Dia, Scalar};

/// `y += A·x`, one pass per stored diagonal (`r = d + o`, `c = o`).
pub fn mvm_dia<T: Scalar>(a: &Dia<T>, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), a.ncols, "x length");
    assert_eq!(y.len(), a.nrows, "y length");
    for k in 0..a.diags.len() {
        let d = a.diags[k];
        let base = a.ptr[k] as usize;
        let lo = a.lo[k];
        for o in lo..a.hi[k] {
            let v = a.values[base + (o - lo) as usize];
            y[(d + o) as usize] += v * x[o as usize];
        }
    }
}

/// `y += Aᵀ·x`, one pass per stored diagonal: the transpose swaps the
/// roles of `r = d + o` and `c = o`, so the scatter becomes a gather
/// (`y[o] += v · x[d + o]`).
pub fn mvmt_dia<T: Scalar>(a: &Dia<T>, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), a.nrows, "x length");
    assert_eq!(y.len(), a.ncols, "y length");
    for k in 0..a.diags.len() {
        let d = a.diags[k];
        let base = a.ptr[k] as usize;
        let lo = a.lo[k];
        for o in lo..a.hi[k] {
            let v = a.values[base + (o - lo) as usize];
            y[o as usize] += v * x[(d + o) as usize];
        }
    }
}

/// Lower triangular solve by columns with per-diagonal indexed access:
/// for each column `j`, divide by the main diagonal then scatter down
/// the stored sub-diagonals (requires `d = 0` stored in full).
pub fn ts_dia<T: Scalar>(l: &Dia<T>, b: &mut [T]) {
    assert_eq!(l.nrows, l.ncols, "square");
    assert_eq!(b.len(), l.nrows, "b length");
    let k0 = l
        .diags
        .binary_search(&0)
        .expect("triangular solve needs the main diagonal stored");
    let n = l.nrows as i64;
    for j in 0..n {
        let diag = l.values[l.ptr[k0] as usize + (j - l.lo[k0]) as usize];
        b[j as usize] = b[j as usize] / diag;
        let bj = b[j as usize];
        // Scatter down every stored sub-diagonal that covers column j.
        for k in 0..l.diags.len() {
            let d = l.diags[k];
            if d <= 0 {
                continue;
            }
            if j >= l.lo[k] && j < l.hi[k] {
                let v = l.values[l.ptr[k] as usize + (j - l.lo[k]) as usize];
                b[(d + j) as usize] -= v * bj;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handwritten::testutil::*;
    use bernoulli_formats::gen;

    #[test]
    fn mvm_matches_reference() {
        let t = gen::banded(25, 3, 4);
        let x = gen::dense_vector(25, 5);
        let a = Dia::from_triplets(&t);
        let mut y = vec![0.0; 25];
        mvm_dia(&a, &x, &mut y);
        assert_close(&y, &ref_mvm(&t, &x));
    }

    #[test]
    fn mvm_scattered_diagonals() {
        let (t, x) = workload();
        let a = Dia::from_triplets(&t);
        let mut y = vec![0.0; t.nrows()];
        mvm_dia(&a, &x, &mut y);
        assert_close(&y, &ref_mvm(&t, &x));
    }

    #[test]
    fn mvmt_matches_reference() {
        let (t, x) = workload();
        let a = Dia::from_triplets(&t);
        let mut y = vec![0.0; t.ncols()];
        mvmt_dia(&a, &x, &mut y);
        assert_close(&y, &ref_mvmt(&t, &x));
    }

    #[test]
    fn ts_matches_reference() {
        let (t, b0) = tri_workload();
        let l = Dia::from_triplets(&t);
        let mut b = b0.clone();
        ts_dia(&l, &mut b);
        assert_close(&b, &ref_ts(&t, &b0));
    }

    #[test]
    #[should_panic(expected = "main diagonal")]
    fn ts_requires_diagonal() {
        let t = bernoulli_formats::Triplets::from_entries(3, 3, &[(2, 0, 1.0)]);
        let l = Dia::from_triplets(&t);
        let mut b = vec![1.0; 3];
        ts_dia(&l, &mut b);
    }
}
