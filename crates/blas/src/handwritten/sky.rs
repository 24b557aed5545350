//! Skyline kernels: strip-mined row loops (the classic direct-solver
//! forward substitution).

use bernoulli_formats::{Scalar, Sky};

/// `y += A·x` over the skyline strips.
pub fn mvm_sky<T: Scalar>(a: &Sky<T>, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), a.n, "x length");
    assert_eq!(y.len(), a.n, "y length");
    for r in 0..a.n {
        let mut acc = T::ZERO;
        let base = a.ptr[r] as usize;
        let lo = a.lo[r] as usize;
        for c in lo..=r {
            acc += a.values[base + (c - lo)] * x[c];
        }
        y[r] += acc;
    }
}

/// Lower triangular solve in place: forward substitution along strips
/// (the diagonal is the last strip cell — always structural).
pub fn ts_sky<T: Scalar>(l: &Sky<T>, b: &mut [T]) {
    assert_eq!(b.len(), l.n, "b length");
    for r in 0..l.n {
        let base = l.ptr[r] as usize;
        let lo = l.lo[r] as usize;
        let mut acc = b[r];
        for c in lo..r {
            acc -= l.values[base + (c - lo)] * b[c];
        }
        b[r] = acc / l.values[base + (r - lo)];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handwritten::testutil::*;
    use bernoulli_formats::Sky;

    #[test]
    fn mvm_matches_reference() {
        let (t, x) = tri_workload(); // lower triangular fits the profile
        let a = Sky::from_triplets(&t);
        let mut y = vec![0.0; t.nrows()];
        mvm_sky(&a, &x[..t.nrows()], &mut y);
        assert_close(&y, &ref_mvm(&t, &x[..t.nrows()]));
    }

    #[test]
    fn ts_matches_reference() {
        let (t, b0) = tri_workload();
        let l = Sky::from_triplets(&t);
        let mut b = b0.clone();
        ts_sky(&l, &mut b);
        assert_close(&b, &ref_ts(&t, &b0));
    }
}
