//! Parallel vector operations with deterministic block reduction.
//!
//! Element-wise updates (`par_axpy`) run on disjoint even blocks and
//! are bitwise equal to their sequential counterparts. Reductions
//! (`par_dot`, `par_nrm2`) accumulate one partial per block in the
//! sequential left-fold order, then combine the partials in ascending
//! block order — the result is a pure function of the input and
//! `nthreads` (and equals the sequential result exactly when
//! `nthreads == 1`).

use super::SlicePtr;
use bernoulli_formats::partition::split_even;
use bernoulli_formats::Scalar;
use bernoulli_pool::Pool;

/// `y += alpha·x` over disjoint even blocks; bitwise equal to
/// [`crate::handwritten::axpy`] at every thread count.
pub fn par_axpy<T: Scalar + Send + Sync>(alpha: T, x: &[T], y: &mut [T], nthreads: usize) {
    assert_eq!(x.len(), y.len());
    let bounds = split_even(y.len(), nthreads.max(1));
    let yp = SlicePtr::new(y);
    Pool::global().run(bounds.len() - 1, &|chunk| {
        let (lo, hi) = (bounds[chunk], bounds[chunk + 1]);
        // SAFETY: blocks are disjoint across chunks.
        let yb = unsafe { yp.range_mut(lo, hi) };
        for (yi, &xi) in yb.iter_mut().zip(&x[lo..hi]) {
            *yi += alpha * xi;
        }
    });
}

/// Dot product with per-block partials combined in ascending block
/// order.
pub fn par_dot<T: Scalar + Send + Sync>(x: &[T], y: &[T], nthreads: usize) -> T {
    assert_eq!(x.len(), y.len());
    block_reduce(x.len(), nthreads, &|lo, hi| {
        let mut acc = T::ZERO;
        for (&a, &b) in x[lo..hi].iter().zip(&y[lo..hi]) {
            acc += a * b;
        }
        acc
    })
}

/// Euclidean norm via [`par_dot`].
pub fn par_nrm2(x: &[f64], nthreads: usize) -> f64 {
    par_dot(x, x, nthreads).sqrt()
}

/// Sum of squared differences `Σ (b[i] − ax[i])²` — the residual norm
/// accumulation of the Jacobi sweep, block-reduced like [`par_dot`].
pub fn par_diff_norm_sq(b: &[f64], ax: &[f64], nthreads: usize) -> f64 {
    assert_eq!(b.len(), ax.len());
    block_reduce(b.len(), nthreads, &|lo, hi| {
        let mut acc = 0.0;
        for (bi, axi) in b[lo..hi].iter().zip(&ax[lo..hi]) {
            let r = bi - axi;
            acc += r * r;
        }
        acc
    })
}

/// `p = r + beta·p` element-wise over disjoint even blocks (the CG
/// direction update).
pub fn par_scal_add(beta: f64, p: &mut [f64], r: &[f64], nthreads: usize) {
    assert_eq!(p.len(), r.len());
    let bounds = split_even(p.len(), nthreads.max(1));
    let pp = SlicePtr::new(p);
    Pool::global().run(bounds.len() - 1, &|chunk| {
        let (lo, hi) = (bounds[chunk], bounds[chunk + 1]);
        // SAFETY: blocks are disjoint across chunks.
        let pb = unsafe { pp.range_mut(lo, hi) };
        for (pi, &ri) in pb.iter_mut().zip(&r[lo..hi]) {
            *pi = ri + beta * *pi;
        }
    });
}

/// `x[i] += (b[i] − ax[i]) / diag[i]` over disjoint even blocks (the
/// Jacobi correction).
pub fn par_diag_correct(x: &mut [f64], b: &[f64], ax: &[f64], diag: &[f64], nthreads: usize) {
    assert_eq!(x.len(), b.len());
    assert_eq!(x.len(), ax.len());
    assert_eq!(x.len(), diag.len());
    let bounds = split_even(x.len(), nthreads.max(1));
    let xp = SlicePtr::new(x);
    Pool::global().run(bounds.len() - 1, &|chunk| {
        let (lo, hi) = (bounds[chunk], bounds[chunk + 1]);
        // SAFETY: blocks are disjoint across chunks.
        let xb = unsafe { xp.range_mut(lo, hi) };
        for (k, xi) in xb.iter_mut().enumerate() {
            let i = lo + k;
            *xi += (b[i] - ax[i]) / diag[i];
        }
    });
}

/// Runs `partial(lo, hi)` over even blocks of `0..n` and sums the
/// per-block results in ascending block order.
fn block_reduce<T: Scalar + Send + Sync>(
    n: usize,
    nthreads: usize,
    partial: &(dyn Fn(usize, usize) -> T + Sync),
) -> T {
    let bounds = split_even(n, nthreads.max(1));
    let nchunks = bounds.len() - 1;
    if nchunks <= 1 {
        return partial(0, n);
    }
    let mut parts = vec![T::ZERO; nchunks];
    let pp = SlicePtr::new(&mut parts);
    Pool::global().run(nchunks, &|chunk| {
        // SAFETY: one partial slot per chunk.
        unsafe { *pp.at_mut(chunk) = partial(bounds[chunk], bounds[chunk + 1]) };
    });
    let mut acc = T::ZERO;
    for p in parts {
        acc += p;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handwritten as hw;
    use bernoulli_formats::gen;

    #[test]
    fn axpy_bitwise_equal() {
        let x = gen::dense_vector(1000, 3);
        let y0 = gen::dense_vector(1000, 4);
        let mut y_seq = y0.clone();
        hw::axpy(1.7, &x, &mut y_seq);
        for threads in [1, 2, 3, 7, 16] {
            let mut y_par = y0.clone();
            par_axpy(1.7, &x, &mut y_par, threads);
            assert_eq!(y_seq, y_par, "threads = {threads}");
        }
    }

    #[test]
    fn dot_deterministic_and_close() {
        let x = gen::dense_vector(1000, 5);
        let y = gen::dense_vector(1000, 6);
        let seq = hw::dot(&x, &y);
        assert_eq!(par_dot(&x, &y, 1), seq);
        for threads in [2, 3, 7, 16] {
            let a = par_dot(&x, &y, threads);
            let b = par_dot(&x, &y, threads);
            assert_eq!(a, b, "two runs, threads = {threads}");
            assert!((a - seq).abs() <= 1e-12 * (1.0 + seq.abs()));
        }
        assert_eq!(par_nrm2(&x, 4), par_nrm2(&x, 4));
    }

    #[test]
    fn fused_updates_match_scalar_loops() {
        let n = 513;
        let b = gen::dense_vector(n, 1);
        let ax = gen::dense_vector(n, 2);
        let diag: Vec<f64> = (0..n).map(|i| 2.0 + (i % 7) as f64).collect();
        let r = gen::dense_vector(n, 3);

        let mut p_seq = gen::dense_vector(n, 4);
        let mut p_par = p_seq.clone();
        for i in 0..n {
            p_seq[i] = r[i] + 0.9 * p_seq[i];
        }
        par_scal_add(0.9, &mut p_par, &r, 7);
        assert_eq!(p_seq, p_par);

        let mut x_seq = gen::dense_vector(n, 5);
        let mut x_par = x_seq.clone();
        for i in 0..n {
            x_seq[i] += (b[i] - ax[i]) / diag[i];
        }
        par_diag_correct(&mut x_par, &b, &ax, &diag, 7);
        assert_eq!(x_seq, x_par);

        let mut res = 0.0;
        for i in 0..n {
            let d = b[i] - ax[i];
            res += d * d;
        }
        assert!((par_diff_norm_sq(&b, &ax, 1) - res).abs() == 0.0);
        assert!((par_diff_norm_sq(&b, &ax, 7) - res).abs() <= 1e-12 * (1.0 + res));
    }

    #[test]
    fn empty_vectors() {
        let mut y: Vec<f64> = vec![];
        par_axpy(2.0, &[], &mut y, 4);
        assert_eq!(par_dot::<f64>(&[], &[], 4), 0.0);
    }
}
