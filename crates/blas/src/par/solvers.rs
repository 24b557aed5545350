//! End-to-end parallel iterative solvers.
//!
//! [`ParOps`] plugs the pool-parallel vector operations into the
//! solver bodies of [`crate::solvers`]; paired with a parallel MVM
//! closure (or the [`cg_csr`]/[`jacobi_csr`] convenience wrappers)
//! every flop of an iteration — matrix product, dots, axpys, residual
//! and correction sweeps — runs on the worker pool. Results stay
//! deterministic: every primitive is a pure function of its inputs and
//! `nthreads`.

use super::vecops;
use crate::par::mvm::par_mvm_csr;
use crate::solvers::{cg_with, jacobi_with, SolveStats, VectorOps};
use bernoulli_formats::Csr;

/// Pool-parallel [`VectorOps`] at a fixed partition granularity.
pub struct ParOps {
    /// Chunk count handed to every vector primitive.
    pub nthreads: usize,
}

impl ParOps {
    /// Ops splitting every vector into `nthreads` chunks.
    pub fn new(nthreads: usize) -> ParOps {
        ParOps {
            nthreads: nthreads.max(1),
        }
    }
}

impl VectorOps for ParOps {
    fn axpy(&self, alpha: f64, x: &[f64], y: &mut [f64]) {
        vecops::par_axpy(alpha, x, y, self.nthreads);
    }
    fn dot(&self, x: &[f64], y: &[f64]) -> f64 {
        vecops::par_dot(x, y, self.nthreads)
    }
    fn nrm2(&self, x: &[f64]) -> f64 {
        vecops::par_nrm2(x, self.nthreads)
    }
    fn scal_add(&self, beta: f64, p: &mut [f64], r: &[f64]) {
        vecops::par_scal_add(beta, p, r, self.nthreads);
    }
    fn diff_norm_sq(&self, b: &[f64], ax: &[f64]) -> f64 {
        vecops::par_diff_norm_sq(b, ax, self.nthreads)
    }
    fn diag_correct(&self, x: &mut [f64], b: &[f64], ax: &[f64], diag: &[f64]) {
        vecops::par_diag_correct(x, b, ax, diag, self.nthreads);
    }
}

/// Parallel conjugate gradients with a caller-supplied matrix product.
pub fn cg(
    matvec: &mut dyn FnMut(&[f64], &mut [f64]),
    b: &[f64],
    x: &mut [f64],
    tol: f64,
    max_iter: usize,
    nthreads: usize,
) -> SolveStats {
    cg_with(&ParOps::new(nthreads), matvec, b, x, tol, max_iter)
}

/// Parallel Jacobi iteration with a caller-supplied matrix product.
#[allow(clippy::too_many_arguments)]
pub fn jacobi(
    matvec: &mut dyn FnMut(&[f64], &mut [f64]),
    diag: &[f64],
    b: &[f64],
    x: &mut [f64],
    tol: f64,
    max_iter: usize,
    nthreads: usize,
) -> SolveStats {
    jacobi_with(&ParOps::new(nthreads), matvec, diag, b, x, tol, max_iter)
}

/// Fully parallel CG over a CSR matrix: [`par_mvm_csr`] plus
/// [`ParOps`].
pub fn cg_csr(
    a: &Csr<f64>,
    b: &[f64],
    x: &mut [f64],
    tol: f64,
    max_iter: usize,
    nthreads: usize,
) -> SolveStats {
    cg(
        &mut |v, out| par_mvm_csr(a, v, out, nthreads),
        b,
        x,
        tol,
        max_iter,
        nthreads,
    )
}

/// Fully parallel Jacobi over a CSR matrix.
pub fn jacobi_csr(
    a: &Csr<f64>,
    diag: &[f64],
    b: &[f64],
    x: &mut [f64],
    tol: f64,
    max_iter: usize,
    nthreads: usize,
) -> SolveStats {
    jacobi(
        &mut |v, out| par_mvm_csr(a, v, out, nthreads),
        diag,
        b,
        x,
        tol,
        max_iter,
        nthreads,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handwritten::mvm_csr;
    use bernoulli_formats::{gen, SparseMatrix};

    #[test]
    fn parallel_cg_solves_poisson() {
        let t = gen::poisson2d(12);
        let n = t.nrows();
        let a = Csr::from_triplets(&t);
        let b = gen::dense_vector(n, 11);
        for threads in [1, 4] {
            let mut x = vec![0.0; n];
            let stats = cg_csr(&a, &b, &mut x, 1e-10, 2000, threads);
            assert!(stats.converged, "threads {threads}: {}", stats.residual);
            let mut ax = vec![0.0; n];
            mvm_csr(&a, &x, &mut ax);
            let res: f64 = b
                .iter()
                .zip(&ax)
                .map(|(bi, axi)| (bi - axi) * (bi - axi))
                .sum::<f64>()
                .sqrt();
            assert!(res < 1e-8, "threads {threads}: res {res}");
        }
    }

    #[test]
    fn parallel_cg_is_deterministic() {
        let t = gen::poisson2d(10);
        let n = t.nrows();
        let a = Csr::from_triplets(&t);
        let b = gen::dense_vector(n, 3);
        let mut x1 = vec![0.0; n];
        let mut x2 = vec![0.0; n];
        let s1 = cg_csr(&a, &b, &mut x1, 1e-10, 2000, 4);
        let s2 = cg_csr(&a, &b, &mut x2, 1e-10, 2000, 4);
        assert_eq!(x1, x2);
        assert_eq!(s1, s2);
    }

    #[test]
    fn single_thread_matches_sequential_solver() {
        // nthreads == 1 means one chunk everywhere: the parallel solver
        // must produce bitwise the sequential solver's iterates.
        let t = gen::poisson2d(8);
        let n = t.nrows();
        let a = Csr::from_triplets(&t);
        let b = gen::dense_vector(n, 2);
        let mut x_seq = vec![0.0; n];
        let mut x_par = vec![0.0; n];
        let s_seq = crate::solvers::cg(
            &mut |v, out| mvm_csr(&a, v, out),
            &b,
            &mut x_seq,
            1e-10,
            500,
        );
        let s_par = cg_csr(&a, &b, &mut x_par, 1e-10, 500, 1);
        assert_eq!(x_seq, x_par);
        assert_eq!(s_seq, s_par);
    }

    #[test]
    fn parallel_jacobi_converges() {
        let t = gen::banded(40, 2, 9);
        let n = t.nrows();
        let a = Csr::from_triplets(&t);
        let diag: Vec<f64> = (0..n).map(|i| a.get(i, i)).collect();
        let b = gen::dense_vector(n, 4);
        let mut x = vec![0.0; n];
        let stats = jacobi_csr(&a, &diag, &b, &mut x, 1e-10, 5000, 4);
        assert!(stats.converged, "residual {}", stats.residual);
    }
}
