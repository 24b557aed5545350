//! Format-independent iterative methods (paper §1 motivation).
//!
//! These are the "high-level iterative codes \[written\] just once" that
//! the PETSc-style layering demands: every solver takes the
//! matrix–vector product as a closure, so it runs unchanged over any
//! format's kernel — handwritten, generic, or synthesized.

use crate::handwritten::vecops::{axpy, dot, nrm2};

/// Outcome of an iterative solve.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveStats {
    /// Iterations actually performed.
    pub iterations: usize,
    /// Final residual norm `‖b − A·x‖₂`.
    pub residual: f64,
    /// Converged below the tolerance?
    pub converged: bool,
}

/// Conjugate gradients for SPD systems. `matvec(v, out)` must compute
/// `out = A·v` (it will be called with `out` zeroed).
pub fn cg(
    matvec: &mut dyn FnMut(&[f64], &mut [f64]),
    b: &[f64],
    x: &mut [f64],
    tol: f64,
    max_iter: usize,
) -> SolveStats {
    let n = b.len();
    assert_eq!(x.len(), n);
    let mut r = vec![0.0; n];
    let mut ax = vec![0.0; n];
    matvec(x, &mut ax);
    for i in 0..n {
        r[i] = b[i] - ax[i];
    }
    let mut p = r.clone();
    let mut rs_old = dot(&r, &r);
    let bnorm = nrm2(b).max(1e-300);

    for it in 0..max_iter {
        if rs_old.sqrt() / bnorm <= tol {
            return SolveStats {
                iterations: it,
                residual: rs_old.sqrt(),
                converged: true,
            };
        }
        let mut ap = vec![0.0; n];
        matvec(&p, &mut ap);
        let alpha = rs_old / dot(&p, &ap);
        axpy(alpha, &p, x);
        axpy(-alpha, &ap, &mut r);
        let rs_new = dot(&r, &r);
        let beta = rs_new / rs_old;
        for (pi, &ri) in p.iter_mut().zip(&r) {
            *pi = ri + beta * *pi;
        }
        rs_old = rs_new;
    }
    SolveStats {
        iterations: max_iter,
        residual: rs_old.sqrt(),
        converged: rs_old.sqrt() / bnorm <= tol,
    }
}

/// Jacobi iteration `x ← D⁻¹(b − (A − D)x)`; `diag` is the matrix
/// diagonal.
pub fn jacobi(
    matvec: &mut dyn FnMut(&[f64], &mut [f64]),
    diag: &[f64],
    b: &[f64],
    x: &mut [f64],
    tol: f64,
    max_iter: usize,
) -> SolveStats {
    let n = b.len();
    let bnorm = nrm2(b).max(1e-300);
    let mut ax = vec![0.0; n];
    for it in 0..max_iter {
        ax.iter_mut().for_each(|v| *v = 0.0);
        matvec(x, &mut ax);
        let res = residual(b, &ax);
        if res / bnorm <= tol {
            return SolveStats {
                iterations: it,
                residual: res,
                converged: true,
            };
        }
        // x_new = x + (b - Ax) / d
        for i in 0..x.len() {
            x[i] += (b[i] - ax[i]) / diag[i];
        }
    }
    ax.iter_mut().for_each(|v| *v = 0.0);
    matvec(x, &mut ax);
    let res = residual(b, &ax);
    SolveStats {
        iterations: max_iter,
        residual: res,
        converged: res / bnorm <= tol,
    }
}

/// `‖b − ax‖₂`, the Jacobi residual.
fn residual(b: &[f64], ax: &[f64]) -> f64 {
    let mut acc = 0.0;
    for (bi, axi) in b.iter().zip(ax) {
        let r = bi - axi;
        acc += r * r;
    }
    acc.sqrt()
}

/// Power iteration for the dominant eigenpair — the paper's introduction
/// names web-search/eigenvector workloads as a sparse MVM driver.
/// Returns `(eigenvalue, iterations)` and leaves the eigenvector in `x`.
pub fn power_iteration(
    matvec: &mut dyn FnMut(&[f64], &mut [f64]),
    x: &mut [f64],
    tol: f64,
    max_iter: usize,
) -> (f64, usize) {
    let n = x.len();
    let norm = nrm2(x).max(1e-300);
    x.iter_mut().for_each(|v| *v /= norm);
    let mut lambda = 0.0;
    for it in 0..max_iter {
        let mut ax = vec![0.0; n];
        matvec(x, &mut ax);
        let new_lambda = dot(x, &ax);
        let norm = nrm2(&ax).max(1e-300);
        for i in 0..n {
            x[i] = ax[i] / norm;
        }
        if (new_lambda - lambda).abs() <= tol * new_lambda.abs().max(1.0) {
            return (new_lambda, it + 1);
        }
        lambda = new_lambda;
    }
    (lambda, max_iter)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handwritten::mvm_csr;
    use bernoulli_formats::{gen, Csr, SparseMatrix};

    #[test]
    fn cg_solves_poisson() {
        let t = gen::poisson2d(12);
        let n = t.nrows();
        let a = Csr::from_triplets(&t);
        let b = gen::dense_vector(n, 11);
        let mut x = vec![0.0; n];
        let stats = cg(&mut |v, out| mvm_csr(&a, v, out), &b, &mut x, 1e-10, 2000);
        assert!(stats.converged, "residual {}", stats.residual);
        // Verify residual independently.
        let mut ax = vec![0.0; n];
        mvm_csr(&a, &x, &mut ax);
        let res: f64 = b
            .iter()
            .zip(&ax)
            .map(|(bi, axi)| (bi - axi) * (bi - axi))
            .sum::<f64>()
            .sqrt();
        assert!(res < 1e-8, "res {res}");
    }

    #[test]
    fn jacobi_converges_on_diagonally_dominant() {
        let t = gen::banded(40, 2, 9);
        let n = t.nrows();
        let a = Csr::from_triplets(&t);
        let diag: Vec<f64> = (0..n).map(|i| a.get(i, i)).collect();
        let b = gen::dense_vector(n, 4);
        let mut x = vec![0.0; n];
        let stats = jacobi(
            &mut |v, out| mvm_csr(&a, v, out),
            &diag,
            &b,
            &mut x,
            1e-10,
            5000,
        );
        assert!(stats.converged, "residual {}", stats.residual);
    }

    #[test]
    fn power_iteration_finds_dominant_eigenvalue() {
        // Diagonal matrix with known dominant eigenvalue 9.
        let mut t = bernoulli_formats::Triplets::new(5, 5);
        for (i, v) in [9.0, 3.0, 2.0, 1.0, 0.5].iter().enumerate() {
            t.push(i, i, *v);
        }
        t.normalize();
        let a = Csr::from_triplets(&t);
        let mut x = vec![1.0; 5];
        let (lambda, _) = power_iteration(&mut |v, out| mvm_csr(&a, v, out), &mut x, 1e-12, 500);
        assert!((lambda - 9.0).abs() < 1e-6, "lambda {lambda}");
        assert!(x[0].abs() > 0.999, "eigenvector {x:?}");
    }

    #[test]
    fn cg_zero_rhs_converges_immediately() {
        let t = gen::poisson2d(4);
        let a = Csr::from_triplets(&t);
        let b = vec![0.0; 16];
        let mut x = vec![0.0; 16];
        let stats = cg(&mut |v, out| mvm_csr(&a, v, out), &b, &mut x, 1e-12, 10);
        assert!(stats.converged);
        assert_eq!(stats.iterations, 0);
    }
}
