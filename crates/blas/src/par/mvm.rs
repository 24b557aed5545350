//! [`par_loaded_mvm_csr`](super::par_loaded_mvm_csr) at its edges: empty matrices, more bands than
//! rows, and operands of the wrong length. The driver itself lives in
//! [`super::loaded`].

#[cfg(test)]
mod tests {
    use crate::par::loaded::tests::{banded, try_load};
    use crate::par::par_loaded_mvm_csr;
    use bernoulli_formats::{gen, Csr, SparseView, Triplets};
    use bernoulli_service::KernelCallError;

    /// Three rows cut into up to 64 bands: most bands are empty, and the
    /// result is still bitwise the sequential `run`.
    #[test]
    fn more_threads_than_rows() {
        let a = Csr::from_triplets(&gen::tridiagonal(3));
        let Some(k) = try_load(a.format_view()) else {
            return;
        };
        let x = vec![1.0, 0.0, 1.0];
        let y_seq = banded(&k, &a, (3, 3), 1, &x, &[0.0; 3]);
        for threads in [4, 64] {
            let mut y = vec![0.0; 3];
            par_loaded_mvm_csr(&k, &a, &x, &mut y, threads).expect("parallel run");
            assert_eq!(y, y_seq, "threads = {threads}");
        }
    }

    #[test]
    fn empty_matrix() {
        let a = Csr::<f64>::from_triplets(&Triplets::new(0, 0));
        let Some(k) = try_load(a.format_view()) else {
            return;
        };
        let mut y: Vec<f64> = vec![];
        par_loaded_mvm_csr(&k, &a, &[], &mut y, 4).expect("parallel run");
        assert!(y.is_empty());
    }

    #[test]
    fn wrong_lengths_are_a_mismatch_not_a_panic() {
        let a = Csr::from_triplets(&gen::random_sparse(6, 9, 20, 5));
        let Some(k) = try_load(a.format_view()) else {
            return;
        };
        for threads in [1, 4] {
            let mut y = vec![0.0; a.nrows];
            let err = par_loaded_mvm_csr(&k, &a, &[1.0; 8], &mut y, threads).unwrap_err();
            assert!(
                matches!(&err, KernelCallError::Mismatch { detail } if detail.starts_with("x has 8")),
                "{err}"
            );
            let mut y = vec![0.0; a.nrows + 1];
            let err = par_loaded_mvm_csr(&k, &a, &[1.0; 9], &mut y, threads).unwrap_err();
            assert!(
                matches!(&err, KernelCallError::Mismatch { detail } if detail.starts_with("y has 7")),
                "{err}"
            );
            assert_eq!(y, vec![0.0; a.nrows + 1], "nothing ran");
        }
    }
}
