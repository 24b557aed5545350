//! Diagonal-split storage — an aggregation (`∪`) format.
//!
//! The paper's example of the `E ∪ E` production (§2): "a format in which
//! the diagonal elements are stored separately from the off-diagonal
//! ones". The diagonal lives in a dense vector (every diagonal position
//! structural, O(1) access); the off-diagonal entries live in a CSR
//! sub-matrix. Enumerating the matrix requires enumerating *both* parts,
//! so a statement referencing it is split into two copies by the compiler
//! (paper §4).

use crate::formats::csr::Csr;
use crate::level::leveled;
use crate::scalar::Scalar;
use crate::{SparseMatrix, Triplets};

/// Square matrix with dense diagonal + CSR off-diagonals.
#[derive(Clone, Debug, PartialEq)]
pub struct DiagSplit<T: Scalar = f64> {
    /// Matrix order (rows == cols).
    pub n: usize,
    /// The diagonal, `diag[i] = A[i][i]`; every position structural.
    pub diag: Vec<T>,
    /// Strictly off-diagonal entries in CSR.
    pub off: Csr<T>,
}

impl DiagSplit<f64> {
    /// Builds from triplets.
    ///
    /// # Panics
    /// Panics if the matrix is not square.
    pub fn from_triplets(t: &Triplets<f64>) -> DiagSplit<f64> {
        assert_eq!(t.nrows(), t.ncols(), "diagsplit requires a square matrix");
        let n = t.nrows();
        let (t, mut diag) = (t.normalized(), vec![0.0; n]);
        let on_diagonal = t.entries().iter().filter(|e| e.0 == e.1);
        on_diagonal.for_each(|&(r, _, v)| diag[r as usize] = v);
        // What is left of a normal form is one.
        let mut off = t.into_owned();
        off.retain_positions(|r, c| r != c);
        DiagSplit {
            n,
            diag,
            off: Csr::from_triplets(&off),
        }
    }
}

impl<T: Scalar> DiagSplit<T> {
    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.n + self.off.nnz()
    }
}

impl SparseMatrix for DiagSplit<f64> {
    fn nrows(&self) -> usize {
        self.n
    }
    fn ncols(&self) -> usize {
        self.n
    }
    fn nnz(&self) -> usize {
        self.n + self.off.nnz()
    }
    fn get(&self, r: usize, c: usize) -> f64 {
        if r == c {
            self.diag[r]
        } else {
            self.off.get(r, c)
        }
    }
    fn entries(&self) -> Vec<(usize, usize, f64)> {
        self.to_triplets().wide_entries()
    }
}

leveled! {
    DiagSplit, "diagsplit";
    dims: n = n, off_nrows = off.nrows;
    arrays: diag = diag: f64, off_rowptr = off.rowptr: u32, off_colind = off.colind: u32,
        off_values = off.values: f64;
    chains:
        // Chain 0: the diagonal, a single interval level.
        [Level::interval(n)] -> diag,
        // Chain 1: the off-diagonal CSR.
        [
            Level::interval(off_nrows),
            Level::of(Kind::Compressed { ptr: off_rowptr, crd: off_colind }).search()
        ] -> off_values;
    perm: ;
    /// The diag-split index structure: the diagonal `i` (`r = c = i`)
    /// aggregated with the off-diagonal CSR.
    view: diagsplit_format_view = "(r, c | stored diagonal): (map{i |-> r, i |-> c ; r |-> i : i[interval] -> v} ∪ r[interval] -> c[sorted] -> v)";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::check_view_conformance;
    use crate::SparseView;

    fn sample() -> Triplets<f64> {
        Triplets::from_entries(
            3,
            3,
            &[
                (0, 0, 2.0),
                (1, 1, 3.0),
                (2, 2, 4.0),
                (1, 0, -1.0),
                (0, 2, 5.0),
            ],
        )
    }

    #[test]
    fn split_layout() {
        let a = DiagSplit::from_triplets(&sample());
        assert_eq!(a.diag, vec![2.0, 3.0, 4.0]);
        assert_eq!(Csr::<f64>::nnz(&a.off), 2);
        assert_eq!(SparseMatrix::nnz(&a), 5);
    }

    #[test]
    fn missing_diagonal_becomes_structural_zero() {
        let t = Triplets::from_entries(2, 2, &[(1, 0, 1.0)]);
        let a = DiagSplit::from_triplets(&t);
        assert_eq!(a.diag, vec![0.0, 0.0]);
        assert_eq!(SparseMatrix::nnz(&a), 3);
        assert!(a.format_view().has_full_diagonal());
    }

    #[test]
    fn random_access() {
        let a = DiagSplit::from_triplets(&sample());
        assert_eq!(a.get(1, 1), 3.0);
        assert_eq!(a.get(1, 0), -1.0);
        assert_eq!(a.get(2, 0), 0.0);
        assert_eq!(a.get(0, 2), 5.0);
    }

    #[test]
    fn union_alternative_conforms() {
        // The single alternative must enumerate diag + offdiag exactly.
        check_view_conformance(&DiagSplit::from_triplets(&sample()), 0).unwrap();
    }

    #[test]
    fn roundtrip() {
        let a = DiagSplit::from_triplets(&sample());
        let b = DiagSplit::from_triplets(&a.to_triplets());
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "square")]
    fn non_square_rejected() {
        let t = Triplets::<f64>::new(2, 3);
        let _ = DiagSplit::from_triplets(&t);
    }
}
