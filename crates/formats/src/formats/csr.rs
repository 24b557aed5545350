//! Compressed Sparse Row storage — the `r -> c -> v` view.
//!
//! CSR permits indexed access to rows (the `r` level is a full interval
//! with O(1) access) and ordered enumeration of the columns within each
//! row; columns of the whole matrix cannot be accessed directly (paper
//! §1, Fig. 1).

use crate::assemble::{built, Cut};
use crate::layout::stored_layout;
use crate::scalar::Scalar;
use crate::Triplets;

/// Compressed Sparse Row matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr<T: Scalar = f64> {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// `rowptr[r]..rowptr[r+1]` indexes the entries of row `r`
    /// (`len == nrows + 1`).
    pub rowptr: Vec<u32>,
    /// Column index of each stored entry, sorted within each row.
    pub colind: Vec<u32>,
    /// Value of each stored entry.
    pub values: Vec<T>,
}

impl Csr<f64> {
    /// Builds from (normalized or not) triplets, as the levels describe
    /// (the crate's one assembler): the normal form is the CSR order, so one
    /// pass counts the rows and splits the columns from the values.
    ///
    /// # Panics
    /// Panics, before allocating, on a dimension or entry count above
    /// [`INDEX_LIMIT`](crate::layout::INDEX_LIMIT).
    pub fn from_triplets(t: &Triplets<f64>) -> Csr<f64> {
        built(Csr::assembled(t, Cut::Discover))
    }
}

impl<T: Scalar> Csr<T> {
    /// The half-open storage range of row `r`.
    pub fn row_range(&self, r: usize) -> std::ops::Range<usize> {
        self.rowptr[r] as usize..self.rowptr[r + 1] as usize
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Splits the rows into at most `nblocks` contiguous blocks of
    /// approximately equal stored-entry count (see
    /// [`crate::partition::split_ptr_by_cost`]); the boundaries are a
    /// deterministic function of the pattern.
    pub fn partition_rows(&self, nblocks: usize) -> Vec<usize> {
        crate::partition::split_ptr_by_cost(&self.rowptr, nblocks)
    }
}

stored_layout! {
    Csr, "csr";
    dims: nrows, ncols;
    arrays: rowptr: u32, colind: u32, values: f64;
    bands: partition_rows;
    chains: [
        Level::interval(nrows),
        Level::of(Kind::Compressed { ptr: rowptr, crd: colind }).search()
    ] -> values;
    /// The CSR index structure: the rows, by direct access, then the
    /// columns each stores, in order, by binary search.
    view: csr_format_view = "(r, c): r[interval] -> c[sorted] -> v";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::check_view_conformance;
    use crate::{SparseMatrix, SparseView};

    fn sample() -> Csr<f64> {
        // The paper's Fig. 1 example matrix:
        //   [a 0 b 0]
        //   [0 c 0 0]
        //   [0 d e 0]
        //   [f 0 0 g]
        Csr::from_triplets(&Triplets::from_entries(
            4,
            4,
            &[
                (0, 0, 1.0),
                (0, 2, 2.0),
                (1, 1, 3.0),
                (2, 1, 4.0),
                (2, 2, 5.0),
                (3, 0, 6.0),
                (3, 3, 7.0),
            ],
        ))
    }

    #[test]
    fn layout_matches_fig1() {
        let a = sample();
        assert_eq!(a.rowptr, vec![0, 2, 3, 5, 7]);
        assert_eq!(a.colind, vec![0, 2, 1, 1, 2, 0, 3]);
        assert_eq!(a.nnz(), 7);
    }

    #[test]
    fn random_access() {
        let a = sample();
        assert_eq!(a.get(0, 2), 2.0);
        assert_eq!(a.get(0, 1), 0.0);
        assert_eq!(a.get(3, 3), 7.0);
    }

    #[test]
    fn triplet_roundtrip() {
        let a = sample();
        assert_eq!(Csr::from_triplets(&a.to_triplets()), a);
    }

    #[test]
    fn view_conformance() {
        check_view_conformance(&sample(), 0).unwrap();
    }

    #[test]
    fn column_cursor_sorted() {
        let a = sample();
        let mut cur = a.cursor(0, 1, 2, false);
        let mut cols = Vec::new();
        while a.advance(&mut cur) {
            cols.push(cur.keys[0]);
        }
        assert_eq!(cols, vec![1, 2]);
    }

    #[test]
    fn search_levels() {
        let a = sample();
        assert_eq!(a.search(0, 0, 0, &[2]), Some(2));
        assert_eq!(a.search(0, 0, 0, &[4]), None);
        let p = a.search(0, 1, 3, &[3]).unwrap();
        assert_eq!(a.value_at(0, p), 7.0);
        assert_eq!(a.search(0, 1, 3, &[1]), None);
    }

    #[test]
    fn empty_rows() {
        let a = Csr::<f64>::from_triplets(&Triplets::from_entries(3, 3, &[(1, 1, 1.0)]));
        assert_eq!(a.rowptr, vec![0, 0, 1, 1]);
        assert_eq!(a.get(0, 0), 0.0);
        check_view_conformance(&a, 0).unwrap();
    }
}
