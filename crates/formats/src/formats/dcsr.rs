//! Doubly Compressed Sparse Row storage — the `r -> c -> v` view with
//! *both* levels compressed.
//!
//! CSR spends a row pointer on every row, stored or not; on a
//! hypersparse operand (far fewer entries than rows: a frontier, a
//! block of a 2-D partitioned matrix) the pointer array is the matrix.
//! DCSR stores the sorted list of the rows that have entries and a CSR
//! over that list: the next nesting of the paper's `Index -> E` after
//! CSR, a coordinate-list level under a compressed one. Rows are
//! enumerated in increasing order and found by binary search; within a
//! row everything is CSR's.
//!
//! This file is all there is to the format: the struct with its
//! conversions, and the one `stored_layout!` that names its fields and
//! describes its two levels. The kernel ABI, the loop heads and searches
//! the emitter prints, the cursors the interpreter walks and the dense
//! lookup are derived from that description (README, "Adding a
//! format").

use crate::assemble::{built, Cut};
use crate::layout::stored_layout;
use crate::scalar::Scalar;
use crate::Triplets;

/// Doubly compressed sparse row matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Dcsr<T: Scalar = f64> {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// The rows that store an entry, strictly increasing.
    pub rows: Vec<u32>,
    /// `rowptr[p]..rowptr[p+1]` indexes the entries of row `rows[p]`
    /// (`len == rows.len() + 1`).
    pub rowptr: Vec<u32>,
    /// Column index of each stored entry, sorted within each row.
    pub colind: Vec<u32>,
    /// Value of each stored entry.
    pub values: Vec<T>,
}

impl Dcsr<f64> {
    /// Builds from (normalized or not) triplets, as the levels describe
    /// (the crate's one assembler): the normal form is the storage order, so
    /// one pass lists the rows and another counts their entries.
    ///
    /// # Panics
    /// Panics, before allocating, on a dimension or entry count above
    /// [`INDEX_LIMIT`](crate::layout::INDEX_LIMIT).
    pub fn from_triplets(t: &Triplets<f64>) -> Dcsr<f64> {
        built(Dcsr::assembled(t, Cut::Discover))
    }
}

impl<T: Scalar> Dcsr<T> {
    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }
}

stored_layout! {
    Dcsr, "dcsr";
    dims: nrows, ncols;
    arrays: rows: u32, rowptr: u32, colind: u32, values: f64;
    chains: [
        Level::of(Kind::Coords { len: rows, crd: &[rows] }).search(),
        Level::of(Kind::Compressed { ptr: rowptr, crd: colind }).search()
    ] -> values;
    /// The DCSR index structure: like CSR's, but only the rows that store
    /// something are enumerated, and found by binary search.
    view: dcsr_format_view = "(r, c): r[sorted] -> c[sorted] -> v";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::check_view_conformance;
    use crate::{SparseMatrix, SparseView};

    /// Rows 1, 4 and 5 of eight store something.
    fn sample() -> Dcsr<f64> {
        Dcsr::from_triplets(&Triplets::from_entries(
            8,
            6,
            &[
                (4, 0, 3.0),
                (1, 2, 1.0),
                (1, 5, 2.0),
                (5, 3, 4.0),
                (4, 4, 5.0),
            ],
        ))
    }

    #[test]
    fn only_stored_rows_cost_a_pointer() {
        let a = sample();
        assert_eq!(a.rows, vec![1, 4, 5]);
        assert_eq!(a.rowptr, vec![0, 2, 4, 5]);
        assert_eq!(a.colind, vec![2, 5, 0, 4, 3]);
        assert_eq!(a.validate(), Ok(()));
        assert_eq!(Dcsr::from_triplets(&a.to_triplets()), a);
    }

    #[test]
    fn random_access_and_levels() {
        let a = sample();
        assert_eq!(a.get(4, 4), 5.0);
        assert_eq!(a.get(0, 0), 0.0);
        assert_eq!(a.get(9, 9), 0.0);
        // Level 0 finds a row's place in the list, level 1 is beneath it.
        assert_eq!(a.search(0, 0, 0, &[4]), Some(1));
        assert_eq!(a.search(0, 0, 0, &[2]), None);
        assert_eq!(a.search(0, 0, 0, &[-1]), None);
        let p = a.search(0, 1, 1, &[4]).map(|p| a.value_at(0, p));
        assert_eq!(p, Some(5.0));
        let mut cur = a.cursor(0, 0, 0, false);
        let mut rows = Vec::new();
        while a.advance(&mut cur) {
            rows.push((cur.keys[0], cur.pos));
        }
        assert_eq!(rows, vec![(1, 0), (4, 1), (5, 2)]);
        check_view_conformance(&a, 0).unwrap();
    }
}
