//! Compressed Sparse Column storage — the `c -> r -> v` view.
//!
//! CSC is the transpose of CSR: indexed access to columns, ordered
//! enumeration of the rows within each column.

use crate::assemble::{built, Cut};
use crate::layout::stored_layout;
use crate::scalar::Scalar;
use crate::Triplets;

/// Compressed Sparse Column matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Csc<T: Scalar = f64> {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// `colptr[c]..colptr[c+1]` indexes the entries of column `c`
    /// (`len == ncols + 1`).
    pub colptr: Vec<u32>,
    /// Row index of each stored entry, sorted within each column.
    pub rowind: Vec<u32>,
    /// Value of each stored entry.
    pub values: Vec<T>,
}

impl Csc<f64> {
    /// Builds from triplets, as the levels describe
    /// (the crate's one assembler): count the columns, then scatter. The normal
    /// form is row-major and duplicate-free, so a stable scatter by
    /// column leaves every column's rows increasing: no sort.
    ///
    /// # Panics
    /// Panics, before allocating, on a dimension or entry count above
    /// [`INDEX_LIMIT`](crate::layout::INDEX_LIMIT).
    pub fn from_triplets(t: &Triplets<f64>) -> Csc<f64> {
        built(Csc::assembled(t, Cut::Discover))
    }
}

impl<T: Scalar> Csc<T> {
    /// The half-open storage range of column `c`.
    pub fn col_range(&self, c: usize) -> std::ops::Range<usize> {
        self.colptr[c] as usize..self.colptr[c + 1] as usize
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }
}

stored_layout! {
    Csc, "csc";
    dims: nrows, ncols;
    arrays: colptr: u32, rowind: u32, values: f64;
    chains: [
        Level::interval(ncols),
        Level::of(Kind::Compressed { ptr: colptr, crd: rowind }).search()
    ] -> values;
    /// The CSC index structure: the columns, then the rows each stores.
    view: csc_format_view = "(r, c): c[interval] -> r[sorted] -> v";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::check_view_conformance;
    use crate::Csr;
    use crate::{SparseMatrix, SparseView};

    fn sample_triplets() -> Triplets<f64> {
        Triplets::from_entries(
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
        )
    }

    #[test]
    fn layout() {
        let a = Csc::from_triplets(&sample_triplets());
        assert_eq!(a.colptr, vec![0, 2, 4, 6, 7]);
        assert_eq!(a.rowind, vec![0, 3, 1, 2, 0, 2, 3]);
    }

    /// The arrays a comparison sort of the normalized entries by
    /// `(column, row)` yields: what `from_triplets` did before it
    /// scattered.
    fn by_sorting(t: &Triplets<f64>) -> (Vec<u32>, Vec<u32>, Vec<f64>) {
        let t = t.normalized();
        let mut entries = t.entries().to_vec();
        entries.sort_by_key(|&(r, c, _)| (c, r));
        let mut colptr = vec![0u32; t.ncols() + 1];
        for &(_, c, _) in &entries {
            colptr[c as usize + 1] += 1;
        }
        for c in 0..t.ncols() {
            colptr[c + 1] += colptr[c];
        }
        (
            colptr,
            entries.iter().map(|e| e.0).collect(),
            entries.iter().map(|e| e.2).collect(),
        )
    }

    #[test]
    fn scatter_builds_what_sorting_built() {
        let mut cases = vec![
            sample_triplets(),
            Triplets::new(3, 5),
            crate::gen::structurally_symmetric(40, 240, 10, 3),
        ];
        // Duplicates (summed by `normalize`), pushed out of order, with
        // columns 1 and 4 and the last row left empty.
        let mut dup = Triplets::new(5, 6);
        for k in 0..40usize {
            dup.push((k * 7) % 4, [0, 2, 3, 5][(k * 5) % 4], 0.5 + k as f64);
        }
        cases.push(dup);
        // Pseudo-random rectangular patterns.
        for seed in 1..6usize {
            let (nr, nc) = (3 + seed * 4, 2 + seed * 5);
            let mut t = Triplets::new(nr, nc);
            let mut x = seed * 2654435761;
            for _ in 0..nr * 3 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                t.push((x >> 33) % nr, (x >> 13) % nc, (x % 17) as f64 - 8.0);
            }
            cases.push(t);
        }
        for t in &cases {
            let a = Csc::from_triplets(t);
            assert_eq!(
                (a.colptr.clone(), a.rowind.clone(), a.values.clone()),
                by_sorting(t)
            );
            assert!(a.validate().is_ok());
        }
    }

    #[test]
    fn agrees_with_csr() {
        let t = sample_triplets();
        let csc = Csc::from_triplets(&t);
        let csr = Csr::from_triplets(&t);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(csc.get(r, c), csr.get(r, c), "({r},{c})");
            }
        }
    }

    #[test]
    fn triplet_roundtrip() {
        let t = sample_triplets();
        assert_eq!(Csc::from_triplets(&t).to_triplets(), t);
    }

    #[test]
    fn view_conformance() {
        check_view_conformance(&Csc::from_triplets(&sample_triplets()), 0).unwrap();
    }

    #[test]
    fn search() {
        let a = Csc::from_triplets(&sample_triplets());
        let p = a.search(0, 1, 2, &[2]).unwrap(); // column 2, row 2
        assert_eq!(a.value_at(0, p), 5.0);
        assert_eq!(a.search(0, 1, 2, &[3]), None);
    }

    #[test]
    fn row_cursor_sorted_within_column() {
        let a = Csc::from_triplets(&sample_triplets());
        let mut cur = a.cursor(0, 1, 0, false);
        let mut rows = Vec::new();
        while a.advance(&mut cur) {
            rows.push(cur.keys[0]);
        }
        assert_eq!(rows, vec![0, 3]);
    }
}
