//! Compressed Sparse Column storage — the `c -> r -> v` view.
//!
//! CSC is the transpose of CSR: indexed access to columns, ordered
//! enumeration of the rows within each column.

use crate::layout::{index_limit, narrow, stored_layout};
use crate::scalar::Scalar;
use crate::{SparseMatrix, Triplets};

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

impl<T: Scalar> Csc<T> {
    /// Builds from triplets: count the columns, then scatter.
    ///
    /// # Panics
    /// Panics, before allocating, on a dimension or entry count above
    /// [`INDEX_LIMIT`](crate::layout::INDEX_LIMIT).
    pub fn from_triplets(t: &Triplets<T>) -> Csc<T> {
        index_limit(t.nrows(), t.ncols(), t.nnz());
        let t = t.normalized();
        let mut colptr = vec![0u32; t.ncols() + 1];
        for &(_, c, _) in t.entries() {
            colptr[c + 1] += 1;
        }
        for c in 0..t.ncols() {
            colptr[c + 1] += colptr[c];
        }
        // Normal form is row-major and duplicate-free, so a stable
        // counting scatter by column leaves every column's rows strictly
        // increasing: no sort.
        let mut next = colptr.clone();
        let mut rowind = vec![0u32; t.nnz()];
        let mut values = vec![T::ZERO; t.nnz()];
        for &(r, c, v) in t.entries() {
            let at = next[c] as usize;
            rowind[at] = narrow(r);
            values[at] = v;
            next[c] += 1;
        }
        Csc {
            nrows: t.nrows(),
            ncols: t.ncols(),
            colptr,
            rowind,
            values,
        }
    }

    /// Converts back to triplets. Storage order is column-major, which
    /// is the normal form of the transpose: transposing that back is a
    /// counting scatter, where sorting these entries row-major is a sort.
    pub fn to_triplets(&self) -> Triplets<T> {
        let mut t = Triplets::new(self.ncols, self.nrows);
        for c in 0..self.ncols {
            for i in self.col_range(c) {
                t.push(c, self.rowind[i] as usize, self.values[i]);
            }
        }
        t.transposed()
    }

    /// Checks the structural invariants of an *untrusted* CSC instance:
    /// the transpose of [`Csr::validate`](crate::Csr::validate) —
    /// monotone `colptr` covering the storage, in-range strictly
    /// increasing row indices within each column.
    pub fn validate(&self) -> Result<(), crate::FormatError> {
        let fail = |reason: String| Err(crate::convert::invalid("csc", reason));
        if self.colptr.len() != self.ncols + 1 {
            return fail(format!(
                "colptr has {} entries, want ncols + 1 = {}",
                self.colptr.len(),
                self.ncols + 1
            ));
        }
        if self.colptr[0] != 0 {
            return fail(format!("colptr[0] = {}, want 0", self.colptr[0]));
        }
        if self.values.len() != self.rowind.len() {
            return fail(format!(
                "values/rowind length mismatch ({} vs {})",
                self.values.len(),
                self.rowind.len()
            ));
        }
        if self.colptr[self.ncols] as usize != self.rowind.len() {
            return fail(format!(
                "colptr ends at {}, want the storage length {}",
                self.colptr[self.ncols],
                self.rowind.len()
            ));
        }
        for c in 0..self.ncols {
            let (lo, hi) = (self.colptr[c] as usize, self.colptr[c + 1] as usize);
            if lo > hi {
                return fail(format!("colptr decreases at column {c} ({lo} > {hi})"));
            }
            for i in lo..hi {
                if self.rowind[i] as usize >= self.nrows {
                    return fail(format!(
                        "column {c} stores row {} >= nrows {}",
                        self.rowind[i], self.nrows
                    ));
                }
                if i > lo && self.rowind[i] <= self.rowind[i - 1] {
                    return fail(format!("column {c} rows not strictly increasing"));
                }
            }
        }
        Ok(())
    }

    /// The half-open storage range of column `c`.
    pub fn col_range(&self, c: usize) -> std::ops::Range<usize> {
        self.colptr[c] as usize..self.colptr[c + 1] as usize
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }
}

// This text is also the kernel crates' (`Layout::find`): its bytes are
// part of every artifact name, so rustfmt keeps out.
#[rustfmt::skip]
impl<T: Scalar> Csc<T> {
    /// Binary-searches column `c` for row `r`; `None` also for a
    /// coordinate outside the matrix (a row past `u32::MAX` included).
    // layout-find-begin
    #[inline]
    pub fn find(&self, r: usize, c: usize) -> Option<usize> {
        let (lo, hi) = (*self.colptr.get(c)? as usize, *self.colptr.get(c + 1)? as usize);
        let r = u32::try_from(r).ok()?;
        self.rowind.get(lo..hi)?.binary_search(&r).ok().map(|k| lo + k)
    }
    // layout-find-end
}

stored_layout! {
    Csc, "csc", include_str!("csc.rs");
    dims: nrows, ncols;
    arrays: colptr: u32, rowind: u32, values: f64;
    chains: [
        Level::interval(ncols),
        Level::of(Kind::Compressed { ptr: colptr, crd: rowind }).find(Args::KeyParent)
    ] -> values;
    find: find;
    /// The CSC index structure: the columns, then the rows each stores.
    view: csc_format_view = "(r, c): c[interval] -> r[sorted] -> v";
    from_triplets: |t, _| Csc::from_triplets(t);
}

impl SparseMatrix for Csc<f64> {
    fn nrows(&self) -> usize {
        self.nrows
    }
    fn ncols(&self) -> usize {
        self.ncols
    }
    fn nnz(&self) -> usize {
        self.values.len()
    }
    fn get(&self, r: usize, c: usize) -> f64 {
        self.find(r, c).map_or(0.0, |i| self.values[i])
    }
    fn set(&mut self, r: usize, c: usize, v: f64) {
        let i = self
            .find(r, c)
            .unwrap_or_else(|| panic!("({r},{c}) is not a stored position"));
        self.values[i] = v;
    }
    fn entries(&self) -> Vec<(usize, usize, f64)> {
        let mut out = Vec::with_capacity(self.nnz());
        for c in 0..self.ncols {
            for i in self.col_range(c) {
                out.push((self.rowind[i] as usize, c, self.values[i]));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::check_view_conformance;
    use crate::Csr;
    use crate::SparseView;

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
            colptr[c + 1] += 1;
        }
        for c in 0..t.ncols() {
            colptr[c + 1] += colptr[c];
        }
        (
            colptr,
            entries.iter().map(|e| e.0 as u32).collect(),
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
    fn search_and_set() {
        let mut a = Csc::from_triplets(&sample_triplets());
        let p = a.search(0, 1, 2, &[2]).unwrap(); // column 2, row 2
        assert_eq!(a.value_at(0, p), 5.0);
        a.set(2, 2, 50.0);
        assert_eq!(a.value_at(0, p), 50.0);
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
