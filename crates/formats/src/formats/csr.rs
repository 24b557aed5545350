//! Compressed Sparse Row storage — the `r -> c -> v` view.
//!
//! CSR permits indexed access to rows (the `r` level is a full interval
//! with O(1) access) and ordered enumeration of the columns within each
//! row; columns of the whole matrix cannot be accessed directly (paper
//! §1, Fig. 1).

use crate::layout::stored_layout;
use crate::scalar::Scalar;
use crate::view::{FormatView, Order, SearchKind, ViewExpr};
use crate::{SparseMatrix, Triplets};

/// Compressed Sparse Row matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Csr<T: Scalar = f64> {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// `rowptr[r]..rowptr[r+1]` indexes the entries of row `r`
    /// (`len == nrows + 1`).
    pub rowptr: Vec<usize>,
    /// Column index of each stored entry, sorted within each row.
    pub colind: Vec<usize>,
    /// Value of each stored entry.
    pub values: Vec<T>,
}

impl<T: Scalar> Csr<T> {
    /// Builds from (normalized or not) triplets: the normal form is the
    /// CSR order, so one pass counts the rows and splits the columns
    /// from the values.
    pub fn from_triplets(t: &Triplets<T>) -> Csr<T> {
        let t = t.normalized();
        let mut rowptr = vec![0usize; t.nrows() + 1];
        let mut colind = vec![0usize; t.nnz()];
        let mut values = vec![T::ZERO; t.nnz()];
        for ((&(r, c, v), ci), vi) in t.entries().iter().zip(&mut colind).zip(&mut values) {
            rowptr[r + 1] += 1;
            *ci = c;
            *vi = v;
        }
        for r in 0..t.nrows() {
            rowptr[r + 1] += rowptr[r];
        }
        Csr {
            nrows: t.nrows(),
            ncols: t.ncols(),
            rowptr,
            colind,
            values,
        }
    }

    /// Converts back to triplets. Storage order is row-major: the result
    /// is in normal form as pushed.
    pub fn to_triplets(&self) -> Triplets<T> {
        let mut t = Triplets::new(self.nrows, self.ncols);
        for r in 0..self.nrows {
            for i in self.rowptr[r]..self.rowptr[r + 1] {
                t.push(r, self.colind[i], self.values[i]);
            }
        }
        t
    }

    /// Checks the structural invariants of an *untrusted* CSR instance
    /// (one deserialized or assembled outside this crate): `rowptr` has
    /// `nrows + 1` monotone entries starting at 0 and ending at the
    /// storage length, and every row's column indices are in range and
    /// strictly increasing. Data passing this check cannot drive any
    /// accessor or kernel out of bounds.
    pub fn validate(&self) -> Result<(), crate::FormatError> {
        let fail = |reason: String| Err(crate::convert::invalid("csr", reason));
        if self.rowptr.len() != self.nrows + 1 {
            return fail(format!(
                "rowptr has {} entries, want nrows + 1 = {}",
                self.rowptr.len(),
                self.nrows + 1
            ));
        }
        if self.rowptr[0] != 0 {
            return fail(format!("rowptr[0] = {}, want 0", self.rowptr[0]));
        }
        if self.values.len() != self.colind.len() {
            return fail(format!(
                "values/colind length mismatch ({} vs {})",
                self.values.len(),
                self.colind.len()
            ));
        }
        if self.rowptr[self.nrows] != self.colind.len() {
            return fail(format!(
                "rowptr ends at {}, want the storage length {}",
                self.rowptr[self.nrows],
                self.colind.len()
            ));
        }
        for r in 0..self.nrows {
            let (lo, hi) = (self.rowptr[r], self.rowptr[r + 1]);
            if lo > hi {
                return fail(format!("rowptr decreases at row {r} ({lo} > {hi})"));
            }
            for i in lo..hi {
                if self.colind[i] >= self.ncols {
                    return fail(format!(
                        "row {r} stores column {} >= ncols {}",
                        self.colind[i], self.ncols
                    ));
                }
                if i > lo && self.colind[i] <= self.colind[i - 1] {
                    return fail(format!("row {r} columns not strictly increasing"));
                }
            }
        }
        Ok(())
    }

    /// The half-open storage range of row `r`.
    pub fn row_range(&self, r: usize) -> std::ops::Range<usize> {
        self.rowptr[r]..self.rowptr[r + 1]
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

// This text is also the kernel crates' (`Layout::find`): its bytes are
// part of every artifact name, so rustfmt keeps out.
#[rustfmt::skip]
impl<T: Scalar> Csr<T> {
    /// Binary-searches row `r` for column `c`; returns the storage
    /// index, `None` also for a coordinate outside the matrix.
    // layout-find-begin
    #[inline]
    pub fn find(&self, r: usize, c: usize) -> Option<usize> {
        let (lo, hi) = (*self.rowptr.get(r)?, *self.rowptr.get(r + 1)?);
        self.colind.get(lo..hi)?.binary_search(&c).ok().map(|k| lo + k)
    }
    // layout-find-end
}

stored_layout! {
    Csr, "csr", include_str!("csr.rs");
    dims: nrows, ncols;
    arrays: rowptr: usize, colind: usize, values: f64;
    chains: [
        Level::interval(nrows),
        Level::of(Kind::Compressed { ptr: rowptr, crd: colind }).find(Args::ParentKey)
    ] -> values;
    find: find;
    view: |_| csr_format_view();
    from_triplets: |t, _| Csr::from_triplets(t);
}

impl SparseMatrix for Csr<f64> {
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
        for r in 0..self.nrows {
            for i in self.row_range(r) {
                out.push((r, self.colind[i], self.values[i]));
            }
        }
        out
    }
}

/// The CSR index structure: `r -> c -> v`, `r` an interval with direct
/// access, `c` increasing with binary search.
pub fn csr_format_view() -> FormatView {
    FormatView {
        name: "csr".into(),
        dense_attrs: vec!["r".into(), "c".into()],
        expr: ViewExpr::interval(
            "r",
            ViewExpr::level("c", Order::Increasing, SearchKind::Sorted, ViewExpr::Value),
        ),
        bounds: vec![],
        guarantees: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::check_view_conformance;
    use crate::SparseView;

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
    fn set_stored() {
        let mut a = sample();
        a.set(2, 1, 9.0);
        assert_eq!(a.get(2, 1), 9.0);
    }

    #[test]
    #[should_panic(expected = "not a stored position")]
    fn set_unstored_panics() {
        let mut a = sample();
        a.set(0, 1, 9.0);
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
