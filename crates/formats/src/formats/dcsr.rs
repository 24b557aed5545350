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
//! conversions and `find`, and the one `stored_layout!` that names its
//! fields and describes its two levels. The kernel ABI, the loop heads
//! and searches the emitter prints, and the cursors the interpreter
//! walks are derived from that description (README, "Adding a format").

use crate::layout::stored_layout;
use crate::scalar::Scalar;
use crate::view::{FormatView, Order, SearchKind, ViewExpr};
use crate::{SparseMatrix, Triplets};

/// Doubly compressed sparse row matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Dcsr<T: Scalar = f64> {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// The rows that store an entry, strictly increasing.
    pub rows: Vec<usize>,
    /// `rowptr[p]..rowptr[p+1]` indexes the entries of row `rows[p]`
    /// (`len == rows.len() + 1`).
    pub rowptr: Vec<usize>,
    /// Column index of each stored entry, sorted within each row.
    pub colind: Vec<usize>,
    /// Value of each stored entry.
    pub values: Vec<T>,
}

impl<T: Scalar> Dcsr<T> {
    /// Builds from (normalized or not) triplets: the normal form is the
    /// storage order, so one pass notes where each new row starts.
    pub fn from_triplets(t: &Triplets<T>) -> Dcsr<T> {
        let t = t.normalized();
        let mut rows = Vec::new();
        let mut rowptr = Vec::new();
        let mut colind = vec![0usize; t.nnz()];
        let mut values = vec![T::ZERO; t.nnz()];
        for (i, &(r, c, v)) in t.entries().iter().enumerate() {
            if rows.last() != Some(&r) {
                rows.push(r);
                rowptr.push(i);
            }
            colind[i] = c;
            values[i] = v;
        }
        rowptr.push(t.nnz());
        Dcsr {
            nrows: t.nrows(),
            ncols: t.ncols(),
            rows,
            rowptr,
            colind,
            values,
        }
    }

    /// Converts back to triplets. Storage order is row-major: the result
    /// is in normal form as pushed.
    pub fn to_triplets(&self) -> Triplets<T> {
        let mut t = Triplets::new(self.nrows, self.ncols);
        for (p, &r) in self.rows.iter().enumerate() {
            for i in self.rowptr[p]..self.rowptr[p + 1] {
                t.push(r, self.colind[i], self.values[i]);
            }
        }
        t
    }

    /// Checks the structural invariants of an *untrusted* instance: the
    /// row list is strictly increasing and in range, `rowptr` has one
    /// more entry than it, starts at 0, ends at the storage length and
    /// gives every listed row at least one entry, and every row's column
    /// indices are in range and strictly increasing.
    pub fn validate(&self) -> Result<(), crate::FormatError> {
        let fail = |reason: String| Err(crate::convert::invalid("dcsr", reason));
        if self.rowptr.len() != self.rows.len() + 1 {
            return fail(format!(
                "rowptr has {} entries, want one more than the {} listed rows",
                self.rowptr.len(),
                self.rows.len()
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
        if self.rowptr[self.rows.len()] != self.colind.len() {
            return fail(format!(
                "rowptr ends at {}, want the storage length {}",
                self.rowptr[self.rows.len()],
                self.colind.len()
            ));
        }
        for (p, &r) in self.rows.iter().enumerate() {
            if r >= self.nrows {
                return fail(format!("row list names row {r} >= nrows {}", self.nrows));
            }
            if p > 0 && r <= self.rows[p - 1] {
                return fail(format!("row list not strictly increasing at {r}"));
            }
            let (lo, hi) = (self.rowptr[p], self.rowptr[p + 1]);
            if lo >= hi {
                return fail(format!("listed row {r} stores no entry ({lo}..{hi})"));
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

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }
}

// This text is also the kernel crates' (`Layout::find`): its bytes are
// part of every artifact name, so rustfmt keeps out.
#[rustfmt::skip]
impl<T: Scalar> Dcsr<T> {
    /// Binary-searches the `p`-th listed row for column `c`; and the
    /// row list for row `r` first. `None` also for a coordinate outside
    /// the matrix.
    // layout-find-begin
    #[inline]
    pub fn find_in_row(&self, p: usize, c: usize) -> Option<usize> {
        let (lo, hi) = (*self.rowptr.get(p)?, *self.rowptr.get(p + 1)?);
        self.colind.get(lo..hi)?.binary_search(&c).ok().map(|k| lo + k)
    }
    #[inline]
    pub fn find(&self, r: usize, c: usize) -> Option<usize> {
        self.find_in_row(self.rows.binary_search(&r).ok()?, c)
    }
    // layout-find-end
}

stored_layout! {
    Dcsr, "dcsr", include_str!("dcsr.rs");
    dims: nrows, ncols;
    arrays: rows: usize, rowptr: usize, colind: usize, values: f64;
    chains: [
        Level::of(Kind::Coords { len: rows, crd: &[rows] }).binary_search(),
        Level::of(Kind::Compressed { ptr: rowptr, crd: colind }).find(Args::ParentKey)
    ] -> values;
    find: find_in_row;
    view: |_| dcsr_format_view();
    from_triplets: |t, _| Dcsr::from_triplets(t);
}

impl SparseMatrix for Dcsr<f64> {
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
        self.to_triplets().entries().to_vec()
    }
}

/// The DCSR index structure: `r -> c -> v`, both levels increasing with
/// binary search; only the rows that store something are enumerated.
pub fn dcsr_format_view() -> FormatView {
    let columns = ViewExpr::level("c", Order::Increasing, SearchKind::Sorted, ViewExpr::Value);
    FormatView {
        name: "dcsr".into(),
        dense_attrs: vec!["r".into(), "c".into()],
        expr: ViewExpr::level("r", Order::Increasing, SearchKind::Sorted, columns),
        bounds: vec![],
        guarantees: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::check_view_conformance;
    use crate::SparseView;

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
