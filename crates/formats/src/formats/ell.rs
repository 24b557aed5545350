//! ELLPACK storage — `r -> c -> v` with a fixed number of slots per row.
//!
//! Every row stores exactly `width` (column, value) slots; shorter rows
//! are padded with a sentinel column. Column indices are kept sorted
//! within each row, and the per-row fill `rowlen` makes binary search
//! possible despite the padding.

use crate::layout::stored_layout;
use crate::scalar::Scalar;
use crate::view::{FormatView, Order, SearchKind, ViewExpr};
use crate::{SparseMatrix, Triplets};

/// Sentinel column index marking a padding slot.
pub const ELL_PAD: i64 = -1;

/// ELLPACK / ITPACK matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Ell<T: Scalar = f64> {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Slots per row (the maximum row fill).
    pub width: usize,
    /// Column index per slot, row-major `colind[r * width + s]`;
    /// [`ELL_PAD`] in padding slots.
    pub colind: Vec<i64>,
    /// Value per slot (zero in padding slots).
    pub values: Vec<T>,
    /// Stored entries in each row (`rowlen[r] <= width`).
    pub rowlen: Vec<usize>,
}

impl<T: Scalar> Ell<T> {
    /// Builds from triplets: count the rows, then fill the slots.
    pub fn from_triplets(t: &Triplets<T>) -> Ell<T> {
        let t = t.normalized();
        let rowlen = t.row_counts();
        let width = rowlen.iter().copied().max().unwrap_or(0);
        let mut colind = vec![ELL_PAD; t.nrows() * width];
        let mut values = vec![T::ZERO; t.nrows() * width];
        let mut fill = vec![0usize; t.nrows()];
        for &(r, c, v) in t.entries() {
            let s = fill[r];
            colind[r * width + s] = c as i64;
            values[r * width + s] = v;
            fill[r] += 1;
        }
        Ell {
            nrows: t.nrows(),
            ncols: t.ncols(),
            width,
            colind,
            values,
            rowlen,
        }
    }

    /// Checks the structural invariants of an *untrusted* ELL instance:
    /// slot arrays sized `nrows * width`, per-row fill `rowlen[r] <=
    /// width`, filled slots holding in-range strictly increasing
    /// columns, and padding slots holding [`ELL_PAD`].
    pub fn validate(&self) -> Result<(), crate::FormatError> {
        let fail = |reason: String| Err(crate::convert::invalid("ell", reason));
        if self.rowlen.len() != self.nrows {
            return fail(format!(
                "rowlen has {} entries, want nrows = {}",
                self.rowlen.len(),
                self.nrows
            ));
        }
        let slots = self.nrows * self.width;
        if self.colind.len() != slots || self.values.len() != slots {
            return fail(format!(
                "colind/values have {}/{} slots, want nrows * width = {slots}",
                self.colind.len(),
                self.values.len()
            ));
        }
        for r in 0..self.nrows {
            let len = self.rowlen[r];
            if len > self.width {
                return fail(format!("rowlen[{r}] = {len} exceeds width {}", self.width));
            }
            let base = r * self.width;
            for s in 0..len {
                let c = self.colind[base + s];
                if c < 0 || c >= self.ncols as i64 {
                    return fail(format!("row {r} slot {s} stores column {c}, out of range"));
                }
                if s > 0 && c <= self.colind[base + s - 1] {
                    return fail(format!("row {r} columns not strictly increasing"));
                }
            }
            for s in len..self.width {
                if self.colind[base + s] != ELL_PAD {
                    return fail(format!(
                        "row {r} padding slot {s} holds {} instead of the pad sentinel",
                        self.colind[base + s]
                    ));
                }
            }
        }
        Ok(())
    }

    /// Converts back to triplets. Storage order is row-major: the result
    /// is in normal form as pushed.
    pub fn to_triplets(&self) -> Triplets<T> {
        let mut t = Triplets::new(self.nrows, self.ncols);
        for r in 0..self.nrows {
            for s in 0..self.rowlen[r] {
                t.push(
                    r,
                    self.colind[r * self.width + s] as usize,
                    self.values[r * self.width + s],
                );
            }
        }
        t
    }

    /// Number of stored entries (padding excluded).
    pub fn nnz(&self) -> usize {
        self.rowlen.iter().sum()
    }
}

// This text is also the kernel crates' (`Layout::find`): its bytes are
// part of every artifact name, so rustfmt keeps out.
#[rustfmt::skip]
impl<T: Scalar> Ell<T> {
    /// Binary search for `(r, c)` within the sorted, filled prefix of
    /// the row; `None` also for a row outside the matrix (a build that
    /// checks arithmetic overflow panics on `r > usize::MAX / width`).
    // layout-find-begin
    #[inline]
    pub fn find(&self, r: usize, c: usize) -> Option<usize> {
        let base = r * self.width;
        let row = self.colind.get(base..base + *self.rowlen.get(r)?)?;
        row.binary_search(&(c as i64)).ok().map(|s| base + s)
    }
    // layout-find-end
}

stored_layout! {
    Ell, "ell", include_str!("ell.rs");
    dims: nrows, ncols, width;
    arrays: colind: i64, values: f64, rowlen: usize;
    chains: [
        Level::interval(nrows),
        Level::of(Kind::Slots { count: rowlen, at: SlotAt::RowMajor(width), crd: colind })
            .unchecked()
            .find(Args::ParentKey)
    ] -> values;
    find: find;
    view: |_| ell_format_view();
    from_triplets: |t, _| Ell::from_triplets(t);
}

impl SparseMatrix for Ell<f64> {
    fn nrows(&self) -> usize {
        self.nrows
    }
    fn ncols(&self) -> usize {
        self.ncols
    }
    fn nnz(&self) -> usize {
        self.rowlen.iter().sum()
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
            for s in 0..self.rowlen[r] {
                out.push((
                    r,
                    self.colind[r * self.width + s] as usize,
                    self.values[r * self.width + s],
                ));
            }
        }
        out
    }
}

/// The ELL index structure: `r -> c -> v` like CSR, but the column level
/// enumerates a fixed-width padded slot array.
pub fn ell_format_view() -> FormatView {
    FormatView {
        name: "ell".into(),
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

    fn sample() -> Triplets<f64> {
        Triplets::from_entries(
            3,
            4,
            &[
                (0, 0, 1.0),
                (0, 3, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
                (2, 3, 6.0),
            ],
        )
    }

    #[test]
    fn layout() {
        let a = Ell::from_triplets(&sample());
        assert_eq!(a.width, 3);
        assert_eq!(a.rowlen, vec![2, 1, 3]);
        assert_eq!(a.nnz(), 6);
        assert_eq!(&a.colind[0..3], &[0, 3, ELL_PAD]);
        assert_eq!(&a.colind[3..6], &[1, ELL_PAD, ELL_PAD]);
        assert_eq!(&a.colind[6..9], &[0, 2, 3]);
    }

    #[test]
    fn random_access() {
        let a = Ell::from_triplets(&sample());
        assert_eq!(a.get(0, 3), 2.0);
        assert_eq!(a.get(0, 1), 0.0);
        assert_eq!(a.get(2, 2), 5.0);
    }

    #[test]
    fn roundtrip() {
        let t = sample();
        assert_eq!(Ell::from_triplets(&t).to_triplets(), t);
    }

    #[test]
    fn view_conformance() {
        check_view_conformance(&Ell::from_triplets(&sample()), 0).unwrap();
    }

    #[test]
    fn padding_skipped_by_cursor() {
        let a = Ell::from_triplets(&sample());
        let mut cur = a.cursor(0, 1, 1, false);
        let mut cols = Vec::new();
        while a.advance(&mut cur) {
            cols.push(cur.keys[0]);
        }
        assert_eq!(cols, vec![1]);
    }

    #[test]
    fn search() {
        let a = Ell::from_triplets(&sample());
        let p = a.search(0, 1, 2, &[2]).unwrap();
        assert_eq!(a.value_at(0, p), 5.0);
        assert!(a.search(0, 1, 2, &[1]).is_none());
    }

    #[test]
    fn empty_matrix() {
        let a = Ell::<f64>::from_triplets(&Triplets::new(2, 2));
        assert_eq!(a.width, 0);
        assert_eq!(a.nnz(), 0);
        check_view_conformance(&a, 0).unwrap();
    }
}
