//! Skyline storage (lower profile / SKS) — `r -> c -> v` with per-row
//! contiguous column strips `lo[r] ..= r`.
//!
//! The classic direct-solver format of the paper's era: each row stores
//! everything from its first nonzero up to the diagonal, so the diagonal
//! is always structural and in-row access is O(1). The column level is an
//! interval level with *runtime* per-row bounds (like DIA's offset
//! level).

use crate::layout::stored_layout;
use crate::scalar::Scalar;
use crate::view::{Bound, FormatView, Order, SearchKind, StoredGuarantee, ViewExpr};
use crate::{SparseMatrix, Triplets};

/// Lower skyline matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Sky<T: Scalar = f64> {
    /// Matrix order (square, lower triangular).
    pub n: usize,
    /// First stored column of each row (`lo[r] <= r`).
    pub lo: Vec<usize>,
    /// Strip start in `values` (`len == n + 1`).
    pub ptr: Vec<usize>,
    /// Strip storage: `A[r][c] = values[ptr[r] + (c - lo[r])]` for
    /// `lo[r] <= c <= r`; in-strip zeros are structural.
    pub values: Vec<T>,
}

impl<T: Scalar> Sky<T> {
    /// Builds from triplets.
    ///
    /// # Panics
    /// Panics if the matrix is not square or has entries above the
    /// diagonal.
    pub fn from_triplets(t: &Triplets<T>) -> Sky<T> {
        assert_eq!(t.nrows(), t.ncols(), "skyline requires a square matrix");
        let n = t.nrows();
        let t = t.normalized();
        let mut lo: Vec<usize> = (0..n).collect();
        for &(r, c, _) in t.entries() {
            assert!(c <= r, "skyline requires a lower-triangular matrix");
            lo[r] = lo[r].min(c);
        }
        let mut ptr = Vec::with_capacity(n + 1);
        ptr.push(0usize);
        for r in 0..n {
            ptr.push(ptr[r] + (r - lo[r] + 1));
        }
        let mut values = vec![T::ZERO; ptr[ptr.len() - 1]];
        for &(r, c, v) in t.entries() {
            values[ptr[r] + (c - lo[r])] = v;
        }
        Sky { n, lo, ptr, values }
    }

    /// Converts back to triplets (in-strip zeros are kept: structural).
    /// Storage order is row-major: the result is in normal form as pushed.
    pub fn to_triplets(&self) -> Triplets<T> {
        let mut t = Triplets::new(self.n, self.n);
        for r in 0..self.n {
            for c in self.lo[r]..=r {
                t.push(r, c, self.values[self.ptr[r] + (c - self.lo[r])]);
            }
        }
        t
    }

    /// Number of stored entries (strip cells, including in-strip zeros).
    pub fn nnz(&self) -> usize {
        self.values.len()
    }
}

// This text is also the kernel crates' (`Layout::find`): its bytes are
// part of every artifact name, so rustfmt keeps out.
#[rustfmt::skip]
impl<T: Scalar> Sky<T> {
    /// Storage index of `(r, c)`, if within the row's strip.
    // layout-find-begin
    #[inline]
    pub fn find(&self, r: usize, c: usize) -> Option<usize> {
        let lo = *self.lo.get(r)?;
        if c >= lo && c <= r {
            Some(*self.ptr.get(r)? + (c - lo))
        } else {
            None
        }
    }
    // layout-find-end
}

stored_layout! {
    Sky, "sky", include_str!("sky.rs");
    dims: n;
    arrays: lo: usize, ptr: usize, values: f64;
    chains: [
        Level::interval(n),
        Level::of(Kind::Interval { lo: Bound::At(lo), hi: Bound::Next, base: Base::Ptr(ptr) })
            .find(Args::ParentKey)
    ] -> values;
    find: find;
    view: |_| sky_format_view();
    from_triplets: |t, _| Sky::from_triplets(t);
}

impl SparseMatrix for Sky<f64> {
    fn nrows(&self) -> usize {
        self.n
    }
    fn ncols(&self) -> usize {
        self.n
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
            .unwrap_or_else(|| panic!("({r},{c}) is outside the skyline profile"));
        self.values[i] = v;
    }
    fn entries(&self) -> Vec<(usize, usize, f64)> {
        let mut out = Vec::with_capacity(self.nnz());
        for r in 0..self.n {
            for c in self.lo[r]..=r {
                out.push((r, c, self.values[self.ptr[r] + (c - self.lo[r])]));
            }
        }
        out
    }
}

/// The skyline index structure: `r -> c -> v` with an interval column
/// level (runtime per-row bounds), lower-triangular bound, structural
/// diagonal.
pub fn sky_format_view() -> FormatView {
    FormatView {
        name: "sky".into(),
        dense_attrs: vec!["r".into(), "c".into()],
        expr: ViewExpr::interval(
            "r",
            ViewExpr::Level {
                attrs: vec!["c".into()],
                order: Order::Increasing,
                search: SearchKind::Direct,
                interval: true,
                child: Box::new(ViewExpr::Value),
            },
        ),
        bounds: vec![Bound::attr_ge("r", "c")],
        guarantees: vec![StoredGuarantee::FullDiagonal],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::check_view_conformance;
    use crate::SparseView;

    fn sample() -> Triplets<f64> {
        Triplets::from_entries(
            4,
            4,
            &[
                (0, 0, 2.0),
                (1, 1, 3.0),
                (2, 0, 1.0),
                (2, 2, 4.0),
                (3, 2, 5.0),
                (3, 3, 6.0),
            ],
        )
    }

    #[test]
    fn layout() {
        let a = Sky::from_triplets(&sample());
        assert_eq!(a.lo, vec![0, 1, 0, 2]);
        assert_eq!(a.ptr, vec![0, 1, 2, 5, 7]);
        // Row 2 strip covers (2,0), (2,1)=structural zero, (2,2).
        assert_eq!(a.nnz(), 7);
        assert_eq!(a.get(2, 1), 0.0);
        assert!(a.find(2, 1).is_some(), "in-strip zero is structural");
    }

    #[test]
    fn random_access() {
        let a = Sky::from_triplets(&sample());
        assert_eq!(a.get(3, 2), 5.0);
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.get(3, 0), 0.0);
        assert!(a.find(3, 0).is_none(), "outside the profile");
    }

    #[test]
    fn roundtrip() {
        let a = Sky::from_triplets(&sample());
        let b = Sky::from_triplets(&a.to_triplets());
        assert_eq!(a, b);
    }

    #[test]
    fn view_conformance() {
        check_view_conformance(&Sky::from_triplets(&sample()), 0).unwrap();
    }

    #[test]
    fn full_diagonal_guaranteed() {
        // Even with no diagonal entries in the input, the strip reaches
        // the diagonal (structural zeros).
        let t = Triplets::from_entries(3, 3, &[(2, 0, 1.0)]);
        let a = Sky::from_triplets(&t);
        assert!(a.find(2, 2).is_some());
        assert!(a.format_view().has_full_diagonal());
    }

    #[test]
    #[should_panic(expected = "lower-triangular")]
    fn upper_entries_rejected() {
        let t = Triplets::from_entries(3, 3, &[(0, 2, 1.0)]);
        let _ = Sky::from_triplets(&t);
    }

    #[test]
    fn reverse_column_cursor() {
        let a = Sky::from_triplets(&sample());
        let mut cur = a.cursor(0, 1, 2, true);
        let mut cols = Vec::new();
        while a.advance(&mut cur) {
            cols.push(cur.keys[0]);
        }
        assert_eq!(cols, vec![2, 1, 0]);
    }
}
