//! Dense row-major storage — the `(r × c) -> v` view.
//!
//! Dense matrices participate in the same framework as sparse ones: every
//! level is an interval with O(1) indexed access, all positions are
//! stored, and there are no enumeration-order restrictions. The compiler
//! treats a reference to a dense matrix as freely enumerable.

use crate::level::leveled;
use crate::scalar::Scalar;
use crate::view::{FormatView, StoredGuarantee, ViewExpr};
use crate::SparseMatrix;

/// Dense row-major matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Dense<T: Scalar = f64> {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Row-major element storage, `data[r * ncols + c]`.
    pub data: Vec<T>,
}

impl<T: Scalar> Dense<T> {
    /// A zero matrix of the given shape.
    pub fn zeros(nrows: usize, ncols: usize) -> Dense<T> {
        Dense {
            nrows,
            ncols,
            data: vec![T::ZERO; nrows * ncols],
        }
    }

    /// Builds from triplets; unlisted positions are zero.
    pub fn from_triplets(t: &crate::Triplets<T>) -> Dense<T> {
        let mut d = Dense::zeros(t.nrows(), t.ncols());
        for &(r, c, v) in t.entries() {
            d.data[r * d.ncols + c] += v;
        }
        d
    }

    /// Converts to triplets (every position, including zeros, is stored in
    /// a dense matrix; but triplets keep only the nonzero pattern to stay
    /// useful as an interchange form). Row-major: in normal form as
    /// pushed.
    pub fn to_triplets(&self) -> crate::Triplets<T> {
        let mut t = crate::Triplets::new(self.nrows, self.ncols);
        for r in 0..self.nrows {
            for c in 0..self.ncols {
                let v = self.data[r * self.ncols + c];
                if v != T::ZERO {
                    t.push(r, c, v);
                }
            }
        }
        t
    }

    /// Element reference.
    pub fn at(&self, r: usize, c: usize) -> &T {
        &self.data[r * self.ncols + c]
    }

    /// Mutable element reference.
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut T {
        &mut self.data[r * self.ncols + c]
    }
}

impl SparseMatrix for Dense<f64> {
    fn nrows(&self) -> usize {
        self.nrows
    }
    fn ncols(&self) -> usize {
        self.ncols
    }
    fn nnz(&self) -> usize {
        self.nrows * self.ncols
    }
    fn get(&self, r: usize, c: usize) -> f64 {
        self.data[r * self.ncols + c]
    }
    fn set(&mut self, r: usize, c: usize, v: f64) {
        self.data[r * self.ncols + c] = v;
    }
    fn entries(&self) -> Vec<(usize, usize, f64)> {
        let mut out = Vec::with_capacity(self.nnz());
        for r in 0..self.nrows {
            for c in 0..self.ncols {
                out.push((r, c, self.data[r * self.ncols + c]));
            }
        }
        out
    }
}

/// The dense index structure: `r -> c -> v`, both levels intervals and
/// every position stored.
pub fn dense_format_view() -> FormatView {
    FormatView {
        name: "dense".into(),
        dense_attrs: vec!["r".into(), "c".into()],
        expr: ViewExpr::interval("r", ViewExpr::interval("c", ViewExpr::Value)),
        bounds: vec![],
        guarantees: vec![StoredGuarantee::AllPositions],
    }
}

leveled! {
    Dense, "dense";
    dims: nrows = nrows, ncols = ncols;
    arrays: data = data: f64;
    chains: [
        Level::interval(nrows),
        Level::of(Kind::Interval {
            lo: Bound::Zero,
            hi: Bound::Extent(ncols),
            base: Base::Stride(ncols),
        })
    ] -> data;
    perm: ;
    find: "" => |_, _, _| None;
    view: |_| dense_format_view();
    // Nothing to detect: every position is stored.
    format_view: |_| dense_format_view();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::check_view_conformance;
    use crate::SparseView;
    use crate::Triplets;

    #[test]
    fn basic_access() {
        let mut d = Dense::<f64>::zeros(2, 3);
        d.set(1, 2, 5.0);
        assert_eq!(d.get(1, 2), 5.0);
        assert_eq!(d.get(0, 0), 0.0);
        assert_eq!(d.nnz(), 6);
        *d.at_mut(0, 1) = 7.0;
        assert_eq!(*d.at(0, 1), 7.0);
    }

    #[test]
    fn triplet_roundtrip() {
        let t = Triplets::from_entries(2, 2, &[(0, 1, 3.0), (1, 0, -2.0)]);
        let d = Dense::from_triplets(&t);
        assert_eq!(d.to_triplets(), t);
    }

    #[test]
    fn view_conformance() {
        let t = Triplets::from_entries(3, 4, &[(0, 1, 3.0), (2, 3, -2.0)]);
        let d = Dense::from_triplets(&t);
        check_view_conformance(&d, 0).unwrap();
    }

    #[test]
    fn reverse_cursor() {
        let d = Dense::<f64>::zeros(3, 1);
        let mut cur = d.cursor(0, 0, 0, true);
        let mut seen = Vec::new();
        while d.advance(&mut cur) {
            seen.push(cur.keys[0]);
        }
        assert_eq!(seen, vec![2, 1, 0]);
    }

    #[test]
    fn search_out_of_range() {
        let d = Dense::<f64>::zeros(2, 2);
        assert_eq!(d.search(0, 0, 0, &[5]), None);
        assert_eq!(d.search(0, 0, 0, &[-1]), None);
        assert_eq!(d.search(0, 1, 1, &[1]), Some(3));
    }
}
