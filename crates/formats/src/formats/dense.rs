//! Dense row-major storage — the `(r × c) -> v` view.
//!
//! Dense matrices participate in the same framework as sparse ones: every
//! level is an interval with O(1) indexed access, all positions are
//! stored, and there are no enumeration-order restrictions. The compiler
//! treats a reference to a dense matrix as freely enumerable.

use crate::cursor::walk_chain;
use crate::level::leveled;
use crate::scalar::Scalar;
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
            d.data[r as usize * d.ncols + c as usize] += v;
        }
        d
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
    fn entries(&self) -> Vec<(usize, usize, f64)> {
        let mut out = Vec::with_capacity(self.nnz());
        walk_chain(self, 0, &mut |k, v| {
            out.push((k[0] as usize, k[1] as usize, v))
        });
        out
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
    /// The dense index structure: both levels intervals, every position
    /// stored.
    view: dense_format_view = "(r, c | stored all): r[interval] -> c[interval] -> v";
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
        *d.at_mut(1, 2) = 5.0;
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
