//! Co-ordinate storage — the `<r, c> -> v` view.
//!
//! Three parallel arrays hold the nonzeros and their positions; the
//! nonzeros may be ordered arbitrarily (paper §1). The view is a single
//! *coupled* level binding both coordinates at once, with no order
//! guarantee and only linear search.

use crate::layout::stored_layout;
use crate::scalar::Scalar;
use crate::view::{FormatView, Order, SearchKind, ViewExpr};
use crate::{SparseMatrix, Triplets};

/// Co-ordinate (triplet-array) matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Coo<T: Scalar = f64> {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Row position of each stored entry.
    pub rows: Vec<usize>,
    /// Column position of each stored entry.
    pub cols: Vec<usize>,
    /// Value of each stored entry.
    pub values: Vec<T>,
}

impl<T: Scalar> Coo<T> {
    /// Builds from triplets, preserving the (row-major) normalized order.
    pub fn from_triplets(t: &Triplets<T>) -> Coo<T> {
        let t = t.normalized();
        Coo {
            nrows: t.nrows(),
            ncols: t.ncols(),
            rows: t.entries().iter().map(|&(r, _, _)| r).collect(),
            cols: t.entries().iter().map(|&(_, c, _)| c).collect(),
            values: t.entries().iter().map(|&(_, _, v)| v).collect(),
        }
    }

    /// Builds with an explicitly scrambled entry order (for tests that
    /// must not rely on any ordering).
    pub fn from_triplets_shuffled(t: &Triplets<T>, seed: u64) -> Coo<T> {
        let mut coo = Coo::from_triplets(t);
        // Fisher–Yates with a splitmix64 stream; deterministic for tests.
        let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
        let mut next = move || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        let n = coo.values.len();
        for i in (1..n).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            coo.rows.swap(i, j);
            coo.cols.swap(i, j);
            coo.values.swap(i, j);
        }
        coo
    }

    /// Converts back to triplets. Storage order is arbitrary: sorted
    /// unless it happens to be row-major.
    pub fn to_triplets(&self) -> Triplets<T> {
        let mut t = Triplets::new(self.nrows, self.ncols);
        for i in 0..self.values.len() {
            t.push(self.rows[i], self.cols[i], self.values[i]);
        }
        t.normalize();
        t
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }
}

// This text is also the kernel crates' (`Layout::find`): its bytes are
// part of every artifact name, so rustfmt keeps out.
#[rustfmt::skip]
impl<T: Scalar> Coo<T> {
    /// Linear search for `(r, c)`.
    // layout-find-begin
    #[inline]
    pub fn find(&self, r: usize, c: usize) -> Option<usize> {
        (0..self.values.len()).find(|&i| self.rows.get(i) == Some(&r) && self.cols.get(i) == Some(&c))
    }
    // layout-find-end
}

stored_layout! {
    Coo, "coo", include_str!("coo.rs");
    dims: nrows, ncols;
    arrays: rows: usize, cols: usize, values: f64;
    chains:
        [Level::of(Kind::Coords { len: values, crd: &[rows, cols] }).find(Args::Keys)] -> values;
    find: find;
    view: |_| coo_format_view();
    from_triplets: |t, _| Coo::from_triplets(t);
}

impl SparseMatrix for Coo<f64> {
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
        (0..self.nnz())
            .map(|i| (self.rows[i], self.cols[i], self.values[i]))
            .collect()
    }
}

/// The COO index structure: `<r, c> -> v`, unordered, linear search.
pub fn coo_format_view() -> FormatView {
    FormatView {
        name: "coo".into(),
        dense_attrs: vec!["r".into(), "c".into()],
        expr: ViewExpr::coupled(
            &["r", "c"],
            Order::Unordered,
            SearchKind::Linear,
            ViewExpr::Value,
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
        Triplets::from_entries(3, 3, &[(0, 0, 1.0), (1, 2, 2.0), (2, 0, 3.0), (2, 2, 4.0)])
    }

    #[test]
    fn roundtrip() {
        let t = sample();
        assert_eq!(Coo::from_triplets(&t).to_triplets(), t);
    }

    #[test]
    fn shuffled_preserves_content() {
        let t = sample();
        let coo = Coo::from_triplets_shuffled(&t, 42);
        assert_eq!(coo.to_triplets(), t);
        assert_eq!(coo.get(2, 0), 3.0);
        check_view_conformance(&coo, 0).unwrap();
    }

    #[test]
    fn coupled_cursor() {
        let coo = Coo::from_triplets(&sample());
        let mut cur = coo.cursor(0, 0, 0, false);
        let mut seen = Vec::new();
        while coo.advance(&mut cur) {
            seen.push((cur.keys[0], cur.keys[1], coo.value_at(0, cur.pos)));
        }
        assert_eq!(seen.len(), 4);
        assert!(seen.contains(&(1, 2, 2.0)));
    }

    #[test]
    fn view_conformance() {
        check_view_conformance(&Coo::from_triplets(&sample()), 0).unwrap();
    }

    #[test]
    fn linear_search() {
        let coo = Coo::from_triplets_shuffled(&sample(), 7);
        let p = coo.search(0, 0, 0, &[2, 2]).unwrap();
        assert_eq!(coo.value_at(0, p), 4.0);
        assert_eq!(coo.search(0, 0, 0, &[1, 1]), None);
    }
}
