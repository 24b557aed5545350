//! Co-ordinate storage — the `<r, c> -> v` view.
//!
//! Three parallel arrays hold the nonzeros and their positions; the
//! nonzeros may be ordered arbitrarily (paper §1). The view is a single
//! *coupled* level binding both coordinates at once, with no order
//! guarantee and only linear search.

use crate::assemble::{built, Cut};
use crate::layout::stored_layout;
use crate::scalar::Scalar;
use crate::Triplets;

/// Co-ordinate (triplet-array) matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Coo<T: Scalar = f64> {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Row position of each stored entry.
    pub rows: Vec<u32>,
    /// Column position of each stored entry.
    pub cols: Vec<u32>,
    /// Value of each stored entry.
    pub values: Vec<T>,
}

impl Coo<f64> {
    /// Builds from triplets, as the levels describe
    /// (the crate's one assembler), preserving the (row-major) normalized
    /// order.
    ///
    /// # Panics
    /// Panics, before allocating, on a dimension or entry count above
    /// [`INDEX_LIMIT`](crate::layout::INDEX_LIMIT).
    pub fn from_triplets(t: &Triplets<f64>) -> Coo<f64> {
        built(Coo::assembled(t, Cut::Discover))
    }

    /// Builds with an explicitly scrambled entry order (for tests that
    /// must not rely on any ordering).
    pub fn from_triplets_shuffled(t: &Triplets<f64>, seed: u64) -> Coo<f64> {
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
}

impl<T: Scalar> Coo<T> {
    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }
}

stored_layout! {
    Coo, "coo";
    dims: nrows, ncols;
    arrays: rows: u32, cols: u32, values: f64;
    chains:
        [Level::of(Kind::Coords { len: values, crd: &[rows, cols] }).search()] -> values;
    /// The COO index structure: one coupled level, unordered, searched
    /// linearly.
    view: coo_format_view = "(r, c): <r, c>[linear] -> v";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::check_view_conformance;
    use crate::{SparseMatrix, SparseView};

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
