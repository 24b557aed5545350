//! Diagonal storage — the `map{d + o |-> r, o |-> c : d -> o -> v}` view.
//!
//! Only diagonals containing nonzeros are stored; elements are addressed
//! by diagonal number `d = r - c` and offset `o = c` (paper Fig. 2). Every
//! position along a stored diagonal that lies inside the matrix is
//! structural — the padding zeros of a banded format are stored entries.

use crate::assemble::{built, Cut};
use crate::layout::{stored_layout, Residue};
use crate::scalar::Scalar;
use crate::Triplets;

/// Diagonal (banded) matrix storage.
#[derive(Clone, Debug, PartialEq)]
pub struct Dia<T: Scalar = f64> {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Sorted distinct stored diagonal numbers `d = r - c`.
    pub diags: Vec<i64>,
    /// Per diagonal: first stored offset `o` (inclusive).
    pub lo: Vec<i64>,
    /// Per diagonal: last stored offset `o` (exclusive).
    pub hi: Vec<i64>,
    /// Per diagonal: start of its strip in `values` (`len == diags.len()+1`).
    pub ptr: Vec<u32>,
    /// Strip storage: the value of element `(d+o, o)` of diagonal `k` is
    /// `values[ptr[k] + (o - lo[k])]`.
    pub values: Vec<T>,
}

impl Dia<f64> {
    /// Builds from triplets, as the levels describe
    /// (the crate's one assembler): every diagonal containing at least one
    /// entry is stored in full (its in-matrix extent), padded with zeros.
    ///
    /// # Panics
    /// Panics, before allocating, on a dimension or entry count above
    /// [`INDEX_LIMIT`](crate::layout::INDEX_LIMIT), and before allocating
    /// its strips if their cells exceed it.
    pub fn from_triplets(t: &Triplets<f64>) -> Dia<f64> {
        built(Dia::assembled(t, Cut::Discover))
    }
}

impl<T: Scalar> Dia<T> {
    /// Number of stored entries (including in-band padding zeros).
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Number of stored diagonals.
    pub fn ndiags(&self) -> usize {
        self.diags.len()
    }
}

/// The extent of diagonal `d` of an `m × n` matrix: offsets `lo..hi`.
fn extent(d: i64, (m, n): (i64, i64)) -> (i64, i64) {
    (0i64.max(d.saturating_neg()), n.min(m.saturating_sub(d)))
}

/// What no level says of DIA: a stored diagonal is stored in full, every
/// position of it inside the matrix.
const FULL_DIAGONALS: Residue<Dia<f64>> = Residue {
    before: 1,
    assemble: |a| {
        let shape = (a.t.nrows() as i64, a.t.ncols() as i64);
        let diags: Vec<i64> = a.take(field::diags)?;
        let (lo, hi): (Vec<i64>, Vec<i64>) = diags.iter().map(|&d| extent(d, shape)).unzip();
        a.set(field::diags, diags);
        a.set(field::lo, lo);
        a.set(field::hi, hi);
        Ok(())
    },
    check: |m| {
        let shape = (m.nrows as i64, m.ncols as i64);
        for (k, &d) in m.diags.iter().enumerate() {
            let (lo, hi) = extent(d, shape);
            if lo >= hi {
                let (m, n) = shape;
                return Err(format!("diagonal {d} lies outside a {m}x{n} matrix"));
            }
            let stored = (m.lo.get(k), m.hi.get(k));
            if stored != (Some(&lo), Some(&hi)) {
                return Err(format!(
                    "diagonal {d} extent {stored:?} disagrees with the shape's [{lo}, {hi})"
                ));
            }
        }
        Ok(())
    },
};

stored_layout! {
    Dia, "dia";
    dims: nrows, ncols;
    arrays: diags: i64, lo: i64, hi: i64, ptr: u32, values: f64;
    chains: [
        Level::of(Kind::Coords { len: diags, crd: &[diags] }).search(),
        Level::of(Kind::Interval { lo: Bound::At(lo), hi: Bound::At(hi), base: Base::Ptr(ptr) })
            .unchecked()
    ] -> values;
    residue: FULL_DIAGONALS;
    /// The DIA index structure (paper §2): diagonals `d = r - c`, then
    /// offsets `o = c` along each.
    view: dia_format_view = "(r, c): map{d + o |-> r, o |-> c ; r - c |-> d, c |-> o : d[sorted] -> o[interval] -> v}";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::check_view_conformance;
    use crate::{SparseMatrix, SparseView};

    /// Tridiagonal 4x4.
    fn tri() -> Triplets<f64> {
        let mut t = Triplets::new(4, 4);
        for i in 0..4usize {
            t.push(i, i, 2.0);
            if i > 0 {
                t.push(i, i - 1, -1.0);
            }
            if i + 1 < 4 {
                t.push(i, i + 1, -1.0);
            }
        }
        t.normalize();
        t
    }

    #[test]
    fn diagonals_detected() {
        let a = Dia::from_triplets(&tri());
        assert_eq!(a.diags, vec![-1, 0, 1]);
        assert_eq!(a.ndiags(), 3);
        // superdiag has extent o in [1,4), main [0,4), subdiag [0,3)
        assert_eq!(a.lo, vec![1, 0, 0]);
        assert_eq!(a.hi, vec![4, 4, 3]);
        assert_eq!(a.nnz(), 3 + 4 + 3);
    }

    #[test]
    fn random_access() {
        let a = Dia::from_triplets(&tri());
        assert_eq!(a.get(1, 1), 2.0);
        assert_eq!(a.get(2, 1), -1.0);
        assert_eq!(a.get(0, 2), 0.0); // unstored diagonal
        assert_eq!(a.get(3, 0), 0.0);
    }

    #[test]
    fn padding_is_structural() {
        // Single entry at (2, 0): diagonal d=2 stored in full extent.
        let t = Triplets::from_entries(4, 4, &[(2, 0, 5.0)]);
        let a = Dia::from_triplets(&t);
        assert_eq!(a.diags, vec![2]);
        assert_eq!(a.nnz(), 2); // (2,0) and (3,1)
        assert_eq!(a.get(3, 1), 0.0);
        assert!(a.find(3, 1).is_some(), "padded position is stored");
    }

    #[test]
    fn roundtrip() {
        let a = Dia::from_triplets(&tri());
        let back = Dia::from_triplets(&a.to_triplets());
        assert_eq!(a.diags, back.diags);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(a.get(r, c), back.get(r, c));
            }
        }
    }

    #[test]
    fn view_conformance() {
        check_view_conformance(&Dia::from_triplets(&tri()), 0).unwrap();
    }

    #[test]
    fn offset_level_reverse() {
        let a = Dia::from_triplets(&tri());
        let k = a.diags.binary_search(&0).unwrap();
        let mut cur = a.cursor(0, 1, k, true);
        let mut offs = Vec::new();
        while a.advance(&mut cur) {
            offs.push(cur.keys[0]);
        }
        assert_eq!(offs, vec![3, 2, 1, 0]);
    }

    #[test]
    fn search_levels() {
        let a = Dia::from_triplets(&tri());
        let k = a.search(0, 0, 0, &[1]).unwrap(); // superdiagonal d=1? note d = r - c, so d=1 is SUBdiagonal
        assert_eq!(a.diags[k], 1);
        let p = a.search(0, 1, k, &[0]).unwrap(); // (r,c) = (1, 0)
        assert_eq!(a.value_at(0, p), -1.0);
        assert!(a.search(0, 0, 0, &[5]).is_none());
        assert!(a.search(0, 1, k, &[3]).is_none()); // o=3 -> r=4 out of range
    }
}
