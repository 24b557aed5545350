//! Diagonal storage — the `map{d + o |-> r, o |-> c : d -> o -> v}` view.
//!
//! Only diagonals containing nonzeros are stored; elements are addressed
//! by diagonal number `d = r - c` and offset `o = c` (paper Fig. 2). Every
//! position along a stored diagonal that lies inside the matrix is
//! structural — the padding zeros of a banded format are stored entries.

use crate::layout::stored_layout;
use crate::scalar::Scalar;
use crate::view::{FormatView, Order, SearchKind, Transform, ViewExpr};
use crate::{SparseMatrix, Triplets};

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
    pub ptr: Vec<usize>,
    /// Strip storage: the value of element `(d+o, o)` of diagonal `k` is
    /// `values[ptr[k] + (o - lo[k])]`.
    pub values: Vec<T>,
}

impl<T: Scalar> Dia<T> {
    /// Builds from triplets: every diagonal containing at least one entry
    /// is stored in full (its in-matrix extent), padded with zeros.
    pub fn from_triplets(t: &Triplets<T>) -> Dia<T> {
        let t = t.normalized();
        let (m, n) = (t.nrows(), t.ncols());
        // slot[r + n - 1 - c]: is diagonal `r - c` stored, then which
        // stored diagonal it is.
        let mut slot = vec![0usize; (m + n).saturating_sub(1)];
        for &(r, c, _) in t.entries() {
            slot[r + n - 1 - c] = 1;
        }
        let mut diags = Vec::with_capacity(slot.iter().sum());
        for (i, s) in slot.iter_mut().enumerate().filter(|(_, s)| **s == 1) {
            *s = diags.len();
            diags.push(i as i64 - (n as i64 - 1));
        }
        let mut lo = Vec::with_capacity(diags.len());
        let mut hi = Vec::with_capacity(diags.len());
        let mut ptr = Vec::with_capacity(diags.len() + 1);
        ptr.push(0usize);
        for &d in &diags {
            let l = 0i64.max(-d);
            let h = (n as i64).min(m as i64 - d);
            debug_assert!(l < h, "diagonal {d} has empty extent");
            lo.push(l);
            hi.push(h);
            ptr.push(ptr[ptr.len() - 1] + (h - l) as usize);
        }
        let mut values = vec![T::ZERO; ptr[ptr.len() - 1]];
        for &(r, c, v) in t.entries() {
            let k = slot[r + n - 1 - c];
            values[ptr[k] + (c as i64 - lo[k]) as usize] = v;
        }
        Dia {
            nrows: m,
            ncols: n,
            diags,
            lo,
            hi,
            ptr,
            values,
        }
    }

    /// Converts back to triplets. Padding zeros are *kept* as structural
    /// entries so that `nnz` round-trips; use
    /// [`Triplets::retain_positions`] to drop them if undesired. Row by
    /// row, the diagonals from last to first cross it at increasing
    /// columns: row-major, so in normal form as pushed.
    pub fn to_triplets(&self) -> Triplets<T> {
        let mut t = Triplets::new(self.nrows, self.ncols);
        for r in 0..self.nrows as i64 {
            for k in (0..self.diags.len()).rev() {
                let o = r - self.diags[k];
                if (self.lo[k]..self.hi[k]).contains(&o) {
                    let v = self.values[self.ptr[k] + (o - self.lo[k]) as usize];
                    t.push(r as usize, o as usize, v);
                }
            }
        }
        t
    }

    /// Checks the structural invariants of an *untrusted* DIA instance:
    /// strictly increasing diagonal numbers, per-diagonal extents that
    /// match the matrix shape exactly (this format always stores a
    /// diagonal's full in-matrix extent), and a `ptr` array consistent
    /// with those extents and the value storage.
    pub fn validate(&self) -> Result<(), crate::FormatError> {
        let fail = |reason: String| Err(crate::convert::invalid("dia", reason));
        let k = self.diags.len();
        if self.lo.len() != k || self.hi.len() != k || self.ptr.len() != k + 1 {
            return fail(format!(
                "lo/hi/ptr have {}/{}/{} entries, want {k}/{k}/{}",
                self.lo.len(),
                self.hi.len(),
                self.ptr.len(),
                k + 1
            ));
        }
        if self.ptr.first() != Some(&0) {
            return fail(format!("ptr[0] = {:?}, want 0", self.ptr.first()));
        }
        let (m, n) = (self.nrows as i64, self.ncols as i64);
        for i in 0..k {
            let d = self.diags[i];
            if i > 0 && d <= self.diags[i - 1] {
                return fail(format!("diagonals not strictly increasing at {d}"));
            }
            let (lo, hi) = (0i64.max(-d), n.min(m - d));
            if lo >= hi {
                return fail(format!("diagonal {d} lies outside a {m}x{n} matrix"));
            }
            if self.lo[i] != lo || self.hi[i] != hi {
                return fail(format!(
                    "diagonal {d} extent [{}, {}) disagrees with shape (want [{lo}, {hi}))",
                    self.lo[i], self.hi[i]
                ));
            }
            let want = self.ptr[i] + (hi - lo) as usize;
            if self.ptr[i + 1] != want {
                return fail(format!(
                    "ptr[{}] = {} disagrees with diagonal {d}'s extent (want {want})",
                    i + 1,
                    self.ptr[i + 1]
                ));
            }
        }
        if self.values.len() != self.ptr[self.diags.len()] {
            return fail(format!(
                "values has {} entries, want ptr total {}",
                self.values.len(),
                self.ptr[self.diags.len()]
            ));
        }
        Ok(())
    }

    /// Number of stored entries (including in-band padding zeros).
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Number of stored diagonals.
    pub fn ndiags(&self) -> usize {
        self.diags.len()
    }
}

// This text is also the kernel crates' (`Layout::find`): its bytes are
// part of every artifact name, so rustfmt keeps out.
#[rustfmt::skip]
impl<T: Scalar> Dia<T> {
    /// Storage index of `(r, c)` if its diagonal is stored and reaches
    /// the position.
    // layout-find-begin
    #[inline]
    pub fn find(&self, r: usize, c: usize) -> Option<usize> {
        let d = r as i64 - c as i64;
        let k = self.diags.binary_search(&d).ok()?;
        let (o, lo) = (c as i64, *self.lo.get(k)?);
        if o >= lo && o < *self.hi.get(k)? {
            Some(*self.ptr.get(k)? + (o - lo) as usize)
        } else {
            None
        }
    }
    // layout-find-end
}

stored_layout! {
    Dia, "dia", include_str!("dia.rs");
    dims: nrows, ncols;
    arrays: diags: i64, lo: i64, hi: i64, ptr: usize, values: f64;
    chains: [
        Level::of(Kind::Coords { len: diags, crd: &[diags] }).binary_search(),
        Level::of(Kind::Interval { lo: Bound::At(lo), hi: Bound::At(hi), base: Base::Ptr(ptr) })
            .unchecked()
    ] -> values;
    find: find;
    view: |_| dia_format_view();
    from_triplets: |t, _| Dia::from_triplets(t);
}

impl SparseMatrix for Dia<f64> {
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
            .unwrap_or_else(|| panic!("({r},{c}) is not on a stored diagonal"));
        self.values[i] = v;
    }
    fn entries(&self) -> Vec<(usize, usize, f64)> {
        let mut out = Vec::with_capacity(self.nnz());
        for k in 0..self.diags.len() {
            let d = self.diags[k];
            for o in self.lo[k]..self.hi[k] {
                out.push((
                    (d + o) as usize,
                    o as usize,
                    self.values[self.ptr[k] + (o - self.lo[k]) as usize],
                ));
            }
        }
        out
    }
}

/// The DIA index structure (paper §2):
/// `map{d + o |-> r, o |-> c : d -> o -> v}`.
pub fn dia_format_view() -> FormatView {
    FormatView {
        name: "dia".into(),
        dense_attrs: vec!["r".into(), "c".into()],
        expr: ViewExpr::Map {
            fwd: vec![
                Transform::Affine {
                    out: "r".into(),
                    terms: vec![("d".into(), 1), ("o".into(), 1)],
                    cst: 0,
                },
                Transform::Affine {
                    out: "c".into(),
                    terms: vec![("o".into(), 1)],
                    cst: 0,
                },
            ],
            inv: vec![
                Transform::Affine {
                    out: "d".into(),
                    terms: vec![("r".into(), 1), ("c".into(), -1)],
                    cst: 0,
                },
                Transform::Affine {
                    out: "o".into(),
                    terms: vec![("c".into(), 1)],
                    cst: 0,
                },
            ],
            child: Box::new(ViewExpr::level(
                "d",
                Order::Increasing,
                SearchKind::Sorted,
                ViewExpr::Level {
                    attrs: vec!["o".into()],
                    order: Order::Increasing,
                    search: SearchKind::Direct,
                    interval: true,
                    child: Box::new(ViewExpr::Value),
                },
            )),
        },
        bounds: vec![],
        guarantees: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::check_view_conformance;
    use crate::SparseView;

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
        let mut b = a.clone();
        b.set(3, 1, 7.0); // padded position is settable
        assert_eq!(b.get(3, 1), 7.0);
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
