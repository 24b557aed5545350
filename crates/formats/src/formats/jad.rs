//! Jagged Diagonal storage — the
//! `perm{iperm[rr] |-> r : (<rr,c> -> v) ⊕ (rr -> c -> v)}` view.
//!
//! Construction (paper Appendix A, Fig. 14): compress each row (dropping
//! zeros, keeping original column indices), sort the compressed rows by
//! decreasing fill (recording the permutation `iperm`), then store the
//! *columns* of the compressed-and-sorted matrix — the "jagged diagonals"
//! — contiguously. `dptr[d]` marks where diagonal `d` starts.
//!
//! Two perspectives (`⊕`):
//! - **flat**: enumerate `(rr, c)` pairs in storage order, walking the
//!   long diagonals — the fast path for MVM;
//! - **hierarchical**: random access to permuted row `rr`, then the `d`-th
//!   element of the row sits at `dptr[d] + rr` — the path triangular solve
//!   needs.
//!
//! One deliberate improvement over the paper's reference code: the paper's
//! `term_perm_vector::unapply` does a linear scan; we precompute the
//! inverse permutation (`iperm_inv`) for O(1) un-mapping, which is what a
//! production implementation would do.

use crate::layout::stored_layout;
use crate::scalar::Scalar;
use crate::view::{FormatView, Order, SearchKind, ViewExpr};
use crate::{SparseMatrix, Triplets};

/// Jagged Diagonal matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Jad<T: Scalar = f64> {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// `iperm[rr]` = original row index of permuted row `rr`.
    pub iperm: Vec<usize>,
    /// `iperm_inv[r]` = permuted index of original row `r`.
    pub iperm_inv: Vec<usize>,
    /// Start of each jagged diagonal in `colind`/`values`
    /// (`len == ndiags + 1`).
    pub dptr: Vec<usize>,
    /// Column index of each stored entry, diagonal-major: the `d`-th
    /// element of permuted row `rr` is at `dptr[d] + rr`.
    pub colind: Vec<usize>,
    /// Values, same layout as `colind`.
    pub values: Vec<T>,
    /// Stored entries in each *permuted* row (non-increasing in `rr`).
    pub rowlen: Vec<usize>,
}

impl<T: Scalar> Jad<T> {
    /// Builds from triplets: the compressed rows are the row slices of
    /// the normal form, and ordering them by fill is a counting sort.
    pub fn from_triplets(t: &Triplets<T>) -> Jad<T> {
        let t = t.normalized();
        let (m, e) = (t.nrows(), t.entries());
        // rowptr[r + 1] is the fill of row r until the prefix sum below.
        let mut rowptr = vec![0usize; m + 1];
        for &(r, _, _) in e {
            rowptr[r + 1] += 1;
        }
        let nd = rowptr.iter().copied().max().unwrap_or(0);
        // first[l]: how many rows are longer than l, which is where the
        // rows of fill l start in the order of decreasing fill.
        let mut first = vec![0usize; nd + 1];
        for &l in &rowptr[1..] {
            first[l] += 1;
        }
        let mut longer = 0;
        for f in first.iter_mut().rev() {
            longer += std::mem::replace(f, longer);
        }
        // dptr[d+1] - dptr[d] = number of rows with fill > d.
        let mut dptr = Vec::with_capacity(nd + 1);
        dptr.push(0usize);
        for d in 0..nd {
            dptr.push(dptr[d] + first[d]);
        }
        // Rows of equal fill keep their relative order (deterministic
        // layout): rows are placed in increasing `r`.
        let mut iperm = vec![0usize; m];
        let mut iperm_inv = vec![0usize; m];
        for (r, &l) in rowptr[1..].iter().enumerate() {
            iperm[first[l]] = r;
            iperm_inv[r] = first[l];
            first[l] += 1;
        }
        let rowlen: Vec<usize> = iperm.iter().map(|&r| rowptr[r + 1]).collect();
        for r in 0..m {
            rowptr[r + 1] += rowptr[r];
        }
        // In permuted row order every diagonal is written front to back.
        let mut colind = vec![0usize; e.len()];
        let mut values = vec![T::ZERO; e.len()];
        for (rr, &r) in iperm.iter().enumerate() {
            let row = &e[rowptr[r]..rowptr[r + 1]];
            for (&(_, c, v), &start) in row.iter().zip(&dptr) {
                colind[start + rr] = c;
                values[start + rr] = v;
            }
        }
        Jad {
            nrows: m,
            ncols: t.ncols(),
            iperm,
            iperm_inv,
            dptr,
            colind,
            values,
            rowlen,
        }
    }

    /// Converts back to triplets, visiting the rows in original order
    /// (through `iperm_inv`): row-major, so in normal form as pushed.
    pub fn to_triplets(&self) -> Triplets<T> {
        let mut t = Triplets::new(self.nrows, self.ncols);
        for (r, &rr) in self.iperm_inv.iter().enumerate() {
            for d in 0..self.rowlen[rr] {
                let jj = self.dptr[d] + rr;
                t.push(r, self.colind[jj], self.values[jj]);
            }
        }
        t
    }

    /// Checks the structural invariants of an *untrusted* JAD instance:
    /// `iperm`/`iperm_inv` are mutually inverse permutations of the
    /// rows, `rowlen` is non-increasing (the defining jagged property),
    /// each `dptr` strip is exactly as long as the number of rows
    /// reaching that diagonal, and all stored columns are in range.
    pub fn validate(&self) -> Result<(), crate::FormatError> {
        let fail = |reason: String| Err(crate::convert::invalid("jad", reason));
        let m = self.nrows;
        if self.iperm.len() != m || self.iperm_inv.len() != m || self.rowlen.len() != m {
            return fail(format!(
                "iperm/iperm_inv/rowlen have {}/{}/{} entries, want nrows = {m}",
                self.iperm.len(),
                self.iperm_inv.len(),
                self.rowlen.len()
            ));
        }
        for (rr, &r) in self.iperm.iter().enumerate() {
            if r >= m {
                return fail(format!("iperm[{rr}] = {r} >= nrows {m}"));
            }
            if self.iperm_inv[r] != rr {
                return fail(format!(
                    "iperm_inv[{r}] = {} but iperm[{rr}] = {r}: not inverse permutations",
                    self.iperm_inv[r]
                ));
            }
        }
        for rr in 1..m {
            if self.rowlen[rr] > self.rowlen[rr - 1] {
                return fail(format!("rowlen increases at permuted row {rr}"));
            }
        }
        let nd = self.rowlen.first().copied().unwrap_or(0);
        if self.dptr.len() != nd + 1 {
            return fail(format!(
                "dptr has {} entries, want max rowlen + 1 = {}",
                self.dptr.len(),
                nd + 1
            ));
        }
        if self.dptr[0] != 0 {
            return fail(format!("dptr[0] = {}, want 0", self.dptr[0]));
        }
        for d in 0..nd {
            let want = self.rowlen.partition_point(|&len| len > d);
            let got = self.dptr[d + 1].checked_sub(self.dptr[d]);
            if got != Some(want) {
                return fail(format!(
                    "diagonal {d} strip length {:?} disagrees with rowlen (want {want})",
                    got
                ));
            }
        }
        let nnz = *self.dptr.last().unwrap_or(&0);
        if self.colind.len() != nnz || self.values.len() != nnz {
            return fail(format!(
                "colind/values have {}/{} entries, want dptr total {nnz}",
                self.colind.len(),
                self.values.len()
            ));
        }
        if let Some(&c) = self.colind.iter().find(|&&c| c >= self.ncols) {
            return fail(format!("stored column {c} >= ncols {}", self.ncols));
        }
        Ok(())
    }

    /// Number of jagged diagonals.
    pub fn ndiags(&self) -> usize {
        self.dptr.len() - 1
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }
}

// This text is also the kernel crates' (`Layout::find`): its bytes are
// part of every artifact name, so rustfmt keeps out.
#[rustfmt::skip]
impl<T: Scalar> Jad<T> {
    /// `find_in_row`: storage index of column `c` in *permuted* row
    /// `rr` (binary search over the row's diagonals, exploiting that
    /// column indices increase along a row). `find`: the same for the
    /// dense coordinate `(r, c)`.
    // layout-find-begin
    #[inline]
    pub fn find_in_row(&self, rr: usize, c: usize) -> Option<usize> {
        let (mut lo, mut hi) = (0usize, *self.rowlen.get(rr)?);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let jj = *self.dptr.get(mid)? + rr;
            match self.colind.get(jj)?.cmp(&c) {
                core::cmp::Ordering::Equal => return Some(jj),
                core::cmp::Ordering::Less => lo = mid + 1,
                core::cmp::Ordering::Greater => hi = mid,
            }
        }
        None
    }
    #[inline]
    pub fn find(&self, r: usize, c: usize) -> Option<usize> {
        self.find_in_row(*self.iperm_inv.get(r)?, c)
    }
    // layout-find-end
}

stored_layout! {
    Jad, "jad", include_str!("jad.rs");
    dims: nrows, ncols;
    arrays: iperm: usize, iperm_inv: usize, dptr: usize, colind: usize, values: f64,
        rowlen: usize;
    chains:
        // Flat: one coupled level over all entries in diagonal order.
        [Level::of(Kind::Jagged { ptr: dptr, crd: colind }).permuted()] -> values,
        // Hier: permuted rows, then the row's diagonals.
        [
            Level::interval(nrows).permuted(),
            Level::of(Kind::Slots { count: rowlen, at: SlotAt::Table(dptr), crd: colind })
                .find(Args::ParentKey)
        ] -> values;
    perm: iperm, iperm_inv;
    find: find_in_row;
    view: |_| jad_format_view();
    from_triplets: |t, _| Jad::from_triplets(t);
}

impl SparseMatrix for Jad<f64> {
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
        for rr in 0..self.nrows {
            let r = self.iperm[rr];
            for d in 0..self.rowlen[rr] {
                let jj = self.dptr[d] + rr;
                out.push((r, self.colind[jj], self.values[jj]));
            }
        }
        out
    }
}

/// The JAD index structure (paper §2 / Appendix A.2):
/// `perm{iperm[rr] |-> r : (<rr, c> -> v) ⊕ (rr -> c -> v)}`.
///
/// Chain 0 is the flat (diagonal-walking) perspective; chain 1 is the
/// hierarchical (row-indexed) perspective.
pub fn jad_format_view() -> FormatView {
    let flat = ViewExpr::coupled(
        &["rr", "c"],
        Order::Unordered,
        SearchKind::None,
        ViewExpr::Value,
    );
    let hier = ViewExpr::interval(
        "rr",
        ViewExpr::level("c", Order::Increasing, SearchKind::Sorted, ViewExpr::Value),
    );
    FormatView {
        name: "jad".into(),
        dense_attrs: vec!["r".into(), "c".into()],
        expr: ViewExpr::Perm {
            table: "iperm".into(),
            input: "rr".into(),
            out: "r".into(),
            child: Box::new(ViewExpr::Persp(Box::new(flat), Box::new(hier))),
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

    /// The matrix of the paper's Fig. 14(a):
    /// ```text
    ///   [a 0 b 0]        row fills: 2, 1, 2, 3
    ///   [0 c 0 0]
    ///   [0 d e 0]
    ///   [f 0 g h]
    /// ```
    fn fig14() -> Triplets<f64> {
        Triplets::from_entries(
            4,
            4,
            &[
                (0, 0, 1.0), // a
                (0, 2, 2.0), // b
                (1, 1, 3.0), // c
                (2, 1, 4.0), // d
                (2, 2, 5.0), // e
                (3, 0, 6.0), // f
                (3, 2, 7.0), // g
                (3, 3, 8.0), // h
            ],
        )
    }

    #[test]
    fn construction_matches_fig14() {
        let a = Jad::from_triplets(&fig14());
        // Row 3 has 3 entries -> first after sorting; rows 0 and 2 have 2
        // (stable: 0 before 2); row 1 has 1 -> last.
        assert_eq!(a.iperm, vec![3, 0, 2, 1]);
        assert_eq!(a.iperm_inv, vec![1, 3, 2, 0]);
        assert_eq!(a.rowlen, vec![3, 2, 2, 1]);
        assert_eq!(a.ndiags(), 3);
        // Diagonal 0 has 4 entries, diagonal 1 has 3, diagonal 2 has 1.
        assert_eq!(a.dptr, vec![0, 4, 7, 8]);
        // Diagonal 0: first entries of rows [3,0,2,1] = f,a,d,c.
        assert_eq!(a.colind[0..4], [0, 0, 1, 1]);
        assert_eq!(a.values[0..4], [6.0, 1.0, 4.0, 3.0]);
        // Diagonal 1: second entries of rows [3,0,2] = g,b,e.
        assert_eq!(a.colind[4..7], [2, 2, 2]);
        assert_eq!(a.values[4..7], [7.0, 2.0, 5.0]);
        // Diagonal 2: third entry of row 3 = h.
        assert_eq!(a.colind[7], 3);
        assert_eq!(a.values[7], 8.0);
    }

    #[test]
    fn random_access() {
        let a = Jad::from_triplets(&fig14());
        assert_eq!(a.get(3, 2), 7.0);
        assert_eq!(a.get(0, 0), 1.0);
        assert_eq!(a.get(0, 1), 0.0);
        assert_eq!(a.get(2, 2), 5.0);
    }

    #[test]
    fn roundtrip() {
        let t = fig14();
        assert_eq!(Jad::from_triplets(&t).to_triplets(), t);
    }

    #[test]
    fn both_perspectives_conform() {
        let a = Jad::from_triplets(&fig14());
        check_view_conformance(&a, 0).unwrap(); // flat
        check_view_conformance(&a, 1).unwrap(); // hierarchical
    }

    #[test]
    fn flat_cursor_walks_diagonals() {
        let a = Jad::from_triplets(&fig14());
        let mut cur = a.cursor(0, 0, 0, false);
        let mut seen = Vec::new();
        while a.advance(&mut cur) {
            seen.push((cur.keys[0], cur.keys[1]));
        }
        // (rr, c) pairs in storage order: diagonal 0 rr=0..4, then diag 1...
        assert_eq!(
            seen,
            vec![
                (0, 0),
                (1, 0),
                (2, 1),
                (3, 1),
                (0, 2),
                (1, 2),
                (2, 2),
                (0, 3)
            ]
        );
    }

    #[test]
    fn hier_row_access() {
        let a = Jad::from_triplets(&fig14());
        // Original row 3 is permuted row 0.
        let rr = a.perm_unapply(3) as usize;
        assert_eq!(rr, 0);
        let mut cur = a.cursor(1, 1, rr, false);
        let mut row = Vec::new();
        while a.advance(&mut cur) {
            row.push((cur.keys[0], a.value_at(1, cur.pos)));
        }
        assert_eq!(row, vec![(0, 6.0), (2, 7.0), (3, 8.0)]);
    }

    #[test]
    fn hier_search_by_column() {
        let a = Jad::from_triplets(&fig14());
        let rr = a.iperm_inv[3];
        let p = a.search(1, 1, rr, &[3]).unwrap();
        assert_eq!(a.value_at(1, p), 8.0);
        assert!(a.search(1, 1, rr, &[1]).is_none());
    }

    #[test]
    fn triangular_properties_detected() {
        let l = fig14().lower_triangle_full_diag(1.0);
        let a = Jad::from_triplets(&l);
        let v = a.format_view();
        assert!(v.has_full_diagonal());
        assert!(!v.bounds.is_empty()); // r >= c detected
    }

    #[test]
    fn perm_tables() {
        let a = Jad::from_triplets(&fig14());
        for rr in 0..4 {
            let r = a.perm_apply(rr);
            assert_eq!(a.perm_unapply(r), rr);
        }
    }
}
