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

use crate::assemble::{built, Cut};
use crate::layout::{narrow, stored_layout, Residue};
use crate::scalar::Scalar;
use crate::Triplets;

/// Jagged Diagonal matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Jad<T: Scalar = f64> {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// `iperm[rr]` = original row index of permuted row `rr`.
    pub iperm: Vec<u32>,
    /// `iperm_inv[r]` = permuted index of original row `r`.
    pub iperm_inv: Vec<u32>,
    /// Start of each jagged diagonal in `colind`/`values`
    /// (`len == ndiags + 1`).
    pub dptr: Vec<u32>,
    /// Column index of each stored entry, diagonal-major: the `d`-th
    /// element of permuted row `rr` is at `dptr[d] + rr`.
    pub colind: Vec<u32>,
    /// Values, same layout as `colind`.
    pub values: Vec<T>,
    /// Stored entries in each *permuted* row (non-increasing in `rr`).
    pub rowlen: Vec<u32>,
}

impl Jad<f64> {
    /// Builds from triplets, as the levels describe
    /// (the crate's one assembler): the compressed rows are the row slices of
    /// the normal form, ordered by fill (a counting sort), and each is
    /// written down the diagonals at its rank.
    ///
    /// # Panics
    /// Panics, before allocating, on a dimension or entry count above
    /// [`INDEX_LIMIT`](crate::layout::INDEX_LIMIT).
    pub fn from_triplets(t: &Triplets<f64>) -> Jad<f64> {
        built(Jad::assembled(t, Cut::Discover))
    }
}

impl<T: Scalar> Jad<T> {
    /// Number of jagged diagonals.
    pub fn ndiags(&self) -> usize {
        self.dptr.len() - 1
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }
}

/// What no level of chain 0 says of JAD: `rowlen` is the fill of each
/// rank.
const ROWLEN: Residue<Jad<f64>> = Residue {
    before: 1,
    assemble: |a| {
        let iperm: Vec<u32> = a.take(field::iperm)?;
        let rows = a.rowptr();
        let rowlen = iperm
            .iter()
            .map(|&r| narrow(rows[r as usize + 1] - rows[r as usize]));
        let rowlen: Vec<u32> = rowlen.collect();
        a.set(field::iperm, iperm);
        a.set(field::rowlen, rowlen);
        Ok(())
    },
    check: |_| Ok(()),
};

stored_layout! {
    Jad, "jad";
    dims: nrows, ncols;
    arrays: iperm: u32, iperm_inv: u32, dptr: u32, colind: u32, values: f64, rowlen: u32;
    chains:
        // Flat: one coupled level over all entries in diagonal order.
        [Level::of(Kind::Jagged { ptr: dptr, crd: colind }).permuted()] -> values,
        // Hier: permuted rows, then the row's diagonals.
        [
            Level::interval(nrows).permuted(),
            Level::of(Kind::Slots { count: rowlen, at: SlotAt::Table(dptr), crd: colind })
                .search()
        ] -> values;
    perm: iperm, iperm_inv;
    residue: ROWLEN;
    /// The JAD index structure (paper §2 / Appendix A.2): permuted rows
    /// `rr`, seen two ways.
    ///
    /// Chain 0 is the flat (diagonal-walking) perspective; chain 1 is the
    /// hierarchical (row-indexed) perspective.
    view: jad_format_view = "(r, c): perm{iperm[rr] |-> r : (<rr, c> -> v ⊕ rr[interval] -> c[sorted] -> v)}";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::check_view_conformance;
    use crate::{SparseMatrix, SparseView};

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
        let rr = a.iperm_inv[3] as usize;
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
