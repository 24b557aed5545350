//! Variable Block Row storage — the NIST Sparse BLAS two-level layout
//! with *runtime* block strips (`val/indx/bindx/rpntr/cpntr/bpntrb/bpntre`).
//!
//! Rows and columns are partitioned into strips (`rpntr`/`cpntr`), and
//! every block-strip intersection containing a nonzero is stored dense
//! (in-block zeros are structural fill-in). Unlike BSR the strip widths
//! vary per block, so block extents are runtime data — the same
//! runtime-bounds shape as SKY's per-row strips, one level up.
//!
//! Deviation from the NIST Fortran convention: blocks are stored
//! **row-major** within each block (`val[indx[b] + rr*w + cc]`), so a
//! logical row's slice of a block is contiguous, matching the emitted
//! loops and the register-tiled kernels.

use crate::assemble::{built, Cut};
use crate::layout::stored_layout;
use crate::scalar::Scalar;
use crate::Triplets;

/// Variable Block Row matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Vbr<T: Scalar = f64> {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Dense block storage, row-major within each block:
    /// `A[rpntr[br] + rr][cpntr[bindx[b]] + cc] = val[indx[b] + rr*w + cc]`
    /// with `w = cpntr[bindx[b]+1] - cpntr[bindx[b]]`.
    pub val: Vec<T>,
    /// Start of each block in `val` (`len == nblocks + 1`).
    pub indx: Vec<u32>,
    /// Block column (index into `cpntr`) of each stored block, sorted
    /// within each block row.
    pub bindx: Vec<u32>,
    /// Row-strip boundaries (`len == nbr + 1`, `rpntr[0] == 0`,
    /// `rpntr[nbr] == nrows`).
    pub rpntr: Vec<u32>,
    /// Column-strip boundaries (`len == nbc + 1`).
    pub cpntr: Vec<u32>,
    /// First block of each block row in `bindx` (`len == nbr`).
    pub bpntrb: Vec<u32>,
    /// One past the last block of each block row (`len == nbr`).
    pub bpntre: Vec<u32>,
    /// Derived: block row of each logical row (`len == nrows`).
    pub rowblk: Vec<u32>,
}

impl Vbr<f64> {
    /// Builds from triplets with the given row/column strips, as the
    /// levels describe (the crate's one assembler). Every block-strip
    /// intersection containing an entry is stored dense.
    ///
    /// # Panics
    /// Panics if `rpntr`/`cpntr` are not strictly-increasing partitions
    /// of `0..=nrows` / `0..=ncols`, before allocating on a dimension or
    /// entry count above [`INDEX_LIMIT`](crate::layout::INDEX_LIMIT),
    /// and before allocating its blocks if their cells exceed it.
    pub fn from_triplets(t: &Triplets<f64>, rpntr: &[usize], cpntr: &[usize]) -> Vbr<f64> {
        built(Vbr::assembled(t, Cut::Strips(rpntr, cpntr)))
    }
}

impl<T: Scalar> Vbr<T> {
    /// Number of stored entries (block cells, including in-block zeros).
    pub fn nnz(&self) -> usize {
        self.val.len()
    }

    /// Number of stored blocks.
    pub fn nblocks(&self) -> usize {
        self.bindx.len()
    }

    /// The stored blocks of block row `br`.
    pub fn blocks(&self, br: usize) -> std::ops::Range<usize> {
        self.bpntrb[br] as usize..self.bpntre[br] as usize
    }

    /// Block `b`: its first column, its width, and where its values
    /// start in `val`.
    pub fn block(&self, b: usize) -> (usize, usize, usize) {
        let bc = self.bindx[b] as usize;
        let (c0, c1) = (self.cpntr[bc] as usize, self.cpntr[bc + 1] as usize);
        (c0, c1 - c0, self.indx[b] as usize)
    }

    /// Fill-in ratio: stored cells / cells that came from actual entries.
    pub fn fill_ratio(&self, source_nnz: usize) -> f64 {
        if source_nnz == 0 {
            return 1.0;
        }
        self.val.len() as f64 / source_nnz as f64
    }

    /// Splits the *logical rows* into at most `nblocks` contiguous spans
    /// of approximately equal stored-cell count, with every boundary
    /// aligned to a row strip (so parallel workers never share a block;
    /// see [`crate::partition::split_ptr_by_cost`]). Deterministic.
    pub fn partition_rows(&self, nblocks: usize) -> Vec<usize> {
        let nbr = self.rpntr.len() - 1;
        let mut ptr = Vec::with_capacity(nbr + 1);
        ptr.push(0u32);
        for br in 0..nbr {
            // Blocks of a block row are contiguous in `val`, so the
            // cumulative cell count through block row `br` is the end of
            // its last block.
            ptr.push(self.indx[self.bpntre[br] as usize]);
        }
        crate::partition::split_ptr_by_cost(&ptr, nblocks)
            .into_iter()
            .map(|b| self.rpntr[b] as usize)
            .collect()
    }
}

stored_layout! {
    Vbr, "vbr";
    dims: nrows, ncols;
    arrays: val: f64, indx: u32, bindx: u32, rpntr: u32, cpntr: u32, bpntrb: u32, bpntre: u32,
        rowblk: u32;
    bands: partition_rows;
    chains: [
        Level::interval(nrows),
        Level::of(Kind::Strips(Strips {
            strip_of: rowblk,
            start: rpntr,
            begin: bpntrb,
            end: bpntre,
            crd: bindx,
            cuts: cpntr,
            base: indx,
        }))
        .unchecked().search()
    ] -> val;
    /// The VBR index structure seen *per logical row* (block columns are
    /// sorted and columns within a block ascend). Block extents are
    /// run-time data (`rpntr`/`cpntr`), so nothing is encoded in the name.
    view: vbr_format_view = "(r, c): r[interval] -> c[sorted] -> v";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::check_view_conformance;
    use crate::{SparseMatrix, SparseView};

    fn sample() -> Triplets<f64> {
        // 5x5 with strips {0..2, 2..5} x {0..2, 2..4, 4..5}: blocks of
        // varying shapes 2x2, 2x1, 3x2, 3x1.
        Triplets::from_entries(
            5,
            5,
            &[
                (0, 0, 1.0),
                (1, 1, 2.0),
                (0, 4, 3.0),
                (2, 2, 4.0),
                (3, 3, 5.0),
                (4, 4, 6.0),
                (2, 3, 7.0),
            ],
        )
    }

    fn strips() -> (Vec<usize>, Vec<usize>) {
        (vec![0, 2, 5], vec![0, 2, 4, 5])
    }

    #[test]
    fn layout() {
        let (rp, cp) = strips();
        let a = Vbr::from_triplets(&sample(), &rp, &cp);
        // Block row 0: blocks at block cols 0 (2x2) and 2 (2x1).
        // Block row 1: blocks at block cols 1 (3x2) and 2 (3x1).
        assert_eq!(a.bindx, vec![0, 2, 1, 2]);
        assert_eq!(a.bpntrb, vec![0, 2]);
        assert_eq!(a.bpntre, vec![2, 4]);
        assert_eq!(a.indx, vec![0, 4, 6, 12, 15]);
        assert_eq!(a.nnz(), 15);
        assert_eq!(a.rowblk, vec![0, 0, 1, 1, 1]);
        let r = a.validate();
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(a.fill_ratio(7), 15.0 / 7.0);
    }

    #[test]
    fn random_access() {
        let (rp, cp) = strips();
        let a = Vbr::from_triplets(&sample(), &rp, &cp);
        assert_eq!(a.get(0, 4), 3.0);
        assert_eq!(a.get(1, 4), 0.0, "in-block structural zero");
        assert!(a.find(1, 4).is_some());
        assert_eq!(a.get(2, 3), 7.0);
        assert_eq!(a.get(2, 0), 0.0);
        assert!(a.find(2, 0).is_none(), "block (1,0) not stored");
    }

    #[test]
    fn roundtrip() {
        let (rp, cp) = strips();
        let a = Vbr::from_triplets(&sample(), &rp, &cp);
        let b = Vbr::from_triplets(&a.to_triplets(), &rp, &cp);
        assert_eq!(a, b);
    }

    #[test]
    fn view_conformance() {
        let (rp, cp) = strips();
        let r = check_view_conformance(&Vbr::from_triplets(&sample(), &rp, &cp), 0);
        assert!(r.is_ok(), "{r:?}");
        // Degenerate 1x1 strips == scalar CSR-like storage.
        let rp1: Vec<usize> = (0..=5).collect();
        let r = check_view_conformance(&Vbr::from_triplets(&sample(), &rp1, &rp1), 0);
        assert!(r.is_ok(), "{r:?}");
    }

    #[test]
    fn column_cursor_sorted() {
        let (rp, cp) = strips();
        let a = Vbr::from_triplets(&sample(), &rp, &cp);
        let mut cur = a.cursor(0, 1, 0, false);
        let mut cols = Vec::new();
        while a.advance(&mut cur) {
            cols.push(cur.keys[0]);
        }
        assert_eq!(cols, vec![0, 1, 4]);
    }

    #[test]
    #[should_panic(expected = "partition")]
    fn bad_strips_rejected() {
        let _ = Vbr::from_triplets(&sample(), &[0, 2, 4], &[0, 2, 4, 5]);
    }

    #[test]
    fn validate_rejects_corrupt() {
        let (rp, cp) = strips();
        let mut a = Vbr::from_triplets(&sample(), &rp, &cp);
        a.bindx[1] = 9;
        assert!(a.validate().is_err());
        let mut b = Vbr::from_triplets(&sample(), &rp, &cp);
        b.indx[1] = 3;
        assert!(b.validate().is_err());
        let mut c = Vbr::from_triplets(&sample(), &rp, &cp);
        c.rowblk[0] = 1;
        assert!(c.validate().is_err());
    }
}
