//! Block Sparse Row storage — fixed `r x c` blocks, `r -> c -> v` view.
//!
//! The two-level blocked layout of the NIST Sparse BLAS: the matrix is
//! tiled into aligned `r x c` blocks, and every block containing at
//! least one nonzero is stored *dense* (zeros inside a stored block are
//! structural fill-in). Block rows index their blocks CSR-style
//! (`browptr`/`bcolind`), and block values are laid out row-major within
//! each block, so one logical row of a block is contiguous — the shape
//! the register-tiled kernels and the emitted loops both exploit.

use crate::assemble::{built, Cut};
use crate::layout::stored_layout;
use crate::scalar::Scalar;
use crate::Triplets;

/// Block Sparse Row matrix with fixed `r x c` blocks.
#[derive(Clone, Debug, PartialEq)]
pub struct Bsr<T: Scalar = f64> {
    /// Number of rows (`nrows % r == 0`).
    pub nrows: usize,
    /// Number of columns (`ncols % c == 0`).
    pub ncols: usize,
    /// Block height.
    pub r: usize,
    /// Block width.
    pub c: usize,
    /// `browptr[br]..browptr[br+1]` indexes the blocks of block row `br`
    /// (`len == nrows / r + 1`).
    pub browptr: Vec<u32>,
    /// Block column of each stored block, sorted within each block row.
    pub bcolind: Vec<u32>,
    /// Dense block storage, row-major within each block:
    /// `A[br*r + rr][bcolind[b]*c + cc] = values[(b*r + rr)*c + cc]`.
    pub values: Vec<T>,
}

impl Bsr<f64> {
    /// Builds from triplets with the given block shape, as the levels
    /// describe (the crate's one assembler). Every block that contains at least
    /// one entry is stored dense (fill-in).
    ///
    /// # Panics
    /// Panics if `r`/`c` are zero or do not divide the matrix shape, and
    /// before allocating on a dimension or entry count above
    /// [`INDEX_LIMIT`](crate::layout::INDEX_LIMIT).
    pub fn from_triplets(t: &Triplets<f64>, r: usize, c: usize) -> Bsr<f64> {
        built(Bsr::assembled(t, Cut::Block((r, c))))
    }
}

impl<T: Scalar> Bsr<T> {
    /// Number of stored entries (block cells, including in-block zeros).
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Number of stored blocks.
    pub fn nblocks(&self) -> usize {
        self.bcolind.len()
    }

    /// The stored blocks of block row `br`.
    pub fn blocks(&self, br: usize) -> std::ops::Range<usize> {
        self.browptr[br] as usize..self.browptr[br + 1] as usize
    }

    /// Fill-in ratio: stored cells / cells that came from actual entries.
    /// 1.0 means every stored block is fully dense.
    pub fn fill_ratio(&self, source_nnz: usize) -> f64 {
        if source_nnz == 0 {
            return 1.0;
        }
        self.values.len() as f64 / source_nnz as f64
    }

    /// Splits the *logical rows* into at most `nblocks` contiguous spans
    /// of approximately equal stored-entry count, with every boundary
    /// aligned to a block row (so parallel workers never share a block;
    /// see [`crate::partition::split_ptr_by_cost`]). Deterministic.
    pub fn partition_rows(&self, nblocks: usize) -> Vec<usize> {
        crate::partition::split_ptr_by_cost(&self.browptr, nblocks)
            .into_iter()
            .map(|b| b * self.r)
            .collect()
    }
}

stored_layout! {
    Bsr, "bsr";
    dims: nrows, ncols, r, c;
    arrays: browptr: u32, bcolind: u32, values: f64;
    block: r x c;
    bands: partition_rows;
    chains: [
        Level::interval(nrows),
        Level::of(Kind::Blocks { ptr: browptr, crd: bcolind, r, c }).unchecked().search()
    ] -> values;
    /// The BSR index structure seen *per logical row* (block columns are
    /// sorted, and columns within a block ascend). The block shape is
    /// carried in the view name (`bsr{r}x{c}`), not in the text, so the
    /// emitter can unroll the within-block loop with literal bounds.
    view: bsr_format_view = "(r, c): r[interval] -> c[sorted] -> v";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::check_view_conformance;
    use crate::{SparseMatrix, SparseView};

    fn sample() -> Triplets<f64> {
        // 4x4 with 2x2 blocks at (0,0), (0,1) and (1,1); block (0,1) is
        // half-filled → fill-in.
        Triplets::from_entries(
            4,
            4,
            &[
                (0, 0, 1.0),
                (0, 1, 2.0),
                (1, 0, 3.0),
                (1, 1, 4.0),
                (0, 2, 5.0),
                (2, 2, 6.0),
                (3, 3, 7.0),
            ],
        )
    }

    #[test]
    fn layout() {
        let a = Bsr::from_triplets(&sample(), 2, 2);
        assert_eq!(a.browptr, vec![0, 2, 3]);
        assert_eq!(a.bcolind, vec![0, 1, 1]);
        assert_eq!(a.nblocks(), 3);
        assert_eq!(a.nnz(), 12);
        // Block (0,0) row-major.
        assert_eq!(&a.values[0..4], &[1.0, 2.0, 3.0, 4.0]);
        // Block (0,1): only (0,2) set, rest structural zeros.
        assert_eq!(&a.values[4..8], &[5.0, 0.0, 0.0, 0.0]);
        assert!(a.find(1, 3).is_some(), "in-block zero is structural");
        assert_eq!(a.fill_ratio(7), 12.0 / 7.0);
        let r = a.validate();
        assert!(r.is_ok(), "{r:?}");
    }

    #[test]
    fn random_access() {
        let a = Bsr::from_triplets(&sample(), 2, 2);
        assert_eq!(a.get(0, 2), 5.0);
        assert_eq!(a.get(1, 3), 0.0);
        assert_eq!(a.get(3, 3), 7.0);
        assert_eq!(a.get(2, 0), 0.0);
        assert!(a.find(2, 0).is_none(), "block (1,0) not stored");
    }

    #[test]
    fn roundtrip() {
        let a = Bsr::from_triplets(&sample(), 2, 2);
        let b = Bsr::from_triplets(&a.to_triplets(), 2, 2);
        assert_eq!(a, b);
    }

    #[test]
    fn view_conformance() {
        for (r, c) in [(2, 2), (4, 2), (1, 1)] {
            let res = check_view_conformance(&Bsr::from_triplets(&sample(), r, c), 0);
            assert!(res.is_ok(), "{r}x{c}: {res:?}");
        }
    }

    #[test]
    fn column_cursor_sorted() {
        let a = Bsr::from_triplets(&sample(), 2, 2);
        let mut cur = a.cursor(0, 1, 0, false);
        let mut cols = Vec::new();
        while a.advance(&mut cur) {
            cols.push(cur.keys[0]);
        }
        assert_eq!(cols, vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn indivisible_shape_rejected() {
        let t = Triplets::from_entries(3, 3, &[(0, 0, 1.0)]);
        let _ = Bsr::from_triplets(&t, 2, 2);
    }

    #[test]
    fn validate_rejects_corrupt() {
        let mut a = Bsr::from_triplets(&sample(), 2, 2);
        a.bcolind[1] = 9;
        assert!(a.validate().is_err());
        let mut b = Bsr::from_triplets(&sample(), 2, 2);
        b.browptr[1] = 5;
        assert!(b.validate().is_err());
    }

    #[test]
    fn view_name_carries_block_shape() {
        let a = Bsr::from_triplets(&sample(), 2, 2);
        assert_eq!(a.format_view().name, "bsr2x2");
        let b = Bsr::from_triplets(&sample(), 4, 4);
        assert_eq!(b.format_view().name, "bsr4x4");
    }
}
