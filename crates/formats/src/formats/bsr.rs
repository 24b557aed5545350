//! Block Sparse Row storage — fixed `r x c` blocks, `r -> c -> v` view.
//!
//! The two-level blocked layout of the NIST Sparse BLAS: the matrix is
//! tiled into aligned `r x c` blocks, and every block containing at
//! least one nonzero is stored *dense* (zeros inside a stored block are
//! structural fill-in). Block rows index their blocks CSR-style
//! (`browptr`/`bcolind`), and block values are laid out row-major within
//! each block, so one logical row of a block is contiguous — the shape
//! the register-tiled kernels and the emitted loops both exploit.

use crate::layout::stored_layout;
use crate::scalar::Scalar;
use crate::view::{FormatView, Order, SearchKind, ViewExpr};
use crate::{SparseMatrix, Triplets};

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
    pub browptr: Vec<usize>,
    /// Block column of each stored block, sorted within each block row.
    pub bcolind: Vec<usize>,
    /// Dense block storage, row-major within each block:
    /// `A[br*r + rr][bcolind[b]*c + cc] = values[(b*r + rr)*c + cc]`.
    pub values: Vec<T>,
}

impl<T: Scalar> Bsr<T> {
    /// Builds from triplets with the given block shape. Every block that
    /// contains at least one entry is stored dense (fill-in).
    ///
    /// # Panics
    /// Panics if `r`/`c` are zero or do not divide the matrix shape.
    pub fn from_triplets(t: &Triplets<T>, r: usize, c: usize) -> Bsr<T> {
        assert!(r > 0 && c > 0, "bsr block shape must be nonzero");
        assert!(
            t.nrows().is_multiple_of(r) && t.ncols().is_multiple_of(c),
            "bsr block shape {r}x{c} must divide the matrix shape {}x{}",
            t.nrows(),
            t.ncols()
        );
        let t = t.normalized();
        let shape = (t.nrows() / r, t.ncols() / c);
        let (browptr, bcolind) =
            crate::blocks::block_pattern(t.entries(), shape, |row| row / r, |col| col / c);
        let mut values = vec![T::ZERO; bcolind.len() * r * c];
        let mut out = Bsr {
            nrows: t.nrows(),
            ncols: t.ncols(),
            r,
            c,
            browptr,
            bcolind,
            values: Vec::new(),
        };
        for &(row, col, v) in t.entries() {
            let Some(i) = out.find(row, col) else {
                unreachable!("entry block is stored by construction");
            };
            values[i] = v;
        }
        out.values = values;
        out
    }

    /// Converts back to triplets (in-block zeros are kept: structural),
    /// one logical row across its block row's blocks at a time:
    /// row-major, so in normal form as pushed.
    pub fn to_triplets(&self) -> Triplets<T> {
        let mut t = Triplets::new(self.nrows, self.ncols);
        for br in 0..self.nrows / self.r {
            for rr in 0..self.r {
                for b in self.browptr[br]..self.browptr[br + 1] {
                    let c0 = self.bcolind[b] * self.c;
                    for cc in 0..self.c {
                        t.push(
                            br * self.r + rr,
                            c0 + cc,
                            self.values[(b * self.r + rr) * self.c + cc],
                        );
                    }
                }
            }
        }
        t
    }

    /// Checks the structural invariants of an *untrusted* BSR instance:
    /// block shape divides the matrix shape, `browptr` is monotone from 0
    /// to the block count, block columns are in range and strictly
    /// increasing per block row, and storage covers every stored block.
    pub fn validate(&self) -> Result<(), crate::FormatError> {
        let fail = |reason: String| Err(crate::convert::invalid("bsr", reason));
        if self.r == 0 || self.c == 0 {
            return fail(format!("zero block shape {}x{}", self.r, self.c));
        }
        if !self.nrows.is_multiple_of(self.r) || !self.ncols.is_multiple_of(self.c) {
            return fail(format!(
                "block shape {}x{} does not divide matrix shape {}x{}",
                self.r, self.c, self.nrows, self.ncols
            ));
        }
        let nbr = self.nrows / self.r;
        if self.browptr.len() != nbr + 1 {
            return fail(format!(
                "browptr has {} entries, want nbr + 1 = {}",
                self.browptr.len(),
                nbr + 1
            ));
        }
        if self.browptr[0] != 0 {
            return fail(format!("browptr[0] = {}, want 0", self.browptr[0]));
        }
        if self.browptr[nbr] != self.bcolind.len() {
            return fail(format!(
                "browptr ends at {}, want the block count {}",
                self.browptr[nbr],
                self.bcolind.len()
            ));
        }
        if self.values.len() != self.bcolind.len() * self.r * self.c {
            return fail(format!(
                "values has {} entries, want nblocks * r * c = {}",
                self.values.len(),
                self.bcolind.len() * self.r * self.c
            ));
        }
        let nbc = self.ncols / self.c;
        for br in 0..nbr {
            let (lo, hi) = (self.browptr[br], self.browptr[br + 1]);
            if lo > hi {
                return fail(format!("browptr decreases at block row {br} ({lo} > {hi})"));
            }
            for b in lo..hi {
                if self.bcolind[b] >= nbc {
                    return fail(format!(
                        "block row {br} stores block column {} >= {nbc}",
                        self.bcolind[b]
                    ));
                }
                if b > lo && self.bcolind[b] <= self.bcolind[b - 1] {
                    return fail(format!(
                        "block row {br} block columns not strictly increasing"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Number of stored entries (block cells, including in-block zeros).
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Number of stored blocks.
    pub fn nblocks(&self) -> usize {
        self.bcolind.len()
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

// This text is also the kernel crates' (`Layout::find`): its bytes are
// part of every artifact name, so rustfmt keeps out.
#[rustfmt::skip]
impl<T: Scalar> Bsr<T> {
    /// Storage index of `(row, col)`, if its block is stored.
    // layout-find-begin
    #[inline]
    pub fn find(&self, row: usize, col: usize) -> Option<usize> {
        let (br, rr) = (row.checked_div(self.r)?, row.checked_rem(self.r)?);
        let (bc, cc) = (col.checked_div(self.c)?, col.checked_rem(self.c)?);
        let (lo, hi) = (*self.browptr.get(br)?, *self.browptr.get(br + 1)?);
        let k = self.bcolind.get(lo..hi)?.binary_search(&bc).ok()?;
        Some(((lo + k) * self.r + rr) * self.c + cc)
    }
    // layout-find-end
}

stored_layout! {
    Bsr, "bsr", include_str!("bsr.rs");
    dims: nrows, ncols, r, c;
    arrays: browptr: usize, bcolind: usize, values: f64;
    block: r x c;
    chains: [
        Level::interval(nrows),
        Level::of(Kind::Blocks { ptr: browptr, crd: bcolind, r, c })
            .unchecked()
            .find(Args::ParentKey)
    ] -> values;
    find: find;
    view: |(r, c)| bsr_format_view(r, c);
    from_triplets: |t, (r, c)| Bsr::from_triplets(t, r, c);
}

impl SparseMatrix for Bsr<f64> {
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
            .unwrap_or_else(|| panic!("({r},{c}) is not inside a stored block"));
        self.values[i] = v;
    }
    fn entries(&self) -> Vec<(usize, usize, f64)> {
        let mut out = Vec::with_capacity(self.nnz());
        for br in 0..self.nrows / self.r {
            for b in self.browptr[br]..self.browptr[br + 1] {
                let c0 = self.bcolind[b] * self.c;
                for rr in 0..self.r {
                    for cc in 0..self.c {
                        out.push((
                            br * self.r + rr,
                            c0 + cc,
                            self.values[(b * self.r + rr) * self.c + cc],
                        ));
                    }
                }
            }
        }
        out.sort_by_key(|&(r, c, _)| (r, c));
        out
    }
}

/// The BSR index structure seen *per logical row*: `r -> c -> v`, `r` an
/// interval with direct access, `c` increasing with binary search (block
/// columns are sorted, and columns within a block ascend). The block
/// shape is carried in the view name (`bsr{r}x{c}`) so the emitter can
/// unroll the within-block loop with literal bounds.
pub fn bsr_format_view(r: usize, c: usize) -> FormatView {
    FormatView {
        name: format!("bsr{r}x{c}"),
        dense_attrs: vec!["r".into(), "c".into()],
        expr: ViewExpr::interval(
            "r",
            ViewExpr::level("c", Order::Increasing, SearchKind::Sorted, ViewExpr::Value),
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
