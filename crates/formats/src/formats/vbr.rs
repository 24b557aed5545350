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

use crate::layout::stored_layout;
use crate::scalar::Scalar;
use crate::view::{FormatView, Order, SearchKind, ViewExpr};
use crate::{SparseMatrix, Triplets};

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
    pub indx: Vec<usize>,
    /// Block column (index into `cpntr`) of each stored block, sorted
    /// within each block row.
    pub bindx: Vec<usize>,
    /// Row-strip boundaries (`len == nbr + 1`, `rpntr[0] == 0`,
    /// `rpntr[nbr] == nrows`).
    pub rpntr: Vec<usize>,
    /// Column-strip boundaries (`len == nbc + 1`).
    pub cpntr: Vec<usize>,
    /// First block of each block row in `bindx` (`len == nbr`).
    pub bpntrb: Vec<usize>,
    /// One past the last block of each block row (`len == nbr`).
    pub bpntre: Vec<usize>,
    /// Derived: block row of each logical row (`len == nrows`).
    pub rowblk: Vec<usize>,
}

impl<T: Scalar> Vbr<T> {
    /// Builds from triplets with the given row/column strips. Every
    /// block-strip intersection containing an entry is stored dense.
    ///
    /// # Panics
    /// Panics if `rpntr`/`cpntr` are not strictly-increasing partitions
    /// of `0..=nrows` / `0..=ncols`.
    pub fn from_triplets(t: &Triplets<T>, rpntr: &[usize], cpntr: &[usize]) -> Vbr<T> {
        let check = |p: &[usize], n: usize, what: &str| {
            assert!(
                p.len() >= 2
                    && p[0] == 0
                    && p[p.len() - 1] == n
                    && p.windows(2).all(|w| w[0] < w[1]),
                "{what} must be a strictly-increasing partition of 0..={n}, got {p:?}"
            );
        };
        check(rpntr, t.nrows(), "rpntr");
        check(cpntr, t.ncols(), "cpntr");
        let t = t.normalized();
        let nbr = rpntr.len() - 1;
        let strip_map = |p: &[usize], n: usize| {
            let mut m = vec![0usize; n];
            for (b, w) in p.windows(2).enumerate() {
                m[w[0]..w[1]].fill(b);
            }
            m
        };
        let rowblk = strip_map(rpntr, t.nrows());
        let colblk = strip_map(cpntr, t.ncols());
        let (bptr, bindx) = crate::blocks::block_pattern(
            t.entries(),
            (nbr, cpntr.len() - 1),
            |row| rowblk[row],
            |col| colblk[col],
        );
        let mut indx = Vec::with_capacity(bindx.len() + 1);
        let mut next = 0usize;
        indx.push(next);
        for br in 0..nbr {
            let h = rpntr[br + 1] - rpntr[br];
            for &bc in &bindx[bptr[br]..bptr[br + 1]] {
                next += h * (cpntr[bc + 1] - cpntr[bc]);
                indx.push(next);
            }
        }
        let (bpntrb, bpntre) = (bptr[..nbr].to_vec(), bptr[1..].to_vec());
        let mut out = Vbr {
            nrows: t.nrows(),
            ncols: t.ncols(),
            val: Vec::new(),
            indx,
            bindx,
            rpntr: rpntr.to_vec(),
            cpntr: cpntr.to_vec(),
            bpntrb,
            bpntre,
            rowblk,
        };
        let mut val = vec![T::ZERO; next];
        for &(row, col, v) in t.entries() {
            let Some(i) = out.find(row, col) else {
                unreachable!("entry block is stored by construction");
            };
            val[i] = v;
        }
        out.val = val;
        out
    }

    /// Converts back to triplets (in-block zeros are kept: structural),
    /// one logical row across its block row's blocks at a time:
    /// row-major, so in normal form as pushed.
    pub fn to_triplets(&self) -> Triplets<T> {
        let mut t = Triplets::new(self.nrows, self.ncols);
        for br in 0..self.rpntr.len() - 1 {
            for rr in 0..self.rpntr[br + 1] - self.rpntr[br] {
                for b in self.bpntrb[br]..self.bpntre[br] {
                    let bc = self.bindx[b];
                    let (cj0, w) = (self.cpntr[bc], self.cpntr[bc + 1] - self.cpntr[bc]);
                    for cc in 0..w {
                        t.push(
                            self.rpntr[br] + rr,
                            cj0 + cc,
                            self.val[self.indx[b] + rr * w + cc],
                        );
                    }
                }
            }
        }
        t
    }

    /// Checks the structural invariants of an *untrusted* VBR instance:
    /// `rpntr`/`cpntr` are partitions, the block-row pointer pairs are
    /// in range and monotone, block columns are in range and strictly
    /// increasing per block row, `indx` matches the block areas exactly,
    /// and `rowblk` agrees with `rpntr`.
    pub fn validate(&self) -> Result<(), crate::FormatError> {
        let fail = |reason: String| Err(crate::convert::invalid("vbr", reason));
        let part_ok = |p: &[usize], n: usize| {
            p.len() >= 2 && p[0] == 0 && p[p.len() - 1] == n && p.windows(2).all(|w| w[0] < w[1])
        };
        if !part_ok(&self.rpntr, self.nrows) {
            return fail(format!(
                "rpntr {:?} is not a partition of 0..={}",
                self.rpntr, self.nrows
            ));
        }
        if !part_ok(&self.cpntr, self.ncols) {
            return fail(format!(
                "cpntr {:?} is not a partition of 0..={}",
                self.cpntr, self.ncols
            ));
        }
        let nbr = self.rpntr.len() - 1;
        let nbc = self.cpntr.len() - 1;
        if self.bpntrb.len() != nbr || self.bpntre.len() != nbr {
            return fail(format!(
                "bpntrb/bpntre have {}/{} entries, want nbr = {nbr}",
                self.bpntrb.len(),
                self.bpntre.len()
            ));
        }
        if self.indx.len() != self.bindx.len() + 1 || self.indx[0] != 0 {
            return fail(format!(
                "indx has {} entries starting at {}, want nblocks + 1 = {} starting at 0",
                self.indx.len(),
                self.indx.first().copied().unwrap_or(1),
                self.bindx.len() + 1
            ));
        }
        if self.indx[self.indx.len() - 1] != self.val.len() {
            return fail(format!(
                "indx ends at {}, want the storage length {}",
                self.indx[self.indx.len() - 1],
                self.val.len()
            ));
        }
        if self.rowblk.len() != self.nrows {
            return fail(format!(
                "rowblk has {} entries, want nrows = {}",
                self.rowblk.len(),
                self.nrows
            ));
        }
        let mut covered = 0usize;
        for br in 0..nbr {
            let (lo, hi) = (self.bpntrb[br], self.bpntre[br]);
            if lo > hi || hi > self.bindx.len() || lo != covered {
                return fail(format!(
                    "block row {br} pointers {lo}..{hi} are not a contiguous monotone cover"
                ));
            }
            covered = hi;
            let h = self.rpntr[br + 1] - self.rpntr[br];
            for row in self.rpntr[br]..self.rpntr[br + 1] {
                if self.rowblk[row] != br {
                    return fail(format!("rowblk[{row}] = {}, want {br}", self.rowblk[row]));
                }
            }
            for b in lo..hi {
                let bc = self.bindx[b];
                if bc >= nbc {
                    return fail(format!("block row {br} stores block column {bc} >= {nbc}"));
                }
                if b > lo && bc <= self.bindx[b - 1] {
                    return fail(format!(
                        "block row {br} block columns not strictly increasing"
                    ));
                }
                let area = h * (self.cpntr[bc + 1] - self.cpntr[bc]);
                if self.indx[b + 1] != self.indx[b] + area {
                    return fail(format!(
                        "block {b} spans indx {}..{}, want area {area}",
                        self.indx[b],
                        self.indx[b + 1]
                    ));
                }
            }
        }
        if covered != self.bindx.len() {
            return fail(format!(
                "block rows cover {covered} blocks, want {}",
                self.bindx.len()
            ));
        }
        Ok(())
    }

    /// Number of stored entries (block cells, including in-block zeros).
    pub fn nnz(&self) -> usize {
        self.val.len()
    }

    /// Number of stored blocks.
    pub fn nblocks(&self) -> usize {
        self.bindx.len()
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
        ptr.push(0usize);
        for br in 0..nbr {
            // Blocks of a block row are contiguous in `val`, so the
            // cumulative cell count through block row `br` is the end of
            // its last block.
            ptr.push(self.indx[self.bpntre[br]]);
        }
        crate::partition::split_ptr_by_cost(&ptr, nblocks)
            .into_iter()
            .map(|b| self.rpntr[b])
            .collect()
    }
}

// This text is also the kernel crates' (`Layout::find`): its bytes are
// part of every artifact name, so rustfmt keeps out.
#[rustfmt::skip]
impl<T: Scalar> Vbr<T> {
    /// Storage index of `(row, col)`, if its block is stored.
    // layout-find-begin
    #[inline]
    pub fn find(&self, row: usize, col: usize) -> Option<usize> {
        let br = *self.rowblk.get(row)?;
        let rr = row - *self.rpntr.get(br)?;
        for b in *self.bpntrb.get(br)?..*self.bpntre.get(br)? {
            let bc = *self.bindx.get(b)?;
            let (c0, c1) = (*self.cpntr.get(bc)?, *self.cpntr.get(bc + 1)?);
            if col < c0 {
                return None;
            }
            if col < c1 {
                return Some(*self.indx.get(b)? + rr * (c1 - c0) + (col - c0));
            }
        }
        None
    }
    // layout-find-end
}

stored_layout! {
    Vbr, "vbr", include_str!("vbr.rs");
    dims: nrows, ncols;
    arrays: val: f64, indx: usize, bindx: usize, rpntr: usize, cpntr: usize, bpntrb: usize,
        bpntre: usize, rowblk: usize;
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
        .unchecked()
        .find(Args::ParentKey)
    ] -> val;
    find: find;
    view: |_| vbr_format_view();
    from_triplets: |t, (r, c)| {
        let strips = |n: usize, size: usize| crate::partition::split_even(n, n.div_ceil(size));
        Vbr::from_triplets(t, &strips(t.nrows(), r), &strips(t.ncols(), c))
    };
}

impl SparseMatrix for Vbr<f64> {
    fn nrows(&self) -> usize {
        self.nrows
    }
    fn ncols(&self) -> usize {
        self.ncols
    }
    fn nnz(&self) -> usize {
        self.val.len()
    }
    fn get(&self, r: usize, c: usize) -> f64 {
        self.find(r, c).map_or(0.0, |i| self.val[i])
    }
    fn set(&mut self, r: usize, c: usize, v: f64) {
        let i = self
            .find(r, c)
            .unwrap_or_else(|| panic!("({r},{c}) is not inside a stored block"));
        self.val[i] = v;
    }
    fn entries(&self) -> Vec<(usize, usize, f64)> {
        let mut out = Vec::with_capacity(self.nnz());
        for br in 0..self.rpntr.len() - 1 {
            let h = self.rpntr[br + 1] - self.rpntr[br];
            for b in self.bpntrb[br]..self.bpntre[br] {
                let bc = self.bindx[b];
                let (cj0, w) = (self.cpntr[bc], self.cpntr[bc + 1] - self.cpntr[bc]);
                for rr in 0..h {
                    for cc in 0..w {
                        out.push((
                            self.rpntr[br] + rr,
                            cj0 + cc,
                            self.val[self.indx[b] + rr * w + cc],
                        ));
                    }
                }
            }
        }
        out.sort_by_key(|&(r, c, _)| (r, c));
        out
    }
}

/// The VBR index structure seen *per logical row*: `r -> c -> v`, `r` an
/// interval with direct access, `c` increasing with search (block
/// columns are sorted and columns within a block ascend). Block extents
/// are runtime data (`rpntr`/`cpntr`), so nothing is encoded in the name.
pub fn vbr_format_view() -> FormatView {
    FormatView {
        name: "vbr".into(),
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
