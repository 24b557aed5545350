//! Block-structure discovery: find the dominant block size (for BSR) or
//! the natural block strips (for VBR) of a [`Triplets`] instance, with a
//! fill-in ratio report.
//!
//! Blocked storage trades index overhead for dense fill-in: an `r x c`
//! blocking stores `touched-blocks * r * c` cells to cover `nnz` actual
//! entries, so the useful figure of merit is the *fill* `nnz / cells`
//! (1.0 = every stored block fully dense). Discovery scores every
//! candidate block shape and keeps the largest one whose fill clears a
//! threshold — the shape a FEM assembly with that element size would
//! produce scores exactly 1.0.

use crate::scalar::Scalar;
use crate::Triplets;

/// Fill report for one candidate block shape.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockReport {
    /// Block height.
    pub r: usize,
    /// Block width.
    pub c: usize,
    /// Stored cells under this blocking (`touched blocks * r * c`).
    pub stored_cells: usize,
    /// Actual entry count of the source matrix.
    pub source_nnz: usize,
    /// `source_nnz / stored_cells` — 1.0 means perfectly blocked.
    pub fill: f64,
}

/// The stored blocks of a blocked layout, CSR-style: block row `br`
/// holds block columns `bcol[ptr[br]..ptr[br + 1]]`, increasing. `entries`
/// are in normal form and `rowblk` is monotone, so the block rows arrive
/// in order, and `seen[bc] == br` says block `(br, bc)` is listed.
pub(crate) fn block_pattern<T>(
    entries: &[(usize, usize, T)],
    (nbr, nbc): (usize, usize),
    rowblk: impl Fn(usize) -> usize,
    colblk: impl Fn(usize) -> usize,
) -> (Vec<usize>, Vec<usize>) {
    let mut ptr = vec![0usize; nbr + 1];
    let mut bcol = Vec::new();
    let mut seen = vec![usize::MAX; nbc];
    for &(row, col, _) in entries {
        let (br, bc) = (rowblk(row), colblk(col));
        if seen[bc] != br {
            seen[bc] = br;
            bcol.push(bc);
            ptr[br + 1] += 1;
        }
    }
    for br in 0..nbr {
        ptr[br + 1] += ptr[br];
        bcol[ptr[br]..ptr[br + 1]].sort_unstable();
    }
    (ptr, bcol)
}

/// Number of `r x c` blocks the normal-form `entries` touch; `seen` is
/// [`block_pattern`]'s, all `usize::MAX` and at least `ncols / c` long.
fn count_blocks<T>(entries: &[(usize, usize, T)], r: usize, c: usize, seen: &mut [usize]) -> usize {
    let mut blocks = 0;
    for &(row, col, _) in entries {
        let (br, bc) = (row / r, col / c);
        if seen[bc] != br {
            seen[bc] = br;
            blocks += 1;
        }
    }
    seen.fill(usize::MAX);
    blocks
}

fn report(source_nnz: usize, blocks: usize, r: usize, c: usize) -> BlockReport {
    let stored_cells = blocks * r * c;
    BlockReport {
        r,
        c,
        stored_cells,
        source_nnz,
        fill: if stored_cells == 0 {
            1.0
        } else {
            source_nnz as f64 / stored_cells as f64
        },
    }
}

/// Computes the fill report for one block shape.
///
/// # Panics
/// Panics if `r`/`c` are zero or do not divide the matrix shape.
pub fn block_fill<T: Scalar>(t: &Triplets<T>, r: usize, c: usize) -> BlockReport {
    assert!(r > 0 && c > 0, "block shape must be nonzero");
    assert!(
        t.nrows().is_multiple_of(r) && t.ncols().is_multiple_of(c),
        "block shape {r}x{c} must divide the matrix shape {}x{}",
        t.nrows(),
        t.ncols()
    );
    let t = t.normalized();
    let mut seen = vec![usize::MAX; t.ncols() / c];
    report(t.nnz(), count_blocks(t.entries(), r, c, &mut seen), r, c)
}

/// Finds the dominant block size: the largest-area `r x c` (with
/// `r, c <= max`, both dividing the matrix shape) whose fill is at least
/// `min_fill`. Ties on area prefer the squarer (then taller) shape. The
/// `1 x 1` blocking has fill 1.0 by construction, so a result always
/// exists when `min_fill <= 1.0`.
pub fn discover_block_size<T: Scalar>(t: &Triplets<T>, max: usize, min_fill: f64) -> BlockReport {
    let pushed = t.nnz();
    let t = t.normalized();
    let mut seen = vec![usize::MAX; t.ncols()];
    let mut best: Option<BlockReport> = None;
    // Shapes that fell short. A block of a multiple of such a shape is
    // made of blocks of that shape, so it stores no fewer cells and
    // falls short too: most shapes of a scattered matrix are never
    // counted.
    let mut short: Vec<(usize, usize)> = Vec::new();
    for r in 1..=max.min(t.nrows().max(1)) {
        if !t.nrows().is_multiple_of(r) {
            continue;
        }
        for c in 1..=max.min(t.ncols().max(1)) {
            let of_short = |&(r0, c0): &(usize, usize)| r % r0 == 0 && c % c0 == 0;
            if !t.ncols().is_multiple_of(c) || short.iter().any(of_short) {
                continue;
            }
            let rep = report(t.nnz(), count_blocks(t.entries(), r, c, &mut seen), r, c);
            if rep.fill + 1e-12 < min_fill {
                short.push((r, c));
                continue;
            }
            let area = |b: &BlockReport| b.r * b.c;
            // Squarer shapes win area ties: minimize |r - c|.
            let tie = |b: &BlockReport| (usize::MAX - b.r.abs_diff(b.c), b.r);
            match &best {
                Some(b) if (area(b), tie(b)) >= (area(&rep), tie(&rep)) => {}
                _ => best = Some(rep),
            }
        }
    }
    best.unwrap_or(BlockReport {
        r: 1,
        c: 1,
        stored_cells: pushed,
        source_nnz: pushed,
        fill: 1.0,
    })
}

/// Finds the natural VBR strips of a matrix: maximal runs of consecutive
/// rows with identical column support form the row strips, and likewise
/// (on row support) for the column strips — the classic CSR→VBR
/// agglomeration. Returns `(rpntr, cpntr)` partitions; on a matrix
/// assembled from dense variable-size blocks this recovers the planted
/// strips exactly.
pub fn discover_strips<T: Scalar>(t: &Triplets<T>) -> (Vec<usize>, Vec<usize>) {
    // A row's support is the columns of its slice of the normal form;
    // the column supports are the row supports of the transpose.
    let strips = |t: &Triplets<T>| {
        let (n, rowptr) = (t.nrows(), t.rowptr());
        let support = |r: usize| t.entries()[rowptr[r]..rowptr[r + 1]].iter().map(|e| e.1);
        let mut p = vec![0usize];
        p.extend((1..n).filter(|&i| !support(i).eq(support(i - 1))));
        // An empty dimension still gets a 2-entry partition shape;
        // callers with 0-sized matrices should not build VBR.
        p.push(n);
        p
    };
    let t = t.normalized();
    (strips(&t), strips(&t.transposed()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn fill_report_counts_cells() {
        let t = Triplets::from_entries(4, 4, &[(0, 0, 1.0), (1, 1, 2.0), (2, 2, 3.0)]);
        let rep = block_fill(&t, 2, 2);
        // Entries touch blocks (0,0) and (1,1) → 8 stored cells.
        assert_eq!(rep.stored_cells, 8);
        assert_eq!(rep.source_nnz, 3);
        assert!((rep.fill - 3.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn recovers_planted_block_size() {
        for &bs in &[2usize, 3, 4] {
            let t = gen::fem_blocked(8 * bs, bs, 2, 1.0, 7);
            let rep = discover_block_size(&t, 8, 0.9);
            assert_eq!((rep.r, rep.c), (bs, bs), "planted {bs}x{bs}");
            assert!((rep.fill - 1.0).abs() < 1e-12, "dense blocks fill 1.0");
        }
    }

    #[test]
    fn scattered_matrix_falls_back_to_1x1() {
        let t = gen::random_sparse(24, 24, 40, 3);
        let rep = discover_block_size(&t, 8, 0.9);
        assert_eq!((rep.r, rep.c), (1, 1));
        assert!((rep.fill - 1.0).abs() < 1e-12);
    }

    #[test]
    fn recovers_planted_strips() {
        // Two dense blocks: rows {0,1} x cols {0,1,2}, rows {2,3,4} x
        // cols {3,4}.
        let mut t = Triplets::new(5, 5);
        for r in 0..2 {
            for c in 0..3 {
                t.push(r, c, 1.0 + (r * 3 + c) as f64);
            }
        }
        for r in 2..5 {
            for c in 3..5 {
                t.push(r, c, 10.0 + (r * 2 + c) as f64);
            }
        }
        let (rp, cp) = discover_strips(&t);
        assert_eq!(rp, vec![0, 2, 5]);
        assert_eq!(cp, vec![0, 3, 5]);
    }

    #[test]
    fn strip_discovery_feeds_vbr() {
        let t = gen::fem_blocked(12, 3, 2, 1.0, 11);
        let (rp, cp) = discover_strips(&t);
        let v = crate::Vbr::from_triplets(&t, &rp, &cp);
        let r = v.validate();
        assert!(r.is_ok(), "{r:?}");
        assert_eq!(v.to_triplets().entries(), t.normalized().entries());
    }
}
