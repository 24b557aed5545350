//! Work-balanced chunk boundaries for each format's parallel axis.
//!
//! CSR and CSC carry their cumulative-cost arrays natively (`rowptr`,
//! `colptr`); this module derives the equivalent prefix arrays for the
//! formats that don't — per-row fill for ELL, per-permuted-row fill for
//! JAD, and per-row / per-column stored-diagonal coverage for DIA — and
//! feeds them all through
//! [`bernoulli_formats::partition::split_ptr_by_cost`].

pub use bernoulli_formats::partition::split_even;
use bernoulli_formats::partition::split_ptr_by_cost;
use bernoulli_formats::{Dia, Ell, Jad, Scalar};

/// nnz-balanced row-block boundaries for an ELL matrix (cost of row `r`
/// is its fill `rowlen[r]`, not the padded `width`).
pub fn ell_row_blocks<T: Scalar>(a: &Ell<T>, nblocks: usize) -> Vec<usize> {
    split_ptr_by_cost(&prefix(a.rowlen.iter().copied()), nblocks)
}

/// nnz-balanced *permuted*-row-block boundaries for a JAD matrix; block
/// `k` spans permuted rows `b[k]..b[k+1]`, i.e. original rows
/// `iperm[b[k]..b[k+1]]`.
pub fn jad_row_blocks<T: Scalar>(a: &Jad<T>, nblocks: usize) -> Vec<usize> {
    split_ptr_by_cost(&prefix(a.rowlen.iter().copied()), nblocks)
}

/// Balanced row-block boundaries for a DIA matrix; the cost of row `r`
/// is the number of stored diagonals covering it.
pub fn dia_row_blocks<T: Scalar>(a: &Dia<T>, nblocks: usize) -> Vec<usize> {
    split_ptr_by_cost(&dia_coverage(a.nrows, a, true), nblocks)
}

/// Balanced column-block boundaries for a DIA matrix; the cost of
/// column `c` is the number of stored diagonals covering it.
pub fn dia_col_blocks<T: Scalar>(a: &Dia<T>, nblocks: usize) -> Vec<usize> {
    split_ptr_by_cost(&dia_coverage(a.ncols, a, false), nblocks)
}

/// Cumulative count of stored diagonal elements per row (`by_row`) or
/// per column, computed with a difference array in
/// O(n + ndiags) — diagonal `k` covers rows `d+lo[k]..d+hi[k]` and
/// columns `lo[k]..hi[k]`.
fn dia_coverage<T: Scalar>(n: usize, a: &Dia<T>, by_row: bool) -> Vec<u32> {
    let mut diff = vec![0i64; n + 1];
    for k in 0..a.diags.len() {
        let (start, end) = if by_row {
            (a.diags[k] + a.lo[k], a.diags[k] + a.hi[k])
        } else {
            (a.lo[k], a.hi[k])
        };
        diff[start as usize] += 1;
        diff[end as usize] -= 1;
    }
    let mut ptr = Vec::with_capacity(n + 1);
    ptr.push(0u32);
    let mut cover = 0i64;
    for d in diff.iter().take(n) {
        cover += d;
        ptr.push(ptr.last().unwrap() + cover as u32);
    }
    ptr
}

fn prefix(costs: impl Iterator<Item = u32>) -> Vec<u32> {
    let mut ptr = vec![0u32];
    for c in costs {
        ptr.push(ptr.last().unwrap() + c);
    }
    ptr
}

#[cfg(test)]
mod tests {
    use super::*;
    use bernoulli_formats::gen;

    #[test]
    fn ell_blocks_balance_fill_not_width() {
        // One full row of 50, the rest nearly empty: padded width is 50
        // everywhere, but fill-based cost isolates the heavy row.
        let mut t = bernoulli_formats::Triplets::new(40, 50);
        for c in 0..50 {
            t.push(0, c, 1.0);
        }
        for r in 1..40 {
            t.push(r, r % 50, 1.0);
        }
        t.normalize();
        let a = bernoulli_formats::Ell::from_triplets(&t);
        let b = ell_row_blocks(&a, 4);
        assert_eq!(b[0], 0);
        assert_eq!(*b.last().unwrap(), 40);
        assert_eq!(b[1], 1, "heavy row gets its own block: {b:?}");
    }

    #[test]
    fn jad_blocks_cover_all_permuted_rows() {
        let a = bernoulli_formats::Jad::from_triplets(&gen::structurally_symmetric(30, 160, 9, 77));
        for nb in [1, 2, 3, 7, 16] {
            let b = jad_row_blocks(&a, nb);
            assert_eq!(b[0], 0);
            assert_eq!(*b.last().unwrap(), 30);
            assert!(b.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn dia_coverage_counts_stored_entries() {
        let a = bernoulli_formats::Dia::from_triplets(&gen::banded(25, 3, 4));
        let rows = dia_coverage(a.nrows, &a, true);
        let cols = dia_coverage(a.ncols, &a, false);
        // Total coverage equals stored entries either way.
        assert_eq!(*rows.last().unwrap() as usize, a.values.len());
        assert_eq!(*cols.last().unwrap() as usize, a.values.len());
        let b = dia_row_blocks(&a, 4);
        assert_eq!(b[0], 0);
        assert_eq!(*b.last().unwrap(), 25);
    }

    #[test]
    fn empty_matrix_yields_no_blocks() {
        let t = bernoulli_formats::Triplets::<f64>::new(0, 0);
        let a = bernoulli_formats::Ell::from_triplets(&t);
        assert_eq!(ell_row_blocks(&a, 4), vec![0]);
    }
}
