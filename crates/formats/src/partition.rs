//! Work-balanced partitioning of compressed index structures.
//!
//! Equal-count row blocks are the naive way to split a sparse matrix
//! across workers; on skewed patterns (a few dense rows, many near-empty
//! ones) they leave most workers idle. The right unit of work for
//! MVM-like kernels is *stored entries*, and every pointer-compressed
//! level (`Csr::rowptr`, `Csc::colptr`, JAD's `dptr`, ELL's per-row fill
//! prefix) is exactly a monotone cumulative-cost array — so nnz-balanced
//! boundaries are a handful of binary searches.

/// Splits `0..n` (where `n == ptr.len() - 1`) into at most `nblocks`
/// contiguous blocks of approximately equal cumulative cost, where
/// `ptr` is a monotone prefix-sum array (`ptr[i]..ptr[i+1]` is the cost
/// of item `i`).
///
/// Returns the block boundaries as a monotone vector `b` with
/// `b[0] == 0`, `b.last() == n`, and block `k` spanning
/// `b[k]..b[k + 1]`. Degenerate blocks are merged, so the result may
/// hold fewer than `nblocks` blocks; for `n == 0` the result is `[0]`
/// (no blocks).
///
/// Boundaries are a pure function of `ptr` and `nblocks` — two calls
/// with equal inputs produce equal partitions, which the parallel
/// kernels rely on for run-to-run determinism.
pub fn split_ptr_by_cost(ptr: &[u32], nblocks: usize) -> Vec<usize> {
    assert!(!ptr.is_empty(), "ptr must have at least one element");
    let n = ptr.len() - 1;
    let nblocks = nblocks.max(1);
    let mut bounds = Vec::with_capacity(nblocks + 1);
    bounds.push(0usize);
    let mut start = 0usize;
    // Greedy: each block takes ceil(remaining cost / remaining blocks),
    // so one outsized item cannot starve the blocks after it.
    for k in 0..nblocks {
        if start == n {
            break;
        }
        let blocks_left = nblocks - k;
        let cost_left = (ptr[n] - ptr[start]) as usize;
        if blocks_left == 1 || cost_left == 0 {
            bounds.push(n);
            break;
        }
        let target = ptr[start] as usize + cost_left.div_ceil(blocks_left);
        let cut = ptr
            .partition_point(|&p| (p as usize) < target)
            .clamp(start + 1, n);
        bounds.push(cut);
        start = cut;
    }
    if bounds.last() != Some(&n) {
        bounds.push(n);
    }
    bounds
}

/// Splits `0..n` into at most `nblocks` contiguous blocks of
/// approximately equal *count* (the fallback when no cost structure is
/// available, e.g. dense vectors).
pub fn split_even(n: usize, nblocks: usize) -> Vec<usize> {
    let nblocks = nblocks.max(1).min(n.max(1));
    let mut bounds = Vec::with_capacity(nblocks + 1);
    bounds.push(0usize);
    if n == 0 {
        return bounds;
    }
    for k in 1..nblocks {
        let cut = (n as u128 * k as u128 / nblocks as u128) as usize;
        // `bounds` always starts with the pushed 0, so `last` is total.
        let prev = bounds.last().copied().unwrap_or(0);
        if cut > prev && cut < n {
            bounds.push(cut);
        }
    }
    bounds.push(n);
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block_costs(ptr: &[u32], bounds: &[usize]) -> Vec<u32> {
        bounds.windows(2).map(|w| ptr[w[1]] - ptr[w[0]]).collect()
    }

    #[test]
    fn covers_all_rows_exactly_once() {
        let ptr = [0u32, 3, 3, 10, 11, 20, 20, 21];
        for nb in 1..10 {
            let b = split_ptr_by_cost(&ptr, nb);
            assert_eq!(b[0], 0);
            assert_eq!(b[b.len() - 1], 7);
            assert!(b.windows(2).all(|w| w[0] < w[1]), "monotone: {b:?}");
            assert!(b.len() <= nb + 1);
        }
    }

    #[test]
    fn balances_skewed_costs() {
        // One heavy item among many light ones: the heavy one gets its
        // own block instead of dragging half the light ones with it.
        let mut ptr = vec![0u32];
        for i in 0..100 {
            let cost = if i == 0 { 1000 } else { 1 };
            ptr.push(ptr[ptr.len() - 1] + cost);
        }
        let b = split_ptr_by_cost(&ptr, 4);
        let costs = block_costs(&ptr, &b);
        // The first block is just the heavy row.
        assert_eq!(b[1], 1, "bounds {b:?}");
        assert_eq!(costs[0], 1000);
        // Equal-count split would put ~25 rows (1024 cost) in block 0
        // and starve the rest; cost split caps the remaining blocks near
        // the ideal 99/3.
        assert!(costs[1..].iter().all(|&c| c <= 67), "costs {costs:?}");
    }

    #[test]
    fn uniform_costs_split_evenly() {
        let ptr: Vec<u32> = (0..=64).map(|i| 5 * i).collect();
        let b = split_ptr_by_cost(&ptr, 4);
        assert_eq!(b, vec![0, 16, 32, 48, 64]);
    }

    #[test]
    fn degenerate_shapes() {
        assert_eq!(split_ptr_by_cost(&[0], 4), vec![0]);
        assert_eq!(split_ptr_by_cost(&[0, 0, 0], 4), vec![0, 2]);
        assert_eq!(split_ptr_by_cost(&[0, 7], 4), vec![0, 1]);
        assert_eq!(split_even(0, 4), vec![0]);
        assert_eq!(split_even(3, 64), vec![0, 1, 2, 3]);
        assert_eq!(split_even(8, 2), vec![0, 4, 8]);
    }

    #[test]
    fn deterministic() {
        let ptr: Vec<u32> = (0..=1000).map(|i| i * i / 7).collect();
        assert_eq!(split_ptr_by_cost(&ptr, 7), split_ptr_by_cost(&ptr, 7));
    }

    #[test]
    fn more_blocks_than_items() {
        let ptr = [0u32, 2, 5, 9];
        let b = split_ptr_by_cost(&ptr, 64);
        assert_eq!(b, vec![0, 1, 2, 3]);
    }
}
