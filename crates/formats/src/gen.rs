//! Synthetic workload generators.
//!
//! The paper evaluates on `can_1072` from the Harwell–Boeing collection.
//! That file is not redistributable inside this repository, so
//! [`can_1072_like`] synthesizes a deterministic matrix matching the
//! characteristics that matter for TS/MVM performance: order 1072,
//! ≈12444 stored entries, structural symmetry, a full diagonal, and a
//! comparable nonzeros-per-row profile. The remaining generators produce
//! the standard workload families (uniform random, banded, 2-D Poisson)
//! used by the extended experiments.

use crate::Triplets;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Uniformly random sparse matrix with exactly `nnz` distinct stored
/// positions (values in `[-1, 1)`).
pub fn random_sparse(nrows: usize, ncols: usize, nnz: usize, seed: u64) -> Triplets<f64> {
    assert!(
        nnz <= nrows * ncols,
        "requested more entries than positions"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::with_capacity(nnz * 2);
    let mut t = Triplets::new(nrows, ncols);
    while seen.len() < nnz {
        let r = rng.gen_range(0..nrows);
        let c = rng.gen_range(0..ncols);
        if seen.insert((r, c)) {
            t.push(r, c, rng.gen_range(-1.0..1.0));
        }
    }
    t.normalize();
    t
}

/// Dense band: all entries with `|r - c| <= bandwidth` stored, random
/// values, diagonally dominant. The natural DIA workload. Pushed
/// row-major, so in normal form as it stands.
pub fn banded(n: usize, bandwidth: usize, seed: u64) -> Triplets<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Triplets::new(n, n);
    for r in 0..n {
        let lo = r.saturating_sub(bandwidth);
        let hi = (r + bandwidth + 1).min(n);
        for c in lo..hi {
            let v = if r == c {
                2.0 * (bandwidth as f64 + 1.0)
            } else {
                rng.gen_range(-1.0..1.0)
            };
            t.push(r, c, v);
        }
    }
    t
}

/// Tridiagonal `[-1, 2, -1]` matrix (1-D Laplacian).
pub fn tridiagonal(n: usize) -> Triplets<f64> {
    let mut t = Triplets::new(n, n);
    for i in 0..n {
        t.push(i, i, 2.0);
        if i > 0 {
            t.push(i, i - 1, -1.0);
        }
        if i + 1 < n {
            t.push(i, i + 1, -1.0);
        }
    }
    t.normalize();
    t
}

/// 5-point-stencil discretization of the 2-D Poisson equation on a
/// `k × k` grid (an SPD matrix of order `k²`).
pub fn poisson2d(k: usize) -> Triplets<f64> {
    let n = k * k;
    let mut t = Triplets::new(n, n);
    let idx = |i: usize, j: usize| i * k + j;
    for i in 0..k {
        for j in 0..k {
            let p = idx(i, j);
            t.push(p, p, 4.0);
            if i > 0 {
                t.push(p, idx(i - 1, j), -1.0);
            }
            if i + 1 < k {
                t.push(p, idx(i + 1, j), -1.0);
            }
            if j > 0 {
                t.push(p, idx(i, j - 1), -1.0);
            }
            if j + 1 < k {
                t.push(p, idx(i, j + 1), -1.0);
            }
        }
    }
    t.normalize();
    t
}

/// Deterministic substitute for the Harwell–Boeing matrix `can_1072`
/// (order 1072, 12444 stored entries, structurally symmetric pattern,
/// full diagonal; see DESIGN.md substitution 1).
///
/// Values are chosen diagonally dominant so that the lower triangle is a
/// well-conditioned triangular-solve operand and CG converges on the full
/// matrix.
pub fn can_1072_like() -> Triplets<f64> {
    structurally_symmetric(1072, 12444, 96, 0xCAA1_1072)
}

/// Structurally symmetric sparse matrix of order `n` with (approximately,
/// within one pair of) `nnz` stored entries, band-concentrated pattern
/// with maximum expected offset `spread`, full diagonal, diagonally
/// dominant values.
pub fn structurally_symmetric(n: usize, nnz: usize, spread: usize, seed: u64) -> Triplets<f64> {
    assert!(nnz >= n, "need at least the diagonal");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::new();
    let mut pairs: Vec<(usize, usize)> = Vec::new();
    let target_offdiag_pairs = (nnz - n) / 2;
    while pairs.len() < target_offdiag_pairs {
        let r = rng.gen_range(0..n);
        // Offsets concentrate near the diagonal (sum of two uniforms →
        // triangular distribution), mimicking a FEM-style connectivity.
        let off = 1 + (rng.gen_range(0..spread) + rng.gen_range(0..spread)) / 2;
        if r + off >= n {
            continue;
        }
        let (a, b) = (r + off, r);
        if seen.insert((a, b)) {
            pairs.push((a, b));
        }
    }
    let mut t = Triplets::new(n, n);
    let mut degree = vec![0usize; n];
    for &(a, b) in &pairs {
        let v = rng.gen_range(-1.0..-0.05);
        t.push(a, b, v);
        t.push(b, a, v);
        degree[a] += 1;
        degree[b] += 1;
    }
    for (i, &d) in degree.iter().enumerate() {
        t.push(i, i, d as f64 + 1.0);
    }
    t.normalize();
    t
}

/// FEM-style blocked matrix of order `n`: dense `block x block` diagonal
/// blocks plus symmetric off-diagonal block coupling (each block row is
/// coupled to its `coupling` nearest block neighbors on each side), all
/// aligned to the `block` grid — the pattern a finite-element assembly
/// with `block` unknowns per node produces.
///
/// `fill` is the probability that an off-diagonal cell *within* a
/// touched block is stored (the scalar diagonal is always stored):
/// `fill = 1.0` gives perfectly dense blocks (a BSR fill ratio of 1.0),
/// lower values leave holes that blocked storage must pay for as
/// fill-in. Deterministic for a fixed seed; values diagonally dominant.
///
/// # Panics
/// Panics if `block` is zero or does not divide `n`, or `fill` is
/// outside `[0, 1]`.
pub fn fem_blocked(n: usize, block: usize, coupling: usize, fill: f64, seed: u64) -> Triplets<f64> {
    assert!(block > 0 && n.is_multiple_of(block), "block must divide n");
    assert!((0.0..=1.0).contains(&fill), "fill must be in [0, 1]");
    let nb = n / block;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Triplets::new(n, n);
    let push_block = |t: &mut Triplets<f64>, rng: &mut StdRng, bi: usize, bj: usize| {
        for rr in 0..block {
            for cc in 0..block {
                let (r, c) = (bi * block + rr, bj * block + cc);
                if r == c {
                    // Dominant diagonal: bounds the row sum of every
                    // coupled block.
                    t.push(r, c, 2.0 * (block * (2 * coupling + 1)) as f64);
                } else if rng.gen_range(0.0..1.0) < fill {
                    t.push(r, c, rng.gen_range(-1.0..1.0));
                }
            }
        }
    };
    for bi in 0..nb {
        push_block(&mut t, &mut rng, bi, bi);
        for d in 1..=coupling {
            if bi + d < nb {
                push_block(&mut t, &mut rng, bi, bi + d);
                push_block(&mut t, &mut rng, bi + d, bi);
            }
        }
    }
    t.normalize();
    t
}

/// Structure-preserving scaling (MatrixGen-style): grows a seed pattern
/// by `factor` in both dimensions while keeping the features that drive
/// format selection — bandwidth, structural symmetry, diagonal fill,
/// triangularity, and block profile.
///
/// The scaled matrix is the seed replicated `factor` times along the
/// diagonal (every structural feature of the seed carries over
/// exactly), plus a thin band of coupling entries across each tile
/// boundary so the result is one connected system rather than `factor`
/// independent ones. Coupling entries reuse the seed's own sub- and
/// super-diagonal offsets (one entry per distinct offset per boundary),
/// so they never widen the bandwidth, never break triangularity, and
/// mirror each other exactly where the seed's pattern is symmetric.
/// Rectangular seeds are replicated without coupling. Deterministic for
/// a fixed seed value.
pub fn scale(t: &Triplets<f64>, factor: usize, seed: u64) -> Triplets<f64> {
    assert!(factor >= 1, "scale factor must be at least 1");
    let t = t.normalized();
    let (nr, nc) = (t.nrows(), t.ncols());
    // Tile by tile the seed's entries are in normal form already; the
    // coupling entries are few, so they are sorted on their own and
    // merged in (after a tile entry at the same position, in the order
    // they were made: the order a stable sort of both would sum them in).
    let mut coupling: Vec<(usize, usize, f64)> = Vec::new();
    if factor > 1 && nr == nc && nr > 0 {
        let on_diagonal = |p: usize| {
            let at = (p % nr, p % nr);
            t.entries()
                .binary_search_by_key(&at, |e| (e.0 as usize, e.1 as usize))
                .is_ok()
        };
        // The seed's own strictly-lower / strictly-upper offsets: the
        // coupling band reuses exactly these, so `max |r - c|` of the
        // result equals the seed's bandwidth.
        let offsets = |lower: bool| {
            let mut d: Vec<usize> = t
                .entries()
                .iter()
                .filter(|&&(r, c, _)| if lower { r > c } else { c > r })
                .map(|&(r, c, _)| r.abs_diff(c) as usize)
                .collect();
            d.sort_unstable();
            d.dedup();
            d
        };
        let (lower_offsets, upper_offsets) = (offsets(true), offsets(false));
        let mut rng = StdRng::seed_from_u64(seed);
        for k in 1..factor {
            let b = k * nr; // first row/col of tile k
            for &d in &lower_offsets {
                let (r, c) = (b, b - d);
                let v = rng.gen_range(-1.0..-0.05);
                coupling.push((r, c, v));
                // Keep diagonal dominance where the seed stores the
                // affected diagonal positions (summed into them, so
                // structure is untouched).
                for p in [r, c] {
                    if on_diagonal(p) {
                        coupling.push((p, p, -v));
                    }
                }
                // Mirror exactly when the seed's pattern does.
                if upper_offsets.binary_search(&d).is_ok() {
                    coupling.push((c, r, v));
                }
            }
            for &d in &upper_offsets {
                if lower_offsets.binary_search(&d).is_ok() {
                    continue; // already added as the mirror above
                }
                let (r, c) = (b - d, b);
                let v = rng.gen_range(-1.0..-0.05);
                coupling.push((r, c, v));
                for p in [r, c] {
                    if on_diagonal(p) {
                        coupling.push((p, p, -v));
                    }
                }
            }
        }
    }
    coupling.sort_by_key(|&(r, c, _)| (r, c));
    let mut coupling = coupling.into_iter().peekable();
    let mut out = Triplets::new(nr * factor, nc * factor);
    out.reserve(factor * t.nnz() + coupling.len());
    for k in 0..factor {
        for &(r, c, v) in t.entries() {
            let at = (k * nr + r as usize, k * nc + c as usize);
            while let Some((r, c, v)) = coupling.next_if(|e| (e.0, e.1) < at) {
                out.push_or_sum(r, c, v);
            }
            out.push(at.0, at.1, v);
        }
    }
    for (r, c, v) in coupling {
        out.push_or_sum(r, c, v);
    }
    out
}

/// A deterministic dense vector with entries in `[-1, 1)`.
pub fn dense_vector(n: usize, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

/// A deterministic sparse vector: `nnz` distinct (index, value) pairs.
pub fn sparse_vector(n: usize, nnz: usize, seed: u64) -> Vec<(usize, f64)> {
    assert!(nnz <= n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::with_capacity(nnz);
    while out.len() < nnz {
        let i = rng.gen_range(0..n);
        if seen.insert(i) {
            out.push((i, rng.gen_range(-1.0..1.0)));
        }
    }
    out
}

/// Summary statistics of a pattern, for EXPERIMENTS.md reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct PatternStats {
    pub nrows: usize,
    pub ncols: usize,
    pub nnz: usize,
    pub min_row: usize,
    pub max_row: usize,
    pub avg_row: f64,
    /// max |r - c| over stored entries.
    pub bandwidth: usize,
    pub structurally_symmetric: bool,
}

/// Computes [`PatternStats`] for a triplet matrix.
pub fn pattern_stats(t: &Triplets<f64>) -> PatternStats {
    let counts = t.row_counts();
    let positions: std::collections::HashSet<(u32, u32)> =
        t.entries().iter().map(|&(r, c, _)| (r, c)).collect();
    PatternStats {
        nrows: t.nrows(),
        ncols: t.ncols(),
        nnz: t.nnz(),
        min_row: counts.iter().copied().min().unwrap_or(0),
        max_row: counts.iter().copied().max().unwrap_or(0),
        avg_row: t.nnz() as f64 / t.nrows().max(1) as f64,
        bandwidth: t
            .entries()
            .iter()
            .map(|&(r, c, _)| r.abs_diff(c) as usize)
            .max()
            .unwrap_or(0),
        structurally_symmetric: t
            .entries()
            .iter()
            .all(|&(r, c, _)| positions.contains(&(c, r))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_sparse_exact_nnz() {
        let t = random_sparse(50, 40, 200, 1);
        assert_eq!(t.nnz(), 200);
        assert_eq!(t.nrows(), 50);
        // Deterministic for a fixed seed.
        assert_eq!(t, random_sparse(50, 40, 200, 1));
        assert_ne!(t, random_sparse(50, 40, 200, 2));
    }

    #[test]
    fn banded_pattern() {
        let t = banded(10, 2, 3);
        let s = pattern_stats(&t);
        assert_eq!(s.bandwidth, 2);
        assert!(s.structurally_symmetric);
        for &(r, c, _) in t.entries() {
            assert!(r.abs_diff(c) <= 2);
        }
    }

    #[test]
    fn poisson_is_symmetric_with_4s() {
        let t = poisson2d(4);
        assert_eq!(t.nrows(), 16);
        let s = pattern_stats(&t);
        assert!(s.structurally_symmetric);
        assert_eq!(t.get(5, 5), 4.0);
        assert_eq!(t.get(5, 4), -1.0);
        assert_eq!(t.get(0, 3), 0.0);
    }

    #[test]
    fn can_1072_like_matches_target_shape() {
        let t = can_1072_like();
        let s = pattern_stats(&t);
        assert_eq!(s.nrows, 1072);
        assert_eq!(s.ncols, 1072);
        // Within a pair of the Harwell–Boeing count (12444).
        assert!((s.nnz as i64 - 12444).abs() <= 2, "nnz = {}", s.nnz);
        assert!(s.structurally_symmetric);
        // Full diagonal present.
        for i in 0..1072 {
            assert!(t.get(i, i) != 0.0, "diagonal hole at {i}");
        }
        // Deterministic.
        assert_eq!(t.nnz(), can_1072_like().nnz());
    }

    #[test]
    fn lower_triangle_is_solvable() {
        let t = can_1072_like();
        let l = t.lower_triangle_full_diag(1.0);
        for i in 0..1072 {
            assert!(l.get(i, i) != 0.0);
        }
        for &(r, c, _) in l.entries() {
            assert!(r >= c);
        }
    }

    #[test]
    fn sparse_vector_distinct() {
        let v = sparse_vector(100, 30, 9);
        assert_eq!(v.len(), 30);
        let mut idx: Vec<usize> = v.iter().map(|&(i, _)| i).collect();
        idx.sort_unstable();
        idx.dedup();
        assert_eq!(idx.len(), 30);
    }

    #[test]
    fn tridiagonal_stats() {
        let t = tridiagonal(5);
        assert_eq!(t.nnz(), 13);
        assert_eq!(pattern_stats(&t).bandwidth, 1);
    }
}
