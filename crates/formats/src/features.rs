//! Instance structure analysis: the numbers a format/plan advisor needs.
//!
//! SpComp-style structure-aware compilation (see PAPERS.md) picks storage
//! and enumeration order from the *sparsity structure of the instance*,
//! not from hand-written workload guesses. [`StructureFeatures`] distills
//! a [`Triplets`] (or any [`AnyFormat`]) into the features that drive
//! those choices: density, bandwidth and row profile, structural
//! symmetry, diagonal fill, triangularity, the dominant block shape
//! (via [`crate::blocks`]), and the level-schedule depth of the lower
//! triangle. Everything is deterministic, so derived cost-model inputs
//! hash stably into plan-cache keys.

use crate::blocks::{discover_block_size, BlockReport};
use crate::convert::AnyFormat;
use crate::scalar::Scalar;
use crate::Triplets;

/// Largest block edge probed by [`StructureFeatures::block`] discovery.
pub const BLOCK_PROBE_MAX: usize = 8;
/// Minimum fill a discovered block shape must clear.
pub const BLOCK_PROBE_MIN_FILL: f64 = 0.9;

/// Structural summary of one sparse instance.
///
/// Computed in two passes over the normal-form entries (count the
/// rows, then everything else), plus the block-shape probe. All scores
/// are in `[0, 1]` unless noted.
#[derive(Clone, Debug, PartialEq)]
pub struct StructureFeatures {
    /// Rows of the enveloping dense matrix.
    pub nrows: usize,
    /// Columns of the enveloping dense matrix.
    pub ncols: usize,
    /// Stored (structural) entries.
    pub nnz: usize,
    /// `nnz / (nrows * ncols)`; 0 for an empty shape.
    pub density: f64,
    /// Mean stored entries per row (over all rows).
    pub avg_row_nnz: f64,
    /// Largest stored-entry count of any row.
    pub max_row_nnz: usize,
    /// `max |r - c|` over stored entries.
    pub bandwidth: usize,
    /// Mean row span `last - first + 1` over nonempty rows — the
    /// profile/skyline width, tighter than `2 * bandwidth + 1` for
    /// locally banded patterns.
    pub profile: f64,
    /// Fraction of off-diagonal entries whose mirror `(c, r)` is also
    /// stored; 1.0 when there are no off-diagonal entries.
    pub symmetry: f64,
    /// Stored diagonal positions over `min(nrows, ncols)`; 1.0 when the
    /// diagonal is vacuous (a zero-sized shape).
    pub diag_fill: f64,
    /// Every stored entry satisfies `r >= c`.
    pub lower_triangular: bool,
    /// Every stored entry satisfies `r <= c`.
    pub upper_triangular: bool,
    /// Dominant block shape (largest `r x c` up to [`BLOCK_PROBE_MAX`]
    /// with fill ≥ [`BLOCK_PROBE_MIN_FILL`]); `block.fill` at that shape
    /// is the block score.
    pub block: BlockReport,
    /// Longest dependency chain of the strictly-lower entries — the
    /// number of sequential waves a level-scheduled triangular solve
    /// needs. 0 for an empty matrix, 1 when rows have no lower deps.
    pub level_depth: usize,
}

impl StructureFeatures {
    /// Analyzes a triplet instance.
    pub fn of_triplets<T: Scalar>(t: &Triplets<T>) -> StructureFeatures {
        let t = t.normalized();
        let (nrows, ncols, nnz) = (t.nrows(), t.ncols(), t.nnz());
        let cells = nrows as f64 * ncols as f64;
        let min_dim = nrows.min(ncols);

        let (e, rowptr) = (t.entries(), t.rowptr());
        let row = |r: usize| &e[rowptr[r]..rowptr[r + 1]];

        // Level of each row in the strictly-lower dependence DAG. Entries
        // are row-major, so when row `r` is processed every dependency
        // row `c < r` already has its final level — one pass suffices.
        let mut level = vec![0usize; nrows];
        let mut bandwidth = 0usize;
        let mut diag = 0usize;
        let mut off_diag = 0usize;
        let mut mirrored = 0usize;
        let mut lower = true;
        let mut upper = true;
        for &(r, c, _) in e {
            bandwidth = bandwidth.max(r.abs_diff(c));
            if r == c {
                diag += 1;
            } else {
                off_diag += 1;
                if c < nrows && row(c).binary_search_by_key(&r, |m| m.1).is_ok() {
                    mirrored += 1;
                }
                if r < c {
                    lower = false;
                } else {
                    upper = false;
                }
            }
            if level[r] == 0 {
                level[r] = 1;
            }
            if c < r {
                level[r] = level[r].max(level[c] + 1);
            }
        }
        let mut profile_sum = 0.0;
        let mut nonempty = 0usize;
        for r in 0..nrows {
            if let (Some(first), Some(last)) = (row(r).first(), row(r).last()) {
                nonempty += 1;
                profile_sum += (last.1 - first.1 + 1) as f64;
            }
        }

        StructureFeatures {
            nrows,
            ncols,
            nnz,
            density: if cells > 0.0 { nnz as f64 / cells } else { 0.0 },
            avg_row_nnz: nnz as f64 / nrows.max(1) as f64,
            max_row_nnz: (0..nrows).map(|r| row(r).len()).max().unwrap_or(0),
            bandwidth,
            profile: if nonempty > 0 {
                profile_sum / nonempty as f64
            } else {
                0.0
            },
            symmetry: if off_diag > 0 {
                mirrored as f64 / off_diag as f64
            } else {
                1.0
            },
            diag_fill: if min_dim > 0 {
                diag as f64 / min_dim as f64
            } else {
                1.0
            },
            lower_triangular: lower,
            upper_triangular: upper,
            block: discover_block_size(&t, BLOCK_PROBE_MAX, BLOCK_PROBE_MIN_FILL),
            level_depth: level.iter().copied().max().unwrap_or(0),
        }
    }

    /// Analyzes any concrete format by way of its triplet image.
    pub fn of_format<T: Scalar>(f: &AnyFormat<T>) -> StructureFeatures {
        StructureFeatures::of_triplets(&f.to_triplets())
    }

    /// True when every diagonal position of a square instance is stored —
    /// the precondition for the `FullDiagonal` stored guarantee.
    pub fn full_diagonal(&self) -> bool {
        self.nrows == self.ncols && self.nrows > 0 && (self.diag_fill - 1.0).abs() < 1e-12
    }

    /// Block score: the fill of the discovered dominant block shape
    /// (1.0 = perfectly blocked at `block.r x block.c`).
    pub fn block_score(&self) -> f64 {
        self.block.fill
    }
}

/// Features of a sparse *vector*, treated as an `n x 1` instance so the
/// same [`StructureFeatures`] vocabulary (and the same cost-model
/// derivation) applies to the vector operands of dot-product workloads.
pub fn vector_features<T: Scalar>(n: usize, entries: &[(usize, T)]) -> StructureFeatures {
    let mut t = Triplets::new(n, 1);
    for &(i, v) in entries {
        t.push(i, 0, v);
    }
    StructureFeatures::of_triplets(&t)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn banded_features() {
        let f = StructureFeatures::of_triplets(&gen::banded(64, 3, 7));
        assert_eq!((f.nrows, f.ncols), (64, 64));
        assert_eq!(f.bandwidth, 3);
        assert!((f.symmetry - 1.0).abs() < 1e-12);
        assert!(f.full_diagonal());
        assert!(!f.lower_triangular && !f.upper_triangular);
        // Interior rows span the full 7-wide band.
        assert!(f.profile > 6.0 && f.profile <= 7.0, "profile {}", f.profile);
    }

    #[test]
    fn lower_triangle_features_and_level_depth() {
        let l = gen::can_1072_like().lower_triangle_full_diag(1.0);
        let f = StructureFeatures::of_triplets(&l);
        assert!(f.lower_triangular && !f.upper_triangular);
        assert!(f.full_diagonal());
        // A connected lower triangle has a nontrivial wave schedule.
        assert!(f.level_depth > 1 && f.level_depth <= 1072);
    }

    #[test]
    fn fem_blocked_recovers_block_score() {
        let t = gen::fem_blocked(16 * 4, 4, 2, 1.0, 11);
        let f = StructureFeatures::of_triplets(&t);
        assert_eq!((f.block.r, f.block.c), (4, 4));
        assert!((f.block_score() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn vector_features_shape() {
        let f = vector_features(100, &gen::sparse_vector(100, 30, 5));
        assert_eq!((f.nrows, f.ncols, f.nnz), (100, 1, 30));
        assert!((f.density - 0.3).abs() < 1e-12);
    }
}
