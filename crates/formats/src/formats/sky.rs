//! Skyline storage (lower profile / SKS) — `r -> c -> v` with per-row
//! contiguous column strips `lo[r] ..= r`.
//!
//! The classic direct-solver format of the paper's era: each row stores
//! everything from its first nonzero up to the diagonal, so the diagonal
//! is always structural and in-row access is O(1). The column level is an
//! interval level with *runtime* per-row bounds (like DIA's offset
//! level).

use crate::assemble::{built, Cut};
use crate::layout::{narrow, stored_layout, Residue};
use crate::scalar::Scalar;
use crate::{FormatError, Triplets};

/// Lower skyline matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Sky<T: Scalar = f64> {
    /// Matrix order (square, lower triangular).
    pub n: usize,
    /// First stored column of each row (`lo[r] <= r`).
    pub lo: Vec<u32>,
    /// Strip start in `values` (`len == n + 1`).
    pub ptr: Vec<u32>,
    /// Strip storage: `A[r][c] = values[ptr[r] + (c - lo[r])]` for
    /// `lo[r] <= c <= r`; in-strip zeros are structural.
    pub values: Vec<T>,
}

impl Sky<f64> {
    /// Builds from triplets, as the levels describe
    /// (the crate's one assembler).
    ///
    /// # Panics
    /// Panics if the matrix is not square or has entries above the
    /// diagonal, and before allocating its strips if their cells, or
    /// before anything if its order, exceed
    /// [`INDEX_LIMIT`](crate::layout::INDEX_LIMIT).
    pub fn from_triplets(t: &Triplets<f64>) -> Sky<f64> {
        built(Sky::assembled(t, Cut::Discover))
    }
}

impl<T: Scalar> Sky<T> {
    /// Number of stored entries (strip cells, including in-strip zeros).
    pub fn nnz(&self) -> usize {
        self.values.len()
    }
}

/// What no level says of a skyline: row `r` starts at its first entry,
/// or at the diagonal, which is stored, if that comes first; it ends at
/// the diagonal.
const SKYLINE_START: Residue<Sky<f64>> = Residue {
    before: 1,
    assemble: |a| {
        let mut lo: Vec<u32> = (0..a.t.nrows()).map(narrow).collect();
        for &(r, c, _) in a.t.entries() {
            if c > r {
                return Err(FormatError::Unfit {
                    format: LEVELS.name,
                    reason: format!(
                        "entry ({r}, {c}) is above the diagonal of a lower-triangular matrix"
                    ),
                });
            }
            lo[r as usize] = lo[r as usize].min(c);
        }
        a.set(field::lo, lo);
        Ok(())
    },
    check: |_| Ok(()),
};

stored_layout! {
    Sky, "sky";
    dims: n;
    shape: n, n;
    arrays: lo: u32, ptr: u32, values: f64;
    chains: [
        Level::interval(n),
        Level::of(Kind::Interval { lo: Bound::At(lo), hi: Bound::Next, base: Base::Ptr(ptr) })
    ] -> values;
    residue: SKYLINE_START;
    /// The skyline index structure: an interval column level with
    /// run-time per-row bounds, on and below the diagonal, which is
    /// stored.
    view: sky_format_view = "(r, c | r - c >= 0, stored diagonal): r[interval] -> c[interval] -> v";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::check_view_conformance;
    use crate::{SparseMatrix, SparseView};

    fn sample() -> Triplets<f64> {
        Triplets::from_entries(
            4,
            4,
            &[
                (0, 0, 2.0),
                (1, 1, 3.0),
                (2, 0, 1.0),
                (2, 2, 4.0),
                (3, 2, 5.0),
                (3, 3, 6.0),
            ],
        )
    }

    #[test]
    fn layout() {
        let a = Sky::from_triplets(&sample());
        assert_eq!(a.lo, vec![0, 1, 0, 2]);
        assert_eq!(a.ptr, vec![0, 1, 2, 5, 7]);
        // Row 2 strip covers (2,0), (2,1)=structural zero, (2,2).
        assert_eq!(a.nnz(), 7);
        assert_eq!(a.get(2, 1), 0.0);
        assert!(a.find(2, 1).is_some(), "in-strip zero is structural");
    }

    #[test]
    fn random_access() {
        let a = Sky::from_triplets(&sample());
        assert_eq!(a.get(3, 2), 5.0);
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.get(3, 0), 0.0);
        assert!(a.find(3, 0).is_none(), "outside the profile");
    }

    #[test]
    fn roundtrip() {
        let a = Sky::from_triplets(&sample());
        let b = Sky::from_triplets(&a.to_triplets());
        assert_eq!(a, b);
    }

    #[test]
    fn view_conformance() {
        check_view_conformance(&Sky::from_triplets(&sample()), 0).unwrap();
    }

    #[test]
    fn full_diagonal_guaranteed() {
        // Even with no diagonal entries in the input, the strip reaches
        // the diagonal (structural zeros).
        let t = Triplets::from_entries(3, 3, &[(2, 0, 1.0)]);
        let a = Sky::from_triplets(&t);
        assert!(a.find(2, 2).is_some());
        assert!(a.format_view().has_full_diagonal());
    }

    #[test]
    #[should_panic(expected = "lower-triangular")]
    fn upper_entries_rejected() {
        let t = Triplets::from_entries(3, 3, &[(0, 2, 1.0)]);
        let _ = Sky::from_triplets(&t);
    }

    #[test]
    fn reverse_column_cursor() {
        let a = Sky::from_triplets(&sample());
        let mut cur = a.cursor(0, 1, 2, true);
        let mut cols = Vec::new();
        while a.advance(&mut cur) {
            cols.push(cur.keys[0]);
        }
        assert_eq!(cols, vec![2, 1, 0]);
    }
}
