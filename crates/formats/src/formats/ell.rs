//! ELLPACK storage — `r -> c -> v` with a fixed number of slots per row.
//!
//! Every row stores exactly `width` (column, value) slots; shorter rows
//! are padded with a sentinel column. Column indices are kept sorted
//! within each row, and the per-row fill `rowlen` makes binary search
//! possible despite the padding.

use crate::assemble::{built, Cut};
use crate::layout::{stored_layout, Residue};
use crate::scalar::Scalar;
use crate::Triplets;

/// Sentinel column index marking a padding slot.
pub const ELL_PAD: i64 = -1;

/// ELLPACK / ITPACK matrix.
#[derive(Clone, Debug, PartialEq)]
pub struct Ell<T: Scalar = f64> {
    /// Number of rows.
    pub nrows: usize,
    /// Number of columns.
    pub ncols: usize,
    /// Slots per row (the maximum row fill).
    pub width: usize,
    /// Column index per slot, row-major `colind[r * width + s]`;
    /// [`ELL_PAD`] in padding slots.
    pub colind: Vec<i64>,
    /// Value per slot (zero in padding slots).
    pub values: Vec<T>,
    /// Stored entries in each row (`rowlen[r] <= width`).
    pub rowlen: Vec<u32>,
}

impl Ell<f64> {
    /// Builds from triplets, as the levels describe
    /// (the crate's one assembler): count the rows, then fill the slots.
    ///
    /// # Panics
    /// Panics, before allocating, on a dimension or entry count above
    /// [`INDEX_LIMIT`](crate::layout::INDEX_LIMIT), and before allocating
    /// its slots if they exceed it.
    pub fn from_triplets(t: &Triplets<f64>) -> Ell<f64> {
        built(Ell::assembled(t, Cut::Discover))
    }
}

impl<T: Scalar> Ell<T> {
    /// Number of stored entries (padding excluded).
    pub fn nnz(&self) -> usize {
        self.rowlen.iter().map(|&l| l as usize).sum()
    }
}

/// What no level says of ELL: every slot past a row's fill holds
/// [`ELL_PAD`].
const PADDING: Residue<Ell<f64>> = Residue {
    before: 2,
    assemble: |a| {
        let (width, rowlen) = (a.dims[field::width.0], a.take::<u32>(field::rowlen)?);
        let mut colind: Vec<i64> = a.take(field::colind)?;
        for (row, &len) in colind.chunks_mut(width.max(1)).zip(&rowlen) {
            row[len as usize..].fill(ELL_PAD);
        }
        a.set(field::rowlen, rowlen);
        a.set(field::colind, colind);
        Ok(())
    },
    check: |m| {
        let rows = m.colind.chunks(m.width.max(1)).zip(&m.rowlen);
        for (r, (row, &len)) in rows.enumerate() {
            let mut pads = row.iter().enumerate().skip(len as usize);
            if let Some((s, c)) = pads.find(|&(_, &c)| c != ELL_PAD) {
                return Err(format!(
                    "row {r} padding slot {s} holds {c} instead of the pad sentinel"
                ));
            }
        }
        Ok(())
    },
};

stored_layout! {
    Ell, "ell";
    dims: nrows, ncols, width;
    arrays: colind: i64, values: f64, rowlen: u32;
    chains: [
        Level::interval(nrows),
        Level::of(Kind::Slots { count: rowlen, at: SlotAt::RowMajor(width), crd: colind })
            .unchecked().search()
    ] -> values;
    residue: PADDING;
    /// The ELL index structure: CSR's, but the column level enumerates a
    /// fixed-width padded slot array.
    view: ell_format_view = "(r, c): r[interval] -> c[sorted] -> v";
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cursor::check_view_conformance;
    use crate::{SparseMatrix, SparseView};

    fn sample() -> Triplets<f64> {
        Triplets::from_entries(
            3,
            4,
            &[
                (0, 0, 1.0),
                (0, 3, 2.0),
                (1, 1, 3.0),
                (2, 0, 4.0),
                (2, 2, 5.0),
                (2, 3, 6.0),
            ],
        )
    }

    #[test]
    fn layout() {
        let a = Ell::from_triplets(&sample());
        assert_eq!(a.width, 3);
        assert_eq!(a.rowlen, vec![2, 1, 3]);
        assert_eq!(a.nnz(), 6);
        assert_eq!(&a.colind[0..3], &[0, 3, ELL_PAD]);
        assert_eq!(&a.colind[3..6], &[1, ELL_PAD, ELL_PAD]);
        assert_eq!(&a.colind[6..9], &[0, 2, 3]);
    }

    #[test]
    fn random_access() {
        let a = Ell::from_triplets(&sample());
        assert_eq!(a.get(0, 3), 2.0);
        assert_eq!(a.get(0, 1), 0.0);
        assert_eq!(a.get(2, 2), 5.0);
    }

    #[test]
    fn roundtrip() {
        let t = sample();
        assert_eq!(Ell::from_triplets(&t).to_triplets(), t);
    }

    #[test]
    fn view_conformance() {
        check_view_conformance(&Ell::from_triplets(&sample()), 0).unwrap();
    }

    #[test]
    fn padding_skipped_by_cursor() {
        let a = Ell::from_triplets(&sample());
        let mut cur = a.cursor(0, 1, 1, false);
        let mut cols = Vec::new();
        while a.advance(&mut cur) {
            cols.push(cur.keys[0]);
        }
        assert_eq!(cols, vec![1]);
    }

    #[test]
    fn search() {
        let a = Ell::from_triplets(&sample());
        let p = a.search(0, 1, 2, &[2]).unwrap();
        assert_eq!(a.value_at(0, p), 5.0);
        assert!(a.search(0, 1, 2, &[1]).is_none());
    }

    #[test]
    fn empty_matrix() {
        let a = Ell::<f64>::from_triplets(&Triplets::new(2, 2));
        assert_eq!(a.width, 0);
        assert_eq!(a.nnz(), 0);
        check_view_conformance(&a, 0).unwrap();
    }
}
