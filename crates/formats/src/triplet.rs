//! Coordinate-list builder: the interchange representation all formats
//! construct from and convert back to.

use crate::scalar::Scalar;
use crate::FormatError;
use std::borrow::Cow;

/// A matrix under construction: explicit `(row, col, value)` entries.
///
/// `Triplets` is the hub of all format conversions: every concrete format
/// implements `from_triplets` and `to_triplets`, making any-to-any
/// conversion a two-step round trip.
///
/// **Normal form** is entries strictly increasing in `(row, col)`: sorted
/// row-major, no position twice. A `Triplets` knows whether it is in
/// normal form, so entries pushed in order need no sort, and no
/// conversion copies or sorts an input that is in order already.
#[derive(Clone, Debug, PartialEq)]
pub struct Triplets<T: Scalar = f64> {
    nrows: usize,
    ncols: usize,
    entries: Vec<(usize, usize, T)>,
    /// Whether `entries` is strictly row-major increasing. Kept exact by
    /// every method, so it is a function of `entries` alone and equal
    /// entry sequences compare equal whatever their history.
    normal: bool,
}

fn position<T>(e: &(usize, usize, T)) -> (usize, usize) {
    (e.0, e.1)
}

impl<T: Scalar> Triplets<T> {
    /// An empty matrix of the given shape.
    pub fn new(nrows: usize, ncols: usize) -> Triplets<T> {
        Triplets {
            nrows,
            ncols,
            entries: Vec::new(),
            normal: true,
        }
    }

    /// Builds from a slice of entries. Duplicate positions are summed.
    ///
    /// # Panics
    /// Panics if any coordinate is out of range; use
    /// [`try_from_entries`](Self::try_from_entries) for untrusted input.
    pub fn from_entries(nrows: usize, ncols: usize, entries: &[(usize, usize, T)]) -> Triplets<T> {
        match Triplets::try_from_entries(nrows, ncols, entries) {
            Ok(t) => t,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`from_entries`](Self::from_entries) with out-of-range
    /// coordinates reported as a [`FormatError`] — the entry point for
    /// entries that came from outside the process.
    pub fn try_from_entries(
        nrows: usize,
        ncols: usize,
        entries: &[(usize, usize, T)],
    ) -> Result<Triplets<T>, FormatError> {
        let mut t = Triplets::new(nrows, ncols);
        for &(r, c, v) in entries {
            t.try_push(r, c, v)?;
        }
        t.normalize();
        Ok(t)
    }

    /// Appends one entry (duplicates allowed until [`normalize`](Self::normalize)).
    ///
    /// # Panics
    /// Panics if the coordinate is out of range; use
    /// [`try_push`](Self::try_push) for untrusted input.
    pub fn push(&mut self, r: usize, c: usize, v: T) {
        if let Err(e) = self.try_push(r, c, v) {
            panic!("{e}");
        }
    }

    /// [`push`](Self::push) with out-of-range coordinates reported as a
    /// [`FormatError`] instead of a panic.
    pub fn try_push(&mut self, r: usize, c: usize, v: T) -> Result<(), FormatError> {
        if r >= self.nrows || c >= self.ncols {
            return Err(FormatError::EntryOutOfRange {
                r,
                c,
                nrows: self.nrows,
                ncols: self.ncols,
            });
        }
        self.normal &= self.entries.last().is_none_or(|l| position(l) < (r, c));
        self.entries.push((r, c, v));
        Ok(())
    }

    /// [`push`](Self::push), except that a value for the position of the
    /// last entry is summed into it: merging sorted streams this way
    /// builds the normal form directly, duplicates and all.
    pub(crate) fn push_or_sum(&mut self, r: usize, c: usize, v: T) {
        match self.entries.last_mut() {
            Some(last) if position(last) == (r, c) => last.2 += v,
            _ => self.push(r, c, v),
        }
    }

    /// Sorts entries row-major and sums duplicates (in the order they
    /// were pushed). Zero values are kept: a stored zero is a
    /// *structural* nonzero, as in all classic sparse packages. Returns
    /// at once in normal form.
    pub fn normalize(&mut self) {
        if self.normal {
            return;
        }
        self.entries.sort_by_key(position);
        let mut out: Vec<(usize, usize, T)> = Vec::with_capacity(self.entries.len());
        for &(r, c, v) in &self.entries {
            match out.last_mut() {
                Some(&mut (lr, lc, ref mut lv)) if lr == r && lc == c => *lv += v,
                _ => out.push((r, c, v)),
            }
        }
        self.entries = out;
        self.normal = true;
    }

    /// `self` if it is in normal form, a normalized copy otherwise: what
    /// every conversion and analysis in this crate reads its entries
    /// from, so none of them copies or sorts an input that is in order.
    pub(crate) fn normalized(&self) -> Cow<'_, Triplets<T>> {
        if self.normal {
            return Cow::Borrowed(self);
        }
        let mut t = self.clone();
        t.normalize();
        Cow::Owned(t)
    }

    /// Number of rows.
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// Number of stored entries (in normal form, distinct positions).
    pub fn nnz(&self) -> usize {
        self.entries.len()
    }

    /// The entries: in normal form if every `push` since the last
    /// [`normalize`](Self::normalize) was in strictly increasing
    /// row-major order, in push order otherwise.
    pub fn entries(&self) -> &[(usize, usize, T)] {
        &self.entries
    }

    /// Random-access read of the first entry pushed at `(r, c)`: a binary
    /// search in normal form, a linear scan otherwise.
    pub fn get(&self, r: usize, c: usize) -> T {
        let found = if self.normal {
            self.entries.binary_search_by_key(&(r, c), position).ok()
        } else {
            self.entries.iter().position(|e| position(e) == (r, c))
        };
        found.map_or(T::ZERO, |i| self.entries[i].2)
    }

    /// Materializes the enveloping dense matrix, row-major.
    pub fn to_dense_rows(&self) -> Vec<Vec<T>> {
        let mut d = vec![vec![T::ZERO; self.ncols]; self.nrows];
        for &(r, c, v) in &self.entries {
            d[r][c] += v;
        }
        d
    }

    /// Applies `f` to every stored value.
    pub fn map_values(&mut self, f: impl Fn(T) -> T) {
        for e in &mut self.entries {
            e.2 = f(e.2);
        }
    }

    /// Keeps only entries satisfying the position predicate (what is
    /// left of a normal form is one).
    pub fn retain_positions(&mut self, f: impl Fn(usize, usize) -> bool) {
        self.entries.retain(|&(r, c, _)| f(r, c));
        self.normal = self.normal || self.entries.is_sorted_by(|a, b| position(a) < position(b));
    }

    /// The transpose, in normal form: a stable counting scatter by
    /// column of the normal form, no sort.
    pub fn transposed(&self) -> Triplets<T> {
        let t = self.normalized();
        let mut next = vec![0usize; t.ncols + 1];
        for &(_, c, _) in t.entries() {
            next[c + 1] += 1;
        }
        for c in 0..t.ncols {
            next[c + 1] += next[c];
        }
        let mut entries = vec![(0, 0, T::ZERO); t.nnz()];
        for &(r, c, v) in t.entries() {
            entries[next[c]] = (c, r, v);
            next[c] += 1;
        }
        Triplets {
            nrows: t.ncols,
            ncols: t.nrows,
            entries,
            normal: true,
        }
    }

    /// Extracts the lower triangle (including the diagonal), ensuring a
    /// structurally-full diagonal by inserting `diag_fill` where the
    /// diagonal is missing. This is the standard preparation of a
    /// triangular-solve operand. The result is in normal form.
    pub fn lower_triangle_full_diag(&self, diag_fill: T) -> Triplets<T> {
        let n = self.nrows.min(self.ncols);
        let mut t = Triplets::new(self.nrows, self.ncols);
        // A diagonal entry is the last of its row in a lower triangle:
        // rows `..next` have theirs, and a missing one is pushed when
        // the first entry of a later row (or the end) shows it missing.
        let mut next = 0;
        for &(r, c, v) in self.normalized().entries() {
            if r >= c {
                for i in next..r.min(n) {
                    t.push(i, i, diag_fill);
                }
                t.push(r, c, v);
                next = if r == c { r + 1 } else { r.min(n) };
            }
        }
        for i in next..n {
            t.push(i, i, diag_fill);
        }
        t
    }

    /// Where each row starts: row `r` of the normal form is
    /// `entries()[rowptr[r]..rowptr[r + 1]]`, columns increasing.
    pub(crate) fn rowptr(&self) -> Vec<usize> {
        let mut rowptr = vec![0usize; self.nrows + 1];
        for &(r, _, _) in &self.entries {
            rowptr[r + 1] += 1;
        }
        for r in 0..self.nrows {
            rowptr[r + 1] += rowptr[r];
        }
        rowptr
    }

    /// Number of stored entries in each row.
    pub fn row_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.nrows];
        for &(r, _, _) in &self.entries {
            counts[r] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_normalize() {
        let t = Triplets::from_entries(3, 3, &[(2, 1, 5.0), (0, 0, 1.0), (2, 1, 2.0)]);
        assert_eq!(t.nnz(), 2);
        assert_eq!(t.get(2, 1), 7.0);
        assert_eq!(t.get(0, 0), 1.0);
        assert_eq!(t.get(1, 1), 0.0);
        assert_eq!(t.entries(), &[(0, 0, 1.0), (2, 1, 7.0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        let mut t = Triplets::<f64>::new(2, 2);
        t.push(2, 0, 1.0);
    }

    #[test]
    fn dense_roundtrip() {
        let t = Triplets::from_entries(2, 3, &[(0, 2, 4.0), (1, 0, -1.0)]);
        let d = t.to_dense_rows();
        assert_eq!(d, vec![vec![0.0, 0.0, 4.0], vec![-1.0, 0.0, 0.0]]);
    }

    #[test]
    fn transpose() {
        let t = Triplets::from_entries(2, 3, &[(0, 2, 4.0), (1, 0, -1.0)]);
        let tt = t.transposed();
        assert_eq!(tt.nrows(), 3);
        assert_eq!(tt.ncols(), 2);
        assert_eq!(tt.get(2, 0), 4.0);
        assert_eq!(tt.get(0, 1), -1.0);
    }

    #[test]
    fn lower_triangle() {
        let t = Triplets::from_entries(3, 3, &[(0, 1, 9.0), (1, 0, 2.0), (2, 2, 3.0), (2, 0, 4.0)]);
        let l = t.lower_triangle_full_diag(1.0);
        assert_eq!(l.get(0, 1), 0.0); // upper dropped
        assert_eq!(l.get(1, 0), 2.0);
        assert_eq!(l.get(2, 2), 3.0); // existing diagonal kept
        assert_eq!(l.get(0, 0), 1.0); // missing diagonal filled
        assert_eq!(l.get(1, 1), 1.0);
        assert_eq!(l.nnz(), 5);
    }

    #[test]
    fn structural_zeros_kept() {
        let t = Triplets::from_entries(2, 2, &[(0, 1, 0.0)]);
        assert_eq!(t.nnz(), 1);
    }

    #[test]
    fn row_counts() {
        let t = Triplets::from_entries(3, 3, &[(0, 0, 1.0), (0, 2, 1.0), (2, 1, 1.0)]);
        assert_eq!(t.row_counts(), vec![2, 0, 1]);
    }

    #[test]
    fn map_and_retain() {
        let mut t = Triplets::from_entries(2, 2, &[(0, 0, 1.0), (1, 1, 2.0)]);
        t.map_values(|v| v * 10.0);
        assert_eq!(t.get(1, 1), 20.0);
        t.retain_positions(|r, c| r == c && r == 0);
        assert_eq!(t.nnz(), 1);
    }

    #[test]
    fn pushes_in_order_stay_in_normal_form() {
        let mut t = Triplets::new(3, 3);
        assert!(t.normal);
        for (r, c) in [(0, 1), (0, 2), (2, 0)] {
            t.push(r, c, 1.0);
            assert!(t.normal);
        }
        assert!(matches!(t.normalized(), Cow::Borrowed(_)));
        // One step back, or one position twice, and it no longer is —
        // nor does a later in-order push bring it back.
        for (r, c) in [(1, 2), (2, 0)] {
            let mut u = t.clone();
            u.push(r, c, 1.0);
            assert!(!u.normal);
            u.push(2, 2, 1.0);
            assert!(!u.normal);
            assert!(matches!(u.normalized(), Cow::Owned(_)));
            u.normalize();
            assert!(u.normal);
        }
        // Summed into the last entry, a duplicate changes no position.
        t.push_or_sum(2, 0, 0.5);
        t.push_or_sum(2, 2, 4.0);
        assert!(t.normal);
        assert_eq!(t.entries()[2..], [(2, 0, 1.5), (2, 2, 4.0)]);
    }

    #[test]
    fn map_and_retain_keep_the_normal_form() {
        let mut t = Triplets::from_entries(3, 3, &[(2, 1, 5.0), (0, 0, 1.0), (1, 2, 2.0)]);
        assert!(t.normal);
        t.map_values(|v| -v);
        assert!(t.normal);
        t.retain_positions(|r, _| r != 1);
        assert!(t.normal);
        assert_eq!(t.entries(), &[(0, 0, -1.0), (2, 1, -5.0)]);
    }

    #[test]
    fn equal_entries_compare_equal_whatever_their_history() {
        let pushed = {
            let mut t = Triplets::new(3, 3);
            t.push(0, 0, 1.0);
            t.push(2, 1, 7.0);
            t
        };
        // Sorted by `normalize`, out of a sum of duplicates.
        assert_eq!(
            pushed,
            Triplets::from_entries(3, 3, &[(2, 1, 5.0), (0, 0, 1.0), (2, 1, 2.0)])
        );
        // Left in order by dropping the entry that was not.
        let mut retained = Triplets::new(3, 3);
        for (r, c, v) in [(0, 0, 1.0), (2, 2, 9.0), (2, 1, 7.0)] {
            retained.push(r, c, v);
        }
        assert_ne!(pushed, retained);
        retained.retain_positions(|r, c| (r, c) != (2, 2));
        assert_eq!(pushed, retained);
        assert!(retained.normal);
        // The same entries in another order are another sequence.
        let mut backwards = Triplets::new(3, 3);
        backwards.push(2, 1, 7.0);
        backwards.push(0, 0, 1.0);
        assert_ne!(pushed, backwards);
        backwards.retain_positions(|_, _| true);
        assert!(!backwards.normal);
    }

    #[test]
    fn generic_f32() {
        let t = Triplets::<f32>::from_entries(1, 1, &[(0, 0, 2.5f32)]);
        assert_eq!(t.get(0, 0), 2.5f32);
    }
}
