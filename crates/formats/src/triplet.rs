//! Coordinate-list builder: the interchange representation all formats
//! construct from and convert back to.

use crate::scalar::Scalar;
use crate::FormatError;
use std::borrow::Cow;

/// A matrix under construction: explicit `(row, col, value)` entries.
///
/// `Triplets` is the hub of all format conversions: a registered format's
/// `from_triplets` is the assembly its levels describe (the crate's one
/// assembler), and its `to_triplets` the walk of its view, then
/// [`normalize`](Self::normalize): any-to-any conversion is a two-step
/// round trip.
///
/// **Normal form** is entries strictly increasing in `(row, col)`: sorted
/// row-major, no position twice. A `Triplets` knows whether it is in
/// normal form, so entries pushed in order need no sort, and no
/// conversion copies or sorts an input that is in order already.
///
/// An entry's coordinates are `u32`, the width of every layout's index
/// arrays: 16 B an entry at `f64`. The shape stays `usize`, so a matrix
/// past the index limit can be described (and is refused where it is
/// assembled); a coordinate is narrowed where it comes in, by
/// [`try_push`](Self::try_push), and one past `u32::MAX` is refused there.
#[derive(Clone, Debug, PartialEq)]
pub struct Triplets<T: Scalar = f64> {
    nrows: usize,
    ncols: usize,
    entries: Vec<(u32, u32, T)>,
    /// Whether `entries` is strictly row-major increasing. Kept exact by
    /// every method, so it is a function of `entries` alone and equal
    /// entry sequences compare equal whatever their history.
    normal: bool,
}

fn position<T>(e: &(u32, u32, T)) -> (usize, usize) {
    (e.0 as usize, e.1 as usize)
}

/// Where the entries of each of `n` keys start, given each entry's key:
/// key `k`'s are `starts[k]..starts[k + 1]` of a stable scatter by key.
fn starts(keys: impl Iterator<Item = u32>, n: usize) -> Vec<usize> {
    let mut starts = vec![0usize; n + 1];
    keys.for_each(|k| starts[k as usize + 1] += 1);
    (0..n).for_each(|k| starts[k + 1] += starts[k]);
    starts
}

/// The entries in a stable scatter by key, keys below `n`; the input is
/// freed as soon as the output is made.
fn scatter<T: Copy>(
    entries: Vec<(u32, u32, T)>,
    key: impl Fn(&(u32, u32, T)) -> u32 + Copy,
    n: usize,
) -> Vec<(u32, u32, T)> {
    let mut next = starts(entries.iter().map(key), n);
    let mut out = entries.clone();
    for e in &entries {
        out[next[key(e) as usize]] = *e;
        next[key(e) as usize] += 1;
    }
    out
}

/// True when the columns of each of the `nrows` rows come strictly
/// increasing: a stable scatter by row alone puts them in normal form.
fn rows_ascend<T>(entries: &[(u32, u32, T)], nrows: usize) -> bool {
    // One past the last column seen in each row.
    let mut next = vec![0u64; nrows];
    entries.iter().all(|&(r, c, _)| {
        let (seen, c) = (&mut next[r as usize], u64::from(c));
        let ascends = c >= *seen;
        *seen = c + 1;
        ascends
    })
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
    /// Panics if any coordinate is out of range or past `u32::MAX`; use
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
    /// Panics if the coordinate is out of range or past `u32::MAX`; use
    /// [`try_push`](Self::try_push) for untrusted input.
    pub fn push(&mut self, r: usize, c: usize, v: T) {
        if let Err(e) = self.try_push(r, c, v) {
            panic!("{e}");
        }
    }

    /// [`push`](Self::push) with out-of-range coordinates reported as a
    /// [`FormatError`] instead of a panic: the one place a coordinate is
    /// narrowed to `u32`. In a matrix whose shape is past the index limit,
    /// a coordinate past `u32::MAX` is [`FormatError::IndexLimit`].
    pub fn try_push(&mut self, r: usize, c: usize, v: T) -> Result<(), FormatError> {
        match (u32::try_from(r), u32::try_from(c)) {
            (Ok(row), Ok(col)) if r < self.nrows && c < self.ncols => {
                self.normal &= self.entries.last().is_none_or(|l| position(l) < (r, c));
                self.entries.push((row, col, v));
                Ok(())
            }
            _ => Err(self.refusal(r, c)),
        }
    }

    /// Why [`try_push`](Self::try_push) refuses `(r, c)`: built only on
    /// refusal, out of the way of every push that is taken.
    #[cold]
    fn refusal(&self, r: usize, c: usize) -> FormatError {
        let (nrows, ncols) = (self.nrows, self.ncols);
        let narrow = u32::try_from(r).is_ok() && u32::try_from(c).is_ok();
        match crate::layout::check_index_limit(nrows, ncols, self.nnz()) {
            Err(limit) if !narrow => limit,
            _ => FormatError::EntryOutOfRange { r, c, nrows, ncols },
        }
    }

    /// The entries a walk reached, in its order, each inside the shape
    /// and its index limit.
    pub(crate) fn walked(nrows: usize, ncols: usize, entries: Vec<(u32, u32, T)>) -> Triplets<T> {
        let normal = entries
            .windows(2)
            .all(|w| position(&w[0]) < position(&w[1]));
        let mut t = Triplets::new(nrows, ncols);
        (t.entries, t.normal) = (entries, normal);
        t
    }

    /// Room for `additional` more entries, so that pushing them moves
    /// none.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.entries.reserve_exact(additional);
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
    /// at once in normal form. The sort is stable: where the extents are
    /// not far past the number of entries, one counting scatter by row
    /// when each row's columns come strictly increasing (a column-major
    /// or diagonal walk), else two, by column and then by row; a
    /// comparison sort otherwise.
    pub fn normalize(&mut self) {
        if self.normal {
            return;
        }
        if self.nrows.max(self.ncols) <= 4 * self.entries.len() {
            let entries = std::mem::take(&mut self.entries);
            if rows_ascend(&entries, self.nrows) {
                // No two entries share a position: none is summed.
                (self.entries, self.normal) = (scatter(entries, |e| e.0, self.nrows), true);
                return;
            }
            let by_column = scatter(entries, |e| e.1, self.ncols);
            self.entries = scatter(by_column, |e| e.0, self.nrows);
        } else {
            self.entries.sort_by_key(position);
        }
        let mut out: Vec<(u32, u32, T)> = Vec::with_capacity(self.entries.len());
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
    pub fn entries(&self) -> &[(u32, u32, T)] {
        &self.entries
    }

    /// The entries, moved out, in the order of [`entries`](Self::entries).
    pub fn into_entries(self) -> Vec<(u32, u32, T)> {
        self.entries
    }

    /// The entries at the width of the shape, in the order of
    /// [`entries`](Self::entries): what the dense API
    /// ([`SparseMatrix::entries`](crate::SparseMatrix::entries)) hands out.
    pub(crate) fn wide_entries(&self) -> Vec<(usize, usize, T)> {
        let wide = |&(r, c, v): &(u32, u32, T)| (r as usize, c as usize, v);
        self.entries.iter().map(wide).collect()
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
            d[r as usize][c as usize] += v;
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
        self.entries.retain(|&(r, c, _)| f(r as usize, c as usize));
        self.normal = self.normal || self.entries.is_sorted_by(|a, b| position(a) < position(b));
    }

    /// The transpose, in normal form: a stable counting scatter by
    /// column of the normal form, no sort.
    pub fn transposed(&self) -> Triplets<T> {
        let t = self.normalized();
        let mut next = starts(t.entries().iter().map(|e| e.1), t.ncols);
        let mut entries = vec![(0, 0, T::ZERO); t.nnz()];
        for &(r, c, v) in t.entries() {
            entries[next[c as usize]] = (c, r, v);
            next[c as usize] += 1;
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
        t.reserve(self.nnz() + n);
        // A diagonal entry is the last of its row in a lower triangle:
        // rows `..next` have theirs, and a missing one is pushed when
        // the first entry of a later row (or the end) shows it missing.
        let (normal, mut next) = (self.normalized(), 0);
        for ((r, c), v) in normal.entries().iter().map(|e| (position(e), e.2)) {
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
        starts(self.entries.iter().map(|e| e.0), self.nrows)
    }

    /// Number of stored entries in each row.
    pub fn row_counts(&self) -> Vec<usize> {
        self.rowptr().windows(2).map(|w| w[1] - w[0]).collect()
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

    /// Both sorts of `normalize` (the counting scatters, and the
    /// comparison sort where an extent is far past the entries) make
    /// the entries of a stable sort by position, duplicates summed in
    /// push order, bit for bit: a `-0.0`, a NaN and sums whose order
    /// shows in their last bit.
    #[test]
    fn normalize_is_a_stable_sort_by_position() {
        use rand::{Rng, SeedableRng};
        let values = [-0.0, 0.0, f64::NAN, 0.1, 0.2, 0.3, -7.5, 1e16];
        for (seed, (rows, cols, n)) in [(6, 5, 40), (40, 3, 25), (2, 1000, 30), (0, 0, 0)]
            .into_iter()
            .enumerate()
        {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed as u64);
            let mut t = Triplets::new(rows, cols);
            for _ in 0..n {
                let v = values[rng.gen_range(0..values.len())];
                t.push(rng.gen_range(0..rows), rng.gen_range(0..cols), v);
            }
            let mut want: Vec<(u32, u32, f64)> = t.entries().to_vec();
            want.sort_by_key(position);
            want.dedup_by(|e, kept| {
                let same = position(e) == position(kept);
                if same {
                    kept.2 += e.2;
                }
                same
            });
            t.normalize();
            let bits = |es: &[(u32, u32, f64)]| -> Vec<_> {
                es.iter().map(|&(r, c, v)| (r, c, v.to_bits())).collect()
            };
            assert_eq!(bits(t.entries()), bits(&want), "{rows}x{cols}, {n} entries");
            assert!(t.normal);
        }
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
