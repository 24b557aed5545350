//! Level-scheduled (wavefront) parallel lower triangular solve.
//!
//! A triangular solve has loop-carried dependences — row `i` needs
//! `b[j]` for every stored `j < i` — so it cannot be row-blocked like
//! MVM. But the dependence *graph* is usually shallow: assigning each
//! row the level `1 + max(level of its dependences)` groups rows into
//! wavefronts that are mutually independent within a level. The solve
//! then sweeps levels sequentially and rows within a level in parallel.
//! Computing the schedule is O(nnz) and depends only on the pattern, so
//! it can be built once and reused across solves with the same matrix
//! (the usual case in preconditioned iterative methods).
//!
//! Each row performs exactly the operation sequence of the sequential
//! [`crate::handwritten::ts_csr`], so the result is bitwise equal to it
//! at every thread count.

use super::SlicePtr;
use bernoulli_formats::partition::split_ptr_by_cost;
use bernoulli_formats::{Csr, Scalar};
use bernoulli_pool::Pool;

/// A wavefront schedule for a lower triangular CSR pattern: rows
/// grouped by dependence depth.
#[derive(Clone, Debug)]
pub struct LevelSchedule {
    /// Rows sorted by (level, row index); within a level rows keep
    /// their natural order.
    rows: Vec<usize>,
    /// `lptr[l]..lptr[l+1]` indexes the rows of level `l` in `rows`
    /// (`len == nlevels + 1`).
    lptr: Vec<usize>,
}

impl LevelSchedule {
    /// Builds the schedule from the strictly-lower part of `l`'s
    /// pattern: `level[i] = 1 + max(level[j])` over stored `j < i`
    /// (0 for rows with no sub-diagonal entries).
    pub fn build<T: Scalar>(l: &Csr<T>) -> LevelSchedule {
        let n = l.nrows;
        let mut level = vec![0usize; n];
        let mut nlevels = 0usize;
        for i in 0..n {
            let mut lv = 0usize;
            for p in l.row_range(i) {
                let c = l.colind[p] as usize;
                if c < i {
                    lv = lv.max(level[c] + 1);
                }
            }
            level[i] = lv;
            nlevels = nlevels.max(lv + 1);
        }
        if n == 0 {
            return LevelSchedule {
                rows: vec![],
                lptr: vec![0],
            };
        }
        // Counting sort by level; stable, so rows stay ascending within
        // each level.
        let mut lptr = vec![0usize; nlevels + 1];
        for &lv in &level {
            lptr[lv + 1] += 1;
        }
        for l in 0..nlevels {
            lptr[l + 1] += lptr[l];
        }
        let mut rows = vec![0usize; n];
        let mut fill = lptr.clone();
        for (i, &lv) in level.iter().enumerate() {
            rows[fill[lv]] = i;
            fill[lv] += 1;
        }
        LevelSchedule { rows, lptr }
    }

    /// Number of wavefronts (0 for an empty matrix).
    pub fn nlevels(&self) -> usize {
        self.lptr.len() - 1
    }

    /// The rows of level `l`, in ascending row order.
    pub fn level_rows(&self, l: usize) -> &[usize] {
        &self.rows[self.lptr[l]..self.lptr[l + 1]]
    }

    /// Average rows per level — the available parallelism.
    pub fn avg_width(&self) -> f64 {
        if self.nlevels() == 0 {
            return 0.0;
        }
        self.rows.len() as f64 / self.nlevels() as f64
    }
}

/// Solves `L·b' = b` in place with a freshly built [`LevelSchedule`];
/// `l` must store its full diagonal and only lower-triangle entries.
pub fn par_ts_csr<T: Scalar + Send + Sync>(l: &Csr<T>, b: &mut [T], nthreads: usize) {
    let sched = LevelSchedule::build(l);
    par_ts_csr_scheduled(l, &sched, b, nthreads);
}

/// Solves `L·b' = b` in place, reusing a prebuilt schedule (amortizes
/// the O(nnz) analysis over repeated solves).
pub fn par_ts_csr_scheduled<T: Scalar + Send + Sync>(
    l: &Csr<T>,
    sched: &LevelSchedule,
    b: &mut [T],
    nthreads: usize,
) {
    assert_eq!(l.nrows, l.ncols, "square");
    assert_eq!(b.len(), l.nrows, "b length");
    let nthreads = nthreads.max(1);
    let bp = SlicePtr::new(b);
    for lv in 0..sched.nlevels() {
        let rows = sched.level_rows(lv);
        // nnz-balance the level's rows.
        let mut cost = Vec::with_capacity(rows.len() + 1);
        cost.push(0u32);
        for &i in rows {
            cost.push(cost.last().unwrap() + (l.rowptr[i + 1] - l.rowptr[i]));
        }
        let bounds = split_ptr_by_cost(&cost, nthreads);
        // Each `Pool::run` is a full barrier: writes from level `lv`
        // happen-before every read in level `lv + 1`.
        Pool::global().run(bounds.len() - 1, &|chunk| {
            for &i in &rows[bounds[chunk]..bounds[chunk + 1]] {
                // SAFETY: within a level each row is written by exactly
                // one chunk, and reads touch only rows of strictly
                // lower levels, finished behind the previous barrier.
                unsafe {
                    let mut acc = bp.read(i);
                    let mut diag = T::ZERO;
                    for p in l.row_range(i) {
                        let c = l.colind[p] as usize;
                        if c < i {
                            acc -= l.values[p] * bp.read(c);
                        } else if c == i {
                            diag = l.values[p];
                        }
                    }
                    *bp.at_mut(i) = acc / diag;
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handwritten as hw;
    use bernoulli_formats::{gen, Triplets};

    #[test]
    fn schedule_of_known_pattern() {
        // Rows: 0 and 1 independent (level 0); 2 depends on 0 (level 1);
        // 3 depends on 2 (level 2); 4 depends on 1 (level 1).
        let t = Triplets::from_entries(
            5,
            5,
            &[
                (0, 0, 2.0),
                (1, 1, 2.0),
                (2, 0, 1.0),
                (2, 2, 2.0),
                (3, 2, 1.0),
                (3, 3, 2.0),
                (4, 1, 1.0),
                (4, 4, 2.0),
            ],
        );
        let l = Csr::from_triplets(&t);
        let sched = LevelSchedule::build(&l);
        assert_eq!(sched.nlevels(), 3);
        assert_eq!(sched.level_rows(0), &[0, 1]);
        assert_eq!(sched.level_rows(1), &[2, 4]);
        assert_eq!(sched.level_rows(2), &[3]);
        assert!((sched.avg_width() - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn diagonal_matrix_is_one_level() {
        let mut t = Triplets::new(8, 8);
        for i in 0..8 {
            t.push(i, i, 2.0);
        }
        t.normalize();
        let l = Csr::from_triplets(&t);
        let sched = LevelSchedule::build(&l);
        assert_eq!(sched.nlevels(), 1);
        assert_eq!(sched.level_rows(0).len(), 8);
    }

    #[test]
    fn dense_lower_triangle_is_fully_sequential() {
        let mut t = Triplets::new(6, 6);
        for i in 0..6 {
            for j in 0..=i {
                t.push(i, j, if i == j { 4.0 } else { 1.0 });
            }
        }
        t.normalize();
        let sched = LevelSchedule::build(&Csr::from_triplets(&t));
        assert_eq!(sched.nlevels(), 6);
    }

    #[test]
    fn matches_sequential_bitwise() {
        let t = gen::structurally_symmetric(400, 2600, 25, 11).lower_triangle_full_diag(3.0);
        let l = Csr::from_triplets(&t);
        let b0 = gen::dense_vector(400, 7);
        let mut b_seq = b0.clone();
        hw::ts_csr(&l, &mut b_seq);
        for threads in [1, 2, 3, 7, 16] {
            let mut b_par = b0.clone();
            par_ts_csr(&l, &mut b_par, threads);
            assert_eq!(b_seq, b_par, "threads = {threads}");
        }
    }

    #[test]
    fn reused_schedule_matches_fresh() {
        let t = gen::banded(120, 4, 3).lower_triangle_full_diag(2.5);
        let l = Csr::from_triplets(&t);
        let sched = LevelSchedule::build(&l);
        let b0 = gen::dense_vector(120, 9);
        let mut b1 = b0.clone();
        let mut b2 = b0.clone();
        par_ts_csr(&l, &mut b1, 4);
        par_ts_csr_scheduled(&l, &sched, &mut b2, 4);
        assert_eq!(b1, b2);
    }

    #[test]
    fn empty_system() {
        let l = Csr::<f64>::from_triplets(&Triplets::new(0, 0));
        let mut b: Vec<f64> = vec![];
        par_ts_csr(&l, &mut b, 4);
        assert!(b.is_empty());
    }
}
