//! Parallel `y += A·x` and `y += Aᵀ·x` for every stored format.
//!
//! `nthreads` sets the partition granularity (number of chunks); the
//! global [`Pool`] supplies however many lanes it has, stealing chunks
//! dynamically. Results depend only on the inputs and `nthreads`, never
//! on the pool size or scheduling (see the module docs of
//! [`crate::par`] for the bitwise-vs-deterministic taxonomy).
//!
//! Gather-shaped traversals run directly on disjoint output blocks with
//! the same per-element accumulation order as the sequential kernels.
//! Scatter-shaped traversals (CSC MVM, CSR/ELL/JAD transpose MVM) give
//! each chunk a private output buffer and reduce the buffers into `y`
//! in fixed chunk order — the reduction itself runs parallel over
//! disjoint ranges of `y`.

#![allow(clippy::needless_range_loop)] // indexed loops mirror the sequential kernels

use super::{partition, SlicePtr};
use bernoulli_formats::partition::split_even;
use bernoulli_formats::{Bsr, Csc, Csr, Dia, Ell, Jad, Scalar, Vbr};
use bernoulli_pool::Pool;

/// `y[i] += vals[i] * x[i]` over three equal-length slices.
///
/// The DIA kernels stream whole diagonal segments through this; taking
/// the slices as function parameters restores the no-alias guarantees
/// that the pool closure's raw-pointer-derived output block loses, so
/// the loop vectorizes like its sequential counterpart.
fn fma_stream<T: Scalar>(y: &mut [T], vals: &[T], x: &[T]) {
    debug_assert!(y.len() == vals.len() && y.len() == x.len());
    for ((yi, &v), &xi) in y.iter_mut().zip(vals).zip(x) {
        *yi += v * xi;
    }
}

/// `y += A·x` over nnz-balanced row blocks (CSR).
///
/// Bitwise equal to [`crate::handwritten::mvm_csr`] at every
/// `nthreads`: one writer per row, per-row accumulator, identical
/// accumulation order.
pub fn par_mvm_csr<T: Scalar + Send + Sync>(a: &Csr<T>, x: &[T], y: &mut [T], nthreads: usize) {
    assert_eq!(x.len(), a.ncols, "x length");
    assert_eq!(y.len(), a.nrows, "y length");
    let bounds = a.partition_rows(nthreads.max(1));
    let yp = SlicePtr::new(y);
    Pool::global().run(bounds.len() - 1, &|chunk| {
        let (lo, hi) = (bounds[chunk], bounds[chunk + 1]);
        // SAFETY: row blocks are disjoint across chunks.
        let yb = unsafe { yp.range_mut(lo, hi) };
        for i in lo..hi {
            let mut acc = T::ZERO;
            for p in a.row_range(i) {
                acc += a.values[p] * x[a.colind[p] as usize];
            }
            yb[i - lo] += acc;
        }
    });
}

/// `y += Aᵀ·x` over nnz-balanced column blocks (CSC): the gather dual
/// of [`par_mvm_csr`]; bitwise equal to
/// [`crate::handwritten::mvmt_csc`].
pub fn par_mvmt_csc<T: Scalar + Send + Sync>(a: &Csc<T>, x: &[T], y: &mut [T], nthreads: usize) {
    assert_eq!(x.len(), a.nrows, "x length");
    assert_eq!(y.len(), a.ncols, "y length");
    let bounds = a.partition_cols(nthreads.max(1));
    let yp = SlicePtr::new(y);
    Pool::global().run(bounds.len() - 1, &|chunk| {
        let (lo, hi) = (bounds[chunk], bounds[chunk + 1]);
        // SAFETY: column blocks are disjoint across chunks.
        let yb = unsafe { yp.range_mut(lo, hi) };
        for j in lo..hi {
            let mut acc = T::ZERO;
            for p in a.col_range(j) {
                acc += a.values[p] * x[a.rowind[p] as usize];
            }
            yb[j - lo] += acc;
        }
    });
}

/// `y += A·x` over fill-balanced row blocks (ELL); bitwise equal to
/// [`crate::handwritten::mvm_ell`].
pub fn par_mvm_ell<T: Scalar + Send + Sync>(a: &Ell<T>, x: &[T], y: &mut [T], nthreads: usize) {
    assert_eq!(x.len(), a.ncols, "x length");
    assert_eq!(y.len(), a.nrows, "y length");
    let bounds = partition::ell_row_blocks(a, nthreads.max(1));
    let yp = SlicePtr::new(y);
    Pool::global().run(bounds.len() - 1, &|chunk| {
        let (lo, hi) = (bounds[chunk], bounds[chunk + 1]);
        // SAFETY: row blocks are disjoint across chunks.
        let yb = unsafe { yp.range_mut(lo, hi) };
        for i in lo..hi {
            let mut acc = T::ZERO;
            let base = i * a.width;
            for s in 0..a.rowlen[i] as usize {
                acc += a.values[base + s] * x[a.colind[base + s] as usize];
            }
            yb[i - lo] += acc;
        }
    });
}

/// `y += A·x` over fill-balanced *permuted*-row blocks (JAD), through
/// the hierarchical perspective (`rr -> d`) rather than the sequential
/// kernel's diagonal-major scatter.
///
/// Each output element `y[iperm[rr]]` has exactly one writer and
/// accumulates its diagonals in the same (ascending `d`) order as
/// [`crate::handwritten::mvm_jad`], so the result is bitwise equal to
/// the sequential kernel whenever `y` starts zeroed, and deterministic
/// always.
pub fn par_mvm_jad<T: Scalar + Send + Sync>(a: &Jad<T>, x: &[T], y: &mut [T], nthreads: usize) {
    assert_eq!(x.len(), a.ncols, "x length");
    assert_eq!(y.len(), a.nrows, "y length");
    let bounds = partition::jad_row_blocks(a, nthreads.max(1));
    let yp = SlicePtr::new(y);
    Pool::global().run(bounds.len() - 1, &|chunk| {
        for rr in bounds[chunk]..bounds[chunk + 1] {
            let mut acc = T::ZERO;
            for d in 0..a.rowlen[rr] as usize {
                let jj = a.dptr[d] as usize + rr;
                acc += a.values[jj] * x[a.colind[jj] as usize];
            }
            // SAFETY: `iperm` is a permutation and the `rr` blocks are
            // disjoint, so each `y` element has exactly one writer.
            unsafe { *yp.at_mut(a.iperm[rr] as usize) += acc };
        }
    });
}

/// `y += A·x` over coverage-balanced row blocks (DIA): each chunk walks
/// every stored diagonal restricted to its row range; per output
/// element the diagonals apply in ascending-`k` order, exactly the
/// sequential order, so the result is bitwise equal to
/// [`crate::handwritten::mvm_dia`].
pub fn par_mvm_dia<T: Scalar + Send + Sync>(a: &Dia<T>, x: &[T], y: &mut [T], nthreads: usize) {
    assert_eq!(x.len(), a.ncols, "x length");
    assert_eq!(y.len(), a.nrows, "y length");
    let bounds = partition::dia_row_blocks(a, nthreads.max(1));
    let yp = SlicePtr::new(y);
    Pool::global().run(bounds.len() - 1, &|chunk| {
        let (lo_r, hi_r) = (bounds[chunk] as i64, bounds[chunk + 1] as i64);
        // SAFETY: row blocks are disjoint across chunks.
        let yb = unsafe { yp.range_mut(lo_r as usize, hi_r as usize) };
        for k in 0..a.diags.len() {
            let d = a.diags[k];
            let base = a.ptr[k] as usize;
            let lo = a.lo[k];
            // Diagonal k covers rows d + lo .. d + hi, i.e. column
            // offsets lo .. hi; restrict to this chunk's rows.
            let o0 = lo.max(lo_r - d);
            let o1 = a.hi[k].min(hi_r - d);
            if o1 <= o0 {
                continue;
            }
            let vals = &a.values[base + (o0 - lo) as usize..base + (o1 - lo) as usize];
            fma_stream(
                &mut yb[(d + o0 - lo_r) as usize..(d + o1 - lo_r) as usize],
                vals,
                &x[o0 as usize..o1 as usize],
            );
        }
    });
}

/// `y += Aᵀ·x` over coverage-balanced *column* blocks (DIA): the
/// transpose swaps the roles of `r = d + o` and `c = o`, turning the
/// scatter into a gather; bitwise equal to
/// [`crate::handwritten::mvmt_dia`].
pub fn par_mvmt_dia<T: Scalar + Send + Sync>(a: &Dia<T>, x: &[T], y: &mut [T], nthreads: usize) {
    assert_eq!(x.len(), a.nrows, "x length");
    assert_eq!(y.len(), a.ncols, "y length");
    let bounds = partition::dia_col_blocks(a, nthreads.max(1));
    let yp = SlicePtr::new(y);
    Pool::global().run(bounds.len() - 1, &|chunk| {
        let (lo_c, hi_c) = (bounds[chunk] as i64, bounds[chunk + 1] as i64);
        // SAFETY: column blocks are disjoint across chunks.
        let yb = unsafe { yp.range_mut(lo_c as usize, hi_c as usize) };
        for k in 0..a.diags.len() {
            let d = a.diags[k];
            let base = a.ptr[k] as usize;
            let lo = a.lo[k];
            let o0 = lo.max(lo_c);
            let o1 = a.hi[k].min(hi_c);
            if o1 <= o0 {
                continue;
            }
            let vals = &a.values[base + (o0 - lo) as usize..base + (o1 - lo) as usize];
            fma_stream(
                &mut yb[(o0 - lo_c) as usize..(o1 - lo_c) as usize],
                vals,
                &x[(d + o0) as usize..(d + o1) as usize],
            );
        }
    });
}

/// `y += A·x` for CSC — a scatter along columns, parallelized with
/// per-chunk partial outputs reduced in fixed chunk order
/// (deterministic; equal to [`crate::handwritten::mvm_csc`] up to
/// floating-point reassociation).
pub fn par_mvm_csc<T: Scalar + Send + Sync>(a: &Csc<T>, x: &[T], y: &mut [T], nthreads: usize) {
    assert_eq!(x.len(), a.ncols, "x length");
    assert_eq!(y.len(), a.nrows, "y length");
    let bounds = a.partition_cols(nthreads.max(1));
    scatter_reduce(&bounds, a.nrows, y, nthreads, &|chunk, buf| {
        for j in bounds[chunk]..bounds[chunk + 1] {
            let xj = x[j];
            for p in a.col_range(j) {
                buf[a.rowind[p] as usize] += a.values[p] * xj;
            }
        }
    });
}

/// `y += Aᵀ·x` for CSR — a scatter along rows, parallelized with
/// per-chunk partial outputs reduced in fixed chunk order.
pub fn par_mvmt_csr<T: Scalar + Send + Sync>(a: &Csr<T>, x: &[T], y: &mut [T], nthreads: usize) {
    assert_eq!(x.len(), a.nrows, "x length");
    assert_eq!(y.len(), a.ncols, "y length");
    let bounds = a.partition_rows(nthreads.max(1));
    scatter_reduce(&bounds, a.ncols, y, nthreads, &|chunk, buf| {
        for i in bounds[chunk]..bounds[chunk + 1] {
            let xi = x[i];
            for p in a.row_range(i) {
                buf[a.colind[p] as usize] += a.values[p] * xi;
            }
        }
    });
}

/// `y += Aᵀ·x` for ELL — a scatter along rows, parallelized with
/// per-chunk partial outputs reduced in fixed chunk order.
pub fn par_mvmt_ell<T: Scalar + Send + Sync>(a: &Ell<T>, x: &[T], y: &mut [T], nthreads: usize) {
    assert_eq!(x.len(), a.nrows, "x length");
    assert_eq!(y.len(), a.ncols, "y length");
    let bounds = partition::ell_row_blocks(a, nthreads.max(1));
    scatter_reduce(&bounds, a.ncols, y, nthreads, &|chunk, buf| {
        for i in bounds[chunk]..bounds[chunk + 1] {
            let xi = x[i];
            let base = i * a.width;
            for s in 0..a.rowlen[i] as usize {
                buf[a.colind[base + s] as usize] += a.values[base + s] * xi;
            }
        }
    });
}

/// `y += Aᵀ·x` for JAD — a scatter through the hierarchical
/// perspective over permuted-row blocks, with per-chunk partial outputs
/// reduced in fixed chunk order.
pub fn par_mvmt_jad<T: Scalar + Send + Sync>(a: &Jad<T>, x: &[T], y: &mut [T], nthreads: usize) {
    assert_eq!(x.len(), a.nrows, "x length");
    assert_eq!(y.len(), a.ncols, "y length");
    let bounds = partition::jad_row_blocks(a, nthreads.max(1));
    scatter_reduce(&bounds, a.ncols, y, nthreads, &|chunk, buf| {
        for rr in bounds[chunk]..bounds[chunk + 1] {
            let xi = x[a.iperm[rr] as usize];
            for d in 0..a.rowlen[rr] as usize {
                let jj = a.dptr[d] as usize + rr;
                buf[a.colind[jj] as usize] += a.values[jj] * xi;
            }
        }
    });
}

/// `y += A·x` over cell-balanced, block-aligned row blocks (BSR).
///
/// The chunk bounds from [`Bsr::partition_rows`] are multiples of the
/// block height, so each chunk runs the register-tiled block-row kernel
/// ([`crate::handwritten::mvm_bsr`]) on whole block rows; per-row
/// accumulation order is chunk-independent, so the result is bitwise
/// equal to the sequential kernel at every `nthreads`.
pub fn par_mvm_bsr<T: Scalar + Send + Sync>(a: &Bsr<T>, x: &[T], y: &mut [T], nthreads: usize) {
    assert_eq!(x.len(), a.ncols, "x length");
    assert_eq!(y.len(), a.nrows, "y length");
    let bounds = a.partition_rows(nthreads.max(1));
    let yp = SlicePtr::new(y);
    Pool::global().run(bounds.len() - 1, &|chunk| {
        let (lo, hi) = (bounds[chunk], bounds[chunk + 1]);
        // SAFETY: row blocks are disjoint across chunks.
        let yb = unsafe { yp.range_mut(lo, hi) };
        crate::handwritten::bsr::mvm_bsr_rows(a, x, yb, lo / a.r, hi / a.r);
    });
}

/// `y += A·x` over cell-balanced, strip-aligned row blocks (VBR);
/// bitwise equal to [`crate::handwritten::mvm_vbr`] at every
/// `nthreads` (one writer per row, chunk-independent accumulation
/// order).
pub fn par_mvm_vbr<T: Scalar + Send + Sync>(a: &Vbr<T>, x: &[T], y: &mut [T], nthreads: usize) {
    assert_eq!(x.len(), a.ncols, "x length");
    assert_eq!(y.len(), a.nrows, "y length");
    let bounds = a.partition_rows(nthreads.max(1));
    let yp = SlicePtr::new(y);
    Pool::global().run(bounds.len() - 1, &|chunk| {
        let (lo, hi) = (bounds[chunk], bounds[chunk + 1]);
        // SAFETY: row blocks are disjoint across chunks.
        let yb = unsafe { yp.range_mut(lo, hi) };
        crate::handwritten::vbr::mvm_vbr_strips(a, x, yb, vbr_strip(a, lo), vbr_strip(a, hi));
    });
}

/// Strip index of a strip-aligned logical-row bound.
fn vbr_strip<T: Scalar>(a: &Vbr<T>, row: usize) -> usize {
    if row == a.nrows {
        a.rpntr.len() - 1
    } else {
        a.rowblk[row] as usize
    }
}

/// `y += Aᵀ·x` for BSR — a scatter along block rows, parallelized with
/// per-chunk partial outputs reduced in fixed chunk order.
pub fn par_mvmt_bsr<T: Scalar + Send + Sync>(a: &Bsr<T>, x: &[T], y: &mut [T], nthreads: usize) {
    assert_eq!(x.len(), a.nrows, "x length");
    assert_eq!(y.len(), a.ncols, "y length");
    let bounds = a.partition_rows(nthreads.max(1));
    scatter_reduce(&bounds, a.ncols, y, nthreads, &|chunk, buf| {
        crate::handwritten::bsr::mvmt_bsr_rows(
            a,
            x,
            buf,
            bounds[chunk] / a.r,
            bounds[chunk + 1] / a.r,
        );
    });
}

/// `y += Aᵀ·x` for VBR — a scatter along block strips, parallelized
/// with per-chunk partial outputs reduced in fixed chunk order.
pub fn par_mvmt_vbr<T: Scalar + Send + Sync>(a: &Vbr<T>, x: &[T], y: &mut [T], nthreads: usize) {
    assert_eq!(x.len(), a.nrows, "x length");
    assert_eq!(y.len(), a.ncols, "y length");
    let bounds = a.partition_rows(nthreads.max(1));
    scatter_reduce(&bounds, a.ncols, y, nthreads, &|chunk, buf| {
        crate::handwritten::vbr::mvmt_vbr_strips(
            a,
            x,
            buf,
            vbr_strip(a, bounds[chunk]),
            vbr_strip(a, bounds[chunk + 1]),
        );
    });
}

/// Runs a scatter kernel with one private zeroed buffer per chunk, then
/// reduces the buffers into `y` in ascending chunk order (the reduction
/// is itself parallel over disjoint `y` ranges, preserving that order
/// per element). A single chunk scatters straight into `y` — the same
/// operation sequence the sequential kernels perform, so `nthreads <= 1`
/// is bitwise-identical to sequential with zero extra allocation.
fn scatter_reduce<T: Scalar + Send + Sync>(
    bounds: &[usize],
    out_len: usize,
    y: &mut [T],
    nthreads: usize,
    body: &(dyn Fn(usize, &mut [T]) + Sync),
) {
    let nchunks = bounds.len() - 1;
    if nchunks == 0 {
        return;
    }
    if nchunks == 1 {
        body(0, y);
        return;
    }
    let mut partials = vec![T::ZERO; nchunks * out_len];
    let pp = SlicePtr::new(&mut partials);
    Pool::global().run(nchunks, &|chunk| {
        // SAFETY: each chunk owns its own stripe of `partials`.
        let buf = unsafe { pp.range_mut(chunk * out_len, (chunk + 1) * out_len) };
        body(chunk, buf);
    });
    let red = split_even(out_len, nthreads.max(1));
    let yp = SlicePtr::new(y);
    Pool::global().run(red.len() - 1, &|r| {
        let (lo, hi) = (red[r], red[r + 1]);
        // SAFETY: reduction ranges are disjoint across chunks, and
        // `partials` is only read here.
        let yb = unsafe { yp.range_mut(lo, hi) };
        for chunk in 0..nchunks {
            let base = chunk * out_len;
            for i in lo..hi {
                yb[i - lo] += partials[base + i];
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handwritten as hw;
    use bernoulli_formats::{gen, Triplets};

    const THREADS: [usize; 5] = [1, 2, 3, 7, 16];

    fn workload() -> (Triplets<f64>, Vec<f64>) {
        (
            gen::structurally_symmetric(500, 3000, 40, 3),
            gen::dense_vector(500, 5),
        )
    }

    #[test]
    fn matches_sequential_bitwise() {
        let (t, x) = workload();
        let a = Csr::from_triplets(&t);
        let mut y_seq = vec![0.0; 500];
        hw::mvm_csr(&a, &x, &mut y_seq);
        for threads in THREADS {
            let mut y_par = vec![0.0; 500];
            par_mvm_csr(&a, &x, &mut y_par, threads);
            assert_eq!(y_seq, y_par, "threads = {threads}");
        }
    }

    #[test]
    fn more_threads_than_rows() {
        let t = gen::tridiagonal(3);
        let a = Csr::from_triplets(&t);
        let x = vec![1.0, 0.0, 1.0];
        let mut y = vec![0.0; 3];
        par_mvm_csr(&a, &x, &mut y, 64);
        let mut y_seq = vec![0.0; 3];
        hw::mvm_csr(&a, &x, &mut y_seq);
        assert_eq!(y, y_seq);
    }

    #[test]
    fn empty_matrix() {
        let a = Csr::<f64>::from_triplets(&Triplets::new(0, 0));
        let mut y: Vec<f64> = vec![];
        par_mvm_csr(&a, &[], &mut y, 4);
        assert!(y.is_empty());
    }

    #[test]
    fn gather_kernels_bitwise_equal_all_formats() {
        let (t, x) = workload();
        for threads in THREADS {
            let ell = Ell::from_triplets(&t);
            let mut y_seq = vec![0.25; 500];
            let mut y_par = y_seq.clone();
            hw::mvm_ell(&ell, &x, &mut y_seq);
            par_mvm_ell(&ell, &x, &mut y_par, threads);
            assert_eq!(y_seq, y_par, "ell mvm, threads = {threads}");

            let dia = Dia::from_triplets(&gen::banded(300, 5, 9));
            let xb = gen::dense_vector(300, 2);
            let mut y_seq = vec![0.25; 300];
            let mut y_par = y_seq.clone();
            hw::mvm_dia(&dia, &xb, &mut y_seq);
            par_mvm_dia(&dia, &xb, &mut y_par, threads);
            assert_eq!(y_seq, y_par, "dia mvm, threads = {threads}");

            let mut y_seq = vec![0.25; 300];
            let mut y_par = y_seq.clone();
            hw::mvmt_dia(&dia, &xb, &mut y_seq);
            par_mvmt_dia(&dia, &xb, &mut y_par, threads);
            assert_eq!(y_seq, y_par, "dia mvmt, threads = {threads}");

            let csc = Csc::from_triplets(&t);
            let mut y_seq = vec![0.25; 500];
            let mut y_par = y_seq.clone();
            hw::mvmt_csc(&csc, &x, &mut y_seq);
            par_mvmt_csc(&csc, &x, &mut y_par, threads);
            assert_eq!(y_seq, y_par, "csc mvmt, threads = {threads}");

            let jad = Jad::from_triplets(&t);
            let mut y_seq = vec![0.0; 500];
            let mut y_par = vec![0.0; 500];
            hw::mvm_jad(&jad, &x, &mut y_seq);
            par_mvm_jad(&jad, &x, &mut y_par, threads);
            assert_eq!(y_seq, y_par, "jad mvm (zeroed y), threads = {threads}");
        }
    }

    #[test]
    fn blocked_kernels_bitwise_equal_pools_1_2_8() {
        use bernoulli_formats::{discover_strips, Bsr, Vbr};
        // Pool sizes from the blocked-tier acceptance criteria; partial
        // fill makes the block rows genuinely unbalanced.
        let t = gen::fem_blocked(240, 4, 3, 0.7, 41);
        let x = gen::dense_vector(240, 6);
        let bsr = Bsr::from_triplets(&t, 4, 4);
        let (rp, cp) = discover_strips(&t);
        let vbr = Vbr::from_triplets(&t, &rp, &cp);

        let mut y_seq = vec![0.125; 240];
        hw::mvm_bsr(&bsr, &x, &mut y_seq);
        let mut z_seq = vec![0.125; 240];
        hw::mvm_vbr(&vbr, &x, &mut z_seq);
        for threads in [1usize, 2, 8] {
            let mut y_par = vec![0.125; 240];
            par_mvm_bsr(&bsr, &x, &mut y_par, threads);
            assert_eq!(y_seq, y_par, "bsr mvm, threads = {threads}");

            let mut z_par = vec![0.125; 240];
            par_mvm_vbr(&vbr, &x, &mut z_par, threads);
            assert_eq!(z_seq, z_par, "vbr mvm, threads = {threads}");
        }
    }

    #[test]
    fn blocked_transpose_matches_sequential_closely() {
        use bernoulli_formats::{discover_strips, Bsr, Vbr};
        let t = gen::fem_blocked(120, 3, 2, 0.8, 43);
        let x = gen::dense_vector(120, 9);
        let bsr = Bsr::from_triplets(&t, 3, 3);
        let (rp, cp) = discover_strips(&t);
        let vbr = Vbr::from_triplets(&t, &rp, &cp);
        let close = |a: &[f64], b: &[f64], what: &str| {
            for (i, (u, v)) in a.iter().zip(b).enumerate() {
                assert!(
                    (u - v).abs() <= 1e-12 * (1.0 + u.abs().max(v.abs())),
                    "{what}[{i}]: {u} vs {v}"
                );
            }
        };
        for threads in [1usize, 2, 8] {
            let mut y_seq = vec![0.0; 120];
            hw::mvmt_bsr(&bsr, &x, &mut y_seq);
            let mut y_par = vec![0.0; 120];
            par_mvmt_bsr(&bsr, &x, &mut y_par, threads);
            close(&y_seq, &y_par, "bsr mvmt");
            if threads == 1 {
                assert_eq!(y_seq, y_par, "single chunk is bitwise sequential");
            }

            let mut y_seq = vec![0.0; 120];
            hw::mvmt_vbr(&vbr, &x, &mut y_seq);
            let mut y_par = vec![0.0; 120];
            par_mvmt_vbr(&vbr, &x, &mut y_par, threads);
            close(&y_seq, &y_par, "vbr mvmt");
        }
    }

    #[test]
    fn scatter_kernels_match_sequential_closely() {
        let (t, x) = workload();
        let csr = Csr::from_triplets(&t);
        let csc = Csc::from_triplets(&t);
        let ell = Ell::from_triplets(&t);
        let jad = Jad::from_triplets(&t);
        let close = |a: &[f64], b: &[f64], what: &str| {
            for (i, (u, v)) in a.iter().zip(b).enumerate() {
                assert!(
                    (u - v).abs() <= 1e-12 * (1.0 + u.abs().max(v.abs())),
                    "{what}[{i}]: {u} vs {v}"
                );
            }
        };
        for threads in THREADS {
            let mut y_seq = vec![0.0; 500];
            hw::mvm_csc(&csc, &x, &mut y_seq);
            let mut y_par = vec![0.0; 500];
            par_mvm_csc(&csc, &x, &mut y_par, threads);
            close(&y_seq, &y_par, "csc mvm");

            let mut y_seq = vec![0.0; 500];
            hw::mvmt_csr(&csr, &x, &mut y_seq);
            let mut y_par = vec![0.0; 500];
            par_mvmt_csr(&csr, &x, &mut y_par, threads);
            close(&y_seq, &y_par, "csr mvmt");

            let mut y_seq = vec![0.0; 500];
            hw::mvmt_ell(&ell, &x, &mut y_seq);
            let mut y_par = vec![0.0; 500];
            par_mvmt_ell(&ell, &x, &mut y_par, threads);
            close(&y_seq, &y_par, "ell mvmt");

            let mut y_seq = vec![0.0; 500];
            hw::mvmt_jad(&jad, &x, &mut y_seq);
            let mut y_par = vec![0.0; 500];
            par_mvmt_jad(&jad, &x, &mut y_par, threads);
            close(&y_seq, &y_par, "jad mvmt");
        }
    }

    #[test]
    fn single_chunk_scatter_is_bitwise_sequential() {
        let (t, x) = workload();
        let csc = Csc::from_triplets(&t);
        let mut y_seq = vec![0.5; 500];
        let mut y_par = y_seq.clone();
        hw::mvm_csc(&csc, &x, &mut y_seq);
        par_mvm_csc(&csc, &x, &mut y_par, 1);
        assert_eq!(y_seq, y_par);
    }

    #[test]
    fn rectangular_shapes() {
        let t = gen::random_sparse(37, 61, 300, 8);
        let x_c = gen::dense_vector(61, 1);
        let x_r = gen::dense_vector(37, 2);
        let csr = Csr::from_triplets(&t);
        let csc = Csc::from_triplets(&t);
        for threads in THREADS {
            let mut y1 = vec![0.0; 37];
            par_mvm_csr(&csr, &x_c, &mut y1, threads);
            let mut y2 = vec![0.0; 37];
            par_mvm_csc(&csc, &x_c, &mut y2, threads);
            for (u, v) in y1.iter().zip(&y2) {
                assert!((u - v).abs() < 1e-12);
            }
            let mut z1 = vec![0.0; 61];
            par_mvmt_csr(&csr, &x_r, &mut z1, threads);
            let mut z2 = vec![0.0; 61];
            par_mvmt_csc(&csc, &x_r, &mut z2, threads);
            for (u, v) in z1.iter().zip(&z2) {
                assert!((u - v).abs() < 1e-12);
            }
        }
    }
}
