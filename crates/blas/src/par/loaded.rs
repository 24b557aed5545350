//! Parallel dispatch of runtime-**loaded** kernels: the compiled-kernel
//! execution path meets the nnz-balanced parallel lane.
//!
//! A [`LoadedKernel`] whose plan is row-range splittable exports a
//! ranged `extern "C"` entry; these drivers cut the matrix into the
//! same nnz-balanced row blocks the hand-written parallel kernels use
//! and dispatch each block through that entry on the global [`Pool`].
//! Outputs are shared across chunks via [`RawOut`] — sound because the
//! ranged entry writes exactly the rows of its band.
//!
//! Determinism matches [`crate::par::mvm`]: one writer per output row
//! and the same per-row accumulation order as the sequential kernel,
//! so results are bitwise equal to a full-range `run` at every
//! `nthreads`.

use super::partition;
use bernoulli_formats::{Bsr, Csr, Ell, Vbr};
use bernoulli_pool::Pool;
use bernoulli_synth::{KernelArg, KernelCallError, LoadedKernel, RawOut};
use std::sync::Mutex;

/// Runs a row-ranged loaded kernel over nnz-balanced row `bounds`
/// (as produced by `partition_rows`/`ell_row_blocks`: `bounds[c]..
/// bounds[c+1]` is chunk `c`), building each chunk's operand list with
/// `make_args`. The first chunk error (if any) is returned.
///
/// `make_args` runs once per chunk on a pool worker; shared outputs
/// must be passed as [`KernelArg::OutShared`] so chunks do not alias
/// `&mut` slices.
pub fn par_run_rows<'a, F>(
    k: &LoadedKernel,
    params: &[i64],
    bounds: &[usize],
    make_args: &F,
) -> Result<(), KernelCallError>
where
    F: Fn() -> Vec<KernelArg<'a>> + Sync,
{
    if !k.supports_ranged() {
        return Err(KernelCallError::NoRangedEntry);
    }
    if bounds.len() < 2 {
        return Ok(());
    }
    let first_err: Mutex<Option<KernelCallError>> = Mutex::new(None);
    Pool::global().run(bounds.len() - 1, &|chunk| {
        let (lo, hi) = (bounds[chunk], bounds[chunk + 1]);
        let mut args = make_args();
        if let Err(e) = k.run_range(params, &mut args, lo as i64, hi as i64) {
            slot(first_err.lock()).get_or_insert(e);
        }
    });
    slot(first_err.into_inner()).map_or(Ok(()), Err)
}

/// The first-error slot behind a lock result. A chunk that panicked
/// while holding the lock poisons it but cannot leave the `Option` half
/// written, so the error recorded so far is still the one to report.
fn slot<T>(locked: std::sync::LockResult<T>) -> T {
    locked.unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// `y += A·x` through a loaded CSR MVM kernel over nnz-balanced row
/// blocks — the loaded-kernel analogue of [`super::par_mvm_csr`],
/// bitwise equal to a sequential `run` of the same kernel.
pub fn par_loaded_mvm_csr(
    k: &LoadedKernel,
    a: &Csr<f64>,
    x: &[f64],
    y: &mut [f64],
    nthreads: usize,
) -> Result<(), KernelCallError> {
    assert_eq!(x.len(), a.ncols, "x length");
    assert_eq!(y.len(), a.nrows, "y length");
    let bounds = a.partition_rows(nthreads.max(1));
    // SAFETY: each ranged call writes only rows lo..hi of y, and the
    // row blocks are disjoint across chunks.
    let yo = unsafe { RawOut::new(y.as_mut_ptr(), y.len()) };
    par_run_rows(k, &[a.nrows as i64, a.ncols as i64], &bounds, &|| {
        vec![
            KernelArg::Csr(a),
            KernelArg::In(x),
            KernelArg::OutShared(yo),
        ]
    })
}

/// `y += A·x` through a loaded ELL MVM kernel over nnz-balanced row
/// blocks — the loaded-kernel analogue of [`super::par_mvm_ell`].
pub fn par_loaded_mvm_ell(
    k: &LoadedKernel,
    a: &Ell<f64>,
    x: &[f64],
    y: &mut [f64],
    nthreads: usize,
) -> Result<(), KernelCallError> {
    assert_eq!(x.len(), a.ncols, "x length");
    assert_eq!(y.len(), a.nrows, "y length");
    let bounds = partition::ell_row_blocks(a, nthreads.max(1));
    // SAFETY: disjoint row blocks, as above.
    let yo = unsafe { RawOut::new(y.as_mut_ptr(), y.len()) };
    par_run_rows(k, &[a.nrows as i64, a.ncols as i64], &bounds, &|| {
        vec![
            KernelArg::Ell(a),
            KernelArg::In(x),
            KernelArg::OutShared(yo),
        ]
    })
}

/// `y += A·x` through a loaded BSR MVM kernel over cell-balanced,
/// block-aligned row blocks — the loaded-kernel analogue of
/// [`super::par_mvm_bsr`], bitwise equal to a sequential `run` of the
/// same kernel (the ranged body derives the block row from each logical
/// row, so block-aligned bands partition the block walk exactly).
pub fn par_loaded_mvm_bsr(
    k: &LoadedKernel,
    a: &Bsr<f64>,
    x: &[f64],
    y: &mut [f64],
    nthreads: usize,
) -> Result<(), KernelCallError> {
    assert_eq!(x.len(), a.ncols, "x length");
    assert_eq!(y.len(), a.nrows, "y length");
    let bounds = a.partition_rows(nthreads.max(1));
    // SAFETY: each ranged call writes only rows lo..hi of y, and the
    // row blocks are disjoint across chunks.
    let yo = unsafe { RawOut::new(y.as_mut_ptr(), y.len()) };
    par_run_rows(k, &[a.nrows as i64, a.ncols as i64], &bounds, &|| {
        vec![
            KernelArg::Bsr(a),
            KernelArg::In(x),
            KernelArg::OutShared(yo),
        ]
    })
}

/// `y += A·x` through a loaded VBR MVM kernel over cell-balanced,
/// strip-aligned row blocks — the loaded-kernel analogue of
/// [`super::par_mvm_vbr`].
pub fn par_loaded_mvm_vbr(
    k: &LoadedKernel,
    a: &Vbr<f64>,
    x: &[f64],
    y: &mut [f64],
    nthreads: usize,
) -> Result<(), KernelCallError> {
    assert_eq!(x.len(), a.ncols, "x length");
    assert_eq!(y.len(), a.nrows, "y length");
    let bounds = a.partition_rows(nthreads.max(1));
    // SAFETY: disjoint row blocks, as above.
    let yo = unsafe { RawOut::new(y.as_mut_ptr(), y.len()) };
    par_run_rows(k, &[a.nrows as i64, a.ncols as i64], &bounds, &|| {
        vec![
            KernelArg::Vbr(a),
            KernelArg::In(x),
            KernelArg::OutShared(yo),
        ]
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bernoulli_formats::{gen, SparseView, Triplets};
    use bernoulli_synth::{KernelStore, Session};

    fn try_load(a_view: bernoulli_formats::FormatView) -> Option<LoadedKernel> {
        if bernoulli_synth::rustc_info().is_err() {
            eprintln!("SKIP par loaded test: no rustc on host");
            return None;
        }
        let s = Session::new();
        let (p, mat) = crate::synth::spec_for("mvm");
        let bound = s.bind(&p, &[(mat, a_view)]).expect("binds");
        let k = s.compile(&bound).expect("compiles");
        let dir =
            std::env::temp_dir().join(format!("bernoulli-kc-parloaded-{}", std::process::id()));
        Some(k.load_in(&KernelStore::at(dir)).expect("loads"))
    }

    #[test]
    fn par_loaded_csr_matches_sequential_run() {
        let t = gen::banded(257, 3, 11);
        let a = Csr::from_triplets(&t);
        let Some(k) = try_load(a.format_view()) else {
            return;
        };
        let x: Vec<f64> = (0..a.ncols).map(|i| (i as f64).cos()).collect();
        let mut y_seq = vec![0.5; a.nrows];
        let y_par = y_seq.clone();
        let mut args = [
            KernelArg::Csr(&a),
            KernelArg::In(&x),
            KernelArg::Out(&mut y_seq),
        ];
        k.run(&[a.nrows as i64, a.ncols as i64], &mut args)
            .expect("sequential run");
        for threads in [1, 2, 3, 8] {
            let mut y = y_par.clone();
            par_loaded_mvm_csr(&k, &a, &x, &mut y, threads).expect("parallel run");
            assert_eq!(y_seq, y, "threads = {threads}");
        }
    }

    #[test]
    fn par_loaded_blocked_match_sequential_run() {
        let t = gen::fem_blocked(192, 2, 2, 0.85, 29);
        let x = gen::dense_vector(192, 4);

        let a = Bsr::from_triplets(&t, 2, 2);
        let Some(k) = try_load(a.format_view()) else {
            return;
        };
        let mut y_seq = vec![0.25; a.nrows];
        let mut args = [
            KernelArg::Bsr(&a),
            KernelArg::In(&x),
            KernelArg::Out(&mut y_seq),
        ];
        k.run(&[a.nrows as i64, a.ncols as i64], &mut args)
            .expect("sequential run");
        for threads in [1, 2, 8] {
            let mut y = vec![0.25; a.nrows];
            par_loaded_mvm_bsr(&k, &a, &x, &mut y, threads).expect("parallel run");
            assert_eq!(y_seq, y, "bsr threads = {threads}");
        }

        let (rp, cp) = bernoulli_formats::discover_strips(&t);
        let v = Vbr::from_triplets(&t, &rp, &cp);
        let Some(k) = try_load(v.format_view()) else {
            return;
        };
        let mut y_seq = vec![0.25; v.nrows];
        let mut args = [
            KernelArg::Vbr(&v),
            KernelArg::In(&x),
            KernelArg::Out(&mut y_seq),
        ];
        k.run(&[v.nrows as i64, v.ncols as i64], &mut args)
            .expect("sequential run");
        for threads in [1, 2, 8] {
            let mut y = vec![0.25; v.nrows];
            par_loaded_mvm_vbr(&k, &v, &x, &mut y, threads).expect("parallel run");
            assert_eq!(y_seq, y, "vbr threads = {threads}");
        }
    }

    #[test]
    fn par_loaded_ell_matches_sequential_run() {
        let t = Triplets::from_entries(
            64,
            64,
            &(0..64)
                .flat_map(|i| [(i, i, 1.0 + i as f64), (i, (i * 7 + 1) % 64, -0.5)])
                .collect::<Vec<_>>(),
        );
        let a = Ell::from_triplets(&t);
        let Some(k) = try_load(a.format_view()) else {
            return;
        };
        let x: Vec<f64> = (0..a.ncols).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let mut y_seq = vec![0.0; a.nrows];
        let mut args = [
            KernelArg::Ell(&a),
            KernelArg::In(&x),
            KernelArg::Out(&mut y_seq),
        ];
        k.run(&[a.nrows as i64, a.ncols as i64], &mut args)
            .expect("sequential run");
        for threads in [1, 4] {
            let mut y = vec![0.0; a.nrows];
            par_loaded_mvm_ell(&k, &a, &x, &mut y, threads).expect("parallel run");
            assert_eq!(y_seq, y, "threads = {threads}");
        }
    }
}
