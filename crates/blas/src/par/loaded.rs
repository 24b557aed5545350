//! Parallel dispatch of runtime-**loaded** kernels: the compiled-kernel
//! execution path meets the nnz-balanced parallel lane.
//!
//! A [`LoadedKernel`] whose plan is row-range splittable exports a
//! ranged `extern "C"` entry; [`par_run_rows`] cuts the rows into the
//! bands a format's `partition_rows` gives and dispatches each band
//! through that entry on the global [`Pool`]. Outputs are shared across
//! chunks via [`RawOut`] — sound because the ranged entry writes exactly
//! the rows of its band.
//!
//! One writer per output row and the same per-row accumulation order as
//! the full-range entry make the result bitwise equal to a sequential
//! `run` at every `nthreads`.

use bernoulli_formats::Csr;
use bernoulli_pool::Pool;
use bernoulli_synth::{KernelArg, KernelCallError, LoadedKernel, RawOut};
use std::sync::Mutex;

/// Runs a row-ranged loaded kernel over row `bounds` (as produced by
/// `partition_rows`: `bounds[c]..bounds[c+1]` is chunk `c`), building
/// each chunk's operand list with `make_args`. The first chunk error
/// (if any) is returned.
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
/// blocks: [`par_run_rows`] over `a.partition_rows(nthreads)`, bitwise
/// equal to a sequential `run` of the same kernel. An `x` or `y` whose
/// length does not match `a` is a [`KernelCallError::Mismatch`], and
/// nothing runs.
pub fn par_loaded_mvm_csr(
    k: &LoadedKernel,
    a: &Csr<f64>,
    x: &[f64],
    y: &mut [f64],
    nthreads: usize,
) -> Result<(), KernelCallError> {
    for (name, len, want) in [("x", x.len(), a.ncols), ("y", y.len(), a.nrows)] {
        if len != want {
            return Err(KernelCallError::Mismatch {
                detail: format!(
                    "{name} has {len} elements, the {}x{} matrix needs {want}",
                    a.nrows, a.ncols
                ),
            });
        }
    }
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

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use bernoulli_formats::layout::Stored;
    use bernoulli_formats::partition::split_even;
    use bernoulli_formats::{gen, Bsr, Ell, SparseView, Triplets, Vbr};
    use bernoulli_synth::{KernelStore, Session};

    /// The MVM kernel loaded for `a_view`, or `None` (after saying so)
    /// on a host without `rustc`.
    ///
    /// Every test loads through one store handle: its build flights let
    /// concurrent tests that want the same kernel share one `rustc` run,
    /// where independent handles over one directory would run two
    /// builds of one crate side by side.
    pub(crate) fn try_load(a_view: bernoulli_formats::FormatView) -> Option<LoadedKernel> {
        static STORE: std::sync::OnceLock<KernelStore> = std::sync::OnceLock::new();
        if bernoulli_synth::rustc_info().is_err() {
            eprintln!("SKIP par loaded test: no rustc on host");
            return None;
        }
        let s = Session::new();
        let (p, mat) = crate::synth::spec_for("mvm");
        let bound = s.bind(&p, &[(mat, a_view)]).expect("binds");
        let k = s.compile(&bound).expect("compiles");
        let store = STORE.get_or_init(|| {
            KernelStore::at(
                std::env::temp_dir().join(format!("bernoulli-kc-parloaded-{}", std::process::id())),
            )
        });
        Some(k.load_in(store).expect("loads"))
    }

    /// `y0 + A·x` through one sequential full-range `run`.
    pub(crate) fn sequential(
        k: &LoadedKernel,
        a: &dyn Stored,
        dims: (usize, usize),
        x: &[f64],
        y0: &[f64],
    ) -> Vec<f64> {
        let mut y = y0.to_vec();
        let mut args = [
            KernelArg::Matrix(a),
            KernelArg::In(x),
            KernelArg::Out(&mut y),
        ];
        k.run(&[dims.0 as i64, dims.1 as i64], &mut args)
            .expect("sequential run");
        y
    }

    /// `y0 + A·x` through [`par_run_rows`] over `bounds`.
    fn banded(
        k: &LoadedKernel,
        a: &(dyn Stored + Sync),
        dims: (usize, usize),
        bounds: &[usize],
        x: &[f64],
        y0: &[f64],
    ) -> Vec<f64> {
        let mut y = y0.to_vec();
        // SAFETY: the bands are disjoint and each ranged call writes
        // only its own rows of y.
        let yo = unsafe { RawOut::new(y.as_mut_ptr(), y.len()) };
        par_run_rows(k, &[dims.0 as i64, dims.1 as i64], bounds, &|| {
            vec![
                KernelArg::Matrix(a),
                KernelArg::In(x),
                KernelArg::OutShared(yo),
            ]
        })
        .expect("parallel run");
        y
    }

    #[test]
    fn par_loaded_csr_matches_sequential_run() {
        let t = gen::banded(257, 3, 11);
        let a = Csr::from_triplets(&t);
        let Some(k) = try_load(a.format_view()) else {
            return;
        };
        let x: Vec<f64> = (0..a.ncols).map(|i| (i as f64).cos()).collect();
        let y0 = vec![0.5; a.nrows];
        let y_seq = sequential(&k, &a, (a.nrows, a.ncols), &x, &y0);
        for threads in [1, 2, 3, 8] {
            let mut y = y0.clone();
            par_loaded_mvm_csr(&k, &a, &x, &mut y, threads).expect("parallel run");
            assert_eq!(y_seq, y, "threads = {threads}");
        }
    }

    #[test]
    fn par_loaded_blocked_match_sequential_run() {
        let t = gen::fem_blocked(192, 2, 2, 0.85, 29);
        let x = gen::dense_vector(192, 4);
        let y0 = vec![0.25; 192];

        let a = Bsr::from_triplets(&t, 2, 2);
        let Some(k) = try_load(a.format_view()) else {
            return;
        };
        let dims = (a.nrows, a.ncols);
        let y_seq = sequential(&k, &a, dims, &x, &y0);
        for threads in [1, 2, 8] {
            let y = banded(&k, &a, dims, &a.partition_rows(threads), &x, &y0);
            assert_eq!(y_seq, y, "bsr threads = {threads}");
        }

        let (rp, cp) = bernoulli_formats::discover_strips(&t);
        let v = Vbr::from_triplets(&t, &rp, &cp);
        let Some(k) = try_load(v.format_view()) else {
            return;
        };
        let dims = (v.nrows, v.ncols);
        let y_seq = sequential(&k, &v, dims, &x, &y0);
        for threads in [1, 2, 8] {
            let y = banded(&k, &v, dims, &v.partition_rows(threads), &x, &y0);
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
        let y0 = vec![0.0; a.nrows];
        let dims = (a.nrows, a.ncols);
        let y_seq = sequential(&k, &a, dims, &x, &y0);
        for threads in [1, 4] {
            let y = banded(&k, &a, dims, &split_even(a.nrows, threads), &x, &y0);
            assert_eq!(y_seq, y, "threads = {threads}");
        }
    }
}
