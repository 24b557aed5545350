//! A runtime-**loaded** kernel over row bands: the explicit band count
//! of [`LoadedKernel::run_in_bands`], spelt out for CSR MVM.
//!
//! A [`LoadedKernel`]'s own `run` already splits a large operand's rows
//! over the pool's lanes; [`par_loaded_mvm_csr`] asks for a band count
//! instead. Either way the bands come from the operand's
//! `partition_rows` (nnz-balanced) and run at once on the global
//! [`Pool`](bernoulli_pool::Pool), and the result is bitwise a
//! sequential `run` of the same kernel at every band count.

use bernoulli_formats::Csr;
use bernoulli_synth::{KernelArg, KernelCallError, LoadedKernel};

/// `y += A·x` through a loaded CSR MVM kernel over at most `nthreads`
/// nnz-balanced row bands ([`LoadedKernel::run_in_bands`]), bitwise
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
    let params = [a.nrows as i64, a.ncols as i64];
    let mut args = [KernelArg::Csr(a), KernelArg::In(x), KernelArg::Out(y)];
    k.run_in_bands(&params, &mut args, nthreads)
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use bernoulli_formats::layout::Stored;
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

    /// `y0 + A·x` through `bands` row bands: one call of the full-range
    /// entry at 1.
    pub(crate) fn banded(
        k: &LoadedKernel,
        a: &dyn Stored,
        dims: (usize, usize),
        bands: usize,
        x: &[f64],
        y0: &[f64],
    ) -> Vec<f64> {
        let mut y = y0.to_vec();
        let mut args = [
            KernelArg::Matrix(a),
            KernelArg::In(x),
            KernelArg::Out(&mut y),
        ];
        k.run_in_bands(&[dims.0 as i64, dims.1 as i64], &mut args, bands)
            .expect("banded run");
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
        let y_seq = banded(&k, &a, (a.nrows, a.ncols), 1, &x, &y0);
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
        let y_seq = banded(&k, &a, dims, 1, &x, &y0);
        for threads in [2, 3, 8] {
            let y = banded(&k, &a, dims, threads, &x, &y0);
            assert_eq!(y_seq, y, "bsr threads = {threads}");
        }

        let (rp, cp) = bernoulli_formats::discover_strips(&t);
        let v = Vbr::from_triplets(&t, &rp, &cp);
        let Some(k) = try_load(v.format_view()) else {
            return;
        };
        let dims = (v.nrows, v.ncols);
        let y_seq = banded(&k, &v, dims, 1, &x, &y0);
        for threads in [2, 3, 8] {
            let y = banded(&k, &v, dims, threads, &x, &y0);
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
        let y_seq = banded(&k, &a, dims, 1, &x, &y0);
        for threads in [2, 3, 8] {
            let y = banded(&k, &a, dims, threads, &x, &y0);
            assert_eq!(y_seq, y, "threads = {threads}");
        }
    }
}
