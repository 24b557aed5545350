//! A loaded kernel's `run` splits the rows of a large operand into
//! bands that run at once on the global pool, and only where its plan's
//! writes stay in the band (a row-band entry). The split is bitwise the
//! sequential run; a plan without a row-band entry is never split by
//! any public call; an operand that disagrees with the parameters is
//! refused before any band runs.
//!
//! `run` splits over four bands per lane of the global pool, whose
//! size `BERNOULLI_THREADS` sets once per process: CI runs this file at
//! 1, 2, 3 and 8. Skips (with a message) on a host without `rustc`.

use bernoulli_blas::synth::{spec_for, view_for, GENERATED_KERNELS};
use bernoulli_formats::layout::{Layout, Stored};
use bernoulli_formats::{gen, Triplets};
use bernoulli_synth::{
    CompiledKernel, EmitError, KernelArg, KernelBackend, KernelCallError, KernelStore, LoadError,
    LoadedKernel, Session, SPLIT_MIN_ENTRIES,
};
use std::sync::OnceLock;

/// The pairs whose plan has a row-band entry.
const SPLITTABLE: [(&str, &str); 4] = [
    ("mvm", "csr"),
    ("mvm", "ell"),
    ("mvm", "bsr2x2"),
    ("mvm", "vbr"),
];

/// Pairs without one: the solves read rows other bands write, mvmᵀ
/// writes `y[j]` in every band, CSC's outer loop is over columns and
/// JAD's rows are permuted.
const SEQUENTIAL: [(&str, &str); 8] = [
    ("ts", "csr"),
    ("ts", "csc"),
    ("ts", "jad"),
    ("mvmt", "csr"),
    ("mvmt", "bsr2x2"),
    ("mvmt", "vbr"),
    ("mvm", "csc"),
    ("mvm", "jad"),
];

fn rustc_missing(test: &str) -> bool {
    let missing = bernoulli_synth::rustc_info().is_err();
    if missing {
        eprintln!("SKIP {test}: no rustc on host");
    }
    missing
}

/// One store for the file, so tests that want one kernel share a build.
fn store() -> &'static KernelStore {
    static STORE: OnceLock<KernelStore> = OnceLock::new();
    STORE.get_or_init(|| {
        KernelStore::at(
            std::env::temp_dir().join(format!("bernoulli-kc-split-{}", std::process::id())),
        )
    })
}

fn compile(kernel: &str, format: &str) -> CompiledKernel {
    let s = Session::new();
    let (p, matrix) = spec_for(kernel);
    let bound = s
        .bind(&p, &[(matrix, view_for(kernel, format))])
        .expect("binds");
    s.compile(&bound).expect("compiles")
}

/// The evaluation matrix scaled sixteen-fold (17 152 rows, about 200 000
/// entries), lower-triangular for a solve, in the pair's format.
fn operand(kernel: &str, format: &str) -> Box<dyn Stored> {
    let t: Triplets<f64> = gen::scale(&gen::can_1072_like(), 16, 5);
    let t = if kernel == "ts" {
        t.lower_triangle_full_diag(2.5)
    } else {
        t
    };
    let (layout, block) = Layout::of_view(&view_for(kernel, format).name).expect("a layout");
    (layout.from_triplets)(&t, block).expect("holds the matrix")
}

/// Parameters, `x` (none for a solve) and the output's initial value.
fn vectors(kernel: &str, a: &dyn Stored) -> (Vec<i64>, Option<Vec<f64>>, Vec<f64>) {
    let (m, n) = (a.nrows(), a.ncols());
    if kernel == "ts" {
        (vec![n as i64], None, gen::dense_vector(n, 9))
    } else {
        let x = gen::dense_vector(n, 8);
        (vec![m as i64, n as i64], Some(x), gen::dense_vector(m, 7))
    }
}

fn args<'a>(a: &'a dyn Stored, x: Option<&'a [f64]>, y: &'a mut [f64]) -> Vec<KernelArg<'a>> {
    let mut args = vec![KernelArg::Matrix(a)];
    args.extend(x.map(KernelArg::In));
    args.push(KernelArg::Out(y));
    args
}

/// The output of one call, from `y0`.
fn output<E>(y0: &[f64], call: impl FnOnce(&mut [f64]) -> Result<(), E>) -> Result<Vec<u64>, E> {
    let mut y = y0.to_vec();
    call(&mut y)?;
    Ok(y.iter().map(|v| v.to_bits()).collect())
}

#[test]
fn exactly_the_row_band_plans_are_splittable() {
    let splittable: Vec<(&str, &str)> = GENERATED_KERNELS
        .iter()
        .copied()
        .filter(|&(kernel, format)| compile(kernel, format).codegen().ranged().is_some())
        .collect();
    assert_eq!(splittable, SPLITTABLE);
}

/// `run` (split over the pool's lanes) and every explicit band count
/// give the bits of one call of the full-range entry.
#[test]
fn a_split_run_is_bitwise_the_sequential_run() {
    if rustc_missing("a_split_run_is_bitwise_the_sequential_run") {
        return;
    }
    for (kernel, format) in SPLITTABLE {
        let what = format!("{kernel}/{format}");
        let k = compile(kernel, format).load_in(store()).expect("loads");
        assert!(k.supports_ranged(), "{what}");
        let a = operand(kernel, format);
        assert!(a.nnz() >= SPLIT_MIN_ENTRIES, "{what}: {} entries", a.nnz());
        let (params, x, y0) = vectors(kernel, &*a);
        let x = x.as_deref();
        let sequential = output(&y0, |y| k.run_in_bands(&params, &mut args(&*a, x, y), 1));
        let sequential = sequential.expect("sequential run");
        let run = output(&y0, |y| k.run(&params, &mut args(&*a, x, y)));
        assert_eq!(run.expect("run"), sequential, "{what}");
        for bands in [2, 3, 8] {
            let banded = output(&y0, |y| {
                k.run_in_bands(&params, &mut args(&*a, x, y), bands)
            });
            assert_eq!(
                banded.expect("banded run"),
                sequential,
                "{what}, {bands} bands"
            );
        }
    }
}

/// A plan whose writes leave the band (mvmᵀ), or that reads what other
/// rows write (the solves), or whose outer loop is not over stored rows
/// in order, reports no row-band entry, refuses an explicit band count
/// and a row range, and `run` gives the interpreter's bits.
#[test]
fn plans_without_a_row_band_entry_never_split() {
    if rustc_missing("plans_without_a_row_band_entry_never_split") {
        return;
    }
    let interpreter = KernelBackend::Interpreted {
        reason: LoadError::Emit(EmitError("reference".to_string())),
    };
    for (kernel, format) in SEQUENTIAL {
        let what = format!("{kernel}/{format}");
        let compiled = compile(kernel, format);
        assert!(compiled.codegen().ranged().is_none(), "{what}");
        let k: LoadedKernel = compiled.load_in(store()).expect("loads");
        assert!(!k.supports_ranged(), "{what}");
        let a = operand(kernel, format);
        let (params, x, y0) = vectors(kernel, &*a);
        let x = x.as_deref();
        let reference = output(&y0, |y| {
            compiled.run_with(&interpreter, &params, &mut args(&*a, x, y))
        });
        let run = output(&y0, |y| k.run(&params, &mut args(&*a, x, y)));
        assert_eq!(run.expect("run"), reference.expect("interpreter"), "{what}");
        let mut y = y0.clone();
        let banded = k.run_in_bands(&params, &mut args(&*a, x, &mut y), 2);
        assert_eq!(banded, Err(KernelCallError::NoRangedEntry), "{what}");
        let ranged = k.run_range(&params, &mut args(&*a, x, &mut y), 0, 1);
        assert_eq!(ranged, Err(KernelCallError::NoRangedEntry), "{what}");
        assert_eq!(y, y0, "{what}: nothing ran");
    }
}

/// An `x` or `y` one short or one long is a `Mismatch` before any band
/// runs: the output is untouched.
#[test]
fn wrong_lengths_are_refused_before_any_band_runs() {
    if rustc_missing("wrong_lengths_are_refused_before_any_band_runs") {
        return;
    }
    let lanes = bernoulli_blas::par::Pool::global().nthreads();
    for (kernel, format) in SPLITTABLE {
        let k = compile(kernel, format).load_in(store()).expect("loads");
        let a = operand(kernel, format);
        let (params, x, y0) = vectors(kernel, &*a);
        let x = x.expect("an mvm reads x");
        for (which, delta) in [("x", -1), ("x", 1), ("y", -1), ("y", 1)] {
            let what = format!("{kernel}/{format}, {which} {delta:+}");
            let resize = |v: &[f64]| {
                let mut v = v.to_vec();
                v.resize((v.len() as isize + delta) as usize, 0.25);
                v
            };
            let (x, y0) = match which {
                "x" => (resize(&x), y0.clone()),
                _ => (x.clone(), resize(&y0)),
            };
            let mut y = y0.clone();
            let banded = k.run_in_bands(&params, &mut args(&*a, Some(&x), &mut y), 3);
            assert!(
                matches!(&banded, Err(KernelCallError::Mismatch { detail }) if detail.contains(&format!("{which:?}"))),
                "{what}: {banded:?}"
            );
            if lanes > 1 {
                let run = k.run(&params, &mut args(&*a, Some(&x), &mut y));
                assert!(
                    matches!(run, Err(KernelCallError::Mismatch { .. })),
                    "{what}: {run:?}"
                );
            }
            assert_eq!(y, y0, "{what}: a band ran");
        }
    }
}
