//! Equivalence of the three execution paths for every synthesized
//! (kernel, format) pair in [`bernoulli_blas::synth::GENERATED_KERNELS`]:
//!
//!   runtime-loaded native kernel ≡ interpreter ≡ committed synthesized
//!   kernel — **bitwise**, and ≡ the hand-written baseline (bitwise
//!   where the accumulation order agrees, which is every pair here).
//!
//! When the host has no `rustc`, the loaded path degrades to the
//! interpreter with a typed reason; this test then checks the unified
//! `run_with` still matches the hand-written kernel and skips the
//! native comparisons with a notice (not a failure).

use bernoulli_blas::handwritten as hw;
use bernoulli_blas::synth;
use bernoulli_formats::formats::dcsr::dcsr_format_view;
use bernoulli_formats::layout::Stored;
use bernoulli_formats::{
    discover_strips, gen, Bsr, Coo, Csc, Csr, Dcsr, Dense, Dia, Ell, Jad, Sky, Triplets, Vbr,
};
use bernoulli_ir::{run_dense, DenseEnv};
use bernoulli_service::{KernelArg, KernelBackend, KernelStore, LoadError, Session};

enum Mat {
    Csr(Csr<f64>),
    Csc(Csc<f64>),
    Coo(Coo<f64>),
    Dia(Dia<f64>),
    Ell(Ell<f64>),
    Jad(Jad<f64>),
    Sky(Sky<f64>),
    Bsr(Bsr<f64>),
    Vbr(Vbr<f64>),
}

impl Mat {
    fn build(format: &str, t: &Triplets<f64>) -> Mat {
        match format {
            "csr" => Mat::Csr(Csr::from_triplets(t)),
            "csc" => Mat::Csc(Csc::from_triplets(t)),
            "coo" => Mat::Coo(Coo::from_triplets(t)),
            "dia" => Mat::Dia(Dia::from_triplets(t)),
            "ell" => Mat::Ell(Ell::from_triplets(t)),
            "jad" => Mat::Jad(Jad::from_triplets(t)),
            "sky" => Mat::Sky(Sky::from_triplets(t)),
            "bsr2x2" => Mat::Bsr(Bsr::from_triplets(t, 2, 2)),
            "vbr" => {
                let (rp, cp) = discover_strips(t);
                Mat::Vbr(Vbr::from_triplets(t, &rp, &cp))
            }
            other => panic!("unknown format {other}"),
        }
    }

    fn arg(&self) -> KernelArg<'_> {
        let m: &dyn Stored = match self {
            Mat::Csr(m) => m,
            Mat::Csc(m) => m,
            Mat::Coo(m) => m,
            Mat::Dia(m) => m,
            Mat::Ell(m) => m,
            Mat::Jad(m) => m,
            Mat::Sky(m) => m,
            Mat::Bsr(m) => m,
            Mat::Vbr(m) => m,
        };
        KernelArg::Matrix(m)
    }
}

/// The operands of a pair: a 40-row matrix, or the evaluation's
/// `can_1072_like` (1072 rows, 12 444 entries).
fn workload(kernel: &str, format: &str, evaluation: bool) -> (Triplets<f64>, Vec<f64>) {
    let t = if evaluation {
        gen::can_1072_like()
    } else {
        gen::structurally_symmetric(40, 240, 10, 3)
    };
    let n = t.nrows();
    // Skyline can only store a lower profile, so its MVM runs on the
    // triangular operand too.
    if kernel == "ts" || format == "sky" {
        (t.lower_triangle_full_diag(2.5), gen::dense_vector(n, 9))
    } else {
        (t, gen::dense_vector(n, 8))
    }
}

/// Runs the committed synthesized kernel for a pair.
fn run_committed(kernel: &str, m: &Mat, mm: i64, nn: i64, x: &[f64], out: &mut [f64]) {
    match (kernel, m) {
        ("mvm", Mat::Csr(a)) => synth::mvm_csr(mm, nn, a, x, out),
        ("mvm", Mat::Csc(a)) => synth::mvm_csc(mm, nn, a, x, out),
        ("mvm", Mat::Coo(a)) => synth::mvm_coo(mm, nn, a, x, out),
        ("mvm", Mat::Dia(a)) => synth::mvm_dia(mm, nn, a, x, out),
        ("mvm", Mat::Ell(a)) => synth::mvm_ell(mm, nn, a, x, out),
        ("mvm", Mat::Jad(a)) => synth::mvm_jad(mm, nn, a, x, out),
        ("mvm", Mat::Sky(a)) => synth::mvm_sky(mm, nn, a, x, out),
        ("mvm", Mat::Bsr(a)) => synth::mvm_bsr2x2(mm, nn, a, x, out),
        ("mvm", Mat::Vbr(a)) => synth::mvm_vbr(mm, nn, a, x, out),
        ("mvmt", Mat::Csr(a)) => synth::mvmt_csr(mm, nn, a, x, out),
        ("mvmt", Mat::Csc(a)) => synth::mvmt_csc(mm, nn, a, x, out),
        ("mvmt", Mat::Coo(a)) => synth::mvmt_coo(mm, nn, a, x, out),
        ("mvmt", Mat::Bsr(a)) => synth::mvmt_bsr2x2(mm, nn, a, x, out),
        ("mvmt", Mat::Vbr(a)) => synth::mvmt_vbr(mm, nn, a, x, out),
        ("ts", Mat::Csr(l)) => synth::ts_csr(nn, l, out),
        ("ts", Mat::Csc(l)) => synth::ts_csc(nn, l, out),
        ("ts", Mat::Jad(l)) => synth::ts_jad(nn, l, out),
        ("ts", Mat::Dia(l)) => synth::ts_dia(nn, l, out),
        ("ts", Mat::Sky(l)) => synth::ts_sky(nn, l, out),
        _ => panic!("no committed kernel for this pair"),
    }
}

/// Runs the hand-written baseline for a pair.
fn run_handwritten(kernel: &str, m: &Mat, x: &[f64], out: &mut [f64]) {
    match (kernel, m) {
        ("mvm", Mat::Csr(a)) => hw::mvm_csr(a, x, out),
        ("mvm", Mat::Csc(a)) => hw::mvm_csc(a, x, out),
        ("mvm", Mat::Coo(a)) => hw::mvm_coo(a, x, out),
        ("mvm", Mat::Dia(a)) => hw::mvm_dia(a, x, out),
        ("mvm", Mat::Ell(a)) => hw::mvm_ell(a, x, out),
        ("mvm", Mat::Jad(a)) => hw::mvm_jad(a, x, out),
        ("mvm", Mat::Sky(a)) => hw::mvm_sky(a, x, out),
        ("mvm", Mat::Bsr(a)) => hw::mvm_bsr(a, x, out),
        ("mvm", Mat::Vbr(a)) => hw::mvm_vbr(a, x, out),
        ("mvmt", Mat::Csr(a)) => hw::mvmt_csr(a, x, out),
        ("mvmt", Mat::Csc(a)) => hw::mvmt_csc(a, x, out),
        ("mvmt", Mat::Coo(a)) => hw::mvmt_coo(a, x, out),
        ("mvmt", Mat::Bsr(a)) => hw::mvmt_bsr(a, x, out),
        ("mvmt", Mat::Vbr(a)) => hw::mvmt_vbr(a, x, out),
        ("ts", Mat::Csr(l)) => hw::ts_csr(l, out),
        ("ts", Mat::Csc(l)) => hw::ts_csc(l, out),
        ("ts", Mat::Jad(l)) => hw::ts_jad(l, out),
        ("ts", Mat::Dia(l)) => hw::ts_dia(l, out),
        ("ts", Mat::Sky(l)) => hw::ts_sky(l, out),
        _ => panic!("no handwritten kernel for this pair"),
    }
}

#[test]
fn loaded_interpreter_and_committed_agree_bitwise_on_every_pair() {
    let session = Session::new();
    let store = KernelStore::at(
        std::env::temp_dir().join(format!("bernoulli-kc-equiv-{}", std::process::id())),
    );
    let mut native_runs = 0usize;

    let pairs = synth::GENERATED_KERNELS.iter();
    for (&(kernel, format), evaluation) in pairs.flat_map(|p| [(p, false), (p, true)]) {
        let (t, vecdata) = workload(kernel, format, evaluation);
        let m = Mat::build(format, &t);
        let (p, mat_name) = synth::spec_for(kernel);
        let view = synth::view_for(kernel, format);
        let bound = session.bind(&p, &[(mat_name, view)]).expect("binds");
        let k = session
            .compile(&bound)
            .unwrap_or_else(|e| panic!("{kernel}/{format}: {e}"));

        let (mm, nn) = (t.nrows() as i64, t.ncols() as i64);
        let params: Vec<i64> = if kernel == "ts" {
            vec![nn]
        } else {
            vec![mm, nn]
        };
        let out_len = if kernel == "mvmt" {
            t.ncols()
        } else {
            t.nrows()
        };
        let init: Vec<f64> = if kernel == "ts" {
            vecdata.clone()
        } else {
            vec![0.0; out_len]
        };

        // Path 1: interpreter through the unified positional runner.
        let interp_backend = KernelBackend::Interpreted {
            reason: LoadError::Emit(bernoulli_synth::EmitError("forced for test".into())),
        };
        let mut y_interp = init.clone();
        {
            let mut args = build_args(kernel, &m, &vecdata, &mut y_interp);
            k.run_with(&interp_backend, &params, &mut args)
                .unwrap_or_else(|e| panic!("{kernel}/{format} interp: {e}"));
        }

        // Path 2: committed synthesized kernel (the emitter's static
        // output — same algorithm the loaded cdylib embeds).
        let mut y_committed = init.clone();
        run_committed(kernel, &m, mm, nn, &vecdata, &mut y_committed);
        assert_eq!(
            y_interp, y_committed,
            "{kernel}/{format}: interpreter vs committed synthesized kernel"
        );

        // Path 3: hand-written baseline.
        let mut y_hand = init.clone();
        run_handwritten(kernel, &m, &vecdata, &mut y_hand);
        assert_eq!(
            y_interp, y_hand,
            "{kernel}/{format}: interpreter vs hand-written kernel"
        );

        // Path 4: runtime-compiled native kernel, when the host can
        // build one; otherwise the typed fallback must say why. With
        // rustc available the kernel must also pass differential
        // validation (these probe-friendly signatures all have one).
        match k.backend_in(&store) {
            KernelBackend::Validated(_) | KernelBackend::Compiled(_) => {
                let backend = k.backend_in(&store);
                let mut y_native = init.clone();
                let mut args = build_args(kernel, &m, &vecdata, &mut y_native);
                k.run_with(&backend, &params, &mut args)
                    .unwrap_or_else(|e| panic!("{kernel}/{format} native: {e}"));
                assert_eq!(
                    y_interp, y_native,
                    "{kernel}/{format}: interpreter vs loaded native kernel"
                );
                native_runs += 1;
            }
            KernelBackend::Interpreted { reason } => {
                eprintln!("SKIP native path for {kernel}/{format}: {reason}");
                assert!(
                    matches!(
                        reason,
                        LoadError::Cache(
                            bernoulli_service::KernelCacheError::CompilerUnavailable { .. }
                        ) | LoadError::Emit(_)
                    ),
                    "{kernel}/{format}: unexpected fallback reason {reason:?}"
                );
            }
        }
    }

    if bernoulli_service::rustc_info().is_ok() {
        assert_eq!(
            native_runs,
            2 * synth::GENERATED_KERNELS.len(),
            "rustc is available: every pair must run natively on both matrices"
        );
    }
}

fn build_args<'a>(
    kernel: &str,
    m: &'a Mat,
    x: &'a [f64],
    out: &'a mut [f64],
) -> Vec<KernelArg<'a>> {
    if kernel == "ts" {
        vec![m.arg(), KernelArg::Out(out)]
    } else {
        vec![m.arg(), KernelArg::In(x), KernelArg::Out(out)]
    }
}

/// A format that came after the nineteen pairs and has no committed
/// kernel: DCSR reaches the emitter, the kernel ABI and the interpreter
/// through its one `stored_layout!` alone, so the three paths it does
/// have must agree bitwise — loaded ≡ interpreter ≡ the dense reference
/// executor, which visits the same entries in the same order (rows, then
/// columns, ascending) and otherwise adds zeros.
#[test]
fn dcsr_three_paths_agree_bitwise() {
    let session = Session::new();
    // A store of its own: the other test's is compared file by file
    // across commits (`.claude/skills/verify/SKILL.md`, item 13).
    let dir = std::env::temp_dir().join(format!("bernoulli-kc-dcsr-{}", std::process::id()));
    let store = KernelStore::at(&dir);
    // Nine rows in ten empty: what the format is for.
    let mut hypersparse = gen::random_sparse(200, 150, 900, 5);
    hypersparse.retain_positions(|r, _| r % 10 == 3);
    let matrices = [
        ("40 rows", gen::structurally_symmetric(40, 240, 10, 3)),
        ("can_1072_like", gen::can_1072_like()),
        ("90 % empty rows", hypersparse),
    ];
    let mut native_runs = 0usize;
    for (what, t) in &matrices {
        let a = Dcsr::from_triplets(t);
        assert_eq!(a.validate(), Ok(()), "{what}");
        let dense = Dense::from_triplets(t);
        let (mm, nn) = (t.nrows(), t.ncols());
        for kernel in ["mvm", "mvmt"] {
            let case = format!("{kernel}/dcsr on {what}");
            let (p, matrix) = synth::spec_for(kernel);
            let bound = session
                .bind(&p, &[(matrix, dcsr_format_view())])
                .unwrap_or_else(|e| panic!("{case}: {e}"));
            let k = session
                .compile(&bound)
                .unwrap_or_else(|e| panic!("{case}: {e}"));
            let (in_len, out_len) = if kernel == "mvm" { (nn, mm) } else { (mm, nn) };
            let x = gen::dense_vector(in_len, 8);
            let params = [mm as i64, nn as i64];

            let mut denv = DenseEnv::new()
                .matrix(matrix, &dense)
                .param("M", params[0])
                .param("N", params[1])
                .vector("x", x.clone())
                .vector("y", vec![0.0; out_len]);
            run_dense(&p, &mut denv).unwrap_or_else(|e| panic!("{case}: {e}"));
            let reference = denv.take_vector("y");

            let run = |backend: &KernelBackend| {
                let mut y = vec![0.0; out_len];
                let mut args = [
                    KernelArg::Matrix(&a),
                    KernelArg::In(&x),
                    KernelArg::Out(&mut y),
                ];
                k.run_with(backend, &params, &mut args)
                    .unwrap_or_else(|e| panic!("{case}: {e}"));
                y
            };
            let interpreted = run(&KernelBackend::Interpreted {
                reason: LoadError::Emit(bernoulli_synth::EmitError("forced for test".into())),
            });
            assert_eq!(interpreted, reference, "{case}: interpreter vs run_dense");
            match k.backend_in(&store) {
                KernelBackend::Interpreted { reason } => {
                    assert!(bernoulli_service::rustc_info().is_err(), "{case}: {reason}");
                    eprintln!("SKIP native path for {case}: {reason}");
                }
                native => {
                    assert!(native.is_validated(), "{case}: {native:?}");
                    assert_eq!(run(&native), interpreted, "{case}: loaded vs interpreter");
                    native_runs += 1;
                }
            }
        }
    }
    if bernoulli_service::rustc_info().is_ok() {
        assert_eq!(native_runs, 2 * matrices.len());
    }
    let _ = std::fs::remove_dir_all(&dir);
}
