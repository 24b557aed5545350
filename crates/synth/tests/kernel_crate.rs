//! The kernel crate as an artifact: a few kB with no runtime behind it,
//! no panic path (the linker is the proof), malformed operands answered
//! with a status instead of a crash, and libraries that stay open in
//! the store that validated them.
//!
//! Everything here needs a real compiler; each test says so and skips
//! on a host without one.

use bernoulli_blas::synth::{spec_for, view_for, GENERATED_KERNELS};
use bernoulli_formats::{
    gen, Bsr, Coo, Csc, Csr, Dcsr, Dia, Ell, Jad, Sky, Triplets, Vbr, LAYOUTS,
};
use bernoulli_kernel_cache::ArtifactSpec;
use bernoulli_synth::{
    CompiledKernel, KernelArg, KernelBackend, KernelCacheError, KernelCallError, KernelStore,
    LoadError, Session,
};
use std::path::{Path, PathBuf};

/// Built artifacts must stay under this (the issue's bound; they are
/// 5.5–7 kB, and 4.3 MB when `std` is linked in).
const MAX_ARTIFACT_BYTES: u64 = 16 * 1024;

/// The symbol a kernel crate's panic handler calls and nobody defines.
const PANIC_PROOF_SYMBOL: &str = "bernoulli_kernel_has_a_panic_path";

fn no_rustc(test: &str) -> bool {
    let missing = bernoulli_kernel_cache::rustc_info().is_err();
    if missing {
        eprintln!("SKIP {test}: no rustc on host");
    }
    missing
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bernoulli-kcrate-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn compile(session: &Session, kernel: &str, format: &str) -> CompiledKernel {
    let (p, matrix) = spec_for(kernel);
    let bound = session
        .bind(&p, &[(matrix, view_for(kernel, format))])
        .unwrap_or_else(|e| panic!("{kernel}/{format}: {e}"));
    session
        .compile(&bound)
        .unwrap_or_else(|e| panic!("{kernel}/{format}: {e}"))
}

/// The source `build` keeps next to an artifact.
fn kept_source(artifact: &Path) -> String {
    std::fs::read_to_string(artifact.with_extension("rs")).expect("the kept kernel source")
}

/// `nm -D --undefined-only`, or `None` on a host without binutils.
fn undefined_symbols(artifact: &Path) -> Option<String> {
    let out = std::process::Command::new("nm")
        .args(["-D", "--undefined-only"])
        .arg(artifact)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).into_owned())
}

/// A `[` that indexes or slices: one that follows a value (identifier,
/// `)`, `]`, `?`) rather than `#`, `&`, `!` or a space.
fn panicking_index(source: &str) -> Option<&str> {
    let bytes = source.as_bytes();
    (1..bytes.len())
        .find(|&i| {
            let before = bytes[i - 1];
            bytes[i] == b'['
                && (before.is_ascii_alphanumeric() || matches!(before, b'_' | b')' | b']' | b'?'))
        })
        .map(|i| source[..i + 1].lines().last().unwrap_or_default())
}

#[test]
fn every_pair_is_a_small_native_kernel_without_a_runtime() {
    if no_rustc("every_pair_is_a_small_native_kernel_without_a_runtime") {
        return;
    }
    let session = Session::new();
    let dir = scratch_dir("pairs");
    let store = KernelStore::at(&dir);
    let mut nm_ran = false;
    for &(kernel, format) in GENERATED_KERNELS {
        let pair = format!("{kernel}/{format}");
        let k = compile(&session, kernel, format);
        let loaded = match k.backend_in(&store) {
            KernelBackend::Validated(loaded) => loaded,
            other => panic!("{pair}: must load natively and validate, got {other:?}"),
        };
        let artifact = loaded.artifact_path();
        let bytes = std::fs::metadata(artifact).expect("artifact").len();
        assert!(bytes <= MAX_ARTIFACT_BYTES, "{pair}: {bytes} B");

        let source = kept_source(artifact);
        assert!(source.contains("#![no_std]"), "{pair}:\n{source}");
        // `debug_assert!` in `ix` is compiled out of a kernel build.
        let checked = source.replace("debug_assert!(", "");
        for banned in [
            "std::",
            "catch_unwind",
            "Vec",
            "unwrap",
            "expect",
            "panic!",
            "assert!(",
        ] {
            assert!(
                !checked.contains(banned),
                "{pair}: kernel crate contains {banned:?}:\n{source}"
            );
        }
        if let Some(line) = panicking_index(&source) {
            panic!("{pair}: panicking index or slice expression in {line:?}");
        }
        if let Some(undefined) = undefined_symbols(artifact) {
            nm_ran = true;
            for symbol in [PANIC_PROOF_SYMBOL, "rust_eh_personality"] {
                assert!(!undefined.contains(symbol), "{pair}: {undefined}");
            }
        }
    }
    if !nm_ran {
        eprintln!("NOTE: no `nm` on host, undefined-symbol lists not inspected");
    }
    let stats = store.stats();
    let pairs = GENERATED_KERNELS.len() as u64;
    assert_eq!((stats.compiles, stats.opens), (pairs, pairs), "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The linker's proof, run backwards: the emitted mvm/csr crate with
/// one checked read of `x` turned back into a panicking index does not
/// link, and the error says why in its first lines.
#[test]
fn a_surviving_panic_path_fails_to_link() {
    if no_rustc("a_surviving_panic_path_fails_to_link") {
        return;
    }
    let dir = scratch_dir("planted");
    let store = KernelStore::at(&dir);
    let k = compile(&Session::new(), "mvm", "csr");
    let loaded = k.load_in(&store).expect("the emitted crate links");
    let source = kept_source(loaded.artifact_path());
    let planted = source.replace("*x_.get((j_) as usize)?", "x_[(j_) as usize]");
    assert_ne!(planted, source, "nothing was planted in:\n{source}");

    let spec = ArtifactSpec::new("planted-panic".to_string(), planted).expect("names");
    let err = store
        .get_or_build(&spec)
        .expect_err("a panic path must not link");
    let KernelCacheError::CompileFailed { stderr } = &err else {
        panic!("expected CompileFailed, got {err:?}");
    };
    assert!(stderr.contains(PANIC_PROOF_SYMBOL), "{stderr}");
    assert!(!store.artifact_path(&spec).exists());
    let shown = err.to_string();
    assert!(shown.contains(PANIC_PROOF_SYMBOL), "{shown}");
    assert!(shown.lines().count() <= 13, "{shown}");
    let _ = std::fs::remove_dir_all(&dir);
}

fn matrix() -> Triplets<f64> {
    gen::structurally_symmetric(40, 240, 10, 3)
}

/// A matrix operand of the malformed-operand cases.
#[derive(Clone, Copy)]
enum Mat<'a> {
    Csr(&'a Csr<f64>),
    Jad(&'a Jad<f64>),
    Bsr(&'a Bsr<f64>),
}

/// The positional operands of an MVM (`A, x, y`) or a solve (`L, b`).
fn operands<'a>(matrix: Mat<'a>, x: Option<&'a [f64]>, out: &'a mut [f64]) -> Vec<KernelArg<'a>> {
    let matrix = match matrix {
        Mat::Csr(a) => KernelArg::Csr(a),
        Mat::Jad(a) => KernelArg::Jad(a),
        Mat::Bsr(a) => KernelArg::Bsr(a),
    };
    match x {
        Some(x) => vec![matrix, KernelArg::In(x), KernelArg::Out(out)],
        None => vec![matrix, KernelArg::Out(out)],
    }
}

#[test]
fn malformed_operands_are_a_status_not_a_crash() {
    if no_rustc("malformed_operands_are_a_status_not_a_crash") {
        return;
    }
    let session = Session::new();
    let dir = scratch_dir("malformed");
    let store = KernelStore::at(&dir);
    let t = matrix();
    let n = t.nrows();
    let x = gen::dense_vector(n, 8);

    let csr = Csr::from_triplets(&t);
    let mut csr_col = csr.clone();
    *csr_col.colind.last_mut().expect("entries") = n;
    let mut csr_ptr = csr.clone();
    csr_ptr.rowptr.pop();

    let tri = Csr::from_triplets(&t.lower_triangle_full_diag(2.5));
    let mut tri_ptr = tri.clone();
    tri_ptr.rowptr.pop();
    // Before the row's last entry: where the split loop reads `b`
    // without asking where the diagonal is.
    let last_row = tri.rowptr[n - 1]..tri.rowptr[n];
    assert!(
        last_row.len() >= 2,
        "the last row needs an off-diagonal entry"
    );
    let mut tri_col = tri.clone();
    tri_col.colind[last_row.start] = n;

    let jad = Jad::from_triplets(&t);
    let mut jad_col = jad.clone();
    jad_col.colind[0] = n;
    let mut jad_len = jad.clone();
    jad_len.rowlen.pop();
    // Entry 0 is the first of the longest row.
    let tri_jad = Jad::from_triplets(&t.lower_triangle_full_diag(2.5));
    assert!(tri_jad.rowlen[0] >= 2);
    let mut tri_jad_col = tri_jad.clone();
    tri_jad_col.colind[0] = n;

    // BSR's own pointer arrays are read through the unchecked `ix`
    // helper (ROADMAP item 4, open): what is checked, and tested, is
    // what they say about the other operands.
    let bsr = Bsr::from_triplets(&t, 2, 2);
    let mut bsr_col = bsr.clone();
    *bsr_col.bcolind.last_mut().expect("blocks") = n / 2;

    // (kernel, format, well-formed matrix, what is wrong, the matrix
    // passed, how much shorter than `n` the output vector passed is)
    let cases = [
        (
            "mvm",
            "csr",
            Mat::Csr(&csr),
            "a column past x",
            Mat::Csr(&csr_col),
            0,
        ),
        (
            "mvm",
            "csr",
            Mat::Csr(&csr),
            "rowptr one short",
            Mat::Csr(&csr_ptr),
            0,
        ),
        (
            "mvm",
            "csr",
            Mat::Csr(&csr),
            "y one short",
            Mat::Csr(&csr),
            1,
        ),
        (
            "ts",
            "csr",
            Mat::Csr(&tri),
            "rowptr one short",
            Mat::Csr(&tri_ptr),
            0,
        ),
        (
            "ts",
            "csr",
            Mat::Csr(&tri),
            "b one short",
            Mat::Csr(&tri),
            1,
        ),
        (
            "ts",
            "csr",
            Mat::Csr(&tri),
            "a column past b, before the diagonal",
            Mat::Csr(&tri_col),
            0,
        ),
        (
            "ts",
            "jad",
            Mat::Jad(&tri_jad),
            "a column past b, before the diagonal",
            Mat::Jad(&tri_jad_col),
            0,
        ),
        (
            "mvm",
            "jad",
            Mat::Jad(&jad),
            "a column past x",
            Mat::Jad(&jad_col),
            0,
        ),
        (
            "mvm",
            "jad",
            Mat::Jad(&jad),
            "rowlen one short",
            Mat::Jad(&jad_len),
            0,
        ),
        (
            "mvm",
            "jad",
            Mat::Jad(&jad),
            "y one short",
            Mat::Jad(&jad),
            1,
        ),
        (
            "mvm",
            "bsr2x2",
            Mat::Bsr(&bsr),
            "a block column past x",
            Mat::Bsr(&bsr_col),
            0,
        ),
        (
            "mvm",
            "bsr2x2",
            Mat::Bsr(&bsr),
            "y one short",
            Mat::Bsr(&bsr),
            1,
        ),
    ];
    let interp = KernelBackend::Interpreted {
        reason: LoadError::Emit(bernoulli_synth::EmitError("reference".into())),
    };
    for (kernel, format, good, what, bad, short) in cases {
        let case = format!("{kernel}/{format}, {what}");
        let k = compile(&session, kernel, format);
        let loaded = k.load_in(&store).expect("loads");
        let (params, x, init) = if kernel == "ts" {
            (vec![n as i64], None, x.clone())
        } else {
            (vec![n as i64; 2], Some(&x[..]), vec![0.0; n])
        };

        let mut out = init[..n - short].to_vec();
        let outcome = loaded.run(&params, &mut operands(bad, x, &mut out));
        assert_eq!(outcome, Err(KernelCallError::OutOfBounds), "{case}");

        // The process is alive, the artifact still trusted, and
        // well-formed operands still get the interpreter's answer.
        assert!(store.is_validated(loaded.artifact_path()), "{case}");
        assert!(k.backend_in(&store).is_validated(), "{case}");
        let mut native = init.clone();
        loaded
            .run(&params, &mut operands(good, x, &mut native))
            .unwrap_or_else(|e| panic!("{case}: {e}"));
        let mut reference = init.clone();
        k.run_with(&interp, &params, &mut operands(good, x, &mut reference))
            .unwrap_or_else(|e| panic!("{case}: {e}"));
        assert_eq!(native, reference, "{case}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// What a format needs to be a native kernel's operand is derived from
/// its layout, so every registered layout must have all of it: a mirror
/// that links with no panic path and a probe instance (the load
/// validates), and a `KernelArg` that marshals (a typed variant, or
/// `Matrix` for any `Stored`) — exactly one of the candidates, every
/// other refused by name before the library is entered
/// (`operand "A": expected csr, got csc`; `expected bsr2x2, got bsr`
/// for the other block shape).
#[test]
fn every_layout_is_a_native_kernel_operand() {
    if no_rustc("every_layout_is_a_native_kernel_operand") {
        return;
    }
    let session = Session::new();
    let dir = scratch_dir("layouts");
    let store = KernelStore::at(&dir);
    // Lower triangular with a full diagonal: legal for every format.
    let t = matrix().lower_triangle_full_diag(2.5);
    let n = t.nrows();
    let x = gen::dense_vector(n, 8);
    let params = [n as i64; 2];

    // One instance per `KernelArg` variant (an enum cannot be iterated),
    // under the name a refusal gives it.
    let strips: Vec<usize> = (0..=n).step_by(2).collect();
    let csr = Csr::from_triplets(&t);
    let csc = Csc::from_triplets(&t);
    let coo = Coo::from_triplets(&t);
    let dia = Dia::from_triplets(&t);
    let ell = Ell::from_triplets(&t);
    let jad = Jad::from_triplets(&t);
    let sky = Sky::from_triplets(&t);
    let bsr = Bsr::from_triplets(&t, 2, 2);
    let bsr4 = Bsr::from_triplets(&t, 4, 4);
    let vbr = Vbr::from_triplets(&t, &strips, &strips);
    // A format without a typed variant enters through the erased one.
    let dcsr = Dcsr::from_triplets(&t);
    let candidates = || {
        [
            ("csr", KernelArg::Csr(&csr)),
            ("csc", KernelArg::Csc(&csc)),
            ("coo", KernelArg::Coo(&coo)),
            ("dia", KernelArg::Dia(&dia)),
            ("ell", KernelArg::Ell(&ell)),
            ("jad", KernelArg::Jad(&jad)),
            ("sky", KernelArg::Sky(&sky)),
            ("bsr", KernelArg::Bsr(&bsr)),
            ("bsr", KernelArg::Bsr(&bsr4)),
            ("vbr", KernelArg::Vbr(&vbr)),
            ("dcsr", KernelArg::Matrix(&dcsr)),
        ]
    };

    let (p, matrix_name) = spec_for("mvm");
    let interp = KernelBackend::Interpreted {
        reason: LoadError::Emit(bernoulli_synth::EmitError("reference".into())),
    };
    for layout in LAYOUTS {
        let view = (layout.view)((2, 2));
        let case = view.name.clone();
        let bound = session
            .bind(&p, &[(matrix_name, view)])
            .unwrap_or_else(|e| panic!("{case}: {e}"));
        let k = session
            .compile(&bound)
            .unwrap_or_else(|e| panic!("{case}: {e}"));
        let loaded = match k.backend_in(&store) {
            KernelBackend::Validated(loaded) => loaded,
            other => panic!("{case}: must load natively and validate, got {other:?}"),
        };
        let mut accepted = Vec::new();
        for (got, matrix) in candidates() {
            let mut y = vec![0.0; n];
            let mut args = [matrix, KernelArg::In(&x), KernelArg::Out(&mut y)];
            let outcome = loaded.run(&params, &mut args);
            let [matrix, ..] = args;
            match outcome {
                Ok(()) => {
                    let mut reference = vec![0.0; n];
                    let mut args = [matrix, KernelArg::In(&x), KernelArg::Out(&mut reference)];
                    k.run_with(&interp, &params, &mut args)
                        .unwrap_or_else(|e| panic!("{case}: {e}"));
                    assert_eq!(y, reference, "{case}");
                    accepted.push(got);
                }
                Err(KernelCallError::Mismatch { detail }) => {
                    assert_eq!(detail, format!("operand \"A\": expected {case}, got {got}"))
                }
                Err(e) => panic!("{case} given {got}: {e}"),
            }
        }
        assert_eq!(accepted, [layout.name], "{case}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn validated_libraries_stay_open_until_their_record_goes() {
    if no_rustc("validated_libraries_stay_open_until_their_record_goes") {
        return;
    }
    let session = Session::new();
    let dir = scratch_dir("resident");
    let store = KernelStore::at(&dir);
    let k = compile(&session, "mvm", "csr");
    let a = Csr::from_triplets(&matrix());
    let n = a.nrows;
    let x = gen::dense_vector(n, 8);
    let run = |loaded: &bernoulli_synth::LoadedKernel| {
        let mut y = vec![0.0; n];
        let mut args = [
            KernelArg::Csr(&a),
            KernelArg::In(&x),
            KernelArg::Out(&mut y),
        ];
        loaded.run(&[n as i64, n as i64], &mut args).expect("runs");
        y
    };

    // Two loads with the first kernel dropped in between: one dlopen.
    let first = k.load_in(&store).expect("loads");
    let artifact = first.artifact_path().to_path_buf();
    let y = run(&first);
    drop(first);
    let second = k.load_in(&store).expect("loads");
    assert!(second.from_cache() && second.validated());
    assert_eq!(run(&second), y);
    let stats = store.stats();
    assert_eq!(
        (stats.compiles, stats.opens, stats.hits),
        (1, 1, 1),
        "{stats:?}"
    );

    // The store trusts what it validated and holds mapped: damage to
    // the file is a fresh handle's to find (a restart), and it rebuilds
    // and validates again there.
    // (Replaced, not overwritten: the open library maps the old file.)
    std::fs::remove_file(&artifact).expect("removes");
    std::fs::write(&artifact, b"garbage").expect("replaces");
    assert!(k.load_in(&store).expect("loads").from_cache());
    assert_eq!(store.stats().opens, 1);
    let restarted = KernelStore::at(&dir);
    let rebuilt = k.load_in(&restarted).expect("loads");
    assert!(!rebuilt.from_cache() && rebuilt.validated());
    assert_eq!(run(&rebuilt), y);
    let stats = restarted.stats();
    assert_eq!(
        (stats.corrupt, stats.compiles, stats.opens),
        (1, 1, 1),
        "{stats:?}"
    );
    drop(rebuilt);

    // Quarantine drops the open library with the rest of the record. A
    // kernel handed out earlier keeps its own and still runs; the next
    // admitted load builds, opens and validates again.
    store.quarantine(&artifact);
    assert!(!store.is_validated(&artifact) && !artifact.exists());
    assert_eq!(run(&second), y);
    assert!(matches!(
        k.load_in(&store),
        Err(LoadError::Cache(KernelCacheError::Quarantined { .. }))
    ));
    store.clear_quarantine();
    let again = k.load_in(&store).expect("loads");
    assert!(!again.from_cache() && again.validated());
    assert!(store.is_validated(&artifact));
    assert_eq!(run(&again), y);
    assert_eq!(run(&second), y);
    let stats = store.stats();
    assert_eq!((stats.compiles, stats.opens), (2, 2), "{stats:?}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A crate with no panic path carries no `core::panic::Location`, so
/// nothing of the build's scratch paths reaches the artifact.
#[test]
fn artifacts_do_not_depend_on_where_they_were_built() {
    if no_rustc("artifacts_do_not_depend_on_where_they_were_built") {
        return;
    }
    let session = Session::new();
    for (kernel, format) in [("mvm", "csr"), ("ts", "jad"), ("mvm", "vbr")] {
        let k = compile(&session, kernel, format);
        let built: Vec<Vec<u8>> = ["here", "somewhere-else/with/a/longer/path"]
            .iter()
            .map(|place| {
                let dir = scratch_dir("where").join(place);
                let loaded = k.load_in(&KernelStore::at(&dir)).expect("loads");
                assert!(!loaded.from_cache());
                std::fs::read(loaded.artifact_path()).expect("artifact")
            })
            .collect();
        assert!(built[0] == built[1], "{kernel}/{format}: artifacts differ");
    }
    let _ = std::fs::remove_dir_all(scratch_dir("where"));
}
