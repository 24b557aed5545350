//! End-to-end tests of the compiled-kernel path: synthesize → generate
//! a self-contained cdylib crate → build with `rustc` → dlopen → run,
//! plus the artifact-cache and ranged-entry contracts.
//!
//! Every test that needs a real compiler probes for one first and
//! skips (with a notice) when the host has none — the interpreter
//! fallback is covered separately so CI without rustc still exercises
//! the whole surface.

use bernoulli_formats::{Csr, Ell, SparseView, Triplets};
use bernoulli_service::compiled::{KernelArg, KernelBackend};
use bernoulli_service::{KernelStore, Session};

const MVM: &str = "
    program mvm(M, N) {
      in matrix A[M][N];
      in vector x[N];
      inout vector y[M];
      for i in 0..M {
        for j in 0..N {
          y[i] = y[i] + A[i][j] * x[j];
        }
      }
    }
";

fn rustc_available() -> bool {
    bernoulli_kernel_cache::rustc_info().is_ok()
}

fn scratch_store(tag: &str) -> KernelStore {
    let dir = std::env::temp_dir().join(format!("bernoulli-kc-test-{tag}-{}", std::process::id()));
    KernelStore::at(dir)
}

fn triplets(n: usize) -> Triplets<f64> {
    let mut entries = Vec::new();
    for i in 0..n {
        entries.push((i, i, 2.0 + i as f64));
        if i + 1 < n {
            entries.push((i, i + 1, -1.0));
        }
        if i >= 1 {
            entries.push((i, i - 1, 0.5));
        }
    }
    Triplets::from_entries(n, n, &entries)
}

fn compile_mvm(view: bernoulli_formats::FormatView) -> bernoulli_service::CompiledKernel {
    let s = Session::new();
    let p = s.parse(MVM).expect("spec parses");
    let bound = s.bind(&p, &[("A", view)]).expect("binds");
    s.compile(&bound).expect("compiles")
}

#[test]
fn loaded_csr_mvm_matches_interpreter_bitwise() {
    if !rustc_available() {
        eprintln!("SKIP loaded_csr_mvm_matches_interpreter_bitwise: no rustc on host");
        return;
    }
    let n = 64;
    let a = Csr::from_triplets(&triplets(n));
    let k = compile_mvm(a.format_view());
    let store = scratch_store("csr");
    let loaded = k.load_in(&store).expect("loads");
    assert!(loaded.supports_ranged(), "csr mvm splits by rows");

    let x: Vec<f64> = (0..n).map(|i| (i as f64).sin()).collect();
    let mut y_native = vec![0.25; n];
    let mut y_interp = y_native.clone();

    let mut args = [
        KernelArg::Csr(&a),
        KernelArg::In(&x),
        KernelArg::Out(&mut y_native),
    ];
    loaded
        .run(&[n as i64, n as i64], &mut args)
        .expect("native run");

    let mut args = [
        KernelArg::Csr(&a),
        KernelArg::In(&x),
        KernelArg::Out(&mut y_interp),
    ];
    let backend = KernelBackend::Interpreted {
        reason: bernoulli_service::LoadError::Emit(bernoulli_synth::EmitError("forced".into())),
    };
    k.run_with(&backend, &[n as i64, n as i64], &mut args)
        .expect("interp run");

    assert_eq!(
        y_native, y_interp,
        "native and interpreter must agree bitwise"
    );
}

#[test]
fn ranged_entry_composes_to_full_range() {
    if !rustc_available() {
        eprintln!("SKIP ranged_entry_composes_to_full_range: no rustc on host");
        return;
    }
    let n = 50;
    let a = Csr::from_triplets(&triplets(n));
    let k = compile_mvm(a.format_view());
    let store = scratch_store("ranged");
    let loaded = k.load_in(&store).expect("loads");

    let x: Vec<f64> = (0..n).map(|i| 1.0 + (i % 7) as f64).collect();
    let mut y_full = vec![0.0; n];
    let mut y_split = vec![0.0; n];

    let mut args = [
        KernelArg::Csr(&a),
        KernelArg::In(&x),
        KernelArg::Out(&mut y_full),
    ];
    loaded.run(&[n as i64, n as i64], &mut args).expect("full");

    // Two disjoint bands must compose to the full result.
    for (lo, hi) in [(0i64, 17i64), (17, n as i64)] {
        let mut args = [
            KernelArg::Csr(&a),
            KernelArg::In(&x),
            KernelArg::Out(&mut y_split),
        ];
        loaded
            .run_range(&[n as i64, n as i64], &mut args, lo, hi)
            .expect("band");
    }
    assert_eq!(y_full, y_split);
}

#[test]
fn loaded_ell_mvm_matches_interpreter() {
    if !rustc_available() {
        eprintln!("SKIP loaded_ell_mvm_matches_interpreter: no rustc on host");
        return;
    }
    let n = 40;
    let a = Ell::from_triplets(&triplets(n));
    let k = compile_mvm(a.format_view());
    let store = scratch_store("ell");
    let loaded = k.load_in(&store).expect("loads");

    let x: Vec<f64> = (0..n).map(|i| (i as f64) * 0.125 - 1.0).collect();
    let mut y_native = vec![0.0; n];
    let mut y_interp = vec![0.0; n];

    let mut args = [
        KernelArg::Matrix(&a),
        KernelArg::In(&x),
        KernelArg::Out(&mut y_native),
    ];
    loaded
        .run(&[n as i64, n as i64], &mut args)
        .expect("native");

    let mut env = bernoulli_synth::ExecEnv::new();
    env.set_param("M", n as i64).set_param("N", n as i64);
    env.bind_sparse("A", &a);
    env.bind_vec("x", x.clone());
    env.bind_vec("y", vec![0.0; n]);
    k.interpret(&mut env).expect("interp");
    y_interp.copy_from_slice(&env.take_vec("y"));

    assert_eq!(y_native, y_interp);
}

#[test]
fn second_load_hits_artifact_cache() {
    if !rustc_available() {
        eprintln!("SKIP second_load_hits_artifact_cache: no rustc on host");
        return;
    }
    let a = Csr::from_triplets(&triplets(8));
    let k = compile_mvm(a.format_view());
    let store = scratch_store("warm");
    let cold = k.load_in(&store).expect("cold load");
    assert!(!cold.from_cache(), "first load must compile");
    let warm = k.load_in(&store).expect("warm load");
    assert!(warm.from_cache(), "second load must reuse the artifact");
    let stats = store.stats();
    assert_eq!(
        (stats.misses, stats.compiles, stats.hits),
        (1, 1, 1),
        "one build, then one hit that must not invoke rustc: {stats:?}"
    );
}

#[test]
fn call_arity_is_checked() {
    if !rustc_available() {
        eprintln!("SKIP call_arity_is_checked: no rustc on host");
        return;
    }
    let a = Csr::from_triplets(&triplets(8));
    let k = compile_mvm(a.format_view());
    let store = scratch_store("arity");
    let loaded = k.load_in(&store).expect("loads");
    let x = vec![0.0; 8];
    let mut args = [KernelArg::Csr(&a), KernelArg::In(&x)];
    let err = loaded.run(&[8, 8], &mut args).expect_err("missing output");
    assert!(
        matches!(err, bernoulli_service::KernelCallError::Mismatch { .. }),
        "{err:?}"
    );
}

#[test]
fn fresh_load_passes_differential_validation() {
    if !rustc_available() {
        eprintln!("SKIP fresh_load_passes_differential_validation: no rustc on host");
        return;
    }
    let a = Csr::from_triplets(&triplets(16));
    let k = compile_mvm(a.format_view());
    let store = scratch_store("validate");
    // A correct kernel must come back with `Validated` provenance: the
    // differential probe against the interpreter ran and agreed.
    let backend = k.backend_in(&store);
    assert!(
        matches!(backend, KernelBackend::Validated(_)),
        "expected Validated provenance, got {backend:?}"
    );
    assert!(backend.is_validated() && backend.is_compiled());
    // The store remembers the verdict: the second load skips the probe
    // yet keeps the provenance.
    let again = k.backend_in(&store);
    assert!(again.is_validated(), "{again:?}");
}

#[test]
fn quarantined_artifact_is_refused_and_reserved_by_interpreter() {
    if !rustc_available() {
        eprintln!("SKIP quarantined_artifact_is_refused_and_reserved_by_interpreter: no rustc");
        return;
    }
    let n = 16;
    let a = Csr::from_triplets(&triplets(n));
    let k = compile_mvm(a.format_view());
    let store = scratch_store("requarantine");
    let loaded = k.load_in(&store).expect("loads");
    let artifact = loaded.artifact_path().to_path_buf();
    drop(loaded);

    // Quarantine through the same public API the ABI-breach path uses.
    store.quarantine(&artifact);
    let backend = k.backend_in(&store);
    match &backend {
        KernelBackend::Interpreted {
            reason:
                bernoulli_service::LoadError::Cache(bernoulli_service::KernelCacheError::Quarantined {
                    ..
                }),
        } => {}
        other => panic!("expected Quarantined fallback, got {other:?}"),
    }
    // The degraded backend still serves correct answers.
    let x: Vec<f64> = (0..n).map(|i| 1.0 + i as f64).collect();
    let mut y = vec![0.0; n];
    let mut args = [
        KernelArg::Csr(&a),
        KernelArg::In(&x),
        KernelArg::Out(&mut y),
    ];
    k.run_with(&backend, &[n as i64, n as i64], &mut args)
        .expect("interpreter re-serve");
    let mut y_ref = vec![0.0; n];
    let mut args = [
        KernelArg::Csr(&a),
        KernelArg::In(&x),
        KernelArg::Out(&mut y_ref),
    ];
    let interp = KernelBackend::Interpreted {
        reason: bernoulli_service::LoadError::Emit(bernoulli_synth::EmitError("forced".into())),
    };
    k.run_with(&interp, &[n as i64, n as i64], &mut args)
        .expect("reference interpreter run");
    assert_eq!(y, y_ref);

    // Lifting the quarantine restores the native path.
    store.clear_quarantine();
    let healed = k.backend_in(&store);
    assert!(healed.is_compiled(), "{healed:?}");
}
