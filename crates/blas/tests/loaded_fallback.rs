//! Interpreter fallback when the host has **no usable `rustc`**: the
//! compiled-kernel path must degrade with a typed reason and the
//! unified runner must still produce the hand-written results.
//!
//! This lives in its own integration-test binary (= its own process):
//! the kernel cache memoizes its compiler probe per process, so the
//! `BERNOULLI_RUSTC` override must be set before anything else touches
//! it — which only a dedicated process guarantees.

use bernoulli_blas::handwritten as hw;
use bernoulli_blas::synth;
use bernoulli_formats::{gen, Csr};
use bernoulli_service::{
    KernelArg, KernelBackend, KernelCacheError, KernelStore, LoadError, Session,
};

#[test]
fn no_rustc_degrades_to_interpreter_with_typed_reason() {
    // Point the kernel cache at a compiler that cannot exist. First
    // probe in this process, so the memoized result is the failure.
    std::env::set_var("BERNOULLI_RUSTC", "/nonexistent/bernoulli-no-rustc");
    assert!(
        bernoulli_service::rustc_info().is_err(),
        "the override must make the compiler probe fail"
    );

    let t = gen::structurally_symmetric(30, 150, 8, 3);
    let a = Csr::from_triplets(&t);
    let session = Session::new();
    let (p, mat) = synth::spec_for("mvm");
    let bound = session
        .bind(&p, &[(mat, synth::view_for("mvm", "csr"))])
        .expect("binds");
    let k = session.compile(&bound).expect("compiles");

    // Loading must fail with the typed CompilerUnavailable reason…
    let store = KernelStore::at(
        std::env::temp_dir().join(format!("bernoulli-kc-fallback-{}", std::process::id())),
    );
    match k.load_in(&store) {
        Err(LoadError::Cache(KernelCacheError::CompilerUnavailable { detail })) => {
            assert!(
                detail.contains("bernoulli-no-rustc"),
                "detail should name the probed binary: {detail}"
            );
        }
        other => panic!("expected CompilerUnavailable, got {other:?}"),
    }

    // …the backend must degrade rather than error…
    let backend = k.backend_in(&store);
    assert!(
        matches!(
            backend,
            KernelBackend::Interpreted {
                reason: LoadError::Cache(KernelCacheError::CompilerUnavailable { .. })
            }
        ),
        "backend must carry the typed fallback reason"
    );

    // …and the unified runner must still match the hand-written kernel
    // bitwise through the interpreter.
    let x = gen::dense_vector(30, 4);
    let mut y_fallback = vec![0.0; 30];
    let mut args = [
        KernelArg::Csr(&a),
        KernelArg::In(&x),
        KernelArg::Out(&mut y_fallback),
    ];
    k.run_with(&backend, &[30, 30], &mut args)
        .expect("fallback run");

    let mut y_hand = vec![0.0; 30];
    hw::mvm_csr(&a, &x, &mut y_hand);
    assert_eq!(y_fallback, y_hand, "fallback must match hand-written");
}
