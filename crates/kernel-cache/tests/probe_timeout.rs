//! A compiler that never answers its `-vV` probe is a typed, memoized
//! `CompilerUnavailable` after the build timeout, not a caller blocked
//! for ever.
//!
//! This lives in its own integration-test binary (= its own process):
//! the probe runs once per process, so `BERNOULLI_RUSTC` and
//! `BERNOULLI_RUSTC_TIMEOUT_MS` must be set before anything asks for the
//! compiler — which only a dedicated process guarantees.

#![cfg(unix)]

use bernoulli_kernel_cache::{
    rustc_info, ArtifactSpec, KernelCacheError, KernelStore, RUSTC_ENV, RUSTC_TIMEOUT_ENV,
};
use std::os::unix::fs::PermissionsExt;
use std::time::{Duration, Instant};

#[test]
fn a_wedged_probe_times_out_and_stays_failed() {
    let dir = std::env::temp_dir().join(format!("bernoulli-kc-wedged-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("creates");
    // Not `exec sleep`: the shell's child keeps the output pipe open
    // after the shell itself is killed.
    let script = dir.join("rustc");
    std::fs::write(&script, "#!/bin/sh\nsleep 30\n").expect("writes");
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).expect("chmod");
    std::env::set_var(RUSTC_ENV, &script);
    std::env::set_var(RUSTC_TIMEOUT_ENV, "300");

    // Asking for the compiler runs the probe and waits for it, up to the
    // timeout.
    let t0 = Instant::now();
    let store = KernelStore::at(dir.join("store"));
    let err = rustc_info().expect_err("a compiler that never answers is not usable");
    let waited = t0.elapsed();
    assert!(waited < Duration::from_secs(2), "{waited:?}");
    let KernelCacheError::CompilerUnavailable { detail } = &err else {
        panic!("expected CompilerUnavailable, got {err:?}");
    };
    assert!(detail.contains("timed out"), "{detail}");
    assert!(
        detail.contains("rustc"),
        "detail names the binary: {detail}"
    );

    // Memoized: nothing waits again, and nothing can be built.
    let t1 = Instant::now();
    assert_eq!(rustc_info().expect_err("still unusable"), err);
    let spec = ArtifactSpec::new("k".to_string(), "fn a() {}".to_string());
    assert_eq!(spec.expect_err("no spec without a compiler"), err);
    assert!(t1.elapsed() < Duration::from_millis(100));
    assert_eq!(store.stats().compiles, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
