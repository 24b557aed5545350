//! Fault-injected chaos tests over the compiled-kernel tier (run with
//! `--features faults`): injected `rustc`, `dlopen`, and persistent
//! plan-cache read failures must each surface as the documented typed
//! error with a correct interpreter fallback — bitwise-identical to the
//! fault-free run — never a panic. Repeated build failures must trip
//! the store's circuit breaker, and a cleared fault table must heal.
#![cfg(feature = "faults")]

use bernoulli::prelude::*;
use bernoulli_govern::faults;
use bernoulli_synth::KernelCacheError;
use std::path::PathBuf;
use std::sync::Mutex;

/// The fault table is process-global.
static CHAOS: Mutex<()> = Mutex::new(());

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

fn csr() -> Csr {
    Csr::from_triplets(&Triplets::from_entries(
        3,
        3,
        &[(0, 0, 2.0), (0, 2, 5.0), (1, 2, 1.0), (2, 1, 4.0)],
    ))
}

fn reference() -> Vec<f64> {
    let a = [[2.0, 0.0, 5.0], [0.0, 0.0, 1.0], [0.0, 4.0, 0.0]];
    let x = [1.0, 2.0, 3.0];
    (0..3)
        .map(|i| (0..3).map(|j| a[i][j] * x[j]).sum())
        .collect()
}

fn compile(s: &Session, a: &Csr) -> CompiledKernel {
    let p = s.parse(MVM).unwrap();
    let bound = s.bind(&p, &[("A", a.format_view())]).unwrap();
    s.compile(&bound).unwrap()
}

/// Runs the kernel through the given backend with the positional call
/// convention both backends share.
fn run_backend(k: &CompiledKernel, backend: &KernelBackend, a: &Csr) -> Vec<f64> {
    let x = vec![1.0, 2.0, 3.0];
    let mut y = vec![0.0; 3];
    let mut args = [KernelArg::Csr(a), KernelArg::In(&x), KernelArg::Out(&mut y)];
    k.run_with(backend, &[3, 3], &mut args).unwrap();
    y
}

fn scratch(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bernoulli-chaos-{tag}-{}", std::process::id()))
}

/// Guard restoring a clean fault table even when an assertion fails.
struct ClearFaults;
impl Drop for ClearFaults {
    fn drop(&mut self) {
        faults::clear();
    }
}

#[test]
fn rustc_fault_is_typed_with_identical_interpreter_fallback() {
    let _lock = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    let _clear = ClearFaults;
    if bernoulli_synth::rustc_info().is_err() {
        return;
    }
    let a = csr();
    let s = Session::new();
    let k = compile(&s, &a);

    // Fault-free native run first: the reference bits.
    let dir = scratch("rustc-ok");
    let _ = std::fs::remove_dir_all(&dir);
    let store = KernelStore::at(&dir);
    store.breaker_reset();
    let native = k.backend_in(&store);
    assert!(native.is_compiled());
    let fault_free = run_backend(&k, &native, &a);
    assert_eq!(fault_free, reference());

    // Every build attempt fails injected (the store retries 3 times per
    // build): the backend must degrade to the interpreter with the
    // typed I/O reason, and produce bitwise-identical output.
    let dir2 = scratch("rustc-fail");
    let _ = std::fs::remove_dir_all(&dir2);
    let store2 = KernelStore::at(&dir2);
    store2.breaker_reset();
    faults::configure("kernel.rustc=fail#3");
    let degraded = k.backend_in(&store2);
    match &degraded {
        KernelBackend::Interpreted {
            reason: LoadError::Cache(KernelCacheError::Io { detail }),
        } => assert!(detail.contains("kernel.rustc"), "{detail}"),
        other => panic!("expected typed Io fallback, got {other:?}"),
    }
    let fallback = run_backend(&k, &degraded, &a);
    assert_eq!(
        fallback.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        fault_free.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        "interpreter fallback must be bitwise-identical to the fault-free run"
    );

    // Fault cleared: the same store heals (breaker has one failure,
    // well under the trip threshold).
    faults::clear();
    store2.breaker_reset();
    let healed = k.backend_in(&store2);
    assert!(healed.is_compiled(), "{healed:?}");
    assert_eq!(run_backend(&k, &healed, &a), fault_free);
    store2.breaker_reset();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&dir2);
}

#[test]
fn transient_rustc_fault_is_retried_to_success() {
    let _lock = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    let _clear = ClearFaults;
    if bernoulli_synth::rustc_info().is_err() {
        return;
    }
    let a = csr();
    let s = Session::new();
    let k = compile(&s, &a);
    let dir = scratch("retry");
    let _ = std::fs::remove_dir_all(&dir);
    let store = KernelStore::at(&dir);
    store.breaker_reset();
    // Only the FIRST build attempt fails; the in-build retry loop must
    // absorb it and still come back with native code.
    faults::configure("kernel.rustc=fail#1");
    let backend = k.backend_in(&store);
    assert!(backend.is_compiled(), "retry must heal a one-shot fault");
    assert_eq!(store.stats().retries, 1, "{:?}", store.stats());
    assert_eq!(run_backend(&k, &backend, &a), reference());
    store.breaker_reset();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repeated_rustc_faults_trip_the_circuit_breaker() {
    let _lock = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    let _clear = ClearFaults;
    if bernoulli_synth::rustc_info().is_err() {
        return;
    }
    let a = csr();
    let s = Session::new();
    let k = compile(&s, &a);
    let dir = scratch("breaker");
    let _ = std::fs::remove_dir_all(&dir);
    let store = KernelStore::at(&dir);
    store.breaker_reset();
    // 3 builds × 3 attempts, all failing: the third failed build trips
    // the breaker.
    faults::configure("kernel.rustc=fail#9");
    for _ in 0..3 {
        let b = k.backend_in(&store);
        assert!(!b.is_compiled(), "{b:?}");
        // Each failed load must still serve correct interpreter output.
        assert_eq!(run_backend(&k, &b, &a), reference());
    }
    assert!(store.breaker_tripped(), "3 consecutive failures must trip");
    // With the breaker open the next request short-circuits to the
    // typed CircuitOpen reason without consuming any fault arming.
    match k.backend_in(&store) {
        KernelBackend::Interpreted {
            reason: LoadError::Cache(KernelCacheError::CircuitOpen { failures }),
        } => assert!(failures >= 3, "failures = {failures}"),
        other => panic!("expected CircuitOpen fallback, got {other:?}"),
    }
    // Heal: clear faults, reset the breaker, and build for real.
    faults::clear();
    store.breaker_reset();
    let healed = k.backend_in(&store);
    assert!(healed.is_compiled(), "{healed:?}");
    assert_eq!(run_backend(&k, &healed, &a), reference());
    store.breaker_reset();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dlopen_fault_is_typed_with_identical_interpreter_fallback() {
    let _lock = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    let _clear = ClearFaults;
    if bernoulli_synth::rustc_info().is_err() {
        return;
    }
    let a = csr();
    let s = Session::new();
    let k = compile(&s, &a);
    let dir = scratch("dlopen");
    let _ = std::fs::remove_dir_all(&dir);
    let store = KernelStore::at(&dir);
    store.breaker_reset();
    // Build + load fault-free first (artifact now cached on disk).
    let native = k.backend_in(&store);
    assert!(native.is_compiled());
    let fault_free = run_backend(&k, &native, &a);
    // The store that validated the kernel keeps its library open and
    // never reaches the fault; a restarted process (a fresh handle over
    // the warm directory) fails at dlopen: typed LoadFailed reason,
    // interpreter fallback, identical bits.
    faults::configure("kernel.dlopen=fail#1");
    assert!(k.backend_in(&store).is_compiled());
    let restarted = KernelStore::at(&dir);
    let degraded = k.backend_in(&restarted);
    match &degraded {
        KernelBackend::Interpreted {
            reason: LoadError::Cache(KernelCacheError::LoadFailed { detail }),
        } => assert!(detail.contains("kernel.dlopen"), "{detail}"),
        other => panic!("expected typed LoadFailed fallback, got {other:?}"),
    }
    let fallback = run_backend(&k, &degraded, &a);
    assert_eq!(
        fallback.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        fault_free.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
    );
    // Fault spent: the very next load succeeds from the warm artifact.
    let healed = k.backend_in(&restarted);
    assert!(healed.is_compiled(), "{healed:?}");
    assert_eq!(run_backend(&k, &healed, &a), fault_free);
    store.breaker_reset();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn persist_read_fault_degrades_to_a_full_search() {
    let _lock = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    let _clear = ClearFaults;
    let a = csr();
    let dir = scratch("persist");
    let _ = std::fs::remove_dir_all(&dir);
    let mk_service = || {
        Service::new(ServiceConfig {
            persist_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        })
    };
    // Service A populates the persistent tier.
    let sa = mk_service();
    let p = sa.parse(MVM).unwrap();
    let bound = sa.bind(&p, &[("A", a.format_view())]).unwrap();
    let warm = sa.compile(&bound).unwrap();
    assert!(sa.persist_stats().unwrap().writes >= 1);
    // Service B (fresh in-memory caches, same directory) would warm-
    // start from disk — but the injected read fault must degrade it to
    // a miss + full search, never an error, with an identical plan.
    let sb = mk_service();
    faults::configure("persist.read=fail#1");
    let cold = sb
        .compile(&bound)
        .expect("read fault must not fail the compile");
    let stats = sb.persist_stats().unwrap();
    assert_eq!(stats.errors, 1, "{stats:?}");
    assert!(!cold.report().plan_cache_disk_hit);
    assert_eq!(
        warm.emit("mvm_kernel").unwrap(),
        cold.emit("mvm_kernel").unwrap(),
        "fault-degraded search must produce byte-identical emitted source"
    );
    // Fault spent: a third service warm-starts from disk normally.
    faults::clear();
    let sc = mk_service();
    let disk = sc.compile(&bound).unwrap();
    assert!(disk.report().plan_cache_disk_hit);
    assert_eq!(
        warm.emit("mvm_kernel").unwrap(),
        disk.emit("mvm_kernel").unwrap()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn quarantined_artifact_reserves_through_the_interpreter() {
    let _lock = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    let _clear = ClearFaults;
    if bernoulli_synth::rustc_info().is_err() {
        return;
    }
    let a = csr();
    let s = Session::new();
    let k = compile(&s, &a);
    let dir = scratch("quarantine");
    let _ = std::fs::remove_dir_all(&dir);
    let store = KernelStore::at(&dir);
    store.breaker_reset();
    let native = k.backend_in(&store);
    let fault_free = run_backend(&k, &native, &a);
    let KernelBackend::Validated(loaded) = &native else {
        panic!("expected a validated native backend, got {native:?}");
    };
    // Quarantine the artifact (the same path `KernelCallError::Abi`
    // takes at call time) and re-request the backend: the request must
    // re-serve through the interpreter with the typed reason.
    store.quarantine(loaded.artifact_path());
    let after = k.backend_in(&store);
    match &after {
        KernelBackend::Interpreted {
            reason: LoadError::Cache(KernelCacheError::Quarantined { .. }),
        } => {}
        other => panic!("expected Quarantined fallback, got {other:?}"),
    }
    let fallback = run_backend(&k, &after, &a);
    assert_eq!(
        fallback.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
        fault_free.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
    );
    store.clear_quarantine();
    store.breaker_reset();
    let _ = std::fs::remove_dir_all(&dir);
}
