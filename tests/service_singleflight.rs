//! Single-flight coalescing contract: 16 concurrent cold `compile`
//! calls for the SAME plan-cache key through one shared [`Service`]
//! must run exactly ONE search (the rest coalesce onto it or hit the
//! plan cache it populated), produce byte-identical kernels, and —
//! when the host has a `rustc` — share exactly ONE kernel build.

use bernoulli::prelude::*;
use std::sync::{Arc, Barrier};

const CLIENTS: usize = 16;

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

fn csr(n: usize) -> Csr {
    let mut entries = Vec::new();
    for i in 0..n {
        entries.push((i, i, 2.0 + i as f64));
        if i >= 1 {
            entries.push((i, i - 1, 0.5));
        }
    }
    Csr::from_triplets(&Triplets::from_entries(n, n, &entries))
}

#[test]
fn sixteen_cold_compiles_share_one_search_and_one_build() {
    let service = Arc::new(Service::new(ServiceConfig {
        // Let every client actually run concurrently; coalescing, not
        // admission, must be what collapses the work.
        max_inflight: CLIENTS,
        max_queue: CLIENTS,
        ..ServiceConfig::default()
    }));
    let a = csr(24);
    let p = service.parse(MVM).expect("parses");
    let bound = Arc::new(service.bind(&p, &[("A", a.format_view())]).expect("binds"));

    let barrier = Arc::new(Barrier::new(CLIENTS));
    let mut handles = Vec::new();
    for _ in 0..CLIENTS {
        let service = Arc::clone(&service);
        let bound = Arc::clone(&bound);
        let barrier = Arc::clone(&barrier);
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            service.compile(&bound).expect("compiles")
        }));
    }
    let kernels: Vec<CompiledKernel> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    let stats = service.stats();
    assert_eq!(stats.completed, CLIENTS as u64, "{stats:?}");
    assert_eq!(stats.failed, 0, "{stats:?}");
    assert_eq!(
        stats.searches, 1,
        "exactly one genuine search must run for one key: {stats:?}"
    );
    // Everyone else either waited on the leader's flight or arrived
    // after it published to the plan cache.
    assert!(
        stats.coalesced <= (CLIENTS - 1) as u64,
        "coalesced cannot exceed the follower count: {stats:?}"
    );

    // Determinism: all 16 kernels emit byte-identical source.
    let reference = kernels[0].emit("mvm_kernel").expect("emits");
    for k in &kernels[1..] {
        assert_eq!(
            k.emit("mvm_kernel").expect("emits"),
            reference,
            "coalesced kernels must be byte-identical"
        );
    }

    // The native tier shares the same property: 16 backends over one
    // shared store cost exactly one rustc build.
    if bernoulli::rustc_info().is_ok() {
        let dir =
            std::env::temp_dir().join(format!("bernoulli-singleflight-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = KernelStore::at(&dir);
        let barrier = Arc::new(Barrier::new(CLIENTS));
        let mut handles = Vec::new();
        for k in kernels {
            let store = store.clone();
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                barrier.wait();
                k.backend_in(&store).is_compiled()
            }));
        }
        for h in handles {
            assert!(h.join().unwrap(), "every client must get native code");
        }
        let stats = store.stats();
        assert_eq!(
            stats.compiles, 1,
            "16 backends over one store must cost one rustc build: {stats:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn sequential_and_coalesced_results_are_identical() {
    // The coalesced result must be indistinguishable from a sequential
    // compile on a fresh service (determinism across topologies).
    let a = csr(24);
    let compile_once = |svc: &Service| {
        let p = svc.parse(MVM).expect("parses");
        let bound = svc.bind(&p, &[("A", a.format_view())]).expect("binds");
        svc.compile(&bound)
            .expect("compiles")
            .emit("mvm_kernel")
            .expect("emits")
    };
    let sequential = compile_once(&Service::new(ServiceConfig::default()));

    let service = Arc::new(Service::new(ServiceConfig::default()));
    let p = service.parse(MVM).expect("parses");
    let bound = Arc::new(service.bind(&p, &[("A", a.format_view())]).expect("binds"));
    let barrier = Arc::new(Barrier::new(8));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let service = Arc::clone(&service);
            let bound = Arc::clone(&bound);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                service
                    .compile(&bound)
                    .expect("compiles")
                    .emit("mvm_kernel")
                    .expect("emits")
            })
        })
        .collect();
    for h in handles {
        assert_eq!(
            h.join().unwrap(),
            sequential,
            "concurrent result must equal the sequential one byte-for-byte"
        );
    }
}
