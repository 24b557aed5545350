//! Mirror of the README "Embedding the compiler", "Running as a
//! service", "Running synthesized kernels", "Blocked formats",
//! "Structure-aware selection" and "Robustness & self-healing"
//! examples — keeps the documented snippets compiling and running as
//! the API evolves.

use bernoulli::prelude::*;

fn build() -> Result<(), bernoulli::Error> {
    let session = Session::new();
    let t = Triplets::from_entries(3, 3, &[(0, 0, 2.0), (1, 0, 1.0), (1, 1, 3.0), (2, 2, 4.0)]);

    let a = Csr::from_triplets(&t);
    let mvm = session.bind(&kernels::mvm(), &[("A", a.format_view())])?;
    let mvm_kernel = session.compile(&mvm)?;
    let rust_src = mvm_kernel.emit("mvm_csr")?;

    let l = Jad::from_triplets(&t);
    let ts = session.bind(&kernels::ts(), &[("L", l.format_view())])?;
    let ts_kernel = session.compile(&ts)?;
    assert!(ts_kernel.cost() > 0.0);
    assert!(rust_src.contains("fn mvm_csr"));
    Ok(())
}

#[test]
fn readme_snippet_runs() {
    build().unwrap();
}

// README "Running as a service" — identical to the documented snippet
// except for a test-scoped persist_dir (the README points at a
// relative "plan-cache" path; tests must not litter the repo root).
fn serve(persist_dir: std::path::PathBuf) -> Result<(), bernoulli::Error> {
    use std::time::Duration;

    let svc = std::sync::Arc::new(Service::new(ServiceConfig {
        max_inflight: 4,                                    // concurrent compiles
        max_queue: 64,                                      // waiters beyond that
        default_deadline: Some(Duration::from_millis(250)), // queue wait + compile
        persist_dir: Some(persist_dir),                     // warm-start across restarts
        ..ServiceConfig::default()
    }));
    let handles: Vec<_> = (0..8)
        .map(|_| {
            let svc = std::sync::Arc::clone(&svc);
            std::thread::spawn(move || {
                let t = Triplets::from_entries(2, 2, &[(0, 0, 2.0), (1, 1, 3.0)]);
                let a = Csr::from_triplets(&t);
                let bound = svc.bind(&kernels::mvm(), &[("A", a.format_view())])?;
                svc.compile(&bound).map(|k| k.plan().to_string())
            })
        })
        .collect();
    let mut plans: Vec<String> = Vec::new();
    for h in handles {
        match h.join() {
            Ok(r) => plans.push(r?),
            Err(_) => unreachable!("client thread panicked"),
        }
    }
    assert!(plans.windows(2).all(|w| w[0] == w[1])); // byte-identical under concurrency
    Ok(())
}

#[test]
fn readme_service_snippet_runs() {
    let dir = std::env::temp_dir().join(format!("bernoulli-readme-service-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    serve(dir.clone()).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

// README "Running synthesized kernels" — identical to the documented
// snippet. Must hold on hosts with and without a usable `rustc`: the
// backend is either a runtime-compiled cdylib or the interpreter with
// a typed reason, and both produce the same result.
fn run() -> Result<(), bernoulli::Error> {
    let session = Session::new();
    let t = Triplets::from_entries(3, 3, &[(0, 0, 2.0), (1, 2, 1.0), (2, 1, 4.0)]);
    let a = Csr::from_triplets(&t);
    let bound = session.bind(&kernels::mvm(), &[("A", a.format_view())])?;
    let kernel = session.compile(&bound)?;

    let backend = kernel.backend();
    if let KernelBackend::Interpreted { reason } = &backend {
        eprintln!("running through the interpreter: {reason}");
    }

    let x = vec![1.0, 2.0, 3.0];
    let mut y = vec![0.0; 3];
    let mut args = [
        KernelArg::Csr(&a),
        KernelArg::In(&x),
        KernelArg::Out(&mut y),
    ];
    kernel.run_with(&backend, &[3, 3], &mut args)?;
    assert_eq!(y, vec![2.0, 3.0, 8.0]);
    Ok(())
}

#[test]
fn readme_loaded_kernel_snippet_runs() {
    run().unwrap();
}

// README "Blocked formats" — identical to the documented snippet.
#[rustfmt::skip]
fn blocked() -> Result<(), bernoulli::Error> {
    let session = Session::new();
    // Two dense 2x2 diagonal blocks plus one 2x2 coupling block.
    let t = Triplets::from_entries(4, 4, &[
        (0, 0, 4.0), (0, 1, 1.0), (1, 0, 1.0), (1, 1, 4.0),
        (2, 2, 5.0), (2, 3, 2.0), (3, 2, 2.0), (3, 3, 5.0),
        (0, 2, 1.0), (0, 3, 0.5), (1, 2, 0.5), (1, 3, 1.0),
    ]);

    // Discovery scores every candidate shape by fill.
    let rep = discover_block_size(&t, 4, 0.9);
    assert_eq!((rep.r, rep.c, rep.fill), (2, 2, 1.0));

    // Fixed blocks (BSR) and variable strips (VBR) are ordinary views:
    // the same MVM spec synthesizes over the two-level blocked index
    // space, and the emitter tiles the result.
    let a = Bsr::from_triplets(&t, rep.r, rep.c);
    let k = session.compile(&session.bind(&kernels::mvm(), &[("A", a.format_view())])?)?;
    assert!(k.emit("mvm_bsr2x2")?.contains("acc0t__")); // register accumulators

    let (rp, cp) = discover_strips(&t);
    let v = Vbr::from_triplets(&t, &rp, &cp);
    let kv = session.compile(&session.bind(&kernels::mvm(), &[("A", v.format_view())])?)?;
    assert!(kv.emit("mvm_vbr")?.contains("acct__")); // one walk per strip
    Ok(())
}

#[test]
fn readme_blocked_snippet_runs() {
    blocked().unwrap();
}

// README "Structure-aware selection" — identical to the documented
// snippet.
fn advise() -> Result<(), bernoulli::Error> {
    use bernoulli::formats::gen;

    let session = Session::new();

    // One instance, never benchmarked: analyze its structure, derive
    // the cost model's statistics from it, and rank the candidate
    // formats — one search per format, all sharing the session's
    // plan cache.
    let t = gen::banded(1000, 8, 7);
    let advice = session.advise(&kernels::mvm(), "A", &t, &[])?; // &[] = default roster

    for e in &advice.ranked {
        println!("{:<4}  predicted cost {:>12.0}", e.format, e.predicted_cost);
    }
    println!(
        "features: {}x{}, {} nnz, bandwidth {}",
        advice.features.nrows,
        advice.features.ncols,
        advice.features.nnz,
        advice.features.bandwidth
    );

    // The winner is a compiled kernel, ready to pair with the winning
    // storage and execute.
    let best = advice.best();
    let a = AnyFormat::<f64>::try_from_triplets(&best.format, &t)?;
    let mut env = ExecEnv::new();
    env.set_param("M", 1000).set_param("N", 1000);
    env.bind_sparse("A", a.as_view());
    env.bind_vec("x", vec![1.0; 1000]);
    env.bind_vec("y", vec![0.0; 1000]);
    best.kernel.interpret(&mut env)?;
    assert_eq!(env.take_vec("y").len(), 1000);
    Ok(())
}

#[test]
fn readme_advisor_snippet_runs() {
    advise().unwrap();
}

// README "Robustness & self-healing" — identical to the documented
// snippet. Must hold on hosts with and without a usable `rustc`: a
// native backend carries the Validated provenance (or Compiled when
// its signature has no probe), and every failure mode is a typed
// reason plus the interpreter.
fn heal() -> Result<(), bernoulli::Error> {
    let session = Session::new();
    let t = Triplets::from_entries(3, 3, &[(0, 0, 2.0), (1, 2, 1.0), (2, 1, 4.0)]);
    let a = Csr::from_triplets(&t);
    let bound = session.bind(&kernels::mvm(), &[("A", a.format_view())])?;
    let kernel = session.compile(&bound)?;

    let store = KernelStore::at(std::env::temp_dir().join("bernoulli-readme-heal"));
    match kernel.backend_in(&store) {
        // Probed against the interpreter before being served.
        KernelBackend::Validated(k) => assert!(k.validated()),
        // No probe instance for this signature: still native, no
        // badge.
        KernelBackend::Compiled(_) => {}
        // No rustc, a tripped breaker, a quarantined or corrupt
        // artifact: a typed reason and the always-correct interpreter.
        KernelBackend::Interpreted { reason } => {
            eprintln!("interpreter fallback: {reason}");
        }
    }
    Ok(())
}

#[test]
fn readme_healing_snippet_runs() {
    heal().unwrap();
}
