//! Fault-injected chaos tests over the whole pipeline (run with
//! `--features faults`): panics, delays, and budget starvation at the
//! named sites inside the pool, the polyhedral layer, and the search
//! must surface as a typed error or a verified-correct degraded result
//! — never a process abort, never a wrong answer — and the next compile
//! after the fault clears must succeed at full quality.
#![cfg(feature = "faults")]

use bernoulli::prelude::*;
use bernoulli::synth::SynthError;
use bernoulli_govern::faults;
use std::sync::Mutex;
use std::time::Duration;

/// Fault table + installed budget are process-global state.
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

fn run_kernel(kernel: &CompiledKernel, a: &Csr) -> Vec<f64> {
    let mut env = ExecEnv::new();
    env.set_param("M", 3).set_param("N", 3);
    env.bind_sparse("A", a);
    env.bind_vec("x", vec![1.0, 2.0, 3.0]);
    env.bind_vec("y", vec![0.0; 3]);
    kernel.interpret(&mut env).unwrap();
    env.take_vec("y")
}

fn compile(s: &Session, a: &Csr) -> Result<CompiledKernel, SynthError> {
    let p = s.parse(MVM).unwrap();
    let bound = s.bind(&p, &[("A", a.format_view())]).unwrap();
    s.compile(&bound)
}

/// `b = L⁻¹·b` over JAD: its four configurations fan the search out
/// over the pool, so a `pool.worker` fault finds jobs to kill (MVM over
/// CSR has one configuration, and its search never reaches a worker).
fn jad() -> Jad {
    let t = [
        (0, 0, 2.0),
        (1, 0, 1.0),
        (1, 1, 4.0),
        (2, 1, 3.0),
        (2, 2, 5.0),
    ];
    Jad::from_triplets(&Triplets::from_entries(3, 3, &t))
}

fn compile_ts(s: &Session, l: &Jad) -> Result<CompiledKernel, SynthError> {
    let bound = s.bind(&kernels::ts(), &[("L", l.format_view())]).unwrap();
    s.compile(&bound)
}

/// Solves `L·x = [2, 9, 21]`, whose solution is `[1, 2, 3]` exactly.
fn solve(kernel: &CompiledKernel, l: &Jad) -> Vec<f64> {
    let mut env = ExecEnv::new();
    env.set_param("N", 3);
    env.bind_sparse("L", l);
    env.bind_vec("b", vec![2.0, 9.0, 21.0]);
    kernel.interpret(&mut env).unwrap();
    env.take_vec("b")
}

const SOLVED: [f64; 3] = [1.0, 2.0, 3.0];

/// Guard restoring a clean fault table even when an assertion fails,
/// and failing the test when a counted fault it armed never fired: the
/// test would then have proved nothing about that site.
struct ClearFaults;
impl Drop for ClearFaults {
    fn drop(&mut self) {
        let unfired = faults::disarm();
        if !std::thread::panicking() {
            assert!(unfired.is_empty(), "armed but never fired: {unfired:?}");
        }
    }
}

#[test]
fn fm_starvation_degrades_to_correct_result() {
    let _lock = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    let _clear = ClearFaults;
    let a = csr();
    // A generous budget that would never trip on its own; the injected
    // starvation forces it into the exhausted state at the first
    // Fourier–Motzkin elimination.
    let s = Session::new().with_op_budget(1_000_000_000);
    faults::configure("polyhedra.fm=starve#1");
    let kernel = compile(&s, &a).expect("starvation must degrade, not fail");
    assert!(kernel.report().degraded);
    assert_eq!(run_kernel(&kernel, &a), reference());
    // Fault cleared: the same session compiles at full quality again
    // (fresh budget per compile; the degraded result was not cached).
    faults::clear();
    let healed = compile(&s, &a).unwrap();
    assert!(!healed.report().degraded);
    assert_eq!(run_kernel(&healed, &a), reference());
}

#[test]
fn fm_delays_with_deadline_still_produce_correct_result() {
    let _lock = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    let _clear = ClearFaults;
    let a = csr();
    // Every FM elimination sleeps 3ms; the 15ms deadline cannot cover
    // the full search, so the compile must degrade to the baseline.
    let s = Session::new().with_deadline(Duration::from_millis(15));
    faults::configure("polyhedra.fm=delay:3");
    let kernel = compile(&s, &a).expect("deadline must degrade, not fail");
    assert_eq!(run_kernel(&kernel, &a), reference());
    assert!(kernel.report().degraded);
}

#[test]
fn search_config_panic_is_a_typed_error_and_recoverable() {
    let _lock = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    let _clear = ClearFaults;
    let a = csr();
    let s = Session::new();
    faults::configure("synth.config=panic#1");
    match compile(&s, &a) {
        Err(SynthError::Pool(e)) => {
            assert!(e.to_string().contains("synth.config"), "{e}");
        }
        other => panic!("expected typed pool error, got {other:?}"),
    }
    // The process survived; with the fault spent the session recovers.
    let kernel = compile(&s, &a).unwrap();
    assert_eq!(run_kernel(&kernel, &a), reference());
}

#[test]
fn worker_deaths_do_not_corrupt_a_parallel_compile() {
    let _lock = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    let _clear = ClearFaults;
    let l = jad();
    let mut s = Session::new().with_threads(3);
    s.options_mut().parallel = true;
    // Kill two workers as they pick up jobs: the surviving lanes drain
    // the fan-out, the dead workers respawn on the next submission.
    faults::configure("pool.worker=panic#2");
    let kernel = compile_ts(&s, &l).unwrap();
    assert_eq!(solve(&kernel, &l), SOLVED);
    faults::clear();
    let again = compile_ts(&s, &l).unwrap();
    assert_eq!(solve(&again, &l), SOLVED);
}

#[test]
fn combined_faults_never_crash_or_corrupt() {
    let _lock = CHAOS.lock().unwrap_or_else(|e| e.into_inner());
    let _clear = ClearFaults;
    let l = jad();
    // Several sites armed at once, each for a bounded number of hits,
    // over repeated compiles: every outcome is a typed error or a
    // verified-correct kernel, and the final (fault-free) compile is
    // pristine.
    faults::configure("polyhedra.fm=starve#1,synth.config=panic#1,pool.worker=panic#1");
    let mut s = Session::new().with_threads(2).with_op_budget(1_000_000_000);
    s.options_mut().parallel = true;
    for _ in 0..4 {
        match compile_ts(&s, &l) {
            Ok(kernel) => assert_eq!(solve(&kernel, &l), SOLVED),
            Err(SynthError::Pool(_)) | Err(SynthError::Deadline { .. }) => {}
            Err(other) => panic!("unexpected error class: {other:?}"),
        }
    }
    faults::clear();
    let kernel = compile_ts(&s, &l).unwrap();
    assert!(!kernel.report().degraded);
    assert_eq!(solve(&kernel, &l), SOLVED);
}
