//! Session-level resource governance: op budgets and deadlines degrade
//! the search gracefully (best-so-far or baseline plan, never a wrong
//! one), cancellation stops it with a typed error, and a generous
//! budget changes nothing.

use bernoulli_formats::{Csr, SparseView, Triplets};
use bernoulli_service::{BudgetError, Session};
use bernoulli_synth::interp::ExecEnv;
use bernoulli_synth::SynthError;
use std::sync::Mutex;
use std::time::Duration;

/// The installed budget is process-wide; compiles under different
/// budgets must not overlap.
static SLOT: Mutex<()> = Mutex::new(());

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

/// y = A*x computed densely — the ground truth every degraded plan must
/// still reproduce.
fn reference() -> Vec<f64> {
    let a = [[2.0, 0.0, 5.0], [0.0, 0.0, 1.0], [0.0, 4.0, 0.0]];
    let x = [1.0, 2.0, 3.0];
    (0..3)
        .map(|i| (0..3).map(|j| a[i][j] * x[j]).sum())
        .collect()
}

fn run_kernel(kernel: &bernoulli_service::CompiledKernel, a: &Csr) -> Vec<f64> {
    let mut env = ExecEnv::new();
    env.set_param("M", 3).set_param("N", 3);
    env.bind_sparse("A", a);
    env.bind_vec("x", vec![1.0, 2.0, 3.0]);
    env.bind_vec("y", vec![0.0; 3]);
    kernel.interpret(&mut env).unwrap();
    env.take_vec("y")
}

#[test]
fn starved_op_budget_degrades_to_a_correct_plan() {
    let _lock = SLOT.lock().unwrap_or_else(|e| e.into_inner());
    let s = Session::new().with_op_budget(40);
    let p = s.parse(MVM).unwrap();
    let a = csr();
    let bound = s.bind(&p, &[("A", a.format_view())]).unwrap();
    let kernel = s.compile(&bound).unwrap();
    let report = kernel.report();
    assert!(report.degraded, "40 ops cannot complete the search");
    assert!(
        matches!(report.budget, Some(BudgetError::Ops { .. })),
        "{:?}",
        report.budget
    );
    // The degraded plan is still fully verified — it must compute the
    // right answer, not just exist.
    assert_eq!(run_kernel(&kernel, &a), reference());
}

#[test]
fn zero_deadline_degrades_to_a_correct_plan() {
    let _lock = SLOT.lock().unwrap_or_else(|e| e.into_inner());
    let s = Session::new().with_deadline(Duration::ZERO);
    let p = s.parse(MVM).unwrap();
    let a = csr();
    let bound = s.bind(&p, &[("A", a.format_view())]).unwrap();
    let kernel = s.compile(&bound).unwrap();
    let report = kernel.report();
    assert!(report.degraded);
    assert!(
        matches!(report.budget, Some(BudgetError::Deadline { .. })),
        "{:?}",
        report.budget
    );
    assert_eq!(run_kernel(&kernel, &a), reference());
}

#[test]
fn degraded_results_are_not_plan_cached() {
    let _lock = SLOT.lock().unwrap_or_else(|e| e.into_inner());
    let s = Session::new().with_op_budget(40);
    let p = s.parse(MVM).unwrap();
    let a = csr();
    let bound = s.bind(&p, &[("A", a.format_view())]).unwrap();
    assert!(s.compile(&bound).unwrap().report().degraded);
    let second = s.compile(&bound).unwrap();
    assert!(!second.from_cache(), "degraded result must not be cached");
    let stats = s.plan_cache_stats();
    assert_eq!(stats.hits, 0, "{stats:?}");
}

#[test]
fn cancellation_yields_typed_error_not_fallback() {
    let _lock = SLOT.lock().unwrap_or_else(|e| e.into_inner());
    let s = Session::new();
    let tok = s.cancel_token();
    tok.cancel();
    let p = s.parse(MVM).unwrap();
    let a = csr();
    let bound = s.bind(&p, &[("A", a.format_view())]).unwrap();
    match s.compile(&bound) {
        Err(SynthError::Deadline {
            cause: BudgetError::Cancelled,
            ..
        }) => {}
        other => panic!("expected cancelled Deadline error, got {other:?}"),
    }
    // The session itself is not poisoned concept-wise: a new session
    // (fresh, uncancelled) compiles the same problem fine.
    let fresh = Session::new();
    let b2 = fresh.bind(&p, &[("A", a.format_view())]).unwrap();
    assert!(!fresh.compile(&b2).unwrap().report().degraded);
}

#[test]
fn generous_budget_matches_unbudgeted_search() {
    let _lock = SLOT.lock().unwrap_or_else(|e| e.into_inner());
    let p_src = MVM;
    let a = csr();

    let unbudgeted = Session::new();
    let p = unbudgeted.parse(p_src).unwrap();
    let b1 = unbudgeted.bind(&p, &[("A", a.format_view())]).unwrap();
    let k1 = unbudgeted.compile(&b1).unwrap();

    let budgeted = Session::new()
        .with_op_budget(500_000_000)
        .with_deadline(Duration::from_secs(600));
    let b2 = budgeted.bind(&p, &[("A", a.format_view())]).unwrap();
    let k2 = budgeted.compile(&b2).unwrap();

    assert!(!k2.report().degraded);
    assert_eq!(k2.report().budget, None);
    assert_eq!(k2.report().skipped_configs, 0);
    assert_eq!(k1.cost(), k2.cost());
    assert_eq!(k1.report().examined, k2.report().examined);
    assert_eq!(run_kernel(&k2, &a), reference());
}
