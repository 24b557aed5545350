//! End-to-end: synthesize a plan for each (kernel, format) pair, run it
//! through the interpreter, and compare against the dense reference
//! executor (DESIGN.md property P3).

use bernoulli_formats::convert::AnyFormat;
use bernoulli_formats::view::FormatView;
use bernoulli_formats::{gen, Triplets};
use bernoulli_ir::{parse_program, run_dense, DenseEnv, Program};
use bernoulli_synth::{run_plan, CompiledKernel, ExecEnv, Session, SynthOptions};

const TS: &str = r#"
    program ts(N) {
      in matrix L[N][N];
      inout vector b[N];
      for j in 0..N {
        b[j] = b[j] / L[j][j];
        for i in j+1..N {
          b[i] = b[i] - L[i][j] * b[j];
        }
      }
    }
"#;

const MVM: &str = r#"
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
"#;

/// Compiles `p` on a fresh session with `matrix` bound to `view`.
fn compile(p: &Program, matrix: &str, view: FormatView, opts: SynthOptions) -> CompiledKernel {
    let s = Session::with_options(opts);
    let bound = s
        .bind(p, &[(matrix, view.clone())])
        .unwrap_or_else(|e| panic!("{}: bind failed: {e}", view.name));
    s.compile(&bound)
        .unwrap_or_else(|e| panic!("{}: synthesis failed: {e}", view.name))
}

fn close(a: &[f64], b: &[f64], tol: f64) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| (x - y).abs() <= tol * (1.0 + x.abs().max(y.abs())))
}

/// Runs TS on the given format of a lower-triangular matrix and compares
/// with the dense reference.
fn check_ts(format: &str, t: &Triplets<f64>) {
    let n = t.nrows();
    let p: Program = parse_program(TS).unwrap();
    let f = AnyFormat::from_triplets(format, t);
    let view = f.as_view().format_view();

    let synth = compile(&p, "L", view, SynthOptions::default());

    // Reference.
    let dense = bernoulli_formats::Dense::from_triplets(t);
    let b0 = gen::dense_vector(n, 7);
    let mut env = DenseEnv::new()
        .param("N", n as i64)
        .vector("b", b0.clone())
        .matrix("L", &dense);
    run_dense(&p, &mut env).unwrap();
    let expect = env.take_vector("b");

    // Synthesized plan.
    let mut penv = ExecEnv::new();
    penv.set_param("N", n as i64);
    penv.bind_vec("b", b0);
    penv.bind_sparse("L", f.as_view());
    run_plan(synth.plan(), &mut penv)
        .unwrap_or_else(|e| panic!("{format}: plan failed: {e}\nplan:\n{}", synth.plan()));
    let got = penv.take_vec("b");

    assert!(
        close(&expect, &got, 1e-9),
        "{format}: mismatch\nexpect {:?}\ngot    {:?}\nplan:\n{}",
        &expect[..expect.len().min(8)],
        &got[..got.len().min(8)],
        synth.plan()
    );
}

fn check_mvm(format: &str, t: &Triplets<f64>) {
    let (m, n) = (t.nrows(), t.ncols());
    let p: Program = parse_program(MVM).unwrap();
    let f = AnyFormat::from_triplets(format, t);
    let view = f.as_view().format_view();

    let synth = compile(&p, "A", view, SynthOptions::default());

    let dense = bernoulli_formats::Dense::from_triplets(t);
    let x = gen::dense_vector(n, 3);
    let y0 = vec![0.0; m];
    let mut env = DenseEnv::new()
        .param("M", m as i64)
        .param("N", n as i64)
        .vector("x", x.clone())
        .vector("y", y0.clone())
        .matrix("A", &dense);
    run_dense(&p, &mut env).unwrap();
    let expect = env.take_vector("y");

    let mut penv = ExecEnv::new();
    penv.set_param("M", m as i64);
    penv.set_param("N", n as i64);
    penv.bind_vec("x", x);
    penv.bind_vec("y", y0);
    penv.bind_sparse("A", f.as_view());
    run_plan(synth.plan(), &mut penv)
        .unwrap_or_else(|e| panic!("{format}: plan failed: {e}\nplan:\n{}", synth.plan()));
    let got = penv.take_vec("y");

    assert!(
        close(&expect, &got, 1e-9),
        "{format}: mismatch\nexpect {:?}\ngot    {:?}\nplan:\n{}",
        &expect[..expect.len().min(8)],
        &got[..got.len().min(8)],
        synth.plan()
    );
}

fn lower_tri_workload() -> Triplets<f64> {
    gen::structurally_symmetric(24, 110, 8, 42).lower_triangle_full_diag(1.5)
}

fn square_workload() -> Triplets<f64> {
    gen::structurally_symmetric(20, 96, 7, 11)
}

#[test]
fn ts_csr() {
    check_ts("csr", &lower_tri_workload());
}

#[test]
fn ts_csc() {
    check_ts("csc", &lower_tri_workload());
}

#[test]
fn ts_jad() {
    check_ts("jad", &lower_tri_workload());
}

#[test]
fn ts_dia() {
    check_ts("dia", &lower_tri_workload());
}

#[test]
fn ts_diagsplit() {
    check_ts("diagsplit", &lower_tri_workload());
}

#[test]
fn ts_ell() {
    check_ts("ell", &lower_tri_workload());
}

#[test]
fn ts_dense_format() {
    check_ts("dense", &lower_tri_workload());
}

#[test]
fn mvm_all_formats() {
    let t = square_workload();
    for fmt in [
        "csr",
        "csc",
        "coo",
        "dia",
        "ell",
        "jad",
        "dense",
        "diagsplit",
    ] {
        check_mvm(fmt, &t);
    }
}

#[test]
fn mvm_rectangular() {
    let t = gen::random_sparse(15, 9, 40, 5);
    for fmt in ["csr", "csc", "coo", "ell", "dense"] {
        check_mvm(fmt, &t);
    }
}

#[test]
fn ts_small_and_degenerate() {
    // 1x1 and 2x2 systems.
    let t1 = Triplets::from_entries(1, 1, &[(0, 0, 4.0)]);
    check_ts("csr", &t1);
    check_ts("jad", &t1);
    let t2 = Triplets::from_entries(2, 2, &[(0, 0, 2.0), (1, 0, 1.0), (1, 1, 4.0)]);
    for fmt in ["csr", "csc", "jad", "dia", "diagsplit", "ell"] {
        check_ts(fmt, &t2);
    }
}

#[test]
fn mvm_empty_matrix() {
    // All-zero matrix: y must stay zero.
    let t = Triplets::new(6, 6);
    for fmt in ["csr", "csc", "coo", "ell"] {
        check_mvm(fmt, &t);
    }
}

/// The Fig. 11 cost model must rank the data-centric CSR plan ahead of
/// the iteration-centric fallback when both are in the candidate set.
#[test]
fn cost_model_prefers_data_centric() {
    let p = parse_program(MVM).unwrap();
    let t = gen::random_sparse(64, 64, 400, 7);
    let f = AnyFormat::from_triplets("csr", &t);
    let opts = SynthOptions {
        include_iteration_centric: true,
        stats: bernoulli_synth::WorkloadStats::default()
            .with_param("M", 64.0)
            .with_param("N", 64.0)
            .with_matrix("A", 64.0, 64.0, 400.0),
        ..SynthOptions::default()
    };
    let kernel = compile(&p, "A", f.as_view().format_view(), opts);
    let cands = kernel.candidates();
    assert!(cands.len() >= 2, "need both plan families");
    use bernoulli_synth::plan::StepKind;
    let is_data_centric = |plan: &bernoulli_synth::Plan| {
        plan.steps
            .iter()
            .any(|s| matches!(s.kind, StepKind::Level { .. }))
    };
    // The cheapest candidate walks the storage; some candidate in the
    // list is the dense fallback and must cost more.
    assert!(is_data_centric(&cands[0].plan), "{}", cands[0].plan);
    let fallback = cands.iter().find(|c| !is_data_centric(&c.plan));
    if let Some(fb) = fallback {
        assert!(fb.cost > cands[0].cost);
    }
}
