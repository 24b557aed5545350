//! Negative tests (DESIGN.md P6): the direction and ordering machinery is
//! load-bearing — sabotaging a must-increase step direction, or skipping
//! reduction relaxation where it is required, changes observable results.

use bernoulli::formats::gen;
use bernoulli::prelude::*;
use bernoulli::synth::plan::Dir;
use bernoulli::synth::run_plan;
use bernoulli_ir::{run_dense, DenseEnv};

fn ts_reference(t: &Triplets<f64>, b0: &[f64]) -> Vec<f64> {
    let spec = kernels::ts();
    let dense = Dense::from_triplets(t);
    let mut env = DenseEnv::new()
        .param("N", t.nrows() as i64)
        .vector("b", b0.to_vec())
        .matrix("L", &dense);
    run_dense(&spec, &mut env).unwrap();
    env.take_vector("b")
}

/// Reversing the outer (row) enumeration of the synthesized CSR
/// triangular solve must produce wrong answers: the dependence machinery
/// marked it must-increase for a reason.
#[test]
fn reversed_ts_rows_give_wrong_answers() {
    let session = Session::new();
    let spec = kernels::ts();
    let t = gen::structurally_symmetric(16, 80, 6, 55).lower_triangle_full_diag(1.0);
    let l = Csr::from_triplets(&t);
    let b0 = gen::dense_vector(16, 3);
    let expect = ts_reference(&t, &b0);

    let kernel = session
        .compile(&session.bind(&spec, &[("L", l.format_view())]).unwrap())
        .unwrap();

    // Sanity: the untampered plan is correct.
    let mut env = ExecEnv::new();
    env.set_param("N", 16);
    env.bind_sparse("L", &l);
    env.bind_vec("b", b0.clone());
    kernel.interpret(&mut env).unwrap();
    let ok = env.take_vec("b");
    assert!(
        ok.iter().zip(&expect).all(|(a, b)| (a - b).abs() < 1e-9),
        "untampered plan must be correct"
    );

    // Sabotage: reverse the outer step. The interpreter supports Rev on
    // interval-like levels; CSR's row level is an interval.
    let mut plan = kernel.plan().clone();
    plan.steps[0].dir = Dir::Rev;
    let mut env = ExecEnv::new();
    env.set_param("N", 16);
    env.bind_sparse("L", &l);
    env.bind_vec("b", b0.clone());
    run_plan(&plan, &mut env).unwrap();
    let bad = env.take_vec("b");
    assert!(
        bad.iter().zip(&expect).any(|(a, b)| (a - b).abs() > 1e-6),
        "reversed rows should corrupt the solve: {bad:?}"
    );
}

/// Without reduction relaxation, COO (unordered enumeration) admits no
/// plan for MVM under strict lexicographic semantics... but CSR still
/// does (its column enumeration is increasing). This pins down exactly
/// what the relaxation buys.
#[test]
fn relaxation_is_needed_for_unordered_formats() {
    let session = Session::new();
    let spec = kernels::mvm();
    let t = gen::random_sparse(10, 10, 30, 1);
    let coo = Coo::from_triplets(&t);
    let csr = Csr::from_triplets(&t);

    let strict = SynthOptions {
        relax_reductions: false,
        ..SynthOptions::default()
    };
    use bernoulli::synth::plan::StepKind;
    let uses_level_enum = |plan: &bernoulli::synth::Plan| {
        plan.steps
            .iter()
            .any(|st| matches!(st.kind, StepKind::Level { .. } | StepKind::MergeJoin { .. }))
    };
    // CSR: data-centric even under strict ordering (its column level is
    // sorted, so the carried reduction dependence is satisfied).
    let b_csr = session.bind(&spec, &[("A", csr.format_view())]).unwrap();
    let k_csr = session.compile_with(&b_csr, &strict).unwrap();
    assert!(uses_level_enum(k_csr.plan()), "{}", k_csr.plan());
    // COO: under strict ordering the unordered coupled level cannot carry
    // the reduction dependence, so the compiler is forced off the
    // data-centric enumeration (interval + linear searches).
    let b_coo = session.bind(&spec, &[("A", coo.format_view())]).unwrap();
    let k_coo_strict = session.compile_with(&b_coo, &strict).unwrap();
    assert!(
        !uses_level_enum(k_coo_strict.plan()),
        "strict semantics must not walk COO storage order:
{}",
        k_coo_strict.plan()
    );
    // With the (default) relaxation, the storage-order walk is legal and
    // the cost model picks it.
    let k_coo = session.compile(&b_coo).unwrap();
    assert!(uses_level_enum(k_coo.plan()), "{}", k_coo.plan());
}

/// Triangular solve is never relaxable: even with relaxation on, an
/// upper-triangular operand presented as "lower" (wrong bounds) cannot
/// corrupt the machinery — the solve on the correct operand stays exact
/// across every format that synthesizes.
#[test]
fn ts_results_are_exact_across_formats() {
    let session = Session::new();
    let spec = kernels::ts();
    let t = gen::structurally_symmetric(24, 130, 9, 77).lower_triangle_full_diag(2.0);
    let b0 = gen::dense_vector(24, 5);
    let expect = ts_reference(&t, &b0);
    for fmt in ["csr", "csc", "jad", "ell", "dia", "diagsplit"] {
        // A registered layout by name, the diagonal split by its own
        // constructor.
        let f: Box<dyn SparseView> = match Layout::named(fmt) {
            Ok(layout) => (layout.from_triplets)(&t, None).unwrap(),
            Err(_) => Box::new(DiagSplit::from_triplets(&t)),
        };
        let kernel = session
            .compile(&session.bind(&spec, &[("L", f.format_view())]).unwrap())
            .unwrap_or_else(|e| panic!("{fmt}: {e}"));
        let mut env = ExecEnv::new();
        env.set_param("N", 24);
        env.bind_sparse("L", &*f);
        env.bind_vec("b", b0.clone());
        kernel.interpret(&mut env).unwrap();
        let got = env.take_vec("b");
        for (i, (a, b)) in got.iter().zip(&expect).enumerate() {
            assert!(
                (a - b).abs() < 1e-9 * (1.0 + b.abs()),
                "{fmt} element {i}: {a} vs {b}"
            );
        }
    }
}

/// A statement that is NOT annihilated by the sparse matrix's zeros and
/// not covered by a storage guarantee cannot legally restrict to stored
/// entries. The compiler must fall back to a plan that visits the full
/// iteration space (random access), not silently drop instances.
#[test]
fn non_annihilated_statements_fall_back_to_dense_plans() {
    use bernoulli::synth::plan::StepKind;
    let session = Session::new();
    let spec = session
        .parse(
            r#"program addone(N) {
             in matrix A[N][N];
             inout vector d[N];
             for i in 0..N {
               for j in 0..N {
                 d[i] = d[i] + A[i][j] + 1;
               }
             }
           }"#,
        )
        .unwrap();
    let t = gen::random_sparse(10, 10, 20, 3);
    let a = Csr::from_triplets(&t);
    let kernel = session
        .compile(&session.bind(&spec, &[("A", a.format_view())]).unwrap())
        .unwrap();
    // No data-centric enumeration of A is legal for this body; the "+1"
    // term fires at unstored positions too.
    assert!(
        kernel
            .plan()
            .steps
            .iter()
            .all(|st| matches!(st.kind, StepKind::Interval { .. })),
        "must use the dense fallback:\n{}",
        kernel.plan()
    );

    // And it computes the right thing.
    let dense = Dense::from_triplets(&t);
    let mut env = DenseEnv::new()
        .param("N", 10)
        .vector("d", vec![0.0; 10])
        .matrix("A", &dense);
    run_dense(&spec, &mut env).unwrap();
    let expect = env.take_vector("d");

    let mut penv = ExecEnv::new();
    penv.set_param("N", 10);
    penv.bind_vec("d", vec![0.0; 10]);
    penv.bind_sparse("A", &a);
    kernel.interpret(&mut penv).unwrap();
    let got = penv.take_vec("d");
    for (x, y) in got.iter().zip(&expect) {
        assert!((x - y).abs() < 1e-9, "{got:?} vs {expect:?}");
    }
}

/// Work accounting: the data-centric CSR MVM plan performs exactly one
/// statement execution per stored entry and no searches.
#[test]
fn run_stats_reflect_data_centric_work() {
    let session = Session::new();
    let spec = kernels::mvm();
    let t = gen::random_sparse(30, 30, 180, 9);
    let a = Csr::from_triplets(&t);
    let kernel = session
        .compile(&session.bind(&spec, &[("A", a.format_view())]).unwrap())
        .unwrap();
    let mut env = ExecEnv::new();
    env.set_param("M", 30).set_param("N", 30);
    env.bind_vec("x", gen::dense_vector(30, 1));
    env.bind_vec("y", vec![0.0; 30]);
    env.bind_sparse("A", &a);
    let stats = kernel.interpret(&mut env).unwrap();
    assert_eq!(stats.executions, a.nnz() as u64);
    assert_eq!(stats.searches, 0);
    assert_eq!(stats.iterations, (30 + a.nnz()) as u64);
    assert_eq!(stats.guard_misses, 0);
}
