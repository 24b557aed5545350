//! The plan interpreter counts what it did, and the counts are part of
//! its contract: the cost-model experiment (`experiments costmodel`)
//! reads `RunStats`, so an interpreter that got faster by doing
//! different work would silently move those numbers. For the nineteen
//! committed (kernel, format) pairs and the two sparse dot-product
//! joins, on fixed small inputs, `RunStats` must equal the table
//! recorded from the tree-walking interpreter (the parent of PR 20,
//! commit e10d697) and the outputs must equal the dense reference
//! executor's to the 1e-9 the equivalence suites use.
//!
//! To re-record after a deliberate change to lowering (not to the
//! interpreter): run with `--nocapture`, the observed rows are printed
//! in table syntax before the comparison.

use bernoulli_blas::kernels;
use bernoulli_blas::synth::{spec_for, view_for, GENERATED_KERNELS};
use bernoulli_formats::formats::sparsevec::{hashvec_format_view, sparsevec_format_view};
use bernoulli_formats::{
    discover_strips, gen, vector_features, Bsr, Coo, Csc, Csr, Dense, Dia, Ell, HashVec, Jad, Sky,
    SparseVec, SparseView, Triplets, Vbr,
};
use bernoulli_ir::{run_dense, DenseEnv};
use bernoulli_synth::{run_plan, ExecEnv, RunStats, Session, SynthOptions, WorkloadStats};

/// `(problem, iterations, searches, executions, guard_misses)` from the
/// parent commit's interpreter.
const RECORDED: &[(&str, u64, u64, u64, u64)] = &[
    ("mvm/csr", 280, 0, 240, 0),
    ("mvm/csc", 280, 0, 240, 0),
    ("mvm/coo", 240, 0, 240, 0),
    ("mvm/dia", 689, 0, 670, 0),
    ("mvm/ell", 280, 0, 240, 0),
    ("mvm/jad", 280, 0, 240, 0),
    ("ts/csr", 180, 0, 140, 140),
    ("ts/csc", 180, 0, 140, 140),
    ("ts/jad", 180, 40, 140, 140),
    ("ts/dia", 440, 400, 355, 355),
    ("ts/sky", 317, 0, 277, 277),
    ("mvm/sky", 317, 0, 277, 0),
    ("mvmt/csr", 280, 0, 240, 0),
    ("mvmt/csc", 280, 0, 240, 0),
    ("mvmt/coo", 240, 0, 240, 0),
    ("mvm/bsr2x2", 568, 0, 528, 0),
    ("mvmt/bsr2x2", 568, 0, 528, 0),
    ("mvm/vbr", 280, 0, 240, 0),
    ("mvmt/vbr", 280, 0, 240, 0),
    ("spdot/merge", 138, 0, 11, 0),
    ("spdot/hash", 60, 60, 11, 0),
];

fn stored(format: &str, t: &Triplets<f64>) -> Box<dyn SparseView> {
    match format {
        "csr" => Box::new(Csr::from_triplets(t)),
        "csc" => Box::new(Csc::from_triplets(t)),
        "coo" => Box::new(Coo::from_triplets(t)),
        "dia" => Box::new(Dia::from_triplets(t)),
        "ell" => Box::new(Ell::from_triplets(t)),
        "jad" => Box::new(Jad::from_triplets(t)),
        "sky" => Box::new(Sky::from_triplets(t)),
        "bsr2x2" => Box::new(Bsr::from_triplets(t, 2, 2)),
        "vbr" => {
            let (rows, cols) = discover_strips(t);
            Box::new(Vbr::from_triplets(t, &rows, &cols))
        }
        other => panic!("unknown format {other}"),
    }
}

fn close(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| (g - w).abs() <= 1e-9 * (1.0 + g.abs().max(w.abs())))
}

/// The 40-row operands `loaded_kernels.rs` uses: the lower triangle for
/// the solves and for skyline, which stores nothing else.
fn operands(kernel: &str, format: &str) -> (Triplets<f64>, Vec<f64>) {
    let t = gen::structurally_symmetric(40, 240, 10, 3);
    if kernel == "ts" || format == "sky" {
        (t.lower_triangle_full_diag(2.5), gen::dense_vector(40, 9))
    } else {
        (t, gen::dense_vector(40, 8))
    }
}

/// Interprets one committed pair; returns its counts after checking
/// the output against the dense reference executor.
fn pair(session: &Session, kernel: &str, format: &str) -> RunStats {
    let (t, input) = operands(kernel, format);
    let (p, matrix) = spec_for(kernel);
    let bound = session
        .bind(&p, &[(matrix, view_for(kernel, format))])
        .unwrap_or_else(|e| panic!("{kernel}/{format}: {e}"));
    let k = session
        .compile(&bound)
        .unwrap_or_else(|e| panic!("{kernel}/{format}: {e}"));

    let n = t.nrows();
    let (out, vectors): (&str, Vec<(&str, Vec<f64>)>) = if kernel == "ts" {
        ("b", vec![("b", input)])
    } else {
        ("y", vec![("x", input), ("y", vec![0.0; n])])
    };
    let params: &[&str] = if kernel == "ts" { &["N"] } else { &["M", "N"] };

    let dense = Dense::from_triplets(&t);
    let mut denv = DenseEnv::new().matrix(matrix, &dense);
    let view = stored(format, &t);
    let mut env = ExecEnv::new();
    env.bind_sparse(matrix, view.as_ref());
    for name in params {
        denv = denv.param(name, n as i64);
        env.set_param(name, n as i64);
    }
    for (name, v) in &vectors {
        denv = denv.vector(name, v.clone());
        env.bind_vec(name, v.clone());
    }
    run_dense(&p, &mut denv).unwrap_or_else(|e| panic!("{kernel}/{format}: {e}"));
    let stats = run_plan(k.plan(), &mut env).unwrap_or_else(|e| panic!("{kernel}/{format}: {e}"));
    let (got, want) = (env.take_vec(out), denv.take_vector(out));
    assert!(close(&got, &want), "{kernel}/{format}: {got:?} vs {want:?}");
    stats
}

/// The sparse dot product of §4.1 with `y` sorted (merge join) or
/// hashed (one probe per entry of `x`). The search is told how sparse
/// the operands are, as `examples/join_strategies.rs` does: without
/// that it scans `0..N` and searches both.
fn spdot(hashed: bool) -> RunStats {
    let n = 500;
    let xa = gen::sparse_vector(n, 60, 3);
    let ya = gen::sparse_vector(n, 90, 4);
    let session = Session::with_options(SynthOptions {
        stats: WorkloadStats::from_features(&[
            ("x", &vector_features(n, &xa)),
            ("y", &vector_features(n, &ya)),
        ]),
        ..SynthOptions::default()
    });
    let xs = SparseVec::from_pairs(n, &xa);
    let ys = SparseVec::from_pairs(n, &ya);
    let yh = HashVec::from_pairs(n, &ya);
    let y_view = if hashed {
        hashvec_format_view()
    } else {
        sparsevec_format_view()
    };
    let spec = kernels::spdot();
    let bound = session
        .bind(&spec, &[("x", sparsevec_format_view()), ("y", y_view)])
        .expect("binds");
    let k = session.compile(&bound).expect("compiles");

    let mut dense = [vec![0.0; n], vec![0.0; n]];
    for (d, pairs) in dense.iter_mut().zip([&xa, &ya]) {
        for &(i, v) in pairs {
            d[i] += v;
        }
    }
    let want: f64 = dense[0].iter().zip(&dense[1]).map(|(a, b)| a * b).sum();

    let mut env = ExecEnv::new();
    env.set_param("N", n as i64);
    env.bind_sparse("x", &xs);
    if hashed {
        env.bind_sparse("y", &yh);
    } else {
        env.bind_sparse("y", &ys);
    }
    env.bind_vec("s", vec![0.0]);
    let stats = run_plan(k.plan(), &mut env).expect("runs");
    let got = env.take_vec("s")[0];
    assert!((got - want).abs() < 1e-9, "{got} vs {want}");
    stats
}

#[test]
fn run_stats_are_the_tree_walking_interpreters() {
    let session = Session::new();
    let mut observed: Vec<(String, RunStats)> = GENERATED_KERNELS
        .iter()
        .map(|&(kernel, format)| (format!("{kernel}/{format}"), pair(&session, kernel, format)))
        .collect();
    observed.push(("spdot/merge".into(), spdot(false)));
    observed.push(("spdot/hash".into(), spdot(true)));

    for (name, s) in &observed {
        println!(
            "    ({name:?}, {}, {}, {}, {}),",
            s.iterations, s.searches, s.executions, s.guard_misses
        );
    }
    assert_eq!(observed.len(), RECORDED.len(), "one row per problem");
    for ((name, got), &(problem, iterations, searches, executions, guard_misses)) in
        observed.iter().zip(RECORDED)
    {
        assert_eq!(name, problem);
        let want = RunStats {
            iterations,
            searches,
            executions,
            guard_misses,
        };
        assert_eq!(got, &want, "{name}");
    }
}

/// `r = b - A·x` on a 3×3 CSR: two statements, the first hoisted
/// before the enumeration of a row — so a run that started would have
/// written `r[0]` before it needed anything else.
fn residual_env<'m>(a: &'m Csr<f64>) -> ExecEnv<'m> {
    let mut env = ExecEnv::new();
    env.set_param("M", 3).set_param("N", 3);
    env.bind_sparse("A", a);
    env.bind_vec("x", vec![1.0, 2.0, 3.0]);
    env.bind_vec("b", vec![4.0, 5.0, 6.0]);
    env.bind_vec("r", vec![-1.0; 3]);
    env
}

#[test]
fn unbound_names_are_typed_errors_before_the_first_iteration() {
    let session = Session::new();
    let spec = kernels::residual();
    let a = Csr::from_triplets(&Triplets::from_entries(
        3,
        3,
        &[(0, 0, 1.0), (1, 2, 2.0), (2, 1, 3.0)],
    ));
    let bound = session.bind(&spec, &[("A", a.format_view())]).unwrap();
    let k = session.compile(&bound).unwrap();

    let mut env = residual_env(&a);
    run_plan(k.plan(), &mut env).expect("everything bound: runs");
    assert_eq!(env.take_vec("r"), vec![3.0, -1.0, 0.0]);

    // A vector only the second statement reads.
    let mut env = residual_env(&a);
    env.vectors.remove("x");
    let e = run_plan(k.plan(), &mut env).unwrap_err();
    assert!(e.0.contains("\"x\" not bound"), "{e}");
    assert_eq!(env.take_vec("r"), vec![-1.0; 3], "nothing ran");

    // The view.
    let mut env = residual_env(&a);
    env.sparse.remove("A");
    let e = run_plan(k.plan(), &mut env).unwrap_err();
    assert!(e.0.contains("matrix \"A\" not bound"), "{e}");
    assert_eq!(env.take_vec("r"), vec![-1.0; 3], "nothing ran");

    // A parameter: with no sparse operand the plan is the loop `0..N`
    // itself (the tree-walking interpreter panicked here).
    let spec = session
        .parse("program scale(N) { inout vector v[N]; for i in 0..N { v[i] = v[i] * 2; } }")
        .unwrap();
    let k = session.compile(&session.bind(&spec, &[]).unwrap()).unwrap();
    let mut env = ExecEnv::new();
    env.bind_vec("v", vec![1.0, 2.0]);
    let e = run_plan(k.plan(), &mut env).unwrap_err();
    assert!(e.0.contains("variable \"N\" not bound"), "{e}");
    assert_eq!(env.take_vec("v"), vec![1.0, 2.0], "nothing ran");
}
