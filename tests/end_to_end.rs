//! Cross-crate integration: every kernel spec × every applicable format,
//! compiled through the facade's [`Session`] driver and validated
//! against the dense reference executor.

use bernoulli::formats::gen;
use bernoulli::prelude::*;
use bernoulli_ir::{run_dense, DenseEnv};

/// `t` in the format of this name: a registered layout, assembled at the
/// shape discovery finds, or a host view by its own constructor.
fn in_format(name: &str, t: &Triplets<f64>) -> Box<dyn SparseView> {
    match name {
        "dense" => Box::new(Dense::from_triplets(t)),
        "diagsplit" => Box::new(DiagSplit::from_triplets(t)),
        _ => (Layout::named(name).unwrap().from_triplets)(t, None).unwrap(),
    }
}

fn close(a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            (x - y).abs() <= 1e-9 * (1.0 + x.abs().max(y.abs())),
            "element {i}: {x} vs {y}"
        );
    }
}

/// Runs a one-matrix kernel both ways and compares the named output
/// vector. The session is shared across a test's formats, so each
/// test also exercises compiler reuse.
#[allow(clippy::too_many_arguments)]
fn check(
    session: &Session,
    spec: &Program,
    matrix: &str,
    format: &str,
    t: &Triplets<f64>,
    params: &[(&str, i64)],
    vecs: &[(&str, Vec<f64>)],
    out: &str,
) {
    let f = in_format(format, t);
    let view = f.format_view();
    let bound = session
        .bind(spec, &[(matrix, view)])
        .unwrap_or_else(|e| panic!("{}/{format}: {e}", spec.name));
    let kernel = session
        .compile(&bound)
        .unwrap_or_else(|e| panic!("{}/{format}: {e}", spec.name));

    let dense = Dense::from_triplets(t);
    let mut env = DenseEnv::new();
    for (k, v) in params {
        env = env.param(k, *v);
    }
    for (k, v) in vecs {
        env = env.vector(k, v.clone());
    }
    env = env.matrix(matrix, &dense);
    run_dense(spec, &mut env).unwrap();
    let expect = env.take_vector(out);

    let mut penv = ExecEnv::new();
    for (k, v) in params {
        penv.set_param(k, *v);
    }
    for (k, v) in vecs {
        penv.bind_vec(k, v.clone());
    }
    penv.bind_sparse(matrix, &*f);
    kernel
        .interpret(&mut penv)
        .unwrap_or_else(|e| panic!("{}/{format}: {e}\n{}", spec.name, kernel.plan()));
    let got = penv.take_vec(out);
    close(&expect, &got);
}

const ALL: &[&str] = &[
    "csr",
    "csc",
    "coo",
    "dia",
    "ell",
    "jad",
    "dense",
    "diagsplit",
];

#[test]
fn mvm_transposed_all_formats() {
    let spec = kernels::mvm_transposed();
    let session = Session::new();
    let t = gen::structurally_symmetric(22, 120, 8, 31);
    let x = gen::dense_vector(22, 1);
    for fmt in ALL {
        check(
            &session,
            &spec,
            "A",
            fmt,
            &t,
            &[("M", 22), ("N", 22)],
            &[("x", x.clone()), ("y", vec![0.0; 22])],
            "y",
        );
    }
}

#[test]
fn row_sums_all_formats() {
    let spec = kernels::row_sums();
    let session = Session::new();
    let t = gen::random_sparse(18, 18, 70, 12);
    for fmt in ALL {
        check(
            &session,
            &spec,
            "A",
            fmt,
            &t,
            &[("M", 18), ("N", 18)],
            &[("r", vec![0.0; 18])],
            "r",
        );
    }
}

#[test]
fn diag_extract_all_formats() {
    let spec = kernels::diag_extract();
    let session = Session::new();
    let t = gen::structurally_symmetric(20, 110, 7, 8);
    for fmt in ALL {
        check(
            &session,
            &spec,
            "A",
            fmt,
            &t,
            &[("N", 20)],
            &[("d", vec![0.0; 20])],
            "d",
        );
    }
}

#[test]
fn ts_on_can1072_scale_through_facade() {
    let spec = kernels::ts();
    let session = Session::new();
    let l = gen::can_1072_like().lower_triangle_full_diag(1.0);
    let b = gen::dense_vector(1072, 2);
    for fmt in ["csr", "csc", "jad"] {
        check(
            &session,
            &spec,
            "L",
            fmt,
            &l,
            &[("N", 1072)],
            &[("b", b.clone())],
            "b",
        );
    }
}

#[test]
fn spdot_through_facade() {
    use bernoulli::formats::formats::sparsevec::sparsevec_format_view;
    let spec = kernels::spdot();
    let n = 500;
    let xa = gen::sparse_vector(n, 60, 3);
    let ya = gen::sparse_vector(n, 90, 4);
    let xs = SparseVec::from_pairs(n, &xa);
    let ys = SparseVec::from_pairs(n, &ya);

    let session = Session::new();
    let kernel = session
        .compile(
            &session
                .bind(
                    &spec,
                    &[
                        ("x", sparsevec_format_view()),
                        ("y", sparsevec_format_view()),
                    ],
                )
                .unwrap(),
        )
        .unwrap();

    let mut dx = vec![0.0; n];
    let mut dy = vec![0.0; n];
    for &(i, v) in &xa {
        dx[i] += v;
    }
    for &(i, v) in &ya {
        dy[i] += v;
    }
    let expect: f64 = dx.iter().zip(&dy).map(|(a, b)| a * b).sum();

    let mut env = ExecEnv::new();
    env.set_param("N", n as i64);
    env.bind_sparse("x", &xs);
    env.bind_sparse("y", &ys);
    env.bind_vec("s", vec![0.0]);
    kernel.interpret(&mut env).unwrap();
    let got = env.take_vec("s")[0];
    assert!((got - expect).abs() < 1e-9, "{got} vs {expect}");
}

#[test]
fn dense_vector_kernels_still_work() {
    // A kernel with no sparse operands at all: the pipeline degenerates
    // to the identity restructuring.
    let session = Session::new();
    let spec = session
        .parse("program scale(N) { inout vector v[N]; for i in 0..N { v[i] = v[i] * 2 + 1; } }")
        .unwrap();
    let kernel = session.compile(&session.bind(&spec, &[]).unwrap()).unwrap();
    let mut env = ExecEnv::new();
    env.set_param("N", 5);
    env.bind_vec("v", vec![1.0, 2.0, 3.0, 4.0, 5.0]);
    kernel.interpret(&mut env).unwrap();
    assert_eq!(env.take_vec("v"), vec![3.0, 5.0, 7.0, 9.0, 11.0]);
}

#[test]
fn residual_all_formats() {
    // r = b - A·x: the initialization statement is hoisted out of the
    // nonzero enumeration (placed *before* it), the accumulation rides
    // the data-centric walk.
    let spec = kernels::residual();
    let session = Session::new();
    let t = gen::structurally_symmetric(20, 100, 7, 21);
    let x = gen::dense_vector(20, 4);
    let b = gen::dense_vector(20, 5);
    for fmt in ALL {
        check(
            &session,
            &spec,
            "A",
            fmt,
            &t,
            &[("M", 20), ("N", 20)],
            &[("x", x.clone()), ("b", b.clone()), ("r", vec![0.0; 20])],
            "r",
        );
    }
}
