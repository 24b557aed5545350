//! The structure-aware advisor: ranking, determinism, plan-cache reuse,
//! instance-derived view annotations, and execution of advised kernels.

use bernoulli_formats::{gen, Layout, StructureFeatures};
use bernoulli_ir::parse_program;
use bernoulli_service::{view_for_features, Service, ServiceConfig, Session};
use bernoulli_synth::{ExecEnv, SynthError};

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

#[test]
fn advise_ranks_and_runs() {
    let session = Session::new();
    let p = parse_program(MVM).unwrap();
    let t = gen::structurally_symmetric(128, 1100, 16, 3);
    let advice = session
        .advise(&p, "A", &t, &["coo", "csr", "csc", "ell", "jad"])
        .unwrap();

    // Every scored candidate, ranked by predicted cost.
    assert!(!advice.ranked.is_empty());
    for w in advice.ranked.windows(2) {
        assert!(w[0].predicted_cost <= w[1].predicted_cost);
    }
    assert_eq!(
        advice.best().predicted_cost,
        advice.ranked[0].predicted_cost
    );

    // The features snapshot describes the instance.
    assert_eq!((advice.features.nrows, advice.features.ncols), (128, 128));
    assert_eq!(advice.features.nnz, t.nnz());

    // The chosen kernel executes correctly on the chosen format.
    let n = t.nrows();
    let best = advice.best();
    let f = (Layout::named(&best.format).unwrap().from_triplets)(&t, None).unwrap();
    let x = gen::dense_vector(n, 5);
    let mut env = ExecEnv::new();
    env.set_param("M", n as i64).set_param("N", n as i64);
    env.bind_sparse("A", &*f);
    env.bind_vec("x", x.clone());
    env.bind_vec("y", vec![0.0; n]);
    best.kernel.interpret(&mut env).unwrap();
    let y = env.take_vec("y");
    let dense = t.to_dense_rows();
    for r in 0..n {
        let want: f64 = (0..n).map(|c| dense[r][c] * x[c]).sum();
        assert!((y[r] - want).abs() <= 1e-9 * (1.0 + want.abs()), "row {r}");
    }
}

#[test]
fn advise_is_deterministic_and_cache_warm() {
    let session = Session::new();
    let p = parse_program(MVM).unwrap();
    let t = gen::banded(96, 4, 11);
    let a1 = session.advise(&p, "A", &t, &[]).unwrap();
    let a2 = session.advise(&p, "A", &t, &[]).unwrap();
    let order1: Vec<&str> = a1.ranked.iter().map(|e| e.format.as_str()).collect();
    let order2: Vec<&str> = a2.ranked.iter().map(|e| e.format.as_str()).collect();
    assert_eq!(order1, order2, "ranking is deterministic");
    // Derived stats are deterministic, so the second advise hits the
    // session's plan cache for every candidate.
    assert!(
        a2.ranked.iter().all(|e| e.from_cache),
        "second advise should be all plan-cache hits"
    );
}

#[test]
fn structure_flows_into_views() {
    // A lower-triangular instance with a full diagonal earns the r >= c
    // bound and the FullDiagonal guarantee; a general one earns neither.
    let lower = gen::can_1072_like().lower_triangle_full_diag(1.0);
    let lf = StructureFeatures::of_triplets(&lower);
    let v = view_for_features("csr", &lf).unwrap();
    assert!(!v.bounds.is_empty(), "lower-triangular bound expected");
    assert!(!v.guarantees.is_empty(), "FullDiagonal expected");

    let general = gen::random_sparse(64, 64, 400, 9);
    let gf = StructureFeatures::of_triplets(&general);
    let v = view_for_features("csr", &gf).unwrap();
    assert!(v.bounds.is_empty());
    assert!(v.guarantees.is_empty());
}

#[test]
fn advise_unknown_matrix_is_fatal() {
    let session = Session::new();
    let p = parse_program(MVM).unwrap();
    let t = gen::banded(16, 1, 1);
    match session.advise(&p, "B", &t, &["csr"]) {
        Err(SynthError::UnknownMatrix { name }) => assert_eq!(name, "B"),
        other => panic!("expected UnknownMatrix, got {other:?}"),
    }
}

#[test]
fn advise_unknown_format_is_skipped() {
    let session = Session::new();
    let p = parse_program(MVM).unwrap();
    let t = gen::banded(32, 2, 2);
    let advice = session
        .advise(&p, "A", &t, &["csr", "nosuchformat"])
        .unwrap();
    assert_eq!(advice.ranked.len(), 1);
    assert_eq!(advice.skipped.len(), 1);
    assert_eq!(advice.skipped[0].0, "nosuchformat");
}

#[test]
fn service_advise_matches_session() {
    let service = Service::new(ServiceConfig::default());
    let session = Session::new();
    let p = parse_program(MVM).unwrap();
    let t = gen::poisson2d(12);
    let from_service = service.advise(&p, "A", &t, &[]).unwrap();
    let from_session = session.advise(&p, "A", &t, &[]).unwrap();
    let s1: Vec<&str> = from_service
        .ranked
        .iter()
        .map(|e| e.format.as_str())
        .collect();
    let s2: Vec<&str> = from_session
        .ranked
        .iter()
        .map(|e| e.format.as_str())
        .collect();
    assert_eq!(s1, s2, "service and session agree on the ranking");
    assert_eq!(from_service.best().format, from_session.best().format);
}
