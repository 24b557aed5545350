//! Property-based end-to-end: on random sparse patterns, every
//! synthesized plan agrees with the dense reference executor for MVM and
//! TS across a representative set of formats (DESIGN.md P3/P4 as a
//! randomized property).

use bernoulli_formats::{Layout, Stored, Triplets};
use bernoulli_ir::{parse_program, run_dense, DenseEnv, Program};
use bernoulli_service::Session;
use bernoulli_synth::{run_plan, ExecEnv, Plan};
use proptest::prelude::*;
use std::sync::OnceLock;

/// The best plan for `spec` with `matrix` stored as `f`. One session
/// serves the whole binary: format views repeat across cases, so after
/// the first case every compile is a plan-cache hit.
/// `t` in the registered layout of this name, cut at the shape discovery
/// finds.
fn in_format(name: &str, t: &Triplets<f64>) -> Box<dyn Stored> {
    (Layout::named(name).unwrap().from_triplets)(t, None).unwrap()
}

fn best_plan(spec: &Program, matrix: &str, f: &dyn Stored) -> Plan {
    static SESSION: OnceLock<Session> = OnceLock::new();
    let s = SESSION.get_or_init(Session::new);
    let bound = s
        .bind(spec, &[(matrix, f.format_view())])
        .unwrap_or_else(|e| panic!("{}: {e}", f.layout().name));
    s.compile(&bound)
        .unwrap_or_else(|e| panic!("{}: {e}", f.layout().name))
        .plan()
        .clone()
}

fn mvm_spec() -> Program {
    parse_program(
        r#"program mvm(M, N) {
             in matrix A[M][N]; in vector x[N]; inout vector y[M];
             for i in 0..M { for j in 0..N {
               y[i] = y[i] + A[i][j] * x[j];
             } }
           }"#,
    )
    .unwrap()
}

fn ts_spec() -> Program {
    parse_program(
        r#"program ts(N) {
             in matrix L[N][N]; inout vector b[N];
             for j in 0..N {
               b[j] = b[j] / L[j][j];
               for i in j+1..N {
                 b[i] = b[i] - L[i][j] * b[j];
               }
             }
           }"#,
    )
    .unwrap()
}

/// Random square matrix with distinct positions and non-zero values.
fn arb_matrix(n: usize, max_nnz: usize) -> impl Strategy<Value = Triplets<f64>> {
    proptest::collection::btree_set((0..n, 0..n), 0..=max_nnz).prop_map(move |pos| {
        let entries: Vec<(usize, usize, f64)> = pos
            .into_iter()
            .enumerate()
            .map(|(k, (r, c))| (r, c, 0.25 + (k % 7) as f64))
            .collect();
        Triplets::from_entries(n, n, &entries)
    })
}

fn arb_vec(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-4.0f64..4.0, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mvm_random_patterns(t in arb_matrix(9, 30), x in arb_vec(9)) {
        let spec = mvm_spec();
        let n = t.nrows();
        let dense = bernoulli_formats::Dense::from_triplets(&t);
        let mut env = DenseEnv::new()
            .param("M", n as i64)
            .param("N", n as i64)
            .vector("x", x.clone())
            .vector("y", vec![0.0; n])
            .matrix("A", &dense);
        run_dense(&spec, &mut env).unwrap();
        let expect = env.take_vector("y");

        for fmt in ["csr", "coo", "dia", "jad", "ell"] {
            let f = in_format(fmt, &t);
            let plan = best_plan(&spec, "A", &*f);
            let mut penv = ExecEnv::new();
            penv.set_param("M", n as i64);
            penv.set_param("N", n as i64);
            penv.bind_vec("x", x.clone());
            penv.bind_vec("y", vec![0.0; n]);
            penv.bind_sparse("A", &*f);
            run_plan(&plan, &mut penv).unwrap();
            let got = penv.take_vec("y");
            for (i, (a, b)) in got.iter().zip(&expect).enumerate() {
                prop_assert!(
                    (a - b).abs() <= 1e-9 * (1.0 + b.abs()),
                    "{fmt} element {i}: {a} vs {b}\nplan:\n{plan}"
                );
            }
        }
    }

    #[test]
    fn ts_random_lower_triangles(t in arb_matrix(8, 24), b0 in arb_vec(8)) {
        let l = t.lower_triangle_full_diag(2.0);
        let spec = ts_spec();
        let n = l.nrows();
        let dense = bernoulli_formats::Dense::from_triplets(&l);
        let mut env = DenseEnv::new()
            .param("N", n as i64)
            .vector("b", b0.clone())
            .matrix("L", &dense);
        run_dense(&spec, &mut env).unwrap();
        let expect = env.take_vector("b");

        for fmt in ["csr", "csc", "jad", "dia"] {
            let f = in_format(fmt, &l);
            let plan = best_plan(&spec, "L", &*f);
            let mut penv = ExecEnv::new();
            penv.set_param("N", n as i64);
            penv.bind_vec("b", b0.clone());
            penv.bind_sparse("L", &*f);
            run_plan(&plan, &mut penv).unwrap();
            let got = penv.take_vec("b");
            for (i, (a, b)) in got.iter().zip(&expect).enumerate() {
                prop_assert!(
                    (a - b).abs() <= 1e-8 * (1.0 + b.abs()),
                    "{fmt} element {i}: {a} vs {b}\nplan:\n{plan}"
                );
            }
        }
    }
}
