//! The edge-split triangular solves on lower-triangular patterns chosen
//! to stress the split: rows with no off-diagonal entry (an empty main
//! loop), `n = 1`, a dense last row, every bandwidth.
//!
//! For CSR, CSC and JAD: the runtime-loaded kernel ≡ the interpreter
//! (which executes the *unsplit* plan) ≡ the committed kernel, bitwise,
//! and all within 1e-9 of the dense reference executor.

use bernoulli_blas::synth;
use bernoulli_formats::{Csc, Csr, Dense, Jad, Triplets};
use bernoulli_ir::{run_dense, DenseEnv};
use bernoulli_synth::{KernelArg, KernelBackend, KernelStore, LoadError, Session};
use proptest::prelude::*;
use std::sync::OnceLock;

const N_MAX: usize = 10;

/// What decides a pattern: size, bandwidth, whether the last row is
/// dense, which rows keep only their diagonal, which in-band positions
/// are stored.
struct Shape {
    n: usize,
    band: usize,
    dense_last_row: bool,
    diagonal_only: Vec<bool>,
    keep: Vec<bool>,
}

impl Shape {
    fn triplets(&self) -> Triplets<f64> {
        let mut t = Triplets::new(self.n, self.n);
        for r in 0..self.n {
            t.push(r, r, 2.0 + 0.25 * r as f64);
            let dense = self.dense_last_row && r + 1 == self.n;
            for c in 0..r {
                let stored =
                    r - c <= self.band && !self.diagonal_only[r] && self.keep[r * N_MAX + c];
                if dense || stored {
                    t.push(r, c, 0.5 + ((r * 7 + c * 3) % 5) as f64);
                }
            }
        }
        t
    }
}

enum Mat {
    Csr(Csr<f64>),
    Csc(Csc<f64>),
    Jad(Jad<f64>),
}

impl Mat {
    fn arg(&self) -> KernelArg<'_> {
        match self {
            Mat::Csr(l) => KernelArg::Csr(l),
            Mat::Csc(l) => KernelArg::Csc(l),
            Mat::Jad(l) => KernelArg::Jad(l),
        }
    }
}

/// One session and one artifact store for the whole binary: after the
/// first case every compile is a plan-cache hit and every load a
/// resident library.
fn shared() -> &'static (Session, KernelStore) {
    static SHARED: OnceLock<(Session, KernelStore)> = OnceLock::new();
    SHARED.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("bernoulli-edge-prop-{}", std::process::id()));
        (Session::new(), KernelStore::at(dir))
    })
}

fn check(shape: &Shape, b0: &[f64]) {
    let t = shape.triplets();
    let n = shape.n;
    let b0 = &b0[..n];
    let (spec, matrix) = synth::spec_for("ts");

    let dense = Dense::from_triplets(&t);
    let mut env = DenseEnv::new()
        .param("N", n as i64)
        .vector("b", b0.to_vec())
        .matrix(matrix, &dense);
    run_dense(&spec, &mut env).expect("the dense reference runs");
    let reference = env.take_vector("b");

    let (session, store) = shared();
    for format in ["csr", "csc", "jad"] {
        let l = match format {
            "csr" => Mat::Csr(Csr::from_triplets(&t)),
            "csc" => Mat::Csc(Csc::from_triplets(&t)),
            _ => Mat::Jad(Jad::from_triplets(&t)),
        };
        let bound = session
            .bind(&spec, &[(matrix, synth::view_for("ts", format))])
            .expect("binds");
        let k = session.compile(&bound).expect("compiles");
        let params = [n as i64];

        let interpreter = KernelBackend::Interpreted {
            reason: LoadError::Emit(bernoulli_synth::EmitError("the unsplit oracle".into())),
        };
        let mut interpreted = b0.to_vec();
        k.run_with(
            &interpreter,
            &params,
            &mut [l.arg(), KernelArg::Out(&mut interpreted)],
        )
        .expect("interprets");

        let mut committed = b0.to_vec();
        match &l {
            Mat::Csr(l) => synth::ts_csr(n as i64, l, &mut committed),
            Mat::Csc(l) => synth::ts_csc(n as i64, l, &mut committed),
            Mat::Jad(l) => synth::ts_jad(n as i64, l, &mut committed),
        }
        assert_eq!(interpreted, committed, "ts/{format} committed, n = {n}");

        // Without a compiler there is no loaded path to compare.
        if bernoulli_synth::rustc_info().is_ok() {
            let loaded = k.load_in(store).expect("loads natively");
            let mut native = b0.to_vec();
            loaded
                .run(&params, &mut [l.arg(), KernelArg::Out(&mut native)])
                .expect("runs");
            assert_eq!(interpreted, native, "ts/{format} loaded, n = {n}");
        }

        for (i, (got, want)) in interpreted.iter().zip(&reference).enumerate() {
            assert!(
                (got - want).abs() <= 1e-9 * (1.0 + want.abs()),
                "ts/{format} element {i} of {n}: {got} vs {want}"
            );
        }
    }
}

#[test]
fn named_edge_shapes() {
    let b0: Vec<f64> = (0..N_MAX).map(|i| 1.0 + 0.5 * i as f64).collect();
    let shape = |n, band, dense_last_row, diagonal_only: &dyn Fn(usize) -> bool| Shape {
        n,
        band,
        dense_last_row,
        diagonal_only: (0..N_MAX).map(diagonal_only).collect(),
        keep: vec![true; N_MAX * N_MAX],
    };
    for s in [
        shape(1, 1, false, &|_| false),
        shape(1, 1, true, &|_| false),
        // The identity pattern: every main loop is empty.
        shape(N_MAX, N_MAX, false, &|_| true),
        // Diagonal-only rows between full ones, and a dense last row.
        shape(N_MAX, N_MAX, true, &|r| r % 2 == 0),
        shape(N_MAX, 1, false, &|_| false),
        shape(N_MAX, N_MAX, false, &|_| false),
        shape(2, 1, false, &|_| false),
    ] {
        check(&s, &b0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_lower_triangles(
        (n, band, dense_last_row) in (1..=N_MAX, 1..=N_MAX, proptest::bool::ANY),
        diagonal_only in proptest::collection::vec(proptest::bool::ANY, N_MAX),
        keep in proptest::collection::vec(proptest::bool::ANY, N_MAX * N_MAX),
        b0 in proptest::collection::vec(-4.0f64..4.0, N_MAX),
    ) {
        check(&Shape { n, band, dense_last_row, diagonal_only, keep }, &b0);
    }
}
