//! The parallel driver against a sequential run of the same loaded
//! kernel, on shapes at the edges: `par_loaded_mvm_csr` must be
//! **bitwise** equal to one full-range `run` at every thread count.
//!
//! Skips (with a message) on a host without `rustc`, where no kernel
//! can be loaded.

use bernoulli_blas::{par, synth};
use bernoulli_formats::{gen, Csr, Triplets};
use bernoulli_service::{KernelArg, KernelStore, Session};

#[test]
fn degenerate_shapes() {
    if bernoulli_service::rustc_info().is_err() {
        eprintln!("SKIP degenerate_shapes: no rustc on host");
        return;
    }
    let s = Session::new();
    let (p, mat) = synth::spec_for("mvm");
    let bound = s
        .bind(&p, &[(mat, synth::view_for("mvm", "csr"))])
        .expect("binds");
    let dir = std::env::temp_dir().join(format!("bernoulli-kc-pareq-{}", std::process::id()));
    let k = s
        .compile(&bound)
        .expect("compiles")
        .load_in(&KernelStore::at(dir))
        .expect("loads");

    // 0×0, 1×1, a single dense row, a single dense column, all-empty
    // rows, and three rows cut into up to 64 bands.
    let cases: Vec<Triplets<f64>> = vec![
        Triplets::new(0, 0),
        Triplets::from_entries(1, 1, &[(0, 0, 2.0)]),
        Triplets::from_entries(
            1,
            30,
            &(0..30).map(|c| (0, c, c as f64 + 1.0)).collect::<Vec<_>>(),
        ),
        Triplets::from_entries(
            30,
            1,
            &(0..30).map(|r| (r, 0, r as f64 + 1.0)).collect::<Vec<_>>(),
        ),
        Triplets::new(5, 7),
        gen::tridiagonal(3),
    ];
    for t in &cases {
        let a = Csr::from_triplets(t);
        let (m, n) = (a.nrows, a.ncols);
        let x = gen::dense_vector(n, 3);
        let y0 = gen::dense_vector(m, 4);
        let mut y_seq = y0.clone();
        let mut args = [
            KernelArg::Csr(&a),
            KernelArg::In(&x),
            KernelArg::Out(&mut y_seq),
        ];
        k.run(&[m as i64, n as i64], &mut args)
            .expect("sequential run");
        for threads in [1, 2, 3, 7, 16, 64] {
            let mut y = y0.clone();
            par::par_loaded_mvm_csr(&k, &a, &x, &mut y, threads).expect("parallel run");
            assert_eq!(y_seq, y, "{m}x{n}, threads = {threads}");
        }
    }
}
