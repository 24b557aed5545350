//! The paper's motivating layering (§1): a format-independent iterative
//! method (conjugate gradients) running over kernels for several formats
//! — including the compiler-synthesized ones — on a 2-D Poisson problem.
//!
//! ```text
//! cargo run --release --example cg_solver
//! ```

use bernoulli::blas::{handwritten as hw, solvers, synth};
use bernoulli::formats::gen;
use bernoulli::prelude::*;

fn main() -> Result<(), Error> {
    let k = 48; // 48x48 grid -> n = 2304
    let t = gen::poisson2d(k);
    let n = t.nrows();
    let b = gen::dense_vector(n, 33);
    println!("2-D Poisson, {k}x{k} grid (n = {n}, nnz = {})\n", t.nnz());

    // The same CG code, instantiated with different MVM kernels.
    let csr = Csr::from_triplets(&t);
    let jad = Jad::from_triplets(&t);
    let dia = Dia::from_triplets(&t);

    let run = |label: &str, matvec: &mut dyn FnMut(&[f64], &mut [f64])| {
        let mut x = vec![0.0; n];
        let stats = solvers::cg(matvec, &b, &mut x, 1e-10, 10 * n);
        println!(
            "{label:<26} converged={} iterations={} residual={:.2e}",
            stats.converged, stats.iterations, stats.residual
        );
        assert!(stats.converged);
        x
    };

    let x1 = run("handwritten CSR", &mut |v, out| hw::mvm_csr(&csr, v, out));
    let x2 = run("synthesized CSR", &mut |v, out| {
        synth::mvm_csr(n as i64, n as i64, &csr, v, out)
    });
    let x3 = run("synthesized JAD", &mut |v, out| {
        synth::mvm_jad(n as i64, n as i64, &jad, v, out)
    });
    let x4 = run("synthesized DIA", &mut |v, out| {
        synth::mvm_dia(n as i64, n as i64, &dia, v, out)
    });
    let x5 = run("parallel CSR (4 threads)", &mut |v, out| {
        bernoulli::blas::par::par_mvm_csr(&csr, v, out, 4)
    });

    // The same kernel again, but compiled *now* by an embedded compiler
    // session and run through the plan interpreter — the committed
    // `synth::mvm_*` functions above are the emitted form of exactly
    // this plan.
    let session = Session::new();
    let kernel = session.compile(&session.bind(&kernels::mvm(), &[("A", csr.format_view())])?)?;
    let x6 = run("session-compiled CSR", &mut |v, out| {
        let mut env = ExecEnv::new();
        env.set_param("M", n as i64).set_param("N", n as i64);
        env.bind_sparse("A", &csr);
        env.bind_vec("x", v.to_vec());
        env.bind_vec("y", vec![0.0; out.len()]);
        kernel.interpret(&mut env).expect("compiled kernel runs");
        out.copy_from_slice(&env.take_vec("y"));
    });

    // All format instantiations solve the same system.
    for (label, x) in [
        ("synth csr", &x2),
        ("synth jad", &x3),
        ("synth dia", &x4),
        ("par csr", &x5),
        ("session csr", &x6),
    ] {
        let max_diff = x1
            .iter()
            .zip(x.iter())
            .map(|(a, b)| (a - b).abs())
            .fold(0.0f64, f64::max);
        println!("max |x_handwritten - x_{label}| = {max_diff:.2e}");
        assert!(max_diff < 1e-6);
    }

    // Power iteration (the paper's "web-search engines compute
    // eigenvectors" motivation).
    let mut x = vec![1.0; n];
    let (lambda, iters) = solvers::power_iteration(
        &mut |v, out| synth::mvm_csr(n as i64, n as i64, &csr, v, out),
        &mut x,
        1e-10,
        5000,
    );
    println!("\ndominant eigenvalue (power iteration, synthesized MVM): {lambda:.6} in {iters} iterations");
    println!("(theory for 2-D Poisson: < 8; got {lambda:.3})");
    assert!(lambda < 8.0 && lambda > 7.0);
    Ok(())
}
