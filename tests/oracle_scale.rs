//! The dense oracle's cost follows what a matrix stores, not its
//! M × N cells: `run_dense` skips the zero runs of a line where IEEE
//! arithmetic leaves the result as it is (`crates/ir/src/exec.rs`). On
//! `can_1072_like` scaled forty times (42 880 rows, 1.8 G dense cells)
//! its mvm and its triangular solve finish in seconds in a debug build,
//! where a sweep of every cell would take minutes, and they compute the
//! hand-written CSR kernels' bits: the same operations in the same
//! order, the zeros left out.

use bernoulli::blas::handwritten::{mvm_csr, ts_csr};
use bernoulli::blas::kernels;
use bernoulli::formats::{gen, Csr};
use bernoulli::ir::{run_dense, DenseEnv};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn the_oracle_of_a_matrix_with_1_8_g_cells_is_the_hand_kernel_bit_for_bit() {
    let full = gen::scale(&gen::can_1072_like(), 40, 1);
    let lower = full.lower_triangle_full_diag(1.0);
    let n = full.nrows();
    assert_eq!((n, full.ncols()), (42_880, 42_880));
    let (a, l) = (Csr::from_triplets(&full), Csr::from_triplets(&lower));
    let x = gen::dense_vector(n, 1);

    let mut want = vec![0.0; n];
    mvm_csr(&a, &x, &mut want);
    let mut env = DenseEnv::new()
        .param("M", n as i64)
        .param("N", n as i64)
        .matrix("A", &a)
        .vector("x", x.clone())
        .vector("y", vec![0.0; n]);
    run_dense(&kernels::mvm(), &mut env).expect("mvm runs");
    assert_eq!(bits(&env.take_vector("y")), bits(&want), "mvm");

    let mut want = x.clone();
    ts_csr(&l, &mut want);
    assert!(
        want.iter().all(|b| b.is_finite()),
        "a solve that stays finite"
    );
    let mut env = DenseEnv::new()
        .param("N", n as i64)
        .matrix("L", &l)
        .vector("b", x);
    run_dense(&kernels::ts(), &mut env).expect("ts runs");
    assert_eq!(bits(&env.take_vector("b")), bits(&want), "ts");
}
