//! What the derived walk costs against a plain loop over the arrays.
//!
//! `to_triplets` of `can_1072_like` in CSR, the walk every layout's
//! `SparseMatrix::entries` and every conversion goes through, against a
//! plain double loop over `rowptr`, `colind` and `values` that collects
//! the same entries. The two are timed in turn within each of eleven
//! rounds, so that a change of the host's speed between rounds moves
//! both sides of a ratio alike, and the line printed ends with the
//! median of the per-round ratios, which CI's `benchmark-smoke` job
//! holds to its bound.
//!
//! `cargo test --release -p bernoulli-formats --test walk_cost -- --nocapture`

use bernoulli_formats::{gen, Csr};
use std::hint::black_box;
use std::time::Instant;

/// The entries of `a`, row by row, as `to_triplets` stores them.
fn plain(a: &Csr<f64>) -> Vec<(u32, u32, f64)> {
    let mut out = Vec::with_capacity(a.values.len());
    for r in 0..a.nrows {
        for p in a.rowptr[r] as usize..a.rowptr[r + 1] as usize {
            out.push((r as u32, a.colind[p], a.values[p]));
        }
    }
    out
}

#[test]
fn to_triplets_against_a_plain_loop() {
    let a = Csr::from_triplets(&gen::can_1072_like());
    assert_eq!(a.to_triplets().entries(), &plain(&a)[..]);
    let n = a.values.len() as f64;
    let ns = |f: &dyn Fn() -> usize| {
        let t0 = Instant::now();
        black_box(f());
        t0.elapsed().as_secs_f64() * 1e9 / n
    };
    let walk = || black_box(&a).to_triplets().nnz();
    let arrays = || plain(black_box(&a)).len();
    // Ten calls a side per round, each a fraction of a millisecond.
    let rounds: Vec<[f64; 2]> = (0..11)
        .map(|_| {
            let (mut w, mut p) = (f64::INFINITY, f64::INFINITY);
            for _ in 0..10 {
                w = w.min(ns(&walk));
                p = p.min(ns(&arrays));
            }
            [w, p]
        })
        .collect();
    let fastest = |k: usize| rounds.iter().map(|r| r[k]).fold(f64::INFINITY, f64::min);
    let mut ratios: Vec<f64> = rounds.iter().map(|r| r[0] / r[1]).collect();
    ratios.sort_by(f64::total_cmp);
    println!(
        "to_triplets can_1072_like csr, ns per entry: walk {:.1}, plain loop {:.1}; \
         walk / plain loop, median of {} rounds {:.2}",
        fastest(0),
        fastest(1),
        ratios.len(),
        ratios[ratios.len() / 2]
    );
}
