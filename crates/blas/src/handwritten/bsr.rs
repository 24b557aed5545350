//! BSR kernels: register-tiled block-row traversal.
//!
//! Each block row is processed with `r` register accumulators; common
//! square block sizes dispatch to monomorphized micro-kernels whose
//! `R x C` loops are compile-time constants, so LLVM fully unrolls the
//! block body (the "register blocking" that makes BSR a performance
//! format, not just a storage format). Other shapes fall back to a
//! generic loop with the same per-row accumulation order, so the
//! dispatch never changes results.

use bernoulli_formats::{Bsr, Scalar};

/// `y += A·x`, register-tiled over block rows.
pub fn mvm_bsr<T: Scalar>(a: &Bsr<T>, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), a.ncols, "x length");
    assert_eq!(y.len(), a.nrows, "y length");
    mvm_bsr_rows(a, x, y, 0, a.browptr.len() - 1);
}

/// `y += A·x` restricted to block rows `br_lo..br_hi`; `yb` holds the
/// output rows `br_lo*r..br_hi*r`. The parallel lane calls this per
/// chunk; per-row accumulation order (blocks ascending, columns
/// ascending within each block) is independent of the chunking, so
/// chunked runs are bitwise equal to the full sweep.
pub(crate) fn mvm_bsr_rows<T: Scalar>(
    a: &Bsr<T>,
    x: &[T],
    yb: &mut [T],
    br_lo: usize,
    br_hi: usize,
) {
    match (a.r, a.c) {
        (1, 1) => mvm_micro::<T, 1, 1>(a, x, yb, br_lo, br_hi),
        (2, 2) => mvm_micro::<T, 2, 2>(a, x, yb, br_lo, br_hi),
        (3, 3) => mvm_micro::<T, 3, 3>(a, x, yb, br_lo, br_hi),
        (4, 4) => mvm_micro::<T, 4, 4>(a, x, yb, br_lo, br_hi),
        (2, 1) => mvm_micro::<T, 2, 1>(a, x, yb, br_lo, br_hi),
        (1, 2) => mvm_micro::<T, 1, 2>(a, x, yb, br_lo, br_hi),
        (4, 2) => mvm_micro::<T, 4, 2>(a, x, yb, br_lo, br_hi),
        (2, 4) => mvm_micro::<T, 2, 4>(a, x, yb, br_lo, br_hi),
        _ => mvm_generic(a, x, yb, br_lo, br_hi),
    }
}

/// The unrolled micro-kernel: `R` accumulators live in registers across
/// the whole block row; each stored block contributes an `R x C`
/// multiply-add whose trip counts are compile-time constants.
fn mvm_micro<T: Scalar, const R: usize, const C: usize>(
    a: &Bsr<T>,
    x: &[T],
    yb: &mut [T],
    br_lo: usize,
    br_hi: usize,
) {
    debug_assert!(a.r == R && a.c == C);
    for br in br_lo..br_hi {
        let y0 = (br - br_lo) * R;
        let mut acc = [T::ZERO; R];
        acc.copy_from_slice(&yb[y0..y0 + R]);
        for b in a.blocks(br) {
            let j0 = a.bcolind[b] as usize * C;
            let blk = &a.values[b * R * C..(b + 1) * R * C];
            let xs = &x[j0..j0 + C];
            for rr in 0..R {
                for cc in 0..C {
                    acc[rr] += blk[rr * C + cc] * xs[cc];
                }
            }
        }
        yb[y0..y0 + R].copy_from_slice(&acc);
    }
}

/// Generic fallback for uncommon block shapes — same per-row order as
/// the micro-kernels (blocks ascending, then columns), so dispatch is
/// invisible in the results.
fn mvm_generic<T: Scalar>(a: &Bsr<T>, x: &[T], yb: &mut [T], br_lo: usize, br_hi: usize) {
    let (r, c) = (a.r, a.c);
    for br in br_lo..br_hi {
        for rr in 0..r {
            let mut acc = yb[(br - br_lo) * r + rr];
            for b in a.blocks(br) {
                let j0 = a.bcolind[b] as usize * c;
                let base = (b * r + rr) * c;
                for cc in 0..c {
                    acc += a.values[base + cc] * x[j0 + cc];
                }
            }
            yb[(br - br_lo) * r + rr] = acc;
        }
    }
}

/// `y += Aᵀ·x` — a scatter along block rows: each stored block
/// contributes its `R x C` terms column by column, rows ascending, the
/// same per-element order as the synthesized row-major kernels.
pub fn mvmt_bsr<T: Scalar>(a: &Bsr<T>, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), a.nrows, "x length");
    assert_eq!(y.len(), a.ncols, "y length");
    mvmt_bsr_rows(a, x, y, 0, a.browptr.len() - 1);
}

/// `y += Aᵀ·x` restricted to block rows `br_lo..br_hi`, scattering into
/// the full-length `y` (the parallel lane passes per-chunk buffers).
pub(crate) fn mvmt_bsr_rows<T: Scalar>(
    a: &Bsr<T>,
    x: &[T],
    y: &mut [T],
    br_lo: usize,
    br_hi: usize,
) {
    match (a.r, a.c) {
        (1, 1) => mvmt_micro::<T, 1, 1>(a, x, y, br_lo, br_hi),
        (2, 2) => mvmt_micro::<T, 2, 2>(a, x, y, br_lo, br_hi),
        (3, 3) => mvmt_micro::<T, 3, 3>(a, x, y, br_lo, br_hi),
        (4, 4) => mvmt_micro::<T, 4, 4>(a, x, y, br_lo, br_hi),
        _ => mvmt_generic(a, x, y, br_lo, br_hi),
    }
}

fn mvmt_micro<T: Scalar, const R: usize, const C: usize>(
    a: &Bsr<T>,
    x: &[T],
    y: &mut [T],
    br_lo: usize,
    br_hi: usize,
) {
    debug_assert!(a.r == R && a.c == C);
    for br in br_lo..br_hi {
        let xs = &x[br * R..br * R + R];
        for b in a.blocks(br) {
            let j0 = a.bcolind[b] as usize * C;
            let blk = &a.values[b * R * C..(b + 1) * R * C];
            for cc in 0..C {
                // Each term scatters individually, rows ascending: for
                // any fixed output element this is the row-major order
                // the synthesized kernels use, so results agree bitwise.
                for rr in 0..R {
                    y[j0 + cc] += blk[rr * C + cc] * xs[rr];
                }
            }
        }
    }
}

fn mvmt_generic<T: Scalar>(a: &Bsr<T>, x: &[T], y: &mut [T], br_lo: usize, br_hi: usize) {
    let (r, c) = (a.r, a.c);
    for br in br_lo..br_hi {
        for b in a.blocks(br) {
            let j0 = a.bcolind[b] as usize * c;
            for cc in 0..c {
                for rr in 0..r {
                    y[j0 + cc] += a.values[(b * r + rr) * c + cc] * x[br * r + rr];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handwritten::testutil::*;
    use bernoulli_formats::gen;

    #[test]
    fn mvm_matches_reference_common_and_generic_shapes() {
        for &(n, bs) in &[(40usize, 2usize), (42, 3), (40, 4), (35, 5), (40, 1)] {
            let t = gen::fem_blocked(n, bs, 2, 1.0, 17);
            let x = gen::dense_vector(n, 4);
            let a = Bsr::from_triplets(&t, bs, bs);
            let mut y = vec![0.0; n];
            mvm_bsr(&a, &x, &mut y);
            assert_close(&y, &ref_mvm(&t, &x));
        }
    }

    #[test]
    fn mvmt_matches_reference() {
        for &bs in &[2usize, 3, 5] {
            let n = 10 * bs;
            let t = gen::fem_blocked(n, bs, 2, 0.8, 9);
            let x = gen::dense_vector(n, 6);
            let a = Bsr::from_triplets(&t, bs, bs);
            let mut y = vec![0.0; n];
            mvmt_bsr(&a, &x, &mut y);
            assert_close(&y, &ref_mvmt(&t, &x));
        }
    }

    #[test]
    fn rectangular_blocks() {
        let t = gen::fem_blocked(24, 4, 1, 1.0, 3);
        let x = gen::dense_vector(24, 1);
        let expect = ref_mvm(&t, &x);
        for &(r, c) in &[(2usize, 4usize), (4, 2), (1, 2), (2, 1), (3, 4)] {
            let a = Bsr::from_triplets(&t, r, c);
            let mut y = vec![0.0; 24];
            mvm_bsr(&a, &x, &mut y);
            assert_close(&y, &expect);
        }
    }

    #[test]
    fn micro_and_generic_agree_bitwise() {
        // 2x2 hits the micro-kernel; the generic path must produce the
        // exact same bits (same per-row accumulation order).
        let t = gen::fem_blocked(40, 2, 2, 0.9, 5);
        let x = gen::dense_vector(40, 2);
        let a = Bsr::from_triplets(&t, 2, 2);
        let mut y1 = vec![0.5; 40];
        mvm_micro::<f64, 2, 2>(&a, &x, &mut y1, 0, a.browptr.len() - 1);
        let mut y2 = vec![0.5; 40];
        mvm_generic(&a, &x, &mut y2, 0, a.browptr.len() - 1);
        assert_eq!(y1, y2);
    }
}
