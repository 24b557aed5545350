//! VBR kernels: block-strip traversal with hoisted block metadata.
//!
//! Block extents are runtime data (`rpntr`/`cpntr`), so the register
//! tiling of the BSR micro-kernels is not available; instead each block
//! contributes contiguous row-slice walks folded into per-strip
//! accumulators that are reused across all of the strip's blocks, so
//! every `x` sub-vector is touched once per strip. Per-row/per-element
//! accumulation order matches the synthesized kernels exactly.

use bernoulli_formats::{Scalar, Vbr};

/// `y += A·x`, one block strip at a time.
pub fn mvm_vbr<T: Scalar>(a: &Vbr<T>, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), a.ncols, "x length");
    assert_eq!(y.len(), a.nrows, "y length");
    mvm_vbr_strips(a, x, y, 0, a.rpntr.len() - 1);
}

/// `y += A·x` restricted to block strips `br_lo..br_hi`; `yb` holds the
/// output rows `rpntr[br_lo]..rpntr[br_hi]`. Per-row accumulation order
/// (blocks ascending, columns ascending within each block) is
/// independent of the chunking, so the parallel lane's chunked runs are
/// bitwise equal to the full sweep.
pub(crate) fn mvm_vbr_strips<T: Scalar>(
    a: &Vbr<T>,
    x: &[T],
    yb: &mut [T],
    br_lo: usize,
    br_hi: usize,
) {
    let mut acc: Vec<T> = Vec::new();
    let y0 = a.rpntr[br_lo] as usize;
    for br in br_lo..br_hi {
        let h = (a.rpntr[br + 1] - a.rpntr[br]) as usize;
        let base = a.rpntr[br] as usize - y0;
        acc.clear();
        acc.extend_from_slice(&yb[base..base + h]);
        for b in a.blocks(br) {
            let (j0, w, at) = a.block(b);
            let xs = &x[j0..j0 + w];
            for (rr, a_rr) in acc.iter_mut().enumerate() {
                // Terms fold directly into the row accumulator (no
                // per-block partial sum): blocks ascending then columns
                // ascending is exactly the synthesized kernels' order,
                // so results agree bitwise.
                let row = &a.val[at + rr * w..at + (rr + 1) * w];
                for (v, xv) in row.iter().zip(xs) {
                    *a_rr += *v * *xv;
                }
            }
        }
        yb[base..base + h].copy_from_slice(&acc);
    }
}

/// `y += Aᵀ·x` — a scatter along block strips; each block's terms
/// scatter column by column, strip rows ascending, the same
/// per-element order as the synthesized row-major kernels.
pub fn mvmt_vbr<T: Scalar>(a: &Vbr<T>, x: &[T], y: &mut [T]) {
    assert_eq!(x.len(), a.nrows, "x length");
    assert_eq!(y.len(), a.ncols, "y length");
    mvmt_vbr_strips(a, x, y, 0, a.rpntr.len() - 1);
}

/// `y += Aᵀ·x` restricted to block strips `br_lo..br_hi`, scattering
/// into the full-length `y` (the parallel lane passes per-chunk
/// buffers).
pub(crate) fn mvmt_vbr_strips<T: Scalar>(
    a: &Vbr<T>,
    x: &[T],
    y: &mut [T],
    br_lo: usize,
    br_hi: usize,
) {
    for br in br_lo..br_hi {
        let r0 = a.rpntr[br] as usize;
        let h = a.rpntr[br + 1] as usize - r0;
        let xs = &x[r0..r0 + h];
        for b in a.blocks(br) {
            let (j0, w, at) = a.block(b);
            let blk = &a.val[at..at + h * w];
            for cc in 0..w {
                // Rows scatter individually (ascending), matching the
                // synthesized row-major kernels' per-element order.
                for (rr, &xv) in xs.iter().enumerate() {
                    y[j0 + cc] += blk[rr * w + cc] * xv;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::handwritten::testutil::*;
    use bernoulli_formats::{discover_strips, gen};

    #[test]
    fn mvm_matches_reference() {
        for &(n, bs) in &[(40usize, 2usize), (42, 3), (36, 4)] {
            let t = gen::fem_blocked(n, bs, 2, 1.0, 19);
            let (rp, cp) = discover_strips(&t);
            let a = Vbr::from_triplets(&t, &rp, &cp);
            let x = gen::dense_vector(n, 4);
            let mut y = vec![0.0; n];
            mvm_vbr(&a, &x, &mut y);
            assert_close(&y, &ref_mvm(&t, &x));
        }
    }

    #[test]
    fn mvm_irregular_strips() {
        // Partial fill breaks the uniform strips, so discovery produces
        // genuinely variable strip sizes.
        let t = gen::fem_blocked(45, 3, 1, 0.6, 23);
        let (rp, cp) = discover_strips(&t);
        assert!(rp.len() > 2, "fill < 1 should fragment the strips");
        let a = Vbr::from_triplets(&t, &rp, &cp);
        let x = gen::dense_vector(45, 5);
        let mut y = vec![0.0; 45];
        mvm_vbr(&a, &x, &mut y);
        assert_close(&y, &ref_mvm(&t, &x));
    }

    #[test]
    fn mvmt_matches_reference() {
        let t = gen::fem_blocked(42, 3, 2, 0.9, 31);
        let (rp, cp) = discover_strips(&t);
        let a = Vbr::from_triplets(&t, &rp, &cp);
        let x = gen::dense_vector(42, 7);
        let mut y = vec![0.0; 42];
        mvmt_vbr(&a, &x, &mut y);
        assert_close(&y, &ref_mvmt(&t, &x));
    }
}
