//! Every registered [`Layout`]: instances come apart as declared, into
//! slices that alias the struct's own vectors, and the dense lookup
//! derived from its levels answers every coordinate — outside the
//! matrix with `None`, never with a panic.

use bernoulli_formats::layout::{Block, RawArray};
use bernoulli_formats::{
    gen, Bsr, Coo, Csc, Csr, Dcsr, Dia, Ell, Jad, Layout, Sky, SparseView, Stored, Triplets, Vbr,
    LAYOUTS,
};

const BLOCK: Block = (2, 2);

/// Lower triangle of a seeded random pattern, every third row emptied:
/// legal for every format, skyline included.
fn lower(n: usize, seed: u64) -> Triplets<f64> {
    let mut t = gen::random_sparse(n, n, 3 * n, seed);
    t.retain_positions(|r, c| c <= r && r % 3 != 1);
    t
}

/// `(matrix, every layout must hold it)`. Shapes are multiples of
/// [`BLOCK`]; a layout may refuse the rest (skyline a rectangle, VBR an
/// empty dimension), but what it builds must conform.
fn matrices() -> Vec<(Triplets<f64>, bool)> {
    let mut dense_row = lower(6, 5);
    dense_row.retain_positions(|r, _| r != 5);
    for c in 0..6 {
        dense_row.push(5, c, 1.0 + c as f64);
    }
    vec![
        (lower(8, 1), true),
        (lower(12, 2), true),
        (dense_row, true),
        (Triplets::new(6, 6), true),
        (gen::random_sparse(4, 6, 9, 3), false),
        (gen::random_sparse(6, 2, 5, 4), false),
        (Triplets::new(0, 4), false),
        (Triplets::new(0, 0), false),
    ]
}

fn build(layout: &Layout, t: &Triplets<f64>) -> Option<Box<dyn Stored>> {
    (layout.from_triplets)(t, Some(BLOCK)).ok()
}

fn parts(m: &dyn Stored) -> (Vec<usize>, Vec<RawArray>) {
    let (mut dims, mut arrays) = (Vec::new(), Vec::new());
    m.parts(&mut dims, &mut arrays);
    (dims, arrays)
}

/// Coordinates outside the matrix, `usize::MAX` among them, for every
/// layout: every search is checked arithmetic, so no row is too large
/// for a build that checks overflow.
fn outside(m: &dyn Stored) -> [(usize, usize); 6] {
    [
        (m.nrows(), 0),
        (0, m.ncols()),
        (m.nrows() + 7, m.ncols() + 7),
        (usize::MAX, 0),
        (0, usize::MAX),
        (usize::MAX, usize::MAX),
    ]
}

#[test]
fn every_layout_conforms() {
    for layout in LAYOUTS {
        for (t, universal) in matrices() {
            let shape = format!("{} on {}x{}", layout.name, t.nrows(), t.ncols());
            let Some(m) = build(layout, &t) else {
                assert!(!universal, "{shape}: refused");
                continue;
            };
            assert_eq!(m.layout().name, layout.name, "{shape}");
            assert_eq!(m.block(), layout.blocked.then_some(BLOCK), "{shape}");
            assert_eq!((m.nrows(), m.ncols()), (t.nrows(), t.ncols()), "{shape}");

            let (dims, arrays) = parts(&*m);
            assert_eq!(dims.len(), layout.dims.len(), "{shape}");
            assert_eq!(arrays.len(), layout.arrays.len(), "{shape}");
            assert_eq!(parts(&*m).1, arrays, "{shape}: parts() copies");

            for r in 0..t.nrows() {
                for c in 0..t.ncols() {
                    assert_eq!(m.get(r, c), t.get(r, c), "{shape} at ({r},{c})");
                }
            }
            for (r, c) in outside(&*m) {
                assert_eq!(m.get(r, c), 0.0, "{shape} at ({r},{c})");
            }
        }
    }
}

fn raw<T>(v: &[T]) -> RawArray {
    RawArray {
        ptr: v.as_ptr().cast(),
        len: v.len(),
    }
}

/// The order of `parts()`, spelled out once more on purpose: it is the
/// order in which kernel artifacts on disk unpack their operands.
#[test]
fn parts_alias_the_structs_own_vectors_in_abi_order() {
    /// Checks one struct against its fields in ABI order and returns
    /// the layout's name.
    macro_rules! case {
        ($m:expr; $($dim:ident),+; $($array:ident),+) => {{
            let m = &$m;
            let (dims, arrays) = parts(m);
            assert_eq!(dims, [$(m.$dim),+], "{}", m.layout().name);
            assert_eq!(arrays, [$(raw(&m.$array)),+], "{}", m.layout().name);
            for (r, c) in outside(m) {
                assert_eq!(m.find(r, c), None, "{} at ({r},{c})", m.layout().name);
            }
            m.layout().name
        }};
    }
    let t = lower(8, 1);
    let strips = [0, 2, 4, 6, 8];
    let covered = [
        case!(Csr::from_triplets(&t); nrows, ncols; rowptr, colind, values),
        case!(Csc::from_triplets(&t); nrows, ncols; colptr, rowind, values),
        case!(Coo::from_triplets(&t); nrows, ncols; rows, cols, values),
        case!(Dia::from_triplets(&t); nrows, ncols; diags, lo, hi, ptr, values),
        case!(Ell::from_triplets(&t); nrows, ncols, width; colind, values, rowlen),
        case!(Jad::from_triplets(&t); nrows, ncols;
            iperm, iperm_inv, dptr, colind, values, rowlen),
        case!(Sky::from_triplets(&t); n; lo, ptr, values),
        case!(Bsr::from_triplets(&t, 2, 2); nrows, ncols, r, c; browptr, bcolind, values),
        case!(Vbr::from_triplets(&t, &strips, &strips); nrows, ncols;
            val, indx, bindx, rpntr, cpntr, bpntrb, bpntre, rowblk),
        case!(Dcsr::from_triplets(&t); nrows, ncols; rows, rowptr, colind, values),
    ];
    let registered: Vec<&str> = LAYOUTS.iter().map(|l| l.name).collect();
    assert_eq!(covered.to_vec(), registered);
}
