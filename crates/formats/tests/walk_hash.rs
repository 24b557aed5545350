//! The walk of every layout, pinned.
//!
//! For every [`LAYOUTS`] entry — BSR and VBR cut 2×2 and 3×2, so that
//! their stored zeros are walked too — and the four host views, an
//! FNV-1a hash per (view, matrix) of two things: every `(keys, value)`
//! that `walk_chain` yields, chain by chain (one chain past the last
//! included, which yields nothing), and what `to_triplets` and
//! `SparseMatrix::entries` hand out, dims and entries in their order.
//! The matrices are `find_hash.rs`' edge matrices (`0×4`, one with no
//! entries, a dense row, a missing diagonal, a rectangle) and
//! `can_1072_like`. What a layout refuses to hold is left out.
//!
//! [`TABLE`] was recorded at the commit before the walk was derived
//! per level kind, when every walk went through the interpreter's
//! generic cursor: the file, copied into a checkout of that commit,
//! passes there.
//!
//! `cargo test -p bernoulli-formats --test walk_hash -- --nocapture`
//! prints every row in the table's syntax.

use bernoulli_formats::cursor::walk_chain;
use bernoulli_formats::{gen, Dense, DiagSplit, HashVec, SparseVec, SparseView, Triplets, LAYOUTS};

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// What ends one chain's walk, and one list of entries, in the stream.
const END: u64 = u64::MAX - 1;

/// Lower triangle of a seeded random pattern, every third row emptied.
fn lower(n: usize, seed: u64) -> Triplets<f64> {
    let mut t = gen::random_sparse(n, n, 3 * n, seed);
    t.retain_positions(|r, c| c <= r && r % 3 != 1);
    t
}

/// `find_hash.rs`' edge matrices.
fn edge_matrices() -> Vec<(&'static str, Triplets<f64>)> {
    let mut dense_row = lower(6, 5);
    dense_row.retain_positions(|r, _| r != 5);
    for c in 0..6 {
        dense_row.push(5, c, 1.0 + c as f64);
    }
    let mut no_diagonal = Triplets::new(6, 6);
    for i in 0..6usize {
        for d in [-2i64, 1, 3] {
            let c = i as i64 - d;
            if (0..6).contains(&c) {
                no_diagonal.push(i, c as usize, 1.0 + (i * 6) as f64 + c as f64);
            }
        }
    }
    vec![
        ("lower6", lower(6, 1)),
        ("lower12", lower(12, 2)),
        ("dense_row6", dense_row),
        ("no_diagonal6", no_diagonal),
        ("rect6x4", gen::random_sparse(6, 4, 9, 3)),
        ("empty6", Triplets::new(6, 6)),
        ("0x4", Triplets::new(0, 4)),
    ]
}

/// The hash of every chain's walk, then of `to_triplets` and `entries`.
fn walk_hash(m: &dyn SparseView) -> u64 {
    let mut h = Fnv::new();
    for chain in 0..=m.levels().chains.len() {
        h.word(chain as u64);
        walk_chain(m, chain, &mut |keys, v| {
            h.word(keys.len() as u64);
            for &k in keys {
                h.word(k as u64);
            }
            h.word(v.to_bits());
        });
        h.word(END);
    }
    let t = m.to_triplets();
    h.word(t.nrows() as u64);
    h.word(t.ncols() as u64);
    for &(r, c, v) in t.entries() {
        h.word(u64::from(r));
        h.word(u64::from(c));
        h.word(v.to_bits());
    }
    h.word(END);
    for (r, c, v) in m.entries() {
        h.word(r as u64);
        h.word(c as u64);
        h.word(v.to_bits());
    }
    h.word(END);
    h.0
}

fn observed(matrices: Vec<(&'static str, Triplets<f64>)>) -> Vec<(String, &'static str, u64)> {
    let mut out = Vec::new();
    for (matrix, t) in matrices {
        for layout in LAYOUTS {
            let cut = layout.blocked || layout.name == "vbr";
            let blocks: &[(&str, (usize, usize))] = match cut {
                true => &[("@2x2", (2, 2)), ("@3x2", (3, 2))],
                false => &[("", (2, 2))],
            };
            for &(suffix, block) in blocks {
                // A layout refuses some shapes; that is not news here.
                if let Ok(m) = (layout.from_triplets)(&t, Some(block)) {
                    let view = format!("{}{suffix}", layout.name);
                    out.push((view, matrix, walk_hash(&*m)));
                }
            }
        }
        let dense = walk_hash(&Dense::from_triplets(&t));
        out.push(("dense".to_string(), matrix, dense));
        if t.nrows() == t.ncols() {
            let split = walk_hash(&DiagSplit::from_triplets(&t));
            out.push(("diagsplit".to_string(), matrix, split));
        }
        // The row sums as a vector; the hashed one stores it back to front.
        let v = SparseVec::from_triplets(&t);
        let mut pairs: Vec<(usize, f64)> = v
            .ind
            .iter()
            .map(|&i| i as usize)
            .zip(v.values.clone())
            .collect();
        pairs.reverse();
        out.push(("spvec".to_string(), matrix, walk_hash(&v)));
        let hashed = walk_hash(&HashVec::from_pairs(t.nrows(), &pairs));
        out.push(("hashvec".to_string(), matrix, hashed));
    }
    out
}

/// `observed` against the rows of [`TABLE`] of the same matrices.
fn check(observed: Vec<(String, &'static str, u64)>) {
    for (view, matrix, hash) in &observed {
        println!("    ({view:?}, {matrix:?}, {hash:#018x}),");
    }
    let matrices: Vec<&str> = observed.iter().map(|o| o.1).collect();
    let recorded: Vec<(String, &str, u64)> = TABLE
        .iter()
        .filter(|row| matrices.contains(&row.1))
        .map(|&(v, m, h)| (v.to_string(), m, h))
        .collect();
    for (seen, want) in observed.iter().zip(&recorded) {
        assert_eq!(seen, want, "(observed, recorded)");
    }
    assert_eq!(observed.len(), recorded.len(), "rows");
}

#[test]
fn every_walk_of_an_edge_matrix_yields_the_recorded_entries() {
    check(observed(edge_matrices()));
}

#[test]
fn every_walk_of_can_1072_like_yields_the_recorded_entries() {
    check(observed(vec![("can_1072_like", gen::can_1072_like())]));
}

/// Recorded with the generic cursor walk.
#[rustfmt::skip]
const TABLE: &[(&str, &str, u64)] = &[
    ("csr", "lower6", 0x6eab526526729878),
    ("csc", "lower6", 0x1f0960e7a0deacf8),
    ("coo", "lower6", 0x6eab526526729878),
    ("dia", "lower6", 0x153e881b18af952c),
    ("ell", "lower6", 0x6eab526526729878),
    ("jad", "lower6", 0x0187b473d2df13bf),
    ("sky", "lower6", 0x365e65272458c813),
    ("bsr@2x2", "lower6", 0x5f96759bf96144ea),
    ("bsr@3x2", "lower6", 0x7f3ed5dd1eb25f32),
    ("vbr@2x2", "lower6", 0x5f96759bf96144ea),
    ("vbr@3x2", "lower6", 0x7f3ed5dd1eb25f32),
    ("dcsr", "lower6", 0x6eab526526729878),
    ("dense", "lower6", 0x2bedda70abc65678),
    ("diagsplit", "lower6", 0xa438abf2a6a3042c),
    ("spvec", "lower6", 0xff49267520d7606d),
    ("hashvec", "lower6", 0x300201ffdf938965),
    ("csr", "lower12", 0xac211c3308fd9e93),
    ("csc", "lower12", 0xb638f7d635f600e3),
    ("coo", "lower12", 0xac211c3308fd9e93),
    ("dia", "lower12", 0xfbc1128b0cf94709),
    ("ell", "lower12", 0xac211c3308fd9e93),
    ("jad", "lower12", 0x745f3f81288c3f53),
    ("sky", "lower12", 0x39dc5be7a760516f),
    ("bsr@2x2", "lower12", 0xa54f2eb9df87368c),
    ("bsr@3x2", "lower12", 0xc3004199b995cda4),
    ("vbr@2x2", "lower12", 0xa54f2eb9df87368c),
    ("vbr@3x2", "lower12", 0xc3004199b995cda4),
    ("dcsr", "lower12", 0xac211c3308fd9e93),
    ("dense", "lower12", 0x9997a7bcb59cc0cd),
    ("diagsplit", "lower12", 0x1ec1541e9867a06c),
    ("spvec", "lower12", 0x7785c453dab7931f),
    ("hashvec", "lower12", 0x38d6fc8a14b2884f),
    ("csr", "dense_row6", 0x9eaea0179605b828),
    ("csc", "dense_row6", 0xd62d284b606c5edc),
    ("coo", "dense_row6", 0x9eaea0179605b828),
    ("dia", "dense_row6", 0xb7fa028f640e7948),
    ("ell", "dense_row6", 0x9eaea0179605b828),
    ("jad", "dense_row6", 0xc2a95cbabfe7465f),
    ("sky", "dense_row6", 0x54e4d0d89f4a7822),
    ("bsr@2x2", "dense_row6", 0x773500eac444cd06),
    ("bsr@3x2", "dense_row6", 0x0cc106a03da7c006),
    ("vbr@2x2", "dense_row6", 0x773500eac444cd06),
    ("vbr@3x2", "dense_row6", 0x0cc106a03da7c006),
    ("dcsr", "dense_row6", 0x9eaea0179605b828),
    ("dense", "dense_row6", 0xe313dbce43db786c),
    ("diagsplit", "dense_row6", 0x824efea77feabfde),
    ("spvec", "dense_row6", 0x5e4d05c51b04c8ec),
    ("hashvec", "dense_row6", 0x01a058ba4a4a1ad0),
    ("csr", "no_diagonal6", 0xd53bc72baea0ca04),
    ("csc", "no_diagonal6", 0x2d049ac8c779a564),
    ("coo", "no_diagonal6", 0xd53bc72baea0ca04),
    ("dia", "no_diagonal6", 0xd012661b30916b85),
    ("ell", "no_diagonal6", 0xd53bc72baea0ca04),
    ("jad", "no_diagonal6", 0xd4daa6394fa3d3ff),
    ("bsr@2x2", "no_diagonal6", 0xe76443f527abb3e0),
    ("bsr@3x2", "no_diagonal6", 0x1dee1d0f970b7f90),
    ("vbr@2x2", "no_diagonal6", 0xe76443f527abb3e0),
    ("vbr@3x2", "no_diagonal6", 0x1dee1d0f970b7f90),
    ("dcsr", "no_diagonal6", 0xd53bc72baea0ca04),
    ("dense", "no_diagonal6", 0xee0800e657be5ac4),
    ("diagsplit", "no_diagonal6", 0x8177ad0987828ade),
    ("spvec", "no_diagonal6", 0xd6f64c9a8d1baade),
    ("hashvec", "no_diagonal6", 0x7003251c4cb870fe),
    ("csr", "rect6x4", 0x9334fff58f18000b),
    ("csc", "rect6x4", 0x9bd5ab715f15ffbf),
    ("coo", "rect6x4", 0x9334fff58f18000b),
    ("dia", "rect6x4", 0xe9493f09c83ed21b),
    ("ell", "rect6x4", 0x9334fff58f18000b),
    ("jad", "rect6x4", 0x3ea46813d8b5ef29),
    ("bsr@2x2", "rect6x4", 0x5d3922992c10a3f6),
    ("bsr@3x2", "rect6x4", 0xe0a476f2a9306bba),
    ("vbr@2x2", "rect6x4", 0x5d3922992c10a3f6),
    ("vbr@3x2", "rect6x4", 0xe0a476f2a9306bba),
    ("dcsr", "rect6x4", 0x9334fff58f18000b),
    ("dense", "rect6x4", 0x5e675d94e3ddc3f9),
    ("spvec", "rect6x4", 0xb49894dd63d119eb),
    ("hashvec", "rect6x4", 0x59b68dfa79fbd677),
    ("csr", "empty6", 0xbbb512572c07fe24),
    ("csc", "empty6", 0xbbb512572c07fe24),
    ("coo", "empty6", 0xbbb512572c07fe24),
    ("dia", "empty6", 0xbbb512572c07fe24),
    ("ell", "empty6", 0xbbb512572c07fe24),
    ("jad", "empty6", 0xd8f925041f2862ff),
    ("sky", "empty6", 0xff0c900d312a4e04),
    ("bsr@2x2", "empty6", 0xbbb512572c07fe24),
    ("bsr@3x2", "empty6", 0xbbb512572c07fe24),
    ("vbr@2x2", "empty6", 0xbbb512572c07fe24),
    ("vbr@3x2", "empty6", 0xbbb512572c07fe24),
    ("dcsr", "empty6", 0xbbb512572c07fe24),
    ("dense", "empty6", 0x0c7217885cd01784),
    ("diagsplit", "empty6", 0x89c105588ea5f63e),
    ("spvec", "empty6", 0x3c42646bee45b383),
    ("hashvec", "empty6", 0x3c42646bee45b383),
    ("csr", "0x4", 0xb10373ac128fdae0),
    ("csc", "0x4", 0xb10373ac128fdae0),
    ("coo", "0x4", 0xb10373ac128fdae0),
    ("dia", "0x4", 0xb10373ac128fdae0),
    ("ell", "0x4", 0xb10373ac128fdae0),
    ("jad", "0x4", 0x19be8a2e0809c83b),
    ("bsr@2x2", "0x4", 0xb10373ac128fdae0),
    ("bsr@3x2", "0x4", 0xb10373ac128fdae0),
    ("dcsr", "0x4", 0xb10373ac128fdae0),
    ("dense", "0x4", 0xb10373ac128fdae0),
    ("spvec", "0x4", 0x5dd0753f956da285),
    ("hashvec", "0x4", 0x5dd0753f956da285),
    ("csr", "can_1072_like", 0xb4729cf0bf92d2f2),
    ("csc", "can_1072_like", 0xb4729cf0bf92d2f2),
    ("coo", "can_1072_like", 0xb4729cf0bf92d2f2),
    ("dia", "can_1072_like", 0x89c34b355ab52c5e),
    ("ell", "can_1072_like", 0xb4729cf0bf92d2f2),
    ("jad", "can_1072_like", 0x73af4135a9c075f3),
    ("bsr@2x2", "can_1072_like", 0xbb9f4e1b7105012e),
    ("vbr@2x2", "can_1072_like", 0xbb9f4e1b7105012e),
    ("vbr@3x2", "can_1072_like", 0xfb2c6f4c1b8718f6),
    ("dcsr", "can_1072_like", 0xb4729cf0bf92d2f2),
    ("dense", "can_1072_like", 0xca1bd246f4339f52),
    ("diagsplit", "can_1072_like", 0xbccd4d71e12e81a1),
    ("spvec", "can_1072_like", 0xd82542bc283d5338),
    ("hashvec", "can_1072_like", 0x38b15af1250c17b4),
];
