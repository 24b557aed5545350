//! The dense lookup, pinned.
//!
//! For every [`LAYOUTS`] entry, an FNV-1a hash of `find(r, c)` and of the
//! bits of `get(r, c)` over every cell of `levels.rs`' edge matrices and
//! of `can_1072_like`, and over the keys just outside: rows and columns
//! at `nrows` / `ncols`, at `u32::MAX + 1` and at `usize::MAX`, against
//! [`TABLE`]. For the four host views, the same of `get` inside the
//! matrix. What a layout refuses to hold is left out (the skyline holds
//! only the edge matrices that are lower triangles).
//!
//! The stored zeros count: BSR's in-block fill, DIA's padding, a
//! skyline's in-strip zeros are found where a pattern-only lookup would
//! say absent.
//!
//! COO searches by a scan of its entries, so on the large matrix it is
//! asked at each stored entry, its two horizontal neighbours and the
//! keys outside, not at all 1.15 M cells.
//!
//! The table was recorded with each format's hand-written `find`, before
//! the lookup was derived from the levels that search: this file, copied
//! into a checkout of that commit, passes there (in a release build: in
//! a build that checks overflow, that commit's ELL lookup panics on the
//! row `usize::MAX`).
//!
//! `cargo test -p bernoulli-formats --test find_hash -- --nocapture`
//! prints every row in the table's syntax.

use bernoulli_formats::partition::split_even;
use bernoulli_formats::{
    gen, Bsr, Coo, Csc, Csr, Dcsr, Dense, Dia, DiagSplit, Ell, HashVec, Jad, Sky, SparseMatrix,
    SparseVec, SparseView, Triplets, Vbr, LAYOUTS,
};

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

/// Lower triangle of a seeded random pattern, every third row emptied.
fn lower(n: usize, seed: u64) -> Triplets<f64> {
    let mut t = gen::random_sparse(n, n, 3 * n, seed);
    t.retain_positions(|r, c| c <= r && r % 3 != 1);
    t
}

/// `levels.rs`' edge matrices.
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

/// Rows (columns) just outside an `n`-row (-column) matrix.
fn past(n: usize) -> [usize; 3] {
    [n, u32::MAX as usize + 1, usize::MAX]
}

/// Every cell of `t`, then every pair with a key outside it. A large
/// matrix asked by a scan gets its entries and their neighbours instead
/// of its cells.
fn cells(t: &Triplets<f64>, scan: bool) -> Vec<(usize, usize)> {
    let (m, n) = (t.nrows(), t.ncols());
    let mut out: Vec<(usize, usize)> = if scan && m * n > 10_000 {
        let entries = t
            .entries()
            .iter()
            .map(|&(r, c, _)| (r as usize, c as usize));
        let near = |(r, c): (usize, usize)| [(r, c.wrapping_sub(1)), (r, c), (r, c + 1)];
        let near = entries.flat_map(near).filter(|&(_, c)| c < n);
        near.collect()
    } else {
        (0..m).flat_map(|r| (0..n).map(move |c| (r, c))).collect()
    };
    let rows = (0..m).chain(past(m));
    out.extend(rows.flat_map(|r| past(n).into_iter().map(move |c| (r, c))));
    out.extend(
        past(m)
            .into_iter()
            .flat_map(|r| (0..n).map(move |c| (r, c))),
    );
    out
}

/// The hash of `find` and `get` of a layout instance over `cells`.
macro_rules! lookups {
    ($m:expr, $cells:expr) => {{
        let (m, mut h) = (&$m, Fnv::new());
        for &(r, c) in $cells {
            h.word(m.find(r, c).map_or(u64::MAX, |p| p as u64));
            h.word(m.get(r, c).to_bits());
        }
        h.0
    }};
}

/// The hash of `find` and `get` of the `name` layout built from `t`
/// (blocks and strips 2 high and wide).
fn layout_hash(name: &str, t: &Triplets<f64>) -> u64 {
    let cells = &cells(t, name == "coo");
    let strips = |n: usize| split_even(n, n.div_ceil(2));
    match name {
        "csr" => lookups!(Csr::from_triplets(t), cells),
        "csc" => lookups!(Csc::from_triplets(t), cells),
        "coo" => lookups!(Coo::from_triplets(t), cells),
        "dia" => lookups!(Dia::from_triplets(t), cells),
        "ell" => lookups!(Ell::from_triplets(t), cells),
        "jad" => lookups!(Jad::from_triplets(t), cells),
        "sky" => lookups!(Sky::from_triplets(t), cells),
        "bsr" => lookups!(Bsr::from_triplets(t, 2, 2), cells),
        "vbr" => lookups!(
            Vbr::from_triplets(t, &strips(t.nrows()), &strips(t.ncols())),
            cells
        ),
        "dcsr" => lookups!(Dcsr::from_triplets(t), cells),
        other => panic!("find_hash.rs has no case for the layout {other:?}: add one"),
    }
}

/// The hash of `get` of a host view over the cells inside it.
fn host_hash(m: &dyn SparseView) -> u64 {
    let mut h = Fnv::new();
    for r in 0..m.nrows() {
        for c in 0..m.ncols() {
            h.word(m.get(r, c).to_bits());
        }
    }
    h.0
}

fn observed(matrices: Vec<(&'static str, Triplets<f64>)>) -> Vec<(String, &'static str, u64)> {
    let mut out = Vec::new();
    for (matrix, t) in matrices {
        for layout in LAYOUTS {
            // A layout refuses some shapes; that is not news here.
            if (layout.from_triplets)(&t, Some((2, 2))).is_ok() {
                let hash = layout_hash(layout.name, &t);
                out.push((layout.name.to_string(), matrix, hash));
            }
        }
        let dense = host_hash(&Dense::from_triplets(&t));
        out.push(("dense".to_string(), matrix, dense));
        if t.nrows() == t.ncols() {
            let split = host_hash(&DiagSplit::from_triplets(&t));
            out.push(("diagsplit".to_string(), matrix, split));
        }
        let v = SparseVec::from_triplets(&t);
        let mut pairs: Vec<(usize, f64)> = v
            .ind
            .iter()
            .map(|&i| i as usize)
            .zip(v.values.clone())
            .collect();
        pairs.reverse();
        out.push(("spvec".to_string(), matrix, host_hash(&v)));
        let hashed = host_hash(&HashVec::from_pairs(t.nrows(), &pairs));
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
fn every_dense_lookup_of_an_edge_matrix_finds_the_recorded_positions() {
    check(observed(edge_matrices()));
}

#[test]
fn every_dense_lookup_of_can_1072_like_finds_the_recorded_positions() {
    check(observed(vec![("can_1072_like", gen::can_1072_like())]));
}

/// Recorded with the hand-written lookups.
#[rustfmt::skip]
const TABLE: &[(&str, &str, u64)] = &[
    ("csr", "lower6", 0xca809026ca5b633a),
    ("csc", "lower6", 0xca809026ca5b633a),
    ("coo", "lower6", 0xca809026ca5b633a),
    ("dia", "lower6", 0x5569e2674b32d980),
    ("ell", "lower6", 0x716855f64272253c),
    ("jad", "lower6", 0xcf5a53d227c558ce),
    ("sky", "lower6", 0xd32cb2d941758ce3),
    ("bsr", "lower6", 0x2262136d26da1e7b),
    ("vbr", "lower6", 0x2262136d26da1e7b),
    ("dcsr", "lower6", 0xca809026ca5b633a),
    ("dense", "lower6", 0x3969b53fcc0669c3),
    ("diagsplit", "lower6", 0x3969b53fcc0669c3),
    ("spvec", "lower6", 0xd6edc5dc3b1e80c6),
    ("hashvec", "lower6", 0xd6edc5dc3b1e80c6),
    ("csr", "lower12", 0x83ba17621f7019c2),
    ("csc", "lower12", 0x133b842e02d5df62),
    ("coo", "lower12", 0x83ba17621f7019c2),
    ("dia", "lower12", 0xec22d90e271ca97a),
    ("ell", "lower12", 0x2888025d42d08d39),
    ("jad", "lower12", 0x5a6b9e71a617382e),
    ("sky", "lower12", 0x7dee8c00905a4459),
    ("bsr", "lower12", 0xdc9f42f73a2a1939),
    ("vbr", "lower12", 0xdc9f42f73a2a1939),
    ("dcsr", "lower12", 0x83ba17621f7019c2),
    ("dense", "lower12", 0xc7c6df1be799151d),
    ("diagsplit", "lower12", 0xc7c6df1be799151d),
    ("spvec", "lower12", 0x67f968456afdcb4a),
    ("hashvec", "lower12", 0x67f968456afdcb4a),
    ("csr", "dense_row6", 0x444f1bcd8fc5d466),
    ("csc", "dense_row6", 0x90fd2492d9098d2a),
    ("coo", "dense_row6", 0x444f1bcd8fc5d466),
    ("dia", "dense_row6", 0x6ea8ad291ce196e3),
    ("ell", "dense_row6", 0x39758d174cd560e7),
    ("jad", "dense_row6", 0x08c16faf5a57811a),
    ("sky", "dense_row6", 0x4ea69ae0c81a356b),
    ("bsr", "dense_row6", 0xfc34953c085e965f),
    ("vbr", "dense_row6", 0xfc34953c085e965f),
    ("dcsr", "dense_row6", 0x444f1bcd8fc5d466),
    ("dense", "dense_row6", 0x0dd4562822db9157),
    ("diagsplit", "dense_row6", 0x0dd4562822db9157),
    ("spvec", "dense_row6", 0xd9fb1560b55e3f06),
    ("hashvec", "dense_row6", 0xd9fb1560b55e3f06),
    ("csr", "no_diagonal6", 0x4c492fe380234929),
    ("csc", "no_diagonal6", 0x9bfd4ae19b7905f9),
    ("coo", "no_diagonal6", 0x4c492fe380234929),
    ("dia", "no_diagonal6", 0x58da5fd1d8274349),
    ("ell", "no_diagonal6", 0x3340cfe2789d2d59),
    ("jad", "no_diagonal6", 0x0f57845b2bef1c89),
    ("bsr", "no_diagonal6", 0x62a83a6c5504f6a9),
    ("vbr", "no_diagonal6", 0x62a83a6c5504f6a9),
    ("dcsr", "no_diagonal6", 0x4c492fe380234929),
    ("dense", "no_diagonal6", 0xef41e6cfc527cab1),
    ("diagsplit", "no_diagonal6", 0xef41e6cfc527cab1),
    ("spvec", "no_diagonal6", 0xa961de73a4891cf9),
    ("hashvec", "no_diagonal6", 0xa961de73a4891cf9),
    ("csr", "rect6x4", 0x41231165213464cd),
    ("csc", "rect6x4", 0x35bae89b7a9499e9),
    ("coo", "rect6x4", 0x41231165213464cd),
    ("dia", "rect6x4", 0xcba71f5dd98fae35),
    ("ell", "rect6x4", 0x2d78379165c9fb50),
    ("jad", "rect6x4", 0x6029d3659228aa89),
    ("bsr", "rect6x4", 0x0c199e9a856305ed),
    ("vbr", "rect6x4", 0x0c199e9a856305ed),
    ("dcsr", "rect6x4", 0x41231165213464cd),
    ("dense", "rect6x4", 0x7d8fadfca77ff24d),
    ("spvec", "rect6x4", 0xee0076d8595d9fd8),
    ("hashvec", "rect6x4", 0xee0076d8595d9fd8),
    ("csr", "empty6", 0x6ac0c931270a8b5d),
    ("csc", "empty6", 0x6ac0c931270a8b5d),
    ("coo", "empty6", 0x6ac0c931270a8b5d),
    ("dia", "empty6", 0x6ac0c931270a8b5d),
    ("ell", "empty6", 0x6ac0c931270a8b5d),
    ("jad", "empty6", 0x6ac0c931270a8b5d),
    ("sky", "empty6", 0x067cd723a7b7880c),
    ("bsr", "empty6", 0x6ac0c931270a8b5d),
    ("vbr", "empty6", 0x6ac0c931270a8b5d),
    ("dcsr", "empty6", 0x6ac0c931270a8b5d),
    ("dense", "empty6", 0x66e368127e9e89a5),
    ("diagsplit", "empty6", 0x66e368127e9e89a5),
    ("spvec", "empty6", 0xa09d945a1cd8d6e5),
    ("hashvec", "empty6", 0xa09d945a1cd8d6e5),
    ("csr", "0x4", 0x9a87a909d005043d),
    ("csc", "0x4", 0x9a87a909d005043d),
    ("coo", "0x4", 0x9a87a909d005043d),
    ("dia", "0x4", 0x9a87a909d005043d),
    ("ell", "0x4", 0x9a87a909d005043d),
    ("jad", "0x4", 0x9a87a909d005043d),
    ("bsr", "0x4", 0x9a87a909d005043d),
    ("dcsr", "0x4", 0x9a87a909d005043d),
    ("dense", "0x4", 0xcbf29ce484222325),
    ("spvec", "0x4", 0xcbf29ce484222325),
    ("hashvec", "0x4", 0xcbf29ce484222325),
    ("csr", "can_1072_like", 0x59669d48582b354f),
    ("csc", "can_1072_like", 0x2268dc79a2478a9f),
    ("coo", "can_1072_like", 0xe9c65f7eab13566f),
    ("dia", "can_1072_like", 0x8e4e990e6b5ce44f),
    ("ell", "can_1072_like", 0x9a7e78154ad08d0d),
    ("jad", "can_1072_like", 0x6d576bed044c2e23),
    ("bsr", "can_1072_like", 0x7d6d193d7d41c123),
    ("vbr", "can_1072_like", 0x7d6d193d7d41c123),
    ("dcsr", "can_1072_like", 0x59669d48582b354f),
    ("dense", "can_1072_like", 0x245d19e312a9a647),
    ("diagsplit", "can_1072_like", 0x245d19e312a9a647),
    ("spvec", "can_1072_like", 0xeba742fd20cbdb6c),
    ("hashvec", "can_1072_like", 0xeba742fd20cbdb6c),
];
