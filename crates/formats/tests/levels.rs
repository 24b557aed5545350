//! How every level of every view is walked, pinned.
//!
//! For every [`LAYOUTS`] entry and the four host-only views (`dense`,
//! `diagsplit`, `spvec`, `hashvec`) on fixed seeded matrices — the edge
//! shapes included: `0×n`, no entries, empty rows, a single-strip VBR, a
//! missing diagonal, BSR at 2×2 and at 3×2 — an FNV-1a hash over
//!
//! - the full walk of every chain: `(chain, level, parent, keys, pos)`
//!   of every position every cursor yields, forward, and the stored
//!   value under every leaf;
//! - the same level backward wherever it is an interval level;
//! - `search` at every level that has one, beneath every parent the
//!   walk reached, over a grid of keys that runs from below zero to past
//!   the matrix;
//!
//! against [`TABLE`], plus `check_view_conformance` on every
//! alternative.
//!
//! The table was recorded at the parent of the PR that replaced the
//! thirteen hand-written cursors by one generic cursor over the level
//! descriptions of `bernoulli_formats::level`: this file up to the
//! `description` module at its end, copied into a checkout of that
//! parent, passes there. It is what makes the generic cursor a
//! *replacement*. [`TABLE_DCSR`] holds the rows of the format that PR
//! added, and the `description` module what only exists since.
//!
//! `cargo test -p bernoulli-formats --test levels -- --nocapture` prints
//! every row in the table's syntax — after a *deliberate* change to a
//! walk, paste them over the table.

use bernoulli_formats::layout::Block;
use bernoulli_formats::view::{Chain, SearchKind};
use bernoulli_formats::{
    cursor::check_view_conformance, gen, Dense, DiagSplit, HashVec, SparseVec, SparseView,
    Triplets, LAYOUTS,
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

    fn index(&mut self, x: usize) {
        self.word(x as u64);
    }

    fn key(&mut self, x: i64) {
        self.word(x as u64);
    }
}

/// What ends one cursor's run of positions in the hashed stream.
const END: u64 = u64::MAX - 1;

/// Lower triangle of a seeded random pattern, every third row emptied:
/// legal for every format, skyline included.
fn lower(n: usize, seed: u64) -> Triplets<f64> {
    let mut t = gen::random_sparse(n, n, 3 * n, seed);
    t.retain_positions(|r, c| c <= r && r % 3 != 1);
    t
}

/// Shapes are multiples of 2×2 and of 3×2, so BSR takes both.
fn matrices() -> Vec<(&'static str, Triplets<f64>)> {
    let mut dense_row = lower(6, 5);
    dense_row.retain_positions(|r, _| r != 5);
    for c in 0..6 {
        dense_row.push(5, c, 1.0 + c as f64);
    }
    // Three diagonals (-2, +1, +3), the main one not among them.
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

/// Hashes the walk of `chain` beneath `parent` from `level` down, and
/// notes in `parents[level]` every parent a cursor was opened beneath.
fn walk(
    m: &dyn SparseView,
    chain: &Chain,
    level: usize,
    parent: usize,
    parents: &mut [Vec<usize>],
    h: &mut Fnv,
) {
    let Some(flat) = chain.levels.get(level) else {
        h.word(m.value_at(chain.id, parent).to_bits());
        return;
    };
    parents[level].push(parent);
    let mut cur = m.cursor(chain.id, level, parent, false);
    while m.advance(&mut cur) {
        for x in [chain.id, level, parent, cur.keys.len()] {
            h.index(x);
        }
        for k in 0..cur.keys.len() {
            h.key(cur.keys[k]);
        }
        h.index(cur.pos);
        walk(m, chain, level + 1, cur.pos, parents, h);
    }
    h.word(END);
    if flat.interval {
        let mut cur = m.cursor(chain.id, level, parent, true);
        while m.advance(&mut cur) {
            h.key(cur.keys[0]);
            h.index(cur.pos);
        }
        h.word(END);
    }
}

fn searches(m: &dyn SparseView, chain: &Chain, parents: &[Vec<usize>], h: &mut Fnv) {
    let reach = m.nrows().max(m.ncols()) as i64 + 2;
    for (level, flat) in chain.levels.iter().enumerate() {
        if flat.search == SearchKind::None {
            continue;
        }
        let grid: Vec<Vec<i64>> = match flat.attrs.len() {
            1 => (-reach..=reach).map(|k| vec![k]).collect(),
            _ => (-1..=m.nrows() as i64)
                .flat_map(|r| (-1..=m.ncols() as i64).map(move |c| vec![r, c]))
                .collect(),
        };
        for &parent in &parents[level] {
            for keys in &grid {
                let found = m.search(chain.id, level, parent, keys);
                h.word(found.map_or(u64::MAX, |p| p as u64));
            }
        }
    }
}

/// The hash of everything the low-level API says about `m`; every
/// alternative of its view must also conform.
fn hash_of(what: &str, m: &dyn SparseView) -> u64 {
    let mut h = Fnv::new();
    let alternatives = m.format_view().alternatives();
    for (i, alternative) in alternatives.iter().enumerate() {
        check_view_conformance(m, i).unwrap_or_else(|e| panic!("{what}, alternative {i}: {e}"));
        for chain in alternative {
            let mut parents = vec![Vec::new(); chain.levels.len()];
            walk(m, chain, 0, 0, &mut parents, &mut h);
            searches(m, chain, &parents, &mut h);
        }
    }
    h.0
}

/// The block shapes a layout is built at: 2×2, and for the two layouts
/// that are cut into blocks also 3×2 and one block (VBR: one strip) for
/// the whole matrix.
fn blocks(cut: bool, t: &Triplets<f64>) -> Vec<(String, Block)> {
    let whole = (t.nrows().max(1), t.ncols().max(1));
    let mut out = vec![(String::new(), (2, 2))];
    if cut {
        out.push(("@3x2".to_string(), (3, 2)));
        out.push(("@whole".to_string(), whole));
    }
    out
}

/// `(view, matrix, hash)` of every instance that can be built.
fn observed() -> Vec<(String, &'static str, u64)> {
    let mut out = Vec::new();
    for (matrix, t) in matrices() {
        for layout in LAYOUTS {
            let cut = layout.blocked || layout.name == "vbr";
            for (suffix, block) in blocks(cut, &t) {
                let view = format!("{}{suffix}", layout.name);
                // A layout refuses some shapes; that is not news here.
                if let Ok(m) = (layout.from_triplets)(&t, Some(block)) {
                    out.push((view.clone(), matrix, hash_of(&view, &*m)));
                }
            }
        }
        out.push((
            "dense".to_string(),
            matrix,
            hash_of("dense", &Dense::from_triplets(&t)),
        ));
        if t.nrows() == t.ncols() {
            let m = DiagSplit::from_triplets(&t);
            out.push(("diagsplit".to_string(), matrix, hash_of("diagsplit", &m)));
        }
        // The row sums as a vector; the hashed one stores it back to front.
        let m = SparseVec::from_triplets(&t);
        out.push(("spvec".to_string(), matrix, hash_of("spvec", &m)));
        let mut pairs: Vec<(usize, f64)> = m
            .ind
            .iter()
            .map(|&i| i as usize)
            .zip(m.values.clone())
            .collect();
        pairs.reverse();
        let m = HashVec::from_pairs(t.nrows(), &pairs);
        out.push(("hashvec".to_string(), matrix, hash_of("hashvec", &m)));
    }
    out
}

#[test]
fn every_level_walks_as_recorded() {
    let mut observed = observed();

    for (view, matrix, hash) in &observed {
        println!("    ({view:?}, {matrix:?}, {hash:#018x}),");
    }
    let has_dcsr = LAYOUTS.iter().any(|l| l.name == "dcsr");
    let recorded = TABLE.iter().chain(TABLE_DCSR.iter().filter(|_| has_dcsr));
    let mut recorded: Vec<(String, &str, u64)> =
        recorded.map(|&(v, m, h)| (v.to_string(), m, h)).collect();
    // In one order, whichever table a view's rows are in.
    observed.sort();
    recorded.sort();
    for (seen, want) in observed.iter().zip(&recorded) {
        assert_eq!(seen, want, "(observed, recorded)");
    }
    assert_eq!(observed.len(), recorded.len(), "rows");
}

/// Recorded at the parent of the level-description PR.
#[rustfmt::skip]
const TABLE: &[(&str, &str, u64)] = &[
    ("csr", "lower6", 0xbf32f5b8cd4b27a0),
    ("csc", "lower6", 0x98498cd1478a7270),
    ("coo", "lower6", 0xb04ee169665984b4),
    ("dia", "lower6", 0xa53f500c0bfcb15e),
    ("ell", "lower6", 0x925bf38a0cd61394),
    ("jad", "lower6", 0x6cdc286fc5171c54),
    ("sky", "lower6", 0xe993429be1fb6c5f),
    ("bsr", "lower6", 0x3437aee9088e0106),
    ("bsr@3x2", "lower6", 0x3e877a6b208d0c8a),
    ("bsr@whole", "lower6", 0x1ab94de7af4f146a),
    ("vbr", "lower6", 0x3437aee9088e0106),
    ("vbr@3x2", "lower6", 0x3e877a6b208d0c8a),
    ("vbr@whole", "lower6", 0x1ab94de7af4f146a),
    ("dense", "lower6", 0xe1091e9824b4477e),
    ("diagsplit", "lower6", 0xe49aec2c02d66fe0),
    ("spvec", "lower6", 0xeb51d5f7ee42b89e),
    ("hashvec", "lower6", 0x0477c9d060763376),
    ("csr", "lower12", 0xef1064885711abd8),
    ("csc", "lower12", 0x5c6e5c43177301dc),
    ("coo", "lower12", 0xebfb4328d38068f7),
    ("dia", "lower12", 0x7589bef1e2cdd6c7),
    ("ell", "lower12", 0x7eeccadae448aef0),
    ("jad", "lower12", 0xd9451a9bf172509c),
    ("sky", "lower12", 0xb0038dff73273abf),
    ("bsr", "lower12", 0xe6605ed96adbc9d9),
    ("bsr@3x2", "lower12", 0x26fa019f2e8ad8dd),
    ("bsr@whole", "lower12", 0xba368442912e16a9),
    ("vbr", "lower12", 0xe6605ed96adbc9d9),
    ("vbr@3x2", "lower12", 0x26fa019f2e8ad8dd),
    ("vbr@whole", "lower12", 0xba368442912e16a9),
    ("dense", "lower12", 0xb3bbdc6f36ae4a21),
    ("diagsplit", "lower12", 0x3b62b6f797bfeb55),
    ("spvec", "lower12", 0xc95cb19c3268f31a),
    ("hashvec", "lower12", 0x80bf72871ec4ed6e),
    ("csr", "dense_row6", 0xb6321e982875f0b4),
    ("csc", "dense_row6", 0x8302d35f5639d9c8),
    ("coo", "dense_row6", 0x3f9ff86faffa3630),
    ("dia", "dense_row6", 0x3b6c3e9eae66268c),
    ("ell", "dense_row6", 0x9c104f035274f9b8),
    ("jad", "dense_row6", 0x2b6c866787b6d0f8),
    ("sky", "dense_row6", 0xb2d6699c6d257e85),
    ("bsr", "dense_row6", 0x9234d0ca28b0ffba),
    ("bsr@3x2", "dense_row6", 0x90f18b599195dd9a),
    ("bsr@whole", "dense_row6", 0x225c876ac42f4e42),
    ("vbr", "dense_row6", 0x9234d0ca28b0ffba),
    ("vbr@3x2", "dense_row6", 0x90f18b599195dd9a),
    ("vbr@whole", "dense_row6", 0x225c876ac42f4e42),
    ("dense", "dense_row6", 0x517d6a45b893e63e),
    ("diagsplit", "dense_row6", 0x9f0ccaf35b16dd7d),
    ("spvec", "dense_row6", 0x67dc85256e6edad7),
    ("hashvec", "dense_row6", 0x97b4ff594c9652e7),
    ("csr", "no_diagonal6", 0x860722342f2d34dc),
    ("csc", "no_diagonal6", 0x21d5b1b5992e175c),
    ("coo", "no_diagonal6", 0xc1b55ccadbd2543c),
    ("dia", "no_diagonal6", 0xacc35b0f12044c39),
    ("ell", "no_diagonal6", 0xcc72153f15c2833c),
    ("jad", "no_diagonal6", 0xc3f30d2d59b05e95),
    ("bsr", "no_diagonal6", 0xb5f9a4881d06b058),
    ("bsr@3x2", "no_diagonal6", 0x83de101607aef038),
    ("bsr@whole", "no_diagonal6", 0x68c5121e7589ce88),
    ("vbr", "no_diagonal6", 0xb5f9a4881d06b058),
    ("vbr@3x2", "no_diagonal6", 0x83de101607aef038),
    ("vbr@whole", "no_diagonal6", 0x68c5121e7589ce88),
    ("dense", "no_diagonal6", 0xeae0887bc2d8a468),
    ("diagsplit", "no_diagonal6", 0x708714a62564e8a5),
    ("spvec", "no_diagonal6", 0xb943edb9ed4f1909),
    ("hashvec", "no_diagonal6", 0x9cb8d91fca80ca59),
    ("csr", "rect6x4", 0xb615589119d69ab7),
    ("csc", "rect6x4", 0xf173852e9c5e4756),
    ("coo", "rect6x4", 0x0e424eecb4e433f1),
    ("dia", "rect6x4", 0x8a01254850393469),
    ("ell", "rect6x4", 0x2e7efc9680a2fb1f),
    ("jad", "rect6x4", 0xe9a685a808b0a446),
    ("bsr", "rect6x4", 0x4a9df9d323193dac),
    ("bsr@3x2", "rect6x4", 0x132ab34a36201aec),
    ("bsr@whole", "rect6x4", 0x0e38bd87535db674),
    ("vbr", "rect6x4", 0x4a9df9d323193dac),
    ("vbr@3x2", "rect6x4", 0x132ab34a36201aec),
    ("vbr@whole", "rect6x4", 0x0e38bd87535db674),
    ("dense", "rect6x4", 0x6695224997816168),
    ("spvec", "rect6x4", 0x4132bf488bce8954),
    ("hashvec", "rect6x4", 0x1ec717c3dc2f296c),
    ("csr", "empty6", 0xd5bd40af6335935c),
    ("csc", "empty6", 0xd5bd40af6335935c),
    ("coo", "empty6", 0x1fef5a87ff74041c),
    ("dia", "empty6", 0x8f8e44fb1e14d194),
    ("ell", "empty6", 0xd5bd40af6335935c),
    ("jad", "empty6", 0x244468d8b8dd8915),
    ("sky", "empty6", 0xa0220224f81778bc),
    ("bsr", "empty6", 0xd5bd40af6335935c),
    ("bsr@3x2", "empty6", 0xd5bd40af6335935c),
    ("bsr@whole", "empty6", 0xd5bd40af6335935c),
    ("vbr", "empty6", 0xd5bd40af6335935c),
    ("vbr@3x2", "empty6", 0xd5bd40af6335935c),
    ("vbr@whole", "empty6", 0xd5bd40af6335935c),
    ("dense", "empty6", 0x815214e0aa5e000c),
    ("diagsplit", "empty6", 0x1df4b4553e767595),
    ("spvec", "empty6", 0x8f8e44fb1e14d194),
    ("hashvec", "empty6", 0x8f8e44fb1e14d194),
    ("csr", "0x4", 0x7053d13b1f303e6d),
    ("csc", "0x4", 0xe3de0f113c26f0cd),
    ("coo", "0x4", 0xc8dedf64066255bc),
    ("dia", "0x4", 0x3fe715767b3bedb4),
    ("ell", "0x4", 0x7053d13b1f303e6d),
    ("jad", "0x4", 0x4d03d12445783ec4),
    ("bsr", "0x4", 0x7053d13b1f303e6d),
    ("bsr@3x2", "0x4", 0x7053d13b1f303e6d),
    ("bsr@whole", "0x4", 0x7053d13b1f303e6d),
    ("dense", "0x4", 0x7053d13b1f303e6d),
    ("spvec", "0x4", 0xfbbf3ab83740d0e4),
    ("hashvec", "0x4", 0xfbbf3ab83740d0e4),
];

/// The format the level-description PR added.
#[rustfmt::skip]
const TABLE_DCSR: &[(&str, &str, u64)] = &[
    ("dcsr", "lower6", 0xa3c8f300634b5885),
    ("dcsr", "lower12", 0x41c77297090916a6),
    ("dcsr", "dense_row6", 0x2e87285d1b951043),
    ("dcsr", "no_diagonal6", 0xf0dabd096fd32385),
    ("dcsr", "rect6x4", 0xdbbb59fe5d8ae6ae),
    ("dcsr", "empty6", 0x8f8e44fb1e14d194),
    ("dcsr", "0x4", 0x3fe715767b3bedb4),
];

// ---- Below: what exists only since the level descriptions do. The ----
// ---- file up to this line is what was recorded at the parent.      ----

// The `description` module that stood here, holding each view to its
// level description, is now the check every view passes at its first
// read (`bernoulli_formats::level::check_view`); the unit tests of
// `layout` run it over every registered description.
