//! The bytes every registered layout assembles, pinned.
//!
//! For every [`LAYOUTS`] entry, built by its struct's own
//! `from_triplets` — BSR at 2×2, 3×2, the whole matrix and the block
//! shape `discover_block_size` finds; VBR in strips of two, of three by
//! two, one strip per dimension and the strips `discover_strips` finds —
//! an FNV-1a hash over [`Stored::parts`]: every dim, then every array's
//! length and bytes at the width its layout declares. A layout that
//! refuses a matrix (by panicking) hashes a marker word instead. The
//! inputs are the cases of `assembly.rs` (every shape in six push
//! orders, folded into one hash per layout), the edge matrices of
//! `levels.rs` (`0×n`, no entries, a dense row, a missing diagonal, a
//! rectangle) and `gen::scale(can_1072_like, 20, seed)` (not cut whole:
//! one block of it would be 3.7 GB).
//!
//! What `levels.rs` hashes is the walk, and a walk does not see every
//! byte: ELL's pad slots, DIA's `lo`/`hi` and the pointer arrays are
//! read only where a key leads. This file reads them all. [`TABLE`] was
//! recorded at the commit whose hand-written assemblers the derived one
//! replaced: the file, copied into a checkout of that commit, passes
//! there.
//!
//! `cargo test -p bernoulli-formats --test parts_hash -- --nocapture`
//! prints every row in the table's syntax.

use bernoulli_formats::partition::split_even;
use bernoulli_formats::{
    discover_block_size, discover_strips, gen, Bsr, Coo, Csc, Csr, Dcsr, Dia, Ell, Jad, Sky,
    Stored, Triplets, Vbr, LAYOUTS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Entry = (usize, usize, f64);

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

/// What a refused build hashes.
const REFUSED: u64 = u64::MAX - 3;

/// Hashes the dims and every array of `m`, as `parts` hands them out.
fn hash_parts(m: &dyn Stored, h: &mut Fnv) {
    let (mut dims, mut arrays) = (Vec::new(), Vec::new());
    m.parts(&mut dims, &mut arrays);
    for d in dims {
        h.word(d as u64);
    }
    for (a, &(_, elem)) in arrays.iter().zip(m.layout().arrays) {
        h.word(a.len as u64);
        // SAFETY: `parts` borrows each array of `m` as base pointer and
        // length in elements of the declared type, `m` outlives the read.
        let bytes = unsafe { std::slice::from_raw_parts(a.ptr, a.len * elem.width()) };
        h.bytes(bytes);
    }
}

/// Strips of `size` rows (columns), as even as `split_even` cuts them.
fn strips(n: usize, size: usize) -> Vec<usize> {
    split_even(n, n.div_ceil(size))
}

/// The ways `name` is built: a suffix naming the cut, and the build.
#[allow(clippy::type_complexity)]
fn builds(name: &str) -> Vec<(String, Box<dyn Fn(&Triplets<f64>) -> Box<dyn Stored>>)> {
    fn one<M: Stored + 'static>(
        f: fn(&Triplets<f64>) -> M,
    ) -> Box<dyn Fn(&Triplets<f64>) -> Box<dyn Stored>> {
        Box::new(move |t| Box::new(f(t)))
    }
    match name {
        "csr" => vec![(String::new(), one(Csr::from_triplets))],
        "csc" => vec![(String::new(), one(Csc::from_triplets))],
        "coo" => vec![(String::new(), one(Coo::from_triplets))],
        "dia" => vec![(String::new(), one(Dia::from_triplets))],
        "ell" => vec![(String::new(), one(Ell::from_triplets))],
        "jad" => vec![(String::new(), one(Jad::from_triplets))],
        "sky" => vec![(String::new(), one(Sky::from_triplets))],
        "dcsr" => vec![(String::new(), one(Dcsr::from_triplets))],
        "bsr" => {
            let at = |r: usize, c: usize| -> Box<dyn Fn(&Triplets<f64>) -> Box<dyn Stored>> {
                Box::new(move |t| Box::new(Bsr::from_triplets(t, r, c)))
            };
            vec![
                ("@2x2".to_string(), at(2, 2)),
                ("@3x2".to_string(), at(3, 2)),
                (
                    "@whole".to_string(),
                    Box::new(|t| {
                        let (r, c) = (t.nrows().max(1), t.ncols().max(1));
                        Box::new(Bsr::from_triplets(t, r, c))
                    }),
                ),
                (
                    "@discovered".to_string(),
                    Box::new(|t| {
                        let rep = discover_block_size(t, 8, 0.9);
                        Box::new(Bsr::from_triplets(t, rep.r, rep.c))
                    }),
                ),
            ]
        }
        "vbr" => {
            let at = |r: usize, c: usize| -> Box<dyn Fn(&Triplets<f64>) -> Box<dyn Stored>> {
                Box::new(move |t| {
                    let (rp, cp) = (strips(t.nrows(), r), strips(t.ncols(), c));
                    Box::new(Vbr::from_triplets(t, &rp, &cp))
                })
            };
            vec![
                ("@2x2".to_string(), at(2, 2)),
                ("@3x2".to_string(), at(3, 2)),
                (
                    "@whole".to_string(),
                    Box::new(|t| Box::new(Vbr::from_triplets(t, &[0, t.nrows()], &[0, t.ncols()]))),
                ),
                (
                    "@discovered".to_string(),
                    Box::new(|t| {
                        let (rp, cp) = discover_strips(t);
                        Box::new(Vbr::from_triplets(t, &rp, &cp))
                    }),
                ),
            ]
        }
        other => panic!("parts_hash.rs has no case for the layout {other:?}: add one"),
    }
}

// ---- The inputs of assembly.rs, generated as it generates them.

fn normal_form(pushed: &[Entry]) -> Vec<Entry> {
    let mut sorted = pushed.to_vec();
    sorted.sort_by_key(|&(r, c, _)| (r, c));
    let mut out: Vec<Entry> = Vec::with_capacity(sorted.len());
    for &(r, c, v) in &sorted {
        match out.last_mut() {
            Some(&mut (lr, lc, ref mut lv)) if lr == r && lc == c => *lv += v,
            _ => out.push((r, c, v)),
        }
    }
    out
}

fn shuffle(entries: &mut [Entry], rng: &mut StdRng) {
    for i in (1..entries.len()).rev() {
        entries.swap(i, rng.gen_range(0..=i));
    }
}

fn value(rng: &mut StdRng) -> f64 {
    rng.gen_range(-1.0..1.0) / 3.0
}

fn presentations(nrows: usize, ncols: usize, list: &[Entry], seed: u64) -> Vec<Triplets<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sorted = list.to_vec();
    sorted.sort_by_key(|&(r, c, _)| (r, c));
    let mut column_major = list.to_vec();
    column_major.sort_by_key(|&(r, c, _)| (c, r));
    let mut shuffled = list.to_vec();
    shuffle(&mut shuffled, &mut rng);
    let mut late = normal_form(list);
    let tail = late.len().min(5);
    for k in 0..tail {
        let (r, c, _) = late[(k * 7) % late.len()];
        late.push((r, c, value(&mut rng)));
    }
    let orders = [
        list.to_vec(),
        normal_form(list),
        sorted,
        column_major,
        shuffled,
        late,
    ];
    let triplets = |pushed: &Vec<Entry>| {
        let mut t = Triplets::new(nrows, ncols);
        for &(r, c, v) in pushed {
            t.push(r, c, v);
        }
        t
    };
    orders.iter().map(triplets).collect()
}

fn random_list(nrows: usize, ncols: usize, n: usize, lower: bool, rng: &mut StdRng) -> Vec<Entry> {
    let mut list: Vec<Entry> = Vec::new();
    while list.len() < n {
        let (r, c) = (rng.gen_range(0..nrows), rng.gen_range(0..ncols));
        if !lower || c <= r {
            list.push((r, c, value(rng)));
        }
    }
    for k in 0..n / 3 {
        let (r, c, _) = list[(k * 5) % n];
        list.push((r, c, value(rng)));
    }
    list
}

fn assembly_cases() -> Vec<Triplets<f64>> {
    let mut rng = StdRng::seed_from_u64(19);
    let mut out = Vec::new();
    for (k, &(nrows, ncols, n, lower)) in [
        (8, 8, 20, false),
        (12, 12, 40, true),
        (6, 10, 25, false),
        (10, 4, 18, false),
        (7, 7, 30, true),
        (9, 5, 12, false),
    ]
    .iter()
    .enumerate()
    {
        let list = random_list(nrows, ncols, n, lower, &mut rng);
        out.extend(presentations(nrows, ncols, &list, k as u64));
    }
    let v = |k: usize| 0.1 + k as f64 / 3.0;
    let empty_rows: Vec<Entry> = (0..8)
        .filter(|r| r % 3 == 0)
        .flat_map(|r| (0..=r).step_by(2).map(move |c| (r, c, v(r + c))))
        .collect();
    out.extend(presentations(8, 8, &empty_rows, 1));
    for (nrows, ncols) in [(0, 4), (4, 0), (0, 0), (6, 6), (1, 1)] {
        out.extend(presentations(nrows, ncols, &[], 2));
    }
    let one_position: Vec<Entry> = (0..9).map(|k| (3, 1, v(k))).collect();
    out.extend(presentations(4, 4, &one_position, 3));
    let mut dense_row: Vec<Entry> = (0..6).map(|c| (5, c, v(c))).collect();
    dense_row.extend([(0, 0, v(7)), (2, 1, v(8)), (5, 3, v(9))]);
    out.extend(presentations(6, 6, &dense_row, 4));
    let full_diagonal: Vec<Entry> = (0..6).map(|i| (i, i, v(i))).collect();
    out.extend(presentations(6, 6, &full_diagonal, 5));
    let dense: Vec<Entry> = (0..16).map(|k| (k / 4, k % 4, v(k))).collect();
    out.extend(presentations(4, 4, &dense, 6));
    out
}

// ---- The edge matrices of levels.rs.

fn lower(n: usize, seed: u64) -> Triplets<f64> {
    let mut t = gen::random_sparse(n, n, 3 * n, seed);
    t.retain_positions(|r, c| c <= r && r % 3 != 1);
    t
}

fn level_matrices() -> Vec<(&'static str, Triplets<f64>)> {
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

/// `(layout@cut, input, hash)` of every build.
fn observed() -> Vec<(String, &'static str, u64)> {
    let mut inputs: Vec<(&'static str, Vec<Triplets<f64>>)> = vec![("assembly", assembly_cases())];
    inputs.extend(
        level_matrices()
            .into_iter()
            .map(|(name, t)| (name, vec![t])),
    );
    let scaled = gen::scale(&gen::can_1072_like(), 20, 7);
    inputs.push(("can_1072x20", vec![scaled]));
    let mut out = Vec::new();
    for layout in LAYOUTS {
        for (cut, build) in builds(layout.name) {
            for (input, matrices) in &inputs {
                // One block of the whole scaled matrix is 3.7 GB.
                if cut == "@whole" && *input == "can_1072x20" {
                    continue;
                }
                let mut h = Fnv::new();
                for t in matrices {
                    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| build(t))) {
                        Ok(m) => hash_parts(&*m, &mut h),
                        Err(_) => h.word(REFUSED),
                    }
                }
                out.push((format!("{}{cut}", layout.name), *input, h.0));
            }
        }
    }
    out
}

#[test]
fn every_layout_assembles_the_recorded_bytes() {
    // Layouts refuse some shapes by panicking; that is not news here.
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let observed = std::panic::catch_unwind(observed);
    std::panic::set_hook(hook);
    let mut observed = observed.unwrap_or_else(|e| std::panic::resume_unwind(e));
    for (layout, input, hash) in &observed {
        println!("    ({layout:?}, {input:?}, {hash:#018x}),");
    }
    let mut recorded: Vec<(String, &str, u64)> = TABLE
        .iter()
        .map(|&(l, i, h)| (l.to_string(), i, h))
        .collect();
    observed.sort();
    recorded.sort();
    for (seen, want) in observed.iter().zip(&recorded) {
        assert_eq!(seen, want, "(observed, recorded)");
    }
    assert_eq!(observed.len(), recorded.len(), "rows");
}

#[rustfmt::skip]
const TABLE: &[(&str, &str, u64)] = &[
    ("csr", "assembly", 0x2c1a321a9a80ff55),
    ("csr", "lower6", 0x1b941afaa3ca3846),
    ("csr", "lower12", 0xaf9f0f3f856dd2d3),
    ("csr", "dense_row6", 0x624f13605e7cc66c),
    ("csr", "no_diagonal6", 0x239ab1cf56d7d218),
    ("csr", "rect6x4", 0xb42f14bc0f809e39),
    ("csr", "empty6", 0x10ca9c14bf6ab4c2),
    ("csr", "0x4", 0xb81479d82c2adde0),
    ("csr", "can_1072x20", 0x07fc1be80041700b),
    ("csc", "assembly", 0xc5e6f81b3be4dbd9),
    ("csc", "lower6", 0x5885b2c3e22e3a0c),
    ("csc", "lower12", 0xf5e28c113bab0bb9),
    ("csc", "dense_row6", 0x49a475caf65bf928),
    ("csc", "no_diagonal6", 0x2c9e83dcfa0b36ca),
    ("csc", "rect6x4", 0xd535f970b18a9ffb),
    ("csc", "empty6", 0x10ca9c14bf6ab4c2),
    ("csc", "0x4", 0x7ca76f4a3fc29aa4),
    ("csc", "can_1072x20", 0x07fc1be80041700b),
    ("coo", "assembly", 0x660c4b5d957a3995),
    ("coo", "lower6", 0x26af8d88e5c7b4a3),
    ("coo", "lower12", 0xd3a74dade9c9f663),
    ("coo", "dense_row6", 0x5f050c5a916ce35f),
    ("coo", "no_diagonal6", 0x80967d464eef1869),
    ("coo", "rect6x4", 0xd01b1d357ad49101),
    ("coo", "empty6", 0x0e4ff245513da805),
    ("coo", "0x4", 0x2b73d272651d5a41),
    ("coo", "can_1072x20", 0x1a66d12f6889ddf7),
    ("dia", "assembly", 0x12439a8623381769),
    ("dia", "lower6", 0x9a0de0a5f1fdf24d),
    ("dia", "lower12", 0xecdffe6a6db4e11e),
    ("dia", "dense_row6", 0x0a8d58e082e59e38),
    ("dia", "no_diagonal6", 0xfe5f60d5f90088c2),
    ("dia", "rect6x4", 0xbfa0bed25e2dc8ca),
    ("dia", "empty6", 0x35449eb3f2f40b44),
    ("dia", "0x4", 0x926b2ab2b304ae40),
    ("dia", "can_1072x20", 0x07f77e5458d91f8e),
    ("ell", "assembly", 0x07390f234a171a85),
    ("ell", "lower6", 0x2369f7609ec00bc3),
    ("ell", "lower12", 0x5311d904da1321a9),
    ("ell", "dense_row6", 0xd1c475ac8fb2a96f),
    ("ell", "no_diagonal6", 0xdd637f06bf8f4e91),
    ("ell", "rect6x4", 0x658ae457eb0b6a7d),
    ("ell", "empty6", 0x8b1e8780b2f46983),
    ("ell", "0x4", 0x262d7130518e6c61),
    ("ell", "can_1072x20", 0x991f91a2cb6585a0),
    ("jad", "assembly", 0x84ba3eba3809800d),
    ("jad", "lower6", 0x5285f7bcf59271a0),
    ("jad", "lower12", 0x016980808b23699c),
    ("jad", "dense_row6", 0x15d808bc23ae24c4),
    ("jad", "no_diagonal6", 0x999f8431fe64a567),
    ("jad", "rect6x4", 0xe1932a386e021133),
    ("jad", "empty6", 0x8b72728034cfae62),
    ("jad", "0x4", 0x4aba82d9f35cae20),
    ("jad", "can_1072x20", 0x8ef68fca76b6e988),
    ("sky", "assembly", 0x69c1fd0a94ec87be),
    ("sky", "lower6", 0x72aa5dba481f989c),
    ("sky", "lower12", 0xed581e5541cae65e),
    ("sky", "dense_row6", 0x8f4ed23551d45fa4),
    ("sky", "no_diagonal6", 0x1da79a586b5ef85e),
    ("sky", "rect6x4", 0x1da79a586b5ef85e),
    ("sky", "empty6", 0x0d25d36c8f12d622),
    ("sky", "0x4", 0x1da79a586b5ef85e),
    ("sky", "can_1072x20", 0x1da79a586b5ef85e),
    ("bsr@2x2", "assembly", 0xfe0862c86b9903a0),
    ("bsr@2x2", "lower6", 0xca4192be6453f9df),
    ("bsr@2x2", "lower12", 0xd870744ce6e83f60),
    ("bsr@2x2", "dense_row6", 0xe70e3551368e7a47),
    ("bsr@2x2", "no_diagonal6", 0x9a4d712d923ed513),
    ("bsr@2x2", "rect6x4", 0xb963f138fa084a30),
    ("bsr@2x2", "empty6", 0xbe7d005495a24441),
    ("bsr@2x2", "0x4", 0x1fa1871a9b474260),
    ("bsr@2x2", "can_1072x20", 0x0632c06aa0e4b926),
    ("bsr@3x2", "assembly", 0x718d301f30176786),
    ("bsr@3x2", "lower6", 0x67fd6fcb193a84bb),
    ("bsr@3x2", "lower12", 0x5c78fa83dafe0d91),
    ("bsr@3x2", "dense_row6", 0x2cd9a7bfeda205bf),
    ("bsr@3x2", "no_diagonal6", 0x4ef52a7fa5e672f4),
    ("bsr@3x2", "rect6x4", 0x3783e0a650aa0943),
    ("bsr@3x2", "empty6", 0xea03241c9bb466d7),
    ("bsr@3x2", "0x4", 0x751e62cd297e6b11),
    ("bsr@3x2", "can_1072x20", 0x1da79a586b5ef85e),
    ("bsr@whole", "assembly", 0x77e5f4889d3d6b99),
    ("bsr@whole", "lower6", 0x16ca0dc704446431),
    ("bsr@whole", "lower12", 0xd7fca9d017b31f2b),
    ("bsr@whole", "dense_row6", 0x5f08efb1c174e75d),
    ("bsr@whole", "no_diagonal6", 0x7da88e202701c3d7),
    ("bsr@whole", "rect6x4", 0x2bc7e482174416f7),
    ("bsr@whole", "empty6", 0x8781282e424100a7),
    ("bsr@whole", "0x4", 0xcfd3299c927a6715),
    ("bsr@discovered", "assembly", 0x063df88b7145d8a1),
    ("bsr@discovered", "lower6", 0x359b621ca885bc26),
    ("bsr@discovered", "lower12", 0xe4a33a592305a333),
    ("bsr@discovered", "dense_row6", 0x17c7960a416c2b8c),
    ("bsr@discovered", "no_diagonal6", 0x4fd83236b7719db8),
    ("bsr@discovered", "rect6x4", 0x38c196f5e7c6ae19),
    ("bsr@discovered", "empty6", 0x8781282e424100a7),
    ("bsr@discovered", "0x4", 0xcfd3299c927a6715),
    ("bsr@discovered", "can_1072x20", 0xed3615d8b1ffb9ab),
    ("vbr@2x2", "assembly", 0xffcf4265a0831295),
    ("vbr@2x2", "lower6", 0x348e7123937b91b2),
    ("vbr@2x2", "lower12", 0x013cbe9d8bc9ea7b),
    ("vbr@2x2", "dense_row6", 0x8d31a7e5afa45c74),
    ("vbr@2x2", "no_diagonal6", 0x715ee5d98cd260df),
    ("vbr@2x2", "rect6x4", 0x1f0b5dc32f18728b),
    ("vbr@2x2", "empty6", 0x6f569b40b5c8f562),
    ("vbr@2x2", "0x4", 0x1da79a586b5ef85e),
    ("vbr@2x2", "can_1072x20", 0x65f1b391fa9ad275),
    ("vbr@3x2", "assembly", 0xc320685c2b4721b9),
    ("vbr@3x2", "lower6", 0x5c889503c5ba6278),
    ("vbr@3x2", "lower12", 0x6cb00b52a2e9105e),
    ("vbr@3x2", "dense_row6", 0xff117eee65ea3ebc),
    ("vbr@3x2", "no_diagonal6", 0x19e034c02b2f81dd),
    ("vbr@3x2", "rect6x4", 0xacecb41bb2076412),
    ("vbr@3x2", "empty6", 0xf05fdc9e811f8391),
    ("vbr@3x2", "0x4", 0x1da79a586b5ef85e),
    ("vbr@3x2", "can_1072x20", 0x58f920100dd85fc8),
    ("vbr@whole", "assembly", 0x3cc1a441e533ffc9),
    ("vbr@whole", "lower6", 0x38fcbede9eefdc1f),
    ("vbr@whole", "lower12", 0x19d9a0c481581673),
    ("vbr@whole", "dense_row6", 0x1b8f369ecc8abfd3),
    ("vbr@whole", "no_diagonal6", 0x7817bb66c7814735),
    ("vbr@whole", "rect6x4", 0xfcadf04a2fa59629),
    ("vbr@whole", "empty6", 0x048b9d4f11acb1f2),
    ("vbr@whole", "0x4", 0x1da79a586b5ef85e),
    ("vbr@discovered", "assembly", 0x87fbb1406f3bbcd1),
    ("vbr@discovered", "lower6", 0x1dc8c48013b8d0b0),
    ("vbr@discovered", "lower12", 0x9dcbf2ed780c872e),
    ("vbr@discovered", "dense_row6", 0x288e613bef5ab218),
    ("vbr@discovered", "no_diagonal6", 0x54c11f5a214aae2c),
    ("vbr@discovered", "rect6x4", 0x3ea2197209628f3e),
    ("vbr@discovered", "empty6", 0x048b9d4f11acb1f2),
    ("vbr@discovered", "0x4", 0x1da79a586b5ef85e),
    ("vbr@discovered", "can_1072x20", 0x89176dcd663e42fa),
    ("dcsr", "assembly", 0xc54fa748faf86629),
    ("dcsr", "lower6", 0x8b50921122d0b801),
    ("dcsr", "lower12", 0x13bebe7dc2b15b1b),
    ("dcsr", "dense_row6", 0x15c40fba89f8e92f),
    ("dcsr", "no_diagonal6", 0xdc3bbb6f290bf99f),
    ("dcsr", "rect6x4", 0x408c8edb791353ca),
    ("dcsr", "empty6", 0x73ae45df71364684),
    ("dcsr", "0x4", 0xa580dd8da225a200),
    ("dcsr", "can_1072x20", 0x5efe33ed4eeaf09a),
];
