//! `validate` against mutants of valid instances of every registered
//! layout and every host view: each element of each array set one up,
//! one down, to 0 and to its type's largest value, each array one
//! element short, and each pair of adjacent elements swapped.
//!
//! `validate` never panics, and a mutant it accepts is one the rest of
//! the format can read: every alternative of its view conforms
//! (`check_view_conformance`, the interpreter's cursor against `get`),
//! and `get` reads every entry `entries` lists. Per layout, the derived
//! `validate` rejects at least as many mutants as the hand-written
//! validators it replaced did ([`HAND`]; EXPERIMENTS.md lists the
//! mutants only the derived one rejects).

use bernoulli_formats::cursor::check_view_conformance;
use bernoulli_formats::{
    gen, Bsr, Coo, Csc, Csr, Dcsr, Dense, Dia, DiagSplit, Ell, FormatError, HashVec, Jad, Sky,
    SparseVec, SparseView, Triplets, Vbr,
};
use std::collections::BTreeMap;

/// Mutants the hand-written validators rejected, per layout, on the
/// instances of [`instances`]: COO and SKY had none.
const HAND: &[(&str, usize)] = &[
    ("csr", 152),
    ("csc", 150),
    ("dia", 266),
    ("ell", 220),
    ("jad", 253),
    ("bsr", 106),
    ("vbr", 286),
    ("dcsr", 202),
];

/// An element of a stored array, and the values its mutants hold.
trait Flip: Copy {
    fn flips(self) -> [Self; 4];
}

impl Flip for u32 {
    fn flips(self) -> [u32; 4] {
        [self.wrapping_add(1), self.wrapping_sub(1), 0, u32::MAX]
    }
}

impl Flip for i64 {
    fn flips(self) -> [i64; 4] {
        [self.wrapping_add(1), self.wrapping_sub(1), 0, i64::MAX]
    }
}

impl Flip for f64 {
    fn flips(self) -> [f64; 4] {
        [self + 1.0, self - 1.0, 0.0, f64::MAX]
    }
}

/// Every mutant of one array, named.
fn mutants<T: Flip>(array: &[T]) -> Vec<(String, Vec<T>)> {
    let mut out = Vec::new();
    for (i, &x) in array.iter().enumerate() {
        for (k, y) in x.flips().into_iter().enumerate() {
            let mut a = array.to_vec();
            a[i] = y;
            out.push((format!("[{i}] flip {k}"), a));
        }
    }
    if let Some((_, short)) = array.split_last() {
        out.push(("truncated".to_string(), short.to_vec()));
    }
    for i in 1..array.len() {
        let mut a = array.to_vec();
        a.swap(i - 1, i);
        out.push((format!("[{}] <-> [{i}]", i - 1), a));
    }
    out
}

/// Tallies in `$counts` how many of the mutants of every listed array
/// of `$m` its `validate` rejects, and of how many; each one it accepts
/// is [`readable`].
macro_rules! tally {
    ($counts:ident, $name:literal, $m:expr; $($($field:ident).+),+) => {{
        let m = $m;
        $(
            for (what, array) in mutants(&m.$($field).+) {
                let mut x = m.clone();
                x.$($field).+ = array;
                let what = format!("{} {} {what}", $name, stringify!($($field).+));
                let count = $counts.entry($name).or_insert((0, 0));
                count.1 += 1;
                match x.validate() {
                    Ok(()) => readable(&what, &x),
                    Err(FormatError::Invalid { format: $name, .. }) => count.0 += 1,
                    Err(e) => panic!("{what}: {e:?}"),
                }
            }
        )+
    }};
}

/// What the rest of the format must make of an instance `validate`
/// accepted.
fn readable(what: &str, m: &dyn SparseView) {
    for alt in 0..m.static_view().alternatives().len() {
        let conforms = check_view_conformance(m, alt);
        assert_eq!(conforms, Ok(()), "{what}: accepted, alternative {alt}");
    }
    let entries = m.entries();
    assert_eq!(m.nnz(), entries.len(), "{what}: accepted");
    for (r, c, v) in entries {
        let get = m.get(r, c).to_bits();
        assert_eq!(get, v.to_bits(), "{what}: accepted, ({r}, {c})");
    }
}

/// A square matrix with an empty row and a missing diagonal entry, and
/// its lower triangle with a full diagonal.
fn instances() -> [Triplets<f64>; 2] {
    let mut t = gen::random_sparse(6, 6, 16, 7);
    t.retain_positions(|r, c| r != 3 && (r, c) != (1, 1));
    let lower = t.lower_triangle_full_diag(1.5);
    [t, lower]
}

#[test]
fn every_mutant_is_rejected_or_readable() {
    let mut n = BTreeMap::new();
    let (even, thirds) = ([0, 2, 4, 6], [0, 3, 6]);
    for t in &instances() {
        tally!(n, "csr", Csr::from_triplets(t); rowptr, colind, values);
        tally!(n, "csc", Csc::from_triplets(t); colptr, rowind, values);
        tally!(n, "coo", Coo::from_triplets(t); rows, cols, values);
        tally!(n, "dia", Dia::from_triplets(t); diags, lo, hi, ptr, values);
        tally!(n, "ell", Ell::from_triplets(t); colind, values, rowlen);
        tally!(n, "jad", Jad::from_triplets(t); iperm, iperm_inv, dptr, colind, values, rowlen);
        tally!(n, "bsr", Bsr::from_triplets(t, 2, 2); browptr, bcolind, values);
        tally!(n, "vbr", Vbr::from_triplets(t, &even, &thirds);
            val, indx, bindx, rpntr, cpntr, bpntrb, bpntre, rowblk);
        tally!(n, "dcsr", Dcsr::from_triplets(t); rows, rowptr, colind, values);
        let lower = t.lower_triangle_full_diag(1.0);
        tally!(n, "sky", Sky::from_triplets(&lower); lo, ptr, values);
        tally!(n, "dense", Dense::from_triplets(t); data);
        tally!(n, "diagsplit", DiagSplit::from_triplets(t); diag, off.rowptr, off.colind, off.values);
        // The entries as a vector, `r + c` their index.
        let pairs: Vec<(usize, f64)> = t
            .entries()
            .iter()
            .map(|&(r, c, v)| ((r + c) as usize, v))
            .collect();
        tally!(n, "spvec", SparseVec::from_pairs(12, &pairs); ind, values);
        tally!(n, "hashvec", HashVec::from_pairs(12, &pairs); ind, values);
    }
    for (name, (rejected, total)) in n {
        println!("{name:10} rejects {rejected:4} of {total:4} mutants");
        let hand = HAND.iter().find(|h| h.0 == name).map_or(0, |h| h.1);
        assert!(
            rejected >= hand,
            "{name}: {rejected} rejected, the hand validator {hand}"
        );
    }
}

/// The matrix of `tests/validate.rs` as JAD, row 0's two entries
/// swapped in place: the hierarchical chain's `c[sorted]` is broken, and
/// `get(0, 3)` would read 0 where 7 is stored. The hand-written
/// validator accepted it.
#[test]
fn jad_rows_out_of_column_order_are_rejected() {
    let t = Triplets::from_entries(
        4,
        5,
        &[
            (0, 0, 2.0),
            (0, 3, 7.0),
            (1, 1, 3.0),
            (2, 2, 4.0),
            (2, 4, -1.0),
            (3, 0, 6.0),
            (3, 3, 5.0),
        ],
    );
    let mut m = Jad::from_triplets(&t);
    let rr = m.iperm_inv[0] as usize;
    let (a, b) = (m.dptr[0] as usize + rr, m.dptr[1] as usize + rr);
    m.colind.swap(a, b);
    m.values.swap(a, b);
    match m.validate() {
        Err(FormatError::Invalid {
            format: "jad",
            reason,
        }) => {
            assert!(reason.contains("not strictly increasing"), "{reason}");
        }
        other => panic!("accepted: {other:?}"),
    }
}
