//! Every registered layout assembles from triplets what the sort-based
//! assembly it replaced did, whatever order the entries arrive in.
//!
//! The reference kept here is that older algorithm: copy the entries,
//! sort them stably by position, sum duplicates in push order
//! ([`normal_form`]); then its CSR and JAD constructions verbatim
//! ([`reference_csr`], [`reference_jad`]; DCSR's is CSR's with the empty
//! rows taken out), compared with `==`. The other
//! layouts must validate and convert back to exactly the normal form
//! (plus structural zeros, for the layouts that fill in).

use bernoulli_formats::layout::Block;
use bernoulli_formats::{
    discover_strips, Bsr, Coo, Csc, Csr, Dcsr, Dia, Ell, FormatError, Jad, Sky, Triplets, Vbr,
    LAYOUTS,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

type Entry = (usize, usize, f64);

const BLOCK: Block = (2, 2);

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

/// An index array as the formats store it.
fn idx(v: Vec<usize>) -> Vec<u32> {
    v.into_iter().map(|i| u32::try_from(i).unwrap()).collect()
}

fn reference_csr(nrows: usize, ncols: usize, normal: &[Entry]) -> Csr<f64> {
    let mut rowptr = vec![0usize; nrows + 1];
    for &(r, _, _) in normal {
        rowptr[r + 1] += 1;
    }
    for r in 0..nrows {
        rowptr[r + 1] += rowptr[r];
    }
    Csr {
        nrows,
        ncols,
        rowptr: idx(rowptr),
        colind: idx(normal.iter().map(|&(_, c, _)| c).collect()),
        values: normal.iter().map(|&(_, _, v)| v).collect(),
    }
}

fn reference_jad(m: usize, ncols: usize, normal: &[Entry]) -> Jad<f64> {
    let mut rows: Vec<Vec<(usize, f64)>> = vec![Vec::new(); m];
    for &(r, c, v) in normal {
        rows[r].push((c, v));
    }
    let mut iperm: Vec<usize> = (0..m).collect();
    iperm.sort_by_key(|&r| std::cmp::Reverse(rows[r].len()));
    let mut iperm_inv = vec![0usize; m];
    for (rr, &r) in iperm.iter().enumerate() {
        iperm_inv[r] = rr;
    }
    let rowlen: Vec<usize> = iperm.iter().map(|&r| rows[r].len()).collect();
    let nd = rowlen.first().copied().unwrap_or(0);
    let mut dptr = Vec::with_capacity(nd + 1);
    dptr.push(0usize);
    for d in 0..nd {
        let cnt = rowlen.partition_point(|&len| len > d);
        dptr.push(dptr[dptr.len() - 1] + cnt);
    }
    let nnz = dptr[dptr.len() - 1];
    let mut colind = vec![0usize; nnz];
    let mut values = vec![0.0; nnz];
    for rr in 0..m {
        let r = iperm[rr];
        for (d, &(c, v)) in rows[r].iter().enumerate() {
            colind[dptr[d] + rr] = c;
            values[dptr[d] + rr] = v;
        }
    }
    Jad {
        nrows: m,
        ncols,
        iperm: idx(iperm),
        iperm_inv: idx(iperm_inv),
        dptr: idx(dptr),
        colind: idx(colind),
        values,
        rowlen: idx(rowlen),
    }
}

/// The rows of the normal form that store something, over
/// [`reference_csr`]'s arrays.
fn reference_dcsr(nrows: usize, ncols: usize, normal: &[Entry]) -> Dcsr<f64> {
    let csr = reference_csr(nrows, ncols, normal);
    let rows: Vec<usize> = (0..nrows)
        .filter(|&r| csr.rowptr[r] < csr.rowptr[r + 1])
        .collect();
    let mut rowptr: Vec<usize> = rows.iter().map(|&r| csr.rowptr[r] as usize).collect();
    rowptr.push(normal.len());
    Dcsr {
        nrows,
        ncols,
        rows: idx(rows),
        rowptr: idx(rowptr),
        colind: csr.colind,
        values: csr.values,
    }
}

/// One input: a shape and entries in the order they are pushed.
struct Case {
    what: String,
    nrows: usize,
    ncols: usize,
    pushed: Vec<Entry>,
}

impl Case {
    fn triplets(&self) -> Triplets<f64> {
        let mut t = Triplets::new(self.nrows, self.ncols);
        for &(r, c, v) in &self.pushed {
            t.push(r, c, v);
        }
        t
    }
}

fn shuffle(entries: &mut [Entry], rng: &mut StdRng) {
    for i in (1..entries.len()).rev() {
        entries.swap(i, rng.gen_range(0..=i));
    }
}

/// Values that do not sum exactly, so a different order of summation
/// over duplicates shows in the bits.
fn value(rng: &mut StdRng) -> f64 {
    rng.gen_range(-1.0..1.0) / 3.0
}

/// One entry list in the orders a caller may push it. Each order is
/// its own case, with its own reference: the order of duplicates, and so
/// their sums, differs from one to the next.
fn presentations(what: &str, nrows: usize, ncols: usize, list: &[Entry], seed: u64) -> Vec<Case> {
    let mut rng = StdRng::seed_from_u64(seed);
    let case = |order: &str, pushed: Vec<Entry>| Case {
        what: format!("{what}, {order}"),
        nrows,
        ncols,
        pushed,
    };
    let mut sorted = list.to_vec();
    sorted.sort_by_key(|&(r, c, _)| (r, c));
    let mut column_major = list.to_vec();
    column_major.sort_by_key(|&(r, c, _)| (c, r));
    let mut shuffled = list.to_vec();
    shuffle(&mut shuffled, &mut rng);
    // A sorted body with a short tail of late arrivals, duplicates of
    // body positions among them.
    let mut late = normal_form(list);
    let tail = late.len().min(5);
    for k in 0..tail {
        let (r, c, _) = late[(k * 7) % late.len()];
        late.push((r, c, value(&mut rng)));
    }
    vec![
        case("as listed", list.to_vec()),
        case("normal form", normal_form(list)),
        case("sorted, duplicates adjacent", sorted),
        case("column-major", column_major),
        case("shuffled", shuffled),
        case("sorted with late arrivals", late),
    ]
}

fn random_list(nrows: usize, ncols: usize, n: usize, lower: bool, rng: &mut StdRng) -> Vec<Entry> {
    let mut list: Vec<Entry> = Vec::new();
    while list.len() < n {
        let (r, c) = (rng.gen_range(0..nrows), rng.gen_range(0..ncols));
        if !lower || c <= r {
            list.push((r, c, value(rng)));
        }
    }
    // A third again as duplicates of positions already listed.
    for k in 0..n / 3 {
        let (r, c, _) = list[(k * 5) % n];
        list.push((r, c, value(rng)));
    }
    list
}

fn cases() -> Vec<Case> {
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
        let what = format!(
            "random {nrows}x{ncols}{}",
            if lower { " lower" } else { "" }
        );
        out.extend(presentations(&what, nrows, ncols, &list, k as u64));
    }

    // The edge shapes of ROADMAP item 4.
    let v = |k: usize| 0.1 + k as f64 / 3.0;
    let empty_rows: Vec<Entry> = (0..8)
        .filter(|r| r % 3 == 0)
        .flat_map(|r| (0..=r).step_by(2).map(move |c| (r, c, v(r + c))))
        .collect();
    out.extend(presentations("empty rows", 8, 8, &empty_rows, 1));
    for (nrows, ncols) in [(0, 4), (4, 0), (0, 0), (6, 6), (1, 1)] {
        out.extend(presentations(
            &format!("no entries {nrows}x{ncols}"),
            nrows,
            ncols,
            &[],
            2,
        ));
    }
    let one_position: Vec<Entry> = (0..9).map(|k| (3, 1, v(k))).collect();
    out.extend(presentations("one position", 4, 4, &one_position, 3));
    let mut dense_row: Vec<Entry> = (0..6).map(|c| (5, c, v(c))).collect();
    dense_row.extend([(0, 0, v(7)), (2, 1, v(8)), (5, 3, v(9))]);
    out.extend(presentations("one dense row", 6, 6, &dense_row, 4));
    let full_diagonal: Vec<Entry> = (0..6).map(|i| (i, i, v(i))).collect();
    out.extend(presentations("full diagonal", 6, 6, &full_diagonal, 5));
    let dense: Vec<Entry> = (0..16).map(|k| (k / 4, k % 4, v(k))).collect();
    out.extend(presentations("fully dense", 4, 4, &dense, 6));
    out
}

/// A layout's instance by its concrete type: what `==`, `to_triplets`
/// and `validate` are defined on.
#[derive(Debug, PartialEq)]
enum Built {
    Csr(Csr<f64>),
    Csc(Csc<f64>),
    Coo(Coo<f64>),
    Dia(Dia<f64>),
    Ell(Ell<f64>),
    Jad(Jad<f64>),
    Sky(Sky<f64>),
    Bsr(Bsr<f64>),
    /// Under the layout's even strips, one strip per dimension, and the
    /// strips `discover_strips` finds.
    Vbr(Vec<Vbr<f64>>),
    Dcsr(Dcsr<f64>),
}

impl Built {
    /// `None` when the layout refuses the matrix (by panicking).
    fn build(name: &str, t: &Triplets<f64>) -> Option<Built> {
        let (m, n) = (t.nrows(), t.ncols());
        std::panic::catch_unwind(|| match name {
            "csr" => Built::Csr(Csr::from_triplets(t)),
            "csc" => Built::Csc(Csc::from_triplets(t)),
            "coo" => Built::Coo(Coo::from_triplets(t)),
            "dia" => Built::Dia(Dia::from_triplets(t)),
            "ell" => Built::Ell(Ell::from_triplets(t)),
            "jad" => Built::Jad(Jad::from_triplets(t)),
            "sky" => Built::Sky(Sky::from_triplets(t)),
            "bsr" => Built::Bsr(Bsr::from_triplets(t, BLOCK.0, BLOCK.1)),
            "vbr" => {
                let even = |n: usize| (0..=n).step_by(2).collect::<Vec<usize>>();
                let (rp, cp) = discover_strips(t);
                Built::Vbr(vec![
                    Vbr::from_triplets(t, &even(m), &even(n)),
                    Vbr::from_triplets(t, &[0, m], &[0, n]),
                    Vbr::from_triplets(t, &rp, &cp),
                ])
            }
            "dcsr" => Built::Dcsr(Dcsr::from_triplets(t)),
            other => panic!("assembly.rs has no case for the layout {other:?}: add one"),
        })
        .ok()
    }

    fn images(&self) -> Vec<(Triplets<f64>, Result<(), FormatError>)> {
        match self {
            Built::Csr(a) => vec![(a.to_triplets(), a.validate())],
            Built::Csc(a) => vec![(a.to_triplets(), a.validate())],
            Built::Coo(a) => vec![(a.to_triplets(), Ok(()))],
            Built::Dia(a) => vec![(a.to_triplets(), a.validate())],
            Built::Ell(a) => vec![(a.to_triplets(), a.validate())],
            Built::Jad(a) => vec![(a.to_triplets(), a.validate())],
            Built::Sky(a) => vec![(a.to_triplets(), Ok(()))],
            Built::Bsr(a) => vec![(a.to_triplets(), a.validate())],
            Built::Vbr(all) => all
                .iter()
                .map(|a| (a.to_triplets(), a.validate()))
                .collect(),
            Built::Dcsr(a) => vec![(a.to_triplets(), a.validate())],
        }
    }
}

/// Whether the layout can hold the matrix at all.
fn holds(name: &str, nrows: usize, ncols: usize, normal: &[Entry]) -> bool {
    match name {
        "sky" => nrows == ncols && normal.iter().all(|&(r, c, _)| c <= r),
        "bsr" => nrows.is_multiple_of(BLOCK.0) && ncols.is_multiple_of(BLOCK.1),
        // Strips partition a nonempty dimension, in steps of two here.
        "vbr" => nrows > 0 && ncols > 0 && nrows.is_multiple_of(2) && ncols.is_multiple_of(2),
        _ => true,
    }
}

/// The entries of `t`, at the width of its shape.
fn entries_of(t: &Triplets<f64>) -> Vec<Entry> {
    t.entries()
        .iter()
        .map(|&(r, c, v)| (r as usize, c as usize, v))
        .collect()
}

fn bits(entries: &[Entry]) -> Vec<(usize, usize, u64)> {
    entries
        .iter()
        .map(|&(r, c, v)| (r, c, v.to_bits()))
        .collect()
}

#[test]
fn every_layout_assembles_what_sorting_assembled() {
    for case in cases() {
        let normal = normal_form(&case.pushed);
        let t = case.triplets();
        for layout in LAYOUTS {
            check(layout.name, &case, &t, &normal);
            // The registry's constructor is the same assembly.
            let registered = (layout.from_triplets)(&t, Some(BLOCK)).ok();
            if let Some(m) = registered {
                for &(r, c, v) in &normal {
                    let got = m.get(r, c);
                    assert_eq!(got.to_bits(), v.to_bits(), "{} {}", layout.name, case.what);
                }
            }
        }
    }
}

fn check(name: &str, case: &Case, t: &Triplets<f64>, normal: &[Entry]) {
    let what = format!("{name} on {}", case.what);
    let Some(built) = Built::build(name, t) else {
        assert!(
            !holds(name, case.nrows, case.ncols, normal),
            "{what}: refused"
        );
        return;
    };
    assert!(holds(name, case.nrows, case.ncols, normal), "{what}: built");
    match &built {
        Built::Csr(a) => assert_eq!(*a, reference_csr(case.nrows, case.ncols, normal), "{what}"),
        Built::Jad(a) => assert_eq!(*a, reference_jad(case.nrows, case.ncols, normal), "{what}"),
        Built::Dcsr(a) => assert_eq!(*a, reference_dcsr(case.nrows, case.ncols, normal), "{what}"),
        _ => {}
    }
    // The same matrix already in normal form builds the same instance.
    let again = Triplets::from_entries(case.nrows, case.ncols, normal);
    assert_eq!(Some(&built), Built::build(name, &again).as_ref(), "{what}");

    let fills_in = matches!(name, "dia" | "sky" | "bsr" | "vbr");
    for (image, valid) in built.images() {
        assert_eq!(valid, Ok(()), "{what}");
        assert_eq!((image.nrows(), image.ncols()), (case.nrows, case.ncols));
        let stored = entries_of(&image);
        assert!(
            stored
                .windows(2)
                .all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1)),
            "{what}: to_triplets is not in normal form: {stored:?}"
        );
        if fills_in {
            // Every entry as assembled; whatever else is stored is zero.
            let mut want = normal.iter().peekable();
            for &(r, c, v) in &stored {
                match want.next_if(|w| (w.0, w.1) == (r, c)) {
                    Some(w) => assert_eq!(v.to_bits(), w.2.to_bits(), "{what} at ({r},{c})"),
                    None => assert_eq!(v, 0.0, "{what}: fill-in at ({r},{c})"),
                }
            }
            assert_eq!(want.next(), None, "{what}: entry not stored");
        } else {
            assert_eq!(bits(&stored), bits(normal), "{what}");
        }
    }
}

/// `Triplets`' own conversions against the same reference: sorted on
/// the way in or not, they hand out the normal form.
#[test]
fn triplet_conversions_keep_the_normal_form() {
    for case in cases() {
        let normal = normal_form(&case.pushed);
        let mut t = case.triplets();

        let transposed: Vec<Entry> = case.pushed.iter().map(|&(r, c, v)| (c, r, v)).collect();
        assert_eq!(
            bits(&entries_of(&t.transposed())),
            bits(&normal_form(&transposed)),
            "transposed, {}",
            case.what
        );

        let mut lower: Vec<Entry> = case
            .pushed
            .iter()
            .copied()
            .filter(|&(r, c, _)| r >= c)
            .collect();
        for i in 0..case.nrows.min(case.ncols) {
            if !lower.iter().any(|&(r, c, _)| r == i && c == i) {
                lower.push((i, i, 1.5));
            }
        }
        assert_eq!(
            bits(&entries_of(&t.lower_triangle_full_diag(1.5))),
            bits(&normal_form(&lower)),
            "lower triangle, {}",
            case.what
        );

        for &(r, c, _) in &case.pushed {
            let first = case.pushed.iter().find(|e| (e.0, e.1) == (r, c)).unwrap();
            assert_eq!(t.get(r, c).to_bits(), first.2.to_bits(), "{}", case.what);
        }
        t.normalize();
        assert_eq!(
            bits(&entries_of(&t)),
            bits(&normal),
            "normalize, {}",
            case.what
        );
        assert_eq!(
            t,
            Triplets::from_entries(case.nrows, case.ncols, &case.pushed),
            "{}",
            case.what
        );
        for &(r, c, v) in &normal {
            assert_eq!(t.get(r, c).to_bits(), v.to_bits(), "{}", case.what);
        }
    }
}
