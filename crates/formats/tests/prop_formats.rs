//! Property tests: every format round-trips through triplets, agrees with
//! every other format on random access, and enumerates exactly its stored
//! entries via its declared view (DESIGN.md property P2). Random access is
//! held for every registered layout, whose dense API `stored_layout!`
//! derives, built through the registry at a given block shape and at the
//! one discovery finds, and for the two host matrix views; so are the
//! derived `validate` (it accepts what `from_triplets` built) and
//! `to_triplets` (`from_triplets` builds from it what it came from).

use bernoulli_formats::cursor::check_view_conformance;
use bernoulli_formats::layout::Block;
use bernoulli_formats::{
    Bsr, Coo, Csc, Csr, Dcsr, Dense, Dia, DiagSplit, Ell, FormatError, Jad, Sky, SparseView,
    Triplets, Vbr, LAYOUTS,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// Random square matrix as a set of distinct entries.
fn arb_matrix(n: usize, max_nnz: usize) -> impl Strategy<Value = Triplets<f64>> {
    proptest::collection::btree_set((0..n, 0..n), 0..=max_nnz).prop_map(move |pos| {
        let entries: Vec<(usize, usize, f64)> = pos
            .into_iter()
            .enumerate()
            .map(|(k, (r, c))| (r, c, (k as f64 + 1.0) * 0.5))
            .collect();
        Triplets::from_entries(n, n, &entries)
    })
}

/// Every registered layout's instance of `t` at `block` (at the shape
/// discovery finds for `None`), with the matrix it holds: `t`, or for
/// Sky, which holds a lower triangle, `t`'s with its diagonal filled.
fn layouts(
    t: &Triplets<f64>,
    block: Option<Block>,
) -> Vec<(&'static str, Triplets<f64>, Box<dyn SparseView>)> {
    LAYOUTS
        .iter()
        .map(|layout| {
            let held = match layout.name {
                "sky" => t.lower_triangle_full_diag(1.0),
                _ => t.clone(),
            };
            let m = (layout.from_triplets)(&held, block);
            let m = m.unwrap_or_else(|e| panic!("{}: {e}", layout.name));
            (layout.name, held, m as Box<dyn SparseView>)
        })
        .collect()
}

/// The formats of `t` under every name: the registered layouts at the
/// shapes discovery finds and at 2×2, and the two host matrix views.
fn every_format(t: &Triplets<f64>) -> Vec<(&'static str, Triplets<f64>, Box<dyn SparseView>)> {
    let mut all = layouts(t, None);
    all.extend(layouts(t, Some((2, 2))));
    all.push(("dense", t.clone(), Box::new(Dense::from_triplets(t))));
    all.push((
        "diagsplit",
        t.clone(),
        Box::new(DiagSplit::from_triplets(t)),
    ));
    all
}

/// The dense API of `m` against the matrix it holds: `get` reads `t` at
/// every position, `nnz` counts the entries, and every entry's value is
/// what `get` reads there; a position no entry names reads 0.
fn dense_api_agrees(name: &str, m: &dyn SparseView, t: &Triplets<f64>) {
    let entries = m.entries();
    assert_eq!(m.nnz(), entries.len(), "{}", name);
    let named: HashMap<(usize, usize), f64> =
        entries.iter().map(|&(r, c, v)| ((r, c), v)).collect();
    for &(r, c, v) in &entries {
        assert_eq!(m.get(r, c), v, "{} entry ({},{})", name, r, c);
    }
    for r in 0..t.nrows() {
        for c in 0..t.ncols() {
            let get = m.get(r, c);
            assert_eq!(get, t.get(r, c), "{} at ({},{})", name, r, c);
            if !named.contains_key(&(r, c)) {
                assert_eq!(get, 0.0, "{} unnamed ({},{})", name, r, c);
            }
        }
    }
}

/// Every registered layout, built from `t` at block shape 2×2 (Sky from
/// `t`'s lower triangle with its diagonal filled): what its `validate`
/// says, and whether `from_triplets` of its `to_triplets` is the same
/// instance.
fn derived(t: &Triplets<f64>) -> Vec<(&'static str, Result<(), FormatError>, bool)> {
    macro_rules! each {
        ($($name:literal: $m:expr, |$u:ident| $build:expr;)+) => {
            vec![$({
                let m = $m;
                let $u = &m.to_triplets();
                ($name, m.validate(), $build == m)
            }),+]
        };
    }
    let (even, lower) = ([0, 2, 4, 6, 8], t.lower_triangle_full_diag(1.0));
    let rows = each! {
        "csr": Csr::from_triplets(t), |u| Csr::from_triplets(u);
        "csc": Csc::from_triplets(t), |u| Csc::from_triplets(u);
        "coo": Coo::from_triplets(t), |u| Coo::from_triplets(u);
        "dia": Dia::from_triplets(t), |u| Dia::from_triplets(u);
        "ell": Ell::from_triplets(t), |u| Ell::from_triplets(u);
        "jad": Jad::from_triplets(t), |u| Jad::from_triplets(u);
        "sky": Sky::from_triplets(&lower), |u| Sky::from_triplets(u);
        "bsr": Bsr::from_triplets(t, 2, 2), |u| Bsr::from_triplets(u, 2, 2);
        "vbr": Vbr::from_triplets(t, &even, &even), |u| Vbr::from_triplets(u, &even, &even);
        "dcsr": Dcsr::from_triplets(t), |u| Dcsr::from_triplets(u);
    };
    assert_eq!(rows.len(), LAYOUTS.len());
    rows
}

/// Every alternative of `m`'s view enumerates exactly its stored entries.
fn conforms(name: &str, m: &dyn SparseView) {
    for alt in 0..m.format_view().alternatives().len() {
        let conformance = check_view_conformance(m, alt);
        assert_eq!(conformance, Ok(()), "{name} alternative {alt}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn formats_agree_on_random_access(t in arb_matrix(8, 24)) {
        for (name, held, m) in every_format(&t) {
            dense_api_agrees(name, &*m, &held);
        }
    }

    // 8 × 8, so that 2 × 2 blocks cut it.
    #[test]
    fn all_views_conform(t in arb_matrix(8, 20)) {
        for (name, _, m) in every_format(&t) {
            conforms(name, &*m);
            prop_assert_eq!(m.validate(), Ok(()), "{}", name);
        }
        for (name, valid, same) in derived(&t) {
            prop_assert_eq!(valid, Ok(()), "{}", name);
            prop_assert!(same, "{}: from_triplets(to_triplets(m)) != m", name);
        }
    }

    #[test]
    fn triplet_roundtrip_preserves_values(t in arb_matrix(6, 18)) {
        for (name, held, m) in every_format(&t) {
            let back = m.to_triplets();
            for r in 0..6 {
                for c in 0..6 {
                    prop_assert_eq!(back.get(r, c), held.get(r, c), "{}", name);
                }
            }
        }
    }

    #[test]
    fn matrix_market_roundtrip(t in arb_matrix(9, 30)) {
        let mut buf = Vec::new();
        bernoulli_formats::io::write_matrix_market(&t, &mut buf).unwrap();
        let back = bernoulli_formats::io::read_matrix_market(std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(back, t);
    }
}

/// JAD with many equal-fill rows still lays out deterministically and
/// conforms — a regression guard for the stable-sort requirement.
#[test]
fn jad_equal_fill_rows() {
    let mut t = Triplets::new(6, 6);
    for i in 0..6usize {
        t.push(i, i, 1.0 + i as f64);
    }
    t.normalize();
    let a = bernoulli_formats::Jad::from_triplets(&t);
    assert_eq!(a.iperm, vec![0, 1, 2, 3, 4, 5]);
    check_view_conformance(&a, 0).unwrap();
    check_view_conformance(&a, 1).unwrap();
}

/// The generators produce matrices all formats can hold.
#[test]
fn generators_feed_all_formats() {
    use bernoulli_formats::gen;
    let inputs = [
        gen::tridiagonal(12),
        gen::poisson2d(4),
        gen::banded(10, 2, 5),
        gen::random_sparse(10, 10, 25, 5),
    ];
    for t in &inputs {
        for (name, held, m) in every_format(t) {
            assert_eq!(m.get(1, 1), held.get(1, 1), "{name}");
        }
    }
}
