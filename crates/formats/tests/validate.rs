//! Structural validation of untrusted format instances: every
//! `from_triplets` product passes, every corruption a deserializer
//! could produce is caught with a typed [`FormatError`] instead of an
//! out-of-bounds panic later.

use bernoulli_formats::{AnyFormat, Csc, Csr, Dcsr, Dia, Ell, FormatError, Jad, Triplets};

fn sample() -> Triplets<f64> {
    Triplets::from_entries(
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
    )
}

fn assert_invalid(r: Result<(), FormatError>, format: &str, needle: &str) {
    match r {
        Err(FormatError::Invalid { format: f, reason }) => {
            assert_eq!(f, format);
            assert!(reason.contains(needle), "reason {reason:?} vs {needle:?}");
        }
        other => panic!("expected Invalid({format}), got {other:?}"),
    }
}

#[test]
fn constructed_formats_validate() {
    let t = sample();
    for &name in bernoulli_formats::FORMAT_NAMES {
        if name == "diagsplit" {
            continue; // square-only
        }
        let f = AnyFormat::<f64>::from_triplets(name, &t);
        f.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
    }
}

#[test]
fn csr_corruptions_are_caught() {
    let good = Csr::from_triplets(&sample());
    good.validate().unwrap();

    let mut m = good.clone();
    m.rowptr[3] = m.rowptr[2] - 1; // non-monotone
    assert_invalid(m.validate(), "csr", "decreases");

    let mut m = good.clone();
    m.colind[0] = 99; // column out of range
    assert_invalid(m.validate(), "csr", ">= ncols");

    let mut m = good.clone();
    *m.rowptr.last_mut().unwrap() += 4; // claims entries past storage
    assert_invalid(m.validate(), "csr", "storage length");

    let mut m = good.clone();
    m.rowptr.pop(); // wrong pointer count
    assert_invalid(m.validate(), "csr", "nrows + 1");

    let mut m = good;
    m.colind.swap(0, 1); // row 0 columns out of order
    assert_invalid(m.validate(), "csr", "increasing");
}

#[test]
fn dcsr_corruptions_are_caught() {
    // Row 2 of five emptied: the list skips it.
    let mut t = sample();
    t.retain_positions(|r, _| r != 2);
    let good = Dcsr::from_triplets(&t);
    assert_eq!(good.rows, vec![0, 1, 3]);
    good.validate().unwrap();

    let mut m = good.clone();
    m.rows.swap(0, 1); // unsorted row list
    assert_invalid(m.validate(), "dcsr", "strictly increasing");

    let mut m = good.clone();
    m.rows[1] = m.rows[0]; // a row listed twice
    assert_invalid(m.validate(), "dcsr", "strictly increasing");

    let mut m = good.clone();
    m.rows[2] = 4; // a row outside the matrix
    assert_invalid(m.validate(), "dcsr", ">= nrows");

    let mut m = good.clone();
    m.rowptr.pop(); // one pointer per listed row, and one
    assert_invalid(m.validate(), "dcsr", "one more than");

    let mut m = good.clone();
    m.rowptr[1] = m.rowptr[0]; // a listed row without entries
    assert_invalid(m.validate(), "dcsr", "stores no entry");

    let mut m = good;
    m.colind[0] = 99;
    assert_invalid(m.validate(), "dcsr", ">= ncols");
}

#[test]
fn csc_corruptions_are_caught() {
    let good = Csc::from_triplets(&sample());
    good.validate().unwrap();

    let mut m = good.clone();
    m.rowind[0] = 99;
    assert_invalid(m.validate(), "csc", ">= nrows");

    let mut m = good.clone();
    m.colptr[0] = 1;
    assert_invalid(m.validate(), "csc", "colptr[0]");

    let mut m = good;
    m.values.pop();
    assert_invalid(m.validate(), "csc", "mismatch");
}

#[test]
fn ell_corruptions_are_caught() {
    let good = Ell::from_triplets(&sample());
    good.validate().unwrap();

    let mut m = good.clone();
    m.rowlen[0] = m.width + 1;
    assert_invalid(m.validate(), "ell", "exceeds width");

    let mut m = good.clone();
    m.colind[0] = 99; // out-of-range column in a filled slot
    assert_invalid(m.validate(), "ell", "out of range");

    let mut m = good.clone();
    // Row 1 stores one entry of width 2: its padding slot must be PAD.
    let base = m.width; // row 1's slab starts at 1 * width
    assert_eq!(m.rowlen[1], 1);
    m.colind[base + 1] = 3;
    assert_invalid(m.validate(), "ell", "pad sentinel");

    let mut m = good;
    m.values.pop();
    assert_invalid(m.validate(), "ell", "slots");
}

#[test]
fn jad_corruptions_are_caught() {
    let good = Jad::from_triplets(&sample());
    good.validate().unwrap();

    let mut m = good.clone();
    m.iperm[0] = m.iperm[1]; // not a permutation
    assert_invalid(m.validate(), "jad", "inverse");

    let mut m = good.clone();
    m.rowlen.swap(0, m.nrows - 1); // jagged property broken
    assert_invalid(m.validate(), "jad", "increases");

    let mut m = good.clone();
    m.colind[0] = 99;
    assert_invalid(m.validate(), "jad", ">= ncols");

    let mut m = good;
    m.dptr[1] += 1; // strip length disagrees with rowlen
    assert_invalid(m.validate(), "jad", "disagrees");
}

#[test]
fn dia_corruptions_are_caught() {
    let good = Dia::from_triplets(&sample());
    good.validate().unwrap();

    let mut m = good.clone();
    m.diags[1] = m.diags[0]; // duplicate diagonal
    assert_invalid(m.validate(), "dia", "strictly increasing");

    let mut m = good.clone();
    m.lo[0] += 1; // extent disagrees with the shape
    assert_invalid(m.validate(), "dia", "extent");

    let mut m = good.clone();
    m.values.pop();
    assert_invalid(m.validate(), "dia", "values");

    let mut m = good;
    m.diags[0] = -100; // diagonal entirely outside the matrix
    assert_invalid(m.validate(), "dia", "outside");
}

#[test]
fn triplet_builder_rejects_untrusted_coordinates() {
    let mut t = Triplets::<f64>::new(2, 2);
    t.try_push(1, 1, 5.0).unwrap();
    match t.try_push(2, 0, 1.0) {
        Err(FormatError::EntryOutOfRange { r: 2, c: 0, .. }) => {}
        other => panic!("expected EntryOutOfRange, got {other:?}"),
    }
    // The failed push must not have corrupted the builder.
    assert_eq!(t.nnz(), 1);

    let e = Triplets::<f64>::try_from_entries(2, 2, &[(0, 0, 1.0), (0, 5, 2.0)]).unwrap_err();
    assert!(e.to_string().contains("out of range"), "{e}");
}
