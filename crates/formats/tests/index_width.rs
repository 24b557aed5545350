//! Every index array is `u32`, declared once per layout: what a layout
//! weighs is read off that declaration, and the limit it sets is refused
//! where a matrix comes in — before anything is allocated — never
//! wrapped past.

use bernoulli_formats::io::{read_matrix_market, MmError};
use bernoulli_formats::layout::{Elem, INDEX_LIMIT};
use bernoulli_formats::{
    gen, Csr, Dcsr, FormatError, Layout, SparseMatrix, SparseView, Stored, Triplets, HOST_LEVELS,
    LAYOUTS,
};
use std::io::Cursor;

const PAST: usize = u32::MAX as usize + 1;

#[test]
fn every_unsigned_index_array_is_u32() {
    assert_eq!(INDEX_LIMIT, u32::MAX as usize);
    let signed = ["dia.diags", "dia.lo", "dia.hi", "ell.colind"];
    for levels in LAYOUTS.iter().map(|l| l.levels).chain(HOST_LEVELS) {
        for &(array, elem) in levels.arrays {
            let name = format!("{}.{array}", levels.name);
            match elem {
                Elem::U32 => assert!(!signed.contains(&name.as_str()), "{name}"),
                Elem::I64 => assert!(signed.contains(&name.as_str()), "{name}"),
                Elem::F64 => {}
            }
        }
    }
}

/// Bytes per stored entry of the walk of chain 0, and of the stored
/// image: the gate against an index array widened by accident.
#[test]
fn a_layout_says_what_it_weighs() {
    let weights: Vec<(&str, usize)> = LAYOUTS
        .iter()
        .map(|l| l.levels)
        .chain(HOST_LEVELS)
        .map(|l| (l.name, l.bytes_per_entry()))
        .collect();
    assert_eq!(
        weights,
        [
            // A value and a four-byte key: the 12 B of the NIST C kernels.
            ("csr", 12),
            ("csc", 12),
            ("coo", 16),
            // Positions follow from the diagonal, strip or block: no key
            // per entry.
            ("dia", 8),
            // Padded columns stay signed.
            ("ell", 16),
            ("jad", 12),
            ("sky", 8),
            ("bsr", 8),
            ("vbr", 8),
            ("dcsr", 12),
            ("dense", 8),
            ("diagsplit", 8),
            ("spvec", 12),
            ("hashvec", 12),
        ]
    );

    let t = gen::can_1072_like();
    let (rows, nnz) = (t.nrows(), t.nnz());
    // The normal form every layout is built from: two four-byte
    // coordinates and a value.
    assert_eq!(std::mem::size_of_val(t.entries()), 16 * t.nnz());
    let csr = Csr::from_triplets(&t);
    assert_eq!(csr.image_bytes(), 8 * nnz + 4 * (nnz + rows + 1));
    let jad = bernoulli_formats::Jad::from_triplets(&t);
    assert_eq!(
        jad.image_bytes(),
        8 * nnz + 4 * (3 * rows + jad.ndiags() + 1 + nnz)
    );
    // The sum over the parts, whatever the layout.
    let lower = t.lower_triangle_full_diag(1.0);
    for layout in LAYOUTS {
        let m = (layout.from_triplets)(&lower, Some((2, 2))).unwrap();
        let (mut dims, mut arrays) = (Vec::new(), Vec::new());
        m.parts(&mut dims, &mut arrays);
        let widths = layout.arrays.iter().map(|&(_, e)| e.width());
        let bytes: usize = arrays.iter().zip(widths).map(|(a, w)| a.len * w).sum();
        assert_eq!(m.image_bytes(), bytes, "{}", layout.name);
    }
}

#[test]
#[should_panic(expected = "exceeds the u32 index limit")]
fn a_matrix_past_the_limit_is_refused_before_it_is_allocated() {
    // 16 GiB of row pointers, were they allocated.
    let _ = Csr::from_triplets(&Triplets::<f64>::new(PAST, 1));
}

/// A coordinate is narrowed to `u32` where it comes in: one past
/// `u32::MAX` is refused there, typed, not at a later assembly.
#[test]
fn a_coordinate_past_the_limit_is_refused_where_it_comes_in() {
    let last = u32::MAX as usize;
    for (nrows, ncols) in [(PAST, 1), (PAST + 1, 1), (1, PAST)] {
        let at = |k: usize| if nrows == 1 { (0, k) } else { (k, 0) };
        let ((r, c), (pr, pc)) = (at(last), at(PAST));
        let refused = FormatError::IndexLimit {
            nrows,
            ncols,
            stored: 1,
        };
        let mut t = Triplets::<f64>::new(nrows, ncols);
        assert_eq!(t.try_push(r, c, 1.0), Ok(()), "{nrows}x{ncols}");
        assert_eq!(
            t.try_push(pr, pc, 1.0),
            Err(refused.clone()),
            "{nrows}x{ncols}"
        );
        assert_eq!(t.entries(), &[(r as u32, c as u32, 1.0)]);
        let read = Triplets::try_from_entries(nrows, ncols, &[(r, c, 1.0)]);
        assert_eq!(read.as_ref().map(Triplets::entries), Ok(t.entries()));
        let read = Triplets::try_from_entries(nrows, ncols, &[(r, c, 1.0), (pr, pc, 1.0)]);
        assert_eq!(read.err(), Some(refused), "{nrows}x{ncols}");
    }
    // Inside the limit such a coordinate is out of range, as any other.
    let e = Triplets::<f64>::new(3, 3).try_push(PAST, 0, 1.0);
    let want = FormatError::EntryOutOfRange {
        r: PAST,
        c: 0,
        nrows: 3,
        ncols: 3,
    };
    assert_eq!(e, Err(want));
}

#[test]
fn every_format_refuses_it_typed() {
    for (nrows, ncols) in [(PAST, 1), (1, PAST)] {
        let t = Triplets::<f64>::new(nrows, ncols);
        for layout in LAYOUTS {
            let e = (layout.from_triplets)(&t, None).map(|_| ());
            let want = FormatError::IndexLimit {
                nrows,
                ncols,
                stored: 0,
            };
            assert_eq!(e, Err(want), "{} at {nrows}x{ncols}", layout.name);
        }
    }
}

/// Fill a layout stores beside the entries, past the limit: refused
/// typed once it is counted, before the cells are allocated (80 GB and
/// more of them here).
#[test]
fn fill_past_the_limit_is_refused_typed() -> Result<(), FormatError> {
    // DIA: 30 000 entries down column 0, each on a diagonal of its own,
    // every diagonal stored in full: about 10^10 cells.
    let (n, k) = (400_000, 30_000);
    let column: Vec<_> = (0..k).map(|i| (i, 0, 1.0)).collect();
    let t = Triplets::from_entries(n, n, &column);
    let stored = (0..k).map(|i| n - i).sum();
    let e = (Layout::named("dia")?.from_triplets)(&t, None).map(|_| ());
    assert_eq!(
        e,
        Err(FormatError::IndexLimit {
            nrows: n,
            ncols: n,
            stored
        })
    );
    // Skyline: every row of a 100 000-order matrix reaches column 0.
    let n = 100_000;
    let column: Vec<_> = (0..n).map(|i| (i, 0, 1.0)).collect();
    let t = Triplets::from_entries(n, n, &column);
    let e = (Layout::named("sky")?.from_triplets)(&t, None).map(|_| ());
    let stored = n * (n + 1) / 2;
    assert_eq!(
        e,
        Err(FormatError::IndexLimit {
            nrows: n,
            ncols: n,
            stored
        })
    );
    // VBR: two entries in one 70 000 × 70 000 block.
    let n = 70_000;
    let t = Triplets::from_entries(n, n, &[(0, 0, 1.0), (n - 1, n - 1, 2.0)]);
    let e = (Layout::named("vbr")?.from_triplets)(&t, Some((n, n))).map(|_| ());
    assert_eq!(
        e,
        Err(FormatError::IndexLimit {
            nrows: n,
            ncols: n,
            stored: n * n
        })
    );
    Ok(())
}

/// A hypersparse matrix — a handful of entries among `u32::MAX` rows —
/// costs DCSR what its entries cost: the rows it lists are noted as the
/// entries pass, with no table over every row (16 GiB here, were it
/// allocated).
#[test]
fn dcsr_of_a_hypersparse_matrix_costs_what_its_entries_cost() -> Result<(), FormatError> {
    let keys = [0, 7, 1 << 31, u32::MAX as usize - 1];
    let down: Vec<_> = keys.iter().map(|&r| (r, 0, r as f64 + 1.0)).collect();
    let t = Triplets::from_entries(u32::MAX as usize, 1, &down);
    let a = Dcsr::from_triplets(&t);
    assert_eq!(a.rows, keys.map(|r| r as u32));
    assert_eq!(a.rowptr, [0, 1, 2, 3, 4]);
    let m = (Layout::named("dcsr")?.from_triplets)(&t, None)?;
    for &(r, c, v) in &down {
        assert_eq!(m.get(r, c), v);
    }
    assert_eq!(m.get(8, 0), 0.0);
    Ok(())
}

#[test]
fn a_matrix_market_header_past_the_limit_is_a_typed_error() {
    let huge = PAST;
    for (nrows, ncols, entries) in [(huge, 3, 0), (3, huge, 0), (3, 3, huge)] {
        // The size line alone: the reader refuses before any entry.
        let src =
            format!("%%MatrixMarket matrix coordinate real general\n{nrows} {ncols} {entries}\n");
        let e = read_matrix_market(Cursor::new(src));
        let want = FormatError::IndexLimit {
            nrows,
            ncols,
            stored: entries,
        };
        assert_eq!(e, Err(MmError::Format(want)));
    }
    // At the limit, the header is read.
    let src = format!(
        "%%MatrixMarket matrix coordinate real general\n{} 1 0\n",
        u32::MAX
    );
    let t = read_matrix_market(Cursor::new(src)).expect("a header at the limit");
    assert_eq!(t.nrows(), u32::MAX as usize);
}

#[test]
fn a_key_past_u32_max_finds_nothing() {
    // Column 0 of every row: `c as u32` would map 2^32 onto it.
    let t = Triplets::from_entries(3, 3, &[(0, 0, 1.0), (1, 0, 2.0), (2, 0, 3.0)]);
    let a = Csr::from_triplets(&t);
    for r in 0..3 {
        assert_eq!(a.find(r, 0), Some(r));
        assert_eq!(a.find(r, PAST), None, "row {r}");
        assert_eq!(a.get(r, PAST), 0.0, "row {r}");
    }
    for layout in LAYOUTS {
        let m = (layout.from_triplets)(&t, Some((1, 1))).unwrap();
        for r in 0..3 {
            assert_eq!(m.get(r, 0), 1.0 + r as f64, "{}", layout.name);
            assert_eq!(m.get(r, PAST), 0.0, "{} ({r}, 2^32)", layout.name);
            assert_eq!(m.get(PAST + r, 0), 0.0, "{} (2^32 + {r}, 0)", layout.name);
        }
    }
}
