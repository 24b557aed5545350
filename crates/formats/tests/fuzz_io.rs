//! Fuzzing the Matrix Market reader: arbitrary bytes and structured
//! token soup must produce `Ok` or a typed `MmError` — never a panic,
//! never an out-of-range `Triplets` entry.

use bernoulli_formats::io::read_matrix_market;
use proptest::prelude::*;
use std::io::Cursor;

/// Tokens that steer generated inputs past the early header checks so
/// the deeper parsing paths (size line, entries, symmetry expansion)
/// get fuzzed too, plus junk that must bounce off them.
const TOKENS: &[&str] = &[
    "%%MatrixMarket",
    "matrix",
    "coordinate",
    "real",
    "integer",
    "pattern",
    "general",
    "symmetric",
    "%",
    "% comment",
    "0",
    "1",
    "2",
    "3",
    "17",
    "-1",
    "4294967297",
    "99999999999999999999",
    "1.5",
    "-2.5e300",
    "nan",
    "inf",
    "x",
    "",
    " ",
    "\t",
];

fn token_soup() -> impl Strategy<Value = String> {
    proptest::collection::vec((0usize..TOKENS.len(), 0u8..4), 0..40).prop_map(|picks| {
        let mut s = String::new();
        for (t, sep) in picks {
            s.push_str(TOKENS[t]);
            s.push(match sep {
                0 => ' ',
                1 => '\n',
                2 => '\t',
                _ => ' ',
            });
        }
        s
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes never panic the reader.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(0u8..=255, 0..300)) {
        let _ = read_matrix_market(Cursor::new(bytes));
    }

    /// Token soup (valid-ish headers with garbage bodies) never panics,
    /// and anything accepted satisfies the declared shape.
    #[test]
    fn token_soup_never_panics(src in token_soup()) {
        if let Ok(t) = read_matrix_market(Cursor::new(src.into_bytes())) {
            for &(r, c, _) in t.entries() {
                prop_assert!((r as usize) < t.nrows() && (c as usize) < t.ncols());
            }
        }
    }

    /// A well-formed prefix with a corrupted entry section: still no
    /// panic, and the reader's verdict is a typed error or a conforming
    /// matrix.
    #[test]
    fn corrupted_entries_never_panic(
        nrows in 0usize..6,
        ncols in 0usize..6,
        nnz in 0usize..9,
        body in token_soup(),
    ) {
        let src = format!(
            "%%MatrixMarket matrix coordinate real general\n{nrows} {ncols} {nnz}\n{body}"
        );
        if let Ok(t) = read_matrix_market(Cursor::new(src.into_bytes())) {
            prop_assert_eq!(t.nrows(), nrows);
            prop_assert_eq!(t.ncols(), ncols);
        }
    }
}
