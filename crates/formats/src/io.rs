//! Matrix Market exchange-format IO (coordinate, real, general/symmetric).
//!
//! The paper's experiments use `can_1072` from the Harwell–Boeing
//! collection, distributed today through Matrix Market \[15\]. We implement
//! the coordinate subset of the format so real collection files can be
//! loaded when available; the benchmark harness falls back to the
//! synthetic [`crate::gen::can_1072_like`] generator otherwise (see
//! DESIGN.md, substitution 1).

use crate::{FormatError, Triplets};
use std::io::{BufRead, Write};

/// Error type for Matrix Market parsing.
#[derive(Debug, PartialEq, Eq)]
pub enum MmError {
    /// The stream is not the coordinate Matrix Market this reader takes.
    Syntax(String),
    /// The size line declares a matrix no format can index
    /// ([`FormatError::IndexLimit`]).
    Format(FormatError),
}

impl std::fmt::Display for MmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MmError::Syntax(msg) => write!(f, "matrix market error: {msg}"),
            MmError::Format(e) => write!(f, "matrix market error: {e}"),
        }
    }
}

impl std::error::Error for MmError {}

fn err(msg: impl Into<String>) -> MmError {
    MmError::Syntax(msg.into())
}

/// Reads a coordinate-format Matrix Market stream.
///
/// Supports `%%MatrixMarket matrix coordinate real|integer|pattern
/// general|symmetric`. Pattern entries get value 1.0; symmetric matrices
/// are expanded to full storage. A size line above the index limit of
/// the formats is refused before any entry is read.
pub fn read_matrix_market(reader: impl BufRead) -> Result<Triplets<f64>, MmError> {
    let mut lines = reader.lines();
    let header = lines
        .next()
        .ok_or_else(|| err("empty input"))?
        .map_err(|e| err(e.to_string()))?;
    let fields: Vec<String> = header
        .split_whitespace()
        .map(|s| s.to_lowercase())
        .collect();
    if fields.len() < 5 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
        return Err(err(format!("bad header: {header}")));
    }
    if fields[2] != "coordinate" {
        return Err(err(format!("unsupported storage {}", fields[2])));
    }
    let value_kind = fields[3].as_str();
    if !matches!(value_kind, "real" | "integer" | "pattern") {
        return Err(err(format!("unsupported value type {value_kind}")));
    }
    let symmetric = match fields[4].as_str() {
        "general" => false,
        "symmetric" => true,
        other => return Err(err(format!("unsupported symmetry {other}"))),
    };

    // Skip comments, read the size line.
    let mut size_line = None;
    for line in lines.by_ref() {
        let line = line.map_err(|e| err(e.to_string()))?;
        let t = line.trim();
        if t.is_empty() || t.starts_with('%') {
            continue;
        }
        size_line = Some(t.to_string());
        break;
    }
    let size_line = size_line.ok_or_else(|| err("missing size line"))?;
    let dims: Vec<usize> = size_line
        .split_whitespace()
        .map(|x| {
            x.parse()
                .map_err(|_| err(format!("bad size line: {size_line}")))
        })
        .collect::<Result<_, _>>()?;
    if dims.len() != 3 {
        return Err(err(format!("bad size line: {size_line}")));
    }
    let (nrows, ncols, nnz) = (dims[0], dims[1], dims[2]);
    crate::layout::check_index_limit(nrows, ncols, nnz).map_err(MmError::Format)?;

    let mut t = Triplets::new(nrows, ncols);
    let mut count = 0usize;
    for line in lines {
        let line = line.map_err(|e| err(e.to_string()))?;
        let s = line.trim();
        if s.is_empty() || s.starts_with('%') {
            continue;
        }
        let parts: Vec<&str> = s.split_whitespace().collect();
        let need = if value_kind == "pattern" { 2 } else { 3 };
        if parts.len() < need {
            return Err(err(format!("bad entry line: {s}")));
        }
        let r: usize = parts[0]
            .parse::<usize>()
            .map_err(|_| err(format!("bad row index: {s}")))?;
        let c: usize = parts[1]
            .parse::<usize>()
            .map_err(|_| err(format!("bad col index: {s}")))?;
        if r == 0 || c == 0 {
            return Err(err(format!("index out of range (1-based): {s}")));
        }
        let v: f64 = if value_kind == "pattern" {
            1.0
        } else {
            parts[2]
                .parse()
                .map_err(|_| err(format!("bad value: {s}")))?
        };
        // `try_push` range-checks against the declared shape, so a lying
        // size line surfaces as a typed error, never a panic downstream.
        t.try_push(r - 1, c - 1, v)
            .map_err(|e| err(format!("{e}: {s}")))?;
        if symmetric && r != c {
            t.try_push(c - 1, r - 1, v)
                .map_err(|e| err(format!("{e}: {s}")))?;
        }
        count += 1;
    }
    if count != nnz {
        return Err(err(format!("expected {nnz} entries, found {count}")));
    }
    t.normalize();
    Ok(t)
}

/// Writes a coordinate-format `general real` Matrix Market stream.
pub fn write_matrix_market(t: &Triplets<f64>, mut w: impl Write) -> std::io::Result<()> {
    writeln!(w, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(w, "% generated by bernoulli-rs")?;
    writeln!(w, "{} {} {}", t.nrows(), t.ncols(), t.nnz())?;
    for &(r, c, v) in t.entries() {
        writeln!(w, "{} {} {:.17e}", r as usize + 1, c as usize + 1, v)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn roundtrip() {
        let t = Triplets::from_entries(3, 2, &[(0, 0, 1.5), (2, 1, -2.25)]);
        let mut buf = Vec::new();
        write_matrix_market(&t, &mut buf).unwrap();
        let back = read_matrix_market(Cursor::new(buf)).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn parses_symmetric() {
        let src = "%%MatrixMarket matrix coordinate real symmetric\n\
                   % comment\n\
                   3 3 2\n\
                   1 1 2.0\n\
                   3 1 5.0\n";
        let t = read_matrix_market(Cursor::new(src)).unwrap();
        assert_eq!(t.get(0, 0), 2.0);
        assert_eq!(t.get(2, 0), 5.0);
        assert_eq!(t.get(0, 2), 5.0); // mirrored
        assert_eq!(t.nnz(), 3);
    }

    #[test]
    fn parses_pattern() {
        let src = "%%MatrixMarket matrix coordinate pattern general\n\
                   2 2 1\n\
                   2 1\n";
        let t = read_matrix_market(Cursor::new(src)).unwrap();
        assert_eq!(t.get(1, 0), 1.0);
    }

    #[test]
    fn rejects_bad_header() {
        assert!(read_matrix_market(Cursor::new("%%NotMM\n1 1 0\n")).is_err());
        assert!(
            read_matrix_market(Cursor::new("%%MatrixMarket matrix array real general\n")).is_err()
        );
    }

    #[test]
    fn rejects_count_mismatch() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        let e = read_matrix_market(Cursor::new(src)).unwrap_err();
        assert!(e.to_string().contains("expected 2"));
    }

    #[test]
    fn rejects_out_of_range() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_matrix_market(Cursor::new(src)).is_err());
    }
}
