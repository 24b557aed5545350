//! What the format layer refuses, and why.
//!
//! Any-to-any conversion goes through [`Triplets`](crate::Triplets): a
//! format's `to_triplets` is the walk of its levels, and every registered
//! layout is assembled from the normal form by the crate's one assembler,
//! reached by name through [`Layout::named`](crate::Layout::named).

/// Errors a caller can trigger through the format layer: asking for a
/// format this build doesn't know, converting into a format whose
/// structural constraints the matrix violates, or presenting a view
/// that fails runtime conformance checking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FormatError {
    /// No registered layout of this name ([`LAYOUTS`](crate::LAYOUTS)).
    UnknownFormat { name: String },
    /// The format requires a square matrix (e.g. `sky`, `diagsplit`).
    NotSquare {
        format: &'static str,
        nrows: usize,
        ncols: usize,
    },
    /// A view failed runtime conformance checking
    /// ([`check_view_conformance`](crate::cursor::check_view_conformance)).
    Nonconforming(String),
    /// An entry coordinate outside the matrix shape (builder input).
    EntryOutOfRange {
        r: usize,
        c: usize,
        nrows: usize,
        ncols: usize,
    },
    /// A format instance whose arrays are not what its levels and view
    /// describe (each format's `validate`, derived from them) — the typed
    /// verdict for untrusted data that would otherwise surface as an
    /// out-of-bounds panic deep inside a kernel.
    Invalid {
        format: &'static str,
        reason: String,
    },
    /// A dimension or stored count above
    /// [`INDEX_LIMIT`](crate::layout::INDEX_LIMIT): more than the `u32`
    /// index arrays of a format can address. Also a coordinate past
    /// `u32::MAX` pushed into such a [`Triplets`](crate::Triplets),
    /// whose entries are `u32` too.
    IndexLimit {
        nrows: usize,
        ncols: usize,
        stored: usize,
    },
    /// A matrix a layout cannot hold, whatever its size: entries outside
    /// the profile it stores (a skyline's upper triangle), a block shape
    /// that does not cut it, strips that are no partition of it.
    Unfit {
        format: &'static str,
        reason: String,
    },
    /// A view's text that does not read
    /// ([`FormatView::read`](crate::view::FormatView::read)): the byte
    /// at which the reader stopped, and what it expected there.
    ViewText {
        offset: usize,
        expected: &'static str,
    },
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::UnknownFormat { name } => {
                let known: Vec<&str> = crate::LAYOUTS.iter().map(|l| l.name).collect();
                write!(f, "unknown format {name:?} (known: {})", known.join(", "))
            }
            FormatError::NotSquare {
                format,
                nrows,
                ncols,
            } => write!(
                f,
                "format {format:?} requires a square matrix, got {nrows}x{ncols}"
            ),
            FormatError::Nonconforming(msg) => write!(f, "nonconforming view: {msg}"),
            FormatError::EntryOutOfRange { r, c, nrows, ncols } => {
                write!(f, "entry ({r},{c}) out of range for {nrows}x{ncols} matrix")
            }
            FormatError::Invalid { format, reason } => {
                write!(f, "invalid {format} matrix: {reason}")
            }
            FormatError::IndexLimit {
                nrows,
                ncols,
                stored,
            } => write!(
                f,
                "a {nrows}x{ncols} matrix storing {stored} entries exceeds the u32 index limit {}",
                crate::layout::INDEX_LIMIT
            ),
            FormatError::Unfit { format, reason } => {
                write!(f, "a {format} matrix cannot hold this one: {reason}")
            }
            FormatError::ViewText { offset, expected } => {
                write!(f, "view text, byte {offset}: expected {expected}")
            }
        }
    }
}

impl std::error::Error for FormatError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Dense, DiagSplit, Layout, SparseView, Triplets, LAYOUTS};

    /// One entry above the diagonal, which every format but the skyline
    /// holds.
    fn sample() -> Triplets<f64> {
        let entries = [
            (0, 0, 2.0),
            (1, 1, 3.0),
            (2, 2, 4.0),
            (3, 3, 5.0),
            (1, 0, -1.0),
            (3, 1, 6.0),
            (0, 2, 7.0),
        ];
        Triplets::from_entries(4, 4, &entries)
    }

    /// A format's instance, and the matrix it was built from.
    type Built = (Box<dyn SparseView>, Triplets<f64>);

    /// Every registered layout by name, at the shape discovery finds,
    /// and the two host matrix views by their own constructors, each
    /// with the matrix it is built from: the skyline's is the lower
    /// triangle, its diagonal full.
    fn every_format(t: &Triplets<f64>) -> Result<Vec<Built>, FormatError> {
        let mut all: Vec<Built> = Vec::new();
        for layout in LAYOUTS {
            let t = if layout.name == "sky" {
                t.lower_triangle_full_diag(1.0)
            } else {
                t.clone()
            };
            let m = (Layout::named(layout.name)?.from_triplets)(&t, None)?;
            assert_eq!(m.layout().name, layout.name);
            all.push((m, t));
        }
        all.push((Box::new(Dense::from_triplets(t)), t.clone()));
        all.push((Box::new(DiagSplit::from_triplets(t)), t.clone()));
        Ok(all)
    }

    #[test]
    fn all_formats_roundtrip_values() -> Result<(), FormatError> {
        for (f, t) in every_format(&sample())? {
            let name = f.levels().name;
            assert_eq!(f.validate(), Ok(()), "{name}");
            // DIA, Sky and DiagSplit add structural zeros; compare by value.
            let back = f.to_triplets();
            for r in 0..4 {
                for c in 0..4 {
                    assert_eq!(back.get(r, c), t.get(r, c), "{name} ({r},{c})");
                }
            }
        }
        Ok(())
    }

    #[test]
    fn cross_format_random_access_agrees() -> Result<(), FormatError> {
        let formats = every_format(&sample())?;
        assert!(formats.iter().filter(|(_, t)| t.get(0, 2) == 7.0).count() >= 10);
        for r in 0..4 {
            for c in 0..4 {
                for (f, t) in &formats {
                    let name = f.levels().name;
                    assert_eq!(f.get(r, c), t.get(r, c), "{name} ({r},{c})");
                }
            }
        }
        Ok(())
    }

    #[test]
    fn an_unknown_name_lists_the_registry() {
        let e = Layout::named("bcrs").map(|l| l.name);
        let name = "bcrs".to_string();
        assert_eq!(e, Err(FormatError::UnknownFormat { name }));
        let known: Vec<&str> = LAYOUTS.iter().map(|l| l.name).collect();
        let message = e.map_or_else(|e| e.to_string(), str::to_string);
        assert!(
            message.ends_with(&format!("(known: {})", known.join(", "))),
            "{message}"
        );
        for host in ["dense", "diagsplit"] {
            assert!(Layout::named(host).is_err(), "{host}");
        }
    }

    /// What the registry refuses, it refuses typed: no panic.
    #[test]
    fn from_triplets_reports_typed_errors() -> Result<(), FormatError> {
        let build = |name: &str, t: &Triplets<f64>, block| {
            let m = (Layout::named(name)?.from_triplets)(t, block);
            m.map(|m| m.layout().name)
        };
        let rect = Triplets::from_entries(2, 3, &[(0, 0, 1.0)]);
        let (nrows, ncols) = (2, 3);
        let format = "sky";
        assert_eq!(
            build("sky", &rect, None),
            Err(FormatError::NotSquare {
                format,
                nrows,
                ncols
            })
        );
        let unfit = |name: &str, t: &Triplets<f64>, block, words: &str| {
            let e = build(name, t, block);
            let said = |format: &str, reason: &str| format == name && reason.contains(words);
            let refused =
                matches!(&e, Err(FormatError::Unfit { format, reason }) if said(format, reason));
            assert!(refused, "{name}: {e:?}");
        };
        let upper = Triplets::from_entries(3, 3, &[(0, 2, 1.0)]);
        unfit("sky", &upper, None, "above the diagonal");
        unfit("bsr", &Triplets::new(3, 3), Some((2, 2)), "must divide");
        unfit("vbr", &Triplets::new(0, 3), None, "partition");
        unfit("vbr", &Triplets::new(3, 0), Some((2, 2)), "partition");
        Ok(())
    }
}
