//! Any-to-any format conversion through [`Triplets`].

use crate::scalar::Scalar;
use crate::{Bsr, Coo, Csc, Csr, Dcsr, Dense, Dia, DiagSplit, Ell, Jad, Triplets, Vbr};

/// Errors a caller can trigger through the format layer: asking for a
/// format this build doesn't know, converting into a format whose
/// structural constraints the matrix violates, or presenting a view
/// that fails runtime conformance checking.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FormatError {
    /// No format with this name (see [`FORMAT_NAMES`]).
    UnknownFormat { name: String },
    /// The format requires a square matrix (e.g. `diagsplit`).
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
    /// A format instance whose arrays violate the format's structural
    /// invariants (see the per-format `validate` methods) — the typed
    /// verdict for untrusted data that would otherwise surface as an
    /// out-of-bounds panic deep inside a kernel.
    Invalid {
        format: &'static str,
        reason: String,
    },
}

/// Shorthand constructor for [`FormatError::Invalid`].
pub(crate) fn invalid(format: &'static str, reason: impl Into<String>) -> FormatError {
    FormatError::Invalid {
        format,
        reason: reason.into(),
    }
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatError::UnknownFormat { name } => {
                write!(
                    f,
                    "unknown format {name:?} (known: {})",
                    FORMAT_NAMES.join(", ")
                )
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
        }
    }
}

impl std::error::Error for FormatError {}

/// Names of all matrix formats with universal conversion support.
pub const FORMAT_NAMES: &[&str] = &[
    "dense",
    "coo",
    "csr",
    "csc",
    "dia",
    "ell",
    "jad",
    "diagsplit",
    "bsr",
    "vbr",
    "dcsr",
];

/// A dynamically-chosen matrix format (conversion and experiment-harness
/// convenience; kernels always work with the concrete types).
#[derive(Clone, Debug)]
pub enum AnyFormat<T: Scalar = f64> {
    Dense(Dense<T>),
    Coo(Coo<T>),
    Csr(Csr<T>),
    Csc(Csc<T>),
    Dia(Dia<T>),
    Ell(Ell<T>),
    Jad(Jad<T>),
    DiagSplit(DiagSplit<T>),
    Bsr(Bsr<T>),
    Vbr(Vbr<T>),
    Dcsr(Dcsr<T>),
}

impl<T: Scalar> AnyFormat<T> {
    /// Converts triplets into the named format.
    ///
    /// # Panics
    /// Panics on an unknown format name, or if the format's constraints
    /// are violated (e.g. `diagsplit` on a non-square matrix); use
    /// [`AnyFormat::try_from_triplets`] to recover instead.
    pub fn from_triplets(name: &str, t: &Triplets<T>) -> AnyFormat<T> {
        match Self::try_from_triplets(name, t) {
            Ok(m) => m,
            Err(e) => panic!("{e}"),
        }
    }

    /// [`AnyFormat::from_triplets`] with unknown names and violated
    /// format constraints reported as a [`FormatError`].
    pub fn try_from_triplets(name: &str, t: &Triplets<T>) -> Result<AnyFormat<T>, FormatError> {
        // Sorted here at most once, for discovery and assembly both; not
        // at all when `t` is another format's `to_triplets`.
        let t = &*t.normalized();
        Ok(match name {
            "dense" => AnyFormat::Dense(Dense::from_triplets(t)),
            "coo" => AnyFormat::Coo(Coo::from_triplets(t)),
            "csr" => AnyFormat::Csr(Csr::from_triplets(t)),
            "csc" => AnyFormat::Csc(Csc::from_triplets(t)),
            "dia" => AnyFormat::Dia(Dia::from_triplets(t)),
            "ell" => AnyFormat::Ell(Ell::from_triplets(t)),
            "jad" => AnyFormat::Jad(Jad::from_triplets(t)),
            "diagsplit" => {
                if t.nrows() != t.ncols() {
                    return Err(FormatError::NotSquare {
                        format: "diagsplit",
                        nrows: t.nrows(),
                        ncols: t.ncols(),
                    });
                }
                AnyFormat::DiagSplit(DiagSplit::from_triplets(t))
            }
            // Blocked formats pick their structure by discovery: the
            // dominant near-dense block size for BSR (the shape
            // `StructureFeatures` reports for the same matrix), the natural
            // identical-support strips for VBR. Both fall back to 1x1
            // blocking, so any matrix converts.
            "bsr" => {
                let rep = crate::blocks::discover_block_size(
                    t,
                    crate::features::BLOCK_PROBE_MAX,
                    crate::features::BLOCK_PROBE_MIN_FILL,
                );
                AnyFormat::Bsr(Bsr::from_triplets(t, rep.r, rep.c))
            }
            "vbr" => {
                let (rp, cp) = crate::blocks::discover_strips(t);
                AnyFormat::Vbr(Vbr::from_triplets(t, &rp, &cp))
            }
            "dcsr" => AnyFormat::Dcsr(Dcsr::from_triplets(t)),
            other => {
                return Err(FormatError::UnknownFormat {
                    name: other.to_string(),
                })
            }
        })
    }

    /// Converts back to triplets, in normal form. Only `coo` (arbitrary
    /// storage order) sorts to get there; the others enumerate
    /// row-major, `csc` by a counting transposition and `diagsplit` by
    /// merging its diagonal into its rows.
    pub fn to_triplets(&self) -> Triplets<T> {
        match self {
            AnyFormat::Dense(m) => m.to_triplets(),
            AnyFormat::Coo(m) => m.to_triplets(),
            AnyFormat::Csr(m) => m.to_triplets(),
            AnyFormat::Csc(m) => m.to_triplets(),
            AnyFormat::Dia(m) => m.to_triplets(),
            AnyFormat::Ell(m) => m.to_triplets(),
            AnyFormat::Jad(m) => m.to_triplets(),
            AnyFormat::DiagSplit(m) => m.to_triplets(),
            AnyFormat::Bsr(m) => m.to_triplets(),
            AnyFormat::Vbr(m) => m.to_triplets(),
            AnyFormat::Dcsr(m) => m.to_triplets(),
        }
    }

    /// Checks the structural invariants of the wrapped instance (see
    /// the per-format `validate` methods). Formats whose construction
    /// cannot produce out-of-bounds storage (`dense`, `coo` builders
    /// range-check on the way in; `diagsplit` wraps validated parts)
    /// report `Ok` unconditionally.
    pub fn validate(&self) -> Result<(), FormatError> {
        match self {
            AnyFormat::Csr(m) => m.validate(),
            AnyFormat::Csc(m) => m.validate(),
            AnyFormat::Dia(m) => m.validate(),
            AnyFormat::Ell(m) => m.validate(),
            AnyFormat::Jad(m) => m.validate(),
            AnyFormat::Bsr(m) => m.validate(),
            AnyFormat::Vbr(m) => m.validate(),
            AnyFormat::Dcsr(m) => m.validate(),
            AnyFormat::Dense(_) | AnyFormat::Coo(_) | AnyFormat::DiagSplit(_) => Ok(()),
        }
    }

    /// The format name.
    pub fn name(&self) -> &'static str {
        match self {
            AnyFormat::Dense(_) => "dense",
            AnyFormat::Coo(_) => "coo",
            AnyFormat::Csr(_) => "csr",
            AnyFormat::Csc(_) => "csc",
            AnyFormat::Dia(_) => "dia",
            AnyFormat::Ell(_) => "ell",
            AnyFormat::Jad(_) => "jad",
            AnyFormat::DiagSplit(_) => "diagsplit",
            AnyFormat::Bsr(_) => "bsr",
            AnyFormat::Vbr(_) => "vbr",
            AnyFormat::Dcsr(_) => "dcsr",
        }
    }
}

impl AnyFormat<f64> {
    /// Borrows the dynamic low-level API.
    pub fn as_view(&self) -> &dyn crate::SparseView {
        match self {
            AnyFormat::Dense(m) => m,
            AnyFormat::Coo(m) => m,
            AnyFormat::Csr(m) => m,
            AnyFormat::Csc(m) => m,
            AnyFormat::Dia(m) => m,
            AnyFormat::Ell(m) => m,
            AnyFormat::Jad(m) => m,
            AnyFormat::DiagSplit(m) => m,
            AnyFormat::Bsr(m) => m,
            AnyFormat::Vbr(m) => m,
            AnyFormat::Dcsr(m) => m,
        }
    }

    /// Mutably borrows the dynamic low-level API.
    pub fn as_view_mut(&mut self) -> &mut dyn crate::SparseView {
        match self {
            AnyFormat::Dense(m) => m,
            AnyFormat::Coo(m) => m,
            AnyFormat::Csr(m) => m,
            AnyFormat::Csc(m) => m,
            AnyFormat::Dia(m) => m,
            AnyFormat::Ell(m) => m,
            AnyFormat::Jad(m) => m,
            AnyFormat::DiagSplit(m) => m,
            AnyFormat::Bsr(m) => m,
            AnyFormat::Vbr(m) => m,
            AnyFormat::Dcsr(m) => m,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Triplets<f64> {
        Triplets::from_entries(
            4,
            4,
            &[
                (0, 0, 2.0),
                (1, 1, 3.0),
                (2, 2, 4.0),
                (3, 3, 5.0),
                (1, 0, -1.0),
                (3, 1, 6.0),
                (0, 2, 7.0),
            ],
        )
    }

    #[test]
    fn all_formats_roundtrip_values() {
        let t = sample();
        for &name in FORMAT_NAMES {
            let f = AnyFormat::from_triplets(name, &t);
            assert_eq!(f.name(), name);
            let back = f.to_triplets();
            // DIA and DiagSplit add structural zeros; compare by value.
            for r in 0..4 {
                for c in 0..4 {
                    assert_eq!(back.get(r, c), t.get(r, c), "{name} ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn cross_format_random_access_agrees() {
        let t = sample();
        let formats: Vec<AnyFormat<f64>> = FORMAT_NAMES
            .iter()
            .map(|&n| AnyFormat::from_triplets(n, &t))
            .collect();
        for r in 0..4 {
            for c in 0..4 {
                let expect = t.get(r, c);
                for f in &formats {
                    assert_eq!(f.as_view().get(r, c), expect, "{} ({r},{c})", f.name());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "unknown format")]
    fn unknown_format_panics() {
        let _ = AnyFormat::<f64>::from_triplets("bcrs", &sample());
    }

    #[test]
    fn try_from_triplets_reports_typed_errors() {
        let e = AnyFormat::<f64>::try_from_triplets("bcrs", &sample()).unwrap_err();
        assert_eq!(
            e,
            FormatError::UnknownFormat {
                name: "bcrs".to_string()
            }
        );
        assert!(e.to_string().contains("csr"), "{e}"); // lists known names
        let rect = Triplets::from_entries(2, 3, &[(0, 0, 1.0)]);
        let e2 = AnyFormat::<f64>::try_from_triplets("diagsplit", &rect).unwrap_err();
        assert_eq!(
            e2,
            FormatError::NotSquare {
                format: "diagsplit",
                nrows: 2,
                ncols: 3
            }
        );
        // Every known name still converts.
        for &name in FORMAT_NAMES {
            assert!(AnyFormat::<f64>::try_from_triplets(name, &sample()).is_ok());
        }
    }
}
