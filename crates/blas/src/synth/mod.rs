//! Compiler-synthesized kernels: the committed output of the Bernoulli
//! emitter for the evaluation's (kernel, format) pairs.
//!
//! [`generate`] runs the full pipeline (dense spec + view → plan → Rust
//! source) for one pair; `generated.rs` holds the committed text; the
//! `fidelity` tests re-run the synthesizer and assert byte equality, and
//! the behavioral tests compare the compiled kernels against the dense
//! reference — so the committed code is provably the compiler's output
//! and provably correct.

// The committed text is the emitter's verbatim output (byte-checked by
// `regen_synth_kernels`); rustfmt must not touch it.
#[rustfmt::skip]
mod generated;

pub use generated::*;

use bernoulli_formats::view::{Bound, FormatView, StoredGuarantee};
use bernoulli_formats::view_by_name;
use bernoulli_ir::Program;
use bernoulli_service::Session;

/// The (kernel, format) pairs whose synthesized kernels are committed.
pub const GENERATED_KERNELS: &[(&str, &str)] = &[
    ("mvm", "csr"),
    ("mvm", "csc"),
    ("mvm", "coo"),
    ("mvm", "dia"),
    ("mvm", "ell"),
    ("mvm", "jad"),
    ("ts", "csr"),
    ("ts", "csc"),
    ("ts", "jad"),
    ("ts", "dia"),
    ("ts", "sky"),
    ("mvm", "sky"),
    ("mvmt", "csr"),
    ("mvmt", "csc"),
    ("mvmt", "coo"),
    ("mvm", "bsr2x2"),
    ("mvmt", "bsr2x2"),
    ("mvm", "vbr"),
    ("mvmt", "vbr"),
];

/// The view used for synthesis of a kernel's matrix operand.
///
/// Triangular solve operands are annotated lower-triangular with a full
/// diagonal (the paper conveys these "enumeration bounds" via pragmas,
/// §2); MVM operands use the plain format views.
pub fn view_for(kernel: &str, format: &str) -> FormatView {
    let mut v = view_by_name(format).unwrap_or_else(|| panic!("unknown format {format}"));
    if kernel == "ts" {
        v.bounds.push(Bound::attr_ge("r", "c"));
        v.guarantees.push(StoredGuarantee::FullDiagonal);
    }
    v
}

/// The dense spec of a kernel.
pub fn spec_for(kernel: &str) -> (Program, &'static str) {
    match kernel {
        "mvm" => (crate::kernels::mvm(), "A"),
        "mvmt" => (crate::kernels::mvm_transposed(), "A"),
        "ts" => (crate::kernels::ts(), "L"),
        other => panic!("unknown kernel {other}"),
    }
}

/// Runs the synthesizer and emitter for one pair on `session`,
/// returning the module text (deterministic — session reuse only
/// changes how much cached polyhedral work the search reuses, never
/// the result).
pub fn generate_with(session: &Session, kernel: &str, format: &str) -> String {
    let (p, mat) = spec_for(kernel);
    let view = view_for(kernel, format);
    let bound = session
        .bind(&p, &[(mat, view)])
        .unwrap_or_else(|e| panic!("{kernel}/{format}: {e}"));
    let compiled = session
        .compile(&bound)
        .unwrap_or_else(|e| panic!("{kernel}/{format}: {e}"));
    compiled
        .emit(&format!("{kernel}_{format}"))
        .unwrap_or_else(|e| panic!("{kernel}/{format}: {e}"))
}

/// [`generate_with`] on a throwaway session.
pub fn generate(kernel: &str, format: &str) -> String {
    generate_with(&Session::new(), kernel, format)
}

/// Generates the complete `generated.rs` text. One session compiles
/// every pair, so later kernels reuse the earlier polyhedral memos.
///
/// The emitted body returns `None` when an operand's index arrays point
/// outside another operand; each pair's public function (`or_panic`,
/// re-exported under the pair's name) keeps the plain signature and
/// treats that as the caller's bug it is.
pub fn generate_all() -> String {
    let session = Session::new();
    let mut out = String::new();
    out.push_str("//! GENERATED by bernoulli-synth — do not edit by hand.\n");
    out.push_str(
        "//! Regenerate: BERNOULLI_REGEN=1 cargo test -p bernoulli-blas regen_synth_kernels\n",
    );
    out.push_str("#![allow(clippy::all)]\n#![allow(unused_parens)]\n");
    for (kernel, format) in GENERATED_KERNELS {
        let name = format!("{kernel}_{format}");
        let module = generate_with(&session, kernel, format);
        // Strip the per-module header comment lines; keep imports inline
        // per function to stay self-contained.
        out.push('\n');
        out.push_str(&format!("pub mod {name}_mod {{\n"));
        let signature = format!("pub fn {name}(");
        let mut params = "";
        for line in module.lines() {
            if line.starts_with("// GENERATED") || line.starts_with("// Regenerated") {
                continue;
            }
            if let Some(rest) = line.strip_prefix(&signature) {
                params = rest
                    .strip_suffix(") -> Option<()> {")
                    .unwrap_or_else(|| panic!("{name}: unexpected signature {line:?}"));
            }
            out.push_str("    ");
            out.push_str(line);
            out.push('\n');
        }
        let args: Vec<&str> = params
            .split(", ")
            .filter_map(|p| p.split(':').next())
            .collect();
        out.push_str(&format!(
            "    pub fn or_panic({params}) {{\n        {name}({}).expect(\"{name}: an operand index is out of bounds\")\n    }}\n}}\n",
            args.join(", ")
        ));
        out.push_str(&format!("pub use {name}_mod::or_panic as {name};\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    /// Regenerates `generated.rs` when `BERNOULLI_REGEN=1`; otherwise
    /// verifies the committed text matches regeneration byte-for-byte.
    #[test]
    fn regen_synth_kernels() {
        let fresh = generate_all();
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/synth/generated.rs");
        if std::env::var("BERNOULLI_REGEN").as_deref() == Ok("1") {
            std::fs::write(&path, &fresh).unwrap();
            return;
        }
        let committed = std::fs::read_to_string(&path).unwrap();
        assert_eq!(
            committed, fresh,
            "committed synthesized kernels differ from regeneration; \
             run BERNOULLI_REGEN=1 cargo test -p bernoulli-blas regen_synth_kernels"
        );
    }
}

#[cfg(test)]
mod structure_tests {
    /// Pins the *structure* of headline kernels: behavioral tests cannot
    /// catch a plan regression that computes identical values slowly
    /// (e.g. scanning the dense column range instead of walking the
    /// row's stored entries).
    #[test]
    fn generated_kernels_are_data_centric() {
        let src = include_str!("generated.rs");
        let fns: &[(&str, &[&str])] = &[
            // (function, required code patterns)
            ("fn ts_jad", &["0..*l_.rowlen.get(", "iperm_inv.get("]),
            (
                "fn ts_csr",
                &[
                    "rowptr.get(p0_0)? as usize..*l_.rowptr.get(p0_0 + 1)? as usize",
                    "acc__",
                ],
            ),
            (
                "fn ts_sky",
                &["*l_.lo.get(p0_0)? as i64..p0_0 as i64 + 1", "acc__"],
            ),
            (
                "fn mvm_csr",
                &[
                    "rowptr.get(p0_0)? as usize..*a_.rowptr.get(p0_0 + 1)? as usize",
                    "acc__",
                ],
            ),
            // The DIA/ELL inner loops hoist their per-row/diagonal
            // bounds and run bounds-check-free (the `ix` helper), so the
            // bodies vectorize — pin that shape too.
            (
                "fn mvm_dia",
                &[
                    "for v1 in lo__..hi__",
                    "base__ as usize + (v1 - lo__) as usize",
                ],
            ),
            (
                "fn mvm_ell",
                &[
                    "let base__ = p0_0 * a_.width;",
                    "ix(&a_.colind, p0_1)",
                    "acc__",
                ],
            ),
            ("fn mvm_jad", &["for d__ in 0..*a_.rowlen.get(", "acc__"]),
            ("fn mvm_coo", &["0..a_.values.len()"]),
        ];
        for (f, patterns) in fns {
            let start = src.find(f).unwrap_or_else(|| panic!("{f} missing"));
            let end = src[start..]
                .find("\npub use")
                .map(|e| start + e)
                .unwrap_or(src.len());
            let body = &src[start..end];
            for p in *patterns {
                assert!(
                    body.contains(p),
                    "{f} lost its data-centric structure: expected {p:?}\n{body}"
                );
            }
        }
        // No generated MVM/TS kernel on an indexed format may fall back
        // to per-element random access (`SparseMatrix::get(r, c)`; the
        // checked slice reads are one-argument `get`s).
        assert!(
            !src.contains(" as usize, ("),
            "generated kernels must not use random access"
        );
    }
}
