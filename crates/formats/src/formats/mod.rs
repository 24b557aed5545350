//! Concrete storage formats.
//!
//! Every format provides:
//! - storage with **public fields** (the code emitter generates Rust that
//!   indexes them directly, like the paper's Fig. 9 instantiated code);
//! - `from_triplets` / `to_triplets` conversions;
//! - the high-level API ([`crate::SparseMatrix`]);
//! - its description: the [`crate::view::FormatView`] index structure,
//!   and one `stored_layout!` (`leveled!` for a view that exists only
//!   on the host) naming its fields and how each level is walked over
//!   them ([`crate::level`]). The low-level API ([`crate::SparseView`])
//!   is derived from that; no format implements it. [`dcsr`] is the
//!   worked example of a format added this way.

pub mod bsr;
pub mod coo;
pub mod csc;
pub mod csr;
pub mod dcsr;
pub mod dense;
pub mod dia;
pub mod diagsplit;
pub mod ell;
pub mod jad;
pub mod sky;
pub mod sparsevec;
pub mod vbr;
