//! Concrete storage formats.
//!
//! Every format provides:
//! - storage with **public fields** (the code emitter generates Rust that
//!   indexes them directly, like the paper's Fig. 9 instantiated code);
//! - `nnz`;
//! - its description: one `stored_layout!` (`leveled!` for a view that
//!   exists only on the host) naming its fields, how each level is
//!   walked and searched over them ([`crate::level`]: a level that
//!   searches does so by the search of its kind, [`crate::search`]), and
//!   the index structure they walk, one line of [`crate::view`]'s
//!   notation read into the [`crate::view::FormatView`] the planner uses.
//!   Both APIs are derived from that: the low-level one
//!   ([`crate::SparseView`], with the dense lookup `find(r, c)`) for every
//!   format, the high-level one ([`crate::SparseMatrix`]) for every
//!   registered layout — only the four host views, whose `get` is not
//!   one chain's lookup, write it by hand — `to_triplets` and `validate`
//!   for every format, and `from_triplets` for every registered layout:
//!   the crate's one assembler (`assemble.rs`) over its levels, with the
//!   named residue of what no level says, which the struct's own
//!   `from_triplets` calls in one line (a host view builds itself).
//!   No format writes a search. [`dcsr`] is the worked example of a
//!   format added this way.

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
