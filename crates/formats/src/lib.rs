//! Sparse matrix storage formats and the two-level API of the Bernoulli
//! generic programming system.
//!
//! The paper's central observation (§2) is that a sparse format is, for
//! compilation purposes, characterized by its **index structure**: which
//! coordinates must be enumerated before which, in what order enumeration
//! is efficient, which levels support indexed (random) access, and how the
//! stored coordinates relate to the dense row/column coordinates. This
//! crate provides:
//!
//! - **The high-level API** ([`SparseMatrix`]): a dense-matrix view
//!   (dimensions + random `get`/`set`) used by algorithm designers and by
//!   the reference executor. Corresponds to the paper's `matrix<BASE>`
//!   abstract class (`JadRandom` etc.).
//! - **The low-level API** ([`view::FormatView`] + [`cursor::SparseView`]):
//!   the index-structure description in the grammar of Fig. 6 —
//!   nesting, `map`, `perm`, aggregation `∪`, perspective `⊕` — together
//!   with runtime *level cursors* that enumerate and search each level.
//!   Corresponds to the paper's `term_nesting`/`term_perm2`/iterator class
//!   hierarchy. How a level is walked is declared once per format
//!   ([`level::Levels`], beside its [`layout::Layout`]); the one generic
//!   cursor and the code emitter's loops are both read off it.
//! - **Concrete formats**: [`Dense`], [`Coo`], [`Csr`], [`Csc`], [`Dcsr`], [`Dia`],
//!   [`Ell`], [`Jad`], [`DiagSplit`] (a `∪` format storing the diagonal
//!   separately), and sorted/hashed sparse vectors ([`SparseVec`],
//!   [`HashVec`]) used by the join-strategy experiments.
//! - **Substrate**: triplet builders and conversions, Matrix Market IO,
//!   and synthetic workload generators (including the `can_1072`-like
//!   matrix substituting for the Harwell–Boeing input of the paper's §5).

pub mod blocks;
pub mod convert;
pub mod cursor;
pub mod features;
pub mod formats;
pub mod gen;
pub mod io;
pub mod layout;
pub mod level;
pub mod partition;
pub mod scalar;
pub mod triplet;
pub mod view;

pub use blocks::{block_fill, discover_block_size, discover_strips, BlockReport};
pub use convert::{AnyFormat, FormatError, FORMAT_NAMES};
pub use cursor::{ChainCursor, Keys, Position, SparseView};
pub use features::{vector_features, StructureFeatures};
pub use formats::bsr::Bsr;
pub use formats::coo::Coo;
pub use formats::csc::Csc;
pub use formats::csr::Csr;
pub use formats::dcsr::Dcsr;
pub use formats::dense::Dense;
pub use formats::dia::Dia;
pub use formats::diagsplit::DiagSplit;
pub use formats::ell::Ell;
pub use formats::jad::Jad;
pub use formats::sky::Sky;
pub use formats::sparsevec::{HashVec, SparseVec};
pub use formats::vbr::Vbr;
pub use layout::{
    format_name, levels_of_view, view_by_name, Elem, Layout, Stored, HOST_LEVELS, LAYOUTS,
};
pub use scalar::Scalar;
pub use triplet::Triplets;
pub use view::{
    Chain, FlatLevel, FormatView, Order, SearchKind, StoredGuarantee, Transform, ViewExpr,
};

/// The high-level (dense) API: what the algorithm designer programs
/// against. Everything is addressed by dense row/column coordinates;
/// unstored positions read as zero.
pub trait SparseMatrix {
    /// Number of rows of the enveloping dense matrix.
    fn nrows(&self) -> usize;
    /// Number of columns of the enveloping dense matrix.
    fn ncols(&self) -> usize;
    /// Number of stored (structural) nonzeros.
    fn nnz(&self) -> usize;
    /// Random access read; zero for unstored positions.
    fn get(&self, r: usize, c: usize) -> f64;
    /// Random access write to a *stored* position.
    ///
    /// # Panics
    /// Panics if `(r, c)` is not a stored position (sparse formats without
    /// fill cannot materialize new entries).
    fn set(&mut self, r: usize, c: usize, v: f64);
    /// All stored entries as `(row, col, value)` triplets, in an
    /// unspecified order.
    fn entries(&self) -> Vec<(usize, usize, f64)>;
}
