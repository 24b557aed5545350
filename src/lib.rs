//! # Bernoulli-RS
//!
//! A Rust reproduction of *“A Framework for Sparse Matrix Code Synthesis
//! from High-level Specifications”* (Ahmed, Mateev, Pingali, Stodghill;
//! SC 2000) — the Bernoulli sparse compiler.
//!
//! The system synthesizes efficient *data-centric* sparse matrix code from
//! two inputs:
//!
//! 1. a **dense-matrix program** — an imperfectly-nested affine loop nest
//!    written as if every matrix were dense (see [`ir`]), and
//! 2. a **format description** — the index structure of each sparse matrix,
//!    expressed in the view grammar of the paper's Fig. 6 (see
//!    [`formats::view`]).
//!
//! The synthesis pipeline (see [`synth`]) embeds statement instances into a
//! product of iteration and data spaces, verifies legality against the
//! program's dependence classes, eliminates redundant dimensions, infers
//! enumeration directions, fuses common enumerations, and emits either an
//! executable plan (interpreted against real formats) or specialized Rust
//! source code.
//!
//! ## Quick start
//!
//! The staged driver is a [`Session`]: a long-lived compiler object
//! owning the worker pool, the polyhedral memo caches and the plan
//! cache, so repeated compiles stay warm and every failure surfaces as
//! a typed [`Error`].
//!
//! ```
//! use bernoulli::prelude::*;
//!
//! fn main() -> Result<(), bernoulli::Error> {
//!     let session = Session::new();
//!     // Dense specification: y += A·x (written as if A were dense).
//!     let spec = kernels::mvm();
//!     // A sparse matrix in CSR format.
//!     let a = Csr::from_triplets(&Triplets::from_entries(
//!         3, 3, &[(0, 0, 2.0), (1, 2, 1.0), (2, 1, 4.0)]));
//!     // Bind the CSR index structure and synthesize a data-centric plan.
//!     let bound = session.bind(&spec, &[("A", a.format_view())])?;
//!     let kernel = session.compile(&bound)?;
//!     // Execute it against the real matrix.
//!     let mut env = ExecEnv::new();
//!     env.set_param("M", 3).set_param("N", 3);
//!     env.bind_sparse("A", &a);
//!     env.bind_vec("x", vec![1.0, 2.0, 3.0]);
//!     env.bind_vec("y", vec![0.0; 3]);
//!     kernel.interpret(&mut env)?;
//!     assert_eq!(env.take_vec("y"), vec![2.0, 3.0, 8.0]);
//!     Ok(())
//! }
//! ```

pub use bernoulli_blas as blas;
pub use bernoulli_formats as formats;
pub use bernoulli_ir as ir;
pub use bernoulli_numeric as numeric;
pub use bernoulli_polyhedra as polyhedra;
pub use bernoulli_synth as synth;

pub use bernoulli_synth::{
    BoundProblem, Budget, BudgetError, CancelToken, CompiledKernel, DepReport, Session,
};

// Structure-aware selection (S40): instance features drive the cost
// model and the format/plan advisor.
pub use bernoulli_formats::{vector_features, StructureFeatures};
pub use bernoulli_synth::{Advice, AdviceEntry, WorkloadStats, DEFAULT_ADVISOR_FORMATS};

// The multi-tenant compile service (S38): concurrent `compile` calls
// over shared cache tiers, with admission control and an optional
// persistent plan cache for warm-start across restarts.
pub use bernoulli_synth::{
    PersistStats, PersistentPlanCache, Service, ServiceConfig, ServiceError, ServiceStats,
};

// The compiled-kernel execution path (S37): `CompiledKernel::load` and
// the unified compiled-or-interpreted runner, plus the on-disk artifact
// cache behind it.
pub use bernoulli_synth::{
    rustc_info, KernelArg, KernelBackend, KernelCacheError, KernelCacheStats, KernelCallError,
    KernelStore, LoadError, LoadedKernel,
};

/// The workspace-wide error type: every crate's typed error converges
/// here via `From`, so embedding code can `?` any stage of the pipeline
/// into one `Result<_, bernoulli::Error>`.
#[derive(Debug)]
pub enum Error {
    /// Program-level failure: syntax, semantics, or reference execution.
    Ir(bernoulli_ir::IrError),
    /// Format-layer failure: unknown formats, violated constraints.
    Format(bernoulli_formats::FormatError),
    /// Polyhedral-layer failure (caller-triggerable API misuse).
    Poly(bernoulli_polyhedra::PolyError),
    /// Synthesis failure: binding, search, interpretation or emission.
    Synth(bernoulli_synth::SynthError),
    /// Service-layer rejection: shed load or an expired queue deadline
    /// (the compile never ran). Admitted-compile failures unwrap to
    /// [`Error::Synth`] instead.
    Service(bernoulli_synth::ServiceError),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Ir(e) => e.fmt(f),
            Error::Format(e) => e.fmt(f),
            Error::Poly(e) => e.fmt(f),
            Error::Synth(e) => e.fmt(f),
            Error::Service(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Ir(e) => Some(e),
            Error::Format(e) => Some(e),
            Error::Poly(e) => Some(e),
            Error::Synth(e) => Some(e),
            Error::Service(e) => Some(e),
        }
    }
}

impl From<bernoulli_ir::IrError> for Error {
    fn from(e: bernoulli_ir::IrError) -> Error {
        Error::Ir(e)
    }
}

impl From<bernoulli_ir::ParseError> for Error {
    fn from(e: bernoulli_ir::ParseError) -> Error {
        Error::Ir(e.into())
    }
}

impl From<bernoulli_ir::ValidateError> for Error {
    fn from(e: bernoulli_ir::ValidateError) -> Error {
        Error::Ir(e.into())
    }
}

impl From<bernoulli_formats::FormatError> for Error {
    fn from(e: bernoulli_formats::FormatError) -> Error {
        Error::Format(e)
    }
}

impl From<bernoulli_polyhedra::PolyError> for Error {
    fn from(e: bernoulli_polyhedra::PolyError) -> Error {
        Error::Poly(e)
    }
}

impl From<bernoulli_synth::SynthError> for Error {
    fn from(e: bernoulli_synth::SynthError) -> Error {
        Error::Synth(e)
    }
}

impl From<bernoulli_synth::ServiceError> for Error {
    fn from(e: bernoulli_synth::ServiceError) -> Error {
        // An admitted compile that failed is a synthesis error; only
        // genuine service-layer rejections keep the `Service` tag.
        match e {
            bernoulli_synth::ServiceError::Synth(inner) => Error::Synth(inner),
            other => Error::Service(other),
        }
    }
}

impl From<bernoulli_synth::PlanError> for Error {
    fn from(e: bernoulli_synth::PlanError) -> Error {
        Error::Synth(e.into())
    }
}

impl From<bernoulli_synth::EmitError> for Error {
    fn from(e: bernoulli_synth::EmitError) -> Error {
        Error::Synth(e.into())
    }
}

impl From<bernoulli_synth::ConfigError> for Error {
    fn from(e: bernoulli_synth::ConfigError) -> Error {
        Error::Synth(e.into())
    }
}

/// Convenience re-exports for the common workflow.
pub mod prelude {
    pub use crate::{Advice, AdviceEntry, StructureFeatures, WorkloadStats};
    pub use crate::{
        BoundProblem, Budget, BudgetError, CancelToken, CompiledKernel, DepReport, Error, Session,
    };
    pub use crate::{Service, ServiceConfig, ServiceError, ServiceStats};
    pub use bernoulli_blas::kernels;
    pub use bernoulli_formats::{
        block_fill, discover_block_size, discover_strips, AnyFormat, BlockReport, Bsr, Coo, Csc,
        Csr, Dense, Dia, DiagSplit, Ell, HashVec, Jad, SparseMatrix, SparseVec, SparseView,
        Triplets, Vbr,
    };
    pub use bernoulli_ir::{parse_program, Program};
    pub use bernoulli_synth::{run_plan, ExecEnv, SearchReport, SynthOptions};
    pub use bernoulli_synth::{KernelArg, KernelBackend, KernelStore, LoadError, LoadedKernel};
}
