//! The high-level API: dense matrix programs.
//!
//! Algorithm designers write kernels *as if every matrix were dense*
//! (paper §1–2, Fig. 4); this crate represents such programs and provides
//! everything the synthesis pipeline needs from them:
//!
//! - [`AffineExpr`]: affine index expressions over loop variables and
//!   symbolic size parameters.
//! - [`Program`]: imperfectly-nested loop trees whose leaves are
//!   assignment statements with arbitrary scalar right-hand sides
//!   ([`ValueExpr`]).
//! - [`parse_program`]: a small concrete syntax, so kernels read like the
//!   paper's examples:
//!
//!   ```text
//!   program ts(N) {
//!     in matrix L[N][N];
//!     inout vector b[N];
//!     for j in 0..N {
//!       b[j] = b[j] / L[j][j];
//!       for i in j+1..N {
//!         b[i] = b[i] - L[i][j] * b[j];
//!       }
//!     }
//!   }
//!   ```
//!
//! - [`exec::run_dense`]: the reference executor — ground truth every
//!   synthesized plan is tested against.
//! - [`deps::analyze`]: dependence classes as systems of affine
//!   inequalities (paper §3).

pub mod ast;
pub mod deps;
pub mod exec;
pub mod expr;
pub mod parser;

pub use ast::{
    ArrayDecl, ArrayKind, LhsRef, Loop, Node, Program, Role, Statement, StmtInfo, ValidateError,
    ValueExpr,
};
pub use deps::{analyze, DepClass, DepKind};
pub use exec::{run_dense, DenseEnv, ExecError};
pub use expr::AffineExpr;
pub use parser::{parse_program, ParseError};

/// Everything that can go wrong on this crate's library paths, as one
/// typed error: syntax ([`ParseError`]), semantics ([`ValidateError`]),
/// or reference execution ([`ExecError`]).
#[derive(Clone, Debug, PartialEq)]
pub enum IrError {
    Parse(ParseError),
    Validate(ValidateError),
    Exec(ExecError),
}

impl std::fmt::Display for IrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IrError::Parse(e) => e.fmt(f),
            IrError::Validate(e) => e.fmt(f),
            IrError::Exec(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for IrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IrError::Parse(e) => Some(e),
            IrError::Validate(e) => Some(e),
            IrError::Exec(e) => Some(e),
        }
    }
}

impl From<ParseError> for IrError {
    fn from(e: ParseError) -> IrError {
        IrError::Parse(e)
    }
}

impl From<ValidateError> for IrError {
    fn from(e: ValidateError) -> IrError {
        IrError::Validate(e)
    }
}

impl From<ExecError> for IrError {
    fn from(e: ExecError) -> IrError {
        IrError::Exec(e)
    }
}
