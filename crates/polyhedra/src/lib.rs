//! Linear inequality systems and the decision procedures the Bernoulli
//! restructuring framework needs.
//!
//! The paper expresses dependence classes as systems of affine inequalities
//! `D(i_s, i_d)ᵀ + d ≥ 0` (paper §3) and needs three capabilities on top of
//! them:
//!
//! 1. **Emptiness / implication tests** — to verify that a candidate set of
//!    embedding functions never enumerates a dependence destination before
//!    its source (paper §3.1, problem 2), and to drive the recursive
//!    enumeration-direction rule (paper §4.1).
//! 2. **Projection** — to eliminate existentially-quantified variables, the
//!    workhorse being Fourier–Motzkin elimination ([`eliminate_var`]).
//! 3. **Farkas' lemma** — to characterize *all* affine functions that are
//!    non-negative over a polyhedron, which yields the space of legal
//!    embeddings (paper §3.1, citing Feautrier).
//!
//! All variables are integer-valued loop indices or symbolic size
//! parameters; every derived constraint is normalized to a primitive
//! integer row, and constants are tightened by integer division, giving an
//! "Omega-lite" test that is exact on the polyhedra produced by affine
//! loop nests of the sizes we handle (and conservative in general: it may
//! report a rationally-nonempty / integer-empty set as nonempty, which only
//! ever makes the compiler *reject* a legal candidate, never accept an
//! illegal one).

#![allow(clippy::needless_range_loop)]
pub mod cache;
mod expr;
mod farkas;
mod fm;
mod system;

pub use cache::{clear_caches, shared_tier, CacheStats, PolyCaches};
pub use expr::LinExpr;
pub use farkas::{farkas_nonneg_conditions, try_farkas_nonneg_conditions};
pub use fm::{eliminate_var, try_eliminate_var, variable_bounds};
pub use system::{Constraint, ConstraintKind, System};

// Budget types are part of this crate's fallible API surface
// (`PolyError::BudgetExhausted` wraps a cause); re-export them so
// callers need not depend on `bernoulli-govern` directly.
pub use bernoulli_govern::{Budget, BudgetError, CancelToken};

/// What a decision procedure runs under, handed to it as an argument:
/// the memo it consults and fills, and the budget it charges (`None`:
/// unbounded). `Copy`, so a caller passes one value down every call
/// it makes; two compiles with two contexts never touch each other's
/// memo or budget, whichever threads they run on.
#[derive(Clone, Copy)]
pub struct Cx<'a> {
    pub memo: &'a PolyCaches,
    pub budget: Option<&'a Budget>,
}

impl<'a> Cx<'a> {
    /// An unbudgeted context over `memo`.
    pub fn new(memo: &'a PolyCaches) -> Cx<'a> {
        Cx { memo, budget: None }
    }

    /// The same memo under `budget`.
    pub fn with_budget(self, budget: Option<&'a Budget>) -> Cx<'a> {
        Cx { budget, ..self }
    }
}

/// Errors a caller can trigger through the polyhedral API (as opposed
/// to internal invariants, which still panic with a message naming the
/// invariant).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PolyError {
    /// A variable (column) index beyond the system's variable count.
    VarOutOfRange { index: usize, nvars: usize },
    /// The context's compute [`Budget`] ran out mid-decision. The
    /// infallible query wrappers ([`System::is_empty`],
    /// [`System::implies`], [`farkas_nonneg_conditions`]) degrade
    /// conservatively instead of surfacing this — see their docs.
    BudgetExhausted(BudgetError),
}

impl std::fmt::Display for PolyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolyError::VarOutOfRange { index, nvars } => {
                write!(
                    f,
                    "variable index {index} out of range (system has {nvars} variables)"
                )
            }
            PolyError::BudgetExhausted(cause) => {
                write!(f, "polyhedral decision aborted: {cause}")
            }
        }
    }
}

impl std::error::Error for PolyError {}

impl From<BudgetError> for PolyError {
    fn from(e: BudgetError) -> PolyError {
        PolyError::BudgetExhausted(e)
    }
}

/// Brute-force enumeration of the integer points of `sys` inside the box
/// `lo..=hi` on every variable. Exponential; intended for tests and for the
/// dynamic dependence-order validation harness only.
pub fn enumerate_box_points(sys: &System, lo: i128, hi: i128) -> Vec<Vec<i128>> {
    let n = sys.num_vars();
    let mut out = Vec::new();
    let mut point = vec![lo; n];
    loop {
        if sys.contains_int(&point) {
            out.push(point.clone());
        }
        // Odometer increment.
        let mut k = 0;
        loop {
            if k == n {
                return out;
            }
            point[k] += 1;
            if point[k] <= hi {
                break;
            }
            point[k] = lo;
            k += 1;
        }
    }
}
