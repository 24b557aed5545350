//! The Bernoulli sparse code synthesizer — the paper's primary
//! contribution, §3–§4.
//!
//! Given a dense-matrix [`Program`](bernoulli_ir::Program) and a
//! [`FormatView`](bernoulli_formats::FormatView) for each sparse matrix,
//! this crate produces efficient *data-centric* sparse code. The pipeline
//! follows the paper §3–4:
//!
//! 1. **Binding** ([`bind`]): check each view against the program's
//!    declaration of the matrix it is bound to.
//! 2. **Configuration** ([`config`]): choose a perspective (`⊕`) per
//!    sparse reference and split statements over aggregation (`∪`) chains;
//!    compute each reference's *sparse data space* by rewriting dense
//!    coordinates through the view's `map`/`perm` transforms.
//! 3. **Product space** ([`spaces`]): form the Cartesian product of
//!    statement iteration and data spaces; enumerate candidate dimension
//!    orders under the data-centric and format-structure heuristics
//!    (§4.3).
//! 4. **Embeddings** ([`embed`]): affine functions mapping every statement
//!    instance into the product space, built by pedigree matching (the
//!    common-enumeration heuristic) with before/after offset repairs.
//! 5. **Legality and directions** ([`legal`]): one recursive procedure per
//!    dependence class both verifies that lexicographic enumeration
//!    preserves the dependence and computes the set of dimensions that
//!    must be enumerated in increasing order (§4.1); associative
//!    reduction self-dependences may be relaxed.
//! 6. **Redundancy and common enumerations** ([`groups`]): redundant
//!    dimensions are detected by rank computation on the `G` matrix
//!    (Fig. 7) and fused with the non-redundant dimension they follow.
//! 7. **Lowering** ([`lower`]): emit an *enumeration-based plan* — the
//!    paper's pseudocode of Figs. 5/8 — choosing per group between level
//!    enumeration, interval enumeration plus search, and merge/hash joins,
//!    with residual guards simplified through the polyhedral machinery.
//! 8. **Zero safety** ([`zero`]): verify that restricting execution to
//!    stored entries preserves semantics (annihilation or coverage).
//! 9. **Cost and search** ([`cost`], [`search`]): estimate each candidate
//!    with the Fig. 11 cost model and return the cheapest legal plan;
//!    [`search::search`] is a pure function of what it reads.
//!
//! Plans can be executed directly against real formats ([`interp`]) or
//! specialized into Rust source code ([`emit`]), the analogue of the
//! paper's compiler-instantiated C++ (Fig. 9).
//!
//! The compile driver — sessions, the multi-tenant service, the plan
//! cache and its persistent tier, the native kernel path and the
//! advisor — is the `bernoulli-service` crate, which depends on this
//! one and not the other way round.

#![allow(clippy::needless_range_loop, clippy::type_complexity)]
pub mod bind;
pub mod codegen;
pub mod config;
pub mod cost;
pub mod embed;
pub mod emit;
pub mod farkas_embed;
pub mod groups;
pub mod interp;
pub mod legal;
pub mod lower;
pub mod plan;
pub mod search;
pub mod spaces;
pub mod zero;

pub use bind::BoundProblem;
pub use codegen::{Codegen, Tiling};
pub use config::{Config, ConfigError, RefInst, StmtCopy};
pub use cost::{cost_floor, WorkloadStats};
pub use emit::{emit_rust, emit_rust_ranged, EmitError};
pub use interp::{run_plan, ExecEnv, PlanError, RunStats};
pub use plan::{Plan, Step};
pub use search::{Candidate, SearchReport, SynthError, SynthOptions};
