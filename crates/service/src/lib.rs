//! The compile driver around the paper's search (`bernoulli-synth`):
//! sessions and the multi-tenant service ([`session`], [`service`]), the
//! plan cache and its persistent tier ([`search`], [`persist`]), native
//! kernels with the interpreter as their typed fallback ([`compiled`]),
//! and the format advisor ([`advise`]).

#![allow(clippy::type_complexity)]
pub mod advise;
pub mod compiled;
pub mod persist;
pub mod search;
pub mod service;
pub mod session;

pub use advise::{view_for_features, Advice, AdviceEntry, DEFAULT_ADVISOR_FORMATS};
pub use compiled::{
    KernelArg, KernelBackend, KernelCallError, KernelSig, LoadError, LoadedKernel,
    SPLIT_MIN_ENTRIES,
};
pub use persist::{PersistStats, PersistentPlanCache, DEFAULT_MAX_BYTES, DEFAULT_MAX_ENTRIES};
pub use search::PlanCacheStats;
pub use service::{Admission, AdmissionPermit, Service, ServiceConfig, ServiceError, ServiceStats};
pub use session::{CompiledKernel, DepReport, Session};

// Resource-governance vocabulary (budgets, deadlines, cancellation) so
// callers can drive `Session::with_deadline` & co. without naming the
// `bernoulli-govern` crate directly.
pub use bernoulli_govern::{Budget, BudgetError, CancelToken};

// Kernel artifact-cache vocabulary so callers can inspect the compiled
// path (`CompiledKernel::load` & co.) without naming the
// `bernoulli-kernel-cache` crate directly.
pub use bernoulli_kernel_cache::{
    rustc_info, KernelCacheError, KernelCacheStats, KernelStore, RustcInfo,
};
