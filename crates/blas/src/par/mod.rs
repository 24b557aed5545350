//! Parallel execution (S32): a loaded kernel run over row bands on the
//! worker pool.
//!
//! There is one parallel path, and it is inside
//! [`LoadedKernel::run`](bernoulli_service::LoadedKernel::run): a kernel
//! whose plan has a row-band entry (each band writes only its own rows)
//! runs a large operand's rows as nnz-balanced bands at once on the
//! [`Pool`] (re-exported from `bernoulli-pool`, shared with the
//! synthesis search; `BERNOULLI_THREADS` sets its size, and 1 means
//! serial). [`par_loaded_mvm_csr`] is the same call with an explicit
//! band count, spelt out for CSR MVM.
//!
//! # Determinism
//!
//! Each output row has one writer, and the ranged entry accumulates a
//! row in the same order as the full-range entry, so a parallel run is
//! **bitwise equal** to a sequential `run` of the same kernel at every
//! band count, whatever the pool's size or scheduling.

pub mod loaded;
#[cfg(test)]
mod mvm;

pub use bernoulli_pool::Pool;
pub use loaded::par_loaded_mvm_csr;
