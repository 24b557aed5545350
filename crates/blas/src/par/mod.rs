//! Parallel execution (S32): a loaded kernel run over row bands on the
//! worker pool.
//!
//! There is one parallel path, and it runs generated code: a
//! [`LoadedKernel`](bernoulli_synth::LoadedKernel) whose plan is
//! row-range splittable exports a ranged entry, and [`par_run_rows`]
//! dispatches one call of that entry per band of rows on the
//! [`Pool`] (re-exported from `bernoulli-pool`, shared with the
//! synthesis search; `BERNOULLI_THREADS` sets its size). The bands come
//! from the format: `Csr`, `Bsr` and `Vbr` cut theirs with
//! `partition_rows` (nnz-balanced, block- or strip-aligned).
//! [`par_loaded_mvm_csr`] is that call spelled out for CSR MVM.
//!
//! # Determinism
//!
//! Each output row has one writer, and the ranged entry accumulates a
//! row in the same order as the full-range entry, so a parallel run is
//! **bitwise equal** to a sequential `run` of the same kernel at every
//! `nthreads`, whatever the pool's size or scheduling.

pub mod loaded;
#[cfg(test)]
mod mvm;

pub use bernoulli_pool::Pool;
pub use loaded::{par_loaded_mvm_csr, par_run_rows};
