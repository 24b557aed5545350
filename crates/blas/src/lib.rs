//! Sparse BLAS kernels: baselines, dense specifications, synthesized
//! kernels and format-independent iterative methods.
//!
//! This crate plays three roles from the paper's evaluation (§5):
//!
//! - [`handwritten`] is the **NIST Sparse BLAS C library** stand-in:
//!   specialized, idiomatic per-format kernels written by hand in the
//!   reference algorithms' loop structure.
//! - [`generic_rhs`] is the **NIST Fortran library** stand-in: a single
//!   less-specialized code path handling any number of right-hand sides
//!   through strided indexing, invoked with one RHS in the benchmarks —
//!   reproducing the paper's observation that the unspecialized code is
//!   slower.
//! - [`synth`] holds the **compiler-generated kernels**: the committed
//!   output of `bernoulli-synth`'s Rust emitter for every
//!   (kernel, format) pair of the evaluation, with fidelity tests that
//!   re-run the synthesizer and compare byte-for-byte.
//!
//! On top, [`solvers`] implements format-independent iterative methods
//! (conjugate gradients, Jacobi, power iteration) exactly the way the
//! paper's introduction motivates: high-level algorithms written once
//! against an abstract matrix-vector product. [`par`] is the parallel
//! execution subsystem — a persistent worker pool, nnz-balanced
//! partitioning, parallel MVM/transpose-MVM for every stored format, a
//! level-scheduled triangular solve and parallel vector operations —
//! exercising the shared-memory substrate the paper's compilation
//! framework targets.

pub mod generic_rhs;
pub mod handwritten;
pub mod kernels;
pub mod par;
pub mod solvers;
pub mod synth;
