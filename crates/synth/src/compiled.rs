//! The compiled-kernel execution path: runtime codegen, loading, and
//! the typed interpreter fallback.
//!
//! [`CompiledKernel::load`](crate::session::CompiledKernel::load)
//! closes the paper's emit → run loop at runtime: the best plan is
//! specialized into a **self-contained** kernel crate (no dependency on
//! this workspace — the format structs are mirrored into the generated
//! source as borrowed-slice views), `rustc` builds it to a `cdylib`
//! through the on-disk artifact cache of `bernoulli-kernel-cache`, and
//! the resulting shared object is loaded behind a stable `extern "C"`
//! ABI. A warm cache — including a restarted process — skips the
//! compile and loads in microseconds.
//!
//! When anything along that path is impossible (no compiler on the
//! host, an un-marshallable view, a plan the emitter has no template
//! for), [`CompiledKernel::backend`](crate::session::CompiledKernel::backend)
//! degrades to the interpreter carrying the typed [`LoadError`] reason,
//! and [`run_with`](crate::session::CompiledKernel::run_with) executes
//! identically through either backend.
//!
//! # The kernel crate
//!
//! The generated crate is `#![no_std]`, built with `-C panic=abort`,
//! and has no panic path: every checked index is `*a.get(i)?` (see
//! [`crate::emit`]). The linker proves it: the crate's panic handler
//! calls `bernoulli_kernel_has_a_panic_path`, a symbol defined nowhere,
//! and the build refuses undefined symbols, so a kernel in which a
//! panic survives optimisation fails to *link* — a typed
//! `CompileFailed` naming the symbol — and is served by the
//! interpreter. What links is ~6 kB: no `std`, unwinder or allocator.
//!
//! # ABI (version 2)
//!
//! One exported entry point per kernel:
//!
//! ```c
//! int32_t bernoulli_kernel_v2(const int64_t *params, size_t nparams,
//!                             const size_t *dims,   size_t ndims,
//!                             const RawSlice *slices, size_t nslices);
//! ```
//!
//! `params` are the program's symbolic parameters in declaration order;
//! `dims` and `slices` are the flattened scalar fields and array fields
//! of every operand in declaration order, using the fixed per-format
//! field order of `view_marshal`. Returns 0 on success, 1 when an
//! operand index was out of bounds (the body returned early; outputs
//! may be partly written — version 1 returned 1 for a caught panic), 2
//! on an arity mismatch. Status 1 does not cover a format's own arrays
//! read at positions its own index arrays produced: those go through
//! the emitter's unchecked `ix`, so a kernel is memory-safe on valid
//! instances of its formats (validating operands: ROADMAP item 4,
//! open). Plans whose outermost step enumerates the rows of a row-major
//! format additionally export `bernoulli_kernel_range_v2` with trailing
//! `(int64_t row_lo, int64_t row_hi)` — the entry the parallel lane
//! dispatches nnz-balanced row chunks through, and which the full-range
//! entry itself uses to walk CSR rows in cache-sized blocks.

use crate::emit::{emit_rust, emit_rust_ranged, EmitError};
use crate::interp::{run_plan, ExecEnv, PlanError};
use crate::plan::{Plan, StepKind, ValueSource};
use crate::search::SynthError;
use bernoulli_formats::view::FormatView;
use bernoulli_formats::{Bsr, Coo, Csc, Csr, Dia, Ell, Jad, Sky, Vbr};
use bernoulli_ir::{ArrayKind, Program, Role};
use bernoulli_kernel_cache::{ArtifactSpec, KernelCacheError, KernelStore, Library};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

/// Version of the `extern "C"` kernel ABI described in the module docs.
/// Part of every artifact cache key: an ABI change can never load a
/// stale artifact.
pub const KERNEL_ABI_VERSION: u32 = 2;

/// Exported symbol of the full-range entry point.
pub const KERNEL_SYMBOL: &str = "bernoulli_kernel_v2";

/// Exported symbol of the row-ranged entry point (present only for
/// range-splittable plans).
pub const KERNEL_RANGE_SYMBOL: &str = "bernoulli_kernel_range_v2";

/// Rows per block of the cache-blocked CSR traversal the full-range
/// entry performs (bounds the live band of `y`/`rowptr` per call while
/// keeping the per-block dispatch overhead negligible).
const CSR_ROW_BLOCK: i64 = 2048;

/// The host-side mirror of the ABI's array argument: one base pointer
/// plus a length, in elements of the field's declared type.
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct RawSlice {
    pub ptr: *const u8,
    pub len: usize,
}

type EntryV2 =
    unsafe extern "C" fn(*const i64, usize, *const usize, usize, *const RawSlice, usize) -> i32;
type RangeV2 = unsafe extern "C" fn(
    *const i64,
    usize,
    *const usize,
    usize,
    *const RawSlice,
    usize,
    i64,
    i64,
) -> i32;

/// Why a kernel could not be loaded as native code. Carried by
/// [`KernelBackend::Interpreted`] as the typed fallback reason.
#[derive(Clone, Debug)]
pub enum LoadError {
    /// The plan uses a runtime feature the static emitter has no
    /// template for.
    Emit(EmitError),
    /// The array's view has no fixed marshalling layout (e.g. a hash
    /// vector: its index map is not a flat array).
    UnsupportedView { array: String, view: String },
    /// Compiling, caching, or dynamically loading the artifact failed
    /// (no `rustc` on the host, a rejected build, a dlopen failure…).
    Cache(KernelCacheError),
    /// The loaded kernel disagreed with the interpreter on the
    /// deterministic probe instance (differential validation). The
    /// artifact has been quarantined.
    ValidationFailed { detail: String },
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Emit(e) => write!(f, "{e}"),
            LoadError::UnsupportedView { array, view } => {
                write!(
                    f,
                    "view {view:?} of array {array:?} has no kernel ABI marshalling"
                )
            }
            LoadError::Cache(e) => write!(f, "{e}"),
            LoadError::ValidationFailed { detail } => {
                write!(
                    f,
                    "kernel failed differential validation against the \
                     interpreter (artifact quarantined): {detail}"
                )
            }
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Emit(e) => Some(e),
            LoadError::Cache(e) => Some(e),
            LoadError::UnsupportedView { .. } | LoadError::ValidationFailed { .. } => None,
        }
    }
}

impl From<EmitError> for LoadError {
    fn from(e: EmitError) -> LoadError {
        LoadError::Emit(e)
    }
}

impl From<KernelCacheError> for LoadError {
    fn from(e: KernelCacheError) -> LoadError {
        LoadError::Cache(e)
    }
}

/// Calling a loaded kernel failed before (or inside) the native code.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KernelCallError {
    /// Wrong number or kind of parameters/operands for the kernel's
    /// signature.
    Mismatch { detail: String },
    /// An operand index was out of bounds (a column past the end of
    /// `x`, a pointer array or an output vector too short). The kernel
    /// returned early; outputs may be partly written.
    OutOfBounds,
    /// The plan has no row-ranged entry point.
    NoRangedEntry,
    /// The library returned an unknown status code.
    Abi { code: i32 },
}

impl std::fmt::Display for KernelCallError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KernelCallError::Mismatch { detail } => write!(f, "kernel call mismatch: {detail}"),
            KernelCallError::OutOfBounds => write!(f, "an operand index was out of bounds"),
            KernelCallError::NoRangedEntry => {
                write!(f, "this kernel's plan is not row-range splittable")
            }
            KernelCallError::Abi { code } => write!(f, "loaded kernel returned ABI status {code}"),
        }
    }
}

impl std::error::Error for KernelCallError {}

impl From<KernelCallError> for SynthError {
    fn from(e: KernelCallError) -> SynthError {
        SynthError::Plan(PlanError(e.to_string()))
    }
}

/// A writable output region passed to a *ranged* kernel call by raw
/// pointer, so several concurrent calls over disjoint row ranges can
/// target the same vector without materializing aliasing `&mut`
/// references on the host side.
#[derive(Clone, Copy, Debug)]
pub struct RawOut {
    ptr: *mut f64,
    len: usize,
}

// Safety: a RawOut is only a (pointer, len) pair; the unsafe contract
// about concurrent disjoint writes is taken on at construction.
unsafe impl Send for RawOut {}
unsafe impl Sync for RawOut {}

impl RawOut {
    /// Wraps a raw output region.
    ///
    /// # Safety
    /// `ptr..ptr+len` must be valid writable `f64` storage for the
    /// duration of every kernel call using it, and concurrent calls
    /// sharing the region must write disjoint elements (e.g. ranged
    /// calls over disjoint row bands of a row-major kernel).
    pub unsafe fn new(ptr: *mut f64, len: usize) -> RawOut {
        RawOut { ptr, len }
    }
}

/// One operand of a loaded-kernel call, in program declaration order.
pub enum KernelArg<'a> {
    Csr(&'a Csr<f64>),
    Csc(&'a Csc<f64>),
    Coo(&'a Coo<f64>),
    Dia(&'a Dia<f64>),
    Ell(&'a Ell<f64>),
    Jad(&'a Jad<f64>),
    Sky(&'a Sky<f64>),
    Bsr(&'a Bsr<f64>),
    Vbr(&'a Vbr<f64>),
    /// Read-only dense vector.
    In(&'a [f64]),
    /// Writable dense vector.
    Out(&'a mut [f64]),
    /// Writable dense vector shared across concurrent ranged calls
    /// (see [`RawOut`]).
    OutShared(RawOut),
}

impl KernelArg<'_> {
    fn kind(&self) -> &'static str {
        match self {
            KernelArg::Csr(_) => "csr",
            KernelArg::Csc(_) => "csc",
            KernelArg::Coo(_) => "coo",
            KernelArg::Dia(_) => "dia",
            KernelArg::Ell(_) => "ell",
            KernelArg::Jad(_) => "jad",
            KernelArg::Sky(_) => "sky",
            KernelArg::Bsr(_) => "bsr",
            KernelArg::Vbr(_) => "vbr",
            KernelArg::In(_) => "vec-in",
            KernelArg::Out(_) | KernelArg::OutShared(_) => "vec-out",
        }
    }
}

/// Fixed marshalling layout of a format view: scalar fields (in
/// `dims`), then array fields (in `slices`), in this exact order on
/// both sides of the ABI.
struct ViewMarshal {
    dims: &'static [&'static str],
    slices: &'static [(&'static str, SliceTy)],
}

#[derive(Clone, Copy, PartialEq)]
enum SliceTy {
    Usize,
    I64,
    F64,
}

impl SliceTy {
    fn rust(self) -> &'static str {
        match self {
            SliceTy::Usize => "usize",
            SliceTy::I64 => "i64",
            SliceTy::F64 => "f64",
        }
    }
}

/// The marshalling/mirror identity of a view name: every `bsr{R}x{C}`
/// view shares the `"bsr"` layout and mirror struct (the block shape is
/// carried in `dims`, specialized as literals in the body).
fn view_base(view: &str) -> &str {
    if crate::emit::parse_bsr(view).is_some() {
        "bsr"
    } else {
        view
    }
}

fn view_marshal(view: &str) -> Option<ViewMarshal> {
    use SliceTy::*;
    Some(match view_base(view) {
        "csr" => ViewMarshal {
            dims: &["nrows", "ncols"],
            slices: &[("rowptr", Usize), ("colind", Usize), ("values", F64)],
        },
        "csc" => ViewMarshal {
            dims: &["nrows", "ncols"],
            slices: &[("colptr", Usize), ("rowind", Usize), ("values", F64)],
        },
        "coo" => ViewMarshal {
            dims: &["nrows", "ncols"],
            slices: &[("rows", Usize), ("cols", Usize), ("values", F64)],
        },
        "dia" => ViewMarshal {
            dims: &["nrows", "ncols"],
            slices: &[
                ("diags", I64),
                ("lo", I64),
                ("hi", I64),
                ("ptr", Usize),
                ("values", F64),
            ],
        },
        "ell" => ViewMarshal {
            dims: &["nrows", "ncols", "width"],
            slices: &[("colind", I64), ("values", F64), ("rowlen", Usize)],
        },
        "jad" => ViewMarshal {
            dims: &["nrows", "ncols"],
            slices: &[
                ("iperm", Usize),
                ("iperm_inv", Usize),
                ("dptr", Usize),
                ("colind", Usize),
                ("values", F64),
                ("rowlen", Usize),
            ],
        },
        "sky" => ViewMarshal {
            dims: &["n"],
            slices: &[("lo", Usize), ("ptr", Usize), ("values", F64)],
        },
        "bsr" => ViewMarshal {
            dims: &["nrows", "ncols", "r", "c"],
            slices: &[("browptr", Usize), ("bcolind", Usize), ("values", F64)],
        },
        "vbr" => ViewMarshal {
            dims: &["nrows", "ncols"],
            slices: &[
                ("val", F64),
                ("indx", Usize),
                ("bindx", Usize),
                ("rpntr", Usize),
                ("cpntr", Usize),
                ("bpntrb", Usize),
                ("bpntre", Usize),
                ("rowblk", Usize),
            ],
        },
        _ => return None,
    })
}

/// The mirror struct (plus `find` helpers replicating the real formats'
/// search semantics) emitted into the self-contained kernel source for
/// a view, so the generated body compiles without this workspace. Like
/// the body, the helpers have no panic path: on arrays that are not a
/// valid instance of the format a search finds nothing.
fn mirror_decl(view: &str) -> Option<&'static str> {
    Some(match view_base(view) {
        "csr" => {
            r#"pub struct Csr<T: 'static = f64> {
    pub nrows: usize,
    pub ncols: usize,
    pub rowptr: &'static [usize],
    pub colind: &'static [usize],
    pub values: &'static [T],
}
impl<T> Csr<T> {
    #[inline]
    pub fn find(&self, r: usize, c: usize) -> Option<usize> {
        let (lo, hi) = (*self.rowptr.get(r)?, *self.rowptr.get(r + 1)?);
        self.colind.get(lo..hi)?.binary_search(&c).ok().map(|k| lo + k)
    }
}
"#
        }
        "csc" => {
            r#"pub struct Csc<T: 'static = f64> {
    pub nrows: usize,
    pub ncols: usize,
    pub colptr: &'static [usize],
    pub rowind: &'static [usize],
    pub values: &'static [T],
}
impl<T> Csc<T> {
    #[inline]
    pub fn find(&self, r: usize, c: usize) -> Option<usize> {
        let (lo, hi) = (*self.colptr.get(c)?, *self.colptr.get(c + 1)?);
        self.rowind.get(lo..hi)?.binary_search(&r).ok().map(|k| lo + k)
    }
}
"#
        }
        "coo" => {
            r#"pub struct Coo<T: 'static = f64> {
    pub nrows: usize,
    pub ncols: usize,
    pub rows: &'static [usize],
    pub cols: &'static [usize],
    pub values: &'static [T],
}
impl<T> Coo<T> {
    #[inline]
    pub fn find(&self, r: usize, c: usize) -> Option<usize> {
        (0..self.values.len()).find(|&i| self.rows.get(i) == Some(&r) && self.cols.get(i) == Some(&c))
    }
}
"#
        }
        "dia" => {
            r#"pub struct Dia<T: 'static = f64> {
    pub nrows: usize,
    pub ncols: usize,
    pub diags: &'static [i64],
    pub lo: &'static [i64],
    pub hi: &'static [i64],
    pub ptr: &'static [usize],
    pub values: &'static [T],
}
impl<T> Dia<T> {
    #[inline]
    pub fn find(&self, r: usize, c: usize) -> Option<usize> {
        let d = r as i64 - c as i64;
        let k = self.diags.binary_search(&d).ok()?;
        let (o, lo) = (c as i64, *self.lo.get(k)?);
        if o >= lo && o < *self.hi.get(k)? {
            Some(*self.ptr.get(k)? + (o - lo) as usize)
        } else {
            None
        }
    }
}
"#
        }
        "ell" => {
            r#"pub struct Ell<T: 'static = f64> {
    pub nrows: usize,
    pub ncols: usize,
    pub width: usize,
    pub colind: &'static [i64],
    pub values: &'static [T],
    pub rowlen: &'static [usize],
}
impl<T> Ell<T> {
    #[inline]
    pub fn find(&self, r: usize, c: usize) -> Option<usize> {
        let base = r * self.width;
        let row = self.colind.get(base..base + *self.rowlen.get(r)?)?;
        row.binary_search(&(c as i64)).ok().map(|s| base + s)
    }
}
"#
        }
        "jad" => {
            r#"pub struct Jad<T: 'static = f64> {
    pub nrows: usize,
    pub ncols: usize,
    pub iperm: &'static [usize],
    pub iperm_inv: &'static [usize],
    pub dptr: &'static [usize],
    pub colind: &'static [usize],
    pub values: &'static [T],
    pub rowlen: &'static [usize],
}
impl<T> Jad<T> {
    #[inline]
    pub fn find_in_row(&self, rr: usize, c: usize) -> Option<usize> {
        let (mut lo, mut hi) = (0usize, *self.rowlen.get(rr)?);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let jj = *self.dptr.get(mid)? + rr;
            match self.colind.get(jj)?.cmp(&c) {
                core::cmp::Ordering::Equal => return Some(jj),
                core::cmp::Ordering::Less => lo = mid + 1,
                core::cmp::Ordering::Greater => hi = mid,
            }
        }
        None
    }
    #[inline]
    pub fn find(&self, r: usize, c: usize) -> Option<usize> {
        self.find_in_row(*self.iperm_inv.get(r)?, c)
    }
}
"#
        }
        "sky" => {
            r#"pub struct Sky<T: 'static = f64> {
    pub n: usize,
    pub lo: &'static [usize],
    pub ptr: &'static [usize],
    pub values: &'static [T],
}
impl<T> Sky<T> {
    #[inline]
    pub fn find(&self, r: usize, c: usize) -> Option<usize> {
        let lo = *self.lo.get(r)?;
        if c >= lo && c <= r {
            Some(*self.ptr.get(r)? + (c - lo))
        } else {
            None
        }
    }
}
"#
        }
        "bsr" => {
            r#"pub struct Bsr<T: 'static = f64> {
    pub nrows: usize,
    pub ncols: usize,
    pub r: usize,
    pub c: usize,
    pub browptr: &'static [usize],
    pub bcolind: &'static [usize],
    pub values: &'static [T],
}
impl<T> Bsr<T> {
    #[inline]
    pub fn find(&self, row: usize, col: usize) -> Option<usize> {
        let (br, rr) = (row.checked_div(self.r)?, row.checked_rem(self.r)?);
        let (bc, cc) = (col.checked_div(self.c)?, col.checked_rem(self.c)?);
        let (lo, hi) = (*self.browptr.get(br)?, *self.browptr.get(br + 1)?);
        let k = self.bcolind.get(lo..hi)?.binary_search(&bc).ok()?;
        Some(((lo + k) * self.r + rr) * self.c + cc)
    }
}
"#
        }
        "vbr" => {
            r#"pub struct Vbr<T: 'static = f64> {
    pub nrows: usize,
    pub ncols: usize,
    pub val: &'static [T],
    pub indx: &'static [usize],
    pub bindx: &'static [usize],
    pub rpntr: &'static [usize],
    pub cpntr: &'static [usize],
    pub bpntrb: &'static [usize],
    pub bpntre: &'static [usize],
    pub rowblk: &'static [usize],
}
impl<T> Vbr<T> {
    #[inline]
    pub fn find(&self, row: usize, col: usize) -> Option<usize> {
        let br = *self.rowblk.get(row)?;
        let rr = row - *self.rpntr.get(br)?;
        for b in *self.bpntrb.get(br)?..*self.bpntre.get(br)? {
            let bc = *self.bindx.get(b)?;
            let (c0, c1) = (*self.cpntr.get(bc)?, *self.cpntr.get(bc + 1)?);
            if col < c0 {
                return None;
            }
            if col < c1 {
                return Some(*self.indx.get(b)? + rr * (c1 - c0) + (col - c0));
            }
        }
        None
    }
}
"#
        }
        _ => return None,
    })
}

/// One operand slot of the kernel signature.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgSpec {
    /// A sparse matrix marshalled per its view's fixed layout.
    View(String),
    /// A read-only dense vector.
    VecIn,
    /// A writable dense vector.
    VecOut,
}

/// The call signature a loaded kernel expects: parameter names and one
/// [`ArgSpec`] per program array, in declaration order.
#[derive(Clone, Debug)]
pub struct KernelSig {
    pub params: Vec<String>,
    pub args: Vec<(String, ArgSpec)>,
    ndims: usize,
    nslices: usize,
}

impl KernelSig {
    /// Derives the signature from a program and its bound views;
    /// errors on any operand without a fixed marshalling layout.
    pub(crate) fn of(
        p: &Program,
        views: &HashMap<String, FormatView>,
    ) -> Result<KernelSig, LoadError> {
        let mut args = Vec::new();
        let (mut ndims, mut nslices) = (0usize, 0usize);
        for a in &p.arrays {
            let spec = match (views.get(&a.name), a.kind) {
                (Some(v), _) => {
                    let m = view_marshal(&v.name).ok_or_else(|| LoadError::UnsupportedView {
                        array: a.name.clone(),
                        view: v.name.clone(),
                    })?;
                    ndims += m.dims.len();
                    nslices += m.slices.len();
                    ArgSpec::View(v.name.clone())
                }
                (None, ArrayKind::Matrix) => {
                    return Err(LoadError::Emit(EmitError(format!(
                        "no view bound for {:?}",
                        a.name
                    ))));
                }
                (None, ArrayKind::Vector) => {
                    nslices += 1;
                    match a.role {
                        Role::In => ArgSpec::VecIn,
                        Role::Out | Role::InOut => ArgSpec::VecOut,
                    }
                }
            };
            args.push((a.name.clone(), spec));
        }
        Ok(KernelSig {
            params: p.params.clone(),
            args,
            ndims,
            nslices,
        })
    }
}

/// The kernel crate's panic handler. The symbol it calls is defined
/// nowhere, and the build refuses undefined symbols: the crate links
/// only if the optimiser removed every path that reaches the handler.
const PANIC_PROOF: &str = "extern \"C\" {\n    fn bernoulli_kernel_has_a_panic_path() -> !;\n}\n\n#[panic_handler]\nfn panic(_: &core::panic::PanicInfo) -> ! {\n    unsafe { bernoulli_kernel_has_a_panic_path() }\n}\n\n";

/// Generates the complete, self-contained cdylib source for a plan:
/// mirror structs, the specialized kernel body, and the `extern "C"`
/// wrapper(s). Returns the source and whether a ranged entry exists.
pub(crate) fn cdylib_source(
    p: &Program,
    plan: &Plan,
    views: &HashMap<String, FormatView>,
) -> Result<(String, bool), LoadError> {
    let sig = KernelSig::of(p, views)?;
    // Random-access reads lower to the `SparseMatrix::get` trait, which
    // the mirror structs deliberately do not replicate (it would defeat
    // the data-centric ABI); such plans stay on the interpreter.
    if plan.execs.iter().any(|e| {
        e.sources
            .iter()
            .any(|s| matches!(s, Some(ValueSource::Random { .. })))
    }) {
        return Err(LoadError::Emit(EmitError(
            "plan reads a sparse operand by random access; \
             not expressible over the kernel ABI"
                .to_string(),
        )));
    }
    // The specialized body; the ranged variant replaces the plain one
    // when the plan's outermost step is a row enumeration.
    let ranged_body = emit_rust_ranged(p, plan, views, "kernel_impl_range")?;
    let plain_body = if ranged_body.is_none() {
        Some(emit_rust(p, plan, views, "kernel_impl")?)
    } else {
        None
    };

    let mut out = String::new();
    out.push_str("// GENERATED by bernoulli-synth (runtime kernel crate) — do not edit.\n");
    out.push_str(&format!(
        "// ABI v{KERNEL_ABI_VERSION}: see bernoulli_synth::compiled module docs.\n"
    ));
    out.push_str("#![no_std]\n#![allow(unused_parens, unused_variables, clippy::all)]\n\n");
    out.push_str(PANIC_PROOF);

    // Mirror structs for every distinct view used.
    let mut seen: Vec<&str> = Vec::new();
    for (_, spec) in &sig.args {
        if let ArgSpec::View(v) = spec {
            // Dedup on the marshalling base so two block shapes of the
            // same format share one mirror struct.
            if !seen.contains(&view_base(v)) {
                seen.push(view_base(v));
                if let Some(decl) = mirror_decl(v) {
                    out.push_str(decl);
                    out.push('\n');
                }
            }
        }
    }

    out.push_str(
        "#[repr(C)]\npub struct RawSlice {\n    pub ptr: *const u8,\n    pub len: usize,\n}\n\n",
    );
    out.push_str(
        "unsafe fn sl<T>(s: &RawSlice) -> &'static [T] {\n    if s.len == 0 {\n        &[]\n    } else {\n        core::slice::from_raw_parts(s.ptr as *const T, s.len)\n    }\n}\n\n",
    );
    out.push_str(
        "unsafe fn sl_mut(s: &RawSlice) -> &'static mut [f64] {\n    if s.len == 0 {\n        &mut []\n    } else {\n        core::slice::from_raw_parts_mut(s.ptr as *mut f64, s.len)\n    }\n}\n\n",
    );

    if let Some(body) = &plain_body {
        out.push_str(body);
        out.push('\n');
    }
    if let Some(body) = &ranged_body {
        out.push_str(body);
        out.push('\n');
    }

    // Shared operand-unpacking text (used by every entry point).
    let mut unpack = String::new();
    let (mut di, mut si) = (0usize, 0usize);
    let mut call_args: Vec<String> = Vec::new();
    for i in 0..sig.params.len() {
        call_args.push(format!("*params.get({i})?"));
    }
    let mut outer_nrows: Option<String> = None;
    for (name, spec) in &sig.args {
        let var = format!("{}_", name.to_lowercase());
        match spec {
            ArgSpec::View(v) => {
                let m = view_marshal(v).ok_or_else(|| LoadError::UnsupportedView {
                    array: name.clone(),
                    view: v.clone(),
                })?;
                let ty = match view_base(v) {
                    "csr" => "Csr",
                    "csc" => "Csc",
                    "coo" => "Coo",
                    "dia" => "Dia",
                    "ell" => "Ell",
                    "jad" => "Jad",
                    "sky" => "Sky",
                    "bsr" => "Bsr",
                    "vbr" => "Vbr",
                    _ => {
                        return Err(LoadError::UnsupportedView {
                            array: name.clone(),
                            view: v.clone(),
                        })
                    }
                };
                let mut fields: Vec<String> = Vec::new();
                for d in m.dims {
                    fields.push(format!("{d}: *dims.get({di})?"));
                    di += 1;
                }
                for (f, t) in m.slices {
                    fields.push(format!("{f}: sl::<{}>(slices.get({si})?)", t.rust()));
                    si += 1;
                }
                unpack.push_str(&format!(
                    "        let {var} = {ty}::<f64> {{ {} }};\n",
                    fields.join(", ")
                ));
                if outer_nrows.is_none() && matches!(view_base(v), "csr" | "ell" | "bsr" | "vbr") {
                    outer_nrows = Some(format!("{var}.nrows"));
                }
                call_args.push(format!("&{var}"));
            }
            ArgSpec::VecIn => {
                unpack.push_str(&format!(
                    "        let {var} = sl::<f64>(slices.get({si})?);\n"
                ));
                si += 1;
                call_args.push(var);
            }
            ArgSpec::VecOut => {
                unpack.push_str(&format!("        let {var} = sl_mut(slices.get({si})?);\n"));
                si += 1;
                call_args.push(var);
            }
        }
    }

    // The arity check makes every `get` below succeed; they are `get`s
    // so that no index expression in the crate can panic.
    let preamble = format!(
        "    if nparams != {np} || ndims != {nd} || nslices != {ns} {{\n        return 2;\n    }}\n    let params: &[i64] = if nparams == 0 {{ &[] }} else {{ unsafe {{ core::slice::from_raw_parts(params, nparams) }} }};\n    let dims: &[usize] = if ndims == 0 {{ &[] }} else {{ unsafe {{ core::slice::from_raw_parts(dims, ndims) }} }};\n    let slices: &[RawSlice] = if nslices == 0 {{ &[] }} else {{ unsafe {{ core::slice::from_raw_parts(slices, nslices) }} }};\n    let run = || -> Option<()> {{ unsafe {{\n",
        np = sig.params.len(),
        nd = sig.ndims,
        ns = sig.nslices,
    );
    let postamble = "    } };\n    if run().is_some() { 0 } else { 1 }\n";

    // Full-range entry.
    out.push_str(&format!(
        "#[no_mangle]\npub extern \"C\" fn {KERNEL_SYMBOL}(\n    params: *const i64,\n    nparams: usize,\n    dims: *const usize,\n    ndims: usize,\n    slices: *const RawSlice,\n    nslices: usize,\n) -> i32 {{\n"
    ));
    out.push_str(&preamble);
    out.push_str(&unpack);
    if ranged_body.is_some() {
        let nrows = outer_nrows.as_deref().unwrap_or("0");
        let is_csr_outer = outer_row_view(plan, views).as_deref() == Some("csr");
        if is_csr_outer {
            // Cache-blocked CSR row traversal: walk the rows in fixed
            // blocks through the ranged body.
            out.push_str(&format!(
                "        let nrows__ = {nrows} as i64;\n        let mut r0__ = 0i64;\n        while r0__ < nrows__ {{\n            let r1__ = if r0__ + {CSR_ROW_BLOCK} < nrows__ {{ r0__ + {CSR_ROW_BLOCK} }} else {{ nrows__ }};\n            kernel_impl_range({args}, r0__, r1__)?;\n            r0__ = r1__;\n        }}\n        Some(())\n",
                args = call_args.join(", ")
            ));
        } else {
            out.push_str(&format!(
                "        kernel_impl_range({args}, 0, {nrows} as i64)\n",
                args = call_args.join(", ")
            ));
        }
    } else {
        out.push_str(&format!(
            "        kernel_impl({args})\n",
            args = call_args.join(", ")
        ));
    }
    out.push_str(postamble);
    out.push_str("}\n");

    // Ranged entry.
    if ranged_body.is_some() {
        out.push('\n');
        out.push_str(&format!(
            "#[no_mangle]\npub extern \"C\" fn {KERNEL_RANGE_SYMBOL}(\n    params: *const i64,\n    nparams: usize,\n    dims: *const usize,\n    ndims: usize,\n    slices: *const RawSlice,\n    nslices: usize,\n    row_lo: i64,\n    row_hi: i64,\n) -> i32 {{\n"
        ));
        out.push_str(&preamble);
        out.push_str(&unpack);
        out.push_str(&format!(
            "        kernel_impl_range({args}, row_lo, row_hi)\n",
            args = call_args.join(", ")
        ));
        out.push_str(postamble);
        out.push_str("}\n");
    }

    Ok((out, ranged_body.is_some()))
}

/// Everything a native load derives from (program, plan, views) and the
/// logical key alone, store and process state aside: the work of
/// emitting the kernel crate and hashing it into an artifact name.
#[derive(Debug)]
pub(crate) struct NativeSource {
    sig: KernelSig,
    /// The cdylib source under the ABI-salted key, and the artifact
    /// file name the two hash to. The source (3–7 kB a kernel) is read
    /// again only on an artifact miss, and is kept for it.
    artifact: ArtifactSpec,
    has_ranged: bool,
    /// Matrix whose rows the ranged entry splits, when present.
    outer_matrix: Option<String>,
}

/// Where a [`NativeSource`] (or the typed reason there is none) is
/// computed at most once: one cell per plan-cache entry, shared with
/// every kernel the entry serves. Never per logical key — a degraded
/// search has the key of the full one and possibly another plan.
pub(crate) type NativeCell = Arc<OnceLock<Result<Arc<NativeSource>, LoadError>>>;

impl NativeSource {
    fn derive(
        p: &Program,
        plan: &Plan,
        views: &HashMap<String, FormatView>,
        logical_key: &str,
    ) -> Result<NativeSource, LoadError> {
        let sig = KernelSig::of(p, views)?;
        let (source, has_ranged) = cdylib_source(p, plan, views)?;
        let key = format!("abi{KERNEL_ABI_VERSION}|{logical_key}");
        let outer_matrix = if has_ranged {
            plan.steps.first().and_then(|s| match &s.kind {
                StepKind::Level { primary, .. } => Some(primary.matrix.clone()),
                _ => None,
            })
        } else {
            None
        };
        Ok(NativeSource {
            sig,
            artifact: ArtifactSpec::new(key, source)?,
            has_ranged,
            outer_matrix,
        })
    }
}

/// The view name of the plan's outermost row enumeration, if any.
fn outer_row_view(plan: &Plan, views: &HashMap<String, FormatView>) -> Option<String> {
    let step = plan.steps.first()?;
    let StepKind::Level { primary, .. } = &step.kind else {
        return None;
    };
    views.get(&primary.matrix).map(|v| v.name.clone())
}

/// A runtime-compiled, dynamically loaded kernel: native code for one
/// (program, views, plan) triple behind the stable `extern "C"` ABI.
pub struct LoadedKernel {
    lib: Arc<Library>,
    entry: EntryV2,
    ranged: Option<RangeV2>,
    native: Arc<NativeSource>,
    from_cache: bool,
    /// True when the kernel passed differential validation against the
    /// interpreter on the deterministic probe instance.
    validated: bool,
    /// The store the artifact came from — kept so a bad ABI status at
    /// call time can quarantine the artifact behind it.
    store: KernelStore,
}

impl std::fmt::Debug for LoadedKernel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoadedKernel")
            .field("artifact", &self.lib.path())
            .field("from_cache", &self.from_cache)
            .field("ranged", &self.ranged.is_some())
            .field("validated", &self.validated)
            .finish()
    }
}

impl LoadedKernel {
    /// The call signature (parameter names, operand kinds).
    pub fn sig(&self) -> &KernelSig {
        &self.native.sig
    }

    /// True when the artifact came from the on-disk cache (no `rustc`
    /// run in this call).
    pub fn from_cache(&self) -> bool {
        self.from_cache
    }

    /// True when the kernel passed differential validation against the
    /// interpreter (see [`KernelBackend::Validated`]). False when
    /// validation was skipped because no probe instance could be built
    /// for this signature.
    pub fn validated(&self) -> bool {
        self.validated
    }

    /// The shared object backing this kernel.
    pub fn artifact_path(&self) -> &std::path::Path {
        self.lib.path()
    }

    /// True when the kernel exports the row-ranged entry (its plan's
    /// outermost step enumerates rows of a row-major format).
    pub fn supports_ranged(&self) -> bool {
        self.ranged.is_some()
    }

    /// The matrix whose rows [`run_range`](LoadedKernel::run_range)
    /// splits, when the ranged entry exists.
    pub fn outer_matrix(&self) -> Option<&str> {
        self.native.outer_matrix.as_deref()
    }

    /// Runs the kernel over its full iteration space.
    pub fn run(&self, params: &[i64], args: &mut [KernelArg<'_>]) -> Result<(), KernelCallError> {
        self.call(params, args, None)
    }

    /// Runs the kernel restricted to outer rows `row_lo..row_hi`
    /// (clamping is the caller's job; the entry enumerates exactly this
    /// band). Concurrent calls over disjoint bands may share output
    /// vectors via [`KernelArg::OutShared`].
    pub fn run_range(
        &self,
        params: &[i64],
        args: &mut [KernelArg<'_>],
        row_lo: i64,
        row_hi: i64,
    ) -> Result<(), KernelCallError> {
        if self.ranged.is_none() {
            return Err(KernelCallError::NoRangedEntry);
        }
        self.call(params, args, Some((row_lo, row_hi)))
    }

    fn call(
        &self,
        params: &[i64],
        args: &mut [KernelArg<'_>],
        range: Option<(i64, i64)>,
    ) -> Result<(), KernelCallError> {
        let sig = self.sig();
        if params.len() != sig.params.len() {
            return Err(KernelCallError::Mismatch {
                detail: format!(
                    "expected {} parameters ({:?}), got {}",
                    sig.params.len(),
                    sig.params,
                    params.len()
                ),
            });
        }
        if args.len() != sig.args.len() {
            return Err(KernelCallError::Mismatch {
                detail: format!("expected {} operands, got {}", sig.args.len(), args.len()),
            });
        }
        let mut dims: Vec<usize> = Vec::with_capacity(sig.ndims);
        let mut slices: Vec<RawSlice> = Vec::with_capacity(sig.nslices);
        for ((name, spec), arg) in sig.args.iter().zip(args.iter_mut()) {
            marshal(name, spec, arg, &mut dims, &mut slices)?;
        }
        let code = match range {
            None => unsafe {
                (self.entry)(
                    params.as_ptr(),
                    params.len(),
                    dims.as_ptr(),
                    dims.len(),
                    slices.as_ptr(),
                    slices.len(),
                )
            },
            Some((lo, hi)) => {
                let Some(f) = self.ranged else {
                    return Err(KernelCallError::NoRangedEntry);
                };
                unsafe {
                    f(
                        params.as_ptr(),
                        params.len(),
                        dims.as_ptr(),
                        dims.len(),
                        slices.as_ptr(),
                        slices.len(),
                        lo,
                        hi,
                    )
                }
            }
        };
        match code {
            0 => Ok(()),
            1 => Err(KernelCallError::OutOfBounds),
            2 => Err(KernelCallError::Mismatch {
                detail: "library rejected the operand arity (ABI drift?)".to_string(),
            }),
            c => {
                // An unknown nonzero status means the artifact and the
                // host disagree about the ABI: quarantine it (which
                // also forgets its validated status) so it is never
                // loaded again — callers re-serve through the
                // interpreter on their next `backend` call.
                self.store.quarantine(self.lib.path());
                Err(KernelCallError::Abi { code: c })
            }
        }
    }
}

fn raw(ptr: *const u8, len: usize) -> RawSlice {
    RawSlice { ptr, len }
}

fn marshal(
    name: &str,
    spec: &ArgSpec,
    arg: &mut KernelArg<'_>,
    dims: &mut Vec<usize>,
    slices: &mut Vec<RawSlice>,
) -> Result<(), KernelCallError> {
    let mismatch = |want: &str, got: &str| KernelCallError::Mismatch {
        detail: format!("operand {name:?}: expected {want}, got {got}"),
    };
    let matches_spec = match (spec, &*arg) {
        // A BSR view name carries the block shape the kernel was
        // specialized for; the operand must match it exactly.
        (ArgSpec::View(v), KernelArg::Bsr(m)) => crate::emit::parse_bsr(v) == Some((m.r, m.c)),
        (ArgSpec::View(v), a) => v == a.kind(),
        (ArgSpec::VecIn, KernelArg::In(_)) => true,
        (ArgSpec::VecOut, KernelArg::Out(_) | KernelArg::OutShared(_)) => true,
        _ => false,
    };
    if !matches_spec {
        let want = match spec {
            ArgSpec::View(v) => v.as_str(),
            ArgSpec::VecIn => "vec-in",
            ArgSpec::VecOut => "vec-out",
        };
        return Err(mismatch(want, arg.kind()));
    }
    match arg {
        KernelArg::Csr(m) => {
            dims.extend([m.nrows, m.ncols]);
            slices.push(raw(m.rowptr.as_ptr() as *const u8, m.rowptr.len()));
            slices.push(raw(m.colind.as_ptr() as *const u8, m.colind.len()));
            slices.push(raw(m.values.as_ptr() as *const u8, m.values.len()));
        }
        KernelArg::Csc(m) => {
            dims.extend([m.nrows, m.ncols]);
            slices.push(raw(m.colptr.as_ptr() as *const u8, m.colptr.len()));
            slices.push(raw(m.rowind.as_ptr() as *const u8, m.rowind.len()));
            slices.push(raw(m.values.as_ptr() as *const u8, m.values.len()));
        }
        KernelArg::Coo(m) => {
            dims.extend([m.nrows, m.ncols]);
            slices.push(raw(m.rows.as_ptr() as *const u8, m.rows.len()));
            slices.push(raw(m.cols.as_ptr() as *const u8, m.cols.len()));
            slices.push(raw(m.values.as_ptr() as *const u8, m.values.len()));
        }
        KernelArg::Dia(m) => {
            dims.extend([m.nrows, m.ncols]);
            slices.push(raw(m.diags.as_ptr() as *const u8, m.diags.len()));
            slices.push(raw(m.lo.as_ptr() as *const u8, m.lo.len()));
            slices.push(raw(m.hi.as_ptr() as *const u8, m.hi.len()));
            slices.push(raw(m.ptr.as_ptr() as *const u8, m.ptr.len()));
            slices.push(raw(m.values.as_ptr() as *const u8, m.values.len()));
        }
        KernelArg::Ell(m) => {
            dims.extend([m.nrows, m.ncols, m.width]);
            slices.push(raw(m.colind.as_ptr() as *const u8, m.colind.len()));
            slices.push(raw(m.values.as_ptr() as *const u8, m.values.len()));
            slices.push(raw(m.rowlen.as_ptr() as *const u8, m.rowlen.len()));
        }
        KernelArg::Jad(m) => {
            dims.extend([m.nrows, m.ncols]);
            slices.push(raw(m.iperm.as_ptr() as *const u8, m.iperm.len()));
            slices.push(raw(m.iperm_inv.as_ptr() as *const u8, m.iperm_inv.len()));
            slices.push(raw(m.dptr.as_ptr() as *const u8, m.dptr.len()));
            slices.push(raw(m.colind.as_ptr() as *const u8, m.colind.len()));
            slices.push(raw(m.values.as_ptr() as *const u8, m.values.len()));
            slices.push(raw(m.rowlen.as_ptr() as *const u8, m.rowlen.len()));
        }
        KernelArg::Sky(m) => {
            dims.push(m.n);
            slices.push(raw(m.lo.as_ptr() as *const u8, m.lo.len()));
            slices.push(raw(m.ptr.as_ptr() as *const u8, m.ptr.len()));
            slices.push(raw(m.values.as_ptr() as *const u8, m.values.len()));
        }
        KernelArg::Bsr(m) => {
            dims.extend([m.nrows, m.ncols, m.r, m.c]);
            slices.push(raw(m.browptr.as_ptr() as *const u8, m.browptr.len()));
            slices.push(raw(m.bcolind.as_ptr() as *const u8, m.bcolind.len()));
            slices.push(raw(m.values.as_ptr() as *const u8, m.values.len()));
        }
        KernelArg::Vbr(m) => {
            dims.extend([m.nrows, m.ncols]);
            slices.push(raw(m.val.as_ptr() as *const u8, m.val.len()));
            slices.push(raw(m.indx.as_ptr() as *const u8, m.indx.len()));
            slices.push(raw(m.bindx.as_ptr() as *const u8, m.bindx.len()));
            slices.push(raw(m.rpntr.as_ptr() as *const u8, m.rpntr.len()));
            slices.push(raw(m.cpntr.as_ptr() as *const u8, m.cpntr.len()));
            slices.push(raw(m.bpntrb.as_ptr() as *const u8, m.bpntrb.len()));
            slices.push(raw(m.bpntre.as_ptr() as *const u8, m.bpntre.len()));
            slices.push(raw(m.rowblk.as_ptr() as *const u8, m.rowblk.len()));
        }
        KernelArg::In(x) => {
            slices.push(raw(x.as_ptr() as *const u8, x.len()));
        }
        KernelArg::Out(y) => {
            slices.push(raw(y.as_mut_ptr() as *const u8, y.len()));
        }
        KernelArg::OutShared(r) => {
            slices.push(raw(r.ptr as *const u8, r.len));
        }
    }
    Ok(())
}

/// How a [`CompiledKernel`](crate::session::CompiledKernel) will
/// execute: native loaded code, or the interpreter with the typed
/// reason native loading was impossible.
#[derive(Debug)]
pub enum KernelBackend {
    /// Runtime-compiled native code that *passed differential
    /// validation*: before being served it reproduced the interpreter's
    /// output bitwise on a deterministic probe instance.
    Validated(LoadedKernel),
    /// Runtime-compiled native code; validation was skipped (no probe
    /// instance exists for this signature).
    Compiled(LoadedKernel),
    /// Interpreter fallback; `reason` says why (no compiler on the
    /// host, unsupported view, emission failure, failed validation…).
    Interpreted { reason: LoadError },
}

impl KernelBackend {
    /// True for either native path (validated or not).
    pub fn is_compiled(&self) -> bool {
        matches!(
            self,
            KernelBackend::Validated(_) | KernelBackend::Compiled(_)
        )
    }

    /// True only for native code that passed differential validation.
    pub fn is_validated(&self) -> bool {
        matches!(self, KernelBackend::Validated(_))
    }
}

// ---------------------------------------------------------------------
// Differential validation
// ---------------------------------------------------------------------

/// One owned operand of the probe instance; `arg` borrows it as a
/// [`KernelArg`].
enum ProbeOperand {
    Csr(Csr<f64>),
    Csc(Csc<f64>),
    Coo(Coo<f64>),
    Dia(Dia<f64>),
    Ell(Ell<f64>),
    Jad(Jad<f64>),
    Sky(Sky<f64>),
    Bsr(Bsr<f64>),
    Vbr(Vbr<f64>),
    In(Vec<f64>),
    Out(Vec<f64>),
}

impl ProbeOperand {
    fn arg(&mut self) -> KernelArg<'_> {
        match self {
            ProbeOperand::Csr(m) => KernelArg::Csr(m),
            ProbeOperand::Csc(m) => KernelArg::Csc(m),
            ProbeOperand::Coo(m) => KernelArg::Coo(m),
            ProbeOperand::Dia(m) => KernelArg::Dia(m),
            ProbeOperand::Ell(m) => KernelArg::Ell(m),
            ProbeOperand::Jad(m) => KernelArg::Jad(m),
            ProbeOperand::Sky(m) => KernelArg::Sky(m),
            ProbeOperand::Bsr(m) => KernelArg::Bsr(m),
            ProbeOperand::Vbr(m) => KernelArg::Vbr(m),
            ProbeOperand::In(x) => KernelArg::In(x),
            ProbeOperand::Out(y) => KernelArg::Out(y),
        }
    }
}

fn lcm(a: usize, b: usize) -> usize {
    fn gcd(mut a: usize, mut b: usize) -> usize {
        while b != 0 {
            (a, b) = (b, a % b);
        }
        a
    }
    a / gcd(a, b) * b
}

/// Builds the deterministic probe operands for a kernel signature, or
/// `None` when some view has no probe construction (validation is then
/// skipped, not failed). The matrix is n×n lower-triangular with a
/// full nonzero diagonal — legal for every format including skyline —
/// with n sized to divide evenly into any BSR block shape in the
/// signature.
fn probe_operands(sig: &KernelSig) -> Option<(i64, Vec<ProbeOperand>)> {
    use bernoulli_formats::Triplets;
    let mut n = 4usize;
    for (_, spec) in &sig.args {
        if let ArgSpec::View(v) = spec {
            if let Some((r, c)) = crate::emit::parse_bsr(v) {
                n = lcm(n, lcm(r, c));
            }
        }
    }
    let mut entries: Vec<(usize, usize, f64)> = Vec::with_capacity(2 * n);
    for i in 0..n {
        entries.push((i, i, 1.0 + 0.125 * i as f64));
        if i > 0 {
            entries.push((i, i - 1, 0.5 + 0.0625 * i as f64));
        }
    }
    let t = Triplets::<f64>::from_entries(n, n, &entries);
    let mut ops = Vec::with_capacity(sig.args.len());
    for (_, spec) in &sig.args {
        let op = match spec {
            ArgSpec::VecIn => ProbeOperand::In((0..n).map(|k| 1.0 + 0.25 * k as f64).collect()),
            ArgSpec::VecOut => ProbeOperand::Out((0..n).map(|k| 0.5 * k as f64).collect()),
            ArgSpec::View(v) => {
                if let Some((r, c)) = crate::emit::parse_bsr(v) {
                    ProbeOperand::Bsr(Bsr::from_triplets(&t, r, c))
                } else {
                    match v.as_str() {
                        "csr" => ProbeOperand::Csr(Csr::from_triplets(&t)),
                        "csc" => ProbeOperand::Csc(Csc::from_triplets(&t)),
                        "coo" => ProbeOperand::Coo(Coo::from_triplets(&t)),
                        "dia" => ProbeOperand::Dia(Dia::from_triplets(&t)),
                        "ell" => ProbeOperand::Ell(Ell::from_triplets(&t)),
                        "jad" => ProbeOperand::Jad(Jad::from_triplets(&t)),
                        "sky" => ProbeOperand::Sky(Sky::from_triplets(&t)),
                        "vbr" => {
                            let pntr = [0, n / 2, n];
                            ProbeOperand::Vbr(Vbr::from_triplets(&t, &pntr, &pntr))
                        }
                        _ => return None,
                    }
                }
            }
        };
        ops.push(op);
    }
    Some((n as i64, ops))
}

/// Runs the freshly loaded kernel against the interpreter on the probe
/// instance. `Ok(true)`: validated (bitwise-identical outputs); the
/// store remembers the verdict and keeps the library open, so warm
/// loads through the same store skip the probe and the `dlopen`.
/// `Ok(false)`: validation skipped — no
/// probe for this signature, or the *interpreter* could not run the
/// probe (then there is no reference to compare against).
/// `Err`: the kernel disagreed or failed — the artifact is quarantined.
fn validate_kernel(p: &Program, plan: &Plan, kernel: &LoadedKernel) -> Result<bool, LoadError> {
    let sig = kernel.sig();
    let Some((n, mut interp_ops)) = probe_operands(sig) else {
        return Ok(false);
    };
    let params = vec![n; sig.params.len()];
    let mut interp_args: Vec<KernelArg<'_>> = interp_ops.iter_mut().map(|o| o.arg()).collect();
    if interp_positional(p, plan, &params, &mut interp_args).is_err() {
        return Ok(false);
    }
    drop(interp_args);
    // Deterministic, so this re-derivation cannot fail after the first
    // call succeeded — but degrade to "skipped" rather than assert.
    let Some((_, mut kernel_ops)) = probe_operands(sig) else {
        return Ok(false);
    };
    let mut kernel_args: Vec<KernelArg<'_>> = kernel_ops.iter_mut().map(|o| o.arg()).collect();
    let reject = |detail: String| {
        kernel.store.quarantine(kernel.lib.path());
        bernoulli_trace::counter!("kernel.validation_failures");
        LoadError::ValidationFailed { detail }
    };
    if let Err(e) = kernel.run(&params, &mut kernel_args) {
        return Err(reject(format!("probe call failed: {e}")));
    }
    drop(kernel_args);
    for (i, (expect, got)) in interp_ops.iter().zip(kernel_ops.iter()).enumerate() {
        let (ProbeOperand::Out(expect), ProbeOperand::Out(got)) = (expect, got) else {
            continue;
        };
        let same = expect.len() == got.len()
            && expect
                .iter()
                .zip(got)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        if !same {
            return Err(reject(format!(
                "output operand {:?} differs from the interpreter on the \
                 {n}×{n} probe (expected {expect:?}, kernel wrote {got:?})",
                sig.args[i].0
            )));
        }
    }
    kernel.store.mark_validated(&kernel.lib);
    bernoulli_trace::counter!("kernel.validations");
    Ok(true)
}

/// Loads (building if needed) the native kernel for a compiled plan,
/// then differentially validates it against the interpreter (unless
/// the store already holds a passing verdict for the artifact). What
/// the load derives from the plan comes from `native`, filled here on
/// the first load of any kernel sharing the cell.
pub(crate) fn load_kernel(
    p: &Program,
    plan: &Plan,
    views: &HashMap<String, FormatView>,
    logical_key: &str,
    native: &NativeCell,
    store: &KernelStore,
) -> Result<LoadedKernel, LoadError> {
    let native = native
        .get_or_init(|| NativeSource::derive(p, plan, views, logical_key).map(Arc::new))
        .clone()?;
    let opened = store.load(&native.artifact)?;
    let lib = opened.library;
    let entry_ptr = lib.symbol(KERNEL_SYMBOL)?;
    // Safety: the artifact was built from `native.artifact`'s source,
    // which exports KERNEL_SYMBOL with exactly the EntryV2 signature
    // (the cache key covers source + ABI version, so a stale artifact
    // cannot match).
    let entry: EntryV2 = unsafe { std::mem::transmute(entry_ptr) };
    let ranged: Option<RangeV2> = if native.has_ranged {
        let p = lib.symbol(KERNEL_RANGE_SYMBOL)?;
        // Safety: same as above, RangeV2 signature.
        Some(unsafe { std::mem::transmute::<*const (), RangeV2>(p) })
    } else {
        None
    };
    bernoulli_trace::counter!("kernel.loads");
    let mut kernel = LoadedKernel {
        lib,
        entry,
        ranged,
        native,
        from_cache: opened.from_cache,
        validated: opened.validated,
        store: store.clone(),
    };
    if !kernel.validated {
        kernel.validated = validate_kernel(p, plan, &kernel)?;
    }
    Ok(kernel)
}

/// Runs a plan through the interpreter with the *same positional
/// call convention* as a loaded kernel, so the two backends are
/// interchangeable: parameters in program order, one [`KernelArg`] per
/// array. Output vectors are copied in and back out around the run.
pub(crate) fn interp_positional(
    p: &Program,
    plan: &Plan,
    params: &[i64],
    args: &mut [KernelArg<'_>],
) -> Result<(), SynthError> {
    if params.len() != p.params.len() {
        return Err(SynthError::Plan(PlanError(format!(
            "expected {} parameters ({:?}), got {}",
            p.params.len(),
            p.params,
            params.len()
        ))));
    }
    if args.len() != p.arrays.len() {
        return Err(SynthError::Plan(PlanError(format!(
            "expected {} operands, got {}",
            p.arrays.len(),
            args.len()
        ))));
    }
    let mut env = ExecEnv::new();
    for (name, v) in p.params.iter().zip(params) {
        env.set_param(name, *v);
    }
    for (decl, arg) in p.arrays.iter().zip(args.iter()) {
        match arg {
            KernelArg::Csr(m) => env.bind_sparse(&decl.name, *m),
            KernelArg::Csc(m) => env.bind_sparse(&decl.name, *m),
            KernelArg::Coo(m) => env.bind_sparse(&decl.name, *m),
            KernelArg::Dia(m) => env.bind_sparse(&decl.name, *m),
            KernelArg::Ell(m) => env.bind_sparse(&decl.name, *m),
            KernelArg::Jad(m) => env.bind_sparse(&decl.name, *m),
            KernelArg::Sky(m) => env.bind_sparse(&decl.name, *m),
            KernelArg::Bsr(m) => env.bind_sparse(&decl.name, *m),
            KernelArg::Vbr(m) => env.bind_sparse(&decl.name, *m),
            KernelArg::In(x) => env.bind_vec(&decl.name, x.to_vec()),
            KernelArg::Out(y) => env.bind_vec(&decl.name, y.to_vec()),
            KernelArg::OutShared(_) => {
                return Err(SynthError::Plan(PlanError(format!(
                    "operand {:?}: raw shared outputs are only usable on the \
                     compiled backend",
                    decl.name
                ))));
            }
        };
    }
    run_plan(plan, &mut env)?;
    let mut outs: Vec<(usize, Vec<f64>)> = Vec::new();
    for (i, decl) in p.arrays.iter().enumerate() {
        if matches!(args[i], KernelArg::Out(_)) {
            outs.push((i, env.try_take_vec(&decl.name)?));
        }
    }
    drop(env);
    for (i, v) in outs {
        if let KernelArg::Out(y) = &mut args[i] {
            if y.len() != v.len() {
                return Err(SynthError::Plan(PlanError(format!(
                    "output {:?} length changed across the run ({} -> {})",
                    p.arrays[i].name,
                    y.len(),
                    v.len()
                ))));
            }
            y.copy_from_slice(&v);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::Session;
    use bernoulli_formats::{SparseView, Triplets};

    const MVM: &str = "
        program mvm(M, N) {
          in matrix A[M][N];
          in vector x[N];
          inout vector y[M];
          for i in 0..M {
            for j in 0..N {
              y[i] = y[i] + A[i][j] * x[j];
            }
          }
        }
    ";

    fn csr3() -> Csr<f64> {
        Csr::from_triplets(&Triplets::from_entries(
            3,
            3,
            &[(0, 0, 2.0), (1, 2, 1.0), (2, 1, 4.0)],
        ))
    }

    fn compile(a: &Csr<f64>) -> crate::session::CompiledKernel {
        let s = Session::new();
        let p = s.parse(MVM).expect("spec parses");
        let bound = s.bind(&p, &[("A", a.format_view())]).expect("binds");
        s.compile(&bound).expect("compiles")
    }

    #[test]
    fn cdylib_source_is_self_contained_with_ranged_entry() {
        let a = csr3();
        let k = compile(&a);
        let (src, ranged) = cdylib_source(k.program(), k.plan(), k.views()).expect("source");
        assert!(ranged, "csr mvm outer row loop must be range-splittable");
        assert!(src.contains("#[no_mangle]"), "{src}");
        assert!(src.contains(KERNEL_SYMBOL));
        assert!(src.contains(KERNEL_RANGE_SYMBOL));
        assert!(
            src.contains("pub struct Csr"),
            "mirror struct missing:\n{src}"
        );
        assert!(
            !src.contains("bernoulli_formats") && src.contains("#![no_std]"),
            "kernel crate must depend on neither the workspace nor std:\n{src}"
        );
        // Cache-blocked CSR traversal in the full entry.
        assert!(src.contains("r0__"), "blocked row walk missing:\n{src}");
    }

    /// A kernel crate in which a panic path survives does not link: the
    /// load fails with the linker's words as the typed reason and the
    /// kernel is served by the interpreter, never as native code.
    #[test]
    fn a_kernel_that_could_panic_is_served_by_the_interpreter(
    ) -> Result<(), Box<dyn std::error::Error>> {
        if bernoulli_kernel_cache::rustc_info().is_err() {
            return Ok(());
        }
        let a = csr3();
        let k = compile(&a);
        let mut native = NativeSource::derive(k.program(), k.plan(), k.views(), k.cache_key())?;
        let (source, _) = cdylib_source(k.program(), k.plan(), k.views())?;
        let planted = source.replace("*x_.get((j_) as usize)?", "x_[(j_) as usize]");
        assert_ne!(planted, source, "nothing was planted in:\n{source}");
        native.artifact = ArtifactSpec::new("planted-panic".to_string(), planted)?;
        let cell: NativeCell = Arc::new(OnceLock::from(Ok(Arc::new(native))));
        let store = KernelStore::at(
            std::env::temp_dir().join(format!("bernoulli-planted-{}", std::process::id())),
        );
        let reason = load_kernel(k.program(), k.plan(), k.views(), "planted", &cell, &store)
            .expect_err("a panic path must not load as native code");
        assert!(
            matches!(&reason, LoadError::Cache(KernelCacheError::CompileFailed { stderr })
                if stderr.contains("bernoulli_kernel_has_a_panic_path")),
            "expected CompileFailed naming the undefined symbol, got {reason:?}"
        );
        let (x, mut y) = (vec![1.0, 2.0, 3.0], vec![0.0; 3]);
        let mut args = [
            KernelArg::Csr(&a),
            KernelArg::In(&x),
            KernelArg::Out(&mut y),
        ];
        k.run_with(&KernelBackend::Interpreted { reason }, &[3, 3], &mut args)?;
        assert_eq!(y, vec![2.0, 3.0, 8.0]);
        let _ = std::fs::remove_dir_all(store.dir());
        Ok(())
    }

    #[test]
    fn sig_rejects_unmarshallable_views() {
        let s = Session::new();
        let p = s
            .parse(
                "program f(N) { in vector v[N]; inout vector y[N];
                  for i in 0..N { y[i] = y[i] + v[i]; } }",
            )
            .expect("parses");
        let hv = bernoulli_formats::formats::sparsevec::hashvec_format_view();
        let views: HashMap<String, FormatView> = [("v".to_string(), hv)].into_iter().collect();
        match KernelSig::of(&p, &views) {
            Err(LoadError::UnsupportedView { array, view }) => {
                assert_eq!(array, "v");
                assert_eq!(view, "hashvec");
            }
            other => panic!("expected UnsupportedView, got {other:?}"),
        }
    }

    #[test]
    fn positional_interpreter_matches_env_interpreter() {
        let a = csr3();
        let k = compile(&a);
        let x = vec![1.0, 2.0, 3.0];
        let mut y = vec![0.0; 3];
        let mut args = [
            KernelArg::Csr(&a),
            KernelArg::In(&x),
            KernelArg::Out(&mut y),
        ];
        interp_positional(k.program(), k.plan(), &[3, 3], &mut args).expect("runs");
        assert_eq!(y, vec![2.0, 3.0, 8.0]);
    }

    #[test]
    fn positional_interpreter_rejects_bad_arity() {
        let a = csr3();
        let k = compile(&a);
        let x = vec![1.0, 2.0, 3.0];
        let mut args = [KernelArg::Csr(&a), KernelArg::In(&x)];
        let err = interp_positional(k.program(), k.plan(), &[3, 3], &mut args)
            .expect_err("missing output operand");
        assert!(matches!(err, SynthError::Plan(_)), "{err:?}");
    }

    /// An artifact whose entry returns an unknown nonzero status is an
    /// ABI breach: the call must surface `KernelCallError::Abi`, the
    /// artifact must land in the store's quarantine, and the store must
    /// refuse to serve it again.
    #[test]
    fn abi_breach_quarantines_the_artifact() -> Result<(), KernelCacheError> {
        if bernoulli_kernel_cache::rustc_info().is_err() {
            return Ok(());
        }
        // A well-formed cdylib that honours the EntryV2 signature but
        // reports a status code no host version understands.
        const ROGUE: &str = "
            #[no_mangle]
            pub extern \"C\" fn bernoulli_kernel_v2(
                _params: *const i64, _nparams: usize,
                _dims: *const usize, _ndims: usize,
                _slices: *const u8, _nslices: usize,
            ) -> i32 { 7 }
        ";
        let dir = std::env::temp_dir().join(format!("bernoulli-abi-breach-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = KernelStore::at(&dir);
        let artifact = ArtifactSpec::new("abi-breach-test".to_string(), ROGUE.to_string())?;
        let lib = store.load(&artifact)?.library;
        let path = lib.path().to_path_buf();
        // Pretend the rogue once passed its probe: the breach must
        // revoke that too.
        store.mark_validated(&lib);
        let entry: EntryV2 = unsafe { std::mem::transmute(lib.symbol(KERNEL_SYMBOL)?) };
        let kernel = LoadedKernel {
            lib,
            entry,
            ranged: None,
            native: Arc::new(NativeSource {
                sig: KernelSig {
                    params: Vec::new(),
                    args: Vec::new(),
                    ndims: 0,
                    nslices: 0,
                },
                artifact: artifact.clone(),
                has_ranged: false,
                outer_matrix: None,
            }),
            from_cache: false,
            validated: false,
            store: store.clone(),
        };
        let outcome = kernel.run(&[], &mut []);
        assert!(
            matches!(outcome, Err(KernelCallError::Abi { code: 7 })),
            "expected Abi {{ code: 7 }}, got {outcome:?}"
        );
        assert!(
            store.is_quarantined(&path),
            "a bad status must quarantine the artifact"
        );
        assert!(
            !store.is_validated(&path),
            "quarantine must also revoke the validated status"
        );
        let refusal = store.get_or_build(&artifact);
        assert!(
            matches!(refusal, Err(KernelCacheError::Quarantined { .. })),
            "expected Quarantined refusal, got {refusal:?}"
        );
        store.clear_quarantine();
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }
}
