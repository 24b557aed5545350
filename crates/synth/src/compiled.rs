//! The compiled-kernel execution path: runtime codegen, loading, and
//! the typed interpreter fallback.
//!
//! [`CompiledKernel::load`](crate::session::CompiledKernel::load)
//! closes the paper's emit → run loop at runtime: the best plan is
//! specialized into a **self-contained** kernel crate (no dependency on
//! this workspace — the format structs are mirrored into the generated
//! source as borrowed-slice views, with the formats' own `find` text),
//! `rustc` builds it to a `cdylib`
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
//! of every operand in declaration order, each format's in the order of
//! its [`Layout`] — the one description, declared beside the format
//! struct in `bernoulli-formats`, from which the mirror struct, its
//! unpacking in the entry points, the host-side marshalling and the
//! probe instance are all derived. Returns 0 on success, 1 when an
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
use bernoulli_formats::layout::{levels_of_view, Block, Elem, Layout, RawArray, Stored};
use bernoulli_formats::level::Kind;
use bernoulli_formats::view::FormatView;
use bernoulli_formats::{Bsr, Csc, Csr, Jad};
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
/// entry performs (bounds the live band of `y` and of the row pointers per call while
/// keeping the per-block dispatch overhead negligible).
const CSR_ROW_BLOCK: i64 = 2048;

// The ABI's array argument (`RawSlice` in the kernel crate: one base
// pointer plus a length, in elements of the field's declared type) is
// `RawArray` on the host side, as `Stored::parts` yields it.
type EntryV2 =
    unsafe extern "C" fn(*const i64, usize, *const usize, usize, *const RawArray, usize) -> i32;
type RangeV2 = unsafe extern "C" fn(
    *const i64,
    usize,
    *const usize,
    usize,
    *const RawArray,
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
///
/// A matrix of any layout is a [`KernelArg::Matrix`]. The four typed
/// matrix variants say no more than it does: they predate it, and stay
/// only because the benchmark harness names them (`benchmark/src/`
/// `inputs.rs` and `stream.rs`).
pub enum KernelArg<'a> {
    /// A matrix of any registered layout.
    Matrix(&'a dyn Stored),
    Csr(&'a Csr<f64>),
    Csc(&'a Csc<f64>),
    Jad(&'a Jad<f64>),
    Bsr(&'a Bsr<f64>),
    /// Read-only dense vector.
    In(&'a [f64]),
    /// Writable dense vector.
    Out(&'a mut [f64]),
    /// Writable dense vector shared across concurrent ranged calls
    /// (see [`RawOut`]).
    OutShared(RawOut),
}

impl KernelArg<'_> {
    /// The operand with its format erased — the one place the formats
    /// of the ABI are told apart; everything past it reads the
    /// operand's [`Layout`].
    pub(crate) fn operand(&mut self) -> Operand<'_> {
        match self {
            KernelArg::Matrix(m) => Operand::Matrix(*m),
            KernelArg::Csr(m) => Operand::Matrix(*m),
            KernelArg::Csc(m) => Operand::Matrix(*m),
            KernelArg::Jad(m) => Operand::Matrix(*m),
            KernelArg::Bsr(m) => Operand::Matrix(*m),
            KernelArg::In(x) => Operand::In(x),
            KernelArg::Out(y) => Operand::Out(y),
            KernelArg::OutShared(r) => Operand::OutShared(*r),
        }
    }
}

/// One operand as either backend takes it.
pub(crate) enum Operand<'a> {
    Matrix(&'a dyn Stored),
    In(&'a [f64]),
    Out(&'a mut [f64]),
    OutShared(RawOut),
}

impl Operand<'_> {
    fn kind(&self) -> &'static str {
        match self {
            Operand::Matrix(m) => m.layout().name,
            Operand::In(_) => "vec-in",
            Operand::Out(_) | Operand::OutShared(_) => "vec-out",
        }
    }
}

/// The mirror struct emitted into the self-contained kernel source for
/// a layout, so the generated body compiles without this workspace:
/// the format's fields as borrowed slices, and the format's own `find`
/// text. Like the body, that text has no panic path: on arrays that are
/// not a valid instance of the format a search finds nothing.
fn mirror_decl(layout: &Layout) -> String {
    let ty = layout.type_name;
    let mut out = format!("pub struct {ty}<T: 'static = f64> {{\n");
    for dim in layout.dims {
        out.push_str(&format!("    pub {dim}: usize,\n"));
    }
    for (array, elem) in layout.arrays {
        let elem = match elem {
            Elem::F64 => "T",
            index => index.rust(),
        };
        out.push_str(&format!("    pub {array}: &'static [{elem}],\n"));
    }
    out.push_str(&format!("}}\nimpl<T> {ty}<T> {{\n{}}}\n", layout.find));
    out
}

/// One operand slot of the kernel signature.
#[derive(Clone, Debug)]
pub enum ArgSpec {
    /// A sparse matrix: its view's name, and the [`Layout`] it is
    /// marshalled by and the block shape that name resolves to.
    View {
        name: String,
        layout: &'static Layout,
        block: Option<Block>,
    },
    /// A read-only dense vector.
    VecIn,
    /// A writable dense vector.
    VecOut,
}

impl ArgSpec {
    fn kind(&self) -> &str {
        match self {
            ArgSpec::View { name, .. } => name,
            ArgSpec::VecIn => "vec-in",
            ArgSpec::VecOut => "vec-out",
        }
    }
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
                    let Some((layout, block)) = Layout::of_view(&v.name) else {
                        return Err(LoadError::UnsupportedView {
                            array: a.name.clone(),
                            view: v.name.clone(),
                        });
                    };
                    ndims += layout.dims.len();
                    nslices += layout.arrays.len();
                    ArgSpec::View {
                        name: v.name.clone(),
                        layout,
                        block,
                    }
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

/// The kernel crate's local for an operand.
fn operand_var(array: &str) -> String {
    format!("{}_", array.to_lowercase())
}

/// The matrix whose level the plan's outermost step enumerates, if any.
fn outer_matrix(plan: &Plan) -> Option<&str> {
    match &plan.steps.first()?.kind {
        StepKind::Level { primary, .. } => Some(&primary.matrix),
        _ => None,
    }
}

/// The kernel crate's panic handler. The symbol it calls is defined
/// nowhere, and the build refuses undefined symbols: the crate links
/// only if the optimiser removed every path that reaches the handler.
const PANIC_PROOF: &str = "extern \"C\" {\n    fn bernoulli_kernel_has_a_panic_path() -> !;\n}\n\n#[panic_handler]\nfn panic(_: &core::panic::PanicInfo) -> ! {\n    unsafe { bernoulli_kernel_has_a_panic_path() }\n}\n\n";

/// Generates the complete, self-contained cdylib source for a plan:
/// mirror structs, the specialized kernel body, and the `extern "C"`
/// wrapper(s), for the signature `sig` of `(p, views)`. Returns the
/// source and whether a ranged entry exists.
pub(crate) fn cdylib_source(
    p: &Program,
    plan: &Plan,
    views: &HashMap<String, FormatView>,
    sig: &KernelSig,
) -> Result<(String, bool), LoadError> {
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

    // One mirror struct per distinct layout used: two block shapes of
    // the same format share theirs.
    let mut mirrored: Vec<&str> = Vec::new();
    // Shared operand-unpacking text (used by every entry point).
    let mut unpack = String::new();
    let (mut di, mut si) = (0usize, 0usize);
    let mut call_args: Vec<String> = Vec::new();
    for i in 0..sig.params.len() {
        call_args.push(format!("*params.get({i})?"));
    }
    for (name, spec) in &sig.args {
        let var = operand_var(name);
        match spec {
            ArgSpec::View { layout, .. } => {
                if !mirrored.contains(&layout.name) {
                    mirrored.push(layout.name);
                    out.push_str(&mirror_decl(layout));
                    out.push('\n');
                }
                let mut fields: Vec<String> = Vec::new();
                for d in layout.dims {
                    fields.push(format!("{d}: *dims.get({di})?"));
                    di += 1;
                }
                for (f, t) in layout.arrays {
                    fields.push(format!("{f}: sl::<{}>(slices.get({si})?)", t.rust()));
                    si += 1;
                }
                unpack.push_str(&format!(
                    "        let {var} = {}::<f64> {{ {} }};\n",
                    layout.type_name,
                    fields.join(", ")
                ));
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
    // A ranged body exists only for a plan whose outermost step
    // enumerates the rows of a matrix: the full range is its row count.
    if let Some(outer) = ranged_body.as_ref().and(outer_matrix(plan)) {
        let nrows = format!("{}.nrows", operand_var(outer));
        let compressed_rows = views.get(outer).is_some_and(|v| {
            let below = levels_of_view(&v.name).and_then(|(levels, _)| levels.level(0, 1));
            below.is_some_and(|level| matches!(level.kind, Kind::Compressed { .. }))
        });
        if compressed_rows {
            // Cache-blocked traversal of compressed rows (CSR): walk
            // the rows in fixed blocks through the ranged body.
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
pub(crate) type NativeCell = OnceLock<Result<Arc<NativeSource>, LoadError>>;

impl NativeSource {
    fn derive(
        p: &Program,
        plan: &Plan,
        views: &HashMap<String, FormatView>,
        logical_key: &str,
    ) -> Result<NativeSource, LoadError> {
        let sig = KernelSig::of(p, views)?;
        let (source, has_ranged) = cdylib_source(p, plan, views, &sig)?;
        let key = format!("abi{KERNEL_ABI_VERSION}|{logical_key}");
        let outer_matrix = outer_matrix(plan).filter(|_| has_ranged);
        Ok(NativeSource {
            sig,
            artifact: ArtifactSpec::new(key, source)?,
            has_ranged,
            outer_matrix: outer_matrix.map(str::to_string),
        })
    }
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
    /// validation was skipped because the interpreter could not run
    /// the probe instance.
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
        self.call(params, args.iter_mut().map(KernelArg::operand), None)
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
        let Some(ranged) = self.ranged else {
            return Err(KernelCallError::NoRangedEntry);
        };
        let operands = args.iter_mut().map(KernelArg::operand);
        self.call(params, operands, Some((ranged, row_lo, row_hi)))
    }

    fn call<'a>(
        &self,
        params: &[i64],
        operands: impl ExactSizeIterator<Item = Operand<'a>>,
        range: Option<(RangeV2, i64, i64)>,
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
        if operands.len() != sig.args.len() {
            return Err(KernelCallError::Mismatch {
                detail: format!(
                    "expected {} operands, got {}",
                    sig.args.len(),
                    operands.len()
                ),
            });
        }
        let mut dims: Vec<usize> = Vec::with_capacity(sig.ndims);
        let mut slices: Vec<RawArray> = Vec::with_capacity(sig.nslices);
        for ((name, spec), operand) in sig.args.iter().zip(operands) {
            marshal(name, spec, operand, &mut dims, &mut slices)?;
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
            Some((ranged, lo, hi)) => unsafe {
                ranged(
                    params.as_ptr(),
                    params.len(),
                    dims.as_ptr(),
                    dims.len(),
                    slices.as_ptr(),
                    slices.len(),
                    lo,
                    hi,
                )
            },
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

/// Appends one operand to the flattened call arguments, in the order
/// the kernel crate unpacks them.
fn marshal(
    name: &str,
    spec: &ArgSpec,
    operand: Operand<'_>,
    dims: &mut Vec<usize>,
    slices: &mut Vec<RawArray>,
) -> Result<(), KernelCallError> {
    let vector = |ptr: *const f64, len: usize| RawArray {
        ptr: ptr.cast(),
        len,
    };
    match (spec, operand) {
        // The instance must be of the view's layout and, where the view
        // name carries the block shape the kernel was specialized for,
        // of exactly that shape.
        (ArgSpec::View { layout, block, .. }, Operand::Matrix(m))
            if layout.name == m.layout().name && *block == m.block() =>
        {
            m.parts(dims, slices)
        }
        (ArgSpec::VecIn, Operand::In(x)) => slices.push(vector(x.as_ptr(), x.len())),
        (ArgSpec::VecOut, Operand::Out(y)) => slices.push(vector(y.as_mut_ptr(), y.len())),
        (ArgSpec::VecOut, Operand::OutShared(r)) => slices.push(vector(r.ptr, r.len)),
        (spec, operand) => {
            return Err(KernelCallError::Mismatch {
                detail: format!(
                    "operand {name:?}: expected {}, got {}",
                    spec.kind(),
                    operand.kind()
                ),
            })
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
    /// Runtime-compiled native code; validation was skipped (the
    /// interpreter could not run the probe instance).
    Compiled(LoadedKernel),
    /// Interpreter fallback; `reason` says why (no compiler on the
    /// host, unsupported view, emission failure, failed validation…).
    ///
    /// A service level, not an outage: same answers bit for bit, at a
    /// measured 57 ns (mvm/csr) and 71 ns (ts/csr) per stored entry
    /// on the 1072-row evaluation matrix — 64× and 75× the native
    /// kernels' 0.90 and 0.95 ns, 3.5–4× the 16.5–18.7 ns a bare walk of the
    /// same `dyn SparseView` cursors costs (EXPERIMENTS.md, PR 20; CI
    /// fails above 150× native).
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

/// One owned operand of the probe instance.
enum ProbeOperand {
    Matrix(Box<dyn Stored>),
    In(Vec<f64>),
    Out(Vec<f64>),
}

impl ProbeOperand {
    fn operand(&mut self) -> Operand<'_> {
        match self {
            ProbeOperand::Matrix(m) => Operand::Matrix(&**m),
            ProbeOperand::In(x) => Operand::In(x),
            ProbeOperand::Out(y) => Operand::Out(y),
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

/// Builds the deterministic probe operands for a kernel signature. The
/// matrix is n×n lower-triangular with a full nonzero diagonal — legal
/// for every format including skyline — with n sized to divide evenly
/// into every block shape the signature's view names carry; a format
/// that is cut into blocks but names no shape in its view (VBR) is cut
/// in halves.
fn probe_operands(sig: &KernelSig) -> (i64, Vec<ProbeOperand>) {
    use bernoulli_formats::Triplets;
    let blocks = sig.args.iter().filter_map(|(_, spec)| match spec {
        ArgSpec::View { block, .. } => *block,
        ArgSpec::VecIn | ArgSpec::VecOut => None,
    });
    let n = blocks.fold(4usize, |n, (r, c)| lcm(n, lcm(r, c)));
    let mut entries: Vec<(usize, usize, f64)> = Vec::with_capacity(2 * n);
    for i in 0..n {
        entries.push((i, i, 1.0 + 0.125 * i as f64));
        if i > 0 {
            entries.push((i, i - 1, 0.5 + 0.0625 * i as f64));
        }
    }
    let t = Triplets::<f64>::from_entries(n, n, &entries);
    let ops = sig.args.iter().map(|(_, spec)| match spec {
        ArgSpec::VecIn => ProbeOperand::In((0..n).map(|k| 1.0 + 0.25 * k as f64).collect()),
        ArgSpec::VecOut => ProbeOperand::Out((0..n).map(|k| 0.5 * k as f64).collect()),
        ArgSpec::View { layout, block, .. } => {
            ProbeOperand::Matrix((layout.from_triplets)(&t, block.unwrap_or((n / 2, n / 2))))
        }
    });
    (n as i64, ops.collect())
}

/// Runs the freshly loaded kernel against the interpreter on the probe
/// instance. `Ok(true)`: validated (bitwise-identical outputs); the
/// store remembers the verdict and keeps the library open, so warm
/// loads through the same store skip the probe and the `dlopen`.
/// `Ok(false)`: validation skipped — the *interpreter* could not run
/// the probe, so there is no reference to compare against.
/// `Err`: the kernel disagreed or failed — the artifact is quarantined.
fn validate_kernel(p: &Program, plan: &Plan, kernel: &LoadedKernel) -> Result<bool, LoadError> {
    let sig = kernel.sig();
    let (n, mut interp_ops) = probe_operands(sig);
    let params = vec![n; sig.params.len()];
    let operands = interp_ops.iter_mut().map(ProbeOperand::operand);
    if interp_positional(p, plan, &params, operands).is_err() {
        return Ok(false);
    }
    let (_, mut kernel_ops) = probe_operands(sig);
    let reject = |detail: String| {
        kernel.store.quarantine(kernel.lib.path());
        LoadError::ValidationFailed { detail }
    };
    let operands = kernel_ops.iter_mut().map(ProbeOperand::operand);
    if let Err(e) = kernel.call(&params, operands, None) {
        return Err(reject(format!("probe call failed: {e}")));
    }
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
/// interchangeable: parameters in program order, one operand per
/// array. Output vectors are copied in and back out around the run.
pub(crate) fn interp_positional<'a>(
    p: &Program,
    plan: &Plan,
    params: &[i64],
    operands: impl Iterator<Item = Operand<'a>>,
) -> Result<(), SynthError> {
    if params.len() != p.params.len() {
        return Err(SynthError::Plan(PlanError(format!(
            "expected {} parameters ({:?}), got {}",
            p.params.len(),
            p.params,
            params.len()
        ))));
    }
    let operands: Vec<Operand<'a>> = operands.collect();
    if operands.len() != p.arrays.len() {
        return Err(SynthError::Plan(PlanError(format!(
            "expected {} operands, got {}",
            p.arrays.len(),
            operands.len()
        ))));
    }
    let mut env = ExecEnv::new();
    for (name, v) in p.params.iter().zip(params) {
        env.set_param(name, *v);
    }
    for (decl, operand) in p.arrays.iter().zip(&operands) {
        match operand {
            Operand::Matrix(m) => env.bind_sparse(&decl.name, *m),
            Operand::In(x) => env.bind_vec(&decl.name, x.to_vec()),
            Operand::Out(y) => env.bind_vec(&decl.name, y.to_vec()),
            Operand::OutShared(_) => {
                return Err(SynthError::Plan(PlanError(format!(
                    "operand {:?}: raw shared outputs are only usable on the \
                     compiled backend",
                    decl.name
                ))));
            }
        };
    }
    run_plan(plan, &mut env)?;
    for (decl, operand) in p.arrays.iter().zip(operands) {
        if let Operand::Out(y) = operand {
            let v = env.try_take_vec(&decl.name)?;
            if y.len() != v.len() {
                return Err(SynthError::Plan(PlanError(format!(
                    "output {:?} length changed across the run ({} -> {})",
                    decl.name,
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
    fn cdylib_source_is_self_contained_with_ranged_entry() -> Result<(), LoadError> {
        let a = csr3();
        let k = compile(&a);
        let sig = KernelSig::of(k.program(), k.views())?;
        let (src, ranged) = cdylib_source(k.program(), k.plan(), k.views(), &sig)?;
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
        Ok(())
    }

    /// Every emitted crate declares each array of a layout's mirror at
    /// the element type the layout declares, and unpacks it as one: no
    /// array is `usize` (the dims are, and are no array). Every layout,
    /// the blocked one at two shapes.
    #[test]
    fn mirror_arrays_have_their_layouts_element_types() -> Result<(), Box<dyn std::error::Error>> {
        let s = Session::new();
        let p = s.parse(MVM)?;
        for layout in bernoulli_formats::LAYOUTS {
            let shapes: &[Block] = if layout.blocked {
                &[(2, 2), (4, 2)]
            } else {
                &[(1, 1)]
            };
            for &shape in shapes {
                let k = s.compile(&s.bind(&p, &[("A", (layout.view)(shape))])?)?;
                let sig = KernelSig::of(k.program(), k.views())?;
                let (src, _) = cdylib_source(k.program(), k.plan(), k.views(), &sig)?;
                let what = format!("{} at {shape:?}", layout.name);
                for &(array, elem) in layout.arrays {
                    let mirrored = match elem {
                        Elem::F64 => "T",
                        index => index.rust(),
                    };
                    let decl = format!("    pub {array}: &'static [{mirrored}],\n");
                    assert!(src.contains(&decl), "{what}: no {decl:?} in\n{src}");
                    let unpacked = format!("{array}: sl::<{}>(", elem.rust());
                    assert!(src.contains(&unpacked), "{what}: no {unpacked:?} in\n{src}");
                }
                for usize_array in ["'static [usize]", "sl::<usize>"] {
                    assert!(!src.contains(usize_array), "{what}:\n{src}");
                }
            }
        }
        Ok(())
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
        let (source, _) = cdylib_source(k.program(), k.plan(), k.views(), &native.sig)?;
        let planted = source.replace("*x_.get((j_) as usize)?", "x_[(j_) as usize]");
        assert_ne!(planted, source, "nothing was planted in:\n{source}");
        native.artifact = ArtifactSpec::new("planted-panic".to_string(), planted)?;
        let cell: NativeCell = OnceLock::from(Ok(Arc::new(native)));
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
        let operands = args.iter_mut().map(KernelArg::operand);
        interp_positional(k.program(), k.plan(), &[3, 3], operands).expect("runs");
        assert_eq!(y, vec![2.0, 3.0, 8.0]);
    }

    #[test]
    fn positional_interpreter_rejects_bad_arity() {
        let a = csr3();
        let k = compile(&a);
        let x = vec![1.0, 2.0, 3.0];
        let mut args = [KernelArg::Csr(&a), KernelArg::In(&x)];
        let operands = args.iter_mut().map(KernelArg::operand);
        let err = interp_positional(k.program(), k.plan(), &[3, 3], operands)
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
            #![no_std]
            #[panic_handler]
            fn panic(_: &core::panic::PanicInfo) -> ! { loop {} }
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
