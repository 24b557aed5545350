//! The compiled-kernel execution path: runtime codegen, loading, and
//! the typed interpreter fallback.
//!
//! [`CompiledKernel::load`](crate::session::CompiledKernel::load)
//! closes the paper's emit → run loop at runtime: the best plan is
//! specialized into a **self-contained** kernel crate (no dependency on
//! this workspace — the format structs are mirrored into the generated
//! source as borrowed-slice views, beside the one search per level kind
//! the host runs too, `bernoulli_formats::search`, as its module `search`),
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
//! open). Plans whose [`Codegen`] record has a row-band entry
//! ([`Codegen::ranged`]) additionally export `bernoulli_kernel_range_v2`
//! with trailing `(int64_t row_lo, int64_t row_hi)`, which the
//! full-range entry itself calls, in blocks of `CSR_ROW_BLOCK` rows
//! where the record says the rows are stored compressed
//! ([`Ranged::row_blocked`](crate::codegen::Ranged::row_blocked)).
//! The ranged body is handed each output vector's rows `row_lo..row_hi`
//! alone, after a check that they lie in it (status 1 where they do
//! not), so that bands running at once never hold overlapping `&mut`
//! slices; the full-range entry of an unblocked plan hands it the whole
//! vectors with `row_lo` 0.
//! What the crate exports, and whether it can be built at all, is read
//! from the record; nothing here decides it.
//!
//! # Row bands
//!
//! The row-band contract is that *writes stay in the band*: a call of
//! the ranged entry over rows `lo..hi` writes no output element outside
//! those rows and reads none another band writes, so the outer row loop
//! carries no dependence. [`LoadedKernel::run`] relies on it: when the
//! plan has a row-band entry, [`Pool::global`] has more than one lane and
//! the outer operand stores at least [`SPLIT_MIN_ENTRIES`] entries, it
//! marshals the operands once and calls the ranged entry once per band
//! of the operand's [`Stored::row_bands`] (stored-entry balanced where
//! the layout has a partition, even cuts otherwise), four bands per
//! lane, which the pool's lanes take in turn. Each output row has one writer and is accumulated in
//! the order the full-range entry uses, so the result is bitwise the
//! sequential one; a band's error is reported as the first failing
//! band's (status 1 already allows partly written outputs).
//! [`LoadedKernel::run_in_bands`] is the same call with the band count
//! given.

use crate::codegen::Codegen;
use crate::emit::{print, EmitError};
use crate::interp::{run_plan, ExecEnv, PlanError};
use crate::plan::Plan;
use crate::search::SynthError;
use bernoulli_formats::layout::{Block, Elem, Layout, RawArray, Stored, SEARCH_SOURCE};
use bernoulli_formats::view::FormatView;
use bernoulli_formats::{Bsr, Csc, Csr, FormatError, Jad};
use bernoulli_ir::expr::SlotExpr;
use bernoulli_ir::{ArrayKind, Program, Role};
use bernoulli_kernel_cache::{ArtifactSpec, KernelCacheError, KernelStore, Library};
use bernoulli_pool::Pool;
use std::collections::HashMap;
use std::sync::atomic::{AtomicI32, Ordering};
use std::sync::{Arc, OnceLock};

/// Version of the `extern "C"` kernel ABI described in the module docs.
/// Part of every artifact cache key: an ABI change can never load a
/// stale artifact.
pub const KERNEL_ABI_VERSION: u32 = 2;

/// Exported symbol of the full-range entry point.
pub const KERNEL_SYMBOL: &str = "bernoulli_kernel_v2";

/// Exported symbol of the row-ranged entry point (present only for
/// plans whose record has a row-band entry).
pub const KERNEL_RANGE_SYMBOL: &str = "bernoulli_kernel_range_v2";

/// Rows per block of the cache-blocked CSR traversal the full-range
/// entry performs (bounds the live band of `y` and of the row pointers per call while
/// keeping the per-block dispatch overhead negligible).
const CSR_ROW_BLOCK: i64 = 2048;

/// Stored entries of the outer operand from which [`LoadedKernel::run`]
/// splits a kernel with a row-band entry over the pool's lanes. Waking
/// a parked worker costs what several thousand entries do: in the sweep
/// of EXPERIMENTS.md, PR 46 (CSR MVM on two lanes), the split loses at
/// the 12 444 entries of the evaluation matrix, is even at twice that,
/// gains 1.1–1.3× at 50 000 and 1.45× or more from 100 000.
pub const SPLIT_MIN_ENTRIES: usize = 1 << 16;

/// Row bands per pool lane in a split [`LoadedKernel::run`]. With more
/// bands than lanes a lane that finishes early, or a worker that wakes
/// late, takes the next band instead of leaving the others to wait for
/// the slowest: on two lanes 4 per lane beat 1 at every size of the
/// sweep (EXPERIMENTS.md, PR 46) and 8 gained nothing more.
const BANDS_PER_LANE: usize = 4;

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
    /// returned early (in a run split into bands, some band did);
    /// outputs may be partly written.
    OutOfBounds,
    /// The plan has no row-band entry, so its rows cannot be run as
    /// bands.
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
        }
    }
}

/// One operand as either backend takes it.
pub(crate) enum Operand<'a> {
    Matrix(&'a dyn Stored),
    In(&'a [f64]),
    Out(&'a mut [f64]),
}

impl Operand<'_> {
    fn kind(&self) -> &'static str {
        match self {
            Operand::Matrix(m) => m.layout().name,
            Operand::In(_) => "vec-in",
            Operand::Out(_) => "vec-out",
        }
    }
}

/// The mirror struct emitted into the self-contained kernel source for
/// a layout, so the generated body compiles without this workspace:
/// the format's fields as borrowed slices.
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
    out + "}\n"
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
    /// Each operand's declared extents over the parameters, or none
    /// where one does not resolve to them.
    extents: Vec<Option<Vec<SlotExpr>>>,
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
        let param = |v: &str| p.params.iter().position(|q| q == v).ok_or(());
        let extents = p.arrays.iter().map(|a| {
            let resolved = a.dims.iter().map(|d| d.resolve(param));
            resolved.collect::<Result<Vec<_>, ()>>().ok()
        });
        let extents = extents.collect();
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
            extents,
        })
    }
}

/// The kernel crate's local for an operand.
fn operand_var(array: &str) -> String {
    format!("{}_", array.to_lowercase())
}

/// The kernel crate's panic handler. The symbol it calls is defined
/// nowhere, and the build refuses undefined symbols: the crate links
/// only if the optimiser removed every path that reaches the handler.
const PANIC_PROOF: &str = "extern \"C\" {\n    fn bernoulli_kernel_has_a_panic_path() -> !;\n}\n\n#[panic_handler]\nfn panic(_: &core::panic::PanicInfo) -> ! {\n    unsafe { bernoulli_kernel_has_a_panic_path() }\n}\n\n";

/// Generates the complete, self-contained cdylib source for a plan:
/// mirror structs, the specialized kernel body, and the `extern "C"`
/// wrapper(s), for the signature `sig` of `(p, views)`, as the plan's
/// record `cg` says.
pub(crate) fn cdylib_source(
    p: &Program,
    plan: &Plan,
    views: &HashMap<String, FormatView>,
    cg: &Codegen,
    sig: &KernelSig,
) -> Result<String, LoadError> {
    // Random-access reads lower to the `SparseMatrix::get` trait, which
    // the mirror structs deliberately do not replicate (it would defeat
    // the data-centric ABI); such plans stay on the interpreter.
    if cg.random_access() {
        return Err(LoadError::Emit(EmitError(
            "plan reads a sparse operand by random access; \
             not expressible over the kernel ABI"
                .to_string(),
        )));
    }
    // The specialized body; the ranged variant replaces the plain one
    // when the record has a row-band entry.
    let body = match cg.ranged() {
        Some(_) => print(p, plan, views, cg, "kernel_impl_range", true)?,
        None => print(p, plan, views, cg, "kernel_impl", false)?,
    };

    let mut out = String::new();
    out.push_str("// GENERATED by bernoulli-synth (runtime kernel crate) — do not edit.\n");
    out.push_str(&format!(
        "// ABI v{KERNEL_ABI_VERSION}: see bernoulli_synth::compiled module docs.\n"
    ));
    out.push_str("#![no_std]\n#![allow(unused_parens, unused_variables, clippy::all)]\n\n");
    out.push_str(PANIC_PROOF);
    // The searches the body calls, if it calls one (a crate without them
    // builds faster): the host's text, which like the body has no panic
    // path (on arrays that are not a valid instance of a level a search
    // finds nothing).
    if body.contains("search::") {
        out.push_str(&format!("pub mod search {{\n{SEARCH_SOURCE}}}\n\n"));
    }

    // One mirror struct per distinct layout used: two block shapes of
    // the same format share theirs.
    let mut mirrored: Vec<&str> = Vec::new();
    // Operand-unpacking text of the full-range entry; the same without
    // the output vectors, which a ranged call takes as a band of rows
    // (`band`).
    let (mut unpack, mut inputs, mut outputs) = (String::new(), String::new(), Vec::new());
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
                let line = format!(
                    "        let {var} = {}::<f64> {{ {} }};\n",
                    layout.type_name,
                    fields.join(", ")
                );
                unpack.push_str(&line);
                inputs.push_str(&line);
                call_args.push(format!("&{var}"));
            }
            ArgSpec::VecIn => {
                let line = format!("        let {var} = sl::<f64>(slices.get({si})?);\n");
                unpack.push_str(&line);
                inputs.push_str(&line);
                si += 1;
                call_args.push(var);
            }
            ArgSpec::VecOut => {
                unpack.push_str(&format!("        let {var} = sl_mut(slices.get({si})?);\n"));
                outputs.push((var.clone(), si));
                si += 1;
                call_args.push(var);
            }
        }
    }
    // The output vectors' rows `lo..hi`, unpacked at `indent`.
    let band = |indent: &str, lo: &str, hi: &str| -> String {
        let line = |(var, si): &(String, usize)| {
            format!("{indent}let {var} = sl_band(slices.get({si})?, {lo}, {hi})?;\n")
        };
        outputs.iter().map(line).collect()
    };

    out.push_str(
        "#[repr(C)]\npub struct RawSlice {\n    pub ptr: *const u8,\n    pub len: usize,\n}\n\n",
    );
    out.push_str(
        "unsafe fn sl<T>(s: &RawSlice) -> &'static [T] {\n    if s.len == 0 {\n        &[]\n    } else {\n        core::slice::from_raw_parts(s.ptr as *const T, s.len)\n    }\n}\n\n",
    );
    // A row-blocked full-range entry takes each block's band of the
    // outputs too, and so leaves the whole-vector unpacking unused.
    if !cg.ranged().is_some_and(|r| r.row_blocked()) {
        out.push_str(
        "unsafe fn sl_mut(s: &RawSlice) -> &'static mut [f64] {\n    if s.len == 0 {\n        &mut []\n    } else {\n        core::slice::from_raw_parts_mut(s.ptr as *mut f64, s.len)\n    }\n}\n\n",
    );
    }
    if cg.ranged().is_some() {
        out.push_str(
            "/// The rows `lo..hi` of an output vector, `None` unless they lie in\n/// it; an empty band is an empty slice.\n///\n/// # Safety\n/// `s` is a writable vector of `s.len` elements, and no other reference\n/// to the band's elements lives while the returned one does.\nunsafe fn sl_band(s: &RawSlice, lo: i64, hi: i64) -> Option<&'static mut [f64]> {\n    if hi <= lo {\n        return Some(&mut []);\n    }\n    let lo = usize::try_from(lo).ok()?;\n    let hi = usize::try_from(hi).ok()?;\n    if hi > s.len {\n        return None;\n    }\n    Some(core::slice::from_raw_parts_mut((s.ptr as *mut f64).add(lo), hi - lo))\n}\n\n",
        );
    }

    out.push_str(&body);
    out.push('\n');

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
    let args = call_args.join(", ");
    // The full range of a ranged body is its outer matrix's row count.
    match cg.ranged() {
        Some(ranged) if ranged.row_blocked() => {
            // Cache-blocked traversal of compressed rows (CSR): walk
            // the rows in fixed blocks through the ranged body, each
            // block with its band of the output vectors.
            out.push_str(&inputs);
            out.push_str(&format!(
                "        let nrows__ = {}.nrows as i64;\n        let mut r0__ = 0i64;\n        while r0__ < nrows__ {{\n            let r1__ = if r0__ + {CSR_ROW_BLOCK} < nrows__ {{ r0__ + {CSR_ROW_BLOCK} }} else {{ nrows__ }};\n{}            kernel_impl_range({args}, r0__, r1__)?;\n            r0__ = r1__;\n        }}\n        Some(())\n",
                operand_var(ranged.outer()),
                band("            ", "r0__", "r1__"),
            ));
        }
        // The whole output vectors are the band of rows from 0.
        Some(ranged) => {
            out.push_str(&unpack);
            out.push_str(&format!(
                "        kernel_impl_range({args}, 0, {}.nrows as i64)\n",
                operand_var(ranged.outer())
            ));
        }
        None => {
            out.push_str(&unpack);
            out.push_str(&format!("        kernel_impl({args})\n"));
        }
    }
    out.push_str(postamble);
    out.push_str("}\n");

    // Ranged entry.
    if cg.ranged().is_some() {
        out.push('\n');
        out.push_str(&format!(
            "#[no_mangle]\npub extern \"C\" fn {KERNEL_RANGE_SYMBOL}(\n    params: *const i64,\n    nparams: usize,\n    dims: *const usize,\n    ndims: usize,\n    slices: *const RawSlice,\n    nslices: usize,\n    row_lo: i64,\n    row_hi: i64,\n) -> i32 {{\n"
        ));
        out.push_str(&preamble);
        out.push_str(&inputs);
        out.push_str(&band("        ", "row_lo", "row_hi"));
        out.push_str(&format!(
            "        kernel_impl_range({args}, row_lo, row_hi)\n"
        ));
        out.push_str(postamble);
        out.push_str("}\n");
    }

    Ok(out)
}

/// The source of the kernel crate a native load of `plan` builds.
pub fn kernel_source(
    p: &Program,
    plan: &Plan,
    views: &HashMap<String, FormatView>,
) -> Result<String, LoadError> {
    let sig = KernelSig::of(p, views)?;
    cdylib_source(p, plan, views, &Codegen::of(p, plan, views), &sig)
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
    /// Where the record has a row-band entry (the crate exports the
    /// ranged entry point): the position, among the operands, of the
    /// matrix whose rows it cuts.
    outer: Option<usize>,
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
        cg: &Codegen,
        logical_key: &str,
    ) -> Result<NativeSource, LoadError> {
        let sig = KernelSig::of(p, views)?;
        let source = cdylib_source(p, plan, views, cg, &sig)?;
        let key = format!("abi{KERNEL_ABI_VERSION}|{logical_key}");
        let outer = cg
            .ranged()
            .and_then(|r| sig.args.iter().position(|(name, _)| name == r.outer()));
        Ok(NativeSource {
            outer,
            sig,
            artifact: ArtifactSpec::new(key, source)?,
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

    /// True when the kernel exports the row-ranged entry: its plan's
    /// record has a row-band entry ([`Codegen::ranged`], which also
    /// names the matrix whose rows [`run_range`](LoadedKernel::run_range)
    /// and a split [`run`](LoadedKernel::run) cut).
    pub fn supports_ranged(&self) -> bool {
        self.native.outer.is_some()
    }

    /// Runs the kernel over its full iteration space. Where the plan
    /// has a row-band entry, [`Pool::global`] has more than one lane and
    /// the outer operand stores at least [`SPLIT_MIN_ENTRIES`] entries,
    /// the rows run as four bands per lane, the lanes taking them in
    /// turn (see the module docs); otherwise as one call. The result is
    /// bitwise the same.
    pub fn run(&self, params: &[i64], args: &mut [KernelArg<'_>]) -> Result<(), KernelCallError> {
        let call = self.marshal(params, args)?;
        let large = call.outer.is_some_and(|a| a.nnz() >= SPLIT_MIN_ENTRIES);
        let lanes = if large { Pool::global().nthreads() } else { 1 };
        let bands = if lanes > 1 { lanes * BANDS_PER_LANE } else { 1 };
        self.run_marshalled(params, &call, bands)
    }

    /// [`run`](LoadedKernel::run) over at most `bands` bands of the
    /// outer operand's rows, whatever its size: `bands <= 1` is one
    /// call of the full-range entry, more is
    /// [`KernelCallError::NoRangedEntry`] where the plan has no
    /// row-band entry. Bitwise the sequential result at every count.
    pub fn run_in_bands(
        &self,
        params: &[i64],
        args: &mut [KernelArg<'_>],
        bands: usize,
    ) -> Result<(), KernelCallError> {
        if bands > 1 && !self.supports_ranged() {
            return Err(KernelCallError::NoRangedEntry);
        }
        let call = self.marshal(params, args)?;
        self.run_marshalled(params, &call, bands)
    }

    /// Runs the kernel restricted to outer rows `row_lo..row_hi`
    /// (clamping is the caller's job; the entry enumerates exactly this
    /// band).
    pub fn run_range(
        &self,
        params: &[i64],
        args: &mut [KernelArg<'_>],
        row_lo: i64,
        row_hi: i64,
    ) -> Result<(), KernelCallError> {
        if !self.supports_ranged() {
            return Err(KernelCallError::NoRangedEntry);
        }
        let call = self.marshal(params, args)?;
        self.status(self.invoke(params, &call, Some((row_lo, row_hi))))
    }

    /// Flattens the operands into the arguments of the ABI, in the
    /// order the kernel crate unpacks them, after checking their number
    /// against the signature.
    fn marshal<'a>(
        &self,
        params: &[i64],
        args: &'a mut [KernelArg<'_>],
    ) -> Result<Marshalled<'a>, KernelCallError> {
        self.marshal_operands(params, args.iter_mut().map(KernelArg::operand))
    }

    fn marshal_operands<'a>(
        &self,
        params: &[i64],
        operands: impl ExactSizeIterator<Item = Operand<'a>>,
    ) -> Result<Marshalled<'a>, KernelCallError> {
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
        let mut call = Marshalled {
            dims: Vec::with_capacity(sig.ndims),
            slices: Vec::with_capacity(sig.nslices),
            outer: None,
        };
        for (at, ((name, spec), operand)) in sig.args.iter().zip(operands).enumerate() {
            match &operand {
                Operand::Matrix(m) if self.native.outer == Some(at) => call.outer = Some(*m),
                _ => {}
            }
            marshal(name, spec, operand, &mut call.dims, &mut call.slices)?;
        }
        Ok(call)
    }

    /// Runs marshalled operands as at most `bands` row bands at once on
    /// [`Pool::global`], or as one call of the full-range entry.
    fn run_marshalled(
        &self,
        params: &[i64],
        call: &Marshalled<'_>,
        bands: usize,
    ) -> Result<(), KernelCallError> {
        let cuts = match call.outer {
            Some(outer) if bands > 1 => outer.row_bands(bands),
            _ => Vec::new(),
        };
        if cuts.len() <= 2 {
            return self.status(self.invoke(params, call, None));
        }
        // A band must not fail half way for a reason that is no band's:
        // an operand that disagrees with the parameters is refused
        // before any band runs.
        self.check_extents(params, call)?;
        let codes: Vec<AtomicI32> = cuts[1..].iter().map(|_| AtomicI32::new(0)).collect();
        Pool::global().run(codes.len(), &|band| {
            let rows = (cuts[band] as i64, cuts[band + 1] as i64);
            codes[band].store(self.invoke(params, call, Some(rows)), Ordering::Relaxed);
        });
        let failed = codes
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .find(|&c| c != 0);
        self.status(failed.unwrap_or(0))
    }

    /// Every vector operand is as long, and the outer matrix as large,
    /// as the program's declared extents say at `params`.
    fn check_extents(&self, params: &[i64], call: &Marshalled<'_>) -> Result<(), KernelCallError> {
        let sig = self.sig();
        let mut slice = 0;
        for (at, ((name, spec), extents)) in sig.args.iter().zip(&sig.extents).enumerate() {
            let seen: Vec<usize> = match spec {
                ArgSpec::View { layout, .. } => {
                    slice += layout.arrays.len();
                    match call.outer {
                        Some(m) if self.native.outer == Some(at) => vec![m.nrows(), m.ncols()],
                        _ => continue,
                    }
                }
                ArgSpec::VecIn | ArgSpec::VecOut => {
                    slice += 1;
                    vec![call.slices[slice - 1].len]
                }
            };
            let Some(extents) = extents else { continue };
            // An extent that overflows `i64` is no length: -1 matches none.
            let want: Vec<i64> = extents
                .iter()
                .map(|e| e.eval(params).unwrap_or(-1))
                .collect();
            if !seen
                .iter()
                .zip(&want)
                .all(|(&n, &w)| i64::try_from(n) == Ok(w))
            {
                return Err(KernelCallError::Mismatch {
                    detail: format!(
                        "operand {name:?} has extents {seen:?} where the parameters declare {want:?}"
                    ),
                });
            }
        }
        Ok(())
    }

    /// Calls the full-range entry, or the ranged one over `range`, and
    /// returns the ABI status.
    fn invoke(&self, params: &[i64], call: &Marshalled<'_>, range: Option<(i64, i64)>) -> i32 {
        let (dims, slices) = (&call.dims, &call.slices);
        match (range, self.ranged) {
            (Some((lo, hi)), Some(ranged)) => unsafe {
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
            _ => unsafe {
                (self.entry)(
                    params.as_ptr(),
                    params.len(),
                    dims.as_ptr(),
                    dims.len(),
                    slices.as_ptr(),
                    slices.len(),
                )
            },
        }
    }

    /// The typed outcome of an ABI status.
    fn status(&self, code: i32) -> Result<(), KernelCallError> {
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

/// The flattened arguments of one call: the operands' scalar fields and
/// arrays in the order the kernel crate unpacks them, borrowed from the
/// operands for as long as the call lasts.
struct Marshalled<'a> {
    dims: Vec<usize>,
    slices: Vec<RawArray>,
    /// The matrix whose rows the row-band entry cuts, where the kernel
    /// has one.
    outer: Option<&'a dyn Stored>,
}

// SAFETY: the arrays are borrowed from the operands for the lifetime
// `'a`; concurrent band calls only read this list, and write through
// it only the rows of their own band, each through a slice of those
// rows alone (the row-band contract of the module docs), so no element
// is written by two threads or read by one while another writes it.
unsafe impl Sync for Marshalled<'_> {}

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
/// in halves. An error only where a format cannot hold it.
fn probe_operands(sig: &KernelSig) -> Result<(i64, Vec<ProbeOperand>), FormatError> {
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
        ArgSpec::View { layout, block, .. } => {
            let cut = block.unwrap_or((n / 2, n / 2));
            Ok(ProbeOperand::Matrix((layout.from_triplets)(&t, Some(cut))?))
        }
        ArgSpec::VecIn => Ok(ProbeOperand::In(
            (0..n).map(|k| 1.0 + 0.25 * k as f64).collect(),
        )),
        ArgSpec::VecOut => Ok(ProbeOperand::Out((0..n).map(|k| 0.5 * k as f64).collect())),
    });
    Ok((n as i64, ops.collect::<Result<_, _>>()?))
}

/// Runs the freshly loaded kernel against the interpreter on the probe
/// instance. `Ok(true)`: validated (bitwise-identical outputs); the
/// store remembers the verdict and keeps the library open, so warm
/// loads through the same store skip the probe and the `dlopen`.
/// `Ok(false)`: validation skipped — the *interpreter* could not run
/// the probe (or a format could not hold it), so there is no reference
/// to compare against.
/// `Err`: the kernel disagreed or failed — the artifact is quarantined.
fn validate_kernel(p: &Program, plan: &Plan, kernel: &LoadedKernel) -> Result<bool, LoadError> {
    let sig = kernel.sig();
    let Ok((n, mut interp_ops)) = probe_operands(sig) else {
        return Ok(false);
    };
    let params = vec![n; sig.params.len()];
    let operands = interp_ops.iter_mut().map(ProbeOperand::operand);
    if interp_positional(p, plan, &params, operands).is_err() {
        return Ok(false);
    }
    let Ok((_, mut kernel_ops)) = probe_operands(sig) else {
        return Ok(false);
    };
    let reject = |detail: String| {
        kernel.store.quarantine(kernel.lib.path());
        LoadError::ValidationFailed { detail }
    };
    let operands = kernel_ops.iter_mut().map(ProbeOperand::operand);
    let ran = kernel.marshal_operands(&params, operands);
    if let Err(e) = ran.and_then(|call| kernel.run_marshalled(&params, &call, 1)) {
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
/// the load derives from the plan and its record `cg` comes from
/// `native`, filled here on the first load of any kernel sharing the
/// cell.
pub(crate) fn load_kernel(
    p: &Program,
    plan: &Plan,
    views: &HashMap<String, FormatView>,
    cg: &Codegen,
    logical_key: &str,
    native: &NativeCell,
    store: &KernelStore,
) -> Result<LoadedKernel, LoadError> {
    let derive = || NativeSource::derive(p, plan, views, cg, logical_key).map(Arc::new);
    let native = native.get_or_init(derive).clone()?;
    let opened = store.load(&native.artifact)?;
    let lib = opened.library;
    let entry_ptr = lib.symbol(KERNEL_SYMBOL)?;
    // Safety: the artifact was built from `native.artifact`'s source,
    // which exports KERNEL_SYMBOL with exactly the EntryV2 signature
    // (the cache key covers source + ABI version, so a stale artifact
    // cannot match).
    let entry: EntryV2 = unsafe { std::mem::transmute(entry_ptr) };
    let ranged: Option<RangeV2> = if native.outer.is_some() {
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
        let src = cdylib_source(k.program(), k.plan(), k.views(), k.codegen(), &sig)?;
        assert!(
            k.codegen().ranged().is_some(),
            "csr mvm outer row loop must be range-splittable"
        );
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
        // Cache-blocked CSR traversal in the full entry, each block
        // and the ranged entry with the output's band of rows alone.
        assert!(src.contains("r0__"), "blocked row walk missing:\n{src}");
        for band in ["(4)?, r0__, r1__)?;", "(4)?, row_lo, row_hi)?;"] {
            let unpacked = format!("let y_ = sl_band(slices.get{band}");
            assert!(src.contains(&unpacked), "{unpacked} missing:\n{src}");
        }
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
                let src = cdylib_source(k.program(), k.plan(), k.views(), k.codegen(), &sig)?;
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
        let (p, plan, views, cg) = (k.program(), k.plan(), k.views(), k.codegen());
        let mut native = NativeSource::derive(p, plan, views, cg, k.cache_key())?;
        let source = cdylib_source(p, plan, views, cg, &native.sig)?;
        let planted = source.replace("*x_.get((j_) as usize)?", "x_[(j_) as usize]");
        assert_ne!(planted, source, "nothing was planted in:\n{source}");
        native.artifact = ArtifactSpec::new("planted-panic".to_string(), planted)?;
        let cell: NativeCell = OnceLock::from(Ok(Arc::new(native)));
        let store = KernelStore::at(
            std::env::temp_dir().join(format!("bernoulli-planted-{}", std::process::id())),
        );
        let reason = load_kernel(p, plan, views, cg, "planted", &cell, &store)
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
                    extents: Vec::new(),
                },
                artifact: artifact.clone(),
                outer: None,
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
