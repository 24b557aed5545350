//! Rust source emission: specializing a plan for concrete formats.
//!
//! This is the analogue of the paper's compiler-instantiated C++
//! (Fig. 9): the plan's enumerations become loops over the format
//! structs' public fields, searches become inline bounds checks and
//! binary searches or calls to the search of the level's kind (the
//! module `search` every kernel crate includes), and statement bodies
//! become plain scalar Rust. The generated functions are monomorphic — the moral
//! equivalent of the paper's Barton–Nackman compile-time dispatch — and
//! are what the benchmark harness measures.
//!
//! The printer decides nothing: which transformations a plan gets —
//! promotion, edge split, tiling, the row-band entry — is its
//! [`Codegen`] record, and the printer renders the plan as the record
//! says.
//!
//! The one emitted dialect has no panic path: a function returns
//! `Option<()>` and every checked index is `*a.get(i)?`, so an operand
//! whose index arrays point outside another operand makes it return
//! `None` early — which is what lets the kernel crate of the driver's
//! `compiled` module be `#![no_std]` and link no panic runtime.
//!
//! The emitted text depends only on the plan and the program, so
//! generated kernels can be committed (see `bernoulli-blas`'s `synth`
//! module) and checked against regeneration in CI.

use crate::codegen::{level_searched, presence_levels, Codegen, EdgeSplit, Promotion, Tiling};
use crate::plan::{Atom, Dir, Edge, ExecStmt, Guard, LevelRef, PExpr, Plan, StepKind, ValueSource};
use bernoulli_formats::layout::{levels_of_view, Block, Elem};
use bernoulli_formats::level::{Arr, Base, Bound, Dim, Kind, Level, Levels, Locate, SlotAt};
use bernoulli_formats::view::{FormatView, Order};
use bernoulli_ir::{ArrayKind, LhsRef, Program, Role, ValueExpr};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Emission failure: the plan uses a runtime feature with no static
/// template (fall back to the interpreter).
#[derive(Clone, Debug, PartialEq)]
pub struct EmitError(pub String);

impl std::fmt::Display for EmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "emission failed: {}", self.0)
    }
}

impl std::error::Error for EmitError {}

/// How the view of this name is walked (`bernoulli_formats::level`),
/// and the block shape the name carries: everything the emitter knows
/// about a format.
fn described(view_name: &str) -> Result<(&'static Levels, Option<Block>), EmitError> {
    levels_of_view(view_name)
        .ok_or_else(|| EmitError(format!("no level description for view {view_name:?}")))
}

/// The search of the level at `(chain, level)` of the view named `view`,
/// as the emitter prints it (what the index-width probe compiles into a
/// kernel crate): an `Option<usize>` expression over the operand
/// `m` (its fields read as `m.field`, `?` returning `None`), the
/// position `parent` above and the `i64` expressions `keys`, one per key
/// of the level. `None` where that level does not search.
pub fn locate_expr(
    view: &str,
    at: (usize, usize),
    m: &str,
    parent: &str,
    keys: &[String],
) -> Result<Option<String>, EmitError> {
    Ok(Site::of(view, at, m.to_string(), parent.to_string())?.locate(keys))
}

/// The Rust type of a view's operand.
fn rust_type(view_name: &str) -> Result<String, EmitError> {
    Ok(format!("{}<f64>", described(view_name)?.0.type_name))
}

/// One level of a bound operand, as the templates read it: the
/// operand's local, its description, and the position above.
struct Site {
    m: String,
    levels: &'static Levels,
    block: Option<Block>,
    level: &'static Level,
    parent: String,
}

impl Site {
    fn dim(&self, d: Dim) -> String {
        format!("{}.{}", self.m, self.levels.dim(d))
    }

    fn array(&self, a: Arr) -> String {
        format!("{}.{}", self.m, self.levels.array(a))
    }

    /// The checked read of entry `i` of an array.
    fn get(&self, a: Arr, i: &str) -> String {
        format!("*{}.get({i})?", self.array(a))
    }

    /// A read of an index array as a key: `u32` arrays are widened.
    fn key(&self, a: Arr, read: String) -> String {
        match self.levels.elem(a) {
            Elem::U32 => format!("{read} as i64"),
            Elem::I64 | Elem::F64 => read,
        }
    }

    /// A read of an index array as a position or count: `u32` arrays
    /// are widened.
    fn pos(&self, a: Arr, read: String) -> String {
        match self.levels.elem(a) {
            Elem::U32 => format!("{read} as usize"),
            Elem::I64 | Elem::F64 => read,
        }
    }

    /// The level at `at`, `(chain, level)`, of the view named `view`,
    /// read for the operand `m` beneath the position `parent`.
    fn of(view: &str, at: (usize, usize), m: String, parent: String) -> Result<Site, EmitError> {
        let ((levels, block), (chain, level)) = (described(view)?, at);
        let unknown = || EmitError(format!("view {view} has no level {level} of chain {chain}"));
        let level = levels.level(chain, level).ok_or_else(unknown)?;
        Ok(Site {
            m,
            levels,
            block,
            level,
            parent,
        })
    }

    /// The level's `locate` for `keys`, an `Option<usize>` expression:
    /// an interval's bounds and one sorted list's binary search inline,
    /// a hashed level's map, any other kind's search a call to its
    /// function of `bernoulli_formats::search`, which every kernel crate
    /// includes as its module `search`. `None` where the level does not
    /// search.
    fn locate(&self, keys: &[String]) -> Option<String> {
        let (m, parent, k0) = (&self.m, &self.parent, keys.first()?);
        let (a, pair) = (
            |x| format!("&{}", self.array(x)),
            |x, y| format!("({x}, {y})"),
        );
        let call =
            |f: &str, args: &[String]| format!("search::{f}({}, {parent}, {k0})", args.join(", "));
        Some(match (self.level.locate, self.level.kind) {
            (Locate::None, _) | (_, Kind::Jagged { .. }) => return None,
            (Locate::Hash(map), _) => format!(
                "if ({k0}) >= 0 {{ {m}.{map}.get(&(({k0}) as usize)).copied() }} else {{ None }}"
            ),
            (_, Kind::Interval { lo, hi, base }) => {
                let key = format!("({k0})");
                let (lo, hi, pos) =
                    self.interval((lo, hi, base), &key, |_, a| self.get(a, parent))?;
                format!("if {key} >= {lo} && {key} < {hi} {{ Some({pos}) }} else {{ None }}")
            }
            (_, Kind::Coords { crd: &[a], .. }) => {
                let sorted = self.array(a);
                // A key that does not fit the array's type is in no row.
                match self.levels.elem(a) {
                    Elem::I64 => format!("{sorted}.binary_search(&({k0})).ok()"),
                    elem => format!(
                        "if let Ok(k__) = {}::try_from({k0}) {{ {sorted}.binary_search(&k__).ok() }} else {{ None }}",
                        elem.rust()
                    ),
                }
            }
            (_, Kind::Coords { len, crd }) => {
                let crd = pair(a(*crd.first()?), a(*crd.get(1)?));
                let key = pair(k0.clone(), keys.get(1)?.clone());
                format!("search::listed({}.len(), {crd}, {key})", self.array(len))
            }
            (_, Kind::Compressed { ptr, crd }) => call("compressed", &[a(ptr), a(crd)]),
            (_, Kind::Slots { count, at, crd }) => match at {
                SlotAt::RowMajor(w) => call("slots", &[pair(a(count), self.dim(w)), a(crd)]),
                SlotAt::Table(t) => call("slot_table", &[pair(a(count), a(t)), a(crd)]),
            },
            (_, Kind::Blocks { ptr, crd, r, c }) => {
                call("blocks", &[a(ptr), a(crd), pair(self.dim(r), self.dim(c))])
            }
            (_, Kind::Strips(s)) => {
                let arrays = [s.strip_of, s.start, s.begin, s.end, s.crd, s.cuts, s.base];
                call("strips", &[format!("[{}]", arrays.map(a).join(", "))])
            }
        })
    }

    /// An interval level's two ends as `i64` expressions, and the
    /// position of `key` within it; `at(name, array)` is the array's
    /// entry at the parent, however the caller reads it. `None` for
    /// ends no format has.
    fn interval(
        &self,
        (lo, hi, base): (Bound, Bound, Base),
        key: &str,
        mut at: impl FnMut(&str, Arr) -> String,
    ) -> Option<(String, String, String)> {
        let parent = &self.parent;
        let (lo, offset) = match lo {
            Bound::Zero => ("0".to_string(), format!("{key} as usize")),
            Bound::At(a) => {
                let lo = at("lo__", a);
                let offset = match self.levels.elem(a) {
                    Elem::I64 => format!("({key} - {lo}) as usize"),
                    _ => format!("({key} as usize - {})", self.pos(a, lo.clone())),
                };
                (self.key(a, lo), offset)
            }
            Bound::Extent(_) | Bound::Next => return None,
        };
        let hi = match hi {
            Bound::Extent(d) => format!("{} as i64", self.dim(d)),
            Bound::At(a) => self.key(a, at("hi__", a)),
            Bound::Next => format!("{parent} as i64 + 1"),
            Bound::Zero => return None,
        };
        let pos = match base {
            Base::Identity => offset,
            Base::Stride(d) => format!("{parent} * {} + {offset}", self.dim(d)),
            Base::Ptr(a) => format!("{} + {offset}", self.pos(a, at("base__", a))),
        };
        Some((lo, hi, pos))
    }
}

struct Emitter<'a> {
    p: &'a Program,
    plan: &'a Plan,
    views: &'a HashMap<String, FormatView>,
    cg: &'a Codegen,
    /// matrix name -> local variable name in the generated fn
    mat_var: HashMap<String, String>,
    out: String,
    indent: usize,
    /// Set when the body used the `ix` unchecked-read helper, so the
    /// helper definition is spliced into the function prologue.
    uses_ix: std::cell::Cell<bool>,
    /// Emit the outermost row enumeration over `row_lo__..row_hi__`
    /// parameters instead of `0..nrows` (the range-splittable entry the
    /// parallel lane dispatches chunks through), each output vector
    /// being the band's rows only.
    ranged: bool,
}

/// Where a statement is printed: the register that holds the promoted
/// element there, and whether it is the edge split's main loop.
#[derive(Clone, Copy)]
struct Place<'r> {
    reg: &'r str,
    main: bool,
}

/// Every body but the tiled nests' and the split's main loop.
const BODY: Place<'static> = Place {
    reg: "acc__",
    main: false,
};

/// The unchecked-read helper spliced into functions that index
/// format-owned arrays on the hot path: the indices are in bounds by
/// format validity (checked in debug builds), and removing the release
/// bounds checks is what lets LLVM vectorize the ELL/DIA inner loops.
///
/// It is the one read the `?` dialect does not check, so a kernel is
/// memory-safe only on valid instances of its formats (`values` as long
/// as `colind`, …); reads and writes of the other operands (`x`, `y`)
/// are checked. Checking these too was measured on `stream_small`:
/// +2–38 % per call (mvm/csc 12.1 → 16.7 µs). Validating operands once,
/// where they enter, is ROADMAP item 4 and still open.
const IX_HELPER: &str = "    /// Read of a format-owned array: in bounds by format validity\n    /// (debug-checked), branch-free in release so inner loops vectorize.\n    #[inline(always)]\n    fn ix<T: Copy>(s: &[T], i: usize) -> T {\n        debug_assert!(i < s.len());\n        unsafe { *s.get_unchecked(i) }\n    }\n";

/// Emits a standalone Rust function implementing the plan.
///
/// Signature: parameters (`i64`) in program order, then arrays in
/// declaration order — matrices by shared reference to their concrete
/// format type, vectors as `&[f64]` (role `in`) or `&mut [f64]`.
pub fn emit_rust(
    p: &Program,
    plan: &Plan,
    views: &HashMap<String, FormatView>,
    fn_name: &str,
) -> Result<String, EmitError> {
    print(p, plan, views, &Codegen::of(p, plan, views), fn_name, false)
}

/// Like [`emit_rust`], but the outermost row enumeration runs over two
/// extra trailing parameters `row_lo__, row_hi__: i64` instead of
/// `0..nrows`, so callers can restrict a call to a row band (the
/// parallel lane dispatches nnz-balanced chunks through this entry).
/// Each output vector is then the band's rows only: element `i` of the
/// program's vector is element `i - row_lo__` of the slice passed.
/// Returns `Ok(None)` when the plan's record has no row-band entry
/// ([`Codegen::ranged`]).
pub fn emit_rust_ranged(
    p: &Program,
    plan: &Plan,
    views: &HashMap<String, FormatView>,
    fn_name: &str,
) -> Result<Option<String>, EmitError> {
    let cg = Codegen::of(p, plan, views);
    if cg.ranged().is_none() {
        return Ok(None);
    }
    print(p, plan, views, &cg, fn_name, true).map(Some)
}

/// The one printer: `plan`'s function as its record `cg` says, with
/// the row-band parameters when `ranged`.
pub fn print(
    p: &Program,
    plan: &Plan,
    views: &HashMap<String, FormatView>,
    cg: &Codegen,
    fn_name: &str,
    ranged: bool,
) -> Result<String, EmitError> {
    let mut mat_var = HashMap::new();
    for a in &p.arrays {
        mat_var.insert(a.name.clone(), format!("{}_", a.name.to_lowercase()));
    }
    let mut e = Emitter {
        p,
        plan,
        views,
        cg,
        mat_var,
        out: String::new(),
        indent: 0,
        uses_ix: std::cell::Cell::new(false),
        ranged,
    };
    e.function(fn_name)?;
    Ok(e.out)
}

/// A level enumeration's loop head as its template yields it, in
/// order: the loops, and the lines around and inside them.
#[derive(Default)]
struct LoopHead(Vec<HeadItem>);

enum HeadItem {
    Line(String),
    /// `for {var} in {range} {`
    For {
        var: String,
        range: String,
    },
}

impl LoopHead {
    fn open(&mut self, var: &str, range: String) {
        self.0.push(HeadItem::For {
            var: var.to_string(),
            range,
        });
    }

    fn line(&mut self, line: String) {
        self.0.push(HeadItem::Line(line));
    }

    /// The index of the head's loop, when it opens exactly one.
    fn only_loop(&self) -> Option<usize> {
        let mut loops = (0..self.0.len()).filter(|&i| matches!(self.0[i], HeadItem::For { .. }));
        loops.next().filter(|_| loops.next().is_none())
    }
}

impl<'a> Emitter<'a> {
    fn line(&mut self, s: &str) {
        for _ in 0..self.indent {
            self.out.push_str("    ");
        }
        self.out.push_str(s);
        self.out.push('\n');
    }

    fn mat(&self, name: &str) -> &str {
        &self.mat_var[name]
    }

    fn function(&mut self, fn_name: &str) -> Result<(), EmitError> {
        // Header.
        let mut sig = format!("{FN_OPEN}{fn_name}(");
        let mut first = true;
        for q in &self.p.params {
            if !first {
                sig.push_str(", ");
            }
            first = false;
            let _ = write!(sig, "{}_: i64", q.to_lowercase());
        }
        for a in &self.p.arrays {
            if !first {
                sig.push_str(", ");
            }
            first = false;
            // Any array with a bound view is passed as its format type;
            // view-less matrices are not emit-able, view-less vectors are
            // plain slices.
            if let Some(view) = self.views.get(&a.name) {
                let ty = rust_type(&view.name)?;
                let _ = write!(sig, "{}: &{ty}", self.mat_var[&a.name]);
            } else {
                match a.kind {
                    ArrayKind::Matrix => {
                        return Err(EmitError(format!("no view bound for {:?}", a.name)));
                    }
                    ArrayKind::Vector => {
                        let m = match a.role {
                            Role::In => "",
                            Role::Out | Role::InOut => "mut ",
                        };
                        let _ = write!(sig, "{}: &{m}[f64]", self.mat_var[&a.name]);
                    }
                }
            }
        }
        if self.ranged {
            if first {
                return Err(EmitError("ranged emission of a nullary function".into()));
            }
            sig.push_str(", row_lo__: i64, row_hi__: i64");
        }
        sig.push_str(") -> Option<()> {");
        self.line(&sig);
        self.indent += 1;
        let helper_at = self.out.len();
        // Silence possibly-unused parameter warnings deterministically.
        for q in &self.p.params.clone() {
            self.line(&format!("let _ = {}_;", q.to_lowercase()));
        }

        match self.cg.tiling() {
            Some(Tiling::Blocks { r, c }) => self.blocks_nest(r, c)?,
            Some(Tiling::Strips) => self.strips_nest()?,
            None => self.nest(0, BODY)?,
        }

        self.line("Some(())");
        self.indent -= 1;
        self.line("}");
        if self.uses_ix.get() {
            self.out.insert_str(helper_at, IX_HELPER);
        }
        Ok(())
    }

    /// The lines both tiled nests open with, binding the band's rows
    /// `r0__..rend__`; yields the two slot and the two position
    /// variables, the statement, the promotion, and the description of
    /// the level walked within a row.
    fn open_band(&mut self) -> Result<([String; 4], &'a ExecStmt, &'a Promotion, Site), EmitError> {
        let (plan, cg) = (self.plan, self.cg);
        let (Some(pr), [s0, s1], [e]) = (cg.promotion(), &plan.steps[..], &plan.execs[..]) else {
            return Err(EmitError(
                "a tiled plan is two steps and one statement".into(),
            ));
        };
        let StepKind::Level { primary, .. } = &s1.kind else {
            return Err(EmitError("a tiled plan walks a level within a row".into()));
        };
        let site = self.site(primary)?;
        if self.ranged {
            self.line("let mut r0__ = row_lo__;");
            self.line("let rend__ = row_hi__;");
        } else {
            self.line("let mut r0__ = 0i64;");
            self.line(&format!("let rend__ = {}.nrows as i64;", site.m));
        }
        let rid = primary.ref_id;
        let names = [
            slot_var(s0.first_slot),
            slot_var(s1.first_slot),
            pos_var(rid, 0),
            pos_var(rid, 1),
        ];
        Ok((names, e, pr, site))
    }

    /// `head`, then the generic per-row body at row `r0__`, which it
    /// advances, then `}`: the rows a tiled nest leaves untiled.
    fn scalar_rows(&mut self, head: &str, v0: &str, pv0: &str) -> Result<(), EmitError> {
        self.line(head);
        self.indent += 1;
        self.line(&format!("let {v0} = r0__;"));
        self.line(&format!("let {pv0} = {v0} as usize;"));
        self.nest(1, BODY)?;
        self.line("r0__ += 1;");
        self.indent -= 1;
        self.line("}");
        Ok(())
    }

    /// Register-tiled emission under [`Tiling::Blocks`]: the generic
    /// nest walks each block row `r` times — once per logical row —
    /// with a single serial accumulator chain; this template walks it
    /// once with `r` independent accumulators, one per row of the block
    /// row. Each row's reduction order is unchanged (blocks ascending,
    /// then within-block columns ascending), so results stay bitwise
    /// identical to the generic nest and the interpreter; the win is
    /// that the `r` dependency chains now retire in parallel, which is
    /// exactly where the hand-written micro-kernels get their
    /// throughput. Rows outside the leading/trailing block boundary
    /// (reachable only through the ranged entry) run the generic
    /// scalar per-row body.
    fn blocks_nest(&mut self, rb: usize, cb: usize) -> Result<(), EmitError> {
        let ([v0, v1, pv0, pv1], e, pr, site) = self.open_band()?;
        let Kind::Blocks { ptr, crd, .. } = site.level.kind else {
            return Err(EmitError("a block tiling of a level without blocks".into()));
        };
        // Scalar rows up to the first block-row boundary (a no-op from
        // the full entry: row 0 is always aligned).
        let head = format!("while r0__ < rend__ && !(r0__ as usize).is_multiple_of({rb}) {{");
        self.scalar_rows(&head, &v0, &pv0)?;

        // Full block rows, one walk, R register accumulators.
        let (blo, bhi, bcol) = (
            self.at(&site, ptr, "br__"),
            self.at(&site, ptr, "br__ + 1"),
            self.at(&site, crd, "b__"),
        );
        self.line(&format!("while r0__ + {rb} <= rend__ {{"));
        self.indent += 1;
        self.line(&format!("let br__ = (r0__ as usize) / {rb};"));
        for k in 0..rb {
            self.line(&format!("let {v0} = r0__ + {k};"));
            let idx = self.pexpr(&pr.idx);
            let y = self.elem("get", &pr.array, &idx);
            self.line(&format!("let mut acc{k}t__ = {y};"));
        }
        self.line(&format!("for b__ in {blo}..{bhi} {{"));
        self.indent += 1;
        self.line(&format!("let base__ = b__ * {};", rb * cb));
        self.line(&format!("let c0__ = {bcol} * {cb};"));
        self.line(&format!("for s__ in 0..{cb} {{"));
        self.indent += 1;
        self.line(&format!("let {v1} = (c0__ + s__) as i64;"));
        self.line(&format!("let _ = {v1};"));
        for k in 0..rb {
            self.line(&format!("let {v0} = r0__ + {k};"));
            self.line(&format!("let _ = {v0};"));
            self.line(&format!("let {pv1} = base__ + {} + s__;", k * cb));
            self.line(&format!("let _ = {pv1};"));
            let reg = format!("acc{k}t__");
            self.exec(e, Place { reg: &reg, ..BODY })?;
        }
        self.indent -= 1;
        self.line("}");
        self.indent -= 1;
        self.line("}");
        for k in 0..rb {
            self.line(&format!("let {v0} = r0__ + {k};"));
            let idx = self.pexpr(&pr.idx);
            let y = self.elem("get_mut", &pr.array, &idx);
            self.line(&format!("{y} = acc{k}t__;"));
        }
        self.line(&format!("r0__ += {rb};"));
        self.indent -= 1;
        self.line("}");

        // Scalar rows after the last full block row (ranged entries
        // whose band ends mid-block).
        self.scalar_rows("while r0__ < rend__ {", &v0, &pv0)
    }

    /// Strip-tiled emission under [`Tiling::Strips`]: the same two-step
    /// blocked-MVM shape as [`Self::blocks_nest`], but the strip extents
    /// are runtime data, so the tile height is the strip height read at
    /// run time instead of a compile-time literal. Each full strip walks
    /// its stored blocks once with one accumulator per strip row — the
    /// row's output element itself between blocks (the emitted code
    /// allocates nothing), a register inside each block — where the
    /// generic nest walks the strip's blocks once per row.
    /// Each row's reduction order (blocks ascending, then within-block
    /// columns ascending) is unchanged, so results stay bitwise
    /// identical to the generic nest and the interpreter. Rows whose
    /// strip extends outside the entry's row range (reachable only
    /// through the ranged entry; the partitioner is strip-aligned) run
    /// the generic scalar per-row body.
    fn strips_nest(&mut self) -> Result<(), EmitError> {
        let ([v0, v1, pv0, pv1], e, pr, site) = self.open_band()?;
        let Kind::Strips(t) = site.level.kind else {
            return Err(EmitError("a strip tiling of a level without strips".into()));
        };
        let rowblk = self.at(&site, t.strip_of, "r0__ as usize");
        let (rp0, rp1) = (
            self.read(&site, t.start, "br__"),
            self.read(&site, t.start, "br__ + 1"),
        );
        self.line("while r0__ < rend__ {");
        self.indent += 1;
        self.line(&format!("let br__ = {rowblk};"));
        self.line(&format!("let s0__ = {rp0} as i64;"));
        self.line(&format!("let s1__ = {rp1} as i64;"));
        self.line("if r0__ == s0__ && s1__ <= rend__ {");
        self.indent += 1;
        // Full strip: one block walk, each row's partial sum carried
        // from block to block in its output element.
        self.line("let h__ = (s1__ - s0__) as usize;");
        let (blo, bhi) = (
            self.at(&site, t.begin, "br__"),
            self.at(&site, t.end, "br__"),
        );
        let bcol = self.at(&site, t.crd, "b__");
        let (cj0, cj1) = (
            self.at(&site, t.cuts, "bc__"),
            self.at(&site, t.cuts, "bc__ + 1"),
        );
        let base = self.at(&site, t.base, "b__");
        self.line(&format!("for b__ in {blo}..{bhi} {{"));
        self.indent += 1;
        self.line(&format!("let bc__ = {bcol};"));
        self.line(&format!("let cj0__ = {cj0};"));
        self.line(&format!("let w__ = {cj1} - cj0__;"));
        self.line(&format!("let bbase__ = {base};"));
        self.line("for k__ in 0..h__ {");
        self.indent += 1;
        self.line(&format!("let {v0} = s0__ + k__ as i64;"));
        let idx = self.pexpr(&pr.idx);
        let y = self.elem("get", &pr.array, &idx);
        self.line(&format!("let mut acct__ = {y};"));
        self.line("for s__ in 0..w__ {");
        self.indent += 1;
        self.line(&format!("let {v1} = (cj0__ + s__) as i64;"));
        self.line(&format!("let _ = {v1};"));
        self.line(&format!("let {pv1} = bbase__ + k__ * w__ + s__;"));
        self.line(&format!("let _ = {pv1};"));
        self.exec(
            e,
            Place {
                reg: "acct__",
                ..BODY
            },
        )?;
        self.indent -= 1;
        self.line("}");
        let y = self.elem("get_mut", &pr.array, &idx);
        self.line(&format!("{y} = acct__;"));
        self.indent -= 1;
        self.line("}");
        self.indent -= 1;
        self.line("}");
        self.line("r0__ = s1__;");
        self.indent -= 1;
        // A strip cut by the entry's row range: generic per-row body.
        self.scalar_rows("} else {", &v0, &pv0)?;
        self.indent -= 1;
        self.line("}");
        Ok(())
    }

    /// The description of the level `l` names, as the templates read it.
    fn site(&self, l: &LevelRef) -> Result<Site, EmitError> {
        let view = self.views.get(&l.matrix);
        let view = &view
            .ok_or_else(|| EmitError(format!("no view bound for {:?}", l.matrix)))?
            .name;
        let parent = match l.level {
            0 => "0usize".to_string(),
            _ => pos_var(l.ref_id, l.level - 1),
        };
        Site::of(
            view,
            (l.chain, l.level),
            self.mat(&l.matrix).to_string(),
            parent,
        )
    }

    /// A read of one of the format's own arrays in a level's loop head:
    /// `ix` where the level says unchecked, `*a.get(i)?` otherwise.
    fn read(&self, site: &Site, a: Arr, i: &str) -> String {
        if site.level.unchecked {
            self.ix(&site.array(a), i)
        } else {
            site.get(a, i)
        }
    }

    /// [`Self::read`] of an entry used as a position or count.
    fn at(&self, site: &Site, a: Arr, i: &str) -> String {
        site.pos(a, self.read(site, a, i))
    }

    /// `ix(&arr, i)` — the unchecked-in-release read of a format-owned
    /// array (marks the helper for inclusion in the prologue).
    fn ix(&self, arr: &str, i: &str) -> String {
        self.uses_ix.set(true);
        format!("ix(&{arr}, {i})")
    }

    /// A dense-vector element as a place: `get` to read it, `get_mut`
    /// to assign it. In the ranged body an output vector holds the
    /// band's rows only, so its index is rebased by `row_lo__`: the
    /// record's row-band entry puts every access to an output at the
    /// band's row.
    fn elem(&self, get: &str, array: &str, idx: &str) -> String {
        let output = self.p.array(array).is_some_and(|a| {
            a.kind == ArrayKind::Vector
                && matches!(a.role, Role::Out | Role::InOut)
                && !self.views.contains_key(array)
        });
        let rebase = if self.ranged && output {
            " - row_lo__"
        } else {
            ""
        };
        format!("*{}.{get}(({idx}{rebase}) as usize)?", self.mat(array))
    }

    /// Emits step `si`'s loop and its subtree.
    fn nest(&mut self, si: usize, place: Place) -> Result<(), EmitError> {
        let (plan, cg) = (self.plan, self.cg);
        if si == plan.steps.len() {
            let body: Vec<&ExecStmt> = match cg.edge_split().filter(|_| place.main) {
                Some(split) => split.main.iter().collect(),
                None => plan.execs.iter().filter(|e| e.depth == si).collect(),
            };
            for e in body {
                self.exec(e, place)?;
            }
            return Ok(());
        }
        // Hoisted-before statements.
        for e in &plan.execs {
            if e.depth == si && !e.after {
                self.exec(e, place)?;
            }
        }
        let promotion_here = cg.promotion().filter(|_| si + 1 == plan.steps.len());
        if let Some(pr) = promotion_here {
            let y = self.elem("get", &pr.array, &self.pexpr(&pr.idx));
            self.line(&format!("let mut {} = {y};", place.reg));
        }
        let step = &plan.steps[si];
        match &step.kind {
            StepKind::Interval { lo, hi } => {
                let lo = self.pexpr(lo);
                let hi = self.pexpr(hi);
                let v = slot_var(step.first_slot);
                match step.dir {
                    Dir::Fwd => self.line(&format!("for {v} in ({lo})..({hi}) {{")),
                    Dir::Rev => self.line(&format!("for {v} in (({lo})..({hi})).rev() {{")),
                }
                self.indent += 1;
                self.step_tail(si, step, place)?;
                self.indent -= 1;
                self.line("}");
            }
            StepKind::Level { primary, perms } => {
                self.level_loop(si, step, primary, perms, place)?;
            }
            StepKind::MergeJoin { a, b } => {
                self.merge_join(si, step, a, b, place)?;
            }
        }
        if let Some(pr) = promotion_here {
            let y = self.elem("get_mut", &pr.array, &self.pexpr(&pr.idx));
            self.line(&format!("{y} = {};", place.reg));
        }
        // Hoisted-after statements.
        for e in &plan.execs {
            if e.depth == si && e.after {
                self.exec(e, place)?;
            }
        }
        Ok(())
    }

    /// Sharer aliases, searches, then the deeper subtree.
    fn step_tail(
        &mut self,
        si: usize,
        step: &crate::plan::Step,
        place: Place,
    ) -> Result<(), EmitError> {
        for &(rid, lev) in &step.sharers {
            let primary = match &step.kind {
                StepKind::Level { primary, .. } => primary,
                _ => return Err(EmitError("sharers on a non-level step".into())),
            };
            self.line(&format!(
                "let {} = {};",
                pos_var(rid, lev),
                pos_var(primary.ref_id, primary.level)
            ));
            self.line(&format!("let _ = {};", pos_var(rid, lev)));
        }
        for sp in &step.searches {
            self.search(sp)?;
        }
        self.nest(si + 1, place)
    }

    /// The loop head of a level enumeration: the rendering of the level's
    /// description (`bernoulli_formats::level`) as Rust text.
    fn level_head(
        &self,
        si: usize,
        step: &crate::plan::Step,
        primary: &LevelRef,
        perms: &[Option<String>],
    ) -> Result<LoopHead, EmitError> {
        let site = self.site(primary)?;
        let parent = &site.parent;
        let pv = pos_var(primary.ref_id, primary.level);
        let v0 = slot_var(step.first_slot);
        if step.dir == Dir::Rev {
            return Err(EmitError("reverse level enumeration not templated".into()));
        }
        let unsupported = || EmitError(format!("no loop head for {:?}", site.level.kind));
        // Entry `i` of one of the level's arrays, as a position and as a
        // key.
        let rd = |a: Arr, i: &str| self.read(&site, a, i);
        let at = |a: Arr, i: &str| self.at(&site, a, i);
        let key = |a: Arr, i: &str| site.key(a, rd(a, i));
        // A key the view's permutation maps is stored as `rr__`.
        let permuted_key = |v: &str| match (&perms[0], site.levels.perm) {
            (Some(_), Some(perm)) => {
                let mapped = site.key(perm.apply, site.get(perm.apply, "rr__"));
                Ok(format!("let {v} = {mapped};"))
            }
            (Some(_), None) => Err(unsupported()),
            (None, _) => Ok(format!("let {v} = rr__ as i64;")),
        };
        // Most levels open a single loop; the two-level blocked formats
        // open a block loop plus a within-block loop.
        let mut head = LoopHead::default();
        match site.level.kind {
            Kind::Interval {
                lo: Bound::Zero,
                hi: Bound::Extent(d),
                base: Base::Identity,
            } if site.level.permuted => {
                head.open("rr__", format!("0..{}", site.dim(d)));
                head.line(format!("let {pv} = rr__;"));
                head.line(permuted_key(&v0)?);
            }
            Kind::Interval { lo, hi, base } => {
                // Unchecked: the per-parent bounds and base are bound
                // once, so that the body runs at a fixed stride with no
                // structure reads in it (which is what lets it
                // autovectorize). Checked: read in place.
                let bind = |name: &str, a: Arr| {
                    if site.level.unchecked {
                        head.line(format!("let {name} = {};", rd(a, parent)));
                        name.to_string()
                    } else {
                        site.get(a, parent)
                    }
                };
                let ends = site.interval((lo, hi, base), &v0, bind);
                let (lo, hi, pos) = ends.ok_or_else(unsupported)?;
                // The range-splittable entry replaces the outermost row
                // enumeration's bounds with its two parameters.
                let range = if self.ranged && si == 0 {
                    "row_lo__..row_hi__".to_string()
                } else {
                    format!("{lo}..{hi}")
                };
                head.open(&v0, range);
                head.line(format!("let {pv} = {pos};"));
            }
            Kind::Compressed { ptr, crd } => {
                let next = format!("{parent} + 1");
                head.open(&pv, format!("{}..{}", at(ptr, parent), at(ptr, &next)));
                head.line(format!("let {v0} = {};", key(crd, &pv)));
            }
            Kind::Coords { len, crd } => {
                head.open(&pv, format!("0..{}.len()", site.array(len)));
                for (k, &a) in crd.iter().enumerate() {
                    let v = slot_var(step.first_slot + k);
                    head.line(format!("let {v} = {};", key(a, &pv)));
                }
            }
            Kind::Slots {
                count,
                at: slot,
                crd,
            } => {
                let count = at(count, parent);
                match slot {
                    // Fixed-stride slot walk: the row base is hoisted.
                    SlotAt::RowMajor(width) => {
                        head.line(format!("let base__ = {parent} * {};", site.dim(width)));
                        head.open("s__", format!("0..{count}"));
                        head.line(format!("let {pv} = base__ + s__;"));
                    }
                    SlotAt::Table(table) => {
                        head.open("d__", format!("0..{count}"));
                        head.line(format!("let {pv} = {} + {parent};", at(table, "d__")));
                    }
                }
                head.line(format!("let {v0} = {};", key(crd, &pv)));
            }
            Kind::Jagged { ptr, crd } => {
                // Flat perspective: walk the jagged diagonals.
                let values = site.array(site.levels.chains[primary.chain].values);
                head.line("let mut d__ = 0usize;".to_string());
                head.open(&pv, format!("0..{values}.len()"));
                let next = at(ptr, "d__ + 1");
                head.line(format!("while {pv} >= {next} {{ d__ += 1; }}"));
                head.line(format!("let rr__ = {pv} - {};", at(ptr, "d__")));
                head.line(permuted_key(&v0)?);
                let v1 = slot_var(step.first_slot + 1);
                head.line(format!("let {v1} = {};", key(crd, &pv)));
            }
            Kind::Blocks { ptr, crd, .. } => {
                // Blocked row walk: the outer loop runs over the stored
                // blocks of the parent row's block row, the inner over
                // the row's contiguous slice of each block. The block
                // shape is a compile-time literal (from the view name),
                // so LLVM fully unrolls the inner loop.
                let (rb, cb) = site.block.ok_or_else(unsupported)?;
                let (blo, bhi, bcol) = (at(ptr, "br__"), at(ptr, "br__ + 1"), at(crd, "b__"));
                head.line(format!("let br__ = {parent} / {rb};"));
                head.line(format!("let rr__ = {parent} % {rb};"));
                head.open("b__", format!("{blo}..{bhi}"));
                head.line(format!("let base__ = (b__ * {rb} + rr__) * {cb};"));
                head.line(format!("let c0__ = {bcol} * {cb};"));
                head.open("s__", format!("0..{cb}"));
                head.line(format!("let {pv} = base__ + s__;"));
                head.line(format!("let {v0} = (c0__ + s__) as i64;"));
            }
            Kind::Strips(t) => {
                // Variable block strips: block extents are runtime data,
                // so the within-block trip count is hoisted per block;
                // the inner loop is a fixed-stride slice walk that
                // autovectorizes.
                let (rowblk, rp) = (at(t.strip_of, parent), at(t.start, "br__"));
                let (blo, bhi, bcol) = (at(t.begin, "br__"), at(t.end, "br__"), at(t.crd, "b__"));
                let (cj0, cj1) = (at(t.cuts, "bc__"), at(t.cuts, "bc__ + 1"));
                let base = at(t.base, "b__");
                head.line(format!("let br__ = {rowblk};"));
                head.line(format!("let rr__ = {parent} - {rp};"));
                head.open("b__", format!("{blo}..{bhi}"));
                head.line(format!("let bc__ = {bcol};"));
                head.line(format!("let cj0__ = {cj0};"));
                head.line(format!("let w__ = {cj1} - cj0__;"));
                head.line(format!("let base__ = {base} + rr__ * w__;"));
                head.open("s__", "0..w__".to_string());
                head.line(format!("let {pv} = base__ + s__;"));
                head.line(format!("let {v0} = (cj0__ + s__) as i64;"));
            }
        }
        Ok(head)
    }

    fn level_loop(
        &mut self,
        si: usize,
        step: &crate::plan::Step,
        primary: &LevelRef,
        perms: &[Option<String>],
        place: Place,
    ) -> Result<(), EmitError> {
        let head = self.level_head(si, step, primary, perms)?;
        let split = self
            .cg
            .edge_split()
            .filter(|_| si + 1 == self.plan.steps.len());
        if let (Some(split), Some(at)) = (split, head.only_loop()) {
            return self.split_loop(si, step, &head, at, split, place);
        }
        let mut opened = 0usize;
        for item in &head.0 {
            match item {
                HeadItem::Line(l) => self.line(l),
                HeadItem::For { var, range } => {
                    self.line(&format!("for {var} in {range} {{"));
                    self.indent += 1;
                    opened += 1;
                }
            }
        }
        self.step_tail(si, step, place)?;
        for _ in 0..opened {
            self.indent -= 1;
            self.line("}");
        }
        Ok(())
    }

    /// The innermost enumeration under an [`EdgeSplit`]: the main loop
    /// over every position but the edge one, and the edge position with
    /// the unsplit body, in enumeration order. `at` indexes the head's
    /// one loop; the lines before it run once, those after it per
    /// position.
    fn split_loop(
        &mut self,
        si: usize,
        step: &crate::plan::Step,
        head: &LoopHead,
        at: usize,
        split: &EdgeSplit,
        place: Place,
    ) -> Result<(), EmitError> {
        let HeadItem::For { var, range } = &head.0[at] else {
            return Err(EmitError("split of a loop head without a loop".into()));
        };
        let lines = |this: &mut Self, items: &[HeadItem]| {
            for item in items {
                if let HeadItem::Line(l) = item {
                    this.line(l);
                }
            }
        };
        lines(self, &head.0[..at]);
        self.line(&format!("let span__ = {range};"));
        self.line("if span__.start < span__.end {");
        self.indent += 1;
        let (edge_at, main_range) = match split.edge {
            Edge::First => ("span__.start", "span__.start + 1..span__.end"),
            Edge::Last => ("span__.end - 1", "span__.start..span__.end - 1"),
        };
        let edge = |this: &mut Self| -> Result<(), EmitError> {
            this.line("{");
            this.indent += 1;
            this.line(&format!("let {var} = {edge_at};"));
            lines(this, &head.0[at + 1..]);
            this.step_tail(si, step, place)?;
            this.indent -= 1;
            this.line("}");
            Ok(())
        };
        let main = |this: &mut Self| -> Result<(), EmitError> {
            // Invariant reads are bound only when the main loop runs, so
            // a checked read fails where its first iteration would.
            let hoisting = !split.invariants.is_empty();
            if hoisting {
                this.line("if span__.end - span__.start > 1 {");
                this.indent += 1;
                for (k, inv) in split.invariants.iter().enumerate() {
                    let read = this.elem("get", &inv.array, &this.pexpr(&inv.idx));
                    this.line(&format!("let {} = {read};", invariant_var(k)));
                }
            }
            this.line(&format!("for {var} in {main_range} {{"));
            this.indent += 1;
            lines(this, &head.0[at + 1..]);
            this.step_tail(
                si,
                step,
                Place {
                    main: true,
                    ..place
                },
            )?;
            for _ in 0..1 + usize::from(hoisting) {
                this.indent -= 1;
                this.line("}");
            }
            Ok(())
        };
        match split.edge {
            Edge::First => {
                edge(self)?;
                main(self)?;
            }
            Edge::Last => {
                main(self)?;
                edge(self)?;
            }
        }
        self.indent -= 1;
        self.line("}");
        Ok(())
    }

    fn merge_join(
        &mut self,
        si: usize,
        step: &crate::plan::Step,
        a: &LevelRef,
        b: &LevelRef,
        place: Place,
    ) -> Result<(), EmitError> {
        // Templated for two ordered coordinate lists: one key array each,
        // walked in step.
        let list = |l: &LevelRef| -> Result<String, EmitError> {
            let site = self.site(l)?;
            let ordered = self.views[&l.matrix]
                .alternatives()
                .iter()
                .flatten()
                .find(|c| c.id == l.chain)
                .and_then(|c| c.levels.get(l.level))
                .is_some_and(|flat| flat.order == Order::Increasing);
            match site.level.kind {
                Kind::Coords { crd: &[ind], .. } if ordered && l.level == 0 => Ok(site.array(ind)),
                _ => Err(EmitError(format!(
                    "merge join templated only for sorted vectors, got {l}"
                ))),
            }
        };
        let (ia, ib) = (list(a)?, list(b)?);
        let (pa, pb) = (pos_var(a.ref_id, 0), pos_var(b.ref_id, 0));
        let v0 = slot_var(step.first_slot);
        self.line(&format!("let mut {pa} = 0usize;"));
        self.line(&format!("let mut {pb} = 0usize;"));
        self.line(&format!("while {pa} < {ia}.len() && {pb} < {ib}.len() {{"));
        self.indent += 1;
        self.line(&format!("let ka__ = *{ia}.get({pa})?;"));
        self.line(&format!("let kb__ = *{ib}.get({pb})?;"));
        self.line("if ka__ < kb__ {");
        self.indent += 1;
        self.line(&format!("{pa} += 1;"));
        self.indent -= 1;
        self.line("} else if kb__ < ka__ {");
        self.indent += 1;
        self.line(&format!("{pb} += 1;"));
        self.indent -= 1;
        self.line("} else {");
        self.indent += 1;
        self.line(&format!("let {v0} = ka__ as i64;"));
        self.line(&format!("let _ = {v0};"));
        self.step_tail(si, step, place)?;
        self.line(&format!("{pa} += 1;"));
        self.line(&format!("{pb} += 1;"));
        self.indent -= 1;
        self.line("}");
        self.indent -= 1;
        self.line("}");
        Ok(())
    }

    fn search(&mut self, sp: &crate::plan::SearchPart) -> Result<(), EmitError> {
        let site = self.site(&sp.target)?;
        let rid = sp.target.ref_id;
        let lev = sp.target.level;
        let pv = pos_var(rid, lev);
        let ok = ok_var(rid, lev);
        let parent_ok = if lev == 0 || !level_searched(self.plan, rid, lev - 1) {
            "true".to_string()
        } else {
            ok_var(rid, lev - 1)
        };
        // Key expressions (apply inverse perms).
        // A permuted key is a lookup: bound once, used by name.
        let mut keys = Vec::new();
        for (i, (e, perm)) in sp.keys.iter().enumerate() {
            let raw = self.pexpr(e);
            match perm {
                Some(_) => {
                    let Some(perm) = site.levels.perm else {
                        return Err(EmitError(format!("{} has no permutation", sp.target)));
                    };
                    let inverse = site.array(perm.unapply);
                    let key = if sp.keys.len() == 1 {
                        "key__".to_string()
                    } else {
                        format!("key{i}__")
                    };
                    self.line(&format!(
                        "let {key} = if ({raw}) >= 0 {{ {inverse}.get(({raw}) as usize).map_or(-1, |&r__| r__ as i64) }} else {{ -1 }};"
                    ));
                    keys.push(key);
                }
                None => keys.push(raw),
            }
        }
        let unsupported = || EmitError(format!("no search template for {}", sp.target));
        let find = site.locate(&keys).ok_or_else(unsupported)?;

        self.line(&format!(
            "let ({ok}, {pv}) = if {parent_ok} {{ match {find} {{ Some(p__) => (true, p__), None => (false, 0usize) }} }} else {{ (false, 0usize) }};"
        ));
        self.line(&format!("let _ = ({ok}, {pv});"));
        for &(r2, l2) in &sp.sharers {
            self.line(&format!(
                "let ({}, {}) = ({ok}, {pv});",
                ok_var(r2, l2),
                pos_var(r2, l2)
            ));
            self.line(&format!(
                "let _ = ({}, {});",
                ok_var(r2, l2),
                pos_var(r2, l2)
            ));
        }
        Ok(())
    }

    fn exec(&mut self, e: &ExecStmt, place: Place) -> Result<(), EmitError> {
        self.line("{");
        self.indent += 1;
        let conds = self.presence_conds(e);
        let mut opened = 0usize;
        if !conds.is_empty() {
            self.line(&format!("if {} {{", conds.join(" && ")));
            self.indent += 1;
            opened += 1;
        }
        for (v, expr, div) in &e.bindings {
            let ex = self.pexpr(expr);
            if *div == 1 {
                self.line(&format!("let {}_ = {ex};", v.to_lowercase()));
            } else {
                self.line(&format!("if ({ex}).rem_euclid({div}) == 0 {{"));
                self.indent += 1;
                opened += 1;
                self.line(&format!(
                    "let {}_ = ({ex}).div_euclid({div});",
                    v.to_lowercase()
                ));
            }
            self.line(&format!("let _ = {}_;", v.to_lowercase()));
        }
        // Guards.
        let gs: Vec<String> = e.guards.iter().map(|g| self.guard_cond(g)).collect();
        if !gs.is_empty() {
            self.line(&format!("if {} {{", gs.join(" && ")));
            self.indent += 1;
            opened += 1;
        }
        let mut next_access = 1usize;
        let rhs = self.value_expr(e, &e.body.rhs, &mut next_access, place)?;
        let lhs = self.lhs(e, &e.body.lhs, place)?;
        self.line(&format!("{lhs} = {rhs};"));
        for _ in 0..opened {
            self.indent -= 1;
            self.line("}");
        }
        self.indent -= 1;
        self.line("}");
        Ok(())
    }

    /// Required-refs presence: the ok flags of every searched level of
    /// the statement's required refs.
    fn presence_conds(&self, e: &ExecStmt) -> Vec<String> {
        presence_levels(self.plan, e)
            .into_iter()
            .map(|(rid, lev)| ok_var(rid, lev))
            .collect()
    }

    fn lhs(&mut self, e: &ExecStmt, r: &LhsRef, place: Place) -> Result<String, EmitError> {
        match &e.sources[0] {
            None => {
                if let Some(reg) = self.promoted_elem(e, r, place) {
                    return Ok(reg);
                }
                Ok(self.elem("get_mut", &r.array, &self.affine(&r.idxs[0])))
            }
            Some(_) => Err(EmitError(
                "sparse writes are not supported by the emitter".into(),
            )),
        }
    }

    /// If `r` is the promoted element for this (full-depth) exec, the
    /// register that holds it at `place`.
    fn promoted_elem(&self, e: &ExecStmt, r: &LhsRef, place: Place) -> Option<String> {
        let pr = self.cg.promotion()?;
        let full = e.depth == self.plan.steps.len();
        (full && pr.holds(self.p, e, &r.array, &r.idxs[0])).then(|| place.reg.to_string())
    }

    /// In the split's main loop: is access `access` of `e` one of the
    /// reads bound before the loop, and which?
    fn invariant_read(&self, e: &ExecStmt, access: usize, place: Place) -> Option<usize> {
        let split = self.cg.edge_split().filter(|_| place.main)?;
        split
            .invariants
            .iter()
            .position(|inv| inv.stmt == e.stmt && inv.access == access)
    }

    fn value_expr(
        &mut self,
        e: &ExecStmt,
        v: &ValueExpr,
        next_access: &mut usize,
        place: Place,
    ) -> Result<String, EmitError> {
        Ok(match v {
            ValueExpr::Const(c) => {
                if c.fract() == 0.0 && c.abs() < 1e15 {
                    format!("{:.1}", c)
                } else {
                    format!("{c:?}")
                }
            }
            ValueExpr::Read(r) => {
                let access = *next_access;
                *next_access += 1;
                match e.sources.get(access).and_then(|s| s.as_ref()) {
                    Some(ValueSource::Position { ref_id }) => {
                        let meta = &self.plan.refs[*ref_id];
                        let pv = pos_var(*ref_id, meta.levels - 1);
                        self.value_at(&meta.matrix.clone(), *ref_id, &pv)?
                    }
                    Some(ValueSource::Random { ref_id }) => {
                        let meta = &self.plan.refs[*ref_id];
                        let m = self.mat(&meta.matrix).to_string();
                        let rr = self.affine(&r.idxs[0]);
                        let cc = if r.idxs.len() > 1 {
                            self.affine(&r.idxs[1])
                        } else {
                            "0".to_string()
                        };
                        format!("{m}.get(({rr}) as usize, ({cc}) as usize)")
                    }
                    None => {
                        if let Some(reg) = self.promoted_elem(e, r, place) {
                            reg
                        } else if let Some(k) = self.invariant_read(e, access, place) {
                            invariant_var(k)
                        } else {
                            self.elem("get", &r.array, &self.affine(&r.idxs[0]))
                        }
                    }
                }
            }
            ValueExpr::Add(a, b) => format!(
                "({} + {})",
                self.value_expr(e, a, next_access, place)?,
                self.value_expr(e, b, next_access, place)?
            ),
            ValueExpr::Sub(a, b) => format!(
                "({} - {})",
                self.value_expr(e, a, next_access, place)?,
                self.value_expr(e, b, next_access, place)?
            ),
            ValueExpr::Mul(a, b) => format!(
                "({} * {})",
                self.value_expr(e, a, next_access, place)?,
                self.value_expr(e, b, next_access, place)?
            ),
            ValueExpr::Div(a, b) => format!(
                "({} / {})",
                self.value_expr(e, a, next_access, place)?,
                self.value_expr(e, b, next_access, place)?
            ),
            ValueExpr::Neg(a) => format!("(-{})", self.value_expr(e, a, next_access, place)?),
        })
    }

    /// The value expression at a position of a ref's chain.
    fn value_at(&self, matrix: &str, rid: usize, pv: &str) -> Result<String, EmitError> {
        let (levels, _) = described(&self.views[matrix].name)?;
        let chain = levels.chains.get(self.plan.refs[rid].chain);
        let chain = chain.ok_or_else(|| EmitError(format!("reference {rid} is of no chain")))?;
        let values = format!("{}.{}", self.mat(matrix), levels.array(chain.values));
        Ok(self.ix(&values, pv))
    }

    /// PExpr → Rust i64 expression.
    /// A guard as a Rust boolean expression, printed in *two-sided*
    /// comparison form: `v0 > v1` rather than `(v0 - v1 - 1) >= 0`.
    ///
    /// The single-sided form forces a wrapped i64 subtraction chain the
    /// optimizer must keep (signed `a - b` may wrap, so `a - b - 1 >= 0`
    /// cannot legally be folded to `a > b` after the fact); moving the
    /// negative terms across the comparison here is sound because every
    /// atom is a loop index or size parameter derived from an in-memory
    /// array extent, far below the i64 overflow boundary. Measured ~20%
    /// on the triangular-solve inner loop, whose lower/diagonal split is
    /// guard-driven.
    fn guard_cond(&self, g: &Guard) -> String {
        let (op, x) = match g {
            Guard::Eq(x) => ("==", x),
            Guard::Ge(x) => (">=", x),
            Guard::Divides(x, d) => {
                return format!("({}).rem_euclid({d}) == 0", self.pexpr(x));
            }
        };
        let mut lhs = PExpr {
            terms: Vec::new(),
            cst: 0,
        };
        let mut rhs = PExpr {
            terms: Vec::new(),
            cst: 0,
        };
        for (a, c) in &x.terms {
            if *c > 0 {
                lhs.terms.push((a.clone(), *c));
            } else {
                rhs.terms.push((a.clone(), -*c));
            }
        }
        // `lhs - rhs - 1 >= 0` is exactly `lhs > rhs`.
        let op = if op == ">=" && x.cst == -1 && !lhs.terms.is_empty() {
            ">"
        } else {
            if x.cst > 0 {
                lhs.cst = x.cst;
            } else {
                rhs.cst = -x.cst;
            }
            op
        };
        format!("{} {op} {}", self.pexpr(&lhs), self.pexpr(&rhs))
    }

    fn pexpr(&self, e: &PExpr) -> String {
        let mut parts: Vec<String> = Vec::new();
        for (a, c) in &e.terms {
            let name = match a {
                Atom::Slot(i) => slot_var(*i),
                Atom::Var(n) => format!("{}_", n.to_lowercase()),
            };
            match *c {
                1 => parts.push(name),
                -1 => parts.push(format!("-{name}")),
                c => parts.push(format!("{c} * {name}")),
            }
        }
        if e.cst != 0 || parts.is_empty() {
            parts.push(format!("{}", e.cst));
        }
        parts.join(" + ").replace("+ -", "- ")
    }

    /// AffineExpr (over loop vars / params) → Rust i64 expression.
    fn affine(&self, e: &bernoulli_ir::AffineExpr) -> String {
        let mut parts: Vec<String> = Vec::new();
        for (v, c) in e.terms() {
            let name = format!("{}_", v.to_lowercase());
            match c {
                1 => parts.push(name),
                -1 => parts.push(format!("-{name}")),
                c => parts.push(format!("{c} * {name}")),
            }
        }
        if e.cst() != 0 || parts.is_empty() {
            parts.push(format!("{}", e.cst()));
        }
        parts.join(" + ").replace("+ -", "- ")
    }
}

fn slot_var(i: usize) -> String {
    format!("v{i}")
}

fn pos_var(rid: usize, lev: usize) -> String {
    format!("p{rid}_{lev}")
}

fn ok_var(rid: usize, lev: usize) -> String {
    format!("ok{rid}_{lev}")
}

fn invariant_var(k: usize) -> String {
    format!("inv{k}__")
}

/// How every emitted function opens; its name follows, and occurs
/// nowhere else in the text.
const FN_OPEN: &str = "pub fn ";

/// An emitted module with the function's name left open: the text up to
/// the name and the text after it.
#[derive(Clone, Debug)]
pub struct ModuleText {
    head: String,
    tail: String,
}

impl ModuleText {
    /// The module with its function called `fn_name`.
    pub fn named(&self, fn_name: &str) -> String {
        let mut out = String::with_capacity(self.head.len() + fn_name.len() + self.tail.len());
        out.push_str(&self.head);
        out.push_str(fn_name);
        out.push_str(&self.tail);
        out
    }
}

/// Emits a complete module — header comment, imports, and one function
/// — with the function's name left open, printing from `plan`'s record.
pub fn emit_module_open(
    p: &Program,
    plan: &Plan,
    views: &HashMap<String, FormatView>,
    cg: &Codegen,
) -> Result<ModuleText, EmitError> {
    let body = print(p, plan, views, cg, "", false)?;
    let tail = body
        .strip_prefix(FN_OPEN)
        .ok_or_else(|| EmitError(format!("an emitted function opens with {FN_OPEN:?}")))?;
    let mut used_types: Vec<String> = Vec::new();
    for a in &p.arrays {
        if let Some(v) = views.get(&a.name) {
            let ty = rust_type(&v.name)?;
            let base = ty.split('<').next().unwrap_or(&ty).to_string();
            if !used_types.contains(&base) {
                used_types.push(base);
            }
        }
    }
    let mut head = String::new();
    head.push_str("// GENERATED by bernoulli-synth — do not edit by hand.\n");
    head.push_str("// Regenerated and checked by the kernel fidelity tests in bernoulli-blas.\n");
    if !used_types.is_empty() {
        let _ = writeln!(
            head,
            "use bernoulli_formats::{{{}}};",
            used_types.join(", ")
        );
    }
    if cg.random_access() {
        head.push_str("#[allow(unused_imports)]\nuse bernoulli_formats::SparseMatrix as _;\n");
    }
    head.push('\n');
    head.push_str(FN_OPEN);
    Ok(ModuleText {
        head,
        tail: tail.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::best_plan;
    use bernoulli_formats::formats::{bsr, coo, csc, csr, dia, ell, jad, sky, vbr};
    use bernoulli_formats::view::{Bound, StoredGuarantee};
    use bernoulli_ir::parse_program;

    const TS: &str = "program ts(N) { in matrix L[N][N]; inout vector b[N];
        for j in 0..N { b[j] = b[j] / L[j][j];
          for i in j+1..N { b[i] = b[i] - L[i][j] * b[j]; } } }";
    const MVM: &str = "program mvm(M, N) { in matrix A[M][N]; in vector x[N]; inout vector y[M];
        for i in 0..M { for j in 0..N { y[i] = y[i] + A[i][j] * x[j]; } } }";
    /// `y += strictly-lower(A)·x`: one statement, guarded `j < i`.
    const STRICT_LOWER: &str =
        "program sl(N) { in matrix A[N][N]; in vector x[N]; inout vector y[N];
        for i in 0..N { for j in 0..i { y[i] = y[i] + A[i][j] * x[j]; } } }";

    type Outcome<T> = Result<T, Box<dyn std::error::Error>>;

    fn lower_triangular(mut v: FormatView) -> FormatView {
        v.bounds.push(Bound::attr_ge("r", "c"));
        v.guarantees.push(StoredGuarantee::FullDiagonal);
        v
    }

    /// A program, its best plan with `matrix` stored as `view`, and the
    /// view map `emit_rust` takes.
    struct Case {
        p: Program,
        plan: Plan,
        views: HashMap<String, FormatView>,
    }

    impl Case {
        fn of(src: &str, matrix: &str, view: FormatView) -> Outcome<Case> {
            let p = parse_program(src)?;
            let plan = best_plan(&p, &[(matrix, view.clone())])?;
            let views = HashMap::from([(matrix.to_string(), view)]);
            Ok(Case { p, plan, views })
        }

        fn emit(&self, plan: &Plan) -> Outcome<String> {
            Ok(emit_rust(&self.p, plan, &self.views, "k")?)
        }

        fn split(&self) -> Option<EdgeSplit> {
            Codegen::of(&self.p, &self.plan, &self.views)
                .edge_split()
                .cloned()
        }

        /// No split, and the text of the same plan without a proof.
        fn assert_unsplit(&self, what: &str) -> Outcome<()> {
            assert!(self.split().is_none(), "{what}");
            let text = self.emit(&self.plan)?;
            assert!(!text.contains("span__"), "{what}:\n{text}");
            assert_eq!(text, self.emit(&unproved(&self.plan))?, "{what}");
            Ok(())
        }
    }

    /// The same plan as lowering leaves it without a proof.
    fn unproved(plan: &Plan) -> Plan {
        let mut plan = plan.clone();
        for s in &mut plan.steps {
            s.edge_bound = None;
        }
        plan
    }

    #[test]
    fn edge_split_fires_on_the_triangular_solves() -> Outcome<()> {
        for (name, view, edge, main_loop) in [
            (
                "csr",
                csr::csr_format_view(),
                Edge::Last,
                "for p0_1 in span__.start..span__.end - 1 {",
            ),
            (
                "csc",
                csc::csc_format_view(),
                Edge::First,
                "for p0_1 in span__.start + 1..span__.end {",
            ),
            (
                "jad",
                jad::jad_format_view(),
                Edge::Last,
                "for d__ in span__.start..span__.end - 1 {",
            ),
            (
                "sky",
                sky::sky_format_view(),
                Edge::Last,
                "for v1 in span__.start..span__.end - 1 {",
            ),
        ] {
            let case = Case::of(TS, "L", lower_triangular(view))?;
            let bound = case.plan.steps.last().and_then(|s| s.edge_bound.as_ref());
            assert_eq!(
                bound.map(|b| b.edge),
                Some(edge),
                "ts/{name}:\n{}",
                case.plan
            );
            let split = case.split().ok_or_else(|| format!("ts/{name}: no split"))?;
            // The pivot statement stays at the edge; the other loses
            // its guard.
            assert_eq!(split.main.len(), 1, "ts/{name}");
            assert!(split.main[0].guards.is_empty(), "ts/{name}");
            assert_eq!(
                split.invariants.len(),
                usize::from(name == "csc"),
                "ts/{name}"
            );
            let text = case.emit(&case.plan)?;
            assert!(text.contains(main_loop), "ts/{name}:\n{text}");
            // Both guards appear once: at the edge position.
            let strict = if edge == Edge::First {
                "v1 > v0"
            } else {
                "v0 > v1"
            };
            for guard in ["if v1 == v0 {", strict] {
                assert_eq!(
                    text.matches(guard).count(),
                    1,
                    "ts/{name}, {guard}:\n{text}"
                );
            }
        }
        Ok(())
    }

    #[test]
    fn edge_split_fires_on_a_strictly_lower_product() -> Outcome<()> {
        let case = Case::of(STRICT_LOWER, "A", lower_triangular(csr::csr_format_view()))?;
        let split = case.split().ok_or("no split")?;
        assert_eq!(split.edge, Edge::Last);
        let text = case.emit(&case.plan)?;
        assert!(
            text.contains("for p0_1 in span__.start..span__.end - 1 {"),
            "{text}"
        );
        assert_eq!(text.matches("if v0 > v1 {").count(), 1, "{text}");
        // Without the view's bound nothing proves where the diagonal is.
        Case::of(STRICT_LOWER, "A", csr::csr_format_view())?.assert_unsplit("no bound")
    }

    #[test]
    fn edge_split_refuses_what_it_cannot_prove() -> Outcome<()> {
        for (name, view) in [
            ("csr", csr::csr_format_view()),
            ("csc", csc::csc_format_view()),
            ("coo", coo::coo_format_view()),
            ("dia", dia::dia_format_view()),
            ("ell", ell::ell_format_view()),
            ("jad", jad::jad_format_view()),
            ("sky", sky::sky_format_view()),
            ("bsr2x2", bsr::bsr_format_view(2, 2)),
            ("vbr", vbr::vbr_format_view()),
        ] {
            let case = Case::of(MVM, "A", view)?;
            assert!(
                case.plan.steps.iter().all(|s| s.edge_bound.is_none()),
                "mvm/{name}"
            );
            case.assert_unsplit(&format!("mvm/{name}"))?;
        }

        // An unordered level.
        Case::of(TS, "L", lower_triangular(coo::coo_format_view()))?.assert_unsplit("ts/coo")?;

        // No bound on the view: same plan, same text as ever.
        let mut diagonal_only = csr::csr_format_view();
        diagonal_only.guarantees.push(StoredGuarantee::FullDiagonal);
        let stripped = Case::of(TS, "L", diagonal_only)?;
        stripped.assert_unsplit("ts/csr without its bound")?;
        let proved = Case::of(TS, "L", lower_triangular(csr::csr_format_view()))?;
        assert_eq!(
            stripped.emit(&stripped.plan)?,
            proved.emit(&unproved(&proved.plan))?
        );

        // A recorded bound does not decide a guard with another
        // coefficient on the slot.
        let mut doubled = proved;
        for e in &mut doubled.plan.execs {
            for g in &mut e.guards {
                if let Guard::Ge(x) = g {
                    for (_, c) in &mut x.terms {
                        *c *= 2;
                    }
                }
            }
        }
        assert!(doubled
            .plan
            .steps
            .last()
            .is_some_and(|s| s.edge_bound.is_some()));
        doubled.assert_unsplit("coefficient 2")?;

        // Nor does lowering record one where the strict guard is over
        // a divisor-bound variable (`2j == c`), not the slot.
        let strided = STRICT_LOWER.replace("y[i] + A[i][j] * x[j]", "y[i] + A[i][2*j] * x[j]");
        Case::of(&strided, "A", lower_triangular(csr::csr_format_view()))?
            .assert_unsplit("a strided column")
    }
}
