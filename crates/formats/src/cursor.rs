//! Runtime level cursors: the executable half of the low-level API.
//!
//! The paper implements enumeration through a C++ class hierarchy
//! (`term_nesting`, `increasing_iterator`, `interval_iterator`, …) whose
//! methods are resolved statically via the Barton–Nackman trick: one
//! description of a format, instantiated by the compiler. Here the
//! description is data — the [`Levels`](crate::level::Levels) declared
//! beside each format struct — and both halves of the low-level API are
//! renderings of it: the code *emitter* of `bernoulli-synth` prints a
//! level as a specialized loop head (the static instantiation, like the
//! paper's Fig. 9), and the plan *interpreter* walks the same level
//! through the one generic cursor of this module (the dynamic
//! interface). No format implements a cursor of its own, so the two
//! cannot disagree about a level.
//!
//! A format exposes one or more [`Chain`](crate::view::Chain)s (linearized
//! access paths). Within a chain, every nesting level supports:
//!
//! - `cursor`/`advance`: enumerate the keys stored at this level beneath a
//!   parent position, forward or (for interval levels) backward;
//! - `search`: find the child position for a given key, per the level's
//!   [`SearchKind`](crate::view::SearchKind);
//! - at the innermost level, `value_at`/`set_value_at` read and write the
//!   stored scalar.
//!
//! Positions are opaque `usize` tokens whose meaning is format-private
//! (e.g. for CSR, the level-0 position is a row number and the level-1
//! position is an index into `colind`/`values`).

use crate::level::{Args, Base, Bound, Kind, Level, Leveled, Locate, Slice, SlotAt};
use crate::view::{detect_properties, FormatView, Transform};
use crate::SparseMatrix;

/// Opaque per-format position token.
pub type Position = usize;

/// The keys bound by one cursor step, one per attribute of the level,
/// held inline (two at most, and how many): reads as a `[i64]`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Keys([i64; 2], usize);

impl std::ops::Deref for Keys {
    type Target = [i64];

    fn deref(&self) -> &[i64] {
        &self.0[..self.1]
    }
}

/// Enumeration state for one level of one chain.
///
/// The generic walk is: `let mut cur = view.cursor(chain, level, pos, rev);`
/// then `while view.advance(&mut cur) { use cur.keys / cur.pos }`.
#[derive(Clone, Debug)]
pub struct ChainCursor<'a> {
    /// Chain id (as assigned by [`FormatView::alternatives`]).
    pub chain: usize,
    /// Level within the chain.
    pub level: usize,
    /// Parent position this cursor enumerates under.
    pub parent: Position,
    /// Traverse in decreasing key order (supported on interval levels).
    pub reverse: bool,
    /// Keys of the current entry (valid after a successful `advance`).
    pub keys: Keys,
    /// Child position of the current entry (valid after `advance`).
    pub pos: Position,
    /// The raw index steps over `lo..hi`, by `walk`'s meaning of it.
    idx: i64,
    lo: i64,
    hi: i64,
    walk: Walk<'a>,
}

/// What a raw index means, with the level's arrays at hand.
#[derive(Clone, Debug)]
enum Walk<'a> {
    /// The key itself; `pos = base + (key - lo)`.
    Interval { base: usize },
    /// A position; its keys are `crd[pos]` and, coupled, `more[pos]`.
    Stored(Slice<'a>, Option<Slice<'a>>),
    /// A slot; `pos = table[slot] + parent`.
    Table(&'a [usize], Slice<'a>),
    /// A position of run `d` of `ptr`.
    Jagged(&'a [usize], Slice<'a>, usize),
    /// A block; `s` counts the columns taken of it, `rr` is the row.
    Blocks(&'a [usize], Shape<'a>, usize, usize),
}

/// The extents of a level's blocks: one shape for all, or cut by `cuts`
/// with each block's values at its `base`.
#[derive(Clone, Copy, Debug)]
enum Shape<'a> {
    Fixed(usize, usize),
    Cut(&'a [usize], &'a [usize]),
}

impl Shape<'_> {
    /// Block `b` in block column `bc`, for row `rr` of its rows: the
    /// first column, how many, and the position of the first.
    fn block(&self, b: usize, bc: usize, rr: usize) -> (usize, usize, usize) {
        match *self {
            Shape::Fixed(r, c) => (bc * c, c, (b * r + rr) * c),
            Shape::Cut(cuts, base) => {
                let width = cuts[bc + 1] - cuts[bc];
                (cuts[bc], width, base[b] + rr * width)
            }
        }
    }
}

/// The description of `(chain, level)`: the one place a chain or level
/// the view does not have is refused.
fn level_of<V: Leveled + ?Sized>(view: &V, chain: usize, level: usize) -> &'static Level {
    let levels = view.levels();
    levels
        .level(chain, level)
        .unwrap_or_else(|| panic!("{} has no level {level} of chain {chain}", levels.name))
}

fn bound<V: Leveled + ?Sized>(view: &V, b: Bound, parent: Position) -> i64 {
    match b {
        Bound::Zero => 0,
        Bound::Extent(d) => view.dim(d) as i64,
        Bound::At(a) => view.array(a).key(parent),
        Bound::Next => parent as i64 + 1,
    }
}

/// The position of key `lo`.
fn base<V: Leveled + ?Sized>(view: &V, b: Base, parent: Position, lo: i64) -> usize {
    match b {
        Base::Identity => lo as usize,
        Base::Stride(d) => parent * view.dim(d),
        Base::Ptr(a) => view.array(a).usizes()[parent],
    }
}

fn open<V: Leveled + ?Sized>(
    view: &V,
    chain: usize,
    level: usize,
    parent: Position,
    reverse: bool,
) -> ChainCursor<'_> {
    let lv = level_of(view, chain, level);
    assert!(
        !reverse || lv.is_interval(),
        "{}: level {level} of chain {chain} enumerates forward only",
        view.levels().name
    );
    let at = |a, i: usize| view.array(a).usizes()[i] as i64;
    let (lo, hi, walk) = match lv.kind {
        Kind::Interval { lo, hi, base: b } => {
            let lo = bound(view, lo, parent);
            let base = base(view, b, parent, lo);
            (lo, bound(view, hi, parent), Walk::Interval { base })
        }
        Kind::Compressed { ptr, crd } => {
            let walk = Walk::Stored(view.array(crd), None);
            (at(ptr, parent), at(ptr, parent + 1), walk)
        }
        Kind::Coords { len, crd } => {
            let walk = Walk::Stored(view.array(crd[0]), crd.get(1).map(|&a| view.array(a)));
            (0, view.array(len).len() as i64, walk)
        }
        Kind::Slots {
            count,
            at: slot,
            crd,
        } => match slot {
            SlotAt::RowMajor(width) => {
                let first = (parent * view.dim(width)) as i64;
                let walk = Walk::Stored(view.array(crd), None);
                (first, first + at(count, parent), walk)
            }
            SlotAt::Table(table) => {
                let walk = Walk::Table(view.array(table).usizes(), view.array(crd));
                (0, at(count, parent), walk)
            }
        },
        Kind::Jagged { ptr, crd } => {
            let len = view.array(view.levels().chains[chain].values).len();
            let walk = Walk::Jagged(view.array(ptr).usizes(), view.array(crd), 0);
            (0, len as i64, walk)
        }
        Kind::Blocks { ptr, crd, r, c } => {
            let (r, c) = (view.dim(r), view.dim(c));
            let walk = Walk::Blocks(view.array(crd).usizes(), Shape::Fixed(r, c), 0, parent % r);
            (at(ptr, parent / r), at(ptr, parent / r + 1), walk)
        }
        Kind::Strips(s) => {
            let br = at(s.strip_of, parent) as usize;
            let shape = Shape::Cut(view.array(s.cuts).usizes(), view.array(s.base).usizes());
            let rr = parent - at(s.start, br) as usize;
            let walk = Walk::Blocks(view.array(s.crd).usizes(), shape, 0, rr);
            (at(s.begin, br), at(s.end, br), walk)
        }
    };
    ChainCursor {
        chain,
        level,
        parent,
        reverse,
        keys: Keys::default(),
        pos: 0,
        idx: if reverse { hi } else { lo - 1 },
        lo,
        hi,
        walk,
    }
}

impl ChainCursor<'_> {
    fn advance(&mut self) -> bool {
        // Blocks step within a block first; every other walk steps the
        // raw index.
        if !matches!(self.walk, Walk::Blocks(..)) {
            self.idx += if self.reverse { -1 } else { 1 };
            if !(self.lo..self.hi).contains(&self.idx) {
                return false;
            }
        }
        let i = self.idx as usize;
        (self.keys, self.pos) = match &mut self.walk {
            Walk::Interval { base } => {
                let pos = *base + (self.idx - self.lo) as usize;
                (Keys([self.idx, 0], 1), pos)
            }
            Walk::Stored(crd, None) => (Keys([crd.key(i), 0], 1), i),
            Walk::Stored(crd, Some(more)) => (Keys([crd.key(i), more.key(i)], 2), i),
            Walk::Table(table, crd) => {
                let pos = table[i] + self.parent;
                (Keys([crd.key(pos), 0], 1), pos)
            }
            Walk::Jagged(ptr, crd, d) => {
                while i >= ptr[*d + 1] {
                    *d += 1;
                }
                (Keys([(i - ptr[*d]) as i64, crd.key(i)], 2), i)
            }
            // The next column of block `idx`, or else the first of the
            // next block that has any.
            Walk::Blocks(crd, shape, s, rr) => loop {
                *s += 1;
                if self.idx >= self.hi {
                    return false;
                }
                if self.idx >= self.lo {
                    let b = self.idx as usize;
                    let (first, width, at) = shape.block(b, crd[b], *rr);
                    if *s <= width {
                        break (Keys([(first + *s - 1) as i64, 0], 1), at + *s - 1);
                    }
                }
                (self.idx, *s) = (self.idx + 1, 0);
            },
        };
        true
    }
}

fn locate<V: Leveled + ?Sized>(
    view: &V,
    chain: usize,
    level: usize,
    parent: Position,
    keys: &[i64],
) -> Option<Position> {
    let lv = level_of(view, chain, level);
    let k = keys[0];
    match (lv.locate, lv.kind) {
        (Locate::Bounds, Kind::Interval { lo, hi, base: b }) => {
            let lo = bound(view, lo, parent);
            (k >= lo && k < bound(view, hi, parent))
                .then(|| base(view, b, parent, lo) + (k - lo) as usize)
        }
        (Locate::BinarySearch, Kind::Coords { crd, .. }) => match view.array(crd[0]) {
            Slice::I64(a) => a.binary_search(&k).ok(),
            a => a.usizes().binary_search(&usize::try_from(k).ok()?).ok(),
        },
        (Locate::Find(args), _) => {
            let (a, b) = match args {
                Args::ParentKey => (parent as i64, k),
                Args::KeyParent => (k, parent as i64),
                Args::Keys => (k, keys[1]),
                Args::Key => (k, 0),
            };
            view.find_at(usize::try_from(a).ok()?, usize::try_from(b).ok()?)
        }
        (Locate::Hash(_), _) => view.find_at(usize::try_from(k).ok()?, 0),
        (Locate::None | Locate::Bounds | Locate::BinarySearch, _) => panic!(
            "{}: level {level} of chain {chain} does not support search",
            view.levels().name
        ),
    }
}

/// The dynamic low-level API of every format (at `f64`): the generic
/// walk of the format's [`Levels`](crate::level::Levels) over the fields
/// it hands out as a [`Leveled`]. A format implements none of it.
///
/// Chain and level numbering is that of [`FormatView::alternatives`].
pub trait SparseView: SparseMatrix + Leveled {
    /// The index-structure description of this format instance: the
    /// format's view with the enumeration bounds and storage guarantees
    /// its stored pattern supports.
    fn format_view(&self) -> FormatView {
        let mut view = self.static_view();
        let (bounds, detected) = detect_properties(&self.entries(), self.nrows(), self.ncols());
        view.bounds = bounds;
        for guarantee in detected {
            if !view.guarantees.contains(&guarantee) {
                view.guarantees.push(guarantee);
            }
        }
        view
    }

    /// Opens a cursor over `level` of `chain` beneath `parent`.
    ///
    /// # Panics
    /// Panics if `reverse` is requested on a level that does not support
    /// it (non-interval levels), or on invalid chain/level.
    fn cursor(
        &self,
        chain: usize,
        level: usize,
        parent: Position,
        reverse: bool,
    ) -> ChainCursor<'_> {
        open(self, chain, level, parent, reverse)
    }

    /// Advances the cursor, filling `keys` and `pos`. Returns `false` at
    /// the end of the level.
    fn advance(&self, cur: &mut ChainCursor<'_>) -> bool {
        cur.advance()
    }

    /// Searches `level` of `chain` beneath `parent` for `keys`; returns
    /// the child position if the keys are stored.
    ///
    /// Supported per the level's [`SearchKind`](crate::view::SearchKind);
    /// `SearchKind::None` levels panic.
    fn search(
        &self,
        chain: usize,
        level: usize,
        parent: Position,
        keys: &[i64],
    ) -> Option<Position> {
        locate(self, chain, level, parent, keys)
    }

    /// Reads the stored value at a leaf position of `chain`.
    fn value_at(&self, chain: usize, pos: Position) -> f64 {
        self.array(self.levels().chains[chain].values).values()[pos]
    }

    /// Writes the stored value at a leaf position of `chain`.
    fn set_value_at(&mut self, chain: usize, pos: Position, v: f64) {
        self.values_mut(self.levels().chains[chain].values)[pos] = v;
    }

    /// Applies the view's permutation table: `table[x]`.
    ///
    /// # Panics
    /// Panics on a format whose view contains no `perm` production.
    fn perm_apply(&self, x: i64) -> i64 {
        self.array(permutation(self.levels()).apply).usizes()[x as usize] as i64
    }

    /// Applies the inverse of the view's permutation table.
    fn perm_unapply(&self, x: i64) -> i64 {
        self.array(permutation(self.levels()).unapply).usizes()[x as usize] as i64
    }
}

fn permutation(levels: &crate::level::Levels) -> crate::level::Perm {
    levels
        .perm
        .unwrap_or_else(|| panic!("{} has no permutation table", levels.name))
}

/// Walks an entire chain recursively, invoking `f` with the stored
/// attribute keys (outermost-level first) and the value. Utility for
/// tests and for the view-conformance checker. A chain id the view
/// does not declare has no entries, so the walk visits nothing.
pub fn walk_chain(view: &dyn SparseView, chain: usize, f: &mut dyn FnMut(&[i64], f64)) {
    let Some(described) = view.levels().chains.get(chain) else {
        return;
    };
    let mut keys: Vec<i64> = Vec::new();
    walk_rec(view, chain, 0, described.levels.len(), 0, &mut keys, f);
}

fn walk_rec(
    view: &dyn SparseView,
    chain: usize,
    level: usize,
    nlevels: usize,
    parent: Position,
    keys: &mut Vec<i64>,
    f: &mut dyn FnMut(&[i64], f64),
) {
    if level == nlevels {
        f(keys, view.value_at(chain, parent));
        return;
    }
    let mut cur = view.cursor(chain, level, parent, false);
    while view.advance(&mut cur) {
        let depth = keys.len();
        keys.extend_from_slice(&cur.keys);
        walk_rec(view, chain, level + 1, nlevels, cur.pos, keys, f);
        keys.truncate(depth);
    }
}

/// Checks that a format's view description is *faithful*: enumerating
/// every chain of the given alternative visits exactly the stored entries
/// of the matrix, with coordinates that, after applying the chain's `fwd`
/// transforms, agree with random access. Returns an error description on
/// the first mismatch.
///
/// This is the executable contract between the format implementor and the
/// compiler (property P2 of DESIGN.md).
pub fn check_view_conformance(view: &dyn SparseView, alternative: usize) -> Result<(), String> {
    use std::collections::HashMap;
    // Chains and transforms are the format's; nothing here reads what
    // only the instance knows.
    let fv = view.static_view();
    let alts = fv.alternatives();
    let alt = alts
        .get(alternative)
        .ok_or_else(|| format!("alternative {alternative} out of range"))?;

    let mut seen: HashMap<(i64, i64), f64> = HashMap::new();
    for chain in alt {
        let stored: Vec<String> = chain.stored_attrs().iter().map(|s| s.to_string()).collect();
        let mut err: Option<String> = None;
        walk_chain(view, chain.id, &mut |keys, v| {
            if err.is_some() {
                return;
            }
            // Bind stored attrs, then run fwd transforms to dense coords.
            let mut env: HashMap<&str, i64> = HashMap::new();
            for (a, &k) in stored.iter().zip(keys) {
                env.insert(a.as_str(), k);
            }
            for t in &chain.fwd {
                let val = match t {
                    Transform::Affine { terms, cst, .. } => {
                        let mut acc = *cst;
                        for (a, c) in terms {
                            let Some(&x) = env.get(a.as_str()) else {
                                err = Some(format!("transform input {a} unbound"));
                                return;
                            };
                            acc += c * x;
                        }
                        acc
                    }
                    Transform::PermApply { input, .. } | Transform::PermUnapply { input, .. } => {
                        let Some(&x) = env.get(input.as_str()) else {
                            err = Some(format!("perm input {input} unbound"));
                            return;
                        };
                        match t {
                            Transform::PermApply { .. } => view.perm_apply(x),
                            _ => view.perm_unapply(x),
                        }
                    }
                };
                env.insert(t.out(), val);
            }
            let dense: Vec<i64> = fv
                .dense_attrs
                .iter()
                .map(|a| *env.get(a.as_str()).unwrap_or(&i64::MIN))
                .collect();
            if dense.contains(&i64::MIN) {
                err = Some(format!("dense attrs unbound after transforms: {env:?}"));
                return;
            }
            let (r, c) = (dense[0], *dense.get(1).unwrap_or(&0));
            if r < 0 || c < 0 || r as usize >= view.nrows() || c as usize >= view.ncols() {
                err = Some(format!("coordinates out of range: ({r}, {c})"));
                return;
            }
            let expect = view.get(r as usize, c as usize);
            if expect != v {
                err = Some(format!(
                    "value mismatch at ({r}, {c}): random access {expect}, enumeration {v}"
                ));
                return;
            }
            if seen.insert((r, c), v).is_some() {
                err = Some(format!("entry ({r}, {c}) enumerated twice"));
            }
        });
        if let Some(e) = err {
            return Err(format!("chain {}: {e}", chain.id));
        }
    }
    let nnz = view.nnz();
    if seen.len() != nnz {
        return Err(format!(
            "alternative {alternative} enumerated {} entries, nnz is {nnz}",
            seen.len()
        ));
    }
    Ok(())
}
