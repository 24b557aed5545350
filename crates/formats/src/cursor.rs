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
//! cannot disagree about a level. The cursor enumerates a level by the
//! one iteration of its kind (`iterate.rs`), the same two
//! functions the walk `leveled!` derives for each view calls with every
//! level a constant ([`SparseView::walk`], [`walk_chain`]).
//!
//! A format exposes one or more [`Chain`](crate::view::Chain)s (linearized access paths).
//! Within a chain, every nesting level supports:
//!
//! - `cursor`/`advance`: enumerate the keys stored at this level beneath a
//!   parent position, forward or (for interval levels) backward;
//! - `search`: find the child position for a given key, by the search of
//!   the level's kind ([`crate::search`], the text every kernel crate
//!   includes too);
//! - at the innermost level, `value_at` reads the stored scalar (sparse
//!   operands are read-only).
//!
//! Positions are opaque `usize` tokens whose meaning is format-private
//! (e.g. for CSR, the level-0 position is a row number and the level-1
//! position is an index into `colind`/`values`).
//!
//! The dense lookup of the high-level API is derived from the same
//! searches: [`SparseView::find`] searches, level by level, the first
//! chain whose levels all search, for the keys the view's inverse maps
//! give the row and the column (`dense_keys`, `keys_at`, `search_at`,
//! each level a constant in the walk `leveled!` spells out).

use crate::assemble::Coord;
pub use crate::iterate::ChainCursor;
use crate::iterate::{base, bound};
use crate::level::{Kind, Level, Leveled, Locate, Slice, SlotAt};
use crate::search;
use crate::view::{detect_properties, FormatView, StoredGuarantee};
use crate::walk::{inside, Fwd};
use crate::SparseMatrix;
use std::collections::HashSet;

/// Opaque per-format position token.
pub type Position = usize;

/// What a walk does at an entry, given its keys and its position
/// ([`SparseView::walk`]); its first error ends the walk.
pub type OnEntry<'a> = dyn FnMut(&[i64], Position) -> Result<(), String> + 'a;

/// The keys bound by one cursor step, one per attribute of the level,
/// held inline (two at most, and how many): reads as a `[i64]`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Keys(pub(crate) [i64; 2], pub(crate) usize);

impl std::ops::Deref for Keys {
    type Target = [i64];

    #[inline(always)]
    fn deref(&self) -> &[i64] {
        &self.0[..self.1]
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

/// Searches level `lv` beneath `parent` for `keys` by the search of its
/// kind; `None` if the level does not search.
#[inline(always)]
pub(crate) fn search_at<V: Leveled + ?Sized>(
    view: &V,
    lv: &Level,
    parent: Position,
    keys: &[i64],
) -> Option<Option<Position>> {
    let k = keys[0];
    Some(match (lv.locate, lv.kind) {
        (Locate::None, _) | (Locate::Search, Kind::Jagged { .. }) => return None,
        (Locate::Hash(_), _) => usize::try_from(k).ok().and_then(|k| view.hashed(k)),
        (Locate::Search, Kind::Interval { lo, hi, base: b }) => {
            let lo = bound(view, lo, parent);
            search::interval(lo, bound(view, hi, parent), base(view, b, parent, lo), k)
        }
        (Locate::Search, Kind::Coords { crd: &[a], .. }) => match view.array(a) {
            Slice::I64(crd) => search::sorted(crd, k),
            crd => search::sorted(crd.u32s(), k),
        },
        (Locate::Search, Kind::Coords { len, crd }) => {
            let crd = (view.array(crd[0]).u32s(), view.array(crd[1]).u32s());
            search::listed(view.array(len).len(), crd, (k, keys[1]))
        }
        (Locate::Search, Kind::Compressed { ptr, crd }) => {
            search::compressed(view.array(ptr).u32s(), view.array(crd).u32s(), parent, k)
        }
        (Locate::Search, Kind::Slots { count, at, crd }) => match at {
            SlotAt::RowMajor(w) => {
                let row = (view.array(count).u32s(), view.dim(w));
                match view.array(crd) {
                    Slice::I64(crd) => search::slots(row, crd, parent, k),
                    crd => search::slots(row, crd.u32s(), parent, k),
                }
            }
            SlotAt::Table(t) => {
                let row = (view.array(count).u32s(), view.array(t).u32s());
                search::slot_table(row, view.array(crd).u32s(), parent, k)
            }
        },
        (Locate::Search, Kind::Blocks { ptr, crd, r, c }) => {
            let (ptr, crd) = (view.array(ptr).u32s(), view.array(crd).u32s());
            search::blocks(ptr, crd, (view.dim(r), view.dim(c)), parent, k)
        }
        (Locate::Search, Kind::Strips(s)) => {
            let mut arrays = [&[][..]; 7];
            let of = [s.strip_of, s.start, s.begin, s.end, s.crd, s.cuts, s.base];
            for (array, a) in arrays.iter_mut().zip(of) {
                *array = view.array(a).u32s();
            }
            search::strips(arrays, parent, k)
        }
    })
}

/// Where the dense lookup ([`SparseView::find`]) of `(r, c)` starts:
/// the chain it walks and the keys of each of its levels, read off the
/// view; `None` outside the matrix, or where no chain searches.
#[inline(always)]
pub(crate) fn dense_keys<V: SparseView + ?Sized>(
    view: &V,
    (r, c): (usize, usize),
) -> Option<(usize, &'static [Vec<Coord>])> {
    let (chain, keys) = view.levels().read().lookup.as_ref()?;
    (r < view.nrows() && c < view.ncols()).then_some((*chain, keys))
}

/// The keys of level `lv` of the dense lookup: what the forms `coords`
/// give `(r, c)`, the row through the view's permutation where the level
/// is permuted.
#[inline(always)]
pub(crate) fn keys_at<V: Leveled + ?Sized>(
    view: &V,
    (lv, coords): (&Level, &[Coord]),
    (r, c): (usize, usize),
) -> Option<[i64; 2]> {
    let unapply = || {
        view.array(view.levels().perm?.unapply)
            .u32s()
            .get(r)
            .copied()
    };
    let through = if lv.permuted { unapply() } else { None };
    // Inside the matrix, both fit an `i64` with room to spare.
    let (r, c, mut at) = (r as i64, c as i64, [0; 2]);
    for (k, coord) in at.iter_mut().zip(coords) {
        *k = match *coord {
            Coord::Affine(a, b, cst) => a * r + b * c + cst,
            Coord::Permuted => i64::from(through?),
            Coord::Listed | Coord::Runs => return None,
        };
    }
    Some(at)
}

/// The dynamic low-level API of every format (at `f64`): the generic
/// walk of the format's [`Levels`](crate::level::Levels) over the fields
/// it hands out as a [`Leveled`]. A format implements none of it: its
/// `leveled!` derives the three required methods.
///
/// Chain and level numbering is that of [`FormatView::alternatives`].
pub trait SparseView: SparseMatrix + Leveled {
    /// The index-structure description of this format instance: the
    /// format's view with the enumeration bounds and storage guarantees
    /// its stored pattern supports. A vector (one dense attribute) has
    /// none to detect, nor does a view that stores every position.
    fn format_view(&self) -> FormatView {
        let mut view = self.static_view();
        let all = view.guarantees.contains(&StoredGuarantee::AllPositions);
        if view.dense_attrs.len() == 1 || all {
            return view;
        }
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
        let (lv, levels) = (level_of(self, chain, level), self.levels());
        let name = levels.name;
        assert!(
            !reverse || lv.is_interval(),
            "{name}: level {level} of chain {chain} enumerates forward only"
        );
        ChainCursor::open(self, (lv, levels.chains[chain].values), parent, reverse)
    }

    /// Advances the cursor, filling `keys` and `pos`. Returns `false` at
    /// the end of the level.
    fn advance(&self, cur: &mut ChainCursor<'_>) -> bool {
        cur.next()
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
        let (name, lv) = (self.levels().name, level_of(self, chain, level));
        let found = search_at(self, lv, parent, keys);
        found.unwrap_or_else(|| panic!("{name}: level {level} of chain {chain} does not search"))
    }

    /// Reads the stored value at a leaf position of `chain`.
    fn value_at(&self, chain: usize, pos: Position) -> f64 {
        self.array(self.levels().chains[chain].values).values()[pos]
    }

    /// The position of the dense coordinate `(r, c)` in the first chain
    /// whose levels all search and whose keys are as many as the dense
    /// coordinates (JAD's hierarchical one, the off-diagonal part of a
    /// diagonal split): each level searched, outermost first, for the
    /// keys the view's inverse maps give `(r, c)`. `None` where it is not
    /// stored, and for a coordinate outside the matrix. Derived by
    /// `leveled!`, with each level a constant.
    fn find(&self, r: usize, c: usize) -> Option<Position>;

    /// Walks `chain`, calling `leaf` with the keys of every entry,
    /// outermost level first, and its position; the first error of
    /// `leaf` ends the walk. A chain the view does not have has no
    /// entries. Derived by `leveled!`, each level a constant that folds
    /// to the iteration of its kind (`iterate.rs`).
    fn walk(&self, chain: usize, leaf: &mut OnEntry<'_>) -> Result<(), String>;

    /// Converts to triplets in normal form: the entries the view's first
    /// alternative walks, as its levels describe them, by the walk
    /// [`walk`](SparseView::walk) names, each chain's `fwd` compiled once.
    fn to_triplets(&self) -> crate::Triplets<f64>;

    /// Checks an *untrusted* instance against its levels, its view and
    /// its layout's residue (each format's `validate`).
    fn validate(&self) -> Result<(), crate::FormatError>;

    /// Applies the view's permutation table: `table[x]`.
    ///
    /// # Panics
    /// Panics on a format whose view contains no `perm` production.
    fn perm_apply(&self, x: i64) -> i64 {
        i64::from(self.array(permutation(self.levels()).apply).u32s()[x as usize])
    }

    /// Applies the inverse of the view's permutation table.
    fn perm_unapply(&self, x: i64) -> i64 {
        i64::from(self.array(permutation(self.levels()).unapply).u32s()[x as usize])
    }
}

fn permutation(levels: &crate::level::Levels) -> crate::level::Perm {
    levels
        .perm
        .unwrap_or_else(|| panic!("{} has no permutation table", levels.name))
}

/// Walks an entire chain, invoking `f` with the stored attribute keys
/// (outermost-level first) and the value of every entry: the walk
/// `leveled!` derives ([`SparseView::walk`]). A chain id the view does
/// not declare has no entries, so the walk visits nothing.
pub fn walk_chain(view: &dyn SparseView, chain: usize, f: &mut dyn FnMut(&[i64], f64)) {
    if let Some(described) = view.levels().chains.get(chain) {
        let values = view.array(described.values).values();
        let _ = view.walk(chain, &mut |keys, pos| {
            f(keys, values[pos]);
            Ok(())
        });
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
    // Chains and transforms are the format's; nothing here reads what
    // only the instance knows.
    let fv = view.static_view();
    let alt = fv.alternatives().into_iter().nth(alternative);
    let alt = alt.ok_or_else(|| format!("alternative {alternative} out of range"))?;
    let mut seen = HashSet::new();
    for chain in &alt {
        let fwd = Fwd::new(view, &fv, chain)?;
        // Each entry, through the chain's `fwd` transforms, names a
        // position inside the matrix, seen once, that random access reads
        // as the same value.
        let mut entry = |keys: &[i64], pos| {
            let ((r, c), v) = (fwd.eval(keys)?, view.value_at(chain.id, pos));
            inside(r, c, view.nrows(), view.ncols())?;
            let expect = view.get(r as usize, c as usize);
            if expect != v {
                let e = format!("random access {expect}, enumeration {v}");
                return Err(format!("value mismatch at ({r}, {c}): {e}"));
            }
            match seen.insert((r, c)) {
                false => Err(format!("entry ({r}, {c}) enumerated twice")),
                true => Ok(()),
            }
        };
        view.walk(chain.id, &mut entry)
            .map_err(|e| format!("chain {}: {e}", chain.id))?;
    }
    let (n, nnz) = (seen.len(), view.nnz());
    if n != nnz {
        return Err(format!(
            "alternative {alternative} enumerated {n} entries, nnz is {nnz}"
        ));
    }
    Ok(())
}
