//! One description per level: how a format is *walked*.
//!
//! A [`Layout`](crate::layout::Layout) says what a format stores; a
//! [`Levels`] says how each nesting level of each of its chains is
//! enumerated and searched over those very dims and arrays — the paper's
//! `term_nesting` / `interval_iterator` / `increasing_iterator` (§4) as
//! data. A level is one of a closed set of [`Kind`]s (a dense interval, a
//! compressed `ptr[p]..ptr[p+1]` range, a coordinate list, …) plus its
//! [`Locate`] capability, in the vocabulary of taco's format abstraction
//! (PAPERS.md): iterate a coordinate range or a position range, locate a
//! coordinate. It is declared once, inside the `stored_layout!` beside
//! the format struct (or `leveled!` beside a view that exists only
//! on the host), and has two renderings that therefore cannot disagree:
//!
//! - the code emitter of `bernoulli-synth` prints a level as a loop head
//!   and a `locate` as the search of its kind ([`crate::search`], which
//!   every kernel crate includes) — statically dispatched, specialized
//!   text, the paper's Barton–Nackman instantiation;
//! - the one generic cursor of [`crate::cursor`] walks it at run time
//!   for the plan interpreter, over the typed slices a [`Leveled`]
//!   instance hands out, and the walk `leveled!` derives nests the
//!   levels of each chain as constants; both enumerate a level by the
//!   one iteration of its kind (`iterate.rs`).
//!
//! Dims and arrays are referred to by their index in the description's
//! own `dims` / `arrays` lists ([`Dim`], [`Arr`]); the declaring macros
//! bind each field name to its index, so a level naming a field the
//! struct does not have fails to compile.

use crate::assemble::{keys_of, Coord};
use crate::layout::{Block, Elem};
use crate::view::{FormatView, SearchKind};
use std::sync::OnceLock;

/// A scalar field, by its index in [`Levels::dims`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Dim(pub usize);

/// An array field, by its index in [`Levels::arrays`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arr(pub usize);

/// The dim a row-band entry cuts: a view whose outermost level is the
/// dense interval over a dim of this name can be walked one band of
/// rows at a time (the ranged kernel entry, `0..nrows`).
pub const ROW_DIM: &str = "nrows";

/// How every chain of a view is walked, over the fields named here.
#[derive(Debug)]
pub struct Levels {
    /// Format name (`"csr"`): the view name, or its prefix when the
    /// view name carries a block shape.
    pub name: &'static str,
    /// Name of the Rust struct (`"Csr"`).
    pub type_name: &'static str,
    /// The `usize` scalar fields (a path like `off.nrows` for a field of
    /// a field).
    pub dims: &'static [&'static str],
    /// The array fields with their element types.
    pub arrays: &'static [(&'static str, Elem)],
    /// One entry per chain, in the chain-id order of
    /// [`FormatView::alternatives`].
    pub chains: &'static [ChainLevels],
    /// The view's permutation (`perm{table[in] |-> out}`), if it has one.
    pub perm: Option<Perm>,
    /// The dims of the block shape, for a format whose instances are cut
    /// into blocks of a shape their view name carries (`bsr2x2`).
    pub block: Option<(Dim, Dim)>,
    /// The view, in the notation of [`crate::view`]: what the planner
    /// reasons about. Read and checked against the chains above once, at
    /// the first [`Levels::view`].
    pub view: &'static str,
    pub(crate) read: OnceLock<Read>,
}

/// What the first use of a description reads off it, once: the view,
/// and the dense lookup ([`SparseView::find`](crate::SparseView::find)):
/// the first chain whose levels all search, with as many keys, read off
/// the view's inverse maps, as the view has dense coordinates (the
/// diagonal of a diagonal split has one), with each of its levels'
/// keys.
#[derive(Debug)]
pub(crate) struct Read {
    pub(crate) view: FormatView,
    pub(crate) lookup: Option<(usize, Vec<Vec<Coord>>)>,
}

/// One chain: its levels outermost first, and where its values live.
#[derive(Debug)]
pub struct ChainLevels {
    pub levels: &'static [Level],
    pub values: Arr,
}

/// A permutation table and its inverse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Perm {
    /// `out = apply[in]`.
    pub apply: Arr,
    /// `in = unapply[out]`.
    pub unapply: Arr,
}

/// One nesting level. `parent` is the position reached at the level
/// above (0 at level 0), `k` a key, `p` a position.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Level {
    pub kind: Kind,
    pub locate: Locate,
    /// The loop head reads the format's own arrays without a bounds
    /// check (the emitter's `ix`; valid on valid instances), hoisting
    /// what does not move with the loop. Otherwise every read is
    /// `*a.get(i)?`.
    pub unchecked: bool,
    /// Key 0 is an input of the view's [`Perm`].
    pub permuted: bool,
}

/// The ways a level is stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Every key of `lo..hi`, none stored: `p = base + (k - lo)`. The
    /// only kind that enumerates backward as well.
    Interval { lo: Bound, hi: Bound, base: Base },
    /// Positions `ptr[parent]..ptr[parent + 1]`, `k = crd[p]`.
    Compressed { ptr: Arr, crd: Arr },
    /// Positions `0..len(len)`, one key per array of `crd`: `crd[i][p]`.
    Coords { len: Arr, crd: &'static [Arr] },
    /// Slots `s` of `0..count[parent]`, `p = at(s, parent)`, `k = crd[p]`.
    Slots { count: Arr, at: SlotAt, crd: Arr },
    /// Every position of the chain's values, cut into runs by `ptr`
    /// (jagged diagonals): in run `d`, `k0 = p - ptr[d]`, `k1 = crd[p]`.
    Jagged { ptr: Arr, crd: Arr },
    /// The row's slice of each `r × c` block of its block row: blocks
    /// `b` of `ptr[parent / r]..ptr[parent / r + 1]`, columns `s` of
    /// `0..c`; `k = crd[b] * c + s`, `p = (b * r + parent % r) * c + s`.
    Blocks { ptr: Arr, crd: Arr, r: Dim, c: Dim },
    /// The same over strips of run-time extents.
    Strips(Strips),
}

/// The arrays of a [`Kind::Strips`] level: strip `br = strip_of[parent]`
/// starts at row `start[br]` and stores blocks `b` of
/// `begin[br]..end[br]`; block column `bc = crd[b]` spans columns
/// `cuts[bc]..cuts[bc + 1]`, of width `w`; `k = cuts[bc] + s`,
/// `p = base[b] + (parent - start[br]) * w + s`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Strips {
    pub strip_of: Arr,
    pub start: Arr,
    pub begin: Arr,
    pub end: Arr,
    pub crd: Arr,
    pub cuts: Arr,
    pub base: Arr,
}

/// An end of an [`Kind::Interval`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bound {
    Zero,
    /// The value of a dim.
    Extent(Dim),
    /// `array[parent]`.
    At(Arr),
    /// `parent + 1`.
    Next,
}

/// Where the positions of an [`Kind::Interval`] start.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Base {
    /// The position is the key.
    Identity,
    /// `parent * dim`.
    Stride(Dim),
    /// `array[parent]`.
    Ptr(Arr),
}

/// Where slot `s` of a [`Kind::Slots`] level is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlotAt {
    /// `parent * width + s`.
    RowMajor(Dim),
    /// `table[s] + parent`.
    Table(Arr),
}

/// How a level finds the position of a key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Locate {
    /// It cannot: the level only enumerates.
    None,
    /// By the search of its kind ([`crate::search`]): an interval by its
    /// bounds, one sorted list by binary search, coupled keys by a scan,
    /// a compressed range, slots, blocks and strips each by its own.
    Search,
    /// A hash map field from key to position.
    Hash(&'static str),
}

impl Level {
    /// A level of this kind; an interval searches by its bounds, any
    /// other kind not at all until it is given a way.
    pub const fn of(kind: Kind) -> Level {
        let locate = match kind {
            Kind::Interval { .. } => Locate::Search,
            _ => Locate::None,
        };
        Level {
            kind,
            locate,
            unchecked: false,
            permuted: false,
        }
    }

    /// `0..dim`, the position being the key.
    pub const fn interval(dim: Dim) -> Level {
        Level::of(Kind::Interval {
            lo: Bound::Zero,
            hi: Bound::Extent(dim),
            base: Base::Identity,
        })
    }

    /// The level searches as its kind does.
    pub const fn search(mut self) -> Level {
        self.locate = Locate::Search;
        self
    }

    pub const fn hash(mut self, map: &'static str) -> Level {
        self.locate = Locate::Hash(map);
        self
    }

    pub const fn unchecked(mut self) -> Level {
        self.unchecked = true;
        self
    }

    pub const fn permuted(mut self) -> Level {
        self.permuted = true;
        self
    }

    /// Keys one position of the level binds.
    pub fn nkeys(&self) -> usize {
        match self.kind {
            Kind::Coords { crd, .. } => crd.len(),
            Kind::Jagged { .. } => 2,
            _ => 1,
        }
    }

    /// True for the kind that enumerates every key of a range.
    pub fn is_interval(&self) -> bool {
        matches!(self.kind, Kind::Interval { .. })
    }
}

impl Levels {
    /// The name of a dim.
    pub fn dim(&self, d: Dim) -> &'static str {
        self.dims[d.0]
    }

    /// The name of an array.
    pub fn array(&self, a: Arr) -> &'static str {
        self.arrays[a.0].0
    }

    /// The element type of an array.
    pub fn elem(&self, a: Arr) -> Elem {
        self.arrays[a.0].1
    }

    /// The description of one level, `None` past the view's chains or
    /// the chain's levels.
    pub fn level(&self, chain: usize, level: usize) -> Option<&'static Level> {
        self.chains.get(chain)?.levels.get(level)
    }

    /// Bytes a walk of chain 0 reads per stored entry: the entry's value
    /// and the keys its innermost level stores per position, at the
    /// widths the description declares. Arrays read once per row, block
    /// or strip are not counted.
    pub fn bytes_per_entry(&self) -> usize {
        let Some(chain) = self.chains.first() else {
            return 0;
        };
        let width = |a: Arr| self.elem(a).width();
        let keys = match chain.levels.last().map(|l| l.kind) {
            Some(
                Kind::Compressed { crd, .. } | Kind::Slots { crd, .. } | Kind::Jagged { crd, .. },
            ) => width(crd),
            Some(Kind::Coords { crd, .. }) => crd.iter().map(|&a| width(a)).sum(),
            Some(Kind::Interval { .. } | Kind::Blocks { .. } | Kind::Strips(_)) | None => 0,
        };
        keys + width(chain.values)
    }

    /// The view of this description, without what only an instance
    /// knows (bounds and guarantees detected from the stored pattern),
    /// named after its block shape if it is cut into blocks.
    ///
    /// # Panics
    /// Panics, at the first call, if the text does not read or does not
    /// agree with the levels ([`check_view`]): a built-in description
    /// that is wrong is a bug, refused before anything plans over it.
    pub fn view(&self, block: Option<Block>) -> FormatView {
        let mut view = self.read().view.clone();
        if let Some((r, c)) = block {
            view.name = format!("{}{r}x{c}", self.name);
        }
        view
    }

    /// What the first use reads off the description ([`Levels::view`]).
    pub(crate) fn read(&self) -> &Read {
        self.read.get_or_init(|| {
            let view = FormatView::read(self.name, self.view);
            let view = view.map_err(|e| format!("{}: {e}", self.name));
            let checked = view.and_then(|v| check_view(&v, self).map(|()| v));
            let view = checked.unwrap_or_else(|e| panic!("a built-in view does not read: {e}"));
            let lookup = self.chains.iter().enumerate().find_map(|(id, chain)| {
                let searched = chain.levels.iter().all(|l| l.locate != Locate::None);
                let keys = keys_of(&view, id).filter(|_| searched)?;
                let dense = keys.iter().flatten().count() == view.dense_attrs.len();
                dense.then_some((id, keys))
            });
            Read { view, lookup }
        })
    }

    /// True when chain 0 opens with the dense interval over the
    /// [`ROW_DIM`], keys being rows as they are: what a row band cuts.
    pub fn rows_outermost(&self) -> bool {
        self.level(0, 0).is_some_and(|l| match l.kind {
            Kind::Interval {
                lo: Bound::Zero,
                hi: Bound::Extent(d),
                base: Base::Identity,
            } => !l.permuted && self.dim(d) == ROW_DIM,
            _ => false,
        })
    }
}

/// Checks a view against the levels that walk it: as many chains, in
/// [`FormatView::alternatives`] order, as many levels in each, and at
/// each level as many keys, an interval exactly where the level is
/// [`Kind::Interval`] and a search exactly where it has a [`Locate`].
/// The message names the format, the chain and the level.
pub fn check_view(view: &FormatView, levels: &Levels) -> Result<(), String> {
    let name = levels.name;
    let chains: Vec<_> = view.alternatives().into_iter().flatten().collect();
    let seen: Vec<usize> = chains.iter().map(|c| c.levels.len()).collect();
    let want: Vec<usize> = levels.chains.iter().map(|c| c.levels.len()).collect();
    if seen != want {
        // The first chain that differs, and its first level either lacks.
        let c = seen.iter().zip(&want).take_while(|(a, b)| a == b).count();
        let l = seen.get(c).min(want.get(c)).map_or(0, |&l| l);
        let counts = format!("levels per chain {seen:?} in the view, {want:?} described");
        return Err(format!("{name}, chain {c}, level {l}: {counts}"));
    }
    for (c, (chain, described)) in chains.iter().zip(levels.chains).enumerate() {
        for (l, (flat, level)) in chain.levels.iter().zip(described.levels).enumerate() {
            let wrong = if flat.attrs.len() != level.nkeys() {
                "a key per attribute"
            } else if flat.interval != level.is_interval() {
                "an interval exactly where the level is one"
            } else if (flat.search == SearchKind::None) != (level.locate == Locate::None) {
                "a search exactly where the level locates"
            } else {
                continue;
            };
            return Err(format!(
                "{name}, chain {c}, level {l}: want {wrong}; the view has {flat:?}, the level {level:?}"
            ));
        }
    }
    Ok(())
}

/// A stored array, typed. A description that reads an array as what it
/// is not (keys from values, positions from `i64`s) is wrong, and there
/// is no walk to fall back to: the readers below panic.
#[derive(Clone, Copy, Debug)]
pub enum Slice<'a> {
    U32(&'a [u32]),
    I64(&'a [i64]),
    F64(&'a [f64]),
}

impl<'a> Slice<'a> {
    /// Element `i` of an array of keys, of either integer type.
    #[inline(always)]
    pub fn key(self, i: usize) -> i64 {
        match self {
            Slice::U32(a) => i64::from(a[i]),
            Slice::I64(a) => a[i],
            Slice::F64(_) => panic!("a level description reads keys from a value array"),
        }
    }

    /// The array as positions or counts.
    #[inline]
    pub fn u32s(self) -> &'a [u32] {
        match self {
            Slice::U32(a) => a,
            _ => panic!("a level description reads positions from an array that is not `u32`"),
        }
    }

    /// The array as values.
    #[inline]
    pub fn values(self) -> &'a [f64] {
        match self {
            Slice::F64(a) => a,
            _ => panic!("a level description reads values from an index array"),
        }
    }

    #[inline(always)]
    pub(crate) fn len(self) -> usize {
        match self {
            Slice::U32(a) => a.len(),
            Slice::I64(a) => a.len(),
            Slice::F64(a) => a.len(),
        }
    }
}

/// A format instance as its [`Levels`] sees it: the fields the
/// description names, by index. Implemented by `stored_layout!` /
/// `leveled!` from the same field list the description is declared
/// over; the generic cursor is written against this and nothing else.
pub trait Leveled {
    fn levels(&self) -> &'static Levels;

    fn dim(&self, d: Dim) -> usize;

    fn array(&self, a: Arr) -> Slice<'_>;

    /// The position of `key` in the map a [`Locate::Hash`] level names:
    /// the one search no array holds.
    fn hashed(&self, _key: usize) -> Option<usize> {
        None
    }

    /// The instance's block shape, for a blocked description.
    fn block(&self) -> Option<Block> {
        let block = self.levels().block;
        block.map(|(r, c)| (self.dim(r), self.dim(c)))
    }

    /// The view of this format ([`Levels::view`]) at the instance's
    /// block shape.
    fn static_view(&self) -> FormatView {
        self.levels().view(self.block())
    }
}

/// Declares how a struct's levels are walked, as the static `LEVELS` of
/// the struct's module, implements [`Leveled`] and
/// [`SparseView`](crate::SparseView) for the struct at `f64`, and derives
/// its walk ([`SparseView::walk`](crate::SparseView::walk): each
/// chain's levels nested, each a constant that folds to the iteration
/// of its kind), and through it `to_triplets` and `validate`, from the
/// levels and the view.
/// `stored_layout!` ends in this; a view that exists only on the host
/// (no [`Layout`](crate::layout::Layout): it is never marshalled into a
/// kernel) invokes it directly. Every field is listed as `alias =
/// path`, so that a field of a field can be one; inside `chains` and
/// `block` an alias stands for the field's [`Dim`] / [`Arr`]:
///
/// ```ignore
/// leveled! {
///     DiagSplit, "diagsplit";
///     dims: n = n, off_nrows = off.nrows;
///     arrays: diag = diag: f64, off_rowptr = off.rowptr: u32, …;
///     block: r x c;                     // blocked views only
///     chains: [Level::interval(n)] -> diag, [ … ] -> off_values;
///     perm: ;                           // or: (iperm, iperm_inv)
///     hash: |m, k| m.index.get(&k).copied(); // a `Locate::Hash` level's map
///     residue: RESIDUE;                 // only for what no level says
///     /// The diag-split index structure.
///     view: diagsplit_format_view = "(r, c | stored diagonal): (map{…} ∪ …)";
/// }
/// ```
///
/// `view` is the format's view in the notation of [`crate::view`], one
/// line: its chains, in [`FormatView::alternatives`] order, are the ones
/// `chains` walks ([`check_view`] holds them to that at the first read).
/// It is read by the function it names ([`Levels::view`], at the block
/// shape `(r, c)` it takes for a blocked view), documented as the
/// attributes before it say. The dense lookup `find` (and a layout's
/// `get`) walks the chain the first use picks ([`Levels::view`]) with
/// every level a constant. `hash` looks a key up in the map a hashed
/// level names ([`Leveled::hashed`]). `residue` names the layout's
/// [`Residue`](crate::layout::Residue), whose `check` `validate` calls
/// last, for an invariant no level states (ELL's pad sentinel).
macro_rules! leveled {
    (
        $ty:ident, $name:literal;
        dims: $($dim:ident = $($dpath:ident).+),+;
        arrays: $($arr:ident = $($apath:ident).+: $elem:ty),+;
        $(block: $br:ident x $bc:ident;)?
        chains: $([$($level:expr),+] -> $values:ident),+;
        perm: $(($apply:ident, $unapply:ident))?;
        $(hash: $hash:expr;)?
        $(residue: $residue:ident;)?
        $(#[$doc:meta])*
        view: $view_fn:ident = $view:literal;
    ) => {
        /// Each field of this module's format as a [`Dim`](crate::level::Dim)
        /// or [`Arr`](crate::level::Arr), its index in the lists of
        /// `LEVELS`: how its levels and its residue name the fields.
        #[allow(non_upper_case_globals, non_camel_case_types, dead_code)]
        mod field {
            enum DimIndex { $($dim),+ }
            enum ArrIndex { $($arr),+ }
            $(pub const $dim: $crate::level::Dim = $crate::level::Dim(DimIndex::$dim as usize);)+
            $(pub const $arr: $crate::level::Arr = $crate::level::Arr(ArrIndex::$arr as usize);)+
        }

        /// How this module's format is walked.
        pub static LEVELS: $crate::level::Levels = {
            #[allow(unused_imports)]
            use {field::*, $crate::level::{Base, Bound, Kind, Level, SlotAt, Strips}};
            $crate::level::Levels {
                name: $name,
                type_name: stringify!($ty),
                dims: &[$(stringify!($($dpath).+)),+],
                arrays: &[$((
                    stringify!($($apath).+),
                    <$elem as $crate::layout::ElemType>::ELEM,
                )),+],
                chains: &[$($crate::level::ChainLevels {
                    levels: &[$($level),+],
                    values: $values,
                }),+],
                perm: $crate::level::leveled!(@perm $($apply $unapply)?),
                block: $crate::level::leveled!(@block $($br $bc)?),
                view: $view,
                read: std::sync::OnceLock::new(),
            }
        };

        impl $crate::level::Leveled for $ty<f64> {
            fn levels(&self) -> &'static $crate::level::Levels {
                &LEVELS
            }

            #[inline(always)]
            fn dim(&self, d: $crate::level::Dim) -> usize {
                [$(self.$($dpath).+),+][d.0]
            }

            #[inline(always)]
            fn array(&self, a: $crate::level::Arr) -> $crate::level::Slice<'_> {
                [$(<$elem as $crate::layout::ElemType>::slice(&self.$($apath).+)),+][a.0]
            }

            $(
                fn hashed(&self, key: usize) -> Option<usize> {
                    let hash: fn(&Self, usize) -> Option<usize> = $hash;
                    hash(self, key)
                }
            )?
        }

        impl $crate::SparseView for $ty<f64> {
            fn find(&self, r: usize, c: usize) -> Option<$crate::Position> {
                self.dense_lookup(r, c).map(|(_, p)| p)
            }

            fn walk(
                &self,
                chain: usize,
                leaf: &mut $crate::cursor::OnEntry<'_>,
            ) -> Result<(), String> {
                $crate::walk::Walked::walk_with(self, chain, $crate::walk::no_step, leaf)
            }

            fn to_triplets(&self) -> $crate::Triplets<f64> {
                $crate::walk::to_triplets(self)
            }

            fn validate(&self) -> Result<(), $crate::FormatError> {
                $crate::walk::validate(self, || $crate::level::leveled!(@residue self $($residue)?))
            }
        }

        impl $crate::walk::Walked for $ty<f64> {
            /// Each chain's levels nested, outermost first, each a
            /// constant, so that it folds to the iteration of its kind.
            #[inline(always)]
            fn walk_with<S: $crate::walk::Step, L: $crate::walk::Leaf>(
                &self,
                chain: usize,
                mut step: S,
                mut leaf: L,
            ) -> Result<(), String> {
                let (mut ids, mut keys) = (0.., [0i64; $crate::walk::SLOTS]);
                $(if ids.next() == Some(chain) {
                    let values = field::$values;
                    $crate::level::leveled!(@walk (self, step, leaf, values, keys), (0, 0, 0), [$($level),+]);
                    return Ok(());
                })+
                Ok(())
            }
        }

        impl $ty<f64> {
            /// The values array and the position of `(r, c)` in the dense
            /// lookup ([`SparseView::find`](crate::SparseView::find)), each
            /// level of each chain spelt out as a constant, so that its
            /// search folds to the search of its kind.
            #[allow(unused_imports)]
            #[inline(always)]
            fn dense_lookup(&self, r: usize, c: usize) -> Option<($crate::level::Arr, usize)> {
                let (chain, keys) = $crate::cursor::dense_keys(self, (r, c))?;
                let (mut ids, mut keys, mut pos) = (0.., keys.iter(), 0);
                $(if ids.next() == Some(chain) {
                    $(
                        let level = const { use $crate::level::*; use field::*; $level };
                        let at = $crate::cursor::keys_at(self, (&level, keys.next()?), (r, c))?;
                        pos = $crate::cursor::search_at(self, &level, pos, &at)??;
                    )+
                    return Some((field::$values, pos));
                })+
                None
            }

            /// Converts to triplets in normal form: the entries the view's
            /// first alternative walks, as its levels describe them, by
            /// the walk derived here, each chain's `fwd` compiled once.
            pub fn to_triplets(&self) -> $crate::Triplets<f64> {
                $crate::walk::to_triplets(self)
            }

            /// Checks an *untrusted* instance (one deserialized or
            /// assembled outside this crate) against its levels and its
            /// view, and against the layout's named residue if it has one.
            /// Data that passes cannot drive an accessor, a cursor or a
            /// kernel out of bounds.
            pub fn validate(&self) -> Result<(), $crate::FormatError> {
                $crate::SparseView::validate(self)
            }
        }

        $(#[$doc])*
        pub fn $view_fn($($br: usize, $bc: usize)?) -> $crate::view::FormatView {
            LEVELS.view($crate::level::leveled!(@block $($br $bc)?))
        }
    };
    // Level `depth` beneath `parent`, its keys from `keys[n..]`, then
    // the levels below; at the bottom, the entry.
    (@walk ($m:ident, $step:ident, $leaf:ident, $values:ident, $keys:ident),
        ($depth:expr, $n:expr, $parent:expr), [$level:expr $(, $rest:expr)*]) => {
        #[allow(unused_imports)]
        let level = const { use $crate::level::*; use field::*; $level };
        let mut cur = $crate::ChainCursor::open($m, (&level, $values), $parent, false);
        let mut first = true;
        while cur.next() {
            let (k, pos) = (cur.keys, cur.pos);
            $step(($depth, first, $parent), &k, pos)?;
            let n = $n + k.len();
            $keys[$n..n].copy_from_slice(&k);
            first = false;
            $crate::level::leveled!(@walk ($m, $step, $leaf, $values, $keys), ($depth + 1, n, pos), [$($rest),*]);
        }
    };
    (@walk ($m:ident, $step:ident, $leaf:ident, $values:ident, $keys:ident),
        ($depth:expr, $n:expr, $parent:expr), []) => {
        $leaf(&$keys[..$n], $parent)?;
    };
    (@block) => { None };
    (@block $br:ident $bc:ident) => { Some(($br, $bc)) };
    (@residue $m:ident) => { Ok(()) };
    (@residue $m:ident $residue:ident) => { ($residue.check)($m) };
    (@perm) => { None };
    (@perm $apply:ident $unapply:ident) => {
        Some($crate::level::Perm { apply: $apply, unapply: $unapply })
    };
}
pub(crate) use leveled;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::{coo, csr, dcsr, diagsplit};
    use crate::FormatError;

    /// What the check says of `text` as the view of `levels`.
    fn check(text: &str, levels: &Levels) -> Result<Result<(), String>, FormatError> {
        Ok(check_view(&FormatView::read(levels.name, text)?, levels))
    }

    /// The message names the format, the chain and the level, and says
    /// what the level wants.
    fn refused(text: &str, levels: &Levels, at: &str, want: &str) -> Result<(), FormatError> {
        let message = check(text, levels)?.err().unwrap_or_default();
        assert!(message.starts_with(at), "{message}");
        assert!(message.contains(want), "{message}");
        Ok(())
    }

    #[test]
    fn a_view_that_disagrees_with_its_levels_is_named() -> Result<(), FormatError> {
        let (csr, coo, dcsr) = (&csr::LEVELS, &coo::LEVELS, &dcsr::LEVELS);
        let split = &diagsplit::LEVELS;
        assert_eq!(check("(r, c): r[interval] -> c[sorted] -> v", csr)?, Ok(()));
        let cases = [
            // An interval where the level is compressed, a level missing.
            (
                "(r, c): r[interval] -> c[interval] -> v",
                csr,
                "csr, chain 0, level 1:",
                "an interval exactly",
            ),
            (
                "(r, c): r[interval] -> v",
                csr,
                "csr, chain 0, level 1:",
                "[1] in the view, [2]",
            ),
            // One key where the level is coupled.
            (
                "(r, c): r[linear] -> v",
                coo,
                "coo, chain 0, level 0:",
                "a key per attribute",
            ),
            // No search where the level has one.
            (
                "(r, c): r -> c[sorted] -> v",
                dcsr,
                "dcsr, chain 0, level 0:",
                "a search exactly",
            ),
            // A chain missing: the diagonal of the diagonal split alone.
            (
                "(r, c): map{i |-> r, i |-> c ; r |-> i : i[interval] -> v}",
                split,
                "diagsplit, chain 1, level 0:",
                "[1] in the view, [1, 2]",
            ),
        ];
        for (text, levels, at, want) in cases {
            refused(text, levels, at, want)?;
        }
        Ok(())
    }
}
