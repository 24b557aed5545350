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
//!   and a `locate` as a `find` expression — statically dispatched,
//!   specialized text, the paper's Barton–Nackman instantiation;
//! - the one generic cursor of [`crate::cursor`] walks it at run time
//!   for the plan interpreter, over the typed slices a [`Leveled`]
//!   instance hands out.
//!
//! Dims and arrays are referred to by their index in the description's
//! own `dims` / `arrays` lists ([`Dim`], [`Arr`]); the declaring macros
//! bind each field name to its index, so a level naming a field the
//! struct does not have fails to compile.

use crate::layout::Elem;
use crate::view::FormatView;

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
    /// The method [`Locate::Find`] levels call (`"find"`,
    /// `"find_in_row"`, `"off.find"`).
    pub finder: &'static str,
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
    /// [`Kind::Interval`]: `lo <= k < hi`, then the position follows.
    Bounds,
    /// [`Kind::Coords`] with one sorted array: binary search in it.
    BinarySearch,
    /// The format's [`Levels::finder`] method, on non-negative keys.
    Find(Args),
    /// A hash map field from key to position.
    Hash(&'static str),
}

/// What a [`Locate::Find`] passes its method.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Args {
    ParentKey,
    KeyParent,
    /// Both keys of a coupled level.
    Keys,
    Key,
}

impl Level {
    /// A level of this kind; an interval locates by its bounds, any
    /// other kind not at all until it is given a way.
    pub const fn of(kind: Kind) -> Level {
        let locate = match kind {
            Kind::Interval { .. } => Locate::Bounds,
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

    pub const fn find(mut self, args: Args) -> Level {
        self.locate = Locate::Find(args);
        self
    }

    pub const fn binary_search(mut self) -> Level {
        self.locate = Locate::BinarySearch;
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

/// A stored array, typed. A description that reads an array as what it
/// is not (keys from values, positions from `i64`s) is wrong, and there
/// is no walk to fall back to: the readers below panic.
#[derive(Clone, Copy, Debug)]
pub enum Slice<'a> {
    Usize(&'a [usize]),
    I64(&'a [i64]),
    F64(&'a [f64]),
}

impl<'a> Slice<'a> {
    /// Element `i` of an array of keys, of either integer type.
    #[inline]
    pub fn key(self, i: usize) -> i64 {
        match self {
            Slice::Usize(a) => a[i] as i64,
            Slice::I64(a) => a[i],
            Slice::F64(_) => panic!("a level description reads keys from a value array"),
        }
    }

    /// The array as positions or counts.
    pub fn usizes(self) -> &'a [usize] {
        match self {
            Slice::Usize(a) => a,
            _ => panic!("a level description reads positions from an array that is not `usize`"),
        }
    }

    /// The array as values.
    pub fn values(self) -> &'a [f64] {
        match self {
            Slice::F64(a) => a,
            _ => panic!("a level description reads values from an index array"),
        }
    }

    pub(crate) fn len(self) -> usize {
        match self {
            Slice::Usize(a) => a.len(),
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

    /// A value array, for writing.
    fn values_mut(&mut self, a: Arr) -> &mut [f64];

    /// The [`Levels::finder`] method.
    fn find_at(&self, a: usize, b: usize) -> Option<usize>;

    /// The view of this format, without what only an instance knows
    /// (bounds and guarantees detected from the stored pattern).
    fn static_view(&self) -> FormatView;
}

/// Declares how a struct's levels are walked, as the static `LEVELS` of
/// the struct's module, and implements [`Leveled`] and
/// [`SparseView`](crate::SparseView) for the struct at `f64`.
/// `stored_layout!` ends in this; a view that exists only on the host
/// (no [`Layout`](crate::layout::Layout): it is never marshalled into a
/// kernel) invokes it directly. Every field is listed as `alias =
/// path`, so that a field of a field can be one; inside `chains` an
/// alias stands for the field's [`Dim`] / [`Arr`]:
///
/// ```ignore
/// leveled! {
///     DiagSplit, "diagsplit";
///     dims: n = n, off_nrows = off.nrows;
///     arrays: diag = diag: f64, off_rowptr = off.rowptr: usize, …;
///     chains: [Level::interval(n)] -> diag, [ … ] -> off_values;
///     perm: ;                           // or: (iperm, iperm_inv)
///     find: "off.find" = |m, r, c| m.off.find(r, c);
///     view: |_| diagsplit_format_view();
///     format_view: |m| …;               // only to replace the provided one
/// }
/// ```
macro_rules! leveled {
    (
        $ty:ident, $name:literal;
        dims: $($dim:ident = $($dpath:ident).+),+;
        arrays: $($arr:ident = $($apath:ident).+: $elem:ty),+;
        chains: $([$($level:expr),+] -> $values:ident),+;
        perm: $(($apply:ident, $unapply:ident))?;
        find: $finder:expr => $find:expr;
        view: $view:expr;
        $(format_view: $instance_view:expr;)?
    ) => {
        /// How this module's format is walked.
        pub static LEVELS: $crate::level::Levels = {
            #[allow(non_camel_case_types, dead_code)]
            enum DimIndex { $($dim),+ }
            #[allow(non_camel_case_types, dead_code)]
            enum ArrIndex { $($arr),+ }
            $(
                #[allow(non_upper_case_globals, dead_code)]
                const $dim: $crate::level::Dim = $crate::level::Dim(DimIndex::$dim as usize);
            )+
            $(
                #[allow(non_upper_case_globals, dead_code)]
                const $arr: $crate::level::Arr = $crate::level::Arr(ArrIndex::$arr as usize);
            )+
            #[allow(unused_imports)]
            use $crate::level::{Args, Base, Bound, Kind, Level, SlotAt, Strips};
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
                finder: $finder,
            }
        };

        impl $crate::level::Leveled for $ty<f64> {
            fn levels(&self) -> &'static $crate::level::Levels {
                &LEVELS
            }

            fn dim(&self, d: $crate::level::Dim) -> usize {
                [$(self.$($dpath).+),+][d.0]
            }

            fn array(&self, a: $crate::level::Arr) -> $crate::level::Slice<'_> {
                [$(<$elem as $crate::layout::ElemType>::slice(&self.$($apath).+)),+][a.0]
            }

            fn values_mut(&mut self, a: $crate::level::Arr) -> &mut [f64] {
                let arrays = [$(<$elem as $crate::layout::ElemType>::values_mut(
                    &mut self.$($apath).+
                )),+];
                let values = arrays.into_iter().nth(a.0).flatten();
                values.unwrap_or_else(|| panic!("{} has no value array {}", $name, a.0))
            }

            fn find_at(&self, a: usize, b: usize) -> Option<usize> {
                let find: fn(&Self, usize, usize) -> Option<usize> = $find;
                find(self, a, b)
            }

            fn static_view(&self) -> $crate::view::FormatView {
                let view: fn(&Self) -> $crate::view::FormatView = $view;
                view(self)
            }
        }

        impl $crate::SparseView for $ty<f64> {
            $(
                fn format_view(&self) -> $crate::view::FormatView {
                    let view: fn(&Self) -> $crate::view::FormatView = $instance_view;
                    view(self)
                }
            )?
        }
    };
    (@perm) => { None };
    (@perm $apply:ident $unapply:ident) => {
        Some($crate::level::Perm { apply: $apply, unapply: $unapply })
    };
}
pub(crate) use leveled;
