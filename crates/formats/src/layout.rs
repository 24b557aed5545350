//! One storage description per format.
//!
//! The paper's premise (§2) is that a format is given to the compiler
//! once, as a description, and everything else is derived from it. A
//! [`Layout`] is the storage half of that description — the struct's
//! scalar fields and its arrays with their element types — next to the
//! index-structure half (the [`FormatView`], one line of text in it).
//! It is declared by one `stored_layout!` invocation beside each format
//! struct, which names the struct's own fields: a renamed, retyped or
//! forgotten field fails to compile here, not in whoever reads the
//! layout.
//!
//! The same invocation declares how the format's levels are *walked*
//! (its [`Levels`], see [`crate::level`]) and the view they walk: a
//! `Layout` is that description plus what marshalling an instance into
//! a kernel needs.
//!
//! [`LAYOUTS`] is the registry: the formats whose instances can be taken
//! apart into [`Stored::parts`] and put back together elsewhere (the
//! loaded-kernel ABI of `bernoulli-service` is derived from it), the
//! formats assembled from triplets by name ([`Layout::named`], then
//! [`Layout::from_triplets`]), and the one table from view names to
//! formats ([`Layout::of_view`], [`levels_of_view`], [`view_by_name`],
//! [`format_name`]).

use crate::assemble::ResidueStep;
use crate::level::{Dim, Levels, Slice};
use crate::view::FormatView;
use crate::{formats, FormatError, SparseView, Triplets};

/// Element type of a stored array. Every unsigned index array — row
/// pointers, column indices, permutations, block and strip tables — is
/// `u32`, four bytes, as the NIST Sparse BLAS stores its `int` indices;
/// the signed arrays (DIA's diagonal numbers and bounds, ELL's padded
/// columns) are `i64`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Elem {
    U32,
    I64,
    F64,
}

impl Elem {
    /// The Rust name of the element type.
    pub fn rust(self) -> &'static str {
        match self {
            Elem::U32 => "u32",
            Elem::I64 => "i64",
            Elem::F64 => "f64",
        }
    }

    /// Bytes one element occupies.
    pub fn width(self) -> usize {
        match self {
            Elem::U32 => 4,
            Elem::I64 | Elem::F64 => 8,
        }
    }
}

/// The largest dimension, and the largest count of stored entries or
/// cells, an instance of a format holds: what a `u32` index array can
/// address.
pub const INDEX_LIMIT: usize = u32::MAX as usize;

/// Refuses a matrix whose dimensions or stored count exceed
/// [`INDEX_LIMIT`]: the one check between a caller's sizes and the `u32`
/// index arrays, made before anything is allocated.
pub fn check_index_limit(nrows: usize, ncols: usize, stored: usize) -> Result<(), FormatError> {
    if nrows.max(ncols).max(stored) > INDEX_LIMIT {
        return Err(FormatError::IndexLimit {
            nrows,
            ncols,
            stored,
        });
    }
    Ok(())
}

/// `n` as an element of an index array. Exact: every caller stores a
/// key or count of an instance that passed [`check_index_limit`].
#[inline]
pub(crate) fn narrow(n: usize) -> u32 {
    debug_assert!(n <= INDEX_LIMIT, "{n} exceeds the u32 index limit");
    n as u32
}

/// The Rust types an array of a layout can hold: what ties the element
/// a layout declares to the type of the field it names.
pub trait ElemType: Sized {
    const ELEM: Elem;

    /// An array of this type, as a level description reads it.
    fn slice(array: &[Self]) -> Slice<'_>;
}

impl ElemType for u32 {
    const ELEM: Elem = Elem::U32;

    fn slice(array: &[u32]) -> Slice<'_> {
        Slice::U32(array)
    }
}

impl ElemType for i64 {
    const ELEM: Elem = Elem::I64;

    fn slice(array: &[i64]) -> Slice<'_> {
        Slice::I64(array)
    }
}

impl ElemType for f64 {
    const ELEM: Elem = Elem::F64;

    fn slice(array: &[f64]) -> Slice<'_> {
        Slice::F64(array)
    }
}

/// A block shape, rows × columns.
pub type Block = (usize, usize);

/// One stored array with its element type erased: base pointer and
/// length in elements. `repr(C)`, so a vector of them can be handed to
/// foreign code as it is.
#[repr(C)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RawArray {
    pub ptr: *const u8,
    pub len: usize,
}

/// The physical storage of a format, and how to obtain its other half.
/// Reads as its [`Levels`]: `layout.name`, `layout.dims` (the `usize`
/// scalar fields) and `layout.arrays`, both in [`Stored::parts`] order.
#[derive(Debug)]
pub struct Layout {
    /// The format's fields, and how its levels are walked over them.
    pub levels: &'static Levels,
    /// True when view names carry a block shape after the format name
    /// (`bsr2x2`): instances of different shapes are different views.
    pub blocked: bool,
    /// The dims that are the matrix's rows and columns: one dim twice
    /// for a format that holds only square matrices.
    pub shape: (Dim, Dim),
    /// The format's index structure ([`Levels::view`]). The block shape
    /// is ignored by formats that have none.
    pub view: fn(Block) -> FormatView,
    /// Builds an instance, by the assembly its levels describe (the
    /// crate's one assembler): a blocked one cut to the given shape
    /// (BSR's blocks, VBR's strips of that height and width), or given
    /// none at the one discovery finds; an error where the format cannot
    /// hold the matrix.
    pub from_triplets: FromTriplets,
}

/// [`Layout::from_triplets`]: an instance of the layout, or why it cannot
/// hold the matrix.
pub type FromTriplets = fn(&Triplets<f64>, Option<Block>) -> Result<Box<dyn Stored>, FormatError>;

/// What no level of a layout states, on both paths: how assembly makes
/// it true, and how `validate` checks it of an untrusted instance.
pub(crate) struct Residue<M> {
    /// The level of the first chain before which `assemble` runs (the
    /// number of levels: after the last).
    pub(crate) before: usize,
    /// Makes it true of an instance under assembly.
    pub(crate) assemble: ResidueStep,
    /// Says where an untrusted instance breaks it (`validate`, last).
    pub(crate) check: fn(&M) -> Result<(), String>,
}

impl std::ops::Deref for Layout {
    type Target = Levels;

    fn deref(&self) -> &Levels {
        self.levels
    }
}

/// A format instance that can be taken apart into the fields its
/// [`Layout`] declares.
pub trait Stored: SparseView {
    /// The storage description of this format.
    fn layout(&self) -> &'static Layout;

    /// Appends the scalar fields to `dims` and the arrays — borrowed,
    /// not copied — to `arrays`, both in the layout's order.
    fn parts(&self, dims: &mut Vec<usize>, arrays: &mut Vec<RawArray>);

    /// Bytes of the stored image: each array's length times the width
    /// of the element its layout declares.
    fn image_bytes(&self) -> usize {
        let mut arrays = Vec::new();
        self.parts(&mut Vec::new(), &mut arrays);
        let elems = self.layout().arrays.iter().map(|&(_, elem)| elem.width());
        arrays
            .iter()
            .zip(elems)
            .map(|(a, width)| a.len * width)
            .sum()
    }

    /// Cuts the rows into at most `nbands` contiguous bands for a
    /// kernel run split by rows, `b[k]..b[k + 1]` being band `k`: the
    /// layout's own stored-entry-balanced partition where its
    /// `stored_layout!` names one (`bands:`), even cuts otherwise.
    fn row_bands(&self, nbands: usize) -> Vec<usize> {
        crate::partition::split_even(self.nrows(), nbands)
    }
}

/// Every format with a layout.
pub static LAYOUTS: [&Layout; 10] = [
    &formats::csr::LAYOUT,
    &formats::csc::LAYOUT,
    &formats::coo::LAYOUT,
    &formats::dia::LAYOUT,
    &formats::ell::LAYOUT,
    &formats::jad::LAYOUT,
    &formats::sky::LAYOUT,
    &formats::bsr::LAYOUT,
    &formats::vbr::LAYOUT,
    &formats::dcsr::LAYOUT,
];

/// Parses the `{r}x{c}` a blocked view name ends in, spelt as
/// `format!("{r}x{c}")` spells it and nothing else (`usize::from_str`
/// also takes `+2` and `02`): one name per view.
fn parse_block(shape: &str) -> Option<Block> {
    let extent = |s: &str| match s.as_bytes() {
        [b'1'..=b'9', rest @ ..] if rest.iter().all(u8::is_ascii_digit) => s.parse().ok(),
        _ => None,
    };
    let (r, c) = shape.split_once('x')?;
    Some((extent(r)?, extent(c)?))
}

impl Layout {
    /// The registered layout of this format name (a blocked one's
    /// without its shape: `bsr`), or [`FormatError::UnknownFormat`].
    pub fn named(name: &str) -> Result<&'static Layout, FormatError> {
        let found = LAYOUTS.iter().find(|l| l.name == name);
        found.copied().ok_or_else(|| FormatError::UnknownFormat {
            name: name.to_string(),
        })
    }

    /// Resolves a view name: the layout it is a view of, and the block
    /// shape the name carries (`bsr2x2` → the `bsr` layout at 2×2). The
    /// shape rides in the name so that plans for distinct shapes never
    /// share a plan-cache key and the emitter can unroll the in-block
    /// loops with literal bounds.
    pub fn of_view(view: &str) -> Option<(&'static Layout, Option<Block>)> {
        LAYOUTS.iter().find_map(|&l| {
            let shape = view.strip_prefix(l.name)?;
            if l.blocked {
                Some((l, Some(parse_block(shape)?)))
            } else {
                shape.is_empty().then_some((l, None))
            }
        })
    }
}

/// The views that exist only on the host: walked like any other, never
/// marshalled into a kernel.
pub static HOST_LEVELS: [&Levels; 4] = [
    &formats::dense::LEVELS,
    &formats::diagsplit::LEVELS,
    &formats::sparsevec::LEVELS,
    &formats::sparsevec::HASH_LEVELS,
];

/// How the view of this name is walked, and the block shape the name
/// carries: a registered layout's [`Levels`] or a host view's.
pub fn levels_of_view(view: &str) -> Option<(&'static Levels, Option<Block>)> {
    match Layout::of_view(view) {
        Some((layout, block)) => Some((layout.levels, block)),
        None => {
            let host = HOST_LEVELS.iter().find(|l| l.name == view)?;
            Some((host, None))
        }
    }
}

/// The view a name stands for, for every format with a layout
/// (shape-carrying names included), without instance-specific bounds
/// or guarantees.
pub fn view_by_name(view: &str) -> Option<FormatView> {
    let (layout, block) = Layout::of_view(view)?;
    Some(layout.levels.view(block))
}

/// The format a view name belongs to: the layout's name for a view of
/// a registered format (`bsr2x2` → `bsr`), the name itself otherwise.
pub fn format_name(view: &str) -> &str {
    Layout::of_view(view).map_or(view, |(l, _)| l.name)
}

/// The source of [`crate::search`], the one search per level kind: what
/// every kernel crate includes as its module `search`, so that a level
/// is searched by one text in the interpreter and in the kernels.
pub const SEARCH_SOURCE: &str = include_str!("search.rs");

/// Declares the [`Layout`] of a format struct, as the static `LAYOUT` of
/// the struct's module, and implements [`Stored`],
/// [`Leveled`](crate::level::Leveled), [`SparseView`] and
/// [`SparseMatrix`](crate::SparseMatrix) for the struct at `f64`:
///
/// ```ignore
/// stored_layout! {
///     Bsr, "bsr";
///     dims: nrows, ncols, r, c;
///     shape: n, n;                        // when not `nrows, ncols`
///     arrays: browptr: u32, bcolind: u32, values: f64;
///     block: r x c;                       // blocked layouts only
///     bands: partition_rows;              // a balanced row partition
///     chains: [
///         Level::interval(nrows),
///         Level::of(Kind::Blocks { ptr: browptr, crd: bcolind, r, c })
///             .unchecked()
///             .search()
///     ] -> values;
///     perm: iperm, iperm_inv;             // views with a `perm` only
///     residue: PADDING;                   // what no level says, if any
///     /// The BSR index structure, per logical row.
///     view: bsr_format_view = "(r, c): r[interval] -> c[sorted] -> v";
/// }
/// ```
///
/// `dims` and `arrays` must name every field of the struct, each with
/// its type; their order here is the order of [`Stored::parts`]. `shape`
/// names the dims that are the matrix's rows and columns. Each
/// chain lists its levels outermost first and then its value array (see
/// [`crate::level`]); a level that `.search()`es finds a key by the
/// search of its kind ([`crate::search`]). `view`
/// is the index structure those chains walk, one line in the notation of
/// [`crate::view`] (a blocked view's name, not its text, carries the
/// shape: `bsr2x2`), and the function that reads it
/// ([`leveled!`](crate::level::leveled)). `residue` names the layout's
/// [`Residue`]: what no level says, made true by assembly and checked by
/// `validate`. `bands` names the struct's method that cuts its rows
/// into stored-entry-balanced bands ([`Stored::row_bands`]).
///
/// Everything else is read off the same lines. Assembly from triplets
/// is the crate's one assembler over the first chain's levels (the
/// struct's `assembled`, which its own `from_triplets` calls, and
/// [`Layout::from_triplets`]). The dense API: `get(r, c)` reads the
/// value at [`SparseView::find`]`(r, c)` — the dense lookup `leveled!`
/// derives from the levels that search — `nnz` is the struct's own, and
/// `entries` its `to_triplets` at `usize` width.
macro_rules! stored_layout {
    (
        $ty:ident, $name:literal;
        dims: $($dim:ident),+;
        $(shape: $nr:ident, $nc:ident;)?
        arrays: $($arr:ident: $elem:ty),+;
        $(block: $br:ident x $bc:ident;)?
        $(bands: $bands:ident;)?
        chains: $([$($level:expr),+] -> $values:ident),+;
        $(perm: $apply:ident, $unapply:ident;)?
        $(residue: $residue:ident;)?
        $(#[$doc:meta])*
        view: $view_fn:ident = $view:literal;
    ) => {
        /// The storage description of this module's format.
        pub static LAYOUT: $crate::layout::Layout = $crate::layout::Layout {
            levels: &LEVELS,
            blocked: $crate::layout::stored_layout!(@blocked $($br)?),
            shape: $crate::layout::stored_layout!(@dims $($nr $nc)?),
            view: |block| LEVELS.view(LEVELS.block.map(|_| block)),
            from_triplets: |t, block| {
                let cut = block.map_or($crate::assemble::Cut::Discover, $crate::assemble::Cut::Block);
                Ok(Box::new($ty::assembled(t, cut)?))
            },
        };

        impl $ty<f64> {
            /// Assembles `t` as the levels describe, cut as `cut` says.
            fn assembled(
                t: &$crate::Triplets<f64>,
                cut: $crate::assemble::Cut<'_>,
            ) -> Result<$ty<f64>, $crate::FormatError> {
                let residue = $crate::layout::stored_layout!(@residue $($residue)?);
                $crate::assemble::assemble(&LAYOUT, t, cut, residue, |a| Ok($ty {
                    $($dim: a.dims[field::$dim.0],)+
                    $($arr: a.take(field::$arr)?,)+
                }))
            }
        }

        impl $crate::layout::Stored for $ty<f64> {
            fn layout(&self) -> &'static $crate::layout::Layout {
                &LAYOUT
            }

            fn parts(&self, dims: &mut Vec<usize>, arrays: &mut Vec<$crate::layout::RawArray>) {
                // Exhaustive: a field the layout does not name is an error.
                let $ty { $($dim,)+ $($arr,)+ } = self;
                dims.extend([$(*$dim),+]);
                $(
                    let array: &[$elem] = $arr;
                    arrays.push($crate::layout::RawArray {
                        ptr: array.as_ptr().cast(),
                        len: array.len(),
                    });
                )+
            }

            $(
                fn row_bands(&self, nbands: usize) -> Vec<usize> {
                    self.$bands(nbands)
                }
            )?
        }

        impl $crate::SparseMatrix for $ty<f64> {
            $crate::layout::stored_layout!(@shape $($nr $nc)?);

            fn get(&self, r: usize, c: usize) -> f64 {
                let found = self.dense_lookup(r, c);
                found.map_or(0.0, |(values, p)| $crate::level::Leveled::array(self, values).values()[p])
            }

            fn nnz(&self) -> usize {
                // The inherent method: ELL's leaves its padding out.
                self.nnz()
            }

            fn entries(&self) -> Vec<(usize, usize, f64)> {
                $crate::walk::entries(self)
            }
        }

        $crate::level::leveled! {
            $ty, $name;
            dims: $($dim = $dim),+;
            arrays: $($arr = $arr: $elem),+;
            $(block: $br x $bc;)?
            chains: $([$($level),+] -> $values),+;
            perm: $(($apply, $unapply))?;
            $(residue: $residue;)?
            $(#[$doc])*
            view: $view_fn = $view;
        }
    };
    (@blocked) => { false };
    (@blocked $br:ident) => { true };
    (@dims) => { (field::nrows, field::ncols) };
    (@dims $nr:ident $nc:ident) => { (field::$nr, field::$nc) };
    (@residue) => { None };
    (@residue $residue:ident) => { Some(($residue.before, $residue.assemble)) };
    (@shape) => { $crate::layout::stored_layout!(@shape nrows ncols); };
    (@shape $nr:ident $nc:ident) => {
        fn nrows(&self) -> usize {
            self.$nr
        }

        fn ncols(&self) -> usize {
            self.$nc
        }
    };
}
pub(crate) use stored_layout;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::bsr::bsr_format_view;
    use crate::level::check_view;

    #[test]
    fn view_names_resolve_to_their_layouts() {
        for layout in LAYOUTS {
            let view = (layout.view)((2, 3));
            let resolved = Layout::of_view(&view.name).map(|(l, block)| (l.name, block));
            let block = layout.blocked.then_some((2, 3));
            assert_eq!(resolved, Some((layout.name, block)), "{}", view.name);
            assert_eq!(format_name(&view.name), layout.name);
            let named = view_by_name(&view.name).map(|v| v.name);
            assert_eq!(named.as_ref(), Some(&view.name));
        }
        assert_eq!(bsr_format_view(4, 2).name, "bsr4x2");
        // A blocked name needs its shape, spelt one way; an unblocked one
        // takes none.
        let refused = ["bsr", "bsr0x2", "bsr2", "bsr2x", "csr2x2", "dense", ""];
        let respelt = ["bsr02x2", "bsr+2x2", "bsr2x02", "bsr2x+2", "bsr 2x2"];
        for name in refused.into_iter().chain(respelt) {
            assert!(Layout::of_view(name).is_none(), "{name:?}");
            assert_eq!(format_name(name), name);
        }
    }

    /// Every registered description reads, agrees with its levels, and
    /// is written as `Display` prints it. A description that does not is
    /// refused here, not at the first request that plans over it.
    #[test]
    fn every_registered_view_reads_and_agrees() -> Result<(), FormatError> {
        let layouts = LAYOUTS.iter().map(|l| l.levels);
        for levels in layouts.chain(HOST_LEVELS) {
            let view = FormatView::read(levels.name, levels.view)?;
            assert_eq!(check_view(&view, levels), Ok(()));
            assert_eq!(view.to_string(), levels.view, "{}", levels.name);
            assert_eq!(levels.view(None), view, "{}", levels.name);
            let named = levels.view(levels.block.map(|_| (2, 2))).name;
            let resolved = levels_of_view(&named).map(|(l, _)| l.name);
            assert_eq!(resolved, Some(levels.name));
        }
        assert_eq!(LAYOUTS.len() + HOST_LEVELS.len(), 14);
        Ok(())
    }
}
