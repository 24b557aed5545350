//! One storage description per format.
//!
//! The paper's premise (§2) is that a format is given to the compiler
//! once, as a description, and everything else is derived from it. A
//! [`Layout`] is the storage half of that description — the struct's
//! scalar fields, its arrays with their element types, and the source
//! of its `find` — next to the index-structure half it already had (the
//! [`FormatView`]). It is declared by one `stored_layout!` invocation
//! beside each format struct, which names the struct's own fields: a
//! renamed, retyped or forgotten field fails to compile here, not in
//! whoever reads the layout.
//!
//! The same invocation declares how the format's levels are *walked*
//! (its [`Levels`], see [`crate::level`]): a `Layout` is that
//! description plus what marshalling an instance into a kernel needs.
//!
//! [`LAYOUTS`] is the registry: the formats whose instances can be taken
//! apart into [`Stored::parts`] and put back together elsewhere (the
//! loaded-kernel ABI of `bernoulli-synth` is derived from it), and the
//! one table from view names to formats ([`Layout::of_view`],
//! [`levels_of_view`], [`view_by_name`], [`format_name`]).

use crate::level::{Levels, Slice};
use crate::view::FormatView;
use crate::{formats, SparseView, Triplets};

/// Element type of a stored array.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Elem {
    Usize,
    I64,
    F64,
}

impl Elem {
    /// The Rust name of the element type.
    pub fn rust(self) -> &'static str {
        match self {
            Elem::Usize => "usize",
            Elem::I64 => "i64",
            Elem::F64 => "f64",
        }
    }
}

/// The Rust types an array of a layout can hold: what ties the element
/// a layout declares to the type of the field it names.
pub trait ElemType: Sized {
    const ELEM: Elem;

    /// An array of this type, as a level description reads it.
    fn slice(array: &[Self]) -> Slice<'_>;

    /// The array for writing, when it is one of values.
    fn values_mut(_array: &mut [Self]) -> Option<&mut [f64]> {
        None
    }
}

impl ElemType for usize {
    const ELEM: Elem = Elem::Usize;

    fn slice(array: &[usize]) -> Slice<'_> {
        Slice::Usize(array)
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

    fn values_mut(array: &mut [f64]) -> Option<&mut [f64]> {
        Some(array)
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
    /// Source text of the struct's `find` method(s): the lines of the
    /// format's own file between the two `layout-find` marker comments,
    /// which use nothing but the fields above, `core`, and `?` on
    /// `slice::get` — so the same text compiles over any struct with
    /// these fields as slices, and cannot panic there either.
    pub find: &'static str,
    /// True when view names carry a block shape after the format name
    /// (`bsr2x2`): instances of different shapes are different views.
    pub blocked: bool,
    /// The format's index structure. The block shape is ignored by
    /// formats that have none.
    pub view: fn(Block) -> FormatView,
    /// Builds an instance cut to the given block shape (ignored by
    /// formats that have none), panicking as the struct's own
    /// `from_triplets` does on a matrix the format cannot hold.
    pub from_triplets: fn(&Triplets<f64>, Block) -> Box<dyn Stored>,
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

    /// The instance's block shape, for a [`blocked`](Layout::blocked)
    /// layout.
    fn block(&self) -> Option<Block>;

    /// Appends the scalar fields to `dims` and the arrays — borrowed,
    /// not copied — to `arrays`, both in the layout's order.
    fn parts(&self, dims: &mut Vec<usize>, arrays: &mut Vec<RawArray>);
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

/// Parses the `{r}x{c}` a blocked view name ends in.
fn parse_block(shape: &str) -> Option<Block> {
    let (r, c) = shape.split_once('x')?;
    match (r.parse(), c.parse()) {
        (Ok(r), Ok(c)) if r > 0 && c > 0 => Some((r, c)),
        _ => None,
    }
}

impl Layout {
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
    Some((layout.view)(block.unwrap_or((1, 1))))
}

/// The format a view name belongs to: the layout's name for a view of
/// a registered format (`bsr2x2` → `bsr`), the name itself otherwise.
pub fn format_name(view: &str) -> &str {
    Layout::of_view(view).map_or(view, |(l, _)| l.name)
}

/// The lines of a format's source file between its two marker
/// comments (see [`Layout::find`]). A file without them does not
/// compile.
pub const fn marked_find(src: &'static str) -> &'static str {
    const BEGIN: &[u8] = b"// layout-find-begin\n";
    const END: &[u8] = b"// layout-find-end";
    const fn position(hay: &[u8], needle: &[u8], from: usize) -> usize {
        let mut at = from;
        loop {
            assert!(
                at + needle.len() <= hay.len(),
                "a `layout-find` marker comment is missing"
            );
            let mut k = 0;
            while k < needle.len() && hay[at + k] == needle[k] {
                k += 1;
            }
            if k == needle.len() {
                return at;
            }
            at += 1;
        }
    }
    let bytes = src.as_bytes();
    let start = position(bytes, BEGIN, 0) + BEGIN.len();
    let mut end = position(bytes, END, start);
    // Back to the start of the end marker's line.
    while bytes[end - 1] != b'\n' {
        end -= 1;
    }
    src.split_at(start).1.split_at(end - start).0
}

/// The bytes of `text`, as an array of their own.
pub const fn bytes_of<const N: usize>(text: &str) -> [u8; N] {
    let mut out = [0u8; N];
    let mut i = 0;
    while i < N {
        out[i] = text.as_bytes()[i];
        i += 1;
    }
    out
}

/// Declares the [`Layout`] of a format struct, as the static `LAYOUT` of
/// the struct's module, and implements [`Stored`],
/// [`Leveled`](crate::level::Leveled) and [`SparseView`] for the struct
/// at `f64`:
///
/// ```ignore
/// stored_layout! {
///     Bsr, "bsr", include_str!("bsr.rs");
///     dims: nrows, ncols, r, c;
///     arrays: browptr: usize, bcolind: usize, values: f64;
///     block: r x c;                       // blocked layouts only
///     chains: [
///         Level::interval(nrows),
///         Level::of(Kind::Blocks { ptr: browptr, crd: bcolind, r, c })
///             .unchecked()
///             .find(Args::ParentKey)
///     ] -> values;
///     perm: iperm, iperm_inv;             // views with a `perm` only
///     find: find;
///     view: |(r, c)| bsr_format_view(r, c);
///     from_triplets: |t, (r, c)| Bsr::from_triplets(t, r, c);
/// }
/// ```
///
/// `dims` and `arrays` must name every field of the struct, each with
/// its type; their order here is the order of [`Stored::parts`]. Each
/// chain lists its levels outermost first and then its value array (see
/// [`crate::level`]); `find` names the method the levels' `.find(..)`
/// call, which is one of those between the `layout-find` markers.
macro_rules! stored_layout {
    (
        $ty:ident, $name:literal, $src:expr;
        dims: $($dim:ident),+;
        arrays: $($arr:ident: $elem:ty),+;
        $(block: $br:ident x $bc:ident;)?
        chains: $([$($level:expr),+] -> $values:ident),+;
        $(perm: $apply:ident, $unapply:ident;)?
        find: $finder:ident;
        view: $view:expr;
        from_triplets: $build:expr;
    ) => {
        /// The storage description of this module's format.
        pub static LAYOUT: $crate::layout::Layout = $crate::layout::Layout {
            levels: &LEVELS,
            find: {
                // Copied out, so that the binary keeps these lines and
                // not the whole source file around them.
                const TEXT: &str = $crate::layout::marked_find($src);
                const BYTES: [u8; TEXT.len()] = $crate::layout::bytes_of(TEXT);
                match core::str::from_utf8(&BYTES) {
                    Ok(text) => text,
                    Err(_) => unreachable!(),
                }
            },
            blocked: $crate::layout::stored_layout!(@blocked $($br)?),
            view: $view,
            from_triplets: |t, block| {
                let build: fn(&$crate::Triplets<f64>, $crate::layout::Block) -> $ty<f64> = $build;
                Box::new(build(t, block))
            },
        };

        impl $crate::layout::Stored for $ty<f64> {
            fn layout(&self) -> &'static $crate::layout::Layout {
                &LAYOUT
            }

            fn block(&self) -> Option<$crate::layout::Block> {
                $crate::layout::stored_layout!(@block self $($br $bc)?)
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
        }

        $crate::level::leveled! {
            $ty, $name;
            dims: $($dim = $dim),+;
            arrays: $($arr = $arr: $elem),+;
            chains: $([$($level),+] -> $values),+;
            perm: $(($apply, $unapply))?;
            find: stringify!($finder) => |m, a, b| m.$finder(a, b);
            view: |m| {
                let block = $crate::layout::Stored::block(m);
                (LAYOUT.view)(block.unwrap_or((1, 1)))
            };
        }
    };
    (@blocked) => { false };
    (@blocked $br:ident) => { true };
    (@block $s:ident) => { None };
    (@block $s:ident $br:ident $bc:ident) => { Some(($s.$br, $s.$bc)) };
}
pub(crate) use stored_layout;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formats::bsr::bsr_format_view;

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
        // A blocked name needs its shape, an unblocked one takes none.
        for name in ["bsr", "bsr0x2", "bsr2", "bsr2x", "csr2x2", "dense", ""] {
            assert!(Layout::of_view(name).is_none(), "{name:?}");
            assert_eq!(format_name(name), name);
        }
    }

    #[test]
    fn find_texts_are_whole_methods() {
        for layout in LAYOUTS {
            let find = layout.find;
            assert!(find.starts_with("    #[inline]\n    pub fn find"), "{find}");
            assert!(find.ends_with("    }\n"), "{find}");
            assert!(!find.contains("layout-find"), "{find}");
        }
    }
}
