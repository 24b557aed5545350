//! One iteration per level kind: the positions beneath a parent, and
//! the keys at each.
//!
//! A level is enumerated by what its kind stores, never by its format,
//! as [`crate::search`] locates a key by it: taco's level functions
//! (Chou et al., PAPERS.md), the positions beneath a parent and the
//! access at a position, written once per [`Kind`]. [`ChainCursor::open`] finds
//! the positions beneath a parent and [`ChainCursor::next`] steps to the
//! next one and reads its keys:
//!
//! - an interval: every key `k` of `lo..hi`, at `base + (k - lo)`, the
//!   one kind that also runs backward;
//! - a compressed range of `ptr`, a coordinate list, row-major slots:
//!   each position `p`, its key `crd[p]` (and a coupled list's second);
//! - slots through a table: slot `s` at `table[s] + parent`;
//! - jagged diagonals: every position, its first key its offset in its
//!   run;
//! - blocks and strips: each block of the row's block row, column by
//!   column.
//!
//! Every walk of a stored instance calls these two and nothing else:
//! the interpreter's cursor ([`crate::cursor`]), which reads its level
//! at run time, and the walk `leveled!` derives for each view with every
//! level a constant, so that each folds to the loop of its kind:
//! `to_triplets` (and through it `SparseMatrix::entries`, every
//! conversion and the dense oracle's copy), `walk_chain`, `validate` and
//! the view-conformance checker.

use crate::cursor::{Keys, Position};
use crate::level::{Arr, Base, Bound, Kind, Level, Leveled, Slice, SlotAt};

/// The positions of one level beneath one parent, in key order (or
/// its reverse), and the keys and position of the current one: the
/// interpreter's cursor, and each level of a derived walk. A raw index
/// steps over `lo..hi`, and `at` says what it means.
///
/// The generic walk is: `let mut cur = view.cursor(chain, level, pos, rev);`
/// then `while view.advance(&mut cur) { use cur.keys / cur.pos }`.
#[derive(Clone, Debug)]
pub struct ChainCursor<'a> {
    /// Keys of the current entry (valid after a successful `advance`).
    pub keys: Keys,
    /// Child position of the current entry (valid after `advance`).
    pub pos: Position,
    idx: i64,
    lo: i64,
    hi: i64,
    reverse: bool,
    at: At<'a>,
}

/// What a raw index means, with the level's arrays at hand.
#[derive(Clone, Debug)]
enum At<'a> {
    /// The key itself; `pos = base + (key - lo)`.
    Interval { base: usize },
    /// A position; its keys are `crd[pos]` and, coupled, `more[pos]`.
    Stored(Slice<'a>, Option<Slice<'a>>),
    /// A slot; `pos = table[slot] + parent`.
    Table(&'a [u32], Slice<'a>, usize),
    /// A position of run `d` of `ptr`.
    Jagged(&'a [u32], Slice<'a>, usize),
    /// A block, for row `rr` of its rows: its first column, how many,
    /// the position of the first, and how many of them are taken.
    Blocks(&'a [u32], Shape<'a>, usize, [usize; 4]),
}

/// The extents of a level's blocks: one shape for all, or cut by `cuts`
/// with each block's values at its `base`.
#[derive(Clone, Copy, Debug)]
enum Shape<'a> {
    Fixed(usize, usize),
    Cut(&'a [u32], &'a [u32]),
}

impl Shape<'_> {
    /// Block `b` in block column `bc`, for row `rr` of its rows: the
    /// first column, how many, and the position of the first.
    #[inline(always)]
    fn block(&self, b: usize, bc: usize, rr: usize) -> (usize, usize, usize) {
        match *self {
            Shape::Fixed(r, c) => (bc * c, c, (b * r + rr) * c),
            Shape::Cut(cuts, base) => {
                let (first, width) = (cuts[bc] as usize, (cuts[bc + 1] - cuts[bc]) as usize);
                (first, width, base[b] as usize + rr * width)
            }
        }
    }
}

/// An end of an interval beneath `parent`.
#[inline(always)]
pub(crate) fn bound<V: Leveled + ?Sized>(view: &V, b: Bound, parent: Position) -> i64 {
    match b {
        Bound::Zero => 0,
        Bound::Extent(d) => view.dim(d) as i64,
        Bound::At(a) => view.array(a).key(parent),
        Bound::Next => parent as i64 + 1,
    }
}

/// The position of key `lo` of an interval beneath `parent`.
#[inline(always)]
pub(crate) fn base<V: Leveled + ?Sized>(view: &V, b: Base, parent: Position, lo: i64) -> usize {
    match b {
        Base::Identity => lo as usize,
        Base::Stride(d) => parent * view.dim(d),
        Base::Ptr(a) => view.array(a).u32s()[parent] as usize,
    }
}

impl<'a> ChainCursor<'a> {
    /// The positions of level `lv` beneath `parent`, read off the
    /// arrays its kind names; `values` are its chain's.
    #[inline(always)]
    pub(crate) fn open<V: Leveled + ?Sized>(
        view: &'a V,
        (lv, values): (&Level, Arr),
        parent: Position,
        reverse: bool,
    ) -> ChainCursor<'a> {
        let ix = |a, i: usize| i64::from(view.array(a).u32s()[i]);
        let (lo, hi, walk) = match lv.kind {
            Kind::Interval { lo, hi, base: b } => {
                let lo = bound(view, lo, parent);
                let base = base(view, b, parent, lo);
                (lo, bound(view, hi, parent), At::Interval { base })
            }
            Kind::Compressed { ptr, crd } => {
                let walk = At::Stored(view.array(crd), None);
                (ix(ptr, parent), ix(ptr, parent + 1), walk)
            }
            Kind::Coords { len, crd } => {
                let walk = At::Stored(view.array(crd[0]), crd.get(1).map(|&a| view.array(a)));
                (0, view.array(len).len() as i64, walk)
            }
            Kind::Slots { count, at, crd } => match at {
                SlotAt::RowMajor(width) => {
                    let first = (parent * view.dim(width)) as i64;
                    let walk = At::Stored(view.array(crd), None);
                    (first, first + ix(count, parent), walk)
                }
                SlotAt::Table(table) => {
                    let walk = At::Table(view.array(table).u32s(), view.array(crd), parent);
                    (0, ix(count, parent), walk)
                }
            },
            Kind::Jagged { ptr, crd } => {
                let len = view.array(values).len();
                let walk = At::Jagged(view.array(ptr).u32s(), view.array(crd), 0);
                (0, len as i64, walk)
            }
            Kind::Blocks { ptr, crd, r, c } => {
                let (r, c) = (view.dim(r), view.dim(c));
                let walk = At::Blocks(
                    view.array(crd).u32s(),
                    Shape::Fixed(r, c),
                    parent % r,
                    [0; 4],
                );
                (ix(ptr, parent / r), ix(ptr, parent / r + 1), walk)
            }
            Kind::Strips(s) => {
                let br = ix(s.strip_of, parent) as usize;
                let shape = Shape::Cut(view.array(s.cuts).u32s(), view.array(s.base).u32s());
                let rr = parent - ix(s.start, br) as usize;
                let walk = At::Blocks(view.array(s.crd).u32s(), shape, rr, [0; 4]);
                (ix(s.begin, br), ix(s.end, br), walk)
            }
        };
        let (keys, pos, idx) = (Keys::default(), 0, if reverse { hi } else { lo - 1 });
        let at = walk;
        ChainCursor {
            keys,
            pos,
            idx,
            lo,
            hi,
            reverse,
            at,
        }
    }

    /// Steps to the next entry and reads its keys and position; `false`
    /// past the last.
    #[inline(always)]
    pub(crate) fn next(&mut self) -> bool {
        // Blocks step within a block first; every other kind steps the
        // raw index.
        if !matches!(self.at, At::Blocks(..)) {
            self.idx += if self.reverse { -1 } else { 1 };
            if !(self.lo..self.hi).contains(&self.idx) {
                return false;
            }
        }
        let i = self.idx as usize;
        (self.keys, self.pos) = match &mut self.at {
            At::Interval { base } => (
                Keys([self.idx, 0], 1),
                *base + (self.idx - self.lo) as usize,
            ),
            At::Stored(crd, None) => (Keys([crd.key(i), 0], 1), i),
            At::Stored(crd, Some(more)) => (Keys([crd.key(i), more.key(i)], 2), i),
            At::Table(table, crd, parent) => {
                let pos = table[i] as usize + *parent;
                (Keys([crd.key(pos), 0], 1), pos)
            }
            At::Jagged(ptr, crd, d) => {
                while i >= ptr[*d + 1] as usize {
                    *d += 1;
                }
                (Keys([(i - ptr[*d] as usize) as i64, crd.key(i)], 2), i)
            }
            // The next column of block `idx`, or else the first of the
            // next block that has any.
            At::Blocks(crd, shape, rr, [first, width, at, s]) => loop {
                if *s < *width {
                    *s += 1;
                    break (Keys([(*first + *s - 1) as i64, 0], 1), *at + *s - 1);
                }
                self.idx += 1;
                if self.idx >= self.hi {
                    return false;
                }
                let b = self.idx as usize;
                (*first, *width, *at) = shape.block(b, crd[b] as usize, *rr);
                *s = 0;
            },
        };
        true
    }
}
