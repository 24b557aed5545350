//! One search per level kind: the position of a key beneath a parent.
//!
//! A level locates a key by what its kind stores, never by its format:
//! an interval by its bounds, a sorted list by binary search, a list of
//! coupled keys by a scan, a compressed range, a row of slots, a row of
//! blocks or of strips by the search this module writes for that kind,
//! once. The host's cursor calls these functions (and through it the
//! dense lookup every view derives), and every kernel crate includes
//! this file as it is, as its module `search`, where the emitted
//! searches call them. So the interpreter and the kernel run one text.
//!
//! The text is therefore written in the kernel crates' dialect: `core`
//! alone, over plain slices, with no panic path. Every read is
//! `.get(..)?` and every sum and product that could overflow is
//! checked, so on arrays that are not a valid instance of their level a
//! search finds nothing; the
//! text holds no indexing expression, its comments included (`a at i`
//! reads entry `i` of `a`). A key is an `i64`; one that no element of an
//! array can equal (negative, or past `u32::MAX` for a `u32` array) is
//! absent, never a hit on the key it would wrap onto.

use core::cmp::Ordering;

/// What an array of keys holds (`u32` or `i64`): a key converts to it,
/// or is no key of the array.
pub trait Key: Copy + Ord + TryFrom<i64> {}

impl<K: Copy + Ord + TryFrom<i64>> Key for K {}

/// From `ptr` at `p` to `ptr` at `p + 1`, as positions.
#[inline(always)]
fn range(ptr: &[u32], p: usize) -> Option<(usize, usize)> {
    match ptr.get(p..p.checked_add(2)?)? {
        &[lo, hi] => Some((lo as usize, hi as usize)),
        _ => None,
    }
}

/// An interval: key `k` of `lo..hi` is at `base + (k - lo)`.
#[inline(always)]
pub fn interval(lo: i64, hi: i64, base: usize, key: i64) -> Option<usize> {
    let offset = usize::try_from(key.checked_sub(lo)?).ok()?;
    (key < hi).then(|| base.checked_add(offset))?
}

/// A list of single keys, sorted: binary search in it.
#[inline(always)]
pub fn sorted<K: Key>(crd: &[K], key: i64) -> Option<usize> {
    let (key, mut lo, mut len) = (K::try_from(key).ok()?, 0, crd.len());
    while len > 1 {
        let (half, mid) = (len / 2, lo + len / 2);
        lo = core::hint::select_unpredictable(*crd.get(mid)? <= key, mid, lo);
        len -= half;
    }
    (crd.get(lo)? == &key).then_some(lo)
}

/// A list of coupled keys, in no order: the first of its `len`
/// positions that holds both.
#[inline(always)]
pub fn listed<K: Key>(len: usize, crd: (&[K], &[K]), key: (i64, i64)) -> Option<usize> {
    let (a, b) = (K::try_from(key.0).ok()?, K::try_from(key.1).ok()?);
    (0..len).find(|&p| crd.0.get(p) == Some(&a) && crd.1.get(p) == Some(&b))
}

/// A compressed level: binary search in the range of `crd` from `ptr`
/// at `parent` to `ptr` at `parent + 1`.
#[inline(always)]
pub fn compressed<K: Key>(ptr: &[u32], crd: &[K], parent: usize, key: i64) -> Option<usize> {
    let (lo, hi) = range(ptr, parent)?;
    lo.checked_add(sorted(crd.get(lo..hi)?, key)?)
}

/// Slots in row-major rows of `width`: binary search in the slots the
/// row fills (`count` at `parent`), from `parent * width`.
#[inline(always)]
pub fn slots<K: Key>(
    (count, width): (&[u32], usize),
    crd: &[K],
    parent: usize,
    key: i64,
) -> Option<usize> {
    let first = parent.checked_mul(width)?;
    let row = crd.get(first..first.checked_add(*count.get(parent)? as usize)?)?;
    first.checked_add(sorted(row, key)?)
}

/// Slots through a table: slot `s` of the row's (`count` at `parent`)
/// is at `table` at `s`, plus `parent`, and the keys increase with `s`:
/// binary search over the slots.
#[inline(always)]
pub fn slot_table<K: Key>(
    (count, table): (&[u32], &[u32]),
    crd: &[K],
    parent: usize,
    key: i64,
) -> Option<usize> {
    let key = K::try_from(key).ok()?;
    let slots = table.get(..*count.get(parent)? as usize)?;
    let at = |s: &u32| (*s as usize).checked_add(parent);
    let slot = |s: &u32| crd.get(at(s)?);
    let cmp = |s: &u32| slot(s).map_or(Ordering::Greater, |k| k.cmp(&key));
    at(slots.get(slots.binary_search_by(cmp).ok()?)?)
}

/// Row `parent` of blocks of `shape` (rows, columns), the blocks of
/// each block row listed by `ptr`, the block column of block `b` being
/// `crd` at `b`, row-major within a block: binary search for the key's
/// block column, then the cell of the key in it.
#[inline(always)]
pub fn blocks(
    ptr: &[u32],
    crd: &[u32],
    (r, c): (usize, usize),
    parent: usize,
    key: i64,
) -> Option<usize> {
    let key = usize::try_from(key).ok()?;
    let (br, rr) = (parent.checked_div(r)?, parent.checked_rem(r)?);
    let (bc, cc) = (key.checked_div(c)?, key.checked_rem(c)?);
    let (lo, hi) = range(ptr, br)?;
    let b = lo.checked_add(sorted(crd.get(lo..hi)?, i64::try_from(bc).ok()?)?)?;
    let row = b.checked_mul(r)?.checked_add(rr)?;
    row.checked_mul(c)?.checked_add(cc)
}

/// Row `parent` of strips, over the arrays `strip_of, start, begin, end,
/// crd, cuts, base`. The row lies in strip `br`, `strip_of` at `parent`,
/// which starts at row `start` at `br` and stores the blocks from `begin`
/// at `br` to `end` at `br`; block `b` of block column `bc`, `crd` at
/// `b`, spans the columns from `cuts` at `bc` to `cuts` at `bc + 1`, its
/// rows from `base` at `b`. A scan over the row's blocks, in increasing
/// column.
#[inline(always)]
pub fn strips(arrays: [&[u32]; 7], parent: usize, key: i64) -> Option<usize> {
    let [strip_of, start, begin, end, crd, cuts, base] = arrays;
    let col = usize::try_from(key).ok()?;
    let br = *strip_of.get(parent)? as usize;
    let rr = parent.checked_sub(*start.get(br)? as usize)?;
    for b in *begin.get(br)? as usize..*end.get(br)? as usize {
        let (c0, c1) = range(cuts, *crd.get(b)? as usize)?;
        if col < c0 {
            return None;
        }
        if col < c1 {
            let cell = rr.checked_mul(c1 - c0)?.checked_add(col - c0)?;
            return (*base.get(b)? as usize).checked_add(cell);
        }
    }
    None
}
