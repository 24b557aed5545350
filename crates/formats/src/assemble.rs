//! One assembler for every layout: `from_triplets`, read off the levels.
//!
//! Chou et al.'s format abstraction (PAPERS.md) gives each level kind its
//! own assembly capabilities — size its arrays, init them, append
//! coordinates and edges. Here each [`Kind`] of a layout's first chain
//! is one loop over the normal form of [`Triplets`]: where it must, a
//! count pass and a prefix sum, then a fill, writing the level's arrays
//! and, at the last level, the values. Which key of an entry a level
//! stores is read once per assembly off the view's inverse maps (the row,
//! the column, an affine form of both such as DIA's `r - c`, or the row
//! through the view's permutation). Beneath another level a key is the
//! row or the column, and an entry's parent is its row, its column or
//! its position at the listing level above, bound to a closure of that
//! kind alone: every loop is monomorphic, with no per-entry `dyn` call
//! and no interpreted transform.
//!
//! What no level states is the layout's one named residue
//! ([`Residue`](crate::layout::Residue)), run before the level it names:
//! JAD ranks its rows by length, DIA stores a diagonal in full, a skyline
//! row starts at its first entry, an ELL pad slot holds the sentinel. A
//! blocked level is cut at the shape it is given or, given none, at the
//! one discovery finds ([`Cut`]); a matrix the layout cannot hold is a
//! [`FormatError`], refused before the arrays it would fill are
//! allocated.

use crate::blocks::{block_pattern, discover_block_size, discover_strips, BlockReport};
use crate::features::{BLOCK_PROBE_MAX, BLOCK_PROBE_MIN_FILL};
use crate::layout::{check_index_limit, narrow, Block, Elem, Layout};
use crate::level::{Arr, Base, Bound, Bound::Extent, Kind, Level, Levels, Slice, SlotAt};
use crate::partition::split_even;
use crate::view::{FormatView, Transform};
use crate::{FormatError, Triplets};
use std::any::Any;

type Entry = (u32, u32, f64);
/// A level's values, or why the layout cannot hold the matrix.
type Cells = Result<Vec<f64>, FormatError>;
/// The positions of a level another reads, or why the layout cannot
/// hold the matrix.
type Up = Result<Option<Parents>, FormatError>;

/// Where a blocked level is cut.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Cut<'a> {
    /// At the shape the matrix suggests: the dominant near-dense block
    /// (the one `StructureFeatures` reports), the strips of rows and of
    /// columns of identical support. Both fall back to one by one.
    Discover,
    /// Blocks of this shape; strips this high and wide, as even as
    /// [`split_even`] cuts them.
    Block(Block),
    /// These row and column strips.
    Strips(&'a [usize], &'a [usize]),
}

/// Which key of an entry a level stores, or which position the entry
/// reached at the level above.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Coord {
    /// `a * r + b * c + k`.
    Affine(i64, i64, i64),
    /// The row, through the inverse of the view's permutation.
    Permuted,
    /// Its position at the listing level above: [`Assembly::listed`]
    /// holds each entry's.
    Listed,
    /// Its run at a listing level whose key the entries list in order:
    /// [`Assembly::listed`] holds where each run starts.
    Runs,
}

const ROW: Coord = Coord::Affine(1, 0, 0);
const COL: Coord = Coord::Affine(0, 1, 0);

/// `$body` with `$f` bound to the parent coord `$at` as a closure
/// `(index, &entry) -> position` of its kind alone — the row, the
/// column, or the position `$listed` holds — so the loops in `$body` are
/// monomorphic, one copy per kind.
macro_rules! bind {
    ($at:expr, $listed:expr, |$f:ident| $body:expr) => {
        match $at {
            ROW => {
                let $f = |_: usize, x: &Entry| x.0 as usize;
                $body
            }
            COL => {
                let $f = |_: usize, x: &Entry| x.1 as usize;
                $body
            }
            _ => {
                let listed: &[u32] = $listed;
                let $f = |i: usize, _: &Entry| listed[i] as usize;
                $body
            }
        }
    };
}

/// The positions of the level above: how many, each entry's, and
/// whether the entries, in normal form, reach them in increasing order.
#[derive(Clone, Copy)]
struct Parents {
    count: usize,
    at: Coord,
    ordered: bool,
}

/// What a layout's residue does under assembly
/// ([`Residue::assemble`](crate::layout::Residue)).
pub(crate) type ResidueStep = fn(&mut Assembly<'_>) -> Result<(), FormatError>;

/// A layout's instance under assembly: the normal form it is built from,
/// and its dims and arrays by the indices of its [`Levels`], each array
/// a `Vec` of the element type its layout declares.
pub(crate) struct Assembly<'a> {
    pub(crate) t: &'a Triplets<f64>,
    pub(crate) dims: Vec<usize>,
    levels: &'static Levels,
    arrays: Vec<Option<Box<dyn Any>>>,
    /// Beneath a listing level: each entry's position there
    /// ([`Coord::Listed`]), or where each of its runs starts
    /// ([`Coord::Runs`]).
    listed: Vec<u32>,
    rowptr: Option<Vec<usize>>,
}

impl Assembly<'_> {
    /// Gives array `a` its contents.
    pub(crate) fn set<T: 'static>(&mut self, a: Arr, array: Vec<T>) {
        self.arrays[a.0] = Some(Box::new(array));
    }

    /// Array `a`, moved out; an error if no level or residue built it as
    /// a `Vec<T>`.
    pub(crate) fn take<T: 'static>(&mut self, a: Arr) -> Result<Vec<T>, FormatError> {
        let array = self.arrays[a.0].take().and_then(|b| b.downcast().ok());
        let unbuilt = || self.unfit(format!("no assembly builds {}", self.levels.array(a)));
        array.map(|b| *b).ok_or_else(unbuilt)
    }

    /// Where each row of the normal form starts, counted once.
    pub(crate) fn rowptr(&mut self) -> &[usize] {
        let t = self.t;
        self.rowptr.get_or_insert_with(|| t.rowptr())
    }

    /// An index array a level or the residue has built.
    fn array(&self, a: Arr) -> Option<Slice<'_>> {
        let any = self.arrays[a.0].as_deref()?;
        let u32s = any.downcast_ref().map(|v: &Vec<u32>| Slice::U32(v));
        u32s.or_else(|| any.downcast_ref().map(|v: &Vec<i64>| Slice::I64(v)))
    }

    /// A refusal: the layout cannot hold the matrix.
    fn unfit(&self, reason: String) -> FormatError {
        let format = self.levels.name;
        FormatError::Unfit { format, reason }
    }

    /// `cells` stored cells, refused past the index limit (or overflow).
    fn limit(&self, cells: Option<usize>) -> Result<usize, FormatError> {
        let cells = cells.unwrap_or(usize::MAX);
        check_index_limit(self.t.nrows(), self.t.ncols(), cells).map(|()| cells)
    }

    /// The row or the column of an entry, as `key` says: the only keys
    /// stored beneath another level.
    fn key(&self, key: Coord) -> Result<impl Fn(&Entry) -> u32 + Copy, FormatError> {
        if key != ROW && key != COL {
            return Err(self.unfit(format!("no assembly stores {key:?} beneath a level")));
        }
        let col = key == COL;
        Ok(move |x: &Entry| if col { x.1 } else { x.0 })
    }
}

/// Builds `t` in `layout`, cut as `cut` says; `residue` runs before the
/// level of the first chain it names (after the last for its number of
/// levels), and `finish` takes the instance's dims and arrays.
pub(crate) fn assemble<M>(
    layout: &Layout,
    t: &Triplets<f64>,
    cut: Cut<'_>,
    residue: Option<(usize, ResidueStep)>,
    finish: impl FnOnce(&mut Assembly<'_>) -> Result<M, FormatError>,
) -> Result<M, FormatError> {
    let (levels, (nrows, ncols)) = (layout.levels, (t.nrows(), t.ncols()));
    check_index_limit(nrows, ncols, t.nnz())?;
    if layout.shape.0 == layout.shape.1 && nrows != ncols {
        let format = levels.name;
        return Err(FormatError::NotSquare {
            format,
            nrows,
            ncols,
        });
    }
    let (t, dims) = (t.normalized(), vec![0; levels.dims.len()]);
    let (arrays, listed) = (levels.arrays.iter().map(|_| None).collect(), Vec::new());
    let (t, rowptr) = (&t, None);
    let mut a = Assembly {
        t,
        dims,
        levels,
        arrays,
        listed,
        rowptr,
    };
    (a.dims[layout.shape.0 .0], a.dims[layout.shape.1 .0]) = (nrows, ncols);
    let keys = keys_of(&levels.read().view, 0)
        .ok_or_else(|| a.unfit("a key no affine form gives".into()))?;
    let (chain, mut up) = (&levels.chains[0], None);
    for l in 0..=chain.levels.len() {
        if let Some((_, run)) = residue.filter(|&(before, _)| before == l) {
            run(&mut a)?;
        }
        if let (Some(level), Some(keys)) = (chain.levels.get(l), keys.get(l)) {
            let values = (l + 1 == chain.levels.len()).then_some(chain.values);
            up = a.level(level.kind, keys, up, values, cut)?;
        }
    }
    finish(&mut a)
}

/// The keys each level of `chain` stores, read off the view: its dense
/// attributes are the row and the column, and its inverse maps, in
/// order, give the others.
pub(crate) fn keys_of(view: &FormatView, chain: usize) -> Option<Vec<Vec<Coord>>> {
    let mut chains = view.alternatives().into_iter().flatten();
    let chain = chains.find(|c| c.id == chain)?;
    let dense = view.dense_attrs.iter().map(String::as_str);
    let mut named: Vec<(&str, Coord)> = dense.zip([ROW, COL]).collect();
    let find = |named: &[(&str, Coord)], a| named.iter().rev().find(|n| n.0 == a).map(|n| n.1);
    for t in &chain.inv {
        let (out, coord) = match t {
            Transform::Affine { out, terms, cst } => {
                let mut form = (0, 0, *cst);
                for (a, k) in terms {
                    let Coord::Affine(x, y, z) = find(&named, a)? else {
                        return None;
                    };
                    form = (form.0 + k * x, form.1 + k * y, form.2 + k * z);
                }
                (out, Coord::Affine(form.0, form.1, form.2))
            }
            Transform::PermUnapply { input, out, .. } if find(&named, input)? == ROW => {
                (out, Coord::Permuted)
            }
            _ => return None,
        };
        named.push((out, coord));
    }
    let attrs = chain.levels.iter().map(|l| &l.attrs);
    attrs
        .map(|a| a.iter().map(|a| find(&named, a)).collect())
        .collect()
}

impl Assembly<'_> {
    /// Assembles one level beneath `up` (none at the root), the last when
    /// it is given the chain's `values`; returns the positions of a level
    /// another reads.
    fn level(
        &mut self,
        kind: Kind,
        keys: &[Coord],
        mut up: Option<Parents>,
        values: Option<Arr>,
        cut: Cut,
    ) -> Up {
        let (key, extents) = (keys[0], [(ROW, self.t.nrows()), (COL, self.t.ncols())]);
        if let Some(up) = up.as_mut().filter(|up| up.at == Coord::Runs) {
            if !matches!(kind, Kind::Compressed { .. }) {
                // Each entry's position, its run's.
                let runs = self.listed.windows(2).zip(0..);
                let each = runs.flat_map(|(w, p)| std::iter::repeat_n(p, (w[1] - w[0]) as usize));
                (self.listed, up.at) = (each.collect(), Coord::Listed);
            }
        }
        let cells = match (kind, up) {
            (Kind::Coords { crd, .. }, None) => return self.coords(crd, keys, values),
            (Kind::Interval { hi: Extent(d), .. }, None)
                if Level::interval(d).kind == kind && extents.contains(&(key, self.dims[d.0])) =>
            {
                let (count, at, ordered) = (self.dims[d.0], key, key == ROW);
                return Ok(Some(Parents { count, at, ordered }));
            }
            (Kind::Jagged { ptr, crd }, None) => self.jagged(ptr, crd, keys)?,
            (Kind::Interval { lo, hi, base }, Some(up)) => self.ranges((lo, hi, base), key, up)?,
            (Kind::Compressed { ptr, crd }, Some(up)) => self.compressed(ptr, crd, key, up)?,
            (Kind::Slots { count, at, crd }, Some(up)) => self.slots((count, at, crd), key, up)?,
            (Kind::Blocks { .. } | Kind::Strips(_), Some(up)) if up.ordered && key == COL => {
                self.blocked(kind, up, cut)?
            }
            _ => return Err(self.unfit(format!("no assembly builds {kind:?} there"))),
        };
        let values = values.ok_or_else(|| self.unfit(format!("{kind:?} above a level")))?;
        self.set(values, cells);
        Ok(None)
    }

    /// The distinct keys, increasing, one position each. At the last
    /// level, the row and the column of every entry, as the normal form
    /// lists them. Above it, one affine key. Entries that list it in
    /// order are runs of it, noted as they pass: no table spans the
    /// key's extent, for a hypersparse matrix lists a few of its billions
    /// of rows. Others are ranked through a table over the keys' span, as
    /// DIA's diagonals `r - c` are.
    fn coords(&mut self, crd: &[Arr], keys: &[Coord], values: Option<Arr>) -> Up {
        let e = self.t.entries();
        match (crd, keys, values) {
            (&[rows, cols], [ROW, COL], Some(values)) => {
                self.set(rows, e.iter().map(|x| x.0).collect::<Vec<_>>());
                self.set(cols, e.iter().map(|x| x.1).collect::<Vec<_>>());
                self.set(values, e.iter().map(|x| x.2).collect::<Vec<_>>());
                Ok(None)
            }
            (&[list], &[Coord::Affine(a, b, k)], None) => {
                let key = |x: &Entry| a * x.0 as i64 + b * x.1 as i64 + k;
                // Entries that list the key in order are runs of it,
                // noted as they pass.
                let (mut distinct, mut runs) = (Vec::new(), Vec::new());
                let ordered = e.iter().enumerate().all(|(i, x)| {
                    let (k, last) = (key(x), distinct.last().copied());
                    if last != Some(k) {
                        distinct.push(k);
                        runs.push(narrow(i));
                    }
                    last.is_none_or(|l| l <= k)
                });
                runs.push(narrow(e.len()));
                self.listed = runs;
                if !ordered {
                    distinct.clear();
                    let span = e
                        .iter()
                        .map(key)
                        .fold((i64::MAX, i64::MIN), |(lo, hi), k| (lo.min(k), hi.max(k)));
                    let mut rank = vec![u32::MAX; (span.1 - span.0 + 1) as usize];
                    e.iter().for_each(|x| rank[(key(x) - span.0) as usize] = 0);
                    for (r, k) in rank.iter_mut().zip(span.0..).filter(|(r, _)| **r == 0) {
                        *r = narrow(distinct.len());
                        distinct.push(k);
                    }
                    self.listed = e.iter().map(|x| rank[(key(x) - span.0) as usize]).collect();
                }
                let at = if ordered { Coord::Runs } else { Coord::Listed };
                let count = distinct.len();
                if self.levels.elem(list) != Elem::I64 {
                    let u32s = distinct.into_iter().map(|k| narrow(k as usize));
                    self.set(list, u32s.collect::<Vec<_>>());
                } else {
                    self.set(list, distinct);
                }
                Ok(Some(Parents { count, at, ordered }))
            }
            _ => Err(self.unfit(format!("no assembly lists the keys {keys:?}"))),
        }
    }

    /// `ptr[parent]..ptr[parent + 1]`: one position per entry, its key in
    /// `crd`. Entries that reach their parents in order are stored in
    /// their own order, counted as they pass; others are counted, then
    /// scattered, each parent's in their order.
    fn compressed(&mut self, ptr: Arr, crd: Arr, key: Coord, up: Parents) -> Cells {
        let (e, key) = (self.t.entries(), self.key(key)?);
        if up.at == Coord::Runs {
            // An ordered listing's runs are its children's ranges.
            let (keys, vals): (Vec<u32>, Vec<f64>) = e.iter().map(|x| (key(x), x.2)).unzip();
            let starts = std::mem::take(&mut self.listed);
            self.set(ptr, starts);
            self.set(crd, keys);
            return Ok(vals);
        }
        let mut starts = vec![0u32; up.count + 1];
        let (mut keys, mut vals) = (vec![0u32; e.len()], vec![0.0; e.len()]);
        bind!(up.at, &self.listed, |parent| if up.ordered {
            for ((i, x), (k, v)) in e.iter().enumerate().zip(keys.iter_mut().zip(&mut vals)) {
                starts[parent(i, x) + 1] += 1;
                (*k, *v) = (key(x), x.2);
            }
            prefix_sum(&mut starts);
        } else {
            e.iter()
                .enumerate()
                .for_each(|(i, x)| starts[parent(i, x) + 1] += 1);
            prefix_sum(&mut starts);
            scatter(e, starts.clone(), (&mut keys, &mut vals), parent, key);
        });
        self.set(ptr, starts);
        self.set(crd, keys);
        Ok(vals)
    }

    /// `width` slots per parent, row-major, as many as the fullest
    /// parent holds: each parent's entries in its first `count[parent]`,
    /// in their order, their keys `i64`, as a pad sentinel below zero
    /// needs.
    fn slots(&mut self, (count, at, crd): (Arr, SlotAt, Arr), key: Coord, up: Parents) -> Cells {
        let (e, key, mut fill) = (self.t.entries(), self.key(key)?, vec![0u32; up.count]);
        let SlotAt::RowMajor(width) = at else {
            return Err(self.unfit(format!("no assembly lays slots out at {at:?}")));
        };
        let (w, keys, vals) = bind!(up.at, &self.listed, |parent| {
            e.iter()
                .enumerate()
                .for_each(|(i, x)| fill[parent(i, x)] += 1);
            let w = fill.iter().max().map_or(0, |&l| l as usize);
            let cells = self.limit(up.count.checked_mul(w))?;
            let (mut keys, mut vals) = (vec![0i64; cells], vec![0.0; cells]);
            let starts = (0..=up.count).map(|p| narrow(p * w)).collect();
            scatter(e, starts, (&mut keys, &mut vals), parent, key);
            (w, keys, vals)
        });
        self.dims[width.0] = w;
        self.set(count, fill);
        self.set(crd, keys);
        Ok(vals)
    }

    /// An interval of run-time bounds beneath each parent, `lo[parent]`
    /// (a residue's array) to `hi[parent]` (another, or the parent's
    /// successor), its cells from `ptr[parent]` on: every cell stored,
    /// zero where no entry is.
    fn ranges(&mut self, (lo, hi, base): (Bound, Bound, Base), key: Coord, up: Parents) -> Cells {
        let (e, key) = (self.t.entries(), self.key(key)?);
        let Base::Ptr(ptr) = base else {
            return Err(self.unfit(format!("no assembly bases intervals at {base:?}")));
        };
        let bound = |b| match b {
            Bound::Next => Some((1..=up.count as i64).collect::<Vec<_>>()),
            Bound::At(a) => self
                .array(a)
                .map(|s| (0..s.len()).map(|p| s.key(p)).collect()),
            _ => None,
        };
        let bounds = [bound(lo), bound(hi)].map(|b| b.filter(|b| b.len() == up.count));
        let [Some(lo), Some(hi)] = bounds else {
            return Err(self.unfit("no residue gives the bounds of its intervals".into()));
        };
        let extents = lo.iter().zip(&hi).map(|(l, h)| usize::try_from(h - l).ok());
        let cells = self.limit(extents.clone().try_fold(0usize, |n, x| n.checked_add(x?)))?;
        let mut starts = vec![0u32];
        extents
            .flatten()
            .for_each(|x| starts.push(starts[starts.len() - 1] + narrow(x)));
        let mut cell = vec![0.0; cells];
        bind!(
            up.at,
            &self.listed,
            |parent| for (i, x) in e.iter().enumerate() {
                let (p, k) = (parent(i, x), key(x) as i64);
                if k < lo[p] || k >= hi[p] {
                    let (r, c, lo, hi) = (x.0, x.1, lo[p], hi[p]);
                    return Err(self.unfit(format!(
                        "entry ({r}, {c}) lies outside its cells {lo}..{hi}"
                    )));
                }
                cell[starts[p] as usize + (k - lo[p]) as usize] = x.2;
            }
        );
        self.set(ptr, starts);
        Ok(cell)
    }

    /// Runs by rank: run `d` holds the `d`-th entry of every row that has
    /// one, at `ptr[d] + rank`. So that the rows holding a `d`-th entry
    /// are the first ranks, the first key ranks the rows by decreasing
    /// fill, rows of equal fill in increasing order (a counting sort),
    /// and writes the view's permutation; each row is read off the normal
    /// form whole, in rank order.
    fn jagged(&mut self, ptr: Arr, crd: Arr, keys: &[Coord]) -> Cells {
        let (Some(perm), [Coord::Permuted, COL]) = (self.levels.perm, keys) else {
            return Err(self.unfit(format!("no assembly ranks rows by {keys:?}")));
        };
        let rows = self.rowptr.take().unwrap_or_else(|| self.t.rowptr());
        let len = |r: usize| rows[r + 1] - rows[r];
        // first[l]: how many rows hold more than `l` entries — run `l`'s
        // length, and the first rank of the rows of fill `l`.
        let mut first = vec![0usize; (0..rows.len() - 1).map(len).max().map_or(0, |l| l) + 1];
        (0..rows.len() - 1).for_each(|r| first[len(r)] += 1);
        let mut longer = 0;
        for f in first.iter_mut().rev() {
            longer += std::mem::replace(f, longer);
        }
        let mut starts = vec![0u32];
        (1..first.len()).for_each(|d| starts.push(starts[d - 1] + narrow(first[d - 1])));
        let (mut apply, mut unapply) = (vec![0u32; rows.len() - 1], vec![0u32; rows.len() - 1]);
        for r in 0..rows.len() - 1 {
            let rank = &mut first[len(r)];
            (apply[*rank], unapply[r]) = (narrow(r), narrow(*rank));
            *rank += 1;
        }
        let e = self.t.entries();
        let (mut cols, mut vals) = (vec![0u32; e.len()], vec![0.0; e.len()]);
        for (k, &r) in apply.iter().enumerate() {
            let row = &e[rows[r as usize]..rows[r as usize + 1]];
            for (x, &start) in row.iter().zip(&starts) {
                let at = start as usize + k;
                (cols[at], vals[at]) = (x.1, x.2);
            }
        }
        self.set(perm.apply, apply);
        self.set(perm.unapply, unapply);
        self.set(ptr, starts);
        self.set(crd, cols);
        self.rowptr = Some(rows);
        Ok(vals)
    }

    /// A blocked level: the row strips `rp` and the column strips `cp`
    /// cut the matrix, and every block an entry touches is stored dense,
    /// row-major ([`block_pattern`]) — block row `br` holds blocks
    /// `ptr[br]..ptr[br + 1]`, block `b` lies in column strip `crd[b]`
    /// and its cells from `base[b]` on. BSR's strips are all `r × c`,
    /// which must divide the matrix; VBR's have run-time extents.
    fn blocked(&mut self, kind: Kind, up: Parents, cut: Cut) -> Cells {
        let (rows, cols) = (up.count, self.t.ncols());
        let even = |n: usize, b: usize| split_even(n, n.div_ceil(b.max(1)));
        let (rp, cp) = match (kind, cut) {
            (Kind::Blocks { r, c, .. }, _) => {
                let (h, w) = match cut {
                    Cut::Block(block) => block,
                    _ => {
                        let BlockReport { r: h, c: w, .. } =
                            discover_block_size(self.t, BLOCK_PROBE_MAX, BLOCK_PROBE_MIN_FILL);
                        (h, w)
                    }
                };
                if h == 0 || w == 0 || rows % h != 0 || cols % w != 0 {
                    return Err(self.unfit(format!(
                        "a {h}x{w} block must divide the {rows}x{cols} matrix"
                    )));
                }
                (self.dims[r.0], self.dims[c.0]) = (h, w);
                (
                    (0..=rows).step_by(h).collect(),
                    (0..=cols).step_by(w).collect(),
                )
            }
            (_, Cut::Strips(rp, cp)) => (rp.to_vec(), cp.to_vec()),
            (_, Cut::Block((h, w))) => (even(rows, h), even(cols, w)),
            (_, Cut::Discover) => discover_strips(self.t),
        };
        let strips = matches!(kind, Kind::Strips(_));
        for (p, n, what) in [(&rp, rows, "row"), (&cp, cols, "column")]
            .into_iter()
            .filter(|_| strips)
        {
            if p.len() < 2 || p[0] != 0 || p[p.len() - 1] != n || !p.is_sorted_by(|a, b| a < b) {
                let want = format!("a strictly increasing partition of 0..={n}");
                return Err(self.unfit(format!("the {what} strips {p:?} are not {want}")));
            }
        }
        let strip_of = |p: &[usize]| -> Vec<u32> {
            (0..p.len() - 1)
                .flat_map(|b| std::iter::repeat_n(narrow(b), p[b + 1] - p[b]))
                .collect()
        };
        let (row_strip, col_strip, e) = (strip_of(&rp), strip_of(&cp), self.t.entries());
        let (ptr, crd, base, cells) = bind!(up.at, &self.listed, |parent| {
            let block = |i, x: &Entry| (row_strip[parent(i, x)], col_strip[x.1 as usize]);
            let touched = e.iter().enumerate().map(|(i, x)| block(i, x));
            let (ptr, crd) = block_pattern(touched, (rp.len() - 1, cp.len() - 1));
            // base[b]: where block `b`'s cells start, saturating past any limit.
            let (mut base, mut br) = (vec![0usize], 0);
            for (b, &bc) in crd.iter().enumerate() {
                br += ptr[br + 1..]
                    .iter()
                    .take_while(|&&p| p as usize <= b)
                    .count();
                let area =
                    (rp[br + 1] - rp[br]).saturating_mul(cp[bc as usize + 1] - cp[bc as usize]);
                base.push(base[b].saturating_add(area));
            }
            let mut cells = vec![0.0; self.limit(base.last().copied())?];
            // block_of[bc]: the block of column strip `bc` in the open block row.
            let (mut block_of, mut open) = (vec![0; cp.len() - 1], None);
            for (i, x) in e.iter().enumerate() {
                let ((br, bc), row) = (block(i, x), parent(i, x));
                let (br, bc, col) = (br as usize, bc as usize, x.1 as usize);
                if open.replace(br) != Some(br) {
                    (ptr[br]..ptr[br + 1]).for_each(|b| block_of[crd[b as usize] as usize] = b);
                }
                let b = block_of[bc] as usize;
                cells[base[b] + (row - rp[br]) * (cp[bc + 1] - cp[bc]) + (col - cp[bc])] = x.2;
            }
            (ptr, crd, base, cells)
        });
        if let Kind::Blocks { ptr: p, crd: c, .. } = kind {
            self.set(p, ptr);
            self.set(c, crd);
        } else if let Kind::Strips(s) = kind {
            let nbr = rp.len() - 1;
            self.set(s.begin, ptr[..nbr].to_vec());
            self.set(s.end, ptr[1..].to_vec());
            self.set(s.strip_of, row_strip);
            self.set(s.start, rp.into_iter().map(narrow).collect::<Vec<_>>());
            self.set(s.cuts, cp.into_iter().map(narrow).collect::<Vec<_>>());
            self.set(s.crd, crd);
            self.set(s.base, base.into_iter().map(narrow).collect::<Vec<_>>());
        }
        Ok(cells)
    }
}

/// Each entry's key and value at `next[p]`, the next free position of
/// its parent `p`, in their order.
fn scatter<K: From<u32>>(
    e: &[Entry],
    mut next: Vec<u32>,
    (keys, vals): (&mut [K], &mut [f64]),
    parent: impl Fn(usize, &Entry) -> usize,
    key: impl Fn(&Entry) -> u32,
) {
    for (i, x) in e.iter().enumerate() {
        let at = &mut next[parent(i, x)];
        (keys[*at as usize], vals[*at as usize]) = (K::from(key(x)), x.2);
        *at += 1;
    }
}

fn prefix_sum(a: &mut [u32]) {
    for i in 1..a.len() {
        a[i] += a[i - 1];
    }
}

/// The instance, or the panic of a struct's own `from_triplets` given a
/// matrix its layout cannot hold.
pub(crate) fn built<M>(m: Result<M, FormatError>) -> M {
    m.unwrap_or_else(|e| panic!("{e}"))
}
