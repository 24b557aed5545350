//! What an instance's levels say of it: its entries, and whether its
//! arrays are what the levels describe.
//!
//! Every format's `to_triplets` and `validate` are the two functions of
//! this module, derived by its `stored_layout!` / `leveled!`: no format
//! writes either. The checks are the level properties of taco's format
//! abstraction (PAPERS.md: full, ordered, unique, compact), used for
//! checking rather than only for code generation. First [`structure`],
//! one check per [`Kind`]: every array a level names is as long as the
//! levels above make it, a pointer array starts at 0, never decreases and
//! ends at the length of what it points into, a run is as long as the
//! extent, the parents or the block it holds, and a permutation and its
//! inverse undo each other. On an instance that passes, every read of the
//! iteration of each kind ([`crate::iterate`]) is in bounds, and one walk
//! of every chain, the one `leveled!` derives for the view ([`Walked`]),
//! does the rest: each entry, through its chain's `fwd` transforms,
//! compiled once per chain ([`Fwd`]), lies inside the matrix and within
//! the view's bounds, keys strictly increase beneath a parent where the
//! view says `sorted`, a hashed level finds every key where it lists it,
//! and each alternative enumerates `nnz` entries, its `stored` facts, and
//! no entry twice.

use crate::cursor::{Keys, Position};
use crate::iterate::bound;
use crate::layout::INDEX_LIMIT;
use crate::level::{Arr, Base, Bound, Dim, Kind, Level, Leveled, Locate, SlotAt};
use crate::view::Transform;
use crate::view::{Chain, FlatLevel, FormatView, Order, SearchKind, StoredGuarantee};
use crate::{FormatError, SparseView, Triplets};

/// `return Err(format!(..))`.
macro_rules! bail {
    ($($fmt:tt)+) => { return Err(format!($($fmt)+)) };
}

/// A chain's `fwd` transforms, compiled once per chain over one
/// instance: the row and the column each a form of the chain's stored
/// keys, its permutation table at hand.
pub(crate) struct Fwd<'a> {
    rc: [Form<'a>; 2],
}

/// A dense coordinate: a key, as it is or through a table, or
/// `Σ coeff · key + cst` (none for the column of a vector).
#[derive(Clone)]
enum Form<'a> {
    Key(usize, Option<&'a [u32]>),
    Affine(Vec<(usize, i64)>, i64),
}

/// The keys one walk holds, and the keys and transforms a chain names.
pub(crate) const SLOTS: usize = 8;

impl<'a> Fwd<'a> {
    /// Compiles `chain`'s transforms over `m`; an error where one reads
    /// a name nothing assigns, or one another transform assigns, or
    /// where keys and transforms are more than [`SLOTS`].
    pub(crate) fn new<M: Leveled + ?Sized>(
        m: &'a M,
        view: &FormatView,
        chain: &Chain,
    ) -> Result<Fwd<'a>, String> {
        let keys = chain.stored_attrs();
        let mut forms: Vec<(&str, Form)> = (keys.iter().enumerate())
            .map(|(i, &a)| (a, Form::Key(i, None)))
            .collect();
        let perm = m.levels().perm.ok_or("a permutation without a table");
        // The latest assignment of a name is the one read: a key.
        let key = |forms: &[(&str, Form)], a: &str| match forms.iter().rposition(|f| f.0 == a) {
            Some(i) if i < keys.len() => Ok(i),
            Some(_) => Err("a transform reads what another assigns"),
            None => Err("an attribute unbound"),
        };
        for t in &chain.fwd {
            let (form, out) = match t {
                Transform::Affine { out, terms, cst } => {
                    let terms: Result<Vec<_>, _> = terms
                        .iter()
                        .map(|(a, k)| Ok::<_, &str>((key(&forms, a)?, *k)))
                        .collect();
                    let form = match (terms?, *cst) {
                        (terms, 0) if matches!(terms[..], [(_, 1)]) => Form::Key(terms[0].0, None),
                        (terms, cst) => Form::Affine(terms, cst),
                    };
                    (form, out)
                }
                Transform::PermApply { input, out, .. } => {
                    let table = m.array(perm?.apply).u32s();
                    (Form::Key(key(&forms, input)?, Some(table)), out)
                }
                Transform::PermUnapply { input, out, .. } => {
                    let table = m.array(perm?.unapply).u32s();
                    (Form::Key(key(&forms, input)?, Some(table)), out)
                }
            };
            forms.push((out, form));
        }
        if forms.len() > SLOTS {
            bail!("{} keys and transforms, more than {SLOTS}", forms.len());
        }
        let at = |a: &String| match forms.iter().rev().find(|f| f.0 == a) {
            Some(f) => Ok(f.1.clone()),
            None => Err(format!("{a} unbound")),
        };
        let r = at(view.dense_attrs.first().ok_or("no dense attribute")?)?;
        let c = view.dense_attrs.get(1).map(at).transpose()?;
        Ok(Fwd {
            rc: [r, c.unwrap_or(Form::Affine(Vec::new(), 0))],
        })
    }

    /// The dense coordinates of the entry stored under `keys`; an error
    /// where a table has no such entry or the arithmetic overflows.
    #[inline(always)]
    pub(crate) fn eval(&self, keys: &[i64]) -> Result<(i64, i64), String> {
        let at = |form: &Form| match *form {
            Form::Key(i, None) => Ok(keys[i]),
            Form::Key(i, Some(t)) => match usize::try_from(keys[i]).ok().and_then(|i| t.get(i)) {
                Some(&y) => Ok(i64::from(y)),
                None => bail!("the permutation has no entry {}", keys[i]),
            },
            Form::Affine(ref terms, cst) => {
                let x = (terms.iter())
                    .try_fold(cst, |x, &(i, k)| k.checked_mul(keys[i])?.checked_add(x));
                x.ok_or_else(|| "an affine map overflows".to_string())
            }
        };
        Ok((at(&self.rc[0])?, at(&self.rc[1])?))
    }
}

/// The walk `leveled!` derives for each view: each chain's levels
/// nested, every level a constant, so that each folds to the iteration
/// of its kind (`ChainCursor`). `step` sees each position of each level, its
/// depth, whether it is the first beneath its parent, the parent, its
/// keys and itself; `leaf` each entry, the keys of all its levels and
/// its position. The first error of either ends the walk.
pub(crate) trait Walked: SparseView {
    fn walk_with<S: Step, L: Leaf>(&self, chain: usize, step: S, leaf: L) -> Res;
}

pub(crate) type Res = Result<(), String>;

/// What a walk does at each position of a level.
pub(crate) trait Step: FnMut((usize, bool, Position), &Keys, Position) -> Res {}

impl<S: FnMut((usize, bool, Position), &Keys, Position) -> Res> Step for S {}

/// What a walk does at each entry.
pub(crate) trait Leaf: FnMut(&[i64], Position) -> Res {}

impl<L: FnMut(&[i64], Position) -> Res> Leaf for L {}

/// A step that checks nothing.
#[inline(always)]
pub(crate) fn no_step(_: (usize, bool, Position), _: &Keys, _: Position) -> Res {
    Ok(())
}

/// Every array of every level of every chain, as long as the levels
/// above make it, and every run as long as what it holds: what keeps the
/// cursor's reads in bounds. The first thing that is not, said.
fn structure(m: &dyn SparseView) -> Result<(), String> {
    let levels = m.levels();
    if let Some(p) = levels.perm {
        let (apply, unapply) = (m.array(p.apply).u32s(), m.array(p.unapply).u32s());
        let undone = |(i, &x): (usize, &u32)| unapply.get(x as usize) == Some(&(i as u32));
        if apply.len() != unapply.len() || !apply.iter().enumerate().all(undone) {
            let (a, u) = (levels.array(p.apply), levels.array(p.unapply));
            bail!("{a} and {u} are not inverse permutations");
        }
    }
    for (c, chain) in levels.chains.iter().enumerate() {
        let (mut parents, mut what, mut listed) = (1, "1".to_string(), false);
        for lv in chain.levels {
            let below = positions(m, lv, (parents, &what, listed));
            (parents, what) = below.map_err(|e| format!("chain {c}: {e}"))?;
            listed = matches!(lv.kind, Kind::Coords { .. });
        }
        let (values, n) = (levels.array(chain.values), m.array(chain.values).len());
        if n != parents {
            bail!("{values} has {n} entries, want {what} = {parents}: a length mismatch");
        }
    }
    Ok(())
}

/// Checks the arrays of level `lv` beneath `parents` positions (counted
/// as `what`); returns how many positions it has, and how counted. The
/// parents of a `listed` level are keys a list holds: each holds an
/// entry, or it would not be listed.
fn positions(
    m: &dyn SparseView,
    lv: &Level,
    (parents, what, listed): (usize, &str, bool),
) -> Result<(usize, String), String> {
    let levels = m.levels();
    let (name, u32s) = (|a| levels.array(a), |a: Arr| m.array(a).u32s());
    let dim = |d: Dim| (levels.dim(d), m.dim(d));
    let count = |a: Arr, n: usize, of: &str| match m.array(a).len() {
        l if l == n => Ok(()),
        l => Err(format!("{} has {l} entries, want {of} = {n}", name(a))),
    };
    // Starts at 0, never decreases, has `n + 1` entries for `Some(n)`
    // parents and ends at the length of `end`; returns where it ends.
    let pointer = |a: Arr, n: Option<(usize, &str)>, end: Option<Arr>| {
        let (p, a) = (u32s(a), name(a));
        if let Some((n, of)) = n.filter(|&(n, _)| p.len() != n + 1) {
            let (l, n) = (p.len(), n + 1);
            bail!("{a} has {l} entries, want one more than {of}: {of} + 1 = {n}");
        }
        if p.first() != Some(&0) {
            bail!("{a}[0] = {:?}, want 0", p.first());
        }
        if let Some(i) = p.windows(2).position(|w| w[0] > w[1]) {
            bail!("{a} decreases at {i} ({} > {})", p[i], p[i + 1]);
        }
        let last = p[p.len() - 1] as usize;
        match end.map(|e| (name(e), m.array(e).len())) {
            Some((e, n)) if n != last => {
                bail!("{a} ends at {last}, want the storage length {n} of {e}")
            }
            _ => Ok(last),
        }
    };
    // Run `i` of pointer `a` as long as `want(i)`.
    let runs = |a: Arr, want: &dyn Fn(usize) -> Option<usize>, why: &str| {
        let got = u32s(a).windows(2).map(|w| Some((w[1] - w[0]) as usize));
        if let Some((i, got)) = got.enumerate().find(|&(i, got)| got != want(i)) {
            let (a, want) = (name(a), want(i));
            bail!("run {i} of {a} is {got:?}, want {want:?}: it disagrees with {why}");
        }
        Ok(())
    };
    Ok(match lv.kind {
        Kind::Interval { lo, hi, base } => {
            for b in [lo, hi] {
                if let Bound::At(a) = b {
                    count(a, parents, what)?;
                }
            }
            let (lo, top) = (|p| bound(m, lo, p), |p| bound(m, hi, p));
            let extent = |p| usize::try_from(top(p).checked_sub(lo(p))?).ok();
            if let Some(p) = (0..parents).find(|&p| extent(p).is_none() || lo(p) < 0) {
                bail!("the interval of parent {p} runs backward or below 0");
            }
            match (base, hi) {
                (Base::Identity, Bound::Extent(d)) => (dim(d).1, dim(d).0.to_string()),
                (Base::Identity, _) => bail!("keys that are positions end at a dim"),
                (Base::Stride(d), _) => {
                    if (0..parents).any(|p| extent(p) > Some(dim(d).1)) {
                        bail!("an interval is wider than {} = {}", dim(d).0, dim(d).1);
                    }
                    let all = parents.checked_mul(dim(d).1).ok_or("positions overflow")?;
                    (all, format!("{what} * {}", dim(d).0))
                }
                (Base::Ptr(a), _) => {
                    let end = pointer(a, Some((parents, what)), None)?;
                    runs(a, &extent, "the interval's extent")?;
                    (end, format!("{}[{parents}]", name(a)))
                }
            }
        }
        Kind::Compressed { ptr, crd } => {
            let n = pointer(ptr, Some((parents, what)), Some(crd))?;
            if let Some(p) = u32s(ptr).windows(2).position(|w| listed && w[0] == w[1]) {
                let ptr = name(ptr);
                bail!("listed parent {p} stores no entry ({ptr} is flat at {p})");
            }
            (n, format!("len({})", name(crd)))
        }
        Kind::Coords { len, crd } => {
            let (n, of) = (m.array(len).len(), format!("len({})", name(len)));
            for &a in crd {
                count(a, n, &of)?;
            }
            (n, of)
        }
        Kind::Slots { count: n, at, crd } => {
            count(n, parents, what)?;
            let counts = u32s(n);
            match at {
                SlotAt::RowMajor(w) => {
                    let (wide, width) = dim(w);
                    let over = counts.iter().enumerate().find(|(_, &l)| l as usize > width);
                    if let Some((p, l)) = over {
                        bail!("{}[{p}] = {l} exceeds {wide} {width}", name(n));
                    }
                    let slots = parents.checked_mul(width).ok_or("slots overflow")?;
                    let what = format!("{what} * {wide} slots");
                    count(crd, slots, &what)?;
                    (slots, what)
                }
                SlotAt::Table(t) => {
                    if let Some(p) = counts.windows(2).position(|w| w[0] < w[1]) {
                        bail!("{} increases at {}", name(n), p + 1);
                    }
                    let longest = counts.first().map_or(0, |&l| l as usize);
                    let end = pointer(t, Some((longest, &format!("max({})", name(n)))), Some(crd))?;
                    let reach = |d| Some(counts.partition_point(|&l| l as usize > d));
                    runs(t, &reach, name(n))?;
                    (end, format!("len({})", name(crd)))
                }
            }
        }
        Kind::Jagged { ptr, crd } => (
            pointer(ptr, None, Some(crd))?,
            format!("len({})", name(crd)),
        ),
        Kind::Blocks { ptr, crd, r, c } => {
            let ((rows, h), (cols, w)) = (dim(r), dim(c));
            if h == 0 || w == 0 || parents % h != 0 {
                bail!("a {h}x{w} block does not cut {what} = {parents} rows");
            }
            let of = format!("{what} / {rows}");
            pointer(ptr, Some((parents / h, &of)), Some(crd))?;
            let n = m.array(crd).len();
            let cells = h
                .checked_mul(w)
                .and_then(|a| a.checked_mul(n))
                .ok_or("cells overflow")?;
            (cells, format!("len({}) * {rows} * {cols}", name(crd)))
        }
        Kind::Strips(s) => {
            count(s.strip_of, parents, what)?;
            if pointer(s.start, None, None)? != parents {
                bail!("{} ends past {what} = {parents}", name(s.start));
            }
            let (start, of) = (u32s(s.start), u32s(s.strip_of));
            for (br, rows) in start.windows(2).enumerate() {
                let mut rows = rows[0] as usize..rows[1] as usize;
                if let Some(r) = rows.find(|&r| of[r] as usize != br) {
                    bail!("{}[{r}] = {}, want strip {br}", name(s.strip_of), of[r]);
                }
            }
            // The strips' blocks, cut by one pointer: `begin` its starts,
            // `end` its ends.
            count(s.begin, start.len() - 1, "the strips")?;
            count(s.end, start.len() - 1, "the strips")?;
            let (begin, end, crd) = (u32s(s.begin), u32s(s.end), u32s(s.crd));
            let cut: Vec<u32> = begin.iter().take(1).chain(end).copied().collect();
            let joined = cut.first().is_none_or(|&b| b == 0) && cut.is_sorted();
            let blocks = cut.last().map_or(0, |&b| b as usize);
            if !joined || begin.iter().zip(&cut).any(|(b, c)| b != c) || blocks != crd.len() {
                let (b, e) = (name(s.begin), name(s.end));
                bail!("{b} and {e} do not cut the {} blocks", crd.len());
            }
            let cuts = u32s(s.cuts);
            pointer(s.cuts, None, None)?;
            if let Some(b) = crd.iter().position(|&bc| bc as usize + 1 >= cuts.len()) {
                let (c, w) = (name(s.crd), name(s.cuts));
                bail!("{c}[{b}] = {} names no strip of {w}", crd[b]);
            }
            let of = format!("len({})", name(s.crd));
            let end = pointer(s.base, Some((crd.len(), &of)), None)?;
            let area = |b: usize| {
                let br = cut.partition_point(|&e| e as usize <= b) - 1;
                let (height, bc) = ((start[br + 1] - start[br]) as usize, crd[b] as usize);
                height.checked_mul((cuts[bc + 1] - cuts[bc]) as usize)
            };
            runs(s.base, &area, "the block's area")?;
            (end, format!("{}[{}]", name(s.base), crd.len()))
        }
    })
}

/// `(r, c)` as a position of an `nrows × ncols` matrix, or what it is not.
pub(crate) fn inside(r: i64, c: i64, nrows: usize, ncols: usize) -> Result<(), String> {
    let off = |x: i64, n: usize, what: &str, dim: &str| match usize::try_from(x) {
        Ok(x) if x < n => None,
        Ok(x) => Some(format!("{what} {x} >= {dim} {n}")),
        Err(_) => Some(format!("{what} {x} < 0")),
    };
    let e = off(r, nrows, "row", "nrows").or_else(|| off(c, ncols, "column", "ncols"));
    match e {
        None => Ok(()),
        Some(e) => bail!("entry ({r}, {c}) out of range, outside the {nrows}x{ncols} matrix: {e}"),
    }
}

/// Checks an untrusted instance against its levels and its view: the
/// typed verdict for data that would otherwise surface as an
/// out-of-bounds read deep inside a kernel. `residue` checks, last, what
/// no level says.
pub(crate) fn validate<M: Walked>(
    m: &M,
    residue: impl FnOnce() -> Result<(), String>,
) -> Result<(), FormatError> {
    let levels = m.levels();
    let invalid = |reason| FormatError::Invalid {
        format: levels.name,
        reason,
    };
    structure(m).map_err(invalid)?;
    let (view, nnz, (nrows, ncols)) = (m.static_view(), m.nnz(), (m.nrows(), m.ncols()));
    let alts = view.alternatives();
    // A chain that enumerates its keys in order, or finds them in its own
    // map, enumerates none twice, and its `fwd`, which the view's `inv`
    // undoes, keeps them apart. Beside such an alternative, another is
    // held to its count.
    let ordered = |l: &FlatLevel| l.order == Order::Increasing || l.search == SearchKind::Hash;
    let one_ordered = |a: &Vec<Chain>| matches!(&a[..], [c] if c.levels.iter().all(ordered));
    let any_ordered = alts.iter().any(one_ordered);
    // Each of the view's bounds over the entry's `[r, c]`: a term whose
    // attribute is neither breaks it.
    let bounds: Vec<_> = (view.bounds.iter())
        .map(|b| {
            let at = |a: &String| {
                view.dense_attrs
                    .iter()
                    .position(|d| d == a)
                    .filter(|&i| i < 2)
            };
            let terms: Vec<_> = b.terms.iter().map(|(a, k)| (at(a), *k)).collect();
            (b, terms)
        })
        .collect();
    for (a, alt) in alts.iter().enumerate() {
        let (mut count, mut diagonal, mut seen) = (0, 0, Vec::new());
        for chain in alt {
            let fwd = Fwd::new(m, &view, chain).map_err(invalid)?;
            // Beneath one parent, keys strictly increase at a level the
            // view says `sorted`, and a hashed level finds every key where
            // it lists it: each a flag per level, read once per chain.
            let described = levels.chains.get(chain.id).map_or(&[][..], |c| c.levels);
            let flat = |l: usize| chain.levels.get(l);
            let sorted: [bool; SLOTS] =
                std::array::from_fn(|l| flat(l).is_some_and(|f| f.order == Order::Increasing));
            let hashed: [bool; SLOTS] = std::array::from_fn(|l| {
                flat(l).is_some()
                    && described
                        .get(l)
                        .is_some_and(|d| matches!(d.locate, Locate::Hash(_)))
            });
            let mut prev = [Keys::default(); SLOTS];
            let walked = m.walk_with(
                chain.id,
                #[inline(always)]
                |(level, first, parent): (usize, bool, Position), k: &Keys, pos| {
                    if sorted[level] && !first && *prev[level] >= **k {
                        let (p, k) = (&*prev[level], &**k);
                        let e =
                            format!("keys not strictly increasing beneath {parent} ({p:?}, {k:?})");
                        bail!("level {level}: {e}");
                    }
                    if hashed[level] && m.search(chain.id, level, parent, k) != Some(pos) {
                        let e = format!("does not find key {} at {pos}, where it is listed", k[0]);
                        bail!("the map {e}");
                    }
                    prev[level] = *k;
                    Ok(())
                },
                #[inline(always)]
                |keys: &[i64], _| {
                    let (r, c) = fwd.eval(keys)?;
                    inside(r, c, nrows, ncols)?;
                    for (b, terms) in &bounds {
                        let v = terms.iter().try_fold(b.cst, |v, &(at, k)| {
                            k.checked_mul([r, c][at?])?.checked_add(v)
                        });
                        if v.is_none_or(|v| v < 0) {
                            bail!("entry ({r}, {c}) breaks the view's bound {b:?}");
                        }
                    }
                    (count, diagonal) = (count + 1, diagonal + usize::from(r == c));
                    if !any_ordered {
                        seen.push((r, c));
                    }
                    Ok(())
                },
            );
            walked.map_err(|e| invalid(format!("chain {}: {e}", chain.id)))?;
        }
        seen.sort_unstable();
        let twice = seen.windows(2).find(|w| w[0] == w[1]).map(|w| w[0]);
        let has = |g: StoredGuarantee| view.guarantees.contains(&g);
        let wrong = if count != nnz {
            format!("enumerates {count} entries, nnz is {nnz}")
        } else if let Some((r, c)) = twice {
            format!("enumerates entry ({r}, {c}) twice")
        } else if has(StoredGuarantee::FullDiagonal) && diagonal != nrows.min(ncols) {
            format!("stores {diagonal} diagonal positions, its view says all")
        } else if has(StoredGuarantee::AllPositions) && Some(count) != nrows.checked_mul(ncols) {
            format!("stores {count} positions, its view says all {nrows}x{ncols}")
        } else {
            continue;
        };
        return Err(invalid(format!("alternative {a} {wrong}")));
    }
    residue().map_err(invalid)
}

/// The entries of the view's first alternative, every chain of it walked
/// through its `fwd` transforms, in normal form: a walk that is row-major
/// already (CSR, DCSR, ELL, BSR, VBR, Sky) sorts nothing. A view that
/// stores every position hands out its nonzeros only. An instance
/// `validate` refuses may panic here: the first entry outside the
/// matrix is refused as `Triplets::push` refuses it.
pub(crate) fn to_triplets<M: Walked>(m: &M) -> Triplets<f64> {
    let (mut entries, refused) = collect(m, |r, c, v| (r, c, v));
    // The entry `push` refuses, after those it takes.
    if let Some((n, ..)) = refused {
        entries.truncate(n);
    }
    let mut t = Triplets::walked(m.nrows(), m.ncols(), entries);
    if let Some((_, r, c, v)) = refused {
        t.push(r as usize, c as usize, v);
    }
    t.normalize();
    t
}

/// `SparseMatrix::entries`: `to_triplets` at the width of the dense
/// API. A view whose rows are its outermost level is collected at that
/// width as it is walked, kept where its entries come strictly
/// row-major inside the matrix (they do on every instance `validate`
/// accepts), as `to_triplets` would hand them out.
pub(crate) fn entries<M: Walked>(m: &M) -> Vec<(usize, usize, f64)> {
    if m.levels().rows_outermost() {
        let (wide, refused) = collect(m, |r, c, v| (r as usize, c as usize, v));
        let ascends = wide.windows(2).all(|w| (w[0].0, w[0].1) < (w[1].0, w[1].1));
        if refused.is_none() && ascends {
            return wide;
        }
    }
    to_triplets(m).wide_entries()
}

/// The entries of the view's first alternative in walk order, each
/// made by `make` of its coordinates and its value, and the first one
/// `Triplets::push` refuses.
fn collect<M: Walked, E>(m: &M, make: impl Fn(u32, u32, f64) -> E + Copy) -> Pushed<E> {
    let (levels, view) = (m.levels(), m.static_view());
    let all = view.guarantees.contains(&StoredGuarantee::AllPositions);
    let (nrows, ncols) = (m.nrows(), m.ncols());
    let mut pushed = (Vec::new(), None);
    for chain in view.alternatives().into_iter().next().unwrap_or_default() {
        let fwd = Fwd::new(m, &view, &chain).ok();
        // Each value the chain stores is one entry, unless zeros drop.
        let described = levels.chains.get(chain.id);
        let Some(values) = described.map(|c| m.array(c.values).values()) else {
            continue;
        };
        pushed.0.reserve_exact(if all { 0 } else { values.len() });
        let walked = (chain.id, fwd.as_ref(), values, all);
        pushed = push_chain(m, walked, (nrows, ncols), pushed, make);
    }
    pushed
}

/// Entries in walk order, and the first `Triplets::push` refuses, with
/// how many came before it.
type Pushed<E> = (Vec<E>, Option<(usize, i64, i64, f64)>);

/// Pushes the entries of a chain, each value of `values` at the
/// coordinates `fwd` gives its keys (`(-1, -1)` where it gives none), a
/// stored zero left out where `all` positions are stored; notes in
/// `refused` the first whose coordinates `Triplets::push` refuses, and
/// how many came before it. A function of its own, so that each
/// view's loop is compiled apart from what its callers do.
#[inline(never)]
fn push_chain<M: Walked, E>(
    m: &M,
    (chain, fwd, values, all): (usize, Option<&Fwd>, &[f64], bool),
    (nrows, ncols): (usize, usize),
    (mut entries, mut refused): Pushed<E>,
    make: impl Fn(u32, u32, f64) -> E,
) -> Pushed<E> {
    // Inside the shape and the index limit, as `u64`s.
    let fits = |n: usize| n.min(INDEX_LIMIT + 1) as u64;
    let (rows, cols) = (fits(nrows), fits(ncols));
    // Keys the loop holds in place of the forms; a key through a table
    // that has no entry for it is refused as `eval` refuses it.
    let keyed = match fwd.map(|f| &f.rc) {
        Some([Form::Key(i, t), Form::Key(j, u)]) => Some([(*i, *t), (*j, *u)]),
        _ => None,
    };
    let at = |keys: &[i64], (i, t): (usize, Option<&[u32]>)| match t {
        None => Some(keys[i]),
        Some(t) => usize::try_from(keys[i])
            .ok()
            .and_then(|k| t.get(k))
            .map(|&y| i64::from(y)),
    };
    let _ = m.walk_with(
        chain,
        no_step,
        #[inline(always)]
        |keys: &[i64], pos| {
            let rc = match (keyed, fwd) {
                (Some([r, c]), _) => at(keys, r).zip(at(keys, c)),
                (None, Some(fwd)) => fwd.eval(keys).ok(),
                (None, None) => None,
            };
            let (r, c) = rc.unwrap_or((-1, -1));
            let v = values[pos];
            if !(all && v == 0.0) {
                if refused.is_none() & ((r as u64 >= rows) | (c as u64 >= cols)) {
                    refused = Some((entries.len(), r, c, v));
                }
                entries.push(make(r as u32, c as u32, v));
            }
            Ok(())
        },
    );
    (entries, refused)
}
