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
//! cursor is in bounds, and one cursor walk of every chain
//! ([`crate::cursor::walk`]) does the rest: each entry, through its
//! chain's `fwd` transforms ([`Fwd`]), lies inside the matrix and within
//! the view's bounds, keys strictly increase beneath a parent where the
//! view says `sorted`, a hashed level finds every key where it lists it,
//! and each alternative enumerates `nnz` entries, its `stored` facts, and
//! no entry twice.

use crate::cursor::{bound, walk, walk_chain};
use crate::level::{Arr, Base, Bound, Dim, Kind, Level, Levels, SlotAt};
use crate::view::{Chain, FlatLevel, FormatView, Order, SearchKind, StoredGuarantee, Transform};
use crate::{FormatError, SparseView, Triplets};

/// `return Err(format!(..))`.
macro_rules! bail {
    ($($fmt:tt)+) => { return Err(format!($($fmt)+)) };
}

/// A chain's `fwd` transforms, compiled once: slot `i` of the first
/// `keys` holds the chain's stored key `i`, slot `keys + j` what
/// transform `j` assigns; `rc` are the slots of the dense attributes.
pub(crate) struct Fwd {
    keys: usize,
    ops: Vec<Op>,
    rc: (usize, Option<usize>),
}

/// `Σ coeff · slot + cst`, then through a table if there is one.
type Op = (Vec<(usize, i64)>, i64, Option<Arr>);

/// The slots one evaluation holds: a chain's keys and transforms.
const SLOTS: usize = 8;

impl Fwd {
    /// Compiles `chain`'s transforms; an error where one reads a name
    /// nothing assigns, or where keys and transforms need more than
    /// [`SLOTS`] slots.
    pub(crate) fn new(levels: &Levels, view: &FormatView, chain: &Chain) -> Result<Fwd, String> {
        let (mut names, mut ops) = (chain.stored_attrs(), Vec::new());
        let keys = names.len();
        // The latest assignment of a name is the one read.
        let slot = |names: &[&str], a: &str| names.iter().rposition(|&n| n == a);
        let perm = levels.perm.ok_or("a permutation without a table");
        let one = |a: &String| vec![(a.clone(), 1)];
        for t in &chain.fwd {
            let (terms, cst, table, out) = match t {
                Transform::Affine { out, terms, cst } => (terms.clone(), *cst, None, out),
                Transform::PermApply { input, out, .. } => (one(input), 0, Some(perm?.apply), out),
                Transform::PermUnapply { input, out, .. } => {
                    (one(input), 0, Some(perm?.unapply), out)
                }
            };
            let terms: Option<_> = terms
                .iter()
                .map(|(a, k)| Some((slot(&names, a)?, *k)))
                .collect();
            ops.push((terms.ok_or("an attribute unbound")?, cst, table));
            names.push(out);
        }
        if names.len() > SLOTS {
            bail!("{} keys and transforms, more than {SLOTS}", names.len());
        }
        let at = |a: Option<&String>| a.map(|a| slot(&names, a).ok_or(format!("{a} unbound")));
        let rc = (
            at(view.dense_attrs.first()).ok_or("no dense attribute")??,
            at(view.dense_attrs.get(1)).transpose()?,
        );
        Ok(Fwd { keys, ops, rc })
    }

    /// The dense coordinates of the entry `m` stores under `keys`; an
    /// error where a table has no such entry or the arithmetic overflows.
    pub(crate) fn eval(&self, m: &dyn SparseView, keys: &[i64]) -> Result<(i64, i64), String> {
        let mut s = [0i64; SLOTS];
        s[..self.keys].copy_from_slice(keys);
        let lookup =
            |t: Arr, x: i64| Some(i64::from(*m.array(t).u32s().get(usize::try_from(x).ok()?)?));
        for (j, (terms, cst, table)) in self.ops.iter().enumerate() {
            let x = terms
                .iter()
                .try_fold(*cst, |x, &(i, k)| k.checked_mul(s[i])?.checked_add(x));
            s[self.keys + j] = match (x, table) {
                (None, _) => bail!("an affine map overflows"),
                (Some(x), None) => x,
                (Some(x), Some(t)) => {
                    lookup(*t, x).ok_or_else(|| format!("the permutation has no entry {x}"))?
                }
            };
        }
        Ok((s[self.rc.0], self.rc.1.map_or(0, |c| s[c])))
    }
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
pub(crate) fn validate(
    m: &dyn SparseView,
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
    for (a, alt) in alts.iter().enumerate() {
        let (mut count, mut diagonal, mut seen) = (0, 0, Vec::new());
        for chain in alt {
            let fwd = Fwd::new(levels, &view, chain).map_err(invalid)?;
            let mut entry = |keys: &[i64], _| {
                let (r, c) = fwd.eval(m, keys)?;
                inside(r, c, nrows, ncols)?;
                for b in &view.bounds {
                    let v = b.terms.iter().try_fold(b.cst, |v, (a, k)| {
                        let x = *[r, c].get(view.dense_attrs.iter().position(|d| d == a)?)?;
                        k.checked_mul(x)?.checked_add(v)
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
            };
            let walked = walk(m, (chain.id, 0, 0), &mut vec![], Some(chain), &mut entry);
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
/// `validate` refuses may panic here.
pub(crate) fn to_triplets(m: &dyn SparseView) -> Triplets<f64> {
    let (levels, view) = (m.levels(), m.static_view());
    let all = view.guarantees.contains(&StoredGuarantee::AllPositions);
    let mut t = Triplets::new(m.nrows(), m.ncols());
    for chain in view.alternatives().into_iter().next().unwrap_or_default() {
        let fwd = Fwd::new(levels, &view, &chain).ok();
        // Each value the chain stores is one entry, unless zeros drop.
        let stored = levels
            .chains
            .get(chain.id)
            .map_or(0, |c| m.array(c.values).len());
        t.reserve(if all { 0 } else { stored });
        walk_chain(m, chain.id, &mut |keys, v| {
            // Where no transform gives coordinates, ones no matrix has:
            // the push refuses them.
            let rc = fwd.as_ref().and_then(|f| f.eval(m, keys).ok());
            let (r, c) = rc.unwrap_or((-1, -1));
            if !(all && v == 0.0) {
                t.push(r as usize, c as usize, v);
            }
        });
    }
    t.normalize();
    t
}
