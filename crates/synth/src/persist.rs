//! Persistent plan cache (S38): completed whole-search results
//! serialized to disk, keyed by the in-memory plan-cache key, so a
//! restarted compile service warm-starts instead of re-searching.
//!
//! This sits beside the compiled-artifact store from S37
//! ([`bernoulli_kernel_cache`]): that one persists *machine code* keyed
//! by emitted source, this one persists the *search result* (ranked
//! candidate plans plus accounting) keyed by (program, views,
//! statistics, knobs). A warm-started service deserializes the ranked
//! plans in microseconds, promotes them into the in-memory cache, and
//! serves the request without running a single polyhedral decision.
//!
//! ## Format
//!
//! One file per key, named `plan-<fnv64(key)>.bsp`, containing a single
//! S-expression: `(bernoulli-plan-cache <version> <key> <entry> <emit>)`.
//! The serializer is hand-rolled (the workspace builds offline, no
//! serde): integers are decimal, `f64`s are written as `f`+16 hex
//! digits of their bit pattern (exact round-trip, NaN-safe), strings
//! are quoted with `\`-escapes, and every struct/enum is a positional
//! (sometimes tagged) list. `<emit>` is the best candidate's emitted
//! kernel module, stored so a warm-start can hand out source without
//! re-running the emitter and so tests can verify round-trip fidelity.
//!
//! ## Integrity
//!
//! Loads are defensive, never trusted: the version header must match,
//! the stored key must equal the requested key byte-for-byte (file
//! names are 64-bit hashes, so collisions fall back to a miss, not a
//! wrong plan), and any parse failure — truncation, corruption, a file
//! from an older layout — counts an error and behaves as a miss. The
//! cache is an optimization tier; correctness never depends on it.
//! Writes go to a unique temp file first and are atomically renamed
//! into place, so concurrent services sharing one directory only ever
//! observe complete entries.

use crate::plan::{Atom, Dir, Edge, EdgeBound, ExecStmt, Guard, LevelRef, PExpr, Plan, PlanRef};
use crate::plan::{SearchPart, Step, StepKind, ValueSource};
use crate::search::{CachedSearch, Candidate, SearchReport};
use bernoulli_ir::{AffineExpr, LhsRef, Statement, ValueExpr};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Bumped whenever the on-disk layout changes *or the emitter's output
/// for a stored plan does* (entries carry emitted source); older files
/// are treated as misses and eventually overwritten.
const FORMAT_VERSION: i64 = 2;

/// Parser recursion guard: a corrupted file must fail cleanly, not
/// overflow the stack. Real plans nest a few levels deep at most.
const MAX_DEPTH: usize = 96;

// ---------------------------------------------------------------------
// Value model + writer + parser
// ---------------------------------------------------------------------

/// The serialization value model: everything a plan contains lowers to
/// integers, bit-exact floats, strings and lists.
#[derive(Clone, Debug, PartialEq)]
enum V {
    I(i64),
    F(u64),
    S(String),
    L(Vec<V>),
}

fn write_v(out: &mut String, v: &V) {
    match v {
        V::I(i) => {
            out.push_str(&i.to_string());
        }
        V::F(bits) => {
            out.push('f');
            out.push_str(&format!("{bits:016x}"));
        }
        V::S(s) => {
            out.push('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    _ => out.push(c),
                }
            }
            out.push('"');
        }
        V::L(items) => {
            out.push('(');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                write_v(out, item);
            }
            out.push(')');
        }
    }
}

/// A typed, descriptive deserialization failure. Internal — the public
/// surface converts any failure into "miss".
#[derive(Debug)]
struct ParseFail(String);

impl ParseFail {
    /// The diagnostic text (kept by the store as
    /// [`PersistentPlanCache::last_error`]).
    fn message(&self) -> &str {
        &self.0
    }
}

type PResult<T> = Result<T, ParseFail>;

fn fail<T>(msg: impl Into<String>) -> PResult<T> {
    Err(ParseFail(msg.into()))
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Parser<'a> {
        Parser {
            bytes: s.as_bytes(),
            pos: 0,
        }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn value(&mut self, depth: usize) -> PResult<V> {
        if depth > MAX_DEPTH {
            return fail("nesting too deep");
        }
        self.skip_ws();
        match self.peek() {
            Some(b'(') => {
                self.pos += 1;
                let mut items = Vec::new();
                loop {
                    self.skip_ws();
                    match self.peek() {
                        Some(b')') => {
                            self.pos += 1;
                            return Ok(V::L(items));
                        }
                        Some(_) => items.push(self.value(depth + 1)?),
                        None => return fail("unterminated list"),
                    }
                }
            }
            Some(b'"') => {
                self.pos += 1;
                let mut s = String::new();
                loop {
                    match self.peek() {
                        Some(b'"') => {
                            self.pos += 1;
                            return Ok(V::S(s));
                        }
                        Some(b'\\') => {
                            self.pos += 1;
                            match self.peek() {
                                Some(b'"') => s.push('"'),
                                Some(b'\\') => s.push('\\'),
                                Some(b'n') => s.push('\n'),
                                _ => return fail("bad escape"),
                            }
                            self.pos += 1;
                        }
                        Some(_) => {
                            // Consume one full UTF-8 scalar.
                            let start = self.pos;
                            let mut end = start + 1;
                            while end < self.bytes.len() && (self.bytes[end] & 0xC0) == 0x80 {
                                end += 1;
                            }
                            match std::str::from_utf8(&self.bytes[start..end]) {
                                Ok(frag) => s.push_str(frag),
                                Err(_) => return fail("invalid utf-8 in string"),
                            }
                            self.pos = end;
                        }
                        None => return fail("unterminated string"),
                    }
                }
            }
            Some(b'f') => {
                let start = self.pos + 1;
                let end = start + 16;
                if end > self.bytes.len() {
                    return fail("truncated float");
                }
                let hex = match std::str::from_utf8(&self.bytes[start..end]) {
                    Ok(h) => h,
                    Err(_) => return fail("bad float bytes"),
                };
                match u64::from_str_radix(hex, 16) {
                    Ok(bits) => {
                        self.pos = end;
                        Ok(V::F(bits))
                    }
                    Err(_) => fail("bad float hex"),
                }
            }
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let start = self.pos;
                self.pos += 1;
                while self.peek().map(|c| c.is_ascii_digit()).unwrap_or(false) {
                    self.pos += 1;
                }
                let txt = match std::str::from_utf8(&self.bytes[start..self.pos]) {
                    Ok(t) => t,
                    Err(_) => return fail("bad integer bytes"),
                };
                match txt.parse::<i64>() {
                    Ok(i) => Ok(V::I(i)),
                    Err(_) => fail("bad integer"),
                }
            }
            Some(c) => fail(format!("unexpected byte {c:#x}")),
            None => fail("unexpected end of input"),
        }
    }
}

fn parse_top(s: &str) -> PResult<V> {
    let mut p = Parser::new(s);
    let v = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return fail("trailing garbage after top-level value");
    }
    Ok(v)
}

// ---------------------------------------------------------------------
// Accessor helpers for decoding
// ---------------------------------------------------------------------

fn as_list(v: &V) -> PResult<&[V]> {
    match v {
        V::L(items) => Ok(items),
        other => fail(format!("expected list, got {other:?}")),
    }
}

fn as_fixed<const N: usize>(v: &V) -> PResult<&[V; N]> {
    let items = as_list(v)?;
    match <&[V; N]>::try_from(items) {
        Ok(arr) => Ok(arr),
        Err(_) => fail(format!("expected {N}-list, got {}-list", items.len())),
    }
}

fn as_i64(v: &V) -> PResult<i64> {
    match v {
        V::I(i) => Ok(*i),
        other => fail(format!("expected int, got {other:?}")),
    }
}

fn as_usize(v: &V) -> PResult<usize> {
    let i = as_i64(v)?;
    usize::try_from(i).map_err(|_| ParseFail(format!("expected usize, got {i}")))
}

fn as_bool(v: &V) -> PResult<bool> {
    match as_i64(v)? {
        0 => Ok(false),
        1 => Ok(true),
        other => fail(format!("expected bool 0/1, got {other}")),
    }
}

fn as_f64(v: &V) -> PResult<f64> {
    match v {
        V::F(bits) => Ok(f64::from_bits(*bits)),
        other => fail(format!("expected float, got {other:?}")),
    }
}

fn as_str(v: &V) -> PResult<&str> {
    match v {
        V::S(s) => Ok(s),
        other => fail(format!("expected string, got {other:?}")),
    }
}

fn dec_vec<T>(v: &V, f: impl Fn(&V) -> PResult<T>) -> PResult<Vec<T>> {
    as_list(v)?.iter().map(f).collect()
}

fn enc_opt<T>(o: &Option<T>, f: impl Fn(&T) -> V) -> V {
    match o {
        None => V::L(vec![]),
        Some(x) => V::L(vec![f(x)]),
    }
}

fn dec_opt<T>(v: &V, f: impl Fn(&V) -> PResult<T>) -> PResult<Option<T>> {
    let items = as_list(v)?;
    match items {
        [] => Ok(None),
        [x] => Ok(Some(f(x)?)),
        _ => fail("expected 0- or 1-list for option"),
    }
}

fn enc_string(s: &str) -> V {
    V::S(s.to_string())
}

// ---------------------------------------------------------------------
// Plan-tree encoders/decoders (positional lists, tags where variants)
// ---------------------------------------------------------------------

fn enc_atom(a: &Atom) -> V {
    match a {
        Atom::Slot(i) => V::L(vec![V::S("s".into()), V::I(*i as i64)]),
        Atom::Var(n) => V::L(vec![V::S("v".into()), enc_string(n)]),
    }
}

fn dec_atom(v: &V) -> PResult<Atom> {
    let [tag, payload] = as_fixed::<2>(v)?;
    match as_str(tag)? {
        "s" => Ok(Atom::Slot(as_usize(payload)?)),
        "v" => Ok(Atom::Var(as_str(payload)?.to_string())),
        other => fail(format!("unknown atom tag {other:?}")),
    }
}

fn enc_pexpr(e: &PExpr) -> V {
    V::L(vec![
        V::L(
            e.terms
                .iter()
                .map(|(a, c)| V::L(vec![enc_atom(a), V::I(*c)]))
                .collect(),
        ),
        V::I(e.cst),
    ])
}

fn dec_pexpr(v: &V) -> PResult<PExpr> {
    let [terms, cst] = as_fixed::<2>(v)?;
    Ok(PExpr {
        terms: dec_vec(terms, |t| {
            let [a, c] = as_fixed::<2>(t)?;
            Ok((dec_atom(a)?, as_i64(c)?))
        })?,
        cst: as_i64(cst)?,
    })
}

fn enc_levelref(r: &LevelRef) -> V {
    V::L(vec![
        enc_string(&r.matrix),
        V::I(r.ref_id as i64),
        V::I(r.chain as i64),
        V::I(r.level as i64),
    ])
}

fn dec_levelref(v: &V) -> PResult<LevelRef> {
    let [matrix, ref_id, chain, level] = as_fixed::<4>(v)?;
    Ok(LevelRef {
        matrix: as_str(matrix)?.to_string(),
        ref_id: as_usize(ref_id)?,
        chain: as_usize(chain)?,
        level: as_usize(level)?,
    })
}

fn enc_pairs(pairs: &[(usize, usize)]) -> V {
    V::L(
        pairs
            .iter()
            .map(|(a, b)| V::L(vec![V::I(*a as i64), V::I(*b as i64)]))
            .collect(),
    )
}

fn dec_pairs(v: &V) -> PResult<Vec<(usize, usize)>> {
    dec_vec(v, |p| {
        let [a, b] = as_fixed::<2>(p)?;
        Ok((as_usize(a)?, as_usize(b)?))
    })
}

fn enc_searchpart(s: &SearchPart) -> V {
    V::L(vec![
        enc_levelref(&s.target),
        V::L(
            s.keys
                .iter()
                .map(|(e, perm)| V::L(vec![enc_pexpr(e), enc_opt(perm, |p| enc_string(p))]))
                .collect(),
        ),
        enc_pairs(&s.sharers),
    ])
}

fn dec_searchpart(v: &V) -> PResult<SearchPart> {
    let [target, keys, sharers] = as_fixed::<3>(v)?;
    Ok(SearchPart {
        target: dec_levelref(target)?,
        keys: dec_vec(keys, |k| {
            let [e, perm] = as_fixed::<2>(k)?;
            Ok((
                dec_pexpr(e)?,
                dec_opt(perm, |p| Ok(as_str(p)?.to_string()))?,
            ))
        })?,
        sharers: dec_pairs(sharers)?,
    })
}

fn enc_stepkind(k: &StepKind) -> V {
    match k {
        StepKind::Interval { lo, hi } => {
            V::L(vec![V::S("iv".into()), enc_pexpr(lo), enc_pexpr(hi)])
        }
        StepKind::Level { primary, perms } => V::L(vec![
            V::S("lv".into()),
            enc_levelref(primary),
            V::L(
                perms
                    .iter()
                    .map(|p| enc_opt(p, |s| enc_string(s)))
                    .collect(),
            ),
        ]),
        StepKind::MergeJoin { a, b } => {
            V::L(vec![V::S("mj".into()), enc_levelref(a), enc_levelref(b)])
        }
    }
}

fn dec_stepkind(v: &V) -> PResult<StepKind> {
    let items = as_list(v)?;
    let tag = match items.first() {
        Some(t) => as_str(t)?,
        None => return fail("empty step kind"),
    };
    match (tag, items) {
        ("iv", [_, lo, hi]) => Ok(StepKind::Interval {
            lo: dec_pexpr(lo)?,
            hi: dec_pexpr(hi)?,
        }),
        ("lv", [_, primary, perms]) => Ok(StepKind::Level {
            primary: dec_levelref(primary)?,
            perms: dec_vec(perms, |p| dec_opt(p, |s| Ok(as_str(s)?.to_string())))?,
        }),
        ("mj", [_, a, b]) => Ok(StepKind::MergeJoin {
            a: dec_levelref(a)?,
            b: dec_levelref(b)?,
        }),
        _ => fail(format!("unknown step kind {tag:?}")),
    }
}

fn enc_step(s: &Step) -> V {
    V::L(vec![
        enc_stepkind(&s.kind),
        V::I(match s.dir {
            Dir::Fwd => 0,
            Dir::Rev => 1,
        }),
        V::I(s.ordered as i64),
        enc_opt(&s.edge_bound, |b| {
            V::L(vec![
                V::I((b.edge == Edge::Last) as i64),
                enc_pexpr(&b.pivot),
            ])
        }),
        V::I(s.first_slot as i64),
        V::I(s.nslots as i64),
        enc_pairs(&s.sharers),
        V::L(s.searches.iter().map(enc_searchpart).collect()),
        V::L(s.binds.iter().map(|b| enc_string(b)).collect()),
    ])
}

fn dec_step(v: &V) -> PResult<Step> {
    let [kind, dir, ordered, edge_bound, first_slot, nslots, sharers, searches, binds] =
        as_fixed::<9>(v)?;
    Ok(Step {
        kind: dec_stepkind(kind)?,
        dir: match as_i64(dir)? {
            0 => Dir::Fwd,
            1 => Dir::Rev,
            other => return fail(format!("bad dir {other}")),
        },
        ordered: as_bool(ordered)?,
        edge_bound: dec_opt(edge_bound, |b| {
            let [last, pivot] = as_fixed::<2>(b)?;
            Ok(EdgeBound {
                edge: if as_bool(last)? {
                    Edge::Last
                } else {
                    Edge::First
                },
                pivot: dec_pexpr(pivot)?,
            })
        })?,
        first_slot: as_usize(first_slot)?,
        nslots: as_usize(nslots)?,
        sharers: dec_pairs(sharers)?,
        searches: dec_vec(searches, dec_searchpart)?,
        binds: dec_vec(binds, |b| Ok(as_str(b)?.to_string()))?,
    })
}

fn enc_guard(g: &Guard) -> V {
    match g {
        Guard::Eq(e) => V::L(vec![V::S("eq".into()), enc_pexpr(e)]),
        Guard::Ge(e) => V::L(vec![V::S("ge".into()), enc_pexpr(e)]),
        Guard::Divides(e, d) => V::L(vec![V::S("dv".into()), enc_pexpr(e), V::I(*d)]),
    }
}

fn dec_guard(v: &V) -> PResult<Guard> {
    let items = as_list(v)?;
    let tag = match items.first() {
        Some(t) => as_str(t)?,
        None => return fail("empty guard"),
    };
    match (tag, items) {
        ("eq", [_, e]) => Ok(Guard::Eq(dec_pexpr(e)?)),
        ("ge", [_, e]) => Ok(Guard::Ge(dec_pexpr(e)?)),
        ("dv", [_, e, d]) => Ok(Guard::Divides(dec_pexpr(e)?, as_i64(d)?)),
        _ => fail(format!("unknown guard {tag:?}")),
    }
}

fn enc_source(s: &ValueSource) -> V {
    match s {
        ValueSource::Position { ref_id } => V::L(vec![V::S("pos".into()), V::I(*ref_id as i64)]),
        ValueSource::Random { ref_id } => V::L(vec![V::S("rnd".into()), V::I(*ref_id as i64)]),
    }
}

fn dec_source(v: &V) -> PResult<ValueSource> {
    let [tag, rid] = as_fixed::<2>(v)?;
    match as_str(tag)? {
        "pos" => Ok(ValueSource::Position {
            ref_id: as_usize(rid)?,
        }),
        "rnd" => Ok(ValueSource::Random {
            ref_id: as_usize(rid)?,
        }),
        other => fail(format!("unknown source {other:?}")),
    }
}

fn enc_affine(e: &AffineExpr) -> V {
    V::L(vec![
        V::L(
            e.terms()
                .map(|(n, c)| V::L(vec![enc_string(n), V::I(c)]))
                .collect(),
        ),
        V::I(e.cst()),
    ])
}

fn dec_affine(v: &V) -> PResult<AffineExpr> {
    let [terms, cst] = as_fixed::<2>(v)?;
    let pairs: Vec<(String, i64)> = dec_vec(terms, |t| {
        let [n, c] = as_fixed::<2>(t)?;
        Ok((as_str(n)?.to_string(), as_i64(c)?))
    })?;
    let borrowed: Vec<(&str, i64)> = pairs.iter().map(|(n, c)| (n.as_str(), *c)).collect();
    Ok(AffineExpr::from_terms(&borrowed, as_i64(cst)?))
}

fn enc_lhsref(l: &LhsRef) -> V {
    V::L(vec![
        enc_string(&l.array),
        V::L(l.idxs.iter().map(enc_affine).collect()),
    ])
}

fn dec_lhsref(v: &V) -> PResult<LhsRef> {
    let [array, idxs] = as_fixed::<2>(v)?;
    Ok(LhsRef {
        array: as_str(array)?.to_string(),
        idxs: dec_vec(idxs, dec_affine)?,
    })
}

fn enc_vexpr(e: &ValueExpr) -> V {
    match e {
        ValueExpr::Const(c) => V::L(vec![V::S("c".into()), V::F(c.to_bits())]),
        ValueExpr::Read(l) => V::L(vec![V::S("r".into()), enc_lhsref(l)]),
        ValueExpr::Add(a, b) => V::L(vec![V::S("+".into()), enc_vexpr(a), enc_vexpr(b)]),
        ValueExpr::Sub(a, b) => V::L(vec![V::S("-".into()), enc_vexpr(a), enc_vexpr(b)]),
        ValueExpr::Mul(a, b) => V::L(vec![V::S("*".into()), enc_vexpr(a), enc_vexpr(b)]),
        ValueExpr::Div(a, b) => V::L(vec![V::S("/".into()), enc_vexpr(a), enc_vexpr(b)]),
        ValueExpr::Neg(a) => V::L(vec![V::S("n".into()), enc_vexpr(a)]),
    }
}

fn dec_vexpr(v: &V) -> PResult<ValueExpr> {
    let items = as_list(v)?;
    let tag = match items.first() {
        Some(t) => as_str(t)?,
        None => return fail("empty value expr"),
    };
    let bin = |a: &V, b: &V| -> PResult<(Box<ValueExpr>, Box<ValueExpr>)> {
        Ok((Box::new(dec_vexpr(a)?), Box::new(dec_vexpr(b)?)))
    };
    match (tag, items) {
        ("c", [_, bits]) => Ok(ValueExpr::Const(as_f64(bits)?)),
        ("r", [_, l]) => Ok(ValueExpr::Read(dec_lhsref(l)?)),
        ("+", [_, a, b]) => bin(a, b).map(|(a, b)| ValueExpr::Add(a, b)),
        ("-", [_, a, b]) => bin(a, b).map(|(a, b)| ValueExpr::Sub(a, b)),
        ("*", [_, a, b]) => bin(a, b).map(|(a, b)| ValueExpr::Mul(a, b)),
        ("/", [_, a, b]) => bin(a, b).map(|(a, b)| ValueExpr::Div(a, b)),
        ("n", [_, a]) => Ok(ValueExpr::Neg(Box::new(dec_vexpr(a)?))),
        _ => fail(format!("unknown value expr {tag:?}")),
    }
}

fn enc_exec(e: &ExecStmt) -> V {
    V::L(vec![
        V::I(e.stmt as i64),
        V::I(e.orig as i64),
        V::L(vec![enc_lhsref(&e.body.lhs), enc_vexpr(&e.body.rhs)]),
        V::L(
            e.bindings
                .iter()
                .map(|(n, x, d)| V::L(vec![enc_string(n), enc_pexpr(x), V::I(*d)]))
                .collect(),
        ),
        V::L(e.guards.iter().map(enc_guard).collect()),
        V::L(e.sources.iter().map(|s| enc_opt(s, enc_source)).collect()),
        V::L(e.required_refs.iter().map(|r| V::I(*r as i64)).collect()),
        V::I(e.depth as i64),
        V::I(e.after as i64),
    ])
}

fn dec_exec(v: &V) -> PResult<ExecStmt> {
    let [stmt, orig, body, bindings, guards, sources, required_refs, depth, after] =
        as_fixed::<9>(v)?;
    let [lhs, rhs] = as_fixed::<2>(body)?;
    Ok(ExecStmt {
        stmt: as_usize(stmt)?,
        orig: as_usize(orig)?,
        body: Statement {
            lhs: dec_lhsref(lhs)?,
            rhs: dec_vexpr(rhs)?,
        },
        bindings: dec_vec(bindings, |b| {
            let [n, x, d] = as_fixed::<3>(b)?;
            Ok((as_str(n)?.to_string(), dec_pexpr(x)?, as_i64(d)?))
        })?,
        guards: dec_vec(guards, dec_guard)?,
        sources: dec_vec(sources, |s| dec_opt(s, dec_source))?,
        required_refs: dec_vec(required_refs, as_usize)?,
        depth: as_usize(depth)?,
        after: as_bool(after)?,
    })
}

fn enc_planref(r: &PlanRef) -> V {
    V::L(vec![
        enc_string(&r.matrix),
        V::I(r.chain as i64),
        V::I(r.levels as i64),
        V::L(r.access.iter().map(enc_pexpr).collect()),
    ])
}

fn dec_planref(v: &V) -> PResult<PlanRef> {
    let [matrix, chain, levels, access] = as_fixed::<4>(v)?;
    Ok(PlanRef {
        matrix: as_str(matrix)?.to_string(),
        chain: as_usize(chain)?,
        levels: as_usize(levels)?,
        access: dec_vec(access, dec_pexpr)?,
    })
}

fn enc_plan(p: &Plan) -> V {
    V::L(vec![
        V::L(p.steps.iter().map(enc_step).collect()),
        V::L(p.execs.iter().map(enc_exec).collect()),
        V::L(p.refs.iter().map(enc_planref).collect()),
        enc_string(&p.space_desc),
        V::I(p.nslots as i64),
        V::L(p.notes.iter().map(|n| enc_string(n)).collect()),
    ])
}

fn dec_plan(v: &V) -> PResult<Plan> {
    let [steps, execs, refs, space_desc, nslots, notes] = as_fixed::<6>(v)?;
    Ok(Plan {
        steps: dec_vec(steps, dec_step)?,
        execs: dec_vec(execs, dec_exec)?,
        refs: dec_vec(refs, dec_planref)?,
        space_desc: as_str(space_desc)?.to_string(),
        nslots: as_usize(nslots)?,
        notes: dec_vec(notes, |n| Ok(as_str(n)?.to_string()))?,
    })
}

fn enc_candidate(c: &Candidate) -> V {
    V::L(vec![
        enc_plan(&c.plan),
        V::F(c.cost.to_bits()),
        V::L(
            c.choices
                .iter()
                .map(|(m, a)| V::L(vec![enc_string(m), V::I(*a as i64)]))
                .collect(),
        ),
        V::L(c.safety_notes.iter().map(|n| enc_string(n)).collect()),
    ])
}

fn dec_candidate(v: &V) -> PResult<Candidate> {
    let [plan, cost, choices, safety_notes] = as_fixed::<4>(v)?;
    Ok(Candidate {
        plan: dec_plan(plan)?,
        cost: as_f64(cost)?,
        choices: dec_vec(choices, |c| {
            let [m, a] = as_fixed::<2>(c)?;
            Ok((as_str(m)?.to_string(), as_usize(a)?))
        })?,
        safety_notes: dec_vec(safety_notes, |n| Ok(as_str(n)?.to_string()))?,
    })
}

/// What is stored of a search: only ones that ran to completion are.
fn enc_entry(e: &SearchReport) -> V {
    V::L(vec![
        V::L(e.candidates.iter().map(enc_candidate).collect()),
        V::I(e.examined as i64),
        V::I(e.pruned as i64),
        V::L(e.reasons.iter().map(|r| enc_string(r)).collect()),
    ])
}

fn dec_entry(v: &V) -> PResult<SearchReport> {
    let [candidates, examined, pruned, reasons] = as_fixed::<4>(v)?;
    Ok(SearchReport {
        candidates: dec_vec(candidates, dec_candidate)?.into(),
        examined: as_usize(examined)?,
        pruned: as_usize(pruned)?,
        reasons: dec_vec(reasons, |r| Ok(as_str(r)?.to_string()))?.into(),
        plan_cache_hit: false,
        plan_cache_disk_hit: false,
        degraded: false,
        budget: None,
        skipped_configs: 0,
    })
}

// ---------------------------------------------------------------------
// The on-disk store
// ---------------------------------------------------------------------

/// Counters of the persistent tier, mirroring the in-memory cache's
/// accounting so the service can report warm-start effectiveness.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Loads that produced a usable entry.
    pub hits: u64,
    /// Loads that found no file for the key.
    pub misses: u64,
    /// Entries written (or overwritten).
    pub writes: u64,
    /// Loads that found a file but rejected it (version skew, key
    /// collision, corruption) — all behave as misses.
    pub errors: u64,
}

/// The persistent plan-cache tier: one directory of self-describing
/// entry files, shared safely between concurrent services (atomic
/// publication via temp-file + rename; readers only ever see complete
/// entries). See the module docs for format and integrity rules.
pub struct PersistentPlanCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    writes: AtomicU64,
    errors: AtomicU64,
    /// The most recent decode rejection, kept for diagnostics (the
    /// load path itself treats every rejection as a plain miss).
    last_error: Mutex<Option<String>>,
    /// Entry-count cap enforced by [`gc`](PersistentPlanCache::gc).
    max_entries: usize,
    /// Total-size cap (bytes) enforced by [`gc`](PersistentPlanCache::gc).
    max_bytes: u64,
}

/// Default entry-count cap of [`PersistentPlanCache::new`] — generous
/// (a busy multi-tenant service stays well under it) but finite, so a
/// long-lived shared directory cannot grow without bound.
pub const DEFAULT_MAX_ENTRIES: usize = 4096;

/// Default total-size cap of [`PersistentPlanCache::new`]: 64 MiB.
pub const DEFAULT_MAX_BYTES: u64 = 64 * 1024 * 1024;

/// Uniquifies temp-file names across threads within this process; the
/// pid distinguishes processes.
static TMP_SEQ: AtomicU64 = AtomicU64::new(0);

impl PersistentPlanCache {
    /// A store rooted at `dir` (created lazily on first write), bounded
    /// by [`DEFAULT_MAX_ENTRIES`] / [`DEFAULT_MAX_BYTES`].
    pub fn new(dir: impl Into<PathBuf>) -> PersistentPlanCache {
        PersistentPlanCache::with_limits(dir, DEFAULT_MAX_ENTRIES, DEFAULT_MAX_BYTES)
    }

    /// A store with explicit size bounds: at most `max_entries` entry
    /// files totalling at most `max_bytes` bytes, enforced oldest-first
    /// by [`gc`](PersistentPlanCache::gc) after every store.
    pub fn with_limits(
        dir: impl Into<PathBuf>,
        max_entries: usize,
        max_bytes: u64,
    ) -> PersistentPlanCache {
        PersistentPlanCache {
            dir: dir.into(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            writes: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            last_error: Mutex::new(None),
            max_entries,
            max_bytes,
        }
    }

    /// The diagnostic text of the most recent rejected entry (version
    /// skew, key collision, corruption), if any load has failed.
    pub fn last_error(&self) -> Option<String> {
        self.last_error
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// The directory entries live in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// This store's load/write accounting.
    pub fn stats(&self) -> PersistStats {
        PersistStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            writes: self.writes.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
        }
    }

    fn path_for(&self, key: &str) -> PathBuf {
        let h = bernoulli_kernel_cache::content_hash(key.as_bytes());
        self.dir.join(format!("plan-{h:016x}.bsp"))
    }

    /// Loads the search stored under `key`, or `None` — on a genuine
    /// miss, a version mismatch, a key (hash) collision, or any parse
    /// failure. Never errors out: the persistent tier is advisory.
    pub(crate) fn load(&self, key: &str) -> Option<SearchReport> {
        if bernoulli_govern::faults::fail("persist.read") {
            self.errors.fetch_add(1, Ordering::Relaxed);
            *self.last_error.lock().unwrap_or_else(|p| p.into_inner()) =
                Some("injected fault at persist.read (chaos test)".to_string());
            return None;
        }
        let text = match std::fs::read_to_string(self.path_for(key)) {
            Ok(t) => t,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match decode_file(&text, key) {
            Ok((entry, _emit)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry)
            }
            Err(e) => {
                self.errors.fetch_add(1, Ordering::Relaxed);
                *self.last_error.lock().unwrap_or_else(|p| p.into_inner()) =
                    Some(e.message().to_string());
                None
            }
        }
    }

    /// Like `load`, but also returns the stored emitted kernel source
    /// (tests use it to verify round-trip fidelity; the search path
    /// only needs the entry).
    pub fn load_with_source(&self, key: &str) -> Option<(Vec<String>, String)> {
        let text = std::fs::read_to_string(self.path_for(key)).ok()?;
        let (entry, emit) = decode_file(&text, key).ok()?;
        let plans = entry
            .candidates
            .iter()
            .map(|c| c.plan.to_string())
            .collect();
        Some((plans, emit))
    }

    /// Persists a completed (never degraded) search under its key,
    /// including the best candidate's emitted module (the entry's own
    /// rendering, named `kernel`) when emission succeeds. Failures are
    /// swallowed — a read-only or full disk degrades the warm-start,
    /// never the compile.
    pub(crate) fn store(&self, entry: &CachedSearch) {
        let key = &entry.key;
        let emit = entry
            .module()
            .map(|module| module.named("kernel"))
            .unwrap_or_default();
        let mut out = String::with_capacity(4096);
        write_v(
            &mut out,
            &V::L(vec![
                V::S("bernoulli-plan-cache".into()),
                V::I(FORMAT_VERSION),
                V::S(key.clone()),
                enc_entry(&entry.report),
                V::S(emit),
            ]),
        );
        if std::fs::create_dir_all(&self.dir).is_err() {
            return;
        }
        let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!(".tmp-{}-{seq}.bsp", std::process::id()));
        if std::fs::write(&tmp, &out).is_err() {
            return;
        }
        let dst = self.path_for(key);
        if std::fs::rename(&tmp, &dst).is_err() {
            let _ = std::fs::remove_file(&tmp);
            return;
        }
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.gc();
    }

    /// Evicts entry files, oldest modification time first, until the
    /// directory is within both the entry-count and total-byte caps.
    /// Returns how many files were removed. Runs automatically after
    /// every store; exposed so services
    /// can also sweep on a schedule (e.g. after shrinking the caps).
    ///
    /// Eviction is cooperative under concurrency: entries are published
    /// atomically, so removing one can never expose a partial file, and
    /// a concurrently re-stored entry simply reappears (newest mtime)
    /// on the next write.
    pub fn gc(&self) -> usize {
        let rd = match std::fs::read_dir(&self.dir) {
            Ok(rd) => rd,
            Err(_) => return 0,
        };
        let mut entries: Vec<(std::time::SystemTime, u64, PathBuf)> = rd
            .filter_map(|e| e.ok())
            .filter(|e| {
                e.file_name()
                    .to_str()
                    .is_some_and(|n| n.starts_with("plan-") && n.ends_with(".bsp"))
            })
            .filter_map(|e| {
                let md = e.metadata().ok()?;
                let mtime = md.modified().ok()?;
                Some((mtime, md.len(), e.path()))
            })
            .collect();
        let mut total: u64 = entries.iter().map(|(_, len, _)| len).sum();
        if entries.len() <= self.max_entries && total <= self.max_bytes {
            return 0;
        }
        // Oldest first; path tie-breaks equal timestamps so eviction
        // order is deterministic on coarse-mtime filesystems.
        entries.sort_by(|a, b| (a.0, &a.2).cmp(&(b.0, &b.2)));
        let mut removed = 0usize;
        let mut keep = entries.len();
        for (_, len, path) in &entries {
            if keep <= self.max_entries && total <= self.max_bytes {
                break;
            }
            if std::fs::remove_file(path).is_ok() {
                removed += 1;
                keep -= 1;
                total = total.saturating_sub(*len);
            }
        }
        removed
    }

    /// How many entries the directory currently holds (bench reporting).
    pub fn entry_count(&self) -> usize {
        match std::fs::read_dir(&self.dir) {
            Ok(rd) => rd
                .filter_map(|e| e.ok())
                .filter(|e| {
                    e.file_name()
                        .to_str()
                        .is_some_and(|n| n.starts_with("plan-") && n.ends_with(".bsp"))
                })
                .count(),
            Err(_) => 0,
        }
    }
}

fn decode_file(text: &str, want_key: &str) -> PResult<(SearchReport, String)> {
    let top = parse_top(text)?;
    let [magic, version, key, entry, emit] = as_fixed::<5>(&top)?;
    if as_str(magic)? != "bernoulli-plan-cache" {
        return fail("bad magic");
    }
    if as_i64(version)? != FORMAT_VERSION {
        return fail("format version mismatch");
    }
    if as_str(key)? != want_key {
        return fail("key mismatch (hash collision or stale entry)");
    }
    Ok((dec_entry(entry)?, as_str(emit)?.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    // Round-trip of the raw value model; the full entry round-trip is
    // exercised end-to-end in `tests/service.rs` with real plans.
    #[test]
    fn value_model_round_trips() {
        let v = V::L(vec![
            V::I(-42),
            V::F((1.5f64).to_bits()),
            V::S("a \"quoted\"\nline with \\ slash — and unicode ∀".into()),
            V::L(vec![V::L(vec![]), V::I(7)]),
        ]);
        let mut s = String::new();
        write_v(&mut s, &v);
        let back = parse_top(&s);
        assert_eq!(back.ok().as_ref(), Some(&v));
    }

    fn fake_entry(dir: &Path, name: &str, bytes: usize) {
        assert!(std::fs::create_dir_all(dir).is_ok());
        assert!(std::fs::write(dir.join(name), "x".repeat(bytes)).is_ok());
        // Distinct mtimes even on coarse-granularity filesystems are not
        // guaranteed; gc tie-breaks by path, and the sleep orders the
        // common (fine-granularity) case.
        std::thread::sleep(std::time::Duration::from_millis(5));
    }

    #[test]
    fn gc_enforces_entry_cap_oldest_first() {
        let dir = std::env::temp_dir().join(format!("bernoulli-persist-gc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for i in 0..5 {
            fake_entry(&dir, &format!("plan-{i:016x}.bsp"), 10);
        }
        let cache = PersistentPlanCache::with_limits(&dir, 2, u64::MAX);
        assert_eq!(cache.gc(), 3);
        assert_eq!(cache.entry_count(), 2);
        // The two newest survive.
        assert!(dir.join("plan-0000000000000003.bsp").exists());
        assert!(dir.join("plan-0000000000000004.bsp").exists());
        // Within caps: a second sweep is a no-op.
        assert_eq!(cache.gc(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_enforces_byte_cap() {
        let dir =
            std::env::temp_dir().join(format!("bernoulli-persist-gcb-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for i in 0..4 {
            fake_entry(&dir, &format!("plan-{i:016x}.bsp"), 100);
        }
        // 400 bytes stored, cap 250 → evict the two oldest.
        let cache = PersistentPlanCache::with_limits(&dir, usize::MAX, 250);
        assert_eq!(cache.gc(), 2);
        assert_eq!(cache.entry_count(), 2);
        assert!(dir.join("plan-0000000000000003.bsp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gc_ignores_foreign_files() {
        let dir =
            std::env::temp_dir().join(format!("bernoulli-persist-gcf-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        fake_entry(&dir, "plan-00ff.bsp", 10);
        fake_entry(&dir, "README.txt", 10_000);
        let cache = PersistentPlanCache::with_limits(&dir, 1, 100);
        assert_eq!(cache.gc(), 0, "foreign files neither count nor die");
        assert!(dir.join("README.txt").exists());
        assert!(dir.join("plan-00ff.bsp").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupted_input_fails_cleanly() {
        for bad in [
            "",
            "(",
            "(\"unterminated",
            "(1 2) trailing",
            "fdeadbeef",                  // truncated float
            "(999999999999999999999999)", // integer overflow
            "\u{1}",
        ] {
            match parse_top(bad) {
                Err(e) => assert!(!e.message().is_empty(), "input {bad:?}"),
                Ok(v) => unreachable!("input {bad:?} must fail, parsed {v:?}"),
            }
        }
        // Deep nesting is rejected, not a stack overflow.
        let deep = "(".repeat(500) + &")".repeat(500);
        assert!(parse_top(&deep).is_err());
    }
}
