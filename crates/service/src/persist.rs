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
//! S-expression: `("bernoulli-plan-cache" <version> <key> <entry>)`.
//! The serializer is hand-rolled (the workspace builds offline, no
//! serde): integers are decimal, `f64`s are written as `f`+16 hex
//! digits of their bit pattern (exact round-trip, NaN-safe), strings
//! are quoted with `\`-escapes, and every struct/enum is a positional
//! (sometimes tagged) list. Each type's place in the text is described
//! once, by its `Wire` implementation below, and both directions are
//! read off that description. Nothing derived from the plans is stored:
//! a warm-started service emits from the plans it read.
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

use crate::search::CachedSearch;
use bernoulli_ir::{AffineExpr, LhsRef, Statement, ValueExpr};
use bernoulli_synth::plan::{Atom, Dir, Edge, EdgeBound, ExecStmt, Guard, LevelRef, PExpr, Plan};
use bernoulli_synth::plan::{PlanRef, SearchPart, Step, StepKind, ValueSource};
use bernoulli_synth::{Candidate, SearchReport};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

const MAGIC: &str = "bernoulli-plan-cache";

/// Bumped whenever the on-disk layout changes, or what lowering
/// produces for a key does (a restarted service would keep serving the
/// old plans); older files are treated as misses and eventually
/// overwritten. 3: the entry no longer ends with the emitted module.
const FORMAT_VERSION: i64 = 3;

/// Nesting guard: a corrupted file must fail cleanly, not overflow the
/// stack, so the reader refuses a value inside more lists than this —
/// and the writer, which counts the same way, reports when it wrote
/// one. Real plans nest a few levels deep at most.
const MAX_DEPTH: usize = 96;

// ---------------------------------------------------------------------
// The text layer: tokens of the S-expression, written and read in place
// ---------------------------------------------------------------------

/// Writes the tokens of one S-expression: items of a list are separated
/// by one space.
struct Writer {
    out: String,
    /// Lists open around the next value.
    depth: usize,
    /// Some value sat deeper than [`MAX_DEPTH`]: the reader would
    /// refuse the text.
    too_deep: bool,
}

impl Writer {
    fn new() -> Writer {
        Writer {
            out: String::with_capacity(4096),
            depth: 0,
            too_deep: false,
        }
    }

    /// Before every value: the separator, and the reader's depth check.
    fn token(&mut self) {
        if !(self.out.is_empty() || self.out.ends_with('(')) {
            self.out.push(' ');
        }
        self.too_deep |= self.depth > MAX_DEPTH;
    }

    /// `(`, what `items` writes, `)`.
    fn list(&mut self, items: impl FnOnce(&mut Writer)) {
        self.token();
        self.out.push('(');
        self.depth += 1;
        items(self);
        self.depth -= 1;
        self.out.push(')');
    }

    fn int(&mut self, i: i64) {
        self.token();
        self.out.push_str(&i.to_string());
    }

    /// By bit pattern: exact, and a `NaN` survives.
    fn float(&mut self, x: f64) {
        self.token();
        self.out.push_str(&format!("f{:016x}", x.to_bits()));
    }

    fn string(&mut self, s: &str) {
        self.token();
        self.out.push('"');
        for c in s.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                '\n' => self.out.push_str("\\n"),
                _ => self.out.push(c),
            }
        }
        self.out.push('"');
    }

    /// The text, unless the reader would refuse it for its nesting.
    fn finish(self) -> Option<String> {
        (!self.too_deep).then_some(self.out)
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

/// Reads the tokens [`Writer`] writes; the first failure ends the read.
struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Lists open around the next value.
    depth: usize,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Reader<'a> {
        Reader {
            text,
            pos: 0,
            depth: 0,
        }
    }

    /// The next byte that is not white space.
    fn peek(&mut self) -> Option<u8> {
        let bytes = self.text.as_bytes();
        while bytes.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
        bytes.get(self.pos).copied()
    }

    /// The first byte of the next value, once it is known to sit no
    /// deeper than [`MAX_DEPTH`].
    fn token(&mut self) -> PResult<Option<u8>> {
        if self.depth > MAX_DEPTH {
            return fail("nesting too deep");
        }
        Ok(self.peek())
    }

    fn expected<T>(&self, what: &str, got: Option<u8>) -> PResult<T> {
        match got {
            Some(b')') => fail(format!("expected {what}, got the end of the list")),
            Some(c) => fail(format!("expected {what} at byte {}, got {c:#x}", self.pos)),
            None => fail(format!("expected {what}, got the end of the input")),
        }
    }

    /// `(`, what `items` reads, `)` — and nothing left over before it.
    fn list<T>(&mut self, items: impl FnOnce(&mut Self) -> PResult<T>) -> PResult<T> {
        match self.token()? {
            Some(b'(') => self.pos += 1,
            other => return self.expected("list", other),
        }
        self.depth += 1;
        let value = items(self)?;
        if self.more()? {
            return fail(format!("surplus item in a list at byte {}", self.pos));
        }
        self.depth -= 1;
        self.pos += 1;
        Ok(value)
    }

    /// Inside a list: is there another item before its `)`?
    fn more(&mut self) -> PResult<bool> {
        match self.peek() {
            Some(b')') => Ok(false),
            Some(_) => Ok(true),
            None => fail("unterminated list"),
        }
    }

    fn int(&mut self) -> PResult<i64> {
        let bytes = self.text.as_bytes();
        match self.token()? {
            Some(c) if c == b'-' || c.is_ascii_digit() => {
                let mut end = self.pos + 1;
                while bytes.get(end).is_some_and(u8::is_ascii_digit) {
                    end += 1;
                }
                match self.text[self.pos..end].parse::<i64>() {
                    Ok(i) => {
                        self.pos = end;
                        Ok(i)
                    }
                    Err(_) => fail("bad integer"),
                }
            }
            other => self.expected("int", other),
        }
    }

    /// `f` and the sixteen hex digits of the bit pattern.
    fn float(&mut self) -> PResult<f64> {
        match self.token()? {
            Some(b'f') => {
                let hex = match self.text.get(self.pos + 1..self.pos + 17) {
                    Some(hex) => hex,
                    None => return fail("truncated float"),
                };
                match u64::from_str_radix(hex, 16) {
                    Ok(bits) => {
                        self.pos += 17;
                        Ok(f64::from_bits(bits))
                    }
                    Err(_) => fail("bad float hex"),
                }
            }
            other => self.expected("float", other),
        }
    }

    fn string(&mut self) -> PResult<String> {
        match self.token()? {
            Some(b'"') => {}
            other => return self.expected("string", other),
        }
        let mut s = String::new();
        let mut at = self.pos + 1;
        loop {
            // `"` and `\` are ASCII: every cut is on a char boundary.
            let rest = &self.text[at..];
            let run = match rest.find(['"', '\\']) {
                Some(run) => run,
                None => return fail("unterminated string"),
            };
            s.push_str(&rest[..run]);
            at += run + 1;
            if rest.as_bytes()[run] == b'"' {
                self.pos = at;
                return Ok(s);
            }
            match self.text.as_bytes().get(at) {
                Some(b'"') => s.push('"'),
                Some(b'\\') => s.push('\\'),
                Some(b'n') => s.push('\n'),
                _ => return fail("bad escape"),
            }
            at += 1;
        }
    }

    /// The end of the input, once the top-level value has been read.
    fn finish(mut self) -> PResult<()> {
        match self.peek() {
            None => Ok(()),
            Some(_) => fail("trailing garbage after top-level value"),
        }
    }
}

// ---------------------------------------------------------------------
// One description per type: what `put` writes, `get` reads
// ---------------------------------------------------------------------

/// A type with a place in the entry text. `get` accepts exactly what
/// `put` writes: a list with an item missing or left over, a number out
/// of the type's range, a tag no variant has — each is an error.
trait Wire: Sized {
    fn put(&self, w: &mut Writer);
    fn get(r: &mut Reader<'_>) -> PResult<Self>;
}

impl Wire for i64 {
    fn put(&self, w: &mut Writer) {
        w.int(*self);
    }
    fn get(r: &mut Reader<'_>) -> PResult<i64> {
        r.int()
    }
}

impl Wire for usize {
    fn put(&self, w: &mut Writer) {
        w.int(*self as i64);
    }
    fn get(r: &mut Reader<'_>) -> PResult<usize> {
        let i = r.int()?;
        usize::try_from(i).map_err(|_| ParseFail(format!("expected usize, got {i}")))
    }
}

impl Wire for bool {
    fn put(&self, w: &mut Writer) {
        w.int(i64::from(*self));
    }
    fn get(r: &mut Reader<'_>) -> PResult<bool> {
        match r.int()? {
            0 => Ok(false),
            1 => Ok(true),
            other => fail(format!("expected bool 0/1, got {other}")),
        }
    }
}

impl Wire for f64 {
    fn put(&self, w: &mut Writer) {
        w.float(*self);
    }
    fn get(r: &mut Reader<'_>) -> PResult<f64> {
        r.float()
    }
}

impl Wire for String {
    fn put(&self, w: &mut Writer) {
        w.string(self);
    }
    fn get(r: &mut Reader<'_>) -> PResult<String> {
        r.string()
    }
}

impl<T: Wire> Wire for Box<T> {
    fn put(&self, w: &mut Writer) {
        (**self).put(w);
    }
    fn get(r: &mut Reader<'_>) -> PResult<Box<T>> {
        T::get(r).map(Box::new)
    }
}

fn put_list<T: Wire>(items: &[T], w: &mut Writer) {
    w.list(|w| items.iter().for_each(|item| item.put(w)));
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut Writer) {
        put_list(self, w);
    }
    fn get(r: &mut Reader<'_>) -> PResult<Vec<T>> {
        r.list(|r| {
            let mut items = Vec::new();
            while r.more()? {
                items.push(T::get(r)?);
            }
            Ok(items)
        })
    }
}

/// `()` or `(x)`.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut Writer) {
        put_list(self.as_slice(), w);
    }
    fn get(r: &mut Reader<'_>) -> PResult<Option<T>> {
        r.list(|r| Ok(if r.more()? { Some(T::get(r)?) } else { None }))
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, w: &mut Writer) {
        w.list(|w| {
            self.0.put(w);
            self.1.put(w);
        });
    }
    fn get(r: &mut Reader<'_>) -> PResult<(A, B)> {
        r.list(|r| Ok((A::get(r)?, B::get(r)?)))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put(&self, w: &mut Writer) {
        w.list(|w| {
            self.0.put(w);
            self.1.put(w);
            self.2.put(w);
        });
    }
    fn get(r: &mut Reader<'_>) -> PResult<(A, B, C)> {
        r.list(|r| Ok((A::get(r)?, B::get(r)?, C::get(r)?)))
    }
}

/// A struct is the list of its fields, in the order given here. `put`
/// destructures without `..`: a field this list does not name, or names
/// wrongly, does not compile.
macro_rules! wire_struct {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl Wire for $ty {
            fn put(&self, w: &mut Writer) {
                let $ty { $($field),* } = self;
                w.list(|w| { $($field.put(w);)* });
            }
            fn get(r: &mut Reader<'_>) -> PResult<$ty> {
                r.list(|r| Ok($ty { $($field: Wire::get(r)?),* }))
            }
        }
    };
}

/// An enum is `("tag" field ..)`: one row per variant, its fields named
/// in the variant's own syntax (`V(a, b)` or `V { a, b }`), which is
/// both the pattern `put` matches and the expression `get` builds.
macro_rules! wire_enum {
    ($ty:ident { $($tag:literal => $variant:ident $fields:tt),* $(,)? }) => {
        impl Wire for $ty {
            fn put(&self, w: &mut Writer) {
                w.list(|w| match self {
                    $($ty::$variant $fields => {
                        w.string($tag);
                        wire_enum!(@put w $fields);
                    })*
                });
            }
            fn get(r: &mut Reader<'_>) -> PResult<$ty> {
                r.list(|r| match r.string()?.as_str() {
                    $($tag => {
                        wire_enum!(@get r $fields);
                        Ok($ty::$variant $fields)
                    })*
                    other => fail(format!("unknown {} tag {other:?}", stringify!($ty))),
                })
            }
        }
    };
    (@put $w:ident ($($field:ident),*)) => { $($field.put($w);)* };
    (@put $w:ident {$($field:ident),*}) => { $($field.put($w);)* };
    (@get $r:ident ($($field:ident),*)) => { $(let $field = Wire::get($r)?;)* };
    (@get $r:ident {$($field:ident),*}) => { $(let $field = Wire::get($r)?;)* };
}

/// A field-less enum is the number given to each variant.
macro_rules! wire_flags {
    ($ty:ident { $($variant:ident = $n:literal),* $(,)? }) => {
        impl Wire for $ty {
            fn put(&self, w: &mut Writer) {
                w.int(match self { $($ty::$variant => $n),* });
            }
            fn get(r: &mut Reader<'_>) -> PResult<$ty> {
                match r.int()? {
                    $($n => Ok($ty::$variant),)*
                    other => fail(format!("bad {} {other}", stringify!($ty))),
                }
            }
        }
    };
}

wire_enum! { Atom { "s" => Slot(i), "v" => Var(name) } }
wire_struct! { PExpr { terms, cst } }
wire_struct! { LevelRef { matrix, ref_id, chain, level } }
wire_struct! { SearchPart { target, keys, sharers } }
wire_enum! { StepKind {
    "iv" => Interval { lo, hi },
    "lv" => Level { primary, perms },
    "mj" => MergeJoin { a, b },
} }
wire_flags! { Dir { Fwd = 0, Rev = 1 } }
wire_flags! { Edge { First = 0, Last = 1 } }
wire_struct! { EdgeBound { edge, pivot } }
wire_struct! { Step {
    kind, dir, ordered, edge_bound, first_slot, nslots, sharers, searches, binds
} }
wire_enum! { Guard { "eq" => Eq(e), "ge" => Ge(e), "dv" => Divides(e, d) } }
wire_enum! { ValueSource { "pos" => Position { ref_id }, "rnd" => Random { ref_id } } }
wire_struct! { LhsRef { array, idxs } }
wire_enum! { ValueExpr {
    "c" => Const(c),
    "r" => Read(l),
    "+" => Add(a, b),
    "-" => Sub(a, b),
    "*" => Mul(a, b),
    "/" => Div(a, b),
    "n" => Neg(a),
} }
wire_struct! { Statement { lhs, rhs } }
wire_struct! { ExecStmt {
    stmt, orig, body, bindings, guards, sources, required_refs, depth, after
} }
wire_struct! { PlanRef { matrix, chain, levels, access } }
wire_struct! { Plan { steps, execs, refs, space_desc, nslots, notes } }
wire_struct! { Candidate { plan, cost, choices, safety_notes } }

/// `(((name coefficient) ..) constant)`; the terms are private to `ir`.
impl Wire for AffineExpr {
    fn put(&self, w: &mut Writer) {
        let terms: Vec<(String, i64)> = self.terms().map(|(n, c)| (n.to_string(), c)).collect();
        (terms, self.cst()).put(w);
    }
    fn get(r: &mut Reader<'_>) -> PResult<AffineExpr> {
        let (terms, cst) = <(Vec<(String, i64)>, i64)>::get(r)?;
        let terms: Vec<(&str, i64)> = terms.iter().map(|(n, c)| (n.as_str(), *c)).collect();
        Ok(AffineExpr::from_terms(&terms, cst))
    }
}

/// What is stored of a search — only ones that ran to completion are,
/// so the rest of the report is what a complete search leaves it at.
impl Wire for SearchReport {
    fn put(&self, w: &mut Writer) {
        w.list(|w| {
            put_list(&self.candidates, w);
            self.examined.put(w);
            self.pruned.put(w);
            put_list(&self.reasons, w);
        });
    }
    fn get(r: &mut Reader<'_>) -> PResult<SearchReport> {
        r.list(|r| {
            Ok(SearchReport {
                candidates: Vec::get(r)?.into(),
                examined: Wire::get(r)?,
                pruned: Wire::get(r)?,
                reasons: Vec::get(r)?.into(),
                plan_cache_hit: false,
                plan_cache_disk_hit: false,
                degraded: false,
                budget: None,
                skipped_configs: 0,
            })
        })
    }
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
            return self.rejected("injected fault at persist.read (chaos test)");
        }
        let text = match std::fs::read_to_string(self.path_for(key)) {
            Ok(t) => t,
            Err(_) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        match decode_file(&text, key) {
            Ok(entry) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry)
            }
            Err(e) => self.rejected(e.message()),
        }
    }

    /// A load that found something and refused it: counted, explained,
    /// and a miss.
    fn rejected(&self, why: &str) -> Option<SearchReport> {
        self.errors.fetch_add(1, Ordering::Relaxed);
        *self.last_error.lock().unwrap_or_else(|p| p.into_inner()) = Some(why.to_string());
        None
    }

    /// Persists a completed (never degraded) search under its key.
    /// Failures are swallowed — a read-only or full disk degrades the
    /// warm-start, never the compile.
    pub(crate) fn store(&self, entry: &CachedSearch) {
        let key = &entry.key;
        // An entry the reader would refuse is not written: every later
        // process would count an error, search, and write it again.
        let Some(out) = encode_file(key, &entry.report) else {
            return;
        };
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
        let mut entries: Vec<(std::time::SystemTime, u64, PathBuf)> = self
            .entries()
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
        self.entries().count()
    }

    /// The directory's `plan-*.bsp` files (none if it cannot be read).
    fn entries(&self) -> impl Iterator<Item = std::fs::DirEntry> {
        let is_entry = |name: &str| name.starts_with("plan-") && name.ends_with(".bsp");
        std::fs::read_dir(&self.dir)
            .into_iter()
            .flatten()
            .filter_map(|e| e.ok())
            .filter(move |e| e.file_name().to_str().is_some_and(is_entry))
    }
}

/// The file of one entry, unless the reader would refuse it for its
/// nesting.
fn encode_file(key: &str, report: &SearchReport) -> Option<String> {
    let mut w = Writer::new();
    w.list(|w| {
        w.string(MAGIC);
        w.int(FORMAT_VERSION);
        w.string(key);
        report.put(w);
    });
    w.finish()
}

fn decode_file(text: &str, want_key: &str) -> PResult<SearchReport> {
    let mut r = Reader::new(text);
    let entry = r.list(|r| {
        if r.string()? != MAGIC {
            return fail("bad magic");
        }
        if r.int()? != FORMAT_VERSION {
            return fail("format version mismatch");
        }
        if r.string()? != want_key {
            return fail("key mismatch (hash collision or stale entry)");
        }
        SearchReport::get(r)
    })?;
    r.finish()?;
    Ok(entry)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn text_of(value: &impl Wire) -> Option<String> {
        let mut w = Writer::new();
        value.put(&mut w);
        w.finish()
    }

    fn parse<T: Wire>(text: &str) -> PResult<T> {
        let mut r = Reader::new(text);
        let value = T::get(&mut r)?;
        r.finish()?;
        Ok(value)
    }

    /// Lists of lists around a number or an empty list, as deep as a
    /// test likes.
    #[derive(Debug, PartialEq)]
    enum Nest {
        Leaf(i64),
        List(Vec<Nest>),
    }

    impl Wire for Nest {
        fn put(&self, w: &mut Writer) {
            match self {
                Nest::Leaf(i) => i.put(w),
                Nest::List(items) => items.put(w),
            }
        }
        fn get(r: &mut Reader<'_>) -> PResult<Nest> {
            match r.token()? {
                Some(b'(') => Vec::get(r).map(Nest::List),
                _ => i64::get(r).map(Nest::Leaf),
            }
        }
    }

    fn nest(depth: usize, core: Nest) -> Nest {
        (0..depth).fold(core, |inner, _| Nest::List(vec![inner]))
    }

    // Round trip of the text layer; the full entry round trip runs in
    // `persist_tests.rs` and `tests/service.rs` with real plans.
    #[test]
    fn value_model_round_trips() {
        type Value = (
            (i64, f64, String),
            Vec<(Option<usize>, bool)>,
            Box<Vec<Nest>>,
        );
        let value: Value = (
            (
                -42,
                1.5,
                "a \"quoted\"\nline with \\ slash — and unicode ∀".into(),
            ),
            vec![(None, false), (Some(7), true)],
            Box::new(vec![
                nest(0, Nest::Leaf(3)),
                nest(2, Nest::List(Vec::new())),
            ]),
        );
        let text = text_of(&value).unwrap_or_default();
        assert_eq!(
            text,
            "((-42 f3ff8000000000000 \"a \\\"quoted\\\"\\nline with \\\\ slash — and unicode ∀\") \
             ((() 0) ((7) 1)) (3 ((()))))"
        );
        assert_eq!(parse::<Value>(&text).ok(), Some(value));
        let nan = parse::<f64>(&text_of(&f64::NAN).unwrap_or_default());
        assert_eq!(nan.ok().map(f64::to_bits), Some(f64::NAN.to_bits()));
    }

    /// The writer and the reader draw the line at the same nesting: a
    /// value, list or not, may sit inside [`MAX_DEPTH`] lists.
    #[test]
    fn the_writer_refuses_what_the_reader_would() {
        let cores: [(fn() -> Nest, &str); 2] =
            [(|| Nest::Leaf(7), "7"), (|| Nest::List(Vec::new()), "()")];
        for (core, core_text) in cores {
            for depth in [0, 1, MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1, 500] {
                let text = "(".repeat(depth) + core_text + &")".repeat(depth);
                let read = parse::<Nest>(&text).ok();
                assert_eq!(read.is_some(), depth <= MAX_DEPTH, "{core_text} in {depth}");
                let written = text_of(&nest(depth, core()));
                assert_eq!(written, read.map(|_| text), "{core_text} in {depth}");
            }
        }
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
        fn fails<T: Wire + std::fmt::Debug>(bad: &str) {
            match parse::<T>(bad) {
                Err(e) => assert!(!e.message().is_empty(), "input {bad:?}"),
                Ok(v) => unreachable!("input {bad:?} must fail, parsed {v:?}"),
            }
        }
        fails::<Nest>("");
        fails::<Nest>("(");
        fails::<Vec<String>>("(\"unterminated");
        fails::<Vec<i64>>("(1 2) trailing");
        fails::<f64>("fdeadbeef"); // truncated float
        fails::<Vec<i64>>("(999999999999999999999999)"); // integer overflow
        fails::<i64>("\u{1}");
        // Each in every other type's place, too.
        for bad in [
            "",
            "(",
            "(\"unterminated",
            "(1 2) trailing",
            "fdeadbeef",
            "\u{1}",
        ] {
            fails::<(i64, f64, String)>(bad);
            fails::<Vec<(Option<usize>, bool)>>(bad);
            assert!(decode_file(bad, "key").is_err(), "input {bad:?}");
        }
        // Deep nesting is rejected, not a stack overflow.
        let deep = "(".repeat(500) + &")".repeat(500);
        fails::<Nest>(&deep);
        assert!(decode_file(&deep, "key").is_err());
    }
}

#[cfg(test)]
#[path = "persist_tests.rs"]
mod persist_tests;
