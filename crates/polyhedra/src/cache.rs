//! Memoization of the polyhedral decision procedures (S34).
//!
//! The synthesizer re-runs Fourier–Motzkin eliminations and emptiness /
//! implication tests on *structurally identical* constraint systems for
//! every (configuration, order, embedding) triple it examines — 37
//! triples for TS-on-JAD alone — and again for every repeated synthesis
//! request. This module gives [`System::is_empty`] and
//! [`eliminate_var`](crate::eliminate_var) a sharded memo cache,
//! [`PolyCaches`], which they read and fill through the [`Cx`](crate::Cx)
//! their caller hands them:
//!
//! - **Emptiness** is keyed by the [`CanonicalKey`] of the system —
//!   constraints gcd-normalized to primitive integer rows,
//!   sign-canonicalized equalities, sorted — so the cached answer is
//!   shared across constraint insertion orders, positive scalings and
//!   variable *renamings* (the key stores coefficients, not names).
//!   [`System::implies`] is memoized through the same cache, since it
//!   decides `self ∧ ¬c` emptiness.
//! - **FM elimination** is keyed by the exact constraint sequence plus
//!   the eliminated column, because the *order* of the resulting rows
//!   must be byte-identical to an uncached run (downstream guard
//!   simplification walks them in order). The cached value is the row
//!   set of the projected system; variable names are re-attached from
//!   the caller's system, so structurally identical systems over
//!   different index names still share one entry.
//!
//! Both caches are sharded 16 ways to keep the parallel search's
//! threads off each other's locks, capped per shard (a full shard is
//! simply cleared — memoization is an optimization, never a correctness
//! dependency), and counted by always-on atomics surfaced through
//! [`PolyCaches::stats`]; snapshots and clears are coherent against
//! concurrent compiles (no lookup is ever half-counted or split across
//! a clear).
//!
//! ## Who owns a memo (S38)
//!
//! A memo belongs to whoever constructs it: every `Session` owns a
//! private one, and every `Service` consults the process-wide
//! [`shared_tier`], so that concurrent compiles of structurally similar
//! programs amortize each other's polyhedral work. Pool fan-out needs no
//! help: the search hands the same `Cx` to every job.

use crate::system::{Constraint, ConstraintKind, System};
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

const NSHARDS: usize = 16;
/// Per-shard entry cap; a shard that fills up is cleared wholesale.
/// 16 shards × 4096 entries bounds each cache to ~64k systems.
const SHARD_CAP: usize = 4096;

/// One constraint as a hashable integer row:
/// `(kind, [(numer, denom); nvars], (cst numer, cst denom))`.
type Row = (u8, Vec<(i128, i128)>, (i128, i128));

/// Canonical, name-free form of a [`System`] — the emptiness cache key.
///
/// Two systems get equal keys iff they have the same variable count and
/// the same *set* of gcd-normalized constraints, regardless of the
/// order constraints were added in, of positive per-constraint scaling
/// (and sign for equalities), and of what the variables are called.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CanonicalKey {
    nvars: usize,
    rows: Vec<Row>,
}

fn raw_row(c: &Constraint) -> Row {
    let kind = match c.kind {
        ConstraintKind::Ge => 0u8,
        ConstraintKind::Eq => 1u8,
    };
    let coeffs = c
        .expr
        .coeffs
        .iter()
        .map(|r| (r.numer(), r.denom()))
        .collect();
    (kind, coeffs, (c.expr.cst.numer(), c.expr.cst.denom()))
}

fn canonical_row(c: &Constraint) -> Row {
    // `System::add` already normalizes rows to primitive integers, but
    // canonicalize defensively so keys never depend on how a system was
    // assembled.
    let mut e = c.expr.clone();
    e.normalize_primitive();
    if c.kind == ConstraintKind::Eq {
        // An equality is invariant under negation; fix the sign so the
        // first nonzero coefficient (or the constant) is positive.
        let lead = e
            .coeffs
            .iter()
            .find(|r| !r.is_zero())
            .copied()
            .unwrap_or(e.cst);
        if lead.is_negative() {
            for x in e.coeffs.iter_mut() {
                *x = -*x;
            }
            e.cst = -e.cst;
        }
    }
    raw_row(&Constraint {
        expr: e,
        kind: c.kind,
    })
}

/// Canonical cache key of a system (see [`CanonicalKey`]).
pub fn canonical_key(sys: &System) -> CanonicalKey {
    let mut rows: Vec<Row> = sys.constraints().iter().map(canonical_row).collect();
    rows.sort_unstable();
    rows.dedup();
    CanonicalKey {
        nvars: sys.num_vars(),
        rows,
    }
}

/// Exact-sequence key for one FM elimination: `(nvars, rows in system
/// order, eliminated column)`. Deliberately *not* sorted — the cached
/// result's row order must match what the uncached computation would
/// have produced for this input order.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub(crate) struct FmKey {
    nvars: usize,
    rows: Vec<Row>,
    j: usize,
}

pub(crate) fn fm_key(sys: &System, j: usize) -> FmKey {
    FmKey {
        nvars: sys.num_vars(),
        rows: sys.constraints().iter().map(raw_row).collect(),
        j,
    }
}

/// A hash-sharded memo map with always-on hit/miss accounting.
///
/// Coherence: every lookup/store holds the `gate` read lock for its
/// full duration (map operation *and* counter update), while `stats`
/// and `clear` take the write lock. A stats snapshot or a clear
/// therefore observes a quiescent point: no lookup is ever half-counted
/// (map consulted but counter not yet bumped, or vice versa), and a
/// clear returns counts that exactly cover the lookups completed before
/// it — lookups that start afterwards accrue to the fresh epoch. The
/// read lock is uncontended in steady state (one atomic op), so the hot
/// path stays cheap.
struct ShardedCache<K, V> {
    gate: RwLock<()>,
    shards: Vec<Mutex<HashMap<K, V>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash, V: Clone> ShardedCache<K, V> {
    fn new() -> ShardedCache<K, V> {
        ShardedCache {
            gate: RwLock::new(()),
            shards: (0..NSHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, k: &K) -> &Mutex<HashMap<K, V>> {
        let mut h = DefaultHasher::new();
        k.hash(&mut h);
        &self.shards[(h.finish() as usize) % NSHARDS]
    }

    /// Poison-tolerant lock: a panic mid-insert leaves at worst a
    /// missing memo entry, never a wrong one.
    fn lock<'a>(m: &'a Mutex<HashMap<K, V>>) -> std::sync::MutexGuard<'a, HashMap<K, V>> {
        match m.lock() {
            Ok(g) => g,
            Err(poison) => poison.into_inner(),
        }
    }

    fn read_gate(&self) -> std::sync::RwLockReadGuard<'_, ()> {
        match self.gate.read() {
            Ok(g) => g,
            Err(poison) => poison.into_inner(),
        }
    }

    fn write_gate(&self) -> std::sync::RwLockWriteGuard<'_, ()> {
        match self.gate.write() {
            Ok(g) => g,
            Err(poison) => poison.into_inner(),
        }
    }

    fn lookup(&self, k: &K) -> Option<V> {
        let _coherent = self.read_gate();
        let got = Self::lock(self.shard(k)).get(k).cloned();
        match got {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    fn store(&self, k: K, v: V) {
        let _coherent = self.read_gate();
        let mut g = Self::lock(self.shard(&k));
        if g.len() >= SHARD_CAP {
            g.clear();
        }
        g.insert(k, v);
    }

    /// Drops every entry, zeroes the counters, and returns the counts
    /// that were accumulated up to this coherent point.
    fn clear(&self) -> (u64, u64) {
        let _coherent = self.write_gate();
        for s in &self.shards {
            Self::lock(s).clear();
        }
        (
            self.hits.swap(0, Ordering::Relaxed),
            self.misses.swap(0, Ordering::Relaxed),
        )
    }

    fn counts(&self) -> (u64, u64) {
        let _coherent = self.write_gate();
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// One compile's (or the whole process's) worth of polyhedral memo
/// state: the emptiness cache and the FM-elimination cache, with their
/// hit/miss accounting. The decision procedures consult the one their
/// [`Cx`](crate::Cx) names. Memoization is pure — whichever instance is
/// consulted, results are identical; only hit rates differ.
pub struct PolyCaches {
    empty: ShardedCache<CanonicalKey, bool>,
    fm: ShardedCache<FmKey, Vec<Constraint>>,
}

impl PolyCaches {
    /// A fresh, empty pair of memo caches.
    pub fn new() -> PolyCaches {
        PolyCaches {
            empty: ShardedCache::new(),
            fm: ShardedCache::new(),
        }
    }

    /// Hit/miss totals accumulated by *this* instance. Each cache's
    /// (hits, misses) pair is snapshotted at a coherent point — no
    /// in-flight lookup is half-counted — though the emptiness and FM
    /// pairs are two separate snapshots.
    pub fn stats(&self) -> CacheStats {
        let (eh, em) = self.empty.counts();
        let (fh, fm) = self.fm.counts();
        CacheStats {
            empty_hits: eh,
            empty_misses: em,
            fm_hits: fh,
            fm_misses: fm,
        }
    }

    /// Drops every memoized result, zeroes this instance's counts, and
    /// returns the counts accumulated up to the clear. Lookups racing
    /// with the clear are attributed to exactly one side: the returned
    /// snapshot or the fresh epoch, never both, never neither.
    pub fn clear(&self) -> CacheStats {
        let (eh, em) = self.empty.clear();
        let (fh, fm) = self.fm.clear();
        CacheStats {
            empty_hits: eh,
            empty_misses: em,
            fm_hits: fh,
            fm_misses: fm,
        }
    }

    pub(crate) fn empty_lookup(&self, k: &CanonicalKey) -> Option<bool> {
        self.empty.lookup(k)
    }

    pub(crate) fn empty_store(&self, k: CanonicalKey, v: bool) {
        self.empty.store(k, v);
    }

    pub(crate) fn fm_lookup(&self, k: &FmKey) -> Option<Vec<Constraint>> {
        self.fm.lookup(k)
    }

    pub(crate) fn fm_store(&self, k: FmKey, v: Vec<Constraint>) {
        self.fm.store(k, v);
    }
}

impl Default for PolyCaches {
    fn default() -> Self {
        PolyCaches::new()
    }
}

/// The process-wide memo every `Service` consults. Concurrently
/// readable by design — lookups take one shard mutex plus an
/// uncontended read gate.
pub fn shared_tier() -> &'static Arc<PolyCaches> {
    static TIER: OnceLock<Arc<PolyCaches>> = OnceLock::new();
    TIER.get_or_init(|| Arc::new(PolyCaches::new()))
}

/// Clears the [`shared_tier`]: [`PolyCaches::clear`] on it.
pub fn clear_caches() -> CacheStats {
    shared_tier().clear()
}

/// Hit/miss totals of one [`PolyCaches`] since it was made (or last
/// cleared).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    pub empty_hits: u64,
    pub empty_misses: u64,
    pub fm_hits: u64,
    pub fm_misses: u64,
}

impl CacheStats {
    /// Hit fraction of the emptiness cache (0 when unused).
    pub fn empty_hit_rate(&self) -> f64 {
        let total = self.empty_hits + self.empty_misses;
        if total == 0 {
            0.0
        } else {
            self.empty_hits as f64 / total as f64
        }
    }

    /// Hit fraction of the FM-elimination cache (0 when unused).
    pub fn fm_hit_rate(&self) -> f64 {
        let total = self.fm_hits + self.fm_misses;
        if total == 0 {
            0.0
        } else {
            self.fm_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Cx, LinExpr};
    use bernoulli_numeric::Rational;

    fn names(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    /// 0 <= i <= 9, i <= j, built with `add` calls in the given order.
    fn box_sys(order: &[usize]) -> System {
        let mut s = System::new(names(&["i", "j"]));
        let i = LinExpr::var(2, 0);
        let j = LinExpr::var(2, 1);
        let cons = [
            Constraint::ge0(i.clone()),
            Constraint::ge0(&LinExpr::constant(2, 9) - &i),
            Constraint::ge0(&j - &i),
        ];
        for &k in order {
            s.add(cons[k].clone());
        }
        s
    }

    #[test]
    fn key_invariant_under_constraint_permutation() {
        let a = box_sys(&[0, 1, 2]);
        let b = box_sys(&[2, 0, 1]);
        let c = box_sys(&[1, 2, 0]);
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert_eq!(a.canonical_key(), c.canonical_key());
    }

    #[test]
    fn key_invariant_under_scaling() {
        // 2i - 4 >= 0 normalizes to i - 2 >= 0.
        let mut a = System::new(names(&["i"]));
        let two_i = &LinExpr::var(1, 0) * Rational::int(2);
        a.add(Constraint::ge0(&two_i - &LinExpr::constant(1, 4)));
        let mut b = System::new(names(&["i"]));
        b.add(Constraint::ge0(
            &LinExpr::var(1, 0) - &LinExpr::constant(1, 2),
        ));
        assert_eq!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn key_invariant_under_equality_negation() {
        // i - j = 0 and j - i = 0 are the same constraint.
        let mut a = System::new(names(&["i", "j"]));
        a.add(Constraint::eq0(&LinExpr::var(2, 0) - &LinExpr::var(2, 1)));
        let mut b = System::new(names(&["i", "j"]));
        b.add(Constraint::eq0(&LinExpr::var(2, 1) - &LinExpr::var(2, 0)));
        assert_eq!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn key_invariant_under_variable_renaming_only() {
        let a = box_sys(&[0, 1, 2]);
        let mut b = System::new(names(&["p", "q"]));
        let p = LinExpr::var(2, 0);
        let q = LinExpr::var(2, 1);
        b.add(Constraint::ge0(p.clone()));
        b.add(Constraint::ge0(&LinExpr::constant(2, 9) - &p));
        b.add(Constraint::ge0(&q - &p));
        assert_eq!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn distinct_systems_get_distinct_keys() {
        let a = box_sys(&[0, 1, 2]);
        let mut b = box_sys(&[0, 1, 2]);
        b.add(Constraint::ge0(
            &LinExpr::constant(2, 100) - &LinExpr::var(2, 1),
        ));
        assert_ne!(a.canonical_key(), b.canonical_key());
        // A >= constraint is not the same as its equality counterpart.
        let mut c = System::new(names(&["i"]));
        c.add(Constraint::ge0(LinExpr::var(1, 0)));
        let mut d = System::new(names(&["i"]));
        d.add(Constraint::eq0(LinExpr::var(1, 0)));
        assert_ne!(c.canonical_key(), d.canonical_key());
    }

    #[test]
    fn memoized_emptiness_matches_fresh_and_counts_hits() {
        let memo = PolyCaches::new();
        let cx = Cx::new(&memo);
        let mut nonempty = box_sys(&[0, 1, 2]);
        assert!(!nonempty.is_empty(cx));
        let base = memo.stats();
        assert_eq!((base.empty_hits, base.empty_misses), (0, 1), "{base:?}");
        // Same constraints, different insertion order and names: the
        // second query must hit the entry the first one populated.
        let mut renamed = System::new(names(&["a", "b"]));
        let a = LinExpr::var(2, 0);
        let b = LinExpr::var(2, 1);
        renamed.add(Constraint::ge0(&b - &a));
        renamed.add(Constraint::ge0(a.clone()));
        renamed.add(Constraint::ge0(&LinExpr::constant(2, 9) - &a));
        assert!(!renamed.is_empty(cx));
        let after = memo.stats();
        assert_eq!((after.empty_hits, after.empty_misses), (1, 1), "{after:?}");

        // A genuinely different (empty) system misses, then hits, and the
        // memoized verdict matches the fresh one.
        nonempty.add(Constraint::ge0(
            &LinExpr::var(2, 0) - &LinExpr::constant(2, 50),
        ));
        assert!(nonempty.is_empty(cx));
        assert!(nonempty.is_empty(cx));
        let fin = memo.stats();
        assert_eq!((fin.empty_hits, fin.empty_misses), (2, 2), "{fin:?}");
        assert_eq!(fin.empty_hit_rate(), 0.5);
    }

    #[test]
    fn clear_resets_stats() {
        let memo = PolyCaches::new();
        let cx = Cx::new(&memo);
        let s = box_sys(&[0, 1, 2]);
        assert!(!s.is_empty(cx));
        assert!(!s.is_empty(cx));
        memo.clear();
        assert_eq!(memo.stats(), CacheStats::default());
        // Rebuilding from zero: the identical query misses again.
        assert!(!s.is_empty(cx));
        let after = memo.stats();
        assert_eq!((after.empty_hits, after.empty_misses), (0, 1), "{after:?}");
    }

    #[test]
    fn clear_returns_dropped_counts() {
        let memo = PolyCaches::new();
        let cx = Cx::new(&memo);
        let s = box_sys(&[0, 1, 2]);
        assert!(!s.is_empty(cx)); // miss + store
        assert!(!s.is_empty(cx)); // hit
        let dropped = memo.clear();
        assert_eq!(
            (dropped.empty_hits, dropped.empty_misses),
            (1, 1),
            "{dropped:?}"
        );
        let now = memo.stats();
        assert_eq!(now, CacheStats::default(), "{now:?}");
    }

    /// The satellite fix: stats snapshots and clears taken while other
    /// threads compile must be coherent. Worker threads hammer one
    /// instance with lookups/stores while the main thread repeatedly
    /// clears it; every completed lookup must be accounted exactly once
    /// — in some clear's returned snapshot or in the final stats.
    #[test]
    fn clear_and_stats_are_coherent_under_concurrent_lookups() {
        use std::sync::atomic::AtomicBool;
        const THREADS: usize = 4;
        const ITERS: usize = 3_000;

        let caches = Arc::new(PolyCaches::new());
        let stop = Arc::new(AtomicBool::new(false));
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let caches = Arc::clone(&caches);
                std::thread::spawn(move || {
                    for i in 0..ITERS {
                        let key = CanonicalKey {
                            nvars: 1,
                            rows: vec![(0, vec![(1, 1)], ((t * ITERS + i % 64) as i128, 1))],
                        };
                        caches.empty_store(key.clone(), true);
                        let _ = caches.empty_lookup(&key);
                    }
                    ITERS as u64 // completed lookups on this thread
                })
            })
            .collect();

        // Concurrently clear while the workers run, accumulating the
        // returned snapshots.
        let mut accounted = 0u64;
        while !stop.load(Ordering::Relaxed) {
            let dropped = caches.clear();
            accounted += dropped.empty_hits + dropped.empty_misses;
            if workers.iter().all(|w| w.is_finished()) {
                stop.store(true, Ordering::Relaxed);
            }
            std::thread::yield_now();
        }
        let performed: u64 = workers
            .into_iter()
            .map(|w| w.join().unwrap_or_else(|_| unreachable!("worker panicked")))
            .sum();
        let fin = caches.stats();
        accounted += fin.empty_hits + fin.empty_misses;
        assert_eq!(
            accounted, performed,
            "every lookup must be counted exactly once across clears"
        );
    }

    #[test]
    fn fm_cache_returns_byte_identical_systems() {
        let memo = PolyCaches::new();
        let cx = Cx::new(&memo);
        let s = box_sys(&[0, 1, 2]);
        let cold = crate::eliminate_var(cx, &s, 0);
        let base = memo.stats();
        assert_eq!((base.fm_hits, base.fm_misses), (0, 1), "{base:?}");
        let warm = crate::eliminate_var(cx, &s, 0);
        assert_eq!(cold, warm);
        assert_eq!(cold.vars(), warm.vars());
        let stats = memo.stats();
        assert_eq!(
            (stats.fm_hits, stats.fm_misses),
            (1, 1),
            "second elimination must hit: {base:?} -> {stats:?}"
        );
        assert_eq!(stats.fm_hit_rate(), 0.5);
    }
}
