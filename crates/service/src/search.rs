//! The search as the driver runs it: a request is answered by the
//! in-memory plan cache, else by the persistent tier, else by the
//! paper's search ([`bernoulli_synth::search::search`]) over the
//! dependence classes this cache keeps per program.

use crate::compiled::NativeCell;
use crate::persist::PersistentPlanCache;
use bernoulli_formats::view::FormatView;
use bernoulli_govern::Budget;
use bernoulli_ir::{analyze, DepClass, Program};
use bernoulli_polyhedra::{Cx, PolyCaches};
use bernoulli_pool::Pool;
use bernoulli_synth::bind::{bind_problem, problem_fingerprint, views_by_name, Fingerprinter};
use bernoulli_synth::emit::{emit_module_open, EmitError, ModuleText};
use bernoulli_synth::search::search;
use bernoulli_synth::{BoundProblem, Codegen, SearchReport, SynthError, SynthOptions};
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Which tier answered a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Tier {
    /// A search of the request's own (or of the flight it followed).
    Search,
    /// The in-memory plan cache.
    Memory,
    /// The persistent plan cache.
    Disk,
}

/// How a request was answered: the entry that holds the answer, and the
/// tier it came from. A degraded search answers with an entry of its
/// own, which no cache tier ever holds.
#[derive(Clone)]
pub(crate) struct SearchOutcome {
    pub(crate) entry: Arc<CachedSearch>,
    pub(crate) tier: Tier,
}

impl SearchOutcome {
    /// The report the request's kernel carries.
    pub(crate) fn report(&self) -> SearchReport {
        SearchReport {
            plan_cache_hit: self.tier != Tier::Search,
            plan_cache_disk_hit: self.tier == Tier::Disk,
            ..self.entry.report.clone()
        }
    }
}

/// One compile request: a problem, the options it is searched under, the
/// structural fingerprint of the two that the in-memory plan cache is
/// looked up by, and the budget a search of it charges.
pub(crate) struct Request<'a> {
    pub(crate) problem: &'a BoundProblem,
    pub(crate) opts: &'a SynthOptions,
    fingerprint: u64,
    budget: Option<&'a Budget>,
}

impl<'a> Request<'a> {
    /// An unbudgeted request.
    pub(crate) fn new(problem: &'a BoundProblem, opts: &'a SynthOptions) -> Request<'a> {
        Request {
            problem,
            opts,
            fingerprint: fingerprint(problem, opts),
            budget: None,
        }
    }

    /// The same request under `budget`.
    pub(crate) fn under<'b>(&self, budget: Option<&'b Budget>) -> Request<'b>
    where
        'a: 'b,
    {
        Request { budget, ..*self }
    }

    /// A request under another problem's fingerprint.
    #[cfg(test)]
    pub(crate) fn colliding_with(
        problem: &'a BoundProblem,
        opts: &'a SynthOptions,
        other: &Request<'_>,
    ) -> Request<'a> {
        Request {
            problem,
            opts,
            fingerprint: other.fingerprint,
            budget: None,
        }
    }
}

/// Answers `req` from `cache`'s memory tier when plan caching is on and
/// the tier holds it; otherwise formats the request's durable key (the
/// only place that does) and hands it to `miss`, which is to end in
/// [`run_search`].
pub(crate) fn serve(
    cache: &PlanCache,
    req: &Request<'_>,
    miss: impl FnOnce(String) -> Result<SearchOutcome, SynthError>,
) -> Result<SearchOutcome, SynthError> {
    if req.opts.cache_plans {
        if let Some(hit) = cache.lookup(req) {
            return Ok(hit);
        }
    }
    miss(plan_cache_key(
        req.problem.program(),
        req.problem.views(),
        req.opts,
    ))
}

/// Searches for `req` on a miss of the memory tier. `key` is the
/// request's [`plan_cache_key`]: it names the entry in the persistent
/// tier and the kernel's artifact, and the entry this returns owns it.
/// The memory tier is looked up once more here — a request that waited
/// to lead a single-flight finds what the previous leader stored — and
/// this lookup is the one that counts a miss.
///
/// Every decision procedure of the search, on this thread and on every
/// pool job it fans out, runs under one [`Cx`]: `cache`'s polyhedral
/// memo and the request's budget.
pub(crate) fn run_search(
    req: &Request<'_>,
    key: String,
    pool: Option<&Pool>,
    cache: &PlanCache,
    persist: Option<&PersistentPlanCache>,
) -> Result<SearchOutcome, SynthError> {
    let (problem, opts) = (req.problem, req.opts);
    let p = problem.program();

    if opts.cache_plans {
        if let Some(hit) = cache.lookup(req) {
            return Ok(hit);
        }
        cache.misses.fetch_add(1, Ordering::Relaxed);
        // Persistent tier: a restarted service finds the previous
        // process's completed searches on disk, promotes them into the
        // in-memory cache, and skips the search entirely (warm-start).
        if let Some(found) = persist.and_then(|ps| ps.load(&key)) {
            let entry = Arc::new(cache.entry(req, key, found));
            cache.insert(req.fingerprint, Arc::clone(&entry));
            return Ok(SearchOutcome {
                entry,
                tier: Tier::Disk,
            });
        }
    }

    let cx = Cx::new(&cache.memo).with_budget(req.budget);
    let deps = cache.deps(p, || Arc::clone(problem.shared_program()), cx.budget);
    let report = search(problem, opts, &deps, pool, cx)?;
    let degraded = report.degraded;
    let entry = Arc::new(cache.entry(req, key, report));
    // A degraded search is an incomplete search: caching it would serve
    // the truncated result to future *unbudgeted* callers forever —
    // neither tier (memory, disk) ever stores one.
    if opts.cache_plans && !degraded {
        if let Some(ps) = persist {
            ps.store(&entry);
        }
        cache.insert(req.fingerprint, Arc::clone(&entry));
    }
    Ok(SearchOutcome {
        entry,
        tier: Tier::Search,
    })
}

/// One finished search and everything derived from it, owned in one
/// place: what a plan-cache tier holds, and what every kernel the entry
/// serves is a handle onto. Shared (`Arc`) between the cache and those
/// kernels.
pub(crate) struct CachedSearch {
    /// As the search that found it reports it (served by no tier).
    pub(crate) report: SearchReport,
    /// The durable identity of the problem ([`plan_cache_key`]): names
    /// the entry in the persistent tier and salts the artifact name.
    pub(crate) key: String,
    /// The problem searched. A fingerprint match is confirmed against
    /// it, and the emitter and the native load read it.
    pub(crate) problem: BoundProblem,
    /// The options searched under; a request's must be the
    /// [`same_search`].
    opts: SynthOptions,
    /// Filled by the first native load of a kernel this entry served.
    pub(crate) native: NativeCell,
    /// The best plan's codegen record, derived at most once, by the
    /// first emission or native load.
    pub(crate) codegen: OnceLock<Codegen>,
    /// The best plan's module, rendered at most once.
    module: OnceLock<Result<ModuleText, EmitError>>,
    /// The owning cache's count of such renderings.
    emissions: Arc<AtomicU64>,
}

impl std::fmt::Debug for CachedSearch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CachedSearch")
            .field("key", &self.key)
            .field("report", &self.report)
            .finish_non_exhaustive()
    }
}

impl CachedSearch {
    /// True iff this entry is the answer to `req`: `==` on everything
    /// the fingerprint hashes. A request whose problem shares the
    /// entry's `Arc`s — as every bind of it after the first does — is
    /// that problem, and the pointers stand in for `==`, but only for a
    /// problem that equals itself: a `NaN` anywhere equals nothing, so
    /// such a problem is searched every time, shared or not.
    fn answers(&self, req: &Request<'_>) -> bool {
        (self.problem.is_shared_with(req.problem) || self.problem == *req.problem)
            && same_search(&self.opts, req.opts)
    }

    /// The best plan's codegen record, derived on first use; the
    /// record of no transformation when the search kept no plan.
    pub(crate) fn codegen(&self) -> &Codegen {
        self.codegen
            .get_or_init(|| match self.report.candidates.first() {
                Some(best) => Codegen::of(self.problem.program(), &best.plan, self.problem.views()),
                None => Codegen::default(),
            })
    }

    /// The best plan's emitted module with the function name left
    /// open, rendered on first use.
    pub(crate) fn module(&self) -> Result<&ModuleText, EmitError> {
        self.module
            .get_or_init(|| {
                self.emissions.fetch_add(1, Ordering::Relaxed);
                let best = self
                    .report
                    .candidates
                    .first()
                    .ok_or_else(|| EmitError("the search kept no plan to emit".to_string()))?;
                let (p, views) = (self.problem.program(), self.problem.views());
                emit_module_open(p, &best.plan, views, self.codegen())
            })
            .as_ref()
            .map_err(Clone::clone)
    }
}

/// Cached whole-search results, analysed programs and bound problems;
/// each cleared wholesale when full.
const PLAN_CACHE_CAP: usize = 128;

/// One whole-search memo cache with hit/miss accounting, the
/// dependence classes of the programs searched or analysed through it,
/// and the polyhedral memo their decisions consult.
/// Every [`Session`](crate::session::Session) and
/// [`Service`](crate::service::Service) owns its own, making warm/cold
/// behavior explicit per owner. All three maps are keyed by a
/// structural fingerprint and hold the value it was taken of, so that
/// `==` confirms a match: two values under one fingerprint displace
/// each other, and neither is ever served for the other.
pub(crate) struct PlanCache {
    map: Mutex<HashMap<u64, Arc<CachedSearch>>>,
    /// The program is the one a search's bound problem shares, or the
    /// copy an `analyze` of an unbound program made.
    deps: Mutex<HashMap<u64, (Arc<Program>, Arc<[DepClass]>)>>,
    /// Every problem bound through this cache that equals itself, by its
    /// fingerprint: a later bind of an equal problem is handed this one.
    bound: Mutex<HashMap<u64, BoundProblem>>,
    /// A private memo, or the process-wide tier a service shares.
    pub(crate) memo: Arc<PolyCaches>,
    hits: AtomicU64,
    misses: AtomicU64,
    analyses: AtomicU64,
    emissions: Arc<AtomicU64>,
}

/// Poison-tolerant lock: a panic mid-insert leaves at worst a missing
/// memo entry, never a wrong one.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

impl PlanCache {
    /// An empty cache over a private polyhedral memo.
    pub(crate) fn new() -> PlanCache {
        PlanCache::over(Arc::new(PolyCaches::new()))
    }

    /// An empty cache whose decisions consult `memo`.
    pub(crate) fn over(memo: Arc<PolyCaches>) -> PlanCache {
        PlanCache {
            map: Mutex::new(HashMap::new()),
            deps: Mutex::new(HashMap::new()),
            bound: Mutex::new(HashMap::new()),
            memo,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            analyses: AtomicU64::new(0),
            emissions: Arc::new(AtomicU64::new(0)),
        }
    }

    /// The memory tier's answer to `req`, counted as a hit. Entries are
    /// shared, so the lock covers one pointer clone; the comparison
    /// runs outside it. Only complete (never degraded) searches are
    /// cached, so a hit is a full result even if the current budget is
    /// spent.
    fn lookup(&self, req: &Request<'_>) -> Option<SearchOutcome> {
        let entry = lock(&self.map).get(&req.fingerprint).cloned()?;
        if !entry.answers(req) {
            return None;
        }
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(SearchOutcome {
            entry,
            tier: Tier::Memory,
        })
    }

    /// An entry of this cache for what a search of `req`, or the
    /// persistent tier under `key`, found.
    fn entry(&self, req: &Request<'_>, key: String, report: SearchReport) -> CachedSearch {
        CachedSearch {
            report,
            key,
            problem: req.problem.clone(),
            opts: req.opts.clone(),
            native: NativeCell::default(),
            codegen: OnceLock::new(),
            module: OnceLock::new(),
            emissions: Arc::clone(&self.emissions),
        }
    }

    fn insert(&self, fingerprint: u64, entry: Arc<CachedSearch>) {
        let mut g = lock(&self.map);
        if g.len() >= PLAN_CACHE_CAP {
            g.clear();
        }
        g.insert(fingerprint, entry);
    }

    /// Stage 3 (see [`bind_problem`]) through the table of bound
    /// problems: a problem `==` to one bound before is handed the kept
    /// one, and nothing is validated or copied; any other is bound by
    /// [`bind_problem`] and kept if it equals itself. A slice naming an
    /// array twice is never looked up, so that every one of its
    /// bindings is checked, the shadowed ones too.
    pub(crate) fn bind(
        &self,
        p: &Program,
        views: &[(&str, FormatView)],
    ) -> Result<BoundProblem, SynthError> {
        self.bind_in(None, p, views)
    }

    /// [`bind`](PlanCache::bind), with the table slot looked up and
    /// filled under another problem's fingerprint.
    #[cfg(test)]
    pub(crate) fn bind_colliding_with(
        &self,
        p: &Program,
        views: &[(&str, FormatView)],
        other: &BoundProblem,
    ) -> Result<BoundProblem, SynthError> {
        self.bind_in(Some(other.fingerprint()), p, views)
    }

    /// [`bind`](PlanCache::bind) through the table slot of the
    /// problem's fingerprint, or through `slot`.
    fn bind_in(
        &self,
        slot: Option<u64>,
        p: &Program,
        views: &[(&str, FormatView)],
    ) -> Result<BoundProblem, SynthError> {
        let named = views_by_name(views);
        let fingerprint = problem_fingerprint(p, &named);
        let slot = slot.unwrap_or(fingerprint);
        if named.len() == views.len() {
            let kept = lock(&self.bound).get(&slot).cloned();
            if let Some(kept) = kept.filter(|b| b.is(fingerprint, p, &named)) {
                return Ok(kept);
            }
        }
        let fresh = bind_problem(p, views)?;
        if !fresh.reflexive() {
            return Ok(fresh);
        }
        let mut table = lock(&self.bound);
        // A racing first bind of the problem may have kept its copy.
        if let Some(kept) = table.get(&slot).filter(|b| **b == fresh) {
            return Ok(kept.clone());
        }
        if table.len() >= PLAN_CACHE_CAP {
            table.clear();
        }
        table.insert(slot, fresh.clone());
        Ok(fresh)
    }

    /// The dependence classes of `p` (paper §3), analysed once per
    /// program value, charging `budget`; `kept` gives the program the
    /// memo keeps, called only when it keeps one. Racing first requests
    /// may each analyse; the classes are the same.
    pub(crate) fn deps(
        &self,
        p: &Program,
        kept: impl FnOnce() -> Arc<Program>,
        budget: Option<&Budget>,
    ) -> Arc<[DepClass]> {
        let fingerprint = fingerprint_of(p);
        let known = |deps: &HashMap<u64, (Arc<Program>, Arc<[DepClass]>)>| {
            let (q, classes) = deps.get(&fingerprint)?;
            (**q == *p).then(|| Arc::clone(classes))
        };
        if let Some(classes) = known(&lock(&self.deps)) {
            return classes;
        }
        self.analyses.fetch_add(1, Ordering::Relaxed);
        let classes: Arc<[DepClass]> = analyze(p, Cx::new(&self.memo).with_budget(budget)).into();
        // Under a spent budget the emptiness tests answer "possibly
        // nonempty", so the classes may be a conservative superset:
        // good for the degraded search that asked, never kept.
        let conservative = budget.is_some_and(|b| b.exceeded().is_some());
        if !conservative {
            let mut deps = lock(&self.deps);
            if known(&deps).is_none() {
                if deps.len() >= PLAN_CACHE_CAP {
                    deps.clear();
                }
                deps.insert(fingerprint, (kept(), Arc::clone(&classes)));
            }
        }
        classes
    }

    pub(crate) fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            analyses: self.analyses.load(Ordering::Relaxed),
            emissions: self.emissions.load(Ordering::Relaxed),
        }
    }

    /// Drops every entry, analysis, bound problem and polyhedral memo.
    pub(crate) fn clear(&self) {
        lock(&self.map).clear();
        lock(&self.deps).clear();
        lock(&self.bound).clear();
        self.memo.clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.analyses.store(0, Ordering::Relaxed);
        self.emissions.store(0, Ordering::Relaxed);
    }
}

fn fingerprint_of(value: &impl Hash) -> u64 {
    let mut h = Fingerprinter::default();
    value.hash(&mut h);
    h.finish()
}

/// A map's entries by name: map order is no part of a problem.
fn by_name<V>(map: &HashMap<String, V>) -> Vec<(&String, &V)> {
    let mut entries: Vec<_> = map.iter().collect();
    entries.sort_unstable_by_key(|&(name, _)| name);
    entries
}

/// The knobs a search result depends on, in the order
/// [`plan_cache_key`] writes them. `parallel` and `cache_plans` are
/// deliberately excluded: they never change the result. `prune` is
/// included because it changes the `examined`/`pruned` accounting.
fn knobs(opts: &SynthOptions) -> (usize, usize, bool, bool, usize, bool) {
    (
        opts.max_orders,
        opts.max_embeddings,
        opts.relax_reductions,
        opts.include_iteration_centric,
        opts.keep,
        opts.prune,
    )
}

/// True iff a search under `a` and one under `b` give the same result.
fn same_search(a: &SynthOptions, b: &SynthOptions) -> bool {
    knobs(a) == knobs(b) && a.stats == b.stats
}

/// The structural fingerprint of a request: a hash over the values
/// [`plan_cache_key`] prints, in the order it prints them, `f64`s by
/// bit pattern — continued from the problem's, which binding took. It
/// is the identity the memory tier is looked up by; the string stays
/// the identity on disk, in artifact names and for users.
fn fingerprint(problem: &BoundProblem, opts: &SynthOptions) -> u64 {
    let mut h = Fingerprinter(problem.fingerprint());
    let s = &opts.stats;
    let params = by_name(&s.params);
    params.len().hash(&mut h);
    for (name, v) in params {
        name.hash(&mut h);
        v.to_bits().hash(&mut h);
    }
    let matrices = by_name(&s.matrices);
    matrices.len().hash(&mut h);
    for (name, &(r, c, n)) in matrices {
        name.hash(&mut h);
        [r.to_bits(), c.to_bits(), n.to_bits()].hash(&mut h);
    }
    [s.default_n.to_bits(), s.default_nnz_per_row.to_bits()].hash(&mut h);
    knobs(opts).hash(&mut h);
    h.finish()
}

/// The durable identity of a problem, a kilobyte of text formatted once
/// per plan-cache entry: it covers everything the search result depends
/// on — the program, the views (sorted — map order is irrelevant), the
/// workload statistics (f64s by bit pattern, maps sorted) and the
/// [`knobs`].
pub(crate) fn plan_cache_key(
    p: &Program,
    views: &HashMap<String, FormatView>,
    opts: &SynthOptions,
) -> String {
    let mut vs: Vec<String> = views.iter().map(|(n, v)| format!("{n}={v:?}")).collect();
    vs.sort();
    let s = &opts.stats;
    let mut params: Vec<String> = s
        .params
        .iter()
        .map(|(k, v)| format!("{k}={:016x}", v.to_bits()))
        .collect();
    params.sort();
    let mut mats: Vec<String> = s
        .matrices
        .iter()
        .map(|(k, &(r, c, n))| {
            format!(
                "{k}=({:016x},{:016x},{:016x})",
                r.to_bits(),
                c.to_bits(),
                n.to_bits()
            )
        })
        .collect();
    mats.sort();
    let (max_orders, max_embeddings, relax, iteration_centric, keep, prune) = knobs(opts);
    format!(
        "prog{{{p:?}}}|views[{}]|params[{}]|mats[{}]|dn{:016x}|dz{:016x}|mo{max_orders}|me{max_embeddings}|rr{relax}|ic{iteration_centric}|keep{keep}|prune{prune}",
        vs.join(";"),
        params.join(","),
        mats.join(","),
        s.default_n.to_bits(),
        s.default_nnz_per_row.to_bits(),
    )
}

/// Hit/miss totals of one whole-search plan cache
/// ([`Session::plan_cache_stats`](crate::session::Session::plan_cache_stats),
/// [`Service::plan_cache_stats`](crate::service::Service::plan_cache_stats)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    pub hits: u64,
    pub misses: u64,
    /// Dependence analyses actually run: `analyze` calls and searches
    /// of a program the owner had already analysed add nothing.
    pub analyses: u64,
    /// Modules actually rendered: every `emit` of every kernel an entry
    /// serves after the first, under whatever name, adds nothing.
    pub emissions: u64,
}

impl PlanCacheStats {
    /// Hit fraction (0 when the cache was never consulted).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
#[path = "fingerprint_tests.rs"]
mod fingerprint_tests;
