//! A multi-tenant compile server: concurrent [`compile`](Service::compile)
//! calls from many threads multiplexed over one shared worker pool and
//! shared caches (S38).
//!
//! A [`Session`](crate::session::Session) is a single-client front
//! over the same compile driver, without admission and with a private
//! polyhedral memo; a [`Service`] is built to be shared: it is
//! `Send + Sync`, wrap it in an `Arc` and hand clones to as many client
//! threads as you like. Four concerns make up the service:
//!
//! 1. **Shared cache tiers.** All requests share the service's
//!    whole-search plan cache and the process-wide polyhedral memo
//!    tier ([`bernoulli_polyhedra::shared_tier`]) — safe because the
//!    cached decisions are keyed by canonicalized constraint systems
//!    and are input-deterministic; a tenant that wants private
//!    polyhedral memos uses a [`Session`](crate::session::Session).
//!    Optionally a *persistent* plan cache
//!    ([`PersistentPlanCache`])
//!    warm-starts searches across process restarts.
//! 2. **Admission control.** In-flight compiles are bounded
//!    ([`ServiceConfig::max_inflight`]); excess requests wait in a
//!    strict FIFO queue of bounded depth ([`ServiceConfig::max_queue`]).
//!    A full queue sheds load with [`ServiceError::Overloaded`]; a
//!    request whose deadline expires while still queued is rejected
//!    with [`ServiceError::QueueDeadline`] rather than admitted late.
//!    FIFO tickets make admission fair: no request can starve behind
//!    later arrivals.
//! 3. **Per-request budgets.** Each admitted compile arms a fresh
//!    [`Budget`] from the *remaining*
//!    deadline (queue wait is charged against the request, not
//!    forgiven) plus the configured op ceiling, so one adversarial
//!    program degrades itself instead of the tenancy.
//! 4. **Single-flight coalescing.** Concurrent compiles of the same
//!    plan-cache key share one search (and hence one kernel build
//!    downstream): the first request leads, the rest wait and receive
//!    the leader's result — or its typed error — without re-searching.
//!    Degraded results are never shared (each request's budget is its
//!    own), requests with plan caching disabled never coalesce, and a
//!    request the plan cache already holds is answered before any
//!    flight is entered.
//!
//! Determinism is preserved under concurrency: compiles taken through
//! the service produce byte-identical plans and emitted source to the
//! same compiles run sequentially on a fresh session (the concurrency
//! suite in `tests/` holds this). Nothing on these paths panics.

use crate::persist::{PersistStats, PersistentPlanCache};
use crate::search::{run_search, serve, PlanCache, PlanCacheStats, Request, SearchOutcome, Tier};
use crate::session::{self, CompiledKernel, DepReport};
use bernoulli_formats::view::FormatView;
use bernoulli_govern::{Budget, CancelToken, Flight, SingleFlight};
use bernoulli_ir::Program;
use bernoulli_polyhedra::CacheStats;
use bernoulli_pool::Pool;
use bernoulli_synth::{BoundProblem, SynthError, SynthOptions};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// The pool a search of `opts` fans out over, if it is to run in
/// parallel: the owner's own, or else the process-global one (sized by
/// `BERNOULLI_THREADS`).
fn search_pool<'a>(own: &'a Option<Arc<Pool>>, opts: &SynthOptions) -> Option<&'a Pool> {
    opts.parallel.then(|| match own {
        Some(pool) => pool,
        None => Pool::global(),
    })
}

/// A fresh [`Budget`] for one compile: deadlines re-arm, op counts
/// reset. With no limit configured there is none, and the compile pays
/// zero governance overhead.
fn armed(
    deadline: Option<Duration>,
    max_ops: Option<u64>,
    cancel: Option<&CancelToken>,
) -> Option<Budget> {
    if deadline.is_none() && max_ops.is_none() && cancel.is_none() {
        return None;
    }
    let mut b = Budget::unlimited();
    if let Some(limit) = deadline {
        b = b.with_deadline(limit);
    }
    if let Some(ops) = max_ops {
        b = b.with_max_ops(ops);
    }
    if let Some(tok) = cancel {
        b = b.with_cancel(tok.clone());
    }
    Some(b)
}

/// Configuration for a [`Service`].
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Maximum compiles running concurrently. Further requests queue.
    pub max_inflight: usize,
    /// Maximum requests waiting for admission; a full queue sheds new
    /// arrivals with [`ServiceError::Overloaded`].
    pub max_queue: usize,
    /// Deadline applied to [`Service::compile`] requests (queue wait
    /// included). `None`: wait and search without time limit.
    pub default_deadline: Option<Duration>,
    /// Per-compile ceiling on abstract polyhedral operations (see
    /// [`bernoulli_govern::Budget::with_max_ops`]).
    pub op_budget: Option<u64>,
    /// `Some(n)`: the service owns a private `n`-thread worker pool.
    /// `None`: searches fan out on the process-global pool.
    pub threads: Option<usize>,
    /// Directory for the persistent plan cache; `None` disables
    /// persistence.
    pub persist_dir: Option<PathBuf>,
    /// Search options used by [`Service::compile`].
    pub opts: SynthOptions,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            max_inflight: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            max_queue: 64,
            default_deadline: None,
            op_budget: None,
            threads: None,
            persist_dir: None,
            opts: SynthOptions::default(),
        }
    }
}

/// Why a service request failed. Admission rejections (`Overloaded`,
/// `QueueDeadline`) are *sticky shed signals*: the compile never ran,
/// so retrying against a less-loaded service is always safe.
#[derive(Debug)]
pub enum ServiceError {
    /// The admission queue was full; the request was shed immediately.
    Overloaded {
        /// Compiles running when the request was shed.
        inflight: usize,
        /// Requests already queued when the request was shed.
        queued: usize,
    },
    /// The request's deadline expired while it was still waiting in
    /// the admission queue; it was never admitted.
    QueueDeadline {
        /// How long the request waited before being rejected.
        waited_ms: u64,
    },
    /// The compile itself failed after admission.
    Synth(SynthError),
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Overloaded { inflight, queued } => write!(
                f,
                "service overloaded: {inflight} compile(s) in flight, \
                 {queued} queued; request shed"
            ),
            ServiceError::QueueDeadline { waited_ms } => write!(
                f,
                "request deadline expired after {waited_ms} ms in the \
                 admission queue; compile never started"
            ),
            ServiceError::Synth(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ServiceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServiceError::Synth(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SynthError> for ServiceError {
    fn from(e: SynthError) -> ServiceError {
        ServiceError::Synth(e)
    }
}

/// FIFO admission state: `next_ticket` is handed to the next arrival,
/// `next_served` is the ticket at the head of the queue. A waiter may
/// start iff its ticket is at the head *and* an in-flight slot is
/// free, which is exactly first-come-first-served.
struct AdmState {
    inflight: usize,
    queued: usize,
    next_ticket: u64,
    next_served: u64,
    /// Tickets whose owners gave up (deadline) before being served;
    /// `next_served` skips over them.
    abandoned: BTreeSet<u64>,
}

/// Bounded-concurrency FIFO admission gate. Public so the admission
/// behavior (shedding, deadlines, fairness) is testable directly,
/// without driving full compiles through a [`Service`].
pub struct Admission {
    state: Mutex<AdmState>,
    cv: Condvar,
    max_inflight: usize,
    max_queue: usize,
}

/// An admitted request's slot; dropping it releases the slot and wakes
/// queued waiters.
pub struct AdmissionPermit<'a> {
    adm: &'a Admission,
}

impl Drop for AdmissionPermit<'_> {
    fn drop(&mut self) {
        let mut st = self.adm.lock();
        st.inflight = st.inflight.saturating_sub(1);
        // A waiter counts itself in `queued` under this lock before it
        // waits, so with none counted there is nobody to wake — and a
        // wake-up is a system call, on every request.
        let waiting = st.queued > 0;
        drop(st);
        if waiting {
            self.adm.cv.notify_all();
        }
    }
}

impl Admission {
    /// A gate admitting at most `max_inflight` concurrent holders with
    /// at most `max_queue` waiters. Both floors are clamped to 1/0
    /// sensibly: `max_inflight == 0` would deadlock, so it is raised
    /// to 1.
    pub fn new(max_inflight: usize, max_queue: usize) -> Admission {
        Admission {
            state: Mutex::new(AdmState {
                inflight: 0,
                queued: 0,
                next_ticket: 0,
                next_served: 0,
                abandoned: BTreeSet::new(),
            }),
            cv: Condvar::new(),
            max_inflight: max_inflight.max(1),
            max_queue,
        }
    }

    /// Poison-tolerant lock: admission state stays usable even if a
    /// panic unwound through a holder (counter updates are atomic with
    /// respect to the lock; there is no partially-applied state).
    fn lock(&self) -> MutexGuard<'_, AdmState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Skips `next_served` past tickets whose owners abandoned the
    /// queue, so the head position always names a live waiter (or the
    /// next future arrival).
    fn advance(st: &mut AdmState) {
        while st.abandoned.remove(&st.next_served) {
            st.next_served += 1;
        }
    }

    /// Waits for an in-flight slot, FIFO-fair, shedding instead of
    /// waiting when the queue is full and giving up at `deadline`.
    /// Returns a permit whose `Drop` releases the slot.
    pub fn acquire(&self, deadline: Option<Instant>) -> Result<AdmissionPermit<'_>, ServiceError> {
        let enqueued_at = Instant::now();
        let mut st = self.lock();
        // Fast path: a free slot and nobody queued ahead of us.
        if st.inflight < self.max_inflight && st.queued == 0 {
            st.inflight += 1;
            return Ok(AdmissionPermit { adm: self });
        }
        if st.queued >= self.max_queue {
            return Err(ServiceError::Overloaded {
                inflight: st.inflight,
                queued: st.queued,
            });
        }
        let ticket = st.next_ticket;
        st.next_ticket += 1;
        st.queued += 1;
        loop {
            if st.next_served == ticket && st.inflight < self.max_inflight {
                st.queued -= 1;
                st.next_served += 1;
                Self::advance(&mut st);
                st.inflight += 1;
                drop(st);
                // Another waiter may now be at the head with a slot
                // still free (max_inflight > 1): let it re-check.
                self.cv.notify_all();
                return Ok(AdmissionPermit { adm: self });
            }
            match deadline {
                None => {
                    st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
                }
                Some(d) => {
                    let now = Instant::now();
                    if now >= d {
                        // Give up: mark the ticket abandoned so the
                        // head position can move past it.
                        st.queued = st.queued.saturating_sub(1);
                        st.abandoned.insert(ticket);
                        Self::advance(&mut st);
                        drop(st);
                        self.cv.notify_all();
                        return Err(ServiceError::QueueDeadline {
                            waited_ms: enqueued_at.elapsed().as_millis() as u64,
                        });
                    }
                    let (g, _timeout) = self
                        .cv
                        .wait_timeout(st, d - now)
                        .unwrap_or_else(|e| e.into_inner());
                    st = g;
                }
            }
        }
    }

    /// Compiles currently holding slots.
    pub fn inflight(&self) -> usize {
        self.lock().inflight
    }

    /// Requests currently waiting for admission.
    pub fn queued(&self) -> usize {
        self.lock().queued
    }
}

/// Monotonic request accounting, all updated lock-free.
#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    admitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    shed_overloaded: AtomicU64,
    shed_deadline: AtomicU64,
    degraded: AtomicU64,
    peak_inflight: AtomicU64,
    searches: AtomicU64,
    coalesced: AtomicU64,
}

/// A point-in-time snapshot of a service's request accounting
/// ([`Service::stats`]). Once the service is quiescent the counters
/// sum: `submitted = admitted + shed_overloaded + shed_deadline`, and
/// `admitted = completed + failed`. Each admitted request with plan
/// caching on is counted by the plan cache exactly once, as a hit or as
/// a miss, or is coalesced onto another request's search and counted by
/// neither, so with [`Service::plan_cache_stats`]: `hits + misses +
/// coalesced = admitted`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceStats {
    /// Requests that entered [`Service::compile`].
    pub submitted: u64,
    /// Requests that passed admission. How each was served — a search
    /// of its own, a plan-cache tier, or another request's in-flight
    /// search — is what `searches` and `coalesced` say.
    pub admitted: u64,
    /// Admitted requests that returned a kernel.
    pub completed: u64,
    /// Admitted requests that returned a [`SynthError`].
    pub failed: u64,
    /// Requests shed because the queue was full.
    pub shed_overloaded: u64,
    /// Requests whose deadline expired while queued.
    pub shed_deadline: u64,
    /// Completed requests whose search degraded (budget exhaustion
    /// mid-search; the kernel is still correct, see the governance
    /// docs).
    pub degraded: u64,
    /// High-water mark of concurrent in-flight compiles.
    pub peak_inflight: u64,
    /// Genuine searches executed: `run_search` calls that neither hit
    /// a plan-cache tier nor were coalesced onto another request's
    /// in-flight search.
    pub searches: u64,
    /// Requests served by waiting on another request's in-flight
    /// search of the same plan-cache key (single-flight coalescing)
    /// instead of searching themselves.
    pub coalesced: u64,
}

/// A `Send + Sync` compile server: wrap in an `Arc`, share across
/// threads, call [`compile`](Service::compile) concurrently. See the
/// module docs for the tenancy model.
pub struct Service {
    pub(crate) cfg: ServiceConfig,
    /// The service's own worker pool ([`ServiceConfig::threads`]).
    pub(crate) pool: Option<Arc<Pool>>,
    plan_cache: PlanCache,
    persist: Option<PersistentPlanCache>,
    admission: Admission,
    counters: Counters,
    /// In-flight searches by plan-cache key (single-flight coalescing).
    flights: SingleFlight<String, Result<SearchOutcome, SynthError>>,
}

impl Service {
    /// A service with the given configuration, consulting the
    /// process-wide polyhedral memo tier.
    pub fn new(cfg: ServiceConfig) -> Service {
        let memo = Arc::clone(bernoulli_polyhedra::shared_tier());
        Service::with_plan_cache(cfg, PlanCache::over(memo))
    }

    /// A service over `plan_cache` (and the polyhedral memo it holds).
    pub(crate) fn with_plan_cache(cfg: ServiceConfig, plan_cache: PlanCache) -> Service {
        let pool = cfg.threads.map(|n| Arc::new(Pool::new(n)));
        let persist = cfg.persist_dir.as_ref().map(PersistentPlanCache::new);
        let admission = Admission::new(cfg.max_inflight, cfg.max_queue);
        Service {
            cfg,
            pool,
            plan_cache,
            persist,
            admission,
            counters: Counters::default(),
            flights: SingleFlight::new(),
        }
    }

    /// A service with [`ServiceConfig::default`].
    pub fn with_defaults() -> Service {
        Service::new(ServiceConfig::default())
    }

    /// The service's configuration.
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// Stage 1 — parse and semantically validate program text
    /// (identical to [`Session::parse`](crate::session::Session::parse);
    /// offered here so service clients need no session).
    pub fn parse(&self, text: &str) -> Result<Program, SynthError> {
        session::parse(text)
    }

    /// Stage 2 — dependence analysis (paper §3), run once per program
    /// per service: repeats, and every search of the program, read the
    /// kept classes.
    pub fn analyze(&self, p: &Program) -> DepReport {
        DepReport {
            classes: self.plan_cache.deps(p, || Arc::new(p.clone()), None),
        }
    }

    /// Stage 3 — bind format views to sparse arrays, validated against
    /// the program's declarations. The first bind of a problem copies
    /// it; every later bind of an equal problem (by `==`: the same
    /// program and views, however parsed or built) validates and copies
    /// nothing and returns a [`BoundProblem`] sharing that copy, whose
    /// compile on a plan-cache hit compares pointers. A problem with a
    /// `NaN` constant equals nothing and is copied every time.
    pub fn bind(
        &self,
        p: &Program,
        views: &[(&str, FormatView)],
    ) -> Result<BoundProblem, SynthError> {
        self.plan_cache.bind(p, views)
    }

    /// Structure-aware selection on the service: the multi-tenant
    /// mirror of [`Session::advise`](crate::session::Session::advise).
    /// Every candidate compile is a normal admitted request (counted,
    /// queued, deadline-checked); a per-candidate synthesis failure
    /// skips that format, while a service-level rejection (shed load,
    /// expired queue deadline) aborts the whole advice.
    pub fn advise(
        &self,
        p: &Program,
        matrix: &str,
        t: &bernoulli_formats::Triplets<f64>,
        formats: &[&str],
    ) -> Result<crate::advise::Advice, ServiceError> {
        crate::advise::advise_core(p, matrix, t, formats, |bound, stats| {
            let mut opts = self.cfg.opts.clone();
            opts.stats = stats.clone();
            match self.compile_with(bound, &opts, self.cfg.default_deadline) {
                Ok(k) => Ok(Ok(k)),
                Err(ServiceError::Synth(e)) => Ok(Err(e)),
                Err(fatal) => Err(fatal),
            }
        })
    }

    /// Stage 4 — compile under the service's configured options and
    /// deadline. Safe to call from many threads at once; admission
    /// control applies (see the module docs).
    pub fn compile(&self, problem: &BoundProblem) -> Result<CompiledKernel, ServiceError> {
        self.compile_with(problem, &self.cfg.opts, self.cfg.default_deadline)
    }

    /// [`compile`](Service::compile) with per-request option overrides
    /// and an explicit deadline. The deadline covers the *whole*
    /// request: time spent waiting in the admission queue is deducted
    /// from the search budget, and a request still queued at its
    /// deadline is rejected with [`ServiceError::QueueDeadline`].
    pub fn compile_with(
        &self,
        problem: &BoundProblem,
        opts: &SynthOptions,
        deadline: Option<Duration>,
    ) -> Result<CompiledKernel, ServiceError> {
        self.counters.submitted.fetch_add(1, Ordering::Relaxed);
        let absolute = deadline.map(|d| Instant::now() + d);
        let permit = self.admission.acquire(absolute).inspect_err(|e| {
            let shed = match e {
                ServiceError::Overloaded { .. } => &self.counters.shed_overloaded,
                ServiceError::QueueDeadline { .. } => &self.counters.shed_deadline,
                ServiceError::Synth(_) => return,
            };
            shed.fetch_add(1, Ordering::Relaxed);
        })?;
        self.counters.admitted.fetch_add(1, Ordering::Relaxed);
        self.counters
            .peak_inflight
            .fetch_max(self.admission.inflight() as u64, Ordering::Relaxed);
        let result = self
            .drive(problem, opts, absolute, self.cfg.op_budget, None)
            .map_err(ServiceError::Synth);
        drop(permit);
        match &result {
            Ok(k) => {
                self.counters.completed.fetch_add(1, Ordering::Relaxed);
                if k.report().degraded {
                    self.counters.degraded.fetch_add(1, Ordering::Relaxed);
                }
            }
            Err(_) => {
                self.counters.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    /// The compile driver, behind admission (or a
    /// [`Session`](crate::session::Session)): a request the plan cache
    /// holds is answered from it; any other arms a budget from what is
    /// left of `deadline`, `max_ops` and `cancel`, joins or leads the
    /// single flight of its key, and searches under that budget and the
    /// memo of this service's plan cache.
    pub(crate) fn drive(
        &self,
        problem: &BoundProblem,
        opts: &SynthOptions,
        deadline: Option<Instant>,
        max_ops: Option<u64>,
        cancel: Option<&CancelToken>,
    ) -> Result<CompiledKernel, SynthError> {
        let req = Request::new(problem, opts);
        let found = serve(&self.plan_cache, &req, |key| {
            let remaining = deadline.map(|d| d.saturating_duration_since(Instant::now()));
            let budget = armed(remaining, max_ops, cancel);
            self.search(&req.under(budget.as_ref()), key, deadline)
        })?;
        CompiledKernel::from_search(found)
    }

    /// A request the plan cache's memory tier did not answer.
    fn search(
        &self,
        req: &Request<'_>,
        key: String,
        deadline: Option<Instant>,
    ) -> Result<SearchOutcome, SynthError> {
        let pool = search_pool(&self.pool, req.opts);
        // A genuine search (not served by a plan-cache tier) counts in
        // `ServiceStats::searches`.
        let search = |key: String| {
            let found = run_search(req, key, pool, &self.plan_cache, self.persist.as_ref())?;
            if found.tier == Tier::Search {
                self.counters.searches.fetch_add(1, Ordering::Relaxed);
            }
            Ok(found)
        };
        if !req.opts.cache_plans {
            // With plan caching off, requests for the same key are
            // deliberately independent (load generators rely on this
            // to measure genuine search throughput).
            return search(key);
        }
        // Single-flight: concurrent requests for one plan-cache key
        // share one search and its result — or its typed error. A
        // result degraded under the leader's own budget stays with
        // the leader; its followers race to lead a fresh search.
        let share =
            |r: &Result<SearchOutcome, SynthError>| !matches!(r, Ok(r) if r.entry.report.degraded);
        match self
            .flights
            .run(&key, deadline, || search(key.clone()), share)
        {
            Flight::Led(result) => result,
            Flight::Followed(shared) => {
                self.counters.coalesced.fetch_add(1, Ordering::Relaxed);
                shared
            }
            // Waited out the deadline: search under our own
            // (expired) budget so the typed budget error matches
            // the sequential path.
            Flight::TimedOut => search(key),
        }
    }

    /// A point-in-time snapshot of the request accounting.
    pub fn stats(&self) -> ServiceStats {
        ServiceStats {
            submitted: self.counters.submitted.load(Ordering::Relaxed),
            admitted: self.counters.admitted.load(Ordering::Relaxed),
            completed: self.counters.completed.load(Ordering::Relaxed),
            failed: self.counters.failed.load(Ordering::Relaxed),
            shed_overloaded: self.counters.shed_overloaded.load(Ordering::Relaxed),
            shed_deadline: self.counters.shed_deadline.load(Ordering::Relaxed),
            degraded: self.counters.degraded.load(Ordering::Relaxed),
            peak_inflight: self.counters.peak_inflight.load(Ordering::Relaxed),
            searches: self.counters.searches.load(Ordering::Relaxed),
            coalesced: self.counters.coalesced.load(Ordering::Relaxed),
        }
    }

    /// Hit/miss totals of the service-shared whole-search plan cache,
    /// and how many dependence analyses the service ran.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }

    /// Hit/miss totals of the polyhedral memo this service consults
    /// (for a [`Service::new`] service, the process-wide tier, which
    /// other services feed too).
    pub fn poly_cache_stats(&self) -> CacheStats {
        self.plan_cache.memo.stats()
    }

    /// Drops every cached search result and polyhedral memo.
    pub(crate) fn clear_caches(&self) {
        self.plan_cache.clear();
    }

    /// Hit/miss/write totals of the persistent plan cache, if one is
    /// configured.
    pub fn persist_stats(&self) -> Option<PersistStats> {
        self.persist.as_ref().map(|p| p.stats())
    }

    /// The service's admission gate. Exposed so operators (and the
    /// admission-control tests) can observe or occupy slots directly —
    /// holding a permit from here deterministically forces subsequent
    /// requests onto the queue/shed paths.
    pub fn admission(&self) -> &Admission {
        &self.admission
    }

    /// Compiles currently running.
    pub fn inflight(&self) -> usize {
        self.admission.inflight()
    }

    /// Requests currently waiting for admission.
    pub fn queued(&self) -> usize {
        self.admission.queued()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn service_is_send_and_sync() {
        assert_send_sync::<Service>();
        assert_send_sync::<Arc<Service>>();
    }

    #[test]
    fn admission_fast_path_and_release() {
        let adm = Admission::new(2, 4);
        let a = adm.acquire(None).ok();
        let b = adm.acquire(None).ok();
        assert!(a.is_some() && b.is_some());
        assert_eq!(adm.inflight(), 2);
        drop(a);
        assert_eq!(adm.inflight(), 1);
        drop(b);
        assert_eq!(adm.inflight(), 0);
    }

    #[test]
    fn admission_sheds_when_queue_full() {
        // One slot, zero queue depth: a second concurrent request is
        // shed immediately with the typed overload error.
        let adm = Admission::new(1, 0);
        let held = adm.acquire(None).ok();
        assert!(held.is_some());
        match adm.acquire(Some(Instant::now())) {
            Err(ServiceError::Overloaded { inflight, queued }) => {
                assert_eq!((inflight, queued), (1, 0));
            }
            other => {
                drop(other);
                unreachable!("expected Overloaded");
            }
        };
    }

    #[test]
    fn admission_queue_deadline_expires() {
        let adm = Admission::new(1, 4);
        let held = adm.acquire(None).ok();
        assert!(held.is_some());
        let start = Instant::now();
        match adm.acquire(Some(Instant::now() + Duration::from_millis(30))) {
            Err(ServiceError::QueueDeadline { waited_ms }) => {
                assert!(start.elapsed() >= Duration::from_millis(30));
                // Tolerance: the reported wait covers at least the
                // requested deadline, minus scheduler slop.
                assert!(waited_ms >= 20, "waited_ms = {waited_ms}");
            }
            other => {
                drop(other);
                unreachable!("expected QueueDeadline");
            }
        }
        // The abandoned ticket must not block later arrivals.
        drop(held);
        assert!(adm
            .acquire(Some(Instant::now() + Duration::from_secs(5)))
            .is_ok());
    }

    #[test]
    fn admission_is_fifo_fair() {
        // Release the only slot repeatedly; queued waiters must be
        // served in arrival order (tickets are strictly FIFO).
        let adm = Arc::new(Admission::new(1, 16));
        let held = adm.acquire(None).ok();
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for i in 0..6 {
            let gate = Arc::clone(&adm);
            let order = Arc::clone(&order);
            handles.push(std::thread::spawn(move || {
                let permit = gate.acquire(Some(Instant::now() + Duration::from_secs(30)));
                if permit.is_ok() {
                    order.lock().unwrap_or_else(|e| e.into_inner()).push(i);
                }
                // Hold briefly so successors observe the slot cycling.
                std::thread::sleep(Duration::from_millis(1));
            }));
            // Arrival order must match spawn order for the FIFO
            // assertion to be meaningful: wait until thread i is
            // actually queued before spawning thread i+1.
            while adm.queued() < i + 1 {
                std::thread::yield_now();
            }
        }
        drop(held);
        for h in handles {
            let _ = h.join();
        }
        let served = order.lock().unwrap_or_else(|e| e.into_inner()).clone();
        assert_eq!(served, vec![0, 1, 2, 3, 4, 5], "admission must be FIFO");
        assert_eq!(adm.inflight(), 0);
        assert_eq!(adm.queued(), 0);
    }
}
