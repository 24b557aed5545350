//! The synthesis driver: search over configurations, dimension orders,
//! embeddings and enumeration sources (paper §4.2–4.3).
//!
//! Since S34 the driver is built for speed without giving up
//! reproducibility:
//!
//! - **Parallel fan-out** — each configuration's (order, embedding,
//!   lowering) work is independent, so the per-pass configuration loop
//!   runs over the shared worker pool ([`bernoulli_pool::Pool`]). The
//!   merge is deterministic: outcomes are combined in configuration
//!   order (the pool's `par_map` preserves input order) and ranked with
//!   a stable sort, so parallel and sequential searches return
//!   *byte-identical* candidates, `examined` and `pruned` counts.
//! - **Branch-and-bound pruning** — when a configuration's bound heap
//!   holds `keep` real candidate costs, an embedding whose admissible
//!   cost floor ([`crate::cost::cost_floor`], a product over its stepped
//!   groups of per-group minimum trip counts) strictly exceeds the worst
//!   of them is dropped before the expensive lowering + zero-safety
//!   work. The heap is seeded by a probe round (every configuration's
//!   first embedding variant, fanned out before the real search) and
//!   otherwise stays *local to the configuration*: the seed is frozen,
//!   never updated across pool threads, because a live global bound
//!   would prune differently depending on thread timing and break
//!   determinism.
//! - **Plan cache** — whole-search results are memoized by (program,
//!   views, statistics, search knobs); repeated identical synthesis
//!   requests return the ranked candidates without searching at all.
//!   The polyhedral layer underneath keeps its own memo caches
//!   ([`bernoulli_polyhedra::cache`]), which also accelerate *cold*
//!   searches that re-test structurally identical systems.

use crate::codegen::Codegen;
use crate::compiled::NativeCell;
use crate::config::{enumerate_configs, Config};
use crate::cost::{cost_floor, estimate_cost, WorkloadStats};
use crate::embed::embedding_variants;
use crate::emit::{emit_module_open, EmitError, ModuleText};
use crate::groups::compute_groups;
use crate::legal::{check_legality, relaxable_classes};
use crate::lower::lower_plans;
use crate::plan::Plan;
use crate::session::{bind_problem, BoundProblem};
use crate::spaces::candidate_spaces_opt;
use crate::zero::check_zero_safety;
use bernoulli_formats::view::FormatView;
use bernoulli_govern::{Budget, BudgetError};
use bernoulli_ir::{analyze, DepClass, Program};
use bernoulli_polyhedra::{Cx, PolyCaches};
use bernoulli_pool::{Pool, PoolError};
use std::collections::{BinaryHeap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Knobs bounding the search (paper §4.3 heuristics).
#[derive(Clone, Debug)]
pub struct SynthOptions {
    /// Cap on dimension orders per configuration.
    pub max_orders: usize,
    /// Cap on embedding variants per (configuration, order).
    pub max_embeddings: usize,
    /// Allow reassociation of associative reductions (every sparse BLAS
    /// does); disable for bitwise-faithful enumeration order.
    pub relax_reductions: bool,
    /// Also generate the deliberately naive iteration-centric order (for
    /// the ablation experiments).
    pub include_iteration_centric: bool,
    /// Workload statistics for the cost model.
    pub stats: WorkloadStats,
    /// Keep at most this many ranked candidates.
    pub keep: usize,
    /// Fan the per-configuration work out over the shared worker pool.
    /// Candidates, `examined` and `pruned` are byte-identical to a
    /// sequential run regardless of pool size.
    pub parallel: bool,
    /// Branch-and-bound: skip lowering embeddings whose admissible cost
    /// floor already exceeds the configuration's worst kept candidate.
    pub prune: bool,
    /// Memoize whole-search results: a second call with the same
    /// program, views, statistics and knobs returns the cached ranked
    /// candidates. Identical results either way; disable to time the
    /// search itself.
    pub cache_plans: bool,
}

impl Default for SynthOptions {
    fn default() -> Self {
        SynthOptions {
            max_orders: 16,
            max_embeddings: 12,
            relax_reductions: true,
            include_iteration_centric: false,
            stats: WorkloadStats::default(),
            keep: 64,
            parallel: true,
            prune: true,
            cache_plans: true,
        }
    }
}

/// A ranked candidate produced by the search.
#[derive(Clone, Debug)]
pub struct Candidate {
    pub plan: Plan,
    pub cost: f64,
    /// Perspective choices: (matrix, alternative) per reference.
    pub choices: Vec<(String, usize)>,
    /// Zero-safety notes (what made the restriction sound).
    pub safety_notes: Vec<String>,
}

/// Everything one search learned: the ranked candidates plus the search
/// accounting the benchmarks and experiments read.
#[derive(Clone, Debug)]
pub struct SearchReport {
    /// Surviving candidates, cheapest first (at most `opts.keep`).
    /// Shared: every report served from one plan-cache entry points at
    /// the same slice.
    pub candidates: Arc<[Candidate]>,
    /// Total (config, order, embedding) triples examined.
    pub examined: usize,
    /// Embeddings skipped by branch-and-bound before lowering.
    pub pruned: usize,
    /// Deduplicated rejection reasons (capped). Shared like
    /// `candidates`.
    pub reasons: Arc<[String]>,
    /// True iff the whole result came from the plan cache.
    pub plan_cache_hit: bool,
    /// True iff the plan-cache hit was served from the *persistent*
    /// (on-disk) tier rather than memory — a service warm-start.
    pub plan_cache_disk_hit: bool,
    /// True iff the compute budget ran out mid-search: the candidates
    /// are the verified-legal best-so-far (or the baseline fallback),
    /// not the full ranking. Degraded results are never stored in the
    /// plan cache.
    pub degraded: bool,
    /// What stopped the search early, when `degraded`.
    pub budget: Option<BudgetError>,
    /// Configurations whose per-pass work was skipped (fully or
    /// partially) by the early stop.
    pub skipped_configs: usize,
}

/// Why synthesis failed — the root of the `synth` error hierarchy.
/// Every lower layer's typed error converges here via `From`, so the
/// staged [`Session`](crate::session::Session) API can report any
/// caller-triggerable failure as one recoverable type.
#[derive(Clone, Debug)]
pub enum SynthError {
    /// The input program is malformed: a syntax error or a semantic one
    /// (undeclared arrays, out-of-scope variables, arity mismatches).
    InvalidProgram(bernoulli_ir::IrError),
    /// A format view was bound to a matrix the program never declares.
    UnknownMatrix { name: String },
    /// A view disagrees with how the program references the matrix
    /// (e.g. rank mismatch between dense attributes and indices).
    Config(crate::config::ConfigError),
    /// Constructing or converting a concrete format failed.
    Format(bernoulli_formats::FormatError),
    /// Executing a plan against an environment failed (unbound or
    /// dimension-mismatched operands, out-of-range accesses).
    Plan(crate::interp::PlanError),
    /// Specializing a plan to Rust source failed.
    Emit(crate::emit::EmitError),
    /// No legal, zero-safe plan was found; the payload describes the last
    /// rejection reasons observed.
    NoLegalPlan { reasons: Vec<String> },
    /// The compute budget (deadline, operation ceiling or cancellation)
    /// ran out before any legal plan was verified, and the baseline
    /// fallback could not produce one either. A search that has at
    /// least one verified candidate when the budget trips returns it
    /// with [`SearchReport::degraded`] set instead of this error.
    Deadline { cause: BudgetError, examined: usize },
    /// A parallel search job panicked; the pool contained the failure
    /// and stays usable.
    Pool(PoolError),
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthError::InvalidProgram(e) => write!(f, "invalid program: {e}"),
            SynthError::UnknownMatrix { name } => {
                write!(f, "matrix {name:?} is not declared by the program")
            }
            SynthError::Config(e) => write!(f, "{e}"),
            SynthError::Format(e) => write!(f, "{e}"),
            SynthError::Plan(e) => write!(f, "{e}"),
            SynthError::Emit(e) => write!(f, "{e}"),
            SynthError::NoLegalPlan { reasons } => {
                write!(f, "no legal plan found")?;
                for r in reasons.iter().take(5) {
                    write!(f, "; {r}")?;
                }
                Ok(())
            }
            SynthError::Deadline { cause, examined } => {
                write!(
                    f,
                    "search stopped before any legal plan was verified \
                     ({cause}; {examined} embeddings examined)"
                )
            }
            SynthError::Pool(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SynthError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SynthError::InvalidProgram(e) => Some(e),
            SynthError::Config(e) => Some(e),
            SynthError::Format(e) => Some(e),
            SynthError::Plan(e) => Some(e),
            SynthError::Emit(e) => Some(e),
            SynthError::Pool(e) => Some(e),
            SynthError::Deadline { cause, .. } => Some(cause),
            SynthError::UnknownMatrix { .. } | SynthError::NoLegalPlan { .. } => None,
        }
    }
}

impl From<PoolError> for SynthError {
    fn from(e: PoolError) -> SynthError {
        SynthError::Pool(e)
    }
}

impl From<bernoulli_ir::IrError> for SynthError {
    fn from(e: bernoulli_ir::IrError) -> SynthError {
        SynthError::InvalidProgram(e)
    }
}

impl From<bernoulli_ir::ParseError> for SynthError {
    fn from(e: bernoulli_ir::ParseError) -> SynthError {
        SynthError::InvalidProgram(e.into())
    }
}

impl From<bernoulli_ir::ValidateError> for SynthError {
    fn from(e: bernoulli_ir::ValidateError) -> SynthError {
        SynthError::InvalidProgram(e.into())
    }
}

impl From<crate::config::ConfigError> for SynthError {
    fn from(e: crate::config::ConfigError) -> SynthError {
        SynthError::Config(e)
    }
}

impl From<bernoulli_formats::FormatError> for SynthError {
    fn from(e: bernoulli_formats::FormatError) -> SynthError {
        SynthError::Format(e)
    }
}

impl From<crate::interp::PlanError> for SynthError {
    fn from(e: crate::interp::PlanError) -> SynthError {
        SynthError::Plan(e)
    }
}

impl From<crate::emit::EmitError> for SynthError {
    fn from(e: crate::emit::EmitError) -> SynthError {
        SynthError::Emit(e)
    }
}

/// Rejection reasons are deduplicated and capped at this many entries.
const MAX_REASONS: usize = 16;

fn push_reason(reasons: &mut Vec<String>, r: &str) {
    if reasons.len() < MAX_REASONS && !reasons.iter().any(|x| x == r) {
        reasons.push(r.to_string());
    }
}

/// Max-heap key ordering costs by `total_cmp` (NaN sorts largest, so a
/// degenerate cost model disables pruning rather than panicking).
struct OrdF64(f64);

impl PartialEq for OrdF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0).is_eq()
    }
}
impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Everything one configuration's search produced; merged in
/// configuration order so the fan-out stays deterministic.
#[derive(Default)]
struct ConfigOutcome {
    cands: Vec<Candidate>,
    examined: usize,
    pruned: usize,
    reasons: Vec<String>,
    /// Set when the budget tripped and this configuration's remaining
    /// work was abandoned (its partial results are still merged).
    skipped: bool,
}

/// Operation ceiling for the baseline-fallback search that runs after
/// the caller's budget is spent: enough for the always-realizable
/// iteration-centric lowering of every kernel in the suite, small
/// enough that an adversarial input still terminates promptly.
const FALLBACK_MAX_OPS: u64 = 4_000_000;

/// Runs one configuration's search, converting a panic into the same
/// typed error the pool's `try_par_map` reports — the sequential path
/// must not be the one place where a panicking configuration takes the
/// whole process down.
fn catch_outcome(f: impl FnOnce() -> ConfigOutcome) -> Result<ConfigOutcome, SynthError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|p| {
        let message = if let Some(s) = p.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = p.downcast_ref::<String>() {
            s.clone()
        } else {
            "search configuration panicked".to_string()
        };
        SynthError::Pool(PoolError::JobPanicked { message })
    })
}

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
    persist: Option<&crate::persist::PersistentPlanCache>,
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
    let view_map = problem.views();
    let deps = cache.deps(p, || Arc::clone(problem.shared_program()), cx.budget);
    let relaxable = relaxable_classes(p, &deps);
    let configs = enumerate_configs(p, view_map).map_err(SynthError::Config)?;

    // One configuration's search, shared verbatim by the sequential and
    // parallel paths (and, with `max_emb == 1`, by the probe round).
    // The branch-and-bound heap holds the `keep` cheapest costs seen by
    // this configuration *plus* the frozen probe seed; an embedding is
    // pruned only when its floor *strictly* exceeds the heap's worst
    // entry while the heap is full — every heap entry is a real
    // candidate's cost, so the pruned plan could never have ranked among
    // the global `keep` cheapest. The seed is computed once before the
    // fan-out and shared read-only, never updated across pool threads:
    // a live global bound would prune differently depending on thread
    // timing and break determinism.
    let search_config = |cfg: &Config,
                         unconstrained: bool,
                         iteration_centric: bool,
                         max_emb: usize,
                         seed: &[f64],
                         cx: Cx| {
        bernoulli_govern::faults::hit("synth.config", cx.budget);
        let mut o = ConfigOutcome::default();
        let mut bound: BinaryHeap<OrdF64> = seed.iter().map(|&c| OrdF64(c)).collect();
        let spaces = candidate_spaces_opt(
            cfg,
            opts.max_orders,
            opts.include_iteration_centric || iteration_centric,
            unconstrained,
        );
        for space in &spaces {
            // Coarse-grained budget gate: the fine-grained op accounting
            // lives inside the polyhedral layer; here we only bail out
            // between candidate spaces. Partial results stay merged —
            // every candidate already produced was fully verified.
            if cx.budget.is_some_and(|b| b.check().is_err()) {
                o.skipped = true;
                break;
            }
            let mut got_plan = false;
            for emb in embedding_variants(cfg, space, max_emb) {
                o.examined += 1;
                // The dimension walk is a direction-inference pre-pass;
                // the lowered plan is re-verified authoritatively, so a
                // "violation" here only means directions are partial.
                let leg = check_legality(
                    cx,
                    cfg,
                    space,
                    &emb,
                    &deps,
                    &relaxable,
                    opts.relax_reductions,
                );
                if let Some(v) = &leg.violation {
                    push_reason(&mut o.reasons, v);
                }
                let groups = compute_groups(cfg, space, &emb);
                // Branch-and-bound: the group structure is cheap (rank
                // computation) while lowering + zero safety underneath do
                // the polyhedral heavy lifting — prune between the two.
                if opts.prune && opts.keep > 0 && bound.len() == opts.keep {
                    let floor = cost_floor(cfg, space, &groups, &opts.stats);
                    if let Some(worst) = bound.peek() {
                        if floor > worst.0 {
                            o.pruned += 1;
                            continue;
                        }
                    }
                }
                for plan in lower_plans(
                    cx,
                    p,
                    cfg,
                    space,
                    &emb,
                    &groups,
                    &leg.must_increase,
                    view_map,
                    &deps,
                    &relaxable,
                    opts.relax_reductions,
                ) {
                    match check_zero_safety(cx, p, cfg, &plan, view_map) {
                        Ok(notes) => {
                            let cost = estimate_cost(p, cfg, &plan, &opts.stats);
                            got_plan = true;
                            if opts.keep > 0 {
                                bound.push(OrdF64(cost));
                                if bound.len() > opts.keep {
                                    bound.pop();
                                }
                            }
                            o.cands.push(Candidate {
                                plan,
                                cost,
                                choices: cfg.choices.clone(),
                                safety_notes: notes,
                            });
                        }
                        Err(e) => {
                            push_reason(&mut o.reasons, &e);
                        }
                    }
                }
                if got_plan {
                    break; // embedding variants only matter on failure
                }
            }
        }
        o
    };

    let mut out: Vec<Candidate> = Vec::new();
    let mut examined = 0usize;
    let mut pruned = 0usize;
    let mut skipped_configs = 0usize;
    let mut reasons: Vec<String> = Vec::new();

    // First pass: orders respecting each chain's nesting structure.
    // Second pass: unconstrained cluster orders (needed when the only
    // legal code enumerates an inner coordinate by interval before an
    // outer stored level, e.g. TS on DIA). Third pass: iteration-centric
    // orders — the dense fallback that is always realizable (random
    // access per element) for kernels whose statement structure defeats
    // every data-centric order.
    'passes: for (unconstrained, iteration_centric) in [(false, false), (true, false), (true, true)]
    {
        // Deterministic incumbent: probe every configuration's *first*
        // embedding variant, keep the `keep` cheapest probe costs, and
        // seed every configuration's bound heap with them for the real
        // search. The candidate-producing and expensive-but-fruitless
        // configurations are usually disjoint, so a purely config-local
        // bound never fills; the probe finds the producers at the cost
        // of one embedding per configuration. Probe outcomes are
        // discarded — the main search re-derives those candidates — so
        // `examined`/`pruned` reflect the main search only, and the seed
        // is a fixed multiset of real candidate costs whichever pool
        // size computed it.
        // Probing pays only when the bound heap can actually fill: each
        // configuration's first embedding contributes a handful of
        // candidates at most, so with `keep` far above the configuration
        // count the probe is pure overhead and is skipped.
        let mut seed: Vec<f64> = Vec::new();
        if opts.prune && opts.keep > 0 && configs.len() > 1 && opts.keep <= 2 * configs.len() {
            let probes: Vec<ConfigOutcome> = match pool {
                Some(pl) => pl.try_par_map(&configs, |cfg| {
                    search_config(cfg, unconstrained, iteration_centric, 1, &[], cx)
                })?,
                _ => configs
                    .iter()
                    .map(|cfg| {
                        catch_outcome(|| {
                            search_config(cfg, unconstrained, iteration_centric, 1, &[], cx)
                        })
                    })
                    .collect::<Result<_, _>>()?,
            };
            let mut h: BinaryHeap<OrdF64> = probes
                .iter()
                .flat_map(|o| o.cands.iter().map(|c| OrdF64(c.cost)))
                .collect();
            while h.len() > opts.keep {
                h.pop();
            }
            seed = h.into_iter().map(|c| c.0).collect();
        }
        let outcomes: Vec<ConfigOutcome> = match pool {
            // `par_map` returns results in input order, so the merge
            // below is independent of which thread finished first.
            Some(pl) if configs.len() > 1 => pl.try_par_map(&configs, |cfg| {
                search_config(
                    cfg,
                    unconstrained,
                    iteration_centric,
                    opts.max_embeddings,
                    &seed,
                    cx,
                )
            })?,
            _ => configs
                .iter()
                .map(|cfg| {
                    catch_outcome(|| {
                        search_config(
                            cfg,
                            unconstrained,
                            iteration_centric,
                            opts.max_embeddings,
                            &seed,
                            cx,
                        )
                    })
                })
                .collect::<Result<_, _>>()?,
        };
        for o in outcomes {
            examined += o.examined;
            pruned += o.pruned;
            skipped_configs += o.skipped as usize;
            for r in &o.reasons {
                push_reason(&mut reasons, r);
            }
            out.extend(o.cands);
        }
        // A tripped budget is sticky: later passes would only burn clock
        // re-checking it, so stop fanning out and degrade below.
        if cx.budget.is_some_and(|b| b.exceeded().is_some()) {
            break 'passes;
        }
        if !out.is_empty() {
            break 'passes;
        }
    }

    // Graceful degradation. A spent budget means the fan-out above may
    // have stopped early; whatever survived is still fully verified
    // (legality + zero safety ran to completion for every candidate in
    // `out`), so the best-so-far plan is sound to return — it is only
    // potentially sub-optimal, which `degraded: true` records. If *no*
    // candidate was verified before the budget tripped, fall back to the
    // guaranteed-legal baseline: a sequential iteration-centric search
    // (random access per element — always realizable) under a small
    // fresh ops-only budget so even adversarial inputs terminate.
    // Cancellation is the exception: the caller asked us to stop, so we
    // error out instead of burning more time on a fallback.
    let budget_cause = cx.budget.and_then(|b| b.exceeded());
    let degraded = budget_cause.is_some();
    if let Some(cause) = budget_cause {
        if out.is_empty() {
            if matches!(cause, BudgetError::Cancelled) {
                return Err(SynthError::Deadline { cause, examined });
            }
            let fb = Budget::unlimited().with_max_ops(FALLBACK_MAX_OPS);
            let fb = cx.with_budget(Some(&fb));
            for cfg in &configs {
                let o = catch_outcome(|| search_config(cfg, true, true, 1, &[], fb))?;
                examined += o.examined;
                pruned += o.pruned;
                skipped_configs += o.skipped as usize;
                for r in &o.reasons {
                    push_reason(&mut reasons, r);
                }
                let found = !o.cands.is_empty();
                out.extend(o.cands);
                if found {
                    break; // first legal baseline plan is enough
                }
            }
            if out.is_empty() {
                return Err(SynthError::Deadline { cause, examined });
            }
        }
    }

    // Stable sort: equal costs keep (configuration, generation) order,
    // and `total_cmp` ranks NaN costs last instead of panicking.
    out.sort_by(|a, b| a.cost.total_cmp(&b.cost));
    out.truncate(opts.keep);
    if out.is_empty() && reasons.is_empty() {
        reasons.push("no candidate lowered successfully".to_string());
    }
    let report = SearchReport {
        candidates: out.into(),
        examined,
        pruned,
        reasons: reasons.into(),
        plan_cache_hit: false,
        plan_cache_disk_hit: false,
        degraded,
        budget: budget_cause,
        skipped_configs,
    };
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

// ---------------------------------------------------------------------
// Whole-search plan cache.

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

/// The fingerprints' hasher: a multiply and a rotate per word, where
/// SipHash spends more on a request the cache holds than everything
/// else the lookup does. Nothing rests on its strength — `==` confirms
/// every match, and values crafted to collide cost their sender the
/// searches that values it never sent before cost as well.
#[derive(Default)]
struct Fingerprinter(u64);

impl Hasher for Fingerprinter {
    fn write(&mut self, bytes: &[u8]) {
        // Names are a letter or two: no `memcpy` into a word for them.
        for chunk in bytes.chunks(8) {
            let word = chunk.iter().rev().fold(0, |w, &b| w << 8 | u64::from(b));
            self.write_u64(word);
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_u8(&mut self, i: u8) {
        self.write_u64(u64::from(i));
    }

    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }

    fn write_isize(&mut self, i: isize) {
        self.write_u64(i as u64);
    }

    fn write_i64(&mut self, i: i64) {
        self.write_u64(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
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

/// A views slice as binding it resolves it: by name, and of two
/// bindings of one name the later.
pub(crate) fn views_by_name<'v>(views: &'v [(&str, FormatView)]) -> Vec<(&'v str, &'v FormatView)> {
    let mut named: Vec<_> = views.iter().rev().map(|(n, v)| (*n, v)).collect();
    // Stable: of equal names the later binding stays first, and stays.
    named.sort_by_key(|&(name, _)| name);
    named.dedup_by_key(|&mut (name, _)| name);
    named
}

/// The structural fingerprint of a bound problem: a hash over the
/// program and the views (listed by [`views_by_name`]), in the order
/// [`plan_cache_key`] prints them. The table of bound problems is
/// looked up by it, and a request's [`fingerprint`] continues from it.
pub(crate) fn problem_fingerprint(p: &Program, views: &[(&str, &FormatView)]) -> u64 {
    let mut h = Fingerprinter::default();
    p.hash(&mut h);
    views.hash(&mut h);
    h.finish()
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

/// Convenience for tests and examples: builds each candidate's
/// one-paragraph description.
pub fn describe_candidate(c: &Candidate) -> String {
    let choices: Vec<String> = c
        .choices
        .iter()
        .map(|(m, a)| format!("{m}:alt{a}"))
        .collect();
    format!("cost {:.1} [{}]\n{}", c.cost, choices.join(", "), c.plan)
}

#[cfg(test)]
#[path = "fingerprint_tests.rs"]
mod fingerprint_tests;
