//! The search: over configurations, dimension orders, embeddings and
//! enumeration sources (paper §4.2–4.3). It keeps nothing between
//! calls; the plan cache is the driver's (`bernoulli-service`).
//!
//! Since S34 the search is built for speed without giving up
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

use crate::bind::BoundProblem;
use crate::config::{enumerate_configs, Config};
use crate::cost::{cost_floor, estimate_cost, WorkloadStats};
use crate::embed::embedding_variants;
use crate::groups::compute_groups;
use crate::legal::{check_legality, relaxable_classes};
use crate::lower::lower_plans;
use crate::plan::Plan;
use crate::spaces::candidate_spaces_opt;
use crate::zero::check_zero_safety;
use bernoulli_govern::{Budget, BudgetError};
use bernoulli_ir::DepClass;
use bernoulli_polyhedra::Cx;
use bernoulli_pool::{Pool, PoolError};
use std::collections::BinaryHeap;
use std::sync::Arc;

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
/// driver's staged `Session` API can report any caller-triggerable
/// failure as one recoverable type.
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

/// Searches `problem` under `opts` against its dependence classes
/// `deps`, fanning the configurations out over `pool` when one is given.
/// Every decision procedure, on this thread and on every pool job, runs
/// under `cx`: its polyhedral memo and its budget.
pub fn search(
    problem: &BoundProblem,
    opts: &SynthOptions,
    deps: &[DepClass],
    pool: Option<&Pool>,
    cx: Cx,
) -> Result<SearchReport, SynthError> {
    let p = problem.program();
    let view_map = problem.views();
    let relaxable = relaxable_classes(p, deps);
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
                    deps,
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
                    deps,
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

    // Every configuration's outcome in configuration order, whichever
    // thread finished first: fanned out over the pool when there are
    // several (`par_map` keeps input order), else run on this thread.
    let fan_out = |run: &(dyn Fn(&Config) -> ConfigOutcome + Sync)| match pool {
        Some(pl) if configs.len() > 1 => Ok(pl.try_par_map(&configs, run)?),
        _ => configs
            .iter()
            .map(|cfg| catch_outcome(|| run(cfg)))
            .collect(),
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
            let probes =
                fan_out(&|cfg| search_config(cfg, unconstrained, iteration_centric, 1, &[], cx))?;
            let mut h: BinaryHeap<OrdF64> = probes
                .iter()
                .flat_map(|o| o.cands.iter().map(|c| OrdF64(c.cost)))
                .collect();
            while h.len() > opts.keep {
                h.pop();
            }
            seed = h.into_iter().map(|c| c.0).collect();
        }
        let outcomes = fan_out(&|cfg| {
            search_config(
                cfg,
                unconstrained,
                iteration_centric,
                opts.max_embeddings,
                &seed,
                cx,
            )
        })?;
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
    Ok(SearchReport {
        candidates: out.into(),
        examined,
        pruned,
        reasons: reasons.into(),
        plan_cache_hit: false,
        plan_cache_disk_hit: false,
        degraded,
        budget: budget_cause,
        skipped_configs,
    })
}

/// The best plan of `p` with `views` bound, from a search under the
/// default options on this thread with a memo of its own.
#[cfg(test)]
pub(crate) fn best_plan(
    p: &bernoulli_ir::Program,
    views: &[(&str, bernoulli_formats::view::FormatView)],
) -> Result<Plan, SynthError> {
    let memo = bernoulli_polyhedra::PolyCaches::new();
    let (cx, opts) = (Cx::new(&memo), SynthOptions::default());
    let bound = crate::bind::bind_problem(p, views)?;
    let report = search(&bound, &opts, &bernoulli_ir::analyze(p, cx), None, cx)?;
    let Some(best) = report.candidates.first() else {
        let reasons = report.reasons.to_vec();
        return Err(SynthError::NoLegalPlan { reasons });
    };
    Ok(best.plan.clone())
}
