//! The staged compiler front: a long-lived [`Session`] owning every
//! piece of shared state the synthesis pipeline accumulates — the
//! worker pool, the polyhedral memo caches, the whole-search plan
//! cache, and the search options — behind the four-stage API the
//! paper's pipeline implies:
//!
//! ```text
//! parse(text)          -> Program        (syntax + semantic checks)
//! analyze(&Program)    -> DepReport      (dependence classes, §3)
//! bind(&Program, fmts) -> BoundProblem   (views checked against decls)
//! compile(&Bound)      -> CompiledKernel (ranked candidates, §4)
//! ```
//!
//! A [`CompiledKernel`] can then be [`interpret`](CompiledKernel::interpret)-ed
//! against real formats or [`emit`](CompiledKernel::emit)-ted to Rust
//! source. Because the session owns its caches, warm/cold behavior is
//! explicit: a second identical `compile` on the *same* session hits
//! the plan cache (visible in [`SearchReport::plan_cache_hit`]), while
//! a fresh session starts cold — no process-global state involved.
//! Every failure a caller can trigger surfaces as a typed
//! [`SynthError`]; nothing on these paths panics.
//!
//! A session is one client of the compile driver a
//! [`Service`] runs behind admission: the session calls it directly,
//! with a private polyhedral memo and its own cancel token.

use crate::compiled::{KernelArg, KernelBackend, LoadError, LoadedKernel};
use crate::search::{CachedSearch, PlanCache, PlanCacheStats, SearchOutcome};
use crate::service::{Service, ServiceConfig};
use bernoulli_formats::view::FormatView;
use bernoulli_govern::CancelToken;
use bernoulli_ir::{parse_program, DepClass, Program};
use bernoulli_pool::Pool;
use bernoulli_synth::{
    run_plan, BoundProblem, Candidate, Codegen, ExecEnv, Plan, PlanError, RunStats, SearchReport,
    SynthError, SynthOptions,
};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Stage 1 of [`Session`] and [`crate::service::Service`]: parse *and
/// semantically validate* program text.
pub(crate) fn parse(text: &str) -> Result<Program, SynthError> {
    let p = parse_program(text)?;
    p.validate()?;
    Ok(p)
}

/// A long-lived compiler object: create once, compile many kernels.
///
/// Reusing one session across compiles is what makes repeated
/// synthesis fast — the plan cache returns identical requests without
/// searching, and the polyhedral memo caches accelerate even cold
/// searches over structurally similar systems. Dropping the session
/// drops all of that state.
pub struct Session {
    /// The compile driver, its options, pool, limits and caches; its
    /// memo is the session's own.
    driver: Service,
    /// Lazily created by [`Session::cancel_token`]; observed by every
    /// budget this session arms afterwards.
    cancel: OnceLock<CancelToken>,
}

impl Session {
    /// A session with default [`SynthOptions`], searching on the shared
    /// worker pool.
    pub fn new() -> Session {
        Session::with_options(SynthOptions::default())
    }

    /// A session with explicit search options.
    pub fn with_options(opts: SynthOptions) -> Session {
        let cfg = ServiceConfig {
            // Never read: a session calls the driver without admission.
            max_inflight: 1,
            max_queue: 0,
            default_deadline: None,
            op_budget: None,
            threads: None,
            persist_dir: None,
            opts,
        };
        Session {
            driver: Service::with_plan_cache(cfg, PlanCache::new()),
            cancel: OnceLock::new(),
        }
    }

    /// Gives the session its own worker pool of `nthreads` threads
    /// instead of the shared one.
    pub fn with_threads(mut self, nthreads: usize) -> Session {
        self.driver.pool = Some(Arc::new(Pool::new(nthreads)));
        self
    }

    /// Caps each `compile` at `limit` of wall-clock time. When the
    /// deadline passes mid-search, the compile degrades gracefully: it
    /// returns the best fully-verified plan found so far (or the
    /// guaranteed-legal baseline plan), with
    /// [`SearchReport::degraded`] set — see the crate docs on resource
    /// governance. The clock is re-armed at the start of every compile.
    pub fn with_deadline(mut self, limit: Duration) -> Session {
        self.driver.cfg.default_deadline = Some(limit);
        self
    }

    /// Caps each `compile` at `max_ops` abstract polyhedral operations
    /// (cf. isl's `max_operations`). Bounds the worst-case exponential
    /// blowup of Fourier–Motzkin elimination on adversarial programs;
    /// exhaustion degrades the search the same way a deadline does.
    pub fn with_op_budget(mut self, max_ops: u64) -> Session {
        self.driver.cfg.op_budget = Some(max_ops);
        self
    }

    /// A cancellation token observed by every subsequent `compile` on
    /// this session. Calling [`CancelToken::cancel`] (from any thread)
    /// makes an in-flight compile stop at its next budget check and
    /// return [`SynthError::Deadline`] with a `Cancelled` cause; unlike
    /// deadline/op exhaustion, cancellation does not run the baseline
    /// fallback — the caller asked for *stop*, not *best effort*.
    pub fn cancel_token(&self) -> CancelToken {
        self.cancel.get_or_init(CancelToken::new).clone()
    }

    /// The session's search options.
    pub fn options(&self) -> &SynthOptions {
        &self.driver.cfg.opts
    }

    /// Mutable access to the search options (takes effect on the next
    /// [`compile`](Session::compile)).
    pub fn options_mut(&mut self) -> &mut SynthOptions {
        &mut self.driver.cfg.opts
    }

    /// Stage 1 — parse *and semantically validate* program text.
    pub fn parse(&self, text: &str) -> Result<Program, SynthError> {
        parse(text)
    }

    /// Stage 2 — dependence analysis (paper §3): the dependence classes
    /// legality will be checked against. Infallible on a validated
    /// program; offered on the session so drivers can inspect or log
    /// the classes between parsing and binding. Each program is
    /// analysed once per session: repeats, and the searches of
    /// [`compile`](Session::compile), read the kept classes.
    pub fn analyze(&self, p: &Program) -> DepReport {
        self.driver.analyze(p)
    }

    /// Stage 3 — bind a format view to each sparse matrix, checking the
    /// views against the program's declarations: every bound name must
    /// be a declared array, and the view's dense rank must match the
    /// array kind (2 for matrices, 1 for vectors).
    ///
    /// A problem the session bound before is handed out again, shared:
    /// see [`Service::bind`].
    pub fn bind(
        &self,
        p: &Program,
        views: &[(&str, FormatView)],
    ) -> Result<BoundProblem, SynthError> {
        self.driver.bind(p, views)
    }

    /// Stage 4 — run the search (§4.2–4.3) with the session's options,
    /// pool and caches, returning the ranked candidates as an
    /// executable/emit-able [`CompiledKernel`].
    pub fn compile(&self, problem: &BoundProblem) -> Result<CompiledKernel, SynthError> {
        self.compile_with(problem, self.options())
    }

    /// [`compile`](Session::compile) with per-call option overrides
    /// (the session still supplies pool and caches). Used by the
    /// experiment drivers that sweep search knobs.
    pub fn compile_with(
        &self,
        problem: &BoundProblem,
        opts: &SynthOptions,
    ) -> Result<CompiledKernel, SynthError> {
        let cfg = &self.driver.cfg;
        let deadline = cfg.default_deadline.map(|d| Instant::now() + d);
        self.driver
            .drive(problem, opts, deadline, cfg.op_budget, self.cancel.get())
    }

    /// Structure-aware selection: analyze the instance bound to
    /// `matrix`, derive the cost-model statistics from the measured
    /// structure, compile `p` against every candidate format in
    /// `formats` (or [`crate::advise::DEFAULT_ADVISOR_FORMATS`] when
    /// empty), and return the `(format, plan)` pairs ranked by
    /// predicted cost together with the feature snapshot.
    ///
    /// Each candidate compile is an ordinary [`Session::compile_with`]
    /// run — same pool, caches, budget, and plan-cache keys — so a
    /// repeated `advise` on the same instance is served warm.
    pub fn advise(
        &self,
        p: &Program,
        matrix: &str,
        t: &bernoulli_formats::Triplets<f64>,
        formats: &[&str],
    ) -> Result<crate::advise::Advice, SynthError> {
        crate::advise::advise_core(p, matrix, t, formats, |bound, stats| {
            let mut opts = self.options().clone();
            opts.stats = stats.clone();
            Ok(self.compile_with(bound, &opts))
        })
    }

    /// Hit/miss totals of this session's whole-search plan cache, and
    /// how many dependence analyses it ran.
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.driver.plan_cache_stats()
    }

    /// Hit/miss totals of this session's polyhedral memo caches.
    pub fn poly_cache_stats(&self) -> bernoulli_polyhedra::CacheStats {
        self.driver.poly_cache_stats()
    }

    /// Drops every cached search result and polyhedral memo this
    /// session accumulated (cold-start measurements).
    pub fn clear_caches(&self) {
        self.driver.clear_caches();
    }
}

impl Default for Session {
    fn default() -> Session {
        Session::new()
    }
}

/// The dependence classes of a program (stage 2 output).
#[derive(Clone, Debug)]
pub struct DepReport {
    /// Non-empty dependence classes, one per (source, destination,
    /// array) with a satisfiable constraint system. Shared with the
    /// session or service that analysed the program.
    pub classes: Arc<[DepClass]>,
}

impl DepReport {
    /// Human-readable one-liners, one per class.
    pub fn describe(&self) -> Vec<String> {
        self.classes.iter().map(|c| c.describe()).collect()
    }

    pub fn len(&self) -> usize {
        self.classes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }
}

/// The outcome of a successful search: a handle onto the plan-cache
/// entry that owns the ranked candidates, the problem they were compiled
/// for, the durable key and everything derived from the best plan (the
/// emitted module, the native source) — so the kernel can run or emit
/// itself without re-supplying context, and a thousand kernels of one
/// entry share one of each. The handle's own is the report: the entry's,
/// marked with the tier that served this request.
#[derive(Clone, Debug)]
pub struct CompiledKernel {
    entry: Arc<CachedSearch>,
    report: SearchReport,
}

impl CompiledKernel {
    /// A kernel onto what answered a request, or
    /// [`SynthError::NoLegalPlan`] when the search kept no candidate;
    /// shared by [`Session::compile`] and
    /// [`crate::service::Service::compile`].
    pub(crate) fn from_search(found: SearchOutcome) -> Result<CompiledKernel, SynthError> {
        let report = found.report();
        if report.candidates.is_empty() {
            return Err(SynthError::NoLegalPlan {
                reasons: report.reasons.to_vec(),
            });
        }
        Ok(CompiledKernel {
            entry: found.entry,
            report,
        })
    }

    /// The cheapest legal, zero-safe candidate.
    pub fn best(&self) -> &Candidate {
        // Internal invariant: `from_search` errors with `NoLegalPlan`
        // instead of constructing an empty kernel.
        &self.report.candidates[0]
    }

    /// The best candidate's lowered plan.
    pub fn plan(&self) -> &Plan {
        &self.best().plan
    }

    /// The best candidate's estimated cost (Fig. 11 model).
    pub fn cost(&self) -> f64 {
        self.best().cost
    }

    /// All surviving candidates, cheapest first.
    pub fn candidates(&self) -> &[Candidate] {
        &self.report.candidates
    }

    /// The full search accounting (examined/pruned counts, rejection
    /// reasons, and whether the whole result came from the plan cache).
    pub fn report(&self) -> &SearchReport {
        &self.report
    }

    /// True iff this kernel was served from the session's plan cache
    /// without searching.
    pub fn from_cache(&self) -> bool {
        self.report.plan_cache_hit
    }

    /// The program this kernel was compiled from.
    pub fn program(&self) -> &Program {
        self.entry.problem.program()
    }

    /// The format views the kernel was compiled against.
    pub fn views(&self) -> &HashMap<String, FormatView> {
        self.entry.problem.views()
    }

    /// Executes the best plan against the environment (dynamic cursor
    /// API); unbound or mismatched operands surface as
    /// [`SynthError::Plan`].
    pub fn interpret(&self, env: &mut ExecEnv) -> Result<RunStats, SynthError> {
        Ok(run_plan(self.plan(), env)?)
    }

    /// Executes the `i`-th ranked candidate's plan (cost-model
    /// validation sweeps every candidate, not just the best).
    pub fn interpret_candidate(&self, i: usize, env: &mut ExecEnv) -> Result<RunStats, SynthError> {
        let c = self.report.candidates.get(i).ok_or_else(|| {
            SynthError::Plan(PlanError(format!(
                "candidate index {i} out of range ({} candidates)",
                self.report.candidates.len()
            )))
        })?;
        Ok(run_plan(&c.plan, env)?)
    }

    /// The logical cache key of this compile (program + views +
    /// options). The kernel store salts it with ABI version, generated
    /// source, and toolchain identity to name on-disk artifacts.
    pub fn cache_key(&self) -> &str {
        &self.entry.key
    }

    /// Compiles the best plan to native code at runtime and loads it:
    /// the emitted kernel is written as a self-contained cdylib crate,
    /// built with `rustc` through the default on-disk artifact store
    /// (warm artifacts skip the build entirely), and loaded behind the
    /// stable `extern "C"` ABI of [`crate::compiled`].
    pub fn load(&self) -> Result<LoadedKernel, LoadError> {
        self.load_in(&bernoulli_kernel_cache::KernelStore::default_store())
    }

    /// [`load`](CompiledKernel::load) against an explicit artifact
    /// store (tests and benchmarks point this at scratch directories).
    pub fn load_in(
        &self,
        store: &bernoulli_kernel_cache::KernelStore,
    ) -> Result<LoadedKernel, LoadError> {
        crate::compiled::load_kernel(
            self.program(),
            self.plan(),
            self.views(),
            self.codegen(),
            &self.entry.key,
            &self.entry.native,
            store,
        )
    }

    /// The execution backend for this kernel: native loaded code when
    /// the host can build it, otherwise the interpreter together with
    /// the typed reason ([`LoadError`]) native loading was impossible.
    /// Never fails — degradation is part of the contract.
    pub fn backend(&self) -> KernelBackend {
        self.backend_in(&bernoulli_kernel_cache::KernelStore::default_store())
    }

    /// [`backend`](CompiledKernel::backend) against an explicit
    /// artifact store.
    pub fn backend_in(&self, store: &bernoulli_kernel_cache::KernelStore) -> KernelBackend {
        match self.load_in(store) {
            Ok(k) if k.validated() => KernelBackend::Validated(k),
            Ok(k) => KernelBackend::Compiled(k),
            Err(reason) => KernelBackend::Interpreted { reason },
        }
    }

    /// Runs the kernel through whichever backend was selected, with
    /// the *same positional call convention* on both: `params` in
    /// program order, one [`KernelArg`] per declared array. The two
    /// paths are interchangeable — the equivalence tests in
    /// `bernoulli-blas` hold them bitwise-identical.
    pub fn run_with(
        &self,
        backend: &KernelBackend,
        params: &[i64],
        args: &mut [KernelArg<'_>],
    ) -> Result<(), SynthError> {
        match backend {
            KernelBackend::Validated(k) | KernelBackend::Compiled(k) => Ok(k.run(params, args)?),
            KernelBackend::Interpreted { .. } => {
                let operands = args.iter_mut().map(KernelArg::operand);
                crate::compiled::interp_positional(self.program(), self.plan(), params, operands)
            }
        }
    }

    /// The best plan's codegen record: every transformation the emitter
    /// and the kernel crate apply to it, derived once per plan-cache
    /// entry and shared by every kernel the entry serves.
    pub fn codegen(&self) -> &Codegen {
        self.entry.codegen()
    }

    /// Specializes the best plan to a self-contained Rust module
    /// (the paper's compiler-instantiated code, Fig. 9). The entry
    /// behind the kernel renders the module once; this writes
    /// `fn_name` into a copy of it.
    pub fn emit(&self, fn_name: &str) -> Result<String, SynthError> {
        Ok(self.entry.module()?.named(fn_name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bernoulli_formats::{Csr, SparseView, Triplets};

    const MVM: &str = "
        program mvm(M, N) {
          in matrix A[M][N];
          in vector x[N];
          inout vector y[M];
          for i in 0..M {
            for j in 0..N {
              y[i] = y[i] + A[i][j] * x[j];
            }
          }
        }
    ";

    fn csr() -> Csr {
        Csr::from_triplets(&Triplets::from_entries(
            3,
            3,
            &[(0, 0, 2.0), (1, 2, 1.0), (2, 1, 4.0)],
        ))
    }

    #[test]
    fn staged_pipeline_end_to_end() {
        let s = Session::new();
        let p = s.parse(MVM).unwrap();
        let deps = s.analyze(&p);
        assert!(!deps.is_empty(), "{:?}", deps.describe());
        let a = csr();
        let bound = s.bind(&p, &[("A", a.format_view())]).unwrap();
        let kernel = s.compile(&bound).unwrap();
        assert!(!kernel.from_cache());
        assert!(kernel.cost() > 0.0);

        let mut env = ExecEnv::new();
        env.set_param("M", 3).set_param("N", 3);
        env.bind_sparse("A", &a);
        env.bind_vec("x", vec![1.0, 2.0, 3.0]);
        env.bind_vec("y", vec![0.0; 3]);
        kernel.interpret(&mut env).unwrap();
        assert_eq!(env.take_vec("y"), vec![2.0, 3.0, 8.0]);

        let src = kernel.emit("mvm_csr").unwrap();
        assert!(src.contains("pub fn mvm_csr"), "{src}");
    }

    #[test]
    fn second_identical_compile_hits_session_plan_cache() {
        let s = Session::new();
        let p = s.parse(MVM).unwrap();
        let a = csr();
        let bound = s.bind(&p, &[("A", a.format_view())]).unwrap();
        let first = s.compile(&bound).unwrap();
        assert!(!first.from_cache());
        let second = s.compile(&bound).unwrap();
        assert!(second.from_cache(), "second identical compile must hit");
        assert_eq!(first.cost(), second.cost());
        let stats = s.plan_cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        // Session caches are independent: a fresh session starts cold.
        let fresh = Session::new();
        let b2 = fresh.bind(&p, &[("A", a.format_view())]).unwrap();
        assert!(!fresh.compile(&b2).unwrap().from_cache());
        // The polyhedral work accrued to the sessions' own caches.
        let poly = s.poly_cache_stats();
        assert!(poly.empty_hits + poly.empty_misses > 0, "{poly:?}");
    }

    /// Dependence analysis decides its emptiness tests under the
    /// session's own memo, not the process-wide one.
    #[test]
    fn analysis_feeds_the_session_memo() -> Result<(), SynthError> {
        let s = Session::new();
        let p = s.parse(MVM)?;
        assert_eq!(s.poly_cache_stats(), Default::default());
        assert!(!s.analyze(&p).is_empty());
        let poly = s.poly_cache_stats();
        assert!(poly.empty_misses > 0, "{poly:?}");
        Ok(())
    }

    /// A budget-starved compile returns a plan of its own under the
    /// full search's key; what a native load derives from that plan
    /// must neither land in a plan-cache entry nor come from one.
    #[test]
    fn a_degraded_kernel_shares_no_native_source() -> Result<(), SynthError> {
        let s = Session::new();
        let p = s.parse(MVM)?;
        let bound = s.bind(&p, &[("A", csr().format_view())])?;
        let store = bernoulli_kernel_cache::KernelStore::at(
            std::env::temp_dir().join(format!("bernoulli-session-degraded-{}", std::process::id())),
        );
        let degraded = s.driver.drive(&bound, s.options(), None, Some(40), None)?;
        assert!(degraded.report().degraded);
        // Fills the degraded kernel's cell, with the source or (on a
        // host without rustc) the typed reason there is none.
        let _ = degraded.load_in(&store);
        assert!(degraded.entry.native.get().is_some());

        let full = s.compile(&bound)?;
        assert!(!full.from_cache() && !full.report().degraded);
        assert_eq!(full.cache_key(), degraded.cache_key());
        assert!(!Arc::ptr_eq(&full.entry, &degraded.entry));
        assert!(
            full.entry.native.get().is_none(),
            "the entry's cell is untouched"
        );

        // Every kernel the entry serves is a handle onto the one entry.
        let hit = s.compile(&bound)?;
        assert!(hit.from_cache());
        assert!(Arc::ptr_eq(&hit.entry, &full.entry));
        let _ = full.load_in(&store);
        assert!(hit.entry.native.get().is_some());
        let _ = std::fs::remove_dir_all(store.dir());
        Ok(())
    }

    /// A plan-cache entry derives its best plan's codegen record at the
    /// first emission or load, once, and every kernel it serves reads
    /// that one record; a search alone derives none.
    #[test]
    fn the_codegen_record_is_derived_once_per_entry() -> Result<(), Box<dyn std::error::Error>> {
        let s = Session::new();
        let p = s.parse(MVM)?;
        let bound = s.bind(&p, &[("A", csr().format_view())])?;
        let k = s.compile(&bound)?;
        assert!(
            k.entry.codegen.get().is_none(),
            "the search derived a record"
        );
        let module = k.emit("f")?;
        let record = k
            .entry
            .codegen
            .get()
            .ok_or("the emission derived no record")?;
        assert!(record.ranged().is_some() && module.contains("pub fn f("));
        let hit = s.compile(&bound)?;
        assert!(hit.from_cache());
        assert!(std::ptr::eq(hit.codegen(), record));
        Ok(())
    }

    #[test]
    fn bind_rejects_unknown_matrix_and_rank_mismatch() {
        let s = Session::new();
        let p = s.parse(MVM).unwrap();
        let a = csr();
        match s.bind(&p, &[("B", a.format_view())]) {
            Err(SynthError::UnknownMatrix { name }) => assert_eq!(name, "B"),
            other => panic!("expected UnknownMatrix, got {other:?}"),
        }
        // A 2-d view bound to the 1-d vector x: rank disagreement.
        match s.bind(&p, &[("x", a.format_view())]) {
            Err(SynthError::Config(e)) => assert!(e.0.contains("dense attrs"), "{e}"),
            other => panic!("expected Config error, got {other:?}"),
        }
    }

    #[test]
    fn parse_rejects_malformed_and_invalid_programs() {
        let s = Session::new();
        match s.parse("program p( {") {
            Err(SynthError::InvalidProgram(bernoulli_ir::IrError::Parse(e))) => {
                assert!(e.line >= 1)
            }
            other => panic!("expected parse error, got {other:?}"),
        }
        // Syntactically fine, semantically invalid (undeclared array).
        match s.parse("program p(N) { for i in 0..N { z[i] = 1; } }") {
            Err(SynthError::InvalidProgram(bernoulli_ir::IrError::Validate(e))) => {
                assert!(e.0.contains("\"z\""), "{e}")
            }
            other => panic!("expected validate error, got {other:?}"),
        }
    }
}
