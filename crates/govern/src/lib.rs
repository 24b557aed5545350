//! Resource governance for the Bernoulli compiler: compute budgets,
//! wall-clock deadlines, cooperative cancellation, and (feature-gated)
//! fault injection for chaos testing.
//!
//! The polyhedral decision procedures at the heart of synthesis
//! (Fourier–Motzkin elimination, Farkas projection) have worst-case
//! exponential blowup, and the search fans out over many candidate
//! configurations. Production polyhedral libraries bound this with an
//! operation budget on the context (cf. isl's `max_operations`); this
//! crate provides the same idea as a standalone, dependency-free layer:
//!
//! - [`Budget`] — an operation-count ceiling, an optional wall-clock
//!   deadline, and a [`CancelToken`], all checked cooperatively via
//!   [`Budget::charge`] / [`Budget::check`]. Exhaustion is *sticky*: once
//!   a budget trips, every later check reports the same typed cause.
//! - a per-thread **installed budget** slot ([`install_scoped`],
//!   [`current`]) so deeply-nested library code can observe the active
//!   budget without threading it through every signature — the same
//!   pattern as `bernoulli-polyhedra`'s cache slot. The slot is
//!   thread-local so concurrent compiles never govern each other; the
//!   search layer re-installs the submitting thread's budget inside
//!   every pool job it fans out.
//! - [`faults`] — named fault-injection sites (panic / delay / budget
//!   starvation), compiled to no-ops unless the `faults` feature is on.
//! - [`SingleFlight`] — keyed leader/follower coalescing of concurrent
//!   identical work (one search per plan key, one `rustc` run per
//!   artifact); the only such mechanism in the workspace.
//!
//! Checking cost: [`Budget::charge`] is one relaxed `fetch_add` plus a
//! compare; the clock and the cancel flag are only consulted when the
//! accumulated operation count crosses a stride boundary
//! ([`DEADLINE_STRIDE`]), keeping the happy-path overhead well under the
//! 2% bar the benchmarks enforce.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

mod flight;
pub use flight::{Flight, SingleFlight};

/// How many charged operations may elapse between wall-clock / cancel
/// checks. Power of two so the boundary test is cheap.
pub const DEADLINE_STRIDE: u64 = 1024;

// Sticky exhaustion causes (stored in `Budget::cause`).
const CAUSE_NONE: u8 = 0;
const CAUSE_OPS: u8 = 1;
const CAUSE_DEADLINE: u8 = 2;
const CAUSE_CANCELLED: u8 = 3;

/// Why a [`Budget`] stopped the computation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetError {
    /// The operation-count ceiling was reached.
    Ops { used: u64, limit: u64 },
    /// The wall-clock deadline passed.
    Deadline { elapsed_ms: u64, limit_ms: u64 },
    /// The associated [`CancelToken`] was cancelled.
    Cancelled,
}

impl std::fmt::Display for BudgetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BudgetError::Ops { used, limit } => {
                write!(f, "operation budget exhausted ({used} of {limit} ops)")
            }
            BudgetError::Deadline {
                elapsed_ms,
                limit_ms,
            } => write!(f, "deadline exceeded ({elapsed_ms}ms of {limit_ms}ms)"),
            BudgetError::Cancelled => write!(f, "cancelled by caller"),
        }
    }
}

impl std::error::Error for BudgetError {}

/// A cheaply-clonable cooperative cancellation flag. Cancelling is
/// irrevocable for the budgets observing the token.
#[derive(Clone, Debug, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation; every budget holding this token trips at
    /// its next check.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Release);
    }

    /// Whether [`CancelToken::cancel`] has been called.
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }
}

/// A compute budget: operation ceiling + optional deadline + cancel
/// token. Thread-safe; one budget may be charged concurrently from all
/// pool workers.
#[derive(Debug)]
pub struct Budget {
    max_ops: Option<u64>,
    deadline: Option<Instant>,
    limit: Option<Duration>,
    start: Instant,
    cancel: Option<CancelToken>,
    ops: AtomicU64,
    cause: AtomicU8,
}

impl Default for Budget {
    fn default() -> Budget {
        Budget::unlimited()
    }
}

impl Budget {
    /// A budget with no limits (still observes a cancel token if one is
    /// attached later via [`Budget::with_cancel`]).
    pub fn unlimited() -> Budget {
        Budget {
            max_ops: None,
            deadline: None,
            limit: None,
            start: Instant::now(),
            cancel: None,
            ops: AtomicU64::new(0),
            cause: AtomicU8::new(CAUSE_NONE),
        }
    }

    /// Caps the number of abstract operations charged via
    /// [`Budget::charge`].
    pub fn with_max_ops(mut self, max_ops: u64) -> Budget {
        self.max_ops = Some(max_ops);
        self
    }

    /// Arms a wall-clock deadline `limit` from *now*.
    pub fn with_deadline(mut self, limit: Duration) -> Budget {
        self.start = Instant::now();
        self.deadline = Some(self.start + limit);
        self.limit = Some(limit);
        self
    }

    /// Attaches a cancellation token.
    pub fn with_cancel(mut self, token: CancelToken) -> Budget {
        self.cancel = Some(token);
        self
    }

    /// Operations charged so far.
    pub fn ops_used(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// The sticky exhaustion cause, if the budget has tripped.
    pub fn exceeded(&self) -> Option<BudgetError> {
        self.error_for(self.cause.load(Ordering::Acquire))
    }

    fn error_for(&self, cause: u8) -> Option<BudgetError> {
        match cause {
            CAUSE_NONE => None,
            CAUSE_OPS => Some(BudgetError::Ops {
                used: self.ops_used(),
                limit: self.max_ops.unwrap_or(0),
            }),
            CAUSE_DEADLINE => Some(BudgetError::Deadline {
                elapsed_ms: self.start.elapsed().as_millis() as u64,
                limit_ms: self.limit.unwrap_or(Duration::ZERO).as_millis() as u64,
            }),
            _ => Some(BudgetError::Cancelled),
        }
    }

    fn trip(&self, cause: u8) -> BudgetError {
        // First cause wins; later checks keep reporting it.
        let _ = self
            .cause
            .compare_exchange(CAUSE_NONE, cause, Ordering::AcqRel, Ordering::Acquire);
        self.error_for(self.cause.load(Ordering::Acquire))
            .expect("tripped budget has a cause")
    }

    /// Forces the budget into the exhausted state (used by the fault
    /// injector to simulate starvation).
    pub fn starve(&self) {
        let _ = self.trip(CAUSE_OPS);
    }

    /// Charges `n` abstract operations. The clock and cancel flag are
    /// only consulted when the running total crosses a
    /// [`DEADLINE_STRIDE`] boundary; the op ceiling is exact.
    pub fn charge(&self, n: u64) -> Result<(), BudgetError> {
        if let Some(err) = self.exceeded() {
            return Err(err);
        }
        let before = self.ops.fetch_add(n, Ordering::Relaxed);
        let used = before.saturating_add(n);
        if let Some(limit) = self.max_ops {
            if used > limit {
                return Err(self.trip(CAUSE_OPS));
            }
        }
        if before / DEADLINE_STRIDE != used / DEADLINE_STRIDE {
            self.check_time()?;
        }
        Ok(())
    }

    /// Checks the deadline and the cancel token *now* (plus any sticky
    /// cause), without charging operations. Use at coarse boundaries
    /// (per search configuration, per embedding).
    pub fn check(&self) -> Result<(), BudgetError> {
        if let Some(err) = self.exceeded() {
            return Err(err);
        }
        self.check_time()
    }

    fn check_time(&self) -> Result<(), BudgetError> {
        if let Some(tok) = &self.cancel {
            if tok.is_cancelled() {
                return Err(self.trip(CAUSE_CANCELLED));
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(self.trip(CAUSE_DEADLINE));
            }
        }
        Ok(())
    }
}

// Per-thread installed budget, observed by library code that has no
// budget parameter (polyhedra, search inner loops, pool workers). This
// slot is deliberately thread-local rather than process-wide: the
// compile service runs many sessions concurrently, and a process-wide
// slot would let one request's budget govern (or cancel) another's
// work. The search layer captures the submitting thread's budget and
// re-installs it inside every pool job, so worker threads still observe
// the budget of the compile they are working for.
thread_local! {
    static CURRENT: std::cell::RefCell<Option<Arc<Budget>>> =
        const { std::cell::RefCell::new(None) };
}

/// The budget installed on the current thread, if any.
pub fn current() -> Option<Arc<Budget>> {
    CURRENT.with(|slot| slot.borrow().clone())
}

/// Installs `budget` on the current thread (replacing any previous one)
/// and returns the previous occupant. Prefer [`install_scoped`].
pub fn install(budget: Option<Arc<Budget>>) -> Option<Arc<Budget>> {
    CURRENT.with(|slot| std::mem::replace(&mut *slot.borrow_mut(), budget))
}

/// Installs `budget` for the lifetime of the returned guard; the
/// previous budget (possibly none) is restored on drop. The
/// installation is per-thread, so concurrent compiles on different
/// threads are fully isolated from each other's budgets. Code that
/// fans work out to a pool must capture [`current`] before submitting
/// and re-install it inside each job (the synthesis search does this)
/// — a bare pool worker thread has no installed budget of its own.
pub fn install_scoped(budget: Option<Arc<Budget>>) -> ScopedBudget {
    ScopedBudget {
        prev: install(budget),
    }
}

/// Guard restoring the previously installed budget (see
/// [`install_scoped`]).
pub struct ScopedBudget {
    prev: Option<Arc<Budget>>,
}

impl Drop for ScopedBudget {
    fn drop(&mut self) {
        install(self.prev.take());
    }
}

/// Charges `n` operations against the installed budget; a no-op `Ok`
/// when no budget is installed.
pub fn charge(n: u64) -> Result<(), BudgetError> {
    match current() {
        Some(b) => b.charge(n),
        None => Ok(()),
    }
}

/// Checks the installed budget's deadline/cancel state; a no-op `Ok`
/// when no budget is installed.
pub fn check() -> Result<(), BudgetError> {
    match current() {
        Some(b) => b.check(),
        None => Ok(()),
    }
}

/// Fault injection for chaos testing: named sites scattered through the
/// pool, the polyhedral layer, and the search call [`faults::hit`]; a
/// fault table (configured programmatically or via the
/// `BERNOULLI_FAULTS` environment variable) decides whether the site
/// panics, sleeps, or starves the installed budget. Without the
/// `faults` feature every site compiles to an empty inline function.
#[cfg(feature = "faults")]
pub mod faults {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    use std::time::Duration;

    /// What an armed site does when hit.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    enum Action {
        /// Panic with a message naming the site.
        Panic,
        /// Sleep for the given number of milliseconds.
        DelayMs(u64),
        /// Force the installed budget into the exhausted state.
        Starve,
        /// Make the site report an injected failure as its own *typed*
        /// error (observed through [`fail`]; sites that only call
        /// [`hit`] ignore it).
        Fail,
    }

    #[derive(Debug)]
    struct Fault {
        action: Action,
        /// How many more hits fire (`u64::MAX` = unlimited).
        remaining: u64,
    }

    fn table() -> &'static Mutex<HashMap<String, Fault>> {
        static TABLE: OnceLock<Mutex<HashMap<String, Fault>>> = OnceLock::new();
        TABLE.get_or_init(|| {
            let spec = std::env::var("BERNOULLI_FAULTS").unwrap_or_default();
            Mutex::new(parse(&spec))
        })
    }

    /// Parses a fault spec: comma-separated `site=action` entries where
    /// `action` is `panic`, `delay:<ms>`, or `starve`, optionally
    /// suffixed `#<n>` to fire only the first `n` hits. Example:
    /// `pool.worker=panic#1,polyhedra.fm=delay:5`.
    fn parse(spec: &str) -> HashMap<String, Fault> {
        let mut out = HashMap::new();
        for entry in spec.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let Some((site, action)) = entry.split_once('=') else {
                continue;
            };
            let (action, remaining) = match action.split_once('#') {
                Some((a, n)) => (a, n.parse().unwrap_or(1)),
                None => (action, u64::MAX),
            };
            let action = if action == "panic" {
                Action::Panic
            } else if action == "starve" {
                Action::Starve
            } else if action == "fail" {
                Action::Fail
            } else if let Some(ms) = action.strip_prefix("delay:") {
                Action::DelayMs(ms.parse().unwrap_or(1))
            } else {
                continue;
            };
            out.insert(site.trim().to_string(), Fault { action, remaining });
        }
        out
    }

    /// Replaces the fault table with the given spec (see the grammar on
    /// the parser). Tests use this to arm and disarm sites.
    pub fn configure(spec: &str) {
        *table().lock().unwrap_or_else(|e| e.into_inner()) = parse(spec);
    }

    /// Disarms every site.
    pub fn clear() {
        configure("");
    }

    /// Consumes one hit of the site's armed fault, if any.
    fn take(site: &str) -> Option<Action> {
        let mut map = table().lock().unwrap_or_else(|e| e.into_inner());
        match map.get_mut(site) {
            Some(f) if f.remaining > 0 => {
                if f.remaining != u64::MAX {
                    f.remaining -= 1;
                }
                Some(f.action)
            }
            _ => None,
        }
    }

    /// A named fault-injection site. Panics, sleeps, or starves the
    /// installed budget if the site is armed; otherwise does nothing.
    /// A `fail` arming is ignored here — only sites that observe
    /// [`fail`] can surface it as a typed error.
    pub fn hit(site: &str) {
        match take(site) {
            None | Some(Action::Fail) => {}
            Some(Action::Panic) => panic!("injected fault at {site}"),
            Some(Action::DelayMs(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            Some(Action::Starve) => {
                if let Some(b) = super::current() {
                    b.starve();
                }
            }
        }
    }

    /// A named fault-injection site for code paths that report injected
    /// faults as their own *typed* errors instead of panicking: returns
    /// `true` when the site is armed with the `fail` action (the caller
    /// must then take its documented failure path). Other armings
    /// (panic/delay/starve) behave exactly as [`hit`] and return
    /// `false`.
    pub fn fail(site: &str) -> bool {
        match take(site) {
            None => false,
            Some(Action::Fail) => true,
            Some(Action::Panic) => panic!("injected fault at {site}"),
            Some(Action::DelayMs(ms)) => {
                std::thread::sleep(Duration::from_millis(ms));
                false
            }
            Some(Action::Starve) => {
                if let Some(b) = super::current() {
                    b.starve();
                }
                false
            }
        }
    }
}

/// No-op fault sites (the `faults` feature is off).
#[cfg(not(feature = "faults"))]
pub mod faults {
    /// Disabled fault site: compiles to nothing.
    #[inline(always)]
    pub fn hit(_site: &str) {}

    /// Disabled typed-error fault site: compiles to `false`.
    #[inline(always)]
    pub fn fail(_site: &str) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The budget slot is thread-local, so tests that install budgets
    /// no longer interfere across threads; the lock is kept only to
    /// document the historical hazard and guard same-thread reentry.
    static SLOT: Mutex<()> = Mutex::new(());

    #[test]
    fn unlimited_budget_never_trips() {
        let b = Budget::unlimited();
        for _ in 0..10_000 {
            b.charge(17).unwrap();
        }
        b.check().unwrap();
        assert_eq!(b.exceeded(), None);
        assert_eq!(b.ops_used(), 170_000);
    }

    #[test]
    fn op_ceiling_is_exact_and_sticky() {
        let b = Budget::unlimited().with_max_ops(100);
        b.charge(60).unwrap();
        b.charge(40).unwrap(); // exactly at the limit is fine
        let err = b.charge(1).unwrap_err();
        assert!(matches!(
            err,
            BudgetError::Ops {
                used: 101,
                limit: 100
            }
        ));
        // Sticky: both check() and charge() keep failing.
        assert!(b.check().is_err());
        assert!(b.charge(0).is_err());
        assert!(matches!(b.exceeded(), Some(BudgetError::Ops { .. })));
    }

    #[test]
    fn deadline_trips_at_stride_boundary() {
        let b = Budget::unlimited().with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        // Small charges inside one stride don't consult the clock...
        b.charge(1).unwrap();
        // ...but a stride-crossing charge does.
        let err = b.charge(DEADLINE_STRIDE).unwrap_err();
        assert!(matches!(err, BudgetError::Deadline { .. }));
    }

    #[test]
    fn check_sees_deadline_immediately() {
        let b = Budget::unlimited().with_deadline(Duration::from_millis(0));
        std::thread::sleep(Duration::from_millis(2));
        assert!(matches!(b.check(), Err(BudgetError::Deadline { .. })));
    }

    #[test]
    fn cancel_token_trips_checks() {
        let tok = CancelToken::new();
        let b = Budget::unlimited().with_cancel(tok.clone());
        b.check().unwrap();
        assert!(!tok.is_cancelled());
        tok.cancel();
        assert_eq!(b.check(), Err(BudgetError::Cancelled));
        assert_eq!(b.exceeded(), Some(BudgetError::Cancelled));
    }

    #[test]
    fn starve_marks_ops_exhaustion() {
        let b = Budget::unlimited();
        b.starve();
        assert!(matches!(b.exceeded(), Some(BudgetError::Ops { .. })));
    }

    #[test]
    fn scoped_install_restores_previous() {
        let _lock = SLOT.lock().unwrap_or_else(|e| e.into_inner());
        let outer = Arc::new(Budget::unlimited().with_max_ops(7));
        let _g = install_scoped(Some(Arc::clone(&outer)));
        {
            let inner = Arc::new(Budget::unlimited().with_max_ops(9));
            let _g2 = install_scoped(Some(Arc::clone(&inner)));
            assert!(Arc::ptr_eq(&current().unwrap(), &inner));
        }
        assert!(Arc::ptr_eq(&current().unwrap(), &outer));
    }

    #[test]
    fn installs_are_thread_local() {
        let mine = Arc::new(Budget::unlimited().with_max_ops(5));
        let _g = install_scoped(Some(Arc::clone(&mine)));
        // A freshly spawned thread sees no budget, and installing one
        // there does not disturb this thread's installation.
        std::thread::spawn(|| {
            assert!(current().is_none());
            let theirs = Arc::new(Budget::unlimited().with_max_ops(11));
            let _h = install_scoped(Some(Arc::clone(&theirs)));
            assert!(Arc::ptr_eq(&current().unwrap(), &theirs));
        })
        .join()
        .unwrap();
        assert!(Arc::ptr_eq(&current().unwrap(), &mine));
    }

    #[test]
    fn free_functions_are_noops_without_budget() {
        let _lock = SLOT.lock().unwrap_or_else(|e| e.into_inner());
        let _g = install_scoped(None);
        charge(1_000_000).unwrap();
        check().unwrap();
    }

    #[test]
    fn errors_display() {
        let b = Budget::unlimited().with_max_ops(1);
        let e = b.charge(2).unwrap_err();
        assert!(e.to_string().contains("operation budget"));
        assert!(BudgetError::Cancelled.to_string().contains("cancelled"));
        let d = BudgetError::Deadline {
            elapsed_ms: 12,
            limit_ms: 10,
        };
        assert!(d.to_string().contains("deadline"));
    }
}
