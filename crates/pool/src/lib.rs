//! Reusable compute pool: persistent workers with scoped, chunk-stealing
//! execution and a deterministic parallel map.
//!
//! Hoisted out of `bernoulli-blas::par` (S32) so that both the generated
//! kernels *and* the synthesizer's search (S34) share one process-wide
//! set of worker threads. The original `crossbeam::scope` design spawned
//! fresh OS threads on every kernel call — tens of microseconds of
//! overhead against kernels that finish in ten. This pool spawns its
//! workers once (lazily, on first parallel call), parks them on
//! channels, and broadcasts each job to every worker; a job is a
//! borrowed closure plus an atomic chunk counter, so workers *steal
//! chunks*, not rows, and load imbalance between chunks self-corrects.
//!
//! Three entry points, from rawest to most convenient:
//!
//! - [`Pool::run`] — `f(chunk)` for every `chunk in 0..nchunks` through
//!   a `&dyn Fn` (object-safe core; no allocation per call);
//! - [`Pool::scope`] — the same with a generic closure;
//! - [`Pool::par_map`] — maps a slice to a `Vec` of results whose order
//!   matches the input order regardless of which worker computed what,
//!   so callers get **deterministic** output for free.
//!
//! Each has a `try_` twin ([`Pool::try_run`], [`Pool::try_scope`],
//! [`Pool::try_par_map`]) reporting a panicking chunk as
//! [`PoolError::JobPanicked`] (payload preserved) instead of unwinding.
//! A panic poisons only its own job: the pool stays healthy, and a
//! worker thread that dies outright is respawned on the next
//! submission.
//!
//! Borrowed data is safe for the same reason `std::thread::scope` is:
//! [`Pool::run`] does not return until every worker has finished the
//! job (a latch counts them down), so the erased-lifetime closure and
//! everything it borrows strictly outlive its use. Determinism is *not*
//! scheduling-dependent: every consumer built on the pool writes either
//! to chunk-disjoint output slots or to per-chunk partial buffers that
//! the caller reduces in fixed chunk order.
//!
//! The pool size comes from `BERNOULLI_THREADS`, falling back to
//! [`std::thread::available_parallelism`].

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{channel, SendError, Sender};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Environment variable overriding the worker-pool size.
pub const THREADS_ENV: &str = "BERNOULLI_THREADS";

/// Typed failure of a parallel job: some chunk panicked. The panic is
/// contained to that job — the pool itself stays healthy (dead workers
/// are respawned on the next submission) and the panic payload is
/// preserved in `message`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PoolError {
    /// A chunk of the submitted job panicked; `message` is the panic
    /// payload (when it was a string, as `panic!` payloads usually are).
    JobPanicked { message: String },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::JobPanicked { message } => {
                write!(f, "parallel job panicked: {message}")
            }
        }
    }
}

impl std::error::Error for PoolError {}

/// Best-effort extraction of the human-readable panic message.
fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Counts outstanding workers for one job; the submitting thread blocks
/// on it until the count reaches zero. Also carries the job's failure
/// state: the `poisoned` flag plus the first captured panic payload.
struct Latch {
    remaining: Mutex<usize>,
    all_done: Condvar,
    poisoned: AtomicBool,
    payload: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Latch {
    fn new(count: usize) -> Latch {
        Latch {
            remaining: Mutex::new(count),
            all_done: Condvar::new(),
            poisoned: AtomicBool::new(false),
            payload: Mutex::new(None),
        }
    }

    fn count_down(&self) {
        let mut left = self.remaining.lock().unwrap_or_else(|e| e.into_inner());
        *left -= 1;
        if *left == 0 {
            self.all_done.notify_all();
        }
    }

    fn wait(&self) {
        let mut left = self.remaining.lock().unwrap_or_else(|e| e.into_inner());
        while *left > 0 {
            left = self.all_done.wait(left).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Marks the job failed, keeping the *first* panic payload.
    fn record_panic(&self, p: Box<dyn Any + Send>) {
        let mut slot = self.payload.lock().unwrap_or_else(|e| e.into_inner());
        if slot.is_none() {
            *slot = Some(p);
        }
        drop(slot);
        self.poisoned.store(true, Ordering::Release);
    }

    /// Takes the failure payload after [`Latch::wait`] returned.
    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        if !self.poisoned.load(Ordering::Acquire) {
            return None;
        }
        let taken = self
            .payload
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .take();
        Some(taken.unwrap_or_else(|| Box::new("pool worker panicked".to_string())))
    }
}

/// One broadcast unit of work: chunks `0..nchunks` of a borrowed
/// `Fn(usize)`, claimed through a shared counter.
struct Job {
    /// Borrowed closure with its lifetime erased; valid until `latch`
    /// releases the submitter (see module docs for the soundness
    /// argument).
    func: *const (dyn Fn(usize) + Sync),
    next_chunk: Arc<AtomicUsize>,
    nchunks: usize,
    latch: Arc<Latch>,
    /// Whether dropping this job releases one latch share. True for the
    /// copies sent to workers, false for the submitter's own lane.
    counts_down: bool,
}

/// The latch share is released by `Drop`, not by the worker loop, so
/// every way a worker-bound job can end — chunks drained, the worker
/// thread unwinding mid-job, or the job sitting unconsumed in a dead
/// worker's channel when the receiver is dropped — counts down exactly
/// once and the submitter can never deadlock.
impl Drop for Job {
    fn drop(&mut self) {
        if self.counts_down {
            self.latch.count_down();
        }
    }
}

// SAFETY: `func` points at a `Sync` closure that the submitting thread
// keeps alive until every worker has counted down `latch`, which happens
// strictly after the last dereference.
unsafe impl Send for Job {}

impl Job {
    /// Claims and runs chunks until the shared counter is exhausted.
    fn run_chunks(&self) {
        let func = unsafe { &*self.func };
        let result = catch_unwind(AssertUnwindSafe(|| loop {
            let chunk = self.next_chunk.fetch_add(1, Ordering::Relaxed);
            if chunk >= self.nchunks {
                break;
            }
            func(chunk);
        }));
        if let Err(p) = result {
            self.latch.record_panic(p);
        }
    }
}

/// One worker thread's submission endpoint. The sender sits behind a
/// mutex so a submitter that finds the worker dead (its receiver
/// dropped) can respawn it in place.
struct WorkerSlot {
    id: usize,
    tx: Mutex<Sender<Job>>,
}

/// Spawns worker `k`'s thread and returns its job channel.
fn spawn_worker(k: usize) -> Sender<Job> {
    let (tx, rx) = channel::<Job>();
    std::thread::Builder::new()
        .name(format!("bernoulli-par-{k}"))
        .spawn(move || {
            while let Ok(job) = rx.recv() {
                // If the injected fault kills this thread, the job's
                // `Drop` still releases its latch share and the other
                // lanes drain the chunk counter; the next submission
                // respawns us.
                bernoulli_govern::faults::hit("pool.worker", None);
                job.run_chunks();
            }
        })
        .expect("spawning pool worker");
    tx
}

/// A persistent pool of parked worker threads.
pub struct Pool {
    workers: Vec<WorkerSlot>,
}

impl Pool {
    /// Builds a pool executing on `nthreads` lanes: `nthreads - 1`
    /// parked workers plus the submitting thread itself.
    pub fn new(nthreads: usize) -> Pool {
        let nworkers = nthreads.max(1) - 1;
        let workers = (0..nworkers)
            .map(|k| WorkerSlot {
                id: k,
                tx: Mutex::new(spawn_worker(k)),
            })
            .collect();
        Pool { workers }
    }

    /// The process-wide pool, created on first use with
    /// [`default_threads`] lanes.
    pub fn global() -> &'static Pool {
        static GLOBAL: OnceLock<Pool> = OnceLock::new();
        GLOBAL.get_or_init(|| Pool::new(default_threads()))
    }

    /// Number of execution lanes (workers + the submitting thread).
    pub fn nthreads(&self) -> usize {
        self.workers.len() + 1
    }

    /// Executes `f(chunk)` for every `chunk in 0..nchunks`, distributing
    /// chunks over the pool's lanes, and returns when all chunks are
    /// done. The submitting thread participates, so `run` makes progress
    /// even on a pool with zero workers.
    ///
    /// # Panics
    /// Re-raises the panic of the first failing chunk with its original
    /// payload (wherever the chunk ran). The pool itself survives: the
    /// failed job's chunks are abandoned but later submissions run
    /// normally. Use [`Pool::try_run`] for a typed error instead.
    pub fn run(&self, nchunks: usize, f: &(dyn Fn(usize) + Sync)) {
        if let Err(p) = self.run_inner(nchunks, f) {
            resume_unwind(p);
        }
    }

    /// [`Pool::run`] with a chunk panic reported as
    /// [`PoolError::JobPanicked`] instead of resuming the unwind.
    pub fn try_run(&self, nchunks: usize, f: &(dyn Fn(usize) + Sync)) -> Result<(), PoolError> {
        self.run_inner(nchunks, f)
            .map_err(|p| PoolError::JobPanicked {
                message: panic_message(p.as_ref()),
            })
    }

    /// The shared execution core: runs the job to completion and
    /// reports the first chunk panic as the raw payload.
    fn run_inner(
        &self,
        nchunks: usize,
        f: &(dyn Fn(usize) + Sync),
    ) -> Result<(), Box<dyn Any + Send>> {
        if nchunks == 0 {
            return Ok(());
        }
        if nchunks == 1 || self.workers.is_empty() {
            return catch_unwind(AssertUnwindSafe(|| {
                for chunk in 0..nchunks {
                    f(chunk);
                }
            }));
        }
        // Erase the borrow lifetime; `latch.wait()` below restores the
        // invariant that `f` outlives all uses.
        let func = unsafe {
            std::mem::transmute::<*const (dyn Fn(usize) + Sync), *const (dyn Fn(usize) + Sync)>(
                f as *const _,
            )
        };
        let fanout = self.workers.len().min(nchunks - 1);
        let latch = Arc::new(Latch::new(fanout));
        let next_chunk = Arc::new(AtomicUsize::new(0));
        for slot in &self.workers[..fanout] {
            let job = Job {
                func,
                next_chunk: Arc::clone(&next_chunk),
                nchunks,
                latch: Arc::clone(&latch),
                counts_down: true,
            };
            let mut tx = slot.tx.lock().unwrap_or_else(|e| e.into_inner());
            if let Err(SendError(job)) = tx.send(job) {
                // The worker died (its receiver is gone) — this only
                // happens when a fault killed the thread mid-loop.
                // Respawn it in place and hand it the job.
                *tx = spawn_worker(slot.id);
                tx.send(job).expect("freshly spawned pool worker");
            }
        }
        // The submitting thread is a lane too.
        let own = Job {
            func,
            next_chunk,
            nchunks,
            latch: Arc::clone(&latch),
            counts_down: false,
        };
        own.run_chunks();
        latch.wait();
        match latch.take_panic() {
            Some(p) => Err(p),
            None => Ok(()),
        }
    }

    /// Generic form of [`Pool::run`]: executes `f(chunk)` for every
    /// `chunk in 0..nchunks` without requiring the caller to build a
    /// `&dyn` reference.
    pub fn scope<F: Fn(usize) + Sync>(&self, nchunks: usize, f: F) {
        self.run(nchunks, &f);
    }

    /// [`Pool::scope`] with a chunk panic reported as
    /// [`PoolError::JobPanicked`].
    pub fn try_scope<F: Fn(usize) + Sync>(&self, nchunks: usize, f: F) -> Result<(), PoolError> {
        self.try_run(nchunks, &f)
    }

    /// Applies `f` to every element of `items` on the pool and collects
    /// the results **in input order** — the output is a pure function of
    /// `items` and `f`, independent of the pool size and of scheduling,
    /// which is what lets the synthesis search fan out per-configuration
    /// work and still return byte-identical rankings.
    ///
    /// # Panics
    /// Re-raises the first per-item panic with its original payload;
    /// see [`Pool::try_par_map`] for the typed-error form.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        match self.par_map_inner(items, f) {
            Ok(v) => v,
            Err(p) => resume_unwind(p),
        }
    }

    /// [`Pool::par_map`] with a per-item panic reported as
    /// [`PoolError::JobPanicked`]: the job's results are discarded, but
    /// the pool (and the process) stays up.
    pub fn try_par_map<T, R, F>(&self, items: &[T], f: F) -> Result<Vec<R>, PoolError>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.par_map_inner(items, f)
            .map_err(|p| PoolError::JobPanicked {
                message: panic_message(p.as_ref()),
            })
    }

    fn par_map_inner<T, R, F>(&self, items: &[T], f: F) -> Result<Vec<R>, Box<dyn Any + Send>>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        // One mutex per slot: never contended (each chunk writes its own
        // slot exactly once), so the lock cost is a single uncontended
        // atomic per item — negligible against per-item work coarse
        // enough to be worth scheduling.
        let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        self.run_inner(items.len(), &|i| {
            *slots[i].lock().unwrap() = Some(f(&items[i]));
        })?;
        Ok(slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("pool chunk completed")
            })
            .collect())
    }
}

/// Pool size: `BERNOULLI_THREADS` if set (minimum 1), else the host's
/// available parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var(THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_every_chunk_exactly_once() {
        let pool = Pool::new(4);
        for nchunks in [0usize, 1, 2, 3, 64, 1000] {
            let hits: Vec<AtomicU64> = (0..nchunks).map(|_| AtomicU64::new(0)).collect();
            pool.run(nchunks, &|c| {
                hits[c].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "nchunks = {nchunks}"
            );
        }
    }

    #[test]
    fn zero_worker_pool_runs_inline() {
        let pool = Pool::new(1);
        assert_eq!(pool.nthreads(), 1);
        let sum = AtomicU64::new(0);
        pool.run(10, &|c| {
            sum.fetch_add(c as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 45);
    }

    #[test]
    fn borrowed_data_visible_after_run() {
        let pool = Pool::new(3);
        let input: Vec<u64> = (0..100).collect();
        let out: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        pool.run(100, &|c| {
            out[c].store(input[c] * 2, Ordering::Relaxed);
        });
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o.load(Ordering::Relaxed), 2 * i as u64);
        }
    }

    #[test]
    fn scope_accepts_generic_closures() {
        let pool = Pool::new(2);
        let out: Vec<AtomicU64> = (0..32).map(|_| AtomicU64::new(0)).collect();
        let base = 7u64;
        pool.scope(32, |c| {
            out[c].store(base + c as u64, Ordering::Relaxed);
        });
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o.load(Ordering::Relaxed), 7 + i as u64);
        }
    }

    #[test]
    fn par_map_preserves_input_order() {
        for nthreads in [1usize, 2, 4, 8] {
            let pool = Pool::new(nthreads);
            let items: Vec<u64> = (0..257).collect();
            let got = pool.par_map(&items, |&x| x * x + 1);
            let want: Vec<u64> = items.iter().map(|&x| x * x + 1).collect();
            assert_eq!(got, want, "nthreads = {nthreads}");
        }
    }

    #[test]
    fn par_map_empty_and_single() {
        let pool = Pool::new(4);
        let empty: Vec<u32> = Vec::new();
        assert!(pool.par_map(&empty, |&x| x).is_empty());
        assert_eq!(pool.par_map(&[41u32], |&x| x + 1), vec![42]);
    }

    #[test]
    fn par_map_with_non_copy_results() {
        let pool = Pool::new(3);
        let items: Vec<usize> = (0..50).collect();
        let got = pool.par_map(&items, |&n| vec![n; n % 5]);
        for (n, v) in items.iter().zip(&got) {
            assert_eq!(v.len(), n % 5);
            assert!(v.iter().all(|x| x == n));
        }
    }

    #[test]
    fn worker_panic_propagates_and_pool_survives() {
        let pool = Pool::new(4);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.run(16, &|c| {
                if c % 2 == 1 {
                    panic!("chunk {c} failed");
                }
            });
        }));
        // The original payload is preserved through the pool.
        let payload = result.unwrap_err();
        assert!(panic_message(payload.as_ref()).contains("failed"));
        // The pool stays usable after a panicked job.
        let sum = AtomicU64::new(0);
        pool.run(8, &|c| {
            sum.fetch_add(c as u64, Ordering::Relaxed);
        });
        assert_eq!(sum.load(Ordering::Relaxed), 28);
    }

    #[test]
    fn try_run_reports_typed_error() {
        let pool = Pool::new(4);
        let err = pool
            .try_run(16, &|c| {
                if c == 3 {
                    panic!("boom at {c}");
                }
            })
            .unwrap_err();
        let PoolError::JobPanicked { message } = err;
        assert!(message.contains("boom"), "{message}");
        // Typed failure on the inline path too.
        let solo = Pool::new(1);
        let err = solo.try_run(4, &|_| panic!("inline boom")).unwrap_err();
        assert!(err.to_string().contains("inline boom"), "{err}");
        solo.try_run(4, &|_| {}).unwrap();
    }

    #[test]
    fn try_par_map_recovers_and_stays_deterministic() {
        for nthreads in [1usize, 2, 4, 8] {
            let pool = Pool::new(nthreads);
            let items: Vec<u64> = (0..64).collect();
            let err = pool
                .try_par_map(&items, |&x| {
                    if x == 17 {
                        panic!("item {x} exploded");
                    }
                    x * 3
                })
                .unwrap_err();
            assert!(err.to_string().contains("exploded"), "nthreads={nthreads}");
            // Subsequent maps on the same pool produce the exact same
            // bytes as an untouched pool would.
            let got = pool.try_par_map(&items, |&x| x * 3).unwrap();
            let want: Vec<u64> = items.iter().map(|&x| x * 3).collect();
            assert_eq!(got, want, "nthreads = {nthreads}");
        }
    }

    #[test]
    fn global_pool_is_shared() {
        let a = Pool::global() as *const Pool;
        let b = Pool::global() as *const Pool;
        assert_eq!(a, b);
        assert!(Pool::global().nthreads() >= 1);
    }
}
