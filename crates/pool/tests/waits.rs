//! What a submitter waits for: the chunks of its own job, never a
//! worker that is busy elsewhere. A `run` nested in a chunk that a
//! worker runs completes, and a short job submitted while the other
//! lane holds a long chunk returns without waiting for it.

use bernoulli_pool::Pool;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::channel;
use std::time::{Duration, Instant};

/// True on one of the pool's worker threads (not on a submitter).
fn on_worker() -> bool {
    std::thread::current()
        .name()
        .is_some_and(|n| n.starts_with("bernoulli-par-"))
}

/// Spins (with short sleeps) until `flag` is set, for at most `limit`.
fn await_flag(flag: &AtomicBool, limit: Duration) -> bool {
    let t0 = Instant::now();
    while !flag.load(Ordering::Acquire) {
        if t0.elapsed() > limit {
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    true
}

/// Runs `body` on a thread of its own and fails the test if it has not
/// returned within `limit`: a regression that deadlocks fails, it does
/// not hang the suite.
fn within(limit: Duration, body: impl FnOnce() + Send + 'static) {
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        body();
        let _ = tx.send(());
    });
    rx.recv_timeout(limit)
        .unwrap_or_else(|_| panic!("did not complete within {limit:?}"));
}

/// A chunk running on a worker submits a job to the same pool. The
/// worker posts the nested job to its own channel and, as that job's
/// submitter, drains its chunks itself: nothing waits on the worker's
/// channel, which it is not reading while it runs the chunk.
#[test]
fn run_nested_in_a_worker_chunk_completes() {
    within(Duration::from_secs(5), || {
        let pool: &'static Pool = Box::leak(Box::new(Pool::new(2)));
        let nested_on_worker = AtomicBool::new(false);
        let inner = AtomicUsize::new(0);
        pool.run(2, &|_| {
            if on_worker() {
                pool.run(4, &|c| {
                    inner.fetch_add(c + 1, Ordering::Relaxed);
                });
                nested_on_worker.store(true, Ordering::Release);
            } else {
                // Hold this chunk until the worker has taken the other
                // one, so the nested run is certain to start there.
                assert!(await_flag(&nested_on_worker, Duration::from_secs(4)));
            }
        });
        assert!(nested_on_worker.load(Ordering::Acquire));
        assert_eq!(inner.load(Ordering::Relaxed), 1 + 2 + 3 + 4);
    });
}

/// While the pool's one worker holds a 300 ms chunk of another job, a
/// trivial 2-chunk `run` from a second thread runs both its chunks on
/// the submitting lane and returns at once.
#[test]
fn short_run_does_not_wait_behind_a_busy_worker() {
    const LONG: Duration = Duration::from_millis(300);
    within(Duration::from_secs(5), || {
        let pool: &'static Pool = Box::leak(Box::new(Pool::new(2)));
        let worker_busy: &'static AtomicBool = Box::leak(Box::new(AtomicBool::new(false)));
        let long = std::thread::spawn(move || {
            pool.run(2, &|_| {
                if on_worker() {
                    worker_busy.store(true, Ordering::Release);
                    std::thread::sleep(LONG);
                } else {
                    assert!(await_flag(worker_busy, Duration::from_secs(4)));
                }
            });
        });
        assert!(await_flag(worker_busy, Duration::from_secs(4)));
        let hits = AtomicUsize::new(0);
        let t0 = Instant::now();
        pool.run(2, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        let waited = t0.elapsed();
        assert_eq!(hits.load(Ordering::Relaxed), 2);
        assert!(
            waited < LONG / 3,
            "a 2-chunk run took {waited:?} behind a {LONG:?} chunk on the other lane"
        );
        long.join().expect("the long job completes");
    });
}
