//! Fault-injected pool chaos: worker threads are killed at the
//! `pool.worker` site and the pool must neither deadlock nor corrupt
//! results — dead workers are respawned on the next submission.
#![cfg(feature = "faults")]

use bernoulli_govern::faults;
use bernoulli_pool::Pool;
use std::sync::Mutex;

/// The fault table is process-global; these tests must not interleave.
static FAULTS: Mutex<()> = Mutex::new(());

#[test]
fn dead_workers_are_respawned() {
    let _lock = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let items: Vec<u64> = (0..256).collect();
    let want: Vec<u64> = items.iter().map(|&x| x + 1).collect();
    let pool = Pool::new(4);
    // Kill two worker threads as they pick up the first job. Worker
    // death is not a job failure: the surviving lanes drain every
    // chunk, so the map still completes with correct results.
    faults::configure("pool.worker=panic#2");
    let got = pool.par_map(&items, |&x| x + 1);
    assert_eq!(got, want);
    faults::clear();
    // The next submission finds the dead workers' channels closed,
    // respawns them in place, and runs at full fan-out.
    for _ in 0..3 {
        let got = pool.par_map(&items, |&x| x + 1);
        assert_eq!(got, want);
    }
    // Both armed deaths happened: the test proved what it claims.
    assert_eq!(faults::disarm(), Vec::<String>::new());
}

#[test]
fn pool_survives_persistent_worker_deaths() {
    let _lock = FAULTS.lock().unwrap_or_else(|e| e.into_inner());
    let items: Vec<u64> = (0..128).collect();
    let want: Vec<u64> = items.iter().map(|&x| x * 7).collect();
    let pool = Pool::new(3);
    // Every worker dies on every job it receives; the submitter lane
    // alone keeps the pool live, and each submission respawns workers
    // that immediately die again. No deadlock, no wrong answers.
    faults::configure("pool.worker=panic");
    for _ in 0..4 {
        let got = pool.par_map(&items, |&x| x * 7);
        assert_eq!(got, want);
    }
    faults::clear();
    // With the fault disarmed the pool heals completely.
    let got = pool.par_map(&items, |&x| x * 7);
    assert_eq!(got, want);
}
