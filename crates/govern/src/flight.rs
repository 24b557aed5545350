//! Keyed single-flight: concurrent callers asking for the same key
//! share one run of the work.
//!
//! The first caller for a key becomes the *leader* and runs its
//! closure; callers arriving while it runs become *followers* and wait.
//! The leader decides whether its outcome is shared:
//!
//! - a shared outcome is handed to every follower as a clone;
//! - an unshared outcome (say, a result degraded by the leader's own
//!   budget) stays with the leader, and the followers are woken to race
//!   for leadership of a fresh flight;
//! - a leader that panics likewise wakes its followers to race, so a
//!   dead flight never wedges anyone.
//!
//! A follower may bound its wait with a deadline; when it expires the
//! follower gets [`Flight::TimedOut`] and does its own work outside the
//! flight. Counting coalesced calls is the caller's business: the
//! returned [`Flight`] says which role the call played.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

/// How one [`SingleFlight::run`] call was served.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Flight<V> {
    /// This call led: the value is its own closure's.
    Led(V),
    /// This call waited on another call's flight and received a clone
    /// of the leader's shared outcome.
    Followed(V),
    /// The deadline expired while waiting; the closure did not run.
    TimedOut,
}

/// What a leader leaves behind for its followers.
enum Outcome<V> {
    Pending,
    Shared(V),
    /// Unshared outcome or panicked leader: race for a fresh flight.
    Retry,
}

struct Slot<V> {
    outcome: Mutex<Outcome<V>>,
    cv: Condvar,
}

/// Every transition below is a single assignment or map operation, so
/// the data stays valid even if a panic unwound through a holder.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// In-flight work by key. See the module docs for the contract.
pub struct SingleFlight<K, V> {
    slots: Mutex<HashMap<K, Arc<Slot<V>>>>,
}

impl<K, V> Default for SingleFlight<K, V> {
    fn default() -> Self {
        SingleFlight {
            slots: Mutex::new(HashMap::new()),
        }
    }
}

/// Ends the leader's flight exactly once — on publish, or on unwind
/// with `Retry` when the leader's closure panicked.
struct Lead<'a, K: Hash + Eq, V> {
    flights: &'a SingleFlight<K, V>,
    key: &'a K,
    slot: &'a Slot<V>,
    published: bool,
}

impl<K: Hash + Eq, V> Lead<'_, K, V> {
    fn publish(&mut self, outcome: Outcome<V>) {
        // Out of the map first: a caller arriving from here on starts a
        // fresh flight instead of joining a finished one.
        lock(&self.flights.slots).remove(self.key);
        *lock(&self.slot.outcome) = outcome;
        self.slot.cv.notify_all();
        self.published = true;
    }
}

impl<K: Hash + Eq, V> Drop for Lead<'_, K, V> {
    fn drop(&mut self) {
        if !self.published {
            self.publish(Outcome::Retry);
        }
    }
}

impl<K: Hash + Eq + Clone, V: Clone> SingleFlight<K, V> {
    /// No flights in progress.
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs `work` as the leader of `key`'s flight, or waits for the
    /// current leader's outcome. `share` is asked, on the leader only,
    /// whether followers may take a clone of the outcome. `deadline`
    /// bounds the wait of a follower (a leader is never interrupted).
    pub fn run(
        &self,
        key: &K,
        deadline: Option<Instant>,
        work: impl FnOnce() -> V,
        share: impl FnOnce(&V) -> bool,
    ) -> Flight<V> {
        loop {
            let slot = {
                let mut slots = lock(&self.slots);
                match slots.get(key) {
                    Some(slot) => Arc::clone(slot),
                    None => {
                        let slot = Arc::new(Slot {
                            outcome: Mutex::new(Outcome::Pending),
                            cv: Condvar::new(),
                        });
                        slots.insert(key.clone(), Arc::clone(&slot));
                        drop(slots);
                        let mut lead = Lead {
                            flights: self,
                            key,
                            slot: &slot,
                            published: false,
                        };
                        let value = work();
                        lead.publish(if share(&value) {
                            Outcome::Shared(value.clone())
                        } else {
                            Outcome::Retry
                        });
                        return Flight::Led(value);
                    }
                }
            };
            let mut outcome = lock(&slot.outcome);
            loop {
                match &*outcome {
                    Outcome::Pending => {}
                    Outcome::Shared(v) => return Flight::Followed(v.clone()),
                    Outcome::Retry => break,
                }
                outcome = match deadline {
                    None => slot.cv.wait(outcome).unwrap_or_else(|e| e.into_inner()),
                    Some(d) => {
                        let now = Instant::now();
                        if now >= d {
                            return Flight::TimedOut;
                        }
                        slot.cv
                            .wait_timeout(outcome, d - now)
                            .unwrap_or_else(|e| e.into_inner())
                            .0
                    }
                };
            }
        }
    }

    /// Callers currently committed to `key`'s flight as followers.
    #[cfg(test)]
    fn followers(&self, key: &K) -> usize {
        // One reference is the map's, one the leader's.
        lock(&self.slots)
            .get(key)
            .map_or(0, |slot| Arc::strong_count(slot) - 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;

    const KEY: &str = "k";

    fn wait_for_followers(f: &SingleFlight<&'static str, u64>, n: usize) {
        while f.followers(&KEY) < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn concurrent_callers_share_one_run() {
        const N: usize = 8;
        let flights = SingleFlight::new();
        let runs = AtomicUsize::new(0);
        let served: Vec<Flight<u64>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..N)
                .map(|_| {
                    s.spawn(|| {
                        flights.run(
                            &KEY,
                            None,
                            || {
                                runs.fetch_add(1, Ordering::SeqCst);
                                // Hold the flight until everyone else is on it.
                                wait_for_followers(&flights, N - 1);
                                42
                            },
                            |_| true,
                        )
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(runs.load(Ordering::SeqCst), 1);
        let led = served.iter().filter(|f| **f == Flight::Led(42)).count();
        let followed = served
            .iter()
            .filter(|f| **f == Flight::Followed(42))
            .count();
        assert_eq!((led, followed), (1, N - 1), "{served:?}");
    }

    /// Starts a first leader whose closure waits for `followers`
    /// followers and then ends as `first` dictates; the followers' own
    /// closure holds the second flight until the rest have rejoined it.
    /// Returns the first leader's join result, what the followers were
    /// served, and how often the followers' closure ran.
    fn relead_after(
        first: fn() -> u64,
        share_first: bool,
    ) -> (std::thread::Result<Flight<u64>>, Vec<Flight<u64>>, usize) {
        const FOLLOWERS: usize = 4;
        let flights = SingleFlight::new();
        let reruns = AtomicUsize::new(0);
        let (leading_tx, leading_rx) = mpsc::channel();
        std::thread::scope(|s| {
            let leader = s.spawn(|| {
                flights.run(
                    &KEY,
                    None,
                    || {
                        leading_tx.send(()).unwrap();
                        wait_for_followers(&flights, FOLLOWERS);
                        first()
                    },
                    |_| share_first,
                )
            });
            leading_rx.recv().unwrap();
            let handles: Vec<_> = (0..FOLLOWERS)
                .map(|_| {
                    s.spawn(|| {
                        flights.run(
                            &KEY,
                            None,
                            || {
                                reruns.fetch_add(1, Ordering::SeqCst);
                                wait_for_followers(&flights, FOLLOWERS - 1);
                                7
                            },
                            |_| true,
                        )
                    })
                })
                .collect();
            let served = handles.into_iter().map(|h| h.join().unwrap()).collect();
            (leader.join(), served, reruns.load(Ordering::SeqCst))
        })
    }

    #[test]
    fn panicking_leader_releases_followers_and_one_leads() {
        let (leader, served, reruns) = relead_after(|| panic!("leader dies"), true);
        assert!(leader.is_err(), "the first leader must have panicked");
        assert_eq!(reruns, 1, "exactly one follower takes over: {served:?}");
        assert_eq!(served.iter().filter(|f| **f == Flight::Led(7)).count(), 1);
        assert!(served
            .iter()
            .all(|f| matches!(f, Flight::Led(7) | Flight::Followed(7))));
    }

    #[test]
    fn unshared_outcome_makes_a_follower_relead() {
        let (leader, served, reruns) = relead_after(|| 1, false);
        assert_eq!(leader.unwrap(), Flight::Led(1), "the leader keeps its own");
        assert_eq!(reruns, 1, "{served:?}");
        assert!(
            served
                .iter()
                .all(|f| matches!(f, Flight::Led(7) | Flight::Followed(7))),
            "nobody may receive the unshared value: {served:?}"
        );
    }

    #[test]
    fn expired_deadline_times_out_without_a_second_run() {
        let flights: SingleFlight<&'static str, u64> = SingleFlight::new();
        let (leading_tx, leading_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let flights = &flights;
            let leader = s.spawn(move || {
                flights.run(
                    &KEY,
                    None,
                    || {
                        leading_tx.send(()).unwrap();
                        release_rx.recv().unwrap();
                        5
                    },
                    |_| true,
                )
            });
            leading_rx.recv().unwrap();
            // The leader is mid-closure: a follower whose deadline has
            // passed must give up without its closure ever running.
            let late = flights.run(
                &KEY,
                Some(Instant::now()),
                || unreachable!("a second run while the leader is in flight"),
                |_| true,
            );
            assert_eq!(late, Flight::TimedOut);
            release_tx.send(()).unwrap();
            assert_eq!(leader.join().unwrap(), Flight::Led(5));
        });
        // The finished flight is gone: the next caller leads afresh.
        assert_eq!(flights.run(&KEY, None, || 6, |_| true), Flight::Led(6));
    }
}
