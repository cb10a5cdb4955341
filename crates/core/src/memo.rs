//! Per-key-once memoization: the one cache primitive behind every
//! derived artifact in the workspace — session snapshots, graphs,
//! routes, APA and scrapes, the race engine's constellations, weather
//! Monte Carlo and LEO legs, the corridor generator's calibration
//! probes, and the serving layer's request coalescing.
//!
//! A [`Memo`] maps each key to a shared [`OnceLock`] slot. The map lock
//! is held only to find or create the slot; the value is computed inside
//! the slot, outside the map lock, so
//!
//! * concurrent cold callers of one key compute it once: the first
//!   *leads*, the rest wait on the slot and *coalesce* onto its value,
//!   while callers of other keys proceed in parallel;
//! * a computation may call other memos (or this one, for another key)
//!   without deadlocking — a session route builds its network and
//!   routing graph through their own memos;
//! * a panicking computation leaves its slot empty: the panic reaches
//!   the leader's caller, and the next waiter or caller computes afresh
//!   (`OnceLock`'s own retry), so no caller ever hangs on a value that
//!   will not arrive.
//!
//! [`Memo::get_or_init`] retains every value — a cache. [`Memo::run`]
//! drops the slot once its leader has filled it, so only calls that
//! overlap a computation share it — single-flight request coalescing.
//!
//! Every call is counted twice over: per memo (what a session's
//! [`StatsSnapshot`](crate::session::StatsSnapshot) reads) and in the
//! global [`hft_obs`] registry under the memo's hit and miss series,
//! where every memo of the same name in the process aggregates. A
//! coalesced wait counts as a hit and also into `<name>_coalesced`. The
//! leader's computation runs under a child span named after the memo,
//! so a traced request shows exactly the misses it paid for.

use hft_obs::Counter;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// How a [`Memo`] call was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The value was already there.
    Hit,
    /// This call computed the value.
    Led,
    /// This call waited for another caller's computation.
    Coalesced,
}

/// A point-in-time copy of one memo's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoCounts {
    /// Calls answered without computing (including coalesced waits).
    pub hits: u64,
    /// Calls that ran the computation.
    pub misses: u64,
}

/// One counted series: this memo's own tally, plus the registry counter
/// every memo of the same series name adds into.
struct Tally {
    own: AtomicU64,
    global: Arc<Counter>,
}

impl Tally {
    fn new(series: &str) -> Tally {
        Tally {
            own: AtomicU64::new(0),
            global: hft_obs::global().counter(series),
        }
    }

    fn incr(&self) {
        self.own.fetch_add(1, Ordering::Relaxed);
        self.global.incr();
    }

    fn get(&self) -> u64 {
        self.own.load(Ordering::Relaxed)
    }
}

/// A concurrent per-key-once memo. See the module docs.
pub struct Memo<K, V> {
    name: &'static str,
    slots: Mutex<HashMap<K, Arc<OnceLock<V>>>>,
    hits: Tally,
    misses: Tally,
    coalesced: Arc<Counter>,
}

impl<K: Eq + Hash, V: Clone> Memo<K, V> {
    /// An empty memo whose computations run under the span `name`,
    /// counting into the registry series `<name>_hits`, `<name>_misses`
    /// and `<name>_coalesced`.
    pub fn new(name: &'static str) -> Memo<K, V> {
        Memo::with_series(name, &format!("{name}_hits"), &format!("{name}_misses"))
    }

    /// Like [`Memo::new`], with explicitly named hit and miss series.
    pub fn with_series(name: &'static str, hits: &str, misses: &str) -> Memo<K, V> {
        Memo {
            name,
            slots: Mutex::new(HashMap::new()),
            hits: Tally::new(hits),
            misses: Tally::new(misses),
            coalesced: hft_obs::global().counter(&format!("{name}_coalesced")),
        }
    }

    /// The value for `key`, computed by `init` if no caller has done so,
    /// and retained for every later call.
    pub fn get_or_init(&self, key: K, init: impl FnOnce() -> V) -> (V, Outcome) {
        let slot = Arc::clone(
            self.slots
                .lock()
                .expect("memo slots")
                .entry(key)
                .or_default(),
        );
        let mut outcome = match slot.get() {
            Some(_) => Outcome::Hit,
            None => Outcome::Coalesced,
        };
        let value = slot
            .get_or_init(|| {
                outcome = Outcome::Led;
                let _span = hft_obs::child_span(self.name);
                init()
            })
            .clone();
        match outcome {
            Outcome::Led => self.misses.incr(),
            Outcome::Hit => self.hits.incr(),
            Outcome::Coalesced => {
                self.hits.incr();
                self.coalesced.incr();
            }
        }
        (value, outcome)
    }

    /// Like [`Memo::get_or_init`], but the leader drops the slot once it
    /// has filled it: only calls overlapping the computation share its
    /// value, and a later call computes afresh.
    pub fn run(&self, key: K, init: impl FnOnce() -> V) -> (V, Outcome)
    where
        K: Clone,
    {
        let answer = self.get_or_init(key.clone(), init);
        if answer.1 == Outcome::Led {
            self.slots.lock().expect("memo slots").remove(&key);
        }
        answer
    }

    /// This memo's counters so far.
    pub fn counts(&self) -> MemoCounts {
        MemoCounts {
            hits: self.hits.get(),
            misses: self.misses.get(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::fingerprint_words;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    fn memo<K: Eq + Hash, V: Clone>() -> Memo<K, V> {
        Memo::new("test.memo")
    }

    #[test]
    fn sequential_calls_each_lead() {
        let m: Memo<&str, u32> = memo();
        let evals = AtomicUsize::new(0);
        for _ in 0..3 {
            let (v, outcome) = m.run("k", || {
                evals.fetch_add(1, Ordering::SeqCst);
                7
            });
            assert_eq!(v, 7);
            assert_eq!(outcome, Outcome::Led, "nothing in flight between calls");
        }
        assert_eq!(evals.load(Ordering::SeqCst), 3);
        assert_eq!(m.counts().misses, 3);
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let m: Memo<usize, usize> = memo();
        let evals = AtomicUsize::new(0);
        let barrier = Barrier::new(4);
        std::thread::scope(|scope| {
            for i in 0..4 {
                let (m, evals, barrier) = (&m, &evals, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    m.run(i, || {
                        evals.fetch_add(1, Ordering::SeqCst);
                        i
                    })
                });
            }
        });
        assert_eq!(evals.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn leader_panic_makes_a_follower_lead() {
        let m: Memo<&str, u8> = memo();
        let started = Barrier::new(2);
        std::thread::scope(|scope| {
            let panicker = scope.spawn(|| {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    m.run("k", || {
                        started.wait();
                        panic!("leader dies");
                    })
                }))
            });
            // The follower arrives once the leader computes. Whether it
            // parks on the slot before the panic or finds the slot empty
            // after it, it must lead the retry.
            started.wait();
            let (v, outcome) = m.run("k", || 9);
            assert_eq!(v, 9);
            assert_eq!(outcome, Outcome::Led, "the follower retries as leader");
            assert!(panicker.join().unwrap().is_err());
        });
        assert_eq!(
            m.counts().misses,
            1,
            "a panicked computation is not counted"
        );
    }

    #[test]
    fn concurrent_identical_runs_have_one_leader_per_evaluation() {
        let m: Memo<&str, u64> = memo();
        let evals = AtomicUsize::new(0);
        let barrier = Barrier::new(8);
        let results: Vec<(u64, Outcome)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        m.run("k", || {
                            evals.fetch_add(1, Ordering::SeqCst);
                            42
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(results.iter().all(|&(v, _)| v == 42));
        let leaders = results.iter().filter(|r| r.1 == Outcome::Led).count();
        assert_eq!(evals.load(Ordering::SeqCst), leaders);
        let c = m.counts();
        assert_eq!(c.misses as usize, leaders);
        assert_eq!(c.hits as usize, 8 - leaders);
    }

    #[test]
    fn retaining_memo_evaluates_once_under_a_cold_stampede() {
        let m: Memo<&str, Arc<u64>> = memo();
        let evals = AtomicUsize::new(0);
        let barrier = Barrier::new(8);
        let values: Vec<Arc<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        m.get_or_init("k", || {
                            evals.fetch_add(1, Ordering::SeqCst);
                            Arc::new(42)
                        })
                        .0
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(evals.load(Ordering::SeqCst), 1);
        assert!(values.iter().all(|v| Arc::ptr_eq(v, &values[0])));
        assert_eq!(m.counts(), MemoCounts { hits: 7, misses: 1 });
    }

    #[test]
    fn route_memo_hits_on_repeat_fingerprints() {
        let m: Memo<u64, Option<f64>> = memo();
        let mut evals = 0;
        let fp = fingerprint_words([1, 2, 3]);
        for _ in 0..5 {
            let (v, _) = m.get_or_init(fp, || {
                evals += 1;
                Some(4.2)
            });
            assert_eq!(v, Some(4.2));
        }
        assert_eq!(evals, 1);
        assert_eq!(m.counts(), MemoCounts { hits: 4, misses: 1 });
        assert_ne!(fingerprint_words([1, 2, 3]), fingerprint_words([1, 3, 2]));
    }

    #[test]
    fn counts_also_land_in_the_global_registry() {
        let m: Memo<u8, u8> = Memo::new("test.registry");
        m.get_or_init(1, || 1);
        m.get_or_init(1, || 1);
        let snap = hft_obs::global().snapshot();
        assert_eq!(snap.counter("test.registry_misses"), Some(1));
        assert_eq!(snap.counter("test.registry_hits"), Some(1));
        assert_eq!(snap.counter("test.registry_coalesced"), Some(0));
    }
}
