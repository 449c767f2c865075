//! Single-flight deduplication of expensive computations.
//!
//! Trace generation is the expensive half of the pipeline, and under a
//! concurrent caller (the experiment service, a parallel sweep) the
//! same cold key can be requested many times at once. The on-disk
//! [`TraceCache`] makes generation pay-once
//! *across* processes; [`SingleFlight`] makes it pay-once *within* a
//! process under concurrency: all callers asking for the same key
//! while a computation is in flight block and receive the shared
//! result, so one generation runs no matter how many threads ask.
//!
//! [`SharedRuns`] layers the two: an in-memory memo of completed
//! [`AppRun`]s over single-flight resolution over the optional on-disk
//! cache. The contract the tests pin: **N concurrent requests for the
//! same cold key run exactly one generation and all observe the same
//! bytes** (literally the same [`Arc`]).

use crate::cache::{cache_key, load_or_generate, CacheOutcome, TraceCache};
use crate::pipeline::AppRun;
use lookahead_multiproc::SimConfig;
use lookahead_obs::span;
use lookahead_workloads::Workload;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// The state of one in-flight (or completed) computation.
enum FlightState<V> {
    /// The leader is computing; waiters block on the condvar.
    Running,
    /// The result every caller of this key receives.
    Done(V),
}

struct Flight<V> {
    state: Mutex<FlightState<V>>,
    done: Condvar,
}

/// A keyed single-flight map with memoization: the first caller of a
/// key becomes the *leader* and runs the computation; concurrent
/// callers of the same key block until the leader finishes and then
/// share its result; later callers get the memoized result instantly.
///
/// Results are retained for the lifetime of the map (this is a memo,
/// not just in-flight dedup) — callers that need eviction should wrap
/// the map rather than the map guessing a policy.
///
/// A leader that panics poisons only its own flight's mutex; waiters
/// on that key panic too (loudly, rather than hanging forever), while
/// other keys are unaffected.
pub struct SingleFlight<V> {
    flights: Mutex<HashMap<String, Arc<Flight<V>>>>,
}

/// How a [`SingleFlight`] call was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightOutcome {
    /// This caller ran the computation.
    Led,
    /// This caller arrived while the leader was computing and waited
    /// for the shared result.
    Coalesced,
    /// The key had already completed; the memoized result was
    /// returned without blocking.
    Memoized,
}

impl<V> Default for SingleFlight<V> {
    fn default() -> SingleFlight<V> {
        SingleFlight::new()
    }
}

impl<V> SingleFlight<V> {
    pub fn new() -> SingleFlight<V> {
        SingleFlight {
            flights: Mutex::new(HashMap::new()),
        }
    }

    /// Number of keys with a started (in-flight or completed)
    /// computation.
    pub fn len(&self) -> usize {
        self.flights.lock().expect("flight map poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<V: Clone> SingleFlight<V> {
    /// Returns `key`'s result, running `compute` only if this caller
    /// is the first to ask for the key.
    ///
    /// # Panics
    ///
    /// Panics if a previous leader for this key panicked (the flight
    /// is poisoned; waiting forever would be worse).
    pub fn run(&self, key: &str, compute: impl FnOnce() -> V) -> (V, FlightOutcome) {
        let (flight, leader) = {
            let mut map = self.flights.lock().expect("flight map poisoned");
            match map.get(key) {
                Some(f) => (Arc::clone(f), false),
                None => {
                    let f = Arc::new(Flight {
                        state: Mutex::new(FlightState::Running),
                        done: Condvar::new(),
                    });
                    map.insert(key.to_string(), Arc::clone(&f));
                    (f, true)
                }
            }
        };
        if leader {
            // Compute outside both locks so other keys proceed and
            // waiters can park on the condvar.
            let value = compute();
            let mut state = flight.state.lock().expect("flight poisoned");
            *state = FlightState::Done(value.clone());
            drop(state);
            flight.done.notify_all();
            return (value, FlightOutcome::Led);
        }
        let mut state = flight.state.lock().expect("flight poisoned by its leader");
        // Distinguish "arrived while running" from "memo hit" before
        // possibly blocking.
        let coalesced = matches!(*state, FlightState::Running);
        while matches!(*state, FlightState::Running) {
            state = flight
                .done
                .wait(state)
                .expect("flight poisoned by its leader");
        }
        match &*state {
            FlightState::Done(v) => (
                v.clone(),
                if coalesced {
                    FlightOutcome::Coalesced
                } else {
                    FlightOutcome::Memoized
                },
            ),
            FlightState::Running => unreachable!("wait returned while still running"),
        }
    }
}

/// Accounting for a [`SharedRuns`] resolver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedRunStats {
    /// Full multiprocessor simulations actually executed.
    pub generations: u64,
    /// Keys served from the on-disk trace cache.
    pub disk_hits: u64,
    /// Requests served from the in-memory memo without blocking.
    pub memo_hits: u64,
    /// Requests that arrived while the same key was being resolved
    /// and waited for the shared result instead of duplicating work.
    pub coalesced: u64,
}

/// Concurrency-safe resolution of workload runs: an in-memory memo of
/// completed [`AppRun`]s, single-flight deduplication of concurrent
/// requests, and the optional on-disk [`TraceCache`] underneath.
///
/// The returned runs are shared (`Arc`), so N requests for one key
/// observe literally the same bytes; generation runs at most once per
/// key per process regardless of concurrency.
pub struct SharedRuns {
    cache: Option<TraceCache>,
    flights: SingleFlight<Result<Arc<AppRun>, String>>,
    generations: AtomicU64,
    disk_hits: AtomicU64,
    memo_hits: AtomicU64,
    coalesced: AtomicU64,
}

impl SharedRuns {
    /// A resolver over an optional on-disk cache.
    pub fn new(cache: Option<TraceCache>) -> SharedRuns {
        SharedRuns {
            cache,
            flights: SingleFlight::new(),
            generations: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            memo_hits: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
        }
    }

    /// Whether an on-disk cache backs this resolver.
    pub fn disk_cache_enabled(&self) -> bool {
        self.cache.is_some()
    }

    /// The accounting so far.
    pub fn stats(&self) -> SharedRunStats {
        SharedRunStats {
            generations: self.generations.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            memo_hits: self.memo_hits.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
        }
    }

    /// Resolves `workload` at `tier` under `config`, deduplicating
    /// concurrent identical requests onto one computation.
    ///
    /// # Errors
    ///
    /// Returns the generation failure message (every caller of the
    /// failed flight receives the same message).
    pub fn get(
        &self,
        workload: &dyn Workload,
        tier: &str,
        config: &SimConfig,
    ) -> Result<Arc<AppRun>, String> {
        let key = cache_key(workload.name(), tier, config);
        let asked = span::now_current();
        let (result, outcome) = self.flights.run(&key, || {
            match load_or_generate(self.cache.as_ref(), workload, tier, config) {
                Ok((run, CacheOutcome::Hit)) => {
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    Ok(Arc::new(run))
                }
                Ok((run, CacheOutcome::Generated(_))) => {
                    self.generations.fetch_add(1, Ordering::Relaxed);
                    Ok(Arc::new(run))
                }
                Err(e) => Err(e.to_string()),
            }
        });
        // The leader's time is covered by the cache.lookup/generate
        // spans its compute recorded; followers record how this
        // request was satisfied instead (a wait on the leader, or an
        // instant memo hit).
        match outcome {
            FlightOutcome::Led => {}
            FlightOutcome::Coalesced => {
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                if let Some(start) = asked {
                    span::record_since("run.wait", start);
                }
            }
            FlightOutcome::Memoized => {
                self.memo_hits.fetch_add(1, Ordering::Relaxed);
                if let Some(start) = asked {
                    span::record_since("run.memo", start);
                }
            }
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Barrier;

    #[test]
    fn leader_runs_once_waiters_share() {
        let flight: SingleFlight<u64> = SingleFlight::new();
        let calls = AtomicUsize::new(0);
        let barrier = Barrier::new(8);
        let outcomes: Vec<FlightOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        let (v, outcome) = flight.run("k", || {
                            calls.fetch_add(1, Ordering::SeqCst);
                            // Give waiters time to pile onto the flight.
                            std::thread::sleep(std::time::Duration::from_millis(20));
                            42
                        });
                        assert_eq!(v, 42);
                        outcome
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1, "exactly one computation");
        assert_eq!(
            outcomes
                .iter()
                .filter(|o| **o == FlightOutcome::Led)
                .count(),
            1
        );
        // Everyone else either coalesced onto the flight or (if the
        // scheduler delayed them past completion) hit the memo.
        assert!(outcomes
            .iter()
            .all(|o| *o != FlightOutcome::Led || outcomes.len() > 1));
        // A later call is a pure memo hit.
        let (v, outcome) = flight.run("k", || unreachable!("memoized"));
        assert_eq!(v, 42);
        assert_eq!(outcome, FlightOutcome::Memoized);
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn distinct_keys_do_not_serialize() {
        let flight: SingleFlight<String> = SingleFlight::new();
        let out = std::thread::scope(|s| {
            let a = s.spawn(|| flight.run("a", || "va".to_string()));
            let b = s.spawn(|| flight.run("b", || "vb".to_string()));
            (a.join().unwrap(), b.join().unwrap())
        });
        assert_eq!(out.0 .0, "va");
        assert_eq!(out.1 .0, "vb");
        assert_eq!(flight.len(), 2);
    }
}
