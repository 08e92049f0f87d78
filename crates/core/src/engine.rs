//! Shared experiment execution engine.
//!
//! The grid drivers in [`crate::experiment`] flatten their whole
//! (application × configuration × trial) grid into independent jobs and
//! hand them to an [`Engine`]: a bounded work-stealing thread pool built
//! on scoped threads. Each worker owns a deque seeded round-robin with
//! job indices; it pops from the front of its own deque and, when that
//! runs dry, steals from the back of a victim's. The calling thread
//! participates as worker 0, so an engine with one job slot runs the
//! grid inline on the caller — no threads, no locks touched per job.
//!
//! Results are written into their job's slot, so [`Engine::map`] is
//! order-preserving: the output is bitwise independent of the worker
//! count and of steal timing. Combined with per-trial seeding this makes
//! the parallel drivers produce `RunReport`s identical to a serial run.
//!
//! The module also hosts the golden-run memo: [`golden_for`] caches
//! [`ClumsyProcessor::golden`] per (application, trace fingerprint), so
//! a grid touching one trace computes each application's golden pass
//! once instead of once per configuration.

use crate::processor::{ClumsyProcessor, GoldenData};
use crate::telemetry::{Stopwatch, Telemetry};
use netbench::{AppKind, Trace};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock};

/// Environment variable overriding the default worker count.
pub const JOBS_ENV: &str = "CLUMSY_JOBS";

/// Bounded work-stealing executor for experiment grids.
///
/// # Examples
///
/// ```
/// use clumsy_core::Engine;
///
/// let engine = Engine::with_jobs(4);
/// let squares = engine.map(&[1u64, 2, 3, 4, 5], |x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    jobs: usize,
    telemetry: Option<Arc<Telemetry>>,
}

impl Engine {
    /// An engine with exactly `jobs` workers (clamped to at least 1).
    /// One worker means the caller runs every job inline, in order.
    pub fn with_jobs(jobs: usize) -> Self {
        Engine {
            jobs: jobs.max(1),
            telemetry: None,
        }
    }

    /// Returns the engine with passive telemetry attached: every
    /// [`Engine::map`] job is counted on its worker's shard and its
    /// wall time accumulated. Telemetry never affects scheduling,
    /// ordering or results.
    #[must_use]
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }

    /// An engine sized from the environment: `CLUMSY_JOBS` when set to a
    /// positive integer, otherwise [`std::thread::available_parallelism`].
    pub fn from_env() -> Self {
        if let Ok(v) = std::env::var(JOBS_ENV) {
            if let Ok(n) = v.trim().parse::<usize>() {
                if n >= 1 {
                    return Engine::with_jobs(n);
                }
            }
        }
        let n = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1);
        Engine::with_jobs(n)
    }

    /// The worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// The telemetry attached with [`Engine::with_telemetry`], if any.
    pub fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// Maps `f` over `items` across the pool, preserving input order.
    ///
    /// Jobs are independent; `f` must not rely on any cross-item
    /// execution order. Propagates the first worker panic.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        let workers = self.jobs.min(n);
        if workers <= 1 {
            return items
                .iter()
                .map(|item| {
                    let timed = self.telemetry.as_deref().map(|_| Stopwatch::start());
                    let r = f(item);
                    if let (Some(t), Some(sw)) = (self.telemetry.as_deref(), timed) {
                        t.engine_job(0, sw.elapsed());
                    }
                    r
                })
                .collect();
        }

        // Per-worker deques, seeded round-robin so early items start
        // immediately on every worker.
        let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
            .map(|w| Mutex::new((w..n).step_by(workers).collect()))
            .collect();
        let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();

        // A deque or slot only holds plain indices/results, so a lock
        // poisoned by a panicking sibling is still structurally sound:
        // recover the guard and keep draining instead of cascading the
        // panic through every worker.
        let run_worker = |me: usize| {
            loop {
                // Own work first (front of own deque)...
                let job = deques[me]
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .pop_front();
                let job = match job {
                    Some(j) => Some(j),
                    // ...then steal from the back of the busiest victim.
                    None => deques
                        .iter()
                        .enumerate()
                        .filter(|(v, _)| *v != me)
                        .max_by_key(|(_, d)| d.lock().unwrap_or_else(|e| e.into_inner()).len())
                        .and_then(|(_, d)| d.lock().unwrap_or_else(|e| e.into_inner()).pop_back()),
                };
                match job {
                    Some(j) => {
                        let timed = self.telemetry.as_deref().map(|_| Stopwatch::start());
                        let r = f(&items[j]);
                        if let (Some(t), Some(sw)) = (self.telemetry.as_deref(), timed) {
                            t.engine_job(me, sw.elapsed());
                        }
                        *slots[j].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
                    }
                    // Every deque is empty: a single batch is submitted
                    // up front, so there is nothing left to wait for.
                    None => break,
                }
            }
        };

        std::thread::scope(|scope| {
            for w in 1..workers {
                let run_worker = &run_worker;
                scope.spawn(move || run_worker(w));
            }
            run_worker(0);
        });

        slots
            .into_iter()
            .map(|s| {
                s.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .expect("job finished without a result")
            })
            .collect()
    }
}

impl Default for Engine {
    fn default() -> Self {
        Engine::from_env()
    }
}

/// Upper bound on memoized golden runs; reaching it evicts everything
/// (grids reuse a handful of traces, so this is a leak guard, not LRU).
const GOLDEN_CACHE_CAP: usize = 64;

/// Golden runs keyed by (application, [`Trace::fingerprint`]).
type GoldenMap = HashMap<(AppKind, u64), Arc<GoldenData>>;

fn golden_cache() -> &'static Mutex<GoldenMap> {
    static CACHE: OnceLock<Mutex<GoldenMap>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Returns the golden (fault-free) run of `kind` on `trace`, memoized
/// per (application, [`Trace::fingerprint`]).
///
/// Golden runs disable fault injection and draw no randomness, so the
/// result depends only on the key; concurrent misses may compute the
/// same golden twice but always agree.
pub fn golden_for(kind: AppKind, trace: &Trace) -> Arc<GoldenData> {
    let key = (kind, trace.fingerprint());
    // The map's entries are immutable once inserted, so a poisoned lock
    // (a worker panicked mid-warm) still holds a usable cache.
    if let Some(hit) = golden_cache()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .get(&key)
    {
        return Arc::clone(hit);
    }
    // Compute outside the lock so warming different apps in parallel
    // actually overlaps.
    let golden = Arc::new(ClumsyProcessor::golden(kind, trace));
    let mut cache = golden_cache().lock().unwrap_or_else(|e| e.into_inner());
    if cache.len() >= GOLDEN_CACHE_CAP {
        cache.clear();
    }
    Arc::clone(cache.entry(key).or_insert(golden))
}

#[cfg(test)]
mod tests {
    use super::*;
    use netbench::TraceConfig;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn map_preserves_order_for_any_worker_count() {
        let items: Vec<u64> = (0..97).collect();
        let expect: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for jobs in [1, 2, 3, 8, 128] {
            let got = Engine::with_jobs(jobs).map(&items, |x| x * 3 + 1);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn map_handles_empty_and_single_inputs() {
        let e = Engine::with_jobs(4);
        assert_eq!(e.map(&[] as &[u32], |x| *x), Vec::<u32>::new());
        assert_eq!(e.map(&[7u32], |x| x + 1), vec![8]);
    }

    #[test]
    fn map_runs_every_job_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..500).collect();
        let got = Engine::with_jobs(7).map(&items, |i| {
            counter.fetch_add(1, Ordering::Relaxed);
            *i
        });
        assert_eq!(counter.load(Ordering::Relaxed), items.len());
        assert_eq!(got, items);
    }

    #[test]
    fn with_jobs_clamps_to_one() {
        assert_eq!(Engine::with_jobs(0).jobs(), 1);
    }

    #[test]
    fn jobs_env_overrides_parallelism() {
        // Env mutation is process-global; keep this the only test that
        // touches JOBS_ENV.
        std::env::set_var(JOBS_ENV, "3");
        assert_eq!(Engine::from_env().jobs(), 3);
        std::env::set_var(JOBS_ENV, "not a number");
        assert!(Engine::from_env().jobs() >= 1);
        std::env::remove_var(JOBS_ENV);
        assert!(Engine::from_env().jobs() >= 1);
    }

    #[test]
    fn golden_for_returns_one_shared_instance() {
        let trace = TraceConfig::small().generate();
        let a = golden_for(AppKind::Crc, &trace);
        let b = golden_for(AppKind::Crc, &trace);
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        let other = golden_for(AppKind::Md5, &trace);
        assert!(!Arc::ptr_eq(&a, &other));
    }

    #[test]
    fn golden_for_matches_direct_computation() {
        let trace = TraceConfig::small().generate();
        let cached = golden_for(AppKind::Tl, &trace);
        let direct = ClumsyProcessor::golden(AppKind::Tl, &trace);
        assert_eq!(*cached, direct);
    }
}
