//! Hand-rolled, zero-dependency campaign telemetry.
//!
//! A million-trial campaign used to be a black box: nothing printed
//! until the CSV landed, and abandoned or retried trials were
//! invisible. This module is the instrumentation layer behind
//! `--progress` and `--metrics`: per-worker atomic counters (jobs
//! completed / retried / abandoned, faults injected by target, strike
//! retries, journal records and fsync latency), monotonic-time span
//! timing into a fixed-bucket latency histogram, and a periodic
//! progress reporter on stderr with rate, ETA and outcome tallies.
//!
//! **Strictly passive.** Telemetry draws no randomness and never feeds
//! back into the simulation: with it off (every hook takes an
//! `Option`), the default path executes bitwise identically — the five
//! pinned digests in `cli/tests/bitwise_regression.rs` and every
//! recorded `results/*.csv` are unchanged. With it on, the only cost is
//! relaxed atomic increments and one monotonic-clock read per job.
//!
//! Counters are sharded: each worker updates its own cache-line-sized
//! [`Counters`] block (selected by worker index), so hot campaigns do
//! not serialize on a shared counter word. [`Telemetry::snapshot`] sums
//! the shards into a consistent-enough view for reporting — counters
//! are monotone, so a snapshot is always a valid past-or-present state.
//!
//! The metrics JSON emitted by [`Telemetry::metrics_json`] is
//! schema-stable (`"schema":"clumsy-metrics-v1"`): integer-only leaf
//! fields with globally unique names, written by callers via
//! [`crate::journal::atomic_write`]. [`parse_metrics`] is the tolerant
//! reader used by tests and CI — it never panics on truncated or
//! garbage input.

use crate::report::RunReport;
use crate::taxonomy::TrialOutcome;
use cache_sim::MemStats;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Schema tag of the metrics JSON; bumped on any incompatible change.
pub const METRICS_SCHEMA: &str = "clumsy-metrics-v1";

/// Number of log2-microsecond latency buckets: bucket `i` counts
/// durations with `floor(log2(us)) == i`, so the histogram spans 1 µs
/// to ~2.3 hours with the last bucket absorbing the tail.
const HIST_BUCKETS: usize = 24;

/// One shard of per-worker counters. Sized past a cache line so
/// adjacent shards do not false-share under concurrent updates.
#[derive(Debug, Default)]
struct Counters {
    jobs_completed: AtomicU64,
    jobs_retried: AtomicU64,
    jobs_abandoned: AtomicU64,
    jobs_failed: AtomicU64,
    faults_injected: AtomicU64,
    tag_faults_injected: AtomicU64,
    parity_faults_injected: AtomicU64,
    l2_faults_injected: AtomicU64,
    faults_detected: AtomicU64,
    faults_corrected: AtomicU64,
    strike_retries: AtomicU64,
    recovery_failures: AtomicU64,
    fast_forward_accesses: AtomicU64,
    slow_path_accesses: AtomicU64,
    ways_disabled: AtomicU64,
    salvage_writebacks: AtomicU64,
    bypass_accesses: AtomicU64,
    outcomes: [AtomicU64; 6],
    journal_records: AtomicU64,
    journal_fsyncs: AtomicU64,
    journal_fsync_us_total: AtomicU64,
    engine_jobs: AtomicU64,
    engine_us_total: AtomicU64,
    packets_ingested: AtomicU64,
    packets_shed: AtomicU64,
    packets_shed_flow_cap: AtomicU64,
    packets_diverted: AtomicU64,
    flows_diverted: AtomicU64,
    drr_deficit_topups: AtomicU64,
    packets_processed: AtomicU64,
    packets_erroneous: AtomicU64,
    packets_dropped: AtomicU64,
    packets_abandoned: AtomicU64,
    shard_panics: AtomicU64,
    shard_restarts: AtomicU64,
    shard_setup_retries: AtomicU64,
    packets_shed_control: AtomicU64,
    packets_shed_data: AtomicU64,
    packets_preempt_shed: AtomicU64,
    packets_shed_slo: AtomicU64,
    slo_trigger_activations: AtomicU64,
    rebalance_pin_table_full: AtomicU64,
    queue_invariant_repairs: AtomicU64,
}

/// Index of `outcome` in the snapshot tally (least to most severe,
/// matching [`TrialOutcome::all`]).
fn outcome_index(outcome: TrialOutcome) -> usize {
    match outcome {
        TrialOutcome::Masked => 0,
        TrialOutcome::Corrected => 1,
        TrialOutcome::DetectedRecovered => 2,
        TrialOutcome::DetectedFatal => 3,
        TrialOutcome::SilentDataCorruption => 4,
        TrialOutcome::RecoveryFailed => 5,
    }
}

/// A monotonic span timer: [`Stopwatch::start`] now, read
/// [`Stopwatch::elapsed`] later. Thin, but it keeps every telemetry
/// duration on the same monotonic clock.
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    started: Instant,
}

impl Stopwatch {
    /// Starts the span.
    #[must_use]
    pub fn start() -> Self {
        Stopwatch {
            started: Instant::now(),
        }
    }

    /// Monotonic time since [`Stopwatch::start`].
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

/// Campaign-wide instrumentation: sharded counters, latency
/// histograms, abandoned-thread gauges and the run clock. Shared
/// across workers as `Arc<Telemetry>`; every update is a relaxed
/// atomic.
#[derive(Debug)]
pub struct Telemetry {
    shards: Box<[Counters]>,
    job_us_buckets: [AtomicU64; HIST_BUCKETS],
    job_us_count: AtomicU64,
    job_us_total: AtomicU64,
    job_us_max: AtomicU64,
    serve_latency_us_buckets: [AtomicU64; HIST_BUCKETS],
    serve_latency_us_count: AtomicU64,
    serve_latency_us_total: AtomicU64,
    serve_latency_us_max: AtomicU64,
    journal_fsync_us_max: AtomicU64,
    abandoned_live: AtomicU64,
    abandoned_peak: AtomicU64,
    abandoned_cap_hits: AtomicU64,
    jobs_total: AtomicU64,
    jobs_replayed: AtomicU64,
    queue_highwater: AtomicU64,
    slo_last_p99_us: AtomicU64,
    started: Instant,
}

/// Histogram bucket for `us` microseconds: `floor(log2(us))`, clamped.
fn bucket_of(us: u64) -> usize {
    let idx = 63 - u64::leading_zeros(us.max(1)) as usize;
    idx.min(HIST_BUCKETS - 1)
}

impl Default for Telemetry {
    fn default() -> Self {
        Telemetry::new()
    }
}

impl Telemetry {
    /// A telemetry block with one counter shard per available core
    /// (clamped to 1..=64).
    #[must_use]
    pub fn new() -> Self {
        let n = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .clamp(1, 64);
        Telemetry::with_shards(n)
    }

    /// A telemetry block with exactly `shards` counter shards
    /// (clamped to at least 1). Worker `w` updates shard
    /// `w % shards`.
    #[must_use]
    pub fn with_shards(shards: usize) -> Self {
        Telemetry {
            shards: (0..shards.max(1)).map(|_| Counters::default()).collect(),
            job_us_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            job_us_count: AtomicU64::new(0),
            job_us_total: AtomicU64::new(0),
            job_us_max: AtomicU64::new(0),
            serve_latency_us_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            serve_latency_us_count: AtomicU64::new(0),
            serve_latency_us_total: AtomicU64::new(0),
            serve_latency_us_max: AtomicU64::new(0),
            journal_fsync_us_max: AtomicU64::new(0),
            abandoned_live: AtomicU64::new(0),
            abandoned_peak: AtomicU64::new(0),
            abandoned_cap_hits: AtomicU64::new(0),
            jobs_total: AtomicU64::new(0),
            jobs_replayed: AtomicU64::new(0),
            queue_highwater: AtomicU64::new(0),
            slo_last_p99_us: AtomicU64::new(0),
            started: Instant::now(),
        }
    }

    fn shard(&self, worker: usize) -> &Counters {
        &self.shards[worker % self.shards.len()]
    }

    /// Time since this telemetry block was created (the run clock
    /// behind rate and ETA).
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Declares `n` more jobs as part of the run (additive, so drivers
    /// running several grids against one block accumulate).
    pub fn add_total_jobs(&self, n: u64) {
        self.jobs_total.fetch_add(n, Ordering::Relaxed);
    }

    /// Counts `n` jobs pre-filled from a journal instead of being run.
    pub fn add_replayed_jobs(&self, n: u64) {
        self.jobs_replayed.fetch_add(n, Ordering::Relaxed);
    }

    /// One freshly completed job on `worker`, with its wall time.
    pub fn job_completed(&self, worker: usize, wall: Duration) {
        self.shard(worker)
            .jobs_completed
            .fetch_add(1, Ordering::Relaxed);
        let us = duration_us(wall);
        self.job_us_buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.job_us_count.fetch_add(1, Ordering::Relaxed);
        self.job_us_total.fetch_add(us, Ordering::Relaxed);
        self.job_us_max.fetch_max(us, Ordering::Relaxed);
    }

    /// A failed or expired attempt was queued for a reseeded retry.
    pub fn job_retried(&self) {
        self.shard(0).jobs_retried.fetch_add(1, Ordering::Relaxed);
    }

    /// A job whose every attempt was exhausted.
    pub fn job_failed(&self) {
        self.shard(0).jobs_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// One attempt abandoned on deadline; the stranded thread is now
    /// live-abandoned until it finishes on its own. Returns the new
    /// live count.
    pub fn abandoned_attempt(&self) -> u64 {
        self.shard(0).jobs_abandoned.fetch_add(1, Ordering::Relaxed);
        let live = self.abandoned_live.fetch_add(1, Ordering::Relaxed) + 1;
        self.abandoned_peak.fetch_max(live, Ordering::Relaxed);
        live
    }

    /// A previously abandoned thread ran to completion and unwound.
    pub fn abandoned_finished(&self) {
        // Saturating: a decrement can never outnumber the increments,
        // but stay safe against misuse rather than wrapping to u64::MAX.
        let _ = self
            .abandoned_live
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Live abandoned (deadline-overrun, still running) threads.
    #[must_use]
    pub fn abandoned_live(&self) -> u64 {
        self.abandoned_live.load(Ordering::Relaxed)
    }

    /// The abandoned-attempt concurrency cap paused job launches.
    pub fn abandoned_cap_hit(&self) {
        self.abandoned_cap_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds one finished run's fault counters and outcome class into
    /// the tallies. Called on the coordinator for fresh completions.
    pub fn record_report(&self, worker: usize, report: &RunReport) {
        self.record_stats(worker, &report.stats);
        self.shard(worker).outcomes[outcome_index(report.outcome())]
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Folds a block of memory-system counters into the tallies —
    /// whole-run stats for batch jobs, or an interval delta
    /// ([`MemStats::since`]) for the serve path's periodic publishes.
    pub fn record_stats(&self, worker: usize, st: &MemStats) {
        let c = self.shard(worker);
        c.faults_injected
            .fetch_add(st.faults_injected, Ordering::Relaxed);
        c.tag_faults_injected
            .fetch_add(st.tag_faults_injected, Ordering::Relaxed);
        c.parity_faults_injected
            .fetch_add(st.parity_faults_injected, Ordering::Relaxed);
        c.l2_faults_injected
            .fetch_add(st.l2_faults_injected, Ordering::Relaxed);
        c.faults_detected
            .fetch_add(st.faults_detected, Ordering::Relaxed);
        c.faults_corrected
            .fetch_add(st.faults_corrected, Ordering::Relaxed);
        c.strike_retries
            .fetch_add(st.strike_retries, Ordering::Relaxed);
        c.recovery_failures
            .fetch_add(st.recovery_failures, Ordering::Relaxed);
        c.fast_forward_accesses
            .fetch_add(st.fast_forward_accesses, Ordering::Relaxed);
        c.slow_path_accesses
            .fetch_add(st.slow_path_accesses, Ordering::Relaxed);
        c.ways_disabled
            .fetch_add(st.ways_disabled, Ordering::Relaxed);
        c.salvage_writebacks
            .fetch_add(st.salvage_writebacks, Ordering::Relaxed);
        c.bypass_accesses
            .fetch_add(st.bypass_accesses, Ordering::Relaxed);
    }

    /// One packet accepted into a shard's ingress queue.
    pub fn packet_ingested(&self) {
        self.shard(0)
            .packets_ingested
            .fetch_add(1, Ordering::Relaxed);
    }

    /// One packet shed at ingress under backpressure.
    pub fn packet_shed(&self) {
        self.shard(0).packets_shed.fetch_add(1, Ordering::Relaxed);
    }

    /// One packet shed because its flow was at the per-flow queue cap
    /// (a subset of [`Telemetry::packet_shed`], which is also called).
    pub fn packet_shed_flow_cap(&self) {
        self.shard(0)
            .packets_shed_flow_cap
            .fetch_add(1, Ordering::Relaxed);
    }

    /// One packet routed to a pinned (non-natural) shard by the
    /// rebalancer.
    pub fn packet_diverted(&self) {
        self.shard(0)
            .packets_diverted
            .fetch_add(1, Ordering::Relaxed);
    }

    /// One flow pinned away from its hot natural shard.
    pub fn flow_diverted(&self) {
        self.shard(0).flows_diverted.fetch_add(1, Ordering::Relaxed);
    }

    /// Folds `n` DRR deficit top-ups into the tallies (the serve path
    /// publishes the per-queue totals once, at drain).
    pub fn add_drr_topups(&self, n: u64) {
        self.shard(0)
            .drr_deficit_topups
            .fetch_add(n, Ordering::Relaxed);
    }

    /// One packet's enqueue→verdict latency on the serve path.
    pub fn serve_latency(&self, wall: Duration) {
        let us = duration_us(wall);
        self.serve_latency_us_buckets[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.serve_latency_us_count.fetch_add(1, Ordering::Relaxed);
        self.serve_latency_us_total.fetch_add(us, Ordering::Relaxed);
        self.serve_latency_us_max.fetch_max(us, Ordering::Relaxed);
    }

    /// One packet fully processed by shard `worker`; `erroneous` marks
    /// a measured run whose marked values diverged from golden.
    pub fn packet_processed(&self, worker: usize, erroneous: bool) {
        let c = self.shard(worker);
        c.packets_processed.fetch_add(1, Ordering::Relaxed);
        if erroneous {
            c.packets_erroneous.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One packet dropped by shard `worker`'s watchdog (fatal error
    /// contained, machine kept alive).
    pub fn packet_dropped(&self, worker: usize) {
        self.shard(worker)
            .packets_dropped
            .fetch_add(1, Ordering::Relaxed);
    }

    /// One in-flight packet lost to a caught shard panic.
    pub fn packet_abandoned(&self) {
        self.shard(0)
            .packets_abandoned
            .fetch_add(1, Ordering::Relaxed);
    }

    /// One shard panic caught by its supervisor.
    pub fn shard_panic(&self) {
        self.shard(0).shard_panics.fetch_add(1, Ordering::Relaxed);
    }

    /// One shard restarted with reseeded RNG streams after a panic.
    pub fn shard_restarted(&self) {
        self.shard(0).shard_restarts.fetch_add(1, Ordering::Relaxed);
    }

    /// One reseeded machine rebuild after a control-plane fatal.
    pub fn shard_setup_retry(&self) {
        self.shard(0)
            .shard_setup_retries
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Observes an ingress-queue occupancy; the snapshot keeps the
    /// high-water mark (the bounded-memory evidence in the soak).
    pub fn queue_depth_sample(&self, depth: u64) {
        self.queue_highwater.fetch_max(depth, Ordering::Relaxed);
    }

    /// One control-class packet shed at ingress (a subset of
    /// [`Telemetry::packet_shed`], which is also called). Non-zero only
    /// when the class-aware path misbehaves — the smoke jobs assert it
    /// stays at zero.
    pub fn packet_shed_control(&self) {
        self.shard(0)
            .packets_shed_control
            .fetch_add(1, Ordering::Relaxed);
    }

    /// One data-class packet shed at ingress (a subset of
    /// [`Telemetry::packet_shed`], which is also called).
    pub fn packet_shed_data(&self) {
        self.shard(0)
            .packets_shed_data
            .fetch_add(1, Ordering::Relaxed);
    }

    /// One data-class packet evicted from a full queue to admit a
    /// control-class packet (a subset of
    /// [`Telemetry::packet_shed_data`]).
    pub fn packet_preempt_shed(&self) {
        self.shard(0)
            .packets_preempt_shed
            .fetch_add(1, Ordering::Relaxed);
    }

    /// One data-class packet shed under the tightened deadline of an
    /// active latency-SLO trigger (a subset of
    /// [`Telemetry::packet_shed_data`]).
    pub fn packet_shed_slo(&self) {
        self.shard(0)
            .packets_shed_slo
            .fetch_add(1, Ordering::Relaxed);
    }

    /// The latency-SLO trigger transitioned inactive→active once.
    pub fn slo_activation(&self) {
        self.shard(0)
            .slo_trigger_activations
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes the most recent windowed p99 estimate (microseconds,
    /// conservative bucket-upper-edge) seen by the SLO trigger. A
    /// gauge: last write wins.
    pub fn set_slo_last_p99_us(&self, us: u64) {
        self.slo_last_p99_us.store(us, Ordering::Relaxed);
    }

    /// Folds `n` rejected rebalance pins (pin table full) into the
    /// tallies; the serve path publishes the total once, at drain.
    pub fn add_pin_table_full(&self, n: u64) {
        self.shard(0)
            .rebalance_pin_table_full
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Folds `n` repaired ingress-queue invariant violations into the
    /// tallies (stale DRR active slots, empty flow queues). Anything
    /// non-zero is a bug being survived rather than wedged on.
    pub fn add_queue_invariant_repairs(&self, n: u64) {
        self.shard(0)
            .queue_invariant_repairs
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Raw cumulative per-bucket loads of the serve enqueue→verdict
    /// histogram, index `i` counting spans with `floor(log2(us)) == i`
    /// (last bucket absorbs the tail). The SLO trigger diffs successive
    /// calls to form sliding windows.
    #[must_use]
    pub fn serve_latency_bucket_counts(&self) -> Vec<u64> {
        self.serve_latency_us_buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// One engine-pool job finished on `worker` after `wall`.
    pub fn engine_job(&self, worker: usize, wall: Duration) {
        let c = self.shard(worker);
        c.engine_jobs.fetch_add(1, Ordering::Relaxed);
        c.engine_us_total
            .fetch_add(duration_us(wall), Ordering::Relaxed);
    }

    /// `n` records queued to the journal writer thread.
    pub fn journal_records(&self, n: u64) {
        self.shard(0)
            .journal_records
            .fetch_add(n, Ordering::Relaxed);
    }

    /// One batched journal fsync took `wall`.
    pub fn journal_fsync(&self, wall: Duration) {
        let us = duration_us(wall);
        let c = self.shard(0);
        c.journal_fsyncs.fetch_add(1, Ordering::Relaxed);
        c.journal_fsync_us_total.fetch_add(us, Ordering::Relaxed);
        self.journal_fsync_us_max.fetch_max(us, Ordering::Relaxed);
    }

    /// Sums every shard into a plain snapshot.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut s = MetricsSnapshot {
            elapsed: self.elapsed(),
            jobs_total: self.jobs_total.load(Ordering::Relaxed),
            jobs_replayed: self.jobs_replayed.load(Ordering::Relaxed),
            abandoned_live: self.abandoned_live.load(Ordering::Relaxed),
            abandoned_peak: self.abandoned_peak.load(Ordering::Relaxed),
            abandoned_cap_hits: self.abandoned_cap_hits.load(Ordering::Relaxed),
            queue_highwater: self.queue_highwater.load(Ordering::Relaxed),
            slo_last_p99_us: self.slo_last_p99_us.load(Ordering::Relaxed),
            job_us_count: self.job_us_count.load(Ordering::Relaxed),
            job_us_total: self.job_us_total.load(Ordering::Relaxed),
            job_us_max: self.job_us_max.load(Ordering::Relaxed),
            journal_fsync_us_max: self.journal_fsync_us_max.load(Ordering::Relaxed),
            job_us_buckets: self
                .job_us_buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((1u64 << i, n))
                })
                .collect(),
            serve_latency_us_count: self.serve_latency_us_count.load(Ordering::Relaxed),
            serve_latency_us_total: self.serve_latency_us_total.load(Ordering::Relaxed),
            serve_latency_us_max: self.serve_latency_us_max.load(Ordering::Relaxed),
            serve_latency_us_buckets: self
                .serve_latency_us_buckets
                .iter()
                .enumerate()
                .filter_map(|(i, b)| {
                    let n = b.load(Ordering::Relaxed);
                    (n > 0).then_some((1u64 << i, n))
                })
                .collect(),
            ..MetricsSnapshot::default()
        };
        for c in self.shards.iter() {
            s.jobs_completed += c.jobs_completed.load(Ordering::Relaxed);
            s.jobs_retried += c.jobs_retried.load(Ordering::Relaxed);
            s.jobs_abandoned += c.jobs_abandoned.load(Ordering::Relaxed);
            s.jobs_failed += c.jobs_failed.load(Ordering::Relaxed);
            s.faults_injected += c.faults_injected.load(Ordering::Relaxed);
            s.tag_faults_injected += c.tag_faults_injected.load(Ordering::Relaxed);
            s.parity_faults_injected += c.parity_faults_injected.load(Ordering::Relaxed);
            s.l2_faults_injected += c.l2_faults_injected.load(Ordering::Relaxed);
            s.faults_detected += c.faults_detected.load(Ordering::Relaxed);
            s.faults_corrected += c.faults_corrected.load(Ordering::Relaxed);
            s.strike_retries += c.strike_retries.load(Ordering::Relaxed);
            s.recovery_failures += c.recovery_failures.load(Ordering::Relaxed);
            s.fast_forward_accesses += c.fast_forward_accesses.load(Ordering::Relaxed);
            s.slow_path_accesses += c.slow_path_accesses.load(Ordering::Relaxed);
            s.ways_disabled += c.ways_disabled.load(Ordering::Relaxed);
            s.salvage_writebacks += c.salvage_writebacks.load(Ordering::Relaxed);
            s.bypass_accesses += c.bypass_accesses.load(Ordering::Relaxed);
            for (tally, bucket) in s.outcomes.iter_mut().zip(c.outcomes.iter()) {
                *tally += bucket.load(Ordering::Relaxed);
            }
            s.journal_records += c.journal_records.load(Ordering::Relaxed);
            s.journal_fsyncs += c.journal_fsyncs.load(Ordering::Relaxed);
            s.journal_fsync_us_total += c.journal_fsync_us_total.load(Ordering::Relaxed);
            s.engine_jobs += c.engine_jobs.load(Ordering::Relaxed);
            s.engine_us_total += c.engine_us_total.load(Ordering::Relaxed);
            s.packets_ingested += c.packets_ingested.load(Ordering::Relaxed);
            s.packets_shed += c.packets_shed.load(Ordering::Relaxed);
            s.packets_shed_flow_cap += c.packets_shed_flow_cap.load(Ordering::Relaxed);
            s.packets_diverted += c.packets_diverted.load(Ordering::Relaxed);
            s.flows_diverted += c.flows_diverted.load(Ordering::Relaxed);
            s.drr_deficit_topups += c.drr_deficit_topups.load(Ordering::Relaxed);
            s.packets_processed += c.packets_processed.load(Ordering::Relaxed);
            s.packets_erroneous += c.packets_erroneous.load(Ordering::Relaxed);
            s.packets_dropped += c.packets_dropped.load(Ordering::Relaxed);
            s.packets_abandoned += c.packets_abandoned.load(Ordering::Relaxed);
            s.shard_panics += c.shard_panics.load(Ordering::Relaxed);
            s.shard_restarts += c.shard_restarts.load(Ordering::Relaxed);
            s.shard_setup_retries += c.shard_setup_retries.load(Ordering::Relaxed);
            s.packets_shed_control += c.packets_shed_control.load(Ordering::Relaxed);
            s.packets_shed_data += c.packets_shed_data.load(Ordering::Relaxed);
            s.packets_preempt_shed += c.packets_preempt_shed.load(Ordering::Relaxed);
            s.packets_shed_slo += c.packets_shed_slo.load(Ordering::Relaxed);
            s.slo_trigger_activations += c.slo_trigger_activations.load(Ordering::Relaxed);
            s.rebalance_pin_table_full += c.rebalance_pin_table_full.load(Ordering::Relaxed);
            s.queue_invariant_repairs += c.queue_invariant_repairs.load(Ordering::Relaxed);
        }
        s
    }

    /// Renders the schema-stable metrics JSON
    /// (`"schema":"clumsy-metrics-v1"`; integer-only leaves with
    /// globally unique names). Callers persist it with
    /// [`crate::journal::atomic_write`].
    #[must_use]
    pub fn metrics_json(&self) -> String {
        self.snapshot().to_json()
    }
}

/// Whole microseconds in `d`, saturating (a span near `u64::MAX` µs is
/// 584 000 years — clamping is theoretical, not practical).
fn duration_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// A plain (non-atomic) sum of every counter at one instant.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Run-clock time since the telemetry block was created.
    pub elapsed: Duration,
    /// Jobs declared for the run ([`Telemetry::add_total_jobs`]).
    pub jobs_total: u64,
    /// Fresh completions (excludes replayed jobs).
    pub jobs_completed: u64,
    /// Jobs pre-filled from a journal.
    pub jobs_replayed: u64,
    /// Attempts re-queued with a reseeded trial.
    pub jobs_retried: u64,
    /// Attempts abandoned on deadline.
    pub jobs_abandoned: u64,
    /// Jobs whose every attempt was exhausted.
    pub jobs_failed: u64,
    /// Deadline-overrun threads still running right now.
    pub abandoned_live: u64,
    /// High-water mark of [`MetricsSnapshot::abandoned_live`].
    pub abandoned_peak: u64,
    /// Times the abandoned-attempt cap paused launches.
    pub abandoned_cap_hits: u64,
    /// Faults injected, all targets.
    pub faults_injected: u64,
    /// Faults injected into tag bits.
    pub tag_faults_injected: u64,
    /// Faults injected into parity/check bits.
    pub parity_faults_injected: u64,
    /// Faults injected into the L2 data array.
    pub l2_faults_injected: u64,
    /// Faults flagged by the detection scheme.
    pub faults_detected: u64,
    /// Faults corrected in place (SECDED).
    pub faults_corrected: u64,
    /// Strike-path retries.
    pub strike_retries: u64,
    /// Strike refetches that pulled corrupted data back in.
    pub recovery_failures: u64,
    /// Accesses served by the batched fault-free fast path.
    pub fast_forward_accesses: u64,
    /// Accesses that took the full checking path.
    pub slow_path_accesses: u64,
    /// L1 ways mapped out by escalation or explicit fault maps.
    pub ways_disabled: u64,
    /// Dirty lines salvaged through the writeback path at disable time.
    pub salvage_writebacks: u64,
    /// Accesses to fully mapped-out sets serviced from the L2 bypass.
    pub bypass_accesses: u64,
    /// Trial tallies, least to most severe ([`TrialOutcome::all`]).
    pub outcomes: [u64; 6],
    /// Serve: packets accepted into ingress queues.
    pub packets_ingested: u64,
    /// Serve: packets shed at ingress under backpressure.
    pub packets_shed: u64,
    /// Serve: packets shed at the per-flow queue cap (subset of
    /// [`MetricsSnapshot::packets_shed`]).
    pub packets_shed_flow_cap: u64,
    /// Serve: packets routed to a pinned (non-natural) shard.
    pub packets_diverted: u64,
    /// Serve: flows pinned away from hot shards by the rebalancer.
    pub flows_diverted: u64,
    /// Serve: DRR deficit top-ups across all ingress queues.
    pub drr_deficit_topups: u64,
    /// Serve: packets fully processed by shards.
    pub packets_processed: u64,
    /// Serve: processed packets with marked-value divergence.
    pub packets_erroneous: u64,
    /// Serve: packets dropped by shard watchdogs.
    pub packets_dropped: u64,
    /// Serve: in-flight packets lost to caught shard panics.
    pub packets_abandoned: u64,
    /// Serve: shard panics caught by supervisors.
    pub shard_panics: u64,
    /// Serve: shard restarts after caught panics.
    pub shard_restarts: u64,
    /// Serve: reseeded machine rebuilds after control-plane fatals.
    pub shard_setup_retries: u64,
    /// Serve: high-water ingress-queue occupancy.
    pub queue_highwater: u64,
    /// Serve: control-class packets shed at ingress (subset of
    /// [`MetricsSnapshot::packets_shed`]; asserted zero by the smoke
    /// jobs whenever classes are on).
    pub packets_shed_control: u64,
    /// Serve: data-class packets shed at ingress (subset of
    /// [`MetricsSnapshot::packets_shed`]).
    pub packets_shed_data: u64,
    /// Serve: data-class packets evicted to admit control-class
    /// packets (subset of [`MetricsSnapshot::packets_shed_data`]).
    pub packets_preempt_shed: u64,
    /// Serve: data-class packets shed under a tightened SLO deadline
    /// (subset of [`MetricsSnapshot::packets_shed_data`]).
    pub packets_shed_slo: u64,
    /// Serve: latency-SLO trigger inactive→active transitions.
    pub slo_trigger_activations: u64,
    /// Serve: last windowed p99 estimate seen by the SLO trigger
    /// (microseconds, conservative bucket-upper-edge; a gauge).
    pub slo_last_p99_us: u64,
    /// Serve: rebalance pins rejected because the pin table was full.
    pub rebalance_pin_table_full: u64,
    /// Serve: repaired ingress-queue invariant violations (non-zero
    /// means a bug was survived, not wedged on).
    pub queue_invariant_repairs: u64,
    /// Records handed to the journal writer thread.
    pub journal_records: u64,
    /// Batched fsyncs the journal writer issued.
    pub journal_fsyncs: u64,
    /// Total microseconds spent in journal fsyncs.
    pub journal_fsync_us_total: u64,
    /// Slowest single journal fsync, microseconds.
    pub journal_fsync_us_max: u64,
    /// Jobs executed by the engine thread pool.
    pub engine_jobs: u64,
    /// Total microseconds of engine-pool job wall time.
    pub engine_us_total: u64,
    /// Timed campaign jobs (equals fresh completions).
    pub job_us_count: u64,
    /// Total campaign-job wall microseconds.
    pub job_us_total: u64,
    /// Slowest single campaign job, microseconds.
    pub job_us_max: u64,
    /// Non-empty log2 latency buckets as `(floor_us, count)`.
    pub job_us_buckets: Vec<(u64, u64)>,
    /// Serve: packets timed enqueue→verdict.
    pub serve_latency_us_count: u64,
    /// Serve: total enqueue→verdict microseconds.
    pub serve_latency_us_total: u64,
    /// Serve: slowest single enqueue→verdict span, microseconds.
    pub serve_latency_us_max: u64,
    /// Serve: non-empty log2 latency buckets as `(floor_us, count)`.
    pub serve_latency_us_buckets: Vec<(u64, u64)>,
}

impl MetricsSnapshot {
    /// Fresh completions per second of run-clock time.
    #[must_use]
    pub fn rate(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.jobs_completed as f64 / secs
        } else {
            0.0
        }
    }

    /// Estimated seconds to finish the declared jobs at the current
    /// rate; `None` before the first completion or without a total.
    #[must_use]
    pub fn eta_seconds(&self) -> Option<f64> {
        let done = self.jobs_completed + self.jobs_replayed;
        let remaining = self.jobs_total.checked_sub(done)?;
        let rate = self.rate();
        (self.jobs_completed > 0 && rate > 0.0).then(|| remaining as f64 / rate)
    }

    /// The schema-stable metrics JSON (see [`Telemetry::metrics_json`]).
    #[must_use]
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(1024);
        let _ = write!(
            s,
            "{{\n  \"schema\": \"{METRICS_SCHEMA}\",\n  \"elapsed_ms\": {},",
            u64::try_from(self.elapsed.as_millis()).unwrap_or(u64::MAX)
        );
        let _ = write!(
            s,
            "\n  \"jobs\": {{\"jobs_total\": {}, \"jobs_completed\": {}, \"jobs_replayed\": {}, \
             \"jobs_retried\": {}, \"jobs_abandoned\": {}, \"jobs_failed\": {}, \
             \"abandoned_live\": {}, \"abandoned_peak\": {}, \"abandoned_cap_hits\": {}}},",
            self.jobs_total,
            self.jobs_completed,
            self.jobs_replayed,
            self.jobs_retried,
            self.jobs_abandoned,
            self.jobs_failed,
            self.abandoned_live,
            self.abandoned_peak,
            self.abandoned_cap_hits
        );
        let _ = write!(
            s,
            "\n  \"faults\": {{\"faults_injected\": {}, \"tag_faults_injected\": {}, \
             \"parity_faults_injected\": {}, \"l2_faults_injected\": {}, \
             \"faults_detected\": {}, \"faults_corrected\": {}, \"strike_retries\": {}, \
             \"recovery_failures\": {}, \"ways_disabled\": {}, \"salvage_writebacks\": {}, \
             \"bypass_accesses\": {}}},",
            self.faults_injected,
            self.tag_faults_injected,
            self.parity_faults_injected,
            self.l2_faults_injected,
            self.faults_detected,
            self.faults_corrected,
            self.strike_retries,
            self.recovery_failures,
            self.ways_disabled,
            self.salvage_writebacks,
            self.bypass_accesses
        );
        let _ = write!(
            s,
            "\n  \"outcomes\": {{\"outcome_masked\": {}, \"outcome_corrected\": {}, \
             \"outcome_detected_recovered\": {}, \"outcome_detected_fatal\": {}, \
             \"outcome_sdc\": {}, \"outcome_recovery_failed\": {}}},",
            self.outcomes[0],
            self.outcomes[1],
            self.outcomes[2],
            self.outcomes[3],
            self.outcomes[4],
            self.outcomes[5]
        );
        let _ = write!(
            s,
            "\n  \"serve\": {{\"packets_ingested\": {}, \"packets_shed\": {}, \
             \"packets_processed\": {}, \"packets_erroneous\": {}, \
             \"packets_dropped\": {}, \"packets_abandoned\": {}, \
             \"shard_panics\": {}, \"shard_restarts\": {}, \
             \"shard_setup_retries\": {}, \"queue_highwater\": {}, \
             \"packets_shed_flow_cap\": {}, \"packets_diverted\": {}, \
             \"flows_diverted\": {}, \"drr_deficit_topups\": {}, \
             \"serve_latency_us_count\": {}, \"serve_latency_us_total\": {}, \
             \"serve_latency_us_max\": {}, \"serve_latency_us_buckets\": [",
            self.packets_ingested,
            self.packets_shed,
            self.packets_processed,
            self.packets_erroneous,
            self.packets_dropped,
            self.packets_abandoned,
            self.shard_panics,
            self.shard_restarts,
            self.shard_setup_retries,
            self.queue_highwater,
            self.packets_shed_flow_cap,
            self.packets_diverted,
            self.flows_diverted,
            self.drr_deficit_topups,
            self.serve_latency_us_count,
            self.serve_latency_us_total,
            self.serve_latency_us_max
        );
        for (i, (floor, n)) in self.serve_latency_us_buckets.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "[{floor}, {n}]");
        }
        s.push_str("]},");
        let _ = write!(
            s,
            "\n  \"class\": {{\"packets_shed_control\": {}, \"packets_shed_data\": {}, \
             \"packets_preempt_shed\": {}, \"packets_shed_slo\": {}, \
             \"slo_trigger_activations\": {}, \"slo_last_p99_us\": {}, \
             \"rebalance_pin_table_full\": {}, \"queue_invariant_repairs\": {}}},",
            self.packets_shed_control,
            self.packets_shed_data,
            self.packets_preempt_shed,
            self.packets_shed_slo,
            self.slo_trigger_activations,
            self.slo_last_p99_us,
            self.rebalance_pin_table_full,
            self.queue_invariant_repairs
        );
        let _ = write!(
            s,
            "\n  \"journal\": {{\"journal_records\": {}, \"journal_fsyncs\": {}, \
             \"journal_fsync_us_total\": {}, \"journal_fsync_us_max\": {}}},",
            self.journal_records,
            self.journal_fsyncs,
            self.journal_fsync_us_total,
            self.journal_fsync_us_max
        );
        let _ = write!(
            s,
            "\n  \"engine\": {{\"engine_jobs\": {}, \"engine_us_total\": {}, \
             \"fast_forward_accesses\": {}, \"slow_path_accesses\": {}}},",
            self.engine_jobs,
            self.engine_us_total,
            self.fast_forward_accesses,
            self.slow_path_accesses
        );
        let _ = write!(
            s,
            "\n  \"job_time\": {{\"job_us_count\": {}, \"job_us_total\": {}, \
             \"job_us_max\": {}, \"job_us_buckets\": [",
            self.job_us_count, self.job_us_total, self.job_us_max
        );
        for (i, (floor, n)) in self.job_us_buckets.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "[{floor}, {n}]");
        }
        s.push_str("]}\n}\n");
        s
    }

    /// One human progress line (the `--progress` format): completion,
    /// rate, ETA, outcome tallies, retry/abandon counts.
    #[must_use]
    pub fn progress_line(&self, label: &str) -> String {
        use std::fmt::Write as _;
        let done = self.jobs_completed + self.jobs_replayed;
        let mut line = format!("[{label}] {done}");
        if self.jobs_total > 0 {
            let pct = 100.0 * done as f64 / self.jobs_total as f64;
            let _ = write!(line, "/{} jobs ({pct:.1}%)", self.jobs_total);
        } else {
            line.push_str(" jobs");
        }
        let _ = write!(line, " | {:.1} jobs/s", self.rate());
        match self.eta_seconds() {
            Some(eta) => {
                let _ = write!(line, " | ETA {eta:.0}s");
            }
            None => line.push_str(" | ETA --"),
        }
        let _ = write!(
            line,
            " | masked {} corrected {} recovered {} fatal {} sdc {} rec_fail {}",
            self.outcomes[0],
            self.outcomes[1],
            self.outcomes[2],
            self.outcomes[3],
            self.outcomes[4],
            self.outcomes[5]
        );
        let _ = write!(
            line,
            " | retried {} abandoned {} (live {})",
            self.jobs_retried, self.jobs_abandoned, self.abandoned_live
        );
        line
    }

    /// Processed packets per second of run-clock time (the serve rate).
    #[must_use]
    pub fn packet_rate(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.packets_processed as f64 / secs
        } else {
            0.0
        }
    }

    /// One human progress line for the open-ended serve path: rate and
    /// outcome tallies, no total and no ETA — the stream is unbounded.
    #[must_use]
    pub fn serve_progress_line(&self, label: &str) -> String {
        format!(
            "[{label}] {} pkts | {:.0} pkt/s | shed {} dropped {} abandoned {} \
             | restarts {} (panics {}) | queue hw {}",
            self.packets_processed,
            self.packet_rate(),
            self.packets_shed,
            self.packets_dropped,
            self.packets_abandoned,
            self.shard_restarts,
            self.shard_panics,
            self.queue_highwater
        )
    }
}

/// Which line format a [`ProgressReporter`] prints.
#[derive(Debug, Clone, Copy)]
enum LineMode {
    /// Bounded campaign: completion fraction, rate, ETA.
    Campaign,
    /// Open-ended serving: packet rate and outcome tallies, no ETA.
    Serve,
}

/// A background thread that calls its tick once per interval until
/// stopped, and once more at stop. Stopping (or dropping) wakes the
/// thread at once and joins it, however early it comes: the wait
/// checks the stop flag before it sleeps.
#[derive(Debug)]
struct Ticker {
    state: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Ticker {
    fn start(every: Duration, mut tick: impl FnMut() + Send + 'static) -> Self {
        let state = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_state = Arc::clone(&state);
        let handle = std::thread::spawn(move || {
            let (stop, cv) = &*thread_state;
            let mut stopped = stop.lock().unwrap_or_else(|e| e.into_inner());
            while !*stopped {
                let (guard, _) = cv
                    .wait_timeout_while(stopped, every, |stopped| !*stopped)
                    .unwrap_or_else(|e| e.into_inner());
                stopped = guard;
                if !*stopped {
                    tick();
                }
            }
            drop(stopped);
            tick();
        });
        Ticker {
            state,
            handle: Some(handle),
        }
    }
}

impl Drop for Ticker {
    fn drop(&mut self) {
        let (stop, cv) = &*self.state;
        *stop.lock().unwrap_or_else(|e| e.into_inner()) = true;
        cv.notify_all();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Background thread printing a [`MetricsSnapshot::progress_line`] to
/// stderr every interval. Started behind `--progress`; stopping (or
/// dropping) joins the thread after one final line.
#[derive(Debug)]
pub struct ProgressReporter {
    _ticker: Ticker,
}

impl ProgressReporter {
    /// Spawns the reporter: one line per `every` until stopped.
    #[must_use]
    pub fn start(telemetry: Arc<Telemetry>, label: &str, every: Duration) -> Self {
        ProgressReporter::start_mode(telemetry, label, every, LineMode::Campaign)
    }

    /// Spawns the reporter in open-ended mode: rate and outcome
    /// tallies with no job total and no ETA, for jobs whose end is not
    /// known up front (the serve path's unbounded stream).
    #[must_use]
    pub fn start_open_ended(telemetry: Arc<Telemetry>, label: &str, every: Duration) -> Self {
        ProgressReporter::start_mode(telemetry, label, every, LineMode::Serve)
    }

    fn start_mode(telemetry: Arc<Telemetry>, label: &str, every: Duration, mode: LineMode) -> Self {
        let label = label.to_string();
        // The tick at stop is the final line, so short runs still
        // report something.
        let ticker = Ticker::start(every, move || {
            let snap = telemetry.snapshot();
            let line = match mode {
                LineMode::Campaign => snap.progress_line(&label),
                LineMode::Serve => snap.serve_progress_line(&label),
            };
            eprintln!("{line}");
        });
        ProgressReporter { _ticker: ticker }
    }

    /// Stops the reporter and joins its thread (also done on drop).
    pub fn stop(self) {}
}

/// Background thread rewriting the `--metrics` JSON file every
/// interval via [`crate::journal::atomic_write`], so an external
/// watcher (or a post-mortem after a kill) always finds a complete,
/// schema-valid snapshot rather than only the final one. Stopping (or
/// dropping) writes one last snapshot and joins the thread.
#[derive(Debug)]
pub struct MetricsFlusher {
    _ticker: Ticker,
}

impl MetricsFlusher {
    /// Writes the file once before returning, then spawns the flusher:
    /// one atomic rewrite of `path` per `every` until
    /// stopped, plus a final write at stop — the last interval's
    /// window is never lost, however the run ends. Write errors are
    /// reported to stderr once and the thread keeps ticking — a full
    /// disk must not take the serving loop down with it.
    #[must_use]
    pub fn start(telemetry: Arc<Telemetry>, path: PathBuf, every: Duration) -> Self {
        let mut warned = false;
        let mut flush = move || {
            if let Err(e) = crate::journal::atomic_write(&path, telemetry.metrics_json().as_bytes())
            {
                if !warned {
                    eprintln!("warning: metrics flush to {} failed: {e}", path.display());
                    warned = true;
                }
            }
        };
        // Written before the thread starts, so a watcher attaching right
        // after launch (or a run killed inside the first interval)
        // already finds a complete, schema-valid snapshot.
        flush();
        MetricsFlusher {
            _ticker: Ticker::start(every, flush),
        }
    }

    /// Stops the flusher after one final write (also done on drop).
    pub fn stop(self) {}
}

/// Tolerant reader for the metrics JSON, used by tests and CI scripts.
///
/// Collects every `"key": <integer>` leaf into a map. Returns `None`
/// when the [`METRICS_SCHEMA`] marker is absent (wrong or mangled
/// schema); never panics, whatever the input — truncated files,
/// garbage bytes and partial writes all simply yield `None` or a
/// partial map.
#[must_use]
pub fn parse_metrics(text: &str) -> Option<std::collections::BTreeMap<String, u64>> {
    if !text.contains(METRICS_SCHEMA) {
        return None;
    }
    let bytes = text.as_bytes();
    let mut map = std::collections::BTreeMap::new();
    let mut pos = 0usize;
    while pos < bytes.len() {
        if bytes[pos] != b'"' {
            pos += 1;
            continue;
        }
        let key_start = pos + 1;
        let Some(key_len) = bytes[key_start..].iter().position(|&b| b == b'"') else {
            break;
        };
        let mut after = key_start + key_len + 1;
        // Skip whitespace, require a colon, skip whitespace again.
        while bytes.get(after).is_some_and(|b| b.is_ascii_whitespace()) {
            after += 1;
        }
        if bytes.get(after) != Some(&b':') {
            pos = key_start + key_len + 1;
            continue;
        }
        after += 1;
        while bytes.get(after).is_some_and(|b| b.is_ascii_whitespace()) {
            after += 1;
        }
        let digits_start = after;
        while bytes.get(after).is_some_and(u8::is_ascii_digit) {
            after += 1;
        }
        if after > digits_start && after - digits_start <= 20 {
            if let (Ok(key), Ok(value)) = (
                std::str::from_utf8(&bytes[key_start..key_start + key_len]),
                std::str::from_utf8(&bytes[digits_start..after])
                    .unwrap_or("")
                    .parse::<u64>(),
            ) {
                map.insert(key.to_string(), value);
            }
        }
        pos = after.max(key_start + key_len + 1);
    }
    Some(map)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_cover_the_log2_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn counters_sum_across_shards() {
        let t = Telemetry::with_shards(4);
        t.add_total_jobs(10);
        for w in 0..8 {
            t.job_completed(w, Duration::from_micros(100 + w as u64));
        }
        t.job_retried();
        t.job_failed();
        let s = t.snapshot();
        assert_eq!(s.jobs_total, 10);
        assert_eq!(s.jobs_completed, 8);
        assert_eq!(s.jobs_retried, 1);
        assert_eq!(s.jobs_failed, 1);
        assert_eq!(s.job_us_count, 8);
        assert!(s.job_us_max >= 107);
        assert_eq!(s.job_us_buckets.iter().map(|(_, n)| n).sum::<u64>(), 8);
    }

    #[test]
    fn abandoned_gauges_track_live_and_peak() {
        let t = Telemetry::with_shards(1);
        assert_eq!(t.abandoned_attempt(), 1);
        assert_eq!(t.abandoned_attempt(), 2);
        t.abandoned_finished();
        assert_eq!(t.abandoned_live(), 1);
        t.abandoned_finished();
        t.abandoned_finished(); // extra decrement must saturate, not wrap
        let s = t.snapshot();
        assert_eq!(s.abandoned_live, 0);
        assert_eq!(s.abandoned_peak, 2);
        assert_eq!(s.jobs_abandoned, 2);
    }

    #[test]
    fn metrics_json_round_trips_through_the_tolerant_reader() {
        let t = Telemetry::with_shards(2);
        t.add_total_jobs(4);
        t.job_completed(0, Duration::from_micros(50));
        t.journal_records(3);
        t.journal_fsync(Duration::from_micros(200));
        let json = t.metrics_json();
        assert!(json.contains(METRICS_SCHEMA));
        let map = parse_metrics(&json).expect("schema marker present");
        assert_eq!(map.get("jobs_total"), Some(&4));
        assert_eq!(map.get("jobs_completed"), Some(&1));
        assert_eq!(map.get("journal_records"), Some(&3));
        assert_eq!(map.get("journal_fsyncs"), Some(&1));
        assert!(map.contains_key("journal_fsync_us_total"));
        assert!(map.contains_key("outcome_sdc"));
        assert!(map.contains_key("engine_jobs"));
        assert!(map.contains_key("elapsed_ms"));
        assert!(map.contains_key("ways_disabled"));
        assert!(map.contains_key("salvage_writebacks"));
        assert!(map.contains_key("bypass_accesses"));
    }

    #[test]
    fn parse_metrics_survives_garbage_without_a_schema() {
        assert_eq!(parse_metrics(""), None);
        assert_eq!(parse_metrics("{\"jobs_total\": 3}"), None);
        assert_eq!(parse_metrics("\u{0}\u{1}random bytes"), None);
    }

    #[test]
    fn parse_metrics_tolerates_truncation() {
        let t = Telemetry::with_shards(1);
        t.add_total_jobs(7);
        let json = t.metrics_json();
        // Any prefix long enough to keep the schema marker parses to a
        // (possibly partial) map; shorter prefixes yield None. Nothing
        // panics either way.
        for cut in 0..json.len() {
            let _ = parse_metrics(&json[..cut]);
        }
    }

    #[test]
    fn progress_line_reports_completion_and_eta() {
        let t = Telemetry::with_shards(1);
        t.add_total_jobs(10);
        t.job_completed(0, Duration::from_micros(10));
        let line = t.snapshot().progress_line("unit");
        assert!(line.starts_with("[unit] 1/10 jobs"));
        assert!(line.contains("jobs/s"));
        assert!(line.contains("masked"));
        let bare = Telemetry::with_shards(1).snapshot().progress_line("x");
        assert!(bare.contains("ETA --"), "{bare}");
    }

    #[test]
    fn progress_reporter_stops_cleanly() {
        // A stop that lands before the thread's first wait must not
        // cost a whole interval.
        let t0 = Instant::now();
        let t = Arc::new(Telemetry::new());
        let r = ProgressReporter::start(Arc::clone(&t), "unit", Duration::from_secs(60));
        r.stop();
        let r = ProgressReporter::start_open_ended(t, "serve", Duration::from_secs(60));
        r.stop();
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "two start/stop pairs took {:?}",
            t0.elapsed()
        );
    }

    #[test]
    fn serve_progress_line_has_rate_but_no_eta() {
        let t = Telemetry::with_shards(2);
        t.packet_ingested();
        t.packet_processed(0, false);
        t.packet_processed(1, true);
        t.packet_dropped(0);
        t.packet_abandoned();
        t.shard_panic();
        t.shard_restarted();
        t.queue_depth_sample(17);
        let s = t.snapshot();
        assert_eq!(s.packets_processed, 2);
        assert_eq!(s.packets_erroneous, 1);
        assert_eq!(s.queue_highwater, 17);
        let line = s.serve_progress_line("serve");
        assert!(line.starts_with("[serve] 2 pkts"), "{line}");
        assert!(line.contains("pkt/s"), "{line}");
        assert!(line.contains("queue hw 17"), "{line}");
        assert!(
            !line.contains("ETA"),
            "no ETA on an unbounded stream: {line}"
        );
    }

    #[test]
    fn serve_counters_survive_the_json_round_trip() {
        let t = Telemetry::with_shards(1);
        t.packet_ingested();
        t.packet_shed();
        t.packet_processed(0, true);
        t.shard_setup_retry();
        t.queue_depth_sample(5);
        t.queue_depth_sample(3); // high-water keeps the max
        let map = parse_metrics(&t.metrics_json()).expect("schema present");
        assert_eq!(map.get("packets_ingested"), Some(&1));
        assert_eq!(map.get("packets_shed"), Some(&1));
        assert_eq!(map.get("packets_processed"), Some(&1));
        assert_eq!(map.get("packets_erroneous"), Some(&1));
        assert_eq!(map.get("shard_setup_retries"), Some(&1));
        assert_eq!(map.get("queue_highwater"), Some(&5));
        assert_eq!(map.get("shard_panics"), Some(&0));
    }

    #[test]
    fn overload_counters_survive_the_json_round_trip() {
        let t = Telemetry::with_shards(2);
        t.packet_shed();
        t.packet_shed_flow_cap();
        t.packet_diverted();
        t.packet_diverted();
        t.flow_diverted();
        t.add_drr_topups(7);
        t.serve_latency(Duration::from_micros(100));
        t.serve_latency(Duration::from_micros(3000));
        let s = t.snapshot();
        assert_eq!(s.serve_latency_us_count, 2);
        assert_eq!(s.serve_latency_us_total, 3100);
        assert_eq!(s.serve_latency_us_max, 3000);
        assert_eq!(s.serve_latency_us_buckets.len(), 2);
        let map = parse_metrics(&t.metrics_json()).expect("schema present");
        assert_eq!(map.get("packets_shed_flow_cap"), Some(&1));
        assert_eq!(map.get("packets_diverted"), Some(&2));
        assert_eq!(map.get("flows_diverted"), Some(&1));
        assert_eq!(map.get("drr_deficit_topups"), Some(&7));
        assert_eq!(map.get("serve_latency_us_count"), Some(&2));
        assert_eq!(map.get("serve_latency_us_total"), Some(&3100));
        assert_eq!(map.get("serve_latency_us_max"), Some(&3000));
    }

    #[test]
    fn class_counters_survive_the_json_round_trip() {
        let t = Telemetry::with_shards(2);
        t.packet_shed_control();
        t.packet_shed_data();
        t.packet_shed_data();
        t.packet_preempt_shed();
        t.packet_shed_slo();
        t.slo_activation();
        t.set_slo_last_p99_us(2047);
        t.set_slo_last_p99_us(511); // gauge: last write wins
        t.add_pin_table_full(3);
        t.add_queue_invariant_repairs(2);
        let s = t.snapshot();
        assert_eq!(s.packets_shed_control, 1);
        assert_eq!(s.packets_shed_data, 2);
        assert_eq!(s.slo_last_p99_us, 511);
        let map = parse_metrics(&t.metrics_json()).expect("schema present");
        assert_eq!(map.get("packets_shed_control"), Some(&1));
        assert_eq!(map.get("packets_shed_data"), Some(&2));
        assert_eq!(map.get("packets_preempt_shed"), Some(&1));
        assert_eq!(map.get("packets_shed_slo"), Some(&1));
        assert_eq!(map.get("slo_trigger_activations"), Some(&1));
        assert_eq!(map.get("slo_last_p99_us"), Some(&511));
        assert_eq!(map.get("rebalance_pin_table_full"), Some(&3));
        assert_eq!(map.get("queue_invariant_repairs"), Some(&2));
    }

    #[test]
    fn serve_latency_bucket_counts_expose_raw_cumulative_loads() {
        let t = Telemetry::with_shards(1);
        assert!(t.serve_latency_bucket_counts().iter().all(|&n| n == 0));
        t.serve_latency(Duration::from_micros(100)); // bucket 6: [64, 128)
        t.serve_latency(Duration::from_micros(100));
        t.serve_latency(Duration::from_micros(3000)); // bucket 11
        let counts = t.serve_latency_bucket_counts();
        assert_eq!(counts.len(), HIST_BUCKETS);
        assert_eq!(counts[6], 2);
        assert_eq!(counts[11], 1);
        assert_eq!(counts.iter().sum::<u64>(), 3);
    }

    #[test]
    fn metrics_flusher_writes_immediately_on_start() {
        let t = Arc::new(Telemetry::with_shards(1));
        t.add_total_jobs(9);
        let dir = std::env::temp_dir().join(format!("clumsy-flush0-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("metrics.json");
        // An interval far beyond the test's lifetime: only the startup
        // flush can produce the file.
        let f = MetricsFlusher::start(Arc::clone(&t), path.clone(), Duration::from_secs(3600));
        let deadline = Instant::now() + Duration::from_secs(10);
        while !path.exists() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        let text = std::fs::read_to_string(&path).expect("startup flush written");
        let map = parse_metrics(&text).expect("schema-valid snapshot");
        assert_eq!(map.get("jobs_total"), Some(&9));
        f.stop();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_flusher_rewrites_the_file_each_interval() {
        let t = Arc::new(Telemetry::with_shards(1));
        t.add_total_jobs(3);
        let dir = std::env::temp_dir().join(format!("clumsy-flush-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("metrics.json");
        let f = MetricsFlusher::start(Arc::clone(&t), path.clone(), Duration::from_millis(10));
        let deadline = Instant::now() + Duration::from_secs(10);
        // Wait for at least one periodic flush before stopping.
        loop {
            if path.exists() || Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        t.job_completed(0, Duration::from_micros(10));
        f.stop();
        let text = std::fs::read_to_string(&path).expect("final flush written");
        let map = parse_metrics(&text).expect("schema-valid snapshot");
        // The stop-time flush sees the completion recorded after the
        // first periodic write.
        assert_eq!(map.get("jobs_total"), Some(&3));
        assert_eq!(map.get("jobs_completed"), Some(&1));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn record_report_tallies_outcomes() {
        let t = Telemetry::with_shards(1);
        let report = RunReport {
            app: "test",
            packets_attempted: 10,
            packets_completed: 10,
            fatal: None,
            dropped_packets: 0,
            erroneous_packets: 0,
            error_counts: std::collections::BTreeMap::new(),
            init_obs_total: 0,
            init_obs_wrong: 0,
            instructions: 100,
            cycles: 500.0,
            energy: energy_model::EnergyBreakdown::default(),
            stats: cache_sim::MemStats {
                faults_injected: 5,
                faults_detected: 2,
                ..Default::default()
            },
            freq_trace: Vec::new(),
            epoch_faults: Vec::new(),
        };
        t.record_report(0, &report);
        let s = t.snapshot();
        assert_eq!(s.faults_injected, 5);
        assert_eq!(s.faults_detected, 2);
        // detected > 0, nothing worse: detected_recovered.
        assert_eq!(
            s.outcomes[outcome_index(TrialOutcome::DetectedRecovered)],
            1
        );
    }
}
