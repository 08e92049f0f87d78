//! Hand-rolled, zero-dependency campaign telemetry.
//!
//! A million-trial campaign used to be a black box: nothing printed
//! until the CSV landed, and abandoned or retried trials were
//! invisible. This module is the instrumentation layer behind
//! `--progress` and `--metrics`: per-worker atomic counters (jobs
//! completed / retried / abandoned, faults injected by target, strike
//! retries, journal records and fsync latency), monotonic-time span
//! timing into fixed-bucket latency histograms, and a periodic
//! progress reporter on stderr with rate, ETA and outcome tallies.
//!
//! **Strictly passive.** Telemetry draws no randomness and never feeds
//! back into the simulation: with it off (every hook takes an
//! `Option`), the default path executes bitwise identically — the five
//! pinned digests in `cli/tests/bitwise_regression.rs` and every
//! recorded `results/*.csv` are unchanged. With it on, the only cost is
//! relaxed atomic increments and one monotonic-clock read per job.
//!
//! **One registry.** Every metric is one row of the `registry!` table
//! below: its JSON group, key, merge rule and doc. The table generates
//! the [`Counter`] names, the [`MetricsSnapshot`] fields, the shard
//! fold in [`Telemetry::snapshot`], the JSON of
//! [`MetricsSnapshot::to_json`] and the key list of [`metric_keys`];
//! adding a counter is adding a row.
//!
//! Counters are sharded: each worker updates its own cache-line-aligned
//! block of slots (selected by worker index), so hot campaigns do not
//! serialize on a shared counter word. [`Telemetry::snapshot`] folds
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
use std::fmt::Write as _;
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

/// Trial-outcome classes tallied per shard, in [`TrialOutcome::all`]
/// order.
const OUTCOMES: usize = TrialOutcome::all().len();

/// Slots per shard: every [`Counter`], then the outcome tally.
const SLOTS: usize = Counter::ALL.len() + OUTCOMES;

/// How a counter's per-shard slots fold into the snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Merge {
    /// Events: each shard adds its own, the snapshot sums the shards.
    Sum,
    /// High-water marks: each shard keeps its largest value, the
    /// snapshot takes the largest shard.
    Max,
    /// Gauges: one value, kept in shard 0 and overwritten on update.
    Gauge,
}

/// Declares every metric once (the table below).
///
/// Each group is one object of the metrics JSON, in file order. Each
/// row is one scalar counter: its key (also its [`Counter`] variant
/// and its [`MetricsSnapshot`] field), its [`Merge`] rule and its doc
/// lines. A group may end in one non-scalar row, marked `+`: `hist`
/// (the [`Log2Histogram`] of the same name on [`Telemetry`], rendered
/// as `[[floor_us, count], ...]`) or `tally` (the outcome tally, one
/// `outcome_<label>` key per [`TrialOutcome::all`] entry).
macro_rules! registry {
    (@type hist) => { Vec<(u64, u64)> };
    (@type tally) => { [u64; OUTCOMES] };
    (@fold hist, $t:ident, $v:ident, $field:ident) => { $t.$field.nonempty() };
    (@fold tally, $t:ident, $v:ident, $field:ident) => {
        std::array::from_fn(|i| $v[Counter::ALL.len() + i])
    };
    (@json hist, $s:ident, $value:expr, $key:expr) => {{
        let pairs: Vec<String> = $value.iter().map(|(f, n)| format!("[{f}, {n}]")).collect();
        json_field(&mut $s, $key, format_args!("[{}]", pairs.join(", ")));
    }};
    (@json tally, $s:ident, $value:expr, $key:expr) => {
        for (o, n) in TrialOutcome::all().iter().zip($value) {
            json_field(&mut $s, &outcome_key(*o), n);
        }
    };
    ($(
        $group:ident {
            $( $key:ident: $merge:ident => $($doc:literal)+, )*
            $( + $kind:ident $tail:ident => $($tdoc:literal)+, )?
        }
    )*) => {
        /// A scalar metric of the registry, named by its JSON key.
        #[allow(non_camel_case_types)]
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Counter {
            $($( $(#[doc = $doc])+ $key, )*)*
        }

        impl Counter {
            /// Every counter, in JSON order.
            pub const ALL: &'static [Counter] = &[$($(Counter::$key,)*)*];

            /// The counter's key in the metrics JSON.
            #[must_use]
            pub const fn key(self) -> &'static str {
                match self { $($(Counter::$key => stringify!($key),)*)* }
            }

            const fn merge(self) -> Merge {
                match self { $($(Counter::$key => Merge::$merge,)*)* }
            }
        }

        /// A plain (non-atomic) fold of every counter at one instant.
        #[derive(Debug, Clone, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            /// Run-clock time since the telemetry block was created.
            pub elapsed: Duration,
            $(
                $( $(#[doc = $doc])+ pub $key: u64, )*
                $( $(#[doc = $tdoc])+ pub $tail: registry!(@type $kind), )?
            )*
        }

        impl Telemetry {
            /// Folds every shard into a plain snapshot, each counter
            /// under its merge rule.
            #[must_use]
            pub fn snapshot(&self) -> MetricsSnapshot {
                let v = self.fold();
                MetricsSnapshot {
                    elapsed: self.elapsed(),
                    $(
                        $( $key: v[Counter::$key as usize], )*
                        $( $tail: registry!(@fold $kind, self, v, $tail), )?
                    )*
                }
            }
        }

        impl MetricsSnapshot {
            /// The schema-stable metrics JSON (see
            /// [`Telemetry::metrics_json`]): one object per registry
            /// group, keys in row order.
            #[must_use]
            pub fn to_json(&self) -> String {
                let mut s = String::with_capacity(2048);
                let _ = write!(
                    s,
                    "{{\n  \"schema\": \"{METRICS_SCHEMA}\",\n  \"elapsed_ms\": {},",
                    u64::try_from(self.elapsed.as_millis()).unwrap_or(u64::MAX)
                );
                $(
                    s.push_str(concat!("\n  \"", stringify!($group), "\": {"));
                    $( json_field(&mut s, stringify!($key), self.$key); )*
                    $( registry!(@json $kind, s, &self.$tail, stringify!($tail)); )?
                    s.push_str("},");
                )*
                s.pop(); // the last group takes no comma
                s.push_str("\n}\n");
                s
            }
        }
    };
}

registry! {
    jobs {
        jobs_total: Sum => "Jobs declared for the run.",
        jobs_completed: Sum => "Fresh completions (excludes replayed jobs).",
        jobs_replayed: Sum => "Jobs pre-filled from a journal.",
        jobs_retried: Sum => "Attempts re-queued with a reseeded trial.",
        jobs_abandoned: Sum => "Attempts abandoned on deadline.",
        jobs_failed: Sum => "Jobs whose every attempt was exhausted.",
        abandoned_live: Gauge => "Deadline-overrun threads still running right now.",
        abandoned_peak: Max => "High-water mark of [`MetricsSnapshot::abandoned_live`].",
        abandoned_cap_hits: Sum => "Times the abandoned-attempt cap paused launches.",
    }
    faults {
        faults_injected: Sum => "Faults injected, all targets.",
        tag_faults_injected: Sum => "Faults injected into tag bits.",
        parity_faults_injected: Sum => "Faults injected into parity/check bits.",
        l2_faults_injected: Sum => "Faults injected into the L2 data array.",
        faults_detected: Sum => "Faults flagged by the detection scheme.",
        faults_corrected: Sum => "Faults corrected in place (SECDED).",
        strike_retries: Sum => "Strike-path retries.",
        recovery_failures: Sum => "Strike refetches that pulled corrupted data back in.",
        ways_disabled: Sum => "L1 ways mapped out by escalation or explicit fault maps.",
        salvage_writebacks: Sum => "Dirty lines salvaged through the writeback path at disable"
            "time.",
        bypass_accesses: Sum => "Accesses to fully mapped-out sets serviced from the L2 bypass.",
    }
    outcomes {
        + tally outcomes => "Trial tallies, least to most severe ([`TrialOutcome::all`]).",
    }
    serve {
        packets_ingested: Sum => "Serve: packets accepted into ingress queues.",
        packets_shed: Sum => "Serve: packets shed at ingress under backpressure.",
        packets_processed: Sum => "Serve: packets fully processed by shards.",
        packets_erroneous: Sum => "Serve: processed packets with marked-value divergence.",
        packets_dropped: Sum => "Serve: packets dropped by shard watchdogs.",
        packets_abandoned: Sum => "Serve: in-flight packets lost to caught shard panics.",
        shard_panics: Sum => "Serve: shard panics caught by supervisors.",
        shard_restarts: Sum => "Serve: shard restarts after caught panics.",
        shard_setup_retries: Sum => "Serve: reseeded machine rebuilds after control-plane fatals.",
        queue_highwater: Max => "Serve: high-water ingress-queue occupancy.",
        packets_shed_flow_cap: Sum => "Serve: packets shed at the per-flow queue cap (subset of"
            "[`MetricsSnapshot::packets_shed`]).",
        drr_deficit_topups: Sum => "Serve: DRR deficit top-ups across all ingress queues.",
        serve_latency_us_count: Sum => "Serve: packets timed enqueue→verdict.",
        serve_latency_us_total: Sum => "Serve: total enqueue→verdict microseconds.",
        serve_latency_us_max: Max => "Serve: slowest single enqueue→verdict span, microseconds.",
        + hist serve_latency_us_buckets => "Serve: non-empty log2 latency buckets as"
            "`(floor_us, count)`.",
    }
    class {
        packets_shed_control: Sum => "Serve: control-class packets shed at ingress (subset of"
            "[`MetricsSnapshot::packets_shed`]; asserted zero by the smoke"
            "jobs whenever classes are on).",
        packets_shed_data: Sum => "Serve: data-class packets shed at ingress (subset of"
            "[`MetricsSnapshot::packets_shed`]).",
        packets_preempt_shed: Sum => "Serve: data-class packets evicted to admit control-class"
            "packets (subset of [`MetricsSnapshot::packets_shed_data`]).",
        packets_shed_slo: Sum => "Serve: data-class packets shed under a tightened SLO deadline"
            "(subset of [`MetricsSnapshot::packets_shed_data`]).",
        slo_trigger_activations: Sum => "Serve: latency-SLO trigger inactive→active transitions.",
        slo_last_p99_us: Gauge => "Serve: last windowed p99 estimate seen by the SLO trigger"
            "(microseconds, conservative bucket-upper-edge; a gauge).",
        queue_invariant_repairs: Sum => "Serve: repaired ingress-queue invariant violations"
            "(non-zero means a bug was survived, not wedged on).",
    }
    journal {
        journal_records: Sum => "Records handed to the journal writer thread.",
        journal_fsyncs: Sum => "Batched fsyncs the journal writer issued.",
        journal_fsync_us_total: Sum => "Total microseconds spent in journal fsyncs.",
        journal_fsync_us_max: Max => "Slowest single journal fsync, microseconds.",
    }
    engine {
        engine_jobs: Sum => "Jobs executed by the engine thread pool.",
        engine_us_total: Sum => "Total microseconds of engine-pool job wall time.",
        fast_forward_accesses: Sum => "Accesses served by the batched fault-free fast path.",
        slow_path_accesses: Sum => "Accesses that took the full checking path.",
    }
    job_time {
        job_us_count: Sum => "Timed campaign jobs (equals fresh completions).",
        job_us_total: Sum => "Total campaign-job wall microseconds.",
        job_us_max: Max => "Slowest single campaign job, microseconds.",
        + hist job_us_buckets => "Non-empty log2 latency buckets as `(floor_us, count)`.",
    }
}

/// Every integer key of the metrics JSON — the keys [`parse_metrics`]
/// reads back from a complete file: `elapsed_ms`, each [`Counter`],
/// then the outcome tallies. (The bucket arrays are not integer leaves.)
#[must_use]
pub fn metric_keys() -> Vec<String> {
    std::iter::once("elapsed_ms".to_string())
        .chain(Counter::ALL.iter().map(|c| c.key().to_string()))
        .chain(TrialOutcome::all().into_iter().map(outcome_key))
        .collect()
}

/// The metrics-JSON key of one outcome tally.
fn outcome_key(outcome: TrialOutcome) -> String {
    format!("outcome_{}", outcome.label())
}

/// Appends `"key": value` to the JSON object `s` is inside, after a
/// `", "` unless it is the object's first field.
fn json_field(s: &mut String, key: &str, value: impl std::fmt::Display) {
    if !s.ends_with('{') {
        s.push_str(", ");
    }
    let _ = write!(s, "\"{key}\": {value}");
}

/// One worker's slots: every [`Counter`] at its index, then the
/// outcome tally. Cache-line aligned so adjacent shards never share a
/// line under concurrent updates.
#[derive(Debug)]
#[repr(align(64))]
struct Shard([AtomicU64; SLOTS]);

/// A log2-microsecond latency histogram: bucket `i` counts spans with
/// `floor(log2(us)) == i` (the last bucket absorbs the tail). The span
/// count, total and maximum are registry counters beside it.
#[derive(Debug)]
struct Log2Histogram([AtomicU64; HIST_BUCKETS]);

impl Log2Histogram {
    fn new() -> Self {
        Log2Histogram(std::array::from_fn(|_| AtomicU64::new(0)))
    }

    fn record(&self, us: u64) {
        self.0[bucket_of(us)].fetch_add(1, Ordering::Relaxed);
    }

    fn counts(&self) -> Vec<u64> {
        self.0.iter().map(|b| b.load(Ordering::Relaxed)).collect()
    }

    /// Non-empty buckets as `(floor_us, count)`.
    fn nonempty(&self) -> Vec<(u64, u64)> {
        (0..HIST_BUCKETS)
            .zip(self.counts())
            .filter(|&(_, n)| n > 0)
            .map(|(i, n)| (1u64 << i, n))
            .collect()
    }
}

/// Histogram bucket for `us` microseconds: `floor(log2(us))`, clamped.
fn bucket_of(us: u64) -> usize {
    let idx = 63 - u64::leading_zeros(us.max(1)) as usize;
    idx.min(HIST_BUCKETS - 1)
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
/// histograms and the run clock. Shared across workers as
/// `Arc<Telemetry>`; every update is a relaxed atomic.
#[derive(Debug)]
pub struct Telemetry {
    shards: Box<[Shard]>,
    job_us_buckets: Log2Histogram,
    serve_latency_us_buckets: Log2Histogram,
    started: Instant,
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
            shards: (0..shards.max(1))
                .map(|_| Shard(std::array::from_fn(|_| AtomicU64::new(0))))
                .collect(),
            job_us_buckets: Log2Histogram::new(),
            serve_latency_us_buckets: Log2Histogram::new(),
            started: Instant::now(),
        }
    }

    fn slot(&self, worker: usize, index: usize) -> &AtomicU64 {
        &self.shards[worker % self.shards.len()].0[index]
    }

    /// Every slot folded across shards: counters under their merge
    /// rule, outcome tallies summed. A gauge is non-zero in shard 0
    /// only, so summing reads it back exactly.
    fn fold(&self) -> [u64; SLOTS] {
        let mut v = [0u64; SLOTS];
        for shard in self.shards.iter() {
            for (i, (acc, slot)) in v.iter_mut().zip(&shard.0).enumerate() {
                let n = slot.load(Ordering::Relaxed);
                *acc = match Counter::ALL.get(i).map(|c| c.merge()) {
                    Some(Merge::Max) => (*acc).max(n),
                    _ => *acc + n,
                };
            }
        }
        v
    }

    /// Time since this telemetry block was created (the run clock
    /// behind rate and ETA).
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Folds `n` into `counter` on `worker`'s shard under the
    /// counter's merge rule: adds it to an event count, raises a
    /// high-water mark to it, or sets a gauge to it (gauges live in
    /// shard 0 whatever `worker` is).
    #[inline]
    pub fn count(&self, worker: usize, counter: Counter, n: u64) {
        let i = counter as usize;
        match counter.merge() {
            Merge::Sum => {
                self.slot(worker, i).fetch_add(n, Ordering::Relaxed);
            }
            Merge::Max => {
                self.slot(worker, i).fetch_max(n, Ordering::Relaxed);
            }
            Merge::Gauge => self.slot(0, i).store(n, Ordering::Relaxed),
        }
    }

    /// One freshly completed job on `worker`, with its wall time.
    pub fn job_completed(&self, worker: usize, wall: Duration) {
        let us = duration_us(wall);
        self.job_us_buckets.record(us);
        self.count(worker, Counter::jobs_completed, 1);
        self.count(worker, Counter::job_us_count, 1);
        self.count(worker, Counter::job_us_total, us);
        self.count(worker, Counter::job_us_max, us);
    }

    /// The live-abandoned gauge (in shard 0, like every gauge).
    fn abandoned_gauge(&self) -> &AtomicU64 {
        self.slot(0, Counter::abandoned_live as usize)
    }

    /// One attempt abandoned on deadline; the stranded thread is now
    /// live-abandoned until it finishes on its own. Returns the new
    /// live count.
    pub fn abandoned_attempt(&self) -> u64 {
        self.count(0, Counter::jobs_abandoned, 1);
        let live = self.abandoned_gauge().fetch_add(1, Ordering::Relaxed) + 1;
        self.count(0, Counter::abandoned_peak, live);
        live
    }

    /// A previously abandoned thread ran to completion and unwound.
    pub fn abandoned_finished(&self) {
        // Saturating: a decrement can never outnumber the increments,
        // but stay safe against misuse rather than wrapping to u64::MAX.
        let _ = self
            .abandoned_gauge()
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }

    /// Live abandoned (deadline-overrun, still running) threads.
    #[must_use]
    pub fn abandoned_live(&self) -> u64 {
        self.abandoned_gauge().load(Ordering::Relaxed)
    }

    /// Folds one finished run's fault counters and outcome class into
    /// the tallies. Called on the coordinator for fresh completions.
    pub fn record_report(&self, worker: usize, report: &RunReport) {
        self.record_stats(worker, &report.stats);
        let outcome = report.outcome();
        let tally = TrialOutcome::all()
            .iter()
            .position(|&o| o == outcome)
            .expect("TrialOutcome::all lists every outcome");
        self.slot(worker, Counter::ALL.len() + tally)
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Folds a block of memory-system counters into the tallies —
    /// whole-run stats for batch jobs, or an interval delta
    /// ([`MemStats::since`]) for the serve path's periodic publishes.
    pub fn record_stats(&self, worker: usize, st: &MemStats) {
        // Each counter here is named after the `MemStats` field it sums.
        macro_rules! fold {
            ($($field:ident)*) => { $(self.count(worker, Counter::$field, st.$field);)* };
        }
        fold!(
            faults_injected tag_faults_injected parity_faults_injected l2_faults_injected
            faults_detected faults_corrected strike_retries recovery_failures
            fast_forward_accesses slow_path_accesses ways_disabled salvage_writebacks
            bypass_accesses
        );
    }

    /// One packet accepted into a shard's ingress queue.
    pub fn packet_ingested(&self) {
        self.count(0, Counter::packets_ingested, 1);
    }

    /// One packet's enqueue→verdict latency on the serve path.
    pub fn serve_latency(&self, wall: Duration) {
        let us = duration_us(wall);
        self.serve_latency_us_buckets.record(us);
        self.count(0, Counter::serve_latency_us_count, 1);
        self.count(0, Counter::serve_latency_us_total, us);
        self.count(0, Counter::serve_latency_us_max, us);
    }

    /// One packet fully processed by shard `worker`; `erroneous` marks
    /// a measured run whose marked values diverged from golden.
    pub fn packet_processed(&self, worker: usize, erroneous: bool) {
        self.count(worker, Counter::packets_processed, 1);
        if erroneous {
            self.count(worker, Counter::packets_erroneous, 1);
        }
    }

    /// One packet dropped by shard `worker`'s watchdog (fatal error
    /// contained, machine kept alive).
    pub fn packet_dropped(&self, worker: usize) {
        self.count(worker, Counter::packets_dropped, 1);
    }

    /// Observes an ingress-queue occupancy; the snapshot keeps the
    /// high-water mark (the bounded-memory evidence in the soak).
    pub fn queue_depth_sample(&self, depth: u64) {
        self.count(0, Counter::queue_highwater, depth);
    }

    /// Raw cumulative per-bucket loads of the serve enqueue→verdict
    /// histogram, index `i` counting spans with `floor(log2(us)) == i`
    /// (last bucket absorbs the tail). The SLO trigger diffs successive
    /// calls to form sliding windows.
    #[must_use]
    pub fn serve_latency_bucket_counts(&self) -> Vec<u64> {
        self.serve_latency_us_buckets.counts()
    }

    /// One engine-pool job finished on `worker` after `wall`.
    pub fn engine_job(&self, worker: usize, wall: Duration) {
        self.count(worker, Counter::engine_jobs, 1);
        self.count(worker, Counter::engine_us_total, duration_us(wall));
    }

    /// One batched journal fsync took `wall`.
    pub fn journal_fsync(&self, wall: Duration) {
        let us = duration_us(wall);
        self.count(0, Counter::journal_fsyncs, 1);
        self.count(0, Counter::journal_fsync_us_total, us);
        self.count(0, Counter::journal_fsync_us_max, us);
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

    /// One human progress line (the `--progress` format): completion,
    /// rate, ETA, outcome tallies, retry/abandon counts.
    #[must_use]
    pub fn progress_line(&self, label: &str) -> String {
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
        line.push_str(" |");
        for (outcome, n) in TrialOutcome::all().iter().zip(&self.outcomes) {
            let _ = write!(line, " {} {n}", outcome.short_label());
        }
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
        t.count(0, Counter::jobs_total, 10);
        for w in 0..8 {
            t.job_completed(w, Duration::from_micros(100 + w as u64));
        }
        t.count(0, Counter::jobs_retried, 1);
        t.count(0, Counter::jobs_failed, 1);
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
    fn merge_rules_fold_across_shards() {
        let t = Telemetry::with_shards(3);
        for w in 0..3u64 {
            let worker = w as usize;
            t.count(worker, Counter::packets_shed, 2); // sum
            t.count(worker, Counter::queue_highwater, 10 + w); // max
            t.count(worker, Counter::slo_last_p99_us, 50 - w); // gauge
        }
        let s = t.snapshot();
        assert_eq!(s.packets_shed, 6);
        assert_eq!(s.queue_highwater, 12);
        assert_eq!(s.slo_last_p99_us, 48, "a gauge keeps its last write");
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
        t.count(0, Counter::jobs_total, 4);
        t.job_completed(0, Duration::from_micros(50));
        t.count(0, Counter::journal_records, 3);
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
        t.count(0, Counter::jobs_total, 7);
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
        t.count(0, Counter::jobs_total, 10);
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
        t.count(0, Counter::packets_abandoned, 1);
        t.count(0, Counter::shard_panics, 1);
        t.count(0, Counter::shard_restarts, 1);
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
        t.count(0, Counter::packets_shed, 1);
        t.packet_processed(0, true);
        t.count(0, Counter::shard_setup_retries, 1);
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
        t.count(0, Counter::packets_shed, 1);
        t.count(0, Counter::packets_shed_flow_cap, 1);
        t.count(0, Counter::drr_deficit_topups, 7);
        t.serve_latency(Duration::from_micros(100));
        t.serve_latency(Duration::from_micros(3000));
        let s = t.snapshot();
        assert_eq!(s.serve_latency_us_count, 2);
        assert_eq!(s.serve_latency_us_total, 3100);
        assert_eq!(s.serve_latency_us_max, 3000);
        assert_eq!(s.serve_latency_us_buckets.len(), 2);
        let map = parse_metrics(&t.metrics_json()).expect("schema present");
        assert_eq!(map.get("packets_shed_flow_cap"), Some(&1));
        assert_eq!(map.get("drr_deficit_topups"), Some(&7));
        assert_eq!(map.get("serve_latency_us_count"), Some(&2));
        assert_eq!(map.get("serve_latency_us_total"), Some(&3100));
        assert_eq!(map.get("serve_latency_us_max"), Some(&3000));
    }

    #[test]
    fn class_counters_survive_the_json_round_trip() {
        let t = Telemetry::with_shards(2);
        t.count(0, Counter::packets_shed_control, 1);
        t.count(0, Counter::packets_shed_data, 1);
        t.count(0, Counter::packets_shed_data, 1);
        t.count(0, Counter::packets_preempt_shed, 1);
        t.count(0, Counter::packets_shed_slo, 1);
        t.count(0, Counter::slo_trigger_activations, 1);
        t.count(0, Counter::slo_last_p99_us, 2047);
        t.count(0, Counter::slo_last_p99_us, 511); // gauge: last write wins
        t.count(0, Counter::queue_invariant_repairs, 2);
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
        t.count(0, Counter::jobs_total, 9);
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
        t.count(0, Counter::jobs_total, 3);
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
        let recovered = TrialOutcome::all()
            .iter()
            .position(|&o| o == TrialOutcome::DetectedRecovered)
            .unwrap();
        assert_eq!(s.outcomes[recovered], 1);
    }
}
