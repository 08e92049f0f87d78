//! Crash-isolated experiment campaigns.
//!
//! [`crate::experiment::run_grid_on`] is fast but brittle: one panicking
//! job (a mis-specified design point tripping a config assertion, a bug
//! in an app under an exotic fault mode) unwinds through the scoped pool
//! and takes the whole grid — hours of completed trials — down with it.
//!
//! This module is the hardened driver used for large exploratory sweeps:
//! every job runs on its own detached thread behind
//! [`std::panic::catch_unwind`], with an optional per-job deadline and a
//! bounded retry budget. A retried trial is *reseeded* (a fresh fault
//! realization) so a deterministic crash is distinguished from an
//! unlucky one; attempt 0 always uses the original trial seed, so a
//! failure-free campaign is bitwise identical to [`run_grid_on`].
//! Instead of aborting, the campaign returns a [`CampaignReport`]:
//! aggregates over the trials that survived plus a structured list of
//! every job that did not.
//!
//! A job that exceeds its deadline is *abandoned*, not killed — safe
//! Rust cannot cancel a wedged thread. The abandoned thread leaks (its
//! late result is discarded by generation tag) and its worker slot is
//! handed to the next job, so a campaign with `n` deadline failures
//! strands at most `n` threads. Campaigns without a deadline can still
//! hang on a genuinely wedged job, exactly like the plain engine.
//!
//! [`run_grid_on`]: crate::experiment::run_grid_on

use crate::engine::{golden_for, Engine};
use crate::experiment::{Aggregate, ExperimentOptions, GridPoint};
use crate::journal::{self, JournalError, JournalHeader, JournalWriter, Record, JOURNAL_VERSION};
use crate::processor::{ClumsyProcessor, GoldenData};
use crate::report::RunReport;
use crate::telemetry::{Counter, Telemetry};
use netbench::AppKind;
use std::collections::{HashMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// How often the coordinator polls the stop condition while a
/// [`BatchControl::stop`] closure is installed.
const STOP_POLL: Duration = Duration::from_millis(100);

/// Seed stride between retry attempts of the same trial (a large odd
/// constant, so attempt seeds never collide with neighbouring trials).
/// Attempt 0 keeps the original trial seed.
pub const RESEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

/// Isolation and retry policy for a campaign.
///
/// # Examples
///
/// ```
/// use clumsy_core::CampaignConfig;
/// use std::time::Duration;
///
/// let cfg = CampaignConfig::default()
///     .with_deadline(Duration::from_secs(60))
///     .with_retries(2);
/// assert_eq!(cfg.retries, 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CampaignConfig {
    /// Wall-clock budget per job attempt. `None` (the default) trusts
    /// jobs to terminate, like the plain engine.
    pub deadline: Option<Duration>,
    /// Extra attempts after the first failure; each retry reseeds the
    /// trial by [`RESEED_STRIDE`].
    pub retries: u32,
    /// Cap on concurrently *live abandoned* attempts — deadline-overrun
    /// threads that are still running because safe Rust cannot kill
    /// them. At the cap the coordinator pauses new launches (bounded
    /// ~100 ms re-checks) until a stranded thread finishes, so a storm
    /// of slow points cannot pile up unbounded threads. Scheduling
    /// order never affects results (each job's seed depends only on its
    /// index and attempt), so the cap is always armed.
    pub max_abandoned: usize,
}

impl CampaignConfig {
    /// Returns the config with a per-attempt wall-clock deadline.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Returns the config with a different retry budget.
    pub fn with_retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Returns the config with a different live-abandoned-attempt cap
    /// (clamped to at least 1).
    pub fn with_max_abandoned(mut self, max_abandoned: usize) -> Self {
        self.max_abandoned = max_abandoned.max(1);
        self
    }
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            deadline: None,
            retries: 1,
            max_abandoned: 32,
        }
    }
}

/// Why a job was abandoned after its attempts were exhausted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobFailure {
    /// Every attempt panicked; the payload message of the last one.
    Panicked(String),
    /// Every attempt overran the per-attempt deadline.
    DeadlineExceeded(Duration),
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobFailure::Panicked(msg) => write!(f, "panicked: {msg}"),
            JobFailure::DeadlineExceeded(d) => {
                write!(f, "exceeded {} ms deadline", d.as_millis())
            }
        }
    }
}

/// One exhausted job of a generic [`run_isolated_jobs`] batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IsolatedFailure {
    /// Flat job index.
    pub job: usize,
    /// Attempts consumed (first try + retries).
    pub attempts: u32,
    /// The last attempt's failure.
    pub failure: JobFailure,
}

/// Outcome of [`run_isolated_jobs`]: one slot per job (`None` where
/// every attempt failed) plus the structured failure list, sorted by
/// job index.
#[derive(Debug)]
pub struct IsolatedRun<R> {
    /// Per-job results in job order.
    pub results: Vec<Option<R>>,
    /// Jobs whose every attempt failed.
    pub failures: Vec<IsolatedFailure>,
    /// Whether the batch was cut short by [`BatchControl::stop`]. Jobs
    /// with neither a result nor a failure were never run.
    pub interrupted: bool,
}

/// Completion callback invoked on the coordinator thread with the job
/// index and its fresh result.
pub type OnResult<'a, R> = &'a mut dyn FnMut(usize, &R);

/// Extra batch behaviour for [`run_isolated_jobs_with`]: results known
/// in advance (replayed from a journal), a cooperative stop condition,
/// and a completion callback (to journal fresh results).
pub struct BatchControl<'a, R> {
    /// Results to pre-fill by job index: these jobs are never
    /// scheduled and do not reach [`BatchControl::on_result`].
    pub prefilled: HashMap<usize, R>,
    /// Polled (roughly every 100 ms) by the coordinator; once it
    /// returns `true`, no further job is launched, pending jobs are
    /// dropped, and in-flight attempts are drained under the normal
    /// deadline machinery.
    pub stop: Option<&'a dyn Fn() -> bool>,
    /// Called on the coordinator thread for every freshly completed
    /// job, before its result is stored.
    pub on_result: Option<OnResult<'a, R>>,
    /// Optional passive instrumentation: job completions, retries,
    /// abandonments and per-attempt wall times are recorded here.
    /// Telemetry never influences scheduling or results.
    pub telemetry: Option<Arc<Telemetry>>,
}

// Manual impl: `derive(Default)` would demand `R: Default`, which the
// fields do not actually need.
impl<R> Default for BatchControl<'_, R> {
    fn default() -> Self {
        BatchControl {
            prefilled: HashMap::new(),
            stop: None,
            on_result: None,
            telemetry: None,
        }
    }
}

/// Turns a panic payload into a displayable message.
pub(crate) fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Attempt-thread handshake states (see [`InFlight`]): the coordinator
/// swaps RUNNING → ABANDONED on deadline expiry, the thread swaps
/// whatever it finds → DONE when it finishes. Exactly one side observes
/// the other's transition, which keeps the live-abandoned count exact.
const ATTEMPT_RUNNING: u8 = 0;
const ATTEMPT_ABANDONED: u8 = 1;
const ATTEMPT_DONE: u8 = 2;

/// An in-flight attempt: job index, attempt number, optional deadline,
/// and the shared attempt state ([`ATTEMPT_RUNNING`] et al.).
type InFlight = HashMap<u64, (usize, u32, Option<Instant>, Arc<AtomicU8>)>;

/// Runs `n_jobs` independent jobs with crash isolation: each attempt of
/// `run(job, attempt)` executes on its own detached thread behind
/// `catch_unwind`, bounded by `workers` concurrent attempts.
///
/// A panicking or deadline-overrunning attempt is retried up to
/// `cfg.retries` times with an incremented `attempt`; a job whose
/// attempts are all spent is recorded in
/// [`IsolatedRun::failures`] and leaves `None` in its result slot.
/// Late results from abandoned (timed-out) attempts are discarded.
pub fn run_isolated_jobs<R, F>(
    workers: usize,
    n_jobs: usize,
    cfg: &CampaignConfig,
    run: F,
) -> IsolatedRun<R>
where
    R: Send + 'static,
    F: Fn(usize, u32) -> R + Send + Sync + 'static,
{
    run_isolated_jobs_with(workers, n_jobs, cfg, BatchControl::default(), run)
}

/// [`run_isolated_jobs`] with durability hooks: jobs listed in
/// `control.prefilled` are taken as already done, `control.on_result`
/// observes every fresh completion (for journaling), and
/// `control.stop` requests a graceful early exit — pending jobs are
/// dropped, in-flight attempts drain normally, and the returned batch
/// is marked [`IsolatedRun::interrupted`].
///
/// During a stop, a failing or deadline-overrunning in-flight attempt
/// is neither retried nor recorded as a failure: the job simply stays
/// incomplete, so a resumed batch reruns it from attempt 0 exactly as
/// an uninterrupted batch would have.
pub fn run_isolated_jobs_with<R, F>(
    workers: usize,
    n_jobs: usize,
    cfg: &CampaignConfig,
    mut control: BatchControl<'_, R>,
    run: F,
) -> IsolatedRun<R>
where
    R: Send + 'static,
    F: Fn(usize, u32) -> R + Send + Sync + 'static,
{
    let workers = workers.max(1);
    let run = Arc::new(run);
    let (tx, rx) = mpsc::channel::<(u64, Result<R, String>, Duration)>();

    let mut results: Vec<Option<R>> = (0..n_jobs).map(|_| None).collect();
    for (job, r) in control.prefilled.drain() {
        if job < n_jobs {
            results[job] = Some(r);
        }
    }
    let mut pending: VecDeque<(usize, u32)> = (0..n_jobs)
        .filter(|j| results[*j].is_none())
        .map(|j| (j, 0))
        .collect();
    let mut failures: Vec<IsolatedFailure> = Vec::new();
    let mut in_flight: InFlight = HashMap::new();
    let mut next_gen: u64 = 0;
    let mut stopped = false;

    let telemetry = control.telemetry.clone();
    let abandoned_live = Arc::new(AtomicU64::new(0));
    let cap = cfg.max_abandoned.max(1) as u64;
    let mut cap_warned = false;

    let give_up_telemetry = telemetry.clone();
    let mut give_up = |job: usize, attempt: u32, failure: JobFailure| {
        if let Some(t) = &give_up_telemetry {
            t.count(0, Counter::jobs_failed, 1);
        }
        failures.push(IsolatedFailure {
            job,
            attempts: attempt + 1,
            failure,
        });
    };

    while !pending.is_empty() || !in_flight.is_empty() {
        if !stopped && control.stop.is_some_and(|s| s()) {
            stopped = true;
            pending.clear();
            if in_flight.is_empty() {
                break;
            }
        }

        // Launch until every worker slot is busy, unless live abandoned
        // threads have reached the cap.
        if abandoned_live.load(Ordering::Relaxed) < cap {
            cap_warned = false;
        }
        while !stopped && in_flight.len() < workers && abandoned_live.load(Ordering::Relaxed) < cap
        {
            let Some((job, attempt)) = pending.pop_front() else {
                break;
            };
            let gen = next_gen;
            next_gen += 1;
            let deadline = cfg.deadline.map(|d| Instant::now() + d);
            let state = Arc::new(AtomicU8::new(ATTEMPT_RUNNING));
            in_flight.insert(gen, (job, attempt, deadline, Arc::clone(&state)));
            let tx = tx.clone();
            let run = Arc::clone(&run);
            let live = Arc::clone(&abandoned_live);
            let thread_telemetry = telemetry.clone();
            std::thread::spawn(move || {
                let started = Instant::now();
                let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| run(job, attempt)))
                    .map_err(panic_message);
                let wall = started.elapsed();
                // AcqRel pairs with the coordinator's expiry swap: if we
                // see ABANDONED, its live increment is visible, so the
                // decrement below cannot transiently underflow.
                if state.swap(ATTEMPT_DONE, Ordering::AcqRel) == ATTEMPT_ABANDONED {
                    live.fetch_sub(1, Ordering::Relaxed);
                    if let Some(t) = &thread_telemetry {
                        t.abandoned_finished();
                    }
                }
                // The receiver may have moved on (abandoned attempt
                // after campaign end); a dead channel is fine.
                let _ = tx.send((gen, outcome, wall));
            });
        }
        let capped = !stopped
            && !pending.is_empty()
            && in_flight.len() < workers
            && abandoned_live.load(Ordering::Relaxed) >= cap;
        if capped && !cap_warned {
            cap_warned = true;
            if let Some(t) = &telemetry {
                t.count(0, Counter::abandoned_cap_hits, 1);
            }
            eprintln!(
                "warning: campaign: {} abandoned attempts still running (cap {cap}); \
                 pausing new launches until one finishes",
                abandoned_live.load(Ordering::Relaxed)
            );
        }

        // Wait for the next completion, until the earliest deadline, or
        // for at most one stop-poll interval when a stop condition is
        // installed and not yet triggered (or launches are paused at the
        // abandoned cap and must be re-checked).
        let earliest = in_flight.values().filter_map(|(_, _, d, _)| *d).min();
        let poll =
            ((control.stop.is_some() && !stopped) || capped).then(|| Instant::now() + STOP_POLL);
        let wake = match (earliest, poll) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let message = match wake {
            Some(at) => {
                let now = Instant::now();
                if at <= now {
                    Err(mpsc::RecvTimeoutError::Timeout)
                } else {
                    rx.recv_timeout(at - now)
                }
            }
            None => rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected),
        };

        match message {
            Ok((gen, outcome, wall)) => {
                // An unknown generation is a late result from an attempt
                // already abandoned on deadline: drop it.
                let Some((job, attempt, _, _)) = in_flight.remove(&gen) else {
                    continue;
                };
                match outcome {
                    Ok(r) => {
                        if let Some(t) = &telemetry {
                            // Generation as shard selector: attempt
                            // threads are ephemeral and carry no worker
                            // index, but generations spread evenly.
                            t.job_completed(gen as usize, wall);
                        }
                        if let Some(cb) = control.on_result.as_mut() {
                            cb(job, &r);
                        }
                        results[job] = Some(r);
                    }
                    Err(msg) => {
                        if stopped {
                            // Leave the job incomplete; a resume reruns
                            // it from attempt 0.
                        } else if attempt < cfg.retries {
                            if let Some(t) = &telemetry {
                                t.count(0, Counter::jobs_retried, 1);
                            }
                            pending.push_back((job, attempt + 1));
                        } else {
                            give_up(job, attempt, JobFailure::Panicked(msg));
                        }
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {
                // Abandon every attempt past its deadline; the threads
                // keep running but their results will be ignored. (A
                // wake-up with nothing expired was just a stop or cap
                // poll.)
                let now = Instant::now();
                let expired: Vec<u64> = in_flight
                    .iter()
                    .filter(|(_, (_, _, d, _))| d.is_some_and(|at| at <= now))
                    .map(|(gen, _)| *gen)
                    .collect();
                for gen in expired {
                    let (job, attempt, _, state) = in_flight.remove(&gen).expect("expired gen");
                    // Count the attempt live *before* publishing the
                    // ABANDONED state, so the stranded thread's
                    // decrement can never race ahead of the increment.
                    abandoned_live.fetch_add(1, Ordering::Relaxed);
                    if let Some(t) = &telemetry {
                        t.abandoned_attempt();
                    }
                    if state.swap(ATTEMPT_ABANDONED, Ordering::AcqRel) == ATTEMPT_DONE {
                        // The thread beat the deadline processing; its
                        // (discarded) result is in the channel and the
                        // thread is gone, so it was never live.
                        abandoned_live.fetch_sub(1, Ordering::Relaxed);
                        if let Some(t) = &telemetry {
                            t.abandoned_finished();
                        }
                    }
                    if stopped {
                        // As above: incomplete, rerun on resume.
                    } else if attempt < cfg.retries {
                        if let Some(t) = &telemetry {
                            t.count(0, Counter::jobs_retried, 1);
                        }
                        pending.push_back((job, attempt + 1));
                    } else {
                        let d = cfg.deadline.expect("timeout implies a deadline");
                        give_up(job, attempt, JobFailure::DeadlineExceeded(d));
                    }
                }
            }
            // The main loop owns a sender, so the channel cannot close.
            Err(mpsc::RecvTimeoutError::Disconnected) => unreachable!("tx held by caller"),
        }
    }

    failures.sort_by_key(|f| f.job);
    IsolatedRun {
        results,
        failures,
        interrupted: stopped,
    }
}

/// One exhausted (point, trial) job of a campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailedJob {
    /// Index into the campaign's grid points.
    pub point: usize,
    /// Trial number within the point.
    pub trial: u32,
    /// Attempts consumed (first try + retries).
    pub attempts: u32,
    /// The last attempt's failure.
    pub failure: JobFailure,
}

impl std::fmt::Display for FailedJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "point {} trial {} ({} attempts): {}",
            self.point, self.trial, self.attempts, self.failure
        )
    }
}

/// Partial results of a crash-isolated campaign.
///
/// `aggregates[i]` holds the trials of `points[i]` that survived; a
/// point whose every trial failed has an empty `runs` vector. Metric
/// methods on an empty [`Aggregate`] are meaningless — check
/// [`Aggregate::runs`] (or [`CampaignReport::failures`]) first.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Surviving trials per grid point, in point order.
    pub aggregates: Vec<Aggregate>,
    /// Every job whose attempts were exhausted, sorted by (point, trial).
    pub failures: Vec<FailedJob>,
    /// Total (point × trial) jobs submitted.
    pub total_jobs: usize,
}

impl CampaignReport {
    /// Jobs that produced a result. Counted from the surviving trials
    /// (not inferred from the failure list) so it stays correct for
    /// interrupted campaigns, where jobs may be neither.
    pub fn completed_jobs(&self) -> usize {
        self.aggregates.iter().map(|a| a.runs.len()).sum()
    }

    /// Whether every job completed.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty() && self.completed_jobs() == self.total_jobs
    }
}

/// Runs an experiment grid like
/// [`run_grid_on`](crate::experiment::run_grid_on), but crash-isolated:
/// a panicking or deadline-overrunning job is retried with a reseeded
/// trial and, if it keeps failing, recorded in the report instead of
/// aborting the campaign.
///
/// Golden passes are warmed on the plain engine first (they depend only
/// on the application and trace, not on any design point, so they
/// cannot be crashed by a bad configuration). With no failures the
/// aggregates are bitwise identical to `run_grid_on` on the same
/// inputs.
pub fn run_campaign_on(
    engine: &Engine,
    points: &[GridPoint],
    trace: &netbench::Trace,
    opts: &ExperimentOptions,
    cfg: &CampaignConfig,
) -> CampaignReport {
    campaign_with_control(engine, points, trace, opts, cfg, BatchControl::default()).0
}

/// [`run_campaign_on`] with passive telemetry attached: declares the
/// job total, then records completions, retries, abandonments,
/// per-trial fault counters and outcome tallies into `telemetry` as the
/// campaign runs. Results are bitwise identical to the uninstrumented
/// call.
pub fn run_campaign_instrumented(
    engine: &Engine,
    points: &[GridPoint],
    trace: &netbench::Trace,
    opts: &ExperimentOptions,
    cfg: &CampaignConfig,
    telemetry: &Arc<Telemetry>,
) -> CampaignReport {
    telemetry.count(
        0,
        Counter::jobs_total,
        (points.len() * opts.trials.max(1) as usize) as u64,
    );
    let control = BatchControl {
        telemetry: Some(Arc::clone(telemetry)),
        ..BatchControl::default()
    };
    campaign_with_control(engine, points, trace, opts, cfg, control).0
}

/// Shared campaign core: warms goldens, maps (point, trial) jobs onto
/// the isolated batch driver under `control`, and folds the slots back
/// into a [`CampaignReport`]. Returns the report and whether the batch
/// was interrupted.
fn campaign_with_control(
    engine: &Engine,
    points: &[GridPoint],
    trace: &netbench::Trace,
    opts: &ExperimentOptions,
    cfg: &CampaignConfig,
    control: BatchControl<'_, RunReport>,
) -> (CampaignReport, bool) {
    // With telemetry attached, chain a fault-counter/outcome recorder
    // in front of the caller's completion callback. Rebuilt (rather
    // than mutated) because the chained closure lives on this frame.
    let BatchControl {
        prefilled,
        stop,
        on_result,
        telemetry,
    } = control;
    let mut inner = on_result;
    let mut chained;
    let on_result: Option<OnResult<'_, RunReport>> = match telemetry.clone() {
        Some(t) => {
            chained = move |job: usize, r: &RunReport| {
                t.record_report(job, r);
                if let Some(cb) = inner.as_mut() {
                    cb(job, r);
                }
            };
            Some(&mut chained)
        }
        // Reborrow so the returned option carries this frame's
        // lifetime in both arms.
        None => inner.as_mut().map(|cb| &mut **cb as OnResult<'_, _>),
    };
    let control = BatchControl {
        prefilled,
        stop,
        on_result,
        telemetry,
    };

    let mut kinds: Vec<AppKind> = points.iter().map(|p| p.kind).collect();
    kinds.sort();
    kinds.dedup();
    let goldens: Arc<HashMap<AppKind, Arc<GoldenData>>> = Arc::new(
        kinds
            .iter()
            .copied()
            .zip(engine.map(&kinds, |k| golden_for(*k, trace)))
            .collect(),
    );

    let trials = opts.trials.max(1) as usize;
    let total_jobs = points.len() * trials;
    let base_seed = opts.seed;
    let points_shared: Arc<Vec<GridPoint>> = Arc::new(points.to_vec());
    let trace_shared = Arc::new(trace.clone());

    let isolated = run_isolated_jobs_with(
        engine.jobs(),
        total_jobs,
        cfg,
        control,
        move |job: usize, attempt: u32| {
            let point = &points_shared[job / trials];
            let t = (job % trials) as u64;
            let seed = base_seed
                .wrapping_add(t)
                .wrapping_add(u64::from(attempt).wrapping_mul(RESEED_STRIDE));
            let run_cfg = point.cfg.clone().with_seed(seed);
            ClumsyProcessor::new(run_cfg).run_with_golden(
                point.kind,
                &trace_shared,
                &goldens[&point.kind],
            )
        },
    );

    let mut slots = isolated.results.into_iter();
    let aggregates = points
        .iter()
        .map(|_| Aggregate {
            runs: (0..trials)
                .filter_map(|_| slots.next().expect("job count"))
                .collect(),
        })
        .collect();
    let failures = isolated
        .failures
        .into_iter()
        .map(|f| FailedJob {
            point: f.job / trials,
            trial: (f.job % trials) as u32,
            attempts: f.attempts,
            failure: f.failure,
        })
        .collect();

    (
        CampaignReport {
            aggregates,
            failures,
            total_jobs,
        },
        isolated.interrupted,
    )
}

/// Durability settings for [`run_campaign_durable`].
pub struct DurableOptions {
    /// Journal path (created along with its parent directories).
    pub journal: PathBuf,
    /// Replay an existing journal at that path first, scheduling only
    /// the jobs it does not already record. A missing journal file
    /// simply starts a fresh run.
    pub resume: bool,
    /// Optional graceful-stop condition, polled while the campaign
    /// runs (wire this to [`crate::interrupt::interrupted`]).
    pub stop: Option<Arc<dyn Fn() -> bool + Send + Sync>>,
    /// Optional passive instrumentation, threaded through the batch
    /// driver and the journal writer (record/fsync counters).
    pub telemetry: Option<Arc<Telemetry>>,
}

impl DurableOptions {
    /// Durability at `journal` with every optional knob off: no resume,
    /// no stop condition, no telemetry.
    pub fn new(journal: impl Into<PathBuf>) -> Self {
        DurableOptions {
            journal: journal.into(),
            resume: false,
            stop: None,
            telemetry: None,
        }
    }

    /// Returns the options with resume turned on or off.
    pub fn with_resume(mut self, resume: bool) -> Self {
        self.resume = resume;
        self
    }

    /// Returns the options with a graceful-stop condition installed.
    pub fn with_stop(mut self, stop: Arc<dyn Fn() -> bool + Send + Sync>) -> Self {
        self.stop = Some(stop);
        self
    }

    /// Returns the options with passive telemetry attached.
    pub fn with_telemetry(mut self, telemetry: Arc<Telemetry>) -> Self {
        self.telemetry = Some(telemetry);
        self
    }
}

impl std::fmt::Debug for DurableOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableOptions")
            .field("journal", &self.journal)
            .field("resume", &self.resume)
            .field("stop", &self.stop.is_some())
            .field("telemetry", &self.telemetry.is_some())
            .finish()
    }
}

/// Result of a durable campaign run.
#[derive(Debug)]
pub struct DurableOutcome {
    /// The (possibly partial) campaign report.
    pub report: CampaignReport,
    /// `true` if the run was stopped early with jobs still unscheduled
    /// — rerun with `resume` to finish.
    pub interrupted: bool,
    /// Jobs pre-filled from the journal instead of being rerun.
    pub replayed_jobs: usize,
    /// Corrupt or duplicate journal records that were skipped.
    pub skipped_records: usize,
}

/// FNV-1a hash over the canonical description of a grid: each point's
/// application name and full config debug form. Any change to the grid
/// shape or any design-point parameter changes the hash.
pub fn grid_hash(points: &[GridPoint]) -> u64 {
    let mut canon = String::new();
    for p in points {
        canon.push_str(p.kind.name());
        canon.push('|');
        canon.push_str(&format!("{:?}", p.cfg));
        canon.push(';');
    }
    journal::fnv1a64(canon.as_bytes())
}

/// The journal header identifying a campaign run: its seed, trial
/// count, trace size and grid hash. A resume refuses to proceed unless
/// every field matches.
pub fn campaign_header(
    points: &[GridPoint],
    trace: &netbench::Trace,
    opts: &ExperimentOptions,
) -> JournalHeader {
    JournalHeader {
        version: JOURNAL_VERSION,
        seed: opts.seed,
        trials: opts.trials.max(1),
        scale: trace.packets.len() as u64,
        points: points.len() as u64,
        grid: grid_hash(points),
    }
}

/// [`run_campaign_on`] with crash-safe durability: every completed
/// (point, trial) job is appended to a CRC-checked journal as it
/// finishes, `durable.resume` replays a prior journal (verifying the
/// header and tolerating a torn tail) so only the remaining jobs run,
/// and `durable.stop` allows a graceful interrupt that leaves the
/// journal resumable.
///
/// Because a trial's fault seed derives from `opts.seed` and the trial
/// index alone, a resumed campaign produces a report bitwise identical
/// to an uninterrupted one.
///
/// # Errors
///
/// [`JournalError`] if the journal cannot be written, an existing
/// journal has no valid header, or its header belongs to a different
/// run configuration.
pub fn run_campaign_durable(
    engine: &Engine,
    points: &[GridPoint],
    trace: &netbench::Trace,
    opts: &ExperimentOptions,
    cfg: &CampaignConfig,
    durable: &DurableOptions,
) -> Result<DurableOutcome, JournalError> {
    let header = campaign_header(points, trace, opts);
    let trials = opts.trials.max(1) as usize;
    let total_jobs = points.len() * trials;

    let mut prefilled: HashMap<usize, RunReport> = HashMap::new();
    let mut skipped_records = 0;
    let writer = if durable.resume && durable.journal.exists() {
        let replayed = journal::replay(&durable.journal)?;
        replayed.header.check(&header)?;
        skipped_records = replayed.skipped_records;
        for record in replayed.records {
            if let Record::Job { job, report } = record {
                if job < total_jobs {
                    prefilled.insert(job, *report);
                }
            }
        }
        JournalWriter::resume_with(
            &durable.journal,
            replayed.valid_len,
            durable.telemetry.clone(),
        )?
    } else {
        JournalWriter::create_with(&durable.journal, &header, durable.telemetry.clone())?
    };
    let replayed_jobs = prefilled.len();

    if let Some(t) = &durable.telemetry {
        t.count(0, Counter::jobs_total, total_jobs as u64);
        t.count(0, Counter::jobs_replayed, replayed_jobs as u64);
        // Fold replayed trials into the fault/outcome tallies so the
        // progress view covers the whole campaign, not just the resumed
        // remainder.
        for (job, report) in &prefilled {
            t.record_report(*job, report);
        }
    }

    let stop_fn: Option<Box<dyn Fn() -> bool>> = durable.stop.as_ref().map(|s| {
        let s = Arc::clone(s);
        Box::new(move || s()) as Box<dyn Fn() -> bool>
    });
    let mut on_result = |job: usize, report: &RunReport| writer.append_job(job, report);
    let control = BatchControl {
        prefilled,
        stop: stop_fn.as_deref(),
        on_result: Some(&mut on_result),
        telemetry: durable.telemetry.clone(),
    };

    let (report, stopped) = campaign_with_control(engine, points, trace, opts, cfg, control);
    writer.finish()?;

    let unscheduled = total_jobs - report.completed_jobs() - report.failures.len();
    Ok(DurableOutcome {
        interrupted: stopped && unscheduled > 0,
        report,
        replayed_jobs,
        skipped_records,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClumsyConfig;
    use crate::experiment::run_grid_on;

    #[test]
    fn all_jobs_succeed_in_order() {
        let out = run_isolated_jobs(4, 16, &CampaignConfig::default(), |job, _| job * 2);
        assert!(out.failures.is_empty());
        let got: Vec<usize> = out.results.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(got, (0..16).map(|j| j * 2).collect::<Vec<_>>());
    }

    #[test]
    fn a_panicking_job_is_recorded_and_the_rest_complete() {
        let cfg = CampaignConfig::default().with_retries(1);
        let out = run_isolated_jobs(3, 10, &cfg, |job, _| {
            assert!(job != 4, "job four always dies");
            job
        });
        assert_eq!(out.failures.len(), 1);
        let f = &out.failures[0];
        assert_eq!(f.job, 4);
        assert_eq!(f.attempts, 2, "one try plus one retry");
        assert!(
            matches!(&f.failure, JobFailure::Panicked(msg) if msg.contains("job four")),
            "panic message must be captured: {f:?}"
        );
        for (j, r) in out.results.iter().enumerate() {
            if j == 4 {
                assert!(r.is_none());
            } else {
                assert_eq!(*r, Some(j));
            }
        }
    }

    #[test]
    fn a_retry_can_succeed_after_a_flaky_panic() {
        let cfg = CampaignConfig::default().with_retries(2);
        let out = run_isolated_jobs(2, 5, &cfg, |job, attempt| {
            // Job 1 fails on its first two attempts only.
            assert!(job != 1 || attempt >= 2, "flaky");
            (job, attempt)
        });
        assert!(out.failures.is_empty());
        assert_eq!(out.results[1], Some((1, 2)), "third attempt succeeded");
        assert_eq!(out.results[0], Some((0, 0)), "others never retried");
    }

    #[test]
    fn a_sleeping_job_exceeds_its_deadline() {
        let cfg = CampaignConfig::default()
            .with_deadline(Duration::from_millis(60))
            .with_retries(1);
        let out = run_isolated_jobs(4, 6, &cfg, |job, _| {
            if job == 2 {
                std::thread::sleep(Duration::from_millis(600));
            }
            job
        });
        assert_eq!(out.failures.len(), 1);
        let f = &out.failures[0];
        assert_eq!(f.job, 2);
        assert_eq!(f.attempts, 2);
        assert!(matches!(f.failure, JobFailure::DeadlineExceeded(_)));
        for (j, r) in out.results.iter().enumerate() {
            if j != 2 {
                assert_eq!(*r, Some(j), "fast jobs must not be harmed");
            }
        }
    }

    #[test]
    fn failure_free_campaign_matches_run_grid_on() {
        let opts = ExperimentOptions {
            trials: 2,
            ..ExperimentOptions::quick()
        };
        let trace = opts.trace.generate();
        let points = vec![
            GridPoint::new(AppKind::Crc, ClumsyConfig::baseline()),
            GridPoint::new(
                AppKind::Tl,
                ClumsyConfig::baseline().with_static_cycle(0.25),
            ),
        ];
        let engine = Engine::with_jobs(2);
        let grid = run_grid_on(&engine, &points, &trace, &opts);
        let campaign = run_campaign_on(&engine, &points, &trace, &opts, &CampaignConfig::default());
        assert!(campaign.is_complete());
        assert_eq!(campaign.total_jobs, 4);
        assert_eq!(campaign.completed_jobs(), 4);
        assert_eq!(campaign.aggregates, grid, "must be bitwise identical");
    }

    #[test]
    fn campaign_config_display_and_defaults() {
        let cfg = CampaignConfig::default();
        assert_eq!(cfg.deadline, None);
        assert_eq!(cfg.retries, 1);
        let p = JobFailure::Panicked("boom".into());
        assert!(format!("{p}").contains("boom"));
        let d = JobFailure::DeadlineExceeded(Duration::from_millis(250));
        assert!(format!("{d}").contains("250 ms"));
        let fj = FailedJob {
            point: 3,
            trial: 1,
            attempts: 2,
            failure: p,
        };
        assert!(format!("{fj}").contains("point 3 trial 1"));
    }
}
