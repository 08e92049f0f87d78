//! The `clumsy` subcommands.

use crate::args::{ArgError, Args};
use crate::json::{array, JsonObject};
use cache_sim::{
    DetectionScheme, FaultTargets, RecoveryGranularity, StrikePolicy, WayDisablePolicy,
};
use clumsy_core::campaign::grid_hash;
use clumsy_core::experiment::{paper_schemes, run_config_on_trace, ExperimentOptions, GridPoint};
use clumsy_core::telemetry::{metric_keys, parse_metrics, METRICS_SCHEMA};
use clumsy_core::{
    interrupt, run_campaign_durable, run_campaign_instrumented, run_campaign_on, run_serve,
    CampaignConfig, ClumsyConfig, Counter, DurableOptions, DynamicConfig, FrequencyPlan,
    JournalError, ProgressReporter, RebalanceConfig, SafeModeConfig, ServeConfig, ShedPolicy,
    Stopwatch, Telemetry, PAPER_CYCLE_TIMES,
};
use energy_model::EdfMetric;
use fault_model::{FaultProbabilityModel, PersistentSiteConfig, VoltageSwingCurve};
use netbench::{AppKind, Trace, TraceConfig, TrafficPattern};

/// Top-level CLI error.
#[derive(Debug)]
pub enum CliError {
    /// Argument problem.
    Args(ArgError),
    /// Unknown subcommand.
    UnknownCommand(String),
    /// An output file could not be written.
    Io {
        /// The path that failed.
        path: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The campaign journal could not be read, written, or matched
    /// against the requested run.
    Journal(JournalError),
    /// An option was given that the rest of the command line makes
    /// unobservable. Accepting it silently has already cost debugging
    /// time (an `--l2-cycle` with the `l2` target off changes nothing),
    /// so an inert option is an error, not a shrug.
    InertOption {
        /// The option that would have no effect.
        option: String,
        /// What the command line must also say for it to matter.
        requires: String,
    },
    /// A command line that does not fit the command's usage.
    Usage(String),
    /// `clumsy metrics` could not read a requested value: the file is
    /// unreadable, has no schema marker, or lacks the key.
    Metrics {
        /// The metrics file.
        path: String,
        /// What is wrong with it.
        problem: String,
    },
    /// `clumsy repro` ran an experiment that failed its acceptance
    /// checks.
    Experiment {
        /// The registry name.
        name: String,
        /// The failed checks, one per line.
        problem: String,
    },
    /// A durable campaign was interrupted (SIGINT/SIGTERM) before all
    /// jobs ran; the journal makes it resumable. `main` prints the
    /// partial output and exits with status 3 rather than 2.
    Interrupted {
        /// Progress summary for the user (`done/total jobs`).
        partial: String,
        /// The journal to resume from.
        journal: String,
    },
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CliError::Args(e) => write!(f, "{e}"),
            CliError::UnknownCommand(c) => {
                write!(f, "unknown command {c:?} (try `clumsy help`)")
            }
            CliError::Io { path, source } => write!(f, "cannot write {path:?}: {source}"),
            CliError::InertOption { option, requires } => write!(
                f,
                "--{option} has no effect without {requires}; drop the flag or enable the target"
            ),
            CliError::Journal(e) => write!(f, "{e}"),
            CliError::Usage(msg) => write!(f, "{msg}"),
            CliError::Metrics { path, problem } => write!(f, "metrics file {path:?}: {problem}"),
            CliError::Experiment { name, problem } => {
                write!(
                    f,
                    "experiment {name} failed its acceptance checks:\n{problem}"
                )
            }
            CliError::Interrupted { partial, journal } => write!(
                f,
                "interrupted after {partial} jobs; rerun with --resume to finish ({journal})"
            ),
        }
    }
}

impl std::error::Error for CliError {}

impl From<ArgError> for CliError {
    fn from(e: ArgError) -> Self {
        CliError::Args(e)
    }
}

/// Dispatches a parsed command line, returning the text to print.
///
/// # Errors
///
/// Returns [`CliError`] for unknown commands or invalid options.
pub fn dispatch(args: &Args) -> Result<String, CliError> {
    match args.command() {
        "run" => run(args),
        "sweep" => sweep(args),
        "campaign" => campaign(args),
        "serve" => serve(args),
        "trace" => trace_info(args),
        "model" => model(args),
        "apps" => Ok(apps_listing()),
        "repro" => repro(args),
        "help" | "--help" | "-h" => Ok(help_text()),
        other => Err(CliError::UnknownCommand(other.to_string())),
    }
}

/// The `help` text.
pub fn help_text() -> String {
    let mut text = "\
clumsy — reliability-aware cache over-clocking simulator (MICRO-37 2004)

USAGE:
    clumsy <COMMAND> [OPTIONS]

COMMANDS:
    run      run one application on one design point
    sweep    design-space grid (schemes x clocks) for one application
    campaign crash-isolated outcome-taxonomy sweep
             (masked/corrected/recovered/fatal/SDC/recovery-failed)
    serve    supervised, sharded packet service over an unbounded stream:
             never wedges — sheds under backpressure, restarts panicked
             shards, drains cleanly on SIGTERM (exit 0)
    metrics  clumsy metrics <file> <key>...: print each key's value from a
             --metrics JSON file, one per line (exit 1 if the file lacks the
             schema marker or a key, 2 for a key the schema does not define)
    repro    render one experiment of the reproduction registry (the
             `repro` binary runs them all and records their CSVs)
    trace    describe the synthetic packet trace
    model    print the fault-model operating points
    apps     list available applications
    help     show this text

RUN OPTIONS:
    --app <name>          application (default route; see `clumsy apps`)
    --cr <0..1|dynamic>   relative cycle time or the dynamic plan (default 1.0)
    --detection <d>       none | parity | byte-parity | ecc (default none)
    --strikes <n>         strike policy: a count in 1..=8 (default 2), or
                          way-disable to escalate repeated strikes on one
                          slot into mapping the way out and running degraded
    --recovery <g>        line | word (default line)
    --watchdog            contain fatal errors by dropping the packet
    --fault-targets <t>   '+'-joined subset of data/tag/parity/l2, or all
                          (default data; l2 makes recovery itself fallible)
    --l2-cycle <0..1>     relative L2 cycle time; rejected unless the l2
                          fault target is on (default 1.0)
    --persistent <p>      sticky fault-site activation probability in (0, 1];
                          opt-in permanent-fault process (default off)
    --safe-mode           absolute fault-rate clamp for --cr dynamic: storm
                          epochs drop to Cr=1 and hold before re-climbing
    --packets <n>         trace length (default 2000)
    --trials <n>          fault-seed trials (default 1)
    --seed <n>            base fault seed (default 24301)
    --sampler <m>         skip-ahead (geometric fast path; default) | exact
    --metrics <path>      write telemetry counters as JSON (atomic; results
                          stay bitwise identical with or without it)
    --json                machine-readable output

SWEEP OPTIONS: --app, --packets, --trials, --seed, --json

CAMPAIGN OPTIONS:
    --app <name|all>      one application or the whole Table I set (default all)
    --fault-targets <t>   '+'-joined subset of data/tag/parity/l2, or all
                          (default data)
    --l2-cycle <0..1>     relative L2 cycle time; rejected unless the l2
                          fault target is on (default 1.0)
    --strikes way-disable add the way-disable degraded scheme as a fifth
                          row of the recovery-scheme grid
    --persistent <p>      sticky fault-site probability applied to every cell
    --deadline-ms <n>     per-trial wall-clock budget (default: none)
    --retries <n>         reseeded retries per failing trial (default 1)
    --csv <path>          also write the per-cell counts as CSV (atomic)
    --durable             journal completed trials; SIGINT/SIGTERM exits 3
                          leaving a resumable journal
    --resume              replay the journal, run only the remaining jobs
                          (refused if seed/trials/packets/grid changed)
    --journal <path>      journal file (default results/journal/campaign-<grid>.jsonl)
    --metrics <path>      write telemetry counters as JSON (atomic; results
                          stay bitwise identical with or without it)
    --metrics-interval <s> also rewrite the --metrics file atomically every
                          s seconds while the campaign runs
    --progress            periodic progress/ETA lines on stderr
    --packets/--trials/--seed/--jobs/--json as for repro

SERVE OPTIONS:
    --shards <n>          parallel shards, one machine pair + controller +
                          fault streams each, selected by flow hash (default 4)
    --queue-depth <n>     bounded ingress queue per shard (default 1024)
    --packets <n>         stop after n generated packets; 0 = serve until
                          SIGINT/SIGTERM (default 0)
    --flows <n>           synthetic flow population (default: paper trace)
    --shed-timeout-ms <n> how long a full queue exerts backpressure before
                          the packet is shed instead (default 100)
    --shed-policy <p>     fixed | adaptive: adaptive scales the shed deadline
                          by smoothed queue occupancy, so a persistently full
                          queue sheds early instead of stacking the pump a
                          full timeout deep (default fixed)
    --flow-queue-cap <n>  per-flow slots inside each ingress queue; enables
                          deficit-round-robin dequeue so an elephant flow is
                          shed at its cap instead of starving the mice (must
                          be below --queue-depth; default off)
    --rebalance           divert flows making their first appearance away
                          from persistently hot shards to the least-loaded
                          one (needs --shards >= 2; per-flow ordering is
                          preserved — only never-seen flows move)
    --rebalance-window <n> consecutive hot observations before diversion
                          starts (needs --rebalance; default 64)
    --rebalance-highwater <f> occupancy fraction in (0,1] at which a shard
                          counts as hot (needs --rebalance; default 0.875)
    --control-flows <n>   mark the n numerically lowest flow hashes as
                          control class: exempt from the flow cap, admitted
                          on a full queue by shedding the newest data-class
                          entry, never the reverse (must be below --flows)
    --slo-p99-us <n>      latency SLO: while the sliding p99 of the
                          enqueue→verdict histogram exceeds n microseconds,
                          data-class packets shed immediately on a full
                          queue instead of riding out the backpressure
                          timeout (control keeps the full budget)
    --pattern <m>         traffic mix: skewed | uniform | single-flow |
                          elephant (one flow carries half the stream;
                          default skewed)
    --inject-panic <id>   test hook: the owning shard panics once on this
                          packet id, exercising supervisor restart
    --app/--cr/--detection/--strikes/--recovery/--fault-targets/--l2-cycle/
    --persistent/--safe-mode/--sampler/--seed as for run (fatal packet
    errors always drop the packet: serving never wedges)
    --metrics/--metrics-interval/--progress as for campaign (progress lines
    report rate without ETA: the stream is unbounded)
    first SIGINT/SIGTERM drains and exits 0; a second aborts immediately

TRACE OPTIONS: --packets, --seed
MODEL OPTIONS: --beta <f> (default calibrated 0.20)
REPRO OPTIONS: --experiment <name> (default table1; names below), --packets,
               --trials, --seed (default: the experiment's recording seed),
               --jobs <n> (parallel workers; default CLUMSY_JOBS or all cores)
EXPERIMENTS:
"
    .to_string();
    let mut line = String::from("   ");
    for e in clumsy_bench::EXPERIMENTS {
        if line.len() + e.name.len() > 78 {
            text.push_str(&line);
            text.push('\n');
            line = String::from("   ");
        }
        line.push(' ');
        line.push_str(e.name);
    }
    text + &line + "\n"
}

/// `clumsy metrics <file> <key>...`: each key's integer value from a
/// `--metrics` JSON file, one per line, in the order asked. A key the
/// counter registry does not define is a usage error; a file without
/// the schema marker, or without a requested key, is a failure.
///
/// # Errors
///
/// [`CliError::Usage`] for a missing file or key argument or an
/// unknown key; [`CliError::Metrics`] for an unreadable file, a missing
/// schema marker or a missing key.
pub fn metrics(argv: &[String]) -> Result<String, CliError> {
    let (path, keys) = match argv {
        [path, keys @ ..] if !keys.is_empty() => (path, keys),
        _ => {
            return Err(CliError::Usage(
                "usage: clumsy metrics <file> <key>...".into(),
            ))
        }
    };
    let known = metric_keys();
    if let Some(key) = keys.iter().find(|k| !known.contains(k)) {
        return Err(CliError::Usage(format!(
            "{key:?} is not an integer key of {METRICS_SCHEMA}"
        )));
    }
    let failure = |problem: String| CliError::Metrics {
        path: path.clone(),
        problem,
    };
    let text = std::fs::read_to_string(path).map_err(|e| failure(e.to_string()))?;
    let map = parse_metrics(&text)
        .ok_or_else(|| failure(format!("no {METRICS_SCHEMA} schema marker")))?;
    let values = keys
        .iter()
        .map(|k| {
            map.get(k)
                .map(u64::to_string)
                .ok_or_else(|| failure(format!("no {k:?} key")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(values.join("\n"))
}

fn apps_listing() -> String {
    let mut out = String::from("paper applications (Table I):\n");
    for k in AppKind::all() {
        out.push_str(&format!("  {k}\n"));
    }
    out.push_str("extensions:\n  adpcm (media codec, §4 generality claim)\n");
    out
}

/// Parses the `--jobs` option into an engine: an explicit worker count
/// when given, otherwise the `CLUMSY_JOBS`/machine-size default.
fn parse_engine(args: &Args) -> Result<clumsy_core::Engine, CliError> {
    match args.get("jobs") {
        None => Ok(clumsy_core::Engine::from_env()),
        Some(v) => {
            let jobs: usize = v.parse().map_err(|_| {
                CliError::Args(ArgError::BadValue {
                    option: "jobs".into(),
                    value: v.into(),
                    expected: "a worker count of at least 1",
                })
            })?;
            if jobs == 0 {
                return Err(CliError::Args(ArgError::BadValue {
                    option: "jobs".into(),
                    value: v.into(),
                    expected: "a worker count of at least 1",
                }));
            }
            Ok(clumsy_core::Engine::with_jobs(jobs))
        }
    }
}

/// `clumsy repro --experiment NAME`: runs one entry of the
/// reproduction registry at the command line's scale and renders its
/// tables. Writes no CSV (the `repro` binary records them).
fn repro(args: &Args) -> Result<String, CliError> {
    args.expect_only(&["experiment", "packets", "trials", "seed", "jobs"])?;
    let name = args.get("experiment").unwrap_or("table1");
    let entry = clumsy_bench::find(name).ok_or_else(|| {
        CliError::Args(ArgError::BadValue {
            option: "experiment".into(),
            value: name.into(),
            expected: "an experiment name listed by `clumsy help`",
        })
    })?;
    let mut opts = parse_options(args)?;
    if let (None, Some(seed)) = (args.get("seed"), entry.seed) {
        opts.seed = seed;
    }
    let engine = parse_engine(args)?;
    let tables = (entry.run)(&engine, &opts).map_err(|problem| CliError::Experiment {
        name: name.into(),
        problem,
    })?;
    Ok(tables.iter().map(|t| t.render()).collect())
}

fn parse_app(args: &Args) -> Result<AppKind, CliError> {
    let name = args.get("app").unwrap_or("route");
    AppKind::extended()
        .into_iter()
        .find(|k| k.name() == name)
        .ok_or_else(|| {
            CliError::Args(ArgError::BadValue {
                option: "app".into(),
                value: name.into(),
                expected: "one of crc/tl/route/drr/nat/md5/url/adpcm",
            })
        })
}

fn parse_config(args: &Args) -> Result<ClumsyConfig, CliError> {
    let mut cfg = ClumsyConfig::baseline();
    cfg = match args.get("detection").unwrap_or("none") {
        "none" => cfg.with_detection(DetectionScheme::None),
        "parity" => cfg.with_detection(DetectionScheme::Parity),
        "byte-parity" => cfg.with_detection(DetectionScheme::ParityPerByte),
        "ecc" => cfg.with_detection(DetectionScheme::Secded),
        other => {
            return Err(CliError::Args(ArgError::BadValue {
                option: "detection".into(),
                value: other.into(),
                expected: "none | parity | byte-parity | ecc",
            }))
        }
    };
    cfg = match args.get("strikes") {
        // The fourth reliability scheme: keep the two-strike refetch
        // policy, but escalate repeated strikes on one physical slot to
        // mapping the way out and running degraded.
        Some("way-disable") => cfg
            .with_strikes(StrikePolicy::two_strike())
            .with_way_disable(WayDisablePolicy::default_policy()),
        _ => {
            let strikes: u8 =
                args.get_parsed("strikes", 2, "a strike count in 1..=8, or way-disable")?;
            if !(1..=8).contains(&strikes) {
                return Err(CliError::Args(ArgError::BadValue {
                    option: "strikes".into(),
                    value: strikes.to_string(),
                    expected: "a strike count in 1..=8, or way-disable",
                }));
            }
            cfg.with_strikes(StrikePolicy::with_strikes(strikes))
        }
    };
    cfg = match args.get("recovery").unwrap_or("line") {
        "line" => cfg.with_recovery(RecoveryGranularity::Line),
        "word" => cfg.with_recovery(RecoveryGranularity::Word),
        other => {
            return Err(CliError::Args(ArgError::BadValue {
                option: "recovery".into(),
                value: other.into(),
                expected: "line | word",
            }))
        }
    };
    cfg = match args.get("cr").unwrap_or("1.0") {
        "dynamic" => cfg.with_dynamic(DynamicConfig::paper()),
        v => {
            let cr: f64 = v.parse().map_err(|_| {
                CliError::Args(ArgError::BadValue {
                    option: "cr".into(),
                    value: v.into(),
                    expected: "a cycle time in (0, 1] or `dynamic`",
                })
            })?;
            if !(cr > 0.0 && cr <= 1.0) {
                return Err(CliError::Args(ArgError::BadValue {
                    option: "cr".into(),
                    value: v.into(),
                    expected: "a cycle time in (0, 1] or `dynamic`",
                }));
            }
            cfg.with_static_cycle(cr)
        }
    };
    if args.flag("watchdog") {
        cfg = cfg.with_watchdog();
    }
    if args.flag("quantize-off") {
        cfg.mem.quantize_latency = false;
    }
    cfg = match args.get("sampler").unwrap_or("skip-ahead") {
        "exact" => cfg.with_sampling(fault_model::SamplingMode::PerAccess),
        "skip-ahead" => cfg.with_sampling(fault_model::SamplingMode::SkipAhead),
        other => {
            return Err(CliError::Args(ArgError::BadValue {
                option: "sampler".into(),
                value: other.into(),
                expected: "exact | skip-ahead",
            }))
        }
    };
    let targets = parse_targets(args)?;
    cfg = cfg.with_fault_targets(targets);
    cfg = cfg.with_l2_cycle(parse_l2_cycle(args, targets)?);
    if let Some(p) = parse_persistent(args, targets)? {
        cfg = cfg.with_persistent(p);
    }
    if args.flag("safe-mode") {
        if !matches!(cfg.frequency, FrequencyPlan::Dynamic(_)) {
            return Err(CliError::Args(ArgError::BadValue {
                option: "safe-mode".into(),
                value: args.get("cr").unwrap_or("1.0").into(),
                expected: "--cr dynamic (safe mode extends the dynamic controller)",
            }));
        }
        cfg = cfg.with_dynamic(DynamicConfig::paper().with_safe_mode(SafeModeConfig::default()));
    }
    cfg = cfg.with_seed(args.get_parsed("seed", 24301u64, "an integer seed")?);
    Ok(cfg)
}

fn parse_trace(args: &Args) -> Result<(Trace, ExperimentOptions), CliError> {
    let opts = parse_options(args)?;
    Ok((opts.trace.generate(), opts))
}

/// `--packets`, `--trials` and `--seed` as experiment options.
fn parse_options(args: &Args) -> Result<ExperimentOptions, CliError> {
    let packets: usize = args.get_parsed("packets", 2000, "a packet count")?;
    let trials: u32 = args.get_parsed("trials", 1, "a trial count")?;
    let seed: u64 = args.get_parsed("seed", 24301, "an integer seed")?;
    Ok(ExperimentOptions {
        trace: TraceConfig::paper().with_packets(packets.max(1)),
        trials: trials.max(1),
        seed,
    })
}

const RUN_OPTIONS: &[&str] = &[
    "app",
    "cr",
    "detection",
    "strikes",
    "recovery",
    "watchdog",
    "packets",
    "trials",
    "seed",
    "json",
    "quantize-off",
    "sampler",
    "fault-targets",
    "l2-cycle",
    "safe-mode",
    "persistent",
    "metrics",
];

/// A telemetry block when `--metrics` or `--progress` asked for one.
/// Created here (not inside the simulation) so the default path runs
/// with telemetry entirely absent — bitwise inertness by construction.
fn parse_telemetry(args: &Args) -> Option<std::sync::Arc<Telemetry>> {
    (args.get("metrics").is_some() || args.flag("progress"))
        .then(|| std::sync::Arc::new(Telemetry::new()))
}

/// Writes the schema-stable metrics JSON to the `--metrics` path via
/// [`clumsy_core::atomic_write`], if both the flag and a telemetry
/// block are present.
fn write_metrics(
    args: &Args,
    telemetry: Option<&std::sync::Arc<Telemetry>>,
) -> Result<(), CliError> {
    if let (Some(path), Some(t)) = (args.get("metrics"), telemetry) {
        clumsy_core::atomic_write(std::path::Path::new(path), t.metrics_json().as_bytes())
            .map_err(|source| CliError::Io {
                path: path.to_string(),
                source,
            })?;
    }
    Ok(())
}

/// `--metrics-interval <secs>`: starts a background
/// [`clumsy_core::MetricsFlusher`] rewriting the `--metrics` file
/// atomically every interval, so long campaigns and serves can be
/// watched (and post-mortemed) mid-flight. Inert without `--metrics`,
/// so that combination is a typed [`CliError::InertOption`].
fn parse_metrics_flusher(
    args: &Args,
    telemetry: Option<&std::sync::Arc<Telemetry>>,
) -> Result<Option<clumsy_core::MetricsFlusher>, CliError> {
    let Some(v) = args.get("metrics-interval") else {
        return Ok(None);
    };
    let Some(path) = args.get("metrics") else {
        return Err(CliError::InertOption {
            option: "metrics-interval".into(),
            requires: "--metrics <path> (there is no metrics file to rewrite without it)".into(),
        });
    };
    let expected = "a flush interval in whole seconds, at least 1";
    let secs: u64 = v.parse().map_err(|_| {
        CliError::Args(ArgError::BadValue {
            option: "metrics-interval".into(),
            value: v.into(),
            expected,
        })
    })?;
    if secs == 0 {
        return Err(CliError::Args(ArgError::BadValue {
            option: "metrics-interval".into(),
            value: v.into(),
            expected,
        }));
    }
    let t = telemetry.expect("--metrics implies a telemetry block");
    Ok(Some(clumsy_core::MetricsFlusher::start(
        std::sync::Arc::clone(t),
        std::path::PathBuf::from(path),
        std::time::Duration::from_secs(secs),
    )))
}

fn run(args: &Args) -> Result<String, CliError> {
    args.expect_only(RUN_OPTIONS)?;
    let kind = parse_app(args)?;
    let cfg = parse_config(args)?;
    let (trace, opts) = parse_trace(args)?;
    let telemetry = parse_telemetry(args);
    let span = telemetry.as_ref().map(|_| Stopwatch::start());
    let agg = run_config_on_trace(kind, &cfg, &trace, &opts);
    if let (Some(t), Some(span)) = (&telemetry, span) {
        // `run` executes its trials serially in one call, so charge
        // each trial the average wall time of the batch.
        let trials = agg.runs.len().max(1);
        t.count(0, Counter::jobs_total, trials as u64);
        let per_trial = span.elapsed() / trials as u32;
        for (i, r) in agg.runs.iter().enumerate() {
            t.record_report(i, r);
            t.job_completed(i, per_trial);
        }
    }
    write_metrics(args, telemetry.as_ref())?;
    let baseline = run_config_on_trace(kind, &ClumsyConfig::baseline(), &trace, &opts);
    let metric = EdfMetric::paper();
    let rel = agg.edf(&metric) / baseline.edf(&metric);

    if args.flag("json") {
        let r = &agg.runs[0];
        let mut o = JsonObject::new();
        o.string("app", kind.name())
            .string("config", &cfg.label())
            .integer("packets_attempted", r.packets_attempted as u64)
            .integer("packets_completed", r.packets_completed as u64)
            .integer("dropped_packets", r.dropped_packets as u64)
            .integer("erroneous_packets", r.erroneous_packets as u64)
            .boolean("fatal", r.fatal.is_some())
            .number("fallibility", agg.fallibility())
            .number("cycles_per_packet", agg.delay_per_packet())
            .number("nj_per_packet", agg.energy_per_packet())
            .number("relative_edf2", rel)
            .integer("faults_injected", r.stats.faults_injected)
            .integer("faults_detected", r.stats.faults_detected)
            .string("outcome", r.outcome().label())
            .integer("faults_corrected", r.stats.faults_corrected)
            .integer("l2_faults_injected", r.stats.l2_faults_injected)
            .integer("recovery_failures", r.stats.recovery_failures)
            .integer("ways_disabled", r.stats.ways_disabled)
            .integer("salvage_writebacks", r.stats.salvage_writebacks)
            .integer("bypass_accesses", r.stats.bypass_accesses);
        let oc = agg.outcome_counts();
        o.integer("trials_masked", oc.masked)
            .integer("trials_corrected", oc.corrected)
            .integer("trials_detected_recovered", oc.detected_recovered)
            .integer("trials_detected_fatal", oc.detected_fatal)
            .integer("trials_sdc", oc.sdc)
            .integer("trials_recovery_failed", oc.recovery_failed);
        return Ok(o.finish());
    }

    let mut out = String::new();
    out.push_str(&format!("{kind} on {}\n", cfg.label()));
    for r in &agg.runs {
        out.push_str(&format!("  {r}\n"));
    }
    out.push_str(&format!(
        "fallibility {:.4} | {:.0} cycles/pkt | {:.0} nJ/pkt | relative EDF^2 {:.3}\n",
        agg.fallibility(),
        agg.delay_per_packet(),
        agg.energy_per_packet(),
        rel
    ));
    Ok(out)
}

/// Parses `--fault-targets` into the opt-in injection target set: a
/// `+`-joined list of arrays (`data`, `tag`, `parity`, `l2`), or `all`.
fn parse_targets(args: &Args) -> Result<FaultTargets, CliError> {
    let spec = args.get("fault-targets").unwrap_or("data");
    if spec == "all" {
        return Ok(FaultTargets::all());
    }
    let mut targets = FaultTargets {
        data: false,
        tag: false,
        parity: false,
        l2: false,
    };
    for part in spec.split('+') {
        match part {
            "data" => targets.data = true,
            "tag" => targets.tag = true,
            "parity" => targets.parity = true,
            "l2" => targets.l2 = true,
            _ => {
                return Err(CliError::Args(ArgError::BadValue {
                    option: "fault-targets".into(),
                    value: spec.into(),
                    expected: "a '+'-joined subset of data/tag/parity/l2 (e.g. data+l2), or all",
                }))
            }
        }
    }
    Ok(targets)
}

/// Parses `--l2-cycle`, the relative L2 cycle time in (0, 1]. The knob
/// is only observable when the `l2` fault target is on, so giving it
/// without that target is a typed [`CliError::InertOption`] rather
/// than a silent no-op.
fn parse_l2_cycle(args: &Args, targets: FaultTargets) -> Result<f64, CliError> {
    let l2_cycle: f64 = args.get_parsed("l2-cycle", 1.0, "an L2 cycle time in (0, 1]")?;
    if !(l2_cycle > 0.0 && l2_cycle <= 1.0) {
        return Err(CliError::Args(ArgError::BadValue {
            option: "l2-cycle".into(),
            value: l2_cycle.to_string(),
            expected: "an L2 cycle time in (0, 1]",
        }));
    }
    if args.get("l2-cycle").is_some() && !targets.l2 {
        return Err(CliError::InertOption {
            option: "l2-cycle".into(),
            requires: "the l2 fault target (e.g. --fault-targets data+l2)".into(),
        });
    }
    Ok(l2_cycle)
}

/// Parses `--persistent`, the opt-in sticky fault-site activation
/// probability. `None` when the flag is absent — the persistent
/// process then never exists and draws zero RNG. Persistent sites live
/// in the L1 data array, so asking for them with the `data` fault
/// target disabled is a typed [`CliError::InertOption`] rather than a
/// silent no-op.
fn parse_persistent(
    args: &Args,
    targets: FaultTargets,
) -> Result<Option<PersistentSiteConfig>, CliError> {
    let Some(v) = args.get("persistent") else {
        return Ok(None);
    };
    if !targets.data {
        return Err(CliError::InertOption {
            option: "persistent".into(),
            requires: "the data fault target (e.g. --fault-targets data+l2)".into(),
        });
    }
    let expected = "a per-access site-activation probability in (0, 1]";
    let p: f64 = v.parse().map_err(|_| {
        CliError::Args(ArgError::BadValue {
            option: "persistent".into(),
            value: v.into(),
            expected,
        })
    })?;
    if !(p > 0.0 && p <= 1.0) {
        return Err(CliError::Args(ArgError::BadValue {
            option: "persistent".into(),
            value: v.into(),
            expected,
        }));
    }
    Ok(Some(PersistentSiteConfig::hard(p)))
}

const SERVE_OPTIONS: &[&str] = &[
    "app",
    "cr",
    "detection",
    "strikes",
    "recovery",
    "seed",
    "quantize-off",
    "sampler",
    "fault-targets",
    "l2-cycle",
    "safe-mode",
    "persistent",
    "shards",
    "queue-depth",
    "packets",
    "flows",
    "shed-timeout-ms",
    "shed-policy",
    "flow-queue-cap",
    "rebalance",
    "rebalance-window",
    "rebalance-highwater",
    "control-flows",
    "slo-p99-us",
    "pattern",
    "inject-panic",
    "stats-interval",
    "metrics",
    "metrics-interval",
    "progress",
];

/// The `serve` subcommand: the stream-granularity engine. N supervised
/// shards behind bounded flow-hash queues eat an unbounded synthetic
/// stream; the contract is never wedge — shed under backpressure, drop
/// on fatal, restart on panic, drain and exit 0 on the first signal.
fn serve(args: &Args) -> Result<String, CliError> {
    args.expect_only(SERVE_OPTIONS)?;
    let kind = parse_app(args)?;
    let design = parse_config(args)?;

    let shards: usize = args.get_parsed("shards", 4, "a shard count of at least 1")?;
    let queue_depth: usize = args.get_parsed("queue-depth", 1024, "a queue depth of at least 1")?;
    for (option, value) in [("shards", shards), ("queue-depth", queue_depth)] {
        if value == 0 {
            return Err(CliError::Args(ArgError::BadValue {
                option: option.into(),
                value: "0".into(),
                expected: "a count of at least 1",
            }));
        }
    }
    let budget: u64 = args.get_parsed("packets", 0u64, "a packet budget (0 = unbounded)")?;
    let shed_ms: u64 =
        args.get_parsed("shed-timeout-ms", 100u64, "a shed timeout in milliseconds")?;
    let stats_interval: u32 =
        args.get_parsed("stats-interval", 256u32, "a publish interval in packets")?;

    let mut traffic = TraceConfig::paper();
    if args.get("flows").is_some() {
        let flows: usize = args.get_parsed("flows", 0, "a flow count of at least 1")?;
        if flows == 0 {
            return Err(CliError::Args(ArgError::BadValue {
                option: "flows".into(),
                value: "0".into(),
                expected: "a flow count of at least 1",
            }));
        }
        traffic.flows = flows;
    }
    if let Some(v) = args.get("pattern") {
        traffic.pattern = match v {
            "skewed" => TrafficPattern::Skewed,
            "uniform" => TrafficPattern::Uniform,
            "single-flow" => TrafficPattern::SingleFlow,
            "elephant" => TrafficPattern::Elephant,
            _ => {
                return Err(CliError::Args(ArgError::BadValue {
                    option: "pattern".into(),
                    value: v.into(),
                    expected: "skewed | uniform | single-flow | elephant",
                }))
            }
        };
    }

    let shed_policy = match args.get("shed-policy").unwrap_or("fixed") {
        "fixed" => ShedPolicy::Fixed,
        "adaptive" => ShedPolicy::Adaptive,
        v => {
            return Err(CliError::Args(ArgError::BadValue {
                option: "shed-policy".into(),
                value: v.into(),
                expected: "fixed | adaptive",
            }))
        }
    };

    let mut cfg = ServeConfig::new(kind, design)
        .with_shards(shards)
        .with_queue_depth(queue_depth)
        .with_packet_budget(budget)
        .with_shed_timeout(std::time::Duration::from_millis(shed_ms))
        .with_shed_policy(shed_policy)
        .with_traffic(traffic);
    cfg.stats_interval = stats_interval.max(1);
    if let Some(v) = args.get("flow-queue-cap") {
        let cap: usize = args.get_parsed("flow-queue-cap", 0, "a per-flow cap of at least 1")?;
        if cap == 0 {
            return Err(CliError::Args(ArgError::BadValue {
                option: "flow-queue-cap".into(),
                value: v.into(),
                expected: "a per-flow cap of at least 1",
            }));
        }
        if cap >= queue_depth {
            // A cap the queue bound already enforces can never bind.
            return Err(CliError::InertOption {
                option: "flow-queue-cap".into(),
                requires: "a --queue-depth larger than the cap".into(),
            });
        }
        cfg = cfg.with_flow_queue_cap(cap);
    }
    if args.flag("rebalance") {
        if shards < 2 {
            return Err(CliError::InertOption {
                option: "rebalance".into(),
                requires: "at least two shards (--shards 2) to divert flows between".into(),
            });
        }
        let mut rb = RebalanceConfig::default();
        if let Some(v) = args.get("rebalance-window") {
            let window: u32 =
                args.get_parsed("rebalance-window", 0u32, "a hot-observation window >= 1")?;
            if window == 0 {
                return Err(CliError::Args(ArgError::BadValue {
                    option: "rebalance-window".into(),
                    value: v.into(),
                    expected: "a hot-observation window >= 1",
                }));
            }
            rb.window = window;
        }
        if let Some(v) = args.get("rebalance-highwater") {
            let expected = "an occupancy fraction in (0, 1]";
            let frac: f64 = v.parse().map_err(|_| {
                CliError::Args(ArgError::BadValue {
                    option: "rebalance-highwater".into(),
                    value: v.into(),
                    expected,
                })
            })?;
            if !(frac > 0.0 && frac <= 1.0) {
                return Err(CliError::Args(ArgError::BadValue {
                    option: "rebalance-highwater".into(),
                    value: v.into(),
                    expected,
                }));
            }
            rb.highwater_frac = frac;
        }
        cfg = cfg.with_rebalance(rb);
    } else {
        for opt in ["rebalance-window", "rebalance-highwater"] {
            if args.get(opt).is_some() {
                return Err(CliError::InertOption {
                    option: opt.into(),
                    requires: "--rebalance to tune".into(),
                });
            }
        }
    }
    if let Some(v) = args.get("control-flows") {
        let expected = "a control-flow count in 1..flows (strictly below the flow population)";
        let n: usize = args.get_parsed("control-flows", 0, expected)?;
        if n == 0 || n >= cfg.traffic.flows {
            return Err(CliError::Args(ArgError::BadValue {
                option: "control-flows".into(),
                value: v.into(),
                expected,
            }));
        }
        cfg = cfg.with_control_flows(n);
    }
    if let Some(v) = args.get("slo-p99-us") {
        let budget: u64 = args.get_parsed("slo-p99-us", 0u64, "a p99 budget in microseconds")?;
        if budget == 0 {
            return Err(CliError::Args(ArgError::BadValue {
                option: "slo-p99-us".into(),
                value: v.into(),
                expected: "a p99 budget of at least 1 microsecond",
            }));
        }
        cfg = cfg.with_slo_p99_us(budget);
    }
    if args.get("inject-panic").is_some() {
        let id: u32 = args.get_parsed("inject-panic", 0u32, "a packet id")?;
        cfg = cfg.with_panic_on_packet(id);
    }

    let telemetry = parse_telemetry(args);
    let flusher = parse_metrics_flusher(args, telemetry.as_ref())?;
    let reporter = telemetry
        .as_ref()
        .filter(|_| args.flag("progress"))
        .map(|t| {
            ProgressReporter::start_open_ended(
                std::sync::Arc::clone(t),
                "serve",
                std::time::Duration::from_secs(2),
            )
        });

    // First signal → `interrupted()` turns true → the pump stops, every
    // queue closes, shards drain and join; a second signal aborts the
    // process (as in durable campaigns). A drained serve is a *success*
    // — unlike an interrupted campaign there is no remaining work, so
    // this path returns Ok and the process exits 0.
    interrupt::install();
    let report = run_serve(&cfg, telemetry.as_deref(), &interrupt::interrupted);
    drop(reporter);
    // Stop the flusher explicitly at drain time: its final snapshot is
    // taken after every shard has joined, so the last interval's
    // counters are never lost.
    if let Some(f) = flusher {
        f.stop();
    }
    write_metrics(args, telemetry.as_ref())?;
    let mut out = report.summary();
    if report.interrupted {
        out.push_str("signal received: drained all queues and exited cleanly\n");
    }
    Ok(out)
}

const CAMPAIGN_OPTIONS: &[&str] = &[
    "app",
    "packets",
    "trials",
    "seed",
    "jobs",
    "fault-targets",
    "l2-cycle",
    "strikes",
    "persistent",
    "deadline-ms",
    "retries",
    "csv",
    "json",
    "durable",
    "resume",
    "journal",
    "metrics",
    "metrics-interval",
    "progress",
];

/// Default journal location for `--durable`: keyed by the grid hash so
/// campaigns over different design spaces never clobber each other's
/// resume state. Lives under `CLUMSY_RESULTS` (or `./results`) next to
/// the harness CSVs.
fn default_journal_path(points: &[GridPoint]) -> std::path::PathBuf {
    let base = std::env::var("CLUMSY_RESULTS")
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|_| std::path::PathBuf::from("results"));
    base.join("journal")
        .join(format!("campaign-{:016x}.jsonl", grid_hash(points)))
}

/// One (app, scheme, Cr) cell of the campaign grid.
struct CampaignCell {
    app: &'static str,
    scheme: &'static str,
    cr: f64,
    counts: clumsy_core::OutcomeCounts,
}

fn campaign(args: &Args) -> Result<String, CliError> {
    args.expect_only(CAMPAIGN_OPTIONS)?;
    let (trace, opts) = parse_trace(args)?;
    let telemetry = parse_telemetry(args);
    let flusher = parse_metrics_flusher(args, telemetry.as_ref())?;
    let mut reporter = telemetry
        .as_ref()
        .filter(|_| args.flag("progress"))
        .map(|t| {
            ProgressReporter::start(
                std::sync::Arc::clone(t),
                "campaign",
                std::time::Duration::from_secs(2),
            )
        });
    let mut engine = parse_engine(args)?;
    if let Some(t) = &telemetry {
        engine = engine.with_telemetry(std::sync::Arc::clone(t));
    }
    let targets = parse_targets(args)?;
    let l2_cycle = parse_l2_cycle(args, targets)?;
    let persistent = parse_persistent(args, targets)?;
    // The campaign grid already sweeps the paper's strike policies;
    // `--strikes way-disable` adds the degraded scheme as a fifth row.
    let way_disable = match args.get("strikes") {
        None => false,
        Some("way-disable") => true,
        Some(other) => {
            return Err(CliError::Args(ArgError::BadValue {
                option: "strikes".into(),
                value: other.into(),
                expected: "way-disable (the grid already sweeps the paper strike policies)",
            }))
        }
    };
    let apps: Vec<AppKind> = match args.get("app") {
        None | Some("all") => AppKind::all().to_vec(),
        Some(_) => vec![parse_app(args)?],
    };
    let mut ccfg = CampaignConfig::default().with_retries(args.get_parsed(
        "retries",
        1u32,
        "a retry count",
    )?);
    if args.get("deadline-ms").is_some() {
        let ms: u64 = args.get_parsed("deadline-ms", 0, "a millisecond budget of at least 1")?;
        if ms == 0 {
            return Err(CliError::Args(ArgError::BadValue {
                option: "deadline-ms".into(),
                value: "0".into(),
                expected: "a millisecond budget of at least 1",
            }));
        }
        ccfg = ccfg.with_deadline(std::time::Duration::from_millis(ms));
    }

    // The paper's design space: every recovery scheme x static clock,
    // with the requested injection targets.
    let mut labels: Vec<(&'static str, &'static str, f64)> = Vec::new();
    let mut points: Vec<GridPoint> = Vec::new();
    let mut schemes: Vec<(&'static str, DetectionScheme, StrikePolicy, bool)> = paper_schemes()
        .into_iter()
        .map(|(scheme, detection, strikes)| (scheme, detection, strikes, false))
        .collect();
    if way_disable {
        schemes.push((
            "way-disable",
            DetectionScheme::Parity,
            StrikePolicy::two_strike(),
            true,
        ));
    }
    for app in &apps {
        for &(scheme, detection, strikes, disable) in &schemes {
            for cr in PAPER_CYCLE_TIMES {
                labels.push((app.name(), scheme, cr));
                let mut cfg = ClumsyConfig::baseline()
                    .with_detection(detection)
                    .with_strikes(strikes)
                    .with_static_cycle(cr)
                    .with_fault_targets(targets)
                    .with_l2_cycle(l2_cycle);
                if disable {
                    cfg = cfg.with_way_disable(WayDisablePolicy::default_policy());
                }
                if let Some(p) = persistent {
                    cfg = cfg.with_persistent(p);
                }
                points.push(GridPoint::new(*app, cfg));
            }
        }
    }

    let durable_requested =
        args.flag("durable") || args.flag("resume") || args.get("journal").is_some();
    let report = if durable_requested {
        interrupt::install();
        let journal = match args.get("journal") {
            Some(p) => std::path::PathBuf::from(p),
            None => default_journal_path(&points),
        };
        let mut durable = DurableOptions::new(journal.clone())
            .with_resume(args.flag("resume"))
            .with_stop(std::sync::Arc::new(interrupt::interrupted));
        if let Some(t) = &telemetry {
            durable = durable.with_telemetry(std::sync::Arc::clone(t));
        }
        let outcome = run_campaign_durable(&engine, &points, &trace, &opts, &ccfg, &durable)
            .map_err(CliError::Journal)?;
        if outcome.replayed_jobs > 0 {
            eprintln!(
                "resumed: {} of {} jobs replayed from {}",
                outcome.replayed_jobs,
                outcome.report.total_jobs,
                journal.display()
            );
        }
        if outcome.interrupted {
            // Flush the metrics even on the resumable-exit path so an
            // interrupted campaign still leaves its telemetry behind.
            drop(reporter.take());
            drop(flusher);
            write_metrics(args, telemetry.as_ref())?;
            return Err(CliError::Interrupted {
                partial: format!(
                    "{}/{}",
                    outcome.report.completed_jobs(),
                    outcome.report.total_jobs
                ),
                journal: journal.display().to_string(),
            });
        }
        // Finished: the journal has served its purpose.
        std::fs::remove_file(&journal).ok();
        outcome.report
    } else if let Some(t) = &telemetry {
        run_campaign_instrumented(&engine, &points, &trace, &opts, &ccfg, t)
    } else {
        run_campaign_on(&engine, &points, &trace, &opts, &ccfg)
    };
    drop(reporter.take());
    drop(flusher);
    write_metrics(args, telemetry.as_ref())?;
    let cells: Vec<CampaignCell> = labels
        .iter()
        .zip(&report.aggregates)
        .map(|(&(app, scheme, cr), agg)| CampaignCell {
            app,
            scheme,
            cr,
            counts: agg.outcome_counts(),
        })
        .collect();

    if let Some(path) = args.get("csv") {
        let mut csv = String::from(
            "app,cr,scheme,trials,masked,corrected,detected_recovered,detected_fatal,sdc,recovery_failed,sdc_rate\n",
        );
        for c in &cells {
            csv.push_str(&format!(
                "{},{:.2},{},{},{},{},{},{},{},{},{:.6}\n",
                c.app,
                c.cr,
                c.scheme,
                c.counts.total(),
                c.counts.masked,
                c.counts.corrected,
                c.counts.detected_recovered,
                c.counts.detected_fatal,
                c.counts.sdc,
                c.counts.recovery_failed,
                c.counts.sdc_rate()
            ));
        }
        clumsy_core::atomic_write(std::path::Path::new(path), csv.as_bytes()).map_err(
            |source| CliError::Io {
                path: path.to_string(),
                source,
            },
        )?;
    }

    if args.flag("json") {
        let cell_items = cells.iter().map(|c| {
            let mut o = JsonObject::new();
            o.string("app", c.app)
                .string("scheme", c.scheme)
                .number("cr", c.cr)
                .integer("trials", c.counts.total())
                .integer("masked", c.counts.masked)
                .integer("corrected", c.counts.corrected)
                .integer("detected_recovered", c.counts.detected_recovered)
                .integer("detected_fatal", c.counts.detected_fatal)
                .integer("sdc", c.counts.sdc)
                .integer("recovery_failed", c.counts.recovery_failed)
                .number("sdc_rate", c.counts.sdc_rate());
            o.finish()
        });
        let failure_items = report.failures.iter().map(|f| {
            let mut o = JsonObject::new();
            o.integer("point", f.point as u64)
                .integer("trial", u64::from(f.trial))
                .integer("attempts", u64::from(f.attempts))
                .string("failure", &f.failure.to_string());
            o.finish()
        });
        let mut o = JsonObject::new();
        o.string("fault_targets", &targets.to_string())
            .integer("total_jobs", report.total_jobs as u64)
            .integer("completed_jobs", report.completed_jobs() as u64)
            .raw("cells", &array(cell_items))
            .raw("failures", &array(failure_items));
        return Ok(o.finish());
    }

    let mut out = format!(
        "fault-outcome campaign (targets {targets}, {} trials/cell, {}/{} jobs done)\n",
        opts.trials,
        report.completed_jobs(),
        report.total_jobs
    );
    out.push_str(&format!(
        "{:>6} {:>13} {:>6} {:>7} {:>5} {:>7} {:>7} {:>5} {:>8} {:>9}\n",
        "app", "scheme", "Cr", "masked", "corr", "recov", "fatal", "sdc", "rec_fail", "sdc_rate"
    ));
    for c in &cells {
        out.push_str(&format!(
            "{:>6} {:>13} {:>6.2} {:>7} {:>5} {:>7} {:>7} {:>5} {:>8} {:>9.4}\n",
            c.app,
            c.scheme,
            c.cr,
            c.counts.masked,
            c.counts.corrected,
            c.counts.detected_recovered,
            c.counts.detected_fatal,
            c.counts.sdc,
            c.counts.recovery_failed,
            c.counts.sdc_rate()
        ));
    }
    if report.is_complete() {
        out.push_str("failures: none\n");
    } else {
        out.push_str("failures:\n");
        for f in &report.failures {
            let (app, scheme, cr) = labels[f.point];
            out.push_str(&format!("  {app}/{scheme}/Cr={cr:.2}: {f}\n"));
        }
    }
    Ok(out)
}

fn sweep(args: &Args) -> Result<String, CliError> {
    args.expect_only(&["app", "packets", "trials", "seed", "json"])?;
    let kind = parse_app(args)?;
    let (trace, opts) = parse_trace(args)?;
    let metric = EdfMetric::paper();
    let baseline = run_config_on_trace(kind, &ClumsyConfig::baseline(), &trace, &opts);
    let base = baseline.edf(&metric);

    let schemes: [(&str, DetectionScheme, StrikePolicy); 4] = [
        ("none", DetectionScheme::None, StrikePolicy::one_strike()),
        (
            "1-strike",
            DetectionScheme::Parity,
            StrikePolicy::one_strike(),
        ),
        (
            "2-strike",
            DetectionScheme::Parity,
            StrikePolicy::two_strike(),
        ),
        (
            "3-strike",
            DetectionScheme::Parity,
            StrikePolicy::three_strike(),
        ),
    ];
    let mut cells = Vec::new();
    for (label, det, strikes) in schemes {
        for cr in PAPER_CYCLE_TIMES {
            let cfg = ClumsyConfig::baseline()
                .with_detection(det)
                .with_strikes(strikes)
                .with_static_cycle(cr);
            let rel = run_config_on_trace(kind, &cfg, &trace, &opts).edf(&metric) / base;
            cells.push((label, cr, rel));
        }
    }

    if args.flag("json") {
        let items = cells.iter().map(|(s, cr, rel)| {
            let mut o = JsonObject::new();
            o.string("scheme", s)
                .number("cr", *cr)
                .number("relative_edf2", *rel);
            o.finish()
        });
        let mut o = JsonObject::new();
        o.string("app", kind.name()).raw("cells", &array(items));
        return Ok(o.finish());
    }

    let mut out = format!("design space for {kind} (relative EDF^2)\n{:>10}", "scheme");
    for cr in PAPER_CYCLE_TIMES {
        out.push_str(&format!("{:>9}", format!("Cr={cr}")));
    }
    out.push('\n');
    let mut best: (f64, String) = (f64::INFINITY, String::new());
    for (label, _, _) in schemes {
        out.push_str(&format!("{label:>10}"));
        for &(s, cr, rel) in cells.iter().filter(|(s, ..)| *s == label) {
            out.push_str(&format!("{rel:>9.3}"));
            if rel < best.0 {
                best = (rel, format!("{s} @ Cr={cr}"));
            }
        }
        out.push('\n');
    }
    out.push_str(&format!("optimum: {} ({:.3})\n", best.1, best.0));
    Ok(out)
}

fn trace_info(args: &Args) -> Result<String, CliError> {
    args.expect_only(&["packets", "seed", "json"])?;
    let (trace, _) = parse_trace(args)?;
    if args.flag("json") {
        let mut o = JsonObject::new();
        o.integer("packets", trace.packets.len() as u64)
            .integer("prefixes", trace.prefixes.len() as u64)
            .integer("urls", trace.urls.len() as u64)
            .integer("flows", trace.flow_count as u64);
        return Ok(o.finish());
    }
    let mut out = format!("{trace}\nfirst packets:\n");
    for p in trace.packets.iter().take(5) {
        out.push_str(&format!("  {p}\n"));
    }
    Ok(out)
}

fn model(args: &Args) -> Result<String, CliError> {
    args.expect_only(&["beta", "json"])?;
    let beta: f64 = args.get_parsed(
        "beta",
        fault_model::CALIBRATED_BETA,
        "a non-negative exponent",
    )?;
    if !(beta >= 0.0 && beta.is_finite()) {
        return Err(CliError::Args(ArgError::BadValue {
            option: "beta".into(),
            value: beta.to_string(),
            expected: "a non-negative exponent",
        }));
    }
    let m = FaultProbabilityModel::with_beta(beta);
    let swing = VoltageSwingCurve::paper();
    if args.flag("json") {
        let items = PAPER_CYCLE_TIMES.iter().map(|&cr| {
            let mut o = JsonObject::new();
            o.number("cr", cr)
                .number("voltage_swing", swing.relative_swing(cr))
                .number("per_bit_fault_probability", m.per_bit_at_cycle(cr));
            o.finish()
        });
        let mut o = JsonObject::new();
        o.number("beta", beta).raw("points", &array(items));
        return Ok(o.finish());
    }
    let mut out = format!("{m}\n{:>6} {:>8} {:>14}\n", "Cr", "Vsr", "P_E/bit");
    for cr in PAPER_CYCLE_TIMES {
        out.push_str(&format!(
            "{cr:>6.2} {:>8.3} {:>14.3e}\n",
            swing.relative_swing(cr),
            m.per_bit_at_cycle(cr)
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dispatch_line(line: &[&str]) -> Result<String, CliError> {
        let args = Args::parse(line.iter().map(|s| s.to_string())).unwrap();
        dispatch(&args)
    }

    #[test]
    fn help_lists_commands() {
        let h = dispatch_line(&["help"]).unwrap();
        for cmd in ["run", "sweep", "trace", "model", "apps"] {
            assert!(h.contains(cmd), "missing {cmd}");
        }
    }

    #[test]
    fn apps_lists_the_table_1_set() {
        let a = dispatch_line(&["apps"]).unwrap();
        for name in ["crc", "tl", "route", "drr", "nat", "md5", "url", "adpcm"] {
            assert!(a.contains(name));
        }
    }

    #[test]
    fn unknown_command_errors() {
        assert!(matches!(
            dispatch_line(&["frobnicate"]),
            Err(CliError::UnknownCommand(_))
        ));
    }

    #[test]
    fn model_prints_paper_operating_points() {
        let out = dispatch_line(&["model"]).unwrap();
        assert!(out.contains("0.25"));
        assert!(out.contains("2.590e-7") || out.contains("2.59e-7"));
    }

    #[test]
    fn model_json_is_parsable_shape() {
        let out = dispatch_line(&["model", "--json"]).unwrap();
        assert!(out.starts_with('{') && out.ends_with('}'));
        assert!(out.contains("\"points\":["));
    }

    #[test]
    fn trace_summary_mentions_counts() {
        let out = dispatch_line(&["trace", "--packets", "10"]).unwrap();
        assert!(out.contains("10 packets"));
    }

    #[test]
    fn run_small_config_works() {
        let out = dispatch_line(&[
            "run",
            "--app",
            "tl",
            "--packets",
            "50",
            "--cr",
            "0.5",
            "--detection",
            "parity",
        ])
        .unwrap();
        assert!(out.contains("tl"));
        assert!(out.contains("relative EDF^2"));
    }

    #[test]
    fn run_json_contains_metrics() {
        let out = dispatch_line(&["run", "--app", "crc", "--packets", "30", "--json"]).unwrap();
        assert!(out.contains("\"fallibility\":"));
        assert!(out.contains("\"packets_completed\":30"));
    }

    #[test]
    fn run_accepts_ecc_detection() {
        let out = dispatch_line(&[
            "run",
            "--app",
            "crc",
            "--packets",
            "30",
            "--detection",
            "ecc",
        ])
        .unwrap();
        assert!(out.contains("ecc/"), "config label should show ecc: {out}");
    }

    #[test]
    fn run_rejects_bad_detection_listing_accepted_values() {
        let err = dispatch_line(&["run", "--detection", "hamming"]).unwrap_err();
        let msg = format!("{err}");
        assert!(
            msg.contains("none | parity | byte-parity | ecc"),
            "unknown-variant error must list accepted values: {msg}"
        );
    }

    #[test]
    fn run_parses_fault_target_combinations() {
        let out = dispatch_line(&[
            "run",
            "--app",
            "crc",
            "--packets",
            "30",
            "--fault-targets",
            "data+l2",
            "--l2-cycle",
            "0.5",
        ])
        .unwrap();
        assert!(out.contains("relative EDF^2"));
        let err = dispatch_line(&["run", "--fault-targets", "data+ll2"]).unwrap_err();
        let msg = format!("{err}");
        assert!(
            msg.contains("data/tag/parity/l2"),
            "unknown-target error must list accepted values: {msg}"
        );
        assert!(dispatch_line(&["run", "--l2-cycle", "0"]).is_err());
    }

    #[test]
    fn safe_mode_requires_the_dynamic_plan() {
        let err = dispatch_line(&["run", "--safe-mode", "--cr", "0.5"]).unwrap_err();
        assert!(format!("{err}").contains("--cr dynamic"), "{err}");
        let out = dispatch_line(&[
            "run",
            "--app",
            "tl",
            "--packets",
            "120",
            "--cr",
            "dynamic",
            "--safe-mode",
        ])
        .unwrap();
        assert!(out.contains("dynamic"));
    }

    #[test]
    fn run_accepts_way_disable_strikes_and_persistent_sites() {
        let out = dispatch_line(&[
            "run",
            "--app",
            "crc",
            "--packets",
            "30",
            "--detection",
            "parity",
            "--strikes",
            "way-disable",
            "--persistent",
            "0.01",
        ])
        .unwrap();
        assert!(
            out.contains("way-disable"),
            "config label should show the degraded scheme: {out}"
        );
        assert!(dispatch_line(&["run", "--strikes", "way-fix"]).is_err());
        assert!(dispatch_line(&["run", "--persistent", "1.5"]).is_err());
        assert!(dispatch_line(&["run", "--persistent", "0"]).is_err());
    }

    #[test]
    fn an_inert_l2_cycle_is_a_typed_error() {
        let err = dispatch_line(&["run", "--l2-cycle", "0.5"]).unwrap_err();
        assert!(
            matches!(err, CliError::InertOption { .. }),
            "expected InertOption, got {err:?}"
        );
        assert!(format!("{err}").contains("l2 fault target"), "{err}");
        let err = dispatch_line(&["campaign", "--l2-cycle", "0.5"]).unwrap_err();
        assert!(matches!(err, CliError::InertOption { .. }), "{err:?}");
    }

    #[test]
    fn an_inert_persistent_is_a_typed_error() {
        // Persistent sites live in the L1 data array: with the data
        // target off, the process could never fire, so asking for it
        // is a typed error in every command that accepts the flag.
        for cmd in ["run", "campaign", "serve"] {
            let err =
                dispatch_line(&[cmd, "--persistent", "0.01", "--fault-targets", "l2"]).unwrap_err();
            assert!(
                matches!(err, CliError::InertOption { .. }),
                "{cmd}: expected InertOption, got {err:?}"
            );
            assert!(format!("{err}").contains("data fault target"), "{err}");
        }
        // With the data target on (explicitly or via default/all), the
        // flag is accepted.
        assert!(dispatch_line(&[
            "run",
            "--app",
            "crc",
            "--packets",
            "20",
            "--persistent",
            "0.01",
            "--fault-targets",
            "data+l2",
        ])
        .is_ok());
    }

    #[test]
    fn an_inert_metrics_interval_is_a_typed_error() {
        for cmd in ["campaign", "serve"] {
            let err = dispatch_line(&[cmd, "--metrics-interval", "5"]).unwrap_err();
            assert!(
                matches!(err, CliError::InertOption { .. }),
                "{cmd}: expected InertOption, got {err:?}"
            );
            assert!(format!("{err}").contains("--metrics"), "{err}");
        }
        // Zero and garbage intervals are plain argument errors.
        assert!(
            dispatch_line(&["campaign", "--metrics", "m.json", "--metrics-interval", "0"]).is_err()
        );
        assert!(dispatch_line(&[
            "campaign",
            "--metrics",
            "m.json",
            "--metrics-interval",
            "soon"
        ])
        .is_err());
    }

    #[test]
    fn campaign_way_disable_adds_the_fifth_scheme_row() {
        let out = dispatch_line(&[
            "campaign",
            "--app",
            "crc",
            "--packets",
            "40",
            "--strikes",
            "way-disable",
            "--persistent",
            "0.001",
        ])
        .unwrap();
        assert!(out.contains("way-disable"), "{out}");
        // 5 schemes x 4 clocks for one app.
        assert_eq!(out.lines().filter(|l| l.contains("crc")).count(), 20);
        assert!(dispatch_line(&["campaign", "--strikes", "3"]).is_err());
    }

    #[test]
    fn help_pins_the_recovery_flags() {
        let h = help_text();
        for needle in [
            "none | parity | byte-parity | ecc",
            "--fault-targets <t>   '+'-joined subset of data/tag/parity/l2, or all",
            "--l2-cycle <0..1>",
            "--safe-mode",
            "way-disable",
            "--persistent <p>",
        ] {
            assert!(h.contains(needle), "help lost {needle:?}");
        }
    }

    #[test]
    fn help_pins_the_serve_surface() {
        let h = help_text();
        for needle in [
            "serve    supervised, sharded packet service",
            "--shards <n>",
            "--queue-depth <n>",
            "--shed-timeout-ms <n>",
            "--shed-policy <p>",
            "--flow-queue-cap <n>",
            "--rebalance",
            "--pattern <m>",
            "--inject-panic <id>",
            "--metrics-interval <s>",
            "drains and exits 0",
        ] {
            assert!(h.contains(needle), "help lost {needle:?}");
        }
    }

    #[test]
    fn serve_rejects_zero_shards_and_zero_depth() {
        assert!(dispatch_line(&["serve", "--shards", "0"]).is_err());
        assert!(dispatch_line(&["serve", "--queue-depth", "0"]).is_err());
        assert!(dispatch_line(&["serve", "--flows", "0"]).is_err());
    }

    #[test]
    fn serve_rejects_bad_overload_values() {
        assert!(dispatch_line(&["serve", "--shed-policy", "psychic"]).is_err());
        assert!(dispatch_line(&["serve", "--pattern", "bursty"]).is_err());
        assert!(dispatch_line(&["serve", "--flow-queue-cap", "0"]).is_err());
    }

    #[test]
    fn an_unbindable_flow_cap_is_a_typed_error() {
        // A per-flow cap at or above the queue depth can never bind:
        // the queue bound itself already sheds first.
        for cap in ["64", "100"] {
            let err = dispatch_line(&["serve", "--queue-depth", "64", "--flow-queue-cap", cap])
                .unwrap_err();
            assert!(
                matches!(err, CliError::InertOption { .. }),
                "cap {cap}: expected InertOption, got {err:?}"
            );
            assert!(format!("{err}").contains("--queue-depth"), "{err}");
        }
    }

    #[test]
    fn rebalance_with_one_shard_is_a_typed_error() {
        let err = dispatch_line(&["serve", "--shards", "1", "--rebalance"]).unwrap_err();
        assert!(
            matches!(err, CliError::InertOption { .. }),
            "expected InertOption, got {err:?}"
        );
        assert!(format!("{err}").contains("two shards"), "{err}");
    }

    #[test]
    fn serve_accepts_the_overload_surface() {
        let out = dispatch_line(&[
            "serve",
            "--app",
            "crc",
            "--packets",
            "120",
            "--shards",
            "2",
            "--queue-depth",
            "32",
            "--flow-queue-cap",
            "8",
            "--shed-policy",
            "adaptive",
            "--rebalance",
            "--pattern",
            "elephant",
        ])
        .unwrap();
        assert!(out.contains("accounting ok"), "{out}");
        assert!(out.contains("overload: shed_flow_cap="), "{out}");
        assert!(out.contains("flow shed: elephant="), "{out}");
    }

    #[test]
    fn serve_rejects_bad_class_and_slo_values() {
        // 0 and flow-population-or-above control counts are typed
        // BadValue errors, as is a zero SLO budget.
        assert!(dispatch_line(&["serve", "--control-flows", "0"]).is_err());
        let err = dispatch_line(&["serve", "--flows", "8", "--control-flows", "8"]).unwrap_err();
        assert!(matches!(err, CliError::Args(_)), "{err:?}");
        assert!(dispatch_line(&["serve", "--flows", "8", "--control-flows", "9"]).is_err());
        assert!(dispatch_line(&["serve", "--slo-p99-us", "0"]).is_err());
        assert!(dispatch_line(&["serve", "--slo-p99-us", "soon"]).is_err());
    }

    #[test]
    fn rebalance_tuning_without_rebalance_is_a_typed_error() {
        for opt in ["--rebalance-window", "--rebalance-highwater"] {
            let err = dispatch_line(&["serve", "--shards", "2", opt, "1"]).unwrap_err();
            assert!(
                matches!(err, CliError::InertOption { .. }),
                "{opt}: expected InertOption, got {err:?}"
            );
            assert!(format!("{err}").contains("--rebalance"), "{err}");
        }
    }

    #[test]
    fn serve_rejects_bad_rebalance_tuning_values() {
        let base = &["serve", "--shards", "2", "--rebalance"][..];
        assert!(dispatch_line(&[base, &["--rebalance-window", "0"][..]].concat()).is_err());
        assert!(dispatch_line(&[base, &["--rebalance-highwater", "0"][..]].concat()).is_err());
        assert!(dispatch_line(&[base, &["--rebalance-highwater", "1.5"][..]].concat()).is_err());
        assert!(dispatch_line(&[base, &["--rebalance-highwater", "hot"][..]].concat()).is_err());
    }

    #[test]
    fn serve_accepts_the_class_surface() {
        let out = dispatch_line(&[
            "serve",
            "--app",
            "crc",
            "--packets",
            "200",
            "--shards",
            "2",
            "--queue-depth",
            "16",
            "--flows",
            "16",
            "--pattern",
            "elephant",
            "--flow-queue-cap",
            "3",
            "--control-flows",
            "4",
            "--slo-p99-us",
            "1",
            "--rebalance",
            "--rebalance-window",
            "8",
            "--rebalance-highwater",
            "0.75",
        ])
        .unwrap();
        assert!(out.contains("accounting ok"), "{out}");
        assert!(out.contains("class: control_offered="), "{out}");
        assert!(out.contains("control_shed=0"), "{out}");
        assert!(out.contains("slo: budget_us=1"), "{out}");
    }

    #[test]
    fn help_pins_the_class_flags() {
        let h = help_text();
        for needle in [
            "--control-flows <n>",
            "--slo-p99-us <n>",
            "--rebalance-window <n>",
            "--rebalance-highwater <f>",
        ] {
            assert!(h.contains(needle), "help lost {needle:?}");
        }
    }

    #[test]
    fn run_accepts_skip_ahead_sampler_and_rejects_unknown() {
        let out = dispatch_line(&[
            "run",
            "--app",
            "crc",
            "--packets",
            "30",
            "--sampler",
            "skip-ahead",
        ])
        .unwrap();
        assert!(out.contains("relative EDF^2"));
        assert!(dispatch_line(&["run", "--sampler", "uniform"]).is_err());
    }

    #[test]
    fn run_rejects_out_of_range_cr() {
        assert!(dispatch_line(&["run", "--cr", "1.5"]).is_err());
        assert!(dispatch_line(&["run", "--cr", "0"]).is_err());
    }

    #[test]
    fn run_accepts_dynamic_plan() {
        let out =
            dispatch_line(&["run", "--app", "tl", "--packets", "120", "--cr", "dynamic"]).unwrap();
        assert!(out.contains("dynamic"));
    }

    #[test]
    fn repro_table1_lists_all_apps() {
        let out = dispatch_line(&["repro", "--experiment", "table1", "--packets", "60"]).unwrap();
        for app in ["crc", "md5", "url"] {
            assert!(out.contains(app), "missing {app} in {out}");
        }
    }

    #[test]
    fn repro_rejects_unknown_experiment() {
        assert!(dispatch_line(&["repro", "--experiment", "fig99"]).is_err());
    }

    #[test]
    fn repro_jobs_matches_serial_output() {
        let base = &["repro", "--experiment", "table1", "--packets", "40"];
        let serial = dispatch_line(&[base, &["--jobs", "1"][..]].concat()).unwrap();
        let parallel = dispatch_line(&[base, &["--jobs", "3"][..]].concat()).unwrap();
        assert_eq!(serial, parallel);
    }

    #[test]
    fn repro_rejects_zero_jobs() {
        assert!(dispatch_line(&["repro", "--jobs", "0"]).is_err());
        assert!(dispatch_line(&["repro", "--jobs", "many"]).is_err());
    }

    #[test]
    fn campaign_emits_all_six_outcome_columns() {
        let out = dispatch_line(&[
            "campaign",
            "--app",
            "crc",
            "--packets",
            "40",
            "--trials",
            "1",
        ])
        .unwrap();
        for col in [
            "masked", "corr", "recov", "fatal", "sdc", "rec_fail", "sdc_rate",
        ] {
            assert!(out.contains(col), "missing column {col}:\n{out}");
        }
        // 4 schemes x 4 clocks for one app.
        assert_eq!(out.lines().filter(|l| l.contains("crc")).count(), 16);
        assert!(out.contains("failures: none"));
    }

    #[test]
    fn campaign_json_lists_cells_and_failures() {
        let out =
            dispatch_line(&["campaign", "--app", "crc", "--packets", "30", "--json"]).unwrap();
        assert!(out.starts_with('{') && out.ends_with('}'));
        assert!(out.contains("\"cells\":["));
        assert!(out.contains("\"failures\":[]"));
        assert!(out.contains("\"scheme\":\"no detection\""));
        assert!(out.contains("\"fault_targets\":"));
    }

    #[test]
    fn campaign_accepts_extended_fault_targets() {
        let out = dispatch_line(&[
            "campaign",
            "--app",
            "crc",
            "--packets",
            "30",
            "--fault-targets",
            "all",
        ])
        .unwrap();
        assert!(out.contains("data+tag+parity"));
        assert!(dispatch_line(&["campaign", "--fault-targets", "ecc"]).is_err());
        let degraded = dispatch_line(&[
            "campaign",
            "--app",
            "crc",
            "--packets",
            "30",
            "--fault-targets",
            "data+l2",
            "--l2-cycle",
            "0.5",
        ])
        .unwrap();
        assert!(degraded.contains("data+l2"));
        assert!(dispatch_line(&["campaign", "--l2-cycle", "1.5"]).is_err());
    }

    #[test]
    fn campaign_csv_write_failure_is_a_nonzero_io_error() {
        let r = dispatch_line(&[
            "campaign",
            "--app",
            "crc",
            "--packets",
            "30",
            "--csv",
            "/nonexistent-dir-for-sure/out.csv",
        ]);
        assert!(matches!(r, Err(CliError::Io { .. })), "got {r:?}");
    }

    #[test]
    fn campaign_durable_interrupt_then_mismatched_resume_is_refused() {
        let dir = std::env::temp_dir().join(format!("clumsy-cli-durable-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("campaign.jsonl");
        let jpath = journal.to_str().unwrap();
        let base = &["campaign", "--app", "crc", "--packets", "30"];
        // Interrupt before any job launches: zero jobs run, the journal
        // stays behind, and the error carries resume context.
        interrupt::set_interrupted(true);
        let r = dispatch_line(&[base, &["--durable", "--journal", jpath][..]].concat());
        interrupt::set_interrupted(false);
        match &r {
            Err(CliError::Interrupted { journal: j, .. }) => assert!(j.contains("campaign.jsonl")),
            other => panic!("expected an interrupt, got {other:?}"),
        }
        assert!(journal.exists(), "interrupt must leave the journal");
        // Resuming at a different seed must refuse, naming the field.
        let r =
            dispatch_line(&[base, &["--seed", "7", "--resume", "--journal", jpath][..]].concat());
        match r {
            Err(CliError::Journal(JournalError::HeaderMismatch { field, .. })) => {
                assert_eq!(field, "seed");
            }
            other => panic!("expected a header mismatch, got {other:?}"),
        }
        assert!(
            journal.exists(),
            "a refused resume must not destroy the journal"
        );
        // Resuming unchanged finishes the run and retires the journal.
        let done = dispatch_line(&[base, &["--resume", "--journal", jpath][..]].concat()).unwrap();
        assert!(done.contains("failures: none"), "{done}");
        assert!(!journal.exists(), "a completed run removes its journal");
        let clean = dispatch_line(base).unwrap();
        assert_eq!(
            done, clean,
            "resumed output must match an uninterrupted run"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn campaign_rejects_zero_deadline() {
        assert!(dispatch_line(&["campaign", "--deadline-ms", "0"]).is_err());
    }

    #[test]
    fn sweep_reports_an_optimum() {
        let out = dispatch_line(&["sweep", "--app", "tl", "--packets", "60"]).unwrap();
        assert!(out.contains("optimum:"));
    }

    #[test]
    fn unknown_option_is_rejected_per_command() {
        assert!(dispatch_line(&["trace", "--app", "tl"]).is_err());
    }
}
