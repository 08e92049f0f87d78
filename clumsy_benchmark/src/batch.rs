//! The batch workloads: the closed EDF² grid (`grid`) and the slow-path
//! fault campaign (`campaign-slowpath`).

use crate::stats::{median, quantile, Log2Histogram};
use crate::trace::Spans;
use crate::{digest_of, repeat, Opts, Outcome, Repetition, OUT_DIR};
use cache_sim::{DetectionScheme, FaultTargets, MemStats, StrikePolicy, WayDisablePolicy};
use clumsy_core::experiment::{
    edf_panels_on, paper_schemes, Aggregate, EdfBar, ExperimentOptions, GridPoint,
};
use clumsy_core::{
    golden_for, run_campaign_durable, run_isolated_jobs, CampaignConfig, ClumsyConfig,
    ClumsyProcessor, DurableOptions, DynamicConfig, Engine, RunReport, Telemetry,
    PAPER_CYCLE_TIMES,
};
use energy_model::EdfMetric;
use fault_model::PersistentSiteConfig;
use netbench::{AppKind, Trace, TraceConfig};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Engine workers: fixed rather than derived from the host, so every
/// host runs identical workloads (and the reference host has 2 cores).
const WORKERS: usize = 2;

/// Empty-job dispatches timed per traced run; the median counts.
const DISPATCHES: usize = 5;

/// One batch workload: a grid of design points over one trace.
struct Spec {
    points: Vec<GridPoint>,
    opts: ExperimentOptions,
}

impl Spec {
    fn apps() -> [AppKind; 7] {
        AppKind::all()
    }

    fn jobs(&self) -> usize {
        self.points.len() * self.opts.trials as usize
    }

    fn packets_per_job(&self) -> usize {
        self.opts.trace.packets
    }

    fn packets(&self) -> f64 {
        (self.jobs() * self.packets_per_job()) as f64
    }
}

fn options(o: &Opts, packets: usize, trials: u32) -> ExperimentOptions {
    ExperimentOptions {
        trace: TraceConfig::paper()
            .with_packets(packets)
            .with_seed(o.trace_seed()),
        trials,
        seed: o.fault_seed(),
    }
}

/// The Figures 9–12 plan `edf_panels_on` runs per application: the
/// normalisation baseline, then every recovery scheme at each static
/// clock and under the dynamic plan. Returns the points of every app and
/// the (scheme, clock) label of each bar.
fn edf_plan() -> (Vec<GridPoint>, Vec<(&'static str, String)>) {
    let mut plan = vec![("baseline", "1.00".to_string(), ClumsyConfig::baseline())];
    for (label, detection, strikes) in paper_schemes() {
        let cfg0 = ClumsyConfig::baseline()
            .with_detection(detection)
            .with_strikes(strikes);
        for cr in PAPER_CYCLE_TIMES {
            plan.push((
                label,
                format!("{cr:.2}"),
                cfg0.clone().with_static_cycle(cr),
            ));
        }
        plan.push((
            label,
            "dynamic".to_string(),
            cfg0.with_dynamic(DynamicConfig::paper()),
        ));
    }
    let points = Spec::apps()
        .iter()
        .flat_map(|k| plan.iter().map(|(_, _, c)| GridPoint::new(*k, c.clone())))
        .collect();
    let labels = plan[1..].iter().map(|(s, f, _)| (*s, f.clone())).collect();
    (points, labels)
}

/// Every access on the slow path: SECDED on the L1, faults in the data
/// and L2 arrays with the L2 at half cycle time, hard persistent sites
/// escalating to way-disable, and the watchdog — 7 apps × 4 static
/// clocks × {one, two, three}-strike.
fn slowpath_points() -> Vec<GridPoint> {
    let targets = FaultTargets {
        data: true,
        tag: false,
        parity: false,
        l2: true,
    };
    let mut points = Vec::new();
    for app in Spec::apps() {
        for cr in PAPER_CYCLE_TIMES {
            for strikes in [
                StrikePolicy::one_strike(),
                StrikePolicy::two_strike(),
                StrikePolicy::three_strike(),
            ] {
                let cfg = ClumsyConfig::baseline()
                    .with_detection(DetectionScheme::Secded)
                    .with_strikes(strikes)
                    .with_static_cycle(cr)
                    .with_fault_targets(targets)
                    .with_l2_cycle(0.5)
                    .with_persistent(PersistentSiteConfig::hard(1e-6))
                    .with_way_disable(WayDisablePolicy::default_policy())
                    .with_watchdog();
                points.push(GridPoint::new(app, cfg));
            }
        }
    }
    points
}

/// The set-up a batch run pays before its first job: trace generation
/// and the golden pass of every application, which `golden_for`
/// memoizes. Returns the trace and the generation time in seconds.
fn set_up(spec: &Spec, engine: &Engine, spans: Option<&mut Spans>) -> (Trace, f64) {
    let start = Instant::now();
    let trace = spec.opts.trace.generate();
    let generated = Instant::now();
    let goldens = engine.map(&Spec::apps(), |k| {
        let t = Instant::now();
        golden_for(*k, &trace);
        (t, Instant::now())
    });
    if let Some(s) = spans {
        let id = s.open("setup", start, None);
        s.record("netbench.generate", start, generated, Some(id));
        for (t0, t1) in goldens {
            s.record("engine.golden_for", t0, t1, Some(id));
        }
        s.close(id, Instant::now());
    }
    (trace, (generated - start).as_secs_f64())
}

/// Summed seconds of one uncached golden pass per application. (The
/// set-up's `golden_for` calls are memo hits when an earlier workload in
/// the same process warmed the same trace.)
fn golden_time(engine: &Engine, trace: &Trace, spans: &mut Spans) -> f64 {
    let times = engine.map(&Spec::apps(), |k| {
        let t = Instant::now();
        black_box(ClumsyProcessor::golden(*k, trace));
        (t, Instant::now())
    });
    times
        .into_iter()
        .map(|(t0, t1)| {
            spans.record("processor.golden", t0, t1, None);
            (t1 - t0).as_secs_f64()
        })
        .sum()
}

/// Seconds one cold set-up of `grid` (or, with `campaign`, of
/// `campaign-slowpath`) takes in a fresh process.
pub fn setup_s(o: &Opts, campaign: bool) -> f64 {
    let spec = if campaign {
        campaign_spec(o)
    } else {
        grid_spec(o).0
    };
    let start = Instant::now();
    set_up(&spec, &Engine::with_jobs(WORKERS), None);
    start.elapsed().as_secs_f64()
}

fn grid_spec(o: &Opts) -> (Spec, Vec<(&'static str, String)>) {
    let (points, labels) = edf_plan();
    let (packets, trials) = if o.smoke { (40, 2) } else { (2_000, 3) };
    let spec = Spec {
        points,
        opts: options(o, packets, trials),
    };
    (spec, labels)
}

fn campaign_spec(o: &Opts) -> Spec {
    let (packets, trials) = if o.smoke { (30, 3) } else { (2_000, 3) };
    Spec {
        points: slowpath_points(),
        opts: options(o, packets, trials),
    }
}

/// One timed repetition of a batch workload.
#[derive(Debug, Default)]
struct Rep {
    wall: f64,
    /// Job time summed over both workers, in seconds.
    busy: f64,
    latency: Log2Histogram,
    /// Exact job times in µs, when the benchmark timed each job itself.
    job_us: Vec<f64>,
    /// Measured-pass statistics summed over the repetition's jobs.
    stats: MemStats,
    failed: u64,
    retried: u64,
    fsyncs: u64,
    fsync_s: f64,
    digest: u64,
}

/// Sums the memory counters the per-layer metrics read.
fn stats_of<'a>(runs: impl Iterator<Item = &'a RunReport>) -> MemStats {
    let mut s = MemStats::default();
    for r in runs {
        let t = &r.stats;
        s.reads += t.reads;
        s.writes += t.writes;
        s.faults_injected += t.faults_injected;
        s.strike_retries += t.strike_retries;
        s.slow_path_accesses += t.slow_path_accesses;
        s.fast_forward_accesses += t.fast_forward_accesses;
    }
    s
}

fn job_histogram(tel: &Telemetry) -> Log2Histogram {
    let s = tel.snapshot();
    Log2Histogram::from_floors(&s.job_us_buckets, s.job_us_max, s.job_us_total)
}

/// Repeats `rep` for the run's seconds — untraced, then with `--trace`
/// as long again under spans — and folds the untraced repetitions into
/// the end-to-end results. Returns (untraced, traced) repetitions.
fn measure(
    o: &Opts,
    spec: &Spec,
    out: &mut Outcome,
    spans: Option<&mut Spans>,
    min_reps: usize,
    mut rep: impl FnMut(Option<&mut Spans>) -> Rep,
) -> (Vec<Rep>, Vec<Rep>) {
    let seconds = if o.trace { o.seconds / 2.0 } else { o.seconds };
    let untraced = repeat(seconds, min_reps, |_| rep(None));
    let traced = match spans {
        Some(s) => repeat(seconds, min_reps, |_| rep(Some(&mut *s))),
        None => Vec::new(),
    };
    for r in untraced.iter().chain(&traced) {
        out.attempted += spec.jobs() as u64;
        out.failed += r.failed;
    }
    out.e2e.reps = untraced
        .iter()
        .map(|r| {
            let pkt_per_s = spec.packets() / r.wall;
            if r.job_us.is_empty() {
                Repetition::from_histogram(pkt_per_s, &r.latency)
            } else {
                Repetition {
                    pkt_per_s,
                    p50_us: quantile(&r.job_us, 0.50),
                    p95_us: quantile(&r.job_us, 0.95),
                    requests: r.job_us.len() as u64,
                }
            }
        })
        .collect();
    out.digest = untraced[0].digest;
    let digests: Vec<u64> = untraced.iter().chain(&traced).map(|r| r.digest).collect();
    out.check(digests.iter().all(|d| *d == digests[0]), || {
        format!("repetitions disagree: {digests:x?}")
    });
    (untraced, traced)
}

/// Times `f` [`DISPATCHES`] times under spans named `name`; returns the
/// median in seconds.
fn dispatch_time(spans: &mut Spans, name: &'static str, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..DISPATCHES)
        .map(|_| {
            let start = Instant::now();
            f();
            let end = Instant::now();
            spans.record(name, start, end, None);
            (end - start).as_secs_f64()
        })
        .collect();
    median(&times).unwrap_or(0.0)
}

/// The per-layer results of a traced batch run: `gen_s` comes from the
/// set-up, `golden_s` from [`golden_time`], `dispatch_s` from mapping
/// empty jobs.
fn batch_layers(
    out: &mut Outcome,
    spec: &Spec,
    (untraced, traced): (&[Rep], &[Rep]),
    gen_s: f64,
    golden_s: f64,
    dispatch_s: f64,
) {
    let per_trace = spec.packets_per_job() as f64;
    let wall: f64 = traced.iter().map(|r| r.wall).sum();
    let busy: f64 = traced.iter().map(|r| r.busy).sum();
    let packets = spec.packets() * traced.len() as f64;
    let walls = |reps: &[Rep]| median(&reps.iter().map(|r| r.wall).collect::<Vec<_>>());
    let l = &mut out.layers;
    l.gen_ns = gen_s * 1e9 / per_trace;
    l.golden_ns = golden_s * 1e9 / (per_trace * Spec::apps().len() as f64);
    l.dispatch_ns = dispatch_s * 1e9 / spec.packets();
    l.measured_ns = busy * 1e9 / packets;
    l.handoff_ns = WORKERS as f64 * wall * 1e9 / packets - l.measured_ns;
    l.busy_frac = busy / (WORKERS as f64 * wall);
    for r in traced {
        l.latency.merge(&r.latency);
        l.jobs_retried += r.retried;
        l.fsyncs += r.fsyncs;
        l.fsync_frac += r.fsync_s / wall;
    }
    l.stats = traced.last().map(|r| r.stats).unwrap_or_default();
    l.packets = spec.packets();
    l.trace_overhead = walls(traced).unwrap_or(0.0) / walls(untraced).unwrap_or(1.0);
}

/// One timed grid job.
struct Job {
    report: RunReport,
    start: Instant,
    end: Instant,
}

/// One grid repetition: `run_grid_on`'s jobs — memoized goldens, then
/// `run_with_golden` at seed `opts.seed + trial` — mapped on the engine,
/// each timed into the telemetry job histogram.
fn grid_jobs(engine: &Engine, spec: &Spec, trace: &Trace, tel: &Telemetry) -> Vec<Job> {
    let goldens: Vec<_> = Spec::apps().iter().map(|k| golden_for(*k, trace)).collect();
    let jobs: Vec<(usize, u32)> = (0..spec.points.len())
        .flat_map(|p| (0..spec.opts.trials).map(move |t| (p, t)))
        .collect();
    engine.map(&jobs, |&(p, t)| {
        let point = &spec.points[p];
        let app = Spec::apps().iter().position(|k| *k == point.kind);
        let golden = &goldens[app.expect("grid apps are the paper set")];
        let cfg = point.cfg.clone().with_seed(spec.opts.seed + u64::from(t));
        let start = Instant::now();
        let report = ClumsyProcessor::new(cfg).run_with_golden(point.kind, trace, golden);
        let end = Instant::now();
        tel.job_completed(p, end - start);
        Job { report, start, end }
    })
}

/// Folds a repetition's jobs into per-point aggregates, as `run_grid_on`
/// returns them.
fn aggregates(spec: &Spec, jobs: &[Job]) -> Vec<Aggregate> {
    jobs.chunks(spec.opts.trials as usize)
        .map(|c| Aggregate {
            runs: c.iter().map(|j| j.report.clone()).collect(),
        })
        .collect()
}

/// The EDF² bars of `aggs`, computed as `edf_panels_on` computes them.
fn grid_bars(labels: &[(&'static str, String)], aggs: &[Aggregate]) -> Vec<Vec<EdfBar>> {
    let metric = EdfMetric::paper();
    aggs.chunks(labels.len() + 1)
        .map(|panel| {
            let base = panel[0].edf(&metric);
            panel[1..]
                .iter()
                .zip(labels)
                .map(|(agg, (scheme, freq))| EdfBar {
                    scheme,
                    freq: freq.clone(),
                    relative_edf: agg.edf(&metric) / base,
                    relative_edf_stddev: agg.edf_stddev(&metric) / base,
                })
                .collect()
        })
        .collect()
}

/// Whether two bar sets agree to rounding. Not bitwise: the EDF products
/// use `powi`, whose last bit may depend on where the compiler inlines it.
fn bars_agree(a: &[Vec<EdfBar>], b: &[Vec<EdfBar>]) -> bool {
    let close = |x: f64, y: f64| (x - y).abs() <= 1e-9 * x.abs().max(y.abs()) || x == y;
    a.len() == b.len()
        && a.iter().zip(b).all(|(p, q)| {
            p.len() == q.len()
                && p.iter().zip(q).all(|(x, y)| {
                    x.scheme == y.scheme
                        && x.freq == y.freq
                        && close(x.relative_edf, y.relative_edf)
                        && close(x.relative_edf_stddev, y.relative_edf_stddev)
                })
        })
}

/// `grid`: the closed batch behind `clumsy repro` — 7 apps × 21 EDF²
/// configurations × trials on the paper trace, on two engine workers.
pub fn grid(o: &Opts, mut spans: Option<&mut Spans>) -> Outcome {
    let (spec, labels) = grid_spec(o);
    let engine = Engine::with_jobs(WORKERS);
    let mut out = Outcome::default();
    let (trace, gen_s) = set_up(&spec, &engine, spans.as_deref_mut());

    let mut bars = None;
    let reps = measure(o, &spec, &mut out, spans.as_deref_mut(), 3, |spans| {
        let tel = Telemetry::with_shards(WORKERS);
        let start = Instant::now();
        let jobs = grid_jobs(&engine, &spec, &trace, &tel);
        let end = Instant::now();
        if let Some(s) = spans {
            let rep = s.record("grid.rep", start, end, None);
            for j in &jobs {
                s.record("processor.run_with_golden", j.start, j.end, Some(rep));
            }
        }
        let aggs = aggregates(&spec, &jobs);
        bars.get_or_insert_with(|| grid_bars(&labels, &aggs));
        Rep {
            wall: (end - start).as_secs_f64(),
            busy: jobs.iter().map(|j| (j.end - j.start).as_secs_f64()).sum(),
            latency: job_histogram(&tel),
            job_us: jobs
                .iter()
                .map(|j| (j.end - j.start).as_secs_f64() * 1e6)
                .collect(),
            stats: stats_of(jobs.iter().map(|j| &j.report)),
            digest: digest_of(&aggs),
            ..Rep::default()
        }
    });
    if let Some(s) = spans {
        let golden_s = golden_time(&engine, &trace, s);
        let jobs = vec![(); spec.jobs()];
        let dispatch_s = dispatch_time(s, "engine.map", || {
            engine.map(&jobs, |_| ());
        });
        batch_layers(
            &mut out,
            &spec,
            (&reps.0, &reps.1),
            gen_s,
            golden_s,
            dispatch_s,
        );
    }

    // The repetitions run the grid `edf_panels_on` runs.
    let reference = edf_panels_on(&engine, &Spec::apps(), &trace, &spec.opts);
    let same = bars.as_deref().is_some_and(|b| bars_agree(b, &reference));
    out.check(same, || "grid bars differ from edf_panels_on's".into());
    out
}

/// `campaign-slowpath`: a durable campaign whose every access takes the
/// cache simulator's slow path, journaled to a temporary file that is
/// deleted after each repetition.
pub fn campaign(o: &Opts, mut spans: Option<&mut Spans>) -> Outcome {
    let spec = campaign_spec(o);
    let engine = Engine::with_jobs(WORKERS);
    let ccfg = CampaignConfig::default();
    let mut out = Outcome::default();
    let (trace, gen_s) = set_up(&spec, &engine, spans.as_deref_mut());

    let dir = Path::new(OUT_DIR);
    let mut n = 0;
    let mut errors = Vec::new();
    let reps = measure(o, &spec, &mut out, spans.as_deref_mut(), 2, |spans| {
        n += 1;
        let tel = Arc::new(Telemetry::with_shards(WORKERS));
        let journal = dir.join(format!("journal-{}-{n}.jsonl", std::process::id()));
        let durable = DurableOptions::new(&journal).with_telemetry(Arc::clone(&tel));
        let start = Instant::now();
        let result =
            run_campaign_durable(&engine, &spec.points, &trace, &spec.opts, &ccfg, &durable);
        let end = Instant::now();
        let _ = std::fs::remove_file(&journal);
        if let Some(s) = spans {
            s.record("campaign.run_campaign_durable", start, end, None);
        }
        let snap = tel.snapshot();
        let mut rep = Rep {
            wall: (end - start).as_secs_f64(),
            busy: snap.job_us_total as f64 * 1e-6,
            latency: job_histogram(&tel),
            retried: snap.jobs_retried,
            fsyncs: snap.journal_fsyncs,
            fsync_s: snap.journal_fsync_us_total as f64 * 1e-6,
            failed: spec.jobs() as u64,
            ..Rep::default()
        };
        match result {
            Ok(d) => {
                let r = &d.report;
                if d.interrupted || !r.is_complete() {
                    errors.push(format!(
                        "campaign incomplete: {} of {} jobs, {} failed",
                        r.completed_jobs(),
                        r.total_jobs,
                        r.failures.len()
                    ));
                }
                rep.failed = (r.total_jobs - r.completed_jobs()) as u64;
                rep.stats = stats_of(r.aggregates.iter().flat_map(|a| a.runs.iter()));
                rep.digest = digest_of(&r.aggregates);
            }
            Err(e) => errors.push(format!("journal error: {e}")),
        }
        rep
    });
    out.failures.extend(errors);
    if let Some(s) = spans {
        let golden_s = golden_time(&engine, &trace, s);
        let jobs = spec.jobs();
        let dispatch_s = dispatch_time(s, "campaign.run_isolated_jobs", || {
            run_isolated_jobs(WORKERS, jobs, &ccfg, |_, _| ());
        });
        batch_layers(
            &mut out,
            &spec,
            (&reps.0, &reps.1),
            gen_s,
            golden_s,
            dispatch_s,
        );
    }
    out
}
