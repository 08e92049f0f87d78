//! Grid drivers that regenerate the paper's tables and figures (§5).
//!
//! Every public function here corresponds to one experiment of the
//! paper's evaluation; the `clumsy-bench` experiment registry renders
//! and records their output.
//! Figures aggregate several *trials* (identical trace, different fault
//! seeds) because fault injection is stochastic.
//!
//! All drivers flatten their (application × configuration × trial)
//! grid into independent jobs on one [`Engine`] (see [`crate::engine`])
//! instead of nesting per-app threads around serial inner loops. Trial
//! seeds derive only from the grid point (`opts.seed + trial`), and the
//! engine's map is order-preserving, so results are bitwise identical
//! for every worker count — `CLUMSY_JOBS=1` literally runs the same
//! jobs inline in order.

use crate::config::{ClumsyConfig, DynamicConfig};
use crate::engine::{golden_for, Engine};
use crate::processor::{ClumsyProcessor, GoldenData};
use crate::report::RunReport;
use crate::PAPER_CYCLE_TIMES;
use cache_sim::{DetectionScheme, StrikePolicy};
use energy_model::EdfMetric;
use netbench::{AppKind, ErrorCategory, PlaneMask, Trace, TraceConfig};
use std::collections::HashMap;
use std::sync::Arc;

/// Scaling knobs shared by all experiments.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentOptions {
    /// Trace generator settings (packet count dominates runtime).
    pub trace: TraceConfig,
    /// Independent fault-seed trials aggregated per configuration.
    pub trials: u32,
    /// Base fault seed.
    pub seed: u64,
}

impl ExperimentOptions {
    /// Default reproduction scale (≈2 000 packets, 3 trials).
    pub fn paper() -> Self {
        ExperimentOptions {
            trace: TraceConfig::paper(),
            trials: 3,
            seed: 0x5EED,
        }
    }

    /// Fast settings for unit tests.
    pub fn quick() -> Self {
        ExperimentOptions {
            trace: TraceConfig::small(),
            trials: 1,
            seed: 0x5EED,
        }
    }

    /// Reads `CLUMSY_PACKETS`, `CLUMSY_TRIALS` and `CLUMSY_SEED` from
    /// the environment to scale the default options (used by the repro
    /// binaries).
    pub fn from_env() -> Self {
        let mut opts = ExperimentOptions::paper();
        if let Ok(p) = std::env::var("CLUMSY_PACKETS") {
            if let Ok(p) = p.parse::<usize>() {
                opts.trace.packets = p.max(1);
            }
        }
        if let Ok(t) = std::env::var("CLUMSY_TRIALS") {
            if let Ok(t) = t.parse::<u32>() {
                opts.trials = t.max(1);
            }
        }
        if let Ok(s) = std::env::var("CLUMSY_SEED") {
            if let Ok(s) = s.parse::<u64>() {
                opts.seed = s;
            }
        }
        opts
    }

    /// `from_env`, except that when `CLUMSY_SEED` is not set the fault
    /// seed defaults to `seed` instead of the global default. Used by
    /// binaries whose figure is recorded at its own fixed seed.
    pub fn from_env_with_seed(seed: u64) -> Self {
        let mut opts = ExperimentOptions::from_env();
        if std::env::var("CLUMSY_SEED").is_err() {
            opts.seed = seed;
        }
        opts
    }
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions::paper()
    }
}

/// Trial-aggregated reports for one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// The per-trial reports.
    pub runs: Vec<RunReport>,
}

impl Aggregate {
    fn mean(&self, f: impl Fn(&RunReport) -> f64) -> f64 {
        self.runs.iter().map(&f).sum::<f64>() / self.runs.len() as f64
    }

    fn stddev(&self, f: impl Fn(&RunReport) -> f64) -> f64 {
        if self.runs.len() < 2 {
            return 0.0;
        }
        let mean = self.mean(&f);
        let var = self
            .runs
            .iter()
            .map(|r| {
                let d = f(r) - mean;
                d * d
            })
            .sum::<f64>()
            / (self.runs.len() - 1) as f64;
        var.sqrt()
    }

    /// Mean fallibility factor across trials.
    pub fn fallibility(&self) -> f64 {
        self.mean(RunReport::fallibility)
    }

    /// Mean cycles per packet.
    pub fn delay_per_packet(&self) -> f64 {
        self.mean(RunReport::delay_per_packet)
    }

    /// Mean energy per packet, in nanojoules.
    pub fn energy_per_packet(&self) -> f64 {
        self.mean(RunReport::energy_per_packet)
    }

    /// Mean EDF product.
    pub fn edf(&self, metric: &EdfMetric) -> f64 {
        self.mean(|r| r.edf(metric))
    }

    /// Sample standard deviation of the EDF product across trials
    /// (0 for a single trial).
    pub fn edf_stddev(&self, metric: &EdfMetric) -> f64 {
        self.stddev(|r| r.edf(metric))
    }

    /// Sample standard deviation of the fallibility factor.
    pub fn fallibility_stddev(&self) -> f64 {
        self.stddev(RunReport::fallibility)
    }

    /// Pooled per-category error probability across trials.
    pub fn error_probability(&self, cat: ErrorCategory) -> f64 {
        if cat == ErrorCategory::Initialization {
            let wrong: usize = self.runs.iter().map(|r| r.init_obs_wrong).sum();
            let total: usize = self.runs.iter().map(|r| r.init_obs_total).sum();
            return if total == 0 {
                0.0
            } else {
                wrong as f64 / total as f64
            };
        }
        let events: usize = self
            .runs
            .iter()
            .map(|r| r.error_counts.get(&cat).copied().unwrap_or(0))
            .sum();
        let packets: usize = self.runs.iter().map(|r| r.packets_completed).sum();
        if packets == 0 {
            1.0
        } else {
            events as f64 / packets as f64
        }
    }

    /// Per-outcome trial counts (see [`crate::TrialOutcome`]).
    pub fn outcome_counts(&self) -> crate::OutcomeCounts {
        crate::OutcomeCounts::from_runs(self.runs.iter())
    }

    /// Pooled fatal-error probability per attempted packet.
    pub fn fatal_probability(&self) -> f64 {
        let fatals = self.runs.iter().filter(|r| r.fatal.is_some()).count();
        let attempted: usize = self.runs.iter().map(|r| r.packets_attempted).sum();
        if attempted == 0 {
            0.0
        } else {
            fatals as f64 / attempted as f64
        }
    }
}

// ---------------------------------------------------------------------
// The flattened experiment grid
// ---------------------------------------------------------------------

/// One point of an experiment grid: an application under a
/// configuration. A point expands to `opts.trials` independent jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct GridPoint {
    /// The packet application to run.
    pub kind: AppKind,
    /// The processor configuration (its seed is overwritten per trial).
    pub cfg: ClumsyConfig,
}

impl GridPoint {
    /// Convenience constructor.
    pub fn new(kind: AppKind, cfg: ClumsyConfig) -> Self {
        GridPoint { kind, cfg }
    }
}

/// Runs every (point × trial) job of the grid on `engine`, returning
/// one [`Aggregate`] per point, in point order.
///
/// Golden passes are warmed once per distinct application (memoized via
/// [`golden_for`]); measured jobs then share the cached golden behind an
/// [`Arc`]. Trial `t` of any point always runs with seed
/// `opts.seed + t`, so the output is independent of the worker count.
pub fn run_grid_on(
    engine: &Engine,
    points: &[GridPoint],
    trace: &Trace,
    opts: &ExperimentOptions,
) -> Vec<Aggregate> {
    let mut kinds: Vec<AppKind> = points.iter().map(|p| p.kind).collect();
    kinds.sort();
    kinds.dedup();
    let goldens: HashMap<AppKind, Arc<GoldenData>> = kinds
        .iter()
        .copied()
        .zip(engine.map(&kinds, |k| golden_for(*k, trace)))
        .collect();

    let jobs: Vec<(usize, u32)> = (0..points.len())
        .flat_map(|pi| (0..opts.trials).map(move |t| (pi, t)))
        .collect();
    let runs = engine.map(&jobs, |&(pi, t)| {
        let point = &points[pi];
        let cfg = point.cfg.clone().with_seed(opts.seed + u64::from(t));
        ClumsyProcessor::new(cfg).run_with_golden(point.kind, trace, &goldens[&point.kind])
    });

    let mut it = runs.into_iter();
    points
        .iter()
        .map(|_| Aggregate {
            runs: (0..opts.trials)
                .map(|_| it.next().expect("job count"))
                .collect(),
        })
        .collect()
}

/// Runs `trials` measured passes of `kind` under `cfg` on `trace`,
/// sharing one golden pass, on an environment-sized engine.
pub fn run_config_on_trace(
    kind: AppKind,
    cfg: &ClumsyConfig,
    trace: &Trace,
    opts: &ExperimentOptions,
) -> Aggregate {
    run_grid_on(
        &Engine::from_env(),
        &[GridPoint::new(kind, cfg.clone())],
        trace,
        opts,
    )
    .pop()
    .expect("one point in, one aggregate out")
}

// ---------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------

/// One row of the paper's Table I.
#[derive(Debug, Clone, PartialEq)]
pub struct Table1Row {
    /// Application name.
    pub app: &'static str,
    /// Instructions simulated (measured pass at `Cr = 1`).
    pub instructions: u64,
    /// Data-cache accesses.
    pub cache_accesses: u64,
    /// L1 data-cache miss rate.
    pub miss_rate: f64,
    /// Fallibility factor at `Cr = 0.5` (no detection).
    pub fallibility_half: f64,
    /// Fallibility factor at `Cr = 0.25` (no detection).
    pub fallibility_quarter: f64,
}

/// Regenerates Table I: workload characteristics and fallibility factors
/// at `Cr` = 0.5 and 0.25.
pub fn table1_on(engine: &Engine, trace: &Trace, opts: &ExperimentOptions) -> Vec<Table1Row> {
    let configs = [
        ClumsyConfig::baseline(),
        ClumsyConfig::baseline().with_static_cycle(0.5),
        ClumsyConfig::baseline().with_static_cycle(0.25),
    ];
    let points: Vec<GridPoint> = AppKind::all()
        .iter()
        .flat_map(|k| configs.iter().map(|c| GridPoint::new(*k, c.clone())))
        .collect();
    let aggs = run_grid_on(engine, &points, trace, opts);
    AppKind::all()
        .iter()
        .zip(aggs.chunks(configs.len()))
        .map(|(kind, chunk)| {
            let (base, half, quarter) = (&chunk[0], &chunk[1], &chunk[2]);
            let r0 = &base.runs[0];
            Table1Row {
                app: kind.name(),
                instructions: r0.instructions,
                cache_accesses: r0.stats.accesses(),
                miss_rate: r0.stats.miss_rate(),
                fallibility_half: half.fallibility(),
                fallibility_quarter: quarter.fallibility(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figures 6–7: per-category error probabilities by plane and clock
// ---------------------------------------------------------------------

/// One (plane, clock) cell of Figures 6–7.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaneErrorCell {
    /// Plane label ("control", "data", "both").
    pub plane: &'static str,
    /// Relative cycle time.
    pub cr: f64,
    /// Per-category error probabilities.
    pub categories: Vec<(ErrorCategory, f64)>,
    /// Fatal error probability.
    pub fatal: f64,
}

/// Regenerates Figure 6 (route) or Figure 7 (nat): error probabilities
/// per marked structure, with faults injected in the control plane, the
/// data plane, or both, across the four static clocks.
pub fn plane_error_study_on(
    engine: &Engine,
    kind: AppKind,
    trace: &Trace,
    opts: &ExperimentOptions,
) -> Vec<PlaneErrorCell> {
    let planes = [
        ("control", PlaneMask::control_only()),
        ("data", PlaneMask::data_only()),
        ("both", PlaneMask::both()),
    ];
    let labels: Vec<(&'static str, f64)> = planes
        .iter()
        .flat_map(|(label, _)| PAPER_CYCLE_TIMES.iter().map(|cr| (*label, *cr)))
        .collect();
    let points: Vec<GridPoint> = planes
        .iter()
        .flat_map(|(_, mask)| {
            PAPER_CYCLE_TIMES.iter().map(|cr| {
                GridPoint::new(
                    kind,
                    ClumsyConfig::baseline()
                        .with_static_cycle(*cr)
                        .with_planes(*mask),
                )
            })
        })
        .collect();
    let aggs = run_grid_on(engine, &points, trace, opts);
    labels
        .into_iter()
        .zip(aggs)
        .map(|((label, cr), agg)| {
            let mut cats: Vec<ErrorCategory> = agg
                .runs
                .iter()
                .flat_map(|r| r.error_counts.keys().copied())
                .collect();
            cats.push(ErrorCategory::Initialization);
            cats.sort();
            cats.dedup();
            PlaneErrorCell {
                plane: label,
                cr,
                categories: cats
                    .into_iter()
                    .map(|c| (c, agg.error_probability(c)))
                    .collect(),
                fatal: agg.fatal_probability(),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figure 8: fatal error probabilities (no detection)
// ---------------------------------------------------------------------

/// One application's fatal-error probabilities across the four clocks.
#[derive(Debug, Clone, PartialEq)]
pub struct FatalRow {
    /// Application name.
    pub app: &'static str,
    /// Fatal probability at `Cr` = 1.0, 0.75, 0.5, 0.25.
    pub per_cr: [f64; 4],
}

/// Regenerates Figure 8: fatal error probability per application and
/// clock, on the no-detection architecture.
pub fn fatal_study_on(engine: &Engine, trace: &Trace, opts: &ExperimentOptions) -> Vec<FatalRow> {
    let points: Vec<GridPoint> = AppKind::all()
        .iter()
        .flat_map(|k| {
            PAPER_CYCLE_TIMES
                .iter()
                .map(|cr| GridPoint::new(*k, ClumsyConfig::baseline().with_static_cycle(*cr)))
        })
        .collect();
    let aggs = run_grid_on(engine, &points, trace, opts);
    AppKind::all()
        .iter()
        .zip(aggs.chunks(PAPER_CYCLE_TIMES.len()))
        .map(|(kind, chunk)| {
            let mut per_cr = [0.0; 4];
            for (slot, agg) in per_cr.iter_mut().zip(chunk) {
                *slot = agg.fatal_probability();
            }
            FatalRow {
                app: kind.name(),
                per_cr,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------
// Figures 9–12: EDF² bars per app × recovery scheme × clock plan
// ---------------------------------------------------------------------

/// The recovery schemes of Figures 9–12, in x-axis order.
pub fn paper_schemes() -> [(&'static str, DetectionScheme, StrikePolicy); 4] {
    [
        (
            "no detection",
            DetectionScheme::None,
            StrikePolicy::one_strike(),
        ),
        (
            "one-strike",
            DetectionScheme::Parity,
            StrikePolicy::one_strike(),
        ),
        (
            "two-strike",
            DetectionScheme::Parity,
            StrikePolicy::two_strike(),
        ),
        (
            "three-strike",
            DetectionScheme::Parity,
            StrikePolicy::three_strike(),
        ),
    ]
}

/// One bar of Figures 9–12.
#[derive(Debug, Clone, PartialEq)]
pub struct EdfBar {
    /// Recovery-scheme label (x-axis group).
    pub scheme: &'static str,
    /// Frequency-plan label ("1.00" ... "0.25", "dynamic").
    pub freq: String,
    /// Energy–delay²–fallibility² relative to the `Cr = 1`/no-detection
    /// baseline.
    pub relative_edf: f64,
    /// Trial spread of the relative EDF (sample stddev / baseline).
    pub relative_edf_stddev: f64,
}

/// The 21 configurations of one Figures 9–12 panel, in output order:
/// the normalization baseline first, then every (scheme, plan) bar.
fn edf_plan() -> Vec<(&'static str, String, ClumsyConfig)> {
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
            cfg0.clone().with_dynamic(DynamicConfig::paper()),
        ));
    }
    plan
}

/// Regenerates several apps' Figures 9–12 panels in one flattened grid:
/// apps × 21 configurations × trials, all scheduled together so the
/// engine stays saturated across panel boundaries.
pub fn edf_panels_on(
    engine: &Engine,
    apps: &[AppKind],
    trace: &Trace,
    opts: &ExperimentOptions,
) -> Vec<Vec<EdfBar>> {
    let metric = EdfMetric::paper();
    let plan = edf_plan();
    let points: Vec<GridPoint> = apps
        .iter()
        .flat_map(|k| {
            plan.iter()
                .map(|(_, _, cfg)| GridPoint::new(*k, cfg.clone()))
        })
        .collect();
    let aggs = run_grid_on(engine, &points, trace, opts);
    aggs.chunks(plan.len())
        .map(|chunk| {
            let base_edf = chunk[0].edf(&metric);
            chunk[1..]
                .iter()
                .zip(plan[1..].iter())
                .map(|(agg, (scheme, freq, _))| EdfBar {
                    scheme,
                    freq: freq.clone(),
                    relative_edf: agg.edf(&metric) / base_edf,
                    relative_edf_stddev: agg.edf_stddev(&metric) / base_edf,
                })
                .collect()
        })
        .collect()
}

/// Averages per-app panels bar-by-bar (Figure 12(b)).
pub fn average_panels(per_app: &[Vec<EdfBar>]) -> Vec<EdfBar> {
    let n = per_app.len() as f64;
    per_app[0]
        .iter()
        .enumerate()
        .map(|(i, bar)| EdfBar {
            scheme: bar.scheme,
            freq: bar.freq.clone(),
            relative_edf: per_app.iter().map(|v| v[i].relative_edf).sum::<f64>() / n,
            // Propagate the per-app spreads as an RMS (apps independent).
            relative_edf_stddev: (per_app
                .iter()
                .map(|v| v[i].relative_edf_stddev.powi(2))
                .sum::<f64>())
            .sqrt()
                / n,
        })
        .collect()
}

/// Regenerates Figure 12(b): the across-application average of the
/// relative EDF² bars.
pub fn edf_average_on(engine: &Engine, opts: &ExperimentOptions) -> Vec<EdfBar> {
    let trace = opts.trace.generate();
    let per_app = edf_panels_on(engine, &AppKind::all(), &trace, opts);
    average_panels(&per_app)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> ExperimentOptions {
        ExperimentOptions::quick()
    }

    /// The quick options and their trace.
    fn quick_trace() -> (ExperimentOptions, Trace) {
        let opts = quick();
        let trace = opts.trace.generate();
        (opts, trace)
    }

    fn engine() -> Engine {
        Engine::with_jobs(2)
    }

    #[test]
    fn table1_has_all_apps_in_order() {
        let (opts, trace) = quick_trace();
        let rows = table1_on(&engine(), &trace, &opts);
        let names: Vec<&str> = rows.iter().map(|r| r.app).collect();
        assert_eq!(names, ["crc", "tl", "route", "drr", "nat", "md5", "url"]);
        for r in &rows {
            assert!(r.instructions > 0);
            assert!(r.cache_accesses > 0);
            assert!(r.miss_rate > 0.0 && r.miss_rate < 1.0, "{}", r.app);
            assert!(r.fallibility_half >= 1.0);
            assert!(r.fallibility_quarter >= r.fallibility_half - 0.05);
        }
    }

    #[test]
    fn md5_and_url_are_the_heavy_apps() {
        // Table I: url and md5 simulate the most instructions.
        let (opts, trace) = quick_trace();
        let rows = table1_on(&engine(), &trace, &opts);
        let inst = |name: &str| {
            rows.iter()
                .find(|r| r.app == name)
                .map(|r| r.instructions)
                .unwrap()
        };
        assert!(inst("md5") > inst("tl"));
        assert!(inst("url") > inst("tl"));
        assert!(inst("crc") > inst("tl"));
    }

    #[test]
    fn plane_study_has_three_planes_by_four_clocks() {
        let (opts, trace) = quick_trace();
        let cells = plane_error_study_on(&engine(), AppKind::Route, &trace, &opts);
        assert_eq!(cells.len(), 12);
        assert!(cells.iter().all(|c| (0.0..=1.0).contains(&c.fatal)));
    }

    #[test]
    fn fatal_study_is_zero_at_full_speed() {
        let (opts, trace) = quick_trace();
        let rows = fatal_study_on(&engine(), &trace, &opts);
        for r in &rows {
            assert_eq!(r.per_cr[0], 0.0, "{} must not die at Cr = 1", r.app);
        }
    }

    #[test]
    fn edf_bars_have_expected_shape() {
        let (opts, trace) = quick_trace();
        let bars = edf_panels_on(&engine(), &[AppKind::Tl], &trace, &opts)
            .pop()
            .unwrap();
        // 4 schemes x 5 plans.
        assert_eq!(bars.len(), 20);
        // The baseline bar is exactly 1.
        let base = bars
            .iter()
            .find(|b| b.scheme == "no detection" && b.freq == "1.00")
            .unwrap();
        assert!((base.relative_edf - 1.0).abs() < 1e-9);
        assert!(bars.iter().all(|b| b.relative_edf > 0.0));
    }

    #[test]
    fn stddev_is_zero_for_single_trial_and_positive_for_spread() {
        let opts = quick();
        let trace = opts.trace.generate();
        let one = run_config_on_trace(AppKind::Tl, &ClumsyConfig::baseline(), &trace, &opts);
        assert_eq!(one.edf_stddev(&EdfMetric::paper()), 0.0);

        let three = ExperimentOptions {
            trials: 3,
            ..quick()
        };
        let cfg = ClumsyConfig::baseline()
            .with_fault_model(fault_model::FaultProbabilityModel::new(1e-5, 0.2))
            .with_static_cycle(0.25);
        let agg = run_config_on_trace(AppKind::Crc, &cfg, &trace, &three);
        assert!(agg.edf_stddev(&EdfMetric::paper()) > 0.0);
        assert!(agg.fallibility_stddev() >= 0.0);
    }

    #[test]
    fn options_from_env_fall_back_to_paper() {
        // (Env vars are not set in the test environment.)
        let o = ExperimentOptions::from_env();
        assert!(o.trace.packets > 0);
        assert!(o.trials > 0);
    }

    /// The acceptance guarantee of the engine rewrite: for a fixed seed
    /// the parallel grid produces bitwise-identical `RunReport`s to the
    /// serial one (`Engine::with_jobs(1)` runs jobs inline, in order).
    #[test]
    fn parallel_grid_is_bitwise_identical_to_serial() {
        let opts = ExperimentOptions {
            trials: 2,
            ..quick()
        };
        let trace = opts.trace.generate();
        let points: Vec<GridPoint> = [AppKind::Crc, AppKind::Tl, AppKind::Route]
            .iter()
            .flat_map(|k| {
                [
                    ClumsyConfig::baseline(),
                    ClumsyConfig::baseline().with_static_cycle(0.25),
                    ClumsyConfig::baseline()
                        .with_detection(DetectionScheme::Parity)
                        .with_strikes(StrikePolicy::two_strike())
                        .with_static_cycle(0.5),
                ]
                .into_iter()
                .map(|c| GridPoint::new(*k, c))
            })
            .collect();
        let serial = run_grid_on(&Engine::with_jobs(1), &points, &trace, &opts);
        for jobs in [2, 4, 16] {
            let parallel = run_grid_on(&Engine::with_jobs(jobs), &points, &trace, &opts);
            assert_eq!(serial, parallel, "grid diverged at jobs={jobs}");
        }
    }

    #[test]
    fn flattened_panels_match_single_app_study() {
        let opts = quick();
        let trace = opts.trace.generate();
        let panels = edf_panels_on(
            &Engine::with_jobs(4),
            &[AppKind::Tl, AppKind::Crc],
            &trace,
            &opts,
        );
        assert_eq!(panels.len(), 2);
        for (panel, kind) in panels.iter().zip([AppKind::Tl, AppKind::Crc]) {
            let single = edf_panels_on(&Engine::with_jobs(1), &[kind], &trace, &opts);
            assert_eq!(single, std::slice::from_ref(panel));
        }
    }

    #[test]
    fn average_panels_averages_bar_by_bar() {
        let mk = |v: f64| EdfBar {
            scheme: "s",
            freq: "1.00".to_string(),
            relative_edf: v,
            relative_edf_stddev: 0.1,
        };
        let avg = average_panels(&[vec![mk(1.0)], vec![mk(3.0)]]);
        assert_eq!(avg.len(), 1);
        assert!((avg[0].relative_edf - 2.0).abs() < 1e-12);
        // RMS of (0.1, 0.1) over n = 2: sqrt(0.02)/2.
        assert!((avg[0].relative_edf_stddev - 0.02f64.sqrt() / 2.0).abs() < 1e-12);
    }
}
