//! Extensions beyond the paper's evaluation: the recovery schemes it
//! deferred to footnotes, the generalized metric of §4.1 and the
//! traffic-locality sensitivity of the headline result.

use super::app_points;
use crate::{f, Table};
use cache_sim::{DetectionScheme, RecoveryGranularity, StrikePolicy};
use clumsy_core::experiment::{run_grid_on, ExperimentOptions};
use clumsy_core::{ClumsyConfig, Engine, PAPER_CYCLE_TIMES};
use energy_model::EdfMetric;
use netbench::{AppKind, TrafficPattern};

/// The footnoted recovery schemes, head-to-head:
///
/// * **Sub-block recovery** (footnote 2) — strike exhaustion repairs
///   only the faulty word from L2 instead of invalidating the line.
/// * **Watchdog recovery** (footnote 3) — a fatal (runaway-loop) packet
///   is dropped and the processor keeps running.
///
/// The watchdog study only says something when a runaway packet
/// actually lands in the no-detection sample, hence the entry's seed.
pub fn recovery(engine: &Engine, opts: &ExperimentOptions) -> Result<Vec<Table>, String> {
    let trace = opts.trace.generate();
    let metric = EdfMetric::paper();

    let variants: Vec<(&str, ClumsyConfig)> = vec![
        ("paper best (line recovery)", ClumsyConfig::paper_best()),
        (
            "word (sub-block) recovery",
            ClumsyConfig::paper_best().with_recovery(RecoveryGranularity::Word),
        ),
        (
            "word recovery @ Cr=0.25",
            ClumsyConfig::baseline()
                .with_detection(DetectionScheme::Parity)
                .with_strikes(StrikePolicy::two_strike())
                .with_recovery(RecoveryGranularity::Word)
                .with_static_cycle(0.25),
        ),
        (
            "no detection + watchdog @ 0.25",
            ClumsyConfig::baseline()
                .with_static_cycle(0.25)
                .with_watchdog(),
        ),
        (
            "no detection, no watchdog @ 0.25",
            ClumsyConfig::baseline().with_static_cycle(0.25),
        ),
    ];

    // One flat grid: apps x (baseline + every variant).
    let configs: Vec<ClumsyConfig> = std::iter::once(ClumsyConfig::baseline())
        .chain(variants.iter().map(|(_, c)| c.clone()))
        .collect();
    let aggs = run_grid_on(engine, &app_points(&configs), &trace, opts);
    let per_app: Vec<_> = aggs.chunks(configs.len()).collect();
    let mut rows = Vec::new();
    for (i, (label, _)) in variants.iter().enumerate() {
        let mut rel = 0.0;
        let mut fall = 0.0;
        let mut dropped = 0usize;
        let mut fatals = 0usize;
        for chunk in &per_app {
            let (base, agg) = (&chunk[0], &chunk[i + 1]);
            rel += agg.edf(&metric) / base.edf(&metric);
            fall += agg.fallibility();
            dropped += agg.runs.iter().map(|r| r.dropped_packets).sum::<usize>();
            fatals += agg.runs.iter().filter(|r| r.fatal.is_some()).count();
        }
        let n = AppKind::all().len() as f64;
        rows.push(vec![
            label.to_string(),
            f(rel / n),
            f(fall / n),
            dropped.to_string(),
            fatals.to_string(),
        ]);
    }
    Ok(vec![Table::new(
        "extension_recovery.csv",
        "Extensions: sub-block recovery (fn.2) and watchdog (fn.3)",
        &[
            "variant",
            "avg_rel_edf2",
            "avg_fallibility",
            "dropped_packets",
            "fatal_runs",
        ],
        rows,
    )])
}

/// §4.1 extension study: the generalized `energy^k·delay^m·fallibility^n`
/// metric. The paper fixes (k, m, n) = (1, 2, 2) because "delay and
/// fallibility are more important than energy" for packet processors;
/// this sweep shows how the winning design point moves as the exponents
/// change (e.g. an energy-dominated wireless deployment).
pub fn metric_exponents(engine: &Engine, opts: &ExperimentOptions) -> Result<Vec<Table>, String> {
    let trace = opts.trace.generate();
    let metrics = [
        ("paper (1,2,2)", EdfMetric::paper()),
        ("balanced (1,1,1)", EdfMetric::new(1.0, 1.0, 1.0)),
        ("energy-first (2,1,1)", EdfMetric::new(2.0, 1.0, 1.0)),
        ("reliability-first (1,1,4)", EdfMetric::new(1.0, 1.0, 4.0)),
        ("plain energy-delay (1,1,0)", EdfMetric::energy_delay()),
    ];

    // Evaluate the protected design points once per app, as one flat
    // grid: apps x (baseline + the four protected clocks).
    let configs: Vec<ClumsyConfig> = std::iter::once(ClumsyConfig::baseline())
        .chain(PAPER_CYCLE_TIMES.iter().map(|cr| {
            ClumsyConfig::baseline()
                .with_detection(DetectionScheme::Parity)
                .with_strikes(StrikePolicy::two_strike())
                .with_static_cycle(*cr)
        }))
        .collect();
    let aggs = run_grid_on(engine, &app_points(&configs), &trace, opts);
    let per_app: Vec<_> = aggs.chunks(configs.len()).collect();

    let mut rows = Vec::new();
    for (label, metric) in metrics {
        let mut best = (f64::INFINITY, String::new());
        let mut cells = vec![label.to_string()];
        for (i, cr) in PAPER_CYCLE_TIMES.iter().enumerate() {
            let rel: f64 = per_app
                .iter()
                .map(|chunk| chunk[i + 1].edf(&metric) / chunk[0].edf(&metric))
                .sum::<f64>()
                / per_app.len() as f64;
            if rel < best.0 {
                best = (rel, format!("{cr:.2}"));
            }
            cells.push(f(rel));
        }
        cells.push(best.1);
        rows.push(cells);
    }
    Ok(vec![Table::new(
        "metric_exponents.csv",
        "S4.1 extension: winner vs metric exponents (parity, two-strike)",
        &[
            "metric", "cr_1.00", "cr_0.75", "cr_0.50", "cr_0.25", "winner",
        ],
        rows,
    )])
}

/// Does the headline result survive different traffic-locality
/// regimes? The paper evaluates one trace per application; this sweep
/// re-runs the best-configuration comparison under skewed
/// (edge-router), uniform (core-router) and single-flow (best-locality)
/// traffic.
pub fn sensitivity_traffic(
    engine: &Engine,
    base_opts: &ExperimentOptions,
) -> Result<Vec<Table>, String> {
    let metric = EdfMetric::paper();
    let patterns = [
        ("skewed", TrafficPattern::Skewed),
        ("uniform", TrafficPattern::Uniform),
        ("single-flow", TrafficPattern::SingleFlow),
    ];
    let configs = [
        ClumsyConfig::baseline(),
        ClumsyConfig::paper_best(),
        ClumsyConfig::paper_best().with_static_cycle(0.25),
    ];
    let mut rows = Vec::new();
    for (label, pattern) in patterns {
        let opts = ExperimentOptions {
            trace: base_opts.trace.clone().with_pattern(pattern),
            ..base_opts.clone()
        };
        let trace = opts.trace.generate();
        // One flat grid per traffic regime: apps x three configurations.
        let aggs = run_grid_on(engine, &app_points(&configs), &trace, &opts);
        let mut rel_best = 0.0;
        let mut rel_quarter = 0.0;
        let mut miss = 0.0;
        for chunk in aggs.chunks(3) {
            let (baseline, best, quarter) = (&chunk[0], &chunk[1], &chunk[2]);
            let b = baseline.edf(&metric);
            rel_best += best.edf(&metric) / b;
            rel_quarter += quarter.edf(&metric) / b;
            miss += baseline.runs[0].stats.miss_rate();
        }
        let n = AppKind::all().len() as f64;
        rows.push(vec![
            label.to_string(),
            f(miss / n * 100.0),
            f(rel_best / n),
            f(rel_quarter / n),
        ]);
    }
    Ok(vec![Table::new(
        "sensitivity_traffic.csv",
        "Sensitivity: headline result vs traffic locality",
        &[
            "traffic",
            "avg_miss_rate_pct",
            "rel_edf2_best_cr_0.5",
            "rel_edf2_cr_0.25",
        ],
        rows,
    )
    .with_notes([
        "the Cr=0.5 optimum should win (or tie) in every regime".to_string(),
    ])])
}
