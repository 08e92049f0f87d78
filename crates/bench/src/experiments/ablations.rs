//! Ablations of the model's free parameters: the fault-model exponent,
//! the dynamic controller, the strike count, the core/cache interface,
//! the detection granularity and the memory system.

use super::app_points;
use crate::{f, Table};
use cache_sim::{CacheGeometry, DetectionScheme, StrikePolicy};
use clumsy_core::experiment::{run_grid_on, ExperimentOptions};
use clumsy_core::{ClumsyConfig, DynamicConfig, Engine, PAPER_CYCLE_TIMES};
use energy_model::EdfMetric;
use fault_model::{FaultProbabilityModel, CALIBRATED_BETA, PAPER_PRINTED_BETA};
use netbench::AppKind;

/// The exponent β of the fault-probability fit: shows why the paper's
/// printed constant (β = 6) cannot reproduce its own Table I, and how
/// sensitive the headline EDF² result is to the calibrated value.
pub fn beta(engine: &Engine, opts: &ExperimentOptions) -> Result<Vec<Table>, String> {
    let trace = opts.trace.generate();
    let metric = EdfMetric::paper();
    let betas = [
        ("half", CALIBRATED_BETA / 2.0),
        ("calibrated", CALIBRATED_BETA),
        ("double", CALIBRATED_BETA * 2.0),
        ("paper-printed", PAPER_PRINTED_BETA),
    ];
    // One flat grid: apps x betas x (baseline, no-detection 0.25, best).
    let configs: Vec<ClumsyConfig> = betas
        .iter()
        .flat_map(|(_, beta)| {
            let fm = FaultProbabilityModel::with_beta(*beta);
            [
                ClumsyConfig::baseline().with_fault_model(fm),
                ClumsyConfig::baseline()
                    .with_fault_model(fm)
                    .with_static_cycle(0.25),
                ClumsyConfig::baseline()
                    .with_fault_model(fm)
                    .with_detection(DetectionScheme::Parity)
                    .with_strikes(StrikePolicy::two_strike())
                    .with_static_cycle(0.5),
            ]
        })
        .collect();
    let aggs = run_grid_on(engine, &app_points(&configs), &trace, opts);
    let per_app: Vec<_> = aggs.chunks(3 * betas.len()).collect();
    let mut rows = Vec::new();
    for (vi, (label, beta)) in betas.iter().enumerate() {
        let fm = FaultProbabilityModel::with_beta(*beta);
        let mut fall_quarter_max: f64 = 1.0;
        let mut rel_best = 0.0;
        for chunk in &per_app {
            let base = &chunk[3 * vi];
            let nd_quarter = &chunk[3 * vi + 1];
            let best = &chunk[3 * vi + 2];
            fall_quarter_max = fall_quarter_max.max(nd_quarter.fallibility());
            rel_best += best.edf(&metric) / base.edf(&metric);
        }
        rel_best /= AppKind::all().len() as f64;
        rows.push(vec![
            label.to_string(),
            f(*beta),
            f(fm.per_bit_at_cycle(0.25)),
            f(fall_quarter_max),
            f(rel_best),
        ]);
    }
    Ok(vec![Table::new(
        "ablation_beta.csv",
        "Ablation: fault-model exponent beta",
        &[
            "variant",
            "beta",
            "per_bit_p_at_cr_0.25",
            "max_fallibility_cr_0.25",
            "avg_rel_edf2_best_config",
        ],
        rows,
    )
    .with_notes([
        "paper's Table I fallibility band at Cr = 0.25: 1.008 - 1.261".to_string(),
        "(the printed beta = 6 saturates P_E and destroys every run)".to_string(),
    ])])
}

/// The dynamic controller's epoch length and X1/X2 thresholds. The
/// paper (§4) reports that epochs of 100 packets with X1 = 200% and
/// X2 = 80% perform best.
pub fn epoch(engine: &Engine, opts: &ExperimentOptions) -> Result<Vec<Table>, String> {
    let trace = opts.trace.generate();
    let metric = EdfMetric::paper();
    let variants: Vec<(String, DynamicConfig)> = vec![
        ("paper (100 pkts, 200%/80%)".into(), DynamicConfig::paper()),
        (
            "short epochs (25 pkts)".into(),
            DynamicConfig {
                epoch_packets: 25,
                ..DynamicConfig::paper()
            },
        ),
        (
            "long epochs (400 pkts)".into(),
            DynamicConfig {
                epoch_packets: 400,
                ..DynamicConfig::paper()
            },
        ),
        (
            "tight thresholds (120%/90%)".into(),
            DynamicConfig {
                x1: 1.2,
                x2: 0.9,
                ..DynamicConfig::paper()
            },
        ),
        (
            "loose thresholds (400%/40%)".into(),
            DynamicConfig {
                x1: 4.0,
                x2: 0.4,
                ..DynamicConfig::paper()
            },
        ),
    ];
    // One flat grid: apps x (baseline + every controller variant).
    let configs: Vec<ClumsyConfig> = std::iter::once(ClumsyConfig::baseline())
        .chain(variants.iter().map(|(_, dyn_cfg)| {
            ClumsyConfig::baseline()
                .with_detection(DetectionScheme::Parity)
                .with_strikes(StrikePolicy::two_strike())
                .with_dynamic(dyn_cfg.clone())
        }))
        .collect();
    let aggs = run_grid_on(engine, &app_points(&configs), &trace, opts);
    let per_app: Vec<_> = aggs.chunks(configs.len()).collect();
    let mut rows = Vec::new();
    for (i, (label, _)) in variants.iter().enumerate() {
        let mut rel = 0.0;
        let mut switches = 0u64;
        for chunk in &per_app {
            let (base, agg) = (&chunk[0], &chunk[i + 1]);
            rel += agg.edf(&metric) / base.edf(&metric);
            switches += agg.runs.iter().map(|r| r.stats.freq_switches).sum::<u64>();
        }
        let n = AppKind::all().len() as f64;
        rows.push(vec![
            label.clone(),
            f(rel / n),
            (switches as f64 / (n * f64::from(opts.trials)))
                .round()
                .to_string(),
        ]);
    }
    Ok(vec![Table::new(
        "ablation_epoch.csv",
        "Ablation: dynamic-controller parameters",
        &["variant", "avg_rel_edf2", "avg_switches_per_run"],
        rows,
    )])
}

/// Strike count sensitivity (1 through 5 retained attempts). The paper
/// evaluates one/two/three-strike; this sweep shows where the returns
/// flatten.
pub fn strike(engine: &Engine, opts: &ExperimentOptions) -> Result<Vec<Table>, String> {
    let trace = opts.trace.generate();
    let metric = EdfMetric::paper();
    // One flat grid: apps x (baseline + the five strike counts).
    let configs: Vec<ClumsyConfig> = std::iter::once(ClumsyConfig::baseline())
        .chain((1..=5u8).map(|strikes| {
            ClumsyConfig::baseline()
                .with_detection(DetectionScheme::Parity)
                .with_strikes(StrikePolicy::with_strikes(strikes))
                .with_static_cycle(0.25) // stress recovery hard
        }))
        .collect();
    let aggs = run_grid_on(engine, &app_points(&configs), &trace, opts);
    let per_app: Vec<_> = aggs.chunks(configs.len()).collect();
    let mut rows = Vec::new();
    for (i, strikes) in (1..=5u8).enumerate() {
        let mut rel = 0.0;
        let mut retries = 0u64;
        let mut invalidations = 0u64;
        for chunk in &per_app {
            let (base, agg) = (&chunk[0], &chunk[i + 1]);
            rel += agg.edf(&metric) / base.edf(&metric);
            retries += agg.runs.iter().map(|r| r.stats.strike_retries).sum::<u64>();
            invalidations += agg
                .runs
                .iter()
                .map(|r| r.stats.strike_invalidations)
                .sum::<u64>();
        }
        let n = AppKind::all().len() as f64 * f64::from(opts.trials);
        rows.push(vec![
            strikes.to_string(),
            f(rel / AppKind::all().len() as f64),
            f(retries as f64 / n),
            f(invalidations as f64 / n),
        ]);
    }
    Ok(vec![Table::new(
        "ablation_strike.csv",
        "Ablation: strike-count sensitivity",
        &[
            "strikes",
            "avg_rel_edf2_at_cr_0.25",
            "retries_per_run",
            "invalidations_per_run",
        ],
        rows,
    )])
}

/// Latency quantization at the core/cache interface.
///
/// A synchronous core samples returning data at core-clock edges, so an
/// over-clocked cache's latency is visible as `ceil(latency x Cr)` whole
/// cycles; with a fully decoupled interface the fractional latency would
/// be usable. This knob decides whether Cr = 0.25 can beat Cr = 0.5 on
/// delay — i.e., it controls the paper's central crossover (§5.4).
pub fn quantize(engine: &Engine, opts: &ExperimentOptions) -> Result<Vec<Table>, String> {
    let trace = opts.trace.generate();
    let metric = EdfMetric::paper();
    // Per interface mode: the modified baseline plus the four clocks,
    // for every app, in one flat grid.
    let configs: Vec<(bool, Option<f64>, ClumsyConfig)> = [true, false]
        .into_iter()
        .flat_map(|quantize| {
            let mut base_cfg = ClumsyConfig::baseline();
            base_cfg.mem.quantize_latency = quantize;
            std::iter::once((quantize, None, base_cfg)).chain(PAPER_CYCLE_TIMES.iter().map(
                move |cr| {
                    let mut cfg = ClumsyConfig::baseline()
                        .with_detection(DetectionScheme::Parity)
                        .with_strikes(StrikePolicy::two_strike())
                        .with_static_cycle(*cr);
                    cfg.mem.quantize_latency = quantize;
                    (quantize, Some(*cr), cfg)
                },
            ))
        })
        .collect();
    let cfgs: Vec<ClumsyConfig> = configs.iter().map(|(_, _, c)| c.clone()).collect();
    let aggs = run_grid_on(engine, &app_points(&cfgs), &trace, opts);
    let per_app: Vec<_> = aggs.chunks(configs.len()).collect();
    let mut rows = Vec::new();
    for (i, (quantize, cr, _)) in configs.iter().enumerate() {
        let Some(cr) = cr else { continue };
        // The matching baseline is the first entry of this mode's block.
        let base_idx = if *quantize { 0 } else { configs.len() / 2 };
        let mut rel = 0.0;
        for chunk in &per_app {
            rel += chunk[i].edf(&metric) / chunk[base_idx].edf(&metric);
        }
        rows.push(vec![
            if *quantize {
                "quantized (default)"
            } else {
                "fractional"
            }
            .to_string(),
            f(*cr),
            f(rel / AppKind::all().len() as f64),
        ]);
    }
    Ok(vec![Table::new(
        "ablation_quantize.csv",
        "Ablation: core/cache latency quantization",
        &[
            "interface",
            "relative_cycle_time",
            "avg_rel_edf2_two_strike",
        ],
        rows,
    )
    .with_notes([
        "with quantization, Cr = 0.5 beats Cr = 0.25 (the paper's result);".to_string(),
        "a fractional interface would keep rewarding faster clocks.".to_string(),
    ])])
}

/// Detection granularity — word parity (the paper's design) vs
/// per-byte parity (a finer code that closes most of the even-weight
/// detection hole at ~10% extra detection energy).
pub fn parity(engine: &Engine, opts: &ExperimentOptions) -> Result<Vec<Table>, String> {
    let trace = opts.trace.generate();
    let metric = EdfMetric::paper();
    let variants: Vec<(&str, f64, ClumsyConfig)> = [
        ("word parity", DetectionScheme::Parity),
        ("byte parity", DetectionScheme::ParityPerByte),
    ]
    .into_iter()
    .flat_map(|(label, detection)| {
        [0.5, 0.25].into_iter().map(move |cr| {
            (
                label,
                cr,
                ClumsyConfig::baseline()
                    .with_detection(detection)
                    .with_strikes(StrikePolicy::two_strike())
                    .with_static_cycle(cr),
            )
        })
    })
    .collect();
    // One flat grid: apps x (baseline + every variant).
    let configs: Vec<ClumsyConfig> = std::iter::once(ClumsyConfig::baseline())
        .chain(variants.iter().map(|(_, _, c)| c.clone()))
        .collect();
    let aggs = run_grid_on(engine, &app_points(&configs), &trace, opts);
    let per_app: Vec<_> = aggs.chunks(configs.len()).collect();
    let mut rows = Vec::new();
    for (i, (label, cr, _)) in variants.iter().enumerate() {
        let mut rel = 0.0;
        let mut fall = 0.0;
        let mut undetected = 0u64;
        let mut energy = 0.0;
        for chunk in &per_app {
            let (base, agg) = (&chunk[0], &chunk[i + 1]);
            rel += agg.edf(&metric) / base.edf(&metric);
            fall += agg.fallibility();
            undetected += agg
                .runs
                .iter()
                .map(|r| r.stats.faults_undetected)
                .sum::<u64>();
            energy += agg.energy_per_packet();
        }
        let n = AppKind::all().len() as f64;
        rows.push(vec![
            label.to_string(),
            f(*cr),
            f(rel / n),
            f(fall / n),
            undetected.to_string(),
            f(energy / n),
        ]);
    }
    Ok(vec![Table::new(
        "ablation_parity.csv",
        "Ablation: detection granularity",
        &[
            "detection",
            "relative_cycle_time",
            "avg_rel_edf2",
            "avg_fallibility",
            "undetected_faults",
            "avg_nj_per_packet",
        ],
        rows,
    )])
}

/// Memory-system sensitivity of the headline result, in two sweeps:
///
/// 1. **L2 latency** — our workloads are more L1-stall-bound than
///    NetBench on SimpleScalar, which is why the reproduced EDF²
///    reductions are larger than the paper's (−38 % vs −24 %). Raising
///    the L2 latency shifts more time into (unchanged) refill stalls and
///    pulls the reduction toward the paper's figure; lowering it does
///    the opposite.
/// 2. **L1 geometry** — the paper fixed a 4 KB direct-mapped cache;
///    bigger or more associative arrays reduce miss rates, which *also*
///    shifts time into the over-clockable L1 accesses.
pub fn memory(engine: &Engine, opts: &ExperimentOptions) -> Result<Vec<Table>, String> {
    let mut rows = Vec::new();
    for l2 in [8.0f64, 15.0, 30.0, 60.0] {
        let (rel, miss) = average_best(engine, |c| c.mem.l2_latency = l2, opts);
        rows.push(vec![
            format!("L2 latency {l2:.0} cycles"),
            f(miss * 100.0),
            f(rel),
        ]);
    }
    for (label, size, line, assoc) in [
        ("L1 4 KB direct-mapped (paper)", 4096u32, 32u32, 1u32),
        ("L1 8 KB direct-mapped", 8192, 32, 1),
        ("L1 4 KB 2-way", 4096, 32, 2),
        ("L1 16 KB 4-way", 16384, 32, 4),
    ] {
        let (rel, miss) = average_best(
            engine,
            |c| c.mem.l1 = CacheGeometry::new(size, line, assoc),
            opts,
        );
        rows.push(vec![label.to_string(), f(miss * 100.0), f(rel)]);
    }
    Ok(vec![Table::new(
        "ablation_memory.csv",
        "Ablation: memory-system sensitivity of the Cr=0.5 optimum",
        &["variant", "avg_miss_rate_pct", "rel_edf2_best_config"],
        rows,
    )
    .with_notes([
        "paper's reduction at the best config: 24% (rel 0.76); ours moves".to_string(),
        "toward it as refill stalls grow (higher L2 latency / miss rate).".to_string(),
    ])])
}

/// The across-app average of (relative EDF² of the paper's best
/// configuration, baseline miss rate) with `cfg_mod` applied to both.
fn average_best(
    engine: &Engine,
    cfg_mod: impl Fn(&mut ClumsyConfig),
    opts: &ExperimentOptions,
) -> (f64, f64) {
    let trace = opts.trace.generate();
    let metric = EdfMetric::paper();
    let mut base_cfg = ClumsyConfig::baseline();
    cfg_mod(&mut base_cfg);
    let mut best_cfg = ClumsyConfig::paper_best();
    cfg_mod(&mut best_cfg);
    // One flat grid: apps x (modified baseline, modified best).
    let aggs = run_grid_on(engine, &app_points(&[base_cfg, best_cfg]), &trace, opts);
    let mut rel = 0.0;
    let mut miss = 0.0;
    for pair in aggs.chunks(2) {
        let (base, best) = (&pair[0], &pair[1]);
        rel += best.edf(&metric) / base.edf(&metric);
        miss += base.runs[0].stats.miss_rate();
    }
    let n = AppKind::all().len() as f64;
    (rel / n, miss / n)
}
