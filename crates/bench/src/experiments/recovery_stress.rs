//! Recovery stress study: what happens when the safety net itself
//! tears. The L2 fault process ([`FaultTargets::l2`]) makes refills,
//! writebacks and — critically — strike refetches fallible, so this
//! sweep compares detection schemes (none / parity / SECDED ECC) while
//! the L2's own clock degrades, and records the six-way outcome
//! taxonomy plus relative EDF² per cell in `recovery_stress.csv`. A
//! second grid ablates the dynamic controller's safe-mode clamp
//! (threshold × hold-epoch hysteresis) under the same degraded L2 and
//! lands in `recovery_safemode.csv`.
//!
//! The fault model is deliberately boosted (~19× the calibrated
//! baseline): at paper rates a strike refetch virtually never meets an
//! L2 fault, and the entire point of this figure is the joint event.

use super::{campaign, canonical_options};
use crate::{f, Table};
use cache_sim::{DetectionScheme, FaultTargets, StrikePolicy};
use clumsy_core::experiment::{run_grid_on, ExperimentOptions, GridPoint};
use clumsy_core::{ClumsyConfig, DynamicConfig, Engine, SafeModeConfig};
use energy_model::EdfMetric;
use fault_model::FaultProbabilityModel;
use netbench::AppKind;

/// Boosted fault model shared by both grids (see module docs).
fn stress_model() -> FaultProbabilityModel {
    FaultProbabilityModel::new(5e-6, fault_model::CALIBRATED_BETA)
}

/// L1 clock for the scheme sweep: the paper's most aggressive point.
const L1_CR: f64 = 0.25;

/// Degrading relative L2 cycle times (1.0 = healthy full swing).
const L2_CYCLES: [f64; 3] = [1.0, 0.5, 0.25];

/// Detection schemes under test: the unprotected one-strike baseline,
/// the paper's parity/two-strike recovery, and the SECDED upgrade.
fn schemes() -> [(&'static str, DetectionScheme, StrikePolicy); 3] {
    [
        ("none", DetectionScheme::None, StrikePolicy::one_strike()),
        (
            "parity",
            DetectionScheme::Parity,
            StrikePolicy::two_strike(),
        ),
        ("ecc", DetectionScheme::Secded, StrikePolicy::two_strike()),
    ]
}

fn stress_config(detection: DetectionScheme, strikes: StrikePolicy, l2_cycle: f64) -> ClumsyConfig {
    ClumsyConfig::baseline()
        .with_fault_model(stress_model())
        .with_detection(detection)
        .with_strikes(strikes)
        .with_static_cycle(L1_CR)
        .with_fault_targets(FaultTargets::data_only().with_l2(true))
        .with_l2_cycle(l2_cycle)
}

/// Both grids. Fails when a job exhausted its retries, and — at the
/// recording scale, where the joint event is expected — when no trial
/// of the sweep classified as recovery-failed.
pub fn run(engine: &Engine, env_opts: &ExperimentOptions) -> Result<Vec<Table>, String> {
    let recording = *env_opts == canonical_options(None);
    let mut opts = env_opts.clone();
    // Outcome *counts* need more resolution than the paper's default
    // three trials; joint strike+L2 events are rare even boosted.
    opts.trials = opts.trials.max(8);
    let opts = &opts;
    let trace = opts.trace.generate();
    let metric = EdfMetric::paper();
    let apps = [AppKind::Route, AppKind::Tl, AppKind::Md5];

    // Scheme × degraded-L2 sweep.
    let mut labels = Vec::new();
    let mut points = Vec::new();
    for app in apps {
        for (scheme, detection, strikes) in schemes() {
            for l2_cycle in L2_CYCLES {
                labels.push((app.name(), scheme, l2_cycle));
                points.push(GridPoint::new(
                    app,
                    stress_config(detection, strikes, l2_cycle),
                ));
            }
        }
    }
    let report = campaign(engine, &points, &trace, opts);
    let baseline_points = apps.map(|app| GridPoint::new(app, ClumsyConfig::baseline()));
    let baselines: Vec<f64> = run_grid_on(engine, &baseline_points, &trace, opts)
        .iter()
        .map(|agg| agg.edf(&metric))
        .collect();

    let mut recovery_failed_total = 0u64;
    let rows: Vec<Vec<String>> = labels
        .iter()
        .zip(&report.aggregates)
        .enumerate()
        .map(|(i, (&(app, scheme, l2_cycle), agg))| {
            let c = agg.outcome_counts();
            recovery_failed_total += c.recovery_failed;
            let rel = agg.edf(&metric) / baselines[i / (schemes().len() * L2_CYCLES.len())];
            vec![
                app.to_string(),
                scheme.to_string(),
                format!("{l2_cycle:.2}"),
                c.total().to_string(),
                c.masked.to_string(),
                c.corrected.to_string(),
                c.detected_recovered.to_string(),
                c.detected_fatal.to_string(),
                c.sdc.to_string(),
                c.recovery_failed.to_string(),
                f(c.sdc_rate()),
                f(rel),
            ]
        })
        .collect();

    // Safe-mode ablation: threshold × hold-epoch hysteresis grid under
    // the same degraded L2, against the clamp-free paper controller.
    let mut sm_labels: Vec<(String, Option<SafeModeConfig>)> = vec![("off".to_string(), None)];
    for threshold in [5u64, 10, 20] {
        for hold_epochs in [1u32, 2, 4] {
            sm_labels.push((
                format!("t{threshold}h{hold_epochs}"),
                Some(SafeModeConfig {
                    threshold,
                    hold_epochs,
                }),
            ));
        }
    }
    let sm_app = AppKind::Tl;
    let sm_points: Vec<GridPoint> = sm_labels
        .iter()
        .map(|(_, sm)| {
            let mut dynamic = DynamicConfig::paper();
            if let Some(sm) = sm {
                dynamic = dynamic.with_safe_mode(*sm);
            }
            GridPoint::new(
                sm_app,
                stress_config(DetectionScheme::Parity, StrikePolicy::two_strike(), 0.5)
                    .with_dynamic(dynamic),
            )
        })
        .collect();
    let sm_report = campaign(engine, &sm_points, &trace, opts);
    let sm_baseline = baselines[apps.iter().position(|&a| a == sm_app).expect("tl is swept")];
    let sm_rows: Vec<Vec<String>> = sm_labels
        .iter()
        .zip(&sm_report.aggregates)
        .map(|((variant, sm), agg)| {
            let c = agg.outcome_counts();
            let switches = agg.runs.iter().map(|r| r.stats.freq_switches).sum::<u64>() as f64
                / agg.runs.len().max(1) as f64;
            vec![
                variant.clone(),
                sm.map_or("-".into(), |s| s.threshold.to_string()),
                sm.map_or("-".into(), |s| s.hold_epochs.to_string()),
                c.total().to_string(),
                f(switches),
                f(agg.delay_per_packet()),
                f(agg.fallibility()),
                f(agg.edf(&metric) / sm_baseline),
                c.sdc.to_string(),
                c.recovery_failed.to_string(),
            ]
        })
        .collect();

    let mut failures = Vec::new();
    for (r, total) in [(&report, labels.len()), (&sm_report, sm_labels.len())] {
        if !r.is_complete() {
            failures.push(format!("{} of {} jobs failed", r.failures.len(), total));
        }
    }
    let mut notes = vec![format!(
        "recovery-failed trials across the sweep: {recovery_failed_total}"
    )];
    if recovery_failed_total == 0 {
        let problem = "stress sweep produced no recovery-failed trial — rates too low?";
        if recording {
            failures.push(problem.to_string());
        } else {
            notes.push(format!("checked only at the recording options: {problem}"));
        }
    }
    if !failures.is_empty() {
        return Err(failures.join("\n"));
    }
    Ok(vec![
        Table::new(
            "recovery_stress.csv",
            "Outcome taxonomy under a degrading L2 (boosted faults, Cr=0.25)",
            &[
                "app",
                "scheme",
                "l2_cycle",
                "trials",
                "masked",
                "corrected",
                "detected_recovered",
                "detected_fatal",
                "sdc",
                "recovery_failed",
                "sdc_rate",
                "rel_edf2",
            ],
            rows,
        )
        .with_notes(notes),
        Table::new(
            "recovery_safemode.csv",
            "Safe-mode clamp ablation (tl, dynamic plan, degraded L2 @ 0.50)",
            &[
                "variant",
                "threshold",
                "hold_epochs",
                "trials",
                "avg_freq_switches",
                "avg_cycles_per_packet",
                "avg_fallibility",
                "avg_rel_edf2",
                "sdc",
                "recovery_failed",
            ],
            sm_rows,
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use cache_sim::{MemConfig, MemSystem};
    use clumsy_core::TrialOutcome;
    use netbench::TraceConfig;

    /// The L2 fault process injects, and a one-strike refetch can pull
    /// the corruption back in: recovery failures fire.
    #[test]
    fn l2_faults_reach_strike_refetches() {
        let cfg = MemConfig::strongarm()
            .with_detection(DetectionScheme::Parity)
            .with_strikes(StrikePolicy::one_strike())
            .with_targets(FaultTargets::data_only().with_l2(true))
            .with_l2_cycle(0.25)
            .with_fault_model(FaultProbabilityModel::new(0.02, 0.0));
        let mut m = MemSystem::new(cfg, 0xBAD5EED);
        for i in 0..64u32 {
            m.host_write_u32(i * 4, i).unwrap();
        }
        for i in 0..40_000u64 {
            let _ = m.read_u32(((i % 64) * 4) as u32).unwrap();
        }
        let s = *m.stats();
        assert!(s.l2_faults_injected > 0, "L2 process never injected");
        assert!(
            s.recovery_failures > 0,
            "no strike refetch met an L2 fault: {s:?}"
        );
    }

    /// ECC corrects in place on a real application run, and a run with
    /// failed refetches classifies as recovery_failed, not SDC.
    #[test]
    fn ecc_corrects_and_failed_refetches_classify_as_recovery_failed() {
        let opts = ExperimentOptions {
            trace: TraceConfig::small().with_packets(60),
            trials: 1,
            seed: 0x5EED,
        };
        let trace = opts.trace.generate();
        let engine = Engine::with_jobs(1);
        let run_one = |kind, cfg: ClumsyConfig| {
            run_grid_on(&engine, &[GridPoint::new(kind, cfg)], &trace, &opts)
                .pop()
                .expect("one point in, one aggregate out")
        };
        let hot = FaultProbabilityModel::new(2e-4, fault_model::CALIBRATED_BETA);
        let ecc = run_one(
            AppKind::Crc,
            stress_config(DetectionScheme::Secded, StrikePolicy::two_strike(), 1.0)
                .with_fault_model(hot),
        );
        assert!(
            ecc.runs[0].stats.faults_corrected > 0,
            "ECC corrected nothing: {:?}",
            ecc.runs[0].stats
        );

        let recovery_failed_seen = (0..8u64).any(|seed| {
            let cfg = stress_config(DetectionScheme::Parity, StrikePolicy::one_strike(), 0.25)
                .with_fault_model(hot)
                .with_watchdog()
                .with_seed(seed);
            let run = &run_one(AppKind::Route, cfg).runs[0];
            let failed = run.outcome() == TrialOutcome::RecoveryFailed;
            if failed {
                assert!(run.stats.recovery_failures > 0);
                assert_ne!(run.outcome().label(), "sdc");
            }
            failed
        });
        assert!(
            recovery_failed_seen,
            "no seed produced a recovery_failed outcome"
        );
    }
}
