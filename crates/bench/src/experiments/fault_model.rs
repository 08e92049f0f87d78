//! Figures 1(b)–5: the analytic fault model. None of these simulate,
//! so they ignore the engine and the options.

use crate::{f, Table};
use clumsy_core::experiment::ExperimentOptions;
use clumsy_core::Engine;
use fault_model::{
    FaultProbabilityModel, IntegratedFaultModel, SwitchingCensus, VoltageSwingCurve,
};

/// Figure 1(b): relative voltage swing vs relative cycle time.
pub fn fig1b_voltage_swing(_: &Engine, _: &ExperimentOptions) -> Result<Vec<Table>, String> {
    let curve = VoltageSwingCurve::paper();
    let rows: Vec<Vec<String>> = curve
        .series(20)
        .into_iter()
        .map(|(cr, vsr)| vec![f(cr), f(vsr)])
        .collect();
    Ok(vec![Table::new(
        "fig1b_voltage_swing.csv",
        "Figure 1(b): voltage swing vs cycle time",
        &["relative_cycle_time", "relative_voltage_swing"],
        rows,
    )
    .with_notes([format!("model: {curve}")])])
}

/// Figure 2(b): SRAM noise-immunity curves (critical noise amplitude vs
/// pulse duration) at several voltage swings.
pub fn fig2b_noise_immunity(_: &Engine, _: &ExperimentOptions) -> Result<Vec<Table>, String> {
    let model = IntegratedFaultModel::calibrated();
    let family = model.immunity();
    // The paper plots the full swing plus the swings its Figure 1(b)
    // annotates (0.8, 0.6, 0.5, 0.39 of full swing).
    let swings = [1.0, 0.8, 0.6, 0.5, 0.39];
    let mut rows = Vec::new();
    for vsr in swings {
        let curve = family.curve_at_swing(vsr);
        for (dr, ar) in curve.series(0.1, 20) {
            rows.push(vec![f(vsr), f(dr), f(ar)]);
        }
    }
    Ok(vec![Table::new(
        "fig2b_noise_immunity.csv",
        "Figure 2(b): noise-immunity curves per voltage swing",
        &[
            "relative_voltage_swing",
            "relative_noise_duration",
            "critical_noise_amplitude",
        ],
        rows,
    )
    .with_notes([format!("family: {family}")])])
}

/// Figure 3: number of aggressor switching combinations per noise
/// amplitude, with the exponential fit of equation (1).
pub fn fig3_noise_distribution(_: &Engine, _: &ExperimentOptions) -> Result<Vec<Table>, String> {
    let mut rows = Vec::new();
    let mut notes = Vec::new();
    for n in [4u32, 8, 12, 16] {
        let census = SwitchingCensus::enumerate(n);
        let (k1, k2) = census.exponential_fit();
        notes.push(format!(
            "n={n:>2}: cases ~ {k1:.3e} * exp(-{k2:.1} * A)  (eq. (1) fit)"
        ));
        for (amplitude, cases) in census.series() {
            rows.push(vec![n.to_string(), f(amplitude), cases.to_string()]);
        }
    }
    notes.push("saturated continuous pdf (eq. (2)): P(Ar) = 28.8*exp(-28.8*Ar)".to_string());
    Ok(vec![Table::new(
        "fig3_noise_distribution.csv",
        "Figure 3: switching combinations vs noise amplitude",
        &["coupled_lines", "relative_amplitude", "switching_cases"],
        rows,
    )
    .with_notes(notes)])
}

/// Figure 4: per-bit fault probability vs relative voltage swing, from
/// the noise-integration model.
pub fn fig4_fault_vs_swing(_: &Engine, _: &ExperimentOptions) -> Result<Vec<Table>, String> {
    let model = IntegratedFaultModel::calibrated();
    let rows: Vec<Vec<String>> = model
        .swing_series(15)
        .into_iter()
        .map(|(vsr, p)| vec![f(vsr), f(p)])
        .collect();
    Ok(vec![Table::new(
        "fig4_fault_vs_swing.csv",
        "Figure 4: probability of a fault at various voltage levels",
        &["relative_voltage_swing", "fault_probability"],
        rows,
    )
    .with_notes([format!(
        "anchor: P_E(Vsr = 1) = {:.3e} (Shivakumar et al.)",
        model.per_bit_at_swing(1.0)
    )])])
}

/// Figure 5: per-bit fault probability vs relative cycle time — the
/// integration "data" next to the fitted closed form (equation (4) with
/// the calibrated exponent).
pub fn fig5_fault_vs_cycle(_: &Engine, _: &ExperimentOptions) -> Result<Vec<Table>, String> {
    let data = IntegratedFaultModel::calibrated();
    let fitted = data.fit();
    let simulated = FaultProbabilityModel::calibrated();
    let mut rows = Vec::new();
    for i in 0..16 {
        let cr = 0.25 + 0.75 * f64::from(i) / 15.0;
        rows.push(vec![
            f(cr),
            f(data.per_bit_at_cycle(cr)),
            f(fitted.per_bit_at_cycle(cr)),
            f(simulated.per_bit_at_cycle(cr)),
        ]);
    }
    Ok(vec![Table::new(
        "fig5_fault_vs_cycle.csv",
        "Figure 5: probability of a fault at different cycle times",
        &[
            "relative_cycle_time",
            "integrated_data",
            "curve_fit",
            "simulation_model",
        ],
        rows,
    )
    .with_notes([
        format!("fit of the integration data: {fitted}"),
        format!("model used in simulations:   {simulated}"),
        format!(
            "paper's printed eq. (4):     {} (saturates at Fr = 2; see DESIGN.md)",
            FaultProbabilityModel::paper_printed()
        ),
    ])])
}
