//! Six-way fault-outcome taxonomy for differential trials.
//!
//! Every measured run is compared word-for-word against its golden
//! (fault-free) twin, so each trial can be bucketed by *what the faults
//! actually did to the program*, in the style of the SDC literature:
//!
//! * [`TrialOutcome::Masked`] — faults (if any) never reached an
//!   architecturally observable value; the run matches golden exactly.
//! * [`TrialOutcome::Corrected`] — ECC repaired at least one fault in
//!   place, and the run matches golden with no detect-only event.
//! * [`TrialOutcome::DetectedRecovered`] — detection hardware flagged at
//!   least one fault and the recovery machinery (strikes, L2 restore,
//!   watchdog containment) returned the run to a golden-identical state.
//! * [`TrialOutcome::DetectedFatal`] — the run hit a fatal error (or the
//!   watchdog dropped packets to contain one) but produced no silently
//!   wrong output: the failure is *visible* to the system.
//! * [`TrialOutcome::SilentDataCorruption`] — some packet observation or
//!   initialization table differed from golden with nothing raising an
//!   alarm for it.
//! * [`TrialOutcome::RecoveryFailed`] — the worst bucket: a strike
//!   refetch pulled a corrupted word out of the fallible L2, so the
//!   *recovery path itself* deposited bad data as trusted truth.
//!
//! Classification is most-severe-wins: a run that both dropped a packet
//! and emitted a wrong observation is SDC, not DetectedFatal; a run
//! whose refetch failed is RecoveryFailed even if it also corrupted
//! silently elsewhere.

use crate::report::RunReport;
use std::fmt;
use std::ops::{Add, AddAssign};

/// Outcome class of one differential (measured vs. golden) trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TrialOutcome {
    /// No architecturally visible deviation from the golden run.
    Masked,
    /// ECC corrected every observed fault in place; output matches
    /// golden and nothing needed the strike path.
    Corrected,
    /// Faults were detected and fully recovered; output matches golden.
    DetectedRecovered,
    /// The run failed *visibly* (fatal error or watchdog-dropped
    /// packets) without emitting wrong output.
    DetectedFatal,
    /// Output differed from golden with no alarm tied to it.
    SilentDataCorruption,
    /// A strike refetch pulled a corrupted word from the fallible L2:
    /// the recovery machinery itself laundered bad data into trusted
    /// state.
    RecoveryFailed,
}

impl TrialOutcome {
    /// Stable machine-readable label (CSV/JSON field names).
    pub fn label(&self) -> &'static str {
        match self {
            TrialOutcome::Masked => "masked",
            TrialOutcome::Corrected => "corrected",
            TrialOutcome::DetectedRecovered => "detected_recovered",
            TrialOutcome::DetectedFatal => "detected_fatal",
            TrialOutcome::SilentDataCorruption => "sdc",
            TrialOutcome::RecoveryFailed => "recovery_failed",
        }
    }

    /// Short human label (progress lines and table headers).
    pub fn short_label(&self) -> &'static str {
        match self {
            TrialOutcome::Masked => "masked",
            TrialOutcome::Corrected => "corrected",
            TrialOutcome::DetectedRecovered => "recovered",
            TrialOutcome::DetectedFatal => "fatal",
            TrialOutcome::SilentDataCorruption => "sdc",
            TrialOutcome::RecoveryFailed => "rec_fail",
        }
    }

    /// All outcomes, least to most severe. The one definition of
    /// outcome order; telemetry's tallies follow it.
    pub const fn all() -> [TrialOutcome; 6] {
        [
            TrialOutcome::Masked,
            TrialOutcome::Corrected,
            TrialOutcome::DetectedRecovered,
            TrialOutcome::DetectedFatal,
            TrialOutcome::SilentDataCorruption,
            TrialOutcome::RecoveryFailed,
        ]
    }

    /// Classifies a finished run, most severe bucket first.
    ///
    /// RecoveryFailed needs a failed L2 refetch (classified distinctly
    /// from plain SDC because the *mechanism* differs: the safety net
    /// itself tore); SDC needs any wrong packet observation or
    /// initialization-table sample; DetectedFatal needs a fatal error or
    /// watchdog drops; DetectedRecovered needs at least one detect-only
    /// event; Corrected needs at least one ECC in-place correction;
    /// everything else is Masked.
    pub fn classify(report: &RunReport) -> TrialOutcome {
        if report.stats.recovery_failures > 0 {
            TrialOutcome::RecoveryFailed
        } else if report.erroneous_packets > 0 || report.init_obs_wrong > 0 {
            TrialOutcome::SilentDataCorruption
        } else if report.fatal.is_some() || report.dropped_packets > 0 {
            TrialOutcome::DetectedFatal
        } else if report.stats.faults_detected > 0 {
            TrialOutcome::DetectedRecovered
        } else if report.stats.faults_corrected > 0 {
            TrialOutcome::Corrected
        } else {
            TrialOutcome::Masked
        }
    }
}

impl fmt::Display for TrialOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl RunReport {
    /// This run's [`TrialOutcome`] bucket (see
    /// [`TrialOutcome::classify`]).
    pub fn outcome(&self) -> TrialOutcome {
        TrialOutcome::classify(self)
    }
}

/// Trial counts per outcome class for one design point.
///
/// # Examples
///
/// ```
/// use clumsy_core::{OutcomeCounts, TrialOutcome};
///
/// let mut c = OutcomeCounts::default();
/// c.record(TrialOutcome::Masked);
/// c.record(TrialOutcome::SilentDataCorruption);
/// assert_eq!(c.total(), 2);
/// assert!((c.sdc_rate() - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OutcomeCounts {
    /// Trials with no visible deviation.
    pub masked: u64,
    /// Trials where ECC corrected every fault in place.
    pub corrected: u64,
    /// Trials detected and fully recovered.
    pub detected_recovered: u64,
    /// Trials that failed visibly without wrong output.
    pub detected_fatal: u64,
    /// Trials with silent data corruption.
    pub sdc: u64,
    /// Trials where a strike refetch pulled corrupted data from the L2.
    pub recovery_failed: u64,
}

impl OutcomeCounts {
    /// Tallies one trial in the given bucket. (Named `record` rather
    /// than `add` so the `Copy` + [`Add`] impl cannot shadow it during
    /// method resolution.)
    pub fn record(&mut self, outcome: TrialOutcome) {
        match outcome {
            TrialOutcome::Masked => self.masked += 1,
            TrialOutcome::Corrected => self.corrected += 1,
            TrialOutcome::DetectedRecovered => self.detected_recovered += 1,
            TrialOutcome::DetectedFatal => self.detected_fatal += 1,
            TrialOutcome::SilentDataCorruption => self.sdc += 1,
            TrialOutcome::RecoveryFailed => self.recovery_failed += 1,
        }
    }

    /// Count in the given bucket.
    pub fn get(&self, outcome: TrialOutcome) -> u64 {
        match outcome {
            TrialOutcome::Masked => self.masked,
            TrialOutcome::Corrected => self.corrected,
            TrialOutcome::DetectedRecovered => self.detected_recovered,
            TrialOutcome::DetectedFatal => self.detected_fatal,
            TrialOutcome::SilentDataCorruption => self.sdc,
            TrialOutcome::RecoveryFailed => self.recovery_failed,
        }
    }

    /// Total classified trials.
    pub fn total(&self) -> u64 {
        self.masked
            + self.corrected
            + self.detected_recovered
            + self.detected_fatal
            + self.sdc
            + self.recovery_failed
    }

    /// Fraction of trials that corrupted data silently (0 if no trials).
    pub fn sdc_rate(&self) -> f64 {
        if self.total() == 0 {
            0.0
        } else {
            self.sdc as f64 / self.total() as f64
        }
    }

    /// Classifies and tallies every run in a slice.
    pub fn from_runs<'a, I>(runs: I) -> OutcomeCounts
    where
        I: IntoIterator<Item = &'a RunReport>,
    {
        let mut counts = OutcomeCounts::default();
        for run in runs {
            counts.record(run.outcome());
        }
        counts
    }
}

impl Add for OutcomeCounts {
    type Output = OutcomeCounts;

    fn add(self, rhs: OutcomeCounts) -> OutcomeCounts {
        OutcomeCounts {
            masked: self.masked + rhs.masked,
            corrected: self.corrected + rhs.corrected,
            detected_recovered: self.detected_recovered + rhs.detected_recovered,
            detected_fatal: self.detected_fatal + rhs.detected_fatal,
            sdc: self.sdc + rhs.sdc,
            recovery_failed: self.recovery_failed + rhs.recovery_failed,
        }
    }
}

impl AddAssign for OutcomeCounts {
    fn add_assign(&mut self, rhs: OutcomeCounts) {
        *self = *self + rhs;
    }
}

impl fmt::Display for OutcomeCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} masked, {} corrected, {} recovered, {} fatal, {} SDC, {} recovery-failed ({} trials)",
            self.masked,
            self.corrected,
            self.detected_recovered,
            self.detected_fatal,
            self.sdc,
            self.recovery_failed,
            self.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::FatalInfo;
    use cache_sim::MemStats;
    use energy_model::EnergyBreakdown;
    use std::collections::BTreeMap;

    fn blank() -> RunReport {
        RunReport {
            app: "test",
            packets_attempted: 100,
            packets_completed: 100,
            fatal: None,
            dropped_packets: 0,
            erroneous_packets: 0,
            error_counts: BTreeMap::new(),
            init_obs_total: 8,
            init_obs_wrong: 0,
            instructions: 1000,
            cycles: 5000.0,
            energy: EnergyBreakdown::default(),
            stats: MemStats::default(),
            freq_trace: Vec::new(),
            epoch_faults: Vec::new(),
        }
    }

    #[test]
    fn clean_run_is_masked() {
        assert_eq!(blank().outcome(), TrialOutcome::Masked);
    }

    #[test]
    fn detections_without_deviation_are_recovered() {
        let mut r = blank();
        r.stats.faults_detected = 3;
        assert_eq!(r.outcome(), TrialOutcome::DetectedRecovered);
    }

    #[test]
    fn fatal_and_drops_classify_as_detected_fatal() {
        let mut r = blank();
        r.fatal = Some(FatalInfo {
            packet_index: 1,
            error: netbench::AppError::Fatal(netbench::FatalError::FuelExhausted { budget: 1 }),
        });
        assert_eq!(r.outcome(), TrialOutcome::DetectedFatal);

        let mut r = blank();
        r.dropped_packets = 2;
        assert_eq!(r.outcome(), TrialOutcome::DetectedFatal);
    }

    #[test]
    fn wrong_output_wins_over_everything() {
        let mut r = blank();
        r.erroneous_packets = 1;
        r.dropped_packets = 5;
        r.stats.faults_detected = 9;
        assert_eq!(r.outcome(), TrialOutcome::SilentDataCorruption);

        let mut r = blank();
        r.init_obs_wrong = 1;
        assert_eq!(r.outcome(), TrialOutcome::SilentDataCorruption);
    }

    #[test]
    fn corrections_alone_classify_as_corrected() {
        let mut r = blank();
        r.stats.faults_corrected = 4;
        assert_eq!(r.outcome(), TrialOutcome::Corrected);

        // Any detect-only event outranks pure correction.
        r.stats.faults_detected = 1;
        assert_eq!(r.outcome(), TrialOutcome::DetectedRecovered);
    }

    #[test]
    fn failed_refetch_outranks_even_sdc() {
        let mut r = blank();
        r.stats.recovery_failures = 1;
        assert_eq!(r.outcome(), TrialOutcome::RecoveryFailed);

        r.erroneous_packets = 3;
        r.dropped_packets = 2;
        r.stats.faults_detected = 7;
        assert_eq!(r.outcome(), TrialOutcome::RecoveryFailed);
    }

    #[test]
    fn counts_tally_and_sum() {
        let mut sdc = blank();
        sdc.erroneous_packets = 1;
        let mut rec = blank();
        rec.stats.faults_detected = 1;
        let runs = [blank(), sdc, rec, blank()];
        let c = OutcomeCounts::from_runs(runs.iter());
        assert_eq!(c.masked, 2);
        assert_eq!(c.detected_recovered, 1);
        assert_eq!(c.sdc, 1);
        assert_eq!(c.total(), 4);
        assert!((c.sdc_rate() - 0.25).abs() < 1e-12);
        let doubled = c + c;
        assert_eq!(doubled.total(), 8);
        for o in TrialOutcome::all() {
            assert_eq!(doubled.get(o), 2 * c.get(o));
        }
    }

    #[test]
    fn labels_are_stable() {
        let labels: Vec<&str> = TrialOutcome::all().iter().map(|o| o.label()).collect();
        assert_eq!(
            labels,
            [
                "masked",
                "corrected",
                "detected_recovered",
                "detected_fatal",
                "sdc",
                "recovery_failed"
            ]
        );
        assert_eq!(format!("{}", TrialOutcome::Masked), "masked");
    }

    #[test]
    fn display_counts() {
        let mut c = OutcomeCounts::default();
        c.record(TrialOutcome::Masked);
        assert!(format!("{c}").contains("1 masked"));
    }
}
