//! Access and fault statistics for a simulation run.

use std::fmt;

/// Counters collected by [`MemSystem`](crate::MemSystem).
///
/// All counters are cumulative from construction or the last
/// [`MemStats::reset`]. Fields are public passive data; higher layers
/// snapshot and diff them per packet/epoch.
///
/// # Examples
///
/// ```
/// use cache_sim::MemStats;
///
/// let mut s = MemStats::default();
/// s.l1_hits = 90;
/// s.l1_misses = 10;
/// assert!((s.miss_rate() - 0.1).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemStats {
    /// Program-visible read accesses to the L1 data cache.
    pub reads: u64,
    /// Program-visible write accesses to the L1 data cache.
    pub writes: u64,
    /// L1 lookups that hit.
    pub l1_hits: u64,
    /// L1 lookups that missed (refills from L2).
    pub l1_misses: u64,
    /// L2 accesses (refills, strike fallbacks and writebacks).
    pub l2_accesses: u64,
    /// L2 misses (served from backing memory).
    pub l2_misses: u64,
    /// Fault events injected into accesses.
    pub faults_injected: u64,
    /// Fault events injected into the tag array (opt-in
    /// [`FaultTargets::tag`](crate::FaultTargets) only).
    pub tag_faults_injected: u64,
    /// Fault events injected into stored parity signatures (opt-in
    /// [`FaultTargets::parity`](crate::FaultTargets) only).
    pub parity_faults_injected: u64,
    /// Fault events injected into words flowing to or from the level-2
    /// data array (opt-in [`FaultTargets::l2`](crate::FaultTargets)
    /// only): refills, strike refetches and writebacks.
    pub l2_faults_injected: u64,
    /// Faults flagged by the detection code.
    pub faults_detected: u64,
    /// Faults corrected in place by ECC (single-bit under
    /// [`DetectionScheme::Secded`](crate::DetectionScheme); disjoint
    /// from `faults_detected`, which counts detect-only events).
    pub faults_corrected: u64,
    /// Strike refetches that pulled a corrupted word out of the L2 —
    /// recovery itself failed and re-deposited bad data as "truth".
    pub recovery_failures: u64,
    /// Fault events that escaped detection (either no detection hardware
    /// or an even-weight corruption) and reached the program or the
    /// stored state.
    pub faults_undetected: u64,
    /// L1 retry reads performed by multi-strike recovery.
    pub strike_retries: u64,
    /// Block invalidations triggered by strike exhaustion.
    pub strike_invalidations: u64,
    /// Dirty lines written back (to L2/backing).
    pub writebacks: u64,
    /// Dirty data dropped by strike invalidations (potential lost
    /// updates, the "incorrect accesses to the level 2 cache" of §5.4).
    pub dirty_drops: u64,
    /// Cache clock-frequency switches.
    pub freq_switches: u64,
    /// Accesses served by the batched fault-free fast path (hit, line
    /// not suspect, inside a skip-ahead gap): no RNG draw, no check-code
    /// work. Timing, energy and results are bitwise identical to the
    /// slow path; the split is purely diagnostic.
    pub fast_forward_accesses: u64,
    /// Accesses outside the fault-free fast path (misses, fault
    /// arrivals, suspect lines, opt-in aux targets, persistent sites, or
    /// the exact per-access sampler). The split is by configuration and
    /// says nothing about an access's cost: a read where nothing fires
    /// skips all check-code work, and under persistent sites every hit
    /// inside a skip-ahead gap takes the fast lane (each read with its
    /// own site draw) yet is counted here.
    pub slow_path_accesses: u64,
    /// Ways mapped out by the opt-in way-disabling escalation
    /// ([`WayDisablePolicy`](crate::WayDisablePolicy)) or by an explicit
    /// [`MemSystem::disable_way`](crate::MemSystem) call.
    pub ways_disabled: u64,
    /// Dirty lines rescued through the writeback path at the moment
    /// their way was mapped out (data that strike-forever would have
    /// dropped or kept corrupting).
    pub salvage_writebacks: u64,
    /// Accesses to fully mapped-out sets serviced straight from the L2
    /// at L2 cost (the degraded-but-never-wedged path).
    pub bypass_accesses: u64,
}

impl MemStats {
    /// Creates zeroed counters.
    pub fn new() -> Self {
        MemStats::default()
    }

    /// Total program-visible L1 accesses.
    pub fn accesses(&self) -> u64 {
        self.reads + self.writes
    }

    /// L1 miss rate over program-visible accesses (0 if none).
    pub fn miss_rate(&self) -> f64 {
        let lookups = self.l1_hits + self.l1_misses;
        if lookups == 0 {
            0.0
        } else {
            self.l1_misses as f64 / lookups as f64
        }
    }

    /// Zeroes every counter.
    pub fn reset(&mut self) {
        *self = MemStats::default();
    }

    /// Component-wise difference `self − earlier` (for per-epoch deltas).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `earlier` has larger counters.
    pub fn since(&self, earlier: &MemStats) -> MemStats {
        MemStats {
            reads: self.reads - earlier.reads,
            writes: self.writes - earlier.writes,
            l1_hits: self.l1_hits - earlier.l1_hits,
            l1_misses: self.l1_misses - earlier.l1_misses,
            l2_accesses: self.l2_accesses - earlier.l2_accesses,
            l2_misses: self.l2_misses - earlier.l2_misses,
            faults_injected: self.faults_injected - earlier.faults_injected,
            tag_faults_injected: self.tag_faults_injected - earlier.tag_faults_injected,
            parity_faults_injected: self.parity_faults_injected - earlier.parity_faults_injected,
            l2_faults_injected: self.l2_faults_injected - earlier.l2_faults_injected,
            faults_detected: self.faults_detected - earlier.faults_detected,
            faults_corrected: self.faults_corrected - earlier.faults_corrected,
            recovery_failures: self.recovery_failures - earlier.recovery_failures,
            faults_undetected: self.faults_undetected - earlier.faults_undetected,
            strike_retries: self.strike_retries - earlier.strike_retries,
            strike_invalidations: self.strike_invalidations - earlier.strike_invalidations,
            writebacks: self.writebacks - earlier.writebacks,
            dirty_drops: self.dirty_drops - earlier.dirty_drops,
            freq_switches: self.freq_switches - earlier.freq_switches,
            fast_forward_accesses: self.fast_forward_accesses - earlier.fast_forward_accesses,
            slow_path_accesses: self.slow_path_accesses - earlier.slow_path_accesses,
            ways_disabled: self.ways_disabled - earlier.ways_disabled,
            salvage_writebacks: self.salvage_writebacks - earlier.salvage_writebacks,
            bypass_accesses: self.bypass_accesses - earlier.bypass_accesses,
        }
    }
}

impl fmt::Display for MemStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} accesses ({} rd, {} wr), miss rate {:.2}%, {} faults ({} detected), {} retries, {} invalidations",
            self.accesses(),
            self.reads,
            self.writes,
            self.miss_rate() * 100.0,
            self.faults_injected,
            self.faults_detected,
            self.strike_retries,
            self.strike_invalidations,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_rate_handles_empty() {
        assert_eq!(MemStats::default().miss_rate(), 0.0);
    }

    #[test]
    fn accesses_sum_reads_and_writes() {
        let s = MemStats {
            reads: 3,
            writes: 4,
            ..Default::default()
        };
        assert_eq!(s.accesses(), 7);
    }

    #[test]
    fn since_subtracts_fieldwise() {
        let a = MemStats {
            reads: 10,
            faults_injected: 5,
            ..Default::default()
        };
        let b = MemStats {
            reads: 4,
            faults_injected: 2,
            ..Default::default()
        };
        let d = a.since(&b);
        assert_eq!(d.reads, 6);
        assert_eq!(d.faults_injected, 3);
    }

    #[test]
    fn reset_zeroes() {
        let mut s = MemStats {
            writes: 9,
            ..Default::default()
        };
        s.reset();
        assert_eq!(s, MemStats::default());
    }

    #[test]
    fn display_has_key_numbers() {
        let s = MemStats {
            reads: 1,
            writes: 1,
            l1_hits: 1,
            l1_misses: 1,
            ..Default::default()
        };
        let text = format!("{s}");
        assert!(text.contains("2 accesses"));
        assert!(text.contains("50.00%"));
    }
}
