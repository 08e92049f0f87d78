//! Fault-detection and recovery policies (paper §4).

use std::fmt;

/// Whether the level-1 data cache carries a fault-detection code.
///
/// The paper compares an unprotected cache against one with a single
/// even-parity bit per 32-bit word. Error *correction* (Hamming codes)
/// is explicitly out of scope — "unnecessary complication on the design
/// and energy consumption".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DetectionScheme {
    /// No detection: corrupted values flow straight into the program.
    #[default]
    None,
    /// One even-parity bit per aligned 32-bit word. Detects odd-weight
    /// corruptions; even-weight corruptions escape. Costs +23 % read /
    /// +36 % write energy on the L1 (see [`energy_model::ParityOverhead`]).
    Parity,
    /// One even-parity bit per *byte* (four per word) — a finer-grained
    /// extension: a two-bit fault is detected unless both flips land in
    /// the same byte, closing most of word-parity's even-weight hole at
    /// ~10 % extra detection energy.
    ParityPerByte,
    /// SECDED ECC: a (39,32) extended-Hamming code per aligned word
    /// (the word-sized analogue of the classic (72,64) DRAM code).
    /// Corrects any single-bit fault in place, detects any double-bit
    /// fault (which then takes the strike/refetch path); triple-bit
    /// faults can alias to a miscorrection. The paper dismisses
    /// correction as an "unnecessary complication"; this scheme prices
    /// that claim (see [`energy_model::EccOverhead`]) — and matters once
    /// the L2 refetch path is itself fallible.
    Secded,
}

impl DetectionScheme {
    /// Whether any detection hardware is present.
    pub fn is_enabled(&self) -> bool {
        !matches!(self, DetectionScheme::None)
    }
}

impl fmt::Display for DetectionScheme {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectionScheme::None => write!(f, "no detection"),
            DetectionScheme::Parity => write!(f, "parity"),
            DetectionScheme::ParityPerByte => write!(f, "byte-parity"),
            DetectionScheme::Secded => write!(f, "ecc"),
        }
    }
}

/// Which SRAM arrays fault injection targets.
///
/// The paper injects into the L1 **data** array only, but the tag array
/// and the parity bits are built from the same over-clocked SRAM. A
/// flipped *tag* bit makes a resident line unreachable under its true
/// address (a false miss — and, if the line was dirty, a writeback to
/// the aliased address) or lets another address false-hit stale data. A
/// flipped *parity* bit either raises a false strike on clean data or
/// cancels a genuine data fault, turning a detectable corruption into a
/// silent one. The *l2* target makes the level-2 data array fallible at
/// its own clock's voltage swing (see
/// [`MemConfig::l2_cycle`](crate::MemConfig::l2_cycle)), so strike refetches and writebacks can return
/// or deposit corrupted words — recovery itself can then fail.
///
/// The default is data-only: the extra targets are opt-in so the
/// recorded reproduction numbers stay bitwise stable (no additional
/// randomness is drawn while they are off).
///
/// # Examples
///
/// ```
/// use cache_sim::FaultTargets;
///
/// let t = FaultTargets::default();
/// assert!(t.data && !t.tag && !t.parity && !t.l2);
/// let all = FaultTargets::all();
/// assert!(all.tag && all.parity && all.l2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultTargets {
    /// Inject into the data array (the paper's model).
    pub data: bool,
    /// Also inject into the tag array consulted by every lookup.
    pub tag: bool,
    /// Also inject into the stored detection code read alongside each
    /// word (only meaningful when a [`DetectionScheme`] is enabled).
    pub parity: bool,
    /// Also inject into the level-2 data array, at the per-bit
    /// probability of the L2's own clock.
    pub l2: bool,
}

impl FaultTargets {
    /// The paper's model: data array only.
    pub fn data_only() -> Self {
        FaultTargets {
            data: true,
            tag: false,
            parity: false,
            l2: false,
        }
    }

    /// Every array: data, tag, parity and the L2 data array.
    pub fn all() -> Self {
        FaultTargets {
            data: true,
            tag: true,
            parity: true,
            l2: true,
        }
    }

    /// Returns the targets with tag-array injection switched.
    pub fn with_tag(mut self, tag: bool) -> Self {
        self.tag = tag;
        self
    }

    /// Returns the targets with parity-bit injection switched.
    pub fn with_parity(mut self, parity: bool) -> Self {
        self.parity = parity;
        self
    }

    /// Returns the targets with L2 data-array injection switched.
    pub fn with_l2(mut self, l2: bool) -> Self {
        self.l2 = l2;
        self
    }
}

impl Default for FaultTargets {
    fn default() -> Self {
        FaultTargets::data_only()
    }
}

impl fmt::Display for FaultTargets {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.data {
            parts.push("data");
        }
        if self.tag {
            parts.push("tag");
        }
        if self.parity {
            parts.push("parity");
        }
        if self.l2 {
            parts.push("l2");
        }
        if parts.is_empty() {
            parts.push("none");
        }
        f.write_str(&parts.join("+"))
    }
}

/// Granularity of the state discarded when the strike policy gives up
/// and restores from L2.
///
/// The paper's footnote 2: *"If the cache has sub-blocks, only the
/// corresponding portions of the cache block can be invalidated and
/// accessed from the level 2 cache. However, in this paper we do not
/// study such cache structures."* — [`RecoveryGranularity::Word`]
/// implements exactly that deferred design: only the faulty 32-bit word
/// is repaired from L2, preserving the rest of the (possibly dirty)
/// line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RecoveryGranularity {
    /// Invalidate the whole cache line (the paper's evaluated design).
    #[default]
    Line,
    /// Repair only the faulty word in place (the footnote-2 extension).
    Word,
}

impl fmt::Display for RecoveryGranularity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryGranularity::Line => write!(f, "line"),
            RecoveryGranularity::Word => write!(f, "word"),
        }
    }
}

/// Recovery policy applied when parity detects a fault on a level-1
/// read (paper §4).
///
/// A fault may have happened during the read (the stored data is fine)
/// or during an earlier write (the stored data is bad); the hardware
/// cannot tell which. A *k*-strike policy re-reads the L1 up to `k − 1`
/// times; if a fault is still detected on the `k`-th attempt it assumes
/// a write fault, invalidates the block, and fetches from the level-2
/// cache:
///
/// * **one-strike** — invalidate on the first detection,
/// * **two-strike** — retry once, then invalidate,
/// * **three-strike** — retry twice, then invalidate.
///
/// # Examples
///
/// ```
/// use cache_sim::StrikePolicy;
///
/// assert_eq!(StrikePolicy::one_strike().max_attempts(), 1);
/// assert_eq!(StrikePolicy::two_strike().max_attempts(), 2);
/// assert_eq!(StrikePolicy::three_strike().retries(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StrikePolicy {
    strikes: u8,
}

impl StrikePolicy {
    /// Invalidate on the first detected fault.
    pub fn one_strike() -> Self {
        StrikePolicy { strikes: 1 }
    }

    /// Retry the L1 once before invalidating.
    pub fn two_strike() -> Self {
        StrikePolicy { strikes: 2 }
    }

    /// Retry the L1 twice before invalidating.
    pub fn three_strike() -> Self {
        StrikePolicy { strikes: 3 }
    }

    /// A policy with a custom strike count.
    ///
    /// # Panics
    ///
    /// Panics if `strikes` is zero or greater than 8.
    pub fn with_strikes(strikes: u8) -> Self {
        assert!(
            (1..=8).contains(&strikes),
            "strike count must be in 1..=8, got {strikes}"
        );
        StrikePolicy { strikes }
    }

    /// Total L1 read attempts before falling back to L2.
    pub fn max_attempts(&self) -> u8 {
        self.strikes
    }

    /// Number of retries after the first detection.
    pub fn retries(&self) -> u8 {
        self.strikes - 1
    }

    /// All policies the paper evaluates, in figure order.
    pub fn paper_set() -> [StrikePolicy; 3] {
        [
            StrikePolicy::one_strike(),
            StrikePolicy::two_strike(),
            StrikePolicy::three_strike(),
        ]
    }
}

impl Default for StrikePolicy {
    fn default() -> Self {
        StrikePolicy::two_strike()
    }
}

/// Way-disabling escalation: the fourth reliability scheme, layered on
/// top of a [`StrikePolicy`].
///
/// The strike policies assume every fault is transient — a faulty word
/// is refetched from L2 forever. Under a *persistent* fault site that
/// assumption loops: the same slot strikes out on every access. This
/// policy watches strike invalidations per physical `(set, way)` slot;
/// when `strike_threshold` of them land on the same slot within a
/// window of `window_accesses` L1 accesses, the site is classified
/// permanent, its dirty contents are salvaged through the ordinary
/// writeback path, and the way is mapped out for that set
/// ([`DataCache::disable_way`](crate::DataCache)). The cache then runs
/// degraded: victim selection skips the slot, and a fully mapped-out
/// set services its accesses straight from L2 at L2 cost.
///
/// Escalation is pure bookkeeping — it draws no randomness — so
/// enabling it under a purely transient fault process leaves the fault
/// realization untouched (only slots that actually strike out
/// `strike_threshold` times behave differently).
///
/// # Examples
///
/// ```
/// use cache_sim::WayDisablePolicy;
///
/// let p = WayDisablePolicy::default_policy();
/// assert_eq!(p.strike_threshold, 3);
/// let eager = WayDisablePolicy::new(1, 1000);
/// assert_eq!(eager.strike_threshold, 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WayDisablePolicy {
    /// Strike invalidations on the same `(set, way)` slot that classify
    /// the site as permanent.
    pub strike_threshold: u32,
    /// Accesses (reads + writes) within which the strikes must
    /// accumulate; a strike farther than this from the slot's previous
    /// one restarts the count (the site looks transient again).
    pub window_accesses: u64,
}

impl WayDisablePolicy {
    /// A policy with the given threshold and window.
    ///
    /// # Panics
    ///
    /// Panics if `strike_threshold` is zero.
    pub fn new(strike_threshold: u32, window_accesses: u64) -> Self {
        assert!(
            strike_threshold >= 1,
            "strike threshold must be at least 1, got {strike_threshold}"
        );
        WayDisablePolicy {
            strike_threshold,
            window_accesses,
        }
    }

    /// Default escalation: three strike invalidations on the same slot
    /// within 100k accesses. Tight enough to catch a hard site within a
    /// few packets, loose enough that independent transient faults
    /// (whose per-slot recurrence within any window is vanishingly rare
    /// at paper fault rates) essentially never escalate.
    pub fn default_policy() -> Self {
        WayDisablePolicy::new(3, 100_000)
    }
}

impl Default for WayDisablePolicy {
    fn default() -> Self {
        WayDisablePolicy::default_policy()
    }
}

impl fmt::Display for WayDisablePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "way-disable({} strikes / {} accesses)",
            self.strike_threshold, self.window_accesses
        )
    }
}

impl fmt::Display for StrikePolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.strikes {
            1 => write!(f, "one-strike"),
            2 => write!(f, "two-strike"),
            3 => write!(f, "three-strike"),
            n => write!(f, "{n}-strike"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn named_constructors_match_counts() {
        assert_eq!(StrikePolicy::one_strike().max_attempts(), 1);
        assert_eq!(StrikePolicy::two_strike().max_attempts(), 2);
        assert_eq!(StrikePolicy::three_strike().max_attempts(), 3);
    }

    #[test]
    fn retries_is_attempts_minus_one() {
        for k in 1..=8 {
            let p = StrikePolicy::with_strikes(k);
            assert_eq!(p.retries(), k - 1);
        }
    }

    #[test]
    fn paper_set_is_one_two_three() {
        let set = StrikePolicy::paper_set();
        assert_eq!(set.map(|p| p.max_attempts()), [1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "strike count")]
    fn zero_strikes_rejected() {
        StrikePolicy::with_strikes(0);
    }

    #[test]
    fn display_names() {
        assert_eq!(format!("{}", StrikePolicy::one_strike()), "one-strike");
        assert_eq!(format!("{}", StrikePolicy::two_strike()), "two-strike");
        assert_eq!(format!("{}", StrikePolicy::three_strike()), "three-strike");
        assert_eq!(format!("{}", StrikePolicy::with_strikes(5)), "5-strike");
        assert_eq!(format!("{}", DetectionScheme::None), "no detection");
        assert_eq!(format!("{}", DetectionScheme::Parity), "parity");
        assert_eq!(format!("{}", DetectionScheme::ParityPerByte), "byte-parity");
    }

    #[test]
    fn way_disable_policy_defaults_and_display() {
        let p = WayDisablePolicy::default();
        assert_eq!(p, WayDisablePolicy::default_policy());
        assert_eq!(p.strike_threshold, 3);
        assert_eq!(p.window_accesses, 100_000);
        assert_eq!(format!("{p}"), "way-disable(3 strikes / 100000 accesses)");
    }

    #[test]
    #[should_panic(expected = "strike threshold")]
    fn way_disable_rejects_zero_threshold() {
        WayDisablePolicy::new(0, 100);
    }

    #[test]
    fn recovery_granularity_default_is_line() {
        assert_eq!(RecoveryGranularity::default(), RecoveryGranularity::Line);
        assert_eq!(format!("{}", RecoveryGranularity::Line), "line");
        assert_eq!(format!("{}", RecoveryGranularity::Word), "word");
    }

    #[test]
    fn fault_targets_default_and_labels() {
        assert_eq!(FaultTargets::default(), FaultTargets::data_only());
        assert_eq!(format!("{}", FaultTargets::data_only()), "data");
        assert_eq!(
            format!("{}", FaultTargets::data_only().with_tag(true)),
            "data+tag"
        );
        assert_eq!(format!("{}", FaultTargets::all()), "data+tag+parity+l2");
        assert_eq!(
            format!("{}", FaultTargets::data_only().with_l2(true)),
            "data+l2"
        );
        let none = FaultTargets {
            data: false,
            tag: false,
            parity: false,
            l2: false,
        };
        assert_eq!(format!("{none}"), "none");
    }

    #[test]
    fn detection_default_is_none() {
        assert_eq!(DetectionScheme::default(), DetectionScheme::None);
        assert!(!DetectionScheme::None.is_enabled());
        assert!(DetectionScheme::Parity.is_enabled());
        assert!(DetectionScheme::ParityPerByte.is_enabled());
        assert!(DetectionScheme::Secded.is_enabled());
        assert_eq!(format!("{}", DetectionScheme::Secded), "ecc");
    }
}
