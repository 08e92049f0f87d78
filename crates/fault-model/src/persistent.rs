//! Persistent / intermittent fault-site process for degraded-mode studies.
//!
//! The transient Bernoulli process of [`crate::sampler::FaultSampler`]
//! models noise-induced upsets: every access is an independent trial and
//! the stored cell is (on reads) left intact. Real over-clocked arrays
//! additionally develop **persistent** defects — a marginal cell that,
//! once it starts failing, fails on every subsequent access (hard
//! stuck-at) or on a large fraction of them (intermittent). This module
//! provides that second, opt-in process: sticky per-bit fault *sites*
//! keyed by physical array slot.
//!
//! Two properties keep the recorded default digests bitwise intact:
//!
//! * The process is **off by default** (`MemConfig::persistent` is
//!   `None`); nothing is even allocated.
//! * When on, it draws from its **own seeded RNG stream**, derived from
//!   the run seed but independent of the transient sampler's stream —
//!   enabling the persistent process never perturbs the transient fault
//!   realization.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::fmt;

/// Seed-domain separator so the persistent process and the transient
/// sampler derive independent streams from the same run seed.
const PERSISTENT_SEED_SALT: u64 = 0x9E37_79B9_7F4A_7C15;

/// Parameters of the sticky fault-site process.
///
/// # Examples
///
/// ```
/// use fault_model::PersistentSiteConfig;
///
/// let hard = PersistentSiteConfig::hard(1e-4);
/// assert!((hard.duty - 1.0).abs() < 1e-12);
/// let flaky = PersistentSiteConfig::intermittent(1e-4, 0.5);
/// assert!((flaky.duty - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PersistentSiteConfig {
    /// Probability, per access to a slot with no site yet, that the
    /// access activates a new permanent fault site at that slot.
    pub p_site: f64,
    /// Probability that an existing site corrupts a given access:
    /// `1.0` is a hard stuck bit, values below model intermittents.
    pub duty: f64,
}

impl PersistentSiteConfig {
    /// A hard stuck-at process: once a site activates it fires on every
    /// access.
    ///
    /// # Panics
    ///
    /// Panics if `p_site` is not a probability.
    pub fn hard(p_site: f64) -> Self {
        Self::intermittent(p_site, 1.0)
    }

    /// An intermittent process: an activated site fires on each access
    /// with probability `duty`.
    ///
    /// # Panics
    ///
    /// Panics if `p_site` is not in `[0, 1]` or `duty` not in `(0, 1]`.
    pub fn intermittent(p_site: f64, duty: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p_site),
            "site activation probability must be in [0, 1], got {p_site}"
        );
        assert!(
            duty.is_finite() && duty > 0.0 && duty <= 1.0,
            "site duty cycle must be in (0, 1], got {duty}"
        );
        PersistentSiteConfig { p_site, duty }
    }
}

impl fmt::Display for PersistentSiteConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "persistent(p={:.2e}, duty={:.2})",
            self.p_site, self.duty
        )
    }
}

/// The sticky fault-site process itself: a table from physical slot id
/// to the stuck-bit mask that corrupts reads of that slot.
///
/// The caller defines the slot-id space (the cache simulator uses
/// `(set, way, word-offset)` flattened to one integer, so a site follows
/// the physical storage cell, not the address cached in it). Slot ids
/// index a dense table that grows to the largest activated id, so they
/// should be small and dense: array positions, not addresses.
///
/// # Examples
///
/// ```
/// use fault_model::{PersistentFaultProcess, PersistentSiteConfig};
///
/// let mut p = PersistentFaultProcess::new(PersistentSiteConfig::hard(1.0), 42);
/// let mask = p.touch(7, 32);
/// assert_ne!(mask, 0, "p_site = 1 activates on first touch");
/// assert_eq!(p.touch(7, 32), mask, "hard sites are sticky");
/// assert_eq!(p.site_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PersistentFaultProcess {
    cfg: PersistentSiteConfig,
    rng: SmallRng,
    /// `ceil(p_site · 2⁵³)`: an activation draw is `(next_u64() >> 11)`
    /// below it exactly when `gen::<f64>() < p_site`, since that `f64`
    /// is the same 53 bits scaled by 2⁻⁵³ (both scalings exact).
    site_threshold: u64,
    /// Stuck-bit mask per slot id; `0` means no site (a site's mask is
    /// never 0). Sites are only ever added, never removed.
    sites: Vec<u32>,
    site_count: usize,
    firings: u64,
}

impl PersistentFaultProcess {
    /// Creates the process with its own RNG stream derived from the run
    /// seed (salted so it never collides with the transient sampler's
    /// stream for the same seed).
    pub fn new(cfg: PersistentSiteConfig, seed: u64) -> Self {
        PersistentFaultProcess {
            cfg,
            rng: SmallRng::seed_from_u64(seed ^ PERSISTENT_SEED_SALT),
            site_threshold: (cfg.p_site * (1u64 << 53) as f64).ceil() as u64,
            sites: Vec::new(),
            site_count: 0,
            firings: 0,
        }
    }

    /// Registers one access to physical slot `slot` holding `width` bits
    /// and returns the corruption mask this access suffers (`0` = clean).
    ///
    /// If the slot already hosts a site, the site fires with probability
    /// `duty` (always, for a hard process). Otherwise the access may
    /// activate a fresh site with probability `p_site`; an activating
    /// access is itself corrupted.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 32, or if an activating
    /// slot id is too large to index the site table.
    pub fn touch(&mut self, slot: u64, width: u32) -> u32 {
        assert!(
            (1..=32).contains(&width),
            "unsupported slot width {width} (expected 1..=32)"
        );
        let idx = usize::try_from(slot).unwrap_or(usize::MAX);
        let mask = self.sites.get(idx).copied().unwrap_or(0);
        if mask != 0 {
            // A dedicated draw per touch keeps intermittency i.i.d.; a
            // hard site (duty = 1) skips the draw entirely so the common
            // stuck-at case stays cheap.
            if self.cfg.duty >= 1.0 || self.rng.gen::<f64>() < self.cfg.duty {
                self.firings += 1;
                return mask;
            }
            return 0;
        }
        if self.cfg.p_site > 0.0 && self.activation_draw() {
            return self.activate(idx, width);
        }
        0
    }

    /// Registers `n` touches of slots that host no site, exactly as `n`
    /// [`touch`](Self::touch) calls on them would, up to the first that
    /// activates a site: returns that touch's index and the new site's
    /// mask, and draws nothing after it. `slot_of(i)` names the slot of
    /// touch `i` and is only asked for the activating one. This is the
    /// batched form of a sweep over site-free slots: one tight loop of
    /// activation draws, with no per-touch table lookup.
    ///
    /// The caller guarantees that none of the touched slots hosts a site
    /// (see [`hosts_site`](Self::hosts_site)); a touch of a site slot
    /// would have made a duty draw instead.
    ///
    /// # Panics
    ///
    /// As [`touch`](Self::touch).
    pub fn touch_fresh(
        &mut self,
        n: u32,
        width: u32,
        slot_of: impl FnOnce(u32) -> u64,
    ) -> Option<(u32, u32)> {
        assert!(
            (1..=32).contains(&width),
            "unsupported slot width {width} (expected 1..=32)"
        );
        if self.cfg.p_site <= 0.0 {
            return None;
        }
        let i = (0..n).find(|_| self.activation_draw())?;
        let idx = usize::try_from(slot_of(i)).unwrap_or(usize::MAX);
        Some((i, self.activate(idx, width)))
    }

    /// Whether any slot in `slots` hosts a site.
    pub fn hosts_site(&self, slots: std::ops::Range<u64>) -> bool {
        // Both ends are clamped to the table, so they fit a `usize`.
        let len = self.sites.len() as u64;
        let (lo, hi) = (slots.start.min(len), slots.end.min(len));
        self.sites
            .get(lo as usize..hi as usize)
            .is_some_and(|sites| sites.iter().any(|&m| m != 0))
    }

    /// One activation draw: `gen::<f64>() < p_site`, compared on the
    /// raw bits.
    #[inline]
    fn activation_draw(&mut self) -> bool {
        (self.rng.next_u64() >> 11) < self.site_threshold
    }

    /// Activates a fresh site at slot index `idx`: draws its stuck bit
    /// and counts the activating access as a firing.
    fn activate(&mut self, idx: usize, width: u32) -> u32 {
        let mask = 1u32 << self.rng.gen_range(0..width);
        if idx >= self.sites.len() {
            self.sites.resize(idx + 1, 0);
        }
        self.sites[idx] = mask;
        self.site_count += 1;
        self.firings += 1;
        mask
    }

    /// Number of activated sites so far.
    pub fn site_count(&self) -> usize {
        self.site_count
    }

    /// Number of accesses an activated site has corrupted so far
    /// (including each site's activating access).
    pub fn firings(&self) -> u64 {
        self.firings
    }

    /// The configured parameters.
    pub fn config(&self) -> PersistentSiteConfig {
        self.cfg
    }
}

impl fmt::Display for PersistentFaultProcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} sites, {} firings]",
            self.cfg, self.site_count, self.firings
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_sites_at_zero_rate() {
        let mut p = PersistentFaultProcess::new(PersistentSiteConfig::hard(0.0), 1);
        for slot in 0..100_000u64 {
            assert_eq!(p.touch(slot % 64, 32), 0);
        }
        assert_eq!(p.site_count(), 0);
        assert_eq!(p.firings(), 0);
    }

    #[test]
    fn hard_sites_fire_on_every_touch() {
        let mut p = PersistentFaultProcess::new(PersistentSiteConfig::hard(1.0), 7);
        let mask = p.touch(3, 32);
        assert_eq!(mask.count_ones(), 1, "a site is a single stuck bit");
        for _ in 0..1000 {
            assert_eq!(p.touch(3, 32), mask);
        }
        assert_eq!(p.firings(), 1001);
        assert_eq!(p.site_count(), 1);
    }

    #[test]
    fn intermittent_sites_fire_at_the_duty_cycle() {
        let cfg = PersistentSiteConfig::intermittent(1.0, 0.25);
        let mut p = PersistentFaultProcess::new(cfg, 11);
        assert_ne!(p.touch(0, 32), 0, "activation corrupts the first touch");
        let n = 200_000u64;
        let fired = (0..n).filter(|_| p.touch(0, 32) != 0).count();
        let rate = fired as f64 / n as f64;
        assert!((rate - 0.25).abs() < 0.01, "duty realisation {rate}");
    }

    #[test]
    fn masks_fit_the_slot_width() {
        let mut p = PersistentFaultProcess::new(PersistentSiteConfig::hard(1.0), 3);
        for slot in 0..500u64 {
            let mask = p.touch(slot, 8);
            assert_eq!(mask & !0xFF, 0, "mask outside 8-bit slot");
        }
    }

    #[test]
    fn same_seed_same_site_map() {
        let mk = || {
            let cfg = PersistentSiteConfig::intermittent(0.01, 0.5);
            let mut p = PersistentFaultProcess::new(cfg, 99);
            (0..50_000u64)
                .map(|i| p.touch(i % 256, 32))
                .collect::<Vec<_>>()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn activation_rate_matches_p_site() {
        let cfg = PersistentSiteConfig::hard(0.02);
        let mut p = PersistentFaultProcess::new(cfg, 13);
        // One touch per distinct slot = n independent activation trials.
        let n = 100_000u64;
        for slot in 0..n {
            p.touch(slot, 32);
        }
        let rate = p.site_count() as f64 / n as f64;
        assert!((rate / 0.02 - 1.0).abs() < 0.1, "activation rate {rate}");
    }

    #[test]
    fn slot_table_matches_a_site_map_model() {
        // The keyed-map process the slot table replaced, draw for draw.
        let cfg = PersistentSiteConfig::intermittent(0.02, 0.5);
        let seed = 5;
        let mut rng = SmallRng::seed_from_u64(seed ^ PERSISTENT_SEED_SALT);
        let mut sites = std::collections::HashMap::new();
        let mut firings = 0u64;
        let mut model = |slot: u64| -> u32 {
            if let Some(&mask) = sites.get(&slot) {
                if rng.gen::<f64>() < cfg.duty {
                    firings += 1;
                    return mask;
                }
                return 0;
            }
            if rng.gen::<f64>() < cfg.p_site {
                let mask = 1u32 << rng.gen_range(0..32);
                sites.insert(slot, mask);
                firings += 1;
                return mask;
            }
            0
        };
        let mut p = PersistentFaultProcess::new(cfg, seed);
        for i in 0..50_000u64 {
            // Revisit a small slot range often and a wide one rarely.
            let slot = if i % 7 == 0 { i % 4096 } else { i % 97 };
            assert_eq!(p.touch(slot, 32), model(slot), "touch {i}");
        }
        assert_eq!(p.site_count(), sites.len());
        assert_eq!(p.firings(), firings);
    }

    #[test]
    fn activation_threshold_matches_the_float_comparison() {
        // `gen::<f64>()` is `(next_u64() >> 11) · 2⁻⁵³`; the integer
        // threshold must agree with `< p_site` on both sides of its
        // edge, for exact binary fractions, tiny rates and 1 − ε alike.
        let scale = 1.0 / (1u64 << 53) as f64;
        for p_site in [1e-300, 1e-6, 0.02, 0.1, 0.25, 0.5, 1.0 - f64::EPSILON, 1.0] {
            let t =
                PersistentFaultProcess::new(PersistentSiteConfig::hard(p_site), 0).site_threshold;
            for k in t.saturating_sub(2)..(t + 2).min(1 << 53) {
                assert_eq!(k < t, k as f64 * scale < p_site, "p = {p_site}, k = {k}");
            }
        }
    }

    #[test]
    fn touch_fresh_matches_touch_draw_for_draw() {
        // Runs of touches on never-touched slots, batched on one process
        // and one `touch` at a time on a twin: the batched call must
        // return the first activation and its mask, draw nothing after
        // it, and leave both streams in step.
        let cfgs = [
            PersistentSiteConfig::hard(0.01),
            PersistentSiteConfig::intermittent(0.02, 0.5),
            PersistentSiteConfig::hard(0.0),
            PersistentSiteConfig::hard(1.0),
        ];
        for cfg in cfgs {
            let mut batched = PersistentFaultProcess::new(cfg, 17);
            let mut single = PersistentFaultProcess::new(cfg, 17);
            let mut next = 0u64;
            let mut cuts = 0;
            for round in 0..2_000u32 {
                let n = 1 + round % 40;
                let base = next;
                next += u64::from(n);
                assert!(!batched.hosts_site(base..next));
                let got = batched.touch_fresh(n, 32, |i| base + u64::from(i));
                let want = (0..n).find_map(|i| {
                    let mask = single.touch(base + u64::from(i), 32);
                    (mask != 0).then_some((i, mask))
                });
                assert_eq!(got, want, "{cfg}: round {round}");
                assert_eq!(batched.hosts_site(base..next), got.is_some());
                assert_eq!(batched.site_count(), single.site_count());
                assert_eq!(batched.firings(), single.firings());
                cuts += usize::from(got.is_some_and(|(i, _)| i + 1 < n));
            }
            if cfg.p_site > 0.0 {
                assert!(cuts > 10, "{cfg}: only {cuts} runs cut short");
            }
            // Revisiting every slot, sites and all, stays in step.
            for slot in 0..next {
                assert_eq!(batched.touch(slot, 32), single.touch(slot, 32));
            }
            assert_eq!(batched.firings(), single.firings());
        }
    }

    #[test]
    #[should_panic(expected = "site activation probability")]
    fn rejects_non_probability_rate() {
        PersistentSiteConfig::hard(1.5);
    }

    #[test]
    #[should_panic(expected = "duty cycle")]
    fn rejects_zero_duty() {
        PersistentSiteConfig::intermittent(0.1, 0.0);
    }
}
