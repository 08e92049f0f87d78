//! Pinned digests of the per-access checking path and the fast lanes.
//!
//! The fast-path on/off tests compare two paths of the same simulator,
//! so an error shared by both cannot show there. These pins instead
//! compare every configuration that runs access by access — persistent
//! sites, the L2 and parity targets, the tag target and the exact
//! sampler — against digests recorded before the checking path was
//! last optimized, and the skip-ahead configurations whose hits commit
//! on the batched fast lanes against digests recorded before those
//! lanes were merged into one sweep. A fixed mixed workload at
//! `Cr = 0.25` (so faults fire, strikes retry and invalidate, and
//! stores corrupt lines) covers refills, dirty evictions, sub-word
//! writes and the block APIs. The digest covers every read value, the
//! `MemStats` debug text (the fast/slow split included), the cycle
//! count and the energy bits.

use cache_sim::{
    DetectionScheme, FaultTargets, MemConfig, MemSystem, SamplingMode, StrikePolicy,
    WayDisablePolicy,
};
use fault_model::{FaultProbabilityModel, PersistentSiteConfig};

/// FNV-1a over a byte stream.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// A mixed workload over a 16 KB window (4× the 4 KB L1), issued
/// through every single-access and batched entry point.
fn drive(m: &mut MemSystem) -> Vec<u32> {
    let mut out = Vec::new();
    let mut bytes = Vec::new();
    for i in 0..24_000u32 {
        let a = ((i.wrapping_mul(2_654_435_761) >> 7) % 16_384) & !3;
        match i % 16 {
            0..=2 => m.write_u32(a, i.wrapping_mul(0x9E37_79B9)).unwrap(),
            3 => m.write_u8(a + (i % 4), i as u8).unwrap(),
            4 => m.write_u16(a + 2 * (i % 2), i as u16).unwrap(),
            5 => out.push(u32::from(m.read_u8(a + (i % 4)).unwrap())),
            6 => out.push(u32::from(m.read_u16(a + 2 * (i % 2)).unwrap())),
            7..=12 => out.push(m.read_u32(a).unwrap()),
            13 => {
                let base = a % 16_000;
                match (i / 16) % 6 {
                    0 => {
                        bytes.clear();
                        m.read_block_u8(base + 1, 45, &mut bytes).unwrap();
                        out.extend(bytes.iter().map(|&b| u32::from(b)));
                    }
                    1 => {
                        let payload: Vec<u8> = (0..37u32).map(|k| (i + k) as u8).collect();
                        m.write_block_u8(base + 3, &payload).unwrap();
                    }
                    2 => m.read_block_u32(base, 12, &mut out).unwrap(),
                    3 => m.read_block_u16(base + 2, 19, &mut out).unwrap(),
                    4 => {
                        let words: Vec<u32> = (0..9u32).map(|k| i ^ (k << 20)).collect();
                        m.write_block_u32(base, &words).unwrap();
                    }
                    _ => {
                        out.push(m.read_u32(base).unwrap());
                        m.write_u16(base + 6, i as u16).unwrap();
                        out.push(u32::from(m.read_u8(base + 7).unwrap()));
                        m.write_u32(base + 8, !i).unwrap();
                        out.push(u32::from(m.read_u16(base + 10).unwrap()));
                        m.write_u8(base + 33, i as u8).unwrap();
                        out.push(m.read_u32(base + 32).unwrap());
                    }
                }
            }
            _ => out.push(m.read_u32(a ^ 0x2000).unwrap()),
        }
    }
    out
}

/// Runs the workload on `cfg` at `Cr = 0.25` and digests everything a
/// caller can observe.
fn digest(cfg: MemConfig) -> (u64, cache_sim::MemStats) {
    let mut m = MemSystem::new(cfg, 0x5EED);
    m.set_cycle_free(0.25);
    let values = drive(&mut m);
    let mut h = Fnv::new();
    for v in &values {
        h.bytes(&v.to_le_bytes());
    }
    h.bytes(format!("{:?}", m.stats()).as_bytes());
    h.u64(m.cycles().to_bits());
    let e = m.energy();
    for nj in [e.core_nj, e.l1_nj, e.l2_nj, e.mem_nj, e.overhead_nj] {
        h.u64(nj.to_bits());
    }
    (h.0, *m.stats())
}

/// A hotter-than-calibrated transient process (2·10⁻⁴ per bit at
/// `Cr = 0.25`, ~0.6% of words), so a few hundred faults fire per run
/// and corrupted stores leave suspect lines behind to be read.
fn base(detection: DetectionScheme) -> MemConfig {
    MemConfig::strongarm()
        .with_detection(detection)
        .with_strikes(StrikePolicy::two_strike())
        .with_fault_model(FaultProbabilityModel::new(1e-5, 0.2))
}

/// Every configuration that takes the per-access checking path, with
/// the digest recorded for it.
fn pinned() -> Vec<(&'static str, MemConfig, u64)> {
    let way_disable = WayDisablePolicy::new(2, 20_000);
    let hard = PersistentSiteConfig::hard(2e-4);
    let flaky = PersistentSiteConfig::intermittent(2e-4, 0.5);
    vec![
        (
            "persistent-hard/parity",
            base(DetectionScheme::Parity).with_persistent(hard),
            0xc779_34cc_eeda_497a,
        ),
        (
            "persistent-hard/parity/way-disable",
            base(DetectionScheme::Parity)
                .with_persistent(hard)
                .with_way_disable(way_disable),
            0x712a_5e4f_9c80_891b,
        ),
        (
            "persistent-intermittent/byte-parity",
            base(DetectionScheme::ParityPerByte).with_persistent(flaky),
            0x1ee2_6967_50ab_e32b,
        ),
        (
            "persistent-intermittent/byte-parity/way-disable",
            base(DetectionScheme::ParityPerByte)
                .with_persistent(flaky)
                .with_way_disable(way_disable),
            0x4ccf_bd4e_7027_38f2,
        ),
        (
            "persistent-hard/secded/l2/way-disable",
            base(DetectionScheme::Secded)
                .with_targets(FaultTargets::data_only().with_l2(true))
                .with_l2_cycle(0.5)
                .with_persistent(hard)
                .with_way_disable(way_disable),
            0xc4b4_ccc4_e111_f55f,
        ),
        (
            "secded/l2",
            base(DetectionScheme::Secded)
                .with_targets(FaultTargets::data_only().with_l2(true))
                .with_l2_cycle(0.5),
            0xbcd7_e3c3_8f35_82e5,
        ),
        (
            "parity/parity-target",
            base(DetectionScheme::Parity).with_targets(FaultTargets::data_only().with_parity(true)),
            0x4bce_5740_a5e5_09d1,
        ),
        (
            "byte-parity/tag-target",
            base(DetectionScheme::ParityPerByte)
                .with_targets(FaultTargets::data_only().with_tag(true)),
            0x1fed_356d_69ba_8975,
        ),
        (
            "parity/exact-sampler",
            base(DetectionScheme::Parity).with_sampling(SamplingMode::PerAccess),
            0xb91e_f620_1eac_2fe2,
        ),
    ]
}

/// The skip-ahead configurations with no aux target and no persistent
/// sites, whose hits commit on the batched fast lanes, with the digest
/// recorded for each before those lanes were merged into one sweep.
fn fast_lane_pinned() -> Vec<(&'static str, MemConfig, u64)> {
    vec![
        (
            "none/skip-ahead",
            base(DetectionScheme::None),
            0xc11e_ce50_b48b_516e,
        ),
        (
            "parity/skip-ahead",
            base(DetectionScheme::Parity),
            0x49e6_5ab2_fd1e_d9d4,
        ),
        (
            "byte-parity/skip-ahead",
            base(DetectionScheme::ParityPerByte),
            0xda73_375d_3c16_9e0b,
        ),
        (
            "secded/skip-ahead",
            base(DetectionScheme::Secded),
            0x13af_72e8_1fd7_9fa3,
        ),
    ]
}

#[test]
fn fast_lane_digests_match_the_recorded_pins() {
    let mut wrong = Vec::new();
    for (name, cfg, want) in fast_lane_pinned() {
        let (got, stats) = digest(cfg);
        assert!(stats.faults_injected > 0, "{name}: no fault fired");
        assert!(stats.writebacks > 0, "{name}: no dirty eviction");
        assert!(
            stats.fast_forward_accesses > 0,
            "{name}: no fast-lane access"
        );
        if got != want {
            wrong.push(format!("{name}: got {got:#018x}, pinned {want:#018x}"));
        }
    }
    assert!(wrong.is_empty(), "digests moved:\n{}", wrong.join("\n"));
}

#[test]
fn checking_path_digests_match_the_recorded_pins() {
    let mut wrong = Vec::new();
    for (name, cfg, want) in pinned() {
        let (got, stats) = digest(cfg);
        // The pins only mean something if the workload exercises the
        // fault and recovery machinery in every configuration.
        assert!(stats.faults_injected > 0, "{name}: no fault fired");
        assert!(stats.writebacks > 0, "{name}: no dirty eviction");
        assert!(stats.slow_path_accesses > 0, "{name}: no slow-path access");
        if got != want {
            wrong.push(format!("{name}: got {got:#018x}, pinned {want:#018x}"));
        }
    }
    assert!(wrong.is_empty(), "digests moved:\n{}", wrong.join("\n"));
}
