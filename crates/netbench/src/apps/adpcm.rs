//! IMA-ADPCM media codec workload (extension).
//!
//! The paper argues its technique "can be applied to any type of
//! processor that executes applications with fault resiliency (e.g.,
//! media processors)" (§4). This workload makes that claim testable: an
//! IMA/DVI ADPCM voice encoder whose step-size and index-adjustment
//! tables live in simulated memory, compressing each packet's payload as
//! a stream of 16-bit PCM samples. A flipped bit costs a pop in the
//! audio, not a protocol violation — exactly the paper's notion of
//! software fault resiliency.

use crate::error::AppError;
use crate::machine::{Machine, PacketView};
use crate::obs::{ErrorCategory, Observation};
use crate::packet::HEADER_BYTES;
use crate::PacketApp;

/// IMA ADPCM step-size table (89 entries).
const STEP_TABLE: [u32; 89] = [
    7, 8, 9, 10, 11, 12, 13, 14, 16, 17, 19, 21, 23, 25, 28, 31, 34, 37, 41, 45, 50, 55, 60, 66,
    73, 80, 88, 97, 107, 118, 130, 143, 157, 173, 190, 209, 230, 253, 279, 307, 337, 371, 408, 449,
    494, 544, 598, 658, 724, 796, 876, 963, 1060, 1166, 1282, 1411, 1552, 1707, 1878, 2066, 2272,
    2499, 2749, 3024, 3327, 3660, 4026, 4428, 4871, 5358, 5894, 6484, 7132, 7845, 8630, 9493,
    10442, 11487, 12635, 13899, 15289, 16818, 18500, 20350, 22385, 24623, 27086, 29794, 32767,
];

/// IMA ADPCM index-adjustment table (nibble → index delta).
const INDEX_TABLE: [i32; 16] = [-1, -1, -1, -1, 2, 4, 6, 8, -1, -1, -1, -1, 2, 4, 6, 8];

/// The ADPCM media workload.
///
/// # Examples
///
/// ```
/// use netbench::{apps::Adpcm, Machine, PacketApp, TraceConfig};
///
/// let trace = TraceConfig::small().generate();
/// let mut m = Machine::strongarm(0);
/// let mut app = Adpcm::new();
/// app.setup(&mut m).unwrap();
/// let view = m.dma_packet(&trace.packets[0]).unwrap();
/// let obs = app.process(&mut m, view).unwrap();
/// assert!(obs.iter().any(|o| o.category == netbench::ErrorCategory::MediaSample));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Adpcm {
    step_table: u32,
    index_table: u32,
    out_buf: u32,
    words: Vec<u32>,
    loaded: Vec<u32>,
}

impl Adpcm {
    /// Creates the workload (tables are built in [`PacketApp::setup`]).
    pub fn new() -> Self {
        Adpcm::default()
    }

    /// Host-side reference encoder (for differential testing): returns
    /// `(encoded nibbles, final predictor, final index)`.
    #[cfg(test)]
    pub(crate) fn reference(samples: &[i16]) -> (Vec<u8>, i32, i32) {
        let mut predictor = 0i32;
        let mut index = 0i32;
        let mut out = Vec::new();
        for &s in samples {
            let (nibble, p, i) = encode_sample(i32::from(s), predictor, index, |k| {
                STEP_TABLE[k as usize] as i32
            });
            predictor = p;
            index = i;
            out.push(nibble);
        }
        (out, predictor, index)
    }
}

/// One IMA ADPCM encode step; `step_of` reads the step table (through
/// the cache in the simulated version, host-side in the reference).
fn encode_sample(
    sample: i32,
    predictor: i32,
    index: i32,
    step_of: impl Fn(i32) -> i32,
) -> (u8, i32, i32) {
    // A step loaded from a faulty cache can be any 32-bit value, so the
    // arithmetic wraps (as release builds do) instead of overflowing.
    let step = step_of(index);
    let mut diff = sample - predictor;
    let sign = if diff < 0 { 8u8 } else { 0 };
    if diff < 0 {
        diff = -diff;
    }
    let mut nibble = sign;
    let mut acc = step >> 3;
    if diff >= step {
        nibble |= 4;
        diff = diff.wrapping_sub(step);
        acc = acc.wrapping_add(step);
    }
    if diff >= step >> 1 {
        nibble |= 2;
        diff = diff.wrapping_sub(step >> 1);
        acc = acc.wrapping_add(step >> 1);
    }
    if diff >= step >> 2 {
        nibble |= 1;
        acc = acc.wrapping_add(step >> 2);
    }
    let delta = if sign != 0 { acc.wrapping_neg() } else { acc };
    let predictor = predictor.wrapping_add(delta).clamp(-32768, 32767);
    let index = (index + INDEX_TABLE[(nibble & 0xF) as usize]).clamp(0, 88);
    (nibble & 0xF, predictor, index)
}

impl PacketApp for Adpcm {
    fn name(&self) -> &'static str {
        "adpcm"
    }

    fn setup(&mut self, m: &mut Machine) -> Result<Vec<Observation>, AppError> {
        self.step_table = m.alloc(89 * 4, 4);
        for (i, s) in STEP_TABLE.iter().enumerate() {
            m.charge(2)?;
            m.store_u32(self.step_table + 4 * i as u32, *s)?;
        }
        self.index_table = m.alloc(16 * 4, 4);
        for (i, d) in INDEX_TABLE.iter().enumerate() {
            m.charge(2)?;
            m.store_u32(self.index_table + 4 * i as u32, *d as u32)?;
        }
        self.out_buf = m.alloc(1024, 4);
        let mut obs = Vec::new();
        for k in [0u32, 30, 60, 88] {
            let v = m.load_u32(self.step_table + 4 * k)?;
            obs.push(Observation::new(
                ErrorCategory::Initialization,
                u64::from(v),
            ));
        }
        Ok(obs)
    }

    fn process_into(
        &mut self,
        m: &mut Machine,
        pkt: PacketView,
        obs: &mut Vec<Observation>,
    ) -> Result<(), AppError> {
        obs.clear();
        let payload = pkt.addr + HEADER_BYTES;
        let samples = ((pkt.wire_len - HEADER_BYTES) / 2).min(1024);
        // The PCM sample sweep has no data-dependent addresses, so it
        // goes through the cache as one batched half-word block read;
        // the per-sample encode instructions are charged for the packet
        // up front. Only the step/index table loads (indexed by evolving
        // encoder state) stay on the per-access path.
        self.loaded.clear();
        m.read_block_u16(payload, samples, &mut self.loaded)?;
        m.charge(8 * u64::from(samples))?;
        let mut predictor = 0i32;
        let mut index = 0i32;
        let mut out_word = 0u32;
        let mut out_count = 0u32;
        let mut out_words = 0u32;
        self.words.clear();
        for i in 0..samples {
            let sample = i32::from(self.loaded[i as usize] as u16 as i16);
            // Table reads go through the (possibly faulty) cache; a
            // corrupted index is clamped like a real decoder would.
            let step_addr = self.step_table + 4 * (index.clamp(0, 88) as u32);
            let step = m.load_u32(step_addr)? as i32;
            let (nibble, p, _) = encode_sample(sample, predictor, index, |_| step);
            predictor = p;
            let adj = m.load_u32(self.index_table + 4 * u32::from(nibble))? as i32;
            index = index.wrapping_add(adj).clamp(0, 88);
            // Pack nibbles into output words; the stores land in a
            // deferred sequential-address block write flushed after the
            // loop.
            out_word |= u32::from(nibble) << (out_count * 4);
            out_count += 1;
            if out_count == 8 {
                m.charge(1)?;
                self.words.push(out_word);
                out_words += 1;
                out_word = 0;
                out_count = 0;
            }
        }
        if out_count > 0 {
            self.words.push(out_word);
            out_words += 1;
        }
        m.write_block_u32(self.out_buf, &self.words)?;
        // Read the compressed stream back and fold it into a signature —
        // the media-quality observation.
        self.loaded.clear();
        m.read_block_u32(self.out_buf, out_words, &mut self.loaded)?;
        m.charge(2 * u64::from(out_words))?;
        let mut signature = 0u64;
        for &w in &self.loaded {
            signature = signature.rotate_left(7).wrapping_add(u64::from(w));
        }
        obs.extend([
            Observation::new(ErrorCategory::MediaSample, signature),
            Observation::new(ErrorCategory::MediaSample, predictor as u32 as u64),
            Observation::new(ErrorCategory::MediaSample, index as u64),
        ]);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::testutil::{golden_run, small_trace};

    #[test]
    fn step_table_matches_ima_spec_endpoints() {
        assert_eq!(STEP_TABLE[0], 7);
        assert_eq!(STEP_TABLE[88], 32767);
        assert!(STEP_TABLE.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn reference_tracks_a_ramp() {
        // Encoding a slow ramp keeps the predictor near the signal.
        let samples: Vec<i16> = (0..200).map(|i| (i * 30) as i16).collect();
        let (_, predictor, index) = Adpcm::reference(&samples);
        let last = i32::from(*samples.last().unwrap());
        assert!(
            (predictor - last).abs() < 500,
            "predictor {predictor} vs {last}"
        );
        assert!((0..=88).contains(&index));
    }

    #[test]
    fn simulated_encoder_matches_reference_state() {
        let trace = small_trace();
        let mut app = Adpcm::new();
        let all = golden_run(&mut app, &trace);
        for (p, obs) in trace.packets.iter().zip(&all).take(10) {
            let samples: Vec<i16> = p
                .payload
                .chunks_exact(2)
                .map(|c| i16::from_le_bytes([c[0], c[1]]))
                .collect();
            let (_, predictor, index) = Adpcm::reference(&samples);
            assert_eq!(obs[1].value, predictor as u32 as u64);
            assert_eq!(obs[2].value, index as u64);
        }
    }

    #[test]
    fn signature_is_sensitive_to_payload() {
        let trace = small_trace();
        let mut app = Adpcm::new();
        let all = golden_run(&mut app, &trace);
        let signatures: std::collections::HashSet<u64> =
            all.iter().map(|obs| obs[0].value).collect();
        assert!(signatures.len() > trace.packets.len() / 2);
    }
}
