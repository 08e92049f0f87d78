//! MD5 message-digest application (paper §2, "MD5").
//!
//! Creates an RFC 1321 signature for each packet, as the RSA reference
//! implementation the paper uses. The sine table `T`, the padded message
//! buffer and the output digest all live in simulated memory; the paper
//! classifies MD5 errors as binary (any digest mismatch is an error).

use crate::error::AppError;
use crate::machine::{Machine, PacketView};
use crate::obs::{ErrorCategory, Observation};
use crate::packet::HEADER_BYTES;
use crate::PacketApp;

/// Per-round left-rotate amounts (RFC 1321).
const S: [[u32; 4]; 4] = [
    [7, 12, 17, 22],
    [5, 9, 14, 20],
    [4, 11, 16, 23],
    [6, 10, 15, 21],
];

/// Maximum message bytes per packet (payload ≤ DMA buffer).
const MSG_CAP: u32 = 2048 + 72; // payload + worst-case padding

/// The MD5 packet application.
///
/// # Examples
///
/// ```
/// use netbench::{apps::Md5, Machine, PacketApp, TraceConfig};
///
/// let trace = TraceConfig::small().generate();
/// let mut m = Machine::strongarm(0);
/// let mut app = Md5::new();
/// app.setup(&mut m).unwrap();
/// let view = m.dma_packet(&trace.packets[0]).unwrap();
/// let obs = app.process(&mut m, view).unwrap();
/// assert_eq!(obs.len(), 4); // four digest words
/// ```
#[derive(Debug, Clone, Default)]
pub struct Md5 {
    t_table: u32,
    msg_buf: u32,
    digest_buf: u32,
    loaded: Vec<u32>,
    bytes: Vec<u8>,
}

impl Md5 {
    /// Creates the application.
    pub fn new() -> Self {
        Md5::default()
    }

    /// Host-side reference MD5 (for differential testing). Returns the
    /// four state words (a, b, c, d) after digesting `data`.
    #[cfg(test)]
    pub(crate) fn reference(data: &[u8]) -> [u32; 4] {
        let mut msg = data.to_vec();
        let bit_len = (data.len() as u64).wrapping_mul(8);
        msg.push(0x80);
        while msg.len() % 64 != 56 {
            msg.push(0);
        }
        msg.extend_from_slice(&bit_len.to_le_bytes());
        let mut state = [0x6745_2301u32, 0xEFCD_AB89, 0x98BA_DCFE, 0x1032_5476];
        for block in msg.chunks_exact(64) {
            let mut w = [0u32; 16];
            for (i, c) in block.chunks_exact(4).enumerate() {
                w[i] = u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
            }
            let [mut a, mut b, mut c, mut d] = state;
            for i in 0..64 {
                let (f, g) = match i / 16 {
                    0 => ((b & c) | (!b & d), i),
                    1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                    2 => (b ^ c ^ d, (3 * i + 5) % 16),
                    _ => (c ^ (b | !d), (7 * i) % 16),
                };
                let t = t_const(i);
                let tmp = d;
                d = c;
                c = b;
                b = b.wrapping_add(
                    (a.wrapping_add(f).wrapping_add(t).wrapping_add(w[g]))
                        .rotate_left(S[i / 16][i % 4]),
                );
                a = tmp;
            }
            state[0] = state[0].wrapping_add(a);
            state[1] = state[1].wrapping_add(b);
            state[2] = state[2].wrapping_add(c);
            state[3] = state[3].wrapping_add(d);
        }
        state
    }
}

/// RFC 1321 sine constants: `T[i] = floor(2^32 · |sin(i + 1)|)`.
fn t_const(i: usize) -> u32 {
    (((i as f64 + 1.0).sin().abs()) * 4294967296.0) as u32
}

impl PacketApp for Md5 {
    fn name(&self) -> &'static str {
        "md5"
    }

    fn fuel_per_packet(&self) -> u64 {
        500_000
    }

    fn setup(&mut self, m: &mut Machine) -> Result<Vec<Observation>, AppError> {
        self.t_table = m.alloc(64 * 4, 4);
        for i in 0..64 {
            m.charge(8)?; // sine evaluation
            m.store_u32(self.t_table + 4 * i as u32, t_const(i))?;
        }
        self.msg_buf = m.alloc(MSG_CAP, 4);
        self.digest_buf = m.alloc(16, 4);
        let mut obs = Vec::new();
        for k in [0u32, 21, 42, 63] {
            let v = m.load_u32(self.t_table + 4 * k)?;
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
        let len = (pkt.wire_len - HEADER_BYTES).min(2048);

        // Copy the payload into the message buffer and append RFC 1321
        // padding, all through the cache. The copy has no data-dependent
        // addresses, so it runs as one batched byte-block read and one
        // batched byte-block write.
        self.bytes.clear();
        m.read_block(payload, len, &mut self.bytes)?;
        m.write_block(self.msg_buf, &self.bytes)?;
        m.charge(3 * u64::from(len))?;
        m.charge(4)?;
        self.bytes.clear();
        self.bytes.push(0x80);
        let mut padded = len + 1;
        while padded % 64 != 56 {
            self.bytes.push(0);
            padded += 1;
        }
        m.charge(2 * (self.bytes.len() as u64 - 1))?;
        m.write_block(self.msg_buf + len, &self.bytes)?;
        let bit_len = u64::from(len) * 8;
        m.store_u32(self.msg_buf + padded, bit_len as u32)?;
        m.store_u32(self.msg_buf + padded + 4, (bit_len >> 32) as u32)?;
        padded += 8;

        // Digest the blocks. The round schedule's message indices depend
        // only on the round number, never on loaded data, so each
        // 64-step block's 128 loads go through the cache as batched
        // word-block sweeps. Every round reads each of the block's 16
        // message words exactly once, so each round issues them in
        // ascending address order (a schedule any software-pipelined
        // encoder could use): whole-line stretches then commit under
        // single skip-ahead grants instead of alternating between the
        // message and sine-table lines.
        let mut state = [0x6745_2301u32, 0xEFCD_AB89, 0x98BA_DCFE, 0x1032_5476];
        let mut off = 0;
        while off < padded {
            self.loaded.clear();
            for _round in 0..4 {
                m.read_block_u32(self.msg_buf + off, 16, &mut self.loaded)?;
            }
            m.read_block_u32(self.t_table, 64, &mut self.loaded)?;
            // Eight instructions per step, charged per block.
            m.charge(8 * 64)?;
            let [mut a, mut b, mut c, mut d] = state;
            for i in 0..64usize {
                let (f, g) = match i / 16 {
                    0 => ((b & c) | (!b & d), i),
                    1 => ((d & b) | (!d & c), (5 * i + 1) % 16),
                    2 => (b ^ c ^ d, (3 * i + 5) % 16),
                    _ => (c ^ (b | !d), (7 * i) % 16),
                };
                let w = self.loaded[(i / 16) * 16 + g];
                let t = self.loaded[64 + i];
                let tmp = d;
                d = c;
                c = b;
                b = b.wrapping_add(
                    (a.wrapping_add(f).wrapping_add(t).wrapping_add(w))
                        .rotate_left(S[i / 16][i % 4]),
                );
                a = tmp;
            }
            state[0] = state[0].wrapping_add(a);
            state[1] = state[1].wrapping_add(b);
            state[2] = state[2].wrapping_add(c);
            state[3] = state[3].wrapping_add(d);
            off += 64;
        }

        // Store and read back the digest (the signature attached to the
        // outgoing packet) — the marked output.
        for (i, s) in state.iter().enumerate() {
            m.charge(2)?;
            m.store_u32(self.digest_buf + 4 * i as u32, *s)?;
            let v = m.load_u32(self.digest_buf + 4 * i as u32)?;
            obs.push(Observation::new(ErrorCategory::Digest, u64::from(v)));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::testutil::{golden_run, small_trace};

    #[test]
    fn t_constants_match_rfc_1321() {
        assert_eq!(t_const(0), 0xd76a_a478);
        assert_eq!(t_const(1), 0xe8c7_b756);
        assert_eq!(t_const(63), 0xeb86_d391);
    }

    #[test]
    fn reference_matches_known_digest() {
        // MD5("abc") = 900150983cd24fb0d6963f7d28e17f72 — the state
        // words little-endian-encode to that digest.
        let s = Md5::reference(b"abc");
        let mut digest = Vec::new();
        for w in s {
            digest.extend_from_slice(&w.to_le_bytes());
        }
        assert_eq!(
            digest
                .iter()
                .map(|b| format!("{b:02x}"))
                .collect::<String>(),
            "900150983cd24fb0d6963f7d28e17f72"
        );
    }

    #[test]
    fn simulated_digest_matches_reference() {
        let trace = small_trace();
        let mut app = Md5::new();
        let all = golden_run(&mut app, &trace);
        for (p, obs) in trace.packets.iter().zip(&all).take(10) {
            let want = Md5::reference(&p.payload);
            let got: Vec<u32> = obs.iter().map(|o| o.value as u32).collect();
            assert_eq!(got, want.to_vec());
        }
    }

    #[test]
    fn digest_observations_are_digest_category() {
        let trace = small_trace();
        let mut app = Md5::new();
        let all = golden_run(&mut app, &trace);
        assert!(all
            .iter()
            .flatten()
            .all(|o| o.category == ErrorCategory::Digest));
    }
}
