//! CRC-32 checksum application (paper §2, "CRC").
//!
//! Computes the CRC-32 of every packet payload with the public-domain
//! table-driven algorithm. The marked data are the 256-entry **crc
//! table** (built in the control plane; errors there "can potentially
//! affect multiple packets") and the per-packet **crc accumulator**.

use crate::error::AppError;
use crate::machine::{Machine, PacketView};
use crate::obs::{ErrorCategory, Observation};
use crate::packet::HEADER_BYTES;
use crate::PacketApp;

/// The reflected CRC-32 polynomial (IEEE 802.3).
const POLY: u32 = 0xEDB8_8320;

/// Number of table entries sampled for initialization observations.
const INIT_SAMPLES: u32 = 16;

/// The CRC-32 packet application.
///
/// # Examples
///
/// ```
/// use netbench::{apps::Crc, Machine, PacketApp, TraceConfig};
///
/// let trace = TraceConfig::small().generate();
/// let mut m = Machine::strongarm(0);
/// let mut app = Crc::new();
/// app.setup(&mut m).unwrap();
/// let view = m.dma_packet(&trace.packets[0]).unwrap();
/// let obs = app.process(&mut m, view).unwrap();
/// assert_eq!(obs.len(), 1); // the crc accumulator value
/// ```
#[derive(Debug, Clone, Default)]
pub struct Crc {
    table: u32,
    bytes: Vec<u8>,
}

impl Crc {
    /// Creates the application (tables are built in [`PacketApp::setup`]).
    pub fn new() -> Self {
        Crc::default()
    }

    /// Host-side reference CRC-32 (for differential testing).
    #[cfg(test)]
    pub(crate) fn reference(data: &[u8]) -> u32 {
        let mut crc = u32::MAX;
        for &b in data {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ POLY
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }
}

impl PacketApp for Crc {
    fn name(&self) -> &'static str {
        "crc"
    }

    fn setup(&mut self, m: &mut Machine) -> Result<Vec<Observation>, AppError> {
        self.table = m.alloc(256 * 4, 4);
        for i in 0..256u32 {
            m.charge(3)?;
            let mut v = i;
            for _ in 0..8 {
                m.charge(3)?;
                v = if v & 1 != 0 { (v >> 1) ^ POLY } else { v >> 1 };
            }
            m.store_u32(self.table + i * 4, v)?;
        }
        // Sample evenly spaced table entries for initialization errors.
        let mut obs = Vec::new();
        for k in 0..INIT_SAMPLES {
            let i = k * (256 / INIT_SAMPLES);
            let v = m.load_u32(self.table + i * 4)?;
            obs.push(Observation::new(ErrorCategory::CrcTable, u64::from(v)));
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
        let len = pkt.wire_len - HEADER_BYTES;
        // The payload sweep has no data-dependent addresses, so the whole
        // packet goes through the cache as one batched byte-block read;
        // only the table lookups (indexed by the evolving crc) stay on
        // the per-access path. The four-instruction crc update per byte
        // is charged for the packet up front.
        self.bytes.clear();
        m.read_block(payload, len, &mut self.bytes)?;
        m.charge(4 * u64::from(len))?;
        let mut crc = u32::MAX;
        for &byte in &self.bytes {
            let idx = (crc ^ u32::from(byte)) & 0xFF;
            let entry = m.load_u32(self.table + idx * 4)?;
            crc = entry ^ (crc >> 8);
        }
        obs.push(Observation::new(ErrorCategory::CrcValue, u64::from(!crc)));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::testutil::{golden_run, small_trace};

    #[test]
    fn matches_reference_crc() {
        let trace = small_trace();
        let mut app = Crc::new();
        let all = golden_run(&mut app, &trace);
        for (p, obs) in trace.packets.iter().zip(&all) {
            assert_eq!(obs.len(), 1);
            assert_eq!(obs[0].category, ErrorCategory::CrcValue);
            assert_eq!(obs[0].value as u32, Crc::reference(&p.payload));
        }
    }

    #[test]
    fn setup_produces_table_samples() {
        let mut m = Machine::strongarm(0);
        m.set_inject(false);
        m.set_fuel(u64::MAX);
        let mut app = Crc::new();
        let obs = app.setup(&mut m).unwrap();
        assert_eq!(obs.len(), INIT_SAMPLES as usize);
        assert!(obs.iter().all(|o| o.category == ErrorCategory::CrcTable));
        // Entry 0 of the CRC table is 0.
        assert_eq!(obs[0].value, 0);
    }

    #[test]
    fn crc_is_sensitive_to_any_payload_bit() {
        let a = Crc::reference(b"hello world");
        let b = Crc::reference(b"hello worle");
        assert_ne!(a, b);
    }
}
