//! Network address translation application (paper §2, "NAT").
//!
//! Translates private source addresses into public ones before routing,
//! keeping the translation table in simulated memory. Marked data:
//! initial IP source address handling (via initialization probes), the
//! interface value used for translation, the translated IP source
//! address, the destination address after translation, the NAT-table
//! entries, and the radix-tree entries traversed.

use crate::apps::tl::{lookup_observations, setup_radix};
use crate::error::AppError;
use crate::ip;
use crate::machine::{Machine, PacketView};
use crate::obs::{ErrorCategory, Observation};
use crate::radix::RadixTable;
use crate::trace::PrefixRoute;
use crate::PacketApp;

/// NAT table capacity (entries); must exceed the flow count.
const TABLE_CAP: u32 = 256;
/// Entry layout: valid, src_ip, xlat_ip, iface — four words.
const ENTRY_BYTES: u32 = 16;
/// Base of the public address pool.
const POOL_BASE: u32 = 0xC611_0000; // 198.17.0.0

/// The NAT packet application.
///
/// # Examples
///
/// ```
/// use netbench::{apps::Nat, Machine, PacketApp, TraceConfig};
///
/// let trace = TraceConfig::small().generate();
/// let mut m = Machine::strongarm(0);
/// let mut app = Nat::new(trace.prefixes.clone());
/// app.setup(&mut m).unwrap();
/// let view = m.dma_packet(&trace.packets[0]).unwrap();
/// let obs = app.process(&mut m, view).unwrap();
/// assert!(obs.iter().any(|o| o.category == netbench::ErrorCategory::TranslatedAddress));
/// ```
#[derive(Debug, Clone)]
pub struct Nat {
    prefixes: Vec<PrefixRoute>,
    table: Option<RadixTable>,
    nat_table: u32,
    pool_counter: u32,
    /// Radix walk scratch, reused across packets.
    visited: Vec<u32>,
}

impl Nat {
    /// Creates the application for the given routing prefixes.
    pub fn new(prefixes: Vec<PrefixRoute>) -> Self {
        Nat {
            prefixes,
            table: None,
            nat_table: 0,
            pool_counter: 0,
            visited: Vec::new(),
        }
    }

    /// Finds or creates the translation entry for `src_ip`, returning
    /// `(xlat_ip, iface)`.
    fn translate(
        &self,
        m: &mut Machine,
        src_ip: u32,
        iface_hint: u32,
    ) -> Result<(u32, u32), AppError> {
        let mut slot = src_ip % TABLE_CAP;
        // Linear probing, bounded by the table capacity (kept in a
        // register, so this loop cannot run away).
        for _ in 0..TABLE_CAP {
            m.charge(4)?;
            let entry = self.nat_table + slot * ENTRY_BYTES;
            let valid = m.load_u32(entry)?;
            if valid == 0 {
                // Install a fresh mapping from the public pool.
                m.charge(4)?;
                let count = m.load_u32(self.pool_counter)?;
                let xlat = POOL_BASE | (count & 0xFFFF);
                m.store_u32(self.pool_counter, count.wrapping_add(1))?;
                m.store_u32(entry, 1)?;
                m.store_u32(entry + 4, src_ip)?;
                m.store_u32(entry + 8, xlat)?;
                m.store_u32(entry + 12, iface_hint)?;
                return Ok((xlat, iface_hint));
            }
            let key = m.load_u32(entry + 4)?;
            if key == src_ip {
                m.charge(2)?;
                let xlat = m.load_u32(entry + 8)?;
                let iface = m.load_u32(entry + 12)?;
                return Ok((xlat, iface));
            }
            slot = (slot + 1) % TABLE_CAP;
        }
        // Table full: reuse the hint unmapped (graceful degradation).
        Ok((src_ip, iface_hint))
    }
}

impl PacketApp for Nat {
    fn name(&self) -> &'static str {
        "nat"
    }

    fn setup(&mut self, m: &mut Machine) -> Result<Vec<Observation>, AppError> {
        let (table, mut obs) = setup_radix(m, &self.prefixes)?;
        self.table = Some(table);
        self.nat_table = m.alloc(TABLE_CAP * ENTRY_BYTES, 4);
        for i in 0..TABLE_CAP {
            m.charge(1)?;
            m.store_u32(self.nat_table + i * ENTRY_BYTES, 0)?;
        }
        self.pool_counter = m.alloc(4, 4);
        m.store_u32(self.pool_counter, 0)?;
        // Sample a few cleared table slots as initialization state.
        for k in [0u32, 64, 128, 192] {
            let v = m.load_u32(self.nat_table + k * ENTRY_BYTES)?;
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
        let table = self.table.expect("setup must run before process");
        obs.clear();

        let hdr = ip::load_header(m, pkt.addr)?;

        // Route the destination to pick the outgoing interface.
        let next_hop = table.lookup_into(m, hdr.dst_ip, &mut self.visited)?;
        let iface = next_hop.unwrap_or(u32::MAX);
        obs.push(Observation::new(
            ErrorCategory::InterfaceValue,
            u64::from(iface),
        ));
        lookup_observations(&self.visited, next_hop, obs);

        // Translate the private source address.
        let (xlat, used_iface) = self.translate(m, hdr.src_ip, iface)?;
        obs.push(Observation::new(
            ErrorCategory::TranslatedAddress,
            u64::from(xlat),
        ));
        obs.push(Observation::new(
            ErrorCategory::InterfaceValue,
            u64::from(used_iface),
        ));

        // Rewrite the source address and checksum.
        m.charge(4)?;
        m.store_u32(pkt.addr + ip::W_SRC, xlat)?;
        let rewritten = ip::Header {
            src_ip: xlat,
            ..hdr
        };
        let ck = rewritten.compute_checksum();
        m.store_u32(pkt.addr + ip::W_CKSUM, u32::from(ck))?;

        // Destination after translation (unchanged for outbound NAT).
        m.charge(1)?;
        let dst_after = m.load_u32(pkt.addr + ip::W_DST)?;
        obs.push(Observation::new(
            ErrorCategory::DestinationAddress,
            u64::from(dst_after),
        ));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::testutil::{golden_run, small_trace};
    use std::collections::HashMap;

    #[test]
    fn same_source_gets_same_translation() {
        let trace = small_trace();
        let mut app = Nat::new(trace.prefixes.clone());
        let all = golden_run(&mut app, &trace);
        let mut seen: HashMap<u32, u64> = HashMap::new();
        for (p, obs) in trace.packets.iter().zip(&all) {
            let xlat = obs
                .iter()
                .find(|o| o.category == ErrorCategory::TranslatedAddress)
                .unwrap()
                .value;
            if let Some(prev) = seen.insert(p.src_ip, xlat) {
                assert_eq!(prev, xlat, "translation must be stable per flow");
            }
        }
    }

    #[test]
    fn distinct_sources_get_distinct_translations() {
        let trace = small_trace();
        let mut app = Nat::new(trace.prefixes.clone());
        let all = golden_run(&mut app, &trace);
        let mut by_src: HashMap<u32, u64> = HashMap::new();
        for (p, obs) in trace.packets.iter().zip(&all) {
            let xlat = obs
                .iter()
                .find(|o| o.category == ErrorCategory::TranslatedAddress)
                .unwrap()
                .value;
            by_src.insert(p.src_ip, xlat);
        }
        let translations: std::collections::HashSet<u64> = by_src.values().copied().collect();
        assert_eq!(translations.len(), by_src.len());
    }

    #[test]
    fn translated_addresses_come_from_the_pool() {
        let trace = small_trace();
        let mut app = Nat::new(trace.prefixes.clone());
        let all = golden_run(&mut app, &trace);
        for obs in &all {
            let xlat = obs
                .iter()
                .find(|o| o.category == ErrorCategory::TranslatedAddress)
                .unwrap()
                .value as u32;
            assert_eq!(xlat & 0xFFFF_0000, POOL_BASE);
        }
    }

    #[test]
    fn destination_is_preserved() {
        let trace = small_trace();
        let mut app = Nat::new(trace.prefixes.clone());
        let all = golden_run(&mut app, &trace);
        for (p, obs) in trace.packets.iter().zip(&all) {
            let dst = obs
                .iter()
                .find(|o| o.category == ErrorCategory::DestinationAddress)
                .unwrap()
                .value;
            assert_eq!(dst, u64::from(p.dst_ip));
        }
    }
}
