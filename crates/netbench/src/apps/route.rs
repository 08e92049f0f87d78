//! IPv4 forwarding application (paper §2, "ROUTE").
//!
//! Implements the RFC 1812 per-packet forwarding steps: verify the
//! header checksum, look up the next hop in the radix routing table,
//! decrement TTL and rewrite the checksum. Marked data: route-table
//! entries, the checksum value, the ttl value, and the radix-tree
//! entries traversed.

use crate::apps::tl::{lookup_observations, setup_radix};
use crate::error::AppError;
use crate::ip;
use crate::machine::{Machine, PacketView};
use crate::obs::{ErrorCategory, Observation};
use crate::radix::RadixTable;
use crate::trace::PrefixRoute;
use crate::PacketApp;

/// The IPv4 forwarding application.
///
/// # Examples
///
/// ```
/// use netbench::{apps::Route, Machine, PacketApp, TraceConfig};
///
/// let trace = TraceConfig::small().generate();
/// let mut m = Machine::strongarm(0);
/// let mut app = Route::new(trace.prefixes.clone());
/// app.setup(&mut m).unwrap();
/// let view = m.dma_packet(&trace.packets[0]).unwrap();
/// let obs = app.process(&mut m, view).unwrap();
/// assert!(obs.iter().any(|o| o.category == netbench::ErrorCategory::Ttl));
/// ```
#[derive(Debug, Clone)]
pub struct Route {
    prefixes: Vec<PrefixRoute>,
    table: Option<RadixTable>,
    /// Radix walk scratch, reused across packets.
    visited: Vec<u32>,
}

impl Route {
    /// Creates the application for the given routing prefixes.
    pub fn new(prefixes: Vec<PrefixRoute>) -> Self {
        Route {
            prefixes,
            table: None,
            visited: Vec::new(),
        }
    }
}

impl PacketApp for Route {
    fn name(&self) -> &'static str {
        "route"
    }

    fn setup(&mut self, m: &mut Machine) -> Result<Vec<Observation>, AppError> {
        let (table, obs) = setup_radix(m, &self.prefixes)?;
        self.table = Some(table);
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

        // RFC 1812: verify the incoming header checksum.
        let hdr = ip::load_header(m, pkt.addr)?;
        m.charge(4)?;
        let computed = hdr.compute_checksum();
        obs.push(Observation::new(
            ErrorCategory::Checksum,
            u64::from(computed) | (u64::from(hdr.checksum != u32::from(computed)) << 32),
        ));

        // Longest-prefix match on the destination.
        let next_hop = table.lookup_into(m, hdr.dst_ip, &mut self.visited)?;
        lookup_observations(&self.visited, next_hop, obs);

        // Decrement TTL and rewrite the checksum.
        let (ttl, ck) = ip::forward_rewrite(m, pkt.addr, &hdr)?;
        obs.push(Observation::new(ErrorCategory::Ttl, u64::from(ttl)));
        obs.push(Observation::new(ErrorCategory::Checksum, u64::from(ck)));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::testutil::{golden_run, small_trace};

    #[test]
    fn golden_checksums_verify() {
        let trace = small_trace();
        let mut app = Route::new(trace.prefixes.clone());
        let all = golden_run(&mut app, &trace);
        for obs in &all {
            // The first checksum observation carries a mismatch flag in
            // bit 32; golden packets always verify.
            let first = obs
                .iter()
                .find(|o| o.category == ErrorCategory::Checksum)
                .unwrap();
            assert_eq!(first.value >> 32, 0, "golden checksum must verify");
        }
    }

    #[test]
    fn ttl_is_decremented() {
        let trace = small_trace();
        let mut app = Route::new(trace.prefixes.clone());
        let all = golden_run(&mut app, &trace);
        for (p, obs) in trace.packets.iter().zip(&all) {
            let ttl = obs
                .iter()
                .find(|o| o.category == ErrorCategory::Ttl)
                .unwrap();
            assert_eq!(ttl.value, u64::from(p.ttl) - 1);
        }
    }

    #[test]
    fn emits_route_and_radix_observations() {
        let trace = small_trace();
        let mut app = Route::new(trace.prefixes.clone());
        let all = golden_run(&mut app, &trace);
        for obs in &all {
            assert!(obs
                .iter()
                .any(|o| o.category == ErrorCategory::RouteTableEntry));
            assert!(obs
                .iter()
                .any(|o| o.category == ErrorCategory::RadixTreeEntry));
        }
    }
}
