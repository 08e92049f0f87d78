//! Deficit round-robin scheduling application (paper §2, "DRR").
//!
//! Implements the Shreedhar–Varghese DRR scheduler: every flow has its
//! own queue, a quantum is added to a flow's deficit counter each time
//! the round-robin pointer reaches it, and packets are sent while the
//! deficit covers them. Queue state (deficit, quantum, ring buffer of
//! packet lengths) lives in simulated memory, so a corrupted quantum of
//! zero makes the credit loop spin forever — one of the runaway-loop
//! fatal errors the paper reports. Marked data: route-table entries,
//! radix entries traversed, and the deficit value for each packet.

use crate::apps::tl::{lookup_observations, setup_radix};
use crate::error::AppError;
use crate::ip;
use crate::machine::{Machine, PacketView};
use crate::obs::{ErrorCategory, Observation};
use crate::radix::RadixTable;
use crate::trace::PrefixRoute;
use crate::PacketApp;

/// Ring-buffer capacity per flow queue (packet lengths).
const QUEUE_CAP: u32 = 16;
/// Per-flow block: deficit, quantum, qlen, head + ring of lengths.
const FLOW_WORDS: u32 = 4 + QUEUE_CAP;
const OFF_DEFICIT: u32 = 0;
const OFF_QUANTUM: u32 = 4;
const OFF_QLEN: u32 = 8;
const OFF_HEAD: u32 = 12;
const OFF_RING: u32 = 16;

/// The DRR quantum in bytes (≥ max packet keeps golden DRR one-shot).
const QUANTUM: u32 = 1500;

/// The deficit-round-robin packet application.
///
/// # Examples
///
/// ```
/// use netbench::{apps::Drr, Machine, PacketApp, TraceConfig};
///
/// let trace = TraceConfig::small().generate();
/// let mut m = Machine::strongarm(0);
/// let mut app = Drr::new(trace.prefixes.clone(), trace.flow_count);
/// app.setup(&mut m).unwrap();
/// let view = m.dma_packet(&trace.packets[0]).unwrap();
/// let obs = app.process(&mut m, view).unwrap();
/// assert!(obs.iter().any(|o| o.category == netbench::ErrorCategory::DeficitValue));
/// ```
#[derive(Debug, Clone)]
pub struct Drr {
    prefixes: Vec<PrefixRoute>,
    flows: u32,
    table: Option<RadixTable>,
    flow_base: u32,
    rr_pointer: u32,
    /// Radix walk scratch, reused across packets.
    visited: Vec<u32>,
}

impl Drr {
    /// Creates the application for `flows` connections.
    ///
    /// # Panics
    ///
    /// Panics if `flows` is zero.
    pub fn new(prefixes: Vec<PrefixRoute>, flows: usize) -> Self {
        assert!(flows > 0, "DRR needs at least one flow");
        Drr {
            prefixes,
            flows: flows as u32,
            table: None,
            flow_base: 0,
            rr_pointer: 0,
            visited: Vec::new(),
        }
    }

    fn flow_addr(&self, flow: u32) -> u32 {
        self.flow_base + flow * FLOW_WORDS * 4
    }

    /// Enqueues a packet length on `flow`'s ring.
    fn enqueue(&self, m: &mut Machine, flow: u32, len: u32) -> Result<(), AppError> {
        let base = self.flow_addr(flow);
        m.charge(6)?;
        let qlen = m.load_u32(base + OFF_QLEN)?;
        if qlen >= QUEUE_CAP {
            return Ok(()); // tail drop
        }
        let head = m.load_u32(base + OFF_HEAD)?;
        let slot = (head.wrapping_add(qlen)) % QUEUE_CAP;
        m.store_u32(base + OFF_RING + slot * 4, len)?;
        m.store_u32(base + OFF_QLEN, qlen + 1)?;
        Ok(())
    }

    /// One DRR service round: advances the round-robin pointer to the
    /// next backlogged flow, credits its deficit until the head packet
    /// fits, dequeues it, and returns `(flow, deficit_after)`.
    fn serve(&mut self, m: &mut Machine) -> Result<Option<(u32, u32)>, AppError> {
        for step in 0..self.flows {
            let flow = (self.rr_pointer + step) % self.flows;
            let base = self.flow_addr(flow);
            m.charge(4)?;
            // Defensive ring-buffer discipline: occupancy can never
            // exceed the capacity, so clamp what memory claims. This
            // bounds how long a corrupted qlen can misdirect the
            // scheduler (it drains within QUEUE_CAP serves).
            let qlen = m.load_u32(base + OFF_QLEN)?.min(QUEUE_CAP);
            if qlen == 0 {
                continue;
            }
            let head = m.load_u32(base + OFF_HEAD)?;
            // Wire lengths are 16 bits; anything larger is corruption
            // and would stall the credit loop for millions of rounds,
            // so apply the router's MTU sanity bound.
            let front = m
                .load_u32(base + OFF_RING + (head % QUEUE_CAP) * 4)?
                .min(0xFFFF);
            let mut deficit = m.load_u32(base + OFF_DEFICIT)?;
            // Credit quantum until the head packet is covered. The
            // quantum is re-read from memory each round: a corrupted
            // zero quantum spins here until fuel runs out (fatal).
            while deficit < front {
                m.charge(3)?;
                let quantum = m.load_u32(base + OFF_QUANTUM)?;
                deficit = deficit.saturating_add(quantum);
            }
            m.charge(6)?;
            deficit -= front;
            // Shreedhar–Varghese: a flow whose queue empties forfeits
            // its remaining deficit (reset to zero). This also bounds how long a
            // corrupted deficit value can persist.
            if qlen - 1 == 0 {
                deficit = 0;
            }
            m.store_u32(base + OFF_DEFICIT, deficit)?;
            m.store_u32(base + OFF_HEAD, (head + 1) % QUEUE_CAP)?;
            m.store_u32(base + OFF_QLEN, qlen - 1)?;
            self.rr_pointer = (flow + 1) % self.flows;
            return Ok(Some((flow, deficit)));
        }
        Ok(None)
    }
}

impl PacketApp for Drr {
    fn name(&self) -> &'static str {
        "drr"
    }

    fn setup(&mut self, m: &mut Machine) -> Result<Vec<Observation>, AppError> {
        let (table, mut obs) = setup_radix(m, &self.prefixes)?;
        self.table = Some(table);
        self.flow_base = m.alloc(self.flows * FLOW_WORDS * 4, 4);
        for f in 0..self.flows {
            let base = self.flow_addr(f);
            m.charge(4)?;
            m.store_u32(base + OFF_DEFICIT, 0)?;
            m.store_u32(base + OFF_QUANTUM, QUANTUM)?;
            m.store_u32(base + OFF_QLEN, 0)?;
            m.store_u32(base + OFF_HEAD, 0)?;
        }
        // Sample a few quanta as initialization state.
        for f in (0..self.flows).step_by((self.flows as usize / 4).max(1)) {
            let q = m.load_u32(self.flow_addr(f) + OFF_QUANTUM)?;
            obs.push(Observation::new(
                ErrorCategory::Initialization,
                u64::from(q),
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

        // Classify: flow id from the connection 5-tuple.
        m.charge(4)?;
        let flow = (hdr.src_ip ^ hdr.ports).wrapping_mul(0x9E37_79B9) % self.flows;

        // Route the packet (DRR still forwards; paper marks RouteTable
        // and radix entries).
        let next_hop = table.lookup_into(m, hdr.dst_ip, &mut self.visited)?;
        lookup_observations(&self.visited, next_hop, obs);

        // Enqueue, then let the scheduler drain the backlog. In the
        // fault-free case exactly one packet is queued, so one departure
        // happens per arrival; after a corruption-induced mis-serve the
        // drain loop clears any standing backlog so the scheduler
        // resynchronizes instead of diverging forever.
        self.enqueue(m, flow, pkt.wire_len)?;
        for _ in 0..QUEUE_CAP {
            match self.serve(m)? {
                Some((served, deficit)) => {
                    obs.push(Observation::new(
                        ErrorCategory::DeficitValue,
                        u64::from(deficit) | (u64::from(served) << 32),
                    ));
                }
                None => break,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::testutil::{golden_run, small_trace};

    #[test]
    fn every_packet_is_served_in_golden_runs() {
        // With quantum >= max packet size and one enqueue per process
        // call, each call serves exactly one packet.
        let trace = small_trace();
        let mut app = Drr::new(trace.prefixes.clone(), trace.flow_count);
        let all = golden_run(&mut app, &trace);
        for obs in &all {
            assert!(
                obs.iter()
                    .any(|o| o.category == ErrorCategory::DeficitValue),
                "one departure per arrival"
            );
        }
    }

    #[test]
    fn deficit_stays_below_quantum_in_golden_runs() {
        // DRR invariant: after serving, a flow's deficit is < quantum
        // (it is reset to the remainder).
        let trace = small_trace();
        let mut app = Drr::new(trace.prefixes.clone(), trace.flow_count);
        let all = golden_run(&mut app, &trace);
        for obs in all.iter().flatten() {
            if obs.category == ErrorCategory::DeficitValue {
                let deficit = obs.value as u32;
                assert!(deficit < QUANTUM, "deficit {deficit} >= quantum");
            }
        }
    }

    #[test]
    fn corrupted_zero_quantum_exhausts_fuel() {
        let trace = small_trace();
        let mut m = Machine::strongarm(0);
        m.set_inject(false);
        m.set_fuel(u64::MAX);
        let mut app = Drr::new(trace.prefixes.clone(), trace.flow_count);
        app.setup(&mut m).unwrap();
        // Stomp every quantum to zero (simulating a nonvolatile error).
        for f in 0..app.flows {
            m.store_u32(app.flow_addr(f) + OFF_QUANTUM, 0).unwrap();
        }
        let view = m.dma_packet(&trace.packets[0]).unwrap();
        m.set_fuel(app.fuel_per_packet());
        let err = app.process(&mut m, view).unwrap_err();
        assert!(matches!(
            err,
            AppError::Fatal(crate::FatalError::FuelExhausted { .. })
        ));
    }

    #[test]
    fn routing_observations_present() {
        let trace = small_trace();
        let mut app = Drr::new(trace.prefixes.clone(), trace.flow_count);
        let all = golden_run(&mut app, &trace);
        for obs in &all {
            assert!(obs
                .iter()
                .any(|o| o.category == ErrorCategory::RouteTableEntry));
        }
    }
}
