//! Table-lookup application (paper §2, "TL").
//!
//! The radix-tree table lookup routine common to all routing processes,
//! after the FreeBSD implementation. The marked data are the radix-tree
//! nodes traversed and the route-table entry found for each packet.

use crate::error::AppError;
use crate::ip;
use crate::machine::{Machine, PacketView};
use crate::obs::{ErrorCategory, Observation};
use crate::radix::RadixTable;
use crate::trace::PrefixRoute;
use crate::PacketApp;

/// Cap on per-packet radix-entry observations (keeps diffing cheap while
/// still catching traversal divergence, which shows up early).
pub(crate) const VISIT_OBS_CAP: usize = 40;

/// Number of routes probed for initialization observations.
pub(crate) const INIT_PROBES: usize = 8;

/// The table-lookup packet application.
///
/// # Examples
///
/// ```
/// use netbench::{apps::Tl, Machine, PacketApp, TraceConfig};
///
/// let trace = TraceConfig::small().generate();
/// let mut m = Machine::strongarm(0);
/// let mut app = Tl::new(trace.prefixes.clone());
/// app.setup(&mut m).unwrap();
/// let view = m.dma_packet(&trace.packets[0]).unwrap();
/// let obs = app.process(&mut m, view).unwrap();
/// assert!(obs.len() >= 2); // visited nodes + route entry
/// ```
#[derive(Debug, Clone)]
pub struct Tl {
    prefixes: Vec<PrefixRoute>,
    table: Option<RadixTable>,
    /// Radix walk scratch, reused across packets.
    visited: Vec<u32>,
}

impl Tl {
    /// Creates the application for the given routing prefixes.
    pub fn new(prefixes: Vec<PrefixRoute>) -> Self {
        Tl {
            prefixes,
            table: None,
            visited: Vec::new(),
        }
    }
}

/// Builds a radix table and probes a sample of routes for
/// initialization observations (shared by tl/route/drr/nat/url).
pub(crate) fn setup_radix(
    m: &mut Machine,
    prefixes: &[PrefixRoute],
) -> Result<(RadixTable, Vec<Observation>), AppError> {
    let table = RadixTable::build(m, prefixes)?;
    let mut obs = Vec::new();
    let step = (prefixes.len() / INIT_PROBES).max(1);
    for r in prefixes.iter().step_by(step).take(INIT_PROBES) {
        let nh = table.probe(m, *r)?;
        obs.push(Observation::new(
            ErrorCategory::Initialization,
            u64::from(nh),
        ));
    }
    Ok((table, obs))
}

/// Converts a lookup's walk and match into the shared radix/route
/// observations.
pub(crate) fn lookup_observations(
    visited: &[u32],
    next_hop: Option<u32>,
    obs: &mut Vec<Observation>,
) {
    for node in visited.iter().take(VISIT_OBS_CAP) {
        obs.push(Observation::new(
            ErrorCategory::RadixTreeEntry,
            u64::from(*node),
        ));
    }
    obs.push(Observation::new(
        ErrorCategory::RouteTableEntry,
        u64::from(next_hop.unwrap_or(u32::MAX)),
    ));
}

impl PacketApp for Tl {
    fn name(&self) -> &'static str {
        "tl"
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
        m.charge(2)?;
        let dst = m.load_u32(pkt.addr + ip::W_DST)?;
        let next_hop = table.lookup_into(m, dst, &mut self.visited)?;
        lookup_observations(&self.visited, next_hop, obs);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::testutil::{golden_run, small_trace};
    use crate::trace::prefix_mask;

    #[test]
    fn route_entry_matches_host_lpm() {
        let trace = small_trace();
        let mut app = Tl::new(trace.prefixes.clone());
        let all = golden_run(&mut app, &trace);
        for (p, obs) in trace.packets.iter().zip(&all) {
            let want = trace
                .prefixes
                .iter()
                .filter(|r| (p.dst_ip & prefix_mask(r.len)) == r.prefix)
                .max_by_key(|r| r.len)
                .map(|r| r.next_hop)
                .unwrap();
            let got = obs
                .iter()
                .find(|o| o.category == ErrorCategory::RouteTableEntry)
                .unwrap();
            assert_eq!(got.value, u64::from(want));
        }
    }

    #[test]
    fn observes_traversed_nodes() {
        let trace = small_trace();
        let mut app = Tl::new(trace.prefixes.clone());
        let all = golden_run(&mut app, &trace);
        for obs in &all {
            let visits = obs
                .iter()
                .filter(|o| o.category == ErrorCategory::RadixTreeEntry)
                .count();
            assert!(visits >= 1, "every lookup visits at least the root");
        }
    }

    #[test]
    fn setup_probes_installed_routes() {
        let trace = small_trace();
        let mut m = Machine::strongarm(0);
        m.set_inject(false);
        m.set_fuel(u64::MAX);
        let mut app = Tl::new(trace.prefixes.clone());
        let obs = app.setup(&mut m).unwrap();
        assert_eq!(obs.len(), INIT_PROBES);
        assert!(obs
            .iter()
            .all(|o| o.category == ErrorCategory::Initialization));
    }
}
