//! Radix-tree routing table in simulated memory (paper §2, TL/ROUTE).
//!
//! The paper's TL application is "the table lookup routine common to all
//! routing processes ... a radix-tree routing table ... from [the]
//! FreeBSD operating system". We implement a binary radix trie with the
//! same traversal structure: each node stores the bit index it tests and
//! child pointers, and prefix nodes additionally carry route data.
//!
//! **Every node field lives in simulated memory**, so cache faults can
//! corrupt bit indices (runaway traversals), child pointers (crashes or
//! walks into garbage) and next hops (misrouted packets) — exactly the
//! failure modes the paper's fatal/observation machinery measures.

use crate::error::AppError;
use crate::machine::Machine;
use crate::trace::PrefixRoute;

/// Node layout: eight 32-bit words = 32 bytes = one L1 line.
const NODE_BYTES: u32 = 32;
const OFF_BIT_INDEX: u32 = 0;
const OFF_LEFT: u32 = 4;
const OFF_RIGHT: u32 = 8;
const OFF_HAS_ROUTE: u32 = 12;
const OFF_PREFIX: u32 = 16;
const OFF_PREFIX_LEN: u32 = 20;
const OFF_NEXT_HOP: u32 = 24;

/// Result of a longest-prefix-match lookup.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LookupResult {
    /// The matched next hop, if any route matched.
    pub next_hop: Option<u32>,
    /// Addresses of every node traversed, in order.
    pub visited: Vec<u32>,
}

/// A binary radix trie over simulated memory.
///
/// # Examples
///
/// ```
/// use netbench::{Machine, PrefixRoute, RadixTable};
///
/// let mut m = Machine::strongarm(0);
/// let routes = vec![
///     PrefixRoute { prefix: 0x0A00_0000, len: 8, next_hop: 7 },
///     PrefixRoute { prefix: 0, len: 0, next_hop: 99 },
/// ];
/// let table = RadixTable::build(&mut m, &routes).unwrap();
/// let hit = table.lookup(&mut m, 0x0A01_0203).unwrap();
/// assert_eq!(hit.next_hop, Some(7));
/// let miss = table.lookup(&mut m, 0xDEAD_BEEF).unwrap();
/// assert_eq!(miss.next_hop, Some(99)); // default route
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RadixTable {
    root: u32,
    node_count: u32,
}

impl RadixTable {
    /// Builds the trie from `routes`, inserting through the cache (the
    /// control plane of the paper's plane split).
    ///
    /// # Errors
    ///
    /// Returns [`AppError`] if construction runs out of fuel or crashes
    /// (possible when control-plane faults are enabled).
    pub fn build(m: &mut Machine, routes: &[PrefixRoute]) -> Result<RadixTable, AppError> {
        let root = Self::alloc_node(m, 0)?;
        let mut table = RadixTable {
            root,
            node_count: 1,
        };
        for r in routes {
            table.insert(m, *r)?;
        }
        Ok(table)
    }

    /// Address of the root node.
    pub fn root(&self) -> u32 {
        self.root
    }

    /// Number of nodes allocated.
    pub fn node_count(&self) -> u32 {
        self.node_count
    }

    fn alloc_node(m: &mut Machine, bit_index: u32) -> Result<u32, AppError> {
        let addr = m.alloc(NODE_BYTES, NODE_BYTES);
        // Zero-initialize through the cache and set the bit index.
        m.charge(2)?;
        for off in (0..NODE_BYTES).step_by(4) {
            m.store_u32(addr + off, 0)?;
        }
        m.store_u32(addr + OFF_BIT_INDEX, bit_index)?;
        Ok(addr)
    }

    /// Inserts one route, creating interior nodes along the prefix path.
    ///
    /// # Errors
    ///
    /// Returns [`AppError`] on fuel exhaustion or a memory crash.
    pub fn insert(&mut self, m: &mut Machine, route: PrefixRoute) -> Result<(), AppError> {
        let mut node = self.root;
        for depth in 0..u32::from(route.len) {
            m.charge(4)?;
            let bit = (route.prefix >> (31 - depth)) & 1;
            let child_off = if bit == 0 { OFF_LEFT } else { OFF_RIGHT };
            let child = m.load_u32(node + child_off)?;
            node = if child == 0 {
                let fresh = Self::alloc_node(m, depth + 1)?;
                m.store_u32(node + child_off, fresh)?;
                self.node_count += 1;
                fresh
            } else {
                child
            };
        }
        m.charge(4)?;
        m.store_u32(node + OFF_HAS_ROUTE, 1)?;
        m.store_u32(node + OFF_PREFIX, route.prefix)?;
        m.store_u32(node + OFF_PREFIX_LEN, u32::from(route.len))?;
        m.store_u32(node + OFF_NEXT_HOP, route.next_hop)?;
        Ok(())
    }

    /// Longest-prefix-match lookup of `dst`, walking the trie through
    /// the cache. A wrapper around [`RadixTable::lookup_into`] with a
    /// fresh walk buffer.
    ///
    /// # Errors
    ///
    /// Returns [`AppError`] on fuel exhaustion or a memory crash.
    pub fn lookup(&self, m: &mut Machine, dst: u32) -> Result<LookupResult, AppError> {
        let mut visited = Vec::new();
        let next_hop = self.lookup_into(m, dst, &mut visited)?;
        Ok(LookupResult { next_hop, visited })
    }

    /// Longest-prefix-match lookup of `dst` that records the address of
    /// every node it walks, in order, into `visited` (cleared first), a
    /// scratch buffer the caller reuses across lookups. Returns the
    /// matched next hop, if any route matched.
    ///
    /// The loop's control state (the node's bit index and child
    /// pointers) is read from simulated memory each step, so corruption
    /// can send the walk into a cycle — caught by fuel — or out of the
    /// address space — a crash. Both are the paper's fatal errors. On an
    /// error `visited` holds the walk up to the failing step.
    ///
    /// # Errors
    ///
    /// Returns [`AppError`] on fuel exhaustion or a memory crash.
    pub fn lookup_into(
        &self,
        m: &mut Machine,
        dst: u32,
        visited: &mut Vec<u32>,
    ) -> Result<Option<u32>, AppError> {
        visited.clear();
        let mut node = self.root;
        let mut next_hop = None;
        while node != 0 {
            m.charge(4)?;
            visited.push(node);
            let bit_index = m.load_u32(node + OFF_BIT_INDEX)?;
            let has_route = m.load_u32(node + OFF_HAS_ROUTE)?;
            if has_route != 0 {
                next_hop = Some(m.load_u32(node + OFF_NEXT_HOP)?);
            }
            if bit_index >= 32 {
                break;
            }
            let bit = (dst >> (31 - bit_index)) & 1;
            let child_off = if bit == 0 { OFF_LEFT } else { OFF_RIGHT };
            node = m.load_u32(node + child_off)?;
        }
        Ok(next_hop)
    }

    /// Reads back the installed next hop for `route` (used to sample
    /// initialization state at the end of the control plane).
    ///
    /// # Errors
    ///
    /// Returns [`AppError`] on fuel exhaustion or a memory crash.
    pub fn probe(&self, m: &mut Machine, route: PrefixRoute) -> Result<u32, AppError> {
        // A probe address inside the prefix: the prefix itself.
        let r = self.lookup(m, route.prefix)?;
        Ok(r.next_hop.unwrap_or(u32::MAX))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;
    use crate::trace::prefix_mask;

    fn routes() -> Vec<PrefixRoute> {
        vec![
            PrefixRoute {
                prefix: 0x0A00_0000,
                len: 8,
                next_hop: 1,
            },
            PrefixRoute {
                prefix: 0x0A0A_0000,
                len: 16,
                next_hop: 2,
            },
            PrefixRoute {
                prefix: 0xC0A8_0100,
                len: 24,
                next_hop: 3,
            },
            PrefixRoute {
                prefix: 0,
                len: 0,
                next_hop: 0xFF,
            },
        ]
    }

    fn machine() -> Machine {
        let mut m = Machine::strongarm(0);
        m.set_fuel(u64::MAX);
        m
    }

    #[test]
    fn longest_prefix_wins() {
        let mut m = machine();
        let t = RadixTable::build(&mut m, &routes()).unwrap();
        // 10.10.x.x matches both /8 and /16; /16 must win.
        let r = t.lookup(&mut m, 0x0A0A_1234).unwrap();
        assert_eq!(r.next_hop, Some(2));
        // 10.20.x.x only matches the /8.
        let r = t.lookup(&mut m, 0x0A14_0000).unwrap();
        assert_eq!(r.next_hop, Some(1));
    }

    #[test]
    fn default_route_catches_everything() {
        let mut m = machine();
        let t = RadixTable::build(&mut m, &routes()).unwrap();
        let r = t.lookup(&mut m, 0x7777_7777).unwrap();
        assert_eq!(r.next_hop, Some(0xFF));
    }

    #[test]
    fn exact_24_bit_match() {
        let mut m = machine();
        let t = RadixTable::build(&mut m, &routes()).unwrap();
        let r = t.lookup(&mut m, 0xC0A8_01FE).unwrap();
        assert_eq!(r.next_hop, Some(3));
        let r = t.lookup(&mut m, 0xC0A8_02FE).unwrap();
        assert_eq!(r.next_hop, Some(0xFF), "adjacent /24 must not match");
    }

    #[test]
    fn visited_path_is_monotone_depth() {
        let mut m = machine();
        let t = RadixTable::build(&mut m, &routes()).unwrap();
        let r = t.lookup(&mut m, 0x0A0A_FFFF).unwrap();
        // Path visits root + one node per bit matched (plus prefix nodes).
        assert!(r.visited.len() >= 16);
        assert_eq!(r.visited[0], t.root());
    }

    #[test]
    fn node_count_grows_with_prefix_length() {
        let mut m = machine();
        let t = RadixTable::build(&mut m, &routes()).unwrap();
        // 8 + 8(shared path for /16) + 24 + root >= 33 nodes; exact
        // value depends on sharing. Sanity band:
        assert!(t.node_count() >= 30 && t.node_count() <= 60);
    }

    #[test]
    fn lookup_against_linear_scan_model() {
        // Property-style differential check vs a host-side LPM.
        let trace = crate::trace::TraceConfig::small().generate();
        let mut m = machine();
        let t = RadixTable::build(&mut m, &trace.prefixes).unwrap();
        for p in trace.packets.iter().take(50) {
            let want = trace
                .prefixes
                .iter()
                .filter(|r| (p.dst_ip & prefix_mask(r.len)) == r.prefix)
                .max_by_key(|r| r.len)
                .map(|r| r.next_hop);
            let got = t.lookup(&mut m, p.dst_ip).unwrap().next_hop;
            assert_eq!(got, want, "dst {:#010x}", p.dst_ip);
        }
    }

    #[test]
    fn lookup_runs_out_of_fuel_instead_of_hanging() {
        let mut m = machine();
        let t = RadixTable::build(&mut m, &routes()).unwrap();
        m.set_fuel(10);
        let err = t.lookup(&mut m, 0x0A0A_0A0A).unwrap_err();
        assert!(matches!(
            err,
            AppError::Fatal(crate::FatalError::FuelExhausted { .. })
        ));
    }

    #[test]
    fn corrupted_child_pointer_reads_garbage_not_forever() {
        // Corrupt a child pointer to a wild address: address mirroring
        // makes the walk read garbage (usually terminating on a bogus
        // bit index or null child) and fuel bounds any residual loop —
        // either way the lookup returns promptly and diverges from the
        // correct route.
        let mut m = machine();
        let t = RadixTable::build(&mut m, &routes()).unwrap();
        let correct = t.lookup(&mut m, 0x0A0A_0A0A).unwrap();
        let left = m.load_u32(t.root() + OFF_LEFT).unwrap();
        let off = if left != 0 { OFF_LEFT } else { OFF_RIGHT };
        m.store_u32(t.root() + off, 0xFFFF_FFF0).unwrap();
        m.set_fuel(1_000_000);
        match t.lookup(&mut m, 0x0A0A_0A0A) {
            Ok(r) => assert_ne!(r.visited, correct.visited, "walk must diverge"),
            Err(e) => assert!(matches!(
                e,
                AppError::Fatal(crate::FatalError::FuelExhausted { .. })
            )),
        }
    }
}
