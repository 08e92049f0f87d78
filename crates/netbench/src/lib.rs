//! NetBench-style packet-processing workloads over a simulated,
//! fault-injecting memory hierarchy.
//!
//! The paper evaluates seven applications from the NetBench suite (§2).
//! This crate reimplements each of them in Rust such that **every data
//! access goes through the simulated level-1 data cache** of
//! [`cache_sim`] — so injected cache faults corrupt exactly the data
//! structures the paper marks for error measurement:
//!
//! | App | What it does | Marked data (paper §2) |
//! |-----|--------------|------------------------|
//! | [`apps::Crc`] | CRC-32 checksum per packet | crc table, crc accumulator |
//! | [`apps::Tl`]  | radix-tree table lookup (FreeBSD) | tree nodes traversed, route entry |
//! | [`apps::Route`] | RFC 1812 IPv4 forwarding | route table, checksum, ttl, radix entries |
//! | [`apps::Drr`] | deficit round-robin scheduling | route table, radix entries, deficit values |
//! | [`apps::Nat`] | network address translation | interface, translated/destination IPs, NAT table, radix entries |
//! | [`apps::Md5`] | RFC 1321 message digest per packet | digest (binary errors) |
//! | [`apps::Url`] | URL-based content switching | URL table, final destination, checksum, ttl, radix entries |
//!
//! An eighth workload, [`apps::Adpcm`], implements the paper's §4
//! generality claim (media processors) and is exposed through
//! [`AppKind::extended`] without disturbing the Table-I set.
//!
//! Applications implement [`PacketApp`]: a **control-plane** phase
//! ([`PacketApp::setup`]: building tables) followed by a **data-plane**
//! phase ([`PacketApp::process_into`]: one call per packet), matching the
//! paper's plane separation. Each call fills a caller-owned buffer with
//! the packet's [`Observation`]s — the marked values — which the runner
//! in `clumsy-core` diffs between a golden (fault-free) and a measured
//! run. [`PacketApp::process`] returns them in a fresh `Vec` instead.
//!
//! Runaway executions caused by corrupted loop-control data are caught
//! by per-packet instruction *fuel* and surface as
//! [`FatalError`]s — the paper's "fatal errors" (§4.1, footnote 3).
//!
//! # Examples
//!
//! ```
//! use netbench::{apps::Crc, Machine, PacketApp, TraceConfig};
//!
//! let trace = TraceConfig::small().generate();
//! let mut machine = Machine::strongarm(1);
//! let mut app = Crc::new();
//! app.setup(&mut machine).unwrap();
//! let view = machine.dma_packet(&trace.packets[0]).unwrap();
//! let obs = app.process(&mut machine, view).unwrap();
//! assert!(!obs.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
mod error;
mod flat;
mod heap;
mod ip;
mod machine;
mod obs;
mod packet;
mod radix;
mod trace;

pub use error::{AppError, FatalError};
pub use heap::Heap;
pub use machine::{Machine, PacketView, Plane, PlaneMask};
pub use obs::{diff_observations, ErrorCategory, Observation, PacketDiff};
pub use packet::{fnv1a_fold, Packet, FNV_OFFSET, FNV_PRIME};
pub use radix::RadixTable;
pub use trace::{
    FlowClassifier, PrefixRoute, Trace, TraceConfig, TrafficClass, TrafficPattern, TrafficSource,
};

use std::fmt;

/// A packet-processing application with separated control and data
/// planes (paper §2).
pub trait PacketApp {
    /// Short name matching the paper's Table I (`crc`, `tl`, ...).
    fn name(&self) -> &'static str;

    /// Control-plane phase: builds the application's tables in simulated
    /// memory. Returns initialization observations (sampled table state)
    /// used for the paper's "Initialization Error" category.
    ///
    /// # Errors
    ///
    /// Returns [`AppError`] if the control plane runs out of fuel or
    /// crashes on a corrupted access.
    fn setup(&mut self, m: &mut Machine) -> Result<Vec<Observation>, AppError>;

    /// Data-plane phase: processes one received packet into `obs`, a
    /// buffer the caller owns and reuses across packets.
    ///
    /// The contract: clear `obs` first, then push the packet's
    /// marked-value observations in order. On success `obs` holds
    /// exactly what [`PacketApp::process`] would return for the same
    /// packet; on an error its contents are unspecified. Once `obs` and
    /// the app's own scratch buffers have grown to a packet's size, the
    /// call allocates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`AppError`] if processing runs out of fuel (an infinite
    /// loop — the paper's dominant fatal error) or crashes.
    fn process_into(
        &mut self,
        m: &mut Machine,
        pkt: PacketView,
        obs: &mut Vec<Observation>,
    ) -> Result<(), AppError>;

    /// Data-plane phase: processes one received packet, returning the
    /// marked-value observations for error measurement. A wrapper
    /// around [`PacketApp::process_into`] with a fresh buffer.
    ///
    /// # Errors
    ///
    /// Returns [`AppError`] if processing runs out of fuel (an infinite
    /// loop — the paper's dominant fatal error) or crashes.
    fn process(&mut self, m: &mut Machine, pkt: PacketView) -> Result<Vec<Observation>, AppError> {
        let mut obs = Vec::new();
        self.process_into(m, pkt, &mut obs)?;
        Ok(obs)
    }

    /// Instruction budget per packet before the run is declared fatal.
    fn fuel_per_packet(&self) -> u64 {
        200_000
    }

    /// Instruction budget for the control plane.
    fn setup_fuel(&self) -> u64 {
        20_000_000
    }
}

/// Identifier for the seven paper applications, in Table I order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[allow(missing_docs)]
pub enum AppKind {
    Crc,
    Tl,
    Route,
    Drr,
    Nat,
    Md5,
    Url,
    /// Media-codec extension workload (not part of the paper's Table I).
    Adpcm,
}

impl AppKind {
    /// The paper's seven applications, in Table I order.
    pub fn all() -> [AppKind; 7] {
        [
            AppKind::Crc,
            AppKind::Tl,
            AppKind::Route,
            AppKind::Drr,
            AppKind::Nat,
            AppKind::Md5,
            AppKind::Url,
        ]
    }

    /// The paper set plus the media-processor extension workload (§4:
    /// the technique "can be applied to any type of processor that
    /// executes applications with fault resiliency (e.g., media
    /// processors)").
    pub fn extended() -> [AppKind; 8] {
        [
            AppKind::Crc,
            AppKind::Tl,
            AppKind::Route,
            AppKind::Drr,
            AppKind::Nat,
            AppKind::Md5,
            AppKind::Url,
            AppKind::Adpcm,
        ]
    }

    /// The paper's short name.
    pub fn name(&self) -> &'static str {
        match self {
            AppKind::Crc => "crc",
            AppKind::Tl => "tl",
            AppKind::Route => "route",
            AppKind::Drr => "drr",
            AppKind::Nat => "nat",
            AppKind::Md5 => "md5",
            AppKind::Url => "url",
            AppKind::Adpcm => "adpcm",
        }
    }

    /// Instantiates the application for a given trace.
    pub fn instantiate(&self, trace: &Trace) -> Box<dyn PacketApp> {
        match self {
            AppKind::Crc => Box::new(apps::Crc::new()),
            AppKind::Tl => Box::new(apps::Tl::new(trace.prefixes.clone())),
            AppKind::Route => Box::new(apps::Route::new(trace.prefixes.clone())),
            AppKind::Drr => Box::new(apps::Drr::new(trace.prefixes.clone(), trace.flow_count)),
            AppKind::Nat => Box::new(apps::Nat::new(trace.prefixes.clone())),
            AppKind::Md5 => Box::new(apps::Md5::new()),
            AppKind::Url => Box::new(apps::Url::new(trace.prefixes.clone(), trace.urls.clone())),
            AppKind::Adpcm => Box::new(apps::Adpcm::new()),
        }
    }
}

impl fmt::Display for AppKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_apps_in_table_1_order() {
        let names: Vec<&str> = AppKind::all().iter().map(|a| a.name()).collect();
        assert_eq!(names, ["crc", "tl", "route", "drr", "nat", "md5", "url"]);
    }

    #[test]
    fn instantiate_matches_name() {
        let trace = TraceConfig::small().generate();
        for kind in AppKind::extended() {
            let app = kind.instantiate(&trace);
            assert_eq!(app.name(), kind.name());
        }
    }

    #[test]
    fn extended_set_appends_the_media_workload() {
        let ext = AppKind::extended();
        assert_eq!(&ext[..7], &AppKind::all()[..]);
        assert_eq!(ext[7].name(), "adpcm");
    }
}
