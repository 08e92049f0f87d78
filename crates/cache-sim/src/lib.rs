//! Bit-accurate memory-hierarchy simulator with fault injection.
//!
//! This crate is the substrate the paper's evaluation runs on: a
//! StrongARM-110-class hierarchy (§5.1) with
//!
//! * a **4 KB direct-mapped level-1 data cache** (32-byte lines,
//!   2-cycle latency) whose clock can be raised beyond the circuit
//!   designer's specification,
//! * a **128 KB 4-way set-associative level-2 cache** (128-byte lines,
//!   15-cycle latency), correct by default as the paper assumes — the
//!   opt-in [`FaultTargets::l2`] process makes it fallible at its own
//!   clock's voltage swing ([`MemConfig::l2_cycle`]),
//! * a flat backing store holding architectural ground truth.
//!
//! Every program load/store goes through [`MemSystem`]. On each L1 data
//! access a [`fault_model::FaultSampler`] may flip bits of the accessed
//! word — *transiently* on reads (the stored copy stays intact) and
//! *persistently* on writes (the corrupted word is stored while parity is
//! computed from the intended value, so the corruption is detectable
//! later). Detection and recovery follow §4:
//!
//! * [`DetectionScheme::None`] — corrupted values flow into the program.
//! * [`DetectionScheme::Parity`] — one even-parity bit per 32-bit word;
//!   odd-bit corruptions are detected, even-bit corruptions escape.
//! * [`DetectionScheme::ParityPerByte`] — extension: one parity bit per
//!   byte, catching cross-byte multi-bit faults too.
//! * [`DetectionScheme::Secded`] — extension: a (39,32) extended-Hamming
//!   code per word ([`secded_encode`]) that *corrects* single-bit faults
//!   in place and detects double-bit faults, pricing the correction
//!   hardware the paper dismissed.
//! * [`StrikePolicy`] — a *k*-strike policy retries the L1 read up to
//!   `k − 1` times on detected faults before invalidating the block and
//!   fetching from L2.
//! * [`RecoveryGranularity`] — what a strike-exhausted recovery
//!   discards: the whole line (the paper's design) or just the faulty
//!   word (the footnote-2 sub-block extension).
//!
//! The simulator also accounts cycles (the L1 stall shrinks with the
//! relative cycle time `Cr`) and energy (via [`energy_model`], with cache
//! energy linear in the voltage swing).
//!
//! # Examples
//!
//! ```
//! use cache_sim::{MemConfig, MemSystem};
//!
//! let mut mem = MemSystem::new(MemConfig::strongarm(), 42);
//! mem.write_u32(0x100, 0xDEAD_BEEF).unwrap();
//! assert_eq!(mem.read_u32(0x100).unwrap(), 0xDEAD_BEEF);
//! assert!(mem.stats().l1_hits >= 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backing;
mod cache;
mod config;
pub mod degradation;
mod error;
mod hierarchy;
mod policy;
mod secded;
mod stats;

pub use backing::BackingStore;
pub use cache::{CacheGeometry, DataCache, GeometryError, TagCache, WordCode};
pub use config::MemConfig;
pub use degradation::{relative_error, BaselineProfile, DegradationEstimate, DegradationModel};
pub use error::MemError;
pub use fault_model::SamplingMode;
pub use hierarchy::MemSystem;
pub use policy::{
    DetectionScheme, FaultTargets, RecoveryGranularity, StrikePolicy, WayDisablePolicy,
};
pub use secded::{
    secded_decode, secded_encode, secded_encode_block, SecdedOutcome, SECDED_CODE_BITS,
};
pub use stats::MemStats;

/// Standard machine word width in bits (the paper protects each 32-bit
/// word with a single parity bit).
pub const WORD_BITS: u32 = 32;
