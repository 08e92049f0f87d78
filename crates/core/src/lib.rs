//! # clumsy-core — Clumsy Packet Processors
//!
//! Reproduction of *"A Case for Clumsy Packet Processors"* (Mallik &
//! Memik, MICRO-37, 2004): a packet processor that deliberately
//! over-clocks its level-1 data cache, trading a quantified increase in
//! hardware fault probability for lower energy and access latency, and
//! relying on the inherent robustness of networking software to absorb
//! the resulting errors.
//!
//! This crate assembles the substrates into the paper's evaluation
//! vehicle:
//!
//! * [`ClumsyConfig`] — the design point: cache clock (static `Cr` or
//!   the dynamic adaptation scheme of §4), detection scheme, strike
//!   policy, fault model, plane masking and trace/seed.
//! * [`DynamicController`] — the epoch-based frequency adaptation
//!   scheme (100 packets per epoch, X1 = 200 %, X2 = 80 %).
//! * [`ClumsyProcessor`] — runs a NetBench application twice (golden and
//!   fault-injected) over the same trace and diffs the marked values,
//!   producing a [`RunReport`] with the paper's metrics: per-category
//!   error probabilities, fatal errors, fallibility, delay, energy, and
//!   the energy–delay²–fallibility² product.
//! * [`experiment`] — grid drivers that regenerate every table and
//!   figure of the paper's evaluation (§5).
//!
//! # Quickstart
//!
//! ```
//! use clumsy_core::{ClumsyConfig, ClumsyProcessor};
//! use netbench::{AppKind, TraceConfig};
//!
//! let trace = TraceConfig::small().generate();
//! // Double the data-cache clock with parity + two-strike recovery —
//! // the paper's best configuration.
//! let cfg = ClumsyConfig::paper_best();
//! let report = ClumsyProcessor::new(cfg).run(AppKind::Route, &trace);
//! assert!(report.packets_completed > 0);
//! assert!(report.fallibility() >= 1.0);
//! ```

// `deny` rather than `forbid`: the interrupt module carries a single
// audited `#[allow(unsafe_code)]` for the raw signal(2) registration.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
mod config;
mod controller;
pub mod engine;
pub mod experiment;
pub mod interrupt;
pub mod journal;
mod processor;
mod report;
pub mod serve;
mod taxonomy;
pub mod telemetry;

pub use campaign::{
    run_campaign_durable, run_campaign_instrumented, run_campaign_on, run_isolated_jobs,
    run_isolated_jobs_with, BatchControl, CampaignConfig, CampaignReport, DurableOptions,
    DurableOutcome, FailedJob, IsolatedFailure, IsolatedRun, JobFailure,
};
pub use config::{ClumsyConfig, DynamicConfig, FrequencyPlan, SafeModeConfig};
pub use controller::{Decision, DynamicController};
pub use engine::{golden_for, Engine};
pub use journal::{atomic_write, JournalError, JournalHeader, JournalWriter};
pub use processor::{ClumsyProcessor, GoldenData};
pub use report::{FatalInfo, RunReport};
pub use serve::{
    flow_shard, run_serve, ClassReport, FlowTraffic, IngressQueue, OverloadReport, PushOutcome,
    ServeConfig, ServeReport, ShardReport,
};
pub use taxonomy::{OutcomeCounts, TrialOutcome};
pub use telemetry::{
    Counter, MetricsFlusher, MetricsSnapshot, ProgressReporter, Stopwatch, Telemetry,
};

/// The paper's static frequency settings: `Cr` ∈ {1.0, 0.75, 0.5, 0.25}
/// (frequency increases of 0 %, 50 %, 100 %, 300 %).
pub const PAPER_CYCLE_TIMES: [f64; 4] = [1.0, 0.75, 0.5, 0.25];
