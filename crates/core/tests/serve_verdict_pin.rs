//! Pins `run_serve`'s verdict stream at the repository benchmark's serve
//! setup: one shard, a depth-1024 queue, `route` at `paper_best`, the
//! benchmark's seed-0 trace and fault seeds, at a test-sized budget.
//!
//! A shard's digest folds every `(packet id, verdict)` in order, so any
//! drift in what the golden or measured pass observes, in the diff, or in
//! the fault stream moves it. The benchmark checks the same digest at
//! full scale, but only alongside a timing check (its pacer); this test
//! makes a verdict drift fail on its own.

use clumsy_core::{run_serve, ClumsyConfig, ServeConfig};
use netbench::{AppKind, TraceConfig};
use std::time::Duration;

/// The benchmark's serve config at seed 0 (`clumsy_benchmark/src/serve.rs`):
/// its trace and fault seeds reduce to the defaults there. The shed
/// timeout is raised far beyond any scheduler hiccup so that no packet
/// is ever shed; without shedding it cannot change a verdict.
fn config(payload: Option<usize>, budget: u64) -> ServeConfig {
    let mut traffic = TraceConfig::paper();
    if let Some(bytes) = payload {
        traffic.payload_min = bytes;
        traffic.payload_max = bytes;
    }
    ServeConfig::new(
        AppKind::Route,
        ClumsyConfig::paper_best().with_seed(ClumsyConfig::baseline().seed),
    )
    .with_shards(1)
    .with_queue_depth(1024)
    .with_traffic(traffic)
    .with_packet_budget(budget)
    .with_shed_timeout(Duration::from_secs(600))
}

/// Shard 0's `(digest, erroneous)` after serving `cfg`'s budget.
fn shard_verdicts(cfg: &ServeConfig) -> (u64, u64) {
    let report = run_serve(cfg, None, &|| false);
    assert_eq!(report.generated, cfg.packet_budget);
    assert_eq!(report.shed, 0, "a shed packet would change the digest");
    assert_eq!(report.abandoned(), 0);
    assert_eq!(report.shards.len(), 1);
    (report.shards[0].digest, report.shards[0].erroneous)
}

#[test]
fn serve_verdicts_at_the_benchmark_setup_are_pinned() {
    // The capacity call's 64-byte stream and the latency call's paper
    // payloads.
    // Recorded with the per-packet observation vectors that
    // `PacketApp::process_into` replaced.
    let capacity = shard_verdicts(&config(Some(64), 100_000));
    let latency = shard_verdicts(&config(None, 20_000));
    assert_eq!(
        (capacity, latency),
        ((0x4435_6bb1_4792_7451, 2), (0x4712_e8cf_229e_3fa5, 0)),
        "serve verdicts moved: {capacity:#018x?}, {latency:#018x?}"
    );
}
