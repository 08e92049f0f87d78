//! Byte pin of the `clumsy-metrics-v1` JSON.
//!
//! Dashboards and the CI scripts read the metrics file by key, so the
//! group and key order, the spacing and the array layout are part of
//! the schema. This test renders a snapshot whose every field holds a
//! distinct non-zero value and compares the output byte for byte with
//! a recorded string: any key that moves, vanishes or is renamed shows
//! up here as a diff. A second test checks the other direction: a
//! file written by a live [`Telemetry`] carries exactly the registry's
//! integer keys, each with its own counter's value.

use clumsy_core::telemetry::{metric_keys, parse_metrics};
use clumsy_core::{Counter, MetricsSnapshot, Telemetry};
use std::collections::BTreeSet;
use std::time::Duration;

/// Every field set, each to its own value, so a swapped pair of keys
/// cannot hide behind equal numbers.
fn populated() -> MetricsSnapshot {
    MetricsSnapshot {
        elapsed: Duration::from_millis(123_456),
        jobs_total: 1,
        jobs_completed: 2,
        jobs_replayed: 3,
        jobs_retried: 4,
        jobs_abandoned: 5,
        jobs_failed: 6,
        abandoned_live: 7,
        abandoned_peak: 8,
        abandoned_cap_hits: 9,
        faults_injected: 10,
        tag_faults_injected: 11,
        parity_faults_injected: 12,
        l2_faults_injected: 13,
        faults_detected: 14,
        faults_corrected: 15,
        strike_retries: 16,
        recovery_failures: 17,
        fast_forward_accesses: 18,
        slow_path_accesses: 19,
        ways_disabled: 20,
        salvage_writebacks: 21,
        bypass_accesses: 22,
        outcomes: [23, 24, 25, 26, 27, 28],
        packets_ingested: 29,
        packets_shed: 30,
        packets_shed_flow_cap: 31,
        drr_deficit_topups: 34,
        packets_processed: 35,
        packets_erroneous: 36,
        packets_dropped: 37,
        packets_abandoned: 38,
        shard_panics: 39,
        shard_restarts: 40,
        shard_setup_retries: 41,
        queue_highwater: 42,
        packets_shed_control: 43,
        packets_shed_data: 44,
        packets_preempt_shed: 45,
        packets_shed_slo: 46,
        slo_trigger_activations: 47,
        slo_last_p99_us: 48,
        queue_invariant_repairs: 50,
        journal_records: 51,
        journal_fsyncs: 52,
        journal_fsync_us_total: 53,
        journal_fsync_us_max: 54,
        engine_jobs: 55,
        engine_us_total: 56,
        job_us_count: 57,
        job_us_total: 58,
        job_us_max: 59,
        job_us_buckets: vec![(1, 60), (64, 61), (4096, 62)],
        serve_latency_us_count: 63,
        serve_latency_us_total: 64,
        serve_latency_us_max: 65,
        serve_latency_us_buckets: vec![(2, 66), (1024, 67)],
    }
}

/// Recorded from the hand-written renderer that preceded the counter
/// registry; the registry must reproduce it exactly.
#[rustfmt::skip]
const PINNED: &str = concat!(
    r#"{"#, "\n",
    r#"  "schema": "clumsy-metrics-v1","#, "\n",
    r#"  "elapsed_ms": 123456,"#, "\n",
    r#"  "jobs": {"jobs_total": 1, "jobs_completed": 2, "jobs_replayed": 3, "jobs_retried": 4, "jobs_abandoned": 5, "jobs_failed": 6, "abandoned_live": 7, "abandoned_peak": 8, "abandoned_cap_hits": 9},"#, "\n",
    r#"  "faults": {"faults_injected": 10, "tag_faults_injected": 11, "parity_faults_injected": 12, "l2_faults_injected": 13, "faults_detected": 14, "faults_corrected": 15, "strike_retries": 16, "recovery_failures": 17, "ways_disabled": 20, "salvage_writebacks": 21, "bypass_accesses": 22},"#, "\n",
    r#"  "outcomes": {"outcome_masked": 23, "outcome_corrected": 24, "outcome_detected_recovered": 25, "outcome_detected_fatal": 26, "outcome_sdc": 27, "outcome_recovery_failed": 28},"#, "\n",
    r#"  "serve": {"packets_ingested": 29, "packets_shed": 30, "packets_processed": 35, "packets_erroneous": 36, "packets_dropped": 37, "packets_abandoned": 38, "shard_panics": 39, "shard_restarts": 40, "shard_setup_retries": 41, "queue_highwater": 42, "packets_shed_flow_cap": 31, "drr_deficit_topups": 34, "serve_latency_us_count": 63, "serve_latency_us_total": 64, "serve_latency_us_max": 65, "serve_latency_us_buckets": [[2, 66], [1024, 67]]},"#, "\n",
    r#"  "class": {"packets_shed_control": 43, "packets_shed_data": 44, "packets_preempt_shed": 45, "packets_shed_slo": 46, "slo_trigger_activations": 47, "slo_last_p99_us": 48, "queue_invariant_repairs": 50},"#, "\n",
    r#"  "journal": {"journal_records": 51, "journal_fsyncs": 52, "journal_fsync_us_total": 53, "journal_fsync_us_max": 54},"#, "\n",
    r#"  "engine": {"engine_jobs": 55, "engine_us_total": 56, "fast_forward_accesses": 18, "slow_path_accesses": 19},"#, "\n",
    r#"  "job_time": {"job_us_count": 57, "job_us_total": 58, "job_us_max": 59, "job_us_buckets": [[1, 60], [64, 61], [4096, 62]]}"#, "\n",
    r#"}"#, "\n",
);

#[test]
fn metrics_json_is_pinned_byte_for_byte() {
    let json = populated().to_json();
    assert_eq!(json, PINNED, "metrics JSON moved:\n{json}");
}

#[test]
fn a_populated_file_carries_exactly_the_registry_keys() {
    let t = Telemetry::with_shards(3);
    // Spread over the shards, so the fold is part of the round trip.
    for (i, &c) in Counter::ALL.iter().enumerate() {
        t.count(i, c, 100 + i as u64);
    }
    let map = parse_metrics(&t.metrics_json()).expect("schema marker present");
    let keys = metric_keys();
    let unique: BTreeSet<&str> = keys.iter().map(String::as_str).collect();
    assert_eq!(unique.len(), keys.len(), "a key is declared twice");
    assert_eq!(
        map.keys().map(String::as_str).collect::<BTreeSet<_>>(),
        unique
    );
    for (i, &c) in Counter::ALL.iter().enumerate() {
        assert_eq!(map[c.key()], 100 + i as u64, "{}", c.key());
    }
}
