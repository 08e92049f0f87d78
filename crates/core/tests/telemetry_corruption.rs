//! Property-based tests for the telemetry metrics reader:
//! [`parse_metrics`] consumes whatever a half-written, truncated or
//! corrupted `--metrics` file contains and must never panic — it
//! returns `None` (unrecognizable) or a subset of the recorded
//! counters, never garbage presented as data.

use clumsy_core::telemetry::{parse_metrics, METRICS_SCHEMA};
use clumsy_core::{Counter, Telemetry};
use proptest::prelude::*;
use std::time::Duration;

/// A telemetry block with some activity in every counter family, so
/// its JSON exercises all key groups.
fn busy_telemetry() -> Telemetry {
    let t = Telemetry::with_shards(2);
    t.count(0, Counter::jobs_total, 10);
    t.count(0, Counter::jobs_replayed, 3);
    for job in 0..5 {
        t.job_completed(job, Duration::from_micros(150 + job as u64 * 40));
    }
    t.count(0, Counter::jobs_retried, 1);
    t.count(0, Counter::jobs_failed, 1);
    let _ = t.abandoned_attempt();
    t.count(0, Counter::abandoned_cap_hits, 1);
    t.count(0, Counter::journal_records, 4);
    t.journal_fsync(Duration::from_micros(900));
    t.engine_job(0, Duration::from_micros(75));
    t
}

#[test]
fn clean_metrics_json_round_trips_every_counter() {
    let t = busy_telemetry();
    let json = t.metrics_json();
    assert!(json.contains(METRICS_SCHEMA));
    let map = parse_metrics(&json).expect("own output must parse");
    let snap = t.snapshot();
    assert_eq!(map["jobs_total"], snap.jobs_total);
    assert_eq!(map["jobs_completed"], snap.jobs_completed);
    assert_eq!(map["jobs_replayed"], snap.jobs_replayed);
    assert_eq!(map["jobs_retried"], snap.jobs_retried);
    assert_eq!(map["jobs_abandoned"], snap.jobs_abandoned);
    assert_eq!(map["jobs_failed"], snap.jobs_failed);
    assert_eq!(map["abandoned_cap_hits"], snap.abandoned_cap_hits);
    assert_eq!(map["journal_records"], snap.journal_records);
    assert_eq!(map["journal_fsyncs"], snap.journal_fsyncs);
    assert_eq!(map["engine_jobs"], snap.engine_jobs);
    assert_eq!(map["job_us_count"], snap.job_us_count);
}

#[test]
fn text_without_the_schema_marker_is_rejected() {
    assert_eq!(parse_metrics(""), None);
    assert_eq!(parse_metrics("{\"jobs_total\": 5}"), None);
    assert_eq!(parse_metrics("clumsy-metrics-v0"), None);
}

proptest! {
    /// Arbitrary garbage never panics the reader.
    #[test]
    fn arbitrary_text_never_panics(bytes in collection::vec(any::<u8>(), 0..400)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_metrics(&text);
    }

    /// Truncating a real metrics file at any byte boundary never
    /// panics, and every key the reader does recover carries the value
    /// the intact file recorded — truncation can lose counters but
    /// must not invent or corrupt them.
    #[test]
    fn truncation_never_panics_and_never_corrupts(cut in 0usize..2000) {
        let json = busy_telemetry().metrics_json();
        let full = parse_metrics(&json).expect("intact file parses");
        let cut = cut.min(json.len());
        let Some(prefix) = json.get(..cut) else {
            return Ok(()); // cut landed inside a multi-byte char
        };
        if let Some(partial) = parse_metrics(prefix) {
            for (key, value) in &partial {
                // The final key before the cut may have lost trailing
                // digits; it must still be a prefix of the real value.
                let real = full[key].to_string();
                prop_assert!(
                    real.starts_with(&value.to_string()),
                    "key {key} read {value}, intact file has {real}"
                );
            }
        }
    }

    /// Flipping one byte anywhere in a real metrics file never panics
    /// the reader.
    #[test]
    fn single_byte_flips_never_panic(pos in 0usize..2000, flip in 1u8..=255) {
        let json = busy_telemetry().metrics_json();
        let mut bytes = json.into_bytes();
        let pos = pos % bytes.len();
        bytes[pos] ^= flip;
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_metrics(&text);
    }

    /// Appending garbage after a valid file never panics and keeps the
    /// valid prefix readable.
    #[test]
    fn appended_garbage_keeps_the_valid_prefix_readable(
        bytes in collection::vec(any::<u8>(), 0..100),
    ) {
        let json = busy_telemetry().metrics_json();
        let full = parse_metrics(&json).expect("intact file parses");
        let tail = String::from_utf8_lossy(&bytes);
        let map = parse_metrics(&format!("{json}{tail}"));
        let map = map.expect("schema marker still present");
        for (key, value) in &full {
            prop_assert_eq!(map.get(key), Some(value), "key {}", key);
        }
    }
}
