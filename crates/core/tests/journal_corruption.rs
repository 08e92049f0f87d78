//! Property-based journal-corruption tests: arbitrary byte flips and
//! truncations must never panic the replayer, never double-count a
//! trial, and always yield either a valid subset of the recorded jobs
//! or a structured error.

use clumsy_core::journal::{
    self, JournalError, JournalHeader, JournalWriter, Record, JOURNAL_VERSION,
};
use clumsy_core::RunReport;
use netbench::ErrorCategory;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

fn tmp_path() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "clumsy-journal-prop-{}-{}.jsonl",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// A hand-built report whose fields all depend on `tag`, so reports
/// for different jobs are distinguishable after replay.
fn report(tag: u64) -> RunReport {
    let mut error_counts = BTreeMap::new();
    if tag.is_multiple_of(2) {
        error_counts.insert(ErrorCategory::Ttl, (tag % 7) as usize);
    }
    if tag.is_multiple_of(3) {
        error_counts.insert(ErrorCategory::Checksum, 1);
    }
    RunReport {
        app: "crc",
        packets_attempted: 100 + tag as usize,
        packets_completed: 90 + tag as usize,
        fatal: None,
        dropped_packets: (tag % 5) as usize,
        erroneous_packets: (tag % 11) as usize,
        error_counts,
        init_obs_total: 8,
        init_obs_wrong: (tag % 3) as usize,
        instructions: tag.wrapping_mul(0x1234_5678),
        cycles: tag as f64 * 1.75 + 0.125,
        energy: energy_model::EnergyBreakdown {
            core_nj: tag as f64,
            l1_nj: tag as f64 / 3.0,
            l2_nj: 0.0,
            mem_nj: 1e-9 * tag as f64,
            overhead_nj: 0.0,
        },
        stats: cache_sim::MemStats {
            reads: tag,
            faults_injected: tag % 13,
            ..Default::default()
        },
        freq_trace: vec![(tag as usize, 0.5)],
        epoch_faults: vec![tag % 4, tag % 6],
    }
}

/// Records a journal of `n` jobs and returns its raw bytes.
fn recorded_journal(n: usize) -> Vec<u8> {
    let path = tmp_path();
    let header = JournalHeader {
        version: JOURNAL_VERSION,
        seed: 7,
        trials: 4,
        scale: 99,
        points: n as u64,
        grid: 0xABCD,
    };
    let w = JournalWriter::create(&path, &header).expect("create");
    for job in 0..n {
        w.append_job(job, &report(job as u64));
    }
    w.finish().expect("finish");
    let bytes = std::fs::read(&path).expect("read back");
    std::fs::remove_file(&path).ok();
    bytes
}

/// Replays raw journal bytes from a temp file.
fn replay_bytes(bytes: &[u8]) -> Result<journal::Replay, JournalError> {
    let path = tmp_path();
    std::fs::write(&path, bytes).expect("write corrupted journal");
    let out = journal::replay(&path);
    std::fs::remove_file(&path).ok();
    out
}

/// Every replayed job must be bitwise identical to what was recorded
/// for that index, and no index may appear twice.
fn assert_valid_subset(replay: &journal::Replay) {
    let mut seen = std::collections::HashSet::new();
    for rec in &replay.records {
        let Record { job, report: got } = rec;
        assert!(seen.insert(*job), "job {job} double-counted");
        assert_eq!(
            got.as_ref(),
            &report(*job as u64),
            "job {job} content mutated"
        );
    }
}

proptest! {
    /// Flipping one byte anywhere must never panic; the result is
    /// either a structured error (header damage) or a valid subset of
    /// the recorded jobs with at most one record lost.
    #[test]
    fn single_byte_flip_never_panics_or_corrupts(
        n in 1usize..8,
        offset_frac in 0.0f64..1.0,
        xor in 1u8..=255,
    ) {
        let mut bytes = recorded_journal(n);
        let offset = ((bytes.len() - 1) as f64 * offset_frac) as usize;
        bytes[offset] ^= xor;
        match replay_bytes(&bytes) {
            Ok(replay) => {
                assert_valid_subset(&replay);
                // A flip inside a line loses that record; a flipped
                // newline merges two lines and loses both.
                prop_assert!(
                    replay.records.len() >= n.saturating_sub(2),
                    "one flip may cost at most two records"
                );
            }
            Err(JournalError::MissingHeader { .. }) => {
                // The flip landed in the header line: structured refusal.
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    /// Truncating at any byte must yield exactly a prefix of the
    /// recorded jobs (jobs are appended in order here, so the survivor
    /// set is `0..k`), or a structured error if the header is cut.
    #[test]
    fn truncation_yields_a_strict_prefix(n in 1usize..8, cut_frac in 0.0f64..1.0) {
        let bytes = recorded_journal(n);
        let cut = (bytes.len() as f64 * cut_frac) as usize;
        match replay_bytes(&bytes[..cut]) {
            Ok(replay) => {
                assert_valid_subset(&replay);
                for (i, rec) in replay.records.iter().enumerate() {
                    prop_assert_eq!(rec.job, i, "truncation must keep a prefix in order");
                }
                // Everything the replay accepted must lie inside the
                // valid region a resume would keep.
                prop_assert!(replay.valid_len <= cut as u64);
            }
            Err(JournalError::MissingHeader { .. }) => {
                prop_assert!(
                    cut < bytes.len(),
                    "an untruncated journal must always replay"
                );
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }

    /// Appending arbitrary garbage after a valid journal is at worst a
    /// skipped record or torn tail — every original job survives.
    #[test]
    fn trailing_garbage_never_loses_recorded_jobs(
        n in 1usize..6,
        garbage in prop::collection::vec(any::<u8>(), 0..200),
    ) {
        let mut bytes = recorded_journal(n);
        bytes.extend_from_slice(&garbage);
        let replay = replay_bytes(&bytes).expect("header is intact");
        assert_valid_subset(&replay);
        prop_assert!(replay.records.len() >= n, "recorded jobs must all survive");
    }
}
