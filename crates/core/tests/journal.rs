//! Durable-campaign integration tests: the resume-equals-uninterrupted
//! invariant, torn-tail recovery, header verification, and graceful
//! interruption.

use clumsy_core::experiment::{run_grid_on, ExperimentOptions, GridPoint};
use clumsy_core::journal;
use clumsy_core::{
    campaign, run_campaign_durable, CampaignConfig, ClumsyConfig, DurableOptions, Engine,
};
use netbench::{AppKind, TraceConfig};
use std::fs;
use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

fn tmp_journal(tag: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "clumsy-journal-it-{}-{}-{}.jsonl",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed),
        tag
    ))
}

fn small_setup() -> (ExperimentOptions, netbench::Trace, Vec<GridPoint>) {
    let opts = ExperimentOptions {
        trace: TraceConfig::small().with_packets(60),
        trials: 2,
        seed: 0x5EED,
    };
    let trace = opts.trace.generate();
    let points = vec![
        GridPoint::new(AppKind::Crc, ClumsyConfig::baseline()),
        GridPoint::new(AppKind::Tl, ClumsyConfig::baseline().with_static_cycle(0.5)),
        GridPoint::new(AppKind::Route, ClumsyConfig::paper_best()),
    ];
    (opts, trace, points)
}

fn durable(journal: PathBuf, resume: bool) -> DurableOptions {
    DurableOptions::new(journal).with_resume(resume)
}

#[test]
fn durable_campaign_matches_run_grid_on_bitwise() {
    let (opts, trace, points) = small_setup();
    let engine = Engine::with_jobs(2);
    let grid = run_grid_on(&engine, &points, &trace, &opts);
    let path = tmp_journal("clean");
    let out = run_campaign_durable(
        &engine,
        &points,
        &trace,
        &opts,
        &CampaignConfig::default(),
        &durable(path.clone(), false),
    )
    .expect("durable run succeeds");
    assert!(!out.interrupted);
    assert_eq!(out.replayed_jobs, 0);
    assert!(out.report.is_complete());
    assert_eq!(
        out.report.aggregates, grid,
        "journaling must not perturb results"
    );
    fs::remove_file(&path).ok();
}

/// The tentpole invariant: resume from every possible journal prefix
/// and require the final report to be bitwise identical to the
/// uninterrupted reference.
#[test]
fn resume_from_any_prefix_is_bitwise_identical() {
    let (opts, trace, points) = small_setup();
    let engine = Engine::with_jobs(2);
    let reference = run_grid_on(&engine, &points, &trace, &opts);

    // Record one complete journal to harvest real record lines from.
    let full_path = tmp_journal("full");
    run_campaign_durable(
        &engine,
        &points,
        &trace,
        &opts,
        &CampaignConfig::default(),
        &durable(full_path.clone(), false),
    )
    .expect("recording run succeeds");
    let full = fs::read_to_string(&full_path).unwrap();
    let lines: Vec<&str> = full.lines().collect();
    let total_jobs = points.len() * 2;
    assert_eq!(lines.len(), 1 + total_jobs, "header plus one line per job");

    for keep in 1..=lines.len() {
        let path = tmp_journal(&format!("prefix{keep}"));
        let mut f = fs::File::create(&path).unwrap();
        for line in &lines[..keep] {
            writeln!(f, "{line}").unwrap();
        }
        drop(f);
        let out = run_campaign_durable(
            &engine,
            &points,
            &trace,
            &opts,
            &CampaignConfig::default(),
            &durable(path.clone(), true),
        )
        .expect("resume succeeds");
        assert_eq!(out.replayed_jobs, keep - 1, "prefix pre-fills its jobs");
        assert!(out.report.is_complete());
        assert_eq!(
            out.report.aggregates, reference,
            "resume from {keep} lines diverged from the uninterrupted run"
        );
        fs::remove_file(&path).ok();
    }
    fs::remove_file(&full_path).ok();
}

#[test]
fn resume_tolerates_a_torn_tail_and_garbage_lines() {
    let (opts, trace, points) = small_setup();
    let engine = Engine::with_jobs(2);
    let reference = run_grid_on(&engine, &points, &trace, &opts);

    let path = tmp_journal("torn");
    run_campaign_durable(
        &engine,
        &points,
        &trace,
        &opts,
        &CampaignConfig::default(),
        &durable(path.clone(), false),
    )
    .unwrap();

    // Keep header + one record, corrupt a second record in place, then
    // append half a line as a simulated crash mid-write.
    let full = fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = full.lines().collect();
    let mut broken = String::new();
    broken.push_str(lines[0]);
    broken.push('\n');
    broken.push_str(lines[1]);
    broken.push('\n');
    broken.push_str(&lines[2].replace("\"kind\":\"job\"", "\"kind\":\"jXb\""));
    broken.push('\n');
    broken.push_str(&lines[3][..lines[3].len() / 2]);
    fs::write(&path, broken).unwrap();

    let out = run_campaign_durable(
        &engine,
        &points,
        &trace,
        &opts,
        &CampaignConfig::default(),
        &durable(path.clone(), true),
    )
    .expect("resume survives corruption");
    assert_eq!(out.replayed_jobs, 1, "only the intact record replays");
    assert_eq!(out.skipped_records, 1, "the corrupted line is counted");
    assert!(out.report.is_complete());
    assert_eq!(out.report.aggregates, reference);

    // The resumed journal must itself replay to a full, clean run.
    let final_replay = journal::replay(&path).unwrap();
    assert!(!final_replay.torn_tail);
    let jobs = final_replay.records.len();
    assert_eq!(jobs, points.len() * 2);
    fs::remove_file(&path).ok();
}

#[test]
fn resume_refuses_a_mismatched_config_naming_the_field() {
    let (opts, trace, points) = small_setup();
    let engine = Engine::with_jobs(2);
    let path = tmp_journal("mismatch");
    run_campaign_durable(
        &engine,
        &points,
        &trace,
        &opts,
        &CampaignConfig::default(),
        &durable(path.clone(), false),
    )
    .unwrap();

    // A different seed must be refused, naming `seed`.
    let reseeded = ExperimentOptions {
        seed: 0xBAD,
        ..opts.clone()
    };
    let err = run_campaign_durable(
        &engine,
        &points,
        &trace,
        &reseeded,
        &CampaignConfig::default(),
        &durable(path.clone(), true),
    )
    .expect_err("seed mismatch must refuse");
    match &err {
        journal::JournalError::HeaderMismatch {
            field,
            journal,
            expected,
        } => {
            assert_eq!(*field, "seed");
            assert_eq!(journal, &0x5EED.to_string());
            assert_eq!(expected, &0xBAD.to_string());
        }
        other => panic!("wrong error: {other:?}"),
    }
    assert!(err.to_string().contains("seed"));

    // A different grid (dropped point) must be refused via the grid hash.
    let fewer = &points[..2];
    let err = run_campaign_durable(
        &engine,
        fewer,
        &trace,
        &opts,
        &CampaignConfig::default(),
        &durable(path.clone(), true),
    )
    .expect_err("grid mismatch must refuse");
    assert!(matches!(
        err,
        journal::JournalError::HeaderMismatch {
            field: "points",
            ..
        } | journal::JournalError::HeaderMismatch { field: "grid", .. }
    ));

    // A *changed design point* with the same shape trips the grid hash.
    let mut tweaked = points.clone();
    tweaked[1] = GridPoint::new(
        AppKind::Tl,
        ClumsyConfig::baseline().with_static_cycle(0.25),
    );
    let err = run_campaign_durable(
        &engine,
        &tweaked,
        &trace,
        &opts,
        &CampaignConfig::default(),
        &durable(path.clone(), true),
    )
    .expect_err("design-point change must refuse");
    assert!(matches!(
        err,
        journal::JournalError::HeaderMismatch { field: "grid", .. }
    ));
    fs::remove_file(&path).ok();
}

/// A journal synthesized in the retired v1 format must be refused with
/// a `HeaderMismatch` naming the `version` field — both by a direct
/// replay-plus-check and end-to-end through `run_campaign_durable`.
#[test]
fn synthesized_v1_journal_is_refused_naming_the_version_field() {
    let (opts, trace, points) = small_setup();
    let engine = Engine::with_jobs(2);
    let path = tmp_journal("v1");

    // Hand-frame a v1 header line: the wire format is
    // {"crc":<crc32(body)>,"body":<body>}\n with the version inside the
    // body, so the frame itself verifies — only the version is stale.
    let body = format!(
        "{{\"kind\":\"header\",\"version\":1,\"seed\":{},\"trials\":{},\"scale\":7,\"points\":{},\"grid\":9}}",
        opts.seed,
        opts.trials,
        points.len(),
    );
    let framed = format!(
        "{{\"crc\":{},\"body\":{}}}\n",
        journal::crc32(body.as_bytes()),
        body
    );
    fs::write(&path, framed).unwrap();

    // The replayer still parses the v1 header (so it can name what it
    // found), and check() refuses it on the version field first.
    let replay = journal::replay(&path).expect("a v1 header line still parses");
    assert_eq!(replay.header.version, 1);
    let expected = journal::JournalHeader {
        version: journal::JOURNAL_VERSION,
        ..replay.header
    };
    let err = replay
        .header
        .check(&expected)
        .expect_err("a v1 journal must be refused");
    match &err {
        journal::JournalError::HeaderMismatch {
            field,
            journal,
            expected,
        } => {
            assert_eq!(*field, "version");
            assert_eq!(journal, "1");
            assert_eq!(expected, &journal::JOURNAL_VERSION.to_string());
        }
        other => panic!("wrong error: {other:?}"),
    }
    assert!(err.to_string().contains("version"));

    // End-to-end: a resume against the v1 file refuses before running
    // anything, with the same structured error.
    let err = run_campaign_durable(
        &engine,
        &points,
        &trace,
        &opts,
        &CampaignConfig::default(),
        &durable(path.clone(), true),
    )
    .expect_err("resume from a v1 journal must refuse");
    assert!(matches!(
        err,
        journal::JournalError::HeaderMismatch {
            field: "version",
            ..
        }
    ));
    fs::remove_file(&path).ok();
}

#[test]
fn stop_interrupts_gracefully_and_resume_completes_identically() {
    let (opts, trace, points) = small_setup();
    let engine = Engine::with_jobs(2);
    let reference = run_grid_on(&engine, &points, &trace, &opts);

    // Stop immediately: the poll fires before any job is launched on
    // the first loop iteration, so nothing at all gets scheduled...
    let path = tmp_journal("stop");
    let out = run_campaign_durable(
        &engine,
        &points,
        &trace,
        &opts,
        &CampaignConfig::default(),
        &DurableOptions::new(path.clone()).with_stop(Arc::new(|| true)),
    )
    .unwrap();
    assert!(out.interrupted, "work remained, so the run is resumable");
    assert!(!out.report.is_complete());
    assert!(
        out.report.failures.is_empty(),
        "interruption is not failure"
    );

    // ...and a resume finishes the whole campaign bitwise-identically.
    let out = run_campaign_durable(
        &engine,
        &points,
        &trace,
        &opts,
        &CampaignConfig::default(),
        &durable(path.clone(), true),
    )
    .unwrap();
    assert!(!out.interrupted);
    assert!(out.report.is_complete());
    assert_eq!(out.report.aggregates, reference);
    fs::remove_file(&path).ok();
}

#[test]
fn stop_after_some_results_leaves_a_resumable_journal() {
    let (opts, trace, points) = small_setup();
    let engine = Engine::with_jobs(1);
    let reference = run_grid_on(&engine, &points, &trace, &opts);
    let total_jobs = points.len() * 2;

    // Stop once at least one result has been journaled (the counter is
    // bumped by the stop closure itself observing the journal file).
    let path = tmp_journal("midstop");
    let polls = Arc::new(AtomicUsize::new(0));
    let polls_in_stop = Arc::clone(&polls);
    let out = run_campaign_durable(
        &engine,
        &points,
        &trace,
        &opts,
        &CampaignConfig::default(),
        &DurableOptions::new(path.clone()).with_stop(Arc::new(move || {
            // Let the campaign make some progress first.
            polls_in_stop.fetch_add(1, Ordering::Relaxed) >= 2
        })),
    )
    .unwrap();

    if out.interrupted {
        let replay = journal::replay(&path).unwrap();
        let done = replay.records.len();
        assert!(done < total_jobs, "interrupted run must not be complete");
        let resumed = run_campaign_durable(
            &engine,
            &points,
            &trace,
            &opts,
            &CampaignConfig::default(),
            &durable(path.clone(), true),
        )
        .unwrap();
        assert_eq!(resumed.replayed_jobs, done);
        assert!(resumed.report.is_complete());
        assert_eq!(resumed.report.aggregates, reference);
    } else {
        // On a very fast machine every job may finish between polls;
        // then the run must simply be complete and correct.
        assert_eq!(out.report.aggregates, reference);
    }
    fs::remove_file(&path).ok();
}

#[test]
fn grid_hash_is_sensitive_to_kind_and_config() {
    let a = vec![GridPoint::new(AppKind::Crc, ClumsyConfig::baseline())];
    let b = vec![GridPoint::new(AppKind::Tl, ClumsyConfig::baseline())];
    let c = vec![GridPoint::new(
        AppKind::Crc,
        ClumsyConfig::baseline().with_static_cycle(0.5),
    )];
    assert_ne!(campaign::grid_hash(&a), campaign::grid_hash(&b));
    assert_ne!(campaign::grid_hash(&a), campaign::grid_hash(&c));
    assert_eq!(campaign::grid_hash(&a), campaign::grid_hash(&a));
}
