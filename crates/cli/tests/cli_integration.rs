//! End-to-end tests spawning the actual `clumsy` binary.

use std::process::Command;

fn clumsy(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_clumsy"))
        .args(args)
        .output()
        .expect("binary spawns");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn no_arguments_prints_help() {
    let (stdout, _, ok) = clumsy(&[]);
    assert!(ok);
    assert!(stdout.contains("USAGE"));
}

#[test]
fn run_produces_a_report() {
    let (stdout, _, ok) = clumsy(&[
        "run",
        "--app",
        "tl",
        "--packets",
        "80",
        "--cr",
        "0.5",
        "--detection",
        "parity",
    ]);
    assert!(ok);
    assert!(stdout.contains("relative EDF^2"));
    assert!(stdout.contains("80/80 packets"));
}

#[test]
fn run_json_is_machine_readable() {
    let (stdout, _, ok) = clumsy(&["run", "--app", "crc", "--packets", "40", "--json"]);
    assert!(ok);
    let line = stdout.trim();
    assert!(line.starts_with('{') && line.ends_with('}'));
    assert!(line.contains("\"app\":\"crc\""));
    assert!(line.contains("\"packets_completed\":40"));
}

#[test]
fn bad_option_exits_nonzero_with_message() {
    let (_, stderr, ok) = clumsy(&["run", "--cr", "2.0"]);
    assert!(!ok);
    assert!(stderr.contains("--cr"));
}

#[test]
fn unknown_command_exits_nonzero() {
    let (_, stderr, ok) = clumsy(&["explode"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
}

#[test]
fn model_command_prints_operating_points() {
    let (stdout, _, ok) = clumsy(&["model"]);
    assert!(ok);
    assert!(stdout.contains("P_E/bit"));
}

#[test]
fn metrics_command_reads_typed_values_with_distinct_exit_codes() {
    let t = clumsy_core::Telemetry::with_shards(1);
    t.count(0, clumsy_core::Counter::jobs_total, 7);
    t.queue_depth_sample(42);
    let dir = std::env::temp_dir().join(format!("clumsy-metrics-cmd-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let good = dir.join("metrics.json");
    std::fs::write(&good, t.metrics_json()).expect("write metrics");
    let good = good.display().to_string();
    let code = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_clumsy"))
            .args(args)
            .output()
            .expect("binary spawns");
        (
            String::from_utf8_lossy(&out.stdout).into_owned(),
            out.status.code(),
        )
    };

    // One value per line, in the order asked.
    let (stdout, status) = code(&["metrics", &good, "queue_highwater", "jobs_total"]);
    assert_eq!(status, Some(0));
    assert_eq!(stdout, "42\n7\n");
    // A key outside the registry is a usage error, whatever the file.
    assert_eq!(code(&["metrics", &good, "no_such_key"]).1, Some(2));
    assert_eq!(code(&["metrics", &good, "job_us_buckets"]).1, Some(2));
    assert_eq!(code(&["metrics", &good]).1, Some(2));
    // No schema marker, or a registry key the file lacks: a failure.
    let bare = dir.join("bare.json");
    std::fs::write(&bare, "{\"jobs_total\": 7}").expect("write");
    assert_eq!(
        code(&["metrics", &bare.display().to_string(), "jobs_total"]).1,
        Some(1)
    );
    let cut = dir.join("cut.json");
    let json = t.metrics_json();
    std::fs::write(
        &cut,
        &json[..json.find("\"faults\"").expect("faults group")],
    )
    .expect("write");
    let cut = cut.display().to_string();
    assert_eq!(
        code(&["metrics", &cut, "jobs_total"]),
        ("7\n".into(), Some(0))
    );
    assert_eq!(code(&["metrics", &cut, "faults_injected"]).1, Some(1));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn run_metrics_hold_one_timed_sample_per_engine_job() {
    let dir = std::env::temp_dir().join(format!("clumsy-run-metrics-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("metrics.json");
    let path_arg = path.display().to_string();
    let (_, stderr, ok) = clumsy(&[
        "run",
        "--app",
        "crc",
        "--packets",
        "40",
        "--trials",
        "2",
        "--metrics",
        &path_arg,
    ]);
    assert!(ok, "{stderr}");
    let text = std::fs::read_to_string(&path).expect("metrics written");
    let map = clumsy_core::telemetry::parse_metrics(&text).expect("schema marker present");
    // One golden pass, then two trials of the design point and two of
    // its baseline: five engine jobs, each timed once.
    for key in [
        "jobs_total",
        "jobs_completed",
        "engine_jobs",
        "job_us_count",
    ] {
        assert_eq!(map.get(key), Some(&5), "{key}");
    }
    let buckets = text
        .split("\"job_us_buckets\": [")
        .nth(1)
        .and_then(|rest| rest.split("]]").next())
        .expect("job histogram present");
    let samples: u64 = buckets
        .split('[')
        .filter_map(|pair| pair.split(',').nth(1))
        .map(|n| {
            n.trim_matches(|c: char| !c.is_ascii_digit())
                .parse::<u64>()
                .expect("count")
        })
        .sum();
    assert_eq!(samples, 5, "histogram {buckets}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Kill a durable campaign mid-run with SIGTERM, resume it, and require
/// the final CSV to be byte-for-byte what an uninterrupted run writes.
/// Timing-tolerant: if the campaign wins the race and finishes before
/// the signal lands, the bitwise comparison still applies.
#[cfg(unix)]
#[test]
fn durable_campaign_survives_sigterm_and_resumes_bitwise_identically() {
    let dir = std::env::temp_dir().join(format!("clumsy-kill-resume-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let journal = dir.join("campaign.jsonl");
    let clean_csv = dir.join("clean.csv");
    let resumed_csv = dir.join("resumed.csv");
    let base = |csv: &std::path::Path| -> Vec<String> {
        [
            "campaign",
            "--app",
            "route",
            "--packets",
            "900",
            "--trials",
            "2",
            "--jobs",
            "2",
            "--csv",
        ]
        .iter()
        .map(ToString::to_string)
        .chain([csv.display().to_string()])
        .collect()
    };

    // Reference: one uninterrupted, non-durable run.
    let clean_args = base(&clean_csv);
    let (_, stderr, ok) = clumsy(&clean_args.iter().map(String::as_str).collect::<Vec<_>>());
    assert!(ok, "clean run failed: {stderr}");
    let clean = std::fs::read(&clean_csv).unwrap();

    // The same grid, journaled, with a SIGTERM landing mid-run.
    let mut args = base(&resumed_csv);
    args.extend([
        "--durable".to_string(),
        "--journal".to_string(),
        journal.display().to_string(),
    ]);
    let mut child = Command::new(env!("CARGO_BIN_EXE_clumsy"))
        .args(&args)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("binary spawns");
    std::thread::sleep(std::time::Duration::from_millis(300));
    let _ = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status();
    let status = child.wait().unwrap();

    match status.code() {
        Some(3) => {
            // Interrupted and resumable: finish it with --resume.
            assert!(journal.exists(), "interrupt must leave the journal");
            args.push("--resume".to_string());
            let out = Command::new(env!("CARGO_BIN_EXE_clumsy"))
                .args(&args)
                .output()
                .unwrap();
            assert!(
                out.status.success(),
                "resume failed: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            assert!(!journal.exists(), "a completed run retires its journal");
        }
        Some(0) => {} // finished before the signal; the comparison below still holds
        other => panic!("unexpected exit status {other:?}"),
    }
    let resumed = std::fs::read(&resumed_csv).unwrap();
    assert_eq!(
        clean, resumed,
        "resumed CSV must be bitwise identical to a clean run"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn watchdog_flag_is_accepted() {
    let (stdout, _, ok) = clumsy(&[
        "run",
        "--app",
        "tl",
        "--packets",
        "60",
        "--cr",
        "0.25",
        "--watchdog",
    ]);
    assert!(ok, "{stdout}");
}
