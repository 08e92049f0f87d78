//! End-to-end tests for `clumsy serve`, spawning the actual binary.
//!
//! These run out of process on purpose: the serve path installs the
//! global interrupt handler and reacts to real signals, and sharing
//! that flag with in-process tests (the durable campaign tests flip it
//! too) would race. A child process gives each test its own flag, its
//! own handler, and a real SIGTERM.

use clumsy_core::telemetry::parse_metrics;
use std::collections::BTreeMap;
use std::process::Command;

/// Serve flags shared by every test: small app, few shards, and a shed
/// timeout far beyond any scheduler hiccup so runs are deterministic
/// (zero shed) regardless of machine load.
const COMMON: &[&str] = &[
    "serve",
    "--app",
    "crc",
    "--shards",
    "3",
    "--queue-depth",
    "64",
    "--shed-timeout-ms",
    "60000",
];

fn serve_bounded(extra: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_clumsy"))
        .args(COMMON)
        .args(["--packets", "400"])
        .args(extra)
        .output()
        .expect("binary spawns");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

/// Extracts the per-shard summary rows: `(shard, processed, dropped,
/// abandoned, restarts, digest)`.
fn shard_rows(stdout: &str) -> Vec<(usize, u64, u64, u64, u64, String)> {
    stdout
        .lines()
        .filter_map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            if f.len() != 10 {
                return None;
            }
            Some((
                f[0].parse().ok()?,
                f[1].parse().ok()?,
                f[3].parse().ok()?,
                f[4].parse().ok()?,
                f[5].parse().ok()?,
                f[9].to_string(),
            ))
        })
        .collect()
}

#[cfg(unix)]
#[test]
fn sigterm_mid_stream_drains_and_exits_zero() {
    let dir = std::env::temp_dir().join(format!("clumsy-serve-term-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let metrics = dir.join("serve-metrics.json");

    // Unbounded stream: only the signal can end it.
    let child = Command::new(env!("CARGO_BIN_EXE_clumsy"))
        .args(COMMON)
        .args(["--metrics", &metrics.display().to_string()])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("binary spawns");
    std::thread::sleep(std::time::Duration::from_millis(700));
    let _ = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status();
    let out = child.wait_with_output().expect("child joins");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();

    // The robustness contract: a drained serve is a success.
    assert_eq!(out.status.code(), Some(0), "expected exit 0\n{stdout}");
    assert!(stdout.contains("accounting ok"), "{stdout}");
    assert!(
        stdout.contains("drained all queues and exited cleanly"),
        "{stdout}"
    );

    // The final metrics snapshot is schema-stable and its accounting
    // identity proves no packet was lost untracked or processed twice:
    // everything ingested was processed, dropped, or abandoned.
    let text = std::fs::read_to_string(&metrics).expect("final metrics written");
    assert!(text.contains("clumsy-metrics-v1"), "{text}");
    let map = parse_metrics(&text).expect("schema marker present");
    let get = |k: &str| *map.get(k).unwrap_or_else(|| panic!("metrics lost {k}"));
    assert!(get("packets_ingested") > 0, "{text}");
    assert_eq!(
        get("packets_ingested"),
        get("packets_processed") + get("packets_dropped") + get("packets_abandoned"),
        "drain accounting broken: {text}"
    );
    assert_eq!(get("shard_panics"), 0, "{text}");
    assert!(get("queue_highwater") >= 1, "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bounded_serve_is_deterministic_and_accounts_for_every_packet() {
    let (a, stderr, ok) = serve_bounded(&[]);
    assert!(ok, "serve failed: {stderr}");
    assert!(a.contains("served 400 packets"), "{a}");
    assert!(a.contains("accounting ok"), "{a}");
    let rows = shard_rows(&a);
    assert_eq!(rows.len(), 3, "expected one row per shard: {a}");
    assert_eq!(rows.iter().map(|r| r.1).sum::<u64>(), 400, "{a}");

    let (b, _, ok) = serve_bounded(&[]);
    assert!(ok);
    assert_eq!(
        rows,
        shard_rows(&b),
        "same stream + seeds must serve bit-identically"
    );
}

/// Pulls `key=value` integer fields out of a summary line like
/// `flow shed: elephant=... elephant_shed=12 mice_shed=0 ...`.
fn summary_fields(stdout: &str, line_prefix: &str) -> BTreeMap<String, u64> {
    let line = stdout
        .lines()
        .find(|l| l.starts_with(line_prefix))
        .unwrap_or_else(|| panic!("no `{line_prefix}` line in:\n{stdout}"));
    line.split_whitespace()
        .filter_map(|tok| {
            let (k, v) = tok.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

#[test]
fn default_serve_output_carries_no_overload_lines() {
    // Bitwise-stability contract: with every overload feature off the
    // summary must look exactly as it did before the overload layer
    // existed — no report lines, no schema drift.
    let (out, stderr, ok) = serve_bounded(&[]);
    assert!(ok, "{stderr}");
    assert!(!out.contains("overload:"), "{out}");
    assert!(!out.contains("flow shed:"), "{out}");
    assert!(!out.contains("class:"), "{out}");
    assert!(!out.contains("slo:"), "{out}");
}

#[test]
fn class_aware_overload_spares_control_while_data_absorbs_it() {
    let dir = std::env::temp_dir().join(format!("clumsy-serve-class-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let metrics = dir.join("class-metrics.json");

    // An elephant mix under a tight per-flow cap, with a small slice
    // of the flow population marked control and an unmeetable 1 µs
    // p99 budget: the SLO trigger must fire, data flows must absorb
    // every shed, and not one control packet may be lost.
    //
    // The queue depth is chosen deliberately: control packets can only
    // shed when a full queue holds *nothing but* control (they preempt
    // data otherwise, and are exempt from the flow cap), so a depth
    // above the run's whole control packet count (~32 of 4000 with 6
    // of 256 flows marked) makes a control shed structurally impossible
    // regardless of machine speed. The flow population is deliberately
    // large relative to the queue depth so the aggregate of the
    // per-flow caps exceeds the queue: the ingress queues actually
    // fill, backpressure paces the pump against the shards, and every
    // p99 window observes real queueing delay — the trigger fires
    // deterministically instead of racing a fast build to the end of
    // the bounded stream. The overload lands on the elephant's
    // flow-cap sheds.
    let out = Command::new(env!("CARGO_BIN_EXE_clumsy"))
        .args([
            "serve",
            "--app",
            "crc",
            "--shards",
            "2",
            "--queue-depth",
            "256",
            "--packets",
            "4000",
            "--flows",
            "256",
            "--pattern",
            "elephant",
            "--flow-queue-cap",
            "4",
            "--shed-timeout-ms",
            "60000",
            "--control-flows",
            "6",
            "--slo-p99-us",
            "1",
            "--metrics",
            &metrics.display().to_string(),
        ])
        .output()
        .expect("binary spawns");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{stdout}\n{stderr}");
    assert!(stdout.contains("accounting ok"), "{stdout}");

    // No shard wedged under the class-aware admission path.
    let rows = shard_rows(&stdout);
    assert_eq!(rows.len(), 2, "{stdout}");
    assert!(rows.iter().all(|r| r.1 > 0), "a shard wedged: {stdout}");

    // Zero control sheds; the data class absorbed the overload. Both
    // class identities are exact: offered splits the generated total,
    // shed splits the shed total.
    let c = summary_fields(&stdout, "class:");
    let cget = |k: &str| *c.get(k).unwrap_or_else(|| panic!("missing {k}: {stdout}"));
    assert_eq!(cget("control_shed"), 0, "{stdout}");
    assert!(cget("control_offered") > 0, "{stdout}");
    assert!(cget("data_shed") > 0, "overload never bit: {stdout}");
    assert_eq!(
        cget("control_offered") + cget("data_offered"),
        4000,
        "{stdout}"
    );
    // `served ... : N processed, M shed, ...` — the class split must
    // sum exactly to the head line's shed total.
    let head = stdout
        .lines()
        .find(|l| l.starts_with("served 4000 packets"))
        .unwrap_or_else(|| panic!("no head line: {stdout}"));
    let words: Vec<&str> = head.split_whitespace().collect();
    let shed_total: u64 = words
        .iter()
        .position(|&w| w.starts_with("shed"))
        .and_then(|i| words[i - 1].parse().ok())
        .unwrap_or_else(|| panic!("no shed count in head line: {head}"));
    assert_eq!(
        cget("control_shed") + cget("data_shed"),
        shed_total,
        "{stdout}"
    );

    // The SLO trigger fired and said so in both the summary and the
    // metrics JSON; the control-shed counter stayed at zero there too.
    let s = summary_fields(&stdout, "slo:");
    assert!(s.get("activations").copied().unwrap_or(0) > 0, "{stdout}");
    let text = std::fs::read_to_string(&metrics).expect("metrics written");
    let map = parse_metrics(&text).expect("schema marker present");
    let mget = |k: &str| {
        *map.get(k)
            .unwrap_or_else(|| panic!("metrics lost {k}: {text}"))
    };
    assert!(mget("slo_trigger_activations") > 0, "{text}");
    assert_eq!(mget("packets_shed_control"), 0, "{text}");
    assert!(mget("packets_shed_data") > 0, "{text}");
    assert_eq!(mget("queue_invariant_repairs"), 0, "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn overload_mode_sheds_the_elephant_and_keeps_accounting() {
    let dir = std::env::temp_dir().join(format!("clumsy-serve-over-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let metrics = dir.join("overload-metrics.json");

    // A small queue and a tight per-flow cap under an elephant mix
    // (one flow carries half the stream): the cap must bind on the
    // elephant while the mice ride in the headroom it can't hog.
    let out = Command::new(env!("CARGO_BIN_EXE_clumsy"))
        .args([
            "serve",
            "--app",
            "crc",
            "--shards",
            "2",
            "--queue-depth",
            "32",
            "--packets",
            "4000",
            "--flows",
            "1024",
            "--pattern",
            "elephant",
            "--flow-queue-cap",
            "4",
            "--shed-timeout-ms",
            "60000",
            "--metrics",
            &metrics.display().to_string(),
        ])
        .output()
        .expect("binary spawns");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(out.status.success(), "{stdout}\n{stderr}");
    assert!(stdout.contains("accounting ok"), "{stdout}");
    assert!(stdout.contains("overload: shed_flow_cap="), "{stdout}");

    // No shard wedged: both made progress.
    let rows = shard_rows(&stdout);
    assert_eq!(rows.len(), 2, "{stdout}");
    assert!(rows.iter().all(|r| r.1 > 0), "a shard wedged: {stdout}");

    // The elephant really is the top talker, and its shed *rate* is at
    // least the mice's (integer cross-multiplication, no float ratios).
    let f = summary_fields(&stdout, "flow shed:");
    let get = |k: &str| *f.get(k).unwrap_or_else(|| panic!("missing {k}: {stdout}"));
    let (e_shed, e_off) = (get("elephant_shed"), get("elephant_offered"));
    let (m_shed, m_off) = (get("mice_shed"), get("mice_offered"));
    assert!(
        e_off * 10 >= (e_off + m_off) * 4,
        "not an elephant: {stdout}"
    );
    assert!(
        e_shed * m_off >= m_shed * e_off,
        "mice shed harder than the elephant: {stdout}"
    );

    // The latency histogram made it into the serve metrics group, and
    // the two overload mechanisms fired: the flow cap shed and the DRR
    // scheduler topped up deficits.
    let text = std::fs::read_to_string(&metrics).expect("metrics written");
    let map = parse_metrics(&text).expect("schema marker present");
    let mget = |k: &str| {
        *map.get(k)
            .unwrap_or_else(|| panic!("metrics lost {k}: {text}"))
    };
    assert!(mget("serve_latency_us_count") > 0, "{text}");
    assert!(text.contains("\"serve_latency_us_buckets\""), "{text}");
    assert!(mget("packets_shed_flow_cap") > 0, "{text}");
    assert!(mget("drr_deficit_topups") > 0, "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn injected_panic_restarts_the_shard_and_leaves_siblings_untouched() {
    let (clean, _, ok) = serve_bounded(&[]);
    assert!(ok);
    let clean_rows = shard_rows(&clean);

    let (faulty, stderr, ok) = serve_bounded(&["--inject-panic", "200"]);
    assert!(ok, "a supervised panic must not fail the run: {stderr}");
    assert!(faulty.contains("accounting ok"), "{faulty}");
    assert!(faulty.contains("1 restarts"), "{faulty}");
    let faulty_rows = shard_rows(&faulty);

    // Exactly one shard caught the panic: it abandoned the in-flight
    // packet, restarted, and its post-restart digest diverged (reseeded
    // fault streams). Every sibling is bitwise untouched.
    let mut victims = 0;
    for (c, f) in clean_rows.iter().zip(&faulty_rows) {
        assert_eq!(c.0, f.0, "row order");
        if f.4 > 0 {
            victims += 1;
            assert_eq!(f.4, 1, "one restart: {faulty}");
            assert_eq!(f.3, 1, "one abandoned packet: {faulty}");
            // Consumed = processed + dropped + abandoned: the victim
            // ate the same queue contents, one of them abandoned.
            assert_eq!(c.1 + c.2 + c.3, f.1 + f.2 + f.3, "{faulty}");
        } else {
            assert_eq!(c, f, "sibling shard perturbed by the restart");
        }
    }
    assert_eq!(victims, 1, "exactly one shard owns packet 200: {faulty}");
}

#[test]
fn removed_admission_flags_are_usage_errors() {
    for (flag, value) in [("--shed-policy", Some("adaptive")), ("--rebalance", None)] {
        let out = Command::new(env!("CARGO_BIN_EXE_clumsy"))
            .args(COMMON)
            .arg(flag)
            .args(value)
            .args(["--packets", "10"])
            .output()
            .expect("binary spawns");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag}: {stderr}");
        assert!(
            stderr.contains(&format!("unknown option {flag}")),
            "{flag}: {stderr}"
        );
    }
}
