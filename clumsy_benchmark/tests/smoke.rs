//! Runs the benchmark at `--smoke` scale, without and with `--trace`,
//! and checks that every metric `BENCHMARK.json` names is printed with
//! its unit for every workload and that every output check passes —
//! including, with `--trace`, the stage replay's digest guard.

use std::process::Command;

const WORKLOADS: [&str; 3] = ["grid", "campaign-slowpath", "serve"];

/// `(name, unit)` of every metric in one list of `BENCHMARK.json`. The
/// file is flat and written by hand, so a scan for `"name"`/`"unit"`
/// pairs inside the list's brackets is enough.
fn declared(list: &str) -> Vec<(String, String)> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = json
        .find(&format!("\"{list}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {list}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("list is closed")];
    let field = |entry: &str, key: &str| -> String {
        let at = entry.find(&format!("\"{key}\"")).expect("field present") + key.len() + 2;
        let rest = &entry[at..];
        let open = rest.find('"').expect("string value") + 1;
        let close = open + rest[open..].find('"').expect("closed string");
        rest[open..close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn run_smoke(trace: &str) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_clumsy_benchmark"))
        .args(["--smoke", "--workload", "all", "--trace", trace])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    assert!(
        out.status.success(),
        "--trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    stdout
}

fn assert_prints(stdout: &str, list: &str) {
    let last = stdout.lines().last().expect("a result line");
    assert!(last.starts_with("{\"correct\": true,"), "{last}");
    let metrics = declared(list);
    assert!(!metrics.is_empty());
    for w in WORKLOADS {
        for (name, unit) in &metrics {
            let key = format!("\"{w}/{name}\": {{\"value\": ");
            let at = last
                .find(&key)
                .unwrap_or_else(|| panic!("{w}/{name} missing from {last}"));
            let rest = &last[at + key.len()..];
            let unit_field = format!("\"unit\": \"{unit}\"}}");
            assert!(
                rest[..rest.find('}').expect("object closes") + 1].ends_with(&unit_field),
                "{w}/{name} lacks unit {unit}"
            );
        }
    }
}

/// One test, so the two runs never compete for the CPU: the paced
/// workload checks that its pump keeps schedule.
#[test]
fn smoke_runs_print_every_metric_and_pass_their_checks() {
    assert_prints(&run_smoke("0"), "end_to_end");

    // --trace also checks the stage replay's digest against run_serve's.
    assert_prints(&run_smoke("1"), "per_layer");
    for w in WORKLOADS {
        let path = format!(
            "{}/target/clumsy-benchmark/trace-{w}.json",
            env!("CARGO_TARGET_TMPDIR")
        );
        let spans = std::fs::read_to_string(&path).unwrap_or_else(|_| panic!("{path} written"));
        assert!(
            spans.contains("\"spans\":[") && spans.contains("\"parent\":"),
            "{path}"
        );
    }
}
