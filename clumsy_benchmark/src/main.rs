//! `clumsy_benchmark` — the repository benchmark.
//!
//! One process runs the three workloads of `README.md` through the public
//! APIs of `clumsy-core` and `netbench`, checks their outputs, and prints
//! every end-to-end metric with its unit and sample count. `--trace`
//! reruns each workload with spans recorded around the calls into each
//! layer, writes them to `target/clumsy-benchmark/trace-<workload>.json`
//! and prints the per-layer metrics instead.
//!
//! ```text
//! clumsy_benchmark [--workload <name|all>] [--seed <u64>] [--seconds <s>]
//!                  [--trace [0|1]] [--smoke]
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. The exit code is 0 when
//! every check passed, 1 when one failed and 2 on a usage error. The
//! internal `--set-up` flag makes the program time one cold set-up of one
//! workload, print its seconds and exit; `setup_s` runs it in child
//! processes.

mod batch;
mod serve;
mod stats;
mod trace;

use cache_sim::MemStats;
use clumsy_core::campaign::RESEED_STRIDE;
use clumsy_core::ClumsyConfig;
use netbench::{fnv1a_fold, TraceConfig, FNV_OFFSET};
use stats::{median, Log2Histogram};
use std::path::Path;
use std::time::Instant;
use trace::Spans;

/// The seed the pinned digests below were recorded at. It maps to the
/// paper's default trace and fault seeds.
const DEFAULT_SEED: u64 = 0;

/// Measurement time per workload when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

/// Where `--trace` writes its span files and the campaign its journal.
pub const OUT_DIR: &str = "target/clumsy-benchmark";

/// Cold set-ups timed per run, each in a fresh child process so that no
/// allocator or memo state carries over from the last; `setup_s` is
/// their median.
const SETUPS: usize = 7;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    Grid,
    CampaignSlowpath,
    Serve,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::Grid, Workload::CampaignSlowpath, Workload::Serve];

    fn name(self) -> &'static str {
        match self {
            Workload::Grid => "grid",
            Workload::CampaignSlowpath => "campaign-slowpath",
            Workload::Serve => "serve",
        }
    }

    /// The output digest at [`DEFAULT_SEED`] and full scale. A workload
    /// whose digest differs has changed what it computes, not just how
    /// fast.
    fn pin(self) -> u64 {
        match self {
            Workload::Grid => 0x2f79_bee0_cf63_d725,
            Workload::CampaignSlowpath => 0x9815_8c05_9681_367b,
            Workload::Serve => 0x35de_0ef7_683e_080d,
        }
    }
}

/// Command-line settings shared by every workload.
#[derive(Debug)]
pub struct Opts {
    seed: u64,
    /// How long each workload's measurement runs.
    pub seconds: f64,
    /// Whether this is the per-layer (`--trace`) run.
    pub trace: bool,
    /// Tiny inputs for a quick self-test; digests are not pinned.
    pub smoke: bool,
    /// Child mode: time one cold set-up, print its seconds and exit.
    set_up: bool,
}

impl Opts {
    /// Traffic seed: the paper trace's seed at [`DEFAULT_SEED`].
    pub fn trace_seed(&self) -> u64 {
        TraceConfig::paper().seed ^ self.seed.wrapping_mul(RESEED_STRIDE)
    }

    /// Fault seed: the paper's base fault seed at [`DEFAULT_SEED`].
    pub fn fault_seed(&self) -> u64 {
        ClumsyConfig::baseline().seed ^ self.seed.wrapping_mul(RESEED_STRIDE).rotate_left(29)
    }
}

/// Calls `unit` until `seconds` have passed and at least `min` units
/// ran, returning every result.
pub fn repeat<T>(seconds: f64, min: usize, mut unit: impl FnMut(usize) -> T) -> Vec<T> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed().as_secs_f64() < seconds {
        out.push(unit(out.len()));
    }
    out
}

/// FNV-1a over the `Debug` rendering of `value`: `f64`s print their
/// shortest round-trip form, so equal renderings mean bitwise-equal
/// results.
pub fn digest_of(value: &impl std::fmt::Debug) -> u64 {
    fnv1a_fold(FNV_OFFSET, format!("{value:?}").into_bytes())
}

/// One timed repetition's end-to-end measurements. Latency is per
/// request: a job for the batch workloads, a packet's enqueue→verdict
/// time for serve.
#[derive(Debug)]
pub struct Repetition {
    pub pkt_per_s: f64,
    pub p50_us: Option<f64>,
    pub p95_us: Option<f64>,
    /// Requests whose latency was measured.
    pub requests: u64,
}

impl Repetition {
    /// A repetition whose latency comes from a telemetry histogram.
    pub fn from_histogram(pkt_per_s: f64, h: &Log2Histogram) -> Self {
        Repetition {
            pkt_per_s,
            p50_us: h.percentile(0.50),
            p95_us: h.percentile(0.95),
            requests: h.count(),
        }
    }
}

/// The end-to-end measurements of one workload (printed without
/// `--trace`).
#[derive(Debug, Default)]
pub struct EndToEnd {
    pub reps: Vec<Repetition>,
    /// Seconds per cold set-up, one value per child process.
    pub setup_s: Vec<f64>,
}

/// The per-layer measurements of one workload (printed with `--trace`).
/// Every workload reports every field; README.md gives each field's
/// definition per workload.
#[derive(Debug, Default)]
pub struct Layers {
    pub gen_ns: f64,
    pub golden_ns: f64,
    pub measured_ns: f64,
    pub dispatch_ns: f64,
    pub handoff_ns: f64,
    pub busy_frac: f64,
    pub latency: Log2Histogram,
    /// Measured-pass memory statistics over `packets` packets.
    pub stats: MemStats,
    pub packets: f64,
    pub jobs_retried: u64,
    pub fsyncs: u64,
    pub fsync_frac: f64,
    pub queue_highwater: u64,
    pub gen_late_frac: f64,
    pub trace_overhead: f64,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub e2e: EndToEnd,
    pub layers: Layers,
    /// Operations attempted: jobs for batch, generated packets for serve.
    pub attempted: u64,
    /// Attempted operations that failed (failed jobs; shed or abandoned
    /// packets).
    pub failed: u64,
    /// Output digest, compared with the pin at the default seed.
    pub digest: u64,
    /// Descriptions of the checks that failed.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }
}

/// One printed metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn metric(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name,
        value,
        unit,
        samples,
    }
}

/// The end-to-end metrics. Interference from other tenants of a shared
/// host only ever slows a repetition down, so each timing is the best
/// repetition's: the highest throughput and the lowest percentiles.
fn end_to_end_metrics(o: &mut Outcome, peak_rss_mib: f64) -> Vec<Metric> {
    let reps = &o.e2e.reps;
    let requests = reps.iter().map(|r| r.requests).sum::<u64>() as usize;
    let best = |f: fn(&Repetition) -> Option<f64>| {
        reps.iter()
            .map(f)
            .collect::<Option<Vec<f64>>>()
            .and_then(|v| v.into_iter().reduce(f64::min))
    };
    let (p50, p95) = (best(|r| r.p50_us), best(|r| r.p95_us));
    let pkt_per_s = reps.iter().map(|r| r.pkt_per_s).fold(0.0, f64::max);
    let n_reps = reps.len();
    o.check(p50.is_some() && p95.is_some(), || {
        "a repetition timed too few requests for its p95".into()
    });
    vec![
        metric("pkt_per_s", pkt_per_s, "pkt/s", n_reps),
        metric("p50_us", p50.unwrap_or(0.0), "us", requests),
        metric("p95_us", p95.unwrap_or(0.0), "us", requests),
        metric(
            "setup_s",
            median(&o.e2e.setup_s).unwrap_or(0.0),
            "s",
            o.e2e.setup_s.len(),
        ),
        metric("peak_rss_mb", peak_rss_mib, "MiB", 1),
    ]
}

fn layer_metrics(l: &Layers) -> Vec<Metric> {
    let per = |n: u64, scale: f64| {
        if l.packets > 0.0 {
            n as f64 * scale / l.packets
        } else {
            0.0
        }
    };
    let accesses = l.stats.accesses();
    let slow_frac = if accesses > 0 {
        l.stats.slow_path_accesses as f64 / accesses as f64
    } else {
        0.0
    };
    let n = l.latency.count() as usize;
    // p99 falls back to the observed maximum when too few samples lie
    // beyond it; the sample count printed beside it says which.
    let p99 = l
        .latency
        .percentile(0.99)
        .unwrap_or(l.latency.max_us as f64);
    vec![
        metric("netbench.gen_ns_per_pkt", l.gen_ns, "ns", 1),
        metric("netbench.golden_ns_per_pkt", l.golden_ns, "ns", 1),
        metric("netbench.measured_ns_per_pkt", l.measured_ns, "ns", 1),
        metric("dispatch.ns_per_pkt", l.dispatch_ns, "ns", 1),
        metric("handoff.ns_per_pkt", l.handoff_ns, "ns", 1),
        metric("worker.busy_frac", l.busy_frac, "ratio", 1),
        metric(
            "latency.mean_us",
            l.latency.mean_us().unwrap_or(0.0),
            "us",
            n,
        ),
        metric("latency.p99_us", p99, "us", n),
        metric(
            "cache-sim.accesses_per_pkt",
            per(accesses, 1.0),
            "acc/pkt",
            1,
        ),
        metric("cache-sim.slow_path_frac", slow_frac, "ratio", 1),
        metric(
            "cache-sim.faults_per_kpkt",
            per(l.stats.faults_injected, 1e3),
            "1/kpkt",
            1,
        ),
        metric(
            "cache-sim.strike_retries_per_kpkt",
            per(l.stats.strike_retries, 1e3),
            "1/kpkt",
            1,
        ),
        metric("campaign.jobs_retried", l.jobs_retried as f64, "count", 1),
        metric("journal.fsyncs", l.fsyncs as f64, "count", 1),
        metric("journal.fsync_frac", l.fsync_frac, "ratio", 1),
        metric(
            "serve.queue_highwater",
            l.queue_highwater as f64,
            "count",
            1,
        ),
        metric("serve.gen_late_frac", l.gen_late_frac, "ratio", 1),
        metric("bench.trace_overhead", l.trace_overhead, "ratio", 1),
    ]
}

/// Starts a fresh peak-RSS window (Linux: `VmHWM` resets on `5`).
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set since the last reset, in MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Seconds one cold set-up of `w` takes in this process.
fn set_up_once(w: Workload, opts: &Opts) -> f64 {
    match w {
        Workload::Grid => batch::setup_s(opts, false),
        Workload::CampaignSlowpath => batch::setup_s(opts, true),
        Workload::Serve => serve::setup_s(opts),
    }
}

/// Times [`SETUPS`] cold set-ups of `w`, each in a child process that
/// runs [`set_up_once`] and exits.
fn cold_setups(w: Workload, opts: &Opts) -> Result<Vec<f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    (0..SETUPS)
        .map(|_| {
            let mut cmd = std::process::Command::new(&exe);
            cmd.args(["--set-up", "--workload", w.name()])
                .args(["--seed", &opts.seed.to_string()]);
            if opts.smoke {
                cmd.arg("--smoke");
            }
            let out = cmd
                .output()
                .map_err(|e| format!("cannot start a set-up process: {e}"))?;
            let text = String::from_utf8_lossy(&out.stdout);
            if !out.status.success() {
                return Err(format!(
                    "set-up process failed: {}",
                    String::from_utf8_lossy(&out.stderr)
                ));
            }
            text.trim()
                .parse()
                .map_err(|_| format!("set-up process printed {text:?}"))
        })
        .collect()
}

fn run(w: Workload, opts: &Opts) -> (Outcome, Vec<Metric>) {
    let setups = if opts.trace {
        Ok(Vec::new())
    } else {
        cold_setups(w, opts)
    };
    reset_peak_rss();
    let mut spans = opts.trace.then(Spans::new);
    let mut o = match w {
        Workload::Grid => batch::grid(opts, spans.as_mut()),
        Workload::CampaignSlowpath => batch::campaign(opts, spans.as_mut()),
        Workload::Serve => serve::serve(opts, spans.as_mut()),
    };
    let rss = peak_rss_mib();
    match setups {
        Ok(s) => o.e2e.setup_s = s,
        Err(e) => o.failures.push(e),
    }
    if !opts.smoke && opts.seed == DEFAULT_SEED {
        let (digest, pin) = (o.digest, w.pin());
        o.check(digest == pin, || {
            format!("digest {digest:#018x} differs from the pin {pin:#018x}")
        });
    }
    let metrics = match &spans {
        Some(s) => {
            let path = Path::new(OUT_DIR).join(format!("trace-{}.json", w.name()));
            if let Err(e) = s.write(&path, w.name()) {
                o.failures
                    .push(format!("cannot write {}: {e}", path.display()));
            }
            layer_metrics(&o.layers)
        }
        None => end_to_end_metrics(&mut o, rss),
    };
    (o, metrics)
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: clumsy_benchmark [--workload <grid|campaign-slowpath|serve|all>] \
         [--seed <u64>] [--seconds <s>] [--trace [0|1]] [--smoke]"
    );
    std::process::exit(2);
}

fn parse_args() -> (Vec<Workload>, Opts) {
    let mut workloads = Workload::ALL.to_vec();
    let mut opts = Opts {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        smoke: false,
        set_up: false,
    };
    let mut seconds = None;
    let mut args = std::env::args().skip(1).peekable();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{name} needs a value")))
        };
        match arg.as_str() {
            "--workload" => {
                let v = value("--workload");
                workloads = if v == "all" {
                    Workload::ALL.to_vec()
                } else {
                    vec![*Workload::ALL
                        .iter()
                        .find(|w| w.name() == v)
                        .unwrap_or_else(|| usage(&format!("unknown workload {v:?}")))]
                };
            }
            "--seed" => {
                let v = value("--seed");
                opts.seed = v
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("bad --seed {v:?}")));
            }
            "--seconds" => {
                let v = value("--seconds");
                seconds = Some(
                    v.parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s >= 0.0)
                        .unwrap_or_else(|| usage(&format!("bad --seconds {v:?}"))),
                );
            }
            "--trace" => {
                opts.trace = match args.peek().map(String::as_str) {
                    Some("0") => {
                        args.next();
                        false
                    }
                    Some("1") => {
                        args.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => opts.smoke = true,
            "--set-up" => opts.set_up = true,
            other => usage(&format!("unknown argument {other:?}")),
        }
    }
    // Smoke runs do the minimum number of repetitions unless told more.
    opts.seconds = seconds.unwrap_or(if opts.smoke { 0.0 } else { DEFAULT_SECONDS });
    (workloads, opts)
}

fn main() {
    let (workloads, opts) = parse_args();
    let single = workloads.len() == 1;
    if opts.set_up {
        if !single {
            usage("--set-up needs one --workload");
        }
        println!("{}", set_up_once(workloads[0], &opts));
        return;
    }
    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut json_metrics = Vec::new();
    for w in workloads {
        let (o, metrics) = run(w, &opts);
        println!(
            "{}: attempted {} failed {} digest {:#018x}",
            w.name(),
            o.attempted,
            o.failed,
            o.digest
        );
        for m in &metrics {
            println!(
                "  {:<36} {:>16.4} {:<8} n={}",
                m.name, m.value, m.unit, m.samples
            );
            let key = if single {
                m.name.to_string()
            } else {
                format!("{}/{}", w.name(), m.name)
            };
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            json_metrics.push(format!(
                "\"{key}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.unit
            ));
        }
        for f in &o.failures {
            eprintln!("check failed: {}: {f}", w.name());
        }
        correct &= o.failures.is_empty();
        attempted += o.attempted;
        failed += o.failed;
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        json_metrics.join(", ")
    );
    std::process::exit(if correct { 0 } else { 1 });
}
