//! Times the two heaviest grid drivers — `edf_average` (Figure 12(b),
//! the full apps × schemes × plans × trials grid) and `table1` — once on
//! a single-worker engine and once on the environment-sized engine, and
//! records wall-clock, throughput and speedup in `BENCH_engine.json`.
//!
//! Scale with `CLUMSY_PACKETS` / `CLUMSY_TRIALS`; pick the parallel
//! worker count with `CLUMSY_JOBS`. The serial and parallel passes
//! produce bitwise-identical results (asserted here), so the speedup is
//! measured on identical work.
//!
//! A third pass re-runs the parallel grid with the telemetry layer
//! attached and asserts its output is still identical, recording the
//! relative overhead in the JSON — the telemetry-is-passive claim,
//! measured rather than asserted.
//!
//! The run fails (exit 1) if single-core throughput falls below the
//! regression floor: 10× the pre-split recording of 27 387.5 pkt/s at
//! full scale, or a deliberately loose 2× under `--smoke` (a small
//! fixed-scale run sized for CI, which writes `BENCH_engine_smoke.json`
//! so it never clobbers the full-scale artifact). The best pass of the
//! `edf_average` grid is compared against the floor, which keeps the
//! gate meaningful on noisy shared runners without letting a real
//! regression hide.

use clumsy_bench::{or_exit, write_file, EXIT_FAILURES, EXIT_USAGE};
use clumsy_core::experiment::{edf_average_on, table1_on, ExperimentOptions};
use clumsy_core::{golden_for, Engine, Telemetry};
use netbench::AppKind;
use std::sync::Arc;
use std::time::Instant;

/// Number of measured simulation runs in one `edf_average` grid.
const EDF_CONFIGS: usize = 21; // baseline + 4 schemes x (4 static + dynamic)
/// Number of measured simulation runs in one `table1` grid.
const TABLE1_CONFIGS: usize = 3; // baseline, Cr = 0.5, Cr = 0.25

/// Single-core throughput recorded before the functional/timing split
/// (packets per second on the `edf_average` grid at paper scale).
const PRE_SPLIT_PKT_PER_S: f64 = 27_387.5;
/// Full-scale regression floor: the split must hold its 10×.
const FLOOR_FULL: f64 = PRE_SPLIT_PKT_PER_S * 10.0;
/// Smoke-scale floor: ~2× the old recording. Smoke runs are short and
/// jitter-prone, so the gate only catches order-of-magnitude slides.
const FLOOR_SMOKE: f64 = PRE_SPLIT_PKT_PER_S * 2.0;

struct Timing {
    serial_s: f64,
    parallel_s: f64,
    telemetry_s: f64,
    jobs_total: u64,
    packets_total: u64,
}

impl Timing {
    fn speedup(&self) -> f64 {
        self.serial_s / self.parallel_s
    }

    /// Telemetry pass wall time relative to the plain parallel pass;
    /// 1.0 means free, and anything within run-to-run noise is the
    /// "overhead within noise" acceptance bar.
    fn telemetry_overhead(&self) -> f64 {
        self.telemetry_s / self.parallel_s
    }

    fn packets_per_s(&self, elapsed: f64) -> f64 {
        self.packets_total as f64 / elapsed
    }

    /// The fastest of the three identical-output passes — the
    /// noise-robust throughput estimate the regression gate uses.
    fn best_packets_per_s(&self) -> f64 {
        let fastest = self
            .serial_s
            .min(self.parallel_s)
            .min(self.telemetry_s)
            .max(f64::MIN_POSITIVE);
        self.packets_total as f64 / fastest
    }

    fn json(&self) -> String {
        format!(
            concat!(
                "{{\"serial_s\": {:.3}, \"parallel_s\": {:.3}, ",
                "\"telemetry_s\": {:.3}, ",
                "\"speedup\": {:.3}, ",
                "\"telemetry_overhead\": {:.3}, ",
                "\"jobs_run\": {}, ",
                "\"packets_simulated\": {}, ",
                "\"packets_per_s_serial\": {:.1}, ",
                "\"packets_per_s_parallel\": {:.1}, ",
                "\"packets_per_s_best\": {:.1}}}"
            ),
            self.serial_s,
            self.parallel_s,
            self.telemetry_s,
            self.speedup(),
            self.telemetry_overhead(),
            self.jobs_total,
            self.packets_total,
            self.packets_per_s(self.serial_s),
            self.packets_per_s(self.parallel_s),
            self.best_packets_per_s(),
        )
    }
}

fn time_driver<T: PartialEq + std::fmt::Debug>(
    name: &str,
    parallel: &Engine,
    configs: usize,
    opts: &ExperimentOptions,
    run: impl Fn(&Engine) -> T,
) -> Timing {
    let serial = Engine::with_jobs(1);
    let t0 = Instant::now();
    let serial_out = run(&serial);
    let serial_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let parallel_out = run(parallel);
    let parallel_s = t1.elapsed().as_secs_f64();
    assert_eq!(
        serial_out, parallel_out,
        "{name}: parallel output diverged from serial"
    );
    // Third pass: the same parallel engine with telemetry attached. The
    // output must not move by a bit, and the wall time says what the
    // counters cost.
    let instrumented = parallel.clone().with_telemetry(Arc::new(Telemetry::new()));
    let t2 = Instant::now();
    let telemetry_out = run(&instrumented);
    let telemetry_s = t2.elapsed().as_secs_f64();
    assert_eq!(
        serial_out, telemetry_out,
        "{name}: telemetry changed the output"
    );
    let jobs_total = (AppKind::all().len() * configs) as u64 * u64::from(opts.trials);
    let timing = Timing {
        serial_s,
        parallel_s,
        telemetry_s,
        jobs_total,
        packets_total: jobs_total * opts.trace.packets as u64,
    };
    println!(
        "{name:>12}: serial {serial_s:.2}s, parallel {parallel_s:.2}s ({:.2}x, {:.0} pkt/s), telemetry {telemetry_s:.2}s ({:.2}x parallel)",
        timing.speedup(),
        timing.packets_per_s(parallel_s),
        timing.telemetry_overhead(),
    );
    timing
}

fn main() {
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            other => {
                eprintln!("usage: perf_baseline [--smoke] (unknown flag {other:?})");
                std::process::exit(EXIT_USAGE);
            }
        }
    }

    let mut opts = ExperimentOptions::from_env().unwrap_or_else(|problem| {
        eprintln!("error: {problem}");
        std::process::exit(EXIT_USAGE);
    });
    if smoke {
        // Fixed small scale so the CI gate costs seconds and its floor
        // means the same thing on every runner.
        opts.trace.packets = opts.trace.packets.min(200);
        opts.trials = 1;
    }
    let engine = Engine::from_env();
    println!(
        "perf baseline{}: {} packets x {} trials, {} parallel job(s)",
        if smoke { " (smoke)" } else { "" },
        opts.trace.packets,
        opts.trials,
        engine.jobs()
    );
    if engine.jobs() == 1 {
        eprintln!(
            "warning: parallel passes run with a single job (set CLUMSY_JOBS or \
             run on a multi-core host); speedup will read ~1.0 and only the \
             single-core floor is meaningful"
        );
    }

    // Warm the golden memo so both timed passes measure the measured
    // runs, not one-off golden computation.
    let trace = opts.trace.generate();
    engine.map(&AppKind::all(), |k| golden_for(*k, &trace));

    let edf = time_driver("edf_average", &engine, EDF_CONFIGS, &opts, |e| {
        edf_average_on(e, &opts)
    });
    let table1 = time_driver("table1", &engine, TABLE1_CONFIGS, &opts, |e| {
        table1_on(e, &trace, &opts)
    });

    let floor = if smoke { FLOOR_SMOKE } else { FLOOR_FULL };
    let best = edf.best_packets_per_s();
    let json = format!(
        concat!(
            "{{\n",
            "  \"bench\": \"{}\",\n",
            "  \"packets\": {},\n",
            "  \"trials\": {},\n",
            "  \"jobs_serial\": 1,\n",
            "  \"jobs_parallel\": {},\n",
            "  \"throughput_floor_pkt_per_s\": {:.1},\n",
            "  \"throughput_best_pkt_per_s\": {:.1},\n",
            "  \"edf_average\": {},\n",
            "  \"table1\": {}\n",
            "}}\n"
        ),
        if smoke { "engine-smoke" } else { "engine" },
        opts.trace.packets,
        opts.trials,
        engine.jobs(),
        floor,
        best,
        edf.json(),
        table1.json(),
    );
    let file = if smoke {
        "BENCH_engine_smoke.json"
    } else {
        "BENCH_engine.json"
    };
    let path = or_exit(write_file(file, json.as_bytes()));
    println!("wrote {}", path.display());

    if best < floor {
        eprintln!(
            "perf regression: edf_average best pass {best:.0} pkt/s is below the \
             {floor:.0} pkt/s floor ({}x the pre-split 27387.5 pkt/s recording)",
            if smoke { 2 } else { 10 },
        );
        std::process::exit(EXIT_FAILURES);
    }
    println!(
        "throughput gate: {best:.0} pkt/s >= {floor:.0} pkt/s floor ({:.1}x the pre-split recording)",
        best / PRE_SPLIT_PKT_PER_S
    );
}
