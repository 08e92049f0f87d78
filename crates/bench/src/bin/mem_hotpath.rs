//! Raw memory-system hot-path micro-benchmark.
//!
//! Times `MemSystem` accesses/second with no application, processor or
//! engine layer in the way — the number every packet/s figure is
//! ultimately bounded by. The grid crosses the three interesting
//! sampler states (fault-free golden, the exact per-access reference,
//! the default geometric skip-ahead) with three detection schemes
//! (none, parity, ECC), each measured over the same mixed
//! read/write/subword workload on a mostly-hitting working set. Two more
//! cells add hard persistent fault sites (`p_site = 1e-6`) to the
//! skip-ahead sampler, for parity and ECC: the configuration that pins
//! every access to the per-access checking path, as durable campaigns
//! with way-disabling run it.
//!
//! Prints one line per cell. Scale with `CLUMSY_HOTPATH_ACCESSES`
//! (default 4 million per cell). Only a default-scale run writes the
//! recorded `results/BENCH_hotpath.json`; any other scale writes
//! `target/reduced/BENCH_hotpath.json`, so a quick run never overwrites
//! the recording.

use cache_sim::{Access, DetectionScheme, MemConfig, MemSystem};
use clumsy_bench::{or_exit, reduced_dir, results_dir, write_file_in, EXIT_USAGE};
use fault_model::{FaultProbabilityModel, PersistentSiteConfig, SamplingMode};
use std::fmt::Write as _;
use std::time::Instant;

/// Accesses per cell of a recording run.
const DEFAULT_ACCESSES: u64 = 4_000_000;

/// Site activation probability of the persistent cells.
const P_SITE: f64 = 1e-6;

/// Working-set footprint in bytes: half the 4 KB L1, so the loop mostly
/// hits but still exercises tag checks over many sets.
const FOOTPRINT: u32 = 2048;

/// How the sampler is configured for a grid cell.
#[derive(Clone, Copy)]
enum SamplerCell {
    /// Fault injection disabled (a golden run).
    FaultFree,
    /// Per-access uniform draws (`--sampler exact`).
    Exact,
    /// Geometric gap sampling (the default).
    SkipAhead,
    /// Skip-ahead plus hard persistent fault sites at [`P_SITE`].
    Persistent,
}

impl SamplerCell {
    fn label(self) -> &'static str {
        match self {
            SamplerCell::FaultFree => "fault-free",
            SamplerCell::Exact => "exact",
            SamplerCell::SkipAhead => "skip-ahead",
            SamplerCell::Persistent => "skip-ahead+persistent",
        }
    }
}

fn detection_label(d: DetectionScheme) -> &'static str {
    match d {
        DetectionScheme::None => "none",
        DetectionScheme::Parity => "parity",
        DetectionScheme::ParityPerByte => "byte-parity",
        DetectionScheme::Secded => "ecc",
    }
}

/// One pre-built packet-like access run: a byte sweep (payload), a word
/// sweep (tables) and a store sweep (accumulators).
fn build_run(run: &mut Vec<Access>, round: u32) {
    run.clear();
    let base = (round * 64) % FOOTPRINT;
    for i in 0..64u32 {
        run.push(Access::ReadU8((base + i) % FOOTPRINT));
    }
    for i in 0..32u32 {
        run.push(Access::ReadU32(((base + 4 * i) % FOOTPRINT) & !3));
    }
    for i in 0..16u32 {
        run.push(Access::WriteU32(
            ((base + 8 * i) % FOOTPRINT) & !3,
            round ^ i,
        ));
    }
}

struct Cell {
    detection: &'static str,
    sampler: &'static str,
    accesses: u64,
    elapsed_s: f64,
    fast_forward: u64,
    slow_path: u64,
}

impl Cell {
    fn per_s(&self) -> f64 {
        self.accesses as f64 / self.elapsed_s
    }
}

fn measure(detection: DetectionScheme, sampler: SamplerCell, total: u64) -> Cell {
    // The calibrated model at the paper's quarter clock — the same
    // fault process every engine run uses, so these cells measure the
    // rates the packet numbers are actually bounded by.
    let mut cfg = MemConfig::strongarm()
        .with_detection(detection)
        .with_fault_model(FaultProbabilityModel::calibrated())
        .with_sampling(match sampler {
            SamplerCell::Exact => SamplingMode::PerAccess,
            _ => SamplingMode::SkipAhead,
        });
    if matches!(sampler, SamplerCell::Persistent) {
        cfg = cfg.with_persistent(PersistentSiteConfig::hard(P_SITE));
    }
    let mut mem = MemSystem::new(cfg, 42);
    mem.set_cycle_free(0.25);
    if matches!(sampler, SamplerCell::FaultFree) {
        mem.set_inject(false);
    }
    let mut run = Vec::new();
    let mut out = Vec::new();
    // Warm the working set into the L1 so the measurement is the hot
    // path, not compulsory misses.
    build_run(&mut run, 0);
    out.clear();
    mem.access_run(&run, &mut out).expect("in-range addresses");

    let mut done = 0u64;
    let mut round = 1u32;
    let t0 = Instant::now();
    while done < total {
        build_run(&mut run, round);
        out.clear();
        mem.access_run(&run, &mut out).expect("in-range addresses");
        done += run.len() as u64;
        round = round.wrapping_add(1);
    }
    let elapsed_s = t0.elapsed().as_secs_f64();
    let st = mem.stats();
    Cell {
        detection: detection_label(detection),
        sampler: sampler.label(),
        accesses: done,
        elapsed_s,
        fast_forward: st.fast_forward_accesses,
        slow_path: st.slow_path_accesses,
    }
}

fn main() {
    let total = match std::env::var("CLUMSY_HOTPATH_ACCESSES") {
        Err(_) => DEFAULT_ACCESSES,
        Ok(v) => match v.parse::<u64>() {
            Ok(n) if n > 0 => n,
            _ => {
                eprintln!("error: CLUMSY_HOTPATH_ACCESSES must be a positive integer, got {v:?}");
                std::process::exit(EXIT_USAGE);
            }
        },
    };
    println!("mem hotpath: {total} accesses per cell, {FOOTPRINT} B working set");

    let mut grid = Vec::new();
    for detection in [
        DetectionScheme::None,
        DetectionScheme::Parity,
        DetectionScheme::Secded,
    ] {
        for sampler in [
            SamplerCell::FaultFree,
            SamplerCell::Exact,
            SamplerCell::SkipAhead,
        ] {
            grid.push((detection, sampler));
        }
    }
    grid.push((DetectionScheme::Parity, SamplerCell::Persistent));
    grid.push((DetectionScheme::Secded, SamplerCell::Persistent));

    let mut cells = Vec::new();
    for (detection, sampler) in grid {
        let cell = measure(detection, sampler, total);
        println!(
            "{:>11} / {:<21} {:>7.1} M acc/s  (fast {:.1}%, slow {:.1}%)",
            cell.detection,
            cell.sampler,
            cell.per_s() / 1e6,
            100.0 * cell.fast_forward as f64 / cell.accesses as f64,
            100.0 * cell.slow_path as f64 / cell.accesses as f64,
        );
        cells.push(cell);
    }

    let mut json = String::from("{\n  \"bench\": \"hotpath\",\n");
    let _ = writeln!(json, "  \"accesses_per_cell\": {total},");
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"detection\": \"{}\", \"sampler\": \"{}\", \"accesses_per_s\": {:.1}, \
             \"elapsed_s\": {:.3}, \"fast_forward_accesses\": {}, \"slow_path_accesses\": {}}}",
            c.detection,
            c.sampler,
            c.per_s(),
            c.elapsed_s,
            c.fast_forward,
            c.slow_path,
        );
        json.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");
    let dir = if total == DEFAULT_ACCESSES {
        results_dir()
    } else {
        reduced_dir()
    };
    let path = or_exit(dir.and_then(|d| write_file_in(&d, "BENCH_hotpath.json", json.as_bytes())));
    println!("wrote {}", path.display());
}
