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
//! skip-ahead sampler, for parity and ECC, as durable campaigns with
//! way-disabling run them: their accesses take the fast lane, each read
//! with its own site draw, but count on the slow side of the fast/slow
//! split. A persistent cell that reports any fast-forward access means
//! the split moved, and the run exits 1 without writing the JSON.
//!
//! Each round issues a packet-like access pattern through the entry
//! points the apps call: a 64-byte payload sweep (`read_block_u8`), a
//! 32-word table sweep (`read_block_u32`) and 16 stride-8 word stores
//! (`write_u32`).
//!
//! Each cell runs its accesses [`REPETITIONS`] times on a fresh memory
//! system and reports the median rate with the min and max, since a
//! cell lasts only tens of milliseconds. Prints one line per cell.
//! Scale with `CLUMSY_HOTPATH_ACCESSES` (default 4 million per cell
//! and repetition). Only a default-scale run writes the recorded
//! `results/BENCH_hotpath.json`; any other scale writes
//! `target/reduced/BENCH_hotpath.json`, so a quick run never overwrites
//! the recording.

use cache_sim::{DetectionScheme, MemConfig, MemSystem};
use clumsy_bench::{or_exit, reduced_dir, results_dir, write_file_in, EXIT_USAGE};
use fault_model::{FaultProbabilityModel, PersistentSiteConfig, SamplingMode};
use std::fmt::Write as _;
use std::time::Instant;

/// Accesses per cell and repetition of a recording run.
const DEFAULT_ACCESSES: u64 = 4_000_000;

/// Timed repetitions per cell.
const REPETITIONS: usize = 5;

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

/// One packet-like round: a byte sweep (payload), a word sweep
/// (tables, split where it wraps the footprint) and a store sweep
/// (accumulators). Returns the number of accesses issued.
fn round(mem: &mut MemSystem, round: u32, bytes: &mut Vec<u8>, words: &mut Vec<u32>) -> u64 {
    let base = (round * 64) % FOOTPRINT;
    bytes.clear();
    words.clear();
    let in_range = "in-range addresses";
    mem.read_block_u8(base, 64, bytes).expect(in_range);
    let first = ((FOOTPRINT - base) / 4).min(32);
    mem.read_block_u32(base, first, words).expect(in_range);
    mem.read_block_u32(0, 32 - first, words).expect(in_range);
    for i in 0..16u32 {
        mem.write_u32((base + 8 * i) % FOOTPRINT, round ^ i)
            .expect(in_range);
    }
    64 + 32 + 16
}

/// One timed repetition of a cell: elapsed seconds, accesses, and the
/// fast/slow split.
struct Rep {
    elapsed_s: f64,
    accesses: u64,
    fast_forward: u64,
    slow_path: u64,
}

struct Cell {
    detection: &'static str,
    sampler: &'static str,
    /// Repetitions sorted by rate, slowest first.
    reps: Vec<Rep>,
}

impl Rep {
    fn per_s(&self) -> f64 {
        self.accesses as f64 / self.elapsed_s
    }
}

impl Cell {
    fn median(&self) -> &Rep {
        &self.reps[self.reps.len() / 2]
    }
}

fn measure_once(detection: DetectionScheme, sampler: SamplerCell, total: u64) -> Rep {
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
    let (mut bytes, mut words) = (Vec::new(), Vec::new());
    // Warm the working set into the L1 so the measurement is the hot
    // path, not compulsory misses.
    round(&mut mem, 0, &mut bytes, &mut words);

    let mut done = 0u64;
    let mut r = 1u32;
    let t0 = Instant::now();
    while done < total {
        done += round(&mut mem, r, &mut bytes, &mut words);
        r = r.wrapping_add(1);
    }
    let elapsed_s = t0.elapsed().as_secs_f64();
    std::hint::black_box((&bytes, &words));
    let st = mem.stats();
    Rep {
        elapsed_s,
        accesses: done,
        fast_forward: st.fast_forward_accesses,
        slow_path: st.slow_path_accesses,
    }
}

fn measure(detection: DetectionScheme, sampler: SamplerCell, total: u64) -> Cell {
    let mut reps: Vec<Rep> = (0..REPETITIONS)
        .map(|_| measure_once(detection, sampler, total))
        .collect();
    // Every repetition runs the same seeded workload, so only the
    // timing may differ between them.
    let split = |r: &Rep| (r.accesses, r.fast_forward, r.slow_path);
    assert!(
        reps.iter().all(|r| split(r) == split(&reps[0])),
        "repetitions of one cell diverged"
    );
    reps.sort_by(|a, b| a.per_s().total_cmp(&b.per_s()));
    Cell {
        detection: detection_label(detection),
        sampler: sampler.label(),
        reps,
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
    println!(
        "mem hotpath: {total} accesses per cell, median of {REPETITIONS} repetitions, \
         {FOOTPRINT} B working set"
    );

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
        let m = cell.median();
        println!(
            "{:>11} / {:<21} {:>7.1} M acc/s  [{:.1}, {:.1}]  (fast {:.1}%, slow {:.1}%)",
            cell.detection,
            cell.sampler,
            m.per_s() / 1e6,
            cell.reps[0].per_s() / 1e6,
            cell.reps[REPETITIONS - 1].per_s() / 1e6,
            100.0 * m.fast_forward as f64 / m.accesses as f64,
            100.0 * m.slow_path as f64 / m.accesses as f64,
        );
        cells.push(cell);
    }

    let moved: Vec<String> = cells
        .iter()
        .filter(|c| c.sampler == SamplerCell::Persistent.label() && c.median().fast_forward > 0)
        .map(|c| format!("{}/{}", c.detection, c.sampler))
        .collect();
    if !moved.is_empty() {
        eprintln!(
            "error: persistent-site cells counted fast-forward accesses: {}",
            moved.join(", ")
        );
        std::process::exit(1);
    }

    let mut json = String::from("{\n  \"bench\": \"hotpath\",\n");
    let _ = writeln!(json, "  \"accesses_per_cell\": {total},");
    let _ = writeln!(json, "  \"repetitions\": {REPETITIONS},");
    json.push_str("  \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        let m = c.median();
        let _ = write!(
            json,
            "    {{\"detection\": \"{}\", \"sampler\": \"{}\", \"accesses_per_s\": {:.1}, \
             \"accesses_per_s_min\": {:.1}, \"accesses_per_s_max\": {:.1}, \
             \"elapsed_s\": {:.3}, \"fast_forward_accesses\": {}, \"slow_path_accesses\": {}}}",
            c.detection,
            c.sampler,
            m.per_s(),
            c.reps[0].per_s(),
            c.reps[REPETITIONS - 1].per_s(),
            m.elapsed_s,
            m.fast_forward,
            m.slow_path,
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
