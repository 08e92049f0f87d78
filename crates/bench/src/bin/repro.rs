//! Regenerates the paper's tables and figures: `repro [NAME...]` runs
//! the named [`EXPERIMENTS`] entries (all of them, in registry order,
//! when none is named) in-process on one engine, prints each table and
//! writes its CSV.
//!
//! Scale with `CLUMSY_PACKETS` / `CLUMSY_TRIALS` / `CLUMSY_SEED`, and
//! size the engine with `CLUMSY_JOBS`. At the canonical options
//! ([`Experiment::canonical_options`]) the CSVs go to `results/`; at any
//! other scale or seed they go to `target/reduced/`, so a quick run
//! never overwrites a recorded result.
//!
//! `--metrics <path>` writes the telemetry counters as JSON after the
//! run; `--progress` prints periodic progress/ETA lines on stderr. Both
//! are strictly passive: the CSVs are bitwise identical with or without
//! them.
//!
//! Exits 1 when an entry fails its acceptance checks (its CSVs are not
//! written), returns a table outside its declared `csvs`, or a write
//! fails; 2 for an unknown flag or name, or a scale variable that does
//! not parse.

use clumsy_bench::{or_exit, write_table, Experiment, EXIT_FAILURES, EXIT_USAGE, EXPERIMENTS};
use clumsy_core::{Engine, ProgressReporter, Stopwatch, Telemetry};
use std::path::PathBuf;
use std::sync::Arc;

fn usage(problem: &str) -> ! {
    let names: Vec<&str> = EXPERIMENTS.iter().map(|e| e.name).collect();
    eprintln!("error: {problem}");
    eprintln!(
        "usage: repro [--metrics <path>] [--progress] [NAME...]\nnames: {}",
        names.join(" ")
    );
    std::process::exit(EXIT_USAGE);
}

fn main() {
    let mut selected: Vec<&'static Experiment> = Vec::new();
    let mut metrics: Option<PathBuf> = None;
    let mut progress = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--progress" => progress = true,
            "--metrics" => match args.next() {
                Some(path) => metrics = Some(PathBuf::from(path)),
                None => usage("--metrics needs a path"),
            },
            flag if flag.starts_with('-') => usage(&format!("unknown flag {flag:?}")),
            name => match clumsy_bench::find(name) {
                Some(entry) => selected.push(entry),
                None => usage(&format!("unknown experiment {name:?}")),
            },
        }
    }
    if selected.is_empty() {
        selected = EXPERIMENTS.iter().collect();
    }
    // A malformed scale variable decides both the scale and whether a
    // run may overwrite `results/`, so it stops the run before any
    // entry starts.
    let runs: Vec<_> = selected
        .into_iter()
        .map(|entry| entry.options_from_env().map(|opts| (entry, opts)))
        .collect::<Result<_, _>>()
        .unwrap_or_else(|problem| usage(&problem));

    let telemetry = (metrics.is_some() || progress).then(|| Arc::new(Telemetry::new()));
    let mut engine = Engine::from_env();
    if let Some(t) = &telemetry {
        engine = engine.with_telemetry(Arc::clone(t));
    }
    let reporter = telemetry.as_ref().filter(|_| progress).map(|t| {
        ProgressReporter::start(Arc::clone(t), "repro", std::time::Duration::from_secs(2))
    });
    println!(
        "repro: {} experiment(s) on {} worker(s)",
        runs.len(),
        engine.jobs()
    );

    let mut failed = Vec::new();
    let mut times = Vec::new();
    for (entry, opts) in runs {
        println!("\n########## {} ##########", entry.name);
        let span = Stopwatch::start();
        match (entry.run)(&engine, &opts) {
            Ok(tables) => {
                for table in tables {
                    if !entry.csvs.contains(&table.csv) {
                        eprintln!(
                            "error: {} returned {}, which is not one of its csvs {:?}",
                            entry.name, table.csv, entry.csvs
                        );
                        failed.push(entry.name);
                        continue;
                    }
                    print!("{}", table.render());
                    let path = or_exit(write_table(entry, &opts, &table));
                    println!("wrote {}", path.display());
                }
            }
            Err(problem) => {
                eprintln!(
                    "error: {} failed its acceptance checks:\n{problem}",
                    entry.name
                );
                failed.push(entry.name);
            }
        }
        times.push((entry.name, span.elapsed()));
    }
    drop(reporter);
    if let (Some(path), Some(t)) = (&metrics, &telemetry) {
        if let Err(e) = clumsy_core::atomic_write(path, t.metrics_json().as_bytes()) {
            eprintln!("error: writing {}: {e}", path.display());
            std::process::exit(EXIT_FAILURES);
        }
        eprintln!("wrote metrics {}", path.display());
    }

    // Slowest first, so a slow run points straight at the entry that
    // dominates it.
    times.sort_by_key(|&(_, wall)| std::cmp::Reverse(wall));
    println!("\nwall time per experiment, slowest first:");
    for (name, wall) in &times {
        println!("  {:>8.2}s  {name}", wall.as_secs_f64());
    }
    if !failed.is_empty() {
        eprintln!("\nFAILED: {failed:?}");
        std::process::exit(EXIT_FAILURES);
    }
}
