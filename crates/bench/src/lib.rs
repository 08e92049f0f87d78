//! The reproduction harness: the [`EXPERIMENTS`] registry with one
//! entry per regenerated table and figure, the rendering and the one
//! CSV writer they share, and the process exit codes every harness
//! binary agrees on. The `repro` binary runs the registry; `clumsy
//! repro --experiment NAME` renders one entry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod experiments;

pub use experiments::{find, Experiment, EXPERIMENTS};

use clumsy_core::experiment::ExperimentOptions;
use std::fs;
use std::path::PathBuf;

/// Exit status: everything completed.
pub const EXIT_OK: i32 = 0;
/// Exit status: the run finished but something failed — exhausted
/// campaign jobs, a failed acceptance check, or result-file I/O.
pub const EXIT_FAILURES: i32 = 1;
/// Exit status: the invocation itself was wrong — bad flags, an
/// unknown command, or a journal that belongs to a different run
/// configuration (a refused resume).
pub const EXIT_USAGE: i32 = 2;
/// Exit status: interrupted (e.g. SIGINT/SIGTERM) with work left; the
/// journal of `clumsy campaign --durable` is resumable with `--resume`.
pub const EXIT_INTERRUPTED: i32 = 3;

/// Maps a journal error onto the shared exit codes: I/O trouble is a
/// runtime failure ([`EXIT_FAILURES`]); a missing or mismatched header
/// means the caller pointed a resume at the wrong journal
/// ([`EXIT_USAGE`]).
pub fn journal_exit_code(err: &clumsy_core::JournalError) -> i32 {
    match err {
        clumsy_core::JournalError::Io { .. } => EXIT_FAILURES,
        clumsy_core::JournalError::MissingHeader { .. }
        | clumsy_core::JournalError::HeaderMismatch { .. } => EXIT_USAGE,
    }
}

/// A failed filesystem operation, carrying the path for context so
/// disk-full and permission errors surface usably instead of as a
/// bare panic.
#[derive(Debug)]
pub struct IoFailure {
    /// The file or directory the operation targeted.
    pub path: PathBuf,
    /// The OS error.
    pub source: std::io::Error,
}

impl std::fmt::Display for IoFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "cannot write {}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for IoFailure {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

impl IoFailure {
    fn new(path: PathBuf, source: std::io::Error) -> Self {
        IoFailure { path, source }
    }
}

/// Unwraps a result-file operation, printing the failure to stderr and
/// exiting with [`EXIT_FAILURES`] — the benchmark-binary equivalent of
/// `?`.
pub fn or_exit<T>(result: Result<T, IoFailure>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(EXIT_FAILURES);
    })
}

/// Directory the harness writes CSVs into (`results/` at the workspace
/// root, overridable with `CLUMSY_RESULTS`).
///
/// # Errors
///
/// [`IoFailure`] if `CLUMSY_RESULTS` is set but empty (or whitespace),
/// if the working directory is unreadable while locating the workspace
/// root, or if the directory cannot be created. An empty override or a
/// vanished cwd must surface, not silently land CSVs in `"."`.
pub fn results_dir() -> Result<PathBuf, IoFailure> {
    let dir = match std::env::var("CLUMSY_RESULTS") {
        Ok(v) if v.trim().is_empty() => {
            return Err(IoFailure::new(
                PathBuf::from("$CLUMSY_RESULTS"),
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "CLUMSY_RESULTS is set but empty; unset it or point it at a directory",
                ),
            ));
        }
        Ok(v) => PathBuf::from(v),
        Err(_) => root_dir()?.join("results"),
    };
    fs::create_dir_all(&dir).map_err(|e| IoFailure::new(dir.clone(), e))?;
    Ok(dir)
}

/// Directory for outputs of runs at a non-recording scale
/// (`target/reduced/` at the workspace root), so a quick run can never
/// overwrite a committed result file.
///
/// # Errors
///
/// [`IoFailure`] if the working directory is unreadable or the
/// directory cannot be created.
pub fn reduced_dir() -> Result<PathBuf, IoFailure> {
    let dir = root_dir()?.join("target").join("reduced");
    fs::create_dir_all(&dir).map_err(|e| IoFailure::new(dir.clone(), e))?;
    Ok(dir)
}

/// The workspace root above the working directory, or the working
/// directory itself outside a workspace.
fn root_dir() -> Result<PathBuf, IoFailure> {
    let cwd =
        std::env::current_dir().map_err(|e| IoFailure::new(PathBuf::from("<current dir>"), e))?;
    Ok(workspace_root(&cwd).unwrap_or(cwd))
}

/// Walks up from `start` to the workspace root: the first ancestor whose
/// `Cargo.toml` contains a `[workspace]` table. A crate manifest alone
/// does not qualify, so running from inside `crates/bench/` still lands
/// on the top-level `results/` directory. Returns `None` when no
/// workspace manifest exists on the path (e.g. an installed binary run
/// outside the repo).
fn workspace_root(start: &std::path::Path) -> Option<PathBuf> {
    start.ancestors().find_map(|dir| {
        let manifest = dir.join("Cargo.toml");
        let text = fs::read_to_string(&manifest).ok()?;
        text.lines()
            .any(|l| l.trim() == "[workspace]")
            .then(|| dir.to_path_buf())
    })
}

/// Atomically writes an arbitrary result file into [`results_dir`],
/// returning its path.
///
/// # Errors
///
/// [`IoFailure`] if the results directory or the file cannot be
/// written.
pub fn write_file(name: &str, bytes: &[u8]) -> Result<PathBuf, IoFailure> {
    write_file_in(&results_dir()?, name, bytes)
}

/// Atomically writes `bytes` to `dir/name`, returning the path.
///
/// # Errors
///
/// [`IoFailure`] if the file cannot be written.
pub fn write_file_in(
    dir: &std::path::Path,
    name: &str,
    bytes: &[u8],
) -> Result<PathBuf, IoFailure> {
    let path = dir.join(name);
    clumsy_core::atomic_write(&path, bytes).map_err(|e| IoFailure::new(path.clone(), e))?;
    Ok(path)
}

/// One regenerated table: the CSV it is recorded in, and what the
/// harness prints around it.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// File name under the results directory; one of the owning
    /// entry's [`Experiment::csvs`].
    pub csv: &'static str,
    /// Printed heading.
    pub title: String,
    /// Column names (the CSV header).
    pub header: &'static [&'static str],
    /// Cells, one `Vec` per row, as wide as `header`.
    pub rows: Vec<Vec<String>>,
    /// Lines printed after the table: headline numbers, paper
    /// comparisons, charts. Not written to the CSV.
    pub notes: Vec<String>,
}

impl Table {
    /// A table with no notes.
    pub fn new(
        csv: &'static str,
        title: impl Into<String>,
        header: &'static [&'static str],
        rows: Vec<Vec<String>>,
    ) -> Self {
        Table {
            csv,
            title: title.into(),
            header,
            rows,
            notes: Vec::new(),
        }
    }

    /// Appends note lines.
    #[must_use]
    pub fn with_notes(mut self, notes: impl IntoIterator<Item = String>) -> Self {
        self.notes.extend(notes);
        self
    }

    /// The CSV bytes: the header line, then one line per row.
    ///
    /// # Panics
    ///
    /// Panics if a row width mismatches the header (a programming
    /// error, not an I/O condition).
    pub fn csv_text(&self) -> String {
        let mut out = self.header.join(",");
        out.push('\n');
        for row in &self.rows {
            assert_eq!(
                row.len(),
                self.header.len(),
                "row width mismatch in {}",
                self.csv
            );
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }

    /// The table as right-aligned columns under its title, followed by
    /// its notes.
    pub fn render(&self) -> String {
        let header: Vec<String> = self.header.iter().map(|h| h.to_string()).collect();
        let lines = std::iter::once(&header).chain(&self.rows);
        let mut widths = vec![0; header.len()];
        for row in lines.clone() {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = format!("\n== {} ==\n", self.title);
        for row in lines {
            let cells: Vec<String> = row
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect();
            out += &cells.join("  ");
            out.push('\n');
        }
        if !self.notes.is_empty() {
            out.push('\n');
        }
        for note in &self.notes {
            out += note;
            out.push('\n');
        }
        out
    }
}

/// The one CSV writer: atomically writes `table`, returning its path.
/// `opts` are the options the entry was run with, before any per-entry
/// override. The file goes into [`results_dir`] only when `opts` are
/// the entry's [`Experiment::canonical_options`], and into
/// [`reduced_dir`] at any other scale or seed, so a quick run can never
/// overwrite a recorded result.
///
/// # Errors
///
/// [`IoFailure`] if the directory or the file cannot be written.
pub fn write_table(
    entry: &Experiment,
    opts: &ExperimentOptions,
    table: &Table,
) -> Result<PathBuf, IoFailure> {
    let dir = if *opts == entry.canonical_options() {
        results_dir()?
    } else {
        reduced_dir()?
    };
    write_file_in(&dir, table.csv, table.csv_text().as_bytes())
}

/// A horizontal ASCII bar chart (one line per labelled value), scaled
/// to `width` characters at `max` (values beyond `max` are clipped and
/// marked, like the paper's out-of-range bars).
///
/// # Panics
///
/// Panics if `max` or `width` is not positive.
pub fn bar_chart(title: &str, bars: &[(String, f64)], max: f64, width: usize) -> Vec<String> {
    assert!(max > 0.0, "bar scale must be positive");
    assert!(width > 0, "bar width must be positive");
    let label_w = bars.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let mut lines = vec![format!("-- {title} (scale: {max:.2} = {width} chars) --")];
    for (label, value) in bars {
        let clipped = value.min(max);
        let n = ((clipped / max) * width as f64).round() as usize;
        let marker = if *value > max { ">" } else { "" };
        lines.push(format!(
            "{label:>label_w$} |{bar:<width$}| {value:.3}{marker}",
            bar = "#".repeat(n)
        ));
    }
    lines
}

/// Formats a float with sensible precision for tables.
pub fn f(v: f64) -> String {
    if v == 0.0 {
        "0".to_string()
    } else if v.abs() < 0.001 || v.abs() >= 100_000.0 {
        format!("{v:.3e}")
    } else {
        format!("{v:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// `CLUMSY_RESULTS` and the cwd are process-global; every test that
    /// touches either serializes on this lock.
    fn env_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn float_formatting() {
        assert_eq!(f(0.0), "0");
        assert_eq!(f(1.5), "1.5000");
        assert_eq!(f(2.59e-7), "2.590e-7");
    }

    #[test]
    fn bars_do_not_panic_and_clip() {
        let lines = bar_chart("unit", &[("a".into(), 0.5), ("b".into(), 3.0)], 2.0, 20);
        assert_eq!(lines.len(), 3);
        assert!(lines[1].ends_with("| 0.500"), "{}", lines[1]);
        assert!(lines[2].contains(&"#".repeat(20)) && lines[2].ends_with('>'));
    }

    #[test]
    #[should_panic(expected = "scale")]
    fn bars_reject_zero_scale() {
        bar_chart("bad", &[], 0.0, 10);
    }

    #[test]
    fn workspace_root_skips_crate_manifests() {
        let tmp = std::env::temp_dir().join("clumsy-ws-root-test");
        let nested = tmp.join("crates").join("bench").join("src");
        std::fs::create_dir_all(&nested).unwrap();
        std::fs::write(
            tmp.join("Cargo.toml"),
            "[workspace]\nmembers = [\"crates/*\"]\n",
        )
        .unwrap();
        std::fs::write(
            tmp.join("crates").join("bench").join("Cargo.toml"),
            "[package]\nname = \"x\"\n",
        )
        .unwrap();
        // From deep inside a crate, the crate manifest must be skipped
        // in favour of the workspace manifest above it.
        assert_eq!(workspace_root(&nested), Some(tmp.clone()));
        // From the root itself.
        assert_eq!(workspace_root(&tmp), Some(tmp.clone()));
        // A tree with no workspace manifest yields None.
        let bare = tmp.join("crates").join("bench").join("src").join("deep");
        std::fs::create_dir_all(&bare).unwrap();
        std::fs::remove_file(tmp.join("Cargo.toml")).unwrap();
        assert_eq!(workspace_root(&bare), None);
        std::fs::remove_dir_all(&tmp).ok();
    }

    #[test]
    fn empty_or_whitespace_results_override_is_rejected() {
        let _guard = env_lock();
        for bad in ["", "   ", "\t\n"] {
            std::env::set_var("CLUMSY_RESULTS", bad);
            let err = results_dir().expect_err("blank override must not be a path");
            assert!(
                err.to_string().contains("CLUMSY_RESULTS"),
                "error must name the variable: {err}"
            );
            assert_eq!(
                err.source.kind(),
                std::io::ErrorKind::InvalidInput,
                "{bad:?}"
            );
        }
        std::env::remove_var("CLUMSY_RESULTS");
    }

    #[test]
    #[cfg(unix)]
    fn unreadable_cwd_is_a_typed_error_not_a_dot_fallback() {
        let _guard = env_lock();
        std::env::remove_var("CLUMSY_RESULTS");
        let original = std::env::current_dir().unwrap();
        let doomed = std::env::temp_dir().join("clumsy-vanishing-cwd");
        std::fs::create_dir_all(&doomed).unwrap();
        std::env::set_current_dir(&doomed).unwrap();
        std::fs::remove_dir(&doomed).unwrap();
        let got = results_dir();
        std::env::set_current_dir(&original).unwrap();
        let err = got.expect_err("a vanished cwd must surface as IoFailure");
        assert!(
            err.to_string().contains("current dir"),
            "error must point at the cwd: {err}"
        );
    }

    #[test]
    fn journal_errors_map_onto_the_shared_exit_codes() {
        let io = clumsy_core::JournalError::Io {
            path: PathBuf::from("j"),
            source: std::io::Error::other("disk"),
        };
        assert_eq!(journal_exit_code(&io), EXIT_FAILURES);
        let missing = clumsy_core::JournalError::MissingHeader {
            path: PathBuf::from("j"),
        };
        assert_eq!(journal_exit_code(&missing), EXIT_USAGE);
        let mismatch = clumsy_core::JournalError::HeaderMismatch {
            field: "seed",
            journal: "1".into(),
            expected: "2".into(),
        };
        assert_eq!(journal_exit_code(&mismatch), EXIT_USAGE);
        assert_eq!(
            [EXIT_OK, EXIT_FAILURES, EXIT_USAGE, EXIT_INTERRUPTED],
            [0, 1, 2, 3],
            "the exit-code table is part of the documented contract"
        );
    }

    /// A registry-shaped entry for writer tests; never run.
    fn entry(seed: Option<u64>) -> Experiment {
        Experiment {
            name: "writer_test",
            csvs: &["writer_test.csv"],
            seed,
            run: |_, _| Ok(Vec::new()),
        }
    }

    fn table(csv: &'static str) -> Table {
        Table::new(csv, "t", &["a", "b"], vec![vec!["1".into(), "2".into()]])
    }

    #[test]
    fn csv_round_trip() {
        let _guard = env_lock();
        let dir = std::env::temp_dir().join("clumsy-test-results");
        std::env::set_var("CLUMSY_RESULTS", &dir);
        let e = entry(None);
        let p = write_table(&e, &e.canonical_options(), &table("unit_test.csv"))
            .expect("temp results dir is writable");
        std::env::remove_var("CLUMSY_RESULTS");
        assert_eq!(p, dir.join("unit_test.csv"));
        let text = std::fs::read_to_string(p).unwrap();
        assert_eq!(text, "a,b\n1,2\n");
    }

    #[test]
    fn reduced_scale_writes_never_reach_results() {
        let _guard = env_lock();
        let root = workspace_root(&std::env::current_dir().unwrap()).expect("inside the workspace");
        let name = "reduced_scale_writer_test.csv";
        let recorded = root.join("results").join(name);
        let e = entry(Some(118));
        let canonical = e.canonical_options();
        assert_eq!(
            canonical.seed, 118,
            "the entry's seed is part of the canonical options"
        );
        let off_canonical = [
            ExperimentOptions::quick(),
            ExperimentOptions {
                trials: 1,
                ..canonical.clone()
            },
            ExperimentOptions {
                seed: ExperimentOptions::paper().seed,
                ..canonical.clone()
            },
            ExperimentOptions {
                trace: canonical.trace.clone().with_packets(60),
                ..canonical.clone()
            },
        ];
        for opts in &off_canonical {
            let path = write_table(&e, opts, &table(name)).expect("target/ is writable");
            assert_eq!(path, root.join("target").join("reduced").join(name));
            assert_eq!(std::fs::read_to_string(&path).unwrap(), "a,b\n1,2\n");
            assert!(!recorded.exists(), "{opts:?} wrote into results/");
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn render_aligns_columns_and_appends_notes() {
        let t = Table::new(
            "x.csv",
            "Title",
            &["app", "v"],
            vec![
                vec!["crc".into(), "10".into()],
                vec!["md5".into(), "2".into()],
            ],
        )
        .with_notes(["note".to_string()]);
        assert_eq!(
            t.render(),
            "\n== Title ==\napp   v\ncrc  10\nmd5   2\n\nnote\n"
        );
    }

    #[test]
    fn io_failure_reports_path_and_source() {
        let _guard = env_lock();
        std::env::set_var(
            "CLUMSY_RESULTS",
            std::env::temp_dir().join("clumsy-test-results-ro"),
        );
        // Writing *through a file as if it were a directory* must fail
        // with a typed error, not a panic.
        let dir = std::env::temp_dir().join("clumsy-test-results-ro");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("blocker"), b"x").unwrap();
        let err = write_file("blocker/nested.csv", b"data").expect_err("must fail");
        assert!(err.to_string().contains("nested.csv"));
        assert!(std::error::Error::source(&err).is_some());
        std::env::remove_var("CLUMSY_RESULTS");
    }
}
