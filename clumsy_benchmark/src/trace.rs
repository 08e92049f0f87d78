//! In-memory span recorder for `--trace` runs.
//!
//! Spans are recorded by the benchmark around its calls into each
//! layer's public functions, kept in memory, and written as one JSON
//! file when the workload ends. A span's self time is its duration
//! minus the time its children cover.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One timed interval, relative to the recorder's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Id of the enclosing span, if any.
    pub parent: Option<u64>,
    pub id: u64,
}

/// Collects spans for one workload.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records `[start, end)` under `name` and returns the new span's id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            id,
        });
        id
    }

    /// Opens a span that children can name as their parent before it
    /// ends; [`Spans::close`] sets its end.
    pub fn open(&mut self, name: &'static str, start: Instant, parent: Option<u64>) -> u64 {
        self.record(name, start, start, parent)
    }

    /// Ends the span `id` opened by [`Spans::open`].
    pub fn close(&mut self, id: u64, end: Instant) {
        let end_ns = self.ns(end);
        if let Some(s) = self.spans.get_mut(id as usize - 1) {
            s.end_ns = end_ns;
        }
    }

    /// Writes `{"workload": ..., "spans": [...]}` to `path`, creating
    /// its directory.
    pub fn write(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"workload\":\"{workload}\",\"spans\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
                if i == 0 { "" } else { "," },
                s.name,
                s.start_ns,
                s.end_ns,
                parent,
                s.id
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}
