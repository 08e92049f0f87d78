//! Crash-safe run journal: append-only records of completed campaign
//! jobs, so a killed process can resume where it left off.
//!
//! A journal is a line-delimited file (`results/journal/<run-id>.jsonl`)
//! whose first line is a [`JournalHeader`] pinning the run's identity
//! (seed, trials, trace fingerprint, grid hash) and whose remaining
//! lines record one completed job each — either a full [`RunReport`]
//! (campaigns) or a completion marker (process-level drivers like
//! `repro_all`). Every line carries a CRC32 of its body:
//!
//! ```text
//! {"crc":<u32>,"body":{...}}\n
//! ```
//!
//! **Torn-tail and corruption policy.** A crash can leave a partial
//! final line (torn tail) and bit rot can corrupt any line. [`replay`]
//! accepts every line whose CRC verifies, skips complete lines that
//! fail CRC or decoding (counted in [`Replay::skipped_records`]), and
//! treats unparseable trailing bytes as a torn tail to be truncated
//! before appending resumes. Duplicate records for the same job keep
//! the first occurrence, so a trial is never double-counted. A journal
//! whose *header* is unreadable is rejected with a structured error —
//! nothing after it can be trusted.
//!
//! **Exactness.** Record bodies round-trip [`RunReport`] bitwise:
//! floats are stored as IEEE-754 bit patterns, so a resumed campaign
//! aggregates byte-identical reports and its CSVs match an
//! uninterrupted run exactly. Because the CRC already guarantees the
//! bytes are exactly what [`encode`] produced, decoding uses a rigid
//! fixed-field-order scanner instead of a general JSON parser.

use crate::report::{FatalInfo, RunReport};
use crate::telemetry::{Counter, Telemetry};
use netbench::{AppError, AppKind, ErrorCategory, FatalError};
use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Seek, Write};
use std::path::{Path, PathBuf};
use std::sync::mpsc;
use std::sync::Arc;

/// Journal format version; bumped on any incompatible change.
/// Version 2 widened the stats array for the L2-fault / ECC counters.
/// Version 3 widened it again for the fast-forward / slow-path split.
pub const JOURNAL_VERSION: u32 = 3;

// ---------------------------------------------------------------------
// Hashes and atomic file replacement
// ---------------------------------------------------------------------

/// CRC-32 (IEEE, reflected) of `bytes` — the per-record checksum.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc: u32 = !0;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// FNV-1a 64-bit hash — used to fingerprint grid configurations.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Writes `bytes` to `path` atomically: a temp file in the same
/// directory is written, fsynced, then renamed over the target, so a
/// crash mid-write can never leave a truncated file behind.
///
/// # Errors
///
/// Any I/O failure from creating, writing, syncing or renaming the
/// temporary file (which is cleaned up on failure).
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path has no file name"))?;
    let tmp = dir.join(format!(
        ".{}.tmp-{}",
        name.to_string_lossy(),
        std::process::id()
    ));
    let write = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if write.is_err() {
        let _ = fs::remove_file(&tmp);
        return write;
    }
    // Best effort: make the rename itself durable. Opening a directory
    // read-only works on unix; elsewhere the open fails and is ignored.
    if let Ok(d) = fs::File::open(&dir) {
        let _ = d.sync_all();
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------

/// Structured journal failures. Skippable per-record corruption is
/// *not* an error (see [`replay`]); these are the conditions that make
/// a journal unusable for resuming.
#[derive(Debug)]
pub enum JournalError {
    /// An underlying filesystem operation failed.
    Io {
        /// The journal (or temp-file) path involved.
        path: PathBuf,
        /// The OS error.
        source: io::Error,
    },
    /// The journal's header line is missing or does not verify — the
    /// file cannot be attributed to any run.
    MissingHeader {
        /// The journal path.
        path: PathBuf,
    },
    /// The journal belongs to a different run configuration; resuming
    /// would silently mix results.
    HeaderMismatch {
        /// Which header field differs.
        field: &'static str,
        /// The value recorded in the journal.
        journal: String,
        /// The value the resuming run expects.
        expected: String,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io { path, source } => {
                write!(f, "journal I/O failure on {path:?}: {source}")
            }
            JournalError::MissingHeader { path } => {
                write!(f, "journal {path:?} has no readable header")
            }
            JournalError::HeaderMismatch {
                field,
                journal,
                expected,
            } => write!(
                f,
                "journal was recorded for a different run: field `{field}` is {journal} \
                 in the journal but {expected} for this run (refusing to mix results)"
            ),
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            JournalError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

fn io_err(path: &Path, source: io::Error) -> JournalError {
    JournalError::Io {
        path: path.to_path_buf(),
        source,
    }
}

// ---------------------------------------------------------------------
// Header
// ---------------------------------------------------------------------

/// Identity of the run a journal belongs to. All fields must match for
/// a resume to proceed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalHeader {
    /// Journal format version ([`JOURNAL_VERSION`]).
    pub version: u32,
    /// Base fault seed of the run.
    pub seed: u64,
    /// Trials per grid point (1 for marker journals).
    pub trials: u32,
    /// Workload scale: the trace fingerprint for campaigns, the packet
    /// count for process-level drivers.
    pub scale: u64,
    /// Number of grid points (or driver binaries) in the run.
    pub points: u64,
    /// FNV-1a hash of the canonical grid description.
    pub grid: u64,
}

impl JournalHeader {
    /// Verifies this (replayed) header against the header the resuming
    /// run expects, naming the first differing field.
    ///
    /// # Errors
    ///
    /// [`JournalError::HeaderMismatch`] on the first field that
    /// differs.
    pub fn check(&self, expected: &JournalHeader) -> Result<(), JournalError> {
        let fields: [(&'static str, u64, u64); 6] = [
            (
                "version",
                u64::from(self.version),
                u64::from(expected.version),
            ),
            ("seed", self.seed, expected.seed),
            ("trials", u64::from(self.trials), u64::from(expected.trials)),
            ("scale", self.scale, expected.scale),
            ("points", self.points, expected.points),
            ("grid", self.grid, expected.grid),
        ];
        for (field, journal, want) in fields {
            if journal != want {
                return Err(JournalError::HeaderMismatch {
                    field,
                    journal: journal.to_string(),
                    expected: want.to_string(),
                });
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Records and the wire codec
// ---------------------------------------------------------------------

/// One replayed journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A completed campaign job with its full report (boxed: a
    /// `RunReport` dwarfs a marker, and replay holds many records).
    Job {
        /// Flat (point × trial) job index.
        job: usize,
        /// The job's bitwise-exact report.
        report: Box<RunReport>,
    },
    /// A completion marker for a named unit of work (e.g. one
    /// `repro_all` driver binary).
    Marker {
        /// The completed unit's name.
        name: String,
    },
}

fn frame(body: &str) -> Vec<u8> {
    format!("{{\"crc\":{},\"body\":{}}}\n", crc32(body.as_bytes()), body).into_bytes()
}

fn encode_header(h: &JournalHeader) -> Vec<u8> {
    frame(&format!(
        "{{\"kind\":\"header\",\"version\":{},\"seed\":{},\"trials\":{},\"scale\":{},\"points\":{},\"grid\":{}}}",
        h.version, h.seed, h.trials, h.scale, h.points, h.grid
    ))
}

fn encode_fatal(fatal: &Option<FatalInfo>) -> String {
    match fatal {
        None => "null".to_string(),
        Some(info) => {
            let (kind, a, b) = match info.error {
                AppError::Fatal(FatalError::FuelExhausted { budget }) => ("fuel", budget, 0),
                AppError::Fatal(FatalError::MemoryFault(m)) => match m {
                    cache_sim::MemError::OutOfRange { addr, len } => {
                        ("oob", u64::from(addr), u64::from(len))
                    }
                    cache_sim::MemError::Misaligned { addr, align } => {
                        ("misaligned", u64::from(addr), u64::from(align))
                    }
                },
            };
            format!(
                "{{\"packet\":{},\"kind\":\"{kind}\",\"a\":{a},\"b\":{b}}}",
                info.packet_index
            )
        }
    }
}

fn encode_report(r: &RunReport) -> String {
    use std::fmt::Write as _;
    let mut s = String::with_capacity(512);
    let _ = write!(
        s,
        "{{\"app\":\"{}\",\"attempted\":{},\"completed\":{},\"fatal\":{},\"dropped\":{},\"erroneous\":{}",
        r.app,
        r.packets_attempted,
        r.packets_completed,
        encode_fatal(&r.fatal),
        r.dropped_packets,
        r.erroneous_packets
    );
    s.push_str(",\"errors\":[");
    for (i, (cat, n)) in r.error_counts.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "[\"{}\",{}]", cat.label(), n);
    }
    let _ = write!(
        s,
        "],\"init_total\":{},\"init_wrong\":{},\"instructions\":{},\"cycles\":{}",
        r.init_obs_total,
        r.init_obs_wrong,
        r.instructions,
        r.cycles.to_bits()
    );
    let e = &r.energy;
    let _ = write!(
        s,
        ",\"energy\":[{},{},{},{},{}]",
        e.core_nj.to_bits(),
        e.l1_nj.to_bits(),
        e.l2_nj.to_bits(),
        e.mem_nj.to_bits(),
        e.overhead_nj.to_bits()
    );
    let st = &r.stats;
    let _ = write!(
        s,
        ",\"stats\":[{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}]",
        st.reads,
        st.writes,
        st.l1_hits,
        st.l1_misses,
        st.l2_accesses,
        st.l2_misses,
        st.faults_injected,
        st.tag_faults_injected,
        st.parity_faults_injected,
        st.l2_faults_injected,
        st.faults_detected,
        st.faults_corrected,
        st.recovery_failures,
        st.faults_undetected,
        st.strike_retries,
        st.strike_invalidations,
        st.writebacks,
        st.dirty_drops,
        st.freq_switches,
        st.fast_forward_accesses,
        st.slow_path_accesses,
        st.ways_disabled,
        st.salvage_writebacks,
        st.bypass_accesses
    );
    s.push_str(",\"freq\":[");
    for (i, (idx, cr)) in r.freq_trace.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "[{},{}]", idx, cr.to_bits());
    }
    s.push_str("],\"epochs\":[");
    for (i, n) in r.epoch_faults.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(s, "{n}");
    }
    s.push_str("]}");
    s
}

fn encode_job(job: usize, report: &RunReport) -> Vec<u8> {
    frame(&format!(
        "{{\"kind\":\"job\",\"job\":{job},\"report\":{}}}",
        encode_report(report)
    ))
}

fn encode_marker(name: &str) -> Vec<u8> {
    // Names are identifiers (binary names); anything needing escapes is
    // rejected rather than encoded.
    frame(&format!("{{\"kind\":\"mark\",\"name\":\"{name}\"}}"))
}

/// Rigid sequential scanner over a CRC-verified record body. The CRC
/// guarantees the bytes are exactly what the encoder produced, so any
/// deviation is simply an invalid (skippable) record.
struct Scanner<'a> {
    s: &'a [u8],
    pos: usize,
}

impl<'a> Scanner<'a> {
    fn new(s: &'a str) -> Self {
        Scanner {
            s: s.as_bytes(),
            pos: 0,
        }
    }

    fn lit(&mut self, lit: &str) -> Option<()> {
        let end = self.pos.checked_add(lit.len())?;
        if self.s.get(self.pos..end)? == lit.as_bytes() {
            self.pos = end;
            Some(())
        } else {
            None
        }
    }

    fn peek(&self) -> Option<u8> {
        self.s.get(self.pos).copied()
    }

    fn u64_(&mut self) -> Option<u64> {
        let start = self.pos;
        while self.peek().is_some_and(|b| b.is_ascii_digit()) {
            self.pos += 1;
        }
        if self.pos == start || self.pos - start > 20 {
            return None;
        }
        std::str::from_utf8(&self.s[start..self.pos])
            .ok()?
            .parse()
            .ok()
    }

    fn usize_(&mut self) -> Option<usize> {
        usize::try_from(self.u64_()?).ok()
    }

    fn f64_(&mut self) -> Option<f64> {
        Some(f64::from_bits(self.u64_()?))
    }

    /// A quoted string with no escapes (labels and identifiers only).
    fn string(&mut self) -> Option<String> {
        self.lit("\"")?;
        let start = self.pos;
        while self.peek().is_some_and(|b| b != b'"' && b != b'\\') {
            self.pos += 1;
        }
        let out = std::str::from_utf8(&self.s[start..self.pos])
            .ok()?
            .to_string();
        self.lit("\"")?;
        Some(out)
    }

    fn done(&self) -> Option<()> {
        (self.pos == self.s.len()).then_some(())
    }
}

fn app_static_name(name: &str) -> Option<&'static str> {
    AppKind::extended()
        .into_iter()
        .map(|k| k.name())
        .find(|n| *n == name)
}

fn category_from_label(label: &str) -> Option<ErrorCategory> {
    ErrorCategory::all()
        .into_iter()
        .find(|c| c.label() == label)
}

fn decode_fatal(sc: &mut Scanner) -> Option<Option<FatalInfo>> {
    if sc.lit("null").is_some() {
        return Some(None);
    }
    sc.lit("{\"packet\":")?;
    let packet_index = sc.usize_()?;
    sc.lit(",\"kind\":")?;
    let kind = sc.string()?;
    sc.lit(",\"a\":")?;
    let a = sc.u64_()?;
    sc.lit(",\"b\":")?;
    let b = sc.u64_()?;
    sc.lit("}")?;
    let error = match kind.as_str() {
        "fuel" => AppError::Fatal(FatalError::FuelExhausted { budget: a }),
        "oob" => AppError::Fatal(FatalError::MemoryFault(cache_sim::MemError::OutOfRange {
            addr: u32::try_from(a).ok()?,
            len: u32::try_from(b).ok()?,
        })),
        "misaligned" => AppError::Fatal(FatalError::MemoryFault(cache_sim::MemError::Misaligned {
            addr: u32::try_from(a).ok()?,
            align: u32::try_from(b).ok()?,
        })),
        _ => return None,
    };
    Some(Some(FatalInfo {
        packet_index,
        error,
    }))
}

fn decode_report(sc: &mut Scanner) -> Option<RunReport> {
    sc.lit("{\"app\":")?;
    let app = app_static_name(&sc.string()?)?;
    sc.lit(",\"attempted\":")?;
    let packets_attempted = sc.usize_()?;
    sc.lit(",\"completed\":")?;
    let packets_completed = sc.usize_()?;
    sc.lit(",\"fatal\":")?;
    let fatal = decode_fatal(sc)?;
    sc.lit(",\"dropped\":")?;
    let dropped_packets = sc.usize_()?;
    sc.lit(",\"erroneous\":")?;
    let erroneous_packets = sc.usize_()?;
    sc.lit(",\"errors\":[")?;
    let mut error_counts = BTreeMap::new();
    while sc.peek() == Some(b'[') {
        sc.lit("[")?;
        let cat = category_from_label(&sc.string()?)?;
        sc.lit(",")?;
        let n = sc.usize_()?;
        sc.lit("]")?;
        if error_counts.insert(cat, n).is_some() {
            return None; // duplicate key cannot come from the encoder
        }
        if sc.peek() == Some(b',') {
            sc.lit(",")?;
        }
    }
    sc.lit("]")?;
    sc.lit(",\"init_total\":")?;
    let init_obs_total = sc.usize_()?;
    sc.lit(",\"init_wrong\":")?;
    let init_obs_wrong = sc.usize_()?;
    sc.lit(",\"instructions\":")?;
    let instructions = sc.u64_()?;
    sc.lit(",\"cycles\":")?;
    let cycles = sc.f64_()?;
    sc.lit(",\"energy\":[")?;
    let mut nj = [0.0f64; 5];
    for (i, slot) in nj.iter_mut().enumerate() {
        if i > 0 {
            sc.lit(",")?;
        }
        *slot = sc.f64_()?;
    }
    sc.lit("]")?;
    let energy = energy_model::EnergyBreakdown {
        core_nj: nj[0],
        l1_nj: nj[1],
        l2_nj: nj[2],
        mem_nj: nj[3],
        overhead_nj: nj[4],
    };
    sc.lit(",\"stats\":[")?;
    let mut counters = [0u64; 24];
    for (i, slot) in counters.iter_mut().enumerate().take(21) {
        if i > 0 {
            sc.lit(",")?;
        }
        *slot = sc.u64_()?;
    }
    // Degraded-mode counters appended by newer writers; journals from
    // before way-disabling simply stop at 21 entries (counters stay 0).
    for slot in counters[21..].iter_mut() {
        if sc.peek() == Some(b',') {
            sc.lit(",")?;
            *slot = sc.u64_()?;
        }
    }
    sc.lit("]")?;
    let stats = cache_sim::MemStats {
        reads: counters[0],
        writes: counters[1],
        l1_hits: counters[2],
        l1_misses: counters[3],
        l2_accesses: counters[4],
        l2_misses: counters[5],
        faults_injected: counters[6],
        tag_faults_injected: counters[7],
        parity_faults_injected: counters[8],
        l2_faults_injected: counters[9],
        faults_detected: counters[10],
        faults_corrected: counters[11],
        recovery_failures: counters[12],
        faults_undetected: counters[13],
        strike_retries: counters[14],
        strike_invalidations: counters[15],
        writebacks: counters[16],
        dirty_drops: counters[17],
        freq_switches: counters[18],
        fast_forward_accesses: counters[19],
        slow_path_accesses: counters[20],
        ways_disabled: counters[21],
        salvage_writebacks: counters[22],
        bypass_accesses: counters[23],
    };
    sc.lit(",\"freq\":[")?;
    let mut freq_trace = Vec::new();
    while sc.peek() == Some(b'[') {
        sc.lit("[")?;
        let idx = sc.usize_()?;
        sc.lit(",")?;
        let cr = sc.f64_()?;
        sc.lit("]")?;
        freq_trace.push((idx, cr));
        if sc.peek() == Some(b',') {
            sc.lit(",")?;
        }
    }
    sc.lit("]")?;
    sc.lit(",\"epochs\":[")?;
    let mut epoch_faults = Vec::new();
    while sc.peek().is_some_and(|b| b.is_ascii_digit()) {
        epoch_faults.push(sc.u64_()?);
        if sc.peek() == Some(b',') {
            sc.lit(",")?;
        }
    }
    sc.lit("]")?;
    sc.lit("}")?;
    Some(RunReport {
        app,
        packets_attempted,
        packets_completed,
        fatal,
        dropped_packets,
        erroneous_packets,
        error_counts,
        init_obs_total,
        init_obs_wrong,
        instructions,
        cycles,
        energy,
        stats,
        freq_trace,
        epoch_faults,
    })
}

enum Line {
    Header(JournalHeader),
    Rec(Record),
}

/// Validates one complete line (without the trailing newline): CRC
/// frame first, then the rigid body decode.
fn decode_line(line: &[u8]) -> Option<Line> {
    let text = std::str::from_utf8(line).ok()?;
    let rest = text.strip_prefix("{\"crc\":")?;
    let comma = rest.find(',')?;
    let crc: u32 = rest[..comma].parse().ok()?;
    let body = rest[comma..]
        .strip_prefix(",\"body\":")?
        .strip_suffix('}')?;
    if crc32(body.as_bytes()) != crc {
        return None;
    }
    let mut sc = Scanner::new(body);
    if sc.lit("{\"kind\":\"header\",\"version\":").is_some() {
        let version = u32::try_from(sc.u64_()?).ok()?;
        sc.lit(",\"seed\":")?;
        let seed = sc.u64_()?;
        sc.lit(",\"trials\":")?;
        let trials = u32::try_from(sc.u64_()?).ok()?;
        sc.lit(",\"scale\":")?;
        let scale = sc.u64_()?;
        sc.lit(",\"points\":")?;
        let points = sc.u64_()?;
        sc.lit(",\"grid\":")?;
        let grid = sc.u64_()?;
        sc.lit("}")?;
        sc.done()?;
        return Some(Line::Header(JournalHeader {
            version,
            seed,
            trials,
            scale,
            points,
            grid,
        }));
    }
    let mut sc = Scanner::new(body);
    if sc.lit("{\"kind\":\"job\",\"job\":").is_some() {
        let job = sc.usize_()?;
        sc.lit(",\"report\":")?;
        let report = decode_report(&mut sc)?;
        sc.lit("}")?;
        sc.done()?;
        return Some(Line::Rec(Record::Job {
            job,
            report: Box::new(report),
        }));
    }
    let mut sc = Scanner::new(body);
    sc.lit("{\"kind\":\"mark\",\"name\":")?;
    let name = sc.string()?;
    sc.lit("}")?;
    sc.done()?;
    Some(Line::Rec(Record::Marker { name }))
}

// ---------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------

/// The recovered contents of a journal.
#[derive(Debug)]
pub struct Replay {
    /// The verified header.
    pub header: JournalHeader,
    /// Every valid record, deduplicated (first occurrence wins), in
    /// journal order.
    pub records: Vec<Record>,
    /// Complete lines dropped for CRC/decode failure or duplication.
    pub skipped_records: usize,
    /// Whether unparseable trailing bytes (a torn tail) were dropped.
    pub torn_tail: bool,
    /// Byte length of the journal up to (excluding) the torn tail;
    /// resuming truncates the file here before appending.
    pub valid_len: u64,
}

/// Reads a journal back, tolerating a torn tail and skipping corrupt
/// or duplicate records. Never panics on arbitrary file contents.
///
/// # Errors
///
/// [`JournalError::Io`] if the file cannot be read, and
/// [`JournalError::MissingHeader`] if the first line is not a valid
/// header record (nothing else in the file can be trusted then).
pub fn replay(path: &Path) -> Result<Replay, JournalError> {
    let bytes = fs::read(path).map_err(|e| io_err(path, e))?;
    let mut header: Option<JournalHeader> = None;
    let mut records = Vec::new();
    let mut seen_jobs = std::collections::HashSet::new();
    let mut seen_marks = std::collections::HashSet::new();
    let mut skipped_records = 0usize;
    let mut torn_tail = false;
    let mut valid_len = bytes.len() as u64;

    let mut pos = 0usize;
    while pos < bytes.len() {
        let (line, next, complete) = match bytes[pos..].iter().position(|&b| b == b'\n') {
            Some(nl) => (&bytes[pos..pos + nl], pos + nl + 1, true),
            None => (&bytes[pos..], bytes.len(), false),
        };
        let decoded = decode_line(line);
        if header.is_none() {
            // The first line must be the header; anything else means
            // the journal is unattributable.
            match decoded {
                Some(Line::Header(h)) if complete => header = Some(h),
                _ => {
                    return Err(JournalError::MissingHeader {
                        path: path.to_path_buf(),
                    })
                }
            }
            pos = next;
            continue;
        }
        match decoded {
            Some(Line::Rec(Record::Job { job, report })) if complete => {
                if seen_jobs.insert(job) {
                    records.push(Record::Job { job, report });
                } else {
                    skipped_records += 1;
                }
            }
            Some(Line::Rec(Record::Marker { name })) if complete => {
                if seen_marks.insert(name.clone()) {
                    records.push(Record::Marker { name });
                } else {
                    skipped_records += 1;
                }
            }
            Some(Line::Header(_)) if complete => skipped_records += 1,
            _ if !complete => {
                // Unterminated trailing bytes: a torn tail from a
                // crash mid-append. Truncate here on resume.
                torn_tail = true;
                valid_len = pos as u64;
            }
            _ => skipped_records += 1,
        }
        pos = next;
    }

    match header {
        Some(header) => Ok(Replay {
            header,
            records,
            skipped_records,
            torn_tail,
            valid_len,
        }),
        None => Err(JournalError::MissingHeader {
            path: path.to_path_buf(),
        }),
    }
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

/// Append-only journal writer backed by a dedicated thread with
/// batched fsync: records queue on a channel, the writer drains
/// whatever is available, writes it in one `write_all` and issues a
/// single `fsync` per drained batch — so a hot campaign amortizes
/// syncs while an idle one still persists every record promptly.
#[derive(Debug)]
pub struct JournalWriter {
    tx: Option<mpsc::Sender<Vec<u8>>>,
    handle: Option<std::thread::JoinHandle<io::Result<()>>>,
    path: PathBuf,
}

impl JournalWriter {
    /// Starts a fresh journal at `path` (parent directories are
    /// created), writing and syncing the header before returning.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the file cannot be created or the
    /// header cannot be written.
    pub fn create(path: &Path, header: &JournalHeader) -> Result<Self, JournalError> {
        Self::create_with(path, header, None)
    }

    /// [`create`](JournalWriter::create) with optional passive
    /// telemetry: the writer thread counts queued records and times
    /// each batched fsync into it.
    ///
    /// # Errors
    ///
    /// As [`create`](JournalWriter::create).
    pub fn create_with(
        path: &Path,
        header: &JournalHeader,
        telemetry: Option<Arc<Telemetry>>,
    ) -> Result<Self, JournalError> {
        if let Some(dir) = path.parent() {
            if !dir.as_os_str().is_empty() {
                fs::create_dir_all(dir).map_err(|e| io_err(path, e))?;
            }
        }
        let mut file = fs::File::create(path).map_err(|e| io_err(path, e))?;
        file.write_all(&encode_header(header))
            .and_then(|()| file.sync_data())
            .map_err(|e| io_err(path, e))?;
        Ok(Self::spawn(file, path, telemetry))
    }

    /// Reopens an existing journal for appending, truncating away a
    /// torn tail first (`valid_len` comes from [`Replay::valid_len`]).
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if the file cannot be opened or truncated.
    pub fn resume(path: &Path, valid_len: u64) -> Result<Self, JournalError> {
        Self::resume_with(path, valid_len, None)
    }

    /// [`resume`](JournalWriter::resume) with optional passive
    /// telemetry (see [`create_with`](JournalWriter::create_with)).
    ///
    /// # Errors
    ///
    /// As [`resume`](JournalWriter::resume).
    pub fn resume_with(
        path: &Path,
        valid_len: u64,
        telemetry: Option<Arc<Telemetry>>,
    ) -> Result<Self, JournalError> {
        let mut file = fs::OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(|e| io_err(path, e))?;
        file.set_len(valid_len)
            .and_then(|()| file.seek(io::SeekFrom::End(0)).map(|_| ()))
            .map_err(|e| io_err(path, e))?;
        Ok(Self::spawn(file, path, telemetry))
    }

    fn spawn(mut file: fs::File, path: &Path, telemetry: Option<Arc<Telemetry>>) -> Self {
        let (tx, rx) = mpsc::channel::<Vec<u8>>();
        let handle = std::thread::spawn(move || -> io::Result<()> {
            while let Ok(first) = rx.recv() {
                let mut buf = first;
                let mut records = 1u64;
                while let Ok(more) = rx.try_recv() {
                    buf.extend_from_slice(&more);
                    records += 1;
                }
                file.write_all(&buf)?;
                match &telemetry {
                    Some(t) => {
                        let sync = crate::telemetry::Stopwatch::start();
                        file.sync_data()?;
                        t.count(0, Counter::journal_records, records);
                        t.journal_fsync(sync.elapsed());
                    }
                    None => file.sync_data()?,
                }
            }
            file.sync_all()
        });
        JournalWriter {
            tx: Some(tx),
            handle: Some(handle),
            path: path.to_path_buf(),
        }
    }

    /// Queues a completed-job record. Errors surface at [`finish`].
    ///
    /// [`finish`]: JournalWriter::finish
    pub fn append_job(&self, job: usize, report: &RunReport) {
        if let Some(tx) = &self.tx {
            let _ = tx.send(encode_job(job, report));
        }
    }

    /// Queues a completion marker. `name` must not contain `"` or `\`
    /// (identifiers only); offending names are recorded stripped.
    pub fn append_marker(&self, name: &str) {
        let clean: String = name.chars().filter(|c| *c != '"' && *c != '\\').collect();
        if let Some(tx) = &self.tx {
            let _ = tx.send(encode_marker(&clean));
        }
    }

    /// Flushes everything queued, fsyncs and joins the writer thread.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] with the first write/sync failure the
    /// writer thread hit.
    pub fn finish(mut self) -> Result<(), JournalError> {
        self.tx = None; // close the channel; the writer drains and exits
        let handle = self.handle.take().expect("finish runs once");
        match handle.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(io_err(&self.path, e)),
            Err(_) => Err(io_err(
                &self.path,
                io::Error::other("journal writer thread panicked"),
            )),
        }
    }
}

impl Drop for JournalWriter {
    fn drop(&mut self) {
        self.tx = None;
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_path(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "clumsy-journal-{}-{}-{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed),
            tag
        ))
    }

    fn sample_report(faults: u64) -> RunReport {
        let mut error_counts = BTreeMap::new();
        error_counts.insert(ErrorCategory::Ttl, 3);
        error_counts.insert(ErrorCategory::Checksum, 1);
        RunReport {
            app: "tl",
            packets_attempted: 100,
            packets_completed: 97,
            fatal: Some(FatalInfo {
                packet_index: 97,
                error: AppError::Fatal(FatalError::FuelExhausted { budget: 12345 }),
            }),
            dropped_packets: 2,
            erroneous_packets: 4,
            error_counts,
            init_obs_total: 8,
            init_obs_wrong: 1,
            instructions: 987_654,
            cycles: 1234.5678,
            energy: energy_model::EnergyBreakdown {
                core_nj: 1.5,
                l1_nj: 0.25,
                l2_nj: f64::NAN, // must still round-trip bitwise
                mem_nj: -0.0,
                overhead_nj: 3e-300,
            },
            stats: cache_sim::MemStats {
                reads: 10,
                writes: 20,
                faults_injected: faults,
                ..Default::default()
            },
            freq_trace: vec![(0, 1.0), (100, 0.25)],
            epoch_faults: vec![0, 7, 2],
        }
    }

    fn bitwise_eq(a: &RunReport, b: &RunReport) -> bool {
        // PartialEq is almost enough, but NaN != NaN; compare floats by
        // bit pattern instead.
        encode_report(a) == encode_report(b)
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn report_round_trips_bitwise_including_nan_and_negative_zero() {
        for r in [
            sample_report(5),
            RunReport {
                fatal: None,
                freq_trace: Vec::new(),
                epoch_faults: Vec::new(),
                error_counts: BTreeMap::new(),
                ..sample_report(0)
            },
            RunReport {
                fatal: Some(FatalInfo {
                    packet_index: 3,
                    error: AppError::Fatal(FatalError::MemoryFault(
                        cache_sim::MemError::Misaligned { addr: 13, align: 4 },
                    )),
                }),
                ..sample_report(1)
            },
        ] {
            let body = encode_report(&r);
            let mut sc = Scanner::new(&body);
            let back = decode_report(&mut sc).expect("decodes");
            sc.done().expect("consumed fully");
            assert!(bitwise_eq(&r, &back), "round trip diverged: {body}");
        }
    }

    #[test]
    fn header_and_records_survive_a_write_read_cycle() {
        let path = tmp_path("cycle");
        let header = JournalHeader {
            version: JOURNAL_VERSION,
            seed: 42,
            trials: 3,
            scale: 777,
            points: 2,
            grid: 0xDEAD_BEEF,
        };
        let w = JournalWriter::create(&path, &header).unwrap();
        w.append_job(0, &sample_report(1));
        w.append_job(5, &sample_report(2));
        w.append_marker("table1");
        w.finish().unwrap();

        let replay = replay(&path).unwrap();
        assert_eq!(replay.header, header);
        assert_eq!(replay.records.len(), 3);
        assert_eq!(replay.skipped_records, 0);
        assert!(!replay.torn_tail);
        assert!(matches!(&replay.records[0], Record::Job { job: 0, .. }));
        assert!(matches!(&replay.records[1], Record::Job { job: 5, .. }));
        assert!(matches!(&replay.records[2], Record::Marker { name } if name == "table1"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_is_tolerated_and_truncated_on_resume() {
        let path = tmp_path("torn");
        let header = JournalHeader {
            version: JOURNAL_VERSION,
            seed: 1,
            trials: 1,
            scale: 1,
            points: 1,
            grid: 1,
        };
        let w = JournalWriter::create(&path, &header).unwrap();
        w.append_job(0, &sample_report(1));
        w.finish().unwrap();
        let clean_len = fs::metadata(&path).unwrap().len();

        // Simulate a crash mid-append: half a record, no newline.
        let mut f = fs::OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"crc\":123,\"body\":{\"kind\":\"job\",\"jo")
            .unwrap();
        drop(f);

        let r = replay(&path).unwrap();
        assert!(r.torn_tail);
        assert_eq!(r.valid_len, clean_len);
        assert_eq!(r.records.len(), 1);

        // Resuming truncates the tail and appends cleanly after it.
        let w = JournalWriter::resume(&path, r.valid_len).unwrap();
        w.append_job(1, &sample_report(2));
        w.finish().unwrap();
        let r2 = replay(&path).unwrap();
        assert!(!r2.torn_tail);
        assert_eq!(r2.records.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_jobs_are_never_double_counted() {
        let path = tmp_path("dup");
        let header = JournalHeader {
            version: JOURNAL_VERSION,
            seed: 1,
            trials: 1,
            scale: 1,
            points: 1,
            grid: 1,
        };
        let w = JournalWriter::create(&path, &header).unwrap();
        w.append_job(2, &sample_report(1));
        w.append_job(2, &sample_report(9));
        w.finish().unwrap();
        let r = replay(&path).unwrap();
        assert_eq!(r.records.len(), 1, "first record wins");
        assert_eq!(r.skipped_records, 1);
        let Record::Job { report, .. } = &r.records[0] else {
            panic!("job expected");
        };
        assert_eq!(report.stats.faults_injected, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn header_mismatch_names_the_differing_field() {
        let a = JournalHeader {
            version: JOURNAL_VERSION,
            seed: 10,
            trials: 2,
            scale: 5,
            points: 4,
            grid: 99,
        };
        let mut b = a;
        b.seed = 11;
        let err = a.check(&b).unwrap_err();
        assert!(matches!(
            &err,
            JournalError::HeaderMismatch { field: "seed", .. }
        ));
        assert!(err.to_string().contains("seed"));
        let mut c = a;
        c.grid = 1;
        assert!(matches!(
            a.check(&c).unwrap_err(),
            JournalError::HeaderMismatch { field: "grid", .. }
        ));
        assert!(a.check(&a).is_ok());
    }

    #[test]
    fn missing_or_corrupt_header_is_a_structured_error() {
        let path = tmp_path("nohdr");
        fs::write(&path, b"not a journal at all\n").unwrap();
        assert!(matches!(
            replay(&path).unwrap_err(),
            JournalError::MissingHeader { .. }
        ));
        fs::write(&path, b"").unwrap();
        assert!(matches!(
            replay(&path).unwrap_err(),
            JournalError::MissingHeader { .. }
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn atomic_write_replaces_contents() {
        let path = tmp_path("atomic");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second, longer contents").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second, longer contents");
        // No temp litter left behind.
        let dir = path.parent().unwrap();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let litter = fs::read_dir(dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(&name))
            .count();
        assert_eq!(litter, 1, "only the target file remains");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fnv_is_stable_and_input_sensitive() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a64(b"a"), fnv1a64(b"b"));
        assert_eq!(fnv1a64(b"grid"), fnv1a64(b"grid"));
    }
}
