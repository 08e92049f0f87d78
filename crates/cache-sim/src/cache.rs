//! Cache arrays: geometry, the data-holding L1, and the tag-only L2.

use std::error::Error;
use std::fmt;

/// Why a [`CacheGeometry`] is unbuildable.
///
/// Returned by [`CacheGeometry::try_new`] so geometry sweeps can
/// validate candidate configurations instead of aborting; the
/// [`Display`](fmt::Display) messages are the exact panic messages of
/// [`CacheGeometry::new`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeometryError {
    /// The total size is not a power of two.
    SizeNotPowerOfTwo {
        /// The rejected total size in bytes.
        size: u32,
    },
    /// The line size is not a power of two at least 4.
    BadLineSize {
        /// The rejected line size in bytes.
        line: u32,
    },
    /// The associativity is zero.
    ZeroAssociativity,
    /// The cache cannot hold even one full set.
    TooSmallForOneSet {
        /// Lines the cache holds.
        lines: u32,
        /// Requested ways per set.
        assoc: u32,
    },
    /// The implied set count is not a power of two.
    SetsNotPowerOfTwo {
        /// Lines the cache holds.
        lines: u32,
        /// Requested ways per set.
        assoc: u32,
    },
}

impl fmt::Display for GeometryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeometryError::SizeNotPowerOfTwo { size } => {
                write!(f, "cache size must be a power of two (got {size})")
            }
            GeometryError::BadLineSize { line } => {
                write!(f, "line size must be a power of two >= 4 (got {line})")
            }
            GeometryError::ZeroAssociativity => {
                write!(f, "associativity must be at least 1")
            }
            GeometryError::TooSmallForOneSet { lines, assoc } => {
                write!(
                    f,
                    "cache must hold at least one set ({lines} lines, {assoc} ways)"
                )
            }
            GeometryError::SetsNotPowerOfTwo { lines, assoc } => {
                write!(
                    f,
                    "set count must be a power of two ({lines} lines, {assoc} ways)"
                )
            }
        }
    }
}

impl Error for GeometryError {}

/// Size/shape of a cache: total bytes, line bytes, associativity.
///
/// # Examples
///
/// ```
/// use cache_sim::CacheGeometry;
///
/// // The paper's level-1 data cache: 4 KB direct-mapped, 32-byte lines.
/// let l1 = CacheGeometry::new(4 * 1024, 32, 1);
/// assert_eq!(l1.sets(), 128);
/// // The level-2: 128 KB 4-way, 128-byte lines.
/// let l2 = CacheGeometry::new(128 * 1024, 128, 4);
/// assert_eq!(l2.sets(), 256);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    size: u32,
    line: u32,
    assoc: u32,
    /// `log2(line)` — index math on the access fast path uses shifts
    /// and masks instead of divisions.
    line_shift: u32,
    /// `line - 1`.
    offset_mask: u32,
    /// `sets - 1`.
    set_mask: u32,
    /// `log2(line) + log2(sets)`.
    tag_shift: u32,
}

impl CacheGeometry {
    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics unless `size`, `line` and the implied set count are powers
    /// of two, `line ≥ 4`, and `assoc ≥ 1` divides the line count.
    pub fn new(size: u32, line: u32, assoc: u32) -> Self {
        Self::try_new(size, line, assoc).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible form of [`CacheGeometry::new`]: returns the violated
    /// constraint instead of panicking, so sweeps over candidate
    /// geometries can skip unbuildable points.
    ///
    /// # Examples
    ///
    /// ```
    /// use cache_sim::{CacheGeometry, GeometryError};
    ///
    /// assert!(CacheGeometry::try_new(4 * 1024, 32, 1).is_ok());
    /// assert_eq!(
    ///     CacheGeometry::try_new(3000, 32, 1),
    ///     Err(GeometryError::SizeNotPowerOfTwo { size: 3000 })
    /// );
    /// ```
    pub fn try_new(size: u32, line: u32, assoc: u32) -> Result<Self, GeometryError> {
        if !size.is_power_of_two() {
            return Err(GeometryError::SizeNotPowerOfTwo { size });
        }
        if !line.is_power_of_two() || line < 4 {
            return Err(GeometryError::BadLineSize { line });
        }
        if assoc < 1 {
            return Err(GeometryError::ZeroAssociativity);
        }
        let lines = size / line;
        if lines < assoc {
            return Err(GeometryError::TooSmallForOneSet { lines, assoc });
        }
        if !lines.is_multiple_of(assoc) || !(lines / assoc).is_power_of_two() {
            return Err(GeometryError::SetsNotPowerOfTwo { lines, assoc });
        }
        let sets = lines / assoc;
        Ok(CacheGeometry {
            size,
            line,
            assoc,
            line_shift: line.trailing_zeros(),
            offset_mask: line - 1,
            set_mask: sets - 1,
            tag_shift: line.trailing_zeros() + sets.trailing_zeros(),
        })
    }

    /// Total capacity in bytes.
    pub fn size(&self) -> u32 {
        self.size
    }

    /// Line size in bytes.
    pub fn line_size(&self) -> u32 {
        self.line
    }

    /// Associativity (ways per set).
    pub fn assoc(&self) -> u32 {
        self.assoc
    }

    /// Number of sets.
    pub fn sets(&self) -> u32 {
        self.size / self.line / self.assoc
    }

    /// Set index of `addr`.
    #[inline]
    pub fn set_of(&self, addr: u32) -> u32 {
        (addr >> self.line_shift) & self.set_mask
    }

    /// Tag of `addr`.
    #[inline]
    pub fn tag_of(&self, addr: u32) -> u32 {
        addr >> self.tag_shift
    }

    /// First address of the line containing `addr`.
    #[inline]
    pub fn line_base(&self, addr: u32) -> u32 {
        addr & !self.offset_mask
    }

    /// Offset of `addr` within its line.
    #[inline]
    pub fn offset_of(&self, addr: u32) -> u32 {
        addr & self.offset_mask
    }
}

impl fmt::Display for CacheGeometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} KB, {}-way, {}-byte lines",
            self.size / 1024,
            self.assoc,
            self.line
        )
    }
}

/// Which per-word check code the data cache stores alongside each word.
///
/// One byte per word is reserved either way, so switching codes changes
/// no array layout: the parity signature uses 4 of its bits, the SECDED
/// code 7 (see [`crate::secded`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum WordCode {
    /// Per-byte parity signature; bit `i` is the even parity of byte
    /// `i`, and word parity is the XOR of the four bits, so both parity
    /// detection granularities share this encoding.
    #[default]
    ParitySignature,
    /// SECDED (39,32) extended-Hamming code
    /// ([`secded_encode`](crate::secded_encode)).
    Secded,
}

impl WordCode {
    /// Encodes the check byte for `word` under this code.
    pub fn encode(self, word: u32) -> u8 {
        match self {
            WordCode::ParitySignature => parity_signature(word),
            WordCode::Secded => crate::secded::secded_encode(word),
        }
    }
}

/// One line of the data-holding L1 cache.
///
/// The check codes are *timing/fault state*, not functional state: a
/// freshly filled line's codes are always a pure function of its data,
/// so they are not computed until a checking (slow-path) access actually
/// reads one (`codes_valid`). Only a corrupted store can make a stored
/// code disagree with its stored word; such a line is flagged `suspect`
/// and its codes are materialized *before* the mismatch is written, so
/// the invariant `suspect ⇒ codes_valid` holds and lazy materialization
/// can never erase a recorded mismatch.
#[derive(Debug, Clone)]
struct DataLine {
    tag: u32,
    valid: bool,
    dirty: bool,
    /// Some stored word's check code may disagree with its stored data
    /// (a write fault corrupted the store); checked reads must take the
    /// slow path while a detection scheme is enabled.
    suspect: bool,
    /// Whether `parity` currently holds the codes of this line's words;
    /// codes are materialized lazily on first checked access.
    codes_valid: bool,
    data: Box<[u8]>,
    /// Per-word check code computed from the *intended* data (so a
    /// corrupted store is detectable later) under the cache's
    /// [`WordCode`].
    parity: Box<[u8]>,
}

impl DataLine {
    fn new(line_size: u32) -> Self {
        DataLine {
            tag: 0,
            valid: false,
            dirty: false,
            suspect: false,
            codes_valid: false,
            data: vec![0; line_size as usize].into_boxed_slice(),
            parity: vec![0; (line_size / 4) as usize].into_boxed_slice(),
        }
    }

    /// Ensures `parity` holds the codes of the current data (a no-op
    /// once materialized — in particular on suspect lines, whose
    /// recorded mismatches must survive).
    fn materialize_codes(&mut self, code: WordCode) {
        if self.codes_valid {
            return;
        }
        encode_line(code, &self.data, &mut self.parity);
        self.codes_valid = true;
    }
}

/// A located line held open for a batched fast-path commit (see
/// [`DataCache::fast_group`]): bulk reads and writes of raw stored data
/// with the fast-path semantics of [`DataCache::fast_read_commit`] /
/// [`DataCache::fast_write_commit`], minus the per-access LRU touch and
/// line lookup the group already paid once.
pub(crate) struct FastLine<'a> {
    line: &'a mut DataLine,
    code: WordCode,
    offset_mask: u32,
}

impl FastLine<'_> {
    /// Appends the `n` aligned words starting at `addr` to `out` — one
    /// bounds check for the whole stretch instead of one per word.
    #[inline]
    pub(crate) fn read_words_into(&self, addr: u32, n: u32, out: &mut Vec<u32>) {
        let off = (addr & self.offset_mask) as usize & !3;
        let bytes = &self.line.data[off..off + 4 * n as usize];
        out.extend(
            bytes
                .chunks_exact(4)
                .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        );
    }

    /// Appends the `n` aligned half-words starting at `addr` to `out`,
    /// zero-extended as the batched-run convention requires.
    #[inline]
    pub(crate) fn read_halves_into(&self, addr: u32, n: u32, out: &mut Vec<u32>) {
        let off = (addr & self.offset_mask) as usize & !1;
        let bytes = &self.line.data[off..off + 2 * n as usize];
        out.extend(
            bytes
                .chunks_exact(2)
                .map(|b| u32::from(u16::from_le_bytes([b[0], b[1]]))),
        );
    }

    /// Appends the `n` bytes starting at `addr` to `out`.
    #[inline]
    pub(crate) fn read_bytes_into(&self, addr: u32, n: u32, out: &mut Vec<u8>) {
        let off = (addr & self.offset_mask) as usize;
        out.extend_from_slice(&self.line.data[off..off + n as usize]);
    }

    /// Writes `words` as sequential aligned stores starting at `addr`.
    /// The final line state is identical to word-by-word
    /// [`DataCache::fast_write_commit`] calls: stored data is the
    /// concatenation, each store marks the line dirty, and any
    /// materialized code ends up encoding the final (latest) word —
    /// which is all a code depends on.
    #[inline]
    pub(crate) fn write_words(&mut self, addr: u32, words: &[u32]) {
        let off = (addr & self.offset_mask) as usize & !3;
        for (i, &w) in words.iter().enumerate() {
            self.line.data[off + 4 * i..off + 4 * i + 4].copy_from_slice(&w.to_le_bytes());
        }
        if self.line.codes_valid {
            for (i, &w) in words.iter().enumerate() {
                self.line.parity[off / 4 + i] = self.code.encode(w);
            }
        }
        self.line.dirty = true;
    }

    /// Writes `bytes` as sequential byte stores starting at `addr`.
    /// Equivalent to byte-by-byte read-merge-write stores of their
    /// containing words: codes depend only on the final data, so any
    /// materialized codes of the touched words are recomputed once from
    /// the settled bytes.
    #[inline]
    pub(crate) fn write_bytes(&mut self, addr: u32, bytes: &[u8]) {
        let off = (addr & self.offset_mask) as usize;
        self.line.data[off..off + bytes.len()].copy_from_slice(bytes);
        if self.line.codes_valid {
            let first = off & !3;
            let last = (off + bytes.len() - 1) & !3;
            for woff in (first..=last).step_by(4) {
                let b = &self.line.data[woff..woff + 4];
                self.line.parity[woff / 4] = self
                    .code
                    .encode(u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
            }
        }
        self.line.dirty = true;
    }
}

/// Encodes the per-word check codes of a whole line at once — the
/// line-granular (vectorized) form of [`WordCode::encode`]. Parity
/// signatures are computed eight bytes at a time with SWAR folds;
/// SECDED codes go through the table-driven block encoder.
pub(crate) fn encode_line(code: WordCode, data: &[u8], out: &mut [u8]) {
    debug_assert_eq!(data.len(), out.len() * 4);
    match code {
        WordCode::ParitySignature => {
            let mut w = 0usize;
            for chunk in data.chunks_exact(8) {
                let x = u64::from_le_bytes(chunk.try_into().unwrap());
                // Fold each byte onto its bit 0 (shifts never reach
                // across more than 7 bits, so bytes stay independent),
                // then gather the eight byte-parity bits into one byte:
                // bit j of the product's top byte is byte j's parity.
                let mut p = x ^ (x >> 4);
                p ^= p >> 2;
                p ^= p >> 1;
                let bits =
                    ((p & 0x0101_0101_0101_0101).wrapping_mul(0x0102_0408_1020_4080) >> 56) as u8;
                out[w] = bits & 0xF;
                out[w + 1] = bits >> 4;
                w += 2;
            }
            if data.len() % 8 == 4 {
                let b = &data[data.len() - 4..];
                out[w] = parity_signature(u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
            }
        }
        WordCode::Secded => crate::secded::secded_encode_block(data, out),
    }
}

/// Outcome of an L1 lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lookup {
    /// The line is resident in the given way.
    Hit(usize),
    /// The line is absent; the given way is the victim for a refill.
    Miss(usize),
    /// Every way of the target set is disabled: the line can never be
    /// resident and the access must bypass the L1 entirely.
    Bypass,
}

/// The level-1 data cache: tags, data and a per-word check code.
///
/// This is a plain storage array — fault injection, detection and
/// recovery live in [`MemSystem`](crate::MemSystem), which drives it.
#[derive(Debug, Clone)]
pub struct DataCache {
    geom: CacheGeometry,
    code: WordCode,
    lines: Vec<DataLine>,
    /// Per-set LRU order: `lru[set]` lists way indices, most recent last.
    lru: Vec<Vec<u8>>,
    /// Per-(set,way) health: a disabled way holds a permanent fault site
    /// and is never filled again (indexed like `lines`). Survives
    /// [`DataCache::flush`] — mapped-out hardware stays mapped out.
    disabled: Vec<bool>,
    /// Number of `true` entries in `disabled`.
    disabled_count: u32,
}

impl DataCache {
    /// Creates an empty (all-invalid) cache storing parity signatures.
    pub fn new(geom: CacheGeometry) -> Self {
        DataCache::with_code(geom, WordCode::ParitySignature)
    }

    /// Creates an empty cache storing the given per-word check code.
    pub fn with_code(geom: CacheGeometry, code: WordCode) -> Self {
        let sets = geom.sets() as usize;
        let assoc = geom.assoc() as usize;
        DataCache {
            geom,
            code,
            lines: (0..sets * assoc)
                .map(|_| DataLine::new(geom.line_size()))
                .collect(),
            lru: (0..sets).map(|_| (0..assoc as u8).collect()).collect(),
            disabled: vec![false; sets * assoc],
            disabled_count: 0,
        }
    }

    /// The per-word check code this cache stores.
    pub fn code(&self) -> WordCode {
        self.code
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    fn line_index(&self, set: u32, way: usize) -> usize {
        set as usize * self.geom.assoc() as usize + way
    }

    #[inline]
    fn touch(&mut self, set: u32, way: usize) {
        // Direct-mapped caches have no LRU state to maintain.
        if self.geom.assoc() == 1 {
            return;
        }
        let order = &mut self.lru[set as usize];
        if let Some(pos) = order.iter().position(|&w| w as usize == way) {
            let w = order.remove(pos);
            order.push(w);
        }
    }

    /// Looks up `addr`, returning a hit way, the LRU victim way among
    /// the still-enabled ways, or [`Lookup::Bypass`] when the whole set
    /// is disabled.
    pub(crate) fn lookup(&self, addr: u32) -> Lookup {
        let set = self.geom.set_of(addr);
        let tag = self.geom.tag_of(addr);
        for way in 0..self.geom.assoc() as usize {
            let line = &self.lines[self.line_index(set, way)];
            if line.valid && line.tag == tag {
                return Lookup::Hit(way);
            }
        }
        // Prefer an invalid enabled way, else the LRU enabled way. With
        // no disabled ways this reduces exactly to the historical
        // invalid-then-`lru[set][0]` choice.
        for way in 0..self.geom.assoc() as usize {
            let idx = self.line_index(set, way);
            if !self.lines[idx].valid && !self.disabled[idx] {
                return Lookup::Miss(way);
            }
        }
        for &way in &self.lru[set as usize] {
            if !self.disabled[self.line_index(set, way as usize)] {
                return Lookup::Miss(way as usize);
            }
        }
        Lookup::Bypass
    }

    /// Whether `addr`'s line is resident.
    pub fn contains(&self, addr: u32) -> bool {
        matches!(self.lookup(addr), Lookup::Hit(_))
    }

    /// Installs a line fetched from the next level, evicting the victim.
    ///
    /// Returns the evicted line's `(base_addr, data)` if it was dirty.
    #[cfg(test)]
    pub(crate) fn fill(&mut self, addr: u32, way: usize, data: &[u8]) -> Option<(u32, Vec<u8>)> {
        let mut buf = data.to_vec();
        self.fill_swap(addr, way, &mut buf).map(|base| (base, buf))
    }

    /// Installs the line fetched from the next level into `buf`,
    /// evicting the victim without allocating. If the victim was dirty,
    /// its data is swapped into `buf` and its base address returned, for
    /// the caller to write back; otherwise `buf` is left as it was.
    pub(crate) fn fill_swap(&mut self, addr: u32, way: usize, buf: &mut [u8]) -> Option<u32> {
        assert_eq!(buf.len() as u32, self.geom.line_size());
        let set = self.geom.set_of(addr);
        let idx = self.line_index(set, way);
        debug_assert!(!self.disabled[idx], "refill into a disabled way");
        let line = &mut self.lines[idx];
        let evicted = (line.valid && line.dirty)
            .then(|| (line.tag * self.geom.sets() + set) * self.geom.line_size());
        line.tag = self.geom.tag_of(addr);
        line.valid = true;
        line.dirty = false;
        // A refill's codes are by construction consistent with its data
        // (even a corrupted refill arrives before encoding), so defer
        // encoding until a checking access actually needs them.
        line.suspect = false;
        line.codes_valid = false;
        if evicted.is_some() {
            line.data.swap_with_slice(buf);
        } else {
            line.data.copy_from_slice(buf);
        }
        self.touch(set, way);
        evicted
    }

    /// Locates `addr` for the fast path: `Some((set, way))` on a hit,
    /// `None` on a miss. Leaves LRU state untouched — the commit
    /// methods below touch it, so a probe that falls back to the slow
    /// path costs nothing.
    #[inline]
    pub(crate) fn fast_locate(&self, addr: u32) -> Option<(u32, usize)> {
        let set = self.geom.set_of(addr);
        let tag = self.geom.tag_of(addr);
        let base = set as usize * self.geom.assoc() as usize;
        for way in 0..self.geom.assoc() as usize {
            let line = &self.lines[base + way];
            if line.valid && line.tag == tag {
                return Some((set, way));
            }
        }
        None
    }

    /// Whether the located line may hold a word whose stored check code
    /// disagrees with its data (see `DataLine::suspect`).
    #[inline]
    pub(crate) fn is_suspect(&self, set: u32, way: usize) -> bool {
        self.lines[self.line_index(set, way)].suspect
    }

    /// Fast-path read of the word containing `addr` from a located line:
    /// touches LRU and returns the stored word without materializing or
    /// consulting check codes.
    #[inline]
    pub(crate) fn fast_read_commit(&mut self, set: u32, way: usize, addr: u32) -> u32 {
        self.touch(set, way);
        let line = &self.lines[self.line_index(set, way)];
        debug_assert!(line.valid && line.tag == self.geom.tag_of(addr));
        let off = self.geom.offset_of(addr) as usize;
        let b = &line.data[off..off + 4];
        u32::from_le_bytes([b[0], b[1], b[2], b[3]])
    }

    /// Fast-path write of `value` into a located line: touches LRU,
    /// stores the word, keeps any materialized code consistent and marks
    /// the line dirty. Equivalent to `write_word(addr, way, v, v)`.
    #[inline]
    pub(crate) fn fast_write_commit(&mut self, set: u32, way: usize, addr: u32, value: u32) {
        self.touch(set, way);
        let code = self.code;
        let idx = self.line_index(set, way);
        let line = &mut self.lines[idx];
        debug_assert!(line.valid && line.tag == self.geom.tag_of(addr));
        let off = self.geom.offset_of(addr) as usize;
        line.data[off..off + 4].copy_from_slice(&value.to_le_bytes());
        if line.codes_valid {
            line.parity[off / 4] = code.encode(value);
        }
        line.dirty = true;
    }

    /// Opens a located line for a batched fast-path commit: touches LRU
    /// once — repeated touches of the same way are idempotent, so one
    /// touch produces exactly the state per-access commits would have —
    /// and returns a handle for raw word reads and writes against the
    /// line.
    #[inline]
    pub(crate) fn fast_group(&mut self, set: u32, way: usize) -> FastLine<'_> {
        self.touch(set, way);
        let code = self.code;
        let offset_mask = self.geom.line_size() - 1;
        let idx = self.line_index(set, way);
        FastLine {
            line: &mut self.lines[idx],
            code,
            offset_mask,
        }
    }

    /// Reads the stored (possibly corrupted) word containing `addr`,
    /// with its stored check code. `addr` must be word-aligned and
    /// resident in `way`.
    pub(crate) fn read_word(&mut self, addr: u32, way: usize) -> (u32, u8) {
        let set = self.geom.set_of(addr);
        self.touch(set, way);
        let code = self.code;
        let idx = self.line_index(set, way);
        let line = &mut self.lines[idx];
        debug_assert!(line.valid && line.tag == self.geom.tag_of(addr));
        line.materialize_codes(code);
        let off = self.geom.offset_of(addr) as usize;
        let b = &line.data[off..off + 4];
        (
            u32::from_le_bytes([b[0], b[1], b[2], b[3]]),
            line.parity[off / 4],
        )
    }

    /// Stores `stored` into the word containing `addr` while recording
    /// the check code of `intended` (they differ when a write fault
    /// corrupts the store), marking the line dirty.
    pub(crate) fn write_word(&mut self, addr: u32, way: usize, stored: u32, intended: u32) {
        let set = self.geom.set_of(addr);
        self.touch(set, way);
        let code = self.code;
        let idx = self.line_index(set, way);
        let line = &mut self.lines[idx];
        debug_assert!(line.valid && line.tag == self.geom.tag_of(addr));
        let off = self.geom.offset_of(addr) as usize;
        if stored == intended {
            // Clean store: if codes are still lazy they stay lazy (a
            // later materialization from the data gives the same code).
            line.data[off..off + 4].copy_from_slice(&stored.to_le_bytes());
            if line.codes_valid {
                line.parity[off / 4] = code.encode(intended);
            }
        } else {
            // Corrupted store: the code of the *intended* word must be
            // recorded, so the other words' codes have to be pinned from
            // their current data first.
            line.materialize_codes(code);
            line.data[off..off + 4].copy_from_slice(&stored.to_le_bytes());
            line.parity[off / 4] = code.encode(intended);
            line.suspect = true;
        }
        line.dirty = true;
    }

    /// Invalidates the line containing `addr` *without* writing it back
    /// (the strike policies assume an invalidated line is corrupt).
    ///
    /// Returns whether a valid line was dropped.
    pub fn invalidate(&mut self, addr: u32) -> bool {
        let set = self.geom.set_of(addr);
        let tag = self.geom.tag_of(addr);
        for way in 0..self.geom.assoc() as usize {
            let idx = self.line_index(set, way);
            let line = &mut self.lines[idx];
            if line.valid && line.tag == tag {
                line.valid = false;
                line.dirty = false;
                line.suspect = false;
                return true;
            }
        }
        false
    }

    /// Invalidates like [`DataCache::invalidate`] but reports whether
    /// the dropped line was *dirty* (a potential lost update).
    pub(crate) fn invalidate_dirty(&mut self, addr: u32) -> bool {
        let set = self.geom.set_of(addr);
        let tag = self.geom.tag_of(addr);
        for way in 0..self.geom.assoc() as usize {
            let idx = self.line_index(set, way);
            let line = &mut self.lines[idx];
            if line.valid && line.tag == tag {
                let was_dirty = line.dirty;
                line.valid = false;
                line.dirty = false;
                line.suspect = false;
                return was_dirty;
            }
        }
        false
    }

    /// XORs `mask` into the stored tag of the line the lookup of `addr`
    /// lands on — the hit line, or the (valid) victim line on a miss.
    /// Models a fault in the tag array consulted by the lookup: the
    /// corrupted line keeps its data (and dirty state) but now answers
    /// to the aliased address, so the true address false-misses and the
    /// alias false-hits stale data.
    ///
    /// Returns whether a valid line's tag was corrupted.
    pub(crate) fn corrupt_tag(&mut self, addr: u32, mask: u32) -> bool {
        if mask == 0 {
            return false;
        }
        let way = match self.lookup(addr) {
            Lookup::Hit(way) | Lookup::Miss(way) => way,
            // A fully-disabled set holds no valid line to alias.
            Lookup::Bypass => return false,
        };
        let set = self.geom.set_of(addr);
        let idx = self.line_index(set, way);
        let line = &mut self.lines[idx];
        if !line.valid {
            return false;
        }
        line.tag ^= mask;
        true
    }

    /// Host write: if the word is resident, overwrite data and check
    /// code (intended == stored) without touching LRU or dirty state.
    /// Returns whether the word was resident.
    pub(crate) fn poke_word(&mut self, addr: u32, value: u32) -> bool {
        match self.lookup(addr) {
            Lookup::Hit(way) => {
                let set = self.geom.set_of(addr);
                let code = self.code;
                let idx = self.line_index(set, way);
                let line = &mut self.lines[idx];
                let off = self.geom.offset_of(addr) as usize;
                line.data[off..off + 4].copy_from_slice(&value.to_le_bytes());
                if line.codes_valid {
                    line.parity[off / 4] = code.encode(value);
                }
                true
            }
            Lookup::Miss(_) | Lookup::Bypass => false,
        }
    }

    /// Host write of `bytes` starting at word-aligned `addr` into any
    /// resident lines — the line-granular form of [`DataCache::poke_word`]
    /// used by packet DMA. One lookup per covered line instead of one
    /// per word; data (and materialized codes) are updated, LRU and
    /// dirty state are untouched. `bytes.len()` must be a multiple of 4.
    pub(crate) fn poke_range(&mut self, addr: u32, bytes: &[u8]) {
        debug_assert!(addr.is_multiple_of(4) && bytes.len().is_multiple_of(4));
        let line_size = self.geom.line_size();
        let code = self.code;
        let end = addr + bytes.len() as u32;
        let mut cur = addr;
        while cur < end {
            let chunk_end = (self.geom.line_base(cur) + line_size).min(end);
            if let Lookup::Hit(way) = self.lookup(cur) {
                let set = self.geom.set_of(cur);
                let idx = self.line_index(set, way);
                let line = &mut self.lines[idx];
                let off = self.geom.offset_of(cur) as usize;
                let n = (chunk_end - cur) as usize;
                let src = (cur - addr) as usize;
                line.data[off..off + n].copy_from_slice(&bytes[src..src + n]);
                if line.codes_valid {
                    for w in (off / 4)..((off + n) / 4) {
                        let b = &line.data[w * 4..w * 4 + 4];
                        line.parity[w] = code.encode(u32::from_le_bytes([b[0], b[1], b[2], b[3]]));
                    }
                }
            }
            cur = chunk_end;
        }
    }

    /// Reads a resident word *without* updating LRU or requiring a way —
    /// for host (debug) access. Returns `None` if not resident.
    pub(crate) fn peek_word(&self, addr: u32) -> Option<u32> {
        match self.lookup(addr) {
            Lookup::Hit(way) => {
                let set = self.geom.set_of(addr);
                let idx = set as usize * self.geom.assoc() as usize + way;
                let line = &self.lines[idx];
                let off = self.geom.offset_of(addr) as usize;
                let b = &line.data[off..off + 4];
                Some(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            }
            Lookup::Miss(_) | Lookup::Bypass => None,
        }
    }

    /// Drops every line (used between runs).
    pub fn flush(&mut self) {
        for line in &mut self.lines {
            line.valid = false;
            line.dirty = false;
            line.suspect = false;
        }
    }

    /// Cleans every dirty line, returning `(base_addr, data)` pairs to
    /// write back. Lines stay valid.
    pub(crate) fn drain_dirty(&mut self) -> Vec<(u32, Vec<u8>)> {
        let mut out = Vec::new();
        let sets = self.geom.sets();
        for set in 0..sets {
            for way in 0..self.geom.assoc() as usize {
                let idx = self.line_index(set, way);
                let line = &mut self.lines[idx];
                if line.valid && line.dirty {
                    let base = (line.tag * sets + set) * self.geom.line_size();
                    out.push((base, line.data.to_vec()));
                    line.dirty = false;
                }
            }
        }
        out
    }

    /// Maps out way `way` of set `set`: the slot is invalidated and
    /// never filled again ([`DataCache::lookup`] skips it; a set with
    /// every way mapped out answers [`Lookup::Bypass`]). Idempotent.
    ///
    /// Returns the slot's `(base_addr, data)` if it held a valid dirty
    /// line, so the caller can salvage the contents through its
    /// writeback path before the storage is abandoned.
    ///
    /// # Panics
    ///
    /// Panics if `set` or `way` is out of range.
    pub fn disable_way(&mut self, set: u32, way: usize) -> Option<(u32, Vec<u8>)> {
        assert!(set < self.geom.sets(), "set {set} out of range");
        assert!(way < self.geom.assoc() as usize, "way {way} out of range");
        let idx = self.line_index(set, way);
        if self.disabled[idx] {
            return None;
        }
        self.disabled[idx] = true;
        self.disabled_count += 1;
        let line = &mut self.lines[idx];
        let salvage = if line.valid && line.dirty {
            let base = (line.tag * self.geom.sets() + set) * self.geom.line_size();
            Some((base, line.data.to_vec()))
        } else {
            None
        };
        line.valid = false;
        line.dirty = false;
        line.suspect = false;
        salvage
    }

    /// Whether way `way` of set `set` has been mapped out.
    pub fn way_disabled(&self, set: u32, way: usize) -> bool {
        self.disabled[self.line_index(set, way)]
    }

    /// Number of mapped-out ways in set `set`.
    pub fn disabled_ways_in_set(&self, set: u32) -> u32 {
        (0..self.geom.assoc() as usize)
            .filter(|&w| self.disabled[self.line_index(set, w)])
            .count() as u32
    }

    /// Whether every way of set `set` is mapped out (accesses to the set
    /// bypass the L1 entirely).
    pub fn set_fully_disabled(&self, set: u32) -> bool {
        self.disabled_ways_in_set(set) == self.geom.assoc()
    }

    /// Total mapped-out ways across all sets.
    pub fn disabled_way_count(&self) -> u32 {
        self.disabled_count
    }

    /// Per-set disabled-way counts — the degradation map consumed by
    /// [`crate::degradation`].
    pub fn disabled_map(&self) -> Vec<u32> {
        (0..self.geom.sets())
            .map(|set| self.disabled_ways_in_set(set))
            .collect()
    }
}

/// Even parity of a 32-bit word: `true` if the popcount is odd.
/// (The specification function for [`parity_signature`]; production
/// code derives word parity from the signature.)
#[cfg(test)]
pub(crate) fn word_parity(word: u32) -> bool {
    word.count_ones() % 2 == 1
}

/// Per-byte parity signature of a word: bit `i` is the even parity of
/// byte `i`. The word parity is the XOR of the four bits.
pub(crate) fn parity_signature(word: u32) -> u8 {
    let mut sig = 0u8;
    for i in 0..4 {
        let byte = (word >> (8 * i)) as u8;
        sig |= u8::from(byte.count_ones() % 2 == 1) << i;
    }
    sig
}

/// Word parity derived from a per-byte signature.
pub(crate) fn word_parity_of_signature(sig: u8) -> bool {
    (sig & 0xF).count_ones() % 2 == 1
}

/// A tag-only set-associative cache used for level-2 timing.
///
/// The L2's data contents live in the [`BackingStore`](crate::BackingStore)
/// (correct by default; fallible when the opt-in
/// [`FaultTargets::l2`](crate::FaultTargets) process corrupts words in
/// flight); this array only answers hit/miss for latency and energy
/// accounting.
#[derive(Debug, Clone)]
pub struct TagCache {
    geom: CacheGeometry,
    tags: Vec<(u32, bool)>,
    lru: Vec<Vec<u8>>,
}

impl TagCache {
    /// Creates an empty tag array.
    pub fn new(geom: CacheGeometry) -> Self {
        let sets = geom.sets() as usize;
        let assoc = geom.assoc() as usize;
        TagCache {
            geom,
            tags: vec![(0, false); sets * assoc],
            lru: (0..sets).map(|_| (0..assoc as u8).collect()).collect(),
        }
    }

    /// The cache geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geom
    }

    /// Accesses `addr`: returns `true` on hit; on miss, allocates the
    /// line (evicting LRU).
    pub fn access(&mut self, addr: u32) -> bool {
        let set = self.geom.set_of(addr) as usize;
        let tag = self.geom.tag_of(addr);
        let assoc = self.geom.assoc() as usize;
        for way in 0..assoc {
            let (t, valid) = self.tags[set * assoc + way];
            if valid && t == tag {
                let order = &mut self.lru[set];
                let pos = order.iter().position(|&w| w as usize == way).unwrap();
                let w = order.remove(pos);
                order.push(w);
                return true;
            }
        }
        // Miss: fill the LRU (or first invalid) way.
        let victim = (0..assoc)
            .find(|&w| !self.tags[set * assoc + w].1)
            .unwrap_or(self.lru[set][0] as usize);
        self.tags[set * assoc + victim] = (tag, true);
        let order = &mut self.lru[set];
        let pos = order.iter().position(|&w| w as usize == victim).unwrap();
        let w = order.remove(pos);
        order.push(w);
        false
    }

    /// Drops every line.
    pub fn flush(&mut self) {
        for t in &mut self.tags {
            t.1 = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> CacheGeometry {
        CacheGeometry::new(4 * 1024, 32, 1)
    }

    #[test]
    fn geometry_of_paper_caches() {
        let g = l1();
        assert_eq!(g.sets(), 128);
        assert_eq!(g.line_size(), 32);
        let l2 = CacheGeometry::new(128 * 1024, 128, 4);
        assert_eq!(l2.sets(), 256);
    }

    #[test]
    fn geometry_index_math() {
        let g = l1();
        let addr = 0x0001_2345;
        assert_eq!(g.line_base(addr), addr & !31);
        assert_eq!(g.offset_of(addr), addr & 31);
        assert_eq!(g.set_of(addr), (addr / 32) % 128);
        assert_eq!(g.tag_of(addr), addr / 32 / 128);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn geometry_rejects_non_power_of_two() {
        CacheGeometry::new(3000, 32, 1);
    }

    #[test]
    fn fill_then_hit() {
        let mut c = DataCache::new(l1());
        assert!(matches!(c.lookup(0x100), Lookup::Miss(_)));
        c.fill(0x100, 0, &[0xAB; 32]);
        assert!(matches!(c.lookup(0x100), Lookup::Hit(0)));
        assert!(c.contains(0x11F)); // same line
        assert!(!c.contains(0x120)); // next line
    }

    #[test]
    fn word_read_back_and_parity() {
        let mut c = DataCache::new(l1());
        c.fill(0x100, 0, &[0; 32]);
        c.write_word(0x104, 0, 0x7, 0x7);
        let (v, sig) = c.read_word(0x104, 0);
        assert_eq!(v, 0x7);
        assert_eq!(sig, parity_signature(0x7));
        assert!(word_parity_of_signature(sig)); // 3 ones = odd
    }

    #[test]
    fn corrupted_store_mismatches_parity() {
        let mut c = DataCache::new(l1());
        c.fill(0x100, 0, &[0; 32]);
        // Intended 0x7 but a single-bit fault stored 0x5.
        c.write_word(0x104, 0, 0x5, 0x7);
        let (v, stored_sig) = c.read_word(0x104, 0);
        assert_eq!(v, 0x5);
        assert_ne!(
            word_parity(v),
            word_parity_of_signature(stored_sig),
            "parity must flag this"
        );
    }

    #[test]
    fn direct_mapped_conflict_evicts() {
        let mut c = DataCache::new(l1());
        // Two addresses 4 KB apart map to the same set in a 4 KB DM cache.
        c.fill(0x100, 0, &[1; 32]);
        let Lookup::Miss(way) = c.lookup(0x100 + 4096) else {
            panic!("expected conflict miss");
        };
        c.fill(0x100 + 4096, way, &[2; 32]);
        assert!(!c.contains(0x100));
        assert!(c.contains(0x100 + 4096));
    }

    #[test]
    fn dirty_eviction_returns_data() {
        let mut c = DataCache::new(l1());
        c.fill(0x100, 0, &[0; 32]);
        c.write_word(0x100, 0, 42, 42);
        let Lookup::Miss(way) = c.lookup(0x100 + 4096) else {
            panic!()
        };
        let evicted = c.fill(0x100 + 4096, way, &[0; 32]);
        let (base, data) = evicted.expect("dirty line must be written back");
        assert_eq!(base, 0x100);
        assert_eq!(u32::from_le_bytes(data[0..4].try_into().unwrap()), 42);
    }

    #[test]
    fn clean_eviction_returns_none() {
        let mut c = DataCache::new(l1());
        c.fill(0x100, 0, &[0; 32]);
        let Lookup::Miss(way) = c.lookup(0x100 + 4096) else {
            panic!()
        };
        assert!(c.fill(0x100 + 4096, way, &[0; 32]).is_none());
    }

    #[test]
    fn invalidate_drops_line_without_writeback() {
        let mut c = DataCache::new(l1());
        c.fill(0x100, 0, &[0; 32]);
        c.write_word(0x100, 0, 99, 99);
        assert!(c.invalidate(0x100));
        assert!(!c.contains(0x100));
        assert!(!c.invalidate(0x100), "second invalidate is a no-op");
    }

    #[test]
    fn corrupt_tag_aliases_a_resident_line() {
        let mut c = DataCache::new(l1());
        c.fill(0x100, 0, &[7; 32]);
        // Flip tag bit 0: the line now answers to 0x100 + 4 KB.
        assert!(c.corrupt_tag(0x100, 1));
        assert!(!c.contains(0x100), "true address must false-miss");
        assert!(c.contains(0x100 + 4096), "alias must false-hit");
        // A second corruption through the alias flips it back.
        assert!(c.corrupt_tag(0x100 + 4096, 1));
        assert!(c.contains(0x100));
    }

    #[test]
    fn corrupt_tag_ignores_invalid_lines_and_zero_masks() {
        let mut c = DataCache::new(l1());
        assert!(!c.corrupt_tag(0x100, 1), "empty cache: nothing to corrupt");
        c.fill(0x100, 0, &[0; 32]);
        assert!(!c.corrupt_tag(0x100, 0), "zero mask is a no-op");
        assert!(c.contains(0x100));
    }

    #[test]
    fn peek_does_not_disturb_state() {
        let mut c = DataCache::new(l1());
        c.fill(0x100, 0, &[7; 32]);
        assert_eq!(c.peek_word(0x100), Some(u32::from_le_bytes([7; 4])));
        assert_eq!(c.peek_word(0x2000), None);
    }

    #[test]
    fn lru_in_set_associative_cache() {
        let g = CacheGeometry::new(1024, 32, 2); // 16 sets, 2 ways
        let mut c = DataCache::new(g);
        let a = 0x0; // set 0
        let b = 16 * 32; // set 0, different tag
        let d = 2 * 16 * 32; // set 0, third tag
        let Lookup::Miss(w) = c.lookup(a) else {
            panic!()
        };
        c.fill(a, w, &[0; 32]);
        let Lookup::Miss(w) = c.lookup(b) else {
            panic!()
        };
        c.fill(b, w, &[0; 32]);
        // Touch `a` so `b` becomes LRU.
        let Lookup::Hit(w) = c.lookup(a) else {
            panic!()
        };
        c.read_word(a, w);
        let Lookup::Miss(w) = c.lookup(d) else {
            panic!()
        };
        c.fill(d, w, &[0; 32]);
        assert!(c.contains(a), "recently used line must survive");
        assert!(!c.contains(b), "LRU line must be evicted");
    }

    #[test]
    fn flush_empties_cache() {
        let mut c = DataCache::new(l1());
        c.fill(0x100, 0, &[0; 32]);
        c.flush();
        assert!(!c.contains(0x100));
    }

    #[test]
    fn word_parity_is_even_parity() {
        assert!(!word_parity(0));
        assert!(word_parity(1));
        assert!(!word_parity(3));
        assert!(word_parity(7));
        assert!(!word_parity(u32::MAX));
    }

    #[test]
    fn secded_coded_cache_stores_secded_signatures() {
        let mut c = DataCache::with_code(l1(), WordCode::Secded);
        assert_eq!(c.code(), WordCode::Secded);
        c.fill(0x100, 0, &[0xAB; 32]);
        let word = u32::from_le_bytes([0xAB; 4]);
        let (v, sig) = c.read_word(0x100, 0);
        assert_eq!(v, word);
        assert_eq!(sig, crate::secded::secded_encode(word));
        c.write_word(0x104, 0, 0x7, 0x7);
        let (_, sig) = c.read_word(0x104, 0);
        assert_eq!(sig, crate::secded::secded_encode(0x7));
        assert!(c.poke_word(0x108, 0xDEAD_BEEF));
        let (_, sig) = c.read_word(0x108, 0);
        assert_eq!(sig, crate::secded::secded_encode(0xDEAD_BEEF));
    }

    #[test]
    fn parity_signature_tracks_bytes() {
        assert_eq!(parity_signature(0), 0);
        assert_eq!(parity_signature(0x0000_0001), 0b0001);
        assert_eq!(parity_signature(0x0100_0000), 0b1000);
        assert_eq!(parity_signature(0x0101_0101), 0b1111);
        // Word parity is the XOR of byte parities.
        for w in [0u32, 1, 0xDEAD_BEEF, u32::MAX, 0x8000_0001] {
            assert_eq!(
                word_parity(w),
                word_parity_of_signature(parity_signature(w))
            );
        }
    }

    #[test]
    fn encode_line_matches_per_word_encode() {
        let mut data = [0u8; 32];
        for (i, b) in data.iter_mut().enumerate() {
            *b = (i as u8).wrapping_mul(37).wrapping_add(101) ^ ((i as u8) << 3);
        }
        for code in [WordCode::ParitySignature, WordCode::Secded] {
            let mut out = [0u8; 8];
            encode_line(code, &data, &mut out);
            for (w, chunk) in data.chunks_exact(4).enumerate() {
                let word = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
                assert_eq!(out[w], code.encode(word), "word {w} under {code:?}");
            }
        }
        // The 4-byte tail path (minimum line size).
        let mut out = [0u8; 1];
        encode_line(WordCode::ParitySignature, &data[..4], &mut out);
        let word = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
        assert_eq!(out[0], parity_signature(word));
    }

    #[test]
    fn suspect_flag_tracks_corrupted_stores() {
        let mut c = DataCache::new(l1());
        c.fill(0x100, 0, &[0; 32]);
        let (set, way) = c.fast_locate(0x100).expect("resident");
        assert!(!c.is_suspect(set, way));
        // A clean store keeps the line trustworthy.
        c.write_word(0x104, 0, 0x7, 0x7);
        assert!(!c.is_suspect(set, way));
        // A corrupted store (stored != intended) taints it, and the
        // recorded mismatch survives later reads.
        c.write_word(0x104, 0, 0x5, 0x7);
        assert!(c.is_suspect(set, way));
        let (v, sig) = c.read_word(0x104, 0);
        assert_eq!((v, sig), (0x5, parity_signature(0x7)));
        // A refill restores trust.
        c.fill(0x100, 0, &[0; 32]);
        assert!(!c.is_suspect(set, way));
    }

    #[test]
    fn fast_path_accessors_match_slow_accessors() {
        let mut c = DataCache::new(l1());
        assert!(c.fast_locate(0x100).is_none(), "miss before fill");
        c.fill(0x100, 0, &[0x21; 32]);
        let (set, way) = c.fast_locate(0x104).expect("hit after fill");
        assert_eq!(
            c.fast_read_commit(set, way, 0x104),
            u32::from_le_bytes([0x21; 4])
        );
        c.fast_write_commit(set, way, 0x104, 0xABCD_1234);
        let (v, sig) = c.read_word(0x104, way);
        assert_eq!(v, 0xABCD_1234);
        assert_eq!(sig, parity_signature(0xABCD_1234));
    }

    #[test]
    fn fast_write_keeps_materialized_codes_consistent() {
        let mut c = DataCache::new(l1());
        c.fill(0x100, 0, &[0; 32]);
        // Materialize codes via a checked read, then fast-write.
        let _ = c.read_word(0x100, 0);
        let (set, way) = c.fast_locate(0x108).unwrap();
        c.fast_write_commit(set, way, 0x108, 0xFEED_F00D);
        let (v, sig) = c.read_word(0x108, 0);
        assert_eq!(v, 0xFEED_F00D);
        assert_eq!(sig, parity_signature(0xFEED_F00D));
    }

    #[test]
    fn poke_range_matches_word_pokes() {
        let bytes: Vec<u8> = (0..96u32).map(|i| (i * 13 + 7) as u8).collect();
        // Two caches: one poked per word, one per range; only one of the
        // three covered lines is resident.
        let mut per_word = DataCache::new(l1());
        let mut ranged = DataCache::new(l1());
        for c in [&mut per_word, &mut ranged] {
            c.fill(0x120, 0, &[0xEE; 32]);
        }
        for (i, chunk) in bytes.chunks_exact(4).enumerate() {
            let word = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
            per_word.poke_word(0x100 + 4 * i as u32, word);
        }
        ranged.poke_range(0x100, &bytes);
        for addr in (0x120..0x140).step_by(4) {
            assert_eq!(
                per_word.peek_word(addr),
                ranged.peek_word(addr),
                "{addr:#x}"
            );
            let (a, b) = (per_word.read_word(addr, 0), ranged.read_word(addr, 0));
            assert_eq!(a, b, "{addr:#x}");
        }
    }

    #[test]
    fn tag_cache_hits_after_fill() {
        let mut t = TagCache::new(CacheGeometry::new(128 * 1024, 128, 4));
        assert!(!t.access(0x4000));
        assert!(t.access(0x4000));
        assert!(t.access(0x4010)); // same 128-byte line
    }

    #[test]
    fn tag_cache_lru_eviction() {
        let g = CacheGeometry::new(512, 64, 2); // 4 sets, 2 ways
        let mut t = TagCache::new(g);
        let stride = g.sets() * g.line_size(); // same-set stride
        assert!(!t.access(0));
        assert!(!t.access(stride));
        assert!(t.access(0)); // touch 0: stride becomes LRU
        assert!(!t.access(2 * stride)); // evicts `stride`
        assert!(t.access(0));
        assert!(!t.access(stride), "evicted line must miss");
    }

    #[test]
    fn tag_cache_flush() {
        let mut t = TagCache::new(CacheGeometry::new(128 * 1024, 128, 4));
        t.access(0x4000);
        t.flush();
        assert!(!t.access(0x4000));
    }

    #[test]
    fn try_new_names_each_violated_constraint() {
        assert_eq!(
            CacheGeometry::try_new(3000, 32, 1),
            Err(GeometryError::SizeNotPowerOfTwo { size: 3000 })
        );
        assert_eq!(
            CacheGeometry::try_new(4096, 3, 1),
            Err(GeometryError::BadLineSize { line: 3 })
        );
        assert_eq!(
            CacheGeometry::try_new(4096, 2, 1),
            Err(GeometryError::BadLineSize { line: 2 })
        );
        assert_eq!(
            CacheGeometry::try_new(4096, 32, 0),
            Err(GeometryError::ZeroAssociativity)
        );
        assert_eq!(
            CacheGeometry::try_new(64, 32, 4),
            Err(GeometryError::TooSmallForOneSet { lines: 2, assoc: 4 })
        );
        assert_eq!(
            CacheGeometry::try_new(1024, 32, 12),
            Err(GeometryError::SetsNotPowerOfTwo {
                lines: 32,
                assoc: 12
            })
        );
        // The Ok path matches the panicking constructor bit for bit.
        assert_eq!(
            CacheGeometry::try_new(4 * 1024, 32, 1).unwrap(),
            CacheGeometry::new(4 * 1024, 32, 1)
        );
    }

    #[test]
    fn disable_way_skips_victim_selection() {
        let g = CacheGeometry::new(1024, 32, 2); // 16 sets, 2 ways
        let mut c = DataCache::new(g);
        let set = g.set_of(0x0);
        assert_eq!(c.disable_way(set, 0), None, "empty slot: nothing dirty");
        assert!(c.way_disabled(set, 0));
        assert_eq!(c.disabled_ways_in_set(set), 1);
        assert!(!c.set_fully_disabled(set));
        // Fills to this set must now land in way 1 only.
        let Lookup::Miss(w) = c.lookup(0x0) else {
            panic!("expected a miss")
        };
        assert_eq!(w, 1, "victim selection must skip the disabled way");
        c.fill(0x0, w, &[0xAA; 32]);
        let stride = g.sets() * g.line_size();
        let Lookup::Miss(w) = c.lookup(stride) else {
            panic!("expected a conflict miss")
        };
        assert_eq!(w, 1, "LRU fallback must also skip the disabled way");
    }

    #[test]
    fn disable_way_salvages_dirty_data_and_is_idempotent() {
        let mut c = DataCache::new(l1());
        c.fill(0x100, 0, &[0; 32]);
        c.write_word(0x104, 0, 0xFACE, 0xFACE);
        let (base, data) = c.disable_way(c.geometry().set_of(0x100), 0).unwrap();
        assert_eq!(base, 0x100);
        assert_eq!(u32::from_le_bytes(data[4..8].try_into().unwrap()), 0xFACE);
        assert!(!c.contains(0x100), "the mapped-out slot is invalidated");
        assert_eq!(
            c.disable_way(c.geometry().set_of(0x100), 0),
            None,
            "second disable is a no-op"
        );
        assert_eq!(c.disabled_way_count(), 1);
    }

    #[test]
    fn fully_disabled_set_answers_bypass() {
        let mut c = DataCache::new(l1()); // direct-mapped: one way per set
        let set = c.geometry().set_of(0x100);
        c.disable_way(set, 0);
        assert!(c.set_fully_disabled(set));
        assert_eq!(c.lookup(0x100), Lookup::Bypass);
        assert!(!c.contains(0x100));
        assert_eq!(c.peek_word(0x100), None);
        assert!(!c.poke_word(0x100, 1));
        assert!(!c.corrupt_tag(0x100, 1));
        // Other sets are untouched.
        assert!(matches!(c.lookup(0x100 + 32), Lookup::Miss(_)));
        assert_eq!(c.disabled_map()[set as usize], 1);
    }

    #[test]
    fn disabled_ways_survive_flush() {
        let mut c = DataCache::new(l1());
        let set = c.geometry().set_of(0x100);
        c.disable_way(set, 0);
        c.flush();
        assert!(
            c.way_disabled(set, 0),
            "mapped-out hardware stays mapped out"
        );
        assert_eq!(c.lookup(0x100), Lookup::Bypass);
    }
}
