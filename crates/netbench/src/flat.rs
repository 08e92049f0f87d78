//! Functional-only memory for golden machines: architectural values on
//! a flat backing store, with no caches, fault sampler, timing or
//! energy.

use cache_sim::{BackingStore, MemConfig, MemError, MemStats};

/// The memory behind a [`Machine::golden`](crate::Machine::golden):
/// every access goes straight to a [`BackingStore`].
///
/// A fault-free run through the cache hierarchy returns exactly the
/// architectural values, so this computes the same observations at a
/// fraction of the cost. Errors are reported as the hierarchy reports
/// them, so even a misused address fails identically: misalignment is
/// checked per entry point, and a range that runs past capacity commits
/// its in-range prefix and then fails where the line refill at the first
/// out-of-range address would.
#[derive(Debug, Clone)]
pub(crate) struct FlatMemory {
    store: BackingStore,
    line_bytes: u32,
    /// What `Machine::stats` lends out: a golden run has none.
    zero: MemStats,
}

impl FlatMemory {
    /// A zeroed store with `cfg`'s capacity and L1 line size.
    pub(crate) fn new(cfg: &MemConfig) -> Self {
        FlatMemory {
            store: BackingStore::new(cfg.backing_bytes),
            line_bytes: cfg.l1.line_size(),
            zero: MemStats::default(),
        }
    }

    /// All-zero statistics.
    pub(crate) fn stats(&self) -> &MemStats {
        &self.zero
    }

    fn align(addr: u32, align: u32) -> Result<(), MemError> {
        if addr.is_multiple_of(align) {
            Ok(())
        } else {
            Err(MemError::Misaligned { addr, align })
        }
    }

    /// The error the hierarchy raises when it refills the line holding
    /// `addr` from beyond the store.
    fn refill_fault(&self, addr: u32) -> MemError {
        MemError::OutOfRange {
            addr: addr & !(self.line_bytes - 1),
            len: self.line_bytes,
        }
    }

    /// How many of `n` units of `size` bytes from `addr` lie inside the
    /// store.
    fn fitting(&self, addr: u32, n: u32, size: u32) -> u32 {
        let room = (self.store.capacity() as u64).saturating_sub(u64::from(addr)) / u64::from(size);
        room.min(u64::from(n)) as u32
    }

    /// `size` bytes at `addr`, or the refill fault when they escape.
    fn span(&self, addr: u32, size: u32) -> Result<std::ops::Range<usize>, MemError> {
        if self.fitting(addr, 1, size) == 1 {
            Ok(addr as usize..(addr + size) as usize)
        } else {
            Err(self.refill_fault(addr))
        }
    }

    pub(crate) fn read_u32(&self, addr: u32) -> Result<u32, MemError> {
        Self::align(addr, 4)?;
        let r = self.span(addr, 4)?;
        let b = &self.store.as_bytes()[r];
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    pub(crate) fn read_u16(&self, addr: u32) -> Result<u16, MemError> {
        Self::align(addr, 2)?;
        let r = self.span(addr, 2)?;
        let b = &self.store.as_bytes()[r];
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    pub(crate) fn read_u8(&self, addr: u32) -> Result<u8, MemError> {
        let r = self.span(addr, 1)?;
        Ok(self.store.as_bytes()[r.start])
    }

    pub(crate) fn write_u32(&mut self, addr: u32, value: u32) -> Result<(), MemError> {
        Self::align(addr, 4)?;
        let r = self.span(addr, 4)?;
        self.store.as_bytes_mut()[r].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    pub(crate) fn write_u16(&mut self, addr: u32, value: u16) -> Result<(), MemError> {
        Self::align(addr, 2)?;
        let r = self.span(addr, 2)?;
        self.store.as_bytes_mut()[r].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    pub(crate) fn write_u8(&mut self, addr: u32, value: u8) -> Result<(), MemError> {
        let r = self.span(addr, 1)?;
        self.store.as_bytes_mut()[r.start] = value;
        Ok(())
    }

    /// Appends the bytes `addr..addr+len` to `out`.
    pub(crate) fn read_block_u8(
        &self,
        addr: u32,
        len: u32,
        out: &mut Vec<u8>,
    ) -> Result<(), MemError> {
        let k = self.fitting(addr, len, 1);
        let a = addr as usize;
        out.extend_from_slice(&self.store.as_bytes()[a..a + k as usize]);
        if k < len {
            return Err(self.refill_fault(addr + k));
        }
        Ok(())
    }

    pub(crate) fn write_block_u8(&mut self, addr: u32, bytes: &[u8]) -> Result<(), MemError> {
        let len = bytes.len() as u32;
        let k = self.fitting(addr, len, 1);
        let a = addr as usize;
        self.store.as_bytes_mut()[a..a + k as usize].copy_from_slice(&bytes[..k as usize]);
        if k < len {
            return Err(self.refill_fault(addr + k));
        }
        Ok(())
    }

    /// Appends `n` little-endian units of `size` bytes (2 or 4) from
    /// `addr` to `out`, zero-extended.
    fn read_units(&self, addr: u32, n: u32, size: u32, out: &mut Vec<u32>) -> Result<(), MemError> {
        Self::align(addr, size)?;
        let k = self.fitting(addr, n, size);
        let a = addr as usize;
        let bytes = &self.store.as_bytes()[a..a + (k * size) as usize];
        if size == 4 {
            out.extend(
                bytes
                    .chunks_exact(4)
                    .map(|w| u32::from_le_bytes([w[0], w[1], w[2], w[3]])),
            );
        } else {
            out.extend(
                bytes
                    .chunks_exact(2)
                    .map(|h| u32::from(u16::from_le_bytes([h[0], h[1]]))),
            );
        }
        if k < n {
            return Err(self.refill_fault(addr + k * size));
        }
        Ok(())
    }

    pub(crate) fn read_block_u32(
        &self,
        addr: u32,
        n: u32,
        out: &mut Vec<u32>,
    ) -> Result<(), MemError> {
        self.read_units(addr, n, 4, out)
    }

    pub(crate) fn read_block_u16(
        &self,
        addr: u32,
        n: u32,
        out: &mut Vec<u32>,
    ) -> Result<(), MemError> {
        self.read_units(addr, n, 2, out)
    }

    pub(crate) fn write_block_u32(&mut self, addr: u32, words: &[u32]) -> Result<(), MemError> {
        Self::align(addr, 4)?;
        let n = words.len() as u32;
        let k = self.fitting(addr, n, 4);
        let a = addr as usize;
        let dst = &mut self.store.as_bytes_mut()[a..a + 4 * k as usize];
        for (d, w) in dst.chunks_exact_mut(4).zip(words) {
            d.copy_from_slice(&w.to_le_bytes());
        }
        if k < n {
            return Err(self.refill_fault(addr + 4 * k));
        }
        Ok(())
    }

    /// Packet DMA: a word-aligned block at both ends, as the hierarchy's
    /// host write requires.
    pub(crate) fn host_write_block(&mut self, addr: u32, bytes: &[u8]) -> Result<(), MemError> {
        Self::align(addr, 4)?;
        if !bytes.len().is_multiple_of(4) {
            return Err(MemError::Misaligned {
                addr: addr + bytes.len() as u32,
                align: 4,
            });
        }
        self.store.write_block(addr, bytes)
    }

    pub(crate) fn host_read_u32(&self, addr: u32) -> Result<u32, MemError> {
        self.store.read_word(addr)
    }
}
