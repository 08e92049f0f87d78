//! Flat backing store holding architectural ground truth.

use crate::error::MemError;

/// The memory behind the cache hierarchy.
///
/// Functionally this combines the level-2 cache's data array and main
/// memory: the paper assumes the L2 is correct "unless an incorrect
/// value from level-1 is written to it", so the L2 needs no data copy
/// of its own that could diverge — only its tag array matters for
/// timing (see [`TagCache`](crate::TagCache)). That assumption is now
/// *configurable* rather than baked in: the opt-in
/// [`FaultTargets::l2`](crate::FaultTargets) process corrupts words in
/// flight between this store and the L1 (refills, strike refetches and
/// writebacks) at the per-bit probability of the L2's own clock
/// ([`MemConfig::l2_cycle`](crate::MemConfig)). The store itself stays
/// the holder of whatever the hierarchy last deposited — a corrupted
/// writeback *is* the new architectural "truth", which is exactly how
/// recovery comes to refetch bad data.
///
/// # Examples
///
/// ```
/// use cache_sim::BackingStore;
///
/// let mut mem = BackingStore::new(1024);
/// mem.write_word(0x10, 0x1234_5678).unwrap();
/// assert_eq!(mem.read_word(0x10).unwrap(), 0x1234_5678);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackingStore {
    bytes: Vec<u8>,
}

impl BackingStore {
    /// Creates a zero-filled store of `capacity` bytes (rounded up to a
    /// multiple of 4).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "backing store capacity must be non-zero");
        let capacity = capacity.div_ceil(4) * 4;
        BackingStore {
            bytes: vec![0; capacity],
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.bytes.len()
    }

    /// The whole store as bytes, for callers that move architectural
    /// data in bulk (a functional-only machine copying blocks).
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Mutable twin of [`BackingStore::as_bytes`].
    pub fn as_bytes_mut(&mut self) -> &mut [u8] {
        &mut self.bytes
    }

    fn check(&self, addr: u32, len: u32) -> Result<usize, MemError> {
        let end = addr as u64 + len as u64;
        if end > self.bytes.len() as u64 {
            Err(MemError::OutOfRange { addr, len })
        } else {
            Ok(addr as usize)
        }
    }

    /// Reads the aligned 32-bit word at `addr` (little-endian).
    ///
    /// # Errors
    ///
    /// Returns [`MemError::Misaligned`] if `addr` is not 4-byte aligned
    /// and [`MemError::OutOfRange`] if it is beyond capacity.
    pub fn read_word(&self, addr: u32) -> Result<u32, MemError> {
        if !addr.is_multiple_of(4) {
            return Err(MemError::Misaligned { addr, align: 4 });
        }
        let i = self.check(addr, 4)?;
        Ok(u32::from_le_bytes([
            self.bytes[i],
            self.bytes[i + 1],
            self.bytes[i + 2],
            self.bytes[i + 3],
        ]))
    }

    /// Writes the aligned 32-bit word at `addr` (little-endian).
    ///
    /// # Errors
    ///
    /// Same conditions as [`BackingStore::read_word`].
    pub fn write_word(&mut self, addr: u32, value: u32) -> Result<(), MemError> {
        if !addr.is_multiple_of(4) {
            return Err(MemError::Misaligned { addr, align: 4 });
        }
        let i = self.check(addr, 4)?;
        self.bytes[i..i + 4].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    /// Copies `dst.len()` bytes starting at `addr` into `dst`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the range exceeds capacity.
    pub fn read_block(&self, addr: u32, dst: &mut [u8]) -> Result<(), MemError> {
        let i = self.check(addr, dst.len() as u32)?;
        dst.copy_from_slice(&self.bytes[i..i + dst.len()]);
        Ok(())
    }

    /// Writes `src` starting at `addr`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfRange`] if the range exceeds capacity.
    pub fn write_block(&mut self, addr: u32, src: &[u8]) -> Result<(), MemError> {
        let i = self.check(addr, src.len() as u32)?;
        self.bytes[i..i + src.len()].copy_from_slice(src);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_rounds_up_to_word() {
        assert_eq!(BackingStore::new(5).capacity(), 8);
        assert_eq!(BackingStore::new(8).capacity(), 8);
    }

    #[test]
    fn word_round_trip() {
        let mut m = BackingStore::new(64);
        m.write_word(0, u32::MAX).unwrap();
        m.write_word(60, 7).unwrap();
        assert_eq!(m.read_word(0).unwrap(), u32::MAX);
        assert_eq!(m.read_word(60).unwrap(), 7);
    }

    #[test]
    fn words_are_little_endian() {
        let mut m = BackingStore::new(8);
        m.write_word(0, 0x0102_0304).unwrap();
        let mut b = [0u8; 4];
        m.read_block(0, &mut b).unwrap();
        assert_eq!(b, [4, 3, 2, 1]);
    }

    #[test]
    fn out_of_range_is_reported() {
        let m = BackingStore::new(16);
        assert_eq!(
            m.read_word(16),
            Err(MemError::OutOfRange { addr: 16, len: 4 })
        );
        // Near-overflow addresses must not wrap.
        assert!(m.read_word(u32::MAX - 3).is_err());
    }

    #[test]
    fn misaligned_is_reported() {
        let mut m = BackingStore::new(16);
        assert_eq!(
            m.read_word(2),
            Err(MemError::Misaligned { addr: 2, align: 4 })
        );
        assert!(m.write_word(1, 0).is_err());
    }

    #[test]
    fn block_round_trip() {
        let mut m = BackingStore::new(64);
        m.write_block(8, &[1, 2, 3, 4, 5]).unwrap();
        let mut out = [0u8; 5];
        m.read_block(8, &mut out).unwrap();
        assert_eq!(out, [1, 2, 3, 4, 5]);
    }

    #[test]
    fn fresh_store_is_zeroed() {
        let m = BackingStore::new(32);
        for a in (0..32).step_by(4) {
            assert_eq!(m.read_word(a).unwrap(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_rejected() {
        BackingStore::new(0);
    }
}
