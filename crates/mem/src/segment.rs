//! Raw memory segments: owned, bounds-checked byte ranges.

use std::fmt;

use portus_sim::hash::fnv1a;

use crate::{MemError, MemResult};

/// A contiguous byte range with explicit bounds checking.
///
/// # Examples
///
/// ```
/// use portus_mem::MemorySegment;
///
/// let mut seg = MemorySegment::zeroed(16);
/// seg.write_at(4, &[1, 2, 3]).unwrap();
/// let mut out = [0u8; 3];
/// seg.read_at(4, &mut out).unwrap();
/// assert_eq!(out, [1, 2, 3]);
/// ```
#[derive(Clone)]
pub struct MemorySegment {
    bytes: Vec<u8>,
}

impl fmt::Debug for MemorySegment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemorySegment")
            .field("len", &self.len())
            .finish()
    }
}

impl MemorySegment {
    /// A zero-filled owned segment of `len` bytes.
    pub fn zeroed(len: u64) -> Self {
        MemorySegment::from_bytes(vec![0; len as usize])
    }

    /// An owned segment taking ownership of `bytes`.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        MemorySegment { bytes }
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.bytes.len() as u64
    }

    /// `true` when the segment holds zero bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    fn check_range(&self, offset: u64, len: u64) -> MemResult<()> {
        let size = self.len();
        let end = offset
            .checked_add(len)
            .ok_or(MemError::OutOfBounds { offset, len, size })?;
        if end > size {
            return Err(MemError::OutOfBounds { offset, len, size });
        }
        Ok(())
    }

    /// Copies `out.len()` bytes starting at `offset` into `out`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the range exceeds the segment.
    pub fn read_at(&self, offset: u64, out: &mut [u8]) -> MemResult<()> {
        self.check_range(offset, out.len() as u64)?;
        out.copy_from_slice(&self.bytes[offset as usize..offset as usize + out.len()]);
        Ok(())
    }

    /// Writes `data` starting at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the range exceeds the segment.
    pub fn write_at(&mut self, offset: u64, data: &[u8]) -> MemResult<()> {
        self.check_range(offset, data.len() as u64)?;
        self.bytes[offset as usize..offset as usize + data.len()].copy_from_slice(data);
        Ok(())
    }

    /// FNV-1a checksum over the whole content.
    pub fn checksum(&self) -> u64 {
        self.checksum_range(0, self.len())
            .expect("full range is always in bounds")
    }

    /// FNV-1a checksum over `[offset, offset+len)`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the range exceeds the segment.
    pub fn checksum_range(&self, offset: u64, len: u64) -> MemResult<u64> {
        self.check_range(offset, len)?;
        Ok(fnv1a(&self.bytes[offset as usize..(offset + len) as usize]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeroed_reads_zero() {
        let seg = MemorySegment::zeroed(8);
        let mut out = [1u8; 8];
        seg.read_at(0, &mut out).unwrap();
        assert_eq!(out, [0u8; 8]);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut seg = MemorySegment::zeroed(32);
        seg.write_at(10, b"hello").unwrap();
        let mut out = [0u8; 5];
        seg.read_at(10, &mut out).unwrap();
        assert_eq!(&out, b"hello");
    }

    #[test]
    fn out_of_bounds_is_rejected() {
        let mut seg = MemorySegment::zeroed(4);
        let mut out = [0u8; 2];
        assert!(matches!(
            seg.read_at(3, &mut out),
            Err(MemError::OutOfBounds { .. })
        ));
        assert!(seg.write_at(u64::MAX, &[0]).is_err());
    }

    /// A segment of `len` bytes of a position-dependent pattern.
    fn patterned(len: usize) -> MemorySegment {
        MemorySegment::from_bytes((0..len).map(|i| (i * 31 + 7) as u8).collect())
    }

    #[test]
    fn checksum_matches_after_copy() {
        let src = patterned(4096 + 17);
        let mut copy = vec![0u8; src.len() as usize];
        src.read_at(0, &mut copy).unwrap();
        let owned = MemorySegment::from_bytes(copy);
        assert_eq!(src.checksum(), owned.checksum());
    }

    #[test]
    fn checksum_range_differs_from_full() {
        let seg = patterned(256);
        let full = seg.checksum();
        let part = seg.checksum_range(0, 128).unwrap();
        assert_ne!(full, part);
        assert!(seg.checksum_range(250, 10).is_err());
    }

    #[test]
    fn empty_segment() {
        let seg = MemorySegment::zeroed(0);
        assert!(seg.is_empty());
        let mut out = [];
        seg.read_at(0, &mut out).unwrap();
    }
}
