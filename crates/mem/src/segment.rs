//! Raw memory segments with owned or synthetic backing.

use std::fmt;

use portus_sim::hash::{splitmix64, Fnv1a};

use crate::{MemError, MemResult};

/// Deterministic pseudo-random content generator (splitmix64 over 8-byte
/// blocks). Used by [`Backing::Synthetic`] so multi-gigabyte "tensors" can
/// be read byte-for-byte without being stored.
fn synthetic_block(seed: u64, block_index: u64) -> [u8; 8] {
    splitmix64(seed ^ block_index.wrapping_mul(0x9E37_79B9_7F4A_7C15)).to_le_bytes()
}

/// How a [`MemorySegment`] stores its bytes.
#[derive(Clone)]
pub enum Backing {
    /// Bytes held in host memory. Fully readable and writable.
    Owned(Vec<u8>),
    /// Deterministic generated content (read-only). A segment of any
    /// length costs O(1) memory; byte `i` is a pure function of
    /// `(seed, i)`. Used to stand in for huge model tensors.
    Synthetic {
        /// Content seed; two segments with the same seed have identical
        /// bytes.
        seed: u64,
    },
}

impl fmt::Debug for Backing {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Backing::Owned(v) => f.debug_tuple("Owned").field(&v.len()).finish(),
            Backing::Synthetic { seed } => f.debug_struct("Synthetic").field("seed", seed).finish(),
        }
    }
}

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
#[derive(Debug, Clone)]
pub struct MemorySegment {
    len: u64,
    backing: Backing,
}

impl MemorySegment {
    /// A zero-filled owned segment of `len` bytes.
    pub fn zeroed(len: u64) -> Self {
        MemorySegment {
            len,
            backing: Backing::Owned(vec![0; len as usize]),
        }
    }

    /// An owned segment taking ownership of `bytes`.
    pub fn from_bytes(bytes: Vec<u8>) -> Self {
        MemorySegment {
            len: bytes.len() as u64,
            backing: Backing::Owned(bytes),
        }
    }

    /// A synthetic (generated, read-only) segment of `len` bytes seeded
    /// with `seed`.
    pub fn synthetic(len: u64, seed: u64) -> Self {
        MemorySegment {
            len,
            backing: Backing::Synthetic { seed },
        }
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when the segment holds zero bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` when writes are allowed (owned backing).
    pub fn is_writable(&self) -> bool {
        matches!(self.backing, Backing::Owned(_))
    }

    fn check_range(&self, offset: u64, len: u64) -> MemResult<()> {
        let end = offset.checked_add(len).ok_or(MemError::OutOfBounds {
            offset,
            len,
            size: self.len,
        })?;
        if end > self.len {
            return Err(MemError::OutOfBounds {
                offset,
                len,
                size: self.len,
            });
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
        match &self.backing {
            Backing::Owned(v) => {
                out.copy_from_slice(&v[offset as usize..offset as usize + out.len()]);
            }
            Backing::Synthetic { seed } => {
                // One block per 8 bytes; only the first may start mid-block.
                let mut abs = offset;
                let mut rest = out;
                while !rest.is_empty() {
                    let skip = (abs % 8) as usize;
                    let n = (8 - skip).min(rest.len());
                    let (head, tail) = rest.split_at_mut(n);
                    head.copy_from_slice(&synthetic_block(*seed, abs / 8)[skip..skip + n]);
                    rest = tail;
                    abs += n as u64;
                }
            }
        }
        Ok(())
    }

    /// Writes `data` starting at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the range exceeds the segment
    /// and [`MemError::NotWritable`] for synthetic backings.
    pub fn write_at(&mut self, offset: u64, data: &[u8]) -> MemResult<()> {
        self.check_range(offset, data.len() as u64)?;
        match &mut self.backing {
            Backing::Owned(v) => {
                v[offset as usize..offset as usize + data.len()].copy_from_slice(data);
                Ok(())
            }
            Backing::Synthetic { .. } => Err(MemError::NotWritable),
        }
    }

    /// FNV-1a checksum over the whole content (synthetic content is
    /// generated on the fly). Streaming, so it works for any length.
    pub fn checksum(&self) -> u64 {
        self.checksum_range(0, self.len)
            .expect("full range is always in bounds")
    }

    /// FNV-1a checksum over `[offset, offset+len)`.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::OutOfBounds`] if the range exceeds the segment.
    pub fn checksum_range(&self, offset: u64, len: u64) -> MemResult<u64> {
        self.check_range(offset, len)?;
        let mut hash = Fnv1a::new();
        let mut buf = [0u8; 4096];
        let mut pos = offset;
        let end = offset + len;
        while pos < end {
            let chunk = ((end - pos) as usize).min(buf.len());
            self.read_at(pos, &mut buf[..chunk])?;
            hash.update(&buf[..chunk]);
            pos += chunk as u64;
        }
        Ok(hash.finish())
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

    #[test]
    fn synthetic_is_deterministic_and_offset_stable() {
        let seg = MemorySegment::synthetic(1024, 42);
        let mut all = vec![0u8; 1024];
        seg.read_at(0, &mut all).unwrap();
        // Reading a sub-range must see the same bytes as the full read.
        let mut part = vec![0u8; 100];
        seg.read_at(333, &mut part).unwrap();
        assert_eq!(&part[..], &all[333..433]);
        // Same seed, same content.
        let seg2 = MemorySegment::synthetic(1024, 42);
        assert_eq!(seg.checksum(), seg2.checksum());
        // Different seed, different content.
        let seg3 = MemorySegment::synthetic(1024, 43);
        assert_ne!(seg.checksum(), seg3.checksum());
    }

    #[test]
    fn synthetic_reads_match_a_per_byte_reference_at_any_alignment() {
        let byte = |seed: u64, abs: u64| {
            splitmix64(seed ^ (abs / 8).wrapping_mul(0x9E37_79B9_7F4A_7C15)).to_le_bytes()
                [(abs % 8) as usize]
        };
        for seed in [0, 42, u64::MAX] {
            let seg = MemorySegment::synthetic(3 * 4096, seed);
            for offset in [0u64, 1, 3, 7, 8, 9, 4093] {
                for len in [0usize, 1, 7, 8, 9, 4095, 4097] {
                    let mut out = vec![0u8; len];
                    seg.read_at(offset, &mut out).unwrap();
                    let expect: Vec<u8> = (offset..offset + len as u64)
                        .map(|a| byte(seed, a))
                        .collect();
                    assert_eq!(out, expect, "seed {seed} offset {offset} len {len}");
                }
            }
        }
    }

    #[test]
    fn synthetic_rejects_writes() {
        let mut seg = MemorySegment::synthetic(16, 7);
        assert!(matches!(seg.write_at(0, &[1]), Err(MemError::NotWritable)));
        assert!(!seg.is_writable());
    }

    #[test]
    fn checksum_matches_after_copy() {
        let src = MemorySegment::synthetic(4096 + 17, 99);
        let mut copy = vec![0u8; src.len() as usize];
        src.read_at(0, &mut copy).unwrap();
        let owned = MemorySegment::from_bytes(copy);
        assert_eq!(src.checksum(), owned.checksum());
    }

    #[test]
    fn checksum_range_differs_from_full() {
        let seg = MemorySegment::synthetic(256, 5);
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
