//! Shared, device-tagged buffers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use portus_sim::MemoryKind;

use crate::{MemResult, MemorySegment};

static NEXT_BUFFER_ID: AtomicU64 = AtomicU64::new(1);

/// A unique identifier for a [`Buffer`] across all devices.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BufferId(pub u64);

/// A reference-counted, thread-safe buffer living in a specific kind of
/// memory (host DRAM or GPU HBM).
///
/// Buffers are the unit of RDMA memory registration: the RDMA layer holds
/// an `Arc<Buffer>` and reads/writes it on behalf of remote peers. The
/// [`MemoryKind`] tag is what lets the cost model apply the GPU BAR read
/// cap only where the real hardware would.
#[derive(Debug)]
pub struct Buffer {
    id: BufferId,
    kind: MemoryKind,
    segment: RwLock<MemorySegment>,
    len: u64,
}

impl Buffer {
    /// Wraps `segment` as a buffer of `kind` memory.
    pub fn new(kind: MemoryKind, segment: MemorySegment) -> Arc<Buffer> {
        Arc::new(Buffer {
            id: BufferId(NEXT_BUFFER_ID.fetch_add(1, Ordering::Relaxed)),
            kind,
            len: segment.len(),
            segment: RwLock::new(segment),
        })
    }

    /// The buffer's process-unique id.
    pub fn id(&self) -> BufferId {
        self.id
    }

    /// Which memory this buffer lives in.
    pub fn kind(&self) -> MemoryKind {
        self.kind
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when the buffer holds zero bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Reads `out.len()` bytes at `offset`.
    ///
    /// # Errors
    ///
    /// Propagates bounds errors from the underlying segment.
    pub fn read_at(&self, offset: u64, out: &mut [u8]) -> MemResult<()> {
        self.segment.read().read_at(offset, out)
    }

    /// Writes `data` at `offset`.
    ///
    /// # Errors
    ///
    /// Propagates bounds/writability errors from the underlying segment.
    pub fn write_at(&self, offset: u64, data: &[u8]) -> MemResult<()> {
        self.segment.write().write_at(offset, data)
    }

    /// Checksum of the full contents.
    pub fn checksum(&self) -> u64 {
        self.segment.read().checksum()
    }

    /// Checksum of a sub-range.
    ///
    /// # Errors
    ///
    /// Propagates bounds errors from the underlying segment.
    pub fn checksum_range(&self, offset: u64, len: u64) -> MemResult<u64> {
        self.segment.read().checksum_range(offset, len)
    }

    /// Copies the full contents into a fresh `Vec`. Intended for tests
    /// and small buffers.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.len as usize];
        self.read_at(0, &mut out).expect("full range in bounds");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_unique() {
        let a = Buffer::new(MemoryKind::HostDram, MemorySegment::zeroed(1));
        let b = Buffer::new(MemoryKind::HostDram, MemorySegment::zeroed(1));
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn concurrent_readers_and_writers() {
        let buf = Buffer::new(MemoryKind::HostDram, MemorySegment::zeroed(4096));
        std::thread::scope(|s| {
            for t in 0..4u8 {
                let buf = Arc::clone(&buf);
                s.spawn(move || {
                    let base = t as u64 * 1024;
                    buf.write_at(base, &[t; 1024]).unwrap();
                });
            }
        });
        for t in 0..4u8 {
            let mut out = [0u8; 1024];
            buf.read_at(t as u64 * 1024, &mut out).unwrap();
            assert!(out.iter().all(|&b| b == t));
        }
    }

    #[test]
    fn kind_is_preserved() {
        let g = Buffer::new(MemoryKind::GpuHbm, MemorySegment::zeroed(64));
        assert_eq!(g.kind(), MemoryKind::GpuHbm);
        assert_eq!(g.len(), 64);
    }
}
