//! Memory regions: the unit of RDMA registration.
//!
//! A region wraps either a device-tagged [`Buffer`] (host DRAM or GPU
//! HBM — the latter is what NVIDIA PeerMem enables on real hardware) or a
//! window of a [`PmemDevice`]. The paper's client "registers the GPU
//! address space for each tensor as an RDMA memory region"; the daemon
//! registers each `TensorData` region of PMem the same way.

use std::sync::Arc;

use portus_pmem::PmemDevice;
use portus_sim::hash::Fnv1a;
use portus_sim::MemoryKind;

use portus_mem::Buffer;

use crate::{NodeId, RdmaError, RdmaResult};

/// Access rights granted to remote peers on a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Access {
    /// Remote peers may issue one-sided READs from this region.
    pub remote_read: bool,
    /// Remote peers may issue one-sided WRITEs into this region.
    pub remote_write: bool,
}

impl Access {
    /// Read-only remote access (how Portus registers tensors for
    /// checkpointing: the daemon pulls, nobody writes).
    pub const READ: Access = Access {
        remote_read: true,
        remote_write: false,
    };
    /// Write-only remote access (how tensors are registered for
    /// restore: the daemon pushes).
    pub const WRITE: Access = Access {
        remote_read: false,
        remote_write: true,
    };
    /// Full remote access.
    pub const READ_WRITE: Access = Access {
        remote_read: true,
        remote_write: true,
    };
}

/// What a region's bytes live in.
#[derive(Debug, Clone)]
pub enum RegionTarget {
    /// A host-DRAM or GPU buffer.
    Buffer(Arc<Buffer>),
    /// A window `[base, base+len)` of a persistent-memory namespace.
    Pmem {
        /// The namespace.
        dev: Arc<PmemDevice>,
        /// Window start on the device.
        base: u64,
        /// Window length.
        len: u64,
    },
}

impl RegionTarget {
    /// Window length in bytes.
    pub fn len(&self) -> u64 {
        match self {
            RegionTarget::Buffer(b) => b.len(),
            RegionTarget::Pmem { len, .. } => *len,
        }
    }

    /// `true` for zero-length targets.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The memory kind, which drives the cost model (GPU reads are
    /// BAR-capped).
    pub fn kind(&self) -> MemoryKind {
        match self {
            RegionTarget::Buffer(b) => b.kind(),
            RegionTarget::Pmem { .. } => MemoryKind::Pmem,
        }
    }

    /// Reads `out.len()` bytes at `offset` within the window.
    ///
    /// # Errors
    ///
    /// Bounds errors from the backing memory.
    pub fn read_at(&self, offset: u64, out: &mut [u8]) -> RdmaResult<()> {
        match self {
            RegionTarget::Buffer(b) => b.read_at(offset, out).map_err(Into::into),
            RegionTarget::Pmem { dev, base, len } => {
                check_window(offset, out.len() as u64, *len)?;
                dev.read(base + offset, out).map_err(Into::into)
            }
        }
    }

    /// Writes `data` at `offset` within the window. PMem writes are
    /// volatile until the owner persists them (RDMA lands in the DDIO
    /// cache; the Portus daemon flushes after the transfer, following
    /// Wei et al.'s guidance).
    ///
    /// # Errors
    ///
    /// Bounds/writability errors from the backing memory.
    pub fn write_at(&self, offset: u64, data: &[u8]) -> RdmaResult<()> {
        match self {
            RegionTarget::Buffer(b) => b.write_at(offset, data).map_err(Into::into),
            RegionTarget::Pmem { dev, base, len } => {
                check_window(offset, data.len() as u64, *len)?;
                dev.write(base + offset, data).map_err(Into::into)
            }
        }
    }

    /// Checksum of the full window (for end-to-end verification).
    pub fn checksum(&self) -> RdmaResult<u64> {
        match self {
            RegionTarget::Buffer(b) => Ok(b.checksum()),
            RegionTarget::Pmem { dev, base, len } => {
                let mut hash = Fnv1a::new();
                let mut buf = [0u8; 4096];
                let mut pos = 0u64;
                while pos < *len {
                    let chunk = ((*len - pos) as usize).min(buf.len());
                    dev.read(base + pos, &mut buf[..chunk])?;
                    hash.update(&buf[..chunk]);
                    pos += chunk as u64;
                }
                Ok(hash.finish())
            }
        }
    }
}

/// Checks that `len` bytes at `offset` fit in a `window`-byte region.
pub(crate) fn check_window(offset: u64, len: u64, window: u64) -> RdmaResult<()> {
    let end = offset.checked_add(len).ok_or(RdmaError::OutOfBounds {
        offset,
        len,
        region_len: window,
    })?;
    if end > window {
        return Err(RdmaError::OutOfBounds {
            offset,
            len,
            region_len: window,
        });
    }
    Ok(())
}

/// A registered memory region with its remote key.
#[derive(Debug, Clone)]
pub struct MemoryRegion {
    pub(crate) rkey: u64,
    pub(crate) node: NodeId,
    pub(crate) access: Access,
    pub(crate) target: RegionTarget,
}

impl MemoryRegion {
    /// The remote key peers use to address this region.
    pub fn rkey(&self) -> u64 {
        self.rkey
    }

    /// The node whose NIC registered the region.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Granted remote access.
    pub fn access(&self) -> Access {
        self.access
    }

    /// Region length in bytes.
    pub fn len(&self) -> u64 {
        self.target.len()
    }

    /// `true` for zero-length regions.
    pub fn is_empty(&self) -> bool {
        self.target.is_empty()
    }

    /// The memory kind of the backing bytes.
    pub fn kind(&self) -> MemoryKind {
        self.target.kind()
    }

    /// The backing target (local access).
    pub fn target(&self) -> &RegionTarget {
        &self.target
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portus_mem::MemorySegment;
    use portus_pmem::PmemMode;
    use portus_sim::SimContext;

    #[test]
    fn pmem_window_is_bounded() {
        let dev = PmemDevice::new(SimContext::icdcs24(), PmemMode::DevDax, 1 << 16);
        let t = RegionTarget::Pmem {
            dev,
            base: 1024,
            len: 256,
        };
        assert_eq!(t.len(), 256);
        assert_eq!(t.kind(), MemoryKind::Pmem);
        let mut out = [0u8; 16];
        t.read_at(240, &mut out).unwrap();
        assert!(matches!(
            t.read_at(250, &mut out),
            Err(RdmaError::OutOfBounds { .. })
        ));
    }

    #[test]
    fn pmem_window_offsets_are_relative() {
        let dev = PmemDevice::new(SimContext::icdcs24(), PmemMode::DevDax, 1 << 16);
        let t = RegionTarget::Pmem {
            dev: dev.clone(),
            base: 4096,
            len: 64,
        };
        t.write_at(0, b"hello").unwrap();
        let mut out = [0u8; 5];
        dev.read(4096, &mut out).unwrap();
        assert_eq!(&out, b"hello");
    }

    #[test]
    fn buffer_target_checksum_matches_buffer() {
        let buf = Buffer::new(
            MemoryKind::GpuHbm,
            MemorySegment::from_bytes((0..1000).map(|i| i as u8).collect()),
        );
        let t = RegionTarget::Buffer(buf.clone());
        assert_eq!(t.checksum().unwrap(), buf.checksum());
    }
}
