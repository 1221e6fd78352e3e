//! Simulated GPU device memory.
//!
//! A [`GpuDevice`] stands in for one V100/A40: it hands out HBM buffers,
//! performs `cudaMemcpy`-style transfers to/from host memory (charging
//! PCIe time on the shared virtual clock), and tracks allocation totals.
//! The BAR read cap itself is applied by the RDMA layer via the
//! [`portus_sim::MemoryKind::GpuHbm`] tag on the buffers.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use portus_sim::{MemoryKind, SimContext, SimDuration};

use crate::{Buffer, MemError, MemResult, MemorySegment};

/// One simulated GPU.
///
/// # Examples
///
/// ```
/// use portus_mem::GpuDevice;
/// use portus_sim::SimContext;
///
/// let ctx = SimContext::icdcs24();
/// let gpu = GpuDevice::new(ctx.clone(), 0, 16 << 30);
/// let buf = gpu.alloc(1 << 20)?;
/// assert_eq!(buf.len(), 1 << 20);
/// # Ok::<(), portus_mem::MemError>(())
/// ```
#[derive(Debug)]
pub struct GpuDevice {
    ctx: SimContext,
    index: u32,
    capacity: u64,
    allocated: AtomicU64,
}

impl GpuDevice {
    /// Creates GPU `index` with `capacity` bytes of HBM.
    pub fn new(ctx: SimContext, index: u32, capacity: u64) -> Arc<GpuDevice> {
        Arc::new(GpuDevice {
            ctx,
            index,
            capacity,
            allocated: AtomicU64::new(0),
        })
    }

    /// The device index (as in `cuda:0`).
    pub fn index(&self) -> u32 {
        self.index
    }

    /// Total HBM capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated.
    pub fn allocated(&self) -> u64 {
        self.allocated.load(Ordering::Relaxed)
    }

    fn reserve(&self, len: u64) -> MemResult<()> {
        let mut cur = self.allocated.load(Ordering::Relaxed);
        loop {
            let next = cur.checked_add(len).ok_or(MemError::DeviceFull {
                requested: len,
                free: 0,
            })?;
            if next > self.capacity {
                return Err(MemError::DeviceFull {
                    requested: len,
                    free: self.capacity - cur,
                });
            }
            match self.allocated.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(actual) => cur = actual,
            }
        }
    }

    /// Allocates a zero-filled device buffer.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::DeviceFull`] when HBM is exhausted.
    pub fn alloc(&self, len: u64) -> MemResult<Arc<Buffer>> {
        self.alloc_with(len, |_| {})
    }

    /// Allocates a device buffer of `len` bytes and lets `fill` write its
    /// contents in place, before the buffer is shared. HBM is reserved
    /// first, so a buffer that does not fit generates nothing.
    ///
    /// # Errors
    ///
    /// Returns [`MemError::DeviceFull`] when HBM is exhausted.
    pub fn alloc_with(&self, len: u64, fill: impl FnOnce(&mut [u8])) -> MemResult<Arc<Buffer>> {
        self.reserve(len)?;
        // Fresh zeroed pages come from the allocator; `fill` is the only
        // pass over the bytes.
        let mut bytes = vec![0; len as usize];
        fill(&mut bytes);
        Ok(Buffer::new(
            MemoryKind::GpuHbm,
            MemorySegment::from_bytes(bytes),
        ))
    }

    /// Releases accounting for a buffer allocated on this device.
    /// (The buffer's bytes free when the last `Arc` drops.)
    pub fn free(&self, buf: &Buffer) {
        debug_assert_eq!(buf.kind(), MemoryKind::GpuHbm);
        self.allocated.fetch_sub(buf.len(), Ordering::Relaxed);
    }

    /// `cudaMemcpy` device→host: copies `len` bytes and charges PCIe
    /// time. Returns the virtual duration charged.
    ///
    /// # Errors
    ///
    /// Returns bounds errors if either range is out of bounds, and
    /// [`MemError::WrongDevice`] if `src`/`dst` kinds are wrong.
    pub fn memcpy_d2h(
        &self,
        src: &Buffer,
        src_off: u64,
        dst: &Buffer,
        dst_off: u64,
        len: u64,
    ) -> MemResult<SimDuration> {
        if src.kind() != MemoryKind::GpuHbm || dst.kind() != MemoryKind::HostDram {
            return Err(MemError::WrongDevice);
        }
        copy_between(src, src_off, dst, dst_off, len)?;
        let d = self.ctx.model.cuda_memcpy_d2h(len);
        self.ctx.charge(d);
        self.ctx.stats.record_copy(len);
        Ok(d)
    }

    /// `cudaMemcpy` host→device: copies `len` bytes and charges PCIe
    /// time. Returns the virtual duration charged.
    ///
    /// # Errors
    ///
    /// Same as [`GpuDevice::memcpy_d2h`], with kinds reversed.
    pub fn memcpy_h2d(
        &self,
        src: &Buffer,
        src_off: u64,
        dst: &Buffer,
        dst_off: u64,
        len: u64,
    ) -> MemResult<SimDuration> {
        if src.kind() != MemoryKind::HostDram || dst.kind() != MemoryKind::GpuHbm {
            return Err(MemError::WrongDevice);
        }
        copy_between(src, src_off, dst, dst_off, len)?;
        let d = self.ctx.model.cuda_memcpy_h2d(len);
        self.ctx.charge(d);
        self.ctx.stats.record_copy(len);
        Ok(d)
    }
}

/// Chunked byte copy between two buffers.
pub(crate) fn copy_between(
    src: &Buffer,
    src_off: u64,
    dst: &Buffer,
    dst_off: u64,
    len: u64,
) -> MemResult<()> {
    let mut buf = [0u8; 64 * 1024];
    let mut done = 0u64;
    while done < len {
        let chunk = ((len - done) as usize).min(buf.len());
        src.read_at(src_off + done, &mut buf[..chunk])?;
        dst.write_at(dst_off + done, &buf[..chunk])?;
        done += chunk as u64;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gpu_and_ctx() -> (SimContext, Arc<GpuDevice>) {
        let ctx = SimContext::icdcs24();
        let gpu = GpuDevice::new(ctx.clone(), 0, 1 << 30);
        (ctx, gpu)
    }

    #[test]
    fn alloc_tracks_capacity() {
        let (_ctx, gpu) = gpu_and_ctx();
        let b = gpu.alloc(1 << 20).unwrap();
        assert_eq!(gpu.allocated(), 1 << 20);
        gpu.free(&b);
        assert_eq!(gpu.allocated(), 0);
    }

    #[test]
    fn alloc_with_fills_in_place_and_reserves_first() {
        let (_ctx, gpu) = gpu_and_ctx();
        let b = gpu
            .alloc_with(5, |bytes| bytes.copy_from_slice(b"bytes"))
            .unwrap();
        assert_eq!(b.to_vec(), b"bytes");
        assert_eq!(b.kind(), MemoryKind::GpuHbm);
        assert_eq!(gpu.allocated(), 5);
        let err = gpu
            .alloc_with(2 << 30, |_| {
                panic!("a buffer that does not fit is never filled")
            })
            .unwrap_err();
        assert!(matches!(err, MemError::DeviceFull { .. }));
        assert_eq!(gpu.allocated(), 5);
    }

    #[test]
    fn alloc_beyond_capacity_fails() {
        let (_ctx, gpu) = gpu_and_ctx();
        let err = gpu.alloc(2 << 30).unwrap_err();
        assert!(matches!(err, MemError::DeviceFull { .. }));
    }

    #[test]
    fn d2h_moves_bytes_and_charges_time() {
        let (ctx, gpu) = gpu_and_ctx();
        let dev = gpu
            .alloc_with(1 << 20, |bytes| {
                bytes.iter_mut().enumerate().for_each(|(i, b)| *b = i as u8)
            })
            .unwrap();
        let host = Buffer::new(MemoryKind::HostDram, MemorySegment::zeroed(1 << 20));
        let before = ctx.clock.now();
        gpu.memcpy_d2h(&dev, 0, &host, 0, 1 << 20).unwrap();
        assert!(ctx.clock.now() > before, "must charge PCIe time");
        assert_eq!(dev.checksum(), host.checksum());
        assert_eq!(ctx.stats.snapshot().data_copies, 1);
    }

    #[test]
    fn h2d_rejects_wrong_kinds() {
        let (_ctx, gpu) = gpu_and_ctx();
        let dev = gpu.alloc(64).unwrap();
        let dev2 = gpu.alloc(64).unwrap();
        assert!(matches!(
            gpu.memcpy_h2d(&dev, 0, &dev2, 0, 64),
            Err(MemError::WrongDevice)
        ));
    }
}
