//! # portus-mem
//!
//! Simulated byte-addressable memories: [`MemorySegment`] (owned,
//! bounds-checked byte ranges), device-tagged shared [`Buffer`]s,
//! a [`GpuDevice`] that allocates HBM and performs `cudaMemcpy`-style
//! PCIe transfers, and [`HostMemory`] for node DRAM.
//!
//! The [`portus_sim::MemoryKind`] tag carried by every buffer is what
//! lets the RDMA layer apply the GPU BAR read cap (paper §V-B) exactly
//! where the real hardware would.
//!
//! # Examples
//!
//! ```
//! use portus_mem::GpuDevice;
//! use portus_sim::SimContext;
//!
//! let ctx = SimContext::icdcs24();
//! let gpu = GpuDevice::new(ctx, 0, 16 << 30);
//! let weights = gpu.alloc_with(8 << 20, |bytes| bytes.fill(0xC0))?;
//! assert_eq!(gpu.allocated(), 8 << 20);
//! assert_eq!(weights.checksum(), weights.checksum()); // deterministic
//! # Ok::<(), portus_mem::MemError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod buffer;
mod error;
mod gpu;
mod host;
mod segment;

pub use buffer::{Buffer, BufferId};
pub use error::{MemError, MemResult};
pub use gpu::GpuDevice;
pub use host::HostMemory;
pub use segment::MemorySegment;
