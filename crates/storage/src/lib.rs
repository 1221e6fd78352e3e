//! # portus-storage
//!
//! The baseline storage datapaths Portus is evaluated against:
//!
//! * [`Ext4Nvme`] — local ext4 on an NVMe SSD (buffered writes, block
//!   layer, O_DIRECT + GPUDirect Storage reads);
//! * [`Beegfs`] — a distributed file system whose client ships files to
//!   the storage daemon over two-sided RPC-RDMA, reproducing the
//!   three-copy / three-kernel-crossing datapath of Fig. 3;
//! * [`TorchCheckpointer`] — the `torch.save`/`torch.load` flow over any
//!   of them, reporting the per-phase breakdown of Table I / Fig. 13.
//!
//! # Examples
//!
//! ```
//! use portus_dnn::{test_spec, Materialization, ModelInstance};
//! use portus_mem::{GpuDevice, HostMemory};
//! use portus_sim::SimContext;
//! use portus_storage::{Ext4Nvme, TorchCheckpointer};
//!
//! let ctx = SimContext::icdcs24();
//! let gpu = GpuDevice::new(ctx.clone(), 0, 1 << 30);
//! let host = HostMemory::new(ctx.clone(), 1 << 30);
//! let fs = Ext4Nvme::new(ctx.clone(), 1 << 30);
//! let saver = TorchCheckpointer::new(ctx, &fs, gpu.clone(), host);
//!
//! let spec = test_spec("toy", 4, 4096);
//! let model = ModelInstance::materialize(&spec, &gpu, 7, Materialization::Owned)?;
//! let breakdown = saver.checkpoint(&model, "toy.ckpt")?;
//! assert!(breakdown.serialize > breakdown.gpu_copy); // Table I's shape
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod beegfs;
mod checkpointer;
mod error;
mod local;

pub use backend::{FileBackend, ReadBreakdown, WriteBreakdown};
pub use beegfs::Beegfs;
pub use checkpointer::{CheckpointBreakdown, RestoreBreakdown, TorchCheckpointer};
pub use error::{StorageError, StorageResult};
pub use local::Ext4Nvme;
