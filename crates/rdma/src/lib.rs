//! # portus-rdma
//!
//! A simulated 100 Gb/s InfiniBand fabric with the pieces the Portus
//! datapath needs: per-node NICs ([`Nic`]) that register memory regions
//! ([`MemoryRegion`]) over GPU/host/PMem bytes, reliable-connected
//! [`QueuePair`]s with one-sided READ/WRITE ([`Verb`]) and two-sided
//! SEND/RECV verbs, posted work requests on a [`CompletionQueue`], and
//! the TCP-over-IPoIB [`ControlChannel`].
//!
//! Data really moves: every one-sided verb is one work-queue entry
//! that copies its scatter/gather segments byte for byte, priced by
//! the calibrated cost model and scheduled on both NICs' DMA engines
//! for the queue pair's lane. Reads whose source is GPU memory are
//! BAR-capped exactly as the paper measures (§V-B).
//!
//! # Examples
//!
//! The core Portus move — a storage node pulling a GPU tensor straight
//! into persistent memory:
//!
//! ```
//! use portus_mem::{Buffer, MemorySegment};
//! use portus_pmem::{PmemDevice, PmemMode};
//! use portus_rdma::{Access, Fabric, NodeId, QueuePair, RegionTarget};
//! use portus_sim::{MemoryKind, SimContext};
//!
//! let ctx = SimContext::icdcs24();
//! let fabric = Fabric::new(ctx.clone());
//! let compute = fabric.add_nic(NodeId(0));
//! let storage = fabric.add_nic(NodeId(1));
//!
//! // A tensor in GPU memory, registered for remote read (PeerMem).
//! let tensor = Buffer::new(MemoryKind::GpuHbm, MemorySegment::from_bytes(vec![7; 4096]));
//! let mr = compute.register(RegionTarget::Buffer(tensor.clone()), Access::READ);
//!
//! // TensorData region on the storage node's PMem.
//! let pmem = PmemDevice::new(ctx, PmemMode::DevDax, 1 << 20);
//! let dst = RegionTarget::Pmem { dev: pmem, base: 0, len: 4096 };
//!
//! let (_client_qp, server_qp) = QueuePair::connect(compute, storage);
//! // The zero-copy pull: one WQE on its own doorbell; the blocking form
//! // advances the shared clock to its completion.
//! let done = server_qp.read(mr.rkey(), 0, &dst, 0, 4096)?;
//! assert_eq!(fabric.ctx().clock.now(), done.end);
//! assert_eq!(dst.checksum()?, tensor.checksum());
//! # Ok::<(), portus_rdma::RdmaError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod control;
mod cq;
mod error;
mod fabric;
mod fault;
mod mr;
mod qp;

pub use control::ControlChannel;
pub use cq::{CompletionQueue, PostedQueuePair, WorkCompletion, WrId};
pub use error::{RdmaError, RdmaResult};
pub use fabric::{Fabric, Nic, NodeId};
pub use fault::{FaultPlan, FaultSpec};
pub use mr::{Access, MemoryRegion, RegionTarget};
pub use qp::{Completion, QueuePair, SgEntry, Verb, MAX_SGE};
