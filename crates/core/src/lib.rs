//! # portus
//!
//! The core of the reproduction: **Portus**, an efficient DNN
//! checkpointing system that moves model state between GPU memory and
//! remote persistent memory with **zero copies through host DRAM, zero
//! serialization, and zero kernel crossings** (ICDCS'24).
//!
//! * [`PortusClient`] — the training-framework extension: registers
//!   every tensor's GPU memory as an RDMA region and describes the
//!   model to the server over a TCP control channel.
//! * [`PortusDaemon`] — the user-space storage server: maintains the
//!   three-level persistent index ([`Index`]: ModelTable → MIndex →
//!   TensorData) on devdax PMem, mirrored in DRAM by the [`ModelMap`]
//!   (a std B-tree), and serves checkpoints with one-sided RDMA READs and
//!   restores with one-sided WRITEs.
//! * Double-mapping crash consistency (§III-D2): two slots per model;
//!   at least one complete version always survives any crash.
//! * [`repack`] — the PMem space reclaimer.
//! * [`portusctl`] — view/dump/stats tooling over device images and
//!   metrics snapshots.
//! * Observability: every checkpoint/delta/restore records per-stage
//!   spans and latency histograms against the **virtual clock** (see
//!   [`portus_sim::Tracer`] / [`portus_sim::Metrics`]); a run exports
//!   as Chrome trace-event JSON, and [`PortusClient::stats`] queries
//!   the daemon's aggregate snapshot over the wire.
//!
//! # Examples
//!
//! The full register → train → checkpoint → crash → restore loop:
//!
//! ```
//! use portus::{DaemonConfig, PortusClient, PortusDaemon};
//! use portus_dnn::{test_spec, Materialization, ModelInstance};
//! use portus_mem::GpuDevice;
//! use portus_pmem::{PmemDevice, PmemMode};
//! use portus_rdma::{Fabric, NodeId};
//! use portus_sim::SimContext;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ctx = SimContext::icdcs24();
//! let fabric = Fabric::new(ctx.clone());
//! let compute = fabric.add_nic(NodeId(0));
//! fabric.add_nic(NodeId(1));
//!
//! // Storage node: daemon over a devdax PMem namespace.
//! let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 64 << 20);
//! let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem, DaemonConfig::default())?;
//!
//! // Compute node: a small model on the GPU.
//! let gpu = GpuDevice::new(ctx, 0, 1 << 30);
//! let spec = test_spec("toy", 4, 4096);
//! let mut model = ModelInstance::materialize(&spec, &gpu, 7, Materialization::Owned)?;
//!
//! let client = PortusClient::connect(&daemon, compute);
//! client.register_model(&model)?;
//! model.train_step();
//! let saved = model.model_checksum();
//! client.checkpoint("toy")?; // one-sided pull, GPU -> PMem
//!
//! model.train_step(); // diverge past the checkpoint ...
//! client.restore(&model)?; // ... and pull it back, PMem -> GPU
//! assert_eq!(model.model_checksum(), saved);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalog;
mod client;
mod daemon;
mod dedup;
mod error;
mod index;
pub mod portusctl;
mod proto;
pub mod qos;
mod repack;
mod replica;

pub use catalog::{Catalog, CatalogConfig, CatalogStats};
pub use client::{CheckpointReport, DeltaReport, PendingCheckpoint, PortusClient, RestoreReport};
pub use daemon::{ClientEndpoints, DaemonConfig, PortusDaemon, PULL_WQE_BYTES};
pub use dedup::DedupConfig;
pub use error::{PortusError, PortusResult, VerbFailure};
pub use index::{
    combine_digests, name_hash, region_digest, Index, MIndex, SlotHeader, SlotState, TensorRecord,
    FLAG_JOB_COMPLETE, SLOT_COUNT,
};
pub use proto::{Done, ModelSummary, Reply, Request, TensorDesc};
pub use qos::{QosConfig, TenantQos, TokenBucket};
pub use repack::{repack, RepackReport};
pub use replica::{ReplicatedCheckpoint, ReplicatedClient};

/// The in-DRAM mirror of the ModelTable (§III-D1): model name → PMem
/// offset of its MIndex record, iterated in name order. The paper uses
/// a red-black tree; the std B-tree gives the same ordered-map contract
/// with O(log n) lookups.
pub type ModelMap = std::collections::BTreeMap<String, u64>;
