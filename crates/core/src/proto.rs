//! The client↔daemon control protocol.
//!
//! Carried over the TCP-over-IPoIB [`portus_rdma::ControlChannel`]. The
//! registration packet "aggregates [remote keys] with the metadata of
//! layers one-to-one correspondingly ... to describe a DNN model"
//! (§III-B); checkpointing is triggered by the literal `DO_CHECKPOINT`
//! message of §III-C, represented here as [`Request::Checkpoint`] with
//! `dirty: None`. An incremental checkpoint is the same request with a
//! dirty mask: a full checkpoint is a delta with every tensor dirty.

use portus_dnn::{DType, GpuTensor, TensorMeta};
use portus_rdma::MemoryRegion;
use portus_sim::{MetricsSnapshot, SimDuration, TraceOp};

/// One tensor's registration: its metadata plus the remote key of the
/// GPU memory region holding it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorDesc {
    /// Layer/tensor name.
    pub name: String,
    /// Element type.
    pub dtype: DType,
    /// Dimension sizes.
    pub shape: Vec<u64>,
    /// Remote key of the registered GPU region.
    pub rkey: u64,
}

impl TensorDesc {
    /// Builds a descriptor from a GPU tensor and its registration.
    pub fn from_registration(tensor: &GpuTensor, mr: &MemoryRegion) -> TensorDesc {
        TensorDesc {
            name: tensor.meta.name.clone(),
            dtype: tensor.meta.dtype,
            shape: tensor.meta.shape.clone(),
            rkey: mr.rkey(),
        }
    }

    /// The tensor metadata carried by this descriptor.
    pub fn meta(&self) -> TensorMeta {
        TensorMeta::new(self.name.clone(), self.dtype, self.shape.clone())
    }

    /// Payload size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.meta().size_bytes()
    }
}

/// Client → daemon messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Describe a model (or model shard) and its registered GPU regions.
    Register {
        /// Request id for reply matching.
        req_id: u64,
        /// Model (shard) name — the ModelTable key.
        model: String,
        /// Per-tensor metadata + rkeys, in layer order.
        tensors: Vec<TensorDesc>,
    },
    /// `DO_CHECKPOINT`: pull the model's tensors into PMem. With a
    /// dirty mask only the flagged tensors are pulled and the rest are
    /// carried over from the previous complete version with a
    /// device-local copy (a Check-N-Run-style extension; see DESIGN.md).
    Checkpoint {
        /// Request id for reply matching.
        req_id: u64,
        /// Model to checkpoint.
        model: String,
        /// One flag per tensor, in layer order: `true` = changed since
        /// the last checkpoint. `None` pulls every tensor.
        dirty: Option<Vec<bool>>,
    },
    /// Push a complete checkpoint back into freshly registered GPU
    /// regions.
    Restore {
        /// Request id for reply matching.
        req_id: u64,
        /// Model to restore.
        model: String,
        /// Write-registered GPU regions, in layer order.
        tensors: Vec<TensorDesc>,
        /// Which Done version to serve (`None` = latest). Replicated
        /// restores pin the version so every shard/replica settles on
        /// the same checkpoint.
        version: Option<u64>,
    },
    /// Mark the training job complete (both checkpoint versions beyond
    /// the latest become reclaimable by the repacker).
    MarkComplete {
        /// Request id for reply matching.
        req_id: u64,
        /// The finished model.
        model: String,
    },
    /// Remove the model and free its PMem.
    Drop {
        /// Request id for reply matching.
        req_id: u64,
        /// Model to drop.
        model: String,
    },
    /// List models stored on the daemon's PMem.
    List {
        /// Request id for reply matching.
        req_id: u64,
    },
    /// Dump the daemon's observability snapshot: stage-latency
    /// histograms and dispatch-queue gauges.
    Stats {
        /// Request id for reply matching.
        req_id: u64,
    },
    /// Close this connection.
    Disconnect,
}

impl Request {
    /// The request id carried by this request (`None` for
    /// [`Request::Disconnect`], which has no reply).
    pub fn req_id(&self) -> Option<u64> {
        match self {
            Request::Register { req_id, .. }
            | Request::Checkpoint { req_id, .. }
            | Request::Restore { req_id, .. }
            | Request::MarkComplete { req_id, .. }
            | Request::Drop { req_id, .. }
            | Request::List { req_id }
            | Request::Stats { req_id } => Some(*req_id),
            Request::Disconnect => None,
        }
    }
}

/// The trace op of a [`Request::Checkpoint`]: a dirty mask makes it a
/// delta.
pub(crate) fn checkpoint_op(dirty: Option<&[bool]>) -> TraceOp {
    if dirty.is_some() {
        TraceOp::DeltaCheckpoint
    } else {
        TraceOp::Checkpoint
    }
}

/// A model as reported by [`Request::List`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelSummary {
    /// Model (shard) name.
    pub name: String,
    /// Number of tensors.
    pub layers: u32,
    /// Checkpoint payload bytes (one version).
    pub bytes: u64,
    /// Latest complete version, if any.
    pub latest_version: Option<u64>,
    /// Number of complete versions currently on PMem (0–2).
    pub valid_versions: u8,
    /// Every Done version currently on PMem, ascending (what a
    /// version-pinned [`Request::Restore`] may ask for).
    pub done_versions: Vec<u64>,
    /// Whether the training job was marked complete.
    pub complete: bool,
}

/// Daemon → client messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    /// Registration accepted.
    Registered {
        /// Echoed request id.
        req_id: u64,
        /// Number of on-PMem checkpoint slots (the double mapping: 2).
        slots: u8,
    },
    /// A checkpoint version is complete and durable.
    CheckpointDone {
        /// Echoed request id.
        req_id: u64,
        /// The new version number.
        version: u64,
        /// Bytes pulled over the fabric (every tensor without a mask).
        pulled_bytes: u64,
        /// Clean bytes left in place: the target slot already held them.
        reused_bytes: u64,
        /// Daemon-side virtual time for the operation.
        elapsed: SimDuration,
    },
    /// The model has been written back to GPU memory.
    RestoreDone {
        /// Echoed request id.
        req_id: u64,
        /// The version that was restored.
        version: u64,
        /// Payload bytes pushed.
        bytes: u64,
        /// Daemon-side virtual time for the operation.
        elapsed: SimDuration,
    },
    /// MarkComplete acknowledged.
    Completed {
        /// Echoed request id.
        req_id: u64,
    },
    /// Drop acknowledged.
    Dropped {
        /// Echoed request id.
        req_id: u64,
    },
    /// Listing result.
    Models {
        /// Echoed request id.
        req_id: u64,
        /// Stored models.
        models: Vec<ModelSummary>,
    },
    /// Observability snapshot: per-stage latency histograms plus the
    /// dispatch-queue gauges, all keyed to the virtual clock.
    Stats {
        /// Echoed request id.
        req_id: u64,
        /// The daemon's metrics at the time of the request (boxed: the
        /// snapshot dwarfs every other reply variant).
        metrics: Box<MetricsSnapshot>,
    },
    /// The request failed; human-readable reason.
    Error {
        /// Echoed request id.
        req_id: u64,
        /// What went wrong.
        message: String,
    },
    /// The request failed on the datapath: one or more WQEs exhausted
    /// their retries. Structured so the client can surface per-tensor
    /// attribution ([`crate::PortusError::DatapathFailed`]); the daemon
    /// has already rolled the target slot back.
    DatapathFailed {
        /// Echoed request id.
        req_id: u64,
        /// The model whose operation failed.
        model: String,
        /// Which operation was in flight.
        op: String,
        /// The work requests that stayed failed.
        failures: Vec<crate::VerbFailure>,
    },
    /// The request was shed by admission control (token bucket over
    /// budget) or by a dispatch queue that stayed full past the shed
    /// wait. Typed overload: the client rebuilds
    /// [`crate::PortusError::Throttled`] and may honor the retry hint.
    Throttled {
        /// Echoed request id.
        req_id: u64,
        /// Virtual nanoseconds the daemon suggests waiting before a
        /// retry (the token bucket's exact deficit, or the configured
        /// queue-shed hint).
        retry_after_ns: u64,
    },
    /// The request failed because the device cannot hold the checkpoint
    /// even after the daemon's automatic repack-and-retry. Structured so
    /// the client can rebuild [`crate::PortusError::OutOfSpace`].
    OutOfSpace {
        /// Echoed request id.
        req_id: u64,
        /// Bytes the failed allocation asked for.
        needed: u64,
        /// Total free bytes at the time of failure.
        free: u64,
        /// Largest contiguous free extent at the time of failure.
        largest_extent: u64,
    },
    /// The request failed because every ModelTable entry is live — the
    /// model catalog has no free slot for a new name. Structured so the
    /// client can rebuild [`crate::PortusError::CatalogFull`].
    CatalogFull {
        /// Echoed request id.
        req_id: u64,
        /// Total entries the ModelTable was formatted with.
        capacity: u32,
    },
    /// A restore found the stored version's bytes do not match the
    /// digest it was sealed with. Structured so the client can rebuild
    /// [`crate::PortusError::ChecksumMismatch`].
    ChecksumMismatch {
        /// Echoed request id.
        req_id: u64,
        /// The model.
        model: String,
        /// The version whose data failed verification.
        version: u64,
    },
}

impl Reply {
    /// The request id this reply answers.
    pub fn req_id(&self) -> u64 {
        match self {
            Reply::Registered { req_id, .. }
            | Reply::CheckpointDone { req_id, .. }
            | Reply::RestoreDone { req_id, .. }
            | Reply::Completed { req_id }
            | Reply::Dropped { req_id }
            | Reply::Models { req_id, .. }
            | Reply::Stats { req_id, .. }
            | Reply::Error { req_id, .. }
            | Reply::DatapathFailed { req_id, .. }
            | Reply::Throttled { req_id, .. }
            | Reply::OutOfSpace { req_id, .. }
            | Reply::CatalogFull { req_id, .. }
            | Reply::ChecksumMismatch { req_id, .. } => *req_id,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tensor_desc_size() {
        let d = TensorDesc {
            name: "w".into(),
            dtype: DType::F32,
            shape: vec![512, 1024],
            rkey: 7,
        };
        assert_eq!(d.size_bytes(), 512 * 1024 * 4);
        assert_eq!(d.meta().name, "w");
    }

    #[test]
    fn reply_req_id_extraction() {
        let r = Reply::CheckpointDone {
            req_id: 42,
            version: 1,
            pulled_bytes: 10,
            reused_bytes: 0,
            elapsed: SimDuration::ZERO,
        };
        assert_eq!(r.req_id(), 42);
        assert_eq!(Reply::Dropped { req_id: 9 }.req_id(), 9);
        let oos = Reply::OutOfSpace {
            req_id: 11,
            needed: 1,
            free: 0,
            largest_extent: 0,
        };
        assert_eq!(oos.req_id(), 11);
        let throttled = Reply::Throttled {
            req_id: 13,
            retry_after_ns: 1_000_000,
        };
        assert_eq!(throttled.req_id(), 13);
    }

    #[test]
    fn request_req_id_extraction() {
        assert_eq!(Request::List { req_id: 5 }.req_id(), Some(5));
        assert_eq!(
            Request::Checkpoint {
                req_id: 6,
                model: "m".into(),
                dirty: None,
            }
            .req_id(),
            Some(6)
        );
        assert_eq!(Request::Disconnect.req_id(), None);
    }
}
