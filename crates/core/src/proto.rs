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

use crate::PortusResult;

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
    /// dirty mask, clean tensors the target slot already holds stay in
    /// place and everything else is pulled (a Check-N-Run-style
    /// extension; see DESIGN.md).
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

    /// The request's kind, as [`crate::PortusError::HandlerPanicked`] names
    /// it: a checkpoint with a dirty mask is a `delta-checkpoint`, like
    /// its trace op.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Register { .. } => "register",
            Request::Checkpoint { dirty, .. } => checkpoint_op(dirty.as_deref()).name(),
            Request::Restore { .. } => "restore",
            Request::MarkComplete { .. } => "mark-complete",
            Request::Drop { .. } => "drop",
            Request::List { .. } => "list",
            Request::Stats { .. } => "stats",
            Request::Disconnect => "disconnect",
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

/// Daemon → client message: the answer to one request. The handler's
/// own [`PortusResult`] crosses the channel as is, so every daemon-side
/// error reaches the caller as its own [`crate::PortusError`] variant.
/// A typed payload costs nothing on the wire: the control channel
/// charges one fixed small-message cost per send, whatever it carries.
#[derive(Debug)]
pub struct Reply {
    /// Echoed request id.
    pub req_id: u64,
    /// The request's outcome.
    pub result: PortusResult<Done>,
}

/// A request's successful outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Done {
    /// Register, MarkComplete or Drop accepted.
    Ack,
    /// A checkpoint version is complete and durable.
    Checkpoint {
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
    Restore {
        /// The version that was restored.
        version: u64,
        /// Payload bytes pushed.
        bytes: u64,
        /// Daemon-side virtual time for the operation.
        elapsed: SimDuration,
    },
    /// The stored models, for [`Request::List`].
    Models(Vec<ModelSummary>),
    /// The daemon's observability snapshot, for [`Request::Stats`]:
    /// per-stage latency histograms plus the dispatch-queue gauges, all
    /// keyed to the virtual clock (boxed: it dwarfs every other
    /// outcome).
    Stats(Box<MetricsSnapshot>),
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
