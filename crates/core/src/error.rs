//! Error types for Portus.

use std::error::Error;
use std::fmt;

use portus_format::FormatError;
use portus_mem::MemError;
use portus_pmem::PmemError;
use portus_rdma::RdmaError;

/// Result alias for Portus operations.
pub type PortusResult<T> = Result<T, PortusError>;

/// One work request that stayed failed after the daemon exhausted its
/// per-WQE retries: which tensors rode the WQE, how often it was
/// re-posted, and the final fabric error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerbFailure {
    /// Names of the tensors coalesced into the failed work request.
    pub tensors: Vec<String>,
    /// How many times the daemon re-posted the WQE before giving up.
    pub retries: u32,
    /// The fabric error of the last attempt, rendered.
    pub error: String,
}

impl fmt::Display for VerbFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] after {} retries: {}",
            self.tensors.join(", "),
            self.retries,
            self.error
        )
    }
}

/// Errors raised by the Portus client, daemon, and tooling.
///
/// Each failure a caller can meet has exactly one variant. On-media
/// corruption is [`PmemError::Corrupt`] inside [`PortusError::Pmem`],
/// naming the structure and the offset that failed, whether the
/// allocator or the daemon's index found it.
#[derive(Debug)]
pub enum PortusError {
    /// Underlying persistent-memory failure, including on-media
    /// corruption ([`PmemError::Corrupt`]).
    Pmem(PmemError),
    /// Underlying fabric failure.
    Rdma(RdmaError),
    /// Underlying memory failure.
    Mem(MemError),
    /// Container encode/decode failure (portusctl dump).
    Format(FormatError),
    /// The named model is not registered / not on the device.
    ModelNotFound(String),
    /// Registration conflicts with an existing model of the same name
    /// but different structure.
    StructureMismatch(String),
    /// No complete (DONE) checkpoint version exists for the model.
    NoValidCheckpoint(String),
    /// A stored checkpoint failed its integrity check.
    ChecksumMismatch {
        /// The model.
        model: String,
        /// The version whose data failed verification.
        version: u64,
    },
    /// An asynchronous checkpoint of the model is already in flight;
    /// wait on it (or call `guard_update`) before starting another.
    AlreadyInFlight(String),
    /// One or more datapath transfers stayed failed after the daemon's
    /// per-WQE retries. The checkpoint slot was rolled back: the model's
    /// previous complete version is untouched and still restorable.
    DatapathFailed {
        /// The model whose operation failed.
        model: String,
        /// Which operation was in flight (`"checkpoint"`,
        /// `"delta-checkpoint"`, or `"restore"`).
        op: String,
        /// The work requests that exhausted their retries.
        failures: Vec<VerbFailure>,
    },
    /// The persistent index and the allocator disagree: a slot header
    /// points at a data region the allocator has no record of. This is
    /// metadata corruption — the repacker surfaces it instead of
    /// silently clearing the header (which would leak the bytes and
    /// destroy the evidence).
    AllocatorDivergence {
        /// The model whose slot diverged.
        model: String,
        /// The slot index within the model's double mapping.
        slot: usize,
        /// The orphaned `data_off` the header points at.
        data_off: u64,
    },
    /// The daemon shed the request: the tenant is over its token-bucket
    /// budget, or the dispatch queue stayed full past the shed wait.
    /// Nothing was done — no slot was touched, no version consumed.
    /// Retrying after the hinted wait (virtual time) will usually
    /// succeed.
    Throttled {
        /// Virtual nanoseconds to wait before retrying.
        retry_after_ns: u64,
    },
    /// The device cannot hold the checkpoint even after a repack pass
    /// reclaimed everything reclaimable. Carries the allocator's view
    /// at the moment of the final failed allocation so the operator can
    /// tell exhaustion (`free < needed`) from fragmentation
    /// (`free >= needed > largest_extent`).
    OutOfSpace {
        /// Bytes the failed allocation asked for.
        needed: u64,
        /// Total free bytes at the time of failure.
        free: u64,
        /// Largest contiguous free extent at the time of failure.
        largest_extent: u64,
    },
    /// The model catalog (the fixed ModelTable) has no free entry for
    /// a new model. Carries the table's capacity so the operator knows
    /// what to re-format with — distinct from [`PortusError::OutOfSpace`],
    /// which is about payload bytes, not name slots.
    CatalogFull {
        /// Total entries the ModelTable was formatted with.
        capacity: u32,
    },
    /// Every replica of a replicated operation failed. Carries the
    /// per-replica attempts (replica index, rendered error) in the
    /// order they were tried.
    ReplicasExhausted {
        /// The model whose operation failed everywhere.
        model: String,
        /// Which operation was in flight.
        op: String,
        /// `(replica index, rendered error)` per attempt.
        attempts: Vec<(usize, String)>,
    },
    /// The daemon answered a request with another request's outcome (a
    /// protocol violation).
    UnexpectedReply {
        /// The client operation whose reply did not match.
        op: &'static str,
    },
    /// The daemon's handler for a request panicked. The dispatch
    /// worker lives on; the request's effects are those of a crash
    /// mid-request.
    HandlerPanicked {
        /// The request kind (see [`crate::Request::kind`]).
        request: &'static str,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A tensor name exceeds the fixed on-media name field.
    NameTooLong(String),
    /// An I/O error in the tooling (portusctl files).
    Io(std::io::Error),
}

impl fmt::Display for PortusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PortusError::Pmem(e) => write!(f, "persistent memory error: {e}"),
            PortusError::Rdma(e) => write!(f, "fabric error: {e}"),
            PortusError::Mem(e) => write!(f, "memory error: {e}"),
            PortusError::Format(e) => write!(f, "container error: {e}"),
            PortusError::ModelNotFound(m) => write!(f, "model not found: {m}"),
            PortusError::StructureMismatch(what) => {
                write!(f, "model structure mismatch: {what}")
            }
            PortusError::NoValidCheckpoint(m) => {
                write!(f, "no complete checkpoint version for model {m}")
            }
            PortusError::ChecksumMismatch { model, version } => {
                write!(
                    f,
                    "checkpoint {model} v{version} failed integrity verification"
                )
            }
            PortusError::AlreadyInFlight(m) => {
                write!(f, "an async checkpoint of model {m} is already in flight")
            }
            PortusError::DatapathFailed {
                model,
                op,
                failures,
            } => {
                write!(
                    f,
                    "{op} of model {model} failed on the datapath ({} WQE(s) exhausted retries):",
                    failures.len()
                )?;
                for failure in failures {
                    write!(f, " {failure};")?;
                }
                Ok(())
            }
            PortusError::AllocatorDivergence {
                model,
                slot,
                data_off,
            } => {
                write!(
                    f,
                    "index/allocator divergence: {model} slot {slot} points at \
                     data_off {data_off:#x} with no matching allocation"
                )
            }
            PortusError::Throttled { retry_after_ns } => {
                write!(
                    f,
                    "request throttled by the daemon; retry after {retry_after_ns}ns"
                )
            }
            PortusError::OutOfSpace {
                needed,
                free,
                largest_extent,
            } => {
                write!(
                    f,
                    "out of PMem space after repacking: need {needed} bytes, \
                     {free} free, largest extent {largest_extent}"
                )
            }
            PortusError::CatalogFull { capacity } => {
                write!(
                    f,
                    "model catalog is full: all {capacity} ModelTable entries are live"
                )
            }
            PortusError::ReplicasExhausted {
                model,
                op,
                attempts,
            } => {
                write!(
                    f,
                    "{op} of model {model} failed on all {} replica(s):",
                    attempts.len()
                )?;
                for (replica, error) in attempts {
                    write!(f, " replica {replica}: {error};")?;
                }
                Ok(())
            }
            PortusError::UnexpectedReply { op } => {
                write!(f, "the daemon answered {op} with another request's reply")
            }
            PortusError::HandlerPanicked { request, message } => {
                write!(f, "the daemon's {request} handler panicked: {message}")
            }
            PortusError::NameTooLong(name) => {
                write!(f, "tensor name exceeds on-media field: {name}")
            }
            PortusError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl Error for PortusError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            PortusError::Pmem(e) => Some(e),
            PortusError::Rdma(e) => Some(e),
            PortusError::Mem(e) => Some(e),
            PortusError::Format(e) => Some(e),
            PortusError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PmemError> for PortusError {
    fn from(e: PmemError) -> Self {
        PortusError::Pmem(e)
    }
}

impl From<RdmaError> for PortusError {
    fn from(e: RdmaError) -> Self {
        PortusError::Rdma(e)
    }
}

impl From<MemError> for PortusError {
    fn from(e: MemError) -> Self {
        PortusError::Mem(e)
    }
}

impl From<FormatError> for PortusError {
    fn from(e: FormatError) -> Self {
        PortusError::Format(e)
    }
}

impl From<std::io::Error> for PortusError {
    fn from(e: std::io::Error) -> Self {
        PortusError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source_behave() {
        let e = PortusError::from(PmemError::TableFull);
        assert!(e.to_string().contains("no free slots"));
        assert!(Error::source(&e).is_some());
        assert!(PortusError::ModelNotFound("bert".into())
            .to_string()
            .contains("bert"));
    }

    #[test]
    fn datapath_failure_display_attributes_tensors() {
        let e = PortusError::DatapathFailed {
            model: "bert".into(),
            op: "checkpoint".into(),
            failures: vec![VerbFailure {
                tensors: vec!["layer0".into(), "layer1".into()],
                retries: 3,
                error: "injected fault on verb #1".into(),
            }],
        };
        let msg = e.to_string();
        assert!(msg.contains("checkpoint of model bert"));
        assert!(msg.contains("layer0, layer1"));
        assert!(msg.contains("3 retries"));
        assert!(msg.contains("injected fault"));
    }

    #[test]
    fn allocator_divergence_display_names_the_slot() {
        let e = PortusError::AllocatorDivergence {
            model: "bert".into(),
            slot: 1,
            data_off: 0x4000,
        };
        let msg = e.to_string();
        assert!(msg.contains("divergence"));
        assert!(msg.contains("bert slot 1"));
        assert!(msg.contains("0x4000"));
    }

    #[test]
    fn out_of_space_display_reports_the_allocator_view() {
        let e = PortusError::OutOfSpace {
            needed: 8192,
            free: 4096,
            largest_extent: 1024,
        };
        let msg = e.to_string();
        assert!(msg.contains("out of PMem space"));
        assert!(msg.contains("8192"));
        assert!(msg.contains("4096"));
        assert!(msg.contains("1024"));
    }

    #[test]
    fn replicas_exhausted_display_lists_attempts() {
        let e = PortusError::ReplicasExhausted {
            model: "bert".into(),
            op: "restore".into(),
            attempts: vec![(0, "fabric down".into()), (1, "no valid checkpoint".into())],
        };
        let msg = e.to_string();
        assert!(msg.contains("restore of model bert"));
        assert!(msg.contains("all 2 replica(s)"));
        assert!(msg.contains("replica 0: fabric down"));
        assert!(msg.contains("replica 1: no valid checkpoint"));
    }

    #[test]
    fn throttled_display_carries_the_retry_hint() {
        let e = PortusError::Throttled {
            retry_after_ns: 2_500_000,
        };
        let msg = e.to_string();
        assert!(msg.contains("throttled"));
        assert!(msg.contains("2500000ns"));
    }

    #[test]
    fn catalog_full_display_carries_the_capacity() {
        let e = PortusError::CatalogFull { capacity: 32 };
        let msg = e.to_string();
        assert!(msg.contains("catalog is full"));
        assert!(msg.contains("32"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PortusError>();
    }
}
