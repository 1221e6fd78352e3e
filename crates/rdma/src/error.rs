//! Error types for the simulated RDMA fabric.

use std::error::Error;
use std::fmt;

use portus_mem::MemError;
use portus_pmem::PmemError;

/// Result alias for RDMA operations.
pub type RdmaResult<T> = Result<T, RdmaError>;

/// Errors raised by the simulated fabric.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdmaError {
    /// No memory region with the given remote key exists on the target
    /// NIC.
    InvalidRkey(u64),
    /// The region exists but does not permit the requested access.
    AccessDenied {
        /// The remote key of the region.
        rkey: u64,
        /// What was attempted.
        op: &'static str,
    },
    /// The access falls outside the registered region.
    OutOfBounds {
        /// Offset within the region.
        offset: u64,
        /// Access length.
        len: u64,
        /// Region length.
        region_len: u64,
    },
    /// A gather/scatter verb was posted with an empty segment list.
    EmptySgList,
    /// The verb was failed by an armed [`crate::FaultPlan`]; carries the
    /// plan's verb sequence number for deterministic replay.
    Injected(u64),
    /// The peer endpoint is gone.
    Disconnected,
    /// No NIC is registered for the node.
    UnknownNode(u32),
    /// An underlying memory error (local or remote side).
    Mem(MemError),
    /// An underlying persistent-memory error.
    Pmem(PmemError),
}

impl fmt::Display for RdmaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdmaError::InvalidRkey(rkey) => write!(f, "invalid remote key {rkey:#x}"),
            RdmaError::AccessDenied { rkey, op } => {
                write!(f, "region {rkey:#x} does not permit {op}")
            }
            RdmaError::OutOfBounds { offset, len, region_len } => write!(
                f,
                "access of {len} bytes at region offset {offset} exceeds region of {region_len} bytes"
            ),
            RdmaError::EmptySgList => write!(f, "gather/scatter verb posted with no segments"),
            RdmaError::Injected(seq) => write!(f, "injected fault on verb #{seq}"),
            RdmaError::Disconnected => write!(f, "peer disconnected"),
            RdmaError::UnknownNode(node) => write!(f, "no NIC registered for node {node}"),
            RdmaError::Mem(e) => write!(f, "memory error: {e}"),
            RdmaError::Pmem(e) => write!(f, "persistent memory error: {e}"),
        }
    }
}

impl Error for RdmaError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RdmaError::Mem(e) => Some(e),
            RdmaError::Pmem(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MemError> for RdmaError {
    fn from(e: MemError) -> Self {
        RdmaError::Mem(e)
    }
}

impl From<PmemError> for RdmaError {
    fn from(e: PmemError) -> Self {
        RdmaError::Pmem(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = RdmaError::Mem(MemError::WrongDevice);
        assert!(e.to_string().contains("wrong device kinds"));
        assert!(Error::source(&e).is_some());
        assert!(RdmaError::InvalidRkey(0xAB).to_string().contains("0xab"));
    }
}
