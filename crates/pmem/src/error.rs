//! Error types for persistent-memory operations.

use std::error::Error;
use std::fmt;

/// Result alias for PMem operations.
pub type PmemResult<T> = Result<T, PmemError>;

/// Errors raised by the simulated persistent memory and its allocator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PmemError {
    /// Access past the end of the namespace.
    OutOfBounds {
        /// Start offset of the access.
        offset: u64,
        /// Length of the access.
        len: u64,
        /// Namespace capacity.
        capacity: u64,
    },
    /// An atomically-accessed offset was not aligned.
    Unaligned {
        /// The offending offset.
        offset: u64,
        /// The required alignment.
        align: u64,
    },
    /// The allocator heap has no extent large enough.
    OutOfSpace {
        /// Bytes requested.
        requested: u64,
        /// Largest contiguous free extent.
        largest_free: u64,
    },
    /// The allocation table has no free slots.
    TableFull,
    /// An extent payload was empty: extents hold at least one byte.
    EmptyExtent,
    /// On-media structures failed validation during recovery.
    Corrupt(String),
    /// A device image file could not be read or written.
    Image(String),
}

impl fmt::Display for PmemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PmemError::OutOfBounds { offset, len, capacity } => write!(
                f,
                "access of {len} bytes at offset {offset} exceeds namespace of {capacity} bytes"
            ),
            PmemError::Unaligned { offset, align } => {
                write!(f, "offset {offset} is not {align}-byte aligned")
            }
            PmemError::OutOfSpace { requested, largest_free } => write!(
                f,
                "out of persistent space: requested {requested} bytes, largest free extent {largest_free}"
            ),
            PmemError::TableFull => write!(f, "allocation table has no free slots"),
            PmemError::EmptyExtent => write!(f, "extent payload is empty"),
            PmemError::Corrupt(what) => write!(f, "persistent structure corrupt: {what}"),
            PmemError::Image(what) => write!(f, "device image error: {what}"),
        }
    }
}

impl Error for PmemError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_send_sync_and_display() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PmemError>();
        assert!(PmemError::TableFull.to_string().contains("no free slots"));
    }
}
