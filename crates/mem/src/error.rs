//! Error types for memory operations.

use std::error::Error;
use std::fmt;

/// Result alias for memory operations.
pub type MemResult<T> = Result<T, MemError>;

/// Errors raised by the simulated memories.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemError {
    /// The requested range falls outside the segment.
    OutOfBounds {
        /// Start offset of the access.
        offset: u64,
        /// Length of the access.
        len: u64,
        /// Size of the segment.
        size: u64,
    },
    /// The device has insufficient free capacity.
    DeviceFull {
        /// Bytes requested.
        requested: u64,
        /// Bytes free.
        free: u64,
    },
    /// A transfer was attempted between the wrong device kinds.
    WrongDevice,
}

impl fmt::Display for MemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemError::OutOfBounds { offset, len, size } => write!(
                f,
                "access of {len} bytes at offset {offset} exceeds segment of {size} bytes"
            ),
            MemError::DeviceFull { requested, free } => {
                write!(f, "device full: requested {requested} bytes, {free} free")
            }
            MemError::WrongDevice => write!(f, "transfer endpoints have the wrong device kinds"),
        }
    }
}

impl Error for MemError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = MemError::OutOfBounds {
            offset: 4,
            len: 8,
            size: 10,
        };
        assert!(e.to_string().contains("offset 4"));
        assert!(!MemError::WrongDevice.to_string().is_empty());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MemError>();
    }
}
