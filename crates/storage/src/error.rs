//! Error types for the baseline storage paths.

use std::error::Error;
use std::fmt;

use portus_format::FormatError;
use portus_mem::MemError;
use portus_rdma::RdmaError;

/// Result alias for storage operations.
pub type StorageResult<T> = Result<T, StorageError>;

/// Errors raised by the baseline file systems and checkpointers.
#[derive(Debug)]
pub enum StorageError {
    /// The named file does not exist.
    NotFound(String),
    /// The device ran out of space.
    NoSpace {
        /// Bytes requested.
        requested: u64,
        /// Bytes free.
        free: u64,
    },
    /// A container encode/decode failure.
    Format(FormatError),
    /// A memory error during staging.
    Mem(MemError),
    /// A fabric error on the distributed path.
    Rdma(RdmaError),
    /// The restore target does not match the checkpoint structure.
    ModelMismatch(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::NotFound(path) => write!(f, "no such file: {path}"),
            StorageError::NoSpace { requested, free } => {
                write!(f, "no space: requested {requested} bytes, {free} free")
            }
            StorageError::Format(e) => write!(f, "container error: {e}"),
            StorageError::Mem(e) => write!(f, "memory error: {e}"),
            StorageError::Rdma(e) => write!(f, "fabric error: {e}"),
            StorageError::ModelMismatch(what) => write!(f, "model mismatch: {what}"),
        }
    }
}

impl Error for StorageError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            StorageError::Format(e) => Some(e),
            StorageError::Mem(e) => Some(e),
            StorageError::Rdma(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FormatError> for StorageError {
    fn from(e: FormatError) -> Self {
        StorageError::Format(e)
    }
}

impl From<MemError> for StorageError {
    fn from(e: MemError) -> Self {
        StorageError::Mem(e)
    }
}

impl From<RdmaError> for StorageError {
    fn from(e: RdmaError) -> Self {
        StorageError::Rdma(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        assert!(StorageError::NotFound("x.ckpt".into())
            .to_string()
            .contains("x.ckpt"));
        let e = StorageError::from(MemError::WrongDevice);
        assert!(Error::source(&e).is_some());
    }
}
