//! Error types for the checkpoint container.

use std::error::Error;
use std::fmt;
use std::io;

use portus_mem::MemError;

/// Result alias for container operations.
pub type FormatResult<T> = Result<T, FormatError>;

/// Errors raised while encoding or decoding checkpoint containers.
#[derive(Debug)]
pub enum FormatError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file does not start with the container magic `PORTUSCK`.
    BadMagic {
        /// The first eight bytes found.
        found: [u8; 8],
    },
    /// The container version (at offset 8) is not one this build reads.
    UnsupportedVersion {
        /// The version found.
        found: u32,
    },
    /// A tensor header's dtype byte names no known dtype.
    BadDtype {
        /// The dtype code found.
        code: u8,
        /// Offset of the dtype byte.
        at: u64,
    },
    /// A name is longer than its u16 length prefix can hold.
    NameTooLong {
        /// The name's length in bytes.
        len: usize,
        /// Offset its length prefix would be written at.
        at: u64,
    },
    /// A name is not UTF-8.
    NameNotUtf8 {
        /// Offset of the name's length prefix.
        at: u64,
    },
    /// A tensor's payload length disagrees with its metadata (dtype ×
    /// shape).
    PayloadSize {
        /// The tensor's name.
        tensor: String,
        /// Payload bytes given or recorded.
        payload: u64,
        /// Bytes the metadata implies.
        metadata: u64,
        /// Offset of the tensor's entry.
        at: u64,
    },
    /// A decoded tensor claims a payload past the 1 TiB sanity cap.
    ImplausiblePayload {
        /// The tensor's name.
        tensor: String,
        /// The recorded payload length.
        len: u64,
        /// Offset of the tensor's entry.
        at: u64,
    },
    /// A device buffer could not be read while encoding a tensor.
    PayloadRead {
        /// The tensor's name.
        tensor: String,
        /// The buffer's error.
        source: MemError,
    },
    /// The trailer hash does not match the content.
    ChecksumMismatch {
        /// Hash computed over the decoded content.
        expected: u64,
        /// Hash found in the trailer.
        found: u64,
    },
}

impl fmt::Display for FormatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FormatError::Io(e) => write!(f, "i/o error: {e}"),
            FormatError::BadMagic { found } => {
                write!(f, "malformed checkpoint: bad magic {found:02x?}")
            }
            FormatError::UnsupportedVersion { found } => {
                write!(f, "malformed checkpoint: unsupported version {found}")
            }
            FormatError::BadDtype { code, at } => {
                write!(f, "malformed checkpoint: bad dtype code {code} at offset {at}")
            }
            FormatError::NameTooLong { len, at } => write!(
                f,
                "malformed checkpoint: name of {len} bytes at offset {at} is longer than u16"
            ),
            FormatError::NameNotUtf8 { at } => {
                write!(f, "malformed checkpoint: name at offset {at} is not UTF-8")
            }
            FormatError::PayloadSize {
                tensor,
                payload,
                metadata,
                at,
            } => write!(
                f,
                "malformed checkpoint: tensor {tensor} at offset {at}: payload {payload} bytes vs metadata {metadata}"
            ),
            FormatError::ImplausiblePayload { tensor, len, at } => write!(
                f,
                "malformed checkpoint: tensor {tensor} at offset {at}: implausible payload of {len} bytes"
            ),
            FormatError::PayloadRead { tensor, source } => {
                write!(f, "cannot read tensor {tensor}'s payload: {source}")
            }
            FormatError::ChecksumMismatch { expected, found } => write!(
                f,
                "checkpoint checksum mismatch: computed {expected:#018x}, trailer {found:#018x}"
            ),
        }
    }
}

impl Error for FormatError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FormatError::Io(e) => Some(e),
            FormatError::PayloadRead { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<io::Error> for FormatError {
    fn from(e: io::Error) -> Self {
        FormatError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = FormatError::from(io::Error::new(io::ErrorKind::UnexpectedEof, "eof"));
        assert!(e.to_string().contains("eof"));
        assert!(Error::source(&e).is_some());
        let m = FormatError::ChecksumMismatch {
            expected: 1,
            found: 2,
        };
        assert!(m.to_string().contains("mismatch"));
    }
}
