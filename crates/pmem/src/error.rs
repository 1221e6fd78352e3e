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
    /// An on-media structure failed validation: which structure, the
    /// device offset of the word or record that failed, and what was
    /// wrong with it.
    Corrupt {
        /// The structure that failed validation.
        structure: Structure,
        /// Device offset of the failing word or record.
        at: u64,
        /// What the check found.
        detail: String,
    },
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
            PmemError::Corrupt {
                structure,
                at,
                detail,
            } => write!(f, "{structure:?} corrupt at offset {at:#x}: {detail}"),
            PmemError::Image(what) => write!(f, "device image error: {what}"),
        }
    }
}

impl Error for PmemError {}

impl PmemError {
    /// A [`PmemError::Corrupt`] naming `structure` and the offset `at`.
    pub fn corrupt(structure: Structure, at: u64, detail: impl Into<String>) -> PmemError {
        PmemError::Corrupt {
            structure,
            at,
            detail: detail.into(),
        }
    }
}

/// The on-media structure a [`PmemError::Corrupt`] names. The allocator,
/// the extent store and the micro-pages live in this crate; the rest
/// are the daemon's persistent index, which raises the same error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Structure {
    /// The allocator's AllocTable: its header or a live entry.
    AllocTable,
    /// The dedup extent table: its header or a record.
    ExtentTable,
    /// A catalog micro-page.
    MicroPage,
    /// The index superblock, or a word it records.
    Superblock,
    /// A ModelTable entry.
    ModelTable,
    /// A model's MIndex record.
    MIndex,
    /// A slot header inside an MIndex record.
    SlotHeader,
    /// A tensor record inside an MIndex record.
    TensorRecord,
    /// A slot's extent map.
    ExtentMap,
    /// The catalog's root block.
    CatalogRoot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_are_send_sync_and_display() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PmemError>();
        assert!(PmemError::TableFull.to_string().contains("no free slots"));
        let e = PmemError::corrupt(Structure::Superblock, 0x30, "bad magic");
        assert_eq!(
            e.to_string(),
            "Superblock corrupt at offset 0x30: bad magic"
        );
    }
}
