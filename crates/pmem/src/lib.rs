//! # portus-pmem
//!
//! A simulated Intel Optane DC persistent-memory namespace with honest
//! persistence semantics: stores are volatile until `clwb`+`sfence`
//! ([`PmemDevice::flush`] / [`PmemDevice::fence`]), and
//! [`PmemDevice::crash`] destroys in-flight lines the way a power failure
//! would — including the *maybe-persisted* ambiguity of unfenced lines.
//! On top of the device sit the persistent allocator
//! ([`PmemAllocator`], the paper's AllocTable) and device imaging for the
//! `portusctl` tooling.
//!
//! # Examples
//!
//! ```
//! use portus_pmem::{CrashSpec, PmemDevice, PmemMode};
//! use portus_sim::SimContext;
//!
//! let pm = PmemDevice::new(SimContext::icdcs24(), PmemMode::DevDax, 1 << 20);
//! pm.write(0, b"v1")?;
//! pm.persist(0, 2)?;
//! pm.write(0, b"v2")?; // not yet persisted
//! pm.crash(CrashSpec::LoseAll);
//! let mut out = [0u8; 2];
//! pm.read(0, &mut out)?;
//! assert_eq!(&out, b"v1"); // the fenced version survived
//! # Ok::<(), portus_pmem::PmemError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alloc;
mod device;
mod error;
mod extent;
mod image;
pub mod micropage;
pub mod typed;

pub use alloc::{PmemAlloc, PmemAllocator};
pub use device::{CrashSpec, PmemDevice, PmemMode, CACHE_LINE};
pub use error::{PmemError, PmemResult, Structure};
pub use extent::{
    content_hash, ExtentRecord, ExtentRef, ExtentStats, ExtentStore, EXTENT_DATA_TAG,
};
pub use image::{load_image, save_image};
