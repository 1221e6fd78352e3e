//! The content-addressed dedup tier (ROADMAP item 5).
//!
//! With dedup enabled, a sealed checkpoint's staging region is chunked
//! into fixed-size extents keyed by a splitmix64 content hash
//! ([`portus_pmem::content_hash`]) and stored once in the shared
//! [`portus_pmem::ExtentStore`]; the slot then references an **extent
//! map** — a small on-media array of extent slots — instead of a
//! contiguous region. Fine-tunes of one base model produce mostly
//! identical chunks, so N models share one physical copy of the weights
//! they have in common.
//!
//! ## Crash ordering
//!
//! Ingest runs *after* the slot sealed `Done` over its plain staging
//! region, so the checkpoint's durability never depends on dedup:
//!
//! 1. each chunk is inserted (or refcounted) in the extent store;
//! 2. the extent map is written and persisted;
//! 3. the slot header flips `{data_off → 0, ext_map → map}` in one
//!    cache-line persist ([`Index::publish_slot_extents`]);
//! 4. the staging region is freed.
//!
//! A crash before step 3 leaves a valid plain-region checkpoint (the
//! inserted extents are unreferenced by any map and recovery sweeps
//! them); a crash after step 3 leaves a valid extent-mapped checkpoint
//! (the staging region is unreachable and recovery GCs it). Release is
//! the mirror image: header first, then decrefs, then the map region —
//! every crash window over-counts, never under-counts, and recovery's
//! recount makes the refcounts exact again.
//!
//! Restores materialize the logical bytes into a scratch region
//! (tagged [`SCRATCH_TAG`], reclaimed by recovery if a crash strands
//! it), paying the extents' *stored* size in DAX reads — compressed
//! cold extents trade restore read cost for capacity.

use portus_pmem::{typed, PmemAlloc, PmemDevice};

use crate::index::{combine_digests, name_hash, region_digest};
use crate::{Index, MIndex, PortusError, PortusResult, SlotState};

const XMAP_MAGIC: u32 = 0x584D_4150; // "XMAP"
const XM_COUNT: u64 = 4;
const XM_CHUNK: u64 = 8;
const XM_LOGICAL: u64 = 16;
const XM_ENTRIES: u64 = 32;
const XM_ENTRY_SIZE: u64 = 8;

/// Allocator tag for restore-side materialization scratch regions.
/// Unreachable from any index structure, so recovery GCs strays.
pub(crate) const SCRATCH_TAG: u64 = 0x5343_5254_4348_5047; // "SCRTCHPG"

/// Dedup tier configuration (opt-in via
/// [`crate::DaemonConfig::dedup`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DedupConfig {
    /// Extent size checkpoints are chunked into. Smaller chunks share
    /// more across diverged fine-tunes but cost more records.
    pub chunk_bytes: u64,
    /// Extent-store capacity (records).
    pub max_extents: u32,
    /// RLE-compress chunks at ingest when that is smaller.
    pub compress_on_ingest: bool,
    /// When set, each repack pass RLE-recompresses extents idle for at
    /// least this many store accesses; restores of them pay the
    /// decompression at DAX-read cost.
    pub cold_compress_idle: Option<u64>,
}

impl Default for DedupConfig {
    fn default() -> Self {
        DedupConfig {
            chunk_bytes: 64 << 10,
            max_extents: 16384,
            compress_on_ingest: false,
            cold_compress_idle: None,
        }
    }
}

/// A decoded extent map.
#[derive(Debug, Clone)]
pub(crate) struct ExtentMap {
    /// Chunk size the checkpoint was split with.
    pub chunk_bytes: u64,
    /// Logical (checkpoint) length in bytes.
    pub logical: u64,
    /// Extent-store slots, one per chunk, in offset order.
    pub extents: Vec<u32>,
}

/// On-media size of a map with `count` entries.
pub(crate) fn map_size(count: u64) -> u64 {
    XM_ENTRIES + count * XM_ENTRY_SIZE
}

/// Decodes the extent map at `off`.
///
/// # Errors
///
/// [`PortusError::Daemon`] on bad magic.
pub(crate) fn read_extent_map(dev: &PmemDevice, off: u64) -> PortusResult<ExtentMap> {
    if typed::read_u32(dev, off)? != XMAP_MAGIC {
        return Err(PortusError::Daemon(format!(
            "bad extent map magic at offset {off}"
        )));
    }
    let count = typed::read_u32(dev, off + XM_COUNT)?;
    let chunk_bytes = typed::read_u64(dev, off + XM_CHUNK)?;
    let logical = typed::read_u64(dev, off + XM_LOGICAL)?;
    let mut extents = Vec::with_capacity(count as usize);
    for i in 0..count as u64 {
        extents.push(typed::read_u32(dev, off + XM_ENTRIES + i * XM_ENTRY_SIZE)?);
    }
    Ok(ExtentMap {
        chunk_bytes,
        logical,
        extents,
    })
}

/// What one ingest did, for cost accounting and metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct IngestReport {
    /// Chunks the checkpoint split into.
    pub chunks: usize,
    /// Of those, chunks that deduplicated against existing extents.
    pub shared_chunks: usize,
    /// Staging bytes read back off media (DAX-read cost).
    pub read_bytes: u64,
    /// Stored bytes newly written for unshared chunks (DAX-write cost).
    pub new_bytes: u64,
    /// Bytes of the extent map written (DAX-write cost).
    pub map_bytes: u64,
    /// Bytes of the detached staging region returned to the allocator.
    pub freed_staging: u64,
}

/// Converts a freshly sealed plain-region slot into an extent-mapped
/// one (crash ordering in the module docs). On failure the slot keeps
/// its plain region — the checkpoint stays valid, only the space win is
/// lost; references taken so far are dropped and the repack sweep
/// collects any refcount-0 residue.
///
/// # Errors
///
/// Extent-store, allocator, and device errors;
/// [`PortusError::AllocatorDivergence`] when the staging region is
/// unknown to the allocator (the header keeps the plain region then).
pub(crate) fn ingest_slot(
    index: &Index,
    mi: &mut MIndex,
    slot: usize,
    cfg: &DedupConfig,
) -> PortusResult<IngestReport> {
    let store = index
        .extent_store()
        .ok_or_else(|| PortusError::Daemon("dedup ingest without an extent store".into()))?;
    let hdr = mi.slots[slot];
    debug_assert_eq!(hdr.state, SlotState::Done, "ingest follows the seal");
    debug_assert_ne!(hdr.data_off, 0, "ingest needs a staging region");
    debug_assert_eq!(hdr.ext_map, 0, "slot already extent-mapped");
    let dev = index.device();
    let alloc = index.allocator();
    let hash = name_hash(&mi.name);

    // Resolve the staging allocation up front: if the allocator has no
    // record of it, surface divergence before taking any reference.
    let staging = alloc
        .live_allocations()?
        .into_iter()
        .find(|a| a.offset == hdr.data_off && a.tag == hash)
        .ok_or_else(|| PortusError::AllocatorDivergence {
            model: mi.name.clone(),
            slot,
            data_off: hdr.data_off,
        })?;

    let chunks = hdr.data_len.div_ceil(cfg.chunk_bytes).max(1);
    let mut report = IngestReport {
        chunks: chunks as usize,
        ..IngestReport::default()
    };
    let mut refs = Vec::with_capacity(chunks as usize);
    let mut buf = vec![0u8; cfg.chunk_bytes as usize];
    let drop_refs = |refs: &[portus_pmem::ExtentRef]| -> PortusResult<()> {
        for r in refs {
            store.decref(r.slot)?;
        }
        Ok(())
    };
    for i in 0..chunks {
        let rel = i * cfg.chunk_bytes;
        let len = cfg.chunk_bytes.min(hdr.data_len - rel) as usize;
        dev.read(hdr.data_off + rel, &mut buf[..len])?;
        report.read_bytes += len as u64;
        match store.insert_or_ref(&buf[..len], alloc, cfg.compress_on_ingest) {
            Ok(r) => {
                if r.shared {
                    report.shared_chunks += 1;
                } else {
                    report.new_bytes += r.stored_len;
                }
                refs.push(r);
            }
            Err(e) => {
                drop_refs(&refs)?;
                return Err(e.into());
            }
        }
    }

    // Write and persist the extent map, then flip the header.
    let msize = map_size(chunks);
    let map_alloc = match alloc.alloc_aligned(msize, 64, hash) {
        Ok(a) => a,
        Err(e) => {
            drop_refs(&refs)?;
            return Err(e.into());
        }
    };
    let m = map_alloc.offset;
    typed::write_u32(dev, m, XMAP_MAGIC)?;
    typed::write_u32(dev, m + XM_COUNT, chunks as u32)?;
    typed::write_u64(dev, m + XM_CHUNK, cfg.chunk_bytes)?;
    typed::write_u64(dev, m + XM_LOGICAL, hdr.data_len)?;
    for (i, r) in refs.iter().enumerate() {
        typed::write_u32(dev, m + XM_ENTRIES + i as u64 * XM_ENTRY_SIZE, r.slot)?;
        typed::write_u32(dev, m + XM_ENTRIES + i as u64 * XM_ENTRY_SIZE + 4, 0)?;
    }
    dev.persist(m, msize)?;
    report.map_bytes = msize;

    index.publish_slot_extents(mi, slot, m)?;
    alloc.free(&staging)?;
    report.freed_staging = staging.len;
    mi.slots[slot].data_off = 0;
    mi.slots[slot].ext_map = m;
    Ok(report)
}

/// Empties an extent-mapped slot and drops its references: header
/// flip first ([`Index::detach_slot_extents`], keeping the version
/// high-water mark), then decrefs, then the map region. Returns the
/// map bytes returned to the allocator.
///
/// # Errors
///
/// [`PortusError::AllocatorDivergence`] when the map region is unknown
/// to the allocator (the header is left untouched as evidence).
pub(crate) fn release_slot_extents(
    index: &Index,
    mi: &mut MIndex,
    slot: usize,
) -> PortusResult<u64> {
    let store = index
        .extent_store()
        .ok_or_else(|| PortusError::Daemon("extent release without an extent store".into()))?;
    let hdr = mi.slots[slot];
    debug_assert_ne!(hdr.ext_map, 0, "slot is not extent-mapped");
    let alloc = index.allocator();
    let map_alloc = alloc
        .live_allocations()?
        .into_iter()
        .find(|a| a.offset == hdr.ext_map)
        .ok_or_else(|| PortusError::AllocatorDivergence {
            model: mi.name.clone(),
            slot,
            data_off: hdr.ext_map,
        })?;
    let map = read_extent_map(index.device(), hdr.ext_map)?;
    index.detach_slot_extents(mi, slot)?;
    for &e in &map.extents {
        store.decref(e)?;
    }
    alloc.free(&map_alloc)?;
    let h = &mut mi.slots[slot];
    h.state = SlotState::Empty;
    h.digest = 0;
    h.ext_map = 0;
    Ok(map_alloc.len)
}

/// A materialized extent-mapped checkpoint: the scratch region holding
/// the logical bytes, and the stored bytes read to build it (the
/// DAX-read cost — less than `logical` when extents are compressed,
/// plus nothing extra when they are not).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Materialized {
    /// The scratch allocation holding the logical bytes.
    pub region: PmemAlloc,
    /// Stored bytes read off media.
    pub stored_read: u64,
    /// Logical bytes written into the scratch region.
    pub logical: u64,
}

/// Rebuilds an extent-mapped slot's logical bytes into a fresh scratch
/// region so the plain restore datapath (verify + one-sided pushes) can
/// run unchanged against it. The caller frees `region` when done.
///
/// # Errors
///
/// Extent-store, allocator, and device errors; [`PortusError::Daemon`]
/// if the map's extents do not sum to its logical length.
pub(crate) fn materialize_slot(
    index: &Index,
    mi: &MIndex,
    slot: usize,
) -> PortusResult<Materialized> {
    let store = index
        .extent_store()
        .ok_or_else(|| PortusError::Daemon("materialize without an extent store".into()))?;
    let hdr = mi.slots[slot];
    debug_assert_ne!(hdr.ext_map, 0, "slot is not extent-mapped");
    let map = read_extent_map(index.device(), hdr.ext_map)?;
    let alloc = index.allocator();
    let region = alloc.alloc_aligned(map.logical.max(4096), 4096, SCRATCH_TAG)?;
    let dev = index.device();
    let mut out = Vec::new();
    let mut pos = 0u64;
    let mut stored_read = 0u64;
    for &e in &map.extents {
        stored_read += store.read_into(e, &mut out)?;
        dev.write(region.offset + pos, &out)?;
        pos += out.len() as u64;
    }
    if pos != map.logical {
        alloc.free(&region)?;
        return Err(PortusError::Daemon(format!(
            "extent map at {} materialized {pos} bytes, expected {}",
            hdr.ext_map, map.logical
        )));
    }
    Ok(Materialized {
        region,
        stored_read,
        logical: map.logical,
    })
}

/// A range copy out of an extent-mapped version, for delta-checkpoint
/// carries: bytes `[rel_off, rel_off + len)` of the logical checkpoint
/// land at the same relative offset in `dst_data_off`'s region.
#[derive(Debug, Clone, Copy)]
pub(crate) struct RangeCopy {
    /// Stored bytes read off media (whole touched extents).
    pub read_bytes: u64,
    /// Positional digest of the copied range, keyed by `rel_off` —
    /// combinable with the pull runs' digests.
    pub digest: u64,
}

/// Copies one carry range from an extent-mapped previous version into a
/// plain target region (volatile; the caller's seal persists it).
///
/// # Errors
///
/// Extent-store and device errors; [`PortusError::Daemon`] on a range
/// past the map's logical length.
pub(crate) fn copy_range_from_extents(
    index: &Index,
    map_off: u64,
    dst_data_off: u64,
    rel_off: u64,
    len: u64,
) -> PortusResult<RangeCopy> {
    let store = index
        .extent_store()
        .ok_or_else(|| PortusError::Daemon("extent copy without an extent store".into()))?;
    if len == 0 {
        return Ok(RangeCopy {
            read_bytes: 0,
            digest: 0,
        });
    }
    let map = read_extent_map(index.device(), map_off)?;
    if rel_off + len > map.logical {
        return Err(PortusError::Daemon(format!(
            "carry [{rel_off}, +{len}) past extent map logical length {}",
            map.logical
        )));
    }
    let dev = index.device();
    let first = rel_off / map.chunk_bytes;
    let last = (rel_off + len - 1) / map.chunk_bytes;
    let mut out = Vec::new();
    let mut read_bytes = 0u64;
    let mut digest = 0u64;
    for ci in first..=last {
        let ext = map.extents[ci as usize];
        read_bytes += store.read_into(ext, &mut out)?;
        let chunk_base = ci * map.chunk_bytes;
        let start = rel_off.max(chunk_base);
        let end = (rel_off + len).min(chunk_base + out.len() as u64);
        let piece = &out[(start - chunk_base) as usize..(end - chunk_base) as usize];
        dev.write(dst_data_off + start, piece)?;
        digest = combine_digests(digest, region_digest(piece, start));
    }
    Ok(RangeCopy { read_bytes, digest })
}
