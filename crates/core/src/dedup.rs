//! The content-addressed dedup tier.
//!
//! With dedup enabled, a checkpoint's pulled staging region is chunked
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
//! The extent seal ([`seal_slot`]) replaces the plain seal: the staging
//! region is read once and never made durable, and the slot header
//! flips once.
//!
//! 1. one pass over the `Active` slot's staging region reads each chunk
//!    once, folds it into the slot digest, and inserts (or refcounts)
//!    it in the extent store — only new chunks are written, streamed
//!    with non-temporal stores and one fence per extent
//!    ([`PmemDevice::write_nt`]) inside the store;
//! 2. the extent map is built in one buffer, streamed and fenced;
//! 3. one header persist publishes `{Done, version, digest, data_off 0,
//!    ext_map}` ([`Index::seal_slot_extents`]);
//! 4. the staging region's volatile state is discarded and the region
//!    freed — it was never flushed.
//!
//! A crash before step 3 leaves the slot `Active` over its staging
//! region, so the previous version is still the latest: the inserted
//! extents and the map are referenced by nothing, and recovery's
//! recount and sweep collect them. A crash after step 3 leaves a valid
//! extent-mapped checkpoint, and recovery GCs the unreachable staging
//! region. If step 1 or 2 fails (extent table full, out of space), the
//! references taken are dropped and the daemon seals the staging
//! region as a plain slot instead: dedup failure is never fatal. A
//! 0-byte version seals as a zero-entry map.
//!
//! Only bytes the CPU writes are streamed. RDMA-landed bytes sit in the
//! DDIO domain and still take `clwb`.
//!
//! Release is the mirror image: header first, then the references, then
//! the map region. A checkpoint's release frees each extent whose last
//! reference it drops; a model drop leaves those for the repack sweep.
//! Every crash window over-counts, never under-counts, and recovery's
//! recount makes the refcounts exact again.
//!
//! ## Reading a version
//!
//! An extent-mapped version's bytes are a list of pieces, one per
//! touched extent ([`extent_pieces`], behind [`Index::slot_pieces`]).
//! Every reader walks that list in place: restore's verify and its
//! one-sided pushes, and `portusctl dump`.
//! Nothing is copied out first, so a restore writes nothing to PMem.
//! That is safe because a restore holds the model lock and the slot
//! holds a reference on each of its extents: the repack sweep frees
//! only refcount-0 extents.

use portus_pmem::{typed, PmemAlloc, PmemDevice, PmemError};

use crate::index::{combine_digests, name_hash, region_digest, SlotPiece};
use crate::{Index, MIndex, PortusError, PortusResult, SlotState};

const XMAP_MAGIC: u32 = 0x584D_4150; // "XMAP"
const XM_COUNT: u64 = 4;
const XM_CHUNK: u64 = 8;
const XM_LOGICAL: u64 = 16;
const XM_ENTRIES: u64 = 32;
const XM_ENTRY_SIZE: u64 = 8;

/// Dedup tier configuration (opt-in via
/// [`crate::DaemonConfig::dedup`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DedupConfig {
    /// Extent size checkpoints are chunked into. Smaller chunks share
    /// more across diverged fine-tunes but cost more records.
    pub chunk_bytes: u64,
    /// Extent-store capacity (records).
    pub max_extents: u32,
}

impl Default for DedupConfig {
    fn default() -> Self {
        DedupConfig {
            chunk_bytes: 64 << 10,
            max_extents: 16384,
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

/// What one extent seal did, for cost accounting and metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ExtentSeal {
    /// Chunks the checkpoint split into.
    pub chunks: usize,
    /// Of those, chunks that deduplicated against existing extents.
    pub shared_chunks: usize,
    /// Staging bytes read off media (DAX-read cost), once each.
    pub read_bytes: u64,
    /// Bytes newly written for unshared chunks (DAX-write cost).
    pub new_bytes: u64,
    /// Bytes of the extent map written (DAX-write cost).
    pub map_bytes: u64,
}

/// Seals the `Active` slot `slot` as version `version` straight into
/// the extent store (crash ordering in the module docs): one read pass
/// over the staging region digests and inserts every chunk, then the
/// map is persisted and one header flip publishes the version. The
/// staging region is freed without ever being flushed, and `mi` is
/// updated to the sealed header.
///
/// On failure the slot is untouched — still `Active` over its staging
/// region — and every reference taken is dropped again, so the caller
/// can seal the region as a plain slot.
///
/// # Errors
///
/// Extent-store, allocator, and device errors;
/// [`PortusError::AllocatorDivergence`] when the staging region is
/// unknown to the allocator.
pub(crate) fn seal_slot(
    index: &Index,
    mi: &mut MIndex,
    slot: usize,
    version: u64,
    cfg: &DedupConfig,
) -> PortusResult<ExtentSeal> {
    let pass = extent_pass(index, mi, slot, cfg)?;
    if let Err(e) = index.seal_slot_extents(mi, slot, version, pass.digest, pass.map.offset) {
        drop_refs(index, &pass.refs, Some(&pass.map))?;
        return Err(e);
    }
    let h = &mut mi.slots[slot];
    h.state = SlotState::Done;
    h.version = version;
    h.digest = pass.digest;
    h.data_off = 0;
    h.ext_map = pass.map.offset;
    index
        .device()
        .discard(pass.staging.offset, pass.staging.len)?;
    index.allocator().free(&pass.staging)?;
    Ok(pass.report)
}

/// Steps 1 and 2 of the extent seal, which leave the slot header as it
/// was: every chunk referenced in the store, the map persisted.
struct ExtentPass {
    /// Positional digest of the staging region (the slot digest).
    digest: u64,
    /// One extent slot per chunk, as written into the map.
    refs: Vec<u32>,
    /// The persisted extent map's allocation.
    map: PmemAlloc,
    /// The slot's staging region.
    staging: PmemAlloc,
    report: ExtentSeal,
}

/// Drops the references an unpublished pass took, then frees its map.
fn drop_refs(index: &Index, refs: &[u32], map: Option<&PmemAlloc>) -> PortusResult<()> {
    let alloc = index.allocator();
    if let Some(store) = index.extent_store() {
        for &e in refs {
            store.release(e, alloc)?;
        }
    }
    if let Some(m) = map {
        alloc.free(m)?;
    }
    Ok(())
}

/// The extent seal's one read pass: each `chunk_bytes` chunk of the
/// staging region is read once, folded into the slot digest, and
/// inserted (or refcounted) in the store; then the map is streamed and
/// fenced. On failure every reference taken is dropped again.
fn extent_pass(
    index: &Index,
    mi: &MIndex,
    slot: usize,
    cfg: &DedupConfig,
) -> PortusResult<ExtentPass> {
    let store = index
        .extent_store()
        .ok_or_else(|| PortusError::Daemon("extent seal without an extent store".into()))?;
    let hdr = mi.slots[slot];
    debug_assert_ne!(hdr.data_off, 0, "the seal needs a staging region");
    debug_assert_eq!(hdr.ext_map, 0, "slot already extent-mapped");
    let dev = index.device();
    let alloc = index.allocator();
    let hash = name_hash(&mi.name);

    // Resolve the staging allocation up front: if the allocator has no
    // record of it, surface divergence before taking any reference.
    let staging = alloc
        .live_at(hdr.data_off)
        .filter(|a| a.tag == hash)
        .ok_or_else(|| PortusError::AllocatorDivergence {
            model: mi.name.clone(),
            slot,
            data_off: hdr.data_off,
        })?;

    // A 0-byte version seals as a zero-entry map.
    let chunks = hdr.data_len.div_ceil(cfg.chunk_bytes);
    let mut report = ExtentSeal {
        chunks: chunks as usize,
        ..ExtentSeal::default()
    };
    let mut refs = Vec::with_capacity(chunks as usize);
    let mut map = None;
    let sealed = (|| -> PortusResult<(u64, PmemAlloc)> {
        let mut digest = 0u64;
        let mut buf = vec![0u8; cfg.chunk_bytes as usize];
        for i in 0..chunks {
            let rel = i * cfg.chunk_bytes;
            let len = cfg.chunk_bytes.min(hdr.data_len - rel) as usize;
            dev.read(hdr.data_off + rel, &mut buf[..len])?;
            report.read_bytes += len as u64;
            digest = combine_digests(digest, region_digest(&buf[..len], rel));
            let r = store.insert_or_ref(&buf[..len], alloc)?;
            if r.shared {
                report.shared_chunks += 1;
            } else {
                report.new_bytes += len as u64;
            }
            refs.push(r.slot);
        }
        let msize = map_size(chunks);
        let m = *map.insert(alloc.alloc_aligned(msize, 64, hash)?);
        let mut bytes = Vec::with_capacity(msize as usize);
        bytes.extend_from_slice(&XMAP_MAGIC.to_le_bytes());
        bytes.extend_from_slice(&(chunks as u32).to_le_bytes());
        bytes.extend_from_slice(&cfg.chunk_bytes.to_le_bytes());
        bytes.extend_from_slice(&hdr.data_len.to_le_bytes());
        bytes.resize(XM_ENTRIES as usize, 0);
        for &e in &refs {
            bytes.extend_from_slice(&u64::from(e).to_le_bytes());
        }
        dev.write_nt(m.offset, &bytes)?;
        dev.fence();
        report.map_bytes = msize;
        Ok((digest, m))
    })();
    match sealed {
        Ok((digest, map)) => Ok(ExtentPass {
            digest,
            refs,
            map,
            staging,
            report,
        }),
        Err(e) => {
            drop_refs(index, &refs, map.as_ref())?;
            Err(e)
        }
    }
}

/// Empties an extent-mapped slot and drops its references: header
/// flip first ([`Index::detach_slot_extents`], keeping the version
/// high-water mark), then the references — an extent whose last one
/// this drops is freed on the spot — then the map region. Returns the
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
        .live_at(hdr.ext_map)
        .ok_or_else(|| PortusError::AllocatorDivergence {
            model: mi.name.clone(),
            slot,
            data_off: hdr.ext_map,
        })?;
    let map = read_extent_map(index.device(), hdr.ext_map)?;
    index.detach_slot_extents(mi, slot)?;
    for &e in &map.extents {
        store.release(e, alloc)?;
    }
    alloc.free(&map_alloc)?;
    let h = &mut mi.slots[slot];
    h.state = SlotState::Empty;
    h.digest = 0;
    h.ext_map = 0;
    Ok(map_alloc.len)
}

/// The pieces of the extent-mapped version whose map is at `map_off`
/// that cover `[rel_off, rel_off + len)` ([`Index::slot_pieces`]): one
/// per touched extent, in offset order. Reads the map and each touched
/// extent's record, never a payload.
///
/// # Errors
///
/// [`PmemError::Corrupt`] for a range past the map's logical length, or
/// for an extent whose length is not `min(chunk_bytes, logical - base)`;
/// device and extent-store errors.
pub(crate) fn extent_pieces(
    index: &Index,
    map_off: u64,
    rel_off: u64,
    len: u64,
) -> PortusResult<Vec<SlotPiece>> {
    let store = index
        .extent_store()
        .ok_or_else(|| PortusError::Daemon("extent read without an extent store".into()))?;
    let map = read_extent_map(index.device(), map_off)?;
    let corrupt =
        |what: String| PmemError::Corrupt(format!("extent map at offset {map_off}: {what}"));
    let end = rel_off.saturating_add(len);
    if end > map.logical || map.chunk_bytes == 0 {
        return Err(corrupt(format!(
            "range [{rel_off}, +{len}) past logical length {} (chunk {})",
            map.logical, map.chunk_bytes
        ))
        .into());
    }
    let mut pieces = Vec::new();
    let mut at = rel_off;
    while at < end {
        let chunk = at / map.chunk_bytes;
        let base = chunk * map.chunk_bytes;
        let ext = *map
            .extents
            .get(chunk as usize)
            .ok_or_else(|| corrupt(format!("no extent for chunk {chunk}")))?;
        let rec = store.record(ext)?;
        if rec.len != map.chunk_bytes.min(map.logical - base) {
            return Err(corrupt(format!("extent {ext} holds {} bytes at {base}", rec.len)).into());
        }
        let stop = end.min(base + rec.len);
        pieces.push(SlotPiece {
            dev_off: rec.data_off + (at - base),
            rel_off: at,
            len: stop - at,
        });
        at = stop;
    }
    Ok(pieces)
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use portus_dnn::{DType, TensorMeta};
    use portus_pmem::{CrashSpec, PmemMode};
    use portus_sim::hash::splitmix64;
    use portus_sim::SimContext;

    use super::*;

    /// Four 64 KiB chunks per version.
    const BYTES: u64 = 256 << 10;

    fn world() -> (Arc<PmemDevice>, Index, MIndex, DedupConfig) {
        let dev = PmemDevice::new(SimContext::icdcs24(), PmemMode::DevDax, 16 << 20);
        let index = Index::format(dev.clone(), 8, 256).unwrap();
        let cfg = DedupConfig {
            max_extents: 64,
            ..DedupConfig::default()
        };
        index.enable_dedup(cfg.max_extents).unwrap();
        let metas = [TensorMeta::new("w", DType::F32, vec![BYTES / 4])];
        let mi = index.create_model("m", &metas).unwrap();
        (dev, index, mi, cfg)
    }

    /// Lands version `version`'s bytes (distinct per chunk and per
    /// version) in `slot`'s region, unflushed, and activates the slot —
    /// the state the pulls leave behind.
    fn stage(index: &Index, mi: &mut MIndex, slot: usize, version: u64) -> Vec<u8> {
        index.ensure_slot_region(mi, slot).unwrap();
        let bytes: Vec<u8> = (0..BYTES)
            .map(|i| splitmix64(version * BYTES + i) as u8)
            .collect();
        index
            .device()
            .write(mi.slots[slot].data_off, &bytes)
            .unwrap();
        index.mark_slot_active(mi, slot, version).unwrap();
        mi.slots[slot].state = SlotState::Active;
        mi.slots[slot].version = version;
        bytes
    }

    /// The latest version's number and bytes, verified against its
    /// sealed digest as a restore would.
    fn restore(index: &Index, mi: &MIndex) -> (u64, Vec<u8>) {
        let (slot, hdr) = mi.latest_done().expect("a sealed version");
        assert_eq!(index.slot_digest(mi, slot).unwrap(), hdr.digest);
        let mut out = vec![0u8; BYTES as usize];
        index.read_slot(&hdr, 0, &mut out).unwrap();
        (hdr.version, out)
    }

    fn recover(dev: Arc<PmemDevice>) -> (Index, MIndex) {
        dev.crash(CrashSpec::LoseAll);
        let (index, map) = Index::recover(dev).unwrap();
        let mi = index.load_mindex(map["m"]).unwrap();
        (index, mi)
    }

    fn assert_refcounts_are_one(index: &Index, live: usize) {
        let extents = index.extent_store().unwrap().live_extents().unwrap();
        assert_eq!(extents.len(), live);
        assert!(extents.iter().all(|(_, r)| r.refcount == 1));
    }

    #[test]
    fn the_extent_seal_never_flushes_the_staging_region() {
        let (dev, index, mut mi, cfg) = world();
        let v1 = stage(&index, &mut mi, 0, 1);
        let staging = mi.slots[0].data_off;
        let resident = dev.resident_bytes();
        let report = seal_slot(&index, &mut mi, 0, 1, &cfg).unwrap();
        assert_eq!(report.read_bytes, BYTES, "one read pass");
        assert_eq!(report.new_bytes, BYTES);
        assert_eq!(
            (mi.slots[0].data_off, mi.slots[0].state),
            (0, SlotState::Done)
        );
        assert!(
            index.allocator().live_at(staging).is_none(),
            "staging freed"
        );
        assert_eq!(dev.inflight_lines(), 0, "staging overlay discarded");
        // Media grew by the extents (and metadata), not by a second,
        // staged copy of the version.
        assert!(dev.resident_bytes() - resident < BYTES + BYTES / 2);
        assert_eq!(restore(&index, &mi), (1, v1));
    }

    /// A crash after the extent pass but before the header flip: the
    /// slot is still `Active`, so the previous version restores; the
    /// pass's extents and map are referenced by nothing and recovery
    /// sweeps them, while the staging region stays the slot's own.
    #[test]
    fn crash_before_the_header_flip_keeps_the_previous_version() {
        let (dev, index, mut mi, cfg) = world();
        let v1 = stage(&index, &mut mi, 0, 1);
        seal_slot(&index, &mut mi, 0, 1, &cfg).unwrap();
        stage(&index, &mut mi, 1, 2);
        let pass = extent_pass(&index, &mi, 1, &cfg).unwrap();
        assert_eq!(index.extent_store().unwrap().stats().unwrap().live, 8);
        drop(index);

        let (index, mi) = recover(dev);
        assert_eq!(mi.slots[1].state, SlotState::Active);
        assert_eq!(restore(&index, &mi), (1, v1));
        assert_refcounts_are_one(&index, 4);
        assert!(
            index.allocator().live_at(pass.map.offset).is_none(),
            "map GC'd"
        );
        assert_eq!(mi.slots[1].data_off, pass.staging.offset);
        assert!(index.allocator().live_at(pass.staging.offset).is_some());
    }

    /// A crash after the header flip but before the staging region is
    /// freed: the new version is sealed, and recovery GCs the staging
    /// region nothing references any more.
    #[test]
    fn crash_after_the_header_flip_gcs_the_staging_region() {
        let (dev, index, mut mi, cfg) = world();
        stage(&index, &mut mi, 0, 1);
        seal_slot(&index, &mut mi, 0, 1, &cfg).unwrap();
        let v2 = stage(&index, &mut mi, 1, 2);
        let pass = extent_pass(&index, &mi, 1, &cfg).unwrap();
        index
            .seal_slot_extents(&mi, 1, 2, pass.digest, pass.map.offset)
            .unwrap();
        drop(index);

        let (index, mi) = recover(dev);
        assert_eq!(mi.slots[1].ext_map, pass.map.offset);
        assert_eq!(restore(&index, &mi), (2, v2));
        assert_refcounts_are_one(&index, 8);
        assert!(
            index.allocator().live_at(pass.staging.offset).is_none(),
            "staging GC'd"
        );
    }

    #[test]
    fn a_zero_byte_version_seals_as_an_empty_map_and_restores() {
        let (dev, index, _, cfg) = world();
        let metas = [TensorMeta::new("e", DType::F32, vec![0])];
        let mut mi = index.create_model("empty", &metas).unwrap();
        index.ensure_slot_region(&mut mi, 0).unwrap();
        index.mark_slot_active(&mi, 0, 1).unwrap();
        mi.slots[0].state = SlotState::Active;
        let report = seal_slot(&index, &mut mi, 0, 1, &cfg).unwrap();
        assert_eq!((report.chunks, report.new_bytes), (0, 0));
        let sealed_map = mi.slots[0].ext_map;
        let map = read_extent_map(&dev, sealed_map).unwrap();
        assert_eq!((map.extents.len(), map.logical), (0, 0));
        let (slot, hdr) = mi.latest_done().unwrap();
        assert_eq!(hdr.version, 1);
        assert_eq!(index.slot_digest(&mi, slot).unwrap(), hdr.digest);
        assert!(index.slot_pieces(&hdr, 0, 0).unwrap().is_empty());
        assert_refcounts_are_one(&index, 0);

        drop(index);
        dev.crash(CrashSpec::LoseAll);
        let (index, names) = Index::recover(dev).unwrap();
        let mi = index.load_mindex(names["empty"]).unwrap();
        let (slot, hdr) = mi.latest_done().expect("the empty version survives");
        assert_eq!((hdr.version, hdr.ext_map), (1, sealed_map));
        assert_eq!(index.slot_digest(&mi, slot).unwrap(), hdr.digest);
    }

    #[test]
    fn pieces_tile_a_range_across_extents_without_reading_payloads() {
        let (_dev, index, mut mi, cfg) = world();
        let v1 = stage(&index, &mut mi, 0, 1);
        seal_slot(&index, &mut mi, 0, 1, &cfg).unwrap();
        let hdr = mi.slots[0];
        let (rel, len) = (60 << 10, 80 << 10);
        let pieces = index.slot_pieces(&hdr, rel, len).unwrap();
        let spans: Vec<_> = pieces.iter().map(|p| (p.rel_off, p.len)).collect();
        assert_eq!(
            spans,
            [
                (60 << 10, 4 << 10),
                (64 << 10, 64 << 10),
                (128 << 10, 12 << 10)
            ]
        );
        let mut out = vec![0u8; len as usize];
        index.read_slot(&hdr, rel, &mut out).unwrap();
        assert_eq!(out, v1[rel as usize..(rel + len) as usize]);
    }

    #[test]
    fn a_range_past_the_map_or_a_short_extent_is_corrupt() {
        let (dev, index, mut mi, cfg) = world();
        stage(&index, &mut mi, 0, 1);
        seal_slot(&index, &mut mi, 0, 1, &cfg).unwrap();
        let hdr = mi.slots[0];
        let corrupt = |r: PortusResult<Vec<SlotPiece>>| {
            matches!(r, Err(PortusError::Pmem(PmemError::Corrupt(_))))
        };
        assert!(corrupt(index.slot_pieces(&hdr, BYTES - 1, 2)));
        // Point chunk 1 at an 8 KiB extent: its length no longer
        // matches the map's chunking.
        let short = index
            .extent_store()
            .unwrap()
            .insert_or_ref(&[7u8; 8 << 10], index.allocator())
            .unwrap();
        typed::write_u32(&dev, hdr.ext_map + XM_ENTRIES + XM_ENTRY_SIZE, short.slot).unwrap();
        assert!(corrupt(index.slot_pieces(&hdr, 0, BYTES)));
        assert!(
            index.slot_pieces(&hdr, 0, 64 << 10).is_ok(),
            "chunk 0 is untouched"
        );
    }
}
