//! The persistent three-level index: ModelTable → MIndex → TensorData.
//!
//! Exactly the structure of §III-D1:
//!
//! * **ModelTable** — a fixed array of 32-byte entries at the head of
//!   the devdax namespace, mapping a model-name hash to the PMem offset
//!   of its MIndex record (`info_offset`). Entries are claimed with an
//!   8-byte CAS on their state word — the paper's "compare & swap
//!   intrinsic to ensure the lock-free of the whole system".
//! * **MIndex** — one record per model: the name, layer count, total
//!   bytes, a fixed-size table of per-tensor metadata (name, dtype,
//!   shape, size, relative data offset), and **two** slot headers — the
//!   double mapping of §III-D2 that keeps one complete version durable
//!   while the other is being overwritten.
//! * **TensorData** — two page-aligned data regions per model (one per
//!   slot) allocated from the [`PmemAllocator`]; tensor `i` of slot `s`
//!   lives at `slots[s].data_off + tensors[i].rel_off`.
//!
//! Persistence ordering (all enforced here):
//! 1. a ModelTable entry goes live only after its MIndex and data
//!    regions are fully persisted;
//! 2. a slot is marked `Active` (invalid) before any data lands in it;
//! 3. a slot is marked `Done` only after its data and digest are
//!    persisted — so recovery trusts exactly the `Done` slots.

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use portus_dnn::{DType, TensorMeta};
use portus_pmem::{typed, ExtentStore, PmemAlloc, PmemAllocator, PmemDevice};
use portus_sim::hash::{fnv1a, splitmix64, Fnv1a};

use crate::catalog::{Catalog, CatalogConfig};
use crate::dedup::read_extent_map;
use crate::{ModelMap, PortusError, PortusResult};

const SUPER_MAGIC: u64 = 0x504F_5254_5553_5342; // "PORTUSSB"
const MINDEX_MAGIC: u32 = 0x4D49_4458; // "MIDX"

/// Superblock word holding the extent-table offset (0 = dedup never
/// enabled on this namespace).
const SUPER_XT_OFF: u64 = 48;

/// Superblock word holding the catalog's root-block offset
/// (0 = catalog never enabled on this namespace). Flipping this word
/// is the commit point for catalog root rebuilds — see
/// [`crate::Catalog`].
const SUPER_CAT_OFF: u64 = 56;

/// Allocator tag for the extent table region itself.
pub(crate) const EXTENT_TABLE_TAG: u64 = 0x5854_4241_5354_4247; // "XTBASTBG"

const SUPER_SIZE: u64 = 64;
const TABLE_ENTRY_SIZE: u64 = 32;

// Table entry states (CAS'd).
const ENTRY_EMPTY: u64 = 0;
const ENTRY_CLAIMED: u64 = 1;
const ENTRY_LIVE: u64 = 2;

// MIndex record layout.
const MI_FLAGS: u64 = 8;
const MI_LAYERS: u64 = 16;
const MI_TOTAL: u64 = 24;
const MI_NAME: u64 = 32;
const MI_NAME_MAX: usize = 254;
const MI_SLOT0: u64 = 320;
const SLOT_HDR_SIZE: u64 = 64;
const MI_TENSORS: u64 = MI_SLOT0 + 2 * SLOT_HDR_SIZE;

// Tensor record layout (within the MIndex tensor table).
const TREC_SIZE: u64 = 184;
const TREC_NAME_MAX: usize = 126;
const TREC_DTYPE: u64 = 128;
const TREC_NDIM: u64 = 129;
const TREC_DIMS: u64 = 136;
const TREC_MAX_DIMS: usize = 4;
const TREC_LEN: u64 = 168;
const TREC_RELOFF: u64 = 176;

// Slot header fields (relative to the slot header offset). All eight
// words live in the header's single 64-byte cache line, so every header
// write costs one line flush and the state word flips atomically.
const SH_STATE: u64 = 0;
const SH_VERSION: u64 = 8;
const SH_DATA_OFF: u64 = 24;
const SH_DATA_LEN: u64 = 32;
const SH_DIGEST: u64 = 40;
const SH_EXT_MAP: u64 = 56;
/// Reserved header words (offsets 16 and 48), always written as zero.
/// They held a retired sequential-checksum scheme; a slot sealed under
/// it carries no valid digest and fails restore verification.
const SH_RESERVED: [u64; 2] = [16, 48];

/// Flag bit: the training job using this model finished (repacker may
/// reclaim everything but the latest version).
pub const FLAG_JOB_COMPLETE: u64 = 1;

/// Number of checkpoint slots per model — the double mapping.
pub const SLOT_COUNT: usize = 2;

/// State of one checkpoint slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotState {
    /// Never written.
    Empty,
    /// A checkpoint into this slot started and has not completed —
    /// its data must not be trusted.
    Active,
    /// A complete, digest-sealed version.
    Done,
}

impl SlotState {
    fn to_u64(self) -> u64 {
        match self {
            SlotState::Empty => 0,
            SlotState::Active => 1,
            SlotState::Done => 2,
        }
    }

    fn from_u64(v: u64) -> PortusResult<SlotState> {
        Ok(match v {
            0 => SlotState::Empty,
            1 => SlotState::Active,
            2 => SlotState::Done,
            other => {
                return Err(PortusError::Daemon(format!("corrupt slot state {other}")));
            }
        })
    }
}

/// One slot header, as stored on PMem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotHeader {
    /// The slot's state.
    pub state: SlotState,
    /// Version number of the checkpoint in this slot.
    pub version: u64,
    /// Absolute PMem offset of the slot's TensorData region.
    pub data_off: u64,
    /// Region length (= the model's total bytes).
    pub data_len: u64,
    /// Positional digest of the data region (valid when `Done`). See
    /// [`region_digest`].
    pub digest: u64,
    /// Absolute PMem offset of the slot's extent map, when the dedup
    /// tier holds this version as content-addressed extents instead of
    /// a contiguous region (`data_off` is 0 then). 0 on the plain path.
    pub ext_map: u64,
}

/// The `len` bytes at slot-relative `rel_off` of a version live at
/// device offset `dev_off` ([`Index::slot_pieces`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SlotPiece {
    pub dev_off: u64,
    pub rel_off: u64,
    pub len: u64,
}

/// One tensor's record in an MIndex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TensorRecord {
    /// The tensor metadata.
    pub meta: TensorMeta,
    /// Offset of this tensor within each slot's data region.
    pub rel_off: u64,
}

/// A DRAM view of one MIndex record.
#[derive(Debug, Clone)]
pub struct MIndex {
    /// Absolute PMem offset of the record.
    pub offset: u64,
    /// Model name.
    pub name: String,
    /// Flag bits ([`FLAG_JOB_COMPLETE`]).
    pub flags: u64,
    /// Total checkpoint payload bytes.
    pub total_bytes: u64,
    /// Per-tensor records in layer order.
    pub tensors: Vec<TensorRecord>,
    /// The two slot headers.
    pub slots: [SlotHeader; SLOT_COUNT],
}

impl MIndex {
    /// The latest complete version: `(slot_index, header)`.
    pub fn latest_done(&self) -> Option<(usize, SlotHeader)> {
        self.slots
            .iter()
            .copied()
            .enumerate()
            .filter(|(_, s)| s.state == SlotState::Done)
            .max_by_key(|(_, s)| s.version)
    }

    /// The slot a new checkpoint must target: never the latest `Done`
    /// slot, so one complete version always survives.
    pub fn target_slot(&self) -> usize {
        match self.latest_done() {
            Some((latest_idx, _)) => 1 - latest_idx,
            None => {
                // No complete version yet: prefer an Empty slot, else 0.
                self.slots
                    .iter()
                    .position(|s| s.state == SlotState::Empty)
                    .unwrap_or(0)
            }
        }
    }

    /// Number of `Done` slots.
    pub fn valid_versions(&self) -> u8 {
        self.slots
            .iter()
            .filter(|s| s.state == SlotState::Done)
            .count() as u8
    }

    /// The `Done` slot holding exactly `version`, if still on PMem.
    pub fn done_version(&self, version: u64) -> Option<(usize, SlotHeader)> {
        self.slots
            .iter()
            .copied()
            .enumerate()
            .find(|(_, s)| s.state == SlotState::Done && s.version == version)
    }

    /// Every `Done` version currently on PMem, ascending.
    pub fn done_versions(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .slots
            .iter()
            .filter(|s| s.state == SlotState::Done)
            .map(|s| s.version)
            .collect();
        v.sort_unstable();
        v
    }

    /// The version the next checkpoint must use: one past the largest
    /// version either slot header carries, *regardless of state*.
    /// `latest_done()` alone is not enough — after a rollback collapses
    /// the newest `Done` slot, its issued version must not be reused
    /// (a client may have observed it), so collapsed/reverted headers
    /// keep their version as a high-water mark.
    pub fn next_version(&self) -> u64 {
        self.slots.iter().map(|s| s.version).max().unwrap_or(0) + 1
    }
}

/// Positional digest of `bytes`, which sit at slot-relative offset
/// `base` within their data region: each byte contributes
/// `(b + 1) * splitmix64(base + i)` and contributions combine with
/// wrapping addition. Because addition is commutative and associative,
/// digests of disjoint chunks that tile a region can be computed in any
/// order — or on any queue pair — and summed with [`combine_digests`]
/// to equal the whole region's digest, which is what lets the
/// datapath digest each WQE run as its completion drains instead of
/// re-reading the full slot afterwards. The `+ 1` keeps zero bytes from
/// vanishing, so a region of zeros at the wrong offset still mismatches.
pub fn region_digest(bytes: &[u8], base: u64) -> u64 {
    let mut acc = 0u64;
    for (i, &b) in bytes.iter().enumerate() {
        acc = acc.wrapping_add((b as u64 + 1).wrapping_mul(splitmix64(base + i as u64)));
    }
    acc
}

/// Combines the positional digests of two disjoint chunks of one data
/// region (order-independent).
pub fn combine_digests(a: u64, b: u64) -> u64 {
    a.wrapping_add(b)
}

/// FNV-1a over a string (the ModelTable name hash).
pub fn name_hash(name: &str) -> u64 {
    fnv1a(name.as_bytes())
}

/// Size of the reusable device-I/O scratch buffer.
const IO_BUF_LEN: usize = 256 * 1024;

thread_local! {
    /// One scratch buffer per thread for the seal and verify loops;
    /// the hot paths previously allocated 256 KiB per call.
    static IO_BUF: RefCell<Vec<u8>> = RefCell::new(vec![0u8; IO_BUF_LEN]);
}

/// Runs `f` with this thread's reusable I/O scratch buffer. Callers
/// must not re-enter (the buffer is exclusively borrowed).
fn with_io_buf<T>(f: impl FnOnce(&mut [u8]) -> T) -> T {
    IO_BUF.with(|buf| f(&mut buf.borrow_mut()))
}

/// The persistent index over one devdax namespace.
#[derive(Debug)]
pub struct Index {
    dev: Arc<PmemDevice>,
    alloc: PmemAllocator,
    table_base: u64,
    table_cap: u32,
    /// The content-addressed extent store, present once dedup is
    /// enabled (or recovered from a namespace that had it enabled).
    extents: OnceLock<ExtentStore>,
    /// The micro-paged catalog, present once enabled (or
    /// recovered from a namespace that had it enabled).
    catalog: OnceLock<Catalog>,
}

impl Index {
    /// Formats a fresh namespace: superblock, empty ModelTable with
    /// `table_cap` entries, and an allocator with `alloc_slots` slots
    /// over the rest of the device.
    ///
    /// # Errors
    ///
    /// Device bounds errors if the namespace is too small.
    pub fn format(dev: Arc<PmemDevice>, table_cap: u32, alloc_slots: u32) -> PortusResult<Index> {
        let table_base = SUPER_SIZE;
        let table_size = table_cap as u64 * TABLE_ENTRY_SIZE;
        let alloc_base = table_base + table_size;
        let heap_base = (alloc_base + PmemAllocator::table_size(alloc_slots) + 4095) & !4095;
        let heap_end = dev.capacity();

        // Superblock.
        let mut sb = Vec::with_capacity(SUPER_SIZE as usize);
        sb.extend_from_slice(&SUPER_MAGIC.to_le_bytes());
        sb.extend_from_slice(&1u32.to_le_bytes());
        sb.extend_from_slice(&table_cap.to_le_bytes());
        sb.extend_from_slice(&table_base.to_le_bytes());
        sb.extend_from_slice(&alloc_base.to_le_bytes());
        sb.extend_from_slice(&heap_base.to_le_bytes());
        sb.extend_from_slice(&heap_end.to_le_bytes());
        sb.resize(SUPER_SIZE as usize, 0);
        dev.write(0, &sb)?;
        // Zero the table.
        dev.write(table_base, &vec![0u8; table_size as usize])?;
        dev.persist(0, table_base + table_size)?;

        let alloc =
            PmemAllocator::format(dev.clone(), alloc_base, alloc_slots, heap_base, heap_end)?;
        Ok(Index {
            dev,
            alloc,
            table_base,
            table_cap,
            extents: OnceLock::new(),
            catalog: OnceLock::new(),
        })
    }

    /// Recovers the index from a previously formatted namespace and
    /// rebuilds the in-DRAM [`ModelMap`]. Allocations not *reachable*
    /// from any live table entry (leaked by a crash mid-registration or
    /// mid-extent-seal) are freed. Reachability is by offset, never by
    /// name-hash tag alone: two live models whose names collide in
    /// FNV-1a share a tag, and a tag-only sweep would free the
    /// survivor's regions when either is removed.
    ///
    /// When the superblock records an extent table, the extent store is
    /// recovered too: every persistent refcount is recounted from the
    /// live slots' extent maps (the durable counts are advisory — a crash can tear an
    /// incref/decref), and extents no map references are swept. The
    /// recount is what guarantees recovery never frees a referenced
    /// extent and never leaks an unreferenced one.
    ///
    /// # Errors
    ///
    /// [`PortusError::Daemon`] on bad magic; corruption errors from the
    /// allocator.
    pub fn recover(dev: Arc<PmemDevice>) -> PortusResult<(Index, ModelMap)> {
        if typed::read_u64(&dev, 0)? != SUPER_MAGIC {
            return Err(PortusError::Daemon("bad superblock magic".into()));
        }
        let table_cap = typed::read_u32(&dev, 12)?;
        let table_base = typed::read_u64(&dev, 16)?;
        let alloc_base = typed::read_u64(&dev, 24)?;
        let alloc = PmemAllocator::recover(dev.clone(), alloc_base)?;
        let index = Index {
            dev,
            alloc,
            table_base,
            table_cap,
            extents: OnceLock::new(),
            catalog: OnceLock::new(),
        };

        let mut map = ModelMap::new();
        let mut reachable: HashSet<u64> = HashSet::new();
        let mut ext_maps: Vec<u64> = Vec::new();
        for slot in 0..table_cap {
            let entry = index.entry_offset(slot);
            let state = typed::read_u64(&index.dev, entry)?;
            match state {
                ENTRY_LIVE => {
                    let off = typed::read_u64(&index.dev, entry + 16)?;
                    let mi = index.load_mindex(off)?;
                    reachable.insert(off);
                    for (s, hdr) in mi.slots.iter().enumerate() {
                        if hdr.ext_map != 0 {
                            // Extent publish detaches the staging region
                            // atomically; a header carrying both is
                            // defensive debris — the extents won, the
                            // region is dropped for the GC below.
                            if hdr.data_off != 0 {
                                let sh = off + MI_SLOT0 + s as u64 * SLOT_HDR_SIZE;
                                typed::write_u64(&index.dev, sh + SH_DATA_OFF, 0)?;
                                index.dev.persist(sh + SH_DATA_OFF, 8)?;
                            }
                            reachable.insert(hdr.ext_map);
                            ext_maps.push(hdr.ext_map);
                        } else if hdr.data_off != 0 {
                            reachable.insert(hdr.data_off);
                        }
                    }
                    map.insert(mi.name.clone(), off);
                }
                ENTRY_CLAIMED => {
                    // Crash mid-registration: roll the claim back.
                    typed::write_u64(&index.dev, entry, ENTRY_EMPTY)?;
                    index.dev.persist(entry, 8)?;
                }
                _ => {}
            }
        }

        // Recover the extent store if this namespace has one.
        let xt_off = typed::read_u64(&index.dev, SUPER_XT_OFF)?;
        if xt_off != 0 {
            let store = ExtentStore::recover(index.dev.clone(), xt_off)?;
            // Recount refcounts from the live extent maps.
            let mut counts: HashMap<u32, u64> = HashMap::new();
            for &map_off in &ext_maps {
                for ext_slot in read_extent_map(&index.dev, map_off)?.extents {
                    *counts.entry(ext_slot).or_insert(0) += 1;
                }
            }
            for (ext_slot, rec) in store.live_extents()? {
                let count = counts.get(&ext_slot).copied().unwrap_or(0);
                if rec.refcount != count {
                    store.set_refcount(ext_slot, count)?;
                }
            }
            store.sweep_unreferenced(&index.alloc)?;
            reachable.insert(xt_off);
            for (_, rec) in store.live_extents()? {
                reachable.insert(rec.data_off);
            }
            let _ = index.extents.set(store);
        }

        // Recover the catalog if this namespace has one:
        // mount it, reconcile it against the authoritative table view
        // (covering the crash windows between a table publish/retire
        // and the matching catalog update), then mark its root and
        // pages reachable. Pages orphaned by a crash mid-split sit in
        // no current root, so the GC below reclaims them.
        if typed::read_u64(&index.dev, SUPER_CAT_OFF)? != 0 {
            let cat =
                Catalog::recover(index.dev.clone(), SUPER_CAT_OFF, &CatalogConfig::default())?;
            let live: Vec<(String, u64)> = map.iter().map(|(k, &v)| (k.clone(), v)).collect();
            cat.reconcile(&index.alloc, &live)?;
            reachable.insert(cat.root_offset());
            for off in cat.page_offsets()? {
                reachable.insert(off);
            }
            let _ = index.catalog.set(cat);
        }

        // GC every allocation nothing reachable references.
        for a in index.alloc.live_allocations() {
            if !reachable.contains(&a.offset) {
                index.alloc.free(&a)?;
            }
        }
        Ok((index, map))
    }

    /// Enables the content-addressed dedup tier: recovers the extent
    /// table recorded in the superblock, or formats a fresh one with
    /// `max_extents` records and publishes its offset. Idempotent.
    ///
    /// # Errors
    ///
    /// Allocation and device errors.
    pub fn enable_dedup(&self, max_extents: u32) -> PortusResult<()> {
        if self.extents.get().is_some() {
            return Ok(());
        }
        let xt_off = typed::read_u64(&self.dev, SUPER_XT_OFF)?;
        let store = if xt_off != 0 {
            ExtentStore::recover(self.dev.clone(), xt_off)?
        } else {
            let size = ExtentStore::table_size(max_extents);
            let region = self.alloc.alloc_aligned(size, 64, EXTENT_TABLE_TAG)?;
            let store = ExtentStore::format(self.dev.clone(), region.offset, max_extents)?;
            // Publish after the table is persisted; a crash in between
            // leaves the region unreachable and recovery GCs it.
            typed::write_u64(&self.dev, SUPER_XT_OFF, region.offset)?;
            self.dev.persist(SUPER_XT_OFF, 8)?;
            store
        };
        let _ = self.extents.set(store);
        Ok(())
    }

    /// The extent store, when dedup is enabled.
    pub fn extent_store(&self) -> Option<&ExtentStore> {
        self.extents.get()
    }

    /// Enables the micro-paged catalog: recovers the root recorded in
    /// the superblock (applying `cfg`'s cache clamp), or
    /// formats an empty catalog and publishes its root. Idempotent.
    ///
    /// # Errors
    ///
    /// Allocation and device errors.
    pub fn enable_catalog(&self, cfg: &CatalogConfig) -> PortusResult<()> {
        if let Some(cat) = self.catalog.get() {
            cat.set_runtime(cfg);
            return Ok(());
        }
        let root = typed::read_u64(&self.dev, SUPER_CAT_OFF)?;
        let cat = if root != 0 {
            Catalog::recover(self.dev.clone(), SUPER_CAT_OFF, cfg)?
        } else {
            Catalog::format(self.dev.clone(), &self.alloc, SUPER_CAT_OFF, cfg)?
        };
        let _ = self.catalog.set(cat);
        Ok(())
    }

    /// The catalog, when one is mounted on this namespace.
    pub fn catalog(&self) -> Option<&Catalog> {
        self.catalog.get()
    }

    fn entry_offset(&self, slot: u32) -> u64 {
        self.table_base + slot as u64 * TABLE_ENTRY_SIZE
    }

    /// The underlying device.
    pub fn device(&self) -> &Arc<PmemDevice> {
        &self.dev
    }

    /// The underlying allocator.
    pub fn allocator(&self) -> &PmemAllocator {
        &self.alloc
    }

    /// Creates a model: allocates and persists its MIndex and both
    /// TensorData slots, then publishes it in the ModelTable.
    ///
    /// # Errors
    ///
    /// [`PortusError::NameTooLong`] for oversized names or too many
    /// dims, allocation failures, and [`PortusError::CatalogFull`]
    /// when the table is full.
    pub fn create_model(&self, name: &str, metas: &[TensorMeta]) -> PortusResult<MIndex> {
        if name.len() > MI_NAME_MAX {
            return Err(PortusError::NameTooLong(name.to_string()));
        }
        for m in metas {
            if m.name.len() > TREC_NAME_MAX {
                return Err(PortusError::NameTooLong(m.name.clone()));
            }
            if m.shape.len() > TREC_MAX_DIMS {
                return Err(PortusError::StructureMismatch(format!(
                    "tensor {} has {} dims; max {TREC_MAX_DIMS}",
                    m.name,
                    m.shape.len()
                )));
            }
        }
        let hash = name_hash(name);
        let total_bytes = metas
            .iter()
            .try_fold(0u64, |acc, m| acc.checked_add(m.size_bytes()))
            .ok_or_else(|| {
                PortusError::StructureMismatch(format!("{name}: tensor bytes overflow u64"))
            })?;
        let mindex_size = MI_TENSORS + metas.len() as u64 * TREC_SIZE;

        let mi_alloc = self.alloc.alloc_aligned(mindex_size, 64, hash)?;
        // Frees what this call allocated, for every failure past here.
        let release = |data: &[PmemAlloc]| -> PortusResult<()> {
            for a in data.iter().chain([&mi_alloc]) {
                self.alloc.free(a)?;
            }
            Ok(())
        };
        let mut data = Vec::with_capacity(SLOT_COUNT);
        for _ in 0..SLOT_COUNT {
            match self.alloc.alloc_aligned(total_bytes.max(4096), 4096, hash) {
                Ok(d) => data.push(d),
                Err(e) => {
                    release(&data)?;
                    return Err(e.into());
                }
            }
        }

        let off = mi_alloc.offset;
        let dev = &self.dev;
        // Header.
        dev.write(off, &MINDEX_MAGIC.to_le_bytes())?;
        dev.write(off + 4, &1u32.to_le_bytes())?;
        typed::write_u64(dev, off + MI_FLAGS, 0)?;
        typed::write_u32(dev, off + MI_LAYERS, metas.len() as u32)?;
        typed::write_u32(dev, off + MI_LAYERS + 4, SLOT_COUNT as u32)?;
        typed::write_u64(dev, off + MI_TOTAL, total_bytes)?;
        typed::write_str(dev, off + MI_NAME, name)?;
        // Slot headers: Empty, with their data regions recorded.
        for (s, d) in data.iter().enumerate() {
            let sh = off + MI_SLOT0 + s as u64 * SLOT_HDR_SIZE;
            typed::write_u64(dev, sh + SH_STATE, SlotState::Empty.to_u64())?;
            typed::write_u64(dev, sh + SH_VERSION, 0)?;
            typed::write_u64(dev, sh + SH_DATA_OFF, d.offset)?;
            typed::write_u64(dev, sh + SH_DATA_LEN, total_bytes)?;
            self.write_digest(sh, 0)?;
            typed::write_u64(dev, sh + SH_EXT_MAP, 0)?;
        }
        // Tensor records.
        let mut rel = 0u64;
        let mut tensors = Vec::with_capacity(metas.len());
        for (i, m) in metas.iter().enumerate() {
            let t = off + MI_TENSORS + i as u64 * TREC_SIZE;
            typed::write_str(dev, t, &m.name)?;
            dev.write(t + TREC_DTYPE, &[m.dtype.code()])?;
            dev.write(t + TREC_NDIM, &[m.shape.len() as u8])?;
            for (d, dim) in m.shape.iter().enumerate() {
                typed::write_u64(dev, t + TREC_DIMS + d as u64 * 8, *dim)?;
            }
            typed::write_u64(dev, t + TREC_LEN, m.size_bytes())?;
            typed::write_u64(dev, t + TREC_RELOFF, rel)?;
            tensors.push(TensorRecord {
                meta: m.clone(),
                rel_off: rel,
            });
            rel += m.size_bytes();
        }
        dev.persist(off, mindex_size)?;

        // Publish: CAS-claim a table entry, fill it, go live.
        let mut published = false;
        for slot in 0..self.table_cap {
            let entry = self.entry_offset(slot);
            if self.dev.cas_u64(entry, ENTRY_EMPTY, ENTRY_CLAIMED)?.is_ok() {
                typed::write_u64(dev, entry + 8, hash)?;
                typed::write_u64(dev, entry + 16, off)?;
                dev.persist(entry + 8, 16)?;
                self.dev
                    .cas_u64_persist(entry, ENTRY_CLAIMED, ENTRY_LIVE)?
                    .map_err(|v| PortusError::Daemon(format!("entry state raced to {v}")))?;
                published = true;
                break;
            }
        }
        if !published {
            release(&data)?;
            return Err(PortusError::CatalogFull {
                capacity: self.table_cap,
            });
        }

        Ok(MIndex {
            offset: off,
            name: name.to_string(),
            flags: 0,
            total_bytes,
            tensors,
            slots: [
                SlotHeader {
                    state: SlotState::Empty,
                    version: 0,
                    data_off: data[0].offset,
                    data_len: total_bytes,
                    digest: 0,
                    ext_map: 0,
                },
                SlotHeader {
                    state: SlotState::Empty,
                    version: 0,
                    data_off: data[1].offset,
                    data_len: total_bytes,
                    digest: 0,
                    ext_map: 0,
                },
            ],
        })
    }

    /// Loads the MIndex record at `off` into DRAM.
    ///
    /// # Errors
    ///
    /// [`PortusError::Daemon`] on bad magic or corrupt fields.
    pub fn load_mindex(&self, off: u64) -> PortusResult<MIndex> {
        let dev = &self.dev;
        if typed::read_u32(dev, off)? != MINDEX_MAGIC {
            return Err(PortusError::Daemon(format!(
                "bad MIndex magic at offset {off}"
            )));
        }
        let flags = typed::read_u64(dev, off + MI_FLAGS)?;
        let layers = typed::read_u32(dev, off + MI_LAYERS)?;
        let total_bytes = typed::read_u64(dev, off + MI_TOTAL)?;
        let (name, _) = typed::read_str(dev, off + MI_NAME)?;

        let mut slots = [SlotHeader {
            state: SlotState::Empty,
            version: 0,
            data_off: 0,
            data_len: 0,
            digest: 0,
            ext_map: 0,
        }; SLOT_COUNT];
        for (s, slot) in slots.iter_mut().enumerate() {
            let sh = off + MI_SLOT0 + s as u64 * SLOT_HDR_SIZE;
            *slot = SlotHeader {
                state: SlotState::from_u64(typed::read_u64(dev, sh + SH_STATE)?)?,
                version: typed::read_u64(dev, sh + SH_VERSION)?,
                data_off: typed::read_u64(dev, sh + SH_DATA_OFF)?,
                data_len: typed::read_u64(dev, sh + SH_DATA_LEN)?,
                digest: typed::read_u64(dev, sh + SH_DIGEST)?,
                ext_map: typed::read_u64(dev, sh + SH_EXT_MAP)?,
            };
        }

        let mut tensors = Vec::with_capacity(layers as usize);
        for i in 0..layers {
            let t = off + MI_TENSORS + i as u64 * TREC_SIZE;
            let (tname, _) = typed::read_str(dev, t)?;
            let mut byte = [0u8; 1];
            dev.read(t + TREC_DTYPE, &mut byte)?;
            let dtype = DType::from_code(byte[0])
                .ok_or_else(|| PortusError::Daemon(format!("bad dtype code {}", byte[0])))?;
            dev.read(t + TREC_NDIM, &mut byte)?;
            let ndim = byte[0] as usize;
            let mut shape = Vec::with_capacity(ndim);
            for d in 0..ndim {
                shape.push(typed::read_u64(dev, t + TREC_DIMS + d as u64 * 8)?);
            }
            let rel_off = typed::read_u64(dev, t + TREC_RELOFF)?;
            tensors.push(TensorRecord {
                meta: TensorMeta::new(tname, dtype, shape),
                rel_off,
            });
        }
        Ok(MIndex {
            offset: off,
            name,
            flags,
            total_bytes,
            tensors,
            slots,
        })
    }

    /// Writes a header's integrity word and zeroes its reserved words
    /// (all in the header's one cache line; the caller persists).
    fn write_digest(&self, sh: u64, digest: u64) -> PortusResult<()> {
        typed::write_u64(&self.dev, sh + SH_DIGEST, digest)?;
        for word in SH_RESERVED {
            typed::write_u64(&self.dev, sh + word, 0)?;
        }
        Ok(())
    }

    /// Durably transitions a slot to `Active` with the new version
    /// (digest cleared). Step 2 of the persistence ordering.
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn mark_slot_active(&self, mi: &MIndex, slot: usize, version: u64) -> PortusResult<()> {
        let sh = mi.offset + MI_SLOT0 + slot as u64 * SLOT_HDR_SIZE;
        typed::write_u64(&self.dev, sh + SH_VERSION, version)?;
        self.write_digest(sh, 0)?;
        // One cache line holds the whole header, so this flush also
        // covers the digest word at no extra cost.
        self.dev.persist(sh + SH_VERSION, 16)?;
        typed::write_u64(&self.dev, sh + SH_STATE, SlotState::Active.to_u64())?;
        self.dev.persist(sh + SH_STATE, 8)?;
        Ok(())
    }

    /// Durably transitions a slot to `Done`, sealed with the positional
    /// `digest` of its data region (the combined per-run digests; see
    /// [`region_digest`]). Step 3 of the persistence ordering: data must
    /// already be persisted, and the digest is durable before the state
    /// word flips.
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn mark_slot_done(&self, mi: &MIndex, slot: usize, digest: u64) -> PortusResult<()> {
        let sh = mi.offset + MI_SLOT0 + slot as u64 * SLOT_HDR_SIZE;
        self.write_digest(sh, digest)?;
        self.dev.persist(sh + SH_DIGEST, 8)?;
        typed::write_u64(&self.dev, sh + SH_STATE, SlotState::Done.to_u64())?;
        self.dev.persist(sh + SH_STATE, 8)?;
        Ok(())
    }

    /// Durably restores a slot header to `pre` — the header captured
    /// just before [`Index::mark_slot_active`] — after a checkpoint that
    /// moved **no** data into the slot failed. Only `version`,
    /// `digest`, and (last, so a crash mid-revert still leaves the
    /// slot invalid) `state` are rewritten: `data_off`/`data_len` stay
    /// as they are, because [`Index::ensure_slot_region`] may have
    /// legitimately allocated a fresh region the slot keeps.
    ///
    /// The version field is special-cased to keep
    /// [`MIndex::next_version`]'s high-water invariant: when `pre` was
    /// `Done` the exact pre-call version is restored (the header must
    /// keep describing its still-valid data), but for a non-`Done` `pre`
    /// the *larger* of the pre-call version and the just-issued on-media
    /// version is kept, so the failed checkpoint's version number is
    /// never reissued.
    ///
    /// Must not be used when any data landed in a previously-`Done`
    /// slot — the old bytes are clobbered and the pre-call digest
    /// would falsely validate them; use [`Index::collapse_slot`] there.
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn revert_slot(&self, mi: &MIndex, slot: usize, pre: &SlotHeader) -> PortusResult<()> {
        let sh = mi.offset + MI_SLOT0 + slot as u64 * SLOT_HDR_SIZE;
        let version = if pre.state == SlotState::Done {
            pre.version
        } else {
            pre.version
                .max(typed::read_u64(&self.dev, sh + SH_VERSION)?)
        };
        typed::write_u64(&self.dev, sh + SH_VERSION, version)?;
        self.write_digest(sh, pre.digest)?;
        self.dev.persist(sh + SH_VERSION, 16)?;
        typed::write_u64(&self.dev, sh + SH_STATE, pre.state.to_u64())?;
        self.dev.persist(sh + SH_STATE, 8)?;
        Ok(())
    }

    /// Durably collapses a slot to `Empty` with the digest cleared,
    /// abandoning whatever partial data a failed checkpoint left in its
    /// region. The region itself stays attached for reuse, and the
    /// slot's version is deliberately *kept*: it was already issued to
    /// the failed checkpoint, and [`MIndex::next_version`] uses it as a
    /// high-water mark so the number is never handed out twice.
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn collapse_slot(&self, mi: &MIndex, slot: usize) -> PortusResult<()> {
        let sh = mi.offset + MI_SLOT0 + slot as u64 * SLOT_HDR_SIZE;
        self.write_digest(sh, 0)?;
        self.dev.persist(sh + SH_DIGEST, 8)?;
        typed::write_u64(&self.dev, sh + SH_STATE, SlotState::Empty.to_u64())?;
        self.dev.persist(sh + SH_STATE, 8)?;
        Ok(())
    }

    /// Durably detaches a slot's data region (repacker): the slot
    /// becomes `Empty` with `data_off = 0`. The region itself must be
    /// freed by the caller. Unlike [`Index::collapse_slot`], the version
    /// is zeroed too: reclaiming a slot is an explicit statement that
    /// its never-acknowledged version is forgotten, so the model's
    /// version sequence resumes from the surviving headers.
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn clear_slot_region(&self, mi: &MIndex, slot: usize) -> PortusResult<()> {
        let sh = mi.offset + MI_SLOT0 + slot as u64 * SLOT_HDR_SIZE;
        typed::write_u64(&self.dev, sh + SH_STATE, SlotState::Empty.to_u64())?;
        typed::write_u64(&self.dev, sh + SH_VERSION, 0)?;
        typed::write_u64(&self.dev, sh + SH_DATA_OFF, 0)?;
        self.write_digest(sh, 0)?;
        typed::write_u64(&self.dev, sh + SH_EXT_MAP, 0)?;
        self.dev.persist(sh, SLOT_HDR_SIZE)?;
        Ok(())
    }

    /// Durably seals an `Active` slot as an extent-mapped version, in
    /// one header persist: `{state Done, version, digest, data_off 0,
    /// ext_map map_off}`. The dedup tier's counterpart of
    /// [`Index::mark_slot_done`]: the extents and the map must already
    /// be persisted. The header is a single cache line, so the flip is
    /// atomic — a crash leaves either the `Active` slot over its
    /// staging region or the sealed map, never a mix. The caller frees
    /// the detached staging region afterwards (a crash in between
    /// leaves it unreachable, and recovery GCs it).
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn seal_slot_extents(
        &self,
        mi: &MIndex,
        slot: usize,
        version: u64,
        digest: u64,
        map_off: u64,
    ) -> PortusResult<()> {
        let sh = mi.offset + MI_SLOT0 + slot as u64 * SLOT_HDR_SIZE;
        typed::write_u64(&self.dev, sh + SH_VERSION, version)?;
        self.write_digest(sh, digest)?;
        typed::write_u64(&self.dev, sh + SH_DATA_OFF, 0)?;
        typed::write_u64(&self.dev, sh + SH_EXT_MAP, map_off)?;
        typed::write_u64(&self.dev, sh + SH_STATE, SlotState::Done.to_u64())?;
        self.dev.persist(sh, SLOT_HDR_SIZE)?;
        Ok(())
    }

    /// Durably empties an extent-mapped slot in one header persist:
    /// `state = Empty`, integrity words cleared, `ext_map = 0`; the
    /// version survives as the high-water mark (like
    /// [`Index::collapse_slot`]). The caller drops the extent
    /// references and frees the map region *afterwards* — a crash in
    /// between only over-counts refcounts, which recovery recounts from
    /// the surviving maps.
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn detach_slot_extents(&self, mi: &MIndex, slot: usize) -> PortusResult<()> {
        let sh = mi.offset + MI_SLOT0 + slot as u64 * SLOT_HDR_SIZE;
        typed::write_u64(&self.dev, sh + SH_STATE, SlotState::Empty.to_u64())?;
        self.write_digest(sh, 0)?;
        typed::write_u64(&self.dev, sh + SH_EXT_MAP, 0)?;
        self.dev.persist(sh, SLOT_HDR_SIZE)?;
        Ok(())
    }

    /// Ensures a slot has a data region, re-allocating one if the
    /// repacker reclaimed it. Returns the (possibly updated) header.
    ///
    /// # Errors
    ///
    /// Allocation and device errors.
    pub fn ensure_slot_region(&self, mi: &mut MIndex, slot: usize) -> PortusResult<SlotHeader> {
        if mi.slots[slot].data_off == 0 {
            let hash = name_hash(&mi.name);
            let region = self
                .alloc
                .alloc_aligned(mi.total_bytes.max(4096), 4096, hash)?;
            let sh = mi.offset + MI_SLOT0 + slot as u64 * SLOT_HDR_SIZE;
            typed::write_u64(&self.dev, sh + SH_DATA_OFF, region.offset)?;
            typed::write_u64(&self.dev, sh + SH_DATA_LEN, mi.total_bytes)?;
            self.dev.persist(sh + SH_DATA_OFF, 16)?;
            mi.slots[slot].data_off = region.offset;
            mi.slots[slot].data_len = mi.total_bytes;
        }
        Ok(mi.slots[slot])
    }

    /// Durably sets the job-complete flag.
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn set_job_complete(&self, mi: &MIndex) -> PortusResult<()> {
        let flags = typed::read_u64(&self.dev, mi.offset + MI_FLAGS)? | FLAG_JOB_COMPLETE;
        typed::write_u64(&self.dev, mi.offset + MI_FLAGS, flags)?;
        self.dev.persist(mi.offset + MI_FLAGS, 8)?;
        Ok(())
    }

    /// Where the bytes `[rel_off, rel_off + len)` of the version in
    /// `hdr` live on the device, in offset order: one piece for a plain
    /// slot, one per touched extent for an extent-mapped one
    /// ([`crate::dedup::extent_pieces`]). Every reader of a slot's bytes
    /// walks this list.
    ///
    /// # Errors
    ///
    /// Those of [`crate::dedup::extent_pieces`].
    pub(crate) fn slot_pieces(
        &self,
        hdr: &SlotHeader,
        rel_off: u64,
        len: u64,
    ) -> PortusResult<Vec<SlotPiece>> {
        if hdr.ext_map != 0 {
            return crate::dedup::extent_pieces(self, hdr.ext_map, rel_off, len);
        }
        let dev_off = hdr.data_off + rel_off;
        Ok(vec![SlotPiece {
            dev_off,
            rel_off,
            len,
        }])
    }

    /// Streams the bytes `pieces` cover, in order, through the bounded
    /// per-thread I/O buffer: `f(chunk, slot-relative offset)`.
    fn walk(&self, pieces: &[SlotPiece], mut f: impl FnMut(&[u8], u64)) -> PortusResult<()> {
        with_io_buf(|buf| {
            for p in pieces {
                let mut pos = 0u64;
                while pos < p.len {
                    let chunk = ((p.len - pos) as usize).min(buf.len());
                    self.dev.read(p.dev_off + pos, &mut buf[..chunk])?;
                    f(&buf[..chunk], p.rel_off + pos);
                    pos += chunk as u64;
                }
            }
            Ok(())
        })
    }

    /// Reads the bytes at slot-relative `rel_off` of the version in
    /// `hdr` into `out`, through its pieces.
    pub(crate) fn read_slot(
        &self,
        hdr: &SlotHeader,
        rel_off: u64,
        out: &mut [u8],
    ) -> PortusResult<()> {
        let pieces = self.slot_pieces(hdr, rel_off, out.len() as u64)?;
        self.walk(&pieces, |chunk, rel| {
            out[(rel - rel_off) as usize..][..chunk.len()].copy_from_slice(chunk);
        })
    }

    /// FNV-1a of a slot's bytes (reads PMem). A content fingerprint
    /// for tooling; slot headers are sealed and verified with
    /// [`Index::slot_digest`].
    ///
    /// # Errors
    ///
    /// Device errors, and those of `Index::slot_pieces`.
    pub fn slot_checksum(&self, mi: &MIndex, slot: usize) -> PortusResult<u64> {
        let hdr = mi.slots[slot];
        let mut hash = Fnv1a::new();
        self.walk(&self.slot_pieces(&hdr, 0, hdr.data_len)?, |chunk, _| {
            hash.update(chunk);
        })?;
        Ok(hash.finish())
    }

    /// Positional digest of a slot's bytes (reads PMem) — the value a
    /// `Done` header is sealed with. Because [`region_digest`] keys
    /// each byte by its slot-relative offset and chunks combine with
    /// [`combine_digests`], this matches the sum of per-run digests the
    /// datapath sealed with, in any order and at any chunking.
    ///
    /// # Errors
    ///
    /// Device errors, and those of `Index::slot_pieces`.
    pub fn slot_digest(&self, mi: &MIndex, slot: usize) -> PortusResult<u64> {
        let hdr = mi.slots[slot];
        self.pieces_digest(&self.slot_pieces(&hdr, 0, hdr.data_len)?)
    }

    /// Positional digest of the bytes `pieces` cover.
    pub(crate) fn pieces_digest(&self, pieces: &[SlotPiece]) -> PortusResult<u64> {
        let mut acc = 0;
        self.walk(pieces, |chunk, rel| {
            acc = combine_digests(acc, region_digest(chunk, rel));
        })?;
        Ok(acc)
    }

    /// Removes a model: clears its table entry first (so recovery never
    /// sees it again), then frees its allocations. Ownership is decided
    /// by the offsets the model's own MIndex references — **never** by
    /// the name-hash tag alone, because FNV-1a collisions between two
    /// live model names would otherwise free the other model's MIndex
    /// and TensorData. The tag check stays as a belt-and-braces filter.
    ///
    /// Extent-mapped slots drop their references first, so shared
    /// extents survive for the other fine-tunes that hold them; the
    /// refcount-0 residue is left for the repacker's sweep.
    ///
    /// # Errors
    ///
    /// Device/allocator errors.
    pub fn remove_model(&self, mi: &MIndex) -> PortusResult<()> {
        self.remove_model_at(&mi.name, mi.offset)
    }

    /// [`Index::remove_model`] addressed by `(name, offset)` directly.
    /// Callers that already resolved the name (the daemon's drop path)
    /// use this to avoid loading the MIndex twice: the record is read
    /// exactly once here, *after* the table entry is retired, so the
    /// headers freed below can never predate a concurrent reclaim or
    /// extent publish.
    ///
    /// # Errors
    ///
    /// Device/allocator errors.
    pub fn remove_model_at(&self, name: &str, offset: u64) -> PortusResult<()> {
        let hash = name_hash(name);
        for slot in 0..self.table_cap {
            let entry = self.entry_offset(slot);
            if typed::read_u64(&self.dev, entry)? == ENTRY_LIVE
                && typed::read_u64(&self.dev, entry + 8)? == hash
                && typed::read_u64(&self.dev, entry + 16)? == offset
            {
                typed::write_u64(&self.dev, entry, ENTRY_EMPTY)?;
                self.dev.persist(entry, 8)?;
                break;
            }
        }
        // The single authoritative read of the record being removed.
        let mi = self.load_mindex(offset)?;
        let mut owned: BTreeSet<u64> = BTreeSet::new();
        owned.insert(mi.offset);
        for hdr in &mi.slots {
            if hdr.data_off != 0 {
                owned.insert(hdr.data_off);
            }
            if hdr.ext_map != 0 {
                owned.insert(hdr.ext_map);
                if let Some(store) = self.extents.get() {
                    for ext_slot in read_extent_map(&self.dev, hdr.ext_map)?.extents {
                        store.decref(ext_slot)?;
                    }
                }
            }
        }
        for off in owned {
            if let Some(a) = self.alloc.live_at(off).filter(|a| a.tag == hash) {
                self.alloc.free(&a)?;
            }
        }
        Ok(())
    }

    /// All live (hash, mindex offset) table entries.
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn live_entries(&self) -> PortusResult<Vec<(u64, u64)>> {
        let mut out = Vec::new();
        for slot in 0..self.table_cap {
            let entry = self.entry_offset(slot);
            if typed::read_u64(&self.dev, entry)? == ENTRY_LIVE {
                out.push((
                    typed::read_u64(&self.dev, entry + 8)?,
                    typed::read_u64(&self.dev, entry + 16)?,
                ));
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portus_pmem::{CrashSpec, PmemMode};
    use portus_sim::SimContext;

    fn fresh() -> (Arc<PmemDevice>, Index) {
        let dev = PmemDevice::new(SimContext::icdcs24(), PmemMode::DevDax, 64 << 20);
        let index = Index::format(dev.clone(), 32, 256).unwrap();
        (dev, index)
    }

    fn metas(n: usize, bytes: u64) -> Vec<TensorMeta> {
        (0..n)
            .map(|i| TensorMeta::new(format!("t{i}"), DType::F32, vec![bytes / 4]))
            .collect()
    }

    #[test]
    fn create_and_load_round_trips() {
        let (_dev, index) = fresh();
        let mi = index.create_model("bert", &metas(5, 4096)).unwrap();
        assert_eq!(mi.total_bytes, 5 * 4096);
        assert_eq!(mi.tensors.len(), 5);
        assert_eq!(mi.tensors[3].rel_off, 3 * 4096);
        let loaded = index.load_mindex(mi.offset).unwrap();
        assert_eq!(loaded.name, "bert");
        assert_eq!(loaded.tensors, mi.tensors);
        assert_eq!(loaded.slots[0].data_off, mi.slots[0].data_off);
        assert_ne!(loaded.slots[0].data_off, loaded.slots[1].data_off);
    }

    #[test]
    fn data_slots_are_page_aligned_and_disjoint() {
        let (_dev, index) = fresh();
        let mi = index.create_model("m", &metas(3, 1000)).unwrap();
        for s in mi.slots {
            assert_eq!(s.data_off % 4096, 0);
        }
        let (a, b) = (mi.slots[0], mi.slots[1]);
        assert!(a.data_off + a.data_len <= b.data_off || b.data_off + b.data_len <= a.data_off);
    }

    #[test]
    fn target_slot_never_hits_latest_done() {
        let (_dev, index) = fresh();
        let mut mi = index.create_model("m", &metas(1, 64)).unwrap();
        assert_eq!(mi.target_slot(), 0);
        index.mark_slot_active(&mi, 0, 1).unwrap();
        index.mark_slot_done(&mi, 0, 0xAB).unwrap();
        mi = index.load_mindex(mi.offset).unwrap();
        assert_eq!(mi.latest_done().unwrap().0, 0);
        assert_eq!(mi.target_slot(), 1);
        index.mark_slot_active(&mi, 1, 2).unwrap();
        index.mark_slot_done(&mi, 1, 0xCD).unwrap();
        mi = index.load_mindex(mi.offset).unwrap();
        assert_eq!(mi.latest_done().unwrap(), (1, mi.slots[1]));
        assert_eq!(mi.target_slot(), 0);
        assert_eq!(mi.valid_versions(), 2);
    }

    #[test]
    fn revert_slot_restores_the_pre_call_header() {
        let (_dev, index) = fresh();
        let mut mi = index.create_model("m", &metas(1, 64)).unwrap();
        // v1 lands in slot 0 and completes.
        index.mark_slot_active(&mi, 0, 1).unwrap();
        index.mark_slot_done(&mi, 0, 0xAB).unwrap();
        mi = index.load_mindex(mi.offset).unwrap();
        // v2 targets slot 1; its pull fails with nothing landed.
        let pre = mi.slots[1];
        index.mark_slot_active(&mi, 1, 2).unwrap();
        index.revert_slot(&mi, 1, &pre).unwrap();
        let after = index.load_mindex(mi.offset).unwrap();
        assert_eq!(after.slots[1].state, pre.state);
        assert_eq!(after.slots[1].digest, pre.digest);
        assert_eq!(after.slots[1].data_off, pre.data_off);
        // The issued version survives as a high-water mark: v2 was
        // handed out, so the next checkpoint must be v3, not v2 again.
        assert_eq!(after.slots[1].version, 2);
        assert_eq!(after.next_version(), 3);
        assert_eq!(after.latest_done().unwrap().1.version, 1);
    }

    #[test]
    fn revert_of_a_done_pre_header_is_byte_identical() {
        let (_dev, index) = fresh();
        let mut mi = index.create_model("m", &metas(1, 64)).unwrap();
        index.mark_slot_active(&mi, 0, 5).unwrap();
        index.mark_slot_done(&mi, 0, 0xAB).unwrap();
        mi = index.load_mindex(mi.offset).unwrap();
        let pre = mi.slots[0];
        // A restore-side caller reverting a Done header gets it back
        // exactly: the data is still valid and the digest must match.
        index.revert_slot(&mi, 0, &pre).unwrap();
        let after = index.load_mindex(mi.offset).unwrap();
        assert_eq!(after.slots[0], pre);
    }

    #[test]
    fn collapse_slot_empties_but_keeps_the_region() {
        let (_dev, index) = fresh();
        let mut mi = index.create_model("m", &metas(1, 64)).unwrap();
        index.mark_slot_active(&mi, 0, 1).unwrap();
        mi = index.load_mindex(mi.offset).unwrap();
        let data_off = mi.slots[0].data_off;
        index.collapse_slot(&mi, 0).unwrap();
        let after = index.load_mindex(mi.offset).unwrap();
        assert_eq!(after.slots[0].state, SlotState::Empty);
        assert_eq!(
            after.slots[0].version, 1,
            "the issued version is the high-water mark"
        );
        assert_eq!(after.next_version(), 2);
        assert_eq!(after.slots[0].digest, 0);
        assert_eq!(after.slots[0].data_off, data_off, "region stays attached");
        assert!(after.latest_done().is_none());
    }

    #[test]
    fn clear_slot_region_forgets_the_version() {
        let (_dev, index) = fresh();
        let mut mi = index.create_model("m", &metas(1, 64)).unwrap();
        index.mark_slot_active(&mi, 0, 7).unwrap();
        mi = index.load_mindex(mi.offset).unwrap();
        index.clear_slot_region(&mi, 0).unwrap();
        let after = index.load_mindex(mi.offset).unwrap();
        assert_eq!(after.slots[0].state, SlotState::Empty);
        assert_eq!(after.slots[0].version, 0, "explicit reclaim resets");
        assert_eq!(after.slots[0].data_off, 0);
        assert_eq!(after.next_version(), 1);
    }

    #[test]
    fn recovery_rebuilds_model_map() {
        let (dev, index) = fresh();
        index.create_model("alpha", &metas(2, 128)).unwrap();
        index.create_model("beta", &metas(3, 128)).unwrap();
        drop(index);
        dev.crash(CrashSpec::LoseAll);

        let (index2, map) = Index::recover(dev).unwrap();
        assert_eq!(map.len(), 2);
        let mi = index2.load_mindex(map["beta"]).unwrap();
        assert_eq!(mi.tensors.len(), 3);
    }

    #[test]
    fn recovery_gcs_orphan_allocations() {
        let (dev, index) = fresh();
        index.create_model("kept", &metas(1, 128)).unwrap();
        // Orphan: an allocation tagged with a hash that no live entry has.
        index.allocator().alloc(4096, 0xDEAD).unwrap();
        let live_before = index.allocator().live_allocations().len();
        assert_eq!(live_before, 4); // mindex + 2 slots + orphan
        drop(index);

        let (index2, _map) = Index::recover(dev).unwrap();
        assert_eq!(index2.allocator().live_allocations().len(), 3);
    }

    #[test]
    fn crash_before_publish_leaves_no_model() {
        let (dev, index) = fresh();
        // Simulate crash mid-create: MIndex persisted but entry only
        // CLAIMED. We emulate by claiming an entry manually.
        index.create_model("real", &metas(1, 64)).unwrap();
        let entry1 = SUPER_SIZE + TABLE_ENTRY_SIZE; // second entry
        dev.cas_u64_persist(entry1, ENTRY_EMPTY, ENTRY_CLAIMED)
            .unwrap()
            .unwrap();
        dev.crash(CrashSpec::LoseAll);

        let (index2, map) = Index::recover(dev).unwrap();
        assert_eq!(map.len(), 1);
        assert!(map.contains_key("real"));
        // The claimed entry was rolled back and is reusable.
        index2.create_model("second", &metas(1, 64)).unwrap();
    }

    #[test]
    fn remove_model_frees_space() {
        let (_dev, index) = fresh();
        let free0 = index.allocator().free_bytes();
        let mi = index.create_model("temp", &metas(4, 8192)).unwrap();
        assert!(index.allocator().free_bytes() < free0);
        index.remove_model(&mi).unwrap();
        assert_eq!(index.allocator().free_bytes(), free0);
        assert!(index.live_entries().unwrap().is_empty());
    }

    #[test]
    fn names_too_long_are_rejected() {
        let (_dev, index) = fresh();
        let long = "x".repeat(300);
        assert!(matches!(
            index.create_model(&long, &metas(1, 64)),
            Err(PortusError::NameTooLong(_))
        ));
        let bad_tensor = vec![TensorMeta::new("y".repeat(200), DType::F32, vec![16])];
        assert!(matches!(
            index.create_model("ok", &bad_tensor),
            Err(PortusError::NameTooLong(_))
        ));
    }

    #[test]
    fn too_many_dims_rejected() {
        let (_dev, index) = fresh();
        let bad = vec![TensorMeta::new("t", DType::F32, vec![1, 2, 3, 4, 5])];
        assert!(matches!(
            index.create_model("m", &bad),
            Err(PortusError::StructureMismatch(_))
        ));
    }

    #[test]
    fn slot_checksum_reflects_data() {
        let (dev, index) = fresh();
        let mi = index.create_model("m", &metas(1, 4096)).unwrap();
        let c0 = index.slot_checksum(&mi, 0).unwrap();
        dev.write(mi.slots[0].data_off, &[7u8; 100]).unwrap();
        let c1 = index.slot_checksum(&mi, 0).unwrap();
        assert_ne!(c0, c1);
    }

    #[test]
    fn region_digest_tiles_commute() {
        let data: Vec<u8> = (0..1024u32).map(|i| (i * 7 + 3) as u8).collect();
        let whole = region_digest(&data, 0);
        // Any partition into offset-tagged tiles sums to the whole,
        // regardless of combine order.
        let a = region_digest(&data[..100], 0);
        let b = region_digest(&data[100..700], 100);
        let c = region_digest(&data[700..], 700);
        assert_eq!(combine_digests(combine_digests(a, b), c), whole);
        assert_eq!(combine_digests(c, combine_digests(b, a)), whole);
        // Position matters: the same bytes at a different base differ.
        assert_ne!(
            region_digest(&data[..100], 0),
            region_digest(&data[..100], 4)
        );
    }

    #[test]
    fn slot_digest_matches_run_combination() {
        let (dev, index) = fresh();
        let mi = index.create_model("m", &metas(1, 4096)).unwrap();
        let payload: Vec<u8> = (0..4096u32).map(|i| (i % 251) as u8).collect();
        dev.write(mi.slots[0].data_off, &payload).unwrap();
        let full = index.slot_digest(&mi, 0).unwrap();
        let d0 = region_digest(&payload[..1500], 0);
        let d1 = region_digest(&payload[1500..], 1500);
        assert_eq!(combine_digests(d1, d0), full);
    }

    #[test]
    fn table_full_rolls_back() {
        let dev = PmemDevice::new(SimContext::icdcs24(), PmemMode::DevDax, 16 << 20);
        let index = Index::format(dev, 1, 64).unwrap();
        index.create_model("only", &metas(1, 64)).unwrap();
        let free = index.allocator().free_bytes();
        assert!(index.create_model("overflow", &metas(1, 64)).is_err());
        assert_eq!(index.allocator().free_bytes(), free, "rollback must free");
    }
}
