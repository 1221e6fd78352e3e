//! Content-addressed extent store with persistent refcounts.
//!
//! The dedup tier (ROADMAP item 5) chunks TensorData into fixed-size
//! extents addressed by a splitmix64-keyed content hash. Each extent is
//! one 64-byte record on media — a single cache line, so a record
//! update followed by one persist is crash-atomic under the device
//! model. The insert protocol is ordered like the allocator's:
//!
//! 1. write the extent payload, persist;
//! 2. write `{chash, off, stored, logical, flags, refcount = 1}` into
//!    the record, persist;
//! 3. set `state = LIVE`, persist.
//!
//! A crash between any two steps leaves the record dead and the payload
//! allocation unreferenced; index recovery garbage-collects it by
//! reachability. Refcounts are persisted on every bump/drop but are
//! **advisory**: recovery recounts them from the live slot extent maps,
//! so a torn refcount update can never free a referenced extent nor
//! leak an unreferenced one.
//!
//! Cold extents may be RLE-recompressed in place via a relocation
//! journal in the table header (valid → apply → clear); replaying the
//! journal is idempotent, so any crash point resolves to exactly one of
//! the two locations. Decompression is paid on the restore path at
//! DAX-read cost.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use portus_sim::hash::splitmix64;

use crate::typed::{read_u32, read_u64, write_u64};
use crate::{PmemAllocator, PmemDevice, PmemError, PmemResult};

const XT_MAGIC: u64 = 0x5458_5355_5452_4F50; // "PORTUSXT"
const HEADER_SIZE: u64 = 64;
const REC_SIZE: u64 = 64;

// Header layout (one cache line).
const H_MAGIC: u64 = 0;
const H_MAX_EXTENTS: u64 = 12;
const H_JSTATE: u64 = 16;
const H_JSLOT: u64 = 24;
const H_JNEW_OFF: u64 = 32;
const H_JNEW_STORED: u64 = 40;
const H_JFLAGS: u64 = 48;

// Record layout (one cache line per extent).
const REC_STATE: u64 = 0;
const REC_CHASH: u64 = 8;
const REC_OFF: u64 = 16;
const REC_STORED: u64 = 24;
const REC_LOGICAL: u64 = 32;
const REC_REFCOUNT: u64 = 40;
const REC_FLAGS: u64 = 48;

const STATE_FREE: u64 = 0;
const STATE_LIVE: u64 = 1;

const JOURNAL_IDLE: u64 = 0;
const JOURNAL_VALID: u64 = 1;

/// Extent flag: payload is RLE-compressed on media.
pub const EXTENT_FLAG_COMPRESSED: u64 = 1;

/// Allocator tag for extent payload regions. Distinct from every
/// `name_hash` tag (model names hash through FNV-1a; this constant is
/// reserved), so per-model allocation views never claim extent data.
pub const EXTENT_DATA_TAG: u64 = 0x5854_4E54_4E45_5458; // "XTENTNTX"

/// One durable extent record, decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtentRecord {
    /// Content hash of the logical bytes.
    pub chash: u64,
    /// Device offset of the stored payload.
    pub data_off: u64,
    /// Stored payload length (compressed size if compressed).
    pub stored_len: u64,
    /// Logical (uncompressed) length.
    pub logical_len: u64,
    /// Persistent (advisory) reference count.
    pub refcount: u64,
    /// [`EXTENT_FLAG_COMPRESSED`] et al.
    pub flags: u64,
}

/// Outcome of [`ExtentStore::insert_or_ref`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtentRef {
    /// Record slot holding the extent.
    pub slot: u32,
    /// True when the bytes deduplicated against an existing extent.
    pub shared: bool,
    /// Stored payload length (what a restore will DAX-read).
    pub stored_len: u64,
}

/// Space accounting over the live extents.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtentStats {
    /// Live extent records.
    pub live: u64,
    /// Live extents with `refcount > 1` (actually shared).
    pub shared: u64,
    /// Live extents stored compressed.
    pub compressed: u64,
    /// Sum of logical lengths over live extents.
    pub logical_bytes: u64,
    /// Sum of stored lengths over live extents (physical payload).
    pub stored_bytes: u64,
    /// Sum of `refcount * logical_len` — the logical bytes the live
    /// checkpoints collectively reference.
    pub referenced_logical: u64,
}

#[derive(Debug, Default)]
struct Inner {
    /// content hash -> record slot (first writer wins; a verify-failed
    /// collision stays unshared and unmapped).
    by_hash: HashMap<u64, u32>,
    free_slots: Vec<u32>,
    /// Monotonic access clock for cold-extent detection (volatile).
    touch_counter: u64,
    last_touch: HashMap<u32, u64>,
}

/// Content-addressed extent table at `table_base` on a [`PmemDevice`].
///
/// Payload regions come from the shared [`PmemAllocator`], tagged
/// [`EXTENT_DATA_TAG`]; the store itself only owns the record table.
#[derive(Debug)]
pub struct ExtentStore {
    dev: Arc<PmemDevice>,
    table_base: u64,
    max_extents: u32,
    inner: Mutex<Inner>,
}

impl ExtentStore {
    fn rec_off(&self, slot: u32) -> u64 {
        self.table_base + HEADER_SIZE + slot as u64 * REC_SIZE
    }

    /// Size on media of a table with `max_extents` records (header
    /// included).
    pub fn table_size(max_extents: u32) -> u64 {
        HEADER_SIZE + max_extents as u64 * REC_SIZE
    }

    /// Number of record slots.
    pub fn max_extents(&self) -> u32 {
        self.max_extents
    }

    /// Formats a fresh extent table: header plus zeroed records.
    ///
    /// # Errors
    ///
    /// Device bounds errors if the table exceeds capacity.
    pub fn format(
        dev: Arc<PmemDevice>,
        table_base: u64,
        max_extents: u32,
    ) -> PmemResult<ExtentStore> {
        let mut header = Vec::with_capacity(HEADER_SIZE as usize);
        header.extend_from_slice(&XT_MAGIC.to_le_bytes());
        header.extend_from_slice(&1u32.to_le_bytes()); // version
        header.extend_from_slice(&max_extents.to_le_bytes());
        header.resize(HEADER_SIZE as usize, 0);
        dev.write(table_base, &header)?;
        let zeros = vec![0u8; (max_extents as u64 * REC_SIZE) as usize];
        dev.write(table_base + HEADER_SIZE, &zeros)?;
        dev.persist(table_base, Self::table_size(max_extents))?;
        Ok(ExtentStore {
            dev,
            table_base,
            max_extents,
            inner: Mutex::new(Inner {
                free_slots: (0..max_extents).rev().collect(),
                ..Inner::default()
            }),
        })
    }

    /// Recovers a previously formatted table: replays the relocation
    /// journal, then rebuilds the hash map from the live records.
    ///
    /// # Errors
    ///
    /// [`PmemError::Corrupt`] on bad magic or malformed records.
    pub fn recover(dev: Arc<PmemDevice>, table_base: u64) -> PmemResult<ExtentStore> {
        let magic = read_u64(&dev, table_base + H_MAGIC)?;
        if magic != XT_MAGIC {
            return Err(PmemError::Corrupt(format!(
                "bad extent table magic {magic:#018x}"
            )));
        }
        let max_extents = read_u32(&dev, table_base + H_MAX_EXTENTS)?;
        let store = ExtentStore {
            dev,
            table_base,
            max_extents,
            inner: Mutex::new(Inner::default()),
        };
        store.replay_journal()?;
        let mut inner = store.inner.lock();
        for slot in (0..max_extents).rev() {
            let rec_off = store.rec_off(slot);
            if read_u64(&store.dev, rec_off + REC_STATE)? == STATE_LIVE {
                let chash = read_u64(&store.dev, rec_off + REC_CHASH)?;
                // First live record wins; a duplicate hash (verify-failed
                // collision survivor) stays reachable but unshared.
                inner.by_hash.entry(chash).or_insert(slot);
            } else {
                inner.free_slots.push(slot);
            }
        }
        drop(inner);
        Ok(store)
    }

    /// Applies (or discards) the relocation journal. Idempotent: the
    /// record write and the journal clear are each single-line persists,
    /// so any crash point replays to exactly one location.
    fn replay_journal(&self) -> PmemResult<()> {
        if read_u64(&self.dev, self.table_base + H_JSTATE)? != JOURNAL_VALID {
            return Ok(());
        }
        let slot = read_u64(&self.dev, self.table_base + H_JSLOT)? as u32;
        let new_off = read_u64(&self.dev, self.table_base + H_JNEW_OFF)?;
        let new_stored = read_u64(&self.dev, self.table_base + H_JNEW_STORED)?;
        let flags = read_u64(&self.dev, self.table_base + H_JFLAGS)?;
        if slot < self.max_extents {
            let rec_off = self.rec_off(slot);
            if read_u64(&self.dev, rec_off + REC_STATE)? == STATE_LIVE
                && read_u64(&self.dev, rec_off + REC_OFF)? != new_off
            {
                write_u64(&self.dev, rec_off + REC_OFF, new_off)?;
                write_u64(&self.dev, rec_off + REC_STORED, new_stored)?;
                write_u64(&self.dev, rec_off + REC_FLAGS, flags)?;
                self.dev.persist(rec_off, REC_SIZE)?;
            }
        }
        write_u64(&self.dev, self.table_base + H_JSTATE, JOURNAL_IDLE)?;
        self.dev.persist(self.table_base + H_JSTATE, 8)?;
        Ok(())
    }

    fn read_record(&self, slot: u32) -> PmemResult<ExtentRecord> {
        let rec_off = self.rec_off(slot);
        if read_u64(&self.dev, rec_off + REC_STATE)? != STATE_LIVE {
            return Err(PmemError::Corrupt(format!(
                "extent slot {slot} is not live"
            )));
        }
        Ok(ExtentRecord {
            chash: read_u64(&self.dev, rec_off + REC_CHASH)?,
            data_off: read_u64(&self.dev, rec_off + REC_OFF)?,
            stored_len: read_u64(&self.dev, rec_off + REC_STORED)?,
            logical_len: read_u64(&self.dev, rec_off + REC_LOGICAL)?,
            refcount: read_u64(&self.dev, rec_off + REC_REFCOUNT)?,
            flags: read_u64(&self.dev, rec_off + REC_FLAGS)?,
        })
    }

    /// Decodes a live record.
    ///
    /// # Errors
    ///
    /// [`PmemError::Corrupt`] if `slot` is not live.
    pub fn record(&self, slot: u32) -> PmemResult<ExtentRecord> {
        self.read_record(slot)
    }

    /// Stores `bytes` as an extent, deduplicating against an existing
    /// extent with the same content. On a hash hit the stored payload is
    /// byte-compared (reads cost no simulated time); a true collision
    /// falls back to an unshared insert. With `compress` set, the
    /// payload is RLE-compressed when that is smaller.
    ///
    /// # Errors
    ///
    /// [`PmemError::TableFull`] when all records are live; allocator
    /// errors for the payload region.
    pub fn insert_or_ref(
        &self,
        bytes: &[u8],
        alloc: &PmemAllocator,
        compress: bool,
    ) -> PmemResult<ExtentRef> {
        assert!(!bytes.is_empty(), "extent payload must be non-empty");
        let chash = content_hash(bytes);
        let mut inner = self.inner.lock();
        inner.touch_counter += 1;
        let now = inner.touch_counter;
        if let Some(&slot) = inner.by_hash.get(&chash) {
            let rec = self.read_record(slot)?;
            if rec.logical_len == bytes.len() as u64 && self.payload_matches(&rec, bytes)? {
                self.write_refcount(slot, rec.refcount + 1)?;
                inner.last_touch.insert(slot, now);
                return Ok(ExtentRef {
                    slot,
                    shared: true,
                    stored_len: rec.stored_len,
                });
            }
            // A genuine content-hash collision: insert unshared below,
            // leaving the map pointing at the first writer.
        }
        let slot = inner.free_slots.pop().ok_or(PmemError::TableFull)?;
        let (payload, flags) = if compress {
            let packed = rle_compress(bytes);
            if packed.len() < bytes.len() {
                (packed, EXTENT_FLAG_COMPRESSED)
            } else {
                (bytes.to_vec(), 0)
            }
        } else {
            (bytes.to_vec(), 0)
        };
        let region = match alloc.alloc(payload.len() as u64, EXTENT_DATA_TAG) {
            Ok(region) => region,
            Err(e) => {
                inner.free_slots.push(slot);
                return Err(e);
            }
        };
        // Crash order: payload, then record fields (refcount = 1), then
        // the state word. A crash short of step 3 leaves the payload
        // region unreferenced for recovery's reachability GC.
        self.dev.write(region.offset, &payload)?;
        self.dev.persist(region.offset, payload.len() as u64)?;
        let rec_off = self.rec_off(slot);
        write_u64(&self.dev, rec_off + REC_CHASH, chash)?;
        write_u64(&self.dev, rec_off + REC_OFF, region.offset)?;
        write_u64(&self.dev, rec_off + REC_STORED, payload.len() as u64)?;
        write_u64(&self.dev, rec_off + REC_LOGICAL, bytes.len() as u64)?;
        write_u64(&self.dev, rec_off + REC_REFCOUNT, 1)?;
        write_u64(&self.dev, rec_off + REC_FLAGS, flags)?;
        self.dev
            .persist(rec_off + REC_CHASH, REC_SIZE - REC_CHASH)?;
        write_u64(&self.dev, rec_off + REC_STATE, STATE_LIVE)?;
        self.dev.persist(rec_off + REC_STATE, 8)?;
        inner.by_hash.entry(chash).or_insert(slot);
        inner.last_touch.insert(slot, now);
        Ok(ExtentRef {
            slot,
            shared: false,
            stored_len: payload.len() as u64,
        })
    }

    /// Byte-compares `bytes` against the stored payload of `rec`.
    fn payload_matches(&self, rec: &ExtentRecord, bytes: &[u8]) -> PmemResult<bool> {
        let mut stored = vec![0u8; rec.stored_len as usize];
        self.dev.read(rec.data_off, &mut stored)?;
        if rec.flags & EXTENT_FLAG_COMPRESSED != 0 {
            let logical = rle_decompress(&stored, rec.logical_len as usize)?;
            Ok(logical == bytes)
        } else {
            Ok(stored == bytes)
        }
    }

    /// Durably bumps the refcount of a live extent; returns the new
    /// count. The read-modify-write runs under the store's lock, like
    /// [`ExtentStore::insert_or_ref`]'s, so concurrent updates of one
    /// extent never lose a count.
    ///
    /// # Errors
    ///
    /// [`PmemError::Corrupt`] if `slot` is not live.
    pub fn incref(&self, slot: u32) -> PmemResult<u64> {
        let mut inner = self.inner.lock();
        let next = self.read_record(slot)?.refcount + 1;
        self.write_refcount(slot, next)?;
        inner.touch_counter += 1;
        let now = inner.touch_counter;
        inner.last_touch.insert(slot, now);
        Ok(next)
    }

    /// Durably drops one reference; returns the new count. Never frees
    /// the payload — a refcount-0 extent waits for
    /// [`ExtentStore::sweep_unreferenced`] (or use
    /// [`ExtentStore::release`]).
    ///
    /// # Errors
    ///
    /// [`PmemError::Corrupt`] if `slot` is not live.
    pub fn decref(&self, slot: u32) -> PmemResult<u64> {
        let _inner = self.inner.lock();
        let next = self.read_record(slot)?.refcount.saturating_sub(1);
        self.write_refcount(slot, next)?;
        Ok(next)
    }

    /// [`ExtentStore::decref`] that frees the extent when it drops the
    /// last reference: record first, then the payload region, as in
    /// [`ExtentStore::sweep_unreferenced`]. Both steps run under the
    /// store's lock, so a concurrent [`ExtentStore::insert_or_ref`]
    /// either refs the extent first (and it survives) or misses it.
    ///
    /// # Errors
    ///
    /// [`PmemError::Corrupt`] if `slot` is not live or its payload is
    /// unknown to the allocator.
    pub fn release(&self, slot: u32, alloc: &PmemAllocator) -> PmemResult<u64> {
        let mut inner = self.inner.lock();
        let rec = self.read_record(slot)?;
        let next = rec.refcount.saturating_sub(1);
        if next == 0 {
            self.free_extent(&mut inner, slot, &rec, alloc)?;
        } else {
            self.write_refcount(slot, next)?;
        }
        Ok(next)
    }

    fn write_refcount(&self, slot: u32, count: u64) -> PmemResult<()> {
        let rec_off = self.rec_off(slot);
        write_u64(&self.dev, rec_off + REC_REFCOUNT, count)?;
        self.dev.persist(rec_off + REC_REFCOUNT, 8)
    }

    /// Frees a live extent, record first (`state = FREE`, persisted),
    /// then its payload region, so a crash in between never leaves a
    /// live record over freed space. The caller holds the lock.
    fn free_extent(
        &self,
        inner: &mut Inner,
        slot: u32,
        rec: &ExtentRecord,
        alloc: &PmemAllocator,
    ) -> PmemResult<()> {
        let region = alloc.live_at(rec.data_off).ok_or_else(|| {
            PmemError::Corrupt(format!(
                "extent {slot} payload at {} unknown to the allocator",
                rec.data_off
            ))
        })?;
        let rec_off = self.rec_off(slot);
        write_u64(&self.dev, rec_off + REC_STATE, STATE_FREE)?;
        self.dev.persist(rec_off + REC_STATE, 8)?;
        alloc.free(&region)?;
        if inner.by_hash.get(&rec.chash) == Some(&slot) {
            inner.by_hash.remove(&rec.chash);
        }
        inner.free_slots.push(slot);
        inner.last_touch.remove(&slot);
        Ok(())
    }

    /// Overwrites the persistent refcount (recovery fixup after a
    /// recount from the live extent maps).
    ///
    /// # Errors
    ///
    /// [`PmemError::Corrupt`] if `slot` is not live.
    pub fn set_refcount(&self, slot: u32, count: u64) -> PmemResult<()> {
        let _inner = self.inner.lock();
        self.read_record(slot)?;
        self.write_refcount(slot, count)
    }

    /// Reads an extent's logical bytes into `out` (decompressing if
    /// needed); returns the stored length actually read off media, for
    /// DAX-read cost accounting.
    ///
    /// # Errors
    ///
    /// [`PmemError::Corrupt`] if `slot` is not live or the payload fails
    /// to decompress to the recorded logical length.
    pub fn read_into(&self, slot: u32, out: &mut Vec<u8>) -> PmemResult<u64> {
        let rec = self.read_record(slot)?;
        let mut stored = vec![0u8; rec.stored_len as usize];
        self.dev.read(rec.data_off, &mut stored)?;
        if rec.flags & EXTENT_FLAG_COMPRESSED != 0 {
            *out = rle_decompress(&stored, rec.logical_len as usize)?;
        } else {
            *out = stored;
        }
        let mut inner = self.inner.lock();
        inner.touch_counter += 1;
        let now = inner.touch_counter;
        inner.last_touch.insert(slot, now);
        Ok(rec.stored_len)
    }

    /// All live extents `(slot, record)` in slot order.
    ///
    /// # Errors
    ///
    /// Device bounds errors only.
    pub fn live_extents(&self) -> PmemResult<Vec<(u32, ExtentRecord)>> {
        let mut out = Vec::new();
        for slot in 0..self.max_extents {
            if read_u64(&self.dev, self.rec_off(slot) + REC_STATE)? == STATE_LIVE {
                out.push((slot, self.read_record(slot)?));
            }
        }
        Ok(out)
    }

    /// Frees every live extent whose refcount is 0: record first
    /// (`state = FREE`, persisted), then the payload region. Returns
    /// `(extents, payload_bytes)` swept.
    ///
    /// # Errors
    ///
    /// [`PmemError::Corrupt`] if a swept extent's payload is unknown to
    /// the allocator.
    pub fn sweep_unreferenced(&self, alloc: &PmemAllocator) -> PmemResult<(usize, u64)> {
        let mut inner = self.inner.lock();
        let mut swept = 0usize;
        let mut bytes = 0u64;
        for slot in 0..self.max_extents {
            let rec_off = self.rec_off(slot);
            if read_u64(&self.dev, rec_off + REC_STATE)? != STATE_LIVE {
                continue;
            }
            if read_u64(&self.dev, rec_off + REC_REFCOUNT)? != 0 {
                continue;
            }
            let rec = self.read_record(slot)?;
            self.free_extent(&mut inner, slot, &rec, alloc)?;
            swept += 1;
            bytes += rec.stored_len;
        }
        Ok((swept, bytes))
    }

    /// RLE-recompresses live, referenced, uncompressed extents that
    /// have not been touched for `min_idle` accesses, via the
    /// relocation journal. Returns `(extents, bytes_saved)`.
    ///
    /// # Errors
    ///
    /// Allocator and device errors; a crash at any point is repaired by
    /// [`ExtentStore::recover`]'s journal replay plus reachability GC.
    pub fn compress_cold(&self, alloc: &PmemAllocator, min_idle: u64) -> PmemResult<(usize, u64)> {
        let inner = self.inner.lock();
        let now = inner.touch_counter;
        let mut compressed = 0usize;
        let mut saved = 0u64;
        for slot in 0..self.max_extents {
            let rec_off = self.rec_off(slot);
            if read_u64(&self.dev, rec_off + REC_STATE)? != STATE_LIVE {
                continue;
            }
            let rec = self.read_record(slot)?;
            if rec.refcount == 0 || rec.flags & EXTENT_FLAG_COMPRESSED != 0 {
                continue;
            }
            let idle = now.saturating_sub(inner.last_touch.get(&slot).copied().unwrap_or(0));
            if idle < min_idle {
                continue;
            }
            let mut payload = vec![0u8; rec.logical_len as usize];
            self.dev.read(rec.data_off, &mut payload)?;
            let packed = rle_compress(&payload);
            if packed.len() >= payload.len() {
                continue;
            }
            let old = alloc.live_at(rec.data_off).ok_or_else(|| {
                PmemError::Corrupt(format!(
                    "extent {slot} payload at {} unknown to the allocator",
                    rec.data_off
                ))
            })?;
            let new_region = alloc.alloc(packed.len() as u64, EXTENT_DATA_TAG)?;
            self.dev.write(new_region.offset, &packed)?;
            self.dev.persist(new_region.offset, packed.len() as u64)?;
            // Journal: fields then the valid word, one header line.
            write_u64(&self.dev, self.table_base + H_JSLOT, slot as u64)?;
            write_u64(&self.dev, self.table_base + H_JNEW_OFF, new_region.offset)?;
            write_u64(
                &self.dev,
                self.table_base + H_JNEW_STORED,
                packed.len() as u64,
            )?;
            write_u64(
                &self.dev,
                self.table_base + H_JFLAGS,
                rec.flags | EXTENT_FLAG_COMPRESSED,
            )?;
            write_u64(&self.dev, self.table_base + H_JSTATE, JOURNAL_VALID)?;
            self.dev.persist(self.table_base, HEADER_SIZE)?;
            // Apply to the record (one line), clear the journal, then
            // free the old payload.
            write_u64(&self.dev, rec_off + REC_OFF, new_region.offset)?;
            write_u64(&self.dev, rec_off + REC_STORED, packed.len() as u64)?;
            write_u64(
                &self.dev,
                rec_off + REC_FLAGS,
                rec.flags | EXTENT_FLAG_COMPRESSED,
            )?;
            self.dev.persist(rec_off, REC_SIZE)?;
            write_u64(&self.dev, self.table_base + H_JSTATE, JOURNAL_IDLE)?;
            self.dev.persist(self.table_base + H_JSTATE, 8)?;
            alloc.free(&old)?;
            compressed += 1;
            saved += rec.stored_len - packed.len() as u64;
        }
        Ok((compressed, saved))
    }

    /// Space accounting over the live extents.
    ///
    /// # Errors
    ///
    /// Device bounds errors only.
    pub fn stats(&self) -> PmemResult<ExtentStats> {
        let mut stats = ExtentStats::default();
        for (_slot, rec) in self.live_extents()? {
            stats.live += 1;
            if rec.refcount > 1 {
                stats.shared += 1;
            }
            if rec.flags & EXTENT_FLAG_COMPRESSED != 0 {
                stats.compressed += 1;
            }
            stats.logical_bytes += rec.logical_len;
            stats.stored_bytes += rec.stored_len;
            stats.referenced_logical += rec.refcount * rec.logical_len;
        }
        Ok(stats)
    }
}

/// Content hash of an extent payload: a splitmix64-keyed fold over the
/// bytes, length-finalized so prefixes of each other differ.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h = 0x5058_5420_4841_5348; // "PXT HASH"
    for chunk in bytes.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        h = splitmix64(h ^ u64::from_le_bytes(word));
    }
    splitmix64(h ^ bytes.len() as u64)
}

/// Byte-oriented RLE: control byte `c < 0x80` introduces `c + 1`
/// literal bytes; `c >= 0x80` repeats the next byte `(c & 0x7F) + 3`
/// times (runs of 3..=130).
pub fn rle_compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    let mut lit_start = 0usize;
    let mut i = 0usize;
    while i < data.len() {
        let mut run = 1usize;
        while i + run < data.len() && data[i + run] == data[i] && run < 130 {
            run += 1;
        }
        if run >= 3 {
            flush_literals(&mut out, &data[lit_start..i]);
            out.push(0x80 | (run as u8 - 3));
            out.push(data[i]);
            i += run;
            lit_start = i;
        } else {
            i += run;
        }
    }
    flush_literals(&mut out, &data[lit_start..]);
    out
}

fn flush_literals(out: &mut Vec<u8>, mut lit: &[u8]) {
    while !lit.is_empty() {
        let take = lit.len().min(128);
        out.push(take as u8 - 1);
        out.extend_from_slice(&lit[..take]);
        lit = &lit[take..];
    }
}

/// Inverse of [`rle_compress`]; the output must decode to exactly
/// `logical_len` bytes.
///
/// # Errors
///
/// [`PmemError::Corrupt`] on a truncated stream or length mismatch.
pub fn rle_decompress(data: &[u8], logical_len: usize) -> PmemResult<Vec<u8>> {
    let mut out = Vec::with_capacity(logical_len);
    let mut i = 0usize;
    while i < data.len() {
        let c = data[i];
        i += 1;
        if c < 0x80 {
            let take = c as usize + 1;
            if i + take > data.len() {
                return Err(PmemError::Corrupt("truncated RLE literal run".into()));
            }
            out.extend_from_slice(&data[i..i + take]);
            i += take;
        } else {
            if i >= data.len() {
                return Err(PmemError::Corrupt("truncated RLE repeat run".into()));
            }
            let count = (c & 0x7F) as usize + 3;
            out.extend(std::iter::repeat_n(data[i], count));
            i += 1;
        }
        if out.len() > logical_len {
            return Err(PmemError::Corrupt(
                "RLE stream overruns logical length".into(),
            ));
        }
    }
    if out.len() != logical_len {
        return Err(PmemError::Corrupt(format!(
            "RLE stream decoded {} bytes, expected {logical_len}",
            out.len()
        )));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CrashSpec, PmemMode};
    use portus_sim::SimContext;

    fn setup() -> (Arc<PmemDevice>, PmemAllocator, ExtentStore) {
        let pm = PmemDevice::new(SimContext::icdcs24(), PmemMode::DevDax, 1 << 21);
        // AllocTable at 0, extent table after it, heap after that.
        let xt_base = PmemAllocator::table_size(128);
        let heap_base = (xt_base + ExtentStore::table_size(64) + 4095) & !4095;
        let alloc = PmemAllocator::format(pm.clone(), 0, 128, heap_base, 1 << 21).unwrap();
        let store = ExtentStore::format(pm.clone(), xt_base, 64).unwrap();
        (pm, alloc, store)
    }

    #[test]
    fn rle_round_trips() {
        for data in [
            vec![0u8; 4096],
            (0..=255u8).cycle().take(1000).collect::<Vec<_>>(),
            b"aaabbbbbbbbccdddddddddddddddddddddddd".to_vec(),
            vec![7u8; 1],
            vec![7u8; 2],
            vec![7u8; 3],
            vec![7u8; 131],
            (0..4096).map(|i| (i % 5 == 0) as u8 * 9).collect(),
        ] {
            let packed = rle_compress(&data);
            assert_eq!(rle_decompress(&packed, data.len()).unwrap(), data);
        }
        // All-same input collapses hard.
        assert!(rle_compress(&vec![0u8; 4096]).len() < 100);
    }

    #[test]
    fn rle_rejects_truncation_and_length_mismatch() {
        let packed = rle_compress(&[5u8; 64]);
        assert!(rle_decompress(&packed[..packed.len() - 1], 64).is_err());
        assert!(rle_decompress(&packed, 63).is_err());
        assert!(rle_decompress(&packed, 65).is_err());
    }

    #[test]
    fn content_hash_distinguishes_lengths_and_bytes() {
        assert_eq!(content_hash(b"abc"), content_hash(b"abc"));
        assert_ne!(content_hash(b"abc"), content_hash(b"abd"));
        assert_ne!(content_hash(&[0u8; 8]), content_hash(&[0u8; 9]));
    }

    #[test]
    fn identical_payloads_share_one_extent() {
        let (_pm, alloc, store) = setup();
        let a = store.insert_or_ref(&[7u8; 1024], &alloc, false).unwrap();
        let b = store.insert_or_ref(&[7u8; 1024], &alloc, false).unwrap();
        assert!(!a.shared);
        assert!(b.shared);
        assert_eq!(a.slot, b.slot);
        let rec = store.record(a.slot).unwrap();
        assert_eq!(rec.refcount, 2);
        let stats = store.stats().unwrap();
        assert_eq!(stats.live, 1);
        assert_eq!(stats.shared, 1);
        assert_eq!(stats.referenced_logical, 2048);
    }

    #[test]
    fn compressed_extents_read_back_logical_bytes() {
        let (_pm, alloc, store) = setup();
        let payload = vec![0u8; 64 * 1024];
        let r = store.insert_or_ref(&payload, &alloc, true).unwrap();
        assert!(r.stored_len < payload.len() as u64);
        let rec = store.record(r.slot).unwrap();
        assert_ne!(rec.flags & EXTENT_FLAG_COMPRESSED, 0);
        let mut out = Vec::new();
        let stored = store.read_into(r.slot, &mut out).unwrap();
        assert_eq!(stored, r.stored_len);
        assert_eq!(out, payload);
    }

    #[test]
    fn decref_then_sweep_frees_the_payload() {
        let (_pm, alloc, store) = setup();
        let free0 = alloc.free_bytes();
        let r = store.insert_or_ref(&[9u8; 4096], &alloc, false).unwrap();
        store.incref(r.slot).unwrap();
        store.decref(r.slot).unwrap();
        // Still referenced: sweep must not touch it.
        assert_eq!(store.sweep_unreferenced(&alloc).unwrap(), (0, 0));
        store.decref(r.slot).unwrap();
        let (n, bytes) = store.sweep_unreferenced(&alloc).unwrap();
        assert_eq!(n, 1);
        assert_eq!(bytes, 4096);
        assert_eq!(alloc.free_bytes(), free0);
        assert!(store.record(r.slot).is_err());
        // The slot and hash are reusable.
        let again = store.insert_or_ref(&[9u8; 4096], &alloc, false).unwrap();
        assert!(!again.shared);
    }

    #[test]
    fn release_frees_the_extent_with_its_last_reference() {
        let (_pm, alloc, store) = setup();
        let free0 = alloc.free_bytes();
        let r = store.insert_or_ref(&[6u8; 4096], &alloc, false).unwrap();
        store.incref(r.slot).unwrap();
        assert_eq!(store.release(r.slot, &alloc).unwrap(), 1);
        assert_eq!(store.record(r.slot).unwrap().refcount, 1);
        assert_eq!(store.release(r.slot, &alloc).unwrap(), 0);
        assert!(store.record(r.slot).is_err(), "record freed first");
        assert_eq!(alloc.free_bytes(), free0, "then the payload");
        assert_eq!(store.sweep_unreferenced(&alloc).unwrap(), (0, 0));
        let again = store.insert_or_ref(&[6u8; 4096], &alloc, false).unwrap();
        assert!(!again.shared, "the hash is forgotten");
    }

    #[test]
    fn concurrent_ref_and_decref_keep_the_refcount_exact() {
        const ROUNDS: u64 = 20_000;
        let (_pm, alloc, store) = setup();
        let bytes = [8u8; 256];
        let r = store.insert_or_ref(&bytes, &alloc, false).unwrap();
        for _ in 0..ROUNDS {
            store.incref(r.slot).unwrap();
        }
        // One thread adds references (through both entry points) while
        // the other drops as many; the count never reaches zero, so
        // every lost update would show in the final value.
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                start.wait();
                for i in 0..ROUNDS {
                    if i % 2 == 0 {
                        store.insert_or_ref(&bytes, &alloc, false).unwrap();
                    } else {
                        store.incref(r.slot).unwrap();
                    }
                }
            });
            s.spawn(|| {
                start.wait();
                for _ in 0..ROUNDS {
                    store.decref(r.slot).unwrap();
                }
            });
        });
        assert_eq!(store.record(r.slot).unwrap().refcount, ROUNDS + 1);
    }

    #[test]
    fn recovery_rebuilds_the_hash_map() {
        let (pm, alloc, store) = setup();
        let a = store.insert_or_ref(&[1u8; 512], &alloc, false).unwrap();
        store.insert_or_ref(&[2u8; 512], &alloc, false).unwrap();
        let xt_base = PmemAllocator::table_size(128);
        drop(store);

        let rec = ExtentStore::recover(pm, xt_base).unwrap();
        assert_eq!(rec.live_extents().unwrap().len(), 2);
        let again = rec.insert_or_ref(&[1u8; 512], &alloc, false).unwrap();
        assert!(again.shared);
        assert_eq!(again.slot, a.slot);
        assert_eq!(rec.record(a.slot).unwrap().refcount, 2);
    }

    #[test]
    fn torn_insert_leaves_no_live_record() {
        let (pm, alloc, store) = setup();
        store.insert_or_ref(&[3u8; 256], &alloc, false).unwrap();
        // Forge a torn second insert: fields persisted, state not.
        let xt_base = PmemAllocator::table_size(128);
        let rec_off = xt_base + HEADER_SIZE + REC_SIZE; // slot 1
        write_u64(&pm, rec_off + REC_CHASH, 0x1234).unwrap();
        write_u64(&pm, rec_off + REC_REFCOUNT, 1).unwrap();
        pm.persist(rec_off + REC_CHASH, REC_SIZE - REC_CHASH)
            .unwrap();
        pm.crash(CrashSpec::LoseAll);

        let rec = ExtentStore::recover(pm, xt_base).unwrap();
        assert_eq!(rec.live_extents().unwrap().len(), 1);
    }

    #[test]
    fn journal_replay_finishes_an_interrupted_relocation() {
        let (pm, alloc, store) = setup();
        let payload = vec![0u8; 8192];
        let r = store.insert_or_ref(&payload, &alloc, false).unwrap();
        let old = store.record(r.slot).unwrap();
        // Stage the compressed copy and a valid journal, then crash
        // before the record update — as compress_cold would.
        let packed = rle_compress(&payload);
        let new_region = alloc.alloc(packed.len() as u64, EXTENT_DATA_TAG).unwrap();
        pm.write(new_region.offset, &packed).unwrap();
        pm.persist(new_region.offset, packed.len() as u64).unwrap();
        let xt_base = PmemAllocator::table_size(128);
        write_u64(&pm, xt_base + H_JSLOT, r.slot as u64).unwrap();
        write_u64(&pm, xt_base + H_JNEW_OFF, new_region.offset).unwrap();
        write_u64(&pm, xt_base + H_JNEW_STORED, packed.len() as u64).unwrap();
        write_u64(&pm, xt_base + H_JFLAGS, EXTENT_FLAG_COMPRESSED).unwrap();
        write_u64(&pm, xt_base + H_JSTATE, JOURNAL_VALID).unwrap();
        pm.persist(xt_base, HEADER_SIZE).unwrap();
        pm.crash(CrashSpec::LoseAll);

        let rec = ExtentStore::recover(pm.clone(), xt_base).unwrap();
        let after = rec.record(r.slot).unwrap();
        assert_eq!(after.data_off, new_region.offset);
        assert_eq!(after.stored_len, packed.len() as u64);
        assert_ne!(after.flags & EXTENT_FLAG_COMPRESSED, 0);
        assert_ne!(after.data_off, old.data_off);
        // Journal is idle again and replay is idempotent.
        assert_eq!(read_u64(&pm, xt_base + H_JSTATE).unwrap(), JOURNAL_IDLE);
        let mut out = Vec::new();
        rec.read_into(r.slot, &mut out).unwrap();
        assert_eq!(out, payload);
    }

    #[test]
    fn compress_cold_relocates_idle_extents() {
        let (_pm, alloc, store) = setup();
        let cold = store
            .insert_or_ref(&vec![0u8; 16384], &alloc, false)
            .unwrap();
        // Touch a second extent repeatedly so only the first is idle.
        let hot = store
            .insert_or_ref(&vec![1u8; 16384], &alloc, false)
            .unwrap();
        let mut out = Vec::new();
        for _ in 0..8 {
            store.read_into(hot.slot, &mut out).unwrap();
        }
        let (n, saved) = store.compress_cold(&alloc, 5).unwrap();
        assert_eq!(n, 1);
        assert!(saved > 0);
        let rec = store.record(cold.slot).unwrap();
        assert_ne!(rec.flags & EXTENT_FLAG_COMPRESSED, 0);
        assert_eq!(
            store.record(hot.slot).unwrap().flags & EXTENT_FLAG_COMPRESSED,
            0
        );
        store.read_into(cold.slot, &mut out).unwrap();
        assert_eq!(out, vec![0u8; 16384]);
    }

    #[test]
    fn table_full_is_reported() {
        let pm = PmemDevice::new(SimContext::icdcs24(), PmemMode::DevDax, 1 << 20);
        let xt_base = PmemAllocator::table_size(32);
        let heap_base = (xt_base + ExtentStore::table_size(2) + 4095) & !4095;
        let alloc = PmemAllocator::format(pm.clone(), 0, 32, heap_base, 1 << 20).unwrap();
        let store = ExtentStore::format(pm, xt_base, 2).unwrap();
        store.insert_or_ref(&[1u8; 64], &alloc, false).unwrap();
        store.insert_or_ref(&[2u8; 64], &alloc, false).unwrap();
        assert!(matches!(
            store.insert_or_ref(&[3u8; 64], &alloc, false),
            Err(PmemError::TableFull)
        ));
    }
}
