//! Content-addressed extent store with persistent refcounts.
//!
//! The dedup tier chunks TensorData into fixed-size extents addressed
//! by a splitmix64-keyed content hash. Each extent is one 64-byte
//! record on media — a single cache line, so a record update followed
//! by one persist is crash-atomic under the device model. Payloads are
//! stored exactly as given, uncompressed. The insert protocol is
//! ordered like the allocator's:
//!
//! 1. stream the extent payload with non-temporal stores, fence;
//! 2. write `{chash, data_off, len, refcount = 1}` into the record,
//!    persist;
//! 3. set `state = LIVE`, persist.
//!
//! A crash between any two steps leaves the record dead and the payload
//! allocation unreferenced; index recovery garbage-collects it by
//! reachability. Refcounts are persisted on every bump/drop but are
//! **advisory**: recovery recounts them from the live slot extent maps,
//! so a torn refcount update can never free a referenced extent nor
//! leak an unreferenced one.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use portus_sim::hash::splitmix64;

use crate::typed::{read_u32, read_u64, write_u64};
use crate::{PmemAllocator, PmemDevice, PmemError, PmemResult, Structure};

const XT_MAGIC: u64 = 0x5458_5355_5452_4F50; // "PORTUSXT"
/// On-media layout version. Version 1 carried a relocation journal and
/// compressed records; recovery refuses anything but this one.
const XT_VERSION: u32 = 2;
const HEADER_SIZE: u64 = 64;
const REC_SIZE: u64 = 64;

// Header layout (one cache line).
const H_MAGIC: u64 = 0;
const H_VERSION: u64 = 8;
const H_MAX_EXTENTS: u64 = 12;

// Record layout (one cache line per extent).
const REC_STATE: u64 = 0;
const REC_CHASH: u64 = 8;
const REC_OFF: u64 = 16;
const REC_LEN: u64 = 24;
const REC_REFCOUNT: u64 = 32;

const STATE_FREE: u64 = 0;
const STATE_LIVE: u64 = 1;

/// Allocator tag for extent payload regions. Distinct from every
/// `name_hash` tag (model names hash through FNV-1a; this constant is
/// reserved), so per-model allocation views never claim extent data.
pub const EXTENT_DATA_TAG: u64 = 0x5854_4E54_4E45_5458; // "XTENTNTX"

/// One durable extent record, decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtentRecord {
    /// Content hash of the payload bytes.
    pub chash: u64,
    /// Device offset of the payload.
    pub data_off: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// Persistent (advisory) reference count.
    pub refcount: u64,
}

/// Outcome of [`ExtentStore::insert_or_ref`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExtentRef {
    /// Record slot holding the extent.
    pub slot: u32,
    /// True when the bytes deduplicated against an existing extent.
    pub shared: bool,
}

/// Space accounting over the live extents.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExtentStats {
    /// Live extent records.
    pub live: u64,
    /// Live extents with `refcount > 1` (actually shared).
    pub shared: u64,
    /// Sum of payload lengths over live extents (physical bytes).
    pub stored_bytes: u64,
    /// Sum of `refcount * len` — the logical bytes the live checkpoints
    /// collectively reference.
    pub referenced_logical: u64,
}

#[derive(Debug, Default)]
struct Inner {
    /// content hash -> record slot (first writer wins; a verify-failed
    /// collision stays unshared and unmapped).
    by_hash: HashMap<u64, u32>,
    free_slots: Vec<u32>,
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
        header.extend_from_slice(&XT_VERSION.to_le_bytes());
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

    /// Recovers a previously formatted table, rebuilding the hash map
    /// from the live records.
    ///
    /// # Errors
    ///
    /// [`PmemError::Corrupt`] on bad magic or a layout version other
    /// than the current one.
    pub fn recover(dev: Arc<PmemDevice>, table_base: u64) -> PmemResult<ExtentStore> {
        let magic = read_u64(&dev, table_base + H_MAGIC)?;
        if magic != XT_MAGIC {
            return Err(PmemError::corrupt(
                Structure::ExtentTable,
                table_base + H_MAGIC,
                format!("bad magic {magic:#018x}"),
            ));
        }
        let version = read_u32(&dev, table_base + H_VERSION)?;
        if version != XT_VERSION {
            return Err(PmemError::corrupt(
                Structure::ExtentTable,
                table_base + H_VERSION,
                format!("layout version {version}, expected {XT_VERSION}"),
            ));
        }
        let max_extents = read_u32(&dev, table_base + H_MAX_EXTENTS)?;
        let store = ExtentStore {
            dev,
            table_base,
            max_extents,
            inner: Mutex::new(Inner::default()),
        };
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

    fn read_record(&self, slot: u32) -> PmemResult<ExtentRecord> {
        let rec_off = self.rec_off(slot);
        if read_u64(&self.dev, rec_off + REC_STATE)? != STATE_LIVE {
            return Err(PmemError::corrupt(
                Structure::ExtentTable,
                rec_off + REC_STATE,
                format!("extent slot {slot} is not live"),
            ));
        }
        Ok(ExtentRecord {
            chash: read_u64(&self.dev, rec_off + REC_CHASH)?,
            data_off: read_u64(&self.dev, rec_off + REC_OFF)?,
            len: read_u64(&self.dev, rec_off + REC_LEN)?,
            refcount: read_u64(&self.dev, rec_off + REC_REFCOUNT)?,
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
    /// falls back to an unshared insert.
    ///
    /// # Errors
    ///
    /// [`PmemError::EmptyExtent`] for an empty `bytes`;
    /// [`PmemError::TableFull`] when all records are live; allocator
    /// errors for the payload region.
    pub fn insert_or_ref(&self, bytes: &[u8], alloc: &PmemAllocator) -> PmemResult<ExtentRef> {
        if bytes.is_empty() {
            return Err(PmemError::EmptyExtent);
        }
        let chash = content_hash(bytes);
        let mut inner = self.inner.lock();
        if let Some(&slot) = inner.by_hash.get(&chash) {
            let rec = self.read_record(slot)?;
            if rec.len == bytes.len() as u64 && self.payload_matches(&rec, bytes)? {
                self.write_refcount(slot, rec.refcount + 1)?;
                return Ok(ExtentRef { slot, shared: true });
            }
            // A genuine content-hash collision: insert unshared below,
            // leaving the map pointing at the first writer.
        }
        let slot = inner.free_slots.pop().ok_or(PmemError::TableFull)?;
        let region = match alloc.alloc(bytes.len() as u64, EXTENT_DATA_TAG) {
            Ok(region) => region,
            Err(e) => {
                inner.free_slots.push(slot);
                return Err(e);
            }
        };
        // Crash order: payload, then record fields (refcount = 1), then
        // the state word. A crash short of step 3 leaves the payload
        // region unreferenced for recovery's reachability GC.
        self.stream_payload(region.offset, bytes)?;
        self.write_record(slot, chash, region.offset, bytes.len() as u64)?;
        self.publish(slot)?;
        inner.by_hash.entry(chash).or_insert(slot);
        Ok(ExtentRef {
            slot,
            shared: false,
        })
    }

    /// Insert step 1: streams the payload past the cache and fences it
    /// durable, one `sfence` for the whole extent instead of a `clwb`
    /// per line. The caller charges the stream as a DAX write.
    fn stream_payload(&self, offset: u64, bytes: &[u8]) -> PmemResult<()> {
        self.dev.write_nt(offset, bytes)?;
        self.dev.fence();
        Ok(())
    }

    /// Insert step 2: persists the record fields with `refcount = 1`,
    /// leaving the state word free.
    fn write_record(&self, slot: u32, chash: u64, data_off: u64, len: u64) -> PmemResult<()> {
        let rec_off = self.rec_off(slot);
        write_u64(&self.dev, rec_off + REC_CHASH, chash)?;
        write_u64(&self.dev, rec_off + REC_OFF, data_off)?;
        write_u64(&self.dev, rec_off + REC_LEN, len)?;
        write_u64(&self.dev, rec_off + REC_REFCOUNT, 1)?;
        self.dev
            .persist(rec_off + REC_CHASH, REC_REFCOUNT + 8 - REC_CHASH)
    }

    /// Insert step 3: persists `state = LIVE`.
    fn publish(&self, slot: u32) -> PmemResult<()> {
        let rec_off = self.rec_off(slot);
        write_u64(&self.dev, rec_off + REC_STATE, STATE_LIVE)?;
        self.dev.persist(rec_off + REC_STATE, 8)
    }

    /// Byte-compares `bytes` against the stored payload of `rec`.
    fn payload_matches(&self, rec: &ExtentRecord, bytes: &[u8]) -> PmemResult<bool> {
        let mut stored = vec![0u8; rec.len as usize];
        self.dev.read(rec.data_off, &mut stored)?;
        Ok(stored == bytes)
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
        let _inner = self.inner.lock();
        let next = self.read_record(slot)?.refcount + 1;
        self.write_refcount(slot, next)?;
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
        let rec_off = self.rec_off(slot);
        let region = alloc.live_at(rec.data_off).ok_or_else(|| {
            PmemError::corrupt(
                Structure::ExtentTable,
                rec_off + REC_OFF,
                format!(
                    "extent {slot} payload at {} unknown to the allocator",
                    rec.data_off
                ),
            )
        })?;
        write_u64(&self.dev, rec_off + REC_STATE, STATE_FREE)?;
        self.dev.persist(rec_off + REC_STATE, 8)?;
        alloc.free(&region)?;
        if inner.by_hash.get(&rec.chash) == Some(&slot) {
            inner.by_hash.remove(&rec.chash);
        }
        inner.free_slots.push(slot);
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
            bytes += rec.len;
        }
        Ok((swept, bytes))
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
            stats.stored_bytes += rec.len;
            stats.referenced_logical += rec.refcount * rec.len;
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
    fn content_hash_distinguishes_lengths_and_bytes() {
        assert_eq!(content_hash(b"abc"), content_hash(b"abc"));
        assert_ne!(content_hash(b"abc"), content_hash(b"abd"));
        assert_ne!(content_hash(&[0u8; 8]), content_hash(&[0u8; 9]));
    }

    #[test]
    fn identical_payloads_share_one_extent() {
        let (_pm, alloc, store) = setup();
        let a = store.insert_or_ref(&[7u8; 1024], &alloc).unwrap();
        let b = store.insert_or_ref(&[7u8; 1024], &alloc).unwrap();
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
    fn decref_then_sweep_frees_the_payload() {
        let (_pm, alloc, store) = setup();
        let free0 = alloc.free_bytes();
        let r = store.insert_or_ref(&[9u8; 4096], &alloc).unwrap();
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
        let again = store.insert_or_ref(&[9u8; 4096], &alloc).unwrap();
        assert!(!again.shared);
    }

    #[test]
    fn release_frees_the_extent_with_its_last_reference() {
        let (_pm, alloc, store) = setup();
        let free0 = alloc.free_bytes();
        let r = store.insert_or_ref(&[6u8; 4096], &alloc).unwrap();
        store.incref(r.slot).unwrap();
        assert_eq!(store.release(r.slot, &alloc).unwrap(), 1);
        assert_eq!(store.record(r.slot).unwrap().refcount, 1);
        assert_eq!(store.release(r.slot, &alloc).unwrap(), 0);
        assert!(store.record(r.slot).is_err(), "record freed first");
        assert_eq!(alloc.free_bytes(), free0, "then the payload");
        assert_eq!(store.sweep_unreferenced(&alloc).unwrap(), (0, 0));
        let again = store.insert_or_ref(&[6u8; 4096], &alloc).unwrap();
        assert!(!again.shared, "the hash is forgotten");
    }

    #[test]
    fn concurrent_ref_and_decref_keep_the_refcount_exact() {
        const ROUNDS: u64 = 20_000;
        let (_pm, alloc, store) = setup();
        let bytes = [8u8; 256];
        let r = store.insert_or_ref(&bytes, &alloc).unwrap();
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
                        store.insert_or_ref(&bytes, &alloc).unwrap();
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
        let a = store.insert_or_ref(&[1u8; 512], &alloc).unwrap();
        store.insert_or_ref(&[2u8; 512], &alloc).unwrap();
        let xt_base = PmemAllocator::table_size(128);
        drop(store);

        let rec = ExtentStore::recover(pm, xt_base).unwrap();
        assert_eq!(rec.live_extents().unwrap().len(), 2);
        let again = rec.insert_or_ref(&[1u8; 512], &alloc).unwrap();
        assert!(again.shared);
        assert_eq!(again.slot, a.slot);
        assert_eq!(rec.record(a.slot).unwrap().refcount, 2);
    }

    #[test]
    fn recover_refuses_other_layout_versions() {
        let (pm, alloc, store) = setup();
        store.insert_or_ref(&[4u8; 256], &alloc).unwrap();
        drop(store);
        let xt_base = PmemAllocator::table_size(128);
        for version in [1u32, 3] {
            crate::typed::write_u32(&pm, xt_base + H_VERSION, version).unwrap();
            pm.persist(xt_base + H_VERSION, 4).unwrap();
            assert!(matches!(
                ExtentStore::recover(pm.clone(), xt_base),
                Err(PmemError::Corrupt { structure: Structure::ExtentTable, at, .. })
                    if at == xt_base + H_VERSION
            ));
        }
        crate::typed::write_u32(&pm, xt_base + H_VERSION, XT_VERSION).unwrap();
        let rec = ExtentStore::recover(pm, xt_base).unwrap();
        assert_eq!(rec.live_extents().unwrap().len(), 1);
    }

    #[test]
    fn torn_insert_leaves_no_live_record() {
        let (pm, alloc, store) = setup();
        store.insert_or_ref(&[3u8; 256], &alloc).unwrap();
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

    /// Where a crash interrupts a streamed insert.
    #[derive(Debug, Clone, Copy)]
    enum Window {
        /// Payload streamed, its fence not yet run.
        Streamed,
        /// Payload fenced, record not yet written.
        Fenced,
        /// Record fields persisted, state still free.
        Recorded,
        /// `state = LIVE` stored but not yet persisted.
        Publishing,
    }

    /// Power-fails the device and recovers the store the way index
    /// recovery does: refcounts recounted from `referenced` (the slots
    /// live extent maps name), refcount-0 extents swept, and every
    /// extent payload no live record names freed.
    fn crash_and_recover(
        pm: &Arc<PmemDevice>,
        spec: CrashSpec,
        referenced: &[u32],
    ) -> (PmemAllocator, ExtentStore) {
        pm.crash(spec);
        let alloc = PmemAllocator::recover(pm.clone(), 0).unwrap();
        let store = ExtentStore::recover(pm.clone(), PmemAllocator::table_size(128)).unwrap();
        for (slot, _) in store.live_extents().unwrap() {
            let count = u64::from(referenced.contains(&slot));
            store.set_refcount(slot, count).unwrap();
        }
        store.sweep_unreferenced(&alloc).unwrap();
        let live: Vec<u64> = store
            .live_extents()
            .unwrap()
            .iter()
            .map(|(_, r)| r.data_off)
            .collect();
        for a in alloc.live_allocations() {
            if a.tag == EXTENT_DATA_TAG && !live.contains(&a.offset) {
                alloc.free(&a).unwrap();
            }
        }
        (alloc, store)
    }

    #[test]
    fn a_crash_inside_a_streamed_insert_keeps_every_earlier_extent() {
        let payload = |fill: u8, len: usize| -> Vec<u8> {
            (0..len).map(|i| fill ^ (i as u8).rotate_left(3)).collect()
        };
        let specs = std::iter::once(CrashSpec::LoseAll)
            .chain((0..6).map(|seed| CrashSpec::Random { seed }))
            .collect::<Vec<_>>();
        for window in [
            Window::Streamed,
            Window::Fenced,
            Window::Recorded,
            Window::Publishing,
        ] {
            for &spec in &specs {
                let (pm, alloc, store) = setup();
                let earlier: Vec<(u32, Vec<u8>)> = (1..=3u8)
                    .map(|fill| {
                        let bytes = payload(fill, 5000);
                        (store.insert_or_ref(&bytes, &alloc).unwrap().slot, bytes)
                    })
                    .collect();
                let free_before = alloc.free_bytes();

                // The new extent straddles two bulk pages and ragged
                // lines; its steps run as `insert_or_ref` runs them.
                let bytes = payload(9, 2 * 4096 + 300);
                let slot = store.inner.lock().free_slots.pop().unwrap();
                let region = alloc.alloc(bytes.len() as u64, EXTENT_DATA_TAG).unwrap();
                let len = bytes.len() as u64;
                match window {
                    Window::Streamed => pm.write_nt(region.offset, &bytes).unwrap(),
                    Window::Fenced => store.stream_payload(region.offset, &bytes).unwrap(),
                    Window::Recorded | Window::Publishing => {
                        store.stream_payload(region.offset, &bytes).unwrap();
                        let chash = content_hash(&bytes);
                        store.write_record(slot, chash, region.offset, len).unwrap();
                        if let Window::Publishing = window {
                            write_u64(&pm, store.rec_off(slot) + REC_STATE, STATE_LIVE).unwrap();
                        }
                    }
                }
                let refs: Vec<u32> = earlier.iter().map(|(s, _)| *s).collect();
                let (alloc, store) = crash_and_recover(&pm, spec, &refs);

                let at = format!("{window:?} under {spec:?}");
                let live = store.live_extents().unwrap();
                for (s, rec) in &live {
                    let mut stored = vec![0u8; rec.len as usize];
                    pm.read(rec.data_off, &mut stored).unwrap();
                    assert_eq!(content_hash(&stored), rec.chash, "torn live {s}: {at}");
                }
                let live_slots: Vec<u32> = live.iter().map(|(s, _)| *s).collect();
                let mut want = refs.clone();
                want.sort_unstable();
                assert_eq!(live_slots, want, "only the earlier extents live: {at}");
                for (s, bytes) in &earlier {
                    let rec = store.record(*s).unwrap();
                    assert_eq!(rec.refcount, 1, "{at}");
                    let mut stored = vec![0u8; bytes.len()];
                    pm.read(rec.data_off, &mut stored).unwrap();
                    assert_eq!(&stored, bytes, "earlier extent {s} damaged: {at}");
                }
                assert_eq!(alloc.free_bytes(), free_before, "payload GC'd: {at}");
                let again = store.insert_or_ref(&bytes, &alloc).unwrap();
                assert!(!again.shared, "{at}");
            }
        }
    }

    #[test]
    fn an_empty_payload_is_a_typed_error() {
        let (_pm, alloc, store) = setup();
        let free0 = alloc.free_bytes();
        assert_eq!(
            store.insert_or_ref(&[], &alloc),
            Err(PmemError::EmptyExtent)
        );
        assert_eq!(alloc.free_bytes(), free0);
        assert_eq!(store.stats().unwrap(), ExtentStats::default());
    }

    #[test]
    fn table_full_is_reported() {
        let pm = PmemDevice::new(SimContext::icdcs24(), PmemMode::DevDax, 1 << 20);
        let xt_base = PmemAllocator::table_size(32);
        let heap_base = (xt_base + ExtentStore::table_size(2) + 4095) & !4095;
        let alloc = PmemAllocator::format(pm.clone(), 0, 32, heap_base, 1 << 20).unwrap();
        let store = ExtentStore::format(pm, xt_base, 2).unwrap();
        store.insert_or_ref(&[1u8; 64], &alloc).unwrap();
        store.insert_or_ref(&[2u8; 64], &alloc).unwrap();
        assert!(matches!(
            store.insert_or_ref(&[3u8; 64], &alloc),
            Err(PmemError::TableFull)
        ));
    }
}
