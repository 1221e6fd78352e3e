//! A persistent region allocator with an on-media allocation table.
//!
//! This is the reproduction of the paper's *Allocator* which "records the
//! allocation status of each PMEM region in AllocTable" (§III-B). The
//! table is a fixed array of 32-byte slots on PMem; each live slot
//! records `{offset, len, tag}` of one region. Slot state transitions are
//! ordered so that recovery after any crash sees either the old or the
//! new state, never a torn one:
//!
//! 1. write `offset/len/tag` fields, persist;
//! 2. set `state = LIVE`, persist (8-byte atomic).
//!
//! Free is the reverse: `state = FREE`, persist. The free-extent map and
//! the live-region map beside it are volatile DRAM mirrors of the
//! table, rebuilt from it on [`PmemAllocator::recover`], so lookups
//! never scan the table.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::{PmemDevice, PmemError, PmemResult, Structure};

const TABLE_MAGIC: u64 = 0x504F_5254_5553_4154; // "PORTUSAT"
const ENTRY_SIZE: u64 = 32;
const HEADER_SIZE: u64 = 64;

const STATE_FREE: u64 = 0;
const STATE_LIVE: u64 = 1;

/// A live persistent allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PmemAlloc {
    /// Byte offset of the region on the device.
    pub offset: u64,
    /// Region length in bytes.
    pub len: u64,
    /// Caller-chosen tag (e.g. a model id) recorded durably with the
    /// region; lets recovery attribute regions to owners.
    pub tag: u64,
    slot: u32,
}

impl PmemAlloc {
    /// The table slot backing this allocation (diagnostic).
    pub fn slot(&self) -> u32 {
        self.slot
    }
}

#[derive(Debug)]
struct Inner {
    /// offset -> len of free extents, coalesced.
    free: BTreeMap<u64, u64>,
    /// offset -> live allocation: the table's live entries.
    live: BTreeMap<u64, PmemAlloc>,
    /// Table slots not currently live.
    free_slots: Vec<u32>,
}

/// Persistent allocator over a `[heap_base, heap_end)` region of a
/// [`PmemDevice`], with its AllocTable at `table_base`.
///
/// # Examples
///
/// ```
/// use portus_pmem::{PmemAllocator, PmemDevice, PmemMode};
/// use portus_sim::SimContext;
///
/// let pm = PmemDevice::new(SimContext::icdcs24(), PmemMode::DevDax, 1 << 20);
/// let alloc = PmemAllocator::format(pm.clone(), 0, 128, 1 << 16, 1 << 20)?;
/// let region = alloc.alloc(4096, 7)?;
/// assert_eq!(region.len, 4096);
/// alloc.free(&region)?;
/// # Ok::<(), portus_pmem::PmemError>(())
/// ```
#[derive(Debug)]
pub struct PmemAllocator {
    dev: Arc<PmemDevice>,
    table_base: u64,
    heap_base: u64,
    heap_end: u64,
    inner: Mutex<Inner>,
}

impl PmemAllocator {
    fn entry_offset(&self, slot: u32) -> u64 {
        self.table_base + HEADER_SIZE + slot as u64 * ENTRY_SIZE
    }

    /// Size on media of a table with `max_entries` slots (header
    /// included); lay the heap out after this.
    pub fn table_size(max_entries: u32) -> u64 {
        HEADER_SIZE + max_entries as u64 * ENTRY_SIZE
    }

    /// Formats a fresh allocator: writes the header, zeroes the table,
    /// and declares `[heap_base, heap_end)` free.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::Corrupt`] if the layout is inconsistent
    /// (table overlapping heap, zero-sized heap) and device bounds
    /// errors if the ranges exceed capacity.
    pub fn format(
        dev: Arc<PmemDevice>,
        table_base: u64,
        max_entries: u32,
        heap_base: u64,
        heap_end: u64,
    ) -> PmemResult<PmemAllocator> {
        let table_end = table_base + Self::table_size(max_entries);
        if heap_base < table_end || heap_end <= heap_base {
            return Err(PmemError::corrupt(
                Structure::AllocTable,
                table_base,
                format!("bad layout: table [{table_base}, {table_end}) vs heap [{heap_base}, {heap_end})"),
            ));
        }
        let mut header = Vec::with_capacity(HEADER_SIZE as usize);
        header.extend_from_slice(&TABLE_MAGIC.to_le_bytes());
        header.extend_from_slice(&1u32.to_le_bytes()); // version
        header.extend_from_slice(&max_entries.to_le_bytes());
        header.extend_from_slice(&heap_base.to_le_bytes());
        header.extend_from_slice(&heap_end.to_le_bytes());
        header.resize(HEADER_SIZE as usize, 0);
        dev.write(table_base, &header)?;
        // Zero the whole entry table.
        let zeros = vec![0u8; (max_entries as u64 * ENTRY_SIZE) as usize];
        dev.write(table_base + HEADER_SIZE, &zeros)?;
        dev.persist(table_base, Self::table_size(max_entries))?;

        let inner = Inner {
            free: BTreeMap::from([(heap_base, heap_end - heap_base)]),
            live: BTreeMap::new(),
            free_slots: (0..max_entries).rev().collect(),
        };
        Ok(PmemAllocator {
            dev,
            table_base,
            heap_base,
            heap_end,
            inner: Mutex::new(inner),
        })
    }

    /// Recovers an allocator from a previously formatted table,
    /// rebuilding the free map from the live entries. Survivor of any
    /// crash point thanks to the two-step slot protocol.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::Corrupt`] on bad magic or on live entries
    /// that overlap each other or fall outside the heap.
    pub fn recover(dev: Arc<PmemDevice>, table_base: u64) -> PmemResult<PmemAllocator> {
        let mut header = [0u8; HEADER_SIZE as usize];
        dev.read(table_base, &mut header)?;
        let magic = u64::from_le_bytes(header[0..8].try_into().expect("slice of 8"));
        if magic != TABLE_MAGIC {
            return Err(PmemError::corrupt(
                Structure::AllocTable,
                table_base,
                format!("bad magic {magic:#018x}"),
            ));
        }
        let max_entries = u32::from_le_bytes(header[12..16].try_into().expect("slice of 4"));
        let heap_base = u64::from_le_bytes(header[16..24].try_into().expect("slice of 8"));
        let heap_end = u64::from_le_bytes(header[24..32].try_into().expect("slice of 8"));

        let mut live: BTreeMap<u64, PmemAlloc> = BTreeMap::new();
        let mut free_slots = Vec::new();
        for slot in 0..max_entries {
            let off = table_base + HEADER_SIZE + slot as u64 * ENTRY_SIZE;
            let mut entry = [0u8; ENTRY_SIZE as usize];
            dev.read(off, &mut entry)?;
            match decode_entry(&entry, slot) {
                Some(a) => {
                    if a.offset < heap_base || a.offset + a.len > heap_end || a.len == 0 {
                        return Err(PmemError::corrupt(
                            Structure::AllocTable,
                            off,
                            format!("live entry {slot} [{}, +{}) outside heap", a.offset, a.len),
                        ));
                    }
                    if let Some(dup) = live.insert(a.offset, a) {
                        return Err(overlap(table_base, &dup, &a));
                    }
                }
                None => free_slots.push(slot),
            }
        }
        free_slots.reverse();

        // Rebuild the free map as heap minus live regions.
        let mut free = BTreeMap::new();
        let mut cursor = heap_base;
        let mut prev: Option<&PmemAlloc> = None;
        for a in live.values() {
            if let Some(p) = prev.filter(|p| p.offset + p.len > a.offset) {
                return Err(overlap(table_base, p, a));
            }
            if a.offset > cursor {
                free.insert(cursor, a.offset - cursor);
            }
            cursor = a.offset + a.len;
            prev = Some(a);
        }
        if cursor < heap_end {
            free.insert(cursor, heap_end - cursor);
        }

        Ok(PmemAllocator {
            dev,
            table_base,
            heap_base,
            heap_end,
            inner: Mutex::new(Inner {
                free,
                live,
                free_slots,
            }),
        })
    }

    /// Allocates `len` bytes (64-byte aligned) tagged `tag`.
    ///
    /// # Errors
    ///
    /// [`PmemError::OutOfSpace`] if no extent fits, [`PmemError::TableFull`]
    /// if all slots are live.
    pub fn alloc(&self, len: u64, tag: u64) -> PmemResult<PmemAlloc> {
        self.alloc_aligned(len, 64, tag)
    }

    /// Allocates `len` bytes aligned to `align` (a power of two).
    ///
    /// # Errors
    ///
    /// As [`PmemAllocator::alloc`]; also [`PmemError::Unaligned`] if
    /// `align` is not a power of two.
    pub fn alloc_aligned(&self, len: u64, align: u64, tag: u64) -> PmemResult<PmemAlloc> {
        if len == 0 || !align.is_power_of_two() {
            return Err(PmemError::Unaligned { offset: len, align });
        }
        let mut inner = self.inner.lock();
        // First-fit over the free map, honoring alignment.
        let mut choice = None;
        for (&off, &flen) in inner.free.iter() {
            let aligned = (off + align - 1) & !(align - 1);
            let pad = aligned - off;
            if pad.checked_add(len).is_some_and(|need| flen >= need) {
                choice = Some((off, flen, aligned, pad));
                break;
            }
        }
        let (off, flen, aligned, pad) = choice.ok_or_else(|| PmemError::OutOfSpace {
            requested: len,
            largest_free: inner.free.values().copied().max().unwrap_or(0),
        })?;
        let slot = inner.free_slots.pop().ok_or(PmemError::TableFull)?;

        // Persist the slot: fields first, then the state word.
        let entry_off = self.entry_offset(slot);
        let mut fields = [0u8; 24];
        fields[0..8].copy_from_slice(&aligned.to_le_bytes());
        fields[8..16].copy_from_slice(&len.to_le_bytes());
        fields[16..24].copy_from_slice(&tag.to_le_bytes());
        self.dev.write(entry_off + 8, &fields)?;
        self.dev.persist(entry_off + 8, 24)?;
        self.dev.write(entry_off, &STATE_LIVE.to_le_bytes())?;
        self.dev.persist(entry_off, 8)?;

        // Update the volatile free map.
        inner.free.remove(&off);
        if pad > 0 {
            inner.free.insert(off, pad);
        }
        let rem = flen - pad - len;
        if rem > 0 {
            inner.free.insert(aligned + len, rem);
        }
        let a = PmemAlloc {
            offset: aligned,
            len,
            tag,
            slot,
        };
        inner.live.insert(aligned, a);
        Ok(a)
    }

    /// Frees a region, durably clearing its slot and coalescing the free
    /// map.
    ///
    /// # Errors
    ///
    /// Device bounds errors only (a double free is caught by a debug
    /// assertion on the free map).
    pub fn free(&self, alloc: &PmemAlloc) -> PmemResult<()> {
        let entry_off = self.entry_offset(alloc.slot);
        self.dev.write(entry_off, &STATE_FREE.to_le_bytes())?;
        self.dev.persist(entry_off, 8)?;

        let mut inner = self.inner.lock();
        inner.free_slots.push(alloc.slot);
        inner.live.remove(&alloc.offset);
        insert_coalesced(&mut inner.free, alloc.offset, alloc.len);
        Ok(())
    }

    /// All live allocations, in offset order.
    pub fn live_allocations(&self) -> Vec<PmemAlloc> {
        self.inner.lock().live.values().copied().collect()
    }

    /// The live allocation starting at `offset`, if any.
    pub fn live_at(&self, offset: u64) -> Option<PmemAlloc> {
        self.inner.lock().live.get(&offset).copied()
    }

    /// Total free bytes.
    pub fn free_bytes(&self) -> u64 {
        self.inner.lock().free.values().sum()
    }

    /// Largest contiguous free extent.
    pub fn largest_free_extent(&self) -> u64 {
        self.inner.lock().free.values().copied().max().unwrap_or(0)
    }

    /// Bytes of the heap span currently allocated (span minus free).
    pub fn used_bytes(&self) -> u64 {
        (self.heap_end - self.heap_base).saturating_sub(self.free_bytes())
    }

    /// Heap bounds `[base, end)`.
    pub fn heap_bounds(&self) -> (u64, u64) {
        (self.heap_base, self.heap_end)
    }

    /// The underlying device.
    pub fn device(&self) -> &Arc<PmemDevice> {
        &self.dev
    }
}

/// Decodes one table entry; `None` unless it is live.
fn decode_entry(entry: &[u8; ENTRY_SIZE as usize], slot: u32) -> Option<PmemAlloc> {
    let word = |i: usize| u64::from_le_bytes(entry[i..i + 8].try_into().expect("slice of 8"));
    (word(0) == STATE_LIVE).then(|| PmemAlloc {
        offset: word(8),
        len: word(16),
        tag: word(24),
        slot,
    })
}

/// Two live entries of the table at `table_base` overlap; the error
/// points at `b`'s entry.
fn overlap(table_base: u64, a: &PmemAlloc, b: &PmemAlloc) -> PmemError {
    PmemError::corrupt(
        Structure::AllocTable,
        table_base + HEADER_SIZE + u64::from(b.slot) * ENTRY_SIZE,
        format!(
            "live regions overlap: [{}, +{}) and [{}, +{})",
            a.offset, a.len, b.offset, b.len
        ),
    )
}

fn insert_coalesced(free: &mut BTreeMap<u64, u64>, offset: u64, len: u64) {
    let mut start = offset;
    let mut end = offset + len;
    // Merge with predecessor.
    if let Some((&poff, &plen)) = free.range(..offset).next_back() {
        debug_assert!(poff + plen <= offset, "double free or overlap at {offset}");
        if poff + plen == offset {
            start = poff;
            free.remove(&poff);
        }
    }
    // Merge with successor.
    if let Some((&soff, &slen)) = free.range(offset..).next() {
        debug_assert!(soff >= end, "double free or overlap at {offset}");
        if soff == end {
            end += slen;
            free.remove(&soff);
        }
    }
    free.insert(start, end - start);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CrashSpec, PmemMode};
    use portus_sim::SimContext;

    fn setup() -> (Arc<PmemDevice>, PmemAllocator) {
        let pm = PmemDevice::new(SimContext::icdcs24(), PmemMode::DevDax, 1 << 20);
        let alloc = PmemAllocator::format(pm.clone(), 0, 64, 1 << 14, 1 << 20).unwrap();
        (pm, alloc)
    }

    #[test]
    fn alloc_free_round_trip() {
        let (_pm, alloc) = setup();
        let total = alloc.free_bytes();
        let a = alloc.alloc(1000, 1).unwrap();
        assert_eq!(a.len, 1000);
        assert_eq!(a.offset % 64, 0);
        alloc.free(&a).unwrap();
        assert_eq!(alloc.free_bytes(), total);
        assert_eq!(alloc.largest_free_extent(), total);
    }

    #[test]
    fn used_bytes_tracks_the_heap_span() {
        let (_pm, alloc) = setup();
        let (base, end) = alloc.heap_bounds();
        assert_eq!(alloc.used_bytes(), (end - base) - alloc.free_bytes());
        let a = alloc.alloc(4096, 1).unwrap();
        let used = alloc.used_bytes();
        assert!(used >= 4096);
        alloc.free(&a).unwrap();
        assert_eq!(alloc.used_bytes(), used - 4096);
    }

    #[test]
    fn allocations_do_not_overlap() {
        let (_pm, alloc) = setup();
        let regions: Vec<_> = (0..16)
            .map(|i| alloc.alloc(100 + i * 7, i).unwrap())
            .collect();
        let mut sorted = regions.clone();
        sorted.sort_by_key(|a| a.offset);
        for pair in sorted.windows(2) {
            assert!(pair[0].offset + pair[0].len <= pair[1].offset);
        }
    }

    #[test]
    fn alignment_is_honored() {
        let (_pm, alloc) = setup();
        alloc.alloc(10, 0).unwrap();
        let a = alloc.alloc_aligned(100, 4096, 0).unwrap();
        assert_eq!(a.offset % 4096, 0);
    }

    #[test]
    fn out_of_space_reports_largest_extent() {
        let (_pm, alloc) = setup();
        let err = alloc.alloc(1 << 21, 0).unwrap_err();
        match err {
            PmemError::OutOfSpace { largest_free, .. } => {
                assert_eq!(largest_free, (1 << 20) - (1 << 14));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn table_full_is_reported() {
        let pm = PmemDevice::new(SimContext::icdcs24(), PmemMode::DevDax, 1 << 20);
        let alloc = PmemAllocator::format(pm, 0, 2, 1 << 14, 1 << 20).unwrap();
        alloc.alloc(64, 0).unwrap();
        alloc.alloc(64, 0).unwrap();
        assert!(matches!(alloc.alloc(64, 0), Err(PmemError::TableFull)));
    }

    #[test]
    fn recovery_rebuilds_free_map() {
        let (pm, alloc) = setup();
        let a = alloc.alloc(4096, 11).unwrap();
        let b = alloc.alloc(8192, 22).unwrap();
        alloc.free(&a).unwrap();
        let free_before = alloc.free_bytes();
        drop(alloc);

        let rec = PmemAllocator::recover(pm, 0).unwrap();
        assert_eq!(rec.free_bytes(), free_before);
        let live = rec.live_allocations();
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].offset, b.offset);
        assert_eq!(live[0].tag, 22);
        // New allocations must not collide with the survivor.
        let c = rec.alloc(1 << 15, 33).unwrap();
        assert!(c.offset + c.len <= b.offset || c.offset >= b.offset + b.len);
    }

    #[test]
    fn recovery_after_crash_mid_alloc_never_leaks_torn_entries() {
        // Crash between writing fields and setting LIVE: slot must read
        // as free after recovery.
        let (pm, alloc) = setup();
        let _keep = alloc.alloc(128, 5).unwrap();
        // Simulate the torn state by hand: write fields without state.
        let entry_off = HEADER_SIZE + ENTRY_SIZE; // slot 1 is next
        pm.write(entry_off + 8, &999u64.to_le_bytes()).unwrap();
        pm.persist(entry_off + 8, 8).unwrap();
        pm.crash(CrashSpec::LoseAll);

        let rec = PmemAllocator::recover(pm, 0).unwrap();
        assert_eq!(rec.live_allocations().len(), 1);
    }

    #[test]
    fn recovery_detects_overlap_corruption() {
        let (pm, alloc) = setup();
        let a = alloc.alloc(4096, 0).unwrap();
        // Forge a second live entry overlapping `a`.
        let entry_off = HEADER_SIZE + ENTRY_SIZE;
        let mut forged = [0u8; 32];
        forged[0..8].copy_from_slice(&STATE_LIVE.to_le_bytes());
        forged[8..16].copy_from_slice(&a.offset.to_le_bytes());
        forged[16..24].copy_from_slice(&1024u64.to_le_bytes());
        pm.write(entry_off, &forged).unwrap();
        pm.persist(entry_off, 32).unwrap();
        assert!(matches!(
            PmemAllocator::recover(pm, 0),
            Err(PmemError::Corrupt { structure: Structure::AllocTable, at, .. }) if at == entry_off
        ));
    }

    /// The test oracle for the DRAM live map: every live entry of the
    /// durable table, in offset order.
    fn scan_table(alloc: &PmemAllocator) -> Vec<PmemAlloc> {
        let mut count = [0u8; 4];
        alloc.dev.read(alloc.table_base + 12, &mut count).unwrap();
        let mut out: Vec<PmemAlloc> = (0..u32::from_le_bytes(count))
            .filter_map(|slot| {
                let mut entry = [0u8; ENTRY_SIZE as usize];
                alloc
                    .dev
                    .read(alloc.entry_offset(slot), &mut entry)
                    .unwrap();
                decode_entry(&entry, slot)
            })
            .collect();
        out.sort_by_key(|a| a.offset);
        out
    }

    #[test]
    fn live_map_matches_a_table_scan_across_alloc_free_and_recover() {
        let (pm, mut alloc) = setup();
        let mut rng = portus_sim::SimRng::new(0x11FE);
        let mut held: Vec<PmemAlloc> = Vec::new();
        for step in 0..400u64 {
            if held.is_empty() || rng.gen_range(3) != 0 {
                if let Ok(a) = alloc.alloc(64 + rng.gen_range(8192), step) {
                    held.push(a);
                }
            } else {
                let a = held.swap_remove(rng.gen_range(held.len() as u64) as usize);
                alloc.free(&a).unwrap();
            }
            if step % 97 == 0 {
                drop(alloc);
                pm.crash(CrashSpec::LoseAll);
                alloc = PmemAllocator::recover(pm.clone(), 0).unwrap();
            }
            let live = alloc.live_allocations();
            assert_eq!(live, scan_table(&alloc), "step {step}");
            for a in &live {
                assert_eq!(alloc.live_at(a.offset), Some(*a));
            }
        }
        assert!(alloc.live_at(alloc.heap_bounds().1).is_none());
    }

    #[test]
    fn coalescing_merges_neighbours() {
        let (_pm, alloc) = setup();
        let a = alloc.alloc(64, 0).unwrap();
        let b = alloc.alloc(64, 0).unwrap();
        let c = alloc.alloc(64, 0).unwrap();
        alloc.free(&a).unwrap();
        alloc.free(&c).unwrap();
        alloc.free(&b).unwrap(); // middle last: must merge into one extent
        assert_eq!(alloc.largest_free_extent(), alloc.free_bytes());
    }
}
