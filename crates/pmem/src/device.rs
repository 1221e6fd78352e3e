//! The simulated persistent-memory device.
//!
//! Models the persistence domain of Intel Optane DC PMem the way
//! persistent-memory programming actually experiences it (Rudoff,
//! ";login: 2017"): CPU stores land in volatile cache lines and are only
//! *guaranteed* durable after an explicit flush (`clwb`) of each line
//! followed by a fence (`sfence`). On power failure, unflushed lines may
//! or may not have reached media — the hardware is free to have evicted
//! any of them. [`PmemDevice::crash`] reproduces exactly that
//! non-determinism, which is what the crash-consistency tests of the
//! Portus double-mapping scheme need to be meaningful.
//!
//! Two representation choices keep multi-gigabyte checkpoints tractable:
//! the durable media is a sparse page store (memory proportional to
//! bytes written), and page-aligned full-page stores are tracked as
//! page-granular overlay entries instead of 64 separate cache lines.
//! Non-temporal stores ([`PmemDevice::write_nt`]) bypass the cache:
//! their lines and pages enter the flushed-but-unfenced set directly,
//! so one fence makes a whole stream durable without a `clwb` per
//! line. One documented approximation: a store into a page holding
//! flushed-but-unfenced *lines* re-dirties that page. Portus's on-media
//! layout keeps bulk data page-aligned and metadata in separate lines,
//! so the approximation is never exercised by the protocols under test.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use portus_sim::SimContext;

use crate::{PmemError, PmemResult};

/// Cache-line size: the granularity of flushes and of crash loss.
pub const CACHE_LINE: u64 = 64;
/// Page size of the sparse persistent store and of bulk overlay entries.
pub const PAGE: u64 = 4096;

type Line = [u8; CACHE_LINE as usize];
type Page = [u8; PAGE as usize];

/// How the namespace is exposed to software (paper §V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PmemMode {
    /// Device DAX: raw byte-addressable access, no file system. This is
    /// the mode Portus uses ("users can perform direct access to PMEM via
    /// mmap and detour kernel file systems").
    DevDax,
    /// File-system DAX: an ext4-DAX file system (and BeeGFS above it)
    /// owns the namespace.
    FsDax,
}

#[derive(Debug, Default)]
struct Media {
    /// Durable content, sparse by page. Absent pages read as zero.
    pages: BTreeMap<u64, Box<Page>>,
}

impl Media {
    fn read(&self, offset: u64, out: &mut [u8]) {
        let mut pos = 0usize;
        while pos < out.len() {
            let abs = offset + pos as u64;
            let page_idx = abs / PAGE;
            let in_page = (abs % PAGE) as usize;
            let chunk = (out.len() - pos).min(PAGE as usize - in_page);
            match self.pages.get(&page_idx) {
                Some(p) => out[pos..pos + chunk].copy_from_slice(&p[in_page..in_page + chunk]),
                None => out[pos..pos + chunk].fill(0),
            }
            pos += chunk;
        }
    }

    fn write(&mut self, offset: u64, data: &[u8]) {
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = offset + pos as u64;
            let page_idx = abs / PAGE;
            let in_page = (abs % PAGE) as usize;
            let chunk = (data.len() - pos).min(PAGE as usize - in_page);
            let page = self
                .pages
                .entry(page_idx)
                .or_insert_with(|| Box::new([0u8; PAGE as usize]));
            page[in_page..in_page + chunk].copy_from_slice(&data[pos..pos + chunk]);
            pos += chunk;
        }
    }

    /// Makes `content` the durable page `page_idx`. An existing media
    /// page is updated in place and the staging buffer handed back for
    /// reuse, so steady-state rewrites allocate nothing.
    fn write_page(&mut self, page_idx: u64, content: Box<Page>) -> Option<Box<Page>> {
        match self.pages.entry(page_idx) {
            Entry::Occupied(mut page) => {
                page.get_mut().copy_from_slice(&content[..]);
                Some(content)
            }
            Entry::Vacant(slot) => {
                slot.insert(content);
                None
            }
        }
    }
}

/// Most spare page buffers [`Inner`] keeps for reuse: 256 MiB, enough
/// to recycle the whole staging of a checkpoint up to that size. Spares
/// are shared by every thread that stores to the device, so a buffer
/// one dispatch worker frees is reused by the next, whatever its
/// allocator arena.
const SPARE_PAGES_MAX: usize = 1 << 16;

#[derive(Debug, Default)]
struct Volatile {
    /// Dirty cache lines not yet flushed.
    dirty_lines: BTreeMap<u64, Box<Line>>,
    /// Lines flushed (`clwb`) but not fenced: durable after the next
    /// fence; on a crash each may or may not have reached media.
    pending_lines: BTreeMap<u64, Box<Line>>,
    /// Dirty full pages (bulk stores), not yet flushed.
    dirty_pages: BTreeMap<u64, Box<Page>>,
    /// Full pages flushed but not fenced.
    pending_pages: BTreeMap<u64, Box<Page>>,
}

#[derive(Debug, Default)]
struct Inner {
    media: Media,
    volatile: Volatile,
    /// Superseded page buffers, reused by the next full-page store
    /// instead of a fresh allocation (bounded by [`SPARE_PAGES_MAX`]).
    spare_pages: Vec<Box<Page>>,
    /// Page buffers ever allocated by full-page stores (diagnostic).
    page_allocs: u64,
}

impl Inner {
    /// A page buffer for a full-page store: a spare one when available.
    fn take_page(&mut self) -> Box<Page> {
        self.spare_pages.pop().unwrap_or_else(|| {
            self.page_allocs += 1;
            Box::new([0u8; PAGE as usize])
        })
    }

    /// Returns a superseded page buffer to the spare list.
    fn recycle_page(&mut self, page: Option<Box<Page>>) {
        if let Some(page) = page {
            if self.spare_pages.len() < SPARE_PAGES_MAX {
                self.spare_pages.push(page);
            }
        }
    }

    /// Coherent (CPU-view) read: overlays over media, newest first.
    fn read_coherent(&self, offset: u64, out: &mut [u8]) {
        self.media.read(offset, out);
        if self.volatile.pending_pages.is_empty()
            && self.volatile.dirty_pages.is_empty()
            && self.volatile.pending_lines.is_empty()
            && self.volatile.dirty_lines.is_empty()
        {
            return;
        }
        overlay_pages(offset, out, &self.volatile.pending_pages);
        overlay_pages(offset, out, &self.volatile.dirty_pages);
        overlay_lines(offset, out, &self.volatile.pending_lines);
        overlay_lines(offset, out, &self.volatile.dirty_lines);
    }

    fn write_coherent(&mut self, offset: u64, data: &[u8]) {
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = offset + pos as u64;
            let page_idx = abs / PAGE;
            let in_page = (abs % PAGE) as usize;
            let chunk = (data.len() - pos).min(PAGE as usize - in_page);
            if in_page == 0 && chunk == PAGE as usize {
                // Full-page bulk store: supersede any finer-grained state.
                let first_line = page_idx * (PAGE / CACHE_LINE);
                let last_line = first_line + PAGE / CACHE_LINE - 1;
                retain_outside(&mut self.volatile.dirty_lines, first_line..=last_line);
                retain_outside(&mut self.volatile.pending_lines, first_line..=last_line);
                let pending = self.volatile.pending_pages.remove(&page_idx);
                self.recycle_page(pending);
                let mut content = self.take_page();
                content.copy_from_slice(&data[pos..pos + chunk]);
                let superseded = self.volatile.dirty_pages.insert(page_idx, content);
                self.recycle_page(superseded);
            } else if let Some(page) = self.volatile.dirty_pages.get_mut(&page_idx) {
                // The page is already a dirty bulk entry: write into it.
                page[in_page..in_page + chunk].copy_from_slice(&data[pos..pos + chunk]);
            } else if let Some(mut page) = self.volatile.pending_pages.remove(&page_idx) {
                // Documented approximation: a store into a page with a
                // flushed-but-unfenced bulk entry re-dirties the page.
                page[in_page..in_page + chunk].copy_from_slice(&data[pos..pos + chunk]);
                self.volatile.dirty_pages.insert(page_idx, page);
            } else {
                self.write_lines(abs, &data[pos..pos + chunk]);
            }
            pos += chunk;
        }
    }

    /// Moves the dirty lines and bulk pages overlapping
    /// `[offset, offset+len)` to the pending set (`clwb`); returns how
    /// many cache lines moved. `len` must be non-zero.
    fn flush_range(&mut self, offset: u64, len: u64) -> u64 {
        let first_line = offset / CACHE_LINE;
        let last_line = (offset + len - 1) / CACHE_LINE;
        let first_page = offset / PAGE;
        let last_page = (offset + len - 1) / PAGE;
        let mut flushed_lines = 0u64;
        let line_keys: Vec<u64> = self
            .volatile
            .dirty_lines
            .range(first_line..=last_line)
            .map(|(k, _)| *k)
            .collect();
        for line in line_keys {
            if let Some(content) = self.volatile.dirty_lines.remove(&line) {
                self.volatile.pending_lines.insert(line, content);
                flushed_lines += 1;
            }
        }
        let page_keys: Vec<u64> = self
            .volatile
            .dirty_pages
            .range(first_page..=last_page)
            .map(|(k, _)| *k)
            .collect();
        for page in page_keys {
            if let Some(content) = self.volatile.dirty_pages.remove(&page) {
                self.volatile.pending_pages.insert(page, content);
                flushed_lines += PAGE / CACHE_LINE;
            }
        }
        flushed_lines
    }

    /// Line-granular RMW store.
    fn write_lines(&mut self, offset: u64, data: &[u8]) {
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = offset + pos as u64;
            let line = abs / CACHE_LINE;
            let in_line = (abs % CACHE_LINE) as usize;
            let chunk = (data.len() - pos).min(CACHE_LINE as usize - in_line);
            let mut content = if let Some(c) = self.volatile.dirty_lines.remove(&line) {
                c
            } else if let Some(c) = self.volatile.pending_lines.remove(&line) {
                // A new store re-dirties a flushed-but-unfenced line.
                c
            } else {
                let mut c = Box::new([0u8; CACHE_LINE as usize]);
                self.read_coherent(line * CACHE_LINE, &mut c[..]);
                c
            };
            content[in_line..in_line + chunk].copy_from_slice(&data[pos..pos + chunk]);
            self.volatile.dirty_lines.insert(line, content);
            pos += chunk;
        }
    }
}

fn retain_outside<V>(map: &mut BTreeMap<u64, V>, keys: impl std::ops::RangeBounds<u64>) {
    let keys: Vec<u64> = map.range(keys).map(|(k, _)| *k).collect();
    for k in keys {
        map.remove(&k);
    }
}

/// Controls which in-flight data survives a simulated power failure.
#[derive(Debug, Clone, Copy)]
pub enum CrashSpec {
    /// Everything volatile is lost; only explicitly persisted data
    /// survives. The most pessimistic (and simplest) adversary.
    LoseAll,
    /// Each in-flight line — and each in-flight bulk page — independently
    /// survives with probability ~1/2, decided by the given seed. Models
    /// random cache evictions and in-flight `clwb`s: the adversary
    /// crash-consistency schemes must defeat.
    Random {
        /// Seed for the per-entry survival coin flips.
        seed: u64,
    },
}

/// A simulated PMem namespace.
///
/// All operations are thread-safe; the device is shared via `Arc`.
///
/// # Examples
///
/// ```
/// use portus_pmem::{PmemDevice, PmemMode};
/// use portus_sim::SimContext;
///
/// let pm = PmemDevice::new(SimContext::icdcs24(), PmemMode::DevDax, 1 << 20);
/// pm.write(0, b"hello")?;
/// pm.persist(0, 5)?; // clwb + sfence: now durable
/// let mut out = [0u8; 5];
/// pm.read(0, &mut out)?;
/// assert_eq!(&out, b"hello");
/// # Ok::<(), portus_pmem::PmemError>(())
/// ```
#[derive(Debug)]
pub struct PmemDevice {
    ctx: SimContext,
    mode: PmemMode,
    capacity: u64,
    inner: Mutex<Inner>,
}

impl PmemDevice {
    /// Creates a namespace of `capacity` bytes in the given `mode`.
    pub fn new(ctx: SimContext, mode: PmemMode, capacity: u64) -> Arc<PmemDevice> {
        Arc::new(PmemDevice {
            ctx,
            mode,
            capacity,
            inner: Mutex::new(Inner::default()),
        })
    }

    /// The namespace mode.
    pub fn mode(&self) -> PmemMode {
        self.mode
    }

    /// Namespace capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// The shared simulation context this device charges time against.
    pub fn ctx(&self) -> &SimContext {
        &self.ctx
    }

    fn check(&self, offset: u64, len: u64) -> PmemResult<()> {
        let end = offset.checked_add(len).ok_or(PmemError::OutOfBounds {
            offset,
            len,
            capacity: self.capacity,
        })?;
        if end > self.capacity {
            return Err(PmemError::OutOfBounds {
                offset,
                len,
                capacity: self.capacity,
            });
        }
        Ok(())
    }

    /// Reads the *coherent* view (CPU perspective): volatile overlays
    /// over durable media.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if the range exceeds capacity.
    pub fn read(&self, offset: u64, out: &mut [u8]) -> PmemResult<()> {
        self.check(offset, out.len() as u64)?;
        self.inner.lock().read_coherent(offset, out);
        Ok(())
    }

    /// Stores `data` at `offset` through the (volatile) cache. The data
    /// is *not* durable until flushed and fenced.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if the range exceeds capacity.
    pub fn write(&self, offset: u64, data: &[u8]) -> PmemResult<()> {
        self.check(offset, data.len() as u64)?;
        self.inner.lock().write_coherent(offset, data);
        Ok(())
    }

    /// Streams `data` to `offset` with non-temporal stores (`movnt`, as
    /// PMDK's `pmem_memcpy_persist` does): the bytes bypass the cache
    /// and land in the pending set, the state a flush leaves a line in,
    /// so the next [`PmemDevice::fence`] makes them durable and a crash
    /// before it treats them like flushed-but-unfenced lines. Lines and
    /// bulk pages alike. Charges no time and counts no flushes: the
    /// caller prices the stream as a DAX write
    /// ([`portus_sim::CostModel::dax_write`]).
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if the range exceeds capacity.
    pub fn write_nt(&self, offset: u64, data: &[u8]) -> PmemResult<()> {
        self.check(offset, data.len() as u64)?;
        if !data.is_empty() {
            let mut inner = self.inner.lock();
            inner.write_coherent(offset, data);
            inner.flush_range(offset, data.len() as u64);
        }
        Ok(())
    }

    /// Flushes every cache line (and bulk page) overlapping
    /// `[offset, offset+len)` (`clwb`): moves them to the pending set.
    /// Durable after the next [`PmemDevice::fence`]. Bulk pages are
    /// flushed whole even when only partially covered (flushing more
    /// than asked is always safe).
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if the range exceeds capacity.
    pub fn flush(&self, offset: u64, len: u64) -> PmemResult<()> {
        let d = self.flush_cost(self.flush_lines(offset, len)?);
        if !d.is_zero() {
            self.ctx.charge(d);
        }
        Ok(())
    }

    /// `clwb` cost of one flush pass over `lines` dirty lines; the
    /// issue cost saturates at 1024 lines, past which write-back
    /// overlaps the remaining flushes.
    fn flush_cost(&self, lines: u64) -> portus_sim::SimDuration {
        portus_sim::SimDuration::from_nanos(self.ctx.model.clwb_ns * lines.min(1024))
    }

    /// [`PmemDevice::flush`] minus the clock charge: the dirty→pending
    /// transitions and flush accounting over `[offset, offset+len)`;
    /// returns how many cache lines moved.
    fn flush_lines(&self, offset: u64, len: u64) -> PmemResult<u64> {
        self.check(offset, len)?;
        if len == 0 {
            return Ok(0);
        }
        let flushed_lines = self.inner.lock().flush_range(offset, len);
        self.ctx.stats.record_pmem_flushes(flushed_lines);
        Ok(flushed_lines)
    }

    /// Persistence fence (`sfence`): everything previously flushed is now
    /// durable on media.
    pub fn fence(&self) {
        let d = self.fence_internal();
        self.ctx.charge(d);
    }

    /// [`PmemDevice::fence`] minus the clock charge: pending data
    /// reaches media and the fence is counted, but the `sfence` cost is
    /// returned instead of advancing the clock.
    fn fence_internal(&self) -> portus_sim::SimDuration {
        let mut inner = self.inner.lock();
        let pending_lines = std::mem::take(&mut inner.volatile.pending_lines);
        for (line, content) in pending_lines {
            inner.media.write(line * CACHE_LINE, &content[..]);
        }
        let pending_pages = std::mem::take(&mut inner.volatile.pending_pages);
        for (page, content) in pending_pages {
            let spare = inner.media.write_page(page, content);
            inner.recycle_page(spare);
        }
        drop(inner);
        self.ctx.stats.record_pmem_fence();
        portus_sim::SimDuration::from_nanos(self.ctx.model.sfence_ns)
    }

    /// Convenience: flush the range and fence.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if the range exceeds capacity.
    pub fn persist(&self, offset: u64, len: u64) -> PmemResult<()> {
        self.flush(offset, len)?;
        self.fence();
        Ok(())
    }

    /// [`PmemDevice::persist`] for pipelined callers, over a batch of
    /// `(offset, len)` ranges: one flush pass covers every range and
    /// one fence makes the whole batch durable (same state transitions
    /// and flush/fence accounting). The `clwb + sfence` cost is
    /// *returned* instead of charged so the caller can schedule it on
    /// its own timeline — e.g. overlapped with an in-flight fabric
    /// transfer — and advance the shared clock once, when the whole
    /// pipeline drains.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if a range exceeds capacity;
    /// ranges before it stay flushed but unfenced.
    pub fn persist_deferred(&self, ranges: &[(u64, u64)]) -> PmemResult<portus_sim::SimDuration> {
        let mut lines = 0u64;
        for &(offset, len) in ranges {
            lines += self.flush_lines(offset, len)?;
        }
        Ok(self.flush_cost(lines) + self.fence_internal())
    }

    /// Drops the volatile state of `[offset, offset+len)` without
    /// writing it back: dirty and flushed-but-unfenced lines and pages
    /// wholly inside the range vanish, and their page buffers are
    /// recycled. For regions about to be freed whose content must never
    /// become durable (a dedup staging region); reads of the range
    /// afterwards return the durable bytes. Lines and pages straddling
    /// the range's edges are kept, since they hold bytes outside it.
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::OutOfBounds`] if the range exceeds capacity.
    pub fn discard(&self, offset: u64, len: u64) -> PmemResult<()> {
        self.check(offset, len)?;
        let end = offset + len;
        let lines = offset.div_ceil(CACHE_LINE)..end / CACHE_LINE;
        let pages = offset.div_ceil(PAGE)..end / PAGE;
        let mut inner = self.inner.lock();
        let v = &mut inner.volatile;
        for map in [&mut v.dirty_lines, &mut v.pending_lines] {
            retain_outside(map, lines.clone());
        }
        let mut dropped = Vec::new();
        for map in [&mut v.dirty_pages, &mut v.pending_pages] {
            let keys: Vec<u64> = map.range(pages.clone()).map(|(k, _)| *k).collect();
            dropped.extend(keys.into_iter().filter_map(|k| map.remove(&k)));
        }
        for page in dropped {
            inner.recycle_page(Some(page));
        }
        Ok(())
    }

    /// Atomic 8-byte compare-and-swap at `offset` (must be 8-aligned),
    /// acting on the coherent view. On success the new value is written
    /// through the cache (call [`PmemDevice::persist`] to make it
    /// durable, or use [`PmemDevice::cas_u64_persist`]).
    ///
    /// This is the primitive behind the paper's "compare & swap intrinsic
    /// to ensure the lock-free of the whole system".
    ///
    /// # Errors
    ///
    /// Returns [`PmemError::Unaligned`] for misaligned offsets and
    /// [`PmemError::OutOfBounds`] past capacity. A failed comparison
    /// returns `Ok(Err(actual))`.
    pub fn cas_u64(&self, offset: u64, expected: u64, new: u64) -> PmemResult<Result<(), u64>> {
        if !offset.is_multiple_of(8) {
            return Err(PmemError::Unaligned { offset, align: 8 });
        }
        self.check(offset, 8)?;
        let mut inner = self.inner.lock();
        let mut cur = [0u8; 8];
        inner.read_coherent(offset, &mut cur);
        let actual = u64::from_le_bytes(cur);
        if actual != expected {
            return Ok(Err(actual));
        }
        inner.write_coherent(offset, &new.to_le_bytes());
        Ok(Ok(()))
    }

    /// [`PmemDevice::cas_u64`] followed by persist of the word on
    /// success.
    ///
    /// # Errors
    ///
    /// As [`PmemDevice::cas_u64`].
    pub fn cas_u64_persist(
        &self,
        offset: u64,
        expected: u64,
        new: u64,
    ) -> PmemResult<Result<(), u64>> {
        let r = self.cas_u64(offset, expected, new)?;
        if r.is_ok() {
            self.persist(offset, 8)?;
        }
        Ok(r)
    }

    /// Simulates a power failure: volatile state is destroyed according
    /// to `spec`. Durable media is untouched. After this call the device
    /// behaves like a freshly rebooted machine.
    pub fn crash(&self, spec: CrashSpec) {
        let mut inner = self.inner.lock();
        let dirty_lines = std::mem::take(&mut inner.volatile.dirty_lines);
        let pending_lines = std::mem::take(&mut inner.volatile.pending_lines);
        let dirty_pages = std::mem::take(&mut inner.volatile.dirty_pages);
        let pending_pages = std::mem::take(&mut inner.volatile.pending_pages);
        let pages = pending_pages.into_iter().chain(dirty_pages);
        match spec {
            CrashSpec::LoseAll => {
                for (_, content) in pages {
                    inner.recycle_page(Some(content));
                }
            }
            CrashSpec::Random { seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                // Any in-flight line may independently have reached media:
                // pending lines (clwb'd, fence outstanding) and dirty
                // lines (spontaneous cache eviction) alike. Bulk pages
                // survive or vanish per page.
                for (line, content) in pending_lines.into_iter().chain(dirty_lines) {
                    if rng.gen::<bool>() {
                        inner.media.write(line * CACHE_LINE, &content[..]);
                    }
                }
                for (page, content) in pages {
                    let spare = if rng.gen::<bool>() {
                        inner.media.write_page(page, content)
                    } else {
                        Some(content)
                    };
                    inner.recycle_page(spare);
                }
            }
        }
    }

    /// Number of in-flight (not yet durable) cache lines; diagnostic.
    pub fn inflight_lines(&self) -> u64 {
        let inner = self.inner.lock();
        let v = &inner.volatile;
        v.dirty_lines.len() as u64
            + v.pending_lines.len() as u64
            + (v.dirty_pages.len() as u64 + v.pending_pages.len() as u64) * (PAGE / CACHE_LINE)
    }

    /// Page buffers full-page stores have allocated so far; superseded
    /// buffers are reused, so rewriting the same pages does not grow
    /// this. Diagnostic.
    pub fn page_buffers_allocated(&self) -> u64 {
        self.inner.lock().page_allocs
    }

    /// Bytes of durable media actually materialized (sparse pages ×
    /// page size); diagnostic.
    pub fn resident_bytes(&self) -> u64 {
        self.inner.lock().media.pages.len() as u64 * PAGE
    }

    /// Snapshot of durable pages for imaging (page index → content).
    pub(crate) fn durable_pages(&self) -> Vec<(u64, Box<Page>)> {
        self.inner
            .lock()
            .media
            .pages
            .iter()
            .map(|(k, v)| (*k, v.clone()))
            .collect()
    }

    /// Restores durable pages from an image (replaces current media).
    pub(crate) fn restore_pages(&self, pages: Vec<(u64, Box<Page>)>) {
        let mut inner = self.inner.lock();
        inner.volatile = Volatile::default();
        inner.media.pages = pages.into_iter().collect();
    }
}

fn overlay_lines(offset: u64, out: &mut [u8], lines: &BTreeMap<u64, Box<Line>>) {
    if out.is_empty() || lines.is_empty() {
        return;
    }
    let first = offset / CACHE_LINE;
    let last = (offset + out.len() as u64 - 1) / CACHE_LINE;
    for (&line, content) in lines.range(first..=last) {
        let line_start = line * CACHE_LINE;
        let start = line_start.max(offset);
        let end = (line_start + CACHE_LINE).min(offset + out.len() as u64);
        for abs in start..end {
            out[(abs - offset) as usize] = content[(abs - line_start) as usize];
        }
    }
}

fn overlay_pages(offset: u64, out: &mut [u8], pages: &BTreeMap<u64, Box<Page>>) {
    if out.is_empty() || pages.is_empty() {
        return;
    }
    let first = offset / PAGE;
    let last = (offset + out.len() as u64 - 1) / PAGE;
    for (&page, content) in pages.range(first..=last) {
        let page_start = page * PAGE;
        let start = page_start.max(offset);
        let end = (page_start + PAGE).min(offset + out.len() as u64);
        out[(start - offset) as usize..(end - offset) as usize]
            .copy_from_slice(&content[(start - page_start) as usize..(end - page_start) as usize]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> Arc<PmemDevice> {
        PmemDevice::new(SimContext::icdcs24(), PmemMode::DevDax, 1 << 24)
    }

    #[test]
    fn write_is_visible_before_persist() {
        let pm = dev();
        pm.write(100, b"abc").unwrap();
        let mut out = [0u8; 3];
        pm.read(100, &mut out).unwrap();
        assert_eq!(&out, b"abc");
    }

    #[test]
    fn unpersisted_write_lost_on_crash() {
        let pm = dev();
        pm.write(0, b"doomed").unwrap();
        pm.crash(CrashSpec::LoseAll);
        let mut out = [0u8; 6];
        pm.read(0, &mut out).unwrap();
        assert_eq!(out, [0u8; 6]);
    }

    #[test]
    fn persisted_write_survives_crash() {
        let pm = dev();
        pm.write(4096, b"durable").unwrap();
        pm.persist(4096, 7).unwrap();
        pm.crash(CrashSpec::LoseAll);
        let mut out = [0u8; 7];
        pm.read(4096, &mut out).unwrap();
        assert_eq!(&out, b"durable");
    }

    #[test]
    fn flush_without_fence_is_not_guaranteed() {
        let pm = dev();
        pm.write(0, b"limbo").unwrap();
        pm.flush(0, 5).unwrap();
        pm.crash(CrashSpec::LoseAll);
        let mut out = [0u8; 5];
        pm.read(0, &mut out).unwrap();
        assert_eq!(out, [0u8; 5]);
    }

    #[test]
    fn bulk_page_writes_round_trip_and_persist() {
        let pm = dev();
        let payload: Vec<u8> = (0..3 * PAGE as usize + 123).map(|i| i as u8).collect();
        pm.write(PAGE, &payload).unwrap(); // page-aligned start, ragged end
        let mut out = vec![0u8; payload.len()];
        pm.read(PAGE, &mut out).unwrap();
        assert_eq!(out, payload);
        pm.persist(PAGE, payload.len() as u64).unwrap();
        pm.crash(CrashSpec::LoseAll);
        pm.read(PAGE, &mut out).unwrap();
        assert_eq!(out, payload);
    }

    #[test]
    fn small_write_over_bulk_page_takes_precedence() {
        let pm = dev();
        pm.write(0, &[0xAA; PAGE as usize]).unwrap(); // bulk
        pm.write(10, &[0x55; 4]).unwrap(); // fine-grained on top
        let mut out = [0u8; 16];
        pm.read(4, &mut out).unwrap();
        assert_eq!(&out[..6], &[0xAA; 6]);
        assert_eq!(&out[6..10], &[0x55; 4]);
        assert_eq!(&out[10..], &[0xAA; 6]);
    }

    #[test]
    fn bulk_overlay_is_page_granular_not_line_blowup() {
        let pm = dev();
        pm.write(0, &vec![1u8; 8 * PAGE as usize]).unwrap();
        // 8 pages as bulk entries = 8 * 64 line-equivalents.
        assert_eq!(pm.inflight_lines(), 8 * (PAGE / CACHE_LINE));
    }

    #[test]
    fn random_crash_preserves_line_granularity() {
        for seed in 0..16 {
            let pm = dev();
            pm.write(0, &[0xAA; 64]).unwrap();
            pm.persist(0, 64).unwrap();
            pm.write(64, &[0xBB; 64]).unwrap();
            pm.crash(CrashSpec::Random { seed });
            let mut first = [0u8; 64];
            pm.read(0, &mut first).unwrap();
            assert_eq!(first, [0xAA; 64], "persisted line damaged (seed {seed})");
            let mut second = [0u8; 64];
            pm.read(64, &mut second).unwrap();
            assert!(
                second == [0xBB; 64] || second == [0u8; 64],
                "unflushed line must be all-or-nothing at line granularity"
            );
        }
    }

    #[test]
    fn rewrite_of_pending_line_redirties_it() {
        let pm = dev();
        pm.write(0, b"one").unwrap();
        pm.flush(0, 3).unwrap();
        pm.write(0, b"two").unwrap(); // re-dirty before the fence
        pm.fence(); // fence persists nothing for this line
        pm.crash(CrashSpec::LoseAll);
        let mut out = [0u8; 3];
        pm.read(0, &mut out).unwrap();
        assert_eq!(out, [0u8; 3], "re-dirtied line must not be durable");
    }

    #[test]
    fn cas_succeeds_and_fails_correctly() {
        let pm = dev();
        pm.write(8, &7u64.to_le_bytes()).unwrap();
        assert_eq!(pm.cas_u64(8, 7, 9).unwrap(), Ok(()));
        assert_eq!(pm.cas_u64(8, 7, 11).unwrap(), Err(9));
        assert!(matches!(
            pm.cas_u64(5, 0, 1),
            Err(PmemError::Unaligned { .. })
        ));
    }

    #[test]
    fn cas_persist_survives_crash() {
        let pm = dev();
        pm.cas_u64_persist(0, 0, 42).unwrap().unwrap();
        pm.crash(CrashSpec::LoseAll);
        let mut out = [0u8; 8];
        pm.read(0, &mut out).unwrap();
        assert_eq!(u64::from_le_bytes(out), 42);
    }

    #[test]
    fn cas_sees_bulk_written_values() {
        let pm = dev();
        let mut page = vec![0u8; PAGE as usize];
        page[0..8].copy_from_slice(&33u64.to_le_bytes());
        pm.write(0, &page).unwrap(); // bulk path
        assert_eq!(pm.cas_u64(0, 33, 44).unwrap(), Ok(()));
        let mut out = [0u8; 8];
        pm.read(0, &mut out).unwrap();
        assert_eq!(u64::from_le_bytes(out), 44);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let pm = dev();
        assert!(pm.write(1 << 24, &[1]).is_err());
        assert!(pm.flush(u64::MAX, 2).is_err());
    }

    #[test]
    fn sparse_media_stays_small() {
        let pm = PmemDevice::new(SimContext::icdcs24(), PmemMode::DevDax, 1 << 40);
        pm.write(1 << 39, b"far away").unwrap();
        pm.persist(1 << 39, 8).unwrap();
        assert!(pm.resident_bytes() <= 8192);
    }

    #[test]
    fn flush_and_fence_are_counted() {
        let pm = dev();
        let before = pm.ctx().stats.snapshot();
        pm.write(0, &[1u8; 256]).unwrap();
        pm.persist(0, 256).unwrap();
        let delta = pm.ctx().stats.snapshot().since(&before);
        assert_eq!(delta.pmem_flushes, 4); // 256 bytes = 4 lines
        assert_eq!(delta.pmem_fences, 1);

        // A deferred batch: one flush pass over both ranges and one
        // fence, with the cost returned instead of charged.
        pm.write(0, b"first").unwrap();
        pm.write(8192, &[7u8; 256]).unwrap();
        let (before, t0) = (pm.ctx().stats.snapshot(), pm.ctx().clock.now());
        let cost = pm.persist_deferred(&[(0, 5), (8192, 256)]).unwrap();
        let delta = pm.ctx().stats.snapshot().since(&before);
        assert_eq!((delta.pmem_flushes, delta.pmem_fences), (5, 1));
        assert_eq!(cost, pm.ctx().model.persist_lines(5));
        assert_eq!(pm.ctx().clock.now(), t0);
        pm.crash(CrashSpec::LoseAll);
        let mut out = [0u8; 8192 + 256];
        pm.read(0, &mut out).unwrap();
        assert_eq!(&out[..5], b"first");
        assert_eq!(&out[8192..], &[7u8; 256][..]);
    }

    #[test]
    fn rewritten_pages_recycle_their_buffers() {
        const PAGES: u64 = 8;
        let pm = dev();
        let round = |fill: u8| {
            pm.write(PAGE, &vec![fill; (PAGES * PAGE) as usize])
                .unwrap();
            pm.persist(PAGE, PAGES * PAGE).unwrap();
        };
        // Round one fills media; round two stages a second set whose
        // fence hands the superseded buffers back. After that, every
        // rewrite runs on recycled buffers.
        round(1);
        round(2);
        let steady = pm.page_buffers_allocated();
        assert!(steady <= 2 * PAGES, "{steady} buffers for {PAGES} pages");
        for fill in 3..100u8 {
            round(fill);
        }
        assert_eq!(pm.page_buffers_allocated(), steady);
        assert_eq!(pm.resident_bytes(), PAGES * PAGE);

        // Crash semantics are unchanged: a recycled, unfenced rewrite
        // is lost whole under `LoseAll` and survives or vanishes per
        // page under `Random`, never torn within a page.
        pm.write(PAGE, &vec![0xEE; (PAGES * PAGE) as usize])
            .unwrap();
        pm.crash(CrashSpec::LoseAll);
        let mut out = vec![0u8; (PAGES * PAGE) as usize];
        pm.read(PAGE, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 99));
        for seed in 0..8 {
            pm.write(PAGE, &vec![0xEE; (PAGES * PAGE) as usize])
                .unwrap();
            pm.flush(PAGE, PAGES * PAGE).unwrap();
            pm.crash(CrashSpec::Random { seed });
            pm.read(PAGE, &mut out).unwrap();
            for page in out.chunks(PAGE as usize) {
                assert!(
                    page.iter().all(|&b| b == page[0]) && (page[0] == 0xEE || page[0] == 99),
                    "page torn or wrong after a random crash (seed {seed})"
                );
            }
            // Re-establish the durable baseline for the next seed.
            pm.write(PAGE, &vec![99; (PAGES * PAGE) as usize]).unwrap();
            pm.persist(PAGE, PAGES * PAGE).unwrap();
        }
        assert_eq!(pm.page_buffers_allocated(), steady);
    }

    #[test]
    fn discard_drops_volatile_state_and_keeps_media() {
        let pm = dev();
        // Durable baseline over three pages, then volatile overwrites:
        // bulk pages (dirty and flushed-unfenced) and stray lines.
        pm.write(PAGE, &vec![1; 3 * PAGE as usize]).unwrap();
        pm.persist(PAGE, 3 * PAGE).unwrap();
        pm.write(PAGE, &vec![2; 2 * PAGE as usize]).unwrap();
        pm.flush(PAGE, PAGE).unwrap();
        pm.write(3 * PAGE + 64, &[3; 100]).unwrap();
        // A line just past the range stays.
        pm.write(4 * PAGE, &[4; 8]).unwrap();
        let spare_before = pm.page_buffers_allocated();

        pm.discard(PAGE, 3 * PAGE).unwrap();
        let mut out = vec![0u8; 3 * PAGE as usize];
        pm.read(PAGE, &mut out).unwrap();
        assert!(
            out.iter().all(|&b| b == 1),
            "reads return the durable bytes"
        );
        let mut edge = [0u8; 8];
        pm.read(4 * PAGE, &mut edge).unwrap();
        assert_eq!(edge, [4; 8], "state outside the range survives");
        assert_eq!(pm.inflight_lines(), 1);
        // The dropped page buffers are reused, not reallocated.
        pm.write(PAGE, &vec![5; 2 * PAGE as usize]).unwrap();
        assert_eq!(pm.page_buffers_allocated(), spare_before);
        // A fence after the discard makes nothing of it durable.
        pm.discard(PAGE, 2 * PAGE).unwrap();
        pm.fence();
        pm.crash(CrashSpec::LoseAll);
        pm.read(PAGE, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 1), "media intact after the crash");
    }

    /// Two bulk pages plus ragged lines on either side.
    const NT_OFF: u64 = PAGE - 100;
    const NT_LEN: usize = 2 * PAGE as usize + 300;

    fn nt_payload(fill: u8) -> Vec<u8> {
        (0..NT_LEN).map(|i| fill ^ i as u8).collect()
    }

    #[test]
    fn streamed_bytes_are_durable_only_after_a_fence() {
        let pm = dev();
        let payload = nt_payload(0x5A);
        let mut out = vec![0u8; NT_LEN];
        pm.write_nt(NT_OFF, &payload).unwrap();
        pm.read(NT_OFF, &mut out).unwrap();
        assert_eq!(out, payload, "streamed bytes are coherent at once");
        pm.crash(CrashSpec::LoseAll);
        pm.read(NT_OFF, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0), "lost without a fence");

        pm.write_nt(NT_OFF, &payload).unwrap();
        pm.fence();
        pm.crash(CrashSpec::LoseAll);
        pm.read(NT_OFF, &mut out).unwrap();
        assert_eq!(out, payload, "durable after the fence");
    }

    #[test]
    fn a_stream_costs_nothing_until_its_fence() {
        let pm = dev();
        // A dirty bulk page and a dirty line under the stream: both are
        // superseded without a flush being counted.
        pm.write(PAGE, &[1; PAGE as usize]).unwrap();
        pm.write(NT_OFF, &[2; 8]).unwrap();
        let (before, t0) = (pm.ctx().stats.snapshot(), pm.ctx().clock.now());
        pm.write_nt(NT_OFF, &nt_payload(3)).unwrap();
        let delta = pm.ctx().stats.snapshot().since(&before);
        assert_eq!((delta.pmem_flushes, delta.pmem_fences), (0, 0));
        assert_eq!(pm.ctx().clock.now(), t0);
        pm.fence();
        let delta = pm.ctx().stats.snapshot().since(&before);
        assert_eq!((delta.pmem_flushes, delta.pmem_fences), (0, 1));
        assert_eq!(pm.ctx().clock.now(), t0 + pm.ctx().model.persist_lines(0));
        assert_eq!(pm.inflight_lines(), 0, "the fence drained the stream");
    }

    #[test]
    fn a_partial_stream_into_a_dirty_bulk_page_turns_it_pending() {
        let pm = dev();
        pm.write(0, &[7; PAGE as usize]).unwrap();
        pm.write_nt(100, &[9; 50]).unwrap();
        pm.fence();
        pm.crash(CrashSpec::LoseAll);
        let mut out = vec![0u8; PAGE as usize];
        pm.read(0, &mut out).unwrap();
        assert!(out[..100].iter().all(|&b| b == 7));
        assert!(out[100..150].iter().all(|&b| b == 9));
        assert!(out[150..].iter().all(|&b| b == 7));
    }

    #[test]
    fn discard_drops_streamed_lines_and_pages() {
        let pm = dev();
        pm.write_nt(NT_OFF, &nt_payload(4)).unwrap();
        pm.discard(0, 4 * PAGE).unwrap();
        assert_eq!(pm.inflight_lines(), 0);
        pm.fence();
        pm.crash(CrashSpec::LoseAll);
        let mut out = vec![0u8; NT_LEN];
        pm.read(NT_OFF, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == 0), "nothing of it became durable");
    }

    /// A random crash keeps each streamed line and page exactly as it
    /// keeps the same bytes stored and flushed: same seed, same media.
    #[test]
    fn a_random_crash_treats_streamed_bytes_as_flushed_ones() {
        let payload = nt_payload(6);
        let (mut kept, mut lost) = (false, false);
        for seed in 0..16 {
            let streamed = dev();
            streamed.write_nt(NT_OFF, &payload).unwrap();
            streamed.crash(CrashSpec::Random { seed });
            let flushed = dev();
            flushed.write(NT_OFF, &payload).unwrap();
            flushed.flush(NT_OFF, NT_LEN as u64).unwrap();
            flushed.crash(CrashSpec::Random { seed });
            let (mut a, mut b) = (vec![0u8; NT_LEN], vec![0u8; NT_LEN]);
            streamed.read(NT_OFF, &mut a).unwrap();
            flushed.read(NT_OFF, &mut b).unwrap();
            assert_eq!(a, b, "seed {seed}");
            kept |= a.iter().zip(&payload).any(|(x, y)| x == y && *y != 0);
            lost |= a.iter().zip(&payload).any(|(x, y)| x != y);
        }
        assert!(
            kept && lost,
            "the seeds keep some of the stream and lose some"
        );
    }

    #[test]
    fn concurrent_writers_do_not_corrupt() {
        let pm = dev();
        std::thread::scope(|s| {
            for t in 0..4u8 {
                let pm = pm.clone();
                s.spawn(move || {
                    let base = t as u64 * 4 * PAGE;
                    pm.write(base, &vec![t; 3 * PAGE as usize]).unwrap();
                    pm.persist(base, 3 * PAGE).unwrap();
                });
            }
        });
        pm.crash(CrashSpec::LoseAll);
        for t in 0..4u8 {
            let mut out = vec![0u8; 3 * PAGE as usize];
            pm.read(t as u64 * 4 * PAGE, &mut out).unwrap();
            assert!(out.iter().all(|&b| b == t), "writer {t} corrupted");
        }
    }
}
