//! The million-model catalog: a paged on-PMem name index.
//!
//! The paper-scale daemon mirrors the whole ModelTable into a DRAM
//! B-tree ([`crate::ModelMap`]) and scans the fixed table
//! linearly — fine for dozens of models, hopeless for a fleet serving
//! millions. The catalog replaces both with a two-level structure kept
//! entirely on PMem behind the shared allocator:
//!
//! * **Micro-pages** (`portus_pmem::micropage`) — sorted, variable-
//!   length `name → MIndex-offset` runs packed into ~4 KiB immutable
//!   pages. Mutations copy-on-write a fresh page; a page is only ever
//!   referenced after it is fully persisted. A full page splits into
//!   two halves of about equal encoded size.
//! * **Root block** — a 16-byte header and a directory of 8-byte page
//!   offsets, one per page, in name order. The superblock's
//!   `SUPER_CAT_OFF` word points at the current root, so the whole
//!   structure is reachable from media alone.
//!
//! A lookup binary-searches the on-PMem directory and then searches
//! exactly one page. Each of the `log2(pages)` probes reads one
//! directory word and compares the name with the first name of the
//! page it points to ([`micropage::cmp_first_key`], one 64-byte read
//! for first names up to 46 bytes). The directory stores no keys, so
//! no name population can make two pages tie. DRAM usage is the root
//! mirror plus a CLOCK page cache clamped to
//! [`CatalogConfig::cache_pages`] decoded pages — never `O(models)`.
//!
//! **Concurrency.** Mutations serialize on one internal mutex, but
//! lookups do *not* hold it across PMem reads: a lookup snapshots the
//! root mirror (root offset, directory size) plus a generation counter
//! under the lock, performs the directory search and page probe
//! lock-free, then re-checks the generation before trusting (or
//! caching) what it read. Every mutation bumps the generation while
//! holding the mutex, so a lookup that raced a split/free simply
//! retries; concurrent lookups across tenants never serialize on each
//! other.
//!
//! **Crash consistency.** Same discipline as the extent store: every
//! mutation persists its new pages (and, when the page count changes,
//! a complete new root) *before* one atomic flip — an 8-byte store to
//! the page's directory word for in-place copy-on-write, or to the
//! 8-byte superblock root pointer for splits and rebuilds. A crash
//! on either side of the flip leaves only unreachable allocations,
//! which [`crate::Index::recover`] reclaims by offset reachability; it
//! also reconciles the surviving pages against the live ModelTable
//! entries, covering the windows between a table publish/retire and
//! the corresponding catalog update.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use portus_pmem::{micropage, typed, PmemAllocator, PmemDevice, PmemError, Structure};

use crate::PortusResult;

/// Root-block magic ("CRTL").
const ROOT_MAGIC: u32 = 0x4352_544C;
/// On-media layout version. Version 1 stored a learned model and
/// version 2 a shared name prefix with 8-byte keys derived past it;
/// recovery refuses anything but this one.
const ROOT_VERSION: u32 = 3;
/// The directory of `u64` page offsets starts right after the root
/// header (magic, version, dir_count, page_bytes; u32 each). Root
/// blocks are 64-aligned, so every directory word is 8-aligned and the
/// in-place flip ([`Catalog::update_dir_word`]) is one atomic store.
const ROOT_DIR: u64 = 16;

/// Allocator tag for catalog root blocks.
pub(crate) const CATALOG_ROOT_TAG: u64 = 0x4341_5452_4F4F_5431; // "CATROOT1"
/// Allocator tag for catalog micro-pages.
pub(crate) const CATALOG_PAGE_TAG: u64 = 0x4341_5450_4147_4531; // "CATPAGE1"

/// Configuration of the paged catalog
/// ([`crate::DaemonConfig::catalog`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogConfig {
    /// Micro-page size in bytes. Persisted in the root block, so a
    /// recovered catalog keeps the size it was formatted with.
    pub page_bytes: u64,
    /// DRAM page-cache clamp: at most this many decoded pages are held
    /// in memory (CLOCK eviction). `0` disables caching entirely.
    pub cache_pages: usize,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        CatalogConfig {
            page_bytes: 4096,
            cache_pages: 64,
        }
    }
}

/// Observability counters ([`Catalog::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CatalogStats {
    /// Micro-pages currently published under the root.
    pub pages: u64,
    /// Model entries across those pages.
    pub entries: u64,
    /// Lookups whose page probe hit the DRAM cache.
    pub cache_hits: u64,
    /// Lookups that decoded their page from PMem.
    pub cache_misses: u64,
    /// Decoded pages currently cached.
    pub cached_pages: u64,
    /// Approximate DRAM bytes those cached pages occupy.
    pub cache_bytes: u64,
}

/// One decoded page held by the CLOCK cache.
struct CacheSlot {
    page_off: u64,
    entries: Arc<Vec<(String, u64)>>,
    bytes: u64,
    referenced: bool,
    live: bool,
}

/// Clamped CLOCK cache of decoded pages.
struct PageCache {
    cap: usize,
    slots: Vec<CacheSlot>,
    by_off: HashMap<u64, usize>,
    hand: usize,
}

impl PageCache {
    fn new(cap: usize) -> PageCache {
        PageCache {
            cap,
            slots: Vec::new(),
            by_off: HashMap::new(),
            hand: 0,
        }
    }

    fn get(&mut self, page_off: u64) -> Option<Arc<Vec<(String, u64)>>> {
        let &i = self.by_off.get(&page_off)?;
        self.slots[i].referenced = true;
        Some(self.slots[i].entries.clone())
    }

    fn put(&mut self, page_off: u64, entries: Arc<Vec<(String, u64)>>) {
        if self.cap == 0 || self.by_off.contains_key(&page_off) {
            return;
        }
        let bytes = 64
            + entries
                .iter()
                .map(|(n, _)| n.len() as u64 + 40)
                .sum::<u64>();
        let slot = CacheSlot {
            page_off,
            entries,
            bytes,
            referenced: true,
            live: true,
        };
        if let Some(i) = self.slots.iter().position(|s| !s.live) {
            self.slots[i] = slot;
            self.by_off.insert(page_off, i);
        } else if self.slots.len() < self.cap {
            self.slots.push(slot);
            self.by_off.insert(page_off, self.slots.len() - 1);
        } else {
            // CLOCK: sweep until an unreferenced victim comes around.
            loop {
                let i = self.hand;
                self.hand = (self.hand + 1) % self.cap;
                if self.slots[i].referenced {
                    self.slots[i].referenced = false;
                } else {
                    self.by_off.remove(&self.slots[i].page_off);
                    self.by_off.insert(page_off, i);
                    self.slots[i] = slot;
                    break;
                }
            }
        }
    }

    fn invalidate(&mut self, page_off: u64) {
        if let Some(i) = self.by_off.remove(&page_off) {
            self.slots[i].live = false;
            self.slots[i].referenced = false;
            self.slots[i].entries = Arc::new(Vec::new());
            self.slots[i].bytes = 0;
        }
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.by_off.clear();
        self.hand = 0;
    }

    fn resize(&mut self, cap: usize) {
        if cap < self.slots.len() {
            self.clear();
        }
        self.cap = cap;
    }

    fn cached_pages(&self) -> u64 {
        self.by_off.len() as u64
    }

    fn bytes(&self) -> u64 {
        self.slots.iter().filter(|s| s.live).map(|s| s.bytes).sum()
    }
}

/// Mutable catalog state behind one mutex: the current root's DRAM
/// mirror (pointer and directory size — everything
/// *except* the directory itself, which stays on PMem), the
/// clamped page cache, and a generation counter that invalidates
/// in-flight lock-free lookups.
struct CatInner {
    gen: u64,
    root_off: u64,
    dir_count: u64,
    entries: u64,
    cache: PageCache,
}

/// An immutable snapshot of the root mirror, taken under the mutex and
/// then used for lock-free PMem reads. `gen` ties it to the mutation
/// epoch it was taken in.
#[derive(Clone)]
struct RootSnap {
    gen: u64,
    root_off: u64,
    dir_count: u64,
}

/// The micro-paged on-PMem model catalog.
///
/// All methods are `&self`; an internal mutex serialises mutations and
/// cache movement, while [`Catalog::lookup`] runs its PMem reads
/// outside the lock against a generation-validated snapshot. Methods
/// that allocate or free pages take the shared [`PmemAllocator`]
/// explicitly (the extent-store idiom), so the catalog itself never
/// owns allocator state.
pub struct Catalog {
    dev: Arc<PmemDevice>,
    /// Device offset of the 8-byte word that names the current root
    /// (the superblock's `SUPER_CAT_OFF` word). Flipping it *is* the
    /// commit point for splits and rebuilds.
    root_ptr_at: u64,
    page_bytes: u64,
    inner: Mutex<CatInner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Catalog")
            .field("root_off", &inner.root_off)
            .field("pages", &inner.dir_count)
            .field("entries", &inner.entries)
            .finish()
    }
}

/// The index splitting a full page's `entries` into two runs of about
/// equal encoded size, so both halves of a split have room to grow.
fn byte_midpoint(entries: &[(String, u64)]) -> usize {
    let total: u64 = entries
        .iter()
        .map(|(n, _)| micropage::entry_encoded_len(n))
        .sum();
    let mut acc = 0u64;
    entries
        .iter()
        .position(|(n, _)| {
            acc += micropage::entry_encoded_len(n);
            2 * acc >= total
        })
        .map_or(0, |i| i + 1)
        .min(entries.len().saturating_sub(1))
        .max(1)
}

impl Catalog {
    // ---- construction ----------------------------------------------

    /// Formats an empty catalog: writes a zero-page root block and
    /// publishes it at `root_ptr_at` (the superblock catalog word).
    ///
    /// # Errors
    ///
    /// Allocation and device errors.
    pub(crate) fn format(
        dev: Arc<PmemDevice>,
        alloc: &PmemAllocator,
        root_ptr_at: u64,
        cfg: &CatalogConfig,
    ) -> PortusResult<Catalog> {
        let cat = Catalog::mount(dev, root_ptr_at, cfg.page_bytes, 0, 0, cfg);
        {
            let mut inner = cat.inner.lock();
            let root = cat.write_root(alloc, &[])?;
            cat.flip_root(alloc, &mut inner, root, &[])?;
        }
        Ok(cat)
    }

    /// Mounts the catalog already published at `root_ptr_at`,
    /// rebuilding the DRAM mirror (directory size, entry count) from the
    /// persisted root and page headers. `page_bytes` comes from the
    /// root block, not from `cfg`.
    ///
    /// # Errors
    ///
    /// [`PmemError::Corrupt`] on a bad root magic or a root layout
    /// version other than the current one, or from a page header;
    /// device errors.
    pub(crate) fn recover(
        dev: Arc<PmemDevice>,
        root_ptr_at: u64,
        cfg: &CatalogConfig,
    ) -> PortusResult<Catalog> {
        let root_off = typed::read_u64(&dev, root_ptr_at)?;
        let magic = typed::read_u32(&dev, root_off)?;
        if magic != ROOT_MAGIC {
            let what = format!("bad magic {magic:#x}");
            return Err(PmemError::corrupt(Structure::CatalogRoot, root_off, what).into());
        }
        let version = typed::read_u32(&dev, root_off + 4)?;
        if version != ROOT_VERSION {
            let what = format!("layout version {version}, expected {ROOT_VERSION}");
            return Err(PmemError::corrupt(Structure::CatalogRoot, root_off + 4, what).into());
        }
        let dir_count = u64::from(typed::read_u32(&dev, root_off + 8)?);
        let page_bytes = u64::from(typed::read_u32(&dev, root_off + 12)?);
        let cat = Catalog::mount(dev, root_ptr_at, page_bytes, root_off, dir_count, cfg);
        {
            // The entry count is never persisted (it would go stale in
            // every copy-on-write window): re-derive it from the page
            // headers, which is also an integrity pass over the magics.
            let mut inner = cat.inner.lock();
            let snap = Self::snap_of(&inner);
            let mut entries = 0u64;
            for page_off in cat.read_dir(&snap)? {
                let (count, _) = micropage::read_page_header(&cat.dev, page_off, cat.page_bytes)?;
                entries += u64::from(count);
            }
            inner.entries = entries;
        }
        Ok(cat)
    }

    /// The in-DRAM handle over a root at `root_off` (0: none yet).
    fn mount(
        dev: Arc<PmemDevice>,
        root_ptr_at: u64,
        page_bytes: u64,
        root_off: u64,
        dir_count: u64,
        cfg: &CatalogConfig,
    ) -> Catalog {
        Catalog {
            dev,
            root_ptr_at,
            page_bytes: page_bytes.max(256),
            inner: Mutex::new(CatInner {
                gen: 0,
                root_off,
                dir_count,
                entries: 0,
                cache: PageCache::new(cfg.cache_pages),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Applies the runtime knob of `cfg` (the cache clamp) to an
    /// already-mounted catalog; `page_bytes` stays as formatted.
    pub(crate) fn set_runtime(&self, cfg: &CatalogConfig) {
        self.inner.lock().cache.resize(cfg.cache_pages);
    }

    /// Snapshot of the root mirror for lock-free reads.
    fn snap_of(inner: &CatInner) -> RootSnap {
        RootSnap {
            gen: inner.gen,
            root_off: inner.root_off,
            dir_count: inner.dir_count,
        }
    }

    /// `true` when a mutation has committed since `snap` was taken, in
    /// which case whatever a lock-free lookup read may reference freed
    /// pages and must be retried.
    fn stale(&self, snap: &RootSnap) -> bool {
        self.inner.lock().gen != snap.gen
    }

    // ---- reads ------------------------------------------------------

    /// Looks up the MIndex offset of `name`: directory binary search →
    /// one page probe → in-page binary search.
    ///
    /// The mutex is held only to take the root snapshot and to touch
    /// the page cache — never across the PMem reads — so concurrent
    /// lookups proceed in parallel. A lookup that raced a mutation
    /// (generation mismatch) retries against the new root.
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn lookup(&self, name: &str) -> PortusResult<Option<u64>> {
        loop {
            let snap = {
                let inner = self.inner.lock();
                if inner.dir_count == 0 {
                    return Ok(None);
                }
                Self::snap_of(&inner)
            };
            // All PMem reads happen outside the lock; a concurrent
            // mutation may free what we are reading, so any error or
            // result is only trusted if the generation held.
            let page_off = match self
                .locate_page(&snap, name)
                .and_then(|idx| self.read_dir_word(&snap, idx))
            {
                Ok(off) => off,
                Err(e) => {
                    if self.stale(&snap) {
                        continue;
                    }
                    return Err(e);
                }
            };
            let entries = {
                let mut inner = self.inner.lock();
                if inner.gen != snap.gen {
                    continue;
                }
                inner.cache.get(page_off)
            };
            let entries = match entries {
                Some(hit) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    hit
                }
                None => {
                    let decoded = match micropage::read_page(&self.dev, page_off, self.page_bytes) {
                        Ok(d) => Arc::new(d),
                        Err(e) => {
                            if self.stale(&snap) {
                                continue;
                            }
                            return Err(e.into());
                        }
                    };
                    let mut inner = self.inner.lock();
                    if inner.gen != snap.gen {
                        continue;
                    }
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    inner.cache.put(page_off, decoded.clone());
                    decoded
                }
            };
            if self.stale(&snap) {
                continue;
            }
            return Ok(entries
                .binary_search_by(|(k, _)| k.as_str().cmp(name))
                .ok()
                .map(|i| entries[i].1));
        }
    }

    /// Number of model entries.
    pub fn len(&self) -> u64 {
        self.inner.lock().entries
    }

    /// `true` when no models are catalogued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every `(name, offset)` entry in ascending name order. A full
    /// scan — control-plane only (listings, recovery reconcile).
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn scan(&self) -> PortusResult<Vec<(String, u64)>> {
        let inner = self.inner.lock();
        let snap = Self::snap_of(&inner);
        let mut out = Vec::with_capacity(inner.entries as usize);
        for page_off in self.read_dir(&snap)? {
            out.extend(micropage::read_page(&self.dev, page_off, self.page_bytes)?);
        }
        Ok(out)
    }

    /// Device offsets of every published micro-page (directory order).
    ///
    /// # Errors
    ///
    /// Device errors.
    pub fn page_offsets(&self) -> PortusResult<Vec<u64>> {
        let inner = self.inner.lock();
        self.read_dir(&Self::snap_of(&inner))
    }

    /// The current root block's device offset.
    pub fn root_offset(&self) -> u64 {
        self.inner.lock().root_off
    }

    /// Observability counters.
    pub fn stats(&self) -> CatalogStats {
        let inner = self.inner.lock();
        CatalogStats {
            pages: inner.dir_count,
            entries: inner.entries,
            cache_hits: self.hits.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
            cached_pages: inner.cache.cached_pages(),
            cache_bytes: inner.cache.bytes(),
        }
    }

    // ---- mutations --------------------------------------------------

    /// Inserts (or updates) `name → off`. Returns the previous offset
    /// if the name was already catalogued.
    ///
    /// # Errors
    ///
    /// Allocation and device errors.
    pub fn insert(&self, alloc: &PmemAllocator, name: &str, off: u64) -> PortusResult<Option<u64>> {
        let mut inner = self.inner.lock();
        inner.gen = inner.gen.wrapping_add(1);
        if inner.dir_count == 0 {
            let page = self.write_pages(alloc, &[(name.to_string(), off)])?;
            let root = self.write_root(alloc, &page)?;
            self.flip_root(alloc, &mut inner, root, &[])?;
            inner.dir_count = 1;
            inner.entries = 1;
            return Ok(None);
        }
        let snap = Self::snap_of(&inner);
        let idx = self.locate_page(&snap, name)?;
        let old_page = self.read_dir_word(&snap, idx)?;
        let mut entries: Vec<(String, u64)> = self.page(&mut inner, old_page)?.as_ref().clone();
        let prev = match entries.binary_search_by(|(k, _)| k.as_str().cmp(name)) {
            Ok(i) => Some(std::mem::replace(&mut entries[i].1, off)),
            Err(i) => {
                entries.insert(i, (name.to_string(), off));
                None
            }
        };
        let fits = micropage::PAGE_HEADER
            + entries
                .iter()
                .map(|(n, _)| micropage::entry_encoded_len(n))
                .sum::<u64>()
            <= self.page_bytes;
        if fits {
            let pages = self.write_pages(alloc, &entries)?;
            self.update_dir_word(&snap, idx, pages[0])?;
            inner.cache.invalidate(old_page);
            Self::free_offsets(alloc, &[old_page])?;
        } else {
            // Split at the byte midpoint: both halves (and a complete
            // new root) are durable before the root-pointer flip
            // commits them.
            let mid = byte_midpoint(&entries);
            let mut pages = self.write_pages(alloc, &entries[..mid])?;
            pages.extend(self.write_pages(alloc, &entries[mid..])?);
            let mut dir = self.read_dir(&snap)?;
            dir.splice(idx as usize..=idx as usize, pages);
            let root = self.write_root(alloc, &dir)?;
            self.flip_root(alloc, &mut inner, root, &[old_page])?;
            inner.dir_count = dir.len() as u64;
        }
        if prev.is_none() {
            inner.entries += 1;
        }
        Ok(prev)
    }

    /// Removes `name`, returning its offset if it was catalogued.
    ///
    /// # Errors
    ///
    /// Allocation and device errors.
    pub fn remove(&self, alloc: &PmemAllocator, name: &str) -> PortusResult<Option<u64>> {
        let mut inner = self.inner.lock();
        if inner.dir_count == 0 {
            return Ok(None);
        }
        inner.gen = inner.gen.wrapping_add(1);
        let snap = Self::snap_of(&inner);
        let idx = self.locate_page(&snap, name)?;
        let old_page = self.read_dir_word(&snap, idx)?;
        let mut entries: Vec<(String, u64)> = self.page(&mut inner, old_page)?.as_ref().clone();
        let Ok(i) = entries.binary_search_by(|(k, _)| k.as_str().cmp(name)) else {
            return Ok(None);
        };
        let (_, prev) = entries.remove(i);
        if entries.is_empty() {
            // The page dies: publish a root without its word.
            let mut dir = self.read_dir(&snap)?;
            dir.remove(idx as usize);
            let root = self.write_root(alloc, &dir)?;
            self.flip_root(alloc, &mut inner, root, &[old_page])?;
            inner.dir_count = dir.len() as u64;
        } else {
            let pages = self.write_pages(alloc, &entries)?;
            self.update_dir_word(&snap, idx, pages[0])?;
            inner.cache.invalidate(old_page);
            Self::free_offsets(alloc, &[old_page])?;
        }
        inner.entries -= 1;
        Ok(Some(prev))
    }

    /// Replaces the whole catalog with `entries` in one publish: pack
    /// pages, write a fresh root, flip the root
    /// pointer, then free every superseded page. The `O(n)` build path
    /// — daemon seeding and recovery reconciliation use it instead of
    /// n incremental inserts.
    ///
    /// # Errors
    ///
    /// Allocation and device errors.
    pub fn bulk_replace(
        &self,
        alloc: &PmemAllocator,
        entries: &[(String, u64)],
    ) -> PortusResult<()> {
        let mut sorted: Vec<(String, u64)> = entries.to_vec();
        sorted.sort_by(|a, b| a.0.cmp(&b.0));
        sorted.dedup_by(|a, b| a.0 == b.0);
        let mut inner = self.inner.lock();
        inner.gen = inner.gen.wrapping_add(1);
        let old_pages = self.read_dir(&Self::snap_of(&inner))?;
        let dir = self.write_pages(alloc, &sorted)?;
        let root = self.write_root(alloc, &dir)?;
        inner.cache.clear();
        self.flip_root(alloc, &mut inner, root, &old_pages)?;
        inner.dir_count = dir.len() as u64;
        inner.entries = sorted.len() as u64;
        Ok(())
    }

    /// Reconciles the catalog against the authoritative ModelTable
    /// view (`live`, name → MIndex offset): entries the table lacks are
    /// dropped, entries the catalog lacks (or maps elsewhere) are
    /// adopted. Covers the crash windows between a table publish or
    /// retire and the matching catalog update. Returns how many entries
    /// diverged.
    ///
    /// # Errors
    ///
    /// Allocation and device errors.
    pub fn reconcile(&self, alloc: &PmemAllocator, live: &[(String, u64)]) -> PortusResult<u64> {
        let current = self.scan()?;
        let mut want: Vec<(String, u64)> = live.to_vec();
        want.sort_by(|a, b| a.0.cmp(&b.0));
        want.dedup_by(|a, b| a.0 == b.0);
        if current == want {
            return Ok(0);
        }
        let cur_map: HashMap<&str, u64> = current.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let want_map: HashMap<&str, u64> = want.iter().map(|(k, v)| (k.as_str(), *v)).collect();
        let mut diverged = 0u64;
        for (k, v) in &want {
            if cur_map.get(k.as_str()) != Some(v) {
                diverged += 1; // table-only, or remapped, entry
            }
        }
        for (k, _) in &current {
            if !want_map.contains_key(k.as_str()) {
                diverged += 1; // catalog-only entry (stale)
            }
        }
        self.bulk_replace(alloc, &want)?;
        Ok(diverged)
    }

    // ---- internals --------------------------------------------------

    /// Reads directory word `i` of the snapshot's root: a page offset.
    fn read_dir_word(&self, snap: &RootSnap, i: u64) -> PortusResult<u64> {
        Ok(typed::read_u64(
            &self.dev,
            snap.root_off + ROOT_DIR + i * 8,
        )?)
    }

    /// Reads the full on-PMem directory into DRAM (mutation paths).
    fn read_dir(&self, snap: &RootSnap) -> PortusResult<Vec<u64>> {
        (0..snap.dir_count)
            .map(|i| self.read_dir_word(snap, i))
            .collect()
    }

    /// Repoints directory word `i` at a freshly persisted page: one
    /// 8-aligned 8-byte store and its persist, the commit point of an
    /// in-place copy-on-write.
    fn update_dir_word(&self, snap: &RootSnap, i: u64, page_off: u64) -> PortusResult<()> {
        let at = snap.root_off + ROOT_DIR + i * 8;
        typed::write_u64(&self.dev, at, page_off)?;
        self.dev.persist(at, 8)?;
        Ok(())
    }

    /// Finds the directory index of the page that covers `name`: a
    /// binary search over indices `1..dir_count` for the last page
    /// whose first name is at most `name`, or page 0 when there is
    /// none. Each probe reads one directory word and the probed page's
    /// first name.
    fn locate_page(&self, snap: &RootSnap, name: &str) -> PortusResult<u64> {
        let (mut a, mut b) = (1u64, snap.dir_count);
        while a < b {
            let mid = a + (b - a) / 2;
            let page_off = self.read_dir_word(snap, mid)?;
            if micropage::cmp_first_key(&self.dev, page_off, name)?.is_le() {
                a = mid + 1;
            } else {
                b = mid;
            }
        }
        Ok(a - 1)
    }

    /// The decoded page at `page_off`, via the clamped CLOCK cache.
    fn page(&self, inner: &mut CatInner, page_off: u64) -> PortusResult<Arc<Vec<(String, u64)>>> {
        if let Some(hit) = inner.cache.get(page_off) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let entries = Arc::new(micropage::read_page(&self.dev, page_off, self.page_bytes)?);
        inner.cache.put(page_off, entries.clone());
        Ok(entries)
    }

    /// Packs `entries` into fresh micro-pages, each written and
    /// persisted before anything references it. Returns page offsets.
    fn write_pages(
        &self,
        alloc: &PmemAllocator,
        entries: &[(String, u64)],
    ) -> PortusResult<Vec<u64>> {
        let mut offs = Vec::new();
        for chunk in micropage::pack_pages(entries, self.page_bytes) {
            let region = alloc.alloc_aligned(self.page_bytes, 64, CATALOG_PAGE_TAG)?;
            micropage::write_page(&self.dev, region.offset, self.page_bytes, chunk)?;
            self.dev.persist(region.offset, self.page_bytes)?;
            offs.push(region.offset);
        }
        Ok(offs)
    }

    /// Writes and persists a complete root block (header, directory).
    /// Not yet published — the caller flips the root pointer.
    fn write_root(&self, alloc: &PmemAllocator, dir: &[u64]) -> PortusResult<u64> {
        let size = ROOT_DIR + dir.len() as u64 * 8;
        let region = alloc.alloc_aligned(size, 64, CATALOG_ROOT_TAG)?;
        let off = region.offset;
        typed::write_u32(&self.dev, off, ROOT_MAGIC)?;
        typed::write_u32(&self.dev, off + 4, ROOT_VERSION)?;
        typed::write_u32(&self.dev, off + 8, dir.len() as u32)?;
        typed::write_u32(&self.dev, off + 12, self.page_bytes as u32)?;
        for (i, &p) in dir.iter().enumerate() {
            typed::write_u64(&self.dev, off + ROOT_DIR + i as u64 * 8, p)?;
        }
        self.dev.persist(off, size)?;
        Ok(off)
    }

    /// Commits a fully persisted root: one 8-byte persist of the root
    /// pointer, the flip both split and rebuild paths hinge on. Only
    /// *after* the flip are the superseded root and `retired` pages
    /// freed (and dropped from the cache) — a crash on either side of
    /// the flip strands allocations that exactly one root references,
    /// never regions both roots need, and recovery's reachability GC
    /// reclaims the strays.
    fn flip_root(
        &self,
        alloc: &PmemAllocator,
        inner: &mut CatInner,
        root: u64,
        retired: &[u64],
    ) -> PortusResult<()> {
        typed::write_u64(&self.dev, self.root_ptr_at, root)?;
        self.dev.persist(self.root_ptr_at, 8)?;
        let old_root = inner.root_off;
        inner.root_off = root;
        let mut dead: Vec<u64> = retired.to_vec();
        for &p in retired {
            inner.cache.invalidate(p);
        }
        if old_root != 0 {
            dead.push(old_root);
        }
        Self::free_offsets(alloc, &dead)
    }

    /// Frees the catalog allocations at exactly `offs` (catalog-tagged
    /// regions only), O(log n) each through the allocator's live map.
    fn free_offsets(alloc: &PmemAllocator, offs: &[u64]) -> PortusResult<()> {
        for &o in offs {
            if let Some(a) = alloc
                .live_at(o)
                .filter(|a| a.tag == CATALOG_PAGE_TAG || a.tag == CATALOG_ROOT_TAG)
            {
                alloc.free(&a)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PortusError;
    use portus_pmem::{CrashSpec, PmemMode};
    use portus_sim::{SimContext, SimRng};
    use std::collections::BTreeMap;

    /// Root-pointer word lives at 0; the allocator table starts at 64.
    const ROOT_PTR: u64 = 0;

    fn harness(cfg: &CatalogConfig) -> (Arc<PmemDevice>, PmemAllocator, Catalog) {
        let dev = PmemDevice::new(SimContext::icdcs24(), PmemMode::DevDax, 1 << 23);
        let alloc = PmemAllocator::format(dev.clone(), 64, 2048, 1 << 17, 1 << 23).unwrap();
        let cat = Catalog::format(dev.clone(), &alloc, ROOT_PTR, cfg).unwrap();
        (dev, alloc, cat)
    }

    /// Live catalog-tagged allocations must be exactly the current root
    /// plus the published pages.
    fn assert_no_leaks(alloc: &PmemAllocator, cat: &Catalog) {
        let pages = cat.page_offsets().unwrap();
        let live: Vec<_> = alloc
            .live_allocations()
            .into_iter()
            .filter(|a| a.tag == CATALOG_ROOT_TAG || a.tag == CATALOG_PAGE_TAG)
            .collect();
        assert_eq!(live.len() as u64, 1 + pages.len() as u64);
        for a in live {
            assert!(a.offset == cat.root_offset() || pages.contains(&a.offset));
        }
    }

    #[test]
    fn multibyte_names_do_not_panic_and_resolve() {
        // Names diverging inside a multibyte character ("modelα" and
        // "modelβ" share 6 bytes, one byte into 'α') once panicked the
        // daemon; names compare as bytes, so they simply order.
        let (_dev, alloc, cat) = harness(&CatalogConfig::default());
        cat.insert(&alloc, "modelα", 1).unwrap();
        cat.insert(&alloc, "modelβ", 2).unwrap();
        assert_eq!(cat.lookup("modelα").unwrap(), Some(1));
        assert_eq!(cat.lookup("modelβ").unwrap(), Some(2));
        // Mixed-script churn across splits.
        let names: Vec<String> = (0..300u64)
            .map(|i| match i % 4 {
                0 => format!("модель-{i:04}"),
                1 => format!("モデル-{i:04}"),
                2 => format!("model-{i:04}"),
                _ => format!("模型-{i:04}"),
            })
            .collect();
        for (i, n) in names.iter().enumerate() {
            cat.insert(&alloc, n, 100 + i as u64).unwrap();
        }
        for (i, n) in names.iter().enumerate() {
            assert_eq!(cat.lookup(n).unwrap(), Some(100 + i as u64), "name {n}");
        }
        for n in names.iter().step_by(3) {
            assert!(cat.remove(&alloc, n).unwrap().is_some());
        }
        // A bulk load whose first and last names diverge mid-character.
        cat.bulk_replace(&alloc, &[("prefixπ1".into(), 7), ("prefixσ2".into(), 8)])
            .unwrap();
        assert_eq!(cat.lookup("prefixπ1").unwrap(), Some(7));
        assert_eq!(cat.lookup("prefixσ2").unwrap(), Some(8));
        assert_no_leaks(&alloc, &cat);
    }

    #[test]
    fn insert_lookup_remove_round_trip() {
        let (_dev, alloc, cat) = harness(&CatalogConfig::default());
        for i in 0..300u64 {
            assert_eq!(
                cat.insert(&alloc, &format!("model-{i:05}"), 1000 + i)
                    .unwrap(),
                None
            );
        }
        assert_eq!(cat.len(), 300);
        for i in 0..300u64 {
            assert_eq!(
                cat.lookup(&format!("model-{i:05}")).unwrap(),
                Some(1000 + i)
            );
        }
        assert_eq!(cat.lookup("model-99999").unwrap(), None);
        // Update in place returns the previous offset.
        assert_eq!(cat.insert(&alloc, "model-00007", 7777).unwrap(), Some(1007));
        assert_eq!(cat.lookup("model-00007").unwrap(), Some(7777));
        assert_eq!(cat.len(), 300);
        for i in (0..300u64).step_by(3) {
            assert_eq!(
                cat.remove(&alloc, &format!("model-{i:05}")).unwrap(),
                Some(1000 + i)
            );
        }
        assert_eq!(cat.len(), 200);
        for i in 0..300u64 {
            let got = cat.lookup(&format!("model-{i:05}")).unwrap();
            if i % 3 == 0 {
                assert_eq!(got, None);
            } else if i == 7 {
                assert_eq!(got, Some(7777));
            } else {
                assert_eq!(got, Some(1000 + i));
            }
        }
    }

    #[test]
    fn churn_matches_btreemap_and_leaks_nothing() {
        let cfg = CatalogConfig {
            page_bytes: 512,
            cache_pages: 4,
        };
        let (_dev, alloc, cat) = harness(&cfg);
        let mut oracle: BTreeMap<String, u64> = BTreeMap::new();
        let mut rng = SimRng::new(0x2545_f491_4f6c_dd1d);
        for step in 0..1200u64 {
            let draw = rng.next_u64();
            let name = format!("m-{:04}", draw % 400);
            match draw >> 61 {
                0..=4 => {
                    let prev = cat.insert(&alloc, &name, step).unwrap();
                    assert_eq!(prev, oracle.insert(name, step));
                }
                _ => {
                    let prev = cat.remove(&alloc, &name).unwrap();
                    assert_eq!(prev, oracle.remove(&name));
                }
            }
        }
        assert_eq!(cat.len(), oracle.len() as u64);
        let scanned = cat.scan().unwrap();
        let want: Vec<(String, u64)> = oracle.iter().map(|(k, v)| (k.clone(), *v)).collect();
        assert_eq!(scanned, want);
        // Every live catalog allocation is the current root or a
        // current page — churn freed all superseded copies.
        assert_no_leaks(&alloc, &cat);
    }

    #[test]
    fn unpersisted_directory_word_flip_survives_crashes() {
        // An in-place copy-on-write commits with one 8-byte store to a
        // directory word. Crash after that store but before its persist:
        // the remapped name resolves to its old or its new offset, every
        // other name to its original one.
        let cfg = CatalogConfig {
            page_bytes: 256,
            cache_pages: 4,
        };
        let entries: Vec<(String, u64)> = (0..600u64)
            .map(|i| (format!("model-{i:05}"), 1000 + i))
            .collect();
        let (remapped, old_off, new_off) = ("model-00300", 1300, 77_777);
        let specs = [
            CrashSpec::LoseAll,
            CrashSpec::Random { seed: 1 },
            CrashSpec::Random { seed: 2 },
            CrashSpec::Random { seed: 3 },
        ];
        let mut outcomes = Vec::new();
        for spec in specs {
            let (dev, alloc, cat) = harness(&cfg);
            cat.bulk_replace(&alloc, &entries).unwrap();
            {
                let inner = cat.inner.lock();
                let snap = Catalog::snap_of(&inner);
                assert!(snap.dir_count > 40, "{} pages", snap.dir_count);
                let idx = cat.locate_page(&snap, remapped).unwrap();
                let old_page = cat.read_dir_word(&snap, idx).unwrap();
                let mut page = micropage::read_page(&dev, old_page, cfg.page_bytes).unwrap();
                let slot = page.iter().position(|(n, _)| n == remapped).unwrap();
                page[slot].1 = new_off;
                let fresh = cat.write_pages(&alloc, &page).unwrap();
                let at = snap.root_off + ROOT_DIR + idx * 8;
                typed::write_u64(&dev, at, fresh[0]).unwrap();
            }
            drop(cat);
            dev.crash(spec);
            let rec = Catalog::recover(dev, ROOT_PTR, &cfg).unwrap();
            let got = rec.lookup(remapped).unwrap();
            assert!(
                got == Some(old_off) || got == Some(new_off),
                "{spec:?}: {got:?}"
            );
            if matches!(spec, CrashSpec::LoseAll) {
                assert_eq!(got, Some(old_off), "an unpersisted flip is lost");
            }
            outcomes.push(got);
            let mut want = entries.clone();
            want[300].1 = got.unwrap();
            assert_eq!(rec.scan().unwrap(), want, "{spec:?}");
            for (name, off) in &want {
                assert_eq!(rec.lookup(name).unwrap(), Some(*off), "{spec:?}: {name}");
            }
        }
        // The seeds land on both sides of the flip.
        assert!(outcomes.contains(&Some(new_off)), "{outcomes:?}");
    }

    #[test]
    fn long_multibyte_names_resolve_across_many_pages() {
        // 40–250-byte names, many behind shared prefixes of 60 and 203
        // bytes: most directory probes are decided past the 46 first-name
        // bytes a probe's first read covers.
        let cfg = CatalogConfig {
            page_bytes: 512,
            cache_pages: 4,
        };
        let (dev, alloc, cat) = harness(&cfg);
        let prefixes = [String::new(), "org-α/team-β/".repeat(4), "模型/".repeat(29)];
        let name = |i: u64| {
            let stem = format!("{}{i:05}-", prefixes[(i % 3) as usize]);
            let pad = (40 + (i * 53 % 211) as usize).saturating_sub(stem.len());
            format!("{stem}{}{}", "é".repeat(pad / 2), "x".repeat(pad % 2))
        };
        // Even indices are present, odd ones absent.
        let oracle: BTreeMap<String, u64> = (0..300).map(|i| (name(2 * i), 3 * i + 1)).collect();
        assert!(oracle.keys().all(|n| (40..=250).contains(&n.len())));
        let check = |absent: &[String]| {
            for probe in oracle.keys().chain(absent) {
                assert_eq!(
                    cat.lookup(probe).unwrap(),
                    oracle.get(probe).copied(),
                    "{probe:?}"
                );
            }
        };
        let mut absent: Vec<String> = (0..300).map(|i| name(2 * i + 1)).collect();
        absent.extend(["".into(), "!".into(), "\u{10FFFF}".into()]);
        // Built by inserts in a scattered order, so pages split...
        for k in 0..300u64 {
            let i = k * 7919 % 300;
            cat.insert(&alloc, &name(2 * i), 3 * i + 1).unwrap();
        }
        check(&absent);
        // ...and by one bulk load.
        let sorted: Vec<(String, u64)> = oracle.iter().map(|(k, v)| (k.clone(), *v)).collect();
        cat.bulk_replace(&alloc, &sorted).unwrap();
        let pages = cat.page_offsets().unwrap();
        assert!(pages.len() >= 50, "{} pages", pages.len());
        // A name just past each page's last one falls between pages.
        for &p in &pages {
            let run = micropage::read_page(&dev, p, cfg.page_bytes).unwrap();
            absent.push(format!("{}\0", run.last().unwrap().0));
        }
        check(&absent);
        assert_eq!(cat.scan().unwrap(), sorted);
        assert_no_leaks(&alloc, &cat);
    }

    #[test]
    fn page_cache_stays_clamped() {
        let cfg = CatalogConfig {
            page_bytes: 256,
            cache_pages: 3,
        };
        let (_dev, alloc, cat) = harness(&cfg);
        let entries: Vec<(String, u64)> =
            (0..600u64).map(|i| (format!("model-{i:06}"), i)).collect();
        cat.bulk_replace(&alloc, &entries).unwrap();
        let s = cat.stats();
        assert!(s.pages > 20, "256-byte pages must spread 600 entries");
        for i in 0..600u64 {
            assert_eq!(cat.lookup(&format!("model-{i:06}")).unwrap(), Some(i));
        }
        let s = cat.stats();
        assert!(s.cached_pages <= 3, "cache over clamp: {}", s.cached_pages);
        assert!(s.cache_bytes < 64 * 1024);
        assert!(s.cache_misses > 0);
        // A hot loop over one name hits the cache.
        let h0 = cat.stats().cache_hits;
        for _ in 0..50 {
            cat.lookup("model-000123").unwrap();
        }
        assert!(cat.stats().cache_hits >= h0 + 49);
    }

    #[test]
    fn names_sharing_long_prefixes_resolve_by_first_name() {
        // Three groups of names agreeing for 8+ bytes: whole page runs
        // share their leading bytes, and the directory search tells
        // them apart by comparing page first names.
        let cfg = CatalogConfig {
            page_bytes: 256,
            cache_pages: 8,
        };
        let (_dev, alloc, cat) = harness(&cfg);
        let entries: Vec<(String, u64)> = (0..900u64)
            .map(|i| (format!("{}CCCCCCCCCC{:04}", i / 300, i % 300), i))
            .collect();
        cat.bulk_replace(&alloc, &entries).unwrap();
        for (name, off) in &entries {
            assert_eq!(cat.lookup(name).unwrap(), Some(*off), "name {name}");
        }
        assert_eq!(cat.lookup("1CCCCCCCCCC9999").unwrap(), None);

        // The directory search over populations of 1 to ~300 pages:
        // every present name resolves, and absent names inside pages,
        // between pages, before the first and after the last miss.
        let check = |oracle: &BTreeMap<String, u64>, absent: &[String]| {
            let entries: Vec<(String, u64)> = oracle.iter().map(|(k, v)| (k.clone(), *v)).collect();
            cat.bulk_replace(&alloc, &entries).unwrap();
            let pages = cat.stats().pages;
            for probe in oracle.keys().chain(absent) {
                assert_eq!(
                    cat.lookup(probe).unwrap(),
                    oracle.get(probe).copied(),
                    "{probe:?} among {} names in {pages} pages",
                    oracle.len()
                );
            }
            pages
        };
        // Even indices are present, odd ones absent.
        let grouped = |i: u64| format!("{}CCCCCCCCCC{i:05}", (i / 2) % 3);
        let mut most = 0;
        for n in [1u64, 8, 9, 40, 400, 2400] {
            let oracle = (0..n).map(|i| (grouped(2 * i), 7 * i + 1)).collect();
            let absent: Vec<String> = (0..n)
                .map(|i| grouped(2 * i + 1))
                .chain(["/".to_string(), "~".to_string()])
                .collect();
            most = most.max(check(&oracle, &absent));
        }
        assert!(most >= 250, "the largest population spans {most} pages");

        // The bare shared prefix next to names whose tails start with
        // eight NUL bytes: pages differ only past the NULs.
        let tied = |i: u64| format!("tie{}{i:05}", "\0".repeat(8));
        let mut oracle: BTreeMap<String, u64> = (0..400).map(|i| (tied(2 * i), i)).collect();
        oracle.insert("tie".to_string(), 9999);
        let absent: Vec<String> = (0..400)
            .map(|i| tied(2 * i + 1))
            .chain(["tid".to_string(), "tif".to_string()])
            .collect();
        assert!(check(&oracle, &absent) > 40);
        assert_no_leaks(&alloc, &cat);
    }

    #[test]
    fn splits_leave_pages_at_least_half_full() {
        // Interleaved names (unpadded indices across four families)
        // land in the middle of full pages; a split that packed one
        // full page plus the remainder left a one-entry page behind
        // every such insert.
        let (_dev, alloc, cat) = harness(&CatalogConfig::default());
        let names: Vec<String> = (0..1024)
            .map(|j| format!("hub/family{}/model{j}", j % 4))
            .collect();
        for (j, n) in names.iter().enumerate() {
            cat.insert(&alloc, n, j as u64).unwrap();
        }
        let packed: u64 = names.iter().map(|n| micropage::entry_encoded_len(n)).sum();
        let page = CatalogConfig::default().page_bytes;
        let pages = cat.stats().pages;
        assert!(
            pages <= 2 * packed.div_ceil(page) + 1,
            "{pages} pages for {packed} packed bytes"
        );
        for (j, n) in names.iter().enumerate() {
            assert_eq!(cat.lookup(n).unwrap(), Some(j as u64));
        }
        assert_no_leaks(&alloc, &cat);
    }

    #[test]
    fn byte_midpoint_balances_encoded_sizes() {
        let entries: Vec<(String, u64)> = ["a", "bb", "ccc", "dddd", "eeeeeeeeeeeeeeeeeeee"]
            .iter()
            .map(|n| (n.to_string(), 0))
            .collect();
        // Encoded sizes 11, 12, 13, 14, 30: the first four hold 50 of 80.
        assert_eq!(byte_midpoint(&entries), 4);
        assert_eq!(byte_midpoint(&entries[..2]), 1);
        assert_eq!(byte_midpoint(&entries[..1]), 1);
    }

    #[test]
    fn recover_refuses_other_root_versions() {
        let (dev, alloc, cat) = harness(&CatalogConfig::default());
        cat.insert(&alloc, "model-a", 1).unwrap();
        let root = cat.root_offset();
        drop(cat);
        for version in [2u32, 4] {
            typed::write_u32(&dev, root + 4, version).unwrap();
            dev.persist(root + 4, 4).unwrap();
            assert!(matches!(
                Catalog::recover(dev.clone(), ROOT_PTR, &CatalogConfig::default()),
                Err(PortusError::Pmem(PmemError::Corrupt {
                    structure: Structure::CatalogRoot,
                    at,
                    ..
                })) if at == root + 4
            ));
        }
        typed::write_u32(&dev, root + 4, ROOT_VERSION).unwrap();
        let rec = Catalog::recover(dev, ROOT_PTR, &CatalogConfig::default()).unwrap();
        assert_eq!(rec.lookup("model-a").unwrap(), Some(1));
    }

    #[test]
    fn names_outside_a_long_shared_prefix_resolve() {
        let (_dev, alloc, cat) = harness(&CatalogConfig::default());
        // A population behind one long shared prefix...
        for i in 0..200u64 {
            cat.insert(&alloc, &format!("org/team/project/model-{i:05}"), i)
                .unwrap();
        }
        // ...then short names on either side of it.
        cat.insert(&alloc, "zzz", 9000).unwrap();
        cat.insert(&alloc, "aaa", 9001).unwrap();
        assert_eq!(cat.lookup("zzz").unwrap(), Some(9000));
        assert_eq!(cat.lookup("aaa").unwrap(), Some(9001));
        for i in 0..200u64 {
            assert_eq!(
                cat.lookup(&format!("org/team/project/model-{i:05}"))
                    .unwrap(),
                Some(i)
            );
        }
    }

    #[test]
    fn recover_rebuilds_the_mirror_from_media() {
        let cfg = CatalogConfig {
            page_bytes: 512,
            cache_pages: 8,
        };
        let (dev, alloc, cat) = harness(&cfg);
        let entries: Vec<(String, u64)> = (0..500u64)
            .map(|i| (format!("model-{i:05}"), 2000 + i))
            .collect();
        cat.bulk_replace(&alloc, &entries).unwrap();
        let root = cat.root_offset();
        let pages = cat.page_offsets().unwrap();
        drop(cat);
        let rec = Catalog::recover(dev, ROOT_PTR, &cfg).unwrap();
        assert_eq!(rec.root_offset(), root);
        assert_eq!(rec.page_offsets().unwrap(), pages);
        assert_eq!(rec.len(), 500);
        for (name, off) in &entries {
            assert_eq!(rec.lookup(name).unwrap(), Some(*off));
        }
        // The recovered page size comes from the root, not the config.
        assert_eq!(rec.page_bytes, 512);
    }

    #[test]
    fn recovered_catalog_frees_superseded_regions() {
        // A recovered catalog frees the regions it inherited from
        // media as it supersedes them, without leaking any.
        let cfg = CatalogConfig {
            page_bytes: 512,
            cache_pages: 4,
        };
        let (dev, alloc, cat) = harness(&cfg);
        let entries: Vec<(String, u64)> =
            (0..400u64).map(|i| (format!("model-{i:05}"), i)).collect();
        cat.bulk_replace(&alloc, &entries).unwrap();
        drop(cat);
        let rec = Catalog::recover(dev, ROOT_PTR, &cfg).unwrap();
        for i in 0..400u64 {
            if i % 2 == 0 {
                rec.remove(&alloc, &format!("model-{i:05}")).unwrap();
            } else {
                rec.insert(&alloc, &format!("model-{i:05}"), 9000 + i)
                    .unwrap();
            }
        }
        assert_eq!(rec.len(), 200);
        assert_no_leaks(&alloc, &rec);
    }

    #[test]
    fn reconcile_counts_and_repairs_divergence() {
        let (_dev, alloc, cat) = harness(&CatalogConfig::default());
        let live: Vec<(String, u64)> = (0..50u64).map(|i| (format!("model-{i:03}"), i)).collect();
        cat.bulk_replace(&alloc, &live).unwrap();
        assert_eq!(cat.reconcile(&alloc, &live).unwrap(), 0);
        // One stale catalog entry, one missing, one remapped.
        let mut want = live.clone();
        want.remove(0); // model-000 becomes catalog-only
        want.push(("model-999".into(), 999)); // table-only
        want[0].1 = 4242; // model-001 remapped
        assert_eq!(cat.reconcile(&alloc, &want).unwrap(), 3);
        assert_eq!(cat.lookup("model-000").unwrap(), None);
        assert_eq!(cat.lookup("model-999").unwrap(), Some(999));
        assert_eq!(cat.lookup("model-001").unwrap(), Some(4242));
    }

    #[test]
    fn concurrent_lookups_race_mutations_safely() {
        // Lookups run their PMem reads outside the catalog mutex and
        // must retry (never error, never return garbage) when a
        // split/free commits underneath them.
        let cfg = CatalogConfig {
            page_bytes: 512,
            cache_pages: 8,
        };
        let (_dev, alloc, cat) = harness(&cfg);
        for i in 0..200u64 {
            cat.insert(&alloc, &format!("model-{i:05}"), i).unwrap();
        }
        let cat = Arc::new(cat);
        std::thread::scope(|s| {
            for t in 0..4 {
                let cat = cat.clone();
                s.spawn(move || {
                    for round in 0..200u64 {
                        let i = (round * 7 + t * 13) % 400;
                        let got = cat.lookup(&format!("model-{i:05}")).unwrap();
                        if let Some(v) = got {
                            // Either the original offset or a churned one.
                            assert!(v == i || v >= 5000, "model-{i:05} → {v}");
                        }
                    }
                });
            }
            // Churn concurrently: updates, inserts past the initial
            // population (forcing splits), and removes.
            for i in 0..400u64 {
                if i % 3 == 0 && i < 200 {
                    cat.remove(&alloc, &format!("model-{i:05}")).unwrap();
                } else {
                    cat.insert(&alloc, &format!("model-{i:05}"), 5000 + i)
                        .unwrap();
                }
            }
        });
        let cat = Arc::try_unwrap(cat).unwrap_or_else(|_| panic!("lookup threads leaked"));
        assert_no_leaks(&alloc, &cat);
    }
}
