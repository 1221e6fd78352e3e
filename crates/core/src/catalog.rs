//! The million-model catalog: a paged on-PMem name index with a
//! learned root (ROADMAP item 3).
//!
//! The paper-scale daemon mirrors the whole ModelTable into a DRAM
//! B-tree ([`crate::ModelMap`]) and scans the fixed table
//! linearly — fine for dozens of models, hopeless for a fleet serving
//! millions. The catalog replaces both with an AirIndex-style two-level
//! structure kept entirely on PMem behind the shared allocator:
//!
//! * **Micro-pages** (`portus_pmem::micropage`) — sorted, variable-
//!   length `name → MIndex-offset` runs packed into ~4 KiB immutable
//!   pages. Mutations copy-on-write a fresh page; a page is only ever
//!   referenced after it is fully persisted.
//! * **Root block** — a directory of 16-byte `{derived_key, page_off}`
//!   records (one per page, sorted) plus a piecewise-linear model
//!   trained over the derived keys at seal time. The superblock's
//!   `SUPER_CAT_OFF` word points at the current root, so the whole
//!   structure is reachable from media alone.
//!
//! A lookup is: predict the directory position from the in-DRAM model
//! (a few hundred bytes of segments), DAX-read the predicted
//! `2·error+1` window of 16-byte records, then probe exactly one page —
//! `O(1)`-ish DAX traffic regardless of model count, with a full
//! binary search over the on-PMem directory as the always-correct
//! fallback when the model is stale. DRAM usage is the segment table
//! plus a CLOCK page cache clamped to [`CatalogConfig::cache_pages`]
//! decoded pages — never `O(models)`.
//!
//! **Concurrency.** Mutations serialize on one internal mutex, but
//! lookups do *not* hold it across PMem reads: a lookup snapshots the
//! root mirror (root offset, directory size, shared prefix, `Arc`'d
//! segments) plus a generation counter under the lock, performs the
//! window read and page probe lock-free, then re-checks the generation
//! before trusting (or caching) what it read. Every mutation bumps the
//! generation while holding the mutex, so a lookup that raced a
//! split/free simply retries; concurrent lookups across tenants never
//! serialize on each other.
//!
//! **Derived keys.** The directory orders pages by an 8-byte key
//! derived from each page's first name: strip the longest common
//! prefix of the whole key population, then take the next 8 bytes
//! big-endian (zero-padded). The map is monotone (non-strict) with
//! lexicographic order, so equal derived keys — names agreeing for 8
//! bytes past the shared prefix — are resolved by string-comparing the
//! candidate pages' first names. Inserting a name that breaks the
//! stored prefix re-derives every directory key (page payloads are
//! untouched — they store full names) and publishes a fresh root. The
//! stored prefix is always clamped to a UTF-8 character boundary so it
//! stays a valid string; key derivation itself is pure byte
//! arithmetic, so multibyte names sort exactly like their bytes.
//!
//! **Crash consistency.** Same discipline as the extent store (PR 9):
//! every mutation persists its new pages (and, when the page count
//! changes, a complete new root) *before* one atomic flip — a 16-byte
//! directory-record update inside one cache line for in-place
//! copy-on-write (the root layout keeps directory records 16-aligned,
//! see [`SEG_SIZE`]), or the 8-byte superblock root pointer for
//! splits/rebuilds. A crash on either side of the flip leaves only
//! unreachable allocations, which [`crate::Index::recover`] reclaims by
//! offset reachability; it also reconciles the surviving pages against
//! the live ModelTable entries, covering the windows between a table
//! publish/retire and the corresponding catalog update.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use portus_pmem::{micropage, typed, PmemAllocator, PmemDevice};

use crate::{PortusError, PortusResult};

/// Root-block magic ("CRTL").
const ROOT_MAGIC: u32 = 0x4352_544C;
/// Root header: magic, version, dir_count, seg_count, page_bytes, pad.
const ROOT_LCP: u64 = 24;
/// Segments start here; the LCP string (u16-prefixed, ≤ 254 bytes)
/// fits between the header and this boundary.
const ROOT_SEG0: u64 = 320;
/// One persisted model segment: `{first_key, first_idx, slope_bits,
/// pad}`. Padded from 24 to 32 bytes so the directory base
/// (`ROOT_SEG0 + n·SEG_SIZE`) is 16-aligned for *any* segment count —
/// root blocks are 64-aligned, so every 16-byte directory record then
/// sits entirely inside one 64-byte cache line and the in-place record
/// flip ([`Catalog::update_dir_rec`]) really is a single-line commit
/// point. (At 24 an odd segment count left records only 8-aligned,
/// letting a record straddle two lines and tear on a crash.)
const SEG_SIZE: u64 = 32;
/// One directory record: `{derived_key, page_off}`.
const DIR_REC: u64 = 16;

/// Allocator tag for catalog root blocks.
pub(crate) const CATALOG_ROOT_TAG: u64 = 0x4341_5452_4F4F_5431; // "CATROOT1"
/// Allocator tag for catalog micro-pages.
pub(crate) const CATALOG_PAGE_TAG: u64 = 0x4341_5450_4147_4531; // "CATPAGE1"

/// Configuration of the learned catalog
/// ([`crate::DaemonConfig::catalog`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CatalogConfig {
    /// Micro-page size in bytes. Persisted in the root block, so a
    /// recovered catalog keeps the size it was formatted with.
    pub page_bytes: u64,
    /// DRAM page-cache clamp: at most this many decoded pages are held
    /// in memory (CLOCK eviction). `0` disables caching entirely.
    pub cache_pages: usize,
    /// Learned-model error bound: a prediction is trusted to land
    /// within ± this many directory records. Smaller means more
    /// segments, larger means wider probe windows.
    pub model_error: u64,
}

impl Default for CatalogConfig {
    fn default() -> Self {
        CatalogConfig {
            page_bytes: 4096,
            cache_pages: 64,
            model_error: 8,
        }
    }
}

/// One segment of the piecewise-linear root model, fitted over
/// `(derived_key, directory_index)` points with a shrinking-cone pass.
#[derive(Debug, Clone, Copy)]
struct Segment {
    first_key: u64,
    first_idx: u64,
    slope: f64,
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
    /// Segments in the in-DRAM learned model.
    pub model_segments: u64,
    /// Lookups whose predicted window missed, falling back to a full
    /// directory binary search (always correct, just slower).
    pub model_fallbacks: u64,
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
/// mirror (pointer, directory size, shared prefix, trained segments —
/// everything *except* the directory itself, which stays on PMem), the
/// clamped page cache, and a generation counter that invalidates
/// in-flight lock-free lookups.
struct CatInner {
    gen: u64,
    root_off: u64,
    dir_count: u64,
    entries: u64,
    lcp: Arc<str>,
    segs: Arc<Vec<Segment>>,
    model_error: u64,
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
    lcp: Arc<str>,
    segs: Arc<Vec<Segment>>,
    model_error: u64,
}

/// The learned, micro-paged on-PMem model catalog.
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
    fallbacks: AtomicU64,
}

impl std::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Catalog")
            .field("root_off", &inner.root_off)
            .field("pages", &inner.dir_count)
            .field("entries", &inner.entries)
            .field("segments", &inner.segs.len())
            .finish()
    }
}

/// The longest common prefix of `a` and `b`, clamped back to a UTF-8
/// character boundary of `a` (the shared bytes are identical in both,
/// so the clamp is a boundary of `b` too). Slicing a `&str` at a raw
/// byte count would panic inside a multibyte character — e.g. "modelα"
/// vs "modelβ" share 6 bytes, one byte into 'α'.
fn common_prefix<'a>(a: &'a str, b: &str) -> &'a str {
    let mut p = a
        .as_bytes()
        .iter()
        .zip(b.as_bytes())
        .take_while(|(x, y)| x == y)
        .count();
    while !a.is_char_boundary(p) {
        p -= 1;
    }
    &a[..p]
}

/// Length of the longest common *byte* prefix of `a` and `b`. Only for
/// byte-level arithmetic ([`derive_key`]) — never slice a `&str` with
/// this, it can land inside a multibyte character.
fn common_prefix_len(a: &str, b: &str) -> usize {
    a.as_bytes()
        .iter()
        .zip(b.as_bytes())
        .take_while(|(x, y)| x == y)
        .count()
}

/// The 8-byte big-endian derived key of `name` under the shared prefix
/// `lcp`. Monotone (non-strict) with lexicographic order over *all*
/// strings: names below the prefix range map to 0, above it to
/// `u64::MAX`, and prefix-sharing names to their next 8 bytes.
fn derive_key(lcp: &str, name: &str) -> u64 {
    let p = common_prefix_len(lcp, name);
    if p < lcp.len() {
        let nb = name.as_bytes();
        return if p >= nb.len() || nb[p] < lcp.as_bytes()[p] {
            0
        } else {
            u64::MAX
        };
    }
    let tail = &name.as_bytes()[lcp.len()..];
    let mut key = [0u8; 8];
    let n = tail.len().min(8);
    key[..n].copy_from_slice(&tail[..n]);
    u64::from_be_bytes(key)
}

/// Fits a shrinking-cone piecewise-linear model over the sorted
/// `keys`, guaranteeing every training point is predicted within
/// ± `eps` directory slots. Duplicate keys longer than the error bound
/// force a segment break; predictions there lean on the lookup-time
/// binary-search fallback.
fn train_segments(keys: &[u64], eps: u64) -> Vec<Segment> {
    let mut segs: Vec<Segment> = Vec::new();
    if keys.is_empty() {
        return segs;
    }
    let eps = eps.max(1) as f64;
    let mut start = 0usize;
    let (mut lo_slope, mut hi_slope) = (0.0f64, f64::INFINITY);
    for i in 1..keys.len() {
        let dx = (keys[i] - keys[start]) as f64;
        let dy = (i - start) as f64;
        let (cand_lo, cand_hi) = if dx == 0.0 {
            // Duplicate derived key: representable only while the run
            // stays inside the error bound.
            if dy <= eps {
                continue;
            }
            (f64::INFINITY, 0.0) // forces a break below
        } else {
            ((dy - eps) / dx, (dy + eps) / dx)
        };
        let new_lo = lo_slope.max(cand_lo.max(0.0));
        let new_hi = hi_slope.min(cand_hi);
        if new_lo > new_hi {
            segs.push(Segment {
                first_key: keys[start],
                first_idx: start as u64,
                slope: (lo_slope + hi_slope.min(1e18)) / 2.0,
            });
            start = i;
            lo_slope = 0.0;
            hi_slope = f64::INFINITY;
        } else {
            lo_slope = new_lo;
            hi_slope = new_hi;
        }
    }
    segs.push(Segment {
        first_key: keys[start],
        first_idx: start as u64,
        slope: (lo_slope + hi_slope.min(1e18)) / 2.0,
    });
    segs
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
        let cat = Catalog {
            dev,
            root_ptr_at,
            page_bytes: cfg.page_bytes.max(256),
            inner: Mutex::new(CatInner {
                gen: 0,
                root_off: 0,
                dir_count: 0,
                entries: 0,
                lcp: Arc::from(""),
                segs: Arc::new(Vec::new()),
                model_error: cfg.model_error.max(1),
                cache: PageCache::new(cfg.cache_pages),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
        };
        {
            let mut inner = cat.inner.lock();
            let root = cat.write_root(alloc, "", &[], &[])?;
            cat.flip_root(alloc, &mut inner, root, &[])?;
        }
        Ok(cat)
    }

    /// Mounts the catalog already published at `root_ptr_at`,
    /// rebuilding the DRAM mirror (shared prefix, segments, entry
    /// count) from the persisted root and page headers. `page_bytes`
    /// comes from the root block, not from `cfg`.
    ///
    /// # Errors
    ///
    /// [`PortusError::Daemon`] on a bad root magic; device errors.
    pub(crate) fn recover(
        dev: Arc<PmemDevice>,
        root_ptr_at: u64,
        cfg: &CatalogConfig,
    ) -> PortusResult<Catalog> {
        let root_off = typed::read_u64(&dev, root_ptr_at)?;
        if typed::read_u32(&dev, root_off)? != ROOT_MAGIC {
            return Err(PortusError::Daemon(format!(
                "bad catalog root magic at {root_off:#x}"
            )));
        }
        let dir_count = u64::from(typed::read_u32(&dev, root_off + 8)?);
        let seg_count = typed::read_u32(&dev, root_off + 12)?;
        let page_bytes = u64::from(typed::read_u32(&dev, root_off + 16)?).max(256);
        let (lcp, _) = typed::read_str(&dev, root_off + ROOT_LCP)?;
        let mut segs = Vec::with_capacity(seg_count as usize);
        for i in 0..u64::from(seg_count) {
            let s = root_off + ROOT_SEG0 + i * SEG_SIZE;
            segs.push(Segment {
                first_key: typed::read_u64(&dev, s)?,
                first_idx: typed::read_u64(&dev, s + 8)?,
                slope: f64::from_bits(typed::read_u64(&dev, s + 16)?),
            });
        }
        let cat = Catalog {
            dev,
            root_ptr_at,
            page_bytes,
            inner: Mutex::new(CatInner {
                gen: 0,
                root_off,
                dir_count,
                entries: 0,
                lcp: Arc::from(lcp.as_str()),
                segs: Arc::new(segs),
                model_error: cfg.model_error.max(1),
                cache: PageCache::new(cfg.cache_pages),
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            fallbacks: AtomicU64::new(0),
        };
        {
            // The entry count is never persisted (it would go stale in
            // every copy-on-write window): re-derive it from the page
            // headers, which is also an integrity pass over the magics.
            let mut inner = cat.inner.lock();
            let snap = Self::snap_of(&inner);
            let mut entries = 0u64;
            for i in 0..dir_count {
                let (_, page_off) = cat.read_dir_rec(&snap, i)?;
                let (count, _) = micropage::read_page_header(&cat.dev, page_off)?;
                entries += u64::from(count);
            }
            inner.entries = entries;
        }
        Ok(cat)
    }

    /// Applies the runtime knobs of `cfg` (cache clamp, error bound) to
    /// an already-mounted catalog; `page_bytes` stays as formatted.
    pub(crate) fn set_runtime(&self, cfg: &CatalogConfig) {
        let mut inner = self.inner.lock();
        inner.model_error = cfg.model_error.max(1);
        inner.cache.resize(cfg.cache_pages);
    }

    /// Snapshot of the root mirror for lock-free reads.
    fn snap_of(inner: &CatInner) -> RootSnap {
        RootSnap {
            gen: inner.gen,
            root_off: inner.root_off,
            dir_count: inner.dir_count,
            lcp: inner.lcp.clone(),
            segs: inner.segs.clone(),
            model_error: inner.model_error,
        }
    }

    /// `true` when a mutation has committed since `snap` was taken, in
    /// which case whatever a lock-free lookup read may reference freed
    /// pages and must be retried.
    fn stale(&self, snap: &RootSnap) -> bool {
        self.inner.lock().gen != snap.gen
    }

    // ---- reads ------------------------------------------------------

    /// Looks up the MIndex offset of `name`: model-predict → bounded
    /// directory window read → one page probe → in-page binary search.
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
            let derived = derive_key(&snap.lcp, name);
            // All PMem reads happen outside the lock; a concurrent
            // mutation may free what we are reading, so any error or
            // result is only trusted if the generation held.
            let page_off = match self
                .locate_page(&snap, derived, name)
                .and_then(|idx| self.read_dir_rec(&snap, idx))
            {
                Ok((_, off)) => off,
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
                    let decoded = match micropage::read_page(&self.dev, page_off) {
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
        for i in 0..snap.dir_count {
            let (_, page_off) = self.read_dir_rec(&snap, i)?;
            out.extend(micropage::read_page(&self.dev, page_off)?);
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
        let snap = Self::snap_of(&inner);
        (0..snap.dir_count)
            .map(|i| self.read_dir_rec(&snap, i).map(|(_, off)| off))
            .collect()
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
            model_segments: inner.segs.len() as u64,
            model_fallbacks: self.fallbacks.load(Ordering::Relaxed),
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
        // A name outside the stored shared prefix invalidates every
        // derived key: shrink the prefix and republish the directory
        // (page payloads carry full names and are untouched).
        if inner.entries > 0 {
            let pfx = common_prefix(&inner.lcp, name);
            if pfx.len() < inner.lcp.len() {
                let new_lcp: Arc<str> = Arc::from(pfx);
                self.rekey(alloc, &mut inner, new_lcp)?;
            }
        } else {
            // First entry: the prefix is the whole population, i.e. it.
            inner.lcp = Arc::from(name);
        }
        if inner.dir_count == 0 {
            let one = vec![(name.to_string(), off)];
            let page = self.write_pages(alloc, &one)?;
            let keys = vec![derive_key(&inner.lcp, name)];
            let dir: Vec<(u64, u64)> = vec![(keys[0], page[0])];
            let segs = train_segments(&keys, inner.model_error);
            let lcp = inner.lcp.clone();
            let root = self.write_root(alloc, &lcp, &segs, &dir)?;
            self.flip_root(alloc, &mut inner, root, &[])?;
            inner.dir_count = 1;
            inner.entries = 1;
            inner.segs = Arc::new(segs);
            return Ok(None);
        }
        let snap = Self::snap_of(&inner);
        let idx = self.locate_page(&snap, derive_key(&snap.lcp, name), name)?;
        let (_, old_page) = self.read_dir_rec(&snap, idx)?;
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
            let key = derive_key(&snap.lcp, &entries[0].0);
            self.update_dir_rec(&snap, idx, key, pages[0])?;
            inner.cache.invalidate(old_page);
            Self::free_offsets(alloc, &[old_page])?;
        } else {
            // Split: both halves (and a complete new root) are durable
            // before the root-pointer flip commits them.
            let pages = self.write_pages(alloc, &entries)?;
            let mut dir = self.read_dir(&snap)?;
            let mut new_recs = Vec::with_capacity(pages.len());
            let mut cursor = 0usize;
            for &p in &pages {
                let (count, _) = micropage::read_page_header(&self.dev, p)?;
                new_recs.push((derive_key(&snap.lcp, &entries[cursor].0), p));
                cursor += count as usize;
            }
            dir.splice(idx as usize..=idx as usize, new_recs);
            let keys: Vec<u64> = dir.iter().map(|(k, _)| *k).collect();
            let segs = train_segments(&keys, inner.model_error);
            let lcp = inner.lcp.clone();
            let root = self.write_root(alloc, &lcp, &segs, &dir)?;
            self.flip_root(alloc, &mut inner, root, &[old_page])?;
            inner.dir_count = dir.len() as u64;
            inner.segs = Arc::new(segs);
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
        let idx = self.locate_page(&snap, derive_key(&snap.lcp, name), name)?;
        let (_, old_page) = self.read_dir_rec(&snap, idx)?;
        let mut entries: Vec<(String, u64)> = self.page(&mut inner, old_page)?.as_ref().clone();
        let Ok(i) = entries.binary_search_by(|(k, _)| k.as_str().cmp(name)) else {
            return Ok(None);
        };
        let (_, prev) = entries.remove(i);
        if entries.is_empty() {
            // The page dies: publish a root without its record.
            let mut dir = self.read_dir(&snap)?;
            dir.remove(idx as usize);
            let keys: Vec<u64> = dir.iter().map(|(k, _)| *k).collect();
            let segs = train_segments(&keys, inner.model_error);
            let lcp = inner.lcp.clone();
            let root = self.write_root(alloc, &lcp, &segs, &dir)?;
            self.flip_root(alloc, &mut inner, root, &[old_page])?;
            inner.dir_count = dir.len() as u64;
            inner.segs = Arc::new(segs);
        } else {
            let pages = self.write_pages(alloc, &entries)?;
            let key = derive_key(&snap.lcp, &entries[0].0);
            self.update_dir_rec(&snap, idx, key, pages[0])?;
            inner.cache.invalidate(old_page);
            Self::free_offsets(alloc, &[old_page])?;
        }
        inner.entries -= 1;
        Ok(Some(prev))
    }

    /// Replaces the whole catalog with `entries` in one publish: pack
    /// pages, train the model, write a fresh root, flip the root
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
        let snap = Self::snap_of(&inner);
        let old_pages = (0..snap.dir_count)
            .map(|i| self.read_dir_rec(&snap, i).map(|(_, off)| off))
            .collect::<PortusResult<Vec<u64>>>()?;
        let lcp: Arc<str> = match (sorted.first(), sorted.last()) {
            (Some(a), Some(b)) => Arc::from(common_prefix(&a.0, &b.0)),
            _ => Arc::from(""),
        };
        let pages = self.write_pages(alloc, &sorted)?;
        let mut dir = Vec::with_capacity(pages.len());
        let mut cursor = 0usize;
        for &p in &pages {
            let (count, _) = micropage::read_page_header(&self.dev, p)?;
            dir.push((derive_key(&lcp, &sorted[cursor].0), p));
            cursor += count as usize;
        }
        let keys: Vec<u64> = dir.iter().map(|(k, _)| *k).collect();
        let segs = train_segments(&keys, inner.model_error);
        let root = self.write_root(alloc, &lcp, &segs, &dir)?;
        inner.cache.clear();
        self.flip_root(alloc, &mut inner, root, &old_pages)?;
        inner.dir_count = dir.len() as u64;
        inner.entries = sorted.len() as u64;
        inner.lcp = lcp;
        inner.segs = Arc::new(segs);
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

    /// Reads directory record `i` of the snapshot's root.
    fn read_dir_rec(&self, snap: &RootSnap, i: u64) -> PortusResult<(u64, u64)> {
        let base = self.dir_base(snap) + i * DIR_REC;
        Ok((
            typed::read_u64(&self.dev, base)?,
            typed::read_u64(&self.dev, base + 8)?,
        ))
    }

    /// Reads the full on-PMem directory into DRAM (mutation paths).
    fn read_dir(&self, snap: &RootSnap) -> PortusResult<Vec<(u64, u64)>> {
        (0..snap.dir_count)
            .map(|i| self.read_dir_rec(snap, i))
            .collect()
    }

    fn dir_base(&self, snap: &RootSnap) -> u64 {
        snap.root_off + ROOT_SEG0 + snap.segs.len() as u64 * SEG_SIZE
    }

    /// Atomically repoints directory record `i` at a freshly persisted
    /// page: both words of the 16-byte record share one cache line
    /// (`ROOT_SEG0` and `SEG_SIZE` are multiples of 16 and root blocks
    /// are 64-aligned, so records are 16-aligned and never straddle a
    /// 64-byte line — asserted in [`Catalog::write_root`]), so the
    /// single persist flips key and pointer together.
    fn update_dir_rec(&self, snap: &RootSnap, i: u64, key: u64, page_off: u64) -> PortusResult<()> {
        let base = self.dir_base(snap) + i * DIR_REC;
        debug_assert_eq!(base % DIR_REC, 0);
        typed::write_u64(&self.dev, base, key)?;
        typed::write_u64(&self.dev, base + 8, page_off)?;
        self.dev.persist(base, DIR_REC)?;
        Ok(())
    }

    /// Finds the directory index of the page that covers `name`:
    /// model-predict, read the bounded window, fall back to a full
    /// binary search when the window does not bracket, then resolve
    /// derived-key ties by comparing page first names.
    fn locate_page(&self, snap: &RootSnap, derived: u64, name: &str) -> PortusResult<u64> {
        debug_assert!(snap.dir_count > 0);
        let n = snap.dir_count;
        let eps = snap.model_error;
        // Predict a directory position from the in-DRAM segments.
        let (lo, hi) = match snap.segs.binary_search_by(|s| s.first_key.cmp(&derived)) {
            Err(0) => (0, eps.min(n - 1)),
            Ok(mut s) | Err(mut s) => {
                if snap.segs.get(s).map(|g| g.first_key) != Some(derived) {
                    s -= 1;
                }
                let seg = snap.segs[s];
                let pos = seg.first_idx as f64 + seg.slope * (derived - seg.first_key) as f64;
                let pos = (pos.round().max(0.0) as u64).min(n - 1);
                (pos.saturating_sub(eps), (pos + eps).min(n - 1))
            }
        };
        // One DAX read covers the whole window.
        let window = self.read_dir_range(snap, lo, hi)?;
        let idx = if !window.is_empty()
            && (window[0].0 <= derived || lo == 0)
            && (window[window.len() - 1].0 > derived || hi == n - 1)
        {
            let part = window.partition_point(|(k, _)| *k <= derived);
            lo + (part as u64).saturating_sub(1).min(window.len() as u64 - 1)
        } else {
            // Model miss: binary-search the on-PMem directory, one
            // 16-byte record per probe.
            self.fallbacks.fetch_add(1, Ordering::Relaxed);
            let (mut a, mut b) = (0u64, n);
            while a < b {
                let mid = (a + b) / 2;
                let (k, _) = self.read_dir_rec(snap, mid)?;
                if k <= derived {
                    a = mid + 1;
                } else {
                    b = mid;
                }
            }
            a.saturating_sub(1)
        };
        // Equal derived keys (names agreeing 8 bytes past the shared
        // prefix) span several records; the string order of the pages'
        // first names decides. Walk back through the tie run.
        let mut idx = idx;
        loop {
            let (k, page_off) = self.read_dir_rec(snap, idx)?;
            if k < derived || idx == 0 {
                break;
            }
            let first = micropage::read_first_key(&self.dev, page_off)?;
            match first {
                Some(f) if f.as_str() <= name => break,
                _ => idx -= 1,
            }
        }
        Ok(idx)
    }

    /// Reads directory records `lo..=hi` in one device read.
    fn read_dir_range(&self, snap: &RootSnap, lo: u64, hi: u64) -> PortusResult<Vec<(u64, u64)>> {
        let count = (hi + 1 - lo) as usize;
        let mut buf = vec![0u8; count * DIR_REC as usize];
        self.dev
            .read(self.dir_base(snap) + lo * DIR_REC, &mut buf)?;
        Ok(buf
            .chunks_exact(DIR_REC as usize)
            .map(|c| {
                (
                    u64::from_le_bytes(c[..8].try_into().unwrap()),
                    u64::from_le_bytes(c[8..].try_into().unwrap()),
                )
            })
            .collect())
    }

    /// The decoded page at `page_off`, via the clamped CLOCK cache.
    fn page(&self, inner: &mut CatInner, page_off: u64) -> PortusResult<Arc<Vec<(String, u64)>>> {
        if let Some(hit) = inner.cache.get(page_off) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(hit);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let entries = Arc::new(micropage::read_page(&self.dev, page_off)?);
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

    /// Writes and persists a complete root block (header, shared
    /// prefix, segments, directory). Not yet published — the caller
    /// flips the root pointer.
    fn write_root(
        &self,
        alloc: &PmemAllocator,
        lcp: &str,
        segs: &[Segment],
        dir: &[(u64, u64)],
    ) -> PortusResult<u64> {
        let size = ROOT_SEG0 + segs.len() as u64 * SEG_SIZE + dir.len() as u64 * DIR_REC;
        let region = alloc.alloc_aligned(size.max(64), 64, CATALOG_ROOT_TAG)?;
        let off = region.offset;
        typed::write_u32(&self.dev, off, ROOT_MAGIC)?;
        typed::write_u32(&self.dev, off + 4, 1)?;
        typed::write_u32(&self.dev, off + 8, dir.len() as u32)?;
        typed::write_u32(&self.dev, off + 12, segs.len() as u32)?;
        typed::write_u32(&self.dev, off + 16, self.page_bytes as u32)?;
        typed::write_u32(&self.dev, off + 20, 0)?;
        typed::write_str(&self.dev, off + ROOT_LCP, lcp)?;
        for (i, s) in segs.iter().enumerate() {
            let at = off + ROOT_SEG0 + i as u64 * SEG_SIZE;
            typed::write_u64(&self.dev, at, s.first_key)?;
            typed::write_u64(&self.dev, at + 8, s.first_idx)?;
            typed::write_u64(&self.dev, at + 16, s.slope.to_bits())?;
            typed::write_u64(&self.dev, at + 24, 0)?;
        }
        let dir0 = off + ROOT_SEG0 + segs.len() as u64 * SEG_SIZE;
        // The in-place record flip (update_dir_rec) is only a single-
        // cache-line commit point if no record straddles a 64-byte
        // boundary; 16-alignment of the directory base guarantees that
        // for 16-byte records in a 64-aligned block.
        assert_eq!(
            dir0 % DIR_REC,
            0,
            "catalog directory base must be 16-aligned"
        );
        for (i, (k, p)) in dir.iter().enumerate() {
            typed::write_u64(&self.dev, dir0 + i as u64 * DIR_REC, *k)?;
            typed::write_u64(&self.dev, dir0 + i as u64 * DIR_REC + 8, *p)?;
        }
        self.dev.persist(off, size.max(64))?;
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

    /// Rewrites every directory key under a shorter shared prefix and
    /// publishes a fresh root (page payloads are untouched).
    fn rekey(
        &self,
        alloc: &PmemAllocator,
        inner: &mut CatInner,
        new_lcp: Arc<str>,
    ) -> PortusResult<()> {
        let snap = Self::snap_of(inner);
        let mut dir = self.read_dir(&snap)?;
        for rec in dir.iter_mut() {
            let first = micropage::read_first_key(&self.dev, rec.1)?
                .ok_or_else(|| PortusError::Daemon("empty catalog page".into()))?;
            rec.0 = derive_key(&new_lcp, &first);
        }
        let keys: Vec<u64> = dir.iter().map(|(k, _)| *k).collect();
        let segs = train_segments(&keys, inner.model_error);
        let root = self.write_root(alloc, &new_lcp, &segs, &dir)?;
        self.flip_root(alloc, inner, root, &[])?;
        inner.lcp = new_lcp;
        inner.segs = Arc::new(segs);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portus_pmem::PmemMode;
    use portus_sim::SimContext;
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
    fn derive_key_is_monotone_with_lex_order() {
        let lcp = "model-";
        let mut names: Vec<String> = (0..200).map(|i| format!("model-{i:05}")).collect();
        names.push("aardvark".into()); // below the prefix range
        names.push("zebra".into()); // above it
        names.push("model-".into()); // exactly the prefix
        names.sort();
        let keys: Vec<u64> = names.iter().map(|n| derive_key(lcp, n)).collect();
        for w in keys.windows(2) {
            assert!(w[0] <= w[1], "derived keys must be non-decreasing");
        }
        assert_eq!(derive_key(lcp, "abc"), 0);
        assert_eq!(derive_key(lcp, "zzz"), u64::MAX);
    }

    #[test]
    fn common_prefix_clamps_to_char_boundaries() {
        // "modelα"/"modelβ" agree for 6 bytes — one byte into 'α'; the
        // prefix must stop at the boundary, not split the character.
        assert_eq!(common_prefix("modelα", "modelβ"), "model");
        assert_eq!(common_prefix("модель-a", "модель-b"), "модель-");
        assert_eq!(common_prefix("日本語", "日本酒"), "日本");
        assert_eq!(common_prefix("same", "same"), "same");
        assert_eq!(common_prefix("", "x"), "");
    }

    #[test]
    fn multibyte_names_do_not_panic_and_resolve() {
        // Regression: byte-counted prefix slicing panicked the daemon
        // on the first pair of names diverging inside a multibyte
        // character ('byte index 6 is not a char boundary').
        let (_dev, alloc, cat) = harness(&CatalogConfig::default());
        cat.insert(&alloc, "modelα", 1).unwrap();
        cat.insert(&alloc, "modelβ", 2).unwrap(); // LCP shrinks inside 'α'
        assert_eq!(cat.lookup("modelα").unwrap(), Some(1));
        assert_eq!(cat.lookup("modelβ").unwrap(), Some(2));
        // Mixed-script churn across splits and rekeys.
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
        // bulk_replace derives its LCP from first/last sorted names —
        // force that pair to diverge mid-character too.
        cat.bulk_replace(&alloc, &[("prefixπ1".into(), 7), ("prefixσ2".into(), 8)])
            .unwrap();
        assert_eq!(cat.lookup("prefixπ1").unwrap(), Some(7));
        assert_eq!(cat.lookup("prefixσ2").unwrap(), Some(8));
        assert_no_leaks(&alloc, &cat);
    }

    #[test]
    fn train_segments_respects_error_bound() {
        // A convex-ish curve the single-line fit cannot follow.
        let keys: Vec<u64> = (0..500u64).map(|i| i * i * 7 + i).collect();
        let eps = 4u64;
        let segs = train_segments(&keys, eps);
        assert!(!segs.is_empty());
        for (i, &k) in keys.iter().enumerate() {
            let s = match segs.binary_search_by(|s| s.first_key.cmp(&k)) {
                Ok(s) => s,
                Err(s) => s - 1,
            };
            let seg = segs[s];
            let pos = seg.first_idx as f64 + seg.slope * (k - seg.first_key) as f64;
            let err = (pos - i as f64).abs();
            assert!(err <= eps as f64 + 1.0, "key {k}: err {err} > eps {eps}");
        }
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
            model_error: 4,
        };
        let (_dev, alloc, cat) = harness(&cfg);
        let mut oracle: BTreeMap<String, u64> = BTreeMap::new();
        let mut rng = 0x2545_f491_4f6c_dd1du64;
        for step in 0..1200u64 {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let name = format!("m-{:04}", rng % 400);
            match rng >> 61 {
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
    fn directory_records_stay_inside_one_cache_line() {
        // The in-place record flip is only crash-atomic if no 16-byte
        // record straddles a 64-byte boundary; that holds iff the
        // directory base is 16-aligned for every segment count.
        let cfg = CatalogConfig {
            page_bytes: 256,
            cache_pages: 4,
            model_error: 2,
        };
        let (_dev, alloc, cat) = harness(&cfg);
        for n in [1u64, 37, 150, 400, 900] {
            let entries: Vec<(String, u64)> = (0..n)
                .map(|i| (format!("m{:08}", i * i * 13 + i), i))
                .collect();
            cat.bulk_replace(&alloc, &entries).unwrap();
            let inner = cat.inner.lock();
            let snap = Catalog::snap_of(&inner);
            let base = cat.dir_base(&snap);
            assert_eq!(base % DIR_REC, 0, "{} segs", snap.segs.len());
            for i in 0..snap.dir_count {
                let at = base + i * DIR_REC;
                assert_eq!(at / 64, (at + DIR_REC - 1) / 64, "record {i} straddles");
            }
        }
    }

    #[test]
    fn page_cache_stays_clamped() {
        let cfg = CatalogConfig {
            page_bytes: 256,
            cache_pages: 3,
            model_error: 4,
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
    fn duplicate_derived_keys_resolve_by_first_name() {
        // Three groups of names agreeing for 8+ bytes past the (empty)
        // shared prefix: whole page runs share one derived key, so
        // lookups must resolve ties by comparing page first names.
        let cfg = CatalogConfig {
            page_bytes: 256,
            cache_pages: 8,
            model_error: 2,
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
    }

    #[test]
    fn prefix_breaking_insert_rekeys_directory() {
        let (_dev, alloc, cat) = harness(&CatalogConfig::default());
        // A long shared prefix eats the whole 8-byte key budget...
        for i in 0..200u64 {
            cat.insert(&alloc, &format!("org/team/project/model-{i:05}"), i)
                .unwrap();
        }
        // ...then a short name invalidates every derived key at once.
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
            model_error: 4,
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
            model_error: 4,
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
    fn model_predictions_mostly_avoid_the_fallback() {
        let (_dev, alloc, cat) = harness(&CatalogConfig {
            page_bytes: 512,
            cache_pages: 0, // force every probe to PMem
            model_error: 8,
        });
        let entries: Vec<(String, u64)> =
            (0..2000u64).map(|i| (format!("model-{i:07}"), i)).collect();
        cat.bulk_replace(&alloc, &entries).unwrap();
        for (name, off) in &entries {
            assert_eq!(cat.lookup(name).unwrap(), Some(*off));
        }
        let s = cat.stats();
        assert!(s.model_segments >= 1);
        // The trained model should bracket nearly every probe; the
        // binary-search fallback exists for stale models, not steady
        // state.
        assert!(
            s.model_fallbacks * 10 <= 2000,
            "too many fallbacks: {}",
            s.model_fallbacks
        );
    }

    #[test]
    fn concurrent_lookups_race_mutations_safely() {
        // Lookups run their PMem reads outside the catalog mutex and
        // must retry (never error, never return garbage) when a
        // split/free commits underneath them.
        let cfg = CatalogConfig {
            page_bytes: 512,
            cache_pages: 8,
            model_error: 4,
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
