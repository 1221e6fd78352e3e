//! Fixed-bucket latency histograms and gauges keyed to virtual time.
//!
//! Where [`crate::Tracer`] keeps every span for timeline export,
//! [`Metrics`] aggregates: each `(op, stage)` pair gets a 64-bucket
//! power-of-two histogram of stage durations, cheap enough to leave on
//! permanently. Quantiles (p50/p95/p99) are derived from the bucket
//! counts on demand — no floats are stored, so snapshots stay `Eq` and
//! replays of a deterministic run snapshot identically.
//!
//! The same registry carries the daemon's dispatch-queue gauges
//! (current depth, high-water mark, configured capacity), giving the
//! bounded dispatch pool observable backpressure.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::trace::{Stage, TraceOp};
use crate::SimDuration;

/// Number of power-of-two buckets; bucket `i` counts durations `d`
/// with `floor(log2(d)) == i` (bucket 0 also takes `d == 0`).
pub const HISTOGRAM_BUCKETS: usize = 64;

fn bucket_of(nanos: u64) -> usize {
    if nanos == 0 {
        0
    } else {
        (63 - nanos.leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Lower bound (inclusive) of bucket `i`, in nanoseconds.
fn bucket_floor(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        1u64 << i
    }
}

/// `part / whole` in permille, `0` for an empty whole; 128-bit, so
/// sums near `u64::MAX` cannot overflow.
fn permille(part: u64, whole: u64) -> u64 {
    if whole == 0 {
        return 0;
    }
    (part as u128 * 1000 / whole as u128) as u64
}

#[derive(Debug, Clone)]
struct Hist {
    count: u64,
    total_ns: u64,
    min_ns: u64,
    max_ns: u64,
    buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Hist {
    fn new() -> Hist {
        Hist {
            count: 0,
            total_ns: 0,
            min_ns: u64::MAX,
            max_ns: 0,
            buckets: [0u64; HISTOGRAM_BUCKETS],
        }
    }

    fn record(&mut self, nanos: u64) {
        self.count += 1;
        self.total_ns = self.total_ns.saturating_add(nanos);
        self.min_ns = self.min_ns.min(nanos);
        self.max_ns = self.max_ns.max(nanos);
        self.buckets[bucket_of(nanos)] += 1;
    }

    fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            total_ns: self.total_ns,
            min_ns: if self.count == 0 { 0 } else { self.min_ns },
            max_ns: self.max_ns,
            buckets: self.buckets.to_vec(),
        }
    }
}

/// An immutable view of one `(op, stage)` histogram.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all sample durations, in nanoseconds.
    pub total_ns: u64,
    /// Smallest sample (0 when empty).
    pub min_ns: u64,
    /// Largest sample.
    pub max_ns: u64,
    /// Power-of-two bucket counts ([`HISTOGRAM_BUCKETS`] entries).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// Estimated value at quantile `q` in `[0, 1]`: the lower bound of
    /// the bucket holding the `ceil(q * count)`-th sample, clamped to
    /// the observed `[min, max]` range.
    ///
    /// Pinned boundary semantics:
    /// * empty histogram — always 0, for any `q`;
    /// * `q <= 0.0` (and NaN) — exactly `min_ns`;
    /// * `q >= 1.0` — exactly `max_ns`;
    /// * single sample — the sample itself, for any `q`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        if q >= 1.0 {
            return self.max_ns;
        }
        // NaN survives the clamp; pin it to the same floor as q <= 0.
        if q.is_nan() || q <= 0.0 {
            return self.min_ns;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_floor(i).clamp(self.min_ns, self.max_ns);
            }
        }
        self.max_ns
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th-percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Mean sample duration in nanoseconds (0 when empty).
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// Per-daemon fleet counters: replicated writes, fenced Active slots,
/// and rebalance repair traffic. Integer-only so snapshots stay `Eq`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DaemonFleetStats {
    /// The daemon's index in the fleet.
    pub daemon: u64,
    /// Slot writes (primary + replica) this daemon served.
    pub writes: u64,
    /// Bytes those writes carried.
    pub bytes: u64,
    /// Writes where this daemon was a non-primary replica.
    pub replica_writes: u64,
    /// In-flight Active slots fenced by the recovery epoch when this
    /// daemon was killed (its own losses, not a survivor's).
    pub fenced_active: u64,
    /// Checkpoint copies this daemon received from rebalance repair.
    pub repairs_in: u64,
    /// Bytes of repair traffic it received.
    pub repair_bytes: u64,
    /// Whether the kill schedule took this daemon down.
    pub killed: bool,
}

/// Mutable per-tenant counters and latency histograms.
#[derive(Debug)]
struct TenantStat {
    admitted_ops: u64,
    throttled_ops: u64,
    shed_ops: u64,
    admitted_bytes: u64,
    checkpoint: Hist,
    restore: Hist,
}

impl TenantStat {
    fn new() -> TenantStat {
        TenantStat {
            admitted_ops: 0,
            throttled_ops: 0,
            shed_ops: 0,
            admitted_bytes: 0,
            checkpoint: Hist::new(),
            restore: Hist::new(),
        }
    }
}

/// One tenant's slice of a [`MetricsSnapshot`]: admission counters and
/// end-to-end latency histograms, split checkpoint vs restore. Integer
/// only, so snapshots stay `Eq`.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantSnapshot {
    /// The tenant's name (the identity its connections were accepted
    /// under).
    pub tenant: String,
    /// Datapath requests admitted past the token buckets (restores
    /// count too — they bypass the buckets but are still admitted).
    pub admitted_ops: u64,
    /// Checkpoint requests shed by token-bucket admission control.
    pub throttled_ops: u64,
    /// Checkpoint requests shed by a dispatch queue that stayed full
    /// past the shed wait.
    pub shed_ops: u64,
    /// Payload bytes the admitted requests carried.
    pub admitted_bytes: u64,
    /// End-to-end latency (dispatch wait included) of checkpoint and
    /// delta-checkpoint requests.
    pub checkpoint: HistogramSnapshot,
    /// End-to-end latency of restore requests.
    pub restore: HistogramSnapshot,
}

/// One `(op, stage)` histogram inside a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageHistogram {
    /// The operation.
    pub op: TraceOp,
    /// The stage within the operation.
    pub stage: Stage,
    /// The aggregated distribution.
    pub hist: HistogramSnapshot,
}

/// A point-in-time view of every histogram and gauge.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Per-`(op, stage)` histograms, sorted by `(op, stage)`.
    pub stages: Vec<StageHistogram>,
    /// Jobs currently queued on the daemon dispatch pool.
    pub dispatch_queue_depth: u64,
    /// High-water mark of queued jobs.
    pub dispatch_queue_peak: u64,
    /// Configured bound of the dispatch queue (0 = not configured).
    pub dispatch_queue_capacity: u64,
    /// Free bytes in the PMem allocator at the last refresh.
    #[serde(default)]
    pub pmem_free_bytes: u64,
    /// Used bytes (heap span minus free) at the last refresh.
    #[serde(default)]
    pub pmem_used_bytes: u64,
    /// Largest contiguous free extent at the last refresh.
    #[serde(default)]
    pub pmem_largest_free_extent: u64,
    /// Slot regions reclaimed by repack passes so far.
    #[serde(default)]
    pub reclaimed_slots: u64,
    /// Bytes returned to the allocator by those reclaims.
    #[serde(default)]
    pub reclaimed_bytes: u64,
    /// Repack passes completed so far.
    #[serde(default)]
    pub repack_passes: u64,
    /// Share (in permille) of all seal work so far — persist and
    /// checksum service summed over every checkpoint — that overlapped
    /// the fabric transfer: `Σ overlapped / Σ busy`. `1000` means every
    /// seal ran entirely in the shadow of its CQ drain, `0` that every
    /// seal ran strictly after its pull. Stays `0` until a checkpoint
    /// grants seal service.
    #[serde(default)]
    pub pipeline_overlap_permille: u64,
    /// Best-effort slot rollbacks that themselves failed (the slot was
    /// left Active for the recovery epoch to reap).
    #[serde(default)]
    pub rollback_failures: u64,
    /// Cluster-wide recovery epoch: bumped once per daemon loss; zero
    /// for single-daemon runs and fleets with no kills.
    #[serde(default)]
    pub recovery_epoch: u64,
    /// Restores that had to fall through a dead replica before a
    /// surviving one served the checkpoint.
    #[serde(default)]
    pub restore_failovers: u64,
    /// Per-daemon replication/rebalance counters, in daemon order.
    /// Empty outside placement-enabled fleet runs.
    #[serde(default)]
    pub fleet: Vec<DaemonFleetStats>,
    /// Per-tenant admission counters and latency breakdowns, sorted by
    /// tenant name. Empty until a tenant-attributed request arrives.
    #[serde(default)]
    pub tenants: Vec<TenantSnapshot>,
    /// Live extents in the content-addressed store (dedup daemons
    /// only; all dedup gauges stay zero otherwise).
    #[serde(default)]
    pub dedup_live_extents: u64,
    /// Of the live extents, how many are referenced more than once.
    #[serde(default)]
    pub dedup_shared_extents: u64,
    /// Logical bytes the live extents represent, weighted by refcount —
    /// what the checkpoints would occupy without dedup.
    #[serde(default)]
    pub dedup_logical_bytes: u64,
    /// Physical bytes the live extents occupy on media.
    #[serde(default)]
    pub dedup_stored_bytes: u64,
    /// Chunks processed by extent seals so far.
    #[serde(default)]
    pub dedup_chunks: u64,
    /// Of those, chunks that deduplicated against an existing extent.
    #[serde(default)]
    pub dedup_shared_chunks: u64,
    /// Extent seals whose pass failed, so their checkpoint was sealed
    /// as a plain region (correct but undeduplicated).
    #[serde(default)]
    pub dedup_ingest_failures: u64,
    /// Unreferenced extents reclaimed by repack sweeps so far.
    #[serde(default)]
    pub swept_extents: u64,
    /// Payload bytes those sweeps returned to the allocator.
    #[serde(default)]
    pub swept_extent_bytes: u64,
    /// Micro-pages in the on-PMem model catalog (catalog daemons only;
    /// all catalog gauges stay zero otherwise).
    #[serde(default)]
    pub catalog_pages: u64,
    /// Model entries the catalog pages hold.
    #[serde(default)]
    pub catalog_entries: u64,
    /// Catalog lookups served from the DRAM page cache.
    #[serde(default)]
    pub catalog_cache_hits: u64,
    /// Catalog lookups that had to decode a page from PMem.
    #[serde(default)]
    pub catalog_cache_misses: u64,
    /// Approximate DRAM bytes the clamped catalog page cache holds.
    #[serde(default)]
    pub catalog_cache_bytes: u64,
    /// Approximate DRAM bytes of the daemon's ModelMap mirror (zero
    /// when the catalog owns name resolution and the mirror is empty).
    #[serde(default)]
    pub model_map_bytes: u64,
}

impl MetricsSnapshot {
    /// The histogram for `(op, stage)`, if any samples were recorded.
    pub fn stage(&self, op: TraceOp, stage: Stage) -> Option<&HistogramSnapshot> {
        self.stages
            .iter()
            .find(|s| s.op == op && s.stage == stage)
            .map(|s| &s.hist)
    }

    /// Total nanoseconds recorded for `(op, stage)` (0 if absent).
    pub fn stage_total_ns(&self, op: TraceOp, stage: Stage) -> u64 {
        self.stage(op, stage).map_or(0, |h| h.total_ns)
    }

    /// The named tenant's breakdown, if it recorded anything.
    pub fn tenant(&self, name: &str) -> Option<&TenantSnapshot> {
        self.tenants.iter().find(|t| t.tenant == name)
    }

    /// External fragmentation in permille (integer-only, so snapshots
    /// stay `Eq`): `1000 * (1 - largest_extent / free)`. Zero when free
    /// space is zero (an empty or exhausted allocator has nothing to
    /// fragment) or one contiguous extent; the ratio is computed in
    /// 128-bit so byte counts near `u64::MAX` cannot overflow into a
    /// garbage gauge.
    pub fn fragmentation_permille(&self) -> u64 {
        if self.pmem_free_bytes == 0 {
            return 0;
        }
        let contiguous = self.pmem_largest_free_extent.min(self.pmem_free_bytes);
        1000 - (contiguous as u128 * 1000 / self.pmem_free_bytes as u128) as u64
    }

    /// Physical-over-logical dedup ratio in permille (integer-only):
    /// `1000 * stored / logical`. `1000` when nothing is deduplicated
    /// (or dedup is off — both gauges zero); lower is better. Computed
    /// in 128-bit so byte counts near `u64::MAX` cannot overflow.
    pub fn dedup_ratio_permille(&self) -> u64 {
        if self.dedup_logical_bytes == 0 {
            return 1000;
        }
        (self.dedup_stored_bytes as u128 * 1000 / self.dedup_logical_bytes as u128) as u64
    }
}

#[derive(Debug, Default)]
struct MetricsInner {
    hists: Mutex<BTreeMap<(TraceOp, Stage), Hist>>,
    tenants: Mutex<BTreeMap<String, TenantStat>>,
    queue_depth: AtomicU64,
    queue_peak: AtomicU64,
    queue_capacity: AtomicU64,
    pmem_free_bytes: AtomicU64,
    pmem_used_bytes: AtomicU64,
    pmem_largest_free_extent: AtomicU64,
    reclaimed_slots: AtomicU64,
    reclaimed_bytes: AtomicU64,
    repack_passes: AtomicU64,
    seal_overlapped_ns: AtomicU64,
    seal_busy_ns: AtomicU64,
    rollback_failures: AtomicU64,
    dedup_live_extents: AtomicU64,
    dedup_shared_extents: AtomicU64,
    dedup_logical_bytes: AtomicU64,
    dedup_stored_bytes: AtomicU64,
    dedup_chunks: AtomicU64,
    dedup_shared_chunks: AtomicU64,
    dedup_ingest_failures: AtomicU64,
    swept_extents: AtomicU64,
    swept_extent_bytes: AtomicU64,
    catalog_pages: AtomicU64,
    catalog_entries: AtomicU64,
    catalog_cache_hits: AtomicU64,
    catalog_cache_misses: AtomicU64,
    catalog_cache_bytes: AtomicU64,
    model_map_bytes: AtomicU64,
}

/// Shared metrics registry. Cloning shares the underlying histograms
/// and gauges (like [`crate::Stats`]); recording is always on — a
/// sample is one mutex-guarded bucket increment.
#[derive(Debug, Clone, Default)]
pub struct Metrics {
    inner: Arc<MetricsInner>,
}

impl Metrics {
    /// A fresh, empty registry.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records one stage duration sample.
    pub fn record_stage(&self, op: TraceOp, stage: Stage, d: SimDuration) {
        let mut hists = self.inner.hists.lock();
        hists
            .entry((op, stage))
            .or_insert_with(Hist::new)
            .record(d.as_nanos());
    }

    /// Records one admitted datapath request of `bytes` payload for
    /// `tenant` (checkpoints charged past the token buckets, and
    /// restores, which bypass them).
    pub fn tenant_admitted(&self, tenant: &str, bytes: u64) {
        let mut tenants = self.inner.tenants.lock();
        let t = tenants
            .entry(tenant.to_string())
            .or_insert_with(TenantStat::new);
        t.admitted_ops += 1;
        t.admitted_bytes = t.admitted_bytes.saturating_add(bytes);
    }

    /// Records one checkpoint request shed by token-bucket admission.
    pub fn tenant_throttled(&self, tenant: &str) {
        self.inner
            .tenants
            .lock()
            .entry(tenant.to_string())
            .or_insert_with(TenantStat::new)
            .throttled_ops += 1;
    }

    /// Records one checkpoint request shed by a full dispatch queue.
    pub fn tenant_shed(&self, tenant: &str) {
        self.inner
            .tenants
            .lock()
            .entry(tenant.to_string())
            .or_insert_with(TenantStat::new)
            .shed_ops += 1;
    }

    /// Records one completed datapath request's end-to-end latency for
    /// `tenant`. Checkpoints and delta checkpoints land in the
    /// checkpoint histogram, restores in the restore histogram; other
    /// ops are not tracked per tenant.
    pub fn record_tenant_op(&self, tenant: &str, op: TraceOp, d: SimDuration) {
        let mut tenants = self.inner.tenants.lock();
        let t = tenants
            .entry(tenant.to_string())
            .or_insert_with(TenantStat::new);
        match op {
            TraceOp::Checkpoint | TraceOp::DeltaCheckpoint => t.checkpoint.record(d.as_nanos()),
            TraceOp::Restore => t.restore.record(d.as_nanos()),
            _ => {}
        }
    }

    /// Notes a job entering the dispatch queue; updates the peak gauge.
    pub fn queue_enter(&self) {
        let depth = self.inner.queue_depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.inner.queue_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Notes a job leaving the dispatch queue for a worker.
    pub fn queue_exit(&self) {
        // Saturate rather than wrap if exit/enter ever race at zero.
        let _ = self
            .inner
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                Some(d.saturating_sub(1))
            });
    }

    /// Records the configured dispatch-queue bound.
    pub fn set_queue_capacity(&self, capacity: u64) {
        self.inner.queue_capacity.store(capacity, Ordering::Relaxed);
    }

    /// Refreshes the PMem space gauges from the allocator's view.
    pub fn set_space(&self, free: u64, used: u64, largest_extent: u64) {
        self.inner.pmem_free_bytes.store(free, Ordering::Relaxed);
        self.inner.pmem_used_bytes.store(used, Ordering::Relaxed);
        self.inner
            .pmem_largest_free_extent
            .store(largest_extent, Ordering::Relaxed);
    }

    /// Records one reclaimed slot region returning `bytes`.
    pub fn record_reclaimed(&self, bytes: u64) {
        self.inner.reclaimed_slots.fetch_add(1, Ordering::Relaxed);
        self.inner
            .reclaimed_bytes
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one completed repack pass.
    pub fn record_repack_pass(&self) {
        self.inner.repack_passes.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds one checkpoint's seal pipeline to the overlap gauge: `busy`
    /// is the persist+checksum service it was granted, `overlapped` the
    /// part granted in the shadow of the fabric transfer (clamped to
    /// `busy`). The snapshot reports `Σ overlapped / Σ busy`, so the
    /// gauge describes every checkpoint of a run, not the last one; a
    /// checkpoint that granted no seal service moves nothing.
    pub fn record_pipeline_overlap(&self, overlapped: SimDuration, busy: SimDuration) {
        let busy = busy.as_nanos();
        let overlapped = overlapped.as_nanos().min(busy);
        // Saturating, so centuries of virtual time cannot wrap the sums.
        let add = |sum: &AtomicU64, ns: u64| {
            let _ = sum.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_add(ns))
            });
        };
        add(&self.inner.seal_overlapped_ns, overlapped);
        add(&self.inner.seal_busy_ns, busy);
    }

    /// Records one best-effort rollback that failed and left its slot
    /// Active.
    pub fn record_rollback_failure(&self) {
        self.inner.rollback_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Refreshes the content-addressed extent-store gauges.
    pub fn set_dedup(&self, live: u64, shared: u64, logical_bytes: u64, stored_bytes: u64) {
        self.inner.dedup_live_extents.store(live, Ordering::Relaxed);
        self.inner
            .dedup_shared_extents
            .store(shared, Ordering::Relaxed);
        self.inner
            .dedup_logical_bytes
            .store(logical_bytes, Ordering::Relaxed);
        self.inner
            .dedup_stored_bytes
            .store(stored_bytes, Ordering::Relaxed);
    }

    /// Records one completed extent seal (the dedup tier's checkpoint
    /// seal): `chunks` chunks processed, of which `shared_chunks` hit an
    /// existing extent.
    pub fn record_dedup_ingest(&self, chunks: u64, shared_chunks: u64) {
        self.inner.dedup_chunks.fetch_add(chunks, Ordering::Relaxed);
        self.inner
            .dedup_shared_chunks
            .fetch_add(shared_chunks, Ordering::Relaxed);
    }

    /// Records one extent seal whose pass failed (the checkpoint is
    /// sealed as a plain region instead).
    pub fn record_dedup_ingest_failure(&self) {
        self.inner
            .dedup_ingest_failures
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one repack sweep reclaiming `extents` unreferenced
    /// extents totalling `bytes` of payload.
    pub fn record_swept_extents(&self, extents: u64, bytes: u64) {
        self.inner
            .swept_extents
            .fetch_add(extents, Ordering::Relaxed);
        self.inner
            .swept_extent_bytes
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Refreshes the on-PMem model-catalog gauges.
    pub fn set_catalog(
        &self,
        pages: u64,
        entries: u64,
        cache_hits: u64,
        cache_misses: u64,
        cache_bytes: u64,
    ) {
        self.inner.catalog_pages.store(pages, Ordering::Relaxed);
        self.inner.catalog_entries.store(entries, Ordering::Relaxed);
        self.inner
            .catalog_cache_hits
            .store(cache_hits, Ordering::Relaxed);
        self.inner
            .catalog_cache_misses
            .store(cache_misses, Ordering::Relaxed);
        self.inner
            .catalog_cache_bytes
            .store(cache_bytes, Ordering::Relaxed);
    }

    /// Refreshes the DRAM footprint gauge of the daemon's ModelMap.
    pub fn set_model_map_bytes(&self, bytes: u64) {
        self.inner.model_map_bytes.store(bytes, Ordering::Relaxed);
    }

    /// The histogram snapshot for `(op, stage)`, if any samples exist.
    pub fn stage(&self, op: TraceOp, stage: Stage) -> Option<HistogramSnapshot> {
        self.inner
            .hists
            .lock()
            .get(&(op, stage))
            .map(Hist::snapshot)
    }

    /// A consistent view of all histograms and gauges. Deterministic:
    /// stages are emitted in `(op, stage)` order regardless of the
    /// recording interleaving.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let stages = self
            .inner
            .hists
            .lock()
            .iter()
            .map(|(&(op, stage), h)| StageHistogram {
                op,
                stage,
                hist: h.snapshot(),
            })
            .collect();
        let tenants = self
            .inner
            .tenants
            .lock()
            .iter()
            .map(|(name, t)| TenantSnapshot {
                tenant: name.clone(),
                admitted_ops: t.admitted_ops,
                throttled_ops: t.throttled_ops,
                shed_ops: t.shed_ops,
                admitted_bytes: t.admitted_bytes,
                checkpoint: t.checkpoint.snapshot(),
                restore: t.restore.snapshot(),
            })
            .collect();
        MetricsSnapshot {
            stages,
            tenants,
            dispatch_queue_depth: self.inner.queue_depth.load(Ordering::Relaxed),
            dispatch_queue_peak: self.inner.queue_peak.load(Ordering::Relaxed),
            dispatch_queue_capacity: self.inner.queue_capacity.load(Ordering::Relaxed),
            pmem_free_bytes: self.inner.pmem_free_bytes.load(Ordering::Relaxed),
            pmem_used_bytes: self.inner.pmem_used_bytes.load(Ordering::Relaxed),
            pmem_largest_free_extent: self.inner.pmem_largest_free_extent.load(Ordering::Relaxed),
            reclaimed_slots: self.inner.reclaimed_slots.load(Ordering::Relaxed),
            reclaimed_bytes: self.inner.reclaimed_bytes.load(Ordering::Relaxed),
            repack_passes: self.inner.repack_passes.load(Ordering::Relaxed),
            pipeline_overlap_permille: permille(
                self.inner.seal_overlapped_ns.load(Ordering::Relaxed),
                self.inner.seal_busy_ns.load(Ordering::Relaxed),
            ),
            rollback_failures: self.inner.rollback_failures.load(Ordering::Relaxed),
            recovery_epoch: 0,
            restore_failovers: 0,
            fleet: Vec::new(),
            dedup_live_extents: self.inner.dedup_live_extents.load(Ordering::Relaxed),
            dedup_shared_extents: self.inner.dedup_shared_extents.load(Ordering::Relaxed),
            dedup_logical_bytes: self.inner.dedup_logical_bytes.load(Ordering::Relaxed),
            dedup_stored_bytes: self.inner.dedup_stored_bytes.load(Ordering::Relaxed),
            dedup_chunks: self.inner.dedup_chunks.load(Ordering::Relaxed),
            dedup_shared_chunks: self.inner.dedup_shared_chunks.load(Ordering::Relaxed),
            dedup_ingest_failures: self.inner.dedup_ingest_failures.load(Ordering::Relaxed),
            swept_extents: self.inner.swept_extents.load(Ordering::Relaxed),
            swept_extent_bytes: self.inner.swept_extent_bytes.load(Ordering::Relaxed),
            catalog_pages: self.inner.catalog_pages.load(Ordering::Relaxed),
            catalog_entries: self.inner.catalog_entries.load(Ordering::Relaxed),
            catalog_cache_hits: self.inner.catalog_cache_hits.load(Ordering::Relaxed),
            catalog_cache_misses: self.inner.catalog_cache_misses.load(Ordering::Relaxed),
            catalog_cache_bytes: self.inner.catalog_cache_bytes.load(Ordering::Relaxed),
            model_map_bytes: self.inner.model_map_bytes.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
        assert_eq!(bucket_floor(0), 0);
        assert_eq!(bucket_floor(10), 1024);
    }

    #[test]
    fn histogram_quantiles_are_ordered() {
        let m = Metrics::new();
        for ns in [
            100u64, 200, 400, 800, 1_600, 3_200, 6_400, 12_800, 25_600, 1_000_000,
        ] {
            m.record_stage(
                TraceOp::Checkpoint,
                Stage::Persist,
                SimDuration::from_nanos(ns),
            );
        }
        let h = m.stage(TraceOp::Checkpoint, Stage::Persist).unwrap();
        assert_eq!(h.count, 10);
        assert_eq!(h.min_ns, 100);
        assert_eq!(h.max_ns, 1_000_000);
        assert!(h.p50() <= h.p95());
        assert!(h.p95() <= h.p99());
        assert!(h.p99() <= h.max_ns);
        assert!(h.quantile(0.0) >= h.min_ns);
        assert!(h.quantile(1.0) <= h.max_ns);
        assert_eq!(
            h.mean_ns(),
            (100 + 200 + 400 + 800 + 1_600 + 3_200 + 6_400 + 12_800 + 25_600 + 1_000_000) / 10
        );
    }

    #[test]
    fn quantile_boundary_semantics_are_pinned() {
        // Empty: 0 for every q, including the boundaries and NaN.
        let empty = HistogramSnapshot::default();
        for q in [0.0, 0.5, 1.0, f64::NAN, -1.0, 2.0] {
            assert_eq!(empty.quantile(q), 0);
        }

        // Single sample: the sample itself for every q.
        let m = Metrics::new();
        m.record_stage(
            TraceOp::Checkpoint,
            Stage::Total,
            SimDuration::from_nanos(777),
        );
        let one = m.stage(TraceOp::Checkpoint, Stage::Total).unwrap();
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(one.quantile(q), 777, "q={q}");
        }

        // Boundaries hit the observed extremes exactly, out-of-range
        // and NaN q values clamp to them.
        let m = Metrics::new();
        for ns in [100u64, 5_000, 90_000] {
            m.record_stage(TraceOp::Restore, Stage::Total, SimDuration::from_nanos(ns));
        }
        let h = m.stage(TraceOp::Restore, Stage::Total).unwrap();
        assert_eq!(h.quantile(0.0), 100);
        assert_eq!(h.quantile(-3.0), 100);
        assert_eq!(h.quantile(f64::NAN), 100);
        assert_eq!(h.quantile(1.0), 90_000);
        assert_eq!(h.quantile(7.0), 90_000);
        // Interior quantiles stay within [min, max] and monotone.
        let mut prev = h.quantile(0.0);
        for i in 1..=100 {
            let v = h.quantile(i as f64 / 100.0);
            assert!(v >= prev, "quantile must be monotone in q");
            assert!((h.min_ns..=h.max_ns).contains(&v));
            prev = v;
        }
    }

    #[test]
    fn empty_histogram_is_zeroed() {
        let h = HistogramSnapshot::default();
        assert_eq!(h.p50(), 0);
        assert_eq!(h.mean_ns(), 0);
        let m = Metrics::new();
        assert!(m.stage(TraceOp::Restore, Stage::Total).is_none());
        assert_eq!(
            m.snapshot().stage_total_ns(TraceOp::Restore, Stage::Total),
            0
        );
    }

    #[test]
    fn queue_gauges_track_depth_and_peak() {
        let m = Metrics::new();
        m.set_queue_capacity(8);
        m.queue_enter();
        m.queue_enter();
        m.queue_exit();
        m.queue_enter();
        let s = m.snapshot();
        assert_eq!(s.dispatch_queue_depth, 2);
        assert_eq!(s.dispatch_queue_peak, 2);
        assert_eq!(s.dispatch_queue_capacity, 8);
        m.queue_exit();
        m.queue_exit();
        m.queue_exit(); // extra exit saturates at zero
        assert_eq!(m.snapshot().dispatch_queue_depth, 0);
    }

    #[test]
    fn space_gauges_and_fragmentation() {
        let m = Metrics::new();
        m.set_space(1000, 3000, 250);
        m.record_reclaimed(4096);
        m.record_reclaimed(4096);
        m.record_repack_pass();
        let s = m.snapshot();
        assert_eq!(s.pmem_free_bytes, 1000);
        assert_eq!(s.pmem_used_bytes, 3000);
        assert_eq!(s.pmem_largest_free_extent, 250);
        assert_eq!(s.reclaimed_slots, 2);
        assert_eq!(s.reclaimed_bytes, 8192);
        assert_eq!(s.repack_passes, 1);
        // 1 - 250/1000 = 75%.
        assert_eq!(s.fragmentation_permille(), 750);
        m.set_space(1000, 3000, 1000);
        assert_eq!(m.snapshot().fragmentation_permille(), 0);
        m.set_space(0, 4000, 0);
        assert_eq!(m.snapshot().fragmentation_permille(), 0);
    }

    #[test]
    fn pipeline_overlap_guards_zero_busy_and_huge_sums() {
        let m = Metrics::new();
        assert_eq!(m.snapshot().pipeline_overlap_permille, 0);
        // No seal service granted: nothing to divide, nothing moves.
        m.record_pipeline_overlap(SimDuration::from_secs(1), SimDuration::ZERO);
        assert_eq!(m.snapshot().pipeline_overlap_permille, 0);
        m.record_pipeline_overlap(SimDuration::from_millis(640), SimDuration::from_secs(1));
        assert_eq!(m.snapshot().pipeline_overlap_permille, 640);
        // Overlap beyond the busy time is clamped; huge virtual
        // durations saturate instead of wrapping the sums.
        let m = Metrics::new();
        let huge = SimDuration::from_nanos(u64::MAX);
        m.record_pipeline_overlap(huge, SimDuration::from_secs(1));
        assert_eq!(m.snapshot().pipeline_overlap_permille, 1000);
        m.record_pipeline_overlap(huge, huge);
        assert_eq!(m.snapshot().pipeline_overlap_permille, 1000);
    }

    #[test]
    fn pipeline_overlap_accumulates_across_checkpoints() {
        // One seal fully hidden under its pull, one strictly after: the
        // gauge describes both, so it reads strictly between them.
        let m = Metrics::new();
        let busy = SimDuration::from_millis(3);
        m.record_pipeline_overlap(busy, busy);
        assert_eq!(m.snapshot().pipeline_overlap_permille, 1000);
        m.record_pipeline_overlap(SimDuration::ZERO, SimDuration::from_millis(1));
        assert_eq!(
            m.snapshot().pipeline_overlap_permille,
            750,
            "Σ overlapped / Σ busy = 3 ms / 4 ms"
        );
    }

    #[test]
    fn fragmentation_handles_zero_and_huge_denominators() {
        let s = MetricsSnapshot {
            pmem_free_bytes: 0,
            pmem_largest_free_extent: 0,
            ..MetricsSnapshot::default()
        };
        assert_eq!(s.fragmentation_permille(), 0, "empty allocator");
        let s = MetricsSnapshot {
            pmem_free_bytes: u64::MAX,
            pmem_largest_free_extent: u64::MAX / 2,
            ..MetricsSnapshot::default()
        };
        assert_eq!(s.fragmentation_permille(), 501, "no 128-bit overflow");
        let s = MetricsSnapshot {
            pmem_free_bytes: 100,
            pmem_largest_free_extent: 400, // stale gauge larger than free
            ..MetricsSnapshot::default()
        };
        assert_eq!(s.fragmentation_permille(), 0, "extent clamped to free");
    }

    #[test]
    fn rollback_failures_surface_in_the_snapshot() {
        let m = Metrics::new();
        assert_eq!(m.snapshot().rollback_failures, 0);
        m.record_rollback_failure();
        m.record_rollback_failure();
        let s = m.snapshot();
        assert_eq!(s.rollback_failures, 2);
        // Fleet gauges default empty/zero outside fleet runs; the
        // fleet harness fills them on its own snapshot copy.
        assert_eq!(s.recovery_epoch, 0);
        assert_eq!(s.restore_failovers, 0);
        assert!(s.fleet.is_empty());
    }

    #[test]
    fn tenant_breakdowns_aggregate_and_sort_by_name() {
        let m = Metrics::new();
        assert!(m.snapshot().tenants.is_empty());
        m.tenant_admitted("zeta", 4096);
        m.tenant_admitted("alpha", 100);
        m.tenant_admitted("alpha", 200);
        m.tenant_throttled("alpha");
        m.tenant_shed("alpha");
        m.record_tenant_op("alpha", TraceOp::Checkpoint, SimDuration::from_micros(10));
        m.record_tenant_op(
            "alpha",
            TraceOp::DeltaCheckpoint,
            SimDuration::from_micros(20),
        );
        m.record_tenant_op("alpha", TraceOp::Restore, SimDuration::from_micros(5));
        let s = m.snapshot();
        assert_eq!(s.tenants.len(), 2);
        assert_eq!(s.tenants[0].tenant, "alpha");
        assert_eq!(s.tenants[1].tenant, "zeta");
        let a = s.tenant("alpha").unwrap();
        assert_eq!(a.admitted_ops, 2);
        assert_eq!(a.throttled_ops, 1);
        assert_eq!(a.shed_ops, 1);
        assert_eq!(a.admitted_bytes, 300);
        // Checkpoint + delta land in one histogram, restore in the other.
        assert_eq!(a.checkpoint.count, 2);
        assert_eq!(a.restore.count, 1);
        assert_eq!(a.restore.max_ns, 5_000);
        assert!(s.tenant("nobody").is_none());
    }

    #[test]
    fn clones_share_state_and_snapshots_are_deterministic() {
        let a = Metrics::new();
        let b = a.clone();
        b.record_stage(TraceOp::Restore, Stage::Total, SimDuration::from_micros(5));
        a.record_stage(
            TraceOp::Checkpoint,
            Stage::Total,
            SimDuration::from_micros(3),
        );
        let s = a.snapshot();
        assert_eq!(s.stages.len(), 2);
        // BTreeMap ordering: Checkpoint < Restore by declaration order.
        assert_eq!(s.stages[0].op, TraceOp::Checkpoint);
        assert_eq!(s.stages[1].op, TraceOp::Restore);
        assert_eq!(s, b.snapshot());
        assert_eq!(s.stage_total_ns(TraceOp::Checkpoint, Stage::Total), 3_000);
    }
}
