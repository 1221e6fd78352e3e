//! Portus Daemon: the user-space storage server.
//!
//! Owns a devdax PMem namespace, maintains the three-level index, and
//! serves client connections. Each accepted connection gets a
//! receive-and-dispatch thread; the actual request handling runs on a
//! bounded shared worker pool (the paper's ThreadPool serves
//! *requests*, not connections), so one client's in-flight checkpoint
//! of model A no longer serializes behind its checkpoint of model B.
//! Replies carry the request id and the client demultiplexes them, so
//! out-of-order completion is fine.
//!
//! The datapath itself is **posted**, not blocking: the daemon builds
//! one work-queue entry per run of up to [`portus_rdma::MAX_SGE`]
//! tensors that are contiguous in the slot's TensorData region
//! (`rel_off`-adjacent) — for checkpoint pulls also at most
//! [`PULL_WQE_BYTES`], splitting larger tensors — posts every WQE of
//! the operation in one doorbell batch through a
//! [`portus_rdma::PostedQueuePair`], then
//! drains the completion queue, mapping any error back to the tensors
//! of its run:
//!
//! * checkpoint — the daemon **reads** every tensor out of the client's
//!   GPU memory straight into the slot's TensorData region on PMem;
//!   each run is persisted and digested as its completion drains, and
//!   the slot flips to `Done` once the last run is sealed;
//! * restore — the daemon **writes** the latest `Done` version back into
//!   freshly registered GPU regions.
//!
//! The remote CPU never participates in the data movement and no kernel
//! boundary is crossed — the structural claim the integration tests
//! assert via the datapath counters.
//!
//! Datapath errors are recovered per-WQE: failed work requests are
//! re-posted for up to [`DaemonConfig::verb_retries`] rounds (each
//! round charging an exponentially growing backoff to the virtual
//! clock); if any stay failed, the target slot is rolled back to its
//! pre-call header — or collapsed to `Empty` when partial data
//! clobbered a previously complete version — and the client receives a
//! typed [`PortusError::DatapathFailed`] with per-tensor attribution.
//! The model's previous `Done` version is never touched, so restore
//! keeps working after any failed checkpoint.
//!
//! Multi-tenant QoS (see [`crate::qos`]) sits in front of all of this:
//! each connection carries a tenant identity
//! ([`PortusDaemon::accept_as`]), checkpoint traffic passes per-tenant
//! token buckets before it may queue (over budget → typed
//! [`PortusError::Throttled`] with a `retry_after` hint), and the dispatch
//! pool runs two classes so restores overtake queued checkpoints.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar as StdCondvar, Mutex as StdMutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use portus_pmem::{PmemDevice, PmemError};
use portus_rdma::{
    CompletionQueue, ControlChannel, Fabric, Nic, NodeId, PostedQueuePair, QueuePair, RdmaError,
    RegionTarget, SgEntry, Verb, WrId, MAX_SGE,
};
use portus_sim::{Metrics, Resource, SimContext, SimDuration, SimTime, SpanRecord, Stage, TraceOp};

use crate::index::SlotPiece;
use crate::proto::{checkpoint_op, Done, ModelSummary, Reply, Request, TensorDesc};
use crate::qos::{QosConfig, QosState};
use crate::{
    Index, MIndex, ModelMap, PortusError, PortusResult, SlotHeader, SlotState, VerbFailure,
};

/// How long (host wall clock — queueing charges no virtual time) a
/// checkpoint dispatch may wait for space on a full normal queue before
/// it is shed with [`PortusError::Throttled`]. Generous, so a briefly-full
/// queue still backpressures rather than sheds.
const SHED_WAIT: Duration = Duration::from_millis(500);

/// The `retry_after` hint carried by a queue-shed [`PortusError::Throttled`]
/// (virtual time; admission sheds compute the token bucket's exact
/// deficit instead).
const SHED_RETRY_AFTER: SimDuration = SimDuration::from_millis(1);

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// ModelTable capacity (max concurrent models/shards).
    pub table_capacity: u32,
    /// AllocTable slots.
    pub alloc_slots: u32,
    /// DRAM-fallback mode (paper §IV-a): "upon the absence of PMEM ...
    /// Portus can use DRAM as alternatives". Persistence calls are
    /// skipped; a power failure loses everything, as DRAM would.
    pub dram_fallback: bool,
    /// Size of the shared request-dispatch worker pool. Requests from
    /// all connections are handled by this pool, so up to
    /// `dispatch_workers` requests make progress concurrently.
    pub dispatch_workers: usize,
    /// Bound of the dispatch queue's **normal class** (checkpoint
    /// traffic): at most this many requests wait for a worker. Once
    /// full, a further checkpoint dispatch waits up to 500 ms of host
    /// time for space and is then **shed** with a typed
    /// [`PortusError::Throttled`] — overload is surfaced to the
    /// client instead of silently blocking the connection thread.
    /// Restores and control-plane requests ride the urgent class and
    /// are never shed. Current depth, high-water mark, and this
    /// capacity are exported as gauges on [`portus_sim::Metrics`].
    pub dispatch_queue_depth: usize,
    /// How many rounds a failed datapath WQE is re-posted before the
    /// operation is declared failed and the target slot rolled back.
    /// Each round charges an exponentially growing backoff to the
    /// virtual clock ([`portus_sim::CostModel::verb_retry_backoff`]).
    /// `0` means a single error is immediately terminal.
    pub verb_retries: u32,
    /// Queue pairs opened per client connection (clamped to at least
    /// one). Each datapath operation **stripes** its doorbell batch
    /// across the pool — every QP is pinned to its own NIC DMA-engine
    /// lane ([`portus_rdma::QueuePair::connect_lane`]), so runs on
    /// different QPs transfer in parallel up to the NICs' engine
    /// counts. At any count, completed runs flow into the pipelined
    /// persist+digest seal while later WQEs are still in flight.
    pub qps_per_connection: usize,
    /// Multi-tenant QoS policy: per-tenant token buckets (admission).
    /// The default is policy-free — unlimited buckets — and leaves the
    /// daemon's behaviour exactly as it was before QoS existed.
    pub qos: QosConfig,
    /// Route restores onto the dispatch pool's **urgent class**: they
    /// bypass the token buckets and jump ahead of every queued
    /// checkpoint, keeping restore latency flat through a checkpoint
    /// storm. Disabled, restores queue behind checkpoints in the
    /// bounded normal class (but are still never shed).
    pub priority_restore: bool,
    /// Content-addressed deduplication (ROADMAP item 5). `None` (the
    /// default) keeps every checkpoint a plain contiguous region —
    /// bit-for-bit the pre-dedup daemon. `Some` formats (or recovers)
    /// an extent table on the namespace and converts each sealed
    /// checkpoint into an extent map of content-addressed chunks, so
    /// fine-tunes sharing a base model share physical extents.
    pub dedup: Option<crate::DedupConfig>,
    /// Paged on-PMem model catalog. `None` (the default) keeps name
    /// resolution on the unbounded DRAM [`ModelMap`] mirror —
    /// bit-for-bit the pre-catalog daemon. `Some` formats (or
    /// recovers) the catalog on the namespace, routes every name
    /// lookup through it (a directory binary search and one page probe
    /// under a clamped DRAM page cache), and leaves the ModelMap
    /// empty, so daemon DRAM stays O(cache) no matter how many models
    /// the namespace holds.
    pub catalog: Option<crate::CatalogConfig>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            table_capacity: 1024,
            alloc_slots: 8192,
            dram_fallback: false,
            dispatch_workers: 4,
            dispatch_queue_depth: 64,
            verb_retries: 3,
            qps_per_connection: 1,
            qos: QosConfig::default(),
            priority_restore: true,
            dedup: None,
            catalog: None,
        }
    }
}

/// A unit of work handed to the dispatch pool.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Which of the dispatch pool's two classes a job rides.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobClass {
    /// Restores (when [`DaemonConfig::priority_restore`] is on) and all
    /// control-plane requests: unbounded, drained before any normal
    /// job, never shed.
    Urgent,
    /// Checkpoint traffic (and restores with priority disabled):
    /// bounded by [`DaemonConfig::dispatch_queue_depth`].
    Normal,
}

/// What became of a dispatched job. The shed and closed variants hand
/// the job back so the caller can reply `Throttled` or run it inline.
enum DispatchOutcome {
    /// Queued; a worker will run it.
    Queued,
    /// The normal queue stayed full past the shed wait.
    Shed(Job),
    /// The pool is draining (shutdown raced a late request).
    Closed(Job),
}

/// The two-class dispatch queue, guarded by one mutex.
struct QueueInner {
    urgent: VecDeque<Job>,
    normal: VecDeque<Job>,
    capacity: usize,
    closed: bool,
}

/// Bounded worker pool executing per-request jobs for all connections.
///
/// Two classes share the pool: an **urgent** queue (restores and
/// control plane — unbounded, drained first, never shed) and a
/// **normal** queue (checkpoints) holding at most `queue_depth` waiting
/// jobs. A full normal queue backpressures the dispatching connection
/// thread for a bounded wait, then **sheds** the job back to the caller
/// ([`DispatchOutcome::Shed`]) so overload turns into a typed
/// [`PortusError::Throttled`] instead of an indefinitely blocked connection.
/// Queue depth and its high-water mark are exported as gauges on the
/// shared [`Metrics`].
struct Dispatcher {
    // std sync primitives here, not parking_lot: the producers need
    // condvar waits (with timeout) that the workspace's parking_lot
    // build does not provide.
    inner: StdMutex<QueueInner>,
    /// Signalled when a job is queued (workers wait on it).
    jobs_ready: StdCondvar,
    /// Signalled when a normal job is drained (producers wait on it).
    space_ready: StdCondvar,
    handles: Mutex<Vec<JoinHandle<()>>>,
    metrics: Metrics,
}

impl Dispatcher {
    fn new(workers: usize, queue_depth: usize, metrics: Metrics) -> Arc<Dispatcher> {
        let depth = queue_depth.max(1);
        metrics.set_queue_capacity(depth as u64);
        let dispatcher = Arc::new(Dispatcher {
            inner: StdMutex::new(QueueInner {
                urgent: VecDeque::new(),
                normal: VecDeque::new(),
                capacity: depth,
                closed: false,
            }),
            jobs_ready: StdCondvar::new(),
            space_ready: StdCondvar::new(),
            handles: Mutex::new(Vec::new()),
            metrics,
        });
        let handles = (0..workers.max(1))
            .map(|_| {
                let d = Arc::clone(&dispatcher);
                std::thread::spawn(move || d.worker_loop())
            })
            .collect();
        *dispatcher.handles.lock() = handles;
        dispatcher
    }

    fn lock_queue(&self) -> std::sync::MutexGuard<'_, QueueInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn worker_loop(&self) {
        loop {
            let job = {
                let mut q = self.lock_queue();
                loop {
                    // Urgent first — a queued restore overtakes every
                    // waiting checkpoint.
                    if let Some(job) = q.urgent.pop_front() {
                        break Some(job);
                    }
                    if let Some(job) = q.normal.pop_front() {
                        self.space_ready.notify_one();
                        break Some(job);
                    }
                    if q.closed {
                        break None;
                    }
                    q = self
                        .jobs_ready
                        .wait(q)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            match job {
                Some(job) => {
                    self.metrics.queue_exit();
                    job();
                }
                None => return,
            }
        }
    }

    /// Queues `job` on its class. Normal-class jobs wait for space on a
    /// full queue: up to `shed_wait` host-clock time when given (then
    /// [`DispatchOutcome::Shed`]), indefinitely when `None` (restores
    /// demoted to the normal class must never be shed). Queueing
    /// charges no virtual time either way.
    fn dispatch(&self, job: Job, class: JobClass, shed_wait: Option<Duration>) -> DispatchOutcome {
        let mut q = self.lock_queue();
        if class == JobClass::Normal {
            match shed_wait {
                Some(wait) => {
                    let deadline = Instant::now() + wait;
                    while q.normal.len() >= q.capacity && !q.closed {
                        let remaining = deadline.saturating_duration_since(Instant::now());
                        if remaining.is_zero() {
                            return DispatchOutcome::Shed(job);
                        }
                        q = self
                            .space_ready
                            .wait_timeout(q, remaining)
                            .unwrap_or_else(PoisonError::into_inner)
                            .0;
                    }
                }
                None => {
                    while q.normal.len() >= q.capacity && !q.closed {
                        q = self
                            .space_ready
                            .wait(q)
                            .unwrap_or_else(PoisonError::into_inner);
                    }
                }
            }
        }
        if q.closed {
            return DispatchOutcome::Closed(job);
        }
        match class {
            JobClass::Urgent => q.urgent.push_back(job),
            JobClass::Normal => q.normal.push_back(job),
        }
        self.metrics.queue_enter();
        self.jobs_ready.notify_one();
        DispatchOutcome::Queued
    }

    fn shutdown(&self) {
        {
            let mut q = self.lock_queue();
            q.closed = true;
        }
        // Workers drain whatever is already queued, then exit; blocked
        // producers wake and fall back to inline execution.
        self.jobs_ready.notify_all();
        self.space_ready.notify_all();
        for handle in self.handles.lock().drain(..) {
            let _ = handle.join();
        }
    }
}

/// The endpoints handed to a connecting client.
#[derive(Debug)]
pub struct ClientEndpoints {
    /// Request channel (client end).
    pub requests: ControlChannel<Request>,
    /// Reply channel (client end).
    pub replies: ControlChannel<Reply>,
    /// The client's queue pair (its NIC is the local end).
    pub qp: QueuePair,
    /// Client ends of the extra striped queue pairs (lanes `1..N` when
    /// [`DaemonConfig::qps_per_connection`] is above one). The client
    /// never initiates verbs on them — the daemon's one-sided datapath
    /// does — but dropping an end disconnects the pair, so the client
    /// keeps them alive for the life of the connection.
    pub extra_qps: Vec<QueuePair>,
}

/// The daemon-side queue pairs of one connection: one lane-pinned QP
/// per configured stripe, indexed by lane.
type QpPool = [Arc<QueuePair>];

pub(crate) struct DaemonState {
    pub(crate) ctx: SimContext,
    pub(crate) index: Index,
    pub(crate) map: Mutex<ModelMap>,
    pub(crate) sessions: Mutex<HashMap<String, Vec<TensorDesc>>>,
    model_locks: Mutex<HashMap<String, Arc<Mutex<()>>>>,
    pub(crate) cfg: DaemonConfig,
    /// Admission buckets (built from `cfg.qos`).
    qos: QosState,
    in_flight: AtomicU64,
    peak_in_flight: AtomicU64,
    /// The recovery-epoch gate for `Active`-slot reclaim: the
    /// `(mindex_offset, slot, version)` keys of every slot that was
    /// already `Active` when this daemon instance recovered its index.
    /// Those are crash debris — no thread of *this* process can be
    /// mid-pull into them — so an aggressive repack pass may reclaim
    /// them. An `Active` slot not in this set belongs to a live (or
    /// live-ish) checkpoint and is never touched, regardless of what
    /// the caller asked for.
    pub(crate) stale_active: Mutex<HashSet<(u64, usize, u64)>>,
    /// Monotonic repack-pass counter (span `req_id`s for
    /// [`TraceOp::Repack`]).
    repack_seq: AtomicU64,
    /// Per-model delta lineage, keyed by MIndex offset: at most one
    /// small record per model, DRAM only. A restart forgets it and the
    /// next delta of each model pulls every tensor.
    lineage: Mutex<HashMap<u64, Lineage>>,
}

/// What the daemon remembers about a model's latest version beyond its
/// slot headers.
#[derive(Debug, Clone)]
enum Lineage {
    /// `version` was a delta over `base`, the version the other slot
    /// still holds. `changed[i]` says whether tensor `i` was dirty in
    /// it; every other tensor is byte-identical in the two versions,
    /// by the client's own mask, whether that delta pulled it or not.
    /// `digests[i]` is the positional digest `version` sealed for
    /// tensor `i`'s bytes (empty when the dedup tier sealed it); they
    /// sum to its header's digest. Keyed by slot-relative offset, an
    /// entry holds for the tensor's bytes in either slot.
    Delta {
        version: u64,
        base: u64,
        changed: Vec<bool>,
        digests: Vec<u64>,
    },
    /// A restore put an older version than the latest on the GPU, so
    /// the client's dirty mask no longer describes how the GPU differs
    /// from the latest version: the next delta pulls every tensor.
    PullAll,
}

/// Approximate DRAM bytes of the ModelMap mirror: one `(String, u64)`
/// entry per model plus each name's heap allocation. Feeds the
/// `model_map_bytes` gauge, which stays at zero under the catalog.
fn model_map_bytes(map: &ModelMap) -> u64 {
    map.keys()
        .map(|k| std::mem::size_of::<(String, u64)>() + k.capacity())
        .sum::<usize>() as u64
}

/// The slot digest of per-tensor digests that tile a region.
fn sum_digests(digests: &[u64]) -> u64 {
    digests
        .iter()
        .fold(0, |acc, &d| crate::combine_digests(acc, d))
}

/// The in-place/pull split of a checkpoint of `mi` with `dirty`, given
/// the model's `lineage`: `true` for every tensor the checkpoint pulls.
/// Admission charges what this mask pulls, and
/// [`DaemonState::delta_checkpoint`] pulls exactly it.
///
/// The reuse rule: a clean tensor stays in place when the latest version
/// is the plain delta `lineage` describes, that delta did not change the
/// tensor, and the target slot still holds, as a sealed plain region,
/// the base version that delta was taken over, and the lineage's sealed
/// digests are one per tensor and sum to the latest header's digest.
/// The tensor is then already correct in the target, and its sealed
/// digest is the lineage's entry. Repack reclaim, rollback collapse,
/// the dedup tier's extent seal (which leaves no plain region behind)
/// and crash debris all change the target's header, so they break the
/// rule without a hook of their own. Every other tensor, dirty or
/// clean, is pulled, so every byte a checkpoint writes arrives by
/// posted READ.
fn pull_mask(mi: &MIndex, lineage: Option<&Lineage>, dirty: Option<&[bool]>) -> Vec<bool> {
    let target = &mi.slots[mi.target_slot()];
    // The previous delta's changed mask when the rule holds; empty (so
    // nothing stays in place) when it does not.
    let prev_changed: &[bool] = match (lineage, mi.latest_done()) {
        (
            Some(Lineage::Delta {
                version,
                base,
                changed,
                digests,
            }),
            Some((_, prev)),
        ) if prev.version == *version
            && prev.ext_map == 0
            && target.state == SlotState::Done
            && target.version == *base
            && target.ext_map == 0
            && target.data_off != 0
            && digests.len() == mi.tensors.len()
            && sum_digests(digests) == prev.digest =>
        {
            changed
        }
        _ => &[],
    };
    (0..mi.tensors.len())
        .map(|i| {
            let clean = dirty.is_some_and(|mask| mask.get(i) == Some(&false));
            !(clean && prev_changed.get(i) == Some(&false))
        })
        .collect()
}

/// The Portus storage daemon.
///
/// # Examples
///
/// See the crate-level documentation for an end-to-end
/// register → checkpoint → restore walkthrough.
pub struct PortusDaemon {
    state: Arc<DaemonState>,
    nic: Arc<Nic>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    dispatcher: Arc<Dispatcher>,
}

impl std::fmt::Debug for PortusDaemon {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PortusDaemon")
            .field("node", &self.nic.node())
            .field("models", &self.model_count())
            .finish()
    }
}

impl PortusDaemon {
    /// Starts a daemon on `node` over a **freshly formatted** namespace.
    ///
    /// # Errors
    ///
    /// Formatting failures; [`PortusError::Rdma`] if `node` has no NIC.
    pub fn start(
        fabric: &Fabric,
        node: NodeId,
        dev: Arc<PmemDevice>,
        cfg: DaemonConfig,
    ) -> PortusResult<Arc<PortusDaemon>> {
        let index = Index::format(dev, cfg.table_capacity, cfg.alloc_slots)?;
        Self::with_index(fabric, node, index, ModelMap::new(), cfg)
    }

    /// Starts a daemon over an **existing** namespace, rebuilding the
    /// ModelMap from the persistent ModelTable (restart-after-crash).
    ///
    /// # Errors
    ///
    /// Recovery failures (bad superblock, corrupt structures).
    pub fn recover(
        fabric: &Fabric,
        node: NodeId,
        dev: Arc<PmemDevice>,
        cfg: DaemonConfig,
    ) -> PortusResult<Arc<PortusDaemon>> {
        let (index, map) = Index::recover(dev)?;
        Self::with_index(fabric, node, index, map, cfg)
    }

    fn with_index(
        fabric: &Fabric,
        node: NodeId,
        index: Index,
        map: ModelMap,
        cfg: DaemonConfig,
    ) -> PortusResult<Arc<PortusDaemon>> {
        let nic = fabric.nic(node)?;
        // Dedup-configured daemons need the extent table on the
        // namespace before any request lands: format one on a fresh
        // device, recover the existing one after a restart.
        if let Some(d) = &cfg.dedup {
            index.enable_dedup(d.max_extents)?;
        }
        let dispatcher = Dispatcher::new(
            cfg.dispatch_workers,
            cfg.dispatch_queue_depth,
            fabric.ctx().metrics.clone(),
        );
        // The recovery epoch: any slot already `Active` at daemon start
        // is crash debris from a previous incarnation — no thread of
        // this process can be pulling into it. Only these slots are
        // eligible for aggressive (`reclaim_active`) repacking.
        let mut stale_active = HashSet::new();
        for &off in map.values() {
            let mi = index.load_mindex(off)?;
            for (s, hdr) in mi.slots.iter().enumerate() {
                if hdr.state == SlotState::Active {
                    stale_active.insert((mi.offset, s, hdr.version));
                }
            }
        }
        // Catalog-configured daemons resolve names on PMem: mount (or
        // format) the paged catalog, seed it from the recovered map if
        // the namespace predates it, then drop the DRAM mirror — the
        // whole point is that daemon DRAM no longer scales with the
        // model population. `stale_active` was already computed from
        // the map above, so crash debris is still fenced.
        let map = if let Some(c) = &cfg.catalog {
            index.enable_catalog(c)?;
            let cat = index.catalog().expect("enable_catalog mounts the catalog");
            if cat.is_empty() && !map.is_empty() {
                let live: Vec<(String, u64)> = map.into_iter().collect();
                cat.bulk_replace(index.allocator(), &live)?;
            }
            ModelMap::new()
        } else {
            map
        };
        let qos = QosState::new(cfg.qos.clone());
        let state = Arc::new(DaemonState {
            ctx: fabric.ctx().clone(),
            index,
            map: Mutex::new(map),
            sessions: Mutex::new(HashMap::new()),
            model_locks: Mutex::new(HashMap::new()),
            cfg,
            qos,
            in_flight: AtomicU64::new(0),
            peak_in_flight: AtomicU64::new(0),
            stale_active: Mutex::new(stale_active),
            repack_seq: AtomicU64::new(0),
            lineage: Mutex::new(HashMap::new()),
        });
        state.refresh_space_gauges();
        Ok(Arc::new(PortusDaemon {
            state,
            nic,
            workers: Mutex::new(Vec::new()),
            dispatcher,
        }))
    }

    /// Accepts a connection from `client_nic`: spawns a
    /// receive-and-dispatch thread and returns the client's endpoints.
    /// Request handling itself runs on the shared dispatch pool.
    /// [`DaemonConfig::qps_per_connection`] queue pairs are opened, one
    /// per DMA-engine lane; datapath operations stripe across them.
    ///
    /// The connection is attributed to the `"default"` tenant; use
    /// [`PortusDaemon::accept_as`] to name one.
    pub fn accept(&self, client_nic: Arc<Nic>) -> ClientEndpoints {
        self.accept_as(client_nic, "default")
    }

    /// [`PortusDaemon::accept`] with an explicit tenant identity: every
    /// request on the connection is charged to `tenant`'s token buckets
    /// ([`crate::TenantQos`] via [`DaemonConfig::qos`]) and attributed
    /// to its per-tenant metrics breakdown.
    pub fn accept_as(&self, client_nic: Arc<Nic>, tenant: &str) -> ClientEndpoints {
        let ctx = self.state.ctx.clone();
        let (req_client, req_daemon) = ControlChannel::pair(ctx.clone());
        let (rep_daemon, rep_client) = ControlChannel::pair(ctx);
        let lanes = self.state.cfg.qps_per_connection.max(1);
        let mut daemon_qps = Vec::with_capacity(lanes);
        let mut client_qps = Vec::with_capacity(lanes);
        for lane in 0..lanes {
            let (qp_daemon, qp_client) =
                QueuePair::connect_lane(Arc::clone(&self.nic), Arc::clone(&client_nic), lane);
            daemon_qps.push(Arc::new(qp_daemon));
            client_qps.push(qp_client);
        }
        let pool: Arc<QpPool> = Arc::from(daemon_qps);
        let state = Arc::clone(&self.state);
        let dispatcher = Arc::clone(&self.dispatcher);
        let tenant: Arc<str> = Arc::from(tenant);
        let handle = std::thread::spawn(move || {
            serve(state, dispatcher, pool, tenant, req_daemon, rep_daemon)
        });
        self.workers.lock().push(handle);
        let qp_client = client_qps.remove(0);
        ClientEndpoints {
            requests: req_client,
            replies: rep_client,
            qp: qp_client,
            extra_qps: client_qps,
        }
    }

    /// Waits for all connection threads to exit (they exit when their
    /// client disconnects), then drains and joins the dispatch pool.
    pub fn shutdown(&self) {
        for handle in self.workers.lock().drain(..) {
            let _ = handle.join();
        }
        self.dispatcher.shutdown();
    }

    /// High-water mark of requests in flight on the dispatch pool
    /// (diagnostic; lets tests assert that requests actually overlap).
    pub fn peak_in_flight(&self) -> u64 {
        self.state.peak_in_flight.load(Ordering::Relaxed)
    }

    /// Summaries of all stored models (daemon-side view).
    ///
    /// # Errors
    ///
    /// Device errors while reading MIndex records.
    pub fn summaries(&self) -> PortusResult<Vec<ModelSummary>> {
        self.state.list_models()
    }

    /// The persistent index (for the repacker and tooling).
    pub fn index(&self) -> &Index {
        &self.state.index
    }

    /// Stored-model count (diagnostic): the catalog's entry count when
    /// one owns name resolution, the in-DRAM ModelMap size otherwise.
    pub fn model_count(&self) -> usize {
        match self.state.catalog() {
            Some(cat) => cat.len() as usize,
            None => self.state.map.lock().len(),
        }
    }

    /// The daemon's simulation context.
    pub fn ctx(&self) -> &SimContext {
        &self.state.ctx
    }

    /// The shared daemon state (for the repacker).
    pub(crate) fn state(&self) -> &Arc<DaemonState> {
        &self.state
    }
}

/// Records one request's stage timings into the shared tracer (a full
/// span, when enabled) and metrics histograms. All instants come off
/// the virtual clock — never the host wall clock — so deterministic
/// runs record identical spans.
struct SpanCtx<'a> {
    ctx: &'a SimContext,
    req_id: u64,
    op: TraceOp,
    /// The model name for span records — captured only while the tracer
    /// is recording, so the disabled-tracer fast path never allocates.
    model: Option<String>,
}

impl<'a> SpanCtx<'a> {
    fn new(ctx: &'a SimContext, req_id: u64, op: TraceOp, model: &str) -> SpanCtx<'a> {
        let model = ctx.tracer.is_enabled().then(|| model.to_string());
        SpanCtx {
            ctx,
            req_id,
            op,
            model,
        }
    }

    fn record(&self, stage: Stage, start: SimTime, end: SimTime, round: u32) {
        self.record_lane(stage, start, end, round, 0);
    }

    fn record_lane(&self, stage: Stage, start: SimTime, end: SimTime, round: u32, lane: u32) {
        self.ctx
            .metrics
            .record_stage(self.op, stage, end.saturating_since(start));
        if let Some(model) = &self.model {
            self.ctx.tracer.record(SpanRecord {
                req_id: self.req_id,
                op: self.op,
                stage,
                model: model.clone(),
                start,
                end,
                round,
                lane,
            });
        }
    }

    /// Records `stage` from `start` to the current virtual instant.
    fn record_now(&self, stage: Stage, start: SimTime) {
        self.record(stage, start, self.ctx.clock.now(), 0);
    }
}

/// Span identity of a datapath request: `(req_id, op, model)` for the
/// three traced operations, `None` for control-plane requests.
fn span_meta(req: &Request) -> Option<(u64, TraceOp, String)> {
    match req {
        Request::Checkpoint {
            req_id,
            model,
            dirty,
        } => Some((*req_id, checkpoint_op(dirty.as_deref()), model.clone())),
        Request::Restore { req_id, model, .. } => Some((*req_id, TraceOp::Restore, model.clone())),
        _ => None,
    }
}

/// Checkpoint payload bytes `req` will pull, for admission accounting
/// (`None` for anything that is not checkpoint traffic). A model with
/// no registered session costs 0 — the handler rejects it with the
/// proper error, and charging nothing keeps the shed path honest. A
/// full checkpoint costs the whole session. A delta costs what
/// [`pull_mask`] pulls, from the model's lineage and slot headers as
/// they stand at admission (a model that does not resolve is charged
/// the session).
fn checkpoint_cost(state: &DaemonState, req: &Request) -> Option<u64> {
    let Request::Checkpoint { model, dirty, .. } = req else {
        return None;
    };
    let pull = dirty.as_deref().and_then(|mask| {
        let off = state.resolve_model(model).ok()??;
        let mi = state.index.load_mindex(off).ok()?;
        Some(pull_mask(&mi, state.lineage.lock().get(&off), Some(mask)))
    });
    let sessions = state.sessions.lock();
    let descs = sessions.get(model).map_or(&[][..], Vec::as_slice);
    Some(
        descs
            .iter()
            .enumerate()
            .filter(|&(i, _)| pull.as_ref().is_none_or(|p| p.get(i) != Some(&false)))
            .fold(0u64, |acc, (_, d)| acc.saturating_add(d.size_bytes())),
    )
}

fn serve(
    state: Arc<DaemonState>,
    dispatcher: Arc<Dispatcher>,
    pool: Arc<QpPool>,
    tenant: Arc<str>,
    requests: ControlChannel<Request>,
    replies: ControlChannel<Reply>,
) {
    let replies = Arc::new(replies);
    // Exits when the client disconnects (recv error) or says goodbye.
    // Each request becomes one pool job; replies are sent as each job
    // finishes, in completion order — the client demultiplexes by
    // req_id.
    while let Ok(req) = requests.recv() {
        let Some(req_id) = req.req_id() else {
            break; // Disconnect, the one request without a reply
        };
        let metrics = &state.ctx.metrics;
        // Token-bucket admission: checkpoint traffic only. Restores are
        // latency-critical recovery traffic and bypass the buckets; the
        // control plane is too cheap to meter.
        if let Some(bytes) = checkpoint_cost(&state, &req) {
            let now = state.ctx.clock.now();
            if let Err(wait) = state.qos.admit(&tenant, bytes, now) {
                metrics.tenant_throttled(&tenant);
                let _ = replies.send(Reply {
                    req_id,
                    result: Err(PortusError::Throttled {
                        retry_after_ns: wait.as_nanos(),
                    }),
                });
                continue;
            }
            metrics.tenant_admitted(&tenant, bytes);
        } else if let Request::Restore { tensors, .. } = &req {
            let bytes = tensors
                .iter()
                .fold(0u64, |acc, d| acc.saturating_add(d.size_bytes()));
            metrics.tenant_admitted(&tenant, bytes);
        }
        let is_checkpoint = matches!(req, Request::Checkpoint { .. });
        let class = match &req {
            Request::Checkpoint { .. } => JobClass::Normal,
            Request::Restore { .. } if !state.cfg.priority_restore => JobClass::Normal,
            _ => JobClass::Urgent,
        };
        let kind = req.kind();
        let meta = span_meta(&req);
        let enqueued = state.ctx.clock.now();
        let job: Job = Box::new({
            let state = Arc::clone(&state);
            let pool = Arc::clone(&pool);
            let replies = Arc::clone(&replies);
            let tenant = Arc::clone(&tenant);
            move || {
                let n = state.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
                state.peak_in_flight.fetch_max(n, Ordering::Relaxed);
                // Virtual time that passed between enqueue and pickup is
                // the dispatch-queue wait (zero for an idle pool: queueing
                // itself charges no virtual time).
                let op = meta.as_ref().map(|(_, op, _)| *op);
                if let Some((req_id, op, model)) = &meta {
                    let sc = SpanCtx::new(&state.ctx, *req_id, *op, model);
                    sc.record_now(Stage::DispatchWait, enqueued);
                }
                let result = catch_handler_panic(kind, || handle_request(&state, &pool, req));
                state.in_flight.fetch_sub(1, Ordering::Relaxed);
                // Per-tenant end-to-end latency (dispatch wait included
                // — exactly what a tenant experiences).
                if let Some(op) = op {
                    state.ctx.metrics.record_tenant_op(
                        &tenant,
                        op,
                        state.ctx.clock.now().saturating_since(enqueued),
                    );
                }
                // The client may already be gone; nothing to do then.
                let _ = replies.send(Reply { req_id, result });
            }
        });
        // Checkpoints shed after the bounded wait; a restore demoted to
        // the normal class (priority disabled) waits forever — restores
        // are never shed.
        let shed_wait = is_checkpoint.then_some(SHED_WAIT);
        match dispatcher.dispatch(job, class, shed_wait) {
            DispatchOutcome::Queued => {}
            DispatchOutcome::Shed(job) => {
                drop(job);
                state.ctx.metrics.tenant_shed(&tenant);
                let _ = replies.send(Reply {
                    req_id,
                    result: Err(PortusError::Throttled {
                        retry_after_ns: SHED_RETRY_AFTER.as_nanos(),
                    }),
                });
            }
            // The pool is draining (shutdown raced a late request); run
            // the job inline so the client still gets its reply.
            DispatchOutcome::Closed(job) => job(),
        }
    }
}

/// Runs `handler`, the handler of a `request`-kind request. A panic in
/// it becomes a [`PortusError::HandlerPanicked`] for that request, so
/// the dispatch worker lives on and the client gets an answer instead
/// of waiting forever. The model locks do not poison; a slot the
/// handler left `Active` is what a crash mid-checkpoint leaves, and the
/// next checkpoint of the model targets it again.
fn catch_handler_panic(
    request: &'static str,
    handler: impl FnOnce() -> PortusResult<Done>,
) -> PortusResult<Done> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(handler)).unwrap_or_else(|panic| {
        let message = panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        Err(PortusError::HandlerPanicked { request, message })
    })
}

/// Executes one request against the daemon state.
fn handle_request(state: &DaemonState, pool: &QpPool, req: Request) -> PortusResult<Done> {
    match req {
        Request::Disconnect => unreachable!("serve stops at a Disconnect"),
        Request::Register { model, tensors, .. } => {
            state.register(&model, tensors).map(|()| Done::Ack)
        }
        Request::Checkpoint {
            req_id,
            model,
            dirty,
        } => {
            let (version, [pulled_bytes, reused_bytes], elapsed) =
                state.delta_checkpoint(pool, &model, dirty.as_deref(), req_id)?;
            Ok(Done::Checkpoint {
                version,
                pulled_bytes,
                reused_bytes,
                elapsed,
            })
        }
        Request::Restore {
            req_id,
            model,
            tensors,
            version,
        } => {
            let (version, bytes, elapsed) =
                state.restore(pool, &model, &tensors, version, req_id)?;
            Ok(Done::Restore {
                version,
                bytes,
                elapsed,
            })
        }
        Request::MarkComplete { model, .. } => state.mark_complete(&model).map(|()| Done::Ack),
        Request::Drop { model, .. } => state.drop_model(&model).map(|()| Done::Ack),
        Request::List { .. } => state.list_models().map(Done::Models),
        Request::Stats { .. } => {
            // Space gauges are refreshed lazily; a stats query must
            // report the allocator's current view, not the last
            // repack's.
            state.refresh_space_gauges();
            Ok(Done::Stats(Box::new(state.ctx.metrics.snapshot())))
        }
    }
}

/// One tensor's contribution to a posted datapath operation.
struct TensorVerb {
    rel_off: u64,
    len: u64,
    rkey: u64,
    /// The tensor's index in its model.
    tensor: usize,
}

/// One work-queue entry: a run of tensors contiguous in the slot's
/// TensorData region, moved by a single gather/scatter verb. A tensor
/// split across runs appears in each of them, its segments' `offset`s
/// picking up where the previous run stopped. `tensors[k]` is the
/// model index of segment `k`'s tensor.
#[derive(Debug)]
struct VerbRun {
    segs: Vec<SgEntry>,
    tensors: Vec<usize>,
    base_rel: u64,
    len: u64,
}

/// Byte cap of one checkpoint-pull WQE.
///
/// The seal pipeline starts on a WQE only when its completion drains,
/// so an uncapped run holding a whole model (AlexNet's 16 tensors fill
/// one [`MAX_SGE`] WQE) digests strictly after the pull. With 4 MiB
/// chunks, chunk *k* is persisted and digested while chunk *k+1* is
/// still on the NIC. At `CostModel::icdcs24` one chunk's seal costs
/// 0.45 ms — the 1024-line flush cap (102.4 µs) plus a 4 MiB DAX read
/// at 12 GB/s — against 0.73 ms to pull it at the 5.8 GB/s BAR rate,
/// so the seal keeps pace even on one QP. The price is one extra
/// 64 KiB message ramp per chunk (11.3 µs, ~1.5 %). A cap sweep on
/// the `zoo-full` and `recsys-delta` benchmark workloads (virtual
/// checkpoint GB/s) picked 4 MiB: 1–2 MiB pay too many ramps and flush
/// caps on full checkpoints, 8–16 MiB leave delta pulls' seals exposed.
/// Restore pushes stay uncapped: their verify runs before the push,
/// so there is nothing to overlap.
pub const PULL_WQE_BYTES: u64 = 4 << 20;

/// Groups tensors into runs that are contiguous by `rel_off` in the
/// slot's TensorData region. A run closes at [`MAX_SGE`] segments or
/// `max_bytes` bytes, whichever comes first, and never crosses the end
/// of one of the slot's `pieces` (an empty list has no ends; the
/// pieces cover every tensor), so each run moves one contiguous device
/// range. A tensor larger than the room left fills that room, and the
/// rest is cut into near-equal pieces of at most `max_bytes` — never
/// cap-sized pieces plus a runt: a runt landing behind a full chunk
/// pays a whole flush pass for a fraction of the bytes, and at a
/// model's end that lengthens the seal tail. Each run becomes one WQE;
/// a gap in the selected tensors (e.g. clean tensors skipped by a delta
/// checkpoint) breaks the run. A zero-length tensor keeps its segment.
fn coalesce_runs(verbs: &[TensorVerb], max_bytes: u64, pieces: &[SlotPiece]) -> Vec<VerbRun> {
    debug_assert!(max_bytes > 0, "a zero byte cap never places a byte");
    // What run `r` may still take: up to the cap, within its piece.
    let room = |r: &VerbRun| {
        let end = piece_at(pieces, r.base_rel).map_or(u64::MAX, |p| p.rel_off + p.len);
        max_bytes
            .saturating_sub(r.len)
            .min(end - r.base_rel - r.len)
    };
    let mut runs: Vec<VerbRun> = Vec::new();
    for v in verbs {
        let mut done = 0u64;
        loop {
            let at = v.rel_off + done;
            // Only a tensor's first piece may join an open run; a
            // zero-length tensor joins even a full one.
            let open = done == 0
                && runs.last().is_some_and(|r| {
                    r.segs.len() < MAX_SGE
                        && r.base_rel + r.len == at
                        && (room(r) > 0 || v.len == 0)
                });
            if !open {
                runs.push(VerbRun {
                    segs: Vec::new(),
                    tensors: Vec::new(),
                    base_rel: at,
                    len: 0,
                });
            }
            let run = runs.last_mut().expect("a run is open");
            let left = v.len - done;
            let room = room(run);
            let take = if left <= room || run.len > 0 {
                left.min(room)
            } else {
                left.div_ceil(left.div_ceil(max_bytes)).min(room)
            };
            debug_assert!(take > 0 || left == 0, "no piece holds byte {at}");
            run.segs.push(SgEntry {
                rkey: v.rkey,
                offset: done,
                len: take,
            });
            run.tensors.push(v.tensor);
            run.len += take;
            done += take;
            if done == v.len {
                break;
            }
        }
    }
    runs
}

/// The piece of `pieces` (sorted by `rel_off`) that holds slot-relative
/// offset `rel`; for a zero-length run past the last piece, that piece.
fn piece_at(pieces: &[SlotPiece], rel: u64) -> Option<&SlotPiece> {
    let after = pieces.partition_point(|p| p.rel_off <= rel);
    pieces.get(after.saturating_sub(1))
}

/// A datapath operation whose WQEs exhausted their retries.
struct DatapathFailure {
    /// The terminally failed runs, in run order: `(run index, retries,
    /// the last attempt's error)`.
    failed: Vec<(usize, u32, RdmaError)>,
    /// Whether any WQE of the operation completed — i.e. whether bytes
    /// landed in the target region before the operation was declared
    /// failed. Decides revert-vs-collapse on rollback.
    any_succeeded: bool,
}

impl DatapathFailure {
    /// The typed error of `op` on `mi` over `runs`, with each failed
    /// run's tensors named. Failed chunks of one split tensor fold into
    /// one failure, so every tensor is named once. Runs are in slot
    /// order, so a tensor's chunks are consecutive.
    fn into_error(self, mi: &MIndex, runs: &[VerbRun], op: &str) -> PortusError {
        let mut failures: Vec<VerbFailure> = Vec::new();
        for (i, retries, e) in self.failed {
            let names: Vec<String> = runs[i]
                .tensors
                .iter()
                .map(|&t| mi.tensors[t].meta.name.clone())
                .collect();
            match failures.last_mut() {
                Some(prev) if prev.tensors.last() == names.first() => {
                    prev.tensors.extend_from_slice(&names[1..]);
                    prev.retries = prev.retries.max(retries);
                }
                _ => failures.push(VerbFailure {
                    tensors: names,
                    retries,
                    error: e.to_string(),
                }),
            }
        }
        PortusError::DatapathFailed {
            model: mi.name.clone(),
            op: op.to_string(),
            failures,
        }
    }
}

/// What a successful posted operation leaves behind: each run's fabric
/// `(start, end)` completion window, indexed like the input runs — the
/// arrival times the pipelined seal schedules against.
struct RunOutcome {
    completions: Vec<Option<(SimTime, SimTime)>>,
}

/// One pulled run whose bytes are already in the slot's data region,
/// queued for the pipelined persist+digest stage, which reads it back
/// from PMem to digest it segment by segment.
struct SealPiece<'a> {
    run: &'a VerbRun,
    /// Virtual instant the bytes were in place: the run's fabric
    /// completion end.
    arrival: SimTime,
}

/// Drains **every** posted completion off `cq` and returns the run
/// indices that failed, with their errors, the fabric-side
/// `(earliest start, latest end)` envelope over the successful
/// transfers, and each successful run's own `(start, end)` window. One
/// bad WQE no longer masks the outcome of the others — the retry loop
/// needs the full failed set, and a terminal error must attribute
/// every failed run. The per-run windows feed the striped seal stage,
/// which starts persisting an extent the instant its transfer
/// completed. The envelope times the completion phase: the drain
/// itself charges no virtual time (the in-process fabric completes
/// eagerly at post), so the transfers' own instants are the honest
/// span.
#[allow(clippy::type_complexity)]
fn drain_cq(
    cq: &CompletionQueue,
    posted: &[(WrId, usize)],
) -> (
    Vec<(usize, RdmaError)>,
    Option<(SimTime, SimTime)>,
    Vec<(usize, SimTime, SimTime)>,
) {
    let mut failed = Vec::new();
    let mut span: Option<(SimTime, SimTime)> = None;
    let mut succeeded = Vec::new();
    let mut polled = 0;
    while polled < posted.len() {
        let batch = cq.poll(posted.len() - polled);
        if batch.is_empty() {
            // Defensive: the in-process fabric completes eagerly, so
            // every post already has a completion. Bail rather than
            // spin if that invariant ever breaks.
            break;
        }
        for wc in &batch {
            let run = posted
                .iter()
                .find(|(id, _)| *id == wc.wr_id)
                .map(|&(_, r)| r);
            match &wc.result {
                Err(e) => {
                    if let Some(run) = run {
                        failed.push((run, e.clone()));
                    }
                }
                Ok(_) => {
                    if let Some((start, end)) = wc.fabric_span() {
                        if let Some(run) = run {
                            succeeded.push((run, start, end));
                        }
                        span = Some(match span {
                            Some((s, e)) => (s.min(start), e.max(end)),
                            None => (start, end),
                        });
                    }
                }
            }
        }
        polled += batch.len();
    }
    (failed, span, succeeded)
}

/// The seal pieces of a posted pull: one per run, arriving at its
/// fabric completion (`now` for a run with no recorded window).
fn pull_pieces<'a>(runs: &'a [VerbRun], outcome: &RunOutcome, now: SimTime) -> Vec<SealPiece<'a>> {
    runs.iter()
        .zip(&outcome.completions)
        .map(|(run, c)| SealPiece {
            run,
            arrival: c.map_or(now, |(_, end)| end),
        })
        .collect()
}

impl DaemonState {
    pub(crate) fn model_lock(&self, model: &str) -> Arc<Mutex<()>> {
        Arc::clone(
            self.model_locks
                .lock()
                .entry(model.to_string())
                .or_default(),
        )
    }

    /// The next repack-pass id (span `req_id`s for [`TraceOp::Repack`]).
    pub(crate) fn next_repack_id(&self) -> u64 {
        self.repack_seq.fetch_add(1, Ordering::Relaxed)
    }

    /// Pushes the allocator's current free/used/largest-extent view
    /// into the shared metrics gauges, and the extent store's dedup
    /// gauges when one is mounted.
    pub(crate) fn refresh_space_gauges(&self) {
        let alloc = self.index.allocator();
        self.ctx.metrics.set_space(
            alloc.free_bytes(),
            alloc.used_bytes(),
            alloc.largest_free_extent(),
        );
        if let Some(store) = self.index.extent_store() {
            let Ok(s) = store.stats() else { return };
            self.ctx
                .metrics
                .set_dedup(s.live, s.shared, s.referenced_logical, s.stored_bytes);
        }
        self.ctx
            .metrics
            .set_model_map_bytes(model_map_bytes(&self.map.lock()));
        if let Some(cat) = self.catalog() {
            let s = cat.stats();
            self.ctx.metrics.set_catalog(
                s.pages,
                s.entries,
                s.cache_hits,
                s.cache_misses,
                s.cache_bytes,
            );
        }
    }

    /// The dedup tier's seal ([`crate::dedup::seal_slot`]): one read
    /// pass chunks the `Active` slot's staging region into
    /// content-addressed extents and one header flip publishes the
    /// version, so the staging region is never flushed. Charges the DAX
    /// traffic the pass performs (the one read of the staging bytes,
    /// new-extent writes, the map write); the writes are streamed, so
    /// the device adds only their fences. Returns `false` when the pass
    /// failed (extent table full, out of space): the slot is then still
    /// `Active` over its staging region and the caller seals it plain —
    /// dedup failure is never fatal.
    fn extent_seal(
        &self,
        mi: &mut MIndex,
        slot: usize,
        version: u64,
        dcfg: &crate::DedupConfig,
        sc: &SpanCtx<'_>,
    ) -> bool {
        let t0 = self.ctx.clock.now();
        match crate::dedup::seal_slot(&self.index, mi, slot, version, dcfg) {
            Ok(report) => {
                self.ctx.charge(
                    self.ctx.model.dax_read(report.read_bytes)
                        + self
                            .ctx
                            .model
                            .dax_write(report.new_bytes + report.map_bytes),
                );
                self.ctx
                    .metrics
                    .record_dedup_ingest(report.chunks as u64, report.shared_chunks as u64);
                sc.record_now(Stage::Dedup, t0);
                true
            }
            Err(_) => {
                self.ctx.metrics.record_dedup_ingest_failure();
                false
            }
        }
    }

    /// [`Index::ensure_slot_region`] with the `OutOfSpace` recovery
    /// loop: on an allocator `OutOfSpace`, run one aggressive (but
    /// epoch-gated, so still safe) repack pass and retry the allocation
    /// once. If the device genuinely cannot hold the region, surface
    /// the typed [`PortusError::OutOfSpace`] carrying the allocator's
    /// final view. The caller holds this model's lock; the pass
    /// `try_lock`s and simply skips the busy model.
    fn ensure_region_or_reclaim(&self, mi: &mut MIndex, slot: usize) -> PortusResult<SlotHeader> {
        match self.index.ensure_slot_region(mi, slot) {
            Err(PortusError::Pmem(PmemError::OutOfSpace { .. })) => {
                let _ = crate::repack::repack_pass(self, true);
                match self.index.ensure_slot_region(mi, slot) {
                    Ok(hdr) => {
                        self.ctx.stats.record_oos_recovery();
                        Ok(hdr)
                    }
                    Err(PortusError::Pmem(PmemError::OutOfSpace { requested, .. })) => {
                        let alloc = self.index.allocator();
                        Err(PortusError::OutOfSpace {
                            needed: requested,
                            free: alloc.free_bytes(),
                            largest_extent: alloc.largest_free_extent(),
                        })
                    }
                    other => other,
                }
            }
            other => other,
        }
    }

    /// The mounted catalog, when this daemon is configured to use it.
    /// A recovered namespace may carry a catalog the operator chose not
    /// to enable; the config gate keeps such a daemon byte-for-byte on
    /// the ModelMap path.
    pub(crate) fn catalog(&self) -> Option<&crate::Catalog> {
        if self.cfg.catalog.is_some() {
            self.index.catalog()
        } else {
            None
        }
    }

    /// Resolves a model name to its MIndex offset through whichever
    /// structure owns name resolution: the paged on-PMem catalog when
    /// enabled, the DRAM ModelMap mirror otherwise.
    pub(crate) fn resolve_model(&self, model: &str) -> PortusResult<Option<u64>> {
        match self.catalog() {
            Some(cat) => cat.lookup(model),
            None => Ok(self.map.lock().get(model).copied()),
        }
    }

    /// [`DaemonState::resolve_model`] + MIndex load. Datapath callers
    /// pass their span so catalog-enabled daemons attribute the paged
    /// probe to [`Stage::CatalogLookup`]; the ModelMap path records
    /// nothing (a DRAM tree walk charges no virtual time).
    fn lookup(&self, model: &str, sc: Option<&SpanCtx<'_>>) -> PortusResult<MIndex> {
        let off = if let Some(cat) = self.catalog() {
            let t0 = self.ctx.clock.now();
            let off = cat.lookup(model)?;
            if let Some(sc) = sc {
                sc.record_now(Stage::CatalogLookup, t0);
            }
            off
        } else {
            self.map.lock().get(model).copied()
        }
        .ok_or_else(|| PortusError::ModelNotFound(model.to_string()))?;
        self.index.load_mindex(off)
    }

    /// Posts one `verb` WQE per run (gather-READs pull GPU → PMem for a
    /// checkpoint, scatter-WRITEs push PMem → GPU for a restore, with
    /// the PMem side in the piece of `pieces` that holds the run),
    /// drains the completion queues, and re-posts failed WQEs for up to
    /// [`DaemonConfig::verb_retries`] rounds. Each round
    /// charges an exponentially growing backoff to the virtual clock
    /// before the fresh doorbell batch. Runs that stay failed after the
    /// last round come back as a [`DatapathFailure`] with per-run
    /// tensor attribution and retry counts.
    ///
    /// Runs are sharded **largest-first onto the least-loaded lane**
    /// (deterministic: ties break on run index and lane number) and
    /// posted *deferred* on each lane's own [`PostedQueuePair`], so one
    /// posting instant fans out across the NICs' DMA engines and
    /// equal-size shards finish together instead of serializing. Every
    /// lane gets its own doorbell/drain spans (tagged with the lane),
    /// the shared clock advances once per round, to the slowest lane's
    /// last completion, and each run's completion window comes back in
    /// [`RunOutcome`] for the pipelined seal. A one-QP pool is simply
    /// the one-lane case.
    ///
    /// Retries keep **lane affinity**: a failed run is re-posted on the
    /// QP it originally rode — its connection state, not a random
    /// stripe, is what the retry exercises — while the other lanes'
    /// completed runs are never touched again.
    fn execute_runs(
        &self,
        pool: &QpPool,
        runs: &[VerbRun],
        pieces: &[SlotPiece],
        verb: Verb,
        sc: &SpanCtx<'_>,
    ) -> Result<RunOutcome, DatapathFailure> {
        let lanes = pool.len();
        let mut order: Vec<usize> = (0..runs.len()).collect();
        order.sort_by_key(|&i| (std::cmp::Reverse(runs[i].len), i));
        let mut lane_bytes = vec![0u64; lanes];
        let mut lane_of = vec![0usize; runs.len()];
        for &i in &order {
            let lane = (0..lanes)
                .min_by_key(|&l| (lane_bytes[l], l))
                .expect("a pool has at least one lane");
            lane_of[i] = lane;
            lane_bytes[lane] += runs[i].len;
        }
        let endpoints: Vec<(PostedQueuePair, CompletionQueue)> = pool
            .iter()
            .map(|qp| {
                let cq = CompletionQueue::new();
                let pqp = PostedQueuePair::new(Arc::clone(qp), cq.clone());
                (pqp, cq)
            })
            .collect();
        let post = |lane: usize, run: &VerbRun| -> WrId {
            let base = piece_at(pieces, run.base_rel)
                .map_or(0, |p| p.dev_off + (run.base_rel - p.rel_off));
            let region = RegionTarget::Pmem {
                dev: Arc::clone(self.index.device()),
                base,
                len: run.len,
            };
            endpoints[lane].0.post(verb, &run.segs, &region, 0)
        };

        let mut completions: Vec<Option<(SimTime, SimTime)>> = vec![None; runs.len()];
        let mut retries = vec![0u32; runs.len()];
        let mut any_succeeded = false;
        let mut pending: Vec<usize> = (0..runs.len()).collect();
        let mut round = 0u32;
        loop {
            let t_post = self.ctx.clock.now();
            let mut posted: Vec<Vec<(WrId, usize)>> = vec![Vec::new(); lanes];
            for lane in 0..lanes {
                let mine: Vec<usize> = pending
                    .iter()
                    .copied()
                    .filter(|&i| lane_of[i] == lane)
                    .collect();
                if mine.is_empty() {
                    continue;
                }
                endpoints[lane].0.begin_batch();
                for i in mine {
                    posted[lane].push((post(lane, &runs[i]), i));
                }
            }
            let mut failed: Vec<(usize, RdmaError)> = Vec::new();
            let mut round_end: Option<SimTime> = None;
            for lane in 0..lanes {
                if posted[lane].is_empty() {
                    continue;
                }
                let (lane_failed, envelope, succeeded) =
                    drain_cq(&endpoints[lane].1, &posted[lane]);
                // Doorbell ring → the lane's first byte is the queueing
                // window; the envelope is the lane's drain. A lane whose
                // every WQE failed still rang its doorbell (zero-width).
                let first = envelope.map_or(t_post, |(s, _)| s);
                sc.record_lane(Stage::DoorbellPost, t_post, first, round, lane as u32);
                if let Some((s, e)) = envelope {
                    sc.record_lane(Stage::CqDrain, s, e, round, lane as u32);
                    round_end = Some(round_end.map_or(e, |r| r.max(e)));
                }
                for (i, s, e) in succeeded {
                    completions[i] = Some((s, e));
                    any_succeeded = true;
                }
                failed.extend(lane_failed);
            }
            // Deferred posts left the clock at the doorbell instant; the
            // round is over when its slowest lane drains.
            if let Some(e) = round_end {
                self.ctx.clock.advance_to(e);
            }
            if failed.is_empty() {
                return Ok(RunOutcome { completions });
            }
            failed.sort_by_key(|&(i, _)| i);
            if round >= self.cfg.verb_retries {
                return Err(DatapathFailure {
                    failed: failed
                        .into_iter()
                        .map(|(i, e)| (i, retries[i], e))
                        .collect(),
                    any_succeeded,
                });
            }
            round += 1;
            let t_backoff = self.ctx.clock.now();
            self.ctx.charge(self.ctx.model.verb_retry_backoff(round));
            sc.record(Stage::RetryBackoff, t_backoff, self.ctx.clock.now(), round);
            pending = failed
                .into_iter()
                .map(|(i, _)| {
                    retries[i] += 1;
                    self.ctx.stats.record_retried_verb();
                    i
                })
                .collect();
        }
    }

    /// Rolls the target slot back after a failed checkpoint, so a
    /// datapath error never strands the slot `Active`. When bytes
    /// landed in a previously-`Done` slot, the old data is clobbered
    /// and its checksum would falsely validate — the slot collapses to
    /// `Empty`; otherwise the exact pre-call header is restored.
    /// `latest_done` and restore are untouched either way.
    fn rollback_slot(
        &self,
        mi: &MIndex,
        slot: usize,
        pre: SlotHeader,
        data_landed: bool,
    ) -> PortusResult<()> {
        if data_landed && pre.state == SlotState::Done {
            self.index.collapse_slot(mi, slot)?;
        } else {
            self.index.revert_slot(mi, slot, &pre)?;
        }
        self.ctx.stats.record_rolled_back_slot();
        Ok(())
    }

    /// [`Self::rollback_slot`], best-effort: a rollback that itself
    /// fails must never mask the datapath error the caller is about to
    /// return — it is only counted. (The slot is then stranded `Active`
    /// until the next recovery epoch reclaims it.)
    fn rollback_best_effort(&self, mi: &MIndex, slot: usize, pre: SlotHeader, data_landed: bool) {
        if self.rollback_slot(mi, slot, pre, data_landed).is_err() {
            self.ctx.metrics.record_rollback_failure();
        }
    }

    /// The seal: each pulled run rides a FIFO persist+digest pipeline
    /// **as its transfer completes** — work for early runs overlaps, in
    /// virtual time, with later runs still in flight on the NIC
    /// engines; runs that land while the stage is busy share one flush
    /// pass and fence. Each segment's digest ([`crate::region_digest`])
    /// joins its tensor's entry in `digests`, which holds on entry the
    /// sealed digest of every tensor left in place (0 for a pulled
    /// one); the entries combine order-independently into the slot
    /// digest the header is sealed with ([`Index::mark_slot_done`]), so
    /// the seal reads only the bytes that landed, and restore
    /// recomputes the same value from the region regardless of how it
    /// was partitioned. Returns the per-tensor digests.
    fn seal_slot_pipelined(
        &self,
        mi: &MIndex,
        slot: usize,
        hdr: SlotHeader,
        mut digests: Vec<u64>,
        mut pieces: Vec<SealPiece<'_>>,
        sc: &SpanCtx<'_>,
    ) -> PortusResult<Vec<u64>> {
        let ctx = &self.ctx;
        // The stage's own FIFO: runs enter in arrival order, so a run
        // whose transfer finished first is durable first.
        let pipe = Resource::new("seal-pipe");
        pieces.sort_by_key(|p| (p.arrival, p.run.base_rel));
        let fabric_end = pieces
            .iter()
            .map(|p| p.arrival)
            .max()
            .unwrap_or_else(|| ctx.clock.now());
        let dev = self.index.device();
        // Each piece of stage work queues on the pipe and is traced;
        // work granted before the last fabric completion ran in the
        // transfer's shadow (the pipeline gauge).
        let mut stage_busy = SimDuration::ZERO;
        let mut stage_overlapped = SimDuration::ZERO;
        let mut serve = |stage: Stage, arrival: SimTime, cost: SimDuration| {
            let g = pipe.schedule(arrival, cost);
            sc.record(stage, g.start, g.end, 0);
            stage_busy += cost;
            stage_overlapped += g
                .end
                .min(fabric_end)
                .saturating_since(g.start.min(fabric_end));
        };
        // Group persist: whenever the stage frees up it takes every run
        // that has landed by then (at least the next one) as one batch —
        // one flush pass and one fence for the batch — then reads the
        // batch back to digest it.
        let mut rest = &pieces[..];
        while let Some(first) = rest.first() {
            let ready = pipe.busy_until().max(first.arrival);
            let n = rest.iter().take_while(|p| p.arrival <= ready).count();
            let (batch, tail) = rest.split_at(n);
            rest = tail;
            let arrival = batch[n - 1].arrival;
            if !self.cfg.dram_fallback && batch.iter().any(|p| p.run.len > 0) {
                let ranges: Vec<(u64, u64)> = batch
                    .iter()
                    .map(|p| (hdr.data_off + p.run.base_rel, p.run.len))
                    .collect();
                let cost = dev.persist_deferred(&ranges)?;
                serve(Stage::Persist, arrival, cost);
            }
            let mut landed = 0u64;
            for SealPiece { run, .. } in batch {
                let mut rel = run.base_rel;
                for (seg, &t) in run.segs.iter().zip(&run.tensors) {
                    let at = self.index.slot_pieces(&hdr, rel, seg.len)?;
                    digests[t] = crate::combine_digests(digests[t], self.index.pieces_digest(&at)?);
                    rel += seg.len;
                }
                landed += run.len;
            }
            if landed > 0 {
                let cost = ctx.model.dax_read(landed);
                serve(Stage::Checksum, arrival, cost);
            }
        }
        // The request completes when the pipeline drains (advance_to is
        // monotonic, so an already-later clock is left alone).
        ctx.clock.advance_to(pipe.busy_until());
        ctx.metrics
            .record_pipeline_overlap(stage_overlapped, stage_busy);
        let t0 = ctx.clock.now();
        let done = self.index.mark_slot_done(mi, slot, sum_digests(&digests));
        sc.record_now(Stage::HeaderFlip, t0);
        done.map(|()| digests)
    }

    pub(crate) fn register(&self, model: &str, tensors: Vec<TensorDesc>) -> PortusResult<()> {
        let metas: Vec<_> = tensors.iter().map(TensorDesc::meta).collect();
        let lock = self.model_lock(model);
        let _guard = lock.lock();
        let existing = self.resolve_model(model)?;
        match existing {
            Some(off) => {
                // Re-registration (e.g. after client restart): the
                // structure must match the persistent index.
                let mi = self.index.load_mindex(off)?;
                if mi.tensors.len() != metas.len() {
                    return Err(PortusError::StructureMismatch(format!(
                        "{model}: {} registered tensors vs {} on PMem",
                        metas.len(),
                        mi.tensors.len()
                    )));
                }
                for (rec, meta) in mi.tensors.iter().zip(&metas) {
                    if rec.meta != *meta {
                        return Err(PortusError::StructureMismatch(format!(
                            "{model}: tensor {} does not match stored {}",
                            meta.name, rec.meta.name
                        )));
                    }
                }
            }
            None => {
                let mi = self.index.create_model(model, &metas)?;
                match self.catalog() {
                    Some(cat) => {
                        cat.insert(self.index.allocator(), model, mi.offset)?;
                    }
                    None => {
                        self.map.lock().insert(model.to_string(), mi.offset);
                    }
                }
            }
        }
        self.sessions.lock().insert(model.to_string(), tensors);
        Ok(())
    }

    /// The one checkpoint pull (`DO_CHECKPOINT`). Every tensor the
    /// target slot lacks is pulled from GPU memory by posted READ; the
    /// rest stay in place ([`pull_mask`]). The target always holds the
    /// version before the previous one, so when the previous version
    /// was itself a delta over it, a tensor clean in both deltas is
    /// already there: no pull, no persist. No byte is copied by the
    /// CPU. `dirty: None` marks every tensor dirty: a full checkpoint
    /// is a delta that pulls everything. Either way the slot is a
    /// *complete* version with the same crash consistency.
    ///
    /// Returns the version, the `[pulled, reused]` byte counts and the
    /// daemon-side virtual time.
    pub(crate) fn delta_checkpoint(
        &self,
        pool: &QpPool,
        model: &str,
        dirty: Option<&[bool]>,
        req_id: u64,
    ) -> PortusResult<(u64, [u64; 2], SimDuration)> {
        let op = checkpoint_op(dirty);
        let sc = SpanCtx::new(&self.ctx, req_id, op, model);
        let lock = self.model_lock(model);
        let _guard = lock.lock();
        let t_op = self.ctx.clock.now();
        let mut mi = self.lookup(model, Some(&sc))?;
        let descs = self
            .sessions
            .lock()
            .get(model)
            .cloned()
            .ok_or_else(|| PortusError::ModelNotFound(model.to_string()))?;
        let mask_len = dirty.map_or(descs.len(), <[bool]>::len);
        if descs.len() != mi.tensors.len() || mask_len != mi.tensors.len() {
            return Err(PortusError::StructureMismatch(format!(
                "{model}: session {} / dirty {mask_len} tensors vs index {}",
                descs.len(),
                mi.tensors.len()
            )));
        }
        let prev_hdr = mi.latest_done().map(|(_, h)| h);
        let target = mi.target_slot();
        let lineage = self.lineage.lock().get(&mi.offset).cloned();
        // After a restore of an older version the GPU no longer matches
        // the previous version, whatever the mask says: the new version
        // counts every tensor as changed.
        let rewound = matches!(lineage, Some(Lineage::PullAll));
        let pull = pull_mask(&mi, lineage.as_ref(), dirty);
        // The seal starts from the sealed digest of every tensor left in
        // place (the rule held, so the lineage has one per tensor).
        let sealed: &[u64] = match &lineage {
            Some(Lineage::Delta { digests, .. }) => digests,
            _ => &[],
        };
        let digests: Vec<u64> = (0..pull.len())
            .map(|i| if pull[i] { 0 } else { sealed[i] })
            .collect();

        // Validate the session and split the tensors into posted pull
        // runs BEFORE the slot is touched: a rejected request must leave
        // both slot headers exactly as they were. Gaps left by tensors
        // in place break runs, so only genuinely adjacent pulls
        // coalesce.
        let (mut pulled, mut reused) = (0u64, 0u64);
        let mut verbs = Vec::new();
        for (tensor, (rec, desc)) in mi.tensors.iter().zip(&descs).enumerate() {
            if desc.meta() != rec.meta {
                return Err(PortusError::StructureMismatch(format!(
                    "{model}: registered tensor {} does not match index",
                    desc.name
                )));
            }
            let len = rec.meta.size_bytes();
            if !pull[tensor] {
                reused += len;
                continue;
            }
            verbs.push(TensorVerb {
                rel_off: rec.rel_off,
                len,
                rkey: desc.rkey,
                tensor,
            });
            pulled += len;
        }
        sc.record_now(Stage::Validate, t_op);

        let t_build = self.ctx.clock.now();
        let runs = coalesce_runs(&verbs, PULL_WQE_BYTES, &[]);
        sc.record_now(Stage::WqeBuild, t_build);

        // On a dedup namespace the target slot may hold the older
        // version as an extent map; drop those references *before* the
        // slot is activated, so the rollback target (`pre`) never
        // carries an extent map and a failed pull cannot strand one.
        if mi.slots[target].ext_map != 0 {
            crate::dedup::release_slot_extents(&self.index, &mut mi, target)?;
        }
        // Max over *both* headers, not `latest_done`: a collapsed or
        // reverted slot keeps its issued version as a high-water mark,
        // so a number handed to a failed checkpoint is never reused.
        let version = mi.next_version();
        // Re-attach a data region if the repacker reclaimed this slot.
        // The returned header doubles as the rollback target: captured
        // after region attachment (a fresh region is kept on failure)
        // but before activation.
        let hdr = self.ensure_region_or_reclaim(&mut mi, target)?;
        self.index.mark_slot_active(&mi, target, version)?;

        let ctx = &self.ctx;
        let t0 = ctx.clock.now();
        // The zero-copy pulls, GPU → PMem: coalesced gather WQEs posted
        // under one doorbell per QP stripe, completions drained off the
        // CQs, failed WQEs retried per run on their own lane.
        let region = [SlotPiece {
            dev_off: hdr.data_off,
            rel_off: 0,
            len: hdr.data_len,
        }];
        let outcome = match self.execute_runs(pool, &runs, &region, Verb::Read, &sc) {
            Ok(outcome) => outcome,
            Err(fail) => {
                self.rollback_best_effort(&mi, target, hdr, fail.any_succeeded);
                return Err(fail.into_error(&mi, &runs, op.name()));
            }
        };
        // RDMA landed in the DDIO domain; make it durable (Wei et al.),
        // digest, and flip to Done, pipelining per-run persist+digest
        // work against the transfers themselves.
        let mut pieces = pull_pieces(&runs, &outcome, ctx.clock.now());
        // Dedup tier: the extent seal replaces the plain one; if its
        // pass fails, the plain seal runs after it on the clock.
        let extent_sealed = self
            .cfg
            .dedup
            .as_ref()
            .is_some_and(|dcfg| self.extent_seal(&mut mi, target, version, dcfg, &sc));
        let digests = if extent_sealed {
            Vec::new()
        } else {
            if self.cfg.dedup.is_some() {
                let now = ctx.clock.now();
                pieces
                    .iter_mut()
                    .for_each(|p| p.arrival = p.arrival.max(now));
            }
            // On a seal error the slot rolls back to `hdr`, its
            // pre-activation header (bytes definitely landed), and the
            // seal's error is what the client sees.
            self.seal_slot_pipelined(&mi, target, hdr, digests, pieces, &sc)
                .inspect_err(|_| self.rollback_best_effort(&mi, target, hdr, true))?
        };
        ctx.stats.record_reuse(reused);
        {
            // A full pull, like a first version, leaves no lineage.
            let mut lineage = self.lineage.lock();
            match (prev_hdr, dirty) {
                (Some(ph), Some(mask)) => lineage.insert(
                    mi.offset,
                    Lineage::Delta {
                        version,
                        base: ph.version,
                        changed: mask.iter().map(|&d| d || rewound).collect(),
                        digests,
                    },
                ),
                _ => lineage.remove(&mi.offset),
            };
        }
        let elapsed = ctx.clock.now().saturating_since(t0);
        sc.record_now(Stage::Total, t_op);
        Ok((version, [pulled, reused], elapsed))
    }

    pub(crate) fn restore(
        &self,
        pool: &QpPool,
        model: &str,
        descs: &[TensorDesc],
        version: Option<u64>,
        req_id: u64,
    ) -> PortusResult<(u64, u64, SimDuration)> {
        let sc = SpanCtx::new(&self.ctx, req_id, TraceOp::Restore, model);
        let lock = self.model_lock(model);
        let _guard = lock.lock();
        let t_op = self.ctx.clock.now();
        let mi = self.lookup(model, Some(&sc))?;
        // Version-pinned restores let a replicated client settle every
        // replica on one common checkpoint even when some daemons hold
        // a newer version in their other slot.
        let (_, hdr) = match version {
            None => mi.latest_done(),
            Some(v) => mi.done_version(v),
        }
        .ok_or_else(|| PortusError::NoValidCheckpoint(model.to_string()))?;
        let older_than_latest = mi.latest_done().map(|(_, h)| h.version) != Some(hdr.version);
        if descs.len() != mi.tensors.len() {
            return Err(PortusError::StructureMismatch(format!(
                "{model}: restore registered {} tensors, index has {}",
                descs.len(),
                mi.tensors.len()
            )));
        }
        let mut verbs = Vec::with_capacity(mi.tensors.len());
        for (tensor, (rec, desc)) in mi.tensors.iter().zip(descs).enumerate() {
            if desc.meta() != rec.meta {
                return Err(PortusError::StructureMismatch(format!(
                    "{model}: restore tensor {} does not match index",
                    desc.name
                )));
            }
            verbs.push(TensorVerb {
                rel_off: rec.rel_off,
                len: rec.meta.size_bytes(),
                rkey: desc.rkey,
                tensor,
            });
        }
        // Validate covers the index/descriptor reconciliation only; it
        // is recorded before the (separately staged) checksum pass so
        // the two spans do not overlap in the trace.
        sc.record_now(Stage::Validate, t_op);

        // The version is verified and pushed where it lies: one piece
        // for a plain slot, one per extent for an extent-mapped one. The
        // model lock is held, and the slot holds a reference on each of
        // its extents, so no repack sweep can free one mid-push. Its
        // digest must equal the one the header was sealed with.
        let pieces = self.index.slot_pieces(&hdr, 0, mi.total_bytes)?;
        let t_sum = self.ctx.clock.now();
        let digest = self.index.pieces_digest(&pieces)?;
        self.ctx.charge(self.ctx.model.dax_read(mi.total_bytes));
        sc.record_now(Stage::Checksum, t_sum);
        if digest != hdr.digest {
            return Err(PortusError::ChecksumMismatch {
                model: model.to_string(),
                version: hdr.version,
            });
        }

        let t_build = self.ctx.clock.now();
        let runs = coalesce_runs(&verbs, u64::MAX, &pieces);
        sc.record_now(Stage::WqeBuild, t_build);

        if older_than_latest {
            // The push rewinds the GPU past the latest version.
            self.lineage.lock().insert(mi.offset, Lineage::PullAll);
        }
        let t0 = self.ctx.clock.now();
        // One-sided WRITEs, PMem → GPU: coalesced scatter WQEs under
        // one doorbell, no client CPU involvement. A terminal push
        // failure touches no slot state — the stored version stays
        // `Done` and a later restore can try again.
        self.execute_runs(pool, &runs, &pieces, Verb::Write, &sc)
            .map_err(|fail| fail.into_error(&mi, &runs, "restore"))?;
        let elapsed = self.ctx.clock.now().saturating_since(t0);
        sc.record_now(Stage::Total, t_op);
        Ok((hdr.version, mi.total_bytes, elapsed))
    }

    pub(crate) fn mark_complete(&self, model: &str) -> PortusResult<()> {
        // Slot flags may not change under a concurrent checkpoint of
        // the same model: take the model lock like every other mutator.
        let lock = self.model_lock(model);
        let _guard = lock.lock();
        let mi = self.lookup(model, None)?;
        self.index.set_job_complete(&mi)
    }

    pub(crate) fn drop_model(&self, model: &str) -> PortusResult<()> {
        {
            let lock = self.model_lock(model);
            let _guard = lock.lock();
            let off = self
                .resolve_model(model)?
                .ok_or_else(|| PortusError::ModelNotFound(model.to_string()))?;
            self.index.remove_model_at(model, off)?;
            self.lineage.lock().remove(&off);
            match self.catalog() {
                Some(cat) => {
                    cat.remove(self.index.allocator(), model)?;
                }
                None => {
                    self.map.lock().remove(model);
                }
            }
            self.sessions.lock().remove(model);
        }
        // Reap the per-model lock entry, or a long-lived multi-tenant
        // daemon grows `model_locks` without bound. Holding the
        // `model_locks` mutex means nobody can clone the Arc
        // concurrently, so a strong count of 1 (the map's own
        // reference) proves no waiter holds it; leave it for a
        // contending thread to observe `ModelNotFound` otherwise.
        let mut locks = self.model_locks.lock();
        if let Some(l) = locks.get(model) {
            if Arc::strong_count(l) == 1 {
                locks.remove(model);
            }
        }
        Ok(())
    }

    pub(crate) fn list_models(&self) -> PortusResult<Vec<ModelSummary>> {
        let offsets: Vec<(String, u64)> = match self.catalog() {
            Some(cat) => cat.scan()?,
            None => self
                .map
                .lock()
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
        };
        let mut out = Vec::with_capacity(offsets.len());
        for (name, off) in offsets {
            let mi = self.index.load_mindex(off)?;
            out.push(ModelSummary {
                name,
                layers: mi.tensors.len() as u32,
                bytes: mi.total_bytes,
                latest_version: mi.latest_done().map(|(_, s)| s.version),
                valid_versions: mi.valid_versions(),
                done_versions: mi.done_versions(),
                complete: mi.flags & crate::FLAG_JOB_COMPLETE != 0,
            });
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portus_pmem::PmemMode;
    use portus_sim::{CostModel, MemoryKind};

    const MIB: u64 = 1 << 20;

    /// Adjacent tensors of the given sizes, starting at slot offset 0.
    fn adjacent(sizes: &[u64]) -> Vec<TensorVerb> {
        let mut rel_off = 0;
        sizes
            .iter()
            .enumerate()
            .map(|(i, &len)| {
                let v = TensorVerb {
                    rel_off,
                    len,
                    rkey: 100 + i as u64,
                    tensor: i,
                };
                rel_off += len;
                v
            })
            .collect()
    }

    /// Checks that `runs` tile `verbs` exactly once, in order: walking
    /// every segment of every run visits each tensor's bytes front to
    /// back, and each run's segments are packed from its `base_rel`.
    fn assert_tiles(verbs: &[TensorVerb], runs: &[VerbRun]) {
        // Every segment as (slot offset, segment, its tensor).
        let mut segs = Vec::new();
        for r in runs {
            assert_eq!(r.segs.len(), r.tensors.len(), "one tensor per segment");
            let mut at = r.base_rel;
            for (s, &t) in r.segs.iter().zip(&r.tensors) {
                segs.push((at, *s, t));
                at += s.len;
            }
            assert_eq!(at, r.base_rel + r.len, "run length is its segments'");
        }
        let mut next = segs.into_iter();
        for v in verbs {
            let mut done = 0;
            loop {
                let (at, s, t) = next.next().expect("tensor bytes left untiled");
                assert_eq!(s.rkey, v.rkey, "segments follow tensor order");
                assert_eq!(t, v.tensor, "the segment names its tensor");
                assert_eq!(s.offset, done, "segment resumes where the last stopped");
                assert_eq!(at, v.rel_off + done, "segment lands at its slot offset");
                done += s.len;
                if done == v.len {
                    break;
                }
            }
        }
        assert!(next.next().is_none(), "no segment beyond the tensors");
    }

    #[test]
    fn pull_runs_tile_every_tensor_under_both_caps() {
        let mut sizes = vec![4096, 9 * MIB + 123, 3 * MIB, 0, 2 * MIB, PULL_WQE_BYTES];
        sizes.extend(std::iter::repeat_n(4096, 3 * MAX_SGE));
        let verbs = adjacent(&sizes);
        let runs = coalesce_runs(&verbs, PULL_WQE_BYTES, &[]);
        assert_tiles(&verbs, &runs);
        for r in &runs {
            assert!(r.len <= PULL_WQE_BYTES, "{r:?} exceeds the byte cap");
            assert!(r.segs.len() <= MAX_SGE, "{r:?} exceeds MAX_SGE");
        }
        // The 9 MiB tensor spans three WQEs and is named in each. Past
        // the room its first piece filled, it is cut into near-equal
        // pieces, not cap-sized ones plus a runt.
        let pieces: Vec<u64> = runs
            .iter()
            .flat_map(|r| &r.segs)
            .filter(|s| s.rkey == 101)
            .map(|s| s.len)
            .collect();
        assert_eq!(pieces.len(), 3);
        assert!(pieces[1].abs_diff(pieces[2]) <= 1, "{pieces:?}");
        // The small tail is capped by segments, not bytes.
        assert!(runs
            .iter()
            .any(|r| r.segs.len() == MAX_SGE && r.len < PULL_WQE_BYTES));
    }

    #[test]
    fn a_gap_breaks_a_run_and_a_zero_length_tensor_keeps_its_segment() {
        let mut verbs = adjacent(&[4096, 0, 4096, 4096]);
        verbs[3].rel_off += 4096; // a clean tensor skipped before t3
        let runs = coalesce_runs(&verbs, PULL_WQE_BYTES, &[]);
        assert_tiles(&verbs, &runs);
        assert_eq!(runs.len(), 2, "the gap breaks the run: {runs:?}");
        assert_eq!(runs[0].tensors, [0, 1, 2]);
        assert_eq!(runs[0].segs[1].len, 0);
        assert_eq!(runs[1].base_rel, 3 * 4096);

        // A zero-length tensor right after a full run still joins it.
        let verbs = adjacent(&[PULL_WQE_BYTES, 0, 4096]);
        let runs = coalesce_runs(&verbs, PULL_WQE_BYTES, &[]);
        assert_tiles(&verbs, &runs);
        assert_eq!(runs[0].tensors, [0, 1]);
        assert_eq!(runs[1].tensors, [2]);
    }

    #[test]
    fn uncapped_push_runs_never_split_a_tensor() {
        let verbs = adjacent(&[9 * MIB, 5 * MIB, 4096]);
        let runs = coalesce_runs(&verbs, u64::MAX, &[]);
        assert_tiles(&verbs, &runs);
        assert_eq!(runs.len(), 1);
        assert_eq!(runs[0].segs.len(), 3);
    }

    #[test]
    fn push_runs_never_cross_a_piece_end() {
        const KIB: u64 = 1 << 10;
        // 3 x 96 KiB and a trailing empty tensor over five extent-sized
        // pieces, scattered on the device.
        let verbs = adjacent(&[96 * KIB, 96 * KIB, 96 * KIB, 0]);
        let pieces: Vec<SlotPiece> = (0..5)
            .map(|i| SlotPiece {
                dev_off: (9 - i) * MIB,
                rel_off: i * 64 * KIB,
                len: (64 * KIB).min(288 * KIB - i * 64 * KIB),
            })
            .collect();
        let runs = coalesce_runs(&verbs, u64::MAX, &pieces);
        assert_tiles(&verbs, &runs);
        let spans: Vec<(u64, u64)> = runs.iter().map(|r| (r.base_rel, r.len)).collect();
        assert_eq!(
            spans,
            [
                (0, 64 * KIB),
                (64 * KIB, 64 * KIB),
                (128 * KIB, 64 * KIB),
                (192 * KIB, 64 * KIB),
                (256 * KIB, 32 * KIB)
            ]
        );
        assert_eq!(runs[1].tensors, [0, 1]);
        assert_eq!(
            runs[4].tensors,
            [2, 3],
            "the empty tensor joins the last run"
        );
        for r in &runs {
            let p = piece_at(&pieces, r.base_rel).unwrap();
            assert!(
                r.base_rel + r.len <= p.rel_off + p.len,
                "{r:?} crosses {p:?}"
            );
        }
    }

    /// A model of four 4 KiB tensors whose latest version 2 (slot 1,
    /// digest `latest_digest`) is a delta over version 1, which the
    /// target slot 0 still holds as a plain region.
    fn two_generations(latest_digest: u64) -> MIndex {
        let slot = |version, data_off, digest| SlotHeader {
            state: SlotState::Done,
            version,
            data_off,
            data_len: 4 * 4096,
            digest,
            ext_map: 0,
        };
        MIndex {
            offset: 4096,
            name: "m".into(),
            flags: 0,
            total_bytes: 4 * 4096,
            tensors: (0..4)
                .map(|i| crate::TensorRecord {
                    meta: portus_dnn::TensorMeta::new(
                        format!("t{i}"),
                        portus_dnn::DType::F32,
                        vec![1024],
                    ),
                    rel_off: i * 4096,
                })
                .collect(),
            slots: [slot(1, 1 << 20, 7), slot(2, 2 << 20, latest_digest)],
        }
    }

    fn delta_lineage(digests: Vec<u64>) -> Lineage {
        Lineage::Delta {
            version: 2,
            base: 1,
            changed: vec![true, false, false, false],
            digests,
        }
    }

    #[test]
    fn clean_tensors_stay_in_place_when_the_sealed_digests_sum_to_the_header() {
        let mi = two_generations(100);
        let lineage = delta_lineage(vec![10, 20, 30, 40]);
        let dirty = [false, false, true, false];
        assert_eq!(
            pull_mask(&mi, Some(&lineage), Some(&dirty)),
            [true, false, true, false],
            "the previous delta's and this delta's dirty tensors are pulled"
        );
    }

    #[test]
    fn a_lineage_whose_digests_do_not_sum_to_the_header_pulls_every_tensor() {
        let mi = two_generations(101);
        let lineage = delta_lineage(vec![10, 20, 30, 40]);
        let dirty = [false, false, true, false];
        assert_eq!(pull_mask(&mi, Some(&lineage), Some(&dirty)), [true; 4]);
    }

    #[test]
    fn a_lineage_of_the_wrong_length_pulls_every_tensor() {
        let dirty = [false, false, true, false];
        for digests in [vec![], vec![30, 30, 40], vec![10, 20, 30, 40, 0]] {
            let mi = two_generations(100);
            let lineage = delta_lineage(digests.clone());
            assert_eq!(
                pull_mask(&mi, Some(&lineage), Some(&dirty)),
                [true; 4],
                "{digests:?}"
            );
        }
    }

    /// The derivation behind [`PULL_WQE_BYTES`]: at the calibrated
    /// profile one chunk's seal — the device's real flush + fence cost
    /// over a dirty chunk plus its DAX read-back — finishes before the
    /// next chunk's pull does, so on one QP the seal keeps pace with the
    /// fabric and only the last chunk's seal is exposed.
    #[test]
    fn one_chunk_seal_is_cheaper_than_one_chunk_pull() {
        let ctx = SimContext::icdcs24();
        let model = CostModel::icdcs24();
        let dev = PmemDevice::new(ctx, PmemMode::DevDax, 2 * PULL_WQE_BYTES);
        dev.write(0, &vec![7u8; PULL_WQE_BYTES as usize]).unwrap();
        let persist = dev.persist_deferred(&[(0, PULL_WQE_BYTES)]).unwrap();
        let seal = persist + model.dax_read(PULL_WQE_BYTES);
        let pull = model.rdma_read(PULL_WQE_BYTES, MemoryKind::GpuHbm, false);
        assert!(
            seal < pull,
            "one chunk's seal {seal:?} must hide under one chunk's pull {pull:?}"
        );
    }

    /// A handler panic on a pool job turns into a typed error for its
    /// request, and the (only) dispatch worker goes on to run the next
    /// job.
    #[test]
    fn a_panicking_handler_replies_with_an_error_and_the_worker_lives_on() {
        let dispatcher = Dispatcher::new(1, 4, Metrics::new());
        let (tx, rx) = std::sync::mpsc::channel();
        for (req_id, panics) in [(7u64, true), (8, false)] {
            let tx = tx.clone();
            let job: Job = Box::new(move || {
                let result = catch_handler_panic(Request::List { req_id }.kind(), || {
                    if panics {
                        panic!("handler {req_id} failed");
                    }
                    Ok(Done::Ack)
                });
                tx.send(Reply { req_id, result }).unwrap();
            });
            assert!(matches!(
                dispatcher.dispatch(job, JobClass::Urgent, None),
                DispatchOutcome::Queued
            ));
        }
        let wait = Duration::from_secs(10);
        match rx.recv_timeout(wait).unwrap() {
            Reply {
                req_id: 7,
                result: Err(PortusError::HandlerPanicked { request, message }),
            } => {
                assert_eq!(request, "list");
                assert_eq!(message, "handler 7 failed");
            }
            other => panic!("expected HandlerPanicked for request 7, got {other:?}"),
        }
        assert!(matches!(
            rx.recv_timeout(wait).unwrap(),
            Reply {
                req_id: 8,
                result: Ok(Done::Ack),
            }
        ));
        dispatcher.shutdown();
    }
}
