//! Posted verbs and completion queues.
//!
//! Real RDMA applications rarely block per verb: they *post* work
//! requests to a queue pair and later *poll* a completion queue.
//! [`PostedQueuePair`] wraps a [`QueuePair`] with exactly that shape —
//! posts return immediately with a work-request id; completions
//! (successes and errors alike) surface on [`CompletionQueue::poll`] in
//! posting order. The simulated transfer still happens eagerly under
//! the hood (the fabric is in-process), so posting N reads and polling
//! once is semantically the batched pull a production Portus daemon
//! would issue. Posting never advances the shared clock: each WQE is
//! scheduled on its QP's lane engines, and whoever drains the
//! completions advances the clock to the latest `end` it observed.
//!
//! Posts are **doorbell-batched**: all verbs posted between two
//! [`PostedQueuePair::begin_batch`] calls share one doorbell, so the
//! first pays the full per-verb base latency and the rest only the
//! per-WQE increment ([`portus_sim::CostModel::rdma_posted_verb_ns`]).
//! Each post ([`PostedQueuePair::post`]) coalesces up to
//! [`crate::MAX_SGE`] scatter/gather segments into a single WQE.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use portus_sim::SimTime;

use crate::{Completion, QueuePair, RdmaError, RegionTarget, SgEntry, Verb};

/// Identifier of one posted work request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WrId(pub u64);

/// The outcome of one posted work request.
#[derive(Debug, Clone)]
pub struct WorkCompletion {
    /// The id returned at post time.
    pub wr_id: WrId,
    /// The transfer result: a fabric [`Completion`] or the error that
    /// failed the request.
    pub result: Result<Completion, RdmaError>,
}

impl WorkCompletion {
    /// `true` when the work request succeeded.
    pub fn is_ok(&self) -> bool {
        self.result.is_ok()
    }

    /// The fabric-side `(start, end)` instants of a successful
    /// transfer, on the virtual clock. `None` for failed requests.
    ///
    /// Because the in-process fabric completes transfers eagerly at
    /// post time, a drain loop charges no virtual time of its own —
    /// span-based timing of the completion phase is instead derived
    /// from these fabric instants.
    pub fn fabric_span(&self) -> Option<(SimTime, SimTime)> {
        self.result.as_ref().ok().map(|c| (c.start, c.end))
    }
}

/// A completion queue shared between posters and pollers.
#[derive(Debug, Clone, Default)]
pub struct CompletionQueue {
    entries: Arc<Mutex<VecDeque<WorkCompletion>>>,
}

impl CompletionQueue {
    /// Creates an empty completion queue.
    pub fn new() -> CompletionQueue {
        CompletionQueue::default()
    }

    /// Drains up to `max` completions, oldest first.
    pub fn poll(&self, max: usize) -> Vec<WorkCompletion> {
        let mut q = self.entries.lock();
        let n = max.min(q.len());
        q.drain(..n).collect()
    }

    /// Completions currently waiting.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// `true` when no completions are waiting.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().is_empty()
    }

    fn push(&self, wc: WorkCompletion) {
        self.entries.lock().push_back(wc);
    }
}

/// A queue pair driven by posted work requests.
///
/// # Examples
///
/// ```
/// use portus_mem::{Buffer, MemorySegment};
/// use portus_rdma::{Access, CompletionQueue, Fabric, NodeId, PostedQueuePair,
///                   QueuePair, RegionTarget, SgEntry, Verb};
/// use portus_sim::{MemoryKind, SimContext};
///
/// let fabric = Fabric::new(SimContext::icdcs24());
/// let a = fabric.add_nic(NodeId(0));
/// let b = fabric.add_nic(NodeId(1));
/// let src = Buffer::new(MemoryKind::HostDram, MemorySegment::from_bytes(vec![1; 4096]));
/// let mr = a.register(RegionTarget::Buffer(src), Access::READ);
/// let (_qa, qb) = QueuePair::connect(a, b);
///
/// let cq = CompletionQueue::new();
/// let qp = PostedQueuePair::new(qb, cq.clone());
/// let dst = RegionTarget::Buffer(Buffer::new(
///     MemoryKind::HostDram, MemorySegment::zeroed(4096)));
/// let seg = SgEntry { rkey: mr.rkey(), offset: 0, len: 4096 };
/// qp.post(Verb::Read, &[seg], &dst, 0);
/// let done = cq.poll(16);
/// assert_eq!(done.len(), 1);
/// assert!(done[0].is_ok());
/// ```
#[derive(Debug)]
pub struct PostedQueuePair {
    qp: Arc<QueuePair>,
    cq: CompletionQueue,
    next_wr: Mutex<u64>,
    posted_in_batch: Mutex<u64>,
}

impl PostedQueuePair {
    /// Binds `qp`'s completions to `cq`. A fresh doorbell batch is open:
    /// the first post pays the full per-verb latency, follow-on posts
    /// ride the same doorbell until [`PostedQueuePair::begin_batch`].
    ///
    /// The queue pair may be shared (e.g. a daemon's per-client QP used
    /// by several worker threads). Posts schedule their WQEs on the
    /// QP's lane engines without advancing the shared clock, so
    /// several striped queue pairs can post from one instant and
    /// overlap on independent NIC engines; the driver advances the
    /// clock itself when it drains the round.
    pub fn new(qp: impl Into<Arc<QueuePair>>, cq: CompletionQueue) -> PostedQueuePair {
        PostedQueuePair {
            qp: qp.into(),
            cq,
            next_wr: Mutex::new(1),
            posted_in_batch: Mutex::new(0),
        }
    }

    fn fresh_wr(&self) -> WrId {
        let mut n = self.next_wr.lock();
        let id = WrId(*n);
        *n += 1;
        id
    }

    /// Rings the doorbell: ends the current batch, so the next post pays
    /// the full per-verb base latency again. Posts between two
    /// `begin_batch` calls share one doorbell and are discounted to
    /// [`portus_sim::CostModel::rdma_posted_verb_ns`] each after the
    /// first (paper §III-D request batching).
    pub fn begin_batch(&self) {
        *self.posted_in_batch.lock() = 0;
    }

    /// Accounts for one post; returns `true` when it opens a new batch.
    fn note_post(&self) -> bool {
        let ctx = self.qp.local_nic().ctx();
        let mut n = self.posted_in_batch.lock();
        let first = *n == 0;
        *n += 1;
        ctx.stats.record_posted_verb();
        if first {
            ctx.stats.record_doorbell_batch();
        }
        first
    }

    /// Posts one WQE of `verb` over `segs` (up to [`crate::MAX_SGE`]
    /// segments, the local side packed back to back in `local` from
    /// `local_off`) on the open doorbell batch; the outcome lands on the
    /// completion queue. Returns the work-request id immediately.
    pub fn post(&self, verb: Verb, segs: &[SgEntry], local: &RegionTarget, local_off: u64) -> WrId {
        let wr_id = self.fresh_wr();
        let first = self.note_post();
        let result = self.qp.post_wqe(verb, segs, local, local_off, first);
        if result.is_err() {
            self.qp.local_nic().ctx().stats.record_failed_verb();
        }
        self.cq.push(WorkCompletion { wr_id, result });
        wr_id
    }

    /// Posts a gather READ of `segs` into `dst` from `dst_off`.
    pub fn post_read_gather(&self, segs: &[SgEntry], dst: &RegionTarget, dst_off: u64) -> WrId {
        self.post(Verb::Read, segs, dst, dst_off)
    }

    /// Posts a scatter WRITE of `segs` sourced from `src` at `src_off`.
    pub fn post_write_scatter(&self, segs: &[SgEntry], src: &RegionTarget, src_off: u64) -> WrId {
        self.post(Verb::Write, segs, src, src_off)
    }

    /// The underlying queue pair (for two-sided messaging).
    pub fn qp(&self) -> &QueuePair {
        &self.qp
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Access, Fabric, NodeId};
    use portus_mem::{Buffer, MemorySegment};
    use portus_sim::{MemoryKind, SimContext};

    fn setup() -> (PostedQueuePair, CompletionQueue, u64, RegionTarget) {
        let fabric = Fabric::new(SimContext::icdcs24());
        let a = fabric.add_nic(NodeId(0));
        let b = fabric.add_nic(NodeId(1));
        let src = Buffer::new(
            MemoryKind::GpuHbm,
            MemorySegment::from_bytes(vec![3; 1 << 20]),
        );
        let mr = a.register(RegionTarget::Buffer(src), Access::READ);
        let (_qa, qb) = QueuePair::connect(a, b);
        let cq = CompletionQueue::new();
        let qp = PostedQueuePair::new(qb, cq.clone());
        let dst = RegionTarget::Buffer(Buffer::new(
            MemoryKind::HostDram,
            MemorySegment::zeroed(1 << 20),
        ));
        (qp, cq, mr.rkey(), dst)
    }

    /// A one-segment gather READ: `len` bytes at `remote_off` of `rkey`.
    fn post_one(
        qp: &PostedQueuePair,
        rkey: u64,
        remote_off: u64,
        dst: &RegionTarget,
        dst_off: u64,
        len: u64,
    ) -> WrId {
        let seg = SgEntry {
            rkey,
            offset: remote_off,
            len,
        };
        qp.post_read_gather(&[seg], dst, dst_off)
    }

    #[test]
    fn completions_arrive_in_posting_order() {
        let (qp, cq, rkey, dst) = setup();
        let ids: Vec<WrId> = (0..5)
            .map(|i| post_one(&qp, rkey, i * 1024, &dst, i * 1024, 1024))
            .collect();
        let done = cq.poll(16);
        assert_eq!(done.len(), 5);
        let polled: Vec<WrId> = done.iter().map(|w| w.wr_id).collect();
        assert_eq!(polled, ids);
        assert!(done.iter().all(WorkCompletion::is_ok));
        assert!(cq.is_empty());
    }

    #[test]
    fn poll_respects_the_batch_limit() {
        let (qp, cq, rkey, dst) = setup();
        for _ in 0..4 {
            post_one(&qp, rkey, 0, &dst, 0, 4096);
        }
        assert_eq!(cq.poll(3).len(), 3);
        assert_eq!(cq.len(), 1);
        assert_eq!(cq.poll(3).len(), 1);
    }

    #[test]
    fn failed_posts_complete_with_errors() {
        let (qp, cq, _rkey, dst) = setup();
        let id = post_one(&qp, 0xBAD, 0, &dst, 0, 64);
        let done = cq.poll(1);
        assert_eq!(done[0].wr_id, id);
        assert!(matches!(done[0].result, Err(RdmaError::InvalidRkey(0xBAD))));
    }

    #[test]
    fn doorbell_batches_are_counted_and_discounted() {
        let (qp, cq, rkey, dst) = setup();
        let ctx = qp.qp().local_nic().ctx().clone();
        let before = ctx.stats.snapshot();

        for i in 0..4u64 {
            post_one(&qp, rkey, i * 4096, &dst, i * 4096, 4096);
        }
        qp.begin_batch();
        for i in 0..4u64 {
            post_one(&qp, rkey, i * 4096, &dst, i * 4096, 4096);
        }
        let d = ctx.stats.snapshot().since(&before);
        assert_eq!(d.posted_verbs, 8);
        assert_eq!(d.doorbell_batches, 2);
        assert_eq!(d.rdma_one_sided_ops, 8, "single-segment posts stay 1:1");

        // Within a batch, follow-on verbs are cheaper than the opener.
        let done = cq.poll(16);
        let first = done[0].result.as_ref().unwrap();
        let second = done[1].result.as_ref().unwrap();
        assert!(second.end - second.start < first.end - first.start);
    }

    #[test]
    fn gather_posts_complete_on_the_cq() {
        let (qp, cq, rkey, dst) = setup();
        let segs = [
            SgEntry {
                rkey,
                offset: 0,
                len: 4096,
            },
            SgEntry {
                rkey,
                offset: 4096,
                len: 4096,
            },
        ];
        let id = qp.post_read_gather(&segs, &dst, 0);
        let done = cq.poll(4);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].wr_id, id);
        assert_eq!(done[0].result.as_ref().unwrap().bytes, 8192);
    }

    #[test]
    fn fabric_span_reports_transfer_instants() {
        let (qp, cq, rkey, dst) = setup();
        post_one(&qp, rkey, 0, &dst, 0, 4096);
        let bad = post_one(&qp, 0xBAD, 0, &dst, 0, 64);
        let done = cq.poll(4);
        let (start, end) = done[0].fabric_span().expect("success has a span");
        assert!(end > start);
        assert_eq!(done[1].wr_id, bad);
        assert!(done[1].fabric_span().is_none());
    }

    #[test]
    fn wr_ids_are_monotone() {
        let (qp, _cq, rkey, dst) = setup();
        let a = post_one(&qp, rkey, 0, &dst, 0, 64);
        let b = post_one(&qp, rkey, 0, &dst, 0, 64);
        assert!(b > a);
    }
}
