//! Datapath counters used to assert the zero-copy / zero-crossing claims.
//!
//! The paper's core claim is structural: Portus performs *one* data
//! movement per tensor (a one-sided RDMA read from GPU memory into PMem),
//! *zero* serializer invocations, and *zero* kernel crossings, whereas the
//! traditional datapath performs three copies and three crossings
//! (Fig. 3/5). Every simulated device increments these counters, so tests
//! can assert the structural claim, not just the timing claim.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// Thread-safe datapath counters. Cloning shares the underlying counters.
#[derive(Debug, Clone, Default)]
pub struct Stats {
    inner: Arc<StatsInner>,
}

#[derive(Debug, Default)]
struct StatsInner {
    data_copies: AtomicU64,
    bytes_copied: AtomicU64,
    kernel_crossings: AtomicU64,
    serializations: AtomicU64,
    deserializations: AtomicU64,
    rdma_one_sided_ops: AtomicU64,
    rdma_two_sided_ops: AtomicU64,
    bytes_over_network: AtomicU64,
    control_messages: AtomicU64,
    pmem_flushes: AtomicU64,
    pmem_fences: AtomicU64,
    posted_verbs: AtomicU64,
    doorbell_batches: AtomicU64,
    coalesced_verbs: AtomicU64,
    coalesced_bytes: AtomicU64,
    failed_verbs: AtomicU64,
    retried_verbs: AtomicU64,
    rolled_back_slots: AtomicU64,
    oos_recoveries: AtomicU64,
    reused_bytes: AtomicU64,
}

/// A point-in-time snapshot of [`Stats`], suitable for diffing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StatsSnapshot {
    /// Number of bulk data movements (memcpy, DMA, RDMA payload, device
    /// write). One *logical* movement per call site.
    pub data_copies: u64,
    /// Total bytes moved by those copies.
    pub bytes_copied: u64,
    /// User/kernel mode crossings.
    pub kernel_crossings: u64,
    /// Serializer invocations (torch.save-style container encodes).
    pub serializations: u64,
    /// Deserializer invocations.
    pub deserializations: u64,
    /// One-sided RDMA verbs (READ/WRITE) executed.
    pub rdma_one_sided_ops: u64,
    /// Two-sided RDMA operations (SEND/RECV pairs) executed.
    pub rdma_two_sided_ops: u64,
    /// Bytes that traversed the fabric.
    pub bytes_over_network: u64,
    /// Control-channel messages exchanged.
    pub control_messages: u64,
    /// Cache-line flushes issued against PMem.
    pub pmem_flushes: u64,
    /// Persistence fences issued against PMem.
    pub pmem_fences: u64,
    /// Work-queue entries posted through the asynchronous posted-verb
    /// interface (one per WQE, not per tensor: a coalesced gather WQE
    /// counts once).
    pub posted_verbs: u64,
    /// Doorbell batches rung: groups of posted verbs that shared one
    /// full-latency doorbell (paper §III-D request batching).
    pub doorbell_batches: u64,
    /// Posted WQEs that carried more than one scatter/gather segment
    /// (coalesced runs of `rel_off`-contiguous tensors).
    pub coalesced_verbs: u64,
    /// Bytes moved by multi-segment (coalesced) WQEs.
    pub coalesced_bytes: u64,
    /// Posted work-queue entries that completed with an error (injected
    /// faults and genuine fabric failures alike).
    pub failed_verbs: u64,
    /// Failed WQEs that were re-posted by the daemon's datapath retry
    /// loop (one count per re-post, not per WQE).
    pub retried_verbs: u64,
    /// Checkpoint target slots rolled back (flag reverted or collapsed)
    /// after a datapath failure exhausted its retries.
    pub rolled_back_slots: u64,
    /// Checkpoints that first failed allocation with `OutOfSpace` and
    /// then succeeded after the automatic repack-and-retry.
    pub oos_recoveries: u64,
    /// Clean tensor bytes a delta checkpoint left in place in its target
    /// slot, because that slot's older version already held them:
    /// neither pulled nor persisted again.
    pub reused_bytes: u64,
}

impl Stats {
    /// Creates a fresh set of zeroed counters.
    pub fn new() -> Self {
        Stats::default()
    }

    /// Records one bulk data movement of `bytes`.
    pub fn record_copy(&self, bytes: u64) {
        self.inner.data_copies.fetch_add(1, Ordering::Relaxed);
        self.inner.bytes_copied.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records `n` user/kernel crossings.
    pub fn record_kernel_crossings(&self, n: u64) {
        self.inner.kernel_crossings.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one serializer invocation.
    pub fn record_serialization(&self) {
        self.inner.serializations.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one deserializer invocation.
    pub fn record_deserialization(&self) {
        self.inner.deserializations.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a one-sided RDMA verb moving `bytes`.
    pub fn record_one_sided(&self, bytes: u64) {
        self.inner
            .rdma_one_sided_ops
            .fetch_add(1, Ordering::Relaxed);
        self.inner
            .bytes_over_network
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records a two-sided RDMA exchange moving `bytes`.
    pub fn record_two_sided(&self, bytes: u64) {
        self.inner
            .rdma_two_sided_ops
            .fetch_add(1, Ordering::Relaxed);
        self.inner
            .bytes_over_network
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one control-channel message.
    pub fn record_control_message(&self) {
        self.inner.control_messages.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `lines` cache-line flushes.
    pub fn record_pmem_flushes(&self, lines: u64) {
        self.inner.pmem_flushes.fetch_add(lines, Ordering::Relaxed);
    }

    /// Records one persistence fence.
    pub fn record_pmem_fence(&self) {
        self.inner.pmem_fences.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one posted work-queue entry (WQE).
    pub fn record_posted_verb(&self) {
        self.inner.posted_verbs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one doorbell batch (a group of posted verbs sharing one
    /// full-latency doorbell).
    pub fn record_doorbell_batch(&self) {
        self.inner.doorbell_batches.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one multi-segment (coalesced) WQE moving `bytes`.
    pub fn record_coalesced(&self, bytes: u64) {
        self.inner.coalesced_verbs.fetch_add(1, Ordering::Relaxed);
        self.inner
            .coalesced_bytes
            .fetch_add(bytes, Ordering::Relaxed);
    }

    /// Records one posted WQE that completed with an error.
    pub fn record_failed_verb(&self) {
        self.inner.failed_verbs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one re-post of a previously failed WQE.
    pub fn record_retried_verb(&self) {
        self.inner.retried_verbs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one checkpoint slot rolled back after a datapath failure.
    pub fn record_rolled_back_slot(&self) {
        self.inner.rolled_back_slots.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one checkpoint saved by the automatic repack-and-retry
    /// after an `OutOfSpace` allocation failure.
    pub fn record_oos_recovery(&self) {
        self.inner.oos_recoveries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `bytes` of clean tensors a delta checkpoint left in place.
    pub fn record_reuse(&self, bytes: u64) {
        self.inner.reused_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Takes a snapshot of all counters.
    pub fn snapshot(&self) -> StatsSnapshot {
        let i = &self.inner;
        StatsSnapshot {
            data_copies: i.data_copies.load(Ordering::Relaxed),
            bytes_copied: i.bytes_copied.load(Ordering::Relaxed),
            kernel_crossings: i.kernel_crossings.load(Ordering::Relaxed),
            serializations: i.serializations.load(Ordering::Relaxed),
            deserializations: i.deserializations.load(Ordering::Relaxed),
            rdma_one_sided_ops: i.rdma_one_sided_ops.load(Ordering::Relaxed),
            rdma_two_sided_ops: i.rdma_two_sided_ops.load(Ordering::Relaxed),
            bytes_over_network: i.bytes_over_network.load(Ordering::Relaxed),
            control_messages: i.control_messages.load(Ordering::Relaxed),
            pmem_flushes: i.pmem_flushes.load(Ordering::Relaxed),
            pmem_fences: i.pmem_fences.load(Ordering::Relaxed),
            posted_verbs: i.posted_verbs.load(Ordering::Relaxed),
            doorbell_batches: i.doorbell_batches.load(Ordering::Relaxed),
            coalesced_verbs: i.coalesced_verbs.load(Ordering::Relaxed),
            coalesced_bytes: i.coalesced_bytes.load(Ordering::Relaxed),
            failed_verbs: i.failed_verbs.load(Ordering::Relaxed),
            retried_verbs: i.retried_verbs.load(Ordering::Relaxed),
            rolled_back_slots: i.rolled_back_slots.load(Ordering::Relaxed),
            oos_recoveries: i.oos_recoveries.load(Ordering::Relaxed),
            reused_bytes: i.reused_bytes.load(Ordering::Relaxed),
        }
    }
}

impl StatsSnapshot {
    /// Counter-wise difference `self - earlier`, saturating at zero.
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            data_copies: self.data_copies.saturating_sub(earlier.data_copies),
            bytes_copied: self.bytes_copied.saturating_sub(earlier.bytes_copied),
            kernel_crossings: self
                .kernel_crossings
                .saturating_sub(earlier.kernel_crossings),
            serializations: self.serializations.saturating_sub(earlier.serializations),
            deserializations: self
                .deserializations
                .saturating_sub(earlier.deserializations),
            rdma_one_sided_ops: self
                .rdma_one_sided_ops
                .saturating_sub(earlier.rdma_one_sided_ops),
            rdma_two_sided_ops: self
                .rdma_two_sided_ops
                .saturating_sub(earlier.rdma_two_sided_ops),
            bytes_over_network: self
                .bytes_over_network
                .saturating_sub(earlier.bytes_over_network),
            control_messages: self
                .control_messages
                .saturating_sub(earlier.control_messages),
            pmem_flushes: self.pmem_flushes.saturating_sub(earlier.pmem_flushes),
            pmem_fences: self.pmem_fences.saturating_sub(earlier.pmem_fences),
            posted_verbs: self.posted_verbs.saturating_sub(earlier.posted_verbs),
            doorbell_batches: self
                .doorbell_batches
                .saturating_sub(earlier.doorbell_batches),
            coalesced_verbs: self.coalesced_verbs.saturating_sub(earlier.coalesced_verbs),
            coalesced_bytes: self.coalesced_bytes.saturating_sub(earlier.coalesced_bytes),
            failed_verbs: self.failed_verbs.saturating_sub(earlier.failed_verbs),
            retried_verbs: self.retried_verbs.saturating_sub(earlier.retried_verbs),
            rolled_back_slots: self
                .rolled_back_slots
                .saturating_sub(earlier.rolled_back_slots),
            oos_recoveries: self.oos_recoveries.saturating_sub(earlier.oos_recoveries),
            reused_bytes: self.reused_bytes.saturating_sub(earlier.reused_bytes),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = Stats::new();
        s.record_copy(100);
        s.record_copy(28);
        s.record_kernel_crossings(3);
        s.record_serialization();
        s.record_one_sided(64);
        let snap = s.snapshot();
        assert_eq!(snap.data_copies, 2);
        assert_eq!(snap.bytes_copied, 128);
        assert_eq!(snap.kernel_crossings, 3);
        assert_eq!(snap.serializations, 1);
        assert_eq!(snap.rdma_one_sided_ops, 1);
        assert_eq!(snap.bytes_over_network, 64);
    }

    #[test]
    fn clones_share_counters() {
        let a = Stats::new();
        let b = a.clone();
        a.record_control_message();
        b.record_control_message();
        assert_eq!(a.snapshot().control_messages, 2);
    }

    #[test]
    fn since_diffs() {
        let s = Stats::new();
        s.record_copy(10);
        let before = s.snapshot();
        s.record_copy(5);
        s.record_pmem_flushes(4);
        s.record_pmem_fence();
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.data_copies, 1);
        assert_eq!(delta.bytes_copied, 5);
        assert_eq!(delta.pmem_flushes, 4);
        assert_eq!(delta.pmem_fences, 1);
    }

    #[test]
    fn datapath_phase_counters_accumulate() {
        let s = Stats::new();
        s.record_doorbell_batch();
        s.record_posted_verb();
        s.record_posted_verb();
        s.record_coalesced(4096);
        let before = s.snapshot();
        assert_eq!(before.posted_verbs, 2);
        assert_eq!(before.doorbell_batches, 1);
        assert_eq!(before.coalesced_verbs, 1);
        assert_eq!(before.coalesced_bytes, 4096);
        s.record_posted_verb();
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.posted_verbs, 1);
        assert_eq!(delta.doorbell_batches, 0);
    }

    #[test]
    fn failure_counters_accumulate() {
        let s = Stats::new();
        s.record_failed_verb();
        s.record_failed_verb();
        s.record_retried_verb();
        s.record_rolled_back_slot();
        let snap = s.snapshot();
        assert_eq!(snap.failed_verbs, 2);
        assert_eq!(snap.retried_verbs, 1);
        assert_eq!(snap.rolled_back_slots, 1);
        let before = snap;
        s.record_failed_verb();
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.failed_verbs, 1);
        assert_eq!(delta.retried_verbs, 0);
        assert_eq!(delta.rolled_back_slots, 0);
    }

    #[test]
    fn space_management_counters_accumulate() {
        let s = Stats::new();
        s.record_oos_recovery();
        s.record_reuse(4096);
        s.record_reuse(8192);
        let snap = s.snapshot();
        assert_eq!(snap.oos_recoveries, 1);
        assert_eq!(snap.reused_bytes, 12288);
        let before = snap;
        s.record_oos_recovery();
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.oos_recoveries, 1);
        assert_eq!(delta.reused_bytes, 0);
    }

    #[test]
    fn concurrent_updates_are_not_lost() {
        let s = Stats::new();
        std::thread::scope(|sc| {
            for _ in 0..8 {
                let s = s.clone();
                sc.spawn(move || {
                    for _ in 0..1000 {
                        s.record_copy(1);
                    }
                });
            }
        });
        assert_eq!(s.snapshot().data_copies, 8000);
        assert_eq!(s.snapshot().bytes_copied, 8000);
    }
}
