//! Queue pairs and verbs.
//!
//! The Portus datapath is two one-sided verbs ([`Verb`]): the daemon
//! READs each tensor out of GPU memory to checkpoint it and WRITEs it
//! back to restore it. The initiator names a remote region by rkey and
//! the fabric moves the bytes with **no involvement of the remote CPU**
//! — which is why the simulated remote side charges no compute time and
//! crosses no kernel boundary. Every one-sided entry point — the
//! gather/scatter WQEs [`QueuePair::read_gather`] /
//! [`QueuePair::write_scatter`], the blocking one-segment
//! [`QueuePair::read`] / [`QueuePair::write`], and
//! [`crate::PostedQueuePair`]'s posts — wraps one work-queue-entry core
//! that validates, copies, counts, prices and schedules.
//! [`QueuePair::send`] / [`QueuePair::recv`] are the two-sided channel
//! the BeeGFS baseline's RPC protocol runs over.

use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, Sender};
use portus_sim::{MemoryKind, SimDuration, SimTime};

use crate::mr::check_window;
use crate::{Nic, RdmaError, RdmaResult, RegionTarget};

/// Maximum scatter/gather segments one work-queue entry may carry —
/// the `max_sge` a ConnectX-class RNIC advertises for its WQE format.
pub const MAX_SGE: usize = 16;

/// The one-sided verb a work-queue entry carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// RDMA READ: remote segments → local region (the checkpoint pull).
    Read,
    /// RDMA WRITE: local region → remote segments (the restore push).
    Write,
}

/// One scatter/gather segment of a multi-segment work-queue entry:
/// `len` bytes at `offset` within the remote region `rkey`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SgEntry {
    /// Remote key of the region this segment touches.
    pub rkey: u64,
    /// Byte offset within that region.
    pub offset: u64,
    /// Segment length in bytes.
    pub len: u64,
}

/// The result of a completed verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Bytes transferred.
    pub bytes: u64,
    /// When the transfer started on the fabric (after queueing).
    pub start: SimTime,
    /// When the transfer completed.
    pub end: SimTime,
}

/// A reliable-connected queue pair between two NICs.
///
/// # Examples
///
/// See the crate-level docs for the full checkpoint-pull example.
#[derive(Debug)]
pub struct QueuePair {
    local: Arc<Nic>,
    remote: Arc<Nic>,
    lane: usize,
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
}

impl QueuePair {
    /// Connects a pair of QPs between `a` and `b`; returns the endpoint
    /// at `a` and the endpoint at `b`. The connection rides lane 0.
    pub fn connect(a: Arc<Nic>, b: Arc<Nic>) -> (QueuePair, QueuePair) {
        QueuePair::connect_lane(a, b, 0)
    }

    /// Connects a pair of QPs pinned to DMA-engine `lane` on both NICs
    /// (lanes wrap around each NIC's engine count, see
    /// [`Nic::engine`]). Striped connections open one QP per lane so
    /// their doorbell batches ride independent engines.
    pub fn connect_lane(a: Arc<Nic>, b: Arc<Nic>, lane: usize) -> (QueuePair, QueuePair) {
        let (tx_ab, rx_ab) = unbounded();
        let (tx_ba, rx_ba) = unbounded();
        (
            QueuePair {
                local: Arc::clone(&a),
                remote: Arc::clone(&b),
                lane,
                tx: tx_ab,
                rx: rx_ba,
            },
            QueuePair {
                local: b,
                remote: a,
                lane,
                tx: tx_ba,
                rx: rx_ab,
            },
        )
    }

    /// The NIC this endpoint posts from.
    pub fn local_nic(&self) -> &Arc<Nic> {
        &self.local
    }

    /// The DMA-engine lane this QP is pinned to (0 for unstriped QPs).
    pub fn lane(&self) -> usize {
        self.lane
    }

    /// Consults the initiating NIC's armed fault plan, if any. On an
    /// injected fault the verb transfers nothing but still charges the
    /// per-verb base latency (the DMA engine flushes the WQE with an
    /// error completion, it does not vanish for free).
    fn fault_check(&self) -> RdmaResult<()> {
        if let Some(plan) = self.local.fault_plan() {
            if let Some(seq) = plan.note_verb() {
                let ctx = self.local.ctx();
                ctx.charge(SimDuration::from_nanos(ctx.model.rdma_op_latency_ns));
                return Err(RdmaError::Injected(seq));
            }
        }
        Ok(())
    }

    /// Schedules `service` on both NICs' engines for this QP's lane
    /// **without advancing the shared clock**: the striped datapath
    /// posts WQEs on several lanes from one instant and advances the
    /// clock only when it drains the completions, which is what lets
    /// transfers on different engines overlap in virtual time.
    ///
    /// A transfer landing on an engine that is already busy (more QPs
    /// than engines, or several in-flight WQEs on one lane) pays the
    /// [`portus_sim::CostModel::nic_engine_contention`] arbitration
    /// penalty on top of the FIFO queueing delay itself. A caller that
    /// waits for each transfer always finds the engines idle.
    fn schedule(&self, service: SimDuration) -> (SimTime, SimTime) {
        let ctx = self.local.ctx();
        let now = ctx.clock.now();
        let local = self.local.engine(self.lane);
        let remote = self.remote.engine(self.lane);
        let contended = local.busy_until() > now || remote.busy_until() > now;
        let service = if contended {
            service + ctx.model.nic_engine_contention()
        } else {
            service
        };
        let g_local = local.schedule(now, service);
        let g_remote = remote.schedule(now, service);
        (
            g_local.start.max(g_remote.start),
            g_local.end.max(g_remote.end),
        )
    }

    /// The one-sided core: one work-queue entry of `verb` over `segs`
    /// (each naming a remote region), with the local side packed back
    /// to back in `local` from `local_off`.
    ///
    /// Every segment's rkey, access right and bounds, and the local
    /// window, are checked before any byte moves, so a WQE that fails
    /// validation transfers nothing. The verb is priced **once** for
    /// the summed byte count, so `n` small tensors ride one WQE at the
    /// large-message effective bandwidth instead of paying `n` per-verb
    /// latencies and `n` short-message ramps; with
    /// `first_in_batch == false` it also rides an earlier doorbell (see
    /// [`portus_sim::CostModel::rdma_read`]). A READ is BAR-capped if
    /// *any* segment reads GPU memory — the slowest source gates the DMA
    /// engine. The WQE is scheduled on this QP's lane engines (see
    /// `QueuePair::schedule`); the clock is not advanced.
    pub(crate) fn post_wqe(
        &self,
        verb: Verb,
        segs: &[SgEntry],
        local: &RegionTarget,
        local_off: u64,
        first_in_batch: bool,
    ) -> RdmaResult<Completion> {
        if segs.is_empty() {
            return Err(RdmaError::EmptySgList);
        }
        self.fault_check()?;
        let mrs = segs
            .iter()
            .map(|seg| {
                let mr = self.remote.lookup(seg.rkey)?;
                let (allowed, op) = match verb {
                    Verb::Read => (mr.access().remote_read, "remote read"),
                    Verb::Write => (mr.access().remote_write, "remote write"),
                };
                if !allowed {
                    return Err(RdmaError::AccessDenied { rkey: seg.rkey, op });
                }
                check_window(seg.offset, seg.len, mr.target().len())?;
                Ok(mr)
            })
            .collect::<RdmaResult<Vec<_>>>()?;
        let total: u64 = segs.iter().map(|s| s.len).sum();
        check_window(local_off, total, local.len())?;
        let mut off = local_off;
        for (seg, mr) in segs.iter().zip(&mrs) {
            match verb {
                Verb::Read => copy_between_targets(mr.target(), seg.offset, local, off, seg.len)?,
                Verb::Write => copy_between_targets(local, off, mr.target(), seg.offset, seg.len)?,
            }
            off += seg.len;
        }

        let remote_kind = if mrs.iter().any(|m| m.target().kind() == MemoryKind::GpuHbm) {
            MemoryKind::GpuHbm
        } else {
            mrs[0].target().kind()
        };
        let ctx = self.local.ctx();
        let service = match verb {
            Verb::Read => ctx.model.rdma_read(total, remote_kind, first_in_batch),
            Verb::Write => ctx.model.rdma_write(total, remote_kind, first_in_batch),
        };
        let (start, end) = self.schedule(service);
        // One *logical* data movement per tensor segment: the structural
        // zero-copy counters see through the WQE packing.
        for seg in segs {
            ctx.stats.record_one_sided(seg.len);
            ctx.stats.record_copy(seg.len);
        }
        if segs.len() > 1 {
            ctx.stats.record_coalesced(total);
        }
        Ok(Completion {
            bytes: total,
            start,
            end,
        })
    }

    /// Posts `len` bytes at `remote_off` of `rkey` as a one-segment WQE
    /// on its own doorbell and waits for it: the shared clock advances
    /// to its completion.
    fn post_and_wait(
        &self,
        verb: Verb,
        rkey: u64,
        remote_off: u64,
        local: &RegionTarget,
        local_off: u64,
        len: u64,
    ) -> RdmaResult<Completion> {
        let seg = SgEntry {
            rkey,
            offset: remote_off,
            len,
        };
        let c = self.post_wqe(verb, &[seg], local, local_off, true)?;
        self.local.ctx().clock.advance_to(c.end);
        Ok(c)
    }

    /// Blocking one-sided RDMA READ: pulls `len` bytes from the remote
    /// region `rkey` at `remote_off` into the local `dst` at `dst_off`.
    ///
    /// The effective bandwidth depends on what the remote bytes live in:
    /// reads out of GPU memory are BAR-capped at 5.8 GB/s (paper §V-B).
    ///
    /// # Errors
    ///
    /// [`RdmaError::InvalidRkey`] for unknown keys,
    /// [`RdmaError::AccessDenied`] if the region lacks remote-read
    /// permission, and bounds errors from either side.
    pub fn read(
        &self,
        rkey: u64,
        remote_off: u64,
        dst: &RegionTarget,
        dst_off: u64,
        len: u64,
    ) -> RdmaResult<Completion> {
        self.post_and_wait(Verb::Read, rkey, remote_off, dst, dst_off, len)
    }

    /// Blocking one-sided RDMA WRITE: pushes `len` bytes from the local
    /// `src` at `src_off` into the remote region `rkey` at `remote_off`.
    ///
    /// Writes into GPU memory are *not* BAR-capped (Fig. 10d). Writes
    /// into PMem land in the DDIO cache — volatile until the owner
    /// persists them.
    ///
    /// # Errors
    ///
    /// As [`QueuePair::read`], requiring remote-write permission.
    pub fn write(
        &self,
        rkey: u64,
        remote_off: u64,
        src: &RegionTarget,
        src_off: u64,
        len: u64,
    ) -> RdmaResult<Completion> {
        self.post_and_wait(Verb::Write, rkey, remote_off, src, src_off, len)
    }

    /// One-sided gather READ: one WQE that pulls every segment in `segs`
    /// into the local `dst`, packed back to back from `dst_off`. The
    /// clock is not advanced: the returned [`Completion`] carries the
    /// `(start, end)` window and the caller advances the clock once when
    /// it drains the whole posting round.
    ///
    /// # Errors
    ///
    /// [`RdmaError::EmptySgList`] for an empty segment list, otherwise
    /// as [`QueuePair::read`]; every segment is validated before any
    /// byte moves, so a failed WQE transfers nothing.
    pub fn read_gather(
        &self,
        segs: &[SgEntry],
        dst: &RegionTarget,
        dst_off: u64,
        first_in_batch: bool,
    ) -> RdmaResult<Completion> {
        self.post_wqe(Verb::Read, segs, dst, dst_off, first_in_batch)
    }

    /// One-sided scatter WRITE: one WQE that pushes bytes packed back to
    /// back in the local `src` (from `src_off`) out to every remote
    /// segment in `segs`; the clock is not advanced, as in
    /// [`QueuePair::read_gather`].
    ///
    /// # Errors
    ///
    /// [`RdmaError::EmptySgList`] for an empty segment list, otherwise
    /// as [`QueuePair::write`]; every segment is validated before any
    /// byte moves.
    pub fn write_scatter(
        &self,
        segs: &[SgEntry],
        src: &RegionTarget,
        src_off: u64,
        first_in_batch: bool,
    ) -> RdmaResult<Completion> {
        self.post_wqe(Verb::Write, segs, src, src_off, first_in_batch)
    }

    /// Two-sided SEND: delivers `payload` to the peer's receive queue
    /// using the RPC-over-RDMA protocol (rendezvous + remote CPU copy —
    /// the slower path the BeeGFS baseline uses). Blocking: the clock
    /// advances to the transfer's completion.
    ///
    /// # Errors
    ///
    /// [`RdmaError::Disconnected`] if the peer endpoint is gone.
    pub fn send(&self, payload: Vec<u8>) -> RdmaResult<Completion> {
        let ctx = self.local.ctx();
        let len = payload.len() as u64;
        let (start, end) = self.schedule(ctx.model.rpc_rdma_transfer(len));
        ctx.clock.advance_to(end);
        ctx.stats.record_two_sided(len);
        ctx.stats.record_copy(len);
        self.tx.send(payload).map_err(|_| RdmaError::Disconnected)?;
        Ok(Completion {
            bytes: len,
            start,
            end,
        })
    }

    /// Blocking receive of the next two-sided message.
    ///
    /// # Errors
    ///
    /// [`RdmaError::Disconnected`] if the peer endpoint is gone.
    pub fn recv(&self) -> RdmaResult<Vec<u8>> {
        self.rx.recv().map_err(|_| RdmaError::Disconnected)
    }

    /// Non-blocking receive; `Ok(None)` when no message is waiting.
    ///
    /// # Errors
    ///
    /// [`RdmaError::Disconnected`] if the peer endpoint is gone.
    pub fn try_recv(&self) -> RdmaResult<Option<Vec<u8>>> {
        use crossbeam::channel::TryRecvError;
        match self.rx.try_recv() {
            Ok(m) => Ok(Some(m)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => Err(RdmaError::Disconnected),
        }
    }
}

/// Chunked copy between two region targets.
fn copy_between_targets(
    src: &RegionTarget,
    src_off: u64,
    dst: &RegionTarget,
    dst_off: u64,
    len: u64,
) -> RdmaResult<()> {
    let mut buf = [0u8; 64 * 1024];
    let mut done = 0u64;
    while done < len {
        let chunk = ((len - done) as usize).min(buf.len());
        src.read_at(src_off + done, &mut buf[..chunk])?;
        dst.write_at(dst_off + done, &buf[..chunk])?;
        done += chunk as u64;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Access, Fabric, NodeId};
    use portus_mem::{Buffer, MemorySegment};
    use portus_pmem::{PmemDevice, PmemMode};
    use portus_sim::{MemoryKind, SimContext};

    fn two_nodes() -> (Fabric, Arc<Nic>, Arc<Nic>) {
        let fabric = Fabric::new(SimContext::icdcs24());
        let a = fabric.add_nic(NodeId(0));
        let b = fabric.add_nic(NodeId(1));
        (fabric, a, b)
    }

    /// `len` bytes that differ by position and by `seed`.
    fn patterned(len: u64, seed: u8) -> MemorySegment {
        MemorySegment::from_bytes((0..len).map(|i| (i % 251) as u8 ^ seed).collect())
    }

    #[test]
    fn one_sided_read_pulls_gpu_bytes_into_pmem() {
        let (fabric, compute, storage) = two_nodes();
        // "GPU" tensor on the compute node.
        let tensor = Buffer::new(MemoryKind::GpuHbm, patterned(1 << 20, 77));
        let mr = compute.register(RegionTarget::Buffer(tensor.clone()), Access::READ);
        // PMem window on the storage node.
        let pm = PmemDevice::new(fabric.ctx().clone(), PmemMode::DevDax, 1 << 21);
        let dst = RegionTarget::Pmem {
            dev: pm.clone(),
            base: 0,
            len: 1 << 20,
        };

        let (_at_compute, at_storage) = QueuePair::connect(compute, storage);
        let c = at_storage.read(mr.rkey(), 0, &dst, 0, 1 << 20).unwrap();
        assert_eq!(c.bytes, 1 << 20);
        assert_eq!(dst.checksum().unwrap(), tensor.checksum());
    }

    #[test]
    fn gpu_reads_are_slower_than_dram_reads() {
        let (fabric, a, b) = two_nodes();
        let len = 64 << 20;
        let gpu = Buffer::new(MemoryKind::GpuHbm, MemorySegment::zeroed(len));
        let dram = Buffer::new(MemoryKind::HostDram, MemorySegment::zeroed(len));
        let mr_gpu = a.register(RegionTarget::Buffer(gpu), Access::READ);
        let mr_dram = a.register(RegionTarget::Buffer(dram), Access::READ);
        let sink = RegionTarget::Buffer(Buffer::new(
            MemoryKind::HostDram,
            MemorySegment::zeroed(len),
        ));
        let (_qa, qb) = QueuePair::connect(a, b);
        let _ = fabric; // keep fabric alive
        let c_gpu = qb.read(mr_gpu.rkey(), 0, &sink, 0, len).unwrap();
        let c_dram = qb.read(mr_dram.rkey(), 0, &sink, 0, len).unwrap();
        let t_gpu = (c_gpu.end - c_gpu.start).as_secs_f64();
        let t_dram = (c_dram.end - c_dram.start).as_secs_f64();
        let ratio = t_gpu / t_dram;
        assert!(
            (ratio - 8.3 / 5.8).abs() < 0.1,
            "BAR cap ratio off: {ratio}"
        );
    }

    #[test]
    fn access_flags_are_enforced() {
        let (_f, a, b) = two_nodes();
        let buf = Buffer::new(MemoryKind::HostDram, MemorySegment::zeroed(64));
        let mr = a.register(RegionTarget::Buffer(buf), Access::READ);
        let scratch =
            RegionTarget::Buffer(Buffer::new(MemoryKind::HostDram, MemorySegment::zeroed(64)));
        let (_qa, qb) = QueuePair::connect(a, b);
        assert!(qb.read(mr.rkey(), 0, &scratch, 0, 64).is_ok());
        assert!(matches!(
            qb.write(mr.rkey(), 0, &scratch, 0, 64),
            Err(RdmaError::AccessDenied { .. })
        ));
    }

    #[test]
    fn invalid_rkey_is_rejected() {
        let (_f, a, b) = two_nodes();
        let scratch =
            RegionTarget::Buffer(Buffer::new(MemoryKind::HostDram, MemorySegment::zeroed(64)));
        let (_qa, qb) = QueuePair::connect(a, b);
        assert!(matches!(
            qb.read(0xBAD, 0, &scratch, 0, 1),
            Err(RdmaError::InvalidRkey(0xBAD))
        ));
    }

    #[test]
    fn concurrent_transfers_serialize_on_the_nic() {
        let (f, a, b) = two_nodes();
        let len = 8 << 20;
        let buf = Buffer::new(MemoryKind::HostDram, MemorySegment::zeroed(len));
        let mr = a.register(RegionTarget::Buffer(buf), Access::READ);
        let sink = RegionTarget::Buffer(Buffer::new(
            MemoryKind::HostDram,
            MemorySegment::zeroed(len),
        ));
        let (_qa, qb) = QueuePair::connect(a, b);
        let c1 = qb.read(mr.rkey(), 0, &sink, 0, len).unwrap();
        let c2 = qb.read(mr.rkey(), 0, &sink, 0, len).unwrap();
        assert!(
            c2.start >= c1.end,
            "second transfer must queue behind first"
        );
        assert_eq!(f.ctx().stats.snapshot().rdma_one_sided_ops, 2);
    }

    #[test]
    fn deferred_posts_overlap_across_lanes_without_moving_the_clock() {
        let fabric = Fabric::new(SimContext::icdcs24());
        let a = fabric.add_nic_with_engines(NodeId(0), 2);
        let b = fabric.add_nic_with_engines(NodeId(1), 2);
        let len = 4 << 20;
        let buf = Buffer::new(MemoryKind::HostDram, MemorySegment::zeroed(len));
        let mr = a.register(RegionTarget::Buffer(buf), Access::READ);
        let sink = RegionTarget::Buffer(Buffer::new(
            MemoryKind::HostDram,
            MemorySegment::zeroed(len),
        ));
        let (_qa0, q0) = QueuePair::connect_lane(Arc::clone(&a), Arc::clone(&b), 0);
        let (_qa1, q1) = QueuePair::connect_lane(a, b, 1);
        assert_eq!(q1.lane(), 1);
        let before = fabric.ctx().clock.now();
        let seg = [SgEntry {
            rkey: mr.rkey(),
            offset: 0,
            len,
        }];
        let c0 = q0.read_gather(&seg, &sink, 0, true).unwrap();
        let c1 = q1.read_gather(&seg, &sink, 0, true).unwrap();
        assert_eq!(
            fabric.ctx().clock.now(),
            before,
            "deferred posts must not advance the shared clock"
        );
        assert_eq!(c0.start, c1.start, "independent engines start together");
        assert_eq!(
            c0.end, c1.end,
            "equal transfers on idle engines overlap fully"
        );
    }

    #[test]
    fn oversubscribed_engines_queue_and_pay_contention() {
        let fabric = Fabric::new(SimContext::icdcs24());
        let a = fabric.add_nic(NodeId(0));
        let b = fabric.add_nic(NodeId(1));
        let len = 1 << 20;
        let buf = Buffer::new(MemoryKind::HostDram, MemorySegment::zeroed(len));
        let mr = a.register(RegionTarget::Buffer(buf), Access::READ);
        let sink = RegionTarget::Buffer(Buffer::new(
            MemoryKind::HostDram,
            MemorySegment::zeroed(len),
        ));
        // Two lanes, one engine: lane 1 wraps onto the same port.
        let (_qa0, q0) = QueuePair::connect_lane(Arc::clone(&a), Arc::clone(&b), 0);
        let (_qa1, q1) = QueuePair::connect_lane(a, b, 1);
        let seg = [SgEntry {
            rkey: mr.rkey(),
            offset: 0,
            len,
        }];
        let c0 = q0.read_gather(&seg, &sink, 0, true).unwrap();
        let c1 = q1.read_gather(&seg, &sink, 0, true).unwrap();
        assert_eq!(c1.start, c0.end, "second WQE queues behind the first");
        let base = c0.end - c0.start;
        let contended = c1.end - c1.start;
        assert_eq!(
            contended,
            base + fabric.ctx().model.nic_engine_contention(),
            "busy-engine post pays the arbitration penalty"
        );
    }

    #[test]
    fn gather_read_packs_segments_and_coalesces_the_charge() {
        let (fabric, a, b) = two_nodes();
        let seg_len = 64 * 1024u64;
        let t0 = Buffer::new(MemoryKind::GpuHbm, patterned(seg_len, 10));
        let t1 = Buffer::new(MemoryKind::GpuHbm, patterned(seg_len, 11));
        let mr0 = a.register(RegionTarget::Buffer(t0.clone()), Access::READ);
        let mr1 = a.register(RegionTarget::Buffer(t1.clone()), Access::READ);
        let dst = RegionTarget::Buffer(Buffer::new(
            MemoryKind::HostDram,
            MemorySegment::zeroed(2 * seg_len),
        ));
        let (_qa, qb) = QueuePair::connect(a, b);

        let before = fabric.ctx().stats.snapshot();
        let segs = [
            SgEntry {
                rkey: mr0.rkey(),
                offset: 0,
                len: seg_len,
            },
            SgEntry {
                rkey: mr1.rkey(),
                offset: 0,
                len: seg_len,
            },
        ];
        let c = qb.read_gather(&segs, &dst, 0, true).unwrap();
        let d = fabric.ctx().stats.snapshot().since(&before);

        assert_eq!(c.bytes, 2 * seg_len);
        assert_eq!(d.rdma_one_sided_ops, 2, "structural view: one per tensor");
        assert_eq!(d.coalesced_verbs, 1, "WQE view: one gather verb");
        assert_eq!(d.coalesced_bytes, 2 * seg_len);

        // Bytes landed back to back.
        let mut got = vec![0u8; seg_len as usize];
        dst.read_at(0, &mut got).unwrap();
        let mut want = vec![0u8; seg_len as usize];
        RegionTarget::Buffer(t0).read_at(0, &mut want).unwrap();
        assert_eq!(got, want);
        dst.read_at(seg_len, &mut got).unwrap();
        RegionTarget::Buffer(t1).read_at(0, &mut want).unwrap();
        assert_eq!(got, want);

        // One large verb beats two short ones: longer message amortizes
        // the ramp, and only one base latency is paid.
        let single = fabric
            .ctx()
            .model
            .rdma_read(seg_len, MemoryKind::GpuHbm, true);
        let coalesced = c.end - c.start;
        assert!(
            coalesced < single + single,
            "coalesced {:?} must beat 2x single {:?}",
            coalesced,
            single
        );
    }

    #[test]
    fn scatter_write_fans_bytes_back_out() {
        let (_f, a, b) = two_nodes();
        let seg_len = 4096u64;
        let d0 = Buffer::new(MemoryKind::GpuHbm, MemorySegment::zeroed(seg_len));
        let d1 = Buffer::new(MemoryKind::GpuHbm, MemorySegment::zeroed(seg_len));
        let mr0 = a.register(RegionTarget::Buffer(d0.clone()), Access::WRITE);
        let mr1 = a.register(RegionTarget::Buffer(d1.clone()), Access::WRITE);
        let src = RegionTarget::Buffer(Buffer::new(
            MemoryKind::HostDram,
            patterned(2 * seg_len, 21),
        ));
        let (_qa, qb) = QueuePair::connect(a, b);
        let segs = [
            SgEntry {
                rkey: mr0.rkey(),
                offset: 0,
                len: seg_len,
            },
            SgEntry {
                rkey: mr1.rkey(),
                offset: 0,
                len: seg_len,
            },
        ];
        let c = qb.write_scatter(&segs, &src, 0, true).unwrap();
        assert_eq!(c.bytes, 2 * seg_len);
        let mut got = vec![0u8; seg_len as usize];
        let mut want = vec![0u8; seg_len as usize];
        RegionTarget::Buffer(d1).read_at(0, &mut got).unwrap();
        src.read_at(seg_len, &mut want).unwrap();
        assert_eq!(got, want);
    }

    /// Posts one gather READ or scatter WRITE through the public entry
    /// points.
    fn wqe(
        qp: &QueuePair,
        verb: Verb,
        segs: &[SgEntry],
        local: &RegionTarget,
        local_off: u64,
    ) -> RdmaResult<Completion> {
        match verb {
            Verb::Read => qp.read_gather(segs, local, local_off, true),
            Verb::Write => qp.write_scatter(segs, local, local_off, true),
        }
    }

    fn contents(target: &RegionTarget) -> Vec<u8> {
        let mut out = vec![0u8; target.len() as usize];
        target.read_at(0, &mut out).unwrap();
        out
    }

    #[test]
    fn gather_read_validates_before_moving_bytes() {
        for verb in [Verb::Read, Verb::Write] {
            let (_f, a, b) = two_nodes();
            // The destination starts zeroed and the source patterned:
            // the remote region is the source of a READ, the local
            // region the source of a WRITE.
            let (remote_bytes, local_bytes) = match verb {
                Verb::Read => (patterned(4096, 5), MemorySegment::zeroed(8192)),
                Verb::Write => (MemorySegment::zeroed(4096), patterned(8192, 5)),
            };
            let remote = RegionTarget::Buffer(Buffer::new(MemoryKind::HostDram, remote_bytes));
            let mr = a.register(remote.clone(), Access::READ_WRITE);
            let local = RegionTarget::Buffer(Buffer::new(MemoryKind::HostDram, local_bytes));
            let (_qa, qb) = QueuePair::connect(a, b);
            let good = SgEntry {
                rkey: mr.rkey(),
                offset: 0,
                len: 4096,
            };
            // A second segment with an unknown rkey, or one running past
            // the end of its region.
            let bad = [
                (
                    SgEntry {
                        rkey: 0xBAD,
                        ..good
                    },
                    RdmaError::InvalidRkey(0xBAD),
                ),
                (
                    SgEntry { offset: 1, ..good },
                    RdmaError::OutOfBounds {
                        offset: 1,
                        len: 4096,
                        region_len: 4096,
                    },
                ),
            ];
            for (second, err) in bad {
                assert_eq!(wqe(&qb, verb, &[good, second], &local, 0), Err(err));
                // The whole WQE failed: nothing may have landed.
                let dst = match verb {
                    Verb::Read => &local,
                    Verb::Write => &remote,
                };
                assert!(
                    contents(dst)[..4096].iter().all(|&x| x == 0),
                    "{verb:?} moved bytes before validating"
                );
            }
            assert!(matches!(
                wqe(&qb, verb, &[], &local, 0),
                Err(RdmaError::EmptySgList)
            ));
        }
    }

    /// A blocking verb is a one-segment WQE on its own doorbell plus a
    /// clock advance to its completion: the same bytes, the same
    /// fabric window, the same clock afterwards and the same counters,
    /// for a GPU and a DRAM remote region, in both directions.
    #[test]
    fn blocking_verbs_are_one_segment_wqes_plus_a_clock_advance() {
        const LEN: u64 = 96 * 1024;
        for kind in [MemoryKind::GpuHbm, MemoryKind::HostDram] {
            for verb in [Verb::Read, Verb::Write] {
                let run = |blocking: bool| {
                    let (fabric, a, b) = two_nodes();
                    let remote = RegionTarget::Buffer(Buffer::new(kind, patterned(4 * LEN, 3)));
                    let mr = a.register(remote.clone(), Access::READ_WRITE);
                    let local = RegionTarget::Buffer(Buffer::new(
                        MemoryKind::HostDram,
                        patterned(2 * LEN, 9),
                    ));
                    let (_qa, qb) = QueuePair::connect(a, b);
                    let ctx = fabric.ctx();
                    let before = ctx.stats.snapshot();
                    let seg = SgEntry {
                        rkey: mr.rkey(),
                        offset: LEN,
                        len: LEN,
                    };
                    let c = if blocking {
                        match verb {
                            Verb::Read => qb.read(seg.rkey, seg.offset, &local, 512, seg.len),
                            Verb::Write => qb.write(seg.rkey, seg.offset, &local, 512, seg.len),
                        }
                        .unwrap()
                    } else {
                        let c = wqe(&qb, verb, &[seg], &local, 512).unwrap();
                        ctx.clock.advance_to(c.end);
                        c
                    };
                    (
                        c,
                        ctx.clock.now(),
                        ctx.stats.snapshot().since(&before),
                        contents(&remote),
                        contents(&local),
                    )
                };
                let (blocking, posted) = (run(true), run(false));
                assert!(blocking.0.end > blocking.0.start);
                assert_eq!(blocking, posted, "{verb:?} on {kind:?}");
            }
        }
    }

    #[test]
    fn two_sided_send_recv_delivers_payload() {
        let (f, a, b) = two_nodes();
        let (qa, qb) = QueuePair::connect(a, b);
        qa.send(b"DO_CHECKPOINT".to_vec()).unwrap();
        assert_eq!(qb.recv().unwrap(), b"DO_CHECKPOINT");
        assert_eq!(qb.try_recv().unwrap(), None);
        assert_eq!(f.ctx().stats.snapshot().rdma_two_sided_ops, 1);
    }

    #[test]
    fn disconnected_peer_errors() {
        let (_f, a, b) = two_nodes();
        let (qa, qb) = QueuePair::connect(a, b);
        drop(qb);
        assert!(matches!(qa.send(vec![1]), Err(RdmaError::Disconnected)));
        assert!(matches!(qa.recv(), Err(RdmaError::Disconnected)));
    }
}
