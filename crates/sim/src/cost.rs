//! Calibrated device cost model.
//!
//! Every hardware component of the paper's testbed (ICDCS'24, §V-A) is
//! replaced by an analytic cost model. The constants in
//! [`CostModel::icdcs24`] are **derived from the paper's own
//! measurements** so that the reproduced experiments match the *shape* of
//! the published results:
//!
//! * Table I — baseline checkpoint split 15.5 % cuMemcpy / 41.7 %
//!   serialization / 30.0 % RPC-RDMA / 12.8 % DAX write fixes the ratios
//!   between `pcie_d2h_bw`, `serialize_bw`, `rpc_rdma_bw` and
//!   `dax_write_bw`.
//! * §V-B — GPU BAR read cap of 5.8 GB/s, "30 % less than DRAM", fixes
//!   `gpu_bar_read_bw` and `rdma_peak_bw`.
//! * Fig. 10 — bandwidth saturates past 512 KB messages; fixes
//!   `rdma_ramp_bytes`.
//! * Fig. 13 — the local ext4 path spends 53.7 % of its time in the block
//!   layer; fixes the ext4/NVMe component bandwidths.
//! * §V-B — NVMe sequential write 2.7 GB/s.

use serde::{Deserialize, Serialize};

use crate::SimDuration;

/// The kind of byte-addressable memory at one end of a transfer.
///
/// The RDMA datapath behaves differently per device: reads *from* GPU
/// memory are capped by the base-address-register (BAR) unit, which
/// disables prefetching (paper §V-B), while writes *to* GPU memory are
/// posted and run at line rate (Fig. 10d).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemoryKind {
    /// Host DRAM on a compute or storage node.
    HostDram,
    /// GPU device memory (HBM) exposed over PCIe BAR windows.
    GpuHbm,
    /// Persistent memory (Optane DC PMem) on the storage node.
    Pmem,
}

/// Calibrated bandwidth/latency constants for every simulated device.
///
/// All bandwidths are in bytes per second, all latencies in nanoseconds.
/// Use [`CostModel::icdcs24`] for the profile calibrated against the
/// paper; construct your own for sensitivity studies.
///
/// # Examples
///
/// ```
/// use portus_sim::CostModel;
///
/// let m = CostModel::icdcs24();
/// // A 1 MiB one-sided RDMA read out of GPU memory, first on its
/// // doorbell, is BAR-limited.
/// let d = m.rdma_read(1 << 20, portus_sim::MemoryKind::GpuHbm, true);
/// assert!(d.as_micros() > 150); // ~5.8 GB/s => ~180 us
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostModel {
    // ---- network / RDMA ----
    /// Effective peak one-sided RDMA bandwidth for large messages
    /// (bytes/s). The paper measures ~8.3 GB/s to host DRAM over a
    /// 100 Gb/s ConnectX-5 (5.8 GB/s GPU read is "30 % less than DRAM").
    pub rdma_peak_bw: f64,
    /// Peak bandwidth when the RNIC reads GPU memory through the BAR
    /// (bytes/s). 5.8 GB/s per §V-B.
    pub gpu_bar_read_bw: f64,
    /// Message size at which effective bandwidth reaches half of peak
    /// (bytes). Produces the Fig. 10 saturation knee: ≥512 KB messages run
    /// near peak.
    pub rdma_ramp_bytes: f64,
    /// Per-verb base latency (ns): post + DMA engine start + completion.
    pub rdma_op_latency_ns: u64,
    /// Incremental latency (ns) of each *additional* verb posted in the
    /// same doorbell batch. The first verb of a batch pays the full
    /// [`rdma_op_latency_ns`]; follow-on verbs ride the same doorbell and
    /// DMA-engine wakeup, paying only the WQE fetch/processing cost
    /// (paper §III-D: the daemon "batches the RDMA read requests of
    /// tensors and issues them together").
    ///
    /// [`rdma_op_latency_ns`]: CostModel::rdma_op_latency_ns
    pub rdma_posted_verb_ns: u64,
    /// Effective bandwidth of the two-sided RPC-over-RDMA protocol used by
    /// the BeeGFS baseline (bytes/s). Derived from Table I (30.0 % share).
    pub rpc_rdma_bw: f64,
    /// Extra per-message latency of the two-sided protocol (rendezvous +
    /// receiver CPU involvement), ns.
    pub rpc_op_latency_ns: u64,
    /// Two-sided RPC throughput degradation per additional concurrent
    /// stream: with `n` shards writing at once the effective bandwidth
    /// is `rpc_rdma_bw / (1 + c·(n-1))`. The receiver CPU is on the
    /// critical path of two-sided protocols (Ibrahim et al.), which is
    /// exactly the contention one-sided Portus avoids; calibrated so
    /// the 16-shard GPT-22.4B `torch.save` lands above 120 s (Fig. 14).
    pub rpc_contention_per_stream: f64,
    /// One-way latency of the TCP-over-IPoIB control channel (ns).
    pub control_one_way_ns: u64,
    /// Base backoff (ns) charged before re-posting a failed verb; each
    /// further retry of the same operation doubles it (see
    /// [`CostModel::verb_retry_backoff`]).
    pub verb_retry_backoff_ns: u64,
    /// Scheduling penalty (ns) charged when a verb is posted to a NIC
    /// DMA engine that is still busy with earlier work: the WQE sits in
    /// the engine's queue and pays an extra arbitration/wakeup cost on
    /// top of the queueing delay itself. The daemon posts every WQE of
    /// a round at one instant, so each WQE queued behind another on the
    /// same lane pays it.
    #[serde(default)]
    pub nic_engine_contention_ns: u64,

    // ---- PCIe / GPU ----
    /// `cudaMemcpy` device-to-host effective bandwidth (bytes/s) through
    /// pageable host memory, as `torch.save` uses. Derived from Table I
    /// (15.5 % share).
    pub pcie_d2h_bw: f64,
    /// `cudaMemcpy` host-to-device effective bandwidth (bytes/s).
    pub pcie_h2d_bw: f64,
    /// GPUDirect Storage DMA bandwidth storage<->GPU (bytes/s).
    pub gds_bw: f64,
    /// Fixed cost of launching a DMA / memcpy (ns).
    pub pcie_op_latency_ns: u64,

    // ---- serialization (torch.save-style) ----
    /// Serializer throughput (bytes/s): Python-side pickling + header
    /// packing. Derived from Table I (41.7 % share).
    pub serialize_bw: f64,
    /// Deserializer throughput on restore (bytes/s). Somewhat faster than
    /// pickling; keeps the paper's observation that "deserialization
    /// overhead ... still makes restoring inefficient".
    pub deserialize_bw: f64,
    /// Fixed per-checkpoint serializer overhead (ns): container headers,
    /// metadata walk.
    pub serialize_fixed_ns: u64,

    // ---- persistent memory ----
    /// DAX write (ntstore + flush) bandwidth into interleaved Optane
    /// (bytes/s). Derived from Table I (12.8 % share). CPU-streamed
    /// bytes (`PmemDevice::write_nt`) pay this plus one `sfence`;
    /// RDMA-landed bytes sit in the DDIO domain and pay `clwb_ns` per
    /// line instead.
    pub dax_write_bw: f64,
    /// DAX / PMem read bandwidth (bytes/s). Optane reads are ~3x writes.
    pub dax_read_bw: f64,
    /// Latency of a single cache-line flush (`clwb`), ns.
    pub clwb_ns: u64,
    /// Latency of a persistence fence (`sfence`), ns.
    pub sfence_ns: u64,

    // ---- DRAM ----
    /// Host memcpy bandwidth (bytes/s).
    pub dram_copy_bw: f64,

    // ---- NVMe / local file system ----
    /// NVMe sequential write bandwidth (bytes/s). 2.7 GB/s per §V-B.
    pub nvme_write_bw: f64,
    /// NVMe sequential read bandwidth (bytes/s). Reads on data-center
    /// NVMe are roughly 2x writes.
    pub nvme_read_bw: f64,
    /// User→page-cache copy bandwidth for buffered writes (bytes/s).
    pub page_cache_copy_bw: f64,
    /// Per-byte file-system overhead (journaling, extent allocation,
    /// writeback scheduling) expressed as a bandwidth (bytes/s).
    pub ext4_overhead_bw: f64,

    // ---- kernel and metadata ----
    /// Cost of one user/kernel crossing (syscall entry+exit), ns.
    pub kernel_crossing_ns: u64,
    /// Fixed metadata cost of creating/opening a file on the *local* ext4
    /// file system (path resolution, permission check, inode alloc), ns.
    pub ext4_metadata_ns: u64,
    /// Fixed metadata cost of creating/opening a file on the *distributed*
    /// BeeGFS file system (adds metadata-server round trips), ns. The
    /// paper attributes ResNet50's outsized 9.23x speedup to this
    /// overhead on small files (Fig. 11).
    pub beegfs_metadata_ns: u64,

    // ---- RDMA memory registration ----
    /// Fixed cost of registering one memory region (ns).
    pub mr_register_fixed_ns: u64,
    /// Per-byte cost of pinning + page-table setup during registration,
    /// expressed as a bandwidth (bytes/s).
    pub mr_register_bw: f64,
}

impl CostModel {
    /// The profile calibrated against the paper's measurements. See the
    /// module docs for which published number fixes which constant.
    pub fn icdcs24() -> Self {
        CostModel {
            rdma_peak_bw: 8.3e9,
            gpu_bar_read_bw: 5.8e9,
            rdma_ramp_bytes: 64.0 * 1024.0,
            rdma_op_latency_ns: 3_000,
            rdma_posted_verb_ns: 180,
            rpc_rdma_bw: 2.43e9,
            rpc_op_latency_ns: 12_000,
            rpc_contention_per_stream: 0.062,
            control_one_way_ns: 15_000,
            verb_retry_backoff_ns: 50_000,
            nic_engine_contention_ns: 2_000,

            pcie_d2h_bw: 4.71e9,
            pcie_h2d_bw: 5.0e9,
            gds_bw: 9.0e9,
            pcie_op_latency_ns: 8_000,

            serialize_bw: 1.75e9,
            deserialize_bw: 2.6e9,
            serialize_fixed_ns: 900_000,

            dax_write_bw: 5.70e9,
            dax_read_bw: 12.0e9,
            clwb_ns: 100,
            sfence_ns: 30,

            dram_copy_bw: 18.0e9,

            nvme_write_bw: 2.7e9,
            nvme_read_bw: 5.6e9,
            page_cache_copy_bw: 4.5e9,
            ext4_overhead_bw: 2.5e9,

            kernel_crossing_ns: 2_000,
            ext4_metadata_ns: 250_000,
            beegfs_metadata_ns: 40_000_000,

            mr_register_fixed_ns: 10_000,
            mr_register_bw: 15.0e9,
        }
    }

    /// Time to move `bytes` over a link with `peak_bw`, using the
    /// size-dependent ramp that models per-packet overheads: effective
    /// bandwidth is `peak * s / (s + ramp)`.
    fn link_time(&self, bytes: u64, peak_bw: f64, base_latency_ns: u64) -> SimDuration {
        if bytes == 0 {
            return SimDuration::from_nanos(base_latency_ns);
        }
        let s = bytes as f64;
        let eff = peak_bw * s / (s + self.rdma_ramp_bytes);
        SimDuration::from_nanos(base_latency_ns) + SimDuration::from_secs_f64(s / eff)
    }

    /// Time for a one-sided RDMA READ work-queue entry of `bytes` whose
    /// source is `src` memory. Reading GPU memory is BAR-capped; other
    /// sources run at the RNIC effective peak. The first verb of a
    /// doorbell batch pays the full per-verb base latency; follow-on
    /// verbs (`first_in_batch == false`) pay only
    /// [`rdma_posted_verb_ns`](CostModel::rdma_posted_verb_ns), which is
    /// where the batched datapath's latency win comes from.
    pub fn rdma_read(&self, bytes: u64, src: MemoryKind, first_in_batch: bool) -> SimDuration {
        let peak = match src {
            MemoryKind::GpuHbm => self.gpu_bar_read_bw,
            MemoryKind::HostDram | MemoryKind::Pmem => self.rdma_peak_bw,
        };
        self.link_time(bytes, peak, self.verb_base_ns(first_in_batch))
    }

    /// Time for a one-sided RDMA WRITE work-queue entry of `bytes` into
    /// `dst` memory. Writes are posted and are not BAR-limited
    /// (Fig. 10d); doorbell batching as [`rdma_read`](CostModel::rdma_read).
    pub fn rdma_write(&self, bytes: u64, _dst: MemoryKind, first_in_batch: bool) -> SimDuration {
        self.link_time(bytes, self.rdma_peak_bw, self.verb_base_ns(first_in_batch))
    }

    fn verb_base_ns(&self, first_in_batch: bool) -> u64 {
        if first_in_batch {
            self.rdma_op_latency_ns
        } else {
            self.rdma_posted_verb_ns
        }
    }

    /// Time for a two-sided RPC-over-RDMA transfer of `bytes` (the BeeGFS
    /// baseline protocol, which the paper notes is slower than one-sided
    /// verbs).
    pub fn rpc_rdma_transfer(&self, bytes: u64) -> SimDuration {
        self.link_time(bytes, self.rpc_rdma_bw, self.rpc_op_latency_ns)
    }

    /// Two-sided RPC transfer of `bytes` with `streams` concurrent
    /// shard streams contending for the receiver CPU.
    pub fn rpc_rdma_transfer_contended(&self, bytes: u64, streams: u32) -> SimDuration {
        let eff =
            self.rpc_rdma_bw / (1.0 + self.rpc_contention_per_stream * (streams.max(1) - 1) as f64);
        self.link_time(bytes, eff, self.rpc_op_latency_ns)
    }

    /// One-way latency of the TCP/IPoIB control channel carrying
    /// `payload` bytes.
    pub fn control_message(&self, payload: u64) -> SimDuration {
        // IPoIB runs over the same fabric; payloads are tiny, so charge a
        // conservative 1 GB/s stream rate on top of the base latency.
        SimDuration::from_nanos(self.control_one_way_ns)
            + SimDuration::from_secs_f64(payload as f64 / 1.0e9)
    }

    /// `cudaMemcpy` device-to-host of `bytes` (the snapshot copy of the
    /// baseline datapath, Fig. 3 step 1).
    pub fn cuda_memcpy_d2h(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(self.pcie_op_latency_ns)
            + SimDuration::from_secs_f64(bytes as f64 / self.pcie_d2h_bw)
    }

    /// `cudaMemcpy` host-to-device of `bytes` (baseline restore).
    pub fn cuda_memcpy_h2d(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(self.pcie_op_latency_ns)
            + SimDuration::from_secs_f64(bytes as f64 / self.pcie_h2d_bw)
    }

    /// GPUDirect Storage DMA of `bytes` between a storage device and GPU
    /// memory, bypassing host DRAM (used by baseline restore, §V-C2).
    pub fn gds_transfer(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(self.pcie_op_latency_ns)
            + SimDuration::from_secs_f64(bytes as f64 / self.gds_bw)
    }

    /// Serialization of `bytes` of tensor payload into a checkpoint
    /// container (Fig. 3 step 2).
    pub fn serialize(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(self.serialize_fixed_ns)
            + SimDuration::from_secs_f64(bytes as f64 / self.serialize_bw)
    }

    /// Deserialization of `bytes` on the restore path.
    pub fn deserialize(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(self.serialize_fixed_ns)
            + SimDuration::from_secs_f64(bytes as f64 / self.deserialize_bw)
    }

    /// DAX write of `bytes` into PMem (ntstore + flush).
    pub fn dax_write(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.dax_write_bw)
    }

    /// DAX read of `bytes` from PMem.
    pub fn dax_read(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.dax_read_bw)
    }

    /// Host-DRAM memcpy of `bytes`.
    pub fn dram_copy(&self, bytes: u64) -> SimDuration {
        SimDuration::from_secs_f64(bytes as f64 / self.dram_copy_bw)
    }

    /// Buffered ext4 write of `bytes` to NVMe: user→page-cache copy, file
    /// system overhead (journal/extents), then device writeback. These
    /// three components reproduce Fig. 13's observation that the block
    /// path is 53.7 % of the local checkpoint time.
    pub fn ext4_nvme_write(&self, bytes: u64) -> SimDuration {
        let s = bytes as f64;
        SimDuration::from_secs_f64(
            s / self.page_cache_copy_bw + s / self.ext4_overhead_bw + s / self.nvme_write_bw,
        )
    }

    /// O_DIRECT ext4 read of `bytes` from NVMe (restore path; page cache
    /// bypassed, modest FS overhead remains).
    pub fn ext4_nvme_read(&self, bytes: u64) -> SimDuration {
        let s = bytes as f64;
        SimDuration::from_secs_f64(s / self.nvme_read_bw + s / (self.ext4_overhead_bw * 4.0))
    }

    /// One user/kernel crossing.
    pub fn kernel_crossing(&self) -> SimDuration {
        SimDuration::from_nanos(self.kernel_crossing_ns)
    }

    /// Fixed metadata cost of a local ext4 file create/open.
    pub fn ext4_metadata_op(&self) -> SimDuration {
        SimDuration::from_nanos(self.ext4_metadata_ns)
    }

    /// Fixed metadata cost of a BeeGFS file create/open.
    pub fn beegfs_metadata_op(&self) -> SimDuration {
        SimDuration::from_nanos(self.beegfs_metadata_ns)
    }

    /// Registering `bytes` of memory as one RDMA memory region.
    pub fn mr_register(&self, bytes: u64) -> SimDuration {
        SimDuration::from_nanos(self.mr_register_fixed_ns)
            + SimDuration::from_secs_f64(bytes as f64 / self.mr_register_bw)
    }

    /// Flushing `lines` cache lines plus one fence.
    pub fn persist_lines(&self, lines: u64) -> SimDuration {
        SimDuration::from_nanos(self.clwb_ns * lines + self.sfence_ns)
    }

    /// Penalty paid by a verb that lands on a NIC DMA engine which is
    /// already busy at post time (see
    /// [`nic_engine_contention_ns`](CostModel::nic_engine_contention_ns)).
    pub fn nic_engine_contention(&self) -> SimDuration {
        SimDuration::from_nanos(self.nic_engine_contention_ns)
    }

    /// Backoff charged before the `attempt`-th re-post of a failed verb
    /// (1-based): exponential over
    /// [`verb_retry_backoff_ns`](CostModel::verb_retry_backoff_ns),
    /// capped at 2¹⁶ doublings so the virtual clock never overflows.
    pub fn verb_retry_backoff(&self, attempt: u32) -> SimDuration {
        let exp = attempt.saturating_sub(1).min(16);
        SimDuration::from_nanos(self.verb_retry_backoff_ns.saturating_mul(1 << exp))
    }
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel::icdcs24()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIB: u64 = 1 << 20;

    #[test]
    fn bar_caps_gpu_reads_but_not_writes() {
        let m = CostModel::icdcs24();
        let read_gpu = m.rdma_read(256 * MIB, MemoryKind::GpuHbm, true);
        let read_dram = m.rdma_read(256 * MIB, MemoryKind::HostDram, true);
        let write_gpu = m.rdma_write(256 * MIB, MemoryKind::GpuHbm, true);
        assert!(read_gpu > read_dram, "BAR cap must slow GPU reads");
        // Writes to GPU run at the NIC peak, same as DRAM reads.
        assert_eq!(write_gpu, read_dram);
    }

    #[test]
    fn fig10_knee_is_at_half_megabyte() {
        let m = CostModel::icdcs24();
        let bw = |bytes: u64| {
            bytes as f64 / m.rdma_read(bytes, MemoryKind::HostDram, true).as_secs_f64()
        };
        // Past 512 KB the effective bandwidth is within 15% of peak.
        let bw_512k = bw(512 * 1024);
        assert!(
            bw_512k > 0.85 * m.rdma_peak_bw,
            "bw at 512KB: {bw_512k:.3e}"
        );
        // At 4 KB we are latency-bound, far from peak.
        let bw_4k = bw(4 * 1024);
        assert!(bw_4k < 0.20 * m.rdma_peak_bw, "bw at 4KB: {bw_4k:.3e}");
    }

    #[test]
    fn table1_ratio_holds() {
        // Table I: cuMemcpy 15.5%, serialize 41.7%, RPC-RDMA 30.0%, DAX 12.8%
        // for a large transfer where fixed costs vanish.
        let m = CostModel::icdcs24();
        let bytes = 8 * 1024 * MIB; // 8 GiB: fixed costs negligible
        let gpu = m.cuda_memcpy_d2h(bytes).as_secs_f64();
        let ser = m.serialize(bytes).as_secs_f64();
        let rpc = m.rpc_rdma_transfer(bytes).as_secs_f64();
        let dax = m.dax_write(bytes).as_secs_f64();
        let total = gpu + ser + rpc + dax;
        let share = |x: f64| 100.0 * x / total;
        assert!((share(gpu) - 15.5).abs() < 2.0, "gpu share {}", share(gpu));
        assert!((share(ser) - 41.7).abs() < 2.0, "ser share {}", share(ser));
        assert!((share(rpc) - 30.0).abs() < 2.0, "rpc share {}", share(rpc));
        assert!((share(dax) - 12.8).abs() < 2.0, "dax share {}", share(dax));
    }

    #[test]
    fn nvme_write_matches_paper_rate() {
        let m = CostModel::icdcs24();
        // Device-only component is 2.7 GB/s; the full buffered path is
        // slower because of page-cache copy + FS overhead.
        let one_gib = 1024 * MIB;
        let t = m.ext4_nvme_write(one_gib).as_secs_f64();
        let eff = one_gib as f64 / t;
        assert!(eff < 2.7e9, "full path must be below raw device rate");
        assert!(
            eff > 0.8e9,
            "full path should stay near 1 GB/s, got {eff:.3e}"
        );
    }

    #[test]
    fn zero_byte_ops_cost_only_latency() {
        let m = CostModel::icdcs24();
        assert_eq!(
            m.rdma_read(0, MemoryKind::HostDram, true).as_nanos(),
            m.rdma_op_latency_ns
        );
        assert_eq!(m.dax_write(0), SimDuration::ZERO);
    }

    #[test]
    fn doorbell_batching_discounts_follow_on_verbs() {
        let m = CostModel::icdcs24();
        let first = m.rdma_read(4096, MemoryKind::GpuHbm, true);
        let rest = m.rdma_read(4096, MemoryKind::GpuHbm, false);
        assert_eq!(first, m.rdma_read(4096, MemoryKind::GpuHbm, true));
        assert!(rest < first, "batched verbs must be cheaper");
        let saved = first.saturating_sub(rest).as_nanos();
        assert_eq!(saved, m.rdma_op_latency_ns - m.rdma_posted_verb_ns);
    }

    #[test]
    fn retry_backoff_is_exponential_and_capped() {
        let m = CostModel::icdcs24();
        assert_eq!(m.verb_retry_backoff(1).as_nanos(), m.verb_retry_backoff_ns);
        assert_eq!(
            m.verb_retry_backoff(3).as_nanos(),
            m.verb_retry_backoff_ns * 4
        );
        // Deep retry counts saturate instead of overflowing.
        assert_eq!(m.verb_retry_backoff(100), m.verb_retry_backoff(17));
    }

    #[test]
    fn metadata_ordering_beegfs_heavier_than_ext4() {
        let m = CostModel::icdcs24();
        assert!(m.beegfs_metadata_op() > m.ext4_metadata_op() * 10);
    }
}
