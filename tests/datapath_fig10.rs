//! Fig. 10 on the real data plane: measured verb completions over the
//! simulated fabric must express the calibrated datapath properties at
//! every message size — not just in the cost model, but through the
//! actual QueuePair code path with real bytes.

use std::sync::Arc;

use portus_mem::{Buffer, MemorySegment};
use portus_pmem::{PmemDevice, PmemMode};
use portus_rdma::{Access, Fabric, NodeId, QueuePair, RegionTarget};
use portus_sim::{MemoryKind, SimContext};

struct Bench {
    qp_storage: QueuePair,
    mr_gpu: Arc<portus_rdma::MemoryRegion>,
    mr_dram: Arc<portus_rdma::MemoryRegion>,
    pmem_dst: RegionTarget,
}

fn setup(max: u64) -> Bench {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    let storage = fabric.add_nic(NodeId(1));
    let gpu = Buffer::new(MemoryKind::GpuHbm, MemorySegment::zeroed(max));
    let dram = Buffer::new(MemoryKind::HostDram, MemorySegment::zeroed(max));
    let mr_gpu = compute.register(RegionTarget::Buffer(gpu), Access::READ_WRITE);
    let mr_dram = compute.register(RegionTarget::Buffer(dram), Access::READ_WRITE);
    let pmem = PmemDevice::new(ctx, PmemMode::DevDax, 2 * max);
    let pmem_dst = RegionTarget::Pmem {
        dev: pmem,
        base: 0,
        len: max,
    };
    let (_qp_compute, qp_storage) = QueuePair::connect(compute, storage);
    Bench {
        qp_storage,
        mr_gpu,
        mr_dram,
        pmem_dst,
    }
}

fn measured_bw(b: &Bench, rkey: u64, len: u64) -> f64 {
    let c = b.qp_storage.read(rkey, 0, &b.pmem_dst, 0, len).unwrap();
    len as f64 / (c.end - c.start).as_secs_f64()
}

#[test]
fn bandwidth_saturates_past_512kb() {
    let b = setup(64 << 20);
    let peak = measured_bw(&b, b.mr_dram.rkey(), 64 << 20);
    let at_512k = measured_bw(&b, b.mr_dram.rkey(), 512 << 10);
    let at_4k = measured_bw(&b, b.mr_dram.rkey(), 4 << 10);
    assert!(
        at_512k > 0.85 * peak,
        "512KB must be near peak: {at_512k:.3e} vs {peak:.3e}"
    );
    assert!(at_4k < 0.2 * peak, "4KB must be latency-bound: {at_4k:.3e}");
}

#[test]
fn gpu_read_cap_is_30_percent_below_dram() {
    let b = setup(64 << 20);
    let dram = measured_bw(&b, b.mr_dram.rkey(), 64 << 20);
    let gpu = measured_bw(&b, b.mr_gpu.rkey(), 64 << 20);
    let deficit = 1.0 - gpu / dram;
    // §V-B: "30% less than DRAM".
    assert!((0.25..0.35).contains(&deficit), "BAR deficit {deficit:.3}");
    assert!(
        (5.5e9..6.1e9).contains(&gpu),
        "GPU read peak {gpu:.3e} (paper 5.8 GB/s)"
    );
}

#[test]
fn writes_to_gpu_are_not_bar_capped() {
    let b = setup(64 << 20);
    let len = 64u64 << 20;
    // A separate GPU target for the restore direction.
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx);
    let compute = fabric.add_nic(NodeId(0));
    let storage = fabric.add_nic(NodeId(1));
    let gpu_writable = Buffer::new(MemoryKind::GpuHbm, MemorySegment::zeroed(len));
    let mr_w = compute.register(RegionTarget::Buffer(gpu_writable), Access::WRITE);
    let (_qc, qs) = QueuePair::connect(compute, storage);
    let src = RegionTarget::Buffer(Buffer::new(
        MemoryKind::HostDram,
        MemorySegment::zeroed(len),
    ));
    let c_write = qs.write(mr_w.rkey(), 0, &src, 0, len).unwrap();
    let write_bw = len as f64 / (c_write.end - c_write.start).as_secs_f64();
    let read_bw = measured_bw(&b, b.mr_gpu.rkey(), len);
    assert!(
        write_bw > 1.3 * read_bw,
        "restore direction must beat checkpoint direction: {write_bw:.3e} vs {read_bw:.3e}"
    );
}

#[test]
fn average_model_layer_runs_near_peak() {
    // §V-B: the ~2.5 MiB average layer implies per-tensor transfers run
    // near the saturated rate — the property that makes per-tensor MRs
    // viable.
    let b = setup(64 << 20);
    let layer = (25 << 20) / 10; // 2.5 MiB
    let bw = measured_bw(&b, b.mr_gpu.rkey(), layer);
    let peak = measured_bw(&b, b.mr_gpu.rkey(), 64 << 20);
    assert!(bw > 0.9 * peak, "2.5MiB at {bw:.3e} vs peak {peak:.3e}");
}

#[test]
fn server_side_dram_and_pmem_targets_are_equivalent() {
    // Fig. 10's observation: DRAM or PMem as the storage target does
    // not change checkpoint bandwidth — the network dominates.
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    let storage = fabric.add_nic(NodeId(1));
    let len = 16u64 << 20;
    let gpu = Buffer::new(MemoryKind::GpuHbm, MemorySegment::zeroed(len));
    let mr = compute.register(RegionTarget::Buffer(gpu), Access::READ);
    let pmem = PmemDevice::new(ctx, PmemMode::DevDax, 2 * len);
    let to_pmem = RegionTarget::Pmem {
        dev: pmem,
        base: 0,
        len,
    };
    let to_dram = RegionTarget::Buffer(Buffer::new(
        MemoryKind::HostDram,
        MemorySegment::zeroed(len),
    ));
    let (_qc, qs) = QueuePair::connect(compute, storage);
    let c1 = qs.read(mr.rkey(), 0, &to_pmem, 0, len).unwrap();
    let c2 = qs.read(mr.rkey(), 0, &to_dram, 0, len).unwrap();
    assert_eq!(
        (c1.end - c1.start),
        (c2.end - c2.start),
        "target memory must not matter on the read path"
    );
}
