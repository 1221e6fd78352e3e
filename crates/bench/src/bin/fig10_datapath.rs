//! Fig. 10: bandwidth and latency of the Portus datapath between the
//! four device pairs, swept over message size.
//!
//! (a)/(b): server reads from client DRAM / client GPU (checkpointing
//! direction); (c)/(d): server writes to client DRAM / client GPU
//! (restore direction). The paper's observations reproduced here:
//! DRAM-vs-PMem on the *server* side makes no difference (the network
//! dominates), GPU reads cap at 5.8 GB/s through the BAR while GPU
//! writes do not, and bandwidth saturates past 512 KB messages.

use portus_sim::{CostModel, MemoryKind};

fn main() {
    let m = CostModel::icdcs24();
    let sizes: Vec<u64> = (12..=28).map(|p| 1u64 << p).collect(); // 4 KiB .. 256 MiB

    println!("Fig. 10 — Portus datapath bandwidth (GB/s) and latency by message size");
    println!(
        "{:>10} | {:>12} {:>12} | {:>12} {:>12} | {:>12}",
        "size", "read DRAM", "read GPU", "write DRAM", "write GPU", "lat GPU read"
    );
    let mut rows = Vec::new();
    for &s in &sizes {
        let read_dram = m.rdma_read(s, MemoryKind::HostDram, true);
        let read_gpu = m.rdma_read(s, MemoryKind::GpuHbm, true);
        let write_dram = m.rdma_write(s, MemoryKind::HostDram, true);
        let write_gpu = m.rdma_write(s, MemoryKind::GpuHbm, true);
        let bw = |d: portus_sim::SimDuration| s as f64 / d.as_secs_f64() / 1e9;
        println!(
            "{:>10} | {:>12.2} {:>12.2} | {:>12.2} {:>12.2} | {:>9.1} us",
            human(s),
            bw(read_dram),
            bw(read_gpu),
            bw(write_dram),
            bw(write_gpu),
            read_gpu.as_nanos() as f64 / 1e3,
        );
        rows.push(serde_json::json!({
            "size_bytes": s,
            "read_dram_gbps": bw(read_dram),
            "read_gpu_gbps": bw(read_gpu),
            "write_dram_gbps": bw(write_dram),
            "write_gpu_gbps": bw(write_gpu),
            "read_gpu_latency_us": read_gpu.as_nanos() as f64 / 1e3,
            "read_dram_latency_us": read_dram.as_nanos() as f64 / 1e3,
        }));
    }
    println!("\nserver-side DRAM vs PMem targets are indistinguishable (network-bound),");
    println!(
        "GPU reads cap at {:.1} GB/s (BAR), writes at {:.1} GB/s (RNIC peak).",
        m.gpu_bar_read_bw / 1e9,
        m.rdma_peak_bw / 1e9
    );
    let path = portus_bench::write_experiment("fig10_datapath", &serde_json::json!(rows));
    println!("wrote {}", path.display());
}

fn human(s: u64) -> String {
    if s >= 1 << 20 {
        format!("{}MiB", s >> 20)
    } else {
        format!("{}KiB", s >> 10)
    }
}
