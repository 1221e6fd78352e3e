//! Fig. 13: breakdown of the BERT checkpoint time across the three
//! systems — real data plane for the baselines, measured phases for
//! Portus. Run with `--release`.
//!
//! Paper: serialization + cuMemcpy contribute 46.5 % of ext4-NVMe and
//! 57.2 % of BeeGFS-PMem; the local block path is 53.7 % of ext4-NVMe;
//! RDMA dominates Portus.

use portus_bench::realplane::{self, PortusWorld};
use portus_cluster::Backend;
use portus_dnn::zoo;

fn main() {
    let spec = zoo::bert_large();

    eprintln!("running BERT on the three systems (real data plane)...");
    let (beegfs, _) = realplane::baseline_times(&spec, Backend::BeegfsPmem);
    let (ext4, _) = realplane::baseline_times(&spec, Backend::Ext4Nvme);
    // QP-striping sweep: the same checkpoint with the doorbell batch
    // striped across 1..8 lane-pinned QPs, the persist+checksum seal
    // pipelining behind the fabric at every count. The one-QP point is
    // the Portus row: its persist/checksum phases come from the
    // recorded spans (cross-checked against the stage histograms) and
    // its run comes back as Chrome trace-event JSON.
    eprintln!("sweeping QP striping (1..8 lanes)...");
    let qp_points = [1, 2, 4, 8].map(|qps| (qps, PortusWorld::new(&spec, qps).checkpoint()));
    let [(_, portus), _, (_, qp4), _] = &qp_points;

    println!("Fig. 13 — BERT checkpoint breakdown (virtual seconds)");
    println!(
        "{:<14} {:>9} {:>10} {:>10} {:>9} {:>9} {:>9}",
        "System", "cuMemcpy", "serialize", "transmit", "media", "metadata", "total"
    );
    for (label, bd) in [("BeeGFS-PMEM", &beegfs), ("ext4-NVMe", &ext4)] {
        println!(
            "{:<14} {:>9.3} {:>10.3} {:>10.3} {:>9.3} {:>9.3} {:>9.3}",
            label,
            bd.gpu_copy.as_secs_f64(),
            bd.serialize.as_secs_f64(),
            bd.transmit.as_secs_f64(),
            bd.persist.as_secs_f64(),
            bd.metadata.as_secs_f64(),
            bd.total().as_secs_f64(),
        );
    }
    println!(
        "{:<14} {:>9} {:>10} {:>10} {:>9} {:>9} {:>9.3}   (all RDMA)",
        "Portus",
        "-",
        "-",
        "-",
        "-",
        "-",
        portus.total.as_secs_f64()
    );
    println!(
        "\nPortus phases: pull {:.3}s; seal service (overlaps the pull): persist {:.3}s, \
         checksum {:.3}s ({} WQEs in {} doorbell batches, {} coalesced WQEs / {} MiB)",
        portus.pull.as_secs_f64(),
        portus.persist.as_secs_f64(),
        portus.checksum.as_secs_f64(),
        portus.stats.posted_verbs,
        portus.stats.doorbell_batches,
        portus.stats.coalesced_verbs,
        portus.stats.coalesced_bytes >> 20,
    );

    println!("\nQP striping sweep — same BERT checkpoint, striped datapath");
    println!(
        "{:<5} {:>10} {:>10} {:>10} {:>9} {:>7} {:>10}",
        "qps", "total (s)", "persist", "checksum", "overlap", "WQEs", "doorbells"
    );
    for (qps, p) in &qp_points {
        println!(
            "{:<5} {:>10.4} {:>10.4} {:>10.4} {:>8.1}% {:>7} {:>10}",
            qps,
            p.total.as_secs_f64(),
            p.persist.as_secs_f64(),
            p.checksum.as_secs_f64(),
            p.overlap_permille as f64 / 10.0,
            p.stats.posted_verbs,
            p.stats.doorbell_batches,
        );
    }
    println!(
        "shape: at every QP count earlier runs persist and checksum while later runs\n\
         drain, so the seal hides in the fabric; more lanes shorten the fabric itself."
    );

    let serial_memcpy_beegfs =
        (beegfs.gpu_copy + beegfs.serialize).as_secs_f64() / beegfs.total().as_secs_f64();
    let serial_memcpy_ext4 =
        (ext4.gpu_copy + ext4.serialize).as_secs_f64() / ext4.total().as_secs_f64();
    let block_share_ext4 = ext4.persist.as_secs_f64() / ext4.total().as_secs_f64();
    println!(
        "\nserialize+cuMemcpy share: BeeGFS {:.1}% (paper 57.2%), ext4 {:.1}% (paper 46.5%)",
        serial_memcpy_beegfs * 100.0,
        serial_memcpy_ext4 * 100.0
    );
    println!(
        "ext4 block-path share: {:.1}% (paper 53.7%)",
        block_share_ext4 * 100.0
    );

    let path = portus_bench::write_experiment(
        "fig13_breakdown",
        &serde_json::json!({
            "beegfs": {
                "cu_memcpy": beegfs.gpu_copy.as_secs_f64(),
                "serialize": beegfs.serialize.as_secs_f64(),
                "transmit": beegfs.transmit.as_secs_f64(),
                "media": beegfs.persist.as_secs_f64(),
                "metadata": beegfs.metadata.as_secs_f64(),
                "serial_plus_memcpy_share": serial_memcpy_beegfs,
            },
            "ext4": {
                "cu_memcpy": ext4.gpu_copy.as_secs_f64(),
                "serialize": ext4.serialize.as_secs_f64(),
                "media": ext4.persist.as_secs_f64(),
                "metadata": ext4.metadata.as_secs_f64(),
                "serial_plus_memcpy_share": serial_memcpy_ext4,
                "block_share": block_share_ext4,
            },
            "portus": {
                "total": portus.total.as_secs_f64(),
                "pull": portus.pull.as_secs_f64(),
                "persist": portus.persist.as_secs_f64(),
                "checksum": portus.checksum.as_secs_f64(),
                "posted_verbs": portus.stats.posted_verbs,
                "doorbell_batches": portus.stats.doorbell_batches,
                "coalesced_verbs": portus.stats.coalesced_verbs,
                "coalesced_bytes": portus.stats.coalesced_bytes,
            },
            "portus_total": portus.total.as_secs_f64(),
            "qp_sweep": qp_points.iter().map(|(qps, p)| serde_json::json!({
                "qps": qps,
                "total": p.total.as_secs_f64(),
                "persist": p.persist.as_secs_f64(),
                "checksum": p.checksum.as_secs_f64(),
                "overlap_permille": p.overlap_permille,
                "posted_verbs": p.stats.posted_verbs,
                "doorbell_batches": p.stats.doorbell_batches,
            })).collect::<Vec<_>>(),
        }),
    );
    println!("wrote {}", path.display());
    let trace_path = portus_bench::write_artifact("fig13_trace.json", &portus.trace);
    println!(
        "wrote {} (load in chrome://tracing or Perfetto)",
        trace_path.display()
    );
    let p = portus_bench::write_artifact("fig13_trace_qp4.json", &qp4.trace);
    println!(
        "wrote {} (striped datapath, lane-tagged spans)",
        p.display()
    );
}
