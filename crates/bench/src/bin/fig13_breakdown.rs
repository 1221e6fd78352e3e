//! Fig. 13: breakdown of the BERT checkpoint time across the three
//! systems — real data plane for the baselines, measured phases for
//! Portus. Run with `--release`.
//!
//! Paper: serialization + cuMemcpy contribute 46.5 % of ext4-NVMe and
//! 57.2 % of BeeGFS-PMem; the local block path is 53.7 % of ext4-NVMe;
//! RDMA dominates Portus.

use portus_bench::realplane;
use portus_dnn::zoo;

fn main() {
    let spec = zoo::bert_large();

    eprintln!("running BERT on the three systems (real data plane)...");
    let beegfs = realplane::bert_beegfs_breakdown(&spec);
    let ext4 = realplane::bert_ext4_breakdown(&spec);
    // The traced variant derives the persist/checksum phases from the
    // recorded spans (cross-checked against the stage histograms) and
    // hands back the run as Chrome trace-event JSON.
    let (portus, trace_json) = realplane::portus_breakdown_traced(&spec);

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
        "Portus", "-", "-", "-", "-", "-", portus.total
    );
    println!(
        "\nPortus phases: pull {:.3}s; seal service (overlaps the pull): persist {:.3}s, \
         checksum {:.3}s ({} WQEs in {} doorbell batches, {} coalesced WQEs / {} MiB)",
        portus.pull,
        portus.persist,
        portus.checksum,
        portus.posted_verbs,
        portus.doorbell_batches,
        portus.coalesced_verbs,
        portus.coalesced_bytes >> 20,
    );

    // QP-striping sweep: the same checkpoint with the doorbell batch
    // striped across 1..8 lane-pinned QPs, the persist+checksum seal
    // pipelining behind the fabric at every count.
    eprintln!("sweeping QP striping (1..8 lanes)...");
    let (qp_points, qp4_trace) = realplane::portus_qp_sweep(&spec, &[1, 2, 4, 8]);
    println!("\nQP striping sweep — same BERT checkpoint, striped datapath");
    println!(
        "{:<5} {:>10} {:>10} {:>10} {:>9} {:>7} {:>10}",
        "qps", "total (s)", "persist", "checksum", "overlap", "WQEs", "doorbells"
    );
    for p in &qp_points {
        println!(
            "{:<5} {:>10.4} {:>10.4} {:>10.4} {:>8.1}% {:>7} {:>10}",
            p.qps,
            p.total,
            p.persist,
            p.checksum,
            p.overlap_permille as f64 / 10.0,
            p.posted_verbs,
            p.doorbell_batches,
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
                "total": portus.total,
                "pull": portus.pull,
                "persist": portus.persist,
                "checksum": portus.checksum,
                "posted_verbs": portus.posted_verbs,
                "doorbell_batches": portus.doorbell_batches,
                "coalesced_verbs": portus.coalesced_verbs,
                "coalesced_bytes": portus.coalesced_bytes,
            },
            "portus_total": portus.total,
            "qp_sweep": qp_points,
        }),
    );
    println!("wrote {}", path.display());
    let trace_path = portus_bench::write_artifact("fig13_trace.json", &trace_json);
    println!(
        "wrote {} (load in chrome://tracing or Perfetto)",
        trace_path.display()
    );
    if let Some(qp4) = qp4_trace {
        let p = portus_bench::write_artifact("fig13_trace_qp4.json", &qp4);
        println!(
            "wrote {} (striped datapath, lane-tagged spans)",
            p.display()
        );
    }
}
