//! Table I: DNN checkpointing overhead breakdown.
//!
//! Runs the real data plane: BERT-Large is materialized on the
//! simulated GPU and saved through the `torch.save` → BeeGFS-PMem
//! pipeline; the four phases' virtual times are reported as shares.
//! Paper: GPU→MM 15.5 %, serialization 41.7 %, transmission 30.0 %,
//! server DAX write 12.8 %.

use portus_bench::analytic;
use portus_bench::realplane::BaselineWorld;
use portus_cluster::Backend;
use portus_dnn::zoo;

fn main() {
    eprintln!("running BERT torch.save on BeeGFS-PMem (real data plane)...");
    let spec = zoo::bert_large();
    let bd = BaselineWorld::new(&spec, Backend::BeegfsPmem).checkpoint();
    let shares = analytic::table1_shares(bd.gpu_copy, bd.serialize, bd.transmit, bd.persist);

    println!("Table I — DNN checkpointing overhead (BERT-Large → BeeGFS-PMem)");
    println!(
        "{:<24} {:>10} {:>10} {:>8}",
        "Operation", "Time (s)", "Share", "Paper"
    );
    let rows = [
        ("GPU to Main Memory", bd.gpu_copy, shares.gpu_to_dram, 15.5),
        ("Serialization", bd.serialize, shares.serialization, 41.7),
        (
            "Transmission (RDMA)",
            bd.transmit,
            shares.transmission,
            30.0,
        ),
        ("Server DAX write", bd.persist, shares.dax_write, 12.8),
    ];
    for (name, t, share, paper) in rows {
        println!(
            "{:<24} {:>10.3} {:>9.1}% {:>7.1}%",
            name,
            t.as_secs_f64(),
            share * 100.0,
            paper
        );
    }
    println!(
        "{:<24} {:>10.3}   (+{:.3}s metadata)",
        "total (4 phases)",
        (bd.gpu_copy + bd.serialize + bd.transmit + bd.persist).as_secs_f64(),
        bd.metadata.as_secs_f64()
    );

    let path = portus_bench::write_experiment(
        "table1_breakdown",
        &serde_json::json!({
            "gpu_to_dram": { "seconds": bd.gpu_copy.as_secs_f64(), "share": shares.gpu_to_dram, "paper_share": 0.155 },
            "serialization": { "seconds": bd.serialize.as_secs_f64(), "share": shares.serialization, "paper_share": 0.417 },
            "transmission": { "seconds": bd.transmit.as_secs_f64(), "share": shares.transmission, "paper_share": 0.300 },
            "dax_write": { "seconds": bd.persist.as_secs_f64(), "share": shares.dax_write, "paper_share": 0.128 },
            "metadata_seconds": bd.metadata.as_secs_f64(),
        }),
    );
    println!("\nwrote {}", path.display());
}
