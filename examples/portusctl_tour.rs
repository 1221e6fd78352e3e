//! A tour of `portusctl` (§IV-b): checkpoint two models, image the PMem
//! device to a file (as if it were `/dev/dax0.0`), then `view` the
//! image and `dump` a checkpoint into the portable container format —
//! verifying the dumped tensors match the GPU originals. A second
//! device runs the dedup tier, where a checkpoint is stored as shared
//! extents rather than one region; its dump must match the GPU too.
//!
//! Run with: `cargo run --example portusctl_tour`

use std::path::Path;

use portus::{portusctl, DaemonConfig, DedupConfig, PortusClient, PortusDaemon};
use portus_dnn::{test_spec, Materialization, ModelInstance};
use portus_format::read_checkpoint;
use portus_mem::GpuDevice;
use portus_pmem::{save_image, PmemDevice, PmemMode};
use portus_rdma::{Fabric, NodeId};
use portus_sim::SimContext;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute_nic = fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 128 << 20);
    let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem.clone(), DaemonConfig::default())?;

    // Checkpoint two different models (a multi-tenant device).
    let gpu = GpuDevice::new(ctx.clone(), 0, 1 << 30);
    let client = PortusClient::connect(&daemon, compute_nic);
    let mut originals = Vec::new();
    for (name, layers) in [("bert-mini", 12), ("vit-mini", 8)] {
        let spec = test_spec(name, layers, 256 * 1024);
        let mut model = ModelInstance::materialize(&spec, &gpu, 5, Materialization::Owned)?;
        client.register_model(&model)?;
        model.train_step();
        client.checkpoint(name)?;
        client.mark_complete(name)?; // training done: shareable
        originals.push(model);
    }

    // Image the device (durable content only, like pulling the DIMMs).
    let dir = std::env::temp_dir().join("portusctl-tour");
    std::fs::create_dir_all(&dir)?;
    let image = dir.join("pmem.img");
    save_image(&pmem, &image)?;
    println!("imaged PMem device to {}", image.display());

    // portusctl view IMAGE
    let models = portusctl::view(&image)?;
    print!("{}", portusctl::render_view(&models));
    assert_eq!(models.len(), 2);

    // portusctl dump IMAGE MODEL FILE
    let out = dir.join("bert-mini.ckpt");
    let report = portusctl::dump(&image, "bert-mini", &out)?;
    println!(
        "dumped {} v{} ({} tensors, {} bytes) to {}",
        report.model,
        report.version,
        report.tensors,
        report.bytes,
        out.display()
    );

    // The dump is a plain portable container: verify against the GPU.
    verify_dump(&out, "bert-mini", &originals[0])?;
    println!("dumped container verified against the live GPU tensors");

    // A dedup daemon on its own device: the checkpoint lands as
    // content-addressed extents, and dump reads it through them.
    let dedup_pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 128 << 20);
    let dedup_nic = NodeId(2);
    fabric.add_nic(dedup_nic);
    let cfg = DaemonConfig {
        dedup: Some(DedupConfig::default()),
        ..DaemonConfig::default()
    };
    let dedup_daemon = PortusDaemon::start(&fabric, dedup_nic, dedup_pmem.clone(), cfg)?;
    let dedup_client = PortusClient::connect(&dedup_daemon, fabric.nic(NodeId(0))?);
    let spec = test_spec("gpt-mini", 6, 96 * 1024);
    let mut model = ModelInstance::materialize(&spec, &gpu, 9, Materialization::Owned)?;
    dedup_client.register_model(&model)?;
    model.train_step();
    dedup_client.checkpoint("gpt-mini")?;
    let store = dedup_daemon.index().extent_store().expect("dedup tier on");
    assert!(
        store.stats()?.live > 0,
        "the checkpoint is stored as extents"
    );
    let dedup_image = dir.join("pmem-dedup.img");
    save_image(&dedup_pmem, &dedup_image)?;
    let out = dir.join("gpt-mini.ckpt");
    let report = portusctl::dump(&dedup_image, "gpt-mini", &out)?;
    verify_dump(&out, "gpt-mini", &model)?;
    println!(
        "dumped dedup checkpoint {} v{} ({} bytes) verified against the GPU",
        report.model, report.version, report.bytes
    );

    std::fs::remove_dir_all(&dir).ok();
    Ok(())
}

/// Decodes the container at `path` and asserts it holds `model`'s live
/// GPU tensors, bit for bit.
fn verify_dump(
    path: &Path,
    name: &str,
    model: &ModelInstance,
) -> Result<(), Box<dyn std::error::Error>> {
    let decoded = read_checkpoint(&std::fs::read(path)?[..])?;
    assert_eq!(decoded.model_name, name);
    assert_eq!(decoded.tensors.len(), model.tensors().len());
    for ((meta, payload), tensor) in decoded.tensors.iter().zip(model.tensors()) {
        assert_eq!(meta.name, tensor.meta.name);
        assert_eq!(
            payload,
            &tensor.buffer.to_vec(),
            "tensor {} differs",
            meta.name
        );
    }
    Ok(())
}
