//! Incremental checkpointing of an embedding-heavy recommender.
//!
//! Recommendation models (Check-N-Run's domain, which the paper
//! contrasts with) update only a few embedding shards per batch. The
//! delta extension exploits that. Each delta lands in the slot that
//! holds the version before the previous one, so it pulls over the
//! fabric only what that slot lacks: its own dirty shards and the
//! previous delta's. Everything else stays in place, and nothing is
//! copied on the CPU. The first delta after a full version lands in the
//! empty slot, so it pulls everything.
//!
//! Run with: `cargo run --release --example recommender_delta`

use portus::{DaemonConfig, PortusClient, PortusDaemon};
use portus_dnn::{DType, Materialization, ModelInstance, ModelSpec, TensorMeta};
use portus_mem::GpuDevice;
use portus_pmem::{PmemDevice, PmemMode};
use portus_rdma::{Fabric, NodeId};
use portus_sim::SimContext;

fn recommender_spec() -> ModelSpec {
    // 16 embedding shards of 4 MiB plus a small dense tower.
    let mut tensors: Vec<TensorMeta> = (0..16)
        .map(|i| TensorMeta::new(format!("embedding.shard{i}"), DType::F32, vec![16384, 64]))
        .collect();
    tensors.push(TensorMeta::new(
        "dense.fc1.weight",
        DType::F32,
        vec![512, 64],
    ));
    tensors.push(TensorMeta::new(
        "dense.fc2.weight",
        DType::F32,
        vec![64, 512],
    ));
    ModelSpec::new("dlrm-mini", tensors)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let spec = recommender_spec();
    let pmem = PmemDevice::new(
        ctx.clone(),
        PmemMode::DevDax,
        4 * spec.total_bytes() + (64 << 20),
    );
    let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem, DaemonConfig::default())?;
    let gpu = GpuDevice::new(ctx.clone(), 0, 2 << 30);
    let mut model = ModelInstance::materialize(&spec, &gpu, 2026, Materialization::Owned)?;
    let client = PortusClient::connect(&daemon, compute);
    client.register_model(&model)?;
    println!(
        "{}: {} tensors, {:.1} MiB total ({} embedding shards)",
        spec.name,
        spec.layer_count(),
        spec.total_bytes() as f64 / (1 << 20) as f64,
        16
    );

    // First version is necessarily full.
    model.train_step();
    model.take_dirty();
    let full = client.checkpoint(&spec.name)?;
    println!(
        "v1 (full): {} bytes over the fabric in {}",
        full.bytes, full.elapsed
    );

    // Ten sparse batches: each touches 2 embedding shards + the dense
    // tower (indices 16, 17).
    let mib = |b: u64| b as f64 / (1 << 20) as f64;
    let (mut fabric_bytes, mut reused) = (0u64, 0u64);
    let mut delta_time = portus_sim::SimDuration::ZERO;
    for batch in 0..10usize {
        model.train_step_sparse(&[batch % 16, (batch + 7) % 16, 16, 17]);
        let dirty = model.take_dirty();
        let r = client.checkpoint_delta(&spec.name, &dirty)?;
        fabric_bytes += r.pulled_bytes;
        reused += r.reused_bytes;
        delta_time += r.elapsed;
        println!(
            "v{} (delta): pulled {:.1} MiB, left {:.1} MiB in place, in {}",
            r.version,
            mib(r.pulled_bytes),
            mib(r.reused_bytes),
            r.elapsed
        );
    }
    println!(
        "10 delta checkpoints: {:.1} MiB over the fabric, {:.1} MiB left in place \
         ({:.0}% network savings vs full checkpoints), {} per delta",
        mib(fabric_bytes),
        mib(reused),
        100.0 * (1.0 - fabric_bytes as f64 / (10.0 * spec.total_bytes() as f64)),
        delta_time / 10,
    );

    // Every delta version is a complete snapshot: restore and verify.
    let want = model.model_checksum();
    model.train_step();
    let r = client.restore(&model)?;
    assert_eq!(model.model_checksum(), want);
    println!("restored v{} bit-for-bit", r.version);
    Ok(())
}
