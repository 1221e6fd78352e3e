//! Distributed model-parallel checkpointing (§V-E): a model sharded
//! Megatron-style across many GPUs/nodes, every shard checkpointing to
//! one daemon, and the whole model reassembling exactly on restore.

use std::sync::Arc;

use portus::{DaemonConfig, PortusClient, PortusDaemon};
use portus_dnn::{shard_model, zoo, Materialization, ModelInstance, ParallelConfig};
use portus_mem::GpuDevice;
use portus_pmem::{PmemDevice, PmemMode};
use portus_rdma::{Fabric, NodeId};
use portus_sim::SimContext;

#[test]
fn sharded_model_checkpoints_and_reassembles() {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let storage = NodeId(100);
    fabric.add_nic(storage);
    // A scaled GPT: same Megatron layout, small hidden size.
    let spec = zoo::gpt_with("gpt-test", 128, 4, 1024);
    let cfg = ParallelConfig::grid(2, 2);
    let shards = shard_model(&spec, cfg);
    assert_eq!(shards.len(), 4);

    let pmem = PmemDevice::new(
        ctx.clone(),
        PmemMode::DevDax,
        4 * spec.total_bytes() + (64 << 20),
    );
    let daemon = PortusDaemon::start(&fabric, storage, pmem, DaemonConfig::default()).unwrap();

    // One GPU + client per shard, two shards per "node".
    let mut tenants = Vec::new();
    for (rank, shard) in shards.iter().enumerate() {
        let node = NodeId((rank / 2) as u32);
        let nic = fabric.nic(node).unwrap_or_else(|_| fabric.add_nic(node));
        let gpu = GpuDevice::new(ctx.clone(), rank as u32, 2 << 30);
        let mut model =
            ModelInstance::materialize(&shard.spec, &gpu, rank as u64, Materialization::Owned)
                .unwrap();
        let client = PortusClient::connect(&daemon, nic);
        client.register_model(&model).unwrap();
        model.train_step();
        tenants.push((client, model, Arc::clone(&gpu)));
    }

    // Concurrent checkpoint of all shards (async issue + wait).
    let pending: Vec<_> = tenants
        .iter()
        .map(|(client, model, _)| {
            let name = model.spec().name.clone();
            let p = client.checkpoint_async(&name).unwrap();
            (client, name, p)
        })
        .collect();
    let mut total = 0u64;
    for (client, name, p) in pending {
        total += client.wait_checkpoint(&name, p).unwrap().bytes;
    }
    assert_eq!(
        total,
        spec.total_bytes(),
        "shards cover the whole model exactly"
    );

    // Record per-shard state, diverge everything, restore everything.
    let want: Vec<u64> = tenants.iter().map(|(_, m, _)| m.model_checksum()).collect();
    for (_, model, _) in tenants.iter_mut() {
        model.train_step();
    }
    for ((client, model, _), want) in tenants.iter().zip(&want) {
        client.restore(model).unwrap();
        assert_eq!(model.model_checksum(), *want, "shard {}", model.spec().name);
    }

    // Daemon view: one MIndex per shard.
    let stored = daemon.summaries().unwrap();
    assert_eq!(stored.len(), 4);
    for m in &stored {
        assert!(m.name.starts_with("gpt-test/pp"));
        assert_eq!(m.latest_version, Some(1));
    }
}

#[test]
fn shard_pulls_serialize_on_the_storage_nic() {
    // Concurrent shard pulls contend for the storage node's single
    // RNIC: total virtual time must be near the serialized sum of
    // transfers (the effect that caps distributed Portus at the BAR
    // rate in Fig. 14).
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let storage = NodeId(100);
    fabric.add_nic(storage);
    let spec = zoo::gpt_with("contend", 128, 2, 512);
    let shards = shard_model(&spec, ParallelConfig::grid(4, 1));
    let pmem = PmemDevice::new(
        ctx.clone(),
        PmemMode::DevDax,
        4 * spec.total_bytes() + (64 << 20),
    );
    let daemon = PortusDaemon::start(&fabric, storage, pmem, DaemonConfig::default()).unwrap();

    let mut tenants = Vec::new();
    for (rank, shard) in shards.iter().enumerate() {
        let nic = fabric.add_nic(NodeId(rank as u32));
        let gpu = GpuDevice::new(ctx.clone(), rank as u32, 1 << 30);
        let model =
            ModelInstance::materialize(&shard.spec, &gpu, rank as u64, Materialization::Owned)
                .unwrap();
        let client = PortusClient::connect(&daemon, nic);
        client.register_model(&model).unwrap();
        tenants.push((client, model));
    }

    let nic = fabric.nic(storage).unwrap();
    let busy_before = nic.engine(0).total_busy_time();
    let pending: Vec<_> = tenants
        .iter()
        .map(|(client, model)| {
            let name = model.spec().name.clone();
            let p = client.checkpoint_async(&name).unwrap();
            (client, name, p)
        })
        .collect();
    for (client, name, p) in pending {
        client.wait_checkpoint(&name, p).unwrap();
    }
    let busy = nic.engine(0).total_busy_time() - busy_before;
    // Every shard's bytes went through the one NIC.
    let min_transfer = portus_sim::SimDuration::from_secs_f64(
        spec.total_bytes() as f64 / ctx.model.gpu_bar_read_bw,
    );
    assert!(
        busy >= min_transfer,
        "storage NIC busy {busy} < serialized transfer bound {min_transfer}"
    );
}

#[test]
fn data_parallel_replicas_checkpoint_once() {
    // dp > 1 replicates state; only tensor x pipeline shards checkpoint.
    let spec = zoo::gpt_with("dp", 64, 2, 256);
    let cfg = ParallelConfig {
        tensor: 2,
        pipeline: 2,
        data: 2,
    };
    assert_eq!(cfg.gpu_count(), 8);
    assert_eq!(cfg.checkpointing_shards(), 4);
    let shards = shard_model(&spec, cfg);
    assert_eq!(shards.len(), 4, "replicas do not multiply shards");
    let total: u64 = shards.iter().map(|s| s.spec.total_bytes()).sum();
    assert_eq!(total, spec.total_bytes());
}
