//! Incremental (delta) checkpointing — the Check-N-Run-inspired
//! extension (DESIGN.md §8): dirty tensors cross the fabric, clean ones
//! the target slot already holds stay in place, and the result is a
//! complete version with unchanged crash-consistency guarantees.

use portus::{DaemonConfig, PortusClient, PortusDaemon};
use portus_dnn::{test_spec, Materialization, ModelInstance};
use portus_mem::GpuDevice;
use portus_pmem::{CrashSpec, PmemDevice, PmemMode};
use portus_rdma::{Fabric, NodeId};
use portus_sim::SimContext;

const LAYERS: usize = 8;
const LAYER_BYTES: u64 = 128 * 1024;

struct World {
    ctx: SimContext,
    fabric: Fabric,
    pmem: std::sync::Arc<PmemDevice>,
    daemon: std::sync::Arc<PortusDaemon>,
    gpu: std::sync::Arc<GpuDevice>,
}

fn world() -> World {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 128 << 20);
    let daemon =
        PortusDaemon::start(&fabric, NodeId(1), pmem.clone(), DaemonConfig::default()).unwrap();
    let gpu = GpuDevice::new(ctx.clone(), 0, 1 << 30);
    World {
        ctx,
        fabric,
        pmem,
        daemon,
        gpu,
    }
}

#[test]
fn delta_pulls_only_dirty_tensors() {
    let w = world();
    let spec = test_spec("delta", LAYERS, LAYER_BYTES);
    let mut model = ModelInstance::materialize(&spec, &w.gpu, 1, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    client.register_model(&model).unwrap();

    // Full baseline version (v1).
    model.train_step();
    model.take_dirty();
    client.checkpoint("delta").unwrap();

    // Sparse updates: only tensors 2 and 5 change, twice. The first
    // delta (v2) lands in the empty slot and pulls every tensor; the
    // second (v3) lands on v1, which still holds every tensor neither
    // delta dirtied.
    model.train_step_sparse(&[2, 5]);
    let dirty = model.take_dirty();
    client.checkpoint_delta("delta", &dirty).unwrap();
    model.train_step_sparse(&[2, 5]);
    let dirty = model.take_dirty();
    assert_eq!(dirty.iter().filter(|&&d| d).count(), 2);
    let want = model.model_checksum();

    let net_before = w.ctx.stats.snapshot();
    let report = client.checkpoint_delta("delta", &dirty).unwrap();
    let net = w.ctx.stats.snapshot().since(&net_before);

    assert_eq!(report.version, 3);
    assert_eq!(report.pulled_bytes, 2 * LAYER_BYTES);
    assert_eq!(report.copied_bytes, 0);
    assert_eq!(report.reused_bytes, (LAYERS as u64 - 2) * LAYER_BYTES);
    assert_eq!(
        net.bytes_over_network,
        2 * LAYER_BYTES,
        "only dirty bytes may cross the fabric"
    );
    assert_eq!(net.rdma_one_sided_ops, 2);

    // The delta version is a complete, restorable snapshot.
    model.train_step();
    let restore = client.restore(&model).unwrap();
    assert_eq!(restore.version, 3);
    assert_eq!(model.model_checksum(), want);
}

#[test]
fn first_delta_without_history_pulls_everything() {
    let w = world();
    let spec = test_spec("cold", 4, LAYER_BYTES);
    let mut model = ModelInstance::materialize(&spec, &w.gpu, 2, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    client.register_model(&model).unwrap();
    model.train_step_sparse(&[0]);
    let dirty = model.take_dirty(); // only tensor 0 flagged...
    let report = client.checkpoint_delta("cold", &dirty).unwrap();
    // ...but with no previous version everything must be pulled.
    assert_eq!(report.pulled_bytes, spec.total_bytes());
    assert_eq!(report.copied_bytes, 0);
    let _ = w.ctx;
}

#[test]
fn alternating_full_and_delta_versions_restore_correctly() {
    let w = world();
    let spec = test_spec("mix", LAYERS, LAYER_BYTES);
    let mut model = ModelInstance::materialize(&spec, &w.gpu, 3, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    client.register_model(&model).unwrap();

    let mut states = Vec::new();
    for round in 0..6u64 {
        if round % 2 == 0 {
            model.train_step();
            model.take_dirty();
            states.push(model.model_checksum());
            client.checkpoint("mix").unwrap();
        } else {
            model.train_step_sparse(&[(round as usize) % LAYERS]);
            let dirty = model.take_dirty();
            states.push(model.model_checksum());
            client.checkpoint_delta("mix", &dirty).unwrap();
        }
    }
    model.train_step();
    let r = client.restore(&model).unwrap();
    assert_eq!(r.version, 6);
    assert_eq!(model.model_checksum(), *states.last().unwrap());
}

#[test]
fn delta_mask_length_mismatch_is_rejected() {
    let w = world();
    let spec = test_spec("badmask", 4, 4096);
    let model = ModelInstance::materialize(&spec, &w.gpu, 4, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    client.register_model(&model).unwrap();
    client.checkpoint("badmask").unwrap();
    let err = client
        .checkpoint_delta("badmask", &[true, false])
        .unwrap_err();
    assert!(err.to_string().contains("mismatch"), "got: {err}");
}

#[test]
fn torn_delta_checkpoint_preserves_the_previous_version() {
    let w = world();
    let spec = test_spec("deltacrash", 4, 64 * 1024);
    let mut model = ModelInstance::materialize(&spec, &w.gpu, 5, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    client.register_model(&model).unwrap();
    model.train_step();
    model.take_dirty();
    let want = model.model_checksum();
    client.checkpoint("deltacrash").unwrap();

    // A delta checkpoint is in flight (slot Active, partial garbage)
    // when the power fails.
    let index = w.daemon.index();
    let (_, off) = index.live_entries().unwrap()[0];
    let mi = index.load_mindex(off).unwrap();
    let target = mi.target_slot();
    index.mark_slot_active(&mi, target, 2).unwrap();
    w.pmem
        .write(mi.slots[target].data_off, &[0xAB; 32 * 1024])
        .unwrap();
    drop(client);
    w.daemon.shutdown();
    w.pmem.crash(CrashSpec::Random { seed: 99 });

    let daemon2 = PortusDaemon::recover(
        &w.fabric,
        NodeId(1),
        w.pmem.clone(),
        DaemonConfig::default(),
    )
    .unwrap();
    let client2 = PortusClient::connect(&daemon2, w.fabric.nic(NodeId(0)).unwrap());
    client2.register_model(&model).unwrap();
    model.train_step();
    let r = client2.restore(&model).unwrap();
    assert_eq!(r.version, 1);
    assert_eq!(model.model_checksum(), want);
}

#[test]
fn delta_after_a_pinned_restore_snapshots_the_gpu_state() {
    let w = world();
    let spec = test_spec("pinned", 4, LAYER_BYTES);
    let mut model = ModelInstance::materialize(&spec, &w.gpu, 6, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    client.register_model(&model).unwrap();
    model.take_dirty();
    client.checkpoint("pinned").unwrap(); // v1
    model.train_step_sparse(&[0]);
    let dirty = model.take_dirty();
    client.checkpoint_delta("pinned", &dirty).unwrap(); // v2 changes t0

    // Roll the GPU back to v1: its t0 is now older than v2's.
    let r = client.restore_version(&model, Some(1)).unwrap();
    assert_eq!(r.version, 1);
    model.take_dirty();
    model.train_step_sparse(&[1]);
    let dirty = model.take_dirty();
    let want = model.model_checksum();
    let report = client.checkpoint_delta("pinned", &dirty).unwrap();
    assert_eq!(report.version, 3);
    // Nothing may stay in place: the mask only describes changes since
    // the restore.
    assert_eq!(report.pulled_bytes, spec.total_bytes());

    model.train_step();
    let r = client.restore(&model).unwrap();
    assert_eq!(r.version, 3);
    assert_eq!(model.model_checksum(), want, "v3 must be the GPU state");
}
