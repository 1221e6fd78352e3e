//! The Trainer integration layer under realistic workloads: sparse
//! (recommendation-style) updates with incremental checkpoints, and a
//! full train → crash → recover → train lifecycle.

use portus::{DaemonConfig, PortusClient, PortusDaemon};
use portus_dnn::{test_spec, IterationProfile, Materialization, ModelInstance};
use portus_mem::GpuDevice;
use portus_pmem::{CrashSpec, PmemDevice, PmemMode};
use portus_rdma::{Fabric, NodeId};
use portus_sim::{SimContext, SimDuration};
use portus_train::{TrainPolicy, Trainer};

const LAYERS: usize = 10;
const LAYER_BYTES: u64 = 128 * 1024;

struct World {
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
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 256 << 20);
    let daemon =
        PortusDaemon::start(&fabric, NodeId(1), pmem.clone(), DaemonConfig::default()).unwrap();
    let gpu = GpuDevice::new(ctx, 0, 1 << 30);
    World {
        fabric,
        pmem,
        daemon,
        gpu,
    }
}

fn make_trainer(w: &World, name: &str, policy: TrainPolicy) -> Trainer {
    let model = ModelInstance::materialize(
        &test_spec(name, LAYERS, LAYER_BYTES),
        &w.gpu,
        7,
        Materialization::Owned,
    )
    .unwrap();
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    Trainer::new(
        client,
        model,
        IterationProfile::from_total(SimDuration::from_millis(40)),
        policy,
    )
    .unwrap()
}

#[test]
fn sparse_workload_makes_delta_carry_over_pay() {
    // A recommendation-style workload: each "iteration" only touches a
    // couple of embedding shards. The Trainer's delta policy should
    // move only those over the fabric. We drive the model's sparse API
    // directly through the client (the Trainer's train_step is dense),
    // mirroring what an embedding-aware integration would do.
    let w = world();
    let mut model = ModelInstance::materialize(
        &test_spec("sparse-rec", LAYERS, LAYER_BYTES),
        &w.gpu,
        3,
        Materialization::Owned,
    )
    .unwrap();
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    client.register_model(&model).unwrap();

    // Full first version.
    model.train_step();
    model.take_dirty();
    client.checkpoint("sparse-rec").unwrap();

    let mut total_pulled = 0u64;
    let mut total_carried = 0u64;
    let mut total_reused = 0u64;
    for round in 0..5usize {
        // Touch two "embedding shards" per round.
        model.train_step_sparse(&[round % LAYERS, (round + 3) % LAYERS]);
        let dirty = model.take_dirty();
        let r = client.checkpoint_delta("sparse-rec", &dirty).unwrap();
        total_pulled += r.pulled_bytes;
        total_carried += r.copied_bytes;
        total_reused += r.reused_bytes;
    }
    assert_eq!(
        total_pulled,
        5 * 2 * LAYER_BYTES,
        "only touched shards cross"
    );
    // Every clean byte is either carried over or, from the second delta
    // on, left in place in a target slot that already holds it.
    assert_eq!(
        total_carried + total_reused,
        5 * (LAYERS as u64 - 2) * LAYER_BYTES
    );
    assert!(
        total_reused > 0,
        "steady-state deltas reuse their target slot"
    );

    // Final state restores exactly.
    let want = model.model_checksum();
    model.train_step();
    client.restore(&model).unwrap();
    assert_eq!(model.model_checksum(), want);
}

#[test]
fn trainer_survives_daemon_crash_and_recovery() {
    let w = world();
    let mut t = make_trainer(&w, "lifecycle", TrainPolicy::Sync { every: 10 });
    t.run(25).unwrap();
    let durable_step = t.last_durable_step();
    assert_eq!(durable_step, 20);

    // Storage-node power failure + daemon restart on the same PMem.
    w.pmem.crash(CrashSpec::Random { seed: 1234 });
    let daemon2 = PortusDaemon::recover(
        &w.fabric,
        NodeId(1),
        w.pmem.clone(),
        DaemonConfig::default(),
    )
    .unwrap();

    // The trainer reconnects (new client), re-registers, recovers.
    let model = ModelInstance::materialize(
        &test_spec("lifecycle", LAYERS, LAYER_BYTES),
        &w.gpu,
        7,
        Materialization::Owned,
    )
    .unwrap();
    let client2 = PortusClient::connect(&daemon2, w.fabric.nic(NodeId(0)).unwrap());
    let mut t2 = Trainer::new(
        client2,
        model,
        IterationProfile::from_total(SimDuration::from_millis(40)),
        TrainPolicy::Sync { every: 10 },
    )
    .unwrap();
    // Fresh trainer doesn't know history; recover() pulls the durable
    // version and reports zero *local* loss (its own counter was 0).
    t2.recover().unwrap();
    // Training continues; versions keep increasing on the daemon.
    t2.run(10).unwrap();
    let listed = daemon2.summaries().unwrap();
    assert_eq!(
        listed[0].latest_version,
        Some(3),
        "v1, v2 pre-crash, v3 after"
    );
}

#[test]
fn async_trainer_matches_sync_final_state() {
    let w = world();
    let mut sync = make_trainer(&w, "twin-sync", TrainPolicy::Sync { every: 4 });
    let mut asy = make_trainer(&w, "twin-async", TrainPolicy::Async { every: 4 });
    sync.run(16).unwrap();
    asy.run(16).unwrap();
    // Identical seeds + identical update sequences => identical states.
    assert_eq!(sync.model().model_checksum(), asy.model().model_checksum());
    assert_eq!(sync.last_durable_step(), asy.last_durable_step());
}

#[test]
fn two_trainers_share_one_daemon() {
    let w = world();
    let mut a = make_trainer(&w, "share-a", TrainPolicy::Sync { every: 3 });
    let mut b = make_trainer(&w, "share-b", TrainPolicy::Delta { every: 3 });
    a.run(9).unwrap();
    b.run(9).unwrap();
    let names: Vec<String> = w
        .daemon
        .summaries()
        .unwrap()
        .into_iter()
        .map(|m| m.name)
        .collect();
    assert_eq!(names, vec!["share-a", "share-b"]);
}
