//! Edge cases across the stack: degenerate models, capacity limits,
//! oversized tensor descriptors, and contended same-model operations.

use std::sync::Arc;
use std::time::Duration;

use portus::{
    ClientEndpoints, DaemonConfig, Done, PortusClient, PortusDaemon, PortusError, PortusResult,
    Request, TensorDesc,
};
use portus_dnn::{test_spec, DType, Materialization, ModelInstance, ModelSpec, TensorMeta};
use portus_mem::GpuDevice;
use portus_pmem::{PmemDevice, PmemError, PmemMode};
use portus_rdma::{Fabric, NodeId};
use portus_sim::SimContext;

struct World {
    fabric: Fabric,
    daemon: Arc<PortusDaemon>,
    gpu: Arc<GpuDevice>,
}

fn world(cfg: DaemonConfig, pmem_bytes: u64) -> World {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, pmem_bytes);
    let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem, cfg).unwrap();
    let gpu = GpuDevice::new(ctx, 0, 1 << 30);
    World {
        fabric,
        daemon,
        gpu,
    }
}

#[test]
fn single_scalar_tensor_model() {
    let w = world(DaemonConfig::default(), 32 << 20);
    let spec = ModelSpec::new("scalar", vec![TensorMeta::new("step", DType::I64, vec![])]);
    let mut model = ModelInstance::materialize(&spec, &w.gpu, 1, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    client.register_model(&model).unwrap();
    model.train_step();
    let want = model.model_checksum();
    let r = client.checkpoint("scalar").unwrap();
    assert_eq!(r.bytes, 8);
    model.train_step();
    client.restore(&model).unwrap();
    assert_eq!(model.model_checksum(), want);
}

#[test]
fn mixed_dtype_model_round_trips() {
    let w = world(DaemonConfig::default(), 32 << 20);
    let spec = ModelSpec::new(
        "mixed",
        vec![
            TensorMeta::new("w.f16", DType::F16, vec![33, 7]),
            TensorMeta::new("w.f64", DType::F64, vec![5]),
            TensorMeta::new("w.u8", DType::U8, vec![1023]),
            TensorMeta::new("w.i32", DType::I32, vec![2, 2, 2, 2]),
        ],
    );
    let mut model = ModelInstance::materialize(&spec, &w.gpu, 2, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    client.register_model(&model).unwrap();
    model.train_step();
    let want = model.tensor_checksums();
    client.checkpoint("mixed").unwrap();
    model.train_step();
    client.restore(&model).unwrap();
    assert_eq!(model.tensor_checksums(), want);
}

#[test]
fn pmem_exhaustion_is_a_clean_daemon_error() {
    // Device too small for two slots of this model.
    let w = world(DaemonConfig::default(), 8 << 20);
    let spec = test_spec("hog", 2, 4 << 20); // 8 MiB payload, 16 MiB needed
    let model = ModelInstance::materialize(&spec, &w.gpu, 3, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    let err = client.register_model(&model).unwrap_err();
    assert!(
        matches!(err, PortusError::Pmem(PmemError::OutOfSpace { .. })),
        "got: {err:?}"
    );
    // The daemon is still healthy for smaller models.
    let small = test_spec("small", 2, 64 * 1024);
    let small_model =
        ModelInstance::materialize(&small, &w.gpu, 4, Materialization::Owned).unwrap();
    client.register_model(&small_model).unwrap();
    client.checkpoint("small").unwrap();
}

#[test]
fn model_table_capacity_is_enforced() {
    let cfg = DaemonConfig {
        table_capacity: 2,
        ..DaemonConfig::default()
    };
    let w = world(cfg, 64 << 20);
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    for i in 0..2 {
        let spec = test_spec(&format!("m{i}"), 2, 4096);
        let m = ModelInstance::materialize(&spec, &w.gpu, i, Materialization::Owned).unwrap();
        client.register_model(&m).unwrap();
    }
    let spec = test_spec("overflow", 2, 4096);
    let m = ModelInstance::materialize(&spec, &w.gpu, 9, Materialization::Owned).unwrap();
    let err = client.register_model(&m).unwrap_err();
    assert!(
        matches!(err, PortusError::CatalogFull { capacity: 2 }),
        "got: {err}"
    );
    // Dropping frees a table slot.
    client.drop_model("m0").unwrap();
    client.register_model(&m).unwrap();
}

#[test]
fn concurrent_checkpoints_of_the_same_model_serialize_safely() {
    // Two clients race checkpoints of one model; the per-model lock
    // must keep versions sequential and both slots valid.
    let w = world(DaemonConfig::default(), 128 << 20);
    let spec = test_spec("contested", 6, 256 * 1024);
    let model = ModelInstance::materialize(&spec, &w.gpu, 5, Materialization::Owned).unwrap();
    let c1 = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    let c2 = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    c1.register_model(&model).unwrap();
    c2.register_model(&model).unwrap(); // same structure: accepted

    std::thread::scope(|s| {
        let h1 = s.spawn(|| {
            (0..4)
                .map(|_| c1.checkpoint("contested").unwrap().version)
                .collect::<Vec<_>>()
        });
        let h2 = s.spawn(|| {
            (0..4)
                .map(|_| c2.checkpoint("contested").unwrap().version)
                .collect::<Vec<_>>()
        });
        let mut versions: Vec<u64> = h1.join().unwrap();
        versions.extend(h2.join().unwrap());
        versions.sort_unstable();
        assert_eq!(
            versions,
            (1..=8).collect::<Vec<u64>>(),
            "versions must be unique and dense"
        );
    });

    let summary = &c1.list_models().unwrap()[0];
    assert_eq!(summary.latest_version, Some(8));
    assert_eq!(summary.valid_versions, 2);
    // Restore still verifies (checksum) under all that churn.
    c1.restore(&model).unwrap();
}

#[test]
fn checkpoint_restore_checkpoint_interleaving() {
    // Restoring between checkpoints must not disturb the slot rotation.
    let w = world(DaemonConfig::default(), 64 << 20);
    let spec = test_spec("interleave", 3, 64 * 1024);
    let mut model = ModelInstance::materialize(&spec, &w.gpu, 6, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    client.register_model(&model).unwrap();

    for v in 1..=4u64 {
        model.train_step();
        let r = client.checkpoint("interleave").unwrap();
        assert_eq!(r.version, v);
        let rr = client.restore(&model).unwrap();
        assert_eq!(rr.version, v);
    }
}

/// An F32 tensor of 2^62 elements: its byte size saturates to
/// `u64::MAX`, and two of them overflow any plain sum.
fn oversized(name: &str) -> TensorDesc {
    TensorDesc {
        name: name.to_string(),
        dtype: DType::F32,
        shape: vec![1 << 62],
        rkey: 0,
    }
}

/// Sends `req` over a raw connection and returns the daemon's result,
/// failing the test if no reply arrives within 10 s of host time.
fn raw_reply(raw: &ClientEndpoints, req: Request) -> PortusResult<Done> {
    let req_id = req.req_id().expect("request carries an id");
    raw.requests.send(req).unwrap();
    let reply = raw
        .replies
        .recv_timeout(Duration::from_secs(10))
        .unwrap()
        .expect("no reply within 10 s");
    assert_eq!(reply.req_id, req_id);
    reply.result
}

/// The daemon still serves a normal register and checkpoint, and the
/// raw connection still answers a control-plane request.
fn assert_daemon_serves(w: &World, raw: &ClientEndpoints) {
    let reply = raw_reply(raw, Request::List { req_id: 99 });
    assert!(matches!(reply, Ok(Done::Models(_))), "got: {reply:?}");
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    let spec = test_spec("normal", 2, 64 * 1024);
    let mut model = ModelInstance::materialize(&spec, &w.gpu, 5, Materialization::Owned).unwrap();
    client.register_model(&model).unwrap();
    model.train_step();
    let want = model.model_checksum();
    client.checkpoint("normal").unwrap();
    model.train_step();
    client.restore(&model).unwrap();
    assert_eq!(model.model_checksum(), want);
}

#[test]
fn registering_two_oversized_tensors_is_a_typed_error() {
    let w = world(DaemonConfig::default(), 32 << 20);
    let raw = w.daemon.accept(w.fabric.nic(NodeId(0)).unwrap());
    let reply = raw_reply(
        &raw,
        Request::Register {
            req_id: 1,
            model: "huge".into(),
            tensors: vec![oversized("a"), oversized("b")],
        },
    );
    assert!(
        matches!(&reply, Err(PortusError::StructureMismatch(m)) if m.contains("huge")),
        "expected a structure-mismatch error, got {reply:?}"
    );
    assert_daemon_serves(&w, &raw);
}

#[test]
fn registering_one_oversized_tensor_is_out_of_space() {
    let w = world(DaemonConfig::default(), 32 << 20);
    let raw = w.daemon.accept(w.fabric.nic(NodeId(0)).unwrap());
    let used = w.daemon.index().allocator().used_bytes();
    let reply = raw_reply(
        &raw,
        Request::Register {
            req_id: 1,
            model: "huge".into(),
            tensors: vec![oversized("a")],
        },
    );
    assert!(
        matches!(reply, Err(PortusError::Pmem(PmemError::OutOfSpace { .. }))),
        "expected an out-of-space error, got {reply:?}"
    );
    // The model's index record allocated before the failure is freed.
    assert_eq!(w.daemon.index().allocator().used_bytes(), used);
    assert_daemon_serves(&w, &raw);
}

#[test]
fn restoring_into_oversized_tensors_is_an_error_not_a_dead_connection() {
    let w = world(DaemonConfig::default(), 32 << 20);
    let raw = w.daemon.accept(w.fabric.nic(NodeId(0)).unwrap());
    let reply = raw_reply(
        &raw,
        Request::Restore {
            req_id: 1,
            model: "huge".into(),
            tensors: vec![oversized("a"), oversized("b")],
            version: None,
        },
    );
    assert!(
        matches!(&reply, Err(PortusError::ModelNotFound(m)) if m == "huge"),
        "got: {reply:?}"
    );
    assert_daemon_serves(&w, &raw);
}
