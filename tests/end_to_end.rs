//! End-to-end integration: register → checkpoint → restore across the
//! full stack (client, control channel, fabric, daemon, persistent
//! index, PMem), with real bytes verified at every step.

use std::sync::Arc;

use portus::{DaemonConfig, PortusClient, PortusDaemon, PortusError};
use portus_dnn::{test_spec, Materialization, ModelInstance, TensorMeta};
use portus_mem::GpuDevice;
use portus_pmem::{PmemDevice, PmemMode};
use portus_rdma::{Fabric, NodeId};
use portus_sim::SimContext;

struct Deployment {
    ctx: SimContext,
    fabric: Fabric,
    daemon: Arc<PortusDaemon>,
    gpu: Arc<GpuDevice>,
}

fn deploy(pmem_bytes: u64) -> Deployment {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, pmem_bytes);
    let daemon =
        PortusDaemon::start(&fabric, NodeId(1), pmem, DaemonConfig::default()).expect("daemon");
    let gpu = GpuDevice::new(ctx.clone(), 0, 4 << 30);
    Deployment {
        ctx,
        fabric,
        daemon,
        gpu,
    }
}

impl Deployment {
    fn client(&self) -> PortusClient {
        PortusClient::connect(&self.daemon, self.fabric.nic(NodeId(0)).unwrap())
    }
}

#[test]
fn checkpoint_restore_round_trip() {
    let d = deploy(256 << 20);
    let spec = test_spec("rt", 12, 512 * 1024);
    let mut model = ModelInstance::materialize(&spec, &d.gpu, 3, Materialization::Owned).unwrap();
    let client = d.client();
    client.register_model(&model).unwrap();

    model.train_step();
    let want = model.model_checksum();
    let report = client.checkpoint("rt").unwrap();
    assert_eq!(report.version, 1);
    assert_eq!(report.bytes, spec.total_bytes());
    assert!(report.elapsed.as_nanos() > 0);

    model.train_step();
    model.train_step();
    assert_ne!(model.model_checksum(), want);
    let restore = client.restore(&model).unwrap();
    assert_eq!(restore.version, 1);
    assert_eq!(model.model_checksum(), want);
}

#[test]
fn successive_versions_alternate_slots_and_restore_latest() {
    let d = deploy(256 << 20);
    let spec = test_spec("versions", 6, 256 * 1024);
    let mut model = ModelInstance::materialize(&spec, &d.gpu, 9, Materialization::Owned).unwrap();
    let client = d.client();
    client.register_model(&model).unwrap();

    let mut states = Vec::new();
    for v in 1..=5u64 {
        model.train_step();
        states.push(model.model_checksum());
        let r = client.checkpoint("versions").unwrap();
        assert_eq!(r.version, v);
    }
    // Always exactly 2 valid versions on PMem after the second one.
    let summary = &client.list_models().unwrap()[0];
    assert_eq!(summary.valid_versions, 2);
    assert_eq!(summary.latest_version, Some(5));

    model.train_step();
    let r = client.restore(&model).unwrap();
    assert_eq!(r.version, 5);
    assert_eq!(model.model_checksum(), states[4]);
}

#[test]
fn restore_without_checkpoint_fails_cleanly() {
    let d = deploy(64 << 20);
    let spec = test_spec("empty", 3, 4096);
    let model = ModelInstance::materialize(&spec, &d.gpu, 0, Materialization::Owned).unwrap();
    let client = d.client();
    client.register_model(&model).unwrap();
    let err = client.restore(&model).unwrap_err();
    assert!(
        matches!(&err, PortusError::NoValidCheckpoint(m) if m == "empty"),
        "got: {err}"
    );
}

#[test]
fn unknown_model_checkpoint_fails() {
    let d = deploy(64 << 20);
    let client = d.client();
    let err = client.checkpoint("never-registered").unwrap_err();
    assert!(
        matches!(&err, PortusError::ModelNotFound(m) if m == "never-registered"),
        "got: {err}"
    );
}

#[test]
fn reregistration_with_different_structure_is_rejected() {
    let d = deploy(128 << 20);
    let spec = test_spec("strict", 4, 8192);
    let model = ModelInstance::materialize(&spec, &d.gpu, 1, Materialization::Owned).unwrap();
    let client = d.client();
    client.register_model(&model).unwrap();

    // Same name, different layer count.
    let other_spec = test_spec("strict", 5, 8192);
    let other = ModelInstance::materialize(&other_spec, &d.gpu, 1, Materialization::Owned).unwrap();
    let err = client.register_model(&other).unwrap_err();
    assert!(
        matches!(&err, PortusError::StructureMismatch(m) if m.contains("strict")),
        "got: {err}"
    );
}

#[test]
fn drop_model_frees_pmem_space() {
    let d = deploy(128 << 20);
    let free0 = d.daemon.index().allocator().free_bytes();
    let spec = test_spec("temp", 8, 1 << 20);
    let model = ModelInstance::materialize(&spec, &d.gpu, 1, Materialization::Owned).unwrap();
    let client = d.client();
    client.register_model(&model).unwrap();
    client.checkpoint("temp").unwrap();
    assert!(d.daemon.index().allocator().free_bytes() < free0);

    client.drop_model("temp").unwrap();
    assert_eq!(d.daemon.index().allocator().free_bytes(), free0);
    assert!(client.list_models().unwrap().is_empty());
    // Checkpointing a dropped model fails.
    assert!(client.checkpoint("temp").is_err());
}

#[test]
fn per_tensor_content_is_exact_on_pmem() {
    // Inspect TensorData directly: each tensor's bytes on PMem equal
    // the GPU bytes, at the recorded per-tensor offsets.
    let d = deploy(128 << 20);
    let spec = test_spec("exact", 5, 64 * 1024);
    let mut model = ModelInstance::materialize(&spec, &d.gpu, 77, Materialization::Owned).unwrap();
    let client = d.client();
    client.register_model(&model).unwrap();
    model.train_step();
    client.checkpoint("exact").unwrap();

    let index = d.daemon.index();
    let (_, off) = index.live_entries().unwrap()[0];
    let mi = index.load_mindex(off).unwrap();
    let (_, hdr) = mi.latest_done().unwrap();
    for (rec, tensor) in mi.tensors.iter().zip(model.tensors()) {
        let mut pmem_bytes = vec![0u8; rec.meta.size_bytes() as usize];
        index
            .device()
            .read(hdr.data_off + rec.rel_off, &mut pmem_bytes)
            .unwrap();
        assert_eq!(
            pmem_bytes,
            tensor.buffer.to_vec(),
            "tensor {} differs on PMem",
            rec.meta.name
        );
    }
}

#[test]
fn registration_survives_metadata_round_trip() {
    // The daemon's persistent tensor records must reproduce the exact
    // metadata the client registered (names, dtypes, shapes).
    let d = deploy(64 << 20);
    let spec = portus_dnn::ModelSpec::new(
        "meta",
        vec![
            TensorMeta::new("embed.weight", portus_dnn::DType::F32, vec![512, 64]),
            TensorMeta::new("ln.bias", portus_dnn::DType::F16, vec![64]),
            TensorMeta::new("head.weight", portus_dnn::DType::BF16, vec![10, 64]),
        ],
    );
    let model = ModelInstance::materialize(&spec, &d.gpu, 4, Materialization::Owned).unwrap();
    let client = d.client();
    client.register_model(&model).unwrap();

    let index = d.daemon.index();
    let (_, off) = index.live_entries().unwrap()[0];
    let mi = index.load_mindex(off).unwrap();
    assert_eq!(mi.name, "meta");
    for (rec, meta) in mi.tensors.iter().zip(&spec.tensors) {
        assert_eq!(&rec.meta, meta);
    }
    let _ = d.ctx; // deployment keeps the context alive
}

#[test]
fn checkpoint_of_updated_model_differs_from_previous_version() {
    let d = deploy(128 << 20);
    let spec = test_spec("diff", 4, 128 * 1024);
    let mut model = ModelInstance::materialize(&spec, &d.gpu, 5, Materialization::Owned).unwrap();
    let client = d.client();
    client.register_model(&model).unwrap();

    client.checkpoint("diff").unwrap();
    let index = d.daemon.index();
    let (_, off) = index.live_entries().unwrap()[0];
    let mi1 = index.load_mindex(off).unwrap();
    let (s1, h1) = mi1.latest_done().unwrap();
    let d1 = index.slot_digest(&mi1, s1).unwrap();
    assert_eq!(d1, h1.digest);

    model.train_step();
    client.checkpoint("diff").unwrap();
    let mi2 = index.load_mindex(off).unwrap();
    let (s2, h2) = mi2.latest_done().unwrap();
    assert_ne!(s1, s2, "new version must land in the other slot");
    assert_eq!(index.slot_digest(&mi2, s2).unwrap(), h2.digest);
    assert_ne!(h1.digest, h2.digest, "content changed, digest must too");
}
