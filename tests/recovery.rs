//! Daemon restart and recovery: the persistent index is the only
//! source of truth; ModelMap, sessions, and versions must all come
//! back from PMem alone.

use portus::{repack, DaemonConfig, PortusClient, PortusDaemon, PortusError};
use portus_dnn::{test_spec, Materialization, ModelInstance};
use portus_mem::GpuDevice;
use portus_pmem::{CrashSpec, PmemDevice, PmemMode};
use portus_rdma::{Fabric, NodeId};
use portus_sim::SimContext;

#[test]
fn version_numbering_continues_across_restart() {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 128 << 20);
    let daemon =
        PortusDaemon::start(&fabric, NodeId(1), pmem.clone(), DaemonConfig::default()).unwrap();
    let gpu = GpuDevice::new(ctx, 0, 1 << 30);
    let spec = test_spec("persist", 4, 128 * 1024);
    let mut model = ModelInstance::materialize(&spec, &gpu, 1, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&daemon, compute.clone());
    client.register_model(&model).unwrap();
    model.train_step();
    client.checkpoint("persist").unwrap();
    model.train_step();
    client.checkpoint("persist").unwrap();

    // Clean restart (fence everything, then power cycle).
    drop(client);
    daemon.shutdown();
    pmem.crash(CrashSpec::LoseAll);

    let daemon2 = PortusDaemon::recover(&fabric, NodeId(1), pmem, DaemonConfig::default()).unwrap();
    let client2 = PortusClient::connect(&daemon2, compute);
    client2.register_model(&model).unwrap(); // re-register same structure
    model.train_step();
    let r = client2.checkpoint("persist").unwrap();
    assert_eq!(r.version, 3, "version numbering continues from PMem state");
    let m = &client2.list_models().unwrap()[0];
    assert_eq!(m.latest_version, Some(3));
    assert_eq!(m.valid_versions, 2);
}

#[test]
fn checkpoint_of_a_model_nobody_reregistered_is_model_not_found() {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 64 << 20);
    let daemon =
        PortusDaemon::start(&fabric, NodeId(1), pmem.clone(), DaemonConfig::default()).unwrap();
    let gpu = GpuDevice::new(ctx, 0, 1 << 30);
    let spec = test_spec("orphan", 2, 64 * 1024);
    let model = ModelInstance::materialize(&spec, &gpu, 1, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&daemon, compute.clone());
    client.register_model(&model).unwrap();
    client.checkpoint("orphan").unwrap();
    drop(client);
    daemon.shutdown();

    // The model is back on the restarted daemon's PMem, but no client
    // registered GPU regions the daemon could pull it from.
    let daemon2 = PortusDaemon::recover(&fabric, NodeId(1), pmem, DaemonConfig::default()).unwrap();
    let client2 = PortusClient::connect(&daemon2, compute);
    assert_eq!(client2.list_models().unwrap()[0].latest_version, Some(1));
    let err = client2.checkpoint("orphan").unwrap_err();
    assert!(
        matches!(&err, PortusError::ModelNotFound(m) if m == "orphan"),
        "got: {err:?}"
    );
}

#[test]
fn recovery_rebuilds_many_models_in_order() {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 256 << 20);
    let daemon =
        PortusDaemon::start(&fabric, NodeId(1), pmem.clone(), DaemonConfig::default()).unwrap();
    let gpu = GpuDevice::new(ctx, 0, 2 << 30);
    let client = PortusClient::connect(&daemon, compute);

    let names = ["zebra", "alpha", "mango", "delta"];
    for (i, name) in names.iter().enumerate() {
        let spec = test_spec(name, 3, 64 * 1024);
        let mut m =
            ModelInstance::materialize(&spec, &gpu, i as u64, Materialization::Owned).unwrap();
        client.register_model(&m).unwrap();
        m.train_step();
        client.checkpoint(name).unwrap();
    }
    drop(client);
    daemon.shutdown();
    pmem.crash(CrashSpec::LoseAll);

    let daemon2 = PortusDaemon::recover(&fabric, NodeId(1), pmem, DaemonConfig::default()).unwrap();
    let recovered = daemon2.summaries().unwrap();
    assert_eq!(recovered.len(), 4);
    let order: Vec<&str> = recovered.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(
        order,
        vec!["alpha", "delta", "mango", "zebra"],
        "ModelMap is ordered"
    );
    assert!(recovered.iter().all(|m| m.latest_version == Some(1)));
}

#[test]
fn recovery_then_aggressive_repack_reclaims_crash_debris() {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 128 << 20);
    let daemon =
        PortusDaemon::start(&fabric, NodeId(1), pmem.clone(), DaemonConfig::default()).unwrap();
    let gpu = GpuDevice::new(ctx, 0, 1 << 30);
    let spec = test_spec("debris", 3, 128 * 1024);
    let mut model = ModelInstance::materialize(&spec, &gpu, 1, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&daemon, compute.clone());
    client.register_model(&model).unwrap();
    model.train_step();
    client.checkpoint("debris").unwrap();

    // Torn second checkpoint.
    let index = daemon.index();
    let (_, off) = index.live_entries().unwrap()[0];
    let mi = index.load_mindex(off).unwrap();
    index.mark_slot_active(&mi, mi.target_slot(), 2).unwrap();
    drop(client);
    daemon.shutdown();
    pmem.crash(CrashSpec::Random { seed: 7 });

    let daemon2 = PortusDaemon::recover(&fabric, NodeId(1), pmem, DaemonConfig::default()).unwrap();
    let report = repack(&daemon2, true).unwrap();
    assert_eq!(report.reclaimed_active, 1, "crash debris reclaimed");

    // Training resumes: checkpoint v2 lands in a fresh region.
    let client2 = PortusClient::connect(&daemon2, compute);
    client2.register_model(&model).unwrap();
    model.train_step();
    let want = model.model_checksum();
    let r = client2.checkpoint("debris").unwrap();
    assert_eq!(r.version, 2);
    model.train_step();
    client2.restore(&model).unwrap();
    assert_eq!(model.model_checksum(), want);
}

#[test]
fn dram_fallback_mode_works_but_does_not_survive_power_loss() {
    // §IV-a: "upon the absence of PMEM ... Portus can use DRAM as
    // alternatives" — same datapath, no durability.
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let dram_as_pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 128 << 20);
    let cfg = DaemonConfig {
        dram_fallback: true,
        ..DaemonConfig::default()
    };
    let daemon = PortusDaemon::start(&fabric, NodeId(1), dram_as_pmem.clone(), cfg).unwrap();
    let gpu = GpuDevice::new(ctx, 0, 1 << 30);
    let spec = test_spec("volatile", 3, 64 * 1024);
    let mut model = ModelInstance::materialize(&spec, &gpu, 1, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&daemon, compute);
    client.register_model(&model).unwrap();
    model.train_step();
    let want = model.model_checksum();
    client.checkpoint("volatile").unwrap();

    // Works while powered...
    model.train_step();
    client.restore(&model).unwrap();
    assert_eq!(model.model_checksum(), want);

    // ...but the checkpoint *data* never went through the persistence
    // path: after a power loss the Done slot's payload is gone, and the
    // integrity check catches it on restore.
    drop(client);
    daemon.shutdown();
    dram_as_pmem.crash(CrashSpec::LoseAll);
    let daemon2 =
        PortusDaemon::recover(&fabric, NodeId(1), dram_as_pmem, DaemonConfig::default()).unwrap();
    let client2 = PortusClient::connect(&daemon2, fabric.nic(NodeId(0)).unwrap());
    client2.register_model(&model).unwrap();
    let err = client2.restore(&model).unwrap_err();
    assert!(
        matches!(&err, PortusError::ChecksumMismatch { model, .. } if model == "volatile"),
        "volatile data must fail verification, got: {err:?}"
    );
}
