//! The micro-paged model catalog: daemon
//! opt-in, bounded daemon DRAM, and crash consistency of the
//! copy-on-write page/root publication protocol.
//!
//! Invariants under test:
//!
//! * `catalog: None` daemons never touch the catalog path — the DRAM
//!   ModelMap mirror keeps owning name resolution.
//! * Catalog-enabled daemons resolve every name through the paged
//!   on-PMem structure; the ModelMap mirror stays empty.
//! * After any crash, recovery mounts a catalog consistent with the
//!   authoritative ModelTable (orphans reclaimed, stragglers adopted).

use portus::{CatalogConfig, DaemonConfig, Index, PortusClient, PortusDaemon, PortusError};
use portus_dnn::{test_spec, Materialization, ModelInstance, TensorMeta};
use portus_mem::GpuDevice;
use portus_pmem::{micropage, typed, CrashSpec, PmemDevice, PmemError, PmemMode, Structure};
use portus_rdma::{Fabric, NodeId};
use portus_sim::SimContext;

fn catalog_cfg() -> DaemonConfig {
    DaemonConfig {
        catalog: Some(CatalogConfig::default()),
        ..DaemonConfig::default()
    }
}

fn metas(n: usize) -> Vec<TensorMeta> {
    test_spec("t", n, 4096).tensors.to_vec()
}

// ---------------------------------------------------------------------
// Daemon opt-in
// ---------------------------------------------------------------------

/// The full client lifecycle — register, checkpoint, restore, list,
/// drop — works identically with the catalog owning name resolution,
/// and the daemon's ModelMap mirror stays empty while it does.
#[test]
fn catalog_daemon_serves_full_lifecycle_with_bounded_dram() {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 64 << 20);
    let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem.clone(), catalog_cfg()).unwrap();
    let gpu = GpuDevice::new(ctx.clone(), 0, 1 << 30);

    let spec = test_spec("cat-model", 4, 16 * 1024);
    let mut model = ModelInstance::materialize(&spec, &gpu, 1, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&daemon, compute.clone());
    client.register_model(&model).unwrap();

    model.train_step();
    let expect = model.model_checksum();
    client.checkpoint("cat-model").unwrap();
    model.train_step(); // diverge
    client.restore(&model).unwrap();
    assert_eq!(model.model_checksum(), expect);

    // More registrations route through the catalog too.
    for i in 0..20 {
        let spec = test_spec(&format!("fleet-{i:03}"), 2, 4096);
        let m = ModelInstance::materialize(&spec, &gpu, 1, Materialization::Owned).unwrap();
        client.register_model(&m).unwrap();
    }
    assert_eq!(daemon.model_count(), 21);
    let summaries = daemon.summaries().unwrap();
    assert_eq!(summaries.len(), 21);

    client.drop_model("fleet-007").unwrap();
    assert_eq!(daemon.model_count(), 20);
    assert!(matches!(
        client.restore_version(&model, Some(999)),
        Err(PortusError::NoValidCheckpoint(m)) if m == "cat-model"
    ));

    // The catalog owns resolution: its gauges are live and the DRAM
    // mirror records zero bytes. (The stats request refreshes the
    // lazily-updated gauges.)
    let snap = client.stats().unwrap();
    assert!(snap.catalog_pages >= 1);
    assert_eq!(snap.catalog_entries, 20);
    assert!(snap.catalog_cache_hits + snap.catalog_cache_misses > 0);
    assert_eq!(snap.model_map_bytes, 0);

    drop(client);
    daemon.shutdown();
}

/// Restarting a catalog daemon over the same namespace recovers every
/// model through the persisted catalog; a ModelMap-only restart of the
/// same namespace also still works (the catalog is opt-in per boot).
#[test]
fn catalog_survives_restart_and_stays_optional() {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 64 << 20);
    let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem.clone(), catalog_cfg()).unwrap();
    let gpu = GpuDevice::new(ctx.clone(), 0, 1 << 30);
    let spec = test_spec("persisted", 3, 8192);
    let mut model = ModelInstance::materialize(&spec, &gpu, 1, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&daemon, compute.clone());
    client.register_model(&model).unwrap();
    model.train_step();
    let expect = model.model_checksum();
    client.checkpoint("persisted").unwrap();
    drop(client);
    daemon.shutdown();

    // Catalog-enabled restart.
    let daemon2 = PortusDaemon::recover(&fabric, NodeId(1), pmem.clone(), catalog_cfg()).unwrap();
    assert_eq!(daemon2.model_count(), 1);
    let client2 = PortusClient::connect(&daemon2, compute.clone());
    client2.register_model(&model).unwrap();
    model.train_step();
    client2.restore(&model).unwrap();
    assert_eq!(model.model_checksum(), expect);
    drop(client2);
    daemon2.shutdown();

    // ModelMap-only restart of the same namespace: the stale catalog on
    // media is ignored, the table rebuild serves the model.
    let daemon3 = PortusDaemon::recover(&fabric, NodeId(1), pmem, DaemonConfig::default()).unwrap();
    assert_eq!(daemon3.model_count(), 1);
    let client3 = PortusClient::connect(&daemon3, compute);
    client3.register_model(&model).unwrap();
    model.train_step();
    client3.restore(&model).unwrap();
    assert_eq!(model.model_checksum(), expect);
    drop(client3);
    daemon3.shutdown();
}

/// With the catalog off, the ModelMap mirror owns name resolution and
/// its DRAM gauge tracks the population: non-zero once models exist,
/// growing with each registration and falling with each drop.
#[test]
fn model_map_gauge_tracks_registrations_and_drops_without_a_catalog() {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 64 << 20);
    let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem, DaemonConfig::default()).unwrap();
    let gpu = GpuDevice::new(ctx, 0, 1 << 30);
    let client = PortusClient::connect(&daemon, compute);
    let register = |range: std::ops::Range<usize>| {
        for i in range {
            let spec = test_spec(&format!("mirror-{i:02}"), 2, 4096);
            let m = ModelInstance::materialize(&spec, &gpu, 1, Materialization::Owned).unwrap();
            client.register_model(&m).unwrap();
        }
        client.stats().unwrap().model_map_bytes
    };
    let three = register(0..3);
    assert!(three > 0, "a populated mirror reports its DRAM");
    let six = register(3..6);
    assert!(
        six > three,
        "gauge grows with registrations: {three} -> {six}"
    );

    client.drop_model("mirror-01").unwrap();
    client.drop_model("mirror-04").unwrap();
    let snap = client.stats().unwrap();
    assert!(
        snap.model_map_bytes < six && snap.model_map_bytes > 0,
        "gauge falls with drops: {six} -> {}",
        snap.model_map_bytes
    );
    assert_eq!(snap.catalog_entries, 0, "no catalog gauges without one");
    let names: Vec<String> = daemon
        .summaries()
        .unwrap()
        .into_iter()
        .map(|s| s.name)
        .collect();
    assert_eq!(names, ["mirror-00", "mirror-02", "mirror-03", "mirror-05"]);

    drop(client);
    daemon.shutdown();
}

/// A daemon that recovers a pre-catalog namespace with the catalog
/// newly enabled seeds it from the rebuilt ModelTable view.
#[test]
fn enabling_the_catalog_on_an_old_namespace_seeds_from_the_table() {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 64 << 20);
    // Pre-catalog era: plain daemon, several models.
    let daemon =
        PortusDaemon::start(&fabric, NodeId(1), pmem.clone(), DaemonConfig::default()).unwrap();
    let gpu = GpuDevice::new(ctx.clone(), 0, 1 << 30);
    let client = PortusClient::connect(&daemon, compute.clone());
    let mut models = Vec::new();
    for i in 0..8 {
        let spec = test_spec(&format!("legacy-{i}"), 2, 4096);
        let m = ModelInstance::materialize(&spec, &gpu, 1, Materialization::Owned).unwrap();
        client.register_model(&m).unwrap();
        models.push(m);
    }
    drop(client);
    daemon.shutdown();

    // Upgrade boot: catalog on. Every legacy model must resolve.
    let daemon2 = PortusDaemon::recover(&fabric, NodeId(1), pmem, catalog_cfg()).unwrap();
    assert_eq!(daemon2.model_count(), 8);
    let names: Vec<String> = daemon2
        .summaries()
        .unwrap()
        .into_iter()
        .map(|s| s.name)
        .collect();
    for i in 0..8 {
        assert!(names.contains(&format!("legacy-{i}")));
    }
    let snap = ctx.metrics.snapshot();
    assert_eq!(snap.catalog_entries, 8);
    assert_eq!(snap.model_map_bytes, 0);
    daemon2.shutdown();
}

// ---------------------------------------------------------------------
// Crash consistency
// ---------------------------------------------------------------------

/// An index-level harness: a formatted namespace with the catalog
/// enabled and `n` models created through both structures (the daemon's
/// register path in miniature).
fn index_with_catalog(pmem: &std::sync::Arc<PmemDevice>, n: u64) -> Index {
    let index = Index::format(pmem.clone(), 256, 4096).unwrap();
    index.enable_catalog(&CatalogConfig::default()).unwrap();
    let m = metas(2);
    for i in 0..n {
        let name = format!("model-{i:04}");
        let mi = index.create_model(&name, &m).unwrap();
        index
            .catalog()
            .unwrap()
            .insert(index.allocator(), &name, mi.offset)
            .unwrap();
    }
    index
}

/// A crash between persisting fresh micro-pages and flipping the root
/// strands pages no root references. Recovery must mount the old root
/// intact and return the orphans to the allocator.
#[test]
fn orphaned_catalog_pages_are_reclaimed_on_recovery() {
    let ctx = SimContext::icdcs24();
    let pmem = PmemDevice::new(ctx, PmemMode::DevDax, 32 << 20);
    let index = index_with_catalog(&pmem, 40);
    let live_before = index.allocator().live_allocations().len();

    // Emulate the pre-flip half of a split: a fully persisted, valid
    // page that no directory record will ever point at.
    let orphan = index
        .allocator()
        .alloc_aligned(4096, 64, 0x0BAD_CA7A_10C0_FFEE)
        .unwrap();
    let entries = vec![
        ("orphan-a".to_string(), 1u64),
        ("orphan-b".to_string(), 2u64),
    ];
    micropage::write_page(index.device(), orphan.offset, 4096, &entries).unwrap();
    index.device().persist(orphan.offset, 4096).unwrap();
    let orphan_off = orphan.offset;
    drop(index);

    let (index2, _map) = Index::recover(pmem).unwrap();
    let live_after: Vec<u64> = index2
        .allocator()
        .live_allocations()
        .into_iter()
        .map(|a| a.offset)
        .collect();
    assert!(
        !live_after.contains(&orphan_off),
        "orphaned page must be GCed"
    );
    assert_eq!(live_after.len(), live_before);
    // The mounted catalog still serves every model.
    let cat = index2.catalog().expect("catalog remounts on recovery");
    assert_eq!(cat.len(), 40);
    for i in 0..40 {
        assert!(cat.lookup(&format!("model-{i:04}")).unwrap().is_some());
    }
}

/// A *torn* orphan — a page the crash interrupted mid-write, magic and
/// all — must not break recovery either: reachability never reads it.
#[test]
fn torn_unreferenced_page_does_not_break_recovery() {
    let ctx = SimContext::icdcs24();
    let pmem = PmemDevice::new(ctx, PmemMode::DevDax, 32 << 20);
    let index = index_with_catalog(&pmem, 25);
    let torn = index
        .allocator()
        .alloc_aligned(4096, 64, 0x0BAD_CA7A_10C0_FFEE)
        .unwrap();
    // Half-written garbage, deliberately unfenced.
    pmem.write(torn.offset, &vec![0xEE; 2048]).unwrap();
    drop(index);
    for seed in [0u64, 7, 0xDEAD] {
        pmem.crash(CrashSpec::Random { seed });
        let (index2, _map) = Index::recover(pmem.clone()).unwrap();
        let cat = index2.catalog().expect("catalog remounts");
        assert_eq!(cat.len(), 25, "seed {seed}");
        for i in 0..25 {
            assert!(cat.lookup(&format!("model-{i:04}")).unwrap().is_some());
        }
    }
}

/// The root-flip crash window: a model published in the ModelTable
/// whose catalog insert never landed (crash between the two). Recovery
/// reconciles the catalog against the table and adopts the straggler;
/// the reverse window (catalog entry whose table entry was retired)
/// drops the stale name.
#[test]
fn recovery_reconciles_catalog_against_the_table() {
    let ctx = SimContext::icdcs24();
    let pmem = PmemDevice::new(ctx, PmemMode::DevDax, 32 << 20);
    let index = index_with_catalog(&pmem, 10);
    let m = metas(2);

    // Straggler: in the table, not in the catalog.
    index.create_model("straggler", &m).unwrap();
    // Stale: in the catalog, then retired from the table.
    let mi = index.create_model("stale", &m).unwrap();
    index
        .catalog()
        .unwrap()
        .insert(index.allocator(), "stale", mi.offset)
        .unwrap();
    index.remove_model_at("stale", mi.offset).unwrap();
    drop(index);

    let (index2, map) = Index::recover(pmem).unwrap();
    let cat = index2.catalog().expect("catalog remounts");
    assert_eq!(
        cat.lookup("straggler").unwrap(),
        map.get("straggler").copied(),
        "table-published model adopted by the catalog"
    );
    assert!(cat.lookup("straggler").unwrap().is_some());
    assert_eq!(cat.lookup("stale").unwrap(), None, "stale entry dropped");
    assert_eq!(cat.len(), 11);
    // Catalog and table agree entry for entry.
    let table: Vec<(String, u64)> = map.into_iter().collect();
    assert_eq!(cat.scan().unwrap(), table);
}

/// A flipped page-count word is a typed `Corrupt` from recovery, not an
/// allocation sized from the flipped word (which aborted the process).
#[test]
fn corrupted_page_count_fails_recovery_with_a_typed_error() {
    let ctx = SimContext::icdcs24();
    let pmem = PmemDevice::new(ctx, PmemMode::DevDax, 32 << 20);
    let index = index_with_catalog(&pmem, 1);
    let page = index.catalog().unwrap().page_offsets().unwrap()[0];
    drop(index);
    typed::write_u32(&pmem, page + 4, 0x7FFF_FFFF).unwrap();
    pmem.persist(page + 4, 4).unwrap();
    match Index::recover(pmem) {
        Err(PortusError::Pmem(PmemError::Corrupt { structure, at, .. })) => {
            assert_eq!((structure, at), (Structure::MicroPage, page + 4));
        }
        Err(other) => panic!("expected a Corrupt error, got {other:?}"),
        Ok(_) => panic!("recovery accepted a corrupt page count"),
    }
}

/// Random crash sweeps over a catalog daemon: whatever lines the crash
/// takes, recovery mounts a catalog that matches the table and keeps
/// serving checkpoints.
#[test]
fn catalog_daemon_survives_random_crashes() {
    for seed in [1u64, 42, 0xBEEF] {
        let ctx = SimContext::icdcs24();
        let fabric = Fabric::new(ctx.clone());
        let compute = fabric.add_nic(NodeId(0));
        fabric.add_nic(NodeId(1));
        let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 64 << 20);
        let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem.clone(), catalog_cfg()).unwrap();
        let gpu = GpuDevice::new(ctx.clone(), 0, 1 << 30);
        let spec = test_spec("survivor", 3, 8192);
        let mut model = ModelInstance::materialize(&spec, &gpu, 1, Materialization::Owned).unwrap();
        let client = PortusClient::connect(&daemon, compute.clone());
        client.register_model(&model).unwrap();
        model.train_step();
        let expect = model.model_checksum();
        client.checkpoint("survivor").unwrap();
        drop(client);
        daemon.shutdown();
        pmem.crash(CrashSpec::Random { seed });

        let daemon2 = PortusDaemon::recover(&fabric, NodeId(1), pmem, catalog_cfg())
            .expect("recovery must succeed");
        assert_eq!(daemon2.model_count(), 1, "seed {seed}");
        let client2 = PortusClient::connect(&daemon2, compute);
        client2.register_model(&model).unwrap();
        model.train_step();
        client2.restore(&model).unwrap();
        assert_eq!(model.model_checksum(), expect, "seed {seed}");
        drop(client2);
        daemon2.shutdown();
    }
}

/// The typed catalog-full error: a daemon whose ModelTable is exhausted
/// reports `PortusError::CatalogFull` with the formatted capacity, not
/// a stringly error.
#[test]
fn table_exhaustion_surfaces_typed_catalog_full() {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 64 << 20);
    let cfg = DaemonConfig {
        table_capacity: 2,
        ..catalog_cfg()
    };
    let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem, cfg).unwrap();
    let gpu = GpuDevice::new(ctx, 0, 1 << 30);
    let client = PortusClient::connect(&daemon, compute);
    for i in 0..2 {
        let spec = test_spec(&format!("fits-{i}"), 2, 4096);
        let m = ModelInstance::materialize(&spec, &gpu, 1, Materialization::Owned).unwrap();
        client.register_model(&m).unwrap();
    }
    let spec = test_spec("overflow", 2, 4096);
    let m = ModelInstance::materialize(&spec, &gpu, 1, Materialization::Owned).unwrap();
    match client.register_model(&m) {
        Err(PortusError::CatalogFull { capacity }) => assert_eq!(capacity, 2),
        other => panic!("expected CatalogFull, got {other:?}"),
    }
    drop(client);
    daemon.shutdown();
}
