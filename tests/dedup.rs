//! The content-addressed dedup tier (ROADMAP item 5) and the
//! tag-collision reclaim fix that unblocks it.
//!
//! Invariants under test:
//!
//! * dropping one of two models whose names **collide under FNV-1a**
//!   never reclaims the survivor's storage;
//! * fine-tunes of one base model **share physical extents**, and every
//!   sharer restores bit-for-bit;
//! * after any torn-refcount crash, recovery **never frees an extent a
//!   live map references and never leaks one nothing references**;
//! * an extent seal whose pass fails mid-checkpoint falls back to a
//!   plain seal that restores bit-for-bit;
//! * the repacker sweeps the refcount-zero extents of dropped models;
//! * every reader of an extent-mapped version (verify, restore pushes,
//!   `portusctl dump`) reads it in place through its pieces: the digest
//!   matches the sealed one, a corrupted shared extent fails every
//!   sharer with a typed error, and a restore allocates nothing;
//! * a new extent is streamed, so a one-chunk step seals in its DAX
//!   write rather than a 1024-line `clwb` pass, and a 0-byte model
//!   round-trips.

use portus::{
    name_hash, portusctl, repack, DaemonConfig, DedupConfig, PortusClient, PortusDaemon,
    PortusError, SlotState,
};
use portus_dnn::{test_spec, Materialization, ModelInstance, ModelSpec};
use portus_format::read_checkpoint;
use portus_mem::GpuDevice;
use portus_pmem::{save_image, CrashSpec, PmemDevice, PmemError, PmemMode};
use portus_rdma::{Fabric, FaultSpec, NodeId};
use portus_sim::{SimContext, SimDuration, Stage};

/// Two distinct names with the same FNV-1a 64 hash (found by a
/// collision search against [`portus::name_hash`]; asserted below so a
/// hash-function change fails loudly instead of silently weakening the
/// regression).
const COLLIDE_A: &str = "m038e33cdf0f85576";
const COLLIDE_B: &str = "mc1aa6d07ed751e15";

struct World {
    ctx: SimContext,
    fabric: Fabric,
    pmem: std::sync::Arc<PmemDevice>,
    daemon: std::sync::Arc<PortusDaemon>,
    gpu: std::sync::Arc<GpuDevice>,
}

fn world_cfg(cfg: DaemonConfig) -> World {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 256 << 20);
    let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem.clone(), cfg).unwrap();
    let gpu = GpuDevice::new(ctx.clone(), 0, 2 << 30);
    World {
        ctx,
        fabric,
        pmem,
        daemon,
        gpu,
    }
}

fn dedup_cfg() -> DaemonConfig {
    DaemonConfig {
        dedup: Some(DedupConfig::default()),
        ..DaemonConfig::default()
    }
}

fn client(w: &World) -> PortusClient {
    PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap())
}

/// Materializes `spec` from `seed` and registers it.
fn register(w: &World, c: &PortusClient, spec: &ModelSpec, seed: u64) -> ModelInstance {
    let model = ModelInstance::materialize(spec, &w.gpu, seed, Materialization::Owned).unwrap();
    c.register_model(&model).unwrap();
    model
}

// ---------------------------------------------------------------------
// Satellite 1: tag-collision reclaim regression.
// ---------------------------------------------------------------------

#[test]
fn colliding_names_actually_collide() {
    assert_ne!(COLLIDE_A, COLLIDE_B);
    assert_eq!(
        name_hash(COLLIDE_A),
        name_hash(COLLIDE_B),
        "the regression pair must collide under name_hash; \
         re-search if the hash function changed"
    );
}

#[test]
fn dropping_a_colliding_name_spares_the_other_model() {
    // Two live models whose names share one FNV-1a tag. Before the
    // ownership fix, remove_model freed every allocation carrying the
    // tag — including the survivor's MIndex and TensorData.
    let w = world_cfg(DaemonConfig::default());
    let c = client(&w);
    let spec_a = test_spec(COLLIDE_A, 3, 64 * 1024);
    let spec_b = test_spec(COLLIDE_B, 3, 64 * 1024);
    let mut a = register(&w, &c, &spec_a, 1);
    let mut b = register(&w, &c, &spec_b, 2);

    a.train_step();
    c.checkpoint(COLLIDE_A).unwrap();
    b.train_step();
    let b_state = b.model_checksum();
    c.checkpoint(COLLIDE_B).unwrap();

    c.drop_model(COLLIDE_A).unwrap();
    assert_eq!(w.daemon.model_count(), 1);

    // The survivor restores bit-for-bit on the live daemon...
    b.train_step();
    let r = c.restore(&b).unwrap();
    assert_eq!(r.version, 1);
    assert_eq!(b.model_checksum(), b_state);

    // ...and keeps doing so across a crash + recovery (recovery's
    // reachability GC must agree nothing of B was freed).
    drop(c);
    w.daemon.shutdown();
    w.pmem.crash(CrashSpec::LoseAll);
    let daemon2 = PortusDaemon::recover(
        &w.fabric,
        NodeId(1),
        w.pmem.clone(),
        DaemonConfig::default(),
    )
    .unwrap();
    assert_eq!(daemon2.model_count(), 1);
    let c2 = PortusClient::connect(&daemon2, w.fabric.nic(NodeId(0)).unwrap());
    c2.register_model(&b).unwrap();
    b.train_step();
    c2.restore(&b).unwrap();
    assert_eq!(b.model_checksum(), b_state);

    // A repack pass over the survivor sees no index/allocator
    // divergence — the drop freed exactly its own regions.
    let report = repack(&daemon2, true).unwrap();
    assert_eq!(report.scanned_models, 1);
    let _ = w.ctx;
}

// ---------------------------------------------------------------------
// Tentpole: fine-tunes sharing extents.
// ---------------------------------------------------------------------

#[test]
fn fine_tunes_share_physical_extents() {
    let w = world_cfg(dedup_cfg());
    let c = client(&w);
    // Base model and three fine-tunes materialized from the same seed:
    // identical initial weights, then each fine-tune diverges in one
    // tensor (a sparse update touching at most two 64 KiB chunks).
    let mut models = Vec::new();
    for i in 0..4usize {
        let name = format!("ft{i}");
        let spec = test_spec(&name, 4, 256 * 1024);
        let mut m = register(&w, &c, &spec, 7);
        if i > 0 {
            m.train_step_sparse(&[i - 1]);
        }
        c.checkpoint(&name).unwrap();
        models.push((name, m));
    }

    let store = w.daemon.index().extent_store().expect("dedup enabled");
    let stats = store.stats().unwrap();
    assert!(stats.shared > 0, "identical chunks must deduplicate");
    assert!(
        stats.stored_bytes < stats.referenced_logical / 2,
        "4 near-identical 1 MiB models must store well under half \
         their referenced bytes ({} vs {})",
        stats.stored_bytes,
        stats.referenced_logical
    );

    // Every sharer restores bit-for-bit despite the shared storage.
    for (name, m) in &mut models {
        let saved = m.model_checksum();
        m.train_step();
        c.restore(m).unwrap();
        assert_eq!(m.model_checksum(), saved, "{name} restore diverged");
    }
    let _ = w.ctx;
}

#[test]
fn dedup_survives_crash_and_recovery() {
    let w = world_cfg(dedup_cfg());
    let c = client(&w);
    let spec = test_spec("base", 4, 128 * 1024);
    let mut base = register(&w, &c, &spec, 3);
    let spec2 = test_spec("tune", 4, 128 * 1024);
    let mut tune = register(&w, &c, &spec2, 3);
    tune.train_step_sparse(&[2]);
    let base_state = base.model_checksum();
    let tune_state = tune.model_checksum();
    c.checkpoint("base").unwrap();
    c.checkpoint("tune").unwrap();

    drop(c);
    w.daemon.shutdown();
    w.pmem.crash(CrashSpec::Random { seed: 0xD5D5 });

    let daemon2 = PortusDaemon::recover(&w.fabric, NodeId(1), w.pmem.clone(), dedup_cfg()).unwrap();
    let store = daemon2.index().extent_store().unwrap();
    let stats = store.stats().unwrap();
    assert!(stats.live > 0);
    assert!(stats.shared > 0, "sharing survives recovery");
    let c2 = PortusClient::connect(&daemon2, w.fabric.nic(NodeId(0)).unwrap());
    c2.register_model(&base).unwrap();
    c2.register_model(&tune).unwrap();
    base.train_step();
    c2.restore(&base).unwrap();
    assert_eq!(base.model_checksum(), base_state);
    tune.train_step();
    c2.restore(&tune).unwrap();
    assert_eq!(tune.model_checksum(), tune_state);
}

// ---------------------------------------------------------------------
// Satellite 4: torn-refcount crash consistency.
// ---------------------------------------------------------------------

/// Crash after extents were inserted and refcounted but before any slot
/// header published a map over them (the ingest window between steps 1
/// and 3 of the crash ordering): recovery must sweep the orphans and
/// leak nothing.
#[test]
fn crash_before_publish_leaks_no_extents() {
    let w = world_cfg(dedup_cfg());
    let c = client(&w);
    let spec = test_spec("w", 2, 128 * 1024);
    let mut model = register(&w, &c, &spec, 5);
    model.train_step();
    let saved = model.model_checksum();
    c.checkpoint("w").unwrap(); // v1, extent-mapped

    // Forge the torn ingest: orphan extents inserted (payload persisted,
    // refcount 1) that no extent map will ever reference.
    let index = w.daemon.index();
    let store = index.extent_store().unwrap();
    let mut orphan_hashes = Vec::new();
    for i in 0..3u8 {
        let payload = vec![0xA0 ^ i; 8192];
        let r = store.insert_or_ref(&payload, index.allocator()).unwrap();
        assert!(!r.shared, "orphan payloads are unique");
        orphan_hashes.push(store.record(r.slot).unwrap().chash);
    }
    let live_before = store.stats().unwrap().live;

    drop(c);
    w.daemon.shutdown();
    w.pmem.crash(CrashSpec::LoseAll);

    let daemon2 = PortusDaemon::recover(&w.fabric, NodeId(1), w.pmem.clone(), dedup_cfg()).unwrap();
    let store2 = daemon2.index().extent_store().unwrap();
    let live: Vec<_> = store2.live_extents().unwrap();
    // The orphans are gone (recount found no referencing map → swept)...
    for (_, rec) in &live {
        assert!(
            !orphan_hashes.contains(&rec.chash),
            "unreferenced extent survived recovery"
        );
    }
    assert_eq!(live.len() as u64, live_before - orphan_hashes.len() as u64);
    // ...and every surviving extent is referenced, with an exact count.
    for (_, rec) in &live {
        assert!(rec.refcount > 0, "live extent with zero refs leaked");
    }
    // The checkpoint the orphans were torn out of still restores.
    let c2 = PortusClient::connect(&daemon2, w.fabric.nic(NodeId(0)).unwrap());
    c2.register_model(&model).unwrap();
    model.train_step();
    c2.restore(&model).unwrap();
    assert_eq!(model.model_checksum(), saved);
}

/// Torn refcount words in both directions (an update persisted without
/// its peers, or lost entirely): recovery recounts from the live maps,
/// so no referenced extent is freed and no unreferenced one survives.
#[test]
fn recovery_recounts_torn_refcounts_exactly() {
    let w = world_cfg(dedup_cfg());
    let c = client(&w);
    let spec_a = test_spec("rc-a", 3, 128 * 1024);
    let spec_b = test_spec("rc-b", 3, 128 * 1024);
    let mut a = register(&w, &c, &spec_a, 9);
    let mut b = register(&w, &c, &spec_b, 9); // same content → shared
    let a_state = a.model_checksum();
    let b_state = b.model_checksum();
    c.checkpoint("rc-a").unwrap();
    c.checkpoint("rc-b").unwrap();

    // Tamper with every persistent refcount: zero half (an under-count
    // would free referenced extents), inflate the rest (an over-count
    // would leak them once the models drop).
    let store = w.daemon.index().extent_store().unwrap();
    for (i, (slot, _)) in store.live_extents().unwrap().into_iter().enumerate() {
        let torn = if i % 2 == 0 { 0 } else { 99 };
        store.set_refcount(slot, torn).unwrap();
    }

    drop(c);
    w.daemon.shutdown();
    w.pmem.crash(CrashSpec::LoseAll);

    let daemon2 = PortusDaemon::recover(&w.fabric, NodeId(1), w.pmem.clone(), dedup_cfg()).unwrap();
    let store2 = daemon2.index().extent_store().unwrap();
    // Exact recount: both models' maps reference every shared extent.
    for (_, rec) in store2.live_extents().unwrap() {
        assert_eq!(rec.refcount, 2, "recount must be exact, not torn");
    }
    // Referenced extents were not freed: both models restore.
    let c2 = PortusClient::connect(&daemon2, w.fabric.nic(NodeId(0)).unwrap());
    c2.register_model(&a).unwrap();
    c2.register_model(&b).unwrap();
    a.train_step();
    c2.restore(&a).unwrap();
    assert_eq!(a.model_checksum(), a_state);
    b.train_step();
    c2.restore(&b).unwrap();
    assert_eq!(b.model_checksum(), b_state);

    // And nothing is leaked once the references really go away: drop
    // both models; the repacker's sweep empties the store.
    c2.drop_model("rc-a").unwrap();
    c2.drop_model("rc-b").unwrap();
    let report = repack(&daemon2, false).unwrap();
    assert!(report.swept_extents > 0, "dropped extents must be swept");
    assert_eq!(store2.stats().unwrap().live, 0, "no extent may leak");
}

/// Crash after the release path's header flip but before its decrefs
/// (the release window): the extents look over-referenced, and recovery
/// must correct that rather than trust the stale counts.
#[test]
fn crash_mid_release_never_frees_the_survivors_extents() {
    let w = world_cfg(dedup_cfg());
    let c = client(&w);
    let spec_a = test_spec("rel-a", 2, 128 * 1024);
    let spec_b = test_spec("rel-b", 2, 128 * 1024);
    let a = register(&w, &c, &spec_a, 11);
    let mut b = register(&w, &c, &spec_b, 11);
    let b_state = b.model_checksum();
    c.checkpoint("rel-a").unwrap();
    c.checkpoint("rel-b").unwrap();

    // Emulate a release of rel-a torn after the decrefs were skipped:
    // drop the model (decrefs ran), then re-inflate the counts as if
    // the decref lines never reached media.
    c.drop_model("rel-a").unwrap();
    let store = w.daemon.index().extent_store().unwrap();
    for (slot, rec) in store.live_extents().unwrap() {
        store.set_refcount(slot, rec.refcount + 1).unwrap();
    }

    drop(c);
    w.daemon.shutdown();
    w.pmem.crash(CrashSpec::LoseAll);

    let daemon2 = PortusDaemon::recover(&w.fabric, NodeId(1), w.pmem.clone(), dedup_cfg()).unwrap();
    let store2 = daemon2.index().extent_store().unwrap();
    // rel-b's map is the only reference left; the over-counts are gone.
    for (_, rec) in store2.live_extents().unwrap() {
        assert_eq!(rec.refcount, 1, "stale over-count must be corrected");
    }
    let c2 = PortusClient::connect(&daemon2, w.fabric.nic(NodeId(0)).unwrap());
    c2.register_model(&b).unwrap();
    b.train_step();
    c2.restore(&b).unwrap();
    assert_eq!(b.model_checksum(), b_state);
    let _ = a;
}

/// An extent table too small for one checkpoint: the extent pass fails
/// mid-checkpoint, drops the references it took, and the checkpoint is
/// sealed as a plain slot instead — it succeeds and restores bit for
/// bit, and the next checkpoint carries from the plain version.
#[test]
fn a_full_extent_table_falls_back_to_a_plain_seal() {
    let cfg = DaemonConfig {
        dedup: Some(DedupConfig {
            max_extents: 4,
            ..DedupConfig::default()
        }),
        ..DaemonConfig::default()
    };
    let w = world_cfg(cfg);
    let c = client(&w);
    // 4 x 128 KiB = 8 chunks of 64 KiB, twice what the table holds.
    let spec = test_spec("toobig", 4, 128 * 1024);
    let mut model = register(&w, &c, &spec, 23);
    model.train_step();
    let v1_state = model.model_checksum();
    let v1 = c.checkpoint("toobig").unwrap().version;

    let index = w.daemon.index();
    let store = index.extent_store().unwrap();
    assert_eq!(
        store.stats().unwrap().live,
        0,
        "the failed pass left no extent"
    );
    assert_eq!(w.ctx.metrics.snapshot().dedup_ingest_failures, 1);
    let (_, off) = index.live_entries().unwrap()[0];
    let (_, hdr) = index.load_mindex(off).unwrap().latest_done().unwrap();
    assert_eq!(hdr.version, v1);
    assert_eq!(hdr.ext_map, 0, "sealed as a plain slot");
    assert_ne!(hdr.data_off, 0);

    model.train_step_sparse(&[1]);
    let v2_state = model.model_checksum();
    let delta = c
        .checkpoint_delta("toobig", &[false, true, false, false])
        .unwrap();
    assert!(
        delta.copied_bytes > 0,
        "clean tensors carry from the plain v1"
    );

    model.train_step();
    c.restore(&model).unwrap();
    assert_eq!(model.model_checksum(), v2_state);
    c.restore_version(&model, Some(v1)).unwrap();
    assert_eq!(model.model_checksum(), v1_state);
}

// ---------------------------------------------------------------------
// Repacker integration: the extent sweep.
// ---------------------------------------------------------------------

#[test]
fn repack_sweeps_extents_of_dropped_models() {
    let w = world_cfg(dedup_cfg());
    let c = client(&w);
    let spec = test_spec("sweepme", 4, 256 * 1024);
    let mut model = register(&w, &c, &spec, 13);
    model.train_step();
    c.checkpoint("sweepme").unwrap();
    model.train_step();
    c.checkpoint("sweepme").unwrap(); // both slots extent-mapped

    let store = w.daemon.index().extent_store().unwrap();
    assert!(store.stats().unwrap().live > 0);
    let free_before = w.daemon.index().allocator().free_bytes();

    c.drop_model("sweepme").unwrap();
    let report = repack(&w.daemon, false).unwrap();
    assert!(report.swept_extents > 0);
    assert!(report.swept_extent_bytes > 0);
    assert_eq!(store.stats().unwrap().live, 0);
    assert!(
        w.daemon.index().allocator().free_bytes() > free_before,
        "sweeping must return the payload bytes"
    );
    let _ = w.ctx;
}

// ---------------------------------------------------------------------
// Readers of an extent-mapped version: verify, push, carry, dump.
// ---------------------------------------------------------------------

/// Flips the byte at device offset `off`, durably.
fn flip(pmem: &PmemDevice, off: u64) {
    let mut b = [0u8];
    pmem.read(off, &mut b).unwrap();
    pmem.write(off, &[b[0] ^ 0xFF]).unwrap();
    pmem.persist(off, 1).unwrap();
}

/// A device offset inside an extent whose refcount is `refs`.
fn extent_with_refs(w: &World, refs: u64) -> u64 {
    let store = w.daemon.index().extent_store().unwrap();
    let (_, rec) = store
        .live_extents()
        .unwrap()
        .into_iter()
        .find(|(_, r)| r.refcount == refs)
        .expect("an extent with that many references");
    rec.data_off + rec.len / 2
}

#[test]
fn slot_digest_matches_the_sealed_digest_on_every_done_slot() {
    let w = world_cfg(dedup_cfg());
    let c = client(&w);
    for (i, name) in ["dg-a", "dg-b"].into_iter().enumerate() {
        let mut m = register(&w, &c, &test_spec(name, 4, 128 * 1024), 31);
        m.train_step_sparse(&[i]);
        c.checkpoint(name).unwrap();
        m.train_step_sparse(&[2]);
        // A delta carries its clean tensors from the extent-mapped v1.
        let d = c
            .checkpoint_delta(name, &[false, false, true, false])
            .unwrap();
        assert!(d.copied_bytes > 0);
    }
    let index = w.daemon.index();
    let mut done = 0;
    for (_, off) in index.live_entries().unwrap() {
        let mi = index.load_mindex(off).unwrap();
        for (slot, hdr) in mi.slots.iter().enumerate() {
            if hdr.state != SlotState::Done {
                continue;
            }
            assert_ne!(hdr.ext_map, 0, "sealed into extents");
            assert_eq!(index.slot_digest(&mi, slot).unwrap(), hdr.digest);
            done += 1;
        }
    }
    assert_eq!(done, 4, "two models, both slots sealed");
}

#[test]
fn dump_of_a_dedup_checkpoint_matches_the_gpu_and_rejects_corruption() {
    let w = world_cfg(dedup_cfg());
    let c = client(&w);
    let mut models = Vec::new();
    for name in ["dump-a", "dump-b"] {
        let mut m = register(&w, &c, &test_spec(name, 4, 96 * 1024), 41);
        m.train_step();
        c.checkpoint(name).unwrap();
        models.push(m);
    }
    let dir = std::env::temp_dir().join(format!("portus-dedup-dump-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let image = dir.join("pmem.img");
    let out = dir.join("dump-a.ckpt");
    save_image(&w.pmem, &image).unwrap();
    let report = portusctl::dump(&image, "dump-a", &out).unwrap();
    assert_eq!(report.tensors, 4);
    let decoded = read_checkpoint(&std::fs::read(&out).unwrap()[..]).unwrap();
    for ((meta, payload), tensor) in decoded.tensors.iter().zip(models[0].tensors()) {
        assert_eq!(meta.name, tensor.meta.name);
        assert_eq!(payload, &tensor.buffer.to_vec(), "{} differs", meta.name);
    }

    // A byte flipped in an extent both models share: the dump verifies
    // before it writes, so no container is produced.
    flip(&w.pmem, extent_with_refs(&w, 2));
    save_image(&w.pmem, &image).unwrap();
    std::fs::remove_file(&out).unwrap();
    let err = portusctl::dump(&image, "dump-b", &out).unwrap_err();
    assert!(
        matches!(&err, PortusError::ChecksumMismatch { model, version: 1 } if model == "dump-b"),
        "expected a checksum mismatch, got: {err}"
    );
    assert!(!out.exists(), "a failed dump writes no container");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_dedup_restore_allocates_nothing_on_a_full_table() {
    let w = world_cfg(dedup_cfg());
    let c = client(&w);
    let mut m = register(&w, &c, &test_spec("full", 4, 128 * 1024), 43);
    m.train_step();
    let saved = m.model_checksum();
    c.checkpoint("full").unwrap();

    let alloc = w.daemon.index().allocator();
    let filler = loop {
        match alloc.alloc_aligned(4096, 4096, 0x4649_4C4C) {
            Ok(_) => {}
            Err(e) => break e,
        }
    };
    assert!(matches!(filler, PmemError::TableFull), "{filler}");

    m.train_step();
    let r = c.restore(&m).unwrap();
    assert_eq!(r.version, 1);
    assert_eq!(m.model_checksum(), saved, "bit-for-bit from a full table");
}

#[test]
fn a_corrupted_shared_extent_fails_every_sharer_and_spares_the_rest() {
    let w = world_cfg(dedup_cfg());
    let c = client(&w);
    let mut sharers = Vec::new();
    for name in ["share-a", "share-b"] {
        let mut m = register(&w, &c, &test_spec(name, 4, 128 * 1024), 47);
        c.checkpoint(name).unwrap();
        m.train_step(); // the GPU moves on past the checkpoint
        sharers.push((name, m));
    }
    let mut solo = register(&w, &c, &test_spec("solo", 4, 128 * 1024), 53);
    let solo_saved = solo.model_checksum();
    c.checkpoint("solo").unwrap();

    flip(&w.pmem, extent_with_refs(&w, 2));
    for (name, m) in &mut sharers {
        let before = m.model_checksum();
        let err = c.restore(m).unwrap_err();
        assert!(
            matches!(&err, PortusError::ChecksumMismatch { model, version: 1 } if model == name),
            "{name}: expected a checksum mismatch, got: {err}"
        );
        assert_eq!(m.model_checksum(), before, "{name}: GPU tensors untouched");
    }
    solo.train_step();
    c.restore(&solo).unwrap();
    assert_eq!(solo.model_checksum(), solo_saved);
}

#[test]
fn extent_pushes_retry_transient_faults_and_name_each_tensor_once() {
    let w = world_cfg(dedup_cfg());
    let c = client(&w);
    // 3 x 96 KiB over 64 KiB extents: five pieces, and every tensor
    // straddles an extent boundary.
    let mut m = register(&w, &c, &test_spec("push", 3, 96 * 1024), 59);
    m.train_step();
    let saved = m.model_checksum();
    c.checkpoint("push").unwrap();
    let daemon_node = NodeId(1);

    let plan = w.fabric.arm_faults(daemon_node, FaultSpec::Nth(1)).unwrap();
    m.train_step();
    c.restore(&m).unwrap();
    assert_eq!(plan.injected(), 1, "one push WQE failed, and was retried");
    assert_eq!(m.model_checksum(), saved, "bit-for-bit after a retry");
    w.fabric.clear_faults(daemon_node).unwrap();

    w.fabric.arm_faults(daemon_node, FaultSpec::All).unwrap();
    m.train_step();
    let err = c.restore(&m).unwrap_err();
    let PortusError::DatapathFailed { op, failures, .. } = &err else {
        panic!("expected a typed datapath error, got: {err}");
    };
    assert_eq!(op, "restore");
    let named: Vec<&str> = failures
        .iter()
        .flat_map(|f| f.tensors.iter().map(String::as_str))
        .collect();
    assert_eq!(
        named,
        [
            "push.layer0.weight",
            "push.layer1.weight",
            "push.layer2.weight"
        ],
        "each tensor named once"
    );
    w.fabric.clear_faults(daemon_node).unwrap();

    let index = w.daemon.index();
    let (_, off) = index.live_entries().unwrap()[0];
    let mi = index.load_mindex(off).unwrap();
    let (slot, hdr) = mi.latest_done().expect("the slot stays Done");
    assert_eq!(hdr.version, 1);
    assert_eq!(index.slot_digest(&mi, slot).unwrap(), hdr.digest);
    c.restore(&m).unwrap();
    assert_eq!(m.model_checksum(), saved);
}

// ---------------------------------------------------------------------
// Streamed extent inserts: the empty model and the seal's cost.
// ---------------------------------------------------------------------

#[test]
fn an_empty_model_checkpoints_and_restores_on_a_dedup_daemon() {
    let w = world_cfg(dedup_cfg());
    let c = client(&w);
    let mut m = register(&w, &c, &test_spec("empty", 2, 0), 1);
    let saved = m.model_checksum();
    assert_eq!(c.checkpoint("empty").unwrap().version, 1);
    assert_eq!(c.checkpoint("empty").unwrap().version, 2);
    let store = w.daemon.index().extent_store().expect("dedup enabled");
    assert_eq!(store.stats().unwrap().live, 0, "no extent for no bytes");
    m.train_step();
    assert_eq!(c.restore(&m).unwrap().version, 2);
    assert_eq!(m.model_checksum(), saved);
}

/// A checkpoint whose step changed exactly one 64 KiB chunk streams that
/// one extent: its `Stage::Dedup` span is the DAX read of the model plus
/// the DAX write of the chunk and the map, and it flushes a handful of
/// metadata lines, not the chunk's 1024.
#[test]
fn a_one_chunk_step_seals_in_one_stream_without_a_clwb_pass() {
    const CHUNK: u64 = 64 << 10;
    const LAYERS: u64 = 4;
    let w = world_cfg(dedup_cfg());
    let c = client(&w);
    let mut m = register(&w, &c, &test_spec("step", LAYERS as usize, CHUNK), 5);
    c.checkpoint("step").unwrap();
    m.train_step_sparse(&[2]);
    let saved = m.model_checksum();

    w.ctx.tracer.enable();
    let before = w.ctx.stats.snapshot();
    c.checkpoint("step").unwrap();
    let flushes = w.ctx.stats.snapshot().since(&before).pmem_flushes;
    let spans = w.ctx.tracer.spans();
    let dedup: Vec<_> = spans.iter().filter(|s| s.stage == Stage::Dedup).collect();
    assert_eq!(dedup.len(), 1, "one seal");
    let model = &w.ctx.model;
    let map = 32 + 8 * LAYERS;
    let bound =
        model.dax_read(LAYERS * CHUNK) + model.dax_write(CHUNK + map) + SimDuration::from_micros(5);
    assert!(
        dedup[0].duration() <= bound,
        "dedup span {:?} over {bound:?}",
        dedup[0].duration()
    );
    assert!(flushes < 64, "{flushes} lines flushed");
    let stats = w.daemon.index().extent_store().unwrap().stats().unwrap();
    assert_eq!(
        (stats.live, stats.shared),
        (LAYERS + 1, LAYERS - 1),
        "one new extent"
    );

    m.train_step();
    c.restore(&m).unwrap();
    assert_eq!(m.model_checksum(), saved);
}
