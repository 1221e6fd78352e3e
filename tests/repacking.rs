//! The repacking tool (§III-D2, Fig. 7): reclaiming PMem from finished
//! jobs and from checkpoints that crashed mid-write.

use portus::{repack, DaemonConfig, PortusClient, PortusDaemon, PortusError, SlotState};
use portus_dnn::{test_spec, Materialization, ModelInstance};
use portus_mem::GpuDevice;
use portus_pmem::{PmemDevice, PmemMode};
use portus_rdma::{Fabric, FaultSpec, NodeId};
use portus_sim::SimContext;

struct World {
    ctx: SimContext,
    fabric: Fabric,
    daemon: std::sync::Arc<PortusDaemon>,
    gpu: std::sync::Arc<GpuDevice>,
}

fn world() -> World {
    world_cfg(DaemonConfig::default())
}

fn world_cfg(cfg: DaemonConfig) -> World {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 256 << 20);
    let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem, cfg).unwrap();
    let gpu = GpuDevice::new(ctx.clone(), 0, 2 << 30);
    World {
        ctx,
        fabric,
        daemon,
        gpu,
    }
}

#[test]
fn finished_jobs_shrink_to_one_version() {
    let w = world();
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    let spec = test_spec("finished", 4, 512 * 1024);
    let mut model = ModelInstance::materialize(&spec, &w.gpu, 1, Materialization::Owned).unwrap();
    client.register_model(&model).unwrap();
    model.train_step();
    client.checkpoint("finished").unwrap();
    model.train_step();
    let final_state = model.model_checksum();
    client.checkpoint("finished").unwrap();
    client.mark_complete("finished").unwrap();

    let free_before = w.daemon.index().allocator().free_bytes();
    let report = repack(&w.daemon, false).unwrap();
    assert_eq!(report.scanned_models, 1);
    assert_eq!(report.reclaimed_slots, 1, "the non-latest version goes");
    assert!(report.freed_bytes >= spec.total_bytes());
    assert!(w.daemon.index().allocator().free_bytes() > free_before);

    // The latest version still restores bit-for-bit.
    model.train_step();
    let r = client.restore(&model).unwrap();
    assert_eq!(r.version, 2);
    assert_eq!(model.model_checksum(), final_state);
    let _ = w.ctx;
}

#[test]
fn crashed_active_slots_need_a_recovery_epoch_to_be_reclaimed() {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 256 << 20);
    let daemon =
        PortusDaemon::start(&fabric, NodeId(1), pmem.clone(), DaemonConfig::default()).unwrap();
    let gpu = GpuDevice::new(ctx, 0, 2 << 30);
    let spec = test_spec("crashy", 3, 256 * 1024);
    let mut model = ModelInstance::materialize(&spec, &gpu, 2, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&daemon, compute);
    client.register_model(&model).unwrap();
    model.train_step();
    client.checkpoint("crashy").unwrap();

    // Simulate a checkpoint that died mid-pull: slot marked Active.
    let index = daemon.index();
    let (_, off) = index.live_entries().unwrap()[0];
    let mi = index.load_mindex(off).unwrap();
    let target = mi.target_slot();
    index.mark_slot_active(&mi, target, 2).unwrap();

    // The safe pass leaves running jobs alone...
    let safe = repack(&daemon, false).unwrap();
    assert_eq!(safe.reclaimed_slots, 0);
    // ...and so does the aggressive pass on the LIVE daemon: the slot
    // went Active during this incarnation, so for all the repacker
    // knows a pull is in flight into it. The recovery-epoch gate
    // refuses to treat it as crash debris.
    let live = repack(&daemon, true).unwrap();
    assert_eq!(live.reclaimed_slots, 0, "live Active slots are fenced");

    // After a restart the slot is provably stale — no thread of the
    // new incarnation can be writing into it — and the aggressive
    // pass reclaims it.
    drop(client);
    daemon.shutdown();
    let daemon2 = PortusDaemon::recover(&fabric, NodeId(1), pmem, DaemonConfig::default()).unwrap();
    let aggressive = repack(&daemon2, true).unwrap();
    assert_eq!(aggressive.reclaimed_slots, 1);
    assert_eq!(aggressive.reclaimed_active, 1);

    // The slot header is detached; the Done version is untouched.
    let mi2 = daemon2.index().load_mindex(off).unwrap();
    assert_eq!(mi2.slots[target].state, SlotState::Empty);
    assert_eq!(mi2.slots[target].data_off, 0);
    assert_eq!(mi2.latest_done().unwrap().1.version, 1);
}

#[test]
fn checkpointing_resumes_after_repack_by_reallocating_the_slot() {
    let w = world();
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    let spec = test_spec("resume", 3, 128 * 1024);
    let mut model = ModelInstance::materialize(&spec, &w.gpu, 3, Materialization::Owned).unwrap();
    client.register_model(&model).unwrap();
    model.train_step();
    client.checkpoint("resume").unwrap();

    // Reclaim the idle second slot (job-complete path), then resume
    // training: the daemon must lazily re-allocate a region.
    client.mark_complete("resume").unwrap();
    let report = repack(&w.daemon, false).unwrap();
    assert_eq!(report.reclaimed_slots, 1);

    model.train_step();
    let state2 = model.model_checksum();
    let r = client.checkpoint("resume").unwrap();
    assert_eq!(r.version, 2);
    model.train_step();
    client.restore(&model).unwrap();
    assert_eq!(model.model_checksum(), state2);
}

/// A partially-failed delta collapses a previously-Done slot (PR 2's
/// rollback): the header empties but keeps its region, the safe repack
/// pass leaves the collapsed slot of the still-running job alone, the
/// next checkpoint re-uses the region through `ensure_slot_region`,
/// and only job completion lets repack reclaim the non-latest version.
#[test]
fn collapsed_slot_survives_safe_repack_and_is_reused() {
    let w = world_cfg(DaemonConfig {
        verb_retries: 0, // one failed WQE is terminal — forces the rollback
        ..DaemonConfig::default()
    });
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    let spec = test_spec("collapse", 4, 128 * 1024);
    let mut model = ModelInstance::materialize(&spec, &w.gpu, 5, Materialization::Owned).unwrap();
    client.register_model(&model).unwrap();
    model.train_step();
    client.checkpoint("collapse").unwrap();
    model.take_dirty();
    // Delta v2 lands in the empty slot and pulls every tensor.
    model.train_step_sparse(&[0, 2]);
    let dirty = model.take_dirty();
    client.checkpoint_delta("collapse", &dirty).unwrap();

    // Delta v3 targets the slot holding Done v1. Dirty tensors 0 and 2
    // become two non-adjacent pull runs (1 and 3 stay in place); fail
    // the second verb so run 1 lands data in the slot (collapse, not
    // revert) and the delta dies.
    let index = w.daemon.index();
    let (_, off) = index.live_entries().unwrap()[0];
    let target = index.load_mindex(off).unwrap().target_slot();
    w.fabric.arm_faults(NodeId(1), FaultSpec::Nth(2)).unwrap();
    model.train_step_sparse(&[0, 2]);
    let dirty = model.take_dirty();
    let err = client.checkpoint_delta("collapse", &dirty).unwrap_err();
    assert!(
        matches!(err, PortusError::DatapathFailed { .. }),
        "got {err}"
    );

    let mi = index.load_mindex(off).unwrap();
    assert_eq!(mi.slots[target].state, SlotState::Empty, "collapsed");
    assert_ne!(mi.slots[target].data_off, 0, "collapse keeps the region");
    assert_eq!(mi.latest_done().unwrap().1.version, 2, "v2 untouched");

    // Safe repack must not touch the collapsed slot of a running job.
    let safe = repack(&w.daemon, false).unwrap();
    assert_eq!(safe.reclaimed_slots, 0);
    assert_eq!(safe.freed_bytes, 0);

    // Training resumes: the next checkpoint re-attaches the kept
    // region (no fresh allocation needed) and restores bit-for-bit.
    w.fabric.clear_faults(NodeId(1)).unwrap();
    model.train_step();
    let state3 = model.model_checksum();
    let r = client.checkpoint("collapse").unwrap();
    // Not 3: the collapsed delta burned version 3, and the monotonicity
    // invariant (PR 4) forbids reissuing it.
    assert_eq!(r.version, 4);
    let mi3 = index.load_mindex(off).unwrap();
    assert_eq!(mi3.slots[target].state, SlotState::Done);
    assert_eq!(
        mi3.slots[target].data_off, mi.slots[target].data_off,
        "ensure_slot_region re-used the collapsed slot's region"
    );
    model.train_step();
    client.restore(&model).unwrap();
    assert_eq!(model.model_checksum(), state3);

    // Only once the job completes does repack reclaim the non-latest
    // version's region.
    client.mark_complete("collapse").unwrap();
    let done = repack(&w.daemon, false).unwrap();
    assert_eq!(done.reclaimed_slots, 1);
    assert!(done.freed_bytes >= spec.total_bytes());
    let _ = w.ctx;
}

/// A slot header pointing at a region the allocator has no record of is
/// index/allocator divergence: repack must stop with the typed error
/// and leave the header untouched — not clear it and report
/// `freed_bytes = 0` as if the pass had succeeded.
#[test]
fn repack_surfaces_allocator_divergence_and_preserves_the_header() {
    let w = world();
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    let spec = test_spec("diverge", 2, 64 * 1024);
    let mut model = ModelInstance::materialize(&spec, &w.gpu, 6, Materialization::Owned).unwrap();
    client.register_model(&model).unwrap();
    model.train_step();
    client.checkpoint("diverge").unwrap();
    client.mark_complete("diverge").unwrap();

    // Corrupt the metadata: free the allocation backing the idle slot
    // behind the allocator's back, so the header now points at a
    // region the allocator no longer knows.
    let index = w.daemon.index();
    let (_, off) = index.live_entries().unwrap()[0];
    let mi = index.load_mindex(off).unwrap();
    let (victim, hdr) = mi
        .slots
        .iter()
        .enumerate()
        .find(|(_, h)| h.state == SlotState::Empty && h.data_off != 0)
        .expect("idle slot with a region");
    let stale_off = hdr.data_off;
    let alloc = index
        .allocator()
        .live_at(stale_off)
        .expect("backing allocation");
    index.allocator().free(&alloc).unwrap();

    let err = repack(&w.daemon, false).unwrap_err();
    match err {
        PortusError::AllocatorDivergence {
            model,
            slot,
            data_off,
        } => {
            assert_eq!(model, "diverge");
            assert_eq!(slot, victim);
            assert_eq!(data_off, stale_off);
        }
        other => panic!("expected AllocatorDivergence, got {other}"),
    }
    // The corrupt header survives as evidence.
    let after = index.load_mindex(off).unwrap();
    assert_eq!(after.slots[victim].data_off, stale_off);
    assert_eq!(after.slots[victim].state, SlotState::Empty);
    let _ = w.ctx;
}

#[test]
fn repack_is_idempotent() {
    let w = world();
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    let spec = test_spec("idem", 2, 64 * 1024);
    let mut model = ModelInstance::materialize(&spec, &w.gpu, 4, Materialization::Owned).unwrap();
    client.register_model(&model).unwrap();
    model.train_step();
    client.checkpoint("idem").unwrap();
    client.mark_complete("idem").unwrap();

    let first = repack(&w.daemon, true).unwrap();
    assert!(first.reclaimed_slots > 0);
    let second = repack(&w.daemon, true).unwrap();
    assert_eq!(second.reclaimed_slots, 0, "nothing left to reclaim");
    assert_eq!(second.freed_bytes, 0);
}
