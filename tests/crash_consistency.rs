//! Crash-consistency of the double-mapping scheme (§III-D2), tested
//! against the honest PMem failure model: unflushed lines may or may
//! not reach media, decided adversarially at random.
//!
//! Invariant under test: **after any crash, recovery finds at least one
//! complete, checksum-valid checkpoint version, and it is the most
//! recent version whose completion was acknowledged.**

// Under the offline `proptest` stub the `proptest!` bodies are
// swallowed, leaving imports and strategy helpers "unused"; with the
// real crate they are all live.
#![allow(unused_imports, dead_code)]

use proptest::prelude::*;

use portus::{DaemonConfig, PortusClient, PortusDaemon, PortusError, SlotState};
use portus_dnn::{test_spec, Materialization, ModelInstance};
use portus_mem::GpuDevice;
use portus_pmem::{CrashSpec, PmemDevice, PmemMode};
use portus_rdma::{Fabric, FaultSpec, NodeId};
use portus_sim::SimContext;

/// Runs `completed` checkpoints, then a torn in-flight one (garbage in
/// the target slot, marked Active, nothing fenced), then crashes with
/// `seed` and recovers. Returns (latest recovered version, restored
/// state checksum, expected checksum).
fn torn_checkpoint_scenario(completed: u64, seed: u64) -> (u64, u64, u64) {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 64 << 20);
    let daemon =
        PortusDaemon::start(&fabric, NodeId(1), pmem.clone(), DaemonConfig::default()).unwrap();
    let gpu = GpuDevice::new(ctx.clone(), 0, 1 << 30);
    let spec = test_spec("victim", 4, 64 * 1024);
    let mut model = ModelInstance::materialize(&spec, &gpu, 1, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&daemon, compute.clone());
    client.register_model(&model).unwrap();

    let mut last_state = 0u64;
    for _ in 0..completed {
        model.train_step();
        last_state = model.model_checksum();
        client.checkpoint("victim").unwrap();
    }

    // A checkpoint is in flight when the power fails: the daemon has
    // marked the target slot Active and pulled part of the data, none
    // of it fenced. Emulate the partial pull directly on the device.
    let index = daemon.index();
    let (_, off) = index.live_entries().unwrap()[0];
    let mi = index.load_mindex(off).unwrap();
    let target = mi.target_slot();
    index.mark_slot_active(&mi, target, completed + 1).unwrap();
    let hdr = mi.slots[target];
    // Partial garbage, deliberately unfenced.
    let garbage = vec![0xEE; (hdr.data_len / 2).max(64) as usize];
    pmem.write(hdr.data_off, &garbage).unwrap();

    drop(client);
    daemon.shutdown();
    pmem.crash(CrashSpec::Random { seed });

    // Recovery.
    let daemon2 = PortusDaemon::recover(&fabric, NodeId(1), pmem, DaemonConfig::default())
        .expect("recovery must always succeed");
    let summaries = daemon2.summaries().unwrap();
    assert_eq!(summaries.len(), 1);
    let latest = summaries[0].latest_version.unwrap_or(0);

    // The recovered latest-done slot must be digest-valid.
    let index2 = daemon2.index();
    let (_, off2) = index2.live_entries().unwrap()[0];
    let mi2 = index2.load_mindex(off2).unwrap();
    if let Some((slot, hdr)) = mi2.latest_done() {
        assert_eq!(
            index2.slot_digest(&mi2, slot).unwrap(),
            hdr.digest,
            "recovered Done slot failed integrity"
        );
    }

    // Restore through the full client path and compare content.
    let restored_state = if completed > 0 {
        let client2 = PortusClient::connect(&daemon2, compute);
        client2.register_model(&model).unwrap();
        model.train_step(); // diverge
        client2.restore(&model).unwrap();
        model.model_checksum()
    } else {
        0
    };
    (latest, restored_state, last_state)
}

#[test]
fn torn_checkpoint_never_loses_the_last_complete_version() {
    for completed in 1..=3 {
        for seed in [0u64, 1, 0xDEAD, 0xBEEF] {
            let (latest, restored, expected) = torn_checkpoint_scenario(completed, seed);
            assert_eq!(
                latest, completed,
                "latest recovered version (completed={completed}, seed={seed})"
            );
            assert_eq!(
                restored, expected,
                "restored bytes (completed={completed}, seed={seed})"
            );
        }
    }
}

#[test]
fn crash_before_any_checkpoint_recovers_empty_model() {
    let (latest, _, _) = torn_checkpoint_scenario(0, 42);
    assert_eq!(latest, 0, "no complete version may be invented");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Property: for arbitrary completed-checkpoint counts and crash
    /// seeds, recovery serves exactly the last acknowledged version.
    #[test]
    fn recovery_always_serves_last_acknowledged_version(
        completed in 1u64..4,
        seed in any::<u64>(),
    ) {
        let (latest, restored, expected) = torn_checkpoint_scenario(completed, seed);
        prop_assert_eq!(latest, completed);
        prop_assert_eq!(restored, expected);
    }
}

#[test]
fn active_slot_is_never_served_after_recovery() {
    // Direct check on the slot states after a torn-checkpoint crash.
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 64 << 20);
    let daemon =
        PortusDaemon::start(&fabric, NodeId(1), pmem.clone(), DaemonConfig::default()).unwrap();
    let gpu = GpuDevice::new(ctx, 0, 1 << 30);
    let spec = test_spec("v", 2, 4096);
    let mut model = ModelInstance::materialize(&spec, &gpu, 1, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&daemon, compute);
    client.register_model(&model).unwrap();
    model.train_step();
    client.checkpoint("v").unwrap();

    let index = daemon.index();
    let (_, off) = index.live_entries().unwrap()[0];
    let mi = index.load_mindex(off).unwrap();
    let target = mi.target_slot();
    index.mark_slot_active(&mi, target, 2).unwrap();

    drop(client);
    daemon.shutdown();
    pmem.crash(CrashSpec::LoseAll);

    let daemon2 = PortusDaemon::recover(&fabric, NodeId(1), pmem, DaemonConfig::default()).unwrap();
    let index2 = daemon2.index();
    let (_, off2) = index2.live_entries().unwrap()[0];
    let mi2 = index2.load_mindex(off2).unwrap();
    let (done_slot, hdr) = mi2.latest_done().unwrap();
    assert_eq!(hdr.version, 1, "only v1 completed");
    assert_ne!(done_slot, target);
    assert_eq!(
        mi2.slots[target].state,
        SlotState::Active,
        "torn slot stays marked invalid"
    );
}

#[test]
fn checkpoint_failing_mid_pull_restores_previous_done_version() {
    // A datapath fault (not a power failure) kills the pull halfway:
    // the daemon must roll the target slot back so the previous Done
    // version stays the one restore serves.
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 64 << 20);
    // No retry budget: the first fabric error is terminal.
    let cfg = DaemonConfig {
        verb_retries: 0,
        ..DaemonConfig::default()
    };
    let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem, cfg).unwrap();
    let gpu = GpuDevice::new(ctx, 0, 1 << 30);
    // 20 adjacent tensors coalesce into two gather WQEs (MAX_SGE = 16),
    // so failing the second verb leaves the pull half landed.
    let spec = test_spec("mid", 20, 4096);
    let mut model = ModelInstance::materialize(&spec, &gpu, 1, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&daemon, compute);
    client.register_model(&model).unwrap();

    model.train_step();
    let saved = model.model_checksum();
    client.checkpoint("mid").unwrap(); // v1 completes cleanly

    // The daemon NIC initiates the one-sided verbs, so arm it there.
    fabric.arm_faults(NodeId(1), FaultSpec::Nth(2)).unwrap();
    model.train_step();
    let err = client.checkpoint("mid").unwrap_err();
    assert!(
        matches!(&err, PortusError::DatapathFailed { op, .. } if op == "checkpoint"),
        "expected a typed datapath error, got: {err}"
    );
    fabric.clear_faults(NodeId(1)).unwrap();

    // The half-pulled slot was rolled back: v1 is still the latest Done
    // version and nothing is left Active.
    let index = daemon.index();
    let (_, off) = index.live_entries().unwrap()[0];
    let mi = index.load_mindex(off).unwrap();
    assert_eq!(mi.latest_done().unwrap().1.version, 1);
    assert_eq!(mi.valid_versions(), 1);
    assert!(
        mi.slots.iter().all(|s| s.state != SlotState::Active),
        "no slot may stay Active after a failed pull"
    );

    // And restore serves the acknowledged v1 content.
    model.train_step(); // diverge
    let report = client.restore(&model).unwrap();
    assert_eq!(report.version, 1);
    assert_eq!(model.model_checksum(), saved);
    drop(client);
    daemon.shutdown();
}

#[test]
fn delta_failure_after_landed_pulls_rolls_the_slot_back() {
    // A delta over a slot that holds an older Done version pulls its
    // runs into that slot. If one run fails after another landed, the
    // slot holds a mix of old and new bytes — it must still be rolled
    // back: the clobbered older version collapses (its digest would
    // falsely validate), and the latest version stays the one restored.
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 64 << 20);
    let cfg = DaemonConfig {
        verb_retries: 0,
        ..DaemonConfig::default()
    };
    let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem, cfg).unwrap();
    let gpu = GpuDevice::new(ctx.clone(), 0, 1 << 30);
    let spec = test_spec("delta", 4, 4096);
    let mut model = ModelInstance::materialize(&spec, &gpu, 1, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&daemon, compute);
    client.register_model(&model).unwrap();

    model.train_step();
    client.checkpoint("delta").unwrap(); // v1
    model.take_dirty();
    // v2 lands in the empty slot and pulls every tensor.
    model.train_step_sparse(&[0, 2]);
    let saved = model.model_checksum();
    let dirty = model.take_dirty();
    client.checkpoint_delta("delta", &dirty).unwrap();

    let before = ctx.stats.snapshot();
    // v3 lands on v1: tensors 1 and 3 stay in place, 0 and 2 are two
    // pull runs. Every verb after the first fails, so tensor 0 lands
    // and tensor 2's run fails terminally.
    let window = FaultSpec::Window {
        from: 2,
        to: u64::MAX,
    };
    fabric.arm_faults(NodeId(1), window).unwrap();
    model.train_step_sparse(&[0, 2]);
    let dirty = model.take_dirty();
    let err = client.checkpoint_delta("delta", &dirty).unwrap_err();
    assert!(
        matches!(&err, PortusError::DatapathFailed { op, .. } if op == "delta-checkpoint"),
        "expected a typed datapath error, got: {err}"
    );
    fabric.clear_faults(NodeId(1)).unwrap();

    let delta = ctx.stats.snapshot().since(&before);
    assert_eq!(delta.rolled_back_slots, 1);

    // The clobbered v1 is gone, v2 is untouched; the target slot
    // collapsed to Empty.
    let index = daemon.index();
    let (_, off) = index.live_entries().unwrap()[0];
    let mi = index.load_mindex(off).unwrap();
    assert_eq!(mi.valid_versions(), 1);
    let (done_slot, hdr) = mi.latest_done().unwrap();
    assert_eq!(hdr.version, 2);
    assert_eq!(mi.slots[1 - done_slot].state, SlotState::Empty);

    // The surviving v2 still restores byte-for-byte.
    model.train_step(); // diverge
    let report = client.restore(&model).unwrap();
    assert_eq!(report.version, 2);
    assert_eq!(model.model_checksum(), saved);
    drop(client);
    daemon.shutdown();
}

#[test]
fn torn_modeltable_publication_is_rolled_back() {
    // Crash between CAS-claim and go-live of a ModelTable entry: the
    // model must not exist after recovery and the slot is reusable.
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 64 << 20);
    let daemon =
        PortusDaemon::start(&fabric, NodeId(1), pmem.clone(), DaemonConfig::default()).unwrap();

    let gpu = GpuDevice::new(ctx, 0, 1 << 30);
    let spec = test_spec("published", 2, 4096);
    let model = ModelInstance::materialize(&spec, &gpu, 1, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&daemon, compute.clone());
    client.register_model(&model).unwrap();

    // Forge a half-published entry (state CLAIMED = 1) in slot 1.
    let entry1 = 64 + 32; // superblock + first entry
    pmem.cas_u64_persist(entry1, 0, 1).unwrap().unwrap();

    drop(client);
    daemon.shutdown();
    pmem.crash(CrashSpec::LoseAll);

    let daemon2 = PortusDaemon::recover(&fabric, NodeId(1), pmem, DaemonConfig::default()).unwrap();
    assert_eq!(
        daemon2.model_count(),
        1,
        "only the fully published model survives"
    );
    // The rolled-back slot is reusable: register another model.
    let spec2 = test_spec("second", 2, 4096);
    let model2 = ModelInstance::materialize(
        &spec2,
        &GpuDevice::new(SimContext::icdcs24(), 1, 1 << 30),
        2,
        Materialization::Owned,
    )
    .unwrap();
    let client2 = PortusClient::connect(&daemon2, compute);
    client2.register_model(&model2).unwrap();
    assert_eq!(daemon2.model_count(), 2);
}
