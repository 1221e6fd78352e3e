//! Deterministic fault injection on the simulated fabric: datapath
//! verbs fail on command, the daemon retries per-WQE with simulated
//! backoff, exhausted WQEs roll the target slot back, and the client
//! receives a typed error attributing every failed tensor.

use portus::{DaemonConfig, PortusClient, PortusDaemon, PortusError, SlotState, PULL_WQE_BYTES};
use portus_dnn::{test_spec, DType, Materialization, ModelInstance, ModelSpec, TensorMeta};
use portus_mem::GpuDevice;
use portus_pmem::{PmemDevice, PmemMode};
use portus_rdma::{Fabric, FaultSpec, NodeId};
use portus_sim::{SimContext, Stage};

/// The daemon's NIC: one-sided verbs are initiated there, so that is
/// where fault plans must be armed.
const DAEMON_NODE: NodeId = NodeId(1);

struct World {
    ctx: SimContext,
    fabric: Fabric,
    daemon: std::sync::Arc<PortusDaemon>,
    client: PortusClient,
}

/// Builds a one-daemon/one-client world with a registered model of
/// `layers` adjacent 4 KiB tensors, already one train step in.
fn world(name: &str, layers: usize, cfg: DaemonConfig) -> (World, ModelInstance) {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    fabric.add_nic(DAEMON_NODE);
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 64 << 20);
    let daemon = PortusDaemon::start(&fabric, DAEMON_NODE, pmem, cfg).unwrap();
    let gpu = GpuDevice::new(ctx.clone(), 0, 1 << 30);
    let spec = test_spec(name, layers, 4096);
    let mut model = ModelInstance::materialize(&spec, &gpu, 7, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&daemon, compute);
    client.register_model(&model).unwrap();
    model.train_step();
    (
        World {
            ctx,
            fabric,
            daemon,
            client,
        },
        model,
    )
}

/// [`world`] over `spec`, but with 4-engine NICs on both nodes so a
/// `qps_per_connection = 4` config actually stripes.
fn striped_world(spec: ModelSpec, cfg: DaemonConfig) -> (World, ModelInstance) {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic_with_engines(NodeId(0), 4);
    fabric.add_nic_with_engines(DAEMON_NODE, 4);
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 64 << 20);
    let daemon = PortusDaemon::start(&fabric, DAEMON_NODE, pmem, cfg).unwrap();
    let gpu = GpuDevice::new(ctx.clone(), 0, 1 << 30);
    let mut model = ModelInstance::materialize(&spec, &gpu, 7, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&daemon, compute);
    client.register_model(&model).unwrap();
    model.train_step();
    (
        World {
            ctx,
            fabric,
            daemon,
            client,
        },
        model,
    )
}

#[test]
fn transient_fault_is_absorbed_by_the_retry_loop() {
    let (w, mut model) = world("transient", 4, DaemonConfig::default());
    let saved = model.model_checksum();

    let before = w.ctx.stats.snapshot();
    let plan = w.fabric.arm_faults(DAEMON_NODE, FaultSpec::Nth(1)).unwrap();
    // Only the first verb fails; the retry round re-posts it cleanly.
    let report = w.client.checkpoint("transient").unwrap();
    assert_eq!(report.version, 1);
    assert_eq!(plan.injected(), 1);

    let d = w.ctx.stats.snapshot().since(&before);
    assert_eq!(d.failed_verbs, 1);
    assert_eq!(d.retried_verbs, 1);
    assert_eq!(
        d.rolled_back_slots, 0,
        "a recovered checkpoint must not roll back"
    );

    // The retry backoff was charged to the virtual clock: an identical
    // world with no fault finishes the same checkpoint strictly sooner.
    let (w2, _model2) = world("transient", 4, DaemonConfig::default());
    let clean = w2.client.checkpoint("transient").unwrap();
    assert!(
        report.elapsed > clean.elapsed,
        "retry must cost simulated time: {:?} !> {:?}",
        report.elapsed,
        clean.elapsed
    );

    // The recovered checkpoint is fully usable.
    w.fabric.clear_faults(DAEMON_NODE).unwrap();
    model.train_step(); // diverge
    let r = w.client.restore(&model).unwrap();
    assert_eq!(r.version, 1);
    assert_eq!(model.model_checksum(), saved);

    drop(w.client);
    w.daemon.shutdown();
    drop(w2.client);
    w2.daemon.shutdown();
}

#[test]
fn hard_outage_returns_typed_error_and_rolls_back() {
    let (w, mut model) = world("outage", 4, DaemonConfig::default());
    let saved = model.model_checksum();
    w.client.checkpoint("outage").unwrap(); // v1 lands cleanly

    let before = w.ctx.stats.snapshot();
    w.fabric.arm_faults(DAEMON_NODE, FaultSpec::All).unwrap();
    model.train_step();
    let err = w.client.checkpoint("outage").unwrap_err();
    match &err {
        PortusError::DatapathFailed {
            model: m,
            op,
            failures,
        } => {
            assert_eq!(m, "outage");
            assert_eq!(op, "checkpoint");
            assert_eq!(failures.len(), 1, "4 adjacent tensors ride one gather WQE");
            assert_eq!(failures[0].retries, DaemonConfig::default().verb_retries);
            assert_eq!(failures[0].tensors.len(), 4);
            assert!(failures[0].error.contains("injected fault"));
        }
        other => panic!("expected DatapathFailed, got: {other}"),
    }

    let d = w.ctx.stats.snapshot().since(&before);
    assert_eq!(d.failed_verbs, 4, "initial post plus three retry rounds");
    assert_eq!(d.retried_verbs, 3);
    assert_eq!(d.rolled_back_slots, 1);

    // Both slots are in their pre-call flag state: v1 Done, target Empty.
    let index = w.daemon.index();
    let (_, off) = index.live_entries().unwrap()[0];
    let mi = index.load_mindex(off).unwrap();
    let (done_slot, hdr) = mi.latest_done().unwrap();
    assert_eq!(hdr.version, 1);
    assert_eq!(mi.slots[1 - done_slot].state, SlotState::Empty);

    // Once the fabric heals, restore serves the last Done version.
    w.fabric.clear_faults(DAEMON_NODE).unwrap();
    model.train_step();
    let r = w.client.restore(&model).unwrap();
    assert_eq!(r.version, 1);
    assert_eq!(model.model_checksum(), saved);

    drop(w.client);
    w.daemon.shutdown();
}

#[test]
fn failed_restore_push_leaves_the_done_slot_intact() {
    let cfg = DaemonConfig {
        verb_retries: 0,
        ..DaemonConfig::default()
    };
    let (w, mut model) = world("push", 4, cfg);
    let saved = model.model_checksum();
    w.client.checkpoint("push").unwrap();

    let before = w.ctx.stats.snapshot();
    w.fabric.arm_faults(DAEMON_NODE, FaultSpec::All).unwrap();
    model.train_step(); // diverge
    let err = w.client.restore(&model).unwrap_err();
    assert!(
        matches!(&err, PortusError::DatapathFailed { op, .. } if op == "restore"),
        "expected a typed datapath error, got: {err}"
    );

    // A failed push touches no persistent state: nothing to roll back,
    // the stored version stays Done and checksum-valid.
    let d = w.ctx.stats.snapshot().since(&before);
    assert_eq!(d.rolled_back_slots, 0);
    let index = w.daemon.index();
    let (_, off) = index.live_entries().unwrap()[0];
    let mi = index.load_mindex(off).unwrap();
    assert_eq!(mi.valid_versions(), 1);
    assert_eq!(mi.latest_done().unwrap().1.version, 1);

    w.fabric.clear_faults(DAEMON_NODE).unwrap();
    let r = w.client.restore(&model).unwrap();
    assert_eq!(r.version, 1);
    assert_eq!(model.model_checksum(), saved);

    drop(w.client);
    w.daemon.shutdown();
}

#[test]
fn every_failed_run_is_attributed_not_just_the_first() {
    let cfg = DaemonConfig {
        verb_retries: 0,
        ..DaemonConfig::default()
    };
    let (w, mut model) = world("multi", 4, cfg);
    w.client.checkpoint("multi").unwrap(); // v1
    let _ = model.take_dirty(); // v1 covered everything up to here

    // v2 lands in the empty slot and pulls every tensor.
    model.train_step_sparse(&[0, 2]);
    let dirty = model.take_dirty();
    w.client.checkpoint_delta("multi", &dirty).unwrap();
    model.train_step_sparse(&[0, 2]);
    let dirty = model.take_dirty();

    w.fabric.arm_faults(DAEMON_NODE, FaultSpec::All).unwrap();
    // v3 lands on v1. Dirty tensors 0 and 2: the gap at 1, left in
    // place, splits the pull into two single-tensor WQEs — the error
    // must report both, each with its own tensor attribution.
    let err = w.client.checkpoint_delta("multi", &dirty).unwrap_err();
    match &err {
        PortusError::DatapathFailed { op, failures, .. } => {
            assert_eq!(op, "delta-checkpoint");
            assert_eq!(failures.len(), 2);
            assert_eq!(failures[0].tensors, ["multi.layer0.weight"]);
            assert_eq!(failures[1].tensors, ["multi.layer2.weight"]);
        }
        other => panic!("expected DatapathFailed, got: {other}"),
    }

    drop(w.client);
    w.daemon.shutdown();
}

#[test]
fn striped_retry_stays_on_the_failing_lane() {
    let cfg = DaemonConfig {
        qps_per_connection: 4,
        ..DaemonConfig::default()
    };
    let (w, mut model) = striped_world(test_spec("lane", 8, 4096), cfg);
    w.client.checkpoint("lane").unwrap(); // v1, clean
    let _ = model.take_dirty(); // v1 covered everything up to here

    // Dirty every other tensor, twice. v2 lands in the empty slot and
    // pulls every tensor; on v3, which lands on v1, the gaps left in
    // place split the pull into four single-tensor WQEs, one per lane.
    let evens: Vec<usize> = (0..8).step_by(2).collect();
    model.train_step_sparse(&evens);
    let dirty = model.take_dirty();
    w.client.checkpoint_delta("lane", &dirty).unwrap();
    model.train_step_sparse(&evens);
    let dirty = model.take_dirty();

    let before = w.ctx.stats.snapshot();
    w.ctx.tracer.enable();
    w.fabric.arm_faults(DAEMON_NODE, FaultSpec::Nth(1)).unwrap();
    let report = w.client.checkpoint_delta("lane", &dirty).unwrap();
    assert_eq!(report.version, 3);

    // One WQE failed, one retry absorbed it, nothing rolled back —
    // the other lanes' completed runs were never re-posted.
    let d = w.ctx.stats.snapshot().since(&before);
    assert_eq!(d.failed_verbs, 1);
    assert_eq!(d.retried_verbs, 1);
    assert_eq!(d.rolled_back_slots, 0);

    // Round 0 fanned out across lanes; the retry round posted on
    // exactly the lane that failed.
    let spans = w.ctx.tracer.spans();
    let lanes_in = |round: u32| -> std::collections::BTreeSet<u32> {
        spans
            .iter()
            .filter(|s| s.round == round && matches!(s.stage, Stage::DoorbellPost | Stage::CqDrain))
            .map(|s| s.lane)
            .collect()
    };
    let round0 = lanes_in(0);
    let round1 = lanes_in(1);
    assert!(
        round0.len() >= 2,
        "expected a striped first round, got {round0:?}"
    );
    assert_eq!(
        round1.len(),
        1,
        "retry must stay on its lane, got {round1:?}"
    );
    assert!(
        round0.contains(round1.iter().next().unwrap()),
        "retry lane must be one of the original stripes"
    );

    drop(w.client);
    w.daemon.shutdown();
}

#[test]
fn striped_exhaustion_rolls_back_once_and_keeps_latest_done() {
    let cfg = DaemonConfig {
        qps_per_connection: 4,
        verb_retries: 0,
        ..DaemonConfig::default()
    };
    let (w, mut model) = striped_world(test_spec("stripe-roll", 8, 4096), cfg);
    w.client.checkpoint("stripe-roll").unwrap(); // v1, clean
    let _ = model.take_dirty(); // v1 covered everything up to here

    // v2 lands in the empty slot and pulls every tensor; v3 lands on v1
    // and pulls the four evens, one WQE per lane.
    let evens: Vec<usize> = (0..8).step_by(2).collect();
    model.train_step_sparse(&evens);
    let saved = model.model_checksum();
    let dirty = model.take_dirty();
    w.client.checkpoint_delta("stripe-roll", &dirty).unwrap();
    model.train_step_sparse(&evens);
    let dirty = model.take_dirty();

    let before = w.ctx.stats.snapshot();
    w.fabric.arm_faults(DAEMON_NODE, FaultSpec::Nth(1)).unwrap();
    let err = w
        .client
        .checkpoint_delta("stripe-roll", &dirty)
        .unwrap_err();
    match &err {
        PortusError::DatapathFailed { op, failures, .. } => {
            assert_eq!(op, "delta-checkpoint");
            // Exactly one lane's WQE died; the other three lanes
            // completed and are not attributed as failures.
            assert_eq!(failures.len(), 1);
            assert_eq!(failures[0].retries, 0);
            assert_eq!(failures[0].tensors.len(), 1);
        }
        other => panic!("expected DatapathFailed, got: {other}"),
    }

    // The slot collapsed exactly once even though three lanes
    // succeeded, and the surviving version is untouched.
    let d = w.ctx.stats.snapshot().since(&before);
    assert_eq!(d.failed_verbs, 1);
    assert_eq!(d.retried_verbs, 0);
    assert_eq!(d.rolled_back_slots, 1);
    let index = w.daemon.index();
    let (_, off) = index.live_entries().unwrap()[0];
    let mi = index.load_mindex(off).unwrap();
    let (done_slot, hdr) = mi.latest_done().unwrap();
    assert_eq!(hdr.version, 2);
    assert_eq!(mi.slots[1 - done_slot].state, SlotState::Empty);

    // The fabric heals; v2 restores and verifies (digest-sealed by the
    // striped write path).
    w.fabric.clear_faults(DAEMON_NODE).unwrap();
    let r = w.client.restore(&model).unwrap();
    assert_eq!(r.version, 2);
    assert_eq!(model.model_checksum(), saved);

    drop(w.client);
    w.daemon.shutdown();
}

/// A model whose second tensor is larger than two pull WQEs: 4 KiB,
/// then 2 × [`PULL_WQE_BYTES`] + 1 MiB. Its pull splits into three
/// chunks — 4 KiB plus the big tensor's first 4 MiB − 4 KiB, then two
/// equal 2.5 MiB pieces of the big tensor.
fn split_spec(name: &str) -> ModelSpec {
    let sizes = [4096, 2 * PULL_WQE_BYTES + (1 << 20)];
    let tensors = sizes
        .iter()
        .enumerate()
        .map(|(i, &b)| TensorMeta::new(format!("{name}.t{i}"), DType::F32, vec![b / 4]))
        .collect();
    ModelSpec::new(name, tensors)
}

#[test]
fn a_failed_chunk_of_a_split_tensor_retries_alone_and_is_named_once() {
    let striped = |verb_retries| DaemonConfig {
        qps_per_connection: 4,
        verb_retries,
        ..DaemonConfig::default()
    };

    // Retries left: only the middle chunk is re-posted, on its lane.
    let (w, mut model) = striped_world(split_spec("split"), striped(3));
    let saved = model.model_checksum();
    let before = w.ctx.stats.snapshot();
    w.ctx.tracer.enable();
    // Largest-first striping puts the three chunks on lanes 0, 1, 2 and
    // posts them in that order: the second verb is the middle chunk.
    w.fabric.arm_faults(DAEMON_NODE, FaultSpec::Nth(2)).unwrap();
    let report = w.client.checkpoint("split").unwrap();
    assert_eq!(report.version, 1);
    let d = w.ctx.stats.snapshot().since(&before);
    assert_eq!(d.posted_verbs, 4, "three chunks, one re-post");
    assert_eq!(d.failed_verbs, 1);
    assert_eq!(d.retried_verbs, 1);
    assert_eq!(d.rolled_back_slots, 0);
    let spans = w.ctx.tracer.spans();
    let doorbells = |round: u32| -> Vec<u32> {
        spans
            .iter()
            .filter(|s| s.round == round && s.stage == Stage::DoorbellPost)
            .map(|s| s.lane)
            .collect()
    };
    assert_eq!(doorbells(0), [0, 1, 2], "one chunk per lane");
    assert_eq!(doorbells(1), [1], "the retry rides the middle chunk's lane");
    w.fabric.clear_faults(DAEMON_NODE).unwrap();
    model.train_step(); // diverge
    assert_eq!(w.client.restore(&model).unwrap().version, 1);
    assert_eq!(model.model_checksum(), saved, "restore is bit-for-bit");
    drop(w.client);
    w.daemon.shutdown();

    // Retries exhausted: the error names the split tensor once, the
    // slot rolls back once, and the last Done version is untouched.
    let (w, mut model) = striped_world(split_spec("split"), striped(0));
    let saved = model.model_checksum();
    w.client.checkpoint("split").unwrap(); // v1, clean
    model.train_step();
    for (fault, named) in [
        (FaultSpec::Nth(2), vec!["split.t1"]),
        // Every chunk fails: they fold into one failure, and the big
        // tensor, present in all three, is still named once.
        (FaultSpec::All, vec!["split.t0", "split.t1"]),
    ] {
        let before = w.ctx.stats.snapshot();
        w.fabric.arm_faults(DAEMON_NODE, fault).unwrap();
        match w.client.checkpoint("split").unwrap_err() {
            PortusError::DatapathFailed { op, failures, .. } => {
                assert_eq!(op, "checkpoint");
                assert_eq!(failures.len(), 1, "{failures:?}");
                assert_eq!(failures[0].tensors, named);
                assert_eq!(failures[0].retries, 0);
            }
            other => panic!("expected DatapathFailed, got: {other}"),
        }
        let d = w.ctx.stats.snapshot().since(&before);
        assert_eq!(d.rolled_back_slots, 1, "the slot rolls back exactly once");
        let index = w.daemon.index();
        let (_, off) = index.live_entries().unwrap()[0];
        let mi = index.load_mindex(off).unwrap();
        let (done_slot, hdr) = mi.latest_done().unwrap();
        assert_eq!(hdr.version, 1, "latest_done is untouched");
        assert_eq!(mi.slots[1 - done_slot].state, SlotState::Empty);
    }
    w.fabric.clear_faults(DAEMON_NODE).unwrap();
    assert_eq!(w.client.restore(&model).unwrap().version, 1);
    assert_eq!(model.model_checksum(), saved);
    drop(w.client);
    w.daemon.shutdown();
}

#[test]
fn ratio_faults_replay_identically_for_the_same_seed() {
    // Ratio decisions hash (seed, seq) — no wall clock, no global RNG —
    // so two identical worlds armed with the same seed observe exactly
    // the same failures, retries, and outcome.
    let run = |seed: u64| {
        let (w, _model) = world("ratio", 32, DaemonConfig::default());
        let before = w.ctx.stats.snapshot();
        w.fabric
            .arm_faults(
                DAEMON_NODE,
                FaultSpec::Ratio {
                    permille: 400,
                    seed,
                },
            )
            .unwrap();
        let outcome = w
            .client
            .checkpoint("ratio")
            .map(|r| r.version)
            .map_err(|e| e.to_string());
        let d = w.ctx.stats.snapshot().since(&before);
        drop(w.client);
        w.daemon.shutdown();
        (
            outcome,
            d.failed_verbs,
            d.retried_verbs,
            d.rolled_back_slots,
        )
    };
    assert_eq!(run(3), run(3), "same seed must replay bit-for-bit");
}

#[test]
fn rearming_a_fault_plan_restarts_its_counters() {
    let (w, _model) = world("rearm", 4, DaemonConfig::default());
    let first = w.fabric.arm_faults(DAEMON_NODE, FaultSpec::Nth(1)).unwrap();
    let _ = w.client.checkpoint("rearm").unwrap();
    assert_eq!(first.injected(), 1);

    // Arming a new plan replaces the old one; its counters start fresh
    // and the old plan stops injecting.
    let second = w.fabric.arm_faults(DAEMON_NODE, FaultSpec::Nth(1)).unwrap();
    assert_eq!(second.seen(), 0);
    let _ = w.client.checkpoint("rearm").unwrap();
    assert_eq!(second.injected(), 1);
    assert_eq!(first.injected(), 1, "retired plan must stop counting");

    assert!(w.fabric.clear_faults(DAEMON_NODE).unwrap().is_some());
    assert!(w.fabric.clear_faults(DAEMON_NODE).unwrap().is_none());

    drop(w.client);
    w.daemon.shutdown();
}
