//! Two-generation delta checkpoints: a delta's target slot still holds
//! the version before the previous one, so tensors clean in both of the
//! last two deltas are left in place and every other tensor is pulled.
//! These tests pin the reuse rule — when it applies, what it costs,
//! everything that must break it, and that a wrong reuse can only ever
//! surface as a typed checksum mismatch.

// Under the offline `proptest` stub the `proptest!` body is swallowed,
// leaving its imports and strategy "unused"; with the real crate they
// are all live.
#![allow(unused_imports, dead_code)]

use std::collections::BTreeMap;
use std::sync::Arc;

use proptest::collection::vec;
use proptest::prelude::*;

use portus::{repack, DaemonConfig, DeltaReport, PortusClient, PortusDaemon, PortusError};
use portus_dnn::{test_spec, Materialization, ModelInstance};
use portus_mem::GpuDevice;
use portus_pmem::{PmemDevice, PmemMode};
use portus_rdma::{Fabric, FaultSpec, NodeId};
use portus_sim::{SimContext, SimDuration, SimRng, Stage};

const DAEMON_NODE: NodeId = NodeId(1);
const LAYERS: usize = 8;
const LAYER_BYTES: u64 = 16 * 1024;
const MODEL_BYTES: u64 = LAYERS as u64 * LAYER_BYTES;

struct World {
    ctx: SimContext,
    fabric: Fabric,
    pmem: Arc<PmemDevice>,
    daemon: Arc<PortusDaemon>,
    client: PortusClient,
}

/// One daemon with `qps` queue pairs per connection (both NICs with as
/// many DMA engines) and a registered model of [`LAYERS`] tensors.
fn world(name: &str, qps: usize) -> (World, ModelInstance) {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic_with_engines(NodeId(0), qps);
    fabric.add_nic_with_engines(DAEMON_NODE, qps);
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 64 << 20);
    let cfg = DaemonConfig {
        qps_per_connection: qps,
        ..DaemonConfig::default()
    };
    let daemon = PortusDaemon::start(&fabric, DAEMON_NODE, pmem.clone(), cfg).unwrap();
    let gpu = GpuDevice::new(ctx.clone(), 0, 1 << 30);
    let spec = test_spec(name, LAYERS, LAYER_BYTES);
    let model = ModelInstance::materialize(&spec, &gpu, 11, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&daemon, compute);
    client.register_model(&model).unwrap();
    (
        World {
            ctx,
            fabric,
            pmem,
            daemon,
            client,
        },
        model,
    )
}

/// Full checkpoint of the current state.
fn full(w: &World, model: &mut ModelInstance) -> u64 {
    model.take_dirty();
    w.client.checkpoint(&model.spec().name).unwrap().version
}

/// Trains `touched` and takes a delta checkpoint; every delta pulls or
/// leaves in place each model byte exactly once, and copies none.
fn delta(w: &World, model: &mut ModelInstance, touched: &[usize]) -> DeltaReport {
    model.train_step_sparse(touched);
    let dirty = model.take_dirty();
    let r = w
        .client
        .checkpoint_delta(&model.spec().name, &dirty)
        .unwrap();
    assert_eq!(r.copied_bytes, 0, "no delta copies on the CPU");
    assert_eq!(r.pulled_bytes + r.reused_bytes, MODEL_BYTES);
    r
}

/// Perturbs the GPU copy, restores the latest version and checks it is
/// bit-for-bit the state `want` recorded.
fn assert_restores(w: &World, model: &mut ModelInstance, want: u64) {
    model.train_step();
    model.take_dirty();
    w.client.restore(model).unwrap();
    assert_eq!(model.model_checksum(), want, "restore is not bit-for-bit");
}

fn shutdown(w: World) {
    drop(w.client);
    w.daemon.shutdown();
}

#[test]
fn steady_state_deltas_leave_clean_tensors_in_place() {
    let (w, mut model) = world("steady", 1);
    full(&w, &mut model);
    let before = w.ctx.stats.snapshot();
    // The first delta after a full checkpoint lands on the slot before
    // the full one: it has no lineage and pulls every tensor.
    let first = delta(&w, &mut model, &[0, 1]);
    assert_eq!(first.reused_bytes, 0);
    assert_eq!(first.pulled_bytes, MODEL_BYTES);
    let mut reused = 0;
    for round in 0..6usize {
        let touched = [(2 + round) % LAYERS, (5 + round) % LAYERS];
        let r = delta(&w, &mut model, &touched);
        assert!(r.reused_bytes > 0, "round {round}: nothing reused");
        // Exactly this delta's and the previous delta's dirty tensors
        // are pulled: four distinct ones every round.
        assert_eq!(r.pulled_bytes, 4 * LAYER_BYTES, "round {round}");
        reused += r.reused_bytes;
    }
    let stats = w.ctx.stats.snapshot().since(&before);
    assert_eq!(stats.reused_bytes, reused);
    let want = model.model_checksum();
    assert_restores(&w, &mut model, want);
    shutdown(w);
}

/// With tensors left in place, the seal's read-back of the previous
/// version's pulled runs is the seal pipe's first job, enqueued when
/// the pulls are posted: it starts at the doorbell and finishes inside
/// the fabric window, instead of being charged to the clock ahead of
/// the pulls.
#[test]
fn reusing_delta_reads_back_in_the_pulls_shadow() {
    let (w, mut model) = world("shadow", 1);
    full(&w, &mut model);
    delta(&w, &mut model, &[0, 1]);
    w.ctx.tracer.enable();
    let r = delta(&w, &mut model, &[2, 5]);
    assert!(r.reused_bytes > 0);
    let spans = w.ctx.tracer.spans();
    let of = |stage: Stage| spans.iter().filter(move |s| s.stage == stage);
    let doorbell = of(Stage::DoorbellPost).next().expect("a doorbell span");
    let read_back = of(Stage::Checksum).next().expect("a read-back span");
    let fabric_end = of(Stage::CqDrain).map(|s| s.end).max().unwrap();
    assert_eq!(
        read_back.start, doorbell.start,
        "read-back joins at the post instant"
    );
    assert!(
        read_back.end <= fabric_end,
        "read-back {:?} must finish under the pull (fabric ends {:?})",
        read_back.end,
        fabric_end
    );
    let want = model.model_checksum();
    assert_restores(&w, &mut model, want);
    shutdown(w);
}

#[test]
fn repack_reclaim_of_the_target_slot_breaks_reuse() {
    let (w, mut model) = world("reclaim", 1);
    full(&w, &mut model);
    delta(&w, &mut model, &[0]);
    // A finished job keeps only its latest version: the slot the next
    // delta targets loses its region.
    w.client.mark_complete("reclaim").unwrap();
    let report = repack(&w.daemon, false).unwrap();
    assert_eq!(report.reclaimed_slots, 1);
    let r = delta(&w, &mut model, &[1]);
    assert_eq!(r.reused_bytes, 0);
    let want = model.model_checksum();
    assert_restores(&w, &mut model, want);
    // The lineage rebuilds from the next delta on.
    let r = delta(&w, &mut model, &[2]);
    assert!(r.reused_bytes > 0);
    let want = model.model_checksum();
    assert_restores(&w, &mut model, want);
    shutdown(w);
}

#[test]
fn rolled_back_delta_breaks_reuse() {
    let (w, mut model) = world("rollback", 1);
    full(&w, &mut model);
    delta(&w, &mut model, &[0]);
    // The delta pulls tensor 3 and, re-pulled because the previous
    // delta changed it, tensor 0: two runs. Every verb after the first
    // fails, so tensor 0 already landed in the target when the pull
    // dies: the slot collapses instead of keeping the older version.
    model.train_step_sparse(&[3]);
    let dirty = model.take_dirty();
    let window = FaultSpec::Window {
        from: 2,
        to: u64::MAX,
    };
    w.fabric.arm_faults(DAEMON_NODE, window).unwrap();
    let err = w.client.checkpoint_delta("rollback", &dirty).unwrap_err();
    assert!(matches!(err, PortusError::DatapathFailed { .. }), "{err}");
    w.fabric.clear_faults(DAEMON_NODE).unwrap();
    // The failed delta's dirty tensors are still dirty.
    model.train_step_sparse(&[1, 2]);
    let mut dirty_again = model.take_dirty();
    for (d, was) in dirty_again.iter_mut().zip(&dirty) {
        *d |= *was;
    }
    let r = w.client.checkpoint_delta("rollback", &dirty_again).unwrap();
    assert_eq!(r.reused_bytes, 0);
    assert_eq!(r.pulled_bytes, MODEL_BYTES);
    let want = model.model_checksum();
    assert_restores(&w, &mut model, want);
    let r = delta(&w, &mut model, &[3]);
    assert!(r.reused_bytes > 0);
    let want = model.model_checksum();
    assert_restores(&w, &mut model, want);
    shutdown(w);
}

#[test]
fn daemon_recovery_forgets_the_lineage() {
    let (w, mut model) = world("restart", 1);
    full(&w, &mut model);
    delta(&w, &mut model, &[0]);
    let World {
        ctx,
        fabric,
        pmem,
        daemon,
        client,
    } = w;
    drop(client);
    daemon.shutdown();
    let daemon =
        PortusDaemon::recover(&fabric, DAEMON_NODE, pmem.clone(), DaemonConfig::default()).unwrap();
    let client = PortusClient::connect(&daemon, fabric.nic(NodeId(0)).unwrap());
    client.register_model(&model).unwrap();
    let w = World {
        ctx,
        fabric,
        pmem,
        daemon,
        client,
    };
    let r = delta(&w, &mut model, &[1]);
    assert_eq!(r.reused_bytes, 0, "a restarted daemon has no lineage");
    let want = model.model_checksum();
    assert_restores(&w, &mut model, want);
    let r = delta(&w, &mut model, &[2]);
    assert!(r.reused_bytes > 0);
    let want = model.model_checksum();
    assert_restores(&w, &mut model, want);
    shutdown(w);
}

#[test]
fn corrupted_reused_tensor_fails_restore_with_a_typed_checksum_mismatch() {
    for qps in [1, 4] {
        let (w, mut model) = world("flip", qps);
        full(&w, &mut model);
        delta(&w, &mut model, &[0]);
        // Flip one byte of tensor 5 in the slot the next delta targets:
        // that delta leaves tensor 5 in place instead of rewriting it.
        let index = w.daemon.index();
        let (_, off) = index.live_entries().unwrap()[0];
        let mi = index.load_mindex(off).unwrap();
        let at = mi.slots[mi.target_slot()].data_off + mi.tensors[5].rel_off + 7;
        let mut byte = [0u8; 1];
        w.pmem.read(at, &mut byte).unwrap();
        byte[0] ^= 0x01;
        w.pmem.write(at, &byte).unwrap();
        w.pmem.persist(at, 1).unwrap();

        let r = delta(&w, &mut model, &[1]);
        assert!(r.reused_bytes > 0, "qps {qps}: tensor 5 was not reused");
        match w.client.restore(&model) {
            Err(PortusError::ChecksumMismatch { model: m, version }) => {
                assert_eq!(m, "flip");
                assert_eq!(version, r.version, "qps {qps}");
            }
            other => panic!("qps {qps}: expected ChecksumMismatch, got {other:?}"),
        }
        shutdown(w);
    }
}

/// Virtual time of one checkpoint call, as the client sees it.
fn timed<T>(w: &World, op: impl FnOnce() -> T) -> (T, SimDuration) {
    let t0 = w.ctx.clock.now();
    let out = op();
    (out, w.ctx.clock.now().saturating_since(t0))
}

#[test]
fn first_delta_after_a_full_checkpoint_costs_no_more_than_the_full_one() {
    for qps in [1, 4] {
        let (w, mut model) = world("first", qps);
        model.train_step();
        model.take_dirty();
        let (_, full_time) = timed(&w, || w.client.checkpoint("first").unwrap());
        // The target slot is empty: the delta pulls every tensor, the
        // same bytes by the same posted READs as the full checkpoint.
        let (r, delta_time) = timed(&w, || delta(&w, &mut model, &[0, 3]));
        assert_eq!(r.pulled_bytes, MODEL_BYTES, "qps {qps}");
        assert!(
            delta_time <= full_time,
            "qps {qps}: first delta took {delta_time:?}, the full checkpoint {full_time:?}"
        );
        let want = model.model_checksum();
        assert_restores(&w, &mut model, want);
        shutdown(w);
    }
}

#[test]
fn steady_delta_pulls_exactly_its_dirty_tensors_and_the_previous_deltas() {
    let (w, mut model) = world("union", 1);
    full(&w, &mut model);
    let mut prev: Vec<usize> = vec![1, 6];
    delta(&w, &mut model, &prev);
    for touched in [vec![2], vec![2, 5], vec![0, 7], vec![7], vec![3, 4, 5]] {
        let union = (0..LAYERS)
            .filter(|i| touched.contains(i) || prev.contains(i))
            .count() as u64;
        let before = w.ctx.stats.snapshot();
        let r = delta(&w, &mut model, &touched);
        let net = w.ctx.stats.snapshot().since(&before);
        assert_eq!(
            r.pulled_bytes,
            union * LAYER_BYTES,
            "{touched:?} after {prev:?}"
        );
        assert_eq!(net.bytes_over_network, r.pulled_bytes);
        assert_eq!(r.reused_bytes, MODEL_BYTES - r.pulled_bytes);
        prev = touched;
    }
    let want = model.model_checksum();
    assert_restores(&w, &mut model, want);
    shutdown(w);
}

#[test]
fn a_changed_tensor_marked_clean_fails_the_next_but_one_restore_typed() {
    for qps in [1, 4] {
        let (w, mut model) = world("liar", qps);
        full(&w, &mut model);
        // Tensor 4 changes but the mask calls it clean. This delta has
        // no lineage, so it pulls tensor 4 anyway and restores fine.
        model.train_step_sparse(&[0, 4]);
        let v2_state = model.model_checksum();
        let mut lie = model.take_dirty();
        lie[4] = false;
        let v2 = w.client.checkpoint_delta("liar", &lie).unwrap().version;
        // The next delta trusts that mask and leaves tensor 4 in place
        // from the full checkpoint, which is stale: its restore must
        // fail typed, never hand back the stale bytes.
        let r = delta(&w, &mut model, &[1]);
        assert!(r.reused_bytes > 0, "qps {qps}: tensor 4 was not reused");
        match w.client.restore(&model) {
            Err(PortusError::ChecksumMismatch { model: m, version }) => {
                assert_eq!(m, "liar");
                assert_eq!(version, r.version, "qps {qps}");
            }
            other => panic!("qps {qps}: expected ChecksumMismatch, got {other:?}"),
        }
        // The version the lie was told in is intact.
        model.train_step();
        let pinned = w.client.restore_version(&model, Some(v2)).unwrap();
        assert_eq!(pinned.version, v2);
        assert_eq!(model.model_checksum(), v2_state, "qps {qps}");
        shutdown(w);
    }
}

/// One step of a random checkpoint/restore history.
#[derive(Debug, Clone)]
enum Op {
    /// Train every tensor, then take a full checkpoint.
    Full,
    /// Train the tensors whose bit is set, then take a delta.
    Delta(u8),
    /// Restore the latest version.
    RestoreLatest,
    /// Restore the oldest version still on PMem.
    RestorePinned,
}

/// Runs `ops` against a fresh daemon and checks every restore against a
/// shadow table of the model checksum each version was taken from.
fn check_history(ops: &[Op], qps: usize) {
    let (w, mut model) = world("history", qps);
    let mut shadow: BTreeMap<u64, u64> = BTreeMap::new();
    for op in ops {
        match op {
            Op::Full => {
                model.train_step();
                let version = full(&w, &mut model);
                shadow.insert(version, model.model_checksum());
            }
            Op::Delta(mask) => {
                let touched: Vec<usize> = (0..LAYERS).filter(|i| mask & (1 << i) != 0).collect();
                let r = delta(&w, &mut model, &touched);
                shadow.insert(r.version, model.model_checksum());
            }
            Op::RestoreLatest | Op::RestorePinned => {
                let on_pmem = &w.client.list_models().unwrap()[0].done_versions;
                let Some(&version) = (match op {
                    Op::RestoreLatest => on_pmem.last(),
                    _ => on_pmem.first(),
                }) else {
                    continue;
                };
                let pinned = matches!(op, Op::RestorePinned).then_some(version);
                let r = w.client.restore_version(&model, pinned).unwrap();
                assert_eq!(r.version, version);
                assert_eq!(
                    model.model_checksum(),
                    shadow[&version],
                    "v{version} restored wrong bytes after {ops:?}"
                );
            }
        }
    }
    // The final state is always restorable, bit for bit.
    if let Some(&latest) = shadow.keys().last() {
        model.train_step();
        let r = w.client.restore(&model).unwrap();
        assert_eq!(r.version, latest);
        assert_eq!(model.model_checksum(), shadow[&latest], "after {ops:?}");
    }
    shutdown(w);
}

fn random_op(rng: &mut SimRng) -> Op {
    match rng.gen_range(8) {
        0 => Op::Full,
        1 => Op::RestoreLatest,
        2 => Op::RestorePinned,
        _ => Op::Delta(rng.gen_range(256) as u8),
    }
}

#[test]
fn seeded_histories_restore_bit_for_bit() {
    for seed in 0..24u64 {
        let mut rng = SimRng::new(seed);
        let ops: Vec<Op> = (0..16).map(|_| random_op(&mut rng)).collect();
        check_history(&ops, if seed % 4 == 0 { 4 } else { 1 });
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::Full),
        Just(Op::RestoreLatest),
        Just(Op::RestorePinned),
        any::<u8>().prop_map(Op::Delta),
        any::<u8>().prop_map(Op::Delta),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any sequence of full and delta checkpoints and latest or pinned
    /// restores restores every version bit for bit.
    #[test]
    fn random_histories_restore_bit_for_bit(ops in vec(op_strategy(), 1..20)) {
        check_history(&ops, 1);
    }
}
