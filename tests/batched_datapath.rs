//! The posted, coalesced daemon datapath: many-tensor checkpoints must
//! ride few gather WQEs under one doorbell and beat the unbatched
//! per-verb cost bound, while the structural zero-copy counters keep
//! seeing one movement per tensor.

use portus::{DaemonConfig, PortusClient, PortusDaemon};
use portus_dnn::{test_spec, Materialization, ModelInstance};
use portus_mem::GpuDevice;
use portus_pmem::{PmemDevice, PmemMode};
use portus_rdma::{Fabric, NodeId, MAX_SGE};
use portus_sim::{MemoryKind, SimContext, Stage, TraceOp};

const LAYERS: usize = 128;
const LAYER_BYTES: u64 = 64 * 1024;

#[test]
fn batched_checkpoint_beats_the_unbatched_per_verb_bound() {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 128 << 20);
    let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem, DaemonConfig::default()).unwrap();
    let gpu = GpuDevice::new(ctx.clone(), 0, 1 << 30);
    let spec = test_spec("batched", LAYERS, LAYER_BYTES);
    let model = ModelInstance::materialize(&spec, &gpu, 9, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&daemon, compute);
    client.register_model(&model).unwrap();

    let before = ctx.stats.snapshot();
    let report = client.checkpoint("batched").unwrap();
    let d = ctx.stats.snapshot().since(&before);

    // The WQE view: 128 contiguous tensors coalesce into ceil(128/16)
    // gather verbs, all posted under a single doorbell.
    let wqes = (LAYERS as u64).div_ceil(MAX_SGE as u64);
    assert_eq!(
        d.posted_verbs, wqes,
        "{} tensors -> {} gather WQEs",
        LAYERS, wqes
    );
    assert_eq!(d.doorbell_batches, 1, "one doorbell for the whole pull");
    assert_eq!(d.coalesced_verbs, wqes);
    assert_eq!(d.coalesced_bytes, spec.total_bytes());

    // The structural view is unchanged: still exactly one data movement
    // and one logical one-sided op per tensor, nothing serialized.
    assert_eq!(d.rdma_one_sided_ops, LAYERS as u64);
    assert_eq!(d.data_copies, LAYERS as u64);
    assert_eq!(d.serializations, 0);

    // The pull phase (daemon elapsed minus the measured persist and
    // checksum phases) must beat the cost of issuing one blocking verb
    // per tensor — the pre-batching datapath — by a clear margin: the
    // batch pays the per-verb base latency once and moves MAX_SGE-sized
    // messages at the far end of the bandwidth ramp.
    let unbatched_ns: u64 = (0..LAYERS)
        .map(|_| {
            ctx.model
                .rdma_read(LAYER_BYTES, MemoryKind::GpuHbm)
                .as_nanos()
        })
        .sum();
    // The checkpoint is the only request this world has served.
    let stages = ctx.metrics.snapshot();
    let seal_ns = stages.stage_total_ns(TraceOp::Checkpoint, Stage::Persist)
        + stages.stage_total_ns(TraceOp::Checkpoint, Stage::Checksum);
    let pull_ns = report.elapsed.as_nanos().saturating_sub(seal_ns);
    assert!(
        pull_ns * 4 < unbatched_ns * 3,
        "batched pull ({pull_ns} ns) must be < 75% of the unbatched \
         per-verb bound ({unbatched_ns} ns)"
    );

    assert_eq!(report.bytes, spec.total_bytes());
    drop(client);
    daemon.shutdown();
}

#[test]
fn restore_pushes_are_batched_too() {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 128 << 20);
    let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem, DaemonConfig::default()).unwrap();
    let gpu = GpuDevice::new(ctx.clone(), 0, 1 << 30);
    let spec = test_spec("rbatch", 32, LAYER_BYTES);
    let model = ModelInstance::materialize(&spec, &gpu, 5, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&daemon, compute);
    client.register_model(&model).unwrap();
    client.checkpoint("rbatch").unwrap();

    let before = ctx.stats.snapshot();
    client.restore(&model).unwrap();
    let d = ctx.stats.snapshot().since(&before);

    assert_eq!(d.posted_verbs, 2, "32 tensors -> 2 scatter WQEs");
    assert_eq!(d.doorbell_batches, 1);
    assert_eq!(d.coalesced_bytes, spec.total_bytes());
    assert_eq!(d.rdma_one_sided_ops, 32, "structural view intact");
    drop(client);
    daemon.shutdown();
}

#[test]
fn delta_gaps_break_coalescing_runs() {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 128 << 20);
    let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem, DaemonConfig::default()).unwrap();
    let gpu = GpuDevice::new(ctx.clone(), 0, 1 << 30);
    let spec = test_spec("gaps", 8, LAYER_BYTES);
    let model = ModelInstance::materialize(&spec, &gpu, 6, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&daemon, compute);
    client.register_model(&model).unwrap();
    client.checkpoint("gaps").unwrap();

    // Alternating dirty mask: the first delta lands in the empty slot
    // and pulls everything; from the second on, every pulled tensor is
    // isolated between neighbours left in place, so no two may share a
    // WQE.
    let alternating: Vec<bool> = (0..8).map(|i| i % 2 == 0).collect();
    client.checkpoint_delta("gaps", &alternating).unwrap();
    let before = ctx.stats.snapshot();
    let delta = client.checkpoint_delta("gaps", &alternating).unwrap();
    let d = ctx.stats.snapshot().since(&before);
    assert_eq!(delta.pulled_bytes, 4 * LAYER_BYTES);
    assert_eq!(
        d.posted_verbs, 4,
        "one single-segment WQE per isolated tensor"
    );
    assert_eq!(d.doorbell_batches, 1, "still one doorbell");
    assert_eq!(d.coalesced_verbs, 0, "nothing to coalesce across gaps");

    // A contiguous dirty prefix, once the previous delta dirtied no
    // other tensor, coalesces back into one gather WQE.
    let prefix: Vec<bool> = (0..8).map(|i| i < 4).collect();
    client.checkpoint_delta("gaps", &prefix).unwrap();
    let before = ctx.stats.snapshot();
    let delta = client.checkpoint_delta("gaps", &prefix).unwrap();
    let d = ctx.stats.snapshot().since(&before);
    assert_eq!(delta.pulled_bytes, 4 * LAYER_BYTES);
    assert_eq!(d.posted_verbs, 1, "adjacent dirty tensors share one WQE");
    assert_eq!(d.coalesced_verbs, 1);
    assert_eq!(d.coalesced_bytes, 4 * LAYER_BYTES);
    drop(client);
    daemon.shutdown();
}
