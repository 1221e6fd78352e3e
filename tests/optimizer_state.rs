//! Checkpointing weights *plus optimizer state* ("save parameters and
//! optimizer states", §I) through the full stack: the checkpoint
//! content expansion of `portus_dnn::CheckpointContent` flows through
//! registration, pull, and restore like any other tensors.

use portus::{DaemonConfig, PortusClient, PortusDaemon};
use portus_dnn::{test_spec, CheckpointContent, Materialization, ModelInstance, OptimizerKind};
use portus_mem::GpuDevice;
use portus_pmem::{PmemDevice, PmemMode};
use portus_rdma::{Fabric, NodeId};
use portus_sim::{SimContext, Stage, TraceOp};

#[test]
fn adam_state_triples_the_checkpoint_and_round_trips() {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 128 << 20);
    let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem, DaemonConfig::default()).unwrap();
    let gpu = GpuDevice::new(ctx.clone(), 0, 1 << 30);

    let weights_only = test_spec("adam-job", 5, 256 * 1024);
    let full = CheckpointContent::WithOptimizer(OptimizerKind::Adam).expand(&weights_only);
    assert_eq!(full.total_bytes(), 3 * weights_only.total_bytes());

    let mut model = ModelInstance::materialize(&full, &gpu, 11, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&daemon, compute);
    client.register_model(&model).unwrap();

    model.train_step(); // weights and moments all advance
    let want = model.model_checksum();
    let report = client.checkpoint("adam-job").unwrap();
    assert_eq!(report.bytes, 3 * weights_only.total_bytes());

    model.train_step();
    client.restore(&model).unwrap();
    assert_eq!(
        model.model_checksum(),
        want,
        "optimizer moments restored too"
    );

    // The daemon's index carries the expanded tensor list.
    let summary = &client.list_models().unwrap()[0];
    assert_eq!(summary.layers, 15); // 5 weights + 10 Adam moments
}

#[test]
fn momentum_state_checkpoints_with_correct_cost_scaling() {
    // Timing shape: checkpointing with momentum (2x payload) moves 2x
    // the bytes over the fabric in ~2x the time, and the checkpoint as
    // a whole costs no more than that — no serialization-style fixed
    // blowup. The fabric window (first doorbell to last CQ-drain end)
    // carries the 2x; the total is only bounded, because the 8 MiB
    // momentum payload splits into two pull WQEs and hides the first
    // chunk's seal under the second chunk's pull.
    let run = |content: CheckpointContent| {
        let ctx = SimContext::icdcs24();
        ctx.tracer.enable();
        let fabric = Fabric::new(ctx.clone());
        let compute = fabric.add_nic(NodeId(0));
        fabric.add_nic(NodeId(1));
        let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 256 << 20);
        let daemon =
            PortusDaemon::start(&fabric, NodeId(1), pmem, DaemonConfig::default()).unwrap();
        let gpu = GpuDevice::new(ctx.clone(), 0, 1 << 30);
        let spec = content.expand(&test_spec("mom", 8, 512 * 1024));
        let model = ModelInstance::materialize(&spec, &gpu, 3, Materialization::Owned).unwrap();
        let client = PortusClient::connect(&daemon, compute);
        client.register_model(&model).unwrap();
        let total = client.checkpoint("mom").unwrap().elapsed;
        let spans = ctx.tracer.spans();
        let fabric_spans = spans.iter().filter(|s| {
            s.op == TraceOp::Checkpoint && matches!(s.stage, Stage::DoorbellPost | Stage::CqDrain)
        });
        let first = fabric_spans.clone().map(|s| s.start).min().unwrap();
        let last = fabric_spans.map(|s| s.end).max().unwrap();
        (last.saturating_since(first), total)
    };
    let (weights_window, weights_total) = run(CheckpointContent::WeightsOnly);
    let (momentum_window, momentum_total) =
        run(CheckpointContent::WithOptimizer(OptimizerKind::SgdMomentum));
    let window_ratio = momentum_window.as_secs_f64() / weights_window.as_secs_f64();
    assert!(
        (1.8..2.2).contains(&window_ratio),
        "2x payload => ~2x fabric time, got {window_ratio:.2}"
    );
    let total_ratio = momentum_total.as_secs_f64() / weights_total.as_secs_f64();
    assert!(
        total_ratio <= 2.2,
        "2x payload must not cost more than ~2x end to end, got {total_ratio:.2}"
    );
}
