//! Request-level observability: per-stage spans on the virtual
//! clock, latency histograms, the daemon `Stats` query, and the Chrome
//! trace-event export — all deterministic for a sequential request
//! stream.

use portus::{DaemonConfig, PortusClient, PortusDaemon};
use portus_dnn::{test_spec, Materialization, ModelInstance};
use portus_mem::GpuDevice;
use portus_pmem::{PmemDevice, PmemMode};
use portus_rdma::{Fabric, NodeId};
use portus_sim::{SimContext, Stage, TraceOp};

struct World {
    ctx: SimContext,
    fabric: Fabric,
    daemon: std::sync::Arc<PortusDaemon>,
    gpu: std::sync::Arc<GpuDevice>,
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

fn world() -> World {
    world_cfg(DaemonConfig::default())
}

/// Runs the fixed scenario every determinism assertion replays:
/// register, checkpoint, delta (half-clean mask), restore — with span
/// recording on. Returns the exported Chrome trace JSON.
fn traced_run() -> String {
    let w = world();
    w.ctx.tracer.enable();
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    let spec = test_spec("traced", 4, 128 * 1024);
    let mut model = ModelInstance::materialize(&spec, &w.gpu, 11, Materialization::Owned).unwrap();
    client.register_model(&model).unwrap();
    model.train_step();
    client.checkpoint("traced").unwrap();
    model.train_step();
    client
        .checkpoint_delta("traced", &[true, false, true, false])
        .unwrap();
    model.train_step();
    client.restore(&model).unwrap();
    w.ctx.tracer.to_chrome_trace()
}

#[test]
fn spans_cover_every_stage_of_each_operation() {
    let w = world();
    w.ctx.tracer.enable();
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    let spec = test_spec("stages", 4, 128 * 1024);
    let mut model = ModelInstance::materialize(&spec, &w.gpu, 7, Materialization::Owned).unwrap();
    client.register_model(&model).unwrap();
    model.train_step();
    client.checkpoint("stages").unwrap();
    model.train_step();
    client
        .checkpoint_delta("stages", &[true, false, true, false])
        .unwrap();
    model.train_step();
    client.restore(&model).unwrap();

    let spans = w.ctx.tracer.spans();
    let has = |op: TraceOp, stage: Stage| spans.iter().any(|s| s.op == op && s.stage == stage);
    for stage in [
        Stage::Rpc,
        Stage::DispatchWait,
        Stage::Validate,
        Stage::WqeBuild,
        Stage::DoorbellPost,
        Stage::CqDrain,
        Stage::Persist,
        Stage::Checksum,
        Stage::HeaderFlip,
        Stage::Total,
    ] {
        assert!(
            has(TraceOp::Checkpoint, stage),
            "checkpoint missing {stage}"
        );
        assert!(
            has(TraceOp::DeltaCheckpoint, stage),
            "delta missing {stage}"
        );
    }
    // Every byte a checkpoint writes arrives by posted READ: no stage
    // copies on the CPU, whatever the mask.
    assert!(!spans.iter().any(|s| s.stage == Stage::CarryCopy));
    // Restores verify, push, and flip nothing.
    for stage in [
        Stage::Rpc,
        Stage::DispatchWait,
        Stage::Checksum,
        Stage::Validate,
        Stage::WqeBuild,
        Stage::DoorbellPost,
        Stage::CqDrain,
        Stage::Total,
    ] {
        assert!(has(TraceOp::Restore, stage), "restore missing {stage}");
    }
    assert!(!has(TraceOp::Restore, Stage::Persist));
    assert!(!has(TraceOp::Restore, Stage::HeaderFlip));
    // Every span lies on the virtual timeline and has ordered endpoints.
    for s in &spans {
        assert!(s.end >= s.start, "span {s:?} ends before it starts");
    }
}

#[test]
fn span_totals_match_the_stage_histograms() {
    let w = world();
    w.ctx.tracer.enable();
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    let spec = test_spec("match", 8, 64 * 1024);
    let mut model = ModelInstance::materialize(&spec, &w.gpu, 9, Materialization::Owned).unwrap();
    client.register_model(&model).unwrap();

    model.train_step();
    client.checkpoint("match").unwrap();
    let metrics = w.ctx.metrics.snapshot();
    let histogram_total = |stage: Stage| metrics.stage_total_ns(TraceOp::Checkpoint, stage);

    let stage_total = |stage: Stage| -> u64 {
        w.ctx
            .tracer
            .spans()
            .iter()
            .filter(|s| s.op == TraceOp::Checkpoint && s.stage == stage)
            .map(|s| s.duration().as_nanos())
            .sum()
    };
    assert!(
        histogram_total(Stage::Persist) > 0,
        "persist must cost virtual time"
    );
    assert!(
        histogram_total(Stage::Checksum) > 0,
        "checksum must cost virtual time"
    );
    // The spans and the histograms measure the same intervals of the
    // same virtual clock — fig13's breakdown relies on this equality.
    assert_eq!(stage_total(Stage::Persist), histogram_total(Stage::Persist));
    assert_eq!(
        stage_total(Stage::Checksum),
        histogram_total(Stage::Checksum)
    );
}

#[test]
fn chrome_trace_is_valid_json_and_replays_bit_for_bit() {
    let a = traced_run();
    let b = traced_run();
    assert_eq!(a, b, "identical runs must export identical traces");

    let v: serde_json::Value = serde_json::from_str(&a).expect("valid JSON");
    assert_eq!(v["displayTimeUnit"], "ns");
    let events = v["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty());
    for ev in events {
        assert_eq!(ev["ph"], "X", "complete events only");
        assert!(ev["ts"].is_number());
        assert!(ev["dur"].is_number());
        assert!(ev["name"].is_string());
    }
}

#[test]
fn tracer_off_by_default_but_histograms_always_on() {
    let w = world();
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    let spec = test_spec("default", 2, 64 * 1024);
    let mut model = ModelInstance::materialize(&spec, &w.gpu, 3, Materialization::Owned).unwrap();
    client.register_model(&model).unwrap();
    model.train_step();
    client.checkpoint("default").unwrap();

    assert!(w.ctx.tracer.is_empty(), "span recording is opt-in");
    let snapshot = w.ctx.metrics.snapshot();
    let total = snapshot
        .stage(TraceOp::Checkpoint, Stage::Total)
        .expect("checkpoint Total histogram");
    assert_eq!(total.count, 1);
}

#[test]
fn histogram_quantiles_are_monotone() {
    let w = world();
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    let spec = test_spec("quant", 4, 128 * 1024);
    let mut model = ModelInstance::materialize(&spec, &w.gpu, 4, Materialization::Owned).unwrap();
    client.register_model(&model).unwrap();
    for _ in 0..6 {
        model.train_step();
        client.checkpoint("quant").unwrap();
    }

    let snapshot = w.ctx.metrics.snapshot();
    let h = snapshot
        .stage(TraceOp::Checkpoint, Stage::Total)
        .expect("checkpoint Total histogram");
    assert_eq!(h.count, 6);
    assert!(h.min_ns > 0);
    assert!(h.min_ns <= h.p50());
    assert!(h.p50() <= h.p95());
    assert!(h.p95() <= h.p99());
    assert!(h.p99() <= h.max_ns);
    assert!(h.mean_ns() >= h.min_ns && h.mean_ns() <= h.max_ns);
}

/// The restore pipeline validates the registration against the index
/// BEFORE running the integrity pass, and the spans must reflect that
/// order: a `Validate` span that starts after `Checksum` would be
/// charging the wrong phase (the PR 4 fix).
#[test]
fn restore_validate_span_precedes_the_checksum_pass() {
    let w = world();
    w.ctx.tracer.enable();
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    let spec = test_spec("order", 3, 64 * 1024);
    let mut model = ModelInstance::materialize(&spec, &w.gpu, 12, Materialization::Owned).unwrap();
    client.register_model(&model).unwrap();
    model.train_step();
    client.checkpoint("order").unwrap();
    model.train_step();
    client.restore(&model).unwrap();

    let spans = w.ctx.tracer.spans();
    let find = |stage: Stage| {
        spans
            .iter()
            .find(|s| s.op == TraceOp::Restore && s.stage == stage)
            .cloned()
            .unwrap_or_else(|| panic!("restore missing {stage}"))
    };
    let validate = find(Stage::Validate);
    let checksum = find(Stage::Checksum);
    assert!(
        validate.end <= checksum.start,
        "validation ({:?}..{:?}) must complete before the integrity pass ({:?}..)",
        validate.start,
        validate.end,
        checksum.start
    );
}

/// A delta that dies on the datapath records only the stages it truly
/// finished: validation, WQE build and the (failed) doorbell keep their
/// spans, but no `Persist`/`Checksum`/`HeaderFlip`/`Total` may appear
/// for the failed request.
#[test]
fn failed_delta_records_only_completed_stages() {
    let w = world_cfg(DaemonConfig {
        verb_retries: 0,
        ..DaemonConfig::default()
    });
    w.ctx.tracer.enable();
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    let spec = test_spec("dies", 4, 64 * 1024);
    let mut model = ModelInstance::materialize(&spec, &w.gpu, 14, Materialization::Owned).unwrap();
    client.register_model(&model).unwrap();
    model.train_step();
    client.checkpoint("dies").unwrap();

    use portus_rdma::FaultSpec;
    w.fabric.arm_faults(NodeId(1), FaultSpec::All).unwrap();
    model.train_step();
    client
        .checkpoint_delta("dies", &[true, false, true, false])
        .unwrap_err();

    let spans = w.ctx.tracer.spans();
    let has = |stage: Stage| {
        spans
            .iter()
            .any(|s| s.op == TraceOp::DeltaCheckpoint && s.stage == stage)
    };
    assert!(has(Stage::Validate));
    assert!(has(Stage::WqeBuild));
    assert!(has(Stage::DoorbellPost), "the pulls were posted");
    assert!(!has(Stage::Persist), "failed delta never persisted");
    assert!(!has(Stage::HeaderFlip), "failed delta never flipped");
    assert!(!has(Stage::Total), "failed requests record no Total");
}

#[test]
fn stats_query_round_trips_over_the_wire() {
    let w = world();
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    let spec = test_spec("wire", 2, 64 * 1024);
    let mut model = ModelInstance::materialize(&spec, &w.gpu, 5, Materialization::Owned).unwrap();
    client.register_model(&model).unwrap();
    model.train_step();
    client.checkpoint("wire").unwrap();
    model.train_step();
    client.restore(&model).unwrap();

    let over_wire = client.stats().unwrap();
    assert!(!over_wire.stages.is_empty());
    assert!(over_wire.stage(TraceOp::Checkpoint, Stage::Total).is_some());
    assert!(over_wire.stage(TraceOp::Restore, Stage::Total).is_some());
    assert_eq!(
        over_wire.dispatch_queue_capacity,
        DaemonConfig::default().dispatch_queue_depth as u64
    );
    assert!(over_wire.dispatch_queue_peak >= 1, "requests went through");
    // The wire snapshot is the daemon's own snapshot.
    assert_eq!(over_wire, w.ctx.metrics.snapshot());
}

#[test]
fn bounded_dispatcher_survives_a_burst() {
    // The smallest legal queue with a single worker: every dispatch
    // backpressures against in-flight work instead of queueing
    // without bound.
    let w = world_cfg(DaemonConfig {
        dispatch_workers: 1,
        dispatch_queue_depth: 1,
        ..DaemonConfig::default()
    });
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    let spec = test_spec("burst", 4, 64 * 1024);
    let mut model = ModelInstance::materialize(&spec, &w.gpu, 8, Materialization::Owned).unwrap();
    client.register_model(&model).unwrap();

    for _ in 0..4 {
        model.train_step();
        client.checkpoint("burst").unwrap();
    }
    // Async lifecycle still completes under the bounded queue.
    model.train_step();
    let saved = model.model_checksum();
    let pending = client.checkpoint_async("burst").unwrap();
    let report = client.wait_checkpoint("burst", pending).unwrap();
    assert_eq!(report.version, 5);
    model.train_step();
    client.restore(&model).unwrap();
    assert_eq!(model.model_checksum(), saved);

    let snapshot = w.ctx.metrics.snapshot();
    assert_eq!(snapshot.dispatch_queue_capacity, 1);
    assert!(snapshot.dispatch_queue_peak >= 1);
    assert_eq!(snapshot.dispatch_queue_depth, 0, "queue drained");
}
