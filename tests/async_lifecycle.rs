//! Async-checkpoint lifecycle regressions (§III-E/Fig. 8 mechanism).
//!
//! A failed asynchronous checkpoint must surface its error exactly once
//! at the Fig. 8 barrier and leave the client fully usable; a second
//! `checkpoint_async` of a model already in flight — or a delta or
//! synchronous checkpoint of it — must be rejected instead of silently
//! orphaning the first reply or overtaking its pull; and checkpoints of
//! *different* models on one connection must actually overlap on the
//! daemon's dispatch pool.

use portus::{DaemonConfig, PortusClient, PortusDaemon, PortusError};
use portus_dnn::{test_spec, Materialization, ModelInstance};
use portus_mem::GpuDevice;
use portus_pmem::{PmemDevice, PmemMode};
use portus_rdma::{Fabric, NodeId};
use portus_sim::SimContext;

struct World {
    ctx: SimContext,
    daemon: std::sync::Arc<PortusDaemon>,
    client: PortusClient,
    gpu: std::sync::Arc<GpuDevice>,
}

fn world(pmem_bytes: u64) -> World {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, pmem_bytes);
    let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem, DaemonConfig::default()).unwrap();
    let gpu = GpuDevice::new(ctx.clone(), 0, 1 << 30);
    let client = PortusClient::connect(&daemon, compute);
    World {
        ctx,
        daemon,
        client,
        gpu,
    }
}

#[test]
fn failed_async_checkpoint_surfaces_once_and_never_wedges_the_barrier() {
    let w = world(128 << 20);

    // Fire-and-forget a checkpoint of a model that was never registered:
    // the daemon will answer with an error reply, not a report.
    let _pending = w.client.checkpoint_async("ghost").unwrap();
    assert!(w.client.has_inflight("ghost"));

    // The Fig. 8 barrier must return the failure (not hang, not panic)...
    let err = w.client.guard_update("ghost").unwrap_err();
    assert!(
        matches!(&err, PortusError::ModelNotFound(m) if m == "ghost"),
        "expected the daemon's not-found error, got: {err}"
    );

    // ...and must consume the in-flight entry on that error path: the
    // barrier is clean afterwards instead of re-waiting a dead req_id.
    assert!(!w.client.has_inflight("ghost"));
    assert!(w.client.guard_update("ghost").unwrap().is_none());

    // The connection is fully usable after the failure.
    let spec = test_spec("alive", 4, 256 * 1024);
    let model = ModelInstance::materialize(&spec, &w.gpu, 7, Materialization::Owned).unwrap();
    w.client.register_model(&model).unwrap();
    let report = w.client.checkpoint("alive").unwrap();
    assert_eq!(report.version, 1);
    assert_eq!(report.bytes, spec.total_bytes());
    drop(w.client);
    w.daemon.shutdown();
}

#[test]
fn second_async_checkpoint_of_same_model_is_rejected() {
    let w = world(128 << 20);
    let spec = test_spec("dup", 8, 256 * 1024);
    let model = ModelInstance::materialize(&spec, &w.gpu, 3, Materialization::Owned).unwrap();
    w.client.register_model(&model).unwrap();

    let pending = w.client.checkpoint_async("dup").unwrap();
    // Whatever the daemon is doing, the client must refuse to orphan
    // the first handle.
    let err = w.client.checkpoint_async("dup").unwrap_err();
    assert!(matches!(&err, PortusError::AlreadyInFlight(m) if m == "dup"));

    // The original handle is untouched and completes normally.
    let report = w.client.wait_checkpoint("dup", pending).unwrap();
    assert_eq!(report.version, 1);

    // Once waited, a new async checkpoint is allowed again.
    let p2 = w.client.checkpoint_async("dup").unwrap();
    assert_eq!(w.client.wait_checkpoint("dup", p2).unwrap().version, 2);
    drop(w.client);
    w.daemon.shutdown();
}

/// Every checkpoint entry point honours the one-in-flight rule: while
/// an async pull of a model is pending, a delta of it is rejected. Sent
/// anyway, the delta could run ahead of the pending pull on another
/// dispatch worker and be taken over the previous version.
#[test]
fn delta_while_an_async_checkpoint_is_pending_is_rejected() {
    let w = world(128 << 20);
    let spec = test_spec("mixed", 8, 256 * 1024);
    let model = ModelInstance::materialize(&spec, &w.gpu, 5, Materialization::Owned).unwrap();
    w.client.register_model(&model).unwrap();

    let pending = w.client.checkpoint_async("mixed").unwrap();
    let mut mask = vec![false; 8];
    mask[2] = true;
    let err = w.client.checkpoint_delta("mixed", &mask).unwrap_err();
    assert!(
        matches!(&err, PortusError::AlreadyInFlight(m) if m == "mixed"),
        "expected AlreadyInFlight, got: {err}"
    );
    let err = w.client.checkpoint("mixed").unwrap_err();
    assert!(matches!(&err, PortusError::AlreadyInFlight(m) if m == "mixed"));
    assert!(w.client.has_inflight("mixed"));

    // The pending pull is the only one that ran: it is version 1.
    let report = w.client.wait_checkpoint("mixed", pending).unwrap();
    assert_eq!(report.version, 1);
    assert_eq!(report.bytes, spec.total_bytes());

    // Once waited, the delta goes through and leaves nothing in flight.
    // It lands in the empty slot, so it pulls every tensor.
    let delta = w.client.checkpoint_delta("mixed", &mask).unwrap();
    assert_eq!(delta.version, 2);
    assert_eq!(delta.pulled_bytes, spec.total_bytes());
    assert!(!w.client.has_inflight("mixed"));
    drop(w.client);
    w.daemon.shutdown();
}

#[test]
fn checkpoints_of_two_models_overlap_on_the_dispatch_pool() {
    let w = world(512 << 20);
    // Big enough that the pull's real memcpy work gives the second
    // request ample wall-clock time to land on another pool worker.
    let spec_a = test_spec("overlap-a", 32, 512 * 1024);
    let spec_b = test_spec("overlap-b", 32, 512 * 1024);
    let a = ModelInstance::materialize(&spec_a, &w.gpu, 1, Materialization::Owned).unwrap();
    let b = ModelInstance::materialize(&spec_b, &w.gpu, 2, Materialization::Owned).unwrap();
    w.client.register_model(&a).unwrap();
    w.client.register_model(&b).unwrap();

    // peak_in_flight is a high-water mark; a few rounds make the
    // overlap robust against scheduler noise.
    for _ in 0..3 {
        let pa = w.client.checkpoint_async("overlap-a").unwrap();
        let pb = w.client.checkpoint_async("overlap-b").unwrap();
        // Replies may arrive out of order; the client demultiplexes.
        w.client.wait_checkpoint("overlap-b", pb).unwrap();
        w.client.wait_checkpoint("overlap-a", pa).unwrap();
        if w.daemon.peak_in_flight() >= 2 {
            break;
        }
    }
    assert!(
        w.daemon.peak_in_flight() >= 2,
        "requests of different models must overlap on the worker pool \
         (peak was {})",
        w.daemon.peak_in_flight()
    );

    // Both models kept making independent progress.
    let models = w.client.list_models().unwrap();
    for name in ["overlap-a", "overlap-b"] {
        let m = models.iter().find(|m| m.name == name).unwrap();
        assert!(m.latest_version.unwrap() >= 1);
    }
    let _ = &w.ctx;
    drop(w.client);
    w.daemon.shutdown();
}

#[test]
fn dropping_a_model_releases_its_daemon_side_lock_entry() {
    // Register → checkpoint → drop → re-register under the same name
    // must behave like a fresh model (the lock-table entry from the
    // first life must not leak or wedge the second).
    let w = world(128 << 20);
    for round in 0..3u64 {
        let spec = test_spec("phoenix", 4, 256 * 1024);
        let model =
            ModelInstance::materialize(&spec, &w.gpu, round, Materialization::Owned).unwrap();
        w.client.register_model(&model).unwrap();
        let report = w.client.checkpoint("phoenix").unwrap();
        assert_eq!(report.version, 1, "round {round} must start from scratch");
        w.client.mark_complete("phoenix").unwrap();
        w.client.drop_model("phoenix").unwrap();
    }
    assert_eq!(w.daemon.model_count(), 0);
    drop(w.client);
    w.daemon.shutdown();
}
