//! Online PMem space management: the `OutOfSpace` repack-and-retry
//! loop, the typed error when nothing is reclaimable, version
//! monotonicity across collapsed checkpoints, the space gauges, and
//! repack-vs-traffic races.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use portus::{repack, DaemonConfig, PortusClient, PortusDaemon, PortusError};
use portus_dnn::{test_spec, Materialization, ModelInstance};
use portus_mem::GpuDevice;
use portus_pmem::{PmemDevice, PmemMode};
use portus_rdma::{Fabric, FaultSpec, NodeId};
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
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 64 << 20);
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

/// Consumes the allocator's free space with filler allocations (tagged
/// so they can never be mistaken for a model's regions), leaving less
/// than one 4 KiB page free.
fn fill_heap(w: &World) {
    let alloc = w.daemon.index().allocator();
    for chunk in [1u64 << 20, 64 << 10, 4 << 10] {
        while alloc.alloc_aligned(chunk, 4096, 0xF1FF).is_ok() {}
    }
    assert!(alloc.largest_free_extent() < 4096, "heap filled");
}

/// Out-of-space with reclaimable garbage on the device: the checkpoint
/// succeeds after the daemon's automatic repack-and-retry, without the
/// client ever seeing an error.
#[test]
fn oos_checkpoint_recovers_by_reclaiming_a_finished_job() {
    let w = world();
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());

    // "tight" checkpoints once, completes, and has its idle slot
    // reclaimed — its next checkpoint must re-allocate a region.
    let tight_spec = test_spec("tight", 2, 128 * 1024);
    let mut tight =
        ModelInstance::materialize(&tight_spec, &w.gpu, 1, Materialization::Owned).unwrap();
    client.register_model(&tight).unwrap();
    tight.train_step();
    client.checkpoint("tight").unwrap();
    client.mark_complete("tight").unwrap();
    let pre = repack(&w.daemon, false).unwrap();
    assert_eq!(pre.reclaimed_slots, 1, "idle slot of the complete job");

    // "hog" is a bigger finished job whose non-latest version is the
    // only reclaimable garbage left once the heap fills up.
    let hog_spec = test_spec("hog", 4, 512 * 1024);
    let mut hog = ModelInstance::materialize(&hog_spec, &w.gpu, 2, Materialization::Owned).unwrap();
    client.register_model(&hog).unwrap();
    hog.train_step();
    client.checkpoint("hog").unwrap();
    hog.train_step();
    client.checkpoint("hog").unwrap();
    client.mark_complete("hog").unwrap();

    fill_heap(&w);

    // The next "tight" checkpoint needs a fresh region: the allocation
    // fails, the inline repack pass reclaims hog's non-latest version,
    // and the retry succeeds — invisibly to the client.
    let before = w.ctx.stats.snapshot();
    let metrics_before = w.ctx.metrics.snapshot();
    tight.train_step();
    let want = tight.model_checksum();
    let r = client.checkpoint("tight").unwrap();
    assert_eq!(r.version, 2);
    let d = w.ctx.stats.snapshot().since(&before);
    let m = w.ctx.metrics.snapshot();
    assert_eq!(d.oos_recoveries, 1, "recovered via repack-retry");
    assert!(m.repack_passes > metrics_before.repack_passes);
    assert!(m.reclaimed_slots > metrics_before.reclaimed_slots);
    assert!(m.reclaimed_bytes - metrics_before.reclaimed_bytes >= hog_spec.total_bytes());

    // The recovered checkpoint restores bit-for-bit.
    tight.train_step();
    client.restore(&tight).unwrap();
    assert_eq!(tight.model_checksum(), want);
}

/// Out-of-space with nothing reclaimable: the client gets the typed
/// error carrying the allocator's real view, and the model's previous
/// complete version survives untouched.
#[test]
fn oos_with_nothing_reclaimable_surfaces_the_typed_error() {
    let w = world();
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    let spec = test_spec("stuck", 2, 64 * 1024);
    let mut model = ModelInstance::materialize(&spec, &w.gpu, 3, Materialization::Owned).unwrap();
    client.register_model(&model).unwrap();
    model.train_step();
    let want = model.model_checksum();
    client.checkpoint("stuck").unwrap();
    client.mark_complete("stuck").unwrap();
    let pre = repack(&w.daemon, false).unwrap();
    assert_eq!(pre.reclaimed_slots, 1, "idle slot reclaimed");

    fill_heap(&w);

    // The retry checkpoint needs a region but the heap holds only
    // live data and fillers: the repack-retry loop comes up empty and
    // the daemon reports exactly what the allocator saw.
    model.train_step();
    let err = client.checkpoint("stuck").unwrap_err();
    let alloc = w.daemon.index().allocator();
    match err {
        PortusError::OutOfSpace {
            needed,
            free,
            largest_extent,
        } => {
            assert_eq!(needed, spec.total_bytes().max(4096));
            assert_eq!(free, alloc.free_bytes());
            assert_eq!(largest_extent, alloc.largest_free_extent());
            assert!(free < needed, "exhaustion, accurately reported");
        }
        other => panic!("expected OutOfSpace, got {other}"),
    }

    // v1 is untouched and still restorable.
    model.train_step();
    let r = client.restore(&model).unwrap();
    assert_eq!(r.version, 1);
    assert_eq!(model.model_checksum(), want);
    let _ = w.ctx;
}

/// Version monotonicity (PR 4 bugfix): a version number issued to a
/// checkpoint that later collapsed must never be reused. The failed
/// delta here was v3; the next checkpoint must be v4, not a second v3.
#[test]
fn version_numbers_stay_monotone_across_a_collapsed_checkpoint() {
    let w = world_cfg(DaemonConfig {
        verb_retries: 0, // one failed WQE is terminal — forces the rollback
        ..DaemonConfig::default()
    });
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    let spec = test_spec("mono", 4, 128 * 1024);
    let mut model = ModelInstance::materialize(&spec, &w.gpu, 5, Materialization::Owned).unwrap();
    client.register_model(&model).unwrap();
    model.train_step();
    client.checkpoint("mono").unwrap();
    model.train_step();
    client.checkpoint("mono").unwrap();

    // Delta v3 lands partial data (first of two pull runs) and dies:
    // the target slot collapses but keeps version 3 as a high-water
    // mark.
    w.fabric.arm_faults(NodeId(1), FaultSpec::Nth(2)).unwrap();
    model.train_step();
    let err = client
        .checkpoint_delta("mono", &[true, false, true, false])
        .unwrap_err();
    assert!(
        matches!(err, PortusError::DatapathFailed { .. }),
        "got {err}"
    );
    w.fabric.clear_faults(NodeId(1)).unwrap();

    // The next checkpoint must NOT reuse 3 — a restore that later finds
    // "v3" must never be ambiguous about which v3 it got.
    model.train_step();
    let want = model.model_checksum();
    let r = client.checkpoint("mono").unwrap();
    assert_eq!(r.version, 4, "3 was burned by the collapsed delta");
    model.train_step();
    let restored = client.restore(&model).unwrap();
    assert_eq!(restored.version, 4);
    assert_eq!(model.model_checksum(), want);
    let m = &client.list_models().unwrap()[0];
    assert_eq!(m.latest_version, Some(4));
    let _ = w.ctx;
}

/// Concurrent aggressive repacking against fault-injected checkpoint
/// traffic: no pass may error (divergence would mean a live region was
/// freed behind a running operation), and every model must still
/// checkpoint and restore bit-for-bit afterwards.
#[test]
fn concurrent_repack_and_faulty_traffic_never_free_live_regions() {
    let w = world();
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    let names = ["race-a", "race-b"];
    let mut models: Vec<ModelInstance> = names
        .iter()
        .enumerate()
        .map(|(i, name)| {
            let spec = test_spec(name, 3, 128 * 1024);
            let m =
                ModelInstance::materialize(&spec, &w.gpu, 10 + i as u64, Materialization::Owned)
                    .unwrap();
            client.register_model(&m).unwrap();
            m
        })
        .collect();
    for (m, name) in models.iter_mut().zip(names) {
        m.train_step();
        client.checkpoint(name).unwrap();
    }

    // Roughly one in seven verbs fails; retries are on (default), so
    // some operations survive and some collapse their slot.
    w.fabric
        .arm_faults(
            NodeId(1),
            FaultSpec::Ratio {
                permille: 150,
                seed: 42,
            },
        )
        .unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let repacker = {
        let daemon = Arc::clone(&w.daemon);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut reports = Vec::new();
            while !stop.load(Ordering::Relaxed) {
                reports.push(repack(&daemon, true));
            }
            reports
        })
    };

    let mut last_version = [0u64; 2];
    for _round in 0..10 {
        for (i, (m, name)) in models.iter_mut().zip(names).enumerate() {
            m.train_step();
            match client.checkpoint(name) {
                Ok(r) => {
                    assert!(
                        r.version > last_version[i],
                        "{name}: version went backwards under the storm"
                    );
                    last_version[i] = r.version;
                }
                Err(PortusError::DatapathFailed { .. }) => {}
                Err(other) => panic!("{name}: unexpected error {other}"),
            }
            let _ = client.restore(m); // may fail under faults; touches no state
        }
    }
    stop.store(true, Ordering::Relaxed);
    let reports = repacker.join().unwrap();
    assert!(!reports.is_empty());
    for report in reports {
        let report = report.expect("no pass may diverge or fail");
        // Nothing was ever reclaimable: no job completed and every
        // Active slot belonged to this (live) incarnation.
        assert_eq!(report.reclaimed_slots, 0, "a live region was freed");
    }
    w.fabric.clear_faults(NodeId(1)).unwrap();

    // The storm over, every model still checkpoints and restores
    // bit-for-bit.
    for (i, (m, name)) in models.iter_mut().zip(names).enumerate() {
        m.train_step();
        let want = m.model_checksum();
        let r = client.checkpoint(name).unwrap();
        assert!(r.version > last_version[i]);
        m.train_step();
        client.restore(m).unwrap();
        assert_eq!(m.model_checksum(), want, "{name} restores bit-for-bit");
    }
}

/// The space observability surface: repack passes record a
/// `TraceOp::Repack` span and histogram entry, the stats snapshot
/// carries the allocator gauges, and `portusctl space` renders them.
#[test]
fn repack_spans_gauges_and_portusctl_space_view() {
    let w = world();
    w.ctx.tracer.enable();
    let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
    let spec = test_spec("viewed", 2, 64 * 1024);
    let mut model = ModelInstance::materialize(&spec, &w.gpu, 7, Materialization::Owned).unwrap();
    client.register_model(&model).unwrap();
    model.train_step();
    client.checkpoint("viewed").unwrap();
    client.mark_complete("viewed").unwrap();
    let report = repack(&w.daemon, false).unwrap();
    assert_eq!(report.reclaimed_slots, 1);
    assert_eq!(report.skipped_models, 0);

    // The pass left a span on the tracer and a histogram entry.
    let spans = w.ctx.tracer.spans();
    assert!(
        spans
            .iter()
            .any(|s| s.op == TraceOp::Repack && s.stage == Stage::Repack),
        "repack pass must be traced"
    );
    let snapshot = client.stats().unwrap();
    assert!(snapshot.stage(TraceOp::Repack, Stage::Repack).is_some());
    assert_eq!(snapshot.repack_passes, 1);
    assert_eq!(snapshot.reclaimed_slots, 1);
    assert!(snapshot.reclaimed_bytes >= spec.total_bytes());
    assert_eq!(
        snapshot.pmem_free_bytes,
        w.daemon.index().allocator().free_bytes()
    );
    assert_eq!(
        snapshot.pmem_used_bytes,
        w.daemon.index().allocator().used_bytes()
    );
    assert!(snapshot.pmem_largest_free_extent <= snapshot.pmem_free_bytes);

    // The operator view renders the same numbers.
    let view = portus::portusctl::render_space(&snapshot);
    assert!(view.contains("free bytes"));
    assert!(view.contains(&snapshot.pmem_free_bytes.to_string()));
    assert!(view.contains("reclaimed slots"));
    assert!(view.contains("fragmentation"));
}
