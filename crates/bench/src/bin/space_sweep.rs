//! Space-management sweep (PR 4): how much PMem the online repacker
//! gives back as finished jobs accumulate, what a pass costs in
//! virtual time, and what the `OutOfSpace` repack-and-retry loop does
//! for a checkpoint that lands on a full device.
//!
//! Section 1 sweeps the number of completed ("garbage") jobs sharing a
//! device with one active job and reports, per explicit repack pass:
//! slots/bytes reclaimed, the allocator's free/largest-extent gauges
//! before and after, the derived fragmentation ratio, and the pass
//! latency off the `repack` stage histogram.
//!
//! Section 2 fills the heap and drives a checkpoint that needs a fresh
//! region: with reclaimable garbage present the daemon recovers
//! invisibly (one `oos_recovery`); with none it surfaces the typed
//! error carrying the allocator's view.
//!
//! Section 3 sweeps the dedup ratio: N fine-tunes of one base model
//! checkpoint onto a content-addressed daemon, and the table reports
//! physical (stored) versus logical (referenced) bytes, shared-extent
//! counts, and that every fine-tune still restores checksum-clean.
//!
//! `--smoke` shrinks every axis for CI.

use portus::{repack, DaemonConfig, DedupConfig, PortusClient, PortusDaemon, PortusError};
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

fn world(device_bytes: u64) -> World {
    world_cfg(device_bytes, DaemonConfig::default())
}

fn world_cfg(device_bytes: u64, cfg: DaemonConfig) -> World {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, device_bytes);
    let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem, cfg).expect("daemon");
    let gpu = GpuDevice::new(ctx.clone(), 0, 2 << 30);
    World {
        ctx,
        fabric,
        daemon,
        gpu,
    }
}

/// Registers `name`, checkpoints it `versions` times, and returns the
/// instance (still attached to the client's session).
fn run_job(
    w: &World,
    client: &PortusClient,
    name: &str,
    layers: u32,
    layer_bytes: u64,
    versions: u32,
    seed: u64,
) -> ModelInstance {
    let spec = test_spec(name, layers as usize, layer_bytes);
    let mut m = ModelInstance::materialize(&spec, &w.gpu, seed, Materialization::Owned)
        .expect("materialize");
    client.register_model(&m).expect("register");
    for _ in 0..versions {
        m.train_step();
        client.checkpoint(name).expect("checkpoint");
    }
    m
}

fn repack_scaling_sweep(smoke: bool) -> serde_json::Value {
    println!("Repack scaling — one active job + N completed jobs on a 256 MiB device");
    println!(
        "{:<8} {:>9} {:>12} {:>13} {:>13} {:>12} {:>12} {:>10}",
        "garbage",
        "reclaimed",
        "bytes",
        "free before",
        "free after",
        "extent",
        "frag after",
        "pass us"
    );
    let mut rows = Vec::new();
    let garbage_axis: &[u64] = if smoke { &[0, 4] } else { &[0, 2, 4, 8, 16] };
    for &garbage_jobs in garbage_axis {
        let w = world(256 << 20);
        let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
        for g in 0..garbage_jobs {
            let name = format!("done-{g}");
            run_job(&w, &client, &name, 4, 256 * 1024, 2, g);
            client.mark_complete(&name).expect("mark complete");
        }
        run_job(&w, &client, "active", 4, 512 * 1024, 2, 99);

        let alloc = w.daemon.index().allocator();
        let free_before = alloc.free_bytes();
        let report = repack(&w.daemon, false).expect("repack");
        let free_after = alloc.free_bytes();
        let snapshot = w.ctx.metrics.snapshot();
        let pass_ns = snapshot
            .stage(TraceOp::Repack, Stage::Repack)
            .map_or(0, |h| h.total_ns);
        println!(
            "{:<8} {:>9} {:>12} {:>13} {:>13} {:>12} {:>11}‰ {:>10.1}",
            garbage_jobs,
            report.reclaimed_slots,
            report.freed_bytes,
            free_before,
            free_after,
            snapshot.pmem_largest_free_extent,
            snapshot.fragmentation_permille(),
            pass_ns as f64 / 1e3,
        );
        rows.push(serde_json::json!({
            "garbage_jobs": garbage_jobs,
            "reclaimed_slots": report.reclaimed_slots,
            "freed_bytes": report.freed_bytes,
            "free_before": free_before,
            "free_after": free_after,
            "largest_extent": snapshot.pmem_largest_free_extent,
            "fragmentation_permille": snapshot.fragmentation_permille(),
            "pass_ns": pass_ns,
        }));
        drop(client);
        w.daemon.shutdown();
    }
    println!("shape: reclaim scales with garbage (one non-latest slot per completed job);");
    println!("the pass cost is index metadata traffic, far below one checkpoint.");
    serde_json::json!(rows)
}

/// Leaves less than one page free so the next region allocation fails.
fn fill_heap(w: &World) {
    let alloc = w.daemon.index().allocator();
    for chunk in [1u64 << 20, 64 << 10, 4 << 10] {
        while alloc.alloc_aligned(chunk, 4096, 0xF1FF).is_ok() {}
    }
}

fn oos_recovery_cases() -> serde_json::Value {
    println!();
    println!("OutOfSpace recovery — checkpoint needs a region on a full 64 MiB device");
    let mut rows = Vec::new();
    for with_garbage in [true, false] {
        let w = world(64 << 20);
        let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
        // The probe job loses its idle slot to a repack pass, so its
        // next checkpoint must allocate.
        let mut probe = run_job(&w, &client, "probe", 2, 128 * 1024, 1, 1);
        client.mark_complete("probe").expect("complete probe");
        repack(&w.daemon, false).expect("reclaim probe's idle slot");
        if with_garbage {
            run_job(&w, &client, "garbage", 4, 512 * 1024, 2, 2);
            client.mark_complete("garbage").expect("complete garbage");
        }
        fill_heap(&w);

        let stats_before = w.ctx.stats.snapshot();
        let metrics_before = w.ctx.metrics.snapshot();
        probe.train_step();
        let outcome = match client.checkpoint("probe") {
            Ok(r) => format!("recovered (v{})", r.version),
            Err(PortusError::OutOfSpace {
                needed,
                free,
                largest_extent,
            }) => {
                format!("typed OutOfSpace: need {needed}, free {free}, extent {largest_extent}")
            }
            Err(e) => panic!("unexpected error: {e}"),
        };
        let oos_recoveries = w.ctx.stats.snapshot().since(&stats_before).oos_recoveries;
        let after = w.ctx.metrics.snapshot();
        let reclaimed_slots = after.reclaimed_slots - metrics_before.reclaimed_slots;
        let reclaimed_bytes = after.reclaimed_bytes - metrics_before.reclaimed_bytes;
        println!(
            "  garbage={:<5} -> {:<55} oos_recoveries={} reclaimed={} ({} B)",
            with_garbage, outcome, oos_recoveries, reclaimed_slots, reclaimed_bytes
        );
        rows.push(serde_json::json!({
            "with_garbage": with_garbage,
            "outcome": outcome,
            "oos_recoveries": oos_recoveries,
            "reclaimed_slots": reclaimed_slots,
            "reclaimed_bytes": reclaimed_bytes,
        }));
        drop(client);
        w.daemon.shutdown();
    }
    println!("shape: reclaimable garbage turns OutOfSpace into one quiet repack-retry;");
    println!("a genuinely full device fails fast with the allocator's real numbers.");
    serde_json::json!(rows)
}

fn dedup_ratio_sweep(smoke: bool) -> serde_json::Value {
    println!();
    println!("Dedup ratio — base model + N fine-tunes on a content-addressed 256 MiB device");
    println!(
        "{:<10} {:>14} {:>14} {:>9} {:>8} {:>8} {:>9}",
        "fine-tunes", "logical", "stored", "ratio", "extents", "shared", "restored"
    );
    let mut rows = Vec::new();
    let axis: &[usize] = if smoke { &[8] } else { &[2, 4, 8, 16] };
    for &fine_tunes in axis {
        let w = world_cfg(
            256 << 20,
            DaemonConfig {
                dedup: Some(DedupConfig::default()),
                ..DaemonConfig::default()
            },
        );
        let client = PortusClient::connect(&w.daemon, w.fabric.nic(NodeId(0)).unwrap());
        // All instances materialize from one seed (the shared base
        // weights); each fine-tune then diverges sparsely — one tensor
        // touched per step, the embedding-heavy fine-tune pattern.
        let layers = 4usize;
        let mut jobs = Vec::new();
        for i in 0..=fine_tunes {
            let name = if i == 0 {
                "base".to_string()
            } else {
                format!("ft-{i}")
            };
            let spec = test_spec(&name, layers, 256 * 1024);
            let mut m = ModelInstance::materialize(&spec, &w.gpu, 7, Materialization::Owned)
                .expect("materialize");
            client.register_model(&m).expect("register");
            for step in 0..2 {
                if i > 0 {
                    m.train_step_sparse(&[(i + step) % layers]);
                }
                client.checkpoint(&name).expect("checkpoint");
            }
            jobs.push((name, m));
        }

        // Every sharer must restore checksum-clean off the shared
        // extents before the ratio counts for anything.
        let mut restored = 0usize;
        for (name, m) in &mut jobs {
            let saved = m.model_checksum();
            m.train_step();
            client.restore(m).expect("restore");
            assert_eq!(m.model_checksum(), saved, "{name} restore diverged");
            restored += 1;
        }

        let store = w.daemon.index().extent_store().expect("dedup enabled");
        let stats = store.stats().expect("extent stats");
        let ratio_permille = if stats.referenced_logical == 0 {
            1000
        } else {
            (stats.stored_bytes as u128 * 1000 / stats.referenced_logical as u128) as u64
        };
        println!(
            "{:<10} {:>14} {:>14} {:>8}‰ {:>8} {:>8} {:>9}",
            fine_tunes,
            stats.referenced_logical,
            stats.stored_bytes,
            ratio_permille,
            stats.live,
            stats.shared,
            restored,
        );
        if fine_tunes >= 8 {
            assert!(
                ratio_permille <= 400,
                "{fine_tunes} fine-tunes sharing a base must store ≤ 40% \
                 of their logical bytes, got {ratio_permille}‰"
            );
        }
        rows.push(serde_json::json!({
            "fine_tunes": fine_tunes,
            "logical_bytes": stats.referenced_logical,
            "stored_bytes": stats.stored_bytes,
            "ratio_permille": ratio_permille,
            "live_extents": stats.live,
            "shared_extents": stats.shared,
            "restored_ok": restored,
        }));
        drop(client);
        w.daemon.shutdown();
    }
    println!("shape: the base weights are stored once; each fine-tune adds only its");
    println!("diverged chunks, so the physical/logical ratio falls as sharers join.");
    serde_json::json!(rows)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let scaling = repack_scaling_sweep(smoke);
    let oos = oos_recovery_cases();
    let dedup = dedup_ratio_sweep(smoke);
    let path = portus_bench::write_experiment(
        "space_sweep",
        &serde_json::json!({
            "repack_scaling": scaling,
            "oos_recovery": oos,
            "dedup_ratio": dedup,
        }),
    );
    println!("wrote {}", path.display());
}
