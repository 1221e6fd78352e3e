//! The motivation experiment (§I/§II-B): checkpoint frequency trades
//! per-checkpoint overhead against lost work on failure. Sweeps
//! checkpoint intervals under a fixed failure schedule (one failure
//! every ~10 minutes, the rate Oobleck/Bamboo report for large jobs)
//! and reports goodput per policy — showing why cheap checkpoints let
//! you pick fine intervals that drown `torch.save`.
//!
//! A second section turns the failures inward: instead of whole-node
//! crashes it injects **datapath faults** (failed RDMA verbs) into the
//! real daemon and sweeps fault plans, reporting how many checkpoints
//! the per-WQE retry loop saves, how many end in a rolled-back slot,
//! and what the retries cost in virtual time.

use portus::{DaemonConfig, PortusClient, PortusDaemon, PortusError};
use portus_cluster::{
    daemon_loss_report, replica_set, run_fleet, run_with_failures, Backend, FleetConfig, JobShape,
    PlacementConfig, Policy, TrainingConfig,
};
use portus_dnn::{test_spec, zoo, IterationProfile, Materialization, ModelInstance};
use portus_mem::GpuDevice;
use portus_pmem::{PmemDevice, PmemMode};
use portus_rdma::{Fabric, FaultSpec, NodeId};
use portus_sim::{CostModel, SimDuration, Stage, TraceOp};

/// Whole-job failure schedule sweep (goodput per checkpoint policy).
fn goodput_sweep() -> serde_json::Value {
    let m = CostModel::icdcs24();
    let spec = zoo::gpt_22b();
    let job = JobShape {
        total_bytes: spec.total_bytes(),
        tensor_count: spec.layer_count() as u64,
        shards: 16,
        nodes: 2,
    };
    let profile = IterationProfile::from_total(zoo::gpt_iteration(&spec.name));
    let target = 2000u64;
    // A failure roughly every 10 minutes over the horizon.
    let failures: Vec<SimDuration> = (1..=12).map(|i| SimDuration::from_secs(i * 600)).collect();

    println!("Failure sweep — GPT-22.4B, {target} useful iterations, failures every ~10 min");
    println!(
        "{:<14} {:>8} {:>12} {:>10} {:>10} {:>12}",
        "Policy", "every", "total (s)", "lost it", "restores", "goodput it/h"
    );
    let mut rows = Vec::new();
    for every in [10u32, 26, 100, 500] {
        for policy in [
            Policy::TorchSave {
                every,
                backend: Backend::BeegfsPmem,
            },
            Policy::CheckFreq {
                every,
                backend: Backend::BeegfsPmem,
            },
            Policy::PortusAsync { every },
        ] {
            let cfg = TrainingConfig {
                job,
                profile,
                policy,
            };
            let out = run_with_failures(&m, &cfg, target, &failures);
            println!(
                "{:<14} {:>8} {:>12.0} {:>10} {:>10} {:>12.0}",
                policy.label(),
                every,
                out.total_time.as_secs_f64(),
                out.lost_iterations,
                out.restores,
                out.goodput() * 3600.0,
            );
            rows.push(serde_json::json!({
                "policy": policy.label(),
                "every": every,
                "total_seconds": out.total_time.as_secs_f64(),
                "lost_iterations": out.lost_iterations,
                "restores": out.restores,
                "goodput_per_hour": out.goodput() * 3600.0,
            }));
        }
        println!();
    }
    println!("shape: torch.save wants coarse intervals (overhead) but then loses big on");
    println!("failure; Portus-async keeps its goodput flat down to fine intervals.");
    serde_json::json!(rows)
}

/// Datapath fault-injection sweep against the real daemon: arm a fault
/// plan on the daemon NIC, run a burst of checkpoints, and read the
/// verb counters off `SimStats` and the rollback failures off `Metrics`.
fn datapath_fault_sweep() -> serde_json::Value {
    let seed = 0xC0FFEE;
    let cases: [(&str, Option<FaultSpec>); 6] = [
        ("none", None),
        ("nth-1", Some(FaultSpec::Nth(1))),
        ("ratio-5", Some(FaultSpec::Ratio { permille: 5, seed })),
        ("ratio-50", Some(FaultSpec::Ratio { permille: 50, seed })),
        (
            "ratio-200",
            Some(FaultSpec::Ratio {
                permille: 200,
                seed,
            }),
        ),
        ("all", Some(FaultSpec::All)),
    ];
    let rounds = 8u64;

    println!();
    println!(
        "Datapath fault injection — real daemon, 64 x 256 KiB tensors, \
         {rounds} checkpoints per plan, {} retry rounds",
        DaemonConfig::default().verb_retries
    );
    println!(
        "{:<10} {:>4} {:>7} {:>12} {:>9} {:>10} {:>9} {:>13} {:>11} {:>11}",
        "plan",
        "ok",
        "failed",
        "failed verbs",
        "retries",
        "rollbacks",
        "rb fails",
        "mean ckpt ms",
        "p50 ms",
        "p99 ms"
    );
    let mut rows = Vec::new();
    for (label, fault) in cases {
        let ctx = portus_sim::SimContext::icdcs24();
        let fabric = Fabric::new(ctx.clone());
        let compute = fabric.add_nic(NodeId(0));
        fabric.add_nic(NodeId(1));
        let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 256 << 20);
        let daemon =
            PortusDaemon::start(&fabric, NodeId(1), pmem, DaemonConfig::default()).expect("daemon");
        let gpu = GpuDevice::new(ctx.clone(), 0, 1 << 30);
        let mspec = test_spec("fault-sweep", 64, 256 * 1024);
        let model = ModelInstance::materialize(&mspec, &gpu, 42, Materialization::Owned)
            .expect("materialize");
        let client = PortusClient::connect(&daemon, compute);
        client.register_model(&model).expect("register");
        if let Some(spec) = fault {
            fabric.arm_faults(NodeId(1), spec).expect("arm faults");
        }

        let before = ctx.stats.snapshot();
        let t0 = ctx.clock.now();
        let (mut ok, mut failed) = (0u64, 0u64);
        for _ in 0..rounds {
            match client.checkpoint("fault-sweep") {
                Ok(_) => ok += 1,
                Err(PortusError::DatapathFailed { .. }) => failed += 1,
                Err(e) => panic!("unexpected checkpoint error: {e}"),
            }
        }
        let elapsed = ctx.clock.now().saturating_since(t0);
        let d = ctx.stats.snapshot().since(&before);
        let mean_ms = elapsed.as_secs_f64() * 1e3 / rounds as f64;
        // Tail latency of the successful checkpoints, from the daemon's
        // per-stage histograms (virtual time; empty when every round
        // failed, e.g. under the `all` plan).
        let metrics = ctx.metrics.snapshot();
        let (p50_ms, p99_ms) = metrics
            .stage(TraceOp::Checkpoint, Stage::Total)
            .map_or((0.0, 0.0), |h| (h.p50() as f64 / 1e6, h.p99() as f64 / 1e6));
        println!(
            "{:<10} {:>4} {:>7} {:>12} {:>9} {:>10} {:>9} {:>13.3} {:>11.3} {:>11.3}",
            label,
            ok,
            failed,
            d.failed_verbs,
            d.retried_verbs,
            d.rolled_back_slots,
            metrics.rollback_failures,
            mean_ms,
            p50_ms,
            p99_ms
        );
        rows.push(serde_json::json!({
            "plan": label,
            "checkpoints_ok": ok,
            "checkpoints_failed": failed,
            "failed_verbs": d.failed_verbs,
            "retried_verbs": d.retried_verbs,
            "rolled_back_slots": d.rolled_back_slots,
            "rollback_failures": metrics.rollback_failures,
            "mean_checkpoint_ms": mean_ms,
            "p50_checkpoint_ms": p50_ms,
            "p99_checkpoint_ms": p99_ms,
        }));
        drop(client);
        daemon.shutdown();
    }
    println!("shape: sparse faults are absorbed by per-WQE retries at a small time cost;");
    println!("only a saturated fabric fails checkpoints, and every failure rolls back.");
    serde_json::json!(rows)
}

/// Fault injection against the **striped** datapath: the same ratio
/// plan swept over QP counts. Retries keep lane affinity and a failed
/// checkpoint still rolls its slot back exactly once, so the recovery
/// counters must stay flat while the checkpoint time falls.
fn striped_fault_sweep() -> serde_json::Value {
    let seed = 0xC0FFEE;
    let rounds = 8u64;
    println!();
    println!(
        "Striped datapath under Ratio(50‰) faults — 64 x 256 KiB tensors, \
         {rounds} checkpoints per QP count"
    );
    println!(
        "{:<5} {:>4} {:>7} {:>12} {:>9} {:>10} {:>13} {:>9}",
        "qps", "ok", "failed", "failed verbs", "retries", "rollbacks", "mean ckpt ms", "overlap"
    );
    let mut rows = Vec::new();
    for qps in [1usize, 2, 4, 8] {
        let ctx = portus_sim::SimContext::icdcs24();
        let fabric = Fabric::new(ctx.clone());
        let compute = fabric.add_nic_with_engines(NodeId(0), qps);
        fabric.add_nic_with_engines(NodeId(1), qps);
        let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 256 << 20);
        let cfg = DaemonConfig {
            qps_per_connection: qps,
            ..DaemonConfig::default()
        };
        let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem, cfg).expect("daemon");
        let gpu = GpuDevice::new(ctx.clone(), 0, 1 << 30);
        let mspec = test_spec("qp-sweep", 64, 256 * 1024);
        let model = ModelInstance::materialize(&mspec, &gpu, 42, Materialization::Owned)
            .expect("materialize");
        let client = PortusClient::connect(&daemon, compute);
        client.register_model(&model).expect("register");
        fabric
            .arm_faults(NodeId(1), FaultSpec::Ratio { permille: 50, seed })
            .expect("arm faults");

        let before = ctx.stats.snapshot();
        let t0 = ctx.clock.now();
        let (mut ok, mut failed) = (0u64, 0u64);
        for _ in 0..rounds {
            match client.checkpoint("qp-sweep") {
                Ok(_) => ok += 1,
                Err(PortusError::DatapathFailed { .. }) => failed += 1,
                Err(e) => panic!("unexpected checkpoint error: {e}"),
            }
        }
        let elapsed = ctx.clock.now().saturating_since(t0);
        let d = ctx.stats.snapshot().since(&before);
        let mean_ms = elapsed.as_secs_f64() * 1e3 / rounds as f64;
        let overlap = ctx.metrics.snapshot().pipeline_overlap_permille;
        println!(
            "{:<5} {:>4} {:>7} {:>12} {:>9} {:>10} {:>13.3} {:>8.1}%",
            qps,
            ok,
            failed,
            d.failed_verbs,
            d.retried_verbs,
            d.rolled_back_slots,
            mean_ms,
            overlap as f64 / 10.0
        );
        rows.push(serde_json::json!({
            "qps": qps,
            "checkpoints_ok": ok,
            "checkpoints_failed": failed,
            "failed_verbs": d.failed_verbs,
            "retried_verbs": d.retried_verbs,
            "rolled_back_slots": d.rolled_back_slots,
            "mean_checkpoint_ms": mean_ms,
            "pipeline_overlap_permille": overlap,
        }));
        drop(client);
        daemon.shutdown();
    }
    println!("shape: striping shortens the checkpoint without changing the fault story —");
    println!("every retry stays on its lane, every exhausted WQE still rolls back once.");
    serde_json::json!(rows)
}

/// Daemon-loss sweep on the fleet simulation: kill one daemon
/// mid-checkpoint and compare replication factors. At k=1 the attempt
/// whose only copy was in flight on the dead daemon is lost, but the
/// checkpoints after it land on survivors, so every client still
/// restores its latest validated version. At k=2 no attempt is lost:
/// the recovery epoch fences the dead daemon's in-flight writes and the
/// rebalance copies each affected model's latest version onto a
/// survivor. Both rows are asserted.
fn daemon_kill_sweep() -> serde_json::Value {
    let m = CostModel::icdcs24();
    let fleet = |k: usize| {
        let mut cfg = FleetConfig::uniform(
            4,
            4,
            JobShape::single(1 << 30, 64),
            IterationProfile::from_total(SimDuration::from_millis(350)),
            Policy::PortusSync { every: 10 },
            60,
        );
        cfg.seed = 7;
        cfg.with_placement(PlacementConfig::mirrored(k))
    };
    // Aim the kill at the midpoint of client-0's second checkpoint
    // pull (located on a kill-free dry run) and point it at client-0's
    // rendezvous primary — a genuinely mid-checkpoint loss on a daemon
    // that holds checkpoints that matter.
    let dry = run_fleet(&m, &fleet(1));
    let span = dry
        .spans
        .iter()
        .filter(|s| s.model == "client-0" && s.op == TraceOp::Checkpoint && s.stage == Stage::Total)
        .nth(1)
        .expect("client-0 checkpoints at least twice");
    let at = (span.start + span.end.saturating_since(span.start) / 2)
        .saturating_since(portus_sim::SimTime::ZERO);
    let victim = replica_set("client-0", &[true; 4], 1)[0];

    println!();
    println!(
        "Daemon-loss sweep — 4 clients / 4 daemons, 1 GiB jobs, kill daemon {victim} at {:.1} s",
        at.as_secs_f64()
    );
    println!(
        "{:<9} {:>11} {:>7} {:>8} {:>13} {:>10} {:>9} {:>10}",
        "replicas",
        "lost ckpts",
        "fenced",
        "repairs",
        "repair bytes",
        "failovers",
        "lost it",
        "zero-loss"
    );
    let mut rows = Vec::new();
    for k in [1usize, 2] {
        let cfg = fleet(k).with_kill(victim, at);
        let out = run_fleet(&m, &cfg);
        let report = daemon_loss_report(&cfg, &out);
        if k == 1 {
            assert!(
                report.failed_checkpoints >= 1,
                "k=1 must lose the attempt in flight on the dead daemon: {report:?}"
            );
        } else {
            assert!(
                report.failed_checkpoints == 0 && report.repairs >= 1 && report.zero_loss,
                "k=2 must lose no attempt, repair onto a survivor and stay zero-loss: {report:?}"
            );
        }
        println!(
            "{:<9} {:>11} {:>7} {:>8} {:>13} {:>10} {:>9} {:>10}",
            k,
            report.failed_checkpoints,
            report.fenced_active,
            report.repairs,
            report.repair_bytes,
            report.restore_failovers,
            report.lost_iterations,
            if report.zero_loss { "yes" } else { "no" },
        );
        rows.push(serde_json::json!({
            "replicas": k,
            "killed": report.killed,
            "failed_checkpoints": report.failed_checkpoints,
            "fenced_active": report.fenced_active,
            "repairs": report.repairs,
            "repair_bytes": report.repair_bytes,
            "restore_failovers": report.restore_failovers,
            "lost_iterations": report.lost_iterations,
            "zero_loss": report.zero_loss,
            "makespan_seconds": out.makespan.as_secs_f64(),
            "recovery_epoch": out.epoch,
        }));
    }
    println!("shape: one replica loses the attempt in flight on the dead daemon, while later");
    println!("checkpoints land on survivors; two replicas lose no attempt, fence, and repair.");
    serde_json::json!(rows)
}

fn main() {
    let goodput = goodput_sweep();
    let faults = datapath_fault_sweep();
    let striped = striped_fault_sweep();
    let kills = daemon_kill_sweep();
    let path = portus_bench::write_experiment(
        "failure_sweep",
        &serde_json::json!({
            "goodput": goodput,
            "datapath_faults": faults,
            "striped_datapath_faults": striped,
            "daemon_kills": kills,
        }),
    );
    println!("wrote {}", path.display());
}
