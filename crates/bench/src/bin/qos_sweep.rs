//! Multi-tenant QoS sweep (DESIGN.md §17): token-bucket admission and
//! priority restore under three adversarial scenarios.
//!
//! 1. **Antagonistic tenants** — a polite tenant shares a daemon with
//!    an antagonist whose demand far exceeds its byte bucket. The
//!    sweep shows the antagonist clamped to its configured rate while
//!    the polite tenant's checkpoints stay within noise of its solo
//!    run; an uncapped control shows what the bucket is buying.
//! 2. **Checkpoint storm** — one worker, a dozen queued checkpoints,
//!    and a restore arriving mid-storm. With priority restore lanes
//!    the restore jumps the normal-class queue; with them off it
//!    drains behind the storm. The p99 gap is the headline number.
//! 3. **Restore stampede after a fleet failure** — reuses the PR 7
//!    kill-schedule machinery: a daemon dies mid-checkpoint, the
//!    fleet report says who must restore (and through how many dead
//!    replicas they fall), and the stampede is replayed against a
//!    real daemon with priority lanes on and off.
//!
//! `--smoke` shrinks every round count for CI.

use portus::{DaemonConfig, PortusClient, PortusDaemon, PortusError, TenantQos};
use portus_cluster::{
    daemon_loss_report, replica_set, run_fleet, FleetConfig, JobShape, PlacementConfig, Policy,
};
use portus_dnn::{test_spec, IterationProfile, Materialization, ModelInstance};
use portus_mem::GpuDevice;
use portus_pmem::{PmemDevice, PmemMode};
use portus_rdma::{Fabric, NodeId};
use portus_sim::{CostModel, SimContext, SimDuration, SimTime, Stage, TraceOp};

const MIB: u64 = 1 << 20;

/// Outcome of one polite-vs-antagonist run.
struct PairOutcome {
    /// Sum of the polite tenant's own checkpoint latencies.
    polite_time: SimDuration,
    /// Whole-run virtual elapsed (polite + admitted antagonist ops).
    elapsed: SimDuration,
    antagonist_ok: u64,
    antagonist_throttled: u64,
    antagonist_bytes: u64,
}

/// Runs `rounds` of polite checkpoints, each followed by one
/// antagonist attempt (when `antagonist` is set). `cap` is the
/// antagonist's byte bucket (`None` = uncapped).
fn antagonist_run(rounds: u64, antagonist: bool, cap: Option<u64>) -> PairOutcome {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let polite_nic = fabric.add_nic(NodeId(0));
    let antag_nic = fabric.add_nic(NodeId(2));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 1 << 30);
    let mut cfg = DaemonConfig::default();
    if let Some(bps) = cap {
        // A burst of one antagonist op keeps the debt overshoot small,
        // so the measured rate converges to the cap within the sweep's
        // horizon instead of after many bucket-drain cycles.
        cfg.qos.tenants.insert(
            "antagonist".to_string(),
            TenantQos {
                bytes_per_sec: bps,
                burst_bytes: 8 * MIB,
            },
        );
    }
    let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem, cfg).expect("daemon");
    let gpu = GpuDevice::new(ctx.clone(), 0, 1 << 30);

    let polite_spec = test_spec("polite", 16, 4 * MIB);
    let polite_model = ModelInstance::materialize(&polite_spec, &gpu, 1, Materialization::Owned)
        .expect("materialize polite");
    let polite = PortusClient::connect_as(&daemon, polite_nic, "polite");
    polite
        .register_model(&polite_model)
        .expect("register polite");

    let antag_client = antagonist.then(|| {
        let spec = test_spec("antagonist", 8, MIB);
        let model = ModelInstance::materialize(&spec, &gpu, 2, Materialization::Owned)
            .expect("materialize antagonist");
        let c = PortusClient::connect_as(&daemon, antag_nic, "antagonist");
        c.register_model(&model).expect("register antagonist");
        c
    });

    let t0 = ctx.clock.now();
    let mut polite_time = SimDuration::ZERO;
    let (mut ok, mut throttled) = (0u64, 0u64);
    for _ in 0..rounds {
        let s = ctx.clock.now();
        polite.checkpoint("polite").expect("polite checkpoint");
        polite_time += ctx.clock.now().saturating_since(s);
        if let Some(antag) = &antag_client {
            match antag.checkpoint("antagonist") {
                Ok(_) => ok += 1,
                Err(PortusError::Throttled { .. }) => throttled += 1,
                Err(e) => panic!("unexpected antagonist error: {e}"),
            }
        }
    }
    let elapsed = ctx.clock.now().saturating_since(t0);
    let antagonist_bytes = polite
        .stats()
        .expect("stats")
        .tenant("antagonist")
        .map_or(0, |t| t.admitted_bytes);
    drop(polite);
    drop(antag_client);
    daemon.shutdown();
    PairOutcome {
        polite_time,
        elapsed,
        antagonist_ok: ok,
        antagonist_throttled: throttled,
        antagonist_bytes,
    }
}

/// Scenario 1: token-bucket admission pins the antagonist to its
/// configured rate without touching the polite tenant.
fn antagonistic_tenants(smoke: bool) -> serde_json::Value {
    // Long horizon: the debt-based bucket admits up to one burst plus
    // one oversized op beyond its budget, so the measured rate only
    // converges to the configured cap over many rounds.
    let rounds = if smoke { 60 } else { 150 };
    let cap = 64 * MIB; // antagonist budget: 64 MiB/s of checkpoints

    let solo = antagonist_run(rounds, false, None);
    let capped = antagonist_run(rounds, true, Some(cap));
    let uncapped = antagonist_run(rounds, true, None);

    let rate = |o: &PairOutcome| o.antagonist_bytes as f64 / o.elapsed.as_secs_f64() / MIB as f64;
    let slowdown = |o: &PairOutcome| o.polite_time.as_secs_f64() / solo.polite_time.as_secs_f64();

    println!("Antagonistic tenants — polite (unlimited) vs antagonist (64 MiB/s bucket)");
    println!(
        "{:<10} {:>12} {:>13} {:>10} {:>10} {:>14}",
        "setup", "polite s", "polite slow", "antag ok", "throttled", "antag MiB/s"
    );
    let mut rows = Vec::new();
    for (label, o) in [
        ("solo", &solo),
        ("capped", &capped),
        ("uncapped", &uncapped),
    ] {
        println!(
            "{:<10} {:>12.3} {:>12.3}x {:>10} {:>10} {:>14.1}",
            label,
            o.polite_time.as_secs_f64(),
            slowdown(o),
            o.antagonist_ok,
            o.antagonist_throttled,
            rate(o),
        );
        rows.push(serde_json::json!({
            "setup": label,
            "polite_checkpoint_seconds": o.polite_time.as_secs_f64(),
            "polite_slowdown": slowdown(o),
            "antagonist_ok": o.antagonist_ok,
            "antagonist_throttled": o.antagonist_throttled,
            "antagonist_admitted_bytes": o.antagonist_bytes,
            "antagonist_mib_per_sec": rate(o),
        }));
    }
    println!(
        "shape: the bucket clamps the antagonist near {} MiB/s (vs {:.0} MiB/s uncapped)",
        cap / MIB,
        rate(&uncapped)
    );
    println!("while the polite tenant stays within noise of its solo run.");
    serde_json::json!({
        "cap_mib_per_sec": cap / MIB,
        "rows": rows,
    })
}

/// One storm round's measured restore latencies: fires a checkpoint
/// storm on the `storm` tenant, then `restores` back-to-back restores
/// on the `recover` tenant, measured client-side on the virtual clock.
struct StormOutcome {
    restore_ns: Vec<u64>,
    checkpoint_p99_ns: u64,
    shed_checkpoints: u64,
}

/// Drives the storm harness against a real daemon with priority
/// restore lanes on or off. One dispatch worker, `storm_models`
/// checkpoints queued per round, then `restores` restore calls.
fn storm_run(priority: bool, storm_models: usize, restores: usize, rounds: u64) -> StormOutcome {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let storm_nic = fabric.add_nic(NodeId(0));
    let recover_nic = fabric.add_nic(NodeId(2));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 2 << 30);
    let cfg = DaemonConfig {
        dispatch_workers: 1,
        priority_restore: priority,
        ..DaemonConfig::default()
    };
    let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem, cfg).expect("daemon");
    let gpu = GpuDevice::new(ctx.clone(), 0, 1 << 30);

    // Storm models carry thousands of tiny tensors: the per-WQE work
    // keeps the single worker busy in host time while the storm
    // enqueues, so the restore genuinely races a loaded queue.
    let storm = PortusClient::connect_as(&daemon, storm_nic, "storm");
    let mut names = Vec::new();
    for i in 0..storm_models {
        let spec = test_spec(&format!("storm-{i}"), 8192, 2048);
        let model = ModelInstance::materialize(&spec, &gpu, 10 + i as u64, Materialization::Owned)
            .expect("materialize storm model");
        storm.register_model(&model).expect("register storm model");
        names.push(spec.name.clone());
    }

    let recover = PortusClient::connect_as(&daemon, recover_nic, "recover");
    let victim_spec = test_spec("victim", 64, 256 * 1024);
    let victim = ModelInstance::materialize(&victim_spec, &gpu, 42, Materialization::Owned)
        .expect("materialize victim");
    recover.register_model(&victim).expect("register victim");
    recover
        .checkpoint("victim")
        .expect("seed the victim checkpoint");
    let dest = ModelInstance::materialize(&victim_spec, &gpu, 43, Materialization::Owned)
        .expect("materialize restore target");

    let mut restore_ns = Vec::new();
    let gate = names.len() as u64 - 2;
    for _ in 0..rounds {
        let pendings: Vec<_> = names
            .iter()
            .map(|n| (n.clone(), storm.checkpoint_async(n).expect("storm async")))
            .collect();
        // Gate on the dispatch-queue gauge before measuring: Stats
        // rides the urgent class, so the poll answers even while the
        // normal queue is saturated. Without the gate, a preempted
        // storm serve thread lets the first restore race into an
        // *empty* queue and both configurations measure alike.
        while recover.stats().expect("stats").dispatch_queue_depth < gate {
            std::thread::yield_now();
        }
        let mut mark = ctx.clock.now();
        for _ in 0..restores {
            recover.restore(&dest).expect("restore under storm");
            let now = ctx.clock.now();
            restore_ns.push(now.saturating_since(mark).as_nanos());
            mark = now;
        }
        for (n, p) in pendings {
            storm.wait_checkpoint(&n, p).expect("drain storm");
        }
    }
    let stats = recover.stats().expect("stats");
    let checkpoint_p99_ns = stats.tenant("storm").map_or(0, |t| t.checkpoint.p99());
    let shed_checkpoints = stats.tenant("storm").map_or(0, |t| t.shed_ops);
    drop(storm);
    drop(recover);
    daemon.shutdown();
    StormOutcome {
        restore_ns,
        checkpoint_p99_ns,
        shed_checkpoints,
    }
}

/// Quantile over client-side samples (nearest-rank).
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn storm_row(label: &str, out: &StormOutcome) -> serde_json::Value {
    let mut sorted = out.restore_ns.clone();
    sorted.sort_unstable();
    let (p50, p99) = (quantile(&sorted, 0.5), quantile(&sorted, 0.99));
    println!(
        "{:<10} {:>9} {:>14.3} {:>14.3} {:>15.3} {:>6}",
        label,
        sorted.len(),
        p50 as f64 / 1e6,
        p99 as f64 / 1e6,
        out.checkpoint_p99_ns as f64 / 1e6,
        out.shed_checkpoints,
    );
    serde_json::json!({
        "priority_restore": label == "on",
        "restores": sorted.len(),
        "restore_p50_ms": p50 as f64 / 1e6,
        "restore_p99_ms": p99 as f64 / 1e6,
        "restore_p99_ns": p99,
        "storm_checkpoint_p99_ms": out.checkpoint_p99_ns as f64 / 1e6,
        "shed_checkpoints": out.shed_checkpoints,
    })
}

/// Scenario 2: a restore arrives mid-storm; priority lanes decide
/// whether it jumps the queue or drains behind it.
fn checkpoint_storm(smoke: bool) -> serde_json::Value {
    let rounds = if smoke { 3 } else { 10 };
    let storm_models = 12;
    println!();
    println!(
        "Checkpoint storm — 1 worker, {storm_models} queued checkpoints, restore mid-storm, \
         {rounds} rounds"
    );
    println!(
        "{:<10} {:>9} {:>14} {:>14} {:>15} {:>6}",
        "priority", "restores", "rst p50 ms", "rst p99 ms", "ckpt p99 ms", "shed"
    );
    let on = storm_run(true, storm_models, 1, rounds);
    let off = storm_run(false, storm_models, 1, rounds);
    let row_on = storm_row("on", &on);
    let row_off = storm_row("off", &off);
    let p99 = |o: &StormOutcome| {
        let mut s = o.restore_ns.clone();
        s.sort_unstable();
        quantile(&s, 0.99)
    };
    let speedup = p99(&off) as f64 / p99(&on).max(1) as f64;
    println!("shape: priority lanes cut the mid-storm restore p99 by {speedup:.1}x — the");
    println!("restore jumps the normal-class queue instead of draining behind it.");
    serde_json::json!({
        "rows": [row_on, row_off],
        "priority_restore_p99_speedup": speedup,
    })
}

/// Scenario 3: a daemon dies mid-checkpoint (the PR 7 kill-schedule
/// idiom), the fleet report says who must restore, and the stampede
/// replays against a real daemon with priority lanes on and off.
fn restore_stampede(smoke: bool) -> serde_json::Value {
    let m = CostModel::icdcs24();
    let fleet = |k: usize| {
        let mut cfg = FleetConfig::uniform(
            4,
            8,
            JobShape::single(1 << 30, 64),
            IterationProfile::from_total(SimDuration::from_millis(350)),
            Policy::PortusSync { every: 10 },
            60,
        );
        cfg.seed = 7;
        for (i, c) in cfg.clients.iter_mut().enumerate() {
            c.tenant = if i < 4 {
                "team-a".to_string()
            } else {
                "team-b".to_string()
            };
        }
        cfg.with_placement(PlacementConfig::mirrored(k))
    };
    // Aim the kill at the midpoint of client-0's *last* checkpoint and
    // at its rendezvous primary (the daemon-loss sweep idiom): the
    // surviving replica keeps the version restorable, but every client
    // whose primary died now restores through a dead replica — the
    // stampede this scenario replays.
    let dry = run_fleet(&m, &fleet(2));
    let span = dry
        .spans
        .iter()
        .rfind(|s| s.model == "client-0" && s.op == TraceOp::Checkpoint && s.stage == Stage::Total)
        .expect("client-0 checkpoints at least once");
    let at =
        (span.start + span.end.saturating_since(span.start) / 2).saturating_since(SimTime::ZERO);
    let victim = replica_set("client-0", &[true; 4], 1)[0];

    let cfg = fleet(2).with_kill(victim, at);
    let out = run_fleet(&m, &cfg);
    let report = daemon_loss_report(&cfg, &out);
    let stampeders: Vec<&str> = out
        .restores
        .iter()
        .filter(|r| r.failovers > 0)
        .map(|r| r.client.as_str())
        .collect();

    println!();
    println!(
        "Restore stampede — kill daemon {victim} at {:.1} s, k=2 replicas, 8 clients / 2 tenants",
        at.as_secs_f64()
    );
    println!(
        "fleet: {} failed ckpts, {} fenced, {} repairs, {} restore failovers, zero-loss: {}",
        report.failed_checkpoints,
        report.fenced_active,
        report.repairs,
        report.restore_failovers,
        report.zero_loss,
    );
    for t in &out.metrics.tenants {
        println!(
            "tenant {:<8} admitted {} checkpoints / {} bytes",
            t.tenant, t.admitted_ops, t.admitted_bytes
        );
    }
    println!(
        "{} clients restore through a dead replica: {stampeders:?}",
        stampeders.len()
    );

    // Replay: the failed-over restores all land on a survivor that is
    // still absorbing checkpoint traffic. Four back-to-back restores
    // against a loaded single-worker daemon, priority on vs off.
    let rounds = if smoke { 2 } else { 6 };
    let restores = stampeders.len().clamp(2, 4);
    println!("replay: {restores} back-to-back restores vs 12 queued checkpoints, {rounds} rounds");
    println!(
        "{:<10} {:>9} {:>14} {:>14} {:>15} {:>6}",
        "priority", "restores", "rst p50 ms", "rst p99 ms", "ckpt p99 ms", "shed"
    );
    let on = storm_run(true, 12, restores, rounds);
    let off = storm_run(false, 12, restores, rounds);
    let row_on = storm_row("on", &on);
    let row_off = storm_row("off", &off);
    println!("shape: even a stampede of restores drains ahead of the storm when priority");
    println!("lanes are on; off, the first restore eats the whole queue's virtual time.");
    serde_json::json!({
        "kill_daemon": victim,
        "kill_at_seconds": at.as_secs_f64(),
        "failed_checkpoints": report.failed_checkpoints,
        "fenced_active": report.fenced_active,
        "repairs": report.repairs,
        "restore_failovers": report.restore_failovers,
        "zero_loss": report.zero_loss,
        "stampeding_clients": stampeders,
        "tenants": out.metrics.tenants.iter().map(|t| serde_json::json!({
            "tenant": t.tenant,
            "admitted_ops": t.admitted_ops,
            "admitted_bytes": t.admitted_bytes,
        })).collect::<Vec<_>>(),
        "replay": [row_on, row_off],
    })
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let antagonist = antagonistic_tenants(smoke);
    let storm = checkpoint_storm(smoke);
    let stampede = restore_stampede(smoke);
    let path = portus_bench::write_experiment(
        "qos_sweep",
        &serde_json::json!({
            "antagonistic_tenants": antagonist,
            "checkpoint_storm": storm,
            "restore_stampede": stampede,
        }),
    );
    println!("wrote {}", path.display());
}
