//! Daemon-loss recovery, end to end: a replicated fleet survives a
//! daemon killed mid-checkpoint (validated work stays restorable from
//! the surviving replicas), the recovery epoch only ever fences the
//! dead daemon's in-flight writes — never a live replica's — and a
//! seeded run with a kill schedule replays bit-for-bit. Four seeded
//! kills of the benchmark's replicated async fleet are pinned to exact
//! constants. A final test exercises the real datapath: a
//! `ReplicatedClient` fails over a restore when its primary replica's
//! fabric dies.

use portus::{DaemonConfig, PortusDaemon, PortusError, ReplicatedClient};
use portus_cluster::{
    daemon_loss_report, replica_set, run_fleet, FleetConfig, JobShape, PlacementConfig, Policy,
};
use portus_dnn::{test_spec, IterationProfile, Materialization, ModelInstance};
use portus_mem::GpuDevice;
use portus_pmem::{PmemDevice, PmemMode};
use portus_rdma::{Fabric, FaultSpec, NodeId};
use portus_sim::{CostModel, SimContext, SimDuration, SimTime, Stage, TraceOp};

fn fleet(daemons: usize, clients: usize, k: usize) -> FleetConfig {
    let mut cfg = FleetConfig::uniform(
        daemons,
        clients,
        JobShape::single(1_000_000_000, 300),
        IterationProfile::from_total(SimDuration::from_millis(350)),
        Policy::PortusSync { every: 10 },
        50,
    );
    cfg.seed = 0xC0FFEE;
    cfg.with_placement(PlacementConfig::mirrored(k))
}

/// The midpoint of client-0's second checkpoint pull on a kill-free
/// dry run: a deterministic, genuinely mid-checkpoint kill instant.
fn mid_checkpoint_instant(m: &CostModel, cfg: &FleetConfig) -> SimDuration {
    let dry = run_fleet(m, cfg);
    let span = dry
        .spans
        .iter()
        .filter(|s| s.model == "client-0" && s.op == TraceOp::Checkpoint && s.stage == Stage::Total)
        .nth(1)
        .expect("client-0 checkpoints at least twice");
    (span.start + span.end.saturating_since(span.start) / 2).saturating_since(SimTime::ZERO)
}

#[test]
fn replicas_keep_every_validated_checkpoint_through_a_mid_checkpoint_kill() {
    let m = CostModel::icdcs24();
    let at = mid_checkpoint_instant(&m, &fleet(4, 4, 2));
    let primary = replica_set("client-0", &[true; 4], 1)[0];
    let cfg = fleet(4, 4, 2).with_kill(primary, at);
    let out = run_fleet(&m, &cfg);

    // k=2: every client still restores its newest validated version.
    assert_eq!(out.epoch, 1, "one daemon loss bumps the epoch once");
    for (client, restore) in cfg.clients.iter().zip(&out.restores) {
        assert_eq!(restore.client, client.name);
        assert!(
            restore.version.is_some(),
            "{} must stay restorable behind two replicas",
            client.name
        );
    }
    // The dead primary serves nothing: checkpoints after the kill are
    // re-placed, so the final version lives entirely on survivors.
    let client0 = &out.restores[0];
    assert!(!client0.served_by.contains(&primary));
    assert!(!client0.served_by.is_empty());

    let report = daemon_loss_report(&cfg, &out);
    assert_eq!(report.killed, vec![primary]);
    assert!(
        report.zero_loss,
        "no validated checkpoint may be lost at k=2"
    );
    assert_eq!(report.lost_iterations, 0);
    assert_eq!(report.failed_checkpoints, 0);
    assert!(
        report.repairs > 0,
        "the rebalance re-replicates the dead daemon's checkpoints"
    );

    // The same kill without replication loses client-0's work.
    let lossy_cfg = fleet(4, 4, 1).with_kill(primary, at);
    let lossy = daemon_loss_report(&lossy_cfg, &run_fleet(&m, &lossy_cfg));
    assert!(
        lossy.failed_checkpoints > 0,
        "k=1 loses the checkpoint in flight on the dead primary"
    );
}

#[test]
fn restore_falls_through_a_primary_that_dies_after_the_last_checkpoint() {
    // Kill the primary after every checkpoint has validated: the final
    // version's replicas *include* the dead daemon, so the post-run
    // restore must walk past it (failover) to a surviving holder.
    let m = CostModel::icdcs24();
    let dry = run_fleet(&m, &fleet(4, 4, 2));
    let last_end = dry
        .spans
        .iter()
        .filter(|s| s.model == "client-0" && s.op == TraceOp::Checkpoint && s.stage == Stage::Total)
        .map(|s| s.end)
        .max()
        .expect("client-0 checkpointed");
    let at = last_end.saturating_since(SimTime::ZERO) + SimDuration::from_secs(1);
    let primary = replica_set("client-0", &[true; 4], 1)[0];
    let cfg = fleet(4, 4, 2).with_kill(primary, at);
    let out = run_fleet(&m, &cfg);

    let client0 = &out.restores[0];
    assert!(
        client0.version.is_some(),
        "the surviving replica still serves"
    );
    assert!(
        client0.failovers >= 1,
        "rendezvous walks past the dead primary"
    );
    assert!(!client0.served_by.contains(&primary));

    let report = daemon_loss_report(&cfg, &out);
    assert!(report.zero_loss);
    assert!(report.restore_failovers >= 1);
}

#[test]
fn recovery_epoch_fences_only_the_dead_daemon() {
    let m = CostModel::icdcs24();
    let at = mid_checkpoint_instant(&m, &fleet(4, 4, 2));
    let primary = replica_set("client-0", &[true; 4], 1)[0];
    let cfg = fleet(4, 4, 2).with_kill(primary, at);
    let out = run_fleet(&m, &cfg);

    assert_eq!(out.metrics.recovery_epoch, 1);
    for d in &out.metrics.fleet {
        if d.daemon == primary as u64 {
            assert!(d.killed);
            assert!(d.fenced_active > 0, "the in-flight pull is fenced");
        } else {
            // A live replica's writes are never fenced or discarded:
            // the survivors keep serving and absorb the repairs.
            assert!(!d.killed);
            assert_eq!(
                d.fenced_active, 0,
                "daemon {} is alive — nothing to fence",
                d.daemon
            );
        }
    }
    let repaired: u64 = out
        .metrics
        .fleet
        .iter()
        .filter(|d| d.daemon != primary as u64)
        .map(|d| d.repairs_in)
        .sum();
    assert!(repaired > 0, "repairs land on survivors only");
    assert_eq!(
        out.metrics.fleet[primary].repairs_in, 0,
        "nothing is repaired onto a dead daemon"
    );
}

#[test]
fn kill_schedules_replay_bit_for_bit_and_the_instant_matters() {
    let m = CostModel::icdcs24();
    let cfg = fleet(3, 6, 2)
        .with_kill(2, SimDuration::from_secs(5))
        .with_kill(0, SimDuration::from_secs(11));
    let a = run_fleet(&m, &cfg);
    let b = run_fleet(&m, &cfg);
    assert_eq!(a.events, b.events, "event order must replay");
    assert_eq!(a.spans, b.spans, "span stream must replay");
    assert_eq!(
        a.metrics, b.metrics,
        "metrics (incl. fleet counters) must replay"
    );
    assert_eq!(a.restores, b.restores, "restore accounting must replay");
    assert_eq!(a.clients, b.clients);
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.epoch, 2);

    // Moving a kill changes the interleaving.
    let shifted = fleet(3, 6, 2)
        .with_kill(2, SimDuration::from_secs(6))
        .with_kill(0, SimDuration::from_secs(11));
    let c = run_fleet(&m, &shifted);
    assert_ne!(a.events, c.events, "the kill instant must matter");
}

#[test]
fn single_daemon_single_replica_matches_the_legacy_path() {
    // Placement with k=1 on one daemon degenerates to the pinned
    // legacy path: same stalls, same completion times.
    let m = CostModel::icdcs24();
    let mut legacy = FleetConfig::uniform(
        1,
        2,
        JobShape::single(1_000_000_000, 300),
        IterationProfile::from_total(SimDuration::from_millis(350)),
        Policy::PortusSync { every: 10 },
        40,
    );
    legacy.seed = 9;
    let placed = legacy.clone().with_placement(PlacementConfig::mirrored(1));

    let a = run_fleet(&m, &legacy);
    let b = run_fleet(&m, &placed);
    assert_eq!(a.makespan, b.makespan);
    for (x, y) in a.clients.iter().zip(&b.clients) {
        assert_eq!(x.checkpoints, y.checkpoints);
        assert_eq!(x.checkpoint_stall, y.checkpoint_stall);
        assert_eq!(x.finished_at, y.finished_at);
    }
}

#[test]
fn replicated_client_fails_over_a_restore_on_the_real_datapath() {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    let daemons: Vec<_> = (0..3u32)
        .map(|d| {
            fabric.add_nic(NodeId(1 + d));
            let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 64 << 20);
            PortusDaemon::start(&fabric, NodeId(1 + d), pmem, DaemonConfig::default())
                .expect("daemon")
        })
        .collect();
    let refs: Vec<&PortusDaemon> = daemons.iter().map(|d| d.as_ref()).collect();
    let client = ReplicatedClient::connect(&refs, compute);

    let gpu = GpuDevice::new(ctx, 0, 1 << 30);
    let spec = test_spec("fleet-model", 8, 64 * 1024);
    let mut model =
        ModelInstance::materialize(&spec, &gpu, 3, Materialization::Owned).expect("model");
    client.register_model(&model).expect("register");
    model.train_step();
    let durable = model.model_checksum();
    let out = client.checkpoint("fleet-model").expect("checkpoint");
    assert_eq!(out.survivors(), 3, "the version lands on every replica");

    // Replica 0 dies; training diverges; the restore must fail over.
    fabric.arm_faults(NodeId(1), FaultSpec::All).expect("arm");
    model.train_step();
    let report = client.restore(&model).expect("failover restore");
    assert_eq!(report.version, 1);
    assert_eq!(
        model.model_checksum(),
        durable,
        "restored bit-for-bit from a survivor"
    );

    // With every replica down the failure is typed, not a panic.
    for d in 1..3u32 {
        fabric
            .arm_faults(NodeId(1 + d), FaultSpec::All)
            .expect("arm");
    }
    match client.restore(&model) {
        Err(PortusError::ReplicasExhausted { op, attempts, .. }) => {
            assert_eq!(op, "restore");
            assert_eq!(attempts.len(), 3);
        }
        other => panic!("expected ReplicasExhausted, got {other:?}"),
    }
}

/// What one `fleet-async`-shaped run must reproduce exactly.
#[derive(Debug, PartialEq, Eq)]
struct Pinned {
    makespan_ns: u64,
    /// Per client: `(checkpoint_stall ns, checkpoints, failed_checkpoints)`.
    clients: [(u64, u64, u64); 8],
    /// Sum of every checkpoint's Total-span nanoseconds.
    total_span_ns: u64,
    repair_bytes: u64,
    fenced_active: u64,
    failovers: u64,
}

/// The benchmark's replicated-fleet shape: 3 daemons, 8 async clients
/// of 4 GB / 400-tensor jobs, two mirrored copies, jittered starts and
/// one seeded daemon loss in the middle half of the run.
fn async_fleet(seed: u64) -> FleetConfig {
    let mut rng = portus_sim::SimRng::new(seed).fork(0);
    let mut cfg = FleetConfig::uniform(
        3,
        8,
        JobShape::single(4_000_000_000, 400),
        IterationProfile::from_total(SimDuration::from_millis(350)),
        Policy::PortusAsync { every: 10 },
        100,
    )
    .with_placement(PlacementConfig::mirrored(2));
    cfg.seed = rng.next_u64();
    cfg.start_jitter = SimDuration::from_millis(200);
    let at = SimDuration::from_millis(9_000 + rng.gen_range(18_000));
    cfg.with_kill(rng.gen_range(3) as usize, at)
}

fn pin(m: &CostModel, cfg: &FleetConfig) -> Pinned {
    let out = run_fleet(m, cfg);
    let mut clients = [(0, 0, 0); 8];
    for (slot, c) in clients.iter_mut().zip(&out.clients) {
        *slot = (
            c.checkpoint_stall.as_nanos(),
            c.checkpoints,
            c.failed_checkpoints,
        );
    }
    Pinned {
        makespan_ns: out.makespan.as_nanos(),
        clients,
        total_span_ns: out
            .spans
            .iter()
            .filter(|s| s.op == TraceOp::Checkpoint && s.stage == Stage::Total)
            .map(|s| s.duration().as_nanos())
            .sum(),
        repair_bytes: out.metrics.fleet.iter().map(|d| d.repair_bytes).sum(),
        fenced_active: out.metrics.fleet.iter().map(|d| d.fenced_active).sum(),
        failovers: out.restores.iter().map(|r| r.failovers).sum(),
    }
}

/// Four seeded kills of the replicated async fleet replay to the
/// nanosecond and the byte: stalls, checkpoint counts, latency sums and
/// the daemon-loss counters were captured as constants, so any change
/// to placement, repair or the event core that moves a fleet run shows.
#[test]
fn replicated_async_fleet_with_a_kill_is_pinned() {
    let m = CostModel::icdcs24();
    let expect = [
        Pinned {
            makespan_ns: 56_001_724_689,
            clients: [
                (15_662_686_281, 10, 0),
                (14_372_329_831, 10, 0),
                (14_979_767_612, 10, 0),
                (10_985_370_324, 10, 0),
                (12_359_332_171, 10, 0),
                (11_685_111_550, 10, 0),
                (13_737_912_589, 10, 0),
                (12_995_286_012, 10, 0),
            ],
            total_span_ns: 351_029_075_395,
            repair_bytes: 24_000_000_000,
            fenced_active: 2,
            failovers: 0,
        },
        Pinned {
            makespan_ns: 58_792_835_967,
            clients: [
                (13_771_326_625, 10, 0),
                (18_487_682_380, 10, 0),
                (14_447_025_816, 10, 0),
                (15_124_867_632, 10, 0),
                (16_487_663_078, 10, 0),
                (15_835_511_890, 10, 0),
                (17_175_984_751, 10, 0),
                (17_869_749_043, 10, 0),
            ],
            total_span_ns: 392_257_328_129,
            repair_bytes: 24_000_000_000,
            fenced_active: 1,
            failovers: 0,
        },
        Pinned {
            makespan_ns: 56_596_194_799,
            clients: [
                (15_603_527_394, 10, 0),
                (11_579_125_482, 10, 0),
                (12_251_501_614, 10, 0),
                (14_958_545_374, 10, 0),
                (13_569_441_200, 10, 0),
                (16_293_929_148, 10, 0),
                (14_246_879_127, 10, 0),
                (12_909_153_936, 10, 0),
            ],
            total_span_ns: 363_280_837_322,
            repair_bytes: 28_000_000_000,
            fenced_active: 5,
            failovers: 0,
        },
        Pinned {
            makespan_ns: 55_012_834_771,
            clients: [
                (11_974_531_846, 10, 0),
                (13_313_622_738, 10, 0),
                (12_647_683_056, 10, 0),
                (10_628_942_790, 10, 0),
                (9_970_795_975, 10, 0),
                (13_997_465_573, 10, 0),
                (14_691_284_726, 10, 0),
                (11_314_459_723, 10, 0),
            ],
            total_span_ns: 340_332_808_053,
            repair_bytes: 24_000_000_000,
            fenced_active: 4,
            failovers: 0,
        },
    ];
    for (seed, want) in (1..=4u64).zip(&expect) {
        assert_eq!(&pin(&m, &async_fleet(seed)), want, "seed {seed}");
    }
}
