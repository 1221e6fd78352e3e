//! The discrete-event core, end to end: deterministic replay of a
//! seeded multi-daemon fleet run (identical event orders, span
//! streams, and metrics snapshots), and the max-not-sum regression —
//! overlapping operations on independent resources complete at the
//! *max* of their durations, never the sum a shared additive clock
//! would charge.

use portus_cluster::{run_fleet, FleetConfig, Policy};
use portus_dnn::IterationProfile;
use portus_sim::{CostModel, Engine, Resource, SimDuration, SimTime, Stage, TraceOp};

fn fleet(daemons: usize, clients: usize, seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::uniform(
        daemons,
        clients,
        portus_cluster::JobShape::single(2_000_000_000, 400),
        IterationProfile::from_total(SimDuration::from_millis(350)),
        Policy::PortusAsync { every: 10 },
        60,
    );
    cfg.seed = seed;
    cfg.start_jitter = SimDuration::from_millis(200);
    cfg
}

#[test]
fn seeded_fleet_runs_replay_bit_for_bit() {
    let m = CostModel::icdcs24();
    let cfg = fleet(3, 9, 0xC0FFEE);
    let a = run_fleet(&m, &cfg);
    let b = run_fleet(&m, &cfg);
    // The whole observable surface replays: event order, span stream,
    // aggregated histograms, and per-client results.
    assert_eq!(a.events, b.events, "event order must replay");
    assert_eq!(a.spans, b.spans, "span stream must replay");
    assert_eq!(a.metrics, b.metrics, "metrics snapshot must replay");
    assert_eq!(a.clients, b.clients, "client outcomes must replay");
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.events_run, b.events_run);
    assert!(!a.events.is_empty() && !a.spans.is_empty());

    // A different seed shifts the start jitter and therefore the
    // interleaving.
    let c = run_fleet(&m, &fleet(3, 9, 0xBEEF));
    assert_ne!(a.events, c.events, "seed must matter");
}

#[test]
fn concurrent_equal_ops_on_independent_resources_finish_at_max_not_sum() {
    // N equal-cost operations on N independent resources, all submitted
    // at the same instant, must complete at ~1x the single-op duration.
    let op = SimDuration::from_secs(3);
    for n in [2usize, 4, 8] {
        let mut eng = Engine::new();
        let resources: Vec<Resource> = (0..n).map(|i| Resource::new(&format!("nic-{i}"))).collect();
        let ends: Vec<SimTime> = resources
            .iter()
            .map(|r| r.schedule(SimTime::ZERO, op).end)
            .collect();
        let finish = ends.iter().copied().max().unwrap();
        assert_eq!(
            finish,
            SimTime::ZERO + op,
            "{n} overlapping ops must finish at max (1x), not sum ({n}x)"
        );
        // Drive completion events through the engine: the engine clock
        // lands on the max, not the sum.
        for end in ends {
            eng.schedule_at(end, |_| {});
        }
        eng.run();
        assert_eq!(eng.now(), SimTime::ZERO + op);
        assert_eq!(eng.events_run(), n as u64);
    }

    // The same N ops contending for ONE resource serialize to exactly
    // the sum — contention still costs what it should.
    let r = Resource::new("nic");
    let mut last = SimTime::ZERO;
    for _ in 0..4 {
        last = r.schedule(SimTime::ZERO, op).end;
    }
    assert_eq!(last, SimTime::ZERO + op * 4);
}

#[test]
fn fleet_of_identical_clients_on_private_daemons_matches_solo_makespan() {
    // The same regression at the fleet level: N identical training
    // clients, each with a private daemon, finish in the solo client's
    // makespan (true overlap), while N clients on one daemon take
    // longer (NIC contention) but far less than N x solo (compute still
    // overlaps; only the pulls serialize).
    let m = CostModel::icdcs24();
    let solo = {
        let mut cfg = fleet(1, 1, 7);
        cfg.start_jitter = SimDuration::ZERO;
        run_fleet(&m, &cfg)
    };
    let spread = {
        let mut cfg = fleet(6, 6, 7);
        cfg.start_jitter = SimDuration::ZERO;
        run_fleet(&m, &cfg)
    };
    assert_eq!(
        spread.makespan, solo.makespan,
        "independent clients must overlap perfectly"
    );
    let packed = {
        let mut cfg = fleet(1, 6, 7);
        cfg.start_jitter = SimDuration::ZERO;
        run_fleet(&m, &cfg)
    };
    assert!(
        packed.makespan > spread.makespan,
        "contention must cost time"
    );
    assert!(
        packed.makespan < solo.makespan * 3,
        "serialization is limited to the contended NIC, got {} vs solo {}",
        packed.makespan,
        solo.makespan
    );
    // Queueing shows up in the checkpoint latency distribution.
    let p99 = |r: &portus_cluster::FleetResult| {
        r.metrics
            .stage(TraceOp::Checkpoint, Stage::Total)
            .expect("fleet runs record checkpoint spans")
            .p99()
    };
    assert!(p99(&packed) > p99(&spread));
}
