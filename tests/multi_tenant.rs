//! Multi-tenant concurrency and QoS: several training jobs share one
//! Portus daemon (the workload CheckFreq struggles with, per §VII).
//! Each tenant gets its own connection — and therefore its own daemon
//! worker thread — and they checkpoint/restore concurrently. The QoS
//! tests (DESIGN.md §17) pin token-bucket admission, antagonist
//! isolation, and priority restore under a checkpoint storm.

use std::collections::BTreeSet;
use std::sync::Arc;

use portus::{DaemonConfig, PortusClient, PortusDaemon, PortusError, TenantQos, TokenBucket};
use portus_dnn::{test_spec, Materialization, ModelInstance};
use portus_mem::GpuDevice;
use portus_pmem::{PmemDevice, PmemMode};
use portus_rdma::{Fabric, NodeId, MAX_SGE};
use portus_sim::{SimContext, SimDuration, SimRng, SimTime, Stage};

const TENANTS: usize = 6;
const ROUNDS: usize = 4;

#[test]
fn concurrent_tenants_stay_isolated() {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    fabric.add_nic(NodeId(100));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 512 << 20);
    let daemon = PortusDaemon::start(&fabric, NodeId(100), pmem, DaemonConfig::default()).unwrap();

    std::thread::scope(|s| {
        for t in 0..TENANTS {
            let fabric = fabric.clone();
            let ctx = ctx.clone();
            let daemon = Arc::clone(&daemon);
            s.spawn(move || {
                let nic = fabric.add_nic(NodeId(t as u32));
                let gpu = GpuDevice::new(ctx, t as u32, 1 << 30);
                let spec = test_spec(&format!("tenant{t}"), 4 + t, 128 * 1024);
                let mut model =
                    ModelInstance::materialize(&spec, &gpu, t as u64, Materialization::Owned)
                        .unwrap();
                let client = PortusClient::connect(&daemon, nic);
                client.register_model(&model).unwrap();

                let mut last_state = 0;
                for round in 0..ROUNDS {
                    model.train_step();
                    last_state = model.model_checksum();
                    let r = client.checkpoint(&spec.name).unwrap();
                    assert_eq!(r.version, round as u64 + 1);
                }
                // Diverge and restore: must get this tenant's own state.
                model.train_step();
                let r = client.restore(&model).unwrap();
                assert_eq!(r.version, ROUNDS as u64);
                assert_eq!(model.model_checksum(), last_state, "tenant {t} corrupted");
            });
        }
    });

    let models = daemon.summaries().unwrap();
    assert_eq!(models.len(), TENANTS);
    for m in &models {
        assert_eq!(m.latest_version, Some(ROUNDS as u64));
        assert_eq!(m.valid_versions, 2);
    }
}

#[test]
fn async_checkpoints_from_many_tenants_interleave() {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    fabric.add_nic(NodeId(100));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 256 << 20);
    let daemon = PortusDaemon::start(&fabric, NodeId(100), pmem, DaemonConfig::default()).unwrap();

    std::thread::scope(|s| {
        for t in 0..4usize {
            let fabric = fabric.clone();
            let ctx = ctx.clone();
            let daemon = Arc::clone(&daemon);
            s.spawn(move || {
                let nic = fabric.add_nic(NodeId(t as u32));
                let gpu = GpuDevice::new(ctx, t as u32, 1 << 30);
                let spec = test_spec(&format!("async{t}"), 6, 64 * 1024);
                let mut model =
                    ModelInstance::materialize(&spec, &gpu, t as u64, Materialization::Owned)
                        .unwrap();
                let client = PortusClient::connect(&daemon, nic);
                client.register_model(&model).unwrap();

                for _ in 0..3 {
                    // Issue async, "compute", then guard before updating.
                    client.checkpoint_async(&spec.name).unwrap();
                    std::thread::yield_now();
                    client.guard_update(&spec.name).unwrap();
                    model.train_step();
                }
                assert!(!client.has_inflight(&spec.name));
            });
        }
    });
    assert_eq!(daemon.model_count(), 4);
}

#[test]
fn same_connection_serves_multiple_models() {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let nic = fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 256 << 20);
    let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem, DaemonConfig::default()).unwrap();
    let gpu = GpuDevice::new(ctx, 0, 1 << 30);
    let client = PortusClient::connect(&daemon, nic);

    let mut models = Vec::new();
    for i in 0..3 {
        let spec = test_spec(&format!("m{i}"), 3, 64 * 1024);
        let mut model = ModelInstance::materialize(&spec, &gpu, i, Materialization::Owned).unwrap();
        client.register_model(&model).unwrap();
        model.train_step();
        client.checkpoint(&spec.name).unwrap();
        models.push(model);
    }
    let listed = client.list_models().unwrap();
    assert_eq!(listed.len(), 3);
    // ModelMap iteration is name-ordered.
    let names: Vec<&str> = listed.iter().map(|m| m.name.as_str()).collect();
    assert_eq!(names, vec!["m0", "m1", "m2"]);
    for model in &models {
        let want = model.model_checksum();
        client.restore(model).unwrap();
        assert_eq!(model.model_checksum(), want);
    }
}

/// Tenants share the lanes: every connection stripes over all of its
/// own queue pairs, so two tenants checkpointing at once on a four-QP
/// daemon each ring doorbells on all four lanes.
#[test]
fn concurrent_tenants_each_stripe_over_every_lane() {
    let ctx = SimContext::icdcs24();
    ctx.tracer.enable();
    let fabric = Fabric::new(ctx.clone());
    fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    fabric.add_nic(NodeId(2));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 64 << 20);
    let cfg = DaemonConfig {
        qps_per_connection: 4,
        ..DaemonConfig::default()
    };
    let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem, cfg).unwrap();
    let gpu = GpuDevice::new(ctx.clone(), 0, 1 << 30);
    // 64 adjacent 16 KiB tensors: four full MAX_SGE runs, one per lane.
    let mut tenants: Vec<_> = [("alpha", 0), ("beta", 2)]
        .into_iter()
        .map(|(name, node)| {
            let client = PortusClient::connect_as(&daemon, fabric.nic(NodeId(node)).unwrap(), name);
            let spec = test_spec(name, 4 * MAX_SGE, 16 * 1024);
            let mut model =
                ModelInstance::materialize(&spec, &gpu, node as u64, Materialization::Owned)
                    .unwrap();
            client.register_model(&model).unwrap();
            model.train_step();
            (client, model)
        })
        .collect();
    let pending: Vec<_> = tenants
        .iter()
        .map(|(client, model)| client.checkpoint_async(&model.spec().name).unwrap())
        .collect();
    for ((client, model), p) in tenants.iter().zip(pending) {
        client.wait_checkpoint(&model.spec().name, p).unwrap();
    }

    let spans = ctx.tracer.spans();
    for (client, model) in &mut tenants {
        let name = model.spec().name.clone();
        let lanes: BTreeSet<u32> = spans
            .iter()
            .filter(|s| s.stage == Stage::DoorbellPost && s.model == name)
            .map(|s| s.lane)
            .collect();
        assert_eq!(lanes, BTreeSet::from([0, 1, 2, 3]), "{name} lanes");
        let want = model.model_checksum();
        model.train_step();
        client.restore(model).unwrap();
        assert_eq!(model.model_checksum(), want, "{name} restores bit-for-bit");
    }
}

const MIB: u64 = 1 << 20;

/// Token buckets are a pure function of the `(amount, instant)`
/// sequence: two buckets replaying the same pseudo-random request
/// stream make bit-identical admit/shed decisions, and the admitted
/// total never exceeds budget + burst + one debt overshoot.
#[test]
fn token_bucket_decisions_replay_bit_for_bit() {
    let rate = 64 * MIB;
    let burst = 16 * MIB;
    let mut a = TokenBucket::new(rate, burst);
    let mut b = TokenBucket::new(rate, burst);
    let mut rng = SimRng::new(0x2545F4914F6CDD1D);
    let mut now = SimTime::ZERO;
    let mut admitted = 0u64;
    let mut max_amount = 0u64;
    let mut decisions = Vec::new();
    for _ in 0..10_000 {
        now += SimDuration::from_nanos(rng.gen_range(2_000_000));
        let amount = rng.gen_range(8 * MIB);
        let da = a.try_take(amount, now);
        let db = b.try_take(amount, now);
        assert_eq!(da, db, "identical streams must decide identically");
        if da.is_ok() {
            admitted += amount;
            max_amount = max_amount.max(amount);
        }
        decisions.push(da.is_ok());
    }
    let elapsed = now.saturating_since(SimTime::ZERO).as_secs_f64();
    let budget = (elapsed * rate as f64) as u64 + burst + max_amount;
    assert!(
        admitted <= budget,
        "admitted {admitted} bytes exceeds budget {budget}"
    );
    // The stream must actually exercise both outcomes.
    assert!(decisions.iter().any(|&d| d), "no request was ever admitted");
    assert!(decisions.iter().any(|&d| !d), "no request was ever shed");
}

/// One daemon and tenant "capped" with a registered model "admit" of
/// eight 256 KiB tensors. With `burst`, the tenant's byte bucket holds
/// `burst` bytes and refills at 1 byte per virtual second (nothing, on
/// this time scale); without, the tenant is unlimited.
fn admission_world(burst: Option<u64>) -> (Arc<PortusDaemon>, PortusClient, ModelInstance) {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let nic = fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 64 << 20);
    let mut cfg = DaemonConfig::default();
    if let Some(burst) = burst {
        cfg.qos.tenants.insert(
            "capped".to_string(),
            TenantQos {
                bytes_per_sec: 1,
                burst_bytes: burst,
            },
        );
    }
    let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem, cfg).unwrap();
    let gpu = GpuDevice::new(ctx, 0, 1 << 30);
    let spec = test_spec("admit", 8, 256 * 1024);
    let model = ModelInstance::materialize(&spec, &gpu, 1, Materialization::Owned).unwrap();
    let client = PortusClient::connect_as(&daemon, nic, "capped");
    client.register_model(&model).unwrap();
    (daemon, client, model)
}

/// The bytes admission has charged tenant "capped" so far.
fn admitted(client: &PortusClient) -> u64 {
    client
        .stats()
        .unwrap()
        .tenant("capped")
        .map_or(0, |t| t.admitted_bytes)
}

/// Sends the same checkpoint request twice as tenant "capped" of an
/// [`admission_world`] with a `burst`-byte bucket. Admission is
/// debt-based, so the first request always passes; the second passes
/// only if the first was charged less than `burst`. Returns the second
/// outcome and the tenant's admitted bytes.
fn admit_twice(
    burst: u64,
    send: impl Fn(&PortusClient) -> Result<u64, PortusError>,
) -> (Result<u64, PortusError>, u64) {
    let (daemon, client, _model) = admission_world(Some(burst));
    send(&client).expect("the first request is always admitted");
    let second = send(&client);
    let admitted = admitted(&client);
    drop(client);
    daemon.shutdown();
    (second, admitted)
}

/// Admission charges each checkpoint what it pulls: a full checkpoint
/// the whole session, a delta every tensor its target slot lacks. A
/// delta with no previous version lacks everything, so with a burst
/// below the session it overdraws the bucket exactly like a full
/// checkpoint. A steady delta is charged only its own and the previous
/// delta's dirty tensors.
#[test]
fn admission_charges_a_delta_what_it_pulls_and_a_full_checkpoint_the_session() {
    let tensor = 256 * 1024;
    let session = 8 * tensor;
    let burst = 4 * tensor;
    let mut mask = vec![false; 8];
    mask[5] = true;

    let (second, admitted_bytes) = admit_twice(burst, |c| {
        c.checkpoint_delta("admit", &mask).map(|r| r.pulled_bytes)
    });
    assert!(
        matches!(second, Err(PortusError::Throttled { .. })),
        "a first delta pulls the session and overdraws the burst: {second:?}"
    );
    assert_eq!(admitted_bytes, session);

    let (second, admitted_bytes) = admit_twice(burst, |c| c.checkpoint("admit").map(|r| r.bytes));
    assert!(
        matches!(second, Err(PortusError::Throttled { .. })),
        "a full checkpoint overdraws the burst: {second:?}"
    );
    assert_eq!(admitted_bytes, session);

    // Unlimited, so every request is admitted: each is charged exactly
    // what it pulled.
    let (daemon, client, mut model) = admission_world(None);
    let full = client.checkpoint("admit").unwrap();
    assert_eq!(admitted(&client), full.bytes);
    model.take_dirty();
    let mut charged = Vec::new();
    for touched in [vec![5], vec![5], vec![5, 6], vec![0]] {
        model.train_step_sparse(&touched);
        let dirty = model.take_dirty();
        let before = admitted(&client);
        let r = client.checkpoint_delta("admit", &dirty).unwrap();
        assert_eq!(admitted(&client) - before, r.pulled_bytes, "{touched:?}");
        charged.push(r.pulled_bytes);
    }
    // Everything, then {5}, then {5, 6}, then {0} and the previous 5, 6.
    assert_eq!(charged, [session, tensor, 2 * tensor, 3 * tensor]);
    drop(client);
    daemon.shutdown();
}

/// The antagonist-vs-polite harness: `rounds` polite checkpoints, each
/// followed by one antagonist attempt when `antagonist` is true.
/// Returns (polite checkpoint seconds, antagonist admitted bytes,
/// antagonist throttles, whole-run elapsed).
fn antagonist_run(rounds: u64, antagonist: bool, cap: Option<u64>) -> (f64, u64, u64, f64) {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let polite_nic = fabric.add_nic(NodeId(0));
    let antag_nic = fabric.add_nic(NodeId(2));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 1 << 30);
    let mut cfg = DaemonConfig::default();
    if let Some(bps) = cap {
        cfg.qos
            .tenants
            .insert("antagonist".to_string(), TenantQos::limited_bytes(bps));
    }
    let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem, cfg).unwrap();
    let gpu = GpuDevice::new(ctx.clone(), 0, 1 << 30);

    let polite_spec = test_spec("polite", 16, MIB);
    let polite_model =
        ModelInstance::materialize(&polite_spec, &gpu, 1, Materialization::Owned).unwrap();
    let polite = PortusClient::connect_as(&daemon, polite_nic, "polite");
    polite.register_model(&polite_model).unwrap();

    let antag_client = antagonist.then(|| {
        let spec = test_spec("antagonist", 16, 512 * 1024);
        let model = ModelInstance::materialize(&spec, &gpu, 2, Materialization::Owned).unwrap();
        let c = PortusClient::connect_as(&daemon, antag_nic, "antagonist");
        c.register_model(&model).unwrap();
        c
    });

    let t0 = ctx.clock.now();
    let mut polite_time = SimDuration::ZERO;
    let mut throttled = 0u64;
    for _ in 0..rounds {
        let s = ctx.clock.now();
        polite.checkpoint("polite").unwrap();
        polite_time += ctx.clock.now().saturating_since(s);
        if let Some(antag) = &antag_client {
            match antag.checkpoint("antagonist") {
                Ok(_) => {}
                Err(PortusError::Throttled { .. }) => throttled += 1,
                Err(e) => panic!("unexpected antagonist error: {e}"),
            }
        }
    }
    let elapsed = ctx.clock.now().saturating_since(t0);
    let bytes = polite
        .stats()
        .unwrap()
        .tenant("antagonist")
        .map_or(0, |t| t.admitted_bytes);
    drop(polite);
    drop(antag_client);
    daemon.shutdown();
    (
        polite_time.as_secs_f64(),
        bytes,
        throttled,
        elapsed.as_secs_f64(),
    )
}

/// An antagonist hammering a shared daemon is pinned near its byte
/// bucket while the polite tenant's own checkpoint latency stays
/// within 10% of its solo run.
#[test]
fn token_buckets_isolate_the_polite_tenant_from_an_antagonist() {
    let rounds = 60;
    let cap = 16 * MIB;
    let (solo_polite, _, _, _) = antagonist_run(rounds, false, None);
    let (capped_polite, capped_bytes, throttled, elapsed) = antagonist_run(rounds, true, Some(cap));
    let (_, uncapped_bytes, _, _) = antagonist_run(rounds, true, None);

    assert!(
        capped_polite <= solo_polite * 1.10,
        "polite tenant slowed beyond 10% of solo: {capped_polite:.3}s vs {solo_polite:.3}s"
    );
    assert!(throttled > 0, "the antagonist must actually be shed");
    // Debt-based budget: rate x horizon, plus the default burst (one
    // second of rate) and one 8 MiB op of debt overshoot.
    let budget = (elapsed * cap as f64) as u64 + cap + 8 * MIB;
    assert!(
        capped_bytes <= budget,
        "antagonist admitted {capped_bytes} bytes over a budget of {budget}"
    );
    assert!(
        uncapped_bytes >= 3 * capped_bytes,
        "removing the cap must unleash the antagonist \
         (capped {capped_bytes}, uncapped {uncapped_bytes})"
    );
}

/// Restore latency under a checkpoint storm, client-side on the
/// virtual clock. One dispatch worker, 12 checkpoints queued per
/// round, then one restore. Returns the worst observed restore.
fn storm_restore_worst_ns(priority: bool, rounds: u64) -> u64 {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let storm_nic = fabric.add_nic(NodeId(0));
    let recover_nic = fabric.add_nic(NodeId(2));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 1 << 30);
    let cfg = DaemonConfig {
        dispatch_workers: 1,
        priority_restore: priority,
        ..DaemonConfig::default()
    };
    let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem, cfg).unwrap();
    let gpu = GpuDevice::new(ctx.clone(), 0, 1 << 30);

    // Thousands of tiny tensors keep the single worker busy in host
    // time while the storm enqueues, so the restore races a loaded
    // queue rather than an already-drained one.
    let storm = PortusClient::connect_as(&daemon, storm_nic, "storm");
    let mut names = Vec::new();
    for i in 0..12 {
        let spec = test_spec(&format!("storm-{i}"), 4096, 4096);
        let model =
            ModelInstance::materialize(&spec, &gpu, 10 + i, Materialization::Owned).unwrap();
        storm.register_model(&model).unwrap();
        names.push(spec.name.clone());
    }

    let recover = PortusClient::connect_as(&daemon, recover_nic, "recover");
    let victim_spec = test_spec("victim", 64, 256 * 1024);
    let victim =
        ModelInstance::materialize(&victim_spec, &gpu, 42, Materialization::Owned).unwrap();
    recover.register_model(&victim).unwrap();
    recover.checkpoint("victim").unwrap();
    let dest = ModelInstance::materialize(&victim_spec, &gpu, 43, Materialization::Owned).unwrap();

    let mut worst = 0u64;
    let gate = names.len() as u64 - 2;
    for _ in 0..rounds {
        let pendings: Vec<_> = names
            .iter()
            .map(|n| (n.clone(), storm.checkpoint_async(n).unwrap()))
            .collect();
        // Gate on the dispatch-queue gauge before measuring: Stats
        // rides the urgent class, so the poll answers even while the
        // normal queue is saturated. Without the gate, a preempted
        // storm serve thread lets the restore race into an *empty*
        // queue and both configurations measure the same latency.
        while recover.stats().unwrap().dispatch_queue_depth < gate {
            std::thread::yield_now();
        }
        let s = ctx.clock.now();
        recover.restore(&dest).unwrap();
        worst = worst.max(ctx.clock.now().saturating_since(s).as_nanos());
        for (n, p) in pendings {
            storm.wait_checkpoint(&n, p).unwrap();
        }
    }
    drop(storm);
    drop(recover);
    daemon.shutdown();
    worst
}

/// Priority restore lanes cut the worst mid-storm restore latency by
/// at least 2x against the same storm with the lanes disabled.
#[test]
fn priority_lanes_keep_restores_fast_under_a_checkpoint_storm() {
    let on = storm_restore_worst_ns(true, 2);
    let off = storm_restore_worst_ns(false, 2);
    assert!(
        off >= 2 * on,
        "priority restore must at least halve the worst mid-storm restore \
         (on {on}ns, off {off}ns)"
    );
}
