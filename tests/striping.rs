//! The one datapath: QP striping across NIC DMA-engine lanes, the
//! pipelined persist+digest seal with its incremental positional
//! digest at every `qps_per_connection`, restore-side verification of
//! that digest, and a golden trace pinning the one-QP case.

use portus::{DaemonConfig, PortusClient, PortusDaemon, PortusError, PULL_WQE_BYTES};
use portus_dnn::{test_spec, Materialization, ModelInstance};
use portus_mem::GpuDevice;
use portus_pmem::{PmemDevice, PmemMode};
use portus_rdma::{Fabric, NodeId, MAX_SGE};
use portus_sim::{CostModel, SimContext, Stage};

const DAEMON_NODE: NodeId = NodeId(1);

struct World {
    ctx: SimContext,
    daemon: std::sync::Arc<PortusDaemon>,
    client: PortusClient,
}

/// One daemon + one client, both NICs with `engines` DMA engines, and
/// a registered model of `layers` adjacent tensors of `layer_bytes`,
/// already one train step in.
fn world(
    name: &str,
    layers: usize,
    layer_bytes: u64,
    engines: usize,
    cfg: DaemonConfig,
) -> (World, ModelInstance) {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic_with_engines(NodeId(0), engines);
    fabric.add_nic_with_engines(DAEMON_NODE, engines);
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 256 << 20);
    let daemon = PortusDaemon::start(&fabric, DAEMON_NODE, pmem, cfg).unwrap();
    let gpu = GpuDevice::new(ctx.clone(), 0, 2 << 30);
    let spec = test_spec(name, layers, layer_bytes);
    let mut model = ModelInstance::materialize(&spec, &gpu, 7, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&daemon, compute);
    client.register_model(&model).unwrap();
    model.train_step();
    (
        World {
            ctx,
            daemon,
            client,
        },
        model,
    )
}

fn striped_cfg(qps: usize) -> DaemonConfig {
    DaemonConfig {
        qps_per_connection: qps,
        ..DaemonConfig::default()
    }
}

/// A fixed one-QP scenario (full checkpoint, delta checkpoint,
/// restore) with the default `qps_per_connection = 1` must serialize
/// to the committed Chrome trace — same spans, same virtual
/// timestamps, byte for byte — so any change to the datapath's timing
/// shows up as a reviewed diff of the golden file.
#[test]
fn single_qp_replays_the_golden_trace_bit_for_bit() {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 256 << 20);
    let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem, DaemonConfig::default()).unwrap();
    let gpu = GpuDevice::new(ctx.clone(), 0, 2 << 30);
    ctx.tracer.enable();
    let client = PortusClient::connect(&daemon, fabric.nic(NodeId(0)).unwrap());
    let spec = test_spec("golden", 4, 128 * 1024);
    let mut model = ModelInstance::materialize(&spec, &gpu, 17, Materialization::Owned).unwrap();
    client.register_model(&model).unwrap();
    model.train_step();
    client.checkpoint("golden").unwrap();
    model.train_step();
    client
        .checkpoint_delta("golden", &[true, false, true, false])
        .unwrap();
    model.train_step();
    client.restore(&model).unwrap();

    let golden = include_str!("golden/single_qp_trace.json");
    assert_eq!(
        ctx.tracer.to_chrome_trace(),
        golden,
        "the one-QP datapath must replay the golden trace bit-for-bit"
    );
    drop(client);
    daemon.shutdown();
}

/// One 4-QP checkpoint against one 1-QP checkpoint of the same model:
/// the striped datapath must finish strictly sooner in virtual time,
/// its seal must overlap fabric completions (non-zero pipeline gauge),
/// and the trace must show per-lane doorbells, one shared persist per
/// wave of lane completions, and persist running while later
/// completions are still draining.
#[test]
fn striped_checkpoint_overlaps_seal_with_the_fabric() {
    // 128 adjacent 128 KiB tensors = 16 MiB in 8 gather WQEs
    // (MAX_SGE = 16 tensors each): two waves per lane on 4 lanes.
    let layers = 8 * MAX_SGE;
    let (base_w, _m) = world("pipe", layers, 128 * 1024, 1, DaemonConfig::default());
    let one_qp = base_w.client.checkpoint("pipe").unwrap();

    let (w, _model) = world("pipe", layers, 128 * 1024, 4, striped_cfg(4));
    w.ctx.tracer.enable();
    let striped = w.client.checkpoint("pipe").unwrap();

    assert_eq!(striped.bytes, one_qp.bytes);
    assert!(
        striped.elapsed < one_qp.elapsed,
        "striping must beat the one-QP datapath: {:?} !< {:?}",
        striped.elapsed,
        one_qp.elapsed
    );

    // The persist+checksum stage ran while later WQEs were in flight.
    let overlap = w.ctx.metrics.snapshot().pipeline_overlap_permille;
    assert!(overlap > 0, "pipelined seal never overlapped the fabric");

    let spans = w.ctx.tracer.spans();
    let lanes: std::collections::BTreeSet<u32> = spans
        .iter()
        .filter(|s| matches!(s.stage, Stage::DoorbellPost | Stage::CqDrain))
        .map(|s| s.lane)
        .collect();
    assert!(
        lanes.len() >= 2,
        "expected multi-lane drains, got {lanes:?}"
    );
    let persists: Vec<_> = spans.iter().filter(|s| s.stage == Stage::Persist).collect();
    let checksums = spans.iter().filter(|s| s.stage == Stage::Checksum).count();
    assert_eq!(
        persists.len(),
        2,
        "the runs of one wave land together and share one flush+fence"
    );
    assert_eq!(checksums, 2, "one read-back span per persist batch");
    let last_drain_end = spans
        .iter()
        .filter(|s| s.stage == Stage::CqDrain)
        .map(|s| s.end)
        .max()
        .unwrap();
    assert!(
        persists.iter().any(|p| p.start < last_drain_end),
        "no persist span started before the last CQ drain ended"
    );

    drop(base_w.client);
    base_w.daemon.shutdown();
    drop(w.client);
    w.daemon.shutdown();
}

/// The headline number: two concurrent large-model checkpoints on a
/// 4-QP / 4-engine fabric finish in less than half the virtual time the
/// one-QP datapath needs for the same two checkpoints back to back.
#[test]
fn concurrent_striped_checkpoints_double_throughput() {
    let layers = 8 * MAX_SGE;
    let bytes = 128 * 1024;

    // Baseline: the one-QP datapath, the two checkpoints back to back.
    let base = {
        let ctx = SimContext::icdcs24();
        let fabric = Fabric::new(ctx.clone());
        let nic_a = fabric.add_nic(NodeId(0));
        let nic_b = fabric.add_nic(NodeId(2));
        fabric.add_nic(DAEMON_NODE);
        let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 256 << 20);
        let daemon =
            PortusDaemon::start(&fabric, DAEMON_NODE, pmem, DaemonConfig::default()).unwrap();
        let gpu = GpuDevice::new(ctx.clone(), 0, 2 << 30);
        let mut ma = ModelInstance::materialize(
            &test_spec("a", layers, bytes),
            &gpu,
            7,
            Materialization::Owned,
        )
        .unwrap();
        let mut mb = ModelInstance::materialize(
            &test_spec("b", layers, bytes),
            &gpu,
            9,
            Materialization::Owned,
        )
        .unwrap();
        let ca = PortusClient::connect(&daemon, nic_a);
        let cb = PortusClient::connect(&daemon, nic_b);
        ca.register_model(&ma).unwrap();
        cb.register_model(&mb).unwrap();
        ma.train_step();
        mb.train_step();
        let t0 = ctx.clock.now();
        ca.checkpoint("a").unwrap();
        cb.checkpoint("b").unwrap();
        let elapsed = ctx.clock.now().saturating_since(t0);
        drop(ca);
        drop(cb);
        daemon.shutdown();
        elapsed
    };

    // Striped: same two checkpoints, in flight together.
    let striped = {
        let ctx = SimContext::icdcs24();
        let fabric = Fabric::new(ctx.clone());
        let nic_a = fabric.add_nic_with_engines(NodeId(0), 4);
        let nic_b = fabric.add_nic_with_engines(NodeId(2), 4);
        fabric.add_nic_with_engines(DAEMON_NODE, 4);
        let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 256 << 20);
        let daemon = PortusDaemon::start(&fabric, DAEMON_NODE, pmem, striped_cfg(4)).unwrap();
        let gpu = GpuDevice::new(ctx.clone(), 0, 2 << 30);
        let mut ma = ModelInstance::materialize(
            &test_spec("a", layers, bytes),
            &gpu,
            7,
            Materialization::Owned,
        )
        .unwrap();
        let mut mb = ModelInstance::materialize(
            &test_spec("b", layers, bytes),
            &gpu,
            9,
            Materialization::Owned,
        )
        .unwrap();
        let ca = PortusClient::connect(&daemon, nic_a);
        let cb = PortusClient::connect(&daemon, nic_b);
        ca.register_model(&ma).unwrap();
        cb.register_model(&mb).unwrap();
        ma.train_step();
        mb.train_step();
        let t0 = ctx.clock.now();
        let pa = ca.checkpoint_async("a").unwrap();
        let pb = cb.checkpoint_async("b").unwrap();
        ca.wait_checkpoint("a", pa).unwrap();
        cb.wait_checkpoint("b", pb).unwrap();
        let elapsed = ctx.clock.now().saturating_since(t0);
        drop(ca);
        drop(cb);
        daemon.shutdown();
        elapsed
    };

    assert!(
        striped.as_nanos() * 2 <= base.as_nanos(),
        "expected >= 2x virtual-time speedup: striped {striped:?} vs baseline {base:?}"
    );
}

/// Restore validates digest-sealed checkpoints from both write paths:
/// a full checkpoint (every run digested as it drains) and a delta
/// checkpoint (fabric pulls plus device-local carries, each
/// contributing its own partial digest) both round-trip the model
/// bytes exactly.
#[test]
fn restore_verifies_full_and_delta_digests() {
    let (w, mut model) = world("digest", 32, 64 * 1024, 4, striped_cfg(4));
    let saved = model.model_checksum();
    w.client.checkpoint("digest").unwrap();
    let index = w.daemon.index();
    let (_, off) = index.live_entries().unwrap()[0];
    let mi = index.load_mindex(off).unwrap();
    let (slot, hdr) = mi.latest_done().unwrap();
    assert_ne!(hdr.digest, 0);
    assert_eq!(index.slot_digest(&mi, slot).unwrap(), hdr.digest);
    model.train_step(); // diverge
    let r = w.client.restore(&model).unwrap();
    assert_eq!(r.version, 1);
    assert_eq!(model.model_checksum(), saved);

    let _ = model.take_dirty(); // v1 covered everything up to here
    let evens: Vec<usize> = (0..32).step_by(2).collect();
    model.train_step_sparse(&evens);
    let saved2 = model.model_checksum();
    let dirty = model.take_dirty();
    w.client.checkpoint_delta("digest", &dirty).unwrap();
    model.train_step();
    let r = w.client.restore(&model).unwrap();
    assert_eq!(r.version, 2);
    assert_eq!(model.model_checksum(), saved2);
    drop(w.client);
    w.daemon.shutdown();
}

/// Striping is config-only: a 4-QP connection over single-engine NICs
/// still produces correct checkpoints (the lanes all queue on the one
/// engine), and a 1-QP connection over many-engine NICs seals with the
/// same positional digest as every other pool size.
#[test]
fn striping_degrades_gracefully_with_mismatched_engines() {
    let (w, mut model) = world("mismatch", 8, 4096, 1, striped_cfg(4));
    let saved = model.model_checksum();
    w.client.checkpoint("mismatch").unwrap();
    model.train_step();
    let r = w.client.restore(&model).unwrap();
    assert_eq!(r.version, 1);
    assert_eq!(model.model_checksum(), saved);
    drop(w.client);
    w.daemon.shutdown();

    let (w2, model2) = world("one-qp", 8, 4096, 4, DaemonConfig::default());
    w2.client.checkpoint("one-qp").unwrap();
    let index = w2.daemon.index();
    let (_, off) = index.live_entries().unwrap()[0];
    let mi = index.load_mindex(off).unwrap();
    let (slot, hdr) = mi.latest_done().unwrap();
    assert_ne!(hdr.digest, 0, "a one-QP slot must be digest-sealed");
    assert_eq!(index.slot_digest(&mi, slot).unwrap(), hdr.digest);
    drop(model2);
    drop(w2.client);
    w2.daemon.shutdown();
}

/// Flips one byte of the latest sealed slot's data region on PMem.
fn corrupt_latest_slot(daemon: &PortusDaemon) {
    let index = daemon.index();
    let (_, off) = index.live_entries().unwrap()[0];
    let (_, hdr) = index.load_mindex(off).unwrap().latest_done().unwrap();
    let at = hdr.data_off + hdr.data_len / 2;
    let mut byte = [0u8; 1];
    index.device().read(at, &mut byte).unwrap();
    byte[0] ^= 0x01;
    index.device().write(at, &byte).unwrap();
}

/// A single flipped byte in a sealed slot fails the restore with the
/// typed `ChecksumMismatch`, on one QP and on four, whether the slot
/// was sealed by a full checkpoint or by a delta checkpoint.
#[test]
fn corrupted_slot_fails_restore_with_a_typed_checksum_mismatch() {
    for qps in [1, 4] {
        for delta in [false, true] {
            let (w, mut model) = world("corrupt", 8, 16 * 1024, qps, striped_cfg(qps));
            w.client.checkpoint("corrupt").unwrap();
            let version = if delta {
                let _ = model.take_dirty();
                model.train_step_sparse(&[1, 4]);
                let dirty = model.take_dirty();
                w.client
                    .checkpoint_delta("corrupt", &dirty)
                    .unwrap()
                    .version
            } else {
                1
            };
            corrupt_latest_slot(&w.daemon);
            match w.client.restore(&model) {
                Err(PortusError::ChecksumMismatch {
                    model: m,
                    version: v,
                }) => {
                    assert_eq!(m, "corrupt");
                    assert_eq!(v, version, "qps {qps}, delta {delta}");
                }
                other => {
                    panic!("qps {qps}, delta {delta}: expected ChecksumMismatch, got {other:?}")
                }
            }
            drop(w.client);
            w.daemon.shutdown();
        }
    }
}

/// The one-QP datapath pipelines its seal too: with two or more WQE
/// runs, persist+digest work for the first runs overlaps the later
/// runs' transfers, so the pipeline gauge reads non-zero.
#[test]
fn one_qp_checkpoint_overlaps_its_seal_with_the_fabric() {
    // 4 * MAX_SGE adjacent tensors coalesce into 4 gather WQEs.
    let (w, _model) = world(
        "one-qp-pipe",
        4 * MAX_SGE,
        64 * 1024,
        1,
        DaemonConfig::default(),
    );
    w.client.checkpoint("one-qp-pipe").unwrap();
    let overlap = w.ctx.metrics.snapshot().pipeline_overlap_permille;
    assert!(overlap > 0, "one-QP seal never overlapped the fabric");
    drop(w.client);
    w.daemon.shutdown();
}

/// The chunked pull's tail bound for one model at one QP. Pull WQEs
/// are capped at [`PULL_WQE_BYTES`] and on one QP each chunk's seal
/// finishes before the next chunk's pull does, so the checkpoint must
/// end within one chunk's seal service — a full flush pass plus a
/// chunk's DAX read-back — of its last fabric completion (fabric window:
/// first doorbell to last CQ-drain end).
fn assert_checkpoint_ends_within_one_chunk_seal(spec: &portus_dnn::ModelSpec) {
    let model = CostModel::icdcs24();
    let chunk_seal = model.persist_lines(1024) + model.dax_read(PULL_WQE_BYTES);
    let ctx = SimContext::icdcs24();
    ctx.tracer.enable();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    fabric.add_nic(DAEMON_NODE);
    let bytes = spec.total_bytes();
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 2 * bytes + (64 << 20));
    let daemon = PortusDaemon::start(&fabric, DAEMON_NODE, pmem, DaemonConfig::default()).unwrap();
    let gpu = GpuDevice::new(ctx.clone(), 0, bytes + (1 << 30));
    let m = ModelInstance::materialize(spec, &gpu, 42, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&daemon, compute);
    client.register_model(&m).unwrap();
    let elapsed = client.checkpoint(&spec.name).unwrap().elapsed;
    let spans = ctx.tracer.spans();
    let fabric_spans = spans
        .iter()
        .filter(|s| matches!(s.stage, Stage::DoorbellPost | Stage::CqDrain));
    let first = fabric_spans.clone().map(|s| s.start).min().unwrap();
    let last = fabric_spans.map(|s| s.end).max().unwrap();
    let window = last.saturating_since(first);
    assert!(
        elapsed <= window + chunk_seal,
        "{}: checkpoint {elapsed:?} > fabric window {window:?} + one chunk's seal {chunk_seal:?}",
        spec.name
    );
    drop(client);
    daemon.shutdown();
}

/// AlexNet's 16 tensors once rode a single uncapped WQE, which put its
/// whole 20 ms digest after the pull; this keeps it from coming back.
#[test]
fn alexnet_checkpoint_ends_within_one_chunk_seal_of_the_fabric() {
    assert_checkpoint_ends_within_one_chunk_seal(&portus_dnn::zoo::alexnet());
}

/// The same bound for every Table II model. It moves 4.2 GB through the
/// datapath (peak ~1.3 GB for BERT-Large), so it is opt-in; CI runs it
/// in release: `cargo test --release --test striping -- --ignored`.
#[test]
#[ignore = "moves 4.2 GB; run in release with --ignored"]
fn every_table2_checkpoint_ends_within_one_chunk_seal_of_the_fabric() {
    for card in portus_dnn::zoo::table2_cards() {
        assert_checkpoint_ends_within_one_chunk_seal(&card.spec);
    }
}
