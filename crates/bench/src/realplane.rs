//! Real-data-plane experiment runners.
//!
//! These drive the actual system: a model's bytes live in simulated GPU
//! memory, Portus pulls them over the simulated fabric into simulated
//! PMem, and the baselines run their full copy/serialize/write
//! pipelines. Virtual time is read off the shared clock; the bytes are
//! verified end to end by the integration tests.

use portus::{DaemonConfig, PortusClient, PortusDaemon};
use portus_dnn::{Materialization, ModelInstance, ModelSpec};
use portus_mem::{GpuDevice, HostMemory};
use portus_pmem::{PmemDevice, PmemMode};
use portus_rdma::{Fabric, NodeId};
use portus_sim::{SimContext, SimDuration, Stage, TraceOp};
use portus_storage::{
    Beegfs, CheckpointBreakdown, Ext4Nvme, FileBackend, RestoreBreakdown, TorchCheckpointer,
};
use serde::Serialize;

/// Measured checkpoint+restore times of one model on all three systems
/// (the per-model bars of Figs. 11 and 12).
#[derive(Debug, Clone, Serialize)]
pub struct SystemComparison {
    /// Model name.
    pub model: String,
    /// Checkpoint payload bytes.
    pub bytes: u64,
    /// Portus checkpoint (one-sided pull + persist), virtual seconds.
    pub portus_ckpt: f64,
    /// BeeGFS-PMem `torch.save`, virtual seconds.
    pub beegfs_ckpt: f64,
    /// ext4-NVMe `torch.save`, virtual seconds.
    pub ext4_ckpt: f64,
    /// Portus restore (one-sided push), virtual seconds.
    pub portus_restore: f64,
    /// BeeGFS-PMem `torch.load` with GDS, virtual seconds.
    pub beegfs_restore: f64,
    /// ext4-NVMe `torch.load` with GDS, virtual seconds.
    pub ext4_restore: f64,
}

impl SystemComparison {
    /// Checkpoint speedup of Portus over BeeGFS-PMem.
    pub fn ckpt_speedup_beegfs(&self) -> f64 {
        self.beegfs_ckpt / self.portus_ckpt
    }

    /// Checkpoint speedup of Portus over ext4-NVMe.
    pub fn ckpt_speedup_ext4(&self) -> f64 {
        self.ext4_ckpt / self.portus_ckpt
    }

    /// Restore speedup of Portus over BeeGFS-PMem.
    pub fn restore_speedup_beegfs(&self) -> f64 {
        self.beegfs_restore / self.portus_restore
    }

    /// Restore speedup of Portus over ext4-NVMe.
    pub fn restore_speedup_ext4(&self) -> f64 {
        self.ext4_restore / self.portus_restore
    }
}

/// Runs one model through Portus with real bytes; returns
/// (checkpoint, restore) virtual durations.
///
/// # Panics
///
/// Panics on any system error — harness code wants loud failures.
pub fn portus_times(spec: &ModelSpec) -> (SimDuration, SimDuration) {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(
        ctx.clone(),
        PmemMode::DevDax,
        2 * spec.total_bytes() + (64 << 20),
    );
    let daemon =
        PortusDaemon::start(&fabric, NodeId(1), pmem, DaemonConfig::default()).expect("daemon");
    let gpu = GpuDevice::new(ctx.clone(), 0, 2 * spec.total_bytes() + (1 << 30));
    let model =
        ModelInstance::materialize(spec, &gpu, 42, Materialization::Owned).expect("materialize");
    let client = PortusClient::connect(&daemon, compute);
    client.register_model(&model).expect("register");

    // Measure as clock deltas: the checkpoint covers DO_CHECKPOINT,
    // the pulls and the completion notification; the restore includes
    // the client-side re-registration of every tensor for remote write
    // (the paper's restore protocol, §III-F).
    let t0 = ctx.clock.now();
    client.checkpoint(&spec.name).expect("checkpoint");
    let t1 = ctx.clock.now();
    client.restore(&model).expect("restore");
    let t2 = ctx.clock.now();
    (t1.saturating_since(t0), t2.saturating_since(t1))
}

/// Measured phases of one Portus checkpoint on the posted-verb
/// datapath (the Portus row of Fig. 13), plus the doorbell/coalescing
/// counters that explain where the time went.
#[derive(Debug, Clone, Serialize)]
pub struct PortusBreakdown {
    /// Model name.
    pub model: String,
    /// Checkpoint payload bytes.
    pub bytes: u64,
    /// End-to-end checkpoint time (clock delta), virtual seconds.
    pub total: f64,
    /// One-sided RDMA pull phase (first doorbell to last completion),
    /// virtual seconds.
    pub pull: f64,
    /// Persist service time (cache-line flushes + fences), virtual
    /// seconds. The seal pipelines behind the pull, so this overlaps
    /// `pull` rather than adding to it.
    pub persist: f64,
    /// Digest service time (PMem read-back), virtual seconds; overlaps
    /// `pull` like `persist`.
    pub checksum: f64,
    /// Gather WQEs posted to the daemon's queue pair.
    pub posted_verbs: u64,
    /// Doorbells rung (verb batches issued).
    pub doorbell_batches: u64,
    /// WQEs that coalesced more than one tensor.
    pub coalesced_verbs: u64,
    /// Bytes moved by multi-tensor (coalesced) WQEs.
    pub coalesced_bytes: u64,
}

/// Runs one checkpoint through Portus with real bytes and splits the
/// time into datapath phases using the daemon's spans and stage
/// histograms.
///
/// # Panics
///
/// Panics on any system error — harness code wants loud failures.
pub fn portus_breakdown(spec: &ModelSpec) -> PortusBreakdown {
    portus_breakdown_traced(spec).0
}

/// As [`portus_breakdown`], but with span recording enabled: the
/// persist/checksum phase times are derived from the recorded spans
/// (cross-checked against the persist/checksum stage histograms of
/// [`portus_sim::Metrics`] — the two accountings must agree exactly on
/// a deterministic run), and
/// the whole request comes back as Chrome trace-event JSON, renderable
/// in `chrome://tracing`/Perfetto.
///
/// # Panics
///
/// Panics on any system error, and if the span-derived phase totals
/// disagree with the stage histograms.
pub fn portus_breakdown_traced(spec: &ModelSpec) -> (PortusBreakdown, String) {
    let ctx = SimContext::icdcs24();
    ctx.tracer.enable();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(
        ctx.clone(),
        PmemMode::DevDax,
        2 * spec.total_bytes() + (64 << 20),
    );
    let daemon =
        PortusDaemon::start(&fabric, NodeId(1), pmem, DaemonConfig::default()).expect("daemon");
    let gpu = GpuDevice::new(ctx.clone(), 0, 2 * spec.total_bytes() + (1 << 30));
    let model =
        ModelInstance::materialize(spec, &gpu, 42, Materialization::Owned).expect("materialize");
    let client = PortusClient::connect(&daemon, compute);
    client.register_model(&model).expect("register");

    let before = ctx.stats.snapshot();
    let t0 = ctx.clock.now();
    client.checkpoint(&spec.name).expect("checkpoint");
    let total = ctx.clock.now().saturating_since(t0);
    let d = ctx.stats.snapshot().since(&before);
    // The checkpoint is the only request this fresh world has traced.
    let stages = ctx.metrics.snapshot();

    // Phase times from the recorded spans; the histogram totals must
    // agree exactly — same virtual clock, same deterministic run.
    let spans: Vec<_> = ctx
        .tracer
        .spans()
        .into_iter()
        .filter(|s| s.op == TraceOp::Checkpoint)
        .collect();
    let stage_total = |stage: Stage| -> SimDuration {
        spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.duration())
            .sum()
    };
    let persist = stage_total(Stage::Persist);
    let checksum = stage_total(Stage::Checksum);
    assert_eq!(
        persist.as_nanos(),
        stages.stage_total_ns(TraceOp::Checkpoint, Stage::Persist),
        "span-derived persist time must match the persist stage histogram"
    );
    assert_eq!(
        checksum.as_nanos(),
        stages.stage_total_ns(TraceOp::Checkpoint, Stage::Checksum),
        "span-derived checksum time must match the checksum stage histogram"
    );

    let trace_json = ctx.tracer.to_chrome_trace();
    let fabric = spans
        .iter()
        .filter(|s| matches!(s.stage, Stage::DoorbellPost | Stage::CqDrain));
    let pull = match (
        fabric.clone().map(|s| s.start).min(),
        fabric.map(|s| s.end).max(),
    ) {
        (Some(start), Some(end)) => end.saturating_since(start),
        _ => SimDuration::ZERO,
    };
    let breakdown = PortusBreakdown {
        model: spec.name.clone(),
        bytes: spec.total_bytes(),
        total: total.as_secs_f64(),
        pull: pull.as_secs_f64(),
        persist: persist.as_secs_f64(),
        checksum: checksum.as_secs_f64(),
        posted_verbs: d.posted_verbs,
        doorbell_batches: d.doorbell_batches,
        coalesced_verbs: d.coalesced_verbs,
        coalesced_bytes: d.coalesced_bytes,
    };
    (breakdown, trace_json)
}

/// One point of the QP-striping sweep: the same checkpoint on a pool
/// of `qps` lane-pinned queue pairs over `qps`-engine NICs.
#[derive(Debug, Clone, Serialize)]
pub struct QpSweepPoint {
    /// Queue pairs per connection (= NIC DMA engines on both ends).
    pub qps: usize,
    /// End-to-end checkpoint time (clock delta), virtual seconds.
    pub total: f64,
    /// Persist stage service time (from the persist stage histogram),
    /// virtual seconds, overlapped with the fabric.
    pub persist: f64,
    /// Checksum stage service time, virtual seconds.
    pub checksum: f64,
    /// Share of persist+checksum service granted while WQE completions
    /// were still draining, in permille (the pipeline-overlap gauge).
    pub overlap_permille: u64,
    /// Gather WQEs posted.
    pub posted_verbs: u64,
    /// Doorbells rung — one per lane per round when striping.
    pub doorbell_batches: u64,
}

/// Runs one checkpoint per entry of `qps_list`, each in a fresh world
/// whose NICs have as many DMA engines as the connection has QPs, and
/// reports how the total shrinks as the doorbell batch stripes across
/// lanes and the persist+checksum seal pipelines behind the fabric.
/// The first checkpoint of each world is traced; the `qps = 4` trace
/// (if present) is returned alongside for Chrome-trace inspection.
///
/// # Panics
///
/// Panics on any system error — harness code wants loud failures.
pub fn portus_qp_sweep(
    spec: &ModelSpec,
    qps_list: &[usize],
) -> (Vec<QpSweepPoint>, Option<String>) {
    let mut points = Vec::new();
    let mut qp4_trace = None;
    for &qps in qps_list {
        let ctx = SimContext::icdcs24();
        ctx.tracer.enable();
        let fabric = Fabric::new(ctx.clone());
        let compute = fabric.add_nic_with_engines(NodeId(0), qps);
        fabric.add_nic_with_engines(NodeId(1), qps);
        let pmem = PmemDevice::new(
            ctx.clone(),
            PmemMode::DevDax,
            2 * spec.total_bytes() + (64 << 20),
        );
        let cfg = DaemonConfig {
            qps_per_connection: qps,
            ..DaemonConfig::default()
        };
        let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem, cfg).expect("daemon");
        let gpu = GpuDevice::new(ctx.clone(), 0, 2 * spec.total_bytes() + (1 << 30));
        let model = ModelInstance::materialize(spec, &gpu, 42, Materialization::Owned)
            .expect("materialize");
        let client = PortusClient::connect(&daemon, compute);
        client.register_model(&model).expect("register");

        let before = ctx.stats.snapshot();
        let t0 = ctx.clock.now();
        client.checkpoint(&spec.name).expect("checkpoint");
        let total = ctx.clock.now().saturating_since(t0);
        let d = ctx.stats.snapshot().since(&before);
        // The checkpoint is the only request this fresh world has traced.
        let stages = ctx.metrics.snapshot();
        let secs = |stage| {
            SimDuration::from_nanos(stages.stage_total_ns(TraceOp::Checkpoint, stage)).as_secs_f64()
        };
        if qps == 4 {
            qp4_trace = Some(ctx.tracer.to_chrome_trace());
        }
        points.push(QpSweepPoint {
            qps,
            total: total.as_secs_f64(),
            persist: secs(Stage::Persist),
            checksum: secs(Stage::Checksum),
            overlap_permille: stages.pipeline_overlap_permille,
            posted_verbs: d.posted_verbs,
            doorbell_batches: d.doorbell_batches,
        });
        drop(client);
        daemon.shutdown();
    }
    (points, qp4_trace)
}

/// Runs one model through a `torch.save`/`torch.load(GDS)` baseline with
/// real bytes; returns the breakdowns.
///
/// # Panics
///
/// Panics on any system error.
pub fn baseline_times(
    spec: &ModelSpec,
    backend: &dyn FileBackend,
    ctx: &SimContext,
) -> (CheckpointBreakdown, RestoreBreakdown) {
    let gpu = GpuDevice::new(ctx.clone(), 0, 2 * spec.total_bytes() + (1 << 30));
    let host = HostMemory::new(ctx.clone(), 2 * spec.total_bytes() + (1 << 30));
    let model =
        ModelInstance::materialize(spec, &gpu, 42, Materialization::Owned).expect("materialize");
    let saver = TorchCheckpointer::new(ctx.clone(), backend, gpu, host);
    let path = format!("{}.ckpt", spec.name);
    let ckpt = saver.checkpoint(&model, &path).expect("checkpoint");
    let restore = saver.restore(&model, &path, true).expect("restore");
    backend.delete(&path);
    (ckpt, restore)
}

/// Full three-system comparison for one model (one row of Figs. 11/12).
///
/// # Panics
///
/// Panics on any system error.
pub fn compare_systems(spec: &ModelSpec) -> SystemComparison {
    let (p_ckpt, p_restore) = portus_times(spec);

    let (b_ckpt, b_restore) = {
        let ctx = SimContext::icdcs24();
        let fabric = Fabric::new(ctx.clone());
        fabric.add_nic(NodeId(0));
        fabric.add_nic(NodeId(1));
        let fs = Beegfs::mount(
            &fabric,
            NodeId(0),
            NodeId(1),
            4 * spec.total_bytes() + (1 << 26),
        );
        baseline_times(spec, &fs, &ctx)
    };

    let (e_ckpt, e_restore) = {
        let ctx = SimContext::icdcs24();
        let fs = Ext4Nvme::new(ctx.clone(), 4 * spec.total_bytes() + (1 << 26));
        baseline_times(spec, &fs, &ctx)
    };

    SystemComparison {
        model: spec.name.clone(),
        bytes: spec.total_bytes(),
        portus_ckpt: p_ckpt.as_secs_f64(),
        beegfs_ckpt: b_ckpt.total().as_secs_f64(),
        ext4_ckpt: e_ckpt.total().as_secs_f64(),
        portus_restore: p_restore.as_secs_f64(),
        beegfs_restore: b_restore.total().as_secs_f64(),
        ext4_restore: e_restore.total().as_secs_f64(),
    }
}

/// Table I / Fig. 13 with real bytes: the BERT checkpoint breakdown on
/// the BeeGFS-PMem baseline.
///
/// # Panics
///
/// Panics on any system error.
pub fn bert_beegfs_breakdown(spec: &ModelSpec) -> CheckpointBreakdown {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let fs = Beegfs::mount(
        &fabric,
        NodeId(0),
        NodeId(1),
        4 * spec.total_bytes() + (1 << 26),
    );
    let (ckpt, _) = baseline_times(spec, &fs, &ctx);
    ckpt
}

/// Fig. 13's ext4-NVMe column with real bytes.
///
/// # Panics
///
/// Panics on any system error.
pub fn bert_ext4_breakdown(spec: &ModelSpec) -> CheckpointBreakdown {
    let ctx = SimContext::icdcs24();
    let fs = Ext4Nvme::new(ctx.clone(), 4 * spec.total_bytes() + (1 << 26));
    let (ckpt, _) = baseline_times(spec, &fs, &ctx);
    ckpt
}
