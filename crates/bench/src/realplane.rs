//! Real-data-plane experiment runners.
//!
//! These drive the actual system: a model's bytes live in simulated GPU
//! memory, Portus pulls them over the simulated fabric into simulated
//! PMem, and the baselines run their full copy/serialize/write
//! pipelines. Virtual time is read off the shared clock; the bytes are
//! verified end to end by the integration tests.

use std::sync::Arc;

use portus::{DaemonConfig, PortusClient, PortusDaemon};
use portus_cluster::Backend;
use portus_dnn::{Materialization, ModelInstance, ModelSpec};
use portus_mem::{GpuDevice, HostMemory};
use portus_pmem::{PmemDevice, PmemMode};
use portus_rdma::{Fabric, NodeId};
use portus_sim::{SimContext, SimDuration, Stage, StatsSnapshot, TraceOp};
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

/// One Portus world on the real data plane: `spec` materialized (seed
/// 42) on the GPU of compute node 0 and registered with a daemon on
/// node 1, over `qps` lane-pinned queue pairs and `qps`-engine NICs.
/// The PMem holds two slots of the model plus 64 MiB of metadata, and
/// span recording is on.
pub struct PortusWorld {
    /// The world's clock, counters, stage histograms and tracer.
    pub ctx: SimContext,
    /// The fabric joining the two nodes (fault plans are armed on it).
    pub fabric: Fabric,
    model: ModelInstance,
    /// Taken on drop, so the daemon's shutdown can join its connection.
    client: Option<PortusClient>,
    daemon: Arc<PortusDaemon>,
}

impl PortusWorld {
    /// Builds the world and registers the model.
    ///
    /// # Panics
    ///
    /// Panics on any system error — harness code wants loud failures.
    pub fn new(spec: &ModelSpec, qps: usize) -> PortusWorld {
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
        PortusWorld {
            ctx,
            fabric,
            model,
            client: Some(client),
            daemon,
        }
    }

    /// The registered client.
    pub fn client(&self) -> &PortusClient {
        self.client.as_ref().expect("the client lives until drop")
    }

    /// Checkpoints the model once and splits the time into datapath
    /// phases. The persist/checksum totals come from the recorded
    /// spans and are cross-checked against the stage histograms of
    /// [`portus_sim::Metrics`]; the two accountings must agree exactly
    /// on a deterministic run. The stage totals and the trace cover the
    /// whole world, so this must be its first request.
    ///
    /// # Panics
    ///
    /// Panics on any system error, and if the span-derived phase totals
    /// disagree with the stage histograms.
    pub fn checkpoint(&self) -> PortusBreakdown {
        let ctx = &self.ctx;
        let before = ctx.stats.snapshot();
        let t0 = ctx.clock.now();
        self.client()
            .checkpoint(&self.model.spec().name)
            .expect("checkpoint");
        let total = ctx.clock.now().saturating_since(t0);
        let stats = ctx.stats.snapshot().since(&before);
        let stages = ctx.metrics.snapshot();
        let spans = ctx.tracer.spans();
        let stage_total = |stage: Stage| -> SimDuration {
            let total: SimDuration = spans
                .iter()
                .filter(|s| s.op == TraceOp::Checkpoint && s.stage == stage)
                .map(|s| s.duration())
                .sum();
            assert_eq!(
                total.as_nanos(),
                stages.stage_total_ns(TraceOp::Checkpoint, stage),
                "span-derived {stage:?} time must match its stage histogram"
            );
            total
        };
        let fabric = spans.iter().filter(|s| {
            s.op == TraceOp::Checkpoint && matches!(s.stage, Stage::DoorbellPost | Stage::CqDrain)
        });
        let pull = match (
            fabric.clone().map(|s| s.start).min(),
            fabric.map(|s| s.end).max(),
        ) {
            (Some(start), Some(end)) => end.saturating_since(start),
            _ => SimDuration::ZERO,
        };
        PortusBreakdown {
            total,
            pull,
            persist: stage_total(Stage::Persist),
            checksum: stage_total(Stage::Checksum),
            overlap_permille: stages.pipeline_overlap_permille,
            stats,
            trace: ctx.tracer.to_chrome_trace(),
        }
    }

    /// Restores the model's latest checkpoint onto its GPU tensors and
    /// returns the virtual time, including the client-side
    /// re-registration of every tensor for remote write (the paper's
    /// restore protocol, §III-F).
    ///
    /// # Panics
    ///
    /// Panics on any system error.
    pub fn restore(&self) -> SimDuration {
        let t0 = self.ctx.clock.now();
        self.client().restore(&self.model).expect("restore");
        self.ctx.clock.now().saturating_since(t0)
    }
}

impl Drop for PortusWorld {
    fn drop(&mut self) {
        // The client's goodbye ends its connection thread, which the
        // shutdown joins with the dispatch pool.
        self.client = None;
        self.daemon.shutdown();
    }
}

/// Measured phases of one Portus checkpoint on the posted-verb
/// datapath (the Portus row of Fig. 13 and one point of its QP sweep).
#[derive(Debug, Clone)]
pub struct PortusBreakdown {
    /// End-to-end checkpoint time (clock delta).
    pub total: SimDuration,
    /// One-sided RDMA pull phase (first doorbell to last completion).
    pub pull: SimDuration,
    /// Persist service time (cache-line flushes + fences). The seal
    /// pipelines behind the pull, so this overlaps `pull` rather than
    /// adding to it.
    pub persist: SimDuration,
    /// Digest service time (PMem read-back); overlaps `pull` like
    /// `persist`.
    pub checksum: SimDuration,
    /// Share of persist+checksum service granted while WQE completions
    /// were still draining, in permille (the pipeline-overlap gauge).
    pub overlap_permille: u64,
    /// The counters the checkpoint moved: posted WQEs, doorbells,
    /// coalesced WQEs and bytes.
    pub stats: StatsSnapshot,
    /// The checkpoint as Chrome trace-event JSON, renderable in
    /// `chrome://tracing`/Perfetto.
    pub trace: String,
}

/// Runs one model through Portus with real bytes; returns
/// (checkpoint, restore) virtual durations.
///
/// # Panics
///
/// Panics on any system error — harness code wants loud failures.
pub fn portus_times(spec: &ModelSpec) -> (SimDuration, SimDuration) {
    let world = PortusWorld::new(spec, 1);
    let ckpt = world.checkpoint().total;
    (ckpt, world.restore())
}

/// Runs one model through a `torch.save`/`torch.load(GDS)` baseline
/// with real bytes, on a fresh world holding the `backend` file system
/// (four times the model's bytes plus 64 MiB); returns the breakdowns.
///
/// # Panics
///
/// Panics on any system error.
pub fn baseline_times(
    spec: &ModelSpec,
    backend: Backend,
) -> (CheckpointBreakdown, RestoreBreakdown) {
    let ctx = SimContext::icdcs24();
    let capacity = 4 * spec.total_bytes() + (1 << 26);
    let fs: Box<dyn FileBackend> = match backend {
        Backend::BeegfsPmem => {
            let fabric = Fabric::new(ctx.clone());
            fabric.add_nic(NodeId(0));
            fabric.add_nic(NodeId(1));
            Box::new(Beegfs::mount(&fabric, NodeId(0), NodeId(1), capacity))
        }
        Backend::Ext4Nvme => Box::new(Ext4Nvme::new(ctx.clone(), capacity)),
    };
    let gpu = GpuDevice::new(ctx.clone(), 0, 2 * spec.total_bytes() + (1 << 30));
    let host = HostMemory::new(ctx.clone(), 2 * spec.total_bytes() + (1 << 30));
    let model =
        ModelInstance::materialize(spec, &gpu, 42, Materialization::Owned).expect("materialize");
    let saver = TorchCheckpointer::new(ctx.clone(), fs.as_ref(), gpu, host);
    let path = format!("{}.ckpt", spec.name);
    let ckpt = saver.checkpoint(&model, &path).expect("checkpoint");
    let restore = saver.restore(&model, &path, true).expect("restore");
    fs.delete(&path);
    (ckpt, restore)
}

/// Full three-system comparison for one model (one row of Figs. 11/12).
///
/// # Panics
///
/// Panics on any system error.
pub fn compare_systems(spec: &ModelSpec) -> SystemComparison {
    let (p_ckpt, p_restore) = portus_times(spec);
    let (b_ckpt, b_restore) = baseline_times(spec, Backend::BeegfsPmem);
    let (e_ckpt, e_restore) = baseline_times(spec, Backend::Ext4Nvme);
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
