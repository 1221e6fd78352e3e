//! A real-plane world — fabric, PMem, GPU, one daemon and one client
//! connection — plus the ledger that times every public call into it.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use portus::{DaemonConfig, PortusClient, PortusDaemon, PortusResult};
use portus_dnn::ModelInstance;
use portus_mem::GpuDevice;
use portus_pmem::{PmemDevice, PmemMode};
use portus_rdma::{Fabric, Nic, NodeId};
use portus_sim::{MetricsSnapshot, SimContext};

use crate::secs;

/// Everything one real-plane workload runs against. The benchmark keeps
/// its own `Arc`s to the device and fabric so host probes can reach the
/// live daemon's layers.
pub struct World {
    /// The shared simulation context (virtual clock, stats, tracer).
    pub ctx: SimContext,
    /// The fabric both NICs hang off.
    pub fabric: Fabric,
    /// The compute node's NIC.
    pub compute: Arc<Nic>,
    /// The daemon's PMem namespace.
    pub pmem: Arc<PmemDevice>,
    /// The compute node's GPU.
    pub gpu: Arc<GpuDevice>,
    /// The storage daemon.
    pub daemon: Arc<PortusDaemon>,
    /// The single client connection.
    pub client: PortusClient,
    /// Timings and verification state of every call made through `self`.
    pub ledger: Ledger,
}

/// Per-call record of the operations a workload issued.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Whether completed operations join the fixed virtual sample.
    pub sampling: bool,
    /// Virtual ns of every sampled full checkpoint.
    pub full_v: Vec<u64>,
    /// Virtual ns of every sampled delta checkpoint.
    pub delta_v: Vec<u64>,
    /// Virtual ns of every sampled restore.
    pub restore_v: Vec<u64>,
    /// Logical bytes made durable by sampled checkpoints.
    pub ckpt_v_bytes: u64,
    /// Bytes pushed by sampled restores.
    pub restore_v_bytes: u64,
    /// Bytes carried device-locally by sampled deltas.
    pub carried_bytes: u64,
    /// Tensors moved by sampled operations (pulled or pushed).
    pub tensors_moved: u64,
    /// Host seconds of each full checkpoint call.
    pub ckpt_host: Vec<f64>,
    /// Host seconds of each delta checkpoint call.
    pub delta_host: Vec<f64>,
    /// Host seconds of each restore call.
    pub restore_host: Vec<f64>,
    /// Host seconds of each registration.
    pub register_host: Vec<f64>,
    /// Host seconds of each generated training step.
    pub train_host: Vec<f64>,
    /// Logical bytes made durable by every checkpoint (a delta counts
    /// its full model size).
    pub ckpt_bytes: u64,
    /// Bytes pushed by every restore.
    pub restore_bytes: u64,
    /// Completed checkpoints, deltas and restores.
    pub ops: u64,
    /// Attempted operations.
    pub attempted: u64,
    /// Failed operations (errors and verification mismatches).
    pub failed: u64,
    /// The first few failures, described.
    pub errors: Vec<String>,
    /// `model_checksum` of each model's latest durable version.
    expected: HashMap<String, u64>,
}

impl Ledger {
    /// Counts one failed operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Virtual ns of every sampled checkpoint, full and delta.
    pub fn ckpt_v(&self) -> Vec<u64> {
        self.full_v.iter().chain(&self.delta_v).copied().collect()
    }

    /// Sampled checkpoints, deltas and restores.
    pub fn sampled_ops(&self) -> u64 {
        (self.full_v.len() + self.delta_v.len() + self.restore_v.len()) as u64
    }

    /// Starts a new pass: clears the per-pass timings and samples but
    /// keeps the run's attempt and failure counts, the registration
    /// timings (most are taken at set-up) and the verification state.
    pub fn reset_counters(&mut self) {
        *self = Ledger {
            attempted: self.attempted,
            failed: self.failed,
            errors: std::mem::take(&mut self.errors),
            register_host: std::mem::take(&mut self.register_host),
            expected: std::mem::take(&mut self.expected),
            ..Ledger::default()
        };
    }
}

impl World {
    /// Builds the devices and starts the daemon with `cfg`; both NICs
    /// get `engines` DMA engines.
    ///
    /// # Errors
    ///
    /// Daemon start failures.
    pub fn start(
        cfg: DaemonConfig,
        engines: usize,
        pmem_bytes: u64,
        gpu_bytes: u64,
    ) -> PortusResult<World> {
        let ctx = SimContext::icdcs24();
        let fabric = Fabric::new(ctx.clone());
        let compute = fabric.add_nic_with_engines(NodeId(0), engines);
        fabric.add_nic_with_engines(NodeId(1), engines);
        let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, pmem_bytes);
        let daemon = PortusDaemon::start(&fabric, NodeId(1), Arc::clone(&pmem), cfg)?;
        let gpu = GpuDevice::new(ctx.clone(), 0, gpu_bytes);
        let client = PortusClient::connect(&daemon, Arc::clone(&compute));
        Ok(World {
            ctx,
            fabric,
            compute,
            pmem,
            gpu,
            daemon,
            client,
            ledger: Ledger::default(),
        })
    }

    /// Disconnects the client and joins every daemon thread.
    pub fn close(self) {
        let World { client, daemon, .. } = self;
        drop(client);
        daemon.shutdown();
    }

    /// One generated training step: all tensors, or only `touched`.
    pub fn train(&mut self, model: &mut ModelInstance, touched: Option<&[usize]>) {
        let t = Instant::now();
        match touched {
            Some(idx) => model.train_step_sparse(idx),
            None => model.train_step(),
        }
        self.ledger.train_host.push(secs(t));
    }

    /// Registers `model`; returns whether it succeeded.
    pub fn register(&mut self, model: &ModelInstance) -> bool {
        let t = Instant::now();
        let r = self.client.register_model(model);
        self.ledger.register_host.push(secs(t));
        match r {
            Ok(()) => true,
            Err(e) => {
                self.ledger.attempted += 1;
                self.ledger
                    .fail(format!("register {}: {e}", model.spec().name));
                false
            }
        }
    }

    /// Checksum the next restore of `model` must reproduce; `None`
    /// when the caller will not restore this version (a whole-model
    /// checksum costs as much host time as a small checkpoint).
    fn expect(&mut self, model: &ModelInstance, verify: bool) -> Option<u64> {
        if !verify {
            self.ledger.expected.remove(&model.spec().name);
        }
        verify.then(|| model.model_checksum())
    }

    /// Full checkpoint of `model`; with `verify`, records the checksum
    /// the next restore must reproduce.
    pub fn checkpoint(&mut self, model: &mut ModelInstance, verify: bool) -> bool {
        let name = model.spec().name.clone();
        let sum = self.expect(model, verify);
        model.take_dirty();
        self.ledger.attempted += 1;
        let v0 = self.ctx.clock.now();
        let t = Instant::now();
        let r = self.client.checkpoint(&name);
        let host = secs(t);
        let v = self.ctx.clock.now().saturating_since(v0).as_nanos();
        match r {
            Ok(_) => {
                let bytes = model.spec().total_bytes();
                let l = &mut self.ledger;
                if let Some(sum) = sum {
                    l.expected.insert(name, sum);
                }
                l.ckpt_host.push(host);
                l.ckpt_bytes += bytes;
                l.ops += 1;
                if l.sampling {
                    l.full_v.push(v);
                    l.ckpt_v_bytes += bytes;
                    l.tensors_moved += model.tensors().len() as u64;
                }
                true
            }
            Err(e) => {
                self.ledger.fail(format!("checkpoint {name}: {e}"));
                false
            }
        }
    }

    /// Delta checkpoint of the tensors `model` dirtied since its last
    /// checkpoint; `verify` as for [`World::checkpoint`].
    pub fn checkpoint_delta(&mut self, model: &mut ModelInstance, verify: bool) -> bool {
        let name = model.spec().name.clone();
        let sum = self.expect(model, verify);
        let dirty = model.take_dirty();
        self.ledger.attempted += 1;
        let v0 = self.ctx.clock.now();
        let t = Instant::now();
        let r = self.client.checkpoint_delta(&name, &dirty);
        let host = secs(t);
        let v = self.ctx.clock.now().saturating_since(v0).as_nanos();
        match r {
            Ok(rep) => {
                let bytes = model.spec().total_bytes();
                let l = &mut self.ledger;
                if let Some(sum) = sum {
                    l.expected.insert(name, sum);
                }
                l.delta_host.push(host);
                l.ckpt_bytes += bytes;
                l.ops += 1;
                if l.sampling {
                    l.delta_v.push(v);
                    l.ckpt_v_bytes += bytes;
                    l.carried_bytes += rep.copied_bytes;
                    l.tensors_moved += dirty.iter().filter(|&&d| d).count() as u64;
                }
                true
            }
            Err(e) => {
                self.ledger.fail(format!("checkpoint_delta {name}: {e}"));
                false
            }
        }
    }

    /// Restores `model`'s latest version and checks that it reproduces
    /// the checksum recorded at that checkpoint, bit for bit. Callers
    /// perturb the model first so a no-op restore cannot pass.
    pub fn restore(&mut self, model: &ModelInstance) -> bool {
        let name = model.spec().name.clone();
        self.ledger.attempted += 1;
        let v0 = self.ctx.clock.now();
        let t = Instant::now();
        let r = self.client.restore(model);
        let host = secs(t);
        let v = self.ctx.clock.now().saturating_since(v0).as_nanos();
        match r {
            Ok(rep) => {
                let want = self.ledger.expected.get(&name).copied();
                if want != Some(model.model_checksum()) {
                    self.ledger.fail(format!(
                        "restore {name} v{}: checksum mismatch",
                        rep.version
                    ));
                    return false;
                }
                let l = &mut self.ledger;
                l.restore_host.push(host);
                l.restore_bytes += rep.bytes;
                l.ops += 1;
                if l.sampling {
                    l.restore_v.push(v);
                    l.restore_v_bytes += rep.bytes;
                    l.tensors_moved += model.tensors().len() as u64;
                }
                true
            }
            Err(e) => {
                self.ledger.fail(format!("restore {name}: {e}"));
                false
            }
        }
    }

    /// The daemon's metrics with freshly refreshed space, dedup and
    /// catalog gauges (a `Stats` request).
    pub fn stats(&mut self) -> MetricsSnapshot {
        self.client.stats().unwrap_or_else(|e| {
            self.ledger.attempted += 1;
            self.ledger.fail(format!("stats: {e}"));
            MetricsSnapshot::default()
        })
    }

    /// Drops the model `name` from the daemon.
    pub fn drop_model(&mut self, name: &str) {
        self.ledger.expected.remove(name);
        if let Err(e) = self.client.drop_model(name) {
            self.ledger.attempted += 1;
            self.ledger.fail(format!("drop {name}: {e}"));
        }
    }
}
