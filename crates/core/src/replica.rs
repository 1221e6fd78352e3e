//! k-way replicated client: fan every checkpoint out to several
//! daemons and fall through replicas on restore.
//!
//! The fleet simulation (`portus-cluster`) models placement and
//! daemon-loss analytically; [`ReplicatedClient`] is the real-plane
//! counterpart on the actual datapath. It wraps one [`PortusClient`]
//! per replica daemon (all over the same compute-side NIC), registers
//! the model everywhere, checkpoints everywhere, and restores from the
//! best replica — falling through to the next one when a replica's
//! datapath is down or its copy is missing or corrupt.
//!
//! The replica order is fixed at construction (the caller typically
//! derives it from `portus_cluster::replica_set`, so the simulated
//! placement and the real datapath agree on where a model lives).

use std::sync::Arc;

use portus_dnn::ModelInstance;
use portus_rdma::Nic;

use crate::client::{CheckpointReport, PortusClient, RestoreReport};
use crate::daemon::PortusDaemon;
use crate::{PortusError, PortusResult};

/// A client that mirrors one model across `k` daemons.
pub struct ReplicatedClient {
    clients: Vec<PortusClient>,
}

impl std::fmt::Debug for ReplicatedClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplicatedClient")
            .field("replicas", &self.clients.len())
            .finish()
    }
}

/// Outcome of a replicated checkpoint: which replicas now hold the new
/// version and which failed (the checkpoint as a whole succeeds while
/// at least one replica does).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicatedCheckpoint {
    /// Per-replica reports, for the replicas that succeeded, in
    /// replica order.
    pub reports: Vec<(usize, CheckpointReport)>,
    /// `(replica index, rendered error)` for the replicas that failed.
    pub failed: Vec<(usize, String)>,
}

impl ReplicatedCheckpoint {
    /// The version number the surviving replicas durably hold.
    pub fn version(&self) -> u64 {
        self.reports
            .iter()
            .map(|(_, r)| r.version)
            .max()
            .unwrap_or(0)
    }

    /// How many replicas hold the new version.
    pub fn survivors(&self) -> usize {
        self.reports.len()
    }
}

impl ReplicatedClient {
    /// Connects to every daemon in `daemons`, in replica order, from
    /// `client_nic`.
    ///
    /// # Panics
    ///
    /// If `daemons` is empty: a zero-replica client can neither
    /// checkpoint nor restore, so the misconfiguration is rejected up
    /// front (the same contract as `FleetConfig::uniform`).
    pub fn connect(daemons: &[&PortusDaemon], client_nic: Arc<Nic>) -> ReplicatedClient {
        assert!(
            !daemons.is_empty(),
            "ReplicatedClient::connect needs at least one daemon (got 0)"
        );
        ReplicatedClient {
            clients: daemons
                .iter()
                .map(|d| PortusClient::connect(d, Arc::clone(&client_nic)))
                .collect(),
        }
    }

    /// Number of replicas.
    pub fn replicas(&self) -> usize {
        self.clients.len()
    }

    /// The client for one replica (for direct, single-replica
    /// operations like `stats`).
    pub fn replica(&self, index: usize) -> &PortusClient {
        &self.clients[index]
    }

    /// Registers `model` on every replica daemon.
    ///
    /// # Errors
    ///
    /// Fails fast on the first replica that rejects the registration —
    /// a half-registered model would silently checkpoint at reduced
    /// redundancy.
    pub fn register_model(&self, model: &ModelInstance) -> PortusResult<()> {
        for client in &self.clients {
            client.register_model(model)?;
        }
        Ok(())
    }

    /// Checkpoints `model` on every replica daemon.
    ///
    /// Succeeds if at least one replica durably holds the new version;
    /// the report carries both survivors and failures so the caller
    /// can see degraded redundancy.
    ///
    /// # Errors
    ///
    /// [`PortusError::ReplicasExhausted`] when every replica fails.
    pub fn checkpoint(&self, model: &str) -> PortusResult<ReplicatedCheckpoint> {
        let mut reports = Vec::new();
        let mut failed = Vec::new();
        for (i, client) in self.clients.iter().enumerate() {
            match client.checkpoint(model) {
                Ok(r) => reports.push((i, r)),
                Err(e) => failed.push((i, e.to_string())),
            }
        }
        if reports.is_empty() {
            return Err(PortusError::ReplicasExhausted {
                model: model.to_string(),
                op: "checkpoint".into(),
                attempts: failed,
            });
        }
        Ok(ReplicatedCheckpoint { reports, failed })
    }

    /// The latest version every listed replica could serve, per
    /// replica: `(replica index, latest complete version)` for the
    /// replicas that are reachable and hold the model.
    pub fn available_versions(&self, model: &str) -> Vec<(usize, u64)> {
        let mut out = Vec::new();
        for (i, client) in self.clients.iter().enumerate() {
            if let Ok(models) = client.list_models() {
                if let Some(v) = models
                    .iter()
                    .find(|m| m.name == model)
                    .and_then(|m| m.latest_version)
                {
                    out.push((i, v));
                }
            }
        }
        out
    }

    /// Restores `model` from the best replica, falling through on
    /// failure.
    ///
    /// Replicas are ranked by the latest version they advertise
    /// (highest first, replica order breaking ties), then tried in
    /// rank order; a replica whose datapath fails, whose copy is
    /// missing, or whose copy fails verification is skipped in favor
    /// of the next. Replicas that advertise nothing are still tried
    /// last — `list_models` can race a completing checkpoint.
    ///
    /// # Errors
    ///
    /// [`PortusError::ReplicasExhausted`] when no replica can serve
    /// a checkpoint.
    pub fn restore(&self, model: &ModelInstance) -> PortusResult<RestoreReport> {
        self.restore_version(model, None)
    }

    /// [`ReplicatedClient::restore`], pinned to a specific version
    /// (`None` = each replica's latest).
    ///
    /// # Errors
    ///
    /// [`PortusError::ReplicasExhausted`] when no replica can serve
    /// the requested checkpoint.
    pub fn restore_version(
        &self,
        model: &ModelInstance,
        version: Option<u64>,
    ) -> PortusResult<RestoreReport> {
        let advertised = self.available_versions(&model.spec().name);
        let mut order: Vec<usize> = (0..self.clients.len()).collect();
        order.sort_by_key(|&i| {
            let v = advertised.iter().find(|(r, _)| *r == i).map(|(_, v)| *v);
            // Highest advertised version first; unreachable/empty
            // replicas (None) sink to the end; replica order breaks
            // ties.
            (std::cmp::Reverse(v), i)
        });

        let mut attempts = Vec::new();
        for i in order {
            match self.clients[i].restore_version(model, version) {
                Ok(report) => return Ok(report),
                Err(
                    e @ (PortusError::DatapathFailed { .. }
                    | PortusError::ChecksumMismatch { .. }
                    | PortusError::NoValidCheckpoint(_)
                    | PortusError::ModelNotFound(_)),
                ) => attempts.push((i, e.to_string())),
                Err(e) => return Err(e),
            }
        }
        Err(PortusError::ReplicasExhausted {
            model: model.spec().name.clone(),
            op: "restore".into(),
            attempts,
        })
    }

    /// Marks the job complete on every replica that acknowledges it
    /// (best effort — a dead replica must not block completion).
    pub fn mark_complete(&self, model: &str) {
        for client in &self.clients {
            let _ = client.mark_complete(model);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::{DaemonConfig, PortusDaemon};
    use portus_dnn::{test_spec, Materialization};
    use portus_mem::GpuDevice;
    use portus_pmem::{PmemDevice, PmemMode};
    use portus_rdma::{Fabric, FaultSpec, NodeId};
    use portus_sim::SimContext;

    struct Rig {
        fabric: Fabric,
        daemons: Vec<Arc<PortusDaemon>>,
        gpu: Arc<GpuDevice>,
    }

    fn rig(daemons: usize) -> Rig {
        let ctx = SimContext::icdcs24();
        let fabric = Fabric::new(ctx.clone());
        fabric.add_nic(NodeId(0));
        let mut out = Vec::new();
        for i in 0..daemons {
            fabric.add_nic(NodeId(1 + i as u32));
            let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 64 << 20);
            out.push(
                PortusDaemon::start(&fabric, NodeId(1 + i as u32), pmem, DaemonConfig::default())
                    .expect("daemon"),
            );
        }
        let gpu = GpuDevice::new(ctx, 0, 1 << 30);
        Rig {
            fabric,
            daemons: out,
            gpu,
        }
    }

    fn client(r: &Rig) -> ReplicatedClient {
        let refs: Vec<&PortusDaemon> = r.daemons.iter().map(|d| d.as_ref()).collect();
        let nic = r.fabric.nic(NodeId(0)).expect("nic");
        ReplicatedClient::connect(&refs, nic)
    }

    #[test]
    #[should_panic(expected = "at least one daemon")]
    fn zero_replicas_rejected_up_front() {
        let r = rig(1);
        let nic = r.fabric.nic(NodeId(0)).expect("nic");
        ReplicatedClient::connect(&[], nic);
    }

    #[test]
    fn checkpoint_lands_on_every_replica() {
        let r = rig(3);
        let c = client(&r);
        let spec = test_spec("bert", 4, 4096);
        let mut model =
            ModelInstance::materialize(&spec, &r.gpu, 7, Materialization::Owned).expect("model");
        c.register_model(&model).expect("register");
        model.train_step();
        let out = c.checkpoint("bert").expect("checkpoint");
        assert_eq!(out.survivors(), 3);
        assert!(out.failed.is_empty());
        assert_eq!(out.version(), 1);
        assert_eq!(c.available_versions("bert"), vec![(0, 1), (1, 1), (2, 1)]);
    }

    #[test]
    fn restore_falls_through_a_dead_replica() {
        let r = rig(2);
        let c = client(&r);
        let spec = test_spec("bert", 4, 4096);
        let mut model =
            ModelInstance::materialize(&spec, &r.gpu, 7, Materialization::Owned).expect("model");
        c.register_model(&model).expect("register");
        model.train_step();
        let saved = model.model_checksum();
        c.checkpoint("bert").expect("checkpoint");

        // Kill replica 0's datapath; the restore must fail over to
        // replica 1 and still produce the checkpointed state.
        r.fabric.arm_faults(NodeId(1), FaultSpec::All).expect("arm");
        model.train_step();
        let report = c.restore(&model).expect("failover restore");
        assert_eq!(report.version, 1);
        assert_eq!(model.model_checksum(), saved);
    }

    /// A pinned restore skips a replica that no longer holds the
    /// version, even when that replica advertises the newest one and so
    /// is tried first.
    #[test]
    fn pinned_restore_falls_through_a_replica_that_cycled_the_version_out() {
        let r = rig(2);
        let c = client(&r);
        let spec = test_spec("bert", 4, 4096);
        let mut model =
            ModelInstance::materialize(&spec, &r.gpu, 7, Materialization::Owned).expect("model");
        c.register_model(&model).expect("register");
        model.train_step();
        let saved = model.model_checksum();
        assert_eq!(c.checkpoint("bert").expect("checkpoint").version(), 1);
        for _ in 0..2 {
            model.train_step();
            c.replica(0)
                .checkpoint("bert")
                .expect("replica 0 checkpoint");
        }
        assert_eq!(c.available_versions("bert"), vec![(0, 3), (1, 1)]);

        model.train_step();
        let report = c
            .restore_version(&model, Some(1))
            .expect("replica 1 still holds v1");
        assert_eq!(report.version, 1);
        assert_eq!(model.model_checksum(), saved);
    }

    #[test]
    fn degraded_checkpoint_reports_the_failed_replica() {
        let r = rig(2);
        let c = client(&r);
        let spec = test_spec("bert", 4, 4096);
        let mut model =
            ModelInstance::materialize(&spec, &r.gpu, 7, Materialization::Owned).expect("model");
        c.register_model(&model).expect("register");
        model.train_step();
        r.fabric.arm_faults(NodeId(2), FaultSpec::All).expect("arm");
        let out = c.checkpoint("bert").expect("degraded checkpoint");
        assert_eq!(out.survivors(), 1);
        assert_eq!(out.failed.len(), 1);
        assert_eq!(out.failed[0].0, 1);
    }

    #[test]
    fn all_replicas_down_is_replicas_exhausted() {
        let r = rig(2);
        let c = client(&r);
        let spec = test_spec("bert", 4, 4096);
        let mut model =
            ModelInstance::materialize(&spec, &r.gpu, 7, Materialization::Owned).expect("model");
        c.register_model(&model).expect("register");
        model.train_step();
        c.checkpoint("bert").expect("checkpoint");
        for i in 0..r.daemons.len() {
            r.fabric
                .arm_faults(NodeId(1 + i as u32), FaultSpec::All)
                .expect("arm");
        }
        let err = c.restore(&model).expect_err("no replica left");
        match err {
            PortusError::ReplicasExhausted {
                model,
                op,
                attempts,
            } => {
                assert_eq!(model, "bert");
                assert_eq!(op, "restore");
                assert_eq!(attempts.len(), 2);
            }
            other => panic!("expected ReplicasExhausted, got {other}"),
        }
    }
}
