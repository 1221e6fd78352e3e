//! Portus Client: the training-framework extension.
//!
//! On job start the client "collects pointers to each tensor on the
//! pre-allocated GPU memory ... registers the GPU address space for each
//! tensor as an RDMA memory region using NVIDIA Peer Memory ... and
//! sends the packet to the Portus storage server by TCP socket"
//! (§III-B). Checkpointing then costs the client one `DO_CHECKPOINT`
//! message; all data movement is done *to* it, not by it.
//!
//! [`PortusClient::checkpoint_async`] + [`PortusClient::guard_update`]
//! implement the asynchronous mechanism of §III-E/Fig. 8: training only
//! waits at the parameter-update phase, and only if the in-flight pull
//! has not finished.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use portus_dnn::ModelInstance;
use portus_rdma::{Access, ControlChannel, MemoryRegion, Nic, QueuePair, RegionTarget};
use portus_sim::{MetricsSnapshot, SimContext, SimDuration, SimTime, SpanRecord, Stage, TraceOp};

use crate::daemon::{ClientEndpoints, PortusDaemon};
use crate::proto::{checkpoint_op, ModelSummary, Reply, Request, TensorDesc};
use crate::{PortusError, PortusResult};

/// Result of one completed checkpoint operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointReport {
    /// The model that was checkpointed.
    pub model: String,
    /// The new version number.
    pub version: u64,
    /// Payload bytes pulled to PMem.
    pub bytes: u64,
    /// Daemon-side virtual time (the pull itself).
    pub elapsed: SimDuration,
}

/// Result of one completed restore operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RestoreReport {
    /// The model that was restored.
    pub model: String,
    /// The version that was loaded.
    pub version: u64,
    /// Payload bytes written back to GPU memory.
    pub bytes: u64,
    /// Daemon-side virtual time (the push itself).
    pub elapsed: SimDuration,
}

/// Result of one completed incremental checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeltaReport {
    /// The model that was checkpointed.
    pub model: String,
    /// The new version number.
    pub version: u64,
    /// Bytes pulled over the fabric: the dirty tensors and every clean
    /// one the target slot lacked.
    pub pulled_bytes: u64,
    /// Always 0: no checkpoint copies bytes on the CPU. Kept only
    /// because the benchmark's per-layer report still reads it.
    pub copied_bytes: u64,
    /// Clean bytes left in place: the target slot still held them from
    /// the version before the previous one, so they were not pulled.
    /// `pulled + reused` is the model size.
    pub reused_bytes: u64,
    /// Daemon-side virtual time (the pulls and the seal).
    pub elapsed: SimDuration,
}

/// Handle to an in-flight asynchronous checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingCheckpoint {
    req_id: u64,
    /// Virtual instant the request was sent (start of the Rpc span).
    sent: SimTime,
}

/// A client connection to a [`PortusDaemon`].
pub struct PortusClient {
    ctx: SimContext,
    nic: Arc<Nic>,
    requests: ControlChannel<Request>,
    replies: ControlChannel<Reply>,
    _qp: QueuePair,
    _extra_qps: Vec<QueuePair>,
    next_req: AtomicU64,
    pending: Mutex<HashMap<u64, Reply>>,
    recv_gate: Mutex<()>,
    registered: Mutex<HashMap<String, Vec<Arc<MemoryRegion>>>>,
    inflight: Mutex<HashMap<String, PendingCheckpoint>>,
}

impl std::fmt::Debug for PortusClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PortusClient")
            .field("node", &self.nic.node())
            .field("registered_models", &self.registered.lock().len())
            .finish()
    }
}

impl PortusClient {
    /// Connects to `daemon` from `client_nic` as the `"default"`
    /// tenant; use [`PortusClient::connect_as`] to name one.
    pub fn connect(daemon: &PortusDaemon, client_nic: Arc<Nic>) -> PortusClient {
        Self::connect_as(daemon, client_nic, "default")
    }

    /// Connects to `daemon` with an explicit tenant identity: the
    /// daemon charges this connection's checkpoints to `tenant`'s token
    /// buckets and breaks out its metrics per tenant (see
    /// [`crate::TenantQos`]).
    pub fn connect_as(daemon: &PortusDaemon, client_nic: Arc<Nic>, tenant: &str) -> PortusClient {
        let ClientEndpoints {
            requests,
            replies,
            qp,
            extra_qps,
        } = daemon.accept_as(Arc::clone(&client_nic), tenant);
        PortusClient {
            ctx: client_nic.ctx().clone(),
            nic: client_nic,
            requests,
            replies,
            _qp: qp,
            _extra_qps: extra_qps,
            next_req: AtomicU64::new(1),
            pending: Mutex::new(HashMap::new()),
            recv_gate: Mutex::new(()),
            registered: Mutex::new(HashMap::new()),
            inflight: Mutex::new(HashMap::new()),
        }
    }

    fn fresh_id(&self) -> u64 {
        self.next_req.fetch_add(1, Ordering::Relaxed)
    }

    /// Records the client-visible round trip of one datapath request
    /// as an `Rpc` span (request sent → reply received, on the virtual
    /// clock) into the shared tracer and metrics.
    fn record_rpc(&self, req_id: u64, op: TraceOp, model: &str, sent: SimTime) {
        let end = self.ctx.clock.now();
        self.ctx
            .metrics
            .record_stage(op, Stage::Rpc, end.saturating_since(sent));
        self.ctx.tracer.record(SpanRecord {
            req_id,
            op,
            stage: Stage::Rpc,
            model: model.to_string(),
            start: sent,
            end,
            round: 0,
            lane: 0,
        });
    }

    /// Demultiplexes replies: returns the reply for `req_id`, parking
    /// any others for their waiters.
    fn wait_reply(&self, req_id: u64) -> PortusResult<Reply> {
        loop {
            if let Some(r) = self.pending.lock().remove(&req_id) {
                return Ok(r);
            }
            let _gate = self.recv_gate.lock();
            // Re-check: another thread may have parked our reply while
            // we waited for the gate.
            if let Some(r) = self.pending.lock().remove(&req_id) {
                return Ok(r);
            }
            let reply = self.replies.recv()?;
            if reply.req_id() == req_id {
                return Ok(reply);
            }
            self.pending.lock().insert(reply.req_id(), reply);
        }
    }

    fn expect_ok(reply: Reply) -> PortusResult<Reply> {
        match reply {
            Reply::Error { message, .. } => Err(PortusError::Daemon(message)),
            // Rebuild the typed datapath error so callers can match on
            // it and read the per-tensor attribution / retry counts.
            Reply::DatapathFailed {
                model,
                op,
                failures,
                ..
            } => Err(PortusError::DatapathFailed {
                model,
                op,
                failures,
            }),
            Reply::OutOfSpace {
                needed,
                free,
                largest_extent,
                ..
            } => Err(PortusError::OutOfSpace {
                needed,
                free,
                largest_extent,
            }),
            Reply::Throttled { retry_after_ns, .. } => {
                Err(PortusError::Throttled { retry_after_ns })
            }
            Reply::CatalogFull { capacity, .. } => Err(PortusError::CatalogFull { capacity }),
            Reply::ChecksumMismatch { model, version, .. } => {
                Err(PortusError::ChecksumMismatch { model, version })
            }
            ok => Ok(ok),
        }
    }

    /// Registers a model instance: every tensor's GPU buffer becomes a
    /// remote-readable memory region; their rkeys and metadata are sent
    /// to the daemon, which builds the checkpoint structure on PMem
    /// ahead of time.
    ///
    /// # Errors
    ///
    /// Daemon-side rejections (structure mismatch, table full) and
    /// channel failures.
    pub fn register_model(&self, model: &ModelInstance) -> PortusResult<()> {
        let mut mrs = Vec::with_capacity(model.tensors().len());
        let mut descs = Vec::with_capacity(model.tensors().len());
        for t in model.tensors() {
            let mr = self
                .nic
                .register(RegionTarget::Buffer(Arc::clone(&t.buffer)), Access::READ);
            descs.push(TensorDesc::from_registration(t, &mr));
            mrs.push(mr);
        }
        let req_id = self.fresh_id();
        self.requests.send(Request::Register {
            req_id,
            model: model.spec().name.clone(),
            tensors: descs,
        })?;
        Self::expect_ok(self.wait_reply(req_id)?)?;
        self.registered
            .lock()
            .insert(model.spec().name.clone(), mrs);
        Ok(())
    }

    /// Synchronous checkpoint: sends `DO_CHECKPOINT` and waits for the
    /// pull to complete.
    ///
    /// # Errors
    ///
    /// Daemon-side failures (unregistered model, fabric errors);
    /// [`PortusError::AlreadyInFlight`] if an asynchronous checkpoint
    /// of `model` is pending; [`PortusError::Throttled`] if the daemon
    /// shed the request.
    pub fn checkpoint(&self, model: &str) -> PortusResult<CheckpointReport> {
        self.checkpoint_sync(model, None).map(full_report)
    }

    /// Asynchronous checkpoint: sends `DO_CHECKPOINT` and returns
    /// immediately; training proceeds while the daemon pulls.
    ///
    /// At most one checkpoint per model may be in flight on a
    /// connection: a second `checkpoint_async` (or any other checkpoint
    /// of the model) before the first is waited on (via
    /// [`PortusClient::wait_checkpoint`] or
    /// [`PortusClient::guard_update`]) is rejected rather than silently
    /// orphaning the first reply.
    ///
    /// # Errors
    ///
    /// [`PortusError::AlreadyInFlight`] if a checkpoint of `model` is
    /// already in flight; channel failures (daemon errors surface on
    /// wait).
    pub fn checkpoint_async(&self, model: &str) -> PortusResult<PendingCheckpoint> {
        self.send_checkpoint(model, None)
    }

    /// Waits for an asynchronous checkpoint to finish.
    ///
    /// # Errors
    ///
    /// The daemon-side error of the operation, if it failed. The
    /// in-flight entry is consumed on **every** exit path — success,
    /// daemon error, or channel failure — so a failed async checkpoint
    /// surfaces once and never wedges a later
    /// [`PortusClient::guard_update`] on an already-consumed reply.
    pub fn wait_checkpoint(
        &self,
        model: &str,
        pending: PendingCheckpoint,
    ) -> PortusResult<CheckpointReport> {
        self.wait_pull(model, pending, TraceOp::Checkpoint)
            .map(full_report)
    }

    /// Incremental checkpoint (extension; see DESIGN.md §8): the
    /// tensors flagged in `dirty`, and every clean one the daemon's
    /// target slot does not already hold, cross the fabric; the rest
    /// stay in place. The result is a full, independently valid
    /// version. Pass the mask from
    /// [`portus_dnn::ModelInstance::take_dirty`].
    ///
    /// # Errors
    ///
    /// Daemon-side failures (unregistered model, mask length mismatch);
    /// [`PortusError::AlreadyInFlight`] if an asynchronous checkpoint
    /// of `model` is pending (the daemon could otherwise run the delta
    /// ahead of that pull); [`PortusError::Throttled`] if the daemon
    /// shed the request.
    pub fn checkpoint_delta(&self, model: &str, dirty: &[bool]) -> PortusResult<DeltaReport> {
        self.checkpoint_sync(model, Some(dirty))
    }

    /// Sends one `DO_CHECKPOINT` (a delta with `dirty`). Every entry
    /// point sends through here, so one-in-flight holds for all.
    fn send_checkpoint(
        &self,
        model: &str,
        dirty: Option<&[bool]>,
    ) -> PortusResult<PendingCheckpoint> {
        let mut inflight = self.inflight.lock();
        if inflight.contains_key(model) {
            return Err(PortusError::AlreadyInFlight(model.to_string()));
        }
        let req_id = self.fresh_id();
        let sent = self.ctx.clock.now();
        self.requests.send(Request::Checkpoint {
            req_id,
            model: model.to_string(),
            dirty: dirty.map(<[bool]>::to_vec),
        })?;
        let pending = PendingCheckpoint { req_id, sent };
        inflight.insert(model.to_string(), pending);
        Ok(pending)
    }

    /// Waits for a sent checkpoint's reply, records its `Rpc` span and
    /// consumes the in-flight entry on every exit path.
    fn wait_pull(
        &self,
        model: &str,
        pending: PendingCheckpoint,
        op: TraceOp,
    ) -> PortusResult<DeltaReport> {
        let outcome = self.wait_reply(pending.req_id);
        if outcome.is_ok() {
            self.record_rpc(pending.req_id, op, model, pending.sent);
        }
        self.inflight
            .lock()
            .retain(|m, p| m != model || *p != pending);
        match Self::expect_ok(outcome?)? {
            Reply::CheckpointDone {
                version,
                pulled_bytes,
                reused_bytes,
                elapsed,
                ..
            } => Ok(DeltaReport {
                model: model.to_string(),
                version,
                pulled_bytes,
                copied_bytes: 0,
                reused_bytes,
                elapsed,
            }),
            other => Err(PortusError::Daemon(format!(
                "unexpected reply to {op}: {other:?}"
            ))),
        }
    }

    /// Send-and-wait.
    fn checkpoint_sync(&self, model: &str, dirty: Option<&[bool]>) -> PortusResult<DeltaReport> {
        let pending = self.send_checkpoint(model, dirty)?;
        self.wait_pull(model, pending, checkpoint_op(dirty))
    }

    /// The Fig. 8 barrier: called by the training loop right before the
    /// parameter-update phase. If a checkpoint pull of `model` is in
    /// flight, blocks until it completes (parameters must not change
    /// under an active pull). Returns the completed report, if any.
    ///
    /// # Errors
    ///
    /// The in-flight operation's failure, if it failed.
    pub fn guard_update(&self, model: &str) -> PortusResult<Option<CheckpointReport>> {
        let pending = self.inflight.lock().get(model).copied();
        match pending {
            Some(p) => Ok(Some(self.wait_checkpoint(model, p)?)),
            None => Ok(None),
        }
    }

    /// Whether a checkpoint of `model` is currently in flight.
    pub fn has_inflight(&self, model: &str) -> bool {
        self.inflight.lock().contains_key(model)
    }

    /// Restores the latest complete checkpoint into `model` (an
    /// "empty" instance with the same structure): registers the GPU
    /// regions for remote write and asks the daemon to push.
    ///
    /// # Errors
    ///
    /// [`PortusError::Daemon`] wrapping `NoValidCheckpoint`, checksum
    /// failures, or structure mismatches.
    pub fn restore(&self, model: &ModelInstance) -> PortusResult<RestoreReport> {
        self.restore_version(model, None)
    }

    /// [`Self::restore`], pinned to a specific `Done` version
    /// (`None` = latest). Replicated and sharded clients use the pin
    /// to settle every participant on one common checkpoint.
    ///
    /// # Errors
    ///
    /// [`PortusError::NoValidCheckpoint`] if the requested version is
    /// no longer on the daemon's PMem, plus everything
    /// [`Self::restore`] can return.
    pub fn restore_version(
        &self,
        model: &ModelInstance,
        version: Option<u64>,
    ) -> PortusResult<RestoreReport> {
        let mut mrs = Vec::with_capacity(model.tensors().len());
        let mut descs = Vec::with_capacity(model.tensors().len());
        for t in model.tensors() {
            let mr = self
                .nic
                .register(RegionTarget::Buffer(Arc::clone(&t.buffer)), Access::WRITE);
            descs.push(TensorDesc::from_registration(t, &mr));
            mrs.push(mr);
        }
        let req_id = self.fresh_id();
        let sent = self.ctx.clock.now();
        self.requests.send(Request::Restore {
            req_id,
            model: model.spec().name.clone(),
            tensors: descs,
            version,
        })?;
        let raw = self.wait_reply(req_id);
        if raw.is_ok() {
            self.record_rpc(req_id, TraceOp::Restore, &model.spec().name, sent);
        }
        let reply = raw.and_then(Self::expect_ok);
        // Restore registrations are transient; drop them either way.
        for mr in &mrs {
            self.nic.deregister(mr.rkey());
        }
        match reply? {
            Reply::RestoreDone {
                version,
                bytes,
                elapsed,
                ..
            } => Ok(RestoreReport {
                model: model.spec().name.clone(),
                version,
                bytes,
                elapsed,
            }),
            other => Err(PortusError::Daemon(format!(
                "unexpected reply to restore: {other:?}"
            ))),
        }
    }

    /// Marks the training job complete (enables repacking of the old
    /// version).
    ///
    /// # Errors
    ///
    /// Daemon-side failures.
    pub fn mark_complete(&self, model: &str) -> PortusResult<()> {
        let req_id = self.fresh_id();
        self.requests.send(Request::MarkComplete {
            req_id,
            model: model.to_string(),
        })?;
        Self::expect_ok(self.wait_reply(req_id)?)?;
        Ok(())
    }

    /// Drops the model from the daemon and deregisters its regions.
    ///
    /// # Errors
    ///
    /// Daemon-side failures.
    pub fn drop_model(&self, model: &str) -> PortusResult<()> {
        let req_id = self.fresh_id();
        self.requests.send(Request::Drop {
            req_id,
            model: model.to_string(),
        })?;
        Self::expect_ok(self.wait_reply(req_id)?)?;
        if let Some(mrs) = self.registered.lock().remove(model) {
            for mr in mrs {
                self.nic.deregister(mr.rkey());
            }
        }
        Ok(())
    }

    /// Lists models stored on the daemon.
    ///
    /// # Errors
    ///
    /// Daemon-side failures.
    pub fn list_models(&self) -> PortusResult<Vec<ModelSummary>> {
        let req_id = self.fresh_id();
        self.requests.send(Request::List { req_id })?;
        match Self::expect_ok(self.wait_reply(req_id)?)? {
            Reply::Models { models, .. } => Ok(models),
            other => Err(PortusError::Daemon(format!(
                "unexpected reply to list: {other:?}"
            ))),
        }
    }

    /// Fetches the daemon's observability snapshot: per-stage latency
    /// histograms (p50/p95/p99 derivable) and dispatch-queue gauges.
    ///
    /// # Errors
    ///
    /// Daemon-side failures.
    pub fn stats(&self) -> PortusResult<MetricsSnapshot> {
        let req_id = self.fresh_id();
        self.requests.send(Request::Stats { req_id })?;
        match Self::expect_ok(self.wait_reply(req_id)?)? {
            Reply::Stats { metrics, .. } => Ok(*metrics),
            other => Err(PortusError::Daemon(format!(
                "unexpected reply to stats: {other:?}"
            ))),
        }
    }

    /// The client's simulation context.
    pub fn ctx(&self) -> &SimContext {
        &self.ctx
    }
}

impl Drop for PortusClient {
    fn drop(&mut self) {
        // Best-effort goodbye so the worker thread exits promptly.
        let _ = self.requests.send(Request::Disconnect);
    }
}

/// A full checkpoint's report: nothing was copied or reused.
fn full_report(d: DeltaReport) -> CheckpointReport {
    CheckpointReport {
        model: d.model,
        version: d.version,
        bytes: d.pulled_bytes,
        elapsed: d.elapsed,
    }
}
