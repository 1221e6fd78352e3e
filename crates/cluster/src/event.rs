//! The training plane: every training client, solo or in a fleet, is
//! stepped here on the discrete-event core.
//!
//! A fleet — N storage daemons and M training clients — runs as event
//! **actors** on one [`Engine`]: every iteration, checkpoint
//! submission, and completion is a plan on the deterministic
//! `(instant, plan id)` queue, each actor keeps its own local-time
//! cursor, and daemon NICs are shared [`Resource`]s.
//! [`crate::run_training`] is the one-client, one-daemon case.
//!
//! That fixes the concurrent time-inflation of the shared additive
//! clock: two clients checkpointing at the same instant against
//! *different* daemons finish at the **max** of their durations (they
//! physically overlap), while clients contending for **one** daemon's
//! NIC still serialize FIFO — exactly the semantics DESIGN.md §15
//! specifies. Runs are a pure function of `(config, seed)`: the event
//! log, the span stream, and the metrics snapshot replay bit-for-bit.

use std::cell::RefCell;
use std::rc::Rc;

use portus_dnn::IterationProfile;
use portus_sim::{
    ActorId, CostModel, DaemonFleetStats, Engine, Metrics, MetricsSnapshot, Resource, SimDuration,
    SimTime, SpanRecord, Stage, TraceOp, Tracer,
};
use serde::{Deserialize, Serialize};

use crate::harness::Segment;
use crate::ops::{portus_checkpoint_cost, torch_save_cost, JobShape};
use crate::placement::{replica_order, replica_set, PlacementConfig};
use crate::policy::Policy;

/// The tenant every client belongs to unless the config says
/// otherwise — mirrors the daemon's `accept` ⇒ `accept_as("default")`
/// delegation, so untagged fleets aggregate under one bucket.
fn default_tenant() -> String {
    "default".to_string()
}

/// One training client of the fleet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClientSpec {
    /// Diagnostic name (also the actor name and event-log key).
    pub name: String,
    /// QoS tenant this client's checkpoints are attributed to in the
    /// fleet metrics (`"default"` when the config predates tagging).
    #[serde(default = "default_tenant")]
    pub tenant: String,
    /// Index of the daemon whose NIC serves this client's Portus ops.
    pub daemon: usize,
    /// The job's size/shape.
    pub job: JobShape,
    /// Per-iteration phase timing.
    pub profile: IterationProfile,
    /// The checkpoint policy under test.
    pub policy: Policy,
    /// Iterations to run.
    pub iterations: u64,
}

/// A scheduled daemon loss: at `at`, the daemon's NIC stops granting,
/// its in-flight Active writes are fenced by the recovery epoch, and
/// a rebalance pass re-registers its models on survivors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DaemonKill {
    /// Index of the daemon to kill.
    pub daemon: usize,
    /// Virtual instant of the loss (offset from the run origin).
    pub at: SimDuration,
}

/// A fleet run's static configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Storage daemons (each owns one NIC resource).
    pub daemons: usize,
    /// DMA engines per daemon NIC (jobs run `engines`-wide in
    /// parallel before queueing; 1 = the classic FIFO pipe).
    pub nic_engines: usize,
    /// Seed for every random decision in the run.
    pub seed: u64,
    /// Each client's start is jittered uniformly in `[0, start_jitter)`
    /// by its forked seed stream (zero = everyone starts at the origin).
    pub start_jitter: SimDuration,
    /// Rendezvous placement with k-way replication. `None` (the
    /// default) pins each client: its Portus checkpoint is one copy
    /// written to `ClientSpec::daemon` alone.
    #[serde(default)]
    pub placement: Option<PlacementConfig>,
    /// Deterministic daemon-loss schedule (requires `placement`).
    #[serde(default)]
    pub kills: Vec<DaemonKill>,
    /// The training clients.
    pub clients: Vec<ClientSpec>,
}

impl FleetConfig {
    /// A uniform fleet: `clients` identical clients round-robined over
    /// `daemons` daemons.
    /// # Panics
    ///
    /// Panics if `daemons` is zero: round-robining over an empty fleet
    /// has no consistent meaning, and deferring the failure to
    /// [`run_fleet`] would hand out a config that silently pinned
    /// every client to daemon 0.
    pub fn uniform(
        daemons: usize,
        clients: usize,
        job: JobShape,
        profile: IterationProfile,
        policy: Policy,
        iterations: u64,
    ) -> FleetConfig {
        assert!(
            daemons > 0,
            "FleetConfig::uniform needs at least one daemon (got 0)"
        );
        FleetConfig {
            daemons,
            nic_engines: 1,
            seed: 0,
            start_jitter: SimDuration::ZERO,
            placement: None,
            kills: Vec::new(),
            clients: (0..clients)
                .map(|i| ClientSpec {
                    name: format!("client-{i}"),
                    tenant: default_tenant(),
                    daemon: i % daemons,
                    job,
                    profile,
                    policy,
                    iterations,
                })
                .collect(),
        }
    }

    /// Enables rendezvous placement (k-way replication) on `self`.
    pub fn with_placement(mut self, p: PlacementConfig) -> FleetConfig {
        self.placement = Some(p);
        self
    }

    /// Schedules a daemon loss at `at`.
    pub fn with_kill(mut self, daemon: usize, at: SimDuration) -> FleetConfig {
        self.kills.push(DaemonKill { daemon, at });
        self
    }
}

/// One executed event, for deterministic-replay comparison.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventRecord {
    /// The event's instant.
    pub at: SimTime,
    /// The acting client's name (or `daemon-D` for kill/repair events).
    pub actor: String,
    /// What happened (`start`, `iter#k`, `ckpt#n` for a baseline save,
    /// `ckpt#n->daemons[..]` for a Portus pull, `kill`, `repair ...`,
    /// `done`).
    pub kind: String,
}

/// One client's outcome.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ClientResult {
    /// The client's name.
    pub name: String,
    /// The daemon that served it (the configured pin; under placement,
    /// the rendezvous order decides per checkpoint).
    pub daemon: usize,
    /// Iterations executed.
    pub iterations: u64,
    /// Checkpoints completed (under placement: attempts where at least
    /// one copy survived to validation).
    pub checkpoints: u64,
    /// Checkpoint attempts that lost every copy to a daemon kill
    /// (always zero without a kill schedule).
    #[serde(default)]
    pub failed_checkpoints: u64,
    /// Highest Portus checkpoint version the client saw validate
    /// (`None` if none did, or if the policy never writes to a daemon).
    #[serde(default)]
    pub latest_done_version: Option<u64>,
    /// The instant the client finished (including drain of in-flight
    /// background work).
    pub finished_at: SimTime,
    /// Total time training was stalled on checkpointing.
    pub checkpoint_stall: SimDuration,
    /// Total GPU-busy time.
    #[serde(default)]
    pub gpu_busy: SimDuration,
    /// Busy/idle segments tiling `[start, finished_at]` (Fig. 16).
    #[serde(default)]
    pub segments: Vec<Segment>,
}

/// End-of-run restore accounting for one client's model: which version
/// a post-run restore would serve, from where, and how many dead
/// replicas the client would fall through (the `DatapathFailed`
/// fall-through count) on the way.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ModelRestore {
    /// The owning client/model name.
    pub client: String,
    /// Latest version with a validated copy on a surviving daemon
    /// (`None` = nothing restorable, i.e. lost work).
    pub version: Option<u64>,
    /// The surviving daemon that serves it (empty when nothing is
    /// restorable).
    pub served_by: Vec<usize>,
    /// Dead replicas contacted (and failed over) before the version
    /// was fully served.
    pub failovers: u64,
}

/// The outcome of a fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetResult {
    /// Per-client outcomes, in config order.
    pub clients: Vec<ClientResult>,
    /// Every executed event, in execution order.
    pub events: Vec<EventRecord>,
    /// The canonical span stream (checkpoint submissions and
    /// completions on the virtual timeline).
    pub spans: Vec<SpanRecord>,
    /// Aggregated stage histograms.
    pub metrics: MetricsSnapshot,
    /// When the whole fleet (clients + daemon NIC drains) finished.
    pub makespan: SimDuration,
    /// Events executed by the engine.
    pub events_run: u64,
    /// Final recovery epoch (one bump per daemon loss; 0 = no losses).
    pub epoch: u64,
    /// Post-run restore accounting, in client order.
    pub restores: Vec<ModelRestore>,
}

/// One copy's write: where it landed and when its pull completed on
/// that daemon's NIC.
struct WriteRec {
    daemon: usize,
    end: SimTime,
}

/// One Portus checkpoint attempt's write record.
struct CkptRec {
    version: u64,
    writes: Vec<WriteRec>,
}

/// Mutable per-client run state.
struct ClientRun {
    spec: ClientSpec,
    actor: ActorId,
    /// The outcome so far, moved out when the run ends.
    out: ClientResult,
    /// CheckFreq's background persist drain instant.
    background_until: SimTime,
    /// Portus-async in-flight pull drain instant.
    pull_until: SimTime,
    /// Portus checkpoint write history.
    ckpts: Vec<CkptRec>,
}

impl ClientRun {
    /// Advances the client's timeline from `start` to `end` in one GPU
    /// state, recording the segment (empty spans are dropped).
    fn span(&mut self, start: SimTime, end: SimTime, busy: bool) -> SimTime {
        if end > start {
            self.out.segments.push(Segment { start, end, busy });
        }
        end
    }
}

/// Fleet-wide shared state threaded through event closures.
struct Fleet {
    model: CostModel,
    nics: Vec<Resource>,
    daemon_actors: Vec<ActorId>,
    clients: Vec<ClientRun>,
    tracer: Tracer,
    metrics: Metrics,
    events: Vec<EventRecord>,
    next_req_id: u64,
    placement: Option<PlacementConfig>,
    /// Liveness as of the current virtual instant.
    alive: Vec<bool>,
    /// Static kill schedule per daemon (`None` = survives the run).
    kill_at: Vec<Option<SimTime>>,
    /// Cluster-wide recovery epoch: bumped once per daemon loss.
    epoch: u64,
    per_daemon: Vec<DaemonFleetStats>,
}

impl Fleet {
    fn log(&mut self, at: SimTime, client: usize, kind: String) {
        self.events.push(EventRecord {
            at,
            actor: self.clients[client].spec.name.clone(),
            kind,
        });
    }

    /// Whether daemon `d` is up at instant `t` under the static kill
    /// schedule.
    fn up_at(&self, d: usize, t: SimTime) -> bool {
        self.kill_at[d].is_none_or(|k| t < k)
    }

    /// Whether a copy's write survived to validation: its pull drained
    /// before its daemon's kill instant (always true for survivors).
    fn validated(&self, w: &WriteRec) -> bool {
        self.kill_at[w.daemon].is_none_or(|k| w.end <= k)
    }

    /// Submits Portus checkpoint `version` of `client` at `submit`.
    /// Under placement one whole copy goes to each daemon of the
    /// model's replica set; a pinned client writes one copy to its pin.
    /// Every copy is pulled by its daemon's NIC, the client completes
    /// at the max of the surviving pulls, and the attempt validates iff
    /// at least one copy drained before its daemon died. Returns
    /// `(client-visible end, validated)`.
    fn submit_checkpoint(
        &mut self,
        eng: &mut Engine,
        client: usize,
        submit: SimTime,
        version: u64,
    ) -> (SimTime, bool) {
        let spec = &self.clients[client].spec;
        let (job, model, tenant) = (spec.job, spec.name.clone(), spec.tenant.clone());
        let targets = match &self.placement {
            Some(p) => replica_set(&model, &self.alive, p.replicas),
            None => vec![spec.daemon],
        };
        let mut logged = targets.clone();
        logged.sort_unstable();
        self.log(submit, client, format!("ckpt#{version}->daemons{logged:?}"));
        if targets.is_empty() {
            // Every daemon is dead: the checkpoint has nowhere to go.
            return (submit, false);
        }
        let cost = portus_checkpoint_cost(&self.model, job);
        let mut rec = CkptRec {
            version,
            writes: Vec::with_capacity(targets.len()),
        };
        let mut client_end = submit;
        let mut first_start = SimTime::ZERO + SimDuration::from_nanos(u64::MAX);
        let mut ok = false;
        for (j, &d) in targets.iter().enumerate() {
            let grant = self.nics[d].schedule(submit, cost);
            eng.advance_actor_to(self.daemon_actors[d], grant.end);
            first_start = first_start.min(grant.start);
            self.per_daemon[d].writes += 1;
            self.per_daemon[d].bytes += job.total_bytes;
            if j > 0 {
                self.per_daemon[d].replica_writes += 1;
            }
            let w = WriteRec {
                daemon: d,
                end: grant.end,
            };
            // A pull racing its daemon's death completes (from the
            // client's view) at the kill: the connection drops and the
            // client stops waiting on that replica.
            let visible = match self.kill_at[d] {
                Some(k) if grant.end > k => k,
                _ => grant.end,
            };
            client_end = client_end.max(visible);
            ok |= self.validated(&w);
            rec.writes.push(w);
        }
        self.clients[client].ckpts.push(rec);
        let req_id = self.next_req_id;
        self.next_req_id += 1;
        for (stage, start, end) in [
            (Stage::DispatchWait, submit, first_start),
            (Stage::Total, submit, client_end),
        ] {
            self.tracer.record(SpanRecord {
                req_id,
                op: TraceOp::Checkpoint,
                stage,
                model: model.clone(),
                start,
                end,
                round: 0,
                lane: 0,
            });
            self.metrics
                .record_stage(TraceOp::Checkpoint, stage, end.saturating_since(start));
        }
        self.metrics.tenant_admitted(&tenant, job.total_bytes);
        self.metrics.record_tenant_op(
            &tenant,
            TraceOp::Checkpoint,
            client_end.saturating_since(submit),
        );
        (client_end, ok)
    }

    /// The latest version of `client`'s model with a copy validated by
    /// `ok(write)` — the fleet-level Done check.
    fn restorable_version(&self, client: usize, ok: impl Fn(&WriteRec) -> bool) -> Option<u64> {
        self.clients[client]
            .ckpts
            .iter()
            .rev()
            .find(|c| c.writes.iter().any(&ok))
            .map(|c| c.version)
    }
}

/// Kills daemon `d` at the engine's current instant: bumps the
/// recovery epoch, fences its in-flight Active writes, and runs the
/// rebalance pass — every model's latest validated version is
/// re-replicated onto its post-loss replica set by copying it from a
/// surviving holder (grants on both NICs).
fn kill_daemon(fleet: &Rc<RefCell<Fleet>>, eng: &mut Engine, d: usize) {
    let mut f = fleet.borrow_mut();
    if !f.alive[d] {
        return;
    }
    let now = eng.now();
    f.alive[d] = false;
    f.epoch += 1;
    f.per_daemon[d].killed = true;
    let epoch = f.epoch;
    f.events.push(EventRecord {
        at: now,
        actor: format!("daemon-{d}"),
        kind: format!("kill epoch#{epoch}"),
    });

    // Fence: writes in flight on the dead daemon are Active slots its
    // MIndex will never seal; the epoch marks them reclaim-eligible
    // without touching any live replica.
    let fenced: u64 = f
        .clients
        .iter()
        .flat_map(|c| c.ckpts.iter())
        .flat_map(|c| c.writes.iter())
        .filter(|w| w.daemon == d && w.end > now)
        .count() as u64;
    f.per_daemon[d].fenced_active += fenced;

    // Rebalance: re-register each model on its post-loss replica set
    // and repair the copies it is missing from a survivor.
    let p = f.placement.expect("kills require placement");
    for ci in 0..f.clients.len() {
        // A copy is repair-eligible as a source if it validated before
        // `now` on a daemon still up at `now`.
        let source = |w: &WriteRec| w.end <= now && f.up_at(w.daemon, now) && f.validated(w);
        let Some(target_version) = f.restorable_version(ci, source) else {
            continue;
        };
        let (model, job) = {
            let c = &f.clients[ci];
            (c.spec.name.clone(), c.spec.job)
        };
        let rec_idx = f.clients[ci]
            .ckpts
            .iter()
            .position(|c| c.version == target_version)
            .expect("restorable version exists");
        let holders: Vec<usize> = f.clients[ci].ckpts[rec_idx]
            .writes
            .iter()
            .filter(|w| source(w))
            .map(|w| w.daemon)
            .collect();
        let src = holders[0];
        let cost = portus_checkpoint_cost(&f.model, job);
        for t in replica_set(&model, &f.alive, p.replicas) {
            if holders.contains(&t) {
                continue;
            }
            // Copy the checkpoint survivor→target over the fabric: a
            // read grant on the source NIC, a write grant on the target
            // NIC, completion at the max.
            let read = f.nics[src].schedule(now, cost);
            let write = f.nics[t].schedule(now, cost);
            let end = read.end.max(write.end);
            eng.advance_actor_to(f.daemon_actors[src], read.end);
            eng.advance_actor_to(f.daemon_actors[t], write.end);
            f.per_daemon[t].repairs_in += 1;
            f.per_daemon[t].repair_bytes += job.total_bytes;
            f.events.push(EventRecord {
                at: now,
                actor: format!("daemon-{d}"),
                kind: format!("repair {model} v{target_version} daemon{src}->daemon{t}"),
            });
            f.clients[ci].ckpts[rec_idx]
                .writes
                .push(WriteRec { daemon: t, end });
        }
    }
}

/// Runs the next iteration of `client` under its policy's Fig. 9
/// timeline (see [`Policy`]), then schedules the one after at the
/// client's new cursor.
fn step_client(fleet: &Rc<RefCell<Fleet>>, eng: &mut Engine, client: usize) {
    let mut guard = fleet.borrow_mut();
    let f = &mut *guard;
    let (actor, spec) = (f.clients[client].actor, &f.clients[client].spec);
    let (profile, policy, iterations, job) = (spec.profile, spec.policy, spec.iterations, spec.job);
    let mut cursor = eng.actor_now(actor).max(eng.now());
    let i = f.clients[client].out.iterations + 1;
    f.log(cursor, client, format!("iter#{i}"));

    let trigger = policy
        .interval()
        .is_some_and(|k| k > 0 && i.is_multiple_of(k as u64));

    // --- checkpoint actions at the start of the iteration ---
    if trigger {
        let start = cursor;
        let out = &f.clients[client].out;
        let version = out.checkpoints + out.failed_checkpoints + 1;
        match policy {
            Policy::None => {}
            Policy::TorchSave { backend, .. } | Policy::CheckFreq { backend, .. } => {
                // The baselines bypass the Portus daemons: the save
                // runs on the client's own actor.
                f.log(cursor, client, format!("ckpt#{version}"));
                let op = torch_save_cost(&f.model, job, backend);
                let c = &mut f.clients[client];
                c.out.checkpoints += 1;
                if matches!(policy, Policy::TorchSave { .. }) {
                    cursor = c.span(cursor, cursor + op.total(), false);
                } else {
                    // CheckFreq waits out the previous background
                    // persist; only the snapshot stalls training.
                    cursor = c.span(cursor, c.background_until.max(cursor), false);
                    cursor = c.span(cursor, cursor + op.snapshot, false);
                    c.background_until = cursor + op.persist_side();
                }
            }
            Policy::PortusSync { .. } | Policy::PortusAsync { .. } => {
                let sync = matches!(policy, Policy::PortusSync { .. });
                if !sync {
                    // A new pull waits for the previous one to drain.
                    let c = &mut f.clients[client];
                    cursor = c.span(cursor, c.pull_until.max(cursor), false);
                }
                let (end, ok) = f.submit_checkpoint(eng, client, cursor, version);
                if !ok {
                    let lost = format!("ckpt#{version} lost (no surviving replica)");
                    f.log(end, client, lost);
                }
                let c = &mut f.clients[client];
                if ok {
                    c.out.checkpoints += 1;
                    c.out.latest_done_version = Some(version);
                } else {
                    c.out.failed_checkpoints += 1;
                }
                if sync {
                    cursor = c.span(cursor, end, false);
                } else {
                    c.pull_until = end;
                }
            }
        }
        f.clients[client].out.checkpoint_stall += cursor - start;
    }

    // --- the iteration itself ---
    let c = &mut f.clients[client];
    let update_start = cursor + profile.forward + profile.backward;
    let mut iter_stall = SimDuration::ZERO;
    if matches!(policy, Policy::PortusAsync { .. }) && c.pull_until > update_start {
        // The update phase begins while tensors are still being
        // pulled: it defers by (up to) one update-phase length.
        iter_stall = profile
            .update
            .min(c.pull_until.saturating_since(update_start));
        c.out.checkpoint_stall += iter_stall;
    }
    // Busy time is one contiguous span per iteration; the intrinsic
    // idle tail models data-loading gaps.
    let busy = profile.gpu_busy();
    cursor = c.span(cursor, cursor + busy, true);
    c.out.gpu_busy += busy;
    cursor = c.span(
        cursor,
        cursor + (profile.total() - busy) + iter_stall,
        false,
    );
    eng.advance_actor_to(actor, cursor);
    c.out.iterations = i;

    if i < iterations {
        drop(guard);
        let fleet = fleet.clone();
        eng.schedule_at(cursor, move |e| step_client(&fleet, e, client));
    } else {
        // Drain outstanding background work so runs are comparable.
        let drain_to = c.background_until.max(c.pull_until).max(cursor);
        c.span(cursor, drain_to, false);
        c.out.finished_at = drain_to;
        eng.advance_actor_to(actor, drain_to);
        f.log(drain_to, client, "done".to_string());
    }
}

/// Simulates the whole fleet; deterministic for a given `(cfg, seed)`.
///
/// # Panics
///
/// Panics if `cfg.daemons` is zero, `cfg.clients` is empty, a client
/// names a daemon index out of range, a kill names a daemon out of
/// range, or kills are scheduled without a placement config (there is
/// no replication to survive them).
pub fn run_fleet(m: &CostModel, cfg: &FleetConfig) -> FleetResult {
    assert!(cfg.daemons > 0, "a fleet needs at least one daemon");
    assert!(!cfg.clients.is_empty(), "a fleet needs at least one client");
    for c in &cfg.clients {
        assert!(
            c.daemon < cfg.daemons,
            "client {} names daemon {} of {}",
            c.name,
            c.daemon,
            cfg.daemons
        );
    }
    assert!(
        cfg.kills.is_empty() || cfg.placement.is_some(),
        "a kill schedule needs a placement config"
    );
    for k in &cfg.kills {
        assert!(
            k.daemon < cfg.daemons,
            "kill names daemon {} of {}",
            k.daemon,
            cfg.daemons
        );
    }
    if let Some(p) = &cfg.placement {
        assert!(p.replicas >= 1, "placement needs at least one replica");
    }

    let mut eng = Engine::with_seed(cfg.seed);

    let tracer = Tracer::new();
    tracer.enable();
    let daemon_actors: Vec<ActorId> = (0..cfg.daemons).map(|_| eng.add_actor()).collect();
    let nics: Vec<Resource> = (0..cfg.daemons)
        .map(|d| Resource::with_capacity(&format!("daemon-{d}/nic"), cfg.nic_engines))
        .collect();
    let clients: Vec<ClientRun> = cfg
        .clients
        .iter()
        .map(|spec| ClientRun {
            spec: spec.clone(),
            actor: eng.add_actor(),
            out: ClientResult {
                name: spec.name.clone(),
                daemon: spec.daemon,
                ..ClientResult::default()
            },
            background_until: SimTime::ZERO,
            pull_until: SimTime::ZERO,
            ckpts: Vec::new(),
        })
        .collect();

    // The static kill schedule: earliest kill wins per daemon.
    let mut kill_at: Vec<Option<SimTime>> = vec![None; cfg.daemons];
    for k in &cfg.kills {
        let at = SimTime::ZERO + k.at;
        kill_at[k.daemon] = Some(kill_at[k.daemon].map_or(at, |p: SimTime| p.min(at)));
    }

    let fleet = Rc::new(RefCell::new(Fleet {
        model: m.clone(),
        nics,
        daemon_actors,
        clients,
        tracer,
        metrics: Metrics::new(),
        events: Vec::new(),
        next_req_id: 1,
        placement: cfg.placement,
        alive: vec![true; cfg.daemons],
        kill_at: kill_at.clone(),
        epoch: 0,
        per_daemon: (0..cfg.daemons)
            .map(|d| DaemonFleetStats {
                daemon: d as u64,
                ..DaemonFleetStats::default()
            })
            .collect(),
    }));

    for (d, at) in kill_at.iter().enumerate() {
        if let Some(at) = *at {
            let fleet = fleet.clone();
            eng.schedule_at(at, move |e| kill_daemon(&fleet, e, d));
        }
    }

    // Seeded start jitter: each client gets its own forked stream, so
    // adding a client never perturbs another client's draw.
    for idx in 0..cfg.clients.len() {
        let start = if cfg.start_jitter.is_zero() {
            SimTime::ZERO
        } else {
            let mut rng = eng.fork_rng(idx as u64);
            SimTime::ZERO + SimDuration::from_nanos(rng.gen_range(cfg.start_jitter.as_nanos()))
        };
        {
            let mut f = fleet.borrow_mut();
            let actor = f.clients[idx].actor;
            eng.advance_actor_to(actor, start);
            f.log(start, idx, "start".to_string());
            if f.clients[idx].spec.iterations == 0 {
                f.clients[idx].out.finished_at = start;
                f.log(start, idx, "done".to_string());
                continue;
            }
        }
        let fleet = fleet.clone();
        eng.schedule_at(start, move |e| step_client(&fleet, e, idx));
    }

    eng.run();

    let mut guard = fleet.borrow_mut();
    let f = &mut *guard;
    // A dead daemon's NIC stops granting at its kill: whatever queue
    // it had drains nowhere and must not stretch the makespan.
    let nic_drain = f
        .nics
        .iter()
        .enumerate()
        .map(|(d, n)| match f.kill_at[d] {
            Some(k) => n.busy_until().min(k),
            None => n.busy_until(),
        })
        .max()
        .unwrap_or(SimTime::ZERO);
    let makespan = f
        .clients
        .iter()
        .map(|c| c.out.finished_at)
        .max()
        .unwrap_or(SimTime::ZERO)
        .max(nic_drain)
        .saturating_since(SimTime::ZERO);

    // Post-run restore accounting: for each model, the version a
    // restore would serve and the dead replicas it falls through
    // (each a `DatapathFailed` before the next replica answers).
    let mut restores = Vec::new();
    let mut restore_failovers = 0u64;
    for (ci, c) in f.clients.iter().enumerate() {
        let version = f.restorable_version(ci, |w| f.kill_at[w.daemon].is_none() && f.validated(w));
        let mut served_by = Vec::new();
        let mut failovers = 0u64;
        if let Some(v) = version {
            let rec = c.ckpts.iter().find(|r| r.version == v).expect("restorable");
            for d in replica_order(&c.spec.name, &vec![true; cfg.daemons]) {
                if !rec.writes.iter().any(|w| w.daemon == d) {
                    continue;
                }
                if f.kill_at[d].is_some() {
                    // The placement says this daemon holds the version;
                    // contacting it fails and the restore falls through
                    // to the next replica.
                    failovers += 1;
                } else {
                    served_by.push(d);
                    break;
                }
            }
        }
        restore_failovers += failovers;
        restores.push(ModelRestore {
            client: c.spec.name.clone(),
            version,
            served_by,
            failovers,
        });
    }

    let mut metrics = f.metrics.snapshot();
    metrics.fleet = std::mem::take(&mut f.per_daemon);
    metrics.recovery_epoch = f.epoch;
    metrics.restore_failovers = restore_failovers;

    FleetResult {
        clients: f
            .clients
            .iter_mut()
            .map(|c| std::mem::take(&mut c.out))
            .collect(),
        events: std::mem::take(&mut f.events),
        spans: f.tracer.spans(),
        metrics,
        makespan,
        events_run: eng.events_run(),
        epoch: f.epoch,
        restores,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portus_sim::SimDuration;

    fn small_job() -> JobShape {
        JobShape::single(1_000_000_000, 300)
    }

    fn profile() -> IterationProfile {
        IterationProfile::from_total(SimDuration::from_millis(350))
    }

    fn fleet(daemons: usize, clients: usize) -> FleetConfig {
        FleetConfig::uniform(
            daemons,
            clients,
            small_job(),
            profile(),
            Policy::PortusSync { every: 10 },
            50,
        )
    }

    #[test]
    fn independent_daemons_overlap_contended_daemons_serialize() {
        let m = CostModel::icdcs24();
        let solo = run_fleet(&m, &fleet(1, 1));
        // 4 clients, each with its own daemon: true overlap, the fleet
        // finishes in ~1x the solo makespan.
        let spread = run_fleet(&m, &fleet(4, 4));
        let ratio = spread.makespan.as_secs_f64() / solo.makespan.as_secs_f64();
        assert!(
            (0.99..1.05).contains(&ratio),
            "independent clients must overlap, got {ratio:.3}x"
        );
        // 4 clients hammering one daemon: pulls serialize on its NIC,
        // so the fleet is measurably slower than solo but far below 4x
        // (compute still overlaps).
        let packed = run_fleet(&m, &fleet(1, 4));
        assert!(
            packed.makespan > spread.makespan,
            "contention must cost virtual time"
        );
        let p99_packed = packed
            .metrics
            .stage(TraceOp::Checkpoint, Stage::Total)
            .unwrap()
            .p99();
        let p99_spread = spread
            .metrics
            .stage(TraceOp::Checkpoint, Stage::Total)
            .unwrap()
            .p99();
        assert!(
            p99_packed > p99_spread,
            "queueing on one NIC must show up in checkpoint latency"
        );
    }

    #[test]
    fn same_seed_replays_bit_for_bit() {
        let m = CostModel::icdcs24();
        let mut cfg = fleet(2, 6);
        cfg.seed = 42;
        cfg.start_jitter = SimDuration::from_millis(100);
        let a = run_fleet(&m, &cfg);
        let b = run_fleet(&m, &cfg);
        assert_eq!(a.events, b.events);
        assert_eq!(a.spans, b.spans);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.makespan, b.makespan);

        let mut other = cfg.clone();
        other.seed = 43;
        let c = run_fleet(&m, &other);
        assert_ne!(a.events, c.events, "a different seed must shift the jitter");
    }

    #[test]
    fn zero_iteration_clients_run_nothing() {
        let m = CostModel::icdcs24();
        let mut cfg = FleetConfig::uniform(
            1,
            1,
            small_job(),
            profile(),
            Policy::PortusSync { every: 1 },
            0,
        );
        cfg.start_jitter = SimDuration::from_millis(100);
        cfg.seed = 3;
        let out = run_fleet(&m, &cfg);
        let c = &out.clients[0];
        assert_eq!(c.iterations, 0);
        assert_eq!(c.checkpoints, 0);
        assert_eq!(c.checkpoint_stall, SimDuration::ZERO);
        assert!(c.segments.is_empty());
        let kinds: Vec<&str> = out.events.iter().map(|e| e.kind.as_str()).collect();
        assert_eq!(kinds, ["start", "done"]);
        assert!(out.events.iter().all(|e| e.at == c.finished_at));
        assert!(out.spans.is_empty());
    }

    #[test]
    fn jittered_clients_segments_tile_their_runs() {
        let m = CostModel::icdcs24();
        let mut cfg = fleet(2, 5);
        cfg.seed = 11;
        cfg.start_jitter = SimDuration::from_millis(300);
        for (i, c) in cfg.clients.iter_mut().enumerate() {
            c.policy = match i % 3 {
                0 => Policy::PortusAsync { every: 7 },
                1 => Policy::PortusSync { every: 5 },
                _ => Policy::CheckFreq {
                    every: 10,
                    backend: crate::ops::Backend::BeegfsPmem,
                },
            };
        }
        let out = run_fleet(&m, &cfg);
        for c in &out.clients {
            let start = out
                .events
                .iter()
                .find(|e| e.actor == c.name && e.kind == "start")
                .expect("every client logs its start")
                .at;
            assert!(
                start > SimTime::ZERO,
                "{}: jitter must shift the start",
                c.name
            );
            let mut cursor = start;
            for s in &c.segments {
                assert_eq!(s.start, cursor, "{}: segments must tile", c.name);
                cursor = s.end;
            }
            assert_eq!(cursor, c.finished_at, "{}", c.name);
            let busy: SimDuration = c
                .segments
                .iter()
                .filter(|s| s.busy)
                .map(|s| s.end - s.start)
                .sum();
            assert_eq!(busy, c.gpu_busy, "{}", c.name);
            assert_eq!(busy, profile().gpu_busy() * 50, "{}", c.name);
        }
    }

    #[test]
    fn async_fleet_overlaps_pulls_with_compute() {
        let m = CostModel::icdcs24();
        let mut cfg = fleet(2, 4);
        for c in &mut cfg.clients {
            c.policy = Policy::PortusAsync { every: 10 };
        }
        let out = run_fleet(&m, &cfg);
        for c in &out.clients {
            assert_eq!(c.checkpoints, 5);
            let sync_cost = portus_checkpoint_cost(&m, small_job());
            assert!(
                c.checkpoint_stall < sync_cost * c.checkpoints,
                "async stalls must undercut synchronous pulls"
            );
        }
    }

    #[test]
    fn multi_engine_nics_absorb_concurrent_pulls() {
        let m = CostModel::icdcs24();
        let narrow = run_fleet(&m, &fleet(1, 4));
        let mut wide_cfg = fleet(1, 4);
        wide_cfg.nic_engines = 4;
        let wide = run_fleet(&m, &wide_cfg);
        assert!(
            wide.makespan < narrow.makespan,
            "4 NIC engines must beat 1 under 4-way contention"
        );
    }

    #[test]
    #[should_panic(expected = "names daemon")]
    fn out_of_range_daemon_panics() {
        let m = CostModel::icdcs24();
        let mut cfg = fleet(1, 1);
        cfg.clients[0].daemon = 3;
        run_fleet(&m, &cfg);
    }

    #[test]
    #[should_panic(expected = "at least one daemon (got 0)")]
    fn uniform_rejects_zero_daemons_up_front() {
        // The old `i % daemons.max(1)` masked this into a config that
        // pinned everyone to daemon 0 and let run_fleet panic later.
        fleet(0, 4);
    }

    #[test]
    #[should_panic(expected = "kill schedule needs a placement config")]
    fn kills_without_placement_panic() {
        let m = CostModel::icdcs24();
        let cfg = fleet(2, 2).with_kill(0, SimDuration::from_secs(1));
        run_fleet(&m, &cfg);
    }

    use crate::placement::PlacementConfig;

    fn replicated(daemons: usize, clients: usize, k: usize) -> FleetConfig {
        fleet(daemons, clients).with_placement(PlacementConfig::mirrored(k))
    }

    #[test]
    fn replication_fans_every_checkpoint_out_to_k_daemons() {
        let m = CostModel::icdcs24();
        let out = run_fleet(&m, &replicated(4, 2, 2));
        for c in &out.clients {
            assert_eq!(c.checkpoints, 5);
            assert_eq!(c.failed_checkpoints, 0);
        }
        let fleet_stats = &out.metrics.fleet;
        assert_eq!(fleet_stats.len(), 4);
        let writes: u64 = fleet_stats.iter().map(|d| d.writes).sum();
        let replicas: u64 = fleet_stats.iter().map(|d| d.replica_writes).sum();
        // 2 clients x 5 checkpoints x 2 copies, half of them replicas.
        assert_eq!(writes, 20);
        assert_eq!(replicas, 10);
        assert_eq!(out.epoch, 0);
        for r in &out.restores {
            assert_eq!(r.version, Some(5));
            assert_eq!(r.failovers, 0);
        }
    }

    #[test]
    fn unreplicated_kill_loses_work_replicated_kill_does_not() {
        let m = CostModel::icdcs24();
        // Kill client-0's primary daemon after its last checkpoint
        // validated (the 50-iteration run checkpoints for the 5th and
        // final time around 18.4 s). With k=1 every copy it ever wrote
        // lived on that daemon; with k=2 the replica survives.
        let primary = crate::placement::replica_set("client-0", &[true, true, true], 1)[0];
        let at = SimDuration::from_secs(19);
        let lossy = run_fleet(&m, &replicated(3, 3, 1).with_kill(primary, at));
        let safe = run_fleet(&m, &replicated(3, 3, 2).with_kill(primary, at));
        assert_eq!(lossy.epoch, 1);
        assert_eq!(safe.epoch, 1);
        let lost = lossy
            .restores
            .iter()
            .find(|r| r.client == "client-0")
            .unwrap();
        assert_eq!(
            lost.version, None,
            "k=1 must lose every checkpoint held only by the dead primary"
        );
        for r in &safe.restores {
            assert_eq!(
                r.version,
                Some(5),
                "k=2 must restore the latest version for {}",
                r.client
            );
            assert!(
                r.served_by.iter().all(|&d| d != primary),
                "dead daemons cannot serve"
            );
        }
        let served = safe
            .restores
            .iter()
            .find(|r| r.client == "client-0")
            .unwrap();
        assert!(
            served.failovers >= 1,
            "restoring past a dead primary must fall through it"
        );
        assert!(safe.metrics.fleet[primary].killed);
    }

    #[test]
    fn kill_schedules_replay_bit_for_bit() {
        let m = CostModel::icdcs24();
        let mut cfg = replicated(4, 6, 2)
            .with_kill(2, SimDuration::from_secs(5))
            .with_kill(0, SimDuration::from_secs(9));
        cfg.seed = 99;
        cfg.start_jitter = SimDuration::from_millis(150);
        let a = run_fleet(&m, &cfg);
        let b = run_fleet(&m, &cfg);
        assert_eq!(a.events, b.events);
        assert_eq!(a.spans, b.spans);
        assert_eq!(a.metrics, b.metrics);
        assert_eq!(a.restores, b.restores);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.epoch, 2);
    }

    #[test]
    fn fleet_metrics_attribute_checkpoints_to_tenants() {
        let m = CostModel::icdcs24();
        let mut cfg = fleet(2, 4);
        cfg.clients[0].tenant = "research".to_string();
        cfg.clients[1].tenant = "research".to_string();
        let out = run_fleet(&m, &cfg);
        let research = out.metrics.tenant("research").expect("tagged tenant");
        let untagged = out.metrics.tenant("default").expect("untagged default");
        // 4 clients x 5 checkpoints each, split evenly across tenants.
        assert_eq!(research.admitted_ops, 10);
        assert_eq!(untagged.admitted_ops, 10);
        assert_eq!(research.checkpoint.count, 10);
        assert_eq!(
            research.admitted_bytes,
            10 * small_job().total_bytes,
            "admitted bytes must sum the tagged clients' jobs"
        );
        assert_eq!(research.throttled_ops, 0);
        assert_eq!(research.restore.count, 0);
    }

    #[test]
    fn pinned_fleet_writes_only_to_its_pins() {
        // Without placement each Portus checkpoint is one copy on the
        // client's pin, and the per-daemon stats and restore accounting
        // every fleet exports say so.
        let m = CostModel::icdcs24();
        let mut cfg = fleet(2, 4);
        cfg.seed = 7;
        let out = run_fleet(&m, &cfg);
        for spec in &cfg.clients {
            let ckpts: Vec<&EventRecord> = out
                .events
                .iter()
                .filter(|e| e.actor == spec.name && e.kind.starts_with("ckpt#"))
                .collect();
            assert_eq!(ckpts.len(), 5);
            let pin = format!("->daemons[{}]", spec.daemon);
            for e in ckpts {
                assert!(e.kind.ends_with(&pin), "{}: {}", spec.name, e.kind);
            }
        }
        assert_eq!(out.metrics.fleet.len(), 2);
        for d in &out.metrics.fleet {
            // 2 clients per daemon x 5 checkpoints, no copies elsewhere.
            assert_eq!(d.writes, 10);
            assert_eq!(d.replica_writes, 0);
        }
        assert_eq!(out.epoch, 0);
        assert_eq!(out.metrics.recovery_epoch, 0);
        assert_eq!(out.metrics.restore_failovers, 0);
        assert_eq!(out.restores.len(), cfg.clients.len());
        for (spec, r) in cfg.clients.iter().zip(&out.restores) {
            assert_eq!(r.version, Some(5));
            assert_eq!(r.served_by, [spec.daemon]);
            assert_eq!(r.failovers, 0);
        }
    }
}
