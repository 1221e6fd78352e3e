//! # portus-train
//!
//! The training-loop integration the paper promises as a "user-friendly
//! solution for DNN checkpointing" (§I): a [`Trainer`] owns a model
//! instance and a [`PortusClient`] connection and drives the
//! forward/backward/update cycle of Fig. 8, invoking the configured
//! [`TrainPolicy`] at the right phase boundaries:
//!
//! * synchronous — block for the pull at each checkpoint iteration;
//! * asynchronous — issue the pull at the iteration boundary, run
//!   forward/backward under it, and settle at the update-phase barrier
//!   ([`PortusClient::guard_update`]);
//! * incremental — track dirty tensors across iterations and send only
//!   the changed ones ([`PortusClient::checkpoint_delta`]).
//!
//! After a failure, [`Trainer::recover`] restores the latest complete
//! version and rewinds the iteration counter to the recovered
//! checkpoint, so training resumes exactly where durability left off.
//!
//! # Examples
//!
//! ```
//! use portus::{DaemonConfig, PortusClient, PortusDaemon};
//! use portus_dnn::{test_spec, IterationProfile, Materialization, ModelInstance};
//! use portus_mem::GpuDevice;
//! use portus_pmem::{PmemDevice, PmemMode};
//! use portus_rdma::{Fabric, NodeId};
//! use portus_sim::{SimContext, SimDuration};
//! use portus_train::{TrainPolicy, Trainer};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let ctx = SimContext::icdcs24();
//! let fabric = Fabric::new(ctx.clone());
//! let compute = fabric.add_nic(NodeId(0));
//! fabric.add_nic(NodeId(1));
//! let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 64 << 20);
//! let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem, DaemonConfig::default())?;
//! let gpu = GpuDevice::new(ctx, 0, 1 << 30);
//!
//! let model = ModelInstance::materialize(
//!     &test_spec("toy", 4, 65536), &gpu, 1, Materialization::Owned)?;
//! let client = PortusClient::connect(&daemon, compute);
//! let profile = IterationProfile::from_total(SimDuration::from_millis(50));
//!
//! let mut trainer = Trainer::new(client, model, profile,
//!     TrainPolicy::Async { every: 5 })?;
//! let stats = trainer.run(20)?;
//! assert_eq!(stats.iterations, 20);
//! assert_eq!(stats.checkpoints_completed, 4);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use portus::{CheckpointReport, PortusClient, PortusResult};
use portus_dnn::{IterationProfile, ModelInstance};
use portus_sim::SimDuration;

/// How (and how often) the trainer checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrainPolicy {
    /// Never checkpoint.
    None,
    /// Block for the full pull every `every` iterations (Fig. 9c).
    Sync {
        /// Checkpoint interval in iterations.
        every: u64,
    },
    /// Issue the pull and only settle at the update barrier (Fig. 9d).
    Async {
        /// Checkpoint interval in iterations.
        every: u64,
    },
    /// Incremental: send only tensors dirtied since the last
    /// checkpoint (extension; DESIGN.md §9).
    Delta {
        /// Checkpoint interval in iterations.
        every: u64,
    },
}

impl TrainPolicy {
    fn interval(self) -> Option<u64> {
        match self {
            TrainPolicy::None => None,
            TrainPolicy::Sync { every }
            | TrainPolicy::Async { every }
            | TrainPolicy::Delta { every } => Some(every.max(1)),
        }
    }
}

/// Counters accumulated by [`Trainer::run`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TrainerStats {
    /// Iterations executed by this `run` call.
    pub iterations: u64,
    /// Checkpoints whose completion was confirmed.
    pub checkpoints_completed: u64,
    /// Bytes that crossed the fabric for checkpointing.
    pub bytes_checkpointed: u64,
    /// Clean bytes delta checkpoints left in place because the target
    /// slot already held them (delta policy only).
    pub bytes_reused: u64,
    /// Virtual time spent blocked on checkpointing (sync pulls, async
    /// update barriers).
    pub checkpoint_stall: SimDuration,
    /// Virtual time charged for compute phases.
    pub compute_time: SimDuration,
}

impl TrainerStats {
    /// Counter-wise difference `self - earlier`.
    pub(crate) fn since(&self, earlier: &TrainerStats) -> TrainerStats {
        TrainerStats {
            iterations: self.iterations - earlier.iterations,
            checkpoints_completed: self.checkpoints_completed - earlier.checkpoints_completed,
            bytes_checkpointed: self.bytes_checkpointed - earlier.bytes_checkpointed,
            bytes_reused: self.bytes_reused - earlier.bytes_reused,
            checkpoint_stall: self.checkpoint_stall - earlier.checkpoint_stall,
            compute_time: self.compute_time - earlier.compute_time,
        }
    }
}

/// A training driver bound to one model and one daemon connection.
///
/// See the crate docs for a complete example.
#[derive(Debug)]
pub struct Trainer {
    client: PortusClient,
    model: ModelInstance,
    profile: IterationProfile,
    policy: TrainPolicy,
    /// Global iteration counter (survives across `run` calls; rewound
    /// by `recover`).
    step: u64,
    /// Iteration covered by the last *completed* checkpoint.
    last_durable_step: u64,
    stats: TrainerStats,
}

impl Trainer {
    /// Registers `model` with the daemon behind `client` and builds the
    /// trainer.
    ///
    /// # Errors
    ///
    /// Registration failures (structure mismatch, table full).
    pub fn new(
        client: PortusClient,
        model: ModelInstance,
        profile: IterationProfile,
        policy: TrainPolicy,
    ) -> PortusResult<Trainer> {
        client.register_model(&model)?;
        Ok(Trainer {
            client,
            model,
            profile,
            policy,
            step: 0,
            last_durable_step: 0,
            stats: TrainerStats::default(),
        })
    }

    /// The model name this trainer drives.
    pub fn model_name(&self) -> &str {
        &self.model.spec().name
    }

    /// Global iteration counter.
    pub fn step(&self) -> u64 {
        self.step
    }

    /// The last iteration whose state is durable on PMem.
    pub fn last_durable_step(&self) -> u64 {
        self.last_durable_step
    }

    /// The model (e.g. to inspect or checksum between runs).
    pub fn model(&self) -> &ModelInstance {
        &self.model
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> TrainerStats {
        self.stats
    }

    fn ctx(&self) -> &portus_sim::SimContext {
        self.client.ctx()
    }

    fn charge_compute(&mut self, d: SimDuration) {
        self.ctx().charge(d);
        self.stats.compute_time += d;
    }

    fn note_completed(&mut self, report: &CheckpointReport, covered_step: u64) {
        self.stats.checkpoints_completed += 1;
        self.stats.bytes_checkpointed += report.bytes;
        self.last_durable_step = self.last_durable_step.max(covered_step);
    }

    /// Runs `iterations` training iterations under the policy.
    ///
    /// # Errors
    ///
    /// Checkpoint/restore failures surfaced by the daemon.
    pub fn run(&mut self, iterations: u64) -> PortusResult<TrainerStats> {
        let start_stats = self.stats;
        let name = self.model.spec().name.clone();
        // Maps an in-flight async pull to the step it covers.
        let mut inflight_covers: Option<u64> = None;

        for _ in 0..iterations {
            self.step += 1;
            self.stats.iterations += 1;
            let trigger = self
                .policy
                .interval()
                .is_some_and(|k| self.step.is_multiple_of(k));

            // Forward + backward: parameters are read-only; an async
            // pull proceeds underneath.
            self.charge_compute(self.profile.forward + self.profile.backward);

            // Update barrier: settle any in-flight pull before mutating
            // parameters (Fig. 8).
            if let Some(covered) = inflight_covers.take() {
                let t0 = self.ctx().clock.now();
                if let Some(report) = self.client.guard_update(&name)? {
                    let stall = self.ctx().clock.now().saturating_since(t0);
                    self.stats.checkpoint_stall += stall;
                    self.note_completed(&report, covered);
                }
            }

            // Update phase.
            self.model.train_step();
            self.charge_compute(self.profile.update);

            if !trigger {
                continue;
            }
            match self.policy {
                TrainPolicy::None => {}
                TrainPolicy::Sync { .. } => {
                    let t0 = self.ctx().clock.now();
                    let report = self.client.checkpoint(&name)?;
                    let stall = self.ctx().clock.now().saturating_since(t0);
                    self.stats.checkpoint_stall += stall;
                    self.model.take_dirty();
                    self.note_completed(&report, self.step);
                }
                TrainPolicy::Async { .. } => {
                    self.client.checkpoint_async(&name)?;
                    self.model.take_dirty();
                    inflight_covers = Some(self.step);
                }
                TrainPolicy::Delta { .. } => {
                    let dirty = self.model.take_dirty();
                    let t0 = self.ctx().clock.now();
                    let report = self.client.checkpoint_delta(&name, &dirty)?;
                    let stall = self.ctx().clock.now().saturating_since(t0);
                    self.stats.checkpoint_stall += stall;
                    self.stats.bytes_checkpointed += report.pulled_bytes;
                    self.stats.bytes_reused += report.reused_bytes;
                    self.stats.checkpoints_completed += 1;
                    self.last_durable_step = self.step;
                }
            }
        }

        // Settle a pull still in flight at the end of the run.
        if let Some(covered) = inflight_covers {
            let t0 = self.ctx().clock.now();
            if let Some(report) = self.client.guard_update(&name)? {
                let stall = self.ctx().clock.now().saturating_since(t0);
                self.stats.checkpoint_stall += stall;
                self.note_completed(&report, covered);
            }
        }

        Ok(self.stats.since(&start_stats))
    }

    /// Recovers after a (simulated) failure: restores the latest
    /// complete version into the model and rewinds the iteration
    /// counter to the step that version covered. Returns the number of
    /// iterations of lost work.
    ///
    /// # Errors
    ///
    /// [`portus::PortusError::NoValidCheckpoint`] if nothing durable
    /// exists, and restore failures.
    pub fn recover(&mut self) -> PortusResult<u64> {
        self.client.restore(&self.model)?;
        let lost = self.step.saturating_sub(self.last_durable_step);
        self.step = self.last_durable_step;
        // Everything is clean relative to the restored checkpoint.
        self.model.take_dirty();
        Ok(lost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portus::{DaemonConfig, PortusDaemon};
    use portus_dnn::{test_spec, Materialization};
    use portus_mem::GpuDevice;
    use portus_pmem::{PmemDevice, PmemMode};
    use portus_rdma::{Fabric, NodeId};
    use portus_sim::SimContext;

    fn trainer(policy: TrainPolicy, layers: usize) -> Trainer {
        let ctx = SimContext::icdcs24();
        let fabric = Fabric::new(ctx.clone());
        let compute = fabric.add_nic(NodeId(0));
        fabric.add_nic(NodeId(1));
        let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 128 << 20);
        let daemon =
            PortusDaemon::start(&fabric, NodeId(1), pmem, DaemonConfig::default()).unwrap();
        let gpu = GpuDevice::new(ctx, 0, 1 << 30);
        let model = ModelInstance::materialize(
            &test_spec("trainee", layers, 64 * 1024),
            &gpu,
            7,
            Materialization::Owned,
        )
        .unwrap();
        let client = PortusClient::connect(&daemon, compute);
        let profile = IterationProfile::from_total(SimDuration::from_millis(40));
        Trainer::new(client, model, profile, policy).unwrap()
    }

    #[test]
    fn sync_policy_checkpoints_on_schedule() {
        let mut t = trainer(TrainPolicy::Sync { every: 5 }, 6);
        let stats = t.run(23).unwrap();
        assert_eq!(stats.iterations, 23);
        assert_eq!(stats.checkpoints_completed, 4); // at 5, 10, 15, 20
        assert_eq!(t.last_durable_step(), 20);
        assert!(stats.checkpoint_stall > SimDuration::ZERO);
        assert_eq!(stats.bytes_checkpointed, 4 * 6 * 64 * 1024);
    }

    #[test]
    fn async_policy_completes_all_pulls() {
        let mut t = trainer(TrainPolicy::Async { every: 4 }, 6);
        let stats = t.run(16).unwrap();
        assert_eq!(stats.checkpoints_completed, 4);
        assert_eq!(t.last_durable_step(), 16);
    }

    #[test]
    fn delta_policy_sends_fewer_bytes_than_sync() {
        // train_step dirties every tensor, so no delta finds one in
        // place: reuse only helps a tensor that stays untouched, which
        // the sparse API exercises (tests/trainer.rs).
        let mut t = trainer(TrainPolicy::Delta { every: 3 }, 8);
        let stats = t.run(9).unwrap();
        assert_eq!(stats.checkpoints_completed, 3);
        assert_eq!(stats.bytes_reused, 0);
        assert!(stats.bytes_checkpointed > 0);
        let _ = t;
    }

    #[test]
    fn recover_rewinds_to_last_durable_step() {
        let mut t = trainer(TrainPolicy::Sync { every: 10 }, 4);
        t.run(25).unwrap();
        assert_eq!(t.step(), 25);
        assert_eq!(t.last_durable_step(), 20);
        let durable_state_unknown_here = t.model().model_checksum();
        let lost = t.recover().unwrap();
        assert_eq!(lost, 5);
        assert_eq!(t.step(), 20);
        // Restored content differs from the step-25 state.
        assert_ne!(t.model().model_checksum(), durable_state_unknown_here);
        // Training continues; the next checkpoint is version 3.
        let stats = t.run(10).unwrap();
        assert_eq!(stats.checkpoints_completed, 1);
        assert_eq!(t.last_durable_step(), 30);
    }

    #[test]
    fn recover_without_checkpoints_fails() {
        let mut t = trainer(TrainPolicy::None, 3);
        t.run(5).unwrap();
        assert!(t.recover().is_err());
    }

    #[test]
    fn stats_accumulate_across_runs() {
        let mut t = trainer(TrainPolicy::Sync { every: 2 }, 3);
        t.run(4).unwrap();
        t.run(4).unwrap();
        assert_eq!(t.stats().iterations, 8);
        assert_eq!(t.stats().checkpoints_completed, 4);
        assert_eq!(t.step(), 8);
    }
}
