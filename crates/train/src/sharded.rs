//! Sharded training: the §V-E scenario through the Trainer layer.
//!
//! A [`ShardedTrainer`] drives one [`Trainer`] per Megatron shard in
//! lockstep — the way a model-parallel job steps all ranks together —
//! and checkpoints all shards at the same iteration boundaries, issuing
//! the pulls concurrently (asynchronously) and settling them all at the
//! barrier. Restore brings every shard back to the same version, which
//! is the aggregation requirement Motivation 1 of the paper calls out.

use std::collections::BTreeSet;

use portus::{PortusClient, PortusError, PortusResult, ShardFailure};
use portus_dnn::{IterationProfile, ModelInstance};

use crate::{TrainPolicy, Trainer, TrainerStats};

/// A set of shard trainers stepped in lockstep.
#[derive(Debug)]
pub struct ShardedTrainer {
    shards: Vec<Trainer>,
}

impl ShardedTrainer {
    /// Builds one trainer per `(client, shard instance)` pair; all
    /// shards share the profile and policy.
    ///
    /// # Errors
    ///
    /// Registration failures from any shard.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is empty.
    pub fn new(
        shards: Vec<(PortusClient, ModelInstance)>,
        profile: IterationProfile,
        policy: TrainPolicy,
    ) -> PortusResult<ShardedTrainer> {
        assert!(!shards.is_empty(), "a sharded job needs at least one shard");
        let shards = shards
            .into_iter()
            .map(|(client, model)| Trainer::new(client, model, profile, policy))
            .collect::<PortusResult<Vec<_>>>()?;
        Ok(ShardedTrainer { shards })
    }

    /// The shard trainers (e.g. to checksum individual shards).
    pub fn shards(&self) -> &[Trainer] {
        &self.shards
    }

    /// Global iteration counter (identical across shards by
    /// construction).
    pub fn step(&self) -> u64 {
        self.shards[0].step()
    }

    /// The last iteration durable on PMem across **all** shards — the
    /// whole-model recovery point (a version only counts when every
    /// shard has it).
    pub fn last_durable_step(&self) -> u64 {
        self.shards
            .iter()
            .map(Trainer::last_durable_step)
            .min()
            .unwrap_or(0)
    }

    /// Runs `iterations` lockstep iterations on every shard. Returns
    /// per-shard stats.
    ///
    /// Shards run their iteration batches sequentially here (one driver
    /// thread); the *checkpoint pulls* still interleave on the daemon
    /// side under the async policy because each shard has its own
    /// connection/worker.
    ///
    /// Every shard is driven all the way to the barrier iteration even
    /// when some shards' checkpoints fail — a shard that errors keeps
    /// stepping (its checkpoint rounds may keep failing) so no shard
    /// silently falls behind the others' iteration counter. The
    /// failures are collected and surfaced together once the barrier
    /// is reached.
    ///
    /// # Errors
    ///
    /// [`PortusError::ShardBarrier`] when one or more shards failed a
    /// checkpoint on the way to the barrier; every shard is still at
    /// the barrier step when it is returned.
    pub fn run(&mut self, iterations: u64) -> PortusResult<Vec<TrainerStats>> {
        let start: Vec<TrainerStats> = self.shards.iter().map(Trainer::stats).collect();
        let start_step = self.shards[0].step();
        let barrier_step = start_step + iterations;
        let interval = self.shards[0].policy_interval();
        // First failure per shard; later rounds on a sick shard
        // usually repeat the same error.
        let mut failures: Vec<Option<ShardFailure>> = vec![None; self.shards.len()];

        // Step in interval-sized batches so shards stay aligned at
        // checkpoint boundaries.
        let mut cursor = start_step;
        while cursor < barrier_step {
            let batch = (barrier_step - cursor)
                .min(interval.unwrap_or(barrier_step - cursor))
                .max(1);
            let next = cursor + batch;
            for (shard, trainer) in self.shards.iter_mut().enumerate() {
                while trainer.step() < next {
                    let before = trainer.step();
                    if let Err(e) = trainer.run(next - trainer.step()) {
                        if failures[shard].is_none() {
                            failures[shard] = Some(ShardFailure {
                                shard,
                                model: trainer.model_name().to_string(),
                                error: e.to_string(),
                            });
                        }
                        // `Trainer::run` completes the iteration's
                        // compute before its checkpoint can fail, so
                        // the counter must have moved — otherwise the
                        // realignment loop could not terminate.
                        assert!(
                            trainer.step() > before,
                            "shard {shard} made no progress after a failure"
                        );
                    }
                }
            }
            cursor = next;
        }

        let out = self
            .shards
            .iter()
            .zip(&start)
            .map(|(t, s0)| t.stats().since(s0))
            .collect::<Vec<_>>();
        let failures: Vec<ShardFailure> = failures.into_iter().flatten().collect();
        if failures.is_empty() {
            Ok(out)
        } else {
            Err(PortusError::ShardBarrier {
                barrier_step,
                failures,
            })
        }
    }

    /// Recovers every shard to the newest checkpoint version **every**
    /// shard still holds — the whole-model recovery point. The common
    /// version is computed by intersecting each daemon's `Done`
    /// versions and each shard's restore is *pinned* to it, so no
    /// interleaving of crashes and partially completed checkpoint
    /// rounds can mix versions across shards.
    ///
    /// Returns the largest number of lost iterations across shards.
    ///
    /// # Errors
    ///
    /// [`PortusError::Daemon`] when no version is durable on every
    /// shard, plus restore/listing failures.
    pub fn recover(&mut self) -> PortusResult<u64> {
        // Intersect the versions every shard's daemon can still serve.
        let mut common: Option<BTreeSet<u64>> = None;
        for trainer in &self.shards {
            let held: BTreeSet<u64> = trainer.available_versions()?.into_iter().collect();
            common = Some(match common {
                None => held,
                Some(c) => c.intersection(&held).copied().collect(),
            });
        }
        let version = common
            .unwrap_or_default()
            .into_iter()
            .next_back()
            .ok_or_else(|| {
                PortusError::Daemon(
                    "sharded recovery: no checkpoint version is durable on every shard".into(),
                )
            })?;
        // Translate the version back to the iteration it covers; any
        // shard that watched it complete knows (after a failed round
        // the counters can disagree, in which case the *latest*
        // observation wins — all shards checkpoint at the same
        // barrier, so completions of one version cover one step).
        let target = self
            .shards
            .iter()
            .filter_map(|t| t.covered_step_of(version))
            .max()
            .unwrap_or_else(|| self.last_durable_step());
        let mut lost_max = 0;
        for trainer in &mut self.shards {
            lost_max = lost_max.max(trainer.recover_version_to(Some(version), target)?);
        }
        Ok(lost_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use portus::{DaemonConfig, PortusDaemon};
    use portus_dnn::{shard_model, zoo, Materialization, ParallelConfig};
    use portus_mem::GpuDevice;
    use portus_pmem::{PmemDevice, PmemMode};
    use portus_rdma::{Fabric, FaultSpec, NodeId};
    use portus_sim::{SimContext, SimDuration};

    fn sharded(policy: TrainPolicy) -> ShardedTrainer {
        let ctx = SimContext::icdcs24();
        let fabric = Fabric::new(ctx.clone());
        fabric.add_nic(NodeId(100));
        let spec = zoo::gpt_with("sharded-gpt", 64, 2, 512);
        let shards = shard_model(&spec, ParallelConfig::grid(2, 2));
        let pmem = PmemDevice::new(
            ctx.clone(),
            PmemMode::DevDax,
            4 * spec.total_bytes() + (64 << 20),
        );
        let daemon =
            PortusDaemon::start(&fabric, NodeId(100), pmem, DaemonConfig::default()).unwrap();
        let pairs = shards
            .iter()
            .enumerate()
            .map(|(rank, shard)| {
                let node = NodeId(rank as u32);
                let nic = fabric.nic(node).unwrap_or_else(|_| fabric.add_nic(node));
                let gpu = GpuDevice::new(ctx.clone(), rank as u32, 1 << 30);
                let model = ModelInstance::materialize(
                    &shard.spec,
                    &gpu,
                    rank as u64,
                    Materialization::Owned,
                )
                .unwrap();
                (PortusClient::connect(&daemon, nic), model)
            })
            .collect();
        ShardedTrainer::new(
            pairs,
            IterationProfile::from_total(SimDuration::from_millis(30)),
            policy,
        )
        .unwrap()
    }

    #[test]
    fn lockstep_run_keeps_shards_aligned() {
        let mut st = sharded(TrainPolicy::Sync { every: 4 });
        let stats = st.run(12).unwrap();
        assert_eq!(st.shards().len(), 4);
        assert!(stats.iter().all(|s| s.iterations == 12));
        assert!(stats.iter().all(|s| s.checkpoints_completed == 3));
        assert_eq!(st.step(), 12);
        assert_eq!(st.last_durable_step(), 12);
    }

    #[test]
    fn whole_model_recovery_point_is_the_minimum() {
        let mut st = sharded(TrainPolicy::Sync { every: 5 });
        st.run(13).unwrap();
        assert_eq!(st.last_durable_step(), 10, "13 iters, ckpt at 5 and 10");
    }

    #[test]
    fn sharded_recover_restores_a_consistent_version() {
        let mut st = sharded(TrainPolicy::Sync { every: 5 });
        st.run(12).unwrap();
        let lost = st.recover().unwrap();
        assert_eq!(lost, 2, "iterations 11-12 are lost");
        assert_eq!(st.step(), 10);
        // Training resumes cleanly across all shards.
        st.run(5).unwrap();
        assert_eq!(st.last_durable_step(), 15);
    }

    /// Like `sharded`, but spreads the four shards across two daemons
    /// (rank % 2) and hands back the fabric so tests can arm faults on
    /// one daemon's NIC.
    fn sharded_fleet(policy: TrainPolicy) -> (Fabric, ShardedTrainer) {
        let ctx = SimContext::icdcs24();
        let fabric = Fabric::new(ctx.clone());
        let spec = zoo::gpt_with("fleet-gpt", 64, 2, 512);
        let shards = shard_model(&spec, ParallelConfig::grid(2, 2));
        let daemons: Vec<_> = (0..2u32)
            .map(|d| {
                fabric.add_nic(NodeId(100 + d));
                let pmem = PmemDevice::new(
                    ctx.clone(),
                    PmemMode::DevDax,
                    4 * spec.total_bytes() + (64 << 20),
                );
                PortusDaemon::start(&fabric, NodeId(100 + d), pmem, DaemonConfig::default())
                    .unwrap()
            })
            .collect();
        let pairs = shards
            .iter()
            .enumerate()
            .map(|(rank, shard)| {
                let node = NodeId(rank as u32);
                let nic = fabric.nic(node).unwrap_or_else(|_| fabric.add_nic(node));
                let gpu = GpuDevice::new(ctx.clone(), rank as u32, 1 << 30);
                let model = ModelInstance::materialize(
                    &shard.spec,
                    &gpu,
                    rank as u64,
                    Materialization::Owned,
                )
                .unwrap();
                (PortusClient::connect(&daemons[rank % 2], nic), model)
            })
            .collect();
        let st = ShardedTrainer::new(
            pairs,
            IterationProfile::from_total(SimDuration::from_millis(30)),
            policy,
        )
        .unwrap();
        (fabric, st)
    }

    #[test]
    fn barrier_drives_every_shard_through_a_daemon_outage() {
        let (fabric, mut st) = sharded_fleet(TrainPolicy::Sync { every: 4 });
        st.run(4).unwrap(); // one clean round: version 1 everywhere

        // Daemon 1 (shards 1 and 3) loses its datapath; the pulls it
        // initiates all fail.
        fabric.arm_faults(NodeId(101), FaultSpec::All).expect("arm");
        let err = st.run(8).expect_err("half the shards lost their daemon");
        match err {
            PortusError::ShardBarrier {
                barrier_step,
                failures,
            } => {
                assert_eq!(barrier_step, 12);
                let shards: Vec<usize> = failures.iter().map(|f| f.shard).collect();
                assert_eq!(shards, vec![1, 3]);
                assert!(failures[0].error.contains("datapath"));
            }
            other => panic!("expected ShardBarrier, got {other}"),
        }
        // Nobody fell behind: every shard is at the barrier iteration.
        assert!(st.shards().iter().all(|t| t.step() == 12));
        // Survivors kept checkpointing; the sick shards kept their
        // last durable round.
        assert_eq!(st.shards()[0].last_durable_step(), 12);
        assert_eq!(st.shards()[1].last_durable_step(), 4);
        assert_eq!(st.last_durable_step(), 4);
    }

    #[test]
    fn recover_pins_all_shards_to_the_newest_common_version() {
        let (fabric, mut st) = sharded_fleet(TrainPolicy::Sync { every: 4 });
        st.run(4).unwrap(); // version 1 everywhere
        fabric.arm_faults(NodeId(101), FaultSpec::All).expect("arm");
        // Version 2 lands only on daemon 0's shards; 1 and 3 fail.
        assert!(st.run(4).is_err());

        // The outage heals; recovery must settle on version 1 — the
        // newest version *every* shard still holds — not daemon 0's
        // version 2.
        fabric.nic(NodeId(101)).unwrap().clear_faults();
        let lost = st.recover().unwrap();
        assert_eq!(lost, 4, "iterations 5-8 roll back");
        assert_eq!(st.step(), 4);
        assert!(st
            .shards()
            .iter()
            .all(|t| t.last_restored_version() == Some(1)));

        // Training resumes in lockstep from the common version.
        st.run(4).unwrap();
        assert!(st.shards().iter().all(|t| t.step() == 8));
        assert_eq!(st.last_durable_step(), 8);
    }

    #[test]
    fn recover_with_no_common_version_is_a_typed_error() {
        let (fabric, mut st) = sharded_fleet(TrainPolicy::Sync { every: 4 });
        st.run(4).unwrap();
        fabric.arm_faults(NodeId(101), FaultSpec::All).expect("arm");
        // Two more successful rounds on daemon 0 cycle its double
        // mapping past version 1, so the survivors hold {2, 3} while
        // the sick shards hold only {1}: no common version remains.
        assert!(st.run(8).is_err());
        fabric.nic(NodeId(101)).unwrap().clear_faults();
        match st.recover() {
            Err(PortusError::Daemon(msg)) => {
                assert!(msg.contains("no checkpoint version is durable on every shard"))
            }
            other => panic!("expected Daemon error, got {other:?}"),
        }
    }

    #[test]
    fn async_sharded_run_completes_all_pulls() {
        let mut st = sharded(TrainPolicy::Async { every: 3 });
        let stats = st.run(9).unwrap();
        assert!(stats.iter().all(|s| s.checkpoints_completed == 3));
        assert_eq!(st.last_durable_step(), 9);
    }
}
