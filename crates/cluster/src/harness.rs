//! The end-to-end training harness.
//!
//! Replays a training job on the virtual timeline under a checkpoint
//! [`Policy`], producing throughput, stall, and GPU-busy accounting —
//! the machinery behind Figs. 2, 9, 15 and 16. A run is a one-client
//! fleet on the discrete-event core ([`run_fleet`]).

use portus_dnn::IterationProfile;
use portus_sim::{CostModel, SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::event::{run_fleet, FleetConfig};
use crate::ops::JobShape;
use crate::policy::Policy;

/// A training run's static configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainingConfig {
    /// The job's size/shape.
    pub job: JobShape,
    /// Per-iteration phase timing.
    pub profile: IterationProfile,
    /// The checkpoint policy under test.
    pub policy: Policy,
}

/// One contiguous span of the run with a constant GPU state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Segment {
    /// Span start on the virtual timeline.
    pub start: SimTime,
    /// Span end.
    pub end: SimTime,
    /// Whether the GPU was executing kernels during this span.
    pub busy: bool,
}

/// The outcome of a simulated run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Iterations executed.
    pub iterations: u64,
    /// Total virtual time.
    pub elapsed: SimDuration,
    /// Checkpoints completed.
    pub checkpoints: u64,
    /// Total time training was stalled on checkpointing.
    pub checkpoint_stall: SimDuration,
    /// Total GPU-busy time.
    pub gpu_busy: SimDuration,
    /// Busy/idle segments for utilization traces (Fig. 16).
    pub segments: Vec<Segment>,
}

impl RunResult {
    /// Training throughput in iterations per second.
    pub fn throughput(&self) -> f64 {
        self.iterations as f64 / self.elapsed.as_secs_f64()
    }

    /// Mean GPU utilization over the whole run.
    pub fn avg_utilization(&self) -> f64 {
        self.gpu_busy.as_secs_f64() / self.elapsed.as_secs_f64()
    }

    /// Share of the run spent stalled on checkpointing (Fig. 2's
    /// "checkpointing overhead").
    pub fn checkpoint_share(&self) -> f64 {
        self.checkpoint_stall.as_secs_f64() / self.elapsed.as_secs_f64()
    }
}

/// Simulates `iterations` training iterations under `cfg.policy`: a
/// one-client, one-daemon [`run_fleet`], whose client steps through
/// the Fig. 9 policy timeline (see [`Policy`]).
pub fn run_training(m: &CostModel, cfg: &TrainingConfig, iterations: u64) -> RunResult {
    let fleet = FleetConfig::uniform(1, 1, cfg.job, cfg.profile, cfg.policy, iterations);
    let c = run_fleet(m, &fleet).clients.swap_remove(0);
    RunResult {
        iterations: c.iterations,
        elapsed: c.finished_at.saturating_since(SimTime::ZERO),
        checkpoints: c.checkpoints,
        checkpoint_stall: c.checkpoint_stall,
        gpu_busy: c.gpu_busy,
        segments: c.segments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{portus_checkpoint_cost, Backend};
    use portus_dnn::zoo;

    fn gpt22_cfg(policy: Policy) -> TrainingConfig {
        TrainingConfig {
            job: JobShape {
                total_bytes: 89_600_000_000,
                tensor_count: 600,
                shards: 16,
                nodes: 2,
            },
            profile: IterationProfile::from_total(zoo::gpt_iteration("gpt-22.4b")),
            policy,
        }
    }

    /// The four Fig. 9 policies at interval `every` (baselines on
    /// BeeGFS-PMem).
    fn fig9_policies(every: u32) -> [Policy; 4] {
        [
            Policy::TorchSave {
                every,
                backend: Backend::BeegfsPmem,
            },
            Policy::CheckFreq {
                every,
                backend: Backend::BeegfsPmem,
            },
            Policy::PortusSync { every },
            Policy::PortusAsync { every },
        ]
    }

    #[test]
    fn policy_timelines_keep_their_pinned_numbers() {
        // Elapsed and stall (ns) of each Fig. 9 policy, pinned from the
        // standalone per-iteration loop this harness replaced.
        let m = CostModel::icdcs24();
        let gpt22 = [
            (1_676_157_335_870, 1_226_357_335_870),
            (1_269_607_335_870, 708_413_287_565),
            (604_373_374_960, 154_573_374_960),
            (485_325_337_496, 22_144_000_000),
        ];
        for (policy, (elapsed, stall)) in fig9_policies(26).into_iter().zip(gpt22) {
            let r = run_training(&m, &gpt22_cfg(policy), 260);
            assert_eq!(r.iterations, 260, "{policy:?}");
            assert_eq!(r.checkpoints, 10, "{policy:?}");
            assert_eq!(r.elapsed.as_nanos(), elapsed, "{policy:?}");
            assert_eq!(r.checkpoint_stall.as_nanos(), stall, "{policy:?}");
            assert_eq!(r.gpu_busy.as_nanos(), 377_832_000_000, "{policy:?}");
        }

        // Fig. 9's own input: BERT-Large, every 10 of 100 iterations.
        let card = zoo::bert_large_card();
        let job = JobShape::single(card.spec.total_bytes(), card.spec.layer_count() as u64);
        let profile = IterationProfile::from_total(card.iteration);
        let bert = [
            53_842_697_450,
            39_104_023_275,
            37_375_547_240,
            35_000_000_000,
        ];
        for (policy, elapsed) in fig9_policies(10).into_iter().zip(bert) {
            let cfg = TrainingConfig {
                job,
                profile,
                policy,
            };
            let r = run_training(&m, &cfg, 100);
            assert_eq!(r.elapsed.as_nanos(), elapsed, "{policy:?}");
        }
    }

    #[test]
    fn zero_iterations_run_nothing() {
        let m = CostModel::icdcs24();
        let r = run_training(&m, &gpt22_cfg(Policy::PortusSync { every: 1 }), 0);
        assert_eq!(r.iterations, 0);
        assert_eq!(r.checkpoints, 0);
        assert_eq!(r.elapsed, SimDuration::ZERO);
        assert_eq!(r.checkpoint_stall, SimDuration::ZERO);
        assert!(r.segments.is_empty());
    }

    #[test]
    fn no_checkpoint_has_no_stall() {
        let m = CostModel::icdcs24();
        let r = run_training(&m, &gpt22_cfg(Policy::None), 100);
        assert_eq!(r.checkpoints, 0);
        assert_eq!(r.checkpoint_stall, SimDuration::ZERO);
        assert!((r.avg_utilization() - 0.84).abs() < 0.01);
    }

    #[test]
    fn policies_order_as_fig9() {
        let m = CostModel::icdcs24();
        let every = 26;
        let torch = run_training(
            &m,
            &gpt22_cfg(Policy::TorchSave {
                every,
                backend: Backend::BeegfsPmem,
            }),
            260,
        );
        let cf = run_training(
            &m,
            &gpt22_cfg(Policy::CheckFreq {
                every,
                backend: Backend::BeegfsPmem,
            }),
            260,
        );
        let psync = run_training(&m, &gpt22_cfg(Policy::PortusSync { every }), 260);
        let pasync = run_training(&m, &gpt22_cfg(Policy::PortusAsync { every }), 260);
        assert!(
            torch.elapsed > cf.elapsed,
            "CheckFreq must beat synchronous torch.save"
        );
        assert!(
            cf.elapsed > psync.elapsed,
            "Portus-sync must beat CheckFreq"
        );
        assert!(psync.elapsed > pasync.elapsed, "async must beat sync");
    }

    #[test]
    fn fig15_and_fig16_headlines() {
        // GPT-22.4B at a fine-grained interval: Portus-async delivers
        // ~2.6x CheckFreq's throughput (Fig. 15) with ~76% average GPU
        // utilization vs CheckFreq's ~30% (Fig. 16, whose plotted peaks
        // stay below 43%).
        let m = CostModel::icdcs24();
        let every = 26;
        let cf = run_training(
            &m,
            &gpt22_cfg(Policy::CheckFreq {
                every,
                backend: Backend::BeegfsPmem,
            }),
            520,
        );
        let pa = run_training(&m, &gpt22_cfg(Policy::PortusAsync { every }), 520);
        let ratio = pa.throughput() / cf.throughput();
        assert!((2.2..3.0).contains(&ratio), "throughput ratio {ratio:.2}");
        let up = pa.avg_utilization();
        assert!((0.72..0.80).contains(&up), "portus util {up:.3}");
        let uc = cf.avg_utilization();
        assert!((0.24..0.43).contains(&uc), "checkfreq util {uc:.3}");
    }

    #[test]
    fn checkpoint_share_matches_fig2_for_gpt22() {
        // Fig. 2: checkpointing weighs up to 41% of training time for
        // GPT-22.4B at one checkpoint per 100 iterations.
        let m = CostModel::icdcs24();
        let r = run_training(
            &m,
            &gpt22_cfg(Policy::TorchSave {
                every: 100,
                backend: Backend::BeegfsPmem,
            }),
            500,
        );
        let share = r.checkpoint_share();
        assert!((0.36..0.45).contains(&share), "share {share:.3}");
    }

    #[test]
    fn async_pull_overlaps_compute() {
        let m = CostModel::icdcs24();
        let r = run_training(&m, &gpt22_cfg(Policy::PortusAsync { every: 26 }), 260);
        let op = portus_checkpoint_cost(&m, gpt22_cfg(Policy::None).job);
        // Stall per checkpoint must be far below the full pull time.
        let stall_per_ckpt = r.checkpoint_stall.as_secs_f64() / r.checkpoints as f64;
        assert!(
            stall_per_ckpt < op.as_secs_f64() / 3.0,
            "stall {stall_per_ckpt:.2}s vs op {op}"
        );
    }

    #[test]
    fn segments_tile_the_run() {
        let m = CostModel::icdcs24();
        let policies = std::iter::once(Policy::None).chain(fig9_policies(26));
        for policy in policies {
            let r = run_training(&m, &gpt22_cfg(policy), 52);
            let mut cursor = SimTime::ZERO;
            for s in &r.segments {
                assert_eq!(s.start, cursor, "{policy:?}: segments must tile");
                cursor = s.end;
            }
            assert_eq!(cursor, SimTime::ZERO + r.elapsed, "{policy:?}");
            let busy: SimDuration = r
                .segments
                .iter()
                .filter(|s| s.busy)
                .map(|s| s.end - s.start)
                .sum();
            assert_eq!(busy, r.gpu_busy, "{policy:?}");
        }
    }
}
