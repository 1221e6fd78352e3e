//! Training-iteration profiles.
//!
//! Figure 8 of the paper divides one iteration into forward (**F**),
//! backward (**B**), and update (**U**) phases; the key observation is
//! that parameters only change during **U**, so a checkpoint pull that
//! finishes before the next **U** never conflicts with training. The
//! profiles here carry the calibrated phase durations the end-to-end
//! experiments replay.

use portus_sim::SimDuration;
use serde::{Deserialize, Serialize};

/// Durations of one training iteration's phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IterationProfile {
    /// Forward pass.
    pub forward: SimDuration,
    /// Backward pass.
    pub backward: SimDuration,
    /// Parameter update (the only phase that mutates tensors).
    pub update: SimDuration,
    /// Fraction of the iteration the GPU is actually busy (the rest is
    /// data loading / communication gaps); drives the Fig. 16
    /// utilization traces.
    pub gpu_busy_fraction_bp: u32,
}

/// Phase split used when only a total iteration time is known: the
/// backward pass dominates, update is short.
const FORWARD_SHARE: f64 = 0.30;
const BACKWARD_SHARE: f64 = 0.50;

/// Default GPU-busy fraction in basis points (84 %): calibrated so the
/// Portus utilization trace of Fig. 16 averages ~76 % once checkpoint
/// stalls are added.
pub const DEFAULT_GPU_BUSY_BP: u32 = 8_400;

impl IterationProfile {
    /// Builds a profile from a total iteration time using the standard
    /// F/B/U split.
    pub fn from_total(total: SimDuration) -> IterationProfile {
        let forward = total * FORWARD_SHARE;
        let backward = total * BACKWARD_SHARE;
        let update = total - forward - backward;
        IterationProfile {
            forward,
            backward,
            update,
            gpu_busy_fraction_bp: DEFAULT_GPU_BUSY_BP,
        }
    }

    /// Total iteration duration.
    pub fn total(&self) -> SimDuration {
        self.forward + self.backward + self.update
    }

    /// GPU-busy time within one iteration.
    pub fn gpu_busy(&self) -> SimDuration {
        self.total() * (self.gpu_busy_fraction_bp as f64 / 10_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_conserves_total() {
        let p = IterationProfile::from_total(SimDuration::from_millis(1730));
        assert_eq!(p.total(), SimDuration::from_millis(1730));
        assert!(p.backward > p.forward);
        assert!(p.update < p.forward);
    }

    #[test]
    fn busy_time_is_a_fraction() {
        let p = IterationProfile::from_total(SimDuration::from_secs(1));
        let busy = p.gpu_busy().as_secs_f64();
        assert!((0.83..0.85).contains(&busy), "{busy}");
    }
}
