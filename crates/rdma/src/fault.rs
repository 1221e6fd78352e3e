//! Deterministic fault injection for the simulated fabric.
//!
//! A [`FaultPlan`] is armed on a [`crate::Nic`] and consulted by every
//! one-sided verb that NIC initiates. Faults are decided purely from
//! the verb sequence number and the plan's own seed — never from wall
//! clock or global randomness — so a failing run replays bit-for-bit:
//! tests and benches can exercise every datapath error edge the happy
//! path never hits, and a sweep with the same seed always fails the
//! same verbs.
//!
//! The three shapes match how real fabrics misbehave:
//!
//! * [`FaultSpec::Nth`] — a single transient failure (one WQE flushed
//!   with an error, e.g. a retry-exceeded NAK), the case the daemon's
//!   per-WQE retry must absorb;
//! * [`FaultSpec::Ratio`] — a lossy window where a deterministic
//!   fraction of verbs fail (link flapping, congestion drops);
//! * [`FaultSpec::Window`] / [`FaultSpec::All`] — a hard outage for a
//!   span of verbs, the case that must exhaust retries and roll the
//!   checkpoint slot back instead of stranding it `Active`.

use std::sync::atomic::{AtomicU64, Ordering};

use portus_sim::hash::splitmix64;

/// Which one-sided verbs a [`FaultPlan`] fails. Sequence numbers are
/// 1-based and count the verbs initiated by the armed NIC since the
/// plan was armed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultSpec {
    /// Fail exactly the `n`-th verb (1-based).
    Nth(u64),
    /// Fail each verb with probability `permille`/1000, decided by a
    /// deterministic hash of `seed` and the verb sequence number.
    Ratio {
        /// Failure probability in thousandths (0–1000).
        permille: u16,
        /// Seed mixed into the per-verb hash.
        seed: u64,
    },
    /// Fail every verb whose sequence number lies in `from..to`.
    Window {
        /// First failing sequence number (inclusive, 1-based).
        from: u64,
        /// First passing sequence number after the window (exclusive).
        to: u64,
    },
    /// Fail every verb.
    All,
}

/// An armed fault plan: a [`FaultSpec`] plus the verb sequence counter
/// it is evaluated against.
#[derive(Debug)]
pub struct FaultPlan {
    spec: FaultSpec,
    seq: AtomicU64,
    injected: AtomicU64,
}

impl FaultPlan {
    /// Creates a plan with its sequence counter at zero.
    pub fn new(spec: FaultSpec) -> FaultPlan {
        FaultPlan {
            spec,
            seq: AtomicU64::new(0),
            injected: AtomicU64::new(0),
        }
    }

    /// The spec this plan was armed with.
    pub fn spec(&self) -> FaultSpec {
        self.spec
    }

    /// Accounts for one verb: returns `Some(seq)` when that verb must
    /// fail, `None` when it passes.
    pub fn note_verb(&self) -> Option<u64> {
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        let fail = match self.spec {
            FaultSpec::Nth(n) => seq == n,
            FaultSpec::Ratio { permille, seed } => {
                splitmix64(seed ^ seq) % 1000 < permille.min(1000) as u64
            }
            FaultSpec::Window { from, to } => seq >= from && seq < to,
            FaultSpec::All => true,
        };
        if fail {
            self.injected.fetch_add(1, Ordering::Relaxed);
            Some(seq)
        } else {
            None
        }
    }

    /// Verbs seen since the plan was armed.
    pub fn seen(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// Faults injected since the plan was armed.
    pub fn injected(&self) -> u64 {
        self.injected.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nth_fails_exactly_once() {
        let p = FaultPlan::new(FaultSpec::Nth(3));
        let outcomes: Vec<bool> = (0..5).map(|_| p.note_verb().is_some()).collect();
        assert_eq!(outcomes, [false, false, true, false, false]);
        assert_eq!(p.injected(), 1);
        assert_eq!(p.seen(), 5);
    }

    #[test]
    fn window_fails_its_span() {
        let p = FaultPlan::new(FaultSpec::Window { from: 2, to: 4 });
        let outcomes: Vec<bool> = (0..5).map(|_| p.note_verb().is_some()).collect();
        assert_eq!(outcomes, [false, true, true, false, false]);
    }

    #[test]
    fn all_fails_everything() {
        let p = FaultPlan::new(FaultSpec::All);
        assert!((0..10).all(|_| p.note_verb().is_some()));
    }

    #[test]
    fn ratio_is_deterministic_per_seed() {
        let run = |seed| -> Vec<bool> {
            let p = FaultPlan::new(FaultSpec::Ratio {
                permille: 300,
                seed,
            });
            (0..100).map(|_| p.note_verb().is_some()).collect()
        };
        assert_eq!(run(7), run(7), "same seed must replay identically");
        assert_ne!(run(7), run(8), "different seeds should diverge");
        let fails = run(7).iter().filter(|&&f| f).count();
        assert!((15..=45).contains(&fails), "~30% of 100, got {fails}");
    }

    #[test]
    fn ratio_extremes() {
        let never = FaultPlan::new(FaultSpec::Ratio {
            permille: 0,
            seed: 1,
        });
        assert!((0..50).all(|_| never.note_verb().is_none()));
        let always = FaultPlan::new(FaultSpec::Ratio {
            permille: 1000,
            seed: 1,
        });
        assert!((0..50).all(|_| always.note_verb().is_some()));
    }
}
