//! Seeded, fork-able randomness for deterministic simulations.
//!
//! Every random decision in an event-queue run must flow from the
//! run's seed so two runs with the same seed replay bit-for-bit.
//! [`SimRng`] is a small splitmix64 stream (the same finalizer the
//! fault-injection plane uses): cheap, dependency-free, and good
//! enough for jittering arrival times and breaking behavioural ties —
//! it is *not* cryptographic.
//!
//! Independent actors should each get their own stream via
//! [`SimRng::fork`], keyed by a stable label, so adding a draw to one
//! actor never perturbs another actor's sequence.

use crate::hash::splitmix64;

/// A deterministic seeded random stream.
///
/// # Examples
///
/// ```
/// use portus_sim::SimRng;
///
/// let mut a = SimRng::new(42);
/// let mut b = SimRng::new(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimRng {
    /// The stream's identity — never mutated by draws, so forking is a
    /// pure function of the seed lineage.
    seed: u64,
    /// The stream position (number of draws made).
    counter: u64,
}

impl SimRng {
    /// A stream seeded with `seed`.
    pub fn new(seed: u64) -> SimRng {
        SimRng { seed, counter: 0 }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.counter = self.counter.wrapping_add(1);
        splitmix64(
            self.seed
                .wrapping_add(self.counter.wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        )
    }

    /// A draw uniform in `[0, n)`. Returns 0 when `n == 0`.
    pub fn gen_range(&mut self, n: u64) -> u64 {
        if n == 0 {
            return 0;
        }
        // Multiply-shift reduction; bias is negligible for sim uses.
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// An independent child stream keyed by `label`: the child's
    /// sequence depends only on this stream's seed lineage and the
    /// label, never on how many draws the parent has made.
    pub fn fork(&self, label: u64) -> SimRng {
        SimRng {
            seed: splitmix64(self.seed ^ splitmix64(label ^ 0xa076_1d64_78bd_642f)),
            counter: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(7);
        let mut b = SimRng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn fork_is_independent_of_parent_draws() {
        let mut parent = SimRng::new(99);
        let fork_before = parent.fork(5);
        parent.next_u64();
        parent.next_u64();
        let fork_after = parent.fork(5);
        assert_eq!(
            fork_before, fork_after,
            "forking must not consume parent draws"
        );
        assert_ne!(parent.fork(5), parent.fork(6));
    }

    #[test]
    fn ranges_are_bounded() {
        let mut r = SimRng::new(3);
        for _ in 0..1000 {
            assert!(r.gen_range(10) < 10);
        }
        assert_eq!(r.gen_range(0), 0);
    }
}
