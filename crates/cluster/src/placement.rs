//! Fleet placement: rendezvous hashing, k-way replication, striping.
//!
//! The paper's daemon owns all PMem on one node; at fleet scale a
//! single daemon crash would lose every checkpoint it holds. This
//! module decides *where* a model's slot writes land so that no single
//! loss matters:
//!
//! * **Rendezvous (highest-random-weight) hashing** gives each
//!   `(model, daemon)` pair a deterministic score; a model's replica
//!   order is the daemons sorted by descending score. Removing a
//!   daemon never reshuffles the survivors' relative order — exactly
//!   the stability a rebalance pass needs.
//! * **Striping** splits a large checkpoint across the first `w`
//!   daemons of that order (the fleet-level twin of the multi-QP
//!   shard split), largest stripe scheduled first.
//! * **k-way replication** writes every stripe to `k` consecutive
//!   daemons of the order (wrapping), so stripe replicas land on
//!   *distinct* daemons and one kill leaves at least `k - 1` copies.
//!
//! Everything here is pure integer math over the model name and the
//! alive set: deterministic per config, independent of call order.

use portus_sim::hash::{fnv1a, splitmix64};
use serde::{Deserialize, Serialize};

use crate::ops::JobShape;

/// Replication/striping knobs for a placement-enabled fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementConfig {
    /// Copies of every stripe (clamped to the alive daemon count;
    /// `1` = no redundancy).
    pub replicas: usize,
    /// Daemons a large checkpoint is striped over (clamped likewise).
    pub stripe_width: usize,
    /// Checkpoints at or above this many bytes stripe; smaller ones
    /// stay whole on the model's primary.
    pub stripe_threshold: u64,
}

impl PlacementConfig {
    /// Mirrored writes, no striping: `k` full copies per checkpoint.
    pub fn mirrored(replicas: usize) -> PlacementConfig {
        PlacementConfig {
            replicas,
            stripe_width: 1,
            stripe_threshold: u64::MAX,
        }
    }

    /// Striped and replicated: split across `width` daemons, `k`
    /// copies of each stripe, any checkpoint size.
    pub fn striped(replicas: usize, width: usize) -> PlacementConfig {
        PlacementConfig {
            replicas,
            stripe_width: width,
            stripe_threshold: 0,
        }
    }
}

impl Default for PlacementConfig {
    fn default() -> PlacementConfig {
        PlacementConfig::mirrored(2)
    }
}

/// One stripe of a placed checkpoint.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Stripe {
    /// Stripe index within the checkpoint (stable across plans with
    /// the same width, independent of scheduling order).
    pub index: u32,
    /// Payload bytes this stripe carries.
    pub bytes: u64,
    /// Tensor count apportioned to this stripe (at least 1), so the
    /// per-message bandwidth ramp prices stripes like the whole.
    pub tensors: u64,
    /// Daemons this stripe is written to: `targets[0]` is the primary,
    /// the rest are replicas. All distinct.
    pub targets: Vec<usize>,
}

/// The rendezvous score of `(model, daemon)`: a deterministic 64-bit
/// weight mixing an FNV-1a hash of the model name with the daemon
/// index through splitmix64.
pub fn rendezvous_score(model: &str, daemon: usize) -> u64 {
    let h = fnv1a(model.as_bytes());
    splitmix64(h ^ (daemon as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// The model's replica order over the alive daemons: indices `d` with
/// `alive[d]`, sorted by descending rendezvous score (ties broken by
/// index, which the 64-bit scores make vanishingly rare). Killing a
/// daemon deletes its entry and shifts nothing else.
pub fn replica_order(model: &str, alive: &[bool]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..alive.len()).filter(|&d| alive[d]).collect();
    order.sort_by_key(|&d| (std::cmp::Reverse(rendezvous_score(model, d)), d));
    order
}

/// The first `k` daemons of the model's replica order (clamped to the
/// alive count): where an unstriped checkpoint's copies land.
pub fn replica_set(model: &str, alive: &[bool], k: usize) -> Vec<usize> {
    let mut order = replica_order(model, alive);
    order.truncate(k.max(1).min(order.len()));
    order
}

/// Plans one checkpoint: stripes (largest first) with per-stripe
/// replica targets. Empty when no daemon is alive — the checkpoint
/// has nowhere to go and must fail.
pub fn stripe_plan(model: &str, job: JobShape, alive: &[bool], p: &PlacementConfig) -> Vec<Stripe> {
    let order = replica_order(model, alive);
    if order.is_empty() {
        return Vec::new();
    }
    let k = p.replicas.clamp(1, order.len());
    let w = if job.total_bytes >= p.stripe_threshold {
        p.stripe_width.clamp(1, order.len())
    } else {
        1
    } as u64;
    let base = job.total_bytes / w;
    let rem = job.total_bytes % w;
    let mut stripes: Vec<Stripe> = (0..w)
        .map(|i| {
            let bytes = base + u64::from(i < rem);
            let tensors = (job.tensor_count * bytes)
                .checked_div(job.total_bytes)
                .unwrap_or(0)
                .max(1);
            Stripe {
                index: i as u32,
                bytes,
                tensors,
                // Stripe i starts at offset i of the order, replicas
                // follow consecutively (wrapping): copies of one
                // stripe always land on distinct daemons.
                targets: (0..k)
                    .map(|j| order[(i as usize + j) % order.len()])
                    .collect(),
            }
        })
        .collect();
    // Largest first, the multi-QP shard heuristic at fleet level: the
    // biggest stripe claims its NIC before the small ones queue up.
    stripes.sort_by_key(|s| (std::cmp::Reverse(s.bytes), s.index));
    stripes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn alive(n: usize) -> Vec<bool> {
        vec![true; n]
    }

    #[test]
    fn replica_order_is_deterministic_and_covers_alive() {
        let a = replica_order("gpt-22b", &alive(8));
        let b = replica_order("gpt-22b", &alive(8));
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..8).collect::<Vec<_>>());
        // Different models land in different orders (8! orderings, a
        // collision across two names would be a hash bug).
        assert_ne!(a, replica_order("bert-large", &alive(8)));
    }

    #[test]
    fn killing_a_daemon_preserves_survivor_order() {
        let full = replica_order("resnet", &alive(8));
        let mut down = alive(8);
        down[full[1]] = false;
        let after = replica_order("resnet", &down);
        let expect: Vec<usize> = full.iter().copied().filter(|&d| d != full[1]).collect();
        assert_eq!(after, expect, "rendezvous must not reshuffle survivors");
    }

    #[test]
    fn replica_set_clamps_to_alive_count() {
        assert_eq!(replica_set("m", &alive(2), 5).len(), 2);
        assert_eq!(replica_set("m", &alive(8), 3).len(), 3);
        assert_eq!(
            replica_set("m", &alive(8), 0).len(),
            1,
            "k=0 still places once"
        );
        assert!(replica_set("m", &[false, false], 2).is_empty());
    }

    #[test]
    fn stripe_plan_covers_bytes_and_separates_replicas() {
        let p = PlacementConfig::striped(2, 3);
        let job = JobShape::single(10_000_000_001, 400);
        let plan = stripe_plan("gpt", job, &alive(8), &p);
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.iter().map(|s| s.bytes).sum::<u64>(), job.total_bytes);
        // Largest-first scheduling order.
        assert!(plan.windows(2).all(|w| w[0].bytes >= w[1].bytes));
        for s in &plan {
            assert_eq!(s.targets.len(), 2);
            assert_ne!(s.targets[0], s.targets[1], "replicas on distinct daemons");
            assert!(s.tensors >= 1);
        }
        // Stripe indices are a permutation of 0..w.
        let mut idx: Vec<u32> = plan.iter().map(|s| s.index).collect();
        idx.sort_unstable();
        assert_eq!(idx, vec![0, 1, 2]);
    }

    #[test]
    fn small_checkpoints_do_not_stripe() {
        let p = PlacementConfig {
            replicas: 2,
            stripe_width: 4,
            stripe_threshold: 1 << 30,
        };
        let plan = stripe_plan("tiny", JobShape::single(1 << 20, 10), &alive(8), &p);
        assert_eq!(plan.len(), 1, "below the threshold stays whole");
        assert_eq!(plan[0].targets.len(), 2);
        assert_eq!(
            plan[0].targets,
            replica_set("tiny", &alive(8), 2),
            "the unstriped copy lands on the model's replica set"
        );
    }

    #[test]
    fn plans_clamp_to_a_shrinking_fleet() {
        let p = PlacementConfig::striped(3, 4);
        let mut a = alive(2);
        let plan = stripe_plan("m", JobShape::single(1 << 30, 100), &a, &p);
        assert_eq!(plan.len(), 2, "width clamps to 2 alive daemons");
        for s in &plan {
            assert_eq!(s.targets.len(), 2, "k clamps to 2 alive daemons");
        }
        a[0] = false;
        a[1] = false;
        assert!(
            stripe_plan("m", JobShape::single(1 << 30, 100), &a, &p).is_empty(),
            "a dead fleet has nowhere to write"
        );
    }
}
