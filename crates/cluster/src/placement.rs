//! Fleet placement: rendezvous hashing and k-way replication.
//!
//! The paper's daemon owns all PMem on one node; at fleet scale a
//! single daemon crash would lose every checkpoint it holds. This
//! module decides *where* a model's checkpoint copies land so that no
//! single loss matters:
//!
//! * **Rendezvous (highest-random-weight) hashing** gives each
//!   `(model, daemon)` pair a deterministic score; a model's replica
//!   order is the daemons sorted by descending score. Removing a
//!   daemon never reshuffles the survivors' relative order — exactly
//!   the stability a rebalance pass needs.
//! * **k-way replication** writes one whole copy of every checkpoint
//!   to each of the first `k` daemons of that order
//!   ([`replica_set`]), so the copies land on *distinct* daemons and
//!   one kill leaves at least `k - 1` of them.
//!
//! Everything here is pure integer math over the model name and the
//! alive set: deterministic per config, independent of call order.

use portus_sim::hash::{fnv1a, splitmix64};
use serde::{Deserialize, Serialize};

/// Replication knob for a placement-enabled fleet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementConfig {
    /// Whole copies of every checkpoint (clamped to the alive daemon
    /// count; `1` = no redundancy).
    pub replicas: usize,
}

impl PlacementConfig {
    /// Mirrored writes: `k` whole copies per checkpoint.
    pub fn mirrored(replicas: usize) -> PlacementConfig {
        PlacementConfig { replicas }
    }
}

impl Default for PlacementConfig {
    fn default() -> PlacementConfig {
        PlacementConfig::mirrored(2)
    }
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
/// alive count): where a placed checkpoint's copies land. Empty when no
/// daemon is alive — the checkpoint has nowhere to go and must fail.
pub fn replica_set(model: &str, alive: &[bool], k: usize) -> Vec<usize> {
    let mut order = replica_order(model, alive);
    order.truncate(k.max(1).min(order.len()));
    order
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
}
