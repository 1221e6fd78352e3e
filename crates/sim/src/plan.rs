//! The discrete-event plan queue.
//!
//! A `PlanQueue` holds *plans*: payloads scheduled at absolute virtual
//! instants. Popping always yields the earliest plan; two plans at the
//! same instant pop in the order they were added (the monotone
//! [`PlanId`] is the tie-breaker), so execution order is a pure
//! function of the schedule calls and never of heap internals, hash
//! seeds, or thread interleavings. This is the ordering contract the
//! deterministic-replay suite pins.
//!
//! Each heap entry carries its payload, so a pop is one heap operation
//! and nothing else is kept per plan.

use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;

use crate::SimTime;

/// Identifies one scheduled plan. Ids are handed out monotonically by a
/// [`PlanQueue`] and double as the deterministic tie-breaker between
/// plans scheduled at the same instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PlanId(u64);

impl PlanId {
    /// The raw monotone counter value.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl std::fmt::Display for PlanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "plan#{}", self.0)
    }
}

/// A heap entry: `(instant, id)` with inverted ordering so the
/// `BinaryHeap` max-heap pops the earliest instant, lowest id first.
/// The payload rides along and never takes part in the ordering.
#[derive(Debug)]
struct Slot<T> {
    at: SimTime,
    id: PlanId,
    data: T,
}

impl<T> PartialEq for Slot<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.id) == (other.at, other.id)
    }
}

impl<T> Eq for Slot<T> {}

impl<T> PartialOrd for Slot<T> {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Slot<T> {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        other.at.cmp(&self.at).then_with(|| other.id.cmp(&self.id))
    }
}

/// A queue of payloads scheduled at absolute virtual instants with
/// deterministic `(instant, plan id)` ordering.
///
/// # Examples
///
/// ```
/// use portus_sim::{PlanQueue, SimTime};
///
/// let mut q = PlanQueue::new();
/// q.add(SimTime::from_nanos(20), "late");
/// q.add(SimTime::from_nanos(10), "early");
/// let (at, _, data) = q.pop().unwrap();
/// assert_eq!((at.as_nanos(), data), (10, "early"));
/// ```
#[derive(Debug)]
pub struct PlanQueue<T> {
    heap: BinaryHeap<Slot<T>>,
    next_id: u64,
}

impl<T> Default for PlanQueue<T> {
    fn default() -> Self {
        PlanQueue {
            heap: BinaryHeap::new(),
            next_id: 0,
        }
    }
}

impl<T> PlanQueue<T> {
    /// An empty queue; the first plan gets id 0.
    pub fn new() -> Self {
        PlanQueue::default()
    }

    /// Schedules `data` at instant `at` and returns its [`PlanId`].
    pub fn add(&mut self, at: SimTime, data: T) -> PlanId {
        let id = PlanId(self.next_id);
        self.next_id += 1;
        self.heap.push(Slot { at, id, data });
        id
    }

    /// The instant and id of the next plan without removing it.
    pub fn peek(&self) -> Option<(SimTime, PlanId)> {
        self.heap.peek().map(|s| (s.at, s.id))
    }

    /// Removes and returns the earliest plan.
    pub fn pop(&mut self) -> Option<(SimTime, PlanId, T)> {
        self.heap.pop().map(|s| (s.at, s.id, s.data))
    }

    /// Number of pending plans.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no plans remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn pops_in_time_then_id_order() {
        let mut q = PlanQueue::new();
        let _b = q.add(t(20), "b");
        let _a = q.add(t(10), "a");
        let _c = q.add(t(20), "c"); // same instant as b, later id
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, d)| d)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ids_are_monotone() {
        let mut q = PlanQueue::new();
        let a = q.add(t(5), ());
        let b = q.add(t(1), ());
        assert!(b > a, "ids reflect schedule order, not instant order");
    }

    #[test]
    fn peek_sees_the_head_without_removing_it() {
        let mut q = PlanQueue::new();
        q.add(t(2), "b");
        q.add(t(1), "a");
        assert_eq!(q.peek().map(|(at, _)| at), Some(t(1)));
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().map(|(_, _, d)| d), Some("a"));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn interleaved_adds_and_pops_stay_ordered() {
        let mut q = PlanQueue::new();
        q.add(t(30), 30);
        q.add(t(10), 10);
        let (at, _, d) = q.pop().unwrap();
        assert_eq!((at, d), (t(10), 10));
        q.add(t(20), 20);
        let (at, _, d) = q.pop().unwrap();
        assert_eq!((at, d), (t(20), 20));
        let (at, _, d) = q.pop().unwrap();
        assert_eq!((at, d), (t(30), 30));
        assert_eq!(q.pop().map(|(_, _, d)| d), None);
    }
}
