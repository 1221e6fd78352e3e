//! Bandwidth-serialized shared resources.
//!
//! A NIC, a PCIe link, or a PMem controller can only carry one bulk
//! transfer at a time at full rate. [`Resource`] models this as a FIFO
//! pipe: a job submitted at time `t` with service duration `d` starts at
//! `max(t, busy_until)` and completes `d` later. Concurrent checkpoint
//! shards contending for one storage-node NIC therefore serialize, which
//! is what produces the multi-shard scaling behaviour of §V-E.
//!
//! A resource can also model `k` identical engines behind one queue
//! ([`Resource::with_capacity`]) — a striped NIC's DMA engines or a
//! daemon's dispatch workers. A job takes the earliest-free engine, so
//! up to `k` jobs run in parallel and the `k+1`-th waits; with `k = 1`
//! this degenerates to the classic FIFO pipe, bit-for-bit.
//!
//! Grants compose with the discrete-event [`crate::Engine`]: schedule a
//! job at an actor's local instant, then plan the completion event at
//! [`Grant::end`]. Overlapping jobs on *independent* resources finish at
//! the max of their completions; contending jobs on one resource
//! serialize — never the sum-of-durations a shared additive clock
//! would charge.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::{SimDuration, SimTime};

#[derive(Debug)]
struct ResourceState {
    /// Per-engine instants at which each engine frees up.
    engines: Vec<SimTime>,
    /// Total service time ever granted.
    busy_time: SimDuration,
}

/// A FIFO, bandwidth-serialized resource on the virtual timeline.
///
/// Cloning shares the underlying queue state.
///
/// # Examples
///
/// ```
/// use portus_sim::{Resource, SimDuration, SimTime};
///
/// let nic = Resource::new("nic0");
/// let a = nic.schedule(SimTime::ZERO, SimDuration::from_millis(10));
/// let b = nic.schedule(SimTime::ZERO, SimDuration::from_millis(10));
/// assert_eq!(a.end.as_nanos(), 10_000_000);
/// assert_eq!(b.start, a.end); // second job waits for the first
/// ```
#[derive(Debug, Clone)]
pub struct Resource {
    name: Arc<str>,
    state: Arc<Mutex<ResourceState>>,
}

/// The scheduled window a job received on a [`Resource`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// When the job actually started (>= submission time).
    pub start: SimTime,
    /// When the job completes.
    pub end: SimTime,
}

impl Resource {
    /// Creates an idle single-engine resource with a diagnostic `name`.
    pub fn new(name: &str) -> Self {
        Resource::with_capacity(name, 1)
    }

    /// Creates an idle resource with `engines` identical service
    /// engines behind one queue (clamped to at least one).
    pub fn with_capacity(name: &str, engines: usize) -> Self {
        Resource {
            name: name.into(),
            state: Arc::new(Mutex::new(ResourceState {
                engines: vec![SimTime::ZERO; engines.max(1)],
                busy_time: SimDuration::ZERO,
            })),
        }
    }

    /// The diagnostic name given at construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of service engines.
    pub fn capacity(&self) -> usize {
        self.state.lock().engines.len()
    }

    /// Schedules a job arriving at `now` needing `service` time; returns
    /// the FIFO grant. The job takes the earliest-free engine (lowest
    /// index on ties, so scheduling is deterministic).
    pub fn schedule(&self, now: SimTime, service: SimDuration) -> Grant {
        let mut st = self.state.lock();
        let (idx, _) = st
            .engines
            .iter()
            .enumerate()
            .min_by_key(|&(i, &free_at)| (free_at, i))
            .expect("a resource always has at least one engine");
        let start = st.engines[idx].max(now);
        let end = start + service;
        st.engines[idx] = end;
        st.busy_time += service;
        Grant { start, end }
    }

    /// The instant the resource fully drains (every engine idle) given
    /// work queued so far.
    pub fn busy_until(&self) -> SimTime {
        let st = self.state.lock();
        st.engines
            .iter()
            .copied()
            .max()
            .expect("a resource always has at least one engine")
    }

    /// Total service time ever granted (for utilization accounting).
    pub fn total_busy_time(&self) -> SimDuration {
        self.state.lock().busy_time
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_ordering() {
        let r = Resource::new("link");
        let g1 = r.schedule(SimTime::ZERO, SimDuration::from_secs(1));
        let g2 = r.schedule(SimTime::ZERO, SimDuration::from_secs(2));
        assert_eq!(g1.start, SimTime::ZERO);
        assert_eq!(g2.start, g1.end);
        assert_eq!(g2.end.as_secs_f64(), 3.0);
    }

    #[test]
    fn idle_resource_starts_immediately() {
        let r = Resource::new("link");
        let later = SimTime::ZERO + SimDuration::from_secs(10);
        let g = r.schedule(later, SimDuration::from_secs(1));
        assert_eq!(g.start, later);
        assert_eq!(g.end, later + SimDuration::from_secs(1));
    }

    #[test]
    fn busy_time_accumulates() {
        let r = Resource::new("link");
        r.schedule(SimTime::ZERO, SimDuration::from_secs(1));
        r.schedule(SimTime::ZERO, SimDuration::from_secs(3));
        assert_eq!(r.total_busy_time(), SimDuration::from_secs(4));
    }

    #[test]
    fn clones_share_queue() {
        let a = Resource::new("link");
        let b = a.clone();
        a.schedule(SimTime::ZERO, SimDuration::from_secs(5));
        let g = b.schedule(SimTime::ZERO, SimDuration::from_secs(1));
        assert_eq!(g.start.as_secs_f64(), 5.0);
    }

    #[test]
    fn multi_engine_resources_run_k_jobs_in_parallel() {
        let r = Resource::with_capacity("nic", 2);
        assert_eq!(r.capacity(), 2);
        let g1 = r.schedule(SimTime::ZERO, SimDuration::from_secs(4));
        let g2 = r.schedule(SimTime::ZERO, SimDuration::from_secs(4));
        let g3 = r.schedule(SimTime::ZERO, SimDuration::from_secs(4));
        // Two engines: first two jobs overlap, the third queues.
        assert_eq!(g1.start, SimTime::ZERO);
        assert_eq!(g2.start, SimTime::ZERO);
        assert_eq!(g3.start, g1.end);
        assert_eq!(r.busy_until(), g3.end);
        assert_eq!(r.total_busy_time(), SimDuration::from_secs(12));
    }

    #[test]
    fn zero_capacity_clamps_to_one_engine() {
        let r = Resource::with_capacity("link", 0);
        assert_eq!(r.capacity(), 1);
        let g = r.schedule(SimTime::ZERO, SimDuration::from_secs(1));
        assert_eq!(g.end.as_secs_f64(), 1.0);
    }

    #[test]
    fn jobs_pick_the_earliest_free_engine() {
        let r = Resource::with_capacity("nic", 2);
        r.schedule(SimTime::ZERO, SimDuration::from_secs(10)); // engine 0 busy till 10
        r.schedule(SimTime::ZERO, SimDuration::from_secs(1)); // engine 1 busy till 1
        let g = r.schedule(
            SimTime::ZERO + SimDuration::from_secs(2),
            SimDuration::from_secs(1),
        );
        // Engine 1 freed at 1 < arrival 2: start immediately.
        assert_eq!(g.start.as_secs_f64(), 2.0);
        assert_eq!(g.end.as_secs_f64(), 3.0);
    }
}
