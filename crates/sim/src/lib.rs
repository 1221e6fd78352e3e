//! # portus-sim
//!
//! Virtual-time foundation for the Portus reproduction: a shared
//! monotonic [`Clock`], the calibrated [`CostModel`] standing in for the
//! paper's testbed hardware, FIFO [`Resource`]s for contended links, the
//! datapath [`Stats`] counters behind the zero-copy assertions, and the
//! discrete-event core — a deterministic [`PlanQueue`] of events at
//! absolute virtual instants driven by the [`Engine`], with per-actor
//! local time and seeded randomness ([`SimRng`]) — for end-to-end
//! training timelines and multi-daemon fleet
//! runs where overlapping operations must finish at the *max*, not the
//! sum, of their durations.
//!
//! Everything timing-related in the workspace flows through a
//! [`SimContext`], which bundles a clock, a cost model, and counters.
//!
//! # Examples
//!
//! ```
//! use portus_sim::{MemoryKind, SimContext};
//!
//! let ctx = SimContext::icdcs24();
//! let d = ctx.model.rdma_read(1 << 20, MemoryKind::GpuHbm, true);
//! ctx.clock.advance_by(d);
//! assert!(ctx.clock.now().as_nanos() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod cost;
mod engine;
pub mod hash;
mod metrics;
mod plan;
mod resource;
mod rng;
mod stats;
mod time;
mod trace;

pub use clock::Clock;
pub use cost::{CostModel, MemoryKind};
pub use engine::{ActorId, Engine};
pub use metrics::{
    DaemonFleetStats, HistogramSnapshot, Metrics, MetricsSnapshot, StageHistogram, TenantSnapshot,
    HISTOGRAM_BUCKETS,
};
pub use plan::{PlanId, PlanQueue};
pub use resource::{Grant, Resource};
pub use rng::SimRng;
pub use stats::{Stats, StatsSnapshot};
pub use time::{SimDuration, SimTime};
pub use trace::{chrome_trace_json, SpanRecord, Stage, TraceEvent, TraceOp, Tracer};

/// Shared simulation context: one virtual timeline, one calibrated cost
/// model, one set of datapath counters, one span recorder, and one
/// metrics registry.
///
/// Cloning shares the clock, counters, tracer, and metrics (the model
/// is copied; it is immutable in practice).
#[derive(Debug, Clone, Default)]
pub struct SimContext {
    /// The shared virtual clock.
    pub clock: Clock,
    /// The calibrated device cost model.
    pub model: CostModel,
    /// Shared datapath counters.
    pub stats: Stats,
    /// Shared per-request span recorder (disabled until
    /// [`Tracer::enable`]).
    pub tracer: Tracer,
    /// Shared stage-latency histograms and queue gauges.
    pub metrics: Metrics,
}

impl SimContext {
    /// A context using the profile calibrated against the paper.
    pub fn icdcs24() -> Self {
        SimContext {
            clock: Clock::new(),
            model: CostModel::icdcs24(),
            stats: Stats::new(),
            tracer: Tracer::new(),
            metrics: Metrics::new(),
        }
    }

    /// Charges `d` of virtual time on the shared clock and returns the
    /// new instant.
    pub fn charge(&self, d: SimDuration) -> SimTime {
        self.clock.advance_by(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_clones_share_clock_and_stats() {
        let a = SimContext::icdcs24();
        let b = a.clone();
        a.charge(SimDuration::from_secs(1));
        b.stats.record_copy(8);
        assert_eq!(b.clock.now().as_secs_f64(), 1.0);
        assert_eq!(a.stats.snapshot().data_copies, 1);
    }
}
