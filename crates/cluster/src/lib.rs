//! # portus-cluster
//!
//! End-to-end training simulation over the virtual timeline: analytic
//! operation costs for workloads too large to materialize ([`ops`]),
//! the four checkpoint policies of Fig. 9 ([`Policy`]), and one
//! training plane on the discrete-event core ([`run_fleet`]): N
//! daemons and M clients, where overlapping clients finish at the
//! *max*, not the sum, of their durations. The harness behind
//! Figs. 2/15 ([`run_training`]) is its one-client case. On top sit
//! GPU-utilization traces for Fig. 16 ([`utilization_trace`],
//! exportable as Chrome trace-event JSON via [`run_chrome_trace`]) and
//! failure injection for the lost-work trade-off the paper motivates
//! ([`run_with_failures`]).
//!
//! # Examples
//!
//! ```
//! use portus_cluster::{run_training, JobShape, Policy, TrainingConfig};
//! use portus_dnn::IterationProfile;
//! use portus_sim::{CostModel, SimDuration};
//!
//! let cfg = TrainingConfig {
//!     job: JobShape::single(1 << 30, 300),
//!     profile: IterationProfile::from_total(SimDuration::from_millis(350)),
//!     policy: Policy::PortusAsync { every: 10 },
//! };
//! let result = run_training(&CostModel::icdcs24(), &cfg, 100);
//! assert_eq!(result.iterations, 100);
//! assert!(result.avg_utilization() > 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod advisor;
mod event;
mod failure;
mod harness;
pub mod ops;
pub mod placement;
mod policy;
mod trace;

pub use advisor::{advise, stall_per_checkpoint, Advice};
pub use event::{
    run_fleet, ClientResult, ClientSpec, DaemonKill, EventRecord, FleetConfig, FleetResult,
    ModelRestore,
};
pub use failure::{
    daemon_loss_report, restore_cost, run_with_failures, DaemonLossReport, FailureOutcome,
};
pub use harness::{run_training, RunResult, Segment, TrainingConfig};
pub use ops::{Backend, JobShape, OpCost};
pub use placement::{replica_order, replica_set, PlacementConfig};
pub use policy::Policy;
pub use trace::{
    mean_utilization, peak_utilization, run_chrome_trace, segment, utilization_trace, UtilSample,
};
