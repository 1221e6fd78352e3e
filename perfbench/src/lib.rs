//! The Portus benchmark: four seeded workloads driven through the
//! public API (`PortusDaemon`/`PortusClient`, `ModelInstance`, `zoo`,
//! `run_fleet`), reporting end-to-end metrics from an untraced run and
//! per-layer metrics from a traced one.
//!
//! Every metric name says which clock it reads: `_v_` is virtual time
//! (the modeled hardware, deterministic for a seed), `_host_` is host
//! wall time (the speed of the Rust code that moves the bytes). Counts
//! and virtual metrics are taken over a fixed, seed-determined sample
//! of operations, so they repeat exactly; host metrics cover the whole
//! timed phase. See `README.md` next to this crate for the workloads
//! and the predictions each layer metric carries.

use std::time::Instant;

pub mod fleet;
pub mod hub;
pub mod layers;
pub mod probes;
pub mod recsys;
pub mod runner;
pub mod world;
pub mod zoo;

/// End-to-end metrics of the result line, as `BENCHMARK.json` declares
/// them: those every workload reports and that stay steady enough from
/// run to run to gate. The others a workload prints only in its table.
pub const GATED: &[&str] = &["ckpt_v_gbps", "setup_s", "peak_rss_mib"];

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full checkpoint → restore cycles over four Table II models.
    ZooFull,
    /// Sparse embedding updates with delta checkpoints on the striped path.
    RecsysDelta,
    /// A thousand small fine-tunes on a dedup + catalog daemon.
    ModelHub,
    /// A replicated fleet on the discrete-event plane with a daemon loss.
    FleetAsync,
}

impl Workload {
    /// Every workload, in the order the documentation lists them.
    pub const ALL: [Workload; 4] = [
        Workload::ZooFull,
        Workload::RecsysDelta,
        Workload::ModelHub,
        Workload::FleetAsync,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ZooFull => "zoo-full",
            Workload::RecsysDelta => "recsys-delta",
            Workload::ModelHub => "model-hub",
            Workload::FleetAsync => "fleet-async",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// How one run is driven.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Host seconds the timed phase runs for, at least (the fixed
    /// virtual sample always completes, so `0` runs the sample alone).
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`layer.metric` for per-layer ones).
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Unit, as printed.
    pub unit: &'static str,
}

/// An ordered list of metrics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends `name = value unit`.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Whether the metric is read off the host clock (or the host's
    /// memory), and so varies between runs of the same seed.
    pub fn is_host(name: &str) -> bool {
        name.contains("_host")
            || matches!(
                name,
                "setup_s" | "peak_rss_mib" | "bench.trace_overhead_pct"
            )
    }
}

/// What one run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Client operations attempted (checkpoints, deltas, restores; on
    /// `fleet-async`, simulated checkpoints).
    pub attempted: u64,
    /// Attempted operations that failed: typed errors, verification
    /// mismatches, unresolved catalog names, fleet `failed_checkpoints`.
    pub failed: u64,
    /// The first few failures, described.
    pub errors: Vec<String>,
    /// End-to-end metrics (untraced run).
    pub e2e: Metrics,
    /// Per-layer metrics (traced run).
    pub layers: Metrics,
    /// Chrome trace of the traced pass.
    pub chrome_trace: Option<String>,
}

impl Outcome {
    /// True when no operation failed and every output verified.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// Runs `workload` once.
pub fn run(workload: Workload, opts: Opts) -> Outcome {
    match workload {
        Workload::ZooFull => runner::run::<zoo::ZooFull>(opts),
        Workload::RecsysDelta => runner::run::<recsys::RecsysDelta>(opts),
        Workload::ModelHub => runner::run::<hub::ModelHub>(opts),
        Workload::FleetAsync => fleet::run(opts),
    }
}

/// Nearest-rank percentile of an unsorted sample (0 when empty).
pub fn percentile<T: Copy + PartialOrd + Default>(values: &[T], q: f64) -> T {
    if values.is_empty() {
        return T::default();
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in samples"));
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Peak resident set of this process, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Host seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}
