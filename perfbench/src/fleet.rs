//! `fleet-async`: `run_fleet` with more clients than daemons under
//! `Policy::PortusAsync`, mirrored placement (2 replicas) and one daemon
//! loss at a seed-derived mid-run instant. The only workload on the
//! discrete-event plane (`portus_sim::PlanQueue`, `portus_cluster`),
//! and the only one that measures the training stall.
//!
//! Each fleet of the sequence gets its own seed, jitter and kill
//! instant; the first [`SAMPLE`] fleets are the virtual sample.

use std::time::Instant;

use portus_cluster::{run_fleet, FleetConfig, FleetResult, JobShape, PlacementConfig, Policy};
use portus_dnn::IterationProfile;
use portus_sim::{CostModel, SimDuration, SimRng, Stage, TraceOp, Tracer};

use crate::{layers, peak_rss_mib, percentile, ratio, secs, Metrics, Opts, Outcome};

/// Storage daemons in each fleet.
pub const DAEMONS: usize = 3;
/// Training clients in each fleet.
pub const CLIENTS: usize = 8;
/// Fleets in the virtual sample.
pub const SAMPLE: u64 = 64;
/// Set-ups per untraced run; `setup_s` is their median. One set-up
/// takes tens of microseconds, so many are timed.
const SETUPS: usize = 101;
const JOB_BYTES: u64 = 4_000_000_000;
/// Host seconds of each pass of a traced run, at least.
const PASS_S: f64 = 2.0;

/// Fleet `k` of the sequence seeded by `seed`.
pub fn config(seed: u64, k: u64) -> FleetConfig {
    let mut rng = SimRng::new(seed).fork(k);
    let mut cfg = FleetConfig::uniform(
        DAEMONS,
        CLIENTS,
        JobShape::single(JOB_BYTES, 400),
        IterationProfile::from_total(SimDuration::from_millis(350)),
        Policy::PortusAsync { every: 10 },
        100,
    )
    .with_placement(PlacementConfig::mirrored(2));
    cfg.seed = rng.next_u64();
    cfg.start_jitter = SimDuration::from_millis(200);
    // A solo client runs ~36 s; the loss lands in its middle half.
    let at = SimDuration::from_millis(9_000 + rng.gen_range(18_000));
    cfg.with_kill(rng.gen_range(DAEMONS as u64) as usize, at)
}

/// The configurations of the [`SAMPLE`] fleets starting at `from`.
fn sample_configs(seed: u64, from: u64) -> Vec<FleetConfig> {
    (from..from + SAMPLE).map(|k| config(seed, k)).collect()
}

/// Totals of a run of fleets.
#[derive(Default)]
struct Tally {
    checkpoints: u64,
    failed: u64,
    stall_ns: u64,
    makespan_ns: u64,
    fleets: u64,
    events: u64,
    ckpt_ns: Vec<u64>,
    nic_wait_ns: Vec<u64>,
    repair_bytes: u64,
    fenced_active: u64,
    failovers: u64,
}

impl Tally {
    /// Counts `r`'s checkpoints, losses and events.
    fn count(&mut self, r: &FleetResult) {
        self.fleets += 1;
        self.events += r.events_run;
        for c in &r.clients {
            self.checkpoints += c.checkpoints;
            self.failed += c.failed_checkpoints;
        }
    }

    /// Counts `r` and keeps its virtual-time samples.
    fn add(&mut self, r: &FleetResult) {
        self.count(r);
        self.makespan_ns += r.makespan.as_nanos();
        self.stall_ns += r
            .clients
            .iter()
            .map(|c| c.checkpoint_stall.as_nanos())
            .sum::<u64>();
        for s in r.spans.iter().filter(|s| s.op == TraceOp::Checkpoint) {
            match s.stage {
                Stage::Total => self.ckpt_ns.push(s.duration().as_nanos()),
                Stage::DispatchWait => self.nic_wait_ns.push(s.duration().as_nanos()),
                _ => {}
            }
        }
        for d in &r.metrics.fleet {
            self.repair_bytes += d.repair_bytes;
            self.fenced_active += d.fenced_active;
        }
        self.failovers += r.restores.iter().map(|m| m.failovers).sum::<u64>();
    }
}

/// Runs the `sample` fleets, then fleets `from + SAMPLE..` of the
/// sequence until `seconds` have passed; returns the tally, its virtual
/// sample and the host seconds. With a `tracer`, the first fleet's spans
/// are exported to it.
fn drive(
    m: &CostModel,
    seed: u64,
    from: u64,
    sample: &[FleetConfig],
    seconds: f64,
    tracer: Option<&Tracer>,
) -> (Tally, Tally, f64) {
    let (mut all, mut s) = (Tally::default(), Tally::default());
    let t = Instant::now();
    for (i, cfg) in sample.iter().enumerate() {
        let r = run_fleet(m, cfg);
        if let (0, Some(tracer)) = (i, tracer) {
            for span in &r.spans {
                tracer.record(span.clone());
            }
        }
        s.add(&r);
        all.count(&r);
    }
    let mut k = from + SAMPLE;
    while secs(t) < seconds {
        all.count(&run_fleet(m, &config(seed, k)));
        k += 1;
    }
    (all, s, secs(t))
}

/// Runs `fleet-async` as `opts` says.
pub fn run(opts: Opts) -> Outcome {
    if opts.trace {
        return traced(opts);
    }
    // Set-up: the cost model and the sample's fleet configurations.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut built = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let b = std::hint::black_box((CostModel::icdcs24(), sample_configs(opts.seed, 0)));
        setups.push(secs(t));
        built = Some(b);
    }
    let (m, sample) = built.expect("at least one set-up");
    let (all, s, host) = drive(&m, opts.seed, 0, &sample, opts.seconds, None);

    let mut e = Metrics::default();
    e.put(
        "ckpt_v_ms_p50",
        percentile(&s.ckpt_ns, 0.5) as f64 / 1e6,
        "ms",
    );
    e.put(
        "ckpt_v_ms_p90",
        percentile(&s.ckpt_ns, 0.9) as f64 / 1e6,
        "ms",
    );
    let ckpt_ns: u64 = s.ckpt_ns.iter().sum();
    e.put(
        "ckpt_v_gbps",
        ratio((s.ckpt_ns.len() as u64 * JOB_BYTES) as f64, ckpt_ns as f64),
        "GB/s",
    );
    e.put(
        "train_stall_v_ms_per_ckpt",
        ratio(s.stall_ns as f64, s.checkpoints as f64) / 1e6,
        "ms",
    );
    e.put(
        "makespan_v_s",
        ratio(s.makespan_ns as f64, s.fleets as f64) / 1e9,
        "s",
    );
    e.put("ops_host_per_s", all.checkpoints as f64 / host, "ops/s");
    let attempted = all.checkpoints + all.failed;
    e.put(
        "fail_ratio",
        ratio(all.failed as f64, attempted as f64),
        "ratio",
    );
    e.put("setup_s", percentile(&setups, 0.5), "s");
    e.put("peak_rss_mib", peak_rss_mib(), "MiB");
    Outcome {
        attempted,
        failed: all.failed,
        errors: fleet_errors(all.failed),
        e2e: e,
        ..Outcome::default()
    }
}

fn fleet_errors(lost: u64) -> Vec<String> {
    if lost == 0 {
        Vec::new()
    } else {
        vec![format!("{lost} fleet checkpoints lost every replica")]
    }
}

/// The traced run. The real-plane layers do no work on the fleet plane,
/// so their metrics read 0 here.
fn traced(opts: Opts) -> Outcome {
    let m = CostModel::icdcs24();
    // The fleet plane records its spans unconditionally; the traced pass
    // adds only the benchmark's own export of them. Each pass runs for
    // at least `PASS_S` so the overhead is not lost in timer noise.
    let (untraced, _, host_a) = drive(
        &m,
        opts.seed,
        0,
        &sample_configs(opts.seed, 0),
        PASS_S,
        None,
    );
    let tracer = Tracer::new();
    tracer.enable();
    let (all, s, host_b) = drive(
        &m,
        opts.seed,
        SAMPLE,
        &sample_configs(opts.seed, SAMPLE),
        PASS_S,
        Some(&tracer),
    );
    let rate_a = untraced.checkpoints as f64 / host_a;
    let rate_b = all.checkpoints as f64 / host_b;
    let mut l = Metrics::default();
    l.put("sim.events_run", s.events as f64, "count");
    l.put("sim.events_per_host_s", all.events as f64 / host_b, "1/s");
    l.put(
        "cluster.nic_wait_v_ms_p50",
        percentile(&s.nic_wait_ns, 0.5) as f64 / 1e6,
        "ms",
    );
    l.put(
        "cluster.nic_wait_v_ms_p90",
        percentile(&s.nic_wait_ns, 0.9) as f64 / 1e6,
        "ms",
    );
    l.put("cluster.repair_bytes", s.repair_bytes as f64, "bytes");
    l.put("cluster.fenced_active", s.fenced_active as f64, "count");
    l.put("cluster.restore_failovers", s.failovers as f64, "count");
    l.put(
        "bench.trace_overhead_pct",
        100.0 * (rate_a - rate_b) / rate_a,
        "%",
    );
    let lost = untraced.failed + all.failed;
    Outcome {
        attempted: untraced.checkpoints + all.checkpoints + lost,
        failed: lost,
        errors: fleet_errors(lost),
        layers: layers::complete(&l),
        chrome_trace: Some(tracer.to_chrome_trace()),
        ..Outcome::default()
    }
}
