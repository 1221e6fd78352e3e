//! The run protocol shared by the three real-plane workloads.
//!
//! An untraced run sets the world up [`SETUPS`] times (reporting the
//! median), runs one untimed warm-up round, then times the seeded unit
//! sequence: its first [`RealWorkload::SAMPLE`] units are the virtual
//! sample, and the timed phase continues until `--seconds` have passed,
//! ending on a whole [`RealWorkload::ROUND`] so every run holds the same
//! mix of models.
//!
//! A traced run sets up once, runs one untraced pass and one traced
//! pass of the same length over the continuing sequence, then probes
//! the live layers' host speed.

use std::time::Instant;

use crate::layers::{self, Pass};
use crate::world::World;
use crate::{peak_rss_mib, percentile, probes, ratio, secs, Metrics, Opts, Outcome};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUPS: usize = 5;

/// One real-plane workload: a world plus a seeded sequence of units.
pub trait RealWorkload: Sized {
    /// Units in the fixed virtual sample.
    const SAMPLE: u64;
    /// Timed phases and passes end on a multiple of this many units.
    const ROUND: u64;

    /// Builds the world and the workload's models from `seed`.
    fn setup(seed: u64) -> Self;
    /// The world the workload runs against.
    fn world(&mut self) -> &mut World;
    /// Runs unit `i` of the seeded sequence.
    fn unit(&mut self, i: u64);
    /// Logical bytes of every model's latest durable version.
    fn user_bytes(&self) -> u64;
    /// Model names the host catalog probe resolves.
    fn probe_names(&self) -> Vec<String>;
    /// Tensor bytes of the workload (input of the hash probes).
    fn probe_sample(&self) -> Vec<u8>;
    /// Tears the world down, then runs any check that needs the memory
    /// back; returns the failures it found.
    fn close(self) -> Vec<String>;
}

/// Runs `W` as `opts` says.
pub fn run<W: RealWorkload>(opts: Opts) -> Outcome {
    if opts.trace {
        traced::<W>(opts)
    } else {
        untraced::<W>(opts)
    }
}

fn untraced<W: RealWorkload>(opts: Opts) -> Outcome {
    let mut setups = Vec::with_capacity(SETUPS);
    let mut setup_errors = Vec::new();
    let mut last: Option<W> = None;
    for _ in 0..SETUPS {
        if let Some(w) = last.take() {
            setup_errors.extend(w.close());
        }
        let t = Instant::now();
        last = Some(W::setup(opts.seed));
        setups.push(secs(t));
    }
    let mut w = last.expect("at least one set-up");
    // One untimed round first: it faults in the memory every later
    // round reuses, which otherwise adds its jitter to the first one.
    for i in 0..W::ROUND {
        w.unit(i);
    }
    w.world().ledger.reset_counters();

    w.world().ledger.sampling = true;
    let mut pmem_used = 0;
    let mut user_bytes = 0;
    let t0 = Instant::now();
    let mut done = 0;
    loop {
        w.unit(W::ROUND + done);
        done += 1;
        if done == W::SAMPLE {
            w.world().ledger.sampling = false;
            pmem_used = w.world().stats().pmem_used_bytes;
            user_bytes = w.user_bytes();
        }
        if done >= W::SAMPLE && done % W::ROUND == 0 && secs(t0) >= opts.seconds {
            break;
        }
    }
    let elapsed = secs(t0);

    let l = w.world().ledger.clone();
    let mut m = Metrics::default();
    let ms = |v: &[u64], q| percentile(v, q) as f64 / 1e6;
    let ckpt_v = l.ckpt_v();
    m.put("ckpt_v_ms_p50", ms(&ckpt_v, 0.5), "ms");
    m.put("ckpt_v_ms_p90", ms(&ckpt_v, 0.9), "ms");
    if !l.delta_v.is_empty() {
        m.put("full_v_ms_p50", ms(&l.full_v, 0.5), "ms");
        m.put("delta_v_ms_p50", ms(&l.delta_v, 0.5), "ms");
    }
    m.put("restore_v_ms_p50", ms(&l.restore_v, 0.5), "ms");
    m.put("restore_v_ms_p90", ms(&l.restore_v, 0.9), "ms");
    // Bytes per virtual nanosecond is GB/s.
    let ckpt_ns: u64 = ckpt_v.iter().sum();
    let restore_ns: u64 = l.restore_v.iter().sum();
    m.put(
        "ckpt_v_gbps",
        ratio(l.ckpt_v_bytes as f64, ckpt_ns as f64),
        "GB/s",
    );
    m.put(
        "restore_v_gbps",
        ratio(l.restore_v_bytes as f64, restore_ns as f64),
        "GB/s",
    );
    let ckpt_s: f64 = l.ckpt_host.iter().chain(&l.delta_host).sum();
    let restore_s: f64 = l.restore_host.iter().sum();
    m.put(
        "ckpt_host_gbps",
        ratio(l.ckpt_bytes as f64, ckpt_s) / 1e9,
        "GB/s",
    );
    m.put(
        "restore_host_gbps",
        ratio(l.restore_bytes as f64, restore_s) / 1e9,
        "GB/s",
    );
    m.put("ops_host_per_s", l.ops as f64 / elapsed, "ops/s");
    m.put(
        "pmem_bytes_per_user_byte",
        ratio(pmem_used as f64, user_bytes as f64),
        "ratio",
    );
    m.put(
        "fail_ratio",
        ratio(l.failed as f64, l.attempted as f64),
        "ratio",
    );
    m.put("setup_s", percentile(&setups, 0.5), "s");
    m.put("peak_rss_mib", peak_rss_mib(), "MiB");
    let mut late = setup_errors;
    late.extend(w.close());
    let mut errors = l.errors;
    errors.extend_from_slice(&late);
    Outcome {
        attempted: l.attempted,
        failed: l.failed + late.len() as u64,
        errors,
        e2e: m,
        ..Outcome::default()
    }
}

fn traced<W: RealWorkload>(opts: Opts) -> Outcome {
    let mut w = W::setup(opts.seed);
    w.world().ledger.reset_counters();
    let pass = W::SAMPLE.div_ceil(W::ROUND) * W::ROUND;

    // Untraced reference pass: the baseline of the tracing overhead.
    let t = Instant::now();
    for i in 0..pass {
        w.unit(i);
    }
    let untraced_rate = w.world().ledger.ops as f64 / secs(t);

    let world = w.world();
    world.ledger.reset_counters();
    world.ledger.sampling = true;
    let before = world.stats();
    let stats0 = world.ctx.stats.snapshot();
    world.ctx.tracer.clear();
    world.ctx.tracer.enable();
    let t = Instant::now();
    for i in pass..2 * pass {
        w.unit(i);
    }
    let traced_s = secs(t);
    let world = w.world();
    world.ctx.tracer.disable();
    let stats = world.ctx.stats.snapshot().since(&stats0);
    let spans = world.ctx.tracer.spans();
    let after = world.stats();
    let chrome = world.ctx.tracer.to_chrome_trace();
    let ledger = world.ledger.clone();

    let mut m = layers::real(&Pass {
        stats: &stats,
        before: &before,
        after: &after,
        spans: &spans,
        ledger: &ledger,
    });
    let traced_rate = ledger.ops as f64 / traced_s;
    m.put(
        "bench.trace_overhead_pct",
        100.0 * (untraced_rate - traced_rate) / untraced_rate,
        "%",
    );
    let names = w.probe_names();
    let sample = w.probe_sample();
    let (probed, mut errors) = probes::run(w.world(), &names, &sample);
    m.0.extend(probed.0);
    let ledger = w.world().ledger.clone();
    errors.extend(w.close());
    let failed = ledger.failed + errors.len() as u64;
    let mut all_errors = ledger.errors;
    all_errors.extend(errors);
    Outcome {
        attempted: ledger.attempted,
        failed,
        errors: all_errors,
        layers: layers::complete(&m),
        chrome_trace: Some(chrome),
        ..Outcome::default()
    }
}
