//! Per-layer metrics of a traced pass: virtual self time per stage from
//! the recorded spans, counts from `SimStats` and the metrics gauges,
//! host time from the ledger and the probes.

use std::collections::BTreeMap;

use portus_sim::{MetricsSnapshot, SpanRecord, Stage, StatsSnapshot};

use crate::world::Ledger;
use crate::{percentile, ratio, Metrics};

/// Every per-layer metric, in report order, with its unit. Each
/// workload reports all of them; a layer the workload never enters
/// reads 0.
pub const NAMES: &[(&str, &str)] = &[
    ("client.ckpt_host_ms_p50", "ms"),
    ("client.ckpt_host_ms_p90", "ms"),
    ("client.delta_host_ms_p50", "ms"),
    ("client.delta_host_ms_p90", "ms"),
    ("client.restore_host_ms_p50", "ms"),
    ("client.restore_host_ms_p90", "ms"),
    ("client.register_host_us_p50", "us"),
    ("client.register_host_us_p90", "us"),
    ("dispatch.wait_v_us_p50", "us"),
    ("dispatch.wait_v_us_p90", "us"),
    ("dispatch.queue_peak", "count"),
    ("datapath.wqe_build_v_us_per_op", "us"),
    ("datapath.doorbell_v_ms_per_op", "ms"),
    ("datapath.cq_drain_v_ms_per_op", "ms"),
    ("datapath.posted_verbs_per_op", "count"),
    ("datapath.doorbells_per_op", "count"),
    ("datapath.failed_verbs", "count"),
    ("datapath.retried_verbs", "count"),
    ("datapath.tensors_per_wqe", "ratio"),
    ("seal.persist_v_ms_per_op", "ms"),
    ("seal.checksum_v_ms_per_op", "ms"),
    ("seal.header_flip_v_us_per_op", "us"),
    ("seal.overlap_permille", "permille"),
    ("carry.copy_v_ms_per_op", "ms"),
    ("carry.bytes_per_op", "bytes"),
    ("index.validate_v_us_per_op", "us"),
    ("index.digest_host_gbps", "GB/s"),
    ("index.fnv_host_gbps", "GB/s"),
    ("catalog.lookup_v_us_p50", "us"),
    ("catalog.lookup_host_us_p50", "us"),
    ("catalog.lookup_host_us_p90", "us"),
    ("catalog.hit_ratio", "ratio"),
    ("catalog.lookups", "count"),
    ("dedup.ingest_v_ms_per_op", "ms"),
    ("dedup.hash_host_gbps", "GB/s"),
    ("dedup.stored_ratio", "ratio"),
    ("dedup.shared_extent_ratio", "ratio"),
    ("pmem.read_host_gbps", "GB/s"),
    ("pmem.read64_host_ns", "ns"),
    ("pmem.flushes_per_op", "count"),
    ("pmem.fences_per_op", "count"),
    ("rdma.bytes_per_op", "bytes"),
    ("rdma.one_sided_ops_per_op", "count"),
    ("rdma.read_host_gbps", "GB/s"),
    ("gen.train_step_host_us", "us"),
    ("sim.events_run", "count"),
    ("sim.events_per_host_s", "1/s"),
    ("cluster.nic_wait_v_ms_p50", "ms"),
    ("cluster.nic_wait_v_ms_p90", "ms"),
    ("cluster.repair_bytes", "bytes"),
    ("cluster.fenced_active", "count"),
    ("cluster.restore_failovers", "count"),
    ("bench.trace_overhead_pct", "%"),
];

/// Orders `m` by [`NAMES`], filling every metric it lacks with 0.
pub fn complete(m: &Metrics) -> Metrics {
    let mut out = Metrics::default();
    for &(name, unit) in NAMES {
        out.put(name, m.get(name).unwrap_or(0.0), unit);
    }
    out
}

/// Parent-first order among spans covering the same interval.
fn rank(stage: Stage) -> u8 {
    match stage {
        Stage::Rpc => 0,
        Stage::Total => 1,
        _ => 2,
    }
}

/// Virtual self time of every span: its duration minus the part of it
/// that the spans it contains (of the same request) cover.
pub fn self_times(spans: &[SpanRecord]) -> Vec<(Stage, u64)> {
    let mut by_req: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans {
        by_req.entry(s.req_id).or_default().push(s);
    }
    let mut out = Vec::with_capacity(spans.len());
    for group in by_req.values() {
        for (i, s) in group.iter().enumerate() {
            let dur = s.duration().as_nanos();
            let mut kids: Vec<(u64, u64)> = group
                .iter()
                .enumerate()
                .filter(|&(j, c)| {
                    let cd = c.duration().as_nanos();
                    j != i
                        && c.start >= s.start
                        && c.end <= s.end
                        && (cd < dur || (cd == dur && rank(c.stage) > rank(s.stage)))
                })
                .map(|(_, c)| (c.start.as_nanos(), c.end.as_nanos()))
                .collect();
            kids.sort_unstable();
            let (mut covered, mut reach) = (0u64, 0u64);
            for (a, b) in kids {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            out.push((s.stage, dur - covered.min(dur)));
        }
    }
    out
}

/// What a traced real-plane pass recorded.
pub struct Pass<'a> {
    /// `SimStats` counters accumulated over the pass.
    pub stats: &'a StatsSnapshot,
    /// Metrics gauges and histograms before the pass.
    pub before: &'a MetricsSnapshot,
    /// Metrics gauges and histograms after the pass.
    pub after: &'a MetricsSnapshot,
    /// Spans recorded over the pass.
    pub spans: &'a [SpanRecord],
    /// The pass's client-side ledger.
    pub ledger: &'a Ledger,
}

/// Per-layer metrics of a real-plane pass.
pub fn real(p: &Pass) -> Metrics {
    let l = p.ledger;
    let mut m = Metrics::default();
    let ms = |v: &[f64], q| percentile(v, q) * 1e3;
    m.put("client.ckpt_host_ms_p50", ms(&l.ckpt_host, 0.5), "ms");
    m.put("client.ckpt_host_ms_p90", ms(&l.ckpt_host, 0.9), "ms");
    m.put("client.delta_host_ms_p50", ms(&l.delta_host, 0.5), "ms");
    m.put("client.delta_host_ms_p90", ms(&l.delta_host, 0.9), "ms");
    m.put("client.restore_host_ms_p50", ms(&l.restore_host, 0.5), "ms");
    m.put("client.restore_host_ms_p90", ms(&l.restore_host, 0.9), "ms");
    let us = |v: &[f64], q| percentile(v, q) * 1e6;
    m.put(
        "client.register_host_us_p50",
        us(&l.register_host, 0.5),
        "us",
    );
    m.put(
        "client.register_host_us_p90",
        us(&l.register_host, 0.9),
        "us",
    );

    let durations = |stage: Stage| -> Vec<u64> {
        p.spans
            .iter()
            .filter(|s| s.stage == stage)
            .map(|s| s.duration().as_nanos())
            .collect()
    };
    let waits = durations(Stage::DispatchWait);
    m.put(
        "dispatch.wait_v_us_p50",
        percentile(&waits, 0.5) as f64 / 1e3,
        "us",
    );
    m.put(
        "dispatch.wait_v_us_p90",
        percentile(&waits, 0.9) as f64 / 1e3,
        "us",
    );
    m.put(
        "dispatch.queue_peak",
        p.after.dispatch_queue_peak as f64,
        "count",
    );

    let selfs = self_times(p.spans);
    let total = |stage: Stage| -> f64 {
        selfs
            .iter()
            .filter(|(s, _)| *s == stage)
            .fold(0.0, |acc, (_, ns)| acc + *ns as f64)
    };
    let data_ops = l.sampled_ops() as f64;
    let deltas = l.delta_v.len() as f64;
    let seals = (l.full_v.len() + l.delta_v.len()) as f64;
    let st = p.stats;
    m.put(
        "datapath.wqe_build_v_us_per_op",
        ratio(total(Stage::WqeBuild), data_ops) / 1e3,
        "us",
    );
    m.put(
        "datapath.doorbell_v_ms_per_op",
        ratio(total(Stage::DoorbellPost), data_ops) / 1e6,
        "ms",
    );
    m.put(
        "datapath.cq_drain_v_ms_per_op",
        ratio(total(Stage::CqDrain), data_ops) / 1e6,
        "ms",
    );
    m.put(
        "datapath.posted_verbs_per_op",
        ratio(st.posted_verbs as f64, data_ops),
        "count",
    );
    m.put(
        "datapath.doorbells_per_op",
        ratio(st.doorbell_batches as f64, data_ops),
        "count",
    );
    m.put("datapath.failed_verbs", st.failed_verbs as f64, "count");
    m.put("datapath.retried_verbs", st.retried_verbs as f64, "count");
    m.put(
        "datapath.tensors_per_wqe",
        ratio(l.tensors_moved as f64, st.posted_verbs as f64),
        "ratio",
    );

    m.put(
        "seal.persist_v_ms_per_op",
        ratio(total(Stage::Persist), seals) / 1e6,
        "ms",
    );
    m.put(
        "seal.checksum_v_ms_per_op",
        ratio(total(Stage::Checksum), seals) / 1e6,
        "ms",
    );
    m.put(
        "seal.header_flip_v_us_per_op",
        ratio(total(Stage::HeaderFlip), seals) / 1e3,
        "us",
    );
    m.put(
        "seal.overlap_permille",
        p.after.pipeline_overlap_permille as f64,
        "permille",
    );
    m.put(
        "carry.copy_v_ms_per_op",
        ratio(total(Stage::CarryCopy), deltas) / 1e6,
        "ms",
    );
    m.put(
        "carry.bytes_per_op",
        ratio(l.carried_bytes as f64, deltas),
        "bytes",
    );
    m.put(
        "index.validate_v_us_per_op",
        ratio(total(Stage::Validate), data_ops) / 1e3,
        "us",
    );

    let lookups = durations(Stage::CatalogLookup);
    m.put(
        "catalog.lookup_v_us_p50",
        percentile(&lookups, 0.5) as f64 / 1e3,
        "us",
    );
    let hits = p.after.catalog_cache_hits - p.before.catalog_cache_hits;
    let misses = p.after.catalog_cache_misses - p.before.catalog_cache_misses;
    m.put(
        "catalog.hit_ratio",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    m.put("catalog.lookups", (hits + misses) as f64, "count");

    m.put(
        "dedup.ingest_v_ms_per_op",
        ratio(total(Stage::Dedup), seals) / 1e6,
        "ms",
    );
    m.put(
        "dedup.stored_ratio",
        ratio(
            p.after.dedup_stored_bytes as f64,
            p.after.dedup_logical_bytes as f64,
        ),
        "ratio",
    );
    m.put(
        "dedup.shared_extent_ratio",
        ratio(
            p.after.dedup_shared_extents as f64,
            p.after.dedup_live_extents as f64,
        ),
        "ratio",
    );

    m.put(
        "pmem.flushes_per_op",
        ratio(st.pmem_flushes as f64, data_ops),
        "count",
    );
    m.put(
        "pmem.fences_per_op",
        ratio(st.pmem_fences as f64, data_ops),
        "count",
    );
    m.put(
        "rdma.bytes_per_op",
        ratio(st.bytes_over_network as f64, data_ops),
        "bytes",
    );
    m.put(
        "rdma.one_sided_ops_per_op",
        ratio(st.rdma_one_sided_ops as f64, data_ops),
        "count",
    );
    m.put(
        "gen.train_step_host_us",
        percentile(&l.train_host, 0.5) * 1e6,
        "us",
    );
    m
}
