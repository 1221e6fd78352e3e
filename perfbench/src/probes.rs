//! Host-time probes: the benchmark's own timers around public calls
//! into single layers of a live world (after its traced pass, so the
//! virtual time they charge never reaches a reported virtual metric).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use portus::{region_digest, SlotState};
use portus_mem::{Buffer, MemorySegment};
use portus_pmem::content_hash;
use portus_rdma::{Access, NodeId, QueuePair, RegionTarget};
use portus_sim::MemoryKind;

use crate::world::World;
use crate::{percentile, secs, Metrics};

/// Host seconds each throughput probe runs for, at least.
const PROBE_S: f64 = 0.15;

/// Repeats `f` (which processes `bytes` per call) for at least
/// [`PROBE_S`] and returns GB/s.
fn gbps(bytes: u64, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || secs(t) < PROBE_S {
        f();
        calls += 1;
    }
    (bytes * calls) as f64 / secs(t) / 1e9
}

/// Runs every host probe against `w`. `names` are model names the
/// workload used (looked up through the catalog when one is mounted);
/// `sample` is tensor bytes of the workload, the input of the digest
/// and content-hash probes. Unresolved names are returned as errors.
pub fn run(w: &World, names: &[String], sample: &[u8]) -> (Metrics, Vec<String>) {
    let mut m = Metrics::default();
    let mut errors = Vec::new();
    let n = sample.len() as u64;

    m.put(
        "index.digest_host_gbps",
        gbps(n, || {
            black_box(region_digest(black_box(sample), 0));
        }),
        "GB/s",
    );

    // FNV slot checksum on the live index: the first model holding a
    // sealed contiguous slot (extent-mapped slots have no region).
    let index = w.daemon.index();
    let slot = index
        .live_entries()
        .unwrap_or_default()
        .into_iter()
        .filter_map(|(_, off)| index.load_mindex(off).ok())
        .find_map(|mi| {
            let s = mi
                .slots
                .iter()
                .position(|h| h.state == SlotState::Done && h.data_off != 0)?;
            Some((mi, s))
        });
    let fnv = slot.as_ref().map_or(0.0, |(mi, s)| {
        gbps(mi.slots[*s].data_len, || {
            black_box(index.slot_checksum(mi, *s).expect("live slot reads"));
        })
    });
    m.put("index.fnv_host_gbps", fnv, "GB/s");

    let chunk = 64 << 10;
    m.put(
        "dedup.hash_host_gbps",
        gbps(n, || {
            for c in sample.chunks(chunk) {
                black_box(content_hash(black_box(c)));
            }
        }),
        "GB/s",
    );

    // PMem reads on the live device, over the probed slot's region (or
    // the namespace start when no contiguous slot exists).
    let (base, len) = slot.as_ref().map_or((0, 16 << 20), |(mi, s)| {
        (mi.slots[*s].data_off, mi.slots[*s].data_len)
    });
    let len = len.min(w.pmem.capacity() - base).max(256 << 10);
    let mut buf = vec![0u8; 256 << 10];
    let blocks = len / (256 << 10);
    let mut next = 0u64;
    m.put(
        "pmem.read_host_gbps",
        gbps(256 << 10, || {
            let off = base + (next % blocks) * (256 << 10);
            next += 1;
            w.pmem.read(off, &mut buf).expect("in-bounds read");
            black_box(&buf);
        }),
        "GB/s",
    );
    let mut line = [0u8; 64];
    let reads = 100_000u64;
    let t = Instant::now();
    for i in 0..reads {
        let off = base + (i * 4160) % (len - 64);
        w.pmem.read(off, &mut line).expect("in-bounds read");
        black_box(&line);
    }
    m.put("pmem.read64_host_ns", secs(t) * 1e9 / reads as f64, "ns");

    // One-sided reads over the live fabric: a probe queue pair from the
    // storage NIC pulls a GPU-resident buffer into host DRAM.
    let len = n.min(16 << 20) as usize;
    let src = Buffer::new(
        MemoryKind::GpuHbm,
        MemorySegment::from_bytes(sample[..len].to_vec()),
    );
    let mr = w
        .compute
        .register(RegionTarget::Buffer(Arc::clone(&src)), Access::READ);
    let dst = RegionTarget::Buffer(Buffer::new(
        MemoryKind::HostDram,
        MemorySegment::zeroed(src.len()),
    ));
    let storage = w.fabric.nic(NodeId(1)).expect("storage NIC exists");
    let (qp, _peer) = QueuePair::connect(storage, Arc::clone(&w.compute));
    m.put(
        "rdma.read_host_gbps",
        gbps(src.len(), || {
            qp.read(mr.rkey(), 0, &dst, 0, src.len())
                .expect("probe read");
        }),
        "GB/s",
    );
    w.compute.deregister(mr.rkey());

    // Catalog name resolution on the live daemon.
    let lookups: Vec<f64> = match index.catalog() {
        Some(cat) => names
            .iter()
            .map(|name| {
                let t = Instant::now();
                let hit = cat.lookup(name);
                let s = secs(t);
                if !matches!(hit, Ok(Some(_))) {
                    errors.push(format!("catalog lookup {name}: unresolved"));
                }
                s
            })
            .collect(),
        None => Vec::new(),
    };
    m.put(
        "catalog.lookup_host_us_p50",
        percentile(&lookups, 0.5) * 1e6,
        "us",
    );
    m.put(
        "catalog.lookup_host_us_p90",
        percentile(&lookups, 0.9) * 1e6,
        "us",
    );
    (m, errors)
}
