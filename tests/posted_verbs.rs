//! The posted-verb path: a batched checkpoint pull issued as posted
//! reads and settled through the completion queue — the shape a
//! production daemon's worker would use — plus device-image round-trip
//! properties for the portusctl path. The property runs as a
//! `proptest!` and as a `SimRng`-seeded plain `#[test]`, which also
//! runs under the offline `proptest` stand-in.

// Under the offline `proptest` stub the `proptest!` bodies are
// swallowed, leaving imports and strategy helpers "unused"; with the
// real crate they are all live.
#![allow(unused_imports, dead_code)]

use proptest::collection::vec;
use proptest::prelude::*;

use portus_mem::{Buffer, MemorySegment};
use portus_pmem::{load_image, save_image, PmemDevice, PmemMode};
use portus_rdma::{
    Access, CompletionQueue, Fabric, NodeId, PostedQueuePair, QueuePair, RegionTarget, SgEntry,
};
use portus_sim::{MemoryKind, SimContext, SimRng};

#[test]
fn batched_pull_via_completion_queue() {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    let storage = fabric.add_nic(NodeId(1));

    // Eight "tensors" on the GPU.
    let tensors: Vec<_> = (0..8u8)
        .map(|i| {
            Buffer::new(
                MemoryKind::GpuHbm,
                MemorySegment::from_bytes(vec![i + 1; 64 * 1024]),
            )
        })
        .collect();
    let mrs: Vec<_> = tensors
        .iter()
        .map(|t| compute.register(RegionTarget::Buffer(t.clone()), Access::READ))
        .collect();

    let pmem = PmemDevice::new(ctx, PmemMode::DevDax, 1 << 20);
    let (_qc, qs) = QueuePair::connect(compute, storage);
    let cq = CompletionQueue::new();
    let qp = PostedQueuePair::new(qs, cq.clone());

    // Post the whole batch, then settle.
    for (i, mr) in mrs.iter().enumerate() {
        let dst = RegionTarget::Pmem {
            dev: pmem.clone(),
            base: i as u64 * 64 * 1024,
            len: 64 * 1024,
        };
        let seg = SgEntry {
            rkey: mr.rkey(),
            offset: 0,
            len: 64 * 1024,
        };
        qp.post_read_gather(&[seg], &dst, 0);
    }
    let done = cq.poll(64);
    assert_eq!(done.len(), 8);
    assert!(done.iter().all(|w| w.is_ok()));

    // Bytes landed exactly where posted.
    for (i, t) in tensors.iter().enumerate() {
        let window = RegionTarget::Pmem {
            dev: pmem.clone(),
            base: i as u64 * 64 * 1024,
            len: 64 * 1024,
        };
        assert_eq!(window.checksum().unwrap(), t.checksum(), "tensor {i}");
    }
}

/// save_image → load_image reproduces exactly the durable content
/// for arbitrary persisted writes (and never the volatile ones).
fn check_image_round_trip(writes: &[(u64, Vec<u8>)], volatile_at: u64) {
    let dir = std::env::temp_dir().join(format!("portus-img-prop-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("d{volatile_at}.img"));

    let ctx = SimContext::icdcs24();
    let dev = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 1 << 17);
    for (off, data) in writes {
        dev.write(*off, data).unwrap();
        dev.persist(*off, data.len() as u64).unwrap();
    }
    dev.write(volatile_at, b"never-fenced").unwrap();

    save_image(&dev, &path).unwrap();
    let loaded = load_image(ctx, &path).unwrap();
    // Durable content reproduced byte-for-byte: compare the full
    // durable view of both devices (original post-crash vs loaded).
    dev.crash(portus_pmem::CrashSpec::LoseAll);
    let mut a = vec![0u8; 1 << 17];
    let mut b = vec![0u8; 1 << 17];
    dev.read(0, &mut a).unwrap();
    loaded.read(0, &mut b).unwrap();
    assert_eq!(a, b);

    std::fs::remove_file(&path).ok();
}

#[test]
fn device_image_round_trips_arbitrary_durable_content_seeded() {
    for seed in 0..16 {
        let mut rng = SimRng::new(seed);
        let writes: Vec<(u64, Vec<u8>)> = (0..1 + rng.gen_range(11))
            .map(|_| {
                let off = rng.gen_range(1 << 16);
                let data = (0..1 + rng.gen_range(255))
                    .map(|_| rng.next_u64() as u8)
                    .collect();
                (off, data)
            })
            .collect();
        check_image_round_trip(&writes, rng.gen_range(1 << 16));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// save_image → load_image reproduces exactly the durable content
    /// for arbitrary persisted writes (and never the volatile ones).
    #[test]
    fn device_image_round_trips_arbitrary_durable_content(
        writes in vec((0u64..(1 << 16), vec(any::<u8>(), 1..256)), 1..12),
        volatile_at in 0u64..(1 << 16),
    ) {
        check_image_round_trip(&writes, volatile_at);
    }
}
