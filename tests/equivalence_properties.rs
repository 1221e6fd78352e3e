//! Higher-order equivalence properties across the system.
//!
//! Each property runs twice: as a `proptest!` (shrinking, with the real
//! crate) and as a plain `#[test]` over `SimRng`-seeded inputs, which
//! also runs under the offline `proptest` stand-in.

// Under the offline `proptest` stub the `proptest!` bodies are
// swallowed, leaving the strategy helpers "unused"; with the real
// crate they are all live.
#![allow(unused_imports, dead_code)]

use proptest::collection::vec;
use proptest::prelude::*;

use portus::{DaemonConfig, Index, PortusClient, PortusDaemon};
use portus_dnn::{DType, Materialization, ModelInstance, ModelSpec, TensorMeta};
use portus_mem::GpuDevice;
use portus_pmem::{PmemDevice, PmemMode};
use portus_rdma::{Fabric, NodeId};
use portus_sim::{SimContext, SimRng};

// ---------------------------------------------------------------------
// Delta checkpoints are semantically identical to full checkpoints.
// ---------------------------------------------------------------------

/// For a sequence of sparse updates, a delta checkpoint restores to
/// exactly the state a full checkpoint would have captured.
fn check_delta_equals_full(touch_sets: &[Vec<usize>]) {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 64 << 20);
    let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem, DaemonConfig::default()).unwrap();
    let gpu = GpuDevice::new(ctx, 0, 1 << 30);
    let spec = portus_dnn::test_spec("equiv", 6, 32 * 1024);
    let mut model = ModelInstance::materialize(&spec, &gpu, 1, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&daemon, compute);
    client.register_model(&model).unwrap();

    // Base version.
    model.train_step();
    model.take_dirty();
    client.checkpoint("equiv").unwrap();

    for touches in touch_sets {
        model.train_step_sparse(touches);
        let dirty = model.take_dirty();
        let expected = model.model_checksum();
        client.checkpoint_delta("equiv", &dirty).unwrap();

        // Restore into a scratch-diverged model and compare.
        model.train_step();
        client.restore(&model).unwrap();
        assert_eq!(model.model_checksum(), expected, "touches {touches:?}");
    }
}

#[test]
fn delta_checkpoint_equals_full_checkpoint_seeded() {
    for seed in 0..10 {
        let mut rng = SimRng::new(seed);
        let touch_sets: Vec<Vec<usize>> = (0..1 + rng.gen_range(4))
            .map(|_| {
                (0..rng.gen_range(4))
                    .map(|_| rng.gen_range(6) as usize)
                    .collect()
            })
            .collect();
        check_delta_equals_full(&touch_sets);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// For any sequence of sparse updates and any dirty-mask usage, a
    /// delta checkpoint restores to exactly the state a full checkpoint
    /// would have captured.
    #[test]
    fn delta_checkpoint_equals_full_checkpoint(
        touch_sets in vec(vec(0usize..6, 0..4), 1..5),
    ) {
        check_delta_equals_full(&touch_sets);
    }
}

// ---------------------------------------------------------------------
// PMem: bulk (page) and fine-grained (line) writes are equivalent.
// ---------------------------------------------------------------------

/// Writing `data` at `base` as one bulk store or as `piece`-byte
/// stores yields identical coherent reads and identical durable content
/// after persist.
fn check_bulk_equals_piecewise(data: &[u8], base: u64, piece: usize) {
    let ctx = SimContext::icdcs24();
    let bulk = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 1 << 16);
    let fine = PmemDevice::new(ctx, PmemMode::DevDax, 1 << 16);

    bulk.write(base, data).unwrap();
    for (i, chunk) in data.chunks(piece).enumerate() {
        fine.write(base + (i * piece) as u64, chunk).unwrap();
    }

    let mut a = vec![0u8; data.len()];
    let mut b = vec![0u8; data.len()];
    bulk.read(base, &mut a).unwrap();
    fine.read(base, &mut b).unwrap();
    assert_eq!(a, b);

    bulk.persist(base, data.len() as u64).unwrap();
    fine.persist(base, data.len() as u64).unwrap();
    bulk.crash(portus_pmem::CrashSpec::LoseAll);
    fine.crash(portus_pmem::CrashSpec::LoseAll);
    bulk.read(base, &mut a).unwrap();
    fine.read(base, &mut b).unwrap();
    assert_eq!(a, data);
    assert_eq!(b, data);
}

#[test]
fn pmem_bulk_and_piecewise_writes_are_equivalent_seeded() {
    for seed in 0..32 {
        let mut rng = SimRng::new(seed);
        let len = 1 + rng.gen_range(3 * 4096 - 1) as usize;
        let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let base = rng.gen_range(4096);
        let piece = 1 + rng.gen_range(256) as usize;
        check_bulk_equals_piecewise(&data, base, piece);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Writing a blob as one bulk store or as many small stores yields
    /// identical coherent reads and identical durable content after
    /// persist — the page-coalescing optimization must be invisible.
    #[test]
    fn pmem_bulk_and_piecewise_writes_are_equivalent(
        data in vec(any::<u8>(), 1..(3 * 4096)),
        base in 0u64..4096,
        piece in 1usize..257,
    ) {
        check_bulk_equals_piecewise(&data, base, piece);
    }
}

// ---------------------------------------------------------------------
// Persistent index round-trips arbitrary metadata.
// ---------------------------------------------------------------------

fn arb_meta(i: usize) -> impl Strategy<Value = TensorMeta> {
    (
        prop_oneof![
            Just(DType::F16),
            Just(DType::F32),
            Just(DType::I64),
            Just(DType::U8)
        ],
        vec(1u64..64, 0..4),
        "[a-z][a-z0-9_.]{0,40}",
    )
        .prop_map(move |(dtype, shape, name)| TensorMeta::new(format!("{name}.{i}"), dtype, shape))
}

/// `create_model` → `load_mindex` is the identity on `metas`, and
/// the loaded relative offsets tile the payload exactly.
fn check_index_round_trip(name: &str, metas: &[TensorMeta]) {
    let dev = PmemDevice::new(SimContext::icdcs24(), PmemMode::DevDax, 64 << 20);
    let index = Index::format(dev, 16, 128).unwrap();
    let spec = ModelSpec::new(name.to_string(), metas.to_vec());
    let mi = index.create_model(name, &spec.tensors).unwrap();
    let loaded = index.load_mindex(mi.offset).unwrap();
    assert_eq!(loaded.name, name);
    assert_eq!(loaded.tensors.len(), metas.len());
    for (rec, meta) in loaded.tensors.iter().zip(metas) {
        assert_eq!(&rec.meta, meta);
    }
    let mut cursor = 0u64;
    for rec in &loaded.tensors {
        assert_eq!(rec.rel_off, cursor);
        cursor += rec.meta.size_bytes();
    }
    assert_eq!(cursor, loaded.total_bytes);
}

/// A seeded name: one of `head`, then up to `max_tail` of `tail`.
fn seeded_name(rng: &mut SimRng, head: &[u8], tail: &[u8], max_tail: u64) -> String {
    let len = 1 + rng.gen_range(max_tail + 1);
    (0..len)
        .map(|i| {
            let set = if i == 0 { head } else { tail };
            set[rng.gen_range(set.len() as u64) as usize] as char
        })
        .collect()
}

#[test]
fn index_round_trips_arbitrary_models_seeded() {
    const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const TENSOR_TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_.";
    const MODEL_TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789-";
    const DTYPES: [DType; 4] = [DType::F16, DType::F32, DType::I64, DType::U8];
    for seed in 0..24 {
        let mut rng = SimRng::new(seed);
        let metas: Vec<TensorMeta> = (0..1 + rng.gen_range(11) as usize)
            .map(|i| {
                let dtype = DTYPES[rng.gen_range(4) as usize];
                let shape: Vec<u64> = (0..rng.gen_range(4))
                    .map(|_| 1 + rng.gen_range(63))
                    .collect();
                let name = seeded_name(&mut rng, LOWER, TENSOR_TAIL, 40);
                TensorMeta::new(format!("{name}.{i}"), dtype, shape)
            })
            .collect();
        let name = seeded_name(&mut rng, LOWER, MODEL_TAIL, 40);
        check_index_round_trip(&name, &metas);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `create_model` → `load_mindex` is the identity on tensor
    /// metadata, for arbitrary dtypes/shapes/names.
    #[test]
    fn index_round_trips_arbitrary_models(
        metas in (1usize..12).prop_flat_map(|n| {
            (0..n).map(arb_meta).collect::<Vec<_>>()
        }),
        name in "[a-z][a-z0-9-]{0,40}",
    ) {
        check_index_round_trip(&name, &metas);
    }
}
