//! Property-based tests over the core data structures and invariants.
//!
//! Each property runs twice: as a `proptest!` (shrinking, with the real
//! crate) and as a plain `#[test]` over `SimRng`-seeded inputs, which
//! also runs under the offline `proptest` stand-in.

// Under the offline `proptest` stub the `proptest!` bodies are
// swallowed, leaving imports and strategy helpers "unused"; with the
// real crate they are all live.
#![allow(unused_imports, dead_code)]

use proptest::collection::vec;
use proptest::prelude::*;

use portus::name_hash;
use portus_dnn::{DType, Materialization, ModelInstance, ModelSpec, TensorMeta};
use portus_format::{read_checkpoint, write_checkpoint, CheckpointEntry, PayloadSource};
use portus_mem::GpuDevice;
use portus_pmem::{CrashSpec, PmemAllocator, PmemDevice, PmemMode};
use portus_sim::{SimContext, SimRng};

// ---------------------------------------------------------------------
// Allocator invariants
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum AllocOp {
    Alloc(u16),
    Free(u8),
}

fn alloc_ops() -> impl Strategy<Value = Vec<AllocOp>> {
    vec(
        prop_oneof![
            (64u16..4096).prop_map(AllocOp::Alloc),
            any::<u8>().prop_map(AllocOp::Free),
        ],
        1..60,
    )
}

/// Live allocations never overlap and always fall inside the heap,
/// whatever the alloc/free sequence; free bytes are conserved.
fn check_allocator_never_overlaps(ops: &[AllocOp]) {
    let dev = PmemDevice::new(SimContext::icdcs24(), PmemMode::DevDax, 1 << 20);
    let alloc = PmemAllocator::format(dev, 0, 128, 1 << 14, 1 << 20).unwrap();
    let total_free = alloc.free_bytes();
    let mut live = Vec::new();
    for op in ops {
        match *op {
            AllocOp::Alloc(len) => {
                if let Ok(a) = alloc.alloc(len as u64, 7) {
                    live.push(a);
                }
            }
            AllocOp::Free(idx) => {
                if !live.is_empty() {
                    let a = live.swap_remove(idx as usize % live.len());
                    alloc.free(&a).unwrap();
                }
            }
        }
        // Invariants after every step.
        let mut sorted = alloc.live_allocations();
        sorted.sort_by_key(|a| a.offset);
        let (heap_base, heap_end) = alloc.heap_bounds();
        for w in sorted.windows(2) {
            assert!(w[0].offset + w[0].len <= w[1].offset, "overlap");
        }
        for a in &sorted {
            assert!(a.offset >= heap_base && a.offset + a.len <= heap_end);
        }
        let used: u64 = sorted.iter().map(|a| a.len).sum();
        // Free + used never exceeds the heap (alignment padding may
        // be counted free, never double-counted used).
        assert!(alloc.free_bytes() + used <= total_free + used);
        assert!(alloc.free_bytes() + used >= total_free.min(alloc.free_bytes() + used));
    }
    // Freeing everything restores the single maximal extent.
    for a in live {
        alloc.free(&a).unwrap();
    }
    assert_eq!(alloc.free_bytes(), total_free);
    assert_eq!(alloc.largest_free_extent(), total_free);
}

/// Recovery after a clean shutdown reproduces exactly the live set.
fn check_allocator_recovery_is_exact(ops: &[AllocOp]) {
    let dev = PmemDevice::new(SimContext::icdcs24(), PmemMode::DevDax, 1 << 20);
    let alloc = PmemAllocator::format(dev.clone(), 0, 128, 1 << 14, 1 << 20).unwrap();
    let mut live = Vec::new();
    for op in ops {
        match *op {
            AllocOp::Alloc(len) => {
                if let Ok(a) = alloc.alloc(len as u64, u64::from(len)) {
                    live.push(a);
                }
            }
            AllocOp::Free(idx) => {
                if !live.is_empty() {
                    let a = live.swap_remove(idx as usize % live.len());
                    alloc.free(&a).unwrap();
                }
            }
        }
    }
    let free_before = alloc.free_bytes();
    let mut expect = alloc.live_allocations();
    expect.sort_by_key(|a| a.offset);
    drop(alloc);
    dev.crash(CrashSpec::LoseAll); // slot updates are persisted per-op

    let rec = PmemAllocator::recover(dev, 0).unwrap();
    let mut got = rec.live_allocations();
    got.sort_by_key(|a| a.offset);
    assert_eq!(got, expect);
    assert_eq!(rec.free_bytes(), free_before);
}

/// One seeded alloc/free sequence: 1–59 ops, allocations of 64–4095
/// bytes, the same shape as [`alloc_ops`].
fn seeded_alloc_ops(seed: u64) -> Vec<AllocOp> {
    let mut rng = SimRng::new(seed);
    let len = 1 + rng.gen_range(59);
    (0..len)
        .map(|_| {
            if rng.gen_range(2) == 0 {
                AllocOp::Alloc(64 + rng.gen_range(4096 - 64) as u16)
            } else {
                AllocOp::Free(rng.next_u64() as u8)
            }
        })
        .collect()
}

#[test]
fn allocator_never_overlaps_seeded() {
    for seed in 0..48 {
        check_allocator_never_overlaps(&seeded_alloc_ops(seed));
    }
}

#[test]
fn allocator_recovery_is_exact_seeded() {
    for seed in 0..48 {
        check_allocator_recovery_is_exact(&seeded_alloc_ops(seed));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Live allocations never overlap and always fall inside the heap,
    /// whatever the alloc/free sequence; free bytes are conserved.
    #[test]
    fn allocator_never_overlaps(ops in alloc_ops()) {
        check_allocator_never_overlaps(&ops);
    }

    /// Recovery after a clean shutdown reproduces exactly the live set.
    #[test]
    fn allocator_recovery_is_exact(ops in alloc_ops()) {
        check_allocator_recovery_is_exact(&ops);
    }
}

// ---------------------------------------------------------------------
// Container round trip
// ---------------------------------------------------------------------

fn arb_dtype() -> impl Strategy<Value = DType> {
    prop_oneof![
        Just(DType::F16),
        Just(DType::BF16),
        Just(DType::F32),
        Just(DType::F64),
        Just(DType::I32),
        Just(DType::I64),
        Just(DType::U8),
    ]
}

/// One tensor of an arbitrary container: dtype, shape and name stem.
type TensorShape = (DType, Vec<u64>, String);

/// serialize → deserialize is the identity for arbitrary models.
fn check_container_round_trips(model_name: &str, tensors: &[TensorShape]) {
    let entries: Vec<CheckpointEntry> = tensors
        .iter()
        .enumerate()
        .map(|(i, (dtype, shape, name))| {
            let meta = TensorMeta::new(format!("{name}{i}"), *dtype, shape.clone());
            let payload: Vec<u8> = (0..meta.size_bytes())
                .map(|b| (b ^ i as u64) as u8)
                .collect();
            CheckpointEntry {
                meta,
                data: PayloadSource::Bytes(payload),
            }
        })
        .collect();
    let mut file = Vec::new();
    write_checkpoint(&mut file, model_name, &entries).unwrap();
    let decoded = read_checkpoint(&file[..]).unwrap();
    assert_eq!(decoded.model_name, model_name);
    assert_eq!(decoded.tensors.len(), entries.len());
    for ((meta, data), entry) in decoded.tensors.iter().zip(&entries) {
        assert_eq!(meta, &entry.meta);
        match &entry.data {
            PayloadSource::Bytes(b) => assert_eq!(data, b),
            PayloadSource::Buffer(_) => unreachable!(),
        }
    }
}

/// The one-tensor container the corruption property flips bytes in.
fn small_container() -> Vec<u8> {
    let entries = vec![CheckpointEntry {
        meta: TensorMeta::new("w", DType::F32, vec![32]),
        data: PayloadSource::Bytes((0..128u8).collect()),
    }];
    let mut file = Vec::new();
    write_checkpoint(&mut file, "m", &entries).unwrap();
    file
}

/// XOR-ing any byte of the container with a non-zero value is detected.
fn check_single_byte_corruption_detected(file: &[u8], at: usize, flip_with: u8) {
    let mut file = file.to_vec();
    file[at] ^= flip_with;
    assert!(
        read_checkpoint(&file[..]).is_err(),
        "corruption at byte {at} missed"
    );
}

const DTYPES: [DType; 7] = [
    DType::F16,
    DType::BF16,
    DType::F32,
    DType::F64,
    DType::I32,
    DType::I64,
    DType::U8,
];

/// A seeded string: one char of `head`, then up to `max_tail` of `tail`.
fn seeded_string(rng: &mut SimRng, head: &[u8], tail: &[u8], max_tail: u64) -> String {
    let len = 1 + rng.gen_range(max_tail + 1);
    (0..len)
        .map(|i| {
            let set = if i == 0 { head } else { tail };
            set[rng.gen_range(set.len() as u64) as usize] as char
        })
        .collect()
}

#[test]
fn container_round_trips_seeded() {
    const LOWER: &[u8] = b"abcdefghijklmnopqrstuvwxyz";
    const MODEL_TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_./-";
    const TENSOR_TAIL: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789_.";
    for seed in 0..48 {
        let mut rng = SimRng::new(seed);
        let model_name = seeded_string(&mut rng, LOWER, MODEL_TAIL, 40);
        let tensors: Vec<TensorShape> = (0..rng.gen_range(12))
            .map(|_| {
                let dtype = DTYPES[rng.gen_range(DTYPES.len() as u64) as usize];
                let shape = (0..rng.gen_range(3))
                    .map(|_| 1 + rng.gen_range(7))
                    .collect();
                (
                    dtype,
                    shape,
                    seeded_string(&mut rng, LOWER, TENSOR_TAIL, 30),
                )
            })
            .collect();
        check_container_round_trips(&model_name, &tensors);
    }
}

/// Every byte position of the container, each flipped with a seeded
/// non-zero mask.
#[test]
fn container_detects_any_single_byte_corruption_seeded() {
    let file = small_container();
    let mut rng = SimRng::new(7);
    for at in 0..file.len() {
        let flip_with = 1 + rng.gen_range(255) as u8;
        check_single_byte_corruption_detected(&file, at, flip_with);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// serialize → deserialize is the identity for arbitrary models.
    #[test]
    fn container_round_trips(
        model_name in "[a-z][a-z0-9_./-]{0,40}",
        tensors in vec((arb_dtype(), vec(1u64..8, 0..3), "[a-z][a-z0-9_.]{0,30}"), 0..12),
    ) {
        check_container_round_trips(&model_name, &tensors);
    }

    /// Any single-byte corruption of the container is detected.
    #[test]
    fn container_detects_any_single_byte_corruption(
        flip_at in any::<prop::sample::Index>(),
        flip_with in 1u8..=255,
    ) {
        let file = small_container();
        check_single_byte_corruption_detected(&file, flip_at.index(file.len()), flip_with);
    }
}

// ---------------------------------------------------------------------
// PMem persistence semantics
// ---------------------------------------------------------------------

/// Persisted ranges always survive any crash; granularity of loss
/// for unpersisted data is whole cache lines.
fn check_persisted_data_survives_crash(persisted: &[u8], volatile: &[u8], seed: u64) {
    let dev = PmemDevice::new(SimContext::icdcs24(), PmemMode::DevDax, 1 << 16);
    dev.write(0, persisted).unwrap();
    dev.persist(0, persisted.len() as u64).unwrap();
    dev.write(4096, volatile).unwrap(); // never flushed
    dev.crash(CrashSpec::Random { seed });

    let mut got = vec![0u8; persisted.len()];
    dev.read(0, &mut got).unwrap();
    assert_eq!(got, persisted);

    // Volatile data is per-line all-or-nothing.
    let mut v = vec![0u8; volatile.len()];
    dev.read(4096, &mut v).unwrap();
    for (line_idx, chunk) in volatile.chunks(64).enumerate() {
        let got_line = &v[line_idx * 64..(line_idx * 64 + chunk.len())];
        let zeros = vec![0u8; chunk.len()];
        assert!(
            got_line == chunk || got_line == &zeros[..],
            "line {line_idx} torn"
        );
    }
}

#[test]
fn persisted_data_survives_any_crash_seeded() {
    for seed in 0..32 {
        let mut rng = SimRng::new(seed);
        let bytes = |rng: &mut SimRng| -> Vec<u8> {
            (0..1 + rng.gen_range(511))
                .map(|_| rng.next_u64() as u8)
                .collect()
        };
        let persisted = bytes(&mut rng);
        let volatile = bytes(&mut rng);
        check_persisted_data_survives_crash(&persisted, &volatile, rng.next_u64());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Persisted ranges always survive any crash; granularity of loss
    /// for unpersisted data is whole cache lines.
    #[test]
    fn persisted_data_survives_any_crash(
        persisted in vec(any::<u8>(), 1..512),
        volatile in vec(any::<u8>(), 1..512),
        seed in any::<u64>(),
    ) {
        check_persisted_data_survives_crash(&persisted, &volatile, seed);
    }
}

// ---------------------------------------------------------------------
// ModelTable / resolver sync under churn
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum ChurnOp {
    /// Create (or touch, if present) model `id`.
    Create(u8),
    /// Remove model `id` if present.
    Remove(u8),
}

fn churn_ops() -> impl Strategy<Value = Vec<ChurnOp>> {
    vec(
        prop_oneof![
            (0u8..24).prop_map(ChurnOp::Create),
            (0u8..24).prop_map(ChurnOp::Remove),
        ],
        1..80,
    )
}

/// Drives a create/remove churn through the persistent index plus the
/// given resolver callbacks, then checks the table and the resolver
/// agree entry-for-entry — and that a recovery-rebuilt map agrees too.
fn run_churn(ops: &[ChurnOp], with_catalog: bool) {
    use portus::{CatalogConfig, Index};
    let ctx = SimContext::icdcs24();
    let pmem = PmemDevice::new(ctx, PmemMode::DevDax, 32 << 20);
    let index = Index::format(pmem.clone(), 64, 4096).unwrap();
    if with_catalog {
        index.enable_catalog(&CatalogConfig::default()).unwrap();
    }
    let metas = vec![TensorMeta::new("w", DType::F32, vec![256])];
    let mut mirror: std::collections::BTreeMap<String, u64> = std::collections::BTreeMap::new();
    for op in ops {
        match op {
            ChurnOp::Create(id) => {
                let name = format!("model-{id:02}");
                if mirror.contains_key(&name) {
                    continue;
                }
                let mi = index.create_model(&name, &metas).unwrap();
                if with_catalog {
                    index
                        .catalog()
                        .unwrap()
                        .insert(index.allocator(), &name, mi.offset)
                        .unwrap();
                }
                mirror.insert(name, mi.offset);
            }
            ChurnOp::Remove(id) => {
                let name = format!("model-{id:02}");
                let Some(off) = mirror.remove(&name) else {
                    continue;
                };
                index.remove_model_at(&name, off).unwrap();
                if with_catalog {
                    index
                        .catalog()
                        .unwrap()
                        .remove(index.allocator(), &name)
                        .unwrap();
                }
            }
        }
    }
    // The live table view matches the mirror exactly.
    let mut live: Vec<u64> = index
        .live_entries()
        .unwrap()
        .into_iter()
        .map(|(_, off)| off)
        .collect();
    live.sort_unstable();
    let mut want: Vec<u64> = mirror.values().copied().collect();
    want.sort_unstable();
    assert_eq!(&live, &want);
    if with_catalog {
        let scanned = index.catalog().unwrap().scan().unwrap();
        let mirror_vec: Vec<(String, u64)> = mirror.iter().map(|(k, v)| (k.clone(), *v)).collect();
        assert_eq!(scanned, mirror_vec);
    }
    // A rebuilt-from-media map agrees with the mirror too.
    drop(index);
    let (_index2, map) = Index::recover(pmem).unwrap();
    assert_eq!(map, mirror);
}

/// One seeded create/remove churn: 1–80 ops over 24 names.
fn seeded_churn_ops(seed: u64) -> Vec<ChurnOp> {
    let mut rng = SimRng::new(seed);
    let len = 1 + rng.gen_range(80);
    (0..len)
        .map(|_| {
            let id = rng.gen_range(24) as u8;
            if rng.gen_range(2) == 0 {
                ChurnOp::Create(id)
            } else {
                ChurnOp::Remove(id)
            }
        })
        .collect()
}

/// Both resolvers — the DRAM ModelMap and the paged catalog — stay in
/// sync with the persistent ModelTable, and with a recovery-rebuilt
/// map, under every seeded churn. Runs without the proptest runner.
#[test]
fn model_table_and_both_resolvers_stay_in_sync_under_seeded_churn() {
    for seed in 0..48 {
        let ops = seeded_churn_ops(seed);
        run_churn(&ops, false);
        run_churn(&ops, true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Under any create/remove churn, the DRAM resolver and the
    /// persistent ModelTable never diverge — including through the
    /// single-lookup `remove_model_at` path and a recovery rebuild.
    #[test]
    fn model_table_and_map_stay_in_sync_under_churn(ops in churn_ops()) {
        run_churn(&ops, false);
    }

    /// The same invariant with the paged catalog owning resolution.
    #[test]
    fn model_table_and_catalog_stay_in_sync_under_churn(ops in churn_ops()) {
        run_churn(&ops, true);
    }
}

// ---------------------------------------------------------------------
// Misc pure functions
// ---------------------------------------------------------------------

/// The ModelTable name hash is stable and collision-resistant enough
/// for distinct short names in practice.
fn check_name_hash(name: &str) {
    assert_eq!(name_hash(name), name_hash(name));
    assert_ne!(name_hash(name), name_hash(&format!("{name}x")));
}

/// Materialized tensor bytes are pure functions of (seed, offset): a
/// window of one instance equals the same window of another instance
/// materialized from the same seed.
fn check_materialized_window(seed: u64, offset: u64, len: usize) {
    let gpu = GpuDevice::new(SimContext::icdcs24(), 0, 1 << 20);
    let spec = ModelSpec::new("w", vec![TensorMeta::new("t", DType::U8, vec![4096])]);
    let a = ModelInstance::materialize(&spec, &gpu, seed, Materialization::Owned).unwrap();
    let b = ModelInstance::materialize(&spec, &gpu, seed, Materialization::Owned).unwrap();
    let full = a.tensors()[0].buffer.to_vec();
    let len = len.min((4096 - offset) as usize);
    let mut window = vec![0u8; len];
    b.tensors()[0].buffer.read_at(offset, &mut window).unwrap();
    assert_eq!(&window[..], &full[offset as usize..offset as usize + len]);
}

#[test]
fn name_hash_is_deterministic_seeded() {
    const NAME_CHARS: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789/._-";
    for seed in 0..256 {
        let mut rng = SimRng::new(seed);
        check_name_hash(&seeded_string(&mut rng, NAME_CHARS, NAME_CHARS, 63));
    }
}

#[test]
fn materialized_content_is_offset_stable_seeded() {
    for seed in 0..256 {
        let mut rng = SimRng::new(seed);
        let offset = rng.gen_range(4000);
        let len = 1 + rng.gen_range(63) as usize;
        check_materialized_window(rng.next_u64(), offset, len);
    }
}

proptest! {
    /// The ModelTable name hash is stable and collision-resistant
    /// enough for distinct short names in practice.
    #[test]
    fn name_hash_is_deterministic(name in "[a-zA-Z0-9/._-]{1,64}") {
        check_name_hash(&name);
    }

    /// Materialized tensor bytes are pure functions of (seed, offset).
    #[test]
    fn materialized_content_is_offset_stable(
        seed in any::<u64>(),
        offset in 0u64..4000,
        len in 1usize..64,
    ) {
        check_materialized_window(seed, offset, len);
    }
}
