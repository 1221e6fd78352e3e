//! Recovery checks name what is corrupt. Each test shuts a daemon down,
//! flips one word of a persistent structure on its device, and asserts
//! that `PortusDaemon::recover` returns `PmemError::Corrupt` naming that
//! structure and the exact offset of the flipped word.

use std::sync::Arc;

use portus::{
    CatalogConfig, DaemonConfig, DedupConfig, MIndex, PortusClient, PortusDaemon, PortusError,
};
use portus_dnn::{test_spec, Materialization, ModelInstance};
use portus_mem::GpuDevice;
use portus_pmem::{PmemDevice, PmemError, PmemMode, Structure};
use portus_rdma::{Fabric, NodeId};
use portus_sim::SimContext;

// The on-media MIndex layout (`crates/core/src/index.rs`): slot headers
// start at +320 and are 64 bytes each, state word first; tensor
// records start at +448 and are 184 bytes each, dtype code at +128.
const MI_SLOT0: u64 = 320;
const SLOT_HDR_SIZE: u64 = 64;
const MI_TENSORS: u64 = 448;
const TREC_SIZE: u64 = 184;
const TREC_DTYPE: u64 = 128;

/// What a daemon left behind when it shut down after two checkpoints
/// of a four-tensor model.
struct ShutDown {
    fabric: Fabric,
    pmem: Arc<PmemDevice>,
    /// The model's MIndex record as the daemon last saw it.
    mi: MIndex,
    /// The catalog's root offset, on a catalog daemon.
    catalog_root: Option<u64>,
}

fn shut_down_daemon(cfg: &DaemonConfig) -> ShutDown {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute = fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 64 << 20);
    let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem.clone(), cfg.clone()).unwrap();
    let gpu = GpuDevice::new(ctx, 0, 1 << 30);
    let spec = test_spec("victim", 4, 64 * 1024);
    let mut model = ModelInstance::materialize(&spec, &gpu, 1, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&daemon, compute);
    client.register_model(&model).unwrap();
    for _ in 0..2 {
        model.train_step();
        client.checkpoint("victim").unwrap();
    }
    let index = daemon.index();
    let (_, off) = index.live_entries().unwrap()[0];
    let mi = index.load_mindex(off).unwrap();
    let catalog_root = index.catalog().map(|c| c.root_offset());
    drop(client);
    daemon.shutdown();
    ShutDown {
        fabric,
        pmem,
        mi,
        catalog_root,
    }
}

/// Flips the low bit of the byte at `at` and persists it.
fn flip(pmem: &PmemDevice, at: u64) {
    let mut byte = [0u8; 1];
    pmem.read(at, &mut byte).unwrap();
    pmem.write(at, &[byte[0] ^ 1]).unwrap();
    pmem.persist(at, 1).unwrap();
}

/// Recovers over the device and returns the `(structure, at)` of the
/// `Corrupt` error recovery must fail with.
fn recover_corrupt(s: ShutDown, cfg: DaemonConfig) -> (Structure, u64) {
    match PortusDaemon::recover(&s.fabric, NodeId(1), s.pmem, cfg) {
        Err(PortusError::Pmem(PmemError::Corrupt { structure, at, .. })) => (structure, at),
        Err(other) => panic!("expected a Corrupt error, got {other:?}"),
        Ok(_) => panic!("recovery accepted a corrupt device"),
    }
}

#[test]
fn a_flipped_superblock_magic_is_corrupt_at_offset_zero() {
    let cfg = DaemonConfig::default();
    let s = shut_down_daemon(&cfg);
    flip(&s.pmem, 0);
    assert_eq!(recover_corrupt(s, cfg), (Structure::Superblock, 0));
}

#[test]
fn a_flipped_mindex_magic_names_the_record() {
    let cfg = DaemonConfig::default();
    let s = shut_down_daemon(&cfg);
    let off = s.mi.offset;
    flip(&s.pmem, off);
    assert_eq!(recover_corrupt(s, cfg), (Structure::MIndex, off));
}

#[test]
fn a_bad_slot_state_word_names_the_slot_header() {
    let cfg = DaemonConfig::default();
    let s = shut_down_daemon(&cfg);
    // Slot 1 holds the newer version: Done (2) becomes 3, no state.
    assert_eq!(s.mi.latest_done().unwrap().0, 1);
    let state = s.mi.offset + MI_SLOT0 + SLOT_HDR_SIZE;
    flip(&s.pmem, state);
    assert_eq!(recover_corrupt(s, cfg), (Structure::SlotHeader, state));
}

#[test]
fn a_bad_dtype_code_names_the_tensor_record() {
    let cfg = DaemonConfig::default();
    let s = shut_down_daemon(&cfg);
    // Tensor 2's dtype code goes past every known code.
    assert_eq!(s.mi.tensors.len(), 4);
    let dtype = s.mi.offset + MI_TENSORS + 2 * TREC_SIZE + TREC_DTYPE;
    s.pmem.write(dtype, &[0xFF]).unwrap();
    s.pmem.persist(dtype, 1).unwrap();
    assert_eq!(recover_corrupt(s, cfg), (Structure::TensorRecord, dtype));
}

#[test]
fn a_flipped_extent_map_magic_names_the_map_on_a_dedup_daemon() {
    let cfg = DaemonConfig {
        dedup: Some(DedupConfig::default()),
        ..DaemonConfig::default()
    };
    let s = shut_down_daemon(&cfg);
    let map = s.mi.slots[0].ext_map;
    assert_ne!(map, 0, "a dedup checkpoint seals into extents");
    flip(&s.pmem, map);
    assert_eq!(recover_corrupt(s, cfg), (Structure::ExtentMap, map));
}

#[test]
fn a_flipped_catalog_root_magic_names_the_root_on_a_catalog_daemon() {
    let cfg = DaemonConfig {
        catalog: Some(CatalogConfig::default()),
        ..DaemonConfig::default()
    };
    let s = shut_down_daemon(&cfg);
    let root = s.catalog_root.expect("a catalog daemon mounts a catalog");
    flip(&s.pmem, root);
    assert_eq!(recover_corrupt(s, cfg), (Structure::CatalogRoot, root));
}

#[test]
fn a_lost_extent_table_word_fails_a_restore_naming_the_superblock_word() {
    let cfg = DaemonConfig {
        dedup: Some(DedupConfig::default()),
        ..DaemonConfig::default()
    };
    let s = shut_down_daemon(&cfg);
    // The superblock word at +48 records the extent table's offset.
    s.pmem.write(48, &[0; 8]).unwrap();
    s.pmem.persist(48, 8).unwrap();
    // Without the word, recovery attaches no extent store, and nothing
    // re-enables dedup: the slots stay extent-mapped with no store.
    let ctx = s.pmem.ctx().clone();
    let daemon =
        PortusDaemon::recover(&s.fabric, NodeId(1), s.pmem, DaemonConfig::default()).unwrap();
    let gpu = GpuDevice::new(ctx, 0, 1 << 30);
    let spec = test_spec("victim", 4, 64 * 1024);
    let model = ModelInstance::materialize(&spec, &gpu, 1, Materialization::Owned).unwrap();
    let client = PortusClient::connect(&daemon, s.fabric.nic(NodeId(0)).unwrap());
    client.register_model(&model).unwrap();
    match client.restore(&model) {
        Err(PortusError::Pmem(PmemError::Corrupt { structure, at, .. })) => {
            assert_eq!((structure, at), (Structure::Superblock, 48));
        }
        other => panic!("expected a Corrupt error, got {other:?}"),
    }
}
