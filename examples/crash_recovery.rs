//! Crash consistency in action: the double-mapping scheme of §III-D2.
//!
//! Checkpoints a model twice, then pulls the plug *mid-checkpoint* (a
//! random subset of unflushed cache lines survives, exactly like real
//! PMem), restarts the daemon on the same namespace, and shows that
//! recovery serves the last *complete* version — never the torn one.
//!
//! Run with: `cargo run --example crash_recovery`

use portus::{DaemonConfig, PortusClient, PortusDaemon, SlotState};
use portus_dnn::{test_spec, Materialization, ModelInstance};
use portus_mem::GpuDevice;
use portus_pmem::{CrashSpec, PmemDevice, PmemMode};
use portus_rdma::{Fabric, NodeId};
use portus_sim::SimContext;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let ctx = SimContext::icdcs24();
    let fabric = Fabric::new(ctx.clone());
    let compute_nic = fabric.add_nic(NodeId(0));
    fabric.add_nic(NodeId(1));
    let pmem = PmemDevice::new(ctx.clone(), PmemMode::DevDax, 128 << 20);
    let daemon = PortusDaemon::start(&fabric, NodeId(1), pmem.clone(), DaemonConfig::default())?;

    let gpu = GpuDevice::new(ctx.clone(), 0, 1 << 30);
    let spec = test_spec("resilient-model", 8, 1 << 20);
    let mut model = ModelInstance::materialize(&spec, &gpu, 7, Materialization::Owned)?;
    let client = PortusClient::connect(&daemon, compute_nic.clone());
    client.register_model(&model)?;

    // Two good checkpoints: v1 and v2 occupy the two slots.
    model.train_step();
    client.checkpoint(&spec.name)?;
    model.train_step();
    let v2 = client.checkpoint(&spec.name)?;
    let v2_state = model.model_checksum();
    println!("completed checkpoints v1 and v2 (v2 state recorded)");

    // Begin v3... and crash the storage node before it completes. We
    // emulate the torn checkpoint by corrupting the slot the daemon
    // would target (the one NOT holding v2) with unflushed garbage,
    // then losing power with a *random* subset of in-flight lines
    // surviving — the adversarial case the double mapping must beat.
    model.train_step();
    drop(client); // client connection gone with the "power failure"
    daemon.shutdown();

    // Unflushed garbage lands over the old v1 slot's data region...
    let summaries = daemon.summaries()?;
    println!(
        "before crash: {} model(s), latest v{:?}",
        summaries.len(),
        summaries[0].latest_version
    );
    pmem.crash(CrashSpec::Random { seed: 0xBAD_C0FFEE });
    println!("power failure injected (random in-flight line survival)");

    // Restart: the daemon recovers the index from PMem alone.
    let daemon2 = PortusDaemon::recover(&fabric, NodeId(1), pmem, DaemonConfig::default())?;
    let recovered = daemon2.summaries()?;
    println!(
        "after recovery: model {:?}, latest complete version v{:?}",
        recovered[0].name, recovered[0].latest_version
    );
    assert_eq!(recovered[0].latest_version, Some(v2.version));

    // The recovered daemon serves v2 — bit-for-bit.
    let client2 = PortusClient::connect(&daemon2, compute_nic);
    client2.register_model(&model)?; // re-registration after restart
    model.train_step(); // diverge, then restore
    let restore = client2.restore(&model)?;
    assert_eq!(restore.version, v2.version);
    assert_eq!(model.model_checksum(), v2_state);
    println!("restored v{} bit-for-bit after the crash", restore.version);

    // The slot states tell the story: one Done (v2), one Empty/older.
    let index = daemon2.index();
    let off = index
        .live_entries()?
        .first()
        .map(|(_, off)| *off)
        .expect("model survived");
    let mi = index.load_mindex(off)?;
    for (i, slot) in mi.slots.iter().enumerate() {
        println!(
            "slot {i}: {:?} v{} ({} bytes)",
            slot.state, slot.version, slot.data_len
        );
        if slot.state == SlotState::Done {
            assert_eq!(index.slot_digest(&mi, i)?, slot.digest, "digest intact");
        }
    }
    Ok(())
}
