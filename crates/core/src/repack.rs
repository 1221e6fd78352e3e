//! Online PMem space management (§III-D2, Fig. 7).
//!
//! Double mapping costs one extra checkpoint-sized region per model.
//! The repacker reclaims the two kinds of waste the paper identifies:
//!
//! 1. **finished jobs** — only the latest version matters once training
//!    completes; the other slot's region is freed;
//! 2. **crashed checkpoints** — a slot stuck in `Active` holds
//!    incomplete ("collapsed") data; its region is freed.
//!
//! Freed slots keep their header with `data_off = 0` (and a zeroed
//! version — explicit reclaim forgets the high-water mark); if the
//! model trains again, the daemon lazily re-allocates a region
//! ([`Index::ensure_slot_region`]).
//!
//! Unlike the original offline tool, a pass is safe to run **while the
//! daemon serves traffic**. Three rules make it so:
//!
//! * **per-model locking** — each model is resolved and reclaimed under
//!   its own `model_lock`, the same lock every datapath mutator takes.
//!   A busy model is `try_lock`ed and skipped (counted in
//!   [`RepackReport::skipped_models`]) rather than waited on, so a pass
//!   never blocks behind a long checkpoint — and never deadlocks when
//!   the trigger *is* a checkpoint holding that lock (the `OutOfSpace`
//!   recovery path).
//! * **the recovery-epoch gate** — an `Active` slot is only reclaimable
//!   (even with `reclaim_active = true`) if it was already `Active`
//!   when this daemon instance recovered its index
//!   (`DaemonState::stale_active`). Such slots are crash debris from a
//!   previous incarnation; an `Active` slot minted by *this* process
//!   may have a pull in flight and is never touched.
//! * **per-model allocation views** — slot headers are resolved against
//!   the allocator's live allocations filtered to the model's tag,
//!   re-read under the model lock. A header pointing at an offset the
//!   allocator does not know is index/allocator **divergence**: the
//!   pass stops with [`PortusError::AllocatorDivergence`] and leaves
//!   the header untouched as evidence — clearing it would silently
//!   leak the region.
//!
//! Passes are triggered two ways: explicitly ([`repack`], the
//! `portusctl`/recovery entry point), and inline when a checkpoint's
//! allocation hits `OutOfSpace`. Every pass bumps the space counters,
//! refreshes the free/used/fragmentation gauges, and records a
//! [`portus_sim::TraceOp::Repack`] span keyed by the daemon's pass
//! counter.

use std::collections::HashMap;

use portus_pmem::PmemAlloc;
use portus_sim::{SpanRecord, Stage, TraceOp};

use crate::daemon::{DaemonState, PortusDaemon};
use crate::index::name_hash;
use crate::{Index, PortusError, PortusResult, SlotState};

/// What one repacking pass reclaimed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepackReport {
    /// Models examined under their lock.
    pub scanned_models: usize,
    /// Models skipped because a datapath operation held their lock.
    pub skipped_models: usize,
    /// Checkpoint slots whose regions were freed.
    pub reclaimed_slots: usize,
    /// Of those, slots that were `Active` (crashed mid-checkpoint).
    pub reclaimed_active: usize,
    /// Bytes returned to the allocator.
    pub freed_bytes: u64,
    /// Refcount-zero extents swept from the content-addressed store
    /// (zero on daemons without a dedup tier).
    pub swept_extents: usize,
    /// Payload bytes those sweeps returned to the allocator.
    pub swept_extent_bytes: u64,
}

/// Runs one repacking pass over every model on `daemon`'s PMem.
///
/// With `reclaim_active = false` (the safe default while jobs run),
/// only finished jobs are compacted. With `reclaim_active = true`,
/// crash debris — `Active` slots already stale at this daemon's
/// recovery — is reclaimed too; `Active` slots minted by the running
/// daemon are never touched (see the module docs).
///
/// # Errors
///
/// Device/allocator errors; [`PortusError::AllocatorDivergence`] if a
/// slot header points at a region the allocator has no record of (the
/// slot header is left as-is so the corruption stays inspectable).
pub fn repack(daemon: &PortusDaemon, reclaim_active: bool) -> PortusResult<RepackReport> {
    repack_pass(daemon.state(), reclaim_active)
}

/// The pass itself, shared by both triggers. Counters, gauges, and the
/// pass span are recorded even when the scan errors out.
pub(crate) fn repack_pass(state: &DaemonState, reclaim_active: bool) -> PortusResult<RepackReport> {
    let pass_id = state.next_repack_id();
    let t0 = state.ctx.clock.now();
    let mut report = RepackReport::default();
    let scan = scan_models(state, reclaim_active, &mut report);
    // The extent sweep runs even when the scan errored out: the
    // refcount-zero extents it collects were dropped before this pass
    // and are reclaimable regardless of what the scan saw.
    let sweep = sweep_extents(state, &mut report);
    state.ctx.metrics.record_repack_pass();
    state.refresh_space_gauges();
    let end = state.ctx.clock.now();
    state
        .ctx
        .metrics
        .record_stage(TraceOp::Repack, Stage::Repack, end.saturating_since(t0));
    state.ctx.tracer.record(SpanRecord {
        req_id: pass_id,
        op: TraceOp::Repack,
        stage: Stage::Repack,
        model: String::new(),
        start: t0,
        end,
        round: 0,
        lane: 0,
    });
    scan.and(sweep).map(|()| report)
}

/// Sweeps refcount-zero extents out of the content-addressed store. A
/// no-op on daemons without an extent store.
fn sweep_extents(state: &DaemonState, report: &mut RepackReport) -> PortusResult<()> {
    let Some(store) = state.index.extent_store() else {
        return Ok(());
    };
    let (swept, bytes) = store.sweep_unreferenced(state.index.allocator())?;
    report.swept_extents = swept;
    report.swept_extent_bytes = bytes;
    if swept > 0 {
        state.ctx.metrics.record_swept_extents(swept as u64, bytes);
    }
    Ok(())
}

fn scan_models(
    state: &DaemonState,
    reclaim_active: bool,
    report: &mut RepackReport,
) -> PortusResult<()> {
    let index = &state.index;
    for (_hash, off) in index.live_entries()? {
        // Resolve the table entry to a name first, then serialise with
        // the datapath on that model's lock.
        let name = index.load_mindex(off)?.name;
        let lock = state.model_lock(&name);
        let _guard = match lock.try_lock() {
            Some(guard) => guard,
            None => {
                report.skipped_models += 1;
                continue;
            }
        };
        // Under the lock, confirm the name still maps to this entry —
        // a concurrent Drop (or drop + re-register) may have retired
        // the offset between the scan and the lock.
        if state.resolve_model(&name)? != Some(off) {
            continue;
        }
        // Re-read the MIndex under the lock; the pre-lock snapshot may
        // predate a checkpoint that just sealed.
        let mi = index.load_mindex(off)?;
        report.scanned_models += 1;
        // The model's slot regions, keyed by offset. Entries are
        // consumed as slots free them, so a second slot claiming an
        // already-freed offset also surfaces as divergence.
        let tag = name_hash(&mi.name);
        let mut by_offset: HashMap<u64, PmemAlloc> = index
            .allocator()
            .live_allocations()
            .into_iter()
            .filter(|a| a.tag == tag)
            .map(|a| (a.offset, a))
            .collect();
        let latest = mi.latest_done().map(|(i, _)| i);
        let job_complete = mi.flags & crate::FLAG_JOB_COMPLETE != 0;
        for (s, hdr) in mi.slots.iter().enumerate() {
            if hdr.data_off == 0 && hdr.ext_map == 0 {
                continue; // already reclaimed
            }
            let is_latest_done = latest == Some(s);
            let reclaim = match hdr.state {
                SlotState::Done => job_complete && !is_latest_done,
                SlotState::Active => {
                    job_complete
                        || (reclaim_active
                            && state
                                .stale_active
                                .lock()
                                .contains(&(mi.offset, s, hdr.version)))
                }
                SlotState::Empty => job_complete,
            };
            if reclaim {
                let freed = if hdr.ext_map != 0 {
                    free_slot_extents(index, &mi, s, &mut by_offset)?
                } else {
                    free_slot_region(index, &mi, s, &mut by_offset)?
                };
                report.reclaimed_slots += 1;
                report.freed_bytes += freed;
                if hdr.state == SlotState::Active {
                    report.reclaimed_active += 1;
                    state
                        .stale_active
                        .lock()
                        .remove(&(mi.offset, s, hdr.version));
                }
                state.ctx.metrics.record_reclaimed(freed);
            }
        }
    }
    Ok(())
}

/// Frees the allocation backing `slot` and clears the slot header.
/// The allocation is resolved through `by_offset` (built per model,
/// under its lock) and consumed, so the same region cannot be freed
/// twice.
///
/// # Errors
///
/// [`PortusError::AllocatorDivergence`] when no live allocation of this
/// model starts at the header's `data_off` — the header is **not**
/// cleared in that case, so the corrupt state survives for inspection.
fn free_slot_region(
    index: &Index,
    mi: &crate::MIndex,
    slot: usize,
    by_offset: &mut HashMap<u64, PmemAlloc>,
) -> PortusResult<u64> {
    let hdr = mi.slots[slot];
    let alloc =
        by_offset
            .remove(&hdr.data_off)
            .ok_or_else(|| PortusError::AllocatorDivergence {
                model: mi.name.clone(),
                slot,
                data_off: hdr.data_off,
            })?;
    index.allocator().free(&alloc)?;
    index.clear_slot_region(mi, slot)?;
    Ok(alloc.len)
}

/// Frees an **extent-mapped** slot: the header is cleared first (one
/// durable flip, forgetting the version like any explicit reclaim),
/// then the map's extent references are dropped, then the map region
/// itself is freed. A crash between the steps only over-counts
/// refcounts, which recovery recounts from the surviving maps; the
/// refcount-zero extent payloads are collected by the pass's own sweep.
/// Returns the map region's bytes (the payload bytes are reported by
/// the sweep instead).
///
/// # Errors
///
/// [`PortusError::AllocatorDivergence`] when no live allocation of this
/// model starts at the header's `ext_map` — the header is left as-is so
/// the corrupt state stays inspectable.
fn free_slot_extents(
    index: &Index,
    mi: &crate::MIndex,
    slot: usize,
    by_offset: &mut HashMap<u64, PmemAlloc>,
) -> PortusResult<u64> {
    let store = index.mapped_extents()?;
    let hdr = mi.slots[slot];
    let map_alloc =
        by_offset
            .remove(&hdr.ext_map)
            .ok_or_else(|| PortusError::AllocatorDivergence {
                model: mi.name.clone(),
                slot,
                data_off: hdr.ext_map,
            })?;
    let map = crate::dedup::read_extent_map(index.device(), hdr.ext_map)?;
    index.clear_slot_region(mi, slot)?;
    for &e in &map.extents {
        store.decref(e)?;
    }
    index.allocator().free(&map_alloc)?;
    Ok(map_alloc.len)
}
