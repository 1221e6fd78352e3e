//! `portusctl`: manage and share checkpoints stored on a PMem device
//! (§IV-b).
//!
//! Researchers share checkpoints in portable formats; `portusctl view
//! DEVICE` lists every model on a device image, and `portusctl dump
//! DEVICE MODEL FILE` serializes a PMem-resident checkpoint into the
//! portable container of [`portus_format`] — the only place Portus ever
//! serializes, and it happens offline. `portusctl stats SNAPSHOT.json`
//! renders a [`MetricsSnapshot`] (as exported by the daemon's `Stats`
//! request) into a per-stage latency table.

use std::fs::File;
use std::io::BufWriter;
use std::path::Path;

use portus_format::{write_checkpoint, CheckpointEntry, PayloadSource};
use portus_pmem::load_image;
use portus_sim::{MetricsSnapshot, SimContext, SimDuration};

use crate::proto::ModelSummary;
use crate::{Index, ModelMap, PortusError, PortusResult};

/// Result of a `portusctl dump`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DumpReport {
    /// The dumped model.
    pub model: String,
    /// The version that was dumped (latest complete).
    pub version: u64,
    /// Payload bytes written.
    pub bytes: u64,
    /// Number of tensors.
    pub tensors: usize,
}

fn open_index(image: &Path) -> PortusResult<(Index, ModelMap)> {
    let dev = load_image(SimContext::icdcs24(), image)?;
    Index::recover(dev)
}

/// `portusctl view DEVICE`: lists all models stored on the device image
/// at `image`.
///
/// # Errors
///
/// Image/recovery failures.
pub fn view(image: &Path) -> PortusResult<Vec<ModelSummary>> {
    let (index, map) = open_index(image)?;
    let mut out = Vec::with_capacity(map.len());
    for (name, off) in map {
        let mi = index.load_mindex(off)?;
        out.push(ModelSummary {
            name,
            layers: mi.tensors.len() as u32,
            bytes: mi.total_bytes,
            latest_version: mi.latest_done().map(|(_, s)| s.version),
            valid_versions: mi.valid_versions(),
            done_versions: mi.done_versions(),
            complete: mi.flags & crate::FLAG_JOB_COMPLETE != 0,
        });
    }
    Ok(out)
}

/// `portusctl dump DEVICE MODEL FILE`: extracts the latest complete
/// checkpoint of `model` from the device image into a portable
/// container at `out`. Each tensor is read through the version's
/// pieces (a plain region or its extents), and the version is verified
/// against its sealed digest before anything is written.
///
/// # Errors
///
/// [`PortusError::ModelNotFound`] / [`PortusError::NoValidCheckpoint`]
/// when the model or a complete version is missing,
/// [`PortusError::ChecksumMismatch`] when the stored bytes fail
/// verification, plus image and container errors.
pub fn dump(image: &Path, model: &str, out: &Path) -> PortusResult<DumpReport> {
    let (index, map) = open_index(image)?;
    let off = *map
        .get(model)
        .ok_or_else(|| PortusError::ModelNotFound(model.to_string()))?;
    let mi = index.load_mindex(off)?;
    let (slot, hdr) = mi
        .latest_done()
        .ok_or_else(|| PortusError::NoValidCheckpoint(model.to_string()))?;
    if index.slot_digest(&mi, slot)? != hdr.digest {
        let (model, version) = (model.to_string(), hdr.version);
        return Err(PortusError::ChecksumMismatch { model, version });
    }

    let mut entries = Vec::with_capacity(mi.tensors.len());
    for rec in &mi.tensors {
        let mut payload = vec![0u8; rec.meta.size_bytes() as usize];
        index.read_slot(&hdr, rec.rel_off, &mut payload)?;
        entries.push(CheckpointEntry {
            meta: rec.meta.clone(),
            data: PayloadSource::Bytes(payload),
        });
    }
    // This is the one serialization Portus performs, and it is offline
    // (§VI, lesson 2).
    portus_format::charge_serialize(index.device().ctx(), mi.total_bytes);
    let file = File::create(out)?;
    write_checkpoint(BufWriter::new(file), model, &entries)?;
    Ok(DumpReport {
        model: model.to_string(),
        version: hdr.version,
        bytes: mi.total_bytes,
        tensors: mi.tensors.len(),
    })
}

/// Renders summaries as the table `portusctl view` prints.
pub fn render_view(models: &[ModelSummary]) -> String {
    let mut out = String::from(
        "MODEL                                    LAYERS      BYTES  LATEST  VALID  COMPLETE\n",
    );
    for m in models {
        out.push_str(&format!(
            "{:<40} {:>6} {:>10}  {:>6}  {:>5}  {}\n",
            m.name,
            m.layers,
            m.bytes,
            m.latest_version
                .map_or_else(|| "-".to_string(), |v| v.to_string()),
            m.valid_versions,
            if m.complete { "yes" } else { "no" },
        ));
    }
    out
}

/// Parses a metrics snapshot from its JSON serialization (the payload
/// the daemon's `Stats` reply serializes to, written to a file by
/// tooling or a bench run).
///
/// # Errors
///
/// [`PortusError::Io`] on read failures, and on malformed JSON with
/// [`std::io::ErrorKind::InvalidData`].
pub fn load_stats(path: &Path) -> PortusResult<MetricsSnapshot> {
    let raw = std::fs::read_to_string(path)?;
    serde_json::from_str(&raw)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e).into())
}

/// Renders a metrics snapshot as the table `portusctl stats` prints:
/// one row per `(op, stage)` histogram with count, total, mean, and
/// derived p50/p95/p99/max (all virtual time), plus the dispatch-queue
/// gauges.
pub fn render_stats(snapshot: &MetricsSnapshot) -> String {
    let ns = |v: u64| SimDuration::from_nanos(v).to_string();
    let mut out = String::from(
        "OP               STAGE               COUNT        TOTAL         MEAN          P50          P95          P99          MAX\n",
    );
    for s in &snapshot.stages {
        out.push_str(&format!(
            "{:<16} {:<16} {:>8} {:>12} {:>12} {:>12} {:>12} {:>12} {:>12}\n",
            s.op.name(),
            s.stage.name(),
            s.hist.count,
            ns(s.hist.total_ns),
            ns(s.hist.mean_ns()),
            ns(s.hist.p50()),
            ns(s.hist.p95()),
            ns(s.hist.p99()),
            ns(s.hist.max_ns),
        ));
    }
    out.push_str(&format!(
        "dispatch queue: depth {} / peak {} / capacity {}\n",
        snapshot.dispatch_queue_depth,
        snapshot.dispatch_queue_peak,
        snapshot.dispatch_queue_capacity,
    ));
    out.push_str(&format!(
        "rollback failures: {}\n",
        snapshot.rollback_failures
    ));
    if !snapshot.fleet.is_empty() {
        out.push_str(&format!(
            "FLEET  (recovery epoch {}, restore failovers {})\n",
            snapshot.recovery_epoch, snapshot.restore_failovers,
        ));
        out.push_str(
            "DAEMON     WRITES        BYTES  REPLICA  FENCED  REPAIRS-IN  REPAIR-BYTES  KILLED\n",
        );
        for d in &snapshot.fleet {
            out.push_str(&format!(
                "{:<8} {:>8} {:>12} {:>8} {:>7} {:>11} {:>13}  {}\n",
                d.daemon,
                d.writes,
                d.bytes,
                d.replica_writes,
                d.fenced_active,
                d.repairs_in,
                d.repair_bytes,
                if d.killed { "yes" } else { "no" },
            ));
        }
    }
    out
}

/// Renders the multi-tenant view `portusctl tenants` prints: one row
/// per tenant with its admission counters (admitted/throttled/shed and
/// admitted bytes) and the p50/p99 of its checkpoint and restore
/// end-to-end latency histograms (virtual time, dispatch wait
/// included).
pub fn render_tenants(snapshot: &MetricsSnapshot) -> String {
    let ns = |v: u64| SimDuration::from_nanos(v).to_string();
    let mut out = String::from(
        "TENANT                   ADMITTED  THROTTLED   SHED        BYTES      CKPT-P50      CKPT-P99       RST-P50       RST-P99\n",
    );
    for t in &snapshot.tenants {
        out.push_str(&format!(
            "{:<24} {:>8} {:>10} {:>6} {:>12} {:>13} {:>13} {:>13} {:>13}\n",
            t.tenant,
            t.admitted_ops,
            t.throttled_ops,
            t.shed_ops,
            t.admitted_bytes,
            ns(t.checkpoint.p50()),
            ns(t.checkpoint.p99()),
            ns(t.restore.p50()),
            ns(t.restore.p99()),
        ));
    }
    if snapshot.tenants.is_empty() {
        out.push_str("(no tenant-attributed requests recorded)\n");
    }
    out
}

/// Renders the space-management view `portusctl space` prints: the
/// PMem free/used gauges, the largest contiguous extent, the derived
/// fragmentation ratio, the repacker's lifetime reclaim counters, and
/// (when a dedup tier is active) the content-addressed extent store's
/// sharing gauges.
pub fn render_space(snapshot: &MetricsSnapshot) -> String {
    let frag = snapshot.fragmentation_permille();
    let mut out = String::from("PMEM SPACE\n");
    out.push_str(&format!(
        "  free bytes           {:>16}\n",
        snapshot.pmem_free_bytes
    ));
    out.push_str(&format!(
        "  used bytes           {:>16}\n",
        snapshot.pmem_used_bytes
    ));
    out.push_str(&format!(
        "  largest free extent  {:>16}\n",
        snapshot.pmem_largest_free_extent
    ));
    out.push_str(&format!(
        "  fragmentation        {:>13}.{}%\n",
        frag / 10,
        frag % 10
    ));
    out.push_str("REPACKER\n");
    out.push_str(&format!(
        "  passes               {:>16}\n",
        snapshot.repack_passes
    ));
    out.push_str(&format!(
        "  reclaimed slots      {:>16}\n",
        snapshot.reclaimed_slots
    ));
    out.push_str(&format!(
        "  reclaimed bytes      {:>16}\n",
        snapshot.reclaimed_bytes
    ));
    if snapshot.dedup_live_extents > 0 || snapshot.dedup_chunks > 0 {
        let ratio = snapshot.dedup_ratio_permille();
        out.push_str("DEDUP\n");
        out.push_str(&format!(
            "  live extents         {:>16}\n",
            snapshot.dedup_live_extents
        ));
        out.push_str(&format!(
            "  shared extents       {:>16}\n",
            snapshot.dedup_shared_extents
        ));
        out.push_str(&format!(
            "  logical bytes        {:>16}\n",
            snapshot.dedup_logical_bytes
        ));
        out.push_str(&format!(
            "  stored bytes         {:>16}\n",
            snapshot.dedup_stored_bytes
        ));
        out.push_str(&format!(
            "  physical/logical     {:>13}.{}%\n",
            ratio / 10,
            ratio % 10
        ));
        out.push_str(&format!(
            "  chunks deduplicated  {:>8} of {:>5}\n",
            snapshot.dedup_shared_chunks, snapshot.dedup_chunks
        ));
        out.push_str(&format!(
            "  swept extents        {:>16}\n",
            snapshot.swept_extents
        ));
        out.push_str(&format!(
            "  ingest failures      {:>16}\n",
            snapshot.dedup_ingest_failures
        ));
    }
    out
}

/// Renders the model-catalog view `portusctl catalog` prints: the
/// paged on-PMem catalog's page/entry counts, the DRAM page cache's
/// hit/miss counters and clamped footprint, and the ModelMap mirror's
/// DRAM bytes — side by side, so an operator can see what enabling the
/// catalog bought (mirror pinned at ~0) or what it would buy (mirror
/// growing with the model population).
pub fn render_catalog(snapshot: &MetricsSnapshot) -> String {
    let mut out = String::from("MODEL CATALOG\n");
    out.push_str(&format!(
        "  micro-pages          {:>16}\n",
        snapshot.catalog_pages
    ));
    out.push_str(&format!(
        "  entries              {:>16}\n",
        snapshot.catalog_entries
    ));
    let probes = snapshot.catalog_cache_hits + snapshot.catalog_cache_misses;
    let hit_permille = if probes == 0 {
        0
    } else {
        (snapshot.catalog_cache_hits as u128 * 1000 / probes as u128) as u64
    };
    out.push_str("PAGE CACHE (DRAM, clamped)\n");
    out.push_str(&format!(
        "  hits                 {:>16}\n",
        snapshot.catalog_cache_hits
    ));
    out.push_str(&format!(
        "  misses               {:>16}\n",
        snapshot.catalog_cache_misses
    ));
    out.push_str(&format!(
        "  hit rate             {:>13}.{}%\n",
        hit_permille / 10,
        hit_permille % 10
    ));
    out.push_str(&format!(
        "  cached bytes         {:>16}\n",
        snapshot.catalog_cache_bytes
    ));
    out.push_str("MODELMAP MIRROR (DRAM, unbounded)\n");
    out.push_str(&format!(
        "  bytes                {:>16}\n",
        snapshot.model_map_bytes
    ));
    if snapshot.catalog_pages == 0 && snapshot.catalog_entries == 0 {
        out.push_str("(no catalog gauges recorded — daemon runs on the ModelMap mirror)\n");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use portus_sim::{Metrics, Stage, TraceOp};

    #[test]
    fn render_view_formats_rows() {
        let rows = vec![ModelSummary {
            name: "bert".into(),
            layers: 396,
            bytes: 1024,
            latest_version: Some(3),
            valid_versions: 2,
            done_versions: vec![2, 3],
            complete: true,
        }];
        let s = render_view(&rows);
        assert!(s.contains("bert"));
        assert!(s.contains("396"));
        assert!(s.contains("yes"));
    }

    #[test]
    fn view_missing_image_errors() {
        assert!(view(Path::new("/nonexistent/portus.img")).is_err());
    }

    #[test]
    fn render_stats_formats_histograms_and_gauges() {
        let m = Metrics::new();
        m.set_queue_capacity(64);
        m.record_stage(
            TraceOp::Checkpoint,
            Stage::Persist,
            SimDuration::from_micros(120),
        );
        m.record_stage(
            TraceOp::Checkpoint,
            Stage::Persist,
            SimDuration::from_micros(250),
        );
        let s = render_stats(&m.snapshot());
        assert!(s.contains("checkpoint"));
        assert!(s.contains("persist"));
        assert!(s.contains("capacity 64"));
        // Count column shows the two samples.
        assert!(s.contains(" 2 "));
    }

    #[test]
    fn render_stats_surfaces_rollback_failures_and_fleet() {
        let m = Metrics::new();
        m.record_rollback_failure();
        let mut snap = m.snapshot();
        let s = render_stats(&snap);
        assert!(s.contains("rollback failures: 1"));
        assert!(!s.contains("FLEET"));

        snap.recovery_epoch = 2;
        snap.restore_failovers = 3;
        snap.fleet = vec![portus_sim::DaemonFleetStats {
            daemon: 1,
            writes: 4,
            bytes: 1024,
            replica_writes: 2,
            fenced_active: 1,
            repairs_in: 5,
            repair_bytes: 2048,
            killed: true,
        }];
        let s = render_stats(&snap);
        assert!(s.contains("FLEET  (recovery epoch 2, restore failovers 3)"));
        assert!(s.contains("REPAIR-BYTES"));
        assert!(s.contains("2048"));
        assert!(s.trim_end().ends_with("yes"));
    }

    #[test]
    fn render_tenants_formats_rows_and_empty_note() {
        let m = Metrics::new();
        let empty = render_tenants(&m.snapshot());
        assert!(empty.contains("no tenant-attributed requests"));

        m.tenant_admitted("team-a", 4096);
        m.tenant_throttled("team-a");
        m.tenant_shed("team-a");
        m.record_tenant_op("team-a", TraceOp::Checkpoint, SimDuration::from_micros(100));
        m.record_tenant_op("team-a", TraceOp::Restore, SimDuration::from_micros(7));
        let s = render_tenants(&m.snapshot());
        assert!(s.contains("team-a"));
        assert!(s.contains("4096"));
        assert!(s.contains("THROTTLED"));
        assert!(!s.contains("no tenant-attributed requests"));
    }

    #[test]
    fn render_space_reports_gauges_and_fragmentation() {
        let m = Metrics::new();
        m.set_space(1000, 3000, 250);
        m.record_reclaimed(8192);
        m.record_repack_pass();
        let s = render_space(&m.snapshot());
        assert!(s.contains("free bytes"));
        assert!(s.contains("1000"));
        assert!(s.contains("3000"));
        assert!(s.contains("250"));
        // 750 permille renders as 75.0%.
        assert!(s.contains("75.0%"));
        assert!(s.contains("reclaimed bytes"));
        assert!(s.contains("8192"));
        // The dedup section is hidden until a dedup tier records.
        assert!(!s.contains("DEDUP"));
    }

    #[test]
    fn render_space_includes_dedup_when_active() {
        let m = Metrics::new();
        m.set_space(1000, 3000, 250);
        m.set_dedup(10, 4, 1 << 20, 256 << 10);
        m.record_dedup_ingest(64, 48);
        m.record_swept_extents(2, 8192);
        let s = render_space(&m.snapshot());
        assert!(s.contains("DEDUP"));
        assert!(s.contains("live extents"));
        // 256 KiB stored over 1 MiB logical renders as 25.0%.
        assert!(s.contains("25.0%"));
        assert!(s.contains("48"), "shared chunk count shown");
        assert!(s.contains("swept extents"));
    }

    #[test]
    fn render_catalog_reports_gauges_and_hit_rate() {
        let m = Metrics::new();
        m.set_catalog(12, 3000, 75, 25, 48 << 10);
        m.set_model_map_bytes(0);
        let s = render_catalog(&m.snapshot());
        assert!(s.contains("MODEL CATALOG"));
        assert!(s.contains("3000"));
        // 75 hits over 100 probes renders as 75.0%.
        assert!(s.contains("75.0%"));
        assert!(s.contains("MODELMAP MIRROR"));
        assert!(!s.contains("no catalog gauges recorded"));
    }

    #[test]
    fn render_catalog_notes_modelmap_only_daemons() {
        let m = Metrics::new();
        m.set_model_map_bytes(4096);
        let s = render_catalog(&m.snapshot());
        assert!(s.contains("no catalog gauges recorded"));
        assert!(s.contains("4096"));
    }

    #[test]
    fn stats_snapshot_round_trips_through_json() {
        let m = Metrics::new();
        m.record_stage(TraceOp::Restore, Stage::Total, SimDuration::from_millis(3));
        let snapshot = m.snapshot();
        let json = serde_json::to_string(&snapshot).expect("serialize");
        let dir = std::env::temp_dir().join("portusctl-stats-test");
        std::fs::create_dir_all(&dir).expect("tempdir");
        let path = dir.join("snapshot.json");
        std::fs::write(&path, &json).expect("write");
        let loaded = load_stats(&path).expect("load");
        assert_eq!(loaded, snapshot);
        assert!(load_stats(&dir.join("missing.json")).is_err());
        std::fs::write(&path, "{not json").expect("write");
        assert!(matches!(
            load_stats(&path),
            Err(PortusError::Io(e)) if e.kind() == std::io::ErrorKind::InvalidData
        ));
    }
}
