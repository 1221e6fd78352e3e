//! Per-request spans on the virtual clock and Chrome trace export.
//!
//! The datapath counters ([`crate::Stats`]) say *how much* work was
//! done; spans say *where the virtual time went*. Every stage of a
//! checkpoint/delta/restore request (dispatch wait, validation, WQE
//! build, doorbell post, completion drain per retry round, persist,
//! checksum, header flip) records a [`SpanRecord`] against the shared
//! [`crate::Clock`] — never the host wall clock, so two replays of the
//! same deterministic run produce byte-identical traces.
//!
//! Recording is off by default ([`Tracer::enable`] turns it on), so
//! concurrent tests sharing a context pay nothing. The collected spans
//! export as Chrome trace-event JSON ([`Tracer::to_chrome_trace`]) and
//! render as a timeline in `chrome://tracing` or Perfetto; any other
//! timeline (e.g. a cluster run's busy/idle segments) can reuse the
//! same exporter through [`TraceEvent`] + [`chrome_trace_json`].

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use crate::{SimDuration, SimTime};

/// Which client-visible operation a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TraceOp {
    /// A full `DO_CHECKPOINT` pull.
    Checkpoint,
    /// An incremental checkpoint (dirty pulls + carry-over copies).
    DeltaCheckpoint,
    /// A restore push.
    Restore,
    /// A space-management repack pass (not a client request; `req_id`
    /// is the daemon's pass counter).
    Repack,
}

impl TraceOp {
    /// Stable lowercase name (used in trace categories and snapshots).
    pub fn name(self) -> &'static str {
        match self {
            TraceOp::Checkpoint => "checkpoint",
            TraceOp::DeltaCheckpoint => "delta-checkpoint",
            TraceOp::Restore => "restore",
            TraceOp::Repack => "repack",
        }
    }
}

impl std::fmt::Display for TraceOp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One stage of a request's datapath, in rough execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Stage {
    /// Client-side round trip: request sent → reply demultiplexed.
    Rpc,
    /// Queued on the daemon's dispatch pool, waiting for a worker.
    DispatchWait,
    /// Session/structure validation against the persistent index.
    Validate,
    /// Building tensor verbs and coalescing them into WQE runs.
    WqeBuild,
    /// Posting one doorbell batch of WQEs (the fabric transfer itself
    /// charges the clock here — the in-process fabric completes
    /// eagerly at post time).
    DoorbellPost,
    /// Draining the completion queue for one posting round. The drain
    /// charges no virtual time of its own; the span is derived from the
    /// fabric completions' own start/end instants.
    CqDrain,
    /// Exponential backoff charged before a retry round.
    RetryBackoff,
    /// Device-local carry-over copies of clean tensors (delta only).
    CarryCopy,
    /// Flush + fence of the pulled bytes.
    Persist,
    /// Checksum read-back of the slot.
    Checksum,
    /// Durable slot-header flip to `Done`.
    HeaderFlip,
    /// The dedup tier's extent seal: chunking the staging region into
    /// content-addressed extents and publishing the extent map under
    /// one header flip (dedup-configured daemons only). Restores read
    /// extents in place and record no dedup span.
    Dedup,
    /// One space-management repack pass over the model table.
    Repack,
    /// Resolving a model name through the paged on-PMem catalog
    /// (directory binary search + one page probe). Catalog-enabled
    /// daemons only; the DRAM ModelMap resolves in zero virtual time.
    CatalogLookup,
    /// The whole daemon-side operation, end to end.
    Total,
}

impl Stage {
    /// Stable lowercase name (used in trace events and snapshots).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Rpc => "rpc",
            Stage::DispatchWait => "dispatch-wait",
            Stage::Validate => "validate",
            Stage::WqeBuild => "wqe-build",
            Stage::DoorbellPost => "doorbell-post",
            Stage::CqDrain => "cq-drain",
            Stage::RetryBackoff => "retry-backoff",
            Stage::CarryCopy => "carry-copy",
            Stage::Persist => "persist",
            Stage::Checksum => "checksum",
            Stage::HeaderFlip => "header-flip",
            Stage::Dedup => "dedup",
            Stage::Repack => "repack",
            Stage::CatalogLookup => "catalog-lookup",
            Stage::Total => "total",
        }
    }
}

impl std::fmt::Display for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One recorded span: a stage of one request, bounded by two instants
/// on the virtual clock.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SpanRecord {
    /// The request the span belongs to.
    pub req_id: u64,
    /// The operation in flight.
    pub op: TraceOp,
    /// Which stage of the operation.
    pub stage: Stage,
    /// The model being operated on.
    pub model: String,
    /// Stage start (virtual).
    pub start: SimTime,
    /// Stage end (virtual).
    pub end: SimTime,
    /// Retry round, for per-round stages (`0` = the initial posting).
    pub round: u32,
    /// NIC engine lane the span's verbs rode, for per-QP stages
    /// (`0` = the sole lane of an unstriped connection).
    #[serde(default)]
    pub lane: u32,
}

impl SpanRecord {
    /// The span's width on the virtual timeline.
    pub fn duration(&self) -> SimDuration {
        self.end.saturating_since(self.start)
    }
}

/// A renderable timeline event for [`chrome_trace_json`] — the
/// op-agnostic shape spans and other timelines (cluster busy/idle
/// segments) convert into before export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Event name (the box label in the timeline).
    pub name: String,
    /// Category string (filterable in the trace viewer).
    pub cat: String,
    /// Process lane.
    pub pid: u64,
    /// Thread lane within the process.
    pub tid: u64,
    /// Event start (virtual).
    pub start: SimTime,
    /// Event end (virtual).
    pub end: SimTime,
    /// Extra key/value arguments shown on selection.
    pub args: Vec<(String, String)>,
}

/// Escapes a string for embedding in a JSON string literal.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders `events` as Chrome trace-event JSON (the `traceEvents`
/// array format understood by `chrome://tracing` and Perfetto).
/// Timestamps are microseconds with nanosecond fractions, taken from
/// the virtual clock — the output is a pure function of the events, so
/// deterministic runs export byte-identical traces.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let ts_ns = e.start.as_nanos();
        let dur_ns = e.end.saturating_since(e.start).as_nanos();
        out.push_str(&format!(
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{}.{:03},\"dur\":{}.{:03},\"pid\":{},\"tid\":{}",
            escape_json(&e.name),
            escape_json(&e.cat),
            ts_ns / 1_000,
            ts_ns % 1_000,
            dur_ns / 1_000,
            dur_ns % 1_000,
            e.pid,
            e.tid,
        ));
        if !e.args.is_empty() {
            out.push_str(",\"args\":{");
            for (j, (k, v)) in e.args.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                out.push_str(&format!("\"{}\":\"{}\"", escape_json(k), escape_json(v)));
            }
            out.push('}');
        }
        out.push('}');
    }
    out.push_str("]}");
    out
}

#[derive(Debug, Default)]
struct TracerInner {
    enabled: AtomicBool,
    spans: Mutex<Vec<SpanRecord>>,
}

/// Shared span recorder. Cloning shares the underlying buffer (like
/// [`crate::Stats`]); recording is a no-op until [`Tracer::enable`].
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    /// A fresh, disabled tracer.
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Starts recording spans.
    pub fn enable(&self) {
        self.inner.enabled.store(true, Ordering::Relaxed);
    }

    /// Stops recording spans (already recorded spans are kept).
    pub fn disable(&self) {
        self.inner.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether spans are currently being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Records one span. A no-op while the tracer is disabled.
    pub fn record(&self, span: SpanRecord) {
        if self.is_enabled() {
            self.inner.spans.lock().push(span);
        }
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.inner.spans.lock().len()
    }

    /// `true` when no spans have been recorded.
    pub fn is_empty(&self) -> bool {
        self.inner.spans.lock().is_empty()
    }

    /// Discards all recorded spans (the enabled flag is untouched).
    pub fn clear(&self) {
        self.inner.spans.lock().clear();
    }

    /// All recorded spans, in a canonical deterministic order
    /// (by start, end, request, stage, round) independent of the thread
    /// interleaving that recorded them.
    pub fn spans(&self) -> Vec<SpanRecord> {
        let mut spans = self.inner.spans.lock().clone();
        spans.sort_by(|a, b| {
            (a.start, a.end, a.req_id, a.op, a.stage, a.round, a.lane)
                .cmp(&(b.start, b.end, b.req_id, b.op, b.stage, b.round, b.lane))
        });
        spans
    }

    /// Exports the recorded spans as Chrome trace-event JSON. Each
    /// request gets its own thread lane (`tid = req_id`); stages are
    /// the events within the lane. Deterministic runs export
    /// byte-identical traces (spans are canonically sorted first).
    pub fn to_chrome_trace(&self) -> String {
        let events: Vec<TraceEvent> = self
            .spans()
            .iter()
            .map(|s| {
                let mut args = vec![
                    ("model".to_string(), s.model.clone()),
                    ("round".to_string(), s.round.to_string()),
                ];
                // Lane 0 is the only lane of a one-QP connection;
                // omitting it keeps one-QP exports free of lane args.
                if s.lane > 0 {
                    args.push(("lane".to_string(), s.lane.to_string()));
                }
                TraceEvent {
                    name: s.stage.name().to_string(),
                    cat: s.op.name().to_string(),
                    pid: 1,
                    tid: s.req_id,
                    start: s.start,
                    end: s.end,
                    args,
                }
            })
            .collect();
        chrome_trace_json(&events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(req: u64, stage: Stage, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            req_id: req,
            op: TraceOp::Checkpoint,
            stage,
            model: "m".to_string(),
            start: SimTime::from_nanos(start),
            end: SimTime::from_nanos(end),
            round: 0,
            lane: 0,
        }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        t.record(span(1, Stage::Total, 0, 10));
        assert!(t.is_empty());
        t.enable();
        t.record(span(1, Stage::Total, 0, 10));
        assert_eq!(t.len(), 1);
        t.disable();
        t.record(span(2, Stage::Total, 10, 20));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn clones_share_the_span_buffer() {
        let a = Tracer::new();
        a.enable();
        let b = a.clone();
        b.record(span(1, Stage::Persist, 0, 5));
        assert_eq!(a.len(), 1);
        assert!(b.is_enabled());
    }

    #[test]
    fn spans_export_in_canonical_order() {
        let t = Tracer::new();
        t.enable();
        t.record(span(2, Stage::Persist, 50, 60));
        t.record(span(1, Stage::Total, 0, 100));
        t.record(span(1, Stage::Persist, 50, 60));
        let spans = t.spans();
        assert_eq!(spans[0].req_id, 1);
        assert_eq!(spans[0].stage, Stage::Total);
        assert_eq!(spans[1].req_id, 1);
        assert_eq!(spans[2].req_id, 2);
    }

    #[test]
    fn chrome_export_is_valid_and_deterministic() {
        let t = Tracer::new();
        t.enable();
        t.record(span(1, Stage::Total, 1_500, 4_500));
        t.record(span(1, Stage::Persist, 2_000, 3_000));
        let a = t.to_chrome_trace();
        let b = t.to_chrome_trace();
        assert_eq!(a, b, "export must be a pure function of the spans");
        assert!(a.starts_with('{') && a.ends_with('}'));
        assert!(a.contains("\"traceEvents\":["));
        assert!(a.contains("\"ph\":\"X\""));
        assert!(a.contains("\"ts\":1.500"));
        assert!(a.contains("\"dur\":3.000"));
        assert!(a.contains("\"tid\":1"));
    }

    #[test]
    fn lane_arg_appears_only_on_striped_spans() {
        let t = Tracer::new();
        t.enable();
        t.record(span(1, Stage::DoorbellPost, 0, 10));
        let mut striped = span(1, Stage::DoorbellPost, 10, 20);
        striped.lane = 3;
        t.record(striped);
        let json = t.to_chrome_trace();
        assert_eq!(json.matches("\"lane\":\"3\"").count(), 1);
        assert!(
            !json.contains("\"lane\":\"0\""),
            "lane 0 must stay implicit"
        );
    }

    #[test]
    fn json_strings_are_escaped() {
        let events = [TraceEvent {
            name: "a\"b\\c\n".to_string(),
            cat: "t".to_string(),
            pid: 1,
            tid: 1,
            start: SimTime::ZERO,
            end: SimTime::from_nanos(1),
            args: vec![("k\"".to_string(), "v\t".to_string())],
        }];
        let s = chrome_trace_json(&events);
        assert!(s.contains("a\\\"b\\\\c\\n"));
        assert!(s.contains("\"k\\\"\":\"v\\t\""));
    }

    #[test]
    fn span_duration_saturates() {
        let s = span(1, Stage::Total, 10, 5);
        assert_eq!(s.duration(), SimDuration::ZERO);
    }
}
