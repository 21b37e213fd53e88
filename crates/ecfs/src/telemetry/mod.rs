//! Deterministic tracing & telemetry: per-op lifecycle spans, stage-level
//! latency attribution, utilization lanes, and exporters.
//!
//! The replay's aggregate metrics say *how much* each method costs; this
//! layer says *where the time goes*. Every driver reports its op's
//! critical-path stage boundaries (`queue_wait → net_send → disk_io →
//! log_append → ack`, method-specific in the middle) right before it
//! completes the op, and background machinery (recycle, repair,
//! maintenance, degraded decode) reports child spans on per-node lanes.
//! From the same records the layer derives:
//!
//! * [`StageRow`] — the per-class, per-stage rollup surfaced as
//!   `RunResult::stage_breakdown` (Fig. 7's decomposition generalized to
//!   every method and sweep);
//! * [`Trace`] — the retained spans + op index + utilization lanes, with
//!   exporters to Chrome Trace Event JSON ([`chrome`], loads directly in
//!   Perfetto) and a compact binary log ([`binary`], read by
//!   `trace_dump`).
//!
//! Retention has one knob, [`TraceConfig::capacity`]: every op's spans
//! are kept until that many are held, and the rest are counted as
//! dropped. Utilization lanes use fixed 10 ms buckets.
//!
//! Determinism contract: spans carry only simulation timestamps and the
//! bounded [`simdes::SpanLog`] retains a prefix that is a pure function
//! of the event sequence — so two runs of one config serialise to the
//! **bit-identical** trace, and tracing *off* (the default) leaves the
//! replay byte-for-byte on its pinned goldens because nothing in this
//! module runs.
//!
//! Attribution is exact by construction: an op's stages are contiguous
//! half-open intervals partitioning `[issued_at, ack]`, so their durations
//! sum to the client-observed latency to the nanosecond (parallel fan-out
//! collapses onto the critical path; park/retry waits land in the stage
//! that follows them).

use std::collections::BTreeMap;

use simdes::stats::{Histogram, TimeSeries};
use simdes::{SimTime, SpanLog};

// The span record traces are made of, re-exported so downstream crates
// (e.g. the bench harness's `trace_dump`) can consume traces without a
// direct `simdes` dependency.
pub use simdes::Span;

pub mod binary;
pub mod chrome;

/// A lifecycle stage an op (or background job) spends time in.
///
/// The first block are critical-path stages reported by the method
/// drivers; the second are child-span kinds for background machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u16)]
pub enum Stage {
    /// Admission/queue wait: op issued but not yet dispatched.
    QueueWait = 0,
    /// Client → node fabric transfer (request RPC + payload).
    NetSend = 1,
    /// Foreground disk I/O (data read-modify-write, in-place write).
    DiskIo = 2,
    /// Erasure encode on the critical path.
    Encode = 3,
    /// Erasure decode (degraded reads).
    Decode = 4,
    /// Sequential log append (data or delta logs).
    LogAppend = 5,
    /// Parity-branch completion: fan-out transfer + parity-side work.
    ParityIo = 6,
    /// Completion RPC back to the client.
    Ack = 7,
    /// Background: log recycle / flush / garbage collection.
    Recycle = 8,
    /// Background: post-fault block rebuild.
    Repair = 9,
    /// Background: maintenance window (scrub, rebalance).
    Maintenance = 10,
    /// Served from the node-local cache layer (read hit: no disk touched).
    CacheHit = 11,
}

/// Every stage, in id order (export tables iterate this).
pub const STAGES: [Stage; 12] = [
    Stage::QueueWait,
    Stage::NetSend,
    Stage::DiskIo,
    Stage::Encode,
    Stage::Decode,
    Stage::LogAppend,
    Stage::ParityIo,
    Stage::Ack,
    Stage::Recycle,
    Stage::Repair,
    Stage::Maintenance,
    Stage::CacheHit,
];

impl Stage {
    /// Stable wire id.
    pub fn id(self) -> u16 {
        self as u16
    }

    /// Decodes a wire id.
    pub fn from_id(id: u16) -> Option<Stage> {
        STAGES.get(id as usize).copied()
    }

    /// Human-readable name (trace lanes, tables).
    pub fn name(self) -> &'static str {
        match self {
            Stage::QueueWait => "queue_wait",
            Stage::NetSend => "net_send",
            Stage::DiskIo => "disk_io",
            Stage::Encode => "encode",
            Stage::Decode => "decode",
            Stage::LogAppend => "log_append",
            Stage::ParityIo => "parity_io",
            Stage::Ack => "ack",
            Stage::Recycle => "recycle",
            Stage::Repair => "repair",
            Stage::Maintenance => "maintenance",
            Stage::CacheHit => "cache_hit",
        }
    }
}

/// The class of operation a span belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u16)]
pub enum OpClass {
    /// A client update (the paper's workload unit).
    Update = 0,
    /// A client read (including degraded reads).
    Read = 1,
    /// Background work not attributed to one client op.
    Background = 2,
    /// A fresh (full-stripe) client write — distinct from `Update` so the
    /// Update rollup reconciles against update-only latency metrics.
    Write = 3,
}

impl OpClass {
    /// Stable wire id.
    pub fn id(self) -> u16 {
        self as u16
    }

    /// Decodes a wire id.
    pub fn from_id(id: u16) -> Option<OpClass> {
        match id {
            0 => Some(OpClass::Update),
            1 => Some(OpClass::Read),
            2 => Some(OpClass::Background),
            3 => Some(OpClass::Write),
            _ => None,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            OpClass::Update => "update",
            OpClass::Read => "read",
            OpClass::Background => "background",
            OpClass::Write => "write",
        }
    }
}

/// Utilization lane kinds sampled from resource bookings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u16)]
pub enum UtilKind {
    /// A node's disk (busy ns per bucket).
    Disk = 0,
    /// A node's NIC send direction (rack uplink usage included).
    NetTx = 1,
    /// The spine (cross-rack aggregate).
    Spine = 2,
    /// The repair pump's rebuild traffic.
    Repair = 3,
}

impl UtilKind {
    /// Stable wire id.
    pub fn id(self) -> u16 {
        self as u16
    }

    /// Decodes a wire id.
    pub fn from_id(id: u16) -> Option<UtilKind> {
        match id {
            0 => Some(UtilKind::Disk),
            1 => Some(UtilKind::NetTx),
            2 => Some(UtilKind::Spine),
            3 => Some(UtilKind::Repair),
            _ => None,
        }
    }

    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            UtilKind::Disk => "disk",
            UtilKind::NetTx => "net_tx",
            UtilKind::Spine => "spine",
            UtilKind::Repair => "repair",
        }
    }
}

/// Bucket width of the utilization lanes, nanoseconds.
const UTIL_BUCKET_NS: u64 = 10 * simdes::units::MILLIS;

/// Tracing configuration, validated and carried on `ReplayConfig`.
///
/// The default is **off**: no state is touched, so a traced build replays
/// byte-for-byte identically to the pinned goldens. When enabled, every
/// op's spans are retained until `capacity` spans are held; the rollup
/// (`stage_breakdown`) sees every op regardless, and every span past the
/// budget is counted in `trace_dropped_spans` rather than silently
/// forgotten.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Master switch (default `false` — byte-for-byte identical replay).
    pub enabled: bool,
    /// Maximum retained spans; overflow increments `trace_dropped_spans`.
    pub capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            enabled: false,
            capacity: 1 << 20,
        }
    }
}

impl TraceConfig {
    /// Tracing on with the default budget (1M spans).
    pub fn on() -> TraceConfig {
        TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        }
    }

    /// Cap the retained span count.
    pub fn with_capacity(mut self, capacity: usize) -> TraceConfig {
        self.capacity = capacity;
        self
    }

    /// Checks internal consistency (called from `ReplayConfig::validate`).
    pub fn validate(&self) -> Result<(), String> {
        if !self.enabled {
            return Ok(());
        }
        if self.capacity == 0 {
            return Err("trace.capacity must be positive when tracing".into());
        }
        Ok(())
    }
}

/// One traced op in the trace index: identity plus the exact interval its
/// stage spans partition. `latency` is attached independently by the
/// completion path, so tests can pin `sum(stage spans) == latency` as two
/// separately-derived numbers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRecord {
    /// Trace-order op id (the id spans carry).
    pub op: u64,
    /// Issuing client.
    pub client: u64,
    /// Op class.
    pub class: OpClass,
    /// Issue time (arrival; spans start here).
    pub start: SimTime,
    /// Completion time (ack; the last span ends here).
    pub end: SimTime,
    /// Client-observed latency as recorded by the metrics path.
    pub latency: SimTime,
}

/// One utilization lane: busy nanoseconds per fixed-width time bucket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UtilLane {
    /// What resource family the lane samples.
    pub kind: UtilKind,
    /// Resource instance (node id; 0 for singletons like the spine).
    pub id: u32,
    /// Bucket width, nanoseconds.
    pub bucket_ns: u64,
    /// Busy nanoseconds accumulated per bucket.
    pub busy: Vec<u64>,
}

/// One row of the stage-attribution rollup (`RunResult::stage_breakdown`):
/// how much time one op class spent in one stage across the whole run.
#[derive(Debug, Clone, PartialEq)]
pub struct StageRow {
    /// Op class the row aggregates.
    pub class: OpClass,
    /// Lifecycle stage.
    pub stage: Stage,
    /// Number of spans.
    pub count: u64,
    /// Total stage time, microseconds.
    pub total_us: f64,
    /// Mean span duration, microseconds.
    pub mean_us: f64,
    /// p99 span duration, microseconds (histogram bucket upper bound — see
    /// `Histogram::quantile`).
    pub p99_us: f64,
}

/// A finished run's trace: retained spans, the op index, and the
/// utilization lanes — everything the exporters and `trace_dump` need.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// The update method the run replayed (display only).
    pub method: String,
    /// Retained spans in canonical (completion) order.
    pub spans: Vec<Span>,
    /// Op index aligned with the spans' op ids.
    pub ops: Vec<OpRecord>,
    /// Utilization lanes in (kind, id) order.
    pub util: Vec<UtilLane>,
    /// Spans that arrived after the retention budget filled.
    pub dropped: u64,
}

#[derive(Debug, Clone, Default)]
struct RollupCell {
    count: u64,
    total_ns: u128,
    hist: Histogram,
}

/// Live tracing state embedded in the cluster. All methods early-return
/// when disarmed, so the disabled path costs one branch and mutates
/// nothing.
#[derive(Debug, Default)]
pub struct TraceState {
    on: bool,
    op_seq: u64,
    spans: SpanLog,
    ops: Vec<OpRecord>,
    rollup: BTreeMap<(u16, u16), RollupCell>,
    util: BTreeMap<(u16, u32), TimeSeries>,
    last_busy: BTreeMap<(u16, u32), u64>,
    pending: Option<usize>,
}

impl TraceState {
    /// Disarmed state (what `Cluster::new` embeds).
    pub fn new() -> TraceState {
        TraceState::default()
    }

    /// Arms tracing with a validated config (no-op when `cfg.enabled` is
    /// false).
    pub fn arm(&mut self, cfg: TraceConfig) {
        if !cfg.enabled {
            return;
        }
        self.on = true;
        self.spans = SpanLog::new(cfg.capacity);
    }

    /// Whether tracing is armed.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.on
    }

    fn rollup_span(&mut self, class: OpClass, stage: Stage, dur: SimTime) {
        let cell = self.rollup.entry((class.id(), stage.id())).or_default();
        cell.count += 1;
        cell.total_ns += dur as u128;
        cell.hist.record(dur);
    }

    /// Records a finished op's critical-path decomposition.
    ///
    /// `marks` are `(stage, end_time)` boundaries in timeline order; stage
    /// `k` covers `[previous end, end_k]` starting from `start_at`, and a
    /// `queue_wait` span covering `[issued_at, start_at]` is prepended.
    /// End times are clamped monotone, so the spans are contiguous and
    /// their durations sum to `last_end - issued_at` exactly.
    pub fn record_op(
        &mut self,
        client: u64,
        class: OpClass,
        issued_at: SimTime,
        start_at: SimTime,
        marks: &[(Stage, SimTime)],
    ) {
        if !self.on {
            return;
        }
        let op = self.op_seq;
        self.op_seq += 1;
        let lane = client as u32;
        let mut prev = issued_at;
        let queue_end = start_at.max(issued_at);
        let emit = |state: &mut TraceState, stage: Stage, end: SimTime, prev: &mut SimTime| {
            let end = end.max(*prev);
            state.rollup_span(class, stage, end - *prev);
            state.spans.push(Span {
                lane,
                kind: stage.id(),
                class: class.id(),
                op,
                start: *prev,
                end,
            });
            *prev = end;
        };
        emit(self, Stage::QueueWait, queue_end, &mut prev);
        for &(stage, end) in marks {
            emit(self, stage, end, &mut prev);
        }
        self.ops.push(OpRecord {
            op,
            client,
            class,
            start: issued_at,
            end: prev,
            latency: 0,
        });
        self.pending = Some(self.ops.len() - 1);
    }

    /// Attaches the metrics-path latency to the op just recorded (called
    /// by the completion hook, independently of the driver's marks).
    pub fn close_op(&mut self, latency: SimTime) {
        if let Some(i) = self.pending.take() {
            self.ops[i].latency = latency;
        }
    }

    /// Records a background child span (recycle, repair, maintenance) on a
    /// per-node lane.
    pub fn child(&mut self, stage: Stage, node: usize, start: SimTime, end: SimTime) {
        if !self.on {
            return;
        }
        let end = end.max(start);
        self.rollup_span(OpClass::Background, stage, end - start);
        self.spans.push(Span {
            lane: node as u32,
            kind: stage.id(),
            class: OpClass::Background.id(),
            op: 0,
            start,
            end,
        });
    }

    /// Samples a *cumulative* busy counter (e.g. `Disk::busy_time`,
    /// `Network::egress_busy`) into a utilization lane: the delta since
    /// the last sample of the same lane lands in the bucket containing
    /// `t`. Monotone counters make the lanes exact no matter how sparsely
    /// the booking sites fire.
    pub fn book_total(&mut self, kind: UtilKind, id: u32, t: SimTime, total_busy: u64) {
        if !self.on {
            return;
        }
        let key = (kind.id(), id);
        let last = self.last_busy.insert(key, total_busy).unwrap_or(0);
        let delta = total_busy.saturating_sub(last);
        if delta > 0 {
            self.util
                .entry(key)
                .or_insert_with(|| TimeSeries::new(UTIL_BUCKET_NS))
                .record(t, delta);
        }
    }

    /// Spans dropped past the retention budget so far.
    pub fn dropped(&self) -> u64 {
        self.spans.dropped()
    }

    /// Finalizes the run: returns the stage rollup and the full trace,
    /// leaving the state disarmed. Returns an empty breakdown and `None`
    /// when tracing was never armed.
    pub fn finish(&mut self, method: &str) -> (Vec<StageRow>, u64, Option<Trace>) {
        if !self.on {
            return (Vec::new(), 0, None);
        }
        let state = std::mem::take(self);
        let rows = state
            .rollup
            .iter()
            .map(|(&(class, stage), cell)| StageRow {
                class: OpClass::from_id(class).expect("rollup keys are valid classes"),
                stage: Stage::from_id(stage).expect("rollup keys are valid stages"),
                count: cell.count,
                total_us: cell.total_ns as f64 / 1000.0,
                mean_us: if cell.count == 0 {
                    0.0
                } else {
                    cell.total_ns as f64 / cell.count as f64 / 1000.0
                },
                p99_us: cell.hist.quantile(0.99) as f64 / 1000.0,
            })
            .collect();
        let dropped = state.spans.dropped();
        let util = state
            .util
            .into_iter()
            .map(|((kind, id), ts)| UtilLane {
                kind: UtilKind::from_id(kind).expect("util keys are valid kinds"),
                id,
                bucket_ns: ts.bucket_width(),
                busy: ts.buckets().to_vec(),
            })
            .collect();
        let trace = Trace {
            method: method.to_string(),
            spans: state.spans.spans().to_vec(),
            ops: state.ops,
            util,
            dropped,
        };
        (rows, dropped, Some(trace))
    }
}

impl Trace {
    /// Sum of one op's span durations, nanoseconds (`None` when the op was
    /// not retained).
    pub fn op_span_sum(&self, op: u64) -> Option<SimTime> {
        let sum: SimTime = self
            .spans
            .iter()
            .filter(|s| s.op == op && s.class != OpClass::Background.id())
            .map(|s| s.dur())
            .sum();
        self.ops.iter().any(|o| o.op == op).then_some(sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_state_is_inert() {
        let mut t = TraceState::new();
        assert!(!t.enabled());
        t.record_op(1, OpClass::Update, 0, 10, &[(Stage::Ack, 50)]);
        t.child(Stage::Repair, 3, 0, 100);
        t.book_total(UtilKind::Disk, 0, 0, 1000);
        t.close_op(50);
        let (rows, dropped, trace) = t.finish("FO");
        assert!(rows.is_empty());
        assert_eq!(dropped, 0);
        assert!(trace.is_none());
    }

    #[test]
    fn off_config_validates_and_arms_nothing() {
        let cfg = TraceConfig::default();
        assert!(!cfg.enabled);
        assert!(cfg.validate().is_ok());
        let mut t = TraceState::new();
        t.arm(cfg);
        assert!(!t.enabled());
        // A nonsense config validates fine while disabled...
        let off = TraceConfig {
            capacity: 0,
            ..TraceConfig::default()
        };
        assert!(off.validate().is_ok());
        // ...and fails once enabled.
        let on = TraceConfig {
            enabled: true,
            ..off
        };
        assert!(on.validate().is_err());
        assert!(TraceConfig::on().with_capacity(0).validate().is_err());
        assert!(TraceConfig::on().validate().is_ok());
    }

    #[test]
    fn spans_partition_the_op_interval() {
        let mut t = TraceState::new();
        t.arm(TraceConfig::on());
        // Op issued at 100, dispatched at 130, staged to ack at 400.
        t.record_op(
            7,
            OpClass::Update,
            100,
            130,
            &[
                (Stage::NetSend, 150),
                (Stage::DiskIo, 250),
                (Stage::LogAppend, 380),
                (Stage::Ack, 400),
            ],
        );
        t.close_op(300);
        let (rows, dropped, trace) = t.finish("PL");
        let trace = trace.unwrap();
        assert_eq!(dropped, 0);
        assert_eq!(trace.spans.len(), 5, "queue_wait prepended");
        assert_eq!(trace.spans[0].kind, Stage::QueueWait.id());
        assert_eq!(trace.spans[0].start, 100);
        assert_eq!(trace.spans[0].end, 130);
        // Contiguous: each span starts where the previous ended.
        for pair in trace.spans.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        assert_eq!(trace.op_span_sum(0), Some(300), "sum == ack - issued");
        assert_eq!(trace.ops[0].latency, 300);
        assert_eq!(trace.ops[0].end - trace.ops[0].start, 300);
        // Rollup saw one span per stage.
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|r| r.count == 1));
        let total: f64 = rows.iter().map(|r| r.total_us).sum();
        assert!((total - 0.3).abs() < 1e-9, "300 ns total");
    }

    #[test]
    fn out_of_order_marks_clamp_monotone() {
        let mut t = TraceState::new();
        t.arm(TraceConfig::on());
        // A parallel branch that finished before the previous stage's end
        // clamps to zero duration instead of running backwards.
        t.record_op(
            1,
            OpClass::Update,
            0,
            0,
            &[
                (Stage::DiskIo, 200),
                (Stage::NetSend, 150),
                (Stage::Ack, 210),
            ],
        );
        t.close_op(210);
        let (_, _, trace) = t.finish("FO");
        let trace = trace.unwrap();
        let net = trace.spans.iter().find(|s| s.kind == Stage::NetSend.id());
        assert_eq!(net.unwrap().dur(), 0);
        assert_eq!(trace.op_span_sum(0), Some(210));
    }

    #[test]
    fn capacity_overflow_counts_drops() {
        let mut t = TraceState::new();
        t.arm(TraceConfig::on().with_capacity(3));
        for i in 0..4u64 {
            t.record_op(i, OpClass::Update, 0, 0, &[(Stage::Ack, 10)]);
            t.close_op(10);
        }
        let (_, dropped, trace) = t.finish("FO");
        // 4 ops x 2 spans = 8 produced, 3 retained.
        assert_eq!(trace.unwrap().spans.len(), 3);
        assert_eq!(dropped, 5);
    }

    #[test]
    fn child_and_util_lanes_record() {
        let mut t = TraceState::new();
        t.arm(TraceConfig::on());
        t.child(Stage::Repair, 4, 1000, 5000);
        t.book_total(UtilKind::Disk, 4, 1000, 4000);
        t.book_total(UtilKind::Spine, 0, 2000, 100);
        let (rows, _, trace) = t.finish("FO");
        let trace = trace.unwrap();
        assert_eq!(trace.spans.len(), 1);
        assert_eq!(trace.spans[0].class, OpClass::Background.id());
        assert_eq!(trace.util.len(), 2);
        assert_eq!(trace.util[0].kind, UtilKind::Disk);
        assert_eq!(trace.util[0].busy[0], 4000);
        assert!(rows
            .iter()
            .any(|r| r.class == OpClass::Background && r.stage == Stage::Repair));
    }
}
