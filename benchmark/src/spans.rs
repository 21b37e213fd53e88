//! Harness spans: recorded in memory around the calls into each layer and
//! written at exit as a Chrome trace-event file. A span has a name, a start
//! and an end, the span that caused it, and the id of the cell (one replay
//! or one engine run) it belongs to. A span's self time is its duration
//! minus what its child spans cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

struct Span {
    name: &'static str,
    start_us: f64,
    dur_us: f64,
    parent: Option<SpanId>,
    cell: u32,
    /// Microseconds covered by this span's children.
    child_us: f64,
    /// Already counted in `leaves` (a kept sample of a rolled-up leaf).
    leaf: bool,
}

/// Per-name totals: how often, how long, and how long excluding children.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans of this name.
    pub count: u64,
    /// Sum of their durations, µs.
    pub total_us: f64,
    /// Sum of their self times, µs.
    pub self_us: f64,
}

/// The in-memory span log of one run.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    /// Leaf spans too many to keep one by one (per-update engine calls):
    /// every one is counted here, one in a hundred is also kept in `spans`.
    leaves: BTreeMap<&'static str, SelfTime>,
}

impl Spans {
    /// An empty log; span times are relative to now.
    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            leaves: BTreeMap::new(),
        }
    }

    fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        cell: u32,
        leaf: bool,
    ) -> SpanId {
        self.spans.push(Span {
            name,
            start_us: start.duration_since(self.origin).as_secs_f64() * 1e6,
            dur_us: end.duration_since(start).as_secs_f64() * 1e6,
            parent,
            cell,
            child_us: 0.0,
            leaf,
        });
        self.spans.len() - 1
    }

    /// Records a span and charges its duration to `parent`'s children.
    pub fn add(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<SpanId>,
        cell: u32,
    ) -> SpanId {
        let id = self.push(name, start, end, parent, cell, false);
        if let Some(p) = parent {
            self.spans[p].child_us += self.spans[id].dur_us;
        }
        id
    }

    /// Moves the end of span `id` (recorded with a provisional end) to `end`.
    pub fn end(&mut self, id: SpanId, end: Instant) {
        let end_us = end.duration_since(self.origin).as_secs_f64() * 1e6;
        let grown = end_us - self.spans[id].start_us - self.spans[id].dur_us;
        self.spans[id].dur_us += grown;
        if let Some(p) = self.spans[id].parent {
            self.spans[p].child_us += grown;
        }
    }

    /// Records a childless span of a kind that occurs per operation: always
    /// counted in the per-name rollup and against `parent`, kept as a span
    /// of its own only when `keep`.
    pub fn leaf(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        keep: bool,
    ) {
        let dur_us = end.duration_since(start).as_secs_f64() * 1e6;
        let t = self.leaves.entry(name).or_default();
        t.count += 1;
        t.total_us += dur_us;
        t.self_us += dur_us;
        self.spans[parent].child_us += dur_us;
        if keep {
            let cell = self.spans[parent].cell;
            self.push(name, start, end, Some(parent), cell, true);
        }
    }

    /// Per-name self-time rollup over everything recorded.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut out = self.leaves.clone();
        for s in self.spans.iter().filter(|s| !s.leaf) {
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_us += s.dur_us;
            t.self_us += s.dur_us - s.child_us;
        }
        out
    }

    /// Spans kept one by one.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The log as Chrome trace-event JSON (`chrome://tracing`, Perfetto):
    /// one complete event per kept span, `tid` = cell id, parent and span id
    /// in `args`, and the self-time rollup under `selfTime`.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if id + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\
                 \"args\":{{\"id\":{id},\"parent\":{parent}}}}}{sep}",
                s.name, s.start_us, s.dur_us, s.cell
            )
            .expect("write to string");
        }
        out.push_str("],\"selfTime\":[\n");
        let rollup = self.self_times();
        for (i, (name, t)) in rollup.iter().enumerate() {
            let sep = if i + 1 == rollup.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"name\":\"{name}\",\"count\":{},\"total_us\":{:.3},\"self_us\":{:.3}}}{sep}",
                t.count, t.total_us, t.self_us
            )
            .expect("write to string");
        }
        out.push_str("]}\n");
        out
    }
}
