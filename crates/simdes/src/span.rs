//! Span primitives for deterministic tracing: named intervals on the sim
//! timeline collected into bounded append-only logs.
//!
//! A [`Span`] is the tracing analogue of a histogram sample — it keeps the
//! *when* and the *what* instead of collapsing to a count, so a consumer
//! can reconstruct per-operation waterfalls (queue wait → net send → disk
//! I/O → append → ack) or per-node busy lanes after the run. The engine
//! stays deterministic because spans carry only simulation timestamps;
//! recording them neither reads the wall clock nor perturbs event order.
//!
//! [`SpanLog`] bounds memory honestly: past its capacity it counts what it
//! could not keep ([`SpanLog::dropped`]) instead of growing without bound
//! or silently pretending completeness — million-client replays can trace
//! with a fixed budget and still report exactly how much detail was lost.

use crate::sim::SimTime;

/// One named interval `[start, end]` on the simulation timeline.
///
/// The `class`/`kind`/`lane` tags are owner-defined (the tracing layer
/// above maps them to op classes, lifecycle stages, and display lanes);
/// this crate only requires that they are plain numbers so spans stay
/// `Copy` and logs stay cache-friendly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Display lane (a client, node, or resource id — owner-defined).
    pub lane: u32,
    /// Span kind (a lifecycle stage id — owner-defined).
    pub kind: u16,
    /// Operation class (update / read / background — owner-defined).
    pub class: u16,
    /// Operation id the span belongs to (0 when not op-scoped).
    pub op: u64,
    /// Start time, nanoseconds.
    pub start: SimTime,
    /// End time, nanoseconds (`>= start`).
    pub end: SimTime,
}

impl Span {
    /// Duration in nanoseconds.
    #[inline]
    pub fn dur(&self) -> SimTime {
        self.end - self.start
    }
}

/// Append-only span log with a hard capacity and an honest drop counter.
///
/// `push` keeps the first `capacity` spans and counts the rest — the
/// deterministic choice (the retained prefix is a pure function of the
/// event sequence, so two runs of one config retain identical spans).
#[derive(Debug, Clone, Default)]
pub struct SpanLog {
    spans: Vec<Span>,
    capacity: usize,
    dropped: u64,
}

impl SpanLog {
    /// An empty log retaining at most `capacity` spans.
    pub fn new(capacity: usize) -> SpanLog {
        SpanLog {
            spans: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Appends `span`; returns `false` (and counts a drop) when the log is
    /// at capacity.
    pub fn push(&mut self, span: Span) -> bool {
        debug_assert!(span.start <= span.end, "span runs backwards");
        if self.spans.len() < self.capacity {
            self.spans.push(span);
            true
        } else {
            self.dropped += 1;
            false
        }
    }

    /// The retained spans, in append order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans that arrived after the log filled.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of retained spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span has been retained.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(op: u64, start: SimTime, end: SimTime) -> Span {
        Span {
            lane: 0,
            kind: 1,
            class: 0,
            op,
            start,
            end,
        }
    }

    #[test]
    fn span_log_appends_in_order() {
        let mut log = SpanLog::new(8);
        assert!(log.is_empty());
        assert!(log.push(span(1, 10, 20)));
        assert!(log.push(span(2, 20, 25)));
        assert_eq!(log.len(), 2);
        assert_eq!(log.spans()[0].op, 1);
        assert_eq!(log.spans()[1].dur(), 5);
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn span_log_bounds_memory_and_counts_drops() {
        let mut log = SpanLog::new(2);
        assert!(log.push(span(1, 0, 1)));
        assert!(log.push(span(2, 1, 2)));
        assert!(!log.push(span(3, 2, 3)), "over budget");
        assert!(!log.push(span(4, 3, 4)));
        assert_eq!(log.len(), 2, "first-N retained");
        assert_eq!(log.dropped(), 2, "honest drop count");
        assert_eq!(log.spans()[1].op, 2);
    }
}
