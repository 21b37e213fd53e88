//! Measurement utilities: counters, windowed time series, histograms.

use crate::sim::SimTime;
use crate::units;

/// A monotonically increasing `(count, bytes)` pair — the unit of I/O and
/// network accounting throughout the reproduction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCounter {
    /// Number of operations.
    pub ops: u64,
    /// Total bytes moved by those operations.
    pub bytes: u64,
}

impl OpCounter {
    /// Records one operation of `bytes` bytes.
    #[inline]
    pub fn record(&mut self, bytes: u64) {
        self.ops += 1;
        self.bytes += bytes;
    }

    /// Merges another counter into this one.
    #[inline]
    pub fn merge(&mut self, other: OpCounter) {
        self.ops += other.ops;
        self.bytes += other.bytes;
    }

    /// Bytes expressed in GiB.
    pub fn gib(&self) -> f64 {
        self.bytes as f64 / (1u64 << 30) as f64
    }
}

/// Fixed-width time buckets accumulating a count per bucket — used for
/// IOPS-over-time plots (paper Fig. 6a).
#[derive(Debug, Clone)]
pub struct TimeSeries {
    bucket_width: SimTime,
    buckets: Vec<u64>,
}

impl TimeSeries {
    /// Series with buckets of `bucket_width` nanoseconds.
    ///
    /// # Panics
    /// Panics if `bucket_width == 0`.
    pub fn new(bucket_width: SimTime) -> TimeSeries {
        assert!(bucket_width > 0, "bucket width must be positive");
        TimeSeries {
            bucket_width,
            buckets: Vec::new(),
        }
    }

    /// Adds `n` to the bucket containing time `t`.
    pub fn record(&mut self, t: SimTime, n: u64) {
        let idx = (t / self.bucket_width) as usize;
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += n;
    }

    /// Bucket width in nanoseconds.
    pub fn bucket_width(&self) -> SimTime {
        self.bucket_width
    }

    /// `(bucket_start_seconds, events_per_second)` pairs.
    pub fn rates_per_sec(&self) -> Vec<(f64, f64)> {
        let w = units::as_secs_f64(self.bucket_width);
        self.buckets
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as f64 * w, c as f64 / w))
            .collect()
    }

    /// Raw bucket counts.
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }
}

/// Log2-bucketed histogram of durations, for latency/residency quantiles.
///
/// Bucket `i` covers `[2^i, 2^(i+1))` nanoseconds (bucket 0 covers `[0,2)`),
/// so the histogram spans nanoseconds to hours in 64 buckets with bounded
/// error per bucket.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: [u64; 64],
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; 64],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one duration (nanoseconds).
    pub fn record(&mut self, v: u64) {
        let idx = (64 - v.leading_zeros()).saturating_sub(1) as usize;
        self.buckets[idx.min(63)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate quantile `q` in `[0, 1]`: returns the **upper bound**
    /// (exclusive) of the log2 bucket containing the q-th sample, so the
    /// reported value is always `>=` the true quantile and within 2x of it.
    /// The top bucket's bound, 2^64, saturates to `u64::MAX`.
    ///
    /// Reports and waterfalls that mix exact per-span sums with histogram
    /// quantiles must keep this convention in mind: a p99 of `1024` means
    /// "the 99th-percentile sample fell in `[512, 1024)`". Use
    /// [`Histogram::quantile_lower`] for the matching lower bound.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return 1u64.checked_shl(i as u32 + 1).unwrap_or(u64::MAX);
            }
        }
        self.max
    }

    /// The **lower bound** (inclusive) of the bucket containing the q-th
    /// sample — the dual of [`Histogram::quantile`]. The true quantile lies
    /// in `[quantile_lower(q), quantile(q))`; bucket 0 reports 0.
    pub fn quantile_lower(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return if i == 0 { 0 } else { 1u64 << i.min(63) };
            }
        }
        self.max
    }
}

/// A level gauge tracking a current value and its high-water mark — queue
/// depths, outstanding-op counts, and any other instantaneous level whose
/// peak matters more than its history.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauge {
    cur: u64,
    peak: u64,
}

impl Gauge {
    /// A gauge at zero.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Raises the level by `n`, updating the peak.
    pub fn add(&mut self, n: u64) {
        self.cur += n;
        self.peak = self.peak.max(self.cur);
    }

    /// Raises the level by one.
    pub fn inc(&mut self) {
        self.add(1);
    }

    /// Lowers the level by `n` (saturating at zero).
    pub fn sub(&mut self, n: u64) {
        self.cur = self.cur.saturating_sub(n);
    }

    /// Lowers the level by one.
    pub fn dec(&mut self) {
        self.sub(1);
    }

    /// The current level.
    pub fn current(&self) -> u64 {
        self.cur
    }

    /// The highest level ever held.
    pub fn peak(&self) -> u64 {
        self.peak
    }
}

/// A set of half-open `[start, end)` time windows, merged on insert — the
/// unit of phase-aware measurement (e.g. "degraded windows" between a
/// failure injection and the end of its repair).
#[derive(Debug, Clone, Default)]
pub struct WindowSet {
    /// Sorted, disjoint `(start, end)` windows.
    spans: Vec<(SimTime, SimTime)>,
}

impl WindowSet {
    /// Empty window set.
    pub fn new() -> WindowSet {
        WindowSet::default()
    }

    /// Inserts `[start, end)`, merging overlapping and touching windows.
    ///
    /// # Panics
    /// Panics if `start >= end`.
    pub fn insert(&mut self, start: SimTime, end: SimTime) {
        assert!(start < end, "empty window");
        let idx = self.spans.partition_point(|&(_, e)| e < start);
        let mut new = (start, end);
        let mut remove_to = idx;
        while remove_to < self.spans.len() && self.spans[remove_to].0 <= new.1 {
            new.0 = new.0.min(self.spans[remove_to].0);
            new.1 = new.1.max(self.spans[remove_to].1);
            remove_to += 1;
        }
        self.spans.splice(idx..remove_to, [new]);
    }

    /// Whether `t` falls inside some window.
    pub fn contains(&self, t: SimTime) -> bool {
        let idx = self.spans.partition_point(|&(_, e)| e <= t);
        self.spans.get(idx).is_some_and(|&(s, _)| s <= t)
    }

    /// Whether no window has been inserted.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Number of disjoint windows.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Total covered time.
    pub fn total(&self) -> SimTime {
        self.spans.iter().map(|&(s, e)| e - s).sum()
    }
}

/// Samples per chunk of a [`SampleLog`] (64 KiB).
const SAMPLE_CHUNK: usize = 4096;

/// A log of `(time, value)` samples that can be re-aggregated against a
/// [`WindowSet`] after the fact — latency quantiles *during* rebuild
/// windows vs steady state, without deciding the windows up front.
///
/// Memory grows with the sample count, so replay engines only attach one
/// when a fault plan makes phase-aware aggregation necessary. It grows in
/// fixed chunks, not one doubling buffer: that buffer's late reallocation
/// (2 MiB at 100 000 ops) lands wherever a busy heap has room, which makes
/// the process's peak resident set vary from run to run.
#[derive(Debug, Clone, Default)]
pub struct SampleLog {
    chunks: Vec<Vec<(SimTime, u64)>>,
}

impl SampleLog {
    /// Empty log.
    pub fn new() -> SampleLog {
        SampleLog::default()
    }

    /// Records one sample at time `t`.
    pub fn record(&mut self, t: SimTime, value: u64) {
        if self.chunks.last().is_none_or(|c| c.len() == SAMPLE_CHUNK) {
            self.chunks.push(Vec::with_capacity(SAMPLE_CHUNK));
        }
        self.chunks.last_mut().unwrap().push((t, value));
    }

    /// Number of recorded samples.
    pub fn len(&self) -> usize {
        self.chunks.iter().map(Vec::len).sum()
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.chunks.is_empty()
    }

    /// Iterates `(time, value)` pairs in record order without cloning or
    /// aggregating.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, u64)> + '_ {
        self.chunks.iter().flatten().copied()
    }

    /// Splits the samples into `(inside, outside)` histograms against the
    /// window set. An empty window set puts every sample in `outside`.
    pub fn split(&self, windows: &WindowSet) -> (Histogram, Histogram) {
        let mut inside = Histogram::new();
        let mut outside = Histogram::new();
        for (t, v) in self.iter() {
            if windows.contains(t) {
                inside.record(v);
            } else {
                outside.record(v);
            }
        }
        (inside, outside)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_counter_accumulates() {
        let mut c = OpCounter::default();
        c.record(4096);
        c.record(8192);
        assert_eq!(c.ops, 2);
        assert_eq!(c.bytes, 12288);
        let mut d = OpCounter::default();
        d.record(100);
        c.merge(d);
        assert_eq!(c.ops, 3);
        assert_eq!(c.bytes, 12388);
    }

    #[test]
    fn op_counter_gib() {
        let mut c = OpCounter::default();
        c.record(1u64 << 30);
        assert!((c.gib() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn time_series_buckets_and_rates() {
        let mut ts = TimeSeries::new(units::SECS);
        ts.record(0, 5);
        ts.record(units::SECS - 1, 5);
        ts.record(units::SECS, 7);
        ts.record(3 * units::SECS + 1, 1);
        assert_eq!(ts.buckets(), &[10, 7, 0, 1]);
        let rates = ts.rates_per_sec();
        assert_eq!(rates[0], (0.0, 10.0));
        assert_eq!(rates[1], (1.0, 7.0));
    }

    #[test]
    fn histogram_basics() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000, 1_000_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1_000_000);
        assert!((h.mean() - 1_001_106.0 / 6.0).abs() < 1.0);
    }

    #[test]
    fn histogram_quantiles_bound_samples() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        // p50 bucket upper bound must be >= the true median and within 2x.
        let p50 = h.quantile(0.5);
        assert!(p50 >= 500, "p50 = {p50}");
        assert!(p50 <= 1024, "p50 = {p50}");
        let p100 = h.quantile(1.0);
        assert!(p100 >= 1000);
    }

    #[test]
    fn histogram_quantile_bounds_the_top_bucket() {
        // A sample at or above 2^63 lands in bucket 63, whose exclusive
        // upper bound 2^64 does not fit a u64.
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.quantile(1.0), u64::MAX, "at or above every sample");
        assert_eq!(h.quantile_lower(1.0), 1 << 63);
    }

    #[test]
    fn histogram_quantile_reports_bucket_bounds() {
        // All samples in one log2 bucket: [512, 1024) is bucket 9, so every
        // quantile reports upper bound 1024 and lower bound 512, bracketing
        // the exact values.
        let mut h = Histogram::new();
        for v in [512u64, 700, 1023] {
            h.record(v);
        }
        for q in [0.01, 0.5, 0.99] {
            assert_eq!(h.quantile(q), 1024, "upper bound of [512, 1024)");
            assert_eq!(h.quantile_lower(q), 512, "lower bound of [512, 1024)");
        }
        // Exact-count check: the q-th sample lands in the reported bucket.
        let mut g = Histogram::new();
        for v in [1u64, 1, 1, 1000] {
            g.record(v);
        }
        // 3 of 4 samples sit in bucket 0 ([0, 2)): p50/p75 report it...
        assert_eq!(g.quantile(0.75), 2);
        assert_eq!(g.quantile_lower(0.75), 0, "bucket 0 lower bound is 0");
        // ...and only the count beyond 3/4 crosses into the 1000 bucket.
        assert_eq!(g.quantile(0.76), 1024);
        assert_eq!(g.quantile_lower(0.76), 512);
        // The bounds always bracket: lower <= true value < upper.
        let mut r = Histogram::new();
        for v in 1..=1000u64 {
            r.record(v);
        }
        for q in [0.5f64, 0.9, 0.99] {
            let exact = (1000.0 * q).ceil() as u64;
            assert!(r.quantile_lower(q) <= exact, "q={q}");
            assert!(r.quantile(q) > exact, "q={q}");
        }
    }

    #[test]
    fn window_set_merges_and_contains() {
        let mut w = WindowSet::new();
        assert!(w.is_empty());
        w.insert(100, 200);
        w.insert(300, 400);
        assert_eq!(w.len(), 2);
        assert_eq!(w.total(), 200);
        assert!(w.contains(100));
        assert!(w.contains(199));
        assert!(!w.contains(200), "windows are half-open");
        assert!(!w.contains(250));
        assert!(w.contains(399));
        // Bridging insert merges all three.
        w.insert(150, 350);
        assert_eq!(w.len(), 1);
        assert_eq!(w.total(), 300);
        assert!(w.contains(250));
    }

    #[test]
    fn window_set_adjacent_merge() {
        let mut w = WindowSet::new();
        w.insert(0, 10);
        w.insert(10, 20);
        assert_eq!(w.len(), 1);
        assert!(w.contains(10));
        assert!(!w.contains(20));
    }

    #[test]
    #[should_panic(expected = "empty window")]
    fn window_set_rejects_empty() {
        WindowSet::new().insert(5, 5);
    }

    #[test]
    fn sample_log_splits_on_windows() {
        let mut log = SampleLog::new();
        for t in 0..100u64 {
            // Samples inside [40, 60) are 10x larger.
            let v = if (40..60).contains(&t) { 1000 } else { 100 };
            log.record(t, v);
        }
        assert_eq!(log.len(), 100);
        let mut w = WindowSet::new();
        w.insert(40, 60);
        let (inside, outside) = log.split(&w);
        assert_eq!(inside.count(), 20);
        assert_eq!(outside.count(), 80);
        assert!(inside.mean() > outside.mean() * 5.0);
        // Empty window set: everything is outside.
        let (ins, outs) = log.split(&WindowSet::new());
        assert_eq!(ins.count(), 0);
        assert_eq!(outs.count(), 100);
    }

    #[test]
    fn sample_log_borrowing_iteration_matches_split() {
        let mut log = SampleLog::new();
        // Three full chunks and part of a fourth, none grown past its size.
        let n = 3 * SAMPLE_CHUNK as u64 + 50;
        (0..n).for_each(|t| log.record(t, t * 10));
        assert_eq!((log.len() as u64, log.chunks.len()), (n, 4));
        assert!(log.chunks.iter().all(|c| c.capacity() == SAMPLE_CHUNK));
        // The borrowing paths see every sample in record order without
        // cloning into histograms.
        assert!(log.iter().eq((0..n).map(|t| (t, t * 10))));
        let mut w = WindowSet::new();
        w.insert(10, 20);
        let inside_sum: u64 = log
            .iter()
            .filter(|&(t, _)| w.contains(t))
            .map(|(_, v)| v)
            .sum();
        let (inside, _) = log.split(&w);
        assert_eq!(inside.count(), 10);
        assert_eq!(inside_sum, (10..20u64).map(|t| t * 10).sum::<u64>());
        // split(empty windows) == (empty, all): the borrowing path agrees.
        let (ins, outs) = log.split(&WindowSet::new());
        assert_eq!(ins.count(), 0);
        assert_eq!(outs.count() as usize, log.len());
    }

    #[test]
    fn gauge_tracks_level_and_peak() {
        let mut g = Gauge::new();
        assert_eq!(g.current(), 0);
        assert_eq!(g.peak(), 0);
        g.inc();
        g.add(4);
        assert_eq!(g.current(), 5);
        assert_eq!(g.peak(), 5);
        g.dec();
        g.sub(10); // saturates
        assert_eq!(g.current(), 0);
        assert_eq!(g.peak(), 5, "peak survives the drain");
        g.add(2);
        assert_eq!(g.peak(), 5, "lower refill leaves the peak");
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.quantile(0.99), 0);
    }
}
