//! The simulated cluster: OSD nodes, network, metrics, and the consistency
//! oracle shared by every update-method driver.

use simdes::stats::{Gauge, Histogram, SampleLog, TimeSeries};
use simdes::{Sim, SimTime};
use simdisk::{Disk, IoOp};
use simnet::{FlowClass, NetConfig, Network};

use rscode::ReedSolomon;
use tsue::fastmap::FastMap;

use crate::config::ClusterConfig;
use crate::fault::FaultState;
use crate::layout::{BlockAddr, Layout};
use crate::maintenance::MaintState;
use crate::methods::{NodeLogState, UpdateCtx};
use crate::telemetry::{OpClass, Stage, TraceState, UtilKind};

/// A half-open byte interval set with merging — the consistency oracle's
/// bookkeeping unit.
#[derive(Debug, Clone, Default)]
pub struct IntervalSet {
    /// Sorted, disjoint `(start, end)` intervals.
    spans: Vec<(u64, u64)>,
}

impl IntervalSet {
    /// Inserts `[start, end)`, merging overlaps.
    pub fn insert(&mut self, start: u64, end: u64) {
        assert!(start < end, "empty interval");
        let idx = self.spans.partition_point(|&(_, e)| e < start);
        let mut new = (start, end);
        let mut remove_to = idx;
        while remove_to < self.spans.len() && self.spans[remove_to].0 <= new.1 {
            new.0 = new.0.min(self.spans[remove_to].0);
            new.1 = new.1.max(self.spans[remove_to].1);
            remove_to += 1;
        }
        if remove_to == idx {
            self.spans.insert(idx, new);
        } else {
            self.spans[idx] = new;
            self.spans.drain(idx + 1..remove_to);
        }
    }

    /// Whether `[start, end)` is fully covered.
    pub fn covers(&self, start: u64, end: u64) -> bool {
        // The only candidate is the first span whose end reaches `end`;
        // spans are disjoint, so any earlier span ends before `end` and any
        // later span starts after it.
        let idx = self.spans.partition_point(|&(_, e)| e < end);
        self.spans
            .get(idx)
            .is_some_and(|&(s, e)| s <= start && end <= e)
    }

    /// Whether this set covers every interval of `other`.
    pub fn covers_all(&self, other: &IntervalSet) -> bool {
        other.spans.iter().all(|&(s, e)| self.covers(s, e))
    }

    /// Total bytes covered.
    pub fn total(&self) -> u64 {
        self.spans.iter().map(|&(s, e)| e - s).sum()
    }

    /// Number of disjoint spans.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Iterates the disjoint `(start, end)` spans in ascending order —
    /// e.g. the cache layer replaying a staged buffer as coalesced deltas.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.spans.iter().copied()
    }
}

/// Residency timing per log layer (paper Table 2).
#[derive(Debug, Clone, Default)]
pub struct LayerResidency {
    /// Append service time (µs-scale).
    pub append: Histogram,
    /// Time between a unit's first append and its recycle start.
    pub buffer: Histogram,
    /// Recycle processing time.
    pub recycle: Histogram,
}

/// Cluster-wide measurement state.
#[derive(Debug, Clone)]
pub struct Metrics {
    /// Updates acknowledged to clients.
    pub completed_updates: u64,
    /// Fresh writes completed.
    pub completed_writes: u64,
    /// Reads completed.
    pub completed_reads: u64,
    /// Client-observed update latency.
    pub update_latency: Histogram,
    /// Update completions over time (Fig. 6a's series).
    pub completions: TimeSeries,
    /// Appends that hit log back-pressure.
    pub stall_waits: u64,
    /// Exact time of the latest client-visible completion.
    pub last_completion: SimTime,
    /// Reads served from a log read-cache.
    pub cache_read_hits: u64,
    /// Reads checked against a node-local cache decorator
    /// ([`crate::cache`]); 0 unless a cache/staging layer is armed.
    pub cache_lookups: u64,
    /// Reads served from the node-local cache decorator (memory, no disk).
    pub cache_hits: u64,
    /// Update bytes absorbed into write-staging buffers.
    pub staged_bytes: u64,
    /// Staged bytes that overlapped already-staged ranges — downstream
    /// work the coalescing buffer absorbed outright.
    pub coalesced_bytes: u64,
    /// Staged-buffer flush events (size, age, pressure, or drain).
    pub stage_flushes: u64,
    /// Residency per TSUE log layer, indexed by
    /// [`crate::methods::tsue_drv::Layer`].
    pub residency: [LayerResidency; 3],
    /// Reads served by decoding the lost block from `k` survivors.
    pub degraded_reads: u64,
    /// Bytes produced by degraded-read decoding.
    pub degraded_bytes_decoded: u64,
    /// Client ops aborted because their stripe lost more than `m` blocks.
    pub failed_ops: u64,
    /// Timestamped update latencies, attached only when a fault plan is
    /// active (enables degraded-window vs steady-state quantiles).
    pub latency_samples: Option<SampleLog>,
    /// Client-observed read latency (includes degraded decodes).
    pub read_latency: Histogram,
    /// Timestamped read latencies, attached only when a fault plan is
    /// active — the availability-SLO split: read p99 *inside* degraded
    /// windows vs steady state.
    pub read_latency_samples: Option<SampleLog>,
    /// Wall-clock milliseconds the replay engine spent building the
    /// cluster and installing the workload. Nondeterministic (the one
    /// wall-clock field in here); excluded from equality comparisons.
    pub setup_ms: f64,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics {
            completed_updates: 0,
            completed_writes: 0,
            completed_reads: 0,
            update_latency: Histogram::new(),
            completions: TimeSeries::new(simdes::units::SECS),
            stall_waits: 0,
            last_completion: 0,
            cache_read_hits: 0,
            cache_lookups: 0,
            cache_hits: 0,
            staged_bytes: 0,
            coalesced_bytes: 0,
            stage_flushes: 0,
            residency: Default::default(),
            degraded_reads: 0,
            degraded_bytes_decoded: 0,
            failed_ops: 0,
            latency_samples: None,
            read_latency: Histogram::new(),
            read_latency_samples: None,
            setup_ms: 0.0,
        }
    }
}

/// Where an open-loop replay pulls its next offered op from.
///
/// The replay engine consumes ops one at a time (pull-one-ahead), so a
/// synthetic schedule never has to be materialised: the `Lazy` variant
/// wraps a [`workload::ArrivalSource`] iterator whose resident state is
/// O(distinct touched clients), not O(offered ops). Imported traces
/// ([`workload::TimedStream`]) arrive pre-materialised and stream out of
/// the `Stream` variant by cursor.
#[derive(Debug, Clone)]
pub enum OpSource {
    /// A lazy synthetic arrival schedule (generated op by op). Boxed:
    /// the generator (alias tables, RNG streams, per-client cursors) is
    /// an order of magnitude larger than the `Stream` cursor.
    Lazy(Box<workload::ArrivalSource>),
    /// A pre-materialised op list (`Workload::Timed`, e.g. imported traces).
    Stream {
        /// The time-sorted ops.
        ops: Vec<workload::TimedOp>,
        /// Cursor of the next op to offer.
        next: usize,
    },
}

impl OpSource {
    /// Pulls the next offered op, `None` when the schedule is exhausted.
    pub fn next_op(&mut self) -> Option<workload::TimedOp> {
        match self {
            OpSource::Lazy(src) => src.next(),
            OpSource::Stream { ops, next } => {
                let t = ops.get(*next).copied();
                *next += 1;
                t
            }
        }
    }

    /// Resident bytes held by the source itself (generator tables and
    /// per-client cursors for `Lazy`, the whole op vector for `Stream`).
    pub fn state_bytes(&self) -> u64 {
        match self {
            OpSource::Lazy(src) => src.state_bytes(),
            OpSource::Stream { ops, .. } => {
                (ops.capacity() * std::mem::size_of::<workload::TimedOp>()) as u64
            }
        }
    }
}

/// Open-loop window state for one *active* client: a client with at least
/// one op outstanding or admitted. Inactive clients hold no state at all.
#[derive(Debug, Clone, Default)]
pub struct ClientWindow {
    /// Ops currently outstanding (bounded by the window).
    pub outstanding: usize,
    /// Arrival times of admitted-but-not-yet-issued ops.
    pub admission: std::collections::VecDeque<SimTime>,
}

/// Runtime state of an open-loop replay: the bounded per-client
/// outstanding-op windows, the admission queues behind them, and the
/// offered-load accounting the saturation metrics are harvested from.
/// `None` on the (default) closed-loop path.
///
/// State is **sparse**: windows are keyed by client id, materialised on a
/// client's first arrival and retired when its window drains, so resident
/// cost scales with the number of *concurrently active* clients — a
/// million-client population at a fixed offered rate costs the same as a
/// thousand-client one.
#[derive(Debug, Clone)]
pub struct OpenLoopRt {
    /// Maximum ops a client keeps outstanding.
    pub window: usize,
    /// Configured client population (ids are drawn from `0..population`).
    pub population: u64,
    /// Window state of currently active clients, keyed by client id.
    pub active: FastMap<u64, ClientWindow>,
    /// Concurrently active clients (current + peak).
    pub active_clients: Gauge,
    /// Admission-queue delay per op (0 for ops issued on arrival).
    pub queue_delay: Histogram,
    /// Total ops waiting in admission queues (current + peak).
    pub queue_depth: Gauge,
    /// Ops offered so far (accumulated as arrivals are delivered).
    pub offered: u64,
    /// Arrival time of the latest offered op (the offered-rate horizon).
    pub horizon: SimTime,
    /// The remaining arrival schedule.
    pub source: OpSource,
    /// The next op, pulled from the source but not yet delivered (its
    /// delivery event is on the calendar).
    pub pending: Option<workload::TimedOp>,
}

impl OpenLoopRt {
    /// Fresh state over a `population`-client id space, consuming `source`.
    pub fn new(population: u64, window: usize, source: OpSource) -> OpenLoopRt {
        OpenLoopRt {
            window,
            population,
            active: FastMap::default(),
            active_clients: Gauge::new(),
            queue_delay: Histogram::new(),
            queue_depth: Gauge::new(),
            offered: 0,
            horizon: 0,
            source,
            pending: None,
        }
    }
}

/// A parked continuation awaiting log-recycle progress.
pub type Waiter = Box<dyn FnOnce(&mut Sim<Cluster>, &mut Cluster) + Send>;

/// One OSD node: a disk, method-specific log state, and stalled waiters.
pub struct Osd {
    /// Node id.
    pub id: usize,
    /// The device.
    pub disk: Disk,
    /// Method-specific log structures (downcast via
    /// [`dyn NodeLogState::downcast_ref`] in the method's driver).
    pub state: Box<dyn NodeLogState>,
    /// Continuations blocked on log back-pressure.
    pub waiters: Vec<Waiter>,
    /// Whether the node is failed (recovery experiments).
    pub failed: bool,
    /// Append cursor within the device's log region (top quarter).
    pub log_cursor: u64,
    /// The node's recycle thread pool (per-record CPU during recycling).
    pub recycle_cpu: simdes::Resource,
}

/// The consistency oracle: acked vs applied coverage.
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    /// Per data block: byte ranges acknowledged to clients.
    pub acked: FastMap<BlockAddr, IntervalSet>,
    /// Per data block: byte ranges folded into the block on disk.
    pub applied_data: FastMap<BlockAddr, IntervalSet>,
    /// Per parity block: byte ranges whose parity effect has been applied.
    pub applied_parity: FastMap<BlockAddr, IntervalSet>,
}

impl Oracle {
    /// Verifies that every acked range is applied to its data block and to
    /// all `m` parity blocks of its stripe. Returns the list of violations.
    pub fn violations(&self, layout: &Layout) -> Vec<String> {
        let mut out = Vec::new();
        for (addr, acked) in &self.acked {
            match self.applied_data.get(addr) {
                Some(applied) if applied.covers_all(acked) => {}
                _ => out.push(format!("data block {addr:?} missing applied ranges")),
            }
            for p in layout.parity_addrs(addr.volume, addr.stripe) {
                match self.applied_parity.get(&p) {
                    Some(applied) if applied.covers_all(acked) => {}
                    _ => out.push(format!(
                        "parity block {p:?} missing effect of updates to {addr:?}"
                    )),
                }
            }
        }
        out
    }
}

/// The DES world: everything the event handlers touch.
pub struct Cluster {
    /// Configuration.
    pub cfg: ClusterConfig,
    /// The codec (coefficients for delta math; sizes only here).
    pub rs: ReedSolomon,
    /// Placement and allocation.
    pub layout: Layout,
    /// The network fabric.
    pub net: Network,
    /// The OSD nodes.
    pub nodes: Vec<Osd>,
    /// Measurements.
    pub metrics: Metrics,
    /// Consistency oracle.
    pub oracle: Oracle,
    /// Client driver installed by the replay engine: called to issue the
    /// client's next op after a completion.
    pub client_driver: Option<fn(&mut Sim<Cluster>, &mut Cluster, u64)>,
    /// Per-client op queues installed by the replay engine, keyed by
    /// client id. Sparse: an entry exists only while the client has queued
    /// op content, and is removed when drained — at million-client scale
    /// the map never grows past the concurrently active set.
    pub client_ops: FastMap<u64, std::collections::VecDeque<(u64, u32, traces::OpKind)>>,
    /// Scheduled-but-not-yet-executed log-forwarding events (drain guard).
    pub forwards_in_flight: u64,
    /// Open-loop runtime state (window, admission queues, offered-load
    /// accounting); `None` on the closed-loop path.
    pub open_loop: Option<OpenLoopRt>,
    /// Fault-timeline state: injected failures, the repair queue, and
    /// availability counters.
    pub faults: FaultState,
    /// Background-maintenance state: armed policies, busy windows, and
    /// hygiene counters.
    pub maint: MaintState,
    /// Deterministic tracing state (disarmed by default — every hook is a
    /// single-branch no-op, keeping untraced replays byte-for-byte on
    /// their goldens).
    pub trace: TraceState,
}

impl Cluster {
    /// Builds the cluster.
    ///
    /// # Panics
    /// Panics on invalid configuration.
    pub fn new(cfg: ClusterConfig) -> Cluster {
        cfg.validate().expect("invalid cluster config");
        let rs = ReedSolomon::new(cfg.code);
        let parity_extra = cfg.method.parity_reserved_bytes();
        let layout = Layout::with_placement(
            cfg.code,
            cfg.block_bytes,
            parity_extra,
            std::sync::Arc::clone(&cfg.placement),
            cfg.rack_map(),
        );
        let net = Network::new(NetConfig {
            endpoints: cfg.endpoints(),
            bandwidth: cfg.net_bandwidth,
            rpc_overhead: cfg.net_rpc_overhead,
            topology: cfg.topology(),
        });
        let nodes = (0..cfg.nodes)
            .map(|id| Osd {
                id,
                // One device *per node* from the fleet: on a tiered or
                // explicit fleet, node `id`'s own model — so every booking
                // (foreground, recycle, repair) runs at that disk's rate.
                disk: cfg.fleet.build_disk(id),
                state: cfg.method.new_node_state(&cfg),
                waiters: Vec::new(),
                failed: false,
                log_cursor: 0,
                recycle_cpu: simdes::Resource::new(2),
            })
            .collect();
        Cluster {
            rs,
            layout,
            net,
            nodes,
            metrics: Metrics::default(),
            oracle: Oracle::default(),
            client_driver: None,
            client_ops: FastMap::default(),
            forwards_in_flight: 0,
            open_loop: None,
            faults: FaultState::default(),
            maint: MaintState::default(),
            trace: TraceState::new(),
            cfg,
        }
    }

    /// Allocates `len` bytes in `node`'s log region (the top quarter of the
    /// device), wrapping when exhausted — log space is recycled, so reuse
    /// (and the overwrite accounting it triggers) is intentional.
    pub fn log_offset(&mut self, node: usize, len: u64) -> u64 {
        let cap = self.nodes[node].disk.capacity();
        let base = cap / 4 * 3;
        let osd = &mut self.nodes[node];
        if osd.log_cursor < base || osd.log_cursor + len > cap {
            osd.log_cursor = base;
        }
        let off = osd.log_cursor;
        osd.log_cursor += len;
        off
    }

    /// Books a disk op on `node`, returning its completion time.
    pub fn disk_io(&mut self, node: usize, now: SimTime, op: IoOp) -> SimTime {
        let done = self.nodes[node].disk.submit(now, op);
        if self.trace.enabled() {
            let busy = self.nodes[node].disk.busy_time();
            self.trace
                .book_total(UtilKind::Disk, node as u32, now, busy);
        }
        done
    }

    /// Samples the fabric's cumulative busy counters into the trace's
    /// utilization lanes (no-op unless tracing is armed).
    fn trace_net(&mut self, now: SimTime, src: usize) {
        if !self.trace.enabled() {
            return;
        }
        self.trace
            .book_total(UtilKind::NetTx, src as u32, now, self.net.egress_busy(src));
        let rack = self.net.topology().rack_of(src);
        self.trace.book_total(
            UtilKind::Spine,
            rack as u32,
            now,
            self.net.uplink_busy(rack),
        );
    }

    /// Sends `bytes` between endpoints, returning the delivery time.
    pub fn send(&mut self, now: SimTime, src: usize, dst: usize, bytes: u64) -> SimTime {
        let t = self.net.send(now, src, dst, bytes);
        self.trace_net(now, src);
        t
    }

    /// Sends rebuild `bytes` between endpoints: reserves the same fabric
    /// resources as [`Self::send`] but is accounted as repair traffic.
    pub fn send_repair(&mut self, now: SimTime, src: usize, dst: usize, bytes: u64) -> SimTime {
        let t = self
            .net
            .send_classed(now, src, dst, bytes, FlowClass::Repair);
        if self.trace.enabled() {
            self.trace_net(now, src);
            // The repair pump's lane: cumulative repair bytes converted to
            // line time (a monotone busy counter for the rebuild traffic).
            let busy = self.net.wire_time(self.net.traffic().repair_bytes());
            self.trace.book_total(UtilKind::Repair, 0, now, busy);
        }
        t
    }

    /// Small control message (ack) between endpoints.
    pub fn ack(&mut self, now: SimTime, src: usize, dst: usize) -> SimTime {
        let t = self.net.rpc(now, src, dst);
        self.trace_net(now, src);
        t
    }

    /// Reports a finished op's critical-path stage decomposition to the
    /// tracing layer (no-op unless tracing is armed). Drivers call this
    /// immediately before the matching `finish_update`/`finish_other`:
    /// `marks` are `(stage, end_time)` boundaries in timeline order whose
    /// last entry is the ack time, so the resulting spans partition
    /// `[issued_at, ack]` and sum to the client-observed latency exactly.
    pub fn trace_op(&mut self, ctx: &UpdateCtx, class: OpClass, marks: &[(Stage, SimTime)]) {
        if !self.trace.enabled() {
            return;
        }
        if ctx.background {
            // A staged-flush replay through the wrapped method: attribute
            // the whole span as background stage-flush work on the data
            // node's lane instead of a client lifecycle op, so the Update
            // rollup keeps reconciling against client latency exactly.
            if let Some(&(_, end)) = marks.last() {
                let node = self.layout.current_node(ctx.slice.addr);
                self.trace.child(Stage::StageFlush, node, ctx.start_at, end);
            }
            return;
        }
        self.trace
            .record_op(ctx.client, class, ctx.issued_at, ctx.start_at, marks);
    }

    /// Records a background child span (recycle, repair, maintenance) on
    /// `node`'s lane (no-op unless tracing is armed).
    pub fn trace_child(&mut self, stage: Stage, node: usize, start: SimTime, end: SimTime) {
        self.trace.child(stage, node, start, end);
    }

    /// Schedules the op's client to issue its next op at `done_at`, if
    /// this op is the one driving the closed loop (`ctx.drive`).
    ///
    /// Uses the scheduler's unboxed function-pointer path: one of these is
    /// scheduled per completed op, so the saved `Box` is a measurable slice
    /// of per-event overhead.
    fn drive_client(&mut self, sim: &mut Sim<Cluster>, ctx: UpdateCtx, done_at: SimTime) {
        if !ctx.drive {
            return;
        }
        if self.client_driver.is_some() {
            fn call_driver(sim: &mut Sim<Cluster>, cl: &mut Cluster, client: u64) {
                if let Some(driver) = cl.client_driver {
                    driver(sim, cl, client);
                }
            }
            sim.schedule_call_u_at(done_at.max(sim.now()), call_driver, ctx.client);
        }
    }

    /// Records an update completion and drives the client's next op.
    /// Background ops (staged flushes) book their I/O like any other but
    /// are invisible here: no counters, no latency, no closed-loop drive.
    pub fn finish_update(&mut self, sim: &mut Sim<Cluster>, ctx: UpdateCtx, done_at: SimTime) {
        if ctx.background {
            return;
        }
        self.metrics.completed_updates += 1;
        let latency = done_at.saturating_sub(ctx.issued_at);
        self.metrics.update_latency.record(latency);
        if let Some(log) = &mut self.metrics.latency_samples {
            log.record(done_at, latency);
        }
        self.metrics.completions.record(done_at, 1);
        // Attach the metrics-path latency to the op the driver just
        // traced: the determinism tests pin `sum(stage spans) == latency`
        // as two independently derived numbers.
        self.trace.close_op(latency);
        self.metrics.last_completion = self.metrics.last_completion.max(done_at);
        self.drive_client(sim, ctx, done_at);
    }

    /// Records a non-update completion and drives the client's next op.
    pub fn finish_other(
        &mut self,
        sim: &mut Sim<Cluster>,
        ctx: UpdateCtx,
        is_read: bool,
        done_at: SimTime,
    ) {
        if ctx.background {
            return;
        }
        if is_read {
            self.metrics.completed_reads += 1;
            let latency = done_at.saturating_sub(ctx.issued_at);
            self.metrics.read_latency.record(latency);
            if let Some(log) = &mut self.metrics.read_latency_samples {
                log.record(done_at, latency);
            }
        } else {
            self.metrics.completed_writes += 1;
        }
        self.trace.close_op(done_at.saturating_sub(ctx.issued_at));
        self.metrics.last_completion = self.metrics.last_completion.max(done_at);
        self.drive_client(sim, ctx, done_at);
    }

    /// Records an op aborted by data loss (its stripe fell below `k`
    /// survivors — an EIO to the client) and drives the client's next op:
    /// availability failures must not wedge the closed loop.
    ///
    /// `kind` re-credits the completion counter for background slices:
    /// the replay's issue path pre-decrements it expecting a completion
    /// that a failed op never delivers.
    pub fn finish_failed(
        &mut self,
        sim: &mut Sim<Cluster>,
        ctx: UpdateCtx,
        kind: traces::OpKind,
        done_at: SimTime,
    ) {
        self.metrics.failed_ops += 1;
        if ctx.background {
            return;
        }
        if !ctx.drive {
            let counter = match kind {
                traces::OpKind::Update => &mut self.metrics.completed_updates,
                traces::OpKind::Write => &mut self.metrics.completed_writes,
                traces::OpKind::Read => &mut self.metrics.completed_reads,
            };
            *counter = counter.wrapping_add(1);
        }
        self.metrics.last_completion = self.metrics.last_completion.max(done_at);
        self.drive_client(sim, ctx, done_at);
    }

    /// Picks a live node to host a rebuilt or degraded-placed block,
    /// scanning from `after + 1` with a rotating salt so consecutive
    /// rebuilds spread over the cluster instead of piling onto one
    /// neighbour.
    ///
    /// # Panics
    /// Panics if every node is failed.
    pub fn next_live_target(&mut self, after: usize) -> usize {
        let n = self.cfg.nodes;
        let salt = (self.faults.rebuild_seq as usize) % n;
        self.faults.rebuild_seq += 1;
        let mut t = (after + 1 + salt) % n;
        let mut guard = 0;
        while self.nodes[t].failed {
            t = (t + 1) % n;
            guard += 1;
            assert!(guard <= n, "no live node to host a rebuilt block");
        }
        t
    }

    /// Parks a continuation on `node` until its logs make progress.
    pub fn park_on(&mut self, node: usize, cont: Waiter) {
        self.metrics.stall_waits += 1;
        self.nodes[node].waiters.push(cont);
    }

    /// Wakes all parked continuations on `node`. The stored boxes are
    /// scheduled directly — no wrapper closure, no second allocation.
    pub fn wake_waiters(&mut self, sim: &mut Sim<Cluster>, node: usize) {
        for cont in self.nodes[node].waiters.drain(..) {
            sim.schedule_boxed(0, cont);
        }
    }

    /// Aggregated device statistics over all nodes.
    pub fn disk_stats(&self) -> simdisk::DeviceStats {
        let mut agg = simdisk::DeviceStats::default();
        for n in &self.nodes {
            agg.merge(n.disk.stats());
        }
        agg
    }

    /// Total erase operations across the cluster (SSD lifespan currency).
    pub fn total_erases(&self) -> u64 {
        self.nodes.iter().map(|n| n.disk.stats().erases).sum()
    }

    /// Oracle helpers: record an ack on a data-block range.
    pub fn oracle_ack(&mut self, addr: BlockAddr, offset: u32, len: u32) {
        self.oracle
            .acked
            .entry(addr)
            .or_default()
            .insert(offset as u64, offset as u64 + len as u64);
    }

    /// Oracle helpers: record data applied in place.
    pub fn oracle_apply_data(&mut self, addr: BlockAddr, offset: u32, len: u32) {
        self.oracle
            .applied_data
            .entry(addr)
            .or_default()
            .insert(offset as u64, offset as u64 + len as u64);
    }

    /// Oracle helpers: record parity effect applied for a stripe range.
    pub fn oracle_apply_parity(&mut self, addr: BlockAddr, offset: u32, len: u32) {
        self.oracle
            .applied_parity
            .entry(addr)
            .or_default()
            .insert(offset as u64, offset as u64 + len as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_set_merges() {
        let mut s = IntervalSet::default();
        s.insert(0, 10);
        s.insert(20, 30);
        assert_eq!(s.span_count(), 2);
        assert_eq!(s.total(), 20);
        s.insert(5, 25); // bridges
        assert_eq!(s.span_count(), 1);
        assert_eq!(s.total(), 30);
        assert!(s.covers(0, 30));
        assert!(!s.covers(0, 31));
    }

    #[test]
    fn interval_set_adjacent_merge() {
        let mut s = IntervalSet::default();
        s.insert(0, 10);
        s.insert(10, 20);
        assert_eq!(s.span_count(), 1);
        assert!(s.covers(0, 20));
    }

    #[test]
    fn interval_covers_exact_span_match() {
        let mut s = IntervalSet::default();
        s.insert(10, 20);
        s.insert(40, 50);
        // Exact span boundaries are covered, one byte beyond is not.
        assert!(s.covers(10, 20));
        assert!(s.covers(40, 50));
        assert!(s.covers(11, 19));
        assert!(!s.covers(9, 20));
        assert!(!s.covers(10, 21));
        assert!(!s.covers(39, 50));
    }

    #[test]
    fn interval_covers_gap_straddle() {
        let mut s = IntervalSet::default();
        s.insert(0, 10);
        s.insert(20, 30);
        // A query straddling the uncovered gap must fail even though both
        // endpoints individually lie inside spans.
        assert!(!s.covers(5, 25));
        assert!(!s.covers(9, 21));
        assert!(!s.covers(0, 30));
        // The gap itself is uncovered.
        assert!(!s.covers(10, 20));
        assert!(!s.covers(12, 18));
    }

    #[test]
    fn interval_covers_merged_neighbors() {
        let mut s = IntervalSet::default();
        s.insert(0, 10);
        s.insert(10, 20);
        s.insert(20, 30);
        // Adjacent inserts merge; queries across the former seams succeed.
        assert_eq!(s.span_count(), 1);
        assert!(s.covers(5, 25));
        assert!(s.covers(0, 30));
        assert!(s.covers(9, 11));
        assert!(!s.covers(0, 31));
    }

    #[test]
    fn interval_covers_empty_set() {
        let s = IntervalSet::default();
        assert!(!s.covers(0, 1));
    }

    #[test]
    fn interval_covers_all() {
        let mut a = IntervalSet::default();
        a.insert(0, 100);
        let mut b = IntervalSet::default();
        b.insert(10, 20);
        b.insert(50, 60);
        assert!(a.covers_all(&b));
        assert!(!b.covers_all(&a));
    }

    #[test]
    fn interval_set_many_random() {
        let mut s = IntervalSet::default();
        let mut x = 7u64;
        let mut naive = vec![false; 10_000];
        for _ in 0..2000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            let start = (x >> 20) % 9_000;
            let len = (x >> 50) % 100 + 1;
            s.insert(start, start + len);
            for i in start..start + len {
                naive[i as usize] = true;
            }
        }
        let total: u64 = naive.iter().filter(|&&b| b).count() as u64;
        assert_eq!(s.total(), total);
        for w in s.spans.windows(2) {
            assert!(w[0].1 < w[1].0, "overlapping spans");
        }
    }
}
