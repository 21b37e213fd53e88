//! The simulated cluster: OSD nodes, network, metrics, and the consistency
//! oracle shared by every update-method driver.
//!
//! Drivers book I/O through its crate-private verbs (`rmw`, `log_append`,
//! `fold`, `move_block`, `rehome`; see [`crate::methods`]) and end each
//! slice in `finish` with its trace marks, whose last mark is its ack.

use simdes::stats::{Histogram, SampleLog, TimeSeries};
use simdes::{Sim, SimTime};
use simdisk::{Disk, IoOp, Pattern};
use simnet::{FlowClass, NetConfig, Network};

use traces::OpKind;
use tsue::fastmap::FastMap;

use crate::cache::PageCache;
use crate::config::ClusterConfig;
use crate::fault::FaultState;
use crate::layout::{BlockAddr, Layout};
use crate::maintenance::MaintState;
use crate::methods::{NodeState, OwnState, UpdateCtx};
use crate::replay::{self, ClientLoop};
use crate::telemetry::{OpClass, Stage, TraceState, UtilKind};

/// The consistency oracle's bookkeeping unit: a merging set of half-open
/// byte intervals.
pub use simdes::stats::IntervalSet;

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
    /// Client updates acknowledged. This, the other completion and
    /// failure counters, the latency histograms and samples and the
    /// completion series count a client op once, at its last slice.
    pub completed_updates: u64,
    /// Client fresh writes completed.
    pub completed_writes: u64,
    /// Client reads completed.
    pub completed_reads: u64,
    /// Client-observed update latency.
    pub update_latency: Histogram,
    /// Update completions over time (Fig. 6a's series).
    pub completions: TimeSeries,
    /// Parks on log back-pressure (a slice that parks twice counts twice).
    pub stall_waits: u64,
    /// Exact time of the latest client-visible completion.
    pub last_completion: SimTime,
    /// Reads served from a log read-cache.
    pub cache_read_hits: u64,
    /// Reads checked against the node-local read cache
    /// ([`crate::cache`]); 0 unless a read cache is armed.
    pub cache_lookups: u64,
    /// Reads served from the node-local read cache (memory, no disk).
    pub cache_hits: u64,
    /// Residency per TSUE log layer, indexed by
    /// [`tsue::layers::Layer`].
    pub residency: [LayerResidency; 3],
    /// Reads served by decoding the lost block from `k` survivors.
    pub degraded_reads: u64,
    /// Bytes produced by degraded-read decoding.
    pub degraded_bytes_decoded: u64,
    /// Client ops aborted because the stripe of one of their slices lost
    /// more than `m` blocks.
    pub failed_ops: u64,
    /// Timestamped update latencies, attached only when a fault or
    /// maintenance plan is armed (splits the p99 by window).
    pub latency_samples: Option<SampleLog>,
    /// Client-observed read latency (includes degraded decodes).
    pub read_latency: Histogram,
    /// Timestamped read latencies, attached like [`Self::latency_samples`]
    /// — the availability-SLO split: read p99 *inside* degraded windows vs
    /// steady state.
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

/// One OSD node: a disk, method-specific log state, the read cache, and
/// parked slices.
pub struct Osd {
    /// Node id.
    pub id: usize,
    /// The device.
    pub disk: Disk,
    /// Method-specific log structures; a driver reaches its own variant
    /// through `Cluster::state_mut`.
    pub state: NodeState,
    /// The node-local LRU read cache ([`crate::cache`]), armed by
    /// [`ClusterConfig::read_cache_bytes`].
    pub cache: Option<PageCache>,
    /// Slices parked on log back-pressure.
    pub waiters: Vec<UpdateCtx>,
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

/// The join of an in-flight op that spans blocks, which the replay issues
/// as one slice per block.
#[derive(Debug, Clone, Copy, Default)]
struct OpJoin {
    /// Slices not yet finished.
    outstanding: u32,
    /// Whether a finished slice failed.
    failed: bool,
    /// The latest `done_at` of the finished slices: drivers finish a slice
    /// with a future ack time, so the last caller's need not be the latest.
    done_at: SimTime,
}

/// The joins of the in-flight ops that span blocks, in reusable slots that
/// [`UpdateCtx`]'s `join` names: bounded by the ops outstanding, so a
/// steady run allocates none. A one-slice op needs no join.
#[derive(Debug, Default)]
pub(crate) struct OpJoins {
    slots: Vec<OpJoin>,
    free: Vec<u32>,
}

impl OpJoins {
    /// Opens the join of an op of `slices` slices.
    pub(crate) fn open(&mut self, slices: u32) -> u32 {
        let join = OpJoin {
            outstanding: slices,
            ..OpJoin::default()
        };
        let Some(id) = self.free.pop() else {
            self.slots.push(join);
            return self.slots.len() as u32 - 1;
        };
        self.slots[id as usize] = join;
        id
    }

    /// Folds a finished slice into join `id`. At the op's last slice, frees
    /// the slot and returns the latest `done_at` and whether any slice
    /// failed.
    fn slice_done(&mut self, id: u32, done_at: SimTime, failed: bool) -> Option<(SimTime, bool)> {
        let join = &mut self.slots[id as usize];
        join.outstanding -= 1;
        join.failed |= failed;
        join.done_at = join.done_at.max(done_at);
        if join.outstanding > 0 {
            return None;
        }
        self.free.push(id);
        Some((join.done_at, join.failed))
    }
}

/// The DES world: everything the event handlers touch.
pub struct Cluster {
    /// Configuration.
    pub cfg: ClusterConfig,
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
    /// The clients the replay engine installed (closed or open loop);
    /// `None` on a cluster driven op by op, where completions issue
    /// nothing.
    pub(crate) clients: Option<ClientLoop>,
    /// The joins of the in-flight ops that span blocks.
    pub(crate) joins: OpJoins,
    /// Scheduled-but-not-yet-executed log-forwarding events (drain guard).
    pub forwards_in_flight: u64,
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
        let parity_extra = cfg.method.parity_reserved_bytes();
        let layout = Layout::new(
            cfg.code,
            cfg.block_bytes,
            parity_extra,
            cfg.placement,
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
                cache: cfg.read_cache_bytes.map(PageCache::new),
                waiters: Vec::new(),
                failed: false,
                log_cursor: 0,
                recycle_cpu: simdes::Resource::new(2),
            })
            .collect();
        Cluster {
            layout,
            net,
            nodes,
            metrics: Metrics::default(),
            oracle: Oracle::default(),
            clients: None,
            joins: OpJoins::default(),
            forwards_in_flight: 0,
            faults: FaultState::default(),
            maint: MaintState::default(),
            trace: TraceState::new(),
            cfg,
        }
    }

    /// `node`'s log state as the driver's own variant `T`.
    ///
    /// # Panics
    /// Panics if the node holds another method's state: a driver reached
    /// for a state its method did not build.
    pub(crate) fn state_mut<T: OwnState>(&mut self, node: usize) -> &mut T {
        match T::of(&mut self.nodes[node].state) {
            Some(state) => state,
            None => panic!(
                "node {node} holds {} log state, not {}",
                self.cfg.method.name(),
                std::any::type_name::<T>()
            ),
        }
    }

    /// Allocates `len` bytes in `node`'s log region (the top quarter of the
    /// device), wrapping when exhausted — log space is recycled, so reuse
    /// (and the overwrite accounting it triggers) is intentional.
    pub(crate) fn log_offset(&mut self, node: usize, len: u64) -> u64 {
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
    pub(crate) fn disk_io(&mut self, node: usize, now: SimTime, op: IoOp) -> SimTime {
        let done = self.nodes[node].disk.submit(now, op);
        if self.trace.enabled() {
            let busy = self.nodes[node].disk.busy_time();
            self.trace
                .book_total(UtilKind::Disk, node as u32, now, busy);
        }
        done
    }

    /// Books a read-modify-write of `len` bytes at `dev_off` on `node` from
    /// `t`: a random read, then the random write that depends on it.
    /// Returns the write's completion.
    pub(crate) fn rmw(&mut self, node: usize, t: SimTime, dev_off: u64, len: u64) -> SimTime {
        let t_read = self.disk_io(node, t, IoOp::read(dev_off, len, Pattern::Random));
        self.disk_io(node, t_read, IoOp::write(dev_off, len, Pattern::Random))
    }

    /// Appends `len` bytes to `node`'s log region from `t`: one sequential
    /// write at [`Self::log_offset`]. Returns its completion.
    pub(crate) fn log_append(&mut self, node: usize, t: SimTime, len: u64) -> SimTime {
        let off = self.log_offset(node, len);
        self.disk_io(node, t, IoOp::write(off, len, Pattern::Sequential))
    }

    /// Folds `[off, off + len)` of `addr`, logged on `from`, into the block
    /// from `t`: at the block's current home, which a rebuild may have moved
    /// off `from` (the range then crosses the network first), one
    /// [`Self::rmw`], then the oracle's data or parity apply. Returns the
    /// write's completion.
    pub(crate) fn fold(
        &mut self,
        from: usize,
        t: SimTime,
        addr: BlockAddr,
        off: u32,
        len: u32,
    ) -> SimTime {
        let (home, dev) = self.layout.locate(addr);
        let bytes = u64::from(len);
        let t_at = if home == from {
            t
        } else {
            self.send(t, from, home, bytes)
        };
        let done = self.rmw(home, t_at, dev + u64::from(off), bytes);
        if addr.is_data(self.cfg.code) {
            self.oracle_apply_data(addr, off, len);
        } else {
            self.oracle_apply_parity(addr, off, len);
        }
        done
    }

    /// Moves `addr`, held on `from` at `dev_off`, to `target` from `t`: a
    /// sequential read of its [`Layout::span`], a repair-class transfer,
    /// then [`Self::rehome`]. Returns when the copy lands.
    pub(crate) fn move_block(
        &mut self,
        t: SimTime,
        addr: BlockAddr,
        from: usize,
        dev_off: u64,
        target: usize,
    ) -> SimTime {
        let span = self.layout.span(addr);
        let t_read = self.disk_io(from, t, IoOp::read(dev_off, span, Pattern::Sequential));
        let t_net = self.send_repair(t_read, from, target, span);
        self.rehome(t_net, addr, target, span)
    }

    /// Writes `len` bytes of `addr` into `target`'s log region from `t`,
    /// allocating the block's whole [`Layout::span`] there, and re-homes
    /// the block to it. Returns the write's completion.
    pub(crate) fn rehome(
        &mut self,
        t: SimTime,
        addr: BlockAddr,
        target: usize,
        len: u64,
    ) -> SimTime {
        let off = self.log_offset(target, self.layout.span(addr));
        let done = self.disk_io(target, t, IoOp::write(off, len, Pattern::Sequential));
        self.layout.relocate(addr, target, off);
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
    pub(crate) fn send_repair(
        &mut self,
        now: SimTime,
        src: usize,
        dst: usize,
        bytes: u64,
    ) -> SimTime {
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
    pub(crate) fn ack(&mut self, now: SimTime, src: usize, dst: usize) -> SimTime {
        let t = self.net.rpc(now, src, dst);
        self.trace_net(now, src);
        t
    }

    /// Records a background child span (recycle, repair, maintenance) on
    /// `node`'s lane (no-op unless tracing is armed).
    pub(crate) fn trace_child(&mut self, stage: Stage, node: usize, start: SimTime, end: SimTime) {
        self.trace.child(stage, node, start, end);
    }

    /// Records a slice's ack at the last of its `marks` (an update's range
    /// in the oracle); its op completes once, at its last slice's finish.
    /// `marks` are the slice's critical-path `(stage, end_time)` boundaries
    /// in timeline order, reported to the tracing layer under its op's
    /// kind, so the stage spans partition `[issued_at, ack]`. Tracing is
    /// per slice: the traced slice closes with its own latency, so
    /// `sum(stage spans) == latency` holds for every trace record.
    ///
    /// # Panics
    /// Panics if `marks` is empty.
    pub(crate) fn finish(
        &mut self,
        sim: &mut Sim<Cluster>,
        ctx: UpdateCtx,
        marks: &[(Stage, SimTime)],
    ) {
        let &(_, done_at) = marks.last().expect("a finished slice has an ack mark");
        let class = match ctx.kind {
            OpKind::Update => OpClass::Update,
            OpKind::Read => OpClass::Read,
            OpKind::Write => OpClass::Write,
        };
        self.trace
            .record_op(ctx.client, class, ctx.issued_at, ctx.start_at, marks);
        if ctx.kind == OpKind::Update {
            self.oracle_ack(ctx.slice.addr, ctx.slice.offset, ctx.slice.len);
        }
        self.trace.close_op(done_at.saturating_sub(ctx.issued_at));
        self.complete(sim, ctx, done_at, false);
    }

    /// Records a slice aborted by data loss (its stripe fell below `k`
    /// survivors — an EIO to the client): its op fails, once, at its last
    /// slice.
    pub(crate) fn finish_failed(
        &mut self,
        sim: &mut Sim<Cluster>,
        ctx: UpdateCtx,
        done_at: SimTime,
    ) {
        self.complete(sim, ctx, done_at, true);
    }

    /// The one completion path. A slice of an op that spans blocks folds
    /// into the op's join; the op's last slice (a one-slice op's only one)
    /// finishes it once, at the latest `done_at` of its slices: latency,
    /// sample, series point and completed count, or the failed count if a
    /// slice failed, then the client's next step ([`replay::client_done`],
    /// when the replay installed clients).
    fn complete(&mut self, sim: &mut Sim<Cluster>, ctx: UpdateCtx, done_at: SimTime, failed: bool) {
        let (done_at, failed) = match ctx.join {
            None => (done_at, failed),
            Some(id) => match self.joins.slice_done(id, done_at, failed) {
                Some(op) => op,
                None => return,
            },
        };
        let m = &mut self.metrics;
        m.last_completion = m.last_completion.max(done_at);
        let latency = done_at.saturating_sub(ctx.issued_at);
        match ctx.kind {
            _ if failed => m.failed_ops += 1,
            OpKind::Update => {
                m.completed_updates += 1;
                m.update_latency.record(latency);
                if let Some(log) = &mut m.latency_samples {
                    log.record(done_at, latency);
                }
                m.completions.record(done_at, 1);
            }
            OpKind::Read => {
                m.completed_reads += 1;
                m.read_latency.record(latency);
                if let Some(log) = &mut m.read_latency_samples {
                    log.record(done_at, latency);
                }
            }
            OpKind::Write => m.completed_writes += 1,
        }
        // The scheduler's unboxed function-pointer path: one of these is
        // scheduled per completed op, so the saved `Box` is a measurable
        // slice of per-event overhead.
        if self.clients.is_some() {
            sim.schedule_call_u_at(done_at.max(sim.now()), replay::client_done, ctx.client);
        }
    }

    /// Picks a live node to host a rebuilt or degraded-placed block,
    /// scanning from `after + 1` with a rotating salt so consecutive
    /// rebuilds spread over the cluster instead of piling onto one
    /// neighbour.
    ///
    /// # Panics
    /// Panics if every node is failed.
    pub(crate) fn next_live_target(&mut self, after: usize) -> usize {
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

    /// Parks a slice on `node` until its logs make progress.
    pub(crate) fn park_on(&mut self, node: usize, ctx: UpdateCtx) {
        self.metrics.stall_waits += 1;
        self.nodes[node].waiters.push(ctx);
    }

    /// Wakes the slices parked on `node`: each re-enters its dispatch
    /// ([`crate::methods::begin`]) and finishes later.
    pub(crate) fn wake_waiters(&mut self, sim: &mut Sim<Cluster>, node: usize) {
        for ctx in self.nodes[node].waiters.drain(..) {
            sim.schedule(0, move |sim, cl: &mut Cluster| {
                crate::methods::begin(sim, cl, ctx)
            });
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

    /// Oracle helpers: record an ack on a data-block range.
    pub fn oracle_ack(&mut self, addr: BlockAddr, offset: u32, len: u32) {
        cover(&mut self.oracle.acked, addr, offset, len);
    }

    /// Oracle helpers: record data applied in place.
    pub(crate) fn oracle_apply_data(&mut self, addr: BlockAddr, offset: u32, len: u32) {
        cover(&mut self.oracle.applied_data, addr, offset, len);
    }

    /// Oracle helpers: record parity effect applied for a stripe range.
    pub(crate) fn oracle_apply_parity(&mut self, addr: BlockAddr, offset: u32, len: u32) {
        cover(&mut self.oracle.applied_parity, addr, offset, len);
    }
}

/// Adds `[offset, offset + len)` of `addr` to one of the oracle's maps.
fn cover(map: &mut FastMap<BlockAddr, IntervalSet>, addr: BlockAddr, offset: u32, len: u32) {
    let start = u64::from(offset);
    map.entry(addr)
        .or_default()
        .insert(start, start + u64::from(len));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_set_merges() {
        let mut s = IntervalSet::default();
        s.insert(0, 10);
        s.insert(20, 30);
        assert_eq!(s.len(), 2);
        assert_eq!(s.total(), 20);
        s.insert(5, 25); // bridges
        assert_eq!(s.len(), 1);
        assert_eq!(s.total(), 30);
        assert!(s.covers(0, 30));
        assert!(!s.covers(0, 31));
    }

    #[test]
    fn interval_set_adjacent_merge() {
        let mut s = IntervalSet::default();
        s.insert(0, 10);
        s.insert(10, 20);
        assert_eq!(s.len(), 1);
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
        assert_eq!(s.len(), 1);
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

    /// A driver that reaches for another method's state panics, naming
    /// both, instead of silently dropping its work.
    #[test]
    #[should_panic(expected = "node 0 holds FO log state, not ecfs::methods::tsue_drv::TsueState")]
    fn state_mut_panics_on_a_foreign_state_type() {
        use crate::methods::tsue_drv::TsueState;
        use crate::methods::Method;
        let code = rscode::CodeParams::new(6, 3).unwrap();
        let mut cl = Cluster::new(ClusterConfig::ssd_testbed(code, Method::Fo));
        cl.state_mut::<TsueState>(0);
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
        // Exact coverage, byte by byte; with `total` equal, no span
        // overlaps another or reaches past the covered bytes.
        for i in 0..10_000u64 {
            assert_eq!(s.contains(i), naive[i as usize], "byte {i}");
        }
        // Disjoint, merged spans: one per maximal run of covered bytes.
        let runs = naive.windows(2).filter(|w| w[1] && !w[0]).count() + usize::from(naive[0]);
        assert_eq!(s.len(), runs, "overlapping or unmerged spans");
    }

    /// The booking verbs' contract: `rmw` is one random read and one
    /// write, `log_append` advances the log cursor, and `fold` books its
    /// read-modify-write at the block's home, shipping the range there
    /// first only once the block was re-homed off the folding node.
    #[test]
    fn fold_ships_only_to_a_rehomed_block() {
        use crate::methods::Method;
        let code = rscode::CodeParams::new(6, 3).unwrap();
        let mut cl = Cluster::new(ClusterConfig::ssd_testbed(code, Method::Pl));
        // (reads, random reads, writes) booked on `node`.
        let ops = |cl: &Cluster, node: usize| {
            let s = cl.nodes[node].disk.stats();
            (s.reads.ops, s.random_reads.ops, s.writes.ops)
        };
        let net = |cl: &Cluster| {
            let t = cl.net.traffic();
            (t.total_messages(), t.total_bytes())
        };
        let parity = BlockAddr {
            volume: 0,
            stripe: 0,
            index: 6,
        };
        let (node, dev) = cl.layout.locate(parity);

        assert!(cl.rmw(node, 0, dev, 4096) > 0);
        assert_eq!(ops(&cl, node), (1, 1, 1), "one random read, one write");

        let t = cl.log_append(node, 0, 4096);
        let cursor = cl.nodes[node].log_cursor;
        cl.log_append(node, t, 4096);
        assert_eq!(cl.nodes[node].log_cursor, cursor + 4096);
        assert_eq!(ops(&cl, node), (1, 1, 3), "one write per append");

        cl.fold(node, 0, parity, 0, 4096);
        assert_eq!(net(&cl), (0, 0), "a fold at home sends nothing");
        assert_eq!(ops(&cl, node), (2, 2, 4));
        assert!(cl.oracle.applied_parity[&parity].covers(0, 4096));

        let target = (node + 1) % cl.cfg.nodes;
        cl.layout.relocate(parity, target, 0);
        cl.fold(node, 0, parity, 4096, 4096);
        assert_eq!(net(&cl), (1, 4096), "a re-homed fold ships its range");
        assert_eq!(ops(&cl, node), (2, 2, 4), "nothing more on the old home");
        assert_eq!(ops(&cl, target), (1, 1, 1), "the rmw lands on the new home");
        assert!(cl.oracle.applied_parity[&parity].covers(0, 8192));
    }
}
