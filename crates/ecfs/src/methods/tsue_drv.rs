//! TSUE — the paper's two-stage update method, driven over the DES cluster.
//!
//! Front end (§3.1.1): the update is appended to the data node's DataLog
//! (memory + sequential SSD persist) and to a replica log on a second node;
//! the client is acked as soon as both appends land. No read, no in-place
//! write, no parity work on the critical path.
//!
//! Back end (§3.1.2): sealed DataLog units are recycled in real time —
//! merged ranges fold into data blocks (one write-after-read per *merged*
//! range, not per update), deltas flow to the DeltaLog on the first parity
//! node (with a copy on the second), stripe-merged parity deltas (Eq. 5)
//! flow to each ParityLog, and finally fold into parity blocks.
//!
//! The three layers share one recycle lifecycle (§3.2): `start_recycle`
//! takes a unit from any pool and charges its records' CPU,
//! `recycle_{data,delta,parity}` book only their own I/O and forwarding,
//! and `end_recycle` hands the unit back, settles the per-[`Layer`]
//! ledgers, wakes stalled clients and re-chains while the pool has work.
//! Every append into a downstream log goes through `log_downstream`,
//! which schedules that layer's recycle when the append seals a unit.
//!
//! The [`crate::config::TsueFeatures`] toggles reproduce the Fig. 7
//! breakdown: without `data_locality`/`parity_locality` the recycle pays
//! per-*record* I/O instead of per-merged-range; without `log_pool` a
//! node's appends stall while it recycles; without `delta_log` parity
//! deltas fan out to all `m` parity logs with no cross-block merging.

use simdes::{Sim, SimTime};
use simdisk::{IoOp, Pattern};

use crate::cluster::Cluster;
use crate::config::ClusterConfig;
use crate::layout::{stripe_key, stripe_of, BlockAddr};
use crate::methods::{self, NodeLogState, UpdateCtx, UpdateMethod};
use crate::telemetry::{OpClass, Stage};
use tsue::fastmap::FastMap;
use tsue::layers::{
    group_delta_jobs, union_ranges, LogPoolSet, ParityKey, StripeBlock, StripeDeltaJob,
};
use tsue::payload::Ghost;
use tsue::pool::{AppendOutcome, TakenUnit};
use tsue::MergeMode;

/// Per-record CPU time (ns) spent by the recycle threads (index walk,
/// memcpy, checksum): the thread-pool cost of §3.2.1.
const RECYCLE_CPU_PER_RECORD_NS: u64 = 25_000;

/// The paper's two-stage update driver.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tsue;

impl UpdateMethod for Tsue {
    fn name(&self) -> &str {
        "TSUE"
    }

    fn new_node_state(&self, cfg: &ClusterConfig) -> Box<dyn NodeLogState> {
        Box::new(TsueState::new(cfg))
    }

    fn begin_update(&self, sim: &mut Sim<Cluster>, cl: &mut Cluster, ctx: UpdateCtx) {
        begin_update(sim, cl, ctx);
    }

    fn drain(&self, sim: &mut Sim<Cluster>, cl: &mut Cluster) {
        drain_tick(sim, cl, SimTime::MAX);
    }

    fn drain_until(&self, sim: &mut Sim<Cluster>, cl: &mut Cluster) -> SimTime {
        // TSUE recycles in real time, so the backlog at a failure is at
        // most the active log units. The recycle chains are event-driven
        // (their exact completion is not known up front), so the recovery
        // gate charges the backlog at a conservative replay rate — the
        // paper's point survives intact: this is typically megabytes,
        // versus the gigabytes deferred methods must replay. The replay
        // itself is bounded by that gate: force-seal ticks stop there, and
        // appends arriving later recycle through the ordinary seal-driven
        // chains, as in steady state.
        let now = sim.now();
        let backlog = methods::pending_log_bytes(cl);
        // Charge the replay scan to the disks that actually perform it:
        // each node's pending log bytes are re-read sequentially from
        // its log region — and a *dead* node's backlog is scanned on its
        // replica holder (§2.3.2), whose queue then contends with the
        // foreground and repair traffic it is serving.
        let mut gate = now;
        for node in 0..cl.cfg.nodes {
            let pending = cl.nodes[node].state.pending_bytes();
            if pending == 0 {
                continue;
            }
            let replayer = if cl.nodes[node].failed {
                replica_of(cl, node)
            } else {
                node
            };
            let cap = cl.nodes[replayer].disk.capacity();
            let base = cap / 4 * 3;
            let len = pending.min(cap - base);
            let t = cl.disk_io(replayer, now, IoOp::read(base, len, Pattern::Sequential));
            gate = gate.max(t);
        }
        // ~2 GB/s merge CPU on top of the booked scan, plus one
        // scheduling quantum.
        let gate = gate.max(now + backlog / 2) + simdes::units::MILLIS;
        drain_tick(sim, cl, gate);
        gate
    }
}

/// One of TSUE's three log layers. It indexes the per-layer ledgers of
/// [`TsueState`] and the residency histograms of
/// [`crate::cluster::Metrics::residency`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The DataLog: update data, on the data block's node.
    Data,
    /// The DeltaLog: data deltas, on the stripe's first parity node.
    Delta,
    /// The ParityLog: parity deltas, on each parity block's node.
    Parity,
}

impl Layer {
    /// Every layer, in ledger order.
    pub const ALL: [Layer; 3] = [Layer::Data, Layer::Delta, Layer::Parity];
}

/// Per-node TSUE state: the three log-pool sets plus bookkeeping.
pub struct TsueState {
    /// DataLog pools (keyed by data-block key).
    pub data: LogPoolSet<u64, Ghost>,
    /// DeltaLog pools (keyed by stripe + data block index).
    pub delta: LogPoolSet<StripeBlock, Ghost>,
    /// ParityLog pools (keyed by stripe + parity index).
    pub parity: LogPoolSet<ParityKey, Ghost>,
    /// Data-block address per DataLog key.
    pub addr_of: FastMap<u64, BlockAddr>,
    /// Recycles in flight per [`Layer`] (drives the O3-off exclusivity and
    /// the drain loop).
    pub recycling: [u32; 3],
    /// Bytes appended minus bytes recycled, per [`Layer`].
    pub pending: [u64; 3],
}

impl TsueState {
    /// Builds the per-node log structures for the configured features.
    pub fn new(cfg: &ClusterConfig) -> TsueState {
        let pools = cfg.tsue_pools_per_layer();
        TsueState {
            data: LogPoolSet::new(pools, cfg.tsue_pool_cfg(MergeMode::Overwrite)),
            delta: LogPoolSet::new(pools, cfg.tsue_pool_cfg(MergeMode::Xor)),
            parity: LogPoolSet::new(pools, cfg.tsue_pool_cfg(MergeMode::Xor)),
            addr_of: FastMap::default(),
            recycling: [0; 3],
            pending: [0; 3],
        }
    }

    /// Whether `layer` has nothing RECYCLABLE or RECYCLING.
    pub(crate) fn is_drained(&self, layer: Layer) -> bool {
        match layer {
            Layer::Data => self.data.is_fully_drained(),
            Layer::Delta => self.delta.is_fully_drained(),
            Layer::Parity => self.parity.is_fully_drained(),
        }
    }
}

impl NodeLogState for TsueState {
    fn pending_bytes(&self) -> u64 {
        self.pending.iter().sum()
    }

    fn memory_bytes(&self) -> u64 {
        self.data.memory_bytes() + self.delta.memory_bytes() + self.parity.memory_bytes()
    }

    fn read_cache_covers(&mut self, addr: BlockAddr, offset: u32, len: u32) -> bool {
        self.data.covers(&addr.key(), offset, len)
    }
}

fn tsue_state(cl: &mut Cluster, node: usize) -> &mut TsueState {
    cl.nodes[node]
        .state
        .downcast_mut::<TsueState>()
        .expect("TSUE driver on non-TSUE node")
}

/// The replica node for a data log: the next live OSD on the ring — or,
/// when the maintenance plan arms demotion
/// ([`crate::maintenance::MaintState::pin_appends`]), the next live
/// *flash* OSD, so the synchronous replica append never waits on a
/// spindle seek. Without demotion the flag is false and the path is
/// byte-for-byte the plain ring walk.
fn replica_of(cl: &Cluster, node: usize) -> usize {
    let n = cl.cfg.nodes;
    let mut r = (node + 1) % n;
    if cl.maint.pin_appends {
        let mut f = r;
        for _ in 0..n {
            if f != node && !cl.nodes[f].failed && cl.cfg.fleet.is_ssd(f) {
                return f;
            }
            f = (f + 1) % n;
        }
        // No live flash node left: fall back to the plain ring walk.
    }
    let mut guard = 0;
    while cl.nodes[r].failed {
        r = (r + 1) % n;
        guard += 1;
        assert!(guard <= n, "no live replica node");
    }
    r
}

/// Runs one TSUE update (front end only; the back end self-schedules).
fn begin_update(sim: &mut Sim<Cluster>, cl: &mut Cluster, ctx: UpdateCtx) {
    let slice = ctx.slice;
    let len = slice.len as u64;
    let (dnode, _) = cl.layout.locate(slice.addr);
    let client_ep = cl.cfg.client_endpoint(ctx.client);

    // O3 off: single log — appends are exclusive with recycling.
    if !cl.cfg.tsue.log_pool {
        let busy = cl.nodes[dnode]
            .state
            .downcast_ref::<TsueState>()
            .is_some_and(|ts| ts.recycling[Layer::Data as usize] > 0);
        if busy {
            cl.park_on(
                dnode,
                Box::new(move |sim, cl| methods::begin_update(sim, cl, ctx)),
            );
            return;
        }
    }

    let t_arrive = cl.send(ctx.start_at, client_ep, dnode, len);
    let key = slice.addr.key();

    // Append to the DataLog.
    let outcome = {
        let ts = tsue_state(cl, dnode);
        ts.addr_of.insert(key, slice.addr);
        let (_, out) = ts
            .data
            .append(key, slice.offset, Ghost(slice.len), t_arrive);
        if !matches!(out, AppendOutcome::Stalled) {
            ts.pending[Layer::Data as usize] += len;
        }
        out
    };
    if matches!(outcome, AppendOutcome::Stalled) {
        // Quota exhausted: the client's update waits for a recycle.
        cl.park_on(
            dnode,
            Box::new(move |sim, cl| methods::begin_update(sim, cl, ctx)),
        );
        // Make sure a recycle is actually running.
        schedule_recycle(sim, Layer::Data, dnode, sim.now());
        return;
    }

    // Persist locally (sequential) and on the replica node.
    let log_off = cl.log_offset(dnode, len);
    let t_local = cl.disk_io(
        dnode,
        t_arrive,
        IoOp::write(log_off, len, Pattern::Sequential),
    );
    cl.metrics.residency[Layer::Data as usize]
        .append
        .record(t_local.saturating_sub(t_arrive));

    let rnode = replica_of(cl, dnode);
    let t_rsend = cl.send(t_arrive, dnode, rnode, len);
    let rlog_off = cl.log_offset(rnode, len);
    let t_replica = cl.disk_io(
        rnode,
        t_rsend,
        IoOp::write(rlog_off, len, Pattern::Sequential),
    );

    if let AppendOutcome::AppendedAndSealed(_) = outcome {
        schedule_recycle(sim, Layer::Data, dnode, t_local);
    }

    let t_ack = cl.ack(t_local.max(t_replica), dnode, client_ep);
    cl.oracle_ack(slice.addr, slice.offset, slice.len);
    // The replica append is TSUE's redundancy work on the critical path —
    // charged to ParityIo so cross-method waterfalls compare like for like
    // (FO's parity RMW vs TSUE's replicated sequential append).
    cl.trace_op(
        &ctx,
        OpClass::Update,
        &[
            (Stage::NetSend, t_arrive),
            (Stage::LogAppend, t_local),
            (Stage::ParityIo, t_local.max(t_replica)),
            (Stage::Ack, t_ack),
        ],
    );
    cl.finish_update(sim, ctx, t_ack);
}

/// Schedules a recycle of `layer` on `node` at `at` (or now, if later).
fn schedule_recycle(sim: &mut Sim<Cluster>, layer: Layer, node: usize, at: SimTime) {
    sim.schedule_at(at.max(sim.now()), move |sim, cl: &mut Cluster| {
        recycle(sim, cl, node, layer);
    });
}

/// Recycles one unit of `layer` on `node`, if one is RECYCLABLE.
fn recycle(sim: &mut Sim<Cluster>, cl: &mut Cluster, node: usize, layer: Layer) {
    match layer {
        Layer::Data => recycle_data(sim, cl, node),
        Layer::Delta => recycle_delta(sim, cl, node),
        Layer::Parity => recycle_parity(sim, cl, node),
    }
}

/// A unit taken for recycling: what [`end_recycle`] needs to hand it back.
#[derive(Clone, Copy)]
struct Ticket {
    node: usize,
    layer: Layer,
    pool: usize,
    unit: u64,
    bytes: u64,
    started: SimTime,
}

/// Starts a recycle: takes a unit with `take` (every layer takes from any
/// pool: units recycle concurrently, like the paper's recycle thread pool),
/// counts it in `recycling`, records how long it was buffered and reserves
/// recycle CPU for its raw records — every record is walked once (index
/// scan, merge bookkeeping, checksum) before the merged I/O is issued.
/// Returns the ticket, the unit and the time the CPU work starts.
fn start_recycle<K>(
    cl: &mut Cluster,
    node: usize,
    layer: Layer,
    now: SimTime,
    take: impl FnOnce(&mut TsueState) -> Option<(usize, TakenUnit<K, Ghost>)>,
) -> Option<(Ticket, TakenUnit<K, Ghost>, SimTime)> {
    let ts = tsue_state(cl, node);
    let (pool, taken) = take(ts)?;
    ts.recycling[layer as usize] += 1;
    if let Some(first) = taken.first_append_at {
        cl.metrics.residency[layer as usize]
            .buffer
            .record(now.saturating_sub(first));
    }
    let cpu = taken.records * RECYCLE_CPU_PER_RECORD_NS;
    let start = cl.nodes[node].recycle_cpu.reserve(now, cpu);
    let ticket = Ticket {
        node,
        layer,
        pool,
        unit: taken.id,
        bytes: taken.bytes,
        started: now,
    };
    Some((ticket, taken, start))
}

/// Ends a recycle whose bookings complete at `t_end`: traces it, then at
/// `t_end` frees the unit, settles the ledgers, records the recycle time,
/// wakes stalled clients, and goes again if that pool has more work.
fn end_recycle(sim: &mut Sim<Cluster>, cl: &mut Cluster, ticket: Ticket, t_end: SimTime) {
    let t_end = t_end.max(ticket.started);
    cl.trace_child(Stage::Recycle, ticket.node, ticket.started, t_end);
    sim.schedule_at(t_end, move |sim, cl: &mut Cluster| {
        let l = ticket.layer as usize;
        let more = {
            let ts = tsue_state(cl, ticket.node);
            let more = match ticket.layer {
                Layer::Data => ts.data.finish_recycle(ticket.pool, ticket.unit),
                Layer::Delta => ts.delta.finish_recycle(ticket.pool, ticket.unit),
                Layer::Parity => ts.parity.finish_recycle(ticket.pool, ticket.unit),
            };
            ts.recycling[l] -= 1;
            ts.pending[l] = ts.pending[l].saturating_sub(ticket.bytes);
            more
        };
        cl.metrics.residency[l]
            .recycle
            .record(sim.now().saturating_sub(ticket.started));
        cl.wake_waiters(sim, ticket.node);
        if more {
            recycle(sim, cl, ticket.node, ticket.layer);
        }
    });
}

/// Appends `len` bytes shipped from `from` to `to`'s `layer` log at the
/// simulation present: the send, the sequential persist, the append
/// residency and the pending ledger, then `append` into the pool set; if
/// that sealed a unit, a recycle is scheduled for when the persist lands.
fn log_downstream(
    sim: &mut Sim<Cluster>,
    cl: &mut Cluster,
    from: usize,
    to: usize,
    layer: Layer,
    len: u32,
    append: impl FnOnce(&mut TsueState, SimTime) -> AppendOutcome,
) {
    let bytes = len as u64;
    let t_send = cl.send(sim.now(), from, to, bytes);
    let log_off = cl.log_offset(to, bytes);
    let t_persist = cl.disk_io(to, t_send, IoOp::write(log_off, bytes, Pattern::Sequential));
    cl.metrics.residency[layer as usize]
        .append
        .record(t_persist.saturating_sub(t_send));
    let ts = tsue_state(cl, to);
    ts.pending[layer as usize] += bytes;
    if let AppendOutcome::AppendedAndSealed(_) = append(ts, t_send) {
        schedule_recycle(sim, layer, to, t_persist);
    }
}

/// DataLog recycle: one unit per invocation.
fn recycle_data(sim: &mut Sim<Cluster>, cl: &mut Cluster, node: usize) {
    let now = sim.now();
    // Per-block ordering is preserved by routing one block's records to
    // one recycle thread, which the coverage-level simulation inherits.
    let Some((ticket, taken, start)) = start_recycle(cl, node, Layer::Data, now, |ts| {
        ts.data.take_recyclable_any()
    }) else {
        return;
    };

    let use_merged = cl.cfg.tsue.data_locality;
    let range_total: u64 = taken
        .contents
        .iter()
        .map(|(_, rs)| rs.len() as u64)
        .sum::<u64>()
        .max(1);
    // O1-off per-record cost, distributed over ranges so the chain paces.
    let ops_per_range = (taken.records / range_total).max(1);
    let avg = (taken.bytes / taken.records.max(1)).max(1);

    // Process block by block: write-after-read the merged ranges, then
    // forward that block's deltas immediately — sends pace out across the
    // recycle window instead of bursting on the egress link at the end.
    let mut t_io = start;
    for (key, ranges) in taken.contents {
        let addr = tsue_state(cl, node).addr_of[&key];
        let (bnode, bdev) = cl.layout.locate(addr);
        for &(off, g) in &ranges {
            let len = g.0 as u64;
            if use_merged {
                // A failure may have re-homed the block since its updates
                // were logged: the merged range is then folded at its
                // rebuild target, one network hop away.
                let boff = bdev + off as u64;
                let t_at = if bnode != node {
                    cl.send(t_io, node, bnode, len)
                } else {
                    t_io
                };
                let t_r = cl.disk_io(bnode, t_at, IoOp::read(boff, len, Pattern::Random));
                t_io = cl.disk_io(bnode, t_r, IoOp::write(boff, len, Pattern::Random));
            } else {
                // O1 off: write-after-read per raw record, not per range.
                for _ in 0..ops_per_range {
                    let roff = cl.log_offset(node, avg);
                    let t_r = cl.disk_io(node, t_io, IoOp::read(roff, avg, Pattern::Random));
                    t_io = cl.disk_io(node, t_r, IoOp::write(roff, avg, Pattern::Random));
                }
            }
            cl.oracle_apply_data(addr, off, g.0);
        }
        // Forward this block's deltas once its I/O completes. Scheduling a
        // real event (instead of forward-booking the network now) keeps
        // link reservations at the simulation present, so foreground
        // traffic is never falsely queued behind far-future bookings.
        cl.forwards_in_flight += 1;
        sim.schedule_at(t_io.max(now), move |sim, cl: &mut Cluster| {
            cl.forwards_in_flight -= 1;
            forward_block_deltas(sim, cl, node, addr, &ranges);
        });
    }
    end_recycle(sim, cl, ticket, t_io);
}

/// Forwards one recycled block's data deltas downstream at the simulation
/// present: to the first parity node's DeltaLog (with a copy on the second)
/// when the DeltaLog is enabled, otherwise straight to every ParityLog.
fn forward_block_deltas(
    sim: &mut Sim<Cluster>,
    cl: &mut Cluster,
    node: usize,
    addr: BlockAddr,
    ranges: &[(u32, Ghost)],
) {
    let now = sim.now();
    let delta_log_on = cl.cfg.tsue.delta_log && cl.cfg.code.m() >= 2;
    let stripe = stripe_key(addr.volume, addr.stripe);
    let mut parity_addrs = cl.layout.parity_addrs(addr.volume, addr.stripe);
    if delta_log_on {
        // Delta to the first parity node's DeltaLog + copy on second.
        let (p1, _) = cl.layout.locate(parity_addrs.next().expect("m >= 2"));
        let (p2, _) = cl.layout.locate(parity_addrs.next().expect("m >= 2"));
        let key = StripeBlock {
            stripe,
            block_idx: addr.index,
        };
        for &(off, g) in ranges {
            log_downstream(sim, cl, node, p1, Layer::Delta, g.0, |ts, t| {
                ts.delta.append_overflow(key, off, g, t).1
            });
            // Copy on the second parity node: disk + net only.
            let len = g.0 as u64;
            let t_send2 = cl.send(now, node, p2, len);
            let plog2 = cl.log_offset(p2, len);
            cl.disk_io(p2, t_send2, IoOp::write(plog2, len, Pattern::Sequential));
        }
    } else {
        // O5 off: parity deltas straight to every parity node's log.
        for (p, paddr) in parity_addrs.enumerate() {
            let (pn, _) = cl.layout.locate(paddr);
            let key = ParityKey {
                stripe,
                parity_idx: p as u16,
            };
            for &(off, g) in ranges {
                log_downstream(sim, cl, node, pn, Layer::Parity, g.0, |ts, t| {
                    ts.parity.append_overflow(key, off, g, t).1
                });
            }
        }
    }
}

/// DeltaLog recycle: one unit per invocation (Eq. 5 merge per stripe).
fn recycle_delta(sim: &mut Sim<Cluster>, cl: &mut Cluster, node: usize) {
    let now = sim.now();
    let Some((ticket, taken, start)) = start_recycle(cl, node, Layer::Delta, now, |ts| {
        ts.delta.take_recyclable_any()
    }) else {
        return;
    };
    // Eq. 5 combination happens on the recycle thread; the combined parity
    // deltas are shipped by a properly-timed event at CPU completion so
    // network reservations stay at the simulation present.
    let jobs = group_delta_jobs(taken.contents);
    cl.forwards_in_flight += 1;
    sim.schedule_at(start.max(now), move |sim, cl: &mut Cluster| {
        cl.forwards_in_flight -= 1;
        forward_stripe_deltas(sim, cl, node, &jobs);
    });
    end_recycle(sim, cl, ticket, start);
}

/// Ships combined (Eq. 5) parity deltas to every parity node's ParityLog.
fn forward_stripe_deltas(
    sim: &mut Sim<Cluster>,
    cl: &mut Cluster,
    node: usize,
    jobs: &[StripeDeltaJob<Ghost>],
) {
    let m = cl.cfg.code.m();
    for job in jobs {
        let (volume, stripe) = stripe_of(job.stripe);
        // Eq. 5: one combined parity delta per union range per parity.
        let union = union_ranges(&job.deltas);
        for p in 0..m as u16 {
            let paddr = BlockAddr {
                volume,
                stripe,
                index: cl.cfg.code.k() as u16 + p,
            };
            let (pn, _) = cl.layout.locate(paddr);
            let key = ParityKey {
                stripe: job.stripe,
                parity_idx: p,
            };
            for &(off, len) in &union {
                log_downstream(sim, cl, node, pn, Layer::Parity, len, |ts, t| {
                    ts.parity.append_overflow(key, off, Ghost(len), t).1
                });
            }
        }
    }
}

/// ParityLog recycle: one unit per invocation.
fn recycle_parity(sim: &mut Sim<Cluster>, cl: &mut Cluster, node: usize) {
    let now = sim.now();
    let Some((ticket, taken, start)) = start_recycle(cl, node, Layer::Parity, now, |ts| {
        ts.parity.take_recyclable_any()
    }) else {
        return;
    };
    let parity_addr = |cl: &Cluster, key: ParityKey| {
        let (volume, stripe) = stripe_of(key.stripe);
        BlockAddr {
            volume,
            stripe,
            index: cl.cfg.code.k() as u16 + key.parity_idx,
        }
    };
    let mut t_end = start;
    if cl.cfg.tsue.parity_locality {
        for (key, ranges) in taken.contents {
            let paddr = parity_addr(cl, key);
            let (pn, pdev) = cl.layout.locate(paddr);
            for (off, g) in ranges {
                let len = g.0 as u64;
                let poff = pdev + off as u64;
                // Fold at the parity block's current home (a rebuild may
                // have moved it off this node mid-replay).
                let t_at = if pn != node {
                    cl.send(t_end.max(now), node, pn, len)
                } else {
                    t_end.max(now)
                };
                let t_r = cl.disk_io(pn, t_at, IoOp::read(poff, len, Pattern::Random));
                t_end = cl.disk_io(pn, t_r, IoOp::write(poff, len, Pattern::Random));
                cl.oracle_apply_parity(paddr, off, g.0);
            }
        }
    } else {
        // O2 off: per-record read-modify-write.
        let avg = (taken.bytes / taken.records.max(1)).max(1);
        for _ in 0..taken.records {
            let off = cl.log_offset(node, avg);
            let t_r = cl.disk_io(node, t_end, IoOp::read(off, avg, Pattern::Random));
            t_end = cl.disk_io(node, t_r, IoOp::write(off, avg, Pattern::Random));
        }
        for (key, ranges) in taken.contents {
            let paddr = parity_addr(cl, key);
            for (off, g) in ranges {
                cl.oracle_apply_parity(paddr, off, g.0);
            }
        }
    }
    end_recycle(sim, cl, ticket, t_end);
}

/// One drain tick: force-seals every active unit on every node and starts
/// a recycle wherever none is running, then reschedules itself one
/// simulated millisecond later while log bytes remain and `now < until`.
///
/// The end-of-run drain passes [`SimTime::MAX`] and ticks until no log
/// bytes remain. [`UpdateMethod::drain_until`] passes its recovery gate,
/// so the §2.3.2 replay covers the backlog outstanding at the failure and
/// does not keep slicing the units the foreground fills afterwards; units
/// still recycling at the bound finish through their own chains.
fn drain_tick(sim: &mut Sim<Cluster>, cl: &mut Cluster, until: SimTime) {
    let now = sim.now();
    let mut pending = 0u64;
    for node in 0..cl.cfg.nodes {
        let idle = {
            let ts = tsue_state(cl, node);
            ts.data.seal_all_active();
            ts.delta.seal_all_active();
            ts.parity.seal_all_active();
            pending += ts.pending_bytes();
            Layer::ALL.map(|l| !ts.is_drained(l) && ts.recycling[l as usize] == 0)
        };
        for layer in Layer::ALL {
            if idle[layer as usize] {
                recycle(sim, cl, node, layer);
            }
        }
    }
    if pending > 0 && now < until {
        sim.schedule(simdes::units::MILLIS, move |sim, cl: &mut Cluster| {
            drain_tick(sim, cl, until);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    /// A short TSUE replay whose small log units make every layer recycle.
    fn small_replay(delta_log: bool) -> ReplayConfig {
        let code = CodeParams::new(6, 3).unwrap();
        let mut cluster = ClusterConfig::ssd_testbed(code, Arc::new(Tsue));
        cluster.clients = 8;
        cluster.tsue.delta_log = delta_log;
        cluster.tsue_unit_bytes = 256 << 10;
        let mut rcfg = ReplayConfig::new(cluster, TraceFamily::AliCloud);
        rcfg.ops_per_client = 300;
        rcfg.volume_bytes = 32 << 20;
        rcfg
    }

    /// A read is a cache hit only when the DataLog holds every byte of it:
    /// two units holding overlapping pieces of one block must not add up to
    /// a hit on a range that neither reaches.
    #[test]
    fn read_cache_counts_overlapping_pieces_once() {
        let code = CodeParams::new(6, 3).unwrap();
        let mut cfg = ClusterConfig::ssd_testbed(code, Arc::new(Tsue));
        cfg.tsue_unit_bytes = 64 << 10;
        let mut ts = TsueState::new(&cfg);
        let addr = BlockAddr {
            volume: 0,
            stripe: 3,
            index: 1,
        };
        let key = addr.key();
        // Unit 0: [0, 4 KiB) plus a record that fills it; unit 1: [2 KiB,
        // 6 KiB).
        ts.data.append(key, 0, Ghost(4096), 0);
        ts.data.append(key, 1 << 20, Ghost((64 << 10) - 4096), 0);
        ts.data.append(key, 2048, Ghost(4096), 1);
        assert!(ts.read_cache_covers(addr, 0, 6144));
        assert!(ts.read_cache_covers(addr, 1024, 4096));
        assert!(
            !ts.read_cache_covers(addr, 0, 8192),
            "[6 KiB, 8 KiB) is in no unit"
        );
    }

    /// Every recycle started is finished and every byte appended is
    /// recycled: once a replay has drained, each node's ledgers are zero
    /// and its three pool sets hold nothing RECYCLABLE or RECYCLING.
    #[test]
    fn ledgers_balance_after_drain() {
        for delta_log in [true, false] {
            let (mut sim, mut cl) = run_update_phase(&small_replay(delta_log));
            loop {
                methods::drain(&mut sim, &mut cl);
                sim.run(&mut cl);
                if methods::pending_log_bytes(&cl) == 0 {
                    break;
                }
            }
            let recycled = Layer::ALL.map(|l| cl.metrics.residency[l as usize].recycle.count());
            assert!(recycled[Layer::Data as usize] > 0, "{recycled:?}");
            assert!(recycled[Layer::Parity as usize] > 0, "{recycled:?}");
            assert_eq!(
                recycled[Layer::Delta as usize] > 0,
                delta_log,
                "{recycled:?}"
            );
            for node in 0..cl.cfg.nodes {
                let ts = tsue_state(&mut cl, node);
                let what = format!("delta_log {delta_log}, node {node}");
                assert_eq!(ts.recycling, [0; 3], "{what}");
                assert_eq!(ts.pending, [0; 3], "{what}");
                for layer in Layer::ALL {
                    assert!(ts.is_drained(layer), "{what}: {layer:?}");
                }
            }
        }
    }
}
