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
//! The [`crate::config::TsueFeatures`] toggles reproduce the Fig. 7
//! breakdown: without `data_locality`/`parity_locality` the recycle pays
//! per-*record* I/O instead of per-merged-range; without `log_pool` a
//! node's appends stall while it recycles; without `delta_log` parity
//! deltas fan out to all `m` parity logs with no cross-block merging.

use simdes::{Sim, SimTime};
use simdisk::{IoOp, Pattern};

use std::collections::HashMap;

use crate::cluster::Cluster;
use crate::config::ClusterConfig;
use crate::layout::BlockAddr;
use crate::methods::{self, NodeLogState, UpdateCtx, UpdateMethod};
use crate::telemetry::{OpClass, Stage};
use tsue::layers::{
    group_delta_jobs, group_parity_jobs, union_ranges, LogPoolSet, ParityKey, StripeBlock,
};
use tsue::payload::Ghost;
use tsue::pool::AppendOutcome;
use tsue::MergeMode;

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

/// Layer indices for the pending-bytes ledger.
const DATA: usize = 0;
/// DeltaLog ledger slot.
const DELTA: usize = 1;
/// ParityLog ledger slot.
const PARITY: usize = 2;

/// Per-node TSUE state: the three log-pool sets plus bookkeeping.
pub struct TsueState {
    /// DataLog pools (keyed by data-block key).
    pub data: LogPoolSet<u64, Ghost>,
    /// DeltaLog pools (keyed by stripe + data block index).
    pub delta: LogPoolSet<StripeBlock, Ghost>,
    /// ParityLog pools (keyed by stripe + parity index).
    pub parity: LogPoolSet<ParityKey, Ghost>,
    /// Data-block address per DataLog key.
    pub addr_of: HashMap<u64, BlockAddr>,
    /// Recycles in flight per layer (drives the O3-off exclusivity and the
    /// drain loop).
    pub recycling: [u32; 3],
    /// Bytes appended minus bytes recycled, per layer.
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
            addr_of: HashMap::new(),
            recycling: [0; 3],
            pending: [0; 3],
        }
    }

    /// Bytes still buffered across the three layers.
    pub fn buffered_bytes(&self) -> u64 {
        self.pending.iter().sum()
    }

    /// Total log memory footprint.
    pub fn log_memory_bytes(&self) -> u64 {
        self.data.memory_bytes() + self.delta.memory_bytes() + self.parity.memory_bytes()
    }
}

impl NodeLogState for TsueState {
    fn pending_bytes(&self) -> u64 {
        self.buffered_bytes()
    }

    fn memory_bytes(&self) -> u64 {
        self.log_memory_bytes()
    }

    fn read_cache_covers(&mut self, addr: BlockAddr, offset: u32, len: u32) -> bool {
        let key = addr.key();
        self.data
            .lookup(&key, offset, len)
            .iter()
            .map(|(_, g)| g.0 as u64)
            .sum::<u64>()
            >= len as u64
    }
}

fn tsue_state(cl: &mut Cluster, node: usize) -> &mut TsueState {
    cl.nodes[node]
        .state
        .downcast_mut::<TsueState>()
        .expect("TSUE driver on non-TSUE node")
}

/// The replica node for a data log: the next live OSD on the ring — or,
/// when the maintenance plan pins appends to flash
/// ([`crate::maintenance::DemoteConfig::pin_appends`]), the next live
/// *flash* OSD, so the synchronous replica append never waits on a
/// spindle seek. Without an armed plan the flag is false and the path
/// is byte-for-byte the plain ring walk.
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
            .is_some_and(|ts| ts.recycling[DATA] > 0);
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
            ts.pending[DATA] += len;
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
        schedule_data_recycle(sim, cl, dnode, sim.now());
        return;
    }

    // Persist locally (sequential) and on the replica node.
    let log_off = cl.log_offset(dnode, len);
    let t_local = cl.disk_io(
        dnode,
        t_arrive,
        IoOp::write(log_off, len, Pattern::Sequential),
    );
    cl.metrics
        .data_residency
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
        schedule_data_recycle(sim, cl, dnode, t_local);
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

fn schedule_data_recycle(sim: &mut Sim<Cluster>, _cl: &mut Cluster, node: usize, at: SimTime) {
    sim.schedule_at(at.max(sim.now()), move |sim, cl: &mut Cluster| {
        recycle_data(sim, cl, node);
    });
}

fn schedule_delta_recycle(sim: &mut Sim<Cluster>, node: usize, at: SimTime) {
    sim.schedule_at(at.max(sim.now()), move |sim, cl: &mut Cluster| {
        recycle_delta(sim, cl, node);
    });
}

fn schedule_parity_recycle(sim: &mut Sim<Cluster>, node: usize, at: SimTime) {
    sim.schedule_at(at.max(sim.now()), move |sim, cl: &mut Cluster| {
        recycle_parity(sim, cl, node);
    });
}

/// DataLog recycle: one unit per invocation.
pub fn recycle_data(sim: &mut Sim<Cluster>, cl: &mut Cluster, node: usize) {
    let now = sim.now();
    let taken = {
        let ts = tsue_state(cl, node);
        // Units recycle concurrently (the paper's recycle thread pool);
        // per-block ordering is preserved by routing one block's records to
        // one thread, which the coverage-level simulation inherits.
        let taken = ts.data.take_recyclable_any();
        if taken.is_some() {
            ts.recycling[DATA] += 1;
        }
        taken
    };
    let Some((pool_idx, taken)) = taken else {
        return;
    };
    if let Some(first) = taken.first_append_at {
        cl.metrics
            .data_residency
            .buffer
            .record(now.saturating_sub(first));
    }

    let use_merged = cl.cfg.tsue.data_locality;
    // Recycle-thread CPU: every raw record is walked once (index scan,
    // merge bookkeeping, checksum) before the merged I/O is issued.
    let cpu = taken.records * cl.cfg.tsue_recycle_cpu_per_record;
    let start = cl.nodes[node].recycle_cpu.reserve(now, cpu);
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
    let mut t_end = start;
    let mut t_io = start;
    for (key, ranges) in &taken.contents {
        let addr = tsue_state(cl, node).addr_of[key];
        let (bnode, bdev) = cl.layout.locate(addr);
        for (off, g) in ranges {
            let len = g.0 as u64;
            if use_merged {
                // A failure may have re-homed the block since its updates
                // were logged: the merged range is then folded at its
                // rebuild target, one network hop away.
                let boff = bdev + *off as u64;
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
            cl.oracle_apply_data(addr, *off, g.0);
        }
        // Forward this block's deltas once its I/O completes. Scheduling a
        // real event (instead of forward-booking the network now) keeps
        // link reservations at the simulation present, so foreground
        // traffic is never falsely queued behind far-future bookings.
        let ranges_owned: Vec<(u32, Ghost)> = ranges.clone();
        cl.forwards_in_flight += 1;
        sim.schedule_at(t_io.max(now), move |sim, cl: &mut Cluster| {
            cl.forwards_in_flight -= 1;
            forward_block_deltas(sim, cl, node, addr, &ranges_owned);
        });
    }
    t_end = t_end.max(t_io);
    cl.trace_child(Stage::Recycle, node, now, t_end.max(now));

    // Finish: free the unit, wake stalled clients, account residency.
    let unit_id = taken.id;
    let bytes = taken.bytes;
    sim.schedule_at(t_end.max(now), move |sim, cl: &mut Cluster| {
        let more = {
            let ts = tsue_state(cl, node);
            ts.data.pool_mut(pool_idx).finish_recycle(unit_id);
            ts.recycling[DATA] -= 1;
            ts.pending[DATA] = ts.pending[DATA].saturating_sub(bytes);
            ts.data
                .pool(pool_idx)
                .count_state(tsue::UnitState::Recyclable)
                > 0
        };
        cl.metrics
            .data_residency
            .recycle
            .record(sim.now().saturating_sub(now));
        cl.wake_waiters(sim, node);
        if more {
            recycle_data(sim, cl, node);
        }
    });
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
    let skey = cl.stripe_id(addr.volume, addr.stripe);
    let parity_addrs = cl.layout.parity_addrs(addr.volume, addr.stripe);
    if delta_log_on {
        // Delta to the first parity node's DeltaLog + copy on second.
        let (p1, _) = cl.layout.locate(parity_addrs[0]);
        let (p2, _) = cl.layout.locate(parity_addrs[1]);
        for (off, g) in ranges {
            let len = g.0 as u64;
            let t_send = cl.send(now, node, p1, len);
            let plog = cl.log_offset(p1, len);
            let t_persist = cl.disk_io(p1, t_send, IoOp::write(plog, len, Pattern::Sequential));
            cl.metrics
                .delta_residency
                .append
                .record(t_persist.saturating_sub(t_send));
            let sealed = {
                let ts1 = tsue_state(cl, p1);
                ts1.pending[DELTA] += len;
                let sb = StripeBlock {
                    stripe: skey,
                    block_idx: addr.index,
                };
                let (_, out) = ts1.delta.append_overflow(sb, *off, Ghost(g.0), t_send);
                matches!(out, AppendOutcome::AppendedAndSealed(_))
            };
            if sealed {
                schedule_delta_recycle(sim, p1, t_persist);
            }
            // Copy on the second parity node: disk + net only.
            let t_send2 = cl.send(now, node, p2, len);
            let plog2 = cl.log_offset(p2, len);
            cl.disk_io(p2, t_send2, IoOp::write(plog2, len, Pattern::Sequential));
        }
    } else {
        // O5 off: parity deltas straight to every parity node's log.
        for (p, paddr) in parity_addrs.iter().enumerate() {
            let (pn, _) = cl.layout.locate(*paddr);
            for (off, g) in ranges {
                let len = g.0 as u64;
                let t_send = cl.send(now, node, pn, len);
                let plog = cl.log_offset(pn, len);
                let t_persist = cl.disk_io(pn, t_send, IoOp::write(plog, len, Pattern::Sequential));
                let sealed = {
                    let tsp = tsue_state(cl, pn);
                    tsp.pending[PARITY] += len;
                    let pk = ParityKey {
                        stripe: skey,
                        parity_idx: p as u16,
                    };
                    let (_, out) = tsp.parity.append_overflow(pk, *off, Ghost(g.0), t_send);
                    matches!(out, AppendOutcome::AppendedAndSealed(_))
                };
                if sealed {
                    schedule_parity_recycle(sim, pn, t_persist);
                }
            }
        }
    }
}

/// DeltaLog recycle: one unit per invocation (Eq. 5 merge per stripe).
pub fn recycle_delta(sim: &mut Sim<Cluster>, cl: &mut Cluster, node: usize) {
    let now = sim.now();
    let taken = {
        let ts = tsue_state(cl, node);
        let taken = ts.delta.take_recyclable_any();
        if taken.is_some() {
            ts.recycling[DELTA] += 1;
        }
        taken
    };
    let Some((pool_idx, taken)) = taken else {
        return;
    };
    if let Some(first) = taken.first_append_at {
        cl.metrics
            .delta_residency
            .buffer
            .record(now.saturating_sub(first));
    }

    let cpu = taken.records * cl.cfg.tsue_recycle_cpu_per_record;
    let start = cl.nodes[node].recycle_cpu.reserve(now, cpu);
    let t_end = start;
    // Eq. 5 combination happens on the recycle thread; the combined parity
    // deltas are shipped by a properly-timed event at CPU completion so
    // network reservations stay at the simulation present.
    let jobs = group_delta_jobs(taken.contents.clone());
    cl.forwards_in_flight += 1;
    sim.schedule_at(start.max(now), move |sim, cl: &mut Cluster| {
        cl.forwards_in_flight -= 1;
        forward_stripe_deltas(sim, cl, node, &jobs);
    });
    cl.trace_child(Stage::Recycle, node, now, t_end.max(now));

    let unit_id = taken.id;
    let bytes = taken.bytes;
    sim.schedule_at(t_end.max(now), move |sim, cl: &mut Cluster| {
        let more = {
            let ts = tsue_state(cl, node);
            ts.delta.pool_mut(pool_idx).finish_recycle(unit_id);
            ts.recycling[DELTA] -= 1;
            ts.pending[DELTA] = ts.pending[DELTA].saturating_sub(bytes);
            ts.delta
                .pool(pool_idx)
                .count_state(tsue::UnitState::Recyclable)
                > 0
        };
        cl.metrics
            .delta_residency
            .recycle
            .record(sim.now().saturating_sub(now));
        cl.wake_waiters(sim, node);
        if more {
            recycle_delta(sim, cl, node);
        }
    });
}

/// Ships combined (Eq. 5) parity deltas to every parity node's ParityLog.
fn forward_stripe_deltas(
    sim: &mut Sim<Cluster>,
    cl: &mut Cluster,
    node: usize,
    jobs: &[tsue::layers::StripeDeltaJob<Ghost>],
) {
    let now = sim.now();
    let m = cl.cfg.code.m();
    for job in jobs {
        let (volume, stripe) = cl.stripe_names[&job.stripe];
        // Eq. 5: one combined parity delta per union range per parity.
        let union = union_ranges(&job.deltas);
        for p in 0..m as u16 {
            let paddr = BlockAddr {
                volume,
                stripe,
                index: cl.cfg.code.k() as u16 + p,
            };
            let (pn, _) = cl.layout.locate(paddr);
            for &(off, len) in &union {
                let blen = len as u64;
                let t_send = cl.send(now, node, pn, blen);
                let plog = cl.log_offset(pn, blen);
                let t_persist =
                    cl.disk_io(pn, t_send, IoOp::write(plog, blen, Pattern::Sequential));
                cl.metrics
                    .parity_residency
                    .append
                    .record(t_persist.saturating_sub(t_send));
                let sealed = {
                    let tsp = tsue_state(cl, pn);
                    tsp.pending[PARITY] += blen;
                    let pk = ParityKey {
                        stripe: job.stripe,
                        parity_idx: p,
                    };
                    let (_, out) = tsp.parity.append_overflow(pk, off, Ghost(len), t_send);
                    matches!(out, AppendOutcome::AppendedAndSealed(_))
                };
                if sealed {
                    schedule_parity_recycle(sim, pn, t_persist);
                }
            }
        }
    }
}

/// ParityLog recycle: one unit per invocation.
pub fn recycle_parity(sim: &mut Sim<Cluster>, cl: &mut Cluster, node: usize) {
    let now = sim.now();
    let taken = {
        let ts = tsue_state(cl, node);
        let taken = ts.parity.take_recyclable_any();
        if taken.is_some() {
            ts.recycling[PARITY] += 1;
        }
        taken
    };
    let Some((pool_idx, taken)) = taken else {
        return;
    };
    if let Some(first) = taken.first_append_at {
        cl.metrics
            .parity_residency
            .buffer
            .record(now.saturating_sub(first));
    }

    let use_merged = cl.cfg.tsue.parity_locality;
    let cpu = taken.records * cl.cfg.tsue_recycle_cpu_per_record;
    let mut t_end = cl.nodes[node].recycle_cpu.reserve(now, cpu);
    if use_merged {
        for job in group_parity_jobs(taken.contents.clone()) {
            let (volume, stripe) = cl.stripe_names[&job.parity.stripe];
            let paddr = BlockAddr {
                volume,
                stripe,
                index: cl.cfg.code.k() as u16 + job.parity.parity_idx,
            };
            let (pn, pdev) = cl.layout.locate(paddr);
            for (off, g) in &job.ranges {
                let len = g.0 as u64;
                let poff = pdev + *off as u64;
                // Fold at the parity block's current home (a rebuild may
                // have moved it off this node mid-replay).
                let t_at = if pn != node {
                    cl.send(t_end.max(now), node, pn, len)
                } else {
                    t_end.max(now)
                };
                let t_r = cl.disk_io(pn, t_at, IoOp::read(poff, len, Pattern::Random));
                t_end = cl.disk_io(pn, t_r, IoOp::write(poff, len, Pattern::Random));
                cl.oracle_apply_parity(paddr, *off, g.0);
            }
        }
    } else {
        // O2 off: per-record read-modify-write.
        let avg = (taken.bytes / taken.records.max(1)).max(1);
        let mut t = t_end;
        for _ in 0..taken.records {
            let off = cl.log_offset(node, avg);
            let t_r = cl.disk_io(node, t, IoOp::read(off, avg, Pattern::Random));
            t = cl.disk_io(node, t_r, IoOp::write(off, avg, Pattern::Random));
        }
        t_end = t;
        for job in group_parity_jobs(taken.contents.clone()) {
            let (volume, stripe) = cl.stripe_names[&job.parity.stripe];
            let paddr = BlockAddr {
                volume,
                stripe,
                index: cl.cfg.code.k() as u16 + job.parity.parity_idx,
            };
            for (off, g) in &job.ranges {
                cl.oracle_apply_parity(paddr, *off, g.0);
            }
        }
    }

    cl.trace_child(Stage::Recycle, node, now, t_end.max(now));
    let unit_id = taken.id;
    let bytes = taken.bytes;
    sim.schedule_at(t_end.max(now), move |sim, cl: &mut Cluster| {
        let more = {
            let ts = tsue_state(cl, node);
            ts.parity.pool_mut(pool_idx).finish_recycle(unit_id);
            ts.recycling[PARITY] -= 1;
            ts.pending[PARITY] = ts.pending[PARITY].saturating_sub(bytes);
            ts.parity
                .pool(pool_idx)
                .count_state(tsue::UnitState::Recyclable)
                > 0
        };
        cl.metrics
            .parity_residency
            .recycle
            .record(sim.now().saturating_sub(now));
        cl.wake_waiters(sim, node);
        if more {
            recycle_parity(sim, cl, node);
        }
    });
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
        let (has_data, has_delta, has_parity, p) = {
            let ts = tsue_state(cl, node);
            ts.data.seal_all_active(now);
            ts.delta.seal_all_active(now);
            ts.parity.seal_all_active(now);
            (
                !ts.data.is_fully_drained() && ts.recycling[DATA] == 0,
                !ts.delta.is_fully_drained() && ts.recycling[DELTA] == 0,
                !ts.parity.is_fully_drained() && ts.recycling[PARITY] == 0,
                ts.pending_bytes(),
            )
        };
        pending += p;
        if has_data {
            recycle_data(sim, cl, node);
        }
        if has_delta {
            recycle_delta(sim, cl, node);
        }
        if has_parity {
            recycle_parity(sim, cl, node);
        }
    }
    if pending > 0 && now < until {
        sim.schedule(simdes::units::MILLIS, move |sim, cl: &mut Cluster| {
            drain_tick(sim, cl, until);
        });
    }
}
