//! PARIX — speculative partial writes (Li et al., ATC '17): forward the
//! *new data* straight to the parity logs, skipping the data-block
//! write-after-read; fetch the original data lazily, once, on the first
//! update of a location (§2.2).
//!
//! The speculation wins when updates exhibit temporal locality (the old
//! value is only read once per location per recycle epoch); it loses on
//! first-touch updates, which pay an extra serial network round
//! ("2× network latency", Fig. 1) — particularly painful on the paper's
//! 25 Gb/s cloud fabric.

use simdes::{Sim, SimTime};
use simdisk::{IoOp, Pattern};

use crate::cluster::{Cluster, IntervalSet};
use crate::layout::BlockAddr;
use crate::methods::{self, UpdateCtx};
use crate::telemetry::Stage;
use tsue::fastmap::FastMap;
use tsue::index::{MergeMode, TwoLevelIndex};
use tsue::payload::Ghost;

/// Per-node parity-log epoch length at `m = 2`, in bytes. Each epoch reset
/// re-exposes the first-touch network round. A stripe's first-touch state
/// resets when *any* of its `m` parity nodes rolls an epoch, so the
/// per-node budget scales with `m²` to keep the per-stripe reset rate
/// comparable across code shapes.
const EPOCH_BYTES_AT_M2: u64 = 4 << 20;

/// Per-node PARIX state.
pub struct ParixState {
    /// At data nodes: which byte ranges of each local data block already
    /// have their *original* value at the parity logs (cleared on recycle).
    pub old_sent: FastMap<BlockAddr, IntervalSet>,
    /// At parity nodes: logged locations, merged newest-wins — PARIX's
    /// temporal-locality exploitation: only the latest value per location
    /// matters at recycle, plus the retained original. Keyed by parity
    /// block.
    pub log: TwoLevelIndex<BlockAddr, Ghost>,
    /// Raw logged bytes (new data + forwarded originals).
    pub bytes: u64,
}

impl Default for ParixState {
    fn default() -> Self {
        ParixState {
            old_sent: FastMap::default(),
            log: TwoLevelIndex::new(MergeMode::Overwrite),
            bytes: 0,
        }
    }
}

/// Runs one PARIX update and eventually reports its ack via
/// [`Cluster::finish`].
pub(crate) fn begin_update(sim: &mut Sim<Cluster>, cl: &mut Cluster, ctx: UpdateCtx) {
    let slice = ctx.slice;
    let len = slice.len as u64;
    let (dnode, ddev) = cl.layout.locate(slice.addr);
    let client_ep = cl.cfg.client_endpoint(ctx.client);

    let t_arrive = cl.send(ctx.start_at, client_ep, dnode, len);
    // In-place data write — no read! That is PARIX's front-end saving.
    let off = ddev + slice.offset as u64;
    let t_write = cl.disk_io(dnode, t_arrive, IoOp::write(off, len, Pattern::Random));
    cl.oracle_apply_data(slice.addr, slice.offset, slice.len);

    // First touch since the last recycle? Then the parity side needs the
    // original value: data node reads it and ships it — a serial extra
    // round on the critical path.
    let sent = cl
        .state_mut::<ParixState>(dnode)
        .old_sent
        .entry(slice.addr)
        .or_default();
    let first_touch = !sent.covers(slice.offset as u64, slice.offset as u64 + len);
    if first_touch {
        sent.insert(slice.offset as u64, slice.offset as u64 + len);
    }
    // Real PARIX reads the old value before writing the new one on a first
    // touch. Here the read is booked after the in-place write above, both
    // at `t_arrive`, so the device queues the read behind the write. The
    // reorder moves PARIX's results; see ROADMAP item 2.
    let t_old_ready = if first_touch {
        cl.disk_io(dnode, t_arrive, IoOp::read(off, len, Pattern::Random))
    } else {
        t_arrive
    };

    let m = cl.cfg.code.m() as u64;
    let epoch_bytes = EPOCH_BYTES_AT_M2 * m * m / 4;
    let mut t_done = t_write;
    for paddr in cl.layout.parity_addrs(slice.addr.volume, slice.addr.stripe) {
        let (pnode, _) = cl.layout.locate(paddr);
        // Forward new data; log it sequentially.
        let t_new = cl.send(t_arrive, dnode, pnode, len);
        let mut t_append = cl.log_append(pnode, t_new, len);
        if first_touch {
            // Serial extra round: parity asks, data node answers with the
            // original bytes, which are logged too.
            let t_req = cl.ack(t_append, pnode, dnode);
            let t_old = cl.send(t_req.max(t_old_ready), dnode, pnode, len);
            t_append = cl.log_append(pnode, t_old, len);
        }
        let state = cl.state_mut::<ParixState>(pnode);
        state.log.insert(paddr, slice.offset, Ghost(slice.len));
        state.bytes += len * if first_touch { 2 } else { 1 };
        let over_threshold = state.bytes >= epoch_bytes;
        // Epoch boundary: the parity log reached its threshold. The hot
        // log segment rolls over (old segments go cold and are recycled
        // lazily), so first-touch tracking resets: the next update of each
        // location pays the extra round again (§2.2: PARIX "does not fully
        // exploit temporal locality"). The deferred recycle I/O itself is
        // paid at drain time, like PL.
        if over_threshold {
            epoch_reset(cl, pnode);
        }
        t_done = t_done.max(t_append);
    }

    let t_ack = cl.ack(t_done, dnode, client_ep);
    cl.finish(
        sim,
        ctx,
        &[
            (Stage::NetSend, t_arrive),
            (Stage::DiskIo, t_write),
            (Stage::LogAppend, t_done),
            (Stage::Ack, t_ack),
        ],
    );
}

/// Recycles every node's log from now and forgets every first touch;
/// returns when the logs are applied.
pub(crate) fn drain_until(sim: &mut Sim<Cluster>, cl: &mut Cluster) -> SimTime {
    let t_end = methods::drain_nodes(sim, cl, recycle_node);
    for node in 0..cl.cfg.nodes {
        cl.state_mut::<ParixState>(node).old_sent.clear();
    }
    t_end
}

/// Rolls a parity node's log epoch: resets the first-touch tracking of
/// every data block whose stripe logs here, and resets the byte counter
/// (the cold segments remain accounted until drain).
fn epoch_reset(cl: &mut Cluster, node: usize) {
    let state = cl.state_mut::<ParixState>(node);
    state.bytes = 0;
    let addrs: Vec<BlockAddr> = state.log.block_keys().copied().collect();
    for paddr in addrs {
        forget_originals(cl, paddr);
    }
}

/// Selective first-touch reset: the originals logged for `paddr`'s stripe
/// are gone, so each of its data blocks must re-send its old value on
/// its next update.
fn forget_originals(cl: &mut Cluster, paddr: BlockAddr) {
    for idx in 0..cl.cfg.code.k() as u16 {
        let daddr = BlockAddr {
            volume: paddr.volume,
            stripe: paddr.stripe,
            index: idx,
        };
        let dnode = cl.layout.current_node(daddr);
        cl.state_mut::<ParixState>(dnode).old_sent.remove(&daddr);
    }
}

/// Recycles one node's PARIX log: per merged location, compute the delta
/// from the logged (original, newest) pair and RMW the parity block.
fn recycle_node(cl: &mut Cluster, node: usize, from: SimTime) -> SimTime {
    let state = cl.state_mut::<ParixState>(node);
    state.bytes = 0;
    let mut contents = state.log.drain_all();
    // The backing index drains in hash order; sorted replay keeps the
    // chained I/O bookings deterministic across threads and processes.
    contents.sort_unstable_by_key(|(k, _)| *k);
    let mut t = from;
    for (paddr, ranges) in contents {
        forget_originals(cl, paddr);
        let (pnode, pdev) = cl.layout.locate(paddr);
        for (off, g) in ranges {
            let len = g.0 as u64;
            // Read logged pair (sequential log scan piece), then parity RMW
            // — at the block's current home, which a rebuild may have moved
            // off this node (the replayed delta then crosses the network).
            let log_off = cl.log_offset(node, 2 * len);
            let mut t_pair = cl.disk_io(node, t, IoOp::read(log_off, 2 * len, Pattern::Random));
            if pnode != node {
                t_pair = cl.send(t_pair, node, pnode, 2 * len);
            }
            t = cl.rmw(pnode, t_pair, pdev + off as u64, len);
            cl.oracle_apply_parity(paddr, off, g.0);
        }
    }
    t
}
