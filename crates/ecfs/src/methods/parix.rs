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
use crate::config::ClusterConfig;
use crate::layout::BlockAddr;
use crate::methods::{self, NodeLogState, UpdateCtx, UpdateMethod};
use crate::telemetry::{OpClass, Stage};
use tsue::fastmap::FastMap;
use tsue::index::{MergeMode, TwoLevelIndex};
use tsue::payload::Ghost;

/// Per-node parity-log epoch length at `m = 2`, in bytes. Each epoch reset
/// re-exposes the first-touch network round. A stripe's first-touch state
/// resets when *any* of its `m` parity nodes rolls an epoch, so the
/// per-node budget scales with `m²` to keep the per-stripe reset rate
/// comparable across code shapes.
const EPOCH_BYTES_AT_M2: u64 = 4 << 20;

/// The PARIX speculative-partial-write driver.
#[derive(Debug, Clone, Copy, Default)]
pub struct Parix;

/// Per-node PARIX state.
pub struct ParixState {
    /// At data nodes: which byte ranges of each local data block already
    /// have their *original* value at the parity logs (cleared on recycle).
    pub old_sent: FastMap<BlockAddr, IntervalSet>,
    /// At parity nodes: logged locations, merged newest-wins — PARIX's
    /// temporal-locality exploitation: only the latest value per location
    /// matters at recycle, plus the retained original.
    pub log: TwoLevelIndex<u64, Ghost>,
    /// Parity block addr per log key.
    pub addr_of: FastMap<u64, BlockAddr>,
    /// Raw logged bytes (new data + forwarded originals).
    pub bytes: u64,
}

impl Default for ParixState {
    fn default() -> Self {
        ParixState {
            old_sent: FastMap::default(),
            log: TwoLevelIndex::new(MergeMode::Overwrite),
            addr_of: FastMap::default(),
            bytes: 0,
        }
    }
}

impl NodeLogState for ParixState {
    fn pending_bytes(&self) -> u64 {
        self.bytes
    }
}

impl UpdateMethod for Parix {
    fn name(&self) -> &str {
        "PARIX"
    }

    fn new_node_state(&self, _cfg: &ClusterConfig) -> Box<dyn NodeLogState> {
        Box::<ParixState>::default()
    }

    fn begin_update(&self, sim: &mut Sim<Cluster>, cl: &mut Cluster, ctx: UpdateCtx) {
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
        let first_touch = match cl.nodes[dnode].state.downcast_mut::<ParixState>() {
            Some(state) => {
                let sent = state.old_sent.entry(slice.addr).or_default();
                let covered = sent.covers(slice.offset as u64, slice.offset as u64 + len);
                if !covered {
                    sent.insert(slice.offset as u64, slice.offset as u64 + len);
                }
                !covered
            }
            None => false,
        };
        // NOTE: the in-place write above already clobbered the old value; real
        // PARIX reads old before writing new on first touch. Order the read
        // before the write for timing purposes.
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
            let log_off = cl.log_offset(pnode, len);
            let mut t_append =
                cl.disk_io(pnode, t_new, IoOp::write(log_off, len, Pattern::Sequential));
            if first_touch {
                // Serial extra round: parity asks, data node answers with the
                // original bytes, which are logged too.
                let t_req = cl.ack(t_append, pnode, dnode);
                let t_old = cl.send(t_req.max(t_old_ready), dnode, pnode, len);
                let log_off2 = cl.log_offset(pnode, len);
                t_append = cl.disk_io(
                    pnode,
                    t_old,
                    IoOp::write(log_off2, len, Pattern::Sequential),
                );
            }
            let over_threshold =
                if let Some(state) = cl.nodes[pnode].state.downcast_mut::<ParixState>() {
                    let key = paddr.key();
                    state.log.insert(key, slice.offset, Ghost(slice.len));
                    state.addr_of.insert(key, paddr);
                    state.bytes += len * if first_touch { 2 } else { 1 };
                    state.bytes >= epoch_bytes
                } else {
                    false
                };
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
        cl.oracle_ack(slice.addr, slice.offset, slice.len);
        cl.trace_op(
            &ctx,
            OpClass::Update,
            &[
                (Stage::NetSend, t_arrive),
                (Stage::DiskIo, t_write),
                (Stage::LogAppend, t_done),
                (Stage::Ack, t_ack),
            ],
        );
        cl.finish_update(sim, ctx, t_ack);
    }

    fn drain(&self, sim: &mut Sim<Cluster>, cl: &mut Cluster) {
        self.drain_until(sim, cl);
    }

    fn drain_until(&self, sim: &mut Sim<Cluster>, cl: &mut Cluster) -> SimTime {
        let t_end = methods::drain_nodes(sim, cl, recycle_node);
        for osd in cl.nodes.iter_mut() {
            if let Some(state) = osd.state.downcast_mut::<ParixState>() {
                state.old_sent.clear();
            }
        }
        t_end
    }
}

/// Rolls a parity node's log epoch: resets the first-touch tracking of
/// every data block whose stripe logs here, and resets the byte counter
/// (the cold segments remain accounted until drain).
fn epoch_reset(cl: &mut Cluster, node: usize) {
    let addrs: Vec<BlockAddr> = match cl.nodes[node].state.downcast_mut::<ParixState>() {
        Some(state) => {
            state.bytes = 0;
            state.addr_of.values().copied().collect()
        }
        None => return,
    };
    let k = cl.cfg.code.k() as u16;
    for paddr in addrs {
        for idx in 0..k {
            let daddr = BlockAddr {
                volume: paddr.volume,
                stripe: paddr.stripe,
                index: idx,
            };
            let dnode = cl.layout.current_node(daddr);
            if let Some(ds) = cl.nodes[dnode].state.downcast_mut::<ParixState>() {
                ds.old_sent.remove(&daddr);
            }
        }
    }
}

/// Recycles one node's PARIX log: per merged location, compute the delta
/// from the logged (original, newest) pair and RMW the parity block.
pub fn recycle_node(cl: &mut Cluster, node: usize, from: SimTime) -> SimTime {
    let (mut contents, addr_of) = match cl.nodes[node].state.downcast_mut::<ParixState>() {
        Some(state) => {
            let c = state.log.drain_all();
            state.bytes = 0;
            let a = std::mem::take(&mut state.addr_of);
            (c, a)
        }
        None => return from,
    };
    // The backing index drains in hash order; sorted replay keeps the
    // chained I/O bookings deterministic across threads and processes.
    contents.sort_unstable_by_key(|(k, _)| *k);
    let mut t = from;
    let code = cl.cfg.code;
    for (key, ranges) in &contents {
        let paddr = addr_of[key];
        // The recycled originals vanish: the data blocks of this stripe
        // must re-send old values on their next update (selective
        // first-touch reset).
        for idx in 0..code.k() as u16 {
            let daddr = crate::layout::BlockAddr {
                volume: paddr.volume,
                stripe: paddr.stripe,
                index: idx,
            };
            let dnode = cl.layout.current_node(daddr);
            if let Some(ds) = cl.nodes[dnode].state.downcast_mut::<ParixState>() {
                ds.old_sent.remove(&daddr);
            }
        }
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
            let poff = pdev + *off as u64;
            t = cl.disk_io(pnode, t_pair, IoOp::read(poff, len, Pattern::Random));
            t = cl.disk_io(pnode, t, IoOp::write(poff, len, Pattern::Random));
            cl.oracle_apply_parity(paddr, *off, g.0);
        }
    }
    t
}
