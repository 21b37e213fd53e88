//! FL — Full Logging (Azure/GFS style, §2.2): append *everything* — the
//! new data at the data node and a copy at every parity node — to a single
//! large log per device; merge only when space runs out.
//!
//! FL's flaws per the paper: reads must merge log contents (read penalty),
//! log space is huge (defeating erasure coding's storage savings), and the
//! single log structure makes append and recycle mutually exclusive — while
//! a node recycles, its appends stall.

use simdes::{Sim, SimTime};
use simdisk::{IoOp, Pattern};

use crate::cluster::Cluster;
use crate::config::ClusterConfig;
use crate::layout::BlockAddr;
use crate::methods::{self, NodeLogState, UpdateCtx, UpdateMethod};
use crate::telemetry::{OpClass, Stage};
use tsue::fastmap::FastMap;
use tsue::index::{MergeMode, TwoLevelIndex};
use tsue::payload::Ghost;

/// The Full-Logging driver.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fl;

/// Per-node FL state: one big log with a merged view for recycle/reads.
pub struct FlState {
    /// Merged view of logged data (data node) / deltas (parity node).
    pub log: TwoLevelIndex<u64, Ghost>,
    /// Block addr per key.
    pub addr_of: FastMap<u64, BlockAddr>,
    /// Raw logged bytes.
    pub bytes: u64,
    /// Recycle threshold.
    pub threshold: u64,
    /// Whether a recycle is in progress (appends stall — single log).
    pub recycling: bool,
}

impl FlState {
    /// Fresh FL state.
    pub fn new(cfg: &ClusterConfig) -> FlState {
        FlState {
            log: TwoLevelIndex::new(MergeMode::Overwrite),
            addr_of: FastMap::default(),
            bytes: 0,
            threshold: cfg.fl_threshold_bytes,
            recycling: false,
        }
    }

    /// Read-cache coverage check.
    pub fn covers(&self, addr: BlockAddr, off: u32, len: u32) -> bool {
        self.log.covers(&addr.key(), off, len)
    }
}

impl NodeLogState for FlState {
    fn pending_bytes(&self) -> u64 {
        self.bytes
    }

    fn read_cache_covers(&mut self, addr: BlockAddr, offset: u32, len: u32) -> bool {
        self.covers(addr, offset, len)
    }
}

/// Recycles one node's FL log: fold logged data into blocks (data node
/// role) and logged deltas into parity (parity node role). Returns
/// completion time.
fn recycle_node(cl: &mut Cluster, node: usize, from: SimTime) -> SimTime {
    let (mut contents, addr_of) = match cl.nodes[node].state.downcast_mut::<FlState>() {
        Some(state) => {
            state.bytes = 0;
            // Every key the drained log holds was mapped when it was
            // appended, so the whole map leaves with the log.
            (state.log.drain_all(), std::mem::take(&mut state.addr_of))
        }
        None => return from,
    };
    // The backing index drains in hash order; sorted replay keeps the
    // chained I/O bookings deterministic across threads and processes.
    contents.sort_unstable_by_key(|(k, _)| *k);
    let mut t = from;
    let code = cl.cfg.code;
    for (key, ranges) in contents {
        let addr = addr_of[&key];
        let (bnode, bdev) = cl.layout.locate(addr);
        for (off, g) in ranges {
            let len = g.0 as u64;
            let boff = bdev + off as u64;
            // A failure may have re-homed the block since it was logged:
            // the folded range then crosses the network to its new home.
            let t_at = if bnode != node {
                cl.send(t, node, bnode, len)
            } else {
                t
            };
            // Data blocks: read old + write new. Parity blocks: RMW too.
            t = cl.disk_io(bnode, t_at, IoOp::read(boff, len, Pattern::Random));
            t = cl.disk_io(bnode, t, IoOp::write(boff, len, Pattern::Random));
            if addr.is_data(code) {
                cl.oracle_apply_data(addr, off, g.0);
            } else {
                cl.oracle_apply_parity(addr, off, g.0);
            }
        }
    }
    t
}

impl UpdateMethod for Fl {
    fn name(&self) -> &str {
        "FL"
    }

    fn new_node_state(&self, cfg: &ClusterConfig) -> Box<dyn NodeLogState> {
        Box::new(FlState::new(cfg))
    }

    fn begin_update(&self, sim: &mut Sim<Cluster>, cl: &mut Cluster, ctx: UpdateCtx) {
        let slice = ctx.slice;
        let len = slice.len as u64;
        let (dnode, _) = cl.layout.locate(slice.addr);
        let client_ep = cl.cfg.client_endpoint(ctx.client);

        // Single-log exclusivity: a recycling node cannot accept appends.
        let busy = cl.nodes[dnode]
            .state
            .downcast_ref::<FlState>()
            .is_some_and(|s| s.recycling);
        if busy {
            cl.park_on(
                dnode,
                Box::new(move |sim, cl| methods::begin_update(sim, cl, ctx)),
            );
            return;
        }

        let t_arrive = cl.send(ctx.start_at, client_ep, dnode, len);
        // Append new data to the local log (sequential).
        let log_off = cl.log_offset(dnode, len);
        let t_local = cl.disk_io(
            dnode,
            t_arrive,
            IoOp::write(log_off, len, Pattern::Sequential),
        );
        let mut must_recycle_data = false;
        if let Some(state) = cl.nodes[dnode].state.downcast_mut::<FlState>() {
            let key = slice.addr.key();
            state.log.insert(key, slice.offset, Ghost(slice.len));
            state.addr_of.insert(key, slice.addr);
            state.bytes += len;
            must_recycle_data = state.bytes >= state.threshold;
        }

        // Forward the new data to every parity node's log. Note: the parity
        // *delta* cannot be computed without the old data, so FL logs the data
        // itself — the storage-overhead critique of §2.2.
        let mut t_done = t_local;
        for paddr in cl.layout.parity_addrs(slice.addr.volume, slice.addr.stripe) {
            let (pnode, _) = cl.layout.locate(paddr);
            let t_send = cl.send(t_local, dnode, pnode, len);
            let plog = cl.log_offset(pnode, len);
            let t_append = cl.disk_io(pnode, t_send, IoOp::write(plog, len, Pattern::Sequential));
            if let Some(state) = cl.nodes[pnode].state.downcast_mut::<FlState>() {
                let key = paddr.key();
                state.log.insert(key, slice.offset, Ghost(slice.len));
                state.addr_of.insert(key, paddr);
                state.bytes += len;
            }
            t_done = t_done.max(t_append);
        }

        if must_recycle_data {
            if let Some(state) = cl.nodes[dnode].state.downcast_mut::<FlState>() {
                state.recycling = true;
            }
            let t_rec = recycle_node(cl, dnode, t_done);
            cl.trace_child(Stage::Recycle, dnode, t_done, t_rec);
            sim.schedule_at(t_rec, move |sim, cl: &mut Cluster| {
                if let Some(state) = cl.nodes[dnode].state.downcast_mut::<FlState>() {
                    state.recycling = false;
                }
                cl.wake_waiters(sim, dnode);
            });
        }

        let t_ack = cl.ack(t_done, dnode, client_ep);
        cl.oracle_ack(slice.addr, slice.offset, slice.len);
        cl.trace_op(
            &ctx,
            OpClass::Update,
            &[
                (Stage::NetSend, t_arrive),
                (Stage::LogAppend, t_local),
                (Stage::ParityIo, t_done),
                (Stage::Ack, t_ack),
            ],
        );
        cl.finish_update(sim, ctx, t_ack);
    }

    fn drain(&self, sim: &mut Sim<Cluster>, cl: &mut Cluster) {
        self.drain_until(sim, cl);
    }

    fn drain_until(&self, sim: &mut Sim<Cluster>, cl: &mut Cluster) -> SimTime {
        methods::drain_nodes(sim, cl, recycle_node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::BlockSlice;
    use rscode::CodeParams;
    use std::sync::Arc;

    #[test]
    fn recycle_empties_the_address_map() {
        let code = CodeParams::new(6, 3).unwrap();
        let mut cl = Cluster::new(ClusterConfig::ssd_testbed(code, Arc::new(Fl)));
        let mut sim = Sim::new();
        let addr = |stripe| BlockAddr {
            volume: 0,
            stripe,
            index: 0,
        };
        for stripe in 0..4 {
            let slice = BlockSlice {
                addr: addr(stripe),
                offset: 0,
                len: 4096,
            };
            Fl.begin_update(&mut sim, &mut cl, UpdateCtx::new(0, slice, 0));
        }
        let node = cl.layout.current_node(addr(0));
        let state = |cl: &Cluster| {
            let s = cl.nodes[node].state.downcast_ref::<FlState>().unwrap();
            (s.addr_of.len(), s.bytes)
        };
        assert!(state(&cl).0 > 0, "the update logged its block");
        recycle_node(&mut cl, node, 0);
        assert_eq!(state(&cl), (0, 0), "a recycle leaves no mapped key behind");
        assert!(cl.oracle.applied_data.contains_key(&addr(0)));
    }
}
