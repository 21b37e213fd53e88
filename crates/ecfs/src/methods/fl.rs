//! FL — Full Logging (Azure/GFS style, §2.2): append *everything* — the
//! new data at the data node and a copy at every parity node — to a single
//! large log per device; merge only when space runs out.
//!
//! FL's flaws per the paper: reads must merge log contents (read penalty),
//! log space is huge (defeating erasure coding's storage savings), and the
//! single log structure makes append and recycle mutually exclusive — while
//! a node recycles, its appends stall.

use simdes::{Sim, SimTime};

use crate::cluster::Cluster;
use crate::config::ClusterConfig;
use crate::layout::BlockAddr;
use crate::methods::UpdateCtx;
use crate::telemetry::Stage;
use tsue::index::{MergeMode, TwoLevelIndex};
use tsue::payload::Ghost;

/// Per-node FL state: one big log with a merged view for recycle/reads.
pub struct FlState {
    /// Merged view of logged data (data node) / deltas (parity node), keyed
    /// by the block the records update.
    pub log: TwoLevelIndex<BlockAddr, Ghost>,
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
            bytes: 0,
            threshold: cfg.fl_threshold_bytes,
            recycling: false,
        }
    }

    /// Read-cache coverage check.
    pub fn covers(&self, addr: BlockAddr, off: u32, len: u32) -> bool {
        self.log.covers(&addr, off, len)
    }
}

/// Recycles one node's FL log: fold logged data into blocks (data node
/// role) and logged deltas into parity (parity node role). Returns
/// completion time.
pub(crate) fn recycle_node(cl: &mut Cluster, node: usize, from: SimTime) -> SimTime {
    let state = cl.state_mut::<FlState>(node);
    state.bytes = 0;
    let mut contents = state.log.drain_all();
    // The backing index drains in hash order; sorted replay keeps the
    // chained I/O bookings deterministic across threads and processes.
    contents.sort_unstable_by_key(|(k, _)| *k);
    let mut t = from;
    for (addr, ranges) in contents {
        for (off, g) in ranges {
            t = cl.fold(node, t, addr, off, g.0);
        }
    }
    t
}

/// Runs one FL update and eventually reports its ack via
/// [`Cluster::finish`].
pub(crate) fn begin_update(sim: &mut Sim<Cluster>, cl: &mut Cluster, ctx: UpdateCtx) {
    let slice = ctx.slice;
    let len = slice.len as u64;
    let (dnode, _) = cl.layout.locate(slice.addr);
    let client_ep = cl.cfg.client_endpoint(ctx.client);

    // Single-log exclusivity: a recycling node cannot accept appends.
    if cl.state_mut::<FlState>(dnode).recycling {
        cl.park_on(dnode, ctx);
        return;
    }

    let t_arrive = cl.send(ctx.start_at, client_ep, dnode, len);
    // Append new data to the local log (sequential).
    let t_local = cl.log_append(dnode, t_arrive, len);
    let state = cl.state_mut::<FlState>(dnode);
    state.log.insert(slice.addr, slice.offset, Ghost(slice.len));
    state.bytes += len;
    let must_recycle_data = state.bytes >= state.threshold;

    // Forward the new data to every parity node's log. Note: the parity
    // *delta* cannot be computed without the old data, so FL logs the data
    // itself — the storage-overhead critique of §2.2.
    let mut t_done = t_local;
    for paddr in cl.layout.parity_addrs(slice.addr.volume, slice.addr.stripe) {
        let (pnode, _) = cl.layout.locate(paddr);
        let t_send = cl.send(t_local, dnode, pnode, len);
        let t_append = cl.log_append(pnode, t_send, len);
        let state = cl.state_mut::<FlState>(pnode);
        state.log.insert(paddr, slice.offset, Ghost(slice.len));
        state.bytes += len;
        t_done = t_done.max(t_append);
    }

    if must_recycle_data {
        cl.state_mut::<FlState>(dnode).recycling = true;
        let t_rec = recycle_node(cl, dnode, t_done);
        cl.trace_child(Stage::Recycle, dnode, t_done, t_rec);
        sim.schedule_at(t_rec, move |sim, cl: &mut Cluster| {
            cl.state_mut::<FlState>(dnode).recycling = false;
            cl.wake_waiters(sim, dnode);
        });
    }

    let t_ack = cl.ack(t_done, dnode, client_ep);
    cl.finish(
        sim,
        ctx,
        &[
            (Stage::NetSend, t_arrive),
            (Stage::LogAppend, t_local),
            (Stage::ParityIo, t_done),
            (Stage::Ack, t_ack),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::BlockSlice;
    use crate::methods::Method;
    use rscode::CodeParams;

    #[test]
    fn recycle_empties_the_log_and_applies_its_blocks() {
        let code = CodeParams::new(6, 3).unwrap();
        let mut cl = Cluster::new(ClusterConfig::ssd_testbed(code, Method::Fl));
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
            begin_update(&mut sim, &mut cl, UpdateCtx::new(0, slice, 0));
        }
        let node = cl.layout.current_node(addr(0));
        let state = |cl: &mut Cluster| {
            let s = cl.state_mut::<FlState>(node);
            (s.log.block_keys().count(), s.bytes)
        };
        assert!(state(&mut cl).0 > 0, "the update logged its block");
        recycle_node(&mut cl, node, 0);
        assert_eq!(
            state(&mut cl),
            (0, 0),
            "a recycle leaves no logged block behind"
        );
        let applied = &cl.oracle.applied_data[&addr(0)];
        assert!(
            applied.covers(0, 4096),
            "the logged range was folded in place"
        );
    }
}
