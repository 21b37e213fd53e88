//! PL — Parity Logging (Stodolsky et al.): in-place data update, parity
//! deltas appended to per-device parity logs; recycle deferred until a
//! space threshold or a failure (§2.2).
//!
//! PL's strength on SSDs is exactly this deferral: "PL's extensive parity
//! log space allows recycling to be indefinitely delayed without affecting
//! update performance" (§5.2) — so during a run PL pays only the data-block
//! write-after-read plus `m` sequential log appends. The cost surfaces at
//! drain/recovery time, when every logged delta is read-modify-written into
//! its parity block *without* locality merging.

use simdes::{Sim, SimTime};
use simdisk::{IoOp, Pattern};

use crate::cluster::Cluster;
use crate::layout::BlockAddr;
use crate::methods::UpdateCtx;
use crate::telemetry::Stage;

/// One logged parity delta.
#[derive(Debug, Clone, Copy)]
pub struct PlRecord {
    /// The parity block the delta belongs to.
    pub parity: BlockAddr,
    /// Offset within the parity block.
    pub offset: u32,
    /// Delta length.
    pub len: u32,
}

/// Per-node parity-log state.
#[derive(Debug, Default)]
pub struct PlState {
    /// Appended deltas in arrival order (PL does not index or merge them).
    pub records: Vec<PlRecord>,
    /// Raw logged bytes.
    pub bytes: u64,
}

/// Runs one PL update and eventually reports its ack via
/// [`Cluster::finish`].
pub(crate) fn begin_update(sim: &mut Sim<Cluster>, cl: &mut Cluster, ctx: UpdateCtx) {
    let slice = ctx.slice;
    let len = slice.len as u64;
    let (dnode, ddev) = cl.layout.locate(slice.addr);
    let client_ep = cl.cfg.client_endpoint(ctx.client);

    let t_arrive = cl.send(ctx.start_at, client_ep, dnode, len);
    // Write-after-read on the data block.
    let t_write = cl.rmw(dnode, t_arrive, ddev + slice.offset as u64, len);
    cl.oracle_apply_data(slice.addr, slice.offset, slice.len);

    // Parity deltas go to logs: sequential appends.
    let mut t_done = t_write;
    for paddr in cl.layout.parity_addrs(slice.addr.volume, slice.addr.stripe) {
        let (pnode, _) = cl.layout.locate(paddr);
        let t_delta = cl.send(t_write, dnode, pnode, len);
        let t_append = cl.log_append(pnode, t_delta, len);
        let state = cl.state_mut::<PlState>(pnode);
        state.records.push(PlRecord {
            parity: paddr,
            offset: slice.offset,
            len: slice.len,
        });
        state.bytes += len;
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

/// Recycles the parity log of one node starting at `from`; returns the
/// completion time. Every record costs a random read of the logged delta
/// plus a read-modify-write of the parity block — PL's recycle storm.
pub(crate) fn recycle_node(cl: &mut Cluster, node: usize, from: SimTime) -> SimTime {
    let state = cl.state_mut::<PlState>(node);
    state.bytes = 0;
    let records = std::mem::take(&mut state.records);
    let mut t = from;
    for rec in records {
        let len = rec.len as u64;
        // Read the delta back from the log (random: the log interleaves
        // deltas of many parity blocks).
        let log_off = cl.log_offset(node, len);
        let t_delta = cl.disk_io(node, t, IoOp::read(log_off, len, Pattern::Random));
        t = cl.fold(node, t_delta, rec.parity, rec.offset, rec.len);
    }
    t
}
