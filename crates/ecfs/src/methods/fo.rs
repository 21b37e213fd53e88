//! FO — Full Overwrite (Aguilera et al.): in-place updates of the data
//! block *and* every parity block, all on the synchronous path.
//!
//! The longest update path of all methods (§2.2, Fig. 1): a write-after-read
//! on the data block to compute the delta, then a write-after-read on each
//! of the `m` parity blocks. Every access is small and random. No logs, so
//! nothing to drain and recovery starts immediately.

use simdes::Sim;

use crate::cluster::Cluster;
use crate::methods::UpdateCtx;
use crate::telemetry::Stage;

/// Runs one FO update: data and every parity read-modify-written in place.
pub(crate) fn begin_update(sim: &mut Sim<Cluster>, cl: &mut Cluster, ctx: UpdateCtx) {
    let slice = ctx.slice;
    let len = slice.len as u64;
    let (dnode, ddev) = cl.layout.locate(slice.addr);
    let client_ep = cl.cfg.client_endpoint(ctx.client);

    // Client -> data node.
    let t_arrive = cl.send(ctx.start_at, client_ep, dnode, len);
    // Write-after-read on the data block (delta computation, Eq. 2).
    let t_write = cl.rmw(dnode, t_arrive, ddev + slice.offset as u64, len);
    cl.oracle_apply_data(slice.addr, slice.offset, slice.len);

    // Parity deltas fan out; each parity block is read-modify-written in
    // place. The ack waits for the slowest parity.
    let mut t_done = t_write;
    for paddr in cl.layout.parity_addrs(slice.addr.volume, slice.addr.stripe) {
        let (pnode, pdev) = cl.layout.locate(paddr);
        let t_delta = cl.send(t_write, dnode, pnode, len);
        let t_pw = cl.rmw(pnode, t_delta, pdev + slice.offset as u64, len);
        cl.oracle_apply_parity(paddr, slice.offset, slice.len);
        t_done = t_done.max(t_pw);
    }

    let t_ack = cl.ack(t_done, dnode, client_ep);
    cl.finish(
        sim,
        ctx,
        &[
            (Stage::NetSend, t_arrive),
            (Stage::DiskIo, t_write),
            (Stage::ParityIo, t_done),
            (Stage::Ack, t_ack),
        ],
    );
}
