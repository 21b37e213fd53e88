//! PLR — Parity Logging with Reserved space (Chan et al., FAST '14):
//! parity deltas land in a small log region *adjacent to each parity
//! block* (§2.2).
//!
//! The adjacency makes recycling cheap on HDDs (no long seek between log
//! and parity), but it costs PLR dearly on SSDs: appends scatter across the
//! per-parity-block reserved regions — "the distribution of log spaces
//! adjacent to parity blocks across different locations of the storage
//! device leads to random access during the appending operation" — and the
//! small reserved space forces frequent *foreground* recycles that land on
//! the update's critical path. This is why PLR is the slowest method on the
//! paper's SSD cluster (Fig. 5).

use simdes::{Sim, SimTime};
use simdisk::{IoOp, Pattern};
use tsue::fastmap::FastMap;

use crate::cluster::Cluster;
use crate::layout::BlockAddr;
use crate::methods::UpdateCtx;
use crate::telemetry::Stage;

/// Reserved log space adjacent to each parity block, in bytes.
pub(crate) const RESERVED_BYTES: u64 = 256 << 10;

/// Pending deltas in one parity block's reserved region.
#[derive(Debug, Default, Clone)]
pub struct Reserved {
    /// Bytes used in the reserved region.
    pub used: u64,
    /// Logged `(offset, len)` deltas.
    pub pending: Vec<(u32, u32)>,
}

/// Per-node PLR state.
#[derive(Debug, Default)]
pub struct PlrState {
    /// Reserved-region occupancy per parity block hosted here.
    pub reserved: FastMap<BlockAddr, Reserved>,
}

/// Applies one parity block's reserved log (tracked on `node`): read
/// deltas + RMW the parity block at its *current* home — a failure may
/// have re-homed the block, in which case the replayed deltas cross the
/// network to the rebuild target. Returns completion time.
fn recycle_reserved(cl: &mut Cluster, node: usize, paddr: BlockAddr, from: SimTime) -> SimTime {
    let r = cl
        .state_mut::<PlrState>(node)
        .reserved
        .entry(paddr)
        .or_default();
    let used = std::mem::take(&mut r.used);
    let pending = std::mem::take(&mut r.pending);
    if pending.is_empty() {
        return from;
    }
    let (pnode, pdev) = cl.layout.locate(paddr);
    let block = cl.cfg.block_bytes;
    // The reserved region sits directly after the parity block, so reading
    // it back is one access with a short seek (sequential-ish). The logged
    // deltas live on `node`; when the block was re-homed by a rebuild they
    // cross the network to its new host before being applied.
    let mut t = cl.disk_io(
        node,
        from,
        IoOp::read(pdev + block, used.max(1), Pattern::Sequential),
    );
    if pnode != node {
        t = cl.send(t, node, pnode, used.max(1));
    }
    // Apply each logged delta: parity read-modify-write (random within the
    // block; PLR has no merging index).
    for (off, len) in pending {
        t = cl.rmw(pnode, t, pdev + off as u64, len as u64);
        cl.oracle_apply_parity(paddr, off, len);
    }
    // The reserved region is a *fixed* device extent: reusing it requires
    // erasing its flash blocks (no FTL remapping for in-place log space).
    // This is PLR's lifespan and latency killer on SSDs.
    cl.nodes[pnode]
        .disk
        .erase_region(t, pdev + block, RESERVED_BYTES)
}

/// Applies every reserved log tracked on `node`, one parity block after
/// another from `from`. Returns completion time.
pub(crate) fn recycle_node(cl: &mut Cluster, node: usize, from: SimTime) -> SimTime {
    let mut addrs: Vec<BlockAddr> = cl
        .state_mut::<PlrState>(node)
        .reserved
        .keys()
        .copied()
        .collect();
    // HashMap iteration order is nondeterministic; sorted replay keeps the
    // drain reproducible.
    addrs.sort_unstable();
    let mut t = from;
    for paddr in addrs {
        t = recycle_reserved(cl, node, paddr, t);
    }
    t
}

/// Runs one PLR update and eventually reports its ack via
/// [`Cluster::finish`].
pub(crate) fn begin_update(sim: &mut Sim<Cluster>, cl: &mut Cluster, ctx: UpdateCtx) {
    let slice = ctx.slice;
    let len = slice.len as u64;
    let (dnode, ddev) = cl.layout.locate(slice.addr);
    let client_ep = cl.cfg.client_endpoint(ctx.client);

    let t_arrive = cl.send(ctx.start_at, client_ep, dnode, len);
    let t_write = cl.rmw(dnode, t_arrive, ddev + slice.offset as u64, len);
    cl.oracle_apply_data(slice.addr, slice.offset, slice.len);

    let block = cl.cfg.block_bytes;
    let mut t_done = t_write;
    for paddr in cl.layout.parity_addrs(slice.addr.volume, slice.addr.stripe) {
        let (pnode, pdev) = cl.layout.locate(paddr);
        let t_delta = cl.send(t_write, dnode, pnode, len);

        // Does the reserved region overflow? Then recycle it *first*, in
        // the foreground — the PLR critical-path penalty.
        let r = cl
            .state_mut::<PlrState>(pnode)
            .reserved
            .entry(paddr)
            .or_default();
        let needs_recycle = r.used + len > RESERVED_BYTES;
        let t_space = if needs_recycle {
            let t_rec = recycle_reserved(cl, pnode, paddr, t_delta);
            cl.trace_child(Stage::Recycle, pnode, t_delta, t_rec);
            t_rec
        } else {
            t_delta
        };

        // Append into the reserved region: a *random* write from the
        // device's point of view (regions are scattered).
        let r = cl
            .state_mut::<PlrState>(pnode)
            .reserved
            .entry(paddr)
            .or_default();
        let append_off = pdev + block + r.used;
        r.used += len;
        r.pending.push((slice.offset, slice.len));
        let t_append = cl.disk_io(
            pnode,
            t_space,
            IoOp::write(append_off, len, Pattern::Random),
        );
        t_done = t_done.max(t_append);
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
