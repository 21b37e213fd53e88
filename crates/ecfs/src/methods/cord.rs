//! CoRD (Zhou et al., SC '24): data deltas from all blocks of a stripe are
//! aggregated at a *collector* node, which merges same-offset deltas
//! (Eq. 5) to minimise network traffic before applying them to parity.
//!
//! The paper's critique, which this driver reproduces: the collector's
//! single fixed-size buffer log ignores concurrency — while it flushes,
//! every incoming delta for that collector *waits* ("the recycling process
//! becomes a bottleneck that limits update performance"), and each update
//! still pays the data-block write-after-read.

use simdes::{Sim, SimTime};
use simdisk::{IoOp, Pattern};

use crate::cluster::Cluster;
use crate::config::ClusterConfig;
use crate::layout::{stripe_key, stripe_of};
use crate::methods::{self, NodeLogState, UpdateCtx, UpdateMethod};
use crate::telemetry::{OpClass, Stage};
use tsue::index::{MergeMode, TwoLevelIndex};
use tsue::payload::Ghost;

/// The CoRD collector-aggregation driver.
#[derive(Debug, Clone, Copy, Default)]
pub struct Cord;

/// Per-node collector state (only populated on nodes that collect for some
/// stripe — every node, in general, since collectors rotate with stripes).
pub struct CordState {
    /// Same-offset deltas across the stripe's blocks XOR-merge here —
    /// keyed by stripe, so Eq. 5's cross-block collapse happens at insert.
    pub buffer: TwoLevelIndex<u64, Ghost>,
    /// Raw bytes appended since the last flush.
    pub buffered: u64,
    /// Buffer capacity before a foreground flush.
    pub capacity: u64,
    /// Whether a flush is in progress (appends must wait).
    pub flushing: bool,
}

impl CordState {
    /// Fresh collector state.
    pub fn new(cfg: &ClusterConfig) -> CordState {
        CordState {
            buffer: TwoLevelIndex::new(MergeMode::Xor),
            buffered: 0,
            capacity: cfg.cord_buffer_for(),
            flushing: false,
        }
    }
}

impl NodeLogState for CordState {
    fn pending_bytes(&self) -> u64 {
        self.buffered
    }
}

/// The collector for a stripe: the node hosting its first parity block.
fn collector_of(cl: &mut Cluster, volume: u32, stripe: u64) -> usize {
    let paddr = cl
        .layout
        .parity_addrs(volume, stripe)
        .next()
        .expect("a code has at least one parity block");
    cl.layout.locate(paddr).0
}

/// Flushes a collector's buffer: per merged stripe-range, ship one combined
/// delta to each parity node and RMW the parity block. Returns completion.
fn flush_collector(cl: &mut Cluster, node: usize, from: SimTime) -> SimTime {
    let mut contents = match cl.nodes[node].state.downcast_mut::<CordState>() {
        Some(state) => {
            state.buffered = 0;
            state.buffer.drain_all()
        }
        None => return from,
    };
    // The backing index drains in hash order; sorted replay keeps the
    // chained I/O bookings deterministic across threads and processes.
    contents.sort_unstable_by_key(|(k, _)| *k);
    let mut t_done = from;
    for (skey, ranges) in contents {
        let (volume, stripe) = stripe_of(skey);
        for paddr in cl.layout.parity_addrs(volume, stripe) {
            let (pnode, pdev) = cl.layout.locate(paddr);
            let mut t = from;
            for (off, g) in &ranges {
                let len = g.0 as u64;
                let t_send = cl.send(t, node, pnode, len);
                let poff = pdev + *off as u64;
                let t_pr = cl.disk_io(pnode, t_send, IoOp::read(poff, len, Pattern::Random));
                t = cl.disk_io(pnode, t_pr, IoOp::write(poff, len, Pattern::Random));
                cl.oracle_apply_parity(paddr, *off, g.0);
            }
            t_done = t_done.max(t);
        }
    }
    t_done
}

impl UpdateMethod for Cord {
    fn name(&self) -> &str {
        "CoRD"
    }

    fn new_node_state(&self, cfg: &ClusterConfig) -> Box<dyn NodeLogState> {
        Box::new(CordState::new(cfg))
    }

    fn begin_update(&self, sim: &mut Sim<Cluster>, cl: &mut Cluster, ctx: UpdateCtx) {
        let slice = ctx.slice;
        let len = slice.len as u64;
        let (dnode, ddev) = cl.layout.locate(slice.addr);
        let client_ep = cl.cfg.client_endpoint(ctx.client);

        let t_arrive = cl.send(ctx.start_at, client_ep, dnode, len);
        // Write-after-read on the data block (CoRD keeps the delta path).
        let off = ddev + slice.offset as u64;
        let t_read = cl.disk_io(dnode, t_arrive, IoOp::read(off, len, Pattern::Random));
        let t_write = cl.disk_io(dnode, t_read, IoOp::write(off, len, Pattern::Random));
        cl.oracle_apply_data(slice.addr, slice.offset, slice.len);

        // Ship the delta to the stripe's collector.
        let collector = collector_of(cl, slice.addr.volume, slice.addr.stripe);
        let t_delta = cl.send(t_write, dnode, collector, len);

        // The collector's single buffer: if it is flushing, the append (and the
        // client's ack) waits for the whole flush. The flush is triggered in
        // the foreground when the buffer fills.
        let flushing = cl.nodes[collector]
            .state
            .downcast_ref::<CordState>()
            .is_some_and(|s| s.flushing);
        if flushing {
            // Park and retry when the flush completes.
            cl.park_on(
                collector,
                Box::new(move |sim, cl| methods::begin_update(sim, cl, ctx)),
            );
            return;
        }

        let skey = stripe_key(slice.addr.volume, slice.addr.stripe);
        let must_flush = match cl.nodes[collector].state.downcast_mut::<CordState>() {
            Some(state) => {
                state.buffer.insert(skey, slice.offset, Ghost(slice.len));
                state.buffered += len;
                state.buffered >= state.capacity
            }
            None => false,
        };
        // Persist the buffered delta (sequential log write on the collector).
        let log_off = cl.log_offset(collector, len);
        let mut t_logged = cl.disk_io(
            collector,
            t_delta,
            IoOp::write(log_off, len, Pattern::Sequential),
        );

        if must_flush {
            if let Some(state) = cl.nodes[collector].state.downcast_mut::<CordState>() {
                state.flushing = true;
            }
            let t_flush = flush_collector(cl, collector, t_logged);
            cl.trace_child(Stage::Recycle, collector, t_logged, t_flush);
            t_logged = t_flush;
            // Unblock parked updates once the flush finishes.
            sim.schedule_at(t_flush, move |sim, cl: &mut Cluster| {
                if let Some(state) = cl.nodes[collector].state.downcast_mut::<CordState>() {
                    state.flushing = false;
                }
                cl.wake_waiters(sim, collector);
            });
        }

        let t_ack = cl.ack(t_logged, collector, client_ep);
        cl.oracle_ack(slice.addr, slice.offset, slice.len);
        cl.trace_op(
            &ctx,
            OpClass::Update,
            &[
                (Stage::NetSend, t_arrive),
                (Stage::DiskIo, t_write),
                (Stage::LogAppend, t_logged),
                (Stage::Ack, t_ack),
            ],
        );
        cl.finish_update(sim, ctx, t_ack);
    }

    fn drain(&self, sim: &mut Sim<Cluster>, cl: &mut Cluster) {
        self.drain_until(sim, cl);
    }

    fn drain_until(&self, sim: &mut Sim<Cluster>, cl: &mut Cluster) -> SimTime {
        let now = sim.now();
        let mut t_end = now;
        for node in 0..cl.cfg.nodes {
            let t_node = flush_collector(cl, node, now);
            if t_node > now {
                cl.trace_child(Stage::Recycle, node, now, t_node);
            }
            t_end = t_end.max(t_node);
        }
        sim.schedule_at(t_end, |_, _| {});
        t_end
    }
}
