//! Update-method drivers: FO, FL, PL, PLR, PARIX, CoRD, TSUE.
//!
//! [`Method`] names the paper's seven methods, in Fig. 5 order
//! ([`Method::ALL`]); [`Method::name`] is what results report, and
//! [`crate::config::ClusterConfigBuilder::method_name`] parses it in any
//! case. Each method's driver is one module of free functions, and the
//! dispatchers here match on the cluster's method:
//!
//! * [`begin`] — runs the method's full front-end path for one sub-block
//!   update (time-forwarding style: it books every disk op and network
//!   hop on the shared resources, then reports the slice's trace marks,
//!   the last of which is its ack, via `Cluster::finish`);
//! * [`drain`] — flushes all outstanding log state (end of run, and the
//!   prerequisite for recovery — the paper's consistency argument in
//!   §2.3.2); [`drain_until`] replays only the backlog outstanding now;
//! * [`Method::parity_reserved_bytes`] — device space the layout reserves
//!   beside each parity block (PLR's).
//!
//! A method's per-node log state is its [`NodeState`] variant.
//!
//! Drivers speak one booking vocabulary, the crate-private verbs on
//! [`Cluster`]: `rmw` for a random read and the write that depends on it
//! (the in-place cost FO, PL, PLR, PARIX and CoRD pay), `log_append` for
//! a sequential log write (the cost TSUE turns it into), `fold` for a
//! logged range applied at its block's current home (FL's, PL's and
//! TSUE's recycles), and `move_block` / `rehome` for a block copied into
//! another node's log region and re-homed (rebalance, rebuilds), plus
//! [`Cluster::send`], `ack` and, for any other shape, `disk_io`.
//!
//! Reads and fresh writes take one path for every method ([`begin`]): a
//! read consults the method's log read cache
//! ([`NodeState::read_cache_covers`]) before the disk. The node-local
//! LRU read cache ([`crate::cache`]) is a cluster setting, not a method:
//! [`ClusterConfig::read_cache_bytes`] arms it under any method.

pub mod cord;
pub mod fl;
pub mod fo;
pub mod parix;
pub mod pl;
pub mod plr;
pub mod tsue_drv;

use simdes::{Sim, SimTime};
use simdisk::{IoOp, Pattern};
use traces::OpKind;

use crate::cluster::Cluster;
use crate::config::{ClusterConfig, ConfigError};
use crate::layout::{BlockAddr, BlockSlice};
use crate::telemetry::Stage;

use cord::CordState;
use fl::FlState;
use parix::ParixState;
use pl::PlState;
use plr::PlrState;
use tsue_drv::TsueState;

/// An update method: one of the paper's seven, declared in Fig. 5 order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Full Overwrite ([`fo`]).
    Fo,
    /// Full Logging ([`fl`]).
    Fl,
    /// Parity Logging ([`pl`]).
    Pl,
    /// Parity Logging with Reserved space ([`plr`]).
    Plr,
    /// Speculative partial writes ([`parix`]).
    Parix,
    /// Collector aggregation ([`cord`]).
    Cord,
    /// The paper's two-stage update ([`tsue_drv`]).
    Tsue,
}

impl Method {
    /// The seven methods in Fig. 5 order (`FO FL PL PLR PARIX CoRD TSUE`).
    pub const ALL: [Method; 7] = [
        Method::Fo,
        Method::Fl,
        Method::Pl,
        Method::Plr,
        Method::Parix,
        Method::Cord,
        Method::Tsue,
    ];

    /// Display name, as results and tables report it.
    pub fn name(self) -> &'static str {
        match self {
            Method::Fo => "FO",
            Method::Fl => "FL",
            Method::Pl => "PL",
            Method::Plr => "PLR",
            Method::Parix => "PARIX",
            Method::Cord => "CoRD",
            Method::Tsue => "TSUE",
        }
    }

    /// Extra device bytes the layout must reserve adjacent to each parity
    /// block (PLR's reserved log space; zero for everything else).
    pub fn parity_reserved_bytes(self) -> u64 {
        match self {
            Method::Plr => plr::RESERVED_BYTES,
            _ => 0,
        }
    }

    /// Builds the method's per-node log state.
    pub(crate) fn new_node_state(self, cfg: &ClusterConfig) -> NodeState {
        match self {
            Method::Fo => NodeState::Plain,
            Method::Fl => NodeState::Fl(FlState::new(cfg)),
            Method::Pl => NodeState::Pl(PlState::default()),
            Method::Plr => NodeState::Plr(PlrState::default()),
            Method::Parix => NodeState::Parix(ParixState::default()),
            Method::Cord => NodeState::Cord(CordState::new(cfg)),
            Method::Tsue => NodeState::Tsue(TsueState::new(cfg)),
        }
    }
}

impl std::str::FromStr for Method {
    type Err = ConfigError;

    /// The method whose [`Method::name`] is `name`, ignoring ASCII case;
    /// an unknown name's error lists the seven.
    fn from_str(name: &str) -> Result<Method, ConfigError> {
        if let Some(m) = Method::ALL
            .into_iter()
            .find(|m| m.name().eq_ignore_ascii_case(name))
        {
            return Ok(m);
        }
        let names: Vec<&str> = Method::ALL.iter().map(|m| m.name()).collect();
        Err(ConfigError(format!(
            "unknown update method {name:?} (expected one of {})",
            names.join(", ")
        )))
    }
}

/// Per-node log state, held on every [`crate::cluster::Osd`]: one variant
/// per method that keeps any. A driver reaches its own variant through
/// `Cluster::state_mut`, which panics on any other.
pub enum NodeState {
    /// FO keeps no log state.
    Plain,
    /// FL's single log.
    Fl(FlState),
    /// PL's parity log.
    Pl(PlState),
    /// PLR's reserved regions.
    Plr(PlrState),
    /// PARIX's first-touch set and parity log.
    Parix(ParixState),
    /// CoRD's collector buffer.
    Cord(CordState),
    /// TSUE's three log-pool sets.
    Tsue(TsueState),
}

impl NodeState {
    /// Bytes of log state awaiting recycle on this node (drives the drain
    /// loop and the paper's Fig. 6 pending-bytes accounting).
    pub fn pending_bytes(&self) -> u64 {
        match self {
            NodeState::Plain => 0,
            NodeState::Fl(s) => s.bytes,
            NodeState::Pl(s) => s.bytes,
            NodeState::Plr(s) => s.reserved.values().map(|r| r.used).sum(),
            NodeState::Parix(s) => s.bytes,
            NodeState::Cord(s) => s.buffered,
            NodeState::Tsue(s) => s.pending_bytes(),
        }
    }

    /// In-memory footprint of the node's log structures (Fig. 6b).
    pub fn memory_bytes(&self) -> u64 {
        match self {
            NodeState::Tsue(s) => s.memory_bytes(),
            _ => 0,
        }
    }

    /// Whether a read of `[offset, offset + len)` in `addr` can be served
    /// from the method's in-memory log cache, skipping the disk.
    pub fn read_cache_covers(&self, addr: BlockAddr, offset: u32, len: u32) -> bool {
        match self {
            NodeState::Fl(s) => s.covers(addr, offset, len),
            NodeState::Tsue(s) => s.read_cache_covers(addr, offset, len),
            _ => false,
        }
    }
}

/// A driver's own [`NodeState`] variant, as [`Cluster::state_mut`] asks
/// for it.
pub(crate) trait OwnState {
    /// `state`'s payload, when `state` is this type's variant.
    fn of(state: &mut NodeState) -> Option<&mut Self>;
}

macro_rules! own_state {
    ($($variant:ident($ty:ty)),+ $(,)?) => {$(
        impl OwnState for $ty {
            fn of(state: &mut NodeState) -> Option<&mut Self> {
                match state {
                    NodeState::$variant(s) => Some(s),
                    _ => None,
                }
            }
        }
    )+};
}

own_state!(
    Fl(FlState),
    Pl(PlState),
    Plr(PlrState),
    Parix(ParixState),
    Cord(CordState),
    Tsue(TsueState),
);

/// One block slice of an in-flight client op.
#[derive(Debug, Clone, Copy)]
pub struct UpdateCtx {
    /// Issuing client.
    pub client: u64,
    /// The block range being updated.
    pub slice: BlockSlice,
    /// Issue time — the latency anchor: client-observed latency is always
    /// measured from here.
    pub issued_at: SimTime,
    /// When service may begin. Equals [`Self::issued_at`] on the normal
    /// path; the degraded dispatch pushes it forward when the op first had
    /// to wait for an inline rebuild, so the rebuild delay lands in the
    /// client's latency without letting the method book I/O in the past.
    pub start_at: SimTime,
    /// What the op does; its completion is counted under this kind.
    pub kind: OpKind,
    /// The join of an op that spans blocks
    /// ([`crate::cluster::Cluster::finish`] completes the op at its last
    /// slice); `None` for a one-slice op.
    pub(crate) join: Option<u32>,
}

impl UpdateCtx {
    /// A one-slice update issued (and startable) at `now`.
    pub fn new(client: u64, slice: BlockSlice, now: SimTime) -> UpdateCtx {
        UpdateCtx {
            client,
            slice,
            issued_at: now,
            start_at: now,
            kind: OpKind::Update,
            join: None,
        }
    }
}

/// Dispatches a slice by its op's kind. An update runs the cluster's
/// configured method and a fresh write the encode-path write every method
/// shares. On a degraded cluster both first restore the stripe's write
/// path: blocks homed on dead nodes are rebuilt-and-relocated inline (or
/// freshly placed on live nodes), and the slice runs once everything it
/// will touch is live again. An armed read cache ([`crate::cache`]) takes
/// the range first, so later reads of it hit.
pub fn begin(sim: &mut Sim<Cluster>, cl: &mut Cluster, ctx: UpdateCtx) {
    if ctx.kind == OpKind::Read {
        return begin_read(sim, cl, ctx);
    }
    if cl.faults.degraded_mode && prepare_write_path(sim, cl, ctx) {
        return;
    }
    crate::cache::fill(cl, &ctx);
    if ctx.kind == OpKind::Write {
        return write_path(sim, cl, ctx);
    }
    match cl.cfg.method {
        Method::Fo => fo::begin_update(sim, cl, ctx),
        Method::Fl => fl::begin_update(sim, cl, ctx),
        Method::Pl => pl::begin_update(sim, cl, ctx),
        Method::Plr => plr::begin_update(sim, cl, ctx),
        Method::Parix => parix::begin_update(sim, cl, ctx),
        Method::Cord => cord::begin_update(sim, cl, ctx),
        Method::Tsue => tsue_drv::begin_update(sim, cl, ctx),
    }
}

/// A read whose target block sits on a dead node is served degraded: the
/// lost block is decoded from `k` survivors, charged as `k` transfers on
/// the fabric. Otherwise an armed read cache ([`crate::cache`]) serves a
/// hit from memory, and a miss reads the disk unless the method's own log
/// read cache covers the range.
fn begin_read(sim: &mut Sim<Cluster>, cl: &mut Cluster, ctx: UpdateCtx) {
    if cl.faults.degraded_mode {
        let addr = ctx.slice.addr;
        let home = cl.layout.current_node(addr);
        if cl.nodes[home].failed {
            if cl.layout.is_placed(addr) {
                degraded_read(sim, cl, ctx);
                return;
            }
            // Never written: nothing to decode. The MDS homes it on a
            // live node and the read proceeds normally.
            let target = cl.next_live_target(home);
            cl.layout.place_on(addr, target);
        }
    }
    if crate::cache::serve_read(sim, cl, ctx) {
        return;
    }
    read_path(sim, cl, ctx);
}

/// Schedules the flush of all outstanding log state; [`drain_all`] runs
/// the simulation and re-invokes until [`pending_log_bytes`] hits zero.
/// Every method but TSUE flushes what [`drain_until`] would; TSUE ticks
/// until its logs are empty.
pub fn drain(sim: &mut Sim<Cluster>, cl: &mut Cluster) {
    match cl.cfg.method {
        Method::Tsue => tsue_drv::drain_tick(sim, cl, SimTime::MAX),
        _ => {
            drain_until(sim, cl);
        }
    }
}

/// Drains to quiescence: dispatches [`drain`] and runs the simulation
/// until no log bytes remain pending.
///
/// # Panics
/// Panics if the logs are not empty after 1 000 rounds.
pub fn drain_all(sim: &mut Sim<Cluster>, cl: &mut Cluster) {
    let mut guard = 0;
    loop {
        drain(sim, cl);
        sim.run(cl);
        if pending_log_bytes(cl) == 0 {
            return;
        }
        guard += 1;
        assert!(guard < 1000, "drain did not converge");
    }
}

/// Schedules replay of the log state outstanding *now* — the paper's
/// §2.3.2 consistency prerequisite before reconstruction can start — and
/// returns the simulation time at which that state is durably applied.
/// Appends arriving later need not be included: mid-replay repair gates
/// only on the backlog that existed at failure time. FO keeps no log, so
/// reconstruction can start immediately.
pub fn drain_until(sim: &mut Sim<Cluster>, cl: &mut Cluster) -> SimTime {
    match cl.cfg.method {
        Method::Fo => sim.now(),
        Method::Fl => drain_nodes(sim, cl, fl::recycle_node),
        Method::Pl => drain_nodes(sim, cl, pl::recycle_node),
        Method::Plr => drain_nodes(sim, cl, plr::recycle_node),
        Method::Parix => parix::drain_until(sim, cl),
        Method::Cord => drain_nodes(sim, cl, cord::flush_collector),
        Method::Tsue => tsue_drv::drain_until(sim, cl),
    }
}

/// The drain of a deferred-recycling driver: replays every node's backlog
/// with the driver's `recycle_node` from the simulation present, traces
/// each node's replay as a [`Stage::Recycle`] span, and advances the clock
/// to the last completion, which it returns.
fn drain_nodes(
    sim: &mut Sim<Cluster>,
    cl: &mut Cluster,
    recycle_node: fn(&mut Cluster, usize, SimTime) -> SimTime,
) -> SimTime {
    let now = sim.now();
    let mut t_end = now;
    for node in 0..cl.cfg.nodes {
        let t_node = recycle_node(cl, node, now);
        if t_node > now {
            cl.trace_child(Stage::Recycle, node, now, t_node);
        }
        t_end = t_end.max(t_node);
    }
    sim.schedule_at(t_end, |_, _| {});
    t_end
}

/// Restores the write path of `ctx`'s stripe on a degraded cluster: every
/// block the update path may touch (the data block and all `m` parity
/// blocks) must live on a live node before the method books I/O.
///
/// * dead home, never written → the block is re-homed onto a live node at
///   metadata cost only;
/// * dead home, written → the block is rebuilt inline from `k` survivors
///   (write-triggered recovery, racing the background repair scheduler)
///   and relocated to its rebuild target;
/// * stripe below `k` survivors → the slice fails (EIO) through
///   [`Cluster::finish_failed`], which counts its op in
///   [`crate::cluster::Metrics::failed_ops`].
///
/// Returns `true` when the op was consumed (deferred behind a rebuild, or
/// failed); `false` when every home is live and the caller should
/// dispatch immediately.
fn prepare_write_path(sim: &mut Sim<Cluster>, cl: &mut Cluster, ctx: UpdateCtx) -> bool {
    let addr = ctx.slice.addr;
    let k = cl.cfg.code.k() as u16;
    let parities = (k..k + cl.cfg.code.m() as u16).map(|index| BlockAddr { index, ..addr });
    let mut ready = ctx.start_at;
    for a in std::iter::once(addr).chain(parities) {
        let home = cl.layout.current_node(a);
        if !cl.nodes[home].failed {
            continue;
        }
        if !cl.layout.is_placed(a) {
            let target = cl.next_live_target(home);
            cl.layout.place_on(a, target);
            continue;
        }
        match crate::recovery::rebuild_block(cl, a, ctx.start_at) {
            Ok(t_rebuilt) => {
                cl.faults.inline_rebuilds += 1;
                ready = ready.max(t_rebuilt);
            }
            Err(_) => {
                cl.finish_failed(sim, ctx, ctx.start_at);
                return true;
            }
        }
    }
    if ready > ctx.start_at {
        // The op waited for its stripe to heal: re-enter the dispatch at
        // the rebuild's completion with the wait charged to the client.
        let mut deferred = ctx;
        deferred.start_at = ready;
        sim.schedule_at(ready.max(sim.now()), move |sim, cl: &mut Cluster| {
            begin(sim, cl, deferred);
        });
        return true;
    }
    false
}

/// Serves a read of a block whose home died before it could be rebuilt:
/// the client gathers the addressed range from `k` surviving blocks of the
/// stripe (each a disk read plus a transfer on the shared fabric) and
/// decodes the lost range locally.
fn degraded_read(sim: &mut Sim<Cluster>, cl: &mut Cluster, ctx: UpdateCtx) {
    let slice = ctx.slice;
    let len = slice.len as u64;
    let k = cl.cfg.code.k();
    let client_ep = cl.cfg.client_endpoint(ctx.client);
    let now = ctx.start_at;

    let survivors = match crate::recovery::select_survivors(cl, slice.addr) {
        Ok(s) => s,
        Err(_) => {
            // The stripe lost more than m blocks: unrecoverable, EIO.
            cl.finish_failed(sim, ctx, now);
            return;
        }
    };

    let mut ready = now;
    for saddr in survivors {
        let (snode, sdev) = cl.layout.locate(saddr);
        let t_req = cl.ack(now, client_ep, snode);
        let t_read = cl.disk_io(
            snode,
            t_req,
            IoOp::read(sdev + slice.offset as u64, len, Pattern::Random),
        );
        let t_recv = cl.send(t_read, snode, client_ep, len);
        ready = ready.max(t_recv);
    }
    // Decoding combines k inputs per output byte (~10 GB/s per stream).
    let decode_ns = len * k as u64 / 10;
    cl.metrics.degraded_reads += 1;
    cl.metrics.degraded_bytes_decoded += len;
    cl.finish(
        sim,
        ctx,
        &[(Stage::DiskIo, ready), (Stage::Decode, ready + decode_ns)],
    );
}

/// The fresh-write path, identical for all methods: the client has already
/// encoded the stripe, so the data lands as a sequential write on the data
/// node plus an amortised `m/k` share of sequential parity writes.
fn write_path(sim: &mut Sim<Cluster>, cl: &mut Cluster, ctx: UpdateCtx) {
    let (node, dev_off) = cl.layout.locate(ctx.slice.addr);
    let len = ctx.slice.len as u64;
    let now = ctx.start_at;
    let client_ep = cl.cfg.client_endpoint(ctx.client);
    let t_arrive = cl.send(now, client_ep, node, len);
    let t_data = cl.disk_io(
        node,
        t_arrive,
        IoOp::write(dev_off + ctx.slice.offset as u64, len, Pattern::Sequential),
    );
    // Amortised parity share: the encoded parity written alongside.
    let pshare = (len * cl.cfg.code.m() as u64 / cl.cfg.code.k() as u64).max(1);
    let mut parity_addrs = cl
        .layout
        .parity_addrs(ctx.slice.addr.volume, ctx.slice.addr.stripe);
    let p0 = parity_addrs
        .nth(ctx.slice.addr.stripe as usize % parity_addrs.len())
        .expect("a code has at least one parity block");
    let (pnode, pdev) = cl.layout.locate(p0);
    let t_psend = cl.send(now, client_ep, pnode, pshare);
    let poff = pdev + (ctx.slice.offset as u64 % cl.cfg.block_bytes.saturating_sub(pshare).max(1));
    let t_parity = cl.disk_io(
        pnode,
        t_psend,
        IoOp::write(poff, pshare, Pattern::Sequential),
    );
    let t_done = cl.ack(t_data.max(t_parity), node, client_ep);
    cl.finish(
        sim,
        ctx,
        &[
            (Stage::NetSend, t_arrive.max(t_psend)),
            (Stage::Encode, t_data.max(t_parity)),
            (Stage::Ack, t_done),
        ],
    );
}

/// The read path: a log read-cache hit (per [`NodeState::read_cache_covers`])
/// skips the disk.
fn read_path(sim: &mut Sim<Cluster>, cl: &mut Cluster, ctx: UpdateCtx) {
    let (node, dev_off) = cl.layout.locate(ctx.slice.addr);
    let len = ctx.slice.len as u64;
    let now = ctx.start_at;
    let client_ep = cl.cfg.client_endpoint(ctx.client);
    let t_arrive = cl.ack(now, client_ep, node);

    // Check the method's read cache.
    let cache_hit =
        cl.nodes[node]
            .state
            .read_cache_covers(ctx.slice.addr, ctx.slice.offset, ctx.slice.len);
    let t_read = if cache_hit {
        cl.metrics.cache_read_hits += 1;
        t_arrive // served from memory
    } else {
        cl.disk_io(
            node,
            t_arrive,
            IoOp::read(dev_off + ctx.slice.offset as u64, len, Pattern::Random),
        )
    };
    let t_done = cl.send(t_read, node, client_ep, len);
    cl.finish(
        sim,
        ctx,
        &[
            (Stage::NetSend, t_arrive),
            (Stage::DiskIo, t_read),
            (Stage::Ack, t_done),
        ],
    );
}

/// Bytes of log state still pending across the cluster (drain progress).
/// Includes a sentinel for forwarding events still in flight.
pub fn pending_log_bytes(cl: &Cluster) -> u64 {
    let node_bytes: u64 = cl.nodes.iter().map(|n| n.state.pending_bytes()).sum();
    cl.forwards_in_flight + node_bytes
}
