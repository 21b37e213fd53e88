//! Update-method drivers: FO, FL, PL, PLR, PARIX, CoRD, TSUE — and the
//! open [`UpdateMethod`] API that lets out-of-tree methods plug into the
//! same cluster, replay engine, and recovery drills.
//!
//! Every driver implements the [`UpdateMethod`] trait:
//!
//! * [`UpdateMethod::begin_update`] — runs the method's full front-end path
//!   for one sub-block update (time-forwarding style: it books every disk
//!   op and network hop on the shared resources, then reports the ack time
//!   via [`crate::cluster::Cluster::finish_update`]);
//! * [`UpdateMethod::begin_read`] / [`UpdateMethod::begin_write`] — the
//!   read and fresh-write paths (identical across methods except for log
//!   read-caches, so the trait provides them as defaults);
//! * [`UpdateMethod::drain`] — flushes all outstanding log state (end of
//!   run, and the prerequisite for recovery — the paper's consistency
//!   argument in §2.3.2);
//! * [`UpdateMethod::new_node_state`] — the constructor hook producing the
//!   method's per-node log state ([`NodeLogState`]).
//!
//! A method is its driver: the paper's seven are the unit structs
//! re-exported here ([`Fo`], [`Fl`], [`Pl`], [`Plr`], [`Parix`], [`Cord`],
//! [`Tsue`]), listed in Fig. 5 order by [`builtins`], and named by what
//! [`UpdateMethod::name`] returns. Custom methods register with the
//! [`MethodRegistry`] under their own name and need no changes inside this
//! crate — see `crates/ecfs/tests/registry_roundtrip.rs`.

pub mod cord;
pub mod fl;
pub mod fo;
pub mod parix;
pub mod pl;
pub mod plr;
pub mod registry;
pub mod spec;
pub mod tsue_drv;

use std::any::Any;
use std::sync::Arc;

use simdes::{Sim, SimTime};
use simdisk::{IoOp, Pattern};

use crate::cluster::Cluster;
use crate::config::ClusterConfig;
use crate::layout::{BlockAddr, BlockSlice};
use crate::telemetry::{OpClass, Stage};

pub use cord::Cord;
pub use fl::Fl;
pub use fo::Fo;
pub use parix::Parix;
pub use pl::Pl;
pub use plr::Plr;
pub use registry::{build_method, register_method, MethodRegistry, RegistryError};
pub use spec::{Decorator, MethodSpec, ResolveError};
pub use tsue_drv::Tsue;

/// The paper's seven update methods, one driver each, in Fig. 5 order
/// (`FO FL PL PLR PARIX CoRD TSUE`). They seed
/// [`MethodRegistry::with_builtins`], and sweeps iterate them.
pub fn builtins() -> [Arc<dyn UpdateMethod>; 7] {
    [
        Arc::new(Fo),
        Arc::new(Fl),
        Arc::new(Pl),
        Arc::new(Plr),
        Arc::new(Parix),
        Arc::new(Cord),
        Arc::new(Tsue),
    ]
}

/// Per-node, method-specific log state, held as a trait object on every
/// [`crate::cluster::Osd`]. Drivers downcast to their concrete state via
/// [`dyn NodeLogState::downcast_ref`] / [`dyn NodeLogState::downcast_mut`].
pub trait NodeLogState: Any + Send {
    /// Bytes of log state awaiting recycle on this node (drives the drain
    /// loop and the paper's Fig. 6 pending-bytes accounting).
    fn pending_bytes(&self) -> u64 {
        0
    }

    /// In-memory footprint of the node's log structures (Fig. 6b).
    fn memory_bytes(&self) -> u64 {
        0
    }

    /// Whether a read of `[offset, offset + len)` in `addr` can be served
    /// from the method's in-memory log cache, skipping the disk.
    fn read_cache_covers(&mut self, addr: BlockAddr, offset: u32, len: u32) -> bool {
        let _ = (addr, offset, len);
        false
    }

    /// The wrapped state, for decorator states holding another method's
    /// state inside ([`crate::cache::CacheNodeState`]). `None` for every
    /// plain driver state. [`dyn NodeLogState::downcast_ref`] /
    /// [`dyn NodeLogState::downcast_mut`] recurse through this, so a
    /// driver's downcasts keep working unchanged under any decorator stack.
    fn inner(&self) -> Option<&dyn NodeLogState> {
        None
    }

    /// Mutable access to the wrapped state (see [`Self::inner`]).
    fn inner_mut(&mut self) -> Option<&mut dyn NodeLogState> {
        None
    }
}

impl dyn NodeLogState {
    /// Downcasts to a concrete state type, looking through decorator
    /// states ([`NodeLogState::inner`]) until a match is found.
    pub fn downcast_ref<T: NodeLogState>(&self) -> Option<&T> {
        if let Some(t) = (self as &dyn Any).downcast_ref::<T>() {
            return Some(t);
        }
        self.inner().and_then(|s| s.downcast_ref::<T>())
    }

    /// Downcasts to a concrete state type, mutably, looking through
    /// decorator states ([`NodeLogState::inner_mut`]).
    pub fn downcast_mut<T: NodeLogState>(&mut self) -> Option<&mut T> {
        // Two-phase: probing `self` first borrows it mutably for the whole
        // match in NLL terms, so check the type with an immutable probe
        // before committing to either branch.
        if (self as &dyn Any).is::<T>() {
            return (self as &mut dyn Any).downcast_mut::<T>();
        }
        self.inner_mut().and_then(|s| s.downcast_mut::<T>())
    }
}

/// Log state for methods that keep none (FO, and any custom method that
/// acknowledges synchronously).
#[derive(Debug, Default, Clone, Copy)]
pub struct PlainState;

impl NodeLogState for PlainState {}

/// One in-flight client op (a single block slice).
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
    /// Whether this op's completion drives the client's next op. The first
    /// slice of a multi-slice op drives; background remainder slices
    /// complete without touching the closed loop.
    pub drive: bool,
    /// Whether this op is cluster-internal background work rather than a
    /// client op — e.g. a staged write-buffer flush replaying a coalesced
    /// delta through the wrapped method ([`crate::cache`]). Background ops
    /// book I/O and network like any other, but the completion hooks skip
    /// the client-facing counters, latency histograms, and the closed
    /// loop, and `trace_op` attributes them as [`Stage::StageFlush`] child
    /// spans instead of client lifecycle spans.
    pub background: bool,
}

impl UpdateCtx {
    /// A driving op issued (and startable) at `now`.
    pub fn new(client: u64, slice: BlockSlice, now: SimTime) -> UpdateCtx {
        UpdateCtx {
            client,
            slice,
            issued_at: now,
            start_at: now,
            drive: true,
            background: false,
        }
    }

    /// A background (non-client) op startable at `now` — used by the cache
    /// layer's staged flushes. Never drives the closed loop.
    pub fn background(client: u64, slice: BlockSlice, now: SimTime) -> UpdateCtx {
        UpdateCtx {
            client,
            slice,
            issued_at: now,
            start_at: now,
            drive: false,
            background: true,
        }
    }
}

/// An update method: the object-safe contract every driver — built-in or
/// out-of-tree — implements. Methods are stateless handles (all mutable
/// state lives in per-node [`NodeLogState`]), so one `Arc<dyn UpdateMethod>`
/// serves a whole cluster.
pub trait UpdateMethod: Send + Sync + std::fmt::Debug {
    /// Display name (used in results, tables, and registry lookups).
    fn name(&self) -> &str;

    /// Builds the method's per-node log state. The default keeps none.
    fn new_node_state(&self, cfg: &ClusterConfig) -> Box<dyn NodeLogState> {
        let _ = cfg;
        Box::new(PlainState)
    }

    /// Extra device bytes the layout must reserve adjacent to each parity
    /// block (PLR's reserved log space; zero for everything else).
    fn parity_reserved_bytes(&self, cfg: &ClusterConfig) -> u64 {
        let _ = cfg;
        0
    }

    /// Runs the method's full front-end path for one sub-block update and
    /// eventually reports the ack via [`Cluster::finish_update`].
    fn begin_update(&self, sim: &mut Sim<Cluster>, cl: &mut Cluster, ctx: UpdateCtx);

    /// The fresh-write path. The default books the encode-path write shared
    /// by all methods; override only for methods with a custom ingest path.
    fn begin_write(&self, sim: &mut Sim<Cluster>, cl: &mut Cluster, ctx: UpdateCtx) {
        default_begin_write(sim, cl, ctx);
    }

    /// The read path. The default consults [`NodeLogState::read_cache_covers`]
    /// before charging the disk.
    fn begin_read(&self, sim: &mut Sim<Cluster>, cl: &mut Cluster, ctx: UpdateCtx) {
        default_begin_read(sim, cl, ctx);
    }

    /// Schedules the flush of all outstanding log state; the caller runs
    /// the simulation and re-invokes until [`pending_log_bytes`] hits zero.
    fn drain(&self, sim: &mut Sim<Cluster>, cl: &mut Cluster) {
        let _ = (sim, cl);
    }

    /// Schedules replay of the log state outstanding *now* — the paper's
    /// §2.3.2 consistency prerequisite before reconstruction can start —
    /// and returns the simulation time at which that state is durably
    /// applied. Appends arriving later need not be included: mid-replay
    /// repair gates only on the backlog that existed at failure time.
    ///
    /// The default covers methods with no log state (drain is a no-op and
    /// reconstruction can start immediately); deferred-recycling drivers
    /// override it to return their booked flush completion.
    fn drain_until(&self, sim: &mut Sim<Cluster>, cl: &mut Cluster) -> SimTime {
        self.drain(sim, cl);
        sim.now()
    }
}

/// Dispatches an update to the cluster's configured method. On a degraded
/// cluster the dispatch first restores the stripe's write path: blocks
/// homed on dead nodes are rebuilt-and-relocated inline (or freshly placed
/// on live nodes), and the method runs once everything it will touch is
/// live again.
pub fn begin_update(sim: &mut Sim<Cluster>, cl: &mut Cluster, ctx: UpdateCtx) {
    if cl.faults.degraded_mode
        && prepare_write_path(sim, cl, ctx, traces::OpKind::Update, begin_update)
    {
        return;
    }
    let method = Arc::clone(&cl.cfg.method);
    method.begin_update(sim, cl, ctx);
}

/// Dispatches a fresh write to the cluster's configured method (degraded
/// handling as in [`begin_update`]).
pub fn begin_write(sim: &mut Sim<Cluster>, cl: &mut Cluster, ctx: UpdateCtx) {
    if cl.faults.degraded_mode
        && prepare_write_path(sim, cl, ctx, traces::OpKind::Write, begin_write)
    {
        return;
    }
    let method = Arc::clone(&cl.cfg.method);
    method.begin_write(sim, cl, ctx);
}

/// Dispatches a read to the cluster's configured method. A read whose
/// target block sits on a dead node is served degraded: the lost block is
/// decoded from `k` survivors, charged as `k` transfers on the fabric.
pub fn begin_read(sim: &mut Sim<Cluster>, cl: &mut Cluster, ctx: UpdateCtx) {
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
    let method = Arc::clone(&cl.cfg.method);
    method.begin_read(sim, cl, ctx);
}

/// Dispatches a drain to the cluster's configured method. Run the sim to
/// completion afterwards.
pub fn drain(sim: &mut Sim<Cluster>, cl: &mut Cluster) {
    let method = Arc::clone(&cl.cfg.method);
    method.drain(sim, cl);
}

/// Dispatches [`UpdateMethod::drain_until`]: schedules replay of the log
/// backlog outstanding now and returns when it is durably applied.
pub fn drain_until(sim: &mut Sim<Cluster>, cl: &mut Cluster) -> SimTime {
    let method = Arc::clone(&cl.cfg.method);
    method.drain_until(sim, cl)
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
/// * stripe below `k` survivors → the op fails (EIO) and is counted in
///   [`crate::cluster::Metrics::failed_ops`].
///
/// Returns `true` when the op was consumed (deferred behind a rebuild, or
/// failed); `false` when every home is live and the caller should
/// dispatch immediately.
fn prepare_write_path(
    sim: &mut Sim<Cluster>,
    cl: &mut Cluster,
    ctx: UpdateCtx,
    kind: traces::OpKind,
    redispatch: fn(&mut Sim<Cluster>, &mut Cluster, UpdateCtx),
) -> bool {
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
                cl.finish_failed(sim, ctx, kind, ctx.start_at);
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
            redispatch(sim, cl, deferred);
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
            cl.finish_failed(sim, ctx, traces::OpKind::Read, now);
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
    cl.trace_op(
        &ctx,
        OpClass::Read,
        &[(Stage::DiskIo, ready), (Stage::Decode, ready + decode_ns)],
    );
    cl.finish_other(sim, ctx, true, ready + decode_ns);
}

/// The fresh-write path, identical for all methods: the client has already
/// encoded the stripe, so the data lands as a sequential write on the data
/// node plus an amortised `m/k` share of sequential parity writes.
pub fn default_begin_write(sim: &mut Sim<Cluster>, cl: &mut Cluster, ctx: UpdateCtx) {
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
    cl.trace_op(
        &ctx,
        OpClass::Write,
        &[
            (Stage::NetSend, t_arrive.max(t_psend)),
            (Stage::Encode, t_data.max(t_parity)),
            (Stage::Ack, t_done),
        ],
    );
    cl.finish_other(sim, ctx, false, t_done);
}

/// The read path: a log read-cache hit (per [`NodeLogState::read_cache_covers`])
/// skips the disk.
pub fn default_begin_read(sim: &mut Sim<Cluster>, cl: &mut Cluster, ctx: UpdateCtx) {
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
    cl.trace_op(
        &ctx,
        OpClass::Read,
        &[
            (Stage::NetSend, t_arrive),
            (Stage::DiskIo, t_read),
            (Stage::Ack, t_done),
        ],
    );
    cl.finish_other(sim, ctx, true, t_done);
}

/// Bytes of log state still pending across the cluster (drain progress).
/// Includes a sentinel for forwarding events still in flight.
pub fn pending_log_bytes(cl: &Cluster) -> u64 {
    let node_bytes: u64 = cl.nodes.iter().map(|n| n.state.pending_bytes()).sum();
    cl.forwards_in_flight + node_bytes
}
