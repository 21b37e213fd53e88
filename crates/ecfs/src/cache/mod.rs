//! Node-local read cache and write-staging layer, composable over any
//! built-in [`UpdateMethod`] as a decorator.
//!
//! [`Cached`] wraps a built-in driver without the driver knowing: it
//! interposes on the read path with an LRU page cache ([`PageCache`]) and
//! on the update path with a per-node write-coalescing staging buffer
//! that absorbs overlapping 4 KiB updates into one downstream delta. Flushes happen on the simulation timeline —
//! at a size threshold, at an age deadline after the first unflushed
//! byte, and unconditionally at drain.
//!
//! Composition is spelled in the method-spec grammar
//! ([`crate::methods::spec`]), the only way to arm these layers:
//! `"lru(64MiB)+FO"` is FO behind a 64 MiB LRU;
//! `"stage(8MiB,2ms)+lru(64MiB)+PLR"` stages writes *and* caches reads
//! over PLR.
//!
//! Semantics under the consistency oracle: a staged update is acked to
//! the client at arrival (the buffer is the durability point, as in a
//! battery-backed gateway), and the flush replays each coalesced span
//! through the wrapped method as a *background* op
//! ([`UpdateCtx::background`]) — the inner driver applies data and parity
//! exactly as if a client had issued the delta, so every acked range
//! still reaches data + all `m` parity blocks by end of run. Staged
//! bytes count as [`NodeLogState::pending_bytes`], so the replay drain
//! loop flushes staging before declaring quiescence.
//!
//! Flush replays go straight to the wrapped driver, bypassing the
//! degraded-mode dispatch in [`crate::methods::begin_update`], so
//! [`crate::replay::ReplayConfig::validate`] rejects staging armed
//! together with a non-empty fault plan.

pub mod policy;

use std::collections::BTreeMap;
use std::sync::Arc;

use simdes::{Sim, SimTime};

use crate::cluster::{Cluster, IntervalSet};
use crate::config::ClusterConfig;
use crate::layout::{BlockAddr, BlockSlice};
use crate::methods::spec::{Decorator, MethodSpec};
use crate::methods::{NodeLogState, UpdateCtx, UpdateMethod};
use crate::telemetry::{OpClass, Stage};

pub use policy::{PageCache, PAGE_BYTES};

/// One node's write-staging buffer: coalesced byte ranges per block,
/// keyed deterministically (BTreeMap — flush replay order must be
/// identical from run to run).
#[derive(Debug, Default)]
struct StageBuf {
    /// Staged ranges and the last client to touch each block (the flush
    /// replay attributes its background ops to that client endpoint).
    spans: BTreeMap<BlockAddr, (IntervalSet, u64)>,
    /// Post-coalescing staged bytes (the union size across blocks).
    bytes: u64,
    /// Bumped at every flush; an armed age timer fires only if the epoch
    /// it captured is still current.
    epoch: u64,
}

/// Decorator node state: the page cache and staging buffer in front of
/// the wrapped method's own state. [`NodeLogState::inner`] exposes the
/// wrapped state so driver downcasts look straight through this layer.
pub struct CacheNodeState {
    cache: Option<PageCache>,
    stage: Option<StageBuf>,
    wrapped: Box<dyn NodeLogState>,
}

impl NodeLogState for CacheNodeState {
    fn pending_bytes(&self) -> u64 {
        let staged = self.stage.as_ref().map_or(0, |s| s.bytes);
        self.wrapped.pending_bytes() + staged
    }

    fn memory_bytes(&self) -> u64 {
        let cache = self.cache.as_ref().map_or(0, |c| c.memory_bytes());
        // Staged payload plus per-span index overhead.
        let staged = self.stage.as_ref().map_or(0, |s| {
            s.bytes
                + s.spans
                    .values()
                    .map(|(set, _)| set.span_count() as u64 * 48)
                    .sum::<u64>()
        });
        self.wrapped.memory_bytes() + cache + staged
    }

    fn read_cache_covers(&mut self, addr: BlockAddr, offset: u32, len: u32) -> bool {
        // The decorator probes its own cache in `Cached::begin_read`
        // before delegating; only the wrapped method's log cache answers
        // here, so a miss is never double-probed.
        self.wrapped.read_cache_covers(addr, offset, len)
    }

    fn inner(&self) -> Option<&dyn NodeLogState> {
        Some(self.wrapped.as_ref())
    }

    fn inner_mut(&mut self) -> Option<&mut dyn NodeLogState> {
        Some(self.wrapped.as_mut())
    }
}

/// The cache/staging decorator: an [`UpdateMethod`] wrapping another.
///
/// [`crate::methods::build_method`] builds one from a decorated spec
/// string (`"stage(8MiB,2ms)+lru(64MiB)+PLR"`), wrapping a built-in once.
#[derive(Debug)]
pub struct Cached {
    name: String,
    inner: Arc<dyn UpdateMethod>,
    /// `lru(SIZE)`: per-node read-cache capacity in bytes.
    cache_bytes: Option<u64>,
    /// `stage(SIZE,AGE)`: per-node flush threshold in staged
    /// (post-coalescing) bytes, and flush age in nanoseconds after the
    /// first byte staged into an empty buffer.
    stage: Option<(u64, u64)>,
}

impl Cached {
    /// Wraps `inner` in the layers `decorators` arm (as parsed, so valid
    /// and at most one of each). The name renders them in canonical order,
    /// stage before lru, whatever order the spec wrote them in. `inner`
    /// must not be a `Cached`: an outer [`CacheNodeState`] would shadow
    /// the inner one in every downcast. [`crate::methods::build_method`],
    /// the only caller, passes a built-in.
    pub(crate) fn new(inner: Arc<dyn UpdateMethod>, decorators: &[Decorator]) -> Cached {
        let mut cache_bytes = None;
        let mut stage = None;
        for d in decorators {
            match *d {
                Decorator::Cache { bytes } => cache_bytes = Some(bytes),
                Decorator::Stage { bytes, age_ns } => stage = Some((bytes, age_ns)),
            }
        }
        let mut decorators = decorators.to_vec();
        decorators.sort_by_key(|d| matches!(d, Decorator::Cache { .. }));
        let name = MethodSpec {
            decorators,
            base: inner.name().to_string(),
        }
        .to_string();
        Cached {
            name,
            inner,
            cache_bytes,
            stage,
        }
    }

    /// Stages `ctx`'s range on its data node and acks the client. Returns
    /// without staging when staging is off (caller delegates instead).
    fn stage_update(
        &self,
        sim: &mut Sim<Cluster>,
        cl: &mut Cluster,
        ctx: UpdateCtx,
        (flush_bytes, age_ns): (u64, u64),
    ) {
        let slice = ctx.slice;
        let len = slice.len as u64;
        let (node, _dev) = cl.layout.locate(slice.addr);
        let client_ep = cl.cfg.client_endpoint(ctx.client);
        let t_arrive = cl.send(ctx.start_at, client_ep, node, len);
        let t_done = cl.ack(t_arrive, node, client_ep);

        let (added, arm_epoch, flush_now) = {
            let state = cl.nodes[node]
                .state
                .downcast_mut::<CacheNodeState>()
                .expect("staging armed without CacheNodeState");
            if let Some(cache) = &mut state.cache {
                cache.fill(slice.addr, slice.offset, slice.len);
            }
            let sb = state.stage.as_mut().expect("stage_update without buffer");
            let entry = sb
                .spans
                .entry(slice.addr)
                .or_insert_with(|| (IntervalSet::default(), ctx.client));
            entry.1 = ctx.client;
            let before = entry.0.total();
            entry
                .0
                .insert(slice.offset as u64, slice.offset as u64 + len);
            let added = entry.0.total() - before;
            sb.bytes += added;
            // Arm the age timer only on the empty→nonempty transition.
            let arm_epoch = (sb.bytes == added && added > 0).then_some(sb.epoch);
            (added, arm_epoch, sb.bytes >= flush_bytes)
        };

        cl.metrics.staged_bytes += len;
        cl.metrics.coalesced_bytes += len - added;
        cl.oracle_ack(slice.addr, slice.offset, slice.len);
        cl.trace_op(
            &ctx,
            OpClass::Update,
            &[
                (Stage::NetSend, t_arrive),
                (Stage::LogAppend, t_arrive),
                (Stage::Ack, t_done),
            ],
        );
        cl.finish_update(sim, ctx, t_done);

        if flush_now {
            flush_node(sim, cl, &self.inner, node, t_arrive);
        } else if let Some(epoch) = arm_epoch {
            let inner = Arc::clone(&self.inner);
            let deadline = t_arrive + age_ns;
            sim.schedule_at(deadline.max(sim.now()), move |sim, cl: &mut Cluster| {
                let live = cl.nodes[node]
                    .state
                    .downcast_mut::<CacheNodeState>()
                    .and_then(|s| s.stage.as_ref())
                    .is_some_and(|sb| sb.epoch == epoch && sb.bytes > 0);
                if live {
                    let now = sim.now();
                    flush_node(sim, cl, &inner, node, now);
                }
            });
        }
    }
}

/// Flushes `node`'s staging buffer at `now`: every coalesced span replays
/// through the wrapped method as one background update, so the inner
/// driver books the real downstream work (delta transfer, log appends,
/// parity effect) exactly once per merged range.
fn flush_node(
    sim: &mut Sim<Cluster>,
    cl: &mut Cluster,
    inner: &Arc<dyn UpdateMethod>,
    node: usize,
    now: SimTime,
) {
    let spans = {
        let Some(state) = cl.nodes[node].state.downcast_mut::<CacheNodeState>() else {
            return;
        };
        let Some(sb) = state.stage.as_mut() else {
            return;
        };
        sb.epoch += 1;
        sb.bytes = 0;
        std::mem::take(&mut sb.spans)
    };
    if spans.is_empty() {
        return;
    }
    cl.metrics.stage_flushes += 1;
    for (addr, (set, client)) in spans {
        for (start, end) in set.iter() {
            let ctx = UpdateCtx::background(
                client,
                BlockSlice {
                    addr,
                    offset: start as u32,
                    len: (end - start) as u32,
                },
                now,
            );
            inner.begin_update(sim, cl, ctx);
        }
    }
}

/// Flushes every node's staging buffer at `now` (drain entry).
fn flush_all(sim: &mut Sim<Cluster>, cl: &mut Cluster, inner: &Arc<dyn UpdateMethod>) {
    let now = sim.now();
    for node in 0..cl.nodes.len() {
        flush_node(sim, cl, inner, node, now);
    }
}

impl UpdateMethod for Cached {
    fn name(&self) -> &str {
        &self.name
    }

    fn new_node_state(&self, cfg: &ClusterConfig) -> Box<dyn NodeLogState> {
        Box::new(CacheNodeState {
            cache: self.cache_bytes.map(PageCache::new),
            stage: self.stage.map(|_| StageBuf::default()),
            wrapped: self.inner.new_node_state(cfg),
        })
    }

    fn parity_reserved_bytes(&self) -> u64 {
        self.inner.parity_reserved_bytes()
    }

    fn begin_update(&self, sim: &mut Sim<Cluster>, cl: &mut Cluster, ctx: UpdateCtx) {
        if let Some(stage) = self.stage {
            self.stage_update(sim, cl, ctx, stage);
            return;
        }
        // Cache-only: write-allocate so subsequent reads hit, then run
        // the wrapped method's real update path unchanged.
        let (node, _dev) = cl.layout.locate(ctx.slice.addr);
        if let Some(cache) = cl.nodes[node]
            .state
            .downcast_mut::<CacheNodeState>()
            .and_then(|s| s.cache.as_mut())
        {
            cache.fill(ctx.slice.addr, ctx.slice.offset, ctx.slice.len);
        }
        self.inner.begin_update(sim, cl, ctx);
    }

    fn begin_write(&self, sim: &mut Sim<Cluster>, cl: &mut Cluster, ctx: UpdateCtx) {
        let (node, _dev) = cl.layout.locate(ctx.slice.addr);
        if let Some(cache) = cl.nodes[node]
            .state
            .downcast_mut::<CacheNodeState>()
            .and_then(|s| s.cache.as_mut())
        {
            cache.fill(ctx.slice.addr, ctx.slice.offset, ctx.slice.len);
        }
        self.inner.begin_write(sim, cl, ctx);
    }

    fn begin_read(&self, sim: &mut Sim<Cluster>, cl: &mut Cluster, ctx: UpdateCtx) {
        let slice = ctx.slice;
        let (node, _dev) = cl.layout.locate(slice.addr);
        let hit = {
            let Some(state) = cl.nodes[node].state.downcast_mut::<CacheNodeState>() else {
                self.inner.begin_read(sim, cl, ctx);
                return;
            };
            let staged = state.stage.as_ref().is_some_and(|sb| {
                sb.spans.get(&slice.addr).is_some_and(|(set, _)| {
                    set.covers(slice.offset as u64, slice.offset as u64 + slice.len as u64)
                })
            });
            let hit = staged
                || state
                    .cache
                    .as_mut()
                    .is_some_and(|c| c.probe(slice.addr, slice.offset, slice.len));
            if !hit {
                // Read-allocate: the range is resident once the wrapped
                // method's read completes.
                if let Some(cache) = state.cache.as_mut() {
                    cache.fill(slice.addr, slice.offset, slice.len);
                }
            }
            hit
        };
        cl.metrics.cache_lookups += 1;
        if !hit {
            self.inner.begin_read(sim, cl, ctx);
            return;
        }
        cl.metrics.cache_hits += 1;
        let len = slice.len as u64;
        let client_ep = cl.cfg.client_endpoint(ctx.client);
        let t_arrive = cl.ack(ctx.start_at, client_ep, node);
        let t_done = cl.send(t_arrive, node, client_ep, len);
        cl.trace_op(
            &ctx,
            OpClass::Read,
            &[
                (Stage::NetSend, t_arrive),
                (Stage::CacheHit, t_arrive),
                (Stage::Ack, t_done),
            ],
        );
        cl.finish_other(sim, ctx, true, t_done);
    }

    fn drain(&self, sim: &mut Sim<Cluster>, cl: &mut Cluster) {
        flush_all(sim, cl, &self.inner);
        self.inner.drain(sim, cl);
    }

    fn drain_until(&self, sim: &mut Sim<Cluster>, cl: &mut Cluster) -> SimTime {
        flush_all(sim, cl, &self.inner);
        self.inner.drain_until(sim, cl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{build_method, Fo};

    fn build(spec: &str) -> Arc<dyn UpdateMethod> {
        build_method(&MethodSpec::parse(spec).unwrap()).unwrap()
    }

    #[test]
    fn wrap_is_identity_with_no_layers() {
        let fo = build("fo");
        assert_eq!(fo.name(), "FO");
        assert_eq!(format!("{fo:?}"), format!("{Fo:?}"));
    }

    #[test]
    fn wrap_name_is_a_parseable_spec() {
        let m = build("lru(64MiB)+stage(8MiB,2ms)+plr");
        assert_eq!(m.name(), "stage(8MiB,2ms)+lru(64MiB)+PLR");
        let spec = MethodSpec::parse(m.name()).unwrap();
        assert_eq!(spec.decorators.len(), 2);
        assert_eq!(spec.base, "PLR");
    }

    #[test]
    fn node_state_looks_through_to_wrapped() {
        let m = build("lru(1MiB)+TSUE");
        let cfg =
            crate::config::ClusterConfig::ssd_testbed(rscode::CodeParams::new(6, 3).unwrap(), m);
        let mut state = cfg.method.new_node_state(&cfg);
        assert!(state.downcast_ref::<CacheNodeState>().is_some());
        // TSUE's own state must remain reachable through the decorator.
        assert!(state
            .downcast_ref::<crate::methods::tsue_drv::TsueState>()
            .is_some());
        assert!(state
            .downcast_mut::<crate::methods::tsue_drv::TsueState>()
            .is_some());
    }
}
