//! Node-local LRU read cache, composable over any built-in
//! [`UpdateMethod`] as a decorator.
//!
//! [`Cached`] wraps a built-in driver without the driver knowing: it
//! interposes on the read path with an LRU page cache ([`PageCache`]). A
//! read whose every page is resident is served from memory, with no disk
//! touched; a miss runs the wrapped method's read and then fills the
//! range. Updates and fresh writes fill the cache and run the wrapped
//! method's own path unchanged, so every update is acked exactly when the
//! wrapped method acks it.
//!
//! Composition is spelled in the method-spec grammar
//! ([`crate::methods::spec`]), the only way to arm the cache:
//! `"lru(64MiB)+FO"` is FO behind a 64 MiB LRU per node.

pub mod policy;

use std::sync::Arc;

use simdes::{Sim, SimTime};

use crate::cluster::Cluster;
use crate::config::ClusterConfig;
use crate::layout::BlockAddr;
use crate::methods::spec::MethodSpec;
use crate::methods::{NodeLogState, UpdateCtx, UpdateMethod};
use crate::telemetry::{OpClass, Stage};

pub use policy::{PageCache, PAGE_BYTES};

/// Decorator node state: the page cache in front of the wrapped method's
/// own state. [`NodeLogState::inner`] exposes the wrapped state so driver
/// downcasts look straight through this layer.
pub struct CacheNodeState {
    cache: PageCache,
    wrapped: Box<dyn NodeLogState>,
}

impl NodeLogState for CacheNodeState {
    fn pending_bytes(&self) -> u64 {
        self.wrapped.pending_bytes()
    }

    fn memory_bytes(&self) -> u64 {
        self.wrapped.memory_bytes() + self.cache.memory_bytes()
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

/// The read-cache decorator: an [`UpdateMethod`] wrapping another.
///
/// [`crate::methods::build_method`] builds one from a decorated spec
/// string (`"lru(64MiB)+PLR"`), wrapping a built-in once.
#[derive(Debug)]
pub struct Cached {
    name: String,
    inner: Arc<dyn UpdateMethod>,
    /// `lru(SIZE)`: per-node read-cache capacity in bytes.
    cache_bytes: u64,
}

impl Cached {
    /// Wraps `inner` behind a `cache_bytes` LRU per node. `inner` must not
    /// be a `Cached`: an outer [`CacheNodeState`] would shadow the inner
    /// one in every downcast. [`crate::methods::build_method`], the only
    /// caller, passes a built-in.
    pub(crate) fn new(inner: Arc<dyn UpdateMethod>, cache_bytes: u64) -> Cached {
        let name = MethodSpec {
            lru: Some(cache_bytes),
            base: inner.name().to_string(),
        }
        .to_string();
        Cached {
            name,
            inner,
            cache_bytes,
        }
    }

    /// Write-allocates `ctx`'s range in its data node's cache, so later
    /// reads of it hit.
    fn fill(cl: &mut Cluster, ctx: &UpdateCtx) {
        let (node, _dev) = cl.layout.locate(ctx.slice.addr);
        if let Some(state) = cl.nodes[node].state.downcast_mut::<CacheNodeState>() {
            state
                .cache
                .fill(ctx.slice.addr, ctx.slice.offset, ctx.slice.len);
        }
    }
}

impl UpdateMethod for Cached {
    fn name(&self) -> &str {
        &self.name
    }

    fn new_node_state(&self, cfg: &ClusterConfig) -> Box<dyn NodeLogState> {
        Box::new(CacheNodeState {
            cache: PageCache::new(self.cache_bytes),
            wrapped: self.inner.new_node_state(cfg),
        })
    }

    fn parity_reserved_bytes(&self) -> u64 {
        self.inner.parity_reserved_bytes()
    }

    fn begin_update(&self, sim: &mut Sim<Cluster>, cl: &mut Cluster, ctx: UpdateCtx) {
        Self::fill(cl, &ctx);
        self.inner.begin_update(sim, cl, ctx);
    }

    fn begin_write(&self, sim: &mut Sim<Cluster>, cl: &mut Cluster, ctx: UpdateCtx) {
        Self::fill(cl, &ctx);
        self.inner.begin_write(sim, cl, ctx);
    }

    fn begin_read(&self, sim: &mut Sim<Cluster>, cl: &mut Cluster, ctx: UpdateCtx) {
        let slice = ctx.slice;
        let (node, _dev) = cl.layout.locate(slice.addr);
        let Some(state) = cl.nodes[node].state.downcast_mut::<CacheNodeState>() else {
            self.inner.begin_read(sim, cl, ctx);
            return;
        };
        let hit = state.cache.probe(slice.addr, slice.offset, slice.len);
        if !hit {
            // Read-allocate: the range is resident once the wrapped
            // method's read completes.
            state.cache.fill(slice.addr, slice.offset, slice.len);
        }
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
        self.inner.drain(sim, cl);
    }

    fn drain_until(&self, sim: &mut Sim<Cluster>, cl: &mut Cluster) -> SimTime {
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
        let m = build("LRU(65536KiB)+plr");
        assert_eq!(m.name(), "lru(64MiB)+PLR");
        let spec = MethodSpec::parse(m.name()).unwrap();
        assert_eq!(spec.lru, Some(64 << 20));
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
