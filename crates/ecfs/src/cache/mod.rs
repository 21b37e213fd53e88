//! Node-local LRU read cache, a cluster plane under any update method.
//!
//! [`crate::config::ClusterConfig::read_cache_bytes`] arms one
//! [`PageCache`] per node ([`crate::cluster::Osd::cache`]); `None`, the
//! default, arms none. A read whose every page is resident is served from
//! memory, with no disk touched; a miss fills the range and takes the
//! normal read path. Updates and fresh writes fill the cache and then run
//! the method's own path unchanged, so every update is acked exactly when
//! the method acks it. The method never sees the cache: it is separate
//! from a method's log read cache
//! ([`crate::methods::NodeState::read_cache_covers`], TSUE's DataLog).

pub mod policy;

use simdes::Sim;

use crate::cluster::Cluster;
use crate::methods::UpdateCtx;
use crate::telemetry::Stage;

pub use policy::{PageCache, PAGE_BYTES};

/// Write-allocates `ctx`'s range in its data node's cache, so later reads
/// of it hit. A no-op, with no layout lookup, when no cache is armed.
pub(crate) fn fill(cl: &mut Cluster, ctx: &UpdateCtx) {
    // `locate` places a block on first touch: an uncached run must not
    // call it here, or device offsets would move.
    if cl.cfg.read_cache_bytes.is_none() {
        return;
    }
    let slice = ctx.slice;
    let (node, _dev) = cl.layout.locate(slice.addr);
    if let Some(cache) = cl.nodes[node].cache.as_mut() {
        cache.fill(slice.addr, slice.offset, slice.len);
    }
}

/// Serves `ctx`'s read from its data node's cache when every page is
/// resident, and returns `true`. On a miss the range is read-allocated (it
/// is resident once the disk read completes) and the caller reads it;
/// `false` as well when no cache is armed.
pub(crate) fn serve_read(sim: &mut Sim<Cluster>, cl: &mut Cluster, ctx: UpdateCtx) -> bool {
    if cl.cfg.read_cache_bytes.is_none() {
        return false;
    }
    let slice = ctx.slice;
    let (node, _dev) = cl.layout.locate(slice.addr);
    let Some(cache) = cl.nodes[node].cache.as_mut() else {
        return false;
    };
    let hit = cache.probe(slice.addr, slice.offset, slice.len);
    if !hit {
        cache.fill(slice.addr, slice.offset, slice.len);
    }
    cl.metrics.cache_lookups += 1;
    if !hit {
        return false;
    }
    cl.metrics.cache_hits += 1;
    let client_ep = cl.cfg.client_endpoint(ctx.client);
    let t_arrive = cl.ack(ctx.start_at, client_ep, node);
    let t_done = cl.send(t_arrive, node, client_ep, slice.len as u64);
    cl.finish(
        sim,
        ctx,
        &[
            (Stage::NetSend, t_arrive),
            (Stage::CacheHit, t_arrive),
            (Stage::Ack, t_done),
        ],
    );
    true
}

#[cfg(test)]
mod tests {

    use crate::config::ClusterConfig;
    use crate::methods::tsue_drv::TsueState;
    use crate::methods::Method;

    /// Arming the cache gives every node its own page cache, and the
    /// node's log state is still the driver's own type.
    #[test]
    fn node_state_stays_the_drivers_own_under_a_cache() {
        let code = rscode::CodeParams::new(6, 3).unwrap();
        let mut cfg = ClusterConfig::ssd_testbed(code, Method::Tsue);
        assert!(crate::Cluster::new(cfg.clone())
            .nodes
            .iter()
            .all(|n| n.cache.is_none()));
        cfg.read_cache_bytes = Some(1 << 20);
        let mut cl = crate::Cluster::new(cfg);
        for node in 0..cl.cfg.nodes {
            assert!(cl.nodes[node].cache.is_some());
            cl.state_mut::<TsueState>(node);
        }
    }
}
