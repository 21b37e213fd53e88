//! The API-openness acceptance test: a custom [`UpdateMethod`] defined
//! entirely *outside* `crates/ecfs` is passed by handle to the config
//! builder and replays a full trace — states, dispatch, drain, and the
//! consistency oracle all flowing through trait objects.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ecfs::prelude::*;
use simdes::Sim;
use simdisk::{IoOp, Pattern};

/// A deliberately fictional method: one sequential data write, parity
/// "teleported" into place with zero I/O. Useful precisely because no
/// built-in behaves like it — if this replays consistently, the dispatch
/// path is truly open.
#[derive(Debug, Default)]
struct Teleport {
    /// Updates routed through this driver (proves *this* code ran).
    updates: Arc<AtomicU64>,
}

/// Per-node state for the custom method (exercises the constructor hook
/// and trait-object state storage).
#[derive(Debug, Default)]
struct TeleportState {
    appended: u64,
}

impl NodeLogState for TeleportState {
    fn memory_bytes(&self) -> u64 {
        self.appended
    }
}

impl UpdateMethod for Teleport {
    fn name(&self) -> &str {
        "TELEPORT"
    }

    fn new_node_state(&self, _cfg: &ClusterConfig) -> Box<dyn NodeLogState> {
        Box::<TeleportState>::default()
    }

    fn begin_update(&self, sim: &mut Sim<Cluster>, cl: &mut Cluster, ctx: UpdateCtx) {
        let slice = ctx.slice;
        let len = slice.len as u64;
        let (dnode, ddev) = cl.layout.locate(slice.addr);
        let client_ep = cl.cfg.client_endpoint(ctx.client);

        let t_arrive = cl.send(ctx.start_at, client_ep, dnode, len);
        let t_write = cl.disk_io(
            dnode,
            t_arrive,
            IoOp::write(ddev + slice.offset as u64, len, Pattern::Sequential),
        );
        cl.oracle_apply_data(slice.addr, slice.offset, slice.len);
        for paddr in cl.layout.parity_addrs(slice.addr.volume, slice.addr.stripe) {
            cl.oracle_apply_parity(paddr, slice.offset, slice.len);
        }
        cl.state_mut::<TeleportState>(dnode).appended += len;
        self.updates.fetch_add(1, Ordering::Relaxed);

        let t_ack = cl.ack(t_write, dnode, client_ep);
        cl.finish(sim, ctx, t_ack);
    }
}

#[test]
fn custom_method_replays_by_handle() {
    let driver = Teleport::default();
    let updates = Arc::clone(&driver.updates);

    let cluster = ClusterConfig::builder()
        .code(CodeParams::new(4, 2).unwrap())
        .method(Arc::new(driver))
        .nodes(8)
        .clients(4)
        .build()
        .expect("valid config");
    assert_eq!(cluster.method.name(), "TELEPORT");

    let rcfg = ReplayConfig::builder(cluster, TraceFamily::AliCloud)
        .ops_per_client(300)
        .volume_bytes(32 << 20)
        .build()
        .expect("valid replay config");

    let res = Replay::run(&rcfg).result;
    assert_eq!(res.method, "TELEPORT");
    assert_eq!(
        res.oracle_violations, 0,
        "custom method must stay consistent"
    );
    assert!(res.completed_updates > 0);
    assert_eq!(
        res.completed_updates + res.completed_reads + res.completed_writes,
        4 * 300,
        "every op must complete"
    );
    // The driver defined in THIS file handled the updates (ops crossing a
    // block boundary dispatch once per slice, so the driver may see more
    // invocations than completed ops).
    assert!(updates.load(Ordering::Relaxed) >= res.completed_updates);
    // Its per-node state carried through replay: the log-memory metric the
    // harvest reads comes from TeleportState::memory_bytes.
    assert!(
        res.log_memory_bytes > 0,
        "custom node state must be consulted"
    );
}

/// The read cache is a cluster setting, so it arms under a method defined
/// outside the crate just as under a built-in: reads hit, and the oracle
/// stays clean.
#[test]
fn read_cache_arms_under_a_custom_method() {
    let cluster = ClusterConfig::builder()
        .code(CodeParams::new(4, 2).unwrap())
        .method(Arc::new(Teleport::default()))
        .nodes(8)
        .clients(4)
        .read_cache_bytes(1 << 20)
        .build()
        .expect("valid config");
    let rcfg = ReplayConfig::builder(cluster, TraceFamily::AliCloud)
        .ops_per_client(300)
        .volume_bytes(32 << 20)
        .build()
        .expect("valid replay config");

    let res = Replay::run(&rcfg).result;
    assert_eq!(res.method, "TELEPORT");
    assert_eq!(res.oracle_violations, 0);
    assert!(res.cache_lookups > 0, "reads bypassed the cache");
    assert!(res.cache_hits > 0, "the cache never hit");
}
