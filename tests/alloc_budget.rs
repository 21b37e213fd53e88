//! The replay's op path as an exact allocation count. A counting global
//! allocator tallies the heap allocations (fresh and resized) the test
//! thread makes while a small closed-loop cell replays, one cell per
//! built-in method. The budget is the *marginal* count: the cell runs at
//! two lengths and the difference is divided by the extra completed ops,
//! so cluster construction and workload generation, which do not grow
//! with the run, drop out.
//!
//! Allocations are counted per thread, so the harness's other threads do
//! not leak into a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ecfs::prelude::*;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards unchanged to the system allocator; the
// counter is a const-initialised thread-local `Cell` that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and completed client ops of one closed-loop replay.
fn replay(method: Arc<dyn UpdateMethod>, ops_per_client: usize) -> (u64, u64) {
    let code = CodeParams::new(6, 3).unwrap();
    let mut cluster = ClusterConfig::ssd_testbed(code, method);
    cluster.clients = 4;
    let mut rcfg = ReplayConfig::new(cluster, TraceFamily::AliCloud);
    rcfg.ops_per_client = ops_per_client;
    rcfg.volume_bytes = 32 << 20;
    let before = ALLOCATIONS.with(Cell::get);
    let r = Replay::run(&rcfg).result;
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(r.oracle_violations, 0, "{}", r.method);
    (
        allocations,
        r.completed_updates + r.completed_reads + r.completed_writes,
    )
}

/// Marginal allocations per completed op between a 300- and a 900-op run.
fn allocations_per_op(method: Arc<dyn UpdateMethod>) -> f64 {
    let (short_allocs, short_ops) = replay(Arc::clone(&method), 300);
    let (long_allocs, long_ops) = replay(method, 900);
    (long_allocs - short_allocs) as f64 / (long_ops - short_ops) as f64
}

/// FO and PL allocate nothing per op of their own: what is left is the
/// amortised growth of per-block maps and interval sets. The other
/// methods' logs allocate as they index and recycle; their bounds pin
/// today's counts so a regression shows.
#[test]
fn op_path_allocations_stay_within_budget() {
    // (method, bound, marginal allocations per op before the op path
    // stopped allocating its slice and parity lists and hashing through
    // a reverse stripe map)
    let budgets: [(Arc<dyn UpdateMethod>, f64, f64); 7] = [
        (Arc::new(Fo), 0.1, 1.888),
        (Arc::new(Fl), 7.0, 8.259),
        (Arc::new(Pl), 0.1, 1.897),
        (Arc::new(Plr), 1.0, 2.628),
        (Arc::new(Parix), 5.5, 6.647),
        (Arc::new(Cord), 2.0, 3.374),
        (Arc::new(Tsue), 2.5, 3.212),
    ];
    let mut over = Vec::new();
    for (method, bound, before) in budgets {
        let name = method.name().to_string();
        let per_op = allocations_per_op(method);
        eprintln!("{name}: {per_op:.3} allocations per op (bound {bound}, was {before})");
        if per_op > bound {
            over.push(format!("{name} {per_op:.3} > {bound}"));
        }
    }
    assert!(over.is_empty(), "over the allocation budget: {over:?}");
}
