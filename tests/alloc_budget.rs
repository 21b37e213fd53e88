//! The replay's op path as an exact allocation count. A counting global
//! allocator tallies the heap allocations (fresh and resized) the test
//! thread makes while a small cell replays: a closed-loop cell per
//! method, and open-loop cells for FO and TSUE. The budget is the
//! *marginal* count: the cell runs at two lengths and the difference is
//! divided by the extra completed ops, so cluster construction and
//! workload generation, which do not grow with the run, drop out.
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

/// A small replay cell: 32 MiB volumes on an RS(6, 3) SSD testbed.
fn cell(method: Method, clients: u64) -> ReplayConfig {
    let code = CodeParams::new(6, 3).unwrap();
    let mut cluster = ClusterConfig::ssd_testbed(code, method);
    cluster.clients = clients;
    let mut rcfg = ReplayConfig::new(cluster, TraceFamily::AliCloud);
    rcfg.volume_bytes = 32 << 20;
    rcfg
}

/// Allocations and completed client ops of one replay.
fn replay(rcfg: &ReplayConfig) -> (u64, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = Replay::run(rcfg).result;
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    assert_eq!(r.oracle_violations, 0, "{}", r.method);
    (
        allocations,
        r.completed_updates + r.completed_reads + r.completed_writes,
    )
}

/// Marginal allocations per completed op between two runs of one cell.
fn marginal(short: &ReplayConfig, long: &ReplayConfig) -> f64 {
    let (short_allocs, short_ops) = replay(short);
    let (long_allocs, long_ops) = replay(long);
    (long_allocs - short_allocs) as f64 / (long_ops - short_ops) as f64
}

/// Marginal allocations per completed op between a 300- and a 900-op
/// closed-loop run of 4 clients.
fn allocations_per_op(method: Method) -> f64 {
    let mut short = cell(method, 4);
    short.ops_per_client = 300;
    let mut long = short.clone();
    long.ops_per_client = 900;
    marginal(&short, &long)
}

/// Marginal allocations per completed op between 1 200 and 3 600 ops
/// offered open-loop: Poisson arrivals at 8 000 ops/s over 16 clients,
/// each holding at most 4 ops outstanding.
fn open_loop_allocations_per_op(method: Method) -> f64 {
    let mut short = cell(method, 16);
    short.workload = Workload::Open(OpenLoopSpec::poisson(8_000.0).with_window(4));
    short.total_ops = Some(1_200);
    let mut long = short.clone();
    long.total_ops = Some(3_600);
    marginal(&short, &long)
}

/// Checks each `(method, bound, before)` budget and lists the methods over
/// their bound.
fn over_budget(budgets: Vec<(Method, f64, f64)>, per_op: fn(Method) -> f64) -> Vec<String> {
    let mut over = Vec::new();
    for (method, bound, before) in budgets {
        let name = method.name().to_string();
        let per_op = per_op(method);
        eprintln!("{name}: {per_op:.3} allocations per op (bound {bound}, was {before})");
        if per_op > bound {
            over.push(format!("{name} {per_op:.3} > {bound}"));
        }
    }
    over
}

/// FO and PL allocate nothing per op of their own: what is left is the
/// amortised growth of per-block maps and interval sets. The log-based
/// methods' index inserts allocate nothing either, so what they have left
/// is recycling and their logs' growth; each bound pins today's count so
/// a regression shows.
#[test]
fn op_path_allocations_stay_within_budget() {
    // (method, bound, marginal allocations per op before the log index
    // kept each block's ranges in a sorted vector)
    let budgets: Vec<(Method, f64, f64)> = vec![
        (Method::Fo, 0.05, 0.022),
        (Method::Fl, 0.05, 0.080),
        (Method::Pl, 0.05, 0.030),
        (Method::Plr, 1.0, 0.762),
        (Method::Parix, 0.3, 0.130),
        (Method::Cord, 0.05, 0.048),
        (Method::Tsue, 0.8, 0.364),
    ];
    let over = over_budget(budgets, allocations_per_op);
    assert!(over.is_empty(), "over the allocation budget: {over:?}");
}

/// The open loop adds admission to the op path: an op admitted on arrival
/// is issued directly, so it allocates no queue of its own. FO then
/// allocates about as little as on the closed loop; what TSUE has left is
/// its logs.
#[test]
fn open_loop_allocations_stay_within_budget() {
    // (method, bound, marginal allocations per op when every admitted
    // arrival passed through a freshly allocated client queue)
    let budgets: Vec<(Method, f64, f64)> =
        vec![(Method::Fo, 0.1, 1.064), (Method::Tsue, 0.6, 1.495)];
    let over = over_budget(budgets, open_loop_allocations_per_op);
    assert!(
        over.is_empty(),
        "over the open-loop allocation budget: {over:?}"
    );
}
