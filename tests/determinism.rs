//! The determinism contract: same config ⇒ same bytes. Running one
//! `ReplayConfig` twice must produce **byte-for-byte** equal results —
//! every deterministic `RunResult` field identical — across all seven
//! update methods, with non-empty fault *and* maintenance plans armed,
//! on the open loop, and behind the cache/staging decorator. Any
//! hash-order or wall-clock dependence in a driver shows up here. The
//! across-cell counterpart (parallel `run_grid` == serial loop) lives in
//! `tests/fault_timeline.rs` and `tests/maintenance.rs`.

use std::fmt::Write as _;

use ecfs::prelude::*;

fn replay(method: Arc<dyn UpdateMethod>, clients: u64, ops: usize) -> ReplayConfig {
    let code = CodeParams::new(6, 3).unwrap();
    let mut cluster = ClusterConfig::ssd_testbed(code, method);
    cluster.clients = clients;
    let mut r = ReplayConfig::new(cluster, TraceFamily::AliCloud);
    r.ops_per_client = ops;
    r.volume_bytes = 32 << 20;
    r
}

fn armed_plans(r: &mut ReplayConfig) {
    r.faults = FaultPlan::new()
        .fail_node(5 * simdes::units::MILLIS, 2)
        .with_repair_bandwidth(200 << 20);
    r.maintenance = MaintenancePlan::new()
        .with_scrub(ScrubConfig {
            bytes_per_sec: 8 << 30,
        })
        .with_lse(LseConfig {
            per_device: 4,
            span_bytes: 8 << 20,
        })
        .with_rebalance();
}

/// Canonical rendering of every *deterministic* `RunResult` field.
/// Exhaustive destructuring: adding a field to `RunResult` fails this
/// test's compile until the field is classified here. Only `wall_ms`,
/// `events_per_sec`, and `setup_ms` (wall-clock measurements) are
/// excluded.
fn canon(r: &RunResult) -> String {
    let RunResult {
        method,
        completed_updates,
        completed_reads,
        completed_writes,
        duration_s,
        update_iops,
        latency_mean_us,
        latency_p99_us,
        disk,
        net_gib,
        net_cross_rack_gib,
        net_msgs,
        erases,
        series,
        log_memory_bytes,
        data_residency,
        delta_residency,
        parity_residency,
        stalls,
        cache_read_hits,
        cache_lookups,
        cache_hits,
        cache_hit_ratio,
        staged_bytes,
        coalesced_bytes,
        stage_flushes,
        drain_s,
        oracle_violations,
        degraded_reads,
        degraded_bytes_decoded,
        failed_ops,
        inline_rebuilds,
        repaired_blocks,
        repaired_bytes,
        data_loss_blocks,
        net_repair_gib,
        mttr_s,
        degraded_p99_us,
        steady_p99_us,
        read_p99_us,
        degraded_read_p99_us,
        steady_read_p99_us,
        offered_ops,
        offered_ops_per_s,
        goodput_ops_per_s,
        queue_delay_mean_us,
        queue_delay_p99_us,
        peak_queue_depth,
        saturated,
        active_clients_peak,
        client_state_bytes,
        workload_state_bytes,
        disk_fill_max,
        disk_fill_min,
        wear_max_bytes,
        wear_spread,
        copysets_used,
        scrub_gib,
        lse_injected,
        lse_found,
        lse_repaired,
        maint_migrated_gib,
        wear_spread_before,
        maint_busy_p99_us,
        maint_idle_p99_us,
        stage_breakdown,
        trace_dropped_spans,
        sim_events,
        wall_ms: _,
        events_per_sec: _,
        setup_ms: _,
    } = r;
    let mut s = String::new();
    let _ = write!(
        s,
        "{method} u={completed_updates} r={completed_reads} w={completed_writes} \
         dur={duration_s:?} iops={update_iops:?} lat=({latency_mean_us:?},{latency_p99_us:?}) \
         disk={disk:?} net=({net_gib:?},{net_cross_rack_gib:?},{net_msgs}) erases={erases} \
         series={series:?} logmem={log_memory_bytes} \
         res=({data_residency:?},{delta_residency:?},{parity_residency:?}) \
         stalls={stalls} cache={cache_read_hits} \
         nodecache=({cache_lookups},{cache_hits},{cache_hit_ratio:?},{staged_bytes},\
         {coalesced_bytes},{stage_flushes}) drain={drain_s:?} viol={oracle_violations} \
         degr=({degraded_reads},{degraded_bytes_decoded},{failed_ops}) \
         repair=({inline_rebuilds},{repaired_blocks},{repaired_bytes},{data_loss_blocks},{net_repair_gib:?}) \
         mttr={mttr_s:?} p99s=({degraded_p99_us:?},{steady_p99_us:?},{read_p99_us:?},\
         {degraded_read_p99_us:?},{steady_read_p99_us:?}) \
         open=({offered_ops},{offered_ops_per_s:?},{goodput_ops_per_s:?},{queue_delay_mean_us:?},\
         {queue_delay_p99_us:?},{peak_queue_depth},{saturated}) \
         scale=({active_clients_peak},{client_state_bytes},{workload_state_bytes}) \
         fleet=({disk_fill_max:?},{disk_fill_min:?},{wear_max_bytes},{wear_spread:?},{copysets_used}) \
         maint=({scrub_gib:?},{lse_injected},{lse_found},{lse_repaired},{maint_migrated_gib:?},\
         {wear_spread_before:?},{maint_busy_p99_us:?},{maint_idle_p99_us:?}) \
         trace=({stage_breakdown:?},{trace_dropped_spans}) \
         events={sim_events}"
    );
    s
}

/// Runs `rcfg` twice, asserts the results equal, and returns the first.
fn assert_runs_twice_equal(rcfg: ReplayConfig) -> RunResult {
    rcfg.validate().expect("config validates");
    let first = Replay::run(&rcfg).result;
    let second = Replay::run(&rcfg).result;
    assert_eq!(
        canon(&first),
        canon(&second),
        "{}: second run diverged from the first",
        first.method
    );
    assert!(
        first.events_per_sec > 0.0,
        "engine-speed instrumentation missing"
    );
    first
}

/// The headline: all seven methods, faults + maintenance armed.
#[test]
fn run_twice_equal_all_methods_with_plans_armed() {
    for method in builtins() {
        let mut rcfg = replay(method, 3, 100);
        armed_plans(&mut rcfg);
        assert_runs_twice_equal(rcfg);
    }
}

/// A wider plan: twice the clients and a second node failure while the
/// first repair is still in flight.
#[test]
fn run_twice_equal_at_the_wider_plan() {
    for method in [Arc::new(Fo) as Arc<dyn UpdateMethod>, Arc::new(Tsue)] {
        let mut rcfg = replay(method, 6, 100);
        armed_plans(&mut rcfg);
        rcfg.faults = rcfg.faults.clone().fail_node(6 * simdes::units::MILLIS, 9);
        assert_runs_twice_equal(rcfg);
    }
}

/// The open-loop path (the load_sweep cell shape): arrival events, the
/// admission window, and saturation accounting, with a node failure.
#[test]
fn run_twice_equal_open_loop() {
    let mut rcfg = replay(Arc::new(Tsue), 6, 100);
    rcfg.workload = Workload::Open(OpenLoopSpec::poisson(64_000.0).with_window(4));
    rcfg.faults = FaultPlan::new().fail_node(5 * simdes::units::MILLIS, 2);
    assert_runs_twice_equal(rcfg);
}

/// A cache + staging decorator over TSUE: the node-local layers
/// (BTreeMap staging buffers, deterministic page caches, age-timer
/// flushes) repeat byte for byte like everything else.
#[test]
fn run_twice_equal_with_cache_and_staging() {
    let code = CodeParams::new(6, 3).unwrap();
    let cluster = ClusterConfig::builder()
        .code(code)
        .method_name("stage(64KiB,2ms)+lru(1MiB)+TSUE")
        .clients(3)
        .build()
        .unwrap();
    let mut rcfg = ReplayConfig::new(cluster, TraceFamily::AliCloud);
    rcfg.ops_per_client = 100;
    rcfg.volume_bytes = 32 << 20;
    assert_runs_twice_equal(rcfg);
}

/// Devices small enough that every one passes its GC horizon while the
/// updates run, so each SSD derives its FTL tables from its logical map
/// mid-replay: every method still checks clean and repeats byte for byte.
#[test]
fn run_twice_equal_when_every_device_collects_mid_run() {
    for method in builtins() {
        let name = method.name().to_string();
        let mut cluster = ClusterConfig::ssd_testbed(CodeParams::new(6, 3).unwrap(), method);
        // 6 MiB devices collect once 6.5 MiB are written; 256 KiB blocks
        // over sixteen 2 MiB volumes reach every node.
        cluster.block_bytes = 256 << 10;
        cluster.fleet = DiskFleet::uniform(DiskKind::Ssd(SsdConfig {
            capacity: 6 << 20,
            ..SsdConfig::default()
        }));
        let mut rcfg = ReplayConfig::new(cluster, TraceFamily::AliCloud);
        rcfg.ops_per_client = 400;
        rcfg.volume_bytes = 2 << 20;
        let (_, cl) = run_update_phase(&rcfg);
        for (node, osd) in cl.nodes.iter().enumerate() {
            assert!(
                osd.disk.stats().erases > 0,
                "{name}: node {node} never collected"
            );
        }
        let res = assert_runs_twice_equal(rcfg);
        assert_eq!(res.oracle_violations, 0, "{name}");
        assert_eq!(res.failed_ops, 0, "{name}");
    }
}

/// The plain cell: no plan, no decorator, closed loop.
#[test]
fn run_twice_equal_plain() {
    assert_runs_twice_equal(replay(Arc::new(Pl), 3, 80));
}
