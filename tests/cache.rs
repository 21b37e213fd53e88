//! The node-local LRU read cache ([`ecfs::cache`]) end to end: cache-off
//! replays are byte-identical whether a method is named or given as a
//! `Method`, an armed cache serves hits and keeps the consistency oracle
//! clean, and `ClusterConfig::read_cache_bytes` arms it under all seven
//! methods.

use std::fmt::Write as _;

use ecfs::prelude::*;

fn replay_cfg(cluster: ClusterConfig, ops: usize) -> ReplayConfig {
    let mut r = ReplayConfig::new(cluster, TraceFamily::AliCloud);
    r.ops_per_client = ops;
    r.volume_bytes = 32 << 20;
    r
}

fn builder(code: CodeParams) -> ClusterConfigBuilder {
    ClusterConfig::builder().code(code).clients(4)
}

/// Canonical rendering of the fields a cache layer could plausibly
/// disturb: op counts, timing, device and network totals, and the new
/// read-cache counters. Byte-compared across configurations.
fn canon(r: &RunResult) -> String {
    let mut s = String::new();
    let _ = write!(
        s,
        "u={} r={} w={} dur={:?} iops={:?} lat=({:?},{:?}) disk={:?} \
         net=({:?},{}) logmem={} stalls={} legacycache={} \
         cache=({},{},{:?}) read_mean={:?} drain={:?} viol={} events={}",
        r.completed_updates,
        r.completed_reads,
        r.completed_writes,
        r.duration_s,
        r.update_iops,
        r.latency_mean_us,
        r.latency_p99_us,
        r.disk,
        r.net_gib,
        r.net_msgs,
        r.log_memory_bytes,
        r.stalls,
        r.cache_read_hits,
        r.cache_lookups,
        r.cache_hits,
        r.cache_hit_ratio,
        r.read_mean_us,
        r.drain_s,
        r.oracle_violations,
        r.sim_events,
    );
    s
}

/// Cache-off golden: a method built by name replays byte-identically to
/// the same `Method` given directly, and every cache counter stays zero.
#[test]
fn cache_off_is_byte_identical_to_plain_replay() {
    let code = CodeParams::new(6, 3).unwrap();
    for method in Method::ALL {
        let name = method.name().to_string();
        let plain = builder(code).method(method).build().unwrap();
        let spec = builder(code).method_name(&name).build().unwrap();
        let a = Replay::run(&replay_cfg(plain, 150)).result;
        let b = Replay::run(&replay_cfg(spec, 150)).result;
        assert_eq!(canon(&a), canon(&b), "{name}: name-built diverged");
        assert_eq!(a.cache_lookups, 0, "{name}");
        assert_eq!(a.cache_hits, 0, "{name}");
        assert_eq!(a.cache_hit_ratio, 0.0, "{name}");
    }
}

/// Exact results of three 150-op cached cells: FO and TSUE behind a
/// 1 MiB cache, and PLR behind a 64 KiB cache, which evicts. Any change to
/// how the cache fills, probes, evicts or counts shows here. Re-pinned
/// when an op that spans blocks began completing at its last slice: the
/// latency and read means moved, and FO's and TSUE's durations.
#[test]
fn cached_cells_match_pinned_goldens() {
    let code = CodeParams::new(6, 3).unwrap();
    for (method, cache_bytes, golden) in [
        (
            "FO",
            1u64 << 20,
            "u=460 r=92 w=48 dur=0.098483853 iops=4670.816443381841 \
            lat=(702.3068934782608,2097.152) disk=DeviceStats { reads: OpCounter { \
            ops: 1895, bytes: 89354240 }, writes: OpCounter { ops: 1944, bytes: \
            89346048 }, overwrites: OpCounter { ops: 1218, bytes: 50112512 }, \
            random_reads: OpCounter { ops: 1895, bytes: 89354240 }, random_writes: \
            OpCounter { ops: 1848, bytes: 86163456 }, erases: 0, region_erases: 0, \
            gc_blocks_scanned: 0, gc_relocated_pages: 0, nand_pages_programmed: \
            21825, wear_bytes: 12894208 } net=(0.08744215965270996,2642) \
            logmem=11427520 stalls=0 legacycache=0 cache=(94,47,0.5) \
            read_mean=254.83342391304348 drain=0.0 viol=0 events=604",
        ),
        (
            "TSUE",
            1 << 20,
            "u=460 r=92 w=48 dur=0.05699564 iops=8070.792783447997 \
            lat=(392.6022826086957,1048.576) disk=DeviceStats { reads: OpCounter { \
            ops: 525, bytes: 45027328 }, writes: OpCounter { ops: 2106, bytes: \
            140537856 }, overwrites: OpCounter { ops: 82, bytes: 5865472 }, \
            random_reads: OpCounter { ops: 525, bytes: 45027328 }, random_writes: \
            OpCounter { ops: 482, bytes: 41885696 }, erases: 0, region_erases: 0, \
            gc_blocks_scanned: 0, gc_relocated_pages: 0, nand_pages_programmed: \
            34323, wear_bytes: 19230720 } net=(0.08636641502380371,2202) \
            logmem=6638427840 stalls=0 legacycache=4 cache=(94,47,0.5) \
            read_mean=252.5274347826087 drain=0.021 viol=0 events=748",
        ),
        (
            "PLR",
            64 << 10,
            "u=460 r=92 w=48 dur=0.182230457 iops=2524.2761697074598 \
            lat=(1253.1030086956523,8388.608) disk=DeviceStats { reads: OpCounter { \
            ops: 2249, bytes: 155283456 }, writes: OpCounter { ops: 3330, bytes: \
            153968640 }, overwrites: OpCounter { ops: 2496, bytes: 111591424 }, \
            random_reads: OpCounter { ops: 1940, bytes: 90660864 }, random_writes: \
            OpCounter { ops: 3234, bytes: 150786048 }, erases: 309, region_erases: \
            309, gc_blocks_scanned: 0, gc_relocated_pages: 0, nand_pages_programmed: \
            37602, wear_bytes: 25116672 } net=(0.08744215965270996,2642) \
            logmem=1002560 stalls=0 legacycache=0 cache=(94,2,0.02127659574468085) \
            read_mean=283.86317391304345 drain=0.006558989 viol=0 events=605",
        ),
    ] {
        let cluster = builder(code)
            .method_name(method)
            .read_cache_bytes(cache_bytes)
            .build()
            .unwrap();
        let res = Replay::run(&replay_cfg(cluster, 150)).result;
        assert_eq!(canon(&res), golden, "{method} behind {cache_bytes} B");
    }
}

/// An armed cache replays deterministically: two runs of the same
/// cached config are byte-identical (deterministic LRU replacement, no
/// clocks anywhere).
#[test]
fn decorated_replay_is_deterministic() {
    let code = CodeParams::new(6, 3).unwrap();
    for method in ["FO", "TSUE"] {
        let mk = || {
            builder(code)
                .method_name(method)
                .read_cache_bytes(1 << 20)
                .build()
                .unwrap()
        };
        let a = Replay::run(&replay_cfg(mk(), 150)).result;
        let b = Replay::run(&replay_cfg(mk(), 150)).result;
        assert_eq!(canon(&a), canon(&b), "{method}: nondeterministic replay");
    }
}

/// The read cache serves hits: under a skewed update/read mix the armed
/// cache sees lookups and hits, the hit ratio is consistent with the
/// counters, and the oracle stays clean.
#[test]
fn read_cache_serves_hits() {
    let code = CodeParams::new(6, 3).unwrap();
    let cluster = builder(code)
        .method_name("FO")
        .read_cache_bytes(64 << 20)
        .build()
        .unwrap();
    let res = Replay::run(&replay_cfg(cluster, 300)).result;
    assert_eq!(res.oracle_violations, 0);
    assert!(res.cache_lookups > 0, "no lookups recorded");
    assert!(res.cache_hits > 0, "cache never hit");
    assert!(
        (res.cache_hit_ratio - res.cache_hits as f64 / res.cache_lookups as f64).abs() < 1e-12,
        "hit ratio inconsistent with counters"
    );
    assert!(res.cache_hit_ratio <= 1.0);
}

/// The cache composes with every built-in driver, unchanged: consistent
/// oracle, live counters, and the driver's own name in the result.
#[test]
fn composes_over_all_seven_builtins() {
    let code = CodeParams::new(6, 3).unwrap();
    for method in Method::ALL {
        let name = method.name().to_string();
        let cluster = builder(code)
            .method(method)
            .read_cache_bytes(1 << 20)
            .build()
            .unwrap();
        let mut rcfg = replay_cfg(cluster, 120);
        rcfg.volume_bytes = 8 << 20;
        let res = Replay::run(&rcfg).result;
        assert_eq!(res.oracle_violations, 0, "{name}");
        assert!(res.completed_updates > 0, "{name}");
        assert!(res.cache_lookups > 0, "{name}: cache bypassed");
        assert_eq!(res.method, name);
    }
}

/// Two runs of one config give equal results, and arming tracing retains
/// a trace without changing the result.
#[test]
fn rerun_and_tracing_leave_result_unchanged() {
    let code = CodeParams::new(6, 3).unwrap();
    let mk = || {
        let cluster = builder(code)
            .method_name("TSUE")
            .read_cache_bytes(1 << 20)
            .build()
            .unwrap();
        replay_cfg(cluster, 120)
    };
    let out = Replay::run(&mk());
    let rerun = Replay::run(&mk()).result;
    assert_eq!(canon(&out.result), canon(&rerun));
    assert!(out.trace.is_none());

    let mut traced_cfg = mk();
    traced_cfg.trace = TraceConfig::on();
    let traced = Replay::run(&traced_cfg);
    assert!(traced.trace.is_some(), "armed tracing must retain a trace");
    assert_eq!(
        canon(&traced.result),
        canon(&rerun),
        "tracing changed what was simulated"
    );
}
