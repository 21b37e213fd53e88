//! The node-local LRU read cache ([`ecfs::cache`]) end to end: cache-off
//! replays are byte-identical to the pre-decorator engine, an armed cache
//! serves hits and keeps the consistency oracle clean, and the decorator
//! composes over all seven built-in methods through the method-spec
//! grammar.

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

/// Cache-off golden: a spec-built bare method replays byte-identically to
/// the driver it names, and every new counter stays zero — the decorator
/// API redesign cannot perturb undecorated runs.
#[test]
fn cache_off_is_byte_identical_to_plain_replay() {
    let code = CodeParams::new(6, 3).unwrap();
    for method in builtins() {
        let name = method.name().to_string();
        let plain = builder(code).method(method).build().unwrap();
        let spec = builder(code).method_name(&name).build().unwrap();
        let a = Replay::run(&replay_cfg(plain, 150)).result;
        let b = Replay::run(&replay_cfg(spec, 150)).result;
        assert_eq!(canon(&a), canon(&b), "{name}: spec-built diverged");
        assert_eq!(a.cache_lookups, 0, "{name}");
        assert_eq!(a.cache_hits, 0, "{name}");
        assert_eq!(a.cache_hit_ratio, 0.0, "{name}");
    }
}

/// An armed cache replays deterministically: two runs of the same
/// decorated config are byte-identical (deterministic LRU replacement, no
/// clocks anywhere).
#[test]
fn decorated_replay_is_deterministic() {
    let code = CodeParams::new(6, 3).unwrap();
    for spec in ["lru(1MiB)+FO", "lru(1MiB)+TSUE"] {
        let mk = || builder(code).method_name(spec).build().unwrap();
        let a = Replay::run(&replay_cfg(mk(), 150)).result;
        let b = Replay::run(&replay_cfg(mk(), 150)).result;
        assert_eq!(canon(&a), canon(&b), "{spec}: nondeterministic replay");
    }
}

/// The read cache serves hits: under a skewed update/read mix the armed
/// cache sees lookups and hits, the hit ratio is consistent with the
/// counters, and the oracle stays clean.
#[test]
fn read_cache_serves_hits() {
    let code = CodeParams::new(6, 3).unwrap();
    let cluster = builder(code).method_name("lru(64MiB)+FO").build().unwrap();
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

/// The decorator composes over every built-in driver via the spec
/// grammar, unchanged: consistent oracle, live counters, and a method
/// name that round-trips through `MethodSpec::parse`.
#[test]
fn composes_over_all_seven_builtins() {
    let code = CodeParams::new(6, 3).unwrap();
    for method in builtins() {
        let spec = format!("lru(1MiB)+{}", method.name());
        let cluster = builder(code).method_name(&spec).build().unwrap();
        assert_eq!(cluster.method.name(), spec);
        let parsed = MethodSpec::parse(cluster.method.name()).unwrap();
        assert_eq!(parsed.to_string(), spec, "{spec}: name must round-trip");
        let mut rcfg = replay_cfg(cluster, 120);
        rcfg.volume_bytes = 8 << 20;
        let res = Replay::run(&rcfg).result;
        assert_eq!(res.oracle_violations, 0, "{spec}");
        assert!(res.completed_updates > 0, "{spec}");
        assert!(res.cache_lookups > 0, "{spec}: cache bypassed");
        assert_eq!(res.method, spec);
    }
}

/// Two runs of one config give equal results, and arming tracing retains
/// a trace without changing the result.
#[test]
fn rerun_and_tracing_leave_result_unchanged() {
    let code = CodeParams::new(6, 3).unwrap();
    let mk = || {
        let cluster = builder(code).method_name("lru(1MiB)+TSUE").build().unwrap();
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
